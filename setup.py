"""Build script: compiles the optional kernel `_tensorcore` (the loops on
the flat integer coordinate vectors of `numberfield`) from its hand-written
C source, which needs the CPython headers and nothing else.

The package works without the extension (`numberfield` falls back to its
pure-Python loops at import time), so the extension is `optional`: a failed
build is a warning, not an error.  Build in place with

    python3 setup.py build_ext --inplace
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension(
            "hypercircles._tensorcore",
            ["src/hypercircles/_tensorcore.c"],
            extra_compile_args=["-O3"],
            optional=True,
        )
    ],
)
