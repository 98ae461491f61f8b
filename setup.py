"""Build script: compiles the optional arithmetic kernels (rational scalars
and integer coordinate tensors) from the committed C sources.

The package works without the extensions (each module falls back to its
pure-Python kernel at import time), so a build failure here downgrades to a
warning instead of aborting the install.  Build in place with

    python3 setup.py build_ext --inplace
"""

import sys

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class OptionalBuildExt(build_ext):
    """build_ext that tolerates a missing compiler toolchain."""

    def run(self):
        try:
            super().run()
        except Exception as exc:  # noqa: BLE001 - deliberately broad
            self._warn(exc)

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:  # noqa: BLE001
            self._warn(exc)

    @staticmethod
    def _warn(exc):
        print(
            f"WARNING: building a compiled kernel failed ({exc}); "
            "falling back to the pure-Python implementation.",
            file=sys.stderr,
        )


setup(
    ext_modules=[
        Extension(
            f"hypercircles.{name}",
            [f"src/hypercircles/{name}.c"],
            extra_compile_args=["-O3"],
        )
        for name in ("_ratcore", "_tensorcore")
    ],
    cmdclass={"build_ext": OptionalBuildExt},
)
