"""Host-speed probe: a fixed pure-Python integer workload.

On a shared host, Python code runs at speeds that drift by up to a third
over seconds to minutes (measured on a 2-core VM).  The probe, run right
before and after each timed step, measures the speed of that moment, and a
step's time times REF_NS / probe time removes the drift.  The probe does
integer arithmetic like the rational kernels the program spends its time
in, imports nothing and calls no code of the package, so a change to the
package moves the scaled times in full.
"""

import time

# Probe duration on the reference host (2-core x86-64 VM at 2.1 GHz,
# Python 3.11) in its fast phase; normalized times are in that host's
# seconds.
REF_NS = 2_100_000


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def probe_ns():
    """Nanoseconds taken by the fixed workload."""
    start = time.perf_counter_ns()
    num, den = 0, 1
    for k in range(1, 150):
        a, b = 3 * k, (2 * k + 1) * (k + 7)
        num, den = num * b + a * den, den * b
        g = _gcd(num, den)
        num //= g
        den //= g
    table = {}
    for k in range(3000):
        table[k % 97] = table.get(k % 97, 0) + k * k
    return time.perf_counter_ns() - start
