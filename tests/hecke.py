"""Hecke closure of the bases: a check that does not use the identity registry.

The Hecke operators map M_k(Gamma0(N)) into itself.  For a prime p not
dividing N, T_p has a_n(T_p f) = a_(np)(f) + p^(k-1) a_(n/p)(f), the second
term only when p divides n; for p dividing N, U_p has a_n(U_p f) = a_(np)(f)
(Diamond and Shurman, A First Course in Modular Forms, ch. 5; Atkin and
Lehner, Math. Ann. 185, 1970, for U_p).  So T_p f or U_p f below q^P, read
from f below q^(pP), must reduce in the basis of the same space.  The check
reads f's coefficients far past the depth that reduce compares.

    PYTHONPATH=src python tests/hecke.py [max_weight [p ...]]

runs the sweep over every nonzero space with N <= 10 and even weight up to
max_weight (default 24) at the primes given (default 2 3 5), prints the
number of checks and the time, and exits nonzero when a check fails.

    PYTHONPATH=src python tests/hecke.py delta [P]

runs the deep self-check of the level units instead: T_2 (U_2 when 2
divides N) of Delta_N, expanded below q^(2P) (default P = 10000), must
reduce in M_rho(Gamma0(N)) below q^P for N = 1..10.  It checks the eta
kernel far past any slow oracle.  tests/test_hecke.py runs a slice of both.
pytest does not collect this file.
"""

import sys
import time
from fractions import Fraction

from qmodular.eta import delta, level_unit
from qmodular.levels import basis, dimension, reduce
from qmodular.qseries import QSeries


def hecke(f: QSeries, p: int, k: int, N: int, P: int) -> QSeries:
    """T_p f (p not dividing N) or U_p f (p dividing N) below q^P, for f of
    weight k on Gamma0(N) with integer exponents, known below q^(pP)."""
    if f.den != 1 or f.val < 0 or f.prec < p * P:
        raise ValueError(f"need a power series known below q^{p * P}")
    # a[n] is the numerator of the coefficient of q^n, over f.d
    a = [0] * f.val + list(f.nums)
    a += [0] * (f.prec - len(a))
    out = [a[n * p] for n in range(P)]
    if N % p:
        for n in range(0, P, p):
            out[n] += p ** (k - 1) * a[n // p]
    return QSeries.build(1, 0, [Fraction(x, f.d) for x in out], P)


def sweep(max_weight: int, primes) -> int:
    """Reduce T_p or U_p of every basis element of every nonzero space with
    N <= 10 and even weight <= max_weight, each below q^(dim + 6), at each
    prime; returns the number of checks.  A failing check raises NotInSpan."""
    checks = 0
    for N in range(1, 11):
        for k in range(2, max_weight + 1, 2):
            d = dimension(N, k)
            if not d:
                continue
            P = d + 6
            for p in primes:
                for el in basis(N, k, p * P).elements:
                    reduce(hecke(el.series, p, k, N, P), N, k)
                    checks += 1
    return checks


def unit_sweep(P: int) -> None:
    """Reduce T_2 or U_2 of each level unit Delta_N, N = 1..10, read from
    Delta_N below q^(2P), in M_rho(Gamma0(N)) below q^P.  A failing check
    raises NotInSpan."""
    for N in range(1, 11):
        rho = level_unit(N).rho
        reduce(hecke(delta(N, 2 * P), 2, rho, N, P), N, rho)


if __name__ == "__main__":
    start = time.perf_counter()
    if sys.argv[1:2] == ["delta"]:
        P = int(sys.argv[2]) if len(sys.argv) > 2 else 10_000
        unit_sweep(P)
        done = f"T_2 or U_2 of Delta_N, N = 1..10, in span below q^{P}"
    else:
        max_weight = int(sys.argv[1]) if len(sys.argv) > 1 else 24
        primes = [int(p) for p in sys.argv[2:]] or [2, 3, 5]
        done = f"{sweep(max_weight, primes)} Hecke checks in span"
    print(f"{done}, {time.perf_counter() - start:.2f} s")
