"""Exact q-expansions of modular forms on Gamma0(N), 1 <= N <= 10.

Importing the package loads no dataclasses, typing or json: QSeries is a
slotted immutable class and the records are named tuples.  The identity
registry behind check and check_all is built on their first call, not by
the import.
"""

from .qseries import QSeries, monomial, zero_series, one_series, sigma_series, inv_sin2
from .eta import EtaQuotient, delta, level_unit
from .weierstrass import eisenstein, phi_level, wp_hat, wpt_hat
from .expr import print_expr, val_lower, weight
from .levels import basis, basis_skeleton, dimension, expand_expr, generator, reduce
from .identities import check, check_all

__all__ = [
    "QSeries",
    "monomial",
    "zero_series",
    "one_series",
    "sigma_series",
    "inv_sin2",
    "EtaQuotient",
    "delta",
    "level_unit",
    "eisenstein",
    "phi_level",
    "wp_hat",
    "wpt_hat",
    "basis",
    "basis_skeleton",
    "dimension",
    "expand_expr",
    "generator",
    "print_expr",
    "reduce",
    "val_lower",
    "weight",
    "check",
    "check_all",
]

__version__ = "0.1.0"
