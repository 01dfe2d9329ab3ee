"""Fractional calculus of order alpha on time scales.

A time scale is any nonempty closed set of reals; the package computes the
order-alpha conformable derivative and integral of expression-defined
functions on six scale shapes, exposes closed-form power rules and chain-rule
witnesses, and ships randomized verifiers for the calculus laws.

Typical use:

>>> from tscal import parse_expr, parse_scale, t_alpha
>>> t_alpha(parse_expr("t^2"), parse_scale("hZ(h=1)"), 2.0, 0.5)
7.0710678118654755
"""

from .derivative import (
    AlphaOrder,
    chain_rule_witness,
    delta_derivative_n,
    naive_chain_gap,
    power_rule,
    sigma_shift,
    t_alpha,
    t_alpha_at_zero,
    t_alpha_higher,
    t_alpha_higher_paths,
)
from .expr import (
    Expr,
    derivative,
    evaluate,
    nth_derivative,
    parse as parse_expr,
    render,
    substitute,
)
from .integral import (
    FtcReport,
    IntegralResult,
    MonotonicityReport,
    cauchy,
    ftc_check,
    indefinite,
    monotonicity_check,
    single_grain,
)
from .laws import LAWS, VerificationReport, definition_scan, run_law_suite
from .timescale import (
    FiniteSet,
    Jumps,
    PeriodicUnion,
    QLatticeClosure,
    QPowers,
    RealInterval,
    Segment,
    Series,
    TimeScale,
    UniformLattice,
    finite_from_file,
    parse_scale,
)

__version__ = "0.1.0"

__all__ = [
    "AlphaOrder", "IntegralResult",
    "FtcReport", "MonotonicityReport", "VerificationReport", "LAWS",
    "TimeScale", "RealInterval", "UniformLattice", "QLatticeClosure",
    "QPowers", "PeriodicUnion", "FiniteSet", "Jumps", "Segment", "Series",
    "Expr", "parse_expr", "parse_scale", "finite_from_file",
    "evaluate", "derivative", "nth_derivative", "substitute", "render",
    "t_alpha", "t_alpha_at_zero", "t_alpha_higher", "t_alpha_higher_paths",
    "delta_derivative_n", "power_rule", "sigma_shift",
    "chain_rule_witness", "naive_chain_gap",
    "cauchy", "single_grain", "indefinite", "ftc_check", "monotonicity_check",
    "definition_scan", "run_law_suite",
    "__version__",
]
