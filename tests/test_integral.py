"""Order-alpha integrals: cells, singular endpoints, FTC, monotonicity."""

import math
import random
import struct
from functools import partial

import mpmath
import pytest

import tscal.integral as integral_module
from tscal.errors import (
    DomainError,
    EndpointSingularity,
    NonPositivePoint,
    NotInScale,
    NotRepresentable,
    QuadratureBudgetExceeded,
    ReversedBounds,
)
from tscal.integral import (
    QUAD_TOL,
    cauchy,
    ftc_check,
    indefinite,
    monotonicity_check,
    single_grain,
)
from tscal.expr import Add, Apply, Const, Expr, Mul, Var, _compile, evaluate, parse
from tscal.timescale import (
    FiniteSet,
    Jumps,
    PeriodicUnion,
    QLatticeClosure,
    QPowers,
    RealInterval,
    Segment,
    UniformLattice,
)

R = RealInterval()
HZ1 = UniformLattice(1.0)
QN2 = QPowers(2.0)
QZ2 = QLatticeClosure(2.0)

B_UPPER = 10.0 ** (2.0 / 3.0)  # (3/2 * 6 + 1)**(2/3): makes the model integral 6


def test_continuum_integral_example():
    # antiderivative of t * t**(-1/2) is (2/3) t**(3/2); value from 1 to 10**(2/3) is 6
    res = cauchy(parse("t"), R, 1.0, B_UPPER, 0.5)
    assert res.value == pytest.approx(6.0, abs=1e-9)
    assert res.est_error <= 1e-9
    assert res.cells_used == 1


def test_zero_width_integral():
    for ts, p in ((R, 2.0), (HZ1, 3.0), (QN2, 4.0)):
        res = cauchy(parse("t^2 + 1"), ts, p, p, 0.7)
        assert res.value == 0.0 and res.cells_used == 0


@pytest.mark.parametrize("ts, a, b", [
    (HZ1, 1.0, 1.0 + 1e-13), (HZ1, 0.0, 1e-13), (QN2, 2.0, 2.0 * (1.0 + 1e-13)),
    (FiniteSet((1.0, 2.0, 4.0)), 2.0, 2.0 + 1e-13), (PeriodicUnion(1.0, 1.0), 3.0, 3.0 + 1e-13),
    (QZ2, 2.0, 2.0000000000002)])
def test_endpoints_within_slack_of_one_point(ts, a, b):
    # both endpoints are the same scale point, so there is no cell to integrate
    res = cauchy(parse("t"), ts, a, b, 0.5)
    assert (res.value, res.est_error, res.cells_used) == (0.0, 0.0, 0)


def test_lattice_integral_is_a_finite_sum():
    # sum of t^2 over t = 1, 2, 3 with unit steps
    res = cauchy(parse("t^2"), HZ1, 1.0, 4.0, 1.0)
    assert res.value == pytest.approx(14.0, rel=1e-15)
    assert res.est_error == 0.0
    assert res.cells_used == 3


def test_single_grain_examples():
    # f(t) mu(t) t**(alpha-1) instantiated by hand
    assert single_grain(parse("t^2"), HZ1, 2.0, 0.5) == pytest.approx(
        4.0 * 1.0 * 2.0 ** -0.5, rel=1e-14)
    assert single_grain(parse("t^3 + 1"), R, 3.0, 0.7) == 0.0
    assert single_grain(parse("1"), QN2, 4.0, 1.0) == pytest.approx(4.0, rel=1e-15)


def test_single_grain_matches_one_cell_integral():
    rng = random.Random(3)
    for _ in range(40):
        ts = rng.choice([HZ1, QN2, QZ2, PeriodicUnion(1.0, 2.0)])
        if isinstance(ts, UniformLattice):
            t = float(rng.randint(1, 9))
        elif isinstance(ts, PeriodicUnion):
            t = rng.randint(0, 3) * 3.0 + 1.0
        else:
            t = ts.q ** rng.randint(-3, 5)
        alpha = rng.uniform(0.1, 1.0)
        f = parse("t^2 - 3*t + 1")
        grain = single_grain(f, ts, t, alpha)
        whole = cauchy(f, ts, t, ts.sigma(t), alpha).value
        assert abs(grain - whole) <= 1e-12 * max(1.0, abs(grain))


def test_single_grain_preconditions():
    with pytest.raises(NonPositivePoint):
        single_grain(parse("t"), HZ1, 0.0, 0.5)
    with pytest.raises(NotInScale):
        single_grain(parse("t"), HZ1, 1.5, 0.5)


def test_indefinite_examples():
    assert indefinite(parse("t"), R, 1.0, 1.0, 0.5) == 0.0
    assert indefinite(parse("t"), R, 1.0, B_UPPER, 0.5) == pytest.approx(6.0, abs=1e-9)
    # unit steps of a unit integrand from 1 to 3
    assert indefinite(parse("1"), HZ1, 1.0, 3.0, 1.0) == pytest.approx(2.0, rel=1e-15)


def test_reversal_is_exactly_antisymmetric():
    rng = random.Random(8)
    for _ in range(100):
        ts = rng.choice([R, HZ1, QN2, QZ2, PeriodicUnion(1.0, 2.0)])
        if isinstance(ts, RealInterval):
            a, b = sorted((rng.uniform(0.2, 5.0), rng.uniform(0.2, 5.0)))
        elif isinstance(ts, UniformLattice):
            a, b = sorted(rng.sample(range(1, 12), 2))
            a, b = float(a), float(b)
        elif isinstance(ts, PeriodicUnion):
            a, b = sorted(rng.uniform(0.0, 1.0) + 3.0 * rng.randint(0, 2) for _ in range(2))
            if a == b:
                continue
        else:
            lo_exp = 0 if isinstance(ts, QPowers) else -3
            e0, e1 = sorted(rng.sample(range(lo_exp, 6), 2))
            a, b = ts.q ** e0, ts.q ** e1
        alpha = rng.uniform(0.1, 1.0)
        f = parse("t^2 - t + 2")
        forward = cauchy(f, ts, a, b, alpha).value
        backward = cauchy(f, ts, b, a, alpha).value
        assert forward == -backward


def test_additivity_small_cases():
    f = parse("t^3 - t")
    for ts, (a, c, b) in (
        (HZ1, (1.0, 3.0, 6.0)),
        (QN2, (1.0, 4.0, 16.0)),
        (R, (0.5, 1.25, 3.0)),
    ):
        whole = cauchy(f, ts, a, b, 0.6).value
        split = cauchy(f, ts, a, c, 0.6).value + cauchy(f, ts, c, b, 0.6).value
        assert abs(whole - split) <= 3e-10 * max(1.0, abs(whole))


def test_improper_endpoint_at_zero():
    # integral over [0, 1] of t * t**(-1/2) dt = 2/3
    res = cauchy(parse("t"), RealInterval(0.0, 2.0), 0.0, 1.0, 0.5)
    assert res.value == pytest.approx(2.0 / 3.0, abs=2e-10)
    # integral over [0, 1] of t**(-1/2) dt = 2
    res = cauchy(parse("1"), RealInterval(0.0, 2.0), 0.0, 1.0, 0.5)
    assert res.value == pytest.approx(2.0, abs=2e-9)


def test_endpoint_admitted_as_zero_integrates_from_zero():
    # -1e-15 lies within the membership slack of 0 and is taken as 0; below
    # alpha = 1 the substitution u = t**alpha must not see a negative endpoint
    f = parse("t")
    for alpha in (0.5, 1.0):
        assert cauchy(f, R, -1e-15, 1.0, alpha) == cauchy(f, R, 0.0, 1.0, alpha)
        assert cauchy(f, R, 1.0, -1e-15, alpha).value == -cauchy(f, R, 0.0, 1.0, alpha).value
    assert cauchy(f, R, -1e-15, 1.0, 0.5).value == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert cauchy(f, R, -1e-15, 0.0, 0.5).value == 0.0


def test_improper_endpoint_divergent_integrand():
    for src in ("1/t", "t^(-0.6)"):
        with pytest.raises(EndpointSingularity):
            cauchy(parse(src), RealInterval(0.0, 2.0), 0.0, 1.0, 0.5)


@pytest.mark.parametrize("src", ["t^(-0.48)", "t^(-0.49)"])
def test_zero_endpoint_beyond_float_resolution_is_a_singularity(src):
    # convergent (t^(-0.49) integrates to 100), but the nodes t = u**2 near
    # u = 0 underflow to 0.0, where the integrand is a zero division
    with pytest.raises(EndpointSingularity, match="maps to t = u"):
        cauchy(parse(src), RealInterval(0.0, 2.0), 0.0, 1.0, 0.5)


def test_zero_endpoint_meets_quad_tol():
    # antiderivative of (t^2 + 1) t**(alpha-1) is t**(alpha+2)/(alpha+2) + t**alpha/alpha
    for alpha in (0.5, 0.3):
        res = cauchy(parse("t^2 + 1"), R, 0.0, 10.0, alpha)
        exact = 10.0 ** (alpha + 2.0) / (alpha + 2.0) + 10.0 ** alpha / alpha
        assert abs(res.value - exact) <= 1e-10
        assert res.est_error <= QUAD_TOL


def test_log_singularity_at_zero():
    # integral over [0, 1] of log(t) t**(-1/2) dt = -4
    res = cauchy(parse("log(t)"), RealInterval(0.0, 2.0), 0.0, 1.0, 0.5)
    assert abs(res.value + 4.0) <= 1e-10
    assert res.est_error <= QUAD_TOL


def test_large_integrands_are_relatively_accurate():
    for src, exact in (
        ("1000000000*cos(0.7*t)", 1e9 / 0.7 * (math.sin(7.0) - math.sin(0.7))),
        ("1000000000*sin(t)", 1e9 * (math.cos(1.0) - math.cos(10.0))),
    ):
        res = cauchy(parse(src), R, 1.0, 10.0, 1.0)
        assert abs(res.value - exact) <= 1e-12 * abs(exact)


def test_evaluation_counts(monkeypatch):
    calls = [0]
    inner = integral_module.evaluate

    def counted(f, t):
        calls[0] += 1
        return inner(f, t)

    monkeypatch.setattr(integral_module, "evaluate", counted)
    res = cauchy(parse("t^3 - 2*t + log(t)*sin(t)"), R, 1.0, 10.0, 0.5)
    # the reference value is mpmath.quad's at 30 digits
    assert abs(res.value - 862.945086109856625) <= 1e-12 * 862.9
    assert calls[0] < 200
    calls[0] = 0
    cauchy(parse("t^2 + 1"), R, 0.0, 10.0, 0.5)
    assert calls[0] <= 13045


def test_q_series_from_zero():
    q = 2.0
    # alpha = 1: sum over k >= 1 of q**-k * (q-1) q**-k, computed directly
    expected = sum(q ** -k * (q - 1) * q ** -k for k in range(1, 60))
    res = cauchy(parse("t"), QZ2, 0.0, 1.0, 1.0)
    assert res.value == pytest.approx(expected, abs=1e-10)
    assert res.cells_used > 0

    # small alpha cannot reach quad_tol at the enumeration cutoff
    with pytest.raises(EndpointSingularity):
        cauchy(parse("1"), QZ2, 0.0, 1.0, 0.3)


def _series_from_zero(f, q, hi, alpha):
    """Direct 50-digit sum of f(t) t**(alpha-1) mu(t) over t = q**j < hi."""
    with mpmath.workdps(50):
        q, alpha = mpmath.mpf(q), mpmath.mpf(alpha)
        top = int(mpmath.nint(mpmath.log(hi) / mpmath.log(q)))
        return float(mpmath.fsum(f(q ** j) * (q ** j) ** alpha * (q - 1)
                                 for j in range(top - 1, top - 2000, -1)))


# f is zero or tiny at a lattice point near the top; the term there must not
# stop the series
SERIES_ROWS = [
    ("1-t", lambda t: 1 - t, 2.0, 2.0, 1.0),
    ("t-8", lambda t: t - 8, 2.0, 16.0, 1.0),
    ("t^2-5*t", lambda t: t ** 2 - 5 * t, 5.0, 25.0, 1.0),
    ("exp(-t)", lambda t: mpmath.exp(-t), 2.0, 64.0, 1.0),
    ("exp(-t)*t^2", lambda t: mpmath.exp(-t) * t ** 2, 4.0, 256.0, 0.5),
    ("t-0.5", lambda t: t - 0.5, 2.0, 4.0, 1.0),
    ("(t-1)*(t-2)", lambda t: (t - 1) * (t - 2), 2.0, 8.0, 1.0),
    ("(t-1.0000001)^2", lambda t: (t - mpmath.mpf("1.0000001")) ** 2, 2.0, 4.0, 1.0),
]


@pytest.mark.parametrize("src,f,q,hi,alpha", SERIES_ROWS, ids=[row[0] for row in SERIES_ROWS])
def test_q_series_from_zero_passes_zeros_of_f(src, f, q, hi, alpha):
    res = cauchy(parse(src), QLatticeClosure(q), 0.0, hi, alpha)
    assert abs(res.value - _series_from_zero(f, q, hi, alpha)) <= QUAD_TOL
    assert 0.0 < res.est_error <= QUAD_TOL


def test_q_series_from_zero_raises_without_a_settled_tail():
    # the terms fall by 2**-0.5 a step, so the tail still exceeds quad_tol at
    # the cutoff; the zero term at 0.25 must not stop the series first
    with pytest.raises(EndpointSingularity, match="loosen quad_tol"):
        cauchy(parse("t-0.25"), QZ2, 0.0, 4.0, 0.5)


def test_jump_at_zero_rejected_for_fractional_alpha():
    fs = FiniteSet((0.0, 1.0, 2.0))
    with pytest.raises(EndpointSingularity):
        cauchy(parse("t + 1"), fs, 0.0, 2.0, 0.5)
    # alpha = 1 carries no singular weight: f(0) + f(1) with unit grains
    res = cauchy(parse("t + 1"), fs, 0.0, 2.0, 1.0)
    assert res.value == pytest.approx(3.0, rel=1e-15)
    # a point just below 0, within the membership slack, is the same jump
    with pytest.raises(EndpointSingularity):
        cauchy(parse("t + 1"), FiniteSet((-1e-15, 1.0, 2.0)), -1e-15, 1.0, 0.5)


def test_integral_preconditions():
    f = parse("t")
    with pytest.raises(NotInScale):
        cauchy(f, HZ1, 0.5, 2.0, 0.5)
    with pytest.raises(NonPositivePoint):
        cauchy(f, HZ1, -1.0, 2.0, 0.5)
    with pytest.raises(ValueError):
        cauchy(f, HZ1, 1.0, 2.0, 1.5)


def test_quadrature_budget_guard(monkeypatch):
    monkeypatch.setattr(integral_module, "_MAX_SUBDIVISIONS", 4)
    with pytest.raises(QuadratureBudgetExceeded):
        cauchy(parse("sin(50*t)"), R, 0.5, 4.0, 0.9)


def test_periodic_union_mixes_cells():
    ts = PeriodicUnion(1.0, 2.0)
    # alpha = 1: segment [3, 4] contributes 7/2, jump at 4 contributes 4*2
    res = cauchy(parse("t"), ts, 3.0, 6.0, 1.0)
    assert res.value == pytest.approx(3.5 + 8.0, abs=1e-10)
    assert res.cells_used == 2


def test_ftc_examples():
    rep = ftc_check(parse("t"), R, [2.0, 3.0], 0.5)
    assert rep.passed and rep.max_rel_deviation <= 1e-6

    rep = ftc_check(parse("1"), HZ1, [1.0, 2.0, 3.0], 1.0)
    assert rep.passed and rep.max_rel_deviation == 0.0

    rep = ftc_check(parse("t^2"), QN2, [2.0, 4.0, 8.0], 0.5)
    assert rep.passed and rep.max_rel_deviation <= 1e-10


def test_ftc_unsettled_dense_quotient_is_a_failure(monkeypatch):
    # local integrals that alternate between 0 and twice the width never let
    # the Richardson corners settle: the point fails once the step has shrunk
    # to LIMIT_RTOL times the first, after 30 quotients
    calls = []

    def alternating(f, ts, lo, hi, alpha, quad_tol=None):
        calls.append(hi - lo)
        return integral_module.IntegralResult((hi - lo) * (len(calls) % 2) * 2.0, 0.0, 1)

    monkeypatch.setattr(integral_module, "cauchy", alternating)
    rep = ftc_check(parse("t"), R, [2.0], 1.0)
    assert rep.entries == ()
    assert rep.failures == ((2.0, "LimitDiverged: difference quotient did not "
                                  "stabilize in 30 steps at t=2.0"),)
    assert len(calls) == 30


@pytest.mark.parametrize("t", [1e4, 1e6])
def test_ftc_halves_until_its_step_resolves_the_period(t):
    # the first local integrals, 2e-3 t wide, span about 320 periods of sin
    # at t = 1e6, where the corners settle at the 16th quotient
    rep = ftc_check(parse("sin(t)"), R, [t], 0.5)
    assert rep.passed and rep.failures == () and rep.max_rel_deviation <= 1e-10


def test_ftc_aggregates_bad_points_without_raising():
    rep = ftc_check(parse("t"), HZ1, [1.0, 2.5], 0.5)
    assert len(rep.entries) == 1
    assert len(rep.failures) == 1
    assert "NotInScale" in rep.failures[0][1]


def test_monotonicity_examples():
    rep = monotonicity_check(parse("t^2"), HZ1, 1.0, 10.0, 0.5)
    assert rep.status == "monotone" and not rep.violations

    rep = monotonicity_check(parse("0 - t"), R, 1.0, 2.0, 0.5)
    assert rep.status == "hypothesis-violated" and not rep.hypothesis_ok

    rep = monotonicity_check(parse("log(t)"), QN2, 1.0, 64.0, 0.3)
    assert rep.status == "monotone"


def test_monotonicity_detects_actual_decrease():
    # a decreasing function cannot satisfy the derivative hypothesis
    rep = monotonicity_check(parse("1/t"), QN2, 1.0, 32.0, 0.8)
    assert rep.status == "hypothesis-violated"


@pytest.mark.parametrize("ts,lo,hi,n", [
    (HZ1, 1.0, 30001.0, 7501),
    (PeriodicUnion(0.7, 0.4), 0.7, 22.7, 5131),
])
def test_thinned_samples_end_at_hi_once(ts, lo, hi, n):
    # the thinning stride divides the sample count minus one on both scales,
    # where the last sample was once taken twice
    samples = integral_module._sample_scale_points(ts, lo, hi)
    assert len(samples) == n
    assert all(p < q for p, q in zip(samples, samples[1:]))
    assert samples[0] == lo and samples[-1] == hi and samples.count(hi) == 1


def _full_fill_sample(ts, lo, hi):
    """Every isolated point and 512 fill intervals per segment, all built,
    sorted and thinned by one stride coprime to 513 to at most 10,000 points
    that end at hi."""
    points = [lo, hi]
    for cell in ts.decompose(lo, hi):
        if isinstance(cell, Jumps):
            points.extend(cell.points)
        else:
            width = cell.hi - cell.lo
            points.extend(cell.lo + width * i / 512 for i in range(513))
    out = sorted(set(points))
    stride = math.ceil(len(out) / 10_000)
    while math.gcd(stride, 513) > 1:
        stride += 1
    return out if stride == 1 else out[:-1:stride] + [out[-1]]


P11 = PeriodicUnion(1.0, 1.0)


@pytest.mark.parametrize("ts,lo,hi,n", [
    (P11, 0.5, 38.0, 9748),  # 19 blocks: no thinning
    (P11, 0.5, 40.0, 5131),  # 20 blocks: a stride of 2
    (P11, 0.5, 42.0, 5388),
    (P11, 0.5, 1000.0, 9867),
    (P11, 0.5, 10000.0, 9982),  # 5,000 blocks: a stride of 257
    (PeriodicUnion(0.7, 0.4), 0.7, 22.7, 5131),
    (PeriodicUnion(0.3, 1.7), 0.1, 3000.3, 9748),  # a stride of 79, not 78 = 2*3*13
    (HZ1, 1.0, 30001.0, 7501),
    (R, 1.0, 1.0 + 1e-14, 46),  # a segment too narrow for 512 distinct points
])
def test_samples_are_the_full_fill_thinned(ts, lo, hi, n):
    samples = integral_module._sample_scale_points(ts, lo, hi)
    assert len(samples) == n
    assert samples == _full_fill_sample(ts, lo, hi)


def test_many_blocks_keep_every_fill_phase():
    # the stride of 257 drifts by one place per block of 513 points, so a
    # negative window inside the blocks is sampled as with the full fill
    rep = monotonicity_check(parse("t - 0.9*sin(3.141592653589793*t)^2"), P11,
                             0.5, 10000.0, 0.5)
    assert rep.status == "hypothesis-violated" and not rep.hypothesis_ok
    assert rep.samples_used == 9982


def test_a_stride_sharing_a_factor_with_a_block_is_raised():
    # 9,981 blocks of 513 points ask for a stride of 513, which keeps only
    # block starts, where the derivative is positive; 514 drifts through them
    rep = monotonicity_check(parse("t - 0.9*sin(3.141592653589793*t)^2"), P11,
                             0.5, 19962.0, 0.5)
    assert rep.status == "hypothesis-violated" and not rep.hypothesis_ok
    assert rep.samples_used == 9963


def test_monotonicity_counts_each_sample_once():
    rep = monotonicity_check(parse("t"), HZ1, 1.0, 30001.0, 0.5)
    assert rep.status == "monotone" and rep.samples_used == 7501


def test_monotonicity_preconditions():
    with pytest.raises(ReversedBounds):
        monotonicity_check(parse("t"), HZ1, 5.0, 2.0, 0.5)
    with pytest.raises(NotInScale):
        monotonicity_check(parse("t"), HZ1, 1.5, 3.0, 0.5)


def test_est_error_and_cells_reported():
    res = cauchy(parse("t^3"), R, 0.5, 4.0, 0.35)
    assert res.est_error >= 0.0
    assert res.cells_used == 1
    res = cauchy(parse("t"), QZ2, 0.25, 8.0, 0.5)
    assert res.est_error == 0.0
    assert res.cells_used == 5


def test_overflowing_integral_raises():
    with pytest.raises(NotRepresentable):
        cauchy(parse("t"), RealInterval(), 0.0, 1e300, 1.0)
    with pytest.raises(NotRepresentable):
        cauchy(parse("t"), RealInterval(), 1e300, 0.0, 0.5)



def test_an_infinite_constant_integrand_raises_a_domain_error():
    # evaluate refuses the constant at the first node, before any sum
    with pytest.raises(DomainError, match=r"^evaluation produced an infinite value at t=1\.5$"):
        cauchy(parse("1e999"), R, 1.0, 2.0, 1.0)

SUBNORMAL_START = FiniteSet((5e-324, 1.0))
_WEIGHT_OVERFLOW = r"^weight t\*\*\(alpha-1\) overflows at t=5e-324$"


def test_an_overflowing_weight_at_a_subnormal_point_is_typed():
    # 5e-324 ** -0.99 overflows a float
    with pytest.raises(NotRepresentable, match=_WEIGHT_OVERFLOW):
        cauchy(parse("1"), SUBNORMAL_START, 5e-324, 1.0, 0.01)
    with pytest.raises(NotRepresentable, match=_WEIGHT_OVERFLOW):
        single_grain(parse("1"), SUBNORMAL_START, 5e-324, 0.01)
    # f is evaluated at the step before its weight, so f's error comes first
    with pytest.raises(DomainError, match=r"^division by zero at t=5e-324$"):
        cauchy(parse("1/(t - 5e-324)"), SUBNORMAL_START, 5e-324, 1.0, 0.01)
    assert cauchy(parse("1"), SUBNORMAL_START, 5e-324, 1.0, 1.0).value == 1.0


# cauchy over runs of isolated points, pinned as computed when decompose gave
# one cell per step: (value, est_error, cells_used) must match bit for bit
PA = PeriodicUnion(1.0, 2.0)
FS = FiniteSet((0.0, 0.5, 1.25, 2.0, 7.5, 8.0, 13.0))
PINNED_SUMS = [
    ("t^2+1", UniformLattice(0.1), 0.0, 1000.0, 1.0, (333284335.0, 0.0, 10000)),
    ("exp(-t)*sin(t)", HZ1, 1.0, 10000.0, 1.0, (0.4195697895124156, 0.0, 9999)),
    ("exp(-t)*sin(t)", HZ1, 1.0, 10000.0, 0.257363, (0.37933850881746, 0.0, 9999)),
    ("1/(1+t)", QPowers(1.5), 1.0, 1.5 ** 40, 1.0, (19.016015062594807, 0.0, 40)),
    ("1/(1+t)", QPowers(1.5), 1.0, 1.5 ** 40, 0.5, (2.0612108008875305, 0.0, 40)),
    ("t^2", QZ2, 2.0 ** -20, 2.0 ** 10, 1.0, (153391689.14285713, 0.0, 30)),
    ("t^2", QZ2, 2.0 ** -20, 2.0 ** 10, 0.257363, (1650873.534035591, 0.0, 30)),
    ("cos(t)+t", PA, 0.0, 31.0, 1.0, (460.70670263690204, 1.90036284197139e-12, 21)),
    ("cos(t)+t", PA, 0.0, 31.0, 0.5, (113.92612113963335, 5.099930029940388e-13, 21)),
    ("sqrt(t)", PeriodicUnion(0.7, 0.4), 0.7, 22.7, 0.5,
     (21.999999999999993, 1.5543122344752171e-13, 40)),
    ("t^3-t", FS, 0.5, 13.0, 1.0, (2760.43359375, 0.0, 5)),
    ("t^3-t", FS, 0.5, 13.0, 0.257363, (604.0360966921794, 0.0, 5)),
]


@pytest.mark.parametrize("text,ts,lo,hi,alpha,expected", PINNED_SUMS)
def test_jump_runs_match_pinned_sums(text, ts, lo, hi, alpha, expected):
    res = cauchy(parse(text), ts, lo, hi, alpha)
    assert (res.value, res.est_error, res.cells_used) == expected
    back = cauchy(parse(text), ts, hi, lo, alpha)
    assert (back.value, back.cells_used) == (-expected[0], expected[2])


# alpha = 1 segments that refine, and series sums from 0 on qZbar, pinned by
# float.hex as computed when alpha = 1 integrated f directly rather than through
# the substitution u = t**alpha: (value, est_error, cells_used)
KINK = "sqrt(abs(t - 20.55) + 0.02)"
HEX_PINS = [
    (KINK, R, 20.0, 21.0, 1.0, ("0x1.fde224d989e0ap-2", "0x1.f2c668e0782ebp-36", 1)),
    (KINK, PeriodicUnion(1.0, 1.0), 0.5, 30.5, 1.0,
     ("0x1.44ae28c613687p+6", "0x1.fa8f0c7bf27e3p-36", 31)),
    ("exp(-0.5*t)*sin(2*t) + log(t+1)/(t^2+1)", R, 0.0, 40.0, 1.0,
     ("0x1.d03d91cba7235p+0", "0x1.33dcc6c51908bp-35", 1)),
    ("exp(-t)*cos(t)", QLatticeClosure(1.5), 0.0, 1.5 ** 4, 1.0,
     ("0x1.389664e9cc8e6p-1", "0x1.66d807bb25485p-35", 63)),
    ("t^2+1", QLatticeClosure(1.5), 0.0, 1.5 ** 2, 0.9,
     ("0x1.2cbe37c6f8160p+2", "0x1.675c0ba69156cp-34", 66)),
    ("t*sin(t)", QLatticeClosure(1.5), 0.0, 1.5 ** 6, 0.5,
     ("0x1.bda03455fcfcdp+2", "0x1.824656bb6ab93p-36", 31)),
    ("1/(1+t)", QLatticeClosure(3.0), 0.0, 9.0, 0.6,
     ("0x1.e48fcce0faf95p+1", "0x1.f2e7f6dcfde52p-36", 40)),
    ("t*exp(-t)", QLatticeClosure(3.0), 0.0, 27.0, 1.0,
     ("0x1.d612dbda8d14ap+0", "0x1.184c3f8a60160p-35", 14)),
    ("exp(-t)*cos(t)", QLatticeClosure(3.0), 0.0, 27.0, 0.7,
     ("0x1.8e4a205f72190p+0", "0x1.380be1b6f9396p-35", 35)),
]


@pytest.mark.parametrize("text,ts,lo,hi,alpha,expected", HEX_PINS)
def test_refined_segments_and_series_match_hex_pins(text, ts, lo, hi, alpha, expected):
    res = cauchy(parse(text), ts, lo, hi, alpha)
    assert (res.value.hex(), res.est_error.hex(), res.cells_used) == expected


# the first error of a sum is the first failing cell in traversal order
PINNED_ERRORS = [
    ("log(t-5)", HZ1, 1.0, 10.0, 0.5, "log of a non-positive value at t=1.0", 1.0),
    ("log(5-t)", HZ1, 1.0, 10.0, 1.0, "log of a non-positive value at t=5.0", 5.0),
    # the segment [0, 1] fails at a Kronrod node before the jump at 1 is reached
    ("sqrt(0.5-t)", PA, 0.0, 4.0, 1.0,
     "sqrt of a negative value at t=0.9957276855604063", 0.9957276855604063),
    ("sqrt(0.5-t)", PA, 0.0, 4.0, 0.5,
     "sqrt of a negative value at t=0.9914736237914833", 0.9914736237914833),
]


@pytest.mark.parametrize("text,ts,lo,hi,alpha,message,t", PINNED_ERRORS)
def test_jump_runs_raise_the_pinned_first_error(text, ts, lo, hi, alpha, message, t):
    with pytest.raises(DomainError) as info:
        cauchy(parse(text), ts, lo, hi, alpha)
    assert type(info.value) is DomainError
    assert (str(info.value), info.value.t) == (message, t)


# A walk of _BATCH_MIN points or more evaluates a call's steps in one pass
# over the tree; below it, and wherever a step fails, the cells go one by one
# in order. Each row was computed when every step was evaluated on its own.
SMOOTH = "exp(-0.5*t)*sin(2*t) + log(t+1)/(t^2+1)"
FS9 = FiniteSet((0.25, 0.5, 1.25, 2.0, 3.5, 7.5, 8.0, 13.0, 13.5))
BATCH_FLOOR_SUMS = [  # (scale, lo, hi, steps, alpha, (value, est_error, cells_used))
    (UniformLattice(0.5), 1.0, 4.5, 7, 1.0, (0.8092944708988424, 0.0, 7)),
    (UniformLattice(0.5), 1.0, 4.5, 7, 0.6, (0.6988675691743537, 0.0, 7)),
    (UniformLattice(0.5), 1.0, 5.0, 8, 1.0, (0.8711246751022628, 0.0, 8)),
    (UniformLattice(0.5), 1.0, 5.0, 8, 0.6, (0.7327454062672857, 0.0, 8)),
    (QPowers(1.5), 1.0, 1.5 ** 7, 7, 1.0, (1.2328328165837414, 0.0, 7)),
    (QPowers(1.5), 1.0, 1.5 ** 7, 7, 0.6, (0.9199904536991138, 0.0, 7)),
    (QPowers(1.5), 1.0, 1.5 ** 8, 8, 1.0, (1.3178926691702153, 0.0, 8)),
    (QPowers(1.5), 1.0, 1.5 ** 8, 8, 0.6, (0.9473223082153415, 0.0, 8)),
    (FS9, 0.25, 13.0, 7, 1.0, (2.3623438074121856, 0.0, 7)),
    (FS9, 0.25, 13.0, 7, 0.6, (2.240860059966456, 0.0, 7)),
    (FS9, 0.25, 13.5, 8, 1.0, (2.370678970865277, 0.0, 8)),
    (FS9, 0.25, 13.5, 8, 0.6, (2.2438477585408787, 0.0, 8)),
    # one step per gap, between segments: 7 or 8 runs of one step
    (PA, 1.0, 21.0, 7, 1.0, (2.850465207485128, 3.574955436381994e-15, 13)),
    (PA, 1.0, 21.0, 7, 0.6, (2.3444321691258705, 1.9070980156676904e-15, 13)),
    (PA, 1.0, 24.0, 8, 1.0, (2.870103350482898, 3.649425629037589e-15, 15)),
    (PA, 1.0, 24.0, 8, 0.6, (2.3501538596270737, 1.928929296214064e-15, 15)),
]


@pytest.mark.parametrize("ts,lo,hi,steps,alpha,expected", BATCH_FLOOR_SUMS)
def test_sums_either_side_of_the_batch_floor_match_pinned_sums(ts, lo, hi, steps, alpha,
                                                               expected):
    assert integral_module._BATCH_MIN == 8
    cells = ts.decompose(lo, hi)
    assert sum(len(c.points) - 1 for c in cells if isinstance(c, Jumps)) == steps
    res = cauchy(parse(SMOOTH), ts, lo, hi, alpha)
    assert (res.value, res.est_error, res.cells_used) == expected


# 19 steps on hZ(1) over [1, 20], so one walk; each tree hides an overflow or a
# domain error under a node whose finite result could absorb it (x/inf,
# exp(-inf), inf**-c, a complex power, sin(inf)), and must raise the error
# evaluate raises at the first failing step, at the node that fails
OVERFLOW = ("overflow at t=6.0", "t^200*t^200", 6.0)
BATCH_TRAPS = [
    ("t^200*t^200", *OVERFLOW),  # inf, and NaN below, at the root itself
    ("1e400*0*t", "evaluation produced NaN at t=1.0", "1e400*0*t", 1.0),
    ("1/(t^200*t^200)", *OVERFLOW),
    ("exp(0-t^200*t^200)", *OVERFLOW),
    ("(t^200*t^200)^-1", *OVERFLOW),
    ("(t^200*t^200)^0.5", *OVERFLOW),
    ("(t^200*t^200)^-0.5", *OVERFLOW),
    ("sin(t^200*t^200)", *OVERFLOW),
    ("abs((t-5)^0.5)", "negative base with fractional exponent at t=1.0", "(t-5)^0.5", 1.0),
    ("1/(t-7)", "division by zero at t=7.0", "1/(t-7)", 7.0),
]


@pytest.mark.parametrize("text,message,node,t", BATCH_TRAPS)
def test_one_walk_raises_the_first_error_of_the_steps(text, message, node, t):
    with pytest.raises(DomainError) as info:
        cauchy(parse(text), HZ1, 1.0, 20.0, 0.5)
    assert type(info.value) is DomainError
    assert (str(info.value), info.value.t) == (message, t)
    assert info.value.expr == parse(node)


def test_one_walk_keeps_a_finite_sum_near_overflow():
    res = cauchy(parse("1e300*t*t"), HZ1, 1.0, 20.0, 0.5)
    assert (res.value, res.est_error, res.cells_used) == (6.713539308642172e+302, 0.0, 19)


def test_one_walk_replays_a_node_it_cannot_evaluate():
    with pytest.raises(DomainError, match=r"^unknown function 'tan' at t=1\.0$"):
        cauchy(Apply("tan", Var()), HZ1, 1.0, 20.0, 0.5)
    with pytest.raises(TypeError, match=r"^not an expression node: Expr\(\)$"):
        cauchy(Add(Var(), Expr()), HZ1, 1.0, 20.0, 0.5)


def test_a_step_failing_in_a_later_walk_replays_the_whole_call():
    # 9,999 steps: the first two walks of _BATCH_SIZE steps pass, the third
    # fails and its steps go one by one
    assert integral_module._BATCH_SIZE == 4096
    with pytest.raises(DomainError) as info:
        cauchy(parse("1/(t-9000)"), HZ1, 1.0, 10000.0, 0.5)
    assert (str(info.value), info.value.t) == ("division by zero at t=9000.0", 9000.0)


def test_infinite_exponent_sums_raise_a_domain_error():
    with pytest.raises(DomainError, match=r"^negative base with fractional exponent at t=1\.0$"):
        cauchy(parse("(t-5)^1e400"), HZ1, 1.0, 3.0, 1.0)


# G7K15 as the loop over QUADPACK's tables that it was before the rule was
# unrolled: the reference the unrolled rule must match bit for bit
XGK = (0.9914553711208126, 0.9491079123427585, 0.8648644233597691,
       0.7415311855993945, 0.5860872354676911, 0.4058451513773972, 0.20778495500789848)
WGK = (0.022935322010529224, 0.06309209262997856, 0.10479001032225019, 0.14065325971552592,
       0.1690047266392679, 0.19035057806478542, 0.20443294007529889, 0.20948214108472782)
WG = (0.0, 0.1294849661688697, 0.0, 0.27970539148927664, 0.0, 0.3818300505051189,
      0.0, 0.4179591836734694)


def _loop_gk15(g, a, b):
    centre, half = 0.5 * (a + b), 0.5 * (b - a)
    fc = g(centre)
    pairs = [(g(centre - half * x), g(centre + half * x)) for x in XGK]
    resk, resg, resabs = WGK[7] * fc, WG[7] * fc, WGK[7] * abs(fc)
    for wk, wg, (f1, f2) in zip(WGK, WG, pairs):
        resk += wk * (f1 + f2)
        resg += wg * (f1 + f2)
        resabs += wk * (abs(f1) + abs(f2))
    mean = 0.5 * resk
    resasc = half * (WGK[7] * abs(fc - mean) + sum(
        wk * (abs(f1 - mean) + abs(f2 - mean)) for wk, (f1, f2) in zip(WGK, pairs)))
    err, floor = abs((resk - resg) * half), 50.0 * 2.220446049250313e-16 * resabs * half
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    return resk * half, max(err, floor), floor


def test_unrolled_gk15_matches_the_loop_form_bit_for_bit():
    rng = random.Random(18)
    specials = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310,
                1e300, -1e300, 1.7e308, -1.7e308, math.inf, -math.inf, math.nan)

    def value():
        pick = rng.random()
        if pick < 0.25:
            return rng.choice(specials)
        if pick < 0.5:  # any magnitude, either sign
            return rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-320, 300)
        return rng.gauss(0.0, 3.0)

    for i in range(12_000):
        a = rng.choice((0.0, rng.uniform(0.0, 10.0), rng.uniform(0.0, 1e300)))
        b = a + rng.choice((5e-324, 1e-12, 1.0, 1e6, 1e300))
        if i % 2:  # 15 drawn values: the estimate is mostly resasc itself
            values = [value() for _ in range(15)]
        else:  # a smooth g, whose estimate rests on resk - resg
            a = rng.uniform(0.0, 10.0)
            b, c, k = a + rng.uniform(0.5, 5.0), rng.uniform(-2.0, 2.0), rng.uniform(0.0, 3.0)
            values = [c + math.sin(k * x) * 10.0 ** rng.choice((0, -150, 300))
                      for x in integral_module._gk15_nodes(a, b)]
        seen = [[], []]

        def g(side):
            it = iter(values)
            return lambda t: seen[side].append(t) or next(it)

        got = integral_module._gk15(g(0), a, b, [1])
        want = _loop_gk15(g(1), a, b)
        assert struct.pack("<3d", *got) == struct.pack("<3d", *want), (a, b, values)
        assert struct.pack("<15d", *seen[0]) == struct.pack("<15d", *seen[1])


# cauchy evaluates every segment's first G7K15 panel in the walks that hold
# the steps; refinement panels stay scalar. Each row was computed when every
# node was evaluated on its own.
P11 = PeriodicUnion(1.0, 1.0)  # segment [2k, 2k+1], then one step to 2k+2
SEGMENT_SUMS = [  # (segments, alpha, (value, est_error, cells_used)) from 0.5 on P11
    (7, 1.0, (1.7861918533506702, 9.095798715575889e-15, 13)),
    (7, 0.75, (1.684935935529441, 8.461055775190123e-15, 13)),
    (8, 1.0, (1.8177532341236853, 9.261122624214795e-15, 15)),
    (8, 0.75, (1.701500171873925, 8.547486292567234e-15, 15)),
    (200, 1.0, (2.0583357307872476, 1.0581173892944457e-14, 399)),
    (200, 0.75, (1.7989868418300692, 9.08076332495077e-15, 399)),
]


@pytest.mark.parametrize("segments,alpha,expected", SEGMENT_SUMS)
def test_segment_first_panels_match_pinned_sums(segments, alpha, expected):
    hi = 2.0 * (segments - 1) + 0.5
    assert sum(1 for c in P11.decompose(0.5, hi) if not isinstance(c, Jumps)) == segments
    res = cauchy(parse(SMOOTH), P11, 0.5, hi, alpha)
    assert (res.value, res.est_error, res.cells_used) == expected


def _coded(text):
    """text's tree, given its code as a walk of _CODE_AT points would give it:
    a tree without code is never walked."""
    f = parse(text)
    assert _compile(f) is not None
    return f


def _walked_segments(text, lo, hi, alpha, ts=P11):
    """For each segment of cauchy's walks on text's tree with code, whether its
    first panel comes from its walk: False where the walk failed or was not
    taken."""
    f = _coded(text)
    return [values is not None
            for walk, size in integral_module._walks(ts.decompose(lo, hi))
            for values in [integral_module._walk_values(f, walk, size, alpha)]
            for c in walk if isinstance(c, Segment)]


@pytest.mark.parametrize("alpha,t", [(1.0, 700.6038924775039), (0.75, 700.603849793623)])
def test_a_segment_failing_in_a_later_walk_raises_in_cell_order(alpha, t):
    # 400 segments: the first walk (256 segments and 256 steps, 4,096 points)
    # passes, and the segment [700, 701] fails in the second; the steps pass
    text = "sqrt(abs(t - 700.6) - 0.05)"
    assert integral_module._BATCH_SIZE == 4096
    walked = _walked_segments(text, 0.5, 798.5, alpha)
    assert walked == [True] * 256 + [False] * 144
    with pytest.raises(DomainError) as info:
        cauchy(parse(text), P11, 0.5, 798.5, alpha)
    assert (str(info.value), info.value.t) == (f"sqrt of a negative value at t={t!r}", t)
    assert info.value.expr == parse("sqrt(abs(t - 700.6) - 0.05)")


@pytest.mark.parametrize("alpha,t", [(1.0, 20.53378389416006), (0.75, 20.532266682538367)])
def test_a_refinement_panel_failing_after_every_first_panel_passed(alpha, t):
    # no first-panel node of [20, 21] falls in (20.53, 20.57), where f fails;
    # the kink at 20.55 makes the panel split until a node does
    text = "sqrt(abs(t - 20.55) - 0.02)"
    assert all(_walked_segments(text, 0.5, 30.5, alpha))
    with pytest.raises(DomainError) as info:
        cauchy(_coded(text), P11, 0.5, 30.5, alpha)
    assert (str(info.value), info.value.t) == (f"sqrt of a negative value at t={t!r}", t)


@pytest.mark.parametrize("alpha,t", [(1.0, 20.53378389416006), (0.75, 20.532266682538367)])
def test_a_refinement_failing_before_a_later_step_of_its_walk_raises_first(alpha, t):
    # the steps and first panels share one walk, which fails at the step from
    # 25; the cells then go alone, in order, and [20, 21]'s refinement fails first
    text = "sqrt(abs(t - 20.55) - 0.02) + 1/(t - 25)"
    [(walk, size)] = integral_module._walks(P11.decompose(0.5, 30.5))
    assert integral_module._walk_values(_coded(text), walk, size, alpha) is None
    with pytest.raises(DomainError) as info:
        cauchy(_coded(text), P11, 0.5, 30.5, alpha)
    assert (str(info.value), info.value.t) == (f"sqrt of a negative value at t={t!r}", t)
    assert info.value.expr == parse("sqrt(abs(t - 20.55) - 0.02)")


@pytest.mark.parametrize("alpha", [1.0, 0.75])
def test_a_lone_segment_is_the_same_walked_or_alone(monkeypatch, alpha):
    # 15 nodes clear _BATCH_MIN, so a lone R segment of a tree with code is
    # walked; a floor of 16 integrates it alone
    f, bounds = _coded(SMOOTH), ((0.5, 1.0), (0.0, 3.7), (1.0, 40.0))
    assert [_walked_segments(SMOOTH, lo, hi, alpha, R) for lo, hi in bounds] == [[True]] * 3
    walked = [cauchy(f, R, lo, hi, alpha) for lo, hi in bounds]
    monkeypatch.setattr(integral_module, "_BATCH_MIN", 16)
    assert [_walked_segments(SMOOTH, lo, hi, alpha, R) for lo, hi in bounds] == [[False]] * 3
    alone = [cauchy(f, R, lo, hi, alpha) for lo, hi in bounds]
    assert [struct.pack("<2d", r.value, r.est_error) for r in walked] == \
        [struct.pack("<2d", r.value, r.est_error) for r in alone]
    assert [r.cells_used for r in walked] == [r.cells_used for r in alone] == [1, 1, 1]


@pytest.mark.parametrize("text,hi,alpha,panels", [
    ("1.5 + 0.25*t - 0.01*t^2", 398.5, 1.0, 200),  # one panel per segment
    ("1.5 + 0.25*t - 0.01*t^2", 398.5, 0.75, 200),
    ("sqrt(abs(t - 20.55) + 0.02)", 30.5, 1.0, 54),  # refined at the kink
    ("sqrt(abs(t - 20.55) + 0.02)", 30.5, 0.75, 52),
])
def test_segment_panels_count_against_the_budget_in_order(monkeypatch, text, hi, alpha,
                                                          panels):
    monkeypatch.setattr(integral_module, "_MAX_SUBDIVISIONS", panels)
    cauchy(parse(text), P11, 0.5, hi, alpha)
    monkeypatch.setattr(integral_module, "_MAX_SUBDIVISIONS", panels - 1)
    with pytest.raises(QuadratureBudgetExceeded):
        cauchy(parse(text), P11, 0.5, hi, alpha)


def test_a_negative_zero_panel_sums_to_positive_zero():
    # math.fsum([-0.0]) is 0.0: a first panel that needs no split keeps it
    f = Mul(Const(-0.0), Var())
    value, err = integral_module._kronrod(partial(evaluate, f), 1.0, 2.0, QUAD_TOL, [1])
    assert (math.copysign(1.0, value), value, err) == (1.0, 0.0, 0.0)
    res = cauchy(f, P11, 0.5, 14.5, 1.0)
    assert (math.copysign(1.0, res.value), res.est_error, res.cells_used) == (1.0, 0.0, 15)
    back = cauchy(f, P11, 14.5, 0.5, 0.75)
    assert (math.copysign(1.0, back.value), back.est_error, back.cells_used) == (-1.0, 0.0, 15)
