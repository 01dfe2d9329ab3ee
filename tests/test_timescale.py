"""Structural behavior of the six time-scale variants."""

import json
import math
import random
from dataclasses import astuple
from pathlib import Path

import pytest

from tscal.errors import NotInScale, NotRepresentable, ReversedBounds, ScaleSpecError
from tscal.timescale import (
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


def test_contains_examples():
    assert UniformLattice(0.5).contains(1.5)
    assert QLatticeClosure(2.0).contains(0.0)
    assert not PeriodicUnion(1.0, 2.0).contains(2.5)


def test_sigma_examples():
    assert UniformLattice(1.0).sigma(3.0) == 4.0
    assert QLatticeClosure(2.0).sigma(0.0) == 0.0
    assert PeriodicUnion(1.0, 2.0).sigma(1.0) == 3.0


def test_mu_examples():
    assert UniformLattice(0.5).mu(7.5) == 0.5
    assert QPowers(3.0).mu(9.0) == 18.0
    assert RealInterval().mu(1.7) == 0.0


def test_classify_examples():
    assert UniformLattice(1.0).site(2.0).label == "rs-ls"
    assert QLatticeClosure(2.0).site(0.0).label == "rd-ld,min"
    assert PeriodicUnion(1.0, 2.0).site(0.5).label == "rd-ld"


def test_classify_block_end_is_scattered():
    assert PeriodicUnion(1.0, 2.0).site(1.0).label == "rs-ld"


def test_in_kappa_examples():
    fs = FiniteSet((0.0, 1.0, 2.0))
    assert not fs.in_kappa(2.0)
    assert fs.in_kappa(1.0)
    assert RealInterval().in_kappa(100.0)


def test_in_kappa_singleton():
    assert FiniteSet((3.0,)).in_kappa(3.0)


def _typed(cells):
    """Each cell as (type, *fields), so a run and a segment never compare equal."""
    return [(type(c), *astuple(c)) for c in cells]


def test_decompose_examples():
    assert _typed(UniformLattice(1.0).decompose(0.0, 3.0)) == [
        (Jumps, (0.0, 1.0, 2.0, 3.0))]
    assert _typed(RealInterval().decompose(1.0, 4.0)) == [(Segment, 1.0, 4.0)]
    # enumerate P_{1,2} = [0,1] u [3,4] u ... by hand
    assert _typed(PeriodicUnion(1.0, 2.0).decompose(0.0, 4.0)) == [
        (Segment, 0.0, 1.0), (Jumps, (1.0, 3.0)), (Segment, 3.0, 4.0)]
    fs = FiniteSet((0.0, 0.5, 1.25, 2.0))
    assert _typed(fs.decompose(0.5, 2.0)) == [(Jumps, (0.5, 1.25, 2.0))]


def test_decompose_degenerate_and_errors():
    hz = UniformLattice(1.0)
    assert hz.decompose(2.0, 2.0) == []
    with pytest.raises(ReversedBounds):
        hz.decompose(3.0, 1.0)
    with pytest.raises(NotInScale):
        hz.decompose(0.5, 2.0)


def test_decompose_from_block_end():
    assert _typed(PeriodicUnion(1.0, 2.0).decompose(1.0, 3.0)) == [(Jumps, (1.0, 3.0))]
    assert _typed(PeriodicUnion(1.0, 2.0).decompose(3.0, 3.5)) == [(Segment, 3.0, 3.5)]


def test_qlattice_decompose_from_zero_is_one_series():
    # the points q**j below hi accumulate at 0: one cell, however far down
    qz = QLatticeClosure(2.0)
    assert _typed(qz.decompose(0.0, 1.0)) == [(Series, 2.0, 1.0)]
    assert _typed(qz.decompose(0.0, 2.0 ** -80)) == [(Series, 2.0, 2.0 ** -80)]
    assert qz.decompose(0.0, 0.0) == []
    assert _typed(qz.decompose(0.25, 1.0)) == [(Jumps, (0.25, 0.5, 1.0))]


def _random_in_scale_points(ts, rng, count=1000):
    pts = []
    for _ in range(count):
        if isinstance(ts, UniformLattice):
            pts.append(ts.h * rng.randint(-400, 400))
        elif isinstance(ts, QPowers):
            pts.append(ts.q ** rng.randint(0, 30))
        elif isinstance(ts, QLatticeClosure):
            pts.append(0.0 if rng.random() < 0.05 else ts.q ** rng.randint(-30, 30))
        elif isinstance(ts, PeriodicUnion):
            k = rng.randint(0, 40)
            r = rng.choice([0.0, ts.a, rng.uniform(0.0, ts.a)])
            pts.append(k * ts.period + r)
        elif isinstance(ts, FiniteSet):
            pts.append(rng.choice(ts.points))
        else:
            pts.append(rng.uniform(-50.0, 50.0))
    return pts


ALL_VARIANTS = [
    RealInterval(),
    RealInterval(0.0, 10.0),
    UniformLattice(0.5),
    UniformLattice(0.3),
    QPowers(2.0),
    QPowers(3.0),
    QLatticeClosure(2.0),
    QLatticeClosure(3.0),
    PeriodicUnion(1.0, 2.0),
    PeriodicUnion(0.7, 0.4),
    FiniteSet((0.0, 0.5, 1.25, 2.0, 7.5)),
]


@pytest.mark.parametrize("ts", ALL_VARIANTS, ids=repr)
def test_jump_operator_invariants(ts):
    rng = random.Random(42)
    for t in _random_in_scale_points(ts, rng):
        if isinstance(ts, RealInterval) and not ts.contains(t):
            t = ts.nearest(t)
        st = ts.sigma(t)
        mu = ts.mu(t)
        assert st >= t
        assert ts.contains(st)
        assert mu >= 0.0
        scale = max(abs(st), abs(t), abs(mu), 1e-300)
        assert abs(mu - (st - t)) <= math.ulp(scale)


def test_lattices_always_right_scattered():
    rng = random.Random(1)
    for ts in (UniformLattice(0.5), QPowers(2.0)):
        for t in _random_in_scale_points(ts, rng, count=200):
            assert ts.site(t).mu > 0.0


def test_real_interval_interior_dense_both_sides():
    ts = RealInterval(0.0, 10.0)
    rng = random.Random(2)
    for _ in range(200):
        t = rng.uniform(0.1, 9.9)
        assert ts.site(t).label == "rd-ld"


@pytest.mark.parametrize("ts,lo,hi", [
    (UniformLattice(1.0), -3.0, 7.0),
    (UniformLattice(0.5), 0.0, 12.5),
    (QPowers(2.0), 1.0, 64.0),
    (QLatticeClosure(2.0), 0.25, 16.0),
    (QLatticeClosure(2.0), 0.0, 4.0),
    (PeriodicUnion(1.0, 2.0), 0.0, 10.0),
    (PeriodicUnion(1.0, 2.0), 0.5, 7.0),
    (RealInterval(), -2.0, 5.0),
    (FiniteSet((0.0, 0.5, 1.25, 2.0, 7.5)), 0.0, 7.5),
])
def test_decompose_telescopes(ts, lo, hi):
    cells = ts.decompose(lo, hi)
    assert {type(c) for c in cells} <= {Jumps, Segment, Series}
    spans = [(c.points[0], c.points[-1]) if isinstance(c, Jumps) else
             (0.0, c.hi) if isinstance(c, Series) else (c.lo, c.hi) for c in cells]
    starts, ends = [a for a, _ in spans], [b for _, b in spans]
    assert starts[0] == lo
    assert ends[-1] == hi
    for nxt_start, cur_end in zip(starts[1:], ends[:-1]):
        assert nxt_start - cur_end == 0.0


def test_qlattice_sigma_on_powers():
    for q in (2.0, 3.0):
        ts = QLatticeClosure(q)
        assert ts.sigma(0.0) == 0.0
        for k in range(-20, 21):
            assert ts.sigma(q ** k) == pytest.approx(q ** (k + 1), rel=5e-16)


def test_finite_set_semantics():
    fs = FiniteSet((1.0, 2.5, 4.0))
    assert fs.sigma(4.0) == 4.0
    assert fs.mu(4.0) == 0.0
    assert fs.sigma(2.5) == 4.0
    assert fs.site(1.0).is_min
    assert fs.site(4.0).is_max
    with pytest.raises(NotInScale):
        fs.sigma(3.0)


def test_membership_tolerance_absorbs_rounding():
    qz = QLatticeClosure(3.0)
    assert qz.contains(3.0 ** -7 * (1 + 1e-14))
    assert not qz.contains(3.0 ** -7 * 1.01)


def test_qlattice_membership_slack_is_relative_near_zero():
    # 1e-13 lies between 2**-44 and 2**-43, far from both
    qz = QLatticeClosure(2.0)
    assert not qz.contains(1e-13)
    with pytest.raises(NotInScale):
        qz.sigma(1e-13)
    for q in (1.5, 2.0, 3.0):
        ts = QLatticeClosure(q)
        assert ts.contains(0.0)
        assert all(ts.contains(q ** k) for k in range(-64, 1))


def test_uniform_lattice_membership_slack_is_relative_to_h():
    # 0.37e-13 lies between the points 0 and 1e-13, far from both
    hz = UniformLattice(1e-13)
    assert not hz.contains(0.37e-13)
    with pytest.raises(NotInScale):
        hz.sigma(0.37e-13)
    assert all(hz.contains(k * 1e-13) for k in range(-5, 6))
    # large points keep a slack relative to t, which covers the rounding of k*h
    assert UniformLattice(0.1).contains(123456.7)


@pytest.mark.parametrize("ts", [
    RealInterval(), RealInterval(0.0, 4.0), UniformLattice(0.5),
    QLatticeClosure(2.0), QPowers(2.0), PeriodicUnion(1.0, 1.0),
    FiniteSet((1.0, 2.0)),
], ids=repr)
def test_non_finite_points_are_not_in_the_scale(ts):
    # on R the slack 1e-12 * |t| is infinite at +-inf
    assert not any(ts.contains(t) for t in (math.inf, -math.inf, math.nan))


def test_uniform_lattice_sigma_agrees_with_decompose():
    # cell ends are k*h; 0.5 + 0.1 would round to 0.6, not to 6*0.1
    ts = UniformLattice(0.1)
    cells = ts.decompose(0.0, 1.0)
    assert [type(c) for c in cells] == [Jumps]
    points = cells[0].points
    assert len(points) - 1 == 10
    for t, nxt in zip(points, points[1:]):
        assert ts.sigma(t) == nxt


def test_validation_errors():
    with pytest.raises(ValueError):
        UniformLattice(0.0)
    with pytest.raises(ValueError):
        QPowers(1.0)
    with pytest.raises(ValueError):
        PeriodicUnion(1.0, -1.0)
    with pytest.raises(ValueError):
        FiniteSet((2.0, 1.0))
    with pytest.raises(ValueError):
        FiniteSet(())
    with pytest.raises(ValueError):
        RealInterval(3.0, 3.0)


def test_parse_scale_forms():
    assert parse_scale("R") == RealInterval()
    assert parse_scale("R[0.5, 9]") == RealInterval(0.5, 9.0)
    assert parse_scale("hZ(h=0.5)") == UniformLattice(0.5)
    assert parse_scale("qZbar(q=2)") == QLatticeClosure(2.0)
    assert parse_scale("qN0(q=2.5)") == QPowers(2.5)
    assert parse_scale("Pab(a=1,b=2)") == PeriodicUnion(1.0, 2.0)


def test_parse_scale_rejects_garbage():
    for bad in ("Z", "hZ(h=0)", "qN0(q=1)", "R[3,1]", "hZ(h=x)", ""):
        with pytest.raises(ScaleSpecError):
            parse_scale(bad)


def test_finite_file(tmp_path):
    path = tmp_path / "scale.txt"
    path.write_text("# a comment\n0.5\n1.5  # inline\n\n2.25\n", encoding="utf-8")
    fs = finite_from_file(path)
    assert fs.points == (0.5, 1.5, 2.25)
    assert parse_scale(f"finite({path})") == fs

    bad = tmp_path / "bad.txt"
    bad.write_text("2.0\n1.0\n", encoding="utf-8")
    with pytest.raises(ScaleSpecError):
        finite_from_file(bad)
    with pytest.raises(ScaleSpecError):
        finite_from_file(tmp_path / "missing.txt")


GOLDEN = Path(__file__).resolve().parent / "golden"

# Ordinary scale points (ends, block edges, 0, minima and maxima) on every
# shape; tests/golden/scale_sites.json holds their primitives as recorded
# before sigma, mu, the class label, in_kappa and the continuum reach were
# derived from one site per point.
SITE_GRID = [
    (RealInterval(), (-3.5, 0.0, 1.0, 2.5, 1e6)),
    (RealInterval(0.0, 4.0), (0.0, 1.5, 4.0)),
    (UniformLattice(0.5), (-1.0, 0.0, 0.5, 2.5)),
    (UniformLattice(0.1), (0.0, 0.3, 0.5, 12345.6)),
    (QLatticeClosure(2.0), (0.0, 2.0 ** -10, 0.5, 1.0, 8.0)),
    (QLatticeClosure(3.0), (0.0, 3.0 ** -3, 1.0, 9.0)),
    (QPowers(2.0), (1.0, 2.0, 16.0)),
    (QPowers(1.5), (1.0, 1.5, 2.25, 1.5 ** 5)),
    (PeriodicUnion(1.0, 2.0), (0.0, 0.5, 1.0, 3.0, 3.5, 4.0, 6.0, 7.0)),
    (PeriodicUnion(0.5, 1.5), (0.0, 0.5, 2.0, 2.25, 2.5)),
    (PeriodicUnion(0.7, 0.4), (0.0, 0.7, 1.1, 1.1 + 0.7)),
    (FiniteSet((0.0, 0.5, 1.25, 2.0, 7.5)), (0.0, 0.5, 1.25, 2.0, 7.5)),
    (FiniteSet((3.0,)), (3.0,)),
    (FiniteSet((-2.0, -1.0, 4.0)), (-2.0, -1.0, 4.0)),
]


def _site_rows():
    rows = []
    for ts, points in SITE_GRID:
        for t in points:
            site = ts.site(t)
            rows.append({
                "scale": repr(ts), "t": repr(t), "sigma": repr(ts.sigma(t)),
                "mu": repr(ts.mu(t)), "class": site.label, "in_kappa": ts.in_kappa(t),
                "reach": [repr(site.left_room), repr(site.right_room)],
            })
    return rows


def test_scale_primitives_match_golden():
    golden = json.loads((GOLDEN / "scale_sites.json").read_text(encoding="utf-8"))
    assert _site_rows() == golden


def test_shapes_implement_only_the_four_primitives():
    derived = {"sigma", "mu", "_rho", "classify", "in_kappa", "continuum_reach",
               "minimum", "maximum", "_require"}
    for cls in TimeScale.__subclasses__():
        assert not derived & set(vars(cls)), cls.__name__
        assert {"contains", "site", "nearest", "decompose"} <= set(vars(cls))


def test_block_slack_is_relative_to_the_block():
    # 1 + 8e-13 lies in the gap after the block [1+1e-13, 1+2e-13]
    pab = PeriodicUnion(1e-13, 1.0)
    assert not pab.contains(1 + 8e-13)
    with pytest.raises(NotInScale):
        pab.sigma(1 + 8e-13)
    assert pab.sigma(1e-13) == 1.0 + 1e-13


def test_finite_slack_is_relative_to_the_nearest_neighbour():
    fs = FiniteSet((1.0, 1 + 5e-13, 2.0))
    with pytest.raises(NotInScale):
        fs.sigma(1 + 2.5e-13)
    assert fs.sigma(1.0) == 1 + 5e-13
    assert fs.site(1 + 5e-13).label == "rs-ls"


def test_left_scattered_points_near_a_coarse_slack():
    # classification comes from the scale's structure, not from a comparison
    # of the backward gap with an absolute slack of 1e-12
    assert QLatticeClosure(2.0).site(2.0 ** -50).label == "rs-ls"
    assert UniformLattice(1e-13).site(1.0).label == "rs-ls"
    assert FiniteSet((0.0, 1e-13)).site(1e-13).label == "rd-ls,max"


@pytest.mark.parametrize("h", [1e-16, 1e-300])
def test_uniform_lattice_beyond_float_resolution_raises(h):
    # 1/h steps from 0 reach 1.0: at 2**53 steps or more, (k+1)*h cannot differ
    # from k*h reliably, so no sigma is returned
    ts = UniformLattice(h)
    assert ts.contains(1.0)
    for primitive in (ts.site, ts.sigma, ts.nearest):
        with pytest.raises(NotRepresentable):
            primitive(1.0)
    with pytest.raises(NotRepresentable):
        ts.decompose(1.0, 1.0)
    with pytest.raises(NotRepresentable):
        ts.nearest(1e300)  # t / h overflows to inf
    assert ts.sigma(2.0 ** 52 * h) == (2.0 ** 52 + 1) * h


@pytest.mark.parametrize("ts", [QPowers(2.0), QLatticeClosure(2.0)], ids=["qN0", "qZbar"])
def test_a_q_lattice_at_the_top_of_the_float_range_raises(ts):
    # 2**1023 is a point whose sigma 2**1024 is no float, as hZ's sigma is none
    # from 2**53 steps; near it, a power beyond the largest float is no point
    top = 2.0 ** 1023
    assert ts.contains(top) and ts.sigma(top / 2) == top
    for primitive in (ts.site, ts.sigma, ts.mu):
        with pytest.raises(NotRepresentable):
            primitive(top)
    assert not ts.contains(1.7e308)  # q**k is 2**1024 there, beyond the largest float
    assert ts.nearest(1.7e308) == top
    for t in (math.inf, math.nan):
        with pytest.raises(NotRepresentable):
            ts.nearest(t)


@pytest.mark.parametrize("ts", [QPowers(668436.0070224546), QLatticeClosure(663503.4180028834)],
                         ids=["qN0", "qZbar"])
def test_a_q_lattice_nearest_skips_a_candidate_beyond_the_largest_float(ts):
    # 1e300 lies between q**51 and q**52; the candidate q**53 is no float
    with pytest.raises(OverflowError):
        ts.q ** 53
    assert ts.q ** 51 < 1e300 < ts.q ** 52
    assert ts.nearest(1e300) == ts.q ** 51 and ts.contains(ts.q ** 51)
