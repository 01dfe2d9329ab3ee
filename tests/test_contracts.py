"""Property contracts of decompose and cauchy on all six shapes (hypothesis)."""

from hypothesis import given, settings, strategies as st

from tscal.expr import parse
from tscal.integral import cauchy
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

CONTRACT = settings(derandomize=True, database=None, max_examples=150, deadline=None)
ONE = parse("1")


def _bounds(draw, points):
    return sorted(draw(st.lists(points, min_size=2, max_size=2)))


@st.composite
def scales_and_bounds(draw):
    """A scale of one of the six shapes and two of its points lo <= hi."""
    shape = draw(st.sampled_from(["R", "hZ", "qZbar", "qN0", "Pab", "finite"]))
    if shape == "R":
        ts = draw(st.sampled_from([RealInterval(), RealInterval(0.0, 50.0)]))
        lo, hi = _bounds(draw, st.floats(0.0, 50.0))
    elif shape == "hZ":
        ts = UniformLattice(draw(st.floats(0.01, 5.0)))
        lo, hi = _bounds(draw, st.integers(-300, 300).map(lambda k: k * ts.h))
    elif shape in ("qZbar", "qN0"):
        q = draw(st.floats(1.01, 8.0))
        ts = QLatticeClosure(q) if shape == "qZbar" else QPowers(q)
        k_min = -60 if shape == "qZbar" else 0
        powers = st.integers(k_min, 60).map(lambda k: q ** k)
        lo, hi = _bounds(draw, st.just(0.0) | powers if shape == "qZbar" else powers)
    elif shape == "Pab":
        ts = PeriodicUnion(draw(st.floats(0.1, 3.0)), draw(st.floats(0.1, 3.0)))
        offsets = st.just(0.0) | st.just(1.0) | st.floats(0.0, 1.0)
        points = st.tuples(st.integers(0, 40), offsets).map(
            lambda kr: kr[0] * ts.period + kr[1] * ts.a)
        lo, hi = _bounds(draw, points)
    else:
        pts = sorted(set(draw(st.lists(st.floats(0.0, 1e3), min_size=1, max_size=60))))
        ts = FiniteSet(tuple(pts))
        lo, hi = _bounds(draw, st.sampled_from(ts.points))
    return ts, lo, hi


@CONTRACT
@given(scales_and_bounds())
def test_cells_telescope_from_lo_to_hi(case):
    ts, lo, hi = case
    cells = ts.decompose(lo, hi)
    assert all(type(c) in (Jumps, Segment) for c in cells)
    spans = [(c.points[0], c.points[-1]) if isinstance(c, Jumps) else (c.lo, c.hi)
             for c in cells]
    if lo == hi:
        assert cells == []
        return
    assert spans[0][0] == lo
    assert spans[-1][1] == hi
    for (_, cur_end), (nxt_start, _) in zip(spans, spans[1:]):
        assert nxt_start == cur_end
    for cur, nxt in zip(cells, cells[1:]):  # runs are maximal
        assert not (isinstance(cur, Jumps) and isinstance(nxt, Jumps))


@CONTRACT
@given(scales_and_bounds())
def test_run_points_are_scale_points_each_jumping_to_the_next(case):
    ts, lo, hi = case
    for cell in ts.decompose(lo, hi):
        if not isinstance(cell, Jumps):
            continue
        points = cell.points
        assert len(points) >= 2
        assert all(ts.contains(p) for p in points)
        for t, nxt in zip(points, points[1:]):
            assert t < nxt
            assert ts.sigma(t) == nxt


@CONTRACT
@given(scales_and_bounds())
def test_cauchy_uses_one_cell_per_step_and_segment(case):
    ts, lo, hi = case
    if lo < 0.0 or (isinstance(ts, QLatticeClosure) and lo == 0.0):
        return  # cauchy takes bounds >= 0; qZbar from 0 sums a series instead
    cells = ts.decompose(lo, hi)
    steps = sum(len(c.points) - 1 for c in cells if isinstance(c, Jumps))
    segments = sum(isinstance(c, Segment) for c in cells)
    assert cauchy(ONE, ts, lo, hi, 1.0).cells_used == steps + segments
