"""Law-suite behavior and the brute-force definition check."""

import json
import math
import random
from pathlib import Path

import pytest

from tscal.derivative import t_alpha
from tscal.errors import UnknownLaw
from tscal.expr import parse
import tscal.laws
from tscal.laws import (_KINDS, _LAW_RUNNERS, LAWS, _admissible_point, _integral_endpoints,
                        _scattered_point, definition_scan, run_law_suite)
from tscal.timescale import (
    FiniteSet,
    PeriodicUnion,
    QLatticeClosure,
    QPowers,
    UniformLattice,
)

HZ1 = UniformLattice(1.0)


def test_definition_scan_examples():
    f = parse("t^2")
    value = 5.0 * math.sqrt(2.0)  # (2t + h) t**(1-alpha) at t=2, h=1, alpha=1/2
    assert definition_scan(f, HZ1, 2.0, 0.5, value, 1e-9)
    assert not definition_scan(f, HZ1, 2.0, 0.5, value + 0.01, 1e-9)
    assert definition_scan(parse("7"), QPowers(2.0), 4.0, 0.5, 0.0, 1e-12)


# scattered regression corpus: every case must accept the computed value and
# reject it perturbed by +/- 1e-3
SCATTERED_CASES = [
    (UniformLattice(1.0), "t^2", 2.0, 0.5),
    (UniformLattice(0.5), "t^3", 1.5, 0.25),
    (UniformLattice(2.0), "t^2 - t", 4.0, 1.0),
    (QPowers(2.0), "log(t)", 8.0, 0.5),
    (QPowers(3.0), "t^3", 9.0, 0.7),
    (QLatticeClosure(2.0), "t^2", 0.25, 0.4),
    (PeriodicUnion(1.0, 2.0), "t^2 + t", 1.0, 0.6),
    (PeriodicUnion(0.5, 0.5), "t^3", 1.5, 0.9),
    (FiniteSet((0.5, 1.0, 2.5, 4.0)), "t^2", 1.0, 0.8),
]


@pytest.mark.parametrize("ts,src,t,alpha", SCATTERED_CASES,
                         ids=lambda v: str(v)[:24])
def test_definition_scan_soundness(ts, src, t, alpha):
    f = parse(src)
    value = t_alpha(f, ts, t, alpha)
    assert definition_scan(f, ts, t, alpha, value, 1e-9)
    assert not definition_scan(f, ts, t, alpha, value + 1e-3, 1e-9)
    assert not definition_scan(f, ts, t, alpha, value - 1e-3, 1e-9)


@pytest.mark.parametrize("law,trials,seed", [
    ("integral_additivity", 40, 6005),
    ("integral_linearity", 24, 12002),
])
def test_integral_law_seeds_within_tolerance(law, trials, seed):
    # seeds whose residuals once exceeded the law tolerance (8.3e-10 against
    # 3e-10, 3.8e-10 against 2e-10) under an absolute-only Simpson rule
    assert run_law_suite(law, trials, seed).passed


@pytest.mark.parametrize("law,trials,seed", [
    ("product", 100, 48000),
    ("sum", 100, 66000),
    ("sigma_shift", 240, 92000),
])
def test_derivative_law_seeds_pass(law, trials, seed):
    # seeds whose dense-point Richardson limit raised LimitDiverged out of the
    # suite; the jet gives f'(t) there without a limit
    assert run_law_suite(law, trials, seed).passed


def test_unknown_law():
    with pytest.raises(UnknownLaw):
        run_law_suite("no_such_law", trials=1, seed=0)
    with pytest.raises(ValueError):
        run_law_suite("sum", trials=0, seed=0)


@pytest.mark.parametrize("law", [l for l in LAWS if l != "naive_chain_counterexample"])
def test_each_law_passes_smoke(law):
    report = run_law_suite(law, trials=40, seed=7)
    assert report.passed, report.failures[:3]
    assert report.cases_run >= 40
    assert not report.failures


def test_counterexample_law_fails_by_design():
    report = run_law_suite("naive_chain_counterexample", trials=1, seed=0)
    assert report.expect_failures
    assert report.passed
    assert len(report.failures) == 1
    inputs, residual = report.failures[0]
    assert residual == pytest.approx(-2.0, abs=1e-12)
    assert inputs["t"] == 4.0 and inputs["alpha"] == 0.5

    report = run_law_suite("naive_chain_counterexample", trials=30, seed=7)
    assert report.passed and len(report.failures) == 30


def test_reports_reproducible_bit_for_bit():
    for law in ("sum", "integral_additivity", "chain_witness"):
        r1 = run_law_suite(law, trials=25, seed=11)
        r2 = run_law_suite(law, trials=25, seed=11)
        assert r1 == r2
    # different seeds explore different cases
    a = run_law_suite("sum", trials=25, seed=1)
    b = run_law_suite("sum", trials=25, seed=2)
    assert a != b


def test_report_shape():
    rep = run_law_suite("scalar", trials=10, seed=0)
    assert rep.law == "scalar"
    assert rep.tolerance == 1e-12
    assert rep.max_abs_residual >= 0.0
    assert rep.max_rel_residual <= rep.tolerance


GOLDEN = Path(__file__).resolve().parent / "golden"
LAW_REPORTS = json.loads((GOLDEN / "law_reports.json").read_text(encoding="utf-8"))
LAW_PINS = json.loads((GOLDEN / "law_pins.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("law", LAWS)
def test_law_reports_match_golden(law):
    # repr for repr: every residual, failing input and draw of seeds 0-2
    assert [repr(run_law_suite(law, 30, seed)) for seed in range(3)] == LAW_REPORTS[law]


def test_power_rule_reports_past_the_grid_match_golden():
    # 200 trials run 56 random cases after the 144-case grid
    assert ([repr(run_law_suite("power_rule_vs_talpha", 200, seed)) for seed in range(3)]
            == LAW_PINS["power_rule_vs_talpha_200"])


@pytest.mark.parametrize("law", LAWS)
def test_forced_failure_reports_match_golden(law, monkeypatch):
    # a negative tolerance fails every case, so every case's inputs are reported
    runner, _ = _LAW_RUNNERS[law]
    monkeypatch.setitem(_LAW_RUNNERS, law, (runner, -1.0))
    assert repr(run_law_suite(law, 3, 0)) == LAW_PINS["forced_failures"][law]


def _counted(monkeypatch, name):
    calls = []
    inner = getattr(tscal.laws, name)

    def counting(*args):
        calls.append(args)
        return inner(*args)
    monkeypatch.setattr(tscal.laws, name, counting)
    return calls


def test_power_rule_grid_parses_each_source_once(monkeypatch):
    parsed = _counted(monkeypatch, "parse")
    report = run_law_suite("power_rule_vs_talpha", 144, 0)
    assert report.cases_run == 144 and report.passed
    assert len(parsed) == 24 == len(set(parsed))


def test_passing_cases_render_nothing(monkeypatch):
    rendered = _counted(monkeypatch, "render")
    assert run_law_suite("sum", 30, 0).passed
    assert rendered == []


@pytest.mark.parametrize("name", sorted(_KINDS))
def test_law_draws_are_scale_points(name):
    kind = _KINDS[name]
    for seed in range(2000):
        rng = random.Random(seed)
        ts = kind.build(rng)
        t = _admissible_point(kind, ts, rng)
        assert t > 0 and ts.contains(t), (seed, ts, t)
        if kind.draw is not None:
            t = _scattered_point(kind, ts, rng)
            assert ts.mu(t) > 0, (seed, ts, t)
        for n in (2, 3):
            bounds = _integral_endpoints(kind, ts, rng, n)
            assert len(bounds) == n and bounds[0] > 0, (seed, ts, bounds)
            assert all(lo < hi for lo, hi in zip(bounds, bounds[1:])), (seed, ts, bounds)
            assert all(ts.contains(b) for b in bounds), (seed, ts, bounds)
        if kind.above_two is not None:  # the naive-chain draw
            first, width = kind.above_two
            k0 = first(ts)
            t = kind.point(ts, rng.randint(k0, k0 + width))
            assert t >= 2.0 and ts.contains(t) and ts.mu(t) > 0, (seed, ts, t)
        if kind.iterated is not None:  # three jumps ahead stay in the scale
            t = kind.point(ts, rng.randint(*kind.iterated))
            for _ in range(3):
                assert ts.mu(t) > 0, (seed, ts, t)
                t = ts.sigma(t)
