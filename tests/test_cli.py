"""Command-line behavior: values, formats, exit codes, determinism."""

import csv
import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from tscal.cli import main


def run_cli(args, env=None, monkeypatch=None):
    if env and monkeypatch:
        for k, v in env.items():
            monkeypatch.setenv(k, v)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue()


def test_deriv_lattice_square():
    code, out, _ = run_cli(["deriv", "--scale", "hZ(h=1)", "--expr", "t^2",
                            "--alpha", "0.5", "--at", "2"])
    assert code == 0
    doc = json.loads(out)
    row = doc["results"][0]
    assert row["value"] == pytest.approx(7.0710678118654755, rel=1e-12)
    assert row["sigma"] == 3.0 and row["mu"] == 1.0
    assert row["class"] == "rs-ls"
    assert doc["meta"]["version"]


def test_deriv_higher_order():
    code, out, _ = run_cli(["deriv", "--scale", "hZ(h=1)", "--expr", "t^3",
                            "--alpha", "2.1", "--at", "1"])
    assert code == 0
    assert json.loads(out)["results"][0]["value"] == pytest.approx(6.0, rel=1e-9)


def test_deriv_constant_is_zero():
    code, out, _ = run_cli(["deriv", "--scale", "R", "--expr", "5",
                            "--alpha", "0.3", "--at", "1"])
    assert code == 0
    assert json.loads(out)["results"][0]["value"] == 0.0


def test_deriv_at_zero_routes_to_zero_limit():
    code, out, _ = run_cli(["deriv", "--scale", "qZbar(q=2)", "--expr", "t^2",
                            "--alpha", "0.5", "--at", "0"])
    assert code == 0
    assert abs(json.loads(out)["results"][0]["value"]) <= 1e-6


def test_deriv_range_points():
    code, out, _ = run_cli(["deriv", "--scale", "hZ(h=1)", "--expr", "t",
                            "--alpha", "1", "--from", "1", "--to", "4",
                            "--count", "4"])
    assert code == 0
    doc = json.loads(out)
    assert [r["t"] for r in doc["results"]] == [1.0, 2.0, 3.0, 4.0]
    assert all(r["value"] == 1.0 for r in doc["results"])
    # one point is the row at --from
    code, out, _ = run_cli(["deriv", "--scale", "hZ(h=1)", "--expr", "t",
                            "--alpha", "1", "--from", "2", "--to", "5",
                            "--count", "1"])
    assert code == 0
    assert [r["t"] for r in json.loads(out)["results"]] == [2.0]


def test_json_numbers_carry_full_precision():
    _, out, _ = run_cli(["deriv", "--scale", "hZ(h=1)", "--expr", "t^2",
                         "--alpha", "0.5", "--at", "2"])
    # every float is printed as a 17-significant-digit scientific literal
    assert '"value": 7.0710678118654755e+00' in out
    assert '"alpha": 5.0000000000000000e-01' in out


def test_csv_output():
    code, out, _ = run_cli(["deriv", "--scale", "hZ(h=1)", "--expr", "t^2",
                            "--alpha", "0.5", "--at", "2", "--output", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split(",")[:4] == ["t", "sigma", "mu", "class"]
    assert "7.0710678118654755e+00" in lines[1]


def test_csv_quotes_a_class_label_with_a_comma():
    code, out, _ = run_cli(["deriv", "--scale", "R[0,4]", "--expr", "t^2",
                            "--alpha", "1", "--points", "0,4", "--output", "csv"])
    assert code == 0
    # the labels of a scale's ends hold a comma, so they are quoted
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [row["class"] for row in rows] == ["rd-ld,min", "rd-ld,max"]
    assert [row["value"] for row in rows] == ["0.0000000000000000e+00",
                                              "8.0000000000000000e+00"]
    assert all(None not in row for row in rows)  # no field beyond the header


def test_integ_example():
    b = repr(10.0 ** (2.0 / 3.0))
    code, out, _ = run_cli(["integ", "--scale", "R", "--expr", "t",
                            "--alpha", "0.5", "--from", "1", "--to", b])
    assert code == 0
    row = json.loads(out)["results"][0]
    assert row["value"] == pytest.approx(6.0, abs=1e-8)
    assert row["est_error"] <= 1e-8


def test_integ_lattice_sum():
    code, out, _ = run_cli(["integ", "--scale", "hZ(h=1)", "--expr", "t^2",
                            "--alpha", "1", "--from", "1", "--to", "4"])
    assert code == 0
    assert json.loads(out)["results"][0]["value"] == 14.0


def test_integ_empty_interval():
    code, out, _ = run_cli(["integ", "--scale", "R", "--expr", "t",
                            "--alpha", "1", "--from", "2", "--to", "2"])
    assert code == 0
    assert json.loads(out)["results"][0]["value"] == 0.0


def test_integ_from_an_endpoint_admitted_as_zero():
    code, out, _ = run_cli(["integ", "--scale", "R", "--expr", "t", "--alpha", "0.5",
                            "--from=-1e-15", "--to", "1"])
    assert code == 0
    row = json.loads(out)["results"][0]
    assert row["value"] == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_witness_examples():
    code, out, _ = run_cli(["witness", "--scale", "qN0(q=2)", "--f", "t^2",
                            "--g", "t", "--alpha", "0.5", "--at", "4"])
    assert code == 0
    row = json.loads(out)["results"][0]
    assert row["c"] == pytest.approx(6.0, abs=1e-8)
    assert row["residual"] <= 1e-8 * (1 + 24.0)

    code, out, _ = run_cli(["witness", "--scale", "qN0(q=2)", "--f", "t^2",
                            "--g", "t^2", "--alpha", "0.5", "--at", "2"])
    assert json.loads(out)["results"][0]["c"] == pytest.approx(math.sqrt(10.0), abs=1e-7)

    code, out, _ = run_cli(["witness", "--scale", "R", "--f", "t", "--g", "t",
                            "--alpha", "1", "--at", "3"])
    row = json.loads(out)["results"][0]
    assert row["c"] == 3.0 and row["residual"] == 0.0


def test_verify_pass_and_unknown():
    code, out, _ = run_cli(["verify", "--law", "sum", "--trials", "25",
                            "--seed", "7"])
    assert code == 0
    doc = json.loads(out)
    assert doc["laws"][0]["passed"] is True

    code, _, err = run_cli(["verify", "--law", "naive_chain_counterexample",
                            "--trials", "5", "--seed", "0"])
    assert code == 0  # expected-failure law passes when the gap shows up

    code, _, err = run_cli(["verify", "--law", "unknown_law"])
    assert code == 1
    assert "unknown_law" in err


def test_parse_error_exit_code():
    code, _, err = run_cli(["deriv", "--scale", "hZ(h=1)", "--expr", "t^^2",
                            "--alpha", "0.5", "--at", "2"])
    assert code == 2 and "parse error" in err

    code, _, err = run_cli(["deriv", "--scale", "wat", "--expr", "t",
                            "--alpha", "0.5", "--at", "2"])
    assert code == 2


def test_domain_error_exit_code():
    code, _, err = run_cli(["deriv", "--scale", "hZ(h=1)", "--expr", "t^2",
                            "--alpha", "0.5", "--at", "2.5"])
    assert code == 3 and "2.5" in err

    # f(2) itself is undefined, so the error names 2, not a step of the limit
    code, _, err = run_cli(["deriv", "--scale", "R", "--expr", "log(t-5)",
                            "--alpha", "0.5", "--at", "2"])
    assert code == 3 and err == "tscal: DomainError: log of a non-positive value at t=2.0\n"


def test_usage_error_exit_code():
    code, _, err = run_cli(["deriv", "--scale", "R", "--expr", "t",
                            "--alpha", "0.5"])
    assert code == 1  # no points given

    code, _, _ = run_cli(["deriv", "--scale", "R", "--expr", "t",
                          "--alpha", "-1", "--at", "2"])
    assert code == 1


DERIV_R = ["deriv", "--scale", "R", "--expr", "t^2", "--alpha", "0.5"]
INTEG_R = ["integ", "--scale", "R", "--expr", "t", "--alpha", "0.5",
           "--from", "1", "--to", "2"]

# numbers and options argparse accepts but the command cannot use
UNUSABLE_NUMBERS = {
    "alpha_nan": ["deriv", "--scale", "R", "--expr", "t^2", "--alpha", "nan",
                  "--at", "1"],
    "alpha_inf": ["deriv", "--scale", "R", "--expr", "t^2", "--alpha", "inf",
                  "--at", "1"],
    "tol_nan": INTEG_R + ["--tol", "nan"],
    "deriv_tol": DERIV_R + ["--at", "1", "--tol", "1e-6"],  # deriv reads no tolerance
    "points_not_a_number": DERIV_R + ["--points", "1,x"],
    "points_empty": DERIV_R + ["--points", ""],
    "points_empty_csv": DERIV_R + ["--points", "", "--output", "csv"],
    "points_only_commas": DERIV_R + ["--points", ","],
    "points_only_commas_csv": DERIV_R + ["--points", " , ,", "--output", "csv"],
    "from_without_to": DERIV_R + ["--from", "1"],
    "count_zero": DERIV_R + ["--from", "1", "--to", "3", "--count", "0"],
    "from_above_to": DERIV_R + ["--from", "3", "--to", "1"],
    "integ_alpha_above_1": ["integ", "--scale", "R", "--expr", "t", "--alpha", "1.5",
                            "--from", "1", "--to", "2"],
    "witness_alpha_zero": ["witness", "--scale", "qN0(q=2)", "--f", "t^2",
                           "--g", "t", "--alpha", "0", "--at", "4"],
    "trials_zero": ["verify", "--law", "sum", "--trials", "0"],
    "hZ_at_nan": ["deriv", "--scale", "hZ(h=1)", "--expr", "t^2",
                  "--alpha", "0.5", "--at", "nan"],
    "R_at_inf": ["deriv", "--scale", "R", "--expr", "t^2", "--alpha", "0.5",
                 "--at", "inf"],
    "integ_to_inf": ["integ", "--scale", "R", "--expr", "t", "--alpha", "0.5",
                     "--from", "1", "--to", "inf"],
    "witness_at_nan": ["witness", "--scale", "qN0(q=2)", "--f", "t^2",
                       "--g", "t", "--alpha", "0.5", "--at", "nan"],
}


@pytest.mark.parametrize("name", sorted(UNUSABLE_NUMBERS))
def test_unusable_numbers_are_usage_errors(name):
    code, out, err = run_cli(UNUSABLE_NUMBERS[name])
    assert (code, out) == (1, "")
    assert err.startswith("tscal: usage error: ")


def test_parser_reuse_starts_each_call_afresh():
    # the parser is built once per process; appended --at values must not leak
    base = ["deriv", "--scale", "hZ(h=1)", "--expr", "t^2", "--alpha", "0.5"]
    _, out, _ = run_cli(base + ["--at", "2", "--at", "3"])
    assert [r["t"] for r in json.loads(out)["results"]] == [2.0, 3.0]
    _, out, _ = run_cli(base + ["--at", "4"])
    assert [r["t"] for r in json.loads(out)["results"]] == [4.0]


def test_parser_reuse_repeats_usage_errors():
    args = ["deriv", "--scale", "R", "--alpha", "0.5", "--at", "1"]
    first, second = run_cli(args), run_cli(args)
    assert first == second
    assert first[0] == 1 and "--expr" in first[2]


def test_verify_reports_the_tolerances_its_suites_run_with():
    # the suites run at the library defaults, so verify takes no --tol
    code, out, err = run_cli(["verify", "--law", "sum", "--trials", "3",
                              "--tol", "1e-3"])
    assert code == 1 and out == "" and "--tol" in err
    code, out, _ = run_cli(["verify", "--law", "sum", "--trials", "3"])
    assert code == 0
    meta = json.loads(out)["meta"]["tolerances"]
    assert meta["deriv_tol"] == 1e-9 and meta["quad_tol"] == 1e-10


def test_witness_reads_no_tolerance():
    # a witness takes its slopes from the jet, so witness takes no --tol and
    # reports the library defaults
    args = ["witness", "--scale", "qN0(q=2)", "--f", "t^2", "--g", "t",
            "--alpha", "0.5", "--at", "4"]
    code, out, err = run_cli(args + ["--tol", "1e-3"])
    assert code == 1 and out == "" and "--tol" in err
    code, out, _ = run_cli(args)
    assert code == 0
    meta = json.loads(out)["meta"]["tolerances"]
    assert meta["deriv_tol"] == 1e-9 and meta["quad_tol"] == 1e-10


def test_only_verify_takes_a_seed():
    # deriv, integ and witness draw nothing at random (their meta says seed 0)
    code, out, err = run_cli(["deriv", "--scale", "R", "--expr", "t^2",
                              "--alpha", "0.5", "--at", "2", "--seed", "3"])
    assert code == 1 and out == "" and "--seed" in err


def test_byte_identical_reruns():
    args = ["verify", "--law", "product", "--trials", "20", "--seed", "3"]
    _, out1, _ = run_cli(args)
    _, out2, _ = run_cli(args)
    assert out1 == out2


GOLDEN = Path(__file__).resolve().parent / "golden"

# README commands and the files in tests/golden holding their stdout
README_COMMANDS = {
    "readme_deriv": ["deriv", "--scale", "hZ(h=1)", "--expr", "t^2",
                     "--alpha", "0.5", "--at", "2"],
    "readme_deriv_higher": ["deriv", "--scale", "hZ(h=1)", "--expr", "t^3",
                            "--alpha", "2.1", "--at", "1"],
    "readme_integ": ["integ", "--scale", "R", "--expr", "t", "--alpha", "0.5",
                     "--from", "1", "--to", "4.641588833612779"],
    "readme_witness": ["witness", "--scale", "qN0(q=2)", "--f", "t^2", "--g", "t",
                       "--alpha", "0.5", "--at", "4"],
    "readme_verify_counterexample": ["verify", "--law", "naive_chain_counterexample"],
}


@pytest.mark.parametrize("name", sorted(README_COMMANDS))
def test_readme_commands_match_golden_output(name):
    # byte for byte, across versions; a deliberate change rewrites the file
    code, out, _ = run_cli(README_COMMANDS[name])
    assert code == 0
    assert out.encode() == (GOLDEN / f"{name}.json").read_bytes()


def test_readme_library_example():
    # run the README's Python block line by line; a "  # " comment is the
    # repr of the expression before it
    readme = (GOLDEN.parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace, shown = {}, []
    for line in block.splitlines():
        code, _, comment = line.partition("  # ")
        if comment:
            shown.append((repr(eval(code, namespace)), comment.strip()))
        else:
            exec(line, namespace)
    assert shown == [("7.0710678118654755", "7.0710678118654755"), ("6.0", "6.0")]


def test_readme_command_in_fresh_interpreter():
    # a new process builds the parser on its first call
    root = GOLDEN.parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "tscal.cli", *README_COMMANDS["readme_deriv_higher"]],
        cwd=root, env=env, capture_output=True, check=True)
    assert proc.stdout == (GOLDEN / "readme_deriv_higher.json").read_bytes()


FUNCS_EXPR = "log(t+1)*sqrt(t) + abs(t-2.5) + exp(-t)*sin(t)*cos(t)"

# derivative tables; on R every row of the order-2.1 table takes f' from the
# jet and f'' and f''' from the same parsed tree, on hZ the rows are forward
# quotients
TABLE_COMMANDS = {
    "table_R_t3_higher.json": ["deriv", "--scale", "R", "--expr", "t^3",
                               "--alpha", "2.1", "--from", "1", "--to", "3",
                               "--count", "20"],
    "table_R_t3_higher.csv": ["deriv", "--scale", "R", "--expr", "t^3",
                              "--alpha", "2.1", "--from", "1", "--to", "3",
                              "--count", "20", "--output", "csv"],
    "table_hZ_abs_higher.json": ["deriv", "--scale", "hZ(h=1)", "--expr",
                                 "abs(t-3)", "--alpha", "2.5", "--from", "1",
                                 "--to", "6", "--count", "6"],
    # a kink at the start of R[3,5]: the right jet, exactly 1
    "deriv_abs_one_sided.json": ["deriv", "--scale", "R[3,5]", "--expr", "abs(t-3)",
                                 "--alpha", "1", "--at", "3"],
    # scattered chains whose cross path is the primary triangle's last
    # quotient, and a zero limit that evaluates f once at each lattice point;
    # both goldens were written when every use of a point evaluated f anew
    "table_qN0_higher.csv": ["deriv", "--scale", "qN0(q=2)", "--expr", "t^3 - 2*t",
                             "--alpha", "2.5", "--points", "1,2,4,8,16", "--output", "csv"],
    "deriv_qZbar_at_zero.json": ["deriv", "--scale", "qZbar(q=2)", "--expr", "t*cos(t)",
                                 "--alpha", "1", "--at", "0"],
    # the dense higher path at a Pab block interior, a block end stepping
    # into a block start, and a block start; then at both edges of R[1,3],
    # orders 1 and 3; all three were written when a right-dense start of the
    # delta chain evaluated f and every order below the one it returned
    "table_Pab_higher.csv": ["deriv", "--scale", "Pab(a=1,b=1)", "--expr",
                             "t^4 - 3*t^2 + exp(0.5*t)", "--alpha", "2.5",
                             "--points", "0.25,1,2,2.5,6.1", "--output", "csv"],
    "table_R13_edges_higher.csv": ["deriv", "--scale", "R[1,3]", "--expr",
                                   "exp(0.5*t)*sin(t) + t^4", "--alpha", "1.5",
                                   "--points", "1,2,3", "--output", "csv"],
    "table_R13_edges_order3.csv": ["deriv", "--scale", "R[1,3]", "--expr",
                                   "exp(0.5*t)*sin(t) + t^4", "--alpha", "3.5",
                                   "--points", "1,2,3", "--output", "csv"],
    # every function of the grammar in one tree, at Pab's dense points, a
    # block end and a block start; at order 1.6 without abs, whose symbolic
    # derivative is refused; both were written before each function's rules
    # were gathered into one record
    "table_Pab_funcs.csv": ["deriv", "--scale", "Pab(a=1,b=1)", "--expr", FUNCS_EXPR,
                            "--alpha", "0.7", "--points", "0.25,1,2,2.75,6.1",
                            "--output", "csv"],
    "table_Pab_funcs_higher.csv": ["deriv", "--scale", "Pab(a=1,b=1)", "--expr",
                                   FUNCS_EXPR.replace(" + abs(t-2.5)", ""), "--alpha", "1.6",
                                   "--points", "0.25,1,2,2.75,6.1", "--output", "csv"],
}


@pytest.mark.parametrize("name", sorted(TABLE_COMMANDS))
def test_tables_match_golden_output(name):
    code, out, _ = run_cli(TABLE_COMMANDS[name])
    assert code == 0
    assert out.encode() == (GOLDEN / name).read_bytes()


# a lattice integral of 10,000 steps, all evaluated in one walk of the tree
LATTICE_INTEG = ["integ", "--scale", "hZ(h=0.01)", "--expr", "1.5 + 0.25*t - 0.01*t^2",
                 "--alpha", "0.8", "--from", "1", "--to", "101"]


def test_lattice_integral_matches_golden_output():
    code, out, _ = run_cli(LATTICE_INTEG)
    assert code == 0
    assert out.encode() == (GOLDEN / "integ_hZ_lattice.json").read_bytes()


# a lone constant or t over the same 10,000 steps: its first walk of 4,096
# points gives the leaf compiled code; the goldens were written when a lone
# leaf got no code and every step was evaluated alone
@pytest.mark.parametrize("expr,name", [("2", "integ_hZ_const.json"), ("t", "integ_hZ_t.json")])
def test_lone_leaf_lattice_integral_matches_golden_output(expr, name):
    code, out, _ = run_cli(["integ", "--scale", "hZ(h=0.01)", "--expr", expr, "--alpha", "0.8",
                            "--from", "1", "--to", "101"])
    assert code == 0
    assert out.encode() == (GOLDEN / name).read_bytes()


# the tree with every function over 10,000 lattice steps: its walks give it
# compiled code; the golden was written before each function's rules were
# gathered into one record
FUNCS_INTEG = ["integ", "--scale", "hZ(h=0.01)", "--expr", FUNCS_EXPR, "--alpha", "0.8",
               "--from", "1", "--to", "101"]


def test_every_function_integral_matches_golden_output():
    code, out, _ = run_cli(FUNCS_INTEG)
    assert code == 0
    assert out.encode() == (GOLDEN / "integ_hZ_funcs.json").read_bytes()


# 200 Pab blocks, so one call evaluates every block's first G7K15 panel in a
# walk of the tree; the golden was written when each node was evaluated alone
PAB_BLOCKS_INTEG = ["integ", "--scale", "Pab(a=1,b=1)", "--expr", "1.5 + 0.25*t - 0.01*t^2",
                    "--alpha", "0.75", "--from", "0.5", "--to", "398.5"]


def test_pab_blocks_integral_matches_golden_output():
    code, out, _ = run_cli(PAB_BLOCKS_INTEG)
    assert code == 0
    assert out.encode() == (GOLDEN / "integ_Pab_blocks.json").read_bytes()


# 16 Pab segments and 15 steps: one walk holds every step and first panel,
# and the segment [20, 21] is refined at the kink; the golden was written
# before the steps and the first panels shared a walk
PAB_KINK_INTEG = ["integ", "--scale", "Pab(a=1,b=1)", "--expr", "sqrt(abs(t - 20.55) + 0.02)",
                  "--alpha", "0.75", "--from", "0.5", "--to", "30.5"]


def test_pab_kink_integral_matches_golden_output():
    code, out, _ = run_cli(PAB_KINK_INTEG)
    assert code == 0
    assert out.encode() == (GOLDEN / "integ_Pab_kink.json").read_bytes()


# the series from 0 on qZbar: 53 terms summed down from 8 until the tail settles
QZBAR_SERIES_INTEG = ["integ", "--scale", "qZbar(q=2)", "--expr", "exp(-t)*cos(t)",
                      "--alpha", "0.7", "--from", "0", "--to", "8"]


def test_qzbar_series_integral_matches_golden_output():
    code, out, _ = run_cli(QZBAR_SERIES_INTEG)
    assert code == 0
    assert out.encode() == (GOLDEN / "integ_qZbar_series.json").read_bytes()

# the top point of qN0(q=2), 2**1023, has no representable sigma: the integral
# up to it exists, and its row reports sigma, mu and class as null
QN0_TOP_INTEG = ["integ", "--scale", "qN0(q=2)", "--expr", "1/t", "--alpha", "1",
                 "--from", "1", "--to", "8.98846567431158e307"]


def test_an_integral_to_a_point_without_sigma_reports_null_sigma():
    code, out, _ = run_cli(QN0_TOP_INTEG)
    assert code == 0
    assert out.encode() == (GOLDEN / "integ_qN0_top.json").read_bytes()
    row = json.loads(out)["results"][0]
    assert row["value"] == 1023.0 and row["sigma"] is row["mu"] is row["class"] is None
    code, out, _ = run_cli(QN0_TOP_INTEG + ["--output", "csv"])
    assert code == 0
    row, = csv.DictReader(io.StringIO(out))
    assert (row["sigma"], row["mu"], row["class"], row["cells_used"]) == ("", "", "", "1023")


@pytest.mark.parametrize("args", [
    ["deriv", "--scale", "R", "--expr", "t\t+ 1", "--alpha", "1", "--at", "2"],
    ["deriv", "--scale", "R\n", "--expr", "t", "--alpha", "1", "--at", "2"],
    ["witness", "--scale", "qN0(q=2)", "--f", "t^2\n", "--g", "\tt", "--alpha", "0.5",
     "--at", "4"],
], ids=["expr_tab", "scale_newline", "witness_f_g"])
def test_json_escapes_control_characters_in_echoed_strings(args):
    # the parsers take tabs and newlines between tokens; the echo must stay JSON
    code, out, _ = run_cli(args)
    assert code == 0
    doc = json.loads(out)
    for key in ("scale", "expr", "f", "g"):
        if f"--{key}" in args:
            assert doc[key] == args[args.index(f"--{key}") + 1], key


def test_snap_is_echoed(tmp_path):
    # 2**-3 typed as decimal text snaps onto the lattice point exactly
    code, out, _ = run_cli(["deriv", "--scale", "qZbar(q=2)", "--expr", "t",
                            "--alpha", "1", "--at", "0.125"])
    assert code == 0
    assert json.loads(out)["results"][0]["snap"] == 0.0


def test_no_command_reads_tscal_tol(monkeypatch):
    # the environment sets no tolerance: the README commands print their goldens
    monkeypatch.setenv("TSCAL_TOL", "nan")
    for name, args in README_COMMANDS.items():
        code, out, _ = run_cli(args)
        assert code == 0, name
        assert out.encode() == (GOLDEN / f"{name}.json").read_bytes(), name


def test_integ_tol_sets_quad_tol_only():
    code, out, _ = run_cli(INTEG_R + ["--tol", "1e-8"])
    assert code == 0
    doc = json.loads(out)
    # the integral of t**(1/2) from 1 to 2
    assert doc["results"][0]["value"] == pytest.approx((2 ** 1.5 - 1) * 2 / 3, abs=1e-8)
    meta = doc["meta"]["tolerances"]
    assert meta["deriv_tol"] == 1e-9 and meta["quad_tol"] == 1e-8


def test_finite_scale_from_file(tmp_path):
    path = tmp_path / "pts.txt"
    path.write_text("1.0\n2.0\n4.0\n", encoding="utf-8")
    code, out, _ = run_cli(["deriv", "--scale", f"finite({path})", "--expr",
                            "t^2", "--alpha", "1", "--at", "2"])
    assert code == 0
    # quotient ((4)^2 - 2^2) / 2 = 6
    assert json.loads(out)["results"][0]["value"] == 6.0


def test_order_above_one_at_zero_is_a_usage_error():
    code, out, err = run_cli(["deriv", "--scale", "qZbar(q=2)", "--expr", "t",
                              "--alpha", "1.5", "--at", "0"])
    assert (code, out) == (1, "")
    assert err.startswith("tscal: usage error: --alpha above 1")


@pytest.mark.parametrize("args", [
    ["integ", "--scale", "R", "--expr", "t", "--alpha", "1", "--from", "0",
     "--to", "1e300"],
    ["deriv", "--scale", "hZ(h=1e-16)", "--expr", "t", "--alpha", "1", "--at", "1"],
    ["deriv", "--scale", "hZ(h=1e-300)", "--expr", "t", "--alpha", "1", "--at", "1"],
    # the forward quotient (1.5e308 - -1.5e308) / 1 overflows; it printed inf
    ["deriv", "--scale", "hZ(h=1)", "--expr", "1.5e308*cos(3.141592653589793*t)",
     "--alpha", "1", "--at", "1"],
    # 2**1023, whose sigma 2**1024 is beyond the largest float
    ["deriv", "--scale", "qN0(q=2)", "--expr", "t", "--alpha", "1", "--at",
     "8.98846567431158e307"],
], ids=["integ_overflow", "hZ_1e-16", "hZ_1e-300", "quotient_overflow", "qN0_top"])
def test_unrepresentable_results_exit_3_without_output(args):
    code, out, err = run_cli(args)
    assert (code, out) == (3, "")
    assert err.startswith("tscal: NotRepresentable: ")



def test_a_point_off_a_q_lattice_near_the_top_names_its_nearest_point():
    # nearest skips the candidate q**53, beyond the largest float
    code, out, err = run_cli(["deriv", "--scale", "qN0(q=668436.0070224546)", "--expr", "t",
                              "--alpha", "1", "--at", "1e300"])
    assert (code, out) == (3, "")
    assert err.startswith("tscal: TscalError: 1e+300 is not in the scale (nearest point "
                          "1.1968828613977262e+297, ")


def test_sin_of_an_infinite_constant_exits_3_with_a_domain_error():
    code, out, err = run_cli(["deriv", "--scale", "R", "--expr", "sin(1e999)",
                              "--alpha", "1", "--at", "1"])
    assert (code, out) == (3, "")
    assert err == "tscal: DomainError: sin of an infinite value at t=1.0\n"

def test_kink_inside_a_continuum_exits_3_without_output():
    code, out, err = run_cli(["deriv", "--scale", "R", "--expr", "abs(t-3)",
                              "--alpha", "0.5", "--at", "3"])
    assert (code, out) == (3, "")
    assert err == ("tscal: NotDifferentiable: one-sided derivatives -1.0 and 1.0 "
                   "differ at t=3.0\n")


def test_a_failing_walk_on_a_tree_with_code_exits_3_with_the_first_error():
    # the first walk, of 4,096 steps, gives 1/(t-50) its code; the second
    # holds t = 50 and fails, and its replay raises the first error
    code, out, err = run_cli(["integ", "--scale", "hZ(h=0.01)", "--expr", "1/(t-50)",
                              "--alpha", "0.8", "--from", "1", "--to", "101"])
    assert (code, out) == (3, "")
    assert err == "tscal: DomainError: division by zero at t=50.0\n"


@pytest.mark.parametrize("src", ["t^(-0.48)", "t^(-0.49)"])
def test_unresolvable_zero_endpoint_exits_3_without_output(src):
    code, out, err = run_cli(["integ", "--scale", "R[0,2]", "--expr", src,
                              "--alpha", "0.5", "--from", "0", "--to", "1"])
    assert (code, out) == (3, "")
    assert err.startswith("tscal: EndpointSingularity: ")
