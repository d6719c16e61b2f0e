import io
import json
import os
import re
import subprocess
import sys
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bernray
from bernray import FrechetClass, margin_rays, moment_map, verify_farkas
from bernray.cli import COMMANDS as CLI_COMMANDS, main

F = Fraction


def write_spec(tmp_path, payload, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run_cli(tmp_path, argv, out_name="report.json"):
    out = tmp_path / out_name
    code = main(argv + ["--output", str(out)])
    report = json.loads(out.read_text()) if out.exists() else None
    return code, report


SYM3_SPEC = {"m": 3, "p": ["1/2", "1/2", "1/2"]}
RHO_OK = {"rho": ["0.2", "-0.3", "0.4"]}
RHO_BAD = {"rho": ["0.9", "-0.3", "0.6"]}


def test_rays_report(tmp_path):
    spec = write_spec(tmp_path, SYM3_SPEC)
    code, rep = run_cli(tmp_path, ["rays", "--input", spec])
    assert code == 0
    assert rep["status"] == "ok"
    assert rep["ray_count"] == 6
    assert rep["m"] == 3
    assert len(rep["support_order"]["points"]) == 8
    assert rep["support_order"]["points"][1] == "100"
    # exact and decimal renderings agree in count
    r0 = rep["rays"][0]
    assert len(r0["exact"]) == 8
    assert len(r0["decimal"]) == 8


def test_rays_paper_order_flag(tmp_path):
    spec = write_spec(tmp_path, SYM3_SPEC)
    _, plain = run_cli(tmp_path, ["rays", "--input", spec])
    _, flipped = run_cli(tmp_path, ["rays", "--input", spec, "--paper-order"], "b.json")
    assert flipped["support_order"]["points"] == list(reversed(plain["support_order"]["points"]))
    for a, b in zip(plain["rays"], flipped["rays"]):
        assert b["exact"] == list(reversed(a["exact"]))


def test_rays_csv(tmp_path):
    spec = write_spec(tmp_path, SYM3_SPEC)
    csv_path = tmp_path / "rays.csv"
    code = main(["rays", "--input", spec, "--output", str(tmp_path / "r.json"), "--csv", str(csv_path)])
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0].startswith("#")
    header = lines[1].split(",")
    assert header[0] == "point"
    assert len(header) == 7  # label + 6 rays
    assert len(lines) == 2 + 8


def test_fit_feasible(tmp_path):
    spec = write_spec(tmp_path, {**SYM3_SPEC, **RHO_OK})
    code, rep = run_cli(tmp_path, ["fit", "--input", spec])
    assert code == 0
    assert rep["status"] == "feasible"
    assert rep["mu2_target"]["exact"] == ["3/10", "7/40", "7/20"]
    total = sum(F(v) for v in rep["density"]["exact"])
    assert total == 1


def test_fit_infeasible_exit_2_with_certificate(tmp_path):
    spec = write_spec(tmp_path, {**SYM3_SPEC, **RHO_BAD})
    code, rep = run_cli(tmp_path, ["fit", "--input", spec])
    assert code == 2
    assert rep["status"] == "infeasible"
    assert "certificate" in rep
    y = [F(v) for v in rep["certificate"]["y"]]
    assert len(y) == 4


def test_fit_direct_mode(tmp_path):
    spec = write_spec(tmp_path, {**SYM3_SPEC, **RHO_OK})
    code, rep = run_cli(tmp_path, ["fit", "--input", spec, "--mode", "direct"])
    assert code == 0
    assert rep["status"] == "feasible"


def test_fit_with_mu2_input(tmp_path):
    spec = write_spec(tmp_path, {**SYM3_SPEC, "mu2": ["3/10", "7/40", "7/20"]})
    code, rep = run_cli(tmp_path, ["fit", "--input", spec])
    assert code == 0
    assert rep["status"] == "feasible"


def test_bounds_report(tmp_path):
    spec = write_spec(tmp_path, {"m": 3, "p": ["1/4", "3/4", "1/2"]})
    code, rep = run_cli(tmp_path, ["bounds", "--input", spec])
    assert code == 0
    pair12 = rep["pairs"][0]
    assert (pair12["i"], pair12["j"]) == (1, 2)
    assert F(pair12["moment_lo"]["exact"]) == 0
    assert F(pair12["moment_hi"]["exact"]) == F(1, 4)
    assert F(pair12["rho_lo"]["exact"]) == -1
    assert F(pair12["rho_hi"]["exact"]) == F(1, 3)


def test_nearest_report(tmp_path):
    spec = write_spec(tmp_path, {**SYM3_SPEC, **RHO_BAD})
    code, rep = run_cli(tmp_path, ["nearest", "--input", spec])
    assert code == 0
    assert rep["status"] == "projected"
    assert float(rep["distance"]["decimal"]) == pytest.approx(0.46188021535170065, abs=1e-9)
    assert len(rep["rho_star"]["exact"]) == 3
    assert rep["fw"]["iterations"] > 0


def test_minimize_report(tmp_path):
    spec = write_spec(tmp_path, {**SYM3_SPEC, "mu2": ["1/4", "1/4", "1/4"]})
    code, rep = run_cli(tmp_path, ["minimize", "--input", spec])
    assert code == 0
    assert rep["status"] == "feasible"
    assert F(rep["objective"]["exact"]) == 0


def test_sample_deterministic(tmp_path):
    spec = write_spec(tmp_path, {**SYM3_SPEC, **RHO_OK})
    csv_a = tmp_path / "a.csv"
    csv_b = tmp_path / "b.csv"
    code, rep = run_cli(
        tmp_path,
        ["sample", "--input", spec, "--n", "200", "--seed", "5", "--csv", str(csv_a)],
    )
    assert code == 0
    assert rep["sample"]["generator_id"] == "splitmix64-v1"
    assert rep["sample"]["n"] == 200
    main(["sample", "--input", spec, "--n", "200", "--seed", "5",
          "--output", str(tmp_path / "r2.json"), "--csv", str(csv_b)])
    assert csv_a.read_text() == csv_b.read_text()
    assert csv_a.read_text().splitlines()[0] == "x1,x2,x3"


def test_theta_from_density_file(tmp_path):
    spec = write_spec(tmp_path, SYM3_SPEC)
    dens = write_spec(tmp_path, {"values": ["1/8"] * 8}, "density.json")
    code, rep = run_cli(tmp_path, ["theta", "--input", spec, "--density", dens])
    assert code == 0
    assert rep["checks"]["constant_is_one"] is True
    assert rep["checks"]["linear_all_zero"] is True


@pytest.mark.parametrize("command, report_args", [
    ("fit", []), ("nearest", []), ("minimize", []), ("sample", ["--n", "10"]),
], ids=["fit", "nearest", "minimize", "sample"])
def test_theta_reads_a_report_in_its_own_support_order(tmp_path, command, report_args):
    spec = write_spec(tmp_path, {"m": 3, "p": ["1/2", "1/3", "1/4"], "rho": ["0.1", "0", "-0.1"]})
    thetas = []
    for order in ([], ["--paper-order"]):
        name = f"report{len(thetas)}.json"
        code, _ = run_cli(tmp_path, [command, "--input", spec] + report_args + order, name)
        assert code == 0
        code, rep = run_cli(tmp_path, ["theta", "--input", spec, "--density", str(tmp_path / name)])
        assert code == 0
        thetas.append((rep["density"], rep["theta"], rep["checks"]))
    assert thetas[1] == thetas[0]
    assert thetas[0][2] == {"constant_is_one": True, "linear_all_zero": True}


@pytest.mark.parametrize("points", [
    None, ["000"] * 8, ["000", "100", "010", "110", "001", "101", "011"],
    ["000", "100", "010", "110", "001", "101", "011", 111],
], ids=["absent", "repeated", "short", "not-a-string"])
def test_theta_refuses_a_report_without_its_support_points(tmp_path, capsys, points):
    spec = write_spec(tmp_path, {"m": 3, "p": ["1/2", "1/3", "1/4"]})
    report = {"density": {"exact": ["1/8"] * 8}}
    if points is not None:
        report["support_order"] = {"points": points}
    dens = write_spec(tmp_path, report, "density.json")
    code, rep = run_cli(tmp_path, ["theta", "--input", spec, "--density", dens])
    assert code == 3
    assert rep is None
    assert capsys.readouterr().err == (
        "bernray: invalid input: density: support_order.points: expected the 8 distinct 3-bit labels\n"
    )


# each value type's refusal reaches stderr behind the field it came from
@pytest.mark.parametrize("command, payload, message", [
    ("bounds", {"m": 2, "p": ["1/2", "3/2"]}, "p: margin p[1] = 3/2 is outside (0, 1)"),
    ("fit", {"m": 2, "p": ["1/2", "1/2"], "rho": ["-3/2"]},
     "rho: correlation for pair (1,2) is -3/2, outside [-1, 1]"),
    ("fit", {"m": 2, "p": ["1/2", "1/2"], "mu2": ["3/2"]}, "mu2: moment for pair (1,2) is 3/2, outside [0, 1]"),
    ("theta", {"m": 1, "p": ["1/2"], "density": ["1/2", "-1/2"]},
     "density: density has negative entries at indices [1]"),
    ("nearest", {"m": 2, "p": ["1/2", "1/10"], "mu2": ["9/10"]},
     "mu2: implied correlation for pair (1,2) is 17/3, outside [-1, 1]"),
], ids=["p", "rho", "mu2", "density", "mu2-implied"])
def test_value_refusals_carry_their_field(tmp_path, capsys, command, payload, message):
    spec = write_spec(tmp_path, payload)
    code, rep = run_cli(tmp_path, [command, "--input", spec])
    assert code == 3
    assert rep is None
    assert capsys.readouterr().err == f"bernray: invalid input: {message}\n"


def test_invalid_margin_exits_3(tmp_path, capsys):
    spec = write_spec(tmp_path, {"m": 2, "p": ["0", "1/2"]})
    code = main(["rays", "--input", spec, "--output", str(tmp_path / "x.json")])
    assert code == 3
    err = capsys.readouterr().err
    assert "invalid input" in err


def test_unknown_field_exits_3(tmp_path):
    spec = write_spec(tmp_path, {**SYM3_SPEC, "rho_matrix": []})
    code = main(["rays", "--input", spec, "--output", str(tmp_path / "x.json")])
    assert code == 3


def test_both_rho_and_mu2_exits_3(tmp_path):
    spec = write_spec(tmp_path, {**SYM3_SPEC, **RHO_OK, "mu2": ["1/4", "1/4", "1/4"]})
    code = main(["fit", "--input", spec, "--output", str(tmp_path / "x.json")])
    assert code == 3


# project case 1 of the benchmark: an m=4 class and an unattainable target
PROJECT_CASE_1 = {
    "m": 4, "p": ["2/3", "1/4", "1/5", "4/5"],
    "rho": ["-0.78", "0.12", "0.04", "0.38", "-0.85", "-0.93"],
}


@pytest.mark.parametrize(
    "payload, status",
    [({**SYM3_SPEC, **RHO_OK}, "feasible"), ({**SYM3_SPEC, **RHO_BAD}, "projected"),
     (PROJECT_CASE_1, "projected")],
    ids=["sym3-attainable", "sym3-projected", "project-case-1"],
)
def test_nearest_report_does_not_depend_on_mode(tmp_path, payload, status):
    # one projection path: --mode and options.mode are accepted and ignored
    reports = []
    for name, options, argv in [
        ("flag-rays", {}, ["--mode", "rays"]),
        ("flag-direct", {}, ["--mode", "direct"]),
        ("options-direct", {"options": {"mode": "direct"}}, []),
    ]:
        spec = write_spec(tmp_path, {**payload, **options}, f"{name}.json")
        code, rep = run_cli(tmp_path, ["nearest", "--input", spec] + argv, f"{name}-out.json")
        assert code == 0
        assert rep["status"] == status
        del rep["diagnostics"]
        reports.append(rep)
    assert reports[0] == reports[1] == reports[2]


@pytest.mark.parametrize("command, expect", [("rays", 4), ("fit", 4), ("nearest", 0)])
def test_ray_cap_binds_rays_and_ray_mode_fit_only(tmp_path, capsys, command, expect):
    # symmetric m=7 passes the ray ceiling of 4,000,000 >> 7 in row 3;
    # nearest projects without rays
    spec = write_spec(tmp_path, {"m": 7, "p": ["1/2"] * 7, "rho": ["0.1"] * 21})
    code, rep = run_cli(tmp_path, [command, "--input", spec, "--mode", "rays"])
    assert code == expect
    if expect == 4:
        assert rep is None
        assert capsys.readouterr().err == (
            "bernray: ray enumeration for m=7 holds 31,488 rays in row 3, past the ceiling of 31,250\n"
        )
    else:
        assert rep["status"] == "feasible"


@pytest.mark.parametrize("command, expect", [("rays", 4), ("fit", 4), ("nearest", 0)])
def test_ray_ceiling_exits_4_with_one_line(tmp_path, capsys, monkeypatch, command, expect):
    # symmetric m=3 holds 16 rays in row 1, past a ceiling of 127 >> 3 = 15
    monkeypatch.setattr(bernray.report, "MAX_REPORT_CELLS", 127)
    spec = write_spec(tmp_path, {**SYM3_SPEC, **RHO_OK})
    code, rep = run_cli(tmp_path, [command, "--input", spec, "--mode", "rays"])
    assert code == expect
    if expect == 4:
        assert rep is None
        assert capsys.readouterr().err == (
            "bernray: ray enumeration for m=3 holds 16 rays in row 1, past the ceiling of 15\n"
        )


@pytest.mark.parametrize("ceiling, expect", [(127, 4), (128, 0)])
def test_rays_report_ceiling_exits_4_with_one_line(tmp_path, capsys, monkeypatch, ceiling, expect):
    # symmetric m=3 peaks at 16 rays in row 1: 128 cells over 8 points
    monkeypatch.setattr(bernray.report, "MAX_REPORT_CELLS", ceiling)
    spec = write_spec(tmp_path, SYM3_SPEC)
    csv = tmp_path / "rays.csv"
    code, rep = run_cli(tmp_path, ["rays", "--input", spec, "--csv", str(csv)])
    assert code == expect
    if expect == 4:
        assert rep is None
        assert not csv.exists()
        assert capsys.readouterr().err == (
            "bernray: ray enumeration for m=3 holds 16 rays in row 1, past the ceiling of 15\n"
        )
    else:
        assert rep["ray_count"] == 6
        assert csv.exists()


@pytest.mark.parametrize("command, extra", [("rays", []), ("sample", ["--n", "10", "--seed", "1"])])
@pytest.mark.parametrize("output, csv", [
    pytest.param("same.out", "same.out", id="same"),
    pytest.param("same.out", "./same.out", id="dot-slash"),
    pytest.param("{tmp}/same.out", "sub/../same.out", id="absolute-and-dot-dot"),
])
def test_csv_naming_the_output_file_exits_3(tmp_path, capsys, monkeypatch, command, extra, output, csv):
    # one file cannot hold both: the report would overwrite the CSV
    monkeypatch.chdir(tmp_path)
    spec = write_spec(tmp_path, {**SYM3_SPEC, **RHO_OK})
    argv = [command, "--input", spec, *extra, "--output", output.format(tmp=tmp_path), "--csv", csv]
    assert main(argv) == 3
    assert os.listdir(tmp_path) == ["problem.json"]
    assert capsys.readouterr().err == "bernray: invalid input: --csv: names the same file as --output\n"


@pytest.mark.parametrize("argv, message", [
    pytest.param(["fit", "--output", "io.json"], "--output: names the same file as --input", id="fit-output"),
    pytest.param(["rays", "--csv", "./io.json"], "--csv: names the same file as --input", id="rays-csv"),
    pytest.param(["sample", "--n", "10", "--csv", "sub/../io.json"], "--csv: names the same file as --input",
                 id="sample-csv"),
    pytest.param(["theta", "--density", "d.json", "--output", "d.json"],
                 "--output: names the same file as --density", id="theta-output-density"),
    pytest.param(["theta", "--density", "d.json", "--output", "{tmp}/io.json"],
                 "--output: names the same file as --input", id="theta-output-input"),
])
def test_write_naming_an_input_file_exits_3(tmp_path, capsys, monkeypatch, argv, message):
    # a report or CSV written over the spec or the density would replace it
    monkeypatch.chdir(tmp_path)
    write_spec(tmp_path, {**SYM3_SPEC, **RHO_OK}, "io.json")
    write_spec(tmp_path, {"values": ["1/8"] * 8}, "d.json")
    before = {name: (tmp_path / name).read_bytes() for name in ("d.json", "io.json")}
    argv = [argv[0], "--input", "io.json", *(arg.format(tmp=tmp_path) for arg in argv[1:])]
    assert main(argv) == 3
    assert {name: (tmp_path / name).read_bytes() for name in sorted(os.listdir(tmp_path))} == before
    assert capsys.readouterr().err == f"bernray: invalid input: {message}\n"


SYM6_SPEC = {"m": 6, "p": ["1/2"] * 6, "rho": ["0.1"] * 15}


@pytest.mark.parametrize("argv", [
    ["rays", "--csv", "out.csv"],
    ["fit", "--mode", "rays"],
    ["sample", "--mode", "rays", "--n", "10", "--csv", "out.csv"],
], ids=["rays", "fit", "sample"])
def test_m6_ray_ceiling_refuses_before_moments_and_rendering(tmp_path, capsys, monkeypatch, argv):
    # symmetric m=6 ends with 707,264 rays; the double description stops in
    # row 5 at the ceiling of 4,000,000 >> 6, before any moment map, report
    # or CSV is made
    def unreachable(*args, **kwargs):
        raise AssertionError("called past the ray ceiling")

    # cone.moment_map and report's renderers, under the names cli calls
    for name in ("moment_map", "rays_field", "rays_csv_text"):
        monkeypatch.setattr(bernray.cli, name, unreachable)
    monkeypatch.chdir(tmp_path)
    spec = write_spec(tmp_path, SYM6_SPEC)
    code, rep = run_cli(tmp_path, [argv[0], "--input", spec, *argv[1:]])
    assert code == 4
    assert rep is None
    assert os.listdir(tmp_path) == ["problem.json"]
    assert capsys.readouterr().err == (
        "bernray: ray enumeration for m=6 holds 62,524 rays in row 5, past the ceiling of 62,500\n"
    )


@pytest.mark.parametrize("m", [1, 7])
def test_bounds_closed_form_at_any_m(tmp_path, m):
    # no ray enumeration: m=1 has no pairs and m=7 passes the ray ceiling
    spec = write_spec(tmp_path, {"m": m, "p": ["1/3"] * m})
    code, rep = run_cli(tmp_path, ["bounds", "--input", spec])
    assert code == 0
    assert "ray_count" not in rep
    assert len(rep["pairs"]) == m * (m - 1) // 2
    for row in rep["pairs"]:
        assert (row["moment_lo"]["exact"], row["moment_hi"]["exact"]) == ("0", "1/3")


@pytest.mark.parametrize(
    "spec_n, argv",
    [(None, ["--n", "0"]), (None, ["--n", "-3"]), (0, []), (0, ["--n", "0"])],
)
def test_sample_size_below_one_exits_3(tmp_path, capsys, spec_n, argv):
    options = {} if spec_n is None else {"options": {"n": spec_n}}
    spec = write_spec(tmp_path, {**SYM3_SPEC, **RHO_OK, **options})
    code, rep = run_cli(tmp_path, ["sample", "--input", spec] + argv)
    assert code == 3
    assert rep is None
    assert "must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "spec_n, argv, head",
    [(None, ["--n", "10000001"], "--n:"), (10000001, [], "options.n:"), (5, ["--n", "10000001"], "--n:")],
)
def test_sample_size_above_max_draws_exits_3_before_any_lp(
    tmp_path, capsys, monkeypatch, spec_n, argv, head
):
    def no_lp(*args, **kwargs):
        raise AssertionError("an LP ran before the sample size was checked")

    monkeypatch.setattr("bernray.solvers.solve_lp", no_lp)
    options = {} if spec_n is None else {"options": {"n": spec_n}}
    spec = write_spec(tmp_path, {**SYM3_SPEC, **RHO_OK, **options})
    code, rep = run_cli(tmp_path, ["sample", "--input", spec] + argv)
    assert code == 3
    assert rep is None
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert head in err and "must be at most 10000000" in err


@pytest.mark.parametrize("spec_n, argv", [(None, ["--n", "10000000"]), (10000000, [])])
def test_sample_size_at_max_draws_is_accepted(tmp_path, spec_n, argv):
    # an unattainable target ends in exit 2 before anything is drawn
    options = {} if spec_n is None else {"options": {"n": spec_n}}
    spec = write_spec(tmp_path, {**SYM3_SPEC, **RHO_BAD, **options})
    code, rep = run_cli(tmp_path, ["sample", "--input", spec] + argv)
    assert code == 2
    assert rep["status"] == "infeasible"


@pytest.mark.parametrize("command", ["rays", "bounds", "fit", "nearest", "minimize", "sample"])
@pytest.mark.parametrize("precision", ["0", "-1", "101", "1000000"])
def test_precision_below_one_exits_3(tmp_path, capsys, command, precision):
    spec = write_spec(tmp_path, {**SYM3_SPEC, **RHO_OK})
    code, rep = run_cli(
        tmp_path, [command, "--input", spec, "--n", "10", "--precision", precision]
    )
    assert code == 3
    assert rep is None
    assert "--precision" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, mode",
    [("fit", "rays"), ("nearest", "rays"), ("sample", "rays"), ("sample", "direct"),
     ("nearest", "direct")],
)
def test_single_margin_has_empty_pair_arrays(tmp_path, command, mode):
    spec = write_spec(tmp_path, {"m": 1, "p": ["1/3"], "rho": []})
    code, rep = run_cli(tmp_path, [command, "--input", spec, "--mode", mode, "--n", "20"])
    assert code == 0
    assert rep["status"] == "feasible"
    assert rep["mu2_target"]["exact"] == []
    assert rep["density"]["exact"] == ["2/3", "1/3"]
    if command == "nearest":
        assert rep["rho_star"]["exact"] == rep["mu2_star"]["exact"] == []
    if command == "sample":
        assert rep["sample"]["empirical_order2"]["exact"] == []


@pytest.mark.parametrize("command", ["bounds", "fit", "minimize", "sample", "theta"])
@pytest.mark.parametrize("m", [9, 10**9])
def test_m_above_support_cap_exits_4(tmp_path, capsys, command, m):
    # the cap is checked at parse time, before anything builds the 2^m
    # support: m = 10^9 would not finish otherwise
    k = min(m, 9)
    spec = write_spec(
        tmp_path, {"m": m, "p": ["1/2"] * k, "mu2": ["1/4"] * (k * (k - 1) // 2)}
    )
    code, rep = run_cli(tmp_path, [command, "--input", spec, "--mode", "direct", "--n", "5"])
    assert code == 4
    assert rep is None
    assert "exceeds the cap of 8" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command", ["rays", "bounds", "fit", "nearest", "minimize", "sample", "theta"]
)
@pytest.mark.parametrize("literal", ["1e-999999999", "2.5E+999999999", "1e-4301"])
def test_runaway_decimal_exponent_exits_3(tmp_path, capsys, command, literal):
    # Fraction would build 10^999999999 before any range check could run
    spec = write_spec(
        tmp_path, {"m": 2, "p": [literal, "1/2"], "rho": ["0"], "density": ["1/4"] * 4}
    )
    code, rep = run_cli(tmp_path, [command, "--input", spec, "--n", "5"])
    assert code == 3
    assert rep is None
    assert capsys.readouterr().err.splitlines() == [
        f"bernray: invalid input: p[0]: decimal exponent of {literal!r} exceeds 4300 in magnitude"
    ]


# spec values may have 4,300 digits, and derived exact fields (correlation
# ranges, certificates, projections) run past Python's int-to-str limit
HUGE_DIGITS_SPEC = {"m": 2, "p": ["1e-4000", "1/2"], "rho": ["0.9"]}
# rho = 0.9 is far outside the class's correlation range, about +-1e-2000;
# sample needs n and theta a density, which the bare spec lacks
HUGE_DIGITS_EXITS = {
    "rays": 0, "bounds": 0, "fit": 2, "nearest": 0, "minimize": 2, "sample": 3, "theta": 3,
}


@pytest.mark.parametrize("command", list(HUGE_DIGITS_EXITS))
def test_fields_past_the_digit_limit_render(tmp_path, capsys, command):
    spec = write_spec(tmp_path, HUGE_DIGITS_SPEC)
    code, rep = run_cli(tmp_path, [command, "--input", spec])
    assert code == HUGE_DIGITS_EXITS[command]
    err = capsys.readouterr().err.splitlines()
    if code == 3:
        assert rep is None
        assert len(err) == 1 and err[0].startswith("bernray: invalid input: ")
        return
    assert err == []
    assert [F(v) for v in rep["p"]["exact"]] == [F(1, 10**4000), F(1, 2)]
    if command == "bounds":
        assert max(len(v) for v in rep["pairs"][0]["rho_hi"]["exact"].split("/")) > 4300
    if command == "nearest":
        assert rep["status"] == "projected"
        assert rep["fw"]["gap_exact"] == "0"
        assert len(rep["distance"]["squared_exact"]) > 4300


# a value past the digit limit in a validation message: the message still
# names the field and its range, and spells the value out in full
@pytest.mark.parametrize(
    "command, payload, head, tail",
    [
        pytest.param(
            "bounds", {"m": 2, "p": ["-1234567e-4300", "1/2"]},
            "p: margin p[0] = -1234567/1" + "0" * 4300, " is outside (0, 1)", id="margin",
        ),
        pytest.param(
            "nearest", {"m": 2, "p": ["1e-4000", "1/2"], "mu2": ["9/10"]},
            "mu2: implied correlation for pair (1,2) is ", ", outside [-1, 1]", id="correlation",
        ),
        pytest.param(
            "theta", {"m": 1, "p": ["1/2"], "density": ["1e-4300", "1/2"]},
            "density: density sums to 5" + "0" * 4298 + "1/1" + "0" * 4300, ", not exactly 1",
            id="density-sum",
        ),
    ],
)
def test_validation_messages_past_the_digit_limit(tmp_path, capsys, command, payload, head, tail):
    spec = write_spec(tmp_path, payload)
    code, rep = run_cli(tmp_path, [command, "--input", spec])
    assert code == 3
    assert rep is None
    (line,) = capsys.readouterr().err.splitlines()
    head = "bernray: invalid input: " + head
    assert line.startswith(head) and line.endswith(tail)
    assert re.fullmatch(r"(-?\d{4300,}/\d+)?", line[len(head):len(line) - len(tail)])


def test_csv_rejected_outside_rays_sample(tmp_path):
    spec = write_spec(tmp_path, {**SYM3_SPEC, **RHO_OK})
    code = main(["fit", "--input", spec, "--output", str(tmp_path / "x.json"),
                 "--csv", str(tmp_path / "no.csv")])
    assert code == 3


@pytest.mark.parametrize("command", ["rays", "bounds", "fit", "nearest", "minimize", "sample"])
def test_density_rejected_outside_theta(tmp_path, capsys, command):
    spec = write_spec(tmp_path, {**SYM3_SPEC, **RHO_OK})
    code, rep = run_cli(tmp_path, [command, "--input", spec, "--density", spec, "--n", "5"])
    assert code == 3
    assert rep is None
    assert capsys.readouterr().err.splitlines() == [
        "bernray: invalid input: --density: read by theta only"
    ]


@pytest.mark.parametrize("argv", [["--help"], ["fit", "--help"]])
def test_help_lists_every_command(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: bernray [-h] --input INPUT")
    assert "{rays,bounds,fit,nearest,minimize,sample,theta}" in out
    for name, command in CLI_COMMANDS.items():
        assert f"\n  {name:9}{command.help}\n" in out
    for flag in ["--input", "--output", "--csv", "--mode", "--paper-order", "--seed", "--n",
                 "--precision", "--density"]:
        assert f"  {flag} " in out


def test_unknown_command_exits_3(tmp_path, capsys):
    spec = write_spec(tmp_path, SYM3_SPEC)
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--input", spec])
    assert exc.value.code == 3
    assert "bernray: error: argument command: invalid choice: 'solve'" in capsys.readouterr().err


def test_missing_input_exits_3(tmp_path):
    code = main(["rays", "--input", str(tmp_path / "nope.json"),
                 "--output", str(tmp_path / "x.json")])
    assert code == 3


def test_stdout_when_no_output(tmp_path, capsys):
    spec = write_spec(tmp_path, SYM3_SPEC)
    code = main(["rays", "--input", spec])
    assert code == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["ray_count"] == 6


def test_closed_stdout_pipe_ends_quietly(tmp_path):
    # an m=4 rays report (268 rays) outgrows the pipe buffer, so the write
    # meets the closed pipe
    spec = write_spec(tmp_path, {"m": 4, "p": ["1/3", "1/2", "3/5", "1/4"]})
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(bernray.__file__))}
    proc = subprocess.Popen(
        [sys.executable, "-m", "bernray.cli", "rays", "--input", spec],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.read(1) == b"{"
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 0
    assert stderr == b""


class _ClosedPipe(io.TextIOBase):
    """A stdout whose reader has gone: every write raises BrokenPipeError."""

    def __init__(self, fd):
        self._fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self._fd


def test_closed_stdout_keeps_the_command_exit_code(tmp_path, capsys, monkeypatch):
    spec = write_spec(tmp_path, {**SYM3_SPEC, **RHO_BAD})
    with open(tmp_path / "stdout", "w") as handle:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(handle.fileno()))
        code = main(["fit", "--input", spec])
        # stdout now points at the null device, so the flush at exit succeeds
        assert os.path.samestat(os.fstat(handle.fileno()), os.stat(os.devnull))
    assert code == 2
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "command, flag",
    [("rays", "--csv"), ("sample", "--csv"), ("theta", "--density"), ("fit", "--output"),
     ("bounds", "--input")],
)
def test_empty_flag_value_exits_3(tmp_path, capsys, command, flag):
    spec = write_spec(tmp_path, {**SYM3_SPEC, **RHO_OK, "options": {"n": 5},
                                 "density": ["1/8"] * 8})
    flags = {"--input": spec, flag: ""}
    code = main([command, *(part for item in flags.items() for part in item)])
    assert code == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [f"bernray: invalid input: {flag}: empty path"]
    assert os.listdir(tmp_path) == ["problem.json"]


def test_precision_flag(tmp_path):
    spec = write_spec(tmp_path, {"m": 2, "p": ["1/3", "2/3"]})
    _, rep = run_cli(tmp_path, ["rays", "--input", spec, "--precision", "4"])
    decs = rep["rays"][0]["decimal"]
    for d in decs:
        assert len(str(d).split(".")[-1]) <= 4


# rho = -1 is a valid correlation, but with p = (1/2, 1/10) it implies the
# pair moment -1/10, outside [0, 1].
OUT_OF_RANGE_SPEC = {"m": 2, "p": ["1/2", "1/10"], "rho": ["-1"]}


def _stated_rows(rep):
    """The LP rows and right-hand side that the certificate's rows note
    names for the m = 2 spec above, with b holding the reported
    (out-of-range) target moment."""
    p = [F(v) for v in rep["p"]["exact"]]
    mu2 = [F(v) for v in rep["mu2_target"]["exact"]]
    if rep["certificate"]["rows"].startswith("pair-moment rows"):
        rays = margin_rays(FrechetClass(p))
        rows = [list(r) for r in moment_map(rays, 2).entries] + [[F(1)] * rays.n_rays]
        return rows, mu2 + [F(1)]
    n = 1 << len(p)
    rows = [[F((k >> i) & 1) for k in range(n)] for i in range(len(p))]
    rows.append([F(int(k & 3 == 3)) for k in range(n)])
    rows.append([F(1)] * n)
    return rows, p + mu2 + [F(1)]


@pytest.mark.parametrize("command", ["fit", "minimize", "sample"])
def test_out_of_range_implied_moment_exits_2_with_certificate(tmp_path, command):
    spec = write_spec(tmp_path, OUT_OF_RANGE_SPEC)
    code, rep = run_cli(tmp_path, [command, "--input", spec, "--n", "10"])
    assert code == 2
    assert rep["status"] == "infeasible"
    assert rep["mu2_target"]["exact"] == ["-1/10"]
    rows, b = _stated_rows(rep)
    y = [F(v) for v in rep["certificate"]["y"]]
    assert verify_farkas(rows, b, y)


@pytest.mark.parametrize("mode", ["rays", "direct"])
def test_out_of_range_implied_moment_nearest_projects(tmp_path, mode):
    spec = write_spec(tmp_path, OUT_OF_RANGE_SPEC)
    code, rep = run_cli(tmp_path, ["nearest", "--input", spec, "--mode", mode])
    assert code == 0
    assert rep["status"] == "projected"
    # the attainable correlation closest to -1 is the lower Frechet bound
    assert rep["mu2_star"]["exact"] == ["0"]
    assert rep["rho_star"]["exact"] == ["-1/3"]
    assert rep["fw"]["converged"] is True


@pytest.mark.parametrize(
    "command, mode, expect",
    [("nearest", "rays", 3), ("nearest", "direct", 3),
     ("fit", "rays", 2), ("fit", "direct", 2), ("minimize", "direct", 2),
     ("sample", "rays", 2), ("sample", "direct", 2)],
)
def test_mu2_with_out_of_range_implied_correlation(tmp_path, capsys, command, mode, expect):
    # mu2 = 9/10 lies in [0, 1], but with p = (1/2, 1/10) it implies the
    # correlation 17/3; nearest works in correlation coordinates
    spec = write_spec(tmp_path, {"m": 2, "p": ["1/2", "1/10"], "mu2": ["9/10"]})
    code, rep = run_cli(tmp_path, [command, "--input", spec, "--mode", mode, "--n", "10"])
    assert code == expect
    if expect == 3:
        assert rep is None
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "mu2:" in err and "pair (1,2)" in err
    else:
        assert rep["status"] == "infeasible"
        assert verify_farkas(*_stated_rows(rep), [F(v) for v in rep["certificate"]["y"]])


def test_user_mu2_outside_unit_interval_exits_3(tmp_path, capsys):
    spec = write_spec(tmp_path, {"m": 2, "p": ["1/2", "1/10"], "mu2": ["-1/10"]})
    code = main(["fit", "--input", spec, "--output", str(tmp_path / "x.json")])
    assert code == 3
    assert "outside [0, 1]" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["rays", "--output", "{missing}/r.json"], id="rays-output"),
        pytest.param(["fit", "--output", "{missing}/r.json"], id="fit-output"),
        pytest.param(["sample", "--output", "{missing}/r.json"], id="sample-output"),
        pytest.param(["rays", "--output", "{tmp}/r.json", "--csv", "{missing}/r.csv"], id="rays-csv"),
        pytest.param(["sample", "--output", "{tmp}/r.json", "--csv", "{missing}/r.csv"], id="sample-csv"),
        pytest.param(["bounds", "--input", "{deep}", "--output", "{tmp}/r.json"], id="deep-input"),
        pytest.param(["theta", "--density", "{deep}", "--output", "{tmp}/r.json"], id="deep-density"),
    ],
)
def test_file_errors_exit_3_with_one_line(tmp_path, capsys, argv):
    spec = write_spec(tmp_path, {**SYM3_SPEC, **RHO_OK})
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    paths = {"missing": str(tmp_path / "no" / "such"), "tmp": str(tmp_path), "deep": str(deep)}
    argv = [a.format(**paths) for a in argv]
    if "--input" not in argv:
        argv += ["--input", spec]
    code = main(argv + ["--n", "10"])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("bernray: invalid input: ")
    assert err.count("\n") == 1
    assert not (tmp_path / "r.json").exists()


# ---------------------------------------------------------------------------
# fuzz: every input ends in exit 0, 2, 3 or 4, never in a traceback

COMMANDS = ["rays", "bounds", "fit", "nearest", "minimize", "sample", "theta"]
# flags that only some commands take; the rest go to every command
FLAG_COMMANDS = {"--csv": ("rays", "sample"), "--density": ("theta",)}


def _rationals(lo, hi):
    return st.fractions(F(lo), F(hi), max_denominator=12).map(str)


_junk = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.integers(-10, 10),
        st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=5),
    ),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def _well_formed(draw):
    m = draw(st.integers(1, 3))
    npairs = m * (m - 1) // 2
    spec = {"m": m, "p": draw(st.lists(_rationals(F(1, 12), F(11, 12)), min_size=m, max_size=m))}
    if draw(st.booleans()):
        spec["rho"] = draw(st.lists(_rationals(-1, 1), min_size=npairs, max_size=npairs))
    else:
        spec["mu2"] = draw(st.lists(_rationals(0, 1), min_size=npairs, max_size=npairs))
    spec["options"] = draw(st.fixed_dictionaries({}, optional={
        "mode": st.sampled_from(["rays", "direct"]),
        "objective": st.sampled_from(["none", "min-higher-moments"]),
        "seed": st.integers(0, 2**64 - 1),
        "n": st.integers(1, 30),
    }))
    if draw(st.booleans()):
        weights = draw(st.lists(st.integers(0, 3), min_size=1 << m, max_size=1 << m))
        total = sum(weights) or 1
        spec["density"] = [str(F(w, total)) for w in weights]
    return spec


@st.composite
def _specs(draw):
    """A well-formed m <= 3 spec, the same with one field replaced by junk
    (wrong type, bad rationals, wrong length, unknown field), or junk."""
    kind = draw(st.sampled_from(["well-formed", "one-bad-field", "junk"]))
    if kind == "junk":
        return draw(_junk | st.just(HUGE_DIGITS_SPEC))
    spec = draw(_well_formed())
    if kind == "one-bad-field":
        key = draw(st.sampled_from(["m", "p", "rho", "mu2", "options", "density", "unknown"]))
        spec[key] = draw(st.one_of(
            _junk,
            st.lists(st.text(max_size=5), max_size=4),
            st.lists(_rationals(-2, 2), max_size=9),
            st.dictionaries(st.sampled_from(["mode", "objective", "seed", "n", "x"]), _junk, max_size=3),
        ))
    return spec


@settings(max_examples=30, deadline=None)
@given(
    spec=_specs(),
    flags=st.fixed_dictionaries({}, optional={
        "--mode": st.sampled_from(["rays", "direct"]),
        "--n": st.just("7"),
        "--seed": st.just("5"),
        "--precision": st.sampled_from(["3", "100"]),
        "--csv": st.just("{tmp}/out.csv"),
        "--density": st.sampled_from(["{tmp}/spec.json", "{tmp}/missing.json"]),
        "--paper-order": st.none(),
    }),
    # an out-of-range flag value in five examples out of eight
    bad_flag=st.sampled_from([
        None, None, None, ["--n", "0"], ["--n", "10000001"], ["--seed", "-1"], ["--precision", "0"],
        ["--precision", "101"],
    ]),
)
def test_cli_fuzz_exits_with_a_known_code(spec, flags, bad_flag):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "spec.json")
        with open(path, "w") as handle:
            json.dump(spec, handle)
        for command in COMMANDS:
            argv = [command, "--input", path, "--output", os.path.join(tmp, "r.json")]
            for flag, value in flags.items():
                if command in FLAG_COMMANDS.get(flag, COMMANDS):
                    argv += [flag] if value is None else [flag, value.format(tmp=tmp)]
            assert main(argv + (bad_flag or [])) in (0, 2, 3, 4), argv
