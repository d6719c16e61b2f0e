import json
from fractions import Fraction

import pytest

from bernray import FrechetClass, margin_rays, moment_map, verify_farkas
from bernray.cli import main

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


def test_dimension_cap_exits_4(tmp_path):
    spec = write_spec(tmp_path, {"m": 7, "p": ["1/2"] * 7})
    code = main(["rays", "--input", spec, "--output", str(tmp_path / "x.json")])
    assert code == 4


def test_csv_rejected_outside_rays_sample(tmp_path):
    spec = write_spec(tmp_path, {**SYM3_SPEC, **RHO_OK})
    code = main(["fit", "--input", spec, "--output", str(tmp_path / "x.json"),
                 "--csv", str(tmp_path / "no.csv")])
    assert code == 3


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


def test_user_mu2_outside_unit_interval_exits_3(tmp_path, capsys):
    spec = write_spec(tmp_path, {"m": 2, "p": ["1/2", "1/10"], "mu2": ["-1/10"]})
    code = main(["fit", "--input", spec, "--output", str(tmp_path / "x.json")])
    assert code == 3
    assert "outside [0, 1]" in capsys.readouterr().err
