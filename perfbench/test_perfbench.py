"""Tests of the benchmark's own parts: generator, verifier and span arithmetic.

Run from the repository root: python3 -m pytest perfbench -q
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import probe  # noqa: E402
import spans  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402
from bernray import cli  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_problem_files(workload, tmp_path):
    first, second = workloads.build(workload, 7), workloads.build(workload, 7)
    assert first == second
    a = workloads.write_inputs(first, str(tmp_path / "a"))
    b = workloads.write_inputs(second, str(tmp_path / "b"))
    for cid in a:
        with open(a[cid], "rb") as fa, open(b[cid], "rb") as fb:
            assert fa.read() == fb.read()
    other = workloads.build(workload, 8)
    assert [workloads.spec_text(c) for c in other] != [workloads.spec_text(c) for c in first]


def test_generated_infeasible_targets_are_pairwise_attainable():
    for cmd in workloads.build("solve", 3):
        if cmd["expect"] != 2:
            continue
        p = [Fraction(v) for v in cmd["spec"]["p"]]
        for (i, j), v in zip(workloads.pairs(len(p)), cmd["spec"]["mu2"]):
            lo, hi = workloads.pair_range(p, i, j)
            assert lo <= Fraction(v) <= hi


def _run(tmp_path, command, spec, *args, expect=0, csv=False):
    """Run one command through the CLI; returns (cmd, code, report path, csv path)."""
    cmd = {"id": "t", "command": command, "spec": spec, "args": list(args), "expect": expect, "csv": csv}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(workloads.spec_text(cmd))
    report = str(tmp_path / "report.json")
    csv_path = str(tmp_path / "draws.csv")
    argv = [command, "--input", str(spec_path), "--output", report, *args]
    if csv:
        argv += ["--csv", csv_path]
    with contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    verify.check(cmd, code, report, csv_path)
    return cmd, code, report, csv_path


def _rewrite(path, change):
    with open(path) as handle:
        report = json.load(handle)
    change(report)
    with open(path, "w") as handle:
        json.dump(report, handle)


HALF3 = {"m": 3, "p": ["1/2", "1/2", "1/2"], "mu2": ["0", "0", "0"]}


@pytest.mark.parametrize("mode", ["direct", "rays"])
def test_verifier_rejects_a_flipped_certificate_sign(tmp_path, mode):
    cmd, code, report, _ = _run(tmp_path, "fit", HALF3, "--mode", mode, expect=2)

    def flip(rep):
        y = rep["certificate"]["y"]
        k = next(i for i, v in enumerate(y) if v != "0")
        y[k] = str(-Fraction(y[k]))

    _rewrite(report, flip)
    with pytest.raises(verify.Mismatch, match="certificate"):
        verify.check(cmd, code, report)


def test_verifier_rejects_a_density_entry_moved_by_2_to_the_minus_40(tmp_path):
    spec = {"m": 3, "p": ["1/2", "1/3", "1/4"], "mu2": ["1/6", "1/8", "1/12"]}
    cmd, code, report, _ = _run(tmp_path, "minimize", spec)

    def nudge(rep):
        rep["density"]["exact"][0] = str(Fraction(rep["density"]["exact"][0]) + Fraction(1, 2**40))

    _rewrite(report, nudge)
    with pytest.raises(verify.Mismatch, match="density"):
        verify.check(cmd, code, report)


def test_verifier_rejects_a_swapped_draw(tmp_path):
    spec = {"m": 2, "p": ["1/2", "1/3"], "mu2": ["1/6"]}
    cmd, code, report, csv_path = _run(tmp_path, "sample", spec, "--n", "500", "--seed", "11", csv=True)
    with open(csv_path, newline="") as handle:
        lines = handle.read().split("\r\n")
    k = next(i for i in range(2, len(lines)) if lines[i] and lines[i] != lines[1])
    lines[1], lines[k] = lines[k], lines[1]
    with open(csv_path, "w", newline="") as handle:
        handle.write("\r\n".join(lines))
    with pytest.raises(verify.Mismatch, match="CSV draw 0"):
        verify.check(cmd, code, report, csv_path)


def test_verifier_rejects_a_repeated_ray_and_a_wrong_exit_code(tmp_path):
    cmd, code, report, _ = _run(tmp_path, "rays", {"m": 3, "p": ["1/2", "1/3", "1/4"]})
    with pytest.raises(verify.Mismatch, match="exit code"):
        verify.check(cmd, 2, report)

    def repeat(rep):
        rep["rays"][1] = rep["rays"][0]

    _rewrite(report, repeat)
    with pytest.raises(verify.Mismatch, match="repeats"):
        verify.check(cmd, code, report)


def test_self_times_subtract_direct_children_only():
    tree = [
        ["cli.main", 0.0, 10.0, None, "c0", None],
        ["cone.margin_rays", 1.0, 5.0, 0, "c0", None],
        ["cone.extreme_rays", 1.5, 4.5, 1, "c0", {"cone.rays_out": 7}],
        ["report.vector_field", 6.0, 7.0, 0, "c0", None],
        ["simplex.solve_lp", 7.0, 9.0, 0, "c0", {"simplex.lp_calls": 1, "simplex.pivots": 5, "simplex.lp_cells": 12}],
        ["cli.main", 10.0, 10.5, None, "c1", None],
    ]
    assert spans.self_times(tree) == [3.0, 1.0, 3.0, 1.0, 2.0, 0.5]
    metrics = spans.layer_metrics(tree)
    assert metrics["cli.self_s"] == 3.5
    assert metrics["cone.rays_s"] == 4.0
    assert metrics["report.render_s"] == 1.0
    assert metrics["simplex.lp_s"] == 2.0
    assert (metrics["cone.rays_out"], metrics["simplex.pivots"], metrics["simplex.lp_cells"]) == (7, 5, 12)
    assert metrics["sampling.sample_s"] == 0.0
    assert spans.layer_totals(metrics)["cone"] == 4.0


def test_probe_scale_uses_the_probes_around_and_inside_a_command():
    sampler = probe.Sampler()
    sampler.samples = [(0.0, 9.0), (0.995, 1.0), (1.5, 3.0), (2.005, 2.0), (3.0, 9.0)]
    assert sampler.around(1.0, 2.0) == 2.0
    assert probe.scaled(2.0, 2 * probe.REF_PROBE_S) == 1.0


def test_tracer_wraps_every_lookup_site_and_reports_absent_targets(tmp_path):
    import bernray.cone

    original = bernray.cone.margin_rays
    tracer = spans.Tracer()
    tracer.install(spans.TARGETS + (("cone", "no_such_function", "cone.rays_s"),))
    try:
        assert cli.margin_rays is bernray.cone.margin_rays is not original
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"m": 3, "p": ["1/2", "1/3", "1/4"], "mu2": ["1/6", "1/8", "1/12"]}))
        with tracer.root(spans.ROOT, "c0"):
            assert cli.main(["fit", "--input", str(spec), "--output", str(tmp_path / "out.json")]) == 0
    finally:
        tracer.uninstall()
    assert cli.margin_rays is original
    assert tracer.absent == ["cone.no_such_function"]
    names = [s[0] for s in tracer.spans]
    assert names[0] == spans.ROOT and "cone.margin_rays" in names and "simplex.solve_lp" in names
    assert all(s[2] is not None and s[4] == "c0" for s in tracer.spans)
    metrics = spans.layer_metrics(tracer.spans)
    assert metrics["simplex.lp_calls"] == 1 and metrics["cone.rays_out"] > 0
