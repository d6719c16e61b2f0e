"""bernray benchmark: one workload, one seed, one client, closed loop.

Usage (from the repository root):

    python3 perfbench/run.py --workload enumerate --seed 1 --seconds 20 --trace 0

Workloads: enumerate, solve, project, sample (see perfbench/README.md).

The seed fixes one pass: a list of `bernray` commands over generated problem
files. Each pass runs in a fresh interpreter (perfbench/worker.py) that calls
`bernray.cli.main` from ./src one command at a time, so no in-process cache
outlives what a CLI user would see. Passes repeat, on the same inputs, while
another one still fits in --seconds; there is always at least one. Every
report is checked exactly by perfbench/verify.py after its pass, outside the
timed region.

--trace 0 reports the end-to-end metrics:
  setup_s      median time of a fresh interpreter that imports bernray.cli
               and builds the parser
  wall_s       time inside cli.main over the command list: the sum over
               commands of each command's median over the passes
  cmd_p50_s    median over commands of those per-command medians
  peak_rss_mb  the largest peak RSS of a worker over the passes
--trace 1 adds three tiny m=2 commands that enter every traced layer, runs
untraced passes for half of --seconds, then the same passes traced, and
reports per-layer self times and counters from the spans, plus the tracing
overhead (traced minus untraced wall_s).

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. Exit code 2, and no result, when ./src/bernray is missing.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
sys.path.insert(0, HERE)

import probe  # noqa: E402
import spans  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 21
# the child stamps the shared monotonic clock once the parser is built; the
# stamp minus the parent's start is the set-up time, free of exit and wait
SETUP_CODE = "import time, bernray.cli; bernray.cli.build_parser(); print(time.perf_counter())"
# every run, traced or not, must end well inside 180 s
RUN_DEADLINE_S = 150


def setup_times(samples: int) -> list[float]:
    """Set-up times of fresh interpreters that import the CLI and build its
    parser; one unmeasured start first writes the bytecode caches."""
    env = dict(os.environ, PYTHONPATH=SRC)
    argv = [sys.executable, "-c", SETUP_CODE]
    subprocess.run(argv, env=env, cwd=ROOT, check=True, timeout=60, capture_output=True)
    out = []
    for _ in range(samples):
        start = time.perf_counter()
        proc = subprocess.run(argv, env=env, cwd=ROOT, check=True, timeout=60, capture_output=True, text=True)
        out.append(float(proc.stdout) - start)
    return out


def command_argv(cmd: dict, spec_path: str, out_dir: str) -> list[str]:
    argv = [cmd["command"], "--input", spec_path, "--output", os.path.join(out_dir, f"{cmd['id']}.report.json")]
    argv += cmd["args"]
    if cmd["csv"]:
        argv += ["--csv", os.path.join(out_dir, f"{cmd['id']}.csv")]
    return argv


class Pass:
    """One worker process over the whole command list, then its checks."""

    def __init__(self, cmds, spec_paths, work_dir, index, trace, timeout):
        self.cmds = cmds
        self.out_dir = os.path.join(work_dir, f"pass{index}{'t' if trace else ''}")
        os.makedirs(self.out_dir)
        pass_file = os.path.join(self.out_dir, "pass.json")
        result_file = os.path.join(self.out_dir, "result.json")
        with open(pass_file, "w") as handle:
            json.dump({"commands": [
                {"id": c["id"], "argv": command_argv(c, spec_paths[c["id"]], self.out_dir)} for c in cmds
            ]}, handle)
        argv = [sys.executable, os.path.join(HERE, "worker.py"), ROOT, pass_file, result_file]
        if trace:
            argv.append("--trace")
        start = time.perf_counter()
        try:
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=max(timeout, 1))
            self.crash = proc.stderr[-2000:] if proc.returncode else None
        except subprocess.TimeoutExpired:
            self.crash = f"worker timed out after {timeout:.0f} s"
        self.elapsed = time.perf_counter() - start
        self.result = None
        if self.crash is None:
            with open(result_file) as handle:
                self.result = json.load(handle)
        self.failures = self._check()
        shutil.rmtree(self.out_dir)

    def _check(self) -> list[str]:
        if self.result is None:
            return [f"{c['id']}: worker failed: {self.crash}" for c in self.cmds]
        failures = []
        for cmd, res in zip(self.cmds, self.result["commands"]):
            if res["error"]:
                failures.append(f"{cmd['id']} {cmd['command']}: raised\n{res['error']}")
                continue
            try:
                verify.check(
                    cmd,
                    res["code"],
                    os.path.join(self.out_dir, f"{cmd['id']}.report.json"),
                    os.path.join(self.out_dir, f"{cmd['id']}.csv"),
                )
            except Exception as exc:  # any malformed report fails its command, not the run
                failures.append(f"{cmd['id']} {cmd['command']}: {type(exc).__name__}: {exc} {res['stderr']}")
        return failures

    @property
    def times(self) -> list[float]:
        """Per-command times on the reference speed scale."""
        return [probe.scaled(r["seconds"], r["probe_s"]) for r in self.result["commands"]] if self.result else []

    @property
    def raw_times(self) -> list[float]:
        return [r["seconds"] for r in self.result["commands"]] if self.result else []


def run_passes(cmds, spec_paths, work_dir, budget, deadline, trace=False, count=None) -> list[Pass]:
    """Untraced: passes while another fits in the budget. Traced: `count`."""
    passes: list[Pass] = []
    measured = 0.0
    while True:
        timeout = deadline - time.monotonic()
        passes.append(Pass(cmds, spec_paths, work_dir, len(passes), trace, timeout))
        measured += passes[-1].elapsed
        longest = max(p.elapsed for p in passes)
        if passes[-1].result is None or time.monotonic() + longest > deadline:
            return passes
        if count is not None:
            if len(passes) == count:
                return passes
        elif measured + longest > budget:
            return passes


def metric(value, unit):
    return {"value": value, "unit": unit}


def command_medians(passes: list[Pass], raw: bool = False) -> list[float]:
    """Each command's median time over the passes that completed."""
    return [statistics.median(ts) for ts in zip(*(p.raw_times if raw else p.times for p in passes if p.result))]


def end_to_end(passes, setup) -> dict:
    per_command = command_medians(passes)
    return {
        "setup_s": metric(statistics.median(setup), "s"),
        "wall_s": metric(sum(per_command), "s"),
        "cmd_p50_s": metric(statistics.median(per_command), "s"),
        "peak_rss_mb": metric(max(p.result["peak_rss_mb"] for p in passes if p.result), "MB"),
    }


def per_layer(plain, traced) -> tuple[dict, dict]:
    per_pass = []
    for p in traced:
        if p.result:
            scale = {r["id"]: probe.scaled(1.0, r["probe_s"]) for r in p.result["commands"]}
            values = spans.layer_metrics(p.result["spans"], scale)
            values["report.bytes_out"] = sum(r["bytes_out"] for r in p.result["commands"])
            values["cli.commands"] = len(p.result["commands"])
            per_pass.append(values)
    values = spans.median_metrics(per_pass)
    values["trace.overhead_s"] = sum(command_medians(traced)) - sum(command_medians(plain))
    units = {name: "s" for name in spans.TIME_METRICS}
    units.update({name: "count" for name in spans.COUNT_METRICS})
    units.update({"report.bytes_out": "bytes", "cli.commands": "count", "trace.overhead_s": "s"})
    first = next(p for p in traced if p.result)
    trace_file = {"absent": first.result["absent"], "spans": first.result["spans"], "metrics": values}
    return {name: metric(values[name], units[name]) for name in units}, trace_file


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "bernray", "cli.py")):
        print(f"perfbench: no bernray sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_DEADLINE_S
    work_dir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        cmds = workloads.build(args.workload, args.seed) + (workloads.canaries() if args.trace else [])
        spec_paths = workloads.write_inputs(cmds, os.path.join(work_dir, "inputs"))
        setup = setup_times(SETUP_SAMPLES)
        budget = args.seconds / 2 if args.trace else args.seconds
        plain = run_passes(cmds, spec_paths, work_dir, budget, deadline)
        traced = []
        if args.trace:
            traced = run_passes(cmds, spec_paths, work_dir, budget, deadline, trace=True, count=len(plain))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    passes = plain + traced
    failures = [f for p in passes for f in p.failures]
    attempted = len(cmds) * len(passes)
    for line in failures[:20]:
        print(f"FAIL {line}")
    ok = [p for p in passes if p.result]
    if not ok or (args.trace and not any(p.result for p in traced)):
        print(json.dumps({"correct": False, "attempted": attempted, "failed": attempted, "metrics": {}}))
        return 0

    codes = [c["expect"] for c in cmds]
    print(f"workload {args.workload}  seed {args.seed}  {len(cmds)} commands per pass "
          f"({codes.count(2)} expect exit 2)  passes {len(plain)} untraced, {len(traced)} traced")
    e2e = end_to_end(plain, setup)
    raw = command_medians(plain, raw=True)
    totals = ", ".join(f"{sum(p.times):.3f}" for p in plain if p.result)
    print(f"  setup_s      {e2e['setup_s']['value']:.4f} s   median of {len(setup)} fresh interpreters")
    print(f"  wall_s       {e2e['wall_s']['value']:.4f} s   sum of per-command medians over {len(plain)} passes "
          f"(raw {sum(raw):.4f} s; pass totals {totals})")
    print(f"  cmd_p50_s    {e2e['cmd_p50_s']['value']:.4f} s   median of the {len(cmds)} per-command medians "
          f"(raw {statistics.median(raw):.4f} s)")
    print(f"  peak_rss_mb  {e2e['peak_rss_mb']['value']:.1f} MB")
    print(f"  fail_ratio   {len(failures) / attempted:.4f}   ({len(failures)} of {attempted} commands)")
    metrics = e2e
    if args.trace:
        metrics, trace_file = per_layer(plain, traced)
        for name, m in metrics.items():
            print(f"  {name:24s} {m['value']:.6g} {m['unit']}")
        totals = spans.layer_totals({k: v["value"] for k, v in metrics.items()})
        ranked = sorted(totals.items(), key=lambda kv: -kv[1])
        print("  layer self time: " + ", ".join(f"{k} {v:.3f} s" for k, v in ranked))
        print(f"  dominant layer: {ranked[0][0]}")
        if trace_file["absent"]:
            print(f"  absent spans: {', '.join(trace_file['absent'])}")
        with open(os.path.join(WORK, f"trace-{args.workload}-{args.seed}.json"), "w") as handle:
            json.dump(trace_file, handle)
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
