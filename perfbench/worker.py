"""Run one pass of benchmark commands in this (fresh) interpreter.

Usage: python3 worker.py ROOT PASS_FILE RESULT_FILE [--trace]

PASS_FILE holds {"commands": [{"id": ..., "argv": [...]}, ...]}. Each argv is
passed to `bernray.cli.main`, imported from ROOT/src, one command at a time.
The result file gets, per command, the exit code, the time inside
`cli.main`, the median host-speed probe around and inside that time and the
bytes written; then the process's peak RSS and, with --trace, the spans.
"""
from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import sys
import time
import traceback

import probe


def _bytes_out(argv: list[str]) -> int:
    total = 0
    for flag in ("--output", "--csv"):
        if flag in argv:
            path = argv[argv.index(flag) + 1]
            if os.path.exists(path):
                total += os.path.getsize(path)
    return total


def main(argv: list[str]) -> int:
    root, pass_file, result_file = argv[:3]
    trace = "--trace" in argv[3:]
    sys.path.insert(0, os.path.join(root, "src"))
    from bernray import cli

    tracer = None
    if trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    with open(pass_file) as handle:
        commands = json.load(handle)["commands"]

    sampler = probe.Sampler()
    results = []
    windows = []
    for cmd in commands:
        gc.collect()
        sampler.block()
        span = tracer.root(spans.ROOT, cmd["id"]) if tracer else contextlib.nullcontext()
        code = error = None
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            sampler.start()
            start = time.perf_counter()
            try:
                with span:
                    code = cli.main(cmd["argv"])
            except SystemExit as exc:
                code = exc.code
            except Exception:  # a traceback fails this command, not the pass
                error = traceback.format_exc(limit=4)
            end = time.perf_counter()
            sampler.stop()
        windows.append((start, end))
        results.append({
            "id": cmd["id"],
            "code": code,
            "seconds": end - start,
            "error": error,
            "stderr": stderr.getvalue()[-400:],
            "bytes_out": _bytes_out(cmd["argv"]),
        })
    sampler.block()
    for res, (start, end) in zip(results, windows):
        res["probe_s"] = sampler.around(start, end)

    payload = {
        "commands": results,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "spans": tracer.spans if tracer else [],
        "absent": tracer.absent if tracer else [],
    }
    with open(result_file, "w") as handle:
        json.dump(payload, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
