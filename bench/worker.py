"""One pass over a workload's operation list, in a fresh process.

run.py starts this file once per round, so nothing the program caches
survives from one pass to the next, as for a user of the command line.
The worker imports `hypb.cli` from the checkout's `src/`, builds the
operation list from the seed, then calls `hypb.cli.main(argv)` for each
operation with stdout and stderr captured in memory.  It writes the exit
codes, captured output, timings and its peak resident set to --result;
run.py checks the outputs after the worker has exited, so the checks
cost the worker neither time nor memory.

    python3 bench/worker.py --workload W --seed N --outdir DIR --result FILE \
        --spawn-time T [--trace 0|1] [--setup-only] [--scale full|small]

--spawn-time is the parent's `time.monotonic()` just before it started
this process (CLOCK_MONOTONIC is system-wide on Linux), so set-up time
covers interpreter start, `import hypb.cli` and building the inputs.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _parse(argv):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--outdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spawn-time", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--scale", choices=("full", "small"), default="full")
    return ap.parse_args(argv)


def _run_op(cli, argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # the operation failed; record it and go on with the pass
        rc = None
        error = traceback.format_exc(limit=4)
    seconds = time.perf_counter() - t0
    return {"argv": argv, "rc": rc, "seconds": seconds, "stdout": out.getvalue(),
            "stderr": err.getvalue()[-2000:], "error": error}


def main(argv=None) -> int:
    args = _parse(argv)
    sys.path.insert(0, str(SRC))
    import hypb.cli as cli  # what every `hypb` command pays

    t_import = time.monotonic()
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"hypb imported from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from workloads import build

    ops = build(args.workload, args.seed, args.outdir, args.scale)
    t_inputs = time.monotonic()
    result = {
        "setup": {"import_s": t_import - args.spawn_time, "inputs_s": t_inputs - t_import},
        "check_ids": sorted(sys.modules["hypb.verify"].CHECKS),
    }
    if not args.setup_only:
        tracer = None
        if args.trace:
            import tracer as tracing

            tracer = tracing.Tracer()
            tracing.install(tracer)
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        t_first = time.monotonic()
        records = [_run_op(cli, op.argv) for op in ops]
        t_end = time.monotonic()
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
        result["cpu"] = {"user_s": ru1.ru_utime - ru0.ru_utime, "sys_s": ru1.ru_stime - ru0.ru_stime,
                         "minor_faults": ru1.ru_minflt - ru0.ru_minflt,
                         "involuntary_switches": ru1.ru_nivcsw - ru0.ru_nivcsw}
        result["setup"]["total_s"] = t_first - args.spawn_time
        result["round_s"] = t_end - t_first
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["records"] = records
        if tracer is not None:
            trace_path = os.path.join(args.outdir, "trace.json")
            tracer.write(trace_path)
            result["trace_file"] = trace_path
            result["layers"] = tracing.metrics(tracer.spans, result["check_ids"])
    else:
        result["setup"]["total_s"] = time.monotonic() - args.spawn_time
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
