"""Benchmark of the `hypb` command line: battery, transform and whittaker.

    python3 bench/run.py --workload battery|transform|whittaker \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each round starts bench/worker.py as a
fresh process that makes one pass over the workload's operation list
through `hypb.cli.main`; rounds repeat until --seconds have passed (at
least one).  After each round this process checks every output against
references computed here (checks.py) and runs the negative controls.
Extra set-up-only processes bring the set-up samples to at least
MIN_SETUPS.

--trace 0 reports the end-to-end metrics: `setup_s`, `round_s` and
`peak_rss_mb`, each the median over the run.  --trace 1 alternates
untraced and traced rounds and reports the per-layer metrics of the
traced rounds (medians), the set-up split and the tracing overhead.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  The result and the traces are also
written under bench/out/.  Exit status 0 when the run completed, 2 when
there is no program to measure.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
from workloads import WORKLOADS, build

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
MIN_SETUPS = 5
DEADLINE_S = 170.0  # every run ends within 180 s


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "small"), default="full",
                    help="small: the reduced operation lists of the benchmark's tests")
    return ap.parse_args(argv)


class Run:
    def __init__(self, args):
        self.args = args
        self.start = time.monotonic()
        self.setups = []
        self.rounds = []  # (traced, worker result)
        self.attempted = 0
        self.failed = 0
        self.correct = True  # every check rejected its corrupted outputs
        self.controls = {}  # control name -> [rejected, applied]
        self.problems = []

    def remaining(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.start)

    def worker(self, outdir, traced=False, setup_only=False) -> dict:
        result_path = os.path.join(outdir, "result.json")
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.args.workload,
               "--seed", str(self.args.seed), "--outdir", outdir, "--result", result_path,
               "--trace", str(int(traced)), "--scale", self.args.scale]
        if setup_only:
            cmd.append("--setup-only")
        t_spawn = time.monotonic()
        proc = subprocess.run(cmd + ["--spawn-time", repr(t_spawn)], capture_output=True,
                              text=True, timeout=max(self.remaining(), 1.0))
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr[-4000:])
            raise RuntimeError(f"worker exited with status {proc.returncode}")
        with open(result_path) as fh:
            res = json.load(fh)
        self.setups.append(res["setup"])
        return res

    def round(self, traced: bool) -> None:
        outdir = tempfile.mkdtemp(prefix="round-", dir=OUT)
        try:
            res = self.worker(outdir, traced=traced)
            ops = build(self.args.workload, self.args.seed, outdir, self.args.scale)
            cache_all = {"check_ids": res["check_ids"]}
            for op, rec in zip(ops, res["records"], strict=True):
                cache = dict(cache_all)
                out = checks.parse(op, rec)
                errs = checks.CHECKS[op.kind](op, out, cache)
                self.attempted += 1
                if errs:
                    self.failed += 1
                    self.problems.append((op.argv, errs))
                for name, rejected in checks.run_controls(op, out, cache):
                    tally = self.controls.setdefault(f"{op.kind}/{name}", [0, 0])
                    tally[0] += rejected
                    tally[1] += 1
                    if not rejected:
                        self.correct = False
            if traced:
                keep = OUT / f"trace-{self.args.workload}-seed{self.args.seed}.json"
                shutil.move(res["trace_file"], keep)
            self.rounds.append((traced, res))
        finally:
            shutil.rmtree(outdir, ignore_errors=True)

    def setup_probe(self) -> None:
        outdir = tempfile.mkdtemp(prefix="setup-", dir=OUT)
        try:
            self.worker(outdir, setup_only=True)
        finally:
            shutil.rmtree(outdir, ignore_errors=True)


def _median(values):
    return statistics.median(values) if values else 0.0


def _metrics(run: Run, trace: int) -> dict:
    untraced = [r for t, r in run.rounds if not t]
    traced = [r for t, r in run.rounds if t]
    if not trace:
        return {
            "setup_s": {"value": _median([s["total_s"] for s in run.setups]), "unit": "s"},
            "round_s": {"value": _median([r["round_s"] for r in untraced]), "unit": "s"},
            "peak_rss_mb": {"value": _median([r["peak_rss_mb"] for r in untraced]),
                            "unit": "MB"},
        }
    out = {}
    for name, (_, unit) in traced[0]["layers"].items():
        out[name] = {"value": _median([r["layers"][name][0] for r in traced]), "unit": unit}
    out["setup.import_s"] = {"value": _median([s["import_s"] for s in run.setups]), "unit": "s"}
    out["setup.inputs_s"] = {"value": _median([s["inputs_s"] for s in run.setups]), "unit": "s"}
    t_round = _median([r["round_s"] for r in traced])
    u_round = _median([r["round_s"] for r in untraced])
    out["trace.round_s"] = {"value": t_round, "unit": "s"}
    out["trace.untraced_round_s"] = {"value": u_round, "unit": "s"}
    out["trace.overhead_s"] = {"value": t_round - u_round, "unit": "s"}
    return out


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "hypb" / "cli.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'hypb'} is missing", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    # byte-compile once, as an installed package would be, outside every timing
    compileall.compile_dir(str(ROOT / "src" / "hypb"), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1, maxlevels=0)
    run = Run(args)
    try:
        while True:
            traced = bool(args.trace) and len(run.rounds) % 2 == 1
            run.round(traced)
            elapsed = time.monotonic() - run.start
            if elapsed >= args.seconds and (not args.trace or len(run.rounds) >= 2):
                break
        while len(run.setups) < MIN_SETUPS:
            run.setup_probe()
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark stopped: {exc}", file=sys.stderr)
        return 1
    for argv, errs in run.problems[:10]:
        print(f"FAILED {' '.join(argv)}", file=sys.stderr)
        for e in errs[:5]:
            print(f"    {e}", file=sys.stderr)
    for name, (rejected, applied) in sorted(run.controls.items()):
        if rejected != applied:
            print(f"control {name} accepted {applied - rejected} of {applied} corruptions",
                  file=sys.stderr)
    metrics = _metrics(run, args.trace)
    result = {"correct": run.correct, "attempted": run.attempted, "failed": run.failed,
              "metrics": metrics}
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT / name, "w") as fh:
        json.dump({**result, "rounds": [{"traced": t, "round_s": r["round_s"], **r["cpu"]}
                                         for t, r in run.rounds],
                   "setups": run.setups,
                   "controls": run.controls}, fh, indent=1)
    width = max(len(k) for k in metrics)
    for k, v in metrics.items():
        print(f"{k:<{width}}  {v['value']:.6g} {v['unit']}")
    print(f"rounds {len(run.rounds)}, operations {run.attempted}, failed {run.failed}, "
          f"controls rejected {sum(r for r, _ in run.controls.values())}"
          f"/{sum(a for _, a in run.controls.values())}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
