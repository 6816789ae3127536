#!/usr/bin/env python3
"""Rewrite the battery's golden numbers, tests/golden/battery-<method>.json.

Each file is `hypb verify all --method <method> --json` with `runtime_ms`
removed, for the fft and quadrature methods.  Nothing is written unless
every report of both batteries passes.  tests/test_verify.py holds every
later battery to these files; rewrite them only for a change whose moved
values have been reviewed.

    PYTHONPATH=src python3 scripts/write_golden.py
"""

import json
import pathlib
import sys

from hypb import verify as vf

GOLDEN = pathlib.Path(__file__).resolve().parent.parent / "tests" / "golden"
METHODS = ("fft", "quadrature")


def main() -> int:
    payloads = {}
    for method in METHODS:
        reports = vf.run_checks("all", vf.RunConfig(method=method))
        failed = [r.check_id for r in reports if not r.passed]
        if failed:
            print(f"error: {method}: {len(failed)} reports fail ({', '.join(failed)}); "
                  "nothing written", file=sys.stderr)
            return 1
        payloads[method] = [{k: v for k, v in r.to_dict().items() if k != "runtime_ms"}
                            for r in reports]
    GOLDEN.mkdir(exist_ok=True)
    for method, payload in payloads.items():
        path = GOLDEN / f"battery-{method}.json"
        path.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {path} ({len(payload)} reports)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
