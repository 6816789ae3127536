#!/usr/bin/env python3
"""Dyadic-refinement error tables for the refinable checks.

Prints the error at each grid, the fitted orders between neighbours, and
the pass verdict against the check's order threshold.
"""

import argparse
import sys

from hypb import verify as vf


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--checks", nargs="+", default=sorted(vf.SWEEPS),
                    help=f"which sweeps to run (have {sorted(vf.SWEEPS)})")
    ap.add_argument("--grids", type=int, nargs="+", default=[64, 128, 256])
    args = ap.parse_args(argv)
    unknown = [name for name in args.checks if name not in vf.SWEEPS]
    if unknown:
        print(f"error: no convergence sweep for {unknown}; have {sorted(vf.SWEEPS)}",
              file=sys.stderr)
        return 2

    failed = False
    for name in args.checks:
        try:
            rep = vf.convergence_sweep(name, grids=tuple(args.grids))
        except ValueError as exc:  # fewer than two grids
            print(f"error: {exc}", file=sys.stderr)
            return 2
        p = rep.parameters
        print(f"{name}: min order {rep.lhs:.3f} vs threshold {rep.tolerance:g} "
              f"-> {'ok' if rep.passed else 'FAIL'}")
        for g, e in zip(p["grids"], p["errors"]):
            print(f"  {g:>6d}  {e:.6e}")
        print(f"  orders: {', '.join(f'{o:.3f}' for o in p['orders'])} "
              f"(monotone: {p['monotone']})")
        failed = failed or not rep.passed
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
