#!/usr/bin/env python3
"""Climb of the log-plateau family toward the boundary-decay constant 16.

Ratios come from the one-dimensional oracle, double-exponential quadrature
in log y, which handles the y-ranges (down to n^-(1+2 ramp)) that no
two-dimensional grid can resolve.
"""

import argparse
import sys

from hypb import verify as vf


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--a", type=float, default=0.5, help="profile exponent")
    ap.add_argument("--n", type=int, nargs="+",
                    default=[4, 8, 16, 32, 64, 128, 256, 512])
    ap.add_argument("--ramp", type=float, default=1.8)
    args = ap.parse_args(argv)

    try:
        ratios = [vf._hardy_oracle_1d(args.a, n, ramp=args.ramp) for n in args.n]
    except (ValueError, ArithmeticError) as exc:  # a cutoff scale below 2, or no convergence
        print(f"error: {exc}", file=sys.stderr)
        return 2
    const = vf.HARDY_P2
    print(f"{'n':>6}  {'ratio':>10}  {'ratio/16':>9}")
    for n, r in zip(args.n, ratios):
        print(f"{n:>6}  {r:>10.4f}  {r / const:>9.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
