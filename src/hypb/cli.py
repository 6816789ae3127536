"""Command-line front end.

Three subcommands:

  verify     run certification checks and report pass/fail
  transform  apply a named transform to a sampled test function
  whittaker  classify a field against the cokernel criterion, or tabulate
             the one-dimensional solution branches

Exit codes: 0 on success, 1 on a numerical failure (a check violated its
tolerance), 2 on usage errors (unknown check or operator, missing input, a
non-finite or repeated test-function parameter, a grid or box the grid or
RunConfig refuses, a singular quadrature table on non-square cells, --p
that is not a finite p > 1 or --seed below 0, a norm past the float range,
an input that vanishes or is not finite on its grid, a tabulate range
outside [1e-4, 700], a non-finite --A or --B or a tabulated branch or its
residual past the float range, or an --out that cannot be written), and
141, with nothing on stderr, when the reader of stdout closes it early (the
status a shell gives a process that SIGPIPE ends).

CSV output (transform fields, classify multiplier tables, tabulate
branches) writes every value at 17 significant digits (`%.17g`, which reads
back as the same double), and its bytes depend only on the arrays: the
same arrays give the same file.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys

import numpy as np

from .grid import GridSpec, PlaneKind, lp_norm
from .kernels import CellShapeError
from .report import reports_to_json
from . import testfuncs as tf
from . import transforms as tr
from . import verify as vf
from . import whittaker as wh

OP_ALIASES = {
    "c": "cauchy",
    "b": "beurling",
    "c_up": "cauchy_up",
    "c_down": "cauchy_down",
    "b_up": "beurling_up",
    "b_down": "beurling_down",
    "d_up": "bicauchy_up",
    "d_down": "bicauchy_down",
    "e": "bicauchy_real",
}

# the residual stencil reaches t1 + 0.1, and y_integral refuses t > 709.78,
# where e^t overflows
TABULATE_T_MAX = 700.0
# below it the residual can exceed the 1e-6 the README promises (X at
# A = B = 1 reads 7.0e-6 from t0 = 1e-6); from it every branch reads at most 2.7e-7
TABULATE_T_MIN = 1e-4
# the status a shell gives a process that SIGPIPE ended: stdout's reader went away
EXIT_BROKEN_PIPE = 141


def _fail_usage(msg: str) -> "NoReturn":
    print(f"error: {msg}", file=sys.stderr)
    raise SystemExit(2)


def parse_testfn(spec: str):
    try:
        return tf.parse_testfn(spec)
    except (TypeError, ValueError) as exc:
        _fail_usage(str(exc))


def _pair(text: str, flag: str, cast, ok, expected: str, single: bool = False):
    """The two values of a colon pair `text` (one for both when `single`),
    each made by `cast`, that `ok` accepts; else a usage error for `flag`."""
    parts = text.split(":")
    try:
        if len(parts) == 2 or (single and len(parts) == 1):
            a, b = cast(parts[0]), cast(parts[-1])
            if ok(a, b):
                return a, b
    except ValueError:
        pass
    _fail_usage(f"bad {flag} {text!r}; expected {expected}")


def parse_grid(text: str):  # the floor the grid itself enforces
    return _pair(text, "--grid", int, lambda nx, ny: nx >= 4 and ny >= 4,
                 "n or nx:ny with n >= 4", single=True)


def parse_domain(text: str):  # the bounds the grid enforces
    return _pair(text, "--domain", float, lambda L, H: 0 < L < math.inf and 0 < H < math.inf,
                 "L:H with positive finite sides")


def parse_range(text: str):
    return _pair(text, "--range", float,
                 lambda t0, t1: TABULATE_T_MIN <= t0 < t1 <= TABULATE_T_MAX,
                 f"t0:t1 with {TABULATE_T_MIN:g} <= t0 < t1 <= {TABULATE_T_MAX:g}")


def _add_grid(p: argparse.ArgumentParser):
    """Flags of the commands that sample on a grid and run the transforms."""
    p.add_argument("--grid", default="256", help="cells per axis, n or nx:ny")
    p.add_argument("--domain", default="%g:%g" % vf.DEFAULT_BOX,
                   help="half-width and height, L:H")
    p.add_argument("--method", choices=("fft", "quadrature"), default="fft")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="hypb")
    sub = ap.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run certification checks")
    pv.add_argument("check", help="check id or 'all'")
    pv.add_argument("--p", type=float, default=2.0)
    pv.add_argument("--seed", type=int, default=0)
    _add_grid(pv)
    pv.add_argument("--json", action="store_true", help="machine-readable output")

    pt = sub.add_parser("transform", help="apply a transform to a test function")
    pt.add_argument("--op", required=True,
                    help="operator id or alias (e.g. b_down, c_up)")
    pt.add_argument("--testfn", default=None, help="name:key=val,... input field")
    pt.add_argument("--out", default=None, help="output CSV path (default stdout)")
    _add_grid(pt)
    pt.add_argument("--json", action="store_true", help="machine-readable output")

    pw = sub.add_parser("whittaker", help="cokernel classification and ODE tables")
    wsub = pw.add_subparsers(dest="subcommand", required=True)

    pc = wsub.add_parser("classify", help="test a field for cokernel membership")
    pc.add_argument("--testfn", default=None, help="name:key=val,... input field")
    pc.add_argument("--premultiply-M", dest="premultiply_m", action="store_true",
                    help="multiply the sampled field by Im z before classifying")
    pc.add_argument("--out", default=None, help="write the fitted multiplier table (xi,re,im)")
    pc.add_argument("--json", action="store_true", help="machine-readable output")

    pb = wsub.add_parser("tabulate", help="tabulate a solution branch with residuals")
    pb.add_argument("--family", choices=("X", "Y"), required=True)
    pb.add_argument("--A", type=complex, default=0.0)
    pb.add_argument("--B", type=complex, default=1.0)
    pb.add_argument("--range", dest="trange", default="0.1:30")
    pb.add_argument("--points", type=int, default=200)
    pb.add_argument("--out", default=None, help="output CSV path (default stdout)")
    pb.add_argument("--json", action="store_true", help="machine-readable output")
    return ap


def csv_rows(*cols, grid=None) -> list:
    """One CSV row per index of the 1-D columns, each value at 17 significant digits.

    With grid=(x, y) the columns hold a field's samples in C order (y slow,
    x fast), and each row starts with its point's x and y.  Each coordinate
    is formatted once, into one template per y row, the x strings joined on
    that row's y and value fields; the row's lines are one `%` over its
    template, split on the newlines.
    """
    tail = ",".join(["%.17g"] * len(cols))
    if grid is None:
        return [tail % row for row in zip(*(c.tolist() for c in cols))]
    xs = ["%.17g," % v for v in grid[0].tolist()]
    nx, out = len(xs), []
    for j, yv in enumerate(grid[1].tolist()):
        fields = "%.17g," % yv + tail
        template = (fields + "\n").join(xs) + fields
        row = np.column_stack([c[j * nx : (j + 1) * nx] for c in cols])
        out += (template % tuple(row.ravel().tolist())).split("\n")
    return out


def _write_rows(path, header, rows):
    """Write the header, then the rows, one line each, to `path` or stdout.

    The rows go out in blocks of 4096 lines, each joined on its own: the
    whole text never sits next to the row list, and one write per block
    keeps the per-line cost of the file object off the rows.  A path that
    cannot be written is a usage error, so callers write it before stdout.
    """
    try:
        with contextlib.nullcontext(sys.stdout) if path is None else open(path, "w") as fh:
            fh.write(header + "\n")
            for k in range(0, len(rows), 4096):
                fh.write("\n".join(rows[k : k + 4096]) + "\n")
    except OSError as exc:
        if path is None:
            raise
        _fail_usage(f"cannot write --out {path!r}: {exc.strerror or exc}")


def cmd_verify(args) -> int:
    name = args.check
    if name != "all" and name not in vf.CHECKS:
        _fail_usage(f"unknown check {name!r}; have {sorted(vf.CHECKS)}")
    nx, ny = parse_grid(args.grid)
    L, H = parse_domain(args.domain)
    try:
        cfg = vf.RunConfig(nx=nx, ny=ny, L=L, H=H, method=args.method, p=args.p, seed=args.seed)
    except ValueError as exc:
        _fail_usage(f"bad --grid {args.grid!r}, --domain {args.domain!r}, --p {args.p:g} "
                    f"or --seed {args.seed}: {exc}")
    try:
        reports = vf.run_checks(name, cfg)
    except OverflowError as exc:
        _fail_usage(f"{exc} at --p {args.p:g}")
    ok = all(r.passed for r in reports)
    if args.json:
        print(reports_to_json(reports))
    else:
        for r in reports:
            print(r.line())
        print(f"{'PASSED' if ok else 'FAILED'} "
              f"{sum(r.passed for r in reports)}/{len(reports)} checks")
    return 0 if ok else 1


def cmd_transform(args) -> int:
    nx, ny = parse_grid(args.grid)
    L, H = parse_domain(args.domain)
    if args.testfn is None:
        _fail_usage("transform needs --testfn")
    op = OP_ALIASES.get(args.op, args.op)
    if op not in tr.KERNEL_IDS:
        _fail_usage(f"unknown operator {args.op!r}; have "
                    f"{sorted(tr.KERNEL_IDS)} plus aliases {sorted(OP_ALIASES)}")
    fn = parse_testfn(args.testfn)
    plane = PlaneKind.FULL if op in tr.WHOLE_PLANE else PlaneKind.UPPER
    try:
        spec = GridSpec(L=L, H=H, nx=nx, ny=ny, plane=plane)
    except ValueError as exc:
        _fail_usage(f"bad --grid {args.grid!r} or --domain {args.domain!r}: {exc}; "
                    f"--op {args.op} samples the {plane.value} plane")
    with np.errstate(all="ignore"):  # a member past the float range is refused below
        f = tf.sample(fn, spec, "f")
    try:
        input_l2 = lp_norm(f, 2.0) if np.isfinite(f.data).all() else 0.0
        if input_l2 == 0.0:  # also when the samples are nonzero but their squares underflow
            _fail_usage(f"--testfn {args.testfn} is zero or not finite on the grid")
        out = tr.transform(f, op, method=args.method)
        output_l2 = lp_norm(out, 2.0) if args.json else None
    except OverflowError as exc:
        _fail_usage(f"{exc} for --testfn {args.testfn}")
    if args.out is not None or not args.json:  # --json alone prints no CSV
        rows = csv_rows(out.data.real.ravel(), out.data.imag.ravel(), grid=(spec.x, spec.y))
        _write_rows(args.out, "x,y,re,im", rows)
    if args.json:
        print(json.dumps({
            "op": op, "testfn": args.testfn, "grid": spec.summary(),
            "method": args.method, "input_l2": input_l2, "output_l2": output_l2,
        }, indent=2, allow_nan=False))
    return 0


def cmd_classify(args) -> int:
    if args.testfn is None:
        _fail_usage("classify needs --testfn")
    rows = tf.RowSampler(parse_testfn(args.testfn), wh.default_classify_spec(),
                         times_y=args.premultiply_m)
    try:
        res = wh.lemma_a1_classify(rows)
    except (OverflowError, ValueError) as exc:
        _fail_usage(f"{exc} for --testfn {args.testfn}")
    if args.out is not None:
        _write_rows(args.out, "xi,re,im", csv_rows(res.xi, res.b2.real, res.b2.imag))
    payload = res.summary()
    payload["testfn"] = args.testfn
    payload["premultiply_M"] = bool(args.premultiply_m)
    if args.json:
        print(json.dumps(payload, indent=2, allow_nan=False))
    else:
        verdict = "cokernel" if res.is_cokernel else "not cokernel"
        print(f"{args.testfn}: {verdict} "
              f"(pos_energy_frac={res.pos_energy_frac:.3e}, "
              f"window_energy_frac={res.window_energy_frac:.3e}, "
              f"fit_residual={res.fit_residual:.3e}, "
              f"dyadic_growth={res.dyadic_growth:.4f}, "
              f"x_truncation={res.x_truncation:.2e})")
    return 0


def cmd_tabulate(args) -> int:
    t0, t1 = parse_range(args.trange)
    if args.points < 1:
        _fail_usage(f"bad --points {args.points}; expected a count of at least 1")
    if not np.isfinite([args.A, args.B]).all():
        _fail_usage(f"bad --A {args.A} or --B {args.B}; expected finite coefficients")
    ts = np.geomspace(t0, t1, args.points)
    try:
        vals, resid = wh.pointwise_residual(args.family, args.A, args.B, ts)
    except OverflowError as exc:
        _fail_usage(f"{exc}; choose a smaller --A, --B or --range")
    if args.out is not None or not args.json:  # --json alone prints no CSV
        _write_rows(args.out, "t,re,im,residual", csv_rows(ts, vals.real, vals.imag, resid))
    if args.json:
        print(json.dumps({
            "family": args.family, "A": [args.A.real, args.A.imag],
            "B": [args.B.real, args.B.imag], "range": [t0, t1],
            "points": args.points, "max_residual": float(resid.max()),
        }, indent=2, allow_nan=False))
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "whittaker":
        cmd = cmd_classify if args.subcommand == "classify" else cmd_tabulate
    else:
        cmd = cmd_verify if args.command == "verify" else cmd_transform
    try:
        status = cmd(args)
        sys.stdout.flush()  # here, so that the flush at exit has nothing left to raise
    except CellShapeError as exc:
        _fail_usage(f"{exc}; choose --grid and --domain to match")
    except BrokenPipeError:  # the reader closed stdout: quietly, with the shell's SIGPIPE status
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    return status


if __name__ == "__main__":
    raise SystemExit(main())
