"""Command-line front end.

Three subcommands:

  verify     run certification checks and report pass/fail
  transform  apply a named transform to a sampled test function
  whittaker  classify a field against the cokernel criterion, or tabulate
             the one-dimensional solution branches

Exit codes: 0 on success, 1 on a numerical failure (a non-degenerate check
violated its tolerance), 2 on usage errors (unknown check or operator,
missing input, a singular quadrature table on non-square cells, a tabulate
range past t = 700).

CSV output (transform fields, classify multiplier tables, tabulate
branches) writes every value at 17 significant digits (`%.17g`, which reads
back as the same double), and its bytes depend only on the arrays: the
same arrays give the same file.

Thread count comes from --threads, else the HYPB_THREADS environment
variable, and sets the scipy.fft worker count of `verify` and `transform`
(unset: one worker).  The FFTs split their work by whole lines, so results
are bit-identical for every thread count.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

import numpy as np

from .grid import Field, GridSpec, PlaneKind, lp_norm
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
# where e^t overflows (whittaker_X's e^{t/2} overflows at 1419.6)
TABULATE_T_MAX = 700.0


def _fail_usage(msg: str) -> "NoReturn":
    print(f"error: {msg}", file=sys.stderr)
    raise SystemExit(2)


def parse_testfn(spec: str):
    try:
        return tf.parse_testfn(spec)
    except (TypeError, ValueError) as exc:
        _fail_usage(str(exc))


def parse_grid(text: str):
    parts = text.split(":")
    try:
        if len(parts) == 1:
            nx = ny = int(parts[0])
        elif len(parts) == 2:
            nx, ny = int(parts[0]), int(parts[1])
        else:
            raise ValueError(text)
        if nx >= 4 and ny >= 4:  # same floor the grid itself enforces
            return nx, ny
    except ValueError:
        pass
    _fail_usage(f"bad --grid {text!r}; expected n or nx:ny with n >= 4")


def parse_domain(text: str):
    parts = text.split(":")
    try:
        if len(parts) == 2:
            L, H = float(parts[0]), float(parts[1])
            if L > 0 and H > 0:
                return L, H
    except ValueError:
        pass
    _fail_usage(f"bad --domain {text!r}; expected L:H with positive sides")


def parse_range(text: str):
    parts = text.split(":")
    try:
        if len(parts) == 2:
            t0, t1 = float(parts[0]), float(parts[1])
            if 0 < t0 < t1 <= TABULATE_T_MAX:
                return t0, t1
    except ValueError:
        pass
    _fail_usage(f"bad --range {text!r}; expected t0:t1 with 0 < t0 < t1 <= {TABULATE_T_MAX:g}")


def resolve_threads(value):
    if value is not None:
        return value
    env = os.environ.get("HYPB_THREADS")
    if env is None:
        return None
    try:
        return int(env)
    except ValueError:
        _fail_usage(f"bad HYPB_THREADS value {env!r}")


def _add_grid(p: argparse.ArgumentParser):
    """Flags of the commands that sample on a grid and run the transforms."""
    p.add_argument("--grid", default="256", help="cells per axis, n or nx:ny")
    p.add_argument("--domain", default=None, help="half-width and height, L:H")
    p.add_argument("--method", choices=("fft", "quadrature"), default="fft")
    p.add_argument("--threads", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="hypb")
    sub = ap.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run certification checks")
    pv.add_argument("check", help="check id or 'all'")
    pv.add_argument("--p", type=float, default=2.0)
    pv.add_argument("--tol", type=float, default=None)
    pv.add_argument("--seed", type=int, default=0)
    _add_grid(pv)
    pv.add_argument("--json", action="store_true", help="machine-readable output")

    pt = sub.add_parser("transform", help="apply a transform to a test function")
    pt.add_argument("--op", required=True,
                    help="operator id or alias (e.g. b_down, c_up)")
    pt.add_argument("--testfn", default=None, help="name:key=val,... input field")
    pt.add_argument("--out", default=None, help="output CSV path (default stdout)")
    pt.add_argument("--csv", action="store_true", help="CSV output (the default)")
    _add_grid(pt)
    pt.add_argument("--json", action="store_true", help="machine-readable output")

    pw = sub.add_parser("whittaker", help="cokernel classification and ODE tables")
    wsub = pw.add_subparsers(dest="subcommand", required=True)

    pc = wsub.add_parser("classify", help="test a field for cokernel membership")
    pc.add_argument("--testfn", default=None, help="name:key=val,... input field")
    pc.add_argument("--premultiply-M", dest="premultiply_m", action="store_true",
                    help="multiply the sampled field by Im z before classifying")
    pc.add_argument("--out", default=None, help="write the fitted multiplier table")
    pc.add_argument("--csv", action="store_true",
                    help="write the multiplier table as CSV (xi,re,im)")
    pc.add_argument("--json", action="store_true", help="machine-readable output")

    pb = wsub.add_parser("tabulate", help="tabulate a solution branch with residuals")
    pb.add_argument("--family", choices=("X", "Y"), required=True)
    pb.add_argument("--A", type=complex, default=0.0)
    pb.add_argument("--B", type=complex, default=1.0)
    pb.add_argument("--range", dest="trange", default="0.1:30")
    pb.add_argument("--points", type=int, default=200)
    pb.add_argument("--out", default=None, help="output CSV path (default stdout)")
    pb.add_argument("--csv", action="store_true", help="CSV output (the default)")
    pb.add_argument("--json", action="store_true", help="machine-readable output")
    return ap


def make_config(args, **extra) -> vf.RunConfig:
    """RunConfig from the grid flags; `extra` sets the fields only verify reads."""
    nx, ny = parse_grid(args.grid)
    if args.domain is not None:
        L, H = parse_domain(args.domain)
    else:
        L, H = 2.8, 5.6
    threads = resolve_threads(args.threads)
    if threads is not None and threads < 1:
        _fail_usage(f"thread count must be at least 1, got {threads}")
    return vf.RunConfig(nx=nx, ny=ny, L=L, H=H, method=args.method, threads=threads, **extra)


def csv_rows(*cols, grid=None) -> list:
    """One CSV row per index of the 1-D columns, each value at 17 significant digits.

    With grid=(x, y) the columns hold a field's samples in C order (y slow,
    x fast), and each row starts with its point's x and y.  Each coordinate
    is formatted once, into the row templates; a row is one `%` over its
    template.  The templates are made as the rows consume them, so they
    never all exist at once.
    """
    tail = ",".join(["%.17g"] * len(cols))
    if grid is None:
        templates = [tail] * len(cols[0])
    else:
        xs = ["%.17g," % v for v in grid[0].tolist()]
        templates = (xv + yv + tail for yv in ["%.17g," % v for v in grid[1].tolist()]
                     for xv in xs)
    return [t % row for t, row in zip(templates, zip(*(c.tolist() for c in cols)))]


def _write_rows(path, header, rows):
    """Write the header, then the rows, one line each, to `path` or stdout.

    The rows go out in blocks of 4096 lines, each joined on its own: the
    whole text never sits next to the row list, and one write per block
    keeps the per-line cost of the file object off the rows.
    """
    with contextlib.nullcontext(sys.stdout) if path is None else open(path, "w") as fh:
        fh.write(header + "\n")
        for k in range(0, len(rows), 4096):
            fh.write("\n".join(rows[k : k + 4096]) + "\n")


def cmd_verify(args) -> int:
    cfg = make_config(args, p=args.p, tol=args.tol, seed=args.seed)
    name = args.check
    if name != "all" and name not in vf.CHECKS:
        _fail_usage(f"unknown check {name!r}; have {sorted(vf.CHECKS)}")
    reports = vf.run_checks(name, cfg)
    ok = vf.overall_pass(reports)
    if args.json:
        print(reports_to_json(reports))
    else:
        for r in reports:
            print(r.line())
        live = [r for r in reports if not r.parameters.get("degenerate")]
        ndeg = len(reports) - len(live)
        tail = f" ({ndeg} degenerate, excluded)" if ndeg else ""
        print(f"{'PASSED' if ok else 'FAILED'} "
              f"{sum(r.passed for r in live)}/{len(live)} checks{tail}")
    return 0 if ok else 1


def cmd_transform(args) -> int:
    cfg = make_config(args)
    if args.testfn is None:
        _fail_usage("transform needs --testfn")
    op = OP_ALIASES.get(args.op, args.op)
    if op not in tr.KERNEL_IDS:
        _fail_usage(f"unknown operator {args.op!r}; have "
                    f"{sorted(tr.KERNEL_IDS)} plus aliases {sorted(OP_ALIASES)}")
    fn = parse_testfn(args.testfn)
    plane = PlaneKind.UPPER if op not in ("cauchy", "beurling") else PlaneKind.FULL
    spec = GridSpec(L=cfg.L, H=cfg.H, nx=cfg.nx, ny=cfg.ny, plane=plane)
    f = tf.sample(fn, spec, "f")
    with tr.fft_workers(cfg.threads):
        out = tr.transform(f, op, method=cfg.method)
    if args.json:
        print(json.dumps({
            "op": op, "testfn": args.testfn, "grid": spec.summary(),
            "method": cfg.method, "threads": cfg.threads,
            "input_l2": lp_norm(f, 2.0), "output_l2": lp_norm(out, 2.0),
        }, indent=2))
        if args.out is None and not args.csv:
            return 0
    rows = csv_rows(out.data.real.ravel(), out.data.imag.ravel(), grid=(spec.x, spec.y))
    _write_rows(args.out, "x,y,re,im", rows)
    return 0


def cmd_classify(args) -> int:
    if args.testfn is None:
        _fail_usage("classify needs --testfn")
    fn = parse_testfn(args.testfn)
    spec = wh.default_classify_spec()
    f = tf.sample(fn, spec, "f")
    if args.premultiply_m:
        f = Field(spec, spec.y.reshape(-1, 1) * f.data)
    res = wh.lemma_a1_classify(f)
    payload = res.summary()
    payload["testfn"] = args.testfn
    payload["premultiply_M"] = bool(args.premultiply_m)
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        verdict = "cokernel" if res.is_cokernel else "not cokernel"
        print(f"{args.testfn}: {verdict} "
              f"(pos_energy_frac={res.pos_energy_frac:.3e}, "
              f"fit_residual={res.fit_residual:.3e}, "
              f"dyadic_growth={res.dyadic_growth:.4f}, "
              f"x_truncation={res.x_truncation:.2e})")
    if args.out is not None or args.csv:
        _write_rows(args.out, "xi,re,im", csv_rows(res.xi, res.b2.real, res.b2.imag))
    return 0


def cmd_tabulate(args) -> int:
    t0, t1 = parse_range(args.trange)
    sol = wh.WhittakerSolution(args.family, args.A, args.B)
    ts = np.geomspace(t0, t1, args.points)
    vals, resid = wh.pointwise_residual(sol, ts)
    if args.json:
        print(json.dumps({
            "family": args.family, "A": [args.A.real, args.A.imag],
            "B": [args.B.real, args.B.imag], "range": [t0, t1],
            "points": args.points, "max_residual": float(resid.max()),
        }, indent=2))
        if args.out is None and not args.csv:
            return 0
    _write_rows(args.out, "t,re,im,residual", csv_rows(ts, vals.real, vals.imag, resid))
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "transform":
            return cmd_transform(args)
    except CellShapeError as exc:
        _fail_usage(f"{exc}; choose --grid and --domain to match")
    if args.subcommand == "classify":
        return cmd_classify(args)
    return cmd_tabulate(args)


if __name__ == "__main__":
    raise SystemExit(main())
