"""Output checks for every workload, and their negative controls.

The references are made apart from the program: cell centres, member
formulas, midpoint kernel sums and closed forms from `scipy.special` are
computed here, and nothing imports `hypb`.  Where no independent value
exists the check tests a property the method must have (the battery's own
verdicts and the paper's constants, the classifier's thresholds, norm
bounds).  No check compares against a stored copy of earlier output.

Each check returns a list of failure messages; an empty list passes.
Each negative control corrupts an output in one way that its check must
reject.
"""

from __future__ import annotations

import copy
import json
import math

import numpy as np
from scipy import fft as sfft
from scipy import special

from workloads import CLASSIFY_GRID, CLASSIFY_WINDOW

OP_NAMES = {
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

# Tolerances against the midpoint reference, by path and operator family,
# about 2.5x the largest gap measured over whole fields on 14 seeds of the
# transform workload (README).  The fft path of the 1/zeta^2 kernel
# periodizes its tail on a 2x padded box, which the box-truncated sum does not.
# largest |output - reference| at a target cell, as a share of the output's peak
TARGET_TOL = {
    ("fft", "planar-c"): 5e-3, ("fft", "planar-b"): 1e-1,
    ("fft", "half-c"): 1.5e-3, ("fft", "half-b"): 4e-2,
    ("quadrature", "planar-c"): 1.5e-2, ("quadrature", "planar-b"): 5e-2,
    ("quadrature", "half-c"): 3e-3, ("quadrature", "half-b"): 8e-3,
}
# |output_l2 - reference l2|, relative
NORM_TOL = {
    ("fft", "planar-c"): 3e-4, ("fft", "planar-b"): 8e-3,
    ("fft", "half-c"): 1e-4, ("fft", "half-b"): 5e-3,
    ("quadrature", "planar-c"): 6e-4, ("quadrature", "planar-b"): 1.2e-3,
    ("quadrature", "half-c"): 2.5e-4, ("quadrature", "half-b"): 1.5e-3,
}
INPUT_NORM_TOL = 1e-12
MULTIPLIER_TOL = 1e-3  # fitted B2 against its closed form, relative
# tabulated branch against closed forms, relative to |A X_A| + |B X_B|: ten times
# the relative tolerance `x_integral` asks of quad (1.6e-10 measured)
BRANCH_TOL = 1e-9
# The stencil residual that `tabulate` reports.  Exact solutions reach 1.1e-2
# (mixed A, B near t = 0.05, where quad noise over h^2 = (0.01 t)^2
# dominates); a branch evaluated against the wrong equation gives about 2 at
# small t, so a tenth separates the two.
RESIDUAL_TOL = 0.1


def _tol(table, op, method):
    family = ("planar-" if op in ("c", "b") else "half-") + (
        "b" if op in ("b", "b_up", "b_down") else "c")
    return table[(method, family)]


# ---------------------------------------------------------------------------
# parsing


def parse(op, record) -> dict:
    """The program's outputs for one operation, as the checks read them."""
    out = {"rc": record["rc"], "error": record.get("error"), "json": None,
           "header": None, "table": None}
    text = record.get("stdout", "")
    if out["rc"] == 0 and "--json" in op.argv:
        try:
            out["json"] = json.loads(text)
        except ValueError as exc:
            out["error"] = f"stdout is not JSON: {exc}"
    if out["rc"] == 0 and op.out is not None:
        try:
            with open(op.out) as fh:
                out["header"] = fh.readline().strip()
                out["table"] = np.loadtxt(fh, delimiter=",", ndmin=2)
        except (OSError, ValueError) as exc:
            out["error"] = f"cannot read {op.out}: {exc}"
    return out


def _status(out) -> list:
    if out["rc"] != 0:
        return [f"exit status {out['rc']}: {out.get('error') or ''}".strip()]
    if out["error"]:
        return [out["error"]]
    return []


# ---------------------------------------------------------------------------
# transform: grids, members and midpoint kernel sums


def cell_centres(L, H, nx, ny, planar):
    hx = 2.0 * L / nx
    hy = 2.0 * H / ny if planar else H / ny
    x = -L + (np.arange(nx) + 0.5) * hx
    y0 = -H if planar else 0.0
    y = y0 + (np.arange(ny) + 0.5) * hy
    return x, y, hx, hy


def member_values(member, z):
    """The gaussian member exp(-sigma |z - w0|^2), w0 = x0 + ic."""
    w0 = member["x0"] + 1j * member["c"]
    return np.exp(-member["sigma"] * np.abs(z - w0) ** 2)


def kernel(op, z, w):
    """K(z, w) of each operator, with dA = dx dy / pi outside."""
    zc, wc = np.conj(z), np.conj(w)
    if op == "c":
        return 1.0 / (z - w)
    if op == "b":
        return -1.0 / (z - w) ** 2
    if op == "c_down":
        return 1.0 / (z - w) - 1.0 / (z - wc)
    if op == "c_up":
        return 1.0 / (z - w) - 1.0 / (zc - w)
    if op == "b_down":
        return 1.0 / (z - wc) ** 2 - 1.0 / (z - w) ** 2
    if op == "b_up":
        return 1.0 / (zc - w) ** 2 - 1.0 / (z - w) ** 2
    if op == "d_up":
        return 1.0 / ((z - w) * (zc - w))
    if op == "d_down":
        return 1.0 / ((z - w) * (z - wc))
    if op == "e":
        return (z - w).real / np.abs((z - w) * (z - wc)) ** 2
    raise ValueError(f"unknown operator {op!r}")


def direct_sum(op, f, zz, i, j, cell):
    """Midpoint sum of K(z_ij, w) f(w) over the grid, the source cell left out."""
    with np.errstate(divide="ignore", invalid="ignore"):
        k = kernel(op, zz[i, j], zz)
    k[i, j] = 0.0
    return complex(np.sum(k * f) * cell)


def _conv(kvals, f):
    """sum_w kvals[dy, dx] f(w): linear convolution by FFTs, 'valid' part."""
    ny, nx = f.shape
    shape = [sfft.next_fast_len(kvals.shape[0] + ny - 1),
             sfft.next_fast_len(kvals.shape[1] + nx - 1)]
    full = sfft.ifft2(sfft.fft2(kvals, shape) * sfft.fft2(f, shape))
    return full[ny - 1 : 2 * ny - 1, nx - 1 : 2 * nx - 1]


def _offsets(ny, nx, hx, hy):
    dy = np.arange(-(ny - 1), ny) * hy
    dx = np.arange(-(nx - 1), nx) * hx
    return dx[None, :] + 1j * dy[:, None]


def _planar_kernel(kind, u):
    return 1.0 / u if kind == "c" else -1.0 / u**2


def _planar_field(kind, f, hx, hy, cell):
    with np.errstate(divide="ignore", invalid="ignore"):
        k = _planar_kernel(kind, _offsets(*f.shape, hx, hy))
    k[f.shape[0] - 1, f.shape[1] - 1] = 0.0  # the source cell
    return _conv(k, f) * cell


def _half_field(op, f, y, hx, hy, cell):
    """Half-plane translation-plus-mirror operators on the whole grid.

    On a cell-centred grid the mirror images of the cells are the cells of
    the reflected grid, so each operator is a planar sum over an extension
    below the axis.  The planar sum keeps the mirror summand of the source
    cell, k(z - conj z) f(z); it is taken out again, so the whole source
    cell is left out.
    """
    ny, nx = f.shape
    kind = "c" if op in ("c_down", "c_up") else "b"
    ext = np.zeros((2 * ny, nx), dtype=complex)
    ext[ny:] = f
    if op in ("c_down", "b_down"):
        # K = k(z - w) - k(z - conj w): the planar sum over the odd extension
        ext[:ny] = -f[::-1]
        full = _planar_field(kind, ext, hx, hy, cell)[ny:]
        kept = -_planar_kernel(kind, 2j * y)
    else:
        # K = k(z - w) - k(conj z - w): planar values at z less those at conj z
        planar = _planar_field(kind, ext, hx, hy, cell)
        full = planar[ny:] - planar[ny - 1 :: -1]
        kept = -_planar_kernel(kind, -2j * y)
    return full - kept[:, None] * f * cell


def reference_field(p) -> np.ndarray:
    """The midpoint reference over the whole grid, for output_l2."""
    op = p["op"]
    planar = op in ("c", "b")
    x, y, hx, hy = cell_centres(p["L"], p["H"], p["nx"], p["ny"], planar)
    zz = x[None, :] + 1j * y[:, None]
    f = member_values(p["member"], zz)
    cell = hx * hy / math.pi
    if planar:
        return _planar_field(op, f, hx, hy, cell)
    yc = y[:, None]
    if op == "d_up":  # 1/(z - w) - 1/(conj z - w) = -2i y_z / ((z - w)(conj z - w))
        return 0.5j / yc * _half_field("c_up", f, y, hx, hy, cell)
    if op == "d_down":  # 1/(z - w) - 1/(z - conj w) = 2i y_w / ((z - w)(z - conj w))
        return _half_field("c_down", f / (2j * yc), y, hx, hy, cell)
    if op == "e":  # K + conj K of c_down is 8 y_z y_w times the real kernel
        g = f / yc
        a = _half_field("c_down", g, y, hx, hy, cell)
        b = np.conj(_half_field("c_down", np.conj(g), y, hx, hy, cell))
        return (a + b) / (8.0 * yc)
    return _half_field(op, f, y, hx, hy, cell)


def check_transform(op, out, cache) -> list:
    errs = _status(out)
    if errs:
        return errs
    p = op.params
    planar = p["op"] in ("c", "b")
    x, y, hx, hy = cell_centres(p["L"], p["H"], p["nx"], p["ny"], planar)
    zz = x[None, :] + 1j * y[:, None]
    f = member_values(p["member"], zz)
    cell = hx * hy / math.pi
    nx, ny = p["nx"], p["ny"]
    if op.out is None:
        meta = out["json"]
        want_grid = {"L": p["L"], "H": p["H"], "nx": nx, "ny": ny,
                     "plane": "full" if planar else "upper"}
        if meta.get("op") != OP_NAMES[p["op"]] or meta.get("grid") != want_grid:
            errs.append(f"echo: op {meta.get('op')!r} grid {meta.get('grid')!r}")
        if meta.get("method") != p["method"]:
            errs.append(f"echo: method {meta.get('method')!r}")
        in_l2 = math.sqrt(float(np.sum(np.abs(f) ** 2)) * cell)
        got_in = meta.get("input_l2", math.nan)
        if not abs(got_in - in_l2) <= INPUT_NORM_TOL * in_l2:
            errs.append(f"input_l2 {got_in!r} against {in_l2!r}")
        if "ref_l2" not in cache:
            ref = reference_field(p)
            cache["ref_l2"] = math.sqrt(float(np.sum(np.abs(ref) ** 2)) * cell)
        ref_l2 = cache["ref_l2"]
        got = meta.get("output_l2", math.nan)
        tol = _tol(NORM_TOL, p["op"], p["method"])
        if not abs(got - ref_l2) <= tol * ref_l2:
            errs.append(f"output_l2 {got!r} against midpoint {ref_l2!r} (tol {tol:g})")
        return errs
    table = out["table"]
    if out["header"] != "x,y,re,im":
        errs.append(f"header {out['header']!r}")
    if table.shape != (nx * ny, 4):
        return errs + [f"table shape {table.shape}, want ({nx * ny}, 4)"]
    scale = max(p["L"], p["H"])
    if not (np.allclose(table[:, 0], np.tile(x, ny), rtol=0, atol=1e-13 * scale)
            and np.allclose(table[:, 1], np.repeat(y, nx), rtol=0, atol=1e-13 * scale)):
        errs.append("x, y columns are not the cell centres")
    vals = (table[:, 2] + 1j * table[:, 3]).reshape(ny, nx)
    peak = float(np.max(np.abs(vals)))
    if not np.all(np.isfinite(vals)) or peak == 0.0:
        return errs + ["output is not finite or is zero"]
    # the seeded cells, the cell nearest the member's centre and the peak cell
    m = p["member"]
    targets = [tuple(t) for t in p["targets"]]
    targets.append((int(np.argmin(np.abs(y - m["c"]))), int(np.argmin(np.abs(x - m["x0"])))))
    targets.append(np.unravel_index(int(np.argmax(np.abs(vals))), vals.shape))
    tol = _tol(TARGET_TOL, p["op"], p["method"])
    for i, j in targets:
        ref = direct_sum(p["op"], f, zz, i, j, cell)
        err = abs(vals[i, j] - ref) / peak
        if not err <= tol:
            errs.append(f"cell ({i}, {j}): {vals[i, j]!r} against midpoint sum "
                        f"{ref!r}, {err:.2e} of peak (tol {tol:g})")
    return errs


# ---------------------------------------------------------------------------
# whittaker: classifier verdicts, multipliers and branch closed forms


def classify_xi():
    g = CLASSIFY_GRID
    xi = 2.0 * np.pi * np.fft.fftfreq(g["nx"], d=2.0 * g["L"] / g["nx"])
    lo, hi = CLASSIFY_WINDOW
    return xi[(xi >= lo) & (xi <= hi)]


def multiplier(xi, a, k):
    """B2 of M conj((z + ia)^-k): pi i (-i xi)^(k-1) e^(a xi) / ((k-1)! |xi|)."""
    return (math.pi * 1j * (-1j * xi) ** (k - 1) * np.exp(a * xi)
            / (math.factorial(k - 1) * np.abs(xi)))


def check_classify(op, out, cache) -> list:
    errs = _status(out)
    if errs:
        return errs
    p = op.params
    res = out["json"]
    th = res.get("thresholds", {})
    if res.get("testfn") != p["testfn"] or res.get("premultiply_M") != p["premultiply_M"]:
        errs.append(f"echo: {res.get('testfn')!r} premultiply_M={res.get('premultiply_M')!r}")
    if res.get("is_cokernel") is not p["expect_cokernel"]:
        errs.append(f"verdict is_cokernel={res.get('is_cokernel')!r}, "
                    f"theory says {p['expect_cokernel']}")
    try:
        meets = (res["pos_energy_frac"] <= th["pos_tol"] and res["fit_residual"] <= th["fit_tol"]
                 and res["dyadic_growth"] <= th["growth_tol"])
    except (KeyError, TypeError):
        return errs + ["criteria or thresholds missing"]
    if meets != res.get("is_cokernel"):
        errs.append("verdict disagrees with the reported criteria and thresholds")
    table = out["table"]
    xi = classify_xi()
    if out["header"] != "xi,re,im" or table.shape != (xi.size, 3):
        return errs + [f"multiplier table {out['header']!r} {table.shape}, want {xi.size} rows"]
    if not np.allclose(table[:, 0], xi, rtol=1e-13, atol=0):
        errs.append("xi column is not the fit window of the classify grid")
    if p["expect_cokernel"]:
        m = p["member"]
        want = multiplier(xi, m["a"], m["k"])
        got = table[:, 1] + 1j * table[:, 2]
        err = float(np.max(np.abs(got - want) / np.abs(want)))
        if not err <= MULTIPLIER_TOL:
            errs.append(f"multiplier off its closed form by {err:.2e} (tol {MULTIPLIER_TOL:g})")
    return errs


def branch_parts(family, t):
    """The two basis solutions of each family in closed form."""
    t = np.asarray(t, dtype=float)
    if family == "X":
        xa = t * np.exp(t / 2.0)
        xb = np.exp(-t / 2.0) - t * np.exp(t / 2.0) * special.exp1(t)
        return xa, xb
    # J(t) = Ei(t) - gamma - ln t - (e^t - 1 - t) / t
    J = special.expi(t) - np.euler_gamma - np.log(t) - (np.expm1(t) - t) / t
    ya = np.exp(-t / 2.0) * (1.0 - t * np.log(t) - t * J)
    yb = t * np.exp(-t / 2.0)
    return ya, yb


def check_tabulate(op, out, cache) -> list:
    errs = _status(out)
    if errs:
        return errs
    p = op.params
    t0, t1 = p["range"]
    n = p["points"]
    if op.out is None:
        res = out["json"]
        echo = (res.get("family"), res.get("A"), res.get("B"), res.get("range"), res.get("points"))
        if echo != (p["family"], p["A"], p["B"], [t0, t1], n):
            errs.append(f"echo: {echo!r}")
        r = res.get("max_residual")
        if not (isinstance(r, float) and r <= RESIDUAL_TOL):
            errs.append(f"max_residual {r!r} (tol {RESIDUAL_TOL:g})")
        return errs
    table = out["table"]
    if out["header"] != "t,re,im,residual" or table.shape != (n, 4):
        return errs + [f"table {out['header']!r} {table.shape}, want ({n}, 4)"]
    t = np.geomspace(t0, t1, n)
    if not np.allclose(table[:, 0], t, rtol=1e-14, atol=0):
        errs.append("t column is not the geometric grid of the range")
    A, B = complex(*p["A"]), complex(*p["B"])
    pa, pb = branch_parts(p["family"], t)
    want = A * pa + B * pb
    got = table[:, 1] + 1j * table[:, 2]
    size = np.abs(A * pa) + np.abs(B * pb)
    err = float(np.max(np.abs(got - want) / size))
    if not err <= BRANCH_TOL:
        errs.append(f"branch values off the closed forms by {err:.2e} (tol {BRANCH_TOL:g})")
    resid = table[:, 3]
    if not (np.all(np.isfinite(resid)) and float(np.max(resid)) <= RESIDUAL_TOL):
        errs.append(f"residual column reaches {float(np.max(resid))!r} (tol {RESIDUAL_TOL:g})")
    return errs


# ---------------------------------------------------------------------------
# battery: the program's verdicts and the paper's constants


def check_battery(op, out, cache) -> list:
    errs = _status(out)
    if errs:
        return errs
    reports = out["json"]
    ids = cache["check_ids"] if op.params["check"] == "all" else [op.params["check"]]
    failed = [r["check_id"] for r in reports if not r["pass"]]
    if failed:
        errs.append(f"reports that do not pass: {failed}")
    for cid in ids:
        own = [r for r in reports if r["check_id"] == cid or r["check_id"].startswith(cid + "/")]
        if not any(r["parameters"].get("negative_control") and r["pass"] for r in own):
            errs.append(f"check {cid!r} has no passing negative control")
    for r in reports:
        if r["parameters"].get("degenerate"):
            continue
        want = r["lhs"] / r["rhs"] if r["rhs"] != 0.0 else math.inf
        if not (r["ratio"] == want or math.isclose(r["ratio"], want, rel_tol=1e-15)):
            errs.append(f"{r['check_id']}: ratio {r['ratio']!r} is not lhs/rhs {want!r}")
    by_id = {r["check_id"]: r for r in reports}

    def value(cid):
        r = by_id.get(cid)
        if r is None:
            errs.append(f"report {cid!r} is missing")
            return math.nan
        return r["lhs"]

    if "cup-norm" in ids:
        for cid in ("cup-norm/battery-F", "cup-norm/battery-dbarF"):
            v = value(cid)
            tol = by_id.get(cid, {}).get("tolerance", 0.0)
            if not v <= 4.0 * (1.0 + tol):
                errs.append(f"{cid}: {v!r} above the sharp constant 4")
        v = value("cup-norm/tuned-member")
        if not 3.0 <= v <= 4.0:
            errs.append(f"cup-norm/tuned-member: {v!r} outside [3, 4]")
    if "minimal-solver" in ids:
        for cid in ("minimal-solver/bound-F", "minimal-solver/bound-dbarF"):
            v = value(cid)
            if not v <= 4.0:
                errs.append(f"{cid}: {v!r} above the solver bound 4")
    return errs


CHECKS = {
    "battery": check_battery,
    "transform": check_transform,
    "classify": check_classify,
    "tabulate": check_tabulate,
}


# ---------------------------------------------------------------------------
# negative controls: each returns a corrupted copy, or None where it does not apply


def _edit_json(edit):
    def corrupt(out):
        if out["json"] is None:
            return None
        bad = copy.deepcopy(out)
        edit(bad["json"])
        return bad
    return corrupt


def _edit_table(edit):
    def corrupt(out):
        if out["table"] is None:
            return None
        return {**out, "table": edit(out["table"].copy())}
    return corrupt


def _set_lhs(cid, value):
    def edit(reports):
        for r in reports:
            if r["check_id"] == cid:
                r["lhs"] = value
                r["ratio"] = value / r["rhs"]
    corrupt = _edit_json(edit)
    # applies where the report exists: `verify all`, not a single other check
    return lambda out: corrupt(out) if any(r["check_id"] == cid for r in out["json"]) else None


def _flip_first_pass(reports):
    reports[0]["pass"] = False


def _drop_controls_of_first(reports):
    head = reports[0]["check_id"].split("/")[0]
    reports[:] = [r for r in reports if not (r["check_id"].startswith(head)
                                             and r["parameters"].get("negative_control"))]


def _skew_ratio(reports):
    r = next(r for r in reports if not r["parameters"].get("degenerate") and r["rhs"] != 0.0)
    r["ratio"] = r["ratio"] * (1.0 + 1e-9)


def _shift_x(table):
    table[:, 0] += 0.5 * (table[1, 0] - table[0, 0])
    return table


def _scale_columns(cols, factor):
    def edit(table):
        table[:, cols] *= factor
        return table
    return edit


def _scale_key(key, factor):
    def edit(meta):
        meta[key] *= factor
    return edit


def _grid_l(meta):
    meta["grid"]["L"] *= 2.0


def _flip_verdict(res):
    res["is_cokernel"] = not res["is_cokernel"]


def _shift_rows(table):
    table[:-1, 1:3] = table[1:, 1:3]
    return table


def _bad_residual(table):
    table[len(table) // 2, 3] = 1.0
    return table


CONTROLS = {
    "battery": [
        ("report-fails", _edit_json(_flip_first_pass)),
        ("negative-control-missing", _edit_json(_drop_controls_of_first)),
        ("ratio-not-lhs-over-rhs", _edit_json(_skew_ratio)),
        ("cup-norm-above-4", _set_lhs("cup-norm/battery-F", 4.1)),
        ("tuned-member-below-3", _set_lhs("cup-norm/tuned-member", 2.9)),
        ("minimal-solver-above-4", _set_lhs("minimal-solver/bound-dbarF", 4.01)),
    ],
    "transform": [
        ("row-dropped", _edit_table(lambda t: t[:-1])),
        ("x-off-by-half-a-cell", _edit_table(_shift_x)),
        ("values-times-pi", _edit_table(_scale_columns(slice(2, 4), math.pi))),
        ("output_l2-times-pi", _edit_json(_scale_key("output_l2", math.pi))),
        ("input_l2-off", _edit_json(_scale_key("input_l2", 1.0 + 1e-9))),
        ("grid-echo-wrong", _edit_json(_grid_l)),
    ],
    "classify": [
        ("verdict-flipped", _edit_json(_flip_verdict)),
        ("xi-window-shifted", _edit_table(lambda t: t[1:])),
        # applies to the cokernel members, whose multiplier is checked
        ("multiplier-1%-off", _edit_table(_scale_columns(slice(1, 3), 1.01))),
    ],
    "tabulate": [
        ("values-one-row-late", _edit_table(_shift_rows)),
        ("residual-large", _edit_table(_bad_residual)),
        ("max_residual-large", _edit_json(lambda r: r.update(max_residual=1.0))),
    ],
}


def run_controls(op, out, cache) -> list:
    """(name, rejected) for every control that applies to this output."""
    results = []
    for name, corrupt in CONTROLS[op.kind]:
        if name == "multiplier-1%-off" and not op.params.get("expect_cokernel"):
            continue
        bad = corrupt(out)
        if bad is None:
            continue
        results.append((name, bool(CHECKS[op.kind](op, bad, cache))))
    return results
