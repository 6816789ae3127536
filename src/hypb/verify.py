"""Certification battery: every claimed identity and bound as a numerical check.

Each check compares computed quantities at a stated tolerance and emits one
CheckReport per sub-claim, plus at least one negative control: a deliberately
broken variant that must violate the tolerance.  A control report "passes"
when the violation occurs as expected, so a fully green battery certifies
both that the identities hold and that the checks can detect failure.

Conventions shared by all checks:

  * the battery box is the upper-half-plane window [-L, L] x (0, H] from
    RunConfig (default DEFAULT_BOX at 256^2, square cells);
  * some members are calibrated on their own pinned grids (annihilation
    needs a large box, the tuned averaging member needs a tall thin one),
    and some checks pin their grid size on DEFAULT_BOX (`_box_spec`);
    those grids are fixed constants, not RunConfig-driven.  A RunConfig's
    grid reaches the checks only as `battery_spec()`;
  * the battery member is the selector BATTERY; `_fields(member, spec, ...)`
    parses a selector (`testfuncs.parse_testfn`) and samples its closed forms;
  * RunConfig refuses a grid on which the battery member has L^q norm 0
    (q = 2 or an exponent of two-sided-p), so no check meets a zero member;
  * `_norm_sides(member, spec, method)` gives both sides of the p = 2 norm
    identity, by a transform method or from the closed forms; `_sides` alone
    assembles them, over its inputs (nullspace's defect side too, for memory);
  * each check computes each operator value, samples each closed form and
    classifies each member once (the wrong-branch control refits its block);
  * checks at p = 2 use exact constants only.  Conjectured p != 2 constants
    enter only the labeled consistency checks and are never treated as
    verified bounds.

Every check body, `(cfg, rec)`, writes its reports through one `_Recorder`
that `run_checks` makes with the check's registry key as id prefix; the body
sets its default grid and method once (`rec.on`) and returns nothing:

  * a report's runtime_ms is its own span: the time since the check's
    previous report, or since the check began for the first one, so a
    check's reports sum to its wall time;
  * a bar verdict (`at_most`, `at_least`) takes the value and the bar once;
    the bar is both rhs and tolerance.  Comparisons that are not a plain bar
    (brackets, relative bounds, floors, classifier flags) go through `record`
    with lhs, rhs, tolerance and the comparison written out;
  * a report is a negative control exactly when its id holds "/control-";
    the recorder puts `negative_control: true` first in its parameters, and
    the control passes exactly when its comparison, stated as the claim
    states it, fails;
  * a value reported for contrast, with no bar, goes through `reported`.

Determinism: every random draw derives from a fixed base seed plus
RunConfig.seed, reductions are fixed-shape, and runtime_ms is the only
report field that varies between identical runs.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .calculus import d, d_bar, dbar_down
from .grid import (
    Field,
    GridSpec,
    PlaneKind,
    WeightKind,
    inner_product,
    lp_norm,
)
from . import kernels as kn
from .report import CheckReport
from . import testfuncs as tf
from . import transforms as tr
from . import whittaker as wh

__all__ = [
    "DEFAULT_BOX",
    "RunConfig",
    "HARDY_P2",
    "CUP_NORM_P2",
    "C2",
    "conjectured_bp",
    "CHECKS",
    "run_checks",
]

HYP = WeightKind.HYPERBOLIC
DUAL = WeightKind.DUAL_HYPERBOLIC


# proven p = 2 constants; everything else is conjecture, kept separate
HARDY_P2 = 16.0     # boundary-decay inequality constant, squared scale
CUP_NORM_P2 = 4.0   # upward transform L2 -> weighted-L2 norm
C2 = 4.0            # minimal-solver norm bound


def conjectured_bp(p: float) -> float:
    """Conjectured two-sided constant for p != 2.  Not a verified bound."""
    if p <= 1.0:
        raise ValueError("p must exceed 1")
    if p == 2.0:
        raise ValueError("p = 2 uses the exact constant 1 of the norm identity")
    return max(p - 1.0, 1.0 / (p - 1.0))


# the default battery box (L, H) and the battery member
DEFAULT_BOX = (2.8, 5.6)
BATTERY = "gaussian:c=2,sigma=4"


@dataclass
class RunConfig:
    """The battery's grid, box, method, p and seed.  Made only for a grid the
    checks can run on, else ValueError: one GridSpec refuses, one under the
    fd4 stencil's 5 cells per axis, or a zero member (module docstring); and
    only for a finite p > 1 and a seed >= 0."""

    nx: int = 256
    ny: int = 256
    L: float = DEFAULT_BOX[0]
    H: float = DEFAULT_BOX[1]
    method: str = "fft"
    p: float = 2.0
    seed: int = 0

    def __post_init__(self):
        if not 1 < self.p < math.inf:
            raise ValueError(f"p = {self.p!r}; expected a finite p > 1")
        if self.seed < 0:  # checks seed their generators with a base seed plus it
            raise ValueError(f"seed = {self.seed}; expected an integer >= 0")
        if min(self.nx, self.ny) < 5:
            raise ValueError("the checks need n >= 5, the width of the fd4 stencil")
        [F] = _fields(BATTERY, self.battery_spec(), "f")
        for q in (2.0, *self.two_sided_ps()):
            if lp_norm(F, q) == 0.0:
                raise ValueError(f"the battery member {BATTERY} has L^{q:g} norm 0 "
                                 f"on the grid: |f|^{q:g} underflows below the float range")

    def two_sided_ps(self) -> tuple:
        """The exponents two-sided-p takes: p, or 4/3 and 4 at p = 2 (norm-identity's case)."""
        return (self.p,) if self.p != 2.0 else (4.0 / 3.0, 4.0)

    def battery_spec(self) -> GridSpec:
        return GridSpec(L=self.L, H=self.H, nx=self.nx, ny=self.ny, plane=PlaneKind.UPPER)


# ---------------------------------------------------------------------------
# shared helpers and calibrated members


def _box_spec(n: int) -> GridSpec:
    """DEFAULT_BOX at n x n cells, whatever the RunConfig box."""
    return GridSpec(*DEFAULT_BOX, nx=n, ny=n, plane=PlaneKind.UPPER)


def _quintic(u: np.ndarray) -> np.ndarray:
    # C^2 ramp with modest curvature; used where exp-type ramps oscillate too hard
    u = np.clip(u, 0.0, 1.0)
    return u**3 * (10.0 + u * (-15.0 + 6.0 * u))


def _fields(member: str, spec: GridSpec, *which: str) -> list:
    """The closed forms `which` ("f", "d", "dbar", "lap", "d2") of a selector member on spec."""
    fn = tf.parse_testfn(member)
    return [tf.sample(fn, spec, w) for w in which]


def _norm_sides(member: str, spec: GridSpec, method: str, coefficients=(0.5j,), top=True) -> list:
    """[M B_down f, then M f + c S f for each c of coefficients] on f = lap F for
    a selector member F, S = C_down + conj C_down conj: the sides of the p = 2
    norm identity (c = i is its doubled-coefficient control).  "closed-form"
    takes B_down f = d2 F and S f = dF + dbar F; top=False gives None for B_down f.
    """
    if method == "closed-form":
        f, d2F, dF, dbF = _fields(member, spec, "lap", "d2", "d", "dbar")
        return _sides(f, d2F.data, dF.data + dbF.data, coefficients)
    [f] = _fields(member, spec, "lap")
    bf = tr.transform(f, "beurling_down", method).data if top else None
    return _sides(f, bf, tr.transform(f, "defect_sum", method).data, coefficients)


def _sides(f: Field, bf, s, coefficients=(0.5j,)) -> list:
    """`_norm_sides` from the field f and the arrays B_down f (or None) and S f.
    It consumes f and s: M f is written over f.data, the last side over s."""
    y = f.spec.y.reshape(-1, 1)
    Mf = np.multiply(y, f.data, out=f.data)
    sides = [Mf + c * s for c in coefficients[:-1]]
    s *= coefficients[-1]
    s += Mf
    return [None if bf is None else y * bf] + sides + [s]


def _rel_l2(spec: GridSpec, a: np.ndarray, b: np.ndarray) -> float:
    num = lp_norm(Field(spec, a - b), 2.0)
    den = lp_norm(Field(spec, b), 2.0)
    return num / (den + 1e-300)


def _rel_pointwise(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b)) / (np.max(np.abs(b)) + 1e-300))


class _Recorder:
    """The reports of one check (module docstring: recorder conventions).

    Ids are `prefix/name`, or the bare prefix when name is empty.  A report
    takes the grid and method that the check set with `on` unless `spec` or
    `method` is given; its other keyword arguments are its parameters.  A
    check that evaluates no grid sets spec None, and its reports' grid is None.
    """

    def __init__(self, prefix: str):
        self.prefix, self.spec, self.method = prefix, None, None
        self.reports: list = []
        self._mark = time.perf_counter()

    def on(self, spec: Optional[GridSpec], method: str) -> Optional[GridSpec]:
        """Set the check's default grid and method; returns the grid."""
        self.spec, self.method = spec, method
        return spec

    def record(self, name: str, lhs, rhs, tol, holds, *, spec: Optional[GridSpec] = None,
               method: Optional[str] = None, notes: Optional[dict] = None, **parameters):
        """A control passes exactly when `holds` fails; a NaN lhs or rhs never passes."""
        check_id = f"{self.prefix}/{name}" if name else self.prefix
        control = "/control-" in check_id
        if control:
            parameters = dict(negative_control=True, **parameters)
        ratio = lhs / rhs if rhs != 0.0 else math.inf
        grid = spec or self.spec
        passed = bool(holds) != control and not (math.isnan(lhs) or math.isnan(rhs))
        self._add(CheckReport(check_id, parameters, float(lhs), float(rhs), float(ratio),
                              float(tol), passed, grid.summary() if grid else None,
                              method or self.method, notes=notes or {}))

    def at_most(self, name: str, value, bar, **kw):
        self.record(name, value, bar, bar, value <= bar, **kw)

    def at_least(self, name: str, value, bar, **kw):
        self.record(name, value, bar, bar, value >= bar, **kw)

    def reported(self, name: str, value, **kw):
        """A value reported for contrast: no bar, rhs and tolerance infinite, a pass."""
        self.record(name, value, math.inf, math.inf, True, label="reported", **kw)

    def _add(self, report: CheckReport):
        now = time.perf_counter()
        report.runtime_ms = (now - self._mark) * 1000.0
        self._mark = now
        self.reports.append(report)


def dipole_agreement_field(spec: GridSpec) -> Field:
    """Gentle mean-zero dipole: the only fields on which the fft and table
    paths of the singular-kernel transform agree at 1e-3 on method-agreement's
    128^2 grid.

    The table quadrature carries an O(h^2) error proportional to the field's
    curvature, so the member keeps every length scale comparable to the box:
    an x-window with wide quintic ramps times d/dy of a wide arch (mean-zero
    in y by construction), with a modulation e^{0.8 i x} so the transform
    acts nontrivially.  The residual grid-mean is projected onto the window.
    """
    X, Y = np.meshgrid(spec.x, spec.y)
    wx = _quintic((spec.L - 0.1 - np.abs(X)) / 1.9)
    y0, y1 = 0.15 * spec.H, 0.85 * spec.H
    u = np.clip((Y - y0) / (y1 - y0), 0.0, 1.0)
    darch = 3.0 * np.pi / (y1 - y0) * np.sin(np.pi * u) ** 2 * np.cos(np.pi * u)
    f = wx * darch * np.exp(0.8j * X)
    w = wx * np.sin(np.pi * u) ** 2
    return Field(spec, f - (np.sum(f) / np.sum(w)) * w)


# pinned grid for the tuned averaging member: tall and thin, so the profile
# resolves three decades of heights while the x-window stays wide
_TUNED_SPEC = dict(L=9.0, H=1.5, nx=192, ny=3072)


def tuned_cup_member(xi: float = 0.05) -> tuple:
    """Near-extremal member for the upward-transform norm bound.

    At low x-frequency the transform reduces, column by column, to the
    averaging operator psi -> (2/y) int_0^y psi, whose norm 2 on the
    half-line doubles through the weighted output norm.  The extremal
    profile is t^(-1/2) truncated over a long log-interval; the member is
    that profile times a wide x-window with a small positive modulation.
    Measured ratio 3.22 against the bound 4 (the wrong modulation sign
    collapses it to 2.0, which is the negative control).
    """
    spec = GridSpec(plane=PlaneKind.UPPER, **_TUNED_SPEC)
    x, y = spec.x, spec.y[:, None]
    prof = tf.hardy_family(0.5, 24, ramp=0.8).profile.f(y) / y  # y > 0 at every cell centre
    wx = _quintic((spec.L - 0.05 - np.abs(x)) / 3.0)
    return spec, Field(spec, wx * np.exp(1j * xi * x) * prof)


# banded_field keeps the frequencies |k| <= this fraction of the sampling rate
_BAND_KMAX_FRAC = 0.125


def banded_field(spec: GridSpec, rng: np.random.Generator) -> Field:
    """Band-limited, compactly supported, exactly mean-zero random field."""
    ny, nx = spec.ny, spec.nx
    coeff = rng.standard_normal((ny, nx)) + 1j * rng.standard_normal((ny, nx))
    ky = np.abs(np.fft.fftfreq(ny))[:, None]
    kx = np.abs(np.fft.fftfreq(nx))[None, :]
    band = (np.maximum(kx, ky) <= _BAND_KMAX_FRAC) & ~((kx == 0) & (ky == 0))
    g = np.fft.ifft2(coeff * band)
    X, Y = np.meshgrid(spec.x, spec.y)
    w = _quintic((spec.L - np.abs(X)) / (0.25 * spec.L)) * _quintic(
        (spec.H - np.abs(Y)) / (0.25 * spec.H)
    )
    f = g * w
    return Field(spec, f - (np.sum(f) / np.sum(w)) * w)


# ---------------------------------------------------------------------------
# checks


def check_norm_identity_p2(cfg: RunConfig, rec: _Recorder, mode: str = "transform"):
    """Isometry between the two derivative sides at p = 2.

    closed mode: compares || M d2 F || with || M lap F + (i/2)(dF + dbarF) ||
    from sampled closed-form derivatives (tolerance 1e-4).  transform mode:
    rebuilds the right side from the downward transforms of f = lap F and the
    left side from the singular transform (tolerance 1e-3).  The control
    doubles the i/2 coefficient, which moves the ratio by 4e-2.
    """
    closed = mode == "closed"
    spec = rec.on(cfg.battery_spec(), "closed-form" if closed else cfg.method)
    lhs, rhs, rhs_ctl = (lp_norm(Field(spec, side), 2.0)
                         for side in _norm_sides(BATTERY, spec, rec.method, (0.5j, 1.0j)))
    tol = 1e-4 if closed else 1e-3
    rec.record("", lhs, rhs, tol, abs(lhs / rhs - 1.0) <= tol, member=BATTERY, p=2.0)
    rec.record("control-doubled-coefficient", lhs, rhs_ctl, tol, abs(lhs / rhs_ctl - 1.0) <= tol,
               expected="ratio deviates")


def check_two_sided_lp(cfg: RunConfig, rec: _Recorder):
    """Two-sided ratio at p != 2 against the conjectured constant.

    Labeled consistency, not verification: passing only says the measured
    ratio sits inside the conjectured bracket with slack, and the reported
    empirical ratio is the datum.  p = 2 is refused here (exact identity).
    """
    spec = rec.on(cfg.battery_spec(), cfg.method)
    top, bot = _norm_sides(BATTERY, spec, cfg.method)
    tol = 1e-3
    for p in cfg.two_sided_ps():
        bp = conjectured_bp(p)
        ratio = lp_norm(Field(spec, top), p) / lp_norm(Field(spec, bot), p)
        lo, hi = (1.0 / bp) / (1.0 + tol), bp * (1.0 + tol)
        rec.record(f"p={p:g}", ratio, bp, tol, lo <= ratio <= hi, label="consistency", p=p,
                   bracket=[1.0 / bp, bp])
        # control: an artificially tight bracket must reject the same ratio
        tight = 1.05
        rec.record(f"p={p:g}/control-tight-bracket", ratio, tight, tol,
                   1.0 / tight <= ratio <= tight, label="consistency")


def check_planar_isometry(cfg: RunConfig, rec: _Recorder):
    """Whole-plane transform preserves the L2 norm of mean-zero fields.

    Ten seeded band-limited compactly supported fields on a full-plane grid;
    the fft path with padding 1 is exact to rounding because the discrete
    multiplier is unimodular away from the zero mode and the Nyquist lines,
    and the band-limited fields carry nothing on those lines.  A mean-bearing
    bump breaks the hypothesis and moves the ratio by 1e-2.
    """
    spec = rec.on(GridSpec(L=4.0, H=4.0, nx=256, ny=256, plane=PlaneKind.FULL), "fft")
    rng = np.random.default_rng(20260815 + cfg.seed)
    tol = 1e-6
    worst = 0.0
    for _ in range(10):
        f = banded_field(spec, rng)
        r = lp_norm(tr.transform(f, "beurling", padding=1), 2.0) / lp_norm(f, 2.0)
        worst = max(worst, abs(r - 1.0))
    rec.record("", 1.0 + worst, 1.0, tol, worst <= tol, fields=10, kmax_frac=_BAND_KMAX_FRAC,
               padding=1, seed=20260815 + cfg.seed)
    zz = spec.zz()
    fb = Field(spec, np.exp(-4.0 * np.abs(zz) ** 2))
    dev = abs(lp_norm(tr.transform(fb, "beurling", padding=1), 2.0) / lp_norm(fb, 2.0) - 1.0)
    rec.record("control-mean-bearing", 1.0 + dev, 1.0, tol, dev <= tol)


def _potential_residuals(member: str, spec: GridSpec) -> tuple:
    """Relative L2 residuals of dG = M d2F and dbar G = M lapF + (i/2)(dF + dbarF) for
    G = M dF + (i/2) F, F the selector member, then of dbar G for the control's - (i/2)."""
    y = spec.y.reshape(-1, 1)
    F, dF, dbF, lapF, d2F = _fields(member, spec, "f", "d", "dbar", "lap", "d2")
    target_d, target_db = _sides(lapF, d2F.data, dF.data + dbF.data)
    G, G_wrong = (Field(spec, y * dF.data + c * F.data) for c in (0.5j, -0.5j))
    return (_rel_l2(spec, d(G).data, target_d), _rel_l2(spec, d_bar(G).data, target_db),
            _rel_l2(spec, d_bar(G_wrong).data, target_db))


def check_derivative_identities(cfg: RunConfig, rec: _Recorder):
    """The potential G = M dF + (i/2) F reproduces both target derivatives.

    dG must equal M d2 F and dbar G must equal M lap F + (i/2)(dF + dbarF);
    both are checked with fourth-order finite differences against sampled
    closed forms.  Flipping the i/2 sign in G is the control.  `h-order`
    takes the dbar residual on DEFAULT_BOX under dyadic refinement, at the
    commutators' bar; the wrong-sign potential's residual does not fall.
    """
    spec = rec.on(cfg.battery_spec(), "fd4")
    tol = 1e-4
    err_d, err_db, err_wrong = at_battery = _potential_residuals(BATTERY, spec)
    rec.at_most("d", err_d, tol, member=BATTERY)
    rec.at_most("dbar", err_db, tol, member=BATTERY)
    rec.at_most("control-wrong-potential", err_wrong, tol)
    grids, thr = (64, 128, 256), 3.5
    # a refinement grid that is the battery grid reuses its residuals
    by_grid = [at_battery if g == spec else _potential_residuals(BATTERY, g)
               for g in map(_box_spec, grids)]
    for name, k in (("h-order", 1), ("control-order-wrong-potential", 2)):
        errs = [res[k] for res in by_grid]
        orders, _, ok = _refinement(errs, thr)
        rec.record(name, min(orders), thr, thr, ok, spec=_box_spec(grids[-1]),
                   grids=list(grids), errors=errs, orders=orders, member=BATTERY)


def _commutator_errors(member: str, ngrid: int) -> list:
    """Relative residuals of [d, y^n] F = -(i/2) n y^(n-1) F, n = -2, -1, 1, 2, then of the
    control's +(i/2) n at n = 2, from one sample of F and one dF on DEFAULT_BOX at ngrid^2."""
    spec = _box_spec(ngrid)
    [F] = _fields(member, spec, "f")
    dF, y = d(F).data, spec.y.reshape(-1, 1)
    errs = []
    for n in (-2, -1, 1, 2):
        lhs = d(Field(spec, y**n * F.data)).data - y**n * dF
        for sign in (-1, 1) if n == 2 else (-1,):
            errs.append(_rel_l2(spec, lhs, (sign * 0.5j * n) * y ** (n - 1) * F.data))
    return errs


def _refinement(errs: list, threshold: float) -> tuple:
    """Orders log2(e_k / e_k+1) of errors on dyadic grids, whether the errors
    fall monotonically, and the verdict: monotone and min(orders) >= threshold."""
    orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
    monotone = all(a > b for a, b in zip(errs, errs[1:]))
    return orders, monotone, monotone and min(orders) >= threshold


def check_commutators(cfg: RunConfig, rec: _Recorder):
    """[d, y^n] = -(i/2) n y^(n-1) at fourth order under dyadic refinement."""
    grids, thr = (64, 128, 256), 3.5
    rec.on(_box_spec(grids[-1]), "fd4")
    member = "gaussian:c=2.8,sigma=8"  # steep, clear of the axis: y^n amplifies axis tails
    by_grid = [_commutator_errors(member, g) for g in grids]
    for n, errs in zip((-2, -1, 1, 2), map(list, zip(*by_grid))):  # zip leaves the control out
        orders, _, ok = _refinement(errs, thr)
        rec.record(f"n={n}", min(orders), thr, thr, ok, grids=list(grids), errors=errs,
                   orders=orders, member=member)
    rec.at_most("control-wrong-sign", by_grid[-1][-1], 0.5, n=2)  # O(1) instead of O(h^4)


def check_transform_oracles(cfg: RunConfig, rec: _Recorder):
    """Each transform reproduces its closed-form action on the gaussian member.

    The four half-plane oracles feed f = lap F (or dbar F) through a kernel
    and compare with the sampled derivative that the kernel must produce.
    The whole-plane singular transform is checked against its radial closed
    form on a central window (the frame is periodization-dominated).
    """
    spec, m = rec.on(cfg.battery_spec(), cfg.method), rec.method
    F, dF, dbF, lapF, d2F = _fields(BATTERY, spec, "f", "d", "dbar", "lap", "d2")
    tol = 1e-3
    c_down = tr.transform(lapF, "cauchy_down", m).data
    cases = [
        ("c_down", c_down, dF.data),
        ("conj-c_down", tr.transform(lapF.conj(), "cauchy_down", m).data.conj(), dbF.data),
        ("b_down", tr.transform(lapF, "beurling_down", m).data, d2F.data),
        ("c_up", tr.transform(dbF, "cauchy_up", m).data, F.data),
    ]
    for name, got, want in cases:
        rec.at_most(name, _rel_l2(spec, got, want), tol, member=BATTERY)
    # planar closed form on the central half-window
    fspec = GridSpec(L=4.8, H=4.8, nx=128, ny=128, plane=PlaneKind.FULL)
    X, Y = np.meshgrid(fspec.x, fspec.y)
    zeta = (X + 1j * Y) - 2.0j
    r2 = np.abs(zeta) ** 2
    E = np.exp(-4.0 * r2)
    closed = (np.conj(zeta) / zeta) * (E - (1.0 - E) / (4.0 * r2))
    out = tr.transform(Field(fspec, E.astype(complex)), "beurling")
    mask = (np.abs(X) <= 2.4) & (np.abs(Y - 2.0) <= 2.4)
    e = _rel_l2(fspec, out.data * mask, closed * mask)
    rec.at_most("b-planar-closed-form", e, tol, spec=fspec, method="fft",
                member="radial gaussian", window="central")
    # wrong-target control
    rec.at_most("control-wrong-target", _rel_l2(spec, c_down, dbF.data), tol)


def check_method_agreement(cfg: RunConfig, rec: _Recorder):
    """fft and table-quadrature paths agree on grid-matched members.

    Agreement is measured on DEFAULT_BOX at 128^2 whatever the RunConfig
    grid, which bounds the check's cost: the quadrature tables grow with the
    grid (0.10-0.12 s here, 0.43-0.57 s at 256^2 on a 2-core x86-64 host).
    The smooth-kernel transforms agree on the gaussian member; the singular
    one needs the low-curvature dipole member and fft padding 6 because its
    1/z^2 tail periodizes slowly (padding 1 is the control: 0.16).
    """
    spec = rec.on(_box_spec(128), "fft-vs-quadrature")
    [lapF] = _fields(BATTERY, spec, "lap")
    tol = 1e-3
    for name, kernel in (("c_down", "cauchy_down"), ("c_up", "cauchy_up")):
        a, b = (tr.transform(lapF, kernel, m).data for m in ("fft", "quadrature"))
        rec.at_most(name, _rel_l2(spec, a, b), tol, member=BATTERY)
    f = dipole_agreement_field(spec)
    a = tr.transform(f, "beurling_down", padding=6)
    b = tr.transform(f, "beurling_down", "quadrature")
    rec.at_most("b_down", _rel_l2(spec, a.data, b.data), tol, member="dipole", padding=6)
    a1 = tr.transform(f, "beurling_down", padding=1)
    rec.at_most("control-padding-1", _rel_l2(spec, a1.data, b.data), tol, padding=1)


def check_structural_identities(cfg: RunConfig, rec: _Recorder):
    """Kernel-level factorizations hold per summand in matched quadrature.

    With matched averaging the two sides of each identity are the same
    finite sum term by term, so agreement is rounding-exact (1e-10 demanded,
    1e-15 typical).  Mixing averaging modes breaks the per-summand pairing
    and is the control.
    """
    spec, m = rec.on(_box_spec(64), "quadrature-matched"), rec.method
    [F] = _fields(BATTERY, spec, "f")
    y = spec.y.reshape(-1, 1)
    tol = 1e-10

    lhs = tr.transform(F, "cauchy_up", m).data
    up_rhs = -2j * y * tr.transform(F, "bicauchy_up", m).data
    rec.at_most("up-factorization", _rel_pointwise(lhs, up_rhs), tol)

    lhs = tr.transform(F, "cauchy_down", m).data
    rhs = 2j * tr.transform(Field(spec, y * F.data), "bicauchy_down", m).data
    rec.at_most("down-factorization", _rel_pointwise(lhs, rhs), tol)

    u1 = y * tr.transform(Field(spec, F.data / y**2), "cauchy_down", m).data
    u2 = 2j * y * tr.transform(Field(spec, F.data / y), "bicauchy_down", m).data
    rec.at_most("solver-factorization", _rel_pointwise(u1, u2), tol)

    lhs = tr.transform(F, "cauchy_up", "quadrature").data
    rec.at_most("control-averaging-mismatch", _rel_pointwise(lhs, up_rhs), tol, method="quadrature")


def check_e_identity(cfg: RunConfig, rec: _Recorder):
    """Real-kernel identity and its two weighted contraction bounds.

    (1/2)(C_down + conj C_down) equals 4 M E M per summand in matched
    quadrature; E itself contracts plain-to-dual and hyperbolic-to-plain.
    The sign-flipped combination is the control.
    """
    spec, m = rec.on(_box_spec(64), "quadrature-matched"), rec.method
    [F] = _fields(BATTERY, spec, "f")
    y = spec.y.reshape(-1, 1)
    tol = 1e-10
    down = tr.transform(F, "cauchy_down", m).data
    conj_part = tr.transform(F.conj(), "cauchy_down", m).data.conj()
    rhs = 4 * y * tr.transform(Field(spec, y * F.data), "bicauchy_real", m).data
    rec.at_most("matched", _rel_pointwise(0.5 * (down + conj_part), rhs), tol)
    bspec = cfg.battery_spec()
    [Fb] = _fields(BATTERY, bspec, "f")
    E = tr.transform(Fb, "bicauchy_real", cfg.method)
    ctol = 1e-3
    r1 = lp_norm(E, 2.0, DUAL) / lp_norm(Fb, 2.0)
    r2 = lp_norm(E, 2.0) / lp_norm(Fb, 2.0, HYP)
    rec.record("contraction-plain-to-dual", r1, 1.0, ctol, r1 <= 1.0 + ctol, spec=bspec,
               method=cfg.method)
    rec.record("contraction-hyp-to-plain", r2, 1.0, ctol, r2 <= 1.0 + ctol, spec=bspec,
               method=cfg.method)
    rec.at_most("control-minus-sign", _rel_pointwise(0.5 * (down - conj_part), rhs), tol)


def _hardy_oracle_1d(a: float, n: int, ramp: float = 1.8) -> float:
    # the ratio of int f^2/y ds to (1/4) int f'^2 y ds, s = log y, by `_de_quad`
    # over the profile's analytic pieces (the two ramps and the plateau)
    p = tf.hardy_family(a, n, ramp=ramp).profile
    s = np.log(p.knots)
    parts = lambda y: np.stack([p.f(y) ** 2 / y, p.d1(y) ** 2 * y / 4.0])
    num, den = np.sum(_de_quad(lambda t: parts(np.exp(t)), s[:-1], s[1:]), axis=-1)
    return float(num / den)


def check_hardy(cfg: RunConfig, rec: _Recorder):
    """Boundary-decay inequality: the weighted square norm is at most 16
    times the dbar energy, and the log-plateau family approaches the
    constant from below (the n = 64 member must exceed 12).

    The family lives on ungriddable log-ranges, so its ratios come from the
    one-dimensional oracle; the two-dimensional battery member is the
    gaussian.  A window whose plateau touches the boundary violates the
    decay hypothesis and sends the ratio far above 16.
    """
    spec = rec.on(cfg.battery_spec(), "grid")
    const = HARDY_P2
    tol = 1e-3
    F, dbF = _fields(BATTERY, spec, "f", "dbar")
    ratio = (lp_norm(F, 2.0, HYP) / lp_norm(dbF, 2.0)) ** 2
    rec.record("battery-gaussian", ratio, const, tol, ratio <= const * (1.0 + tol),
               member=BATTERY, p=2.0)
    family = [(8, None), (64, 12.0), (256, None)]
    values = []
    for n, floor in family:
        r = _hardy_oracle_1d(0.5, n)
        values.append(r)
        ok = r <= const * (1.0 + tol) and (floor is None or r >= floor)
        rec.record(f"family-n={n}", r, const, tol, ok, method="oracle-1d", a=0.5, n=n,
                   floor=floor)
    monotone = values[0] < values[1] < values[2] < const
    rec.record("family-monotone", values[-1], const, tol, monotone, method="oracle-1d",
               values=values)
    # control: plateau touching the boundary
    X, Y = np.meshgrid(spec.x, spec.y)
    wx = _quintic((spec.L - 0.1 - np.abs(X)) / 1.0)
    wy = _quintic((spec.H * 0.6 - Y) / 1.0)
    fctl = Field(spec, (wx * wy).astype(complex))
    rc = (lp_norm(fctl, 2.0, HYP) / lp_norm(d_bar(fctl), 2.0)) ** 2
    rec.record("control-boundary-touching", rc, const, tol, rc <= const * (1.0 + tol))


# annihilation member grid: the conjugate-rational tail decays like 1/|z|,
# so the residual is truncation-dominated and needs a large box
_ANNIHILATION_SPEC = dict(L=16.0, H=16.0, nx=384, ny=384)


def check_cup(cfg: RunConfig, rec: _Recorder):
    """Upward transform: norm bound 4, oracle recovery, and annihilation.

    (i) battery members stay under the bound and the tuned member exceeds 3;
    (ii) the transform inverts dbar on the gaussian member; (iii) it kills
    conjugate-holomorphic inputs (k = 3 member; the k = 2 tail only decays
    like 1/L, so its residual is reported, not asserted).
    """
    spec = rec.on(cfg.battery_spec(), cfg.method)
    const = CUP_NORM_P2
    tol = 1e-3
    F, dbF = _fields(BATTERY, spec, "f", "dbar")
    for name, fld in (("F", F), ("dbarF", dbF)):
        up = tr.transform(fld, "cauchy_up", cfg.method)
        r = lp_norm(up, 2.0, HYP) / lp_norm(fld, 2.0)
        rec.record(f"battery-{name}", r, const, tol, r <= const * (1.0 + tol),
                   member=f"gaussian {name}")
    rec.at_most("oracle-recovery", _rel_l2(spec, up.data, F.data), tol)  # up is C_up dbar F
    del up  # before the tuned member's 28 MB spectrum
    tspec, g = tuned_cup_member()
    rt = lp_norm(tr.transform(g, "cauchy_up"), 2.0, HYP) / lp_norm(g, 2.0)
    rec.record("tuned-member", rt, 3.0, tol, rt >= 3.0, spec=tspec, method="fft",
               profile="t^-1/2 log-plateau n=24 ramp=0.8", xi=0.05)
    _, gw = tuned_cup_member(xi=-2.0)
    rw = lp_norm(tr.transform(gw, "cauchy_up"), 2.0, HYP) / lp_norm(gw, 2.0)
    rec.record("control-wrong-modulation", rw, 3.0, tol, rw >= 3.0, spec=tspec, method="fft",
               xi=-2.0)

    aspec = GridSpec(plane=PlaneKind.UPPER, **_ANNIHILATION_SPEC)

    def annihilation(verdict, name, member, *bar, **kw):
        [g] = _fields(member, aspec, "f")
        ratio = lp_norm(tr.transform(g, "cauchy_up"), 2.0, HYP) / lp_norm(g, 2.0)
        verdict(name, ratio, *bar, spec=aspec, method="fft", **kw, member=member)

    annihilation(rec.at_most, "annihilation-k3", "conjrat:a=1,k=3", 1e-2)
    annihilation(rec.reported, "annihilation-k2-reported", "conjrat:a=1,k=2",
                 notes={"reason": "1/L truncation tail dominates at any feasible box"})
    annihilation(rec.at_most, "control-holomorphic", "holorat:a=1,k=3", 1e-1)


def check_minimal_solver(cfg: RunConfig, rec: _Recorder):
    """Minimal solution operator: norm bound 4 in the weighted norms on both
    sides, and the output actually solves the shifted dbar equation."""
    spec = rec.on(cfg.battery_spec(), cfg.method)
    const = C2
    tol = 1e-3
    F, dbF = _fields(BATTERY, spec, "f", "dbar")
    for name, fld in (("dbarF", dbF), ("F", F)):  # F last: u solves for F below
        u = tr.minimal_solve(fld, method=cfg.method)
        r = lp_norm(u, 2.0, HYP) / lp_norm(fld, 2.0, HYP)
        rec.record(f"bound-{name}", r, const, tol, r <= const * (1.0 + tol),
                   member=f"gaussian {name}")
    rec.at_most("residual", _rel_l2(spec, dbar_down(u).data, F.data), 1e-2,
                equation="shifted-dbar")
    rec.at_most("control-wrong-equation", _rel_l2(spec, d_bar(u).data, F.data), 1e-1)


# residual = box truncation ~ 1/L plus quadrature; this box and grid land at
# 9.9e-3 against the 1e-2 bar, and the check takes 0.9 s on a 2-core Xeon
# (x86-64, Python 3.11, numpy 2.4, scipy 1.17): one 3071 x 1024 half table
# built in its rows' x transforms, 3071 x 1025, whose y transform keeps the
# 1537 x 1025 rows ky in [0, 1536] of the 3072 x 2048 box's spectrum, one
# fused convolution per member, then `_sides`, which writes M f over f and
# the residual over the sum.  The defect sum traces 59 MiB from a cold cache,
# and the check alone peaks at 110 MB VmHWM: one more 1024^2 array is
# 16 MB, 12% of the battery's 130 MB peak
_NULLSPACE_SPEC = dict(L=64.0, H=64.0, nx=1024, ny=1024)


def check_nullspace(cfg: RunConfig, rec: _Recorder):
    """Conjugate-holomorphic inputs are annihilated by M + (i/2)(C + conj C)."""
    spec = rec.on(GridSpec(plane=PlaneKind.UPPER, **_NULLSPACE_SPEC), "fft")

    def residual(member):
        [f] = _fields(member, spec, "f")
        side = _sides(f, None, tr.transform(f, "defect_sum", rec.method).data)[1]
        return lp_norm(Field(spec, side), 2.0) / lp_norm(f, 2.0)  # M f is over f

    conj, holo = "conjrat:a=1,k=3", "holorat:a=1,k=3"
    rec.at_most("conjugate-member", residual(conj), 1e-2, member=conj)
    rec.at_most("control-holomorphic", residual(holo), 1e-1, member=holo)


def check_range_orthogonality(cfg: RunConfig, rec: _Recorder):
    """Output of the defect operator is orthogonal to conjugate directions."""
    spec = rec.on(cfg.battery_spec(), cfg.method)
    tol = 1e-3
    out = Field(spec, _norm_sides(BATTERY, spec, cfg.method, top=False)[1])
    conj, holo = "conjrat:a=1,k=2", "holorat:a=1,k=2"
    pc, ph = (abs(inner_product(out, w)) / (lp_norm(out, 2.0) * lp_norm(w, 2.0))
              for w in _fields(conj, spec, "f") + _fields(holo, spec, "f"))
    rec.at_most("conjugate-witness", pc, tol, witness=conj)
    rec.reported("holomorphic-witness", ph, witness=holo)
    rec.at_most("control-holomorphic-not-small", ph, tol, witness=holo)


# double-exponential quadrature: nodes at u = k h for |u| <= _DE_U, the step
# halved from 1 down to 2^-_DE_LEVELS until two levels agree to _DE_TOL times
# the integral of |f|; the terms within _DE_END of the ends stand for what the
# cut at |u| = _DE_U leaves out
_DE_U = 4.0
_DE_END = 0.25
_DE_LEVELS = 8
_DE_TOL = 1e-13


def _de_quad(f, a, b) -> np.ndarray:
    """int_a^b f(x) dx by double-exponential quadrature (H. Takahasi and
    M. Mori, Publ. RIMS 9 (1974) 721-741).

    With v = (pi/2) sinh u: tanh-sinh x = c + r tanh v on a finite [a, b]
    (c, r the midpoint and half-width), exp-sinh x = a + e^v on [a, inf),
    sinh-sinh x = sinh v on (-inf, inf); then the trapezoidal rule in u on
    |u| <= 4.  a and b may be arrays: the nodes run along a new last axis,
    and f maps an array of nodes to its values elementwise, broadcasting
    any leading axes it adds.  The step halves from 1 until two levels
    agree to 1e-13 times the integral of |f|, and the sum of the terms at
    |u| >= 3.75, which stands for the cut-off tails, must be below that bar
    too.  Either failing at step 2^-8 raises, so an integrand that does not
    decay at the ends or is infinite at an end of [a, b] (the outer nodes
    round onto it), or a divergent integral, never returns a number.
    """
    a, b = np.asarray(a, dtype=float)[..., None], np.asarray(b, dtype=float)[..., None]
    if np.all(np.isfinite(a)) and np.all(np.isfinite(b)):
        c, r = (a + b) / 2.0, (b - a) / 2.0
        node = lambda v: c + r * np.tanh(v)
        weight = lambda v: r / np.cosh(v) ** 2
    elif np.all(np.isfinite(a)) and np.all(b == np.inf):
        node = lambda v: a + np.exp(v)
        weight = np.exp
    elif np.all(a == -np.inf) and np.all(b == np.inf):
        node, weight = np.sinh, np.cosh
    else:
        raise ValueError("need a finite [a, b], [a, inf) or (-inf, inf)")
    total = absolute = tail = 0.0
    with np.errstate(all="ignore"):  # a non-finite term fails the test below
        for level in range(_DE_LEVELS + 1):
            h = 2.0**-level
            # the nodes this level adds: all of them first, then the odd multiples of h
            u = np.arange(-_DE_U, _DE_U + h / 2, h) if level == 0 else np.arange(
                h - _DE_U, _DE_U, 2 * h)
            v = 0.5 * np.pi * np.sinh(u)
            terms = h * f(node(v)) * (weight(v) * (0.5 * np.pi * np.cosh(u)))
            prev, total = total, total / 2.0 + np.sum(terms, axis=-1)
            absolute = absolute / 2.0 + np.sum(np.abs(terms), axis=-1)
            ends = np.abs(terms[..., np.abs(u) >= _DE_U - _DE_END])
            tail = tail / 2.0 + np.sum(ends, axis=-1)
            bar = _DE_TOL * absolute
            if level and np.all(np.abs(total - prev) <= bar) and np.all(tail <= bar):
                return total
    raise ArithmeticError(f"double-exponential quadrature did not converge on [{a.min()}, "
                          f"{b.max()}] at step 2^-{_DE_LEVELS}: its levels or its "
                          "end terms stay above the bar")


def check_whittaker_ode(cfg: RunConfig, rec: _Recorder):
    """Both one-dimensional solution branches satisfy their equation.

    Stencil residuals on [0.1, 30] for all four basis solutions,
    double-exponential quadrature of the X slow-branch integral against
    `x_integral`'s closed form, and two asymptotic normalizations.
    Evaluating a solution against the wrong equation sign is the control.
    """
    rec.on(None, "stencil")
    tgrid = np.geomspace(0.1, 30.0, 200)
    tol = 1e-6
    for name, family, A, B in (("X-fast", "X", 1.0, 0.0), ("X-slow", "X", 0.0, 1.0),
                               ("Y-slow", "Y", 1.0, 0.0), ("Y-fast", "Y", 0.0, 1.0)):
        rec.at_most(name, wh.ode_residual(family, A, B, tgrid), tol, family=family, A=A, B=B)
    # quadrature of the slow-branch integral against its closed form
    ts = np.geomspace(0.1, 30.0, 50)[:, None]
    quadrature = _de_quad(lambda s: np.exp(-ts * s) * s / (1.0 + s), 0.0, np.inf)
    closed = wh.x_integral(ts[:, 0])
    e = float(np.max(np.abs(quadrature - closed) / np.abs(closed)))
    rec.at_most("integral-closed-form", e, 1e-10, method="quadrature")
    a1 = abs(900.0 * wh.x_integral(30.0) - 1.0)
    rec.at_most("asymptotic-integral", a1, 0.1, method="quadrature", t=30.0, next_order="-2/t")
    a2 = abs(complex(wh.branch("Y", 1.0, 0.0, np.array([1e-4]))[0]) - 1.0)
    rec.at_most("asymptotic-slow-branch", a2, 2e-3, method="series", t=1e-4)
    rw = wh.ode_residual("X", 1.0, 0.0, tgrid, sign=-1)
    rec.at_most("control-wrong-sign", rw, 1e-2)


def check_whittaker_classify(cfg: RunConfig, rec: _Recorder):
    """Cokernel detector: accepts the weighted conjugate-rational member,
    recovers its boundary multiplier, and rejects the imposters.

    Each report's notes carry its member's x-truncation ratio (field size at
    x = +/-L over its peak), the scale of the x-truncation ripple.
    """
    spec = rec.on(wh.default_classify_spec(), "partial-fourier")
    res = wh.lemma_a1_classify(tf.RowSampler(tf.conj_rational(1, 2), spec, times_y=True))
    notes = {"x_truncation": res.x_truncation}
    tol = 1e-3
    rec.record("member-accepted", 1.0 if res.is_cokernel else 0.0, 1.0, tol, res.is_cokernel,
               notes=notes, member="M * conj((z+i)^-2)", pos_energy_frac=res.pos_energy_frac,
               fit_residual=res.fit_residual, dyadic_growth=res.dyadic_growth)
    # boundary multiplier -pi e^xi within 1e-3 on the fit window
    xi = res.xi
    target = -math.pi * np.exp(xi)
    e = float(np.max(np.abs(res.b2 - target) / np.abs(target)))
    rec.at_most("boundary-multiplier", e, tol, notes=notes,
                window=[float(xi.min()), float(xi.max())])
    wrong = wh.fit_profile(res.block, xi, spec.y, -1.0)[1]  # the growing profile, same pass
    rec.at_most("control-wrong-branch", wrong, 1e-2, notes=notes)
    for name, imposter, times_y in (("control-gaussian", BATTERY, False),
                                    ("control-holomorphic", "holorat:a=1,k=2", True)):
        r = wh.lemma_a1_classify(tf.RowSampler(tf.parse_testfn(imposter), spec, times_y=times_y))
        rec.record(name, 0.0 if r.is_cokernel else 1.0, 1.0, tol, r.is_cokernel,
                   notes={"x_truncation": r.x_truncation}, pos_energy_frac=r.pos_energy_frac)


def _strip_m2(fn, y) -> np.ndarray:
    """M2(y) = int |f(x + i y)|^2 dx over the real line, for each y of an
    array; in x = y s, so that the poisson member's scale is fixed."""
    y = np.asarray(y, dtype=float)[..., None]
    return y[..., 0] * _de_quad(lambda s: np.abs(fn.f(y * (s + 1j))) ** 2, -np.inf, np.inf)


def check_liouville(cfg: RunConfig, rec: _Recorder):
    """Strip-integral profile of harmonic members: closed value, convexity,
    and divergence of the weighted integral toward the boundary.

    The kernel member has M2(y) = pi/(2y) exactly, log M2 convex in log y,
    and dyadic blocks of int M2 / y^2 growing by 4 toward the axis.  The
    gaussian member is not harmonic and breaks convexity (control); the
    bounded harmonic members are reported for contrast.  All integrals are
    double-exponential quadratures (`_de_quad`); the four blocks are one
    nested quadrature over a 2-D array of (y, x) nodes.
    """
    rec.on(None, "quadrature")
    tol = 1e-3
    hs = tf.harmonic_samples()
    pois = hs["poisson"]
    ys = np.geomspace(0.2, 1.6, 9)
    m2 = _strip_m2(pois, ys)
    e = float(np.max(np.abs(m2 * 2.0 * ys / math.pi - 1.0)))
    rec.at_most("kernel-profile", e, tol, member="poisson", p=2.0)
    d2 = np.diff(np.log(m2), 2)
    floor = -1e-8 * float(np.max(np.abs(np.log(m2))))
    rec.record("log-convexity", d2.min(), floor, abs(floor), d2.min() >= floor, member="poisson")
    tops = 1.6 * 2.0 ** -np.arange(4.0)
    Ds = _de_quad(lambda y: _strip_m2(pois, y) / y**2, tops / 2.0, tops).tolist()
    growth = min(Ds[k + 1] / Ds[k] for k in range(3))
    rec.at_least("divergence-growth", growth, 3.5, member="poisson", blocks=Ds)
    # bounded harmonic members, reported for contrast on a lateral window
    for name in ("rez", "imz"):
        fn = hs[name]
        vals = _de_quad(lambda x: np.abs(fn.f(x + 1j * ys[:, None])) ** 2, -1.0, 1.0).tolist()
        spread = max(vals) / min(vals) - 1.0
        rec.reported(f"{name}-reported", spread, window=[-1.0, 1.0], profile=vals)
    logm = np.log(_strip_m2(tf.parse_testfn(BATTERY), np.geomspace(1.2, 2.4, 9)))
    d2g = float(np.diff(logm, 2).min())
    rec.record("control-nonharmonic", d2g, floor, abs(floor), d2g >= floor, member="gaussian")


def check_reflection_equivalence(cfg: RunConfig, rec: _Recorder):
    """The half-plane singular transform equals its two-table mirror form.

    The library sums the table rows dy / hy in (-ny, 2 ny) once over the odd
    extension of f.  Rebuilding the operator as two convolutions over f
    alone, with the whole-plane rows of that table minus its image rows
    (i + j + 1) hy, is a different summation of the same terms, so the two
    agree to rounding, not bit for bit; flipping the mirror sign is the
    control.
    """
    spec = rec.on(_box_spec(64), "quadrature")
    ny = spec.ny
    [F] = _fields(BATTERY, spec, "f")
    bd = tr.transform(F, "beurling_down", "quadrature")
    tab = kn.planar_table("beurling", range(1 - ny, 2 * ny), spec.nx, spec.hx, spec.hy,
                          average="shell")
    c1 = tr.conv_valid(tab[: 2 * ny - 1], F.data)
    c2 = tr.conv_valid(tab[ny:], F.data[::-1, :])
    tol = 1e-10
    rec.at_most("mirror-form", _rel_pointwise((c1 - c2) * spec.cell_measure, bd.data), tol)
    rec.at_most("control-flipped-sign", _rel_pointwise((c1 + c2) * spec.cell_measure, bd.data),
              tol)


def check_adjointness(cfg: RunConfig, rec: _Recorder):
    """Downward and upward product-kernel transforms are bilinear adjoints.

    The matched tables are literal transposes, so the pairing identity is
    rounding-exact.  The sesquilinear pairing is NOT preserved (the kernel
    is symmetric, not hermitian) and serves as the control.
    """
    spec, m = rec.on(_box_spec(32), "quadrature-matched"), rec.method
    rng = np.random.default_rng(7 + cfg.seed)
    fa = Field(spec, rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32)))
    ga = Field(spec, rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32)))
    Df = tr.transform(fa, "bicauchy_down", m)
    Ug = tr.transform(ga, "bicauchy_up", m)
    lhs, rhs = inner_product(Df, ga.conj()), inner_product(fa, Ug.conj())
    e = abs(lhs - rhs) / (abs(lhs) + 1e-300)
    lhss, rhss = inner_product(Df, ga), inner_product(fa, Ug)
    es = abs(lhss - rhss) / (abs(lhss) + 1e-300)
    rec.at_most("bilinear", e, 1e-10, seed=7 + cfg.seed)
    rec.at_most("control-sesquilinear", es, 1e-2)


# ---------------------------------------------------------------------------
# registry and drivers

CHECKS: dict = {
    "norm-identity": lambda cfg, rec: check_norm_identity_p2(cfg, rec, mode="transform"),
    "norm-identity-closed": lambda cfg, rec: check_norm_identity_p2(cfg, rec, mode="closed"),
    "two-sided-p": check_two_sided_lp,
    "planar-isometry": check_planar_isometry,
    "derivative-identities": check_derivative_identities,
    "commutators": check_commutators,
    "transform-oracles": check_transform_oracles,
    "method-agreement": check_method_agreement,
    "structural-identities": check_structural_identities,
    "e-identity": check_e_identity,
    "hardy": check_hardy,
    "cup-norm": check_cup,
    "minimal-solver": check_minimal_solver,
    "nullspace": check_nullspace,
    "range-orthogonality": check_range_orthogonality,
    "whittaker-ode": check_whittaker_ode,
    "whittaker-classify": check_whittaker_classify,
    "liouville": check_liouville,
    "reflection-equivalence": check_reflection_equivalence,
    "adjointness": check_adjointness,
}


def run_checks(names, cfg: Optional[RunConfig] = None) -> list:
    """Run the named checks (or all of them) and return reports sorted by id.
    Any unknown name is refused before a check runs; each check writes through
    a `_Recorder` made here as it begins, its registry key the id prefix."""
    cfg = cfg or RunConfig()
    names = list(CHECKS) if names == "all" else [names] if isinstance(names, str) else list(names)
    for name in names:
        if name not in CHECKS:
            raise KeyError(f"unknown check {name!r}; have {sorted(CHECKS)}")
    reports = []
    for name in names:
        rec = _Recorder(name)
        CHECKS[name](cfg, rec)
        reports.extend(rec.reports)
    return sorted(reports, key=lambda r: r.check_id)
