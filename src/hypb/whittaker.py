"""The degenerate confluent ODE side of the half-plane theory.

Functions h = (Im z) g with g anti-holomorphic satisfy

    y (d2/dx2 + d2/dy2) h + 2i dx h = 0,

and after a partial Fourier transform in x each frequency slice obeys,
in the variable t = 2 |xi| y,

    H''(t) = (1/4 + sign(xi)/t) H(t).

The general solutions of the two sign branches are

    X(t) = A1 t e^{t/2} + B1 t e^{-t/2} I(t),   I(t) = int_0^inf e^{-t s} s/(1+s) ds
    Y(t) = A2 e^{-t/2} (1 - t log t - t J(t)) + B2 t e^{-t/2},
                                                J(t) = int_0^t (e^s - 1 - s)/s^2 ds

(both verified here by residual tests).  The integrals are evaluated without
quadrature, vectorised over t: I by its closed form e^t E2(t)/t, J by
its power series, and both by their asymptotic series from t = 40 on.  The
battery's `whittaker-ode/integral-closed-form` check integrates I by
adaptive quadrature as the independent cross-check.

Only the B2 mode t e^{-t/2} is compatible with the weighted-energy
finiteness condition, which is what the classifier below exploits: a field
is in the cokernel class iff its partial Fourier transform is carried by
xi <= 0 with y-profile proportional to y e^{y xi}, and the fitted
coefficient B2(xi) is the classification output.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np
from scipy import special

from .grid import Field, GridSpec, PlaneKind

__all__ = [
    "WhittakerSolution",
    "whittaker_X",
    "whittaker_Y",
    "x_integral",
    "y_integral",
    "pointwise_residual",
    "ode_residual",
    "PartialFourierField",
    "partial_fourier",
    "ClassifyResult",
    "lemma_a1_classify",
    "default_classify_spec",
]


# ---------------------------------------------------------------------------
# special-function pieces


def _positive(t) -> np.ndarray:
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    if not np.all(ts > 0):
        raise ValueError("t must be positive")
    return ts


# below this t, I's closed form and J's power series; at and above it their
# asymptotic series, whose 40 terms then end near the smallest (about 1e-15
# relative to the sum)
_ASYMPTOTIC_T = 40.0
_ASYMPTOTIC_TERMS = 40
# e^t overflows past log(DBL_MAX), and with it J(t)
Y_INTEGRAL_T_MAX = math.log(sys.float_info.max)  # 709.78...


def _factorial_series(t: np.ndarray, sign: float) -> np.ndarray:
    """sum_{k=1}^{40} sign^(k+1) k!/t^k, the asymptotic series of 1 - t e^t E1(t)
    (sign -1) and of t e^-t Ei(t) - 1 (sign +1)."""
    acc = np.zeros_like(t)
    term = 1.0 / t
    for k in range(1, _ASYMPTOTIC_TERMS + 1):
        acc += term
        term = term * (sign * (k + 1) / t)
    return acc


def x_integral(t) -> np.ndarray:
    """I(t) = int_0^inf e^{-t s} s/(1+s) ds = 1/t - e^t E1(t) = e^t E2(t)/t.

    Below t = 40 the E2 form, which has no cancellation (1/t - e^t E1(t)
    loses about t ulps); from t = 40 on the asymptotic series
    sum_k (-1)^(k+1) k!/t^(k+1), which stays finite where e^t overflows.
    """
    ts = _positive(t)
    out = np.empty_like(ts)
    near = ts < _ASYMPTOTIC_T
    tn = ts[near]
    out[near] = np.exp(tn) * special.expn(2, tn) / tn
    tf = ts[~near]
    out[~near] = _factorial_series(tf, -1.0) / tf
    return out if np.ndim(t) else float(out[0])


def y_integral(t) -> np.ndarray:
    """J(t) = int_0^t (e^s - 1 - s)/s^2 ds = Ei(t) - gamma - ln t - (e^t - 1 - t)/t.

    Below t = 40 the power series, whose terms are all positive; the closed
    form cancels there (J ~ e^t/t^2 against Ei ~ e^t/t).  From t = 40 on, the
    asymptotic series of Ei.  J grows like e^t/t^2, so t past
    Y_INTEGRAL_T_MAX is refused rather than returned as inf.
    """
    ts = _positive(t)
    if np.any(ts > Y_INTEGRAL_T_MAX):
        raise OverflowError(
            f"y_integral(t) overflows for t > {Y_INTEGRAL_T_MAX:.2f} (e^t past the float range)"
        )
    out = np.empty_like(ts)
    near = ts < _ASYMPTOTIC_T
    tv = ts[near]
    acc = np.zeros_like(tv)
    term = tv.copy()  # m = 0: t / (1 * 2!)
    # sum t^(m+1) / ((m+1) (m+2)!); 110 terms reach 1e-16 at t = 40, and the
    # terms past m = 30 are below an ulp of the sum for t <= 1
    for m in range(0, 110):
        acc = acc + term / ((m + 1) * math.factorial(m + 2))
        term = term * tv
    out[near] = acc
    tf = ts[~near]
    out[~near] = (np.exp(tf) / tf * _factorial_series(tf, 1.0) + 1.0 / tf + 1.0
                  - np.euler_gamma - np.log(tf))
    return out if np.ndim(t) else float(out[0])


@dataclass
class WhittakerSolution:
    """One branch of H'' = (1/4 + sign/t) H; family X has sign +1, Y has -1."""

    family: str
    A: complex = 0.0
    B: complex = 1.0

    def __post_init__(self):
        if self.family not in ("X", "Y"):
            raise ValueError("family must be 'X' or 'Y'")

    @property
    def sign(self) -> int:
        return 1 if self.family == "X" else -1

    def __call__(self, t):
        if self.family == "X":
            return whittaker_X(t, self.A, self.B)
        return whittaker_Y(t, self.A, self.B)


def whittaker_X(t, A1: complex = 0.0, B1: complex = 1.0):
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0):
        raise ValueError("t must be positive")
    # a zero coefficient skips its branch: past t ~ 1420 e^{t/2} overflows,
    # and 0 * inf is NaN
    fast = A1 * t * np.exp(t / 2.0) if A1 != 0 else A1 * t
    slow = B1 * t * np.exp(-t / 2.0) * x_integral(t) if B1 != 0 else B1 * t
    return fast + slow


def whittaker_Y(t, A2: complex = 1.0, B2: complex = 0.0):
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0):
        raise ValueError("t must be positive")
    tlogt = t * np.log(t)  # -> 0 as t -> 0+
    # a zero A2 skips the slow branch: y_integral refuses t past 709.78
    slow = A2 * np.exp(-t / 2.0) * (1.0 - tlogt - t * y_integral(t)) if A2 != 0 else A2 * t
    return slow + B2 * t * np.exp(-t / 2.0)


def pointwise_residual(sol: WhittakerSolution, t_grid, sign: Optional[int] = None) -> tuple:
    """Values H(t) and the pointwise normalized residual of H'' = (1/4 + sign/t) H.

    Second derivative by the 5-point O(h^4) stencil with h small against the
    e^{t/2} scale; passing an explicit wrong `sign` turns this into the
    branch negative control.
    """
    s = sol.sign if sign is None else sign
    t = np.asarray(t_grid, dtype=float)
    if np.any(t <= 0):
        raise ValueError("t_grid must be positive")
    h = np.minimum(0.01 * t, 0.05)
    f0 = sol(t)
    d2 = (
        -sol(t + 2 * h) + 16 * sol(t + h) - 30 * f0 + 16 * sol(t - h) - sol(t - 2 * h)
    ) / (12.0 * h**2)
    target = (0.25 + s / t) * f0
    denom = np.abs(f0) + np.abs(d2) + 1e-300
    return f0, np.abs(d2 - target) / denom


def ode_residual(sol: WhittakerSolution, t_grid, sign: Optional[int] = None) -> float:
    """Max of `pointwise_residual` over the grid."""
    return float(np.max(pointwise_residual(sol, t_grid, sign)[1]))


# ---------------------------------------------------------------------------
# partial Fourier transform in x


@dataclass
class PartialFourierField:
    spec: GridSpec
    xi: np.ndarray  # (nx,) angular frequencies, fftfreq order
    data: np.ndarray  # (ny, nx) coefficients approximating int h e^{-i xi x} dx
    meta: dict = dc_field(default_factory=dict)


def partial_fourier(h: Field) -> PartialFourierField:
    """x-Fourier coefficients of h; meta["x_truncation"] is the field's size at
    x = +/-L relative to its peak, the scale of the x-truncation ripple."""
    spec = h.spec
    edge = max(np.max(np.abs(h.data[:, 0])), np.max(np.abs(h.data[:, -1])))
    peak = np.max(np.abs(h.data))
    ratio = float(edge / peak) if peak > 0 else 0.0
    xi = 2.0 * np.pi * np.fft.fftfreq(spec.nx, d=spec.hx)
    x0 = spec.x[0]
    data = spec.hx * np.fft.fft(h.data, axis=1) * np.exp(-1j * xi * x0)[None, :]
    meta = {**h.meta, "x_truncation": ratio}
    return PartialFourierField(spec=spec, xi=xi, data=data, meta=meta)


def default_classify_spec() -> GridSpec:
    """Wide, axis-hugging grid sized for 1e-3 frequency-profile accuracy."""
    return GridSpec(L=128.0, H=16.0, nx=2048, ny=640, plane=PlaneKind.UPPER)


# ---------------------------------------------------------------------------
# classification


@dataclass
class ClassifyResult:
    is_cokernel: bool
    xi: np.ndarray  # fitted window (negative frequencies)
    b2: np.ndarray  # fitted B2(xi) on the window
    pos_energy_frac: float
    fit_residual: float
    weight_value: float
    dyadic_growth: float
    thresholds: dict
    x_truncation: float  # |h| at x = +/-L over its peak (partial_fourier)

    def summary(self) -> dict:
        return {
            "is_cokernel": bool(self.is_cokernel),
            "pos_energy_frac": float(self.pos_energy_frac),
            "fit_residual": float(self.fit_residual),
            "dyadic_growth": float(self.dyadic_growth),
            "weight_value": float(self.weight_value),
            "x_truncation": float(self.x_truncation),
            "thresholds": self.thresholds,
        }


# the classifier's fit window in xi and its three thresholds: the fraction of
# the energy at xi > 0, the relative fit residual, and the dyadic growth probe
CLASSIFY_XI_WINDOW = (-2.5, -0.25)
CLASSIFY_POS_TOL = 1e-4
CLASSIFY_FIT_TOL = 1e-2
CLASSIFY_GROWTH_TOL = 1.3


def lemma_a1_classify(h: Field, wrong_branch: bool = False) -> ClassifyResult:
    """Test whether h looks like (Im z) times an anti-holomorphic function.

    Three grid-level criteria on the partial Fourier transform:
      (i)   at most CLASSIFY_POS_TOL of the energy at xi > 0;
      (ii)  each xi < 0 slice of CLASSIFY_XI_WINDOW is proportional to
            y e^{y xi}; the factor is the fitted B2(xi) (least squares over
            y, relative residual at most CLASSIFY_FIT_TOL);
      (iii) the weighted energy (1/2) sum |hhat|^2 / y^2 stays finite, in the
            sense that dyadic lower-cutoff partial sums stop growing (growth
            probe at most CLASSIFY_GROWTH_TOL).

    wrong_branch fits y e^{-y xi} instead (the growing solution); this is
    the designated negative control and must produce a large fit residual.
    """
    p = partial_fourier(h)
    spec = p.spec
    y = spec.y.reshape(-1, 1)
    absq = np.abs(p.data) ** 2

    tot = float(np.sum(absq))
    pos = float(np.sum(absq[:, p.xi > 0]))
    pos_frac = pos / tot if tot > 0 else 0.0

    lo, hi = CLASSIFY_XI_WINDOW
    cols = np.nonzero((p.xi >= lo) & (p.xi <= hi))[0]
    if cols.size == 0:
        raise ValueError("no frequencies in the fit window; enlarge the grid")
    xi_w = p.xi[cols]
    sgn = -1.0 if wrong_branch else 1.0
    prof = 2.0 * np.abs(xi_w)[None, :] * y * np.exp(sgn * y * xi_w[None, :])
    block = p.data[:, cols]
    denom = np.sum(prof * prof, axis=0)
    b2 = np.sum(block * prof, axis=0) / denom
    resid = block - b2[None, :] * prof
    fit_residual = float(
        np.sqrt(np.sum(np.abs(resid) ** 2) / max(np.sum(np.abs(block) ** 2), 1e-300))
    )

    # weighted energy over xi <= 0 and its dyadic lower-cutoff growth
    dxi = 2.0 * np.pi / (spec.nx * spec.hx)
    neg = p.xi < 0
    wdens = absq[:, neg] / y**2  # (ny, #neg)
    weight_value = 0.5 * float(np.sum(wdens)) * spec.hy * dxi
    cuts = []
    k = 1
    while k <= spec.ny // 4:
        cuts.append(k)
        k *= 2
    # S(c) sums rows at or above the cutoff index; a 1/y^2 divergence at the
    # axis makes S double each time the cutoff halves, an integrable density
    # leaves consecutive sums nearly equal
    sums = [0.5 * float(np.sum(wdens[c:])) * spec.hy * dxi for c in cuts]
    ratios = [sums[i] / max(sums[i + 1], 1e-300) for i in range(len(sums) - 1)]
    # growing solution branches blow up at the top of the box instead; the
    # top octave then dwarfs the shell below it
    s_top = float(np.sum(wdens[spec.ny // 2 :]))
    s_shell = float(np.sum(wdens[spec.ny // 4 : spec.ny // 2]))
    probes = ratios[:2] + [s_top / max(s_shell, 1e-300)]
    dyadic_growth = max(probes) if probes else 1.0

    ok = (pos_frac <= CLASSIFY_POS_TOL and fit_residual <= CLASSIFY_FIT_TOL
          and dyadic_growth <= CLASSIFY_GROWTH_TOL)
    return ClassifyResult(
        is_cokernel=bool(ok),
        xi=xi_w,
        b2=b2,
        pos_energy_frac=pos_frac,
        fit_residual=fit_residual,
        weight_value=weight_value,
        dyadic_growth=dyadic_growth,
        thresholds={"pos_tol": CLASSIFY_POS_TOL, "fit_tol": CLASSIFY_FIT_TOL,
                    "growth_tol": CLASSIFY_GROWTH_TOL},
        x_truncation=p.meta["x_truncation"],
    )
