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

(both verified here by residual tests).  `branch(family, A, B, t)` is the
one evaluator of either, from the table `_MODES` of the four modes, and the
one refusal of a value past the float range.  The integrals are evaluated
without quadrature, vectorised over t: I by its closed form e^t E2(t)/t, J
by its power series below t = 40 and the asymptotic series of Ei from there.
e^t E2(t) is the power series of E2 below t = 1 and a continued fraction,
evaluated backward from 130 levels, from 1 on; the fraction needs no e^t, so
I is finite for every t (numpy alone: no special-function library).  The
battery's `whittaker-ode/integral-closed-form` check integrates I by
double-exponential quadrature as the independent cross-check.

Only the B2 mode t e^{-t/2} is compatible with the weighted-energy
finiteness condition, which is what the classifier below exploits: a field
is in the cokernel class iff its partial Fourier transform is carried by
xi <= 0 with y-profile proportional to y e^{y xi} (the B2 mode
`branch("Y", 0, 1, t)` at t = 2 |xi| y), and the fitted coefficient B2(xi) is
the classification output.

The classifier reads the field in blocks of 16 rows, x-transforms each block
(hhat = sum_x h e^{-i xi x} hx) and keeps only per-row energies by frequency
group and the fit-window columns, the window block that its result keeps for
`fit_profile` and its control: no grid-sized array exists.  The blocks run
through `_blocks.run_blocks`, on the caller and one helper that the call
starts and joins before it returns or raises (numpy releases the GIL in the
sampling ufuncs and in the FFT); each block writes only its own rows and
refuses its own energies past the float range, and the first refusal in
row order is raised, so every result, refusal and message is bit-identical
at any thread count.  B2, the fit residual and
x_truncation are bit-identical to a whole-field pass; the energy fractions,
weighted energy and growth probe sum the same terms by row first, which
moves them at rounding level (1e-15 relative).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._blocks import run_blocks
from .grid import GridSpec, PlaneKind

__all__ = [
    "branch",
    "x_integral",
    "y_integral",
    "pointwise_residual",
    "ode_residual",
    "ClassifyResult",
    "fit_profile",
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


# below this t, J's power series; at and above it the asymptotic series of
# Ei, whose 40 terms then end near the smallest (about 1e-15 relative to the
# sum)
_ASYMPTOTIC_T = 40.0
_ASYMPTOTIC_TERMS = 40
# e^t overflows past log(DBL_MAX), and with it J(t)
Y_INTEGRAL_T_MAX = math.log(sys.float_info.max)  # 709.78...
# e^t E2(t): its power series below this t, the continued fraction from it on
_E2_SERIES_T = 1.0
_E2_FRACTION_LEVELS = 130


def _exp_e2(t: np.ndarray) -> np.ndarray:
    """e^t E2(t) for t > 0, to about 4e-16 relative.

    Below t = 1 the power series E2(t) = 1 - t (1 - gamma - ln t)
    - sum_{k>=2} (-t)^k / ((k - 1) k!) (DLMF 8.19(iv)); its 18 terms end
    below 5e-19 there, and its cancellation costs at most 1e-15 near t = 1.
    From 1 on the continued fraction
    1/(t + 2 - 1*2/(t + 4 - 2*3/(t + 6 - ...))) (Numerical Recipes, 3rd ed.,
    section 6.3), evaluated backward from 130 levels: at t = 1, where it
    converges slowest, 80 levels leave 8e-15 and 100 reach rounding.  The
    split at t = 1 is that of Cephes' expn; a lower one would need about
    120/t levels, each a pass over the whole array.  The fraction needs no
    e^t, so it stays finite where e^t overflows; it converges faster as t
    grows, and on [40, 700] it reads at most 2.7e-16 against 40-digit
    mpmath.
    """
    out = np.empty_like(t)
    lo = t < _E2_SERIES_T
    ts = t[lo]
    acc = np.zeros_like(ts)
    term = ts * ts / 2.0  # (-t)^k / k! at k = 2
    for k in range(2, 20):
        acc += term / (k - 1)
        term = term * (-ts / (k + 1))
    out[lo] = np.exp(ts) * (1.0 - ts * (1.0 - np.euler_gamma - np.log(ts)) - acc)
    tc = t[~lo]
    f = tc + 2.0 * (_E2_FRACTION_LEVELS + 1)
    for i in range(_E2_FRACTION_LEVELS, 0, -1):
        f = tc + 2.0 * i - i * (i + 1) / f
    out[~lo] = 1.0 / f
    return out


def _factorial_series(t: np.ndarray) -> np.ndarray:
    """sum_{k=1}^{40} k!/t^k, the asymptotic series of t e^-t Ei(t) - 1."""
    acc = np.zeros_like(t)
    term = 1.0 / t
    for k in range(1, _ASYMPTOTIC_TERMS + 1):
        acc += term
        term = term * ((k + 1) / t)
    return acc


def x_integral(t) -> np.ndarray:
    """I(t) = int_0^inf e^{-t s} s/(1+s) ds = 1/t - e^t E1(t) = e^t E2(t)/t.

    The E2 form, which has no cancellation (1/t - e^t E1(t) loses about t
    ulps), with e^t E2(t) from its power series below t = 1 and its
    continued fraction above (`_exp_e2`), which stays finite where e^t
    overflows.
    """
    ts = _positive(t)
    out = _exp_e2(ts) / ts
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
    out[~near] = (np.exp(tf) / tf * _factorial_series(tf) + 1.0 / tf + 1.0
                  - np.euler_gamma - np.log(tf))
    return out if np.ndim(t) else float(out[0])


# the modes (a, b) of the family with sign +1 (X) and -1 (Y) in
# H'' = (1/4 + sign/t) H, each as the factors of its left-to-right product
_MODES = {
    "X": ((lambda t: t, lambda t: np.exp(t / 2.0)),
          (lambda t: t, lambda t: np.exp(-t / 2.0), x_integral)),
    "Y": ((lambda t: np.exp(-t / 2.0), lambda t: 1.0 - t * np.log(t) - t * y_integral(t)),
          (lambda t: t, lambda t: np.exp(-t / 2.0))),
}
_NORMAL = sys.float_info.min  # the least normal double


def _product(c, factors: list) -> tuple:
    """c times the factors, left to right, and where a step of it left the
    normal range: a factor, or a real part of c or of a partial product,
    below it (zero included), each part only where c's part is not 0.  A
    step whose entries all keep one sign past the range is passed on its
    extremes alone, without an elementwise test."""
    parts = [p for p in (np.real, np.imag) if p(c) != 0]
    v, low = c, any(abs(p(c)) < _NORMAL for p in parts)
    for f in factors:
        v = v * f
        for step in [f] + [p(v) for p in parts]:
            if not (np.min(step, initial=np.inf) >= _NORMAL
                    or np.max(step, initial=-np.inf) <= -_NORMAL):
                low = low | (np.abs(step) < _NORMAL)
    return v, low


def _mode(factors, c, t: np.ndarray) -> np.ndarray:
    """c times a mode of `_MODES` at t, its left-to-right product; an entry
    past the float range is inf, and one whose product lost bits below the
    normal range (e^{-t/2} is subnormal past t = 1416.8) is NaN, for the
    caller to refuse.  Where the product is not finite (c t, say,
    overflowing before e^{-t/2} scales it), each real part r of c is
    computed on its own, and where that overflows, again at its own scale:
    for |r| >= 1 as the product at r 2^-s times 2^s, s half the binary
    exponent of r, whose steps are the unscaled steps times 2^-s and so
    round alike while they are normal; a scaled product with a step below
    the normal range is inf.  A finite entry is the left-to-right product
    without the overflow midway, never one that lost bits to the scaling or
    to a subnormal step.  An exact zero of the factor 1 - t log t - t J(t)
    is refused too: the rule cannot tell it from a product that underflowed.
    """
    fs = [factor(t) for factor in factors]
    v, low = _product(c, fs)
    if np.isfinite(v).all():
        return np.where(low, np.nan, v) if np.any(low) else v
    v = np.array(v)  # writable, also for a scalar t
    for part, r in ((v.real, c.real), (v.imag, c.imag)) if np.iscomplexobj(v) else ((v, c),):
        if r == 0:
            part[...] = np.where(np.isfinite(part), part, 0.0)
            continue
        u, low = _product(r, fs)
        s = max(-(-math.frexp(r)[1] // 2), 0)  # s <= 512: 2^s and r 2^-s are exact
        w, w_low = _product(math.ldexp(r, -s), fs)
        part[...] = np.where(np.isfinite(u), np.where(low, np.nan, u),
                             np.where(w_low, np.inf, w * math.ldexp(1.0, s)))
    return v


def _modes(family: str, A, B, t: np.ndarray) -> np.ndarray:
    """A a(t) + B b(t), each mode by `_mode`.  A zero coefficient skips its
    mode (e^{t/2} may be inf, y_integral refuses t past 709.78, and
    0 * inf is NaN)."""
    out = np.zeros_like(t)
    with np.errstate(over="ignore", invalid="ignore"):  # the callers refuse what stays
        for c, mode in zip((A, B), _MODES[family]):
            if c != 0:
                out = out + _mode(mode, c, t)
    return out


def branch(family: str, A: complex, B: complex, t):
    """A a(t) + B b(t) with the modes (a, b) of the family in `_MODES`
    (`_modes`); a value past the float range, or one whose product passed
    below the normal range, raises OverflowError."""
    if family not in _MODES:
        raise ValueError("family must be 'X' or 'Y'")
    t = np.asarray(t, dtype=float)
    _positive(t)
    out = _modes(family, A, B, t)
    bad = ~np.isfinite(out)
    if bad.any():
        t0 = np.min(t[bad])
        how = ("overflows", "past the float range") if np.isinf(out[bad & (t == t0)]).any() else (
            "underflows", "below the normal float range")
        raise OverflowError(f"the {family} branch A a(t) + B b(t) {how[0]} at |A| = "
                            f"{abs(A):.6g}, |B| = {abs(B):.6g}: {how[1]} from t = {t0:.6g}")
    return out


def pointwise_residual(family: str, A, B, t_grid, sign: Optional[int] = None) -> tuple:
    """Values H(t) = `branch`(family, A, B, t) and the pointwise normalized
    residual of H'' = (1/4 + sign/t) H.

    Second derivative by the 5-point O(h^4) stencil with h small against the
    e^{t/2} scale; passing an explicit wrong `sign` turns this into the
    branch negative control.  The residual does not depend on the scale of
    H, so one whose stencil sums overflow is computed again from the same
    values times 2^-e, e the binary exponent of |H(t)|; one still past the
    float range raises OverflowError, as `branch` does for a value.
    """
    s = (1 if family == "X" else -1) if sign is None else sign
    t = np.asarray(t_grid, dtype=float)
    h = np.minimum(0.01 * t, 0.05)
    f0 = branch(family, A, B, t)  # refuses a t that is not positive
    stencil = [_modes(family, A, B, t + 2 * h), _modes(family, A, B, t + h), f0,
               _modes(family, A, B, t - h), _modes(family, A, B, t - 2 * h)]

    def residual(fp2, fp1, f0, fm1, fm2):
        d2 = (-fp2 + 16 * fp1 - 30 * f0 + 16 * fm1 - fm2) / (12.0 * h**2)
        target = (0.25 + s / t) * f0
        return np.abs(d2 - target) / (np.abs(f0) + np.abs(d2) + 1e-300)

    with np.errstate(all="ignore"):  # refused below
        resid = residual(*stencil)
        bad = ~np.isfinite(resid)
        if np.any(bad):
            k = np.ldexp(1.0, -np.frexp(np.abs(f0))[1])
            resid = np.where(bad, residual(*(f * k for f in stencil)), resid)
    bad = ~np.isfinite(resid)
    if bad.any():
        raise OverflowError(f"the {family} branch or its residual is past the float range "
                            f"from t = {np.min(t[bad]):.6g}")
    return f0, resid


def ode_residual(family: str, A, B, t_grid, sign: Optional[int] = None) -> float:
    """Max of `pointwise_residual` over the grid."""
    return float(np.max(pointwise_residual(family, A, B, t_grid, sign)[1]))


# ---------------------------------------------------------------------------
# classification


def default_classify_spec() -> GridSpec:
    """Wide, axis-hugging grid sized for 1e-3 frequency-profile accuracy."""
    return GridSpec(L=128.0, H=16.0, nx=2048, ny=640, plane=PlaneKind.UPPER)


@dataclass
class ClassifyResult:
    is_cokernel: bool
    xi: np.ndarray  # fitted window (negative frequencies)
    b2: np.ndarray  # fitted B2(xi) on the window
    pos_energy_frac: float
    window_energy_frac: float
    fit_residual: float
    weight_value: float
    dyadic_growth: float
    thresholds: dict
    x_truncation: float  # |h| at x = +/-L over its peak: the scale of the truncation ripple
    block: np.ndarray  # hhat on the window xi, ny x xi.size: `fit_profile`'s input

    def summary(self) -> dict:
        return {
            "is_cokernel": bool(self.is_cokernel),
            "pos_energy_frac": float(self.pos_energy_frac),
            "window_energy_frac": float(self.window_energy_frac),
            "fit_residual": float(self.fit_residual),
            "dyadic_growth": float(self.dyadic_growth),
            "weight_value": float(self.weight_value),
            "x_truncation": float(self.x_truncation),
            "thresholds": self.thresholds,
        }


# the classifier's fit window in xi and its four thresholds: the fraction of
# the energy at xi > 0, the least fraction in the window, the relative fit
# residual, and the dyadic growth probe
CLASSIFY_XI_WINDOW = (-2.5, -0.25)
CLASSIFY_POS_TOL = 1e-4
CLASSIFY_WINDOW_MIN = 1e-2
CLASSIFY_FIT_TOL = 1e-2
CLASSIFY_GROWTH_TOL = 1.3
# rows per block: a block's complex arrays (0.5 MiB) stay in one core's L2,
# and each block in flight holds about 1.4 MB of temporaries
_CLASSIFY_ROWS = 16


def fit_profile(block: np.ndarray, xi: np.ndarray, y: np.ndarray, sign: float = 1.0) -> tuple:
    """(B2, relative residual) of the least-squares fit of each column xi < 0 of block
    (hhat at heights y) to B2 times a mode at t = 2|xi| y: sign 1 Y's decaying
    t e^{-t/2}, -1 the control's X mode t e^{t/2}."""
    t = 2.0 * np.abs(xi)[None, :] * y[:, None]
    prof = branch("Y", 0, 1, t) if sign > 0 else branch("X", 1, 0, t)
    b2 = np.sum(block * prof, axis=0) / np.sum(prof * prof, axis=0)
    resid = block - b2[None, :] * prof
    return b2, float(np.sqrt(np.sum(np.abs(resid) ** 2) / max(np.sum(np.abs(block) ** 2), 1e-300)))


def lemma_a1_classify(h) -> ClassifyResult:
    """Test whether h looks like (Im z) times an anti-holomorphic function.

    Three grid-level criteria, four thresholds, on the partial Fourier transform:
      (i)   at most CLASSIFY_POS_TOL of the energy at xi > 0;
      (ii)  each xi < 0 slice of CLASSIFY_XI_WINDOW is proportional to
            y e^{y xi}; the factor is the fitted B2(xi) (`fit_profile`,
            relative residual at most CLASSIFY_FIT_TOL), and the window
            carries at least CLASSIFY_WINDOW_MIN of the energy, so that an
            empty window is no fit;
      (iii) the weighted energy (1/2) sum |hhat|^2 / y^2 stays finite, in the
            sense that dyadic lower-cutoff partial sums stop growing (growth
            probe at most CLASSIFY_GROWTH_TOL).

    h is a Field or a `testfuncs.RowSampler`: anything with a `spec` and a
    `rows(r)` that returns the rows r (a slice) of the field.  It is read in
    row blocks by `_blocks.run_blocks` (module docstring), so `rows` may be
    called from several threads at once; the helpers are joined before the
    call returns or raises.  Each block writes only its own rows, so the
    result, and the refusal of the first block in row order that fails, are
    bit-identical at any thread count.  Energies past
    the float range raise OverflowError, and a field with none (zero, or
    underflowing) ValueError.
    """
    spec = h.spec
    xi = 2.0 * np.pi * np.fft.fftfreq(spec.nx, d=spec.hx)
    lo, hi = CLASSIFY_XI_WINDOW
    cols = np.nonzero((xi >= lo) & (xi <= hi))[0]
    if cols.size == 0:
        raise ValueError("no frequencies in the fit window; enlarge the grid")
    win = slice(cols[0], cols[-1] + 1)  # xi < 0 runs upward in fftfreq order
    split = (spec.nx + 1) // 2  # fftfreq order: 0, then xi > 0 up to split, xi < 0 from it
    phase = np.exp(-1j * xi * spec.x[0])[None, :]
    # per row: the energy at xi = 0, xi > 0, xi < 0 and in the window
    energy = np.empty((4, spec.ny))
    block = np.empty((spec.ny, cols.size), dtype=complex, order="F")

    blocks = [slice(r0, min(r0 + _CLASSIFY_ROWS, spec.ny))
              for r0 in range(0, spec.ny, _CLASSIFY_ROWS)]

    def run_block(i: int) -> tuple:
        """Sample and x-transform the rows of block i, write their energies
        and window columns, and return their edge and peak magnitudes; energies
        past the float range are refused."""
        r = blocks[i]
        with np.errstate(over="ignore", invalid="ignore"):
            data = h.rows(r)
            mag = np.abs(data)
            sizes = (mag[:, 0].max(), mag[:, -1].max(), mag.max())
            del mag
            data = np.fft.fft(data, axis=1)
            data *= spec.hx
            data *= phase
            block[r] = data[:, win]
            absq = np.abs(data)
            del data
            absq *= absq
            energy[:, r] = (absq[:, 0], absq[:, 1:split].sum(axis=1),
                            absq[:, split:].sum(axis=1), absq[:, win].sum(axis=1))
        if not np.all(np.isfinite(energy[:, r])):
            raise OverflowError(f"the partial Fourier energies |hhat|^2 of rows "
                                f"{r.start}-{r.stop - 1} leave the float range")
        return sizes

    magnitudes = run_blocks(len(blocks), run_block)
    edge = max(max(first, last) for first, last, _ in magnitudes)
    peak = max(top for _, _, top in magnitudes)

    tot = float(np.sum(energy[:3]))
    if tot == 0.0:
        raise ValueError("the field has no partial Fourier energy |hhat|^2 on the grid")
    pos_frac = float(np.sum(energy[1])) / tot
    window_frac = float(np.sum(energy[3])) / tot

    xi_w = xi[cols]
    b2, fit_residual = fit_profile(block, xi_w, spec.y)

    # weighted energy over xi <= 0 and its dyadic lower-cutoff growth
    dxi = 2.0 * np.pi / (spec.nx * spec.hx)
    with np.errstate(over="ignore"):  # finite row energies near the float maximum
        wdens = energy[2] / spec.y**2  # per row
        weight_value = 0.5 * float(np.sum(wdens)) * spec.hy * dxi
    if not math.isfinite(weight_value):  # it bounds every partial sum below
        raise OverflowError("the weighted energy |hhat|^2 / y^2 leaves the float range")
    # S(c) sums the rows at or above cutoff index c, for the cuts 1, 2, 4
    # that are at most ny / 4; a 1/y^2 divergence at the axis makes S double
    # each time the cutoff halves, an integrable density leaves consecutive
    # sums nearly equal
    cuts = [c for c in (1, 2, 4) if c <= spec.ny // 4]
    sums = [0.5 * float(np.sum(wdens[c:])) * spec.hy * dxi for c in cuts]
    ratios = [sums[i] / max(sums[i + 1], 1e-300) for i in range(len(sums) - 1)]
    # growing solution branches blow up at the top of the box instead; the
    # top octave then dwarfs the shell below it
    s_top = float(np.sum(wdens[spec.ny // 2 :]))
    s_shell = float(np.sum(wdens[spec.ny // 4 : spec.ny // 2]))
    dyadic_growth = max(ratios + [s_top / max(s_shell, 1e-300)])

    ok = (pos_frac <= CLASSIFY_POS_TOL and window_frac >= CLASSIFY_WINDOW_MIN
          and fit_residual <= CLASSIFY_FIT_TOL and dyadic_growth <= CLASSIFY_GROWTH_TOL)
    return ClassifyResult(
        is_cokernel=bool(ok),
        xi=xi_w,
        b2=b2,
        pos_energy_frac=pos_frac,
        window_energy_frac=window_frac,
        fit_residual=fit_residual,
        weight_value=weight_value,
        dyadic_growth=dyadic_growth,
        thresholds={"pos_tol": CLASSIFY_POS_TOL, "window_min": CLASSIFY_WINDOW_MIN,
                    "fit_tol": CLASSIFY_FIT_TOL, "growth_tol": CLASSIFY_GROWTH_TOL},
        x_truncation=float(edge / peak), block=block,
    )
