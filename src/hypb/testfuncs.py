"""Analytic test inputs with exact derivative data.

Each factory returns an :class:`AnalyticTestFunction` bundling a closed-form
evaluator for F and, where checks read them, for dF, dbarF, the
quarter-Laplacian lap F = d(dbar F) and d^2 F.  The gaussian carries all
five, the checks' derivative data.  The rational and harmonic members carry
F alone: the checks read their defining properties (conjrat is
anti-holomorphic, holorat holomorphic, imz, rez and poisson harmonic), not
their derivatives.  The Hardy family carries F and its y-profile.  `sample`
refuses a form a member lacks by name.  Checks consume these instead of
differentiating numerically, so a failed identity points at the operator
under test, not at the input.

The derivative convention throughout:

    d    = (1/2)(d/dx - i d/dy)        dbar = (1/2)(d/dx + i d/dy)
    lap  = d dbar = (1/4)(dxx + dyy)

The tests audit the gaussian's closed forms by finite differences at
random points, lap F against d(dbar F) and d2 F against d(d F), and each
other member's defining property by the fourth-order stencils on a grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Callable, Optional

import numpy as np

from .grid import Field, GridSpec

__all__ = [
    "AnalyticTestFunction",
    "StripProfile",
    "gaussian_bump",
    "conj_rational",
    "holo_rational",
    "harmonic_samples",
    "hardy_family",
    "parse_testfn",
    "sample",
    "RowSampler",
]


@dataclass
class StripProfile:
    """x-independent profile f(Im z) and its derivative, supported in [y_lo, y_hi]."""

    f: Callable[[np.ndarray], np.ndarray]
    d1: Callable[[np.ndarray], np.ndarray]
    y_lo: float
    y_hi: float


@dataclass
class AnalyticTestFunction:
    name: str
    f: Callable[[np.ndarray], np.ndarray]
    d: Optional[Callable[[np.ndarray], np.ndarray]] = None
    dbar: Optional[Callable[[np.ndarray], np.ndarray]] = None
    lap: Optional[Callable[[np.ndarray], np.ndarray]] = None
    d2: Optional[Callable[[np.ndarray], np.ndarray]] = None
    params: dict = dc_field(default_factory=dict)
    profile: Optional[StripProfile] = None

    def describe(self) -> str:
        ps = ",".join(f"{k}={v}" for k, v in self.params.items())
        return f"{self.name}({ps})" if ps else self.name


_SAMPLE_ROWS = 16  # rows per block of `sample`: a block's complex arrays stay in L2


def sample(fn: AnalyticTestFunction, spec: GridSpec, which: str = "f") -> Field:
    """Evaluate one of the closed-form fields at the cell midpoints, a block of rows at a time."""
    if getattr(fn, which) is None:
        raise ValueError(f"{fn.describe()} has no closed form for {which!r}")
    sampler = RowSampler(fn, spec, which=which)
    out = np.empty((spec.ny, spec.nx), dtype=complex)
    for r0 in range(0, spec.ny, _SAMPLE_ROWS):
        out[r0 : r0 + _SAMPLE_ROWS] = sampler.rows(slice(r0, r0 + _SAMPLE_ROWS))
    return Field(spec, out)


@dataclass(frozen=True)
class RowSampler:
    """The closed form `which` of fn on spec, times Im z if times_y, a block of
    rows at a time: rows(r) evaluates the rows r (a slice) alone, bit-identical
    to those rows of the form at spec.zz() (times Im z), with no field built."""

    fn: AnalyticTestFunction
    spec: GridSpec
    times_y: bool = False
    which: str = "f"

    def rows(self, r: slice) -> np.ndarray:
        y = self.spec.y[r, None]
        out = getattr(self.fn, self.which)(self.spec.x[None, :] + 1j * y)
        return y * out if self.times_y else out


# ---------------------------------------------------------------------------
# Gaussian bump


def gaussian_bump(c: float = 2.0, sigma: float = 4.0, x0: float = 0.0) -> AnalyticTestFunction:
    """F(z) = exp(-sigma (z - w0)(conj z - conj w0)) = exp(-sigma |z - w0|^2), w0 = x0 + ic.

    Requires c * sqrt(sigma) >= 4 so the trace on the real axis stays at
    the exp(-16) level and half-plane identities see an effectively
    compactly supported function.
    """
    if c * math.sqrt(sigma) < 4.0:
        raise ValueError("gaussian_bump needs c * sqrt(sigma) >= 4 to sit clear of the axis")
    w0 = x0 + 1j * c

    def f(z):
        return np.exp(-sigma * np.abs(z - w0) ** 2)

    def d(z):
        return -sigma * np.conj(z - w0) * f(z)

    def dbar(z):
        return -sigma * (z - w0) * f(z)

    def lap(z):
        r2 = np.abs(z - w0) ** 2
        return sigma * (sigma * r2 - 1.0) * f(z)

    def d2(z):
        return sigma**2 * np.conj(z - w0) ** 2 * f(z)

    return AnalyticTestFunction(
        name="gaussian",
        f=f,
        d=d,
        dbar=dbar,
        lap=lap,
        d2=d2,
        params={"c": c, "sigma": sigma, **({"x0": x0} if x0 else {})},
    )


# ---------------------------------------------------------------------------
# rational tails: conj(A^2) member and its holomorphic negative-control twin


def conj_rational(a: float = 1.0, k: int = 2) -> AnalyticTestFunction:
    """g(z) = conj((z + ia)^(-k)) = (conj z - ia)^(-k), anti-holomorphic on C+.

    Lies in L^2(C+) for k >= 2; this is the canonical annihilated /
    orthogonal-complement direction for the half-plane transforms.
    """
    if a <= 0 or k < 2:
        raise ValueError("need a > 0 and k >= 2 for an L2(C+) member")

    def f(z):
        return (np.conj(z) - 1j * a) ** (-k)

    return AnalyticTestFunction(name="conjrat", f=f, params={"a": a, "k": k})


def holo_rational(a: float = 1.0, k: int = 2) -> AnalyticTestFunction:
    """h(z) = (z + ia)^(-k), holomorphic on C+; negative-control twin of conj_rational."""
    if a <= 0 or k < 2:
        raise ValueError("need a > 0 and k >= 2")

    def f(z):
        return (z + 1j * a) ** (-k)

    return AnalyticTestFunction(name="holorat", f=f, params={"a": a, "k": k})


# ---------------------------------------------------------------------------
# harmonic samples for the strip-integral (Liouville-type) checks


def harmonic_samples() -> dict:
    """Three harmonic functions on C+."""
    imz = AnalyticTestFunction(name="imz", f=lambda z: z.imag.astype(complex))
    rez = AnalyticTestFunction(name="rez", f=lambda z: z.real.astype(complex))
    poisson = AnalyticTestFunction(name="poisson",
                                   f=lambda z: (z.imag / np.abs(z) ** 2).astype(complex))
    return {"imz": imz, "rez": rez, "poisson": poisson}


# ---------------------------------------------------------------------------
# near-extremal Hardy profiles
#
# f(z) = (Im z)^a * w(log Im z) with w a smooth plateau of log-width log(n)
# between two smooth ramps.  For a = 1/2 the weighted-norm ratio
#     int |f|^2 (Im z)^-2 dA  /  int |dbar f|^2 dA
# climbs to the sharp constant 16 like 1/log(n).


def _psi(t):
    """psi(t) = exp(-1/t) for t > 0, else 0, and its derivative."""
    out = np.zeros((2,) + np.shape(t))
    pos = t > 1e-8
    tp = t[pos]
    e = np.exp(-1.0 / tp)
    out[0][pos] = e
    out[1][pos] = e / tp**2
    return out


def _smoothstep(u):
    """C-infinity ramp r with r(u<=0)=0, r(u>=1)=1, and r'."""
    u = np.asarray(u, dtype=float)
    n, n1 = _psi(u)
    m, m1 = _psi(1.0 - u)
    m1 = -m1
    den = n + m
    r = np.where(u <= 0.0, 0.0, np.where(u >= 1.0, 1.0, n / np.where(den == 0, 1.0, den)))
    d1 = np.where((u <= 0.0) | (u >= 1.0), 0.0, (n1 - r * (n1 + m1)) / np.where(den == 0, 1.0, den))
    return r, d1


def hardy_family(a: float = 0.5, n: int = 64, ramp: float = 1.8) -> AnalyticTestFunction:
    """x-independent profile f(y) = y^a w(log y), supported in y in (n^-(1+2*ramp), 1].

    The plateau has log-width log(n) and each ramp log-width ramp*log(n);
    widening both with n is what drives the Hardy ratio toward the sharp
    constant.  Since f depends on y alone, dbar f = (i/2) f'(y) and the
    two-dimensional ratio reduces to the one-dimensional Hardy ratio, which
    checks evaluate by log-spaced quadrature of `profile`; the member
    carries no two-dimensional derivative fields.
    """
    if n < 2:
        raise ValueError("cutoff scale n must be an integer >= 2")
    if not ramp > 0:
        raise ValueError(f"ramp must be positive, got {ramp!r}")
    P = math.log(n)
    R = ramp * P
    t3 = 0.0  # support top at y = 1
    t2, t1 = t3 - R, t3 - R - P
    t0 = t1 - R

    def w_parts(t):
        u_up = (t - t0) / R
        u_dn = (t3 - t) / R
        r_up, r_up1 = _smoothstep(u_up)
        r_dn, r_dn1 = _smoothstep(u_dn)
        w = r_up * r_dn
        # d/dt of the product; the chain rule brings 1/R
        w1 = (r_up1 * r_dn - r_up * r_dn1) / R
        return w, w1

    def on_support(y, value):
        """value(y, w, w1) where exp(t0) < y <= 1, and 0 elsewhere."""
        y = np.asarray(y, dtype=float)
        out = np.zeros_like(y)
        ok = (y > 0) & (np.log(np.maximum(y, 1e-300)) > t0) & (y <= 1.0)
        yk = y[ok]
        out[ok] = value(yk, *w_parts(np.log(yk)))
        return out

    def prof(y):
        return on_support(y, lambda y, w, w1: y**a * w)

    def dprof(y):
        return on_support(y, lambda y, w, w1: y ** (a - 1.0) * (a * w + w1))

    return AnalyticTestFunction(
        name="hardy",
        f=lambda z: prof(z.imag).astype(complex),
        params={"a": a, "n": n, "ramp": ramp},
        profile=StripProfile(f=prof, d1=dprof, y_lo=math.exp(t0), y_hi=1.0),
    )


# ---------------------------------------------------------------------------
# selector strings, shared by the CLI and the check registry


def parse_testfn(text: str) -> AnalyticTestFunction:
    """Build a test function from a selector like 'gaussian:c=2,sigma=4'."""
    head, _, rest = text.partition(":")
    kv = {}
    if rest:
        for part in rest.split(","):
            k, _, v = part.partition("=")
            if not _ or not k:
                raise ValueError(f"malformed testfn parameter {part!r} in {text!r}")
            k = k.strip()
            if k in kv:
                raise ValueError(f"testfn parameter {k!r} repeated in {text!r}")
            kv[k] = float(v)

    def real(key, default):
        v = kv.pop(key, default)
        if math.isfinite(v):
            return v
        raise ValueError(f"testfn parameter {key}={v!r} in {text!r} is not a finite number")

    def whole(key, default):  # int() would truncate 2.7 and overflow on inf
        v = kv.pop(key, default)
        if float(v).is_integer():
            return int(v)
        raise ValueError(f"testfn parameter {key}={v!r} in {text!r} is not a finite integer")

    head = head.strip().lower()
    if head == "gaussian":
        fn = gaussian_bump(c=real("c", 2.0), sigma=real("sigma", 4.0), x0=real("x0", 0.0))
    elif head == "conjrat":
        fn = conj_rational(a=real("a", 1.0), k=whole("k", 2))
    elif head == "holorat":
        fn = holo_rational(a=real("a", 1.0), k=whole("k", 2))
    elif head == "hardy":
        fn = hardy_family(a=real("a", 0.5), n=whole("n", 64), ramp=real("ramp", 1.8))
    elif head in ("imz", "rez", "poisson"):
        fn = harmonic_samples()[head]
    else:
        raise ValueError(f"unknown testfn {head!r}")
    if kv:
        raise ValueError(f"unknown parameters {sorted(kv)} for testfn {head!r}")
    return fn
