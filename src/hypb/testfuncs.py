"""Analytic test inputs with exact derivative data.

Each factory returns an :class:`AnalyticTestFunction` bundling closed-form
evaluators for F, dF, dbarF, the quarter-Laplacian lap F = d(dbar F), and
d^2 F.  Checks consume these instead of differentiating numerically, so a
failed identity points at the operator under test, not at the input.

The derivative convention throughout:

    d    = (1/2)(d/dx - i d/dy)        dbar = (1/2)(d/dx + i d/dy)
    lap  = d dbar = (1/4)(dxx + dyy)

The tests audit the gaussian's closed forms by finite differences at
random points: lap F against d(dbar F) and d2 F against d(d F).
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
]


@dataclass
class StripProfile:
    """x-independent profile f(Im z) with two derivatives, supported in [y_lo, y_hi]."""

    f: Callable[[np.ndarray], np.ndarray]
    d1: Callable[[np.ndarray], np.ndarray]
    d2: Callable[[np.ndarray], np.ndarray]
    y_lo: float
    y_hi: float


@dataclass
class AnalyticTestFunction:
    name: str
    f: Callable[[np.ndarray], np.ndarray]
    d: Callable[[np.ndarray], np.ndarray]
    dbar: Callable[[np.ndarray], np.ndarray]
    lap: Callable[[np.ndarray], np.ndarray]
    d2: Callable[[np.ndarray], np.ndarray]
    params: dict = dc_field(default_factory=dict)
    profile: Optional[StripProfile] = None

    def describe(self) -> str:
        ps = ",".join(f"{k}={v}" for k, v in self.params.items())
        return f"{self.name}({ps})" if ps else self.name


def sample(fn: AnalyticTestFunction, spec: GridSpec, which: str = "f") -> Field:
    """Evaluate one of the closed-form fields at the grid's cell midpoints."""
    out = Field(spec, getattr(fn, which)(spec.zz()))
    out.meta["testfn"] = fn.describe()
    if which != "f":
        out.meta["derived"] = which
    return out


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

    def dbar(z):
        return -k * (np.conj(z) - 1j * a) ** (-k - 1)

    zero = lambda z: np.zeros(np.shape(z), dtype=complex)
    return AnalyticTestFunction(
        name="conjrat",
        f=f,
        d=zero,
        dbar=dbar,
        lap=zero,
        d2=zero,
        params={"a": a, "k": k},
    )


def holo_rational(a: float = 1.0, k: int = 2) -> AnalyticTestFunction:
    """h(z) = (z + ia)^(-k), holomorphic on C+; negative-control twin of conj_rational."""
    if a <= 0 or k < 2:
        raise ValueError("need a > 0 and k >= 2")

    def f(z):
        return (z + 1j * a) ** (-k)

    def d(z):
        return -k * (z + 1j * a) ** (-k - 1)

    def d2(z):
        return k * (k + 1) * (z + 1j * a) ** (-k - 2)

    zero = lambda z: np.zeros(np.shape(z), dtype=complex)
    return AnalyticTestFunction(
        name="holorat",
        f=f,
        d=d,
        dbar=zero,
        lap=zero,
        d2=d2,
        params={"a": a, "k": k},
    )


# ---------------------------------------------------------------------------
# harmonic samples for the strip-integral (Liouville-type) checks


def harmonic_samples() -> dict:
    """Three harmonic functions on C+."""
    zero = lambda z: np.zeros(np.shape(z), dtype=complex)

    imz = AnalyticTestFunction(
        name="imz",
        f=lambda z: z.imag.astype(complex),
        d=lambda z: np.full(np.shape(z), -0.5j),
        dbar=lambda z: np.full(np.shape(z), 0.5j),
        lap=zero,
        d2=zero,
    )

    rez = AnalyticTestFunction(
        name="rez",
        f=lambda z: z.real.astype(complex),
        d=lambda z: np.full(np.shape(z), 0.5 + 0j),
        dbar=lambda z: np.full(np.shape(z), 0.5 + 0j),
        lap=zero,
        d2=zero,
    )

    poisson = AnalyticTestFunction(
        name="poisson",
        f=lambda z: (z.imag / np.abs(z) ** 2).astype(complex),
        d=lambda z: -0.5j / z**2,
        dbar=lambda z: 0.5j / np.conj(z) ** 2,
        lap=zero,
        d2=lambda z: 1j / z**3,
    )
    return {"imz": imz, "rez": rez, "poisson": poisson}


# ---------------------------------------------------------------------------
# near-extremal Hardy profiles
#
# f(z) = (Im z)^a * w(log Im z) with w a smooth plateau of log-width log(n)
# between two smooth ramps.  For a = 1/2 the weighted-norm ratio
#     int |f|^2 (Im z)^-2 dA  /  int |dbar f|^2 dA
# climbs to the sharp constant 16 like 1/log(n).


def _psi(t):
    """psi(t) = exp(-1/t) for t > 0, else 0, and its first two derivatives."""
    out = np.zeros((3,) + np.shape(t))
    pos = t > 1e-8
    tp = t[pos]
    e = np.exp(-1.0 / tp)
    out[0][pos] = e
    out[1][pos] = e / tp**2
    out[2][pos] = e * (1.0 / tp**4 - 2.0 / tp**3)
    return out


def _smoothstep(u):
    """C-infinity ramp r with r(u<=0)=0, r(u>=1)=1, and r', r''."""
    u = np.asarray(u, dtype=float)
    n, n1, n2 = _psi(u)
    m, m1, m2 = _psi(1.0 - u)
    m1 = -m1
    den = n + m
    r = np.where(u <= 0.0, 0.0, np.where(u >= 1.0, 1.0, n / np.where(den == 0, 1.0, den)))

    d1 = np.where((u <= 0.0) | (u >= 1.0), 0.0, (n1 - r * (n1 + m1)) / np.where(den == 0, 1.0, den))

    d2 = np.where(
        (u <= 0.0) | (u >= 1.0),
        0.0,
        (n2 - r * (n2 + m2) - 2.0 * d1 * (n1 + m1)) / np.where(den == 0, 1.0, den),
    )
    return r, d1, d2


def hardy_family(a: float = 0.5, n: int = 64, ramp: float = 1.8) -> AnalyticTestFunction:
    """x-independent profile f(y) = y^a w(log y), supported in y in (n^-(1+2*ramp), 1].

    The plateau has log-width log(n) and each ramp log-width ramp*log(n);
    widening both with n is what drives the Hardy ratio toward the sharp
    constant.  Since f depends on y alone, dbar f = (i/2) f'(y) and the
    two-dimensional ratio reduces to the one-dimensional Hardy ratio, which
    checks evaluate by log-spaced quadrature.
    """
    if n < 2:
        raise ValueError("cutoff scale n must be an integer >= 2")
    P = math.log(n)
    R = ramp * P
    t3 = 0.0  # support top at y = 1
    t2, t1 = t3 - R, t3 - R - P
    t0 = t1 - R

    def w_parts(t):
        u_up = (t - t0) / R
        u_dn = (t3 - t) / R
        r_up, r_up1, r_up2 = _smoothstep(u_up)
        r_dn, r_dn1, r_dn2 = _smoothstep(u_dn)
        w = r_up * r_dn
        # d/dt and d2/dt2 of the product; chain rule brings 1/R per order
        w1 = (r_up1 * r_dn - r_up * r_dn1) / R
        w2 = (r_up2 * r_dn - 2.0 * r_up1 * r_dn1 + r_up * r_dn2) / R**2
        return w, w1, w2

    def on_support(y, value):
        """value(y, w, w1, w2) where exp(t0) < y <= 1, and 0 elsewhere."""
        y = np.asarray(y, dtype=float)
        out = np.zeros_like(y)
        ok = (y > 0) & (np.log(np.maximum(y, 1e-300)) > t0) & (y <= 1.0)
        yk = y[ok]
        out[ok] = value(yk, *w_parts(np.log(yk)))
        return out

    def prof(y):
        return on_support(y, lambda y, w, w1, w2: y**a * w)

    def dprof(y):
        return on_support(y, lambda y, w, w1, w2: y ** (a - 1.0) * (a * w + w1))

    def d2prof(y):
        return on_support(y, lambda y, w, w1, w2:
                          y ** (a - 2.0) * (a * (a - 1.0) * w + (2.0 * a - 1.0) * w1 + w2))

    profile = StripProfile(f=prof, d1=dprof, d2=d2prof, y_lo=math.exp(t0), y_hi=1.0)

    def f(z):
        return prof(z.imag).astype(complex)

    def d(z):
        return -0.5j * dprof(z.imag)

    def dbar(z):
        return 0.5j * dprof(z.imag)

    def lap(z):
        return 0.25 * d2prof(z.imag).astype(complex)

    def d2(z):
        return -0.25 * d2prof(z.imag).astype(complex)

    return AnalyticTestFunction(
        name="hardy",
        f=f,
        d=d,
        dbar=dbar,
        lap=lap,
        d2=d2,
        params={"a": a, "n": n, "ramp": ramp},
        profile=profile,
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
            kv[k.strip()] = float(v)
    head = head.strip().lower()
    if head == "gaussian":
        fn = gaussian_bump(c=kv.pop("c", 2.0), sigma=kv.pop("sigma", 4.0), x0=kv.pop("x0", 0.0))
    elif head == "conjrat":
        fn = conj_rational(a=kv.pop("a", 1.0), k=int(kv.pop("k", 2)))
    elif head == "holorat":
        fn = holo_rational(a=kv.pop("a", 1.0), k=int(kv.pop("k", 2)))
    elif head == "hardy":
        fn = hardy_family(a=kv.pop("a", 0.5), n=int(kv.pop("n", 64)), ramp=kv.pop("ramp", 1.8))
    elif head in ("imz", "rez", "poisson"):
        fn = harmonic_samples()[head]
    else:
        raise ValueError(f"unknown testfn {head!r}")
    if kv:
        raise ValueError(f"unknown parameters {sorted(kv)} for testfn {head!r}")
    return fn
