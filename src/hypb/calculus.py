"""Wirtinger calculus on sampled fields.

    d    = (1/2)(d/dx - i d/dy)      dbar = (1/2)(d/dx + i d/dy)

so d + dbar = d/dx and i(d - dbar) = d/dy.  With M the multiplier (Im z),
powers of which `mult_im_pow` applies, the minimal solver inverts

    dbar_down = M^2 dbar M^-1

Each axis derivative is a 4th-order non-periodic finite difference
(one-sided closures at the boundary rows).  Exact commutation facts used
by tests:

    d M^n - M^n d = -(i n / 2) M^(n-1)
    dbar M^n - M^n dbar = +(i n / 2) M^(n-1)
"""

from __future__ import annotations

import numpy as np

from .grid import Field, PlaneKind

__all__ = [
    "d",
    "d_bar",
    "mult_im_pow",
    "dbar_down",
]

def _fd4_first(arr: np.ndarray, h: float, axis: int) -> np.ndarray:
    """4th-order first derivative, one-sided at the ends. Needs >= 5 samples."""
    a = np.moveaxis(arr, axis, 0)
    n = a.shape[0]
    if n < 5:
        raise ValueError("fd4 needs at least 5 samples along the axis")
    out = np.empty_like(a)
    out[2:-2] = (-a[4:] + 8.0 * a[3:-1] - 8.0 * a[1:-3] + a[:-4]) / (12.0 * h)
    out[0] = (-25.0 * a[0] + 48.0 * a[1] - 36.0 * a[2] + 16.0 * a[3] - 3.0 * a[4]) / (12.0 * h)
    out[1] = (-3.0 * a[0] - 10.0 * a[1] + 18.0 * a[2] - 6.0 * a[3] + a[4]) / (12.0 * h)
    out[-2] = (3.0 * a[-1] + 10.0 * a[-2] - 18.0 * a[-3] + 6.0 * a[-4] - a[-5]) / (12.0 * h)
    out[-1] = (25.0 * a[-1] - 48.0 * a[-2] + 36.0 * a[-3] - 16.0 * a[-4] + 3.0 * a[-5]) / (12.0 * h)
    return np.moveaxis(out, 0, axis)


def d(f: Field) -> Field:
    fx = _fd4_first(f.data, f.spec.hx, 1)
    fy = _fd4_first(f.data, f.spec.hy, 0)
    return Field(f.spec, 0.5 * (fx - 1j * fy))


def d_bar(f: Field) -> Field:
    fx = _fd4_first(f.data, f.spec.hx, 1)
    fy = _fd4_first(f.data, f.spec.hy, 0)
    return Field(f.spec, 0.5 * (fx + 1j * fy))


def mult_im_pow(f: Field, p: float) -> Field:
    """Multiply by (Im z)^p.  Fractional p only on the upper half-plane grid."""
    spec = f.spec
    y = spec.y.reshape(-1, 1)
    if spec.plane is not PlaneKind.UPPER and p != int(p):
        raise ValueError("fractional powers of Im z need an upper-half-plane grid")
    return Field(spec, f.data * y**p)


def dbar_down(f: Field) -> Field:
    return mult_im_pow(d_bar(mult_im_pow(f, -1)), 2)
