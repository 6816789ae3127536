"""Sampled kernel tables for the singular integral operators.

Two kernel families drive everything:

    cauchy    K(zeta) = 1 / zeta
    beurling  K(zeta) = -1 / zeta^2

The tables hold the kernel at the offsets zeta = z - w of a cell-centered
box.  Half-plane operators read the image offsets z - conj(w) and
conj(z) - w, +/-(i + j + 1) hy in y, from the same table on a box twice as
tall, of which they read 3 ny - 1 rows (`transforms`); so a table can be
built over any range of rows dy / hy that holds 0.

Near the singularity a midpoint sample misrepresents the integral, so the
tables can replace entries by exact cell averages

    (1/|cell|) int_cell K(zeta) dA(zeta)

computed from antiderivatives with respect to the corner coordinates:

    d2/du dv [-i (zeta ln zeta - zeta)] = 1/zeta
    d2/du dv [ i  ln zeta            ] = 1/zeta^2      (zeta = u + iv)

The four-corner difference is exact as long as the log is continuous on the
whole cell.  The principal log is cut along the negative real axis, and
offsets are whole multiples of the cell size, so no corner lies on the real
axis and, on the half-table with Re(offset) >= 0, only the coincident cell
crosses the cut.  Both kernels have K(conj zeta) = conj K(zeta) and a
parity (1/zeta is odd, 1/zeta^2 is even).  The coincident cell (offset 0)
gets the value 0: the 1/zeta average vanishes by oddness, and the 1/zeta^2
entry is the omitted principal-value cell (exactly zero for square cells).

Each transform path has its own builder.  The quadrature path's
`planar_table` takes midpoint values and the per-offset averages (`avg_inv`,
`avg_inv_sq`) on the 3 x 3 shell around the singular offset; each offset is
flipped to Re >= 0 by K(-conj zeta) = parity conj K(zeta) and its
four-corner sum taken directly, good to 1e-13 relative on the shell.  Far
out that sum of values of size |zeta| ln|zeta| loses up to 1e-8 relative to
cancellation, so the fft path's `_planar_all` builds the fully averaged
1/zeta table on the corner lattice of the quadrant Re, Im(offset) >= 0:
each corner's log is taken once, the x step of the primitive is formed in
closed form through log(c + hx) = log c + log1p(hx / c), and the y
step is a finite difference along the lattice, in blocks of 128 rows, each
written into the table when done (an entry's arithmetic does not depend on
its block); the blocks run through `_blocks.run_blocks`, on the caller and
one helper, and each writes only its own rows.  Corners mirrored in Im are exact conjugates, so the
Im(offset) < 0 rows are the conjugated quadrant rows, bit for bit.  The
lower half of the Re(offset) = 0 column follows from oddness, which differs
there from conjugation only in the sign of a rounding-level part.  The
table is the half plane Re(offset) >= 0 only, nx columns dx in [0, nx), and
can span any rows (down to dy = -b hy from the quadrant's rows up to b hy).
Its Re(offset) < 0 half is K(-conj zeta) = -conj K(zeta); the fft path
never builds it, because that symmetry makes each row's x transform purely
imaginary (`transforms`).
"""

from __future__ import annotations

import math

import numpy as np

from ._blocks import run_blocks

__all__ = [
    "CellShapeError",
    "avg_inv",
    "avg_inv_sq",
    "midpoint_value",
    "planar_table",
]


class CellShapeError(ValueError):
    """The singular kernel table was asked for on cells that are not square."""


def _prim_inv(c):
    return -1j * (c * np.log(c) - c)


def _prim_inv_sq(c):
    return 1j * np.log(c)


def _per_offset_avg(z0, hx, hy, prim, parity):
    z0 = np.asarray(z0, dtype=complex)
    center = (np.abs(z0.real) < 0.25 * hx) & (np.abs(z0.imag) < 0.25 * hy)
    flip = z0.real < 0
    c = np.where(flip, -z0, z0)  # mirror to Re >= 0 by parity
    a, b = 0.5 * hx, 0.5 * hy
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (
            prim(c + a + 1j * b)
            - prim(c + a - 1j * b)
            - prim(c - a + 1j * b)
            + prim(c - a - 1j * b)
        ) / (hx * hy)
    out = np.where(flip, parity * out, out)
    return np.where(center, 0.0, out)


def avg_inv(z0, hx: float, hy: float) -> np.ndarray:
    """Exact cell averages of 1/zeta over cells centered at the offsets z0."""
    return _per_offset_avg(z0, hx, hy, _prim_inv, -1)


def avg_inv_sq(z0, hx: float, hy: float) -> np.ndarray:
    """Exact cell averages of 1/zeta^2; the coincident cell is 0 (omitted pv cell)."""
    return _per_offset_avg(z0, hx, hy, _prim_inv_sq, 1)


def _log1p(z):
    """log(1 + z) for complex z, accurate for small |z| (numpy's complex log1p is
    not), written over z with two real temporaries."""
    x, y = z.real, z.imag
    arg = np.arctan2(y, x + 1.0)
    mod = x + 2.0
    mod *= x
    y *= y
    mod += y
    np.log1p(mod, out=mod)
    mod *= 0.5
    z.real, z.imag = mod, arg
    return z


_ROW_BLOCK = 128  # quadrant rows per block of the corner lattice


def _planar_all(ny: int, nx: int, hx: float, hy: float, out) -> np.ndarray:
    """The fully averaged 1/zeta table at the offsets dy in [-below, ny), below =
    len(out) - ny, times dx in [0, nx), in `out` (its real part if `out` is real);
    the dx < 0 half is -conj of it (module docstring)."""
    below = len(out) - ny
    x0 = (np.arange(0, nx) - 0.5) * hx  # left corners of the dx >= 0 columns
    rows = max(ny, below + 1)  # quadrant rows dy / hy in [0, rows)

    def block(b: int) -> None:
        # quadrant rows [j0, j1) from the corner rows [j0, j1], one shared with the next block
        j0 = b * _ROW_BLOCK
        j1 = min(j0 + _ROW_BLOCK, rows)
        c = x0[None, :] + 1j * ((np.arange(j0, j1 + 1) - 0.5) * hy)[:, None]
        step = _log1p(hx / c)  # log(c + hx) - log c
        # (c + hx) log(c + hx) - c log c, less the -hx that the y step drops
        col = np.log(c)
        col *= hx
        c += hx
        c *= step
        col += c
        col *= -1j
        del c, step
        quad = np.diff(col, axis=0)  # offsets dx >= 0, dy >= 0
        del col
        quad /= hx * hy
        if j0 == 0:
            quad[0, 0] = 0.0  # coincident cell, the only one across the cut
        quad = quad.real if out.dtype.kind == "f" else quad
        if j0 < ny:
            out[below + j0 : below + min(j1, ny)] = quad[: ny - j0]
        lo, hi = max(j0, 1), min(j1, below + 1)  # the rows dy / hy = -j, lo <= j < hi
        if lo < hi:
            src, dst = quad[lo - j0 : hi - j0][::-1], out[below - hi + 1 : below - lo + 1]
            np.conjugate(src[:, 1:], out=dst[:, 1:])  # K(conj zeta) = conj K(zeta)
            np.multiply(src[:, 0], -1, out=dst[:, 0])  # exact oddness at dx = 0

    run_blocks(-(-rows // _ROW_BLOCK), block)
    return out


def midpoint_value(kind: str, z0: np.ndarray) -> np.ndarray:
    """Pointwise kernel values; the zero offset maps to 0 (excluded source cell)."""
    z0 = np.asarray(z0, dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore"):
        if kind == "cauchy":
            vals = 1.0 / z0
        elif kind == "beurling":
            vals = -1.0 / z0**2
        else:
            raise ValueError(f"unknown kernel kind {kind!r}")
    return np.where(z0 == 0, 0.0, vals)


def planar_table(
    kind: str, ny: int | range, nx: int, hx: float, hy: float, average: str = "shell"
) -> np.ndarray:
    """The quadrature path's table at the offsets (i - j) hy x (k - l) hx; shape
    (2 ny - 1, 2 nx - 1).

    An int ny gives the rows dy / hy in (-ny, ny); a range gives the rows in
    it, which must hold 0 (a half-plane operator reads 3 ny - 1 rows).

    average:
      none  - midpoint everywhere (coincident offset 0)
      shell - exact averages on the 3 x 3 block around the singular offset
    """
    if kind == "beurling" and not math.isclose(hx, hy, rel_tol=1e-12):
        # the pv cell vanishes by quarter-turn cancellation only when the
        # cell is square; a rectangular cell would need a nonzero pv value
        raise CellShapeError(
            f"the singular kernel table needs square cells, got hx={hx!r} hy={hy!r}"
        )
    rows = ny if isinstance(ny, range) else range(1 - ny, ny)
    dy = (np.arange(rows.start, rows.stop) * hy)[:, None]
    dx = (np.arange(-(nx - 1), nx) * hx)[None, :]
    z0 = dx + 1j * dy
    tab = midpoint_value(kind, z0)
    if average == "shell":
        shell = slice(max(-rows.start - 1, 0), 2 - rows.start), slice(nx - 2, nx + 1)
        near = z0[shell]
        tab[shell] = avg_inv(near, hx, hy) if kind == "cauchy" else -avg_inv_sq(near, hx, hy)
    elif average != "none":
        raise ValueError(f"unknown averaging mode {average!r}")
    return tab

