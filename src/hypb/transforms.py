"""The singular integral transforms, each with two independent evaluation paths.

Whole-plane operators (dA = dx dy / pi):

    cauchy    C[f](z) =  int f(w) / (z - w)   dA(w)
    beurling  B[f](z) = -pv int f(w) / (z - w)^2 dA(w)

Half-plane operators on the upper half-plane, built from a whole-plane
kernel and its image under w -> conj w (or z -> conj z):

    cauchy_down    1/(z - w) - 1/(z - conj w)
    cauchy_up      1/(z - w) - 1/(conj z - w)
    beurling_down  1/(z - conj w)^2 - 1/(z - w)^2
    beurling_up    1/(conj z - w)^2 - 1/(z - w)^2
    bicauchy_up    1 / ((z - w)(conj z - w))
    bicauchy_down  1 / ((z - w)(z - conj w))
    bicauchy_real  Re(z - w) / |(z - w)(z - conj w)|^2

Methods:

  quadrature  midpoint Riemann sums with exact cell averages near the
              singular offsets ("accurate"), or pure midpoint values with
              the single source cell w = z omitted everywhere ("matched").
              Matched evaluation makes pointwise kernel identities hold to
              rounding, because both sides then sum identical terms.
              The two-term half-plane operators sum the whole-plane table
              of the 2 ny-row box once over the extension of f (the fft
              path's layout, built separately); the product kernels are
              the Cauchy table's 1/(z - w) times a closed-form image factor.
  fft         beurling via the unimodular Fourier multiplier conj(zeta)/zeta
              on a zero-padded box; cauchy via fast convolution with the
              fully cell-averaged 1/zeta table; half-plane operators via
              odd/zero extension of the input; bicauchy_* via their exact
              factorizations through cauchy_up / cauchy_down.

Both paths evaluate their table sums as valid-mode linear convolutions
(`conv_valid`).  For a table of shape (a0, a1) and data of shape (b0, b1)
the valid block only reads table offsets inside the table, so a circular
convolution at any length >= (a0, a1) has no wrap-around there: the FFTs
run at next_fast_len of the table shape, not at the full linear length
a + b - 1 (4096 x 2048 instead of 6144 x 3072 points for a 2048 x 1024
input, 2.25 times fewer).

Every fft-path product of a spectrum or symbol with data runs through one
pruned 2-D FFT, `_pruned_fft2` (J. D. Markel, "FFT pruning", IEEE Trans.
Audio Electroacoust. 19 (1971) 305-311).  The input blocks fill b1 columns
of the P0 x P1 box, so the forward axis-0 pass runs over those columns only
(the others stay zero) and the axis-1 pass over all P0 rows; the caller
keeps k rows, so the inverse axis-0 pass runs over every column and the
axis-1 pass over those k rows only: P0 (b1 + P1) forward and (P0 + k) P1
inverse line points, against 2 P0 P1 each.  Both passes run in place in one
zeroed buffer, and only the kept block is copied out.  The inverse applies
1/P0 and 1/P1 in separate passes where ifft2 applies 1/(P0 P1) once, so it
can differ from ifft2 in the last bit.

The half-plane fft body writes f into rows [ny, 2 ny) of the box and, for
the odd extension, negates f(conj z) straight into rows [0, ny).  The down
operators and `defect_sum` keep k = ny rows, the up operators k = 2 ny.

On the fft path the spectrum of the fully averaged 1/zeta table depends
only on the geometry, so it is kept in a small LRU (`_cauchy_spectrum`,
keyed by (ny, nx, hx, hy, real)) as a read-only array; the spatial table is
dropped once transformed.  The data spectrum is multiplied in place and
inverted in place.  The quadrature path builds its own tables on every call
and never reads that cache.

The defect operator M + (i/2)(C_down + conj C_down conj) goes through one
fused transform, `defect_sum` = C_down + conj C_down conj.  Conjugating
C_down's input and output conjugates its kernel, so on the fft path the sum
is a single convolution with the real kernel 2 Re(1/zeta); with
method="quadrature" it is the two cauchy_down calls.

Every FFT of this module goes through scipy.fft, so `fft_workers(n)` sets
the worker count of the operators called inside it; pocketfft hands whole
1-D lines to its workers, so the results are bit-identical for every count.

The two paths share no kernel code beyond the table builders, so agreement
between them is a meaningful check rather than a tautology.
"""

from __future__ import annotations

import contextlib
import functools

import numpy as np
from scipy import fft as sfft

from .calculus import mult_im_pow
from .grid import Field, GridSpec, PlaneKind
from .kernels import planar_table

__all__ = [
    "KERNEL_IDS",
    "transform",
    "cauchy",
    "beurling",
    "cauchy_up",
    "cauchy_down",
    "beurling_up",
    "beurling_down",
    "bicauchy_up",
    "bicauchy_down",
    "bicauchy_real",
    "conj_sandwich",
    "defect_sum",
    "conv_valid",
    "fft_workers",
    "minimal_solve",
]

def _require_upper(f: Field, name: str):
    if f.spec.plane is not PlaneKind.UPPER:
        raise ValueError(f"{name} acts on upper-half-plane grids")


def _meta(f: Field, kernel: str, method: str, **extra) -> Field:
    f.meta.update({"kernel": kernel, "method": method, **extra})
    return f


# ---------------------------------------------------------------------------
# valid-mode convolution


def fft_workers(threads):
    """Context that runs every scipy.fft call inside it on `threads` workers (None: default)."""
    return contextlib.nullcontext() if threads is None else sfft.set_workers(threads)


def _fft_shape(tab_shape) -> tuple:
    return tuple(sfft.next_fast_len(int(n)) for n in tab_shape)


def _pruned_fft2(kspec: np.ndarray, blocks, rows: slice, cols: slice) -> np.ndarray:
    """Rows `rows`, columns `cols` of ifft2(kspec * fft2(box)), as a new array.

    The box has kspec's shape and is zero but for `blocks`, (row, data, sign)
    triples: sign * data (sign +1 or -1) at rows [row, row + len(data)) and
    columns [0, b1), one width b1 for all blocks.
    """
    buf = np.zeros(kspec.shape, dtype=complex)
    b1 = blocks[0][1].shape[1]
    for row, data, sign in blocks:
        dst = buf[row : row + len(data), :b1]
        if sign == 1:
            dst[...] = data
        else:
            np.negative(data, out=dst)
    sfft.fft(buf[:, :b1], axis=0, overwrite_x=True)
    sfft.fft(buf, axis=1, overwrite_x=True)
    buf *= kspec
    sfft.ifft(buf, axis=0, overwrite_x=True)
    out = buf[rows]
    sfft.ifft(out, axis=1, overwrite_x=True)
    return out[:, cols].copy()


def conv_valid(tab: np.ndarray, data: np.ndarray) -> np.ndarray:
    """Valid-mode linear convolution of a table with data no larger than it.

    out[i, j] = sum_{k, l} tab[i + b0 - 1 - k, j + b1 - 1 - l] data[k, l], of
    shape tab.shape - data.shape + 1 (module docstring: FFT length).
    """
    if tab.ndim != 2 or data.ndim != 2 or any(b > a for a, b in zip(tab.shape, data.shape)):
        raise ValueError(f"need 2-D data no larger than the table, got {data.shape} "
                         f"against {tab.shape}")
    (a0, a1), (b0, b1) = tab.shape, data.shape
    kspec = sfft.fft2(tab, s=_fft_shape(tab.shape))
    return _pruned_fft2(kspec, [(0, data, 1)], slice(b0 - 1, a0), slice(b1 - 1, a1))


# ---------------------------------------------------------------------------
# quadrature path


def _avg_mode(mode: str) -> str:
    if mode == "accurate":
        return "shell"
    if mode == "matched":
        return "none"
    raise ValueError(f"unknown quadrature mode {mode!r}")


def _planar_quad(f: Field, kind: str, mode: str) -> np.ndarray:
    spec = f.spec
    tab = planar_table(kind, spec.ny, spec.nx, spec.hx, spec.hy, average=_avg_mode(mode))
    return conv_valid(tab, f.data) * spec.cell_measure


def _two_term_quad(f: Field, kind: str, sign: int, mode: str) -> np.ndarray:
    """The whole-plane table of the 2 ny-row box, summed over f's extension.

    f fills rows [ny, 2 ny) of the box.  sign +1 (z - conj w, the down
    operators) puts its negated reflection in rows [0, ny) and keeps rows
    [ny, 2 ny), which read table rows [ny, 4 ny - 1) only.  sign -1
    (conj z - w, the up operators) leaves rows [0, ny) zero, so the sum is
    over f with table rows [0, 3 ny - 1), and subtracts the rows at conj z.
    """
    spec = f.spec
    ny, nx = spec.ny, spec.nx
    tab = planar_table(kind, 2 * ny, nx, spec.hx, spec.hy, average=_avg_mode(mode))
    if sign == 1:
        out = conv_valid(tab[ny:], np.concatenate([-f.data[::-1], f.data]))
    else:
        full = conv_valid(tab[: 3 * ny - 1], f.data)
        out = full[ny:] - full[ny - 1 :: -1]
    if mode == "matched":
        # add back the image of the source cell w = z, so the whole summand
        # is omitted and per-point kernel identities survive
        image = tab[2 * ny - 1 + sign * (2 * np.arange(ny) + 1), nx - 1]
        out += image[:, None] * f.data
    return out * spec.cell_measure


def _product_quad(f: Field, which: str, mode: str) -> np.ndarray:
    """Product kernels: the 1/(z - w) factor, shell averages included, from
    the Cauchy table, times the midpoint image factor at Im = (i + j + 1) hy."""
    spec = f.spec
    ny, nx = spec.ny, spec.nx
    tab = planar_table("cauchy", ny, nx, spec.hx, spec.hy, average=_avg_mode(mode))
    dx = (np.arange(-(nx - 1), nx) * spec.hx)[None, :]
    s = (np.arange(1, 2 * ny) * spec.hy)[:, None]
    if which == "bicauchy_up":
        image = 1.0 / (dx - 1j * s)  # 1/(conj z - w)
    elif which == "bicauchy_down":
        image = 1.0 / (dx + 1j * s)  # 1/(z - conj w)
    else:  # bicauchy_real: Re 1/(z - w) times 1/|z - conj w|^2
        tab = tab.real
        image = 1.0 / (dx**2 + s**2)
    L = _fft_shape([2 * nx - 1])[0]  # a kernel row's length suffices (valid block)
    fhat = sfft.fft(f.data, n=L, axis=1)
    out = np.empty((ny, nx), dtype=complex)
    for i in range(ny):
        # source row j reads table row i + ny - 1 - j and image row i + j
        ki = tab[i : i + ny][::-1] * image[i : i + ny]
        acc = np.sum(sfft.fft(ki, n=L, axis=1) * fhat, axis=0)
        out[i] = sfft.ifft(acc)[nx - 1 : 2 * nx - 1]
    return out * spec.cell_measure


# ---------------------------------------------------------------------------
# fft path


def _beurling_symbol(py: int, px: int, hx: float, hy: float) -> np.ndarray:
    """The unimodular multiplier conj(zeta)/zeta on a py x px box, 0 at zeta = 0."""
    zeta = (
        2.0 * np.pi * np.fft.fftfreq(px, d=hx)[None, :]
        + 2j * np.pi * np.fft.fftfreq(py, d=hy)[:, None]
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        mult = np.conj(zeta) / zeta
    mult[0, 0] = 0.0
    return mult


def _beurling_multiplier(data: np.ndarray, hx: float, hy: float, padding: int) -> np.ndarray:
    ny, nx = data.shape
    symbol = _beurling_symbol(padding * ny, padding * nx, hx, hy)
    return _pruned_fft2(symbol, [(0, data, 1)], slice(0, ny), slice(0, nx))


# fully averaged 1/zeta spectra kept per geometry; the largest battery one
# (the nullspace check's 2048 x 1024 extended grid) is 134 MB
_SPECTRUM_CACHE_SIZE = 2


@functools.lru_cache(maxsize=_SPECTRUM_CACHE_SIZE)
def _cauchy_spectrum(ny: int, nx: int, hx: float, hy: float, real: bool) -> np.ndarray:
    """Read-only spectrum of the fully averaged 1/zeta table (2 Re of it if real)."""
    tab = planar_table("cauchy", ny, nx, hx, hy, average="all")
    if real:
        tab = 2.0 * tab.real
    kspec = sfft.fft2(tab, s=_fft_shape(tab.shape), overwrite_x=True)
    kspec.flags.writeable = False
    return kspec


def _cauchy_fft(blocks, ny: int, spec: GridSpec, rows: slice, real: bool = False) -> np.ndarray:
    """Rows `rows` of the Cauchy transform of the ny-row box holding `blocks`, on spec's cells."""
    nx = spec.nx
    kspec = _cauchy_spectrum(ny, nx, spec.hx, spec.hy, real)
    valid = slice(rows.start + ny - 1, rows.stop + ny - 1)
    out = _pruned_fft2(kspec, blocks, valid, slice(nx - 1, 2 * nx - 1))
    out *= spec.cell_measure
    return out


def _half_plane_fft(f: Field, kind: str, sign: int, padding: int = 2,
                    real: bool = False) -> np.ndarray:
    """Whole-plane `kind` on the odd (sign +1) or zero (sign -1) extension of f;
    sign -1 subtracts the values at conj z from those at z."""
    s = f.spec
    ny, nx = s.ny, s.nx
    blocks = [(ny, f.data, 1)]
    rows = slice(0, 2 * ny)
    if sign == 1:
        blocks.append((0, f.data[::-1], -1))
        rows = slice(ny, 2 * ny)
    if kind == "cauchy":
        out = _cauchy_fft(blocks, 2 * ny, s, rows, real)
    else:
        symbol = _beurling_symbol(2 * padding * ny, padding * nx, s.hx, s.hy)
        out = _pruned_fft2(symbol, blocks, rows, slice(0, nx))
    return out if sign == 1 else out[ny:] - out[ny - 1 :: -1]


# ---------------------------------------------------------------------------
# public operators


def cauchy(f: Field, method: str = "fft", mode: str = "accurate") -> Field:
    if method == "fft":
        ny = f.spec.ny
        out = _cauchy_fft([(0, f.data, 1)], ny, f.spec, slice(0, ny))
    elif method == "quadrature":
        out = _planar_quad(f, "cauchy", mode)
    else:
        raise ValueError(f"unknown method {method!r}")
    return _meta(Field(f.spec, out), "cauchy", method)


def beurling(f: Field, method: str = "fft", mode: str = "accurate", padding: int = 2) -> Field:
    if method == "fft":
        out = _beurling_multiplier(f.data, f.spec.hx, f.spec.hy, padding)
        return _meta(Field(f.spec, out), "beurling", method, padding=padding)
    if method == "quadrature":
        out = _planar_quad(f, "beurling", mode)
        return _meta(Field(f.spec, out), "beurling", method)
    raise ValueError(f"unknown method {method!r}")


def _half_plane(f: Field, name: str, kind: str, sign: int, method: str, mode: str,
                padding: int = 2) -> Field:
    """The half-plane operator `name`: translation kernel `kind` less its mirror.

    sign +1 (z - conj w, the down operators) extends f oddly; sign -1
    (conj z - w, the up operators) extends f by zero (`_half_plane_fft`).
    """
    _require_upper(f, name)
    if method == "quadrature":
        out = _two_term_quad(f, kind, sign=sign, mode=mode)
    elif method == "fft":
        out = _half_plane_fft(f, kind, sign, padding)
    else:
        raise ValueError(f"unknown method {method!r}")
    return _meta(Field(f.spec, out), name, method)


def cauchy_down(f: Field, method: str = "fft", mode: str = "accurate") -> Field:
    return _half_plane(f, "cauchy_down", "cauchy", +1, method, mode)


def cauchy_up(f: Field, method: str = "fft", mode: str = "accurate") -> Field:
    return _half_plane(f, "cauchy_up", "cauchy", -1, method, mode)


def beurling_down(f: Field, method: str = "fft", mode: str = "accurate", padding: int = 2) -> Field:
    return _half_plane(f, "beurling_down", "beurling", +1, method, mode, padding)


def beurling_up(f: Field, method: str = "fft", mode: str = "accurate", padding: int = 2) -> Field:
    return _half_plane(f, "beurling_up", "beurling", -1, method, mode, padding)


# the fft path of each product kernel: its exact factorization through the
# half-plane cauchy transforms
_FACTORIZATION = {
    # cauchy_up = -2i M bicauchy_up
    "bicauchy_up": lambda f: mult_im_pow(Field(f.spec, 0.5j * cauchy_up(f).data), -1).data,
    # cauchy_down[g] = 2i bicauchy_down[M g]
    "bicauchy_down": lambda f: -0.5j * cauchy_down(mult_im_pow(f, -1)).data,
    # real part of the sandwiched cauchy_down: (C + conj C conj)/2 = 4 M E M
    "bicauchy_real": lambda f: mult_im_pow(
        Field(f.spec, 0.125 * defect_sum(mult_im_pow(f, -1)).data), -1).data,
}


def _bicauchy(f: Field, name: str, method: str, mode: str) -> Field:
    """The product-kernel operator `name`: table quadrature or its factorization."""
    _require_upper(f, name)
    if method == "quadrature":
        out = _product_quad(f, name, mode)
    elif method == "fft":
        out = _FACTORIZATION[name](f)
    else:
        raise ValueError(f"unknown method {method!r}")
    return _meta(Field(f.spec, out), name, method)


def bicauchy_up(f: Field, method: str = "fft", mode: str = "accurate") -> Field:
    return _bicauchy(f, "bicauchy_up", method, mode)


def bicauchy_down(f: Field, method: str = "fft", mode: str = "accurate") -> Field:
    return _bicauchy(f, "bicauchy_down", method, mode)


def bicauchy_real(f: Field, method: str = "fft", mode: str = "accurate") -> Field:
    return _bicauchy(f, "bicauchy_real", method, mode)


_DISPATCH = {
    "cauchy": cauchy,
    "beurling": beurling,
    "cauchy_up": cauchy_up,
    "cauchy_down": cauchy_down,
    "beurling_up": beurling_up,
    "beurling_down": beurling_down,
    "bicauchy_up": bicauchy_up,
    "bicauchy_down": bicauchy_down,
    "bicauchy_real": bicauchy_real,
}
KERNEL_IDS = tuple(_DISPATCH)


def transform(f: Field, kernel: str, method: str = "fft", mode: str = "accurate", **kw) -> Field:
    if kernel not in _DISPATCH:
        raise ValueError(f"unknown kernel {kernel!r}; choose from {KERNEL_IDS}")
    return _DISPATCH[kernel](f, method=method, mode=mode, **kw)


def conj_sandwich(op, f: Field, **kw) -> Field:
    """conj after op after conj; the mirror-conjugate companion of op."""
    g = op(f.conj(), **kw)
    return Field(f.spec, np.conj(g.data), meta=dict(g.meta))


def defect_sum(f: Field, method: str = "fft", mode: str = "accurate") -> Field:
    """C_down f + conj C_down(conj f), the transform part of the defect
    operator M + (i/2)(C_down + conj C_down conj).

    fft: one convolution of the odd extension with the real kernel
    2 Re(1/zeta); quadrature: the two cauchy_down calls.
    """
    _require_upper(f, "defect_sum")
    if method == "fft":
        out = _half_plane_fft(f, "cauchy", +1, real=True)
    elif method == "quadrature":
        out = (cauchy_down(f, method, mode).data
               + conj_sandwich(cauchy_down, f, method=method, mode=mode).data)
    else:
        raise ValueError(f"unknown method {method!r}")
    return _meta(Field(f.spec, out), "defect_sum", method)


# ---------------------------------------------------------------------------
# derived solvers


def minimal_solve(f: Field, method: str = "fft", mode: str = "accurate") -> Field:
    """Minimal-norm u with M^2 dbar (M^-1 u) = f: u = M cauchy_down[M^-2 f].

    The bound ||u|| <= 4 ||f|| holds in the hyperbolic norm on both sides,
    ||g||^2 = int |g|^2 (Im z)^-2 dA (lp_norm with WeightKind.HYPERBOLIC, as
    the minimal-solver/bound-* checks measure it).  In plain L2 of the
    half-plane the operator is unbounded: its finite sections at x-frequency
    +1 grow without bound.  The solution is orthogonal to M times the
    holomorphic directions.
    """
    g = cauchy_down(mult_im_pow(f, -2), method=method, mode=mode)
    out = mult_im_pow(g, 1)
    out.meta.update({"kernel": "minimal_solve", "method": method})
    return out
