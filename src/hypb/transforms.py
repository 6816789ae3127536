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
    defect_sum     2 Re (1/(z - w) - 1/(z - conj w))

`defect_sum` is C_down + conj C_down conj, the transform part of the
defect operator M + (i/2)(C_down + conj C_down conj): conjugating C_down's
input and output conjugates its kernel, so the sum is cauchy_down with 2 Re
of the kernel: one sum of a real table, on either path.

`transform(f, kernel, method, padding)` is the one way to call an
operator.  Its table `_KERNELS` gives each translation kernel as a
whole-plane kind (1/zeta or -1/zeta^2) and a sign: the kind is summed over
f (sign 0), over f's odd extension (+1: z - conj w, the down operators) or
over f's zero extension less the values at conj z (-1: conj z - w, the up
operators); `defect_sum`'s third entry, True, takes 2 Re of the kind.  The
product kernels map to None.  Each path has one body per class:
`_plane_quad` and `_product_quad`, `_plane_fft` and `_FACTORIZATION`.

Methods:

  quadrature          midpoint Riemann sums with exact cell averages near
                      the singular offsets.  The half-plane operators sum
                      the whole-plane table once over the extension of f,
                      built with just the 3 ny - 1 rows the sum reads (the
                      fft path's rows, built separately); the product
                      kernels are the Cauchy table's 1/(z - w) times a
                      closed-form image factor.
  quadrature-matched  the same sums with pure midpoint values and the
                      single source cell w = z omitted everywhere, so
                      pointwise kernel identities hold to rounding: both
                      sides then sum identical terms.
  fft                 beurling via the Fourier multiplier conj(zeta)/zeta
                      on a zero-padded box (`padding` scales it), with
                      the Nyquist rule of `_beurling_symbol`; cauchy via
                      fast convolution with the fully cell-averaged
                      1/zeta table; the product kernels via their exact
                      factorizations through cauchy_up / cauchy_down.

Every transform is `numpy.fft` (pocketfft).  The complex 2-D forward
transforms run as per-axis passes, axis 0 first, the order of
`scipy.fft.fft2` (numpy's `fft2` runs axis 1 first, which differs in the
last bit), in place through `out=`.

The quadrature path evaluates its table sums as valid-mode linear
convolutions, `conv_valid`, one whole-box product each.  For a table of
shape (a0, a1) and data of shape (b0, b1) the valid block only reads table
offsets inside the table, so a circular convolution at any length >= (a0,
a1) has no wrap-around there: the FFTs run at the next 11-smooth lengths
of the table shape (`_fft_shape`), not at the full linear length a + b - 1
(3072 x 2048 instead of 5120 x 3072 points for a 2048 x 1024 input and a
3071 x 2047 table, 2.5 times fewer).

Every fft-path product of a spectrum or symbol with data runs through one
pruned 2-D FFT, `_pruned_fft2` (J. D. Markel, "FFT pruning", IEEE Trans.
Audio Electroacoust. 19 (1971) 305-311), x first.  Its input is f in b0 rows
of the P0 x P1 box and, for the odd extension, -f reversed below it, so the
x pass runs over f's rows only, in row panels (the lower block reads f's
x-spectrum reversed and negated, exactly).  Then each panel of 32 columns
gets a zeroed P0 x 32 buffer, the y pass, the product, the inverse y pass
and the caller's k rows, and the inverse x pass runs over those k rows only:
(b0 + P0) P1 forward and (P0 + k) P1 inverse line points, against 2 P0 P1
each, with no P0 x P1 buffer.  The kept rows are written over the x-spectrum
when f has at least k rows; each panel's columns are read into its buffer
before its kept rows are written back.  The inverse applies 1/P0 and 1/P1 in
separate passes where ifft2 applies 1/(P0 P1) once, so it can differ from
ifft2 in the last bit.  Every spectrum and symbol is stored as its rows ky
in [0, P0 // 2] only, and the product reads row j > P0 // 2 as sigma
conj(S[P0 - j]): sigma = -1 for the Cauchy spectra, +1 for the Beurling
symbol (W. L. Briggs and V. E. Henson, The DFT: An Owner's Manual, SIAM
1995).  It forms those rows in the panel itself, as conj(conj(row)
S[P0 - j]), negated for sigma = -1: every step is exact, and no lower-half
temporary is made.  Its sibling `_pruned_rfft2` takes a real kernel's
spectrum on the columns kx in [0, P1 // 2] (H. V. Sorensen et al., IEEE
Trans. ASSP 35 (1987) 849-863), and runs the same pass with rfft and irfft
on the real, then the imaginary part of f.

The fft body puts f in an ny-row box for sign 0.  For the half-plane signs
it lays the extension out over 2 ny rows: f in rows [ny, 2 ny) and, for the
odd extension, -f(conj z) written straight into rows [0, ny); that is the
Beurling multiplier's box (times the padding).  The Cauchy table holds just
the 3 ny - 1 rows dy / hy in (-ny, 2 ny) the odd extension reads, so its box
is next_fast_len(3 ny - 1) rows tall (3072, not 4096, for nullspace).  The
zero extension reads the same rows reflected through 0, so it is summed
over f flipped in x and y with the down operators' spectrum (1/zeta is odd,
and the flip swaps z and conj z in the fold below: the two signs cancel).
The whole-plane and down operators and `defect_sum` keep k = ny rows.  The
up operators keep 2 ny rows Q and, as the inverse x pass is linear in rows,
fold them before it to Q[ny + i] - Q[ny - 1 - i], the values at z less
those at conj z (flipped back in x for Cauchy).

On the fft path the spectrum of the fully averaged 1/zeta table depends
only on the geometry, so it is kept in a small LRU (`_cauchy_spectrum`,
keyed by (top, ny, nx, hx, hy, real) for the rows dy / hy in (-ny, top)) as
a read-only array.  The table sits circularly in x in its P0 x P1 box: dx
>= 0 in columns [0, nx), dx < 0 wrapped to [P1 - nx + 1, P1), so the
products keep columns [0, nx).  `kernels._planar_all` builds the dx >= 0
half only; the other half is K(-conj zeta) = -conj K(zeta), so i K is
Hermitian in x and each row's x transform is -i R with R real, R = hfft of
i K's half row.  For the real kernel 2 Re K each row is odd in x, and its
transform is i R with R the imaginary part of the rfft of the odd row, kept
on kx in [0, P1 // 2].  The half table is built in the leading columns of
R's own rows, and each row panel's R is written over the table rows it was
read from.  The y transform of a real R is Hermitian in ky, so the spectrum
is -i (2i for 2 Re K) times the rfft of R along y, in column panels
zero-padded to P0: (P0 // 2 + 1) x P1 complex, or (P0 // 2 + 1) x (P1 // 2
+ 1) for the real kernel, half the full spectrum's bytes, and its row P0 - j
is -conj of row j.  The Beurling symbol conj(zeta)/zeta takes its
conjugate at -ky (sigma = +1), and `_beurling_symbol` computes its rows ky
in [0, py // 2] only, on every call.  The data spectrum is multiplied in
place and inverted in place.  The quadrature path builds its own tables on
every call and never reads that cache.

The two paths share no code but `_fft_shape`, so agreement between them is
a meaningful check rather than a tautology; tests/test_api_surface.py holds
them to it (`test_fft_and_quadrature_paths_share_only_fft_shape`).
"""

from __future__ import annotations

import functools

import numpy as np

from .calculus import mult_im_pow
from .grid import Field, PlaneKind
from .kernels import _planar_all, planar_table

__all__ = [
    "KERNEL_IDS",
    "WHOLE_PLANE",
    "transform",
    "conv_valid",
    "minimal_solve",
]

def _require_upper(f: Field, name: str):
    if f.spec.plane is not PlaneKind.UPPER:
        raise ValueError(f"{name} acts on upper-half-plane grids")


# ---------------------------------------------------------------------------
# shared by both paths: transform lengths


def _fft_shape(tab_shape) -> tuple:
    """Each length raised to the next 11-smooth integer (2^a 3^b 5^c 7^d 11^e),
    pocketfft's fast lengths for complex transforms."""
    out = []
    for n in map(int, tab_shape):
        if n < 1:
            raise ValueError(f"transform lengths must be positive, got {n}")
        while True:
            m = n
            for p in (2, 3, 5, 7, 11):
                while m % p == 0:
                    m //= p
            if m == 1:
                break
            n += 1
        out.append(n)
    return tuple(out)


# ---------------------------------------------------------------------------
# quadrature path


def conv_valid(tab: np.ndarray, data: np.ndarray) -> np.ndarray:
    """Valid-mode linear convolution of a table with data no larger than it.

    out[i, j] = sum_{k, l} tab[i + b0 - 1 - k, j + b1 - 1 - l] data[k, l], of
    shape tab.shape - data.shape + 1 (module docstring: FFT length).
    """
    if tab.ndim != 2 or data.ndim != 2 or any(b > a for a, b in zip(tab.shape, data.shape)):
        raise ValueError(f"need 2-D data no larger than the table, got {data.shape} "
                         f"against {tab.shape}")
    (a0, a1), (b0, b1) = tab.shape, data.shape
    s0, s1 = _fft_shape(tab.shape)

    def fft2(a):  # zero-padded to (s0, s1); axis 0 over a's columns only
        box = np.zeros((s0, s1), dtype=complex)
        cols = box[:, : a.shape[1]]
        cols[: len(a)] = a
        np.fft.fft(cols, axis=0, out=cols)
        return np.fft.fft(box, axis=1, out=box)

    prod = fft2(tab)
    prod *= fft2(data)
    return np.fft.ifft2(prod, out=prod)[b0 - 1 : a0, b1 - 1 : a1]


def _plane_quad(f: Field, kind: str, sign: int, real: bool = False, *,
                average: str) -> np.ndarray:
    """The whole-plane `kind` table, or 2 Re of it with `real`, summed over f
    (sign 0) or its extension.

    For the half-plane signs f fills rows [ny, 2 ny) of a 2 ny-row box.
    sign +1 (z - conj w, the down operators) puts its negated reflection in
    rows [0, ny) and keeps rows [ny, 2 ny), which read the offsets dy / hy
    in (-ny, 2 ny) only.  sign -1 (conj z - w, the up operators) leaves rows
    [0, ny) zero, so the sum is over f with the offsets in (-2 ny, ny), and
    subtracts the rows at conj z.  The table holds just those 3 ny - 1 rows.
    """
    spec = f.spec
    ny, nx = spec.ny, spec.nx
    rows = {0: range(1 - ny, ny), 1: range(1 - ny, 2 * ny), -1: range(1 - 2 * ny, ny)}[sign]
    tab = planar_table(kind, rows, nx, spec.hx, spec.hy, average=average)
    if real:
        tab = 2.0 * tab.real
    if sign == 1:
        out = conv_valid(tab, np.concatenate([-f.data[::-1], f.data]))
    else:
        out = conv_valid(tab, f.data)
    if sign == -1:
        out = out[ny:] - out[ny - 1 :: -1]
    if sign and average == "none":
        # add back the image of the source cell w = z, at dy / hy = sign (2 i + 1),
        # so the whole summand is omitted and per-point kernel identities survive
        image = tab[sign * (2 * np.arange(ny) + 1) - rows.start, nx - 1]
        out += image[:, None] * f.data
    return out * spec.cell_measure


def _product_quad(f: Field, which: str, average: str) -> np.ndarray:
    """Product kernels: the 1/(z - w) factor, shell averages included, from
    the Cauchy table, times the midpoint image factor at Im = (i + j + 1) hy."""
    spec = f.spec
    ny, nx = spec.ny, spec.nx
    tab = planar_table("cauchy", ny, nx, spec.hx, spec.hy, average=average)
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
    fhat = np.fft.fft(f.data, n=L, axis=1)
    out = np.empty((ny, nx), dtype=complex)
    for i in range(ny):
        # source row j reads table row i + ny - 1 - j and image row i + j
        ki = tab[i : i + ny][::-1] * image[i : i + ny]
        acc = np.sum(np.fft.fft(ki, n=L, axis=1) * fhat, axis=0)
        out[i] = np.fft.ifft(acc)[nx - 1 : 2 * nx - 1]
    return out * spec.cell_measure


# ---------------------------------------------------------------------------
# fft path


_PANEL = 32  # rows of an x pass, or columns of a y pass, per block


def _pruned(kspec, P0, sigma, f, lift, odd, rows, cols, fold, xfft, xinv,
            out=None) -> np.ndarray:
    """`_pruned_fft2` with the x transform xfft onto kspec's columns and its
    inverse xinv, into `out` or a complex array made after the y pass."""
    h, H = kspec.shape
    mirror = kspec[P0 - h : 0 : -1]  # row P0 - j, for each row j >= h
    k = len(range(P0)[rows]) // (2 if fold else 1)
    n = len(f)
    x = np.empty((n, H), dtype=complex)
    for r in range(0, n, _PANEL):  # x first, over f's rows only
        x[r : r + _PANEL] = xfft(f[r : r + _PANEL])
    # the kept rows go over the x-spectrum if it is tall enough: each panel
    # reads its columns into the buffer before its kept rows are written back
    kept = x[:k] if n >= k else np.empty((k, H), dtype=complex)
    for c0 in range(0, H, _PANEL):
        c = slice(c0, min(c0 + _PANEL, H))
        buf = np.zeros((P0, c.stop - c0), dtype=complex)
        buf[lift : lift + n] = x[:, c]
        if odd:
            np.negative(x[::-1, c], out=buf[:n])
        np.fft.fft(buf, axis=0, out=buf)
        buf[:h] *= kspec[:, c]
        low = buf[h:]  # times sigma conj(kspec[P0 - j]) as conj(conj(low) kspec[P0 - j])
        np.conjugate(low, out=low)
        low *= mirror[:, c]
        np.conjugate(low, out=low)
        if sigma < 0:
            np.negative(low, out=low)
        q = np.fft.ifft(buf, axis=0, out=buf)[rows]
        kept[:, c] = q[k:] - q[k - 1 :: -1] if fold else q
    del x, buf, q, low  # only the kept rows live on beside the output
    if out is None:
        out = np.empty((k, len(range(H)[cols])), dtype=complex)
    for r in range(0, k, _PANEL):
        out[r : r + _PANEL] = xinv(kept[r : r + _PANEL])[:, cols]
    return out


def _pruned_fft2(kspec, P0, sigma, f, lift, odd, rows, cols, fold=False) -> np.ndarray:
    """Rows `rows`, columns `cols` of ifft2(S * fft2(box)), as a new array.

    S is P0 x P1, P1 = kspec.shape[1]: its rows j <= P0 // 2 are kspec, and
    row j > P0 // 2 is sigma conj(kspec[P0 - j]) (module docstring).  The box
    is zero but for f, b0 x b1, at rows [lift, lift + b0) and columns
    [0, b1), and with `odd` also -f[::-1] at rows [0, b0) (lift >= b0).
    With `fold` the 2 k kept rows Q give the k rows Q[k + i] - Q[k - 1 - i].
    """
    P1 = kspec.shape[1]
    return _pruned(kspec, P0, sigma, f, lift, odd, rows, cols, fold,
                   lambda a: np.fft.fft(a, n=P1, axis=1), lambda a: np.fft.ifft(a, axis=1))


def _pruned_rfft2(kspec, P0, sigma, f, lift, odd, rows, cols, n1) -> np.ndarray:
    """`_pruned_fft2` for a real kernel on a P0 x n1 box, whose spectrum is
    kept on the columns kx in [0, n1 // 2] only (module docstring)."""
    out = np.empty((len(range(P0)[rows]), len(range(n1)[cols])), dtype=complex)
    for part in (np.real, np.imag):  # views of out
        _pruned(kspec, P0, sigma, f, lift, odd, rows, cols, False,
                lambda a: np.fft.rfft(part(a), n=n1, axis=1),
                lambda a: np.fft.irfft(a, n=n1, axis=1), part(out))
    return out


def _beurling_symbol(py: int, px: int, hx: float, hy: float) -> np.ndarray:
    """The multiplier conj(zeta)/zeta on the rows ky in [0, py // 2] of a
    py x px box, 0 at zeta = 0: ((kx^2 - ky^2) - 2i kx ky) / (kx^2 + ky^2),
    with no complex division.  Row py - j of the box is conj of row j.

    Nyquist rule: on an even axis one bin stands for both +pi/h and -pi/h,
    so on that row or column the odd part -2 kx ky takes the mean of its two
    aliases, 0 (W. L. Briggs and V. E. Henson, *The DFT*, SIAM 1995).  The
    discrete kernel then keeps the x-reflection and transposition symmetries
    of -1/zeta^2; the multiplier is unimodular away from zeta = 0 and
    those lines."""
    kx = 2.0 * np.pi * np.fft.fftfreq(px, d=hx)
    ky = 2.0 * np.pi * np.fft.fftfreq(py, d=hy)[: py // 2 + 1, None]
    r2 = kx**2 + ky**2
    r2[0, 0] = 1.0  # at zeta = 0 both numerators are 0
    mult = np.empty(r2.shape, dtype=complex)
    np.subtract(kx**2, ky**2, out=mult.real)
    np.multiply(-2.0 * kx, ky, out=mult.imag)
    mult.real /= r2
    mult.imag /= r2
    if py % 2 == 0:  # the Nyquist rule, in place
        mult.imag[py // 2] = 0.0
    if px % 2 == 0:
        mult.imag[:, px // 2] = 0.0
    return mult


# fully averaged 1/zeta spectra kept per geometry, at most 28.3 MB each in
# the battery (cup-norm's tuned member: the 4609 x 384 rows kept of its
# 9216 x 384 box); no build or product holds a buffer of a full spectrum's
# size beside it, and evicting the older one first measured no gain
_SPECTRUM_CACHE_SIZE = 2


@functools.lru_cache(maxsize=_SPECTRUM_CACHE_SIZE)
def _cauchy_spectrum(top: int, ny: int, nx: int, hx: float, hy: float, real: bool) -> np.ndarray:
    """Read-only rows ky in [0, P0 // 2] of the spectrum of the fully averaged
    1/zeta table at the offsets dy in (-ny, top), laid out circularly in x in
    its P0 x P1 box; with `real`, of 2 Re of it, on the columns kx in
    [0, P1 // 2].  Row P0 - j of the box's spectrum is -conj of row j."""
    a0 = top + ny - 1
    P0, P1 = _fft_shape((a0, 2 * nx - 1))
    W = P1 // 2 + 1 if real else P1
    # each row's x transform is imaginary (module docstring): -1j R, or 1j R
    # for the real kernel.  The table is built in R's leading columns, and
    # each row panel's R goes over the table rows it was read from: so the
    # build never holds a table beside R (P1 + P1 % 2 >= 2 nx floats)
    R = np.empty((a0, W if real else P1 + P1 % 2))
    tab = _planar_all(top, nx, hx, hy, R[:, :nx] if real else R[:, : 2 * nx].view(complex))
    for r in range(0, a0, _PANEL):
        t = tab[r : r + _PANEL]
        if real:  # the odd row, its x-mirror negated
            row = np.zeros((len(t), P1))
            row[:, :nx] = t
            np.negative(t[:, :0:-1], out=row[:, P1 - nx + 1 :])
            R[r : r + _PANEL, :W] = np.fft.rfft(row, axis=1).imag
        else:  # i K is Hermitian in x: its transform is real
            R[r : r + _PANEL, :W] = np.fft.hfft(1j * t, n=P1, axis=1)
    R = R[:, :W]
    kspec = np.empty((P0 // 2 + 1, W), dtype=complex)
    for c0 in range(0, W, _PANEL):  # y over R's columns, zero-padded to P0
        kspec[:, c0 : c0 + _PANEL] = np.fft.rfft(R[:, c0 : c0 + _PANEL], n=P0, axis=0)
    kspec *= 2j if real else -1j  # exact: 2 Re K for the real kernel
    kspec.flags.writeable = False
    return kspec


def _plane_fft(f: Field, kind: str, sign: int, real: bool = False, *,
               padding: int) -> np.ndarray:
    """Whole-plane `kind` on f (sign 0), its odd extension (+1) or its zero
    extension less the values at conj z (-1, subtracted before the inverse
    x pass); `real` takes 2 Re of the Cauchy kernel, `padding` scales the
    Beurling multiplier's box."""
    s = f.spec
    ny, nx = s.ny, s.nx
    # the half-plane boxes hold f in rows [ny, 2 ny) of 2 ny
    box, data, lift, odd, rows = 2 * ny, f.data, ny, sign == 1, slice(0, 2 * ny)
    if sign == 0:
        box, lift, rows = ny, 0, slice(0, ny)
    elif sign == 1:
        rows = slice(ny, 2 * ny)
    elif kind == "cauchy":  # the down table over f flipped in x and y (module docstring)
        data, lift = f.data[::-1, ::-1], 0
    if kind == "beurling":
        symbol = _beurling_symbol(padding * box, padding * nx, s.hx, s.hy)
        return _pruned_fft2(symbol, padding * box, 1, data, lift, odd, rows, slice(0, nx),
                            fold=sign < 0)
    P0, P1 = _fft_shape((box + ny - 1, 2 * nx - 1))
    args = (_cauchy_spectrum(box, ny, nx, s.hx, s.hy, real), P0, -1, data, lift, odd,
            slice(rows.start + ny - 1, rows.stop + ny - 1), slice(0, nx))
    out = _pruned_rfft2(*args, P1) if real else _pruned_fft2(*args, fold=sign < 0)
    if sign < 0:  # the fold of the flipped sum, flipped back in x
        return out[:, ::-1] * s.cell_measure
    out *= s.cell_measure
    return out


# the fft path of each product kernel: its exact factorization through the
# half-plane cauchy transforms
_FACTORIZATION = {
    # cauchy_up = -2i M bicauchy_up
    "bicauchy_up": lambda f: mult_im_pow(Field(f.spec, 0.5j * transform(f, "cauchy_up").data),
                                         -1).data,
    # cauchy_down[g] = 2i bicauchy_down[M g]
    "bicauchy_down": lambda f: -0.5j * transform(mult_im_pow(f, -1), "cauchy_down").data,
    # real part of the sandwiched cauchy_down: (C + conj C conj)/2 = 4 M E M
    "bicauchy_real": lambda f: mult_im_pow(
        Field(f.spec, 0.125 * transform(mult_im_pow(f, -1), "defect_sum").data), -1).data,
}


# ---------------------------------------------------------------------------
# the dispatcher


# kernel id: (whole-plane kind, sign[, real part]) of a translation kernel
# (module docstring), None for a product kernel
_KERNELS = {
    "cauchy": ("cauchy", 0), "beurling": ("beurling", 0),
    "cauchy_up": ("cauchy", -1), "cauchy_down": ("cauchy", 1),
    "beurling_up": ("beurling", -1), "beurling_down": ("beurling", 1),
    "bicauchy_up": None, "bicauchy_down": None, "bicauchy_real": None,
    "defect_sum": ("cauchy", 1, True),
}
KERNEL_IDS = tuple(_KERNELS)
WHOLE_PLANE = tuple(k for k, geo in _KERNELS.items() if geo is not None and geo[1] == 0)
# quadrature method: the averaging of its planar tables
_AVERAGE = {"quadrature": "shell", "quadrature-matched": "none"}


def transform(f: Field, kernel: str, method: str = "fft", padding: int = 2) -> Field:
    """The operator `kernel`, any of KERNEL_IDS, on f by `method` ("fft",
    "quadrature" or "quadrature-matched"); `padding` sets the Beurling
    multiplier's box.  The only function that picks a path."""
    if kernel not in _KERNELS:
        raise ValueError(f"unknown kernel {kernel!r}; choose from {KERNEL_IDS}")
    if method != "fft" and method not in _AVERAGE:
        raise ValueError(f"unknown method {method!r}")
    geometry = _KERNELS[kernel]
    if kernel not in WHOLE_PLANE:
        _require_upper(f, kernel)
    if method == "fft":
        out = (_FACTORIZATION[kernel](f) if geometry is None
               else _plane_fft(f, *geometry, padding=padding))
    elif geometry is None:
        out = _product_quad(f, kernel, _AVERAGE[method])
    else:
        out = _plane_quad(f, *geometry, average=_AVERAGE[method])
    return Field(f.spec, out)


# ---------------------------------------------------------------------------
# derived solvers


def minimal_solve(f: Field, method: str = "fft") -> Field:
    """Minimal-norm u with M^2 dbar (M^-1 u) = f: u = M cauchy_down[M^-2 f].

    The bound ||u|| <= 4 ||f|| holds in the hyperbolic norm on both sides,
    ||g||^2 = int |g|^2 (Im z)^-2 dA (lp_norm with WeightKind.HYPERBOLIC, as
    the minimal-solver/bound-* checks measure it).  In plain L2 of the
    half-plane the operator is unbounded: its finite sections at x-frequency
    +1 grow without bound.  The solution is orthogonal to M times the
    holomorphic directions.
    """
    return mult_im_pow(transform(mult_im_pow(f, -2), "cauchy_down", method), 1)
