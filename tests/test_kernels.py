import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad

from hypb import kernels as kn
from hypb import transforms as tr
from hypb.grid import Field, GridSpec, PlaneKind


def test_cell_average_of_inverse_matches_numeric_integration():
    hx, hy = 0.3, 0.2
    z0 = np.complex128(0.45 + 0.1j)
    re, _ = dblquad(lambda y, x: x / (x**2 + y**2),
                    0.45 - hx / 2, 0.45 + hx / 2,
                    lambda x: 0.1 - hy / 2, lambda x: 0.1 + hy / 2)
    im, _ = dblquad(lambda y, x: -y / (x**2 + y**2),
                    0.45 - hx / 2, 0.45 + hx / 2,
                    lambda x: 0.1 - hy / 2, lambda x: 0.1 + hy / 2)
    want = (re + 1j * im) / (hx * hy)
    assert abs(kn.avg_inv(z0, hx, hy) - want) < 1e-12


def test_cell_average_of_inverse_square_matches_numeric_integration():
    hx, hy = 0.3, 0.2
    z0 = np.complex128(0.3 + 0.2j)
    re, _ = dblquad(lambda y, x: (x**2 - y**2) / (x**2 + y**2) ** 2,
                    0.3 - hx / 2, 0.3 + hx / 2,
                    lambda x: 0.2 - hy / 2, lambda x: 0.2 + hy / 2)
    im, _ = dblquad(lambda y, x: -2 * x * y / (x**2 + y**2) ** 2,
                    0.3 - hx / 2, 0.3 + hx / 2,
                    lambda x: 0.2 - hy / 2, lambda x: 0.2 + hy / 2)
    want = (re + 1j * im) / (hx * hy)
    assert abs(kn.avg_inv_sq(z0, hx, hy) - want) < 1e-12


def test_singular_cell_averages_to_zero():
    # principal value over the symmetric cell around the pole
    z0 = np.complex128(0.0)
    assert kn.avg_inv(z0, 0.2, 0.2) == 0.0
    assert kn.avg_inv_sq(z0, 0.2, 0.2) == 0.0


def test_midpoint_values():
    z = np.array([0.45 + 0.1j, -1.0 + 2.0j])
    assert np.allclose(kn.midpoint_value("cauchy", z), 1.0 / z)
    assert np.allclose(kn.midpoint_value("beurling", z), -1.0 / z**2)


def test_unknown_kernel_kind_rejected():
    with pytest.raises((KeyError, ValueError)):
        kn.midpoint_value("riesz", np.array([1.0 + 1.0j]))


def test_table_shapes_cover_all_offsets():
    t = kn.planar_table("cauchy", 8, 6, 0.1, 0.1)
    assert t.shape == (15, 11)


def test_table_rotation_symmetry():
    # 1/zeta is odd under zeta -> -zeta, 1/zeta^2 is even; the offset tables
    # inherit this up to rounding in the averaged closed forms
    for avg in ("none", "shell"):
        tc = kn.planar_table("cauchy", 8, 8, 0.1, 0.2, average=avg)
        tb = kn.planar_table("beurling", 8, 8, 0.1, 0.1, average=avg)
        assert np.max(np.abs(tc + tc[::-1, ::-1])) < 1e-12
        assert np.max(np.abs(tb - tb[::-1, ::-1])) < 1e-12


def _has_parity(tab, sign) -> bool:
    """tab at -zeta is sign times tab at zeta, to rounding of the largest entry.

    The bar is relative because the drawn cells reach h = 0.05, where the
    beurling table's largest entry is about 1/h^2 = 400; the fixed cells of
    `test_table_rotation_symmetry` keep the absolute 1e-12 bar.
    """
    return np.max(np.abs(tab - sign * tab[::-1, ::-1])) <= 1e-12 * np.max(np.abs(tab))


@settings(max_examples=40, deadline=None)
@given(ny=st.integers(2, 9), nx=st.integers(2, 9), hx=st.floats(0.05, 2.0),
       aspect=st.floats(0.3, 3.0), average=st.sampled_from(["none", "shell"]))
def test_cauchy_table_is_odd_and_beurling_table_even(ny, nx, hx, aspect, average):
    # 1/zeta is odd under zeta -> -zeta and 1/zeta^2 even; the offset tables
    # inherit this up to rounding in the averaged closed forms.  Twin: the
    # other parity, which no nonzero table has
    tc = kn.planar_table("cauchy", ny, nx, hx, aspect * hx, average=average)
    tb = kn.planar_table("beurling", ny, nx, hx, hx, average=average)
    assert _has_parity(tc, -1) and _has_parity(tb, +1)
    assert not _has_parity(tc, +1) and not _has_parity(tb, -1)


def test_shell_averaging_is_local():
    # averaging replaces midpoint values only near the singularity; the far
    # field is untouched
    tn = kn.planar_table("beurling", 8, 8, 0.1, 0.1, average="none")
    ts = kn.planar_table("beurling", 8, 8, 0.1, 0.1, average="shell")
    diff = np.abs(ts - tn)
    assert np.count_nonzero(diff) > 0
    assert diff[0, 0] == 0.0  # far corner identical
    # the cell averages at every offset touch every cell
    z0 = (np.arange(-7, 8) * 0.1)[None, :] + 1j * (np.arange(-7, 8) * 0.1)[:, None]
    ta = -kn.avg_inv_sq(z0, 0.1, 0.1)
    assert np.count_nonzero(np.abs(ta - tn)) == ta.size - 1  # pv cell is 0 in both


def test_anisotropic_cells_rejected_for_the_singular_kernel():
    # quarter-turn cancellation in the pv cell needs square cells; only the
    # table quadrature is affected (the fft path is a frequency multiplier)
    with pytest.raises(ValueError):
        kn.planar_table("beurling", 8, 8, 0.1, 0.2)
    kn.planar_table("cauchy", 8, 8, 0.1, 0.2)  # the smooth kernel has no constraint
    # the same on the half-plane operators, whose quadrature reads these tables
    gs = GridSpec(L=0.4, H=1.6, nx=8, ny=8, plane=PlaneKind.UPPER)  # hx = 0.1, hy = 0.2
    f = Field(gs, np.ones((8, 8)))
    assert np.all(np.isfinite(tr.transform(f, "cauchy_down", "quadrature").data))
    with pytest.raises(kn.CellShapeError):
        tr.transform(f, "beurling_down", "quadrature")


# ---------------------------------------------------------------------------
# fully averaged tables against an independent high-precision oracle

H16 = 1.0 / 16  # square cells; exact in binary, so mpmath sees the same cells
NEAR = [(1, 0), (0, 1), (1, 1), (-1, 2), (2, -1), (0, -3), (3, 2), (-3, -3)]  # shell cells
MID = [(40, 0), (-25, 31), (3, -40)]


def _mp_cell_average(power, i, j):
    """(1/|cell|) int_cell zeta^-power dA over the cell at offset (i, j) cells, 40 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        h = mpmath.mpf(H16)
        x0, y0 = i * h, j * h
        val = mpmath.quad(lambda x, y: mpmath.mpc(x, y) ** -power,
                          [x0 - h / 2, x0 + h / 2], [y0 - h / 2, y0 + h / 2],
                          method="gauss-legendre")
        return complex(val / h**2)


def _half(ny, nx, hx, hy, dtype=complex, below=None):
    """The fft path's fully averaged 1/zeta table at the rows dy / hy in
    [-below, ny) (below = ny - 1 by default) and the columns dx in [0, nx)."""
    below = ny - 1 if below is None else below
    return kn._planar_all(ny, nx, hx, hy, np.empty((below + ny, nx), dtype))


def _lattice(ny, nx, hx, hy, dtype=complex, below=None):
    """`_half` with the columns dx in (-nx, 0) put before it as its x-mirror
    K(-conj zeta) = -conj K(zeta)."""
    half = _half(ny, nx, hx, hy, dtype, below)
    return np.concatenate([-np.conj(half[:, :0:-1]), half], axis=1)


# the full cell average at offset (i, j) cells: for Cauchy the entry of the fft
# path's lattice of ny x nx offsets, for Beurling the per-offset average the
# quadrature shell reads
FULL_AVERAGE = {
    "cauchy": lambda i, j, ny, nx: _lattice(ny, nx, H16, H16)[ny - 1 + j, nx - 1 + i],
    "beurling": lambda i, j, ny, nx: -kn.avg_inv_sq(complex(i, j) * H16, H16, H16),
}


@pytest.mark.parametrize("kind,power,sign", [("cauchy", 1, 1), ("beurling", 2, -1)])
@pytest.mark.parametrize("offsets,tol", [(NEAR, 1e-13), (MID, 1e-11)], ids=["near", "mid"])
def test_full_table_matches_mpmath_cell_averages(kind, power, sign, offsets, tol):
    for i, j in offsets:
        want = sign * _mp_cell_average(power, i, j)
        got = FULL_AVERAGE[kind](i, j, 41, 41)
        assert abs(got - want) <= tol * abs(want), (kind, i, j, got, want)


def test_full_table_keeps_far_field_digits():
    # a plain four-corner sum of the primitive, as the per-offset averages of
    # the quadrature shell take it, loses 2e-10 to 5e-9 here to cancellation
    for i, j in [(2000, 3), (-1900, -40), (37, 1900)]:
        want = _mp_cell_average(1, i, j)
        got = FULL_AVERAGE["cauchy"](i, j, abs(j) + 2, abs(i) + 2)
        assert abs(got - want) <= 1e-11 * abs(want), (i, j, got, want)


def test_full_table_parity_is_exact():
    # the half's own relations: the column dx = 0 is exactly odd in dy, and
    # every other column exactly conjugate-symmetric, so the x-mirrored table
    # is exactly odd.  Twin: the column dx = 0 conjugated instead
    ny = 9
    half = _half(ny, 7, 0.1, 0.23)
    up, down = half[ny - 1 :], half[ny - 1 :: -1]
    assert np.array_equal(down[:, 0], -up[:, 0])
    assert np.array_equal(down[:, 1:], np.conj(up[:, 1:]))
    tc = _lattice(ny, 7, 0.1, 0.23)
    assert np.array_equal(tc, -tc[::-1, ::-1])
    half[: ny - 1, 0] = np.conj(half[: ny - 1 : -1, 0])
    tc = np.concatenate([-np.conj(half[:, :0:-1]), half], axis=1)
    assert not np.array_equal(tc, -tc[::-1, ::-1])


def _is_conjugate_symmetric(tab) -> bool:
    """tab at conj zeta is conj tab at zeta, bit for bit.

    On the column dx = 0 the table keeps exact oddness instead, so there the
    real part, zero in exact arithmetic, carries the sign of the oddness;
    only the imaginary part is compared.
    """
    ny, nx = (tab.shape[0] + 1) // 2, (tab.shape[1] + 1) // 2
    up, down = tab[ny - 1 :], np.conj(tab[ny - 1 :: -1])
    off = np.arange(tab.shape[1]) != nx - 1
    return (np.array_equal(up[:, off], down[:, off])
            and np.array_equal(up[:, nx - 1].imag, down[:, nx - 1].imag))


@pytest.mark.parametrize("ny, nx, hx, hy", [
    (9, 7, 0.1, 0.1), (64, 48, 2.8 / 24, 5.6 / 32), (9, 7, 0.1, 0.23),
    (40, 12, 0.09375, 1.5 / 3072),
])
def test_full_table_is_conjugate_symmetric(ny, nx, hx, hy):
    # K(conj zeta) = conj K(zeta), and the cell at conj z0 is the mirror of
    # the cell at z0: the builder fills dy < 0 from dy > 0 by conjugation.
    # Twin: one off-axis entry perturbed
    tab = _lattice(ny, nx, hx, hy)
    assert _is_conjugate_symmetric(tab)
    tab[ny + 2, nx + 3] *= 1.0 + 1e-15
    assert not _is_conjugate_symmetric(tab)


def test_full_table_writes_its_real_part_into_a_real_box():
    ny, nx = 6, 5
    box = np.zeros((2 * ny + 3, 2 * nx + 1))
    kn._planar_all(ny, nx, 0.3, 0.2, out=box[: 2 * ny - 1, :nx])
    assert np.array_equal(box[: 2 * ny - 1, :nx], _half(ny, nx, 0.3, 0.2).real)
    assert not box[2 * ny - 1 :].any() and not box[:, nx:].any()


ROW_RANGES = [(13, 21, 6), (40, 48, 19), (64, 64, 0), (8, 12, 15)]  # ny, nx, below


@pytest.mark.parametrize("dtype", [complex, float])
@pytest.mark.parametrize("ny, nx, below", ROW_RANGES)
def test_row_range_table_is_the_matching_rows_of_the_full_table(dtype, ny, nx, below):
    # rows dy / hy in [-below, ny), set by the height of `out`, against the rows
    # of the full table of the m-row box, m = max(ny, below + 1), whose quadrant
    # lattice is the same.  Twin: the same range shifted by one row
    hx, hy, m = 0.1, 0.23, max(ny, below + 1)
    full = _lattice(m, nx, hx, hy, dtype)
    got = _lattice(ny, nx, hx, hy, dtype, below)
    lo, hi = m - 1 - below, m - 1 + ny
    assert np.array_equal(got, full[lo:hi])
    shifted = full[lo + 1 : hi + 1] if hi < len(full) else full[lo - 1 : hi - 1]
    assert not np.array_equal(got, shifted)


@pytest.mark.parametrize("kind, hy", [("cauchy", 0.23), ("beurling", 0.1)])
@pytest.mark.parametrize("ny, nx, below", ROW_RANGES)
def test_row_range_planar_table_is_the_matching_rows_of_the_full_table(kind, hy, ny, nx,
                                                                       below):
    # the quadrature builder over the rows dy / hy in [-below, ny), in both
    # averaging modes, against the same rows of its m-row table
    hx, m = 0.1, max(ny, below + 1)
    lo, hi = m - 1 - below, m - 1 + ny
    for average in ("none", "shell"):
        want = kn.planar_table(kind, m, nx, hx, hy, average=average)[lo:hi]
        rows = kn.planar_table(kind, range(-below, ny), nx, hx, hy, average=average)
        assert np.array_equal(rows, want), average


def test_lattice_tables_match_per_offset_averages():
    # rectangular cells, which the smooth kernel allows
    ny, nx, hx, hy = 6, 9, 0.3, 0.2
    dy = (np.arange(-(ny - 1), ny) * hy)[:, None]
    dx = (np.arange(-(nx - 1), nx) * hx)[None, :]
    want = kn.avg_inv(dx + 1j * dy, hx, hy)
    got = _lattice(ny, nx, hx, hy)
    assert np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-300)) < 1e-12
