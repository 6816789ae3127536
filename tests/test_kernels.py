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
    for avg in ("none", "shell", "all"):
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
       aspect=st.floats(0.3, 3.0), average=st.sampled_from(["none", "shell", "all"]))
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
    ta = kn.planar_table("beurling", 8, 8, 0.1, 0.1, average="all")
    diff = np.abs(ts - tn)
    assert np.count_nonzero(diff) > 0
    assert diff[0, 0] == 0.0  # far corner identical
    # full averaging touches every cell
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
    assert np.all(np.isfinite(tr.cauchy_down(f, method="quadrature").data))
    with pytest.raises(kn.CellShapeError):
        tr.beurling_down(f, method="quadrature")


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


@pytest.mark.parametrize("kind,power,sign", [("cauchy", 1, 1), ("beurling", 2, -1)])
@pytest.mark.parametrize("offsets,tol", [(NEAR, 1e-13), (MID, 1e-11)], ids=["near", "mid"])
def test_full_table_matches_mpmath_cell_averages(kind, power, sign, offsets, tol):
    n = 41
    tab = kn.planar_table(kind, n, n, H16, H16, average="all")
    for i, j in offsets:
        want = sign * _mp_cell_average(power, i, j)
        got = tab[n - 1 + j, n - 1 + i]
        assert abs(got - want) <= tol * abs(want), (kind, i, j, got, want)


@pytest.mark.parametrize("kind,power,sign", [("cauchy", 1, 1), ("beurling", 2, -1)])
def test_full_table_keeps_far_field_digits(kind, power, sign):
    # a plain four-corner sum of the primitive loses ~1e-10 here to cancellation
    for i, j in [(2000, 3), (-1900, -40), (37, 1900)]:
        ny, nx = abs(j) + 2, abs(i) + 2
        tab = kn.planar_table(kind, ny, nx, H16, H16, average="all")
        want = sign * _mp_cell_average(power, i, j)
        got = tab[ny - 1 + j, nx - 1 + i]
        assert abs(got - want) <= 1e-11 * abs(want), (kind, i, j, got, want)


def test_full_table_parity_is_exact():
    tc = kn.planar_table("cauchy", 9, 7, 0.1, 0.23, average="all")
    tb = kn.planar_table("beurling", 9, 7, 0.1, 0.1, average="all")
    assert np.array_equal(tc, -tc[::-1, ::-1])
    assert np.array_equal(tb, tb[::-1, ::-1])


def test_lattice_tables_match_per_offset_averages():
    # rectangular cells where the kernel allows them; the planar singular
    # table needs square ones
    ny, nx = 6, 9
    for kind, hx, hy, avg in [("cauchy", 0.3, 0.2, kn.avg_inv),
                              ("beurling", 0.2, 0.2, lambda z, a, b: -kn.avg_inv_sq(z, a, b))]:
        dy = (np.arange(-(ny - 1), ny) * hy)[:, None]
        dx = (np.arange(-(nx - 1), nx) * hx)[None, :]
        want = avg(dx + 1j * dy, hx, hy)
        got = kn.planar_table(kind, ny, nx, hx, hy, average="all")
        assert np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-300)) < 1e-12
