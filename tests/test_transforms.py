import functools
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import fft as sfft

from hypb import _blocks
from hypb import kernels as kn
from hypb import testfuncs as tf
from hypb import transforms as tr
from hypb.calculus import dbar_down
from hypb.grid import Field, GridSpec, PlaneKind, WeightKind, lp_norm


def upper(n, L=2.8, H=5.6):
    return GridSpec(L=L, H=H, nx=n, ny=n, plane=PlaneKind.UPPER)


def rel(a, b):
    return float(np.sqrt(np.sum(np.abs(a - b) ** 2) / np.sum(np.abs(b) ** 2)))


@pytest.fixture(scope="module")
def gaussian_fields():
    gs = upper(128)
    fn = tf.gaussian_bump(2.0, 4.0)
    return gs, {w: tf.sample(fn, gs, w) for w in ("f", "d", "dbar", "lap", "d2")}


def test_halfplane_operators_reject_fullplane_fields():
    gs = GridSpec(L=1.0, H=1.0, nx=8, ny=8, plane=PlaneKind.FULL)
    f = Field(gs, np.ones((8, 8), dtype=complex))
    half_plane = [k for k in tr.KERNEL_IDS if k not in tr.WHOLE_PLANE]
    assert len(half_plane) == 8
    for op in half_plane:
        for method in ("fft", "quadrature"):
            with pytest.raises(ValueError, match="upper-half-plane"):
                tr.transform(f, op, method)


def test_unknown_method_mode_kernel_rejected():
    # the retired quadrature modes "matched" and "accurate" are no methods
    gs = upper(8)
    f = Field(gs, np.ones((8, 8), dtype=complex))
    for method in ("exact", "matched", "accurate"):
        for k in tr.KERNEL_IDS:
            with pytest.raises(ValueError, match="unknown method"):
                tr.transform(f, k, method)
        with pytest.raises(ValueError, match="unknown method"):
            tr.minimal_solve(f, method)
    with pytest.raises(TypeError):
        tr.transform(f, "cauchy_down", "quadrature", mode="matched")
    with pytest.raises(ValueError):
        tr.transform(f, "riesz")


def test_transform_is_the_one_way_in_to_every_operator():
    # the defect sum C_down + conj C_down conj is a kernel id, no function of its own
    assert tr.__all__ == ["KERNEL_IDS", "WHOLE_PLANE", "transform", "conv_valid",
                          "minimal_solve"]
    assert "defect_sum" in tr.KERNEL_IDS and not hasattr(tr, "defect_sum")


def test_downward_kernels_reproduce_closed_derivatives(gaussian_fields):
    gs, s = gaussian_fields
    assert rel(tr.transform(s["lap"], "cauchy_down").data, s["d"].data) < 5e-3
    conj_part = tr.transform(s["lap"].conj(), "cauchy_down").data.conj()
    assert rel(conj_part, s["dbar"].data) < 5e-3
    # the singular transform maps lap to d2 at multiplier-level accuracy
    assert rel(tr.transform(s["lap"], "beurling_down").data, s["d2"].data) < 1e-6


def test_upward_kernel_inverts_dbar(gaussian_fields):
    gs, s = gaussian_fields
    assert rel(tr.transform(s["dbar"], "cauchy_up").data, s["f"].data) < 3e-3


def test_quadrature_and_fft_agree_on_the_smooth_kernel():
    gs = upper(64)
    f = tf.sample(tf.gaussian_bump(2.0, 4.0), gs, "lap")
    a = tr.transform(f, "cauchy_down", "fft")
    b = tr.transform(f, "cauchy_down", "quadrature")
    assert rel(a.data, b.data) < 1e-3


def test_matched_quadrature_factorizations_are_exact():
    gs = upper(32)
    F = tf.sample(tf.gaussian_bump(2.0, 4.0), gs, "f")
    y = gs.y.reshape(-1, 1)
    lhs = tr.transform(F, "cauchy_up", "quadrature-matched").data
    rhs = -2j * y * tr.transform(F, "bicauchy_up", "quadrature-matched").data
    assert np.max(np.abs(lhs - rhs)) < 1e-13 * np.max(np.abs(rhs))
    lhs = tr.transform(F, "cauchy_down", "quadrature-matched").data
    rhs = 2j * tr.transform(Field(gs, y * F.data), "bicauchy_down", "quadrature-matched").data
    assert np.max(np.abs(lhs - rhs)) < 1e-13 * np.max(np.abs(rhs))


def test_minimal_solve_solves_the_shifted_dbar_equation():
    gs = upper(128)
    F = tf.sample(tf.gaussian_bump(2.0, 4.0), gs, "f")
    u = tr.minimal_solve(F)
    assert rel(dbar_down(u).data, F.data) < 1e-2
    # weighted norm bound with the factor 4
    r = lp_norm(u, 2.0, WeightKind.HYPERBOLIC) / lp_norm(F, 2.0, WeightKind.HYPERBOLIC)
    assert r <= 4.0 * (1 + 1e-3)


def test_planar_isometry_on_one_banded_field():
    from hypb.verify import banded_field

    gs = GridSpec(L=4.0, H=4.0, nx=128, ny=128, plane=PlaneKind.FULL)
    f = banded_field(gs, np.random.default_rng(1))
    r = lp_norm(tr.transform(f, "beurling", "fft", padding=1), 2.0) / lp_norm(f, 2.0)
    assert abs(r - 1.0) < 1e-6


def test_padding_changes_the_periodization_tail():
    from hypb.verify import dipole_agreement_field

    # a field with a dipole moment leaves a slowly decaying 1/zeta^2 image,
    # so the periodization tail is visibly padding-dependent
    gs = upper(64)
    f = dipole_agreement_field(gs)
    a = tr.transform(f, "beurling_down", padding=1)
    b = tr.transform(f, "beurling_down", padding=2)
    assert rel(a.data, b.data) > 1e-4


def test_operators_run_the_named_method_and_padding():
    gs = upper(16)
    f = Field(gs, np.ones((16, 16), dtype=complex))
    out = tr.transform(f, "cauchy_down", "quadrature")
    assert out.spec == gs
    assert np.array_equal(out.data, tr._plane_quad(f, "cauchy", +1, average="shell"))
    outp = tr.transform(f, "beurling", padding=3)
    assert np.array_equal(outp.data, tr._plane_fft(f, "beurling", 0, padding=3))


@settings(max_examples=10, deadline=None)
@given(ar=st.floats(-2, 2), ai=st.floats(-2, 2))
def test_beurling_down_is_linear(ar, ai):
    gs = upper(16)
    rng = np.random.default_rng(6)
    f = Field(gs, rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16)))
    g = Field(gs, rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16)))
    a = complex(ar, ai)
    lhs = tr.transform(Field(gs, a * f.data + g.data), "beurling_down").data
    rhs = a * tr.transform(f, "beurling_down").data + tr.transform(g, "beurling_down").data
    scale = np.max(np.abs(rhs)) + 1.0
    assert np.max(np.abs(lhs - rhs)) / scale < 1e-12


# ---------------------------------------------------------------------------
# valid-mode convolution, spectrum cache, fused defect operator


def _direct_valid(tab, data):
    (a0, a1), (b0, b1) = tab.shape, data.shape
    out = np.zeros((a0 - b0 + 1, a1 - b1 + 1), dtype=complex)
    for i in range(out.shape[0]):
        for j in range(out.shape[1]):
            for k in range(b0):
                for l in range(b1):
                    out[i, j] += tab[i + b0 - 1 - k, j + b1 - 1 - l] * data[k, l]
    return out


@pytest.mark.parametrize("tab_shape, data_shape", [
    ((7, 7), (4, 4)), ((9, 5), (5, 3)), ((5, 11), (2, 7)), ((6, 8), (6, 8)),
    ((1, 9), (1, 4)), ((7, 1), (3, 1)), ((1, 1), (1, 1)), ((13, 17), (1, 1)),
])
def test_conv_valid_matches_the_direct_sum(tab_shape, data_shape):
    rng = np.random.default_rng(sum(tab_shape) + 7 * sum(data_shape))
    tab = rng.standard_normal(tab_shape) + 1j * rng.standard_normal(tab_shape)
    data = rng.standard_normal(data_shape) + 1j * rng.standard_normal(data_shape)
    want = _direct_valid(tab, data)
    got = tr.conv_valid(tab, data)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@st.composite
def _conv_shapes(draw, min_b0=1):
    """A table of at most 8 x 8 and data no larger than it, at least min_b0 rows."""
    a0, a1 = draw(st.integers(min_b0, 8)), draw(st.integers(1, 8))
    b0, b1 = draw(st.integers(min_b0, a0)), draw(st.integers(1, a1))
    return (a0, a1), (b0, b1)


def _random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _close(got, want, tol=1e-12) -> bool:
    return got.shape == want.shape and np.max(np.abs(got - want)) <= tol * np.max(np.abs(want))


@settings(max_examples=40, deadline=None)
@given(shapes=_conv_shapes(), seed=st.integers(0, 2**32 - 1),
       ar=st.floats(-2, 2), ai=st.floats(-2, 2))
def test_conv_valid_is_linear_and_matches_the_direct_sum(shapes, seed, ar, ai):
    (tab_shape, data_shape), rng = shapes, np.random.default_rng(seed)
    tab = _random_complex(rng, tab_shape)
    d1, d2 = _random_complex(rng, data_shape), _random_complex(rng, data_shape)
    a = complex(ar, ai)
    assert _close(tr.conv_valid(tab, d1), _direct_valid(tab, d1))
    rhs = a * tr.conv_valid(tab, d1) + tr.conv_valid(tab, d2)
    lhs = tr.conv_valid(tab, a * d1 + d2)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * (np.max(np.abs(rhs)) + 1.0)


def _off_by_one_valid(tab, data):
    """conv_valid with its row block one row too high: the twin the property must reject."""
    (a0, a1), (b0, b1) = tab.shape, data.shape
    s = tr._fft_shape(tab.shape)
    return sfft.ifft2(sfft.fft2(tab, s) * sfft.fft2(data, s))[b0 - 2 : a0 - 1, b1 - 1 : a1]


@settings(max_examples=40, deadline=None)
@given(shapes=_conv_shapes(min_b0=2), seed=st.integers(0, 2**32 - 1))
def test_direct_sum_property_rejects_an_off_by_one_valid_block(shapes, seed):
    (tab_shape, data_shape), rng = shapes, np.random.default_rng(seed)
    tab, data = _random_complex(rng, tab_shape), _random_complex(rng, data_shape)
    assert not _close(_off_by_one_valid(tab, data), _direct_valid(tab, data))


# the pruned FFT passes against the unpruned fft2/ifft2 of the same box:
# odd and even transform lengths, rectangles, length-1 axes
PRUNE_CASES = [((9, 13), (5, 7)), ((7, 5), (4, 3)), ((6, 8), (6, 8)), ((1, 9), (1, 4)),
               ((7, 1), (3, 1)), ((1, 1), (1, 1)), ((13, 17), (1, 1))]
PRUNE_TOL = 1e-15


def _unpruned(data, kspec, rows, cols):
    return sfft.ifft2(sfft.fft2(data, s=kspec.shape) * kspec)[rows, cols]


def _full_spectrum(half, P0, sigma):
    """The P0-row spectrum whose rows j <= P0 // 2 are `half` and whose row
    j > P0 // 2 is sigma conj(half[P0 - j])."""
    return np.concatenate([half, sigma * np.conj(half[P0 - len(half) : 0 : -1])])


def _pruned(data, kspec, P0, sigma, rows, cols):
    """The pruned primitive on data at row 0, keeping `rows` and `cols`."""
    return tr._pruned_fft2(kspec, P0, sigma, data, 0, False, rows, cols)


def _nyquist(mult):
    """mult with its imaginary part 0 on the Nyquist row and column of an even
    axis, where one bin stands for both +pi/h and -pi/h: the mean of the odd
    part -2 kx ky over the two aliases."""
    py, px = mult.shape
    if py % 2 == 0:
        mult.imag[py // 2] = 0.0
    if px % 2 == 0:
        mult.imag[:, px // 2] = 0.0
    return mult


def _quotient(py, px, hx, hy):
    """conj(zeta) / zeta on the py x px box, 0 at zeta = 0."""
    zeta = (2.0 * np.pi * np.fft.fftfreq(px, d=hx)[None, :]
            + 2j * np.pi * np.fft.fftfreq(py, d=hy)[:, None])
    with np.errstate(divide="ignore", invalid="ignore"):
        mult = np.conj(zeta) / zeta
    mult[0, 0] = 0.0
    return mult


def _beurling_symbol(py, px, hx, hy):
    return _nyquist(_quotient(py, px, hx, hy))


@pytest.mark.parametrize("py, px", [(9, 13), (8, 6), (1, 7), (6, 1), (1, 1), (2048, 832)])
def test_beurling_symbol_is_the_complex_quotient(py, px):
    # the real and imaginary parts of its rows ky in [0, py // 2] against
    # conj(zeta) / zeta under the Nyquist rule, and the other rows as the
    # conjugates the products read (sigma = +1); a unit-modulus symbol, so
    # the bar is absolute.  Twins: zeta / conj(zeta), and the plain quotient
    # wherever a Nyquist line leaves the axes
    hx, hy = 0.3, 0.2
    got, want = tr._beurling_symbol(py, px, hx, hy), _beurling_symbol(py, px, hx, hy)
    assert got.shape == (py // 2 + 1, px) and got[0, 0] == 0
    assert np.max(np.abs(_full_spectrum(got, py, 1) - want)) <= 1e-15
    if py > 1 and px > 1:  # on an axis the symbol is real
        assert np.max(np.abs(got - np.conj(want[: py // 2 + 1]))) > 0.5
    plain = np.max(np.abs(_full_spectrum(got, py, 1) - _quotient(py, px, hx, hy)))
    assert (plain > 0.5) == ((py % 2 == 0 and px > 1) or (px % 2 == 0 and py > 1))


# a complex pair of two-gaussian members: a wide bump, whose odd extension
# jumps at the axis, plus a steep one with content at the Nyquist frequencies
SYMMETRY_F = ((4.0, 0.3 + 2.1j, 1 + 0.5j), (600.0, -0.5 + 1.4j, 0.2 - 0.7j))
SYMMETRY_G = ((6.0, 0.8 + 3.0j, 0.4 - 1j), (900.0, -1.1 + 1.8j, 1 + 0.3j))
# epsilon of each half-plane kernel's reflection; each down kernel's
# transpose is epsilon times its up kernel
SYMMETRY_SIGN = {"beurling_down": 1, "beurling_up": 1, "cauchy_down": -1, "cauchy_up": -1,
                 "defect_sum": -1}


def _symmetry_residuals(n) -> dict:
    """Relative residuals on DEFAULT_BOX at n^2, fft path: of x-reflection
    T(R f) = eps R conj T(conj f), R reversing the columns, in the max norm,
    for each half-plane kernel; of transposition <T_down f, g> = eps <f, T_up g>
    in the bilinear pairing sum u v, for each pair."""
    spec = upper(n)
    z = spec.zz()
    f, g = (Field(spec, sum(a * np.exp(-s * np.abs(z - c) ** 2) for s, c, a in parts))
            for parts in (SYMMETRY_F, SYMMETRY_G))
    res = {}
    for kernel, eps in SYMMETRY_SIGN.items():
        lhs = tr.transform(Field(spec, f.data[:, ::-1]), kernel).data
        rhs = eps * np.conj(tr.transform(f.conj(), kernel).data)[:, ::-1]
        res["reflect", kernel] = float(np.max(np.abs(lhs - rhs)) / np.max(np.abs(rhs)))
    for down in ("beurling_down", "cauchy_down"):
        a = np.sum(tr.transform(f, down).data * g.data)
        b = SYMMETRY_SIGN[down] * np.sum(f.data * tr.transform(g, down[:-4] + "up").data)
        res["transpose", down] = float(abs(a - b) / abs(b))
    return res


@pytest.mark.parametrize("n", [64, 128])
def test_fft_half_plane_kernels_keep_reflection_and_transposition(n, monkeypatch):
    # both relations hold exactly for the kernels, so to rounding on any member.
    # Twin: the plain quotient conj(zeta) / zeta as the Beurling symbol, whose
    # odd part has no partner on the Nyquist lines, read 4e-11 (reflection)
    # and 3.1e-6 (transposition) at 64^2, 9.1e-12 and 3.6e-9 at 128^2
    res = _symmetry_residuals(n)
    assert max(res.values()) <= 1e-12, res
    monkeypatch.setattr(tr, "_beurling_symbol",
                        lambda py, px, hx, hy: _quotient(py, px, hx, hy)[: py // 2 + 1])
    twin = _symmetry_residuals(n)
    assert min(twin["reflect", k] for k in ("beurling_down", "beurling_up")) > 1e-12, twin
    assert twin["transpose", "beurling_down"] > 1e-12, twin


@pytest.mark.parametrize("tab_shape, data_shape", PRUNE_CASES)
def test_pruned_convolution_matches_the_unpruned_fft2(tab_shape, data_shape):
    # the kept rows of a random spectrum, with each sign of the mirrored rows
    rng = np.random.default_rng(sum(tab_shape) + 3 * sum(data_shape))
    P0, P1 = tr._fft_shape(tab_shape)
    kspec = sfft.fft2(_random_complex(rng, tab_shape), s=(P0, P1))[: P0 // 2 + 1]
    data = _random_complex(rng, data_shape)
    (a0, a1), (b0, b1) = tab_shape, data_shape
    cols = slice(b1 - 1, a1)
    for sigma in (1, -1):
        want = _unpruned(data, _full_spectrum(kspec, P0, sigma), slice(b0 - 1, a0), cols)
        assert _close(_pruned(data, kspec, P0, sigma, slice(b0 - 1, a0), cols), want, PRUNE_TOL)
        if b0 > 1:  # twin: the rows a full-mode convolution starts with
            assert not _close(_pruned(data, kspec, P0, sigma, slice(0, a0 - b0 + 1), cols),
                              want, PRUNE_TOL)
        if P0 > 2:  # twin: the mirrored rows with the other sign
            assert not _close(_pruned(data, kspec, P0, -sigma, slice(b0 - 1, a0), cols),
                              want, PRUNE_TOL)


@pytest.mark.parametrize("shape", [(5, 7), (8, 3), (1, 6), (6, 1), (1, 1)])
@pytest.mark.parametrize("padding", [2, 3])
def test_pruned_multiplier_matches_the_unpruned_fft2(shape, padding):
    rng = np.random.default_rng(shape[0] + 5 * shape[1] + padding)
    data = _random_complex(rng, shape)
    (ny, nx), hx, hy = shape, 0.3, 0.2
    py = padding * ny
    mult = _beurling_symbol(py, padding * nx, hx, hy)
    want = _unpruned(data, mult, slice(0, ny), slice(0, nx))
    half = tr._beurling_symbol(py, padding * nx, hx, hy)
    got = _pruned(data, half, py, 1, slice(0, ny), slice(0, nx))
    assert _close(got, want, PRUNE_TOL)
    # twin: the next block of rows of the padded box
    assert not _close(_pruned(data, half, py, 1, slice(ny, 2 * ny), slice(0, nx)), want,
                      PRUNE_TOL)
    # twin: the plain quotient, on an even box.  A single row or column has
    # a transform even in the other frequency, which cancels the odd part
    if min(shape) > 1 and (py % 2 == 0 or padding * nx % 2 == 0):
        plain = _unpruned(data, _quotient(py, padding * nx, hx, hy), slice(0, ny), slice(0, nx))
        assert not _close(got, plain, PRUNE_TOL)


def test_conv_valid_rejects_data_larger_than_the_table():
    with pytest.raises(ValueError):
        tr.conv_valid(np.ones((5, 5)), np.ones((6, 3)))


@pytest.mark.parametrize("L, H, nx, ny", [(2.8, 5.6, 64, 64), (2.7, 5.9, 48, 40)])
def test_defect_sum_is_the_two_cauchy_down_calls(L, H, nx, ny):
    gs = GridSpec(L=L, H=H, nx=nx, ny=ny, plane=PlaneKind.UPPER)
    rng = np.random.default_rng(nx + ny)
    f = Field(gs, rng.standard_normal((ny, nx)) + 1j * rng.standard_normal((ny, nx)))
    for method in ("fft", "quadrature", "quadrature-matched"):
        want = (tr.transform(f, "cauchy_down", method).data
                + tr.transform(f.conj(), "cauchy_down", method).data.conj())
        got = tr.transform(f, "defect_sum", method)
        assert np.max(np.abs(got.data - want)) <= 1e-13 * np.max(np.abs(want)), method


def test_fft_path_reuses_one_read_only_spectrum_per_geometry():
    tr._cauchy_spectrum.cache_clear()
    gs = upper(32)
    f = tf.sample(tf.gaussian_bump(2.0, 4.0), gs, "lap")
    tr.transform(f, "cauchy_down", "quadrature")  # the quadrature path keeps out of the cache
    assert tr._cauchy_spectrum.cache_info().currsize == 0
    a = tr.transform(f, "cauchy_down")
    tr.transform(f, "cauchy_up")  # same extended geometry, same spectrum
    info = tr._cauchy_spectrum.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert np.array_equal(a.data, tr.transform(f, "cauchy_down").data)
    kspec = tr._cauchy_spectrum(2 * gs.ny, gs.ny, gs.nx, gs.hx, gs.hy, False)  # the down rows'
    assert not kspec.flags.writeable
    with pytest.raises(ValueError):
        kspec[0, 0] = 0.0
    for n in (8, 12, 16, 20, 24):
        tr.transform(tf.sample(tf.gaussian_bump(2.0, 4.0), upper(n), "f"), "cauchy_down")
        info = tr._cauchy_spectrum.cache_info()
        assert info.currsize <= info.maxsize


def test_fft_shape_is_scipys_next_fast_len():
    # the 11-smooth lengths pocketfft runs fast; scipy is the oracle here only
    ns = range(1, 30_001)
    assert tr._fft_shape(ns) == tuple(sfft.next_fast_len(n) for n in ns)
    assert tr._fft_shape((3071, 2047)) == (3072, 2048)
    with pytest.raises(ValueError, match="positive"):
        tr._fft_shape((0, 5))


@pytest.mark.parametrize("nx, ny", [(32, 32), (24, 40)])
def test_half_plane_spectrum_spans_the_3_ny_minus_1_rows_it_reads(nx, ny):
    # the down operators read the offsets dy / hy in (-ny, 2 ny) and the up
    # operators the flipped ones, so the box is P0 = next_fast_len(3 ny - 1)
    # rows tall, of which the spectrum keeps the rows ky in [0, P0 // 2]:
    # all P1 columns for the complex kernel, kx in [0, P1 // 2] for the
    # real one.  Twin: the 2 ny-row box's full table, 4 ny - 1 rows, is taller
    gs = GridSpec(L=2.7, H=5.9, nx=nx, ny=ny, plane=PlaneKind.UPPER)
    tr._cauchy_spectrum.cache_clear()
    f = Field(gs, _random_complex(np.random.default_rng(ny), (ny, nx)))
    tr.transform(f, "cauchy_down")
    tr.transform(f, "defect_sum")
    kspec = tr._cauchy_spectrum(2 * ny, ny, nx, gs.hx, gs.hy, False)
    half = tr._cauchy_spectrum(2 * ny, ny, nx, gs.hx, gs.hy, True)
    assert tr._cauchy_spectrum.cache_info().hits == 2  # the spectra the two calls cached
    P0, P1 = sfft.next_fast_len(3 * ny - 1), sfft.next_fast_len(2 * nx - 1)
    assert kspec.shape == (P0 // 2 + 1, P1) and half.shape == (P0 // 2 + 1, P1 // 2 + 1)
    assert P0 < sfft.next_fast_len(4 * ny - 1)
    tr._cauchy_spectrum.cache_clear()


@pytest.mark.parametrize("op", ["bicauchy_up", "bicauchy_down"])
def test_accurate_product_quadrature_matches_the_fft_path(op):
    # the 3 x 3 shell averages sit on the rows of their own offsets; on the
    # y-mirrored rows the gap is 2.5e-2 of the peak
    gs = upper(128)
    F = tf.sample(tf.gaussian_bump(2.0, 4.0), gs, "f")
    a = tr.transform(F, op, "fft").data
    b = tr.transform(F, op, "quadrature").data
    assert np.max(np.abs(a - b)) <= 2e-3 * np.max(np.abs(a))


def _full_height_defect_sum(f):
    """The defect sum's product beside the real kernel's full-height spectrum: all
    P0 rows of it, built in place in its box (the x-mirrored table in the
    float view of its P0 x (P1 // 2 + 1) rows, each row rfft'd over itself,
    then an fft along y).  The product reads its first P0 // 2 + 1 rows, so
    it holds what the defect sum holds when it stores the full height."""
    s = f.spec
    n = s.ny
    a0, a1 = 3 * n - 1, 2 * n - 1
    P0, P1 = tr._fft_shape((a0, a1))
    kspec = np.zeros((P0, P1 // 2 + 1), dtype=complex)
    box = kspec.view(float)
    kn._planar_all(2 * n, n, s.hx, s.hy, out=box[:a0, n - 1 : a1])
    np.negative(box[:a0, a1 - 1 : n - 1 : -1], out=box[:a0, : n - 1])
    for r in range(0, P0, 32):
        kspec[r : r + 32] = np.fft.rfft(box[r : r + 32, :P1], axis=1)
    np.fft.fft(kspec, axis=0, out=kspec)
    tr._pruned_rfft2(kspec[: P0 // 2 + 1], P0, -1, f.data, n, True, slice(2 * n - 1, 3 * n - 1),
                     slice(0, n), P1)


@pytest.mark.parametrize("n", [256, 512])
def test_defect_sum_peak_memory_stays_under_0_87_full_spectra(n, peak_bytes):
    # from a cold cache, in units of the full spectrum P0 P1 16 B of the 3 n - 1
    # rows the odd extension reads: the half table, then its real x rows,
    # then their half spectrum, and the x-first panel pass beside that
    # spectrum, 0.75 at 256 and 0.65 at 512; the bars are 1.15 times those.
    # Twin: the same product beside the full-height spectrum (0.98, 0.90)
    gs = upper(n)
    f = Field(gs, _random_complex(np.random.default_rng(n), (n, n)))
    P0, P1 = tr._fft_shape((3 * n - 1, 2 * n - 1))
    bar = {256: 0.87, 512: 0.75}[n] * P0 * P1 * 16
    tr._cauchy_spectrum.cache_clear()
    try:
        assert peak_bytes(lambda: tr.transform(f, "defect_sum")) <= bar
        assert peak_bytes(lambda: _full_height_defect_sum(f)) > bar
    finally:
        tr._cauchy_spectrum.cache_clear()


def _y_first_pruned_fft2(kspec, data, rows, cols):
    """The y-first whole-box pruned pass the x-first one replaced, on data at
    row 0: one zeroed P0 x P1 buffer, and a copy of the kept block."""
    buf = np.zeros(kspec.shape, dtype=complex)
    b1 = data.shape[1]
    buf[: len(data), :b1] = data
    sfft.fft(buf[:, :b1], axis=0, overwrite_x=True)
    sfft.fft(buf, axis=1, overwrite_x=True)
    buf *= kspec
    sfft.ifft(buf, axis=0, overwrite_x=True)
    out = buf[rows]
    sfft.ifft(out, axis=1, overwrite_x=True)
    return out[:, cols].copy()


@pytest.mark.parametrize("n", [256, 512])
def test_warm_cauchy_half_plane_ops_hold_under_0_7_full_spectra(n, peak_bytes):
    # beside the cached spectrum of the 3 n - 1 rows: the one x-spectrum
    # (n x P1, which takes the kept rows), a P0 x 32 panel and the result,
    # 0.52-0.54 full spectra for both signs.  Twin: the y-first pass on the
    # same flipped input, with the full spectrum the cached rows stand for,
    # holds a P0 x P1 buffer
    gs = upper(n)
    f = Field(gs, _random_complex(np.random.default_rng(n + 1), (n, n)))
    P0, P1 = tr._fft_shape((3 * n - 1, 2 * n - 1))
    bar = 0.7 * P0 * P1 * 16
    tr._cauchy_spectrum.cache_clear()
    try:
        tr.transform(f, "cauchy_down")  # warms the one spectrum both signs read
        kspec = _full_spectrum(tr._cauchy_spectrum(2 * n, n, n, gs.hx, gs.hy, False), P0, -1)
        for op in ("cauchy_up", "cauchy_down"):
            assert peak_bytes(lambda: tr.transform(f, op)) <= bar, op
        y_first = lambda: _y_first_pruned_fft2(kspec, f.data[::-1, ::-1],
                                                slice(n - 1, 3 * n - 1), slice(0, n))
        assert peak_bytes(y_first) > 1.0 * P0 * P1 * 16
    finally:
        tr._cauchy_spectrum.cache_clear()


def _circular_box(tab, shape):
    """The half table (dx in [0, nx)) in a zero box of `shape`, with its x-mirror
    K(-conj zeta) = -conj K(zeta) wrapped to the last nx - 1 columns."""
    a0, nx = tab.shape
    box = np.zeros(shape, dtype=tab.dtype)
    box[:a0, :nx] = tab
    box[:a0, shape[1] - nx + 1 :] = -np.conj(tab[:, :0:-1])
    return box


def test_spectrum_builds_hold_little_beside_the_spectrum(peak_bytes, monkeypatch):
    # in units of the full spectrum P0 P1 16 B of the 3 n - 1 half-plane rows at
    # 512^2, each build holds its real x rows, the half table built in their
    # leading columns, then those rows and their half spectrum: 0.53 for the
    # real kernel, 1.02 for the complex one; the bars are 1.15 times those.
    # The stored spectra hold (P0 // 2 + 1) W complex entries.  Twins: the
    # full-height spectra built in place in their P0 rows (real 0.71,
    # complex 1.21); the circular real box, then rfft2 (1.25); the whole
    # quadrant lattice at once (1.50)
    n = 512
    gs = upper(n)
    a0, a1 = 3 * n - 1, 2 * n - 1
    P0, P1 = tr._fft_shape((a0, a1))
    unit = P0 * P1 * 16

    def build(real):
        return lambda: tr._cauchy_spectrum(2 * n, n, n, gs.hx, gs.hy, real)

    def full_height_real_build():
        kspec = np.zeros((P0, P1 // 2 + 1), dtype=complex)
        box = kspec.view(float)
        kn._planar_all(2 * n, n, gs.hx, gs.hy, out=box[:a0, n - 1 : a1])
        np.negative(box[:a0, a1 - 1 : n - 1 : -1], out=box[:a0, : n - 1])
        for r in range(0, P0, 32):
            kspec[r : r + 32] = np.fft.rfft(box[r : r + 32, :P1], axis=1)
        np.fft.fft(kspec, axis=0, out=kspec)

    def full_height_complex_build():
        kspec = np.zeros((P0, P1), dtype=complex)
        kn._planar_all(2 * n, n, gs.hx, gs.hy, out=kspec[:a0, n - 1 : a1])
        np.conjugate(kspec[:a0, a1 - 1 : n - 1 : -1], out=kspec[:a0, : n - 1])
        kspec[:a0, : n - 1] *= -1
        np.fft.fft(kspec, axis=0, out=kspec)
        np.fft.fft(kspec, axis=1, out=kspec)

    def box_then_rfft2():
        tab = kn._planar_all(2 * n, n, gs.hx, gs.hy, np.empty((a0, n)))
        sfft.rfft2(_circular_box(tab, (P0, P1)))

    try:
        for fn, bar, below in [(build(True), 0.61, True), (full_height_real_build, 0.61, False),
                               (box_then_rfft2, 0.61, False), (build(False), 1.17, True),
                               (full_height_complex_build, 1.17, False)]:
            tr._cauchy_spectrum.cache_clear()
            assert (peak_bytes(fn) <= bar * unit) is below
        for real, W in [(True, P1 // 2 + 1), (False, P1)]:
            assert build(real)().size <= (P0 // 2 + 1) * W
        monkeypatch.setattr(kn, "_ROW_BLOCK", 3 * n)
        tr._cauchy_spectrum.cache_clear()
        assert peak_bytes(build(False)) > 1.17 * unit
    finally:
        tr._cauchy_spectrum.cache_clear()


# odd P1 at nx = 13 and 5; the half-plane lattices of ny = 70 and 140 are
# taller than one row block of kernels._planar_all
SPECTRUM_GEOMETRIES = [(13, 70), (5, 140), (24, 40)]


@pytest.mark.parametrize("nx, ny", SPECTRUM_GEOMETRIES)
@pytest.mark.parametrize("half", [False, True])
def test_spectra_are_the_ffts_of_their_padded_boxes(nx, ny, half):
    # bit for bit the explicit pipeline on the half table: each row's x
    # transform as a real row R (hfft of i K; the imaginary part of the rfft
    # of the odd row of Re K), then R's rfft along y, zero-padded to P0, times
    # -1j (2j for 2 Re K).  With row P0 - j = -conj row j, those rows are fft2
    # (2 rfft2 for 2 Re K) of the circular box to 1e-14 of its max.
    # Twins: the mirrored rows with the sign +1, and the table one row lower
    hx, hy = 2.7 / nx, 5.9 / ny
    top = 2 * ny if half else ny
    a0 = top + ny - 1
    P0, P1 = tr._fft_shape((a0, 2 * nx - 1))
    tab = kn._planar_all(top, nx, hx, hy, np.empty((a0, nx), complex))
    R = sfft.hfft(1j * tab, n=P1, axis=1)
    R_real = sfft.rfft(_circular_box(tab.real, (a0, P1)), axis=1).imag
    full = sfft.fft2(_circular_box(tab, (P0, P1)))
    full_real = 2 * sfft.rfft2(_circular_box(tab.real, (P0, P1)))
    tr._cauchy_spectrum.cache_clear()
    try:
        kspec = tr._cauchy_spectrum(top, ny, nx, hx, hy, False)
        assert np.array_equal(kspec, -1j * sfft.rfft(R, n=P0, axis=0))
        half_spec = tr._cauchy_spectrum(top, ny, nx, hx, hy, True)
        assert np.array_equal(half_spec, 2j * sfft.rfft(R_real, n=P0, axis=0))
        for got, want in [(kspec, full), (half_spec, full_real)]:
            scale = np.max(np.abs(want))
            assert np.max(np.abs(_full_spectrum(got, P0, -1) - want)) <= 1e-14 * scale
            assert np.max(np.abs(_full_spectrum(got, P0, 1) - want)) > 1e-3 * scale
        lower = np.concatenate([np.zeros((1, R_real.shape[1])), R_real])
        assert not np.array_equal(half_spec, 2j * sfft.rfft(lower, n=P0, axis=0))
    finally:
        tr._cauchy_spectrum.cache_clear()


@pytest.mark.parametrize("nx, ny", SPECTRUM_GEOMETRIES)
def test_pruned_rfft2_blocks_are_the_extension_as_one_block(nx, ny):
    # the lower block of the odd extension shares the upper one's x-pass
    hx, hy = 2.7 / nx, 5.9 / ny
    f = _random_complex(np.random.default_rng(nx + ny), (ny, nx))
    kspec = tr._cauchy_spectrum(2 * ny, ny, nx, hx, hy, True)
    P0, n1 = tr._fft_shape((3 * ny - 1, 2 * nx - 1))
    rows, cols = slice(2 * ny - 1, 3 * ny - 1), slice(0, nx)

    def one_block(lower, upper):
        return tr._pruned_rfft2(kspec, P0, -1, np.concatenate([lower, upper]), 0, False, rows,
                                cols, n1)

    got = tr._pruned_rfft2(kspec, P0, -1, f, ny, True, rows, cols, n1)
    assert np.array_equal(got, one_block(-f[::-1], f))
    # twin: the even extension
    twin = one_block(f[::-1], f)
    assert np.max(np.abs(got - twin)) > 1e-3 * np.max(np.abs(got))


# the half-plane fft body against the explicit pipeline: the extension array
# built here, then whole-box scipy.fft passes in the primitives' order
HALF_PLANE_FFT = {  # op: (kernel, sign, real kernel)
    "cauchy_down": ("cauchy", 1, False), "cauchy_up": ("cauchy", -1, False),
    "beurling_down": ("beurling", 1, False), "beurling_up": ("beurling", -1, False),
    "defect_sum": ("cauchy", 1, True),
}


def _explicit_half_plane(f, kind, sign, real, reflection=-1, padding=2, kspec=None):
    """Odd (sign +1) or zero extension, whole-plane `kind`, restriction; sign 0
    sums `kind` over f alone.

    The extension goes through the x pass, the y pass with the full spectrum
    or symbol `kspec` (by default the stored one, whose rows j > P0 // 2 are
    sigma conj of the stored row P0 - j: sigma = -1 for Cauchy, +1 for
    Beurling), the restriction (sign -1: the rows at z less those at conj z),
    then the inverse x pass, which keeps the columns [0, nx).  The Cauchy
    spectrum is that of the table rows dy / hy in (-ny, top), top = 2 ny (ny
    for sign 0): the zero extension is summed negated and flipped in x and
    y, and its restriction negated and flipped back in x (1/zeta is odd; the
    fold already mirrors y).  For the odd extension the rows z in the lower
    half are wrapped sums, which the restriction drops.  `reflection` is the
    sign of the mirrored term: of the lower block for the odd extension, of
    the subtracted values at conj z for the zero one.
    """
    s = f.spec
    ny, nx = s.ny, s.nx
    if sign == 0:
        ext = f.data
    else:
        lower = np.zeros_like(f.data)
        if sign == 1:
            lower = -f.data[::-1] if reflection == -1 else f.data[::-1]
        ext = np.concatenate([lower, f.data])
    if kind == "cauchy":
        top = ny if sign == 0 else 2 * ny
        P0, n1 = tr._fft_shape((top + ny - 1, 2 * nx - 1))
        if kspec is None:
            kspec = _full_spectrum(tr._cauchy_spectrum(top, ny, nx, s.hx, s.hy, real), P0, -1)
        data = -ext[::-1, ::-1] if sign == -1 else ext
        rows = slice(ny - 1, top + ny - 1)
    else:
        P0, n1 = padding * len(ext), padding * nx
        if kspec is None:
            kspec = _full_spectrum(tr._beurling_symbol(P0, n1, s.hx, s.hy), P0, 1)
        data, rows = ext, slice(0, len(ext))

    def passes(x_spectrum, x_inverse):
        box = np.zeros((P0, x_spectrum.shape[1]), dtype=complex)
        box[: len(ext)] = x_spectrum
        q = sfft.ifft(sfft.fft(box, axis=0) * kspec, axis=0)[rows]
        if sign == 1:
            q = q[ny:]
        elif sign == -1:
            mirror = q[ny - 1 :: -1]
            q = q[ny:] - mirror if reflection == -1 else q[ny:] + mirror
        return x_inverse(q)[:, :nx]

    if real:  # the real kernel's spectrum on kx in [0, n1 // 2], on the real then imaginary part
        out = np.empty((ny, nx), dtype=complex)
        for part, dst in ((np.real, out.real), (np.imag, out.imag)):
            dst[...] = passes(sfft.rfft(part(data), n=n1, axis=1),
                              lambda q: sfft.irfft(q, n=n1, axis=1))
    else:
        out = passes(sfft.fft(data, n=n1, axis=1), lambda q: sfft.ifft(q, axis=1))
    if kind == "beurling":
        return out
    out = out * s.cell_measure
    return -out[:, ::-1] if sign == -1 else out


@pytest.mark.parametrize("op", sorted(HALF_PLANE_FFT))
@pytest.mark.parametrize("nx, ny", [(21, 13), (48, 40)])
def test_half_plane_fft_body_is_the_explicit_pipeline(op, nx, ny):
    gs = GridSpec(L=2.7, H=5.9, nx=nx, ny=ny, plane=PlaneKind.UPPER)
    rng = np.random.default_rng(nx * ny)
    f = Field(gs, _random_complex(rng, (ny, nx)))
    kind, sign, real = HALF_PLANE_FFT[op]
    got = tr.transform(f, op).data
    assert np.array_equal(got, _explicit_half_plane(f, kind, sign, real))
    # twin: the reflection with its sign flipped
    twin = _explicit_half_plane(f, kind, sign, real, reflection=+1)
    assert np.max(np.abs(got - twin)) > 1e-3 * np.max(np.abs(got))


def _full_symbol(py, px, hx, hy):
    """The Beurling symbol on all py rows of its box, each row computed by the
    arithmetic of the stored rows ky in [0, py // 2], under the Nyquist rule."""
    kx = 2.0 * np.pi * np.fft.fftfreq(px, d=hx)
    ky = 2.0 * np.pi * np.fft.fftfreq(py, d=hy)[:, None]
    r2 = kx**2 + ky**2
    r2[0, 0] = 1.0
    mult = np.empty((py, px), dtype=complex)
    np.subtract(kx**2, ky**2, out=mult.real)
    np.multiply(-2.0 * kx, ky, out=mult.imag)
    mult.real /= r2
    mult.imag /= r2
    return _nyquist(mult)


# every fft-path body as (kernel, sign, real kernel), and each product
# kernel as its factorization (module docstring of transforms):
# c M^post body[M^pre f]
FFT_BODIES = {**HALF_PLANE_FFT, "cauchy": ("cauchy", 0, False), "beurling": ("beurling", 0, False)}
FFT_FACTORED = {"bicauchy_up": ("cauchy_up", 0, -1, 0.5j),
                "bicauchy_down": ("cauchy_down", -1, 0, -0.5j),
                "bicauchy_real": ("defect_sum", -1, -1, 0.125)}


def _full_pipeline(f, op, padding, sigma=None):
    """op by the explicit pipeline with the full spectrum: fft2 of the circular
    box of the Cauchy table (2 rfft2 of its real part for the real kernel),
    or the full Beurling symbol.  With `sigma` the Cauchy spectrum is the
    stored half with its other rows sigma conj of the mirrored stored rows."""
    if op in FFT_FACTORED:
        body, pre, post, c = FFT_FACTORED[op]
        y = f.spec.y[:, None]
        return c * y**post * _full_pipeline(Field(f.spec, f.data * y**pre), body, padding, sigma)
    kind, sign, real = FFT_BODIES[op]
    s = f.spec
    ny, nx = s.ny, s.nx
    rows = ny if sign == 0 else 2 * ny
    if kind == "beurling":
        kspec = _full_symbol(padding * rows, padding * nx, s.hx, s.hy)
    else:
        top = rows
        P0, P1 = tr._fft_shape((top + ny - 1, 2 * nx - 1))
        if sigma is None:
            tab = kn._planar_all(top, nx, s.hx, s.hy,
                                 np.empty((top + ny - 1, nx), float if real else complex))
            box = _circular_box(tab, (P0, P1))
            kspec = 2 * sfft.rfft2(box) if real else sfft.fft2(box)
        else:
            kspec = _full_spectrum(tr._cauchy_spectrum(top, ny, nx, s.hx, s.hy, real), P0, sigma)
    return _explicit_half_plane(f, kind, sign, real, padding=padding, kspec=kspec)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(nx=st.integers(1, 40), ny=st.integers(1, 40), square=st.booleans(),
       padding=st.sampled_from([2, 3]), seed=st.integers(0, 2**32 - 1))
def test_half_spectra_products_are_the_full_spectrum_pipeline(nx, ny, square, padding, seed):
    # the stored half spectra, their other rows by the sigma rule, against
    # fft2 of the circular box to 1e-14 of the complex one's max at every
    # size (at nx = 1 the real kernel is the dx = 0 column's rounding-level
    # real part, which the half spectrum drops); on grids
    # (at least 4 cells a side) the Cauchy kinds and defect_sum against the
    # full-spectrum pipeline to 1e-13 of the max, the Beurling ops bit for
    # bit, on odd and even P0 and P1.  Twin: the Cauchy spectrum's mirrored
    # rows with sigma = +1, wherever the box has such rows
    L = 2.7
    hx, hy = L / nx, L / nx * (1.0 if square else 1.7)
    tr._cauchy_spectrum.cache_clear()
    try:
        for top in (ny, 2 * ny):
            P0, P1 = tr._fft_shape((top + ny - 1, 2 * nx - 1))
            tab = kn._planar_all(top, nx, hx, hy, np.empty((top + ny - 1, nx), complex))
            want = sfft.fft2(_circular_box(tab, (P0, P1)))
            scale = np.max(np.abs(want))
            for real, want in [(False, want), (True, 2 * sfft.rfft2(_circular_box(tab.real,
                                                                                (P0, P1))))]:
                got = _full_spectrum(tr._cauchy_spectrum(top, ny, nx, hx, hy, real), P0, -1)
                assert np.max(np.abs(got - want)) <= 1e-14 * scale, (top, real)
        if min(nx, ny) < 4:  # GridSpec's least grid
            return
        gs = GridSpec(L=L, H=ny * hy, nx=nx, ny=ny, plane=PlaneKind.UPPER)
        f = Field(gs, _random_complex(np.random.default_rng(seed), (ny, nx)))
        for op in (*FFT_BODIES, *FFT_FACTORED):
            got = tr.transform(f, op, "fft", padding).data
            want = _full_pipeline(f, op, padding)
            if FFT_BODIES.get(op, ("cauchy",))[0] == "beurling":
                assert np.array_equal(got, want), op
                continue
            assert _close(got, want, 1e-13), op
            rows = ny if op == "cauchy" else 2 * ny
            if tr._fft_shape([rows + ny - 1])[0] > 2:
                assert not _close(got, _full_pipeline(f, op, padding, sigma=1), 1e-3), op
    finally:
        tr._cauchy_spectrum.cache_clear()


def _referenced_bytes(a: np.ndarray) -> int:
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a.nbytes


@pytest.mark.parametrize("op", tr.KERNEL_IDS)
def test_fft_results_own_their_memory(op):
    plane = PlaneKind.FULL if op in tr.WHOLE_PLANE else PlaneKind.UPPER
    gs = GridSpec(L=2.7, H=5.9, nx=24, ny=20, plane=plane)
    f = Field(gs, _random_complex(np.random.default_rng(4), (20, 24)))
    out = tr.transform(f, op, method="fft").data
    assert _referenced_bytes(out) == out.nbytes


# the quadrature paths against explicit four-loop sums of each half-plane
# kernel.  quadrature-matched: midpoint values with the whole w = z summand
# omitted; quadrature: exact cell averages on the 3 x 3 shell offsets of
# z - w and on the central three cells of the first image row, midpoint
# values elsewhere
QUAD_TWO_TERM = {"cauchy_down": ("cauchy", 1), "cauchy_up": ("cauchy", -1),
                 "beurling_down": ("beurling", 1), "beurling_up": ("beurling", -1)}
QUAD_PRODUCT = ("bicauchy_up", "bicauchy_down", "bicauchy_real")
QUAD_SHAPES = [(8, 8), (7, 5), (5, 8)]  # (nx, ny)
QUAD_METHODS = ["quadrature-matched", "quadrature"]
QUAD_TOL = 1e-13


def _kernel_value(kind, zeta, averaged, hx, hy):
    if averaged:
        return complex(kn.avg_inv(zeta, hx, hy) if kind == "cauchy"
                       else -kn.avg_inv_sq(zeta, hx, hy))
    if zeta == 0:
        return 0.0
    return 1.0 / zeta if kind == "cauchy" else -1.0 / zeta**2


def _quad_direct(op, f, method, image_rows=1, image_sign=-1):
    """The four-loop sum of op's kernel over f.

    The image of source row j seen from row i sits at Im (i + j + image_rows)
    hy; the two-term kernels add `image_sign` times its term.  The defaults
    are the operator; the twins change one of them.
    """
    s = f.spec
    x, y, hx, hy = s.x, s.y, s.hx, s.hy
    accurate = method == "quadrature"
    out = np.zeros((s.ny, s.nx), dtype=complex)
    for i in range(s.ny):
        for k in range(s.nx):
            for j in range(s.ny):
                for l in range(s.nx):
                    if not accurate and (i, k) == (j, l):
                        continue
                    dx = x[k] - x[l]
                    zeta = dx + 1j * (y[i] - y[j])
                    height = (i + j + image_rows) * hy
                    shell = accurate and abs(i - j) <= 1 and abs(k - l) <= 1
                    if op in QUAD_TWO_TERM:
                        kind, sign = QUAD_TWO_TERM[op]
                        eta = dx + 1j * sign * height
                        first_image = accurate and i + j == 0 and abs(k - l) <= 1
                        val = (_kernel_value(kind, zeta, shell, hx, hy)
                               + image_sign * _kernel_value(kind, eta, first_image, hx, hy))
                    else:
                        c = _kernel_value("cauchy", zeta, shell, hx, hy)
                        if op == "bicauchy_real":
                            den = dx**2 + height**2
                            val = c.real / den if den else 0.0
                        else:
                            eta = dx + (-1j if op == "bicauchy_up" else 1j) * height
                            val = c / eta if eta else 0.0
                    out[i, k] += val * f.data[j, l]
    return out * s.cell_measure


def _quad_case(op, nx, ny):
    # square cells for the singular kernel, rectangular ones for the rest
    hy = 0.3 if op.startswith("beurling") else 0.37
    gs = GridSpec(L=0.15 * nx, H=hy * ny, nx=nx, ny=ny, plane=PlaneKind.UPPER)
    return Field(gs, _random_complex(np.random.default_rng(nx * ny), (ny, nx)))


@pytest.mark.parametrize("method", QUAD_METHODS)
@pytest.mark.parametrize("nx, ny", QUAD_SHAPES)
@pytest.mark.parametrize("op", sorted(QUAD_TWO_TERM) + list(QUAD_PRODUCT))
def test_quadrature_half_plane_operators_are_their_direct_sums(op, nx, ny, method):
    f = _quad_case(op, nx, ny)
    got = tr.transform(f, op, method).data
    assert _close(got, _quad_direct(op, f, method), QUAD_TOL)


@pytest.mark.parametrize("method", QUAD_METHODS)
@pytest.mark.parametrize("op, twin", [(op, {"image_rows": 0}) for op in sorted(QUAD_TWO_TERM)]
                         + [(op, {"image_rows": 0}) for op in QUAD_PRODUCT]
                         + [(op, {"image_sign": 1}) for op in sorted(QUAD_TWO_TERM)])
def test_quadrature_direct_sum_twins_fail_the_bar(op, twin, method):
    # the image at (i + j) hy instead of (i + j + 1) hy, or added, not subtracted
    f = _quad_case(op, 7, 5)
    got = tr.transform(f, op, method).data
    assert not _close(got, _quad_direct(op, f, method, **twin), QUAD_TOL)


# ---------------------------------------------------------------------------
# properties of every operator on small random inputs, each with a broken
# twin that the same property must reject


def _small_grid(op):
    """8 x 8 square cells: the whole-plane box for the planar ops, else the half-plane."""
    if op in ("cauchy", "beurling"):
        return GridSpec(L=1.4, H=1.4, nx=8, ny=8, plane=PlaneKind.FULL)
    return GridSpec(L=1.4, H=2.8, nx=8, ny=8, plane=PlaneKind.UPPER)


def _is_linear(op, f, g, a, tol=1e-12) -> bool:
    """op(f + g) = op f + op g and op(a f) = a op f, to rounding of the largest term."""
    spec = f.spec
    of, og = op(f).data, op(g).data
    scale = max(np.max(np.abs(of)), np.max(np.abs(og)), np.max(np.abs(a * of)))
    additive = np.max(np.abs(op(Field(spec, f.data + g.data)).data - (of + og)))
    homogeneous = np.max(np.abs(op(Field(spec, a * f.data)).data - a * of))
    return max(additive, homogeneous) <= tol * scale


def _plus_one(op):
    """op with the constant 1 added to its output: affine, not linear."""
    return lambda h: Field(h.spec, op(h).data + 1.0)


_METHODS = ("fft", "quadrature")


@pytest.mark.parametrize("method", _METHODS)
@pytest.mark.parametrize("name", tr.KERNEL_IDS)
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), ar=st.floats(-2, 2), ai=st.floats(-2, 2))
def test_every_operator_is_linear_on_both_paths(name, method, seed, ar, ai):
    gs, rng = _small_grid(name), np.random.default_rng(seed)
    f, g = (Field(gs, _random_complex(rng, (8, 8))) for _ in range(2))
    op = functools.partial(tr.transform, kernel=name, method=method)
    assert _is_linear(op, f, g, complex(ar, ai))
    assert not _is_linear(_plus_one(op), f, g, complex(ar, ai))


def _conj_sandwich(op, f):
    """conj after op after conj: the mirror-conjugate companion of op."""
    return op(f.conj()).conj()


def _input_only_sandwich(op, f):
    """_conj_sandwich without its outer conj: the twin the involution property must reject."""
    return op(f.conj())


def _is_linear_involution(sandwich, op, f) -> bool:
    """sandwich(sandwich(op)) is op bit for bit, and sandwich(op) is complex-linear.

    Conjugating the input alone is an involution too, so the property also
    asks that the sandwich of a linear operator commute with i.
    """
    once = lambda h: sandwich(op, h)
    twice = sandwich(once, f).data
    i_once = once(Field(f.spec, 1j * f.data)).data
    once_f = once(f).data
    return (np.array_equal(twice, op(f).data)
            and np.max(np.abs(i_once - 1j * once_f)) <= 1e-12 * np.max(np.abs(once_f)))


@pytest.mark.parametrize("method", _METHODS)
@pytest.mark.parametrize("name", tr.KERNEL_IDS)
@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_conj_sandwich_is_a_linear_involution(name, method, seed):
    gs = _small_grid(name)
    f = Field(gs, _random_complex(np.random.default_rng(seed), (8, 8)))
    op = functools.partial(tr.transform, kernel=name, method=method)
    assert _is_linear_involution(_conj_sandwich, op, f)
    assert not _is_linear_involution(_input_only_sandwich, op, f)


# ---------------------------------------------------------------------------
# the fft path's panel loops on several threads

# a cold cauchy_down at 96^2 runs six loops, each of two panels or more:
# kernels._planar_all's row blocks, the spectrum's row and column panels,
# then the x, y and inverse x passes of the product
_COLD_CAUCHY_LOOPS = 6


def _panel_fault(monkeypatch, loop, on_caller, exc):
    """Have the first panel that the caller (or a helper) runs in the
    `loop`-th panel loop of transforms and kernels raise exc.  The fault sets
    an event that the other side's panels of that loop wait for (10 s at
    most), so that the side named runs a panel; returns the panel count of
    each loop seen."""
    calls, fired, lock = [], threading.Event(), threading.Lock()

    def spy(n, fn):
        this = len(calls)
        calls.append(n)

        def panel(i):
            if this == loop:
                mine = threading.current_thread() is threading.main_thread()
                with lock:
                    first = mine == on_caller and not fired.is_set()
                    if first:
                        fired.set()
                if first:
                    raise exc
                if mine != on_caller:
                    assert fired.wait(10)
            return fn(i)

        return _blocks.run_blocks(n, panel)

    for mod in (tr, kn):
        monkeypatch.setattr(mod, "run_blocks", spy)
    return calls


@pytest.mark.parametrize("threads,on_caller", [(1, True), (2, True), (2, False), (5, True),
                                               (5, False)])
@pytest.mark.parametrize("kind", [ZeroDivisionError, KeyboardInterrupt])
def test_a_panel_failure_reaches_the_caller_and_no_thread_outlives_it(
        block_threads, monkeypatch, threads, on_caller, kind):
    # in each of a cold cauchy_down's panel loops, an exception or an
    # interrupt in the caller's or a helper's panel reaches the caller as
    # it was raised, and as many threads are alive as before the call
    block_threads(threads)
    gs = upper(96)
    f = Field(gs, _random_complex(np.random.default_rng(96), (96, 96)))
    before = threading.active_count()
    for loop in range(_COLD_CAUCHY_LOOPS):
        exc = kind(f"panel loop {loop}")
        calls = _panel_fault(monkeypatch, loop, on_caller, exc)
        tr._cauchy_spectrum.cache_clear()
        with pytest.raises(kind) as raised:
            tr.transform(f, "cauchy_down")
        assert raised.value is exc
        assert len(calls) == loop + 1 and calls[loop] >= 2
        assert threading.active_count() == before
    calls = _panel_fault(monkeypatch, _COLD_CAUCHY_LOOPS, True, ZeroDivisionError())
    tr._cauchy_spectrum.cache_clear()
    try:
        tr.transform(f, "cauchy_down")  # twin: no loop past the sixth, so none raises
    finally:
        tr._cauchy_spectrum.cache_clear()
    assert len(calls) == _COLD_CAUCHY_LOOPS and min(calls) >= 2
    assert threading.active_count() == before


def test_panels_on_five_threads_switching_fast_match_one_thread(block_threads):
    # panels write disjoint rows or columns of shared arrays: on 5 threads,
    # switching every microsecond, each op from a cold cache (the spectrum
    # builds' loops too) is bit for bit its one-thread value
    gs = upper(96)
    f = Field(gs, _random_complex(np.random.default_rng(5), (96, 96)))
    ops = ["cauchy_down", "cauchy_up", "defect_sum", "beurling_up", "bicauchy_real"]
    runs = []
    interval = sys.getswitchinterval()
    try:
        for n in (1, 5):
            block_threads(n)
            sys.setswitchinterval(1e-6 if n > 1 else interval)
            tr._cauchy_spectrum.cache_clear()
            runs.append([tr.transform(f, op).data.tobytes() for op in ops])
    finally:
        sys.setswitchinterval(interval)
        tr._cauchy_spectrum.cache_clear()
    assert runs[0] == runs[1]
