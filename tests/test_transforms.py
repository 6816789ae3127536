import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypb import testfuncs as tf
from hypb import transforms as tr
from hypb.calculus import dbar_down
from hypb.grid import (
    Field,
    GridSpec,
    PlaneKind,
    WeightKind,
    extend_odd,
    lp_norm,
    restrict_upper,
)


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
    for op in (tr.cauchy_down, tr.cauchy_up, tr.beurling_down, tr.beurling_up,
               tr.bicauchy_up, tr.bicauchy_down, tr.bicauchy_real):
        with pytest.raises(ValueError):
            op(f)


def test_unknown_method_mode_kernel_rejected():
    gs = upper(8)
    f = Field(gs, np.ones((8, 8), dtype=complex))
    with pytest.raises(ValueError):
        tr.cauchy_down(f, method="exact")
    for k in tr.KERNEL_IDS:
        with pytest.raises(ValueError, match="unknown method"):
            tr.transform(f, k, method="exact")
    with pytest.raises(ValueError):
        tr.cauchy_down(f, method="quadrature", mode="sloppy")
    with pytest.raises(ValueError):
        tr.transform(f, "riesz")


def test_transform_dispatch_matches_direct_calls():
    gs = upper(16)
    rng = np.random.default_rng(2)
    f = Field(gs, rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16)))
    a = tr.transform(f, "cauchy_down")
    b = tr.cauchy_down(f)
    assert np.array_equal(a.data, b.data)


def test_downward_kernels_reproduce_closed_derivatives(gaussian_fields):
    gs, s = gaussian_fields
    assert rel(tr.cauchy_down(s["lap"]).data, s["d"].data) < 5e-3
    assert rel(tr.conj_sandwich(tr.cauchy_down, s["lap"]).data, s["dbar"].data) < 5e-3
    # the singular transform maps lap to d2 at multiplier-level accuracy
    assert rel(tr.beurling_down(s["lap"]).data, s["d2"].data) < 1e-6


def test_upward_kernel_inverts_dbar(gaussian_fields):
    gs, s = gaussian_fields
    assert rel(tr.cauchy_up(s["dbar"]).data, s["f"].data) < 3e-3


def test_conj_sandwich_is_an_involution(gaussian_fields):
    gs, s = gaussian_fields
    once = lambda h, **kw: tr.conj_sandwich(tr.cauchy_down, h, **kw)
    twice = tr.conj_sandwich(once, s["f"])
    assert np.array_equal(twice.data, tr.cauchy_down(s["f"]).data)


def test_quadrature_and_fft_agree_on_the_smooth_kernel():
    gs = upper(64)
    f = tf.sample(tf.gaussian_bump(2.0, 4.0), gs, "lap")
    a = tr.cauchy_down(f, method="fft")
    b = tr.cauchy_down(f, method="quadrature")
    assert rel(a.data, b.data) < 1e-3


def test_matched_quadrature_factorizations_are_exact():
    gs = upper(32)
    F = tf.sample(tf.gaussian_bump(2.0, 4.0), gs, "f")
    y = gs.y.reshape(-1, 1)
    lhs = tr.cauchy_up(F, "quadrature", "matched").data
    rhs = -2j * y * tr.bicauchy_up(F, "quadrature", "matched").data
    assert np.max(np.abs(lhs - rhs)) < 1e-13 * np.max(np.abs(rhs))
    lhs = tr.cauchy_down(F, "quadrature", "matched").data
    rhs = 2j * tr.bicauchy_down(Field(gs, y * F.data), "quadrature", "matched").data
    assert np.max(np.abs(lhs - rhs)) < 1e-13 * np.max(np.abs(rhs))


def test_minimal_solve_solves_the_shifted_dbar_equation():
    gs = upper(128)
    F = tf.sample(tf.gaussian_bump(2.0, 4.0), gs, "f")
    u = tr.minimal_solve(F)
    assert rel(dbar_down(u).data, F.data) < 1e-2
    assert u.meta["kernel"] == "minimal_solve"
    # weighted norm bound with the factor 4
    r = lp_norm(u, 2.0, WeightKind.HYPERBOLIC) / lp_norm(F, 2.0, WeightKind.HYPERBOLIC)
    assert r <= 4.0 * (1 + 1e-3)


def test_planar_isometry_on_one_banded_field():
    from hypb.verify import banded_field

    gs = GridSpec(L=4.0, H=4.0, nx=128, ny=128, plane=PlaneKind.FULL)
    f = banded_field(gs, np.random.default_rng(1))
    r = lp_norm(tr.beurling(f, method="fft", padding=1), 2.0) / lp_norm(f, 2.0)
    assert abs(r - 1.0) < 1e-6


def test_padding_changes_the_periodization_tail():
    from hypb.verify import dipole_agreement_field

    # a field with a dipole moment leaves a slowly decaying 1/zeta^2 image,
    # so the periodization tail is visibly padding-dependent
    gs = upper(64)
    f = dipole_agreement_field(gs)
    a = tr.beurling_down(f, padding=1)
    b = tr.beurling_down(f, padding=2)
    assert rel(a.data, b.data) > 1e-4


def test_meta_records_kernel_and_method():
    gs = upper(16)
    f = Field(gs, np.ones((16, 16), dtype=complex))
    out = tr.cauchy_down(f, method="quadrature")
    assert out.meta["kernel"] == "cauchy_down"
    assert out.meta["method"] == "quadrature"
    outp = tr.beurling(f, padding=3)
    assert outp.meta["padding"] == 3


def test_odd_extension_and_restriction_round_trip():
    gs = upper(8)
    rng = np.random.default_rng(9)
    f = Field(gs, rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
    g = extend_odd(f)
    assert g.spec.plane is PlaneKind.FULL and g.spec.ny == 16
    assert np.array_equal(g.data[:8], -f.data[::-1, :])
    assert np.array_equal(restrict_upper(g).data, f.data)
    with pytest.raises(ValueError):
        extend_odd(g)


@settings(max_examples=10, deadline=None)
@given(ar=st.floats(-2, 2), ai=st.floats(-2, 2))
def test_beurling_down_is_linear(ar, ai):
    gs = upper(16)
    rng = np.random.default_rng(6)
    f = Field(gs, rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16)))
    g = Field(gs, rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16)))
    a = complex(ar, ai)
    lhs = tr.beurling_down(Field(gs, a * f.data + g.data)).data
    rhs = a * tr.beurling_down(f).data + tr.beurling_down(g).data
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


def test_conv_valid_rejects_data_larger_than_the_table():
    with pytest.raises(ValueError):
        tr.conv_valid(np.ones((5, 5)), np.ones((6, 3)))


@pytest.mark.parametrize("L, H, nx, ny", [(2.8, 5.6, 64, 64), (2.7, 5.9, 48, 40)])
def test_defect_sum_is_the_two_cauchy_down_calls(L, H, nx, ny):
    gs = GridSpec(L=L, H=H, nx=nx, ny=ny, plane=PlaneKind.UPPER)
    rng = np.random.default_rng(nx + ny)
    f = Field(gs, rng.standard_normal((ny, nx)) + 1j * rng.standard_normal((ny, nx)))
    for method in ("fft", "quadrature"):
        want = (tr.cauchy_down(f, method=method).data
                + tr.conj_sandwich(tr.cauchy_down, f, method=method).data)
        got = tr.defect_sum(f, method=method)
        assert got.meta["kernel"] == "defect_sum"
        assert np.max(np.abs(got.data - want)) <= 1e-13 * np.max(np.abs(want)), method


def test_fft_path_reuses_one_read_only_spectrum_per_geometry():
    tr._cauchy_spectrum.cache_clear()
    gs = upper(32)
    f = tf.sample(tf.gaussian_bump(2.0, 4.0), gs, "lap")
    tr.cauchy_down(f, method="quadrature")  # the quadrature path keeps out of the cache
    assert tr._cauchy_spectrum.cache_info().currsize == 0
    a = tr.cauchy_down(f)
    tr.cauchy_up(f)  # same extended geometry, same spectrum
    info = tr._cauchy_spectrum.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert np.array_equal(a.data, tr.cauchy_down(f).data)
    full = extend_odd(f).spec
    kspec = tr._cauchy_spectrum(full.ny, full.nx, full.hx, full.hy, False)
    assert not kspec.flags.writeable
    with pytest.raises(ValueError):
        kspec[0, 0] = 0.0
    for n in (8, 12, 16, 20, 24):
        tr.cauchy_down(tf.sample(tf.gaussian_bump(2.0, 4.0), upper(n), "f"))
        info = tr._cauchy_spectrum.cache_info()
        assert info.currsize <= info.maxsize


@pytest.mark.parametrize("op", [tr.bicauchy_up, tr.bicauchy_down])
def test_accurate_product_quadrature_matches_the_fft_path(op):
    # the 3 x 3 shell averages sit on the rows of their own offsets; on the
    # y-mirrored rows the gap is 2.5e-2 of the peak
    gs = upper(128)
    F = tf.sample(tf.gaussian_bump(2.0, 4.0), gs, "f")
    a = op(F, method="fft").data
    b = op(F, method="quadrature", mode="accurate").data
    assert np.max(np.abs(a - b)) <= 2e-3 * np.max(np.abs(a))


def test_fft_fields_are_bit_identical_across_worker_counts():
    from scipy import fft as sfft

    gs = upper(256)
    f = tf.sample(tf.gaussian_bump(2.0, 4.0), gs, "lap")
    out = {}
    for threads in (1, 2):
        with tr.fft_workers(threads):
            assert sfft.get_workers() == threads
            out[threads] = [tr.defect_sum(f).data, tr.cauchy_up(f).data,
                            tr.beurling_down(f).data]
    for a, b in zip(out[1], out[2]):
        assert np.array_equal(a, b)
