import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import fft as sfft

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
    kspec = sfft.fft2(tab, s=tr._fft_shape(tab.shape))
    return _pruned(data, kspec, slice(b0 - 2, a0 - 1), slice(b1 - 1, a1))


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


def _pruned(data, kspec, rows, cols):
    """The pruned primitive on one block at row 0, keeping `rows` and `cols`."""
    return tr._pruned_fft2(kspec, [(0, data, 1)], rows, cols)


def _beurling_symbol(py, px, hx, hy):
    zeta = (2.0 * np.pi * np.fft.fftfreq(px, d=hx)[None, :]
            + 2j * np.pi * np.fft.fftfreq(py, d=hy)[:, None])
    with np.errstate(divide="ignore", invalid="ignore"):
        mult = np.conj(zeta) / zeta
    mult[0, 0] = 0.0
    return mult


@pytest.mark.parametrize("tab_shape, data_shape", PRUNE_CASES)
def test_pruned_convolution_matches_the_unpruned_fft2(tab_shape, data_shape):
    rng = np.random.default_rng(sum(tab_shape) + 3 * sum(data_shape))
    kspec = sfft.fft2(_random_complex(rng, tab_shape), s=tr._fft_shape(tab_shape))
    data = _random_complex(rng, data_shape)
    (a0, a1), (b0, b1) = tab_shape, data_shape
    cols = slice(b1 - 1, a1)
    want = _unpruned(data, kspec, slice(b0 - 1, a0), cols)
    assert _close(_pruned(data, kspec, slice(b0 - 1, a0), cols), want, PRUNE_TOL)
    if b0 > 1:  # twin: the rows a full-mode convolution starts with
        assert not _close(_pruned(data, kspec, slice(0, a0 - b0 + 1), cols), want, PRUNE_TOL)


@pytest.mark.parametrize("shape", [(5, 7), (8, 3), (1, 6), (6, 1), (1, 1)])
@pytest.mark.parametrize("padding", [2, 3])
def test_pruned_multiplier_matches_the_unpruned_fft2(shape, padding):
    rng = np.random.default_rng(shape[0] + 5 * shape[1] + padding)
    data = _random_complex(rng, shape)
    (ny, nx), hx, hy = shape, 0.3, 0.2
    mult = _beurling_symbol(padding * ny, padding * nx, hx, hy)
    want = _unpruned(data, mult, slice(0, ny), slice(0, nx))
    assert _close(tr._beurling_multiplier(data, hx, hy, padding), want, PRUNE_TOL)
    # twin: the next block of rows of the padded box
    assert not _close(_pruned(data, mult, slice(ny, 2 * ny), slice(0, nx)), want, PRUNE_TOL)


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
    kspec = tr._cauchy_spectrum(2 * gs.ny, gs.nx, gs.hx, gs.hy, False)  # the odd extension's
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
    gs = upper(256)
    f = tf.sample(tf.gaussian_bump(2.0, 4.0), gs, "lap")
    rng = np.random.default_rng(11)
    k1, k2 = _random_complex(rng, (515, 400)), _random_complex(rng, (1025, 515))
    out = {}
    for threads in (1, 2):
        with tr.fft_workers(threads):
            assert sfft.get_workers() == threads
            out[threads] = [tr.defect_sum(f).data, tr.cauchy_up(f).data,
                            tr.beurling_down(f).data,
                            tr._pruned_fft2(k1, [(0, f.data[:, :-3], 1)], slice(7, 300),
                                            slice(0, 253)),
                            tr._pruned_fft2(k2, [(256, f.data, 1), (0, f.data[::-1], -1)],
                                            slice(3, 511), slice(5, 260))]
    for a, b in zip(out[1], out[2]):
        assert np.array_equal(a, b)


# the half-plane fft body against the explicit pipeline: the extension array
# built here, the same primitive keeping every row, then the row slicing
HALF_PLANE_FFT = {  # op: (kernel, sign, real kernel)
    "cauchy_down": ("cauchy", 1, False), "cauchy_up": ("cauchy", -1, False),
    "beurling_down": ("beurling", 1, False), "beurling_up": ("beurling", -1, False),
    "defect_sum": ("cauchy", 1, True),
}


def _explicit_half_plane(f, kind, sign, real, reflection=-1, padding=2):
    """Odd (sign +1) or zero extension, whole-plane `kind`, restriction.

    `reflection` is the sign of the mirrored term: of the lower block for the
    odd extension, of the subtracted values at conj z for the zero one.
    """
    s = f.spec
    ny, nx = s.ny, s.nx
    lower = np.zeros_like(f.data)
    if sign == 1:
        lower = -f.data[::-1] if reflection == -1 else f.data[::-1]
    ext = np.concatenate([lower, f.data])
    if kind == "cauchy":
        kspec = tr._cauchy_spectrum(2 * ny, nx, s.hx, s.hy, real)
        full = tr._pruned_fft2(kspec, [(0, ext, 1)], slice(2 * ny - 1, 4 * ny - 1),
                               slice(nx - 1, 2 * nx - 1)) * s.cell_measure
    else:
        symbol = tr._beurling_symbol(2 * padding * ny, padding * nx, s.hx, s.hy)
        full = tr._pruned_fft2(symbol, [(0, ext, 1)], slice(0, 2 * ny), slice(0, nx))
    if sign == 1:
        return full[ny:]
    mirror = full[ny - 1 :: -1]
    return full[ny:] - mirror if reflection == -1 else full[ny:] + mirror


@pytest.mark.parametrize("op", sorted(HALF_PLANE_FFT))
@pytest.mark.parametrize("nx, ny", [(21, 13), (48, 40)])
def test_half_plane_fft_body_is_the_explicit_pipeline(op, nx, ny):
    gs = GridSpec(L=2.7, H=5.9, nx=nx, ny=ny, plane=PlaneKind.UPPER)
    rng = np.random.default_rng(nx * ny)
    f = Field(gs, _random_complex(rng, (ny, nx)))
    kind, sign, real = HALF_PLANE_FFT[op]
    got = getattr(tr, op)(f).data
    assert np.array_equal(got, _explicit_half_plane(f, kind, sign, real))
    # twin: the reflection with its sign flipped
    twin = _explicit_half_plane(f, kind, sign, real, reflection=+1)
    assert np.max(np.abs(got - twin)) > 1e-3 * np.max(np.abs(got))


def _referenced_bytes(a: np.ndarray) -> int:
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a.nbytes


@pytest.mark.parametrize("op", tr.KERNEL_IDS)
def test_fft_results_own_their_memory(op):
    plane = PlaneKind.FULL if op in ("cauchy", "beurling") else PlaneKind.UPPER
    gs = GridSpec(L=2.7, H=5.9, nx=24, ny=20, plane=plane)
    f = Field(gs, _random_complex(np.random.default_rng(4), (20, 24)))
    out = tr.transform(f, op, method="fft").data
    assert _referenced_bytes(out) == out.nbytes


# the quadrature path against explicit four-loop sums of each half-plane
# kernel.  matched: midpoint values with the whole w = z summand omitted;
# accurate: exact cell averages on the 3 x 3 shell offsets of z - w and on
# the central three cells of the first image row, midpoint values elsewhere
QUAD_TWO_TERM = {"cauchy_down": ("cauchy", 1), "cauchy_up": ("cauchy", -1),
                 "beurling_down": ("beurling", 1), "beurling_up": ("beurling", -1)}
QUAD_PRODUCT = ("bicauchy_up", "bicauchy_down", "bicauchy_real")
QUAD_SHAPES = [(8, 8), (7, 5), (5, 8)]  # (nx, ny)
QUAD_TOL = 1e-13


def _kernel_value(kind, zeta, averaged, hx, hy):
    if averaged:
        return complex(kn.avg_inv(zeta, hx, hy) if kind == "cauchy"
                       else -kn.avg_inv_sq(zeta, hx, hy))
    if zeta == 0:
        return 0.0
    return 1.0 / zeta if kind == "cauchy" else -1.0 / zeta**2


def _quad_direct(op, f, mode, image_rows=1, image_sign=-1):
    """The four-loop sum of op's kernel over f.

    The image of source row j seen from row i sits at Im (i + j + image_rows)
    hy; the two-term kernels add `image_sign` times its term.  The defaults
    are the operator; the twins change one of them.
    """
    s = f.spec
    x, y, hx, hy = s.x, s.y, s.hx, s.hy
    accurate = mode == "accurate"
    out = np.zeros((s.ny, s.nx), dtype=complex)
    for i in range(s.ny):
        for k in range(s.nx):
            for j in range(s.ny):
                for l in range(s.nx):
                    if mode == "matched" and (i, k) == (j, l):
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


@pytest.mark.parametrize("mode", ["matched", "accurate"])
@pytest.mark.parametrize("nx, ny", QUAD_SHAPES)
@pytest.mark.parametrize("op", sorted(QUAD_TWO_TERM) + list(QUAD_PRODUCT))
def test_quadrature_half_plane_operators_are_their_direct_sums(op, nx, ny, mode):
    f = _quad_case(op, nx, ny)
    got = tr.transform(f, op, method="quadrature", mode=mode).data
    assert _close(got, _quad_direct(op, f, mode), QUAD_TOL)


@pytest.mark.parametrize("mode", ["matched", "accurate"])
@pytest.mark.parametrize("op, twin", [(op, {"image_rows": 0}) for op in sorted(QUAD_TWO_TERM)]
                         + [(op, {"image_rows": 0}) for op in QUAD_PRODUCT]
                         + [(op, {"image_sign": 1}) for op in sorted(QUAD_TWO_TERM)])
def test_quadrature_direct_sum_twins_fail_the_bar(op, twin, mode):
    # the image at (i + j) hy instead of (i + j + 1) hy, or added, not subtracted
    f = _quad_case(op, 7, 5)
    got = tr.transform(f, op, method="quadrature", mode=mode).data
    assert not _close(got, _quad_direct(op, f, mode, **twin), QUAD_TOL)


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


def _input_only_sandwich(op, f, **kw):
    """conj_sandwich without its outer conj: the twin the involution property must reject."""
    return op(f.conj(), **kw)


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
    assert _is_linear_involution(tr.conj_sandwich, op, f)
    assert not _is_linear_involution(_input_only_sandwich, op, f)
