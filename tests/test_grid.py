import warnings

import numpy as np
import pytest

from hypb.grid import (
    Field,
    GridSpec,
    PlaneKind,
    WeightKind,
    inner_product,
    lp_norm,
)


def upper(nx=8, ny=8, L=1.0, H=2.0):
    return GridSpec(L=L, H=H, nx=nx, ny=ny, plane=PlaneKind.UPPER)


def test_upper_cells_are_centered_and_interior():
    gs = upper(nx=4, ny=4)
    assert np.allclose(gs.x, [-0.75, -0.25, 0.25, 0.75])
    assert np.allclose(gs.y, [0.25, 0.75, 1.25, 1.75])
    assert gs.y[0] > 0  # centers never touch the boundary line
    assert np.allclose(np.diff(gs.x), gs.hx)
    assert np.allclose(np.diff(gs.y), gs.hy)


def test_full_plane_is_symmetric_about_the_axis():
    gs = GridSpec(L=1.0, H=1.0, nx=4, ny=4, plane=PlaneKind.FULL)
    assert np.allclose(gs.y, -gs.y[::-1])
    assert not np.any(gs.y == 0.0)


def test_cell_measure_uses_normalized_area():
    gs = upper()
    assert gs.cell_measure == pytest.approx(gs.hx * gs.hy / np.pi)


def test_zz_matches_meshgrid():
    gs = upper(nx=4, ny=6)
    X, Y = np.meshgrid(gs.x, gs.y)
    assert np.array_equal(gs.zz(), X + 1j * Y)


def test_summary_round_trips_the_geometry():
    gs = upper(nx=16, ny=32, L=2.5, H=5.0)
    s = gs.summary()
    assert s == {"L": 2.5, "H": 5.0, "nx": 16, "ny": 32, "plane": "upper"}


@pytest.mark.parametrize("bad", [dict(L=-1.0), dict(H=0.0), dict(nx=0), dict(ny=2),
                                 dict(L=np.inf), dict(H=np.inf),
                                 # cell measure, or its square, outside the normal floats
                                 dict(L=1e300, H=1e300), dict(L=1e100, H=1e100),
                                 dict(L=1e-300, H=5.0), dict(L=1e-160, H=1.0)])
def test_degenerate_boxes_are_rejected(bad):
    kw = dict(L=1.0, H=2.0, nx=4, ny=4, plane=PlaneKind.UPPER)
    kw.update(bad)
    with pytest.raises(ValueError):
        GridSpec(**kw)


def test_field_shape_must_match_grid():
    gs = upper(nx=4, ny=4)
    with pytest.raises(ValueError):
        Field(gs, np.zeros((3, 3)))


def test_weight_kinds():
    gs = upper()
    y = gs.y.reshape(-1, 1)
    assert np.allclose(gs.weight(2.0, WeightKind.PLAIN), 1.0)
    assert np.allclose(gs.weight(2.0, WeightKind.HYPERBOLIC), y**-2.0)
    assert np.allclose(gs.weight(3.0, WeightKind.DUAL_HYPERBOLIC), y**3.0)


def test_weight_requires_the_enum():
    # a bare string silently matching .value would invite typo-weights
    with pytest.raises(TypeError):
        upper().weight(2.0, "hyperbolic")


def test_constant_field_norm_and_inner_product_agree():
    gs = upper(nx=4, ny=4)
    f = Field(gs, np.full((4, 4), 1.0 + 0.0j))
    n2 = lp_norm(f, 2.0)
    assert n2 == pytest.approx(np.sqrt(16 * gs.cell_measure))
    assert inner_product(f, f) == pytest.approx(n2**2)


def test_a_norm_whose_sum_leaves_the_float_range_is_an_overflow_error():
    # |f|^2 of a finite 1e200 overflows; twin: 1e100 squares to a finite sum
    gs = upper(nx=4, ny=4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match="float range"):
            lp_norm(Field(gs, np.full((4, 4), 1e200 + 0j)), 2.0)
        assert lp_norm(Field(gs, np.full((4, 4), 1e100 + 0j)), 2.0) == pytest.approx(
            1e100 * np.sqrt(16 * gs.cell_measure))


def test_hyperbolic_norm_equals_plain_norm_of_divided_field():
    gs = upper()
    rng = np.random.default_rng(3)
    data = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    f = Field(gs, data)
    y = gs.y.reshape(-1, 1)
    assert lp_norm(f, 2.0, WeightKind.HYPERBOLIC) == pytest.approx(
        lp_norm(Field(gs, data / y), 2.0)
    )
    assert lp_norm(f, 4.0, WeightKind.DUAL_HYPERBOLIC) == pytest.approx(
        lp_norm(Field(gs, data * y), 4.0)
    )


def test_inner_product_is_conjugate_symmetric():
    gs = upper()
    rng = np.random.default_rng(4)
    f = Field(gs, rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
    g = Field(gs, rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
    assert inner_product(f, g) == pytest.approx(np.conj(inner_product(g, f)))
