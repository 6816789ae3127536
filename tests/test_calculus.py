import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypb import calculus as ca
from hypb import testfuncs as tf
from hypb.grid import Field, GridSpec, PlaneKind


def upper(n, L=2.8, H=5.6):
    return GridSpec(L=L, H=H, nx=n, ny=n, plane=PlaneKind.UPPER)


def rel_l2(a, b):
    return np.sqrt(np.sum(np.abs(a - b) ** 2) / np.sum(np.abs(b) ** 2))


def test_fd4_differentiates_quartics_exactly():
    # the one-sided end stencils are 4th order too, so degree 4 is exact
    # everywhere, not just in the interior; d/dx = d + dbar, d/dy = i(d - dbar)
    gs = upper(16)
    X, Y = np.meshgrid(gs.x, gs.y)
    f = Field(gs, (X**4 + 2 * Y**3 * X).astype(complex))
    fx = ca.d(f).data + ca.d_bar(f).data
    fy = 1j * (ca.d(f).data - ca.d_bar(f).data)
    assert np.max(np.abs(fx - (4 * X**3 + 2 * Y**3))) < 1e-10
    assert np.max(np.abs(fy - 6 * Y**2 * X)) < 1e-10


@pytest.mark.parametrize("which,op", [
    ("d", ca.d),
    ("dbar", ca.d_bar),
    ("lap", lambda f: ca.d(ca.d_bar(f))),
])
def test_fd4_order_on_the_gaussian(which, op):
    fn = tf.gaussian_bump(2.0, 4.0)
    errs = []
    for n in (64, 128, 256):
        gs = upper(n)
        got = op(tf.sample(fn, gs, "f")).data
        want = tf.sample(fn, gs, which).data
        errs.append(rel_l2(got, want))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) > 3.5


def test_conjugation_swaps_d_and_dbar():
    gs = upper(32)
    rng = np.random.default_rng(11)
    f = Field(gs, rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32)))
    lhs = ca.d_bar(f).data
    rhs = np.conj(ca.d(Field(gs, np.conj(f.data))).data)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_mult_im_pow():
    gs = upper(8)
    y = gs.y.reshape(-1, 1)
    f = Field(gs, np.ones((8, 8), dtype=complex))
    assert np.allclose(ca.mult_im_pow(f, 2.0).data, y**2)
    assert np.allclose(ca.mult_im_pow(f, -0.5).data, y**-0.5)


def test_fractional_power_needs_positive_heights():
    gs = GridSpec(L=1.0, H=1.0, nx=8, ny=8, plane=PlaneKind.FULL)
    f = Field(gs, np.ones((8, 8), dtype=complex))
    assert np.allclose(ca.mult_im_pow(f, 2.0).data, gs.y.reshape(-1, 1) ** 2)
    with pytest.raises(ValueError):
        ca.mult_im_pow(f, 0.5)


def test_conjugated_operators_expand_by_the_product_rule():
    # M^2 d M^-1 = M d + (i/2) on smooth fields, and M^2 dbar M^-1 = M dbar
    # - (i/2); check these and M d, M dbar, M^2 d dbar, each composed from
    # mult_im_pow, against closed-form derivatives
    gs = upper(128)
    fn = tf.gaussian_bump(2.0, 4.0)
    F = tf.sample(fn, gs, "f")
    dF = tf.sample(fn, gs, "d").data
    dbF = tf.sample(fn, gs, "dbar").data
    y = gs.y.reshape(-1, 1)
    M = ca.mult_im_pow
    assert rel_l2(M(ca.d(M(F, -1)), 2).data, y * dF + 0.5j * F.data) < 1e-4
    assert rel_l2(ca.dbar_down(F).data, y * dbF - 0.5j * F.data) < 1e-4
    assert rel_l2(M(ca.d(F), 1).data, y * dF) < 1e-4
    assert rel_l2(M(ca.d_bar(F), 1).data, y * dbF) < 1e-4
    lapF = tf.sample(fn, gs, "lap").data
    # composed double differencing loses one order near the edges
    assert rel_l2(M(ca.d(ca.d_bar(F)), 2).data, y**2 * lapF) < 1e-3


@settings(max_examples=25, deadline=None)
@given(
    ar=st.floats(-3, 3), ai=st.floats(-3, 3),
    br=st.floats(-3, 3), bi=st.floats(-3, 3),
)
def test_d_is_linear(ar, ai, br, bi):
    gs = upper(16)
    rng = np.random.default_rng(5)
    f = Field(gs, rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16)))
    g = Field(gs, rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16)))
    a, b = complex(ar, ai), complex(br, bi)
    lhs = ca.d(Field(gs, a * f.data + b * g.data)).data
    rhs = a * ca.d(f).data + b * ca.d(g).data
    assert np.max(np.abs(lhs - rhs)) < 1e-9
