import contextlib
import io
import json
import math
import re
import sys
import threading
import warnings

import numpy as np
import pytest
from scipy import special
from scipy.integrate import quad

from hypb import calculus as ca
from hypb import cli
from hypb import testfuncs as tf
from hypb import whittaker as wh
from hypb.grid import Field, GridSpec, PlaneKind


T_GRID = np.geomspace(0.1, 30.0, 200)


def inverse_partial_fourier(spec: GridSpec, xi: np.ndarray, coeffs: np.ndarray) -> Field:
    """The field on spec whose `_partial_fourier` has frequencies xi and data coeffs."""
    x0 = spec.x[0]
    data = np.fft.ifft(coeffs * np.exp(1j * xi * x0)[None, :], axis=1) / spec.hx
    return Field(spec, data)


def pde_residual_ratio(h: Field) -> float:
    """Residual of the cokernel PDE y (dxx + dyy) h + 2i dx h = 0, normalized
    by the sizes of its two terms (scale-free).  dx = d + dbar and
    dxx + dyy = 4 d dbar."""
    spec = h.spec
    dbar_h = ca.d_bar(h)
    dx1 = ca.d(h).data + dbar_h.data
    y = spec.y.reshape(-1, 1)
    t1 = y * 4.0 * ca.d(dbar_h).data
    t2 = 2j * dx1
    num = np.sqrt(np.sum(np.abs(t1 + t2) ** 2))
    den = np.sqrt(np.sum(np.abs(t1) ** 2)) + np.sqrt(np.sum(np.abs(t2) ** 2)) + 1e-300
    return float(num / den)


@pytest.mark.parametrize("family,A,B", [
    ("X", 1.0, 0.0),
    ("X", 0.0, 1.0),
    ("Y", 1.0, 0.0),
    ("Y", 0.0, 1.0),
    ("X", 0.3 + 0.2j, -1.1),
    ("Y", -0.5, 2.0 + 1.0j),
])
def test_solution_branches_satisfy_their_equation(family, A, B):
    assert wh.ode_residual(family, A, B, T_GRID) < 1e-6


def test_wrong_equation_sign_is_detected():
    assert wh.ode_residual("X", 1.0, 0.0, T_GRID, sign=-1) > 1e-2


def test_solutions_are_linear_in_the_coefficients():
    t = np.geomspace(0.2, 5.0, 17)
    a = wh.branch("X", 1.0, 0.0, t)
    b = wh.branch("X", 0.0, 1.0, t)
    c = wh.branch("X", 2.0, -3.0j, t)
    assert np.allclose(c, 2.0 * a - 3.0j * b, rtol=1e-13)


def test_fast_branch_is_t_exp_half_t():
    t = np.array([0.5, 1.0, 30.0])
    assert np.allclose(wh.branch("X", 1.0, 0.0, t), t * np.exp(t / 2), rtol=1e-13)
    assert np.allclose(wh.branch("Y", 0.0, 1.0, t), t * np.exp(-t / 2), rtol=1e-13)


def test_zero_coefficient_branch_is_skipped_at_large_t():
    # past t ~ 1420 the fast branch's e^{t/2} overflows, and past t ~ 709 so
    # does y_integral; a zero coefficient must not turn that into 0 * inf.
    # X's slow mode is itself below the normal range there, and refused so
    t = np.array([10.0, 1400.0])
    x = wh.branch("X", 0.0, 1.0, t)
    assert np.all(np.isfinite(x))
    assert x[0] == wh.branch("X", 0.0, 1.0, 10.0) > 0
    with pytest.raises(OverflowError, match=r"X branch .* underflows .* from t = 1500$"):
        wh.branch("X", 0.0, 1.0, [10.0, 1500.0])
    y = wh.branch("Y", 0.0, 1.0, np.array([1000.0]))
    assert y[0] == pytest.approx(1000.0 * np.exp(-500.0), rel=1e-13)


def test_slow_branch_integral_closed_form():
    # x_integral against adaptive quadrature of I(t)
    ts = np.geomspace(0.1, 30.0, 40)
    want = np.array([
        quad(lambda s, t=t: np.exp(-t * s) * s / (1.0 + s), 0.0, np.inf,
             epsabs=1e-300, epsrel=1e-10, limit=200)[0]
        for t in ts
    ])
    assert np.max(np.abs(wh.x_integral(ts) - want) / np.abs(want)) < 1e-10


# 40-digit oracles.  x_integral's E2 form has no cancellation; the exp1
# form 1/t - e^t E1(t) loses about t ulps below t = 40 (1.1e-14 on the
# dense scan of [27, 30]), and the bare forms past their ranges lose far
# more, which the twin tests pin.
# one ulp either side of the series / continued fraction switch (1), of the
# switch's earlier place (0.5) and of t = 40, where y_integral switches
# series and the far set of X_ORACLE_FAR_TOL begins
X_BRANCH_EDGES = [np.nextafter(t, t + side) for t in (0.5, 1.0, 40.0)
                  for side in (-1.0, 0.0, 1.0)]
X_ORACLE_T = np.concatenate([np.geomspace(1e-4, 1500.0, 400), np.linspace(27.0, 30.0, 100),
                             [1e4], X_BRANCH_EDGES])
X_ORACLE_TOL = 5e-15
# from t = 40 on the continued fraction reads 2.3e-16; the asymptotic series
# of 1 - t e^t E1(t) reads 2.0e-15 there, which this bar rejects
X_ORACLE_FAR_TOL = 5e-16
Y_ORACLE_T = np.geomspace(1e-3, 709.0, 400)
Y_ORACLE_TOL = 5e-14


def _oracle_error(values, ts, exact) -> float:
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        want = np.array([float(exact(mpmath, mpmath.mpf(t))) for t in ts])
    return float(np.max(np.abs(values - want) / np.abs(want)))


def _I(mp, t):
    return 1 / t - mp.exp(t) * mp.e1(t)


def _J(mp, t):
    return mp.ei(t) - mp.euler - mp.log(t) - (mp.expm1(t) - t) / t


def _bare_exp1_form(t):
    return 1.0 / t - np.exp(t) * special.exp1(t)


def _asymptotic_form(t):
    """sum_{k=1}^{40} (-1)^(k+1) k!/t^(k+1), the asymptotic series of I."""
    acc, term = np.zeros_like(t), 1.0 / t
    for k in range(1, 41):
        acc, term = acc + term, term * (-(k + 1) / t)
    return acc / t


def _bare_ei_form(t):
    return special.expi(t) - np.euler_gamma - np.log(t) - (np.expm1(t) - t) / t


def test_x_integral_matches_mpmath():
    got = wh.x_integral(X_ORACLE_T)
    assert np.all(np.isfinite(got))
    assert _oracle_error(got, X_ORACLE_T, _I) < X_ORACLE_TOL


def test_x_integral_matches_mpmath_to_rounding_from_40_on():
    ts = X_ORACLE_T[X_ORACLE_T >= 40.0]
    assert _oracle_error(wh.x_integral(ts), ts, _I) < X_ORACLE_FAR_TOL
    assert _oracle_error(_asymptotic_form(ts), ts, _I) > X_ORACLE_FAR_TOL


def test_x_oracle_rejects_a_continued_fraction_cut_at_80_levels(monkeypatch):
    # 80 levels leave 8e-15 at t = 1, where the fraction converges slowest
    monkeypatch.setattr(wh, "_E2_FRACTION_LEVELS", 80)
    ts = X_ORACLE_T[X_ORACLE_T < 40.0]
    assert _oracle_error(wh.x_integral(ts), ts, _I) > X_ORACLE_TOL


def test_x_oracle_rejects_the_bare_closed_form_at_large_t():
    ts = X_ORACLE_T[X_ORACLE_T <= 700.0]
    assert _oracle_error(_bare_exp1_form(ts), ts, _I) > X_ORACLE_TOL


def test_x_oracle_rejects_the_cancelling_exp1_form_below_40():
    ts = X_ORACLE_T[X_ORACLE_T < 40.0]
    assert _oracle_error(_bare_exp1_form(ts), ts, _I) > X_ORACLE_TOL


def test_y_integral_matches_mpmath():
    assert _oracle_error(wh.y_integral(Y_ORACLE_T), Y_ORACLE_T, _J) < Y_ORACLE_TOL


def test_y_oracle_rejects_the_bare_closed_form_above_40():
    ts = Y_ORACLE_T[Y_ORACLE_T >= 40.0]
    assert _oracle_error(_bare_ei_form(ts), ts, _J) > Y_ORACLE_TOL


def test_y_integral_refuses_t_past_its_overflow_limit():
    assert np.isfinite(wh.y_integral(wh.Y_INTEGRAL_T_MAX))
    with pytest.raises(OverflowError, match="709.78"):
        wh.y_integral(710.0)
    with pytest.raises(OverflowError, match="709.78"):
        wh.branch("Y", 1.0, 0.0, 710.0)


def test_branch_X_refuses_where_its_fast_mode_times_A_overflows():
    # at A = 1, t e^{t/2} overflows from t = 1405.07 on; below it the value is
    # finite.  The refusal reads the product: at A = 1e-300, t = 1410 is
    # 2.12e9, and the product overflows by t = 1420
    below = np.nextafter(1405.0697413497535, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isfinite(wh.branch("X", 1.0, 0.0, below))
        assert wh.branch("X", 1e-300, 0.0, 1410.0) == pytest.approx(2.1224079e9, rel=1e-7)
    for t in (1405.0697413497535, 1500.0, [1.0, 1500.0]):
        with pytest.raises(OverflowError, match=r"X branch .* overflows at \|A\| = 1, "):
            wh.branch("X", 1.0, 0.0, t)
    with pytest.raises(OverflowError, match=r"\|A\| = 1e-300, \|B\| = 0: .* from t = 1420"):
        wh.branch("X", 1e-300, 0.0, 1420.0)
    with pytest.raises(OverflowError, match="from t = 1500"):
        wh.ode_residual("X", 1.0, 0.0, [1000.0, 1500.0])
    # the slow mode alone does not overflow there: it is below the normal range
    with pytest.raises(OverflowError, match=r"\|A\| = 0, \|B\| = 1: below the normal float range"):
        wh.branch("X", 0.0, 1.0, 1500.0)


def test_branch_refuses_a_product_that_passed_below_the_normal_range():
    # e^{-t/2} is subnormal past t = 1416.8: Y's B mode read 2.93e-310, with
    # about 35 bits, at t = 1440, and X's read 0.0 at t = 1500.  A product
    # that comes back into the normal range lost the same bits in its
    # subnormal step, and so does a coefficient's product that goes below it.
    # Twin: at t = 1400, where e^{-700} is normal, the values stand bit for bit
    for family, B, t, t0 in (("Y", 1, 1440.0, 1440), ("X", 1, 1500.0, 1500),
                             ("Y", 1e300, [1400.0, 1440.0], 1440), ("X", 1e300, 1440.0, 1440),
                             ("Y", 1e-300, [30.0, 50.0], 50)):
        message = (f"the {family} branch A a(t) + B b(t) underflows at |A| = 0, |B| = {B:.6g}: "
                   f"below the normal float range from t = {t0}")
        with pytest.raises(OverflowError, match=f"^{re.escape(message)}$"):
            wh.branch(family, 0, B, t)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert wh.branch("Y", 0, 1, 1400.0) == 1400.0 * np.exp(-700.0)
        assert wh.branch("X", 0, 1, 1400.0) == 1400.0 * np.exp(-700.0) * wh.x_integral(1400.0)
        assert wh.branch("Y", 0, 1e300, 1400.0) == 1e300 * 1400.0 * np.exp(-700.0)
        assert wh.branch("Y", 1, 1, np.array([])).shape == (0,)


def test_branch_keeps_a_value_whose_product_overflows_midway():
    # B t overflowed before e^{-t/2} scaled it, so Y at B = 1e307 was refused
    # from t = 18.4 though every value stays under 7.4e306.  Every entry is
    # the left-to-right product without the overflow: the product at 2^-10
    # times the coefficients, times 2^10, which scales exactly
    t = np.geomspace(0.1, 30.0, 200)
    for family, A, B in (("Y", 0.0, 1e307), ("Y", 0.0, 1e308), ("X", 0.0, 1e308),
                         ("X", 1e300, 0.0), ("Y", 1e300, 1e307)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = wh.branch(family, A, B, t)
        assert np.array_equal(got, wh.branch(family, A / 1024, B / 1024, t) * 1024.0)


def test_branch_scales_each_coefficient_on_its_own():
    # one scale for both coefficients, that of max(|A|, |B|), flushed the
    # smaller one to 0: X at (1e-300, 1e308) read 0.047, the slow mode alone,
    # where it is 2.12e9.  Each real part of each coefficient now keeps its
    # own scale, so the sum is each mode computed alone, bit for bit
    ldexp = math.ldexp
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = wh.branch("X", 1e-300, 1e308, 1410.0)
        slow = wh.branch("X", 0.0, ldexp(1e308, -600), 1410.0) * ldexp(1.0, 600)
        assert got == wh.branch("X", 1e-300, 0.0, 1410.0) + slow
        assert got == pytest.approx(2.1224079e9, rel=1e-7) and slow == pytest.approx(0.047, rel=1e-2)
        t = np.geomspace(0.1, 30.0, 200)
        for family in "XY":
            assert np.array_equal(wh.branch(family, 1.0, 1e308, t),
                                  wh.branch(family, 1.0, 0.0, t) + wh.branch(family, 0.0, 1e308, t))
            for B in (1e308 + 1e-5j, 1e-290 - 1.7e308j):
                v = wh.branch(family, 0.0, B, t)
                assert np.array_equal(v.real, wh.branch(family, 0.0, B.real, t))
                assert np.array_equal(v.imag, wh.branch(family, 0.0, B.imag, t))
    # a scaled product below the normal range has lost bits: refused, named,
    # as is a coefficient below it whose product overflows (it raised a bare
    # "math range error" from the scale factor)
    for family, A, B, t in (("Y", 0.0, 1e308, 1500.0), ("X", 5e-324, 0.0, 1420.0)):
        with pytest.raises(OverflowError, match=f"{family} branch A a\\(t\\) \\+ B b\\(t\\) overflows"):
            wh.branch(family, A, B, t)


def test_slow_branch_integral_asymptotics():
    # I(t) ~ 1/t^2 for large t; I(t) = 1/t + log t + gamma + O(t log t) small
    assert abs(900.0 * wh.x_integral(30.0) - 1.0) < 0.1
    t = 1e-4
    assert wh.x_integral(t) - 1.0 / t == pytest.approx(np.log(t) + np.euler_gamma, rel=1e-3)


def test_y_integral_small_t_series():
    # J(t) = t/2 + t^2/12 + O(t^3)
    for t in (1e-3, 1e-2):
        assert wh.y_integral(t) == pytest.approx(t / 2 + t**2 / 12, rel=1e-4)


def test_slow_y_branch_tends_to_one_at_zero():
    v = complex(wh.branch("Y", 1.0, 0.0, np.array([1e-4]))[0])
    assert abs(v - 1.0) < 2e-3


def _partial_fourier(h: Field):
    """xi and the x-Fourier coefficients of the whole field at once (the oracle's transform)."""
    spec = h.spec
    xi = 2.0 * np.pi * np.fft.fftfreq(spec.nx, d=spec.hx)
    data = np.fft.fft(h.data, axis=1)
    data *= spec.hx
    data *= np.exp(-1j * xi * spec.x[0])[None, :]
    return xi, data


def _whole_field_classify(h: Field, wrong_branch: bool = False) -> wh.ClassifyResult:
    """The classifier on the whole field at once, as it was before it read row
    blocks: the oracle of the streamed one."""
    spec = h.spec
    edge = max(np.max(np.abs(h.data[:, 0])), np.max(np.abs(h.data[:, -1])))
    peak = np.max(np.abs(h.data))
    xi, data = _partial_fourier(h)
    y = spec.y.reshape(-1, 1)
    absq = np.abs(data) ** 2
    tot = float(np.sum(absq))
    pos_frac = float(np.sum(absq[:, xi > 0])) / tot if tot > 0 else 0.0
    lo, hi = wh.CLASSIFY_XI_WINDOW
    cols = np.nonzero((xi >= lo) & (xi <= hi))[0]
    xi_w = xi[cols]
    sgn = -1.0 if wrong_branch else 1.0
    prof = 2.0 * np.abs(xi_w)[None, :] * y * np.exp(sgn * y * xi_w[None, :])
    block = data[:, cols]
    window_frac = float(np.sum(absq[:, cols])) / tot if tot > 0 else 0.0
    b2 = np.sum(block * prof, axis=0) / np.sum(prof * prof, axis=0)
    resid = block - b2[None, :] * prof
    fit_residual = float(
        np.sqrt(np.sum(np.abs(resid) ** 2) / max(np.sum(np.abs(block) ** 2), 1e-300)))
    dxi = 2.0 * np.pi / (spec.nx * spec.hx)
    wdens = absq[:, xi < 0] / y**2
    weight_value = 0.5 * float(np.sum(wdens)) * spec.hy * dxi
    cuts = [c for c in (1, 2, 4) if c <= spec.ny // 4]
    sums = [0.5 * float(np.sum(wdens[c:])) * spec.hy * dxi for c in cuts]
    ratios = [sums[i] / max(sums[i + 1], 1e-300) for i in range(len(sums) - 1)]
    s_top = float(np.sum(wdens[spec.ny // 2 :]))
    s_shell = float(np.sum(wdens[spec.ny // 4 : spec.ny // 2]))
    dyadic_growth = max(ratios + [s_top / max(s_shell, 1e-300)])
    ok = (pos_frac <= wh.CLASSIFY_POS_TOL and window_frac >= wh.CLASSIFY_WINDOW_MIN
          and fit_residual <= wh.CLASSIFY_FIT_TOL and dyadic_growth <= wh.CLASSIFY_GROWTH_TOL)
    return wh.ClassifyResult(
        is_cokernel=bool(ok), xi=xi_w, b2=b2, pos_energy_frac=pos_frac,
        window_energy_frac=window_frac, fit_residual=fit_residual,
        weight_value=weight_value, dyadic_growth=dyadic_growth, thresholds={},
        x_truncation=float(edge / peak) if peak > 0 else 0.0, block=block)


def _assert_same_classification(got: wh.ClassifyResult, want: wh.ClassifyResult):
    """Same verdict; xi, b2, the fit residual, x_truncation and the window block
    bit for bit; the figures summed over the energy groups within 1e-14 relative."""
    assert got.is_cokernel == want.is_cokernel
    for name in ("xi", "b2", "fit_residual", "x_truncation", "block"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    for name in ("pos_energy_frac", "window_energy_frac", "weight_value", "dyadic_growth"):
        assert getattr(got, name) == pytest.approx(getattr(want, name), rel=1e-14, abs=0), name


def test_partial_fourier_round_trip():
    gs = GridSpec(L=4.0, H=2.0, nx=64, ny=16, plane=PlaneKind.UPPER)
    f = tf.sample(tf.gaussian_bump(1.0, 32.0, x0=0.5), gs, "f")
    xi, data = _partial_fourier(f)
    back = inverse_partial_fourier(gs, xi, data)
    assert np.max(np.abs(back.data - f.data)) < 1e-12


CLASSIFY_MEMBERS = (
    [(f"conjrat:a={a},k={k}", m) for a in (0.5, 0.65, 1.25) for k in (2, 3) for m in (True, False)]
    + [("holorat:a=1,k=2", True), ("gaussian:c=2,sigma=4", False), ("poisson", True)])


@pytest.mark.parametrize("testfn,times_y", CLASSIFY_MEMBERS)
def test_streamed_classifier_matches_the_whole_field_one(testfn, times_y):
    spec = wh.default_classify_spec()
    fn = tf.parse_testfn(testfn)
    field = tf.sample(fn, spec)
    if times_y:
        field = Field(spec, spec.y.reshape(-1, 1) * field.data)
    want = _whole_field_classify(field)
    _assert_same_classification(wh.lemma_a1_classify(tf.RowSampler(fn, spec, times_y)), want)
    _assert_same_classification(wh.lemma_a1_classify(field), want)


@pytest.mark.parametrize("nx,ny", [(65, 70), (64, 12), (2048, 640)])
def test_streamed_classifier_matches_on_partial_blocks_and_the_wrong_branch(nx, ny):
    # 70 rows end in a block of 6, 12 rows are less than one block; the
    # wrong-branch fit of the streamed pass's own block is the whole-field one
    spec = GridSpec(L=16.0 * nx / 65, H=16.0 * ny / 640, nx=nx, ny=ny)
    fn = tf.conj_rational(1.0, 2)
    field = Field(spec, spec.y.reshape(-1, 1) * tf.sample(fn, spec).data)
    want = _whole_field_classify(field)
    want_wrong = _whole_field_classify(field, wrong_branch=True)
    for reader in (field, tf.RowSampler(fn, spec, times_y=True)):
        got = wh.lemma_a1_classify(reader)
        _assert_same_classification(got, want)
        b2, fit_residual = wh.fit_profile(got.block, got.xi, spec.y, -1.0)
        assert np.array_equal(b2, want_wrong.b2)
        assert fit_residual == want_wrong.fit_residual


def test_more_threads_than_the_cap_switching_fast_lose_no_block(block_threads):
    # blocks write disjoint rows of shared arrays: on 5 threads, more than
    # twice the classifier's 2, switching every microsecond, every row still
    # lands where the whole-field pass puts it
    spec = wh.default_classify_spec()
    fn = tf.conj_rational(1.0, 2)
    want = _whole_field_classify(Field(spec, spec.y.reshape(-1, 1) * tf.sample(fn, spec).data))
    block_threads(5)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = wh.lemma_a1_classify(tf.RowSampler(fn, spec, times_y=True))
    finally:
        sys.setswitchinterval(interval)
    _assert_same_classification(got, want)


def test_a_reader_with_one_block_shifted_a_row_fails_the_comparison():
    spec = wh.default_classify_spec()
    field = tf.sample(tf.conj_rational(1.0, 2), spec)
    field = Field(spec, spec.y.reshape(-1, 1) * field.data)

    class Shifted:
        """The field's rows, except that the block from row 64 on starts a row late."""
        def __init__(self):
            self.spec = spec

        def rows(self, r):
            return field.data[r.start + 1 : r.stop + 1] if r.start == 64 else field.data[r]

    want = _whole_field_classify(field)
    _assert_same_classification(wh.lemma_a1_classify(field), want)
    with pytest.raises(AssertionError):
        _assert_same_classification(wh.lemma_a1_classify(Shifted()), want)


@pytest.mark.parametrize("name", ["gaussian", "conjrat", "holorat", "hardy", "poisson",
                                  "rez", "imz"])
@pytest.mark.parametrize("nx,ny", [(2048, 640), (65, 70)])
def test_row_sampler_blocks_are_the_rows_of_the_sampled_field(name, nx, ny):
    # against each closed form evaluated on the whole grid at once; ny = 70 is
    # no multiple of the blocks of the classifier and of tf.sample
    spec = GridSpec(L=128.0 * nx / 2048, H=16.0 * ny / 640, nx=nx, ny=ny)
    fn = tf.parse_testfn(name)
    whole = fn.f(spec.zz())
    weighted = spec.y.reshape(-1, 1) * whole
    plain, times_y = tf.RowSampler(fn, spec), tf.RowSampler(fn, spec, times_y=True)
    n = wh._CLASSIFY_ROWS
    for r in [slice(r0, min(r0 + n, ny)) for r0 in range(0, ny, n)] + [slice(5, 12)]:
        assert np.array_equal(plain.rows(r), whole[r])
        assert np.array_equal(times_y.rows(r), weighted[r])
    if nx % 2:  # the odd grid ends in a partial block of tf.sample
        assert ny % tf._SAMPLE_ROWS
    for which in ("f", "d", "dbar", "lap", "d2"):
        form = getattr(fn, which)
        if form is not None:
            assert np.array_equal(tf.sample(fn, spec, which).data, form(spec.zz())), which


def test_classify_peak_memory_stays_under_a_quarter_field(peak_bytes, block_threads):
    # the classify run never holds a classify-grid field: its row blocks, as
    # many in flight as threads may run them, and the ny x 91 window block
    # stay under a quarter of one.  Twin: sampling the whole field first
    # holds more than one
    block_threads(2)
    spec = wh.default_classify_spec()
    field_bytes = spec.nx * spec.ny * 16
    argv = ["whittaker", "classify", "--testfn", "conjrat:a=1,k=2", "--premultiply-M", "--json"]
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert peak_bytes(lambda: cli.main(argv)) <= 0.25 * field_bytes
    assert json.loads(out.getvalue())["is_cokernel"] is True

    def whole():
        fn = tf.conj_rational(1.0, 2)
        wh.lemma_a1_classify(Field(spec, spec.y.reshape(-1, 1) * tf.sample(fn, spec).data))

    assert peak_bytes(whole) > field_bytes


def test_classifier_records_x_truncation_without_warning():
    gs = GridSpec(L=4.0, H=2.0, nx=64, ny=16, plane=PlaneKind.UPPER)
    X, Y = np.meshgrid(gs.x, gs.y)
    slow = Field(gs, 1.0 / (1.0 + X**2 + Y**2) + 0j)
    edge = np.max(np.abs(slow.data[:, [0, -1]])) / np.max(np.abs(slow.data))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = wh.lemma_a1_classify(slow)
    assert edge > 1e-2
    assert res.x_truncation == pytest.approx(edge)


def test_energies_past_the_float_range_are_an_overflow_error(block_threads):
    # |hhat|^2 of this member overflows in the first block of rows; twin: k = 2.
    # On two threads, one a worker whose errstate is not the caller's
    block_threads(2)
    spec = wh.default_classify_spec()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match="rows 0-15 leave the float range"):
            wh.lemma_a1_classify(tf.RowSampler(tf.conj_rational(0.001, 200), spec))
        res = wh.lemma_a1_classify(tf.RowSampler(tf.conj_rational(0.001, 2), spec))
    assert np.isfinite(res.pos_energy_frac) and np.isfinite(res.dyadic_growth)


class _Reader:
    """The rows of a RowSampler times `scale`, read through a hook that sees
    each block's slice first; `threads` collects the ident of every thread
    that reads a block."""

    def __init__(self, sampler, hook=lambda r: None, scale=1.0, threads=None):
        self.spec, self._sampler, self._hook, self._scale = sampler.spec, sampler, hook, scale
        self.threads = set() if threads is None else threads

    def rows(self, r):
        self.threads.add(threading.get_ident())
        self._hook(r)
        return self._scale * self._sampler.rows(r)


def test_the_first_failing_block_in_row_order_is_refused(block_threads):
    # every block of this field overflows, and block 0 (the worker's first)
    # is held until block 39 (the caller's first) is done: the refusal still
    # names rows 0-15.  A closure's own exception reaches the caller as it
    # was raised, and a refused block comes before a later block's exception,
    # also one the caller raised itself
    block_threads(2)
    gaussian = tf.RowSampler(tf.parse_testfn("gaussian:c=2,sigma=4"), wh.default_classify_spec())
    last_done = threading.Event()

    def hold_block_0(r):
        if r.start == 38 * wh._CLASSIFY_ROWS:
            last_done.set()
        elif r.start == 0:
            assert last_done.wait(10)

    def fail_at_39(r):  # the caller's first block
        if r.start == 39 * wh._CLASSIFY_ROWS:
            raise ZeroDivisionError("the member's own message")

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        huge = _Reader(gaussian, hold_block_0, scale=1e300)
        with pytest.raises(OverflowError, match="energies .* of rows 0-15 leave the float range"):
            wh.lemma_a1_classify(huge)
        assert last_done.is_set()
        with pytest.raises(ZeroDivisionError, match="^the member's own message$"):
            wh.lemma_a1_classify(_Reader(gaussian, fail_at_39))
        with pytest.raises(OverflowError, match="rows 0-15"):
            wh.lemma_a1_classify(_Reader(gaussian, fail_at_39, scale=1e300))


@pytest.mark.parametrize("n", [1, 2, 5])
def test_no_thread_outlives_a_classify(block_threads, n):
    # after a verdict, a refusal, a reader's own exception and an interrupt
    # in the caller's own block, as many threads are alive as before the call
    block_threads(n)
    spec = wh.default_classify_spec()
    before = threading.active_count()
    wh.lemma_a1_classify(tf.RowSampler(tf.conj_rational(1.0, 2), spec, times_y=True))
    assert threading.active_count() == before
    with pytest.raises(OverflowError, match="leave the float range"):
        wh.lemma_a1_classify(tf.RowSampler(tf.parse_testfn("conjrat:a=0.01,k=200"), spec))
    assert threading.active_count() == before

    def fail_at_3(r):
        if r.start == 3 * wh._CLASSIFY_ROWS:
            raise ZeroDivisionError("the member's own message")

    def interrupt_at_39(r):  # the caller's first block
        if r.start == 39 * wh._CLASSIFY_ROWS:
            raise KeyboardInterrupt

    gaussian = tf.RowSampler(tf.parse_testfn("gaussian:c=2,sigma=4"), spec)
    with pytest.raises(ZeroDivisionError):
        wh.lemma_a1_classify(_Reader(gaussian, fail_at_3))
    assert threading.active_count() == before
    with pytest.raises(KeyboardInterrupt):
        wh.lemma_a1_classify(_Reader(gaussian, interrupt_at_39))
    assert threading.active_count() == before


DETERMINISM_FIELDS = [("conjrat:a=1,k=2", True), ("holorat:a=1,k=2", True),
                      ("gaussian:c=2,sigma=4", False)]


def _classify_outputs(tmp_path, strip_runtime, reader) -> list:
    """On each of DETERMINISM_FIELDS (the flag: times Im z) the summary, b2
    and window block as bytes of the result through `reader`, and the stdout
    and CSV of `hypb whittaker classify --json --out`; then `hypb verify
    whittaker-classify --json` less runtime_ms."""
    spec = wh.default_classify_spec()
    outputs = []
    for testfn, times_y in DETERMINISM_FIELDS:
        res = wh.lemma_a1_classify(reader(tf.RowSampler(tf.parse_testfn(testfn), spec, times_y)))
        outputs += [json.dumps(res.summary()), res.b2.tobytes(), res.block.tobytes()]
        csv = tmp_path / "b2.csv"
        argv = ["whittaker", "classify", "--testfn", testfn, "--json", "--out", str(csv)]
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert cli.main(argv + ["--premultiply-M"] * times_y) == 0
        outputs += [out.getvalue(), csv.read_bytes()]
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli.main(["verify", "whittaker-classify", "--json"]) == 0
    outputs.append(json.dumps(strip_runtime(json.loads(out.getvalue()))))
    return outputs


def _first_blocks_meet(barrier):
    """A hook that holds each thread's first block at the barrier."""
    met = set()

    def hook(r):
        if threading.get_ident() not in met:
            met.add(threading.get_ident())
            barrier.wait()

    return hook


def test_classify_is_bit_identical_on_one_and_two_threads(block_threads, tmp_path,
                                                          strip_runtime):
    # the readers record the threads that read blocks.  On two threads each
    # one's first block waits for the other's (10 s at most), so a pass that
    # never runs two blocks at once fails
    threads, runs = [], []
    for n in (1, 2):
        block_threads(n)
        hook, seen = _first_blocks_meet(threading.Barrier(n, timeout=10)), set()
        runs.append(_classify_outputs(tmp_path, strip_runtime,
                                      lambda sampler: _Reader(sampler, hook, threads=seen)))
        threads.append(seen)
    assert threads[0] == {threading.get_ident()} and len(threads[1]) == 2
    assert len(runs[0]) == 3 * 5 + 1
    for one, two in zip(*runs):
        assert one == two


def test_pde_residual_vanishes_on_weighted_antiholomorphic_fields():
    spec = wh.default_classify_spec()
    X, Y = np.meshgrid(spec.x, spec.y)
    Z = X + 1j * Y
    member = Field(spec, Y * np.conj((Z + 1j) ** -2))
    assert pde_residual_ratio(member) < 1e-3
    g = tf.sample(tf.gaussian_bump(2.0, 4.0), spec, "f")
    assert pde_residual_ratio(g) > 1e-1


def _classify_single_mode(profile_of_t, xi_target=-1.0):
    spec = wh.default_classify_spec()
    xi = 2.0 * np.pi * np.fft.fftfreq(spec.nx, d=spec.hx)
    j = int(np.argmin(np.abs(xi - xi_target)))
    t = 2.0 * abs(xi[j]) * spec.y
    data = np.zeros((spec.ny, spec.nx), dtype=complex)
    data[:, j] = profile_of_t(t)
    h = inverse_partial_fourier(spec, xi, data)
    return wh.lemma_a1_classify(h)


def test_decaying_mode_is_classified_as_cokernel():
    res = _classify_single_mode(lambda t: t * np.exp(-t / 2))
    assert res.is_cokernel
    assert res.fit_residual < 1e-12
    assert res.pos_energy_frac < 1e-20


def test_slow_mode_is_rejected_by_the_energy_growth_probe():
    res = _classify_single_mode(
        lambda t: np.asarray(wh.branch("Y", 1.0, 0.0, t), dtype=complex)
    )
    assert not res.is_cokernel
    assert res.dyadic_growth > res.thresholds["growth_tol"]


def test_growing_mode_is_rejected_by_the_energy_growth_probe():
    res = _classify_single_mode(lambda t: t * np.exp(t / 2))
    assert not res.is_cokernel
    assert res.dyadic_growth > res.thresholds["growth_tol"]


def test_classifier_end_to_end_on_the_rational_member():
    spec = wh.default_classify_spec()
    X, Y = np.meshgrid(spec.x, spec.y)
    Z = X + 1j * Y
    member = Field(spec, Y * np.conj((Z + 1j) ** -2))
    res = wh.lemma_a1_classify(member)
    assert res.is_cokernel
    target = -np.pi * np.exp(res.xi)
    assert np.max(np.abs(res.b2 - target) / np.abs(target)) < 1e-3
    # the mirrored fit profile cannot represent the same data
    assert wh.fit_profile(res.block, res.xi, spec.y, -1.0)[1] > 1e-2


def test_classifier_rejects_the_gaussian_and_the_holomorphic_twin():
    spec = wh.default_classify_spec()
    X, Y = np.meshgrid(spec.x, spec.y)
    Z = X + 1j * Y
    g = tf.sample(tf.gaussian_bump(2.0, 4.0), spec, "f")
    assert not wh.lemma_a1_classify(g).is_cokernel
    holo = Field(spec, Y * (Z + 1j) ** -2.0)
    res = wh.lemma_a1_classify(holo)
    assert not res.is_cokernel
    assert res.pos_energy_frac > 0.5  # energy sits on the wrong frequency side


def test_empty_fit_window_is_an_error():
    # on a box of half-width 1 the frequencies are multiples of pi, so none
    # falls in the fit window [-2.5, -0.25]
    gs = GridSpec(L=1.0, H=2.0, nx=8, ny=16, plane=PlaneKind.UPPER)
    xi = 2.0 * np.pi * np.fft.fftfreq(gs.nx, d=gs.hx)
    lo, hi = wh.CLASSIFY_XI_WINDOW
    assert not np.any((xi >= lo) & (xi <= hi))
    f = tf.sample(tf.gaussian_bump(1.0, 32.0), gs, "f")
    with pytest.raises(ValueError, match="no frequencies in the fit window"):
        wh.lemma_a1_classify(f)


def test_classify_result_summary_fields():
    res = _classify_single_mode(lambda t: t * np.exp(-t / 2))
    s = res.summary()
    assert list(s) == ["is_cokernel", "pos_energy_frac", "window_energy_frac", "fit_residual",
                       "dyadic_growth", "weight_value", "x_truncation", "thresholds"]
    assert s["x_truncation"] == res.x_truncation and type(s["x_truncation"]) is float
    assert s["thresholds"] == {"pos_tol": 1e-4, "window_min": 1e-2, "fit_tol": 1e-2,
                               "growth_tol": 1.3}
