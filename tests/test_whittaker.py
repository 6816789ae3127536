import warnings

import numpy as np
import pytest
from scipy import special
from scipy.integrate import quad

from hypb import calculus as ca
from hypb import testfuncs as tf
from hypb import whittaker as wh
from hypb.grid import Field, GridSpec, PlaneKind


T_GRID = np.geomspace(0.1, 30.0, 200)


def inverse_partial_fourier(p: wh.PartialFourierField) -> Field:
    """The field whose `partial_fourier` is p."""
    spec = p.spec
    x0 = spec.x[0]
    data = np.fft.ifft(p.data * np.exp(1j * p.xi * x0)[None, :], axis=1) / spec.hx
    return Field(spec, data, meta=dict(p.meta))


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
    sol = wh.WhittakerSolution(family, A, B)
    assert wh.ode_residual(sol, T_GRID) < 1e-6


def test_wrong_equation_sign_is_detected():
    sol = wh.WhittakerSolution("X", 1.0, 0.0)
    assert wh.ode_residual(sol, T_GRID, sign=-1) > 1e-2


def test_solutions_are_linear_in_the_coefficients():
    t = np.geomspace(0.2, 5.0, 17)
    a = wh.whittaker_X(t, 1.0, 0.0)
    b = wh.whittaker_X(t, 0.0, 1.0)
    c = wh.whittaker_X(t, 2.0, -3.0j)
    assert np.allclose(c, 2.0 * a - 3.0j * b, rtol=1e-13)


def test_fast_branch_is_t_exp_half_t():
    t = np.array([0.5, 1.0, 30.0])
    assert np.allclose(wh.whittaker_X(t, 1.0, 0.0), t * np.exp(t / 2), rtol=1e-13)
    assert np.allclose(wh.whittaker_Y(t, 0.0, 1.0), t * np.exp(-t / 2), rtol=1e-13)


def test_zero_coefficient_branch_is_skipped_at_large_t():
    # past t ~ 1420 the fast branch's e^{t/2} overflows, and past t ~ 709 so
    # does y_integral; a zero coefficient must not turn that into 0 * inf
    t = np.array([10.0, 1500.0])
    x = wh.whittaker_X(t, 0.0, 1.0)
    assert np.all(np.isfinite(x))
    assert x[0] == wh.whittaker_X(10.0, 0.0, 1.0) > 0
    y = wh.whittaker_Y(np.array([1000.0]), 0.0, 1.0)
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


# 40-digit oracles.  x_integral's E2 form has no cancellation below t = 40;
# the exp1 form 1/t - e^t E1(t) loses about t ulps there (1.1e-14 on the
# dense scan of [27, 30]), and the bare forms past their ranges lose far
# more, which the twin tests pin.
X_ORACLE_T = np.concatenate([np.geomspace(1e-4, 1500.0, 400), np.linspace(27.0, 30.0, 100),
                             [1e4]])
X_ORACLE_TOL = 5e-15
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


def _bare_ei_form(t):
    return special.expi(t) - np.euler_gamma - np.log(t) - (np.expm1(t) - t) / t


def test_x_integral_matches_mpmath():
    got = wh.x_integral(X_ORACLE_T)
    assert np.all(np.isfinite(got))
    assert _oracle_error(got, X_ORACLE_T, _I) < X_ORACLE_TOL


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
        wh.whittaker_Y(710.0, 1.0, 0.0)


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
    v = complex(wh.whittaker_Y(np.array([1e-4]), 1.0, 0.0)[0])
    assert abs(v - 1.0) < 2e-3


def test_partial_fourier_round_trip():
    gs = GridSpec(L=4.0, H=2.0, nx=64, ny=16, plane=PlaneKind.UPPER)
    f = tf.sample(tf.gaussian_bump(1.0, 32.0, x0=0.5), gs, "f")
    p = wh.partial_fourier(f)
    back = inverse_partial_fourier(p)
    assert np.max(np.abs(back.data - f.data)) < 1e-12


def test_partial_fourier_records_x_truncation_without_warning():
    gs = GridSpec(L=4.0, H=2.0, nx=64, ny=16, plane=PlaneKind.UPPER)
    X, Y = np.meshgrid(gs.x, gs.y)
    slow = Field(gs, 1.0 / (1.0 + X**2 + Y**2) + 0j)
    edge = np.max(np.abs(slow.data[:, [0, -1]])) / np.max(np.abs(slow.data))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p = wh.partial_fourier(slow)
        res = wh.lemma_a1_classify(slow)
    assert edge > 1e-2
    assert p.meta["x_truncation"] == res.x_truncation == pytest.approx(edge)


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
    h = inverse_partial_fourier(wh.PartialFourierField(spec=spec, xi=xi, data=data))
    return wh.lemma_a1_classify(h)


def test_decaying_mode_is_classified_as_cokernel():
    res = _classify_single_mode(lambda t: t * np.exp(-t / 2))
    assert res.is_cokernel
    assert res.fit_residual < 1e-12
    assert res.pos_energy_frac < 1e-20


def test_slow_mode_is_rejected_by_the_energy_growth_probe():
    res = _classify_single_mode(
        lambda t: np.asarray(wh.whittaker_Y(t, 1.0, 0.0), dtype=complex)
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
    wrong = wh.lemma_a1_classify(member, wrong_branch=True)
    assert wrong.fit_residual > 1e-2


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
    assert list(s) == ["is_cokernel", "pos_energy_frac", "fit_residual", "dyadic_growth",
                       "weight_value", "x_truncation", "thresholds"]
    assert s["x_truncation"] == res.x_truncation and type(s["x_truncation"]) is float
    assert s["thresholds"] == {"pos_tol": 1e-4, "fit_tol": 1e-2, "growth_tol": 1.3}
