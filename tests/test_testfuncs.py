import math
import re

import numpy as np
import pytest
from scipy.special import gamma

from hypb import testfuncs as tf
from hypb.calculus import d, d_bar
from hypb.grid import GridSpec, PlaneKind, lp_norm


def upper(n=64, L=2.8, H=5.6):
    return GridSpec(L=L, H=H, nx=n, ny=n, plane=PlaneKind.UPPER)


def gaussian_support(fn):
    """Centre and radius of the disc outside which the gaussian's L2 mass
    fraction is below 1e-12 (exp(-sigma r^2) with sigma r^2 = 28)."""
    p = fn.params
    return p.get("x0", 0.0) + 1j * p["c"], math.sqrt(28.0 / p["sigma"])


def conj_rational_l2_norm(a: float = 1.0, k: int = 2) -> float:
    """Closed-form || (conj z - ia)^(-k) ||_{L^2(C+)} under dA = dx dy / pi.

    Inner x-integral: int (x^2 + b^2)^(-k) dx = b^(1-2k) sqrt(pi) G(k-1/2)/G(k),
    then int_0^inf (y+a)^(1-2k) dy = a^(2-2k)/(2k-2).
    """
    g = math.gamma
    sq = g(k - 0.5) / (math.sqrt(math.pi) * g(k)) * a ** (2 - 2 * k) / (2 * k - 2)
    return math.sqrt(sq)


def audit_gaussian(fn, seed: int = 0, npts: int = 100) -> dict:
    """Finite-difference audit of the gaussian's lap = d(dbar .) and d2 = d(d .).

    Points are drawn inside 0.7 of the support radius, at least 0.05 above
    the axis; the central-difference step is 3e-5 of the width 1/sqrt(sigma).
    Errors are scaled by the largest sampled magnitude of the target field,
    so flat regions do not blow up the quotient.
    """
    rng = np.random.default_rng(seed)
    center, radius = gaussian_support(fn)
    r = radius * 0.7 * np.sqrt(rng.uniform(0.01, 1.0, npts))
    th = rng.uniform(0, 2 * np.pi, npts)
    z = center + r * np.cos(th) + 1j * r * np.sin(th)
    z = np.where(z.imag <= 0.05, z.real + 0.05j, z)
    h = 3e-5 / math.sqrt(fn.params["sigma"])

    def d_of(ev, zp):
        fx = (ev(zp + h) - ev(zp - h)) / (2 * h)
        fy = (ev(zp + 1j * h) - ev(zp - 1j * h)) / (2 * h)
        return 0.5 * (fx - 1j * fy)

    lap_fd = d_of(fn.dbar, z)
    d2_fd = d_of(fn.d, z)
    lap_cf = fn.lap(z)
    d2_cf = fn.d2(z)
    s_lap = max(np.max(np.abs(lap_cf)), 1e-300)
    s_d2 = max(np.max(np.abs(d2_cf)), np.max(np.abs(d2_fd)), 1e-300)
    return {
        "lap_err": float(np.max(np.abs(lap_fd - lap_cf)) / s_lap),
        "d2_err": float(np.max(np.abs(d2_fd - d2_cf)) / s_d2),
    }


def boundary_mass_fraction(fn, spec: GridSpec) -> float:
    """L2 mass fraction of the gaussian sitting outside its support radius."""
    center, radius = gaussian_support(fn)
    zz = spec.zz()
    vals = np.abs(fn.f(zz)) ** 2
    outside = np.abs(zz - center) > radius
    return math.sqrt(float(np.sum(vals[outside])) / float(np.sum(vals)))


def test_gaussian_closed_forms_agree_with_finite_differences():
    audit = audit_gaussian(tf.gaussian_bump(2.0, 4.0), seed=1)
    assert audit["lap_err"] < 1e-6
    assert audit["d2_err"] < 1e-6


# the fourth-order stencils' error in the audits of a defining property
# below, by grid, with a margin of 4 or more over each member's figure
AUDIT_BAR = {64: 5e-4, 128: 1e-5}


def _interior_max(field, rows=slice(None)) -> float:
    """Max modulus on the given rows, less four cells at each edge: the
    stencils are one-sided within two."""
    return float(np.max(np.abs(field.data[rows][4:-4, 4:-4])))


@pytest.mark.parametrize("n", [64, 128])
@pytest.mark.parametrize("selector", ["conjrat:a=1,k=2", "conjrat:a=1,k=3",
                                      "holorat:a=1,k=2", "holorat:a=1,k=3"])
def test_rational_members_are_antiholomorphic_and_holomorphic(selector, n):
    # d F over dbar F for conjrat, and dbar F over d F for holorat: 4.9e-6 at
    # 64^2 and 1.9e-7 at 128^2 for k = 2.  Twins: the other quotient (2.0e5)
    # and the gaussian (1)
    gs = upper(n)
    F = tf.sample(tf.parse_testfn(selector), gs)
    dF, dbF = _interior_max(d(F)), _interior_max(d_bar(F))
    small, large = (dF, dbF) if selector.startswith("conjrat") else (dbF, dF)
    assert small / large <= AUDIT_BAR[n]
    assert large / small > 1.0
    G = tf.sample(tf.gaussian_bump(2.0, 4.0), gs)
    assert _interior_max(d(G)) / _interior_max(d_bar(G)) > 0.5


def test_conj_rational_grid_norm_approaches_the_closed_form():
    # tail decays like |z|^-2; enlarge the box at fixed cell size
    exact = conj_rational_l2_norm(1.0, 2)
    errs = []
    for L, n in ((8.0, 256), (16.0, 512), (32.0, 1024)):
        gs = GridSpec(L=L, H=2 * L, nx=n, ny=2 * n, plane=PlaneKind.UPPER)
        f = tf.sample(tf.conj_rational(1.0, 2), gs, "f")
        errs.append(abs(lp_norm(f, 2.0) - exact) / exact)
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-3


def test_conj_rational_l2_norm_value():
    assert conj_rational_l2_norm(1.0, 2) == pytest.approx(0.5, rel=1e-12)
    k, a = 3, 0.5
    expected2 = np.sqrt(np.pi) * gamma(k - 0.5) / gamma(k) * a ** (2 - 2 * k) / (2 * k - 2) / np.pi
    assert conj_rational_l2_norm(a, k) == pytest.approx(np.sqrt(expected2), rel=1e-12)


def test_gaussian_must_sit_clear_of_the_axis():
    with pytest.raises(ValueError):
        tf.gaussian_bump(c=0.0)
    with pytest.raises(ValueError):
        tf.gaussian_bump(c=1.0, sigma=1.0)  # c*sqrt(sigma) = 1 < 4


def test_gaussian_boundary_mass_is_negligible_on_the_battery_box():
    gs = upper(64)
    assert boundary_mass_fraction(tf.gaussian_bump(2.0, 4.0), gs) < 1e-12


def test_hardy_family_profile_support_and_scale():
    fam = tf.hardy_family(0.5, 8, ramp=1.8)
    p = fam.profile
    assert p.knots[-1] == 1.0
    assert p.knots[0] == pytest.approx(8.0 ** -(1 + 2 * 1.8))
    y = np.array([p.knots[0] * 0.5, 0.01, 1.5])
    vals = p.f(y)
    assert vals[0] == 0.0 and vals[2] == 0.0 and vals[1] > 0.0
    # plateau region matches the pure power y^a
    mid = np.array([0.005, 0.01, 0.02])
    assert np.allclose(p.f(mid), np.sqrt(mid), rtol=1e-12)


def test_hardy_family_derivatives_match_profile():
    p = tf.hardy_family(0.5, 8).profile
    y = np.geomspace(2 * p.knots[0], 0.9, 200)
    h = 1e-6 * y
    fd1 = (p.f(y + h) - p.f(y - h)) / (2 * h)
    assert np.max(np.abs(fd1 - p.d1(y)) / (np.abs(p.d1(y)) + 1.0)) < 1e-4


@pytest.mark.parametrize("which", ["d", "dbar", "lap", "d2"])
@pytest.mark.parametrize("member", ["hardy", "conjrat", "holorat", "imz", "rez", "poisson"])
def test_sample_refuses_a_closed_form_the_member_lacks(member, which):
    # the gaussian alone carries derivative forms; the Hardy family carries F
    # and its y-profile, the others F.  Twin: the gaussian samples each form
    fn = tf.parse_testfn(member)
    assert tf.sample(fn, upper(16), "f").data.shape == (16, 16)
    with pytest.raises(ValueError, match=re.escape(fn.describe()) + rf" .*'{which}'"):
        tf.sample(fn, upper(16), which)
    assert tf.sample(tf.gaussian_bump(), upper(16), which).data.shape == (16, 16)


@pytest.mark.parametrize("n", [64, 128])
def test_harmonic_samples_have_zero_laplacian(n):
    # lap F = d(dbar F) over dbar F on the rows Im z >= 1, clear of the
    # poisson member's pole at 0: 1.4e-13 (imz, rez) and 1.2e-4 (poisson) at
    # 64^2, 1.8e-6 (poisson) at 128^2.  Twin: the gaussian, 4.5
    gs = upper(n)
    rows = gs.y >= 1.0

    def ratio(fn):
        dbF = d_bar(tf.sample(fn, gs))
        return _interior_max(d(dbF), rows) / _interior_max(dbF, rows)

    for name, fn in tf.harmonic_samples().items():
        assert ratio(fn) <= AUDIT_BAR[n], name
    assert ratio(tf.gaussian_bump(2.0, 4.0)) > 1.0


def test_poisson_member_profile():
    # Im z / |z|^2 restricted to a horizontal line integrates to pi/y in
    # squared modulus; spot-check the integrand shape instead of the integral
    pois = tf.harmonic_samples()["poisson"]
    z = np.complex128(0.3 + 0.7j)
    assert complex(pois.f(z)) == pytest.approx(0.7 / abs(z) ** 2)


def test_parse_testfn_round_trip_and_errors():
    fn = tf.parse_testfn("gaussian:c=2,sigma=4")
    assert fn.name == "gaussian" and fn.params == {"c": 2.0, "sigma": 4.0}
    assert tf.parse_testfn("conjrat:a=1,k=3").params["k"] == 3
    assert tf.parse_testfn("poisson").name == "poisson"
    with pytest.raises(ValueError):
        tf.parse_testfn("nosuch:a=1")
    with pytest.raises(ValueError):
        tf.parse_testfn("gaussian:bogus=1")
    with pytest.raises(ValueError):
        tf.parse_testfn("gaussian:c")
