"""End-to-end certification battery.

One test per acceptance criterion, each at its stated tolerance and wall
clock budget, each printing a single [PASS]/[FAIL] line (run with -s to see
the lines for passing tests too).  Grids, members, and tolerances are pinned
inside the checks themselves; nothing here retunes a knob.
"""

import json
import time

import numpy as np

from hypb import testfuncs as tf
from hypb import verify as vf
from hypb.calculus import d
from hypb.grid import Field, GridSpec, PlaneKind


def _verdict(num: int, desc: str, ok: bool, detail: str = ""):
    mark = "PASS" if ok else "FAIL"
    extra = f" ({detail})" if detail else ""
    print(f"\n[{mark}] criterion {num:02d}: {desc}{extra}")
    assert ok, f"criterion {num:02d}: {desc}{extra}"


def _by_id(reports):
    return {r.check_id: r for r in reports}


def _controls_ok(reports):
    ctl = [r for r in reports if r.parameters.get("negative_control")]
    return bool(ctl) and all(r.passed for r in ctl)


def test_criterion_01_norm_identity_at_p2():
    t0 = time.perf_counter()
    reports = vf.run_checks(["norm-identity", "norm-identity-closed"], vf.RunConfig())
    dt = time.perf_counter() - t0
    by = _by_id(reports)
    closed = by["norm-identity-closed"]
    trans = by["norm-identity"]
    ok = (
        abs(closed.ratio - 1.0) <= 1e-4
        and abs(trans.ratio - 1.0) <= 1e-3
        and _controls_ok(reports)
        and dt <= 5.0
    )
    _verdict(1, "norm identity at p=2, closed 1e-4 / transform 1e-3, <=5s", ok,
             f"closed {closed.ratio - 1.0:+.2e}, transform {trans.ratio - 1.0:+.2e}, {dt:.1f}s")


def test_criterion_02_planar_isometry():
    t0 = time.perf_counter()
    reports = vf.run_checks("planar-isometry", vf.RunConfig())
    dt = time.perf_counter() - t0
    by = _by_id(reports)
    worst = by["planar-isometry"].lhs - 1.0
    ok = worst <= 1e-6 and _controls_ok(reports) and dt <= 2.0
    _verdict(2, "whole-plane isometry on 10 band-limited fields, 1e-6, <=2s", ok,
             f"worst deviation {worst:.2e}, {dt:.1f}s")


def test_criterion_03_derivative_identities_and_commutators():
    reports = vf.run_checks(["derivative-identities", "commutators"], vf.RunConfig())
    by = _by_id(reports)
    idents = all(by[f"derivative-identities/{k}"].lhs <= 1e-4 for k in ("d", "dbar"))
    orders = [by[f"commutators/n={n}"].lhs for n in (-2, -1, 1, 2)]
    comm = all(o >= 3.5 for o in orders)
    # the dbar residual's order on 64, 128, 256; the wrong potential's does not fall
    h_order = by["derivative-identities/h-order"]
    wrong = by["derivative-identities/control-order-wrong-potential"].lhs
    rate = h_order.passed and h_order.lhs >= 3.5 > wrong
    # n = 0: multiplying by y^0 changes nothing, so the commutator is exact zero
    spec = GridSpec(L=2.8, H=5.6, nx=64, ny=64, plane=PlaneKind.UPPER)
    F = tf.sample(tf.gaussian_bump(c=2.8, sigma=8.0), spec, "f")
    one = spec.y.reshape(-1, 1) ** 0
    zero = d(Field(spec, one * F.data)).data - one * d(F).data
    n0 = float(np.max(np.abs(zero))) == 0.0
    ok = idents and rate and comm and n0 and _controls_ok(reports)
    _verdict(3, "derivative identities 1e-4 and their and the commutators' orders >= 3.5", ok,
             f"ident d/dbar <= {max(by['derivative-identities/d'].lhs, by['derivative-identities/dbar'].lhs):.1e}, "
             f"dbar order {h_order.lhs:.2f}, min commutator order {min(orders):.2f}, "
             f"n=0 exact {n0}")


def test_criterion_04_transform_oracles_and_method_agreement():
    t0 = time.perf_counter()
    reports = vf.run_checks(["transform-oracles", "method-agreement"], vf.RunConfig())
    dt = time.perf_counter() - t0
    by = _by_id(reports)
    oracle_ids = ["transform-oracles/c_down", "transform-oracles/conj-c_down",
                  "transform-oracles/b_down", "transform-oracles/c_up",
                  "transform-oracles/b-planar-closed-form"]
    agree_ids = ["method-agreement/c_down", "method-agreement/c_up",
                 "method-agreement/b_down"]
    errs = [by[i].lhs for i in oracle_ids + agree_ids]
    ok = all(e <= 1e-3 for e in errs) and _controls_ok(reports) and dt <= 180.0
    _verdict(4, "transform oracles and fft/quadrature agreement, 1e-3, <=3min", ok,
             f"max err {max(errs):.2e}, {dt:.0f}s")


def test_criterion_05_structural_identities_matched():
    t0 = time.perf_counter()
    reports = vf.run_checks(["structural-identities", "e-identity"], vf.RunConfig())
    dt = time.perf_counter() - t0
    by = _by_id(reports)
    ids = ["structural-identities/up-factorization",
           "structural-identities/down-factorization",
           "structural-identities/solver-factorization",
           "e-identity/matched"]
    errs = [by[i].lhs for i in ids]
    ok = all(e <= 1e-10 for e in errs) and _controls_ok(reports) and dt <= 60.0
    _verdict(5, "kernel factorizations and real-kernel identity, 1e-10 matched", ok,
             f"max err {max(errs):.2e}, {dt:.0f}s")


def test_criterion_06_sharp_constants():
    reports = vf.run_checks(["hardy", "cup-norm", "minimal-solver"], vf.RunConfig())
    by = _by_id(reports)
    slack = 1.0 + 1e-3
    hardy_hi = by["hardy/battery-gaussian"].lhs <= 16.0 * slack
    hardy_lo = 12.0 <= by["hardy/family-n=64"].lhs <= 16.0 * slack
    cup_hi = all(by[f"cup-norm/battery-{n}"].lhs <= 4.0 * slack for n in ("F", "dbarF"))
    cup_lo = by["cup-norm/tuned-member"].lhs >= 3.0
    solver = all(by[f"minimal-solver/bound-{n}"].lhs <= 4.0 * slack
                 for n in ("F", "dbarF"))
    resid = by["minimal-solver/residual"].lhs <= 1e-2
    ok = (hardy_hi and hardy_lo and cup_hi and cup_lo and solver and resid
          and _controls_ok(reports))
    _verdict(6, "Hardy <=16 with family >=12; upward norm <=4 with tuned >=3; "
                "solver bound <=4", ok,
             f"hardy {by['hardy/battery-gaussian'].lhs:.2f}/{by['hardy/family-n=64'].lhs:.2f}, "
             f"cup {by['cup-norm/tuned-member'].lhs:.3f}, "
             f"solver {max(by['minimal-solver/bound-F'].lhs, by['minimal-solver/bound-dbarF'].lhs):.3f}")


def test_criterion_07_nullspace_and_range():
    reports = vf.run_checks(["nullspace", "range-orthogonality"], vf.RunConfig())
    by = _by_id(reports)
    member = by["nullspace/conjugate-member"].lhs
    holo = by["nullspace/control-holomorphic"].lhs
    witness = by["range-orthogonality/conjugate-witness"].lhs
    ok = (member <= 1e-2 and holo >= 1e-1 and witness <= 1e-3
          and _controls_ok(reports))
    _verdict(7, "nullspace residual 1e-2 with holomorphic control, "
                "range orthogonality 1e-3", ok,
             f"member {member:.2e}, control {holo:.2e}, witness {witness:.2e}")


def test_criterion_08_whittaker_branches_and_classification():
    reports = vf.run_checks(["whittaker-ode", "whittaker-classify"], vf.RunConfig())
    by = _by_id(reports)
    branch_ids = [f"whittaker-ode/{n}" for n in ("X-fast", "X-slow", "Y-slow", "Y-fast")]
    branches = all(by[i].lhs <= 1e-6 for i in branch_ids)
    accepted = by["whittaker-classify/member-accepted"].passed
    multiplier = by["whittaker-classify/boundary-multiplier"].lhs <= 1e-3
    wrong = by["whittaker-classify/control-wrong-branch"].lhs >= 1e-2
    ok = branches and accepted and multiplier and wrong and _controls_ok(reports)
    _verdict(8, "ODE branches 1e-6; boundary multiplier -pi e^xi within 1e-3", ok,
             f"branch max {max(by[i].lhs for i in branch_ids):.1e}, "
             f"multiplier err {by['whittaker-classify/boundary-multiplier'].lhs:.2e}")


def test_criterion_09_strip_profiles():
    reports = vf.run_checks("liouville", vf.RunConfig())
    by = _by_id(reports)
    profile = by["liouville/kernel-profile"].lhs <= 1e-3
    convex = by["liouville/log-convexity"].passed
    growth = by["liouville/divergence-growth"].lhs >= 3.5
    ok = profile and convex and growth and _controls_ok(reports)
    _verdict(9, "strip profile pi/(2y) within 1e-3, log-convex, dyadic growth >= 3.5",
             ok, f"profile err {by['liouville/kernel-profile'].lhs:.2e}, "
                 f"growth {by['liouville/divergence-growth'].lhs:.3f}")


def test_criterion_10_two_sided_p():
    reports = vf.run_checks("two-sided-p", vf.RunConfig())
    by = _by_id(reports)
    slack = 1.0 + 1e-3
    ok = True
    ratios = {}
    for p in (4.0 / 3.0, 4.0):
        r = by[f"two-sided-p/p={p:g}"]
        ratios[p] = r.lhs
        ok = ok and (1.0 / 3.0) / slack <= r.lhs <= 3.0 * slack
        ok = ok and r.parameters.get("label") == "consistency"
    ok = ok and _controls_ok(reports)
    _verdict(10, "p in {4/3, 4} ratio inside [1/3, 3] with consistency label", ok,
             f"ratios {ratios[4.0 / 3.0]:.3f}, {ratios[4.0]:.3f}")


def test_criterion_11_full_battery_deterministic(strip_runtime):
    t0 = time.perf_counter()
    first = vf.run_checks("all", vf.RunConfig())
    dt = time.perf_counter() - t0
    second = vf.run_checks("all", vf.RunConfig())
    ja = json.dumps(strip_runtime([r.to_dict() for r in first]), sort_keys=True)
    jb = json.dumps(strip_runtime([r.to_dict() for r in second]), sort_keys=True)
    prefixes = {r.check_id.split("/")[0] for r in first}
    covered = set(vf.CHECKS) <= prefixes
    ok = (all(r.passed for r in first + second)
          and ja == jb and covered and dt <= 60.0)
    _verdict(11, "full battery passes, <=60s, bit-identical across two runs",
             ok, f"{dt:.0f}s, {len(first)} reports, identical={ja == jb}")
