import importlib.util
import json
import math
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import fft as sfft

from hypb import verify as vf
from hypb.grid import Field
from hypb.report import CheckReport, reports_to_json, strip_runtime

CHEAP = ["structural-identities", "adjointness", "reflection-equivalence",
         "derivative-identities", "e-identity", "commutators"]


@pytest.fixture(scope="module")
def cheap_reports():
    return vf.run_checks(CHEAP, vf.RunConfig())


def test_known_constants_are_frozen():
    assert vf.HARDY_P2 == 16.0
    assert vf.CUP_NORM_P2 == 4.0
    assert vf.C2 == 4.0


def test_conjectured_constant_for_general_p():
    assert vf.conjectured_bp(4.0) == 3.0
    assert vf.conjectured_bp(4.0 / 3.0) == pytest.approx(3.0)
    assert vf.conjectured_bp(3.0) == 2.0
    # dual exponents share the constant
    for p in (1.3, 1.7, 2.5, 5.0):
        q = p / (p - 1)
        assert vf.conjectured_bp(p) == pytest.approx(vf.conjectured_bp(q))
    with pytest.raises(ValueError):
        vf.conjectured_bp(2.0)  # exact constant lives elsewhere
    with pytest.raises(ValueError):
        vf.conjectured_bp(1.0)


def test_registry_has_the_expected_checks():
    assert set(vf.CHECKS) == {
        "norm-identity", "norm-identity-closed", "two-sided-p", "planar-isometry",
        "derivative-identities", "commutators", "transform-oracles",
        "method-agreement", "structural-identities", "e-identity", "hardy",
        "cup-norm", "minimal-solver", "nullspace", "range-orthogonality",
        "whittaker-ode", "whittaker-classify", "liouville",
        "reflection-equivalence", "adjointness",
    }


def test_unknown_check_raises():
    with pytest.raises(KeyError):
        vf.run_checks("no-such-check")


def test_reports_are_sorted_and_pass(cheap_reports):
    ids = [r.check_id for r in cheap_reports]
    assert ids == sorted(ids)
    assert vf.overall_pass(cheap_reports)


def test_every_cheap_check_carries_a_negative_control(cheap_reports):
    by_prefix = {}
    for r in cheap_reports:
        by_prefix.setdefault(r.check_id.split("/")[0], []).append(r)
    for prefix, reports in by_prefix.items():
        controls = [r for r in reports if r.parameters.get("negative_control")]
        assert controls, f"{prefix} has no negative control"
        assert all(r.passed for r in controls), f"{prefix} control did not trip"
        # a control is marked by its id, and the flag comes first
        assert [r.check_id for r in controls] == [r.check_id for r in reports
                                                  if "/control-" in r.check_id]
        assert all(next(iter(r.parameters)) == "negative_control" for r in controls)


def test_runtime_ms_is_each_reports_own_span():
    t = time.perf_counter()
    reports = vf.CHECKS["transform-oracles"](vf.RunConfig())
    wall_ms = (time.perf_counter() - t) * 1000.0
    spans = [r.runtime_ms for r in reports]
    assert len(spans) == 6
    assert abs(sum(spans) - wall_ms) <= 1.0
    assert max(spans) <= wall_ms


@pytest.mark.parametrize("mode,check_id", [("transform", "norm-identity"),
                                           ("closed", "norm-identity-closed")])
def test_degenerate_input_reports_under_the_live_id(monkeypatch, mode, check_id):
    zeros = lambda spec, *which: [Field(spec, np.zeros((spec.ny, spec.nx), complex))
                                  for _ in which]
    monkeypatch.setattr(vf, "_gaussian_fields", zeros)
    [r] = vf.check_norm_identity_p2(vf.RunConfig(nx=16, ny=16), mode=mode)
    assert r.check_id == check_id
    assert r.parameters == {"degenerate": True} and r.passed
    assert r.to_dict()["notes"]["reason"].startswith("identically zero")


def test_determinism_bit_for_bit_modulo_runtime():
    a = vf.run_checks(["structural-identities", "adjointness"], vf.RunConfig())
    b = vf.run_checks(["structural-identities", "adjointness"], vf.RunConfig())
    ja = json.dumps(strip_runtime([r.to_dict() for r in a]), sort_keys=True)
    jb = json.dumps(strip_runtime([r.to_dict() for r in b]), sort_keys=True)
    assert ja == jb


def test_tolerance_override_is_plumbed_through():
    reports = vf.run_checks(["structural-identities"], vf.RunConfig(tol=1e-20))
    main = [r for r in reports if not r.parameters.get("negative_control")]
    assert all(not r.passed for r in main)  # 1e-16 rounding floor > 1e-20
    assert not vf.overall_pass(reports)


def test_degenerate_reports_are_excluded_from_the_verdict():
    live_fail = CheckReport(
        check_id="x", parameters={}, lhs=1.0, rhs=1.0, ratio=1.0,
        tolerance=1.0, passed=False, grid={}, method="m", runtime_ms=0.0,
    )
    degen = CheckReport(
        check_id="y", parameters={"degenerate": True}, lhs=0.0, rhs=0.0,
        ratio=1.0, tolerance=math.inf, passed=True, grid={}, method="m",
        runtime_ms=0.0,
    )
    assert vf.overall_pass([degen])
    assert not vf.overall_pass([degen, live_fail])


def test_report_serialization_round_trip(cheap_reports):
    r = cheap_reports[0]
    d = r.to_dict()
    assert d["pass"] == r.passed
    assert "notes" not in d  # the cheap checks carry no notes
    assert "[PASS]" in r.line() or "[FAIL]" in r.line()
    text = reports_to_json(cheap_reports)
    parsed = json.loads(text)
    assert [p["check_id"] for p in parsed] == [r.check_id for r in cheap_reports]


def test_strip_runtime_is_recursive():
    data = {"runtime_ms": 1.0, "inner": [{"runtime_ms": 2.0, "keep": 3}]}
    out = strip_runtime(data)
    assert out == {"inner": [{"keep": 3}]}


def test_convergence_sweep_passes_for_the_sweepable_checks(cheap_reports):
    rep = vf.convergence_sweep("derivative-identities")
    assert rep.passed
    assert rep.tolerance == 1.8
    assert rep.parameters["monotone"]
    assert len(rep.parameters["errors"]) == 3
    # the sweep and the check share one residual: bit-identical at the battery grid
    [dbar] = [r for r in cheap_reports if r.check_id == "derivative-identities/dbar"]
    assert rep.parameters["errors"][-1] == dbar.lhs


def test_convergence_sweep_rejects_unswept_checks():
    with pytest.raises(KeyError):
        vf.convergence_sweep("method-agreement")
    with pytest.raises(KeyError):
        vf.convergence_sweep("norm-identity")


def test_convergence_sweep_fails_on_nonmonotone_error(monkeypatch):
    seq = {32: 1e-2, 64: 1e-3, 128: 5e-3}
    monkeypatch.setitem(vf.SWEEPS, "fake", (lambda cfg, n: seq[n], 1.0))
    rep = vf.convergence_sweep("fake", grids=(32, 64, 128))
    assert not rep.passed
    assert not rep.parameters["monotone"]


@pytest.mark.parametrize("grids", [(64,), ()])
def test_convergence_sweep_refuses_fewer_than_two_grids(monkeypatch, grids):
    calls = []
    monkeypatch.setitem(vf.SWEEPS, "fake", (lambda cfg, n: calls.append(n) or 1e-3, 1.0))
    with pytest.raises(ValueError, match="at least two grids"):
        vf.convergence_sweep("fake", grids=grids)
    assert calls == []


def test_sweep_script_exits_2_on_a_single_grid(capsys):
    path = Path(__file__).resolve().parents[1] / "scripts" / "sweep_convergence.py"
    spec = importlib.util.spec_from_file_location("sweep_convergence", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main(["--grids", "64"]) == 2
    assert "at least two grids" in capsys.readouterr().err


def test_battery_spec_and_tolerance_defaults():
    cfg = vf.RunConfig()
    gs = cfg.battery_spec()
    assert (gs.nx, gs.ny, gs.L, gs.H) == (256, 256, 2.8, 5.6)
    assert gs.hx == gs.hy  # the singular quadrature needs square cells
    assert cfg.tolerance(1e-4) == 1e-4
    assert vf.RunConfig(tol=1e-2).tolerance(1e-4) == 1e-2


def test_run_checks_sets_the_fft_worker_count(monkeypatch):
    seen = []
    monkeypatch.setitem(vf.CHECKS, "fake", lambda cfg: seen.append(sfft.get_workers()) or [])
    vf.run_checks("fake", vf.RunConfig())
    vf.run_checks("fake", vf.RunConfig(threads=2))
    assert seen == [1, 2]


def test_classify_check_records_x_truncation_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reports = vf.run_checks("whittaker-classify", vf.RunConfig())
    by = {r.check_id: r for r in reports}
    ratio = by["whittaker-classify/member-accepted"].notes["x_truncation"]
    assert ratio == pytest.approx(3.84e-3, rel=1e-2)
    assert by["whittaker-classify/control-gaussian"].notes["x_truncation"] < 1e-8
    assert all("x_truncation" in r.notes for r in reports)
    assert all(r.to_dict()["notes"] == r.notes for r in reports)
