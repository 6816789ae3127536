"""Tests of the benchmark itself: small runs of each workload, and the checks.

    python3 -m pytest -q bench/test_bench.py

The small runs use the reduced operation lists (`--scale small`); the unit
tests feed the output checks made-up outputs, correct and corrupted.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _run(workload, trace=0, seed=3):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--scale", "small"],
        capture_output=True, text=True, timeout=170, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


# the one operation that fails in every pass: the d_up quadrature call
EXPECTED_FAILED = {"battery": 0, "transform": 1, "whittaker": 0}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_small_run_checks_every_output(workload):
    res = _run(workload)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True  # every negative control was rejected
    assert res["attempted"] >= 1
    assert res["failed"] == EXPECTED_FAILED[workload]
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == names
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_traced_run_reports_every_layer_metric():
    res = _run("transform", trace=1)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == names
    m = {k: v["value"] for k, v in res["metrics"].items()}
    assert m["kernels.table_calls"] > 0 and m["transforms.conv_calls"] > 0
    assert m["cli.rows_written"] > 0 and m["whittaker.classify_calls"] == 0


def test_no_program_no_result(tmp_path):
    for f in ("run.py", "worker.py", "workloads.py", "checks.py", "tracer.py"):
        (tmp_path / "bench").mkdir(exist_ok=True)
        (tmp_path / "bench" / f).write_text((HERE / f).read_text())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "battery", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""


def _work(ops):
    """What a pass computes, up to the seeded inputs; ops of one cost class are alike."""
    cost = {op: "conv" for op in workloads.CONV_OPS} | {op: "mult" for op in workloads.MULT_OPS}
    return sorted((o.kind, cost.get(o.params.get("op"), o.params.get("op")),
                   o.params.get("nx"), o.params.get("ny"), o.params.get("method"),
                   o.params.get("points"), o.out is None) for o in ops)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_follow_the_seed_and_the_work_does_not(workload):
    a = workloads.build(workload, 1, "d")
    assert [o.argv for o in a] == [o.argv for o in workloads.build(workload, 1, "d")]
    b = workloads.build(workload, 2, "d")
    assert _work(a) == _work(b)
    if workload != "battery":
        assert [o.argv for o in a] != [o.argv for o in b]


def test_no_two_transform_calls_share_a_grid():
    grids = [(o.params["nx"], o.params["ny"]) for o in workloads.build("transform", 1, "d")]
    assert len(set(grids)) == len(grids)


# ---------------------------------------------------------------------------
# the references


def test_direct_sums_match_the_fft_reference():
    for op in checks.OP_NAMES:
        planar = op in ("c", "b")
        L, H, nx, ny = 2.7, 5.9, 24, 20
        p = {"op": op, "nx": nx, "ny": ny, "L": L, "H": H,
             "member": {"c": 2.0, "sigma": 4.4, "x0": 0.3}}
        ref = checks.reference_field(p)
        x, y, hx, hy = checks.cell_centres(L, H, nx, ny, planar)
        zz = x[None, :] + 1j * y[:, None]
        f = checks.member_values(p["member"], zz)
        for i, j in ((0, 0), (7, 11), (ny - 1, nx - 1)):
            d = checks.direct_sum(op, f, zz, i, j, hx * hy / math.pi)
            assert abs(d - ref[i, j]) <= 1e-12 * np.max(np.abs(ref)), op


def test_branch_closed_forms_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    for t in (0.05, 0.7, 3.0, 17.0, 40.0):
        xa, xb = checks.branch_parts("X", np.array([t]))
        ya, yb = checks.branch_parts("Y", np.array([t]))
        I = mpmath.quad(lambda s: mpmath.exp(-t * s) * s / (1 + s), [0, 1, mpmath.inf])
        J = mpmath.quad(lambda s: (mpmath.expm1(s) - s) / s**2, [0, t])
        want = {
            "xa": t * mpmath.exp(t / 2), "xb": t * mpmath.exp(-t / 2) * I,
            "ya": mpmath.exp(-t / 2) * (1 - t * mpmath.log(t) - t * J),
            "yb": t * mpmath.exp(-t / 2),
        }
        for name, got in (("xa", xa), ("xb", xb), ("ya", ya), ("yb", yb)):
            assert abs(float(got[0]) - float(want[name])) <= 1e-12 * abs(float(want[name]))


def test_multiplier_closed_form_at_a1_k2_is_minus_pi_exp():
    xi = np.linspace(-2.5, -0.25, 7)
    assert np.allclose(checks.multiplier(xi, 1.0, 2), -math.pi * np.exp(xi), rtol=1e-15)


# ---------------------------------------------------------------------------
# checks on made-up outputs, and their negative controls


def _tabulate_output(op):
    p = op.params
    t = np.geomspace(*p["range"], p["points"])
    pa, pb = checks.branch_parts(p["family"], t)
    v = complex(*p["A"]) * pa + complex(*p["B"]) * pb
    table = np.column_stack([t, v.real, v.imag, np.full(t.size, 1e-9)])
    return {"rc": 0, "error": None, "json": None, "header": "t,re,im,residual",
            "table": table}


def test_tabulate_check_and_controls():
    op = next(o for o in workloads.build("whittaker", 4, "d") if o.kind == "tabulate" and o.out)
    out = _tabulate_output(op)
    assert checks.check_tabulate(op, out, {}) == []
    controls = checks.run_controls(op, out, {})
    assert controls and all(rejected for _, rejected in controls)


def test_classify_check_and_controls():
    op = next(o for o in workloads.build("whittaker", 4, "d")
              if o.kind == "classify" and o.params["expect_cokernel"])
    xi = checks.classify_xi()
    b2 = checks.multiplier(xi, op.params["member"]["a"], op.params["member"]["k"])
    out = {"rc": 0, "error": None, "header": "xi,re,im",
           "table": np.column_stack([xi, b2.real, b2.imag]),
           "json": {"is_cokernel": True, "pos_energy_frac": 1e-5, "fit_residual": 1e-3,
                    "dyadic_growth": 1.1, "weight_value": 1.0, "testfn": op.params["testfn"],
                    "premultiply_M": True,
                    "thresholds": {"pos_tol": 1e-4, "fit_tol": 1e-2, "growth_tol": 1.3}}}
    assert checks.check_classify(op, out, {}) == []
    names = [n for n, rejected in checks.run_controls(op, out, {}) if rejected]
    assert names == ["verdict-flipped", "xi-window-shifted", "multiplier-1%-off"]


def _battery_output():
    reports = []
    for cid, lhs, rhs in (("cup-norm/battery-F", 0.66, 4.0), ("cup-norm/battery-dbarF", 0.36, 4.0),
                          ("cup-norm/tuned-member", 3.2, 3.0),
                          ("minimal-solver/bound-F", 0.71, 4.0),
                          ("minimal-solver/bound-dbarF", 0.44, 4.0)):
        reports.append({"check_id": cid, "parameters": {}, "lhs": lhs, "rhs": rhs,
                        "ratio": lhs / rhs, "tolerance": 1e-3, "pass": True})
    for head in ("cup-norm", "minimal-solver"):
        reports.append({"check_id": f"{head}/control", "parameters": {"negative_control": True},
                        "lhs": 1.0, "rhs": 2.0, "ratio": 0.5, "tolerance": 1e-3, "pass": True})
    return {"rc": 0, "error": None, "json": reports, "header": None, "table": None}


def test_battery_check_and_controls():
    op = workloads.Op(["verify", "all", "--json"], "battery", {"check": "all"})
    cache = {"check_ids": ["cup-norm", "minimal-solver"]}
    out = _battery_output()
    assert checks.check_battery(op, out, cache) == []
    controls = checks.run_controls(op, out, cache)
    assert len(controls) == len(checks.CONTROLS["battery"])
    assert all(rejected for _, rejected in controls)


def test_transform_check_and_controls_on_the_midpoint_field():
    op = next(o for o in workloads.build("transform", 4, "d", scale="small") if o.out)
    p = op.params
    ref = checks.reference_field(p)
    x, y, _, _ = checks.cell_centres(p["L"], p["H"], p["nx"], p["ny"], p["op"] in ("c", "b"))
    X, Y = np.meshgrid(x, y)
    table = np.column_stack([X.ravel(), Y.ravel(), ref.real.ravel(), ref.imag.ravel()])
    out = {"rc": 0, "error": None, "json": None, "header": "x,y,re,im", "table": table}
    assert checks.check_transform(op, out, {}) == []
    controls = checks.run_controls(op, out, {})
    assert len(controls) == 3 and all(rejected for _, rejected in controls)
    out["rc"] = 1
    assert checks.check_transform(op, out, {})  # a non-zero exit fails the operation


# ---------------------------------------------------------------------------
# the tracer


def test_tracer_wraps_names_where_callers_look_them_up():
    sys.path.insert(0, str(ROOT / "src"))
    import hypb.cli  # noqa: F401

    mods = {n: sys.modules[f"hypb.{n}"] for n in ("transforms", "verify", "cli", "grid")}
    t = tracer.Tracer()
    tracer.install(t)
    try:
        for mod, name in ((mods["transforms"], "planar_table"), (mods["transforms"], "avg_inv"),
                          (mods["verify"], "lp_norm"), (mods["verify"], "d_bar"),
                          (mods["cli"], "lp_norm"), (mods["grid"], "lp_norm")):
            assert getattr(getattr(mod, name), "__bench_traced__", False), (mod, name)
        assert all(getattr(f, "__bench_traced__", False)
                   for f in mods["verify"].CHECKS.values())
        mods["cli"].main(["whittaker", "tabulate", "--family", "Y", "--points", "20",
                          "--json"])
        m = tracer.metrics(t.spans, sorted(mods["verify"].CHECKS))
        assert m["whittaker.branch_points"][0] == 5 * 20  # the value and four stencil shifts
        assert all(sp[3] < i for i, sp in enumerate(t.spans))  # parents come first
    finally:
        for n in ("transforms", "verify", "cli", "grid"):
            sys.modules.pop(f"hypb.{n}", None)
        for n in [k for k in sys.modules if k.startswith("hypb")]:
            sys.modules.pop(n)
