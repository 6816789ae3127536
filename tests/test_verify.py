import collections
import hashlib
import importlib.util
import inspect
import json
import math
import re
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from hypb import testfuncs as tf
from hypb import transforms as tr
from hypb import verify as vf
from hypb import whittaker as wh
from hypb.report import reports_to_json

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


def test_an_unknown_name_is_refused_before_any_check_runs(monkeypatch):
    # hardy ran in full, about 0.2 s, before the unknown name behind it raised
    ran = []
    monkeypatch.setitem(vf.CHECKS, "hardy", lambda cfg, rec: ran.append(rec.prefix))
    with pytest.raises(KeyError, match="no-such-check"):
        vf.run_checks(["hardy", "no-such-check"], vf.RunConfig())
    assert ran == []
    # twin: alone, the spy runs, on a recorder named by its registry key
    assert vf.run_checks(["hardy"], vf.RunConfig()) == [] and ran == ["hardy"]


def test_reports_are_sorted_and_pass(cheap_reports):
    ids = [r.check_id for r in cheap_reports]
    assert ids == sorted(ids)
    assert all(r.passed for r in cheap_reports)


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


def _recorded(verdict: str, *args, **kw):
    """The one report that a fresh recorder writes through `verdict`."""
    rec = vf._Recorder("demo")
    getattr(rec, verdict)(*args, **kw)
    [report] = rec.reports
    return report


def test_a_control_passes_exactly_when_its_comparison_fails():
    # call sites once inverted each control's comparison by hand, so an
    # at_most control whose value cleared its bar failed
    assert _recorded("at_most", "control-x", 2.0, 1.0).passed
    assert not _recorded("at_most", "control-x", 0.5, 1.0).passed
    assert not _recorded("at_least", "control-x", 2.0, 1.0).passed
    # a claim's comparison is its verdict
    assert _recorded("at_most", "x", 0.5, 1.0).passed
    assert not _recorded("at_most", "x", 2.0, 1.0).passed
    assert _recorded("at_least", "x/y", 2.0, 1.0).passed
    # record states the comparison as the claim does: a control whose comparison holds fails
    assert not _recorded("record", "control-x", 1.0, 1.0, 1e-3, True).passed
    assert _recorded("record", "control-x", 1.0, 1.0, 1e-3, False).passed
    # only a "/control-" id is negated, and it alone carries the flag, first
    assert _recorded("at_most", "controlled", 0.5, 1.0).parameters == {}
    ctl = _recorded("at_most", "control-x", 2.0, 1.0, n=2)
    assert list(ctl.parameters.items()) == [("negative_control", True), ("n", 2)]
    # a value that is not a number passes neither as a claim nor as a control
    for name in ("x", "control-x"):
        assert not _recorded("at_most", name, math.nan, 1.0).passed
        assert not _recorded("at_least", name, math.nan, 1.0).passed
        # nor does a computed bar that is not a number
        assert not _recorded("record", name, 1.0, math.nan, 1e-3, False).passed
        assert not _recorded("record", name, 1.0, math.nan, 1e-3, True).passed


def test_a_reported_value_has_no_bar_and_passes():
    r = _recorded("reported", "witness", 0.25, witness="holorat", notes={"why": "contrast"})
    assert (r.lhs, r.rhs, r.tolerance, r.ratio, r.passed) == (0.25, math.inf, math.inf, 0.0, True)
    assert list(r.parameters.items()) == [("label", "reported"), ("witness", "holorat")]
    assert r.notes == {"why": "contrast"}


def test_runtime_ms_is_each_reports_own_span():
    cfg = vf.RunConfig()  # made before the clock starts: it samples the battery member
    t = time.perf_counter()
    reports = vf.run_checks("transform-oracles", cfg)
    wall_ms = (time.perf_counter() - t) * 1000.0
    spans = [r.runtime_ms for r in reports]
    assert len(spans) == 6
    assert abs(sum(spans) - wall_ms) <= 1.0
    assert max(spans) <= wall_ms


@pytest.mark.parametrize("kw, needle", [
    (dict(L=10000.0, H=20000.0), "L^2 norm 0"),
    # the L^2 norm is 2.9e-85 here, but |f|^4 underflows: two-sided-p divided by zero
    (dict(L=1500.0, H=3000.0), "L^4 norm 0"),
    (dict(L=1700.0, H=3400.0, p=3.0), "L^3 norm 0"),
    (dict(nx=4, ny=64), "fd4"),
    (dict(L=1e-300, H=5.0), "cell measure"),
    # two-sided-p raised from conjectured_bp at p = 0.5 and 1, failed two
    # reports on NaN at p = nan; adjointness raised from numpy at seed -8
    (dict(p=0.5), "expected a finite p > 1"),
    (dict(p=1.0), "expected a finite p > 1"),
    (dict(p=math.nan), "expected a finite p > 1"),
    (dict(p=math.inf), "expected a finite p > 1"),
    (dict(seed=-8), "seed = -8; expected an integer >= 0"),
])
def test_run_config_refuses_a_grid_no_check_can_run_on(kw, needle):
    # the first three ended in a ZeroDivisionError or passed on a zero member.
    # Twins: at 1000:2000 the member is small but alive in every norm, and
    # two-sided-p runs; at p = 3 the L^4 norm that vanishes on 1500:3000 is
    # not one two-sided-p takes
    with pytest.raises(ValueError, match=re.escape(needle)):
        vf.RunConfig(**kw)
    assert vf.run_checks("two-sided-p", vf.RunConfig(L=1000.0, H=2000.0))
    assert vf.RunConfig(L=1500.0, H=3000.0, p=3.0).two_sided_ps() == (3.0,)


def test_method_agreement_runs_on_the_default_box_at_128_whatever_the_grid(strip_runtime):
    # no config moves the check off its grid: a grid of the battery's cell
    # shape within 128 cells per axis does not exist at 511:512, whose whole
    # grid takes 1.7 s against 0.07 s, and 256:128 or 304:152 on a square
    # box would measure other cells
    configs = [vf.RunConfig(), vf.RunConfig(nx=256, ny=128, L=2.8, H=2.8),
               vf.RunConfig(nx=304, ny=152, L=2.8, H=2.8),
               vf.RunConfig(nx=511, ny=512, H=5.6 * 512 / 511)]
    runs = [strip_runtime([r.to_dict() for r in vf.run_checks("method-agreement", cfg)])
            for cfg in configs]
    assert all(r["grid"] == vf._box_spec(128).summary() for run in runs for r in run)
    assert all(run == runs[0] for run in runs)


def test_determinism_bit_for_bit_modulo_runtime(strip_runtime):
    a = vf.run_checks(["structural-identities", "adjointness"], vf.RunConfig())
    b = vf.run_checks(["structural-identities", "adjointness"], vf.RunConfig())
    ja = json.dumps(strip_runtime([r.to_dict() for r in a]), sort_keys=True)
    jb = json.dumps(strip_runtime([r.to_dict() for r in b]), sort_keys=True)
    assert ja == jb


def test_grid_free_checks_report_no_grid():
    # whittaker-ode (a stencil on a t-grid and a series) and liouville (1-D
    # quadratures) evaluate no grid, yet reported the battery grid: nx 64 at
    # --grid 64.  Twin: hardy's gridded report keeps the battery grid
    cfg = vf.RunConfig(nx=64, ny=64)
    reports = vf.run_checks(["whittaker-ode", "liouville"], cfg)
    assert len(reports) == 14 and all(r.grid is None for r in reports)
    assert all(json.loads(reports_to_json(reports))[k]["grid"] is None for k in range(14))
    [gauss] = [r for r in vf.run_checks("hardy", cfg) if r.check_id == "hardy/battery-gaussian"]
    assert (gauss.grid["nx"], gauss.grid["ny"]) == (64, 64)


def test_pinned_grid_checks_keep_the_default_box():
    # adjointness pins a 32 x 32 grid on DEFAULT_BOX; a RunConfig box must not move it
    reports = vf.run_checks(["adjointness"], vf.RunConfig(L=3.0, H=6.0))
    assert {(r.grid["L"], r.grid["H"]) for r in reports} == {vf.DEFAULT_BOX}


def test_report_serialization_round_trip(cheap_reports):
    r = cheap_reports[0]
    d = r.to_dict()
    assert d["pass"] == r.passed
    assert "notes" not in d  # the cheap checks carry no notes
    assert "[PASS]" in r.line() or "[FAIL]" in r.line()
    text = reports_to_json(cheap_reports)
    parsed = json.loads(text)
    assert [p["check_id"] for p in parsed] == [r.check_id for r in cheap_reports]


def test_strip_runtime_is_recursive(strip_runtime):
    data = {"runtime_ms": 1.0, "inner": [{"runtime_ms": 2.0, "keep": 3}]}
    out = strip_runtime(data)
    assert out == {"inner": [{"keep": 3}]}


def test_convergence_sweep_passes_for_the_sweepable_checks(cheap_reports):
    by = {r.check_id: r for r in cheap_reports}
    rep = by["derivative-identities/h-order"]
    assert rep.passed
    assert rep.tolerance == 3.5
    errs = rep.parameters["errors"]
    assert len(errs) == 3
    assert all(a > b for a, b in zip(errs, errs[1:]))
    assert rep.lhs == min(rep.parameters["orders"]) >= 3.5
    # the order and the check share one residual: bit-identical at the battery grid
    assert errs[-1] == by["derivative-identities/dbar"].lhs
    control = by["derivative-identities/control-order-wrong-potential"]
    assert control.passed and control.lhs < 3.5


def test_convergence_sweep_fails_on_nonmonotone_error():
    # the orders are [3.32, -2.32]: the second grid's error rises
    orders, monotone, passed = vf._refinement([1e-2, 1e-3, 5e-3], 1.0)
    assert orders[0] > 1.0 > orders[1]
    assert not monotone and not passed
    # a monotone fall below the threshold fails too, and one above it passes
    assert vf._refinement([1e-2, 6e-3, 4e-3], 1.0)[1:] == (True, False)
    assert vf._refinement([1e-2, 4e-3, 1e-3], 1.0)[1:] == (True, True)


def _script(name):
    path = Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_hardy_script_exits_2_on_a_cutoff_below_2(capsys):
    # one error line, nothing on stdout
    assert _script("hardy_ratio_table").main(["--n", "8", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
    assert "cutoff scale n must be an integer >= 2" in err


def test_battery_spec_and_tolerance_defaults():
    cfg = vf.RunConfig()
    gs = cfg.battery_spec()
    assert (gs.nx, gs.ny, gs.L, gs.H) == (256, 256, 2.8, 5.6)
    assert gs.hx == gs.hy  # the singular quadrature needs square cells


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


# closed forms for the three double-exponential rules: tanh-sinh on [a, b]
# (one with an infinite derivative at an end), exp-sinh on [a, inf),
# sinh-sinh on the real line
DE_CASES = [
    (lambda x: np.sqrt(1.0 - x * x), 0.0, 1.0, math.pi / 4),
    (lambda x: 1.0 / (1.0 + x * x), -1.0, 2.0, math.atan(2.0) + math.pi / 4),
    (lambda x: np.exp(-x), 0.0, np.inf, 1.0),
    (lambda x: 1.0 / x**2, 1.0, np.inf, 1.0),
    (lambda x: np.exp(-x * x), -np.inf, np.inf, math.sqrt(math.pi)),
    (lambda x: 1.0 / (1.0 + x * x), -np.inf, np.inf, math.pi),
]


@pytest.mark.parametrize("case", range(len(DE_CASES)))
def test_de_quad_matches_closed_forms_on_each_interval_kind(case):
    f, a, b, want = DE_CASES[case]
    assert abs(vf._de_quad(f, a, b) - want) <= 1e-13 * want


def test_de_quad_integrates_a_batch_along_its_last_axis():
    # an array of upper limits, and an integrand that adds a leading axis
    b = np.linspace(0.5, 3.0, 6)
    assert np.max(np.abs(vf._de_quad(np.cos, 0.0, b) - np.sin(b))) <= 1e-13
    t = np.array([0.5, 1.0, 4.0])[:, None]
    assert np.max(np.abs(vf._de_quad(lambda s: np.exp(-t * s), 0.0, np.inf) * t[:, 0] - 1.0)) \
        <= 1e-13


@pytest.mark.parametrize("f, a, b", [
    (np.sin, -np.inf, np.inf),             # no integral; the symmetric sums read exactly 0
    (lambda x: 1.0 / (1.0 + x), 0.0, np.inf),  # divergent
    (lambda x: np.log(x), 0.0, 1.0),       # infinite at an end
])
def test_de_quad_raises_rather_than_return_a_wrong_number(f, a, b):
    with pytest.raises(ArithmeticError, match="did not converge"):
        vf._de_quad(f, a, b)


def test_de_quad_refuses_other_intervals():
    with pytest.raises(ValueError):
        vf._de_quad(np.exp, -np.inf, 0.0)


def test_without_its_end_terms_de_quad_returns_0_for_sin(monkeypatch):
    # twin of the sin control: the level test alone accepts the exact zeros
    monkeypatch.setattr(vf, "_DE_END", -1.0)
    assert vf._de_quad(np.sin, -np.inf, np.inf) == 0.0


def _reader_key(h) -> tuple:
    """A row reader (`testfuncs.RowSampler`) as its member, grid, form and weight."""
    return h.fn.describe(), tuple(h.spec.summary().values()), h.which, h.times_y


@pytest.fixture(scope="module", params=["fft", "quadrature"])
def spied_battery(request):
    """The whole battery on one method, keyed by check: every `transforms.transform`
    call, nested ones included, as (kernel, method, padding, grid, hash of the
    input's bytes); every block of closed-form rows, `testfuncs.RowSampler.rows`,
    as (member, grid, form, weight, rows) and its point count; every classifier
    pass as its member.  Calls made outside a
    check, such as RunConfig's zero-member refusal, are skipped."""
    calls, state = collections.defaultdict(list), {}
    samples, passes = collections.defaultdict(list), collections.defaultdict(list)
    rows, classify = tf.RowSampler.rows, wh.lemma_a1_classify

    def spied_rows(self, r):
        out = rows(self, r)
        if "check" in state:
            samples[state["check"]].append(((*_reader_key(self), r.start, r.stop), out.size))
        return out

    def spied_classify(h, *args, **kw):
        passes[state["check"]].append(_reader_key(h))
        return classify(h, *args, **kw)

    transform = tr.transform
    sig = inspect.signature(transform)

    def spied_transform(*args, **kw):
        a = sig.bind(*args, **kw)
        a.apply_defaults()
        a = a.arguments
        f = a["f"]
        calls[state["check"]].append((
            a["kernel"], a["method"], a["padding"], tuple(f.spec.summary().values()),
            hashlib.sha1(np.ascontiguousarray(f.data)).hexdigest()))
        return transform(*args, **kw)

    def in_check(cid, check):
        def run(cfg, rec):
            state["check"] = cid
            return check(cfg, rec)
        return run

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tr, "transform", spied_transform)
        mp.setattr(tf.RowSampler, "rows", spied_rows)
        mp.setattr(wh, "lemma_a1_classify", spied_classify)
        for cid, check in list(vf.CHECKS.items()):
            mp.setitem(vf.CHECKS, cid, in_check(cid, check))
        reports = vf.run_checks("all", vf.RunConfig(method=request.param))
    return request.param, reports, calls, samples, passes


def test_the_battery_passes_on_each_method(spied_battery):
    # nothing else holds the quadrature path's battery green
    method, reports, *_ = spied_battery
    assert len(reports) == 84 and all(r.passed for r in reports), method
    assert sum(bool(r.parameters.get("negative_control")) for r in reports) == 25


def test_the_registry_is_the_only_way_in_to_a_check(spied_battery):
    # the battery's id prefixes are exactly the registry's, and no check body is exported
    _, reports, *_ = spied_battery
    assert {r.check_id.split("/")[0] for r in reports} == set(vf.CHECKS)
    assert vf.__all__ == ["DEFAULT_BOX", "RunConfig", "HARDY_P2", "CUP_NORM_P2", "C2",
                          "conjectured_bp", "CHECKS", "run_checks"]


def test_no_check_evaluates_one_operator_twice_on_one_input(spied_battery):
    # five checks computed a transform twice: transform-oracles, cup-norm,
    # minimal-solver, e-identity and structural-identities
    method, _, calls, *_ = spied_battery
    repeats = {cid: sorted({key[:4] for key, n in collections.Counter(keys).items() if n > 1})
               for cid, keys in calls.items()}
    assert {cid: r for cid, r in repeats.items() if r} == {}
    # each quadrature defect sum was three calls, its own and two cauchy_down
    assert sum(map(len, calls.values())) <= {"fft": 54, "quadrature": 53}[method]


def test_no_check_samples_one_closed_form_twice_or_classifies_one_member_twice(spied_battery):
    # derivative-identities resampled its member once per potential sign and
    # grid, commutators once per n, and whittaker-classify made a second pass
    # over its member for the wrong-branch control: 10.63 M points in all
    _, _, _, samples, passes = spied_battery

    def repeated(keys):  # a sample's key less its rows: the member, grid, form and weight
        return sorted({key[:4] for key, n in collections.Counter(keys).items() if n > 1})

    repeats = {(cid, "samples"): repeated(key for key, _ in blocks)
               for cid, blocks in samples.items()}
    repeats.update({(cid, "passes"): repeated(keys) for cid, keys in passes.items()})
    assert {cid: r for cid, r in repeats.items() if r} == {}
    assert len(passes["whittaker-classify"]) == 3 and list(passes) == ["whittaker-classify"]
    assert sum(n for blocks in samples.values() for _, n in blocks) <= 8.4e6


GOLDEN = Path(__file__).resolve().parent / "golden"


def _golden_moves(method, payload) -> tuple:
    """The values of a battery's JSON payload (runtime_ms stripped) that moved
    from tests/golden/battery-<method>.json, as (check id, key, golden, now):
    those past the band, then those inside it.

    lhs and ratio may move 1e-9 of themselves, or 1e-15 at the rounding
    floor; every other key (check id and order included) must match exactly.
    """
    gold = json.loads((GOLDEN / f"battery-{method}.json").read_text())
    if [g["check_id"] for g in gold] != [p["check_id"] for p in payload]:
        return [("*", "check_id", [g["check_id"] for g in gold],
                 [p["check_id"] for p in payload])], []
    moves, drift = [], []
    for g, p in zip(gold, payload):
        for key in sorted(g.keys() | p.keys()):
            a, b = g.get(key), p.get(key)
            if key in ("lhs", "ratio") and a is not None and b is not None:
                if not abs(a - b) <= max(1e-9 * abs(a), 1e-15):
                    moves.append((g["check_id"], key, a, b))
                elif a != b:
                    drift.append((g["check_id"], key, a, b))
            elif a != b:
                moves.append((g["check_id"], key, a, b))
    return moves, drift


def _moves_table(moves) -> str:
    """One line per moved value: id, key, golden, now, relative change and bar."""
    lines = []
    for cid, key, a, b in moves:
        numeric = key in ("lhs", "ratio") and a is not None and b is not None
        change = f"{abs(a - b) / abs(a):.2e}" if numeric and a else "-"
        lines.append(f"{cid:48s} {key:10s} {a!r:>26} -> {b!r:26} {change:>9} "
                     f"{'1e-9' if numeric else 'exact'}")
    return "\n".join(lines)


def _hold_to_golden(method, payload):
    """Fail on a value moved past the band; warn, with the same table, on
    each one moved inside it, so the golden file cannot fall behind unseen."""
    moves, drift = _golden_moves(method, payload)
    path = f"tests/golden/battery-{method}.json"
    assert not moves, f"moved from {path}:\n" + _moves_table(moves)
    if drift:
        warnings.warn(f"moved inside the band from {path}; rewrite it with "
                      f"scripts/write_golden.py:\n" + _moves_table(drift), UserWarning)


def test_the_battery_keeps_its_golden_numbers(spied_battery, strip_runtime):
    # the committed values of `verify all --json` on each method, rewritten
    # only by scripts/write_golden.py.  Twins: one lhs moved by 1e-8 of
    # itself fails; moved by 1e-12 of itself it warns and passes
    method, reports, *_ = spied_battery
    payload = strip_runtime(json.loads(reports_to_json(reports)))
    _hold_to_golden(method, payload)
    i = next(i for i, p in enumerate(payload) if 1e-6 < abs(p["lhs"]) < math.inf)
    cid, lhs = payload[i]["check_id"], payload[i]["lhs"]
    payload[i]["lhs"] = lhs * (1 + 1e-8)
    assert [m[:2] for m in _golden_moves(method, payload)[0]] == [(cid, "lhs")]
    payload[i]["lhs"] = lhs * (1 + 1e-12)
    with pytest.warns(UserWarning, match=re.escape(cid)):
        _hold_to_golden(method, payload)
