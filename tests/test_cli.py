import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from hypb import cli


def run(argv):
    """cli.main with usage-error SystemExit folded into the return code."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


# ---------------------------------------------------------------------------
# argument parsing helpers


def test_parse_grid():
    assert cli.parse_grid("256") == (256, 256)
    assert cli.parse_grid("128:64") == (128, 64)
    for bad in ("0", "-8", "a:b", "1:2:3"):
        with pytest.raises(SystemExit):
            cli.parse_grid(bad)


def test_parse_domain_and_range():
    assert cli.parse_domain("2.8:5.6") == (2.8, 5.6)
    assert cli.parse_range("0.1:30") == (0.1, 30.0)
    for bad in ("2.8", "0:5", "-1:2", "inf:5"):
        with pytest.raises(SystemExit):
            cli.parse_domain(bad)
    with pytest.raises(SystemExit):
        cli.parse_range("30:0.1")


def test_csv_rows_match_the_fstring_rows():
    # the rows the commands wrote with one f-string per row
    xs = np.array([0.1, -0.0, np.inf, -np.inf, np.nan, 1e-300, -2.5e-310, 1 / 3])
    cols = (xs, xs[::-1], np.roll(xs, 3))
    want = [f"{a:.17g},{b:.17g},{c:.17g}" for a, b, c in zip(*cols)]
    assert cli.csv_rows(*cols) == want
    # grid mode: the rows `transform` wrote from meshgrid copies of x and y;
    # non-uniform x, nx != ny, and the special values among the coordinates
    x = np.array([-0.0, 1e-300, 5e-324, np.nan, 0.1, 2.0 ** 0.5, -np.inf])
    y = np.array([np.inf, 1 / 3, -2.5e-310, 7.0, -1e300])
    rng = np.random.default_rng(4)
    data = rng.standard_normal((y.size, x.size)) + 1j * rng.standard_normal((y.size, x.size))
    data.real.flat[: xs.size] = xs
    data.imag.flat[: xs.size] = xs[::-1]
    X, Y = np.meshgrid(x, y)
    want = [f"{a:.17g},{b:.17g},{c:.17g},{d:.17g}" for a, b, c, d
            in zip(X.ravel(), Y.ravel(), data.real.ravel(), data.imag.ravel())]
    got = cli.csv_rows(data.real.ravel(), data.imag.ravel(), grid=(x, y))
    assert got == want


@pytest.mark.parametrize("rows", [[], ["1,2"], ["0.5,-1", "", "nan,inf"],
                                  [f"{k},{k / 3}" for k in range(4096 * 2 + 5)]])
def test_write_rows_writes_the_joined_text_to_file_and_stdout(rows, tmp_path, capsys):
    want = "\n".join(["a,b"] + rows) + "\n"
    path = tmp_path / "rows.csv"
    cli._write_rows(str(path), "a,b", rows)
    assert path.read_bytes() == want.encode()
    capsys.readouterr()
    cli._write_rows(None, "a,b", rows)
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("argv", [
    ["whittaker", "tabulate", "--family", "Y", "--tol", "1e-3"],
    ["whittaker", "tabulate", "--family", "X", "--grid", "64"],
    ["whittaker", "classify", "--testfn", "conjrat:a=1,k=2", "--method", "quadrature"],
    ["transform", "--op", "b_down", "--testfn", "gaussian:c=2,sigma=4", "--seed", "3"],
])
def test_flags_belong_to_the_commands_that_read_them(argv, capsys):
    assert run(argv) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def _subparsers(parser) -> dict:
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return {}


def _commands() -> dict:
    """{"verify": parser, ..., "whittaker tabulate": parser}: every leaf subcommand."""
    out = {}
    for name, p in _subparsers(cli.build_parser()).items():
        inner = _subparsers(p)
        out.update({f"{name} {n}": q for n, q in inner.items()} if inner else {name: p})
    return out


def _readme_flags() -> dict:
    """{command: flags} from README's "Flags per subcommand" bullets, with the
    grid-flags paragraph's flags added to each bullet that names the grid flags."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("Flags per subcommand", 1)[1].split("Operator names accept", 1)[0]
    bullets, grid = section.split("\n\nThe grid flags are", 1)
    flag = re.compile(r"--[A-Za-z][\w-]*")
    grid_flags = set(flag.findall(grid))
    out = {}
    for bullet in bullets.split("\n- `")[1:]:
        head = bullet.split("`", 1)[0]
        command = " ".join(w for w in head.split() if re.fullmatch(r"[a-z]+", w))
        out[command] = set(flag.findall(bullet)) | (grid_flags if "grid flags" in bullet else set())
    return out


def test_readme_lists_exactly_the_flags_of_each_subcommand():
    documented = _readme_flags()
    commands = _commands()
    assert set(documented) == set(commands)
    for name, parser in commands.items():
        flags = {s for a in parser._actions for s in a.option_strings
                 if s.startswith("--") and s != "--help"}
        assert flags - documented[name] == set(), f"{name}: flags missing from README"
        assert documented[name] - flags == set(), f"{name}: README lists flags the parser lacks"


# ---------------------------------------------------------------------------
# verify subcommand


def test_verify_pass_prints_one_line_per_subcheck(capsys):
    assert run(["verify", "adjointness"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert all(line.startswith("[PASS]") for line in out[:-1])
    assert out[-1].startswith("PASSED")


def test_verify_unknown_check_is_a_usage_error(capsys):
    assert run(["verify", "no-such-check"]) == 2
    assert "error:" in capsys.readouterr().err


def test_verify_numerical_failure_exits_one(capsys):
    # at 128^2 the fft c_down reads 3.1e-3 against its 1e-3 bar
    assert run(["verify", "transform-oracles", "--grid", "128"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL]" in out
    assert out.strip().splitlines()[-1].startswith("FAILED")


def test_verify_json_is_deterministic(capsys, strip_runtime):
    assert run(["verify", "adjointness", "--json"]) == 0
    first = json.loads(capsys.readouterr().out)
    assert run(["verify", "adjointness", "--json"]) == 0
    second = json.loads(capsys.readouterr().out)
    assert strip_runtime(first) == strip_runtime(second)
    assert all("runtime_ms" in rec for rec in first)


def test_verify_quadrature_has_no_grid_cap(capsys):
    # adjointness pins its own small grid, so 256 costs nothing here
    assert run(["verify", "adjointness", "--method", "quadrature", "--grid", "256"]) == 0
    capsys.readouterr()
    assert run(["verify", "adjointness", "--method", "quadrature", "--grid", "256",
                "--force"]) == 2
    assert "unrecognized arguments: --force" in capsys.readouterr().err


def _one_error_line(capsys, *needles) -> bool:
    """Nothing on stdout, and one `error:` line on stderr that holds the needles."""
    captured = capsys.readouterr()
    err = captured.err.strip()
    return (captured.out == "" and err.startswith("error:") and "\n" not in err
            and all(n in err for n in needles))


@pytest.mark.parametrize("flag, value", [
    ("--p", "1"), ("--p", "0.5"), ("--p", "nan"), ("--p", "inf"),
])
def test_verify_refuses_p_and_tol_out_of_range(flag, value, capsys):
    # p must be finite and above 1: --p 1 and 0.5 ended in a ValueError
    # traceback, --p nan printed NaN.  RunConfig refuses it, on its error line
    assert run(["verify", "two-sided-p", "--grid", "64", "--json", flag, value]) == 2
    assert _one_error_line(capsys, f"{flag} {value} or --seed 0", "expected a finite p > 1")


def test_verify_refuses_a_norm_past_the_float_range(capsys):
    # |f|^p leaves the float range at p = 1e6, which ended in a traceback.
    # Twin: p = 3 runs
    assert run(["verify", "two-sided-p", "--grid", "64", "--json", "--p", "1e6"]) == 2
    assert _one_error_line(capsys, "the float range", "--p 1e+06")
    assert run(["verify", "two-sided-p", "--grid", "64", "--json", "--p", "3"]) == 0
    capsys.readouterr()


# ---------------------------------------------------------------------------
# transform subcommand


def test_transform_requires_testfn(capsys):
    assert run(["transform", "--op", "b_down"]) == 2
    capsys.readouterr()


def test_transform_unknown_op(capsys):
    assert run(["transform", "--op", "riesz", "--testfn", "gaussian:c=2,sigma=4"]) == 2
    err = capsys.readouterr().err
    assert "riesz" in err and "'defect_sum'" in err


@pytest.mark.parametrize("method", ["fft", "quadrature"])
def test_transform_runs_the_defect_sum(method, capsys):
    # every kernel id is an op, the defect sum C_down + conj C_down conj too:
    # output_l2 reads 0.5736667430161383 on fft and 0.5736692464116191 on
    # quadrature, 4.4e-6 apart
    assert run(["transform", "--op", "defect_sum", "--testfn", "gaussian", "--grid", "64",
                "--method", method, "--json"]) == 0
    meta = json.loads(capsys.readouterr().out)
    assert meta["op"] == "defect_sum" and meta["method"] == method
    assert abs(meta["output_l2"] - 0.57366674) <= 1e-5 * 0.57366674


@pytest.mark.parametrize("op, grid", [("b", "96"), ("b_down", "96:48")])
def test_transform_singular_quadrature_needs_square_cells(op, grid, capsys):
    # the whole-plane grid of the default domain has 1:2 cells
    assert run(["transform", "--op", op, "--method", "quadrature", "--grid", grid,
                "--testfn", "gaussian:c=2,sigma=4"]) == 2
    err = capsys.readouterr().err
    assert "square cells" in err and "Traceback" not in err


@pytest.mark.parametrize("flags, needle", [
    (["--grid", "64:63"], "even ny"),  # the whole-plane grid puts a cell centre on the axis
    (["--domain", "inf:5"], "--domain"),
])
def test_transform_geometry_refusals_are_usage_errors(flags, needle, capsys):
    assert run(["transform", "--op", "c", "--testfn", "gaussian:c=2,sigma=4"] + flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert needle in err


@pytest.mark.parametrize("domain", ["1e300:1e300", "1e-300:5"])
def test_boxes_whose_cell_measure_leaves_the_normal_range_are_usage_errors(domain, capsys):
    # at 1e300:1e300 hx hy / pi overflows and the norms were printed as NaN; at
    # 1e-300:5 the squared output underflowed and output_l2 read 0.0
    assert run(["transform", "--op", "c_down", "--testfn", "gaussian", "--grid", "16",
                "--domain", domain, "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "--domain" in captured.err
    assert run(["verify", "adjointness", "--domain", domain]) == 2
    assert "cell measure" in capsys.readouterr().err


def test_cli_json_refuses_non_finite_numbers(monkeypatch, capsys):
    # a non-finite value fails loudly instead of printing NaN, which is not JSON
    monkeypatch.setattr(cli, "lp_norm", lambda f, p: float("nan"))
    with pytest.raises(ValueError, match="JSON"):
        cli.main(["transform", "--op", "c_down", "--testfn", "gaussian", "--grid", "8",
                  "--json"])
    assert capsys.readouterr().out == ""


def test_verify_singular_quadrature_needs_square_cells(capsys):
    # the battery grid of this domain has 2:1 cells
    assert run(["verify", "norm-identity", "--method", "quadrature", "--grid", "64",
                "--domain", "2.8:2.8"]) == 2
    err = capsys.readouterr().err
    assert "square cells" in err and "Traceback" not in err


def test_verify_has_no_threads_flag(capsys):
    assert run(["verify", "adjointness", "--threads", "2"]) == 2
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err


def test_verify_has_no_tol_flag(capsys):
    # each check owns its bars; a single override fed all of them and their controls
    assert run(["verify", "adjointness", "--tol", "1e-3"]) == 2
    assert "unrecognized arguments: --tol 1e-3" in capsys.readouterr().err


@pytest.mark.parametrize("argv, needle", [
    (["verify", "all", "--domain", "10000:20000"], "L^2 norm 0"),
    # L^2 is 2.9e-85 here, but the L^4 norm two-sided-p divides by is 0
    (["verify", "all", "--domain", "1500:3000"], "L^4 norm 0"),
    (["verify", "norm-identity", "--domain", "2000:4000"], "L^2 norm 0"),
])
def test_verify_refuses_a_battery_member_that_vanishes_on_its_grid(argv, needle, capsys):
    # the first two ended in a ZeroDivisionError traceback, the third printed
    # "PASSED 0/0 checks".  Twin: test_verify_runs_to_a_verdict_on_a_small_member
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv) == 2
    assert _one_error_line(capsys, f"--domain {argv[-1]!r}", needle)


def test_verify_runs_to_a_verdict_on_a_small_member(capsys):
    # the battery gaussian is about 1e-32 in every norm on this box: every
    # check runs, some fail, and nothing raises
    assert run(["verify", "all", "--domain", "1000:2000", "--json"]) == 1
    reports = json.loads(capsys.readouterr().out)
    assert len(reports) == 84 and not all(r["pass"] for r in reports)


def test_a_negative_seed_is_a_usage_error(capsys):
    # checks seed with a base plus --seed (adjointness 7), and numpy refuses a negative seed
    assert run(["verify", "adjointness", "--seed", "-100"]) == 2
    assert _one_error_line(capsys, "--p 2 or --seed -100", "seed = -100; expected an integer >= 0")
    assert run(["verify", "adjointness", "--seed", "0", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("check, grid", [("derivative-identities", "4"), ("hardy", "4"),
                                         ("minimal-solver", "4"),
                                         ("derivative-identities", "8:4")])
def test_verify_refuses_a_grid_narrower_than_the_fd4_stencil(check, grid, capsys):
    # each ended in a ValueError traceback from calculus._fd4_first.  Twins:
    # --grid 5 runs to a verdict (exit 1, JSON), and transform keeps --grid 4
    assert run(["verify", check, "--grid", grid, "--json"]) == 2
    assert _one_error_line(capsys, f"bad --grid {grid!r}", "fd4")
    assert run(["verify", check, "--grid", "5", "--json"]) == 1
    assert json.loads(capsys.readouterr().out)
    assert run(["transform", "--op", "c_down", "--testfn", "gaussian:c=2,sigma=4",
                "--grid", grid, "--json"]) == 0


@pytest.mark.parametrize("testfn, needle", [("conjrat:a=1,k=2.7", "k=2.7"),
                                            ("conjrat:a=1,k=1e400", "k=inf"),
                                            ("holorat:a=1,k=nan", "k=nan"),
                                            ("hardy:n=64.9", "n=64.9")])
def test_integer_testfn_parameters_must_be_finite_integers(testfn, needle, capsys):
    # k = 2.7 ran as k = 2 and n = 64.9 as n = 64, each echoing the value it
    # was given; k = 1e400 ended in an OverflowError traceback.  Twin: k = 3 runs
    argv = ["whittaker", "classify", "--premultiply-M", "--json", "--testfn"]
    assert run(argv + [testfn]) == 2
    assert _one_error_line(capsys, needle, "not a finite integer")
    assert run(argv + ["conjrat:a=1,k=3"]) == 0
    assert json.loads(capsys.readouterr().out)["testfn"] == "conjrat:a=1,k=3"


@pytest.mark.parametrize("spec", ["nosuch:a=1", "gaussian:zz=1", "gaussian:c"])
def test_transform_rejects_bad_testfn(spec, capsys):
    assert run(["transform", "--op", "b_down", "--testfn", spec, "--grid", "8"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("testfn", ["gaussian:c=1e308,sigma=4", "gaussian:c=2,sigma=1e300",
                                    "conjrat:a=0.001,k=400"])
def test_transform_refuses_a_member_that_is_zero_or_not_finite_on_the_grid(testfn, capsys):
    # the two gaussians sample to 0 everywhere (the first after an overflow
    # warning) and printed input_l2 0; the conjrat samples to inf, which
    # warned in the transform.  Refused with no warning.  Twin: the battery
    # gaussian runs
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["transform", "--op", "c_down", "--testfn", testfn, "--grid", "32",
                    "--json"]) == 2
        assert _one_error_line(capsys, testfn, "zero or not finite")
        assert run(["transform", "--op", "c_down", "--testfn", "gaussian:c=2,sigma=4",
                    "--grid", "32", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["input_l2"] > 0


def test_transform_refuses_a_member_whose_squares_underflow(capsys):
    # the samples are nonzero, but their squares underflow: input_l2 read 0.0.
    # Twin: on 1000:2000 the same member runs with input_l2 about 1e-32
    argv = ["transform", "--op", "c_down", "--testfn", "gaussian:c=2,sigma=4", "--grid", "256",
            "--json", "--domain"]
    assert run(argv + ["2000:4000"]) == 2
    assert _one_error_line(capsys, "gaussian:c=2,sigma=4", "zero or not finite")
    assert run(argv + ["1000:2000"]) == 0
    assert 0.0 < json.loads(capsys.readouterr().out)["input_l2"] < 1e-30


def test_transform_writes_csv(tmp_path, capsys):
    out = tmp_path / "f.csv"
    assert run(["transform", "--op", "b_down", "--testfn", "gaussian:c=2,sigma=4",
                "--grid", "16", "--out", str(out)]) == 0
    capsys.readouterr()
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "x,y,re,im"
    assert len(lines) == 16 * 16 + 1
    table = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert np.all(np.isfinite(table))
    assert np.all(table[:, 1] > 0)  # output lives on the same half-plane grid


def test_transform_stdout_defaults_to_csv(capsys):
    assert run(["transform", "--op", "c", "--testfn", "gaussian:c=2,sigma=4",
                "--grid", "8"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "x,y,re,im"
    assert len(lines) == 8 * 8 + 1


def test_transform_json_metadata(capsys):
    assert run(["transform", "--op", "b_down", "--testfn", "gaussian:c=2,sigma=4",
                "--grid", "32", "--json"]) == 0
    meta = json.loads(capsys.readouterr().out)
    assert meta["op"] == "beurling_down"
    assert meta["grid"]["nx"] == 32
    assert meta["input_l2"] > 0 and meta["output_l2"] > 0


# ---------------------------------------------------------------------------
# whittaker subcommands


def test_tabulate_residual_column_is_small(tmp_path, capsys):
    out = tmp_path / "y.csv"
    assert run(["whittaker", "tabulate", "--family", "Y", "--A", "0", "--B", "1",
                "--range", "0.1:30", "--points", "80", "--out", str(out)]) == 0
    capsys.readouterr()
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,re,im,residual"
    assert len(lines) == 81
    resid = np.array([float(line.split(",")[3]) for line in lines[1:]])
    assert resid.max() <= 1e-6


def test_tabulate_json_reports_max_residual(capsys):
    assert run(["whittaker", "tabulate", "--family", "X", "--A", "1", "--B", "0",
                "--points", "60", "--json"]) == 0
    meta = json.loads(capsys.readouterr().out)
    assert meta["family"] == "X"
    assert meta["max_residual"] <= 1e-6


def test_tabulate_rejects_bad_range(capsys):
    assert run(["whittaker", "tabulate", "--family", "Y", "--range", "5:1"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("family", ["X", "Y"])
@pytest.mark.parametrize("t0", ["1e-6", "9.9e-5", "1e-300"])
def test_tabulate_refuses_t0_below_the_residual_floor(family, t0, capsys):
    # from t0 = 1e-6 the residual reads 7.0e-6 (X) against the promised 1e-6,
    # and 1e-300 printed a JSON traceback.  Twin: t0 = 1e-4 keeps the promise
    argv = ["whittaker", "tabulate", "--family", family, "--A", "1", "--B", "1", "--json"]
    assert run([*argv, "--range", f"{t0}:1"]) == 2
    assert _one_error_line(capsys, "--range", "0.0001 <= t0")
    assert run([*argv, "--range", f"{cli.TABULATE_T_MIN!r}:1"]) == 0
    assert json.loads(capsys.readouterr().out)["max_residual"] <= 1e-6


@pytest.mark.parametrize("points", ["0", "-3"])
def test_tabulate_refuses_point_counts_below_one(points, capsys):
    assert run(["whittaker", "tabulate", "--family", "X", "--points", points, "--json"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--points" in err and "Traceback" not in err


@pytest.mark.parametrize("family", ["X", "Y"])
@pytest.mark.parametrize("trange", ["0.1:800", "0.1:1500"])
def test_tabulate_refuses_ranges_that_overflow(family, trange, capsys):
    assert run(["whittaker", "tabulate", "--family", family, "--A", "0", "--B", "1",
                "--range", trange, "--json"]) == 2
    assert "700" in capsys.readouterr().err


def test_tabulate_refuses_a_fast_branch_past_the_float_range(capsys):
    # |A1| t e^{t/2} overflows at t = 600 for A1 = 1e300, inside the allowed range.
    # Twin: the same range at A1 = 1 is finite and tabulates
    argv = ["whittaker", "tabulate", "--family", "X", "--B", "0", "--range", "600:700",
            "--json"]
    assert run(argv + ["--A=1e300"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip()
    assert err.startswith("error:") and "X branch A a(t) + B b(t) overflows" in err
    assert "|A| = 1e+300, |B| = 0: past the float range from t = 600" in err and "\n" not in err
    assert run(argv + ["--A=1"]) == 0
    assert json.loads(capsys.readouterr().out)["max_residual"] <= 1e-6


def test_tabulate_refuses_a_slow_y_branch_past_the_float_range(capsys):
    # |A2| e^{-t/2} t J(t) ~ |A2| e^{t/2} / t overflows at t = 600 for A2 = 1e300.
    # Twin: the same range at A2 = 1 is finite and tabulates
    argv = ["whittaker", "tabulate", "--family", "Y", "--B", "0", "--range", "600:700",
            "--json"]
    assert run(argv + ["--A=1e300"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip()
    assert err.startswith("error:") and "Y branch A a(t) + B b(t) overflows" in err
    assert "|A| = 1e+300, |B| = 0: past the float range from t = 600" in err and "\n" not in err
    assert run(argv + ["--A=1"]) == 0
    assert json.loads(capsys.readouterr().out)["max_residual"] <= 1e-6


@pytest.mark.parametrize("argv, needle", [
    (["--family", "X", "--A", "0", "--B", "nan"], "finite coefficients"),
    (["--family", "X", "--A", "0", "--B", "nan", "--json"], "finite coefficients"),
    (["--family", "Y", "--A=inf", "--B", "0"], "finite coefficients"),
])
def test_tabulate_refuses_coefficients_not_finite_or_past_the_float_range(argv, needle, capsys):
    # --B nan printed a CSV of nan, and a JSON traceback with --json
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["whittaker", "tabulate", *argv]) == 2
    assert _one_error_line(capsys, needle)


def _strict_json(text: str):
    def refuse(name):
        raise ValueError(f"non-finite JSON number {name}")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("argv", [
    ["--family", "Y", "--A", "0", "--B=1e306"],
    ["--family", "X", "--A", "0", "--B=1e300"],
    # refused while the branch kept each mode's left-to-right product: at
    # A1 = 1e300 the residual stencil's sums overflowed (-30 f0 reaches
    # 2.9e309), and at B2 = 1e307 and 1e308 B2 t overflowed before e^{-t/2}
    # scaled it, although every value is at most 9.8e307
    ["--family", "X", "--A=1e300", "--B", "0"],
    ["--family", "Y", "--A", "0", "--B=1e307"],
    ["--family", "Y", "--A", "0", "--B=1e308"],
])
def test_tabulate_runs_just_inside_the_float_range(argv, capsys):
    # twins of the refusals above: residuals 1.4e-9 (Y) and 1.2e-8 (X) to 2.5e-9
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["whittaker", "tabulate", *argv, "--json"]) == 0
    assert _strict_json(capsys.readouterr().out)["max_residual"] <= 1e-6


def test_a_repeated_testfn_parameter_is_refused(capsys):
    # c=2,sigma=4,c=3 ran c = 3 and echoed the ambiguous selector.  Twin: c=3 once
    argv = ["transform", "--op", "c_down", "--grid", "16", "--json", "--testfn"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv + ["gaussian:c=2,sigma=4,c=3"]) == 2
    assert _one_error_line(capsys, "testfn parameter 'c' repeated")
    assert run(argv + ["gaussian:c=3,sigma=4"]) == 0
    assert _strict_json(capsys.readouterr().out)["testfn"] == "gaussian:c=3,sigma=4"


def _checkout_env() -> dict:
    """The environment with this checkout's hypb first on PYTHONPATH."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


@pytest.mark.parametrize("argv", [
    ["transform", "--op", "c_down", "--testfn", "gaussian", "--grid", "16"],
    ["whittaker", "tabulate", "--family", "Y"],
    ["whittaker", "classify", "--testfn", "conjrat:a=1,k=2", "--premultiply-M", "--json"],
])
def test_an_unwritable_out_is_a_usage_error(argv, tmp_path, capsys):
    # a missing directory ended in a FileNotFoundError traceback with exit 1,
    # and classify printed its JSON before it.  Twin: a writable --out holds
    # the CSV that stdout gets without it, and --json prints the same JSON
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv + ["--out", str(tmp_path / "missing" / "x.csv")]) == 2
    assert _one_error_line(capsys, "cannot write --out", "missing")
    assert run(argv) == 0
    alone = capsys.readouterr().out
    out = tmp_path / "x.csv"
    assert run(argv + ["--out", str(out)]) == 0
    if "--json" in argv:
        assert capsys.readouterr().out == alone
        assert out.read_text().startswith("xi,re,im\n")
    else:
        assert capsys.readouterr().out == "" and out.read_text() == alone


def test_classify_member_and_nonmember(capsys):
    assert run(["whittaker", "classify", "--testfn", "conjrat:a=1,k=2",
                "--premultiply-M", "--json"]) == 0
    member = json.loads(capsys.readouterr().out)
    assert member["is_cokernel"] is True
    assert member["premultiply_M"] is True
    assert member["x_truncation"] == pytest.approx(3.84e-3, rel=1e-2)

    assert run(["whittaker", "classify", "--testfn", "gaussian:c=2,sigma=4",
                "--json"]) == 0
    bump = json.loads(capsys.readouterr().out)
    assert bump["is_cokernel"] is False


def test_classify_rejects_a_field_with_an_empty_fit_window(capsys):
    # the Hardy member depends on y alone, so all its energy sits at xi = 0:
    # the fit window carries none of it, and its fit residual 0 proves nothing
    assert run(["whittaker", "classify", "--testfn", "hardy:a=0.5,n=64", "--json"]) == 0
    res = json.loads(capsys.readouterr().out)
    assert res["is_cokernel"] is False
    assert res["window_energy_frac"] < res["thresholds"]["window_min"] == 1e-2
    th = res["thresholds"]
    assert res["pos_energy_frac"] <= th["pos_tol"] and res["fit_residual"] <= th["fit_tol"]
    assert res["dyadic_growth"] <= th["growth_tol"]


def test_classify_writes_multiplier_table(tmp_path, capsys):
    out = tmp_path / "b2.csv"
    assert run(["whittaker", "classify", "--testfn", "conjrat:a=1,k=2",
                "--premultiply-M", "--out", str(out)]) == 0
    assert "cokernel" in capsys.readouterr().out
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "xi,re,im"
    table = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert len(table) > 10
    xi = table[:, 0]
    assert np.all(xi < 0)  # fitted window sits on the decaying side
    # the boundary multiplier for this member is -pi * exp(xi)
    assert np.allclose(table[:, 1], -np.pi * np.exp(xi), rtol=5e-3, atol=1e-6)


@pytest.mark.parametrize("argv", [
    ["whittaker", "classify", "--testfn", "conjrat:a=0.001,k={k}"],
    ["whittaker", "classify", "--testfn", "conjrat:a=0.001,k={k}", "--json"],
    ["transform", "--op", "c_down", "--testfn", "conjrat:a=0.001,k={k}", "--grid", "64",
     "--json"],
])
def test_inputs_past_the_float_range_are_refused(argv, capsys):
    # at k = 200 the squared field overflows: classify printed a verdict from
    # NaN figures (or a JSON traceback), transform's lp_norm read inf.
    # Twin: k = 2 runs
    assert run([a.format(k=200) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip()
    assert err.startswith("error:") and "the float range" in err
    assert "\n" not in err and "conjrat:a=0.001,k=200" in err
    assert run([a.format(k=2) for a in argv]) == 0
    assert "nan" not in capsys.readouterr().out.lower()


@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_classify_refuses_a_weighted_energy_past_the_float_range(flags, capsys):
    # at k = 128 the row energies are finite but |hhat|^2 / y^2 overflows:
    # --json ended in a ValueError traceback from json, the text printed a
    # RuntimeWarning and dyadic_growth 6.2e41.  Twin: k = 126 gives finite JSON
    argv = ["whittaker", "classify", "--testfn", "conjrat:a=0.001,k={k}"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run([a.format(k=128) for a in argv] + flags) == 2
        assert _one_error_line(capsys, "weighted energy", "the float range", "k=128")
        assert run([a.format(k=126) for a in argv] + ["--json"]) == 0
    out = capsys.readouterr().out
    assert "Infinity" not in out and "NaN" not in out
    assert np.isfinite(json.loads(out)["dyadic_growth"])


def test_classify_refuses_a_field_with_no_energy(capsys):
    # the member underflows to 0 on the classify grid, and every figure read
    # 0.0.  Twin: hardy:a=-3 is nonzero, with all its energy at xi = 0
    argv = ["whittaker", "classify", "--json", "--testfn"]
    assert run(argv + ["gaussian:c=400,sigma=4"]) == 2
    assert _one_error_line(capsys, "no partial Fourier energy", "gaussian:c=400,sigma=4")
    assert run(argv + ["hardy:a=-3"]) == 0
    res = json.loads(capsys.readouterr().out)
    assert res["is_cokernel"] is False and res["pos_energy_frac"] == 0.0


@pytest.mark.parametrize("testfn, needles", [
    ("hardy:ramp=-1", ("ramp must be positive", "-1.0")),
    ("hardy:ramp=0", ("ramp must be positive", "0.0")),
    ("hardy:ramp=nan", ("ramp=nan", "not a finite number")),
    ("conjrat:a=nan,k=2", ("a=nan", "not a finite number")),
    ("gaussian:c=inf", ("c=inf", "not a finite number")),
])
def test_testfn_parameters_must_be_finite_and_the_ramp_positive(testfn, needles, capsys):
    # the hardy members exited 0 with every figure 0.0 (ramp=0 after two
    # divide-by-zero warnings); a=nan was refused as an overflow.  Twin: the
    # default ramp runs
    argv = ["whittaker", "classify", "--json", "--testfn"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv + [testfn]) == 2
    assert _one_error_line(capsys, *needles)
    assert run(argv + ["hardy:ramp=1.8"]) == 0
    assert json.loads(capsys.readouterr().out)["testfn"] == "hardy:ramp=1.8"


def test_classify_requires_testfn(capsys):
    assert run(["whittaker", "classify"]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# console script


def _hypb_command():
    """The installed console script, else the same entry point via python -m."""
    exe = shutil.which("hypb")
    return [exe] if exe else [sys.executable, "-m", "hypb"]


def test_console_script_smoke():
    hypb = _hypb_command()
    proc = subprocess.run(hypb + ["verify", "adjointness"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert "PASSED" in proc.stdout
    # the entry point must hand back main's exit codes, not just exit cleanly
    proc = subprocess.run(hypb + ["verify", "transform-oracles", "--grid", "128"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    proc = subprocess.run(hypb + ["verify", "no-such-check"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2


@pytest.mark.parametrize("argv", [
    ["transform", "--op", "c_down", "--testfn", "gaussian:c=2,sigma=4", "--grid", "128"],
    ["whittaker", "tabulate", "--family", "Y", "--points", "20000"],
])
def test_a_reader_that_closes_stdout_early_ends_the_command_quietly(argv):
    # each CSV is over 1 MB, past a pipe's buffer: the command is still writing
    # when the reader takes one line and closes.  This was a BrokenPipeError
    # traceback with exit 1, the status of a violated tolerance
    proc = subprocess.Popen([sys.executable, "-m", "hypb", *argv], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=_checkout_env())
    assert proc.stdout.readline() in (b"x,y,re,im\n", b"t,re,im,residual\n")
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 141
    assert err == b""


def _fresh_python(code: str, *args: str):
    """`code` in a fresh interpreter that imports hypb from this checkout."""
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, timeout=120, env=_checkout_env())
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _loaded_after_cli_import(modules) -> list:
    """Which of `modules` a fresh interpreter holds after `import hypb.cli`."""
    return _fresh_python("import json, sys, hypb.cli; "
                         f"print(json.dumps([m for m in {list(modules)!r} if m in sys.modules]))")


def test_cli_import_leaves_scipy_signal_out():
    assert _loaded_after_cli_import(["scipy.signal"]) == []


def test_cli_import_leaves_concurrent_futures_out():
    # the classifier builds its thread pool, and imports the executor, on its
    # first call
    assert _loaded_after_cli_import(["concurrent.futures"]) == []


def test_cli_import_leaves_quadrature_and_optimize_out():
    # the battery's quadratures are numpy's own (verify._de_quad); scipy.integrate
    # would load scipy.optimize with it
    assert _loaded_after_cli_import(["scipy.integrate", "scipy.optimize"]) == []


_AFTER_EACH = """
import contextlib, io, json, sys, threading
import hypb.cli

def probe():
    return eval(sys.argv[1])

seen = [probe()]
for step in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()):
        exec(step)
    seen.append(probe())
print(json.dumps(seen))
"""


def _after_each(probe: str, steps) -> list:
    """`probe`, a Python expression, in a fresh interpreter after `import
    hypb.cli`, then after each step (Python source) in turn."""
    return _fresh_python(_AFTER_EACH, probe, json.dumps(steps))


def _scipy_after_each(steps) -> list:
    """The scipy modules held after `import hypb.cli`, then after each step."""
    return _after_each("sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))",
                       steps)


def _cli_step(argv) -> str:
    return f"assert hypb.cli.main({argv!r}) == 0, {argv!r}"


def test_no_cli_command_loads_scipy():
    # scipy is a test-only dependency: numpy.fft, the numpy E2 of whittaker.py
    # and verify._de_quad cover every command
    argvs = [["transform", "--op", op, "--testfn", "gaussian:c=2,sigma=4", "--grid", "32",
              "--method", method, "--json"]
             for op in ("c_down", "b_up", "e") for method in ("fft", "quadrature")]
    argvs += [["whittaker", "classify", "--testfn", "conjrat:a=1,k=2", "--premultiply-M"],
              ["whittaker", "tabulate", "--family", "X", "--A", "1", "--B", "1"],
              ["whittaker", "tabulate", "--family", "Y", "--A", "1", "--B", "1"]]
    argvs += [["verify", check, "--json"] for check in ("whittaker-ode", "liouville",
                                                        "adjointness")]
    seen = _scipy_after_each([_cli_step(a) for a in argvs])
    assert len(seen) == len(argvs) + 1
    assert seen == [[]] * len(seen)


def test_only_classify_starts_threads():
    # transform, tabulate and verify adjointness run on the main thread alone;
    # twin: the classifier's first call starts its pool
    argvs = [["transform", "--op", "c_down", "--testfn", "gaussian:c=2,sigma=4", "--grid", "32",
              "--json"],
             ["transform", "--op", "b_up", "--testfn", "gaussian:c=2,sigma=4", "--grid", "32",
              "--method", "quadrature", "--json"],
             ["whittaker", "tabulate", "--family", "Y", "--A", "1", "--B", "1"],
             ["verify", "adjointness", "--json"],
             ["whittaker", "classify", "--testfn", "conjrat:a=1,k=2", "--premultiply-M"]]
    seen = _after_each("threading.active_count()", [_cli_step(a) for a in argvs])
    assert seen[:-1] == [1] * len(argvs)
    assert seen[-1] > 1


def test_classify_refuses_an_overflow_on_the_pool_without_a_warning():
    # numpy's errstate does not reach the pool's threads, so each block sets
    # its own: under -W error a warning there would end in a traceback.
    # Twin: k = 2 runs to a verdict with nothing on stderr
    argv = [sys.executable, "-W", "error", "-m", "hypb", "whittaker", "classify", "--json",
            "--testfn"]
    proc = subprocess.run(argv + ["conjrat:a=0.01,k=200"], capture_output=True, text=True,
                          timeout=120, env=_checkout_env())
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: the partial Fourier energies |hhat|^2 of rows 0-15")
    assert proc.stderr.count("\n") == 1
    proc = subprocess.run(argv + ["conjrat:a=0.01,k=2"], capture_output=True, text=True,
                          timeout=120, env=_checkout_env())
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout)["testfn"] == "conjrat:a=0.01,k=2"


def test_the_scipy_probe_flags_a_scipy_import():
    seen = _scipy_after_each([_cli_step(["verify", "adjointness"]), "import scipy.special"])
    assert seen[:2] == [[], []]
    assert "scipy.special" in seen[2]
