import argparse
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hypb import cli
from hypb.report import strip_runtime


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
    for bad in ("2.8", "0:5", "-1:2"):
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


def test_threads_resolution(monkeypatch):
    monkeypatch.delenv("HYPB_THREADS", raising=False)
    assert cli.resolve_threads(None) is None
    assert cli.resolve_threads(2) == 2
    monkeypatch.setenv("HYPB_THREADS", "3")
    assert cli.resolve_threads(None) == 3
    assert cli.resolve_threads(2) == 2  # explicit flag wins
    monkeypatch.setenv("HYPB_THREADS", "many")
    with pytest.raises(SystemExit):
        cli.resolve_threads(None)


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
    # an impossible tolerance forces the live sub-checks below the rounding floor
    assert run(["verify", "structural-identities", "--tol", "1e-20"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL]" in out
    assert out.strip().splitlines()[-1].startswith("FAILED")


def test_verify_json_is_deterministic(capsys):
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


def test_verify_bad_threads_env(monkeypatch, capsys):
    monkeypatch.setenv("HYPB_THREADS", "lots")
    assert run(["verify", "adjointness"]) == 2
    assert "HYPB_THREADS" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# transform subcommand


def test_transform_requires_testfn(capsys):
    assert run(["transform", "--op", "b_down"]) == 2
    capsys.readouterr()


def test_transform_unknown_op(capsys):
    assert run(["transform", "--op", "riesz", "--testfn", "gaussian:c=2,sigma=4"]) == 2
    assert "riesz" in capsys.readouterr().err


@pytest.mark.parametrize("op, grid", [("b", "96"), ("b_down", "96:48")])
def test_transform_singular_quadrature_needs_square_cells(op, grid, capsys):
    # the whole-plane grid of the default domain has 1:2 cells
    assert run(["transform", "--op", op, "--method", "quadrature", "--grid", grid,
                "--testfn", "gaussian:c=2,sigma=4"]) == 2
    err = capsys.readouterr().err
    assert "square cells" in err and "Traceback" not in err


def test_verify_singular_quadrature_needs_square_cells(capsys):
    # the battery grid of this domain has 2:1 cells
    assert run(["verify", "norm-identity", "--method", "quadrature", "--grid", "64",
                "--domain", "2.8:2.8"]) == 2
    err = capsys.readouterr().err
    assert "square cells" in err and "Traceback" not in err


def test_threads_must_be_positive(capsys):
    assert run(["verify", "adjointness", "--threads", "0"]) == 2
    assert "thread" in capsys.readouterr().err


@pytest.mark.parametrize("spec", ["nosuch:a=1", "gaussian:zz=1", "gaussian:c"])
def test_transform_rejects_bad_testfn(spec, capsys):
    assert run(["transform", "--op", "b_down", "--testfn", spec, "--grid", "8"]) == 2
    capsys.readouterr()


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
@pytest.mark.parametrize("trange", ["0.1:800", "0.1:1500"])
def test_tabulate_refuses_ranges_that_overflow(family, trange, capsys):
    assert run(["whittaker", "tabulate", "--family", family, "--A", "0", "--B", "1",
                "--range", trange, "--json"]) == 2
    assert "700" in capsys.readouterr().err


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
    proc = subprocess.run(hypb + ["verify", "adjointness", "--tol", "1e-20"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    proc = subprocess.run(hypb + ["verify", "no-such-check"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2


def _loaded_after_cli_import(modules) -> list:
    """Which of `modules` a fresh interpreter holds after `import hypb.cli`."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = ("import json, sys, hypb.cli; "
            f"print(json.dumps([m for m in {list(modules)!r} if m in sys.modules]))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_cli_import_leaves_scipy_signal_out():
    assert _loaded_after_cli_import(["scipy.signal"]) == []


def test_cli_import_leaves_quadrature_and_optimize_out():
    # only the battery's quadrature oracles use scipy.integrate, which loads scipy.optimize
    assert _loaded_after_cli_import(["scipy.integrate", "scipy.optimize"]) == []
