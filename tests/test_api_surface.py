"""Every public name of the package has a user in the program.

A name in a module's `__all__` must be read somewhere in `src/` or
`scripts/`: as a name, an attribute or an import.  Its own `def`, `class`
or assignment, its string in `__all__`, and a function's reads of its own
name inside its own body (recursion) do not count, and neither do reads
from `tests/`: a function that only its own test calls belongs in the
test, so it fails here.

Every module-level private name (`_name`: a function, class or assigned
value) defined in `src/` must be read somewhere in `src/`, by the same
rules, so a body that a rewrite replaced cannot live on for its tests alone.
By the same token every field of `verify.RunConfig` must be read as an
attribute in `src/` outside the class body: a setting no check reads is
a knob that does nothing.

The fft and quadrature paths of `transforms` share no code but
`_fft_shape`: the module-level names that the bodies of one path reach
through the call graph of `src/hypb` are not reached from the other.

A check's id is written once, as its `CHECKS` key: in `src/` only
`run_checks` makes a `_Recorder`, and no function that `CHECKS` registers
returns a value, so no check body names or returns its own reports.

A RunConfig's grid reaches the checks only as `battery_spec()`: outside the
`RunConfig` class no code in `src/` reads a config's `nx`, `ny`, `L` or `H`,
so no check derives a second grid of its own from them.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PROGRAM = ("src", "scripts")


def _trees(root: Path, tops):
    for top in tops:
        for path in sorted((root / top).rglob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


def _exported(tree) -> list:
    """The strings of a module's literal `__all__`, or none."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return [elt.value for elt in node.value.elts]
    return []


def _references(root: Path, tops, outside: str = "", attributes: bool = False) -> set:
    """Names read anywhere in the given trees (loads, attributes, imports),
    less each function's reads of its own name inside its own body.  The
    body of the class named `outside` is not walked; with `attributes` only
    attribute reads count."""
    seen = set()

    def visit(node, own: frozenset):
        if isinstance(node, ast.ClassDef) and node.name == outside:
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            own = own | {node.name}
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id not in own and not attributes:
                seen.add(node.id)
        elif isinstance(node, ast.Attribute):
            if node.attr not in own:
                seen.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and not attributes:
            seen.update(alias.name for alias in node.names)
        for child in ast.iter_child_nodes(node):
            visit(child, own)

    for _, tree in _trees(root, tops):
        visit(tree, frozenset())
    return seen


def unread_exports(root: Path) -> dict:
    """{module path: names} of `__all__` entries under src/ that src/ and scripts/ never read."""
    used = _references(root, PROGRAM)
    unread = {}
    for path, tree in _trees(root, ("src",)):
        missing = sorted(set(_exported(tree)) - used)
        if missing:
            unread[str(path.relative_to(root))] = missing
    return unread


def _private_defs(tree) -> list:
    """The module-level `_name`s a module defines by def, class or assignment."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def unread_privates(root: Path) -> dict:
    """{module path: names} of module-level `_name`s under src/ that src/ never reads."""
    used = _references(root, ("src",))
    unread = {}
    for path, tree in _trees(root, ("src",)):
        missing = sorted(set(_private_defs(tree)) - used)
        if missing:
            unread[str(path.relative_to(root))] = missing
    return unread


def test_every_exported_name_is_referenced():
    unread = unread_exports(ROOT)
    assert not unread, f"exported names that src/ and scripts/ never read: {unread}"


def test_a_name_read_only_by_its_test_is_reported(tmp_path):
    # negative control: `helper` is exported and read only from tests/, and
    # `walk` only from tests/ and from its own recursive call; `api` calls
    # `leaf`, so `leaf` is read
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "scripts").mkdir()
    (tmp_path / "tests").mkdir()
    (tmp_path / "src" / "pkg" / "mod.py").write_text(
        '__all__ = ["api", "helper", "leaf", "walk"]\n\n\n'
        'def api():\n    return leaf()\n\n\n'
        'def helper():\n    return 2\n\n\n'
        'def leaf():\n    return 1\n\n\n'
        'def walk(x):\n    return [walk(y) for y in x]\n')
    (tmp_path / "scripts" / "run.py").write_text("from pkg.mod import api\n\napi()\n")
    (tmp_path / "tests" / "test_mod.py").write_text(
        "from pkg import mod\n\n\ndef test_helper():\n    assert mod.helper() == 2\n"
        "    assert mod.walk([[]]) == [[]]\n")
    assert unread_exports(tmp_path) == {"src/pkg/mod.py": ["helper", "walk"]}


def test_every_private_name_is_read_in_src():
    unread = unread_privates(ROOT)
    assert not unread, f"private names that src/ never reads: {unread}"


def test_an_orphan_private_helper_is_reported(tmp_path):
    # negative control: `_old_body` is read only by its own recursive call
    # and from tests/; `_body` and `_TABLE` are read by `api`
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "tests").mkdir()
    (tmp_path / "src" / "pkg" / "mod.py").write_text(
        '__all__ = ["api"]\n_TABLE = {"a": 1}\n\n\n'
        'def api():\n    return _body(_TABLE)\n\n\n'
        'def _body(t):\n    return t\n\n\n'
        'def _old_body(t):\n    return _old_body(t[1:]) if t else t\n')
    (tmp_path / "tests" / "test_mod.py").write_text(
        "from pkg.mod import _old_body\n\n\ndef test_old():\n    assert _old_body([]) == []\n")
    assert unread_privates(tmp_path) == {"src/pkg/mod.py": ["_old_body"]}


def unread_fields(root: Path, cls: str) -> list:
    """The annotated fields of class `cls` under src/ that no attribute read
    in src/ outside the class body names."""
    fields = [stmt.target.id for _, tree in _trees(root, ("src",)) for node in tree.body
              if isinstance(node, ast.ClassDef) and node.name == cls
              for stmt in node.body if isinstance(stmt, ast.AnnAssign)]
    assert fields, f"no class {cls} with fields under {root / 'src'}"
    return sorted(set(fields) - _references(root, ("src",), outside=cls, attributes=True))


def test_every_run_config_field_is_read_in_src():
    unread = unread_fields(ROOT, "RunConfig")
    assert not unread, f"RunConfig fields that no check reads: {unread}"


def test_an_unread_config_field_is_reported(tmp_path):
    # negative control: `tol` is read only inside the class body and shares
    # its name with a local; `nx` is read by `run`
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "mod.py").write_text(
        "class RunConfig:\n    nx: int = 4\n    tol: float = 0.0\n\n"
        "    def tolerance(self, default):\n        return self.tol or default\n\n\n"
        "def run(cfg):\n    tol = 1e-3\n    return cfg.nx * tol\n")
    assert unread_fields(tmp_path, "RunConfig") == ["tol"]


# ---------------------------------------------------------------------------
# the two transform paths share no code

QUADRATURE_ROOTS = ("_plane_quad", "_product_quad", "conv_valid")
FFT_ROOTS = ("_plane_fft", "_cauchy_spectrum", "_beurling_symbol", "_FACTORIZATION")
# the one function that picks a path by its `method` argument; every
# operator call goes through it, so the walk stops there
PATH_SWITCHES = frozenset({"transform"})
SHARED_BY_BOTH_PATHS = frozenset({"_fft_shape"})


def _definitions(trees) -> dict:
    """{name: nodes} of the module-level defs, classes and assignments."""
    defs = {}
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                defs.setdefault(name, []).append(node)
    return defs


def _reads(node) -> set:
    """Names, attributes and imported names read under `node`, less its type annotations."""
    seen, todo = set(), [node]
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            seen.add(node.id)
        elif isinstance(node, ast.Attribute):
            seen.add(node.attr)
        elif isinstance(node, ast.ImportFrom):  # an import inside a body
            seen.update(alias.name for alias in node.names)
        for field, value in ast.iter_fields(node):
            if field not in ("annotation", "returns"):
                todo += [v for v in (value if isinstance(value, list) else [value])
                         if isinstance(v, ast.AST)]
    return seen


def _reachable(defs: dict, roots) -> set:
    """The module-level names the roots reach, stopping at the path switches."""
    seen, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name in seen or name in PATH_SWITCHES or name not in defs:
            continue
        seen.add(name)
        for node in defs[name]:
            todo += _reads(node)
    return seen


def shared_path_names(defs: dict) -> set:
    """Names both paths reach, less the allowed ones."""
    missing = [r for r in QUADRATURE_ROOTS + FFT_ROOTS if r not in defs]
    assert not missing, f"path roots not defined in src/hypb: {missing}"
    both = _reachable(defs, QUADRATURE_ROOTS) & _reachable(defs, FFT_ROOTS)
    return both - SHARED_BY_BOTH_PATHS


def _program_definitions() -> dict:
    return _definitions(tree for _, tree in _trees(ROOT, ("src",)))


def test_fft_and_quadrature_paths_share_only_fft_shape():
    shared = shared_path_names(_program_definitions())
    assert not shared, f"names both transform paths reach: {sorted(shared)}"


# the bridges the paths once had: conv_valid through the fft path's pruned
# pass, and planar_table's average="all" through the fft path's lattice
BRIDGES = """
def conv_valid(tab, data):
    (a0, a1), (b0, b1) = tab.shape, data.shape
    kspec = sfft.fft2(tab, s=_fft_shape(tab.shape))
    return _pruned_fft2(kspec, data, 0, False, slice(b0 - 1, a0), slice(b1 - 1, a1))


def planar_table(kind, ny, nx, hx, hy, average="shell"):
    rows = ny if isinstance(ny, range) else range(1 - ny, ny)
    if average == "all":
        return _planar_all(rows.stop, nx, hx, hy, np.empty((len(rows), 2 * nx - 1), complex))
"""


def test_a_bridge_between_the_paths_is_reported():
    # negative control: the program's definitions with the bridges' bodies added
    defs = _program_definitions()
    for name, nodes in _definitions([ast.parse(BRIDGES)]).items():
        defs[name] = defs[name] + nodes
    assert {"_pruned_fft2", "_pruned", "_planar_all"} <= shared_path_names(defs)


# ---------------------------------------------------------------------------
# a check's id is its registry key alone


def _own_body(node):
    """The nodes of a function's body, less those of the functions and lambdas inside it."""
    todo = list(node.body)
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            todo += list(ast.iter_child_nodes(node))


def _registered(tree) -> set:
    """The functions a module's `CHECKS` dict names, directly or as the call a lambda makes."""
    names = set()
    for node in tree.body:
        targets = getattr(node, "targets", [getattr(node, "target", None)])
        if any(isinstance(t, ast.Name) and t.id == "CHECKS" for t in targets):
            for value in node.value.values:
                call = value.body if isinstance(value, ast.Lambda) else value
                name = call.func if isinstance(call, ast.Call) else call
                names.add(name.id)
    return names


def recorder_breaches(trees) -> list:
    """The breaches of the single name: "<name>: makes a _Recorder" for each
    module-level statement but `run_checks` that makes one, and "<name>:
    returns a value" for each registered check that returns one."""
    breaches = []
    for tree in trees:
        checks = _registered(tree)
        for node in tree.body:
            name = getattr(node, "name", "<module>")
            if name != "run_checks" and any(
                    isinstance(n, ast.Call) and getattr(n.func, "id", None) == "_Recorder"
                    for n in ast.walk(node)):
                breaches.append(f"{name}: makes a _Recorder")
            if name in checks and any(isinstance(n, ast.Return) and n.value is not None
                                      for n in _own_body(node)):
                breaches.append(f"{name}: returns a value")
    return breaches


def test_only_run_checks_makes_a_recorder_and_no_check_returns_one():
    trees = [tree for _, tree in _trees(ROOT, ("src",))]
    assert any(_registered(tree) for tree in trees), "no CHECKS registry under src/"
    breaches = recorder_breaches(trees)
    assert not breaches, f"check bodies that name or return their own reports: {breaches}"


# a check as every body was written before run_checks made the recorders
ROGUE_CHECK = """
def check_rogue(cfg):
    rec = _Recorder("rogue", cfg.battery_spec(), cfg.method)

    def inner():
        return 1.0  # a nested helper's return is its own

    rec.at_most("x", inner(), 2.0)
    return rec.reports


def check_quiet(cfg, rec):
    rec.at_most("x", 1.0, 2.0)


CHECKS: dict = {"rogue": check_rogue, "quiet": lambda cfg, rec: check_quiet(cfg, rec)}
"""


def test_a_check_that_builds_its_own_recorder_is_reported():
    # negative control: the program's modules with a self-recording check added
    trees = [tree for _, tree in _trees(ROOT, ("src",))] + [ast.parse(ROGUE_CHECK)]
    assert recorder_breaches(trees) == ["check_rogue: makes a _Recorder",
                                        "check_rogue: returns a value"]


# ---------------------------------------------------------------------------
# a RunConfig's grid reaches the checks as battery_spec() alone

GRID_FIELDS = frozenset({"nx", "ny", "L", "H"})


def grid_field_reads(trees) -> list:
    """"<function>: <name>.<field>" for each read of a RunConfig's grid field
    outside the `RunConfig` class, a config being a parameter annotated
    with `RunConfig` or a name assigned a `RunConfig(...)` call."""
    breaches = []
    for tree in trees:
        configs = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.arg) and node.annotation is not None:
                if "RunConfig" in _reads(node.annotation):
                    configs.add(node.arg)
            elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                if "RunConfig" in _reads(node.value.func):
                    configs.update(t.id for t in node.targets if isinstance(t, ast.Name))

        def visit(node, where):
            if isinstance(node, ast.ClassDef) and node.name == "RunConfig":
                return
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                where = node.name
            if (isinstance(node, ast.Attribute) and node.attr in GRID_FIELDS
                    and isinstance(node.value, ast.Name) and node.value.id in configs):
                breaches.append(f"{where}: {node.value.id}.{node.attr}")
            for child in ast.iter_child_nodes(node):
                visit(child, where)

        visit(tree, "<module>")
    return list(dict.fromkeys(breaches))


def test_no_check_reads_the_run_config_grid_but_through_battery_spec():
    breaches = grid_field_reads(tree for _, tree in _trees(ROOT, ("src",)))
    assert not breaches, f"RunConfig grid fields read outside battery_spec(): {breaches}"


# a check that derives its own grid from the config's, and a caller that
# reads a field of the config it made
DERIVED_GRID = """
class RunConfig:
    nx: int = 256

    def battery_spec(self):
        return GridSpec(L=self.L, H=self.H, nx=self.nx, ny=self.ny)


def check_scaled(cfg: RunConfig, rec: _Recorder):
    g = math.gcd(cfg.nx, cfg.ny)
    rec.on(GridSpec(L=cfg.L, H=cfg.H, nx=cfg.nx // g, ny=cfg.ny // g), "fft")


def check_pinned(cfg: RunConfig, rec: _Recorder):
    rec.on(cfg.battery_spec(), cfg.method)


def main(nx):
    cfg = vf.RunConfig(nx=nx)
    return cfg.ny
"""


def test_a_check_that_derives_its_own_grid_is_reported():
    # negative control: the program's modules with such a check added
    trees = [tree for _, tree in _trees(ROOT, ("src",))] + [ast.parse(DERIVED_GRID)]
    assert grid_field_reads(trees) == ["check_scaled: cfg.nx", "check_scaled: cfg.ny",
                                       "check_scaled: cfg.L", "check_scaled: cfg.H",
                                       "main: cfg.ny"]
