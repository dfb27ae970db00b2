"""The package surface and the hygiene of its modules.

The public names are the ones the acceptance suite, the README, the CLI and
the benchmark harness in bench/ reach through ``qstarlike.``, plus ``Sign``
(the type of ``PowerSeries.sign``).  A module that imports a name it never
uses fails here, since no linter runs in the test suite, and so does a
module-level function, class or constant, or a method or property of such a
class, that nothing in the package refers to: a name only its own unit test
uses has no place in the package.
"""

import ast
import re
from pathlib import Path

import qstarlike

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qstarlike"

PUBLIC = {
    "ClassParams",
    "criterion_weights",
    "ruscheweyh_coeff",
    "PowerSeries",
    "SampleGrid",
    "Sign",
    "poly_eval",
    "q_derivative",
    "Verdict",
    "coefficient_test",
    "criterion_min_margin",
    "extremal_function",
    "random_member",
    "QuadratureConfig",
    "WILF_RADII",
    "default_nodes",
    "integral_means",
    "min_real_part",
    "realpart_bound",
    "schwarz_witness",
    "sharpness_minimum",
    "subordination_constant",
    "subordination_report",
    "sweep_integral_means",
    "verify_integral_means",
    "wilf_positivity",
    "wilf_sequence",
    "__version__",
}


def test_public_names():
    assert len(qstarlike.__all__) == len(set(qstarlike.__all__))
    assert set(qstarlike.__all__) == PUBLIC
    for name in qstarlike.__all__:
        assert hasattr(qstarlike, name), name


def test_bench_uses_only_public_names():
    used = set()
    for path in (ROOT / "bench" / "workloads.py", ROOT / "bench" / "test_bench.py"):
        text = path.read_text()
        used |= set(re.findall(r"\bqs\.(\w+)", text))
        used |= set(re.findall(r"\bqstarlike\.(\w+)", text))
    # submodules (qs.cli, qs.analysis) and module dunders are not re-exports
    used = {
        name
        for name in used
        if not name.startswith("__") and not (PACKAGE / f"{name}.py").exists()
    }
    assert "criterion_min_margin" in used
    assert used <= set(qstarlike.__all__), sorted(used - set(qstarlike.__all__))


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that no other node of the module
    reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


def test_unused_import_check_detects_dead_import():
    assert unused_imports("import math\nimport numpy as np\nx = np.pi\n") == ["math (line 1)"]
    assert unused_imports("from .series import PowerSeries\nf: PowerSeries\n") == []


def test_modules_have_no_unused_imports():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    for path in modules:
        assert unused_imports(path.read_text()) == [], path.name


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def dead_names(sources: dict[str, str]) -> list[str]:
    """Module-level functions, classes and non-dunder constants (the Name
    targets of an Assign or AnnAssign), and the non-dunder methods and
    properties of those classes, that no code in the given modules refers to
    outside their own definition, by a Name it reads, an Attribute or an
    import alias; sources maps module names to their text.  Matching is by
    name alone: a method counts as used wherever any attribute of the same
    name is read."""
    defined, refs = [], set()
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            units = [(None, stmt)]
            if isinstance(stmt, (*FUNCTIONS, ast.ClassDef)):
                defined.append((module, stmt.name, stmt.name))
                units = [(stmt.name, stmt)]
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
                defined.extend((module, n, n) for n in names if not n.startswith("__"))
            if isinstance(stmt, ast.ClassDef):
                methods = [
                    node
                    for node in stmt.body
                    if isinstance(node, FUNCTIONS) and not node.name.startswith("__")
                ]
                parts = (*stmt.decorator_list, *stmt.bases, *stmt.body)
                rest = [node for node in parts if node not in methods]
                units = [(stmt.name, node) for node in rest] + [(m.name, m) for m in methods]
                defined.extend((module, f"{stmt.name}.{m.name}", m.name) for m in methods)
            for own, unit in units:
                for node in ast.walk(unit):
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                        refs.add((own, node.id))
                    elif isinstance(node, ast.Attribute):
                        refs.add((own, node.attr))
                    elif isinstance(node, ast.alias):
                        refs.add((own, node.name))
    used = {name for own, name in refs if name != own}
    return [f"{module}.{qual}" for module, qual, name in defined if name not in used]


def test_dead_name_check_detects_dead_function():
    source = "def used():\n    pass\n\n\ndef dead():\n    return dead()\n\n\nused()\n"
    assert dead_names({"m": source}) == ["m.dead"]
    assert dead_names({"a": "class C:\n    pass\n", "b": "from .a import C\n"}) == []
    assert dead_names({"a": "def f():\n    pass\n", "b": "import a\na.f()\n"}) == []


def test_dead_name_check_detects_dead_constant():
    # a constant that nothing reads, as a leftover LIMIT_Q beside a Q_MAX would be
    source = (
        "__all__ = []\n"
        "LIMIT_Q = 1.0 - 1.0e-6\n"
        "TOL: float = 1.0e-3\n"
        "SLACK: float = 1.0e-9\n"
        "WIDTH = 2 * TOL\n\n\n"
        "def check(x):\n"
        "    limit = WIDTH\n"
        "    return x <= limit\n\n\n"
        "check(0.0)\n"
    )
    assert dead_names({"m": source}) == ["m.LIMIT_Q", "m.SLACK"]
    assert dead_names({"a": "Q_MAX = 1.0\n", "b": "from .a import Q_MAX\n"}) == []


def test_dead_name_check_detects_dead_method():
    source = (
        "class C:\n"
        "    def __init__(self):\n"
        "        self.used()\n\n"
        "    def used(self):\n"
        "        pass\n\n"
        "    def dead(self):\n"
        "        return self.dead()\n\n"
        "    @property\n"
        "    def size(self):\n"
        "        return 1\n"
    )
    assert dead_names({"m": source, "n": "from .m import C\nprint(C().size)\n"}) == ["m.C.dead"]
    assert dead_names({"m": source}) == ["m.C", "m.C.dead", "m.C.size"]


def test_module_level_names_are_used():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert "cli" in sources
    assert dead_names(sources) == []
