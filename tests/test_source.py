"""Checks on the package source itself."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).parents[1]
SOURCES = sorted((ROOT / "src" / "cdlsem").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never uses; names in ``__all__`` count
    as used."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in used]


def test_unused_imports_are_found():
    source = (
        "from __future__ import annotations\nimport os.path\nimport re\n"
        "from .a import b, c as d, e\n__all__ = ['e']\nre.compile(d)\n"
    )
    assert unused_imports(source) == ["os (line 2)", "b (line 4)"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def unused_private_names(sources: dict[str, str]) -> list[str]:
    """Private names (a leading underscore, not a dunder) that a module
    assigns, defines or declares as a class at its top level, and that no
    module of ``sources`` reads: as a name, an attribute or an import."""
    defined: list[tuple[str, str, int]] = []
    read: set[str] = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                targets = [(stmt.name, stmt.lineno)]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                roots = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                targets = [(n.id, n.lineno) for t in roots
                           for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            defined += [(module, name, line) for name, line in targets
                        if name.startswith("_") and not name.endswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return [f"{module}: {name} (line {line})" for module, name, line in defined
            if name not in read]


def test_unused_private_names_are_found():
    sources = {
        "a": "_A = 1\n_B, (_C, d) = 2, (3, 4)\n_E: int = 5\n__all__ = []\n"
             "def _f():\n    return _f()\nclass _K: pass\n_G = 6\nx = _A\n",
        "b": "from .a import _E\nimport a\na._G\ndef g(_unused):\n    _local = 1\n",
    }
    assert unused_private_names(sources) == [
        "a: _B (line 2)", "a: _C (line 2)", "a: _K (line 7)"
    ]


def test_no_unused_private_names():
    sources = {path.name: path.read_text() for path in SOURCES}
    assert unused_private_names(sources) == []


def solver_private_names(source: str) -> set[str]:
    """Names with one leading underscore (dunders aside) that class
    ``Solver`` defines in its body or sets on ``self``."""
    cls = next(node for node in ast.parse(source).body
               if isinstance(node, ast.ClassDef) and node.name == "Solver")
    names = set()
    for stmt in cls.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names.add(stmt.name)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            roots = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names.update(n.id for t in roots for n in ast.walk(t) if isinstance(n, ast.Name))
    names.update(node.attr for node in ast.walk(cls)
                 if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                 and node.value.id == "self")
    return {n for n in names if n.startswith("_") and not n.endswith("__")}


SOLVER_INTERNALS = solver_private_names(
    (ROOT / "src" / "cdlsem" / "cdcl.py").read_text()
) | {"trail_lim"}


def solver_internals(source: str) -> list[str]:
    """Attributes a module touches, on any object, that are private to the
    solver: ``SOLVER_INTERNALS``."""
    found = [
        (node.lineno, node.col_offset, node.attr)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in SOLVER_INTERNALS
    ]
    return [f"{attr} (line {line})" for line, _, attr in sorted(found)]


def test_solver_private_names_are_read_from_the_class():
    source = (
        "class Other:\n    def _o(self): self._p = 1\n"
        "class Solver:\n    _K = 1\n    def __init__(self): self._v = self.w = 0\n"
        "    def _f(self, other): other._q = 1\n    def g(self): pass\n"
    )
    assert solver_private_names(source) == {"_K", "_v", "_f"}
    assert {"_propagate", "_cancel_until", "_assign"} <= SOLVER_INTERNALS


def test_solver_internals_are_found():
    # a solver internal is flagged through any name; another class's
    # one-underscore helper is not
    source = (
        "s.solve(); s._propagate()\nx = s.trail_lim[-1] + s.trail[0]\n"
        "class A:\n    def f(self):\n"
        "        return self.__class__, s.model, s.phase, s._cancel_until(0)\n"
        "y = PropConfig._x(); other = s; other._propagate()\n"
    )
    assert solver_internals(source) == [
        "_propagate (line 1)", "trail_lim (line 2)", "_cancel_until (line 5)",
        "_propagate (line 6)",
    ]


def test_analyses_use_only_the_public_solver():
    # sat.py talks to the solver through solve, probe, add_clause, model
    # and phase; the search's own state stays inside cdcl.py
    sat = SOURCES[0].with_name("sat.py")
    assert solver_internals(sat.read_text()) == []


def frozen_dataclasses(source: str) -> list[str]:
    """Classes that a ``dataclass(..., frozen=...)`` decorator builds."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef):
            for deco in node.decorator_list:
                func = deco.func if isinstance(deco, ast.Call) else None
                name = getattr(func, "id", getattr(func, "attr", None))
                if name == "dataclass" and any(
                    k.arg == "frozen" for k in deco.keywords
                ):
                    found.append(f"{node.name} (line {node.lineno})")
    return found


def test_frozen_dataclasses_are_found():
    source = (
        "@dataclass(frozen=True, slots=True)\nclass A: pass\n"
        "@dataclasses.dataclass(\n    slots=True, frozen=True)\nclass B: pass\n"
        "@dataclass(slots=True)\nclass C: pass\n@frozen\nclass D: pass\n"
    )
    assert frozen_dataclasses(source) == ["A (line 2)", "B (line 5)"]


def test_records_come_from_the_frozen_helper():
    # exprs.frozen builds every immutable record: a plain frozen dataclass
    # stores each field through object.__setattr__, which is slower
    assert [f"{p.name}: {c}" for p in SOURCES for c in frozen_dataclasses(p.read_text())] == []


_PROCESS_STREAMS = ("exit", "stdout", "stderr")


def stray_output(source: str, swap: str | None = None) -> list[str]:
    """References to ``print`` and to ``sys.exit``, ``sys.stdout`` and
    ``sys.stderr``, by attribute or import.  The top-level function named
    ``swap`` may name ``sys.stdout`` and ``sys.stderr``."""
    tree = ast.parse(source)
    allowed = {id(node) for stmt in tree.body
               if isinstance(stmt, ast.FunctionDef) and stmt.name == swap
               for node in ast.walk(stmt)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == "print":
            found.append((node.lineno, node.col_offset, "print"))
        elif (isinstance(node, ast.Attribute) and node.attr in _PROCESS_STREAMS
              and isinstance(node.value, ast.Name) and node.value.id == "sys"
              and (node.attr == "exit" or id(node) not in allowed)):
            found.append((node.lineno, node.col_offset, f"sys.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "sys":
            found += [(node.lineno, node.col_offset, f"sys.{alias.name}")
                      for alias in node.names if alias.name in _PROCESS_STREAMS]
    return [f"{what} (line {line})" for line, _, what in sorted(found)]


def test_stray_output_is_found():
    source = (
        "import sys\nfrom sys import argv, stderr as err\nprint('x')\n"
        "def main(out=None):\n    out = out or sys.stdout\n    sys.stderr = out\n"
        "    print(out); sys.exit(1)\n"
        "def other(write=print):\n    sys.stdout.write(sys.argv[0])\n"
    )
    assert stray_output(source, swap="main") == [
        "sys.stderr (line 2)", "print (line 3)", "print (line 7)",
        "sys.exit (line 7)", "print (line 8)", "sys.stdout (line 9)",
    ]
    assert stray_output(source).count("sys.stdout (line 5)") == 1


def test_output_goes_to_the_given_streams():
    # every byte of output goes to the streams cli.main was given: only
    # main's argparse swap names the process's streams, and only
    # __main__.py exits the process
    found = [f"{p.name}: {x}" for p in SOURCES if p.name != "__main__.py"
             for x in stray_output(p.read_text(), "main" if p.name == "cli.py" else None)]
    assert found == []


def test_readme_library_example_runs(capsys):
    # the README's python block, verbatim but for the model's file name
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("## Library use"):]
    start = section.index("```python\n") + len("```python\n")
    block = section[start:section.index("```\n", start)]
    fixture = ROOT / "tests" / "fixtures" / "sound" / "s22_mixed.cdl"
    assert block.count('"model.cdl"') == 2
    exec(block.replace('"model.cdl"', repr(str(fixture))), {})
    verdict, dead = capsys.readouterr().out.splitlines()
    assert verdict.startswith(("accepted ", "rejected ")) and dead.startswith("[")
