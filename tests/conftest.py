import functools
import importlib.util
import pathlib
import random
import sys

import pytest

from cdlsem import has_errors, normalize_model, parse_model
from cdlsem.sat import Cnf

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def brute_cnf_status(cnf: Cnf) -> str:
    """Truth-table satisfiability on int bit masks (<= ~20 vars).

    Bit ``a`` of a mask is the valuation that makes variable ``v`` true
    exactly when bit ``v - 1`` of ``a`` is set.
    """
    n = cnf.num_vars
    full = (1 << (1 << n)) - 1
    true = [0]  # true[v]: the valuations where variable v is true
    for i in range(n):
        half = 1 << i
        # 2**i valuations with the variable false, then 2**i with it true
        unit = ((1 << half) - 1) << half
        true.append(unit * (full // ((1 << 2 * half) - 1)))
    ok = full
    for cl in cnf.clauses:
        sat = 0
        for l in cl:
            sat |= true[l] if l > 0 else full ^ true[-l]
        ok &= sat
        if not ok:
            return "unsat"
    return "sat"


def random_cnf(rng: random.Random, max_vars: int = 15, max_clauses: int = 60) -> Cnf:
    n = rng.randint(1, max_vars)
    clauses = []
    for _ in range(rng.randint(0, max_clauses)):
        if rng.random() < 0.01:
            clauses.append(())  # occasional empty clause
            continue
        width = rng.randint(1, 4)
        lits = set()
        for _ in range(width):
            v = rng.randint(1, n)
            lits.add(v if rng.random() < 0.5 else -v)
        clauses.append(tuple(sorted(lits, key=lambda l: (abs(l), l < 0))))
    return Cnf(n, tuple(clauses), tuple(f"x{i}" for i in range(1, n + 1)))


def random_3sat(rng: random.Random, n: int, ratio: float = 4.26) -> Cnf:
    """Random 3-SAT on ``n`` variables, ``ratio`` clauses per variable: near
    4.26 about half the draws are satisfiable and most need search."""
    clauses = tuple(
        tuple(v * rng.choice((1, -1)) for v in rng.sample(range(1, n + 1), 3))
        for _ in range(round(ratio * n))
    )
    return Cnf(n, clauses, tuple(f"x{i}" for i in range(1, n + 1)))


def pigeonhole_cnf(pigeons: int, holes: int) -> Cnf:
    """Every pigeon in a hole, no hole shared; unsat when pigeons > holes."""
    var = lambda i, j: i * holes + j + 1
    clauses = [tuple(var(i, j) for j in range(holes)) for i in range(pigeons)]
    for j in range(holes):
        for i1 in range(pigeons):
            for i2 in range(i1 + 1, pigeons):
                clauses.append((-var(i1, j), -var(i2, j)))
    names = tuple(f"p{i}h{j}" for i in range(pigeons) for j in range(holes))
    return Cnf(pigeons * holes, tuple(clauses), names)


def mk_model(source: str, name: str = "<test>"):
    """Parse and normalize inline CDL source, failing the test on errors."""
    nodes, diagnostics = parse_model(source, name)
    assert not has_errors(diagnostics), diagnostics
    return normalize_model(nodes)


def load_model(path: pathlib.Path):
    nodes, diagnostics = parse_model(path.read_text(), str(path))
    assert not has_errors(diagnostics), diagnostics
    return normalize_model(nodes)


_GOALS = [
    "{X}", "{!X}", "{X == 0}", "{X != 0}", "{X > 1}", "{X == \"x\"}",
    "{X && Y}", "{X || !Y}", "{X implies Y}", "{is_substr(X, \"x\")}",
    "{get_data(X) == 1}", "{is_enabled(X)}",
]


def random_model(rng) -> str:
    """CDL source of 1-4 nodes with none/data flavors, interfaces,
    nesting and references to the undeclared GHOST."""
    n = rng.randint(1, 4)
    names = [f"F{i}" for i in range(n)]
    refs = names + ["GHOST"]
    bodies = []
    for name in names:
        kind = rng.choice(["option", "component", "interface"])
        flavors = ["bool", "booldata", "data"] + ["none"] * (kind != "interface")
        lines = [f"flavor {rng.choice(flavors)}"]
        for prop in ("requires", "active_if"):
            if rng.random() < 0.4:
                goal = rng.choice(_GOALS)
                goal = goal.replace("X", rng.choice(refs))
                lines.append(f"{prop} " + goal.replace("Y", rng.choice(refs)))
        if kind != "interface":
            if rng.random() < 0.2:
                lines.append(f"calculated {rng.choice(refs + ['1', '2'])}")
            elif rng.random() < 0.25:
                lines.append(f"legal_values {rng.choice(['1 2', '0 to 1', 'x'])}")
        bodies.append([kind, name, lines])
    for i in range(1, n):
        if bodies[i][0] != "interface" and rng.random() < 0.5:
            iface = [b[1] for b in bodies if b[0] == "interface"]
            if iface:
                bodies[i][2].append(f"implements {rng.choice(iface)}")
    text = ""
    for kind, name, lines in reversed(bodies):
        # a component may take every node after it as its children
        nest = kind == "component" and rng.random() < 0.5
        body = "\n".join(lines) + "\n" + (text if nest else "")
        text = f"cdl_{kind} {name} {{\n{body}}}\n" + ("" if nest else text)
    return text


@functools.lru_cache(maxsize=None)
def perfbench_gen():
    """The benchmark's seeded model generator, ``perfbench/gen.py``."""
    path = pathlib.Path(__file__).parent.parent / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def fixture_paths(*groups: str) -> list[pathlib.Path]:
    out: list[pathlib.Path] = []
    for group in groups:
        out.extend(sorted((FIXTURES / group).glob("*.cdl")))
    return out


@pytest.fixture(scope="session")
def sound_models():
    """The soundness corpus: path -> normalized model."""
    return {p: load_model(p) for p in fixture_paths("sound")}


@pytest.fixture(scope="session")
def family_models():
    return {p: load_model(p) for p in fixture_paths("family")}


@pytest.fixture(scope="session")
def analysis_models():
    return {p: load_model(p) for p in fixture_paths("analysis")}
