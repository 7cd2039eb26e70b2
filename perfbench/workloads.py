"""The three workloads: generated inputs, command lists and output checks.

Each workload writes its inputs into a directory and returns the CLI
commands to run on them.  Every command carries the exit code the
generator predicts and a check of its output against facts the generator
planted, or against a second path through the program: a DIMACS round
trip, and ``validate --prop`` on a ``solve`` witness.
"""

from __future__ import annotations

import io
import json
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import gen
from cdlsem.cli import main as cli_main
from cdlsem.model import normalize_model
from cdlsem.parser import parse_model
from cdlsem.sat import export_dimacs, model_cnf, parse_dimacs, solve

ROOT = "⊤"  # the synthetic root's name in parse output

# (subcommand class, end-to-end metric) in report order
CLASSES = (
    ("parse", "parse_s"),
    ("check", "check_s"),
    ("translate", "translate_s"),
    ("analyze_sat", "analyze_sat_s"),
    ("analyze_backbone", "analyze_backbone_s"),
    ("analyze_implications", "analyze_implications_s"),
    ("validate", "validate_s"),
    ("validate_prop", "validate_prop_s"),
    ("enumerate", "enumerate_s"),
    ("enumerate_prop", "enumerate_prop_s"),
)


@dataclass
class Command:
    cls: str  # one of CLASSES
    argv: list[str]
    exit_code: int  # the code the generator predicts
    check: Callable[[str], str | None]  # output -> problem, or None


class Inputs:
    """Writes one workload's files; names are unique within the workload."""

    def __init__(self, directory: Path, seed: int):
        self.dir = directory
        self.seed = seed
        self.count = 0

    def model(self, size: int, data_values=gen.DATA_VALUES) -> tuple[gen.GenModel, str]:
        self.count += 1
        g = gen.generate(self.seed * 1000 + self.count, size, data_values)
        return g, self.write(f"m{self.count}_{size}.cdl", g.text)

    def write(self, name: str, text: str) -> str:
        path = self.dir / name
        path.write_text(text, encoding="utf-8")
        return str(path)


# ---------------------------------------------------------------------------
# compile: parser, model, prop and CNF layers; no solver


def compile_commands(inp: Inputs) -> list[Command]:
    cmds = []
    for size in (500, 1000, 2000):
        g, path = inp.model(size)
        cmds += [
            Command("parse", ["parse", path], 0, lambda out, g=g: _check_ast(g, out)),
            Command("parse", ["parse", path, "--emit", "pretty"], 0,
                    lambda out, g=g: _check_pretty(g, out)),
            Command("check", ["check", path], 0,
                    lambda out: None if out == "" else "violations reported"),
            Command("translate", ["translate", path, "--format", "prop"], 0,
                    lambda out, g=g: _check_prop_text(g, out)),
            Command("translate", ["translate", path, "--format", "dimacs"], 0,
                    lambda out, g=g: _check_dimacs(g, out)),
        ]
    return cmds


def _check_ast(g: gen.GenModel, out: str) -> str | None:
    nodes = json.loads(out)["nodes"]
    got = {(n["name"], n["parent"], n["kind"], n["flavor"], n["calculated"] is not None)
           for n in nodes}
    want = {(f.name, f.parent or ROOT, f.kind, f.flavor, f.calculated is not None)
            for f in g.features}
    return None if got == want else f"{len(got ^ want)} node records differ"


_PRETTY_NODE = re.compile(r"( *)(package|component|option|interface) (\S+) \[(\w+)\]")


def _check_pretty(g: gen.GenModel, out: str) -> str | None:
    got = set()
    for line in out.splitlines():
        m = _PRETTY_NODE.fullmatch(line)
        if m:
            got.add((len(m[1]) // 4, m[2], m[3], m[4]))
    want = {(f.depth - 1, f.kind, f.name, f.flavor) for f in g.features}
    return None if got == want else f"{len(got ^ want)} tree lines differ"


def _check_prop_text(g: gen.GenModel, out: str) -> str | None:
    got = sorted(tuple(line[1:].split("] ", 1)[0].split(":", 1))
                 for line in out.splitlines())
    return None if got == sorted(g.family_lines()) else "constraint families differ"


def _check_dimacs(g: gen.GenModel, out: str) -> str | None:
    cnf = parse_dimacs(out)
    again = export_dimacs(cnf)  # names auxiliary variables, so compare the rest
    body = lambda text: [line for line in text.splitlines() if not line.startswith("c")]
    if parse_dimacs(again) != cnf or body(again) != body(out):
        return "DIMACS does not round-trip"
    var_lines = [line.split() for line in out.splitlines() if line.startswith("c var ")]
    want = [["c", "var", str(i), name] for i, name in enumerate(g.universe(), 1)]
    return None if var_lines == want else "c var lines differ from the universe"


# ---------------------------------------------------------------------------
# analyze: nearly all time in sat.solve


def analyze_commands(inp: Inputs) -> list[Command]:
    cmds = []
    # Solver effort differs a lot between models of one size, so most
    # analyses run on several models, one command each.
    for size in (200, 1000, 1000, 1000, 2000):
        g, path = inp.model(size)
        check = (lambda out, g=g, path=path: _check_sat_witness(g, path, inp, out)) \
            if size == 200 else (lambda out: None if out == "SAT\n" else "not SAT")
        cmds.append(Command("analyze_sat", ["analyze", path, "--sat"], 0, check))
    for flag in ("--dead", "--core") * 3:
        g, path = inp.model(130)
        check = _check_dead if flag == "--dead" else _check_core
        cmds.append(Command("analyze_backbone", ["analyze", path, flag], 0,
                            lambda out, g=g, check=check: check(g, out)))
    for extra in ([], ["--reduce"]) * 2:
        g, path = inp.model(36)
        cmds.append(Command("analyze_implications",
                            ["analyze", path, "--implications", *extra], 0,
                            lambda out, g=g, r=bool(extra): _check_edges(g, out, r)))
    return cmds


def _check_sat_witness(g: gen.GenModel, path: str, inp: Inputs, out: str) -> str | None:
    """``validate --prop`` must accept the witness ``solve`` finds."""
    if out != "SAT\n":
        return "not SAT"
    witness = solve(model_cnf(normalize_model(parse_model(g.text)[0]))).witness
    bits = dict(witness.items())
    if any(bits[c] != 1 for c in g.core) or any(bits[d] != 0 for d in g.dead()):
        return "witness contradicts the planted core or dead features"
    tsv = inp.write("witness.tsv", gen.bits_tsv(bits))
    sink = io.StringIO()
    code = cli_main(["validate", path, tsv, "--prop"], stdout=sink, stderr=io.StringIO())
    return None if (code, sink.getvalue()) == (0, "accepted\n") else "witness rejected"


def _check_dead(g: gen.GenModel, out: str) -> str | None:
    return None if set(out.split()) == g.dead() else "dead features differ"


def _check_core(g: gen.GenModel, out: str) -> str | None:
    got = set(out.split())
    if not set(g.core) <= got:
        return "a planted core feature is missing"
    return None if got <= g.live() else "a feature off in the accepted model is core"


def _check_edges(g: gen.GenModel, out: str, reduced: bool) -> str | None:
    edges = {tuple(line.split("\t")) for line in out.splitlines()}
    live = g.live()
    if any(a not in live or b not in live for a, b in edges):
        return "an edge names a dead feature"
    succ: dict[str, set[str]] = {}
    for a, b in edges:
        succ.setdefault(a, set()).add(b)
    for child, parent in g.edges:
        if not reduced and (child, parent) not in edges:
            return f"planted edge {child} -> {parent} is missing"
        if reduced and not _reaches(succ, child, parent):
            return f"planted edge {child} -> {parent} is not implied"
    return None


def _reaches(succ: dict[str, set[str]], src: str, dst: str) -> bool:
    stack, seen = [src], {src}
    while stack:
        for nxt in succ.get(stack.pop(), ()):
            if nxt == dst:
                return True
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return False


# ---------------------------------------------------------------------------
# validate: semantics and prop layers read models; no SAT calls


def validate_commands(inp: Inputs) -> list[Command]:
    rng = random.Random(inp.seed)
    cmds = []
    # three sizes, so the median command is a validation of the middle one
    for size in (1000, 1500, 2000):
        g, path = inp.model(size)
        for cls, cases in (("validate", _full_cases(g, rng)),
                           ("validate_prop", _prop_cases(g, rng))):
            for k, (text, expect) in enumerate(cases):
                tsv = inp.write(f"{Path(path).stem}_{cls}{k}.tsv", text)
                argv = ["validate", path, tsv] + (["--prop"] if cls == "validate_prop" else [])
                cmds.append(Command(cls, argv, 0 if expect is None else 1,
                                    lambda out, e=expect: _check_verdict(out, e)))
    for size in (4, 5):
        g, path = inp.model(size, gen.SMALL_DATA_VALUES)
        cmds.append(Command("enumerate", ["enumerate", path, "--domain", "0,1"], 0,
                            lambda out, g=g: _check_enum(g, out, prop=False)))
    for size in (14, 15):
        g, path = inp.model(size)
        cmds.append(Command("enumerate_prop", ["enumerate", path, "--prop"], 0,
                            lambda out, g=g: _check_enum(g, out, prop=True)))
    return cmds


def _full_cases(g: gen.GenModel, rng: random.Random):
    """(TSV, expected failure or None) for the full semantics."""
    acc = g.accepted_full()
    cases = [(gen.full_tsv(acc), None)]
    for _ in range(2):
        off = dict(acc)
        for x in rng.sample(g.free_leaves, len(g.free_leaves) // 2):
            off[x] = (0, 0, off[x][2])
        cases.append((gen.full_tsv(off), None))
    by_name = g.by_name
    opt = rng.choice([f.name for f in g.features if f.live and f.kind == "option"
                      and f.flavor == "bool" and f.calculated is None])
    legal = rng.choice([f.name for f in g.features if f.legal_values is not None])
    dead = rng.choice(sorted(g.dead()))
    unloaded = rng.choice(g.unloaded)
    for name, triple, family in (
        (opt, (0, 1, acc[opt][2]), "node"),
        (legal, (*acc[legal][:2], "1000"), "legal_values"),
        (dead, (1, 1, by_name[dead].data), "node"),
        (unloaded, (1, 1, "1"), "unloaded"),
    ):
        cases.append((gen.full_tsv({**acc, name: triple}), (family, name)))
    return cases


def _prop_cases(g: gen.GenModel, rng: random.Random):
    """(TSV, expected failure or None) for the Boolean projection."""
    acc = g.accepted_bits()
    cases = [(gen.bits_tsv(acc), None)]
    for _ in range(2):
        off = dict(acc)
        off.update((x, 0) for x in rng.sample(g.free_leaves, len(g.free_leaves) // 2))
        cases.append((gen.bits_tsv(off), None))
    dead = rng.choice(sorted(g.dead()))
    unloaded = rng.choice(g.unloaded)
    for name, bit, family in (
        (dead, 1, "node"), (g.core[0], 0, "flavor"), (unloaded, 1, "unloaded"),
    ):
        cases.append((gen.bits_tsv({**acc, name: bit}), (family, name)))
    return cases


def _check_verdict(out: str, expect: tuple[str, str] | None) -> str | None:
    lines = out.splitlines()
    if expect is None:
        return None if lines == ["accepted"] else "expected accepted"
    if not lines or lines[0] != "rejected":
        return "expected rejected"
    failures = {tuple(line.split("\t")[:2]) for line in lines[1:]}
    return None if expect in failures else f"no {expect[0]} failure on {expect[1]}"


def _check_enum(g: gen.GenModel, out: str, prop: bool) -> str | None:
    lines = out.splitlines()
    configs, cur = [], {}
    for line in lines[:-1]:  # blank-line separated blocks, then the count
        if line:
            name, *rest = line.split("\t")
            cur[name] = tuple(rest)
        else:
            configs.append(cur)
            cur = {}
    if cur:
        configs.append(cur)
    if not lines or lines[-1] != f"count\t{len(configs)}":
        return "count line does not match the listed configurations"
    if prop:
        want = {n: (str(b),) for n, b in g.accepted_bits().items()}
    else:
        want = {n: tuple(map(str, t)) for n, t in g.accepted_full().items()}
    if want not in configs:
        return "the planted accepted configuration is missing"
    for c in configs:
        if any(c[x][0] != "1" for x in g.core) or any(c[x][0] != "0" for x in g.dead()):
            return "a listed configuration contradicts the planted core or dead features"
    return None


WORKLOADS = {
    "compile": compile_commands,
    "analyze": analyze_commands,
    "validate": validate_commands,
}
