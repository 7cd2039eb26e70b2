"""CNF conversion, a small complete SAT solver, and model analyses.

The clause form keeps every feature variable meaningful: auxiliary
definitions are biconditional, so satisfying assignments projected onto
feature variables coincide exactly with the models of the source
formula.  The solver is an iterative CDCL search with an explicit trail:
two watched literals, first-UIP learning with backjumping, a
move-to-front queue for decisions, and assumptions as the first decision
levels.  The analyses build one solver per model and query it under
assumptions, keeping its learnt clauses; witnesses found on the way rule
out the candidates they refute, so those cost no query.  Before
querying, an analysis probes: ``Solver.probe`` assumes one literal and
propagates, which settles many candidates with no search, and the phases
of the candidates still open are pushed so that each new witness refutes
as many of them as it can.
"""

from __future__ import annotations

from operator import is_

from .cdcl import Solver
from .errors import AnalysisError
from .exprs import frozen
from .model import TOP, Model
from .prop import (
    BCard,
    BInfix,
    BNot,
    BoolExpr,
    PropConfig,
    PropFormula,
    band,
    bnot,
    bor,
    build_formula,
    eqv as beqv,
    implies as bimplies,
)

AUX_PREFIX = "#"


@frozen
class Cnf:
    num_vars: int
    clauses: tuple[tuple[int, ...], ...]
    variables: tuple[str, ...]  # variables[i] has index i + 1

    def var_table(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.variables, 1)}

    def feature_names(self) -> tuple[str, ...]:
        return tuple(n for n in self.variables if not n.startswith(AUX_PREFIX))


@frozen
class SatResult:
    status: str  # "sat" | "unsat"
    witness: PropConfig | None

    @property
    def sat(self) -> bool:
        return self.status == "sat"


def simplify(e: BoolExpr) -> BoolExpr:
    """Constant folding; the result contains no reachable constants.

    An expression with nothing to fold comes back as the same object; an
    operator over plain names, or the negation of one, comes back at once.
    """
    cls = e.__class__
    if cls is str or cls is bool:
        return e
    if cls is BNot:
        child = e.child if e.child.__class__ is str else simplify(e.child)
        if child is e.child and child.__class__ not in (BNot, bool):
            return e
        return bnot(child)
    if cls is BInfix:
        op, old = e.op, e.items
        for x in old:
            if x.__class__ is not str:
                break
        else:
            return e
        items = [x if x.__class__ is str else simplify(x) for x in old]
        first = items[0]
        if (
            all(map(is_, items, old))
            and bool not in map(type, items)
            and (op in ("&&", "||") or first.__class__ is not BInfix or first.op != op)
        ):
            return e  # folding would neither drop an item nor flatten one
        if op == "&&":
            return band(items)
        if op == "||":
            return bor(items)
        gate = bimplies if op == "implies" else beqv
        acc = first
        for x in items[1:]:
            acc = gate(acc, x)
        return acc
    if cls is BCard:
        n = len(e.names)
        if e.at_least > n:
            return False
        hi = min(e.at_most, n)
        if e.at_least == 0 and hi == n:
            return True
        if n == 1:
            # single id: between-bounds degenerates to a literal
            return e.names[0] if e.at_least == 1 else BNot(e.names[0])
        return e if hi == e.at_most else BCard(e.names, e.at_least, hi)
    raise TypeError(f"not a Boolean expression: {e!r}")


class _CnfBuilder:
    """Tseitin clauses of asserted expressions, each gate encoded once.

    A gate over literals is memoised by its inputs, a subtree by a flat key:
    its operator and its children's keys, each a name, ``("!", key)`` under
    a negation, or the slot of a subtree encoded before; a subtree over
    names alone, or a ``BCard``, is its own key.  No lookup hashes a tree
    recursively, and subtrees of different shapes keep apart even where
    they share literals.  Aux variables are counted; ``to_cnf`` names them.
    """

    def __init__(self, features: tuple[str, ...]):
        self.index = {n: i for i, n in enumerate(features, 1)}
        self.num_vars = len(features)
        self.clauses: list[tuple[int, ...]] = []
        self.seen: set[tuple[int, ...]] = set()
        self.memo, self.trees, self.slots = {}, {}, []  # gates, keys -> slot -> literal

    def add_clause(self, lits: tuple[int, ...]) -> None:
        """Keep the clause, its literals sorted by variable, unless it is a
        tautology or already kept."""
        if len(lits) == 2:
            a, b = lits
            if a == -b:
                return  # tautology
            if a == b:
                clause = (a,)
            else:
                clause = (a, b) if abs(a) < abs(b) else (b, a)
        else:
            members = set(lits)
            for l in members:
                if -l in members:
                    return  # tautology
            # no variable occurs twice, so ordering by variable is total
            clause = tuple(sorted(members, key=abs))
        if clause not in self.seen:
            self.seen.add(clause)
            self.clauses.append(clause)

    # --- literal-level gates with biconditional definitions

    def gate(self, s: int, lits) -> int:
        """A new literal x with x <-> AND(lits) for s = 1 and x <-> OR(lits)
        for s = -1: || is && with every sign flipped."""
        x = self.num_vars = self.num_vars + 1
        for l in lits:  # x is fresh: no tautology, and it sorts last
            clause = (s * l, -s * x)
            if clause not in self.seen:
                self.seen.add(clause)
                self.clauses.append(clause)
        self.add_clause(tuple([s * x] + [-s * l for l in lits]))
        return x

    def pair_gate(self, s: int, a: int, b: int) -> int:
        if a == b:
            return a
        key = (s, a, b) if a < b else (s, b, a)
        x = self.memo.get(key)
        if x is None:
            x = self.memo[key] = self.gate(s, (a, b))
        return x

    def eqv_lit(self, a: int, b: int) -> int:
        # memoised like the others, so a chain shares its prefix's gates
        key = ("eqv", a, b)
        if key in self.memo:
            return self.memo[key]
        x = self.num_vars = self.num_vars + 1
        self.add_clause((-x, -a, b))
        self.add_clause((-x, a, -b))
        self.add_clause((x, a, b))
        self.add_clause((x, -a, -b))
        self.memo[key] = x
        return x

    # --- expression to literal

    def lit(self, e: BoolExpr) -> int:
        return self.index[e] if e.__class__ is str else self.node(e)[1]

    def node(self, e: BoolExpr) -> tuple:
        """The key of ``e`` and its literal (see the class docstring)."""
        cls = e.__class__
        if cls is str:
            return e, self.index[e]
        if cls is BNot:
            key, x = self.node(e.child)
            return ("!", key), -x
        key = e  # a BCard, or an operator over names: flat already
        if cls is BInfix:
            op, index, keys, lits, x = e.op, self.index, [], [], None
            for item in e.items:  # in order: a chain folds as it goes
                k, y = (item, index[item]) if item.__class__ is str else self.node(item)
                keys.append(k)
                lits.append(y)
                if op == "implies":
                    x = y if x is None else self.pair_gate(-1, -x, y)
                elif op == "eqv":
                    x = y if x is None else self.eqv_lit(x, y)
            if not all(map(is_, keys, e.items)):  # only a name is its own key
                key = (op, *keys)
        elif cls is not BCard:
            raise TypeError(f"cannot encode {e!r}")
        slot = self.trees.get(key)
        if slot is None:
            if cls is BCard:
                x = self.card_lit(e)
            elif x is None:
                x = self.gate(1 if op == "&&" else -1, lits)
            slot = self.trees[key] = len(self.slots)
            self.slots.append(x)
        return slot, self.slots[slot]

    def card_lit(self, e: BCard) -> int:
        """Output literal of a bidirectional sequential counter."""
        xs = [self.index[n] for n in e.names]
        n, lo, hi = len(xs), e.at_least, e.at_most
        cols = min(n, hi + 1)
        prev: list[int] = []  # prev[j-1] holds "count of first i vars >= j"
        for i, x in enumerate(xs, 1):
            cur: list[int] = []
            for j in range(1, min(i, cols) + 1):
                carry = prev[j - 1] if j - 1 < len(prev) else None
                if j == 1:
                    inc = x
                else:
                    below = prev[j - 2]  # count >= j-1 without x
                    inc = self.pair_gate(1, x, below)
                cur.append(inc if carry is None else self.pair_gate(-1, carry, inc))
            prev = cur
        parts: list[int] = []
        if lo >= 1:
            parts.append(prev[lo - 1])
        if hi < n:
            parts.append(-prev[hi])
        if len(parts) == 1:
            return parts[0]
        return self.pair_gate(1, parts[0], parts[1])

    # --- top-level assertion

    def assert_expr(self, e: BoolExpr) -> None:
        cls = e.__class__
        if cls is BInfix:
            op, items = e.op, e.items
            if op == "implies" or op == "eqv":
                a = self.lit(items[0] if len(items) == 2 else BInfix(op, items[:-1]))
                b = self.lit(items[-1])
                self.add_clause((-a, b))
                if op == "eqv":
                    self.add_clause((-b, a))
            elif op == "&&":
                for x in items:
                    self.assert_expr(x)
            else:
                self.add_clause(tuple([self.lit(x) for x in items]))
        elif cls is str:
            self.add_clause((self.index[e],))
        elif cls is bool:
            if not e:
                self.add_clause(())
        elif cls is BNot:
            self.add_clause((-self.lit(e.child),))
        elif cls is BCard:
            self.assert_card(e)
        else:
            raise TypeError(f"cannot assert {e!r}")

    def assert_card(self, e: BCard) -> None:
        xs = [self.index[n] for n in e.names]
        if (e.at_least, e.at_most) == (1, 1):
            # exactly-one: pairwise at-most-one plus at-least-one
            self.add_clause(tuple(xs))
            for i in range(len(xs)):
                for j in range(i + 1, len(xs)):
                    self.add_clause((-xs[i], -xs[j]))
            return
        self.add_clause((self.card_lit(e),))


def to_cnf(f: PropFormula) -> Cnf:
    """Clause form whose feature projections equal the formula's models."""
    builder = _CnfBuilder(f.variables)
    for con in f.constraints:
        builder.assert_expr(simplify(con.expr))
    features, n = tuple(f.variables), builder.num_vars
    aux = [f"{AUX_PREFIX}{i}" for i in range(len(features) + 1, n + 1)]
    return Cnf(n, tuple(builder.clauses), features + tuple(aux))


# ---------------------------------------------------------------------------
# the decision procedure


def solve(cnf: Cnf, assumptions=()) -> SatResult:
    """Complete search; assumptions are temporary unit constraints."""
    names = cnf.variables
    checks = TOP in names or len(set(names)) < len(names)  # before the solver grows
    solver = Solver(cnf.num_vars, cnf.clauses)
    if not solver.solve(assumptions):
        return SatResult("unsat", None)
    model = solver.model
    bits = (
        (n, 1 if model[v] == 1 else 0)
        for v, n in enumerate(names, 1)
        if n[:1] != AUX_PREFIX  # a one-character prefix
    )
    # a root or a repeated name goes through the checking constructor
    return SatResult("sat", PropConfig(bits) if checks else PropConfig.wrap(dict(bits)))


# ---------------------------------------------------------------------------
# DIMACS


def export_dimacs(cnf: Cnf) -> str:
    """Standard DIMACS CNF with feature-name mapping comments."""
    lines = [
        f"c var {i} {name}"
        for i, name in enumerate(cnf.variables, 1)
        if not name.startswith(AUX_PREFIX)
    ]
    lines.append(f"p cnf {cnf.num_vars} {len(cnf.clauses)}")
    for cl in cnf.clauses:
        lines.append(" ".join([str(l) for l in cl] + ["0"]))
    return "\n".join(lines) + "\n"


def parse_dimacs(text: str) -> Cnf:
    """Inverse of export_dimacs (names recovered from comments)."""
    num_vars = 0
    expected = None
    names: dict[int, str] = {}
    clauses: list[tuple[int, ...]] = []
    current: list[int] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("c"):
            parts = line.split()
            if len(parts) == 4 and parts[1] == "var" and parts[2].isdigit():
                names[int(parts[2])] = parts[3]
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ValueError(f"bad DIMACS header: {line!r}")
            num_vars, expected = int(parts[2]), int(parts[3])
            continue
        for tok in line.split():
            lit = int(tok)
            if lit == 0:
                clauses.append(
                    tuple(sorted(set(current), key=lambda l: (abs(l), l < 0)))
                )
                current = []
            else:
                current.append(lit)
    if current:
        raise ValueError("unterminated clause at end of DIMACS input")
    if expected is not None and expected != len(clauses):
        raise ValueError(
            f"header promised {expected} clauses, found {len(clauses)}"
        )
    variables = tuple(names.get(i, f"v{i}") for i in range(1, num_vars + 1))
    return Cnf(num_vars, tuple(clauses), variables)


# ---------------------------------------------------------------------------
# analyses


def model_cnf(m: Model) -> Cnf:
    return to_cnf(build_formula(m))


def model_sat(m: Model) -> SatResult:
    """Can any Boolean configuration satisfy the translated model?"""
    return solve(model_cnf(m))


def _analysis_solver(m: Model) -> tuple[Solver, dict[str, int]]:
    """One incremental solver for every query of an analysis."""
    cnf = model_cnf(m)
    solver = Solver(cnf.num_vars, cnf.clauses)
    if not solver.solve():
        raise AnalysisError("void-model", "the model has no valid configuration")
    return solver, cnf.var_table()


def _backbone(m: Model) -> tuple[frozenset[str], frozenset[str]]:
    """Dead and core features: the features' part of the backbone.

    Every witness refutes each candidate it gives the other value, so a
    query is spent only on candidates no witness has refuted yet, and the
    solver's phases push each new witness to refute as many as it can
    (Janota, Lynce & Marques-Silva, AI Comm. 2015).  Each candidate is
    probed first: when unit propagation alone refutes its other value,
    it is settled with no search.
    """
    solver, table = _analysis_solver(m)
    model, phase = solver.model, solver.phase
    cands = {}  # feature -> its literal in every witness so far
    for f in sorted(m.ids()):
        v = table[f]
        cands[f] = v if model[v] == 1 else -v
    dead, core = set(), set()
    while cands:
        f, lit = next(iter(cands.items()))
        del cands[f]
        if solver.probe(-lit) is not None:
            for other in cands.values():
                phase[abs(other)] = other < 0
            if solver.solve((-lit,)):
                model = solver.model
                cands = {g: l for g, l in cands.items() if model[l] == 1}
                continue
        (core if lit > 0 else dead).add(f)
        solver.add_clause((lit,))
    return frozenset(dead), frozenset(core)


def dead_features(m: Model) -> frozenset[str]:
    """Features that are false in every satisfying valuation."""
    return _backbone(m)[0]


def core_features(m: Model) -> frozenset[str]:
    """Features that are true in every satisfying valuation."""
    return _backbone(m)[1]


def implication_graph(
    m: Model, reduce_transitive: bool = False
) -> frozenset[tuple[str, str]]:
    """Edges (a, b) where enabling a forces b, over non-dead features.

    A witness with a = 1 and b = 0 refutes (a, b), so only pairs that no
    witness found so far refutes can cost a query, and every sat answer
    joins the witnesses.  Before each query the phases of the candidates
    still open are pushed the way that would settle them: true while
    looking for live features, false while looking for edges.  Probing
    a, unit propagation with a assumed, gives every b it forces true as
    an edge with no query; only the rest are asked of the solver.
    """
    solver, table = _analysis_solver(m)
    phase = solver.phase
    features = sorted(m.ids())
    ones = dict.fromkeys(features, 0)  # bit i set: true in witness i
    count = 0

    def keep_witness() -> None:
        nonlocal count
        model, bit = solver.model, 1 << count
        count += 1
        for f in features:
            if model[table[f]] == 1:
                ones[f] |= bit

    keep_witness()
    alive = []
    for i, f in enumerate(features):
        if not ones[f]:
            for g in features[i + 1:]:
                if not ones[g]:
                    phase[table[g]] = True
            if not solver.solve((table[f],)):
                continue
            keep_witness()
        alive.append(f)
    edges = set()
    for a in alive:
        va = table[a]
        forced = set(solver.probe(va))  # a is live: no conflict
        open_ = []
        for b in alive:
            if a == b or ones[a] & ~ones[b]:
                continue
            if table[b] in forced:
                edges.add((a, b))
            else:
                open_.append(b)
        while open_:
            b = open_.pop()
            for c in open_:
                phase[table[c]] = False
            if solver.solve((va, -table[b])):
                keep_witness()
                open_ = [c for c in open_ if not ones[a] & ~ones[c]]
            else:
                edges.add((a, b))
    if reduce_transitive:
        edges = _transitive_reduction(edges)
    return frozenset(edges)


def _transitive_reduction(edges: set[tuple[str, str]]) -> set[tuple[str, str]]:
    """Drop edges already implied by a path; deterministic greedy sweep."""
    succ: dict[str, set[str]] = {}
    for a, b in edges:
        succ.setdefault(a, set()).add(b)

    def reachable(src: str, dst: str) -> bool:
        """Path from src to dst that avoids the edge (src, dst) itself."""
        stack, seen = [src], {src}
        while stack:
            cur = stack.pop()
            for b in succ.get(cur, ()):
                if b not in seen and (cur, b) != (src, dst):
                    if b == dst:
                        return True
                    seen.add(b)
                    stack.append(b)
        return False

    for a, b in sorted(edges):
        if reachable(a, b):
            succ[a].discard(b)
    return {(a, b) for a, targets in succ.items() for b in targets}


def export_dot(edges) -> str:
    """Implication edges as a DOT digraph, deterministically ordered."""
    lines = ["digraph implications {"]
    for a, b in sorted(edges):
        lines.append(f'    "{a}" -> "{b}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
