"""CNF conversion, a small complete SAT solver, and model analyses.

Constraints become clauses directly, down to the operands of each
clause; auxiliary variables exist only for subformulas nested inside a
clause's literal, each defined both ways, so every model of the formula
extends to exactly one model of the clauses: model counts carry over,
and projections onto the feature variables are the formula's models.
Formulas come folded, as ``prop.build_formula`` builds them, and nothing
folds them again: a constant where a literal goes raises ``TypeError``.
The solver is an iterative CDCL search with an explicit trail: two
watched literals, first-UIP learning with backjumping, a move-to-front
queue for decisions, and assumptions as the first decision levels.  The
encoded models are nearly Horn, so a search often ends where unit
propagation already stands: with every unset variable false.  The
solver takes that model at once when the clauses with two or more
positive literals allow it, and it is the model the search would have
found.  The analyses build one solver per model and query it under
assumptions, keeping its learnt clauses; witnesses found on the way
rule out the candidates they refute, so those cost no query.  Each
analysis starts from the backbone: the dead and core features.  Before
querying, an analysis probes: ``Solver.probe`` assumes one literal and
propagates, which settles many candidates with no search.  The graph
also asks ``Solver.closure_is_model`` whether that closure, with every
other variable false, is a witness; then it settles every pair of that
literal.  The phases of the candidates still open are pushed so that
each new witness refutes as many of them as it can.
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
    build_formula,
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


class _CnfBuilder:
    """Clauses of asserted expressions, each gate encoded once.

    A constraint becomes clauses directly (see ``assert_expr``); only a
    subformula nested inside a clause's literal gets a Tseitin gate, an
    aux variable defined both ways, so model counts carry over.  A gate
    over literals is memoised by its inputs, a subtree by a flat key: its
    operator and its children's keys, each a name, ``("!", key)`` under a
    negation, or the slot of a subtree encoded before; a subtree over
    names alone, or a ``BCard``, is its own key.  No lookup hashes a tree
    recursively, and subtrees of different shapes keep apart even where
    they share literals.  Aux variables are counted; ``to_cnf`` names them.
    Expressions are folded: ``node`` raises ``TypeError`` on a constant.
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
        for l in lits:
            self.add_clause((s * l, -s * x))
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

    # --- assertion at clause level

    def assert_expr(self, e: BoolExpr, lits: tuple[int, ...] = ()) -> None:
        """Clauses for ``e``, or with ``lits`` for ``OR(lits) || e``.

        ``e`` is folded: a constant only at the top of a constraint.  An
        ``&&`` asserts each item, and an ``||`` is one clause of its items'
        literals.  A chain of ``implies`` or ``eqv`` is its last item against
        the rest.  An ``implies`` widens each item of an ``&&`` consequent by
        the negated antecedent, or by the negated items of an ``&&`` one at
        any depth; from a name to a name it is one clause.  An ``eqv`` defines
        one side by the other as a gate would, with no new variable: two
        clauses, or k + 1 where one side is a k-item ``&&`` or ``||``.  Any
        other subtree in a clause is one literal, a gate unless it is a name
        or a negated name; nothing distributes.
        """
        op = e.op if e.__class__ is BInfix else None
        index, ands = self.index, ()  # ands: items each asserted under lits
        if op == "implies" or op == "eqv":  # a chain: last item against the rest
            items = e.items
            a, b = items if len(items) == 2 else (BInfix(op, items[:-1]), items[-1])
            if op == "eqv":  # x <-> AND(ys), or x <-> OR(ys) for s = -1, as in gate
                if a.__class__ is BInfix and a.op in ("&&", "||"):
                    a, b = b, a  # a junction goes right, to be expanded
                x, s, ys = self.lit(a), 1, (b,)
                if b.__class__ is BInfix and b.op in ("&&", "||"):
                    s, ys = 1 if b.op == "&&" else -1, b.items
                ys = [self.lit(y) for y in ys]
                for y in ys:
                    self.add_clause(lits + (s * y, -s * x))
                self.add_clause(lits + (s * x,) + tuple([-s * y for y in ys]))
            elif a.__class__ is str and b.__class__ is str:
                self.add_clause(lits + (-index[a], index[b]))
            else:  # the consequent under lits widened by the negated antecedent
                if a.__class__ is str:
                    lits += (-index[a],)
                else:
                    ante, neg = [a], list(lits)
                    while ante:  # && items at any depth, in order
                        x = ante.pop()
                        if x.__class__ is BInfix and x.op == "&&":
                            ante.extend(reversed(x.items))
                        else:
                            neg.append(-self.lit(x))
                    lits = tuple(neg)
                ands = b.items if b.__class__ is BInfix and b.op == "&&" else (b,)
        elif op == "&&":
            ands = e.items
        elif op == "||":
            self.add_clause(lits + tuple([self.lit(x) for x in e.items]))
        elif e is False:
            self.add_clause(lits)
        elif e.__class__ is BCard and not lits:
            self.assert_card(e)
        elif e is not True:  # a name, a negation or a cardinality under lits
            self.add_clause(lits + (self.lit(e),))
        for y in ands:
            if y.__class__ is str:
                self.add_clause(lits + (index[y],))
            else:
                self.assert_expr(y, lits)

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
    """Clause form whose feature projections equal the formula's models; the
    constraints are folded, as ``build_formula`` and ``prop``'s constructors
    build them (a ``BCard`` only by ``choose``).  See the module docstring."""
    builder = _CnfBuilder(f.variables)
    for con in f.constraints:
        builder.assert_expr(con.expr)
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


def _backbone(
    solver: Solver, table: dict[str, int], features: list[str]
) -> tuple[frozenset[str], frozenset[str]]:
    """Dead and core features among ``features``: their part of the backbone.

    Every witness refutes each candidate it gives the other value, so a
    query is spent only on candidates no witness has refuted yet, and the
    solver's phases push each new witness to refute as many as it can
    (Janota, Lynce & Marques-Silva, AI Comm. 2015).  Each candidate is
    probed first: when unit propagation alone refutes its other value,
    it is settled with no search.  Each dead or core feature is added to
    ``solver`` as a unit clause.
    """
    model, phase = solver.model, solver.phase
    cands = {}  # feature -> its literal in every witness so far
    for f in features:
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
    return _backbone(*_analysis_solver(m), sorted(m.ids()))[0]


def core_features(m: Model) -> frozenset[str]:
    """Features that are true in every satisfying valuation."""
    return _backbone(*_analysis_solver(m), sorted(m.ids()))[1]


def implication_graph(
    m: Model, reduce_transitive: bool = False
) -> frozenset[tuple[str, str]]:
    """Edges (a, b) where enabling a forces b, over non-dead features.

    The backbone comes first: the live features are the ones it finds
    not dead, and its unit clauses make every core feature true in each
    probe.  A witness with a = 1 and b = 0 refutes (a, b), so only pairs
    that no witness found so far refutes can cost a query, and every sat
    answer joins the witnesses; the phases of the pairs still open are
    pushed false before each query.  Probing a, unit propagation with a
    assumed, gives every b it forces true as an edge with no query.  When
    that closure, with every other variable false, is a model, it is a
    witness that refutes every other pair, so those are all of a's
    edges; only for the other features are the open pairs queried.
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

    dead = _backbone(solver, table, features)[0]
    keep_witness()
    alive = [f for f in features if f not in dead]
    edges = set()
    for a in alive:
        va = table[a]
        forced = set(solver.probe(va))  # a is live: no conflict
        if solver.closure_is_model(forced):
            edges.update([(a, b) for b in alive if table[b] in forced and b != a])
            continue
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
