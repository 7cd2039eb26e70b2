"""CNF conversion, solver and analysis tests."""

import itertools
import random

import pytest

from cdlsem import AnalysisError
from cdlsem.cdcl import Solver
from cdlsem.model import check_well_formed
from cdlsem.prop import (
    BCard,
    BInfix,
    BNot,
    BoolExpr,
    Constraint,
    PropConfig,
    PropFormula,
    band,
    bnot,
    bor,
    build_formula,
    enumerate_prop_configs,
    eqv,
    eval_p,
    implies,
)
from cdlsem.sat import (
    Cnf,
    core_features,
    dead_features,
    export_dimacs,
    export_dot,
    _transitive_reduction,
    implication_graph,
    model_cnf,
    model_sat,
    parse_dimacs,
    simplify,
    solve,
    to_cnf,
)

from conftest import (
    brute_cnf_status,
    fixture_paths,
    load_model,
    mk_model,
    perfbench_gen,
    pigeonhole_cnf,
    random_3sat,
    random_cnf,
    random_model,
)


# ---------------------------------------------------------------------------
# to_cnf


def _formula(*exprs: BoolExpr, names=None) -> PropFormula:
    if names is None:
        found = set()

        def walk(e):
            if isinstance(e, str):
                found.add(e)
            elif isinstance(e, BNot):
                walk(e.child)
            elif isinstance(e, BInfix):
                for x in e.items:
                    walk(x)
            elif isinstance(e, BCard):
                found.update(e.names)

        for e in exprs:
            walk(e)
        names = tuple(sorted(found))
    cons = tuple(Constraint(f"c{i}", "node", e) for i, e in enumerate(exprs))
    return PropFormula(cons, tuple(names))


def test_tautology_has_no_clauses():
    cnf = to_cnf(_formula(True, names=("a",)))
    assert cnf.clauses == () and cnf.num_vars == 1


def test_single_ident_is_unit_clause():
    cnf = to_cnf(_formula("a"))
    assert cnf.clauses == ((1,),)


def test_eqv_is_two_clauses():
    cnf = to_cnf(_formula(BInfix("eqv", ("a", "b"))))
    assert set(cnf.clauses) == {(-1, 2), (1, -2)}


def test_false_constraint_is_empty_clause():
    cnf = to_cnf(_formula(False, names=("a",)))
    assert cnf.clauses == ((),)
    assert not solve(cnf).sat


def test_no_tautological_clauses():
    cnf = to_cnf(_formula(BInfix("||", ("a", BNot("a")))))
    for cl in cnf.clauses:
        assert not any(-l in cl for l in cl)


def test_chain_gets_one_auxiliary_variable():
    chain = BInfix("||", tuple("abc"))
    cnf = to_cnf(_formula(BInfix("implies", ("x", chain))))
    assert cnf.num_vars == 5  # a, b, c, x and one definition of the chain
    assert set(cnf.clauses) == {(-4, 5), (-1, 5), (-2, 5), (-3, 5), (1, 2, 3, -5)}


@pytest.mark.parametrize("op, clauses", [("implies", 3), ("eqv", 4)])
def test_chain_shares_the_gates_of_its_prefix(op, clauses):
    a, b, c, x, y = "abcxy"
    cnf = to_cnf(
        _formula(
            BInfix("||", (x, BInfix(op, (a, b)))),
            BInfix("||", (y, BInfix(op, (a, b, c)))),
        )
    )
    # a, b, c, x, y, the gate over a and b, and one more gate for c
    assert cnf.num_vars == 7
    assert len(cnf.clauses) == 2 + 2 * clauses


def test_gates_of_different_shapes_stay_apart():
    # choose(1..2: a, b) and !a implies b both encode to the OR of a and b
    # (#5), yet the two && gates over x and it are different trees, so
    # each gets its own variable (#7 and #8)
    cnf = to_cnf(
        _formula(
            implies("y", band(["x", BCard(("a", "b"), 1, 2)])),
            implies("y", band(["x", implies(BNot("a"), "b")])),
        )
    )
    assert cnf == Cnf(
        8,
        (
            (-1, 5), (-2, 5), (1, 2, -5), (2, -6), (1, -6), (-1, -2, 6),
            (3, -7), (5, -7), (-3, -5, 7), (-4, 7),
            (3, -8), (5, -8), (-3, -5, 8), (-4, 8),
        ),
        ("a", "b", "x", "y", "#5", "#6", "#7", "#8"),
    )


def test_simplify_folds_constants():
    e = BInfix("&&", (True, BInfix("||", ("a", False))))
    assert simplify(e) == "a"
    assert simplify(BNot(False)) is True
    assert simplify(BCard(("a", "b"), 0, 2)) is True
    assert simplify(BCard(("a", "b"), 3, 3)) is False


def _fold_by_rebuilding(e: BoolExpr) -> BoolExpr:
    """Constant folding that rebuilds every node through the smart
    constructors; ``simplify`` must give an equal result."""
    if isinstance(e, (str, bool)):
        return e
    if isinstance(e, BNot):
        return bnot(_fold_by_rebuilding(e.child))
    if isinstance(e, BInfix):
        items = [_fold_by_rebuilding(x) for x in e.items]
        if e.op in ("&&", "||"):
            return (band if e.op == "&&" else bor)(items)
        gate = implies if e.op == "implies" else eqv
        acc = items[0]
        for x in items[1:]:
            acc = gate(acc, x)
        return acc
    n, hi = len(e.names), min(e.at_most, len(e.names))
    if e.at_least > n:
        return False
    if e.at_least == 0 and hi == n:
        return True
    if n == 1:
        return e.names[0] if e.at_least == 1 else BNot(e.names[0])
    return BCard(e.names, e.at_least, hi)


def test_simplify_equals_rebuilding_and_keeps_what_does_not_fold():
    rng = random.Random(5)
    names = ("a", "b", "c", "d")
    kept = 0
    for _ in range(3000):
        e = _random_bool_expr(rng, names, depth=4)
        if rng.random() < 0.2:
            e = BNot(BNot(e))
        if rng.random() < 0.2:  # a chain whose first item is a chain of its op
            op = rng.choice(["implies", "eqv"])
            e = BInfix(op, (BInfix(op, (e, "a")), "b"))
        got = simplify(e)
        assert got == _fold_by_rebuilding(e), e
        # nothing to fold: the same object, so no node is rebuilt
        assert (got is e) == (got == e), e
        kept += got is e
    assert kept > 300
    assert simplify(BCard(("a", "b", "c"), 1, 5)) == BCard(("a", "b", "c"), 1, 3)


def _random_bool_expr(rng, names, depth=3) -> BoolExpr:
    if depth == 0 or rng.random() < 0.3:
        choice = rng.random()
        if choice < 0.7:
            return rng.choice(names)
        if choice < 0.8:
            return bool(rng.randint(0, 1))
        k = rng.randint(1, min(4, len(names)))
        ids = tuple(sorted(rng.sample(names, k)))
        lo = rng.randint(0, k)
        hi = rng.randint(lo, k)
        return BCard(ids, lo, hi)
    op = rng.choice(["||", "&&", "implies", "eqv", "not"])
    if op == "not":
        return BNot(_random_bool_expr(rng, names, depth - 1))
    items = tuple(
        _random_bool_expr(rng, names, depth - 1) for _ in range(rng.randint(2, 4))
    )
    return BInfix(op, items)


def test_to_cnf_projections_match_formula_models():
    rng = random.Random(2024)
    for _ in range(60):
        nfeat = rng.randint(1, 6)
        names = tuple(f"f{i}" for i in range(nfeat))
        exprs = [
            _random_bool_expr(rng, names)
            for _ in range(rng.randint(1, 3))
        ]
        formula = _formula(*exprs, names=names)
        cnf = to_cnf(formula)
        table = cnf.var_table()
        for bits in itertools.product((0, 1), repeat=nfeat):
            cp = PropConfig(zip(names, bits))
            formula_ok = all(eval_p(c.expr, cp) for c in formula.constraints)
            assumps = tuple(
                table[n] if b else -table[n] for n, b in zip(names, bits)
            )
            cnf_ok = solve(cnf, assumps).sat
            assert formula_ok == cnf_ok, (exprs, bits)


# ---------------------------------------------------------------------------
# solver


def test_empty_clause_set_is_sat():
    assert solve(Cnf(0, (), ())).sat


def test_unit_contradiction_unsat():
    assert solve(Cnf(1, ((1,), (-1,)), ("a",))).status == "unsat"


def test_pigeonhole_unsat():
    for n in range(1, 6):
        assert solve(pigeonhole_cnf(n + 1, n)).status == "unsat", n
        assert solve(pigeonhole_cnf(n, n)).sat, n


def test_long_chain_needs_no_recursion():
    # x[i+1] -> x[i]: deciding x[i] = 1 forces nothing, so a search that
    # recursed once per decision would go 1200 frames deep
    n = 1200
    cnf = Cnf(
        n,
        tuple((i, -(i + 1)) for i in range(1, n)),
        tuple(f"v{i}" for i in range(1, n + 1)),
    )
    got = solve(cnf)
    assert got.sat
    bits = [got.witness[f"v{i}"] for i in range(1, n + 1)]
    assert all(a >= b for a, b in zip(bits, bits[1:]))
    assert solve(cnf, (n, -1)).status == "unsat"
    assert solve(cnf, (-1,)).sat


def test_solver_agrees_with_truth_tables(monkeypatch):
    # random_cnf draws are settled by loading and level-0 propagation; the
    # 3-SAT draws near the threshold reach conflicts, learning and backjumps
    conflicts = [0]
    analyze = Solver._analyze

    def counted(self, confl):
        conflicts[0] += 1
        return analyze(self, confl)

    monkeypatch.setattr(Solver, "_analyze", counted)
    rng = random.Random(99)
    draws = [random_cnf(rng, max_vars=10, max_clauses=40) for _ in range(200)]
    draws += [random_3sat(rng, rng.randint(8, 12)) for _ in range(200)]
    searched = 0
    for cnf in draws:
        before = conflicts[0]
        got = solve(cnf)
        searched += conflicts[0] > before
        assert got.status == brute_cnf_status(cnf)
        if got.sat:
            w = got.witness
            for cl in cnf.clauses:
                assert any(
                    (l > 0) == bool(w[cnf.variables[abs(l) - 1]]) for l in cl
                )
    assert searched >= 100  # 166 of the 400 draws with the seed above


def test_assumptions_are_temporary():
    cnf = Cnf(2, ((1, 2),), ("a", "b"))
    assert solve(cnf, (-1, -2)).status == "unsat"
    assert solve(cnf).sat  # no residue from the failed assumptions
    assert solve(cnf, (-1,)).witness["b"] == 1


def test_solver_reuse_keeps_queries_independent():
    # learnt clauses and level-0 facts persist between queries; none may
    # carry one query's assumptions into the next
    rng = random.Random(31)
    for _ in range(300):
        cnf = random_cnf(rng, max_vars=15, max_clauses=60)
        solver = Solver(cnf.num_vars, cnf.clauses)
        queries = []
        for _ in range(20):
            k = rng.randint(0, min(6, cnf.num_vars))
            vs = rng.sample(range(1, cnf.num_vars + 1), k)
            queries.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
        queries += rng.sample(queries, 4)  # repeats, in a fresh order
        for assumps in queries:
            with_units = Cnf(
                cnf.num_vars,
                cnf.clauses + tuple((a,) for a in assumps),
                cnf.variables,
            )
            got = solver.solve(assumps)
            want = brute_cnf_status(with_units) == "sat"
            assert got == want, (cnf, assumps)
            if got:
                true = lambda l: solver.model[l] == 1
                assert all(any(true(l) for l in cl) for cl in cnf.clauses)
                assert all(true(a) for a in assumps)


def _random_load_list(rng: random.Random, n: int) -> list:
    """Clauses that stress loading: repeated and complementary literals,
    units before and after binary clauses on the same variables, empty
    clauses, and the same clause as a tuple or a list."""
    lit = lambda: rng.randint(1, n) * rng.choice((1, -1))
    clauses = []
    for _ in range(rng.randint(0, 4 * n)):
        kind = rng.random()
        if kind < 0.4:
            cl = (lit(), lit())
        elif kind < 0.5:
            v = lit()
            cl = (v, v) if rng.random() < 0.5 else (v, -v)
        elif kind < 0.65:
            a, b = lit(), lit()
            cl = (a, b)
            clauses.append((rng.choice((a, b, -a, -b)),))  # a unit before it
        elif kind < 0.8:
            cl = (lit(),)
        elif kind < 0.82:
            cl = ()
        else:
            cl = tuple(lit() for _ in range(rng.randint(3, 4)))
        clauses.append(list(cl) if rng.random() < 0.1 else cl)
    return clauses


def test_constructor_loads_like_one_add_clause_per_clause():
    rng = random.Random(77)
    statuses = set()
    for _ in range(400):
        n = rng.randint(1, 7)
        clauses = _random_load_list(rng, n)
        loaded = Solver(n, clauses)
        added = Solver(n)
        for cl in clauses:
            added.add_clause(cl)
        # the same level-0 state and the same watch lists, in the same order
        assert loaded.ok == added.ok, clauses
        assert loaded.trail == added.trail, clauses
        assert loaded.value == added.value, clauses
        assert loaded.watches == added.watches, clauses
        cnf = Cnf(n, tuple(tuple(cl) for cl in clauses), tuple(f"x{i}" for i in range(1, n + 1)))
        queries = [()] + [(l,) for v in range(1, n + 1) for l in (v, -v)]
        queries += [
            tuple(v * rng.choice((1, -1)) for v in rng.sample(range(1, n + 1), min(n, 2)))
            for _ in range(3)
        ]
        for assumps in queries:
            with_units = Cnf(n, cnf.clauses + tuple((a,) for a in assumps), cnf.variables)
            want = brute_cnf_status(with_units) == "sat"
            assert loaded.solve(assumps) == added.solve(assumps) == want, (clauses, assumps)
            if want:
                assert loaded.model == added.model
            statuses.add(want)
    assert statuses == {True, False}


@pytest.mark.parametrize("clauses", [
    [(1, 0)], [(0, 2)], [(1, 4)], [(-4, 1)], [(2, -3), (3, 5)], [(-1,), (1, 0)],
])
def test_constructor_rejects_bad_binary_literals(clauses):
    with pytest.raises(ValueError):
        Solver(3, clauses)


def test_assumption_out_of_range():
    with pytest.raises(ValueError):
        solve(Cnf(1, (), ("a",)), (5,))


def test_witness_is_deterministic():
    cnf = Cnf(3, ((1, 2, 3),), ("a", "b", "c"))
    assert solve(cnf) == solve(cnf)


@pytest.mark.parametrize("cnf, message", [
    (Cnf(2, (), ("A", "A")), "duplicate entry for 'A'"),
    (Cnf(2, ((-2,),), ("A", "⊤")), "the root is fixed at 1"),
    (Cnf(1, (), ("⊤",)), "the root is fixed at 1"),
])
def test_witness_rejects_ill_formed_names(cnf, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        solve(cnf)


def test_witness_takes_a_true_root_and_repeated_aux_names():
    assert solve(Cnf(2, ((2,),), ("A", "⊤"))).witness == PropConfig({"A": 0})
    cnf = Cnf(3, ((3,),), ("#1", "#1", "A"))
    assert solve(cnf).witness == PropConfig({"A": 1})


def test_witness_bits_are_ints():
    witness = solve(Cnf(3, ((1,), (-2,)), ("a", "b", "#3"))).witness
    assert [(n, b, type(b)) for n, b in witness.items()] == [
        ("a", 1, int), ("b", 0, int)
    ]


def _unit_closure(clauses, lit: int) -> set[int] | None:
    """Every literal unit propagation derives from ``lit`` and the unit
    clauses, found by rescanning all clauses; None on a conflict."""
    true = {lit}
    changed = True
    while changed:
        changed = False
        for cl in clauses:
            if any(l in true for l in cl):
                continue
            open_ = [l for l in cl if -l not in true]
            if not open_:
                return None
            if len(open_) == 1:
                true.add(open_[0])
                changed = True
    return true


def _solver_state(solver: Solver) -> tuple:
    """Everything a probe could disturb, copied.  Which of a long
    clause's two watched literals comes first is left out: propagation
    puts the false one second before it reads either."""
    watches = [[w if w.__class__ is int else (frozenset(w[:2]), tuple(w[2:]))
                for w in ws] for ws in solver.watches]
    return (solver.value[:], solver.trail[:], solver.trail_lim[:],
            solver.qhead, solver.phase[:], solver.stamp[:], solver.next[:],
            solver.prev[:], solver.search, watches)


def test_probe_is_the_unit_propagation_closure():
    rng = random.Random(53)
    outcomes = set()
    for _ in range(300):
        cnf = random_cnf(rng, max_vars=10, max_clauses=30)
        solver = Solver(cnf.num_vars, cnf.clauses)
        facts = solver.trail[:]
        for v in range(1, cnf.num_vars + 1):
            for lit in (v, -v):
                want = _unit_closure(cnf.clauses, lit)
                got = solver.probe(lit)
                if want is None:
                    assert got is None, (cnf, lit)
                else:
                    assert got is not None and set(got) == want, (cnf, lit)
                    assert len(got) == len(want) and got[:len(facts)] == facts
                outcomes.add(want is None)
    assert outcomes == {True, False}


def test_probe_of_a_level_zero_literal():
    solver = Solver(3, [(1,), (-1, 2), (-3, -2, 1)])
    assert solver.trail == [1, 2]
    before = _solver_state(solver)
    assert solver.probe(1) == solver.probe(2) == [1, 2]
    assert solver.probe(-1) is None and solver.probe(-2) is None
    assert solver.probe(3) == [1, 2, 3]
    assert _solver_state(solver) == before
    with pytest.raises(ValueError):
        solver.probe(4)
    with pytest.raises(ValueError):
        solver.probe(0)
    void = Solver(2, [(1,), (-1,)])
    assert not void.ok and void.probe(2) is None


def test_probes_leave_the_search_unchanged(monkeypatch):
    # a probe moves watches and may hit a conflict; it must put everything
    # back, so the same queries give the same answers and the same models
    moved = []
    propagate = Solver._propagate

    def logged(self, moves=None):
        confl = propagate(self, moves)
        if moves:
            moved.append(len(moves))
        return confl

    monkeypatch.setattr(Solver, "_propagate", logged)
    rng = random.Random(61)
    signed = lambda vs: tuple(v * rng.choice((1, -1)) for v in vs)
    answers, conflicts = set(), 0
    for _ in range(40):
        # random 3-SAT at four clauses per variable: searches that learn,
        # where a watch left moved by a probe changes later models
        n = rng.randint(20, 40)
        clauses = random_3sat(rng, n, ratio=4).clauses
        plain, probed = Solver(n, clauses), Solver(n, clauses)
        for _ in range(12):
            for _ in range(rng.randint(0, 4)):
                state = _solver_state(probed)
                conflicts += probed.probe(signed([rng.randint(1, n)])[0]) is None
                assert _solver_state(probed) == state, clauses
            assumps = signed(rng.sample(range(1, n + 1), rng.randint(0, 3)))
            answer = plain.solve(assumps)
            assert probed.solve(assumps) == answer, (clauses, assumps)
            assert plain.model == probed.model, (clauses, assumps)
            assert _solver_state(plain) == _solver_state(probed), (clauses, assumps)
            answers.add(answer)
    assert moved and conflicts and answers == {True, False}


def _check_queue(solver: Solver) -> None:
    """The decision queue links every variable once, in rising stamp
    order, and every variable after ``search`` is assigned."""
    nxt, prev, stamp, n = solver.next, solver.prev, solver.stamp, solver.num_vars
    assert all(nxt[prev[v]] == v and prev[nxt[v]] == v for v in range(n + 1))
    order, v = [], nxt[0]
    while v and len(order) <= n:
        order.append(v)
        v = nxt[v]
    assert v == 0 and sorted(order) == list(range(1, n + 1))
    assert all(stamp[a] < stamp[b] for a, b in zip(order, order[1:]))
    after = order[order.index(solver.search) + 1:] if solver.search else order
    assert all(solver.value[v] for v in after)


def test_decision_queue_invariants(monkeypatch):
    # checked after every call, and before every decision inside a search
    decisions, bumps = [], []
    pick, bump = Solver._pick_branch, Solver._bump

    def checked(self):
        _check_queue(self)
        decisions.append(self.search)
        return pick(self)

    def counted(self, vs):
        bumps.append(len(vs))
        bump(self, vs)

    monkeypatch.setattr(Solver, "_pick_branch", checked)
    monkeypatch.setattr(Solver, "_bump", counted)
    rng = random.Random(67)
    lits = lambda n, k: [v * rng.choice((1, -1)) for v in rng.sample(range(1, n + 1), k)]
    cnfs = [random_cnf(rng, max_vars=12, max_clauses=50) for _ in range(100)]
    cnfs += [pigeonhole_cnf(n + 1, n) for n in range(1, 5)]
    instances = [(cnf.num_vars, cnf.clauses) for cnf in cnfs]
    # random 3-SAT at four clauses per variable: searches that learn
    instances += [(n, random_3sat(rng, n, ratio=4).clauses) for n in range(15, 35)]
    learnt = 0
    for n, clauses in instances:
        solver = Solver(n, clauses)
        _check_queue(solver)
        before = len(bumps)
        for _ in range(10):
            call = rng.random()
            if call < 0.5:
                solver.solve(lits(n, rng.randint(0, min(n, 3))))
            elif call < 0.8:
                solver.probe(lits(n, 1)[0])
            else:
                solver.add_clause(lits(n, rng.randint(1, min(n, 3))))
            _check_queue(solver)
        learnt += len(bumps) > before
    assert learnt > 10 and len(decisions) > 1000


# ---------------------------------------------------------------------------
# DIMACS


def test_dimacs_format():
    cnf = Cnf(2, ((1, -2),), ("A", "B"))
    text = export_dimacs(cnf)
    assert "p cnf 2 1" in text
    assert "1 -2 0" in text
    assert "c var 1 A" in text and "c var 2 B" in text


def test_dimacs_zero_clause():
    text = export_dimacs(Cnf(1, (), ("A",)))
    assert "p cnf 1 0" in text and "c var 1 A" in text


def test_dimacs_round_trip():
    rng = random.Random(5)
    for _ in range(50):
        cnf = random_cnf(rng, max_vars=8, max_clauses=20)
        again = parse_dimacs(export_dimacs(cnf))
        assert again.clauses == cnf.clauses
        assert again.num_vars == cnf.num_vars
        assert again.variables == cnf.variables


def test_dimacs_rejects_garbage():
    with pytest.raises(ValueError):
        parse_dimacs("p cnf 1 1\n1")  # unterminated clause
    with pytest.raises(ValueError):
        parse_dimacs("p dnf 1 0\n")
    with pytest.raises(ValueError, match="promised 2 clauses, found 1"):
        parse_dimacs("p cnf 1 2\n1 0\n")


def test_dimacs_skips_plain_comments():
    assert parse_dimacs("c hello\np cnf 1 1\n1 0\n") == Cnf(1, ((1,),), ("v1",))


def test_dimacs_skips_aux_names():
    m = mk_model("cdl_interface I {}\ncdl_option A { implements I }")
    cnf = to_cnf(build_formula(m))
    text = export_dimacs(cnf)
    assert "#"  not in text.replace("#", "", 0) or "c var" in text
    for line in text.splitlines():
        if line.startswith("c var"):
            assert "#" not in line


# ---------------------------------------------------------------------------
# analyses against brute-forced definitions


def brute_dead(m):
    models = enumerate_prop_configs(m)
    return frozenset(f for f in m.ids() if all(cp[f] == 0 for cp in models))


def brute_core(m):
    models = enumerate_prop_configs(m)
    return frozenset(f for f in m.ids() if all(cp[f] == 1 for cp in models))


def brute_implications(m):
    models = enumerate_prop_configs(m)
    dead = brute_dead(m)
    alive = sorted(m.ids() - dead)
    edges = set()
    for a in alive:
        for b in alive:
            if a != b and all(cp[b] == 1 for cp in models if cp[a] == 1):
                edges.add((a, b))
    return frozenset(edges)


def test_model_sat_examples():
    assert model_sat(mk_model("")).sat
    assert model_sat(mk_model("cdl_option A {}")).sat
    void = mk_model("cdl_option D { flavor data\n calculated 0 }")
    assert model_sat(void).status == "unsat"


def test_requires_zero_data_option_is_dead_not_void():
    # the hierarchy/value equivalence lets the node simply stay off, so the
    # translated model stays satisfiable with the feature dead
    m = mk_model("cdl_option PINNED { flavor data\n requires 0 }")
    assert model_sat(m).sat
    assert dead_features(m) == {"PINNED"}
    assert enumerate_prop_configs(m) == [PropConfig({"PINNED": 0})]


def test_dead_features_examples():
    assert dead_features(mk_model("cdl_option A {}")) == frozenset()
    m = mk_model("cdl_option A { requires 0 }")
    assert dead_features(m) == {"A"}
    m = mk_model("cdl_component C { requires 0\n cdl_option A {} }")
    assert dead_features(m) == {"A", "C"}


def test_core_features_examples():
    assert core_features(mk_model("cdl_option A {}")) == frozenset()
    assert core_features(mk_model("cdl_option D { flavor data }")) == {"D"}


def test_dead_and_core_disjoint_in_satisfiable_models():
    m = mk_model("cdl_option A { requires 0 }\ncdl_option D { flavor data }")
    assert dead_features(m) & core_features(m) == frozenset()


def test_void_model_raises():
    void = mk_model("cdl_option D { flavor data\n calculated 0 }")
    for analysis in (dead_features, core_features, implication_graph):
        with pytest.raises(AnalysisError) as err:
            analysis(void)
        assert err.value.code == "void-model"


def test_implication_graph_examples():
    m = mk_model("cdl_component C { cdl_option A {} }")
    assert implication_graph(m) == {("A", "C")}
    m = mk_model("cdl_option A {}\ncdl_option B {}")
    assert implication_graph(m) == frozenset()
    assert implication_graph(mk_model("")) == frozenset()


def test_implication_graph_excludes_dead():
    m = mk_model("cdl_option A { requires 0 }\ncdl_option B { requires A }")
    # A is dead and B (requiring dead A) is dead too: no edges at all
    assert implication_graph(m) == frozenset()


def test_transitive_reduction():
    m = mk_model(
        "cdl_option C {}\n"
        "cdl_option B { requires C }\n"
        "cdl_option A { requires B }"
    )
    assert implication_graph(m) == {("A", "B"), ("B", "C"), ("A", "C")}
    assert implication_graph(m, reduce_transitive=True) == {
        ("A", "B"),
        ("B", "C"),
    }


def test_transitive_reduction_keeps_two_cycles():
    m = mk_model(
        "cdl_option A { requires B }\ncdl_option B { requires A }"
    )
    assert implication_graph(m, reduce_transitive=True) == {
        ("A", "B"),
        ("B", "A"),
    }


def test_analyses_match_brute_force_on_fixtures():
    for path in fixture_paths("family", "sound"):
        m = load_model(path)
        if not model_sat(m).sat:
            with pytest.raises(AnalysisError):
                dead_features(m)
            continue
        assert dead_features(m) == brute_dead(m), path
        assert core_features(m) == brute_core(m), path
        assert implication_graph(m) == brute_implications(m), path


def test_analyses_match_truth_tables_on_drawn_models():
    rng = random.Random(2027)
    void = edges = drawn = 0
    while drawn < 200:
        m = mk_model(random_model(rng))
        if check_well_formed(m):
            continue
        drawn += 1
        if not model_sat(m).sat:
            void += 1
            with pytest.raises(AnalysisError):
                implication_graph(m)
            continue
        assert dead_features(m) == brute_dead(m)
        assert core_features(m) == brute_core(m)
        brute = brute_implications(m)
        assert implication_graph(m) == brute
        reduced = frozenset(_transitive_reduction(set(brute)))
        assert implication_graph(m, reduce_transitive=True) == reduced
        edges += bool(brute)
    assert void and edges > 50


def _reference_solver(m):
    cnf = model_cnf(m)
    solver = Solver(cnf.num_vars, cnf.clauses)
    if not solver.solve():
        raise AnalysisError("void-model", "the model has no valid configuration")
    return solver, cnf.var_table()


def _reference_backbone(m):
    """Dead and core features, one query per feature and value."""
    solver, table = _reference_solver(m)
    features = sorted(m.ids())
    dead = frozenset(f for f in features if not solver.solve((table[f],)))
    core = frozenset(f for f in features if not solver.solve((-table[f],)))
    return dead, core


def _reference_graph(m):
    """The implication graph as computed before probes: one query per
    pair that no witness refutes, with phases left to the solver."""
    solver, table = _reference_solver(m)
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
    for f in features:
        if not ones[f]:
            if not solver.solve((table[f],)):
                continue
            keep_witness()
        alive.append(f)
    edges = set()
    for a in alive:
        for b in alive:
            if a == b or ones[a] & ~ones[b]:
                continue
            if solver.solve((table[a], -table[b])):
                keep_witness()
            else:
                edges.add((a, b))
    return frozenset(edges)


def test_analyses_equal_the_query_per_pair_reference():
    rng = random.Random(2024)
    models = []
    while len(models) < 30:
        m = mk_model(random_model(rng))
        if not check_well_formed(m):
            models.append(m)
    gen = perfbench_gen()
    models += [mk_model(gen.generate(seed, size).text)
               for seed in (1, 2, 3) for size in (36, 130)]
    graphs = 0
    for m in models:
        dead, core = _reference_backbone(m)
        assert dead_features(m) == dead and core_features(m) == core
        edges = _reference_graph(m)
        assert implication_graph(m) == edges
        reduced = frozenset(_transitive_reduction(set(edges)))
        assert implication_graph(m, reduce_transitive=True) == reduced
        graphs += bool(edges)
    assert graphs > 10


def test_probes_halve_the_graph_queries(monkeypatch):
    m = mk_model(perfbench_gen().generate(1, 130).text)
    calls = []
    query = Solver.solve

    def counted(self, assumptions=()):
        calls.append(assumptions)
        return query(self, assumptions)

    monkeypatch.setattr(Solver, "solve", counted)
    reference = _reference_graph(m)
    reference_calls = len(calls)
    calls.clear()
    assert implication_graph(m) == reference
    assert len(calls) <= reference_calls // 2


def test_export_dot():
    text = export_dot({("B", "A"), ("A", "C")})
    assert text.splitlines() == [
        "digraph implications {",
        '    "A" -> "C";',
        '    "B" -> "A";',
        "}",
    ]
