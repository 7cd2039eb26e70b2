"""CNF conversion, solver and analysis tests."""

import copy
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
    # an item of the || that an eqv expands is a subformula, so the chain
    # there gets a gate
    chain = BInfix("||", tuple("abc"))
    cnf = to_cnf(_formula(BInfix("eqv", ("x", BInfix("||", ("y", chain))))))
    # a, b, c, x, y and one definition of the chain
    assert cnf == Cnf(
        6,
        ((-1, 6), (-2, 6), (-3, 6), (1, 2, 3, -6), (4, -5), (4, -6), (-4, 5, 6)),
        ("a", "b", "c", "x", "y", "#6"),
    )


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
    # (#6), yet the two && gates over x and it are different trees, so
    # each gets its own variable (#8 and #9)
    cnf = to_cnf(
        _formula(
            eqv("y", bor(["z", band(["x", BCard(("a", "b"), 1, 2)])])),
            eqv("y", bor(["z", band(["x", implies(BNot("a"), "b")])])),
        )
    )
    assert cnf == Cnf(
        9,
        (
            (-1, 6), (-2, 6), (1, 2, -6), (2, -7), (1, -7), (-1, -2, 7),
            (3, -8), (6, -8), (-3, -6, 8), (4, -5), (4, -8), (-4, 5, 8),
            (3, -9), (6, -9), (-3, -6, 9), (4, -9), (-4, 5, 9),
        ),
        ("a", "b", "x", "y", "z", "#6", "#7", "#8", "#9"),
    )


@pytest.mark.parametrize(
    "expr, cnf",
    [
        # the consequent's && splits: no aux variable
        (implies("x", band(["a", "b"])),
         Cnf(3, ((1, -3), (2, -3)), ("a", "b", "x"))),
        # the antecedent's && widens the clause with its negated items
        (implies(band(["a", "b"]), "x"),
         Cnf(3, ((-1, -2, 3),), ("a", "b", "x"))),
        # the consequent's || widens it with its items
        (implies("x", bor(["a", "b", "c"])),
         Cnf(4, ((1, 2, 3, -4),), ("a", "b", "c", "x"))),
        # an && nested in a top-level || is a subformula: one gate
        (bor(["x", band(["a", "b"])]),
         Cnf(4, ((1, -4), (2, -4), (-1, -2, 4), (3, 4)), ("a", "b", "x", "#4"))),
    ],
    ids=["implies-and", "and-implies", "implies-or", "or-of-and"],
)
def test_top_level_implications_are_clauses(expr, cnf):
    assert to_cnf(_formula(expr)) == cnf


@pytest.mark.parametrize(
    "expr, cnf",
    [
        # an eqv in a clause is its two clauses, each widened by the prefix
        (implies("x", eqv("a", "b")),
         Cnf(3, ((-1, 2, -3), (1, -2, -3)), ("a", "b", "x"))),
        # an eqv against an && or || expands that junction: k + 1 clauses
        (eqv("x", band(["a", "b"])),
         Cnf(3, ((1, -3), (2, -3), (-1, -2, 3)), ("a", "b", "x"))),
        (eqv(bor(["a", "b"]), "x"),
         Cnf(3, ((-1, 3), (-2, 3), (1, 2, -3)), ("a", "b", "x"))),
        (implies("y", eqv("x", band(["a", "b"]))),
         Cnf(4, ((1, -3, -4), (2, -3, -4), (-1, -2, 3, -4)), ("a", "b", "x", "y"))),
        (implies("y", eqv(bor(["a", "b"]), "x")),
         Cnf(4, ((-1, 3, -4), (-2, 3, -4), (1, 2, -3, -4)), ("a", "b", "x", "y"))),
        # && in an antecedent widens the clause at any depth
        (implies(BInfix("&&", ("a", BInfix("&&", ("b", "c")))), "x"),
         Cnf(4, ((-1, -2, -3, 4),), ("a", "b", "c", "x"))),
        # implications written in one step: a name or an && of names
        # on the left, a name or an && on the right
        (implies("x", "y"), Cnf(2, ((-1, 2),), ("x", "y"))),
        (implies("x", band(["a", "b"])),
         Cnf(3, ((1, -3), (2, -3)), ("a", "b", "x"))),
        (implies(band(["a", "b"]), "x"),
         Cnf(3, ((-1, -2, 3),), ("a", "b", "x"))),
        # x implies x is a tautology, dropped
        (implies("x", band(["p", "x"])), Cnf(2, ((1, -2),), ("p", "x"))),
        # an item that is not a name is asserted under the prefix
        (implies("x", band(["a", bor(["b", "c"])])),
         Cnf(4, ((1, -4), (2, 3, -4)), ("a", "b", "c", "x"))),
        # an item that folds to False makes the whole consequent False
        (BInfix("implies", ("x", BInfix("&&", ("a", BInfix("&&", ("b", False)))))),
         Cnf(3, ((-3,),), ("a", "b", "x"))),
    ],
    ids=["implies-eqv", "eqv-and", "or-eqv", "implies-eqv-and", "implies-or-eqv",
         "nested-and-implies", "name-implies-name", "name-implies-and",
         "and-implies-name", "self-implication", "implies-and-with-or",
         "implies-and-folding-to-false"],
)
def test_clause_level_eqv_and_antecedents_are_clauses(expr, cnf):
    assert to_cnf(_formula(expr)) == cnf


def test_implications_give_the_cnf_of_their_clauses():
    # an implication with a name or an && on each side, written by
    # assert_expr in one step where its antecedent is a name or an && of
    # names, gives the Cnf of the same constraint written as an && of ||
    # clauses, which simplify and the generic branches encode; where the
    # consequent folds to False, the constraint is the negated antecedent
    rng = random.Random(34)
    names = ("a", "b", "c", "d", "e")

    def leaf():
        r = rng.random()
        if r < 0.15:
            return r < 0.07  # False or True
        name = rng.choice(names)
        return BNot(name) if r < 0.3 else name

    def item():  # a leaf, or an || or && of leaves
        if rng.random() < 0.6:
            return leaf()
        return BInfix(rng.choice(["||", "&&"]), tuple(leaf() for _ in range(rng.randint(2, 3))))

    def side(item):
        if rng.random() < 0.3:
            return rng.choice(names)
        return BInfix("&&", tuple(item() for _ in range(rng.randint(2, 4))))

    def parts(e, op):  # the items of an op chain, nested ones flattened
        if e.__class__ is BInfix and e.op == op:
            return [y for x in e.items for y in parts(x, op)]
        return [e]

    def as_clauses(ante, cons):
        ante, cons = _fold_by_rebuilding(ante), _fold_by_rebuilding(cons)
        if ante is False or cons is True:
            return True
        if cons is False:
            return bnot(ante)
        negs = [] if ante is True else [bnot(x) for x in parts(ante, "&&")]
        return band([bor(negs + parts(y, "||")) for y in parts(cons, "&&")])

    direct = folded = 0
    for _ in range(1500):
        # the antecedent is a name or an && of names half of the time
        ante = side(item if rng.random() < 0.5 else lambda: rng.choice(names))
        cons = side(item)
        got = to_cnf(_formula(BInfix("implies", (ante, cons)), names=names))
        assert got == to_cnf(_formula(as_clauses(ante, cons), names=names)), (ante, cons)
        if ante.__class__ is str or all(x.__class__ is str for x in ante.items):
            direct += 1
            folded += _fold_by_rebuilding(cons) is False
    assert direct > 900 and folded > 50


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


def _count_cnf_models(cnf: Cnf) -> int:
    """Models of ``cnf`` over all of its variables, aux ones too: bit j of
    each mask stands for the assignment whose variable i is bit i of j."""
    size = 1 << cnf.num_vars
    full = (1 << size) - 1
    masks = [0]
    for i in range(cnf.num_vars):
        width = 2 << i
        mask = (1 << width) - (1 << (1 << i))  # 0^(2^i) 1^(2^i), repeated
        while width < size:
            mask |= mask << width
            width *= 2
        masks.append(mask)
    models = full
    for clause in cnf.clauses:
        sat = 0
        for l in clause:
            sat |= masks[l] if l > 0 else full ^ masks[-l]
        models &= sat
    return models.bit_count()


def test_cnf_has_as_many_models_as_the_formula():
    # every aux variable is defined both ways, so each model of the
    # formula extends to exactly one model of the CNF; a one-sided gate
    # leaves its variable free on some models, which then count twice
    rng = random.Random(29)
    names = ("a", "b", "c", "d")

    def item():
        return _random_bool_expr(rng, names, depth=1)

    def junction(op=None):
        op = op or rng.choice(["&&", "||"])
        return BInfix(op, tuple(item() for _ in range(rng.randint(2, 3))))

    def eqv_junction():  # a junction on either side
        return BInfix("eqv", rng.choice([(junction(), item()), (item(), junction())]))

    shapes = [
        # && under implies on both sides, and two deep in the antecedent
        lambda: BInfix("implies", (junction("&&"), junction("&&"))),
        lambda: BInfix("implies", (BInfix("&&", (item(), junction("&&"))), item())),
        # eqv under implies, of two items or against a junction
        lambda: BInfix("implies", (item(), BInfix("eqv", (item(), item())))),
        lambda: BInfix("implies", (junction("&&"), eqv_junction())),
        eqv_junction,
    ]
    checked = 0
    for _ in range(400):
        exprs = [_random_bool_expr(rng, names, depth=2) for _ in range(rng.randint(1, 2))]
        if rng.random() < 0.7:
            exprs.append(rng.choice(shapes)())
        cnf = to_cnf(_formula(*exprs, names=names))
        if cnf.num_vars > 20:
            continue
        checked += 1
        formula_models = sum(
            all(eval_p(e, PropConfig(zip(names, bits))) for e in exprs)
            for bits in itertools.product((0, 1), repeat=len(names))
        )
        assert _count_cnf_models(cnf) == formula_models, exprs
    assert checked >= 250


@pytest.mark.parametrize("features", [500, 2000])
def test_encoding_stays_small_per_feature(features):
    # gen.py models are deterministic, and so are their CNF sizes.  The
    # largest here are 0.060 aux variables and 1.84 clauses per variable of
    # the formula (seed 1005 at 2000 features: 123 and 3747 for 2040); the
    # bounds add a quarter and a twentieth.  A gate for each eqv in a
    # clause breaks both; one for each eqv against an && or || breaks the
    # first.
    gen = perfbench_gen()
    for seed in (1, 2, 3, 1005):
        formula = build_formula(mk_model(gen.generate(seed, features).text))
        cnf = to_cnf(formula)
        n = len(formula.variables)
        assert cnf.num_vars - n <= 0.075 * n, seed
        assert len(cnf.clauses) <= 1.93 * n, seed


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
    """Everything a probe puts back, copied: the assignment, the phases
    and the decision queue.  The watched literals stay where propagation
    moved them, as after a backtrack."""
    return (solver.value[:], solver.trail[:], solver.trail_lim[:],
            solver.qhead, solver.phase[:], solver.stamp[:], solver.next[:],
            solver.prev[:], solver.search)


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


def test_probes_leave_the_search_unchanged():
    # a probe moves watches and may hit a conflict; it must put back the
    # assignment, the phases and the queue, so the same queries give the
    # same answers as on a solver that never probes.  The watches it moves
    # stay moved, so a later search may find another model.
    watches = lambda s: [[w if w.__class__ is int else w[:] for w in ws]
                         for ws in s.watches]
    rng = random.Random(61)
    signed = lambda vs: tuple(v * rng.choice((1, -1)) for v in vs)
    answers, conflicts, moved = set(), 0, 0
    for _ in range(40):
        # random 3-SAT at four clauses per variable: searches that learn
        n = rng.randint(20, 40)
        clauses = random_3sat(rng, n, ratio=4).clauses
        plain, probed = Solver(n, clauses), Solver(n, clauses)
        for _ in range(12):
            for _ in range(rng.randint(0, 4)):
                state, before = _solver_state(probed), watches(probed)
                conflicts += probed.probe(signed([rng.randint(1, n)])[0]) is None
                assert _solver_state(probed) == state, clauses
                moved += watches(probed) != before
            assumps = signed(rng.sample(range(1, n + 1), rng.randint(0, 3)))
            answer = plain.solve(assumps)
            assert probed.solve(assumps) == answer, (clauses, assumps)
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
    decisions, bumps, closures = [], [], []
    pick, bump, closure = Solver._pick_branch, Solver._bump, Solver._closure_model

    def checked(self):
        _check_queue(self)
        decisions.append(self.search)
        return pick(self)

    def counted(self, vs):
        bumps.append(len(vs))
        bump(self, vs)

    def taken(self):
        closures.append(closure(self))
        return closures[-1]

    monkeypatch.setattr(Solver, "_pick_branch", checked)
    monkeypatch.setattr(Solver, "_bump", counted)
    monkeypatch.setattr(Solver, "_closure_model", taken)
    rng = random.Random(67)
    lits = lambda n, k: [v * rng.choice((1, -1)) for v in rng.sample(range(1, n + 1), k)]
    cnfs = [random_cnf(rng, max_vars=12, max_clauses=50) for _ in range(100)]
    cnfs += [pigeonhole_cnf(n + 1, n) for n in range(1, 5)]
    instances = [(cnf.num_vars, cnf.clauses) for cnf in cnfs]
    # random 3-SAT at four clauses per variable: searches that learn
    instances += [(n, random_3sat(rng, n, ratio=4).clauses) for n in range(15, 35)]
    # and at the threshold, where a query seldom ends in the propagation
    # closure, so the decisions counted below still come from searches
    instances += [(n, random_3sat(rng, n).clauses) for n in range(20, 40)]
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
    assert closures.count(True) > 20  # 44 queries finished without a decision


def _holds(clause, true: set[int]) -> bool:
    """The clause under ``true`` set true and every other variable false."""
    return any(l in true if l > 0 else -l not in true for l in clause)


def test_closure_is_model_checks_every_clause():
    rng = random.Random(71)
    answers = set()
    for _ in range(300):
        cnf = random_cnf(rng, max_vars=10, max_clauses=30)
        solver = Solver(cnf.num_vars, cnf.clauses)
        for v in range(1, cnf.num_vars + 1):
            for lit in (v, -v):
                closure = solver.probe(lit)
                if closure is not None:
                    want = all(_holds(cl, set(closure)) for cl in cnf.clauses)
                    assert solver.closure_is_model(closure) == want, (cnf, lit)
                    answers.add(want)
    assert answers == {True, False}


def test_closure_models_are_the_models_the_search_finds(monkeypatch):
    # after every call of one random sequence, a solver whose searches end
    # in the propagation closure where they can must equal a copy of it,
    # taken just before the call, that always searches: the same answer,
    # model, phases, queue and next decision.  A search moves watches of
    # long clauses that the closure leaves in place, so the plain copy is
    # taken afresh before each call rather than replayed on its own.
    taken = []
    closure = Solver._closure_model

    def counted(self):
        taken.append(closure(self))
        return taken[-1]

    monkeypatch.setattr(Solver, "_closure_model", counted)
    rng = random.Random(73)
    signed = lambda vs: [v * rng.choice((1, -1)) for v in vs]
    state = lambda s: (s.ok, s.model, s.phase, s.next, s.prev, s.stamp,
                       s.search, s.value, s.trail, s.trail_lim, s.qhead)
    answers = set()
    for i in range(600):
        if i % 2:
            cnf = random_cnf(rng, max_vars=12, max_clauses=30)
        else:
            n = rng.randint(5, 30)
            cnf = random_3sat(rng, n, ratio=rng.choice((1, 2, 3, 4.26)))
        n = cnf.num_vars
        solver = Solver(n, cnf.clauses)
        for _ in range(15):
            plain = copy.deepcopy(solver)
            monkeypatch.setattr(plain, "_closure_model", lambda: False)
            call = rng.random()
            if call < 0.5:
                assumps = signed(rng.sample(range(1, n + 1), rng.randint(0, min(n, 3))))
                answer = solver.solve(assumps)
                assert plain.solve(assumps) == answer, (cnf, assumps)
                answers.add(answer)
            elif call < 0.7:
                lit = signed([rng.randint(1, n)])[0]
                assert solver.probe(lit) == plain.probe(lit), (cnf, lit)
            elif call < 0.85:  # pushed phases, as the analyses push them
                for v in rng.sample(range(1, n + 1), rng.randint(0, n)):
                    solver.phase[v] = plain.phase[v] = rng.random() < 0.3
            else:
                clause = signed(rng.sample(range(1, n + 1), rng.randint(1, min(n, 3))))
                solver.add_clause(clause)
                plain.add_clause(clause)
            assert state(solver) == state(plain), cnf
            assert solver._pick_branch() == plain._pick_branch(), cnf
    assert answers == {True, False}
    assert taken.count(True) > 200 and taken.count(False) > 1000  # 342, 2298


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


def test_graph_witnesses_from_closures_satisfy_every_clause(monkeypatch):
    # every closure checked while the graph runs, a probe's or the trail
    # that ``solve`` checks, is checked here again, literal by literal,
    # against every clause of the model's Cnf; the hand models hold a wide
    # clause false under a closure, so the queries run too
    checked = []
    closure_is_model = Solver.closure_is_model

    def logged(self, closure):
        answer = closure_is_model(self, closure)
        checked.append((set(closure), answer))
        return answer

    monkeypatch.setattr(Solver, "closure_is_model", logged)
    hand = [
        "cdl_option A {}\ncdl_option B {}\ncdl_option X { requires A || B }",
        "cdl_interface I {}\ncdl_option A { implements I }\n"
        "cdl_option B { implements I }\ncdl_option X { requires I == 1 }",
    ]
    rng = random.Random(79)
    models = [mk_model(text) for text in hand]
    while len(models) < 60:
        m = mk_model(random_model(rng))
        if not check_well_formed(m) and model_sat(m).sat:
            models.append(m)
    gen = perfbench_gen()
    models += [mk_model(gen.generate(seed, size).text)
               for seed in (1, 2, 3) for size in (36, 130)]
    answers = set()
    for i, m in enumerate(models):
        clauses = model_cnf(m).clauses
        checked.clear()
        edges = implication_graph(m)
        for true, answer in checked:
            assert answer == all(_holds(cl, true) for cl in clauses), (i, true)
            answers.add(answer)
        if i < len(hand):
            assert not all(answer for _, answer in checked)
            assert edges == brute_implications(m)
    assert answers == {True, False}


@pytest.mark.parametrize("seed", [1, 101])
def test_closures_keep_the_graph_queries_few(monkeypatch, seed):
    # 406-410 queries before closure witnesses, 73-75 with them, and 58-60
    # since the backbone's unit clauses let probes settle the edges to
    # core features
    m = mk_model(perfbench_gen().generate(seed, 500).text)
    calls = []
    query = Solver.solve

    def counted(self, assumptions=()):
        calls.append(assumptions)
        return query(self, assumptions)

    monkeypatch.setattr(Solver, "solve", counted)
    implication_graph(m)
    assert len(calls) <= 66


def test_export_dot():
    text = export_dot({("B", "A"), ("A", "C")})
    assert text.splitlines() == [
        "digraph implications {",
        '    "A" -> "C";',
        '    "B" -> "A";',
        "}",
    ]
