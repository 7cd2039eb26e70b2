"""Boolean projection, rewriting and formula tests."""

import itertools
import math
import random

import pytest

from cdlsem import EvalError, FormulaError, ValidationError
from cdlsem.exprs import Ident
from cdlsem.model import TOP, Model, check_well_formed
from cdlsem.parser import parse_goal_expr as pg
from cdlsem.prop import (
    BCard,
    BInfix,
    BNot,
    Constraint,
    PropConfig,
    PropFormula,
    band,
    bnot,
    bool_to_source,
    bor,
    build_formula,
    choose,
    dump_prop_config,
    enumerate_prop_configs,
    eqv,
    eval_p,
    formula_to_text,
    implies,
    load_prop_config,
    project,
    rewrite,
    validate_prop,
)
from cdlsem.semantics import (
    Configuration,
    enumerate_configurations,
    validate_configuration,
)

from cdlsem.sat import to_cnf

from conftest import (
    fixture_paths, load_model, mk_model, perfbench_gen, random_model,
)


IFACE_MODEL = mk_model(
    """
    cdl_interface IFACE {}
    cdl_option IMP_A { implements IFACE }
    cdl_option IMP_B { implements IFACE }
    cdl_option IMP_C { implements IFACE }
    cdl_option PLAIN { flavor booldata }
    """
)


def valuations(names):
    for bits in itertools.product((0, 1), repeat=len(names)):
        yield dict(zip(names, bits))


def sat_set(expr, names):
    """Satisfying valuations of a rewritten expression, as bit tuples."""
    out = set()
    for val in valuations(names):
        if eval_p(expr, PropConfig(val)):
            out.add(tuple(val[n] for n in names))
    return out


def def_set(names, predicate):
    return {
        tuple(val[n] for n in names)
        for val in valuations(names)
        if predicate(val)
    }


# ---------------------------------------------------------------------------
# PropConfig and projection


def test_propconfig_root_fixed():
    cp = PropConfig({"A": 1})
    assert cp[TOP] == 1
    with pytest.raises(ValueError):
        PropConfig({TOP: 0})


@pytest.mark.parametrize(
    "entries,message",
    [
        ([("A", 2)], "bit of 'A' must be 0 or 1"),
        ([("A", "1")], "bit of 'A' must be 0 or 1"),
        ([(TOP, 0)], "the root is fixed at 1"),
        ([("A", 1), ("A", 0)], "duplicate entry for 'A'"),
        ([(TOP, 2)], "bit of '\u22a4' must be 0 or 1"),  # bit check first
    ],
)
def test_propconfig_constructor_errors(entries, message):
    with pytest.raises(ValueError) as err:
        PropConfig(entries)
    assert str(err.value) == message


def test_propconfig_repr_and_root():
    cp = PropConfig({"B": 0, TOP: 1, "A": 1})
    assert repr(cp) == "PropConfig(A=1, B=0)" and repr(PropConfig()) == "PropConfig()"
    assert cp.domain == {"A", "B"} and cp.items() == [("A", 1), ("B", 0)]
    assert PropConfig({TOP: 1}) == PropConfig()


def test_full_and_boolean_configurations_never_compare_equal():
    assert Configuration({}) != PropConfig({})
    assert PropConfig({}) != Configuration({})
    assert Configuration({"A": (1, 1, "1")}) != PropConfig({"A": 1})


def test_propconfig_hash_follows_equality():
    a = PropConfig({"A": 1, "B": 0})
    b = PropConfig([("B", 0), ("A", 1)])
    assert a == b and hash(a) == hash(b) and len({a, b, PropConfig({"A": 1})}) == 2


def test_project_by_flavor():
    m = mk_model(
        "cdl_option NB { flavor bool }\n"
        "cdl_option NN { flavor none }\n"
        "cdl_option ND { flavor data }\n"
        "cdl_option NBD { flavor booldata }"
    )
    c = Configuration(
        {
            "NB": (1, 1, "0"),
            "NN": (1, 0, ""),
            "ND": (1, 1, "0"),
            "NBD": (0, 0, "7"),
            "GHOST": (1, 1, "5"),
        }
    )
    cp = project(c, m)
    assert cp["NB"] == 1  # state only
    assert cp["NN"] == 1
    assert cp["ND"] == 0  # zero data
    assert cp["NBD"] == 0  # disabled
    assert cp["GHOST"] == 0  # not in the model


def test_project_nonzero_data():
    m = mk_model("cdl_option ND { flavor data }")
    assert project(Configuration({"ND": (1, 1, "2")}), m)["ND"] == 1


# ---------------------------------------------------------------------------
# rewrite, rule by rule, against brute-forced definitions


def test_rewrite_loaded_ident():
    e = rewrite(pg("PLAIN"), IFACE_MODEL)
    assert sat_set(e, ["PLAIN"]) == def_set(["PLAIN"], lambda v: v["PLAIN"] == 1)


def test_rewrite_unloaded_ident_is_false():
    assert rewrite(pg("GHOST"), IFACE_MODEL) is False


@pytest.mark.parametrize("text,value", [("0", 0), ("1", 1), ('"abc"', 1), ('""', 0)])
def test_rewrite_const(text, value):
    assert rewrite(pg(text), IFACE_MODEL) is bool(value)


def test_rewrite_negated_ident():
    e = rewrite(pg("!PLAIN"), IFACE_MODEL)
    assert sat_set(e, ["PLAIN"]) == def_set(["PLAIN"], lambda v: v["PLAIN"] == 0)


def test_rewrite_negated_unloaded():
    assert rewrite(pg("!GHOST"), IFACE_MODEL) is True


def test_rewrite_eq_nonzero_const():
    e = rewrite(pg("PLAIN == 1"), IFACE_MODEL)
    assert sat_set(e, ["PLAIN"]) == def_set(["PLAIN"], lambda v: v["PLAIN"] == 1)
    assert rewrite(pg('PLAIN == "text"'), IFACE_MODEL) == "PLAIN"


def test_rewrite_eq_zero_const():
    e = rewrite(pg("PLAIN == 0"), IFACE_MODEL)
    assert sat_set(e, ["PLAIN"]) == def_set(["PLAIN"], lambda v: v["PLAIN"] == 0)


def test_rewrite_drops_comparison_with_huge_integer():
    # past 4300 digits the full semantics fails the comparison
    huge = "3" * 5000
    assert rewrite(pg(f"PLAIN > {huge}"), IFACE_MODEL) is None
    assert rewrite(pg(f"PLAIN == {huge}"), IFACE_MODEL) is None


def test_rewrite_neq_zero():
    assert rewrite(pg("PLAIN != 0"), IFACE_MODEL) == "PLAIN"
    assert rewrite(pg("PLAIN != 2"), IFACE_MODEL) is None


def test_rewrite_gt_nonnegative_const():
    assert rewrite(pg("PLAIN > 0"), IFACE_MODEL) == "PLAIN"
    assert rewrite(pg("PLAIN > 7"), IFACE_MODEL) == "PLAIN"


def test_rewrite_gt_other_consts_dropped():
    assert rewrite(pg("PLAIN > -1"), IFACE_MODEL) is True
    assert rewrite(pg("PLAIN > 1.5"), IFACE_MODEL) is True
    assert rewrite(pg('PLAIN > "x"'), IFACE_MODEL) is True
    # a negative bound on an interface falls back to the same generic rule
    assert rewrite(pg("IFACE > -1"), IFACE_MODEL) is True


def test_rewrite_flipped_comparison():
    assert rewrite(pg("0 < PLAIN"), IFACE_MODEL) == "PLAIN"
    assert rewrite(pg("1 == PLAIN"), IFACE_MODEL) == "PLAIN"


def test_rewrite_is_substr():
    assert rewrite(pg('is_substr(PLAIN, "x")'), IFACE_MODEL) == "PLAIN"
    assert rewrite(pg('is_substr("x", PLAIN)'), IFACE_MODEL) is None


@pytest.mark.parametrize("op", ["||", "&&", "implies", "eqv"])
def test_rewrite_binary_connectives(op):
    e = rewrite(pg(f"IMP_A {op} IMP_B"), IFACE_MODEL)
    table = {
        "||": lambda a, b: a | b,
        "&&": lambda a, b: a & b,
        "implies": lambda a, b: (1 - a) | b,
        "eqv": lambda a, b: int(a == b),
    }[op]
    assert sat_set(e, ["IMP_A", "IMP_B"]) == def_set(
        ["IMP_A", "IMP_B"], lambda v: table(v["IMP_A"], v["IMP_B"]) == 1
    )


def test_rewrite_connective_shapes():
    a, b, c = "IMP_A", "IMP_B", "IMP_C"
    for text, want in [
        ("IMP_A && IMP_B && IMP_C", BInfix("&&", (a, b, c))),
        ("IMP_A && (IMP_B && IMP_C)", BInfix("&&", (a, BInfix("&&", (b, c))))),
        ("IMP_A || GHOST || 1", BInfix("||", (a, False, True))),
        ("IMP_A implies IMP_B implies IMP_C", BInfix("implies", (a, b, c))),
        (
            "IMP_A implies (IMP_B implies IMP_C)",
            BInfix("implies", (a, BInfix("implies", (b, c)))),
        ),
        ("IMP_A eqv IMP_B eqv IMP_C", BInfix("eqv", (a, b, c))),
    ]:
        assert rewrite(pg(text), IFACE_MODEL) == want, text
    assert rewrite(pg("IMP_A && IMP_B xor IMP_C"), IFACE_MODEL) is None
    assert rewrite(pg("IMP_A && !(IMP_B && IMP_C)"), IFACE_MODEL) is None


def test_rewrite_comparison_needs_two_operands():
    assert rewrite(pg("PLAIN == 1"), IFACE_MODEL) == "PLAIN"
    assert rewrite(pg("1 == PLAIN"), IFACE_MODEL) == "PLAIN"
    assert rewrite(pg("PLAIN < IMP_A < IMP_B"), IFACE_MODEL) is None
    assert rewrite(pg("PLAIN == 1 == 1"), IFACE_MODEL) is None
    assert rewrite(pg("PLAIN > 0 > 0"), IFACE_MODEL) is None


@pytest.mark.parametrize("op", ["&&", "||", "implies", "eqv", "xor"])
def test_binfix_needs_a_connective_and_two_operands(op):
    a, b = "a", "b"
    for items in ((), (a,)):
        with pytest.raises(ValueError):
            BInfix(op, items)
    if op == "xor":
        with pytest.raises(ValueError):
            BInfix(op, (a, b))
    else:
        assert BInfix(op, (a, b)).items == (a, b)


def test_rewrite_conditional():
    e = rewrite(pg("PLAIN ? IMP_A : IMP_B"), IFACE_MODEL)
    names = ["PLAIN", "IMP_A", "IMP_B"]
    assert sat_set(e, names) == def_set(
        names,
        lambda v: (v["IMP_A"] if v["PLAIN"] else v["IMP_B"]) == 1,
    )


def test_rewrite_absent_cases():
    assert rewrite(pg("PLAIN + 1"), IFACE_MODEL) is None
    assert rewrite(pg("IMP_A xor IMP_B"), IFACE_MODEL) is None
    assert rewrite(pg("!(IMP_A && IMP_B)"), IFACE_MODEL) is None
    assert rewrite(pg("PLAIN < 5"), IFACE_MODEL) is None
    assert rewrite(pg("PLAIN >= 1"), IFACE_MODEL) is None
    assert rewrite(pg("PLAIN == IMP_A"), IFACE_MODEL) is None
    assert rewrite(pg("get_data(PLAIN)"), IFACE_MODEL) is None
    # one absent subterm poisons the whole connective or conditional
    assert rewrite(pg("IMP_A && (PLAIN + 1)"), IFACE_MODEL) is None
    assert rewrite(pg("PLAIN ? (PLAIN + 1) : PLAIN"), IFACE_MODEL) is None


IMPL_NAMES = ["IMP_A", "IMP_B", "IMP_C"]


def iface_def(predicate):
    names = ["IFACE"] + IMPL_NAMES
    return def_set(names, predicate)


def iface_sat(text):
    e = rewrite(pg(text), IFACE_MODEL)
    return sat_set(e, ["IFACE"] + IMPL_NAMES)


def count(v):
    return sum(v[n] for n in IMPL_NAMES)


def test_rewrite_interface_eq0():
    assert iface_sat("IFACE == 0") == iface_def(
        lambda v: v["IFACE"] == 0 and count(v) == 0
    )


def test_rewrite_interface_gt0():
    assert iface_sat("IFACE > 0") == iface_def(
        lambda v: v["IFACE"] == 1 and count(v) > 0
    )


def test_rewrite_interface_neq0_matches_gt0():
    assert iface_sat("IFACE != 0") == iface_sat("IFACE > 0")


def test_rewrite_interface_eq1_exactly_one():
    assert iface_sat("IFACE == 1") == iface_def(
        lambda v: v["IFACE"] == 1 and count(v) == 1
    )


def test_rewrite_interface_ge_const():
    for k in (0, 1, 2, 3):
        assert iface_sat(f"IFACE >= {k}") == iface_def(
            lambda v, k=k: v["IFACE"] == 1 and count(v) >= k
        ), k


def test_rewrite_interface_gt_const():
    for k in (1, 2, 3):
        assert iface_sat(f"IFACE > {k}") == iface_def(
            lambda v, k=k: v["IFACE"] == 1 and count(v) > k
        ), k


def test_rewrite_interface_over_capacity_unsatisfiable():
    assert iface_sat("IFACE >= 4") == set()
    assert iface_sat("IFACE > 3") == set()


def test_rewrite_is_deterministic():
    for text in ("IFACE >= 2", "PLAIN ? IMP_A : IMP_B", "PLAIN + 1"):
        assert rewrite(pg(text), IFACE_MODEL) == rewrite(pg(text), IFACE_MODEL)


def test_implementers_ignore_configuration():
    assert IFACE_MODEL.implementers("IFACE") == {"IMP_A", "IMP_B", "IMP_C"}
    assert IFACE_MODEL.implementers("NOBODY") == frozenset()


def test_implementers_include_interfaces():
    m = mk_model("cdl_interface I {}\ncdl_interface J { implements I }")
    assert m.implementers("I") == {"J"}


# ---------------------------------------------------------------------------
# choose


def test_choose_exactly_one_brute():
    e = choose(["a", "b"], 1, 1)
    assert sat_set(e, ["a", "b"]) == {(1, 0), (0, 1)}


def test_choose_tautology_and_unsat():
    assert choose(["a", "b"], 0, 2) is True
    assert choose(["a"], 2, 2) is False


def test_choose_rejects_bad_bounds():
    with pytest.raises(ValueError):
        choose(["a", "b", "c"], 2, 1)
    with pytest.raises(ValueError):
        choose(["a"], -1, 1)


def test_choose_lower_bound_beyond_size_is_false():
    assert choose(["a"], 2, 1) is False
    assert choose([], 1, 1) is False


def test_choose_counts_binomials():
    for n in range(0, 7):
        names = [f"v{i}" for i in range(n)]
        for lo in range(0, n + 1):
            for hi in range(lo, n + 1):
                got = len(sat_set(choose(names, lo, hi), names))
                want = sum(math.comb(n, k) for k in range(lo, hi + 1))
                assert got == want, (n, lo, hi)


# ---------------------------------------------------------------------------
# eval_p


def test_eval_p_basics():
    cp = PropConfig({"a": 1, "b": 0})
    assert eval_p(True, cp) == 1
    a, b = "a", "b"
    assert eval_p(BInfix("implies", (b, a)), cp) == 1
    assert eval_p(BInfix("implies", (a, b)), cp) == 0
    assert eval_p(BInfix("eqv", (a, b)), cp) == 0
    # chains fold left: (a implies b) implies b, (a eqv b) eqv b
    assert eval_p(BInfix("implies", (a, b, b)), cp) == 1
    assert eval_p(BInfix("implies", (a, b, a, b)), cp) == 0
    assert eval_p(BInfix("eqv", (a, b, b)), cp) == 1
    assert eval_p(BInfix("&&", (a, a, b)), cp) == 0
    assert eval_p(BInfix("||", (b, b, a)), cp) == 1
    assert eval_p(BNot("b"), cp) == 1
    assert eval_p(BCard(("a", "b"), 1, 1), cp) == 1


def test_eval_p_unknown_id():
    with pytest.raises(EvalError):
        eval_p("nope", PropConfig({}))


_ON, _OFF, _GHOST = "on", "off", "ghost"


@pytest.mark.parametrize(
    "expr,expected",
    [
        # &&/|| stop where all/any would on one valuation
        (BInfix("&&", (_OFF, _GHOST)), 0),
        (BInfix("&&", (_ON, _OFF, _GHOST)), 0),
        (BInfix("&&", (_ON, _GHOST)), None),
        (BInfix("&&", (_GHOST, _OFF)), None),
        (BInfix("||", (_ON, _GHOST)), 1),
        (BInfix("||", (_OFF, _ON, _GHOST)), 1),
        (BInfix("||", (_OFF, _GHOST)), None),
        (BInfix("&&", (BInfix("||", (_ON, _GHOST)), _OFF, _GHOST)), 0),
        # implies/eqv chains evaluate every operand
        (BInfix("implies", (_OFF, _GHOST)), None),
        (BInfix("implies", (_ON, _ON, _GHOST)), None),
        (BInfix("eqv", (_ON, _GHOST)), None),
        (BInfix("eqv", (_ON, _OFF, _GHOST)), None),
        (BNot(_GHOST), None),
        # every name of a cardinality node is looked up
        (BCard(("ghost", "on"), 0, 2), None),
        (BCard(("on", "ghost"), 0, 2), None),
        (BCard(("on", "off"), 0, 1), 1),
        (BCard(("on", "on2"), 0, 1), 0),
        (BCard(("off", "off2"), 0, 0), 1),
        (BCard(("on", "off", "on2"), 2, 3), 1),
        (BCard(("on", "on2"), 2, 2), 1),
        (BCard(("on", "off"), 2, 2), 0),
        (BCard(("on",), 0, 5), 1),
        (BCard(("on", "on2"), 1, 0), 0),
    ],
)
def test_eval_p_pins_where_unknown_ids_raise(expr, expected):
    cp = PropConfig({"on": 1, "on2": 1, "off": 0, "off2": 0})
    if expected is None:
        with pytest.raises(EvalError) as err:
            eval_p(expr, cp)
        assert err.value.code == "unknown-id"
        assert "'ghost'" in str(err.value)
    else:
        assert eval_p(expr, cp) == expected


def _truth(e, val) -> bool:
    """One-valuation reference semantics of a Boolean expression."""
    if isinstance(e, str):
        return bool(val[e])
    if isinstance(e, bool):
        return e
    if isinstance(e, BNot):
        return not _truth(e.child, val)
    if isinstance(e, BCard):
        return e.at_least <= sum(val[n] for n in e.names) <= e.at_most
    acc = _truth(e.items[0], val)
    for x in e.items[1:]:
        b = _truth(x, val)
        acc = {
            "&&": acc and b, "||": acc or b,
            "implies": not acc or b, "eqv": acc == b,
        }[e.op]
    return acc


def _random_expr(rng, names, depth):
    if depth == 0 or rng.random() < 0.25:
        roll = rng.random()
        if roll < 0.6:
            return rng.choice(names)
        if roll < 0.75:
            return bool(rng.randint(0, 1))
        # interface rewrites: == 1, > 1 and >= 2 over the implementors
        ids = rng.sample(names, rng.randint(1, len(names)))
        lo, hi = rng.choice([(1, 1), (2, len(ids)), (rng.randint(0, 2), 3)])
        return BCard(tuple(sorted(ids)), lo, max(hi, lo))
    if rng.random() < 0.2:
        return BNot(_random_expr(rng, names, depth - 1))
    op = rng.choice(["&&", "||", "implies", "eqv"])
    items = [_random_expr(rng, names, depth - 1) for _ in range(rng.randint(2, 4))]
    if rng.random() < 0.2:
        items.insert(rng.randrange(len(items) + 1), bool(rng.randint(0, 1)))
    return BInfix(op, tuple(items))


def test_enumerate_prop_configs_equals_per_valuation_eval(monkeypatch):
    rng = random.Random(909)
    for n in list(range(1, 13)) * 3:
        m = mk_model("\n".join(f"cdl_option V{i} {{}}" for i in range(n)))
        ids = sorted(m.universe())
        exprs = [_random_expr(rng, ids, 3) for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.3:
            exprs.append(BNot(BNot(BInfix("||", (ids[0], False)))))
        if rng.random() < 0.3:
            # an || whose first operand holds on valuation 0 alone: mask 1
            none_on = [BNot(x) for x in ids]
            first = BInfix("&&", tuple(none_on)) if n > 1 else none_on[0]
            exprs.append(BInfix("||", (first, ids[-1])))
        formula = PropFormula(
            tuple(Constraint("V0", "node", e) for e in exprs), tuple(ids)
        )
        monkeypatch.setattr("cdlsem.prop.build_formula", lambda _m: formula)
        valuations = [
            PropConfig(zip(ids, bits))
            for bits in itertools.product((0, 1), repeat=n)
        ]
        for cp in valuations[:: max(1, len(valuations) // 64)]:
            for e in exprs:
                assert eval_p(e, cp) == _truth(e, dict(cp.items())), (e, cp)
        expected = [
            cp
            for cp in valuations
            if all(eval_p(e, cp) for e in exprs)
        ]
        assert enumerate_prop_configs(m) == expected, exprs


# ---------------------------------------------------------------------------
# build_formula / validate_prop


def test_formula_hierarchy_constraint():
    m = mk_model("cdl_component C { cdl_option A {} }")
    text = formula_to_text(build_formula(m))
    assert "[node:A] A implies C" in text


def test_formula_mandatory_data():
    m = mk_model("cdl_option D { flavor data }")
    assert "[flavor:D] D" in formula_to_text(build_formula(m))


def test_formula_empty_model():
    assert formula_to_text(build_formula(mk_model(""))) == ""


def test_formula_unloaded_locked_false():
    m = mk_model("cdl_option A { requires GHOST }")
    assert "[unloaded:GHOST] !GHOST" in formula_to_text(build_formula(m))


def test_formula_interface_mirrors_implementors():
    text = formula_to_text(build_formula(IFACE_MODEL))
    assert "[interface:IFACE] IFACE eqv IMP_A || IMP_B || IMP_C" in text


def test_formula_interface_without_implementors_is_negation():
    m = mk_model("cdl_interface LONELY {}")
    cp = PropConfig({"LONELY": 1})
    assert not validate_prop(m, cp).accepted
    assert validate_prop(m, PropConfig({"LONELY": 0})).accepted


def test_formula_calculated_biconditional():
    m = mk_model(
        "cdl_option G { flavor booldata }\n"
        "cdl_option K { flavor bool\n calculated G }"
    )
    assert validate_prop(m, PropConfig({"G": 1, "K": 1})).accepted
    assert validate_prop(m, PropConfig({"G": 0, "K": 0})).accepted
    assert not validate_prop(m, PropConfig({"G": 1, "K": 0})).accepted


def test_formula_calculated_unrewritable_contributes_nothing():
    m = mk_model("cdl_option K { flavor bool\n calculated { GHOST + 1 } }")
    families = {c.family for c in build_formula(m).constraints}
    assert "calculated" not in families


def test_formula_requires_well_formedness():
    m = mk_model("cdl_interface I { flavor none }")
    with pytest.raises(FormulaError):
        build_formula(m)


def test_formula_invariant_under_node_reordering():
    m = mk_model("cdl_component C { cdl_option A { requires X } }\ncdl_option X {}")
    nodes = list(m)
    rng = random.Random(5)
    for _ in range(5):
        rng.shuffle(nodes)
        again = build_formula(Model(nodes))
        assert set(again.constraints) == set(build_formula(m).constraints)
        assert again.variables == build_formula(m).variables


def test_validate_prop_examples():
    m = mk_model("cdl_component C { cdl_option A {} }")
    assert validate_prop(m, PropConfig({"A": 0, "C": 0})).accepted
    rep = validate_prop(m, PropConfig({"A": 1, "C": 0}))
    assert [(f.node, f.family) for f in rep.failures] == [("A", "node")]


def test_validate_prop_unloaded():
    m = mk_model("cdl_option A { requires GHOST }")
    rep = validate_prop(m, PropConfig({"A": 0, "GHOST": 1}))
    assert [(f.node, f.family) for f in rep.failures] == [("GHOST", "unloaded")]


def test_validate_prop_incomplete():
    m = mk_model("cdl_option A {}")
    with pytest.raises(ValidationError):
        validate_prop(m, PropConfig({}))


def test_enumerate_prop_configs_matches_validation():
    m = mk_model("cdl_component C { cdl_option A { requires X } }\ncdl_option X {}")
    ids = sorted(m.universe())
    expected = {
        PropConfig(zip(ids, bits))
        for bits in itertools.product((0, 1), repeat=len(ids))
        if validate_prop(m, PropConfig(zip(ids, bits))).accepted
    }
    assert set(enumerate_prop_configs(m)) == expected


# ---------------------------------------------------------------------------
# under-approximation: spot checks plus documented boundaries


@pytest.mark.parametrize(
    "src",
    [
        "cdl_component C { cdl_option A { requires X } }\ncdl_option X {}",
        "cdl_interface I {}\ncdl_option A { implements I }\n"
        "cdl_option U { requires { I > 0 } }",
        "cdl_option M { flavor data\n legal_values 1 2 }\n"
        "cdl_option U { requires { M != 0 } }",
    ],
)
def test_projection_soundness_spot(src):
    m = mk_model(src)
    for c in enumerate_configurations(m, ["0", "1", "2"]):
        assert validate_prop(m, project(c, m)).accepted, c


def test_boundary_zero_data_feature_projects_outside():
    # Known approximation boundary: a data feature whose value may be the
    # number zero projects to false while the Boolean side requires it
    # true.  The soundness corpus therefore guards data features with
    # nonzero legal_values.
    m = mk_model("cdl_option D { flavor data }")
    c = Configuration({"D": (1, 1, "0")})
    assert validate_configuration(m, c).accepted
    assert not validate_prop(m, project(c, m)).accepted


def test_boundary_negated_bool_with_free_data():
    # A bool feature's data value is unconstrained, so "!X" can hold in the
    # full semantics while the projection keeps X true.  The corpus only
    # negates data-carrying flavors, whose projection tracks the value.
    m = mk_model("cdl_option X { flavor bool }\ncdl_option U { requires !X }")
    c = Configuration({"X": (1, 1, "0"), "U": (1, 1, "1")})
    assert validate_configuration(m, c).accepted
    assert not validate_prop(m, project(c, m)).accepted


def test_boundary_zero_data_implementor():
    # An enabled booldata implementor with zero data counts for the
    # interface but projects to false; bool implementors avoid this.
    m = mk_model(
        "cdl_interface I { flavor data }\n"
        "cdl_option A { flavor booldata\n implements I }"
    )
    c = Configuration({"I": (1, 1, "1"), "A": (1, 1, "0")})
    assert validate_configuration(m, c).accepted
    assert not validate_prop(m, project(c, m)).accepted


# ---------------------------------------------------------------------------
# files and rendering


def test_prop_config_tsv_round_trip():
    cp = PropConfig({"A": 1, "B": 0})
    again, warnings = load_prop_config(dump_prop_config(cp))
    assert again == cp and warnings == []


def test_load_prop_config_defaults_and_strict():
    got, warnings = load_prop_config("A\t1\n", universe=["A", "B"])
    assert got == PropConfig({"A": 1, "B": 0}) and len(warnings) == 1
    with pytest.raises(ValidationError):
        load_prop_config("A\t1\n", universe=["A", "B"], strict=True)


def test_load_prop_config_messages():
    _, warnings = load_prop_config("⊤\t1\nA\t1\n", universe=["A", "B"])
    assert warnings == [
        "line 1: the root entry is implicit; ignored",
        "missing B: defaulted to 0",
    ]
    for text, message in [
        ("A\t1\t1\n", "line 1: expected 2 tab-separated fields"),
        ("# c\nA\t2\n", "line 2: bit must be 0 or 1"),
        ("A\t1\nA\t0\n", "line 2: duplicate entry for 'A'"),
    ]:
        with pytest.raises(ValueError) as err:
            load_prop_config(text)
        assert str(err.value) == message


def test_bool_to_source_minimal_parens():
    a, b, c = "a", "b", "c"
    e = BInfix("implies", (a, BInfix("&&", (b, BNot(c)))))
    assert bool_to_source(e) == "a implies b && !c"
    e = BInfix("&&", (BInfix("||", (a, b)), c))
    assert bool_to_source(e) == "(a || b) && c"
    for op in ("implies", "eqv"):
        e = BInfix(op, (a, b, c))
        assert bool_to_source(e) == f"a {op} b {op} c"
        e = BInfix(op, (a, BInfix(op, (b, c))))
        assert bool_to_source(e) == f"a {op} (b {op} c)"
        e = BInfix("&&", (BInfix(op, (a, b)), c))
        assert bool_to_source(e) == f"(a {op} b) && c"
    e = BInfix("&&", (BInfix("&&", (a, b)), c))
    assert bool_to_source(e) == "(a && b) && c"
    e = BInfix("||", (a, BInfix("||", (b, c))))
    assert bool_to_source(e) == "a || (b || c)"


# ---------------------------------------------------------------------------
# the leaf contract: a feature is its name, a constant is True or False


def _leaves(e):
    """Every leaf of ``e``, and every name a cardinality node counts."""
    stack = [e]
    while stack:
        e = stack.pop()
        if isinstance(e, BNot):
            stack.append(e.child)
        elif isinstance(e, BInfix):
            stack.extend(e.items)
        elif isinstance(e, BCard):
            yield from e.names
        else:
            yield e


def _well_formed_models():
    models = [load_model(p) for p in fixture_paths("analysis", "family", "sound", "wf")]
    gen = perfbench_gen()
    models += [
        mk_model(gen.generate(seed, size).text)
        for seed in (1, 2)
        for size in (36, 130, 500)
    ]
    rng = random.Random(27)
    models += [mk_model(random_model(rng)) for _ in range(300)]
    return [m for m in models if not check_well_formed(m)]


def test_formula_leaves_are_feature_names_and_bools():
    seen = {str: 0, bool: 0}
    for m in _well_formed_models():
        formula = build_formula(m)
        names = set(formula.variables)
        for con in formula.constraints:
            for leaf in _leaves(con.expr):
                # False == 0 and True == 1: only the class tells them apart
                assert leaf.__class__ is bool or (
                    leaf.__class__ is str and leaf in names
                ), (con, leaf)
                seen[leaf.__class__] += 1
    assert seen[str] > 5000 and seen[bool] > 100, seen


def test_degenerate_input_gives_a_bool():
    assert band([]) is True and bor([]) is False
    assert band([True, True]) is True and bor([False, False]) is False
    assert band(["a", False]) is False and bor([True, "a"]) is True
    assert bnot(True) is False and bnot(False) is True
    assert implies(False, "a") is True and implies("a", True) is True
    assert eqv(True, True) is True and eqv(False, True) is False
    assert choose([], 0, 0) is True and choose(["a", "b"], 0, 5) is True
    assert choose([], 1, 1) is False and choose(["a"], 2, 3) is False


def test_constant_leaves_print_as_digits():
    assert bool_to_source(True) == "1" and bool_to_source(False) == "0"
    e = BInfix("||", ("a", False, BNot(True)))
    assert bool_to_source(e) == "a || 0 || !1"


@pytest.mark.parametrize(
    "leaf", [1, 0, None, Ident("A")], ids=["1", "0", "None", "Ident"]
)
def test_other_leaves_raise_type_error(leaf):
    cp = PropConfig({"a": 1})
    for e in (leaf, BNot(leaf), BInfix("&&", ("a", leaf))):
        with pytest.raises(TypeError):
            eval_p(e, cp)
        with pytest.raises(TypeError):
            bool_to_source(e)
        with pytest.raises(TypeError):
            to_cnf(PropFormula((Constraint("a", "node", e),), ("a",)))
