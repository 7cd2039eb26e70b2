"""Evaluation and validation semantics tests."""

import itertools
import random

import pytest

from cdlsem import Const, EvalError, OracleError, ValidationError, parse_list_expr
from cdlsem.parser import parse_goal_expr as pg
from cdlsem.semantics import (
    Configuration,
    access,
    calculated_holds,
    compare_values,
    dump_configuration,
    enumerate_configurations,
    eval_expr,
    flavor_holds,
    impls,
    interface_holds,
    legal_values_holds,
    load_configuration,
    satisfies_legal,
    to_bool,
    validate_configuration,
)

from cdlsem.model import TOP

from conftest import fixture_paths, load_model, mk_model, random_model


EMPTY = mk_model("")


def cfg(**entries):
    return Configuration({k: tuple(v) for k, v in entries.items()})


# ---------------------------------------------------------------------------
# the Configuration constructor


@pytest.mark.parametrize(
    "entries,message",
    [
        ([("A", (2, 1, "1"))], "bits must be 0/1 for 'A'"),
        ([("A", (1, -1, "1"))], "bits must be 0/1 for 'A'"),
        ([("A", (1, 1, 1))], "data value of 'A' must be a string"),
        ([(TOP, (0, 1, "1"))], 'the root is fixed at (1, 1, "1")'),
        ([(TOP, (1, 1, "0"))], 'the root is fixed at (1, 1, "1")'),
        ([("A", (1, 1, "1")), ("A", (0, 0, "0"))], "duplicate entry for 'A'"),
        # the entry checks come before the root and duplicate checks
        ([(TOP, (2, 1, "1"))], "bits must be 0/1 for '⊤'"),
        ([("A", (1, 1, "1")), ("A", (1, 1, None))],
         "data value of 'A' must be a string"),
    ],
)
def test_configuration_constructor_errors(entries, message):
    with pytest.raises(ValueError) as err:
        Configuration(entries)
    assert str(err.value) == message


def test_configuration_root_and_repr():
    c = Configuration({"B": (0, 0, "0"), TOP: (1, 1, "1"), "A": (1, 1, "x")})
    assert c[TOP] == (1, 1, "1") and c.domain == {"A", "B"}
    assert c.items() == [("A", (1, 1, "x")), ("B", (0, 0, "0"))]
    assert repr(c) == "Configuration(A=(1, 1, 'x'), B=(0, 0, '0'))"
    assert repr(Configuration()) == "Configuration()"
    assert Configuration({TOP: (1, 1, "1")}) == Configuration()
    assert (c.state("A"), c.value("A"), c.data("A")) == (1, 1, "x")


# ---------------------------------------------------------------------------
# casts and access


@pytest.mark.parametrize(
    "value,expected",
    [
        ("0", 0), ("", 0), ("00", 0), ("-0", 0), ("+0", 0), ("0.0", 0),
        ("0x0", 0), ("0.", 0), (".0", 0), ("0e3", 0),
        ("hello", 1), ("1", 1), ("0x10", 1), ("-2", 1), ("0.5", 1),
        (" 0", 1), ("0 ", 1), ("--0", 1),
        # past the 4300-digit cap on integers, truthiness still holds
        ("0" * 5000, 0), ("-" + "0" * 5000 + "1", 1), ("0x" + "0" * 5000, 0),
    ],
)
def test_to_bool(value, expected):
    assert to_bool(value) == expected


def test_to_bool_idempotent_under_cast():
    rng = random.Random(7)
    pool = ["0", "", "1", "42", "x", "0.0", "-3", "0x0", "abc", "00", "  "]
    for _ in range(200):
        v = rng.choice(pool)
        assert to_bool(str(to_bool(v))) == to_bool(v)


def test_access_masks_disabled():
    c = cfg(X=(0, 1, "99"))
    assert access("X", c) == "0"


def test_access_enabled_returns_data():
    assert access("X", cfg(X=(1, 1, "42"))) == "42"
    assert access("X", cfg(X=(1, 0, ""))) == ""


def test_access_is_zero_whenever_disabled():
    rng = random.Random(3)
    for _ in range(100):
        data = rng.choice(["", "0", "7", "zz"])
        c = cfg(X=(0, rng.randint(0, 1), data))
        assert access("X", c) == "0"


def test_access_unknown_id():
    with pytest.raises(EvalError) as err:
        access("NOPE", cfg())
    assert err.value.code == "unknown-id"


# ---------------------------------------------------------------------------
# eval


C1 = cfg(A=(1, 1, "1"), B=(0, 1, "1"), N=(1, 1, "6"), S=(1, 1, "hello"))


def ev(text, c=C1, m=EMPTY):
    return eval_expr(pg(text), c, m)


def test_eval_arithmetic_basics():
    assert ev("1 + 2") == "3"
    assert ev("7 / 2") == "3"
    assert ev("-7 / 2") == "-4"  # floored like Tcl
    assert ev("-7 % 2") == "1"  # remainder takes the divisor's sign
    assert ev("1 / 2.0") == "0.5"
    assert ev("2.5 + 1") == "3.5"
    assert ev("1 << 4") == "16"
    assert ev("~5") == "-6"


def test_eval_logic_over_casts():
    assert ev("A && B") == "0"  # B disabled reads as "0"
    assert ev("B || A") == "1"
    assert ev("S && A") == "1"  # non-empty string casts to true


def test_eval_conditional_lazy():
    assert ev("0 ? UNBOUND : 7") == "7"
    assert ev("A ? 7 : 1 / 0") == "7"
    assert ev("0 ? 1 / 0 : 5") == "5"


def test_eval_comparison_modes():
    assert ev("0x10 <= 16") == "1"  # numeric, hex
    assert ev('"abc" < "abd"') == "1"  # textual
    assert ev('"10" < "9"') == "0"  # numeric because both sides parse
    assert ev('S == "hello"') == "1"


@pytest.mark.parametrize(
    "text,code",
    [
        ("5 % 0", "div-zero"),
        ("5 / 0", "div-zero"),
        ("1.0 / 0.0", "div-zero"),
        ('"x" + 1', "not-numeric"),
        ("1.5 % 2", "not-numeric"),
        ("~1.5", "not-numeric"),
        ("GHOST + 1", "unknown-id"),
        ("1 << -2", "invalid-shift"),
        ("1 << 20000", "too-large"),
        ("~" + "9" * 4301, "too-large"),
        ("0x" + "f" * 3600 + " + 0", "too-large"),
        ("1" + "0" * 400 + " + 0.5", "too-large"),  # no float that large
        ("1.5 / 1" + "0" * 400, "too-large"),
    ],
)
def test_eval_errors(text, code):
    with pytest.raises(EvalError) as err:
        ev(text)
    assert err.value.code == code


def test_integers_up_to_the_digit_cap():
    assert ev("9" * 4300 + " - 1") == "9" * 4299 + "8"
    assert ev("-" + "9" * 4300 + " < 0") == "1"
    assert ev("0x" + "f" * 3600 + " > 1") == "1"  # hex text has no cap


def test_eval_chains_fold_left():
    assert ev("10 - 3 - 2") == "5"
    assert ev("N / 4 / 2.0") == "0.5"
    assert ev("2 < 3 < 1") == "0"  # (2 < 3) is 1, and 1 < 1 fails
    assert ev("3 > 2 > 1") == "0"
    assert ev("1 == 1 == 1") == "1"
    assert ev('S < "z" < 2') == "1"
    assert ev("1 && 2 && 0") == "0"
    assert ev("0 implies 0 implies 0") == "0"
    assert ev("1 xor 1 xor 1") == "1"
    assert ev("0 eqv 0 eqv 0") == "0"


@pytest.mark.parametrize(
    "text,message",
    [
        ('1 + "x" + GHOST', "not-numeric: non-numeric operand to '+'"),
        ("GHOST - 1 / 0 - OTHER", "unknown-id: unknown feature 'GHOST'"),
        ("N * 2 / 0 * GHOST", "div-zero: division by zero"),
        ("N % 4 % 0", "div-zero: modulo by zero"),
        ("1 << 2 << -1", "invalid-shift: bad shift width -1"),
        ('"a" - N - 1', "not-numeric: non-numeric operand to '-'"),
    ],
)
def test_arithmetic_chain_error_text(text, message):
    # the first failing step of the left fold, as for a left-nested tree
    with pytest.raises(EvalError) as err:
        ev(text)
    assert str(err.value) == message


def test_eval_strict_binary_logic_propagates_errors():
    # unlike the conditional, && evaluates both operands
    with pytest.raises(EvalError):
        ev("0 && 1 / 0")


def test_builtins_defaults():
    m = mk_model("cdl_option A {}")
    c = cfg(A=(1, 1, "1"), B=(0, 1, "9"))
    assert eval_expr(pg("is_loaded(A)"), c, m) == "1"
    assert eval_expr(pg("is_loaded(B)"), c, m) == "0"
    assert eval_expr(pg("get_data(B)"), c, m) == "9"  # state ignored
    assert eval_expr(pg("is_active(B)"), c, m) == "0"
    assert eval_expr(pg("is_enabled(B)"), c, m) == "1"
    # an identifier or a constant names a feature by its text, any other
    # argument by its value; only is_loaded accepts an unknown name
    c = cfg(A=(1, 1, "B"), B=(0, 1, "9"))
    assert eval_expr(pg('get_data("B")'), c, m) == "9"
    assert eval_expr(pg("is_active(A)"), c, m) == "1"
    assert eval_expr(pg("is_active(get_data(A))"), c, m) == "0"
    assert eval_expr(pg("is_loaded(GHOST)"), c, m) == "0"
    for func in ("get_data", "is_active", "is_enabled"):
        with pytest.raises(EvalError, match="unknown-id: unknown feature 'GHOST'"):
            eval_expr(pg(f"{func}(GHOST)"), c, m)
    assert ev('is_substr("Hello World", "WORLD")') == "1"
    assert ev('is_xsubstr("Hello World", "WORLD")') == "0"
    assert ev('version_cmp("1.2", "1.10")') == "-1"
    assert ev('version_cmp("1.2.0", "1.2")') == "0"
    assert ev('version_cmp("v2", "v10")') == "1"  # textual components


def test_version_cmp_missing_components_are_zero():
    assert ev('version_cmp("1.2", "1.2.1")') == "-1"
    assert ev('version_cmp("1.2.0.0", "1.2")') == "0"


def test_compare_values_numeric_first():
    assert compare_values("05", "5") == 0
    assert compare_values("a", "b") == -1


def test_compare_values_equal_texts():
    # equal texts compare equal, up to the digit cap and past it for
    # texts that are no integer; an integer past the cap is still refused
    for text in ("a", "", "05", "1e999", "9" * 4300, "-" + "9" * 4300, "x" * 5000):
        assert compare_values(text, text) == 0
    for text in ("9" * 4301, "-" + "9" * 4301):
        with pytest.raises(EvalError) as err:
            compare_values(text, text)
        assert err.value.code == "too-large"


# ---------------------------------------------------------------------------
# legal values


def test_satisfies_legal_range():
    assert satisfies_legal("5", C1, parse_list_expr("1 to 10"), EMPTY) == 1
    for d, expect in [("1", 1), ("10", 1), ("0", 0), ("11", 0), ("0x4", 1)]:
        assert satisfies_legal(d, C1, parse_list_expr("1 to (N + 4)"), EMPTY) == expect
    assert satisfies_legal("b", C1, parse_list_expr('"a" to "c"'), EMPTY) == 1
    # both bounds are evaluated, low first, even when the low one rejects
    for text, message in [
        ("GHOST to (1 / 0)", "unknown-id: unknown feature 'GHOST'"),
        ("7 to GHOST", "unknown-id: unknown feature 'GHOST'"),
    ]:
        with pytest.raises(EvalError) as err:
            satisfies_legal("5", C1, parse_list_expr(text), EMPTY)
        assert str(err.value) == message


def test_satisfies_legal_equality():
    assert satisfies_legal("x", C1, parse_list_expr('"x"'), EMPTY) == 1


def test_satisfies_legal_no_match():
    assert satisfies_legal("0", C1, parse_list_expr("1 2"), EMPTY) == 0


def test_satisfies_legal_numeric_equality():
    assert satisfies_legal("05", C1, parse_list_expr("5"), EMPTY) == 1


def test_satisfies_legal_concatenation_is_disjunction():
    rng = random.Random(11)
    values = ["0", "1", "2", "7", "x"]
    items = ["0", "2 to 5", '"x"', "7", "1"]
    for _ in range(100):
        rng.shuffle(items)
        k = rng.randint(1, len(items) - 1)
        left = parse_list_expr(" ".join(items[:k]))
        right = parse_list_expr(" ".join(items[k:]))
        whole = parse_list_expr(" ".join(items))
        for d in values:
            expect = satisfies_legal(d, C1, left, EMPTY) or satisfies_legal(
                d, C1, right, EMPTY
            )
            assert satisfies_legal(d, C1, whole, EMPTY) == expect


# ---------------------------------------------------------------------------
# per-node checks (one model per flavor/property shape)


def node_of(src, name):
    m = mk_model(src)
    return m, m.node(name)


def node_failures(m, c, name):
    """Explanations of the node-equivalence failures validation reports."""
    return [
        f.explanation
        for f in validate_configuration(m, c).failures
        if (f.node, f.family) == (name, "node")
    ]


def test_node_holds_both_off():
    m = mk_model("cdl_component C { cdl_option A {} }")
    c = cfg(C=(0, 0, "1"), A=(0, 1, "1"))
    assert node_failures(m, c, "A") == []


def test_node_holds_on():
    m = mk_model("cdl_option A {}")
    assert node_failures(m, cfg(A=(1, 1, "1")), "A") == []


def test_node_holds_constraint_forces_off():
    m = mk_model("cdl_option A { requires 0 }")
    assert node_failures(m, cfg(A=(1, 1, "1")), "A") == [
        "enabled_state=1 but parent_state=1, enabled_value=1, "
        "constraints=failing; constraint 0 is false"
    ]
    assert node_failures(m, cfg(A=(0, 1, "1")), "A") == []


def test_node_failure_off_the_guard_still_gives_reasons():
    m = mk_model("cdl_component C { cdl_option A { requires 0 } }")
    assert node_failures(m, cfg(C=(0, 1, "1"), A=(1, 1, "1")), "A") == [
        "enabled_state=1 but parent_state=0, enabled_value=1, "
        "constraints=failing; constraint 0 is false"
    ]


def test_node_holds_eval_error_counts_as_failure():
    m = mk_model('cdl_option A { requires { "x" + 1 } }')
    assert node_failures(m, cfg(A=(1, 1, "1")), "A") == [
        "enabled_state=1 but parent_state=1, enabled_value=1, "
        "constraints=failing; constraint \"x\" + 1 failed: "
        "non-numeric operand to '+'"
    ]
    assert node_failures(m, cfg(A=(0, 1, "1")), "A") == []


def test_flavor_holds():
    m, n = node_of("cdl_option A { flavor data }", "A")
    assert flavor_holds(n, cfg(A=(1, 0, "5"))) == 0
    m, n = node_of("cdl_option A { flavor bool }", "A")
    assert flavor_holds(n, cfg(A=(0, 0, "5"))) == 1
    m, n = node_of("cdl_option A { flavor none }", "A")
    assert flavor_holds(n, cfg(A=(1, 1, "5"))) == 1


def test_calculated_holds_bool():
    m, n = node_of("cdl_option A { flavor bool\n calculated 1 }", "A")
    assert calculated_holds(n, cfg(A=(1, 1, "7")), m) == 1
    assert calculated_holds(n, cfg(A=(1, 0, "7")), m) == 0


def test_calculated_holds_booldata():
    m, n = node_of("cdl_option A { flavor booldata\n calculated 5 }", "A")
    assert calculated_holds(n, cfg(A=(1, 1, "5")), m) == 1
    assert calculated_holds(n, cfg(A=(1, 0, "5")), m) == 0
    assert calculated_holds(n, cfg(A=(1, 1, "6")), m) == 0


def test_calculated_holds_data():
    m, n = node_of("cdl_option A { flavor data\n calculated 5 }", "A")
    assert calculated_holds(n, cfg(A=(1, 1, "5")), m) == 1
    assert calculated_holds(n, cfg(A=(1, 1, "7")), m) == 0


def test_calculated_exact_string_equality():
    m, n = node_of("cdl_option A { flavor data\n calculated 5 }", "A")
    # unlike legal_values matching, the calculated family compares verbatim
    assert calculated_holds(n, cfg(A=(1, 1, "05")), m) == 0


def test_legal_values_holds():
    m, n = node_of("cdl_option A { flavor data\n legal_values 1 to 10 }", "A")
    assert legal_values_holds(n, cfg(A=(1, 1, "3")), m) == 1
    m, n = node_of("cdl_option A { flavor none\n legal_values 1 }", "A")
    assert legal_values_holds(n, cfg(A=(1, 1, "9")), m) == 1
    m, n = node_of("cdl_option A { flavor booldata\n legal_values 1 }", "A")
    assert legal_values_holds(n, cfg(A=(1, 1, "2")), m) == 0
    # an item that fails to evaluate rejects the value
    m, n = node_of("cdl_option A { flavor data\n legal_values (1/0) }", "A")
    assert legal_values_holds(n, cfg(A=(1, 1, "1")), m) == 0


IFACE_SRC = """
cdl_interface I { flavor %s }
cdl_option A { implements I }
cdl_option B { implements I }
"""


def test_impls_counts_enabled_only():
    m = mk_model(IFACE_SRC % "data")
    c = cfg(I=(1, 1, "1"), A=(1, 1, "1"), B=(0, 0, "1"))
    assert {n.name for n in impls("I", c, m)} == {"A"}
    assert impls("NOBODY", c, m) == frozenset()


def test_interfaces_may_implement_interfaces():
    m = mk_model("cdl_interface I {}\ncdl_interface J { implements I }")
    c = cfg(I=(1, 1, "1"), J=(1, 1, "0"))
    assert {n.name for n in impls("I", c, m)} == {"J"}


def test_interface_holds_data():
    m = mk_model(IFACE_SRC % "data")
    c = cfg(I=(1, 1, "2"), A=(1, 1, "1"), B=(1, 1, "1"))
    assert interface_holds(m.node("I"), c, m) == 1
    c = cfg(I=(1, 1, "1"), A=(1, 1, "1"), B=(1, 1, "1"))
    assert interface_holds(m.node("I"), c, m) == 0


def test_interface_holds_bool():
    m = mk_model(IFACE_SRC % "bool")
    c = cfg(I=(0, 0, "0"), A=(0, 0, "1"), B=(0, 0, "1"))
    assert interface_holds(m.node("I"), c, m) == 1


def test_interface_holds_booldata():
    m = mk_model(IFACE_SRC % "booldata")
    c = cfg(I=(1, 1, "2"), A=(1, 1, "1"), B=(1, 1, "1"))
    assert interface_holds(m.node("I"), c, m) == 1
    c = cfg(I=(1, 0, "2"), A=(1, 1, "1"), B=(1, 1, "1"))
    assert interface_holds(m.node("I"), c, m) == 0


# ---------------------------------------------------------------------------
# validation


def test_validate_empty_model_accepts_root_only():
    assert validate_configuration(EMPTY, cfg()).accepted


def test_validate_unloaded_enabled_rejected():
    m = mk_model("cdl_option A { requires X }")
    rep = validate_configuration(m, cfg(A=(0, 0, "1"), X=(1, 1, "1")))
    assert not rep.accepted
    assert [(f.node, f.family) for f in rep.failures] == [("X", "unloaded")]


def test_validate_single_bool_option():
    m = mk_model("cdl_option A {}")
    assert validate_configuration(m, cfg(A=(1, 1, "1"))).accepted


def test_validate_incomplete_raises():
    m = mk_model("cdl_option A { requires X }")
    with pytest.raises(ValidationError) as err:
        validate_configuration(m, cfg(A=(0, 0, "1")))
    assert err.value.code == "incomplete" and err.value.missing == ("X",)


def test_validate_reports_family_per_failure():
    m = mk_model(
        "cdl_option A { flavor data\n legal_values 2 to 4 }\ncdl_option B {}"
    )
    rep = validate_configuration(m, cfg(A=(1, 1, "9"), B=(1, 0, "1")))
    fams = {(f.node, f.family) for f in rep.failures}
    assert ("A", "legal_values") in fams and ("B", "node") in fams


# ---------------------------------------------------------------------------
# enumeration oracle


def test_enumerate_empty_model():
    assert enumerate_configurations(EMPTY, ["0", "1"]) == [cfg()]


def test_enumerate_needs_a_data_domain():
    with pytest.raises(ValueError) as err:
        enumerate_configurations(EMPTY, [])
    assert str(err.value) == "data domain must not be empty"


def test_enumerate_mandatory_data_value_always_set():
    m = mk_model("cdl_option A { flavor data }")
    out = enumerate_configurations(m, ["0", "1"])
    assert out and all(c.value("A") == 1 for c in out)
    assert all(c.state("A") == 1 for c in out)


def test_enumerate_requires_zero_never_enabled():
    m = mk_model("cdl_option A { requires 0 }")
    out = enumerate_configurations(m, ["0", "1"])
    assert out and all(c.state("A") == 0 for c in out)


def test_enumerate_budget():
    m = mk_model("\n".join(f"cdl_option F{i} {{}}" for i in range(12)))
    with pytest.raises(OracleError) as err:
        enumerate_configurations(m, ["0", "1"], budget=1000)
    assert err.value.code == "too-large"


def test_enumerate_equals_validation_filter():
    m = mk_model("cdl_component C { cdl_option A {} }\ncdl_option D { flavor data }")
    ids = sorted(m.universe())
    expected = []
    for combo in itertools.product(
        [(s, v, d) for s in (0, 1) for v in (0, 1) for d in ("0", "1")],
        repeat=len(ids),
    ):
        c = Configuration(zip(ids, combo))
        if validate_configuration(m, c).accepted:
            expected.append(c)
    assert set(enumerate_configurations(m, ["0", "1"])) == set(expected)


def test_enumerate_invariants_on_accepted_sets():
    m = mk_model(
        "cdl_component C { cdl_option A { flavor none } }\ncdl_option D { flavor data }"
    )
    for c in enumerate_configurations(m, ["0", "1"]):
        # mandatory flavors keep their enabled value set
        assert c.value("A") == 1 and c.value("D") == 1
        # enabled children need enabled parents
        if c.state("A") == 1:
            assert c.state("C") == 1


def _accepted_by_validation(m, domain):
    """Reference oracle: validate every candidate of the unfiltered product."""
    ids = sorted(m.universe())
    loaded = m.ids()
    choices = [
        [
            (s, v, d)
            for s in (0, 1)
            for v in (0, 1)
            for d in (domain if x in loaded else ("0",))
        ]
        for x in ids
    ]
    candidates = (Configuration(zip(ids, t)) for t in itertools.product(*choices))
    return [c for c in candidates if validate_configuration(m, c).accepted]


_DOMAINS = [("", "1", "x"), ("0", "2", "abc"), ("", "x"), ("0", "1"), ("",), ("x",)]
_MAX_CANDIDATES = 35_000  # keeps the reference oracle to about a second a model


def _small_domain(m, domains):
    """The first domain whose unfiltered candidate space fits the cap."""
    loaded = len(m.ids())
    unloaded = len(m.universe()) - loaded
    for domain in domains:
        if (4 * len(domain)) ** loaded * 4**unloaded <= _MAX_CANDIDATES:
            return domain
    raise AssertionError("model too large for the reference oracle")


@pytest.mark.parametrize(
    "path", fixture_paths("family", "sound"), ids=lambda p: p.stem
)
def test_enumerate_equals_validation_on_fixtures(path):
    m = load_model(path)
    domain = _small_domain(m, _DOMAINS)
    assert enumerate_configurations(m, domain) == _accepted_by_validation(
        m, domain
    )


def test_enumerate_equals_validation_on_generated_models():
    rng = random.Random(4242)
    seen = set()
    for _ in range(60):
        source = random_model(rng)
        m = mk_model(source)
        domains = _DOMAINS[:]
        rng.shuffle(domains)
        domain = _small_domain(m, domains)
        got = enumerate_configurations(m, domain)
        assert got == _accepted_by_validation(m, domain), (source, domain)
        seen.update(n.flavor for n in m)
        seen.add("unloaded" if m.unloaded_ids() else "loaded")
        seen.add("accepting" if got else "void")
    assert {"none", "data", "unloaded", "accepting"} <= seen


def test_enumerated_configurations_equal_checked_ones():
    # enumeration wraps its candidates without the constructor's checks; each
    # one must be the configuration the checked constructor builds
    rng = random.Random(99)
    models = [load_model(p) for p in fixture_paths("family", "sound")]
    models += [mk_model(random_model(rng)) for _ in range(30)]
    listed = 0
    for m in models:
        for c in enumerate_configurations(m, _small_domain(m, _DOMAINS)):
            checked = Configuration(c.items())
            assert c == checked and checked == c and hash(c) == hash(checked)
            assert c.domain == m.universe() and repr(c) == repr(checked)
            assert validate_configuration(m, c).accepted
            listed += 1
    assert listed > 1000


# ---------------------------------------------------------------------------
# TSV files


def test_configuration_tsv_round_trip():
    c = cfg(A=(1, 1, "hello"), B=(0, 0, "0"))
    text = dump_configuration(c)
    again, warnings = load_configuration(text)
    assert again == c and warnings == []


# every character at which str.splitlines breaks a line
_LINE_BREAKS = "\n\x0b\x0c\r\x1c\x1d\x1e\x85\u2028\u2029"


def test_line_breaks_are_those_of_splitlines():
    found = [chr(k) for k in range(0x3000) if len(f"a{chr(k)}b".splitlines()) > 1]
    assert "".join(found) == _LINE_BREAKS


@pytest.mark.parametrize("ch", "\t" + _LINE_BREAKS, ids=lambda ch: f"U+{ord(ch):04X}")
def test_dump_rejects_what_load_cannot_read(ch):
    # the load would fail with "expected 4 tab-separated fields"
    for data in (f"a{ch}b", f"a{ch}", f"{ch}", f"a\r{ch}b"):
        with pytest.raises(ValueError, match="cannot be written as TSV"):
            dump_configuration(cfg(A=(1, 1, data)))


def test_dump_round_trips_every_other_character():
    kept = "".join(chr(k) for k in range(0x3000) if chr(k) not in "\t" + _LINE_BREAKS)
    c = cfg(A=(1, 1, kept), B=(1, 1, f" {kept} "), C=(0, 0, ""))
    again, warnings = load_configuration(dump_configuration(c))
    assert again == c and warnings == []


def test_load_configuration_defaults_missing():
    got, warnings = load_configuration("A\t1\t1\t1\n", universe=["A", "B"])
    assert got == cfg(A=(1, 1, "1"), B=(0, 0, "0"))
    assert len(warnings) == 1


def test_load_configuration_strict_missing():
    with pytest.raises(ValidationError):
        load_configuration("A\t1\t1\t1\n", universe=["A", "B"], strict=True)


def test_load_configuration_bad_lines():
    with pytest.raises(ValueError):
        load_configuration("A\t1\t1\n")
    with pytest.raises(ValueError):
        load_configuration("A\t2\t1\tx\n")
    with pytest.raises(ValueError):
        load_configuration("A\t1\t1\tx\nA\t0\t0\ty\n")


def test_load_configuration_messages():
    _, warnings = load_configuration("⊤\t1\t1\t1\nA\t1\t1\t1\n", universe=["A", "B"])
    assert warnings == [
        "line 1: the root entry is implicit; ignored",
        "missing B: defaulted to 0\t0\t0",
    ]
    for text, message in [
        ("A\t1\t1\n", "line 1: expected 4 tab-separated fields"),
        ("# c\nA\t1\t2\tx\n", "line 2: state and value must be 0 or 1"),
        ("A\t1\t1\tx\nA\t0\t0\ty\n", "line 2: duplicate entry for 'A'"),
    ]:
        with pytest.raises(ValueError) as err:
            load_configuration(text)
        assert str(err.value) == message


def test_load_configuration_comments_and_blanks():
    got, _ = load_configuration("# header\n\nA\t1\t0\tzz\n")
    assert got == cfg(A=(1, 0, "zz"))
