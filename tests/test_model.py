"""Normalization, well-formedness and model container tests."""

import json
import random
import re
from dataclasses import replace

import pytest

from cdlsem import (
    Const,
    Ident,
    Infix,
    NormalizationError,
    RawNode,
    TOP,
    check_well_formed,
    model_to_json,
    normalize_model,
    parse_list_expr,
    parse_model,
)
from cdlsem.exprs import to_source
from cdlsem.model import (
    DEFAULT_FLAVOR,
    FLAVORS,
    Model,
    is_valid_feature_id,
    model_to_pretty,
)
from cdlsem.prop import build_formula
from cdlsem.semantics import Configuration, impls

from conftest import FIXTURES, fixture_paths, load_model, mk_model, perfbench_gen


# ---------------------------------------------------------------------------
# normalize_model


def test_package_defaults_to_booldata():
    m = mk_model("cdl_package P {}")
    assert m.node("P").flavor == "booldata"


@pytest.mark.parametrize(
    "src,flavor",
    [
        ("cdl_component C {}", "bool"),
        ("cdl_option O {}", "bool"),
        ("cdl_interface I {}", "data"),
    ],
)
def test_flavor_defaults(src, flavor):
    m = mk_model(src)
    (node,) = list(m)
    assert node.flavor == flavor


def test_kinds_and_flavors_are_their_texts():
    # every kind with its flavor defaulted and with each flavor, read both as
    # a one-word property line and as a command; a str enum member would
    # format as "Kind.OPTION" on Python 3.11
    lines = []
    for kind in sorted(DEFAULT_FLAVOR):
        lines.append(f"cdl_{kind} {kind}_default {{}}")
        for f in sorted(FLAVORS):
            lines.append(f"cdl_{kind} {kind}_{f} {{\n flavor {f}\n}}")
            lines.append(f"cdl_{kind} {kind}_{f}_inline {{ flavor {f} }}")
    raw = parse_model("\n".join(lines))[0]
    m = normalize_model(raw)
    texts = [r.kind for r in raw] + [r.flavor for r in raw if r.flavor is not None]
    texts += [n.kind for n in m] + [n.flavor for n in m]
    assert len(texts) == 4 * 9 + 4 * 8 + 2 * 4 * 9
    for x in texts:
        assert type(x) is str and f"{x}" == x
    pairs = {(k, f) for k in DEFAULT_FLAVOR for f in FLAVORS}
    assert {(n.kind, n.flavor) for n in m} == pairs
    assert all(m.node(f"{k}_default").flavor == f for k, f in DEFAULT_FLAVOR.items())


def test_enumeration_becomes_disjunction():
    m = mk_model("cdl_option X { requires A B }")
    assert m.node("X").requires == frozenset(
        {Infix("||", (Ident("A"), Ident("B")))}
    )


def test_calculated_enumeration_becomes_disjunction():
    m = mk_model("cdl_option X { flavor bool\n calculated A B }")
    assert m.node("X").calculated == Infix("||", (Ident("A"), Ident("B")))


def test_enumeration_and_braced_disjunction_are_one_entry():
    m = mk_model("cdl_option X { requires { A || B } C\n requires A B C }")
    assert m.node("X").requires == frozenset(
        {Infix("||", (Ident("A"), Ident("B"), Ident("C")))}
    )


def test_top_level_parent_is_root():
    m = mk_model("cdl_option A {}")
    assert m.node("A").parent == TOP


def test_empty_model():
    m = normalize_model([])
    assert len(m) == 0 and m.ids() == frozenset()


def test_duplicate_name_rejected():
    raws = [RawNode("A", "option"), RawNode("A", "option")]
    with pytest.raises(NormalizationError) as err:
        normalize_model(raws)
    assert err.value.code == "duplicate"


def test_dangling_parent_rejected():
    with pytest.raises(NormalizationError) as err:
        normalize_model([RawNode("A", "option", parent="GHOST")])
    assert err.value.code == "unresolved-parent"


def test_parent_cycle_rejected():
    raws = [
        RawNode("A", "component", parent="B"),
        RawNode("B", "component", parent="A"),
    ]
    with pytest.raises(NormalizationError) as err:
        normalize_model(raws)
    assert err.value.code == "cycle"
    assert err.value.message == "parent cycle through 'A'"


def test_parent_cycle_reported_where_it_closes():
    raws = [
        RawNode("X", "component", parent="A"),
        RawNode("A", "component", parent="B"),
        RawNode("B", "component", parent="A"),
    ]
    with pytest.raises(NormalizationError, match="parent cycle through 'A'"):
        normalize_model(raws)


def test_reserved_name_rejected():
    with pytest.raises(NormalizationError) as err:
        normalize_model([RawNode(TOP, "option")])
    assert err.value.code == "invalid-name"


def _raw_node(node) -> RawNode:
    """Turn a normalized node back into an equivalent raw record."""
    return RawNode(
        name=node.name,
        kind=node.kind,
        parent=None if node.parent == TOP else node.parent,
        flavor=node.flavor,
        active_if=[(e,) for e in node.active_if],
        requires=[(e,) for e in node.requires],
        calculated=(node.calculated,) if node.calculated else None,
        legal_values=node.legal_values,
        implements=sorted(node.implements),
    )


def test_normalize_is_idempotent():
    m = mk_model(
        """
        cdl_package P {
            requires A B
            cdl_component C {
                cdl_option A { flavor data ; legal_values 1 2 }
            }
        }
        cdl_option B {}
        """
    )
    again = normalize_model(_raw_node(n) for n in m)
    assert again == m


def test_normalized_nodes_carry_flavors_and_single_expressions():
    m = mk_model("cdl_package P { requires A B\n active_if C D }")
    node = m.node("P")
    assert node.flavor is not None
    assert len(node.requires) == 1 and len(node.active_if) == 1


def test_ids_match_raw_names():
    m = mk_model("cdl_option A {}\ncdl_option B {}\ncdl_interface I {}")
    assert m.ids() == {"A", "B", "I"}


# ---------------------------------------------------------------------------
# check_well_formed


def test_none_with_calculated_flags_a():
    m = mk_model("cdl_option A { flavor none\n calculated 1 }")
    assert [v.rule for v in check_well_formed(m)] == ["a"]


def test_interface_none_flags_d():
    m = mk_model("cdl_interface I { flavor none }")
    assert [v.rule for v in check_well_formed(m)] == ["d"]


def test_option_parent_flags_e():
    m = mk_model("cdl_option A { cdl_option B {} }")
    violations = check_well_formed(m)
    assert [(v.rule, v.node) for v in violations] == [("e", "A")]


def test_empty_model_is_well_formed():
    assert check_well_formed(normalize_model([])) == []


@pytest.mark.parametrize("rule", ["a", "b", "c", "d", "e"])
def test_minimal_fixture_pairs(rule):
    bad = load_model(FIXTURES / "wf" / f"rule_{rule}_bad.cdl")
    ok = load_model(FIXTURES / "wf" / f"rule_{rule}_ok.cdl")
    assert [v.rule for v in check_well_formed(bad)] == [rule]
    assert check_well_formed(ok) == []


# Rules a-d broken by one node, by flavor and by which of calculated and
# legal_values it has.  a: none with calculated; b: calculated with
# legal_values; c: bool with legal_values; d: an interface of flavor none or
# with calculated.
_PROPERTIES = ("neither", "calculated", "legal_values", "both")
_WF_RULES = {
    # kind: {flavor: (neither, calculated, legal_values, both)}
    "other": {
        "none":     ("",   "a",   "",   "ab"),
        "bool":     ("",   "",    "c",  "bc"),
        "booldata": ("",   "",    "",   "b"),
        "data":     ("",   "",    "",   "b"),
    },
    "interface": {
        "none":     ("d",  "ad",  "d",  "abd"),
        "bool":     ("",   "d",   "c",  "bcd"),
        "booldata": ("",   "d",   "",   "bd"),
        "data":     ("",   "d",   "",   "bd"),
    },
}


def _one_node_rules(kind, flavor, properties: str) -> list[tuple[str, str]]:
    node = RawNode("N", kind, flavor=flavor)
    if properties in ("calculated", "both"):
        node.calculated = (Const("1"),)
    if properties in ("legal_values", "both"):
        node.legal_values = parse_list_expr("1 2")
    return [(v.rule, v.node) for v in check_well_formed(normalize_model([node]))]


@pytest.mark.parametrize("properties", _PROPERTIES)
@pytest.mark.parametrize("flavor", sorted(FLAVORS))
@pytest.mark.parametrize("kind", sorted(DEFAULT_FLAVOR))
def test_one_node_well_formedness_table(kind, flavor, properties):
    table = _WF_RULES["interface" if kind == "interface" else "other"]
    expected = table[flavor][_PROPERTIES.index(properties)]
    assert _one_node_rules(kind, flavor, properties) == [(r, "N") for r in expected]


@pytest.mark.parametrize("kind", sorted(DEFAULT_FLAVOR))
def test_only_an_option_parent_breaks_rule_e(kind):
    m = normalize_model([RawNode("P", kind), RawNode("C", "option", parent="P")])
    expected = [("e", "P")] if kind == "option" else []
    assert [(v.rule, v.node) for v in check_well_formed(m)] == expected


def test_well_formedness_is_checked_once_per_model(monkeypatch):
    import cdlsem.model as model_module

    m = mk_model("cdl_option A { cdl_option B {} }\ncdl_option C {}")
    calls = []
    check = model_module._violations
    monkeypatch.setattr(
        model_module, "_violations", lambda m: calls.append(m) or check(m)
    )
    first = check_well_formed(m)
    first.append("not a violation")
    first.clear()
    assert [(v.rule, v.node) for v in check_well_formed(m)] == [("e", "A")]
    assert check_well_formed(m) is not check_well_formed(m)
    assert calls == [m]


def test_all_shipped_fixture_models_are_well_formed():
    for path in fixture_paths("family", "sound", "analysis"):
        assert check_well_formed(load_model(path)) == [], path


# ---------------------------------------------------------------------------
# Model container


def test_model_rejects_duplicates():
    n = mk_model("cdl_option A {}").node("A")
    with pytest.raises(ValueError):
        Model([n, n])


def test_model_checks_structure_like_normalization():
    a = mk_model("cdl_option A {}").node("A")
    for nodes, code, message in [
        # checked per node in the caller's order, not in name order
        ([replace(a, name="B"), replace(a, name="1X"), replace(a, name="B"), a, a],
         "invalid-name", "bad feature name '1X'"),
        ([replace(a, name="B"), replace(a, name="B"), replace(a, name="1X"), a, a],
         "duplicate", "duplicate node name 'B'"),
        ([a, replace(a, name="B", parent="GHOST")],
         "unresolved-parent", "node 'B' has unknown parent 'GHOST'"),
    ]:
        with pytest.raises(NormalizationError) as err:
            Model(nodes)
        assert (err.value.code, err.value.message) == (code, message)


def test_loading_a_model_walks_parents_once(monkeypatch):
    from cdlsem import model as model_module

    calls = []
    real = model_module._find_cycle

    def counting(parent_of):
        calls.append(len(parent_of))
        return real(parent_of)

    monkeypatch.setattr(model_module, "_find_cycle", counting)
    mk_model("cdl_component C { cdl_option A {}\n cdl_option B {} }")
    assert calls == [3]


def test_model_rejects_parent_cycle():
    m = mk_model("cdl_component A {}\ncdl_component B {}")
    a, b = m.node("A"), m.node("B")
    with pytest.raises(ValueError, match="parent cycle through 'A'"):
        Model([replace(a, parent="B"), replace(b, parent="A")])


def test_feature_ids_are_the_ascii_identifiers():
    # the same language as the regular expression the check once was, on
    # every string of up to two characters over ASCII, a few non-ASCII
    # letters and digits (the long s and the Kelvin sign fold to ASCII
    # under some rules), and the root's name
    rx = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
    alphabet = [chr(i) for i in range(128)] + ["é", "ß", "ſ", "K", "Ω", "٣", TOP]
    for word in [""] + alphabet + [a + b for a in alphabet for b in alphabet]:
        expected = rx.fullmatch(word) is not None and word != TOP
        assert is_valid_feature_id(word) == expected, repr(word)


def test_children_and_lookup():
    m = mk_model("cdl_component C { cdl_option A {}\n cdl_option B {} }")
    assert [m.node(n).parent for n in ("A", "B")] == ["C", "C"]
    assert m.get("C") is m.node("C") and m.node("C").parent == TOP
    assert m.get("missing") is None
    assert model_to_pretty(m) == (
        "component C [bool]\n    option A [bool]\n    option B [bool]\n"
    )


def test_pretty_walks_deep_hierarchies_without_recursion():
    depth = 1500
    raw = [
        RawNode(name=f"C{i}", kind="component", parent=f"C{i - 1}" if i else None)
        for i in range(depth)
    ]
    raw.append(RawNode(name="L", kind="option", parent=f"C{depth - 1}"))
    raw.append(RawNode(name="B", kind="option", parent="C0"))
    lines = model_to_pretty(normalize_model(raw)).splitlines()
    assert len(lines) == depth + 2
    # children in name order: B before C1 under C0
    assert lines[:3] == [
        "component C0 [bool]", "    option B [bool]", "    component C1 [bool]",
    ]
    assert lines[-1] == "    " * depth + "option L [bool]"


# two interfaces on one node, an interface nobody implements, and an
# implemented name that is no node
_TWO_INTERFACES = (
    "cdl_interface I {}\ncdl_interface J {}\ncdl_interface K {}\n"
    "cdl_option A { implements I J }\ncdl_option B { implements I U }\n"
)


def _implementer_models():
    paths = fixture_paths("family", "sound", "analysis", "wf")
    yield from ((p.name, load_model(p)) for p in paths)
    gen = perfbench_gen()
    for seed in (1, 2, 3):
        for size in (36, 130, 500):
            nodes, _ = parse_model(gen.generate(seed, size).text)
            yield f"gen{seed}_{size}", normalize_model(nodes)
    yield "two-interfaces", mk_model(_TWO_INTERFACES)


def test_implementers_index_matches_node_scan():
    rng = random.Random(7)
    seen = 0
    for label, m in _implementer_models():
        c = Configuration(
            {x: (rng.randint(0, 1), rng.randint(0, 1), "1") for x in m.universe()}
        )
        names = {i for n in m for i in n.implements}
        names |= {n.name for n in m if n.kind == "interface"}
        for name in sorted(names) + ["NO_SUCH_NAME"]:
            scan = frozenset(n.name for n in m if name in n.implements)
            assert m.implementers(name) == scan, (label, name)
            enabled = frozenset(
                n for n in m if name in n.implements and c.state(n.name) == 1
            )
            assert impls(name, c, m) == enabled, (label, name)
            seen += bool(scan)
    assert seen > 50
    hand = mk_model(_TWO_INTERFACES)
    assert hand.implementers("I") == {"A", "B"}
    assert hand.implementers("J") == {"A"}
    assert hand.implementers("U") == {"B"} and "U" not in hand
    assert hand.implementers("K") == hand.implementers("A") == frozenset()


def test_sorted_constraints_table_matches_node_sort():
    seen = 0
    for label, m in _implementer_models():
        for n in m:
            want = tuple(sorted(n.constraints(), key=to_source))
            assert m.sorted_constraints(n.name) == want, (label, n.name)
            seen += len(want) > 1
    assert seen > 50
    m = mk_model(
        "cdl_option A { requires B C\n active_if { D || E }\n requires C }\n"
        "cdl_option B { requires { C > 1 } }\ncdl_option C {}"
    )
    table = {n.name: [to_source(e) for e in m.sorted_constraints(n.name)] for n in m}
    assert table == {"A": ["B || C", "C", "D || E"], "B": ["C > 1"], "C": []}
    with pytest.raises(KeyError):
        m.sorted_constraints("NO_SUCH_NAME")


def test_derived_facts_are_computed_once():
    source = "cdl_option A { requires { X > 0 }\n implements I }"
    m = mk_model(source)
    assert m.sorted_constraints("A") is m.sorted_constraints("A")
    assert m.ids() is m.ids()
    assert m.referenced_ids() is m.referenced_ids()
    assert m.universe() is m.universe()
    assert m.implementers("I") is m.implementers("I")
    assert m.implementers("I") == {"A"}
    assert hash(m) == hash(mk_model(source))


def test_equal_models_hash_equal_whatever_the_node_order():
    source = (
        "cdl_package P {\n cdl_option A { flavor data; requires { B || !C }\n"
        " legal_values 1 to 4 } }\ncdl_option B { calculated { A + 1 } }\n"
        "cdl_interface C { implements C }\n"
    )
    raw, _ = parse_model(source)
    orders = [raw, raw[::-1], raw[1:] + raw[:1]]
    models = [normalize_model(order) for order in orders]
    assert models[0] == models[1] == models[2]
    assert len({hash(m) for m in models}) == 1
    build_formula.cache_clear()
    formulas = [build_formula(m) for m in models]
    assert formulas[0] is formulas[1] is formulas[2]
    info = build_formula.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 2, 1)


def test_universe_includes_referenced_ids():
    m = mk_model("cdl_option A { requires { X > 0 && is_active(Y) } }")
    assert m.universe() == {"A", "X", "Y"}
    assert m.unloaded_ids() == {"X", "Y"}


def test_json_dump_is_stable_and_parseable():
    m = mk_model(
        "cdl_package P { requires A B\n cdl_option A { flavor data\n legal_values 1 to 3 } }"
    )
    text = model_to_json(m)
    assert text == model_to_json(m)
    payload = json.loads(text)
    names = [n["name"] for n in payload["nodes"]]
    assert names == sorted(names)
    a = next(n for n in payload["nodes"] if n["name"] == "A")
    assert a["legal_values"] == "1 to 3"
    p = next(n for n in payload["nodes"] if n["name"] == "P")
    assert p["requires"] == ["A || B"]
    assert p["parent"] == TOP


def test_legal_values_survive_normalization():
    m = mk_model("cdl_option A { flavor data\n legal_values 1 2 9 to 12 }")
    assert m.node("A").legal_values == parse_list_expr("1 2 9 to 12")
