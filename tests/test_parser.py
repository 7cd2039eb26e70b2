"""Parser tests: expressions, lists, model syntax, robustness."""

import hashlib
import inspect
import random
import re
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from cdlsem import (
    BitNot,
    Call,
    Cond,
    Const,
    Ident,
    Infix,
    ListExpr,
    Not,
    Range,
    Single,
    has_errors,
    list_to_source,
    parse_goal_expr,
    parse_goal_exprs,
    parse_list_expr,
    parse_model,
    to_source,
)
from cdlsem.exprs import PRECEDENCE, infix
from cdlsem.model import RawNode
from cdlsem.parser import (
    _CMD_TOKEN_RX,
    _WORD,
    _WORD_OPS,
    MAX_NESTING,
    ParseError,
    _one_token,
)

from conftest import FIXTURES, fixture_paths


# ---------------------------------------------------------------------------
# goal expressions


def test_or_binds_looser_than_and():
    assert parse_goal_expr("A && B || C") == Infix(
        "||", (Infix("&&", (Ident("A"), Ident("B"))), Ident("C"))
    )


def test_conditional_lowest():
    assert parse_goal_expr("X == 1 ? Y : Z") == Cond(
        Infix("==", (Ident("X"), Const("1"))), Ident("Y"), Ident("Z")
    )


def test_plain_constant():
    assert parse_goal_expr("42") == Const("42")


@pytest.mark.parametrize(
    "text,expected",
    [
        # one case per rung of the precedence ladder, lowest to highest
        ("a implies b eqv c", Infix("eqv", (Infix("implies", (Ident("a"), Ident("b"))), Ident("c")))),
        ("a implies b ? c : d", Cond(Infix("implies", (Ident("a"), Ident("b"))), Ident("c"), Ident("d"))),
        ("a || b implies c", Infix("implies", (Infix("||", (Ident("a"), Ident("b"))), Ident("c")))),
        ("a xor b && c", Infix("&&", (Infix("xor", (Ident("a"), Ident("b"))), Ident("c")))),
        ("a | b xor c", Infix("xor", (Infix("|", (Ident("a"), Ident("b"))), Ident("c")))),
        ("a ^ b | c", Infix("|", (Infix("^", (Ident("a"), Ident("b"))), Ident("c")))),
        ("a & b ^ c", Infix("^", (Infix("&", (Ident("a"), Ident("b"))), Ident("c")))),
        ("a == b & c", Infix("&", (Infix("==", (Ident("a"), Ident("b"))), Ident("c")))),
        ("a < b == c", Infix("==", (Infix("<", (Ident("a"), Ident("b"))), Ident("c")))),
        ("a << b < c", Infix("<", (Infix("<<", (Ident("a"), Ident("b"))), Ident("c")))),
        ("a + b << c", Infix("<<", (Infix("+", (Ident("a"), Ident("b"))), Ident("c")))),
        ("a * b + c", Infix("+", (Infix("*", (Ident("a"), Ident("b"))), Ident("c")))),
        ("!a && b", Infix("&&", (Not(Ident("a")), Ident("b")))),
        ("~a + b", Infix("+", (BitNot(Ident("a")), Ident("b")))),
    ],
)
def test_precedence_ladder(text, expected):
    assert parse_goal_expr(text) == expected


def test_left_associativity():
    assert parse_goal_expr("a - b - c") == Infix(
        "-", (Ident("a"), Ident("b"), Ident("c"))
    )


def test_conditional_right_associative():
    assert parse_goal_expr("a ? b : c ? d : e") == Cond(
        Ident("a"), Ident("b"), Cond(Ident("c"), Ident("d"), Ident("e"))
    )


def test_parenthesized():
    assert parse_goal_expr("(a || b) && c") == Infix(
        "&&", (Infix("||", (Ident("a"), Ident("b"))), Ident("c"))
    )


def _assert_flat_chain(op):
    a, b, c = Ident("a"), Ident("b"), Ident("c")
    flat = Infix(op, (a, b, c))
    assert parse_goal_expr(f"a {op} b {op} c") == flat
    assert parse_goal_expr(f"(a {op} b) {op} c") == flat
    assert to_source(flat) == f"a {op} b {op} c"
    nested = Infix(op, (a, Infix(op, (b, c))))
    assert parse_goal_expr(f"a {op} (b {op} c)") == nested
    assert to_source(nested) == f"a {op} (b {op} c)"


@pytest.mark.parametrize("op", ["||", "&&", "implies", "eqv", "xor"])
def test_logic_chain_is_flat_and_left_associative(op):
    _assert_flat_chain(op)


@pytest.mark.parametrize(
    "op", ["+", "-", "*", "/", "%", "<<", ">>", "^", "&", "|",
           "==", "!=", "<", ">", "<=", ">="],
)
def test_arith_and_comparison_chains_are_flat(op):
    _assert_flat_chain(op)


def test_logic_needs_two_operands():
    with pytest.raises(ValueError):
        Infix("&&", (Ident("a"),))


def test_infix_needs_two_operands_and_a_known_operator():
    with pytest.raises(ValueError, match="at least two operands"):
        Infix("+", (Ident("a"),))
    with pytest.raises(ValueError, match="at least two operands"):
        Infix("<", ())
    with pytest.raises(ValueError, match="bad binary operator"):
        Infix("**", (Ident("a"), Ident("b")))
    with pytest.raises(ValueError, match="bad binary operator"):
        Infix("?", (Ident("a"), Ident("b")))


def test_builtin_call():
    assert parse_goal_expr("is_substr(FLAGS, \"-g\")") == Call(
        "is_substr", (Ident("FLAGS"), Const("-g"))
    )


def test_signed_number_constants():
    assert parse_goal_expr("-5") == Const("-5")
    assert parse_goal_expr("-0x10") == Const("-0x10")
    assert parse_goal_expr("a - -5") == Infix("-", (Ident("a"), Const("-5")))


def test_string_escapes():
    assert parse_goal_expr('"a\\tb\\n\\"q\\\\"') == Const('a\tb\n"q\\')


@pytest.mark.parametrize(
    "text",
    ["a &&", "&& a", "nosuch(a)", "is_substr(a)", "is_loaded(a, b)",
     "(a", "a ? b", "a ~", "", "5 $ 3", "implies", "a ? b : "],
)
def test_goal_errors(text):
    with pytest.raises(ParseError):
        parse_goal_expr(text)


def test_trailing_tokens_rejected():
    with pytest.raises(ParseError):
        parse_goal_expr("a b")
    # a trailing string is quoted as written, not by its unescaped value
    with pytest.raises(ParseError, match=r"""trailing input '"b\\\\tc"'$"""):
        parse_goal_expr('a "b\\tc"')
    assert parse_goal_exprs("a b") == [Ident("a"), Ident("b")]


def test_deep_nesting_is_an_error_not_a_crash():
    text = "(" * 500 + "a" + ")" * 500
    with pytest.raises(ParseError):
        parse_goal_expr(text)


# ---------------------------------------------------------------------------
# list expressions


def test_list_values_and_range():
    assert parse_list_expr("1 2 4 to 16") == ListExpr(
        (
            Single(Const("1")),
            Single(Const("2")),
            Range(Const("4"), Const("16")),
        )
    )


def test_list_single_value():
    assert parse_list_expr("0") == ListExpr((Single(Const("0")),))


def test_list_empty_string_item():
    assert parse_list_expr('"" x') == ListExpr(
        (Single(Const("")), Single(Ident("x")))
    )


def test_list_negative_bounds():
    got = parse_list_expr("1 2 4 to CYGARC_MAXINT -1024 -20.0 to -10")
    assert got == ListExpr(
        (
            Single(Const("1")),
            Single(Const("2")),
            Range(Const("4"), Ident("CYGARC_MAXINT")),
            Single(Const("-1024")),
            Range(Const("-20.0"), Const("-10")),
        )
    )


def test_list_parenthesized_item_may_contain_spaces():
    got = parse_list_expr("(a + 1) 5")
    assert got == ListExpr(
        (Single(Infix("+", (Ident("a"), Const("1")))), Single(Const("5")))
    )


def test_list_braced_item_is_literal():
    assert parse_list_expr("{RAM image} 5") == ListExpr(
        (Single(Const("RAM image")), Single(Const("5")))
    )


def test_bare_list_equals_braced_list():
    values = " ".join(
        ("-%d" % i if i % 3 == 0 else "V%d" % i) if i % 2 else str(i)
        for i in range(3000)
    )
    lists = []
    for value in (values, "{ " + values + " }"):
        nodes, diags = parse_model(
            "cdl_option A {\n flavor data\n legal_values " + value + "\n}\n"
        )
        assert diags == []
        lists.append(nodes[0].legal_values)
    assert lists[0] == lists[1]
    assert len(lists[0].items) == 3000
    assert lists[0].items[:4] == (
        Single(Const("0")),
        Single(Ident("V1")),
        Single(Const("2")),
        Single(Const("-3")),
    )


@pytest.mark.parametrize(
    "text,diagnostic",
    [
        pytest.param(text, diagnostic, id=text) for text, diagnostic in [
            ("", "<list>:1:1: error: empty list expression"),
            ("1 to", "<list>:1:3: error: 'to' needs an upper bound"),
            ("to 3", "<list>:1:1: error: 'to' needs a value on both sides"),
            ("1 to to", "<list>:1:6: error: 'to' needs a value on both sides"),
            ("4 to 5 to 6", "<list>:1:8: error: 'to' needs a value on both sides"),
            ('"abc', "<list>:1:1: error: unterminated string literal"),
            ("a)", "<list>:1:2: error: unbalanced ')'"),
        ]
    ],
)
def test_list_errors(text, diagnostic):
    with pytest.raises(ParseError) as err:
        parse_list_expr(text)
    assert str(err.value.diagnostic) == diagnostic


def test_list_unbalanced_brace():
    with pytest.raises(ParseError, match="unbalanced '{'"):
        parse_list_expr("1 {2")


# ---------------------------------------------------------------------------
# round-trip properties

_names = st.sampled_from(["A", "B", "CYGPKG_IO", "x1", "_tmp"])
_numbers = st.sampled_from(["0", "1", "42", "-7", "0x1F", "2.5", "-0.125", "1e3"])
_texts = st.text(
    alphabet=st.characters(
        codec="ascii", min_codepoint=32, max_codepoint=126
    ) | st.sampled_from("\n\t"),
    max_size=8,
)
_leaves = st.one_of(
    _names.map(Ident),
    _numbers.map(Const),
    _texts.map(Const),
)


def _exprs(children):
    # operator chains go through the builder, the one shape the parser makes
    return st.one_of(
        st.tuples(st.sampled_from(sorted(PRECEDENCE)), children, children).map(
            lambda t: infix(*t)
        ),
        children.map(Not),
        children.map(BitNot),
        st.tuples(children, children, children).map(lambda t: Cond(*t)),
        st.tuples(_names, children).map(
            lambda t: Call("is_active", (Ident(t[0]),))
        ),
        st.tuples(children, children).map(
            lambda t: Call("version_cmp", (t[0], t[1]))
        ),
    )


goal_exprs = st.recursive(_leaves, _exprs, max_leaves=20)


@given(goal_exprs)
@settings(max_examples=300, deadline=None)
def test_goal_expr_round_trip(expr):
    assert parse_goal_expr(to_source(expr)) == expr


@given(
    st.lists(
        st.one_of(
            goal_exprs.map(Single),
            st.tuples(goal_exprs, goal_exprs).map(lambda t: Range(*t)),
        ),
        min_size=1,
        max_size=5,
    )
)
@settings(max_examples=200, deadline=None)
def test_list_expr_round_trip(items):
    lexpr = ListExpr(tuple(items))
    assert parse_list_expr(list_to_source(lexpr)) == lexpr


# ---------------------------------------------------------------------------
# model syntax


def test_single_option():
    nodes, diags = parse_model("cdl_option A { flavor bool }")
    assert not has_errors(diags)
    (a,) = nodes
    assert (a.name, a.kind, a.flavor, a.parent) == ("A", "option", "bool", None)


def test_bodyless_node_allowed():
    nodes, diags = parse_model("cdl_option A")
    assert not has_errors(diags) and nodes[0].name == "A"


def test_nesting_sets_parent():
    nodes, diags = parse_model("cdl_component C { cdl_option A {} }")
    assert not has_errors(diags)
    by_name = {n.name: n for n in nodes}
    assert by_name["A"].parent == "C"
    assert by_name["C"].parent is None


def test_empty_input():
    assert parse_model("") == ([], [])


def test_comments_and_semicolons():
    src = "# leading comment\ncdl_option A { flavor bool; requires B }\n"
    nodes, diags = parse_model(src)
    assert not has_errors(diags)
    assert nodes[0].flavor == "bool"
    assert nodes[0].requires == [(Ident("B"),)]


def test_requires_enumeration_kept():
    nodes, _ = parse_model("cdl_option A { requires B C }")
    assert nodes[0].requires == [(Ident("B"), Ident("C"))]


def test_repeated_requires_stay_separate():
    nodes, _ = parse_model("cdl_option A { requires B\n requires C }")
    assert nodes[0].requires == [(Ident("B"),), (Ident("C"),)]


def test_line_continuation():
    nodes, diags = parse_model("cdl_option A { requires B && \\\n C }")
    assert not has_errors(diags)
    assert nodes[0].requires == [(Infix("&&", (Ident("B"), Ident("C"))),)]


def test_unknown_property_warns_and_is_kept():
    nodes, diags = parse_model('cdl_option A { description "text" }')
    assert not has_errors(diags)
    assert any(d.severity == "warning" for d in diags)
    assert nodes[0].annotations == {"description": ['"text"']}


def test_duplicate_flavor_is_error():
    _, diags = parse_model("cdl_option A { flavor bool\n flavor data }")
    assert has_errors(diags)


def test_unbalanced_brace():
    _, diags = parse_model("cdl_option A {")
    assert has_errors(diags)


def test_unknown_top_level_command():
    _, diags = parse_model("frobnicate A {}")
    assert has_errors(diags)


def test_malformed_expression_reported_with_location():
    _, diags = parse_model("cdl_option A {\n requires { B && }\n}", "f.cdl")
    errs = [d for d in diags if d.severity == "error"]
    assert errs and errs[0].span.file == "f.cdl" and errs[0].span.start_line == 2


def test_nesting_depth_matches_brace_depth():
    depth = 12
    src = ""
    for i in range(depth):
        src += f"cdl_component LVL{i} {{\n"
    src += "cdl_option LEAF {}\n" + "}\n" * depth
    nodes, diags = parse_model(src)
    assert not has_errors(diags)
    by_name = {n.name: n for n in nodes}
    hops = 0
    cur = by_name["LEAF"].parent
    while cur is not None:
        hops += 1
        cur = by_name[cur].parent
    assert hops == depth


def _component_chain(depth: int) -> str:
    opens = "".join(f"cdl_component C{i} {{\n" for i in range(depth))
    return opens + "}\n" * depth


def test_nesting_limit_is_one_error():
    # the node at depth 101 is made, its body is skipped whole
    nodes, diags = parse_model(_component_chain(150))
    assert len(nodes) == MAX_NESTING + 1
    assert [str(d) for d in diags] == ["<model>:101:20: error: node nesting too deep"]


def test_parsing_needs_no_recursion():
    # a chain as deep as the limit, with about 50 frames to spare above
    # this test's own depth: a parser that recursed once per body fails
    text = _component_chain(MAX_NESTING)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 50)
    try:
        nodes, diags = parse_model(text)
    finally:
        sys.setrecursionlimit(limit)
    assert diags == [] and len(nodes) == MAX_NESTING
    assert nodes[-1].parent == f"C{MAX_NESTING - 2}"


# lines of property names that the plain-line lane cannot take: the lane is
# tried only at a command's first character, so each line is read in
# linear time, also when the lane gives up and the line is read again
@pytest.mark.parametrize(
    "text",
    [
        "cdl_option A {\n" + "requires " * 20_000 + "{x}\n}\n",
        "cdl_option A {\n" + "legal_values " * 20_000 + "(\n}\n",
        "cdl_option A {\n" + "flavor " * 20_000 + '"a"\n}\n',
        "requires " * 20_000 + "{x}\n",
        "cdl_option A {\nB" + " requires" * 20_000 + "\n}\n",
    ],
    ids=["requires", "legal_values", "flavor", "top-level", "words-pending"],
)
def test_long_property_name_lines_parse_in_linear_time(text):
    start = time.perf_counter()
    parse_model(text)
    assert time.perf_counter() - start < 2.0


# ---------------------------------------------------------------------------
# command splitter: exact nodes and diagnostics


def _opt(name, **fields):
    return RawNode(name=name, kind="option", **fields)


@pytest.mark.parametrize(
    "source,nodes,diagnostics",
    [
        pytest.param(
            "cdl_option A {\n flavor bool\n",
            [],
            ["m.cdl:1:14: error: unbalanced '{'"],
            id="brace-open-at-eof",
        ),
        # The splitter and the brace scan pair backslashes alike, so a '{'
        # inside a body always closes before the body's own '}'; a group
        # that would run past it leaves the enclosing '{' unbalanced.
        pytest.param(
            "cdl_component C {\n cdl_option A { \\}\n}\n",
            [],
            ["m.cdl:1:17: error: unbalanced '{'"],
            id="inner-brace-past-body-end",
        ),
        pytest.param(
            "cdl_option A {}\n}\ncdl_option B",
            [_opt("A"), _opt("B")],
            ["m.cdl:2:1: error: unexpected '}'"],
            id="stray-close-brace",
        ),
        # a '}' between a node's name and its body is reported, and the
        # body still belongs to the node
        pytest.param(
            "cdl_option A } { flavor data }",
            [_opt("A", flavor="data")],
            ["m.cdl:1:14: error: unexpected '}'"],
            id="stray-close-brace-before-body",
        ),
        pytest.param(
            "cdl_option A { implements; }",
            [_opt("A")],
            ["m.cdl:1:16: error: implements needs an interface name"],
            id="implements-without-a-name",
        ),
        pytest.param(
            'cdl_option A\n"abc',
            [_opt("A")],
            ["m.cdl:2:1: error: unterminated string literal"],
            id="unterminated-quote-top-level",
        ),
        pytest.param(
            'cdl_option A {\n requires "abc\n}',
            [_opt("A")],
            ["m.cdl:2:11: error: unterminated string literal"],
            id="unterminated-quote-in-requires",
        ),
        pytest.param(
            "cdl_option A {\n requires B $ C\n}",
            [_opt("A")],
            ["m.cdl:2:13: error: unsupported character '$' in expression"],
            id="unsupported-expression-character",
        ),
        pytest.param(
            'cdl_option A {\n calculated { "a\\qb" }\n}',
            [_opt("A", calculated=(Const("aqb"),))],
            ["m.cdl:2:17: warning: unsupported escape \\q; kept literally"],
            id="unsupported-escape",
        ),
        pytest.param(
            'cdl_option A {\n requires { "a\\q }\n}',
            [_opt("A")],
            [
                "m.cdl:2:15: warning: unsupported escape \\q; kept literally",
                "m.cdl:2:13: error: unterminated string literal",
            ],
            id="escape-in-unterminated-string",
        ),
        pytest.param(
            "cdl_option A \\\n{ requires B\\\nC }",
            [_opt("A", requires=[(Ident("B"), Ident("C"))])],
            [],
            id="line-continuation-between-and-inside-words",
        ),
        pytest.param(
            "# c {\ncdl_option A { flavor bool; # c ;\n description # x }",
            [_opt("A", flavor="bool", annotations={"description": ["# x"]})],
            ["m.cdl:3:2: warning: ignoring unsupported property 'description'"],
            id="hash-comment-only-at-command-start",
        ),
        pytest.param(
            "cdl_option A; cdl_option B {flavor data;calculated 1}",
            [_opt("A"), _opt("B", flavor="data", calculated=(Const("1"),))],
            [],
            id="semicolon-separator",
        ),
        pytest.param(
            "cdl_option A {\r\n flavor bool\r\n requires B\r\n}\r\nfoo\r\n",
            [_opt("A", flavor="bool", requires=[(Ident("B"),)])],
            ["m.cdl:5:1: error: unknown top-level command 'foo'"],
            id="crlf-line-ends",
        ),
        pytest.param(
            "cdl_option\u00a0A {\u2003requires\u001cB\u00a0C }\n\u2003bar",
            [_opt("A", requires=[(Ident("B"), Ident("C"))])],
            ["m.cdl:2:2: error: unknown top-level command 'bar'"],
            id="non-ascii-blanks",
        ),
        # braces that quotes, comments, backslashes or bare words hide from
        # the splitter still take part in brace pairing
        pytest.param(
            '"{"\ncdl_option A { flavor bool }\n',
            [_opt("A", flavor="bool")],
            ["m.cdl:1:1: error: unknown top-level command '\"{\"'"],
            id="quoted-open-brace-before-node",
        ),
        pytest.param(
            "cdl_option A { flavor bool }\n# a } b\ncdl_option B { flavor data }\n",
            [_opt("A", flavor="bool"), _opt("B", flavor="data")],
            [],
            id="close-brace-in-top-level-comment",
        ),
        pytest.param(
            "cdl_option A {\n description a\\{b \\}\n flavor bool\n}\n",
            [_opt("A", flavor="bool",
                  annotations={"description": ["a\\{b \\}"]})],
            ["m.cdl:2:2: warning: ignoring unsupported property 'description'"],
            id="escaped-braces-in-body",
        ),
        pytest.param(
            "cdl_option A {\n description a{b\n flavor bool\n}\ncdl_option B\n",
            [],
            ["m.cdl:1:14: error: unbalanced '{'"],
            id="bare-word-with-open-brace-in-body",
        ),
        pytest.param(
            "cdl_option A \\\\\n{ flavor bool }\n"
            "cdl_option B \\\\\\\n{ flavor bool }\n",
            [],
            [
                "m.cdl:2:1: error: unexpected extra arguments after node body",
                "m.cdl:4:1: error: unexpected extra arguments after node body",
            ],
            id="backslash-runs-before-newline-brace",
        ),
        pytest.param(
            "cdl_option A {\n flavor data\n legal_values { {a {b}} 1 }\n}\n",
            [_opt("A", flavor="data", legal_values=ListExpr(
                (Single(Const("a {b}")), Single(Const("1")))))],
            [],
            id="nested-braced-legal-values-item",
        ),
        pytest.param(
            "cdl_package P {\n cdl_component C {\n  cdl_option A { \\}\n }\n}\n",
            [],
            ["m.cdl:1:15: error: unbalanced '{'"],
            id="inner-brace-past-body-end-depth-3",
        ),
        # an error inside a legal_values item points into that item, even
        # when the item's text ends before the next word starts
        pytest.param(
            "cdl_option A {\n flavor data\n legal_values 2+ 3\n}\n",
            [_opt("A", flavor="data")],
            ["m.cdl:3:16: error: unexpected end of expression"],
            id="legal-values-item-ends-early",
        ),
        pytest.param(
            "cdl_option A {\n flavor data\n legal_values 1 2 $x\n}\n",
            [_opt("A", flavor="data")],
            ["m.cdl:3:19: error: unsupported character '$' in expression"],
            id="legal-values-bad-character-in-later-item",
        ),
        pytest.param(
            'cdl_option A {\n flavor data\n legal_values 1 "a\\qb"\n}\n',
            [_opt("A", flavor="data", legal_values=ListExpr(
                (Single(Const("1")), Single(Const("aqb")))))],
            ["m.cdl:3:19: warning: unsupported escape \\q; kept literally"],
            id="legal-values-unsupported-escape-in-quoted-item",
        ),
        pytest.param(
            "cdl_option A {\n requires implies\n}\n",
            [_opt("A")],
            ["m.cdl:2:11: error: 'implies' is an operator, not a value"],
            id="requires-word-operator",
        ),
        pytest.param(
            "cdl_option A {\n requires 007\n active_if B C\n calculated x1\n}\n",
            [_opt("A", requires=[(Const("007"),)],
                  active_if=[(Ident("B"), Ident("C"))],
                  calculated=(Ident("x1"),))],
            [],
            id="one-token-values",
        ),
        pytest.param(
            "cdl_option A {\n\n ;; requires B\\\n\n;\t\n active_if C\n\n}\n\n\n",
            [_opt("A", requires=[(Ident("B"),)], active_if=[(Ident("C"),)])],
            [],
            id="separator-runs",
        ),
        # an empty braced value is reported at its '{'
        pytest.param(
            "cdl_option A {\n requires {}\n}\n",
            [_opt("A")],
            ["m.cdl:2:11: error: empty expression"],
            id="empty-braced-requires",
        ),
        pytest.param(
            "cdl_option A {\n active_if {}\n}\n",
            [_opt("A")],
            ["m.cdl:2:12: error: empty expression"],
            id="empty-braced-active-if",
        ),
        pytest.param(
            "cdl_option A {\n flavor data\n calculated {}\n}\n",
            [_opt("A", flavor="data")],
            ["m.cdl:3:13: error: empty expression"],
            id="empty-braced-calculated",
        ),
        pytest.param(
            "cdl_option A {\n flavor data\n legal_values {}\n}\n",
            [_opt("A", flavor="data")],
            ["m.cdl:3:15: error: empty list expression"],
            id="empty-braced-legal-values",
        ),
    ],
)
def test_splitter_nodes_and_diagnostics(source, nodes, diagnostics):
    got_nodes, got_diagnostics = parse_model(source, "m.cdl")
    assert got_nodes == nodes
    assert [str(d) for d in got_diagnostics] == diagnostics


# words around the one-token values: identifiers, builtin names, word
# operators, decimal, hex, float and signed numbers, and near misses
_VALUE_WORDS = [
    "A", "B_1", "_x", "get_data", "is_substr", "implies", "eqv", "xor",
    "0", "7", "007", "123456789012345678901234567890", "0x1F", "0X0",
    "1.5", "1.", ".5", "1e3", "2E-2", "-3", "+4", "-0x10", "-1.5",
    "12abc", "1_", "A-", "A.B", "!A",
]


def _general(parse, text):
    """``parse(text)``, or the message of the error it raises."""
    try:
        return parse(text)
    except ParseError as err:
        return err.diagnostic.message


def _reported(diags, word_col, word):
    """The one diagnostic's message; its span must start inside ``word``."""
    assert len(diags) == 1
    assert word_col <= diags[0].span.start_col < word_col + len(word)
    return diags[0].message


@pytest.mark.parametrize("word", _VALUE_WORDS)
def test_one_word_values_match_general_parser(word):
    nodes, diags = parse_model(f"cdl_option A {{\n requires {word}\n}}\n")
    expected = _general(parse_goal_exprs, word)
    if isinstance(expected, str):
        assert nodes[0].requires == []
        assert _reported(diags, 11, word) == expected
    else:
        assert diags == [] and nodes[0].requires == [tuple(expected)]

    nodes, diags = parse_model(
        f"cdl_option A {{\n flavor data\n legal_values {word}\n}}\n"
    )
    expected = _general(parse_goal_expr, word)
    if isinstance(expected, str):
        assert nodes[0].legal_values is None
        assert _reported(diags, 15, word) == expected
    else:
        assert diags == []
        assert nodes[0].legal_values == ListExpr((Single(expected),))


# a word is its own node without the expression tokenizer exactly when it is
# one ASCII identifier or decimal integer and not a word operator
@pytest.mark.parametrize(
    "word",
    [
        "A", "B_1", "_", "_x", "if", "to", "0", "007", "1a", "0x1", "xor",
        "implies", "eqv", "é", "ß", "٣", "²", "Ⅻ", "Ａ", "A\n", "{A}", '"A"',
        "-1", "A B", "",
    ],
)
def test_one_token_is_the_parse_of_a_plain_word(word):
    if re.fullmatch(_WORD, word) and word not in _WORD_OPS:
        assert _one_token(word) == parse_goal_expr(word)
    else:
        assert _one_token(word) is None


# a one-word property line is one scanner token; a backslash-newline after
# the property name sends the same command through the general path
_LANE_PROPERTIES = ("flavor", "requires", "active_if", "calculated", "implements")
_LANE_VALUES = [
    "A", "B_1", "_x", "bool1", "0", "42", "007", "implies", "eqv", "xor",
    "none", "bool", "booldata", "data", "boolean",
]
_LANE_PLACES = [
    "cdl_option A {{\n {0}\n}}\n",
    "cdl_option A {{\n {0}\n {0}\n}}\n",  # a single property repeated
    "cdl_option A {{ flavor data; {0}; {0} }}\n",
    "cdl_option A {{\n requires B {0}\n}}\n",  # after a word: the lane is not tried
    "{0}\ncdl_option A {{}}\n",  # the top level
    "cdl_option A {{ {0}\n}}\n",  # on the head's line, where the lane is not tried
    "cdl_option A {{\n requires {{B}}{0}\n}}\n",  # a braced word glued before it
]


def _outcome(text):
    nodes, diags = parse_model(text, "m.cdl")
    return nodes, [(d.severity, d.message) for d in diags]


@pytest.mark.parametrize("value", _LANE_VALUES)
@pytest.mark.parametrize("prop", _LANE_PROPERTIES)
def test_one_word_lane_matches_general_path(prop, value):
    line, split = f"{prop} {value}", f"{prop} \\\n{value}"
    assert _CMD_TOKEN_RX.match(line + "\n").lastgroup == "words"
    assert _CMD_TOKEN_RX.match(split + "\n").lastgroup == "bare"
    for place in _LANE_PLACES:
        assert _outcome(place.format(line)) == _outcome(place.format(split))


# a plain property line of words or of one expression word is one scanner
# token too; values drawn from the round-trip strategies, written bare,
# braced and as lists, take that lane where they fit it, and plain words,
# near misses among them, take it more often
_plain_words = st.lists(
    st.sampled_from(["A", "B_1", "0", "42", "to", "to", "xor", "implies"]),
    min_size=1,
    max_size=5,
).map(" ".join)
_plain_exprs = st.recursive(
    _names.map(Ident) | st.sampled_from(["0", "7"]).map(Const), _exprs, max_leaves=4
)
_list_items = st.lists(
    st.one_of(
        goal_exprs.map(Single),
        st.tuples(goal_exprs, goal_exprs).map(lambda t: Range(*t)),
    ),
    min_size=1,
    max_size=5,
)
_line_values = st.one_of(
    _plain_words,
    st.sampled_from(["!A", "0x1", "A&&B", "A#", "(A", "{}", '{ "s" }', "{A}x"]),
    _plain_exprs.map(to_source),
    _plain_exprs.map(lambda e: "{" + to_source(e) + "}"),
    st.one_of(
        goal_exprs.map(to_source),
        goal_exprs.map(lambda e: "{" + to_source(e) + "}"),
        st.lists(goal_exprs, min_size=1, max_size=3).map(
            lambda es: " ".join(map(to_source, es))
        ),
        _list_items.map(lambda items: list_to_source(ListExpr(tuple(items)))),
    ).filter(
        # a ';' ends the command, and a brace in a string counts, so either
        # may carry a word over to the next line and the continuation with it
        lambda v: not re.search(r'[;{}]', "".join(re.findall(r'"(?:\\.|[^"\\])*"', v)))
    ),
)


@given(
    st.sampled_from(_LANE_PROPERTIES + ("legal_values",)),
    _line_values,
    st.sampled_from(_LANE_PLACES),
)
@settings(max_examples=400, deadline=None)
def test_plain_line_lane_matches_general_path(prop, value, place):
    line, split = f"{prop} {value}", f"{prop} \\\n{value}"
    assert _outcome(place.format(line)) == _outcome(place.format(split))


_FUZZ_ALPHABET = "cdl_option{}\"\\#;\n\t ABC01&&||!?:()best_substr,"


def test_fuzz_never_raises_short():
    rng = random.Random(20240809)
    alphabet = _FUZZ_ALPHABET
    for _ in range(3000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 60)))
        nodes, diags = parse_model(text)  # must not raise
        assert isinstance(nodes, list) and isinstance(diags, list)


# ---------------------------------------------------------------------------
# pinned parses of every fixture and of faulty variants of them

GOLDEN_PARSE = FIXTURES.parent / "golden" / "parse.txt"
_EMPTY_VALUES = ("requires", "active_if", "calculated", "legal_values")


def _fault(rng: random.Random, text: str) -> str:
    """``text`` with one or two seeded faults of a hand-edited model."""
    for _ in range(rng.randint(1, 2)):
        op = rng.choice(("drop", "double", "stray", "empty"))
        if op in ("drop", "double"):
            spots = [m.start() for m in re.finditer(r'[{}"]', text)]
            if spots:
                at = rng.choice(spots)
                kept = text[at] * 2 if op == "double" else ""
                text = text[:at] + kept + text[at + 1:]
        elif op == "stray":
            at = rng.randrange(len(text) + 1)
            text = text[:at] + rng.choice("\\;#") + text[at:]
        else:  # an empty braced value at the start of some body
            spots = [m.end() for m in re.finditer(r"\{", text)]
            if spots:
                at = rng.choice(spots)
                prop = rng.choice(_EMPTY_VALUES)
                text = f"{text[:at]}\n {prop} {{}}\n{text[at:]}"
    return text


# Brace edge cases: every unescaped brace counts, also inside bare words,
# quoted words and comments, so a body ends where the braces pair up.
_BRACE_CASES = {
    "brace in bare word": "cdl_option A {\n flavor bool}\n}\ncdl_option B {}\n",
    "brace in quoted word": 'cdl_option A {\n requires "}"\n}\n',
    "open brace in quoted word": 'cdl_option A {\n requires "{"\n}\n}\n',
    "brace in comment": (
        "cdl_option A {\n # a { here\n flavor bool\n}\ncdl_option B {}\n}\n"
    ),
    "close brace in comment": "cdl_option A {\n # } here\n flavor bool\n}\n",
    "words after body": (
        "cdl_component A {\n cdl_option B {}\n} extra\ncdl_option C {}\n"
    ),
    "words after nested body": (
        "cdl_component A {\n cdl_option B { flavor x } extra\n"
        " cdl_option C { flavor y }\n}\n"
    ),
    "unpaired brace at end under nested bodies": (
        "cdl_package P {\n cdl_component C {\n  cdl_option O {\n   flavor bool\n"
        "  }\n  requires {\n}\n"
    ),
    "unpaired brace at end in nested body": (
        "cdl_option X { flavor q }\ncdl_package P {\n flavor z\n"
        " cdl_component C {\n  flavor w\n  cdl_option O {\n   flavor v\n }\n"
    ),
    "stray brace after nested body": (
        "cdl_component A {\n cdl_option B { flavor x }\n }  }\ncdl_option C {}\n"
    ),
    "stray brace at top": "}\ncdl_option A { flavor x }\n} }\n",
    "nested braced values": (
        "cdl_option A {\n flavor data\n calculated { {1} + 2 }\n"
        " legal_values {a {b c}} 3 { {d} }\n requires {{A}}\n}\n"
    ),
    "escaped braces": (
        "cdl_option A {\n requires \\{ B\n display \\}x\n}\n"
        "cdl_option B { requires {C \\} } }\n"
    ),
    "continuation and separators": (
        "cdl_option A {\\\n flavor bool ; requires \\\n B;;\n}; cdl_option B {}\n"
    ),
    "unterminated quote in body": 'cdl_option A {\n requires "B\n}\ncdl_option B {}\n',
    "unterminated quote at top": 'cdl_option A {}\n"cdl_option B {}\n',
    "brace word as name": "cdl_option {A} {}\ncdl_option A B\ncdl_option\n",
    "hash after words": "cdl_option A {\n requires B # C\n flavor bool #x\n}\n",
    # the separators right after a body's '}' and after a head's '{'
    "separator after body": (
        "cdl_option A { flavor bool } ; cdl_option B {};cdl_option C {}\n"
        "cdl_component D {\n cdl_option E {}; requires E\n}\n"
    ),
    "comment after body": (
        "cdl_component A {\n cdl_option B {}\n # after B\n cdl_option C {}\n}\n"
        "# a { here\ncdl_option D {}\n# a } here\ncdl_option E {}\n"
    ),
    "continuation after body": (
        "cdl_option A {} \\\n extra\ncdl_option B {}\\\ncdl_option C {}\n"
        "cdl_component D {\n cdl_option E {}\\\n\n requires E\n}\n"
    ),
    "body at end of file": "cdl_option A {}\ncdl_component B {\n cdl_option C {}}",
    "stray brace before a separator": (
        "cdl_option A {\n # {\n flavor bool } ; requires B\n}\n}\ncdl_option B {}"
    ),
    "separator after head": (
        "cdl_option A {; flavor bool }\ncdl_option B {;;\n\n requires A\n}\n"
    ),
    "comment after head": (
        "cdl_option A { # note\n flavor bool\n}\ncdl_option B {\n# a { here\n}\n}\n"
    ),
    "continuation after head": (
        "cdl_option A {\\\n flavor bool }\ncdl_option B { \\\n\\\n ; requires A\n}\n"
    ),
}

# One-word property lines: a property name, one bare word and a separator,
# and the near misses around them (a comment, a continuation, a brace, a
# word operator, a hex number, repeats, bad values, the top level, two
# commands on a line, no newline at the end, CRLF line ends).
_ONE_WORD_CASES = {
    "two commands on a line": "cdl_option A {\n flavor bool; requires A\n}\n",
    "comment after the word": "cdl_option A {\n requires A # note\n}\n",
    "continuation before the word": "cdl_option A {\n requires \\\nA\n}\n",
    "brace after the word": "cdl_option A {\n requires A}\ncdl_option B {}\n",
    "word operator": "cdl_option A {\n requires implies\n active_if xor\n}\n",
    "hex number": "cdl_option A {\n requires 0x1\n calculated 0x1\n}\n",
    "flavor twice": "cdl_option A {\n flavor bool\n flavor bool\n}\n",
    "calculated twice": (
        "cdl_option A {\n flavor data\n calculated 1\n calculated 1\n}\n"
    ),
    "number as a flavor": "cdl_option A {\n flavor 1\n flavor bool\n}\n",
    "number as an interface": "cdl_option A {\n implements 5\n implements I\n}\n",
    "property at the top": "requires A\ncdl_option A {}\nflavor bool\n",
    "property twice on a line": "cdl_option A {\n requires A requires B\n}\n",
    "no newline at the end": (
        "cdl_option A {\n flavor bool\n requires B\n}\nrequires A"
    ),
    "CRLF line ends": (
        "cdl_option A {\r\n flavor data\r\n calculated 3\r\n active_if B\r\n"
        " implements I\r\n requires 7 \r\n}\r\n"
    ),
}


def _value_case(*props: str) -> str:
    """A data option whose body is ``props``, one per line."""
    return "cdl_option A {\n flavor data\n" + "".join(f" {p}\n" for p in props) + "}\n"


# Value-level cases: list items and 'to', the expression nesting limit at
# and past its bound, every expression parser error, and valid trees.
_VALUE_CASES = {
    "leading to": _value_case("legal_values to 3"),
    "to to": _value_case("legal_values 1 to to"),
    "to without upper bound": _value_case("legal_values 1 2 to"),
    "to as a list item": _value_case("legal_values 1 to 2 3 {to} \"to\" (4) to (5)"),
    "74 parens": _value_case("requires {" + "(" * 74 + "B" + ")" * 74 + "}"),
    "75 parens": _value_case("requires {" + "(" * 75 + "B" + ")" * 75 + "}"),
    "151 parens": _value_case("requires {" + "(" * 151 + "B" + ")" * 151 + "}"),
    "148 nots": _value_case("requires {" + "!" * 148 + "B}"),
    "149 nots": _value_case("requires {" + "!" * 149 + "B}"),
    "151 nots": _value_case("requires {" + "!" * 151 + "B}"),
    "deep mixed nesting": _value_case(
        "calculated {" + "~(!" * 60 + "B" + ")" * 60 + "}",
        "requires {" + "B ? " * 160 + "1" + " : 0" * 160 + "}",
        "active_if {" + "B && (C || " * 50 + "D" + ")" * 50 + "}",
    ),
    "sign before a name": _value_case("requires { - B }", "calculated { + }"),
    "sign in a list": _value_case("legal_values - 1"),
    "word operator as a value": _value_case(
        "requires { B && xor }", "active_if {implies}", "calculated {eqv}"
    ),
    "word operator as a list item": _value_case("legal_values {1} (xor)"),
    "unknown builtin": _value_case("requires { is_set(B) }"),
    "builtin arity": _value_case(
        "requires { is_enabled(B, C) }", "active_if { is_substr(B) }",
        "calculated { get_data() }",
    ),
    "unclosed paren": _value_case("requires { (B && C }"),
    "unclosed call": _value_case("requires { is_enabled(B C) }"),
    "conditional without colon": _value_case("calculated { B ? 1 2 }"),
    "trailing list input": _value_case("legal_values (1)2 3"),
    "trailing string in a list": _value_case("legal_values 1\"a\" 3"),
    "stray paren in a goal": _value_case("calculated { B ) }"),
    "conditional and calls": _value_case(
        "calculated { B ? is_enabled(C) : get_data(D) + 1 }",
        "requires { is_substr(get_data(B), \"x\") ? C : !D }",
        "active_if { version_cmp(B, \"1.0\") >= 0 ? B : C ? D : E }",
    ),
    "bit not and signs": _value_case(
        "calculated { ~B & -3 | +4 - -0x10 }",
        "legal_values -1 to +5 ~2 -0x1F +.5e3 (-2) to (~B)",
    ),
    "string escapes": _value_case(
        "calculated { \"a\\\"b\\\\c\\nd\\te\\qf\" }",
        "legal_values \"x\\ty\" {\"q\\z\"} \"\\\n\" \"\"",
        "requires { B == \"\\\\\" }",
    ),
    "precedence ladder": _value_case(
        "calculated { B implies C eqv D || E && F xor G | H ^ I & J == K"
        " != L < M <= N << O + P * Q % R / S - T >> U > V >= W }",
    ),
    # values joined from several words: a string or a parenthesis runs
    # across words, an escape ends a word, several braced words
    "string across words": _value_case('requires a"b c"'),
    "parenthesis across list words": _value_case("legal_values (A + 1) 5"),
    "string across list words": _value_case('legal_values a"b c" d'),
    "escape at a word's end": _value_case('calculated x"a\\ b"'),
    "escaped blank in a quoted word": _value_case('calculated "x\\ y"'),
    "two empty braced words": _value_case("requires {} {}"),
    "two empty braced list words": _value_case("legal_values {} { }"),
}


# Plain property lines: property words of identifiers and decimal
# integers, or one expression word, alone on a line; and the near misses
# of both, which the general path reports on or reads otherwise.
_LINE_CASES = {
    "list range": _value_case("legal_values 1 to 255"),
    "list enumeration": _value_case("legal_values 8 64 B 1 to 2 C"),
    "list to after a range": _value_case("legal_values 1 to 2 to 3"),
    "list to to": _value_case("legal_values 1 to to 2"),
    "list leading to": _value_case("legal_values to 1 2"),
    "list dangling to": _value_case("legal_values 1 to 2 3 to"),
    "list xor": _value_case("legal_values 1 xor 2"),
    "list hex item": _value_case("legal_values 0x10 1 to 0x20"),
    "list twice": _value_case("legal_values 1 2", "legal_values 3"),
    "goal words": _value_case(
        "requires A B 1", "active_if 0 C", "calculated B 2", "requires A to B"
    ),
    "goal word operators": _value_case("requires A xor B", "active_if A implies"),
    "expression words": _value_case(
        "requires !B", "requires {B && C}", "active_if B&&C",
        "calculated { B ? 1 : 2 }", "active_if {xor}", "requires 0x1F",
    ),
    "expression word errors": _value_case(
        "requires A$B", "requires (A", "active_if {A +}", "requires A#",
        "calculated { B ) }",
    ),
    "requires empty braces": _value_case("requires {}"),
    "requires braced string": _value_case('requires { "s" }'),
    "requires braced backslash": _value_case("requires { A \\ }"),
    "requires nested braces": _value_case("requires { {A} }"),
    "requires braced word and more": _value_case("requires {A}x"),
    "requires braced word across lines": _value_case("requires {A &&\n B}"),
    "calculated twice": _value_case("calculated {1}", "calculated {1}"),
    "calculated words then braced": _value_case("calculated 1 2", "calculated {3}"),
    "negation and a word": _value_case("requires !A B"),
    "comment after the value": _value_case("requires {A} # c", "legal_values 1 # c"),
    "continuation before the value": _value_case(
        "requires \\\n{A && B}", "legal_values \\\n1 to 2", "active_if \\\n!A"
    ),
    "continuation between words": _value_case(
        "legal_values 1 \\\n2", "requires A \\\nB"
    ),
    "words pending": (
        "cdl_option A {\n flavor data\n x requires {A}\n y legal_values 1 2\n"
        " z active_if !B\n w requires A B\n}\n"
    ),
    "the top level": (
        "requires {A}\nlegal_values 1 2\nactive_if !A\ncdl_option A {}\n"
        "calculated A B\nimplements I J\n"
    ),
    "several flavors": "cdl_option A {\n flavor bool data\n}\n",
    "several interfaces": "cdl_option A {\n implements I J\n implements K 5\n}\n",
    "semicolons": (
        "cdl_option A { flavor data; legal_values 1 to 2; requires {A};"
        " active_if !B; calculated A B }\n"
    ),
    "braced value before the body's end": (
        "cdl_option A { requires {A}}\ncdl_option B {}\n"
    ),
    "CRLF line ends": (
        "cdl_option A {\r\n flavor data\r\n legal_values 1 to 2 \r\n"
        " requires {A || B}\r\n active_if !B\r\n calculated A B\r\n"
        " implements I J\r\n}\r\n"
    ),
    "no final newline": "cdl_option A {\n flavor data\n}\nlegal_values 1 2",
    "no final newline in a body": "cdl_option A {\n flavor data\n requires !A",
    "no final newline after a goal": "cdl_option A {}\nrequires {A}",
}


def _parse_golden_text() -> str:
    """Nodes (by the SHA-256 of their repr) and diagnostics of each input."""
    rng = random.Random(0x9A75E)
    inputs = []
    for path in fixture_paths("sound", "family", "analysis", "wf"):
        name = f"{path.parent.name}/{path.name}"
        text = path.read_text()
        inputs.append((name, text))
        inputs += [(f"{name} #{k}", _fault(rng, text)) for k in range(8)]
    inputs += [(f"case {label}", text) for label, text in _BRACE_CASES.items()]
    inputs += [(f"one-word {label}", text) for label, text in _ONE_WORD_CASES.items()]
    inputs += [(f"value {label}", text) for label, text in _VALUE_CASES.items()]
    inputs += [(f"line {label}", text) for label, text in _LINE_CASES.items()]
    rng = random.Random(0xB4ACE)
    for k in range(200):
        size = rng.randint(0, 80)
        text = "".join(rng.choice(_FUZZ_ALPHABET) for _ in range(size))
        inputs.append((f"random #{k}", text))
    blocks = []
    for label, source in inputs:
        nodes, diagnostics = parse_model(source, "m.cdl")
        digest = hashlib.sha256(repr(nodes).encode()).hexdigest()
        lines = [f"## {label} nodes {digest}"] + [str(d) for d in diagnostics]
        blocks.append("\n".join(lines) + "\n")
    return "".join(blocks)


def test_parse_output_is_pinned():
    # generated before the front end parsed values in place on the file
    # text, the brace cases and random texts before the one-pass scan, the
    # value cases before the flat value loops, the one-word cases before
    # the one-word property token, the line cases before the plain
    # property-line token; nodes and diagnostics must not move.
    # The digests were taken again when kinds and flavors became plain
    # texts: "<Kind.OPTION: 'option'>" in a repr became "'option'"
    assert _parse_golden_text() == GOLDEN_PARSE.read_text()
