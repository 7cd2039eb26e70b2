"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines
live.  Every criterion enforces its runtime budget.
"""

import io
import itertools
import random
import time

import pytest

from cdlsem import check_well_formed
from cdlsem.cli import main as cli_main
from cdlsem.parser import parse_goal_expr as pg
from cdlsem.parser import parse_model
from cdlsem.prop import (
    PropConfig,
    dump_prop_config,
    enumerate_prop_configs,
    eval_p,
    project,
    rewrite,
    validate_prop,
)
from cdlsem.sat import (
    core_features,
    dead_features,
    implication_graph,
    model_sat,
    solve,
)
from cdlsem.semantics import (
    Configuration,
    enumerate_configurations,
    eval_expr,
)
from cdlsem.errors import AnalysisError

from conftest import (
    FIXTURES,
    brute_cnf_status,
    fixture_paths,
    load_model,
    mk_model,
    pigeonhole_cnf,
    random_cnf,
)


class _Criterion:
    def __init__(self, name: str, limit_s: float):
        self.name = name
        self.limit_s = limit_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        dt = time.perf_counter() - self.t0
        if exc_type is not None:
            print(f"ACCEPTANCE {self.name}: FAIL after {dt:.2f}s")
            return False
        if dt >= self.limit_s:
            print(f"ACCEPTANCE {self.name}: FAIL (took {dt:.2f}s, limit {self.limit_s}s)")
            raise AssertionError(
                f"{self.name} exceeded its {self.limit_s}s budget ({dt:.2f}s)"
            )
        print(f"ACCEPTANCE {self.name}: PASS ({dt:.2f}s)")
        return False


# ---------------------------------------------------------------------------
# 1. well-formedness rules, minimal fixture pairs


def test_criterion_1_well_formedness():
    with _Criterion("1-well-formedness", 1.0):
        for rule in ("a", "b", "c", "d", "e"):
            bad = load_model(FIXTURES / "wf" / f"rule_{rule}_bad.cdl")
            good = load_model(FIXTURES / "wf" / f"rule_{rule}_ok.cdl")
            assert [v.rule for v in check_well_formed(bad)] == [rule]
            assert check_well_formed(good) == []


# ---------------------------------------------------------------------------
# 2. evaluation against a hand-computed table


EVAL_MODEL_SRC = """
cdl_option A { flavor bool }
cdl_option B { flavor bool }
cdl_option N { flavor data }
cdl_option S { flavor booldata }
"""

# A enabled, B disabled, N carries 6, S carries a string.
EVAL_CONFIG = {
    "A": (1, 1, "1"),
    "B": (0, 1, "1"),
    "N": (1, 1, "6"),
    "S": (1, 1, "hello"),
    "U": (0, 0, "0"),
}

# (expression, expected) pairs; every expected value computed by hand.
EVAL_TABLE = [
    ("A", "1"),                      # enabled feature reads its data
    ("B", "0"),                      # disabled feature reads as zero
    ("42", "42"),                    # literals evaluate to themselves
    ('"x y"', "x y"),
    ("B || A", "1"),                 # 0 or 1
    ("A && B", "0"),                 # 1 and 0
    ("A implies B", "0"),            # 1 -> 0
    ("B implies A", "1"),            # 0 -> anything
    ("A eqv B", "0"),                # 1 <-> 0
    ("A xor B", "1"),
    ("!A", "0"),
    ("!N", "0"),                     # 6 is true, negated
    ("~5", "-6"),                    # two's complement
    ("N + 2", "8"),
    ("2 - N", "-4"),
    ("N * N", "36"),
    ("7 / 2", "3"),                  # integer division floors
    ("-7 / 2", "-4"),
    ("1 / 2.0", "0.5"),
    ("-7 % 2", "1"),                 # remainder follows the divisor
    ("1 << 4", "16"),
    ("N >> 1", "3"),
    ("6 ^ 3", "5"),
    ("6 & 3", "2"),
    ("6 | 3", "7"),
    ("N == 6", "1"),
    ('S == "hello"', "1"),           # textual equality
    ("N != 6", "0"),
    ('"abc" < "abd"', "1"),          # code-point order
    ('"10" < "9"', "0"),             # numeric because both sides parse
    ("N > 10", "0"),
    ("0x10 <= 16", "1"),             # hex literal
    ("2.5 >= 2", "1"),
    ("A ? N : B", "6"),              # guard true takes the then branch
    ("B ? N : 7", "7"),              # guard false takes the other branch
    ("get_data(B)", "1"),            # raw data even while disabled
    ("is_active(B)", "0"),
    ("is_enabled(B)", "1"),
    ("is_loaded(A)", "1"),
    ("is_loaded(U)", "0"),
    ('is_substr(S, "ELL")', "1"),    # case-insensitive containment
    ('is_xsubstr(S, "ELL")', "0"),   # case-sensitive containment
    ('version_cmp("1.2", "1.10")', "-1"),
    ('version_cmp("1.2.0", "1.2")', "0"),
    ("!(N > 2)", "0"),
]


def test_criterion_2_evaluation_table():
    with _Criterion("2-evaluation-oracle", 5.0):
        m = mk_model(EVAL_MODEL_SRC)
        c = Configuration(EVAL_CONFIG)
        for text, expected in EVAL_TABLE:
            assert eval_expr(pg(text), c, m) == expected, text


# ---------------------------------------------------------------------------
# 3. flavor/property families against hand-predicted accepted sets


D3 = ("0", "1", "2")


def triples(**features):
    """Configurations from per-feature triple collections."""
    names = sorted(features)
    out = set()
    for combo in itertools.product(*(features[n] for n in names)):
        out.add(Configuration(zip(names, combo)))
    return out


ON_OFF = [(0, 0), (1, 1)]  # state mirrors value for unconstrained features

FAMILY_EXPECTATIONS = {
    # mandatory: value pinned, hence state pinned; data free
    "plain_none.cdl": lambda: triples(VAL={(1, 1, d) for d in D3}),
    "plain_bool.cdl": lambda: triples(VAL={(b, b, d) for b, b2 in ON_OFF for d in D3}),
    "plain_booldata.cdl": lambda: triples(VAL={(b, b, d) for b, _ in ON_OFF for d in D3}),
    "plain_data.cdl": lambda: triples(VAL={(1, 1, d) for d in D3}),
    # calculated pins the value (bool) or the data (data flavors)
    "calc_bool_true.cdl": lambda: triples(VAL={(1, 1, d) for d in D3}),
    "calc_bool_false.cdl": lambda: triples(VAL={(0, 0, d) for d in D3}),
    "calc_booldata.cdl": lambda: triples(VAL={(1, 1, "2")}),
    "calc_data.cdl": lambda: triples(VAL={(1, 1, "2")}),
    # legal_values restricts data regardless of state; none ignores it
    "lv_booldata.cdl": lambda: triples(VAL={(b, b, d) for b, _ in ON_OFF for d in ("1", "2")}),
    "lv_data.cdl": lambda: triples(VAL={(1, 1, "2")}),
    "lv_none.cdl": lambda: triples(VAL={(1, 1, d) for d in D3}),
    # interfaces mirror their enabled implementor count
    "iface_bool.cdl": lambda: {
        Configuration({"IMPL_A": (a, a, da), "IFACE": (a, a, di)})
        for a, _ in ON_OFF for da in D3 for di in D3
    },
    "iface_data.cdl": lambda: {
        Configuration({"IMPL_A": (a, a, da), "IFACE": (1, 1, str(a))})
        for a, _ in ON_OFF for da in D3
    },
    "iface_booldata.cdl": lambda: {
        Configuration(
            {
                "IMPL_A": (a, a, da),
                "IMPL_B": (b, b, db),
                "IFACE": (int(a + b > 0), int(a + b > 0), str(a + b)),
            }
        )
        for a, _ in ON_OFF for b, _ in ON_OFF for da in D3 for db in D3
    },
}


def test_criterion_3_family_fixtures():
    with _Criterion("3-denotation-families", 30.0):
        paths = fixture_paths("family")
        assert {p.name for p in paths} == set(FAMILY_EXPECTATIONS)
        for path in paths:
            m = load_model(path)
            got = set(enumerate_configurations(m, D3))
            assert got == FAMILY_EXPECTATIONS[path.name](), path.name


# ---------------------------------------------------------------------------
# 4. projection soundness over the corpus


def test_criterion_4_under_approximation_soundness():
    with _Criterion("4-under-approximation", 120.0):
        paths = fixture_paths("sound")
        assert len(paths) >= 20
        counterexamples = 0
        for path in paths:
            m = load_model(path)
            assert len(m.universe()) <= 8
            for c in enumerate_configurations(m, D3):
                if not validate_prop(m, project(c, m)).accepted:
                    counterexamples += 1
        assert counterexamples == 0


# ---------------------------------------------------------------------------
# 5. rewrite rules against brute-forced definitions


REWRITE_MODEL = mk_model(
    """
    cdl_interface IFACE {}
    cdl_option IMP_A { implements IFACE }
    cdl_option IMP_B { implements IFACE }
    cdl_option IMP_C { implements IFACE }
    cdl_option X { flavor booldata }
    cdl_option Y { flavor booldata }
    """
)

IMPLEMENTORS = ("IMP_A", "IMP_B", "IMP_C")


def _sat_set(expr, names):
    out = set()
    for bits in itertools.product((0, 1), repeat=len(names)):
        if eval_p(expr, PropConfig(zip(names, bits))):
            out.add(bits)
    return out


def _def_set(names, pred):
    return {
        bits
        for bits in itertools.product((0, 1), repeat=len(names))
        if pred(dict(zip(names, bits)))
    }


def _impl_count(v):
    return sum(v[i] for i in IMPLEMENTORS)


REWRITE_CASES = [
    # (expression, variables, defining predicate)
    ("X", ("X",), lambda v: v["X"] == 1),
    ("!X", ("X",), lambda v: v["X"] == 0),
    ("X == 1", ("X",), lambda v: v["X"] == 1),
    ("X == 0", ("X",), lambda v: v["X"] == 0),
    ("X > 3", ("X",), lambda v: v["X"] == 1),
    ("X > -1", ("X",), lambda v: True),
    ("X != 0", ("X",), lambda v: v["X"] == 1),
    ('is_substr(X, "z")', ("X",), lambda v: v["X"] == 1),
    ("X || Y", ("X", "Y"), lambda v: v["X"] or v["Y"]),
    ("X && Y", ("X", "Y"), lambda v: v["X"] and v["Y"]),
    ("X implies Y", ("X", "Y"), lambda v: not v["X"] or v["Y"]),
    ("X eqv Y", ("X", "Y"), lambda v: v["X"] == v["Y"]),
    (
        "X ? IMP_A : IMP_B",
        ("X", "IMP_A", "IMP_B"),
        lambda v: v["IMP_A"] if v["X"] else v["IMP_B"],
    ),
    # the five interface cardinality rules
    (
        "IFACE == 0",
        ("IFACE",) + IMPLEMENTORS,
        lambda v: v["IFACE"] == 0 and _impl_count(v) == 0,
    ),
    (
        "IFACE > 0",
        ("IFACE",) + IMPLEMENTORS,
        lambda v: v["IFACE"] == 1 and _impl_count(v) > 0,
    ),
    (
        "IFACE == 1",
        ("IFACE",) + IMPLEMENTORS,
        lambda v: v["IFACE"] == 1 and _impl_count(v) == 1,
    ),
    (
        "IFACE >= 2",
        ("IFACE",) + IMPLEMENTORS,
        lambda v: v["IFACE"] == 1 and _impl_count(v) >= 2,
    ),
    (
        "IFACE > 1",
        ("IFACE",) + IMPLEMENTORS,
        lambda v: v["IFACE"] == 1 and _impl_count(v) > 1,
    ),
]

REWRITE_CONSTS = [
    ("0", 0),
    ("1", 1),
    ('"text"', 1),
    ('""', 0),
]

REWRITE_ABSENT = [
    "X + 1",
    "X xor Y",
    "!(X && Y)",
    "X < 5",
    "X >= 1",
    "X == Y",
    "X != 3",
    "get_data(X)",
]


def test_criterion_5_rewrite_coverage():
    with _Criterion("5-rewrite-rules", 10.0):
        for text, names, pred in REWRITE_CASES:
            rewritten = rewrite(pg(text), REWRITE_MODEL)
            assert rewritten is not None, text
            assert _sat_set(rewritten, names) == _def_set(names, pred), text
        for text, value in REWRITE_CONSTS:
            assert rewrite(pg(text), REWRITE_MODEL) is bool(value), text
        assert rewrite(pg("GHOST"), REWRITE_MODEL) is False
        for text in REWRITE_ABSENT:
            assert rewrite(pg(text), REWRITE_MODEL) is None, text


# ---------------------------------------------------------------------------
# 6. solver against truth tables


def test_criterion_6_sat_correctness():
    with _Criterion("6-sat-correctness", 60.0):
        rng = random.Random(0xC0FFEE)
        disagreements = 0
        for _ in range(1000):
            cnf = random_cnf(rng, max_vars=15, max_clauses=60)
            if solve(cnf).status != brute_cnf_status(cnf):
                disagreements += 1
        assert disagreements == 0
        assert solve(pigeonhole_cnf(4, 3)).status == "unsat"


# ---------------------------------------------------------------------------
# 7. analyses against their brute-force definitions


def test_criterion_7_analyses_vs_oracle():
    with _Criterion("7-analyses", 120.0):
        for path in fixture_paths("family", "sound", "analysis"):
            m = load_model(path)
            assert len(m.universe()) <= 12
            if not model_sat(m).sat:
                for analysis in (dead_features, core_features, implication_graph):
                    with pytest.raises(AnalysisError):
                        analysis(m)
                continue
            models = enumerate_prop_configs(m)
            dead = frozenset(
                f for f in m.ids() if all(cp[f] == 0 for cp in models)
            )
            core = frozenset(
                f for f in m.ids() if all(cp[f] == 1 for cp in models)
            )
            alive = sorted(m.ids() - dead)
            edges = frozenset(
                (a, b)
                for a in alive
                for b in alive
                if a != b and all(cp[b] == 1 for cp in models if cp[a] == 1)
            )
            assert dead_features(m) == dead, path
            assert core_features(m) == core, path
            assert implication_graph(m) == edges, path


# ---------------------------------------------------------------------------
# 8. CLI determinism over the corpus


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli_main(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def test_criterion_8_cli_determinism(tmp_path):
    with _Criterion("8-cli-determinism", 120.0):
        empty_conf = tmp_path / "empty.conf"
        empty_conf.write_text("")
        for path in fixture_paths("family", "sound", "analysis"):
            p = str(path)
            commands = [
                ["parse", p],
                ["parse", p, "--emit", "pretty"],
                ["check", p],
                ["validate", p, str(empty_conf)],
                ["validate", p, str(empty_conf), "--prop"],
                ["translate", p],
                ["translate", p, "--format", "dimacs"],
                ["analyze", p, "--sat"],
                ["analyze", p, "--dead"],
                ["analyze", p, "--core"],
                ["analyze", p, "--implications"],
                ["analyze", p, "--implications", "--dot"],
                ["enumerate", p, "--prop"],
            ]
            for argv in commands:
                assert _run_cli(argv) == _run_cli(argv), argv


# ---------------------------------------------------------------------------
# 9. parser fuzzing


def _mutate(rng, text):
    chars = list(text)
    for _ in range(rng.randint(1, 8)):
        op = rng.randint(0, 2)
        pos = rng.randrange(max(1, len(chars)))
        if op == 0 and chars:
            chars[pos % len(chars)] = chr(rng.randint(1, 0x2FF))
        elif op == 1:
            chars.insert(pos, rng.choice("{}\"\\#;()?:&|!~<>=+-*/%$[]"))
        elif chars:
            del chars[pos % len(chars)]
    return "".join(chars)


def test_criterion_9_parser_fuzz():
    with _Criterion("9-parser-fuzz", 90.0):
        rng = random.Random(0xF022)
        seeds = [p.read_text() for p in fixture_paths("family", "sound", "analysis")]
        soup = (
            "cdl_option cdl_package { } \" \\ # ; \n requires flavor active_if"
            " calculated implements legal_values bool data to ( ) ? : && || ! ~"
            " A B {A} 0 1 0x 1e $ [ ]"
        )
        # a body-opening line puts the property lines after it in a body,
        # where the plain-line lane applies them
        tokens = soup.split(" ") + ["\ncdl_option A {\n"]
        count = 0
        deadline = time.perf_counter() + 60.0
        while time.perf_counter() < deadline:
            for _ in range(500):
                kind = rng.random()
                if kind < 0.45:
                    text = "".join(
                        rng.choice("cdl_option{}\"\\#;\n\t AB01&|!?:()," )
                        for _ in range(rng.randint(0, 50))
                    )
                elif kind < 0.75:
                    text = " ".join(
                        rng.choice(tokens) for _ in range(rng.randint(0, 25))
                    )
                elif kind < 0.95:
                    text = _mutate(rng, rng.choice(seeds))
                else:
                    text = "".join(
                        chr(rng.randint(1, 0x10FF))
                        for _ in range(rng.randint(0, 40))
                    )
                nodes, diags = parse_model(text)  # must neither raise nor hang
                assert isinstance(nodes, list) and isinstance(diags, list)
                count += 1
        assert count > 100_000, f"only {count} inputs in 60s"
