"""Command-line behavior: exit codes, formats, determinism."""

import gc
import hashlib
import inspect
import io
import json
import os
import random
import subprocess
import sys

import pytest

from cdlsem.cli import EXIT_NEGATIVE, EXIT_OK, main
from cdlsem.parser import MAX_EXPR_DEPTH, ParseError, parse_goal_expr
from cdlsem.prop import PropConfig, load_prop_config
from cdlsem.semantics import Configuration, load_configuration

from conftest import FIXTURES, fixture_paths, load_model, perfbench_gen


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(list(argv), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def demo(tmp_path):
    model = tmp_path / "demo.cdl"
    model.write_text(
        """
cdl_package PKG {
    flavor bool
    cdl_component COMP {
        cdl_option OPT { requires EXTRA }
    }
}
cdl_option EXTRA { }
"""
    )
    config = tmp_path / "demo.conf"
    config.write_text(
        "PKG\t1\t1\t1\nCOMP\t1\t1\t1\nOPT\t1\t1\t1\nEXTRA\t1\t1\t1\n"
    )
    return model, config


# ---------------------------------------------------------------------------
# parse


def test_parse_ok(demo):
    model, _ = demo
    code, out, _ = run("parse", str(model))
    assert code == 0
    payload = json.loads(out)
    assert [n["name"] for n in payload["nodes"]] == [
        "COMP", "EXTRA", "OPT", "PKG",
    ]


def test_parse_empty_model(tmp_path):
    empty = tmp_path / "empty.cdl"
    empty.write_text("")
    assert run("parse", str(empty)) == (0, '{\n  "nodes": []\n}\n', "")


def test_parse_pretty(demo):
    model, _ = demo
    code, out, _ = run("parse", str(model), "--emit", "pretty")
    assert code == 0 and "package PKG [bool]" in out


def test_parse_error_exit_2(tmp_path):
    bad = tmp_path / "bad.cdl"
    bad.write_text("cdl_option A {")
    code, out, err = run("parse", str(bad))
    assert code == 2 and out == "" and "unbalanced" in err


def test_parse_emit_ast_alias(demo):
    model, _ = demo
    assert run("parse", str(model), "--emit-ast") == run("parse", str(model))


def test_parse_duplicate_names_exit_2(tmp_path):
    bad = tmp_path / "dup.cdl"
    bad.write_text("cdl_option A {}\ncdl_option A {}")
    code, _, err = run("parse", str(bad))
    assert code == 2 and "duplicate" in err


def test_parse_missing_file_exit_3(tmp_path):
    code, _, err = run("parse", str(tmp_path / "nope.cdl"))
    assert code == 3 and "cannot read" in err


def test_check_unreadable_model_exit_3(tmp_path):
    # a directory exists but cannot be read as a model: an I/O error, as
    # for an unreadable configuration, not an input error
    code, out, err = run("check", str(tmp_path))
    assert (code, out) == (3, "")
    assert err.startswith(f"cdlsem: cannot read {tmp_path}: ")
    missing = tmp_path / "nope.cdl"
    assert run("check", str(missing)) == (
        3, "", f"cdlsem: cannot read {missing}: no such file\n"
    )
    # a path under a file: the system's reason, as for a directory
    under = tmp_path / "plain.cdl"
    under.write_text("")
    code, out, err = run("check", str(under / "a.cdl"))
    assert (code, out) == (3, "")
    assert err.startswith(f"cdlsem: cannot read {under / 'a.cdl'}: [Errno ")


def test_non_utf8_files_exit_2(tmp_path):
    # undecodable text is an input error, reported in one line
    bad_model = tmp_path / "bad.cdl"
    bad_model.write_bytes(b"cdl_option A {}\n\xff\n")
    model = tmp_path / "ok.cdl"
    model.write_text("cdl_option A {}\n")
    bad_config = tmp_path / "bad.conf"
    bad_config.write_bytes(b"A\t1\t1\t\xc3\n")
    invalid = "not valid UTF-8 (invalid start byte)"
    cut = "not valid UTF-8 (invalid continuation byte)"
    cases = [
        (("check", str(bad_model)), f"cannot read {bad_model}: {invalid}"),
        (("validate", str(bad_model), str(bad_config)),
         f"cannot read {bad_model}: {invalid}"),
        (("validate", str(model), str(bad_config)),
         f"cannot read {bad_config}: {cut}"),
        (("validate", str(model), str(bad_config), "--prop"),
         f"cannot read {bad_config}: {cut}"),
    ]
    for argv, message in cases:
        assert run(*argv) == (2, "", f"cdlsem: {message}\n"), argv
    for argv, message in cases[::2]:
        proc = subprocess.run(
            [sys.executable, "-m", "cdlsem", *argv],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
        )
        assert (proc.returncode, proc.stdout) == (2, ""), argv
        assert proc.stderr == f"cdlsem: {message}\n", argv


def test_leading_byte_order_mark_is_ignored(tmp_path):
    # a UTF-8 byte-order mark, as some editors write one, is not part of
    # the first word of a model or of a configuration
    bom = b"\xef\xbb\xbf"
    model, config, bits = (tmp_path / n for n in ("m.cdl", "c.tsv", "b.tsv"))
    models = [
        (FIXTURES / "sound" / "s22_mixed.cdl").read_bytes(),
        b"cdl_option A {\n}\n",
        b"cdl_option A { frob 1 }\ncdl_option B {\n requires {(}\n}\n",
    ]
    configs = [(b"A\t1\t1\t1\n", b"A\t1\n"),
               (b"A\t1\t1\t1\nMODE\t1\t1\t2\n", b"A\t1\nMODE\t0\n")]
    commands = [
        ("check", str(model)),
        ("parse", str(model)),
        ("parse", str(model), "--emit", "pretty"),
        ("translate", str(model)),
        ("validate", str(model), str(config)),
        ("validate", str(model), str(config), "--strict"),
        ("validate", str(model), str(bits), "--prop"),
    ]
    for source in models:
        for rows, values in configs:
            outcomes = []
            for model_bom, config_bom in ((0, 0), (1, 0), (0, 1), (1, 1)):
                model.write_bytes(bom * model_bom + source)
                config.write_bytes(bom * config_bom + rows)
                bits.write_bytes(bom * config_bom + values)
                outcomes.append([run(*argv) for argv in commands])
            assert outcomes[1:] == outcomes[:1] * 3, (source, rows)
    model.write_bytes(bom + b"cdl_option A {\n}\n")
    config.write_bytes(bom + b"A\t1\t1\t1\n")
    assert run("check", str(model)) == (0, "", "")
    assert run("validate", str(model), str(config)) == (0, "accepted\n", "")


# ---------------------------------------------------------------------------
# check


def test_check_clean(demo):
    model, _ = demo
    assert run("check", str(model))[0] == 0


def test_check_violation_exit_1(tmp_path):
    bad = tmp_path / "iface.cdl"
    bad.write_text("cdl_interface I { flavor none }")
    code, out, _ = run("check", str(bad))
    assert code == 1
    assert out.startswith("(d)\tI\t")


def test_check_parse_failure_exit_2(tmp_path):
    bad = tmp_path / "broken.cdl"
    bad.write_text("cdl_option {{{")
    assert run("check", str(bad))[0] == 2


# ---------------------------------------------------------------------------
# validate


def test_validate_accepted(demo):
    model, config = demo
    code, out, _ = run("validate", str(model), str(config))
    assert code == 0 and out.splitlines()[0] == "accepted"


def test_validate_reports_huge_calculated_integer(tmp_path):
    # 2 << 20000 has 6021 digits, past the 4300-digit cap on integers
    model = tmp_path / "shift.cdl"
    model.write_text("cdl_option A { flavor data; calculated { 2 << 20000 } }\n")
    config = tmp_path / "shift.conf"
    config.write_text("A\t1\t1\t0\n")
    code, out, err = run("validate", str(model), str(config))
    assert (code, out, err) == (
        1, "rejected\ncalculated\tA\tvalue must follow calculated 2 << 20000\n", ""
    )


def test_validate_reports_huge_data_value(tmp_path):
    model = tmp_path / "cmp.cdl"
    model.write_text(
        "cdl_option A {\n flavor data\n}\ncdl_option B {\n requires { A > 3 }\n}\n"
    )
    config = tmp_path / "cmp.conf"
    config.write_text("A\t1\t1\t" + "7" * 5000 + "\nB\t1\t1\t1\n")
    code, out, err = run("validate", str(model), str(config))
    assert code == 1 and err == ""
    assert out == (
        "rejected\nnode\tB\tenabled_state=1 but parent_state=1, enabled_value=1,"
        " constraints=failing; constraint A > 3 failed:"
        " integer of more than 4300 digits\n"
    )


def test_validate_unloaded_enabled(demo, tmp_path):
    model, _ = demo
    config = tmp_path / "bad.conf"
    config.write_text(
        "PKG\t0\t0\t0\nCOMP\t0\t0\t0\nOPT\t0\t0\t0\nEXTRA\t0\t0\t0\nGHOST\t1\t1\t1\n"
    )
    code, out, _ = run("validate", str(model), str(config))
    assert code == 1
    assert "unloaded\tGHOST" in out


def test_validate_defaults_missing_with_warning(demo, tmp_path):
    model, _ = demo
    config = tmp_path / "partial.conf"
    config.write_text("PKG\t0\t0\t0\n")
    code, out, err = run("validate", str(model), str(config))
    assert code == 0 and "accepted" in out
    assert "defaulted" in err


def test_validate_strict_missing_exit_2(demo, tmp_path):
    model, _ = demo
    config = tmp_path / "partial.conf"
    config.write_text("PKG\t0\t0\t0\n")
    code, _, err = run("validate", str(model), str(config), "--strict")
    assert code == 2 and "incomplete" in err


def test_validate_prop_mode(demo, tmp_path):
    model, _ = demo
    config = tmp_path / "bits.conf"
    config.write_text("PKG\t1\nCOMP\t1\nOPT\t1\nEXTRA\t1\n")
    assert run("validate", str(model), str(config), "--prop")[0] == 0
    config.write_text("PKG\t0\nCOMP\t1\nOPT\t0\nEXTRA\t0\n")
    code, out, _ = run("validate", str(model), str(config), "--prop")
    assert code == 1 and "node\tCOMP" in out


def test_validate_json(demo):
    model, config = demo
    code, out, _ = run("validate", str(model), str(config), "--format", "json")
    assert code == 0 and json.loads(out)["verdict"] == "accepted"


# ---------------------------------------------------------------------------
# translate


def test_translate_prop_listing(demo):
    model, _ = demo
    code, out, _ = run("translate", str(model))
    assert code == 0 and "[node:OPT] OPT implies COMP && EXTRA" in out


def test_translate_connective_shapes(tmp_path):
    model = tmp_path / "shapes.cdl"
    model.write_text(
        "cdl_option A {}\ncdl_option B {}\ncdl_option C {}\n"
        "cdl_option L { requires A && B && C }\n"
        "cdl_option R { requires A && (B && C) }\n"
        "cdl_option M { requires (A || B) && C }\n"
    )
    code, out, _ = run("translate", str(model))
    assert code == 0
    assert "[node:L] L implies A && B && C\n" in out
    assert "[node:R] R implies A && (B && C)\n" in out
    assert "[node:M] M implies (A || B) && C\n" in out


def test_long_chains_need_no_recursion(tmp_path):
    n = 1500
    features = "".join(f"cdl_option F{i} {{}}\n" for i in range(n))
    spaced = " ".join(f"F{i}" for i in range(n))
    anded = " && ".join(f"F{i}" for i in range(n))
    model = tmp_path / "chains.cdl"
    model.write_text(
        features
        + f"cdl_option X {{ requires {spaced} }}\n"
        + f"cdl_option Y {{ requires {{ {anded} }} }}\n"
    )
    for argv in (
        ("check", str(model)),
        ("translate", str(model)),
        ("translate", str(model), "--format", "dimacs"),
    ):
        code, out, err = run(*argv)
        assert code == 0 and "Traceback" not in err, argv
    assert f"[node:Y] Y implies {anded}\n" in run("translate", str(model))[1]
    for op in ("implies", "eqv"):
        chain = f" {op} ".join(f"F{i}" for i in range(n))
        model.write_text(features + f"cdl_option X {{ requires {{ {chain} }} }}\n")
        prop = "".join(f"[node:F{i}] 1\n" for i in sorted(range(n), key=str))
        assert run("translate", str(model)) == (
            0, prop + f"[node:X] X implies ({chain})\n", ""
        )
        code, out, err = run("translate", str(model), "--format", "json")
        assert (code, err) == (0, "") and len(json.loads(out)["constraints"]) == n + 1
        # one gate per operator: 3 clauses per or-gate, 4 per eqv gate
        per_gate = 3 if op == "implies" else 4
        code, out, err = run("translate", str(model), "--format", "dimacs")
        assert (code, err) == (0, "")
        assert f"\np cnf {2 * n} {per_gate * (n - 1) + 1}\n" in out
        assert run("analyze", str(model), "--sat") == (0, "SAT\n", "")


def test_too_deep_nesting_exits_2_without_traceback(tmp_path, monkeypatch):
    # a 600-term arithmetic chain is one flat node and goes through
    arith = tmp_path / "arith.cdl"
    terms = " + ".join(["F"] * 600)
    arith.write_text(f"cdl_option G {{ flavor data; calculated {{ {terms} }} }}\n")
    assert run("check", str(arith)) == (0, "", "")
    assert run("translate", str(arith)) == (
        0,
        "[node:G] 1\n[flavor:G] G\n[unloaded:F] !F\n",
        "",
    )

    # no model is known to recurse too deeply any more, so force one
    def too_deep(cli, args):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr("cdlsem.cli.cmd_translate", too_deep)
    assert run("translate", str(arith)) == (
        2, "", f"cdlsem: {arith}: error: nested too deeply\n"
    )


# one shape per way of spending the parser's depth budget
DEEP_SHAPES = {
    "else-chain": lambda k: "A ? B : " * k + "B",
    "and": lambda k: "A && (" * k + "A" + ")" * k,
    "implies": lambda k: "A implies (" * k + "A" + ")" * k,
    "not-or": lambda k: "!(A || " * k + "A" + ")" * k,
    "bang": lambda k: "!" * k + "A",
    "tilde": lambda k: "~" * k + "A",
}


def _deepest_accepted(shape) -> int:
    """The largest k for which the parser accepts ``shape(k)``."""
    lo, hi = 1, 2 * MAX_EXPR_DEPTH  # accepted, rejected
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            parse_goal_expr(shape(mid))
            lo = mid
        except ParseError:
            hi = mid
    return lo


# "twice": B requires and C calculates equal trees, which the encoder
# must find again without comparing them recursively
@pytest.mark.parametrize("prop", ["requires", "calculated", "twice"])
@pytest.mark.parametrize("shape", list(DEEP_SHAPES))
def test_commands_fit_the_recursion_limit_at_the_parsers_caps(
    tmp_path, shape, prop
):
    make = DEEP_SHAPES[shape]
    k = _deepest_accepted(make)
    with pytest.raises(ParseError, match="nesting too deep"):
        parse_goal_expr(make(k + 1))
    deep = make(k)
    if prop == "twice":
        b, c = f"requires {{ {deep} }}", f"calculated {{ {deep} }}"
    else:
        b, c = "", f"{prop} {{ {deep} }}"
    model = tmp_path / "deep.cdl"
    model.write_text(
        f"cdl_option A {{}}\ncdl_option B {{{b}}}\n"
        f"cdl_option C {{\n flavor booldata\n {c}\n}}\n"
    )
    conf = tmp_path / "deep.conf"
    conf.write_text("A\t1\t1\t1\nB\t1\t1\t1\nC\t1\t1\t1\n")
    bits = tmp_path / "deep.bits"
    bits.write_text("A\t1\nB\t1\nC\t1\n")
    m = str(model)
    commands = [
        ("parse", m), ("check", m),
        *[("translate", m, "--format", f) for f in ("prop", "json", "dimacs")],
        *[("analyze", m, w) for w in ("--sat", "--dead", "--implications")],
        ("validate", m, str(conf)), ("validate", m, str(bits), "--prop"),
    ]
    # On Python 3.11 the deepest command, analyze --dead on the else-chain,
    # needs 603 frames, with one copy or two; the margin leaves about 95.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 700)
    try:
        results = [run(*argv) for argv in commands]
    finally:
        sys.setrecursionlimit(limit)
    for argv, (code, _, err) in zip(commands, results):
        assert "nested too deeply" not in err, argv
        assert code in (EXIT_OK, EXIT_NEGATIVE), (argv, err)


def test_argparse_writes_to_the_given_streams(capsys):
    code, out, err = run("bogus")
    assert (code, out) == (2, "")
    assert err.startswith("usage: cdlsem ") and "invalid choice: 'bogus'" in err
    code, out, err = run("check")
    assert (code, out) == (2, "")
    assert "the following arguments are required: model" in err
    for argv in (("--help",), ("validate", "-h")):
        code, out, err = run(*argv)
        assert (code, err) == (0, "")
        assert out.startswith("usage: cdlsem ") and "--help" in out
    assert capsys.readouterr() == ("", "")


def test_public_names_resolve():
    import cdlsem

    missing = [name for name in cdlsem.__all__ if not hasattr(cdlsem, name)]
    assert missing == []


def test_translate_empty_model_dimacs(tmp_path):
    empty = tmp_path / "empty.cdl"
    empty.write_text("")
    code, out, _ = run("translate", str(empty), "--format", "dimacs")
    assert code == 0 and out == "p cnf 0 0\n"


def test_translate_ill_formed_exit_1(tmp_path):
    bad = tmp_path / "iface.cdl"
    bad.write_text("cdl_interface I { flavor none }")
    assert run("translate", str(bad))[0] == 1


def test_translate_json(demo):
    model, _ = demo
    code, out, _ = run("translate", str(model), "--format", "json")
    payload = json.loads(out)
    assert code == 0 and payload["variables"]["COMP"] == 1


# ---------------------------------------------------------------------------
# analyze


def test_analyze_sat(demo):
    model, _ = demo
    code, out, _ = run("analyze", str(model), "--sat")
    assert code == 0 and out == "SAT\n"
    # indented with sorted keys, as every other JSON output is
    assert run("analyze", str(model), "--sat", "--format", "json") == (
        0, '{\n  "status": "sat"\n}\n', ""
    )


def test_analyze_dead_lists_feature(tmp_path):
    bad = tmp_path / "dead.cdl"
    bad.write_text("cdl_option GONE { requires 0 }\ncdl_option OK {}")
    code, out, _ = run("analyze", str(bad), "--dead")
    assert code == 0 and out == "GONE\n"


def test_analyze_void_model_exit_1(tmp_path):
    void = tmp_path / "void.cdl"
    void.write_text("cdl_option D { flavor data\n calculated 0 }")
    code, _, err = run("analyze", str(void), "--dead")
    assert code == 1 and "void-model" in err
    code, out, _ = run("analyze", str(void), "--sat")
    assert code == 0 and out == "UNSAT\n"


def test_analyze_implications_dot(demo):
    model, _ = demo
    code, out, _ = run("analyze", str(model), "--implications", "--dot")
    assert code == 0 and '"OPT" -> "COMP";' in out


def test_analyze_core_json(tmp_path):
    f = tmp_path / "core.cdl"
    f.write_text("cdl_option D { flavor data }")
    code, out, _ = run("analyze", str(f), "--core", "--format", "json")
    assert code == 0 and json.loads(out) == {"core": ["D"]}


# ---------------------------------------------------------------------------
# enumerate


def test_enumerate_empty_model(tmp_path):
    empty = tmp_path / "empty.cdl"
    empty.write_text("")
    code, out, _ = run("enumerate", str(empty))
    assert code == 0 and out.strip().splitlines()[-1] == "count\t1"


def test_enumerate_mandatory_data(tmp_path):
    f = tmp_path / "data.cdl"
    f.write_text("cdl_option D { flavor data }")
    code, out, _ = run("enumerate", str(f), "--domain", "0,1")
    assert code == 0
    records = [l for l in out.splitlines() if l.startswith("D\t")]
    assert records and all(l.split("\t")[2] == "1" for l in records)
    # a data value the TSV form cannot hold is an input error in text
    # output; JSON lists it
    assert run("enumerate", str(f), "--domain", "0,a\tb") == (
        2, "", "cdlsem: data value of 'D' cannot be written as TSV\n"
    )
    code, out, err = run("enumerate", str(f), "--domain", "0,a\tb", "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out) == {
        "configurations": [{"D": [1, 1, "0"]}, {"D": [1, 1, "a\tb"]}],
        "count": 2,
    }


def test_enumerate_budget_exit_4(tmp_path):
    f = tmp_path / "big.cdl"
    f.write_text("\n".join(f"cdl_option F{i} {{}}" for i in range(20)))
    code, _, err = run("enumerate", str(f), "--budget", "100")
    assert code == 4 and "too-large" in err


def test_enumerate_budget_env(tmp_path, monkeypatch):
    f = tmp_path / "big.cdl"
    f.write_text("\n".join(f"cdl_option F{i} {{}}" for i in range(20)))
    monkeypatch.setenv("CDLSEM_BUDGET", "100")
    assert run("enumerate", str(f))[0] == 4


def test_enumerate_budget_must_be_positive(tmp_path, monkeypatch):
    f = tmp_path / "one.cdl"
    f.write_text("cdl_option A {}")
    rejected = (2, "", "cdlsem: budget must be positive\n")
    assert run("enumerate", str(f), "--budget", "0") == rejected
    for env in ("0", "-3", "abc", "1.5"):
        monkeypatch.setenv("CDLSEM_BUDGET", env)
        assert run("enumerate", str(f)) == rejected, env


def test_enumerate_prop(tmp_path):
    f = tmp_path / "two.cdl"
    f.write_text("cdl_component C { cdl_option A {} }")
    code, out, _ = run("enumerate", str(f), "--prop")
    assert code == 0 and out.strip().splitlines()[-1] == "count\t3"


def test_enumerate_json_count(tmp_path):
    f = tmp_path / "one.cdl"
    f.write_text("cdl_option A {}")
    code, out, _ = run("enumerate", str(f), "--format", "json")
    # on/off times the two free data values
    assert code == 0 and json.loads(out)["count"] == 4


# ---------------------------------------------------------------------------
# cross-cutting


def _every_form(demo, tmp_path) -> list[tuple[str, ...]]:
    """Every subcommand form on the demo model, in each output format,
    with an accepted and a rejected configuration and an ill-formed model."""
    model, config = (str(p) for p in demo)
    bits, rejected = tmp_path / "bits.conf", tmp_path / "rejected.conf"
    bits.write_text("PKG\t1\nCOMP\t1\nOPT\t1\nEXTRA\t1\n")
    rejected.write_text("PKG\t0\nCOMP\t1\nOPT\t0\nEXTRA\t0\n")
    ill_formed = str(FIXTURES / "wf" / "rule_a_bad.cdl")
    forms = [("parse", model), ("parse", model, "--emit", "pretty"),
             ("check", model), ("check", ill_formed),
             ("validate", model, config), ("validate", model, str(bits), "--prop"),
             ("validate", model, str(rejected), "--prop"),
             ("analyze", model, "--sat"), ("analyze", model, "--dead"),
             ("analyze", model, "--core"), ("analyze", model, "--implications"),
             ("analyze", model, "--implications", "--reduce"),
             ("enumerate", model), ("enumerate", model, "--prop")]
    forms += [form + ("--format", "json") for form in forms]
    return forms + [("analyze", model, "--implications", "--dot"),
                    ("translate", model), ("translate", model, "--format", "dimacs"),
                    ("translate", model, "--format", "json")]


def test_output_to_file(demo, tmp_path):
    # -o FILE gets exactly the text stdout would, with the same exit code
    # and diagnostics, and stdout stays empty
    target = tmp_path / "out.txt"
    codes = set()
    for argv in _every_form(demo, tmp_path):
        code, out, err = run(*argv)
        assert run(*argv, "-o", str(target)) == (code, "", err), argv
        assert target.read_bytes() == out.encode(), argv
        target.unlink()
        codes.add(code)
    assert codes == {0, 1}


def test_unwritable_output_exit_3(demo, tmp_path):
    for argv in _every_form(demo, tmp_path):
        code, out, err = run(*argv, "-o", str(tmp_path))
        assert (code, out) == (3, ""), argv
        assert err.startswith(f"cdlsem: cannot write {tmp_path}: "), argv
        assert err.count("\n") == 1, argv


def test_missing_configuration_exit_3(demo, tmp_path):
    # reported as a missing model is
    model, _ = demo
    missing = tmp_path / "nope.conf"
    for mode in ((), ("--prop",)):
        assert run("validate", str(model), str(missing), *mode) == (
            3, "", f"cdlsem: cannot read {missing}: no such file\n"
        ), mode


def test_validate_prop_accepts_projected_full_configs(demo, tmp_path):
    # end-to-end: every accepted full configuration, projected, passes --prop
    from cdlsem import normalize_model, parse_model
    from cdlsem.prop import dump_prop_config, project
    from cdlsem.semantics import enumerate_configurations

    model, _ = demo
    nodes, _ = parse_model(model.read_text(), str(model))
    m = normalize_model(nodes)
    for i, c in enumerate(enumerate_configurations(m, ["0", "1"])):
        bits = tmp_path / f"proj{i}.conf"
        bits.write_text(dump_prop_config(project(c, m)))
        assert run("validate", str(model), str(bits), "--prop")[0] == 0


def test_double_run_is_byte_identical(demo):
    model, config = demo
    commands = [
        ("parse", str(model)),
        ("parse", str(model), "--emit", "pretty"),
        ("check", str(model)),
        ("validate", str(model), str(config)),
        ("translate", str(model)),
        ("translate", str(model), "--format", "dimacs"),
        ("analyze", str(model), "--sat"),
        ("analyze", str(model), "--dead"),
        ("analyze", str(model), "--implications"),
        ("enumerate", str(model), "--prop"),
    ]
    for argv in commands:
        assert run(*argv) == run(*argv)


def test_subprocess_determinism_across_hash_seeds(demo):
    model, _ = demo
    outs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        proc = subprocess.run(
            [sys.executable, "-m", "cdlsem", "translate", str(model)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


def test_fixture_corpus_runs_clean():
    for path in sorted((FIXTURES / "sound").glob("*.cdl"))[:5]:
        assert run("check", str(path))[0] == 0
        assert run("analyze", str(path), "--sat")[0] == 0


def _cycle_guard_runs(directory) -> list[tuple[str, ...]]:
    """Every subcommand form on every fixture and on ``perfbench/gen.py``
    seed-1 models of 36 and 130 features, accepted and rejected
    configurations among them, plus one run of each error path."""
    forms = [("parse",), ("parse", "--emit", "pretty"), ("check",),
             ("translate", "--format", "prop"), ("translate", "--format", "dimacs"),
             ("analyze", "--sat"), ("analyze", "--dead"), ("analyze", "--core"),
             ("analyze", "--implications"), ("analyze", "--implications", "--reduce"),
             ("analyze", "--implications", "--dot"),
             ("enumerate",), ("enumerate", "--prop")]
    models = []  # (model path, [(full TSV, bits TSV)])
    for group in ("sound", "family", "analysis", "wf"):
        for path in sorted((FIXTURES / group).glob("*.cdl")):
            # all-on, all-off and an enabled undeclared feature
            cases = _fixture_validate_cases(path)[:3]
            models.append((path, [(rows, bits) for _, rows, bits in cases]))
    gen = perfbench_gen()
    for size in (36, 130):
        g = gen.generate(1, size)
        path = directory / f"gen1_{size}.cdl"
        path.write_text(g.text, encoding="utf-8")
        cases = _generated_validate_cases(g, random.Random(size))
        full = {label: rows for label, rows, _ in cases if rows is not None}
        prop = {label: bits for label, _, bits in cases if bits is not None}
        models.append((path, [(full["accepted"], prop["accepted"]),
                              (full["node-on-guard"], prop["node-dead-on"])]))
    runs = []
    for path, cases in models:
        runs += [(command, str(path), *extra) for command, *extra in forms]
        for k, (rows, bits) in enumerate(cases):
            for mode, text in (((), rows), (("--prop",), bits)):
                config = directory / f"{path.stem}_{k}{''.join(mode)}.tsv"
                config.write_text(text, encoding="utf-8")
                runs.append(("validate", str(path), str(config), *mode))
    errors = {
        "unbalanced.cdl": "cdl_option A {",
        "ill_formed.cdl": (FIXTURES / "wf" / "rule_a_bad.cdl").read_text(),
        "div.cdl": "cdl_option A { flavor data; requires { A / 0 } }\n",
        "shift.cdl": "cdl_option A { flavor data; calculated { 2 << 20000 } }\n",
        "deep.cdl": f"cdl_option A {{ requires {{ {'(' * 80}A{')' * 80} }} }}\n",
    }
    for name, text in errors.items():
        (directory / name).write_text(text, encoding="utf-8")
    one = directory / "one.tsv"
    one.write_text("A\t1\t1\t1\n", encoding="utf-8")
    big = str(directory / "gen1_130.cdl")
    runs += [
        ("check", str(directory / "unbalanced.cdl")),
        ("translate", str(directory / "ill_formed.cdl")),
        ("validate", str(directory / "ill_formed.cdl"), str(one)),
        ("validate", big, str(one), "--strict"),
        ("validate", big, str(one), "--prop", "--strict"),
        ("validate", str(directory / "div.cdl"), str(one)),
        ("validate", str(directory / "shift.cdl"), str(one)),
        ("check", str(directory / "deep.cdl")),
        ("enumerate", big, "--budget", "100"),
        ("check", str(directory / "missing.cdl")),
        ("validate", big, str(directory / "missing.tsv")),
    ]
    return runs


def test_commands_leave_no_cycles(tmp_path):
    # cli.main pauses the cyclic collector during a command, because the
    # pipeline builds no reference cycles; a command that left one behind
    # would hold its memory until the caller's next collection
    seen = set()
    gc.collect()
    gc.freeze()  # each collection walks what came after, not the whole process
    try:
        for argv in _cycle_guard_runs(tmp_path):
            gc.collect()
            seen.add(main(list(argv), stdout=io.StringIO(), stderr=io.StringIO()))
            assert gc.collect() == 0, argv
    finally:
        gc.unfreeze()
    assert seen == {0, 1, 2, 3, 4}


def test_collector_is_paused_only_while_a_command_runs(demo, monkeypatch):
    model, _ = demo
    states = []

    def record(cli, args):
        states.append(gc.isenabled())
        return 0

    def nested(cli, args):
        # a command run by a command leaves the outer one's pause alone
        assert run("check", str(model)) == (0, "", "")
        states.append(gc.isenabled())
        return 0

    def crash(cli, args):
        states.append(gc.isenabled())
        raise KeyError("crash")

    def too_deep(cli, args):
        states.append(gc.isenabled())
        raise RecursionError("maximum recursion depth exceeded")

    enabled = gc.isenabled()
    try:
        for before in (True, False):
            gc.enable() if before else gc.disable()
            for command, expected in ((record, 0), (nested, 0), (too_deep, 2)):
                monkeypatch.setattr("cdlsem.cli.cmd_translate", command)
                assert run("translate", str(model))[0] == expected
                assert gc.isenabled() is before
            monkeypatch.setattr("cdlsem.cli.cmd_translate", crash)
            with pytest.raises(KeyError):
                run("translate", str(model))
            assert gc.isenabled() is before
            # an argparse error runs no command
            code, _, err = run("bogus")
            assert code == 2 and gc.isenabled() is before
            assert "invalid choice: 'bogus'" in err
        assert states == [False] * 8
    finally:
        gc.enable() if enabled else gc.disable()


GOLDEN_TRANSLATE = FIXTURES.parent / "golden" / "translate.txt"


def _translate_golden_text() -> str:
    """``translate`` and ``translate --format dimacs`` of every fixture."""
    blocks = []
    for group in ("sound", "family", "analysis"):
        for path in sorted((FIXTURES / group).glob("*.cdl")):
            for extra in ((), ("--format", "dimacs")):
                code, out, err = run("translate", str(path), *extra)
                head = " ".join((f"{group}/{path.name}", "translate", *extra))
                blocks.append(f"## {head} (exit {code})\n{err}{out}")
    return "".join(blocks)


def test_translate_output_is_pinned():
    # the expected text was generated before a change of the Boolean IR;
    # prop text, aux-variable numbering and clause order must not move
    assert _translate_golden_text() == GOLDEN_TRANSLATE.read_text()


GOLDEN_ENUMERATE = FIXTURES.parent / "golden" / "enumerate.txt"


def _enumerate_golden_text() -> str:
    """``enumerate`` of every fixture, full and Boolean, text and JSON.

    Some outputs run to megabytes, so stdout is pinned by its SHA-256 and
    length; the exit code and stderr are pinned verbatim.
    """
    fixture = FIXTURES / "sound" / "s19_unloaded.cdl"
    runs = [
        (f"{group}/{path.name}", (str(path), *mode, *fmt))
        for group in ("sound", "family", "analysis")
        for path in sorted((FIXTURES / group).glob("*.cdl"))
        for mode in (("--domain", "0,1,2"), ("--prop",))
        for fmt in ((), ("--format", "json"))
    ]
    # the budget counts the whole candidate space: 4 * 12 with one unloaded
    # reference and three data values, 2^2 valuations
    for mode, space in ((("--domain", "0,1,2"), 48), (("--prop",), 4)):
        for budget in (space - 1, space):
            extra = (*mode, "--budget", str(budget))
            runs.append(("sound/s19_unloaded.cdl", (str(fixture), *extra)))
    blocks = []
    for name, argv in runs:
        code, out, err = run("enumerate", *argv)
        head = " ".join((name, "enumerate", *argv[1:]))
        digest = hashlib.sha256(out.encode()).hexdigest()
        blocks.append(
            f"## {head} (exit {code})\n{err}stdout {len(out)} bytes {digest}\n"
        )
    return "".join(blocks)


def test_enumerate_output_is_pinned():
    # generated before enumeration stopped building every candidate; the
    # accepted configurations, their order and the budget check must not move
    assert _enumerate_golden_text() == GOLDEN_ENUMERATE.read_text()


GOLDEN_GENERATED = FIXTURES.parent / "golden" / "generated.txt"


def _generated_golden_text(directory) -> str:
    """``translate`` of ``perfbench/gen.py`` models, prop text and DIMACS,
    ``parse`` of each, JSON and pretty, plus ``analyze --dead``/``--core``
    of the smaller ones.

    Stdout is pinned by its SHA-256 and length, as in ``enumerate.txt``;
    the exit code and stderr are pinned verbatim.
    """
    gen = perfbench_gen()
    blocks = []
    for seed in (1, 2, 3):
        for size in (36, 130, 500, 2000):
            path = directory / f"gen{seed}_{size}.cdl"
            path.write_text(gen.generate(seed, size).text, encoding="utf-8")
            runs = [("translate", "--format", "prop"),
                    ("translate", "--format", "dimacs")]
            if size <= 130:
                runs += [("analyze", "--dead"), ("analyze", "--core")]
            runs += [("parse",), ("parse", "--emit", "pretty")]
            for command, *extra in runs:
                code, out, err = run(command, str(path), *extra)
                head = " ".join((f"gen seed {seed} size {size}", command, *extra))
                digest = hashlib.sha256(out.encode()).hexdigest()
                blocks.append(
                    f"## {head} (exit {code})\n{err}stdout {len(out)} bytes {digest}\n"
                )
    return "".join(blocks)


def test_generated_model_output_is_pinned(tmp_path):
    # generated before the CNF encoder and the solver's clause loading
    # changed, the parse runs before the one-pass front end; prop text,
    # DIMACS, the parse output and the analyses' answers must not move
    assert _generated_golden_text(tmp_path) == GOLDEN_GENERATED.read_text()


GOLDEN_VALIDATE = FIXTURES.parent / "golden" / "validate.txt"
_FULL_FAMILIES = {"node", "flavor", "calculated", "legal_values", "interface",
                  "unloaded"}


def _fixture_validate_cases(path):
    """(label, full TSV, bits TSV) of seeded configurations of a fixture."""
    ids = sorted(load_model(path).universe())
    rng = random.Random(path.name)
    rows = lambda triples: "".join(
        f"{x}\t{s}\t{v}\t{d}\n" for x, (s, v, d) in zip(ids, triples)
    )
    bits = lambda values: "".join(f"{x}\t{b}\n" for x, b in zip(ids, values))
    cases = [
        ("all-on", rows([(1, 1, "1")] * len(ids)), bits([1] * len(ids))),
        ("all-off", rows([(0, 0, "0")] * len(ids)), bits([0] * len(ids))),
        ("ghost", rows([(1, 1, "1")] * len(ids)) + "GHOST\t1\t1\t1\n",
         bits([0] * len(ids)) + "GHOST\t1\n"),
    ]
    for k in range(3):
        triples = [
            (rng.randint(0, 1), rng.randint(0, 1), rng.choice(("0", "1", "2", "x")))
            for _ in ids
        ]
        cases.append((f"random{k}", rows(triples),
                      bits([rng.randint(0, 1) for _ in ids])))
    return cases


def _generated_validate_cases(g, rng):
    """(label, full TSV, bits TSV) of a ``perfbench/gen.py`` model: the
    planted accepted configuration and seeded changes of it that break
    each family, the node family both on and off its guard."""
    gen = perfbench_gen()
    acc, bits = g.accepted_full(), g.accepted_bits()
    feats = g.features
    live = [f for f in feats if f.live]
    parents = {f.parent for f in live if f.parent is not None}
    pick = lambda pred: rng.choice([f.name for f in feats if pred(f)])
    dead = pick(lambda f: not f.live)
    container = pick(lambda f: f.live and f.name in parents and f.flavor != "none")
    option = pick(lambda f: f.live and f.kind == "option" and f.flavor == "bool"
                  and f.calculated is None)
    data = pick(lambda f: f.live and f.flavor == "data" and f.kind == "option")
    calc = pick(lambda f: f.live and f.calculated is not None)
    legal = pick(lambda f: f.live and f.legal_values is not None)
    iface = pick(lambda f: f.kind == "interface")
    unloaded = rng.choice(g.unloaded)
    s, v, d = acc[calc]
    full = [
        ("accepted", {}),
        ("node-on-guard", {dead: (1, 1, acc[dead][2])}),
        ("node-off-guard", {dead: (1, 0, acc[dead][2])}),
        ("parent-off", {container: (0, 0, acc[container][2])}),
        ("node-should-be-on", {option: (0, 1, acc[option][2])}),
        ("flavor", {data: (1, 0, acc[data][2])}),
        ("calculated-data", {calc: (s, v, "999")}),
        ("calculated-value", {calc: (s, 1 - v, d)}),
        ("legal-values", {legal: (*acc[legal][:2], "1000")}),
        ("interface-data", {iface: (*acc[iface][:2], "99")}),
        ("interface-value", {iface: (acc[iface][0], 0, acc[iface][2])}),
        ("unloaded", {unloaded: (1, 1, "1")}),
    ]
    prop = [
        ("accepted", {}),
        ("node-dead-on", {dead: 1}),
        ("flavor-core-off", {g.core[0]: 0}),
        ("parent-off", {container: 0}),
        ("calculated", {calc: 1 - bits[calc]}),
        ("interface", {iface: 1 - bits[iface]}),
        ("unloaded", {unloaded: 1}),
    ]
    names = g.universe()
    for k in range(2):
        chosen = rng.sample(names, 3)
        full.append((f"random{k}", {
            x: (rng.randint(0, 1), rng.randint(0, 1),
                rng.choice(("0", "1", "x", *gen.DATA_VALUES)))
            for x in chosen
        }))
        prop.append((f"random{k}", {x: 1 - bits[x] for x in rng.sample(names, 3)}))
    cases = [(label, gen.full_tsv({**acc, **change}), None) for label, change in full]
    cases += [(label, None, gen.bits_tsv({**bits, **change})) for label, change in prop]
    return cases


def _validate_golden_text(directory) -> tuple[str, set]:
    """``validate`` of seeded configurations of every fixture and of
    ``perfbench/gen.py`` models, full and ``--prop``, text and JSON.

    Stdout is pinned by its SHA-256 and length, as in ``enumerate.txt``;
    the exit code and stderr are pinned verbatim.  Also returns the
    (mode, family) pairs of the failures reported, plus ``on-guard`` and
    ``off-guard`` when a node failure lists the failing constraints.
    """
    runs = []
    for group in ("sound", "family", "analysis", "wf"):
        for path in sorted((FIXTURES / group).glob("*.cdl")):
            for label, rows, bits in _fixture_validate_cases(path):
                runs.append((f"{group}/{path.name}", str(path), label, rows, bits))
    gen = perfbench_gen()
    for seed in (1, 2, 3):
        for size in (36, 130):
            g = gen.generate(seed, size)
            path = directory / f"gen{seed}_{size}.cdl"
            path.write_text(g.text, encoding="utf-8")
            rng = random.Random(seed * 1000 + size)
            for label, rows, bits in _generated_validate_cases(g, rng):
                runs.append((f"gen seed {seed} size {size}", str(path), label,
                             rows, bits))
    blocks, seen = [], set()
    config = directory / "config.tsv"
    for name, model, label, rows, bits in runs:
        for mode, text in (((), rows), (("--prop",), bits)):
            if text is None:
                continue
            config.write_text(text, encoding="utf-8")
            for fmt in ((), ("--format", "json")):
                code, out, err = run("validate", model, str(config), *mode, *fmt)
                head = " ".join((name, "validate", label, *mode, *fmt))
                digest = hashlib.sha256(out.encode()).hexdigest()
                blocks.append(
                    f"## {head} (exit {code})\n{err}stdout {len(out)} bytes {digest}\n"
                )
                if fmt:
                    continue
                for line in out.splitlines()[1:]:
                    family, _, explanation = line.split("\t")
                    seen.add((mode, family))
                    if family == "node" and "; constraint " in explanation:
                        on = "parent_state=1, enabled_value=1," in explanation
                        seen.add((mode, "on-guard" if on else "off-guard"))
    return "".join(blocks), seen


def test_validate_output_is_pinned(tmp_path):
    # generated before validation became one lazy walk with explanations
    # written only for the report; verdicts, failure order, explanations
    # and exit codes must not move
    text, seen = _validate_golden_text(tmp_path)
    assert str(tmp_path) not in text
    assert {((), f) for f in _FULL_FAMILIES | {"on-guard", "off-guard"}} <= seen
    assert {(("--prop",), f) for f in _FULL_FAMILIES - {"legal_values"}} <= seen
    assert text == GOLDEN_VALIDATE.read_text()


def test_loaded_configurations_equal_checked_ones():
    # the loaders wrap read_tsv's entries without the constructor's checks;
    # each load must be the assignment the checked constructor builds
    cases = []  # (universe, full TSV, bits TSV)
    for path in fixture_paths("sound", "family", "analysis", "wf"):
        universe = sorted(load_model(path).universe())
        cases += [(universe, rows, bits) for _, rows, bits in _fixture_validate_cases(path)]
    gen = perfbench_gen()
    for seed in (1, 2, 3):
        for size in (36, 130):
            g = gen.generate(seed, size)
            rng = random.Random(seed * 1000 + size)
            cases += [(g.universe(), rows, bits)
                      for _, rows, bits in _generated_validate_cases(g, rng)]
    loaders = ((load_configuration, Configuration), (load_prop_config, PropConfig))
    loaded = 0
    for universe, *texts in cases:
        for (load, cls), text in zip(loaders, texts):
            if text is None:
                continue
            for domain in (None, universe):
                got, _ = load(text, domain)
                checked = cls(got.items())
                assert type(got) is cls and got == checked and checked == got
                assert hash(got) == hash(checked) and repr(got) == repr(checked)
                loaded += 1
    assert loaded > 300
    # a malformed row fails with its line number; a root row, even a
    # malformed one, is ignored with a warning
    rows = (("1\t1\tx", "1\t2\tx", "state and value must be 0 or 1", 4),
            ("1", "2", "bit must be 0 or 1", 2))
    for (load, _), (row, bad, bits, width) in zip(loaders, rows):
        _, warnings = load(f"⊤\t{bad}\nA\t{row}\n", ["A"])
        assert warnings == ["line 1: the root entry is implicit; ignored"]
        for text, message in [
            (f"A\t{row}\t1\n", f"line 1: expected {width} tab-separated fields"),
            (f"# c\nA\t{bad}\n", f"line 2: {bits}"),
            (f"A\t{row}\n A \t{row}\n", "line 2: duplicate entry for 'A'"),
        ]:
            with pytest.raises(ValueError) as err:
                load(text)
            assert str(err.value) == message


GOLDEN_ANALYZE = FIXTURES.parent / "golden" / "analyze.txt"


def _analyze_golden_text(directory) -> str:
    """``analyze --dead``, ``--core`` and ``--implications`` (plain,
    ``--reduce``, ``--dot`` and JSON) of every fixture and of
    ``perfbench/gen.py`` seeds 1-3 at 36 and 130 features.

    Stdout is pinned by its SHA-256 and length, as in ``enumerate.txt``;
    the exit code and stderr are pinned verbatim.
    """
    runs = [
        (f"{group}/{path.name}", str(path))
        for group in ("sound", "family", "analysis", "wf")
        for path in sorted((FIXTURES / group).glob("*.cdl"))
    ]
    gen = perfbench_gen()
    for seed in (1, 2, 3):
        for size in (36, 130):
            path = directory / f"gen{seed}_{size}.cdl"
            path.write_text(gen.generate(seed, size).text, encoding="utf-8")
            runs.append((f"gen seed {seed} size {size}", str(path)))
    analyses = [("--dead",), ("--core",), ("--implications",),
                ("--implications", "--reduce"), ("--implications", "--dot"),
                ("--implications", "--format", "json")]
    blocks = []
    for name, model in runs:
        for extra in analyses:
            code, out, err = run("analyze", model, *extra)
            head = " ".join((name, "analyze", *extra))
            digest = hashlib.sha256(out.encode()).hexdigest()
            blocks.append(
                f"## {head} (exit {code})\n{err}stdout {len(out)} bytes {digest}\n"
            )
    return "".join(blocks)


def test_analyze_output_is_pinned(tmp_path):
    # generated before the implication graph and the backbone began to
    # settle candidates by unit propagation; every edge, dead and core
    # feature, DOT and JSON text and exit code must not move
    text = _analyze_golden_text(tmp_path)
    assert str(tmp_path) not in text
    assert text == GOLDEN_ANALYZE.read_text()
