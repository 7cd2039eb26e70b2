"""Command-line front end.

Subcommands: parse, check, validate, translate, analyze, enumerate.
Data goes to stdout (or -o FILE); diagnostics go to stderr.  Exit codes
are stable for scripting: 0 ok, 1 semantic negative, 2 input error
(including a model nested too deeply to process), 3 I/O error, 4 budget
exceeded.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import sys

from .errors import (
    AnalysisError,
    NormalizationError,
    OracleError,
    ValidationError,
)
from .model import (
    Model,
    check_well_formed,
    model_to_json,
    model_to_pretty,
    normalize_model,
)
from .parser import has_errors, parse_model
from .prop import (
    build_formula,
    bool_to_source,
    dump_prop_config,
    enumerate_prop_configs,
    formula_to_text,
    load_prop_config,
    validate_prop,
)
from .sat import (
    core_features,
    dead_features,
    export_dimacs,
    export_dot,
    implication_graph,
    model_sat,
    to_cnf,
)
from .semantics import (
    DEFAULT_BUDGET,
    dump_configuration,
    enumerate_configurations,
    load_configuration,
    validate_configuration,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_IO = 3
EXIT_BUDGET = 4


class _Stop(Exception):
    """Ends a command with ``code``; the reason is already reported."""

    def __init__(self, code: int):
        self.code = code


class _Cli:
    """One command's arguments and streams, and the steps every command
    takes from its files to its exit code."""

    def __init__(self, args, stdout, stderr):
        self.args = args
        self.stdout = stdout
        self.stderr = stderr

    def error(self, message: str) -> None:
        self.stderr.write(f"cdlsem: {message}\n")

    def fail(self, code: int, message: str) -> _Stop:
        """Report ``message``; the caller raises the result."""
        self.error(message)
        return _Stop(code)

    def read(self, path: str) -> str:
        """The file's text: a missing or unreadable file stops with exit 3,
        text that is not UTF-8 with exit 2."""
        try:
            # utf-8-sig: a leading byte-order mark is not part of the text
            with open(path, "r", encoding="utf-8-sig") as fh:
                return fh.read()
        except FileNotFoundError:
            raise self.fail(EXIT_IO, f"cannot read {path}: no such file")
        except OSError as err:
            raise self.fail(EXIT_IO, f"cannot read {path}: {err}")
        except UnicodeDecodeError as err:
            reason = f"not valid UTF-8 ({err.reason})"
            raise self.fail(EXIT_INPUT, f"cannot read {path}: {reason}")

    def model(self, well_formed: bool = True) -> Model:
        """The normalized model, its parse diagnostics on stderr.  With
        ``well_formed``, violations go to stderr too and stop with exit 1."""
        path = self.args.model
        nodes, diagnostics = parse_model(self.read(path), path)
        for d in diagnostics:
            self.stderr.write(f"{d}\n")
        if has_errors(diagnostics):
            raise _Stop(EXIT_INPUT)
        try:
            m = normalize_model(nodes)
        except NormalizationError as err:
            raise self.fail(EXIT_INPUT, str(err))
        if well_formed:
            violations = check_well_formed(m)
            for v in violations:
                self.stderr.write(f"({v.rule})\t{v.node}\t{v.message}\n")
            if violations:
                raise _Stop(EXIT_NEGATIVE)
        return m

    def render(self, payload, lines) -> str:
        """``payload()`` as indented JSON under --format json, else one
        line per item of ``lines``; the payload is built only for JSON and
        ``lines`` is read only for text."""
        if self.args.format == "json":
            return json.dumps(payload(), indent=2, sort_keys=True) + "\n"
        return "".join(line + "\n" for line in lines)

    def finish(self, text: str, ok: bool = True) -> int:
        """Write ``text`` to stdout or -o FILE; the exit code of ``ok``."""
        path = self.args.output
        if path in (None, "-"):
            self.stdout.write(text)
        else:
            try:
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(text)
            except OSError as err:
                raise self.fail(EXIT_IO, f"cannot write {path}: {err}")
        return EXIT_OK if ok else EXIT_NEGATIVE


# ---------------------------------------------------------------------------
# subcommands


def cmd_parse(cli: _Cli, args) -> int:
    m = cli.model(well_formed=False)
    emit = "ast" if args.emit_ast or args.format == "json" else args.emit
    return cli.finish(model_to_json(m, "\n") if emit == "ast" else model_to_pretty(m))


def cmd_check(cli: _Cli, args) -> int:
    violations = check_well_formed(cli.model(well_formed=False))
    text = cli.render(
        lambda: {"violations": [
            {"rule": v.rule, "node": v.node, "message": v.message} for v in violations
        ]},
        [f"({v.rule})\t{v.node}\t{v.message}" for v in violations],
    )
    return cli.finish(text, not violations)


def cmd_validate(cli: _Cli, args) -> int:
    m = cli.model()
    text = cli.read(args.config)
    universe = sorted(m.universe())
    load = load_prop_config if args.prop else load_configuration
    try:
        config, warnings = load(text, universe, strict=args.strict)
    except ValidationError as err:
        raise cli.fail(EXIT_INPUT, str(err))
    except ValueError as err:
        raise cli.fail(EXIT_INPUT, f"{args.config}: {err}")
    for w in warnings:
        cli.error(f"{args.config}: {w}")
    report = (validate_prop if args.prop else validate_configuration)(m, config)
    text = cli.render(
        lambda: {"verdict": report.verdict, "failures": [
            {"family": f.family, "node": f.node, "explanation": f.explanation}
            for f in report.failures
        ]},
        [report.verdict]
        + [f"{f.family}\t{f.node}\t{f.explanation}" for f in report.failures],
    )
    return cli.finish(text, report.accepted)


def cmd_translate(cli: _Cli, args) -> int:
    formula = build_formula(cli.model())
    if args.format == "dimacs":
        return cli.finish(export_dimacs(to_cnf(formula)))
    if args.format == "prop":
        return cli.finish(formula_to_text(formula))
    return cli.finish(cli.render(lambda: {
        "constraints": [
            {"node": con.node, "family": con.family, "expr": bool_to_source(con.expr)}
            for con in formula.constraints
        ],
        "variables": formula.var_table(),
    }, ()))


def cmd_analyze(cli: _Cli, args) -> int:
    m = cli.model()
    try:
        if args.sat:
            status = "SAT" if model_sat(m).sat else "UNSAT"
            return cli.finish(cli.render(lambda: {"status": status.lower()}, [status]))
        if args.dead or args.core:
            names = sorted(dead_features(m) if args.dead else core_features(m))
            key = "dead" if args.dead else "core"
            return cli.finish(cli.render(lambda: {key: names}, names))
        edges = sorted(implication_graph(m, reduce_transitive=args.reduce))
    except AnalysisError as err:
        raise cli.fail(EXIT_NEGATIVE, str(err))
    if args.dot:
        return cli.finish(export_dot(edges))
    return cli.finish(cli.render(lambda: {"edges": [list(e) for e in edges]},
                                 [f"{a}\t{b}" for a, b in edges]))


def cmd_enumerate(cli: _Cli, args) -> int:
    m = cli.model()
    budget = args.budget
    if budget is None:
        env = os.environ.get("CDLSEM_BUDGET")
        try:
            budget = int(env) if env else DEFAULT_BUDGET
        except ValueError:
            budget = 0  # not a number: rejected as not positive below
    if budget <= 0:
        raise cli.fail(EXIT_INPUT, "budget must be positive")

    def payload():
        if args.prop:
            listed = [dict(cp.items()) for cp in configs]
        else:
            listed = [{name: list(t) for name, t in c.items()} for c in configs]
        return {"configurations": listed, "count": len(configs)}

    try:
        if args.prop:
            configs = enumerate_prop_configs(m, budget=budget)
        else:
            configs = enumerate_configurations(m, args.domain.split(","), budget=budget)
        # the TSV blocks are written in text mode only: JSON holds any data
        # value; each block ends its last line, so a blank line follows it
        blocks = map(dump_prop_config if args.prop else dump_configuration, configs)
        text = cli.render(payload, itertools.chain(blocks, [f"count\t{len(configs)}"]))
    except OracleError as err:
        raise cli.fail(EXIT_BUDGET, str(err))
    except ValueError as err:
        raise cli.fail(EXIT_INPUT, str(err))
    return cli.finish(text)


# ---------------------------------------------------------------------------
# argument parsing


def _build_argparser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cdlsem",
        description="Parse, validate, translate and analyze CDL models.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("-o", "--output", default=None,
                       help="write output to a file instead of stdout")
        p.add_argument("--format", default="text", choices=["text", "json"],
                       help="output format")

    p = sub.add_parser("parse", help="dump the normalized model")
    p.add_argument("model")
    p.add_argument("--emit", choices=["ast", "pretty"], default="ast")
    p.add_argument("--emit-ast", action="store_true",
                   help="alias for --emit ast")
    common(p)

    p = sub.add_parser("check", help="well-formedness check")
    p.add_argument("model")
    common(p)

    p = sub.add_parser("validate", help="validate a configuration")
    p.add_argument("model")
    p.add_argument("config")
    p.add_argument("--prop", action="store_true",
                   help="Boolean validation against the translated model")
    p.add_argument("--strict", action="store_true",
                   help="fail instead of defaulting missing features")
    common(p)

    p = sub.add_parser("translate", help="emit the propositional model")
    p.add_argument("model")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--format", default="prop",
                   choices=["prop", "dimacs", "json"])

    p = sub.add_parser("analyze", help="SAT-based analyses")
    p.add_argument("model")
    what = p.add_mutually_exclusive_group(required=True)
    what.add_argument("--sat", action="store_true")
    what.add_argument("--dead", action="store_true")
    what.add_argument("--core", action="store_true")
    what.add_argument("--implications", action="store_true")
    p.add_argument("--dot", action="store_true",
                   help="DOT output for --implications")
    p.add_argument("--reduce", action="store_true",
                   help="transitive reduction of the implication graph")
    common(p)

    p = sub.add_parser("enumerate", help="brute-force accepted configurations")
    p.add_argument("model")
    p.add_argument("--domain", default="0,1",
                   help="comma-separated data values (default: 0,1)")
    p.add_argument("--budget", type=int, default=None,
                   help="candidate budget (or CDLSEM_BUDGET env var)")
    p.add_argument("--prop", action="store_true",
                   help="enumerate Boolean configurations instead")
    common(p)
    return ap


# built once: every main call parses with it and looks up cmd_<command>
# when it runs, so a replaced cmd_ function is the one called
_ARGPARSER = _build_argparser()


def main(argv=None, stdout=None, stderr=None) -> int:
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    # argparse prints usage, errors and --help to sys.stdout and sys.stderr
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = stdout, stderr
    try:
        args = _ARGPARSER.parse_args(argv)
    except SystemExit as err:
        return EXIT_INPUT if err.code not in (0, None) else 0
    finally:
        sys.stdout, sys.stderr = saved
    cli = _Cli(args, stdout, stderr)
    # The pipeline makes no reference cycles, so a collection during a
    # command walks the freshly built model and frees nothing; the caller's
    # setting comes back afterwards.  test_commands_leave_no_cycles in
    # tests/test_cli.py guards that no command leaves cyclic garbage.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return globals()["cmd_" + args.command](cli, args)
    except _Stop as stop:
        return stop.code
    except RecursionError:
        # the last resort: operator chains are flat in the goal and Boolean
        # trees alike, and the parser caps all other nesting
        cli.error(f"{args.model}: error: nested too deeply")
        return EXIT_INPUT
    finally:
        if collecting:
            gc.enable()
