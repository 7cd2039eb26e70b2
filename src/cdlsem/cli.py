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
import json
import os
import sys

from .errors import (
    AnalysisError,
    FormulaError,
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


class _Cli:
    def __init__(self, stdout, stderr):
        self.stdout = stdout
        self.stderr = stderr

    def emit(self, text: str, out_path: str | None) -> int:
        if out_path in (None, "-"):
            self.stdout.write(text)
            return EXIT_OK
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as err:
            self.error(f"cannot write {out_path}: {err}")
            return EXIT_IO
        return EXIT_OK

    def error(self, message: str) -> None:
        self.stderr.write(f"cdlsem: {message}\n")

    def read_file(self, path: str) -> tuple[str | None, int]:
        """The file's text, or None after reporting why, with the exit code."""
        try:
            # utf-8-sig: a leading byte-order mark is not part of the text
            with open(path, "r", encoding="utf-8-sig") as fh:
                return fh.read(), EXIT_OK
        except OSError as err:
            self.error(f"cannot read {path}: {err}")
            return None, EXIT_IO
        except UnicodeDecodeError as err:
            self.error(f"cannot read {path}: not valid UTF-8 ({err.reason})")
            return None, EXIT_INPUT

    def require_well_formed(self, m: Model) -> bool:
        violations = check_well_formed(m)
        for v in violations:
            self.stderr.write(f"({v.rule})\t{v.node}\t{v.message}\n")
        return not violations


def _load_model_io(cli: _Cli, path: str) -> tuple[Model | None, int]:
    """Read, parse and normalize; problems are reported, with the exit code."""
    if not os.path.exists(path):
        cli.error(f"cannot read {path}: no such file")
        return None, EXIT_IO
    text, code = cli.read_file(path)
    if text is None:
        return None, code
    nodes, diagnostics = parse_model(text, path)
    for d in diagnostics:
        cli.stderr.write(f"{d}\n")
    if has_errors(diagnostics):
        return None, EXIT_INPUT
    try:
        return normalize_model(nodes), EXIT_OK
    except NormalizationError as err:
        cli.error(str(err))
        return None, EXIT_INPUT


# ---------------------------------------------------------------------------
# subcommands


def cmd_parse(cli: _Cli, args) -> int:
    m, code = _load_model_io(cli, args.model)
    if m is None:
        return code
    emit = "ast" if args.emit_ast or args.format == "json" else args.emit
    text = model_to_json(m) + "\n" if emit == "ast" else model_to_pretty(m)
    return cli.emit(text, args.output)


def cmd_check(cli: _Cli, args) -> int:
    m, code = _load_model_io(cli, args.model)
    if m is None:
        return code
    violations = check_well_formed(m)
    if args.format == "json":
        payload = {
            "violations": [
                {"rule": v.rule, "node": v.node, "message": v.message}
                for v in violations
            ]
        }
        code = cli.emit(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                        args.output)
    else:
        lines = [f"({v.rule})\t{v.node}\t{v.message}" for v in violations]
        code = cli.emit("".join(l + "\n" for l in lines), args.output)
    if code != EXIT_OK:
        return code
    return EXIT_OK if not violations else EXIT_NEGATIVE


def cmd_validate(cli: _Cli, args) -> int:
    m, code = _load_model_io(cli, args.model)
    if m is None:
        return code
    if not cli.require_well_formed(m):
        return EXIT_NEGATIVE
    text, code = cli.read_file(args.config)
    if text is None:
        return code
    universe = sorted(m.universe())
    try:
        if args.prop:
            cp, warnings = load_prop_config(text, universe, strict=args.strict)
        else:
            c, warnings = load_configuration(text, universe, strict=args.strict)
    except ValidationError as err:
        cli.error(str(err))
        return EXIT_INPUT
    except ValueError as err:
        cli.error(f"{args.config}: {err}")
        return EXIT_INPUT
    for w in warnings:
        cli.error(f"{args.config}: {w}")
    report = validate_prop(m, cp) if args.prop else validate_configuration(m, c)
    if args.format == "json":
        payload = {
            "verdict": report.verdict,
            "failures": [
                {"family": f.family, "node": f.node, "explanation": f.explanation}
                for f in report.failures
            ],
        }
        out = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        lines = [report.verdict]
        lines += [
            f"{f.family}\t{f.node}\t{f.explanation}" for f in report.failures
        ]
        out = "".join(l + "\n" for l in lines)
    code = cli.emit(out, args.output)
    if code != EXIT_OK:
        return code
    return EXIT_OK if report.accepted else EXIT_NEGATIVE


def cmd_translate(cli: _Cli, args) -> int:
    m, code = _load_model_io(cli, args.model)
    if m is None:
        return code
    if not cli.require_well_formed(m):
        return EXIT_NEGATIVE
    formula = build_formula(m)
    if args.format == "dimacs":
        text = export_dimacs(to_cnf(formula))
    elif args.format == "json":
        payload = {
            "constraints": [
                {
                    "node": con.node,
                    "family": con.family,
                    "expr": bool_to_source(con.expr),
                }
                for con in formula.constraints
            ],
            "variables": formula.var_table(),
        }
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        text = formula_to_text(formula)
    return cli.emit(text, args.output)


def cmd_analyze(cli: _Cli, args) -> int:
    m, code = _load_model_io(cli, args.model)
    if m is None:
        return code
    if not cli.require_well_formed(m):
        return EXIT_NEGATIVE
    try:
        if args.sat:
            status = "SAT" if model_sat(m).sat else "UNSAT"
            if args.format == "json":
                out = json.dumps({"status": status.lower()}) + "\n"
            else:
                out = status + "\n"
            return cli.emit(out, args.output)
        if args.dead or args.core:
            names = sorted(dead_features(m) if args.dead else core_features(m))
            if args.format == "json":
                key = "dead" if args.dead else "core"
                out = json.dumps({key: names}, indent=2, sort_keys=True) + "\n"
            else:
                out = "".join(n + "\n" for n in names)
            return cli.emit(out, args.output)
        edges = sorted(implication_graph(m, reduce_transitive=args.reduce))
        if args.dot:
            out = export_dot(edges)
        elif args.format == "json":
            out = json.dumps({"edges": [list(e) for e in edges]},
                             indent=2, sort_keys=True) + "\n"
        else:
            out = "".join(f"{a}\t{b}\n" for a, b in edges)
        return cli.emit(out, args.output)
    except (AnalysisError, FormulaError) as err:
        cli.error(str(err))
        return EXIT_NEGATIVE


def cmd_enumerate(cli: _Cli, args) -> int:
    m, code = _load_model_io(cli, args.model)
    if m is None:
        return code
    if not cli.require_well_formed(m):
        return EXIT_NEGATIVE
    budget = args.budget
    if budget is None:
        env = os.environ.get("CDLSEM_BUDGET")
        try:
            budget = int(env) if env else DEFAULT_BUDGET
        except ValueError:
            budget = 0  # not a number: rejected as not positive below
    if budget <= 0:
        cli.error("budget must be positive")
        return EXIT_INPUT
    try:
        if args.prop:
            configs = enumerate_prop_configs(m, budget=budget)
            blocks = [dump_prop_config(cp) for cp in configs]
        else:
            domain = [v for v in args.domain.split(",")]
            configs = enumerate_configurations(m, domain, budget=budget)
            blocks = [dump_configuration(c) for c in configs]
    except OracleError as err:
        cli.error(str(err))
        return EXIT_BUDGET
    except ValueError as err:
        cli.error(str(err))
        return EXIT_INPUT
    if args.format == "json":
        if args.prop:
            payload = [dict(cp.items()) for cp in configs]
        else:
            payload = [
                {name: list(triple) for name, triple in c.items()}
                for c in configs
            ]
        out = json.dumps({"configurations": payload, "count": len(configs)},
                         indent=2, sort_keys=True) + "\n"
    else:
        out = "\n".join(blocks) + ("\n" if blocks else "")
        out += f"count\t{len(configs)}\n"
    return cli.emit(out, args.output)


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
    cli = _Cli(stdout, stderr)
    # The pipeline makes no reference cycles, so a collection during a
    # command walks the freshly built model and frees nothing; the caller's
    # setting comes back afterwards.  test_commands_leave_no_cycles in
    # tests/test_cli.py guards that no command leaves cyclic garbage.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return globals()["cmd_" + args.command](cli, args)
    except RecursionError:
        # the last resort: operator chains are flat in the goal and Boolean
        # trees alike, and the parser caps all other nesting
        cli.error(f"{args.model}: error: nested too deeply")
        return EXIT_INPUT
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
