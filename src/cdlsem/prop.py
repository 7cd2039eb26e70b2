"""Boolean projection of models: rewriting, formulas, validation.

The Boolean semantics keeps one bit per feature.  Goal expressions are
translated by a partial rewrite function; whatever it cannot express is
dropped, loosening constraints so that every configuration accepted by
the full semantics stays accepted after projection (for the supported
constructs; see the docs on known boundaries).

The four connectives share one flat n-ary ``BInfix`` node, as the goal
operators share ``exprs.Infix``: a long chain is one node, not a tree.
A formula's leaves are plain values: a feature is its name, a ``str``,
and a constant is ``True`` or ``False``.
"""

from __future__ import annotations

import functools
from operator import or_

from .errors import EvalError, FormulaError, OracleError
from .exprs import Call, Cond, Const, GoalExpr, Ident, Infix, Not, frozen
from .model import TOP, Model, check_well_formed
from .semantics import (
    DEFAULT_BUDGET,
    Assignment,
    Configuration,
    Failure,
    ValidationReport,
    check_total,
    parse_number,
    read_tsv,
    to_bool,
)


class BoolExpr:
    """Marker base class for the Boolean nodes ``BNot``, ``BInfix`` and
    ``BCard``.  A leaf is no node: a feature name (``str``) or a constant
    (``bool``), and walkers dispatch on ``e.__class__``."""

    __slots__ = ()


@frozen
class BNot(BoolExpr):
    child: BoolExpr


# binding strength per connective, for printing; higher binds tighter
_BOOL_PREC = {"implies": 1, "eqv": 1, "||": 2, "&&": 3}


@frozen
class BInfix(BoolExpr):
    """Left-associative chain ``items[0] op items[1] op ...`` of one connective.

    ``op`` is ``&&``, ``||``, ``implies`` or ``eqv``.  As with
    ``exprs.Infix`` the chain is flat, so walkers loop over its operands
    instead of recursing once per operator.
    """

    op: str
    items: tuple[BoolExpr, ...]

    def __post_init__(self):
        if self.op not in _BOOL_PREC:
            raise ValueError(f"bad Boolean operator {self.op!r}")
        if len(self.items) < 2:
            raise ValueError("operator chain needs at least two operands")


@frozen
class BCard(BoolExpr):
    """Between ``at_least`` and ``at_most`` of the named features are true."""

    names: tuple[str, ...]
    at_least: int
    at_most: int


def bnot(e: BoolExpr) -> BoolExpr:
    if e.__class__ is bool:
        return not e
    if e.__class__ is BNot:
        return e.child
    return BNot(e)


def band(items) -> BoolExpr:
    return _junction("&&", items, False)


def bor(items) -> BoolExpr:
    return _junction("||", items, True)


def _junction(op: str, items, absorbing: bool) -> BoolExpr:
    """``&&``/``||`` of ``items``, folding constants; unit constants drop."""
    flat: list[BoolExpr] = []
    for e in items:
        if e.__class__ is bool:
            if e is absorbing:
                return e
            continue
        flat.append(e)
    if not flat:
        return not absorbing
    if len(flat) == 1:
        return flat[0]
    return BInfix(op, tuple(flat))


def implies(a: BoolExpr, b: BoolExpr) -> BoolExpr:
    if a.__class__ is bool:
        return b if a else True
    if b.__class__ is bool:
        return True if b else bnot(a)
    return _extend("implies", a, b)


def eqv(a: BoolExpr, b: BoolExpr) -> BoolExpr:
    if a.__class__ is bool:
        return b if a else bnot(b)
    if b.__class__ is bool:
        return a if b else bnot(a)
    return _extend("eqv", a, b)


def _extend(op: str, left: BoolExpr, right: BoolExpr) -> BInfix:
    """``left op right``, extending ``left`` when it is a chain of ``op``."""
    if left.__class__ is BInfix and left.op == op:
        return BInfix(op, left.items + (right,))
    return BInfix(op, (left, right))


class PropConfig(Assignment):
    """Immutable bit per feature; the synthetic root is fixed at 1."""

    __slots__ = ()
    _ROOT = 1
    _ROOT_TEXT = "1"

    @staticmethod
    def _entry(name: str, bit) -> int:
        if bit not in (0, 1):
            raise ValueError(f"bit of {name!r} must be 0 or 1")
        return int(bit)


def project(c: Configuration, m: Model) -> PropConfig:
    """Collapse a full configuration to bits, by flavor.

    bool/none features keep their enabled state; booldata/data features
    are true when enabled with nonzero data.  Features not in the model
    project to 0.
    """
    bits: dict[str, int] = {}
    for name in c.domain:
        node = m.get(name)
        if node is None:
            bits[name] = 0
        elif node.flavor in ("bool", "none"):
            bits[name] = c.state(name)
        else:
            bits[name] = c.state(name) & to_bool(c.data(name))
    return PropConfig(bits)


def eval_p(e: BoolExpr, cp: PropConfig) -> int:
    """Ordinary Boolean evaluation, plus counting for cardinality nodes."""
    return _eval_masks(e, cp._map, 1)


def _eval_masks(e: BoolExpr, masks, full: int) -> int:
    """Mask of the valuations satisfying ``e``; bit ``k`` of ``masks[name]``
    is the feature's value in valuation ``k``.  ``&&``/``||`` stop where
    ``all``/``any`` would on one valuation; ``implies``/``eqv`` read all."""
    cls = e.__class__
    if cls is str:
        return _mask(e, masks)
    if cls is bool:
        return full if e else 0
    if cls is BNot:
        return full ^ _eval_masks(e.child, masks, full)
    if cls is BInfix:
        op, items = e.op, iter(e.items)
        acc = _eval_masks(next(items), masks, full)
        stop = 0 if op == "&&" else full if op == "||" else None
        for x in items:
            if acc == stop:
                break
            b = _eval_masks(x, masks, full)
            if op == "&&":
                acc &= b
            elif op == "||":
                acc |= b
            else:
                acc = (full ^ acc) | b if op == "implies" else full ^ acc ^ b
        return acc
    if cls is BCard:
        # counts[j]: exactly j of the names so far are true; more drop out
        counts = [full] + [0] * min(e.at_most, len(e.names))
        for name in e.names:
            x = _mask(name, masks)
            for j in range(len(counts) - 1, 0, -1):
                counts[j] = (counts[j] & (full ^ x)) | (counts[j - 1] & x)
            counts[0] &= full ^ x
        return functools.reduce(or_, counts[max(e.at_least, 0):e.at_most + 1], 0)
    raise TypeError(f"not a Boolean expression: {e!r}")


def _mask(name: str, masks) -> int:
    try:
        return masks[name]
    except KeyError:
        raise EvalError("unknown-id", f"unknown feature {name!r}") from None


def choose(ids, at_least: int, at_most: int) -> BoolExpr:
    """Between ``at_least`` and ``at_most`` of ``ids`` true simultaneously.

    A lower bound beyond the set size makes the formula false; that case
    is legal because cardinality rewrites ask for it directly.
    """
    if at_least < 0:
        raise ValueError("at_least must not be negative")
    names = tuple(sorted(ids))
    if at_least > len(names):
        return False
    if at_most < at_least:
        raise ValueError("need at_least <= at_most")
    at_most = min(at_most, len(names))
    if at_least == 0 and at_most == len(names):
        return True
    return BCard(names, at_least, at_most)


# ---------------------------------------------------------------------------
# goal expression rewriting

_FLIP = {"==": "==", "!=": "!=", "<": ">", ">": "<", "<=": ">=", ">=": "<="}


def rewrite(e: GoalExpr, m: Model) -> BoolExpr | None:
    """Partial translation into the Boolean fragment; None when undefined.

    Every node is built by ``band``, ``bor``, ``bnot``, ``implies``,
    ``eqv`` or ``choose``, so constants fold as the result is built: it is
    a constant, or it has no constant anywhere below its top.
    """
    if isinstance(e, Ident):
        return e.name if e.name in m else False
    if isinstance(e, Const):
        return to_bool(e.value) == 1
    if isinstance(e, Not):
        # only negated identifiers are in the Boolean grammar; negating an
        # approximated subtree would be unsound
        if isinstance(e.child, Ident):
            return bnot(rewrite(e.child, m))
        return None
    if isinstance(e, Infix):
        if e.op in _FLIP:
            return _rewrite_cmp(e, m)
        if e.op not in ("&&", "||", "implies", "eqv"):
            return None  # xor and arithmetic
        items = []
        for x in e.items:
            r = rewrite(x, m)
            if r is None:
                return None
            items.append(r)
        if e.op == "&&":
            return band(items)
        if e.op == "||":
            return bor(items)
        return functools.reduce(implies if e.op == "implies" else eqv, items)
    if isinstance(e, Cond):
        guard = rewrite(e.guard, m)
        then = rewrite(e.then, m)
        other = rewrite(e.other, m)
        if guard is None or then is None or other is None:
            return None
        return band([implies(guard, then), implies(bnot(guard), other)])
    if isinstance(e, Call):
        if (
            e.func == "is_substr"
            and isinstance(e.args[0], Ident)
            and isinstance(e.args[1], Const)
        ):
            return rewrite(e.args[0], m)
    return None


def _rewrite_cmp(e: Infix, m: Model) -> BoolExpr | None:
    if len(e.items) != 2:
        return None  # a chain compares a 0/1 result, not a feature
    op, (lhs, rhs) = e.op, e.items
    if isinstance(lhs, Const) and isinstance(rhs, Ident):
        op, lhs, rhs = _FLIP[op], rhs, lhs
    if not (isinstance(lhs, Ident) and isinstance(rhs, Const)):
        return None
    name, const = lhs.name, rhs.value
    try:
        value = parse_number(const)
    except EvalError:
        return None  # too many digits to compare; the full semantics fails it
    node = m.get(name)
    if node is not None and node.kind == "interface":
        result = _rewrite_interface_cmp(name, op, value, m)
        if result is not None:
            return result
    if op == "==":
        if to_bool(const) != 0:
            return rewrite(lhs, m)
        return bnot(rewrite(lhs, m))
    if op == "!=":
        if value == 0:
            return rewrite(lhs, m)  # negation of the == 0 case
        return None
    if op == ">":
        if isinstance(value, int) and value >= 0:
            return rewrite(lhs, m)
        return True  # nothing useful to say; drop the constraint
    return None


def _rewrite_interface_cmp(name: str, op: str, value, m: Model) -> BoolExpr | None:
    ids = m.implementers(name)
    any_impl = bor(sorted(ids))
    if op == "==" and value == 0:
        return band([bnot(name), *[bnot(i) for i in sorted(ids)]])
    if op == "==" and value == 1:
        return band([name, choose(ids, 1, 1)])
    if op == "!=" and value == 0:
        return band([name, any_impl])
    if op == ">" and isinstance(value, int):
        if value == 0:
            return band([name, any_impl])
        if value > 0:
            return band([name, choose(ids, value + 1, len(ids))])
        return None  # negative bound: fall back to the generic rule
    if op == ">=" and isinstance(value, int) and value >= 0:
        return band([name, choose(ids, value, len(ids))])
    return None


# ---------------------------------------------------------------------------
# whole-model translation


@frozen
class Constraint:
    node: str
    family: str  # node|flavor|calculated|interface|unloaded
    expr: BoolExpr


@frozen
class PropFormula:
    constraints: tuple[Constraint, ...]
    variables: tuple[str, ...]  # lexicographic feature order

    def var_table(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.variables, 1)}


@functools.lru_cache(maxsize=128)
def build_formula(m: Model) -> PropFormula:
    """Conjunction of per-node Boolean constraints plus unloaded locks."""
    violations = check_well_formed(m)
    if violations:
        raise FormulaError(
            "wf",
            "model is not well-formed: "
            + "; ".join(f"({v.rule}) {v.node}: {v.message}" for v in violations),
        )
    constraints: list[Constraint] = []
    for n in m:  # sorted by name
        parent = True if n.parent == TOP else n.parent
        goals = m.sorted_constraints(n.name)  # most nodes have none
        rewritten = (rewrite(e, m) for e in goals) if goals else ()
        ctc = [r for r in rewritten if r is not None]
        context = band([parent, *ctc]) if ctc else parent
        me = n.name
        constraints.append(Constraint(n.name, "node", implies(me, context)))
        if n.flavor in ("none", "data") and n.kind != "interface":
            constraints.append(Constraint(n.name, "flavor", implies(context, me)))
        if n.calculated is not None:
            target = rewrite(n.calculated, m)
            if target is not None:
                constraints.append(
                    Constraint(
                        n.name, "calculated", implies(context, eqv(me, target))
                    )
                )
        if n.kind == "interface":
            any_impl = bor(sorted(m.implementers(n.name)))
            constraints.append(
                Constraint(
                    n.name, "interface", implies(context, eqv(me, any_impl))
                )
            )
    for x in sorted(m.unloaded_ids()):
        constraints.append(Constraint(x, "unloaded", BNot(x)))
    return PropFormula(tuple(constraints), tuple(sorted(m.universe())))


def validate_prop(m: Model, cp: PropConfig) -> ValidationReport:
    """Check a Boolean configuration against the translated model."""
    domain = cp.domain  # a new frozenset on every read
    check_total(m.universe(), domain)
    failures: list[Failure] = []
    for x in sorted(domain - m.ids()):
        if cp[x] == 1:
            failures.append(
                Failure(x, "unloaded", "feature is not in the model but set")
            )
    formula = build_formula(m)
    for con in formula.constraints:
        if con.family == "unloaded":
            continue  # covered by the domain scan above
        if not eval_p(con.expr, cp):
            failures.append(
                Failure(
                    con.node,
                    con.family,
                    f"constraint {bool_to_source(con.expr)} violated",
                )
            )
    return ValidationReport(tuple(failures))


def enumerate_prop_configs(
    m: Model, budget: int = DEFAULT_BUDGET
) -> list[PropConfig]:
    """All Boolean configurations the translated model accepts."""
    ids = sorted(m.universe())
    if 2 ** len(ids) > budget:
        raise OracleError(
            "too-large",
            f"2^{len(ids)} valuations exceed budget of {budget}",
        )
    formula = build_formula(m)
    # valuation k sets variable i to bit n-1-i of k: itertools.product order
    n, width = len(ids), 2 ** len(ids)
    full = (1 << width) - 1
    masks = {}
    for i, name in enumerate(ids):
        run = 1 << (n - 1 - i)  # the variable is 1 on alternate runs of k
        masks[name] = full // ((1 << 2 * run) - 1) * (((1 << run) - 1) << run)
    acc = full
    for con in formula.constraints:
        acc &= _eval_masks(con.expr, masks, full)
        if not acc:
            break
    # binary text has no digit limit; reversed, character k is valuation k
    bits = format(acc, f"0{width}b")[::-1]
    return [  # well formed by construction
        PropConfig.wrap(dict(zip(ids, map(int, format(k, f"0{n}b")))))
        for k, bit in enumerate(bits)
        if bit == "1"
    ]


# ---------------------------------------------------------------------------
# rendering and files


def bool_to_source(e: BoolExpr, parent_prec: int = 0) -> str:
    cls = e.__class__
    if cls is str:
        return e
    if cls is bool:
        return "1" if e else "0"
    if cls is BNot:
        return "!" + bool_to_source(e.child, 5)
    if cls is BInfix:
        prec = _BOOL_PREC[e.op]
        # implies/eqv chains are flat, but a nested &&/|| chain keeps its
        # parens in either operand position
        first = prec if prec == 1 else prec + 1
        text = f" {e.op} ".join(
            [bool_to_source(e.items[0], first)]
            + [bool_to_source(x, prec + 1) for x in e.items[1:]]
        )
        return f"({text})" if prec < parent_prec else text
    if cls is BCard:
        return (
            f"choose({e.at_least}..{e.at_most}: " + ", ".join(e.names) + ")"
        )
    raise TypeError(f"not a Boolean expression: {e!r}")


def formula_to_text(f: PropFormula) -> str:
    lines = [
        f"[{con.family}:{con.node}] {bool_to_source(con.expr)}"
        for con in f.constraints
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def dump_prop_config(cp: PropConfig) -> str:
    lines = [f"{name}\t{bit}" for name, bit in cp.items()]
    return "\n".join(lines) + ("\n" if lines else "")


def load_prop_config(
    text: str, universe=None, strict: bool = False
) -> tuple[PropConfig, list[str]]:
    """Parse the two-column TSV; missing universe ids default to 0."""
    entries, warnings = read_tsv(text, _bit_row, ("0",), universe, strict)
    # read_tsv has checked every row: no duplicate, no root entry
    return PropConfig.wrap(entries), warnings


def _bit_row(lineno: int, fields: list[str]) -> int:
    bit = fields[1]
    if bit not in ("0", "1"):
        raise ValueError(f"line {lineno}: bit must be 0 or 1")
    return int(bit)
