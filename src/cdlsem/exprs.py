"""Expression trees for constraint goals and legal-value lists.

Goal expressions are the constraint language used by ``requires``,
``active_if`` and ``calculated`` properties; list expressions enumerate
values and ranges for ``legal_values``.  Trees are immutable and hashable
so they can live in frozensets on nodes.

Every binary operator, Boolean, comparison or arithmetic, is one flat
n-ary ``Infix`` node: a run of one operator is a tuple of operands, not a
nested tree, so walkers loop over it instead of recursing per operator.
"""

from __future__ import annotations

import re
from dataclasses import MISSING, dataclass, field, fields


# builtin name -> required argument count
BUILTINS = {
    "get_data": 1,
    "is_active": 1,
    "is_enabled": 1,
    "is_loaded": 1,
    "is_substr": 2,
    "is_xsubstr": 2,
    "version_cmp": 2,
}


def frozen(cls):
    """``@dataclass(frozen=True, slots=True)`` with a cheaper ``__init__``.

    The dataclass's ``__init__`` stores each field with
    ``object.__setattr__``; this one stores it through the field's slot
    descriptor and then calls ``__post_init__``, if the class has one.
    Equality, hashing, ``repr``, ``__match_args__``, field defaults and
    ``dataclasses.replace`` stay the dataclass's.
    """
    cls = dataclass(frozen=True, slots=True)(cls)
    env, params, body = {}, [], []
    for f in fields(cls):
        if f.default_factory is not MISSING:
            raise TypeError(f"{cls.__name__}.{f.name}: default_factory is not supported")
        env[f"_set_{f.name}"] = getattr(cls, f.name).__set__
        env[f"_default_{f.name}"] = f.default
        params.append(f.name if f.default is MISSING else f"{f.name}=_default_{f.name}")
        body.append(f"_set_{f.name}(self, {f.name})")
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    # generated source, as dataclasses itself does: one plain call per field
    exec(f"def __init__(self, {', '.join(params)}):\n    " + "\n    ".join(body), env)
    env["__init__"].__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__ = env["__init__"]
    return cls


class GoalExpr:
    """Marker base class for goal expression nodes."""

    __slots__ = ()


@frozen
class Ident(GoalExpr):
    name: str


@frozen
class Const(GoalExpr):
    """A literal value; numbers and strings alike are kept as text."""

    value: str


@frozen
class Not(GoalExpr):
    child: GoalExpr


@frozen
class BitNot(GoalExpr):
    child: GoalExpr


@frozen
class Infix(GoalExpr):
    """Left-associative chain ``items[0] op items[1] op ...`` of one operator.

    Every binary operator of the grammar (Boolean, comparison and
    arithmetic) takes this one shape.  A chain is flat: build it with
    ``infix`` so that a left operand with the same operator is extended
    rather than nested.
    """

    op: str
    items: tuple[GoalExpr, ...]

    def __post_init__(self):
        if self.op not in PRECEDENCE:
            raise ValueError(f"bad binary operator {self.op!r}")
        if len(self.items) < 2:
            raise ValueError("operator chain needs at least two operands")


def infix(op: str, left: GoalExpr, right: GoalExpr) -> Infix:
    """``left op right``, extending ``left`` when it is a chain of ``op``."""
    if isinstance(left, Infix) and left.op == op:
        return Infix(op, left.items + (right,))
    return Infix(op, (left, right))


@frozen
class Call(GoalExpr):
    func: str
    args: tuple[GoalExpr, ...]

    def __post_init__(self):
        if self.func not in BUILTINS:
            raise ValueError(f"unknown builtin {self.func!r}")
        if len(self.args) != BUILTINS[self.func]:
            raise ValueError(
                f"{self.func} takes {BUILTINS[self.func]} argument(s), "
                f"got {len(self.args)}"
            )


@frozen
class Cond(GoalExpr):
    """Ternary conditional ``guard ? then : other``."""

    guard: GoalExpr
    then: GoalExpr
    other: GoalExpr


@frozen
class Single:
    """A plain list item: matches values equal to the expression."""

    expr: GoalExpr


@frozen
class Range:
    """A ``low to high`` list item, inclusive on both ends."""

    low: GoalExpr
    high: GoalExpr


@frozen
class ListExpr:
    items: tuple = field(default=())

    def __post_init__(self):
        if not self.items:
            raise ValueError("list expression needs at least one item")
        for it in self.items:
            if not isinstance(it, (Single, Range)):
                raise ValueError(f"bad list item {it!r}")


# Binding strength per operator, used both by the parser and by the
# printer to emit minimal parentheses.  Higher binds tighter.
_TERNARY_PREC = 1
_IMPL_PREC = 2
PRECEDENCE = {
    "implies": _IMPL_PREC,
    "eqv": _IMPL_PREC,
    "||": 3,
    "&&": 4,
    "xor": 5,
    "|": 6,
    "^": 7,
    "&": 8,
    "==": 9,
    "!=": 9,
    "<": 10,
    ">": 10,
    "<=": 10,
    ">=": 10,
    "<<": 11,
    ">>": 11,
    "+": 12,
    "-": 12,
    "*": 13,
    "/": 13,
    "%": 13,
}
_UNARY_PREC = 14

# The number grammar of the tokenizer, the printer and value coercion: hex
# integers, then digits with an optional fraction and exponent, then a
# fraction alone.  The tokenizer tries the alternatives in this order, so
# "1.5" is one token, not "1" and ".5".
_HEX = r"0[xX][0-9a-fA-F]+"
_NUMBER = _HEX + r"|[0-9]+\.?[0-9]*(?:[eE][+-]?[0-9]+)?|\.[0-9]+(?:[eE][+-]?[0-9]+)?"
# signed: a whole value that is a number, and one that is an integer
_NUMBER_RX = re.compile(r"[+-]?(?:" + _NUMBER + ")")
_INT_RX = re.compile(r"[+-]?(?:" + _HEX + r"|[0-9]+)")

_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\t": "\\t"}


def quote_string(value: str) -> str:
    """Render a constant as a quoted literal with escapes."""
    out = ["\""]
    for ch in value:
        out.append(_ESCAPES.get(ch, ch))
    out.append("\"")
    return "".join(out)


def _const_source(value: str) -> str:
    # a leading '+' would not survive re-parsing verbatim, so quote it
    if _NUMBER_RX.fullmatch(value) and not value.startswith("+"):
        return value
    return quote_string(value)


def to_source(e: GoalExpr, parent_prec: int = 0) -> str:
    """Pretty-print a goal expression; re-parsing yields an equal tree."""
    if isinstance(e, Ident):
        return e.name
    if isinstance(e, Const):
        return _const_source(e.value)
    if isinstance(e, Not):
        return "!" + to_source(e.child, _UNARY_PREC)
    if isinstance(e, BitNot):
        return "~" + to_source(e.child, _UNARY_PREC)
    if isinstance(e, Infix):
        prec = PRECEDENCE[e.op]
        # left associative: later operands need parens at equal precedence
        text = to_source(e.items[0], prec)
        for x in e.items[1:]:
            text += f" {e.op} {to_source(x, prec + 1)}"
        return f"({text})" if prec < parent_prec else text
    if isinstance(e, Call):
        args = ", ".join(to_source(a) for a in e.args)
        return f"{e.func}({args})"
    if isinstance(e, Cond):
        text = (
            f"{to_source(e.guard, _TERNARY_PREC + 1)} ? "
            f"{to_source(e.then, _TERNARY_PREC + 1)} : "
            f"{to_source(e.other, _TERNARY_PREC)}"
        )
        return f"({text})" if _TERNARY_PREC < parent_prec else text
    raise TypeError(f"not a goal expression: {e!r}")


def list_to_source(l: ListExpr) -> str:
    parts = []
    for it in l.items:
        if isinstance(it, Single):
            parts.append(_item_source(it.expr))
        else:
            parts.append(f"{_item_source(it.low)} to {_item_source(it.high)}")
    return " ".join(parts)


def _item_source(e: GoalExpr) -> str:
    # items are whitespace separated, so anything with top-level operators
    # must be wrapped in parens to stay a single item
    text = to_source(e)
    if isinstance(e, (Ident, Const, Call, Not, BitNot)):
        return text
    return f"({text})"


def collect_ids(e: GoalExpr | ListExpr, acc: set[str]) -> None:
    """Add every feature name that ``e``, a goal or a list expression,
    mentions to ``acc``, call arguments included."""
    if isinstance(e, Ident):
        acc.add(e.name)
    elif isinstance(e, (Not, BitNot)):
        collect_ids(e.child, acc)
    elif isinstance(e, Infix):
        for x in e.items:
            collect_ids(x, acc)
    elif isinstance(e, Call):
        for a in e.args:
            collect_ids(a, acc)
    elif isinstance(e, Cond):
        collect_ids(e.guard, acc)
        collect_ids(e.then, acc)
        collect_ids(e.other, acc)
    elif isinstance(e, ListExpr):
        for it in e.items:
            if isinstance(it, Single):
                collect_ids(it.expr, acc)
            else:
                collect_ids(it.low, acc)
                collect_ids(it.high, acc)
