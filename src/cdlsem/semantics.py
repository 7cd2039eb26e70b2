"""Configuration semantics: evaluation, per-node checks, validation.

A configuration assigns every feature a triple (enabled state, enabled
value, data value).  A model accepts a configuration when every node's
hierarchy/constraint equivalence, flavor rule, calculated rule,
legal_values rule and interface rule hold, and every referenced but
undeclared feature is off.

Arithmetic and comparisons follow Tcl's ``expr``: values are untyped
strings, coerced to integers (decimal or 0x hex) or floats on demand;
comparisons fall back to code-point order when either side is not a
number.
"""

from __future__ import annotations

import itertools

from .errors import EvalError, OracleError, ValidationError
from .exprs import (
    BitNot,
    Call,
    Cond,
    Const,
    GoalExpr,
    Ident,
    Infix,
    ListExpr,
    Not,
    Single,
    _INT_RX,
    _NUMBER_RX,
    frozen,
    to_source,
)
from .model import TOP, Model, Node

DEFAULT_BUDGET = 2_000_000

_MAX_SHIFT = 1 << 16  # guard against absurd shift widths
# Decimal integers are capped at the digit count where Python 3.11 starts
# refusing int/str conversion, so evaluation is the same on interpreters
# with and without that limit.
_MAX_DIGITS = 4300
_INT_BOUND = 10**_MAX_DIGITS


def parse_number(v: str):
    """Number denoted by the string, or None.

    Integers win over floats; hex needs an 0x prefix; leading zeros are
    decimal.  A decimal integer of more than ``_MAX_DIGITS`` digits raises
    ``EvalError``.
    """
    if _INT_RX.fullmatch(v):
        if "x" in v or "X" in v:
            return int(v, 16)
        if len(v.lstrip("+-")) > _MAX_DIGITS:
            raise EvalError(
                "too-large", f"integer of more than {_MAX_DIGITS} digits"
            )
        return int(v, 10)
    if _NUMBER_RX.fullmatch(v):
        return float(v)
    return None


def _int_text(n: int) -> str:
    """Decimal text of an integer result, within ``_MAX_DIGITS`` digits."""
    if -_INT_BOUND < n < _INT_BOUND:
        return str(n)
    raise EvalError(
        "too-large", f"integer result of more than {_MAX_DIGITS} digits"
    )


def _float(n) -> float:
    try:
        return float(n)
    except OverflowError:
        raise EvalError("too-large", "integer too large for a float") from None


def to_bool(v: str) -> int:
    """Truthiness cast: empty and numeric zero are false, all else true."""
    if v == "":
        return 0
    if _INT_RX.fullmatch(v):
        # zero when every digit is; no conversion, so no size limit
        return 1 if v.lstrip("+-").lstrip("0xX") else 0
    return 0 if _NUMBER_RX.fullmatch(v) and float(v) == 0 else 1


def compare_values(a: str, b: str) -> int:
    """Three-way comparison: numeric when both sides parse, else textual."""
    if a == b and len(a) <= _MAX_DIGITS:  # equal, and not too large to parse
        return 0
    na, nb = parse_number(a), parse_number(b)
    if na is not None and nb is not None:
        return -1 if na < nb else (0 if na == nb else 1)
    return -1 if a < b else (0 if a == b else 1)


class Assignment:
    """Immutable map from feature ids to entries, the synthetic root pinned.

    ``Configuration`` and ``prop.PropConfig`` differ only in their entries:
    each subclass checks one entry in ``_entry`` and names the root's entry
    in ``_ROOT``.  An assignment never equals one of another class.
    """

    __slots__ = ("_map", "_hash")
    _ROOT: object
    _ROOT_TEXT: str

    def __init__(self, assignment=()):
        d = {}
        items = assignment.items() if hasattr(assignment, "items") else assignment
        for name, entry in items:
            entry = self._entry(name, entry)
            if name == TOP:
                if entry != self._ROOT:
                    raise ValueError(f"the root is fixed at {self._ROOT_TEXT}")
                continue
            if name in d:
                raise ValueError(f"duplicate entry for {name!r}")
            d[name] = entry
        d[TOP] = self._ROOT
        self._map = d
        self._hash = None  # computed lazily; enumeration makes many of these

    @classmethod
    def _wrap(cls, d: dict):
        """An assignment over ``d`` itself, unchecked: for callers whose
        entries are well formed by construction and hold no root entry."""
        self = object.__new__(cls)
        d[TOP] = cls._ROOT
        self._map = d
        self._hash = None
        return self

    @property
    def domain(self) -> frozenset[str]:
        """Assigned feature ids; the root is implicit and excluded."""
        return frozenset(self._map).difference((TOP,))

    def __contains__(self, name: str) -> bool:
        return name in self._map

    def __getitem__(self, name: str):
        return self._map[name]

    def items(self):
        """(name, entry) pairs sorted by name, root excluded."""
        return sorted((k, v) for k, v in self._map.items() if k != TOP)

    def __eq__(self, other):
        return type(other) is type(self) and self._map == other._map

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self._map.items()))
        return self._hash

    def __repr__(self):
        inner = ", ".join(f"{k}={v}" for k, v in self.items())
        return f"{type(self).__name__}({inner})"


class Configuration(Assignment):
    """Immutable assignment of (state, value, data) triples to features.

    The synthetic root always maps to (1, 1, "1").
    """

    __slots__ = ()
    _ROOT = (1, 1, "1")
    _ROOT_TEXT = '(1, 1, "1")'

    @staticmethod
    def _entry(name: str, triple) -> tuple[int, int, str]:
        s, v, data = triple
        if s not in (0, 1) or v not in (0, 1):
            raise ValueError(f"bits must be 0/1 for {name!r}")
        if not isinstance(data, str):
            raise ValueError(f"data value of {name!r} must be a string")
        return (int(s), int(v), data)

    def state(self, name: str) -> int:
        return self._map[name][0]

    def value(self, name: str) -> int:
        return self._map[name][1]

    def data(self, name: str) -> str:
        return self._map[name][2]


def access(x: str, c: Configuration) -> str:
    """A feature's value as seen by expressions: "0" while disabled."""
    if x not in c:
        raise EvalError("unknown-id", f"unknown feature {x!r}")
    return "0" if c.state(x) == 0 else c.data(x)


# Boolean operator -> result for (left, right) truth values, indexed 2*l + r
_TRUTH = {
    "||": (0, 1, 1, 1),
    "&&": (0, 0, 0, 1),
    "xor": (0, 1, 1, 0),
    "implies": (1, 1, 0, 1),
    "eqv": (1, 0, 0, 1),
}
# comparison operator -> compare_values results for which it holds
_CMP_HOLDS = {
    "==": (0,),
    "!=": (-1, 1),
    "<": (-1,),
    ">": (1,),
    "<=": (-1, 0),
    ">=": (0, 1),
}


def eval_expr(e: GoalExpr, c: Configuration, m: Model) -> str:
    """Evaluate a goal expression to its string value."""
    if isinstance(e, Ident):
        return access(e.name, c)
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Not):
        return "0" if to_bool(eval_expr(e.child, c, m)) else "1"
    if isinstance(e, BitNot):
        n = parse_number(eval_expr(e.child, c, m))
        if not isinstance(n, int):
            raise EvalError("not-numeric", "~ needs an integer operand")
        return _int_text(~n)
    if isinstance(e, Infix):
        # fold left over every operand, so each one's errors surface in the
        # order a left-nested tree would raise them
        op = e.op
        operands = iter(e.items)
        acc = eval_expr(next(operands), c, m)
        truth = _TRUTH.get(op)
        if truth is not None:
            r = to_bool(acc)
            for x in operands:
                r = truth[2 * r + to_bool(eval_expr(x, c, m))]
            return "1" if r else "0"
        holds = _CMP_HOLDS.get(op)
        if holds is not None:
            for x in operands:
                r = compare_values(acc, eval_expr(x, c, m))
                acc = "1" if r in holds else "0"
            return acc
        for x in operands:
            acc = _arith(op, acc, eval_expr(x, c, m))
        return acc
    if isinstance(e, Cond):
        if to_bool(eval_expr(e.guard, c, m)):
            return eval_expr(e.then, c, m)
        return eval_expr(e.other, c, m)
    if isinstance(e, Call):
        return _call(e, c, m)
    raise TypeError(f"not a goal expression: {e!r}")


def _call(e: Call, c: Configuration, m: Model) -> str:
    func, args = e.func, e.args
    if len(args) == 1:
        # get_data, is_active, is_enabled and is_loaded name a feature: an
        # identifier or a constant by its text, any other expression by its
        # value
        x = args[0]
        if isinstance(x, Ident):
            name = x.name
        elif isinstance(x, Const):
            name = x.value
        else:
            name = eval_expr(x, c, m)
        if func == "is_loaded":
            return "1" if name in m else "0"
        if name not in c:
            raise EvalError("unknown-id", f"unknown feature {name!r}")
        if func == "get_data":
            return c.data(name)  # deliberately ignores the enabled state
        return str(c.state(name) if func == "is_active" else c.value(name))
    a = eval_expr(args[0], c, m)
    b = eval_expr(args[1], c, m)
    if func == "is_substr":
        return "1" if b.lower() in a.lower() else "0"
    if func == "is_xsubstr":
        return "1" if b in a else "0"
    return _version_cmp(a, b)


def _version_cmp(a: str, b: str) -> str:
    """-1, 0 or 1 over dot-separated parts; a missing part counts as 0."""
    pa, pb = a.split("."), b.split(".")
    pa += ["0"] * (len(pb) - len(pa))
    pb += ["0"] * (len(pa) - len(pb))
    for xa, xb in zip(pa, pb):
        r = compare_values(xa, xb)
        if r != 0:
            return str(r)
    return "0"


def _arith(op: str, a: str, b: str) -> str:
    na, nb = parse_number(a), parse_number(b)
    if na is None or nb is None:
        raise EvalError("not-numeric", f"non-numeric operand to {op!r}")
    if op in ("%", "<<", ">>", "&", "|", "^"):
        if not (isinstance(na, int) and isinstance(nb, int)):
            raise EvalError("not-numeric", f"{op!r} needs integer operands")
        if op == "%":
            if nb == 0:
                raise EvalError("div-zero", "modulo by zero")
            return _int_text(na % nb)
        if op in ("<<", ">>"):
            if nb < 0 or nb > _MAX_SHIFT:
                raise EvalError("invalid-shift", f"bad shift width {nb}")
            return _int_text(na << nb if op == "<<" else na >> nb)
        if op == "&":
            return _int_text(na & nb)
        if op == "|":
            return _int_text(na | nb)
        return _int_text(na ^ nb)
    if op == "/":
        if isinstance(na, int) and isinstance(nb, int):
            if nb == 0:
                raise EvalError("div-zero", "division by zero")
            return _int_text(na // nb)
        if _float(nb) == 0.0:
            raise EvalError("div-zero", "division by zero")
        return repr(_float(na) / _float(nb))
    if isinstance(na, int) and isinstance(nb, int):
        r = {"+": na + nb, "-": na - nb, "*": na * nb}[op]
        return _int_text(r)
    fa, fb = _float(na), _float(nb)
    r = {"+": fa + fb, "-": fa - fb, "*": fa * fb}[op]
    return repr(r)


def satisfies_legal(d: str, c: Configuration, l: ListExpr, m: Model) -> int:
    """Whether a data value matches a legal_values enumeration."""
    for item in l.items:
        if isinstance(item, Single):
            if compare_values(d, eval_expr(item.expr, c, m)) == 0:
                return 1
        else:
            # both bounds are evaluated, low first, before either is compared
            low = eval_expr(item.low, c, m)
            high = eval_expr(item.high, c, m)
            if compare_values(low, d) <= 0 and compare_values(d, high) <= 0:
                return 1
    return 0


# ---------------------------------------------------------------------------
# per-node checks


def _ctc_failures(n: Node, c: Configuration, m: Model):
    """(constraint, reason) of each cross-tree constraint of ``n`` that does
    not hold, lazily and in the model's constraint order."""
    for e in m.sorted_constraints(n.name):
        try:
            if to_bool(eval_expr(e, c, m)):
                continue
            reason = "is false"
        except EvalError as err:
            reason = f"failed: {err.message}"
        yield e, reason


def flavor_holds(n: Node, c: Configuration) -> int:
    """none/data features always have their enabled value set."""
    if n.flavor in ("none", "data"):
        return c.value(n.name)
    return 1


def calculated_holds(n: Node, c: Configuration, m: Model) -> int:
    """The calculated expression pins value and/or data, by flavor."""
    try:
        computed = eval_expr(n.calculated, c, m)
    except EvalError:
        return 0
    if n.flavor == "bool":
        return int(c.value(n.name) == to_bool(computed))
    if n.flavor == "booldata":
        return int(
            c.data(n.name) == computed
            and c.value(n.name) == to_bool(c.data(n.name))
        )
    return int(c.data(n.name) == computed)  # data flavor


def legal_values_holds(n: Node, c: Configuration, m: Model) -> int:
    """Data value must match the enumeration; no effect on flavor none."""
    if n.flavor == "none":
        return 1
    try:
        return satisfies_legal(c.data(n.name), c, n.legal_values, m)
    except EvalError:
        return 0


def impls(name: str, c: Configuration, m: Model) -> frozenset[Node]:
    """Enabled nodes that implement the given interface."""
    return frozenset(
        m.node(x) for x in m.implementers(name) if c.state(x) == 1
    )


def interface_holds(
    n: Node, c: Configuration, m: Model
) -> int:
    """Interface value mirrors the number of enabled implementors."""
    k = str(len(impls(n.name, c, m)))
    if n.flavor == "booldata":
        return int(
            c.data(n.name) == k and c.value(n.name) == to_bool(c.data(n.name))
        )
    if n.flavor == "data":
        return int(c.data(n.name) == k)
    if n.flavor == "bool":
        return int(c.value(n.name) == to_bool(k))
    return 1  # flavor none is ruled out by well-formedness


# ---------------------------------------------------------------------------
# whole-model validation


@frozen
class Failure:
    node: str
    family: str  # node|flavor|calculated|legal_values|interface|unloaded
    explanation: str


@frozen
class ValidationReport:
    failures: tuple[Failure, ...]

    @property
    def accepted(self) -> bool:
        return not self.failures

    @property
    def verdict(self) -> str:
        return "accepted" if self.accepted else "rejected"


def validate_configuration(m: Model, c: Configuration) -> ValidationReport:
    """Check a configuration against every denotation family of the model."""
    domain = c.domain  # a new frozenset on every read
    check_total(m.universe(), domain)
    return ValidationReport(tuple(
        Failure(name, family, _explain(name, family, c, m))
        for name, family in _failures(m, c, sorted(domain - m.ids()))
    ))


def check_total(universe, domain) -> None:
    """Raise ``incomplete`` unless ``domain`` assigns every feature of ``universe``."""
    missing = tuple(sorted(set(universe).difference(domain)))
    if missing:
        raise ValidationError(
            "incomplete", "configuration misses: " + ", ".join(missing), missing
        )


def _failures(m: Model, c: Configuration, unloaded=()):
    """(feature, family) of every failure of a total configuration, lazily
    and in report order, so an acceptance check stops at the first.

    ``unloaded`` lists, sorted, the features of ``c`` that are not in the
    model; enumeration pins them all to state 0 and passes none.
    """
    for x in unloaded:
        if c.state(x) == 1:
            yield x, "unloaded"
    for n in m:
        name = n.name
        # the guard short-circuits, so constraints are read only where
        # they decide the verdict
        guard = c.state(n.parent) and c.value(name)
        if c.state(name) != (
            guard and next(_ctc_failures(n, c, m), None) is None
        ):
            yield name, "node"
        if not flavor_holds(n, c):
            yield name, "flavor"
        if n.calculated is not None and not calculated_holds(n, c, m):
            yield name, "calculated"
        if n.legal_values is not None and not legal_values_holds(n, c, m):
            yield name, "legal_values"
        if n.kind == "interface" and not interface_holds(n, c, m):
            yield name, "interface"


def _explain(name: str, family: str, c: Configuration, m: Model) -> str:
    """Explanation of one failure that ``_failures`` found."""
    if family == "unloaded":
        return "feature is not in the model but enabled"
    n = m.node(name)
    if family == "node":
        reasons = [
            f"constraint {to_source(e)} {reason}"
            for e, reason in _ctc_failures(n, c, m)
        ]
        return "; ".join([
            f"enabled_state={c.state(name)} but parent_state="
            f"{c.state(n.parent)}, enabled_value={c.value(name)}, "
            f"constraints={'failing' if reasons else 'ok'}",
            *reasons,
        ])
    if family == "flavor":
        return f"flavor {n.flavor} requires enabled_value=1"
    if family == "calculated":
        return f"value must follow calculated {to_source(n.calculated)}"
    if family == "legal_values":
        return f"data value {c.data(name)!r} is not among the legal values"
    k = len(impls(name, c, m))
    return f"interface valuation must mirror its {k} enabled implementor(s)"


def enumerate_configurations(
    m: Model, data_domain, budget: int = DEFAULT_BUDGET
) -> list[Configuration]:
    """All accepted configurations over a finite data domain, brute force.

    Candidate data values for declared features come from ``data_domain``;
    undeclared (referenced-only) features are pinned to data "0" since
    their data can never matter.  Every candidate that could be accepted
    is checked, in a deterministic order; ``budget`` bounds the whole space.
    """
    domain = tuple(dict.fromkeys(data_domain))
    if not domain:
        raise ValueError("data domain must not be empty")
    ids = sorted(m.universe())
    total = 1
    choices = []
    for x in ids:
        node = m.get(x)
        total *= 4 * len(domain) if node is not None else 4
        if total > budget:
            raise OracleError(
                "too-large",
                f"candidate space exceeds budget of {budget} configurations",
            )
        # drop triples that fail every candidate by this feature alone: enabled
        # unloaded, none/data value 0 (flavor_holds), state 1 with value 0 (node)
        if node is None:
            choices.append(((0, 0, "0"), (0, 1, "0")))
            continue
        values = (1,) if node.flavor in ("none", "data") else (0, 1)
        choices.append(
            tuple((s, v, d) for s in (0, 1) for v in values if s <= v for d in domain)
        )
    accepted: list[Configuration] = []
    for combo in itertools.product(*choices):
        # well formed and total over the universe by construction
        c = Configuration._wrap(dict(zip(ids, combo)))
        if next(_failures(m, c), None) is None:
            accepted.append(c)
    return accepted


# ---------------------------------------------------------------------------
# configuration files


def dump_configuration(c: Configuration) -> str:
    """One feature per line: id, state, value, data; tab separated."""
    lines = []
    for name, (s, v, d) in c.items():
        # read_tsv splits at every line break str.splitlines knows, not only \n
        if "\t" in d or "".join(d.splitlines()) != d:
            raise ValueError(f"data value of {name!r} cannot be written as TSV")
        lines.append(f"{name}\t{s}\t{v}\t{d}")
    return "\n".join(lines) + ("\n" if lines else "")


def load_configuration(
    text: str, universe=None, strict: bool = False
) -> tuple[Configuration, list[str]]:
    """Parse the TSV format; returns the configuration plus warnings.

    Features of ``universe`` missing from the file default to (0, 0, "0")
    unless ``strict`` is set, in which case the load fails.
    """
    entries, warnings = read_tsv(text, _state_row, ("0", "0", "0"), universe, strict)
    # read_tsv has checked every row: no duplicate, no root entry
    return Configuration._wrap(entries), warnings


def _state_row(lineno: int, fields: list[str]) -> tuple[int, int, str]:
    _, s, v, d = fields
    if s not in ("0", "1") or v not in ("0", "1"):
        raise ValueError(f"line {lineno}: state and value must be 0 or 1")
    return (int(s), int(v), d)


def read_tsv(
    text: str, parse_row, default_row: tuple[str, ...], universe, strict: bool
) -> tuple[dict, list[str]]:
    """Entries of a configuration TSV by feature name, plus warnings.

    A row is a name and ``len(default_row)`` more fields, which
    ``parse_row(lineno, fields)`` checks and turns into the entry.
    Features of ``universe`` missing from the file get the entry of
    ``default_row`` unless ``strict`` is set.
    """
    width = 1 + len(default_row)
    entries: dict = {}
    warnings: list[str] = []
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != width:
            raise ValueError(f"line {lineno}: expected {width} tab-separated fields")
        name = fields[0].strip()
        if name == TOP:
            warnings.append(f"line {lineno}: the root entry is implicit; ignored")
            continue
        if name in entries:
            raise ValueError(f"line {lineno}: duplicate entry for {name!r}")
        entries[name] = parse_row(lineno, fields)
    if universe is not None:
        if strict:
            check_total(universe, entries)
        default = parse_row(0, ("", *default_row))
        shown = "\t".join(default_row)
        for name in sorted(set(universe).difference(entries)):
            entries[name] = default
            warnings.append(f"missing {name}: defaulted to {shown}")
    return entries, warnings
