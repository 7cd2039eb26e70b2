"""Feature nodes, models, normalization and well-formedness checking.

A model is a set of uniquely named nodes arranged in a tree under the
synthetic root ``TOP``.  Raw nodes come out of the parser (or are built
programmatically) and are turned into normalized, immutable nodes by
``normalize_model``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import NormalizationError
from .exprs import (
    GoalExpr,
    ListExpr,
    collect_ids,
    list_to_source,
    frozen,
    infix,
    to_source,
)

# Synthetic root of the node tree.  Not writable from source: feature
# identifiers are restricted to [A-Za-z0-9_].
TOP = "⊤"


def is_valid_feature_id(name: str) -> bool:
    """An ASCII identifier, ``[A-Za-z_][A-Za-z0-9_]*``; ``TOP`` is not one."""
    return name.isascii() and name.isidentifier()


# A node's kind and flavor are their CDL texts; the parser stores the text of
# this table, so nodes share one string per flavor, not a slice each.
FLAVORS = {f: f for f in ("none", "bool", "booldata", "data")}

# Nodes with no explicit flavor get one from their kind.
DEFAULT_FLAVOR = {
    "package": "booldata",
    "component": "bool",
    "option": "bool",
    "interface": "data",
}


@dataclass(slots=True)
class RawNode:
    """Pre-normalization node record as produced by the parser.

    ``requires``/``active_if`` hold one tuple per property occurrence; a
    tuple with several expressions is a whitespace enumeration that
    normalization turns into a disjunction.  ``parent`` is the enclosing
    node's name, or None for top-level nodes.
    """

    name: str
    kind: str
    parent: str | None = None
    flavor: str | None = None
    active_if: list[tuple[GoalExpr, ...]] = field(default_factory=list)
    requires: list[tuple[GoalExpr, ...]] = field(default_factory=list)
    calculated: tuple[GoalExpr, ...] | None = None
    legal_values: ListExpr | None = None
    implements: list[str] = field(default_factory=list)
    annotations: dict[str, list[str]] = field(default_factory=dict)


@frozen
class Node:
    name: str
    parent: str  # another node's name, or TOP
    flavor: str
    active_if: frozenset[GoalExpr]
    requires: frozenset[GoalExpr]
    calculated: GoalExpr | None
    legal_values: ListExpr | None
    kind: str
    implements: frozenset[str]

    def constraints(self) -> frozenset[GoalExpr]:
        """active_if and requires together (the cross-tree constraints)."""
        return self.active_if | self.requires


class Model:
    """Immutable set of nodes indexed by name, tree-shaped under TOP.

    Derived facts (the ids, the referenced ids, the universe, the
    interface implementers, each node's sorted constraints, the
    well-formedness violations and the hash) are computed on first use
    and kept, so asking for them per node or per interface costs a lookup.
    """

    __slots__ = (
        "_nodes", "_by_name", "_hash", "_ids", "_referenced", "_universe",
        "_implementers", "_sorted", "_violations",
    )

    def __init__(self, nodes):
        """Index the nodes; raises ``NormalizationError`` on a bad structure.

        Checks run in the caller's order: per node the name's validity and
        then its uniqueness, then every parent, then the parent cycle.
        """
        nodes = list(nodes)
        by_name: dict[str, Node] = {}
        for n in nodes:
            if not is_valid_feature_id(n.name):
                raise NormalizationError("invalid-name", f"bad feature name {n.name!r}")
            if n.name in by_name:
                raise NormalizationError("duplicate", f"duplicate node name {n.name!r}")
            by_name[n.name] = n
        parent_of = {}
        for n in nodes:
            if n.parent != TOP and n.parent not in by_name:
                raise NormalizationError(
                    "unresolved-parent",
                    f"node {n.name!r} has unknown parent {n.parent!r}",
                )
            parent_of[n.name] = n.parent
        cycle = _find_cycle(parent_of)
        if cycle is not None:
            raise NormalizationError("cycle", f"parent cycle through {cycle!r}")
        ordered = tuple(sorted(nodes, key=lambda n: n.name))
        self._nodes = ordered
        self._by_name = by_name
        self._hash: int | None = None
        self._ids: frozenset[str] | None = None
        self._referenced: frozenset[str] | None = None
        self._universe: frozenset[str] | None = None
        self._implementers: dict[str, frozenset[str]] | None = None
        self._sorted: dict[str, tuple[GoalExpr, ...]] | None = None
        self._violations: tuple[Violation, ...] | None = None

    def __iter__(self):
        return iter(self._nodes)

    def __len__(self):
        return len(self._nodes)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __eq__(self, other):
        return isinstance(other, Model) and self._nodes == other._nodes

    def __hash__(self):
        # the names in sorted order: equal models have equal names, and
        # hashing every expression tree would cost far more
        if self._hash is None:
            self._hash = hash(tuple([n.name for n in self._nodes]))
        return self._hash

    def node(self, name: str) -> Node:
        return self._by_name[name]

    def get(self, name: str) -> Node | None:
        return self._by_name.get(name)

    def ids(self) -> frozenset[str]:
        if self._ids is None:
            self._ids = frozenset(self._by_name)
        return self._ids

    def referenced_ids(self) -> frozenset[str]:
        """Every feature name mentioned by any expression in the model."""
        if self._referenced is None:
            acc: set[str] = set()
            for n in self._nodes:
                for e in n.active_if:
                    collect_ids(e, acc)
                for e in n.requires:
                    collect_ids(e, acc)
                if n.calculated is not None:
                    collect_ids(n.calculated, acc)
                if n.legal_values is not None:
                    collect_ids(n.legal_values, acc)
            self._referenced = frozenset(acc)
        return self._referenced

    def universe(self) -> frozenset[str]:
        """Declared ids plus referenced-but-unloaded ids (TOP excluded)."""
        if self._universe is None:
            self._universe = self.ids() | self.referenced_ids()
        return self._universe

    def unloaded_ids(self) -> frozenset[str]:
        return self.referenced_ids() - self.ids()

    def implementers(self, interface: str) -> frozenset[str]:
        """Names of the nodes that declare ``implements interface``.

        The name need not be a node of the model.  One pass over the nodes
        indexes every interface on the first call.
        """
        if self._implementers is None:
            index: dict[str, set[str]] = {}
            for n in self._nodes:
                for i in n.implements:
                    index.setdefault(i, set()).add(n.name)
            self._implementers = {i: frozenset(s) for i, s in index.items()}
        return self._implementers.get(interface, frozenset())

    def sorted_constraints(self, name: str) -> tuple[GoalExpr, ...]:
        """The node's ``active_if`` and ``requires`` in source-text order.

        The order every layer checks and prints them in.  One pass over
        the nodes builds the table on the first call.
        """
        if self._sorted is None:
            table = {}
            for n in self._nodes:
                cs = n.constraints()
                # sorting one expression would still print it for its key
                if len(cs) > 1:
                    cs = sorted(cs, key=to_source)
                table[n.name] = tuple(cs)
            self._sorted = table
        return self._sorted[name]


def _find_cycle(parent_of: dict[str, str | None]) -> str | None:
    """A name on a parent cycle, or None when every chain ends at the root."""
    rooted = {None, TOP}  # names whose chain is known to end at the root
    for start, parent in parent_of.items():
        if parent in rooted:
            rooted.add(start)
            continue
        seen = set()
        cur = start
        while cur not in rooted:
            if cur in seen:
                return cur
            seen.add(cur)
            cur = parent_of.get(cur)
        rooted |= seen
    return None


def normalize_model(raw) -> Model:
    """Build a normalized model from raw nodes.

    Fills in default flavors, reroots top-level nodes at TOP and folds
    whitespace enumerations in requires/active_if/calculated into
    disjunctions.  ``Model`` checks names, parents and cycles.
    """
    empty: frozenset = frozenset()  # shared by every empty field
    nodes = []
    for r in raw:
        nodes.append(
            Node(
                r.name,
                TOP if r.parent is None else r.parent,
                DEFAULT_FLAVOR[r.kind] if r.flavor is None else r.flavor,
                frozenset([_disjoin(e) for e in r.active_if]) if r.active_if else empty,
                frozenset([_disjoin(e) for e in r.requires]) if r.requires else empty,
                None if r.calculated is None else _disjoin(r.calculated),
                r.legal_values,
                r.kind,
                frozenset(r.implements) if r.implements else empty,
            )
        )
    return Model(nodes)


def _disjoin(entry: tuple[GoalExpr, ...]) -> GoalExpr:
    if not entry:
        raise ValueError("empty expression enumeration")
    acc = entry[0]
    for e in entry[1:]:
        acc = infix("||", acc, e)
    return acc


@frozen
class Violation:
    rule: str  # one of "a".."e"
    node: str
    message: str


def check_well_formed(m: Model) -> list[Violation]:
    """Check the five structural rules; returns one violation per breach.

    The check runs once per model; each call returns a new list.
    """
    if m._violations is None:
        m._violations = tuple(_violations(m))
    return list(m._violations)


def _violations(m: Model) -> list[Violation]:
    out: list[Violation] = []
    for n in m:
        if n.flavor == "none" and n.calculated is not None:
            out.append(
                Violation("a", n.name, "calculated is meaningless with flavor none")
            )
        if n.calculated is not None and n.legal_values is not None:
            out.append(
                Violation("b", n.name, "calculated and legal_values exclude each other")
            )
        if n.flavor == "bool" and n.legal_values is not None:
            out.append(
                Violation("c", n.name, "legal_values needs a data-carrying flavor")
            )
        if n.kind == "interface" and (
            n.flavor == "none" or n.calculated is not None
        ):
            out.append(
                Violation(
                    "d",
                    n.name,
                    "interfaces allow neither flavor none nor calculated",
                )
            )
    # tree shape: Model construction guarantees resolvable, acyclic parents,
    # so only the leaf rule for options can still fail here
    for n in m:
        if n.parent != TOP and m.node(n.parent).kind == "option":
            out.append(
                Violation(
                    "e",
                    n.parent,
                    f"option node is parent of {n.name}; options must be leaves",
                )
            )
    dedup: dict[tuple[str, str], Violation] = {}
    for v in out:
        dedup.setdefault((v.rule, v.node), v)
    return sorted(dedup.values(), key=lambda v: (v.rule, v.node))


def model_to_json(m: Model, end: str = "") -> str:
    """Canonical JSON dump of a normalized model, stable across runs.

    The text is that of ``json.dumps({"nodes": [...]}, indent=2,
    sort_keys=True)`` and ``end``, laid out here record by record: an
    indented dump cannot use the C encoder, so only the strings go through
    it.  The first and last records carry the brackets: one join, one copy.
    """
    records = [
        "    {\n"
        f'      "active_if": {_json_list(to_source(e) for e in n.active_if)},\n'
        f'      "calculated": {_json_opt(n.calculated and to_source(n.calculated))},\n'
        f'      "flavor": {_json_str(n.flavor)},\n'
        f'      "implements": {_json_list(n.implements)},\n'
        f'      "kind": {_json_str(n.kind)},\n'
        f'      "legal_values": '
        f'{_json_opt(n.legal_values and list_to_source(n.legal_values))},\n'
        f'      "name": {_json_str(n.name)},\n'
        f'      "parent": {_json_opt(n.parent)},\n'
        f'      "requires": {_json_list(to_source(e) for e in n.requires)}\n'
        "    }"
        for n in m  # already sorted by name; the keys are in sorted order
    ]
    if not records:
        return '{\n  "nodes": []\n}' + end
    records[0] = '{\n  "nodes": [\n' + records[0]
    records[-1] += "\n  ]\n}" + end
    return ",\n".join(records)


_json_str = json.encoder.encode_basestring_ascii


def _json_opt(s: str | None) -> str:
    return "null" if s is None else _json_str(s)


def _json_list(items) -> str:
    """A sorted list of strings as a value of a node record."""
    items = sorted(items)
    if not items:
        return "[]"
    return "[\n        " + ",\n        ".join(map(_json_str, items)) + "\n      ]"


def model_to_pretty(m: Model) -> str:
    """Indented tree rendering of the model for human inspection."""
    lines: list[str] = []
    children: dict[str, list[Node]] = {}
    for n in m:
        children.setdefault(n.parent, []).append(n)
    # depth-first, children in name order: the stack holds (node, depth)
    # pairs with the next node to print on top
    stack = [(n, 0) for n in reversed(children.get(TOP, ()))]
    while stack:
        n, depth = stack.pop()
        pad = "    " * depth
        lines.append(f"{pad}{n.kind} {n.name} [{n.flavor}]")
        for e in sorted(to_source(x) for x in n.active_if):
            lines.append(f"{pad}    active_if {e}")
        for e in sorted(to_source(x) for x in n.requires):
            lines.append(f"{pad}    requires {e}")
        if n.calculated is not None:
            lines.append(f"{pad}    calculated {to_source(n.calculated)}")
        if n.legal_values is not None:
            lines.append(f"{pad}    legal_values {list_to_source(n.legal_values)}")
        for i in sorted(n.implements):
            lines.append(f"{pad}    implements {i}")
        kids = children.get(n.name)
        if kids:
            stack.extend([(c, depth + 1) for c in reversed(kids)])
    return "\n".join(lines) + ("\n" if lines else "")
