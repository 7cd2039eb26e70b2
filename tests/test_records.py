"""The contract of the pipeline's immutable records.

Every record class is built by ``exprs.frozen``: a frozen, slotted
dataclass whose ``__init__`` stores the fields through their slot
descriptors.  These tests pin what a plain ``@dataclass(frozen=True,
slots=True)`` gives, so that the faster constructor changes nothing else.
"""

import copy
import dataclasses
import pickle

import pytest

from cdlsem import exprs, model, parser, prop, sat, semantics
from cdlsem.exprs import (
    BitNot, Call, Cond, Const, Ident, Infix, ListExpr, Not, Range, Single,
)
from cdlsem.model import TOP, Node, RawNode, Violation
from cdlsem.parser import ParseDiagnostic, SourceSpan
from cdlsem.prop import (
    BCard, BInfix, BNot, Constraint, PropFormula,
)
from cdlsem.sat import Cnf, SatResult
from cdlsem.semantics import Failure, ValidationReport

A, B = Ident("A"), Ident("B")
SPAN = SourceSpan("m.cdl", 1, 2, 3, 4)

# one valid positional argument tuple per record class
RECORDS = {
    Ident: ("A",),
    Const: ("1",),
    Not: (A,),
    BitNot: (A,),
    Infix: ("&&", (A, B)),
    Call: ("is_enabled", (A,)),
    Cond: (A, B, Const("0")),
    Single: (A,),
    Range: (Const("1"), Const("2")),
    ListExpr: ((Single(A), Range(Const("1"), B)),),
    Node: ("A", TOP, "bool", frozenset(), frozenset({B}), None, None,
           "option", frozenset({"I"})),
    Violation: ("a", "A", "why"),
    BNot: ("A",),
    BInfix: ("||", ("A", "B")),
    BCard: (("A", "B"), 0, 1),
    Constraint: ("A", "node", "A"),
    PropFormula: ((Constraint("A", "node", "A"),), ("A",)),
    Cnf: (1, ((1,),), ("A",)),
    SatResult: ("unsat", None),
    Failure: ("A", "node", "why"),
    ValidationReport: ((Failure("A", "node", "why"),),),
    SourceSpan: ("m.cdl", 1, 2, 3, 4),
    ParseDiagnostic: ("error", "why", SPAN),
}
CLASSES = list(RECORDS)


def _frozen_classes():
    found = set()
    for module in (exprs, model, parser, prop, sat, semantics):
        for value in vars(module).values():
            if (isinstance(value, type) and dataclasses.is_dataclass(value)
                    and value.__dataclass_params__.frozen):
                found.add(value)
    return found


def test_every_frozen_record_is_covered():
    assert _frozen_classes() == set(CLASSES)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_record_contract(cls):
    args = RECORDS[cls]
    names = [f.name for f in dataclasses.fields(cls)]
    obj = cls(*args)
    assert [getattr(obj, x) for x in names] == list(args)
    assert cls(**dict(zip(names, args))) == obj
    assert hash(cls(*args)) == hash(obj) and obj == copy.copy(obj)
    assert pickle.loads(pickle.dumps(obj)) == obj
    assert cls.__match_args__ == tuple(names)
    fields = ", ".join(f"{x}={getattr(obj, x)!r}" for x in names)
    assert repr(obj) == f"{cls.__name__}({fields})"
    # frozen and slotted: no field can be set or deleted, nothing added
    # (a frozen slotted dataclass raises TypeError for a new attribute on
    # some Python versions, a quirk of dataclasses itself)
    assert not hasattr(obj, "__dict__")
    for x in names:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, x, args[0])
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(obj, x)
    with pytest.raises((AttributeError, TypeError)):
        obj.extra = 1
    assert [getattr(obj, x) for x in names] == list(args)
    # replace builds through __init__
    again = dataclasses.replace(obj, **{names[0]: args[0]})
    assert again == obj and again is not obj
    with pytest.raises(TypeError):
        cls(*args, None)
    with pytest.raises(TypeError):
        cls(*args, nope=1)


def test_records_differ_by_field_and_class():
    assert Ident("A") != Ident("B") and Ident("A") != "A"
    assert Infix("&&", (A, B)) != Infix("&&", (B, A))
    assert dataclasses.replace(Infix("&&", (A, B)), op="||") == Infix("||", (A, B))


def test_missing_argument_and_default():
    with pytest.raises(TypeError):
        Infix("&&")
    with pytest.raises(TypeError):
        Node("A", TOP)
    # ListExpr's one field defaults to (), which its check rejects
    with pytest.raises(ValueError, match="at least one item"):
        ListExpr()
    assert ListExpr(items=(Single(A),)) == ListExpr((Single(A),))


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: Infix("&&", (A,)), "at least two operands"),
        (lambda: Infix("=>", (A, B)), "bad binary operator"),
        (lambda: BInfix("xor", ("A", "B")), "bad Boolean operator"),
        (lambda: BInfix("&&", ()), "at least two operands"),
        (lambda: Call("nope", ()), "unknown builtin"),
        (lambda: Call("is_enabled", (A, B)), "takes 1 argument"),
        (lambda: ListExpr(()), "at least one item"),
        (lambda: ListExpr((A,)), "bad list item"),
        (lambda: dataclasses.replace(Infix("&&", (A, B)), items=(A,)),
         "at least two operands"),
    ],
)
def test_post_init_still_checks(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_raw_node_is_slotted_and_mutable():
    node = RawNode("A", "option")
    node.flavor = "data"
    node.requires.append((A,))
    assert node == RawNode("A", "option", flavor="data", requires=[(A,)])
    assert RawNode("B", "option").requires == []  # a list per node
    with pytest.raises(AttributeError):
        node.extra = 1


def test_frozen_refuses_a_default_factory():
    with pytest.raises(TypeError, match="default_factory"):
        @exprs.frozen
        class Bad:
            items: list = dataclasses.field(default_factory=list)
