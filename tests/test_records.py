"""The value contract of the 23 result classes: equality by class and
fields, the hash of the field tuple, ``Name(field=value, ...)`` repr,
immutability and a pickle round trip."""

import pickle

import pytest

from evenpairs.basic import (
    BasicClassification,
    FavorabilityVerdict,
    GoodPairWitness,
    GoodPartition,
    LineRootCertificate,
    RootPropertyReport,
)
from evenpairs.contraction import Coloring, ContractionSequence, ContractionStep
from evenpairs.decomposition import Block, ShapeReport, SkewPartitionWitness, TwoJoinSplit
from evenpairs.detect import EvenPairReport, PrismWitness
from evenpairs.engine import (
    CheckOutcome,
    EngineResult,
    FailureRecord,
    PreconditionReport,
    VerifySummary,
)
from evenpairs.families import cycle, path_graph
from evenpairs.trigraph import ClassFVerdict, HoleWitness, PathWitness

C4, P3 = cycle(4), path_graph(3)
PATH = PathWitness(vertices=(0, 1, 2))
RUNG = PathWitness(vertices=(0, 3))
OUTCOME = CheckOutcome(name="berge", passed=False, witness=PATH)
SPLIT_FIELDS = {
    "a1": frozenset({0}), "b1": frozenset({1}), "c1": frozenset(),
    "a2": frozenset({2}), "b2": frozenset({3}), "c2": frozenset({4, 5}),
    "parity": "odd", "proper": True,
}
SPLIT = TwoJoinSplit(**SPLIT_FIELDS)
FAILURE = FailureRecord(instance="C5", stage="preconditions", detail="odd hole")
STEP = ContractionStep(pair=(0, 2), after=P3)
GOOD = GoodPartition(x=frozenset({0, 1}), y=frozenset({2}))
ROOT = LineRootCertificate(root=P3, vertex_edges=((0, 1), (1, 2)), side=frozenset({0, 2}))

# every class with its fields in declaration order
RECORDS = [
    (PathWitness, {"vertices": (0, 1, 2)}),
    (HoleWitness, {"vertices": (0, 1, 2, 3, 4), "kind": "hole"}),
    (ClassFVerdict, {"ok": False, "violation": "long", "component": frozenset({1, 2}), "kind": "light"}),
    (PrismWitness, {"cliques": ((0, 1, 2), (3, 4, 5)), "rungs": (RUNG, RUNG, RUNG)}),
    (EvenPairReport, {"pair": (0, 2), "verdict": "not_even_pair", "witness": PATH, "path_count": 3}),
    (TwoJoinSplit, SPLIT_FIELDS),
    (SkewPartitionWitness, {
        "a": frozenset({0, 2}), "b": frozenset({1, 3}),
        "split": (frozenset({1}), frozenset({3}), frozenset(), frozenset()),
        "star": None,
    }),
    (Block, {
        "trigraph": C4, "markers": (3,), "kind": "small", "side": 1,
        "parent_map": (0, 1, 2, None),
    }),
    (ShapeReport, {"violations": ("improper",)}),
    (GoodPartition, {"x": frozenset({0, 1}), "y": frozenset({2})}),
    (LineRootCertificate, {"root": P3, "vertex_edges": ((0, 1), (1, 2)), "side": frozenset({0, 2})}),
    (BasicClassification, {
        "verdict": "line", "bipartition": (frozenset({0}), frozenset({1})),
        "line_root": ROOT, "good_partition": GOOD,
    }),
    (FavorabilityVerdict, {"favorable": False, "failed": "light"}),
    (GoodPairWitness, {"edge1": (0, 1), "edge2": (2, 3)}),
    (RootPropertyReport, {"even_theta": ((0, 1), (0, 2, 1)), "has_k4_minor": False}),
    (ContractionStep, {"pair": (0, 2), "after": P3}),
    (ContractionSequence, {"initial": C4, "steps": (STEP,), "outcome": "stuck"}),
    (Coloring, {"assignment": (0, 1, 0), "color_count": 2}),
    (CheckOutcome, {"name": "berge", "passed": False, "witness": PATH}),
    (PreconditionReport, {"checks": (OUTCOME,)}),
    (EngineResult, {"outcome": "even_pair", "pair": (0, 2), "report": None, "trace": ({"depth": 0},)}),
    (FailureRecord, {"instance": "C5", "stage": "preconditions", "detail": "odd hole"}),
    (VerifySummary, {
        "scope": "graphs", "n_max": 5, "instances": 34, "filtered_in": 20,
        "complete": 5, "even_pair": 14, "failures": (FAILURE,),
    }),
]
UNHASHABLE = {EngineResult}  # its trace holds dicts


@pytest.mark.parametrize(("cls", "fields"), RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
def test_record_contract(cls, fields):
    record, twin = cls(**fields), cls(*fields.values())
    assert record == twin and not record != twin
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(twin) == hash(tuple(fields.values()))

    other = type("Other", (cls,), {})(**fields)
    assert record != other and other != record

    shown = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(record) == f"{cls.__name__}({shown})"

    name = next(iter(fields))
    with pytest.raises(AttributeError):
        setattr(record, name, fields[name])
    with pytest.raises(AttributeError):
        record.extra = 1
    with pytest.raises(AttributeError):
        delattr(record, name)
    assert getattr(record, name) == fields[name]

    assert pickle.loads(pickle.dumps(record)) == record


def test_every_record_class_is_listed_once():
    assert len(RECORDS) == len({cls for cls, _ in RECORDS}) == 23
