"""Value semantics of the result records: field-wise equality, hash, repr, immutability."""

import copy
import pickle
from fractions import Fraction

import pytest

from rbt_lab import (
    CertReport,
    Edge,
    Graph,
    GraphSystem,
    MantelPartition,
    MatchingResult,
    PartitionBoundParams,
    RainbowWitness,
    Triangle,
)
from rbt_lab.graph import Record
from rbt_lab.search import SearchReport

SEARCH_FIELDS = {"objective": "sum", "n": 4, "t": 3, "best_value": 12, "witnesses": [(63, 63, 0)],
                 "witness_overflow": False, "nodes": 5, "pruned": 2, "wall_time": 0.5,
                 "references": {"seed_value": 12}, "config": {"mode": "exhaustive"}}

# (class, fields in constructor order, one field changed), all hashable but SearchReport's
RECORDS = [
    (CertReport, {"claim": "sum-t", "value": 3, "bound": 4, "witness": None}, "bound"),
    (MatchingResult, {"edges": (Edge(0, 1), Edge(2, 3)), "size": 2, "matched_set": 15}, "size"),
    (MantelPartition, {"x_side": (0,), "y_side": (1,), "z_side": 4, "size": 1}, "z_side"),
    (GraphSystem, {"n": 3, "graphs": (Graph.complete(3), Graph.empty(3))}, "graphs"),
    (RainbowWitness, {"triangle": Triangle(0, 1, 2), "graph_indices": (0, 1, 2),
                      "edges": (Edge(0, 1), Edge(0, 2), Edge(1, 2))}, "graph_indices"),
    (PartitionBoundParams, {"ell": 2, "p": 1, "q": 3, "alpha": Fraction(1, 4),
                            "beta": Fraction(3, 4)}, "q"),
    (SearchReport, SEARCH_FIELDS, "nodes"),
]
FROZEN = [r for r in RECORDS if r[0] is not SearchReport]
IDS = [r[0].__name__ for r in RECORDS]


def changed(cls, fields, name):
    """The record with field `name` bumped (an int) or reversed (a tuple)."""
    value = fields[name]
    return cls(**{**fields, name: value + 1 if isinstance(value, int) else value[::-1]})


@pytest.mark.parametrize("cls, fields, name", RECORDS, ids=IDS)
def test_equal_by_field(cls, fields, name):
    a, b = cls(**fields), cls(*fields.values())
    assert a == b and not a != b
    assert a != changed(cls, fields, name)
    assert a.__slots__ == tuple(fields)
    assert all(getattr(a, f) == v for f, v in fields.items())


@pytest.mark.parametrize("cls, fields, name", RECORDS, ids=IDS)
def test_unequal_across_classes(cls, fields, name):
    # the same name, fields and constructor in another class
    twin = type(cls.__name__, (Record,), {"__slots__": cls.__slots__, "__init__": cls.__init__})
    assert cls(**fields) != twin(**fields)
    assert cls(**fields) != tuple(fields.values())
    others = [c(**f) for c, f, _ in RECORDS if c is not cls]
    assert all(cls(**fields) != o for o in others)


@pytest.mark.parametrize("cls, fields, name", FROZEN, ids=[r[0].__name__ for r in FROZEN])
def test_equal_frozen_records_hash_alike(cls, fields, name):
    assert hash(cls(**fields)) == hash(cls(*fields.values()))
    assert len({cls(**fields), cls(**fields), changed(cls, fields, name)}) == 2


@pytest.mark.parametrize("cls, fields, name", RECORDS, ids=IDS)
def test_repr_lists_fields(cls, fields, name):
    body = ", ".join(f"{f}={v!r}" for f, v in fields.items())
    assert repr(cls(**fields)) == f"{cls.__name__}({body})"


def test_repr_reads_name_and_fields():
    assert repr(CertReport("sum-t", 3, 4)) == "CertReport(claim='sum-t', value=3, bound=4, witness=None)"
    assert repr(MantelPartition((0,), (1,), 4, 1)) == (
        "MantelPartition(x_side=(0,), y_side=(1,), z_side=4, size=1)")


@pytest.mark.parametrize("cls, fields, name", FROZEN, ids=[r[0].__name__ for r in FROZEN])
def test_frozen_fields_refuse_assignment_and_deletion(cls, fields, name):
    record = cls(**fields)
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(record, f, None)
        with pytest.raises(AttributeError):
            delattr(record, f)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert record == cls(**fields)


@pytest.mark.parametrize("cls, fields, name", RECORDS, ids=IDS)
def test_pickle_and_copy_round_trip(cls, fields, name):
    record = cls(**fields)
    for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(twin) is cls and twin == record


def test_defaults():
    assert CertReport("sum-t", 3, 4).witness is None
    positional = list(SEARCH_FIELDS.values())[:-2]
    a, b = SearchReport(*positional), SearchReport(*positional)
    assert a.references == a.config == {}
    assert a.references is not b.references and a.config is not b.config
    assert a.references is not a.config
    a.references["seed_value"] = 1
    a.config["mode"] = "local"
    assert b.references == b.config == {}


def test_search_report_is_mutable_and_unhashable():
    report = SearchReport(**SEARCH_FIELDS)
    report.nodes = 99
    assert report.nodes == 99 and report != SearchReport(**SEARCH_FIELDS)
    del report.wall_time
    with pytest.raises(AttributeError):
        report.wall_time
    with pytest.raises(TypeError):
        hash(SearchReport(**SEARCH_FIELDS))


def test_graph_system_validates_in_its_constructor():
    with pytest.raises(ValueError, match="at least one graph"):
        GraphSystem(3, ())
    with pytest.raises(ValueError, match="graph 1 has n=4, system has n=3"):
        GraphSystem(3, (Graph.empty(3), Graph.empty(4)))
