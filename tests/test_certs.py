import json

from evenpairs import certs
from evenpairs.basic import (classify_basic, favorability, find_good_pair,
                             line_root_of, verify_root_properties)
from evenpairs.decomposition import find_balanced_skew_partition
from evenpairs.detect import find_prism, is_even_pair
from evenpairs.families import complete_bipartite, cycle, path_graph, prism3
from evenpairs.trigraph import in_class_F, make_trigraph


def roundtrip(obj):
    doc = certs.to_jsonable(obj)
    json.dumps(doc, sort_keys=True)
    return doc


def test_every_witness_kind_serializes():
    doc = roundtrip(find_prism(prism3(), "odd"))
    assert doc["kind"] == "prism" and doc["parity"] == "odd"

    doc = roundtrip(is_even_pair(cycle(6), 0, 3))
    assert doc["witness"]["parity"] == "odd"

    doc = roundtrip(find_balanced_skew_partition(path_graph(4)))
    assert doc["kind"] == "skew_partition" and doc["star"] == 1

    doc = roundtrip(find_good_pair(path_graph(4)))
    assert doc["kind"] == "good_pair"

    doc = roundtrip(line_root_of(prism3()))
    assert doc["kind"] == "line_root" and len(doc["vertex_edges"]) == 6

    doc = roundtrip(classify_basic(cycle(4)))
    assert doc["bipartition"] == [[0, 2], [1, 3]]

    doc = roundtrip(verify_root_properties(complete_bipartite(2, 3)))
    assert doc["kind"] == "root_properties" and not doc["ok"]

    doc = roundtrip(in_class_F(make_trigraph(2, [(0, 1, 0)])))
    assert doc["component_kind"] == "small"

    doc = roundtrip(favorability(cycle(6)))
    assert doc["favorable"] is True


def test_unknown_objects_are_rejected():
    import pytest

    with pytest.raises(TypeError):
        certs.to_jsonable(object())
