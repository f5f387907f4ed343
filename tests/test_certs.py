import json

import pytest

from evenpairs import certs
from evenpairs.basic import classify_basic, line_root_of
from evenpairs.cli import main
from evenpairs.decomposition import find_balanced_skew_partition
from evenpairs.detect import find_prism, is_even_pair
from evenpairs.families import cycle, path_graph, prism3
from evenpairs.formats import to_graph6
from evenpairs.trigraph import _Record, complement, graph_from_edges


def roundtrip(obj):
    doc = certs.to_jsonable(obj)
    json.dumps(doc, sort_keys=True)
    return doc


def test_every_witness_kind_serializes():
    doc = roundtrip(find_prism(prism3(), "odd"))
    assert doc["kind"] == "prism" and doc["parity"] == "odd"

    doc = roundtrip(is_even_pair(cycle(6), 0, 3).witness)
    assert doc["kind"] == "path" and doc["parity"] == "odd"

    doc = roundtrip(find_balanced_skew_partition(path_graph(4)))
    assert doc["kind"] == "skew_partition" and doc["star"] == 1

    doc = roundtrip(line_root_of(prism3()))
    assert doc["kind"] == "line_root" and len(doc["vertex_edges"]) == 6

    doc = roundtrip(classify_basic(cycle(4)))
    assert doc["bipartition"] == [[0, 2], [1, 3]]


def test_unknown_objects_are_rejected():
    with pytest.raises(TypeError):
        certs.to_jsonable(object())


def test_every_json_view_has_a_writer(capsys, monkeypatch, tmp_path):
    # the record classes the commands hand to to_jsonable, documents and
    # certificates both, are exactly the ones it has a view for: a view no
    # command writes is dead, and a record a command writes needs a view
    view = certs.to_jsonable
    handled = {cls for name in view.__code__.co_names
               if isinstance(cls := getattr(certs, name, None), type)
               and issubclass(cls, _Record)}
    seen = set()

    def recording(obj):
        seen.add(type(obj))
        return view(obj)

    monkeypatch.setattr(certs, "to_jsonable", recording)
    three_triangles = graph_from_edges(9, [(3 * i + a, 3 * i + b) for i in range(3)
                                           for a, b in ((0, 1), (0, 2), (1, 2))])
    inputs = ["trigraph 5\n0 3 E\n0 4 E\n1 4 E\n2 4 E\n3 4 E\n",  # doubled
              to_graph6(three_triangles),  # a line graph
              to_graph6(cycle(7)), to_graph6(prism3()),
              to_graph6(complement(cycle(8))), to_graph6(path_graph(4)),
              to_graph6(cycle(8)), to_graph6(cycle(10))]
    cert = str(tmp_path / "cert.jsonl")
    for g6 in inputs:
        for command in ("analyze", "even-pair", "contract-color", "decompose", "classify"):
            main([command, g6, "--emit-cert", cert])
    main(["verify", "--nmax", "3"])
    capsys.readouterr()
    assert {cls for cls in seen if issubclass(cls, _Record)} == handled
