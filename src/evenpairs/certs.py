"""JSON views of witnesses and results.

Each record that a CLI document or ``--emit-cert`` file holds has one
view: a dict with a ``kind`` key that states each fact once, leaving out
what another key or a constant already says, with trigraphs in the text
format.  The CLI writers emit the keys in sorted order, so certificate
files are stable JSON lines that diff cleanly.
"""

from __future__ import annotations

from .basic import BasicClassification, GoodPartition, LineRootCertificate
from .contraction import Coloring, ContractionSequence
from .decomposition import Block, SkewPartitionWitness, TwoJoinSplit
from .detect import PrismWitness
from .engine import EngineResult, PreconditionReport, VerifySummary
from .formats import to_text
from .trigraph import HoleWitness, PathWitness


def to_jsonable(obj: object) -> object:
    """Translate a result object into JSON-compatible data."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, PathWitness):
        return {"kind": "path", "vertices": list(obj.vertices)}
    if isinstance(obj, HoleWitness):
        return {"kind": obj.kind, "vertices": list(obj.vertices)}
    if isinstance(obj, PrismWitness):
        return {"kind": "prism", "cliques": [list(c) for c in obj.cliques],
                "rungs": [to_jsonable(r) for r in obj.rungs]}
    if isinstance(obj, TwoJoinSplit):
        return {"kind": "two_join", "parity": obj.parity, "proper": obj.proper,
                "a1": sorted(obj.a1), "b1": sorted(obj.b1), "c1": sorted(obj.c1),
                "a2": sorted(obj.a2), "b2": sorted(obj.b2), "c2": sorted(obj.c2)}
    if isinstance(obj, SkewPartitionWitness):
        return {"kind": "skew_partition", "a": sorted(obj.a), "b": sorted(obj.b),
                "split": [sorted(s) for s in obj.split], "star": obj.star}
    if isinstance(obj, Block):
        return {"kind": "block", "marker_kind": obj.kind, "side": obj.side,
                "markers": list(obj.markers),
                "parent_map": [v for v in obj.parent_map],
                "trigraph": to_text(obj.trigraph)}
    if isinstance(obj, ContractionSequence):
        return {"kind": "contraction_sequence", "initial": to_text(obj.initial),
                "outcome": obj.outcome,
                "steps": [{"pair": list(s.pair), "after": to_text(s.after)}
                          for s in obj.steps]}
    if isinstance(obj, Coloring):
        return {"kind": "coloring", "assignment": list(obj.assignment),
                "color_count": obj.color_count}
    if isinstance(obj, GoodPartition):
        return {"kind": "good_partition", "x": sorted(obj.x), "y": sorted(obj.y)}
    if isinstance(obj, LineRootCertificate):
        return {"kind": "line_root", "root": to_text(obj.root),
                "vertex_edges": [list(e) for e in obj.vertex_edges]}
    if isinstance(obj, BasicClassification):
        return {"kind": "basic_classification", "verdict": obj.verdict,
                "bipartition": ([sorted(obj.bipartition[0]), sorted(obj.bipartition[1])]
                                if obj.bipartition else None),
                "line_root": to_jsonable(obj.line_root),
                "good_partition": to_jsonable(obj.good_partition)}
    if isinstance(obj, PreconditionReport):
        return {"kind": "preconditions", "ok": obj.ok,
                "checks": [{"name": c.name, "passed": c.passed,
                            "witness": to_jsonable(c.witness)}
                           for c in obj.checks]}
    if isinstance(obj, EngineResult):
        return {"kind": "engine_result", "outcome": obj.outcome,
                "pair": list(obj.pair) if obj.pair else None,
                "trace": to_jsonable(list(obj.trace)),
                "report": to_jsonable(obj.report)}
    if isinstance(obj, VerifySummary):
        return {"kind": "verify_summary", "scope": obj.scope, "n_max": obj.n_max,
                "instances": obj.instances, "filtered_in": obj.filtered_in,
                "complete": obj.complete, "even_pair": obj.even_pair,
                "failures": [{"instance": f.instance, "stage": f.stage,
                              "detail": f.detail} for f in obj.failures]}
    raise TypeError(f"no JSON view for {type(obj).__name__}")
