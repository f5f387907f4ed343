"""JSON views of witnesses and results.

Every witness serializes to a dict with a ``kind`` key and a vertex list
(plus a parity where one makes sense), so certificate files are stable
JSON-lines that diff cleanly; all keys are emitted in sorted order by the
writers in the CLI.
"""

from __future__ import annotations

import functools
from typing import Any

from .basic import (BasicClassification, FavorabilityVerdict, GoodPairWitness,
                    GoodPartition, LineRootCertificate, RootPropertyReport)
from .contraction import Coloring, ContractionSequence
from .decomposition import Block, ShapeReport, SkewPartitionWitness, TwoJoinSplit
from .detect import EvenPairReport, PrismWitness
from .engine import EngineResult, PreconditionReport, VerifySummary
from .formats import to_text
from .trigraph import ClassFVerdict, HoleWitness, PathWitness, Trigraph


def to_jsonable(obj: Any) -> Any:
    """Translate a result object into JSON-compatible data."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(x) for x in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(obj)
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, Trigraph):
        return {"kind": "trigraph", "n": obj.n, "text": to_text(obj)}
    if isinstance(obj, PathWitness):
        return {"kind": "path", "vertices": list(obj.vertices),
                "length": obj.length, "parity": "odd" if obj.is_odd else "even"}
    if isinstance(obj, HoleWitness):
        return {"kind": obj.kind, "vertices": list(obj.vertices),
                "length": obj.length, "parity": "odd" if obj.is_odd else "even"}
    if isinstance(obj, PrismWitness):
        return {"kind": "prism", "vertices": list(obj.vertices),
                "parity": obj.parity,
                "cliques": [list(c) for c in obj.cliques],
                "rungs": [to_jsonable(r) for r in obj.rungs]}
    if isinstance(obj, EvenPairReport):
        return {"kind": "even_pair_report", "vertices": list(obj.pair),
                "verdict": obj.verdict, "path_count": obj.path_count,
                "witness": to_jsonable(obj.witness)}
    if isinstance(obj, TwoJoinSplit):
        return {"kind": "two_join", "parity": obj.parity, "proper": obj.proper,
                "a1": sorted(obj.a1), "b1": sorted(obj.b1), "c1": sorted(obj.c1),
                "a2": sorted(obj.a2), "b2": sorted(obj.b2), "c2": sorted(obj.c2),
                "vertices": sorted(obj.x1 | obj.x2)}
    if isinstance(obj, SkewPartitionWitness):
        return {"kind": "skew_partition", "a": sorted(obj.a), "b": sorted(obj.b),
                "split": [sorted(s) for s in obj.split],
                "balanced": obj.balanced, "star": obj.star,
                "vertices": sorted(obj.a | obj.b)}
    if isinstance(obj, Block):
        return {"kind": "block", "marker_kind": obj.kind, "side": obj.side,
                "markers": list(obj.markers),
                "parent_map": [v for v in obj.parent_map],
                "trigraph": to_text(obj.trigraph),
                "parent_split": to_jsonable(obj.parent_split)}
    if isinstance(obj, ShapeReport):
        return {"kind": "two_join_shape", "ok": obj.ok,
                "violations": list(obj.violations)}
    if isinstance(obj, ContractionSequence):
        # a step's after is the next step's before and the last after is
        # the terminal: render each distinct trigraph once
        text = functools.cache(to_text)
        return {"kind": "contraction_sequence", "outcome": obj.outcome,
                "steps": [{"pair": list(s.pair), "merged_vertex": s.merged_vertex,
                           "before": text(s.before), "after": text(s.after)}
                          for s in obj.steps],
                "terminal": text(obj.terminal)}
    if isinstance(obj, Coloring):
        return {"kind": "coloring", "assignment": list(obj.assignment),
                "color_count": obj.color_count}
    if isinstance(obj, GoodPartition):
        return {"kind": "good_partition", "x": sorted(obj.x), "y": sorted(obj.y)}
    if isinstance(obj, GoodPairWitness):
        return {"kind": "good_pair", "edge1": list(obj.edge1),
                "edge2": list(obj.edge2)}
    if isinstance(obj, LineRootCertificate):
        return {"kind": "line_root", "root": to_text(obj.root),
                "vertex_edges": [list(e) for e in obj.vertex_edges]}
    if isinstance(obj, BasicClassification):
        return {"kind": "basic_classification", "verdict": obj.verdict,
                "bipartition": ([sorted(obj.bipartition[0]), sorted(obj.bipartition[1])]
                                if obj.bipartition else None),
                "line_root": to_jsonable(obj.line_root),
                "good_partition": to_jsonable(obj.good_partition)}
    if isinstance(obj, FavorabilityVerdict):
        return {"kind": "favorability", "favorable": obj.favorable,
                "failed": obj.failed}
    if isinstance(obj, ClassFVerdict):
        return {"kind": "class_membership", "ok": obj.ok,
                "violation": obj.violation,
                "component": sorted(obj.component) if obj.component else None,
                "component_kind": obj.kind}
    if isinstance(obj, RootPropertyReport):
        return {"kind": "root_properties", "ok": obj.ok,
                "has_k4_minor": obj.has_k4_minor,
                "even_theta": to_jsonable(obj.even_theta)}
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
