"""The main recursion and the exhaustive verification harness.

``find_even_pair_structured`` decides "complete or has an even pair" for
inputs passing the preconditions (Berge, no odd prism, no antihole beyond
what Bergeness already excludes, no balanced skew-partition, restricted
switchable structure): basic trigraphs go to the basic-leaf finder,
everything else is decomposed along a proper 2-join, recursing into the
block built on the side away from the switchable component and lifting the
block's even pair through the marker bookkeeping.

``verify_main_theorem`` runs that engine over every instance of a corpus
and reports counts; any failure, an oracle rejection included, is recorded
with a reproduction certificate instead of aborting the run.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from contextlib import nullcontext

from .basic import classify_basic, even_pair_basic, favorability
from .decomposition import build_block, check_nobsp_2join_shape, find_2join, find_balanced_skew_partition
from .detect import (_antiholes, find_antihole_of_length_at_least, find_odd_hole,
                     find_prism, is_even_pair)
from .errors import InputError, TheoremContradictionError
from .formats import to_text
from .trigraph import (Trigraph, _Record, in_class_F, is_complete, switchable_structure,
                       switchable_vertices, with_bergeness)

# the isomorphism classes of graphs on 1..10 vertices (OEIS A000088)
GRAPH_CLASSES = (1, 2, 4, 11, 34, 156, 1044, 12346, 274668, 12005168)
ENUMERATION_CAP = len(GRAPH_CLASSES)
# every graph on 10 vertices does not fit in memory: the cap runs only sampled
EXHAUSTIVE_CAP = 9
WORKERS_ENV = "EVENPAIRS_WORKERS"

# the checks of check_preconditions, in the order it runs them
PRECONDITIONS = ("berge", "no_odd_prism", "no_long_antihole",
                 "class_membership", "no_balanced_skew_partition")


class CheckOutcome(_Record):
    def __init__(self, name: str, passed: bool, witness: object = None):
        self.__dict__.update(name=name, passed=passed, witness=witness)


class PreconditionReport(_Record):
    def __init__(self, checks: tuple[CheckOutcome, ...]):
        self.__dict__.update(checks=checks)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def first_failure(self) -> CheckOutcome | None:
        return next((c for c in self.checks if not c.passed), None)


def check_preconditions(T: Trigraph, fast: bool = False) -> PreconditionReport:
    """Run the hypothesis checks and attach witnesses for failures.

    Graph inputs must avoid antiholes of length at least six; trigraph
    inputs must avoid antiholes outright, which for Berge inputs is the
    same threshold (shorter antiholes are odd and already excluded).  With
    ``fast`` the report stops at the first failure.
    """
    checks: list[CheckOutcome] = []

    def add(name: str, passed: bool, witness=None) -> bool:
        checks.append(CheckOutcome(name, passed, witness))
        return fast and not passed

    threshold = 6 if T.is_graph else 5
    witness = find_odd_hole(T)
    if witness is None:
        # one antihole search decides Bergeness and the long-antihole check
        witness, long_antihole = _antiholes(T, threshold)
    elif not fast:  # a fast pass stops at the odd hole
        long_antihole = find_antihole_of_length_at_least(T, threshold)
    berge = witness is None
    if add("berge", berge, witness):
        return PreconditionReport(tuple(checks))
    prism = find_prism(T)
    if add("no_odd_prism", prism is None, prism):
        return PreconditionReport(tuple(checks))
    if add("no_long_antihole", long_antihole is None, long_antihole):
        return PreconditionReport(tuple(checks))
    membership = with_bergeness(switchable_structure(T), berge)
    if add("class_membership", membership.ok, membership.violation):
        return PreconditionReport(tuple(checks))
    bsp = find_balanced_skew_partition(T)
    add("no_balanced_skew_partition", bsp is None, bsp)
    return PreconditionReport(tuple(checks))


class EngineResult(_Record):
    # outcome: "complete" | "even_pair" | "precondition_failed"
    def __init__(self, outcome: str, pair: tuple[int, int] | None = None,
                 report: PreconditionReport | None = None, trace: tuple[dict, ...] = ()):
        self.__dict__.update(outcome=outcome, pair=pair, report=report, trace=trace)


def _structured(T: Trigraph, disjoint_required: bool,
                trace: list[dict]) -> tuple[str, tuple[int, int] | None]:
    if is_complete(T):
        trace.append({"step": "complete", "n": T.n})
        return "complete", None
    classification = classify_basic(T)
    D = switchable_vertices(T)
    if classification.is_basic:
        want_disjoint = disjoint_required or bool(D)
        if want_disjoint and not favorability(T).favorable:
            if disjoint_required:
                raise TheoremContradictionError(
                    "block must be favorable but is not")
            want_disjoint = False
        pair = even_pair_basic(T, want_disjoint, classification)
        trace.append({"step": "basic_leaf", "class": classification.verdict,
                      "n": T.n, "pair": list(pair)})
        return "even_pair", pair
    split = find_2join(T)
    if split is None:
        raise TheoremContradictionError(
            "non-basic precondition-passing trigraph admits no 2-join")
    shape = check_nobsp_2join_shape(T, split)
    if not shape.ok:
        raise TheoremContradictionError(
            f"2-join violates the required shape: {shape.violations}")
    side = 2 if D & split.x1 else 1  # no switchable pair crosses a 2-join
    block = build_block(T, split, side)
    # blocks of class members are class members; the recursion's
    # favorability() relies on that instead of checking it again
    membership = in_class_F(block.trigraph)
    if not membership.ok:
        raise TheoremContradictionError(
            f"block of a proper 2-join left the class: {membership.violation}")
    trace.append({
        "step": "two_join",
        "side": side,
        "parity": split.parity,
        "x1": sorted(split.x1), "x2": sorted(split.x2),
        "block_n": block.trigraph.n,
        "marker_kind": block.kind,
    })
    # a block is never complete, and its pair avoids the marker component
    _, inner = _structured(block.trigraph, True, trace)
    lifted = tuple(sorted(block.parent_map[w] for w in inner))
    report = is_even_pair(T, *lifted)
    if not report.is_even_pair:
        raise TheoremContradictionError(
            f"lifted pair {lifted} is not an even pair of the parent")
    return "even_pair", lifted


def find_even_pair_structured(T: Trigraph) -> EngineResult:
    """Main entry: precondition check, then the structural search.

    The returned pair has passed the path-enumeration oracle exactly once,
    where it was produced: in the basic finder at a leaf, or after the lift
    through a 2-join, in both cases on the trigraph it is returned for.
    When the input has a switchable component the pair avoids it whenever
    the structure guarantees one (always, except for unfavorable basic
    inputs, which the favorability theorem confines to five or fewer
    vertices)."""
    report = check_preconditions(T, fast=True)
    if not report.ok:
        return EngineResult("precondition_failed", report=report)
    trace: list[dict] = []
    outcome, pair = _structured(T, False, trace)
    return EngineResult(outcome, pair=pair, trace=tuple(trace))


class FailureRecord(_Record):
    def __init__(self, instance: str, stage: str, detail: str):
        self.__dict__.update(instance=instance, stage=stage, detail=detail)


class VerifySummary(_Record):
    def __init__(self, scope: str, n_max: int, instances: int, filtered_in: int,
                 complete: int, even_pair: int, failures: tuple[FailureRecord, ...]):
        self.__dict__.update(scope=scope, n_max=n_max, instances=instances,
                             filtered_in=filtered_in, complete=complete,
                             even_pair=even_pair, failures=failures)

    @property
    def ok(self) -> bool:
        return not self.failures


def _run_instance(T: Trigraph) -> dict:
    """The verdict record of one instance; ``verify_main_theorem`` adds the
    instance text to the records it keeps."""
    record: dict = {"n": T.n}
    try:
        result = find_even_pair_structured(T)
        if result.outcome == "precondition_failed":
            record["checks"] = {c.name: c.passed for c in result.report.checks}
            record["status"] = "filtered"
            record["failed_check"] = result.report.first_failure.name
            return record
        record["checks"] = dict.fromkeys(PRECONDITIONS, True)
        if result.outcome == "complete":
            record["status"] = "complete"
        else:
            record["status"] = "even_pair"
            record["pair"] = list(result.pair)
    except Exception as exc:  # recorded, never swallowed silently
        record["status"] = "failure"
        record["stage"] = type(exc).__name__
        record["detail"] = str(exc)
    return record


def _instances_for(scope: str, n_max: int, sample: int | None,
                   seed: int) -> list[Trigraph]:
    # deferred, so that a cold start does not import the generators and random
    from .corpus import graphs_upto, planted_class_f_trigraphs, random_canonical_graphs

    if scope == "graphs":
        if sample is None:
            return graphs_upto(n_max)
        try:
            return random_canonical_graphs(n_max, sample, seed)
        except RuntimeError as exc:  # the sampler ran out of attempts
            raise InputError(str(exc)) from exc
    if scope == "trigraphs_in_F":
        return list(planted_class_f_trigraphs(n_max))
    raise InputError(f"unknown scope {scope!r}")


def verify_main_theorem(n_max: int, scope: str = "graphs", *,
                        sample: int | None = None, seed: int = 0,
                        log_path: str | None = None) -> VerifySummary:
    """Run the engine over a whole corpus and tally the outcomes.

    ``scope='graphs'`` enumerates every graph with up to n_max vertices up
    to isomorphism (or, with ``sample``, that many random isomorphism
    classes on exactly n_max vertices); ``scope='trigraphs_in_F'`` plants
    legal switchable components into graphs on up to n_max base vertices.
    Instances failing a precondition are filtered, everything else must end
    complete or with an oracle-verified even pair; failures are collected,
    not raised.  A JSON-lines log gets one record per instance; its path is
    opened before the first instance runs, so an unwritable one raises
    OSError at once.  An n_max outside 1..ENUMERATION_CAP, an unsampled
    n_max above EXHAUSTIVE_CAP, a sample with another scope, and a sample
    the sampler cannot fill raise InputError, a sample above the classes on
    n_max vertices before the first draw.  The environment variable
    EVENPAIRS_WORKERS is the only worker setting: it names how many
    processes run the instances (default 1), and a value that is not an
    integer >= 1 raises InputError too.
    """
    if not 1 <= n_max <= ENUMERATION_CAP:
        raise InputError(f"n_max {n_max} is outside 1..{ENUMERATION_CAP}")
    if sample is not None and (scope != "graphs" or sample < 1):
        raise InputError(f"sample {sample} needs scope 'graphs' and a positive count")
    if sample is not None and sample > GRAPH_CLASSES[n_max - 1]:
        raise InputError(f"could not collect {sample} distinct graphs on {n_max} "
                         f"vertices: there are {GRAPH_CLASSES[n_max - 1]:,} classes")
    if sample is None and n_max > EXHAUSTIVE_CAP:
        raise InputError(f"an exhaustive run at n_max {n_max} would hold all {GRAPH_CLASSES[-1]:,}"
                         f" graphs on {ENUMERATION_CAP} vertices; sample graphs with --sample")
    value = os.environ.get(WORKERS_ENV, "1")
    try:
        workers = int(value)
    except ValueError:
        workers = 0
    if workers < 1:
        raise InputError(f"{WORKERS_ENV}={value!r} is not an integer >= 1")
    instances = _instances_for(scope, n_max, sample, seed)
    tally, failures, lines = Counter(), [], []
    with (open(log_path, "w", encoding="ascii") if log_path else nullcontext()) as log:
        pool = None
        if workers > 1:
            # deferred, so that a cold start does not import it
            from concurrent.futures import ProcessPoolExecutor

            pool = ProcessPoolExecutor(max_workers=workers)
        with pool or nullcontext():
            records = (pool.map(_run_instance, instances, chunksize=64) if pool
                       else map(_run_instance, instances))
            # tallied as they arrive, in instance order; only a failure or a
            # log line needs the instance text
            for T, record in zip(instances, records):
                status = record["status"]
                tally[status] += 1
                failed = status not in ("filtered", "complete", "even_pair")
                if not (failed or log):
                    continue
                record["instance"] = text = to_text(T)
                key = (T.n, text)
                if failed:
                    failures.append((key, FailureRecord(
                        text, record.get("stage", "?"), record.get("detail", "?"))))
                if log:
                    lines.append((key, json.dumps(record, sort_keys=True)))
        for _, line in sorted(lines, key=lambda item: item[0]):
            log.write(line + "\n")
    failures.sort(key=lambda item: item[0])
    return VerifySummary(scope, n_max, len(instances), len(instances) - tally["filtered"],
                         tally["complete"], tally["even_pair"], tuple(f for _, f in failures))
