"""The workloads, each driving evenpairs the way its users do.

Every workload has the same shape:

- ``load()`` imports the library and ``prepare(seed)`` builds the inputs and
  warms the library's caches; together they are the timed set-up;
- ``pass_ops(index)`` lists the operations of pass ``index``, each a
  callable returning an ``OpResult`` that carries its own library-call time
  (output checks run outside it);
- ``end_pass(index, complete)`` runs the checks that need a whole pass and
  returns how many failed.

``whole_passes`` says whether a run may stop only between passes.

The seed only shapes the inputs: the library sees graphs, command lines
and, for the sampled census, the ``seed`` argument of its own API.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
import sys
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parent.parent / "src"


@dataclass
class OpResult:
    seconds: float   # time inside the library call(s) of this operation
    units: int       # work items completed, for the throughput metric
    attempted: int   # items counted toward the failure ratio
    failed: int
    key: object      # what the operation does; None if not a latency sample


def _report(exc: BaseException) -> None:
    print("operation failed:", file=sys.stderr)
    traceback.print_exception(exc, file=sys.stderr)


def _check_source(module) -> None:
    """Refuse to measure a copy of evenpairs from outside this checkout."""
    where = Path(module.__file__).resolve().parent
    if where != SRC / "evenpairs":
        raise RuntimeError(f"evenpairs imported from {where}, not from {SRC}")


class Census:
    """``verify_main_theorem`` over the acceptance corpora.

    A pass verifies every graph on up to ``nmax`` vertices, the planted
    class-F trigraphs on base up to ``planted``, and ``batches`` seeded
    samples of ``batch`` isomorphism classes on ``sample_n`` vertices.  The
    sample is verified in separate jobs, as a user sharding the census
    would, and those equal-sized jobs are the latency samples; there are
    enough of them for a tail with ten jobs beyond it.
    """

    name = "census"
    whole_passes = True  # the pass mixes corpora of different per-item cost
    # (scope, n_max) -> (instances, filtered_in, complete, even_pair)
    EXPECTED = {("graphs", 7): (1252, 18, 7, 11),
                ("trigraphs_in_F", 6): (379, 20, 1, 19),
                ("graphs", 5): (52, 13, 5, 8),
                ("trigraphs_in_F", 4): (21, 13, 1, 12)}

    def __init__(self, tiny: bool, out_dir: Path):
        self.nmax, self.planted, self.sample_n, self.batches, self.batch = (
            (5, 4, 6, 2, 10) if tiny else (7, 6, 8, 100, 20))
        self.log_path = out_dir / "census-verify-log.jsonl"
        # set by the traced run: verify then writes its JSON log, and the
        # filter reasons in it are counted here
        self.filter_counts: Counter | None = None

    def load(self) -> None:
        import evenpairs
        from evenpairs import corpus, engine
        _check_source(evenpairs)
        self.corpus, self.engine = corpus, engine

    def prepare(self, seed: int) -> None:
        self.corpus.graphs_upto(self.nmax)
        self.corpus.planted_class_f_trigraphs(self.planted)
        self.seeds = [seed * self.batches + i for i in range(self.batches)]

    def cold_args(self) -> list[str]:
        return ["verify", "--nmax", "5"]

    def pass_ops(self, index: int) -> list:
        ops = [lambda: self._verify("graphs", self.nmax, None, None),
               lambda: self._verify("trigraphs_in_F", self.planted, None, None)]
        ops += [lambda s=s: self._verify("graphs", self.sample_n, self.batch, s)
                for s in self.seeds]
        return ops

    def _verify(self, scope: str, n_max: int, sample: int | None,
                seed: int | None) -> OpResult:
        expected = self.EXPECTED.get((scope, n_max)) if sample is None else None
        size = sample if sample is not None else expected[0]
        log = str(self.log_path) if self.filter_counts is not None else None
        start = perf_counter()
        try:
            summary = self.engine.verify_main_theorem(
                n_max, scope, sample=sample, seed=seed or 0, log_path=log)
        except Exception as exc:
            _report(exc)
            return OpResult(perf_counter() - start, 0, size, size, None)
        seconds = perf_counter() - start
        failed = len(summary.failures)
        got = (summary.instances, summary.filtered_in, summary.complete,
               summary.even_pair)
        if sample is None:
            failed += got != expected
        else:
            failed += summary.instances != sample
            failed += summary.filtered_in != summary.complete + summary.even_pair
        if failed:
            print(f"census check failed for {scope} n_max={n_max} "
                  f"sample={sample} seed={seed}: got {got}, expected {expected}, "
                  f"failures {summary.failures[:3]}", file=sys.stderr)
        if log is not None:
            self._count_filters()
        return OpResult(seconds, summary.instances, summary.instances, failed,
                        seed if sample is not None else None)

    def _count_filters(self) -> None:
        with open(self.log_path, encoding="ascii") as fh:
            for line in fh:
                record = json.loads(line)
                if record.get("status") == "filtered":
                    check = record.get("failed_check")
                    self.filter_counts[f"engine.filter.{check}"] += 1

    def end_pass(self, index: int, complete: bool) -> int:
        return 0


def _clique_number(n: int, edges) -> int:
    """Largest clique, by branch and bound over bitmasks."""
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    best = 0

    def grow(candidates: int, size: int) -> None:
        nonlocal best
        best = max(best, size)
        while candidates and size + bin(candidates).count("1") > best:
            v = candidates.bit_length() - 1
            candidates &= ~(1 << v)
            grow(candidates & adj[v], size + 1)

    grow((1 << n) - 1, 0)
    return best


class Queries:
    """Single CLI calls, in process, from one closed-loop client.

    Round ``r`` holds one query per command for every input: an even cycle
    for each even n and seeded random graphs for each n (a bipartite graph,
    the complement of another, and G(n, 0.3); three of each for
    n <= SMALL_N), in a seeded order.  ``contract-color`` runs the
    contraction pipeline on the Berge inputs and stops at the Bergeness
    check on the others.
    The loop runs round after round; every round draws fresh random graphs,
    while the cycles repeat and must answer the same each time.
    """

    name = "queries"
    whole_passes = False
    COMMANDS = ("analyze", "even-pair", "classify", "decompose",
                "contract-color")
    # Random inputs this small are cheap, so a round draws several of each:
    # the calls near the median then average over many graphs instead of
    # hanging on one draw.
    SMALL_N, SMALL_DRAWS = 13, 3

    def __init__(self, tiny: bool, out_dir: Path):
        self.sizes = range(6, 9) if tiny else range(10, 17)

    def load(self) -> None:
        import evenpairs
        from evenpairs import cli, detect, families, formats, trigraph
        _check_source(evenpairs)
        self.cli, self.families, self.formats, self.trigraph = (
            cli, families, formats, trigraph)
        # bound now, so that output checks never run through the tracer
        self.is_even_pair = detect.is_even_pair

    def prepare(self, seed: int) -> None:
        self.seed = seed
        self.round_index, self.round = 0, self._make_round(0)
        self.digests: dict[int, str] = {}
        self.cycle_answers: dict[tuple[str, int], tuple[int, str]] = {}

    def cold_args(self) -> list[str]:
        return ["analyze", self.formats.to_graph6(self.families.cycle(6))]

    def _make_round(self, r: int) -> list[tuple]:
        rng = random.Random(f"evenpairs-queries/{self.seed}/{r}")
        tg = self.trigraph

        def bipartite(n: int):
            side = [rng.random() < 0.5 for _ in range(n)]
            return tg.graph_from_edges(n, [
                (u, v) for u, v in itertools.combinations(range(n), 2)
                if side[u] != side[v] and rng.random() < 0.4])

        def gnp(n: int):
            return tg.graph_from_edges(n, [
                (u, v) for u, v in itertools.combinations(range(n), 2)
                if rng.random() < 0.3])

        inputs = []
        for n in self.sizes:
            if n % 2 == 0:
                inputs.append(("cycle", n, self.families.cycle(n)))
            for _ in range(self.SMALL_DRAWS if n <= self.SMALL_N else 1):
                inputs.append(("bipartite", n, bipartite(n)))
                inputs.append(("co-bipartite", n, tg.complement(bipartite(n))))
                inputs.append(("gnp", n, gnp(n)))
        queries = [(cmd, family, n, G, self.formats.to_graph6(G))
                   for family, n, G in inputs for cmd in self.COMMANDS]
        rng.shuffle(queries)
        return queries

    def pass_ops(self, index: int) -> list:
        if index != self.round_index:
            self.round_index, self.round = index, self._make_round(index)
        self.hasher = hashlib.sha256()
        return [lambda q=q: self._query(q) for q in self.round]

    def _query(self, query: tuple) -> OpResult:
        cmd, family, n, G, g6 = query
        out, err = io.StringIO(), io.StringIO()
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main([cmd, g6])
        except SystemExit as exc:  # argparse exits on a command line it rejects
            code = exc.code
        except Exception as exc:
            _report(exc)
            return OpResult(perf_counter() - start, 0, 1, 1, (cmd, family, n))
        seconds = perf_counter() - start
        text = out.getvalue()
        self.hasher.update(f"{cmd} {g6} {code}\n{text}".encode())
        if code not in (0, 1):
            problem = f"exit code {code}: {err.getvalue().strip()}"
        else:
            problem = self._check_output(cmd, G, code, text, err.getvalue())
        if family == "cycle" and problem is None:
            first = self.cycle_answers.setdefault((cmd, n), (code, text))
            if first != (code, text):
                problem = "answer differs from an earlier round"
        if problem:
            print(f"query {cmd} {g6} ({family}, n={n}): {problem}", file=sys.stderr)
        return OpResult(seconds, 1, 1, int(problem is not None), (cmd, family, n))

    def _check_output(self, cmd: str, G, code: int, text: str,
                      err: str) -> str | None:
        if code == 1 and not text:
            # a refused input (contract-color on a non-Berge graph) is
            # reported on stderr only
            try:
                refusal = json.loads(err)
            except ValueError:
                refusal = None
            if isinstance(refusal, dict) and "precondition_failure" in refusal:
                return None
            return "exit code 1 with no report"
        try:
            doc = json.loads(text)
        except ValueError:
            return "output is not JSON"
        if not isinstance(doc, dict) or doc.get("command") != cmd:
            return "output does not name the command"
        if cmd == "even-pair":
            result = doc.get("result") or {}
            if result.get("outcome") == "even_pair":
                pair = result.get("pair")
                if not (isinstance(pair, list) and len(pair) == 2):
                    return f"even-pair outcome with pair {pair!r}"
                if not self.is_even_pair(G, *pair).is_even_pair:
                    return f"returned pair {pair} is not an even pair"
        if cmd == "contract-color" and doc.get("coloring") is not None:
            colors = doc["coloring"].get("assignment")
            edges = G.strong_edges()
            if not (isinstance(colors, list) and len(colors) == G.n):
                return f"coloring {colors!r} does not cover the graph"
            if any(colors[u] == colors[v] for u, v in edges):
                return "coloring is not proper"
            if len(set(colors)) != _clique_number(G.n, edges):
                return "coloring does not use clique-number many colors"
        return None

    def end_pass(self, index: int, complete: bool) -> int:
        """Record the round's outcome digest; a round run twice (as the
        traced mode does) must digest the same both times."""
        if not complete:
            return 0
        digest = self.hasher.hexdigest()
        if self.digests.setdefault(index, digest) != digest:
            print(f"round {index} answered differently when repeated", file=sys.stderr)
            return 1
        return 0


WORKLOADS = {cls.name: cls for cls in (Census, Queries)}
