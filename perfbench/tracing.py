"""Spans and counters recorded from outside the library.

``Tracer.install`` replaces each listed evenpairs function, under every
``evenpairs`` module name that binds it, with a wrapper that records a span
(name, start, end, parent) and feeds its result to an optional hook that
updates route counters.  ``Tracer.uninstall`` puts the originals back.  The
library itself is not changed; with the tracer uninstalled it runs exactly
the code a user gets.

Spans are kept in memory, in flat arrays, and written out once at the end.
Per-function call counts and self times (span duration minus the time its
child spans cover) are accumulated as spans close, so they stay exact even
when the stored span list reaches its cap.
"""

from __future__ import annotations

import functools
import sys
from array import array
from collections import Counter
from time import perf_counter

# Metric prefix -> (module, attribute).  ``trigraph.Trigraph`` times
# construction, by wrapping ``Trigraph.__init__``; ``detect.gadget`` is the
# private second even-pair route, traced when the module still has it.
LAYER_FUNCTIONS = (
    ("trigraph.Trigraph", "trigraph", "Trigraph.__init__"),
    ("trigraph.complement", "trigraph", "complement"),
    ("trigraph.in_class_F", "trigraph", "in_class_F"),
    ("trigraph.components", "trigraph", "components"),
    ("detect.is_berge", "detect", "is_berge"),
    ("detect.find_prism", "detect", "find_prism"),
    ("detect.find_antihole_of_length_at_least", "detect",
     "find_antihole_of_length_at_least"),
    ("detect.is_even_pair", "detect", "is_even_pair"),
    ("detect.gadget", "detect", "_gadget_sees_odd_path"),
    ("decomposition.find_balanced_skew_partition", "decomposition",
     "find_balanced_skew_partition"),
    ("decomposition.find_2join", "decomposition", "find_2join"),
    ("decomposition.find_complement_2join", "decomposition",
     "find_complement_2join"),
    ("decomposition.build_block", "decomposition", "build_block"),
    ("basic.classify_basic", "basic", "classify_basic"),
    ("basic.is_favorable", "basic", "is_favorable"),
    ("basic.even_pair_basic", "basic", "even_pair_basic"),
    ("engine.check_preconditions", "engine", "check_preconditions"),
    ("engine.find_even_pair_structured", "engine", "find_even_pair_structured"),
    ("engine.verify_main_theorem", "engine", "verify_main_theorem"),
    ("canonical.canonical_form", "canonical", "canonical_form"),
    ("corpus.graphs_upto", "corpus", "graphs_upto"),
    ("corpus.planted_class_f_trigraphs", "corpus", "planted_class_f_trigraphs"),
    ("corpus.random_canonical_graphs", "corpus", "random_canonical_graphs"),
    ("contraction.run_contraction_sequence", "contraction",
     "run_contraction_sequence"),
    ("contraction.contract_even_pair", "contraction", "contract_even_pair"),
    ("contraction.derive_coloring", "contraction", "derive_coloring"),
    ("formats.from_text", "formats", "from_text"),
    ("formats.to_text", "formats", "to_text"),
    ("formats.from_graph6", "formats", "from_graph6"),
    ("certs.to_jsonable", "certs", "to_jsonable"),
    ("cli.main", "cli", "main"),
)

LEAF_CLASSES = ("bipartite", "complement_bipartite", "line", "complement_line",
                "doubled")
FILTER_CHECKS = ("berge", "no_odd_prism", "no_long_antihole",
                 "class_membership", "no_balanced_skew_partition")

# Spans kept for the written trace; counts and self times cover every span.
MAX_STORED_SPANS = 1_000_000


# Hooks read results with getattr, so that a library change in a result's
# shape shows as a zero count instead of an error inside the traced call.
def _count_even(counters: Counter, result) -> None:
    counters["detect.is_even_pair.even"] += bool(
        getattr(result, "is_even_pair", False))


def _count_bsp(counters: Counter, result) -> None:
    counters["decomposition.bsp.found"] += result is not None


def _count_route(counters: Counter, result) -> None:
    for step in getattr(result, "trace", ()):
        if step.get("step") == "basic_leaf":
            counters[f"basic.leaf.{step.get('class')}"] += 1
        elif step.get("step") == "two_join":
            counters["engine.two_join.levels"] += 1
    if getattr(result, "outcome", None) == "even_pair":
        counters["engine.pairs_returned"] += 1


def _count_instances(counters: Counter, result) -> None:
    counters["engine.instances"] += getattr(result, "instances", 0)


HOOKS = {
    "detect.is_even_pair": _count_even,
    "decomposition.find_balanced_skew_partition": _count_bsp,
    "engine.find_even_pair_structured": _count_route,
    "engine.verify_main_theorem": _count_instances,
}


class Tracer:
    """Span recorder plus route counters for one benchmark process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.spans_seen = 0
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counters: Counter = Counter()
        # open spans: [stored index or -1, name, start, child time]
        self._stack: list[list] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------
    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def begin(self, name: str) -> None:
        start = perf_counter()
        index = -1
        if len(self.span_start) < MAX_STORED_SPANS:
            index = len(self.span_start)
            self.span_name.append(self._name_id(name))
            self.span_parent.append(self._stack[-1][0] if self._stack else -1)
            self.span_start.append(start)
            self.span_end.append(start)
        self._stack.append([index, name, start, 0.0])

    def end(self) -> None:
        end = perf_counter()
        index, name, start, child = self._stack.pop()
        duration = end - start
        if index >= 0:
            self.span_end[index] = end
        self.spans_seen += 1
        self.calls[name] += 1
        self.self_s[name] += duration - child
        if self._stack:
            self._stack[-1][3] += duration

    def _wrap(self, name: str, fn):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end()
            if hook is not None:
                hook(self.counters, result)
            return result

        return traced

    # -- installation --------------------------------------------------------
    def install(self) -> None:
        """Wrap every listed function under each evenpairs name binding it."""
        modules = [m for k, m in sorted(sys.modules.items()) if m is not None
                   and (k == "evenpairs" or k.startswith("evenpairs."))]
        for name, module_name, attr in LAYER_FUNCTIONS:
            module = sys.modules.get(f"evenpairs.{module_name}")
            if module is None:
                continue
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name, None)
                original = vars(cls).get(method) if isinstance(cls, type) else None
                if original is None:
                    continue
                self._restore.append((cls, method, original))
                setattr(cls, method, self._wrap(name, original))
                continue
            original = getattr(module, attr, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- output --------------------------------------------------------------
    def snapshot(self) -> dict[str, Counter]:
        return {"calls": Counter(self.calls), "self_s": Counter(self.self_s),
                "counters": Counter(self.counters)}

    def write_spans(self, path) -> int:
        """Write stored spans as tab-separated lines; returns the count."""
        with open(path, "w", encoding="ascii") as fh:
            fh.write("index\tname\tstart_s\tend_s\tparent\n")
            names = self.names
            for i in range(len(self.span_start)):
                fh.write(f"{i}\t{names[self.span_name[i]]}\t{self.span_start[i]:.9f}\t"
                         f"{self.span_end[i]:.9f}\t{self.span_parent[i]}\n")
        return len(self.span_start)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(setup: dict, passes: dict, n_passes: int,
                  overhead_ratio: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics for one set-up plus one pass of the workload.

    ``setup`` holds the tracer totals after the traced set-up, ``passes``
    the totals added by ``n_passes`` traced passes on top of them.
    """
    def value(kind: str, key: str) -> float:
        return setup[kind][key] + _ratio(passes[kind][key], n_passes)

    out: dict[str, tuple[float, str]] = {}
    for name, _module, _attr in LAYER_FUNCTIONS:
        out[f"{name}.calls"] = (value("calls", name), "count")
        out[f"{name}.self_s"] = (value("self_s", name), "s")
    c = functools.partial(value, "counters")
    calls = functools.partial(value, "calls")
    out["detect.is_even_pair.per_returned_pair"] = (
        _ratio(calls("detect.is_even_pair"), c("engine.pairs_returned")), "ratio")
    out["detect.is_even_pair.even_ratio"] = (
        _ratio(c("detect.is_even_pair.even"), calls("detect.is_even_pair")), "ratio")
    out["decomposition.bsp.found_ratio"] = (
        _ratio(c("decomposition.bsp.found"),
               calls("decomposition.find_balanced_skew_partition")), "ratio")
    out["engine.check_preconditions.per_instance"] = (
        _ratio(calls("engine.check_preconditions"), c("engine.instances")), "ratio")
    out["contraction.contract_even_pair.per_graph"] = (
        _ratio(calls("contraction.contract_even_pair"),
               calls("contraction.run_contraction_sequence")), "ratio")
    out["engine.pairs_returned"] = (c("engine.pairs_returned"), "count")
    out["engine.instances"] = (c("engine.instances"), "count")
    out["engine.two_join.levels"] = (c("engine.two_join.levels"), "count")
    for leaf in LEAF_CLASSES:
        out[f"basic.leaf.{leaf}"] = (c(f"basic.leaf.{leaf}"), "count")
    for check in FILTER_CHECKS:
        out[f"engine.filter.{check}"] = (c(f"engine.filter.{check}"), "count")
    out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return out
