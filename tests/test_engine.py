import hashlib
import json
import random
from collections import Counter

import pytest

from evenpairs import trigraph
from evenpairs.basic import FavorabilityVerdict
from evenpairs.canonical import relabel
from evenpairs.cli import main
from evenpairs.corpus import (graphs_of_order, graphs_upto,
                              planted_class_f_trigraphs)
from evenpairs.decomposition import ShapeReport, find_balanced_skew_partition
from evenpairs.detect import EvenPairReport, find_prism, is_berge, is_even_pair
from evenpairs.engine import (GRAPH_CLASSES, PRECONDITIONS, _run_instance,
                              check_preconditions, find_even_pair_structured,
                              verify_main_theorem)
from evenpairs.families import complete_graph, prism3
from evenpairs.formats import from_graph6, from_text
from evenpairs.trigraph import ClassFVerdict, complement, make_trigraph

from conftest import count_calls


def failed_names(report):
    return {c.name for c in report.checks if not c.passed}


def test_preconditions_pass_c6(c6):
    report = check_preconditions(c6)
    assert report.ok and tuple(c.name for c in report.checks) == PRECONDITIONS


def test_preconditions_p4_bsp(p4):
    report = check_preconditions(p4)
    assert failed_names(report) == {"no_balanced_skew_partition"}
    assert report.first_failure.witness.balanced


def test_precondition_verdicts_do_not_move_under_relabelling():
    # a metamorphic relation that needs no oracle: every check is a
    # property of the isomorphism class, so a relabelling, which reorders
    # every search and so every cut that depends on the vertex order, must
    # give each check the same pass or fail; one seeded permutation per
    # instance
    instances = list(graphs_upto(7)) + list(planted_class_f_trigraphs(6))
    moved = prisms = 0
    for index, T in enumerate(instances):
        perm = list(range(T.n))
        random.Random(index).shuffle(perm)
        R = relabel(T, tuple(perm))
        verdicts = [[(c.name, c.passed) for c in check_preconditions(X).checks]
                    for X in (T, R)]
        assert verdicts[0] == verdicts[1], (T, perm)
        has_prism = find_prism(T, "odd") is not None
        assert has_prism == (find_prism(R, "odd") is not None), (T, perm)
        moved += perm != sorted(perm)
        prisms += has_prism
    assert len(instances) == 1252 + 379
    assert moved > 1500 and prisms > 10


def _census_with_permutations():
    """Graphs <= 7 and planted base <= 6, each with the seeded permutation
    of the relabelling test above."""
    instances = list(graphs_upto(7)) + list(planted_class_f_trigraphs(6))
    for index, T in enumerate(instances):
        perm = list(range(T.n))
        random.Random(index).shuffle(perm)
        yield T, tuple(perm), index < 1252


def test_balanced_skew_partitions_do_not_move_under_complementation():
    # a skew partition of T is one of its complement with the sides swapped,
    # and balance is self-complementary on Berge trigraphs
    berge, without = Counter(), Counter()
    for T, _, is_graph in _census_with_permutations():
        if not is_berge(T)[0]:
            continue
        none = find_balanced_skew_partition(T) is None
        assert none == (find_balanced_skew_partition(complement(T)) is None), T
        berge[is_graph] += 1
        without[is_graph] += none
    assert (berge[True], berge[False]) == (1105, 379)
    assert (without[True], without[False]) == (19, 21)


def test_structured_outcomes_do_not_move_under_relabelling():
    # every passer ends the same way after a relabelling, and the pair the
    # engine returns for the relabelled instance is an even pair of it
    passers = Counter()
    for T, perm, is_graph in _census_with_permutations():
        result = find_even_pair_structured(T)
        if result.outcome == "precondition_failed":
            continue
        R = relabel(T, perm)
        moved = find_even_pair_structured(R)
        assert moved.outcome == result.outcome, (T, perm)
        if moved.outcome == "even_pair":
            assert is_even_pair(R, *moved.pair).is_even_pair, (T, perm)
        passers[is_graph, result.outcome] += 1
    assert passers == {(True, "complete"): 7, (True, "even_pair"): 11,
                       (False, "complete"): 1, (False, "even_pair"): 19}


def test_graph_class_counts_match_the_enumeration():
    assert [len(graphs_of_order(n)) for n in range(1, 8)] == list(GRAPH_CLASSES[:7])


def test_preconditions_prism():
    report = check_preconditions(prism3())
    assert {"no_odd_prism", "no_long_antihole"} <= failed_names(report)


def test_preconditions_c5(c5):
    report = check_preconditions(c5, fast=True)
    assert report.first_failure.name == "berge"
    assert report.first_failure.witness.length == 5


def test_preconditions_trigraph_antihole_threshold():
    # trigraph inputs are screened for any antihole (threshold five)
    t = make_trigraph(2, [(0, 1, 0)])
    report = check_preconditions(t)
    assert report.ok


def test_structured_c6(c6):
    result = find_even_pair_structured(c6)
    assert result.outcome == "even_pair" and result.pair == (0, 2)
    assert result.trace[-1]["step"] == "basic_leaf"


def test_structured_complete(c="ignored"):
    result = find_even_pair_structured(complete_graph(5))
    assert result.outcome == "complete" and result.pair is None


def test_structured_c8_oracle_checked(c8):
    result = find_even_pair_structured(c8)
    assert result.outcome == "even_pair"
    assert is_even_pair(c8, *result.pair).is_even_pair


def test_structured_precondition_failure(p4):
    result = find_even_pair_structured(p4)
    assert result.outcome == "precondition_failed"
    assert result.report.first_failure.name == "no_balanced_skew_partition"


def test_fast_pass_stops_at_class_membership():
    # Berge, with no prism or antihole, but two switchable components
    t = make_trigraph(4, [(0, 1, 0), (2, 3, 0)])
    result = find_even_pair_structured(t)
    assert result.outcome == "precondition_failed"
    assert tuple(c.name for c in result.report.checks) == PRECONDITIONS[:4]
    assert result.report.first_failure.witness == "more than one switchable component"
    assert _run_instance(t)["failed_check"] == "class_membership"


def test_structured_trigraph_block(c8):
    # the small-marker block of the C8 join goes through the basic leaf
    # with a pair disjoint from its switchable component
    from evenpairs.decomposition import build_block, find_2join

    block = build_block(c8, find_2join(c8), 1)
    result = find_even_pair_structured(block.trigraph)
    assert result.outcome == "even_pair"
    assert not (set(result.pair) & set(block.markers))


def test_verify_graphs_small():
    summary = verify_main_theorem(5, "graphs")
    assert summary.ok
    assert summary.instances == 52
    assert summary.filtered_in == summary.complete + summary.even_pair
    assert summary.complete == 5  # one complete graph per order


def test_verify_trigraphs_small():
    summary = verify_main_theorem(5, "trigraphs_in_F")
    assert summary.ok and summary.instances > 0


def test_verify_opens_its_log_before_the_run(monkeypatch, capsys, tmp_path):
    # a directory is no writable log: the run fails before any instance
    from evenpairs import engine

    monkeypatch.delenv("EVENPAIRS_WORKERS", raising=False)
    runs = count_calls(monkeypatch, engine, "_run_instance")
    with pytest.raises(OSError):
        verify_main_theorem(4, "graphs", log_path=str(tmp_path))
    assert main(["verify", "--nmax", "7", "--emit-cert", str(tmp_path)]) == 2
    assert json.loads(capsys.readouterr().err)["error"]
    assert len(runs) == 0


def test_verify_log_records(tmp_path):
    log = tmp_path / "log.jsonl"
    summary = verify_main_theorem(4, "graphs", log_path=str(log))
    lines = [json.loads(line) for line in log.read_text().splitlines()]
    assert len(lines) == summary.instances
    statuses = {r["status"] for r in lines}
    assert statuses <= {"filtered", "complete", "even_pair"}
    # records replay: re-running an instance gives the same status
    sample = lines[0]
    from evenpairs.engine import _run_instance

    assert _run_instance(from_text(sample["instance"]))["status"] == sample["status"]


def test_verify_runs_instances_without_parsing(monkeypatch):
    # the harness runs each corpus trigraph as it is; only its log record
    # holds the text
    import evenpairs.engine as engine
    import evenpairs.formats as formats

    engine._instances_for("graphs", 5, None, 0)  # corpora are cached
    parses = count_calls(monkeypatch, formats, "from_text")
    assert verify_main_theorem(5, "graphs").ok
    assert parses == []


def test_verify_sampled():
    summary = verify_main_theorem(8, "graphs", sample=60, seed=3)
    assert summary.ok and summary.instances == 60


def test_verify_rejects_large_n():
    with pytest.raises(ValueError):
        verify_main_theorem(25, "graphs")
    with pytest.raises(ValueError):
        verify_main_theorem(5, "everything")


def test_verify_workers_match_sequential(monkeypatch, tmp_path):
    monkeypatch.setenv("EVENPAIRS_WORKERS", "1")
    seq = verify_main_theorem(4, "graphs", log_path=str(tmp_path / "1"))
    monkeypatch.setenv("EVENPAIRS_WORKERS", "2")
    par = verify_main_theorem(4, "graphs", log_path=str(tmp_path / "2"))
    assert (seq.instances, seq.filtered_in, seq.complete, seq.even_pair) == \
        (par.instances, par.filtered_in, par.complete, par.even_pair)
    # records come back in instance order, which pairs each with its text
    assert (tmp_path / "1").read_bytes() == (tmp_path / "2").read_bytes()


def test_verify_writes_instance_text_only_for_kept_records(monkeypatch, tmp_path):
    # a clean unlogged run serializes nothing; a logged one each instance once
    import evenpairs.engine as engine
    import evenpairs.formats as formats

    monkeypatch.delenv("EVENPAIRS_WORKERS", raising=False)
    engine._instances_for("graphs", 7, None, 0)  # corpora are cached
    texts = count_calls(monkeypatch, formats, "to_text")
    assert verify_main_theorem(7, "graphs").ok
    assert texts == []
    summary = verify_main_theorem(7, "graphs", log_path=str(tmp_path / "log"))
    assert summary.ok and len(texts) == summary.instances == 1252


def test_precondition_filter_builds_no_complement(monkeypatch):
    # the antihole searches and the balance test read the complement's
    # masks off T, swapped
    complements = count_calls(monkeypatch, trigraph, "complement")
    pool = list(graphs_upto(7)) + list(planted_class_f_trigraphs(6))
    for t in pool:
        for fast in (True, False):
            check_preconditions(t, fast=fast)
    assert complements == []


def test_structured_two_join_branch_wiring(c8, monkeypatch):
    # Every precondition-passing instance at desk scale is basic, so the
    # decomposition branch never fires on the corpora; drive it directly by
    # making the top-level call refuse the basic shortcut.  The recursion
    # must pick the first join, build the block, solve it as a favorable
    # basic leaf, and lift a marker-free pair back.
    import evenpairs.engine as engine
    from evenpairs.basic import BasicClassification, classify_basic

    calls = {"n": 0}
    real = classify_basic

    def forced(t):
        calls["n"] += 1
        if calls["n"] == 1:
            return BasicClassification("not_basic")
        return real(t)

    monkeypatch.setattr(engine, "classify_basic", forced)
    trace: list = []
    outcome, pair = engine._structured(c8, False, trace)
    assert outcome == "even_pair"
    assert trace[0]["step"] == "two_join" and trace[0]["side"] == 1
    assert trace[0]["x1"] == [0, 1, 2, 3]
    assert trace[1]["step"] == "basic_leaf"
    assert is_even_pair(c8, *pair).is_even_pair
    assert set(pair) <= {0, 1, 2, 3}


def test_structured_two_join_keeps_switchable_side(monkeypatch):
    # C8 with one switchable edge; the first 2-join is X1 = {0..3},
    # X2 = {4..7}.  A switchable pair inside X1 forces the fragment onto
    # side 2, one inside X2 onto side 1.
    import evenpairs.engine as engine
    from evenpairs.basic import BasicClassification, classify_basic

    real = classify_basic
    sides = []
    for a in (0, 6):
        t = make_trigraph(8, [(a, a + 1, 0)] +
                          [(i, (i + 1) % 8, 1) for i in range(8) if i != a])
        assert check_preconditions(t, fast=True).ok

        calls = {"n": 0}

        def forced(x):
            calls["n"] += 1
            if calls["n"] == 1:
                return BasicClassification("not_basic")
            return real(x)

        monkeypatch.setattr(engine, "classify_basic", forced)
        trace: list = []
        outcome, pair = engine._structured(t, False, trace)
        assert outcome == "even_pair"
        join = trace[0]
        assert join["step"] == "two_join"
        assert (join["x1"], join["x2"]) == ([0, 1, 2, 3], [4, 5, 6, 7])
        d_side = {a, a + 1}
        chosen = set(join["x1"]) if join["side"] == 1 else set(join["x2"])
        assert not (chosen & d_side)
        assert not (set(pair) & d_side)
        assert is_even_pair(t, *pair).is_even_pair
        sides.append(join["side"])
    assert sides == [2, 1]


# Genuine class members that reach the line leaf and both 2-join marker
# kinds without monkeypatching.  Routes depend on the labelling, so each
# instance is pinned by its exact graph6 string.
GENUINE_ROUTES = [
    ("JEgA@@EHOE?", [{"step": "basic_leaf", "class": "line", "n": 11,
                      "pair": [0, 1]}], (0, 1)),
    ("JEgCBAEXOE?", [{"step": "two_join", "side": 1, "parity": "odd",
                      "x1": [1, 2, 3, 4], "x2": [0, 5, 6, 7, 8, 9, 10],
                      "block_n": 6, "marker_kind": "small"},
                     {"step": "basic_leaf", "class": "bipartite", "n": 6,
                      "pair": [0, 1]}], (1, 2)),
    ("K?ooD@Ogqd?K", [{"step": "two_join", "side": 1, "parity": "even",
                       "x1": [0, 1, 2, 3, 4, 5], "x2": [6, 7, 8, 9, 10, 11],
                       "block_n": 9, "marker_kind": "light"},
                      {"step": "basic_leaf", "class": "bipartite", "n": 9,
                       "pair": [0, 1]}], (0, 1)),
]


@pytest.mark.parametrize("g6, trace, pair", GENUINE_ROUTES,
                         ids=["line-leaf", "small-marker", "light-marker"])
def test_structured_routes_on_genuine_instances(capsys, g6, trace, pair):
    T = from_graph6(g6)
    result = find_even_pair_structured(T)
    assert result.outcome == "even_pair"
    assert list(result.trace) == trace
    assert result.pair == pair
    assert is_even_pair(T, *pair).is_even_pair
    assert main(["even-pair", g6]) == 0
    capsys.readouterr()


ENGINE_GUARDS = [
    ("find_2join", lambda *_: None,
     "non-basic precondition-passing trigraph admits no 2-join"),
    ("check_nobsp_2join_shape", lambda *_: ShapeReport(("injected",)),
     "2-join violates the required shape: ('injected',)"),
    ("in_class_F", lambda *_: ClassFVerdict(False, "injected"),
     "block of a proper 2-join left the class: injected"),
    ("is_even_pair", lambda T, u, v: EvenPairReport((u, v), "not_even_pair", None, 0),
     "lifted pair {pair} is not an even pair of the parent"),
    ("favorability", lambda *_: FavorabilityVerdict(False, "injected"),
     "block must be favorable but is not"),
]


@pytest.mark.parametrize("g6, pair", [(g6, pair) for g6, _, pair in GENUINE_ROUTES[1:]],
                         ids=["small-marker", "light-marker"])
@pytest.mark.parametrize("name, wrong, message", ENGINE_GUARDS,
                         ids=[name for name, _, _ in ENGINE_GUARDS])
def test_each_engine_guard_exits_three(capsys, monkeypatch, g6, pair, name, wrong,
                                       message):
    # one wrong answer from the sub-step a guard of the 2-join recursion
    # checks reaches that guard and no other, on a genuine 2-join instance
    import evenpairs.engine as engine

    monkeypatch.setattr(engine, name, wrong)
    assert main(["even-pair", g6]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"theorem_contradiction": message.format(pair=pair)}


CORPORA = [(5, "graphs"), (4, "trigraphs_in_F")]


@pytest.mark.parametrize("n_max, scope", CORPORA)
def test_verify_checks_each_instance_and_pair_once(monkeypatch, n_max, scope):
    import evenpairs.detect as detect
    import evenpairs.engine as engine

    # corpora are cached; build them first so only the verification counts
    engine._instances_for(scope, n_max, None, 0)
    preconditions = count_calls(monkeypatch, engine, "check_preconditions")
    berge = count_calls(monkeypatch, detect, "is_berge")
    oracle = count_calls(monkeypatch, detect, "is_even_pair")
    gadget = count_calls(monkeypatch, detect, "_gadget_sees_odd_path")
    summary = verify_main_theorem(n_max, scope)
    assert summary.ok and summary.even_pair > 0
    assert len(preconditions) == len(berge) == summary.instances
    assert len(oracle) == summary.even_pair
    if scope == "graphs":
        assert len(gadget) == summary.even_pair


@pytest.mark.parametrize("n_max, scope, digest", [
    (5, "graphs", "f31f75e26344799cb96fc8b833eef04510998beb76dc1df0989e6a299c955475"),
    (4, "trigraphs_in_F", "4d131ce87b7a25be75b5e76ea6ee9451b373bea577aba280865e53881f9d9c02"),
])
def test_verify_log_is_golden(tmp_path, n_max, scope, digest):
    log = tmp_path / "log.jsonl"
    verify_main_theorem(n_max, scope, log_path=str(log))
    assert hashlib.sha256(log.read_bytes()).hexdigest() == digest


def test_canonical_labelings_are_golden():
    from evenpairs.canonical import canonical_labeling

    h = hashlib.sha256()
    for t in graphs_of_order(6) + planted_class_f_trigraphs(4):
        form, perm = canonical_labeling(t)
        h.update(form + bytes(perm))
    assert h.hexdigest() == (
        "231a8166d2047a475674cf0be6f1b38b0f25044e987840d700a3bdf92d071252")


def test_oracle_rejection_is_recorded_as_failure(monkeypatch):
    # a finder whose pair the oracle rejects fails its instance, and the
    # harness records that instead of raising or counting the pair
    import evenpairs.basic as basic

    def rejecting(T, u, v):
        return EvenPairReport((u, v), "not_even_pair", None, 0)

    monkeypatch.setattr(basic, "is_even_pair", rejecting)
    summary = verify_main_theorem(5, "graphs")
    assert summary.even_pair == 0
    assert summary.complete == 5
    assert len(summary.failures) == 8
    assert all(f.stage == "TheoremContradictionError"
               and "fails the oracle" in f.detail for f in summary.failures)
    # listed in (n, instance) order, which is not the enumeration order,
    # each with the text of its own instance
    keys = [(from_text(f.instance).n, f.instance) for f in summary.failures]
    assert keys == sorted(keys)
    assert {from_text(f.instance) for f in summary.failures} <= set(graphs_upto(5))
