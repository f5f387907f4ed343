import hashlib
import itertools
import json
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evenpairs import cli
from evenpairs.cli import main
from evenpairs.contraction import ContractionSequence, ContractionStep, _merge
from evenpairs.detect import is_even_pair
from evenpairs.families import complete_graph, cycle, empty_graph, path_graph, prism3
from evenpairs.formats import from_graph6, from_text, to_graph6, to_text
from evenpairs.trigraph import is_complete

from conftest import check_witness_view, count_calls, merge_by_renumbering


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    doc = json.loads(captured.out) if captured.out.strip() else None
    return code, doc, captured.err


def test_analyze_pass(capsys, c6):
    code, doc, _ = run_cli(capsys, "analyze", to_graph6(c6))
    assert code == 0
    assert doc["report"]["ok"] is True


def test_analyze_bsp_failure_exit_one(capsys, p4):
    code, doc, _ = run_cli(capsys, "analyze", to_graph6(p4))
    assert code == 1
    names = {c["name"]: c["passed"] for c in doc["report"]["checks"]}
    assert names["no_balanced_skew_partition"] is False


def test_even_pair_command(capsys, c6):
    code, doc, _ = run_cli(capsys, "even-pair", to_graph6(c6))
    assert code == 0
    assert doc["result"]["outcome"] == "even_pair"
    assert doc["result"]["pair"] == [0, 2]


def test_even_pair_command_at_the_vertex_cap(capsys):
    # the even-pair gadget adds a vertex; it must not push C32 over the cap
    from evenpairs.detect import _gadget_sees_odd_path

    c32 = cycle(32)
    code, doc, err = run_cli(capsys, "even-pair", to_graph6(c32))
    assert code == 0, err
    assert doc["result"]["outcome"] == "even_pair"
    u, v = doc["result"]["pair"]
    assert is_even_pair(c32, u, v).is_even_pair
    assert _gadget_sees_odd_path(c32, u, v) is False
    assert _gadget_sees_odd_path(c32, 0, 3) is True


def test_even_pair_precondition_exit(capsys, p4):
    code, doc, _ = run_cli(capsys, "even-pair", to_graph6(p4))
    assert code == 1
    assert doc["result"]["outcome"] == "precondition_failed"


def test_contract_color(capsys, c6):
    code, doc, _ = run_cli(capsys, "contract-color", to_graph6(c6))
    assert code == 0
    assert doc["coloring"]["color_count"] == 2
    assert doc["sequence"]["outcome"] == "complete"


def test_contract_color_rejects_trigraph(capsys):
    code, _, err = run_cli(capsys, "contract-color", "trigraph 2\n0 1 S\n")
    assert code == 2 and "graph input" in err


def test_contract_color_non_berge_exit(capsys, c5):
    code, _, err = run_cli(capsys, "contract-color", to_graph6(c5))
    assert code == 1 and "Berge" in err


def test_decompose(capsys, c8):
    code, doc, _ = run_cli(capsys, "decompose", to_graph6(c8))
    assert code == 0
    assert doc["two_join"]["a1"] == [0] and doc["two_join"]["parity"] == "odd"
    assert len(doc["blocks"]) == 2
    assert doc["blocks"][0]["marker_kind"] == "small"


def test_decompose_none(capsys, c6):
    code, doc, _ = run_cli(capsys, "decompose", to_graph6(c6))
    assert code == 0 and doc["two_join"] is None and doc["blocks"] is None


def test_classify(capsys, c6):
    code, doc, _ = run_cli(capsys, "classify", to_graph6(c6))
    assert code == 0
    assert doc["classification"]["verdict"] == "bipartite"


def test_classify_trigraph_literal(capsys):
    code, doc, _ = run_cli(capsys, "classify", "trigraph 2\n0 1 S\n")
    assert code == 0 and doc["classification"]["verdict"] == "bipartite"


def test_classify_a_line_trigraph_whose_root_passes_the_cap(capsys):
    # ten disjoint triangles are the line graph of ten claws: 30 vertices,
    # whose root has 40 nodes
    from evenpairs.basic import line_root_of, verify_root_properties
    from evenpairs.trigraph import graph_from_edges

    triangles = graph_from_edges(30, [(3 * i + a, 3 * i + b) for i in range(10)
                                      for a, b in ((0, 1), (0, 2), (1, 2))])
    code, doc, err = run_cli(capsys, "classify", to_graph6(triangles))
    assert code == 0, err
    assert doc["classification"]["verdict"] == "line"
    assert doc["classification"]["line_root"]["root"].startswith("trigraph 40\n")
    root = line_root_of(triangles).root
    assert root.n == 40 and verify_root_properties(root).ok


def test_verify_command(capsys):
    code, doc, _ = run_cli(capsys, "verify", "--nmax", "4", "--scope", "graphs")
    assert code == 0
    assert doc["summary"]["failures"] == []


def test_input_error_exit_two(capsys):
    code, _, err = run_cli(capsys, "analyze", "trigraph 3\n0 1 E\n0 1 S\n")
    assert code == 2 and "duplicate" in err
    code, _, err = run_cli(capsys, "analyze", "Eh?not-a-graph6###")
    assert code == 2


def test_graph6_past_the_vertex_cap_exits_two(capsys):
    literal = chr(33 + 63) + "?" * (33 * 32 // 2 // 6)
    code, doc, err = run_cli(capsys, "analyze", literal)
    assert code == 2 and doc is None
    assert "vertex count 33 exceeds cap 32" in err


@pytest.mark.parametrize("case", ["input-directory", "non-ascii-input",
                                  "cert-directory"])
def test_unreadable_and_unwritable_paths_exit_two(capsys, tmp_path, case):
    non_ascii = tmp_path / "c6.txt"
    non_ascii.write_bytes("trigraph 2\n# caf\u00e9\n0 1 S\n".encode("utf-8"))
    args = {"input-directory": ["analyze", str(tmp_path)],
            "non-ascii-input": ["analyze", str(non_ascii)],
            "cert-directory": ["classify", "C~", "--emit-cert", str(tmp_path)]}[case]
    code, doc, err = run_cli(capsys, *args)
    assert code == 2 and doc is None
    assert json.loads(err)["error"]


def test_emit_cert_jsonl(capsys, tmp_path, c8):
    cert = tmp_path / "certs.jsonl"
    code, _, _ = run_cli(capsys, "even-pair", to_graph6(c8),
                         "--emit-cert", str(cert))
    assert code == 0
    lines = [json.loads(line) for line in cert.read_text().splitlines()]
    assert lines and lines[0]["kind"] == "engine_result"


def test_need_disjoint_flag(capsys, c8):
    from evenpairs.decomposition import build_block, find_2join

    block = build_block(c8, find_2join(c8), 1)
    code, doc, _ = run_cli(capsys, "even-pair", to_text(block.trigraph),
                           "--need-disjoint")
    assert code == 0
    assert not (set(doc["result"]["pair"]) & set(block.markers))


def test_need_disjoint_error_exit(capsys):
    # the engine pair (0, 2) of this small trigraph meets the switchable
    # pair {0, 1}, so the disjoint request fails with exit code 1
    code, doc, _ = run_cli(capsys, "even-pair", "trigraph 3\n0 1 S\n",
                           "--need-disjoint")
    assert code == 1
    assert doc["result"]["pair"] == [0, 2]
    assert doc["error"] == "no even pair disjoint from the switchable component"


def test_exit_codes_are_function_of_outcome(capsys, c5, c6, p4, k4):
    # outcome category fully determines the exit code across a fixture corpus
    fixtures = [c5, c6, p4, k4, cycle(8), prism3(), complete_graph(2)]
    for g in fixtures:
        code, doc, _ = run_cli(capsys, "even-pair", to_graph6(g))
        outcome = doc["result"]["outcome"]
        assert code == (0 if outcome in ("complete", "even_pair") else 1)


def test_parser_is_built_once(capsys, c6):
    # in-process callers run main many times; the parser is built on the
    # first call only
    cli.build_parser.cache_clear()
    for command in ("analyze", "classify", "contract-color"):
        assert main([command, to_graph6(c6)]) == 0
    capsys.readouterr()
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 2)


C6_G6 = to_graph6(cycle(6))


def _outcome(capsys, argv):
    """Exit code, stdout and stderr of ``main(argv)``, an argparse exit
    included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", [
    ["analyze", C6_G6], ["even-pair", C6_G6], ["even-pair", C6_G6, "--need-disjoint"],
    ["contract-color", C6_G6], ["decompose", C6_G6], ["classify", C6_G6],
    ["verify", "--nmax", "3"], ["verify", "--nmax", "3", "--scope", "trigraphs_in_F"],
    ["-h"], ["analyze", "-h"], ["verify", "--help"], [], ["frobnicate", C6_G6],
    ["analyze"], ["analyze", C6_G6, "--format", "xml"], ["analyze", "--format=graph6", C6_G6],
    ["verify"], ["analyze", C6_G6, "stray"], ["analyze", C6_G6, "--emit-cert"],
    ["analyze", "--", C6_G6], ["--format", "graph6", "analyze", C6_G6],
], ids=lambda argv: " ".join(argv) or "no-arguments")
def test_direct_dispatch_matches_the_full_parser(capsys, monkeypatch, argv):
    # a known command goes straight to its own parser; with no command
    # known, every command line takes build_parser().parse_args, and the
    # two must print and exit alike
    direct = _outcome(capsys, list(argv))
    monkeypatch.setattr(cli.build_parser(), "commands", {})
    assert _outcome(capsys, list(argv)) == direct


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "evenpairs.cli", "classify", to_graph6(cycle(4))],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["classification"]["verdict"] == "bipartite"


def test_help_lists_subcommands():
    proc = subprocess.run(
        [sys.executable, "-m", "evenpairs.cli", "--help"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    for name in ("analyze", "even-pair", "contract-color", "decompose",
                 "classify", "verify"):
        assert name in proc.stdout


@pytest.mark.parametrize("g6, code", [("EhEG", 0), (to_graph6(cycle(5)), 1)])
def test_closed_stdout_keeps_the_exit_code_and_a_quiet_stderr(g6, code):
    # the reader closes its end before the command starts, so the document
    # meets a broken pipe; that is no input error
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "evenpairs.cli", "analyze", g6],
                              stdout=write_end, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (code, "")


def test_even_pair_cert_line_is_golden(capsys, tmp_path, c6):
    # certificates are stable sorted-key JSON lines, diffable as goldens
    cert = tmp_path / "c.jsonl"
    code, _, _ = run_cli(capsys, "even-pair", to_graph6(c6),
                         "--emit-cert", str(cert))
    assert code == 0
    line = cert.read_text().splitlines()[0]
    assert line == (
        '{"kind": "engine_result", "outcome": "even_pair", "pair": [0, 2], '
        '"report": null, "trace": [{"class": "bipartite", "n": 6, '
        '"pair": [0, 2], "step": "basic_leaf"}]}'
    )


def test_verify_sampled_via_cli(capsys):
    code, doc, _ = run_cli(capsys, "verify", "--nmax", "8",
                           "--sample", "30", "--seed", "7")
    assert code == 0
    assert doc["summary"]["instances"] == 30
    assert doc["summary"]["failures"] == []


@pytest.mark.parametrize("args, message", [
    (["--nmax", "11"], "outside 1..10"),
    (["--nmax", "-2"], "outside 1..10"),
    (["--nmax", "4", "--scope", "trigraphs_in_F", "--sample", "2"], "scope 'graphs'"),
    (["--nmax", "3", "--sample", "10"], "could not collect 10"),
    (["--nmax", "3", "--sample", "0"], "positive count"),
    (["--nmax", "10"], "12,005,168 graphs on 10 vertices"),
    (["--nmax", "10", "--scope", "trigraphs_in_F"], "12,005,168"),
])
def test_verify_input_errors_exit_two(capsys, args, message):
    code, doc, err = run_cli(capsys, "verify", *args)
    assert code == 2 and doc is None
    assert message in json.loads(err)["error"]


def test_verify_reports_an_exhausted_sampler(capsys):
    # 156 is every class on 6 vertices, so the sample is not refused before
    # drawing, but the sampler's 400 draws per graph do not hit them all
    assert _outcome(capsys, ["verify", "--nmax", "6", "--sample", "156"]) == (
        2, "", '{"error": "could not collect 156 distinct graphs on 6 vertices"}\n')


@pytest.mark.parametrize("sample, code, instances", [(12, 2, None), (11, 0, 11)])
def test_verify_refuses_an_impossible_sample_before_drawing(capsys, monkeypatch,
                                                            sample, code, instances):
    # there are 11 graphs on 4 vertices: one more is refused with no draw
    from evenpairs import corpus

    draws = count_calls(monkeypatch, corpus, "random_canonical_graphs")
    got, doc, err = run_cli(capsys, "verify", "--nmax", "4", "--sample", str(sample))
    assert got == code
    if instances is None:
        assert draws == [] and doc is None
        assert json.loads(err)["error"] == ("could not collect 12 distinct graphs "
                                            "on 4 vertices: there are 11 classes")
    else:
        assert len(draws) == 1 and doc["summary"]["instances"] == instances


@pytest.mark.parametrize("value", ["abc", "0", "-3", "", "2.5"])
def test_verify_rejects_a_bad_worker_count(capsys, monkeypatch, value):
    monkeypatch.setenv("EVENPAIRS_WORKERS", value)
    code, doc, err = run_cli(capsys, "verify", "--nmax", "3")
    assert code == 2 and doc is None
    assert "EVENPAIRS_WORKERS" in json.loads(err)["error"]


def test_cli_import_leaves_the_process_pool_out():
    # verify imports the pool only when it runs more than one worker
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, evenpairs.cli; "
         "print([m for m in ('concurrent.futures', 'multiprocessing') "
         "if m in sys.modules])"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_import_leaves_numpy_out():
    # the library has no runtime dependency
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, evenpairs.cli; print('numpy' in sys.modules)"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def _seeded_graph(kind: str, n: int, seed: int):
    from evenpairs.trigraph import complement, graph_from_edges

    rng = random.Random(seed)
    pairs = list(itertools.combinations(range(n), 2))
    if kind == "gnp":
        return graph_from_edges(n, [p for p in pairs if rng.random() < 0.3])
    side = [rng.random() < 0.5 for _ in range(n)]
    G = graph_from_edges(n, [(u, v) for u, v in pairs
                             if side[u] != side[v] and rng.random() < 0.4])
    return complement(G) if kind == "co-bipartite" else G


CLI_DIGESTS = {
    "C10": "cfd9d8aea60fe42598d93bbc0ee6077bbc951a28bb60ee571882d68aa2394bb7",
    "C12": "b72f39ae9682fedff767e78be4d927ac1fe860a144fdbb5d413e7bda414b0d01",
    "bipartite": "f3e3041931fa15151d8b81515d9e37cef9dd8db130bac0206e8fcbeca48d1f65",
    "co-bipartite": "6c8b1cd3d5bc789d3e78e3d3643588434987fec260bbb29a8db8bc821692a277",
    "gnp": "dcbd96aab26a5084b3af9da6e572f6ccfc4fee1f646e78ec3ae390c1df60360b",
}


def _golden_input(name: str) -> str:
    """graph6 of a CLI_DIGESTS input: an even cycle, or a seeded graph."""
    if name.startswith("C"):
        return to_graph6(cycle(int(name[1:])))
    return to_graph6(_seeded_graph(name, 11, 20261018))


@pytest.mark.parametrize("name", sorted(CLI_DIGESTS))
def test_cli_witnesses_are_golden(capsys, name):
    # the bipartition scans return their smallest-mask witness; these
    # digests pin that order through the analyze, classify and decompose
    # output
    g6 = _golden_input(name)
    h = hashlib.sha256()
    for command in ("analyze", "classify", "decompose"):
        code = main([command, g6])
        h.update(f"{command} {code}\n{capsys.readouterr().out}".encode())
    assert h.hexdigest() == CLI_DIGESTS[name]


# The two documents below were digested from what json.dumps(...,
# sort_keys=True, indent=2) writes for the same data, so they pin that the
# direct writer keeps every byte.
EVEN_PAIR_DIGESTS = {
    "C10": "dab685a33a56ba14b82628836280ac6044cd0712932d71303772c3cd580f3442",
    "C12": "78ad9dd874841f097b4ff06ae6dfead0da4c9686e12627683bc463f438b4e46b",
    "bipartite": "92b36c358aa9bfa2b80370497882abb6da19c24c5458de60d2c00240215998cc",
    "co-bipartite": "3a0eec09f37a7bcf0f6ed3e6c69aa10514a2610a3544db814664c4fa4fb58c75",
    "gnp": "6164589f60030d0506dda8a8f4ae7bfa8d4f83c748c8ab21d3034382fd7f72ce",
}


@pytest.mark.parametrize("name", sorted(EVEN_PAIR_DIGESTS))
def test_even_pair_is_golden(capsys, name):
    code = main(["even-pair", _golden_input(name)])
    out = capsys.readouterr().out
    digest = hashlib.sha256(f"even-pair {code}\n{out}".encode()).hexdigest()
    assert digest == EVEN_PAIR_DIGESTS[name]


def test_verify_document_is_golden(capsys):
    code = main(["verify", "--nmax", "5"])
    out = capsys.readouterr().out
    digest = hashlib.sha256(f"verify {code}\n{out}".encode()).hexdigest()
    assert digest == "35ea5c9229e333159cc4d8bdc0b349de0d49d3125d7debe2e4639ffd9fe14c52"


# One document pair per witness kind, each witness re-checked from the
# definitions before its bytes are compared: a hole (C7), an antihole
# (co-C7, and a long one in co-C8), an odd prism with its rungs as paths
# (the 3-prism, which has a long antihole too) and a balanced skew
# partition (P4).
WITNESS_DOCUMENTS = {
    "C7": ("FhCKG", {"hole"},
           "9e04fb587ae17ec5f42a72183ba1b049da43939f53fc2348fb13e93947f42294"),
    "co-C7": ("FUzro", {"antihole"},
              "3c1f4f6a7c005173cbe151286c48c3c0ee6a3be2d217ff05926752cc2802f851"),
    "co-C8": ("GUzvrw", {"antihole"},
              "207162390b2451cee86f4749b2d75d0171e570e7e0340599d594bad830ab83a1"),
    "prism3": ("E{Sw", {"prism", "path", "antihole"},
               "f4328c9b195a6d1f90c50726964c321c7785d247bcfcee1148b0ef5a17757eac"),
    "P4": ("Ch", {"skew_partition"},
           "32b98a1fbb71bb849bc369e774974f090426e7ffe544c19319103379f7e0786f"),
}


def _witness_views(doc):
    """Every witness view inside a document, prism rungs included."""
    if isinstance(doc, dict):
        if doc.get("kind") in ("hole", "antihole", "path", "prism", "skew_partition"):
            yield doc
        for value in doc.values():
            yield from _witness_views(value)
    elif isinstance(doc, list):
        for value in doc:
            yield from _witness_views(value)


@pytest.mark.parametrize("name", sorted(WITNESS_DOCUMENTS))
def test_witness_documents_are_golden(capsys, name):
    g6, kinds, digest = WITNESS_DOCUMENTS[name]
    T = from_graph6(g6)
    h = hashlib.sha256()
    seen = set()
    for command in ("analyze", "even-pair"):
        code = main([command, g6])
        out = capsys.readouterr().out
        for view in _witness_views(json.loads(out)):
            check_witness_view(T, view)
            seen.add(view["kind"])
        h.update(f"{command} {code}\n{out}".encode())
    assert seen == kinds
    assert h.hexdigest() == digest


_scalars = (st.none() | st.booleans() | st.integers()
            | st.integers(min_value=-2**100, max_value=2**100) | st.floats()
            | st.text(st.sampled_from('"\\\x00\x1f\x7f\n\t\u00e9\u2028\ud800\U0001f600')
                      | st.characters()))
_trees = st.recursive(
    _scalars,
    lambda children: (st.lists(children, max_size=4)
                      | st.lists(children, max_size=4).map(tuple)
                      | st.dictionaries(st.text(), children, max_size=4)),
    max_leaves=30)


@given(_trees)
@settings(max_examples=200, deadline=None)
def test_document_writer_writes_the_bytes_of_json_dumps(tree):
    assert cli._dumps(tree) == json.dumps(tree, sort_keys=True, indent=2)


def _doctored(G, pairs):
    """A "complete" sequence that merges ``pairs`` in turn, even or not."""
    steps, H = [], G
    for u, v in pairs:
        H = _merge(H, u, v)
        steps.append(ContractionStep((u, v), H))
    return ContractionSequence(G, tuple(steps), "complete")


@pytest.mark.parametrize("G, pairs, message", [
    (path_graph(2), [(0, 1)], "unwound coloring is not proper on edge (0, 1)"),
    (path_graph(4), [(0, 3)], "coloring does not use clique-number many colors"),
    (empty_graph(2), [], "terminal of a complete sequence is not a clique"),
])
def test_each_coloring_guard_exits_three(capsys, monkeypatch, G, pairs, message):
    # a wrong contraction sequence reaches exactly one guard of the unwinding
    monkeypatch.setattr(cli, "run_contraction_sequence", lambda T: _doctored(T, pairs))
    code, doc, err = run_cli(capsys, "contract-color", to_graph6(G))
    assert code == 3 and doc is None
    assert json.loads(err)["theorem_contradiction"] == message


CONTRACT_COLOR_DIGESTS = {
    "C10": "70edc8dd76ea66dae814f30b9c439e3fabde65c6e80a0de03c1d2146e4bd3eac",
    "C12": "7d970103e38c73d8de0d98991b6c04e704161fa2a635fb11bbc858e1bea945c8",
    "FCrQo": "ead12db43a8cd7a18cef85af93013cfb809a3d892984718db697b7efbf9fbc11",
    "bipartite": "902bf285b6b889a4cd88f2c70f55d1ee78076aa244a8d3d96deda29972fb327b",
    "co-bipartite": "1c06c7fca49e8c20aee5a6ac03f5f8b0dd12f39d01b9663187ee48a973efc6ae",
    "gnp": "7f01c03b7ddc7d99b0f8676e1b62dbf51c32482230402b85f64218c60410ab45",
    "prism3": "c8785dd6cebe2274e51a1cbc149bd0426db9de3be2a7166791c58d4895b4801e",
}


def _contract_color_input(name: str) -> str:
    """graph6 of a CONTRACT_COLOR_DIGESTS input."""
    if name == "prism3":
        return to_graph6(prism3())
    return name if name == "FCrQo" else _golden_input(name)


@pytest.mark.parametrize("name", sorted(CONTRACT_COLOR_DIGESTS))
def test_contract_color_is_golden(capsys, name):
    # the search returns the first complete sequence in lexicographic pair
    # order, or else the greedy least-pair sequence: prism3 is stuck after
    # no step, FCrQo after the one step (0, 2)
    code = main(["contract-color", _contract_color_input(name)])
    out = capsys.readouterr().out
    digest = hashlib.sha256(f"contract-color {code}\n{out}".encode()).hexdigest()
    assert digest == CONTRACT_COLOR_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(CONTRACT_COLOR_DIGESTS))
def test_contract_color_document_replays(capsys, name):
    # the document alone re-checks the sequence: from the input, each pair
    # is an even pair of the graph before it and merges into the step's
    # graph, and the last graph is complete exactly when the outcome says so
    g6 = _contract_color_input(name)
    assert main(["contract-color", g6]) == 0
    seq = json.loads(capsys.readouterr().out)["sequence"]
    G = from_text(seq["initial"])
    assert G == from_graph6(g6)
    for step in seq["steps"]:
        u, v = step["pair"]
        assert u < v and is_even_pair(G, u, v).is_even_pair
        G = merge_by_renumbering(G, u, v)
        assert G == from_text(step["after"])
    assert is_complete(G) == (seq["outcome"] == "complete")


def test_contract_color_checks_bergeness_once(capsys, monkeypatch):
    # the search checks the input once; the coloring does not check again
    import evenpairs.detect as detect

    checks = count_calls(monkeypatch, detect, "is_berge")
    inputs = [cycle(5), cycle(8), cycle(10), complete_graph(4), prism3(),
              from_graph6("FCrQo")]
    for G in inputs:
        main(["contract-color", to_graph6(G)])
    capsys.readouterr()
    assert len(checks) == len(inputs)


def test_internal_contradiction_exits_three(capsys, monkeypatch, c8):
    # a failed internal cross-check (here the two even-pair routes
    # disagreeing) is a contradiction of a proved statement, not a
    # precondition failure
    from evenpairs import detect

    monkeypatch.setattr(detect, "_gadget_sees_odd_path", lambda G, u, v: True)
    code, _, err = run_cli(capsys, "contract-color", to_graph6(c8))
    assert code == 3
    assert "routes disagree" in json.loads(err)["theorem_contradiction"]


@pytest.mark.parametrize("command", ["even-pair", "contract-color"])
def test_path_budget_overflow_exits_four(capsys, monkeypatch, c6, command):
    # past detect.MAX_PATHS paths the oracle leaves the pair open: no
    # document, the message on stderr, and an exit code of its own
    from evenpairs import detect

    monkeypatch.setattr(detect, "MAX_PATHS", 1)
    code = main([command, to_graph6(c6)])
    captured = capsys.readouterr()
    assert code == 4 and captured.out == ""
    assert json.loads(captured.err) == {
        "inconclusive": "path enumeration for (0, 2) exceeded 1 paths"}


def test_verify_records_a_path_budget_overflow_as_a_failure(capsys, monkeypatch):
    from evenpairs import detect

    monkeypatch.setattr(detect, "MAX_PATHS", 1)
    code, doc, _ = run_cli(capsys, "verify", "--nmax", "4")
    failures = doc["summary"]["failures"]
    assert code == 3 and failures
    assert {f["stage"] for f in failures} == {"InconclusiveError"}


def test_format_option_is_gone(capsys):
    # the input format is read off the input; the flag is a usage error
    with pytest.raises(SystemExit) as exc:
        main(["analyze", C6_G6, "--format", "graph6"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --format graph6" in capsys.readouterr().err
