"""Even pairs and trigraph decompositions for Berge graphs, with
exhaustively checked certificates at small scale.

The package is organized around one chain of ideas: trigraphs and their
realizations (``trigraph``), brute-force detectors with witnesses
(``detect``), even-pair contraction and coloring (``contraction``),
2-joins, skew-partitions and blocks (``decomposition``), the five basic
classes with one even-pair finder driven by their certificates
(``basic``), and the main recursion plus the verification harness
(``engine``).  ``formats`` holds the text formats, ``canonical``/``corpus``
the isomorphism machinery and instance generators, and ``cli`` the
command-line surface.
"""

from .basic import (BasicClassification, FavorabilityVerdict, GoodPairWitness,
                    GoodPartition, LineRootCertificate, classify_basic,
                    even_pair_basic, find_good_pair, good_partition_of,
                    line_root_of, verify_root_properties)
from .contraction import (Coloring, ContractionSequence, derive_coloring,
                          run_contraction_sequence)
from .decomposition import (Block, SkewPartitionWitness, TwoJoinSplit,
                            build_block, check_nobsp_2join_shape, find_2join,
                            find_balanced_skew_partition,
                            find_complement_2join, iter_2joins)
from .detect import (EvenPairReport, PrismWitness, even_pairs,
                     find_antihole_of_length_at_least, find_odd_antihole,
                     find_odd_hole, find_prism, is_berge, is_even_pair)
from .engine import (EngineResult, PreconditionReport, VerifySummary,
                     check_preconditions, find_even_pair_structured,
                     verify_main_theorem)
from .errors import InputError, NonBergeError, TheoremContradictionError
from .formats import from_graph6, from_text, load, loads, to_graph6, to_text
from .trigraph import (ANTI, STRONG, SWITCHABLE, ClassFVerdict, HoleWitness,
                       PathWitness, Trigraph, clique_number, complement,
                       components, full_realization, graph_from_edges,
                       in_class_F, induced, is_complete, iter_paths,
                       make_trigraph, realization, switchable_components)

__all__ = [
    "ANTI", "STRONG", "SWITCHABLE",
    "BasicClassification", "Block", "ClassFVerdict", "Coloring",
    "ContractionSequence", "EngineResult", "EvenPairReport",
    "FavorabilityVerdict", "GoodPairWitness", "GoodPartition", "HoleWitness",
    "InputError", "LineRootCertificate", "NonBergeError",
    "PathWitness", "PreconditionReport", "PrismWitness",
    "SkewPartitionWitness", "TheoremContradictionError", "Trigraph",
    "TwoJoinSplit", "VerifySummary",
    "build_block", "check_nobsp_2join_shape", "check_preconditions",
    "classify_basic", "clique_number", "complement", "components",
    "derive_coloring", "even_pair_basic", "even_pairs",
    "find_2join", "find_antihole_of_length_at_least",
    "find_balanced_skew_partition", "find_complement_2join",
    "find_even_pair_structured", "find_good_pair",
    "find_odd_antihole", "find_odd_hole", "find_prism",
    "from_graph6", "from_text", "full_realization", "good_partition_of",
    "graph_from_edges", "in_class_F", "induced", "is_berge", "is_complete",
    "is_even_pair", "iter_2joins", "iter_paths",
    "line_root_of", "load", "loads", "make_trigraph", "realization",
    "run_contraction_sequence", "switchable_components",
    "to_graph6", "to_text", "verify_main_theorem", "verify_root_properties",
]
