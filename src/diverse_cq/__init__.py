"""Diverse answer selection for conjunctive queries.

Volume-based diversity: every candidate answer owns a measurable ball,
the diversity of a set is the measure of the union of its balls, and
the resulting function is monotone and submodular by construction.  On
top of that sit greedy and exact diversification, distance-based
baselines for comparison, ultrametric and multi-attribute conversions,
and rankers that pick the next most diverse answer straight from a join
tree without materializing the answer set.
"""

from .baselines import (ExplicitMatrixDistance, HammingDistance, TreeLeafDistance,
                        UltraNode, UltrametricTree, UltrametricViolation, WEITZMAN_CAP,
                        delta_min, delta_sum, hamming, ultrametric_to_volume,
                        ultrametric_tree_from_matrix, weitzman, weitzman_ultrametric)
from .engine import (AnswerSet, atom_candidates, enumerate_answers, homomorphisms,
                     iter_answers, provenance_map)
from .errors import (DiverseCQError, EngineCompatibilityError, InputError,
                     LimitExceededError, LoadError, QueryParseError, UniverseError)
from .optimize import (BRUTE_FORCE_CAP, DiverseResult, ProvenancePlan, TropicalPlan,
                       brute_force_diversify, cqnext_naive, greedy_by_objective,
                       greedy_combined, greedy_diversify)
from .query import (Atom, ConjunctiveQuery, Variable, free_connex_split, gyo_join_tree,
                    parse_cq)
from .relcore import (DataValue, Database, Fact, Schema, fraction_text, intern,
                      intern_number, load_database)
from .volume import (MC_SAMPLES_CAP, ContinuousBallSet, CountMeasure, EuclideanBallVolume,
                     MCEstimate, MultiAttributeWeights, VolumeAssignment, WeightedMeasure,
                     elem_volume, elem_weighted, mc_ball_union_volume,
                     multiattribute_from_volume, pos_volume, pos_weighted,
                     provenance_volume, volume_from_multiattribute)

__version__ = "0.1.0"

__all__ = [
    "AnswerSet", "Atom", "BRUTE_FORCE_CAP", "ConjunctiveQuery", "ContinuousBallSet",
    "CountMeasure", "DataValue", "Database", "DiverseCQError", "DiverseResult",
    "EngineCompatibilityError", "EuclideanBallVolume", "ExplicitMatrixDistance",
    "Fact", "HammingDistance", "InputError", "LimitExceededError", "LoadError",
    "MC_SAMPLES_CAP", "MCEstimate", "MultiAttributeWeights", "ProvenancePlan",
    "QueryParseError", "Schema", "TreeLeafDistance", "TropicalPlan", "UltraNode",
    "UltrametricTree", "UltrametricViolation", "UniverseError", "Variable", "VolumeAssignment",
    "WEITZMAN_CAP", "WeightedMeasure", "atom_candidates",
    "brute_force_diversify", "cqnext_naive", "delta_min", "delta_sum", "elem_volume",
    "elem_weighted", "enumerate_answers", "fraction_text",
    "free_connex_split", "greedy_by_objective", "greedy_combined",
    "greedy_diversify", "gyo_join_tree", "hamming",
    "homomorphisms", "intern", "intern_number", "iter_answers", "load_database",
    "mc_ball_union_volume", "multiattribute_from_volume", "parse_cq", "pos_volume",
    "pos_weighted", "provenance_map", "provenance_volume",
    "ultrametric_to_volume", "ultrametric_tree_from_matrix",
    "volume_from_multiattribute", "weitzman",
    "weitzman_ultrametric",
]
