"""Exact enumeration of n-plexes via cycle indices of subset actions.

An n-plex on p points is determined by its set of n-simplexes, so counting
n-plexes up to relabelling is counting (n+1)-uniform hypergraphs up to
isomorphism.  The package computes the cycle index of the symmetric group
S_p acting on (n+1)-element subsets by a partition-based induction, applies
the two-choices-per-subset substitution to get exact counting polynomials
and totals, and cross-validates everything against independent brute-force
oracles and bundled reference data.
"""

from .counting import (ONE, ONE_PLUS_X, IntPolynomial, plex_count, plex_polynomial,
                       substitute)
from .cycle_index import (CycleIndex, CycleType, cycle_index_subset_action,
                          cycle_index_symmetric, fixed_subset_count,
                          induced_cycle_type, subset_action_terms)
from .golden import GoldenData, fixture_path, load_golden
from .oracle import (burnside_polynomial, cycle_type_of, exhaustive_plex_count,
                     exhaustive_plex_histogram, induce_on_subsets)
from .partitions import Partition, partitions_of, permutation_count, power_cycle_type
from .verify import CheckResult, run_scope

__version__ = "0.1.0"

__all__ = [
    "CheckResult",
    "CycleIndex",
    "CycleType",
    "GoldenData",
    "IntPolynomial",
    "ONE",
    "ONE_PLUS_X",
    "Partition",
    "burnside_polynomial",
    "cycle_index_subset_action",
    "cycle_index_symmetric",
    "cycle_type_of",
    "exhaustive_plex_count",
    "exhaustive_plex_histogram",
    "fixed_subset_count",
    "fixture_path",
    "induce_on_subsets",
    "induced_cycle_type",
    "load_golden",
    "partitions_of",
    "permutation_count",
    "plex_count",
    "plex_polynomial",
    "power_cycle_type",
    "run_scope",
    "subset_action_terms",
    "substitute",
]
