"""Exact enumeration of n-plexes via cycle indices of subset actions.

An n-plex on p points is determined by its set of n-simplexes, so counting
n-plexes up to relabelling is counting (n+1)-uniform hypergraphs up to
isomorphism.  The package computes the cycle index of the symmetric group
S_p acting on (n+1)-element subsets by a partition-based induction, applies
the two-choices-per-subset substitution to get exact counting polynomials
and totals, and cross-validates everything against independent brute-force
oracles and bundled reference data.
"""

from .counting import ONE, IntPolynomial, plex_count, plex_polynomial, substitute
from .cycle_index import (CycleIndex, cycle_index_subset_action, induced_cycle_type,
                          subset_action_terms)
from .golden import GoldenData, load_golden
from .oracle import burnside_polynomial, exhaustive_plex_histogram
from .partitions import Partition, partitions_of, permutation_count
from .verify import CheckResult, run_scope

__version__ = "0.1.0"

__all__ = [
    "CheckResult",
    "CycleIndex",
    "GoldenData",
    "IntPolynomial",
    "ONE",
    "Partition",
    "burnside_polynomial",
    "cycle_index_subset_action",
    "exhaustive_plex_histogram",
    "induced_cycle_type",
    "load_golden",
    "partitions_of",
    "permutation_count",
    "plex_count",
    "plex_polynomial",
    "run_scope",
    "subset_action_terms",
    "substitute",
]
