"""The paper's algorithms: TestOut, FindMin/FindAny, Build-MST/ST, repair.

This subpackage implements the primary contribution of King, Kutten and
Thorup (PODC 2015): sub-``Ω(m)`` message-complexity construction and
impromptu repair of minimum spanning trees and spanning trees in the CONGEST
model with KT1 knowledge.
"""

from .build_mst import BuildMST, BuildReport
from .build_st import BuildST
from .config import (
    AlgorithmConfig,
    FINDANY_SUCCESS_PROBABILITY,
    TESTOUT_SUCCESS_PROBABILITY,
)
from .findany import FindAny
from .findmin import FindMin, FindResult
from .hashing import (
    KarpRabinFingerprint,
    OddHashFunction,
    PairwiseIndependentHash,
    random_fingerprint,
    random_odd_hash,
    random_pairwise_hash,
)
from .polynomial import SetEqualitySketch, combine_products, local_product
from .primes import is_prime, next_prime, prime_at_least, prime_for_field
from .repair import RepairReport, TreeRepairer
from .sample import SuperpolyFindMin
from .sketches import (
    local_parity,
    local_prefix_parities,
    local_range_parities,
    local_xor_below,
    pack_parity_word,
    unpack_parity_word,
)
from .testout import CutTester, TreeStatistics

__all__ = [
    "AlgorithmConfig",
    "BuildMST",
    "BuildReport",
    "BuildST",
    "CutTester",
    "FINDANY_SUCCESS_PROBABILITY",
    "FindAny",
    "FindMin",
    "FindResult",
    "KarpRabinFingerprint",
    "OddHashFunction",
    "PairwiseIndependentHash",
    "RepairReport",
    "SetEqualitySketch",
    "SuperpolyFindMin",
    "TESTOUT_SUCCESS_PROBABILITY",
    "TreeRepairer",
    "TreeStatistics",
    "combine_products",
    "is_prime",
    "local_parity",
    "local_prefix_parities",
    "local_product",
    "local_range_parities",
    "local_xor_below",
    "next_prime",
    "pack_parity_word",
    "prime_at_least",
    "prime_for_field",
    "random_fingerprint",
    "random_odd_hash",
    "random_pairwise_hash",
    "unpack_parity_word",
]
