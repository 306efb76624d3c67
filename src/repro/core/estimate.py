"""Join-size and cost estimation, plus workload profiling for the planner.

Two sampling estimators a planner (or a user guarding against output
explosions) needs before running a containment join:

* :func:`estimate_result_size` — unbiased estimate of ``|R ⋈⊆ S|`` by
  joining a uniform sample of ``R`` against the full ``S`` (the containment
  join is linear in R-rows, so sampling R and scaling is unbiased);
* :func:`estimate_costs` — per-method abstract-cost estimates extrapolated
  from the same sample, used by :func:`repro.core.planner.choose_method`.

Both return a :class:`JoinEstimate` with the sample size used, so callers
can reason about confidence (relative error shrinks roughly with
``1/sqrt(sample_results)``).

A third, cheaper facility profiles the *element frequency distribution*
of the superset side: :func:`element_frequency_profile` reports the sorted
inverted-list lengths, the top-20% mass (the paper's z-value input, see
:mod:`repro.data.skew`), and a suggested density threshold splitting
elements into bitmap-worthy (dense) and CSR-resident (sparse) lists. The
hybrid index backend (:class:`repro.index.storage.HybridInvertedIndex`)
uses it to pick its representation split automatically, and it is the
documented workload input for cost-based backend planning.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple, Union

from ..data.collection import SetCollection
from ..errors import InvalidParameterError
from .api import JOIN_METHODS, set_containment_join
from .stats import JoinStats

__all__ = [
    "JoinEstimate",
    "estimate_result_size",
    "estimate_costs",
    "ElementFrequencyProfile",
    "element_frequency_profile",
]

#: A probe into a dense bitmap scans whole uint64 words: lists denser than
#: one posting per word answer almost every probe inside one or two words,
#: sparser lists mostly fall through to the CSR arrays and the bitmap is
#: wasted space. 1/64 — one posting per word on average — is the break-even
#: density the suggested threshold targets.
_DENSE_WORD_BITS = 64
#: Tiny lists never justify a bitmap row even on tiny collections: the row
#: costs ``ceil(num_sets / 64)`` words regardless of how few bits are set.
_MIN_DENSE_LENGTH = 8


@dataclass(frozen=True)
class JoinEstimate:
    """A sampled estimate with its provenance."""

    estimated_results: float
    sample_size: int
    sample_results: int
    scale_factor: float

    def __int__(self) -> int:
        return int(round(self.estimated_results))


def _sample_r(
    r_collection: SetCollection, sample_size: int, seed: int
) -> SetCollection:
    n = len(r_collection)
    if sample_size >= n:
        return r_collection
    rng = random.Random(seed)
    picked = rng.sample(range(n), sample_size)
    return SetCollection._trusted(
        [r_collection[i] for i in picked], dictionary=r_collection.dictionary
    )


def estimate_result_size(
    r_collection: SetCollection,
    s_collection: Optional[SetCollection] = None,
    sample_size: int = 500,
    seed: int = 0,
    method: str = "framework_et",
) -> JoinEstimate:
    """Estimate ``|R ⋈⊆ S|`` from a uniform R-sample.

    ``method`` defaults to the framework (no tree construction, so the
    sample run stays cheap). A self join is assumed when ``s_collection``
    is ``None`` — note the estimate then still counts reflexive pairs, as
    the join itself does.
    """
    if sample_size < 1:
        raise InvalidParameterError(f"sample_size must be >= 1, got {sample_size}")
    s = s_collection if s_collection is not None else r_collection
    n = len(r_collection)
    if n == 0 or len(s) == 0:
        return JoinEstimate(0.0, 0, 0, 1.0)
    sample = _sample_r(r_collection, sample_size, seed)
    count = set_containment_join(sample, s, method=method, collect="count")
    scale = n / len(sample)
    return JoinEstimate(count * scale, len(sample), count, scale)


def estimate_costs(
    r_collection: SetCollection,
    s_collection: Optional[SetCollection] = None,
    methods: Sequence[str] = ("framework_et", "tree_et", "lcjoin", "pretti"),
    sample_size: int = 300,
    seed: int = 0,
) -> Dict[str, float]:
    """Extrapolated abstract cost per method from an R-sample run.

    The fixed index/tree construction cost is *not* scaled (it is paid once
    whatever the R size); only the probing/scanning work scales with
    ``|R|``. Construction-heavy methods are therefore not unfairly
    penalised at large ``|R|``.
    """
    unknown = [m for m in methods if m not in JOIN_METHODS]
    if unknown:
        raise InvalidParameterError(f"unknown methods: {unknown}")
    s = s_collection if s_collection is not None else r_collection
    n = len(r_collection)
    if n == 0 or len(s) == 0:
        return {m: 0.0 for m in methods}
    sample = _sample_r(r_collection, sample_size, seed)
    scale = n / len(sample)
    out: Dict[str, float] = {}
    for method in methods:
        stats = JoinStats()
        set_containment_join(sample, s, method=method, collect="count", stats=stats)
        variable = stats.binary_searches + stats.entries_touched + stats.candidates
        fixed = stats.index_build_tokens
        out[method] = fixed + variable * scale
    return out


@dataclass(frozen=True)
class ElementFrequencyProfile:
    """The element frequency distribution of one collection, summarised.

    ``frequencies`` are the inverted-list lengths sorted descending (zeros
    dropped); ``top_mass`` is the share of all postings held by the most
    frequent 20% of elements — the ``a`` in the paper's 80/20 z-value
    ``z = 1 - log(a)/log(b)``; ``suggested_threshold`` is the minimum list
    length at which a bitmap row beats the CSR arrays (see
    :func:`element_frequency_profile`); ``dense_elements`` counts the lists
    meeting it.
    """

    frequencies: Tuple[int, ...]
    num_sets: int
    total_postings: int
    num_elements: int
    top_mass: float
    suggested_threshold: int
    dense_elements: int

    def top_k_mass(self, k: int) -> float:
        """Share of all postings held by the ``k`` most frequent elements."""
        if k < 0:
            raise InvalidParameterError(f"k must be >= 0, got {k}")
        if self.total_postings == 0:
            return 0.0
        return sum(self.frequencies[:k]) / self.total_postings


def element_frequency_profile(
    data: Union[SetCollection, Sequence[int]],
    num_sets: Optional[int] = None,
) -> ElementFrequencyProfile:
    """Profile element frequencies for representation / backend planning.

    ``data`` is the superset-side collection, or directly its per-element
    frequency counts (inverted-list lengths — the two forms produce the
    same profile, so index builders can pass counts they already have).
    ``num_sets`` — ``|S|``, the bit-width a bitmap row would need — is
    taken from the collection, and must be given with raw counts when the
    longest list does not reach it (the default is ``max(counts)``, a lower
    bound that can only make the suggested threshold smaller).

    The suggested threshold marks the break-even density of a word-packed
    bitmap row: ``max(8, ceil(num_sets / 64))``, i.e. at least one posting
    per uint64 word on average (below that, probes mostly fall through to
    the sorted arrays and the row is dead weight) and never fewer than 8
    postings (a row costs whole words regardless of bits set).
    """
    if isinstance(data, SetCollection):
        counts: Sequence[int] = list(data.element_frequencies().values())
        if num_sets is None:
            num_sets = len(data)
    else:
        counts = list(data)
        if any(c < 0 for c in counts):
            raise InvalidParameterError("frequency counts must be >= 0")
        if num_sets is None:
            num_sets = max(counts, default=0)
    frequencies = tuple(sorted((c for c in counts if c > 0), reverse=True))
    total = sum(frequencies)
    top = max(1, int(len(frequencies) * 0.2 + 0.5)) if frequencies else 0
    top_mass = sum(frequencies[:top]) / total if total else 0.0
    threshold = max(_MIN_DENSE_LENGTH, -(-num_sets // _DENSE_WORD_BITS))
    dense = sum(1 for c in frequencies if c >= threshold)
    return ElementFrequencyProfile(
        frequencies=frequencies,
        num_sets=num_sets,
        total_postings=total,
        num_elements=len(frequencies),
        top_mass=top_mass,
        suggested_threshold=threshold,
        dense_elements=dense,
    )
