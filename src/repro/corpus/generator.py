"""Deterministic construction of the 201-program corpus.

The corpus layout mirrors DataRaceBench v1.4.1 at the level the paper's
pipeline cares about:

* 201 microbenchmarks overall;
* three of them exceed the 4k-token prompt budget and are dropped by the
  DRB-ML subset filter, leaving 198;
* the remaining subset holds 100 race-yes and 98 race-free programs
  (≈50.5 % positive), matching the stratified-fold arithmetic of §3.5.

The generator instantiates every (pattern, variant) combination from
:data:`repro.corpus.patterns.ALL_PATTERNS` in a deterministic, seed-shuffled
order so that race-yes and race-free kernels interleave the way a curated
benchmark suite would, rather than being grouped by family.

Streaming and scale-out
-----------------------

The corpus is also available as a *lazy producer*: :func:`iter_corpus`
yields benchmarks one at a time without ever materialising the list, and
:func:`iter_corpus_span` yields any index span on its own (the dataset's
``iter_default_records(jobs=...)`` generates and featurises such spans in
worker processes).  ``CorpusConfig.repeats`` replicates the
201-program suite ``N`` times — every repeat block is re-interleaved with a
block-derived seed and benchmark indices stay contiguous and 1-based across
blocks, so a 10⁵+-record workload is just ``CorpusConfig(repeats=500)``.
``build_corpus`` is now a thin ``list(iter_corpus(...))`` wrapper: for
``repeats=1`` the streamed and materialised corpora are byte-identical.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple

from repro.corpus.microbenchmark import Microbenchmark
from repro.corpus.patterns import ALL_PATTERNS, PatternSpec

__all__ = [
    "CorpusConfig",
    "build_corpus",
    "corpus_size",
    "iter_corpus",
    "iter_corpus_span",
    "EXPECTED_TOTAL",
    "EXPECTED_RACE_YES",
]

#: Corpus-level invariants checked by :func:`build_corpus` (per repeat block).
EXPECTED_TOTAL = 201
EXPECTED_RACE_YES = 102  # two of which are oversized and filtered from the subset

#: Odd multiplier (2**32 / golden ratio) deriving per-block shuffle seeds.
_BLOCK_SEED_STRIDE = 0x9E3779B1


@dataclass(frozen=True)
class CorpusConfig:
    """Configuration of the corpus build.

    Attributes
    ----------
    seed:
        Seed for the deterministic shuffle that interleaves pattern families.
    shuffle:
        When ``False`` the corpus keeps family order (useful for debugging).
    validate:
        When ``True`` (default) the builder asserts the corpus-level counts
        that the rest of the pipeline depends on.
    repeats:
        Number of 201-program repeat blocks (scale-out knob).  Block 0 uses
        ``seed`` directly — identical to the historical single-block corpus —
        and block ``b`` shuffles with a seed derived from ``(seed, b)``, so
        blocks interleave differently while staying fully deterministic.
        Benchmark indices (and therefore names) stay unique across blocks.
    """

    seed: int = 20231112  # SC-W 2023 started on November 12, 2023
    shuffle: bool = True
    validate: bool = True
    repeats: int = 1

    def __post_init__(self) -> None:
        if self.repeats < 1:
            raise ValueError(f"repeats must be >= 1, got {self.repeats}")


def _block_seed(seed: int, block: int) -> int:
    """Shuffle seed for repeat block ``block`` (block 0 == ``seed``)."""
    return seed + _BLOCK_SEED_STRIDE * block


def _enumerate_instances() -> List[Tuple[PatternSpec, int]]:
    """Return every (pattern, variant index) combination in family order."""
    out: List[Tuple[PatternSpec, int]] = []
    for spec in ALL_PATTERNS:
        for variant_idx in range(len(spec.variants)):
            out.append((spec, variant_idx))
    return out


def corpus_size(config: CorpusConfig | None = None) -> int:
    """Total number of benchmarks the configuration generates."""
    config = config or CorpusConfig()
    return len(_enumerate_instances()) * config.repeats


def iter_corpus(config: CorpusConfig | None = None) -> Iterator[Microbenchmark]:
    """Lazily yield the corpus in benchmark-index order.

    Peak residency is one repeat block of (pattern, variant) references plus
    the single benchmark being yielded — O(1) in corpus size.  For
    ``repeats=1`` the stream equals ``build_corpus`` element for element.
    """
    config = config or CorpusConfig()
    return iter_corpus_span(config, 1, corpus_size(config) + 1)


def iter_corpus_span(
    config: CorpusConfig, start: int, stop: int
) -> Iterator[Microbenchmark]:
    """Lazily yield benchmarks with 1-based index in ``[start, stop)``.

    Any span can be generated independently (only the repeat blocks it
    overlaps are shuffled), so disjoint spans can be generated in worker
    processes and still join into a stream identical to :func:`iter_corpus`.
    """
    instances = _enumerate_instances()
    block_len = len(instances)
    total = block_len * config.repeats
    start = max(start, 1)
    stop = min(stop, total + 1)
    if start >= stop:
        return
    first_block = (start - 1) // block_len
    last_block = (stop - 2) // block_len
    for block in range(first_block, last_block + 1):
        ordered = list(instances)
        if config.shuffle:
            random.Random(_block_seed(config.seed, block)).shuffle(ordered)
        base = block * block_len  # positions base+1 .. base+block_len
        lo = max(start, base + 1)
        hi = min(stop, base + block_len + 1)
        for offset in range(lo - base - 1, hi - base - 1):
            spec, variant_idx = ordered[offset]
            yield spec.instantiate(base + offset + 1, variant_idx)


def build_corpus(config: CorpusConfig | None = None) -> List[Microbenchmark]:
    """Build the full corpus as a list (201 programs per repeat block).

    The returned list is ordered by benchmark index (1-based, contiguous).
    The mapping from (pattern, variant) to index is fully determined by
    ``config.seed``, so two builds with the same configuration are identical.
    """
    config = config or CorpusConfig()
    corpus = list(iter_corpus(config))
    if config.validate:
        _validate_corpus(corpus, repeats=config.repeats)
    return corpus


def _validate_corpus(corpus: Sequence[Microbenchmark], repeats: int = 1) -> None:
    """Check the corpus-level invariants the experiments rely on."""
    if len(corpus) != EXPECTED_TOTAL * repeats:
        raise AssertionError(
            f"corpus has {len(corpus)} programs, expected {EXPECTED_TOTAL * repeats}; "
            "a pattern module's variant counts are out of sync"
        )
    yes = sum(1 for bench in corpus if bench.has_race)
    if yes != EXPECTED_RACE_YES * repeats:
        raise AssertionError(
            f"corpus has {yes} race-yes programs, expected {EXPECTED_RACE_YES * repeats}"
        )
    indices = [bench.index for bench in corpus]
    if indices != list(range(1, EXPECTED_TOTAL * repeats + 1)):
        raise AssertionError("benchmark indices must be contiguous and 1-based")
    names = {bench.name for bench in corpus}
    if len(names) != len(corpus):
        raise AssertionError("benchmark names must be unique")
