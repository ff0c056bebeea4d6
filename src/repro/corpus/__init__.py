"""DataRaceBench-style OpenMP microbenchmark corpus.

DataRaceBench v1.4.1 (Liao et al., SC'17) ships 201 OpenMP C/C++
microbenchmarks, roughly half with a seeded data race and half race-free,
each labelled in a header comment (including, for racy kernels, the
``Data race pair: a[i+1]@64:10:R vs. a[i]@64:5:W`` line giving the variable
pair, source location and read/write operation).

The original suite cannot be downloaded in this offline environment, so this
package *generates* an equivalent corpus: 201 microbenchmarks across the DRB
pattern taxonomy (loop-carried anti/output/true dependences, missing
``critical``/``atomic``/``barrier``, broken reductions, privatization
mistakes, indirect accesses, SIMD, tasking, sections, plus race-free
counterparts of each family), in the same header-comment label format, with
programmatically known ground truth.

Public entry points
-------------------
``build_corpus(config)``
    Deterministically build the full suite as a list of
    :class:`~repro.corpus.microbenchmark.Microbenchmark`.
``iter_corpus(config)`` / ``iter_corpus_span(config, start, stop)``
    The same suite as a lazy stream, whole or one index span at a time —
    ``CorpusConfig(repeats=N)`` replicates the suite with re-interleaved
    repeat blocks for scale-out workloads.
``CorpusRegistry``
    Indexed access by id, name and category.
"""

from repro.corpus.microbenchmark import AccessSpec, Microbenchmark, RaceLabel, RacePair
from repro.corpus.builder import CodeBuilder
from repro.corpus.generator import (
    CorpusConfig,
    build_corpus,
    corpus_size,
    iter_corpus,
    iter_corpus_span,
)
from repro.corpus.registry import CorpusRegistry

__all__ = [
    "AccessSpec",
    "Microbenchmark",
    "RaceLabel",
    "RacePair",
    "CodeBuilder",
    "CorpusConfig",
    "build_corpus",
    "corpus_size",
    "iter_corpus",
    "iter_corpus_span",
    "CorpusRegistry",
]
