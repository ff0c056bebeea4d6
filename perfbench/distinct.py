"""Seeded generator of the ``corpus_distinct`` program stream.

Every program is a label-preserving variant of a corpus microbenchmark,
made only with public ``repro`` functions: ``build_corpus`` (the seed picks
the program order), then ``scale_loop_bounds`` with a seeded factor, then
``rename_identifiers`` with a salt drawn without replacement, so no two
variants share a trimmed source.  The benchmark runs this before any
timer starts and hands the program only the finished list.

Each variant keeps its origin's ``race_pairs``: the pipeline scrapes
labels and pairs from the header comment, which the transforms rewrite
along with the code, and never reads the generator's ground truth.
"""

from __future__ import annotations

import dataclasses
import random
from typing import List

#: Programs per run: about five variants of each of the 201 corpus programs.
DEFAULT_COUNT = 1000


def generate(seed: int, count: int = DEFAULT_COUNT) -> List[object]:
    """``count`` distinct microbenchmarks, identical for identical seeds."""
    from repro.corpus import CorpusConfig, build_corpus
    from repro.dataset.augment import rename_identifiers, scale_loop_bounds
    from repro.dataset.trim import trim_comments

    rng = random.Random(seed)
    base = build_corpus(CorpusConfig(seed=seed))
    salts = rng.sample(range(1, 1_000_000), count)
    programs = []
    trimmed = set()
    for index in range(count):
        bench = base[index % len(base)]
        code = scale_loop_bounds(bench.code, factor=rng.randint(2, 9))
        code, _mapping = rename_identifiers(code, salt=salts[index])
        trimmed.add(trim_comments(code).trimmed_code)
        programs.append(
            dataclasses.replace(
                bench,
                index=index + 1,
                name=bench.name.replace(".c", f"-s{salts[index]}.c"),
                code=code,
            )
        )
    if len(trimmed) != count:
        raise AssertionError(
            f"seed {seed}: only {len(trimmed)} of {count} trimmed sources are distinct"
        )
    return programs


def expected_counts(programs) -> List[int]:
    """[tp, fp, tn, fn] of gpt-4 / BP1 over ``programs``, without the engine.

    The reference path: one plain ``generate`` per rendered prompt, scored
    with the same public ``score_response``.  The benchmark's run must
    produce the same counts through ``ExecutionEngine.run_streaming_counts``.
    """
    from repro.dataset.drbml import iter_records
    from repro.engine import iter_requests
    from repro.engine.requests import confusion_from_results, score_response
    from repro.llm import create_model
    from repro.prompting import PromptStrategy, render_prompt

    model = create_model("gpt-4")
    results = (
        score_response(request, model.generate(render_prompt(request.strategy, request.code)))
        for request in iter_requests(model, PromptStrategy.BP1, iter_records(programs))
    )
    counts = confusion_from_results(results)
    return [counts.tp, counts.fp, counts.tn, counts.fn]
