"""Corpus generation tests: size, balance, determinism, and ground-truth
consistency of every generated microbenchmark."""

import pytest

from repro.corpus import CorpusConfig, CorpusRegistry, build_corpus
from repro.corpus.builder import CodeBuilder
from repro.corpus.microbenchmark import RaceLabel
from repro.cparse import parse


@pytest.fixture(scope="module")
def corpus():
    return build_corpus(CorpusConfig())


@pytest.fixture(scope="module")
def registry(corpus):
    return CorpusRegistry(corpus)


class TestCorpusShape:
    def test_total_count_is_201(self, corpus):
        assert len(corpus) == 201

    def test_positive_count_is_102(self, corpus):
        assert sum(1 for b in corpus if b.has_race) == 102

    def test_indices_contiguous(self, corpus):
        assert [b.index for b in corpus] == list(range(1, 202))

    def test_names_follow_drb_convention(self, corpus):
        for bench in corpus:
            assert bench.name.startswith(f"DRB{bench.index:03d}-")
            assert bench.name.endswith("-yes.c" if bench.has_race else "-no.c")

    def test_positive_fraction_close_to_paper(self, registry):
        # paper: ~50.5% of the evaluation subset is race-yes
        assert 0.48 <= registry.positive_fraction() <= 0.53

    def test_every_family_represented(self, corpus):
        families = {b.label.value for b in corpus}
        expected = {f"Y{i}" for i in range(1, 8)} | {f"N{i}" for i in range(1, 8)}
        assert families == expected

    def test_oversized_programs_exist(self, registry):
        oversized = registry.by_category("oversized")
        assert len(oversized) == 3
        assert sum(1 for b in oversized if b.has_race) == 2


class TestDeterminism:
    def test_same_seed_same_corpus(self):
        a = build_corpus(CorpusConfig(seed=1))
        b = build_corpus(CorpusConfig(seed=1))
        assert [x.name for x in a] == [y.name for y in b]
        assert [x.code for x in a] == [y.code for y in b]

    def test_different_seed_changes_order_not_content(self):
        a = build_corpus(CorpusConfig(seed=1))
        b = build_corpus(CorpusConfig(seed=2))
        assert sorted(x.name.split("-", 1)[1] for x in a) == sorted(
            y.name.split("-", 1)[1] for y in b
        )

    def test_unshuffled_build_groups_families(self):
        corpus = build_corpus(CorpusConfig(shuffle=False))
        assert corpus[0].label.family == 1


class TestGroundTruthConsistency:
    def test_all_programs_parse(self, corpus):
        for bench in corpus:
            unit = parse(bench.code)
            assert unit.main is not None, bench.name

    def test_header_comment_contains_label_line(self, corpus):
        for bench in corpus:
            header = bench.code.split("*/", 1)[0]
            if bench.has_race:
                assert "Data race pair:" in header, bench.name
            else:
                assert "No data race present." in header, bench.name

    def test_race_pair_locations_point_at_real_text(self, corpus):
        """Every ground-truth access name must occur on the referenced line at
        the referenced column of the commented source."""
        for bench in corpus:
            lines = bench.code.splitlines()
            for pair in bench.race_pairs:
                for access in (pair.first, pair.second):
                    line_text = lines[access.line - 1]
                    snippet = line_text[access.col - 1 : access.col - 1 + len(access.name)]
                    assert snippet == access.name, (
                        f"{bench.name}: expected {access.name!r} at "
                        f"{access.line}:{access.col}, found {snippet!r}"
                    )

    def test_race_pairs_have_a_write(self, corpus):
        for bench in corpus:
            for pair in bench.race_pairs:
                assert "W" in (pair.first.operation, pair.second.operation)

    def test_yes_benchmarks_have_parallel_construct(self, corpus):
        for bench in corpus:
            if bench.has_race:
                assert "#pragma omp" in bench.code, bench.name


class TestCodeBuilder:
    def test_access_finds_column(self):
        b = CodeBuilder()
        ln = b.line("    a[i] = a[i+1] + 1;")
        spec = b.access(ln, "a[i+1]", "R")
        assert spec.col == "    a[i] = a[i+1] + 1;".index("a[i+1]") + 1

    def test_access_occurrence_selects_later_match(self):
        b = CodeBuilder()
        ln = b.line("    sum = sum + 1;")
        first = b.access(ln, "sum", "W", occurrence=1)
        second = b.access(ln, "sum", "R", occurrence=2)
        assert first.col < second.col

    def test_access_missing_expression_raises(self):
        b = CodeBuilder()
        ln = b.line("    x = 1;")
        with pytest.raises(ValueError):
            b.access(ln, "y", "W")

    def test_build_shifts_pair_lines_by_header_length(self):
        b = CodeBuilder()
        b.include("<stdio.h>")
        b.line("int main()")
        b.line("{")
        ln = b.line("  x = x + 1;")
        w = b.access(ln, "x", "W")
        r = b.access(ln, "x", "R", occurrence=2)
        b.pair(r, w)
        b.line("  return 0;")
        b.line("}")
        bench = b.build(
            index=1, slug="tiny", label=RaceLabel.Y2, category="t",
            description="desc",
        )
        header_len = bench.code.split("*/")[0].count("\n") + 1
        assert bench.race_pairs[0].second.line == ln + header_len

    def test_build_rejects_yes_without_pairs(self):
        b = CodeBuilder()
        b.line("int main() { return 0; }")
        with pytest.raises(ValueError):
            b.build(index=1, slug="x", label=RaceLabel.Y1, category="t", description="d")

    def test_build_rejects_no_with_pairs(self):
        b = CodeBuilder()
        ln = b.line("x = x + 1;")
        w = b.access(ln, "x", "W")
        r = b.access(ln, "x", "R", occurrence=2)
        b.pair(r, w)
        with pytest.raises(ValueError):
            b.build(index=1, slug="x", label=RaceLabel.N1, category="t", description="d")


class TestRegistry:
    def test_lookup_by_index_and_name(self, registry):
        bench = registry.by_index(5)
        assert registry.by_name(bench.name) is bench

    def test_race_partition_covers_everything(self, registry):
        assert len(registry.race_yes()) + len(registry.race_free()) == len(registry)

    def test_category_counts_sum(self, registry):
        assert sum(registry.category_counts().values()) == len(registry)

    def test_subset_restricts(self, registry):
        names = [b.name for b in registry.benchmarks[:10]]
        sub = registry.subset(names)
        assert len(sub) == 10

    def test_duplicate_names_rejected(self, registry):
        bench = registry.by_index(1)
        with pytest.raises(ValueError):
            CorpusRegistry([bench, bench])

    def test_summary_mentions_counts(self, registry):
        text = registry.summary()
        assert "201 microbenchmarks" in text


class TestStreamingCorpus:
    """The lazy producer: ``iter_corpus`` / spans / repeats / sharding all
    reproduce ``build_corpus`` element for element while generating one
    block at a time."""

    def test_iter_corpus_equals_build_corpus(self, corpus):
        from repro.corpus import iter_corpus

        streamed = list(iter_corpus(CorpusConfig()))
        assert [b.name for b in streamed] == [b.name for b in corpus]
        assert [b.code for b in streamed] == [b.code for b in corpus]

    def test_corpus_size_matches_build(self, corpus):
        from repro.corpus import corpus_size

        assert corpus_size(CorpusConfig()) == len(corpus)
        assert corpus_size(CorpusConfig(repeats=7)) == 7 * len(corpus)

    def test_iter_corpus_span_slices_the_stream(self, corpus):
        from repro.corpus.generator import iter_corpus_span

        span = list(iter_corpus_span(CorpusConfig(), 50, 60))
        assert [b.name for b in span] == [b.name for b in corpus[49:59]]

    def test_span_crossing_block_boundary(self):
        from repro.corpus import iter_corpus
        from repro.corpus.generator import iter_corpus_span

        config = CorpusConfig(repeats=3)
        full = list(iter_corpus(config))
        span = list(iter_corpus_span(config, 195, 215))  # straddles block 0/1
        assert [b.name for b in span] == [b.name for b in full[194:214]]

    def test_repeats_scale_count_with_unique_names(self):
        from repro.corpus import iter_corpus

        config = CorpusConfig(repeats=3)
        corpus3 = list(iter_corpus(config))
        assert len(corpus3) == 3 * 201
        assert len({b.name for b in corpus3}) == len(corpus3)

    def test_first_block_is_the_historical_corpus(self, corpus):
        """repeats > 1 only appends blocks: block 0 stays byte-identical to
        the repeats=1 corpus, so existing results remain reproducible."""
        import itertools

        from repro.corpus import iter_corpus

        first_block = list(itertools.islice(iter_corpus(CorpusConfig(repeats=4)), 201))
        assert [b.code for b in first_block] == [b.code for b in corpus]

    def test_build_corpus_validates_repeated_blocks(self):
        corpus2 = build_corpus(CorpusConfig(repeats=2))
        assert len(corpus2) == 402
        assert sum(1 for b in corpus2 if b.has_race) == 204

    def test_rejects_bad_repeats(self):
        with pytest.raises(ValueError):
            CorpusConfig(repeats=0)

    def test_iteration_is_lazy(self):
        """Pulling a handful of benchmarks from a million-record corpus
        must not generate the rest (bounded memory, bounded time)."""
        import itertools

        from repro.corpus import corpus_size, iter_corpus

        config = CorpusConfig(repeats=5000)
        assert corpus_size(config) == 1_005_000
        head = list(itertools.islice(iter_corpus(config), 3))
        assert len(head) == 3  # returned without generating 1M benchmarks
