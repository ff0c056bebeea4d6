"""Tests for the DRB-ML pipeline: trimming, labels, records, folds, subset."""

import json

import pytest
from hypothesis import given, strategies as st

from repro.corpus import CorpusConfig, build_corpus
from repro.dataset import (
    DRBMLDataset,
    StratifiedKFold,
    build_advanced_pairs,
    build_basic_pairs,
    count_tokens,
    scrape_var_pairs,
    trim_comments,
)
from repro.dataset.records import DRBMLRecord, VarPairRecord
from repro.dataset.tokenizer import CodeTokenizer
from repro.dataset.templates import render_advanced_ft_response, render_basic_ft_response


@pytest.fixture(scope="module")
def dataset():
    return DRBMLDataset.build_default(CorpusConfig())


@pytest.fixture(scope="module")
def subset(dataset):
    return dataset.token_subset()


class TestTrim:
    def test_removes_block_and_line_comments(self):
        src = "/* header */\nint x; // trailing\n// whole line\nint y;\n"
        result = trim_comments(src)
        assert "header" not in result.trimmed_code
        assert "trailing" not in result.trimmed_code
        assert "int x;" in result.trimmed_code and "int y;" in result.trimmed_code

    def test_line_map_accounts_for_removed_lines(self):
        src = "/* one */\n/* two */\nint x;\nint y;\n"
        result = trim_comments(src)
        assert result.map_line(3) == 1
        assert result.map_line(4) == 2
        assert result.map_line(1) is None

    def test_columns_preserved(self):
        src = "int a;\n  a = 1; /* c */\n"
        result = trim_comments(src)
        assert result.trimmed_code.splitlines()[1].startswith("  a = 1;")

    @pytest.mark.parametrize("brk", ["\r", "\x0b", "\u2028"])
    def test_only_newline_ends_a_line(self, brk):
        """Other line-break characters inside a comment stay comment text."""
        result = trim_comments(f"/* a{brk}b */\nint x;\n")
        assert result.trimmed_code == "int x;\n"
        assert result.line_map == {2: 1}

    @pytest.mark.parametrize("brk", ["\x0b", "\u2028"])
    def test_line_break_inside_string_keeps_line(self, brk):
        result = trim_comments(f'char *s = "a{brk}b"; // c\nint x;\n')
        assert result.trimmed_code == f'char *s = "a{brk}b";\nint x;\n'
        assert result.line_map == {1: 1, 2: 2}

    def test_crlf_lines(self):
        result = trim_comments("/* c */\r\nint x; // t\r\n\r\nint y;\r\n")
        assert result.trimmed_code == "int x;\nint y;\n"
        assert result.line_map == {2: 1, 4: 2}

    @pytest.mark.parametrize("blank", [" ", "\t", "\r"])
    def test_blank_lines_drop_and_lines_lose_trailing_blanks(self, blank):
        """The lexer takes no other blank outside comments and strings; a
        Unicode blank in a comment is replaced like any comment text."""
        source = f"int x;{blank}\n{blank}\n/* \u3000\x1c */{blank}\n{blank}int y; // \u00a0\n"
        result = trim_comments(source)
        assert result.trimmed_code == f"int x;\n{blank}int y;\n"
        assert result.line_map == {1: 1, 4: 2}

    @given(st.text(alphabet="ab ;\t\r\n", max_size=100))
    def test_lines_match_the_strip_then_rstrip_definition(self, text):
        kept = [(n, line.rstrip()) for n, line in enumerate(text.split("\n"), start=1)
                if line.strip() != ""]
        result = trim_comments(text)
        assert result.trimmed_code == "".join(line + "\n" for _, line in kept)
        assert result.line_map == {n: i for i, (n, _) in enumerate(kept, start=1)}

    @given(st.text(alphabet="abc ;\n", max_size=100))
    def test_trimmed_never_longer(self, text):
        result = trim_comments(text)
        assert len(result.trimmed_code) <= len(text) + 1


class TestLabels:
    def test_scrapes_paper_listing_format(self):
        code = "/*\nA loop.\nData race pair: a[i+1]@64:10:R vs. a[i]@64:5:W\n*/\nint main(){}"
        pairs = scrape_var_pairs(code)
        assert len(pairs) == 1
        assert pairs[0].first.name == "a[i+1]" and pairs[0].first.line == 64
        assert pairs[0].second.operation == "W"

    def test_names_with_spaces(self):
        code = "/*\nData race pair: hist[i % 8]@10:3:W vs. hist[i % 8]@10:3:R\n*/\n"
        pairs = scrape_var_pairs(code)
        assert pairs[0].first.name == "hist[i % 8]"

    def test_no_pairs_for_race_free_header(self):
        assert scrape_var_pairs("/*\nNo data race present.\n*/\nint main(){}") == []


class TestTokenizer:
    def test_counts_scale_with_length(self):
        short = count_tokens("int main() { return 0; }")
        longer = count_tokens("int main() { int a[100]; return 0; }" * 10)
        assert 0 < short < longer

    def test_long_identifiers_split(self):
        assert count_tokens("averyveryverylongidentifiername") >= 4

    def test_count_equals_tokenize_length_over_the_corpus(self):
        """``count`` sums piece counts without building the piece lists;
        it must agree with ``tokenize`` on every corpus program."""
        tokenizer = CodeTokenizer()
        for bench in build_corpus(CorpusConfig()):
            for text in (bench.code, trim_comments(bench.code).trimmed_code):
                assert tokenizer.count(text) == len(tokenizer.tokenize(text))

    @pytest.mark.parametrize("size", [1, 3, 8])
    def test_count_equals_tokenize_length_on_unicode_text(self, size):
        """Unicode digits form words, Unicode blanks (``\\x1c`` among
        them) separate tokens, and other characters are one token each."""
        import random

        rng = random.Random(size)
        alphabet = "ab_Z09.  \t\n\x1c\x1f\x85\u00a0\u2028\u3000\u0663\u00b2\u00e9+;"
        texts = ["abcdefghij1234567890", "3.14159265358979", "\u0663\u0664.\u0665",
                 "a\x1cb", "x\u2003=\u00a0\u0661\u0662;", ""]
        texts += ["".join(rng.choice(alphabet) for _ in range(rng.randint(0, 40)))
                  for _ in range(3000)]
        tokenizer = CodeTokenizer(max_piece_len=size)
        for text in texts:
            assert tokenizer.count(text) == len(tokenizer.tokenize(text)), repr(text)


class TestRecords:
    def test_record_schema_roundtrip(self, dataset):
        record = dataset.records[0]
        clone = DRBMLRecord.from_json(record.to_json())
        assert clone.name == record.name
        assert clone.data_race == record.data_race
        assert len(clone.var_pairs) == len(record.var_pairs)

    def test_id_zero_padded_in_json(self, dataset):
        payload = json.loads(dataset.records[0].to_json())
        assert payload["ID"] == f"{dataset.records[0].ID:03d}"

    def test_var_pair_requires_two_entries(self):
        with pytest.raises(ValueError):
            VarPairRecord(name=["a"], line=[1], col=[1], operation=["W"])

    def test_code_len_consistency_enforced(self):
        with pytest.raises(ValueError):
            DRBMLRecord(
                ID=1, name="x", DRB_code="abc", trimmed_code="abc", code_len=5,
                data_race=0, data_race_label="N1",
            )


class TestDatasetShape:
    def test_full_dataset_has_201_records(self, dataset):
        assert len(dataset) == 201

    def test_subset_matches_paper_198(self, subset):
        assert len(subset) == 198
        assert len(subset.positives()) == 100
        assert len(subset.negatives()) == 98

    def test_positive_fraction_about_half(self, subset):
        assert subset.positive_fraction() == pytest.approx(0.505, abs=0.01)

    def test_var_pair_lines_point_at_trimmed_code(self, dataset):
        for record in dataset.records:
            lines = record.trimmed_code.splitlines()
            for pair in record.var_pairs:
                for name, line, col in zip(pair.name, pair.line, pair.col):
                    snippet = lines[line - 1][col - 1 : col - 1 + len(name)]
                    assert snippet == name, record.name

    def test_race_free_records_have_no_pairs(self, dataset):
        for record in dataset.records:
            if not record.has_race:
                assert record.var_pairs == []

    def test_save_and_load_roundtrip(self, subset, tmp_path):
        small = DRBMLDataset(records=subset.records[:5])
        small.save(tmp_path)
        loaded = DRBMLDataset.load(tmp_path)
        assert len(loaded) == 5
        assert loaded.records[0].name == small.records[0].name


class TestFolds:
    def test_paper_fold_allocation(self, subset):
        sizes = StratifiedKFold().fold_sizes([(r.name, r.data_race) for r in subset.records])
        assert sorted(sizes, reverse=True) == [(20, 20), (20, 20), (20, 20), (20, 19), (20, 19)]

    def test_folds_partition_dataset(self, subset):
        folds = subset.folds()
        all_test = [name for fold in folds for name in fold.test_names]
        assert sorted(all_test) == sorted(r.name for r in subset.records)

    def test_train_test_disjoint(self, subset):
        for fold in subset.folds():
            assert not (set(fold.test_names) & set(fold.train_names))

    @given(st.integers(10, 60), st.integers(10, 60), st.integers(2, 6))
    def test_stratification_property(self, n_pos, n_neg, k):
        items = [(f"p{i}", 1) for i in range(n_pos)] + [(f"n{i}", 0) for i in range(n_neg)]
        sizes = StratifiedKFold(n_folds=k, seed=3).fold_sizes(items)
        pos_counts = [p for p, _ in sizes]
        neg_counts = [n for _, n in sizes]
        assert sum(pos_counts) == n_pos and sum(neg_counts) == n_neg
        assert max(pos_counts) - min(pos_counts) <= 1
        assert max(neg_counts) - min(neg_counts) <= 1

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            StratifiedKFold().split([("a", 1), ("a", 0)])


class TestFineTuningPairs:
    def test_basic_pairs_responses_are_yes_no(self, subset):
        pairs = build_basic_pairs(subset.records[:20])
        assert all(p.response in ("yes", "no") for p in pairs)
        assert all(("yes" == p.response) == bool(p.label) for p in pairs)

    def test_advanced_pairs_embed_variable_names(self, subset):
        racy = [r for r in subset.records if r.has_race][:5]
        pairs = build_advanced_pairs(racy)
        for record, pair in zip(racy, pairs):
            assert record.var_pairs[0].name[0] in pair.response

    def test_prompt_contains_code(self, subset):
        record = subset.records[0]
        pairs = build_basic_pairs([record])
        assert record.trimmed_code.splitlines()[0] in pairs[0].prompt

    def test_response_templates(self, subset):
        racy = next(r for r in subset.records if r.has_race)
        clean = next(r for r in subset.records if not r.has_race)
        assert render_basic_ft_response(racy) == "yes"
        assert render_basic_ft_response(clean) == "no"
        assert '"data_race": 0' in render_advanced_ft_response(clean)
