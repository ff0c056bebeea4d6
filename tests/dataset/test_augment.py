"""Tests for the DRB-ML augmentation transforms (paper future-work feature)."""

import pytest

from repro.cparse import parse
from repro.dataset import DRBMLDataset
from repro.dataset.augment import (
    AugmentationConfig,
    augment_dataset,
    _fix_pair_columns,
    augment_record,
    rename_identifiers,
    scale_loop_bounds,
)


@pytest.fixture(scope="module")
def subset():
    return DRBMLDataset.build_default().token_subset()


class TestRename:
    def test_renames_user_variables_only(self, subset):
        record = next(r for r in subset.records if "antidep1" in r.name)
        renamed, mapping = rename_identifiers(record.DRB_code)
        assert "printf" in renamed
        assert mapping and all(old not in ("printf", "main") for old in mapping)
        # the array variable no longer appears under its old name as a word
        array_name = record.var_pairs[0].name[0].split("[")[0]
        assert f" {array_name}[" not in renamed

    def test_renamed_code_still_parses(self, subset):
        record = next(r for r in subset.records if "sumnoreduction" in r.name)
        renamed, _ = rename_identifiers(record.DRB_code)
        assert parse(renamed).main is not None

    def test_rename_is_deterministic(self, subset):
        record = subset.records[0]
        a, _ = rename_identifiers(record.DRB_code, salt=3)
        b, _ = rename_identifiers(record.DRB_code, salt=3)
        assert a == b


class TestScale:
    def test_scales_array_dims_and_len(self):
        code = "int len = 100;\nint a[100];\nfor (i = 0; i < len; i++) a[i] = a[i+4];\n"
        scaled = scale_loop_bounds(code, factor=2)
        assert "int len = 200;" in scaled
        assert "a[200]" in scaled
        assert "a[i+4]" in scaled  # small offsets untouched

    def test_small_constants_preserved(self):
        code = "int bins[8];\nbins[i % 8] = 1;\n"
        assert scale_loop_bounds(code) == code


class TestFixPairColumns:
    def test_reanchors_column_on_recorded_line(self):
        code = "/*\nData race pair: b@4:9:W vs. b@4:9:R\n*/\n  b = 1;\n"
        assert _fix_pair_columns(code) == code.replace("4:9", "4:3")

    @pytest.mark.parametrize("brk", ["\r", "\x0b", "\u2028"])
    def test_lines_are_newline_delimited(self, brk):
        code = f"/* x{brk}y\nData race pair: b@4:9:W vs. b@4:9:R\n*/\n  b = 1;\n"
        assert _fix_pair_columns(code) == code.replace("4:9", "4:3")


class TestAugmentRecords:
    def test_augmented_records_keep_labels(self, subset):
        sample = subset.records[:30]
        augmented = augment_dataset(sample, AugmentationConfig())
        assert augmented, "augmentation should produce variants"
        by_origin = {a.origin_name for a in augmented}
        assert by_origin <= {r.name for r in sample}
        for variant in augmented:
            origin = next(r for r in sample if r.name == variant.origin_name)
            assert variant.record.data_race == origin.data_race
            assert variant.record.name != origin.name

    def test_augmented_pair_locations_are_consistent(self, subset):
        racy = [r for r in subset.records if r.has_race][:25]
        augmented = augment_dataset(racy, AugmentationConfig())
        checked = 0
        for variant in augmented:
            lines = variant.record.trimmed_code.splitlines()
            for pair in variant.record.var_pairs:
                for name, line, col in zip(pair.name, pair.line, pair.col):
                    snippet = lines[line - 1][col - 1 : col - 1 + len(name)]
                    assert snippet == name, variant.record.name
                    checked += 1
        assert checked > 0

    def test_augmented_code_parses(self, subset):
        sample = subset.records[:15]
        for variant in augment_dataset(sample):
            assert parse(variant.record.DRB_code).main is not None

    def test_variant_cap_respected(self, subset):
        config = AugmentationConfig(max_variants_per_record=1)
        variants = augment_record(subset.records[0], config)
        assert len(variants) <= 1

    def test_token_limit_filter(self, subset):
        config = AugmentationConfig(token_limit=1)
        assert augment_record(subset.records[0], config) == []
