"""Tests for the ``repro analyze`` command-line front end."""

import json

import pytest

from repro.analysis.cli import main, run_analyze

RACY = """
int main()
{
  int i;
  int a[100];
#pragma omp parallel for
  for (i = 0; i < 99; i++)
    a[i] = a[i + 1] + 1;
  return 0;
}
"""

CLEAN = """
int main()
{
  int i;
  int a[100];
#pragma omp parallel for
  for (i = 0; i < 100; i++)
    a[i] = i;
  return 0;
}
"""


@pytest.fixture()
def racy_file(tmp_path):
    path = tmp_path / "racy.c"
    path.write_text(RACY, encoding="utf-8")
    return str(path)


@pytest.fixture()
def clean_file(tmp_path):
    path = tmp_path / "clean.c"
    path.write_text(CLEAN, encoding="utf-8")
    return str(path)


def test_text_output_names_rule_and_span(racy_file, capsys):
    assert main([racy_file]) == 0
    out = capsys.readouterr().out
    assert "race" in out
    assert "DRD-LOOP-CARRIED" in out
    assert "a[i]" in out


def test_json_output_matches_schema(racy_file, clean_file, capsys):
    assert main(["--json", racy_file, clean_file]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [f["file"] for f in payload["files"]] == [racy_file, clean_file]
    racy, clean = payload["files"]
    assert racy["has_race"] is True
    assert clean["has_race"] is False
    diagnostic = racy["diagnostics"][0]
    assert diagnostic["rule"] == "DRD-LOOP-CARRIED"
    assert diagnostic["primary"]["line"] > 0
    assert diagnostic["primary"]["col"] > 0
    assert 0.0 < diagnostic["confidence"] <= 1.0
    assert clean["suppressions"]  # the clean verdict cites its proof rules


def test_stats_telemetry_counts_rules_and_phases(racy_file, clean_file, capsys):
    assert main(["--json", "--stats", racy_file, clean_file]) == 0
    stats = json.loads(capsys.readouterr().out)["stats"]
    assert stats["files"] == 2
    assert stats["racy"] == 1
    assert stats["failures"] == 0
    assert stats["rule_fires"].get("DRD-LOOP-CARRIED", 0) >= 1
    assert stats["regions"] == 2
    assert stats["max_phases"] >= 1


def test_parse_failure_is_reported_not_raised(tmp_path, capsys):
    bad = tmp_path / "bad.c"
    bad.write_text("int main( {{{", encoding="utf-8")
    assert main([str(bad)]) == 0  # without --self-lint failures are reported
    assert "ERROR" in capsys.readouterr().out


def test_self_lint_fails_on_analyzer_crash(tmp_path, capsys):
    bad = tmp_path / "bad.c"
    bad.write_text("int main( {{{", encoding="utf-8")
    assert main(["--self-lint", str(bad)]) == 1
    assert "analyzer crashed" in capsys.readouterr().out


def test_self_lint_passes_on_well_formed_inputs(racy_file, clean_file, capsys):
    assert main(["--self-lint", racy_file, clean_file]) == 0
    assert "[analyze-lint] ok" in capsys.readouterr().out


def test_parallel_fanout_preserves_input_order(racy_file, clean_file):
    items = [("racy.c", RACY), ("clean.c", CLEAN)] * 3
    results = run_analyze(items, jobs=4)
    assert [r.name for r in results] == [name for name, _ in items]
    verdicts = [r.report.has_race for r in results]
    assert verdicts == [True, False] * 3


def test_no_inputs_is_a_usage_error():
    with pytest.raises(SystemExit):
        main([])


def test_non_utf8_file_is_a_usage_error_naming_the_file(tmp_path, clean_file, capsys):
    bad = tmp_path / "bad.c"
    bad.write_bytes(b"\xff\xfeint main() { return 0; }\n")
    with pytest.raises(SystemExit) as excinfo:
        main([str(bad), clean_file])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "bad.c" in err
    assert "Traceback" not in err
