"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import main


class TestCLI:
    def test_summary_command(self, capsys):
        assert main(["summary"]) == 0
        out = capsys.readouterr().out
        assert "201 microbenchmarks" in out
        assert "DRB-ML" in out

    def test_table2_command_prints_table(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out and "BP1" in out and "BP2" in out

    def test_table5_command_prints_all_models(self, capsys):
        assert main(["table5"]) == 0
        out = capsys.readouterr().out
        for model in ("gpt-4", "gpt-3.5-turbo", "starchat-beta", "llama2-7b"):
            assert model in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["not-a-table"])

    def test_engine_stats_line_printed(self, capsys):
        assert main(["table2", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "[engine]" in out
        assert "cache_hit_rate=" in out
        assert "wall=" in out

    def test_no_stats_flag_suppresses_line(self, capsys):
        assert main(["table2", "--no-stats"]) == 0
        assert "[engine]" not in capsys.readouterr().out

    def test_cache_file_written_and_reused(self, tmp_path, capsys):
        cache_dir = tmp_path / "responses"
        assert main(["table2", "--cache", str(cache_dir)]) == 0
        first = capsys.readouterr().out
        assert cache_dir.is_dir()
        assert list(cache_dir.glob("segment-*.jsonl"))
        assert main(["table2", "--cache", str(cache_dir)]) == 0
        second = capsys.readouterr().out
        assert "cache_hit_rate=100.0%" in second
        # Same table either way: caching never changes results.  Telemetry
        # ([engine] lines) legitimately differs between cold and warm runs.
        def table_rows(out):
            return [l for l in out.splitlines() if "gpt" in l and not l.startswith("[engine]")]

        assert table_rows(first) == table_rows(second)

    def test_executor_flag_selects_backend(self, capsys):
        assert main(["table2", "--executor", "async"]) == 0
        out = capsys.readouterr().out
        assert "executor=async" in out and "Table 2" in out

    def test_executor_process_same_table(self, capsys):
        assert main(["table2", "--no-stats"]) == 0
        serial = capsys.readouterr().out
        assert main(["table2", "--executor", "process", "--jobs", "2", "--no-stats"]) == 0
        process = capsys.readouterr().out
        assert [l for l in serial.splitlines() if "gpt" in l] == [
            l for l in process.splitlines() if "gpt" in l
        ]

    def test_unknown_executor_rejected(self):
        with pytest.raises(SystemExit):
            main(["table2", "--executor", "quantum"])

    def test_dispatch_modes_same_table(self, capsys):
        """--no-lpt/--no-adaptive-batching dispatch plan-order, fixed-size
        chunks; the table rows must not change."""
        assert main(["table2", "--no-stats"]) == 0
        dynamic = capsys.readouterr().out
        assert main(
            [
                "table2",
                "--no-lpt",
                "--no-adaptive-batching",
                "--jobs", "4",
                "--no-stats",
            ]
        ) == 0
        ordered = capsys.readouterr().out
        assert [l for l in dynamic.splitlines() if "gpt" in l] == [
            l for l in ordered.splitlines() if "gpt" in l
        ]

    def test_unknown_dispatch_rejected(self, capsys):
        """--dispatch is gone: argparse rejects it with a usage error."""
        for mode in ("ordered", "dynamic"):
            with pytest.raises(SystemExit) as exit_info:
                main(["table2", "--dispatch", mode])
            assert exit_info.value.code == 2
            assert "unrecognized arguments: --dispatch" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag",
        [
            "--max-inflight",
            "--stream-window",
            "--speculate-after",
            "--retry-base-ms",
            "--breaker-threshold",
            "--breaker-cooldown-s",
            "--deadline",
            "--cache-entries",
        ],
    )
    def test_removed_tuning_flags_rejected(self, capsys, flag):
        """The unmeasured tuning flags are gone; their engine defaults hold."""
        with pytest.raises(SystemExit) as exit_info:
            main(["table2", "--jobs", "2", "--speculate", "--retries", "1", "--stream", flag, "2"])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_no_cache_sends_every_prompt_to_the_model(self, capsys):
        assert main(["table2", "--no-cache"]) == 0
        line = next(l for l in capsys.readouterr().out.splitlines() if l.startswith("[engine]"))
        stats = dict(part.split("=", 1) for part in line.split()[1:] if "=" in part)
        assert stats["model_calls"] == stats["requests"]
        assert stats["cache_hit_rate"] == "0.0%"

    def test_slowest_groups_printed_with_stats(self, capsys):
        assert main(["table2", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "slowest groups" in out
        assert "gpt-3.5-turbo/BP1" in out

    def test_cost_model_persisted_beside_cache(self, tmp_path, capsys):
        cache_dir = tmp_path / "responses"
        assert main(["table2", "--cache", str(cache_dir)]) == 0
        capsys.readouterr()
        costmodel = cache_dir / "costmodel.json"
        assert costmodel.is_file()
        import json

        payload = json.loads(costmodel.read_text(encoding="utf-8"))
        assert payload["format"] == "repro-cost-model"
        models = {g["model"] for g in payload["groups"]}
        assert "gpt-3.5-turbo" in models

    def test_sequential_requires_all(self):
        with pytest.raises(SystemExit):
            main(["table2", "--sequential"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["table2"],
            ["summary"],
            ["all"],
            ["cache", "stats"],
            ["cache", "compact"],
        ],
    )
    def test_cache_path_that_is_a_file_rejected(self, tmp_path, capsys, argv):
        """The cache is a directory of segments: a regular file given as
        --cache is a usage error for every command, not a traceback."""
        stray = tmp_path / "v1.json"
        stray.write_text('{"version": 1, "entries": {}}', encoding="utf-8")
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, "--cache", str(stray)])
        assert exit_info.value.code == 2
        assert "is a file" in capsys.readouterr().err
        assert stray.is_file()  # left untouched

    def test_cache_stats_without_a_store_says_so(self, tmp_path, capsys):
        missing = tmp_path / "no" / "such" / "dir"
        assert main(["cache", "stats", "--cache", str(missing)]) == 0
        out = capsys.readouterr().out
        assert "no cache store" in out
        assert "live_entries" not in out
        assert not missing.exists()

    @pytest.mark.parametrize(
        "flags",
        [
            ["--speculate"],
            ["--speculate", "--jobs", "1", "--executor", "thread"],
            ["--speculate", "--executor", "serial", "--jobs", "4"],
            ["--cascade-tiers", "static"],
            ["--escalate-below", "0.9"],
            ["--speculate", "--executor", "async", "--jobs", "1"],
        ],
    )
    def test_flags_without_their_mode_rejected(self, capsys, flags):
        """A flag given without the mode it needs would do nothing; it fails
        argument validation instead.  Speculation needs an idle executor
        slot, which a one-wide executor never has."""
        with pytest.raises(SystemExit) as exit_info:
            main(["table2", *flags])
        assert exit_info.value.code == 2
        assert "requires" in capsys.readouterr().err

    def test_tuning_flags_accepted_with_their_mode(self, capsys):
        assert main(
            [
                "table2", "--no-stats", "--speculate", "--executor", "async",
                "--cascade", "--cascade-tiers", "static", "--escalate-below", "0.9",
            ]
        ) == 0
        assert "Table 2" in capsys.readouterr().out
