"""A CLI run builds the default corpus once.

The summary, the ≤4k-token subset every table reads and Table 3's
Inspector inputs all come from one build.  Builds are counted as pattern
instantiations: one build of the default corpus is ``corpus_size()`` of
them.  A warm run also draws no adapter projection, so it never imports
``numpy.random``; that is checked in a fresh interpreter, because this test
process has long imported it.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.__main__ import main
from repro.corpus.generator import corpus_size
from repro.corpus.patterns.base import PatternSpec

SRC = str(Path(repro.__file__).resolve().parents[1])


def _counted_run(argv):
    """``(stdout, pattern instantiations)`` of one in-process CLI run."""
    count = 0
    instantiate = PatternSpec.instantiate

    def counting(self, *args):
        nonlocal count
        count += 1
        return instantiate(self, *args)

    out = io.StringIO()
    with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stdout(out):
        patch.setattr(PatternSpec, "instantiate", counting)
        assert main(argv) == 0
    return out.getvalue(), count


@pytest.fixture(scope="module")
def primed(tmp_path_factory):
    """A cache primed by one cold ``repro all``, with that run's output and count."""
    cache = tmp_path_factory.mktemp("primed")
    out, count = _counted_run(["all", "--cache", str(cache), "--no-stats"])
    return cache, out, count


@pytest.fixture
def warm_cache(primed, tmp_path):
    copy = tmp_path / "cache"
    shutil.copytree(primed[0], copy)
    return copy


def test_cold_run_builds_the_corpus_once(primed):
    assert primed[2] == corpus_size()


def test_warm_run_builds_the_corpus_once(primed, warm_cache):
    out, count = _counted_run(["all", "--cache", str(warm_cache), "--no-stats"])
    assert count == corpus_size()
    assert out == primed[1]


@pytest.mark.parametrize(
    "argv",
    [["all", "--sequential"], ["all", "--stream"], ["table3"], ["summary"]],
    ids=["sequential", "stream", "table3", "summary"],
)
def test_other_commands_build_the_corpus_once(warm_cache, argv):
    _, count = _counted_run([*argv, "--cache", str(warm_cache), "--no-stats"])
    assert count == corpus_size()


def test_cold_sequential_run_builds_the_corpus_once():
    _, count = _counted_run(["all", "--sequential", "--no-stats", "--no-cache"])
    assert count == corpus_size()


def test_fresh_warm_run_imports_no_numpy_random(warm_cache):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    script = f"""
        import contextlib, io, sys
        import repro.__main__ as cli

        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["all", "--cache", {str(warm_cache)!r}, "--no-stats"]) == 0
        print("numpy.random" in sys.modules)
    """
    completed = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.split() == ["False"]
