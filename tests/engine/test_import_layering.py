"""What ``import repro.engine`` and ``import repro.__main__`` load.

The engine knows requests, models and scoring; it must not pull in the
analyzers, the Inspector, the experiment drivers or numpy.  The CLI loads
every module a ``repro all`` runs, but not the Inspector's interpreter,
which only a run that interprets compiles, nor asyncio, which only the
async paths use.  Each check runs in a fresh interpreter, because this
test process has long imported everything.
"""

from __future__ import annotations

import functools
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.dynamic import InspectorLikeDetector, InterpreterLimits

SRC = str(Path(repro.__file__).resolve().parents[1])


def _run(script: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout


@functools.lru_cache(maxsize=None)
def _loaded_after(statement: str) -> frozenset:
    return frozenset(json.loads(_run(f"import json, sys\n{statement}\nprint(json.dumps(sorted(sys.modules)))")))


def _under(modules: frozenset, package: str) -> list:
    return sorted(m for m in modules if m == package or m.startswith(package + "."))


@pytest.mark.parametrize(
    "package",
    ["numpy", "asyncio", "repro.analysis", "repro.dynamic", "repro.eval.experiments",
     "repro.llm.features", "repro.dataset", "repro.corpus", "repro.cparse"],
)
def test_engine_import_leaves_out(package):
    assert _under(_loaded_after("import repro.engine"), package) == []


def test_engine_import_loads_only_the_scoring_modules_it_uses():
    loaded = _loaded_after("import repro.engine")
    assert _under(loaded, "repro.eval") == ["repro.eval", "repro.eval.matching", "repro.eval.metrics"]
    assert _under(loaded, "repro.llm") == ["repro.llm", "repro.llm.base"]


def test_cli_import_loads_no_interpreter_and_no_asyncio():
    loaded = _loaded_after("import repro.__main__")
    assert _under(loaded, "asyncio") == []
    assert "repro.dynamic.interpreter" not in loaded
    # Everything a table run executes is loaded up front, outside its timing.
    assert {"repro.eval.crossval", "repro.llm.finetune", "repro.llm.adapters"} <= loaded


def test_inspector_compiles_the_interpreter_on_first_analysis():
    out = _run(
        """
        import sys
        from repro.dynamic.inspector import InspectorLikeDetector

        print("repro.dynamic.interpreter" in sys.modules)
        result = InspectorLikeDetector().analyze_source("int main() { return 0; }")
        print("repro.dynamic.interpreter" in sys.modules, result.runs, result.has_race)
        """
    )
    assert out.split("\n")[:2] == ["False", "True 2 False"]


def test_every_public_name_still_resolves():
    out = _run(
        """
        import importlib

        for package in ("repro.engine", "repro.eval", "repro.llm", "repro.dynamic"):
            module = importlib.import_module(package)
            assert module.__all__, package
            for name in module.__all__:
                getattr(module, name)
                assert name in dir(module), (package, name)
            print(package, len(module.__all__))
        from repro.dynamic import interpreter  # a submodule, not a re-export
        print(interpreter.Interpreter.__module__)
        """
    )
    assert out.splitlines()[-1] == "repro.dynamic.interpreter"


def test_unknown_package_attribute_is_an_attribute_error():
    import repro.llm

    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        repro.llm.nope  # noqa: B018


class TestInspectorVerdictIdentity:
    """A cache written before the interpreter's classes moved still matches."""

    def test_cache_identity(self):
        assert InspectorLikeDetector().cache_identity == "inspector/v2#5f6f1ddf00fe1a82"

    def test_limits_repr(self):
        assert repr(InterpreterLimits()) == (
            "InterpreterLimits(max_steps=2000000, max_loop_iterations=100000)"
        )

    def test_interpreter_reexports_the_same_classes(self):
        import repro.dynamic.interpreter as interpreter
        import repro.dynamic.limits as limits

        assert interpreter.InterpreterError is limits.InterpreterError
        assert interpreter.InterpreterLimits is limits.InterpreterLimits
