"""The interpreter's execution limits and error type, without the interpreter.

:mod:`repro.dynamic.interpreter` compiles a 2,000-line module; code that
only configures a run (:class:`InterpreterLimits`) or catches its failures
(:class:`InterpreterError`) imports them from here, so importing it does
not load the interpreter.  ``interpreter`` re-exports both unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["InterpreterError", "InterpreterLimits"]


class InterpreterError(RuntimeError):
    """Raised for unsupported constructs or runtime errors during interpretation."""


@dataclass(frozen=True)
class InterpreterLimits:
    """Execution limits protecting against runaway loops."""

    max_steps: int = 2_000_000
    max_loop_iterations: int = 100_000
