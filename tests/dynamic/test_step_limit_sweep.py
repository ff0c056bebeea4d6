"""Where each compiled closure takes its steps, pinned by a step-limit sweep.

Every small program below runs under both schedules once for every
``max_steps`` from 0 up to the step count of its full run, twice:

* the stopping run (``record=False, stop_at_race=True``, what ``predict``
  uses) gives ``race <steps>`` when it stopped at a race, ``finished
  <steps> <accesses>`` when it ran to its end, or ``error <message>``,
  each with the number of race-index entries it made;
* the recording run gives ``finished <steps>`` or ``error <message>``,
  with every event it recorded and its memory, up to its end or failure.

A run cut off at every step shows what the program had done by then, so
the fixture pins, per program, the order of every step decrement, limit
check, read, store and access report.  Together the programs reach every shape
the compiler specialises: leaf-leaf binary operators with private, shared
and undeclared operands, 1-D and 2-D loads and stores on shared and
private arrays, ``i++`` / ``i += c`` on a name, and serial loops with a
``name relop leaf`` condition, in racing and race-free programs.

``fixtures/step_limit_sweep.json`` holds, per program and schedule, the
full run's step count, the stopping run's outcomes run-length encoded as
``[first max_steps, outcome]`` pairs, and a SHA-256 digest of the
recording run's outcomes.  It was recorded before the compiler
specialised any closure.  Re-record it only for an intended change of
interpreter output::

    PYTHONPATH=src python tests/dynamic/test_step_limit_sweep.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List

import pytest

from repro.cparse import parse
from repro.dynamic import interpreter as interpreter_module
from repro.dynamic.events import ExecutionTrace
from repro.dynamic.interpreter import Interpreter, InterpreterError, InterpreterLimits, Program

FIXTURE = Path(__file__).with_name("fixtures") / "step_limit_sweep.json"
SCHEDULES = ("static", "roundrobin")
NUM_THREADS = 2
#: No program here runs longer; the sweep is quadratic in the step count.
MAX_SWEEP = 2_000
_LIMITED = "error execution step limit exceeded"

PROGRAMS: Dict[str, str] = {
    # Leaf-leaf operators over a private, a shared (read-only) and a
    # literal operand, inside and outside a region: race-free.
    "leaf_binary_clean": """
int a = 3;
double f = 1.5;
int main() {
  int i;
  int x = 0;
  int n = 4;
  x = a + n;
  x = 2 - a;
  x = n * 3;
#pragma omp parallel for private(x)
  for (i = 0; i < n; i++) {
    x = i + a;
    x = a - i;
    x = 2 * i;
    x = i * f;
    x = a < i;
    x = i >= 2;
    x = i % 3;
  }
  return 0;
}
""",
    # A shared scalar both read and written by every thread.
    "leaf_binary_race": """
int main() {
  int i;
  int s = 0;
  int k = 2;
#pragma omp parallel for
  for (i = 0; i < 4; i++) {
    s = s + i;
    s = k * s;
  }
  return 0;
}
""",
    "undeclared_left_operand": """
int main() {
  int i;
  int x = 1;
  x = x + 1;
#pragma omp parallel for private(x)
  for (i = 0; i < 4; i++) {
    x = i + 1;
    x = q + 1;
  }
  return 0;
}
""",
    "undeclared_right_operand": """
int main() {
  int x = 1;
  int y = 2;
  x = x - y;
  x = y - q;
  return 0;
}
""",
    # 1-D loads and stores on a shared array (disjoint per thread) and on
    # a private one, with a name, a literal and an expression as index.
    "subscript_1d_clean": """
int a[8];
int b[8];
int main() {
  int i;
  int k = 1;
  b[0] = 5;
  b[k] = b[0];
#pragma omp parallel for
  for (i = 0; i < 8; i++) {
    int t[3];
    t[0] = i;
    t[k] = t[0] + b[i];
    a[i] = t[k];
    a[i] = a[i] * 2;
  }
  return 0;
}
""",
    "subscript_1d_race": """
int main() {
  int i;
  int a[9];
#pragma omp parallel for
  for (i = 0; i < 8; i++)
    a[i + 1] = a[i] + 1;
  return 0;
}
""",
    # 2-D loads and stores on a shared and a private array.
    "subscript_2d_clean": """
int c[4][3];
int main() {
  int i, j;
  for (i = 0; i < 4; i++)
    for (j = 0; j < 3; j++)
      c[i][j] = i + j;
#pragma omp parallel for private(j)
  for (i = 0; i < 4; i++) {
    int p[2][3];
    for (j = 0; j < 3; j++) {
      p[1][j] = c[i][j];
      c[i][j] = p[1][j] + 1;
    }
  }
  return 0;
}
""",
    "subscript_2d_race": """
int c[5][2];
int main() {
  int i, j;
#pragma omp parallel for private(j)
  for (i = 0; i < 4; i++)
    for (j = 0; j < 2; j++)
      c[i][j] = c[i + 1][j] + 1;
  return 0;
}
""",
    # Increments and compound updates on names, serial and in a region,
    # on a private and on a shared counter.
    "increments_race": """
int main() {
  int i;
  int count = 0;
  int t = 0;
  t++;
  ++t;
  t--;
  t += 3;
  t -= 2;
#pragma omp parallel for private(t)
  for (i = 0; i < 4; i++) {
    t = i;
    t++;
    t += i;
    count++;
    count += 2;
  }
  return 0;
}
""",
    # Serial loops with every relational operator, a literal or an
    # invariant name as bound and every step form, outside and inside a
    # region (``j`` private there, ``m`` shared and read-only).
    "serial_loops_clean": """
int main() {
  int i, j;
  int m = 3;
  int s = 0;
  for (j = 0; j < m; j++)
    s = s + j;
  for (j = m; j > 0; j--)
    s = s + j;
  for (j = 0; j <= 6; j += 2)
    s = s + j;
  for (j = 10; j >= 0; j -= 4) {
    if (j == 6)
      continue;
    s = s + j;
  }
  for (j = 0; j != 5; ++j) {
    if (j == 3)
      break;
  }
#pragma omp parallel for private(j)
  for (i = 0; i < 2; i++) {
    int t = 0;
    for (j = 0; j < m; j++)
      t = t + j;
    for (j = 0; j <= m; j += 2)
      t = t + 1;
  }
  return 0;
}
""",
    # An inner loop variable left shared: every thread writes it.
    "shared_loop_variable_race": """
int main() {
  int i, j;
  int a[4][2];
#pragma omp parallel for
  for (i = 0; i < 4; i++)
    for (j = 0; j < 2; j++)
      a[i][j] = i;
  return 0;
}
""",
    # A race is witnessed before the run fails: the stopping run reports
    # it at budgets that reach it, the recording run fails.
    "race_then_index_error": """
int main() {
  int x = 0;
  int a[2];
  int k = 5;
#pragma omp parallel num_threads(2)
  {
    x = x + 1;
    if (omp_get_thread_num() == 1)
      a[k] = x;
  }
  return 0;
}
""",
}


def run(interpreter: Interpreter, program: Program):
    """``(trace, error message or None)``; a failed run's trace is its prefix."""
    traces = []

    def capture(**kwargs):
        traces.append(ExecutionTrace(**kwargs))
        return traces[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(interpreter_module, "ExecutionTrace", capture)
        try:
            return interpreter.run(program), None
        except InterpreterError as exc:
            return traces[0], str(exc)


def stopping_outcome(program: Program, schedule: str, max_steps: int) -> str:
    """Where the stopping run ended, and the accesses its index took."""
    interpreter = Interpreter(num_threads=NUM_THREADS, schedule=schedule, record=False,
                              stop_at_race=True, limits=InterpreterLimits(max_steps=max_steps))
    trace, error = run(interpreter, program)
    entries = sum(len(bucket) for bucket in trace.index.buckets.values())
    if error is not None:
        return f"error {error} @{entries}"
    if not trace.finished:
        return f"race {trace.steps_executed} @{entries}"
    return f"finished {trace.steps_executed} {trace.index.events} @{entries}"


def recording_outcome(program: Program, schedule: str, max_steps: int) -> str:
    """How the recording run ended, with its events and memory so far."""
    interpreter = Interpreter(num_threads=NUM_THREADS, schedule=schedule,
                              limits=InterpreterLimits(max_steps=max_steps))
    trace, error = run(interpreter, program)
    end = f"error {error}" if error is not None else f"finished {trace.steps_executed}"
    events = [repr(event._replace(locks=sorted(event.locks))) for event in trace.events]
    return "\n".join([end, *events, repr(sorted(interpreter._memory.items()))])


def run_lengths(outcomes: List[str]) -> List[list]:
    """``[max_steps, outcome]`` wherever the outcome changes."""
    return [[m, outcome] for m, outcome in enumerate(outcomes)
            if m == 0 or outcome != outcomes[m - 1]]


def sweep(source: str, schedule: str) -> Dict[str, object]:
    """Both runs' outcomes from ``max_steps`` 0 until neither hits the limit."""
    program = Program(parse(source))
    stopping, recording = [], []
    for max_steps in range(MAX_SWEEP + 1):
        stopping.append(stopping_outcome(program, schedule, max_steps))
        recording.append(recording_outcome(program, schedule, max_steps))
        if not (stopping[-1].startswith(_LIMITED) or recording[-1].startswith(_LIMITED)):
            break
    else:
        raise AssertionError(f"still hitting the step limit after {MAX_SWEEP} steps")
    digest = hashlib.sha256("\1".join(recording).encode("utf-8")).hexdigest()
    return {"steps": max_steps, "stop": run_lengths(stopping), "record": digest}


def render(name: str) -> str:
    return json.dumps({schedule: sweep(PROGRAMS[name], schedule) for schedule in SCHEDULES},
                      sort_keys=True)


def fixture_text() -> str:
    rows = [f"{json.dumps(name)}: {render(name)}" for name in PROGRAMS]
    return "{\n" + ",\n".join(rows) + "\n}\n"


@pytest.fixture(scope="module")
def recorded() -> Dict[str, str]:
    lines = FIXTURE.read_text(encoding="utf-8").splitlines()[1:-1]
    rows = (line.rstrip(",").split(": ", 1) for line in lines)
    return {json.loads(name): text for name, text in rows}


def test_fixture_covers_every_program(recorded):
    assert list(recorded) == list(PROGRAMS)


@pytest.mark.parametrize("name", list(PROGRAMS))
def test_sweep_matches_fixture_byte_for_byte(recorded, name):
    assert render(name) == recorded[name]


def test_sweep_reaches_every_outcome(recorded):
    """Racing, race-free and failing programs all stay in the sweep."""
    finals = {json.loads(text)[schedule]["stop"][-1][1].split()[0]
              for text in recorded.values() for schedule in SCHEDULES}
    assert finals == {"race", "finished", "error"}


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(fixture_text(), encoding="utf-8")
