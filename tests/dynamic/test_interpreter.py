"""Tests for the OpenMP interpreter: value semantics and event recording."""

import pytest

from repro.dynamic import Interpreter, InterpreterError, InterpreterLimits


def run(src, **kwargs):
    return Interpreter(**kwargs).run_source(src)


class TestSequentialSemantics:
    def test_arithmetic_and_arrays(self):
        interp = Interpreter(num_threads=2)
        trace = interp.run_source(
            """
            int main() {
              int i;
              int a[10];
              int total = 0;
              for (i = 0; i < 10; i++)
                a[i] = i * 2;
              for (i = 0; i < 10; i++)
                total = total + a[i];
              return 0;
            }
            """
        )
        assert interp._memory["total"] == sum(2 * i for i in range(10))
        assert len(trace.events) == 0  # nothing ran in parallel

    def test_if_else_and_while(self):
        interp = Interpreter()
        interp.run_source(
            """
            int main() {
              int x = 0;
              int i = 0;
              while (i < 5) {
                if (i % 2 == 0) x = x + 10;
                else x = x + 1;
                i++;
              }
              return 0;
            }
            """
        )
        assert interp._memory["x"] == 32

    def test_two_dimensional_arrays(self):
        interp = Interpreter()
        interp.run_source(
            """
            int main() {
              int i, j;
              int m[3][3];
              for (i = 0; i < 3; i++)
                for (j = 0; j < 3; j++)
                  m[i][j] = i * 3 + j;
              return 0;
            }
            """
        )
        assert interp._memory["m"][2][2] == 8

    def test_division_semantics(self):
        interp = Interpreter()
        interp.run_source("int main() { int a = 7 / 2; double b = 7.0 / 2.0; return 0; }")
        assert interp._memory["a"] == 3
        assert interp._memory["b"] == pytest.approx(3.5)

    def test_step_limit_guards_infinite_loops(self):
        with pytest.raises(InterpreterError):
            run(
                "int main() { int x = 0; while (1) x = x + 1; return 0; }",
                limits=InterpreterLimits(max_steps=10_000, max_loop_iterations=100),
            )


class TestParallelSemantics:
    def test_parallel_for_partitions_iterations(self):
        interp = Interpreter(num_threads=4)
        interp.run_source(
            """
            int main() {
              int i;
              int a[40];
            #pragma omp parallel for
              for (i = 0; i < 40; i++)
                a[i] = i;
              return 0;
            }
            """
        )
        assert interp._memory["a"] == list(range(40))

    def test_reduction_clause_produces_correct_sum(self):
        interp = Interpreter(num_threads=4)
        interp.run_source(
            """
            int main() {
              int i;
              int sum = 0;
            #pragma omp parallel for reduction(+:sum)
              for (i = 0; i < 100; i++)
                sum += i;
              return 0;
            }
            """
        )
        assert interp._memory["sum"] == sum(range(100))

    def test_parallel_region_runs_every_thread(self):
        interp = Interpreter(num_threads=3)
        trace = interp.run_source(
            """
            int main() {
              int counter = 0;
            #pragma omp parallel num_threads(3)
              counter = counter + 1;
              return 0;
            }
            """
        )
        writes = [e for e in trace.events if e.is_write]
        assert {e.thread for e in writes} == {0, 1, 2}

    def test_private_variables_do_not_emit_events(self):
        trace = run(
            """
            int main() {
              int i;
              int tmp = 0;
              int a[20];
              int out[20];
              for (i = 0; i < 20; i++) a[i] = i;
            #pragma omp parallel for private(tmp)
              for (i = 0; i < 20; i++)
              {
                tmp = a[i] + 1;
                out[i] = tmp;
              }
              return 0;
            }
            """,
            num_threads=2,
        )
        assert not any(e.variable == "tmp" for e in trace.events)

    def test_critical_records_lock_name(self):
        trace = run(
            """
            int main() {
              int counter = 0;
            #pragma omp parallel num_threads(2)
              {
            #pragma omp critical
                counter = counter + 1;
              }
              return 0;
            }
            """,
            num_threads=2,
        )
        counter_events = [e for e in trace.events if e.variable == "counter"]
        assert counter_events and all("__critical__" in e.locks for e in counter_events)

    def test_barrier_increments_epoch(self):
        trace = run(
            """
            int main() {
              int x = 0;
              int y = 0;
            #pragma omp parallel num_threads(2)
              {
                x = x + 1;
            #pragma omp barrier
                y = y + 1;
              }
              return 0;
            }
            """,
            num_threads=2,
        )
        x_epochs = {e.epoch for e in trace.events if e.variable == "x"}
        y_epochs = {e.epoch for e in trace.events if e.variable == "y"}
        assert x_epochs == {0} and y_epochs == {1}

    def test_single_executes_once_and_synchronizes(self):
        trace = run(
            """
            int main() {
              int data = 0;
            #pragma omp parallel num_threads(4)
              {
            #pragma omp single
                data = 42;
              }
              return 0;
            }
            """,
            num_threads=4,
        )
        writes = [e for e in trace.events if e.variable == "data" and e.is_write]
        assert len(writes) == 1 and writes[0].thread == 0

    def test_locks_recorded_on_events(self):
        trace = run(
            """
            int main() {
              int total = 0;
              omp_lock_t lck;
              omp_init_lock(&lck);
            #pragma omp parallel num_threads(2)
              {
                omp_set_lock(&lck);
                total = total + 1;
                omp_unset_lock(&lck);
              }
              omp_destroy_lock(&lck);
              return 0;
            }
            """,
            num_threads=2,
        )
        total_events = [e for e in trace.events if e.variable == "total"]
        assert total_events and all("lck" in e.locks for e in total_events)

    def test_atomic_flag_recorded(self):
        trace = run(
            """
            int main() {
              int c = 0;
            #pragma omp parallel num_threads(2)
              {
            #pragma omp atomic
                c += 1;
              }
              return 0;
            }
            """,
            num_threads=2,
        )
        assert all(e.atomic for e in trace.events if e.variable == "c")

    def test_tasks_record_task_info(self):
        trace = run(
            """
            int main() {
              int r = 0;
            #pragma omp parallel num_threads(2)
              {
            #pragma omp single nowait
                {
            #pragma omp task
                  r = 5;
                }
              }
              return 0;
            }
            """,
            num_threads=2,
        )
        task_writes = [e for e in trace.events if e.variable == "r" and e.task is not None]
        assert len(task_writes) == 1

    def test_schedule_roundrobin_changes_partition(self):
        src = """
            int main() {
              int i;
              int a[8];
            #pragma omp parallel for
              for (i = 0; i < 8; i++)
                a[i] = omp_get_thread_num();
              return 0;
            }
        """
        static_interp = Interpreter(num_threads=2, schedule="static")
        static_interp.run_source(src)
        rr_interp = Interpreter(num_threads=2, schedule="roundrobin")
        rr_interp.run_source(src)
        assert static_interp._memory["a"] == [0, 0, 0, 0, 1, 1, 1, 1]
        assert rr_interp._memory["a"] == [0, 1, 0, 1, 0, 1, 0, 1]

    def test_omp_thread_introspection(self):
        interp = Interpreter(num_threads=3)
        interp.run_source(
            """
            int main() {
              int seen = 0;
            #pragma omp parallel num_threads(3)
              {
            #pragma omp critical
                seen = seen + omp_get_num_threads();
              }
              return 0;
            }
            """
        )
        assert interp._memory["seen"] == 9


class TestTypedRuntimeErrors:
    """Program faults surface as InterpreterError, never as a raw Python exception.

    The messages are exact, and the compiler's specialised closures must
    raise the same ones the generic closures did: a leaf operand that is
    undeclared or an array, an index that is a float, a string, negative or
    out of range, a subscript deeper than the array, loop tests and steps
    on such operands, and a task's undeclared ``firstprivate``.
    """

    @pytest.mark.parametrize(
        "source, message",
        [
            pytest.param("int main() { int x = 5; int z = 0; x %= z; return 0; }",
                         "modulo by zero", id="compound-modulo-by-zero"),
            pytest.param("int main() { int x = 1; int y = x << -1; return 0; }",
                         "bad operands for <<: negative shift count", id="negative-shift"),
            pytest.param("int main() { int a[2][2]; a[5][0] = 1; return 0; }",
                         "bad subscript store on a: list index out of range",
                         id="outer-dimension-store"),
            pytest.param("int main() { double x = 1e308*1e308*1e308; int y = x << 1; return 0; }",
                         "bad operands for <<: cannot convert float infinity to integer",
                         id="shift-of-infinity"),
            pytest.param("int main() { int a[3]; int b[3]; int x = a[b]; return 0; }",
                         "bad subscript on a: int() argument must be a string, a bytes-like "
                         "object or a real number, not 'list'", id="array-as-index"),
            pytest.param("int main() { int x = abs(); return 0; }",
                         "abs() needs an argument", id="missing-argument"),
            pytest.param("int main() { int x = 0; break; return 0; }",
                         "break or continue outside a loop", id="break-outside-loop"),
            pytest.param("int f(int x) { return f(x + 1); } int main() { int y = f(0); return 0; }",
                         "call depth limit exceeded", id="unbounded-recursion"),
            pytest.param("int main() { int x = " + "!" * 700 + "1; return 0; }",
                         "program nesting too deep to compile", id="deep-nesting"),
            pytest.param("int main() { int x = 1; x = q + x; return 0; }",
                         "read of undeclared variable 'q'", id="undeclared-left"),
            pytest.param("int main() { int x = 1; x = x * q; return 0; }",
                         "read of undeclared variable 'q'", id="undeclared-right"),
            pytest.param("int main() { int x = 1;\n#pragma omp parallel\n{ x = q + 1; }\nreturn 0; }",
                         "read of undeclared variable 'q'", id="undeclared-left-in-region"),
            pytest.param("int main() { int x = 1;\n#pragma omp parallel\n{ x = 1 < q; }\nreturn 0; }",
                         "read of undeclared variable 'q'", id="undeclared-right-in-region"),
            pytest.param("int main() { int a[4]; double f = 1e308 * 10.0; int x = a[f]; return 0; }",
                         "bad subscript on a: cannot convert float infinity to integer",
                         id="float-index-load"),
            pytest.param("int main() { int a[4]; double f = 1e308 * 10.0; a[f] = 1; return 0; }",
                         "bad subscript on a: cannot convert float infinity to integer",
                         id="float-index-store"),
            pytest.param("int main() { int a[4][4]; double f = 1e308 * 10.0; int x = a[1][f]; return 0; }",
                         "bad subscript on a: cannot convert float infinity to integer",
                         id="float-index-2d"),
            pytest.param("int main() { int a[4]; double f = 1e308 * 10.0; double g = f - f; "
                         "int x = a[g]; return 0; }",
                         "bad subscript on a: cannot convert float NaN to integer", id="nan-index"),
            pytest.param('int main() { int a[4]; int x = a["x"]; return 0; }',
                         "bad subscript on a: invalid literal for int() with base 10: '\"x\"'",
                         id="string-index-load"),
            pytest.param('int main() { int a[4]; a["x"] = 1; return 0; }',
                         "bad subscript on a: invalid literal for int() with base 10: '\"x\"'",
                         id="string-index-store"),
            pytest.param('int main() { int a[4][4]; a[0]["x"] = 1; return 0; }',
                         "bad subscript on a: invalid literal for int() with base 10: '\"x\"'",
                         id="string-index-2d-store"),
            pytest.param("int main() { int c[3][3]; int i = -10; int x = c[i][0]; return 0; }",
                         "bad subscript on c: list index out of range", id="negative-2d-load"),
            pytest.param("int main() { int c[3][3]; int i = -10; c[0][i] = 1; return 0; }",
                         "bad subscript store on c: list assignment index out of range",
                         id="negative-2d-store"),
            pytest.param("int main() { int c[3][3]; int x = c[1][7]; return 0; }",
                         "bad subscript on c: list index out of range", id="out-of-range-2d-load"),
            pytest.param("int c[3][3];\nint main() { int i = 3;\n#pragma omp parallel\n"
                         "{ c[i][0] = 1; }\nreturn 0; }",
                         "bad subscript store on c: list index out of range",
                         id="out-of-range-2d-store-in-region"),
            pytest.param("int main() { int x[4]; int i = 1; int j = 2; int y = x[i][j]; return 0; }",
                         "bad subscript on x: 'int' object is not subscriptable", id="2d-on-1d-load"),
            pytest.param("int main() { int x[4]; int i = 1; int j = 2; x[i][j] = 3; return 0; }",
                         "bad subscript store on x: 'int' object does not support item assignment",
                         id="2d-on-1d-store"),
            pytest.param("int main() { int s = 1; int y = s[0]; return 0; }",
                         "bad subscript on s: 'int' object is not subscriptable", id="1d-on-scalar-load"),
            pytest.param("int main() { int a[4]; int x = a + 1; return 0; }",
                         'bad operands for +: can only concatenate list (not "int") to list',
                         id="list-operand-left"),
            pytest.param("int a[4];\nint main() { int x = 0;\n#pragma omp parallel private(x)\n"
                         "{ x = a - 1; }\nreturn 0; }",
                         "bad operands for -: unsupported operand type(s) for -: 'list' and 'int'",
                         id="list-operand-in-region"),
            pytest.param("int main() { int a[4]; a++; return 0; }",
                         'bad operands for ++: can only concatenate list (not "int") to list',
                         id="list-incdec"),
            pytest.param("int main() { int a[4]; a += 2; return 0; }",
                         'bad operands for +: can only concatenate list (not "int") to list',
                         id="list-compound"),
            pytest.param('int main() { int x = 1; int y = x < "s"; return 0; }',
                         "bad operands for <: '<' not supported between instances of 'int' and 'str'",
                         id="string-compare"),
            pytest.param("int main() { int j; for (j = 0; j < q; j++) { } return 0; }",
                         "read of undeclared variable 'q'", id="loop-cond-undeclared"),
            pytest.param("int main() { int j; int a[3]; for (j = 0; j < a; j++) { } return 0; }",
                         "bad operands for <: '<' not supported between instances of 'int' and 'list'",
                         id="loop-cond-list"),
            pytest.param("int main() { int j = 0; for (; j < 3; k++) { } return 0; }",
                         "read of undeclared variable 'k'", id="loop-step-undeclared"),
            pytest.param("int main() { int a[2]; for (; 1 < 2; a++) { } return 0; }",
                         'bad operands for ++: can only concatenate list (not "int") to list',
                         id="loop-step-list"),
            pytest.param("int main() { int x = 0;\n#pragma omp parallel\n{\n"
                         "#pragma omp task firstprivate(q)\n{ x = 1; }\n}\nreturn 0; }",
                         "read of undeclared variable 'q'", id="task-firstprivate-undeclared"),
        ],
    )
    def test_fault_raises_interpreter_error(self, source, message):
        for record in (True, False):
            with pytest.raises(InterpreterError) as info:
                run(source, num_threads=2, record=record)
            assert str(info.value) == message

    def test_an_array_times_an_int_is_no_fault(self):
        # Python repeats the list; the generic operator did so too.
        run("int main() { int a[2]; int x = 2 * a; return 0; }")


class TestLazyErrorsAndStepAccounting:
    def test_unsupported_store_in_untaken_branch_runs_cleanly(self):
        interp = Interpreter()
        interp.run_source(
            "int main() { int x = 0; int *p; if (x) *p = 1; x = 2; return 0; }"
        )
        assert interp._memory["x"] == 2
        with pytest.raises(InterpreterError, match="pointer stores are not supported"):
            run("int main() { int x = 1; int *p; if (x) *p = 1; return 0; }")

    STEPS_SOURCE = """
        int main() {
          int i;
          int a[16];
          double t0 = omp_get_wtime();
          int sum = 0;
        #pragma omp parallel for reduction(+:sum)
          for (i = 0; i < 16; i++) {
            a[i] = i * 2;
            sum += a[i];
          }
          double t1 = omp_get_wtime();
          return 0;
        }
    """

    def test_step_count_and_limit_boundary_are_pinned(self):
        # 213 steps and the omp_get_wtime() readings were recorded from the
        # original tree-walking interpreter.
        interp = Interpreter(num_threads=4)
        trace = interp.run_source(self.STEPS_SOURCE)
        assert trace.steps_executed == 213
        assert (interp._memory["t0"], interp._memory["t1"]) == (6.0, 211.0)
        assert interp._memory["sum"] == 240
        exact = Interpreter(num_threads=4, limits=InterpreterLimits(max_steps=213))
        assert exact.run_source(self.STEPS_SOURCE).steps_executed == 213
        short = Interpreter(num_threads=4, limits=InterpreterLimits(max_steps=212))
        with pytest.raises(InterpreterError, match="execution step limit exceeded"):
            short.run_source(self.STEPS_SOURCE)


class TestCompiledProgram:
    SOURCE = """
        int main() {
          int i;
          int a[8];
        #pragma omp parallel for
          for (i = 0; i < 7; i++)
            a[i] = a[i + 1];
          return 0;
        }
    """

    def test_one_program_serves_every_run(self):
        from repro.cparse import parse
        from repro.dynamic.interpreter import Program

        program = Program(parse(self.SOURCE))
        for schedule in ("static", "roundrobin"):
            for threads in (2, 3):
                interp = Interpreter(num_threads=threads, schedule=schedule)
                shared = interp.run(program)
                fresh = Interpreter(num_threads=threads, schedule=schedule).run_source(self.SOURCE)
                assert shared.events == fresh.events
                assert shared.steps_executed == fresh.steps_executed

    def test_inspector_parses_each_program_once(self, monkeypatch):
        import repro.dynamic.inspector as inspector

        calls = []
        real_parse = inspector.parse

        def counting_parse(source):
            calls.append(source)
            return real_parse(source)

        monkeypatch.setattr(inspector, "parse", counting_parse)
        result = inspector.InspectorLikeDetector().analyze_source(self.SOURCE, num_threads=2)
        assert calls == [self.SOURCE]
        assert result.runs == 2 and result.has_race

    def test_access_event_is_a_named_tuple_with_the_dataclass_repr(self):
        from repro.dynamic.events import AccessEvent

        event = AccessEvent("a[1]", "a", "a[i+1]", 7, 13, False, 1, 1, 0, 4)
        assert isinstance(event, tuple)
        assert event.operation == "R"
        assert repr(event) == (
            "AccessEvent(address='a[1]', variable='a', expr_text='a[i+1]', line=7, col=13, "
            "is_write=False, thread=1, region=1, epoch=0, step=4, locks=frozenset(), "
            "atomic=False, ordered=False, task=None, task_seq=0)"
        )
