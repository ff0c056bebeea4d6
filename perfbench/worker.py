"""One workload iteration in a fresh interpreter.

Started by ``run.py``; writes one JSON object to ``--result``.  Set-up
(the ``repro`` imports and engine construction) ends at the ``ready``
timestamp, taken from the system-wide monotonic clock so the parent can
subtract its own spawn time.  The reference loop of ``calibrate.py`` is
timed right after set-up and, except in a traced run, sampled throughout
the timed workload.  Everything after ``ready`` that is not the
workload itself (loading inputs, installing trace wrappers, hashing the
output) stays outside the timed interval.

    python3 perfbench/worker.py --workload tables_cold --cache DIR --result OUT
    python3 perfbench/worker.py --workload tables_warm --cache DIR --result OUT
    python3 perfbench/worker.py --workload distinct --programs PKL --result OUT
    python3 perfbench/worker.py --workload setup --result OUT   # set-up only
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import pickle
import resource
import sys
import time
from pathlib import Path


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _peak_rss_mb() -> float:
    """VmHWM of this process (covers every thread it started)."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def _run_tables(cache: str, sampler, *, cold: bool) -> dict:
    import repro.__main__ as cli

    if cold and any(Path(cache).iterdir()):
        raise RuntimeError(f"a cold run needs an empty cache directory; {cache} is not")
    out = io.StringIO()
    cpu0, t0 = _cpu_s(), time.perf_counter()
    with sampler, contextlib.redirect_stdout(out):
        code = cli.main(["all", "--cache", cache, "--no-stats"])
    wall, cpu = time.perf_counter() - t0, _cpu_s() - cpu0
    if code != 0:
        raise RuntimeError(f"repro all exited with {code}")
    digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
    return {"wall_s": wall, "cpu_s": cpu, "digest": digest}


def _run_distinct(engine, programs_path: str, sampler) -> dict:
    from repro.dataset.drbml import iter_records
    from repro.engine import iter_requests
    from repro.llm import create_model
    from repro.prompting import PromptStrategy

    with open(programs_path, "rb") as fh:
        programs = pickle.load(fh)  # written by run.py in this checkout
    model = create_model("gpt-4")
    label_mismatches = 0

    def checked(pairs):
        nonlocal label_mismatches
        for bench, record in pairs:
            if bool(record.data_race) != bench.label.has_race:
                label_mismatches += 1
            yield record

    records = checked(zip(programs, iter_records(programs)))
    cpu0, t0 = _cpu_s(), time.perf_counter()
    with sampler:
        counts = engine.run_streaming_counts(iter_requests(model, PromptStrategy.BP1, records))
    wall, cpu = time.perf_counter() - t0, _cpu_s() - cpu0
    return {
        "wall_s": wall,
        "cpu_s": cpu,
        "programs": len(programs),
        "counts": [counts.tp, counts.fp, counts.tn, counts.fn],
        "label_mismatches": label_mismatches,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["tables_cold", "tables_warm", "distinct", "setup"], required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--cache")
    parser.add_argument("--programs")
    parser.add_argument("--trace-out", help="install span wrappers; write spans here")
    args = parser.parse_args()

    import repro.__main__  # noqa: F401  (the CLI's whole import graph)
    from repro.engine import ExecutionEngine

    engine = ExecutionEngine()
    ready = time.monotonic()

    import calibrate  # beside this script, so first on sys.path

    cal = calibrate.measure()  # host speed right after set-up
    # Probes would land inside the spans, so the traced run takes none.
    sampler = calibrate.Sampler(enabled=not args.trace_out)
    tracer = None
    if args.trace_out:
        import spans  # beside this script, so first on sys.path

        tracer = spans.install()
    if args.workload.startswith("tables"):
        engine.close()
        result = _run_tables(args.cache, sampler, cold=args.workload == "tables_cold")
    elif args.workload == "distinct":
        try:
            result = _run_distinct(engine, args.programs, sampler)
        finally:
            engine.close()
    else:
        engine.close()
        result = {}
    result["ready"] = ready
    result["peak_rss_mb"] = _peak_rss_mb()
    result["cal_s"] = cal
    result["probe_s"] = sampler.probes
    if tracer is not None:
        tracer.dump(args.trace_out)
        result["spans"] = tracer.summary(result["wall_s"])
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
