#!/usr/bin/env python3
"""The repository benchmark: one workload, closed loop, verified outputs.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload sort-mem --seed 1 --seconds 30 --trace 0

Jobs (input generation, engine set-up, ``run()``) repeat one at a time until
``--seconds`` have passed.  Each job runs in a fresh forked process so its
peak RSS is its own.  Every job's output digest must equal the direct
computation's, every job must report the same counted costs, and a
workload with a twin (``sort-mem``/``sort-file``) must match the twin's
counted costs and digest on the same input.  Any violation counts as a
failed job and makes the command exit 1.

``--trace 0`` prints the end-to-end metrics, medians over the run's jobs:

* ``run_s``: the engine's ``run()``, from storing the initial contexts to the
  returned outputs, storage teardown included;
* ``setup_s``: input generation, algorithm and engine construction (track
  file preallocation, worker fork);
* ``peak_rss_mib``: the job's RSS high-water mark, workers included;
* ``io_ops``, ``comm_packets``: counted parallel I/Os and h-relation packets,
  identical on every job of a run;
* ``pass_rate``: verified jobs over attempted jobs (``1 - fail_rate``, which
  is never 0 and so has a relative bound).

``run_s`` and ``setup_s`` are in reference-host seconds: the median wall time
times ``REFERENCE_CALIBRATION_S`` over the median time of :func:`calibrate`,
which every job runs first.  The shared hosts this runs on change speed by a
third within minutes; the factor takes that drift out, so two runs made at
different times can be compared.  The raw wall medians are the per-layer
metrics ``wall.run_s``, ``wall.setup_s`` and ``wall.calibration_s``.

``--trace 1`` alternates untraced and traced jobs and prints the per-layer
metrics of :mod:`layers` (medians over the traced jobs), the tracing
overhead, the direct-computation reference, and ``mem.peak_traced_mib`` from
one extra job that runs ``run()`` under ``tracemalloc`` (the engine process's
Python heap).  Each traced job writes its spans to ``.perfbench/spans/`` when
it ends.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import resource
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"

#: A seed kept out of tuning: later performance claims are re-checked on it.
HELDOUT_SEED = 7919

#: Minimum jobs per run, whatever ``--seconds`` says.
MIN_JOBS = 3

#: Typical wall time of :func:`calibrate` on the reference host (2 vCPUs,
#: Python 3.11).  ``run_s`` and ``setup_s`` are reported in reference seconds.
REFERENCE_CALIBRATION_S = 0.040


def metric_units(kind: str) -> dict[str, str]:
    """Metric name -> unit for ``kind`` (``end_to_end`` or ``per_layer``),
    as the benchmark definition ``BENCHMARK.json`` lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


# -- job isolation --------------------------------------------------------------------


def isolated(fn, *args):
    """Run ``fn(*args)`` in a forked child; return ``(ok, result or traceback)``.

    The child starts from this process's imports, so only the job's own work
    counts toward its time and its memory high-water mark.
    """
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child
        os.close(rfd)
        os.dup2(2, 1)  # keep stdout for the result line
        try:
            payload = (True, fn(*args))
        except BaseException:  # noqa: BLE001 - reported to the parent
            payload = (False, traceback.format_exc())
        try:
            with os.fdopen(wfd, "wb") as fh:
                pickle.dump(payload, fh)
        finally:
            os._exit(0)
    os.close(wfd)
    with os.fdopen(rfd, "rb") as fh:
        raw = fh.read()
    _, status = os.waitpid(pid, 0)
    if not raw:
        return False, f"job process died (wait status {status})"
    return pickle.loads(raw)


def calibrate(reps: int = 3) -> float:
    """Median wall seconds of fixed host work that runs no simulator code.

    An interpreter loop, a numpy sort and a pickle round trip: the kinds of
    work the workloads do.  A shared host's speed drifts by a third within
    minutes, and this work slows down with it, so it measures the host's
    speed at the time of a job.
    """
    keys = np.random.default_rng(0).integers(0, 1 << 62, 200_000)
    rows = [(i, str(i)) for i in range(20_000)]
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i
        np.sort(keys)
        pickle.loads(pickle.dumps(rows))
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _peak_rss_mib(workers: int) -> float:
    """This process's RSS high-water plus its joined workers' (MiB).

    ``RUSAGE_CHILDREN`` reports the largest worker's peak; each of the
    ``workers`` children is counted at that peak.
    """
    with open("/proc/self/status") as fh:
        hwm_kib = next(int(line.split()[1]) for line in fh
                       if line.startswith("VmHWM:"))
    if workers:
        child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        hwm_kib += workers * child
    return hwm_kib / 1024


def job(w, seed: int, mode: str) -> dict:
    """One simulation job; ``mode`` is ``plain``, ``traced`` or ``tracemalloc``."""
    import tracemalloc

    from layers import Tracer, layer_metrics
    from repro.obs import Collector
    from workload import flat_answer, build_engine, digest, make_algorithm, make_input

    calibration_s = calibrate()
    t0 = time.perf_counter()
    data = make_input(w, seed)
    algorithm = make_algorithm(w, data)
    observer = tracer = None
    if mode == "traced":
        observer = Collector(profile=True)
        tracer = Tracer(f"{w.name}/seed{seed}/pid{os.getpid()}")
        tracer.instrument(algorithm)
    engine = build_engine(w, algorithm, observer)
    t1 = time.perf_counter()
    if mode == "tracemalloc":
        tracemalloc.start()
    if tracer is not None:
        with tracer.span("engine.run"):
            outputs, report = engine.run()
    else:
        outputs, report = engine.run()
    t2 = time.perf_counter()
    out = {"setup_s": t1 - t0, "run_s": t2 - t1, "calibration_s": calibration_s,
           "peak_rss_mib": _peak_rss_mib(w.p if w.p > 1 else 0)}
    if mode == "tracemalloc":
        out["peak_traced_mib"] = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
    summary = report.ledger.summary()
    out["counted"] = {
        "io_ops": report.io_ops,
        "comm_packets": summary["comm_packets"],
        "comp_ops": summary["comp_ops"],
        "records_io": summary["records_io"],
        "supersteps": report.num_supersteps,
    }
    out["digest"] = digest(flat_answer(w, outputs))
    if tracer is not None:
        out["layers"] = layer_metrics(tracer, observer, engine, report,
                                      w.input_bytes)
        # Written here, after the timed run, rather than held by the parent:
        # later jobs are forked from the parent, and its size would count
        # toward their RSS.
        write_spans(spans_path(w, seed), tracer)
    return out


# -- one benchmark run ---------------------------------------------------------------


class Run:
    """Jobs of one workload and seed, with every correctness check."""

    def __init__(self, w, seed: int):
        self.w, self.seed = w, seed
        self.attempted = 0
        self.errors: list[str] = []
        self.counted: dict | None = None
        self.expected: str | None = None

    def fail(self, why: str) -> None:
        self.errors.append(why)
        print(f"perfbench: {self.w.name} seed {self.seed}: {why}", file=sys.stderr)

    def reference(self) -> dict:
        from workload import reference

        ok, ref = isolated(reference, self.w, self.seed)
        if not ok:
            self.fail(f"reference computation raised:\n{ref}")
            return {}
        self.expected = ref["digest"]
        return ref

    def job(self, w, mode: str) -> dict | None:
        """Run one verified job of ``w`` (this run's workload or its twin)."""
        self.attempted += 1
        ok, res = isolated(job, w, self.seed, mode)
        if not ok:
            self.fail(f"{w.name} job raised:\n{res}")
            return None
        if res["digest"] != self.expected:
            self.fail(f"{w.name} output digest {res['digest']} != direct "
                      f"computation's {self.expected}")
            return None
        if self.counted is None:
            self.counted = res["counted"]
        elif res["counted"] != self.counted:
            self.fail(f"{w.name} counted costs {res['counted']} != "
                      f"{self.counted} (dual-accounting invariant)")
            return None
        res["mode"] = mode
        return res

    def loop(self, seconds: float, modes: tuple[str, ...]) -> list[dict]:
        """Cycle through ``modes`` until ``seconds`` pass (``MIN_JOBS`` each)."""
        done: list[dict] = []
        start = time.monotonic()
        i = 0
        while time.monotonic() - start < seconds or i < MIN_JOBS * len(modes):
            res = self.job(self.w, modes[i % len(modes)])
            if res is not None:
                done.append(res)
            i += 1
        return done


def _median(jobs: list[dict], key: str) -> float:
    return statistics.median(j[key] for j in jobs)


def _to_reference(jobs: list[dict]) -> float:
    """Factor from this run's wall seconds to reference-host seconds."""
    return REFERENCE_CALIBRATION_S / _median(jobs, "calibration_s")


def end_to_end(run: Run, jobs: list[dict]) -> dict:
    scale = _to_reference(jobs)
    return {
        "run_s": _median(jobs, "run_s") * scale,
        "setup_s": _median(jobs, "setup_s") * scale,
        "peak_rss_mib": _median(jobs, "peak_rss_mib"),
        "io_ops": jobs[0]["counted"]["io_ops"],
        "comm_packets": jobs[0]["counted"]["comm_packets"],
        "pass_rate": (run.attempted - len(run.errors)) / run.attempted,
    }


def per_layer(run: Run, ref: dict, plain: list[dict], traced: list[dict]) -> dict:
    """Medians over traced jobs, the ratios that need untraced ones, and the
    heap peak of one extra ``tracemalloc`` job."""
    w = run.w
    out = {key: statistics.median(j["layers"][key] for j in traced)
           for key in traced[0]["layers"]}
    run_s = _median(plain, "run_s")
    out["wall.run_s"] = run_s
    out["wall.setup_s"] = _median(plain, "setup_s")
    out["wall.calibration_s"] = _median(plain, "calibration_s")
    out["trace.overhead_frac"] = _median(traced, "run_s") / run_s - 1
    out["ref.direct_s"] = ref["direct_s"]
    out["ref.sim_tax"] = run_s / ref["direct_s"]
    out["mem.rss_over_M"] = _median(plain, "peak_rss_mib") / w.memory_mib
    mem = run.job(w, "tracemalloc")
    if mem is not None:
        out["mem.peak_traced_mib"] = mem["peak_traced_mib"]
    return out


def spans_path(w, seed: int) -> Path:
    return WORK / "spans" / f"{w.name}-seed{seed}.jsonl"


def write_spans(path: Path, tracer) -> None:
    """Append one JSON line per process of a traced job: its spans as rows."""
    with open(path, "a") as fh:
        for proc in tracer.processes():
            fh.write(json.dumps({
                "run": tracer.run_id, "pid": proc["pid"],
                "fields": ["name", "start", "end", "parent"],
                "spans": proc["spans"],
            }) + "\n")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True,
                    help="input seed; a performance claim is re-checked on "
                         f"the held-out seed {HELDOUT_SEED}")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import layers  # noqa: F401 - imported once here, so forked jobs start warm
    from workload import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(choose from {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    # File-plane track files go to private temporary roots, which the
    # engines remove in run(); keep them inside the checkout.
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)

    w = WORKLOADS[args.workload]
    if args.trace:
        spans = spans_path(w, args.seed)
        spans.parent.mkdir(parents=True, exist_ok=True)
        spans.unlink(missing_ok=True)
    run = Run(w, args.seed)
    ref = run.reference()
    done: list[dict] = []
    if run.expected is not None:
        if w.twin is not None:
            run.job(WORKLOADS[w.twin], "plain")
        done = run.loop(args.seconds, ("plain", "traced") if args.trace
                        else ("plain",))
    plain = [j for j in done if j["mode"] == "plain"]
    traced = [j for j in done if j["mode"] == "traced"]
    units = metric_units("per_layer" if args.trace else "end_to_end")
    metrics: dict[str, float] = {}
    if plain and (traced or not args.trace):
        times = sorted(j["run_s"] for j in plain)
        print(f"perfbench: {w.name} seed {args.seed}: {len(plain)} untraced "
              f"jobs, run_s min {times[0]:.4f} median "
              f"{statistics.median(times):.4f} max {times[-1]:.4f}",
              file=sys.stderr)
        if args.trace:
            metrics = per_layer(run, ref, plain, traced)
        else:
            metrics = end_to_end(run, plain)
        if set(metrics) != set(units):
            run.fail(f"metrics {sorted(set(metrics) ^ set(units))} missing or "
                     "unexpected")
            metrics = {m: v for m, v in metrics.items() if m in units}
    print(json.dumps({
        "correct": not run.errors,
        "attempted": max(run.attempted, 1),
        "failed": len(run.errors),
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }))
    return 0 if not run.errors else 1


if __name__ == "__main__":
    sys.exit(main())
