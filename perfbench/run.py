#!/usr/bin/env python3
"""Benchmark of the revplast pipeline: scenario text -> operators -> drive -> CSV.

    python3 perfbench/run.py --workload default --seed 1 --seconds 30 --trace 0

Runs one workload in this process with one BLAS thread and times calls into
the public entry points of the package under ``src/`` of this checkout:
``parse_scenario``, ``Scenario.phases`` + ``assemble_operators``, ``drive``
and the ``results`` writers.  Every pipeline run is checked against the
committed reference series and for byte-identical CSV output.

``--trace 0`` reports the end-to-end metrics: medians of each stage's times
over the repeats that fit in ``--seconds``, normalized for the speed of the
shared core (``speed.py``), plus one tracemalloc pass for peak memory.
``--trace 1`` alternates untraced and traced pipeline runs and reports the
per-layer metrics from the traced ones.  The last line of standard output is
the JSON result; a record with the environment and sample counts goes to
``perfbench/out/records/``, the spans of the last traced run to
``perfbench/out/``.
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported

import argparse
import ctypes
import gc
import hashlib
import json
import platform
import statistics
import sys
import tempfile
import time
import tracemalloc
import traceback
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

import speed
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_SHARE = 0.1      # share of --seconds spent on set-up-only repeats
MIN_SETUP_REPEATS = 9
MIN_REPEATS = 3        # pipeline runs per record even past --seconds; failures that end a run

# Two answers that each meet the solver's tolerances may differ by a small
# multiple of them; anything beyond this factor is a wrong answer.
TOL_FACTOR = 10.0

# Work counts of the traced default run at the commit that defined the
# benchmark.  A mismatch is reported, not failed: solver changes are meant
# to move them.
EXPECTED_DEFAULT_COUNTS = {
    "solver.increments": 150, "solver.mixed_passes": 496,
    "solver.return_map_calls": 316, "solver.newton_solves": 320,
    "solver.newton_iterations": 2946, "solver.check_yield_calls": 812,
}


def load_program() -> SimpleNamespace:
    """The revplast modules from this checkout's ``src``; never an installed copy."""
    sys.path.insert(0, str(SRC))
    try:
        from revplast import mean_field, results, scenario, solver
    except ImportError as exc:
        raise SystemExit(f"error: cannot import revplast from {SRC}: {exc}") from None
    if not Path(scenario.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: revplast imported from {scenario.__file__}, not {SRC}")
    return SimpleNamespace(scenario=scenario, mean_field=mean_field, solver=solver,
                           results=results)


def _blas_threads():
    """Thread count reported by the bundled OpenBLAS, or None if it cannot be asked."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(args) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        blas = "unknown"
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas, "blas_threads": _blas_threads(),
            "nproc": len(os.sched_getaffinity(0)), "loadavg_start": os.getloadavg(),
            "platform": platform.platform()}


def set_up(prog, text):
    scn = prog.scenario.parse_scenario(text)
    return scn, prog.mean_field.assemble_operators(scn.phases(), scn.scheme)


def write_results(prog, scn, ops, states, out_dir) -> list[str]:
    """Write what the scenario's [output] section names, as ``revplast run`` does."""
    out = scn.output
    paths = [os.path.join(out_dir, out.macro_path)]
    prog.results.write_macro_csv(states, paths[0])
    if out.phase_path:
        paths.append(os.path.join(out_dir, out.phase_path))
        prog.results.write_phase_csv(states, [p.name for p in ops.phases], paths[-1])
    if out.plot_prefix:
        paths += prog.results.write_plot_data(states, os.path.join(out_dir, out.plot_prefix))
    return paths


class Timing(NamedTuple):
    """One pipeline run: its stages as timed pieces, and its wall seconds."""
    setup: speed.Piece
    drive: tuple  # of speed.Piece, one per increment when an IncrementClock is installed
    write: speed.Piece
    total: float  # set-up to last CSV byte, probe readings left out


def check_states(reference, scn, ops, states) -> list[str]:
    """Differences of the macro stress and plastic-strain series from the reference.

    The tolerance follows from the solver settings: the mixed-control
    tolerance on the stress scale plus the Newton tolerance on the largest
    shear strength; plastic strain gets that stress tolerance over the
    softest homogenized stiffness.
    """
    sig = np.array([st.macro_stress for st in states])
    epsp = np.array([st.macro_plastic for st in states])
    ref_sig = np.array(reference["macro_stress"])
    ref_epsp = np.array(reference["macro_plastic"])
    if sig.shape != ref_sig.shape:
        return [f"{len(states)} states, reference has {len(ref_sig)}"]
    models = [f.plastic for f in scn.families] + [scn.matrix_plastic]
    s0 = max((m.shear_strength for m in models if m is not None), default=0.0)
    settings = scn.settings
    tol_sig = TOL_FACTOR * (settings.mixed_tol * max(1.0, np.abs(ref_sig).max())
                            + settings.newton_tol * s0)
    tol_epsp = tol_sig / np.linalg.eigvalsh(ops.stiffness_hom).min()
    problems = []
    for name, got, want, tol in (("macro stress", sig, ref_sig, tol_sig),
                                 ("macro plastic strain", epsp, ref_epsp, tol_epsp)):
        err = np.abs(got - want).max()
        if not err <= tol:  # also catches NaN
            problems.append(f"{name} differs from the reference by {err:.3e} > {tol:.3e}")
    return problems


class Bench:
    """Runs gated pipelines for one workload and keeps the outcome counts."""

    def __init__(self, prog, text, reference, out_dir):
        self.prog, self.text, self.reference, self.out_dir = prog, text, reference, out_dir
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests = None
        self.bytes_written = 0
        self.probe = speed.SpeedProbe()
        self.clock = speed.IncrementClock(prog.solver, self.probe)  # cuts drives once entered

    def _fail(self, message):
        self.failed += 1
        self.problems.append(message)
        print(f"FAILED: {message}", file=sys.stderr)

    def pipeline(self, write=True) -> Timing | None:
        """One gated run; returns its Timing, or None if it raised.

        A run that completes with a wrong answer keeps its timing and counts
        as failed.
        """
        self.attempted += 1
        clock, read = time.perf_counter, self.probe.read
        try:
            p0 = read()
            t0 = clock()
            scn, ops = set_up(self.prog, self.text)
            t1 = clock()
            p1 = read()
            self.clock.marks.clear()
            t2 = clock()
            states = self.prog.solver.drive(ops, scn.program, scn.settings)
            t3 = clock()
            p2 = read()
            t4 = clock()
            paths = write_results(self.prog, scn, ops, states, self.out_dir) if write else []
            t5 = clock()
            p3 = read()
        except Exception:  # a failed run is counted, the benchmark goes on
            self._fail(traceback.format_exc())
            return None
        problems = check_states(self.reference, scn, ops, states)
        if paths:
            digests = [hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in paths]
            self.bytes_written = sum(os.path.getsize(p) for p in paths)
            if self.digests is None:
                self.digests = digests
            elif digests != self.digests:
                problems.append("CSV output differs from the first run of this record")
        if problems:
            self._fail("; ".join(problems))
        drive = self.clock.pieces(t2, p1, t3, p2)
        return Timing(speed.Piece(t1 - t0, 0.5 * (p0 + p1)), drive,
                      speed.Piece(t5 - t4, 0.5 * (p2 + p3)),
                      t1 - t0 + sum(p.seconds for p in drive) + t5 - t4)

    def setup_only(self) -> speed.Piece:
        clock, read = time.perf_counter, self.probe.read
        before = read()
        t0 = clock()
        set_up(self.prog, self.text)
        t1 = clock()
        return speed.Piece(t1 - t0, 0.5 * (before + read()))

    def peak_alloc_mb(self):
        """Peak traced allocation over set-up and solve, in its own untimed run."""
        gc.collect()
        tracemalloc.start()
        try:
            completed = self.pipeline(write=False) is not None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / 2**20 if completed else None

    def traced_pipeline(self, tracer):
        restore, missing = tracer.install()
        try:
            timing = self.pipeline()
        finally:
            restore()
        return timing, missing


def _median(values):
    return statistics.median(values) if values else None


def timed_run(bench, seconds) -> tuple[dict, dict]:
    """End-to-end metrics and their samples.

    Every stage is timed in pieces next to readings of the core's speed
    (see ``speed``): ``setup_s``, the write and ``solve_s`` are the medians
    of their normalized times, a drive's being the sum of its pieces', and
    ``total_s`` is the sum of the three.
    """
    bench.setup_only()  # warm-up
    start = time.perf_counter()
    setup = []
    with bench.clock:
        while not setup or (time.perf_counter() - start < SETUP_SHARE * seconds
                            or len(setup) < MIN_SETUP_REPEATS):
            setup.append(bench.setup_only())
        runs = []
        while len(runs) < MIN_REPEATS or (
                time.perf_counter() - start + _median([r.total for r in runs]) <= seconds):
            if bench.failed >= MIN_REPEATS:
                break
            gc.collect()
            timing = bench.pipeline()
            if timing is not None:
                runs.append(timing)
    setup += [r.setup for r in runs]
    drive_normalized = [sum(p.normalized() for p in r.drive) for r in runs]
    setup_s = speed.normalized_median(setup)
    solve_s = statistics.median(drive_normalized)
    write_s = speed.normalized_median([r.write for r in runs])
    metrics = {"setup_s": setup_s, "solve_s": solve_s, "total_s": setup_s + solve_s + write_s,
               "peak_alloc_mb": bench.peak_alloc_mb()}
    drive_s = [sum(p.seconds for p in r.drive) for r in runs]
    samples = {"setup_wall_s": [p.seconds for p in setup],
               "setup_probe_s": [p.probe for p in setup],
               "drive_wall_s": drive_s, "pipeline_wall_s": [r.total for r in runs],
               "drive_normalized_s": drive_normalized,
               "drive_pieces": [len(r.drive) for r in runs],
               "write_normalized_s": [r.write.normalized() for r in runs],
               "peak_alloc_mb": [metrics["peak_alloc_mb"]]}
    return metrics, samples


def traced_run(bench, seconds, spans_path) -> tuple[dict, dict, list[str]]:
    """Per-layer metrics (medians over traced runs), sample counts, flagged metrics."""
    bench.setup_only()  # warm-up
    start = time.perf_counter()
    plain, traced, layers, flagged = [], [], [], []
    while not (plain and traced) or (
            time.perf_counter() - start + _median(plain) + _median(traced) <= seconds):
        if bench.failed >= MIN_REPEATS:
            break
        gc.collect()
        timing = bench.pipeline()
        if timing is not None:
            plain.append(timing.total)
        gc.collect()
        tracer = tracing.Tracer()
        timing, missing = bench.traced_pipeline(tracer)
        if timing is not None:
            traced.append(timing.total)
            values, flagged = tracing.layer_metrics(tracer, missing)
            layers.append(values)
    tracer.write_csv(spans_path)
    metrics = {name: _median([v[name] for v in layers]) for name in layers[0]} if layers else {}
    if plain and traced:
        metrics["trace_overhead_frac"] = _median(traced) / _median(plain) - 1.0
    metrics["results.bytes_written"] = bench.bytes_written
    samples = {"traced_total_s": traced, "untraced_total_s": plain}
    return metrics, samples, flagged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    prog = load_program()
    bench_spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = bench_spec["per_layer" if args.trace else "end_to_end"]
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    text = workloads.scenario_text(args.workload, args.seed)
    env = environment(args)
    print(f"environment: {json.dumps(env)}")

    (OUT / "records").mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    flagged = []
    with tempfile.TemporaryDirectory(dir=OUT, prefix="csv-") as out_dir:
        bench = Bench(prog, text, reference[args.workload], out_dir)
        if args.trace:
            metrics, samples, flagged = traced_run(bench, args.seconds,
                                                   OUT / f"spans-{args.workload}.csv")
        else:
            metrics, samples = timed_run(bench, args.seconds)
            if not bench.clock.available:
                print(f"note: solver.{bench.clock.TARGET} not found; each drive is "
                      f"timed whole")

    record = {"environment": env, "samples": samples, "attempted": bench.attempted,
              "failed": bench.failed, "problems": bench.problems,
              "not_measured": flagged, "metrics": metrics}
    if args.trace and args.workload == "default" and metrics:
        got = {k: metrics.get(k) for k in EXPECTED_DEFAULT_COUNTS}
        record["counter_check"] = {"expected": EXPECTED_DEFAULT_COUNTS, "observed": got,
                                   "match": got == EXPECTED_DEFAULT_COUNTS}
        print(f"counter check against the defining commit: "
              f"{'match' if got == EXPECTED_DEFAULT_COUNTS else 'DIFFERS'} {got}")
    (OUT / "records" / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n",
                                                 encoding="utf-8")

    result = {}
    for spec in wanted:
        name, unit = spec["name"], spec["unit"]
        value = metrics.get(name)
        if value is None:
            print(f"error: no measurement of {name}; {bench.failed} of "
                  f"{bench.attempted} runs failed", file=sys.stderr)
            return 1
        note = "  (hook missing: not measured)" if name in flagged else ""
        print(f"{name:36s} {value:14.6g} {unit:16s}{note}")
        result[name] = {"value": value, "unit": unit}
    counts = {name: len(values) for name, values in samples.items()}
    print(f"samples: {json.dumps(counts)}; correctness: {bench.attempted - bench.failed}"
          f" of {bench.attempted} runs passed, fail_frac {bench.failed / bench.attempted:.3g}")
    print(json.dumps({"correct": bench.failed == 0, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
