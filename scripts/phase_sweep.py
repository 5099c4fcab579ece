#!/usr/bin/env python3
"""Phase-count sweep: operator assembly and drive times and work counts per size.

    PYTHONPATH=src python scripts/phase_sweep.py --out BENCH_4.json

For 26, 100, 200 and 400 seeded random spheroid axes (plus the elastic
matrix) it assembles the Mori-Tanaka operators and drives one fully
strain-controlled segment of 30 increments in which every inclusion yields,
the first segment of the ``wide_plastic`` benchmark workload, with one BLAS
thread.  Per size it makes one untimed ``assemble_operators`` call and one
untimed ``drive`` call, then records the times of ``--repeats`` further calls
of each, the best of each, and the work summed over the increment records of
the states: attempts, Newton solves, linearizations and chord steps, active
systems built, active-set revisions and subdivisions.
The JSON record also carries the Python and numpy versions and the host.
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported

import argparse
import json
import platform
import sys
import time

import numpy as np

from revplast.mean_field import PhaseSpec, Spheroid, assemble_operators
from revplast.plasticity import DruckerPrager
from revplast.solver import STRAIN, LoadProgram, LoadSegment, drive

SIZES = (26, 100, 200, 400)
AXES_SEED = 20201124
PROGRAM = LoadProgram((LoadSegment(targets=(5e-4, 5e-4, -1e-3, None, None, None),
                                   modes=(STRAIN,) * 6, increments=30),))


def phases(n_axes: int, seed: int):
    axes = np.random.default_rng(seed).normal(size=(n_axes, 3))
    axes /= np.linalg.norm(axes, axis=1)[:, None]
    model = DruckerPrager(friction_angle=0.0, shear_strength=0.12)
    fraction = 0.143 / n_axes
    return [PhaseSpec("matrix", 1.0 - fraction * n_axes, 100.0, 0.25)] + [
        PhaseSpec(f"incl{k}", fraction, 1000.0, 0.25,
                  spheroid=Spheroid(0.35, tuple(float(x) for x in axis)), plastic=model)
        for k, axis in enumerate(axes)]


# JSON key: IncrementStats field summed into it
WORK = {"attempts": "attempts", "newton_solves": "solves",
        "newton_linearizations": "linearizations", "chords": "chords",
        "systems": "systems", "revisions": "revisions"}


def work(states) -> dict:
    """The work of a drive, summed over the increment records of its states;
    an increment halved s times makes 2 s + 1 attempts."""
    counts = {key: sum(getattr(st.stats, field) for st in states[1:])
              for key, field in WORK.items()}
    counts["subdivisions"] = (counts["attempts"] - (len(states) - 1)) // 2
    return counts


def timed(call, repeats: int):
    """The result of the last of ``repeats`` timed calls of ``call`` and each
    timed call's wall time, after one untimed call: the first call at a size
    pays for cold caches and first-use allocations that later calls do not."""
    call()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        result = call()
        times.append(time.perf_counter() - start)
    return result, times


def run(n_axes: int, seed: int, repeats: int) -> dict:
    specs = phases(n_axes, seed)
    ops, assemble_times = timed(lambda: assemble_operators(specs), repeats)
    states, drive_times = timed(lambda: drive(ops, PROGRAM), repeats)
    return {
        "axes": n_axes,
        "phases": ops.n_phases,
        "increments": PROGRAM.total_increments,
        "assemble_s_best": min(assemble_times),
        "assemble_s_all": assemble_times,
        "drive_s_best": min(drive_times),
        "drive_s_all": drive_times,
        **work(states),
        "plastic_phases_final": int(sum(states[-1].active)),
        "final_macro_stress": states[-1].macro_stress.tolist(),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="JSON record to write")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timed assemblies and drives per size")
    parser.add_argument("--seed", type=int, default=AXES_SEED, help="axes seed")
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error(f"--repeats must be at least 1, got {args.repeats}")
    runs = []
    for n_axes in SIZES:
        record = run(n_axes, args.seed, args.repeats)
        runs.append(record)
        print(f"{n_axes:4d} axes: assemble {1e3 * record['assemble_s_best']:.2f} ms, "
              f"drive {record['drive_s_best']:.3f} s, "
              f"{record['newton_linearizations']} linearizations, "
              f"{record['chords']} chord steps, "
              f"{record['newton_solves']} Newton solves, "
              f"{record['subdivisions']} subdivisions",
              flush=True)
    out = {
        "description": "phase-count sweep: 30 strain-controlled increments "
                       "(e11 = e22 = 5e-4, e33 = -1e-3), every inclusion yields",
        "seed": args.seed,
        "blas_threads": 1,
        "repeats": args.repeats,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "runs": runs,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(out, handle, indent=2)
        handle.write("\n")


if __name__ == "__main__":
    main()
