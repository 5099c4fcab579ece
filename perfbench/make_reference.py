#!/usr/bin/env python3
"""Regenerate ``perfbench/reference.json``, the correctness reference of every workload.

    python3 perfbench/make_reference.py

Stores the macro stress and macro plastic-strain series (Mandel components,
one row per state) of each workload at seed 0; every seed of a workload has
the same answer up to roundoff.  Regenerate only in a change whose purpose
is a different answer, and say so: the benchmark gates every run on this file.
"""
import json

import run
import workloads


def main():
    prog = run.load_program()
    reference = {}
    for workload in workloads.WORKLOADS:
        scn, ops = run.set_up(prog, workloads.scenario_text(workload, seed=0))
        states = prog.solver.drive(ops, scn.program, scn.settings)
        reference[workload] = {
            "macro_stress": [st.macro_stress.tolist() for st in states],
            "macro_plastic": [st.macro_plastic.tolist() for st in states],
        }
    path = run.HERE / "reference.json"
    path.write_text(json.dumps(reference) + "\n", encoding="utf-8")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
