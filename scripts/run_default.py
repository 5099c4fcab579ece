#!/usr/bin/env python3
"""Uniaxial compression experiment: elasto-plastic inclusions vs all-elastic.

Runs the built-in scenario (axial strain to -0.001 under zero lateral
stresses, then unloading to half), repeats it with the inclusions kept
elastic, prints a summary and writes plot extracts for both runs.
"""
import argparse
import os
from dataclasses import replace

import numpy as np

from revplast.mean_field import assemble_operators
from revplast.results import write_macro_csv, write_plot_data
from revplast.scenario import default_scenario
from revplast.solver import drive


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results", help="output directory")
    args = parser.parse_args()
    os.makedirs(args.out, exist_ok=True)

    scenario = default_scenario()
    runs = {}
    for label, phases in (("plastic", scenario.phases()),
                          ("elastic", [replace(p, plastic=None) for p in scenario.phases()])):
        ops = assemble_operators(phases)
        states = drive(ops, scenario.program, scenario.settings)
        runs[label] = (ops, states)
        write_macro_csv(states, os.path.join(args.out, f"macro_{label}.csv"))
        write_plot_data(states, os.path.join(args.out, label))

    ops, states = runs["plastic"]
    first_yield = next((st for st in states if sum(st.active)), None)
    peak = states[100]
    peak_el = runs["elastic"][1][100]
    end = states[-1]
    plain_avg = np.einsum("a,ai->i", ops.fractions, peak.plastic_strain)

    print(f"phases: {ops.n_phases}  (matrix + 26 oblate spheroids)")
    compliance = np.linalg.inv(ops.stiffness_hom)
    print(f"homogenized axial modulus: {1.0 / compliance[2, 2]:.4f} MPa")
    if first_yield is not None:
        print(f"first yielding at axial strain {first_yield.macro_strain[2]:.6f} "
              f"({sum(first_yield.active)} phases active)")
    print(f"peak axial stress: {abs(peak.macro_stress[2]):.6f} MPa "
          f"(all-elastic: {abs(peak_el.macro_stress[2]):.6f})")
    print(f"macroscopic plastic strain at peak: {peak.macro_plastic[2]:.3e} "
          f"(plain plastic average: {plain_avg[2]:.3e})")
    print(f"residual axial strain after unloading to half: {end.macro_strain[2]:.6f}, "
          f"stress {end.macro_stress[2]:.6f} MPa")
    print(f"wrote macro series and plot extracts under {args.out}/")


if __name__ == "__main__":
    main()
