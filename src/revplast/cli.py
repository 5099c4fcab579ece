"""Command-line surface: run scenarios, inspect operators, self-test.

Exit codes: 0 success, 2 scenario parse/validation error, 3 solver or
self-check failure, 4 I/O error.
"""
from __future__ import annotations

import argparse
import errno
import os
import sys

import numpy as np

from .errors import RevplastError, ScenarioError
from .mean_field import assemble_operators
from .results import plot_paths, write_macro_csv, write_phase_csv, write_plot_data
from .scenario import Scenario, default_scenario, parse_scenario
from .solver import drive

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_SOLVER = 3
EXIT_IO = 4


def _load_scenario(args) -> Scenario:
    if args.default_scenario:
        return default_scenario()
    with open(args.scenario, "rb") as handle:
        raw = handle.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"not UTF-8 text: byte {raw[exc.start]:#04x}",
                            line=raw.count(b"\n", 0, exc.start) + 1) from exc
    return parse_scenario(text)


def _out_paths(paths: list[str]) -> list[str]:
    """Check that each of ``paths`` names a file, and one no other path names, then
    create their parents: a run never fails for them after the solve, and a
    refused run leaves nothing behind."""
    seen = set()
    for path in paths:
        if not os.path.basename(path) or os.path.isdir(path):
            raise OSError(errno.EISDIR, "output path names no file", path)
        if os.path.realpath(path) in seen:
            raise OSError(errno.EEXIST, "output path named twice", path)
        seen.add(os.path.realpath(path))
    for path in paths:
        parent = os.path.dirname(path)
        if parent:
            try:
                os.makedirs(parent, exist_ok=True)
            except OSError as exc:
                raise OSError(exc.errno, exc.strerror, path) from exc
    return paths


def _cmd_run(args) -> int:
    scenario = _load_scenario(args)
    out = scenario.output
    where = args.output_dir or ""  # relative paths are taken under it
    macro_path = os.path.join(where, out.macro_path)
    phase_path = out.phase_path or ("phases.csv" if args.per_phase else None)
    phase_path = phase_path and os.path.join(where, phase_path)
    plot_prefix = out.plot_prefix or ("plot" if args.plot_data else None)
    plot_prefix = plot_prefix and os.path.join(where, plot_prefix)
    written = _out_paths([macro_path] + ([phase_path] if phase_path else [])
                         + (plot_paths(plot_prefix) if plot_prefix else []))
    ops = assemble_operators(scenario.phases(), scenario.scheme)
    states = drive(ops, scenario.program, scenario.settings)
    write_macro_csv(states, macro_path)
    if phase_path:
        write_phase_csv(states, [p.name for p in ops.phases], phase_path)
    if plot_prefix:
        write_plot_data(states, plot_prefix)
    final = states[-1]
    print(f"completed {len(states) - 1} increments; "
          f"final axial strain {final.macro_strain[2]:.6g}, "
          f"axial stress {final.macro_stress[2]:.6g} MPa")
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def _print_tensor(name: str, t: np.ndarray) -> None:
    print(f"{name} =")
    for row in np.asarray(t):
        print("   " + " ".join(f"{x: .10e}" for x in row))


def _cmd_operators(args) -> int:
    scenario = _load_scenario(args)
    ops = assemble_operators(scenario.phases(), scenario.scheme)
    res_a, res_b = ops.consistency_residuals
    print(f"scheme: {ops.scheme}, phases: {ops.n_phases}")
    print(f"||sum f A - I||_inf = {res_a:.3e}")
    print(f"max_b ||sum f B||_inf = {res_b:.3e}")
    _print_tensor("homogenized stiffness (MPa)", ops.stiffness_hom)
    if args.full:
        for a, phase in enumerate(ops.phases):
            _print_tensor(f"A[{phase.name}]", ops.concentration[a])
            _print_tensor(f"R[{phase.name}]", ops.response[a])
            _print_tensor(f"M[{phase.name}]", ops.mixing[a])
    else:
        for a, phase in enumerate(ops.phases):
            norm = np.linalg.norm(ops.concentration[a])
            print(f"||A[{phase.name}]||_F = {norm:.6e}")
    return EXIT_OK


def _cmd_check(_args) -> int:
    from .selfcheck import run_selfchecks
    failures = 0
    for name, value, tol in run_selfchecks():
        ok = value <= tol
        failures += 0 if ok else 1
        print(f"{'PASS' if ok else 'FAIL'}  {name}: residual {value:.3e} "
              f"(tolerance {tol:.1e})")
    return EXIT_OK if failures == 0 else EXIT_SOLVER


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="revplast",
        description="Mean-field elasto-plastic homogenization of matrix-inclusion volumes")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_scenario_args(p):
        p.add_argument("scenario", nargs="?", help="scenario file path")
        p.add_argument("--default-scenario", action="store_true",
                       help="use the built-in uniaxial compression scenario")

    run = sub.add_parser("run", help="run a scenario and write result files")
    add_scenario_args(run)
    run.add_argument("--output-dir",
                     help="directory for relative output paths (created if missing)")
    run.add_argument("--per-phase", action="store_true",
                     help="also write the per-phase series")
    run.add_argument("--plot-data", action="store_true",
                     help="also write two-column plot extracts")
    run.set_defaults(func=_cmd_run)

    operators = sub.add_parser("operators",
                               help="print operators and consistency residuals")
    add_scenario_args(operators)
    operators.add_argument("--full", action="store_true",
                           help="print every phase's concentration tensor A and "
                                "influence factors R and M")
    operators.set_defaults(func=_cmd_operators)

    check = sub.add_parser("check", help="run the built-in oracle battery")
    check.set_defaults(func=_cmd_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "scenario") and bool(args.scenario) == bool(args.default_scenario):
        parser.error("give exactly one of a scenario file or --default-scenario")
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except RevplastError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
