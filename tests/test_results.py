import dataclasses
import os
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import perfbench_workloads
from revplast.mean_field import PhaseSpec, Spheroid, assemble_operators
from revplast.results import (format_rows, plot_paths, write_macro_csv, write_phase_csv,
                              write_plot_data)
from revplast.scenario import parse_scenario
from revplast.selfcheck import number_format_cases, number_format_mismatches
from revplast.solver import REVState, drive, strain_program
from revplast.tensors import COMPONENT_LABELS, MANDEL_SCALE, SQRT2


@pytest.fixture(scope="module")
def elastic_ops():
    return assemble_operators([PhaseSpec("matrix", 1.0, 100.0, 0.25)])


def run_one_step(ops, target):
    return drive(ops, strain_program([(np.asarray(target), 1)]))


def test_one_step_elastic_file(elastic_ops, tmp_path):
    target = np.array([1e-3, 0, 0, 0, 0, 2e-4])
    states = run_one_step(elastic_ops, target)
    path = tmp_path / "macro.csv"
    write_macro_csv(states, str(path))
    lines = path.read_text().splitlines()
    assert len(lines) == 3  # header + initial + one increment
    header = lines[0].split(",")
    assert header[0] == "step"
    assert header[1:7] == ["eps_11", "eps_22", "eps_33", "eps_23", "eps_13", "eps_12"]
    row = lines[2].split(",")
    sig = elastic_ops.stiffness_hom @ states[1].macro_strain
    # stress columns match the homogenized law; shears are unscaled on output
    assert float(row[7]) == pytest.approx(sig[0], abs=1e-18)
    assert float(row[12]) == pytest.approx(sig[5] * (1 / SQRT2), abs=1e-18)
    # the shear target is a tensor component: the state holds its Mandel value
    assert states[1].macro_strain[5] == 2e-4 * SQRT2
    assert float(row[6]) == pytest.approx(states[1].macro_strain[5] * (1 / SQRT2), abs=1e-20)


def test_rows_match_increments(elastic_ops, tmp_path):
    program = strain_program([(np.array([1e-4, 0, 0, 0, 0, 0]), 3),
                              (np.array([0, 0, 0, 0, 0, 0]), 2)])
    states = drive(elastic_ops, program)
    path = tmp_path / "macro.csv"
    write_macro_csv(states, str(path))
    assert len(path.read_text().splitlines()) == 1 + 5 + 1
    first = path.read_text().splitlines()[1].split(",")
    assert first[0] == "0"
    assert all(float(x) == 0.0 for x in first[1:-1])


def test_byte_identical_rewrites(elastic_ops, tmp_path):
    states = run_one_step(elastic_ops, [1e-3, -2e-4, 0, 0, 1e-5, 0])
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_macro_csv(states, str(p1))
    write_macro_csv(states, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_phase_file_layout(elastic_ops, tmp_path):
    states = run_one_step(elastic_ops, [1e-3, 0, 0, 0, 0, 0])
    path = tmp_path / "phases.csv"
    write_phase_csv(states, ["matrix"], str(path))
    lines = path.read_text().splitlines()
    assert len(lines) == 1 + 2 * 1
    assert lines[1].split(",")[1] == "matrix"
    assert lines[1].split(",")[-1] == "0"
    with pytest.raises(ValueError, match="2 phase names for 1 phases"):
        write_phase_csv(states, ["matrix", "extra"], str(tmp_path / "bad.csv"))
    assert not (tmp_path / "bad.csv").exists()


@pytest.mark.parametrize("name", ["soft, wet", 'say "hi"', "two\nlines", "cr\r"])
def test_phase_name_that_breaks_a_row_is_refused(elastic_ops, tmp_path, name):
    # names are written unquoted: a separator in one would shift its row's fields
    states = run_one_step(elastic_ops, [1e-3, 0, 0, 0, 0, 0])
    with pytest.raises(ValueError, match=re.escape(repr(name))):
        write_phase_csv(states, [name], str(tmp_path / "phases.csv"))
    assert os.listdir(tmp_path) == []  # no file and no temporary file


def test_plot_data_axes(elastic_ops, tmp_path):
    states = run_one_step(elastic_ops, [2e-4, 0, -1e-3, 0, 0, 0])
    paths = write_plot_data(states, str(tmp_path / "fig"))
    axial = (tmp_path / "fig_axial.csv").read_text().splitlines()
    lateral = (tmp_path / "fig_lateral.csv").read_text().splitlines()
    assert paths[0].endswith("fig_axial.csv")
    assert axial[0] == "eps_33,abs_sig_33"
    e33, s33 = (float(x) for x in axial[-1].split(","))
    assert e33 == -1e-3
    assert s33 == pytest.approx(abs(states[-1].macro_stress[2]), abs=1e-18)
    e11, s33b = (float(x) for x in lateral[-1].split(","))
    assert e11 == 2e-4
    assert s33b == s33


def _vec(**components):
    v = np.zeros(6)
    for key, x in components.items():
        v[int(key[1:])] = x
    return v


@pytest.fixture
def hand_states():
    # two states of two phases: signed zero, the smallest subnormal, a tiny
    # normal, values that need all 17 digits, Mandel shears and one active phase
    z = np.zeros(6)
    return [
        REVState(step=0, macro_strain=_vec(c0=-0.0), macro_stress=z, macro_plastic=z,
                 strain=np.array([_vec(c0=-0.0), z]), plastic_strain=np.zeros((2, 6)),
                 stress=np.zeros((2, 6)), multipliers=np.zeros(2)),
        REVState(step=1, macro_strain=_vec(c0=0.1, c2=1 / 3, c5=SQRT2 * 0.25),
                 macro_stress=_vec(c2=-1e-300), macro_plastic=_vec(c0=5e-324),
                 strain=np.array([_vec(c0=0.1), _vec(c2=1 / 3)]),
                 plastic_strain=np.array([z, _vec(c3=0.2)]),
                 stress=np.array([_vec(c0=-0.0), _vec(c2=-1e-300)]),
                 multipliers=np.array([0.0, 1e-3])),
    ]


def test_literal_bytes(hand_states, tmp_path):
    write_macro_csv(hand_states, str(tmp_path / "macro.csv"))
    write_phase_csv(hand_states, ["matrix", "incl"], str(tmp_path / "phases.csv"))
    write_plot_data(hand_states, str(tmp_path / "fig"))
    zeros = ",".join(["0"] * 5)
    assert (tmp_path / "macro.csv").read_bytes().decode() == (
        "step,eps_11,eps_22,eps_33,eps_23,eps_13,eps_12,sig_11,sig_22,sig_33,sig_23,"
        "sig_13,sig_12,epsp_11,epsp_22,epsp_33,epsp_23,epsp_13,epsp_12,n_active\n"
        f"0,-0,{zeros},{zeros},0,{zeros},0,0\n"
        "1,0.10000000000000001,0,0.33333333333333331,0,0,0.25,"
        "0,0,-1e-300,0,0,0,"
        f"4.9406564584124654e-324,{zeros},1\n")
    assert (tmp_path / "phases.csv").read_bytes().decode() == (
        "step,phase,eps_11,eps_22,eps_33,eps_23,eps_13,eps_12,epsp_11,epsp_22,epsp_33,"
        "epsp_23,epsp_13,epsp_12,sig_11,sig_22,sig_33,sig_23,sig_13,sig_12,active\n"
        f"0,matrix,-0,{zeros},0,{zeros},0,{zeros},0\n"
        f"0,incl,0,{zeros},0,{zeros},0,{zeros},0\n"
        f"1,matrix,0.10000000000000001,{zeros},0,{zeros},-0,{zeros},0\n"
        "1,incl,0,0,0.33333333333333331,0,0,0,"
        "0,0,0,0.1414213562373095,0,0,"
        "0,0,-1e-300,0,0,0,1\n")
    assert (tmp_path / "fig_axial.csv").read_bytes() == (
        b"eps_33,abs_sig_33\n0,0\n0.33333333333333331,1e-300\n")
    assert (tmp_path / "fig_lateral.csv").read_bytes() == (
        b"eps_11,abs_sig_33\n-0,0\n0.10000000000000001,1e-300\n")


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
def test_file_mode_follows_umask(hand_states, tmp_path, umask):
    old = os.umask(umask)
    try:
        write_macro_csv(hand_states, str(tmp_path / "macro.csv"))
        write_phase_csv(hand_states, ["matrix", "incl"], str(tmp_path / "phases.csv"))
        write_plot_data(hand_states, str(tmp_path / "fig"))
    finally:
        os.umask(old)
    names = sorted(os.listdir(tmp_path))
    assert names == ["fig_axial.csv", "fig_lateral.csv", "macro.csv", "phases.csv"]
    for name in names:
        assert os.stat(tmp_path / name).st_mode & 0o777 == 0o666 & ~umask, name


def test_failed_write_names_destination(hand_states, tmp_path):
    # renaming over a directory fails after the temporary file was written
    target = tmp_path / "taken"
    target.mkdir()
    with pytest.raises(OSError) as info:
        write_macro_csv(hand_states, str(target))
    assert info.value.filename == str(target)
    assert ".tmp_" not in str(info.value)
    assert os.listdir(tmp_path) == ["taken"]
    assert os.listdir(target) == []


def test_phase_count_is_checked_in_every_state(elastic_ops, tmp_path):
    # a later state with more phases than names must not lose rows silently
    two = assemble_operators([PhaseSpec("matrix", 0.7, 100.0, 0.25),
                              PhaseSpec("b", 0.3, 300.0, 0.3, spheroid=Spheroid(1.0, (0, 0, 1)))])
    states = (run_one_step(elastic_ops, [1e-3, 0, 0, 0, 0, 0])
              + run_one_step(two, [1e-3, 0, 0, 0, 0, 0]))
    with pytest.raises(ValueError, match="1 phase names for 2 phases"):
        write_phase_csv(states, ["matrix"], str(tmp_path / "phases.csv"))
    assert os.listdir(tmp_path) == []


# -- the number formatter against Python's %.17g ----------------------------

def test_number_format_cases():
    # the edge grid and sample of `revplast check`, evaluated here too
    assert number_format_mismatches(number_format_cases()) == []


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), max_size=60), st.integers(1, 4))
def test_format_rows_is_percent_17g(xs, cols):
    # any double, ±0, subnormals, inf and nan, in no rows or rows of 1 to 4 columns
    values = np.array(xs + [0.0] * (-len(xs) % cols)).reshape(-1, cols)
    assert format_rows(values) == b"".join(
        b",".join(b"%.17g" % x for x in row) + b"\n" for row in values.tolist())


# -- table assembly against the per-row % writer it replaced ---------------

_VALUES = ",".join(["%.17g"] * 18)
_UNSCALE = np.tile(1.0 / MANDEL_SCALE, 3)


def _reference_table(header, row_format, rows) -> bytes:
    return (",".join(header) + "\n" + "".join(row_format % row for row in rows)).encode()


def _labels(*prefixes):
    return [f"{prefix}_{c}" for prefix in prefixes for c in COMPONENT_LABELS]


def reference_files(states, phase_names=None, prefix=None) -> dict[str, bytes]:
    """The bytes of each file as one ``%`` per row wrote them."""
    values = [np.concatenate((st.macro_strain, st.macro_stress, st.macro_plastic)) * _UNSCALE
              for st in states]
    files = {"macro.csv": _reference_table(
        ["step"] + _labels("eps", "sig", "epsp") + ["n_active"], "%d," + _VALUES + ",%d\n",
        [(st.step, *v, sum(st.active)) for st, v in zip(states, values)])}
    if phase_names is not None:
        files["phases.csv"] = _reference_table(
            ["step", "phase"] + _labels("eps", "epsp", "sig") + ["active"],
            "%d,%s," + _VALUES + ",%d\n",
            [(st.step, name, *v, active) for st in states for name, v, active in zip(
                phase_names, (np.hstack((st.strain, st.plastic_strain, st.stress))
                              * _UNSCALE).tolist(), st.active)])
    if prefix is not None:
        for path, i in zip(plot_paths(prefix), (2, 0)):
            files[path] = _reference_table(
                [f"eps_{COMPONENT_LABELS[i]}", "abs_sig_33"], "%.17g,%.17g\n",
                [(st.macro_strain[i], abs(st.macro_stress[2])) for st in states])
    return files


def written_files(states, directory, phase_names=None, prefix=None) -> dict[str, bytes]:
    write_macro_csv(states, str(directory / "macro.csv"))
    files = {"macro.csv": (directory / "macro.csv").read_bytes()}
    if phase_names is not None:
        write_phase_csv(states, phase_names, str(directory / "phases.csv"))
        files["phases.csv"] = (directory / "phases.csv").read_bytes()
    if prefix is not None:
        for path in write_plot_data(states, prefix):
            with open(path, "rb") as handle:
                files[path] = handle.read()
    return files


def test_tables_match_reference_on_edge_cases(hand_states, elastic_ops, tmp_path):
    fig = str(tmp_path / "fig")
    # no states: the headers alone
    assert written_files([], tmp_path, ["matrix"], fig) == reference_files([], ["matrix"], fig)
    # names beyond ASCII are written as UTF-8
    names = ["Matrix_ä", "包含体"]
    assert (written_files(hand_states, tmp_path, names, fig)
            == reference_files(hand_states, names, fig))
    # steps of six and seven digits
    late = [dataclasses.replace(st, step=step)
            for st, step in zip(hand_states * 2, (99999, 100000, 123456, 10**6))]
    assert (written_files(late, tmp_path, ["matrix", "incl"], fig)
            == reference_files(late, ["matrix", "incl"], fig))
    # one phase
    states = drive(elastic_ops, strain_program([(np.array([1e-3, -2e-4, 0, 3e-4, 0, 1e-5]), 7)]))
    assert (written_files(states, tmp_path, ["matrix"], fig)
            == reference_files(states, ["matrix"], fig))


@pytest.mark.parametrize("workload", ["default", "wide_plastic", "elastic_wide"])
def test_benchmark_tables_match_reference(workload, tmp_path):
    scn = parse_scenario(perfbench_workloads().scenario_text(workload, 1))
    phases = scn.phases()
    ops = assemble_operators(phases, scn.scheme)
    states = drive(ops, scn.program, scn.settings)
    names = [p.name for p in phases] if scn.output.phase_path else None
    prefix = str(tmp_path / scn.output.plot_prefix) if scn.output.plot_prefix else None
    assert (written_files(states, tmp_path, names, prefix)
            == reference_files(states, names, prefix))


def test_phase_writer_memory_does_not_grow_with_the_run(tmp_path):
    # the numbers are formatted in blocks of a fixed size, so ten times the
    # states (and rows) leave the writer's peak allocation where it was
    phases = [PhaseSpec("matrix", 0.6, 100.0, 0.25)] + [
        PhaseSpec(f"incl{k}", 0.4 / 59, 600.0, 0.3, spheroid=Spheroid(0.5, (1.0, k, 2.0)))
        for k in range(59)]
    ops = assemble_operators(phases)
    states = drive(ops, strain_program([(np.array([1e-3, 0, -2e-4, 0, 1e-4, 0]), 299)]))
    names = [p.name for p in phases]
    peaks = []
    for count in (30, 300):
        tracemalloc.start()
        try:
            write_phase_csv(states[:count], names, str(tmp_path / "phases.csv"))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < 0.1 * peaks[0], peaks
