import contextlib
import importlib.util
import io
import os
import re
import shlex
import subprocess
import sys
import tracemalloc

import pytest

import revplast.cli as cli
from revplast.cli import main
from revplast.scenario import Scenario, parse_scenario

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

TINY = """\
[matrix]
young_modulus = 100.0
poisson_ratio = 0.25

[inclusions]
young_modulus = 1000.0
poisson_ratio = 0.25
aspect_ratio = 0.35
volume_fraction = 0.1
orientations = 0 0 1; 1 0 0
plastic_model = drucker_prager
shear_strength = 0.12

[loading]
segment = e33:-0.0004 s11:0 s22:0 n:4

[output]
macro = tiny_macro.csv
"""


@pytest.fixture
def tiny_file(tmp_path):
    path = tmp_path / "tiny.scn"
    path.write_text(TINY)
    return str(path)


def test_run_scenario_file(tiny_file, tmp_path, capsys):
    code = main(["run", tiny_file, "--output-dir", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "completed 4 increments" in out
    macro = tmp_path / "tiny_macro.csv"
    assert macro.exists()
    assert len(macro.read_text().splitlines()) == 6


def test_run_default_scenario(tmp_path, capsys):
    code = main(["run", "--default-scenario", "--output-dir", str(tmp_path),
                 "--per-phase", "--plot-data"])
    assert code == 0
    assert (tmp_path / "macro.csv").exists()
    assert (tmp_path / "phases.csv").exists()
    assert (tmp_path / "plot_axial.csv").exists()
    assert (tmp_path / "plot_lateral.csv").exists()
    assert len((tmp_path / "macro.csv").read_text().splitlines()) == 152


def perfbench_workloads():
    """The benchmark's scenario generators, ``perfbench/workloads.py``."""
    spec = importlib.util.spec_from_file_location(
        "workloads", os.path.join(ROOT, "perfbench", "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def written_at_one_and_two_blas_threads(tmp_path, *args):
    """The files ``revplast run *args`` writes at 1 and at 2 BLAS threads, run
    in two subprocesses at once: {threads: {name: bytes}}."""
    runs = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(ROOT, "src")] + [p for p in [env.get("PYTHONPATH")] if p])
        runs[threads] = subprocess.Popen(
            [sys.executable, "-m", "revplast.cli", "run", *args,
             "--output-dir", str(tmp_path / threads)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    for proc in runs.values():
        assert proc.wait(timeout=60) == 0, proc.stderr.read().decode()
        proc.stderr.close()
    return {threads: {name: (tmp_path / threads / name).read_bytes()
                      for name in sorted(os.listdir(tmp_path / threads))}
            for threads in runs}


def test_default_run_is_bitwise_the_same_at_one_and_two_blas_threads(tmp_path):
    # the engine's matrix-vector products go through BLAS, which may split a
    # product over its threads; the written numbers must not depend on that
    written = written_at_one_and_two_blas_threads(
        tmp_path, "--default-scenario", "--per-phase", "--plot-data")
    assert list(written["1"]) == ["macro.csv", "phases.csv", "plot_axial.csv",
                                  "plot_lateral.csv"]
    assert written["1"] == written["2"]


def test_wide_plastic_run_is_bitwise_the_same_at_one_and_two_blas_threads(tmp_path):
    # the same at the benchmark's width, where the Newton linearization's
    # batched products run over the 200 inclusions, all of which yield in the
    # first, strain-controlled segment
    path = tmp_path / "wide.scn"
    path.write_text(perfbench_workloads().scenario_text("wide_plastic", 1))
    written = written_at_one_and_two_blas_threads(tmp_path, str(path), "--per-phase")
    assert list(written["1"]) == ["macro.csv", "phases.csv"]
    assert written["1"] == written["2"]
    rows = written["1"]["phases.csv"].decode().splitlines()
    end_of_loading = [row for row in rows if row.startswith("30,incl")]
    assert len(end_of_loading) == 200
    assert all(row.endswith(",1") for row in end_of_loading)


def test_operators_residuals(capsys):
    code = main(["operators", "--default-scenario"])
    assert code == 0
    out = capsys.readouterr().out
    m_a = re.search(r"\|\|sum f A - I\|\|_inf = ([0-9.e+-]+)", out)
    m_b = re.search(r"max_b \|\|sum f B\|\|_inf = ([0-9.e+-]+)", out)
    assert float(m_a.group(1)) < 1e-10
    assert float(m_b.group(1)) < 1e-10
    assert "homogenized stiffness" in out


def test_operators_full_prints_tensors(tiny_file, capsys):
    code = main(["operators", tiny_file, "--full"])
    assert code == 0
    out = capsys.readouterr().out
    for name in ("matrix", "incl1_00", "incl1_01"):
        for tensor in "ARM":
            assert f"{tensor}[{name}] =" in out
    assert "B[" not in out  # the influence operator is printed as its factors


def test_operators_full_memory_is_linear_in_phases(tmp_path, capsys):
    # 201 phases: --full prints O(n) factors, so the peak stays near 1 MB;
    # the n^2 dense influence tensors would take tens of MB
    path = tmp_path / "wide.scn"
    path.write_text(perfbench_workloads().scenario_text("wide_plastic", 1))
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = main(["operators", str(path), "--full"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert out.getvalue().count("M[incl1_") == 200
    assert peak < 10e6


def test_check_battery(capsys):
    code = main(["check"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 8
    assert "FAIL" not in out
    assert "radial return" in out
    assert "Levin uniform field" in out
    assert "Mori-Tanaka spheres vs Hashin-Shtrikman" in out
    assert "CSV numbers vs %.17g" in out


def test_check_failures_are_named_and_exit_3(monkeypatch, capsys):
    # a check fails when its residual exceeds its tolerance or is NaN; each
    # failure prints a FAIL line with its name, and the command exits 3
    monkeypatch.setattr("revplast.selfcheck.run_selfchecks", lambda: [
        ("passing check", 1e-15, 1e-10), ("failing check", 1e-3, 1e-10),
        ("nan check", float("nan"), 1e-10)])
    assert main(["check"]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "PASS  passing check", "FAIL  failing check", "FAIL  nan check"]
    assert "residual nan" in lines[2]


def test_run_elastic_only_scenario(tmp_path, capsys):
    text = TINY.replace("plastic_model = drucker_prager\n", "")
    text = text.replace("shear_strength = 0.12\n", "")
    path = tmp_path / "elastic.scn"
    path.write_text(text)
    code = main(["run", str(path), "--output-dir", str(tmp_path)])
    assert code == 0
    rows = (tmp_path / "tiny_macro.csv").read_text().splitlines()
    assert len(rows) == 6
    assert all(row.split(",")[-1] == "0" for row in rows[1:])  # never plastic


SHEAR = """\
[matrix]
young_modulus = 100.0
poisson_ratio = 0.25

[loading]
segment = e12:0.001 n:1
segment = s12:0.05 s11:0 s22:0 s33:0 n:1
"""


def test_shear_targets_are_tensor_components(tmp_path, capsys):
    # segment targets and CSV columns are plain tensor components: a shear
    # target comes back unchanged, with no sqrt(2) of the Mandel basis
    path = tmp_path / "shear.scn"
    path.write_text(SHEAR)
    assert main(["run", str(path), "--output-dir", str(tmp_path)]) == 0
    lines = (tmp_path / "macro.csv").read_text().splitlines()
    header = lines[0].split(",")
    strained = dict(zip(header, map(float, lines[2].split(","))))
    stressed = dict(zip(header, map(float, lines[3].split(","))))
    assert strained["eps_12"] == pytest.approx(0.001, rel=1e-15, abs=0)
    assert stressed["sig_12"] == pytest.approx(0.05, rel=1e-15, abs=0)


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.scn"
    bad.write_text("[matrix]\nyoung_modulus = ten\npoisson_ratio = 0.25\n")
    code = main(["run", str(bad)])
    assert code == 2
    assert "line 2" in capsys.readouterr().err


def test_non_utf8_scenario_exit_code(tmp_path, capsys):
    # a byte that is not UTF-8 is a scenario error located at its line
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"[matrix]\nyoung_modulus = 1\xff0\npoisson_ratio = 0.25\n")
    code = main(["run", str(bad)])
    assert code == 2
    assert "scenario error: line 2: not UTF-8 text: byte 0xff" in capsys.readouterr().err


def test_zero_orientation_axis_exit_code(tmp_path, capsys):
    bad = tmp_path / "zero_axis.scn"
    bad.write_text(TINY.replace("orientations = 0 0 1; 1 0 0",
                                "orientations = 0 0 0; 1 0 0"))
    code = main(["run", str(bad), "--output-dir", str(tmp_path)])
    assert code == 2
    assert "spheroid axis" in capsys.readouterr().err


def test_missing_file_exit_code(tmp_path, capsys):
    code = main(["run", str(tmp_path / "nope.scn")])
    assert code == 4


def test_run_creates_missing_output_dir(tiny_file, tmp_path, capsys):
    out_dir = tmp_path / "a" / "b" / "c"
    code = main(["run", tiny_file, "--output-dir", str(out_dir)])
    assert code == 0
    assert os.listdir(out_dir) == ["tiny_macro.csv"]


def test_run_creates_output_subdirectories(tmp_path, capsys):
    # relative [output] paths in subdirectories of --output-dir are created
    # before the solve, not found missing after it
    path = tmp_path / "nested.scn"
    path.write_text(TINY.replace("macro = tiny_macro.csv",
                                 "macro = sub/macro.csv\nper_phase = phase/deep/phases.csv"))
    out_dir = tmp_path / "out"
    code = main(["run", str(path), "--output-dir", str(out_dir)])
    assert code == 0
    assert len((out_dir / "sub" / "macro.csv").read_text().splitlines()) == 6
    assert (out_dir / "phase" / "deep" / "phases.csv").exists()


def test_run_creates_parent_of_absolute_output_path(tmp_path, capsys):
    macro = tmp_path / "missing" / "dir" / "m.csv"
    path = tmp_path / "absolute.scn"
    path.write_text(TINY.replace("macro = tiny_macro.csv", f"macro = {macro}"))
    code = main(["run", str(path), "--output-dir", str(tmp_path / "out")])
    assert code == 0
    assert len(macro.read_text().splitlines()) == 6


def test_run_expands_the_phases_once(tiny_file, tmp_path, monkeypatch, capsys):
    # parsing validates without expanding; the run expands once
    calls = []
    expand = Scenario.phases
    monkeypatch.setattr(Scenario, "phases", lambda sc: calls.append(sc) or expand(sc))
    parse_scenario(TINY)
    assert calls == []
    assert main(["run", tiny_file, "--output-dir", str(tmp_path)]) == 0
    assert len(calls) == 1


def test_unwritable_output_path_exit_code(tmp_path, capsys):
    (tmp_path / "blocker").write_text("")  # a regular file where a directory is needed
    path = tmp_path / "blocked.scn"
    path.write_text(TINY.replace("macro = tiny_macro.csv", "macro = blocker/macro.csv"))
    code = main(["run", str(path), "--output-dir", str(tmp_path)])
    assert code == 4
    err = capsys.readouterr().err
    assert str(tmp_path / "blocker" / "macro.csv") in err
    assert ".tmp_" not in err
    assert sorted(os.listdir(tmp_path)) == ["blocked.scn", "blocker"]


@pytest.mark.parametrize("output,made,message", [
    pytest.param("macro = ", None, "output path names no file: ''", id=""),
    pytest.param("macro = sub/", None, "output path names no file: 'sub/'", id="sub/"),
    pytest.param("macro = sub", "sub", "output path names no file: 'sub'", id="sub"),
    pytest.param("macro = m.csv\nplot_data = p", "p_axial.csv",
                 "output path names no file: 'p_axial.csv'", id="plot-file-is-a-directory"),
    pytest.param("macro = p_axial.csv\nper_phase = p_axial.csv\nplot_data = p", None,
                 "output path named twice: 'p_axial.csv'", id="colliding-names"),
])
def test_output_path_naming_no_file_fails_before_the_solve(output, made, message, tmp_path,
                                                           monkeypatch, capsys):
    # an empty path, a trailing separator, an existing directory (also as a
    # plot file) and a file named twice: the run stops before the solve and
    # leaves nothing behind
    def no_drive(*args):
        raise AssertionError("the output paths are checked before the solve")

    monkeypatch.setattr(cli, "drive", no_drive)
    monkeypatch.chdir(tmp_path)
    if made:
        (tmp_path / made).mkdir()
    path = tmp_path / "nofile.scn"
    path.write_text(TINY.replace("macro = tiny_macro.csv", output))
    before = sorted(os.walk(tmp_path))
    assert main(["run", str(path)]) == 4
    assert message in capsys.readouterr().err
    assert sorted(os.walk(tmp_path)) == before


def test_solver_failure_exit_code(tmp_path, capsys):
    text = TINY.replace("[loading]",
                        "[solver]\nnewton_max_iter = 1\n\n[loading]")
    text = text.replace("segment = e33:-0.0004 s11:0 s22:0 n:4",
                        "segment = e33:-0.004 s11:0 s22:0 n:1")
    path = tmp_path / "fail.scn"
    path.write_text(text)
    code = main(["run", str(path), "--output-dir", str(tmp_path)])
    assert code == 3
    assert "solver error" in capsys.readouterr().err


def test_requires_exactly_one_source(capsys):
    with pytest.raises(SystemExit):
        main(["run"])
    with pytest.raises(SystemExit):
        main(["run", "file.scn", "--default-scenario"])


def test_readme_examples_parse():
    # the README's scenario document and command lines are inputs too: they
    # must parse, so the documentation cannot drift from the program
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as handle:
        blocks = re.findall(r"```(\w+)\n(.*?)```", handle.read(), re.S)
    scenarios = [body for lang, body in blocks if lang == "ini"]
    assert len(scenarios) == 1
    assert parse_scenario(scenarios[0]).families
    commands = [shlex.split(line, comments=True)[1:]
                for lang, body in blocks if lang == "sh"
                for line in body.splitlines() if line.startswith("revplast ")]
    assert len(commands) >= 5
    parser = cli.build_parser()
    for argv in commands:
        assert parser.parse_args(argv).command == argv[0]
