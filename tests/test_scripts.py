import importlib.util
import os
import subprocess
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_script(name, *args, returncode=0):
    """Run ``scripts/<name>`` on this checkout's package; its completed process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", name), *args],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == returncode, done.stderr
    return done


def test_run_default_script(tmp_path):
    done = run_script("run_default.py", "--out", str(tmp_path / "out"))
    assert "peak axial stress" in done.stdout
    for label, yields in (("plastic", True), ("elastic", False)):
        macro = np.loadtxt(tmp_path / "out" / f"macro_{label}.csv", delimiter=",",
                           skiprows=1)
        assert macro.shape == (151, 20)
        assert (macro[:, -1].max() > 0) == yields  # n_active
        for axis in ("axial", "lateral"):
            plot = np.loadtxt(tmp_path / "out" / f"{label}_{axis}.csv", delimiter=",",
                              skiprows=1)
            assert plot.shape == (151, 2)
            assert np.isfinite(plot).all()


def test_refinement_study_converges_at_first_order():
    # backward-Euler increments: the change of the final axial stress halves
    # with each doubling of the increments (measured ratios 1.99 and 2.00)
    lines = run_script("refinement_study.py").stdout.splitlines()
    assert lines[0].split() == ["increments", "final", "sig33", "(MPa)", "change", "vs",
                                "previous"]
    rows = [line.split() for line in lines[1:]]
    assert [int(row[0]) for row in rows] == [150, 300, 600, 1200]
    changes = [float(row[2]) for row in rows[1:]]
    for coarse, fine in zip(changes, changes[1:]):
        assert 1.8 <= coarse / fine <= 2.2


def test_phase_sweep_counts_its_work(monkeypatch):
    # the sweep times each assembly and drive and sums the increment records
    # of its states; pin its counts on the smallest size (30 linearizations
    # and 41 chord steps while the convergence test took F at the recomputed
    # stresses in place of the residual's F at the iterate)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")  # the script pins them; restored afterwards
    spec = importlib.util.spec_from_file_location(
        "phase_sweep", os.path.join(ROOT, "scripts", "phase_sweep.py"))
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    calls = {"assemble": 0, "drive": 0}

    def counted(stage, func):
        def call(*args):
            calls[stage] += 1
            return func(*args)
        return call

    # each stage makes one untimed warm-up call before its timed ones
    monkeypatch.setattr(sweep, "assemble_operators",
                        counted("assemble", sweep.assemble_operators))
    monkeypatch.setattr(sweep, "drive", counted("drive", sweep.drive))
    record = sweep.run(26, sweep.AXES_SEED, 2)
    assert (record["phases"], record["increments"]) == (27, 30)
    assert (record["newton_solves"], record["newton_linearizations"], record["chords"],
            record["systems"], record["revisions"]) == (20, 32, 37, 10, 3)
    for stage in ("assemble", "drive"):
        times = record[f"{stage}_s_all"]
        assert calls[stage] == 3
        assert len(times) == 2 and record[f"{stage}_s_best"] == min(times) > 0.0


def test_phase_sweep_refuses_no_repeats(tmp_path):
    # with no timed drive it used to assemble the operators, then crash on an
    # empty min() and write nothing
    out = tmp_path / "sweep.json"
    for repeats in ("0", "-2"):
        done = run_script("phase_sweep.py", "--out", str(out), "--repeats", repeats,
                          returncode=2)
        assert f"--repeats must be at least 1, got {repeats}" in done.stderr
        assert "axes:" not in done.stdout and not out.exists()
