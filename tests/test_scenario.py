import numpy as np
import pytest

from revplast.errors import ScenarioError
from revplast.plasticity import DruckerPrager
from revplast.scenario import (InclusionFamily, OutputOptions, Scenario,
                               default_scenario, parse_scenario,
                               serialize_scenario)
from revplast.solver import STRAIN, STRESS, LoadProgram, LoadSegment, SolverSettings

GOOD = """\
# uniaxial compression with zero lateral stresses
[matrix]
young_modulus = 100.0
poisson_ratio = 0.25

[inclusions]
young_modulus = 1000.0
poisson_ratio = 0.25
aspect_ratio = 0.35
volume_fraction = 0.143
orientations = cube26
plastic_model = drucker_prager
friction_angle = 0.0
shear_strength = 0.12

[loading]
segment = s11:0 s22:0 e33:-0.001 e23:0 e13:0 e12:0 n:100
segment = s11:0 s22:0 e33:-0.0005 e23:0 e13:0 e12:0 n:50

[solver]
scheme = mori_tanaka

[output]
macro = macro.csv
"""


def test_default_scenario_constants():
    sc = default_scenario()
    assert sc.matrix_young == 100.0
    assert sc.matrix_poisson == 0.25
    assert sc.matrix_plastic is None
    (fam,) = sc.families
    assert fam.young_modulus == 1000.0
    assert fam.poisson_ratio == 0.25
    assert fam.aspect_ratio == 0.35
    assert fam.volume_fraction == 0.143
    assert fam.plastic == DruckerPrager(friction_angle=0.0, shear_strength=0.12)
    seg1, seg2 = sc.program.segments
    assert seg1.increments == 100 and seg2.increments == 50
    assert seg1.targets[2] == -0.001 and seg2.targets[2] == -0.0005
    assert seg1.modes[:2] == (STRESS, STRESS)
    assert seg1.modes[2] == STRAIN


def test_default_scenario_phases():
    phases = default_scenario().phases()
    assert len(phases) == 27
    assert phases[0].name == "matrix"
    assert phases[0].volume_fraction == pytest.approx(1.0 - 0.143, abs=1e-15)
    for p in phases[1:]:
        assert p.volume_fraction == pytest.approx(0.143 / 26, abs=1e-18)
        assert p.spheroid.aspect_ratio == 0.35
        assert p.plastic.shear_strength == 0.12
    axes = {tuple(np.round(p.spheroid.axis, 12)) for p in phases[1:]}
    assert len(axes) == 26


def test_parse_good_document():
    sc = parse_scenario(GOOD)
    assert sc.matrix_young == 100.0
    assert len(sc.families) == 1
    assert sc.families[0].orientations == "cube26"
    assert len(sc.program.segments) == 2
    assert sc.program.segments[0].modes[0] == STRESS
    assert sc.output.macro_path == "macro.csv"
    assert len(sc.phases()) == 27


def test_parse_single_phase_scenario():
    sc = parse_scenario("[matrix]\nyoung_modulus = 50\npoisson_ratio = 0.3\n")
    assert sc.families == ()
    assert len(sc.phases()) == 1


def test_parse_explicit_orientations():
    text = """\
[matrix]
young_modulus = 100
poisson_ratio = 0.25

[inclusions]
young_modulus = 1000
poisson_ratio = 0.25
aspect_ratio = 0.5
volume_fraction = 0.1
orientations = 0 0 1; 1 0 0; 0.5 0.5 0.70710678
"""
    sc = parse_scenario(text)
    assert len(sc.phases()) == 4
    assert sc.families[0].orientations[1] == (1.0, 0.0, 0.0)


def test_parse_two_families():
    text = """\
[matrix]
young_modulus = 100
poisson_ratio = 0.25

[inclusions]
young_modulus = 1000
poisson_ratio = 0.25
aspect_ratio = 0.5
volume_fraction = 0.1
orientations = 0 0 1

[inclusions]
young_modulus = 500
poisson_ratio = 0.2
aspect_ratio = 2.0
volume_fraction = 0.05
orientations = 1 0 0
"""
    sc = parse_scenario(text)
    assert len(sc.families) == 2
    phases = sc.phases()
    assert len(phases) == 3
    assert phases[0].volume_fraction == pytest.approx(0.85)


@pytest.mark.parametrize("snippet,match,line", [
    ("[matrix]\nyoung_modulus = 100\npoisson_ratio = 0.25\nbogus_key = 1\n",
     "unknown key", 4),
    ("[matrix]\nyoung_modulus = 100\nyoung_modulus = 100\npoisson_ratio = 0.25\n",
     "duplicate", 3),
    ("[matrix]\nyoung_modulus = ten\npoisson_ratio = 0.25\n", "malformed number", 2),
    ("[wrong]\n", "unknown section", 1),
    ("young_modulus = 100\n", "outside any section", 1),
    ("[matrix\n", "unterminated", 1),
    ("[matrix]\nyoung_modulus = 100\npoisson_ratio = 0.25\nnonsense line\n",
     "key = value", 4),
])
def test_parse_errors_carry_line_numbers(snippet, match, line):
    with pytest.raises(ScenarioError, match=match) as err:
        parse_scenario(snippet)
    assert err.value.line == line


def test_fraction_sum_rejected():
    text = GOOD.replace("volume_fraction = 0.143", "volume_fraction = 1.05")
    with pytest.raises(ScenarioError, match="sum"):
        parse_scenario(text)


def test_negative_modulus_rejected():
    text = GOOD.replace("young_modulus = 1000.0", "young_modulus = -3.0")
    with pytest.raises(ScenarioError, match="positive"):
        parse_scenario(text)


def test_missing_required_key():
    with pytest.raises(ScenarioError, match="missing"):
        parse_scenario("[matrix]\nyoung_modulus = 100\n")


def test_duplicate_section_rejected():
    text = GOOD + "\n[matrix]\nyoung_modulus = 1\npoisson_ratio = 0.1\n"
    with pytest.raises(ScenarioError, match="only once"):
        parse_scenario(text)


def test_plastic_without_model_rejected():
    text = GOOD.replace("plastic_model = drucker_prager\n", "")
    with pytest.raises(ScenarioError, match="plastic_model"):
        parse_scenario(text)


@pytest.mark.parametrize("segment,match", [
    ("segment = e33:-0.001", "increment count"),
    ("segment = e33:-0.001 e33:0 n:5", "twice"),
    ("segment = e99:-0.001 n:5", "unknown component"),
    ("segment = x33:-0.001 n:5", "malformed segment token"),
    ("segment = e33:abc n:5", "malformed number"),
])
def test_segment_errors(segment, match):
    text = GOOD.replace("segment = s11:0 s22:0 e33:-0.001 e23:0 e13:0 e12:0 n:100",
                        segment)
    with pytest.raises(ScenarioError, match=match):
        parse_scenario(text)


def test_segment_reversed_component_label():
    text = GOOD.replace("e13:0", "e31:0")
    sc = parse_scenario(text)
    assert sc.program.segments[0].modes[4] == STRAIN


def test_solver_overrides():
    text = GOOD.replace("scheme = mori_tanaka",
                        "scheme = mori_tanaka\nnewton_tol = 1e-10\n"
                        "newton_max_iter = 25\nmixed_tol = 1e-9")
    sc = parse_scenario(text)
    assert sc.settings.newton_tol == 1e-10
    assert sc.settings.newton_max_iter == 25
    assert sc.settings.mixed_tol == 1e-9
    # one nonlinear path: the finite-difference Jacobian is no longer selectable
    with pytest.raises(ScenarioError, match="unknown key 'jacobian'"):
        parse_scenario(text.replace("mixed_tol", "jacobian = fd\nmixed_tol"))
    # one nonlinear loop per increment: the mixed-control pass cap is gone
    with pytest.raises(ScenarioError, match="unknown key 'mixed_max_iter'"):
        parse_scenario(text.replace("mixed_tol", "mixed_max_iter = 60\nmixed_tol"))
    # the active-set pass cap is a solver constant, not a setting
    with pytest.raises(ScenarioError, match="unknown key 'active_set_max_iter'"):
        parse_scenario(text.replace("mixed_tol", "active_set_max_iter = 20\nmixed_tol"))


@pytest.mark.parametrize("setting,match", [
    ("newton_tol = 0", "newton_tol must be positive"),
    ("newton_tol = -1e-12", "newton_tol must be positive"),
    ("newton_max_iter = 0", "newton_max_iter must be at least 1"),
    ("mixed_tol = -1e-8", "mixed_tol must be positive"),
    ("max_subdivisions = -1", "max_subdivisions must not be negative"),
])
def test_solver_setting_out_of_range_names_its_line(setting, match):
    text = GOOD.replace("scheme = mori_tanaka", f"scheme = mori_tanaka\n{setting}")
    with pytest.raises(ScenarioError, match=match) as err:
        parse_scenario(text)
    assert err.value.line == 22


def test_round_trip_default():
    sc = default_scenario()
    assert parse_scenario(serialize_scenario(sc)) == sc


def test_round_trip_parsed():
    sc = parse_scenario(GOOD)
    assert parse_scenario(serialize_scenario(sc)) == sc


def test_round_trip_rich_scenario():
    sc = Scenario(
        matrix_young=73.25, matrix_poisson=0.31,
        matrix_plastic=DruckerPrager(friction_angle=0.125, shear_strength=1.5,
                                     dilation_angle=0.063),
        families=(
            InclusionFamily(young_modulus=512.5, poisson_ratio=0.12,
                            aspect_ratio=1.75, volume_fraction=0.07,
                            orientations=((0.0, 0.0, 1.0), (1.0, 0.0, 0.0))),
            InclusionFamily(young_modulus=88.0, poisson_ratio=0.4,
                            aspect_ratio=0.2, volume_fraction=0.02,
                            orientations="cube26",
                            plastic=DruckerPrager(0.05, 0.9)),
        ),
        scheme="dilute",
        program=LoadProgram(segments=(
            LoadSegment(targets=(None, None, -1e-3, None, None, 2e-4),
                        modes=(STRAIN,) * 6, increments=7),
            LoadSegment(targets=(0.0, 0.0, 0.5, 0.0, 0.0, 0.0),
                        modes=(STRESS, STRESS, STRESS, STRAIN, STRAIN, STRAIN),
                        increments=3),
        )),
        settings=SolverSettings(newton_tol=1e-11, max_subdivisions=42),
        output=OutputOptions(macro_path="out.csv", phase_path="ph.csv",
                             plot_prefix="fig"))
    assert parse_scenario(serialize_scenario(sc)) == sc


def test_round_trip_random_scenarios(rng):
    for _ in range(25):
        n_fam = int(rng.integers(0, 3))
        families = []
        budget = 0.6
        for _k in range(n_fam):
            f = float(np.round(rng.uniform(0.01, budget / 2), 6))
            budget -= f
            families.append(InclusionFamily(
                young_modulus=float(np.round(rng.uniform(10, 2000), 6)),
                poisson_ratio=float(np.round(rng.uniform(0.0, 0.45), 6)),
                aspect_ratio=float(np.round(rng.uniform(0.1, 4.0), 6)),
                volume_fraction=f,
                orientations="cube26" if rng.random() < 0.5 else
                tuple(tuple(np.round(rng.normal(size=3), 6)) for _ in range(2)),
                plastic=None if rng.random() < 0.5 else
                DruckerPrager(float(np.round(rng.uniform(0, 0.5), 6)),
                              float(np.round(rng.uniform(0.01, 2.0), 6)))))
        sc = Scenario(
            matrix_young=float(np.round(rng.uniform(10, 500), 6)),
            matrix_poisson=float(np.round(rng.uniform(-0.5, 0.45), 6)),
            families=tuple(families),
            program=LoadProgram(segments=(LoadSegment(
                targets=(None, None, float(np.round(rng.normal() * 1e-3, 9)),
                         None, None, None),
                modes=(STRAIN,) * 6, increments=int(rng.integers(1, 20))),)),
        )
        assert parse_scenario(serialize_scenario(sc)) == sc
