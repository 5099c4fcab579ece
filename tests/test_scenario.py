import importlib.util
import os
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from revplast.errors import ScenarioError
from revplast.mean_field import Spheroid
from revplast.orientations import CUBE26
from revplast.plasticity import DruckerPrager
from revplast.scenario import (InclusionFamily, OutputOptions, Scenario,
                               default_scenario, parse_scenario,
                               serialize_scenario)
from revplast.solver import STRAIN, STRESS, LoadProgram, LoadSegment, SolverSettings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# the default scenario's document, for the error cases that change one of its lines
DEFAULT_DOC = serialize_scenario(default_scenario())

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

RICH = Scenario(
    matrix_young=73.25, matrix_poisson=0.31,
    matrix_plastic=DruckerPrager(friction_angle=0.125, shear_strength=1.5,
                                 dilation_angle=0.063),
    families=(
        InclusionFamily(young_modulus=512.5, poisson_ratio=0.12,
                        aspect_ratio=1.75, volume_fraction=0.07,
                        orientations=((0.0, 0.0, 1.0), (1.0, 0.0, 0.0))),
        InclusionFamily(young_modulus=88.0, poisson_ratio=0.4,
                        aspect_ratio=0.2, volume_fraction=0.02,
                        orientations=CUBE26,
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
    settings=SolverSettings(newton_tol=1e-11, newton_max_iter=42),
    output=OutputOptions(macro_path="out.csv", phase_path="ph.csv",
                         plot_prefix="fig"))


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


def test_phases_reuse_the_checked_spheroids(monkeypatch):
    # a family checks each axis once, when it is built; the expansion hands
    # each phase that check's spheroid and builds none of its own
    axes = tuple(map(tuple, np.random.default_rng(7).normal(size=(200, 3))))
    family = InclusionFamily(1000.0, 0.25, 0.35, 0.2, orientations=axes)
    sc = Scenario(100.0, 0.25, families=(family,))
    built, check = [], Spheroid.__post_init__

    def counted(self):
        built.append(self)
        check(self)

    monkeypatch.setattr(Spheroid, "__post_init__", counted)
    phases = sc.phases()
    assert built == []
    assert len(phases) == 201
    assert all(p.spheroid is s for p, s in zip(phases[1:], family.spheroids))
    assert family.spheroids == tuple(Spheroid(0.35, axis) for axis in axes)
    assert len(built) == 200  # the counter sees every build


def test_cube26_order():
    # the phases of a cube26 family follow this order: faces, edges, vertices
    dirs = np.array(CUBE26)
    assert dirs.shape == (26, 3)
    assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0, rtol=0.0, atol=1e-15)
    assert [int(np.count_nonzero(d)) for d in dirs] == [1] * 6 + [2] * 12 + [3] * 8
    assert CUBE26[0] == (1.0, 0.0, 0.0)
    assert CUBE26[6] == (1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0), 0.0)
    assert CUBE26[-1] == (-1.0 / np.sqrt(3.0),) * 3


def test_parse_good_document():
    sc = parse_scenario(GOOD)
    assert sc.matrix_young == 100.0
    assert len(sc.families) == 1
    assert sc.families[0].orientations == CUBE26
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
    (DEFAULT_DOC.replace("young_modulus = 100\n", "young_modulus = inf\n"),
     "^line 2: non-finite number 'inf'$", 2),
    (DEFAULT_DOC.replace("scheme = mori_tanaka", "scheme = mori_tanaka\nnewton_max_iter = 2.5"),
     "^line 21: malformed integer '2.5'$", 21),
    (DEFAULT_DOC.replace("e12:0 n:100", "e12:0 n:0"),  # the LoadSegment error, on its line
     "^line 16: segment needs at least one increment$", 16),
    (DEFAULT_DOC.replace("s11:0", "s11 0", 1),  # a token without its colon
     "^line 16: malformed segment token 's11'$", 16),
    (DEFAULT_DOC.replace("[matrix]\nyoung_modulus = 100\npoisson_ratio = 0.25\n", ""),
     r"^missing required section \[matrix\]$", 0),
    (DEFAULT_DOC.replace("scheme = mori_tanaka", "scheme = bogus"),
     "^line 20: unknown scheme 'bogus'$", 20),
    # increments are not subdivided, so max_subdivisions is an unknown key on its line
    (DEFAULT_DOC.replace("scheme = mori_tanaka", "scheme = mori_tanaka\nmax_subdivisions = 8"),
     r"^line 21: unknown key 'max_subdivisions' in section \[solver\]$", 21),
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
    ("segment = e33:-0.001 n:10 n:20", "increment count 'n:' specified twice"),
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
])
def test_solver_setting_out_of_range_names_its_line(setting, match):
    text = GOOD.replace("scheme = mori_tanaka", f"scheme = mori_tanaka\n{setting}")
    with pytest.raises(ScenarioError, match=match) as err:
        parse_scenario(text)
    assert err.value.line == 22


@pytest.mark.parametrize("old,new,match,line", [
    ("plastic_model = drucker_prager", "plastic_model = mohr_coulomb",
     "unknown plastic_model 'mohr_coulomb'", 12),
    ("friction_angle = 0.0", "friction_angle = 30", "friction angle must lie", 13),
    ("shear_strength = 0.12", "shear_strength = -0.12",
     "shear strength must be positive", 14),
    ("shear_strength = 0.12", "shear_strength = 0.12\ndilation_angle = 1.6",
     "dilation angle must lie", 15),
    ("shear_strength = 0.12", "shear_strength = abc", "malformed number", 14),
    ("shear_strength = 0.12", "dilation_angle = 0.1",
     "requires shear_strength in \\[inclusions\\]", 6),  # a missing key: its section
    ("[matrix]", "[matrix]\nplastic_model = drucker_prager\nshear_strength = 0",
     "shear strength must be positive", 4),
])
def test_plastic_parameter_error_names_its_line(old, new, match, line):
    with pytest.raises(ScenarioError, match=match) as err:
        parse_scenario(GOOD.replace(old, new))
    assert err.value.line == line


@pytest.mark.parametrize("line,value,match", [
    (3, "-3", "phase 'matrix': Young's modulus must be positive"),
    (4, "0.5", "phase 'matrix': Poisson ratio must lie"),
    (7, "-3", "Young's modulus must be positive"),
    (8, "-1", "Poisson ratio must lie"),
    (9, "0", "aspect ratio must be positive"),
    (9, "1e-200", "aspect ratio 1e-200 lies outside"),
    (9, "1e120", r"aspect ratio 1e\+120 lies outside"),
    (10, "0", "volume fraction must be positive"),
])
def test_elastic_value_out_of_range_names_its_line(line, value, match):
    # the [matrix] and [inclusions] numbers are range-checked as they are read
    lines = GOOD.splitlines()
    key = lines[line - 1].split("=")[0]
    lines[line - 1] = f"{key}= {value}"
    with pytest.raises(ScenarioError, match=match) as err:
        parse_scenario("\n".join(lines))
    assert err.value.line == line


def test_unknown_scheme_rejected_by_the_constructor():
    # a scenario that builds also serializes to a document that parses
    with pytest.raises(ValueError, match="unknown scheme 'bogus'"):
        Scenario(50.0, 0.3, scheme="bogus")


def test_round_trip_default():
    sc = default_scenario()
    assert parse_scenario(serialize_scenario(sc)) == sc


def test_round_trip_parsed():
    sc = parse_scenario(GOOD)
    assert parse_scenario(serialize_scenario(sc)) == sc


def test_round_trip_rich_scenario():
    assert parse_scenario(serialize_scenario(RICH)) == RICH


def _finite(lo, hi):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False)


_plastic = st.none() | st.builds(
    DruckerPrager, friction_angle=_finite(0.0, 1.5), shear_strength=_finite(1e-3, 10.0),
    dilation_angle=st.none() | _finite(0.0, 1.5))
_axis = st.tuples(*[_finite(-1.0, 1.0)] * 3).filter(lambda a: sum(x * x for x in a) > 1e-6)
_family = st.builds(
    InclusionFamily, young_modulus=_finite(1.0, 1e4), poisson_ratio=_finite(-0.5, 0.45),
    aspect_ratio=_finite(0.05, 20.0), volume_fraction=_finite(1e-3, 0.3),
    orientations=st.just(CUBE26) | st.lists(_axis, min_size=1, max_size=3).map(tuple),
    plastic=_plastic)


@st.composite
def _segment(draw):
    modes = draw(st.lists(st.sampled_from((STRAIN, STRESS)), min_size=6, max_size=6))
    target = _finite(-1.0, 1.0)
    targets = [draw(target if m == STRESS else st.none() | target) for m in modes]
    return LoadSegment(tuple(targets), tuple(modes), draw(st.integers(1, 500)))


# a path the grammar holds: no '#', no line break, no edge whitespace
_path = st.text(st.sampled_from("ab_./- 9"), max_size=10).filter(lambda p: p == p.strip())


@settings(max_examples=40, deadline=None)
@given(st.builds(
    Scenario, matrix_young=_finite(1.0, 1e4), matrix_poisson=_finite(-0.5, 0.45),
    families=st.lists(_family, max_size=2).map(tuple), matrix_plastic=_plastic,
    scheme=st.sampled_from(("mori_tanaka", "dilute")),
    program=st.builds(LoadProgram, segments=st.lists(_segment(), max_size=3).map(tuple)),
    settings=st.builds(SolverSettings, newton_tol=_finite(1e-300, 1.0),
                       newton_max_iter=st.integers(1, 500),
                       mixed_tol=_finite(1e-300, 1.0)),
    output=st.builds(OutputOptions, macro_path=_path, phase_path=st.none() | _path,
                     plot_prefix=st.none() | _path)))
@example(Scenario(50.0, 0.3, output=OutputOptions(macro_path="my run.csv", phase_path="",
                                                  plot_prefix="")))
def test_round_trip_random_scenarios(sc):
    assert parse_scenario(serialize_scenario(sc)) == sc


@pytest.mark.parametrize("field,value", [
    ("macro_path", "run#1.csv"), ("macro_path", None), ("phase_path", " ph.csv"),
    ("phase_path", "ph.csv\t"), ("plot_prefix", "a\nb"), ("plot_prefix", "a\rb"),
    ("plot_prefix", "a\u2028b"),
])
def test_serialize_rejects_path_that_would_not_read_back(field, value):
    sc = Scenario(50.0, 0.3, output=OutputOptions(**{field: value}))
    with pytest.raises(ValueError, match=f"output {field} "):
        serialize_scenario(sc)


@pytest.mark.parametrize("orientations,match", [
    ((), "at least one axis"),
    ("CUBE26", "three numbers, got 'C'"),
    (((1.0, 0.0, 0.0), (0.0, 0.0, 0.0)), "nonzero finite vector"),
    (((1e200, 1e200, 0.0),), "cannot be normalized in double precision"),
    (((1.0, 0.0),), "axis must be three numbers"),
])
def test_inclusion_family_rejects_bad_orientations(orientations, match):
    with pytest.raises(ValueError, match=match):
        InclusionFamily(1000.0, 0.25, 0.35, 0.1, orientations=orientations)


def test_scenario_rejects_what_no_family_checks_alone():
    family = InclusionFamily(1000.0, 0.25, 0.35, 0.5)
    with pytest.raises(ValueError, match="no volume left for the matrix"):
        Scenario(100.0, 0.25, families=(family, family))
    with pytest.raises(ValueError, match="Young's modulus must be positive"):
        Scenario(-100.0, 0.25, families=(family,))
    tiny = InclusionFamily(1000.0, 0.25, 0.35, 5e-324)  # 0.0 in each of 26 phases
    with pytest.raises(ValueError, match="underflows split over its axes"):
        Scenario(100.0, 0.25, families=(tiny,))
    with pytest.raises(ScenarioError, match="underflows"):
        parse_scenario(GOOD.replace("volume_fraction = 0.143", "volume_fraction = 5e-324"))


@pytest.mark.parametrize("axis,match", [
    ("0 0 0", "nonzero finite vector"),
    ("1e-200 1e-200 0", "cannot be normalized in double precision"),
    ("1 2", "axis must be three numbers"),
    ("0 0 abc", "malformed number 'abc'"),
    ("1 inf 0", "non-finite number 'inf'"),
])
def test_bad_custom_axis_names_its_orientations_line(axis, match):
    text = GOOD.replace("orientations = cube26", f"orientations = 0 0 1; {axis}")
    with pytest.raises(ScenarioError, match=match) as err:
        parse_scenario(text)
    assert err.value.line == 11


@pytest.mark.parametrize("axis", ["1e200 1e200 0", "1e-200 1e-200 0"])
def test_axis_that_cannot_be_normalized_is_a_scenario_error(axis):
    with pytest.raises(ScenarioError, match="cannot be normalized in double precision"):
        parse_scenario(GOOD.replace("orientations = cube26", f"orientations = {axis}"))


_JUNK = ("", "0", "-1", "1e400", "nan", "abc", "1e200 1e200 0", "1e-200 1e-200 0",
         "0 0 0", "cube26", "none", "drucker_prager", "dilute", "e33:1 n:0", "s11:x",
         "n:99999999999999999999", "[", "[matrix]", "[bogus]", "=", "#", "key = value",
         "segment = s11:0 n:3", "young_modulus = 5", "orientations = 1 2")
_DOCUMENTS = (GOOD, serialize_scenario(RICH), serialize_scenario(default_scenario()))


@settings(max_examples=50, deadline=None)
@given(st.randoms(use_true_random=True))
def test_mutated_documents_raise_only_scenario_errors(rnd):
    lines = rnd.choice(_DOCUMENTS).splitlines()
    values = [line.split("=", 1)[1] for line in lines if "=" in line]

    def junk():
        if rnd.random() < 0.8:
            return rnd.choice(_JUNK + tuple(values))
        return "".join(rnd.choice("[]=#:;.e1- \t\x0b\u2028") for _ in range(rnd.randrange(9)))

    for _ in range(rnd.randint(1, 4)):
        k = rnd.randrange(len(lines)) if lines else 0
        op = rnd.choice(("replace", "drop", "duplicate", "append"))
        if op == "append" or not lines:
            lines.append(junk())
        elif op == "replace":
            lines[k] = (lines[k].split("=", 1)[0] + "= " if "=" in lines[k] else "") + junk()
        elif op == "drop":
            del lines[k]
        else:
            lines.insert(k, lines[k])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning is a failure, not a rejection
        try:
            parse_scenario("\n".join(lines))
        except ScenarioError:
            pass


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_benchmark_workload_texts_round_trip(seed):
    spec = importlib.util.spec_from_file_location(
        "workloads", os.path.join(ROOT, "perfbench", "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for name in workloads.WORKLOADS:
        sc = parse_scenario(workloads.scenario_text(name, seed))
        assert parse_scenario(serialize_scenario(sc)) == sc, name
