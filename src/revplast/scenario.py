"""Scenario documents: sectioned key/value parsing, defaults, serialization.

Grammar: ``[section]`` headers, ``key = value`` lines, ``#`` comments, blank
lines ignored.  Sections: one ``[matrix]``, zero or more ``[inclusions]``
(one per inclusion family), optional ``[loading]``, ``[solver]`` and
``[output]``.  Units follow the engine conventions: MPa, radians,
dimensionless strains.  The ``segment`` key may repeat inside ``[loading]``;
all other keys are single-valued.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from itertools import chain

from .errors import ScenarioError
from .mean_field import SCHEMES, PhaseSpec, Spheroid
from .orientations import CUBE26
from .plasticity import DruckerPrager
from .solver import STRAIN, STRESS, LoadProgram, LoadSegment, SolverSettings
from .tensors import COMPONENT_LABELS


@dataclass(frozen=True)
class OutputOptions:
    macro_path: str = "macro.csv"
    phase_path: str | None = None
    plot_prefix: str | None = None


@dataclass(frozen=True)
class InclusionFamily:
    """One family of identical spheroids distributed over a set of orientations,
    each the symmetry axis of one phase."""

    young_modulus: float
    poisson_ratio: float
    aspect_ratio: float
    volume_fraction: float
    orientations: tuple[tuple[float, float, float], ...] = CUBE26
    plastic: DruckerPrager | None = None
    # the checked shape of each phase it expands to, one per orientation
    spheroids: tuple[Spheroid, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # the checks of the phases it expands to: the material once, the shape with each axis
        PhaseSpec("inclusions", self.volume_fraction, self.young_modulus, self.poisson_ratio)
        if len(self.orientations) == 0:
            raise ValueError("orientations must list at least one axis")
        object.__setattr__(self, "spheroids", tuple(
            Spheroid(self.aspect_ratio, axis) for axis in self.orientations))


@dataclass(frozen=True)
class Scenario:
    matrix_young: float
    matrix_poisson: float
    families: tuple[InclusionFamily, ...] = ()
    matrix_plastic: DruckerPrager | None = None
    scheme: str = "mori_tanaka"
    program: LoadProgram = field(default_factory=lambda: LoadProgram(segments=()))
    settings: SolverSettings = field(default_factory=SolverSettings)
    output: OutputOptions = field(default_factory=OutputOptions)

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        # the checks of the phases it expands to that no family field makes alone
        f_incl = sum(fam.volume_fraction for fam in self.families)
        if f_incl >= 1.0:
            raise ValueError(f"inclusion volume fractions sum to {f_incl!r}; "
                             "no volume left for the matrix")
        if not all(fam.volume_fraction / len(fam.orientations) > 0.0 for fam in self.families):
            raise ValueError("an inclusion volume fraction underflows split over its axes")
        PhaseSpec("matrix", 1.0 - f_incl, self.matrix_young, self.matrix_poisson)

    def phases(self) -> tuple[PhaseSpec, ...]:
        """Expand families over their orientations into the flat phase list."""
        specs = []
        for kf, fam in enumerate(self.families, start=1):
            f_each = fam.volume_fraction / len(fam.orientations)
            for ka, spheroid in enumerate(fam.spheroids):
                specs.append(PhaseSpec(
                    name=f"incl{kf}_{ka:02d}", volume_fraction=f_each,
                    young_modulus=fam.young_modulus, poisson_ratio=fam.poisson_ratio,
                    spheroid=spheroid, plastic=fam.plastic))
        f_incl = sum(fam.volume_fraction for fam in self.families)
        matrix = PhaseSpec(name="matrix", volume_fraction=1.0 - f_incl,
                           young_modulus=self.matrix_young,
                           poisson_ratio=self.matrix_poisson,
                           plastic=self.matrix_plastic)
        return (matrix, *specs)


def default_scenario() -> Scenario:
    """Uniaxial compression of an elastic matrix with 26 oblate elasto-plastic spheroids.

    Axial strain ramps to -0.001 under zero lateral stresses over 100
    increments, then unloads to half the peak strain over 50.
    """
    family = InclusionFamily(young_modulus=1000.0, poisson_ratio=0.25,
                             aspect_ratio=0.35, volume_fraction=0.143,
                             plastic=DruckerPrager(friction_angle=0.0,
                                                   shear_strength=0.12))
    modes = (STRESS, STRESS, STRAIN, STRAIN, STRAIN, STRAIN)
    seg_load = LoadSegment(targets=(0.0, 0.0, -0.001, 0.0, 0.0, 0.0),
                           modes=modes, increments=100)
    seg_unload = LoadSegment(targets=(0.0, 0.0, -0.0005, 0.0, 0.0, 0.0),
                             modes=modes, increments=50)
    return Scenario(matrix_young=100.0, matrix_poisson=0.25, families=(family,),
                    program=LoadProgram(segments=(seg_load, seg_unload)))


# ---------------------------------------------------------------------------
# section tables: the key sets, the parser and the serializer all read these

_ELASTIC = {"young_modulus": "matrix_young", "poisson_ratio": "matrix_poisson"}
_FAMILY = ("young_modulus", "poisson_ratio", "aspect_ratio", "volume_fraction")
_PLASTIC = ("friction_angle", "shear_strength", "dilation_angle")
_OUTPUT = {"macro": "macro_path", "per_phase": "phase_path", "plot_data": "plot_prefix"}
_SECTION_KEYS = {"matrix": {*_ELASTIC, "plastic_model", *_PLASTIC},
                 "inclusions": {*_FAMILY, "orientations", "plastic_model", *_PLASTIC},
                 "loading": {"segment"},
                 "solver": {"scheme"} | {f.name for f in fields(SolverSettings)},
                 "output": set(_OUTPUT)}
# valid instances that one parsed field at a time is swapped into for its range check
_MATRIX_PROBE = PhaseSpec("matrix", 1.0, 1.0, 0.0)
_FAMILY_PROBE = InclusionFamily(1.0, 0.0, 1.0, 0.5, orientations=((0.0, 0.0, 1.0),))
_PLASTIC_PROBE = DruckerPrager(friction_angle=0.0, shear_strength=1.0)
_SETTINGS_PROBE = SolverSettings()


# ---------------------------------------------------------------------------
# parsing

def _sections(text: str) -> list[tuple[str, int, dict, list]]:
    """Split a document into (name, header line, {key: (value, line)}, segments)."""
    sections: list[tuple[str, int, dict, list]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ScenarioError("unterminated section header", line_no)
            name = line[1:-1].strip().lower()
            if name not in _SECTION_KEYS:
                raise ScenarioError(f"unknown section [{name}]", line_no)
            if name != "inclusions" and any(s[0] == name for s in sections):
                raise ScenarioError(f"section [{name}] may appear only once", line_no)
            sections.append((name, line_no, {}, []))
            continue
        if not sections:
            raise ScenarioError("key/value outside any section", line_no)
        if "=" not in line:
            raise ScenarioError("expected 'key = value'", line_no)
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.lower()
        name, _, entries, segments = sections[-1]
        if key not in _SECTION_KEYS[name]:
            raise ScenarioError(f"unknown key {key!r} in section [{name}]", line_no)
        if key == "segment":
            segments.append(_parse_segment(value, line_no))
        elif key in entries:
            raise ScenarioError(f"duplicate key {key!r} (first at line "
                                f"{entries[key][1]})", line_no)
        else:
            entries[key] = (value, line_no)
    return sections


def _parse_float(value: str, line_no: int) -> float:
    try:
        x = float(value)
    except ValueError:
        raise ScenarioError(f"malformed number {value!r}", line_no) from None
    if not math.isfinite(x):
        raise ScenarioError(f"non-finite number {value!r}", line_no)
    return x


def _parse_int(value: str, line_no: int) -> int:
    try:
        return int(value)
    except ValueError:
        raise ScenarioError(f"malformed integer {value!r}", line_no) from None


def _checked(probe, entries: dict, key: str, parse=_parse_float):
    """Parse one field and range-check it on its own, so an error names its line."""
    value, line_no = entries[key]
    value = parse(value, line_no)
    try:
        replace(probe, **{key: value})
    except ValueError as exc:
        raise ScenarioError(str(exc), line_no) from None
    return value


def _required(probe, entries: dict, key: str, section: str, line_no: int) -> float:
    if key not in entries:
        raise ScenarioError(f"[{section}] is missing {key!r}", line_no)
    return _checked(probe, entries, key)


def _parse_plastic(entries: dict, section: str, line_no: int) -> DruckerPrager | None:
    model, model_line = entries.get("plastic_model", (None, line_no))
    given = [entries[key] for key in _PLASTIC if key in entries]
    if model is None or model.lower() in ("none", "elastic"):
        if given:
            raise ScenarioError(
                f"plastic parameters given without plastic_model in [{section}]",
                given[0][1])
        return None
    if model.lower() != "drucker_prager":
        raise ScenarioError(f"unknown plastic_model {model!r}", model_line)
    if "shear_strength" not in entries:
        raise ScenarioError(f"plastic_model requires shear_strength in [{section}]",
                            line_no)
    params = {key: _checked(_PLASTIC_PROBE, entries, key)
              for key in _PLASTIC if key in entries}
    return DruckerPrager(**{"friction_angle": 0.0, **params})


def _parse_family(entries: dict, section: str, line_no: int) -> InclusionFamily:
    """Parse one [inclusions] section: ``orientations`` is ``cube26`` (the
    default) or axes of three numbers separated by ';'."""
    numbers = {key: _required(_FAMILY_PROBE, entries, key, section, line_no)
               for key in _FAMILY}
    value, axes_line = entries.get("orientations", ("cube26", line_no))
    axes = CUBE26 if value.strip().lower() == "cube26" else _parse_axes(value, axes_line)
    plastic = _parse_plastic(entries, section, line_no)
    try:  # every other field was checked on its own line: this checks each axis once
        return InclusionFamily(**numbers, orientations=axes, plastic=plastic)
    except ValueError as exc:
        raise ScenarioError(str(exc), axes_line) from None


def _parse_axes(value: str, line_no: int) -> tuple[tuple[float, ...], ...]:
    """Axes separated by ';', each of numbers separated by whitespace: one
    conversion per number and one finiteness check over all of them;
    ``_parse_float`` runs only to name the first bad number."""
    chunks = value.split(";")
    try:
        axes = tuple(tuple(map(float, chunk.split())) for chunk in chunks)
        if all(map(math.isfinite, chain.from_iterable(axes))):
            return axes
    except ValueError:
        pass
    return tuple(tuple(_parse_float(x, line_no) for x in chunk.split()) for chunk in chunks)


def _parse_segment(value: str, line_no: int) -> LoadSegment:
    """Compact segment spec: 'e33:-0.001 s11:0 s22:0 n:100'.

    ``e<ij>``/``s<ij>`` select strain/stress control with the given end target;
    unspecified components stay strain-controlled, holding the value they have
    when the segment starts (None targets, resolved by the driver).
    """
    targets: list[float | None] = [None] * 6
    modes = [STRAIN] * 6
    increments = None
    for token in value.split():
        if ":" not in token:
            raise ScenarioError(f"malformed segment token {token!r}", line_no)
        head, val = token.split(":", 1)
        head = head.lower()
        if head == "n":
            if increments is not None:
                raise ScenarioError("increment count 'n:' specified twice in segment",
                                    line_no)
            increments = _parse_int(val, line_no)
            continue
        if len(head) != 3 or head[0] not in ("e", "s"):
            raise ScenarioError(f"malformed segment token {token!r}", line_no)
        comp = head[1:]
        if comp not in COMPONENT_LABELS and comp[::-1] in COMPONENT_LABELS:
            comp = comp[::-1]
        if comp not in COMPONENT_LABELS:
            raise ScenarioError(f"unknown component {head[1:]!r} in segment", line_no)
        idx = COMPONENT_LABELS.index(comp)
        if targets[idx] is not None:
            raise ScenarioError(f"component {comp} specified twice in segment", line_no)
        targets[idx] = _parse_float(val, line_no)
        modes[idx] = STRAIN if head[0] == "e" else STRESS
    if increments is None:
        raise ScenarioError("segment needs an increment count 'n:<count>'", line_no)
    try:
        return LoadSegment(targets=tuple(targets), modes=tuple(modes),
                           increments=increments)
    except ValueError as exc:
        raise ScenarioError(str(exc), line_no) from None


def parse_scenario(text: str) -> Scenario:
    """Parse a scenario document; raises ScenarioError with the offending line."""
    sections = _sections(text)
    once = {s[0]: s for s in sections if s[0] != "inclusions"}
    if "matrix" not in once:
        raise ScenarioError("missing required section [matrix]")
    _, matrix_line, matrix, _ = once["matrix"]
    elastic = {attr: _required(_MATRIX_PROBE, matrix, key, "matrix", matrix_line)
               for key, attr in _ELASTIC.items()}
    matrix_plastic = _parse_plastic(matrix, "matrix", matrix_line)
    families = tuple(_parse_family(entries, name, line_no)
                     for name, line_no, entries, _ in sections if name == "inclusions")
    absent = (None, 0, {}, [])
    _, _, solver, _ = once.get("solver", absent)
    scheme, line_no = solver.get("scheme", ("mori_tanaka", 0))
    if scheme not in SCHEMES:
        raise ScenarioError(f"unknown scheme {scheme!r}", line_no)
    parsers = {float: _parse_float, int: _parse_int}
    overrides = {f.name: _checked(_SETTINGS_PROBE, solver, f.name,
                                  parsers[type(f.default)])
                 for f in fields(SolverSettings) if f.name in solver}
    output = once.get("output", absent)[2]
    try:  # each field is checked as it is read; this checks the fractions together
        return Scenario(
            **elastic, families=families, matrix_plastic=matrix_plastic, scheme=scheme,
            program=LoadProgram(segments=tuple(once.get("loading", absent)[3])),
            settings=SolverSettings(**overrides),
            output=OutputOptions(**{attr: output[key][0]
                                    for key, attr in _OUTPUT.items() if key in output}))
    except ValueError as exc:
        raise ScenarioError(str(exc)) from None


# ---------------------------------------------------------------------------
# serialization (round-trips through parse_scenario)

def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _plastic_lines(model: DruckerPrager | None) -> list[str]:
    if model is None:
        return []
    return ["plastic_model = drucker_prager"] + [
        f"{key} = {_fmt(getattr(model, key))}"
        for key in _PLASTIC if getattr(model, key) is not None]


def serialize_scenario(s: Scenario) -> str:
    lines = ["[matrix]"] + [f"{key} = {_fmt(getattr(s, attr))}"
                            for key, attr in _ELASTIC.items()]
    lines += _plastic_lines(s.matrix_plastic)
    for fam in s.families:
        orientations = "cube26" if fam.orientations == CUBE26 else \
            "; ".join(" ".join(_fmt(x) for x in axis) for axis in fam.orientations)
        lines += ["", "[inclusions]"]
        lines += [f"{key} = {_fmt(getattr(fam, key))}" for key in _FAMILY]
        lines += [f"orientations = {orientations}"] + _plastic_lines(fam.plastic)
    if s.program.segments:
        lines += ["", "[loading]"]
    for seg in s.program.segments:
        tokens = [f"{'e' if m == STRAIN else 's'}{label}:{_fmt(t)}"
                  for label, t, m in zip(COMPONENT_LABELS, seg.targets, seg.modes)
                  if t is not None] + [f"n:{seg.increments}"]
        lines.append(f"segment = {' '.join(tokens)}")
    lines += ["", "[solver]", f"scheme = {s.scheme}"]
    for f in fields(SolverSettings):
        value = getattr(s.settings, f.name)
        if value != f.default:
            fmt = _fmt(value) if isinstance(value, float) else str(value)
            lines.append(f"{f.name} = {fmt}")
    lines += ["", "[output]"]
    for key, attr in _OUTPUT.items():
        value = getattr(s.output, attr)
        if value is None and getattr(OutputOptions, attr) is None:
            continue  # an omitted key reads back as None
        if (not isinstance(value, str) or "#" in value or value != value.strip()
                or len(value.splitlines()) > 1):
            raise ValueError(f"output {attr} {value!r} would not read back: a path "
                             "is a string without '#', line breaks or edge whitespace")
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"
