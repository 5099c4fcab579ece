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
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ScenarioError
from .mean_field import PhaseSpec, Spheroid, validate_phases
from .orientations import ORIENTATION_SETS
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
    """One family of identical spheroids distributed over a set of orientations."""

    young_modulus: float
    poisson_ratio: float
    aspect_ratio: float
    volume_fraction: float
    orientations: str | tuple[tuple[float, float, float], ...] = "cube26"
    plastic: DruckerPrager | None = None

    def axes(self) -> list:
        if isinstance(self.orientations, str):
            return ORIENTATION_SETS[self.orientations]()
        return [np.asarray(a, dtype=float) for a in self.orientations]


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

    def phases(self) -> tuple[PhaseSpec, ...]:
        """Expand families over their orientations into the flat phase list."""
        specs = []
        f_incl = 0.0
        for kf, fam in enumerate(self.families, start=1):
            axes = fam.axes()
            f_each = fam.volume_fraction / len(axes)
            f_incl += fam.volume_fraction
            for ka, axis in enumerate(axes):
                specs.append(PhaseSpec(
                    name=f"incl{kf}_{ka:02d}", volume_fraction=f_each,
                    young_modulus=fam.young_modulus, poisson_ratio=fam.poisson_ratio,
                    spheroid=Spheroid(fam.aspect_ratio, tuple(float(x) for x in axis)),
                    plastic=fam.plastic))
        if f_incl >= 1.0:
            raise ValueError(f"inclusion volume fractions sum to {f_incl!r}; "
                             "no volume left for the matrix")
        matrix = PhaseSpec(name="matrix", volume_fraction=1.0 - f_incl,
                           young_modulus=self.matrix_young,
                           poisson_ratio=self.matrix_poisson,
                           plastic=self.matrix_plastic)
        return validate_phases([matrix] + specs)


def default_scenario() -> Scenario:
    """Uniaxial compression of an elastic matrix with 26 oblate elasto-plastic spheroids.

    Axial strain ramps to -0.001 under zero lateral stresses over 100
    increments, then unloads to half the peak strain over 50.
    """
    family = InclusionFamily(young_modulus=1000.0, poisson_ratio=0.25,
                             aspect_ratio=0.35, volume_fraction=0.143,
                             orientations="cube26",
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
# parsing

_MATRIX_KEYS = {"young_modulus", "poisson_ratio", "plastic_model",
                "friction_angle", "shear_strength", "dilation_angle"}
_INCL_KEYS = {"young_modulus", "poisson_ratio", "aspect_ratio", "volume_fraction",
              "orientations", "plastic_model", "friction_angle", "shear_strength",
              "dilation_angle"}
_LOADING_KEYS = {"segment"}
_SOLVER_KEYS = {"scheme"} | {f.name for f in fields(SolverSettings)}
_OUTPUT_KEYS = {"macro", "per_phase", "plot_data"}
_SECTION_KEYS = {"matrix": _MATRIX_KEYS, "inclusions": _INCL_KEYS,
                 "loading": _LOADING_KEYS, "solver": _SOLVER_KEYS,
                 "output": _OUTPUT_KEYS}


def _tokenize(text: str):
    """Yield (line_no, section, key, value) entries, validating structure."""
    section = None
    seen: dict[tuple[int, str], int] = {}
    section_ord = -1
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ScenarioError("unterminated section header", line_no)
            section = line[1:-1].strip().lower()
            if section not in _SECTION_KEYS:
                raise ScenarioError(f"unknown section [{section}]", line_no)
            section_ord += 1
            yield line_no, section, None, None
            continue
        if section is None:
            raise ScenarioError("key/value outside any section", line_no)
        if "=" not in line:
            raise ScenarioError("expected 'key = value'", line_no)
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.lower()
        if key not in _SECTION_KEYS[section]:
            raise ScenarioError(f"unknown key {key!r} in section [{section}]", line_no)
        if key != "segment":
            if (section_ord, key) in seen:
                raise ScenarioError(f"duplicate key {key!r} (first at line "
                                    f"{seen[(section_ord, key)]})", line_no)
            seen[(section_ord, key)] = line_no
        yield line_no, section, key, value


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


def _parse_plastic(entries: dict, section: str, line_no: int) -> DruckerPrager | None:
    model = entries.pop("plastic_model", (None, line_no))[0]
    phi = entries.pop("friction_angle", None)
    sig0 = entries.pop("shear_strength", None)
    psi = entries.pop("dilation_angle", None)
    if model is None or model.lower() in ("none", "elastic"):
        for extra in (phi, sig0, psi):
            if extra is not None:
                raise ScenarioError(
                    f"plastic parameters given without plastic_model in [{section}]",
                    extra[1])
        return None
    if model.lower() != "drucker_prager":
        raise ScenarioError(f"unknown plastic_model {model!r}", line_no)
    if sig0 is None:
        raise ScenarioError(f"plastic_model requires shear_strength in [{section}]",
                            line_no)
    try:
        return DruckerPrager(
            friction_angle=_parse_float(phi[0], phi[1]) if phi else 0.0,
            shear_strength=_parse_float(sig0[0], sig0[1]),
            dilation_angle=_parse_float(psi[0], psi[1]) if psi else None)
    except ValueError as exc:
        raise ScenarioError(str(exc), line_no) from None


def _parse_orientations(value: str, line_no: int):
    name = value.strip().lower()
    if name in ORIENTATION_SETS:
        return name
    axes = []
    for chunk in value.split(";"):
        parts = chunk.split()
        if len(parts) != 3:
            raise ScenarioError(f"orientation {chunk.strip()!r} is not three numbers",
                                line_no)
        axes.append(tuple(_parse_float(p, line_no) for p in parts))
    if not axes:
        raise ScenarioError("empty orientation list", line_no)
    return tuple(axes)


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
    matrix: dict = {}
    families_raw: list[tuple[dict, int]] = []
    segments: list[LoadSegment] = []
    solver_kv: dict = {}
    output_kv: dict = {}
    current_family: dict | None = None
    matrix_line = 0
    seen_sections: set[str] = set()
    for line_no, section, key, value in _tokenize(text):
        if key is None:
            if section != "inclusions" and section in seen_sections:
                raise ScenarioError(f"section [{section}] may appear only once",
                                    line_no)
            seen_sections.add(section)
            if section == "inclusions":
                current_family = {}
                families_raw.append((current_family, line_no))
            elif section == "matrix":
                matrix_line = line_no
            continue
        if section == "matrix":
            matrix[key] = (value, line_no)
        elif section == "inclusions":
            current_family[key] = (value, line_no)
        elif section == "loading":
            segments.append(_parse_segment(value, line_no))
        elif section == "solver":
            solver_kv[key] = (value, line_no)
        elif section == "output":
            output_kv[key] = (value, line_no)

    if not matrix and matrix_line == 0:
        raise ScenarioError("missing required section [matrix]")
    for req in ("young_modulus", "poisson_ratio"):
        if req not in matrix:
            raise ScenarioError(f"[matrix] is missing {req!r}", matrix_line)
    matrix_young = _parse_float(*matrix.pop("young_modulus"))
    matrix_poisson = _parse_float(*matrix.pop("poisson_ratio"))
    matrix_plastic = _parse_plastic(matrix, "matrix", matrix_line)

    families = []
    for fam_kv, fam_line in families_raw:
        for req in ("young_modulus", "poisson_ratio", "aspect_ratio", "volume_fraction"):
            if req not in fam_kv:
                raise ScenarioError(f"[inclusions] is missing {req!r}", fam_line)
        orient = fam_kv.pop("orientations", None)
        fam = InclusionFamily(
            young_modulus=_parse_float(*fam_kv.pop("young_modulus")),
            poisson_ratio=_parse_float(*fam_kv.pop("poisson_ratio")),
            aspect_ratio=_parse_float(*fam_kv.pop("aspect_ratio")),
            volume_fraction=_parse_float(*fam_kv.pop("volume_fraction")),
            orientations=_parse_orientations(*orient) if orient else "cube26",
            plastic=_parse_plastic(fam_kv, "inclusions", fam_line))
        families.append(fam)

    scheme = "mori_tanaka"
    if "scheme" in solver_kv:
        scheme, line_no = solver_kv.pop("scheme")
        if scheme not in ("mori_tanaka", "dilute"):
            raise ScenarioError(f"unknown scheme {scheme!r}", line_no)
    parsers = {float: _parse_float, int: _parse_int}
    overrides = {}
    for f in fields(SolverSettings):
        if f.name in solver_kv:
            value, line_no = solver_kv[f.name]
            overrides[f.name] = parsers[type(f.default)](value, line_no)
            try:  # each setting's range is checked on its own, so the error has its line
                SolverSettings(**{f.name: overrides[f.name]})
            except ValueError as exc:
                raise ScenarioError(str(exc), line_no) from None
    settings = SolverSettings(**overrides)

    output = OutputOptions(
        macro_path=output_kv.pop("macro", ("macro.csv", 0))[0],
        phase_path=output_kv.pop("per_phase", (None, 0))[0],
        plot_prefix=output_kv.pop("plot_data", (None, 0))[0])

    scenario = Scenario(matrix_young=matrix_young, matrix_poisson=matrix_poisson,
                        families=tuple(families), matrix_plastic=matrix_plastic,
                        scheme=scheme, program=LoadProgram(segments=tuple(segments)),
                        settings=settings, output=output)
    try:
        scenario.phases()
    except ValueError as exc:
        raise ScenarioError(str(exc)) from None
    return scenario


# ---------------------------------------------------------------------------
# serialization (round-trips through parse_scenario)

def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _plastic_lines(model: DruckerPrager | None) -> list[str]:
    if model is None:
        return []
    lines = ["plastic_model = drucker_prager",
             f"friction_angle = {_fmt(model.friction_angle)}",
             f"shear_strength = {_fmt(model.shear_strength)}"]
    if model.dilation_angle is not None:
        lines.append(f"dilation_angle = {_fmt(model.dilation_angle)}")
    return lines


def serialize_scenario(s: Scenario) -> str:
    lines = ["[matrix]",
             f"young_modulus = {_fmt(s.matrix_young)}",
             f"poisson_ratio = {_fmt(s.matrix_poisson)}"]
    lines += _plastic_lines(s.matrix_plastic)
    for fam in s.families:
        lines += ["", "[inclusions]",
                  f"young_modulus = {_fmt(fam.young_modulus)}",
                  f"poisson_ratio = {_fmt(fam.poisson_ratio)}",
                  f"aspect_ratio = {_fmt(fam.aspect_ratio)}",
                  f"volume_fraction = {_fmt(fam.volume_fraction)}"]
        if isinstance(fam.orientations, str):
            lines.append(f"orientations = {fam.orientations}")
        else:
            axes = "; ".join(" ".join(_fmt(x) for x in axis)
                             for axis in fam.orientations)
            lines.append(f"orientations = {axes}")
        lines += _plastic_lines(fam.plastic)
    if s.program.segments:
        lines += ["", "[loading]"]
        for seg in s.program.segments:
            tokens = []
            for i, (t, m) in enumerate(zip(seg.targets, seg.modes)):
                if t is None:
                    continue
                prefix = "e" if m == STRAIN else "s"
                tokens.append(f"{prefix}{COMPONENT_LABELS[i]}:{_fmt(t)}")
            tokens.append(f"n:{seg.increments}")
            lines.append(f"segment = {' '.join(tokens)}")
    lines += ["", "[solver]", f"scheme = {s.scheme}"]
    for f in fields(SolverSettings):
        value = getattr(s.settings, f.name)
        if value != f.default:
            fmt = _fmt(value) if isinstance(value, float) else str(value)
            lines.append(f"{f.name} = {fmt}")
    lines += ["", "[output]", f"macro = {s.output.macro_path}"]
    if s.output.phase_path:
        lines.append(f"per_phase = {s.output.phase_path}")
    if s.output.plot_prefix:
        lines.append(f"plot_data = {s.output.plot_prefix}")
    return "\n".join(lines) + "\n"
