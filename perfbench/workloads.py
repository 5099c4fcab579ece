"""Seeded scenario-text generators for the benchmark workloads.

The program receives only the text returned by ``scenario_text``.  The two
wide workloads share one fixed set of 200 random spheroid axes; the seed
permutes the phase order and flips the sign of each axis.  A spheroid is
unchanged by reversing its axis and the macroscopic response does not depend
on phase order, so every seed asks the same physical question (the committed
reference applies to all of them) while the program sees different input
text, operator layouts and summation orders.

``default`` is the built-in scenario written out as text, with plot output
enabled as ``revplast run --plot-data`` would; its seed changes nothing, so
the traced run can be compared with fixed work counts.
"""
from __future__ import annotations

import numpy as np

WORKLOADS = ("default", "wide_plastic", "elastic_wide")

N_WIDE = 200
AXES_SEED = 20201124  # fixed: the reference series depend on this axis set

DEFAULT_TEXT = """\
[matrix]
young_modulus = 100
poisson_ratio = 0.25

[inclusions]
young_modulus = 1000
poisson_ratio = 0.25
aspect_ratio = 0.34999999999999998
volume_fraction = 0.14299999999999999
orientations = cube26
plastic_model = drucker_prager
friction_angle = 0
shear_strength = 0.12

[loading]
segment = s11:0 s22:0 e33:-0.001 e23:0 e13:0 e12:0 n:100
segment = s11:0 s22:0 e33:-0.00050000000000000001 e23:0 e13:0 e12:0 n:50

[solver]
scheme = mori_tanaka

[output]
macro = macro.csv
plot_data = plot
"""

_WIDE_HEAD = """\
[matrix]
young_modulus = 100
poisson_ratio = 0.25

[inclusions]
young_modulus = 1000
poisson_ratio = 0.25
aspect_ratio = 0.35
volume_fraction = 0.143
orientations = {axes}
plastic_model = drucker_prager
friction_angle = 0
shear_strength = 0.12

[loading]
"""

# every inclusion yields; fully strain-controlled, so the mixed loop is bypassed
_WIDE_PLASTIC_TAIL = """\
segment = e11:5e-4 e22:5e-4 e33:-1e-3 n:30
segment = e11:2.5e-4 e22:2.5e-4 e33:-5e-4 n:15

[output]
macro = macro.csv
"""

# stays below yield (the return mapping never runs) and writes per-phase results
_ELASTIC_WIDE_TAIL = """\
segment = s11:0 s22:0 e33:-3e-5 n:150

[output]
macro = macro.csv
per_phase = phases.csv
"""


def _wide_axes(seed: int) -> np.ndarray:
    base = np.random.default_rng(AXES_SEED).normal(size=(N_WIDE, 3))
    base /= np.linalg.norm(base, axis=1)[:, None]
    rng = np.random.default_rng(seed)
    signs = rng.choice((-1.0, 1.0), size=(N_WIDE, 1))
    return base[rng.permutation(N_WIDE)] * signs


def scenario_text(workload: str, seed: int) -> str:
    """Scenario document for ``workload``; the same seed gives the same text."""
    if workload == "default":
        return DEFAULT_TEXT
    tails = {"wide_plastic": _WIDE_PLASTIC_TAIL, "elastic_wide": _ELASTIC_WIDE_TAIL}
    if workload not in tails:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    axes = "; ".join(" ".join(format(float(x), ".17g") for x in axis)
                     for axis in _wide_axes(seed))
    return _WIDE_HEAD.format(axes=axes) + tails[workload]
