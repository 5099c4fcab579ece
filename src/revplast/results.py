"""Result serialization: macro/per-phase CSV series and plot-data extracts.

Components are written as plain tensor components (the Mandel shear scaling is
removed), in full double precision (``%.17g``) and fixed column order.  Every
writer goes through one row formatter, ``_write_table``: a chunk of states is
stacked and unscaled in one array operation, turned into Python floats with
one ``tolist``, and each row is formatted by one ``%`` on a fixed template.
Chunks (one per state for the per-phase file) are streamed into a temporary
file beside the destination, which is then renamed over it.  So repeated runs
with the same input produce byte-identical files, a failed write leaves no
partial file, and the files' permissions follow the umask.
"""
from __future__ import annotations

import os

import numpy as np

from .solver import REVState
from .tensors import COMPONENT_LABELS, MANDEL_SCALE

_UNSCALE = np.tile(1.0 / MANDEL_SCALE, 3)
_UNSCALE.setflags(write=False)
_VALUES = ",".join(["%.17g"] * 18)


def _write_table(path: str, header: list[str], row_format: str, chunks) -> None:
    """Write ``header``, then ``row_format % row`` for each row of each chunk, atomically.

    An ``OSError`` names ``path`` (never the temporary file), which is removed.
    """
    directory, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(directory, f".tmp_{os.urandom(6).hex()}_{name}")
    try:
        fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
        try:
            with open(fd, "w", encoding="utf-8", newline="\n") as handle:
                handle.write(",".join(header) + "\n")
                for rows in chunks:
                    handle.write("".join([row_format % row for row in rows]))
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from exc


def _header(*prefixes: str) -> list[str]:
    return [f"{prefix}_{c}" for prefix in prefixes for c in COMPONENT_LABELS]


def write_macro_csv(states: list[REVState], path: str) -> None:
    """Macroscopic series: step, strain, stress, plastic strain, active count."""
    values = np.array([np.concatenate((st.macro_strain, st.macro_stress, st.macro_plastic))
                       for st in states]).reshape(len(states), 18) * _UNSCALE
    rows = [(st.step, *v, sum(st.active)) for st, v in zip(states, values.tolist())]
    _write_table(path, ["step"] + _header("eps", "sig", "epsp") + ["n_active"],
                 "%d," + _VALUES + ",%d\n", [rows])


def write_phase_csv(states: list[REVState], phase_names: list[str], path: str) -> None:
    """Per-phase series in long format: one row per (step, phase).

    Names are written unquoted, so one holding a comma, a double quote or a
    line break is refused with ValueError before any file is created.
    """
    if states and len(phase_names) != len(states[0].active):
        raise ValueError(f"{len(phase_names)} phase names for {len(states[0].active)} phases")
    for name in phase_names:
        if any(c in name for c in ',"\n\r'):
            raise ValueError(f"phase name {name!r} would break the CSV row: "
                             "it holds a comma, a double quote or a line break")

    def chunks():
        for st in states:
            values = np.hstack((st.strain, st.plastic_strain, st.stress)) * _UNSCALE
            yield [(st.step, name, *v, active) for name, v, active
                   in zip(phase_names, values.tolist(), st.active)]
    _write_table(path, ["step", "phase"] + _header("eps", "epsp", "sig") + ["active"],
                 "%d,%s," + _VALUES + ",%d\n", chunks())


def plot_paths(prefix: str) -> list[str]:
    """The files ``write_plot_data`` writes for ``prefix``."""
    return [f"{prefix}_axial.csv", f"{prefix}_lateral.csv"]


def write_plot_data(states: list[REVState], prefix: str) -> list[str]:
    """Two-column extracts: |axial stress| against axial and lateral strain."""
    paths = plot_paths(prefix)
    for path, i in zip(paths, (2, 0)):
        rows = [(st.macro_strain[i], abs(st.macro_stress[2])) for st in states]
        _write_table(path, [f"eps_{COMPONENT_LABELS[i]}", "abs_sig_33"], "%.17g,%.17g\n",
                     [rows])
    return paths
