import os

# one BLAS thread, set before numpy is imported: a second thread only spins
# on these small matrices, and the timed tests read this process's CPU time
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import dataclasses

import numpy as np
import pytest

import revplast.mean_field as mean_field
import revplast.solver as solver_mod
from revplast.errors import StepFailureError

# the arrays of a converged state
STATE_FIELDS = tuple(f.name for f in dataclasses.fields(solver_mod.REVState)
                     if f.name != "step")

# the one place the tests name solver internals to count work: each site and
# the objects that hold it under its last name
WORK_SITES = {
    "_advance_with_subdivision": (solver_mod,),
    "_solve_mixed_increment": (solver_mod,),
    "_newton_multipliers": (solver_mod,),
    "_StressControl.__init__": (solver_mod._StressControl,),
    "_ActiveSystem.__init__": (solver_mod._ActiveSystem,),
    "_ActiveSystem.jacobian": (solver_mod._ActiveSystem,),
    "eigen_response": (solver_mod, mean_field),
    "hill_tensor": (mean_field,),
}


class WorkLog(list):
    """Events in call order: ``(site, args)`` per call of a work site, and
    ``("failed", site)`` when that call raised StepFailureError."""

    def calls(self, site):
        """The arguments of each call of ``site`` (the failing sites for "failed")."""
        return [payload for name, payload in self if name == site]

    def per(self, unit, site):
        """Calls of ``site`` after each call of ``unit`` and before the next,
        e.g. the Newton solves per increment or per attempt."""
        counts = []
        for name, _ in self:
            if name == unit:
                counts.append(0)
            elif name == site and counts:
                counts[-1] += 1
        return counts


def record_work(mp):
    """Wrap each of ``WORK_SITES`` once, with the MonkeyPatch ``mp``; returns
    the WorkLog the wrappers append to."""
    log = WorkLog()

    def recorded(site, func):
        def wrapper(*args):
            log.append((site, args))
            try:
                return func(*args)
            except StepFailureError:
                log.append(("failed", site))
                raise
        return wrapper

    for site, owners in WORK_SITES.items():
        name = site.rsplit(".", 1)[-1]
        wrapped = recorded(site, getattr(owners[0], name))
        for owner in owners:
            mp.setattr(owner, name, wrapped)
    return log


def rodrigues(axis, angle):
    """Rotation matrix about ``axis`` by ``angle`` (Rodrigues formula)."""
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    k = np.array([[0.0, -axis[2], axis[1]],
                  [axis[2], 0.0, -axis[0]],
                  [-axis[1], axis[0], 0.0]])
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def random_rotation(rng):
    axis = rng.normal(size=3)
    while np.linalg.norm(axis) < 1e-6:
        axis = rng.normal(size=3)
    return rodrigues(axis, rng.uniform(0.0, 2.0 * np.pi))


def random_symmetric(rng, scale=1.0):
    m = rng.normal(size=(3, 3)) * scale
    return 0.5 * (m + m.T)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
