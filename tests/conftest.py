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
                     if f.name not in ("step", "stats"))

# the one place the tests name solver internals to count work, beyond the
# increment records: each site and the objects that hold it under its last name
WORK_SITES = {
    "_newton_multipliers": (solver_mod,),
    "_StressControl.__init__": (solver_mod._StressControl,),
    "_ActiveSystem.__init__": (solver_mod._ActiveSystem,),
    "_ActiveSystem.jacobian": (solver_mod._ActiveSystem,),
    "_Linearization.solve": (solver_mod._Linearization,),
    "eigen_response": (solver_mod, mean_field),
    "hill_tensor": (mean_field,),
    "dilute_concentration": (mean_field,),
}


class WorkLog(list):
    """``(site, args)`` per call of a work site, in call order."""

    def calls(self, site):
        """The arguments of each call of ``site``."""
        return [args for name, args in self if name == site]

    def per_increment(self, records):
        """Per increment record, the (linearizations, chord steps, systems built,
        active-set revisions) logged inside the next as many logged solves as
        it counts.  A linearization solves its own step, so a re-solve logged
        right after it is no chord step.  A revision always builds a system; a
        solve's first build is its start's exactly when its set is the start set."""
        solves, last = [], None
        for name, args in self:
            if name == "_newton_multipliers":
                start = list(args[2])
                solves.append([0, 0, 0, 0])
            elif name == "_ActiveSystem.jacobian":
                solves[-1][0] += 1
            elif name == "_Linearization.solve":
                solves[-1][1] += last != "_ActiveSystem.jacobian"
            elif name == "_ActiveSystem.__init__":
                solves[-1][2] += 1
                solves[-1][3] += solves[-1][2] > 1 or list(args[2]) != start
            last = name
        solves = iter(solves)
        grouped = [[next(solves) for _ in range(r.solves)] for r in records]
        assert next(solves, None) is None, "a logged solve that no record counts"
        return [tuple(map(sum, zip((0, 0, 0, 0), *group))) for group in grouped]


def record_work(mp):
    """Wrap each of ``WORK_SITES`` once, with the MonkeyPatch ``mp``; returns
    the WorkLog the wrappers append to."""
    log = WorkLog()

    def recorded(site, func):
        def wrapper(*args):
            log.append((site, args))
            return func(*args)
        return wrapper

    for site, owners in WORK_SITES.items():
        name = site.rsplit(".", 1)[-1]
        wrapped = recorded(site, getattr(owners[0], name))
        for owner in owners:
            mp.setattr(owner, name, wrapped)
    return log


def inject_failures(mp, fails):
    """Make each increment attempt do its work, then raise StepFailureError
    where ``fails(state, targets)`` holds, with the MonkeyPatch ``mp``;
    returns the ``(state, targets, before)`` of each attempt as they happen,
    ``before`` being the state the attempt extrapolates from, or None."""
    real_attempt = solver_mod._solve_mixed_increment
    seen = []

    def attempt(ops, state, targets, control, settings, before=None):
        seen.append((state, targets, before))
        new = real_attempt(ops, state, targets, control, settings, before)
        if fails(state, targets):
            raise StepFailureError("failure injected by the test")
        return new

    mp.setattr(solver_mod, "_solve_mixed_increment", attempt)
    return seen


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
