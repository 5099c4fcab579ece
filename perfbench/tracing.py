"""In-memory spans and counters around revplast's module-level functions.

The solver looks up its helpers as module globals at call time, so replacing
a module attribute with a timing wrapper traces every call without changing
the program.  A hook whose target no longer exists is reported as missing;
the metrics that depend on it are then flagged, not failed, because later
refactors are expected to rename internals.
"""
from __future__ import annotations

import functools
import importlib
import statistics
import time
from collections import Counter, defaultdict

# (module, attribute path, span name); the benchmark itself calls the
# public entry points through these module attributes too
HOOKS = (
    ("revplast.scenario", "parse_scenario", "scenario.parse"),
    ("revplast.scenario", "Scenario.phases", "scenario.phases"),
    ("revplast.mean_field", "assemble_operators", "mean_field.assemble"),
    ("revplast.mean_field", "hill_tensor", "eshelby.hill"),
    ("revplast.mean_field", "_eigen_columns", "mean_field.eigen_columns"),
    ("revplast.solver", "drive", "solver.drive"),
    ("revplast.solver", "_advance_with_subdivision", "solver.increment"),
    ("revplast.solver", "_solve_mixed_increment", "solver.mixed"),
    ("revplast.solver", "_advance_to", "solver.pass"),
    ("revplast.solver", "_trial_at", "solver.trial"),
    ("revplast.solver", "check_yield", "solver.check_yield"),
    ("revplast.solver", "return_map", "solver.return_map"),
    ("revplast.solver", "_newton_multipliers", "solver.newton"),
    ("revplast.solver", "_ActiveSystem.__init__", "solver.active_system"),
    ("revplast.solver", "_ActiveSystem.invariants", "solver.invariants"),
    ("revplast.solver", "_ActiveSystem.residuals", "solver.residuals"),
    ("revplast.solver", "_ActiveSystem.directions", "solver.directions"),
    ("revplast.solver", "_ActiveSystem.stress_update", "solver.stress_update"),
    ("revplast.solver", "_ActiveSystem.jacobian", "solver.jacobian"),
    ("revplast.solver", "_ActiveSystem.fd_jacobian", "solver.fd_jacobian"),
    ("revplast.solver", "validate_state", "solver.validate"),
    ("revplast.solver", "localize", "mean_field.localize"),
    ("revplast.solver", "upscale_stress", "mean_field.upscale_stress"),
    ("revplast.solver", "macro_plastic_strain", "mean_field.macro_plastic_strain"),
    ("revplast.solver", "yield_value", "plasticity.yield_value"),
    ("revplast.results", "write_macro_csv", "results.write_macro"),
    ("revplast.results", "write_phase_csv", "results.write_phase"),
    ("revplast.results", "write_plot_data", "results.write_plot"),
)


def _active_size(args, kwargs) -> int:
    """Size of the Newton system: the ``active`` argument of _newton_multipliers."""
    active = kwargs.get("active", args[2] if len(args) > 2 else None)
    return len(active) if hasattr(active, "__len__") else 0


class Tracer:
    """Records (name, start, end, parent) spans and per-name counters in memory."""

    def __init__(self):
        self.spans: list = []
        self.errors: Counter = Counter()  # calls that raised, per span name
        self.active_max = 0
        self._stack: list[int] = []

    def wrap(self, name, fn):
        clock = time.perf_counter
        spans, stack = self.spans, self._stack
        sized = name == "solver.newton"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if sized:
                self.active_max = max(self.active_max, _active_size(args, kwargs))
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except Exception:
                self.errors[name] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)

        return traced

    def install(self):
        """Wrap every hook target; returns (restore callable, missing span names)."""
        saved, missing = [], []
        for module_name, path, name in HOOKS:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            try:
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except AttributeError:
                missing.append(name)
                continue
            saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original))

        def restore():
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

        return restore, missing

    def summary(self):
        """Per span name: count, inclusive seconds, self seconds; plus increment durations."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        count, total, self_time = Counter(), defaultdict(float), defaultdict(float)
        increments = []
        for i, (name, start, end, _) in enumerate(self.spans):
            count[name] += 1
            total[name] += end - start
            self_time[name] += end - start - child[i]
            if name == "solver.increment":
                increments.append(end - start)
        return count, total, self_time, increments

    def write_csv(self, path) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("id,parent,name,start_s,end_s\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                handle.write(f"{i},{parent},{name},{start - t0:.9f},{end - t0:.9f}\n")


# per-layer metric -> span names it needs; value computed by layer_metrics
_NEEDS = {
    "scenario.parse_s": ("scenario.parse",),
    "eshelby.hill_s": ("eshelby.hill",),
    "eshelby.hill_calls": ("eshelby.hill",),
    "mean_field.assemble_s": ("mean_field.assemble",),
    "mean_field.eigen_columns_s": ("mean_field.eigen_columns",),
    "mean_field.localize_s": ("mean_field.localize",),
    "mean_field.localize_calls": ("mean_field.localize",),
    "mean_field.upscale_s": ("mean_field.upscale_stress", "mean_field.macro_plastic_strain"),
    "solver.trial_s": ("solver.trial",),
    "solver.check_yield_s": ("solver.check_yield",),
    "solver.check_yield_calls": ("solver.check_yield",),
    "plasticity.yield_value_calls": ("plasticity.yield_value",),
    "solver.validate_s": ("solver.validate",),
    "solver.mixed_passes": ("solver.pass",),
    "solver.mixed_passes_per_increment": ("solver.pass", "solver.increment"),
    "solver.mixed_self_s": ("solver.mixed",),
    "solver.return_map_s": ("solver.return_map",),
    "solver.return_map_calls": ("solver.return_map",),
    "solver.active_set_revisions": ("solver.newton", "solver.return_map"),
    "solver.newton_solves": ("solver.newton",),
    "solver.newton_iterations": ("solver.jacobian",),
    "solver.newton_iterations_per_solve": ("solver.jacobian", "solver.newton"),
    "solver.jacobian_s": ("solver.jacobian",),
    "solver.stress_update_s": ("solver.stress_update",),
    "solver.newton_self_s": ("solver.newton",),
    "solver.active_max": ("solver.newton",),
    "solver.increments": ("solver.increment",),
    "solver.subdivisions": ("solver.mixed",),
    "solver.increment_ms_p50": ("solver.increment",),
    "solver.increment_ms_p99": ("solver.increment",),
    "results.write_s": ("results.write_macro", "results.write_phase", "results.write_plot"),
}


def _percentile(values, q):
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(tracer: Tracer, missing) -> tuple[dict, list[str]]:
    """Per-layer values of one traced pass, and the metric names whose hooks are missing.

    A metric whose hook is missing reads 0.  ``solver.newton_self_s`` is
    _newton_multipliers' time outside its traced children (directions,
    residuals, stress update, Jacobian build): mostly the dense linear solve.
    ``solver.subdivisions`` counts the increment attempts that raised and
    were halved.
    """
    count, total, self_time, increments = tracer.summary()
    iterations = count["solver.jacobian"] + count["solver.fd_jacobian"]
    values = {
        "scenario.parse_s": total["scenario.parse"],
        "eshelby.hill_s": total["eshelby.hill"],
        "eshelby.hill_calls": count["eshelby.hill"],
        "mean_field.assemble_s": total["mean_field.assemble"],
        "mean_field.eigen_columns_s": total["mean_field.eigen_columns"],
        "mean_field.localize_s": total["mean_field.localize"],
        "mean_field.localize_calls": count["mean_field.localize"],
        "mean_field.upscale_s": (total["mean_field.upscale_stress"]
                                 + total["mean_field.macro_plastic_strain"]),
        "solver.trial_s": total["solver.trial"],
        "solver.check_yield_s": total["solver.check_yield"],
        "solver.check_yield_calls": count["solver.check_yield"],
        "plasticity.yield_value_calls": count["plasticity.yield_value"],
        "solver.validate_s": total["solver.validate"],
        "solver.mixed_passes": count["solver.pass"],
        "solver.mixed_passes_per_increment":
            count["solver.pass"] / max(1, count["solver.increment"]),
        "solver.mixed_self_s": self_time["solver.mixed"],
        "solver.return_map_s": total["solver.return_map"],
        "solver.return_map_calls": count["solver.return_map"],
        "solver.active_set_revisions": count["solver.newton"] - count["solver.return_map"],
        "solver.newton_solves": count["solver.newton"],
        "solver.newton_iterations": iterations,
        "solver.newton_iterations_per_solve": iterations / max(1, count["solver.newton"]),
        "solver.jacobian_s": total["solver.jacobian"] + total["solver.fd_jacobian"],
        "solver.stress_update_s": total["solver.stress_update"],
        "solver.newton_self_s": self_time["solver.newton"],
        "solver.active_max": tracer.active_max,
        "solver.increments": count["solver.increment"],
        "solver.subdivisions": tracer.errors["solver.mixed"],
        "solver.increment_ms_p50": 1e3 * _percentile(increments, 50),
        "solver.increment_ms_p99": 1e3 * _percentile(increments, 99),
        "results.write_s": (total["results.write_macro"] + total["results.write_phase"]
                            + total["results.write_plot"]),
    }
    absent = set(missing)
    flagged = sorted(m for m, needs in _NEEDS.items() if absent & set(needs))
    values.update(dict.fromkeys(flagged, 0))
    return values, flagged
