"""Spans and counters around the public functions of axiscone's layers.

The tracer wraps functions from outside the package: it replaces every
binding of each target (the defining module, every `from .x import f` copy
in other axiscone modules, and the class attribute for methods) and restores
them on exit.  numpy.linalg entry points are counted but not spanned, so
their time stays in the self time of the axiscone function that called them.

A span's self time is its duration minus the durations of its direct
children.  Spans of the report being traced stay in memory; `finish_report`
folds them into per-report totals and keeps the raw spans of the last report
for writing out when the run ends.
"""

import functools
import json
import sys
import time
from collections import Counter, defaultdict

# (module, attribute path, span name).  Methods of both cone classes share a
# name, so their calls and self time are summed.
SPANNED = [
    ("axiscone.cones", "AxisCone.classify", "cones.classify"),
    ("axiscone.cones", "OrthantCone.classify", "cones.classify"),
    ("axiscone.cones", "AxisCone.project", "cones.project"),
    ("axiscone.cones", "OrthantCone.project", "cones.project"),
    ("axiscone.cones", "moreau_decompose", "cones.moreau_decompose"),
    ("axiscone.cones", "duality_witness", "cones.duality_witness"),
    ("axiscone.cones", "boundary_orthogonal_partner", "cones.boundary_orthogonal_partner"),
    ("axiscone.cones", "selfduality_probe", "cones.selfduality_probe"),
    ("axiscone.cones", "sample_in_cone", "cones.sample_in_cone"),
    ("axiscone.cones", "sample_outside", "cones.sample_outside"),
    ("axiscone.operators", "spectral_decompose", "operators.spectral_decompose"),
    ("axiscone.operators", "restricted_top", "operators.restricted_top"),
    ("axiscone.operators", "heat_semigroup", "operators.heat_semigroup"),
    ("axiscone.perturbation", "riesz_projector", "perturbation.riesz_projector"),
    ("axiscone.perturbation", "semigroup_threshold", "perturbation.semigroup_threshold"),
    ("axiscone.perturbation", "drifted_axis", "perturbation.drifted_axis"),
    ("axiscone.perturbation", "improving_radius", "perturbation.improving_radius"),
    ("axiscone.perturbation", "certified_improving_under_drift",
     "perturbation.certified_improving_under_drift"),
    ("axiscone.perturbation", "end_to_end_semigroup_check",
     "perturbation.end_to_end_semigroup_check"),
    ("axiscone.positivity", "preserves_positivity", "positivity.preserves_positivity"),
    ("axiscone.positivity", "improves_positivity_axis", "positivity.improves_positivity_axis"),
    ("axiscone.positivity", "improves_positivity_general",
     "positivity.improves_positivity_general"),
    ("axiscone.positivity", "perron_frobenius_check", "positivity.perron_frobenius_check"),
    ("axiscone.positivity", "ergodic_probe", "positivity.ergodic_probe"),
    ("axiscone.schrodinger", "build_magnetic", "schrodinger.build_magnetic"),
    ("axiscone.schrodinger", "build_h0", "schrodinger.build_h0"),
    ("axiscone.schrodinger", "restrict_to_real", "schrodinger.restrict_to_real"),
    ("axiscone.schrodinger", "RealStructure.commutation_residual",
     "schrodinger.RealStructure.commutation_residual"),
    ("axiscone.schrodinger", "orthant_failure_demo", "schrodinger.orthant_failure_demo"),
    ("axiscone.harness", "ExperimentConfig.load", "harness.ExperimentConfig.load"),
    ("axiscone.harness", "generate_instance", "harness.generate_instance"),
    ("axiscone.harness", "Report.render", "harness.Report.render"),
    ("axiscone.seeding", "rng_for", "seeding.rng_for"),
]

COUNTED = [
    ("axiscone.operators", "as_vector", "operators.as_vector"),
    ("numpy.linalg", "eigh", "numpy.linalg.eigh"),
    ("numpy.linalg", "eigvalsh", "numpy.linalg.eigvalsh"),
    ("numpy.linalg", "solve", "numpy.linalg.solve"),
]


def _ergodic_powers(result):
    return {"positivity.ergodic_probe.powers": result.n}


def _drift_route(verdict):
    if verdict.detail.startswith("drift certificate"):
        return {"perturbation.route.certificate": 1}
    if verdict.detail.startswith("fallback search"):
        return {"perturbation.route.fallback": 1}
    return {"perturbation.route.other": 1}


def _solve_columns(args):
    b = args[1] if len(args) > 1 else None
    return {"numpy.linalg.solve.rhs_cols": 1 if getattr(b, "ndim", 1) < 2 else b.shape[-1]}


# Extra counts read from a call's result (spans) or arguments (counted calls).
RESULT_COUNTS = {
    "positivity.ergodic_probe": _ergodic_powers,
    "perturbation.certified_improving_under_drift": _drift_route,
}
ARG_COUNTS = {"numpy.linalg.solve": _solve_columns}


class Tracer:
    """Collects spans and counts while installed; one report at a time."""

    def __init__(self):
        self.spans = []        # (name, start, end, parent index or -1)
        self.calls = Counter()
        self.counts = Counter()
        self.self_s = defaultdict(float)
        self._stack = []       # [span index, child time] of open spans
        self._restore = []     # (owner, attribute, original value)
        self.last_spans = []
        self.missing = []      # targets not found at the last install

    def _span_wrapper(self, fn, name):
        spans, stack = self.spans, self._stack
        calls, self_s, counts = self.calls, self.self_s, self.counts
        extra = RESULT_COUNTS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            frame = [index, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += duration
                spans[index] = (name, start, end, parent[0] if parent else -1)
                calls[name] += 1
                self_s[name] += duration - frame[1]
            if extra is not None:
                counts.update(extra(result))
            return result

        return wrapper

    def _count_wrapper(self, fn, name):
        calls, counts = self.calls, self.counts
        extra = ARG_COUNTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if extra is not None:
                counts.update(extra(args))
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Replace every binding of every target with its wrapper.

        A target the program no longer defines is listed in `missing` and
        its metrics read 0.
        """
        self.missing = []
        for table, make in ((SPANNED, self._span_wrapper), (COUNTED, self._count_wrapper)):
            for module_name, path, name in table:
                owner = sys.modules.get(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part, None)
                raw = getattr(owner, "__dict__", {}).get(attr)
                if raw is None:
                    self.missing.append(f"{module_name}.{path}")
                    continue
                static = isinstance(raw, staticmethod)
                fn = raw.__func__ if static else raw
                wrapped = make(fn, name)
                self._rebind(owner, attr, raw, staticmethod(wrapped) if static else wrapped)
                if not outer:
                    for module in _axiscone_modules():
                        for key, value in list(vars(module).items()):
                            if value is fn:
                                self._rebind(module, key, fn, wrapped)

    def _rebind(self, owner, attr, original, replacement):
        self._restore.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def finish_report(self):
        """Per-report totals; clears the counters for the next report."""
        totals = {"calls": dict(self.calls), "counts": dict(self.counts),
                  "self_s": dict(self.self_s)}
        self.last_spans = self.spans[:]
        self.spans.clear()
        self.calls.clear()
        self.counts.clear()
        self.self_s.clear()
        return totals

    def write_spans(self, path):
        """One JSON line per span of the last traced report: name, start, end, parent."""
        with open(path, "w") as fh:
            for span in self.last_spans:
                fh.write(json.dumps(span) + "\n")


def _axiscone_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "axiscone" or n.startswith("axiscone."))]
