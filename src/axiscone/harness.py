"""Deterministic experiment runner: configs in, reproducible CSV reports out.

Reports are plain text: '#'-prefixed header lines (config echo, version,
tolerances, budget scalars), one CSV block, and '#'-prefixed summary lines.
Given the same config, the emitted rows are byte-identical across runs; the
timestamp header line is optional so whole files can be compared.
"""

import itertools
import json
import math
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from . import __version__, tolerances
from .cones import (
    AxisCone,
    OrthantCone,
    Region,
    cone_check,
    moreau_check,
    partner_check,
    selfduality_probe,
)
from .errors import ConfigInvalid, RatioSaturated
from .operators import SymmetricOperator, as_vector, top_eigen
from .perturbation import (
    SWEEP_CSV_COLUMNS,
    PerturbationFamily,
    end_to_end_semigroup_check,
    semigroup_threshold,
)
from .positivity import (
    VerdictStatus,
    improves_positivity_axis,
    perron_frobenius_check,
    preserves_positivity,
)
from .schrodinger import (
    GridSpec,
    MagneticModel,
    POTENTIAL_PRESETS,
    magnetic_experiment,
    orthant_failure_demo,
)
from .seeding import derive_seed, rng_for

KINDS = ("cone_axioms", "pf_verify", "perturb_sweep", "schrodinger")

# The tolerances in force, echoed in every report header.
TOLERANCES = {
    "tau_sym": tolerances.TAU_SYM,
    "tau_gap": tolerances.TAU_GAP,
    "tau_membership": tolerances.TAU_MEMBERSHIP,
    "tau_strict": tolerances.TAU_STRICT,
    "reconstruction": tolerances.RECON_TOL,
    "correspondence": tolerances.CORRESPONDENCE_TOL,
}

FLAVORS = ("generic", "psd-simple", "degenerate-top")
PF_COLUMNS = ["flavor", "dim", "predicate", "status", "margin", "witness", "seed", "ok"]


def generate_instance(flavor, dim, seed):
    """Seeded symmetric test matrices in three flavors.

    generic: symmetrized Gaussian.  psd-simple: Gram matrix plus a rank-one
    shift of half its norm along the top eigenvector, so the top gap is at
    least a third of the norm.  degenerate-top: orthogonal conjugation of a
    spectrum whose two largest eigenvalues are exactly equal.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    rng = rng_for(seed, 0)
    if flavor == "generic":
        g = rng.standard_normal((dim, dim))
        return SymmetricOperator((g + g.T) / 2.0)
    if flavor == "psd-simple":
        b = rng.standard_normal((dim, dim))
        gram = SymmetricOperator(b.T @ b / dim)
        lam, u0, _ = top_eigen(gram)
        return SymmetricOperator(gram.matrix + 0.5 * lam * np.outer(u0, u0))
    if flavor == "degenerate-top":
        if dim < 2:
            raise ValueError("degenerate-top needs dim >= 2")
        q = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
        eigs = np.sort(rng.uniform(0.2, 0.8, size=dim))
        eigs[-1] = 1.0
        eigs[-2] = 1.0
        return SymmetricOperator((q * eigs) @ q.T)
    raise ValueError(f"unknown instance flavor {flavor!r}")


@dataclass
class ExperimentConfig:
    kind: str
    seed: int
    params: dict = field(default_factory=dict)
    output_path: str | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigInvalid("kind", f"must be one of {', '.join(KINDS)}")
        if not _is_int(self.seed):
            raise ConfigInvalid("seed", "must be an integer")
        if not 0 <= self.seed < 2**64:
            raise ConfigInvalid("seed", "must fit in 64 unsigned bits")
        if not isinstance(self.params, dict):
            raise ConfigInvalid("params", "must be a table")
        _VALIDATORS[self.kind](self.params)

    @staticmethod
    def from_json(text):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigInvalid("<file>", f"not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigInvalid("<file>", "top level must be an object")
        unknown = set(data) - {"kind", "seed", "params", "output_path"}
        if unknown:
            raise ConfigInvalid(sorted(unknown)[0], "unknown config field")
        if "kind" not in data:
            raise ConfigInvalid("kind", "required")
        if "seed" not in data:
            raise ConfigInvalid("seed", "required")
        return ExperimentConfig(
            kind=data["kind"],
            seed=data["seed"],
            params=data.get("params", {}),
            output_path=data.get("output_path"),
        )

    @staticmethod
    def load(path):
        with open(path) as fh:
            return ExperimentConfig.from_json(fh.read())

    def canonical_json(self):
        return json.dumps(
            {"kind": self.kind, "seed": self.seed, "params": self.params},
            sort_keys=True, separators=(",", ":"),
        )


def _is_int(value):
    """A JSON integer; bool is an int subclass but not an integer here."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value):
    """A finite JSON number: not a bool, and not the Infinity or NaN that json reads."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _distinct_entries(value, allowed):
    return (isinstance(value, list) and bool(value) and all(allowed(x) for x in value)
            and len(set(value)) == len(value))


def _validate_cone_axioms(params):
    _reject_unknown(params, {"dims", "samples", "cones"})
    dims = params.setdefault("dims", [2, 3, 5, 8])
    if not _distinct_entries(dims, lambda d: _is_int(d) and d >= 1):
        raise ConfigInvalid("dims", "must be a nonempty list of distinct positive integers")
    samples = params.setdefault("samples", 1000)
    if not (_is_int(samples) and samples >= 1):
        raise ConfigInvalid("samples", "must be a positive integer")
    cones = params.setdefault("cones", ["axis", "orthant"])
    if not _distinct_entries(cones, lambda c: c in ("axis", "orthant")):
        raise ConfigInvalid("cones", "entries must be distinct, each 'axis' or 'orthant'")
    if "axis" in cones and 1 in dims:
        raise ConfigInvalid("dims", "an axis cone needs dim >= 2 for its boundary partner")


def _validate_pf_verify(params):
    _reject_unknown(params, {"dims", "instances_per_flavor", "flavors", "n_pairs"})
    dims = params.setdefault("dims", [3, 4, 6, 8])
    if not _distinct_entries(dims, lambda d: _is_int(d) and d >= 2):
        raise ConfigInvalid("dims", "must be a nonempty list of distinct integers >= 2")
    count = params.setdefault("instances_per_flavor", 5)
    if not (_is_int(count) and count >= 1):
        raise ConfigInvalid("instances_per_flavor", "must be a positive integer")
    flavors = params.setdefault("flavors", list(FLAVORS))
    if not _distinct_entries(flavors, lambda f: f in FLAVORS):
        raise ConfigInvalid("flavors", f"entries must be distinct, among {', '.join(FLAVORS)}")
    n_pairs = params.setdefault("n_pairs", 20)
    if not (_is_int(n_pairs) and n_pairs >= 1):
        raise ConfigInvalid("n_pairs", "must be a positive integer")


def _as_grid(value, key):
    if isinstance(value, list) and all(_is_number(x) for x in value):
        grid = [float(x) for x in value]
    elif (isinstance(value, dict) and set(value) == {"start", "stop", "num"}
          and _is_number(value["start"]) and _is_number(value["stop"])
          and _is_int(value["num"]) and value["num"] >= 0):
        grid = np.linspace(value["start"], value["stop"], value["num"]).tolist()
    else:
        raise ConfigInvalid(key, "must be a list of finite numbers or {start, stop, num}")
    if not grid:
        raise ConfigInvalid(key, "must be nonempty")
    return grid


def _validate_perturb(params):
    allowed = {"t", "s", "a", "b", "s0", "kappa0", "kappa_grid", "s_samples", "kappas"}
    _reject_unknown(params, allowed)
    if ("t" in params) != ("s" in params):
        raise ConfigInvalid("t", "matrices t and s must be given together")
    if "t" in params:
        for key in ("t", "s"):
            m = params[key]
            if not (isinstance(m, list) and m and all(
                    isinstance(r, list) and all(_is_number(x) for x in r) for r in m)):
                raise ConfigInvalid(key, "must be a matrix as list of rows of finite numbers")
            try:
                matrix = np.array(m, dtype=float)
                if np.abs(matrix).max(initial=0.0) > tolerances.SCALE_LIMIT:
                    raise ConfigInvalid(key, f"|entries| must be <= {tolerances.SCALE_LIMIT:g}")
                SymmetricOperator(matrix)  # square, and symmetric to TAU_SYM
            except ValueError as exc:
                raise ConfigInvalid(key, str(exc)) from exc
        if len(params["s"]) != len(params["t"]):
            raise ConfigInvalid("s", "must have the dimension of t")
    s0 = params.setdefault("s0", math.log(2.0))
    if not (_is_number(s0) and s0 > 0):
        raise ConfigInvalid("s0", "must be a finite positive number")
    kappa0 = params.setdefault("kappa0", 0.5)
    if not (_is_number(kappa0) and kappa0 > 0):
        raise ConfigInvalid("kappa0", "must be a finite positive number")
    params["kappa_grid"] = _as_grid(
        params.get("kappa_grid", {"start": -0.45, "stop": 0.45, "num": 41}),
        "kappa_grid",
    )
    default_samples = [s0 / 5.0, 2.0 * s0 / 5.0, 3.0 * s0 / 5.0, 4.0 * s0 / 5.0, s0]
    params["s_samples"] = _as_grid(params.get("s_samples", default_samples), "s_samples")
    if not all(0 < s <= s0 for s in params["s_samples"]):
        raise ConfigInvalid("s_samples", "entries must lie in (0, s0]")
    if "kappas" in params:
        params["kappas"] = _as_grid(params["kappas"], "kappas")
    params.setdefault("a", 0.0)
    params.setdefault("b", None)
    for key in ("a", "b"):
        value = params[key]
        if value is not None and not (_is_number(value)
                                      and 0 <= value <= tolerances.SCALE_LIMIT):
            raise ConfigInvalid(key, f"must be a number in [0, {tolerances.SCALE_LIMIT:g}]")


def _validate_schrodinger(params):
    allowed = {"N", "h", "potential", "vector_potential",
               "e_grid", "s0", "s_samples", "demo_e", "demo_s"}
    _reject_unknown(params, allowed)
    n = params.setdefault("N", 8)
    if not (_is_int(n) and n >= 1):
        raise ConfigInvalid("N", "must be a positive integer")
    h = params.setdefault("h", 0.5)
    if not (_is_number(h) and h > 0):
        raise ConfigInvalid("h", "must be a finite positive number")
    limit = tolerances.SCALE_LIMIT
    if not 1.0 / limit <= h <= limit:
        raise ConfigInvalid("h", f"must lie in [{1.0 / limit:g}, {limit:g}]")
    for key, default in (("potential", "harmonic"), ("vector_potential", "gaussian")):
        profile = params.setdefault(key, default)
        if isinstance(profile, str):
            if profile not in POTENTIAL_PRESETS:
                raise ConfigInvalid(key, f"unknown preset {profile!r}")
        elif not (isinstance(profile, list) and all(_is_number(x) for x in profile)):
            raise ConfigInvalid(key, "must be a preset name or a list of finite numbers")
        elif len(profile) != 2 * n + 1:
            raise ConfigInvalid(key, f"must hold 2N+1 = {2 * n + 1} grid values")
    params["e_grid"] = _as_grid(
        params.get("e_grid", {"start": -0.008, "stop": 0.008, "num": 17}), "e_grid"
    )
    s0 = params.setdefault("s0", 1.0)
    if not (_is_number(s0) and s0 > 0):
        raise ConfigInvalid("s0", "must be a finite positive number")
    if "s_samples" in params:
        params["s_samples"] = _as_grid(params["s_samples"], "s_samples")
        if not all(0 < s <= s0 for s in params["s_samples"]):
            raise ConfigInvalid("s_samples", "entries must lie in (0, s0]")
    demo_e = params.setdefault("demo_e", 0.5)
    if not _is_number(demo_e):
        raise ConfigInvalid("demo_e", "must be a finite number")
    if abs(demo_e) > limit:
        raise ConfigInvalid("demo_e", f"must lie in [-{limit:g}, {limit:g}]")
    demo_s = params.setdefault("demo_s", 0.5)
    if not (_is_number(demo_s) and demo_s > 0):
        raise ConfigInvalid("demo_s", "must be a finite positive number")
    if demo_s > limit:
        raise ConfigInvalid("demo_s", f"must be at most {limit:g}")


def _reject_unknown(params, allowed):
    unknown = set(params) - allowed
    if unknown:
        raise ConfigInvalid(sorted(unknown)[0], "unknown parameter")


_VALIDATORS = {
    "cone_axioms": _validate_cone_axioms,
    "pf_verify": _validate_pf_verify,
    "perturb_sweep": _validate_perturb,
    "schrodinger": _validate_schrodinger,
}


@dataclass
class Report:
    kind: str
    seed: int
    config_json: str
    columns: list
    rows: list
    header_extra: list = field(default_factory=list)
    summary_extra: list = field(default_factory=list)

    @property
    def n_failed(self):
        ok_index = self.columns.index("ok")
        return sum(1 for row in self.rows if row[ok_index] == "0")

    @property
    def passed(self):
        return self.n_failed == 0

    def render(self, timestamp=True):
        lines = ["# axiscone-report", f"# version: {__version__}"]
        if timestamp:
            lines.append(f"# timestamp: {datetime.now(timezone.utc).isoformat()}")
        lines.append(f"# kind: {self.kind}")
        lines.append(f"# seed: {self.seed}")
        lines.append(f"# config: {self.config_json}")
        for key, value in sorted(TOLERANCES.items()):
            lines.append(f"# tol_{key}: {format(value, '.17g')}")
        for key, value in self.header_extra:
            lines.append(f"# {key}: {value}")
        lines.append(",".join(self.columns))
        for row in self.rows:
            lines.append(",".join(row))
        lines.append(f"# summary_checks: {len(self.rows)}")
        lines.append(f"# summary_passed: {len(self.rows) - self.n_failed}")
        lines.append(f"# summary_failed: {self.n_failed}")
        for key, value in self.summary_extra:
            lines.append(f"# {key}: {value}")
        return "\n".join(lines) + "\n"


def _g17(x):
    return format(float(x), ".17g")


def _run_cone_axioms(config):
    params = config.params
    cone_kinds = sorted(params["cones"])
    samples = params["samples"]

    rows = []
    for dim in sorted(params["dims"]):
        for kind_index, cone_kind in enumerate(cone_kinds):
            task_seed = derive_seed(config.seed, dim, kind_index)
            if cone_kind == "axis":
                rng = rng_for(task_seed, 0)
                axis = rng.standard_normal(dim)
                axis /= np.linalg.norm(axis)
                cone = AxisCone(axis)
            else:
                cone = OrthantCone(dim)
            probe = selfduality_probe(cone, samples, seed=task_seed)
            # defect semantics (0 = perfect): pair inners must stay >= 0,
            # witness inners must stay < 0
            results = [("selfduality",
                        max(-probe.worst_pair_inner, probe.worst_witness_inner, 0.0),
                        probe.pair_violations + probe.witness_violations)]
            checks = [("moreau", moreau_check, 1)]
            if cone_kind == "axis":
                checks.append(("boundary_partner", partner_check, 2))
            for name, check, stream in checks:
                worst, violations = cone_check(cone, check, rng_for(task_seed, stream), samples)
                results.append((name, worst, violations))
            for name, worst, violations in results:
                rows.append([str(dim), cone_kind, name, str(samples), _g17(worst),
                             str(violations), "1" if violations == 0 else "0"])

    worst = max(float(row[4]) for row in rows)
    return Report(kind=config.kind, seed=config.seed,
                  config_json=config.canonical_json(),
                  columns=["dim", "cone", "check", "samples", "worst", "violations", "ok"],
                  rows=rows,
                  summary_extra=[("summary_worst_defect", _g17(worst))])


def _run_pf_verify(config):
    params = config.params
    rows = []
    for dim, flavor, index in itertools.product(sorted(params["dims"]),
                                                sorted(params["flavors"]),
                                                range(params["instances_per_flavor"])):
        instance_seed = derive_seed(config.seed, dim, FLAVORS.index(flavor), index)
        a = generate_instance(flavor, dim, instance_seed)
        _, u0, _ = top_eigen(a)
        cone = AxisCone(u0)

        def add(verdict, expected):
            ok = verdict.status in expected
            if verdict.status is VerdictStatus.CERTIFIED_FALSE:
                image = a.apply(verdict.witness)
                reproduced = cone.classify(image) is not Region.INTERIOR
                ok = ok and reproduced
            rows.append([flavor, str(dim), verdict.predicate, verdict.status.value,
                         _g17(verdict.margin) if not math.isnan(verdict.margin) else "",
                         verdict.csv_row()[3], str(instance_seed), "1" if ok else "0"])

        if flavor == "generic":
            add(preserves_positivity(a, cone, seed=instance_seed),
                {VerdictStatus.CERTIFIED_TRUE, VerdictStatus.SAMPLED_TRUE,
                 VerdictStatus.CERTIFIED_FALSE})
        else:
            expected = ({VerdictStatus.CERTIFIED_TRUE} if flavor == "psd-simple"
                        else {VerdictStatus.CERTIFIED_FALSE})
            add(improves_positivity_axis(a, u0), expected)
            pf = perron_frobenius_check(a, cone, seed=instance_seed,
                                        n_pairs=params["n_pairs"])
            rows.append([flavor, str(dim), "perron_frobenius",
                         "agree" if pf.agree else "disagree",
                         _g17(pf.top_eigenvalue), "", str(instance_seed),
                         "1" if pf.agree else "0"])

    margins = [float(row[4]) for row in rows if row[4]]
    summary = [("summary_min_margin", _g17(min(margins)))] if margins else []
    return Report(kind=config.kind, seed=config.seed,
                  config_json=config.canonical_json(),
                  columns=PF_COLUMNS,
                  rows=rows,
                  summary_extra=summary)


def _run_perturb(config):
    params = config.params
    # without t and s: the swap instance, T = diag(0, 1) with S swapping the two axes
    t = SymmetricOperator(params.get("t", np.diag([0.0, 1.0])))
    s_matrix = SymmetricOperator(params.get("s", [[0.0, 1.0], [1.0, 0.0]]))
    if params["b"] is not None:
        # the default b = ||S|| holds by construction; a claimed one holds when
        # S^2 <= a^2 T^2 + b^2 I, for then ||S x||^2 <= (a ||T x|| + b ||x||)^2
        a_t = params["a"] * t.matrix
        slack = np.linalg.eigvalsh(a_t @ a_t + params["b"] ** 2 * np.eye(t.dim)
                                   - s_matrix.matrix @ s_matrix.matrix)
        if slack[0] < -tolerances.PSD_TOL * max(1.0, float(np.abs(slack).max())):
            raise ConfigInvalid("b", f"||S x|| <= a ||T x|| + b ||x|| is not certified: "
                                     f"a^2 T^2 + b^2 I - S^2 has eigenvalue {slack[0]:.6g}")
    s_spec = PerturbationFamily([s_matrix], a=params["a"], b=params["b"])
    budget = semigroup_threshold(t, s_spec, s0=params["s0"], kappa0=params["kappa0"],
                                 kappa_grid=params["kappa_grid"])
    kappas = params.get("kappas")
    for kappa in kappas or ():
        if not budget.is_admissible(kappa):
            raise ConfigInvalid("kappas", f"{kappa:g} is not admissible for the budget "
                                          f"(kappa_threshold {budget.kappa_threshold:.6g})")
    sweep = end_to_end_semigroup_check(t, s_spec, budget, params["s_samples"],
                                       seed=config.seed, kappas=kappas)
    rows = []
    for row in sweep.rows:
        rows.append(row.csv_row() + ["1" if row.verdict.is_true else "0"])
    worst = min(row.verdict.margin for row in sweep.rows)
    return Report(kind=config.kind, seed=config.seed,
                  config_json=config.canonical_json(),
                  columns=SWEEP_CSV_COLUMNS + ["ok"],
                  rows=rows,
                  header_extra=[("budget_" + k, v) for k, v in budget.header_items()],
                  summary_extra=[("summary_min_verdict_margin", _g17(worst))])


def _run_schrodinger(config):
    params = config.params
    grid = GridSpec(n_half=params["N"], spacing=params["h"])

    def profile(key):
        value = params[key]
        if isinstance(value, str):
            fn = POTENTIAL_PRESETS[value]
            return np.array([fn(abs(x)) for x in grid.points])
        return np.asarray(value, dtype=float)

    model = MagneticModel(grid=grid, v_values=profile("potential"),
                          a_values=profile("vector_potential"), coupling=0.0)
    s0 = float(params["s0"])
    s_samples = params.get("s_samples")
    report = magnetic_experiment(model, e_grid=params["e_grid"], s0=s0,
                                 s_samples=s_samples, seed=config.seed)
    rows = []
    samples = s_samples or [s0 / 4.0, s0 / 2.0, s0]
    for s, verdict in zip(samples, report.base_verdicts):
        rows.append(["base", _g17(0.0), _g17(s), verdict.status.value,
                     _g17(verdict.margin), "1" if verdict.is_true else "0"])
    for row in report.sweep.rows:
        rows.append(["sweep", _g17(row.kappa), _g17(row.s),
                     row.verdict.status.value, _g17(row.verdict.margin),
                     "1" if row.verdict.is_true else "0"])
    demo = _orthant_demo(model, params["demo_e"], params["demo_s"])
    rows.append(["orthant_demo", _g17(params["demo_e"]), _g17(params["demo_s"]),
                 demo.status, _g17(demo.max_imag), "1"])
    budget = report.budget
    extras = [("budget_" + k, v) for k, v in budget.header_items()]
    extras.append(("ground_energy", _g17(report.ground_energy)))
    extras.append(("admissible_coupling", _g17(report.admissible_coupling)))
    margins = [v.margin for v in report.base_verdicts]
    margins += [row.verdict.margin for row in report.sweep.rows]
    return Report(kind=config.kind, seed=config.seed,
                  config_json=config.canonical_json(),
                  columns=["stage", "e", "s", "status", "value", "ok"],
                  rows=rows,
                  header_extra=extras,
                  summary_extra=[("summary_min_verdict_margin", _g17(min(margins)))])


def _orthant_demo(model, e, s):
    """The orthant demo at (demo_e, demo_s); with e != 0 it must find its witness.

    A coupled flow that stays in the orthant to within DEMO_WITNESS_TOL shows
    nothing: that is a choice of demo_e and demo_s, not a failed theorem.  It
    is blamed on demo_s when exp(-s H) damps the bump below the tolerance even
    at coupling 0, and on demo_e otherwise.
    """
    demo = orthant_failure_demo(model.with_coupling(e), s=s)
    if e == 0.0 or demo.left_cone:
        return demo
    tol = tolerances.DEMO_WITNESS_TOL
    if orthant_failure_demo(model.with_coupling(0.0), s=s).peak <= tol:
        raise ConfigInvalid("demo_s", f"exp(-demo_s H) damps the bump below {tol:g} "
                                      f"even at coupling 0 (demo_s = {s:g})")
    raise ConfigInvalid("demo_e", f"the flow at demo_e = {e:g}, demo_s = {s:g} stays in "
                                  f"the orthant to within {tol:g} (largest imaginary "
                                  f"part {demo.max_imag:.3g}, largest entry "
                                  f"{demo.peak:.3g}): no witness")


_RUNNERS = {
    "cone_axioms": _run_cone_axioms,
    "pf_verify": _run_pf_verify,
    "perturb_sweep": _run_perturb,
    "schrodinger": _run_schrodinger,
}


def run(config):
    """Dispatch a validated config to its experiment pipeline."""
    try:
        return _RUNNERS[config.kind](config)
    except RatioSaturated as exc:
        raise ConfigInvalid("s0", str(exc)) from exc


@dataclass(frozen=True)
class ReplayResult:
    row_index: int
    predicate: str
    reproduced: bool


def parse_report(text):
    """Header dictionary, column names, and raw rows of a report file."""
    header = {}
    columns = None
    rows = []
    for line in text.splitlines():
        if line.startswith("#"):
            body = line[1:].strip()
            if ": " in body:
                key, value = body.split(": ", 1)
                header[key] = value
            continue
        if not line.strip():
            continue
        if columns is None:
            columns = line.split(",")
        else:
            rows.append(line.split(","))
    if columns is None:
        raise ConfigInvalid("<report>", "has no CSV block")
    return header, columns, rows


def replay(text):
    """Re-derive every CertifiedFalse row of a report and re-check its witness.

    Rows of pf_verify reports carry (flavor, dim, seed), which regenerate the
    exact instance; the embedded witness must again map to a non-interior
    (improvement) or outside (preservation) image.  Returns (kind, results).
    """
    header, columns, rows = parse_report(text)
    if "config" not in header:
        raise ConfigInvalid("<report>", "header lacks the config echo")
    config = ExperimentConfig.from_json(header["config"])
    results = []
    if config.kind != "pf_verify":
        return config.kind, results
    if columns != PF_COLUMNS:
        raise ConfigInvalid("<report>", f"CSV columns are not {','.join(PF_COLUMNS)}")
    for index, row in enumerate(rows):
        if len(row) != len(columns):
            raise ConfigInvalid("<report>", f"row {index} has {len(row)} cells, "
                                            f"not {len(columns)}")
        flavor, dim, predicate, status, _, witness, instance_seed, _ = row
        if status != VerdictStatus.CERTIFIED_FALSE.value:
            continue
        try:
            dim = int(dim)
            instance_seed = int(instance_seed)
            witness = as_vector([float(x) for x in witness.split()])
        except ValueError as exc:
            raise ConfigInvalid("<report>", f"row {index}: {exc}") from exc
        if flavor not in config.params["flavors"] or dim not in config.params["dims"]:
            raise ConfigInvalid("<report>", f"row {index}: flavor {flavor!r} and dim {dim} "
                                            "are not in the config echo")
        if witness.size != dim:
            raise ConfigInvalid("<report>", f"row {index}: witness has {witness.size} "
                                            f"entries, not {dim}")
        a = generate_instance(flavor, dim, instance_seed)
        _, u0, _ = top_eigen(a)
        cone = AxisCone(u0)
        image = a.apply(witness)
        if predicate == "preserves_positivity":
            reproduced = cone.classify(image) is Region.OUTSIDE
        else:
            reproduced = cone.classify(image) is not Region.INTERIOR
        results.append(ReplayResult(row_index=index, predicate=predicate,
                                    reproduced=bool(reproduced)))
    return config.kind, results


def selftest(seed):
    """Run acceptance criteria 1-9 and report one row per criterion.

    Timing is deliberately kept out of the rows so two runs with the same
    seed render byte-identical reports; the determinism criterion itself is
    checked by running selftest twice and comparing the rendered bytes.
    """
    from .acceptance import run_criteria

    results = run_criteria(seed)
    rows = [
        [str(res.number), res.name, "pass" if res.passed else "fail", res.detail,
         "1" if res.passed else "0"]
        for res in results
    ]
    return Report(kind="selftest", seed=seed,
                  config_json=json.dumps({"kind": "selftest", "seed": seed},
                                         sort_keys=True, separators=(",", ":")),
                  columns=["criterion", "name", "result", "detail", "ok"],
                  rows=rows)
