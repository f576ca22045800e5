"""Deterministic experiment runner: configs in, reproducible CSV reports out.

Reports are plain text: '#'-prefixed header lines (config echo, version,
tolerances, budget scalars), one CSV block, and '#'-prefixed summary lines.
Given the same config, the emitted rows are byte-identical across runs; the
timestamp header line is optional so whole files can be compared.
This module alone decides the format (columns, header keys, cells) of the
plain values the layers below return: numbers in .17g, a witness as its
entries joined by spaces, free text with its commas turned into semicolons.
"""

import copy
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
    pair_check,
    partner_check,
    witness_check,
)
from .errors import (
    ConfigInvalid,
    ContractViolation,
    HeatTimeUnresolved,
    RatioSaturated,
    RelativeBoundUncertified,
    SemigroupOverflow,
)
from .operators import SymmetricOperator, as_vector, top_eigen
from .perturbation import (
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
# budget scalars echoed in the header of perturb and schrodinger reports, in order
BUDGET_KEYS = ("mu", "delta", "epsilon", "s0", "alpha", "r", "c_threshold", "kappa0",
               "kappa_threshold")


def generate_instance(flavor, dim, seed):
    """Seeded symmetric test matrices in three flavors.

    generic: symmetrized Gaussian.  psd-simple: Gram matrix plus a rank-one
    shift of half its norm along the top eigenvector, so the top gap is at
    least a third of the norm; held by its spectrum (from_spectrum), the
    Gram matrix's checked (w, Q) with the top eigenvalue times 1.5, so it is
    decomposed once.  degenerate-top: orthogonal conjugation of a spectrum
    whose two largest eigenvalues are exactly equal, held by that spectrum
    and the QR factor Q, once ||Q^T Q - I||_F <= RECON_TOL (checked_eigh's
    orthonormality test; else ContractViolation).  The tie is exact, so any
    orthonormal basis of the top eigenspace is equally the instance's.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    rng = rng_for(seed, 0)
    if flavor == "generic":
        g = rng.standard_normal((dim, dim))
        return SymmetricOperator((g + g.T) / 2.0)
    if flavor == "psd-simple":
        b = rng.standard_normal((dim, dim))
        dec = SymmetricOperator(b.T @ b / dim).decomposition
        w = np.array(dec.eigenvalues)
        w[-1] *= 1.5
        return SymmetricOperator.from_spectrum(w, dec.eigenvectors)
    if flavor == "degenerate-top":
        if dim < 2:
            raise ValueError("degenerate-top needs dim >= 2")
        q = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
        eigs = np.sort(rng.uniform(0.2, 0.8, size=dim))
        eigs[-1] = 1.0
        eigs[-2] = 1.0
        orth = float(np.linalg.norm(q.T @ q - np.eye(dim)))
        if orth > tolerances.RECON_TOL:
            raise ContractViolation(f"QR factor orthonormality defect {orth:.3e}")
        return SymmetricOperator.from_spectrum(eigs, q)
    raise ValueError(f"unknown instance flavor {flavor!r}")


@dataclass
class ExperimentConfig:
    kind: str
    seed: int
    params: dict = field(default_factory=dict)
    output_path: str | None = None
    # the checked operators check_params built for the runner (perturb: T and S)
    _checked: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in PARAMETERS:
            raise ConfigInvalid("kind", f"must be one of {', '.join(PARAMETERS)}")
        check_seed(self.seed)
        if not isinstance(self.params, dict):
            raise ConfigInvalid("params", "must be a table")
        if not isinstance(self.output_path, (str, type(None))) or self.output_path == "":
            raise ConfigInvalid("output_path", "must be a nonempty string")
        self._checked = check_params(self.kind, self.params)

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
        return ExperimentConfig(**data)

    @staticmethod
    def load(path):
        with open(path, encoding="utf-8") as fh:
            return ExperimentConfig.from_json(fh.read())

    def canonical_json(self):
        return json.dumps(
            {"kind": self.kind, "seed": self.seed, "params": self.params},
            sort_keys=True, separators=(",", ":"),
        )


def check_seed(seed):
    """Reject a seed that is not an integer in [0, 2^64), naming the field `seed`."""
    if not _is_int(seed):
        raise ConfigInvalid("seed", "must be an integer")
    if not 0 <= seed < 2**64:
        raise ConfigInvalid("seed", "must fit in 64 unsigned bits")


def _is_int(value):
    """A JSON integer; bool is an int subclass but not an integer here."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value):
    """A finite JSON number: not a bool, not the Infinity or NaN that json reads,
    and not an integer beyond float range."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


_LIMIT, _SIZE = tolerances.SCALE_LIMIT, tolerances.SIZE_LIMIT


def _rule(*tests):
    """The check that passes a value on when it meets each (ok, message) test,
    ok(value, params), and otherwise raises the first failed test's message."""
    def check(value, key, params):
        for ok, message in tests:
            if not ok(value, params):
                raise ConfigInvalid(key, message)
        return value
    return check


def _distinct(allowed, message):
    """A nonempty list of distinct entries, each passing `allowed`."""
    return _rule((lambda v, p: isinstance(v, list) and bool(v) and all(map(allowed, v))
                  and len(set(v)) == len(v), message))


_INTEGER = (lambda v, p: _is_int(v) and v >= 1, "must be a positive integer")


def _at_most(limit):
    """The check of a positive integer no larger than limit."""
    return _rule(_INTEGER, (lambda v, p: v <= limit, f"must be at most {limit}"))


_COUNT = _at_most(_SIZE)
_FINITE_POSITIVE = (lambda v, p: _is_number(v) and v > 0, "must be a finite positive number")
_POSITIVE = _rule(_FINITE_POSITIVE, (lambda v, p: v <= _LIMIT, f"must be at most {_LIMIT:g}"))
_COEFFICIENT = _rule((lambda v, p: _is_number(v) and 0 <= v <= _LIMIT,
                      f"must be a number in [0, {_LIMIT:g}]"))
_BOUNDED = _rule((lambda v, p: all(abs(x) <= _LIMIT for x in v),
                  f"entries must lie in [-{_LIMIT:g}, {_LIMIT:g}]"))
_WITHIN_S0 = _rule((lambda v, p: all(0 < s <= p["s0"] for s in v), "entries must lie in (0, s0]"))


def _grid(value, key, params):
    """A list of finite numbers or {start, stop, num} as a nonempty list of floats
    within SCALE_LIMIT, num at most SIZE_LIMIT; an odd num > 1 from -x to x puts 0
    itself in the middle."""
    if isinstance(value, list) and all(_is_number(x) for x in value):
        grid = [float(x) for x in value]
    elif (isinstance(value, dict) and set(value) == {"start", "stop", "num"}
          and _is_number(value["start"]) and _is_number(value["stop"])
          and _is_int(value["num"]) and value["num"] >= 0):
        start, stop, num = value["start"], value["stop"], value["num"]
        if num > _SIZE:
            raise ConfigInvalid(key, f"num must be at most {_SIZE}")
        grid = np.linspace(start, stop, num).tolist()
        if start == -stop and num % 2 and num > 1:
            grid[num // 2] = 0.0   # linspace may round the midpoint off 0
    else:
        raise ConfigInvalid(key, "must be a list of finite numbers or {start, stop, num}")
    if not grid:
        raise ConfigInvalid(key, "must be nonempty")
    return _BOUNDED(grid, key, params)


def _profile(value, key, params):
    """A preset name, or the 2N+1 values of a grid function."""
    if isinstance(value, str):
        if value not in POTENTIAL_PRESETS:
            raise ConfigInvalid(key, f"unknown preset {value!r}")
        return value
    if not (isinstance(value, list) and all(_is_number(x) for x in value)):
        raise ConfigInvalid(key, "must be a preset name or a list of finite numbers")
    if len(value) != 2 * params["N"] + 1:
        raise ConfigInvalid(key, f"must hold 2N+1 = {2 * params['N'] + 1} grid values")
    return _BOUNDED(value, key, params)


OPTIONAL = object()   # a row default: the field may be left out, and then stays out

# One ordered table of (field, default, check) per kind.  A callable default is
# computed from params, which holds the fields of the rows before it; a check
# takes (value, field, params) and returns the value normalized or raises
# ConfigInvalid.  Rows run in order, so the first wrong field is the one named.
# perturb's t and s are checked first, by _matrices, and their rows keep them.
PARAMETERS = {
    "cone_axioms": (
        ("dims", [2, 3, 5, 8], _distinct(lambda d: _is_int(d) and 1 <= d <= _SIZE,
                                         "must be a nonempty list of distinct integers in "
                                         f"[1, {_SIZE}]")),
        ("samples", 1000, _at_most(tolerances.SAMPLES_LIMIT)),
        ("cones", ["axis", "orthant"], _distinct(lambda c: c in ("axis", "orthant"),
                                                 "entries must be distinct, each 'axis' or "
                                                 "'orthant'")),
        ("dims", OPTIONAL, _rule((lambda v, p: "axis" not in p["cones"] or 1 not in v,
                                  "an axis cone needs dim >= 2 for its boundary partner"))),
    ),
    "pf_verify": (
        ("dims", [3, 4, 6, 8], _distinct(lambda d: _is_int(d) and 2 <= d <= _SIZE,
                                         "must be a nonempty list of distinct integers in "
                                         f"[2, {_SIZE}]")),
        ("instances_per_flavor", 5, _at_most(tolerances.INSTANCES_LIMIT)),
        ("flavors", list(FLAVORS), _distinct(
            lambda f: f in FLAVORS, f"entries must be distinct, among {', '.join(FLAVORS)}")),
        ("n_pairs", 20, _COUNT),
    ),
    "perturb_sweep": (
        ("t", OPTIONAL, _rule()),
        ("s", OPTIONAL, _rule()),
        ("s0", math.log(2.0), _POSITIVE),
        ("kappa0", 0.5, _POSITIVE),
        ("kappa_grid", {"start": -0.45, "stop": 0.45, "num": 41}, _grid),
        ("s_samples", lambda p: [k * p["s0"] / 5.0 for k in (1.0, 2.0, 3.0, 4.0)] + [p["s0"]],
         lambda v, key, p: _WITHIN_S0(_grid(v, key, p), key, p)),
        ("kappas", OPTIONAL, _grid),
        ("a", 0.0, _COEFFICIENT),
        ("b", None, lambda v, key, p: v if v is None else _COEFFICIENT(v, key, p)),
    ),
    "schrodinger": (
        ("N", 8, _rule(_INTEGER, (lambda v, p: 2 * v + 1 <= _SIZE,
                                  f"2N+1 must be at most {_SIZE}"))),
        ("h", 0.5, _rule(_FINITE_POSITIVE, (lambda v, p: 1.0 / _LIMIT <= v <= _LIMIT,
                                            f"must lie in [{1.0 / _LIMIT:g}, {_LIMIT:g}]"))),
        ("potential", "harmonic", _profile),
        ("vector_potential", "gaussian", _profile),
        ("e_grid", {"start": -0.008, "stop": 0.008, "num": 17}, _grid),
        ("s0", 1.0, _POSITIVE),
        ("s_samples", OPTIONAL, lambda v, key, p: _WITHIN_S0(_grid(v, key, p), key, p)),
        ("demo_e", 0.5, _rule((lambda v, p: _is_number(v), "must be a finite number"),
                              (lambda v, p: abs(v) <= _LIMIT,
                               f"must lie in [-{_LIMIT:g}, {_LIMIT:g}]"))),
        ("demo_s", 0.5, _POSITIVE),
    ),
}


def check_params(kind, params):
    """Check a kind's params in place against its table: reject a field the
    table does not name, fill in a copy of each missing default, and replace
    each value by its check's result.  Returns perturb's checked (T, S)."""
    table = PARAMETERS[kind]
    unknown = set(params) - {key for key, _, _ in table}
    if unknown:
        raise ConfigInvalid(sorted(unknown)[0], "unknown parameter")
    checked = _matrices(params) if kind == "perturb_sweep" else None
    for key, default, check in table:
        if key not in params:
            if default is OPTIONAL:
                continue
            params[key] = default(params) if callable(default) else copy.deepcopy(default)
        params[key] = check(params[key], key, params)
    return checked


def _matrices(params):
    """perturb's checked (T, S): its t and s, or without them the swap instance,
    T = diag(0, 1) with S swapping the two axes."""
    if ("t" in params) != ("s" in params):
        raise ConfigInvalid("t", "matrices t and s must be given together")
    if "t" not in params:
        return (SymmetricOperator(np.diag([0.0, 1.0])),
                SymmetricOperator([[0.0, 1.0], [1.0, 0.0]]))
    checked = ()
    for key in ("t", "s"):
        m = params[key]
        not_finite = ConfigInvalid(key, "must be a matrix as list of rows of finite numbers")
        # one pass over the entry types (bool is not a number), then one over the values
        if not (isinstance(m, list) and m and all(isinstance(r, list) for r in m)
                and set(map(type, itertools.chain.from_iterable(m))) <= {int, float}):
            raise not_finite
        try:
            entries = np.array(list(itertools.chain.from_iterable(m)), dtype=float)
        except OverflowError:   # an integer beyond float range
            raise not_finite from None
        if not np.all(np.isfinite(entries)):
            raise not_finite
        try:
            if len({len(r) for r in m}) > 1:
                np.array(m, dtype=float)   # ragged rows: numpy's ValueError names the shape
            matrix = entries.reshape(len(m), len(m[0]))
            if np.abs(matrix).max(initial=0.0) > _LIMIT:
                raise ConfigInvalid(key, f"|entries| must be <= {_LIMIT:g}")
            checked += (SymmetricOperator(matrix),)  # square, and symmetric to TAU_SYM
        except ValueError as exc:
            raise ConfigInvalid(key, str(exc)) from exc
    if len(params["s"]) != len(params["t"]):
        raise ConfigInvalid("s", "must have the dimension of t")
    return checked


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


def _ok(flag):
    return "1" if flag else "0"


def _witness_cell(witness):
    """A witness vector as its .17g entries joined by spaces; empty when absent."""
    return "" if witness is None else " ".join(_g17(x) for x in witness)


def _budget_header(budget):
    return [("budget_regime", "semigroup")] + [
        ("budget_" + key, _g17(getattr(budget, key))) for key in BUDGET_KEYS]


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

            def sampled(check, stream):
                return cone_check(cone, check, rng_for(task_seed, stream), samples)

            pair_worst, pair_violations = sampled(pair_check, 0)
            witness_worst, witness_violations = sampled(witness_check, 1)
            # self-duality both ways, as defects (0 = perfect): in-cone pairs have
            # -cos(u, v) <= 0, and outside rows pair negatively with their witnesses
            results = [("selfduality", max(pair_worst, witness_worst, 0.0),
                        pair_violations + witness_violations),
                       ("moreau", *sampled(moreau_check, 1))]
            if cone_kind == "axis":
                results.append(("boundary_partner", *sampled(partner_check, 2)))
            for name, worst, violations in results:
                rows.append([str(dim), cone_kind, name, str(samples), _g17(worst),
                             str(violations), _ok(violations == 0)])

    worst = max(float(row[4]) for row in rows)
    return Report(kind=config.kind, seed=config.seed,
                  config_json=config.canonical_json(),
                  columns=["dim", "cone", "check", "samples", "worst", "violations", "ok"],
                  rows=rows,
                  summary_extra=[("summary_worst_defect", _g17(worst))])


def _witness_holds(predicate, cone, image):
    """A CertifiedFalse witness holds when its image leaves the cone (preservation)
    or misses the cone's interior (improvement)."""
    if predicate == "preserves_positivity":
        return cone.classify(image) is Region.OUTSIDE
    return cone.classify(image) is not Region.INTERIOR


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
                ok = ok and _witness_holds(verdict.predicate, cone, a.apply(verdict.witness))
            rows.append([flavor, str(dim), verdict.predicate, verdict.status.value,
                         _g17(verdict.margin) if not math.isnan(verdict.margin) else "",
                         _witness_cell(verdict.witness), str(instance_seed), _ok(ok)])

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
                         _ok(pf.agree)])

    margins = [float(row[4]) for row in rows if row[4]]
    summary = [("summary_min_margin", _g17(min(margins)))] if margins else []
    return Report(kind=config.kind, seed=config.seed,
                  config_json=config.canonical_json(),
                  columns=PF_COLUMNS,
                  rows=rows,
                  summary_extra=summary)


def _run_perturb(config):
    params = config.params
    t, s_matrix = config._checked
    s_spec = PerturbationFamily([s_matrix], a=params["a"], b=[params["b"]])
    kappas = params.get("kappas")
    # a swept coupling with |kappa| < kappa0 joins the grid, so that the budget
    # examines it, and delta covers it, wherever the budget admits it
    grid = params["kappa_grid"]
    grid = grid + [k for k in kappas or () if abs(k) < params["kappa0"] and k not in grid]
    budget = semigroup_threshold(t, s_spec, s0=params["s0"], kappa0=params["kappa0"],
                                 kappa_grid=grid)
    if kappas is None and not budget.admissible.any():
        raise ConfigInvalid("kappa_grid", f"no grid point is admissible for the budget "
                                          f"(kappa_threshold {budget.kappa_threshold:.6g})")
    for kappa in kappas or ():
        if not budget.is_admissible(kappa):
            raise ConfigInvalid("kappas", f"{kappa:g} is not admissible for the budget "
                                          f"(kappa_threshold {budget.kappa_threshold:.6g})")
    sweep = end_to_end_semigroup_check(budget, params["s_samples"], kappas=kappas)
    worst = min(row.verdict.margin for row in sweep)
    return Report(kind=config.kind, seed=config.seed,
                  config_json=config.canonical_json(),
                  columns=["kappa", "s", "c_kappa", "threshold", "drift_bound",
                           "drift_actual", "verdict", "alpha_op", "alpha_uniform", "ok"],
                  rows=[[_g17(row.kappa), _g17(row.s), _g17(row.c_kappa),
                         _g17(budget.c_threshold), _g17(row.drift_bound),
                         _g17(row.drift_actual), row.verdict.status.value,
                         _g17(row.alpha_op), _g17(budget.alpha), _ok(row.verdict.is_true)]
                        for row in sweep],
                  header_extra=_budget_header(budget),
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
                          a_values=profile("vector_potential"))
    report = magnetic_experiment(model, e_grid=params["e_grid"], s0=float(params["s0"]),
                                 s_samples=params.get("s_samples"))
    rows = []
    for s, verdict in zip(report.s_samples, report.base_verdicts):
        rows.append(["base", _g17(0.0), _g17(s), verdict.status.value,
                     _g17(verdict.margin), _ok(verdict.is_true)])
    for row in report.sweep:
        rows.append(["sweep", _g17(row.kappa), _g17(row.s),
                     row.verdict.status.value, _g17(row.verdict.margin),
                     _ok(row.verdict.is_true)])
    demo = _orthant_demo(report, params["demo_e"], params["demo_s"])
    rows.append(["orthant_demo", _g17(params["demo_e"]), _g17(params["demo_s"]),
                 demo.status, _g17(demo.max_imag), "1"])
    budget = report.budget
    extras = _budget_header(budget) + [("ground_energy", _g17(budget.mu)),
                                       ("admissible_coupling", _g17(budget.kappa_threshold))]
    margins = [v.margin for v in report.base_verdicts]
    margins += [row.verdict.margin for row in report.sweep]
    return Report(kind=config.kind, seed=config.seed,
                  config_json=config.canonical_json(),
                  columns=["stage", "e", "s", "status", "value", "ok"],
                  rows=rows,
                  header_extra=extras,
                  summary_extra=[("summary_min_verdict_margin", _g17(min(margins)))])


def _orthant_demo(report, e, s):
    """The orthant demo of `report` at (demo_e, demo_s); with e != 0 it must find its witness.

    A coupled flow that stays in the orthant to within DEMO_WITNESS_TOL shows
    nothing: that is a choice of demo_e and demo_s, not a failed theorem.  It
    is blamed on demo_s when exp(-s H) damps the bump below the tolerance even
    at coupling 0 or leaves the float range (a negative ground energy), and
    on demo_e otherwise.
    """
    tol = tolerances.DEMO_WITNESS_TOL
    try:
        demo = orthant_failure_demo(report, e, s=s)
        if e == 0.0 or demo.left_cone:
            return demo
        if orthant_failure_demo(report, 0.0, s=s).peak <= tol:
            raise ConfigInvalid("demo_s", f"exp(-demo_s H) damps the bump below {tol:g} "
                                          f"even at coupling 0 (demo_s = {s:g})")
    except SemigroupOverflow as exc:
        raise ConfigInvalid("demo_s", f"exp(-demo_s H) leaves the float range "
                                      f"(demo_s = {s:g}, demo_e = {e:g})") from exc
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
    except RelativeBoundUncertified as exc:
        raise ConfigInvalid("b", str(exc)) from exc
    except (HeatTimeUnresolved, SemigroupOverflow) as exc:
        raise ConfigInvalid("s_samples", str(exc)) from exc


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
    exact instance; the embedded witness must again pass _witness_holds, the
    rule the run applied to it.  Returns (kind, results).
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
        results.append(ReplayResult(row_index=index, predicate=predicate,
                                    reproduced=_witness_holds(predicate, cone,
                                                              a.apply(witness))))
    return config.kind, results


def selftest(seed):
    """Run acceptance criteria 1-9 and report one row per criterion.

    Timing is deliberately kept out of the rows so two runs with the same
    seed render byte-identical reports; the determinism criterion itself is
    checked by running selftest twice and comparing the rendered bytes.
    """
    from .acceptance import run_criteria

    check_seed(seed)
    results = run_criteria(seed)
    rows = [
        [str(res.number), res.name, "pass" if res.passed else "fail",
         res.detail.replace(",", ";"), _ok(res.passed)]
        for res in results
    ]
    return Report(kind="selftest", seed=seed,
                  config_json=json.dumps({"kind": "selftest", "seed": seed},
                                         sort_keys=True, separators=(",", ":")),
                  columns=["criterion", "name", "result", "detail", "ok"],
                  rows=rows)
