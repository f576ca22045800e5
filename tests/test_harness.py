import hashlib
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from axiscone import cli, harness, perturbation
from axiscone.cli import main
from axiscone.cones import AxisCone, Region
from axiscone.errors import ConfigInvalid, ContractViolation
from axiscone.harness import (
    ExperimentConfig,
    Report,
    generate_instance,
    parse_report,
    replay,
    run,
    selftest,
)
from axiscone.operators import SymmetricOperator, checked_eigh, top_eigen
from axiscone.perturbation import PerturbationFamily, semigroup_threshold
from axiscone.positivity import Verdict, VerdictStatus, improves_positivity_axis
from axiscone.tolerances import INSTANCES_LIMIT, RECON_TOL, SAMPLES_LIMIT, SIZE_LIMIT
from reference_loops import eager_degenerate_top, eager_from_spectrum


def axis_of(row):
    """Cone axis of the instance a pf_verify row (flavor, dim, ..., seed, ok) names."""
    return top_eigen(generate_instance(row[0], int(row[1]), int(row[6])))[1]


class TestConfig:
    def test_defaults_filled(self):
        config = ExperimentConfig(kind="cone_axioms", seed=1, params={})
        assert config.params["dims"] == [2, 3, 5, 8]
        assert config.params["samples"] == 1000

    def test_unknown_kind(self):
        with pytest.raises(ConfigInvalid, match="kind"):
            ExperimentConfig(kind="fourier", seed=0, params={})

    def test_missing_seed(self):
        with pytest.raises(ConfigInvalid, match="seed"):
            ExperimentConfig.from_json('{"kind": "pf_verify"}')

    def test_seed_range(self):
        with pytest.raises(ConfigInvalid, match="seed"):
            ExperimentConfig(kind="pf_verify", seed=-1, params={})
        with pytest.raises(ConfigInvalid, match="seed"):
            ExperimentConfig(kind="pf_verify", seed=2**64, params={})

    def test_unknown_param(self):
        with pytest.raises(ConfigInvalid, match="volume"):
            ExperimentConfig(kind="cone_axioms", seed=0, params={"volume": 11})

    def test_bad_json(self):
        with pytest.raises(ConfigInvalid):
            ExperimentConfig.from_json("{not json")

    def test_grid_shorthand(self):
        config = ExperimentConfig(
            kind="perturb_sweep", seed=0,
            params={"kappa_grid": {"start": -0.1, "stop": 0.1, "num": 5}},
        )
        assert config.params["kappa_grid"] == pytest.approx([-0.1, -0.05, 0.0, 0.05, 0.1])

    def test_symmetric_grid_holds_zero(self):
        # linspace puts -5.55e-17 in the middle of the default kappa grid
        config = ExperimentConfig(kind="perturb_sweep", seed=0, params={})
        grid = config.params["kappa_grid"]
        expanded = np.linspace(-0.45, 0.45, 41)
        assert expanded[20] != 0.0 and grid[20] == 0.0
        assert grid[:20] + grid[21:] == expanded[:20].tolist() + expanded[21:].tolist()
        for spec in ({"start": -0.45, "stop": 0.45, "num": 1},
                     {"start": -0.45, "stop": 0.45, "num": 40},
                     {"start": -0.3, "stop": 0.45, "num": 41}):
            config = ExperimentConfig(kind="perturb_sweep", seed=0, params={"kappa_grid": spec})
            assert config.params["kappa_grid"] == np.linspace(**spec).tolist()

    def test_axis_cone_of_dim_one_rejected(self):
        # a 1-dim axis has no boundary partner to sample
        with pytest.raises(ConfigInvalid, match="dims"):
            ExperimentConfig(kind="cone_axioms", seed=0,
                             params={"dims": [1], "cones": ["axis"]})
        ExperimentConfig(kind="cone_axioms", seed=0,
                         params={"dims": [1], "cones": ["orthant"]})

    @pytest.mark.parametrize("kind, params, field", [
        ("schrodinger", {"N": 100_000_000}, "N"),
        ("schrodinger", {"N": 2048}, "N"),
        ("cone_axioms", {"dims": [2, 4097]}, "dims"),
        ("pf_verify", {"dims": [10**9]}, "dims"),
        ("pf_verify", {"n_pairs": 4097}, "n_pairs"),
        ("perturb_sweep", {"kappa_grid": {"start": 0, "stop": 1, "num": 1_000_000_000}},
         "kappa_grid"),
        ("schrodinger", {"e_grid": {"start": 0, "stop": 1, "num": 4097}}, "e_grid"),
        ("schrodinger", {"e_grid": [0.5], "s_samples": {"start": 0.1, "stop": 1, "num": 4097}},
         "s_samples"),
    ], ids=["N_huge", "N_past_the_limit", "cone_dim", "pf_dim", "n_pairs", "kappa_grid_num",
            "e_grid_num", "s_samples_num"])
    def test_problem_size_is_bounded(self, monkeypatch, kind, params, field):
        # rejected before anything of that size is allocated: no grid is expanded
        monkeypatch.setattr(np, "linspace", None)
        with pytest.raises(ConfigInvalid, match=f"^config field '{field}': .*{SIZE_LIMIT}"):
            harness.check_params(kind, params)

    @pytest.mark.parametrize("kind, params", [
        ("schrodinger", {"N": (SIZE_LIMIT - 1) // 2}),
        ("cone_axioms", {"dims": [SIZE_LIMIT]}),
        ("pf_verify", {"dims": [SIZE_LIMIT], "n_pairs": SIZE_LIMIT}),
        ("perturb_sweep", {"kappa_grid": {"start": -0.1, "stop": 0.1, "num": SIZE_LIMIT}}),
    ], ids=["N", "cone_dim", "pf_dim_and_n_pairs", "kappa_grid_num"])
    def test_problem_size_limit_is_admitted(self, kind, params):
        harness.check_params(kind, params)

    @pytest.mark.parametrize("kind, field, limit, bench_value", [
        ("cone_axioms", "samples", SAMPLES_LIMIT, 1000),
        ("pf_verify", "instances_per_flavor", INSTANCES_LIMIT, 20),
    ])
    def test_repeat_counts_are_bounded(self, kind, field, limit, bench_value):
        for value in (limit + 1, 10**9):
            with pytest.raises(ConfigInvalid, match=f"^config field '{field}': .*{limit}"):
                harness.check_params(kind, {field: value})
        defaults = {key: default for key, default, _ in harness.PARAMETERS[kind]}
        for value in (limit, defaults[field], bench_value):
            params = {field: value}
            harness.check_params(kind, params)
            assert params[field] == value

    def test_canonical_json_sorted(self):
        config = ExperimentConfig(kind="cone_axioms", seed=3, params={})
        parsed = json.loads(config.canonical_json())
        assert parsed["kind"] == "cone_axioms"
        assert parsed["seed"] == 3


class TestGenerateInstance:
    def test_deterministic(self):
        a = generate_instance("psd-simple", 5, 99)
        b = generate_instance("psd-simple", 5, 99)
        assert a.matrix.tobytes() == b.matrix.tobytes()

    def test_degenerate_flavor(self):
        a = generate_instance("degenerate-top", 3, 4)
        _, _, simple = top_eigen(a)
        assert not simple

    def test_psd_simple_flavor(self):
        a = generate_instance("psd-simple", 4, 4)
        _, u0, _ = top_eigen(a)
        assert improves_positivity_axis(a, u0).status is VerdictStatus.CERTIFIED_TRUE

    @pytest.mark.parametrize("dim", [1, 2, 3, 8, 32, 64])
    def test_psd_simple_holds_its_checked_spectrum(self, dim):
        # the held (w', Q) is the spectrum of the matrix it forms, and its top gap
        # is at least a third of the norm
        for seed in range(5):
            a = generate_instance("psd-simple", dim, seed)
            assert a._matrix is None
            w, q = a.decomposition.eigenvalues, a.decomposition.eigenvectors
            formed, _ = checked_eigh(a.matrix)
            assert np.max(np.abs(w - formed)) <= RECON_TOL * max(1.0, a.norm)
            assert np.linalg.norm(q.T @ q - np.eye(dim)) <= RECON_TOL
            assert np.all(np.diff(w) >= 0.0)
            if dim > 1:
                assert w[-1] - w[-2] >= a.norm / 3.0

    @pytest.mark.parametrize("dim", [2, 3, 8, 32, 64])
    def test_degenerate_top_holds_its_spectrum(self, dim):
        # the held (w, Q) is the spectrum of the matrix it forms, its top two
        # eigenvalues tied exactly, and that matrix is the eager construction's
        for seed in range(5):
            a = generate_instance("degenerate-top", dim, seed)
            assert a._matrix is None
            w, q = a.decomposition.eigenvalues, a.decomposition.eigenvectors
            assert np.all(np.diff(w) >= 0.0) and w[-1] == w[-2] == 1.0
            formed, _ = checked_eigh(a.matrix)
            assert np.max(np.abs(w - formed)) <= RECON_TOL * max(1.0, a.norm)
            assert np.linalg.norm(q.T @ q - np.eye(dim)) <= RECON_TOL
            assert a.matrix.tobytes() == eager_degenerate_top(dim, seed).matrix.tobytes()

    def test_degenerate_top_rejects_a_qr_factor_off_orthonormal(self, monkeypatch):
        qr = np.linalg.qr
        monkeypatch.setattr(np.linalg, "qr", lambda m: ((1.0 + 1e-8) * qr(m)[0], qr(m)[1]))
        with pytest.raises(ContractViolation, match="orthonormality"):
            generate_instance("degenerate-top", 8, 0)

    @pytest.mark.parametrize("seed", [0, 303])
    def test_degenerate_top_statuses_match_eager_instances(self, monkeypatch, seed):
        def statuses():
            report = run(ExperimentConfig(kind="pf_verify", seed=seed,
                                          params={"dims": [2, 3, 8, 32, 64]}))
            return [row[:4] for row in report.rows]

        held = statuses()
        generate = harness.generate_instance
        monkeypatch.setattr(harness, "generate_instance", lambda flavor, dim, index: (
            eager_degenerate_top(dim, index) if flavor == "degenerate-top"
            else generate(flavor, dim, index)))
        assert statuses() == held

    def test_unknown_flavor(self):
        with pytest.raises(ValueError):
            generate_instance("toeplitz", 3, 0)


def alpha_probe():
    """Params of the alpha probe: its drifted rows reach the S-lemma fallback."""
    return {"t": [[0, 0, 0], [0, 0.1, 0], [0, 0, 0.15]],
            "s": [[0, 1, 1], [1, 0, 0.5], [1, 0.5, 0]],
            "kappa_grid": {"start": -0.01, "stop": 0.01, "num": 9},
            "s_samples": [0.01, 0.1, math.log(2.0)]}


class TestRunners:
    def test_cone_axioms_clean(self):
        config = ExperimentConfig(kind="cone_axioms", seed=7,
                                  params={"dims": [5], "samples": 1000})
        report = run(config)
        assert report.passed
        violations = [int(row[5]) for row in report.rows]
        assert sum(violations) == 0

    def test_cone_axioms_default_report_bytes(self):
        text = run(ExperimentConfig("cone_axioms", 0, {})).render(timestamp=False)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "8b3aaf9557821914fae596a502ce727108aea588658c6369d4b4e8c32fd2a71a")

    def test_cone_axioms_at_the_samples_limit_passes(self):
        # a dim-2 axis cone draws complement rows nearly on its axis: each must
        # be projected until its boundary rays pair at 0 to within PAIR_TOL
        report = run(ExperimentConfig("cone_axioms", 0, {"dims": [2], "cones": ["axis"],
                                                         "samples": SAMPLES_LIMIT}))
        assert [row[5:] for row in report.rows] == [["0", "1"]] * 3

    def test_cone_axioms_default_rows_and_worst_within_thresholds(self):
        report = run(ExperimentConfig("cone_axioms", 0, {}))
        expected = [[str(dim), cone, check, "1000"]
                    for dim in (2, 3, 5, 8)
                    for cone, checks in (("axis", ("selfduality", "moreau", "boundary_partner")),
                                         ("orthant", ("selfduality", "moreau")))
                    for check in checks]
        assert [row[:4] for row in report.rows] == expected
        assert all(row[5:] == ["0", "1"] for row in report.rows)
        threshold = {"selfduality": 1e-12, "moreau": 1e-9, "boundary_partner": 1e-10}
        for row in report.rows:
            assert 0.0 <= float(row[4]) <= threshold[row[2]]
        assert dict(report.summary_extra)["summary_worst_defect"] == max(
            (row[4] for row in report.rows), key=float)

    def test_perturb_reproduces_threshold(self):
        report = run(ExperimentConfig(kind="perturb_sweep", seed=0, params={}))
        assert report.passed
        header = dict(report.header_extra)
        assert float(header["budget_kappa_threshold"]) == pytest.approx(
            0.0478864, abs=1e-7
        )

    def test_alpha_probe_rows_are_all_certified(self):
        # drifted rows whose drift certificate cannot fire go to the exact S-lemma
        # test; with the earlier search they read SampledTrue
        report = run(ExperimentConfig(kind="perturb_sweep", seed=0, params=alpha_probe()))
        assert report.passed
        assert len(report.rows) == 9
        assert [row[6] for row in report.rows] == ["CertifiedTrue"] * 9

    def test_perturb_without_admissible_kappa_is_config_error(self):
        with pytest.raises(ConfigInvalid, match="no grid point is admissible.*kappa_threshold"):
            run(ExperimentConfig(kind="perturb_sweep", seed=0,
                                 params={"kappa_grid": [0.3, 0.4]}))

    @pytest.mark.parametrize("params", [
        {},
        {"t": [[0, 0, 0], [0, 0.1, 0], [0, 0, 0.15]], "s": [[0, 1, 1], [1, 0, 0.5], [1, 0.5, 0]],
         "kappa_grid": {"start": -0.01, "stop": 0.01, "num": 9}},
    ], ids=["swap", "given"])
    def test_perturb_runs_on_the_operators_the_validator_checked(self, params, monkeypatch):
        config = ExperimentConfig(kind="perturb_sweep", seed=0, params=params)
        expected = run(config).render(timestamp=False)

        def no_conversion(*args, **kwargs):
            raise AssertionError("t or s converted again")

        monkeypatch.setattr(harness, "SymmetricOperator", no_conversion)
        assert run(config).render(timestamp=False) == expected

    def test_determinism_rows(self):
        config = ExperimentConfig(kind="pf_verify", seed=21,
                                  params={"dims": [3], "instances_per_flavor": 2})
        first = run(config).render(timestamp=False)
        second = run(
            ExperimentConfig(kind="pf_verify", seed=21,
                             params={"dims": [3], "instances_per_flavor": 2})
        ).render(timestamp=False)
        assert first == second

    def test_schrodinger_small(self):
        config = ExperimentConfig(
            kind="schrodinger", seed=1,
            params={"N": 4, "h": 0.5, "e_grid": [-0.004, 0.0, 0.004], "s0": 1.0},
        )
        report = run(config)
        assert report.passed
        stages = {row[0] for row in report.rows}
        assert stages == {"base", "sweep", "orthant_demo"}

    def test_schrodinger_inline_profiles_match_presets(self):
        xs = [abs(j) * 0.5 for j in range(-4, 5)]
        params = {"N": 4, "h": 0.5, "e_grid": [-0.004, 0.0, 0.004], "s0": 1.0}
        preset = run(ExperimentConfig(kind="schrodinger", seed=1, params=dict(params)))
        inline = run(ExperimentConfig(kind="schrodinger", seed=1, params=dict(
            params, potential=[x * x for x in xs],
            vector_potential=[math.exp(-x * x) for x in xs])))
        assert inline.rows == preset.rows


class TestHeldSemigroups:
    """A sweep's heat semigroups hold their spectra: only the S-lemma fallback,
    which reads the entries of 2 g g^T - A, forms a semigroup's matrix.  The
    magnetic M2, held by its spectrum, is formed once for the sums H0 + S(e).
    A pf_verify report, whose psd-simple instances hold theirs, is the same
    with every held matrix formed at once."""

    CONFIGS = {
        "perturb": ("perturb_sweep", dict),
        "alpha_probe": ("perturb_sweep", alpha_probe),
        "schrodinger": ("schrodinger", dict),
        "schrodinger_N48": ("schrodinger", lambda: {"N": 48, "h": 8.0 / 48}),
        "pf_verify": ("pf_verify", dict),
    }

    def report(self, name):
        kind, params = self.CONFIGS[name]
        return run(ExperimentConfig(kind=kind, seed=0, params=params())).render(timestamp=False)

    @pytest.mark.parametrize("name, fallbacks", [
        ("perturb", 2), ("alpha_probe", 6), ("schrodinger", 0), ("schrodinger_N48", 0)])
    def test_only_the_fallback_forms_a_matrix(self, monkeypatch, name, fallbacks):
        formed, general = [], []
        fget = SymmetricOperator.matrix.fget

        def counting(op):
            if op._matrix is None:
                formed.append(op.dim)
            return fget(op)

        run_general = perturbation.improves_positivity_general
        monkeypatch.setattr(SymmetricOperator, "matrix", property(counting))
        monkeypatch.setattr(perturbation, "improves_positivity_general",
                            lambda A, cone: general.append(A.dim) or run_general(A, cone))
        self.report(name)
        assert len(general) == fallbacks
        held = {"schrodinger": [17], "schrodinger_N48": [97]}.get(name, [])   # M2
        assert formed == held + general

    @pytest.mark.parametrize("name", CONFIGS)
    def test_reports_match_eager_matrices(self, monkeypatch, name):
        lazy = self.report(name)
        monkeypatch.setattr(SymmetricOperator, "from_spectrum",
                            staticmethod(eager_from_spectrum))
        assert self.report(name) == lazy


class TestReportFormat:
    def test_roundtrip_parse(self):
        config = ExperimentConfig(kind="pf_verify", seed=13,
                                  params={"dims": [3], "instances_per_flavor": 1})
        report = run(config)
        header, columns, rows = parse_report(report.render(timestamp=False))
        assert header["kind"] == "pf_verify"
        assert columns == report.columns
        assert len(rows) == len(report.rows)

    def test_timestamp_toggle(self):
        report = Report(kind="pf_verify", seed=0, config_json="{}",
                        columns=["ok"], rows=[["1"]])
        with_ts = report.render(timestamp=True)
        without = report.render(timestamp=False)
        assert "# timestamp:" in with_ts
        assert "# timestamp:" not in without


    def test_tolerance_header_echoes_constants_in_force(self):
        from axiscone import tolerances

        report = Report(kind="pf_verify", seed=0, config_json="{}",
                        columns=["ok"], rows=[["1"]])
        header, _, _ = parse_report(report.render(timestamp=False))
        in_force = {
            "tau_sym": tolerances.TAU_SYM,
            "tau_gap": tolerances.TAU_GAP,
            "tau_membership": tolerances.TAU_MEMBERSHIP,
            "tau_strict": tolerances.TAU_STRICT,
            "reconstruction": tolerances.RECON_TOL,
            "correspondence": tolerances.CORRESPONDENCE_TOL,
        }
        echoed = {key[4:]: value for key, value in header.items() if key.startswith("tol_")}
        assert echoed == {key: format(value, ".17g") for key, value in in_force.items()}


def header_keys(text):
    """The keys of a report's header lines, in order, up to the CSV block."""
    keys = []
    for line in text.splitlines():
        if not line.startswith("#"):
            break
        if ": " in line:
            keys.append(line[2:].split(": ", 1)[0])
    return keys


COMMON_KEYS = ["version", "kind", "seed", "config", "tol_correspondence",
               "tol_reconstruction", "tol_tau_gap", "tol_tau_membership", "tol_tau_strict",
               "tol_tau_sym"]
BUDGET_KEYS = ["budget_regime", "budget_mu", "budget_delta", "budget_epsilon", "budget_s0",
               "budget_alpha", "budget_r", "budget_c_threshold", "budget_kappa0",
               "budget_kappa_threshold"]


class TestReportLayout:
    """The header keys, in order, and the CSV columns of every report."""

    LAYOUT = {
        "cone_axioms": ({"dims": [2], "samples": 10},
                        ["dim", "cone", "check", "samples", "worst", "violations", "ok"], []),
        "pf_verify": ({"dims": [3], "instances_per_flavor": 1},
                      ["flavor", "dim", "predicate", "status", "margin", "witness", "seed",
                       "ok"], []),
        "perturb_sweep": ({}, ["kappa", "s", "c_kappa", "threshold", "drift_bound",
                               "drift_actual", "verdict", "alpha_op", "alpha_uniform", "ok"],
                          BUDGET_KEYS),
        "schrodinger": ({"N": 4, "e_grid": [-0.004, 0.0, 0.004]},
                        ["stage", "e", "s", "status", "value", "ok"],
                        BUDGET_KEYS + ["ground_energy", "admissible_coupling"]),
    }

    @pytest.mark.parametrize("kind", sorted(LAYOUT))
    def test_header_keys_and_columns(self, kind):
        params, columns, extra = self.LAYOUT[kind]
        text = run(ExperimentConfig(kind=kind, seed=0, params=params)).render(timestamp=False)
        header, got, rows = parse_report(text)
        assert header_keys(text) == COMMON_KEYS + extra
        assert got == columns
        assert rows and all(len(row) == len(columns) for row in rows)
        if extra:
            assert header["budget_regime"] == "semigroup"

    def test_selftest_columns_and_comma_free_detail(self, monkeypatch):
        from axiscone import acceptance

        monkeypatch.setattr(acceptance, "run_criteria", lambda seed: [
            acceptance.CriterionResult(1, "demo", True, "a=1, b=2", 0.0)])
        text = selftest(seed=0).render(timestamp=False)
        _, columns, rows = parse_report(text)
        assert header_keys(text) == COMMON_KEYS
        assert columns == ["criterion", "name", "result", "detail", "ok"]
        assert rows == [["1", "demo", "pass", "a=1; b=2", "1"]]

    def test_perturb_threshold_and_alpha_cells_are_the_budgets(self):
        config = ExperimentConfig(kind="perturb_sweep", seed=0, params={})
        header, columns, rows = parse_report(run(config).render(timestamp=False))
        budget = semigroup_threshold(
            SymmetricOperator(np.diag([0.0, 1.0])),
            PerturbationFamily([[[0.0, 1.0], [1.0, 0.0]]]),
            s0=math.log(2.0), kappa0=0.5, kappa_grid=config.params["kappa_grid"])
        threshold, alpha = format(budget.c_threshold, ".17g"), format(budget.alpha, ".17g")
        assert (header["budget_c_threshold"], header["budget_alpha"]) == (threshold, alpha)
        assert len(rows) == 25
        for row in rows:
            assert row[columns.index("threshold")] == threshold
            assert row[columns.index("alpha_uniform")] == alpha

    def test_witness_cell(self):
        verdict = Verdict("demo", VerdictStatus.CERTIFIED_FALSE, margin=-0.5,
                          witness=np.array([1.0, -1.0]))
        assert (verdict.predicate, verdict.status.value) == ("demo", "CertifiedFalse")
        assert harness._witness_cell(verdict.witness) == "1 -1"
        no_witness = Verdict("demo", VerdictStatus.CERTIFIED_TRUE, margin=0.5)
        assert harness._witness_cell(no_witness.witness) == ""


class TestWitnessRule:
    def test_preservation_witness_on_the_boundary_fails_its_row(self, monkeypatch):
        # a preservation witness must map outside the cone; a boundary image
        # fails the row in the run exactly as replay fails it
        def boundary_witness(a, cone, seed):
            u0 = cone.axis
            other = np.roll(u0, 1) - (np.roll(u0, 1) @ u0) * u0
            image = u0 + other / np.linalg.norm(other)   # 45 degrees from the axis
            return Verdict("preserves_positivity", VerdictStatus.CERTIFIED_FALSE,
                           margin=-1.0, witness=np.linalg.solve(a.matrix, image))

        monkeypatch.setattr(harness, "preserves_positivity", boundary_witness)
        report = run(ExperimentConfig(kind="pf_verify", seed=31,
                                      params={"dims": [3], "flavors": ["generic"],
                                              "instances_per_flavor": 2}))
        assert len(report.rows) == 2
        for row in report.rows:
            instance = generate_instance("generic", 3, int(row[6]))
            cone = AxisCone(top_eigen(instance)[1])
            image = instance.apply(np.array([float(x) for x in row[5].split()]))
            assert cone.classify(image) is Region.BOUNDARY
            assert row[2:4] == ["preserves_positivity", "CertifiedFalse"]
            assert row[-1] == "0"
        _, results = replay(report.render(timestamp=False))
        assert [r.reproduced for r in results] == [False, False]


class TestReplay:
    def pf_report_text(self):
        config = ExperimentConfig(kind="pf_verify", seed=31,
                                  params={"dims": [3, 4], "instances_per_flavor": 2})
        return run(config).render(timestamp=False)

    def test_replays_all_certified_false(self):
        kind, results = replay(self.pf_report_text())
        assert kind == "pf_verify"
        assert results  # degenerate flavor guarantees CertifiedFalse rows
        assert all(r.reproduced for r in results)

    def test_detects_corrupted_witness(self):
        text = self.pf_report_text()
        lines = text.splitlines()
        for i, line in enumerate(lines):
            if ",CertifiedFalse," in line and ",improves_positivity_axis," in line:
                parts = line.split(",")
                witness = np.array([float(x) for x in parts[5].split()])
                # push the ray far into the cone along the regenerated instance's axis,
                # which holds in any basis of its tied top eigenspace
                witness += 25.0 * axis_of(parts)
                parts[5] = " ".join(format(x, ".17g") for x in witness)
                lines[i] = ",".join(parts)
                break
        _, corrupted = replay("\n".join(lines))
        assert any(not r.reproduced for r in corrupted)


class TestSelftest:
    def test_all_criteria_pass(self):
        report = selftest(seed=0)
        assert report.passed
        assert len(report.rows) == 9

    def test_byte_identical(self):
        first = selftest(seed=0).render(timestamp=False)
        second = selftest(seed=0).render(timestamp=False)
        assert first.encode() == second.encode()


def _non_finite_or_boolean_numbers():
    """Every numeric scalar and grid entry of a config, set to true, Infinity or NaN."""
    scalars = [("perturb_sweep", key) for key in ("s0", "kappa0", "a", "b")]
    scalars += [("schrodinger", key) for key in ("h", "s0", "demo_e", "demo_s")]
    grids = [("perturb_sweep", key) for key in ("kappa_grid", "s_samples", "kappas")]
    grids += [("schrodinger", key) for key in ("e_grid", "s_samples")]
    cases = []
    for bad in (True, math.inf, math.nan):
        name = json.dumps(bad)
        for kind, key in scalars:
            cases.append(pytest.param(kind, {key: bad}, id=f"{kind}-{key}-{name}"))
        for kind, key in grids:
            for part, value in (("entry", [bad, 0.1]),
                                ("start", {"start": bad, "stop": 0.1, "num": 3}),
                                ("stop", {"start": 0.05, "stop": bad, "num": 3}),
                                ("num", {"start": 0.05, "stop": 0.1, "num": bad})):
                cases.append(pytest.param(kind, {key: value},
                                          id=f"{kind}-{key}.{part}-{name}"))
    return cases


def _with_csv_block(text, columns, rows):
    """A report's '#' lines followed by another CSV block."""
    comments = [line for line in text.splitlines() if line.startswith("#")]
    return "\n".join(comments + [",".join(row) for row in [columns] + rows]) + "\n"


def _set_in_certified_false(rows, column, value):
    """rows with one cell of the first CertifiedFalse row replaced."""
    row = next(row for row in rows if row[3] == VerdictStatus.CERTIFIED_FALSE.value)
    row[column] = value
    return rows


TABLE_FIELDS = [(kind, field) for kind, table in harness.PARAMETERS.items()
                for field in dict.fromkeys(row[0] for row in table)]


class TestCli:
    def test_verify_writes_report(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        code = main(["verify", "--kind", "cone_axioms", "--seed", "3",
                     "--out", str(out), "--no-timestamp"])
        assert code == 0
        text = out.read_text()
        assert "# kind: cone_axioms" in text

    def test_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "kind": "pf_verify", "seed": 5,
            "params": {"dims": [3], "instances_per_flavor": 1},
        }))
        out = tmp_path / "r.csv"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
        assert "pf_verify" in out.read_text()

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"kind": "pf_verify"}')
        assert main(["verify", "--config", str(cfg)]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, params", [
        ("cone_axioms", {"dims": [True], "cones": ["orthant"]}),
        ("cone_axioms", {"samples": True}),
        ("cone_axioms", {"dims": [3, 3]}),
        ("cone_axioms", {"cones": ["axis", "axis"]}),
        ("cone_axioms", {"cones": [["axis"]]}),
        ("pf_verify", {"dims": [3, 3]}),
        ("pf_verify", {"instances_per_flavor": True}),
        ("pf_verify", {"n_pairs": False}),
        ("pf_verify", {"flavors": ["generic", "generic"]}),
        ("pf_verify", {"flavors": [["generic"]]}),
    ])
    def test_boolean_or_repeated_entries_exit_2(self, tmp_path, capsys, kind, params):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"kind": kind, "seed": 0, "params": params}))
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "r.csv")]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error")
        assert len(captured.err.strip().splitlines()) == 1
        assert captured.out == ""

    @pytest.mark.parametrize("kind, field", TABLE_FIELDS,
                             ids=[f"{kind}-{field}" for kind, field in TABLE_FIELDS])
    def test_wrongly_typed_field_exits_2_naming_it(self, tmp_path, capsys, kind, field):
        params = {field: True}
        if field in ("t", "s"):   # the matrices are given together
            params = {"t": [[0, 0], [0, 1]], "s": [[0, 1], [1, 0]], field: True}
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"kind": kind, "seed": 0, "params": params}))
        command = next(c for c, kinds in cli._SUBCOMMAND_KINDS.items() if kind in kinds)
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "r.csv")]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"config error: config field '{field}': ")
        assert len(captured.err.strip().splitlines()) == 1
        assert captured.out == ""

    @pytest.mark.parametrize("output_path", [5, {"a": 1}, ["x"], True, ""])
    def test_output_path_must_be_a_nonempty_string(self, tmp_path, capsys, output_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "perturb_sweep", "seed": 0,
                                   "output_path": output_path}))
        assert main(["perturb", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.err == ("config error: config field 'output_path': "
                                "must be a nonempty string\n")
        assert captured.out == ""

    @pytest.mark.parametrize("case", ["out_dir", "config_dir", "replay_dir", "config_bytes",
                                      "report_bytes"])
    def test_unusable_file_exits_2(self, tmp_path, capsys, case):
        binary = tmp_path / "binary.json"
        binary.write_bytes(b"\xff\xfe{}")
        argv = {"out_dir": ["perturb", "--out", str(tmp_path)],
                "config_dir": ["perturb", "--config", str(tmp_path)],
                "replay_dir": ["replay", str(tmp_path)],
                "config_bytes": ["perturb", "--config", str(binary)],
                "report_bytes": ["replay", str(binary)]}[case]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert len(captured.err.strip().splitlines()) == 1
        assert captured.out == ""

    @pytest.mark.parametrize("kind, params", _non_finite_or_boolean_numbers())
    def test_numeric_values_must_be_finite_numbers(self, tmp_path, capsys, kind, params):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"kind": kind, "seed": 0, "params": params}))
        command = "perturb" if kind == "perturb_sweep" else "schrodinger"
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "r.csv")]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error")
        assert len(captured.err.strip().splitlines()) == 1

    @pytest.mark.parametrize("params", [
        {"s_samples": [0]},
        {"s_samples": [-0.1]},
        {"s_samples": [1.0]},
        {"kappas": [0.4]},
        {"t": [[0, 1], [0, 1]], "s": [[0, 1], [1, 0]]},
        {"t": [[0, 0], [0, 1]], "s": [[0, 1, 0], [1, 0, 0], [0, 0, 0]]},
        {"t": [[0, 0], [0]], "s": [[0, 1], [1, 0]]},
        {"b": 0}, {"b": 0.05}, {"b": 0.2}, {"b": 0.5}, {"a": 2, "b": 0}, {"a": 1, "b": 0.5},
    ], ids=["s_zero", "s_negative", "s_above_s0", "kappa_inadmissible", "t_asymmetric",
            "s_dimension", "t_ragged", "false_b0", "false_b0.05", "false_b0.2", "false_b0.5",
            "false_a2_b0", "false_a1_b0.5"])
    def test_bad_perturb_input_exits_2(self, tmp_path, capsys, params):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"kind": "perturb_sweep", "seed": 0, "params": params}))
        assert main(["perturb", "--config", str(cfg), "--out", str(tmp_path / "r.csv")]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error")
        assert len(captured.err.strip().splitlines()) == 1

    @pytest.mark.parametrize("corrupt, code, error", [
        (lambda w, q: (w, 1.01 * q), 1, "ContractViolation"),
        (lambda w, q: (np.full_like(w, np.nan), q), 2, "NonConvergence"),
    ], ids=["reconstruction", "non_finite"])
    def test_eigendecomposition_failures_exit_codes(self, monkeypatch, tmp_path, capsys,
                                                    corrupt, code, error):
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda m: corrupt(*eigh(m)))
        assert main(["perturb", "--out", str(tmp_path / "r.csv")]) == code
        assert capsys.readouterr().err.startswith(error)

    @pytest.mark.parametrize("params, error", [
        ({"N": 2, "h": 0.5, "potential": [1, 2, 3]}, "config error: config field 'potential'"),
        ({"N": 2, "vector_potential": [0] * 7}, "config error: config field 'vector_potential'"),
        ({"N": 2, "potential": [1, 0, 0, 0, 2]}, "AsymmetricPotential"),
        ({"N": 2, "vector_potential": [1, 0, 0, 0, 2]}, "AsymmetricPotential"),
        ({"s_samples": [2.0]}, "config error: config field 's_samples'"),
        ({"model_path": "model.txt"}, "config error: config field 'model_path'"),
    ], ids=["potential_length", "vector_potential_length", "potential_uneven",
            "vector_potential_uneven", "s_sample_above_s0", "model_path_removed"])
    def test_bad_schrodinger_input_exits_2(self, tmp_path, capsys, params, error):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"kind": "schrodinger", "seed": 0, "params": params}))
        assert main(["schrodinger", "--config", str(cfg),
                     "--out", str(tmp_path / "r.csv")]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(error)
        assert len(captured.err.strip().splitlines()) == 1

    @pytest.mark.parametrize("kind, params, field", [
        ("schrodinger", {"demo_e": 1e200}, "demo_e"),
        ("schrodinger", {"h": 1e-300}, "h"),
        ("schrodinger", {"h": 1e300}, "h"),
        ("schrodinger", {"demo_s": 1e6}, "demo_s"),
        # a negative ground energy: exp(-demo_s H) overflows, at coupling 0 or not
        ("schrodinger", {"potential": "gaussian_well", "demo_s": 1e6, "demo_e": 0}, "demo_s"),
        ("schrodinger", {"potential": "gaussian_well", "demo_s": 1e6, "demo_e": 0.5},
         "demo_s"),
        ("schrodinger", {"h": 1e-4}, "s0"),
        ("perturb_sweep", {"t": [[0, 0], [0, 1000]], "s": [[0, 1], [1, 0]]}, "s0"),
        ("schrodinger", {"demo_e": 1e10}, "demo_e"),
        ("schrodinger", {"demo_e": 1e-12}, "demo_e"),
        ("schrodinger", {"vector_potential": "zero"}, "demo_e"),
        ("perturb_sweep", {"t": [[0, 0], [0, 1e300]], "s": [[0, 1], [1, 0]]}, "t"),
        ("perturb_sweep", {"t": [[0, 0], [0, 1]], "s": [[0, -1e76], [-1e76, 0]]}, "s"),
        ("perturb_sweep", {"t": [[0, 0], [0, 1.7e308]], "s": [[0, 1], [1, 0]]}, "t"),
        ("perturb_sweep", {"a": 1e300}, "a"),
        ("perturb_sweep", {"b": 1e300}, "b"),
        ("perturb_sweep", {"kappa_grid": [0.3, 0.4]}, "kappa_grid"),
        # kappa = 0 is admissible on every budget, so the grid leaves it out
        ("perturb_sweep", {"a": 1e75, "b": 1e75, "kappa_grid": [-0.45, 0.45]}, "kappa_grid"),
        # the grid's gaps (1, 1.1) miss the swept kappa's (0.11) and T's own (0.1)
        ("perturb_sweep", {"t": [[0, 0], [0, 0.1]], "s": [[0, 0], [0, 1]],
                           "kappa_grid": [0.9, 1.0], "kappas": [0.01]}, "kappas"),
        # every grid entry is bounded by SCALE_LIMIT, listed or expanded
        ("schrodinger", {"e_grid": [0, 1e200]}, "e_grid"),
        ("schrodinger", {"e_grid": [0, 1e80]}, "e_grid"),
        ("schrodinger", {"s_samples": [0.5, -1e76]}, "s_samples"),
        ("perturb_sweep", {"kappa_grid": [0, 1e300]}, "kappa_grid"),
        ("perturb_sweep", {"kappa_grid": {"start": -1e300, "stop": 0, "num": 3}},
         "kappa_grid"),
        ("perturb_sweep", {"kappas": [0, 1e80]}, "kappas"),
        ("perturb_sweep", {"s_samples": [0.1, 1e100]}, "s_samples"),
        # every float field is bounded by SCALE_LIMIT, profile entries too
        ("perturb_sweep", {"s0": 1e300}, "s0"),
        ("perturb_sweep", {"kappa0": 1e300}, "kappa0"),
        ("schrodinger", {"s0": 1e300}, "s0"),
        ("schrodinger", {"potential": [1e200] * 17}, "potential"),
        # alpha = 1 - exp(-s0 delta) rounds to 0
        ("perturb_sweep", {"s0": 1e-20}, "s0"),
        ("schrodinger", {"s0": 1e-20}, "s0"),
        # exp(-s T) has no top gap beyond tau_gap at a heat time s
        ("perturb_sweep", {"s_samples": [1e-12]}, "s_samples"),
        ("perturb_sweep", {"s0": 1e-16}, "s_samples"),
        ("schrodinger", {"s_samples": [1e-12]}, "s_samples"),
        ("schrodinger", {"s_samples": [1e-12], "e_grid": [0.5]}, "s_samples"),
        ("perturb_sweep", {"t": [[100, 0], [0, 101]], "s": [[0, 1], [1, 0]]}, "s_samples"),
        # a spectrum far below 0: exp(-s (mu - epsilon)) squared leaves the float range
        ("perturb_sweep", {"t": [[-1000, 0], [0, -999]], "s": [[0, 1], [1, 0]]}, "s_samples"),
        ("perturb_sweep", {"t": [[-1000, 0], [0, -990]], "s": [[0, 0.1], [0.1, 0]], "s0": 1},
         "s_samples"),
        # a claimed b 4e-10 below the swap's true bound 1: nothing certifies it
        ("perturb_sweep", {"b": 0.9999999996}, "b"),
    ], ids=["demo_e_overflow", "h_tiny", "h_huge", "demo_s_damped", "demo_s_overflow_control",
            "demo_s_overflow", "h_saturates_alpha",
            "t_saturates_alpha", "demo_e_damped", "demo_e_weak", "no_vector_potential",
            "t_entry_huge", "s_entry_huge", "t_entry_overflows_its_sum", "a_huge", "b_huge",
            "no_admissible_kappa", "bounds_admit_no_kappa", "swept_kappa_below_grid_gap",
            "e_grid_overflows", "e_grid_huge", "schrodinger_s_samples_huge",
            "kappa_grid_huge", "kappa_grid_range_huge", "kappas_huge",
            "perturb_s_samples_huge", "perturb_s0_huge", "kappa0_huge", "schrodinger_s0_huge",
            "potential_entries_huge", "perturb_s0_tiny", "schrodinger_s0_tiny",
            "perturb_s_sample_tiny", "perturb_s0_tiny_samples", "schrodinger_s_sample_tiny",
            "schrodinger_s_sample_tiny_one_coupling", "perturb_top_decays",
            "perturb_norm_square_overflows", "perturb_semigroup_overflows",
            "b_below_the_bound_by_4e_10"])
    @pytest.mark.filterwarnings("error")  # a numpy warning would be a second stderr line
    def test_extreme_numeric_input_exits_2(self, tmp_path, capsys, kind, params, field):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"kind": kind, "seed": 0, "params": params}))
        command = "perturb" if kind == "perturb_sweep" else "schrodinger"
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "r.csv")]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"config error: config field '{field}'")
        assert len(captured.err.strip().splitlines()) == 1
        assert not (tmp_path / "r.csv").exists()

    def test_tiny_radius_angle_probe_exits_0(self, tmp_path):
        # t = R diag(0, 52) R^T: s0 delta = 52 ln 2 leaves alpha within 1e-16 of 1 and r
        # = 3.9e-17, below the rounding of the computed drift at kappa = 9e-16 (5.6e-17
        # at 15, 72, 75, 78, 79 and 81 degrees); a valid input, so every angle exits 0
        out = tmp_path / "r.csv"
        for degrees in range(90):
            c, s = math.cos(math.radians(degrees)), math.sin(math.radians(degrees))
            rotation = np.array([[c, -s], [s, c]])
            t = rotation @ np.diag([0.0, 52.0]) @ rotation.T
            cfg = tmp_path / "angle.json"
            cfg.write_text(json.dumps({"kind": "perturb_sweep", "seed": 0, "params": {
                "t": t.tolist(), "s": [[0, 1], [1, 0]], "kappa_grid": [0, 9e-16],
                "kappas": [0, 9e-16]}}))
            assert main(["perturb", "--config", str(cfg), "--out", str(out),
                         "--no-timestamp"]) == 0, degrees
            lines = [line for line in out.read_text().splitlines() if line[:1] != "#"]
            assert [line.split(",")[6] for line in lines[1:]] == ["CertifiedTrue"] * 10


    @pytest.mark.parametrize("kind, field", [("cone_axioms", "samples"),
                                             ("pf_verify", "instances_per_flavor")])
    def test_repeat_count_beyond_its_limit_exits_2(self, tmp_path, capsys, kind, field):
        # a count of 1e9 ran out of memory or time before it was bounded
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"kind": kind, "seed": 0, "params": {field: 10**9}}))
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "r.csv")]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"config error: config field '{field}'")
        assert len(captured.err.strip().splitlines()) == 1
        assert not (tmp_path / "r.csv").exists()

    # on the default swap instance (T = diag(0, 1), S^2 = I), S^2 <= a^2 T^2 + b^2 I
    # holds iff b >= 1: the false_* cases of test_bad_perturb_input_exits_2 exit 2
    @pytest.mark.parametrize("params", [{"b": 1.0}, {"b": 1.2}, {"a": 0.5, "b": 1.0}],
                             ids=["b1", "b1.2", "a0.5_b1"])
    def test_true_relative_bound_runs(self, tmp_path, params):
        cfg = tmp_path / "good.json"
        cfg.write_text(json.dumps({"kind": "perturb_sweep", "seed": 0, "params": params}))
        assert main(["perturb", "--config", str(cfg), "--out", str(tmp_path / "r.csv")]) == 0

    def test_damped_control_demo_still_passes(self, tmp_path):
        # at demo_e = 0 the demo is a control: a damped image is no witness to miss
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "schrodinger", "seed": 0,
                                   "params": {"demo_e": 0.0, "demo_s": 1e6}}))
        out = tmp_path / "r.csv"
        assert main(["schrodinger", "--config", str(cfg), "--out", str(out)]) == 0
        assert "orthant_demo,0,1000000,inapplicable_control,0,1" in out.read_text()

    def test_kind_subcommand_mismatch_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "schrodinger", "seed": 0}))
        assert main(["perturb", "--config", str(cfg)]) == 2

    def test_replay_roundtrip(self, tmp_path):
        out = tmp_path / "pf.csv"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "kind": "pf_verify", "seed": 8,
            "params": {"dims": [3], "instances_per_flavor": 2},
        }))
        assert main(["verify", "--config", str(cfg), "--out", str(out),
                     "--no-timestamp"]) == 0
        assert main(["replay", str(out)]) == 0

    @pytest.mark.parametrize("kind, params", [
        ("perturb_sweep", {}),
        ("schrodinger", {"N": 4, "h": 2.0}),
        ("cone_axioms", {"dims": [2], "samples": 10}),
    ])
    def test_replay_names_a_kind_it_cannot_replay(self, tmp_path, capsys, kind, params):
        path = tmp_path / "report.csv"
        path.write_text(run(ExperimentConfig(kind=kind, seed=0, params=params))
                        .render(timestamp=False))
        assert main(["replay", str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.out == f"replay supports pf_verify reports only; this report is {kind}\n"
        assert captured.err == ""

    def test_replay_corrupted_report_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "kind": "pf_verify", "seed": 31,
            "params": {"dims": [3], "instances_per_flavor": 2},
        }))
        out = tmp_path / "pf.csv"
        assert main(["verify", "--config", str(cfg), "--out", str(out),
                     "--no-timestamp"]) == 0
        lines = out.read_text().splitlines()
        for i, line in enumerate(lines):
            if ",CertifiedFalse," in line and ",improves_positivity_axis," in line:
                parts = line.split(",")
                witness = np.array([float(x) for x in parts[5].split()])
                witness += 25.0 * axis_of(parts)
                parts[5] = " ".join(format(x, ".17g") for x in witness)
                lines[i] = ",".join(parts)
                break
        corrupted = tmp_path / "corrupted.csv"
        corrupted.write_text("\n".join(lines) + "\n")
        assert main(["replay", str(corrupted)]) == 1
        assert "FAILED to reproduce" in capsys.readouterr().out

    @pytest.mark.parametrize("text", [
        "",
        "junk\n",
        "# axiscone-report\n# kind: pf_verify\n"
        '# config: {"kind":"pf_verify","seed"\nflavor,dim,status\n',
    ], ids=["empty", "one_line_text", "corrupted_config_echo"])
    def test_replay_non_report_exits_2(self, tmp_path, capsys, text):
        path = tmp_path / "not_a_report.txt"
        path.write_text(text)
        assert main(["replay", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error")
        assert len(captured.err.strip().splitlines()) == 1
        assert captured.out == ""

    @pytest.mark.parametrize("mutate, error", [
        (lambda header, rows: (["flavor", "dim"], [row[:2] for row in rows]), "CSV columns"),
        (lambda header, rows: (header, [row[:-1] for row in rows]), "cells"),
        (lambda header, rows: (header, _set_in_certified_false(rows, 1, "x")), "row"),
        (lambda header, rows: (header, _set_in_certified_false(rows, 6, "7.5")), "row"),
        (lambda header, rows: (header, _set_in_certified_false(rows, 5, "0.5 y")), "row"),
        (lambda header, rows: (header, _set_in_certified_false(rows, 5, "1 2")), "witness"),
        (lambda header, rows: (header, _set_in_certified_false(rows, 1, "300")),
         "not in the config"),
    ], ids=["missing_columns", "short_rows", "dim_not_a_number", "seed_not_an_integer",
            "witness_not_a_number", "witness_length", "dim_not_in_config"])
    def test_replay_malformed_rows_exits_2(self, tmp_path, capsys, mutate, error):
        report = run(ExperimentConfig(kind="pf_verify", seed=31,
                                      params={"dims": [3], "instances_per_flavor": 2}))
        columns, rows = mutate(report.columns, [list(row) for row in report.rows])
        path = tmp_path / "malformed.csv"
        path.write_text(_with_csv_block(report.render(timestamp=False), columns, rows))
        assert main(["replay", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error")
        assert error in captured.err
        assert len(captured.err.strip().splitlines()) == 1
        assert captured.out == ""

    def test_seed_override_changes_rows(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "kind": "pf_verify", "seed": 8,
            "params": {"dims": [3], "instances_per_flavor": 1},
        }))
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(["verify", "--config", str(cfg), "--out", str(a),
                     "--no-timestamp"]) == 0
        assert main(["verify", "--config", str(cfg), "--seed", "9", "--out", str(b),
                     "--no-timestamp"]) == 0
        assert a.read_text() != b.read_text()

    @pytest.mark.parametrize("with_config", [True, False], ids=["config", "defaults"])
    def test_seed_override_validates_params_once(self, tmp_path, monkeypatch, with_config):
        check, calls = harness.check_params, []
        monkeypatch.setattr(harness, "check_params",
                            lambda kind, params: calls.append(kind) or check(kind, params))
        out = tmp_path / "report.csv"
        argv = ["perturb", "--seed", "5", "--out", str(out), "--no-timestamp"]
        if with_config:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"kind": "perturb_sweep", "seed": 0, "params": {}}))
            argv += ["--config", str(cfg)]
        assert main(argv) == 0
        assert calls == ["perturb_sweep"]
        assert '"seed":5' in out.read_text()

    @pytest.mark.parametrize("file_seed, flag", [(0, "-1"), (0, str(2**64)), (-1, "3"),
                                                 (None, "-1")])
    def test_bad_seed_exits_2_naming_seed(self, tmp_path, capsys, file_seed, flag):
        argv = ["perturb", "--seed", flag]
        if file_seed is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"kind": "perturb_sweep", "seed": file_seed,
                                       "params": {}}))
            argv += ["--config", str(cfg)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("config error: config field 'seed'")

    @pytest.mark.parametrize("flag", ["-1", str(2**64)])
    def test_selftest_bad_seed_exits_2_naming_seed(self, capsys, flag):
        assert main(["selftest", "--seed", flag, "--no-timestamp"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("config error: config field 'seed': "
                                "must fit in 64 unsigned bits\n")

    def test_selftest_rejects_a_config(self, capsys):
        # the criteria build their own inputs: a config must not be silently ignored
        with pytest.raises(SystemExit) as exc:
            main(["selftest", "--config", "/nonexistent.json", "--no-timestamp"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --config /nonexistent.json" in captured.err

    def test_degenerate_model_is_usage_error(self, tmp_path, capsys):
        # a decoupled double well has a ground doublet below tau_gap: the
        # experiment is ill-posed, which is a usage error rather than a bug
        n_half, h = 8, 0.5
        xs = [abs(j) * h for j in range(-n_half, n_half + 1)]
        potential = [x * x + (1e12 if x == 0.0 else 0.0) for x in xs]
        cfg = tmp_path / "well.json"
        cfg.write_text(json.dumps({
            "kind": "schrodinger", "seed": 0,
            "params": {"N": n_half, "h": h, "potential": potential,
                       "e_grid": [0.0], "s0": 1.0},
        }))
        assert main(["schrodinger", "--config", str(cfg)]) == 2
        assert "DegenerateBottom" in capsys.readouterr().err

    def test_module_entrypoint(self, tmp_path):
        out = tmp_path / "cli.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "axiscone.cli", "verify", "--kind", "cone_axioms",
             "--seed", "1", "--out", str(out), "--no-timestamp"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert out.exists()
