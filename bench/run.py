"""End-to-end and per-layer benchmark of the axiscone verifier.

Usage, from the root of the repository:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The seed generates one experiment config for the workload (see
bench/workloads.py).  The benchmark runs it through `axiscone.cli.main`, the
entry point users call, in a closed loop: one client in one process, each
report starting when the previous one ended, for S seconds.  BLAS threads
are pinned before numpy is imported.

Every report is checked: the CLI exits 0, no row has ok=0, the row keys and
verdict statuses match the workload's reference fingerprint
(bench/fingerprints.json), and repeated reports of one config are
byte-identical.  Each run also replays the reference seed once and compares
its fingerprint exactly, because verdicts that come from sampling may differ
between seeds but never between commits.

--trace 0 reports the end-to-end metrics.  Their times are normalized to the
machine's speed measured next to each interval (see SpeedProbe); the plain
wall-clock medians are printed in the metadata line.
  setup_s       median over fresh interpreters, spread over the run, of the
                time from spawn to a validated config (imports plus
                ExperimentConfig.load)
  report_s      median time of one report, config in to report written
  checks_per_s  median over reports of rows verified per second of producing
                and checking the report
  peak_rss_mb   peak resident memory of this process
--trace 1 alternates untraced and traced reports, reports per-layer calls,
counts and self times (bench/tracing.py), the tracing overhead, and an ungated
scaling record over Schrodinger grid size and perturbation dimension.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 0 only if every report was
correct.

    python3 bench/run.py --workload NAME --record-fingerprint

rewrites the workload's reference fingerprint at the reference seed.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

BLAS_THREADS = 1
REFERENCE_SEED = 0
SETUP_REPEATS = 9
MIN_REPORTS = 3
SCALING_SCHRODINGER_N = (8, 16, 32, 64)
SCALING_PERTURB_DIMS = (64, 128, 200)

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
FINGERPRINTS = os.path.join(BENCH_DIR, "fingerprints.json")

# Row key columns and the verdict column of each report kind.
KEY_COLUMNS = {
    "cone_axioms": ("dim", "cone", "check", "samples"),
    "pf_verify": ("flavor", "dim", "predicate"),
    "perturb_sweep": ("kappa", "s"),
    "schrodinger": ("stage", "e", "s"),
}
STATUS_COLUMN = {
    "cone_axioms": "violations",
    "pf_verify": "status",
    "perturb_sweep": "verdict",
    "schrodinger": "status",
}
# Predicates whose verdict rests on sampled points: away from the reference
# seed any status the harness accepts may appear, so only the key is compared.
SAMPLED_PREDICATES = {"preserves_positivity"}

# Importing the CLI loads every layer, as a user's first command does.
SETUP_CODE = (
    "import sys, time\n"
    "from axiscone.cli import main\n"
    "from axiscone.harness import ExperimentConfig\n"
    "ExperimentConfig.load(sys.argv[1])\n"
    "print(time.monotonic())\n"
)


def pin_blas_threads(env):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)


def parse_report(text):
    """Column names and rows of a report's CSV block."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines:
        return [], []
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def fingerprint(kind, columns, rows):
    """Row keys and verdict status of every row, in report order."""
    index = {name: i for i, name in enumerate(columns)}
    cols = [index[c] for c in KEY_COLUMNS[kind]] + [index[STATUS_COLUMN[kind]]]
    return [[row[i] for i in cols] for row in rows]


def fingerprint_mismatches(kind, got, reference, exact):
    if len(got) != len(reference):
        return [f"{len(got)} rows, reference has {len(reference)}"]
    problems = []
    for row, ref in zip(got, reference):
        if row[:-1] != ref[:-1]:
            problems.append(f"row key {row[:-1]} != reference {ref[:-1]}")
        elif row[-1] != ref[-1] and (exact or not _sampled(kind, ref)):
            problems.append(f"status {row[-1]} != reference {ref[-1]} at {ref[:-1]}")
    return problems


def _sampled(kind, ref_row):
    if "predicate" not in KEY_COLUMNS[kind]:
        return False
    return ref_row[KEY_COLUMNS[kind].index("predicate")] in SAMPLED_PREDICATES


def load_fingerprints():
    try:
        with open(FINGERPRINTS) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


class Runner:
    """Writes configs, runs reports through the CLI and checks each one."""

    def __init__(self, workload, out_dir):
        import workloads
        from axiscone.cli import main

        self.workloads = workloads
        self.main = main
        self.workload = workload
        self.out_dir = out_dir
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.reference = load_fingerprints().get(workload)

    def write_config(self, config, name):
        path = os.path.join(self.out_dir, name)
        with open(path, "w") as fh:
            json.dump(config, fh)
        return path

    def report(self, config, config_path):
        """One report through the CLI: (seconds, text or None on failure)."""
        out_path = os.path.join(self.out_dir, "report.txt")
        if os.path.exists(out_path):
            os.remove(out_path)
        argv = [self.workloads.SUBCOMMAND[config["kind"]], "--config", config_path,
                "--out", out_path, "--no-timestamp"]
        self.attempted += 1
        start = time.perf_counter()
        try:
            code = self.main(argv)
        except Exception as exc:  # a crash is a failed report, not a benchmark error
            code = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if code != 0:
            self.fail(f"seed {config['seed']}: exit {code}")
            return elapsed, None
        with open(out_path) as fh:
            return elapsed, fh.read()

    def fail(self, *messages):
        """Record one failed report and why it failed."""
        self.failed += 1
        self.failures.extend(messages)

    def check(self, config, text, reference=None, exact=False, first_text=None):
        """Rows of a correct report, or None after recording why it is wrong."""
        kind = config["kind"]
        columns, rows = parse_report(text)
        problems = []
        needed = {"ok", STATUS_COLUMN[kind], *KEY_COLUMNS[kind]}
        if not rows or not needed <= set(columns):
            problems.append(f"no CSV block with columns {sorted(needed)}")
        elif any(len(row) != len(columns) for row in rows):
            problems.append("rows and header differ in length")
        else:
            ok = columns.index("ok")
            bad = sum(1 for row in rows if row[ok] != "1")
            if bad:
                problems.append(f"{bad} rows with ok=0")
            if reference is not None:
                problems += fingerprint_mismatches(
                    kind, fingerprint(kind, columns, rows), reference["rows"], exact)
        if first_text is not None and text != first_text:
            problems.append("report differs from the first report of this config")
        if problems:
            self.fail(f"seed {config['seed']}: " + "; ".join(problems[:3]))
            return None
        return rows

    def check_reference(self):
        """Replay the reference seed once and compare its fingerprint exactly."""
        if self.reference is None:
            self.fail(f"no reference fingerprint for {self.workload}")
            return
        config = self.workloads.make_config(self.workload, self.reference["seed"])
        _, text = self.report(config, self.write_config(config, "reference.json"))
        if text is not None:
            self.check(config, text, self.reference, exact=True)


def measure_setup(config_path):
    """Seconds from spawning a fresh interpreter to a validated config."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    start = time.monotonic()
    done = subprocess.run([sys.executable, "-c", SETUP_CODE, config_path], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1]) - start


def quartiles(values):
    return [round(q, 6) for q in statistics.quantiles(values, n=4)]


class SpeedProbe:
    """Times fixed reference computations to gauge the machine's current speed.

    On a shared machine the speed of a core drifts by tens of percent over
    seconds to minutes, and the drift is common to everything that runs.  The
    end-to-end times are therefore normalized: each interval is divided by the
    speed factor measured just before and just after it.  The factor weighs
    an interpreter probe (a loop of small numpy calls) and a LAPACK probe
    (dense eigh and complex solves) by the workload's interpreter share,
    because the two kinds of work do not slow down alike.  A factor of 1 means
    the probes ran at their nominal times, those of the baseline machine.
    """

    NOMINAL_INTERPRETER_S = 0.0065
    NOMINAL_LAPACK_S = 0.009

    def __init__(self, interpreter_share):
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._share = interpreter_share
        self._x = rng.standard_normal(64)
        g = rng.standard_normal((96, 96))
        self._m = g + g.T
        self._shifted = 4j * np.eye(128) - rng.standard_normal((128, 128))
        self._eye = np.eye(128)
        self.last = self.sample()

    def sample(self):
        """(interpreter probe, LAPACK probe) in seconds."""
        np = self._np
        start = time.perf_counter()
        for i in range(1500):
            np.linalg.norm(self._x * (i % 7))
        middle = time.perf_counter()
        np.linalg.eigh(self._m)
        np.linalg.eigh(self._m)
        for _ in range(3):
            np.linalg.solve(self._shifted, self._eye)
        return middle - start, time.perf_counter() - middle

    def normalize(self, seconds):
        """Seconds of the interval that just ended, at the nominal speed."""
        before, self.last = self.last, self.sample()
        interpreter = (before[0] + self.last[0]) / (2.0 * self.NOMINAL_INTERPRETER_S)
        lapack = (before[1] + self.last[1]) / (2.0 * self.NOMINAL_LAPACK_S)
        return seconds / (interpreter ** self._share * lapack ** (1.0 - self._share))


def end_to_end(runner, config, seconds):
    median = statistics.median
    config_path = runner.write_config(config, "config.json")
    runner.check_reference()
    probe = SpeedProbe(runner.workloads.INTERPRETER_SHARE[runner.workload])
    walls, times, busy, setups, setup_walls = [], [], [], [], []
    first = None
    start = time.perf_counter()
    while len(times) < MIN_REPORTS or time.perf_counter() - start < seconds:
        # Set-up samples are spread over the run, so that one slow phase of a
        # shared machine cannot set their median.
        if (len(setups) < SETUP_REPEATS
                and time.perf_counter() - start >= len(setups) * seconds / SETUP_REPEATS):
            setup_walls.append(measure_setup(config_path))
            setups.append(probe.normalize(setup_walls[-1]))
            continue
        begin = time.perf_counter()
        elapsed, text = runner.report(config, config_path)
        rows = None
        if text is not None:
            rows = runner.check(config, text, runner.reference, first_text=first)
            first = text if first is None else first
        scale = probe.normalize(1.0)
        walls.append(elapsed)
        times.append(elapsed * scale)
        if rows is not None:  # time to produce and verify one correct report
            busy.append(((time.perf_counter() - begin) * scale, len(rows)))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": (median(setups), "s"),
        "report_s": (median(times), "s"),
        "checks_per_s": (median(n / t for t, n in busy) if busy else 0.0, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }, {"reports": len(times), "report_s_quartiles": quartiles(times),
        "wall_report_s": median(walls), "wall_report_s_quartiles": quartiles(walls),
        "wall_setup_s": median(setup_walls), "setup_samples": len(setups),
        "probe_nominal_s": [SpeedProbe.NOMINAL_INTERPRETER_S, SpeedProbe.NOMINAL_LAPACK_S]}


def traced(runner, config, seconds):
    from tracing import Tracer

    tracer = Tracer()
    config_path = runner.write_config(config, "config.json")
    runner.check_reference()
    plain, timed, totals, first = [], [], [], None
    start = time.perf_counter()
    while len(totals) < 2 or time.perf_counter() - start < seconds:
        elapsed, text = runner.report(config, config_path)
        plain.append(elapsed)
        if text is not None:
            runner.check(config, text, runner.reference, first_text=first)
            first = text if first is None else first
        tracer.install()
        try:
            elapsed, text = runner.report(config, config_path)
        finally:
            tracer.uninstall()
        timed.append(elapsed)
        totals.append(tracer.finish_report())
        if text is not None:
            runner.check(config, text, runner.reference, first_text=first)
    tracer.write_spans(os.path.join(runner.out_dir, "spans.jsonl"))

    # Counts are deterministic: every traced report must repeat the first.
    for later in totals[1:]:
        differing = []
        for group in ("calls", "counts"):
            for name in sorted(set(totals[0][group]) | set(later[group])):
                a, b = totals[0][group].get(name, 0), later[group].get(name, 0)
                if a != b:
                    differing.append(f"nondeterministic count {name}: {a} != {b}")
        if differing:
            runner.fail(*differing)

    metrics = {}
    for name in PER_LAYER:
        if name.startswith(("trace.", "scaling.")):
            continue
        if name.endswith(".self_s"):
            span = name[: -len(".self_s")]
            value = statistics.median(t["self_s"].get(span, 0.0) for t in totals)
            metrics[name] = (value, "s")
        elif name.endswith(".calls"):
            metrics[name] = (totals[0]["calls"].get(name[: -len(".calls")], 0), "count")
        else:
            metrics[name] = (totals[0]["counts"].get(name, 0), "count")
    report_traced, report_plain = statistics.median(timed), statistics.median(plain)
    metrics["trace.report_s"] = (report_traced, "s")
    metrics["trace.untraced_report_s"] = (report_plain, "s")
    metrics["trace.overhead_s"] = (report_traced - report_plain, "s")
    metrics.update(scaling(runner, tracer, config["seed"]))
    return ({name: metrics[name] for name in PER_LAYER},
            {"reports": len(plain) + len(timed), "traced_reports": len(timed),
             "untraced_targets": tracer.missing})


def scaling(runner, tracer, seed):
    """One traced report per size: wall time and the counts that grow with it."""
    points = [(f"scaling.schrodinger.N{n}",
               {"kind": "schrodinger", "seed": seed,
                "params": runner.workloads.schrodinger_params(n)})
              for n in SCALING_SCHRODINGER_N]
    points += [(f"scaling.perturb.dim{d}",
                {"kind": "perturb_sweep", "seed": seed,
                 "params": runner.workloads.dense_perturbation(seed, d)})
               for d in SCALING_PERTURB_DIMS]
    metrics = {}
    for prefix, config in points:
        path = runner.write_config(config, "scaling.json")
        tracer.install()
        try:
            elapsed, text = runner.report(config, path)
        finally:
            tracer.uninstall()
        calls = tracer.finish_report()["calls"]
        if text is not None:
            runner.check(config, text)
        metrics[f"{prefix}.report_s"] = (elapsed, "s")
        for counted in SCALING_COUNTS[prefix.split(".")[1]]:
            metrics[f"{prefix}.{counted}.calls"] = (calls.get(counted, 0), "count")
    return metrics


SCALING_COUNTS = {
    "schrodinger": ("schrodinger.build_magnetic", "numpy.linalg.eigh", "numpy.linalg.solve"),
    "perturb": ("numpy.linalg.eigh", "numpy.linalg.solve"),
}

_LAYER_SPANS = {
    "cones": ("classify", "project", "moreau_decompose", "duality_witness",
              "boundary_orthogonal_partner", "selfduality_probe", "sample_in_cone",
              "sample_outside"),
    "operators": ("spectral_decompose", "restricted_top", "heat_semigroup"),
    "perturbation": ("riesz_projector", "semigroup_threshold", "drifted_axis",
                     "improving_radius", "certified_improving_under_drift",
                     "end_to_end_semigroup_check"),
    "positivity": ("preserves_positivity", "improves_positivity_axis",
                   "improves_positivity_general", "perron_frobenius_check",
                   "ergodic_probe"),
    "schrodinger": ("build_magnetic", "restrict_to_real",
                    "RealStructure.commutation_residual"),
}

# Every per-layer metric, in the order BENCHMARK.json lists them.
PER_LAYER = (
    [f"{layer}.{fn}.{kind}" for layer, fns in _LAYER_SPANS.items() for fn in fns
     for kind in ("calls", "self_s")]
    + ["operators.as_vector.calls",
       "numpy.linalg.eigh.calls", "numpy.linalg.eigvalsh.calls",
       "numpy.linalg.solve.calls", "numpy.linalg.solve.rhs_cols",
       "perturbation.route.certificate", "perturbation.route.fallback",
       "positivity.ergodic_probe.powers",
       "schrodinger.build_h0.calls", "schrodinger.orthant_failure_demo.self_s",
       "harness.ExperimentConfig.load.self_s",
       "harness.generate_instance.calls", "harness.generate_instance.self_s",
       "harness.Report.render.self_s",
       "seeding.rng_for.calls", "seeding.rng_for.self_s",
       "trace.report_s", "trace.untraced_report_s", "trace.overhead_s"]
    + [f"scaling.schrodinger.N{n}.{m}" for n in SCALING_SCHRODINGER_N
       for m in ["report_s"] + [f"{c}.calls" for c in SCALING_COUNTS["schrodinger"]]]
    + [f"scaling.perturb.dim{d}.{m}" for d in SCALING_PERTURB_DIMS
       for m in ["report_s"] + [f"{c}.calls" for c in SCALING_COUNTS["perturb"]]]
)


def metadata(args):
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "reference_seed": REFERENCE_SEED,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": BLAS_THREADS,
        "load": "closed loop, 1 client, 1 process",
    }


def record_fingerprint(runner):
    config = runner.workloads.make_config(runner.workload, REFERENCE_SEED)
    _, text = runner.report(config, runner.write_config(config, "reference.json"))
    if text is None:
        sys.exit(f"reference report failed: {runner.failures}")
    columns, rows = parse_report(text)
    table = load_fingerprints()
    table[runner.workload] = {"seed": REFERENCE_SEED,
                              "rows": fingerprint(config["kind"], columns, rows)}
    entries = [f'{json.dumps(name)}: {{"seed": {entry["seed"]}, "rows": [\n'
               + ",\n".join(json.dumps(row) for row in entry["rows"]) + "\n]}"
               for name, entry in sorted(table.items())]
    with open(FINGERPRINTS, "w") as fh:
        fh.write("{\n" + ",\n".join(entries) + "\n}\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-fingerprint", action="store_true")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    pin_blas_threads(os.environ)  # before anything imports numpy
    if not os.path.isfile(os.path.join(SRC, "axiscone", "__init__.py")):
        sys.exit(f"axiscone sources not found under {SRC}")
    sys.path[:0] = [SRC, BENCH_DIR]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload; choose from {', '.join(workloads.WORKLOADS)}")
    out_dir = os.path.join(BENCH_DIR, "out", args.workload)
    os.makedirs(out_dir, exist_ok=True)
    runner = Runner(args.workload, out_dir)
    if args.record_fingerprint:
        record_fingerprint(runner)
        return 0

    config = workloads.make_config(args.workload, args.seed)
    measure = traced if args.trace else end_to_end
    metrics, info = measure(runner, config, args.seconds)
    meta = metadata(args)
    meta.update(info)
    meta["failed_frac"] = runner.failed / runner.attempted
    print(json.dumps({"metadata": meta}))
    for failure in runner.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if runner.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
