"""Workload configs generated from the benchmark seed.

Each workload is one axiscone experiment config (the JSON a user passes to
`axiscone <subcommand> --config`).  The same seed always yields the same
config; the program under test sees only that JSON.
"""

import math

import numpy as np

# Why each workload is in the benchmark: the layer it loads and what a
# change to that layer should show on it.
WORKLOADS = {
    "cone_axioms_wide": "cone layer dominates: ~146k norm and ~77k as_vector calls per "
                        "report over dims 2..200; perturbation and Schrodinger idle",
    "pf_verdicts": "positivity verdicts over many small operators: sampled "
                   "preservation with early exit, ergodic probes, PF cross-check",
    "perturb_dense": "dim-128 dense perturbation sweep: contour projector solves "
                     "and eigh dominate; cones idle; large matrices load set-up",
    "schrodinger_grid": "only workload that rebuilds Hamiltonians: build_magnetic, "
                        "commutation residuals and restrict_to_real at dim 97",
}

# Share of a report's time spent in the interpreter rather than in LAPACK,
# from the traced self times: the cone and positivity layers run Python loops
# over small vectors, the perturbation sweep is dense solves and eigh, and the
# Schrodinger pipeline is about half of each.  It weighs the two probes that
# normalize the end-to-end times (run.SpeedProbe).
INTERPRETER_SHARE = {
    "cone_axioms_wide": 0.75,
    "pf_verdicts": 0.75,
    "perturb_dense": 0.25,
    "schrodinger_grid": 0.5,
}

# CLI subcommand that accepts each config kind.
SUBCOMMAND = {
    "cone_axioms": "verify",
    "pf_verify": "verify",
    "perturb_sweep": "perturb",
    "schrodinger": "schrodinger",
}


def dense_perturbation(seed, dim):
    """Seeded T with spectrum {0} U U(1, 3) and a symmetric S with norm 1.

    The 41-point kappa grid has step 0.018, so the admissible set is always
    {0, +-0.018, +-0.036}: over seeds the coupling threshold stays in
    [0.044, 0.048], away from the grid points 0.036 and 0.054.
    """
    rng = np.random.default_rng([seed, dim])
    q = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
    eigs = np.concatenate([[0.0], rng.uniform(1.0, 3.0, dim - 1)])
    t = (q * eigs) @ q.T
    t = (t + t.T) / 2.0
    g = rng.standard_normal((dim, dim))
    s = (g + g.T) / 2.0
    s /= np.linalg.norm(s, 2)
    s = (s + s.T) / 2.0
    return {
        "t": t.tolist(),
        "s": s.tolist(),
        "a": 0.0,
        "s0": math.log(2.0),
        "kappa0": 0.5,
        "kappa_grid": {"start": -0.36, "stop": 0.36, "num": 41},
    }


def schrodinger_params(n_half):
    """Grid of 2N+1 points on [-8, 8] with the default potentials and e-grid."""
    return {"N": n_half, "h": 8.0 / n_half}


def make_config(workload, seed):
    """The JSON-ready config of one workload at one seed."""
    if workload == "cone_axioms_wide":
        kind, params = "cone_axioms", {"dims": [2, 8, 64, 200], "samples": 1000,
                                       "cones": ["axis", "orthant"]}
    elif workload == "pf_verdicts":
        kind, params = "pf_verify", {"dims": [8, 32, 64], "instances_per_flavor": 20,
                                     "flavors": ["degenerate-top", "generic",
                                                 "psd-simple"]}
    elif workload == "perturb_dense":
        kind, params = "perturb_sweep", dense_perturbation(seed, 128)
    elif workload == "schrodinger_grid":
        kind, params = "schrodinger", schrodinger_params(48)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return {"kind": kind, "seed": seed, "params": params}
