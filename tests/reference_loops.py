"""Reference forms that faster or simpler code in the toolkit replaced.

The per-sample loops are the one-vector code as it stood before the block
forms of the positivity layer; `contour_image` is the dense-solve contour
rule that the drift layer used before it took the drifted axis from the
eigenbasis; `arc_sweep_margin` is the exhaustive dim-2 sweep that the
improvement verdict ran before its closed-form S-lemma test;
`compressed_restricted_top` is the exact restricted top eigenvalue that
`restricted_top` computed before it returned its closed-form bound.  Tests
compare the toolkit against them on seeded instances.
"""

import math

import numpy as np

from axiscone.cones import OrthantCone, Region, sample_in_cone
from axiscone.operators import perp_basis
from axiscone.positivity import MAX_POWER, PRESERVATION_SAMPLES, VerdictStatus
from axiscone.seeding import rng_for
from axiscone.tolerances import DRIFT_CERT_TOL, TAU_STRICT


def one_vector_sample(cone, rng):
    """The one-vector sampler that `sample_in_cone` replaced, kept as its stream reference.

    Also returns ||g|| / ||g_perp|| of the projected normal row (1 when none
    is projected): rounding in the projection grows by that factor.
    """
    if isinstance(cone, OrthantCone):
        u = np.abs(rng.standard_normal(cone.dim))
        if rng.random() < 0.5 and cone.dim > 1:
            u[rng.integers(cone.dim)] = 0.0
        if np.linalg.norm(u) == 0.0:
            u[0] = 1.0
        return u, 1.0
    if cone.dim == 1:
        return cone.axis * float(rng.uniform(0.1, 2.0)), 1.0
    g = rng.standard_normal(cone.dim)
    g_norm = np.linalg.norm(g)
    g -= (cone.axis @ g) * cone.axis
    nrm = np.linalg.norm(g)
    while nrm < 1e-12:
        g = rng.standard_normal(cone.dim)
        g_norm = np.linalg.norm(g)
        g -= (cone.axis @ g) * cone.axis
        nrm = np.linalg.norm(g)
    t = 1.0 if rng.random() < 0.5 else float(rng.uniform(0.0, 0.999))
    scale = float(rng.uniform(0.1, 2.0))
    return scale * (cone.axis + t * (g / nrm)), g_norm / nrm


def preserves_by_loop(A, cone, seed):
    """Sampled branch of preserves_positivity, sample by sample with its early exit.

    Returns (status, index of the witness row in the sampled block, margin).
    """
    worst, worst_index = math.inf, None
    for index, u in enumerate(sample_in_cone(cone, rng_for(seed, 0), PRESERVATION_SAMPLES)):
        image = A.apply(u)
        nrm = float(np.linalg.norm(image))
        margin = cone.margin(image) / max(nrm, 1e-300)
        if margin < worst:
            worst, worst_index = margin, index
        if nrm > 0 and cone.classify(image) is Region.OUTSIDE:
            return VerdictStatus.CERTIFIED_FALSE, index, margin
    return VerdictStatus.SAMPLED_TRUE, worst_index, worst


def probe_by_loop(A, u, v):
    """One-pair ergodic probe: (found, first power, value)."""
    u_norm = float(np.linalg.norm(u))
    w = np.array(v, dtype=float)
    log_scale = 0.0
    for n in range(1, MAX_POWER + 1):
        w = A.apply(w)
        nw = float(np.linalg.norm(w))
        if nw == 0.0:
            return False, MAX_POWER, 0.0
        if nw > 1e100 or nw < 1e-100:
            log_scale += math.log(nw)
            w = w / nw
            nw = 1.0
        inner = float(u @ w)
        if inner > TAU_STRICT * u_norm * nw:
            try:
                value = inner * math.exp(log_scale)
            except OverflowError:
                value = math.inf
            return True, n, value
    return False, MAX_POWER, float(u @ w) * math.exp(min(log_scale, 700.0))


def drift_check_by_loop(A, u0, u1, rows):
    """ergodic_drift_check's pair loop over sampled rows: (status, margin, witness).

    Pair i is rows 2i and 2i + 1.  Checks the certificates of u_i and v_i,
    then probes pair i, and stops at the first failure.
    """
    slack = 1.0 / math.sqrt(2.0) - float(np.linalg.norm(u1 - u0))
    worst = math.inf
    for u, v in zip(rows[0::2], rows[1::2]):
        for w in (u, v):
            certificate = float(u0 @ w) / float(np.linalg.norm(w)) - slack
            worst = min(worst, certificate)
            if certificate < -DRIFT_CERT_TOL:
                return VerdictStatus.CERTIFIED_FALSE, certificate, w
        found, _, value = probe_by_loop(A, u, v)
        if not found:
            return VerdictStatus.CERTIFIED_FALSE, value, u
    return VerdictStatus.SAMPLED_TRUE, worst, None


def contour_image(t, center, radius, rhs, nodes=64):
    """P rhs for the spectral projector P of t inside |z - center| = radius.

    The trapezoidal rule P = (radius/nodes) sum_k w_k (z_k - t)^{-1} on the
    full circle, z_k = center + radius w_k with w_k the nodes-th roots of
    unity: one complex dense solve per node and no eigendecomposition.
    """
    eye = np.eye(t.dim)
    acc = np.zeros(t.dim, dtype=complex)
    for k in range(nodes):
        w = np.exp(2j * np.pi * k / nodes)
        acc += w * np.linalg.solve((center + radius * w) * eye - t.matrix, rhs)
    return (radius / nodes) * acc.real


def arc_sweep_margin(A, axis, step_deg=0.01):
    """Least sqrt(2) <axis, A u> - ||A u|| over unit u on the dim-2 cone arc.

    Sweeps the arc of half-width 45 degrees around the axis at step_deg,
    both boundary rays included; the margin is positive iff A u is interior.
    Returns (margin, argmin).
    """
    theta1 = math.atan2(axis[1], axis[0])
    thetas = theta1 + np.linspace(-math.pi / 4, math.pi / 4, round(90.0 / step_deg) + 1)
    rays = np.vstack([np.cos(thetas), np.sin(thetas)])
    images = A.matrix @ rays
    margins = math.sqrt(2.0) * (axis @ images) - np.linalg.norm(images, axis=0)
    k = int(np.argmin(margins))
    return float(margins[k]), rays[:, k]


def compressed_restricted_top(A, u0):
    """Largest eigenvalue of the compression of A to the complement of u0.

    One O(n^3) product and one eigvalsh; None in dimension 1.
    """
    basis = perp_basis(u0)
    if basis.shape[1] == 0:
        return None
    block = basis.T @ A.matrix @ basis
    return float(np.max(np.linalg.eigvalsh((block + block.T) / 2.0)))
