"""Reference forms that faster or simpler code in the toolkit replaced.

The per-sample loops are the one-vector code as it stood before the block
forms of the positivity layer; `project_vector` is the per-vector nearest
point map that the cones kept beside `project_rows` until each cone primitive
kept its block form alone; `contour_image` is the dense-solve contour
rule that the drift layer used before it took the drifted axis from the
eigenbasis; `arc_sweep_margin` is the exhaustive dim-2 sweep that the
improvement verdict ran before its closed-form S-lemma test;
`compressed_restricted_top` is the exact restricted top eigenvalue that
`restricted_top` computed before it returned its closed-form bound, and the
compression that `improves_positivity_axis` decomposed on every degenerate
top before it read that case from the second eigenvalue;
`eager_from_spectrum` is `SymmetricOperator.from_spectrum` as it stood before
an operator held by its spectrum formed its matrix on first read;
`eager_degenerate_top` is the degenerate-top test instance as it stood before
it held the spectrum it is built from;
`probe_by_power_loop` is the block ergodicity probe as it stood before it
judged its powers in blocks, and `probe_by_spectrum` the evaluation through a
held spectrum that the probe kept for operators built from their spectrum,
written pair by pair and power by power: the oracle of the probe's decisions
on such operators, free of the rounding of their formed matrices; `sweep_by_rebuild` is
the semigroup sweep as it stood before the budget held its checked operators;
`threshold_by_decomposing` is the budget as it stood before grid gaps were
certified by Cholesky, with a checked eigh at every nonzero grid point and its
own b(kappa) from eigvalsh norms (`coefficient_norm_bound`), which tests run on
the grid points the budget examines; `laplacian_matrix`,
`momentum_matrix`, `complex_magnetic_terms`, `parity_basis` and
`compressed_to_real` are the complex terms of H(e) and their compression
Re(B* H B) to the real fixed space, as the Schrodinger pipeline built them
before it wrote the restricted terms down in closed form;
`assembled_magnetic` and `demo_by_complex_propagator` are the complex H(e)
and the orthant demo's dense complex propagator exp(-s H(e));
`exactly_positive_definite` decides positive definiteness in exact rational
arithmetic, the oracle of the floating-point certificate.  Tests compare the
toolkit against them on seeded instances.
"""

import math
from fractions import Fraction

import numpy as np

from axiscone.cones import OrthantCone, Region, as_rows, row_margins, sample_in_cone
from axiscone.errors import DegenerateBottom, GapCollapsed, RatioSaturated
from axiscone.operators import (
    SpectralDecomposition,
    SymmetricOperator,
    bottom_eigen,
    heat_semigroup,
    perp_basis,
)
from axiscone.perturbation import (
    PerturbationBudget,
    SweepRow,
    _c_values,
    certified_improving_under_drift,
    drifted_axis,
    improvement_threshold,
    improving_radius,
    radius_from_alpha,
)
from axiscone.positivity import (
    MAX_POWER,
    PRESERVATION_SAMPLES,
    ProbeResult,
    VerdictStatus,
    improves_positivity_axis,
)
from axiscone.schrodinger import SQRT2, OrthantDemoReport
from axiscone.seeding import rng_for
from axiscone.tolerances import DEMO_WITNESS_TOL, GAP_COLLAPSE_TOL, TAU_STRICT


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


def project_vector(cone, w):
    """Nearest cone point of one vector, in closed form.

    Orthant: the positive part.  Axis cone: split w = s*axis + w_perp.  Inside
    (s >= ||w_perp||) is fixed; the polar opposite (s <= -||w_perp||) maps to
    0; in between the image is ((s + ||w_perp||)/2) * (axis + w_perp/||w_perp||).
    """
    w = np.asarray(w, dtype=float)
    if isinstance(cone, OrthantCone):
        return np.maximum(w, 0.0)
    s = float(cone.axis @ w)
    perp = w - s * cone.axis
    p = float(np.linalg.norm(perp))
    if p == 0.0:  # collinear with the axis; decide by the sign of s
        return w.copy() if s >= 0.0 else np.zeros_like(w)
    if s >= p:
        return w.copy()
    if s <= -p:
        return np.zeros_like(w)
    return ((s + p) / 2.0) * (cone.axis + perp / p)


def preserves_by_loop(A, cone, seed):
    """Sampled branch of preserves_positivity, sample by sample with its early exit.

    Returns (status, index of the witness row in the sampled block, margin).
    """
    worst, worst_index = math.inf, None
    for index, u in enumerate(sample_in_cone(cone, rng_for(seed, 0), PRESERVATION_SAMPLES)):
        image = A.apply(u)
        nrm = float(np.linalg.norm(image))
        margin = float(row_margins(cone, image[None], nrm)[0]) / max(nrm, 1e-300)
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


def probe_by_power_loop(A, us, vs):
    """ergodic_probe on a block of pairs, judged one power at a time.

    A, each u row and each v row are scaled once by the exact power of two
    that puts their largest |entry| in [0.5, 1); every power rescales each
    column whose largest |entry| leaves [1e-100, 1e100] by an exact power of
    two, judges and drops columns before the next product.  The toolkit's
    probe must return the same ProbeResult bit for bit.
    """
    us, vs = as_rows(us), as_rows(vs)
    k = len(us)
    powers, found = np.full(k, MAX_POWER), np.zeros(k, dtype=bool)
    inners, exponents = np.zeros(k), np.zeros(k, dtype=int)
    e_a = np.frexp(np.abs(A.matrix).max())[1]
    e_u, e_v = (np.frexp(np.abs(rows).max(axis=1))[1] for rows in (us, vs))
    a = np.ldexp(A.matrix, -e_a)
    u, w = np.ldexp(us.T, -e_u), np.ldexp(vs.T, -e_v)
    tol = TAU_STRICT * np.linalg.norm(u, axis=0)
    live, shift = np.arange(k), e_u + e_v
    for n in range(1, MAX_POWER + 1):
        w = a @ w
        peak = np.abs(w).max(axis=0)
        far = ((peak > 1e100) | (peak < 1e-100)) & (peak > 0.0)
        if far.any():
            e = np.frexp(peak[far])[1]
            w[:, far] = np.ldexp(w[:, far], -e)
            shift[far] += e
        inner = (u * w).sum(axis=0)
        hit = inner > tol * np.sqrt((w * w).sum(axis=0))
        done = hit | (peak == 0.0)
        if done.any():
            powers[live[hit]], found[live[hit]] = n, True
            inners[live[hit]], exponents[live[hit]] = inner[hit], shift[hit] + n * e_a
            keep = ~done
            live, u, w, tol, shift = live[keep], u[:, keep], w[:, keep], tol[keep], shift[keep]
            if not live.size:
                break
    inners[live], exponents[live] = (u * w).sum(axis=0), shift + MAX_POWER * e_a
    with np.errstate(over="ignore"):
        values = np.ldexp(inners, exponents)
    unfound = np.flatnonzero(~found)
    stop = int(unfound[0]) if unfound.size else k - 1
    return ProbeResult(found=not unfound.size, n=int(powers[:stop + 1].sum()),
                       value=float(values[stop]), pair=stop if unfound.size else None)


def probe_by_spectrum(A, us, vs):
    """ergodic_probe's decisions for an operator held by its spectrum, pair by pair
    and power by power through that spectrum: the decision oracle of the probe,
    which iterates the matrix the spectrum forms.

    Each u and v row is scaled by the exact power of two that puts its largest
    |entry| in [0.5, 1); y = Q^T u' and z = Q^T v' come from one product per
    block.  With w_i = m_i 2^a_i and z_i = zeta_i 2^b_i (frexp), the i-th term
    of the pairing at power n is m_i^n (zeta_i y_i) 2^(n a_i + b_i), m^n =
    m^(n-1) m taken one power at a time; every power is scaled by 2^-top, top
    the largest n a_i + b_i of a nonzero term, so that no leading term
    underflows.  The pairing and the squared image norm are summed by
    math.fsum, so each is one rounding of the exact sum of its rounded terms,
    and no rounding of a formed matrix enters a decision.  The value is that
    of the stopping pair, scaled back by 2^(e_u + e_v + top).
    """
    us, vs = as_rows(us), as_rows(vs)
    dec = A.decomposition
    m, a = np.frexp(dec.eigenvalues)
    e_u, e_v = (np.frexp(np.abs(rows).max(axis=1))[1] for rows in (us, vs))
    u, v = np.ldexp(us.T, -e_u), np.ldexp(vs.T, -e_v)
    ys, zs = dec.eigenvectors.T @ u, dec.eigenvectors.T @ v
    total, found = 0, True
    for pair in range(len(us)):
        y, (zeta, b) = ys[:, pair], np.frexp(zs[:, pair])
        tol = TAU_STRICT * float(np.linalg.norm(u[:, pair]))
        p = np.ones(len(m))
        for n in range(1, MAX_POWER + 1):
            p = p * m
            exps = n * a + b
            nonzero = (p * zeta) != 0.0
            top = int(exps[nonzero].max()) if nonzero.any() else 0
            inner = math.fsum(np.ldexp(p * (zeta * y), exps - top))
            norm = math.sqrt(math.fsum(np.ldexp(p * zeta, exps - top) ** 2))
            if inner > tol * norm:
                break
        else:
            found, inner = False, inner if norm > 0.0 else 0.0
        total += n
        with np.errstate(over="ignore"):
            value = np.ldexp(inner, int(e_u[pair] + e_v[pair]) + top)
        if not found:
            break
    return ProbeResult(found=found, n=total, value=float(value), pair=None if found else pair)


def drift_check_by_loop(A, u0, u1, rows):
    """ergodic_drift_check over sampled rows, pair by pair: (status, margin, witness).

    Pair i is rows 2i and 2i + 1; the loop probes pair i and stops at the
    first pair with no positive pairing.  A passing check returns the least
    sampled certificate <u0, w>/||w|| - (1/sqrt(2) - ||u1 - u0||) over the
    rows, which the check's exact certificate may not exceed.
    """
    slack = 1.0 / math.sqrt(2.0) - float(np.linalg.norm(u1 - u0))
    worst = math.inf
    for u, v in zip(rows[0::2], rows[1::2]):
        for w in (u, v):
            worst = min(worst, float(u0 @ w) / float(np.linalg.norm(w)) - slack)
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


def eager_from_spectrum(w, q):
    """Q diag(w) Q^T with its matrix formed at once, holding (w, q) as its decomposition."""
    w, q = np.array(w, dtype=float), np.array(q, dtype=float)
    op = SymmetricOperator((q * w) @ q.T)
    w.setflags(write=False)
    q.setflags(write=False)
    op._decomposition = SpectralDecomposition(eigenvalues=w, eigenvectors=q)
    return op


def eager_degenerate_top(dim, seed):
    """generate_instance("degenerate-top", dim, seed) with its matrix formed at
    once and its spectrum left to checked_eigh."""
    rng = rng_for(seed, 0)
    q = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
    eigs = np.sort(rng.uniform(0.2, 0.8, size=dim))
    eigs[-1] = 1.0
    eigs[-2] = 1.0
    return SymmetricOperator((q * eigs) @ q.T)


def sweep_by_rebuild(T, S_spec, budget, s_samples, kappas=None):
    """end_to_end_semigroup_check's rows, rebuilding and decomposing T + S(kappa) anew
    for every kappa, kappa = 0 included."""
    if kappas is None:
        kappas = [float(k) for k in budget.kappas[budget.admissible]]
    _, u0, _ = bottom_eigen(T, require_simple=True)
    rows = []
    for kappa in sorted(float(k) for k in kappas):
        t_kappa = T + S_spec.operator_at(kappa)
        axis_kappa, drift_bound, drift_actual = drifted_axis(t_kappa, u0, budget, kappa)
        for s in s_samples:
            semigroup = heat_semigroup(t_kappa, s)
            alpha_op, _ = improving_radius(semigroup, axis_kappa)
            if kappa == 0.0:
                verdict = improves_positivity_axis(semigroup, axis_kappa)
            else:
                verdict = certified_improving_under_drift(semigroup, alpha_op, axis_kappa, u0)
            rows.append(SweepRow(
                kappa=kappa, s=float(s), c_kappa=budget.c_at(kappa),
                drift_bound=drift_bound, drift_actual=drift_actual, verdict=verdict,
                alpha_op=alpha_op,
            ))
    return tuple(rows)


def coefficient_norm_bound(kappa, norms):
    """sum_k |kappa|^k norms[k - 1], summed from k = 1 with |kappa|^k formed by
    repeated multiplication."""
    power, total = 1.0, 0.0
    for norm in norms:
        power *= abs(kappa)
        total += power * norm
    return total


def threshold_by_decomposing(T, family, s0, kappa0, kappa_grid):
    """semigroup_threshold with a checked eigh of T + S(kappa) at every nonzero grid
    point, visited in grid order; kappa = 0 reads T's spectrum, and delta never
    exceeds T's own gap, on the grid or not.  b(kappa) is the coefficient bound
    sum_k |kappa|^k b_k written out, never read from b_at: b_k is the given bound,
    else ||S_1|| as the family reads it for a linear family and each ||S_k|| from
    np.linalg.eigvalsh above degree one.  No given bound is checked here."""
    if s0 <= 0:
        raise ValueError("s0 must be positive")
    if kappa0 <= 0:
        raise ValueError("kappa0 must be positive")
    kappas = np.atleast_1d(np.asarray(kappa_grid, dtype=float))
    if kappas.size == 0:
        raise ValueError("kappa grid must be nonempty")
    mu, _, _ = bottom_eigen(T, require_simple=True)

    gaps = np.empty(kappas.size)
    a_values = np.zeros(kappas.size)
    b_values = np.zeros(kappas.size)
    bounds = [b if b is not None else c.norm if family.degree == 1
              else float(np.max(np.abs(np.linalg.eigvalsh(c.matrix))))
              for b, c in zip(family.b, family.coefficients)]
    held = {}   # grid index -> checked T + S(kappa)
    for i, kappa in enumerate(kappas):
        if kappa == 0.0:
            t_kappa = T
        else:
            t_kappa = T + family.operator_at(kappa)
            a_values[i] = family.a * abs(kappa)
            b_values[i] = coefficient_norm_bound(kappa, bounds)
            held[i] = t_kappa
        eigs = t_kappa.decomposition.eigenvalues
        if eigs.size < 2:
            raise DegenerateBottom("need dimension >= 2 for a spectral gap")
        gaps[i] = float(eigs[1] - eigs[0])

    t_eigs = T.decomposition.eigenvalues
    delta = min(float(np.min(gaps)), float(t_eigs[1] - t_eigs[0]))
    if delta <= GAP_COLLAPSE_TOL * max(1.0, T.norm):
        raise GapCollapsed(f"uniform gap {delta:.3e} collapsed on the grid")
    epsilon = delta / 2.0
    alpha = 1.0 - math.exp(-s0 * delta)
    if alpha >= 1.0:
        raise RatioSaturated(f"alpha = 1 - exp(-s0 delta) rounds to 1: s0 delta = "
                             f"{s0 * delta:.6g} (s0 = {s0:g}, gap delta = {delta:.6g})")
    r = radius_from_alpha(alpha)
    c_threshold = improvement_threshold(r)
    c_values = _c_values(mu, epsilon, a_values, b_values)
    admissible = (np.abs(kappas) < kappa0) & (c_values < c_threshold)

    if family.degree == 1:
        # c(kappa) = slope |kappa|, the slope written out: a + ((|mu| + epsilon) a + b) / epsilon
        slope = family.a + ((abs(mu) + epsilon) * family.a + bounds[0]) / epsilon
        kappa_threshold = min(kappa0, math.inf if slope == 0 else c_threshold / slope)
    else:
        magnitudes = np.unique(np.abs(kappas))
        kappa_threshold = 0.0
        for mag in magnitudes:
            covered = np.abs(kappas) <= mag
            if np.all(admissible[covered]):
                kappa_threshold = float(mag)
            else:
                break
    return PerturbationBudget(
        T=T, family=family, mu=mu, delta=delta, epsilon=epsilon, s0=float(s0),
        alpha=alpha, r=r, c_threshold=c_threshold, kappa0=float(kappa0),
        kappas=kappas, gaps=gaps, a_values=a_values, b_values=b_values,
        c_values=c_values, admissible=admissible, kappa_threshold=kappa_threshold,
        operators={float(kappas[j]): op for j, op in held.items() if admissible[j]},
    )


def laplacian_matrix(grid):
    """3-point stencil with Dirichlet truncation: (2f_j - f_{j+1} - f_{j-1})/h^2."""
    dim = grid.dim
    h2 = grid.spacing**2
    return (np.diag(np.full(dim, 2.0)) - np.diag(np.ones(dim - 1), 1)
            - np.diag(np.ones(dim - 1), -1)) / h2


def momentum_matrix(grid):
    """Central difference momentum: (p f)_j = -i (f_{j+1} - f_{j-1}) / (2h)."""
    dim = grid.dim
    p = np.zeros((dim, dim), dtype=complex)
    for j in range(dim - 1):
        p[j, j + 1] = -1j / (2.0 * grid.spacing)
        p[j + 1, j] = 1j / (2.0 * grid.spacing)
    return p


def complex_magnetic_terms(model):
    """H0 = p^2 + V, M1 = p a + a p and M2 = diag(a^2) on the grid, as complex arrays."""
    h0 = (laplacian_matrix(model.grid) + np.diag(model.v_values)).astype(complex)
    a = model.a_values
    p = momentum_matrix(model.grid)
    return h0, p * a + a[:, None] * p, np.diag(a**2).astype(complex)


def parity_basis(grid):
    """Orthonormal basis of the fixed space of (C f)_j = conj(f_{-j}), as columns:
    delta_0, then (delta_j + delta_{-j})/sqrt(2) and (i delta_j - i delta_{-j})/sqrt(2)
    for j = 1..N."""
    basis = np.zeros((grid.dim, grid.dim), dtype=complex)
    center = grid.n_half  # array index of x = 0
    basis[center, 0] = 1.0
    col = 1
    for j in range(1, center + 1):
        plus, minus = center + j, center - j
        basis[plus, col] = 1.0 / SQRT2
        basis[minus, col] = 1.0 / SQRT2
        col += 1
        basis[plus, col] = 1j / SQRT2
        basis[minus, col] = -1j / SQRT2
        col += 1
    return basis


def compressed_to_real(H, grid):
    """Re(B* H B) for the parity basis B of `grid`, by dense complex products."""
    basis = parity_basis(grid)
    return (basis.conj().T @ np.asarray(H, dtype=complex) @ basis).real


def assembled_magnetic(model, e):
    """H(e) = H0 + e M1 + e^2 M2 as one complex Hermitian array."""
    h0, m1, m2 = complex_magnetic_terms(model)
    return h0 + e * m1 + e**2 * m2


def demo_by_complex_propagator(model, e, s):
    """The orthant demo with the propagator exp(-s H(e)) = U exp(-s W) U^H formed
    from a complex eigh of the assembled H(e), applied to the bump exp(-x^2)."""
    w, u = np.linalg.eigh(assembled_magnetic(model, e))
    x = model.grid.points
    image = ((u * np.exp(-s * w)) @ u.conj().T) @ np.exp(-x * x).astype(complex)
    max_imag = float(np.max(np.abs(image.imag)))
    min_real = float(np.min(image.real))
    if e == 0.0:
        status = "inapplicable_control"
    elif max_imag > DEMO_WITNESS_TOL or min_real < -DEMO_WITNESS_TOL:
        status = "witness_found"
    else:
        status = "no_witness"
    return OrthantDemoReport(coupling=float(e), time=float(s), max_imag=max_imag,
                             min_real=min_real, peak=float(np.max(np.abs(image))),
                             status=status)


def exactly_positive_definite(m, shift=0.0):
    """Whether the matrix m - shift I is positive definite, exactly: symmetric Gaussian
    elimination (LDL^T) on the rationals its entries denote (floats or Fractions),
    every pivot > 0."""
    a = [[x if isinstance(x, Fraction) else Fraction(float(x)) for x in row]
         for row in np.asarray(m)]
    for i in range(len(a)):
        a[i][i] -= Fraction(float(shift))
    for k in range(len(a)):
        if a[k][k] <= 0:
            return False
        for i in range(k + 1, len(a)):
            factor = a[i][k] / a[k][k]
            for j in range(k + 1, len(a)):
                a[i][j] -= factor * a[k][j]
    return True
