"""Discrete 1-D magnetic Hamiltonians on a symmetric grid.

The grid has points x_j = j h for j in [-N, N] with Dirichlet truncation at
+/-(N+1).  The kinetic term is the 3-point Laplacian stencil; the momentum
p = -i d/dx entering the magnetic cross terms is the central difference
-i (f_{j+1} - f_{j-1}) / (2h).  H(e) = H0 + e M1 + e^2 M2 has the terms of
magnetic_terms(model).  With even potentials each commutes with the antilinear
parity conjugation (C f)_j = conj(f_{-j}), whose fixed-point set is a real
Hilbert space; restricted to its parity_basis they are real symmetric with
the same spectra, where the cone machinery applies.  H(e) is held only so,
as the budget's H_r(e) = T + S(e); no complex H(e) is assembled.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import AsymmetricPotential, NotRealCompatible, SemigroupOverflow
from .operators import SymmetricOperator, bottom_eigen, heat_semigroup
from .perturbation import (
    PerturbationFamily,
    end_to_end_semigroup_check,
    semigroup_threshold,
)
from .positivity import improves_positivity_axis
from .tolerances import (
    DEMO_WITNESS_TOL,
    REAL_COMMUTATION_TOL,
    REAL_IMAG_TOL,
    REAL_SPECTRUM_TOL,
)

SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class GridSpec:
    """Symmetric grid x_j = j*h, j in [-n_half, n_half]."""

    n_half: int
    spacing: float

    def __post_init__(self):
        if self.n_half < 1:
            raise ValueError("n_half must be >= 1")
        if self.spacing <= 0:
            raise ValueError("spacing must be positive")

    @property
    def dim(self):
        return 2 * self.n_half + 1

    @property
    def points(self):
        return np.arange(-self.n_half, self.n_half + 1) * self.spacing


def _even_values(grid, values, name):
    v = np.asarray(values, dtype=float)
    if v.shape != (grid.dim,):
        raise ValueError(f"{name} must have {grid.dim} grid values")
    if not np.array_equal(v, v[::-1]):
        raise AsymmetricPotential(f"{name} must be an even grid function, exactly")
    v = v.copy()
    v.setflags(write=False)
    return v


@dataclass(frozen=True)
class MagneticModel:
    """Even scalar potential and even vector potential; the coupling is an argument."""

    grid: GridSpec
    v_values: np.ndarray
    a_values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "v_values", _even_values(self.grid, self.v_values, "V"))
        object.__setattr__(self, "a_values", _even_values(self.grid, self.a_values, "a"))

    @staticmethod
    def from_functions(grid, v_fn, a_fn):
        x = grid.points
        # evaluate on |x| so evenness holds exactly in floating point
        v = np.array([float(v_fn(abs(xi))) for xi in x])
        a = np.array([float(a_fn(abs(xi))) for xi in x])
        return MagneticModel(grid=grid, v_values=v, a_values=a)


def parity_basis(grid):
    """Orthonormal basis of the fixed space of (C f)_j = conj(f_{-j}), as columns.

    Columns: delta_0, then (delta_j + delta_{-j})/sqrt(2) and
    (i delta_j - i delta_{-j})/sqrt(2) for j = 1..N.  Each is fixed by C, so
    the column map is an isometry from R^{2N+1} onto the real fixed-point
    space.  The array is read-only.
    """
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
    basis.setflags(write=False)
    return basis


def commutation_residual(H):
    """max_k || H C e_k - C H e_k || over the standard basis, C the parity conjugation.

    C e_k is the reversed basis vector and C H e_k the conjugated reversed
    column k, so the k-th residual is column k of H[:, ::-1] - conj(H[::-1, :]).
    """
    m = np.asarray(H, dtype=complex)
    return float(np.max(np.linalg.norm(m[:, ::-1] - np.conj(m[::-1, :]), axis=0)))


def laplacian_matrix(grid):
    """3-point stencil with Dirichlet truncation: (2f_j - f_{j+1} - f_{j-1})/h^2."""
    dim = grid.dim
    h2 = grid.spacing**2
    lap = (np.diag(np.full(dim, 2.0)) - np.diag(np.ones(dim - 1), 1)
           - np.diag(np.ones(dim - 1), -1)) / h2
    return lap


def momentum_matrix(grid):
    """Central difference momentum: (p f)_j = -i (f_{j+1} - f_{j-1}) / (2h)."""
    dim = grid.dim
    p = np.zeros((dim, dim), dtype=complex)
    for j in range(dim - 1):
        p[j, j + 1] = -1j / (2.0 * grid.spacing)
        p[j + 1, j] = 1j / (2.0 * grid.spacing)
    return p


def magnetic_terms(model):
    """H0 = p^2 + V, M1 = p a + a p and M2 = diag(a^2), so that H(e) = H0 + e M1 + e^2 M2.

    p^2 is the 3-point Laplacian (the square of the central difference
    decouples the even and odd sublattices, so the standard local stencil is
    used instead); M1 uses the central-difference p.  All three are
    read-only complex arrays.
    """
    h0 = (laplacian_matrix(model.grid) + np.diag(model.v_values)).astype(complex)
    a = model.a_values
    p = momentum_matrix(model.grid)
    terms = (h0, p * a + a[:, None] * p, np.diag(a**2).astype(complex))
    for term in terms:
        term.setflags(write=False)
    return terms


def restrict_to_real(H, basis):
    """Compress a conjugation-compatible Hamiltonian to the real fixed space.

    Returns the real part of B* H B for the square basis B = `basis` (a parity_basis),
    with no decomposition: _spectrum_drift_bound proves its spectrum near H's.
    """
    m = np.asarray(H, dtype=complex)
    scale = max(1.0, float(np.max(np.abs(m))))
    residual = commutation_residual(m)
    if residual > REAL_COMMUTATION_TOL * scale:
        raise NotRealCompatible(f"commutation residual {residual:.3e} exceeds "
                                f"{REAL_COMMUTATION_TOL:.0e} * {scale:.3g}")
    compressed = basis.conj().T @ m @ basis
    imag = float(np.max(np.abs(compressed.imag)))
    if imag > REAL_IMAG_TOL * scale:
        raise NotRealCompatible(f"restriction has imaginary residual {imag:.3e}")
    drift = _spectrum_drift_bound(m, basis, compressed)
    if not drift <= REAL_SPECTRUM_TOL * scale:
        raise NotRealCompatible(f"restricted spectrum may drift by {drift:.3e}")
    return SymmetricOperator(compressed.real)


def _spectrum_drift_bound(H, basis, compressed):
    """Bound on how far the real part of `compressed` = fl(B* H B) moves H's eigenvalues,
    B square and n x n: eta ||H||, eta = ||B* B - I|| (Ostrowski), + ||Im|| (Weyl),
    + 8 (n + 2) u ||B||^2 (||H|| + 1) for rounding (complex X Y is off by < 1.5 (n + 2) u
    |X| |Y|, Higham 3.6); each 2-norm is bounded by max(||.||_1, ||.||_inf)."""
    gram = basis.conj().T @ basis - np.eye(len(H))
    h, b, eta, imag = (max(np.linalg.norm(m, 1), np.linalg.norm(m, np.inf))
                       for m in (H, basis, gram, compressed.imag))
    return float(eta * h + imag + 4.0 * (len(H) + 2) * np.finfo(float).eps * b**2 * (h + 1))


@dataclass(frozen=True)
class OrthantDemoReport:
    """Witness data for the heat flow leaving the nonnegative cone."""

    coupling: float
    time: float
    max_imag: float
    min_real: float
    peak: float       # largest |entry| of the image
    status: str  # witness_found | no_witness | inapplicable_control

    @property
    def left_cone(self):
        return self.status == "witness_found"


def orthant_failure_demo(experiment, e, s):
    """Push the Gaussian bump exp(-x^2) through exp(-s H(e)) and watch it leave the cone.

    The bump v is real and even, so exp(-s H(e)) v = B exp(-s H_r(e)) B* v for
    the parity basis B and H_r(e) = budget.operator_at(e) of `experiment` (a
    MagneticExperimentReport): T at e = 0, the held operator at an admissible
    grid coupling.  exp(-s H_r(e)) is applied through its checked spectrum; no
    propagator matrix is formed.  With nonzero coupling the image generically
    develops an imaginary part, certifying that the semigroup does not
    preserve the nonnegative cone (non-ergodicity itself is not certified
    here).  At e = 0 the run is a positivity control, inapplicable_control.
    An image beyond the float range raises SemigroupOverflow.
    """
    if s <= 0:
        raise ValueError("demo time s must be positive")
    basis = parity_basis(experiment.grid)
    x = experiment.grid.points
    coordinates = (basis.conj().T @ np.exp(-x * x)).real   # exactly real: the bump is even
    flow = heat_semigroup(experiment.budget.operator_at(e), s).decomposition
    q = flow.eigenvectors
    with np.errstate(over="ignore", invalid="ignore"):
        image = basis @ (q @ (flow.eigenvalues * (q.T @ coordinates)))
    if not np.all(np.isfinite(image)):
        raise SemigroupOverflow(f"exp(-s H) maps the bump beyond the float range at s={s}")
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


@dataclass(frozen=True)
class MagneticExperimentReport:
    """Full pipeline output for the magnetic coupling sweep."""

    grid: GridSpec
    budget: object
    s_samples: tuple
    base_verdicts: tuple      # improvement of exp(-s H0) w.r.t. its own ground axis, per s
    sweep: tuple              # end-to-end SweepRows over admissible couplings

    @property
    def all_true(self):
        return (all(v.is_true for v in self.base_verdicts)
                and all(row.verdict.is_true for row in self.sweep))


def magnetic_experiment(model, e_grid, s0, s_samples=None):
    """Sweep the coupling: gap budget, admissible range, per-(e, s) verdicts.

    Pipeline: restrict H0, M1 and M2 once each, take the unit ground vector
    of H0 as the cone axis, treat e M1 + e^2 M2 as a quadratic perturbation
    family with a(e) = 0 and the coefficient-norm bound b(e) = |e| ||M1|| +
    e^2 ||M2||, run the semigroup budget and the end-to-end sweep over
    admissible couplings from the grid (which checks every heat time against
    the budget), then certify improvement of exp(-s H0).  The heat times
    default to s0/4, s0/2 and s0.
    """
    if s0 <= 0:
        raise ValueError("s0 must be positive")
    s_samples = tuple([s0 / 4.0, s0 / 2.0, s0] if s_samples is None else s_samples)
    basis = parity_basis(model.grid)
    h0, m1, m2 = (restrict_to_real(term, basis) for term in magnetic_terms(model))
    _, ground, _ = bottom_eigen(h0, require_simple=True)

    family = PerturbationFamily((m1, m2))
    e_grid = np.asarray(e_grid, dtype=float)
    kappa0 = float(np.max(np.abs(e_grid))) + 1e-12
    budget = semigroup_threshold(h0, family, s0=s0, kappa0=kappa0, kappa_grid=e_grid)
    sweep = end_to_end_semigroup_check(budget, s_samples)
    base_verdicts = tuple(improves_positivity_axis(heat_semigroup(h0, s), ground)
                          for s in s_samples)
    return MagneticExperimentReport(grid=model.grid, budget=budget, s_samples=s_samples,
                                    base_verdicts=base_verdicts, sweep=sweep)


POTENTIAL_PRESETS = {
    "harmonic": lambda x: x * x,
    "gaussian_well": lambda x: -math.exp(-x * x),
    "gaussian": lambda x: math.exp(-x * x),
    "zero": lambda x: 0.0,
}

