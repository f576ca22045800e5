"""Discrete 1-D magnetic Hamiltonians on a symmetric grid.

The grid has points x_j = j h for j in [-N, N] with Dirichlet truncation at
+/-(N+1).  The kinetic term is the 3-point Laplacian stencil; the momentum
p = -i d/dx entering the magnetic cross terms is the central difference
-i (f_{j+1} - f_{j-1}) / (2h).  With even potentials the full Hamiltonian
commutes with the antilinear parity conjugation (C f)_j = conj(f_{-j}),
whose fixed-point set is a real Hilbert space; restricting to it yields a
real symmetric matrix with the same spectrum, which is where the cone
machinery applies.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import AsymmetricPotential, NotRealCompatible
from .operators import (
    ComplexOperator,
    SymmetricOperator,
    bottom_eigen,
    checked_eigh,
    heat_semigroup,
)
from .perturbation import (
    PerturbationFamily,
    end_to_end_semigroup_check,
    semigroup_threshold,
)
from .positivity import improves_positivity_axis
from .tolerances import (
    DEMO_WITNESS_TOL,
    MAGNETIC_COMMUTATION_TOL,
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
    """Even scalar potential, even vector potential, and a coupling strength."""

    grid: GridSpec
    v_values: np.ndarray
    a_values: np.ndarray
    coupling: float

    def __post_init__(self):
        object.__setattr__(self, "v_values", _even_values(self.grid, self.v_values, "V"))
        object.__setattr__(self, "a_values", _even_values(self.grid, self.a_values, "a"))

    @staticmethod
    def from_functions(grid, v_fn, a_fn, coupling):
        x = grid.points
        # evaluate on |x| so evenness holds exactly in floating point
        v = np.array([float(v_fn(abs(xi))) for xi in x])
        a = np.array([float(a_fn(abs(xi))) for xi in x])
        return MagneticModel(grid=grid, v_values=v, a_values=a, coupling=float(coupling))

    def with_coupling(self, coupling):
        return MagneticModel(grid=self.grid, v_values=self.v_values,
                             a_values=self.a_values, coupling=float(coupling))


class RealStructure:
    """Parity conjugation (C f)_j = conj(f_{-j}) and a basis of its fixed space.

    Basis columns: delta_0, then (delta_j + delta_{-j})/sqrt(2) and
    (i delta_j - i delta_{-j})/sqrt(2) for j = 1..N.  They are orthonormal
    and each is fixed by C, so the column map is an isometry from R^{2N+1}
    onto the real fixed-point space.
    """

    def __init__(self, grid):
        self.grid = grid
        n = grid.n_half
        dim = grid.dim
        basis = np.zeros((dim, dim), dtype=complex)
        center = n  # array index of x = 0
        basis[center, 0] = 1.0
        col = 1
        for j in range(1, n + 1):
            plus, minus = center + j, center - j
            basis[plus, col] = 1.0 / SQRT2
            basis[minus, col] = 1.0 / SQRT2
            col += 1
            basis[plus, col] = 1j / SQRT2
            basis[minus, col] = -1j / SQRT2
            col += 1
        basis.setflags(write=False)
        self.basis = basis

    def commutation_residual(self, H):
        """max_k || H C e_k - C H e_k || over the standard basis.

        C e_k is the reversed basis vector and C H e_k the conjugated reversed
        column k, so the k-th residual is column k of H[:, ::-1] - conj(H[::-1, :]).
        """
        m = H.matrix if isinstance(H, ComplexOperator) else np.asarray(H, dtype=complex)
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


def build_h0(model):
    """Free Hamiltonian: 3-point Laplacian plus the diagonal potential."""
    _even_values(model.grid, model.v_values, "V")
    h0 = laplacian_matrix(model.grid) + np.diag(model.v_values)
    return ComplexOperator.from_matrix(h0.astype(complex))


def magnetic_terms(model):
    """H0, M1 = p a + a p and M2 = diag(a^2), so that H(e) = H0 + e M1 + e^2 M2.

    The coupling of the model is ignored: the terms define the whole family.
    """
    a_diag = np.diag(model.a_values.astype(complex))
    p = momentum_matrix(model.grid)
    m1 = ComplexOperator.from_matrix(p @ a_diag + a_diag @ p)
    m2 = ComplexOperator.from_matrix(np.diag(model.a_values**2).astype(complex))
    return build_h0(model), m1, m2


def build_magnetic(model):
    """Full Hamiltonian p^2 + e (p a + a p) + e^2 a^2 + V at the model's coupling.

    p^2 is the 3-point Laplacian (the square of the central difference
    decouples the even and odd sublattices, so the standard local stencil is
    used instead); the cross terms use the central-difference p.  The result
    is Hermitian and commutes with the parity conjugation.
    """
    h0, m1, m2 = magnetic_terms(model)
    e = model.coupling
    h = h0.matrix + e * m1.matrix + e**2 * m2.matrix
    op = ComplexOperator.from_matrix(h)
    residual = RealStructure(model.grid).commutation_residual(op)
    scale = max(1.0, float(np.max(np.abs(h))))
    if residual > MAGNETIC_COMMUTATION_TOL * scale:
        raise NotRealCompatible(f"conjugation commutation residual {residual:.3e}")
    return op


def restrict_to_real(H, rs):
    """Compress a conjugation-compatible Hamiltonian to the real fixed space.

    Returns B* H B for the fixed-space isometry B; the output is real
    symmetric and carries exactly the same eigenvalues as H.
    """
    m = H.matrix if isinstance(H, ComplexOperator) else np.asarray(H, dtype=complex)
    scale = max(1.0, float(np.max(np.abs(m))))
    residual = rs.commutation_residual(m)
    if residual > REAL_COMMUTATION_TOL * scale:
        raise NotRealCompatible(
            f"commutation residual {residual:.3e} exceeds "
            f"{REAL_COMMUTATION_TOL:.0e} * {scale:.3g}"
        )
    compressed = rs.basis.conj().T @ m @ rs.basis
    imag = float(np.max(np.abs(compressed.imag)))
    if imag > REAL_IMAG_TOL * scale:
        raise NotRealCompatible(f"restriction has imaginary residual {imag:.3e}")
    restricted = SymmetricOperator(compressed.real)
    spec_original = np.sort(np.linalg.eigvalsh(m))
    spec_restricted = restricted.decomposition.eigenvalues
    drift = float(np.max(np.abs(spec_original - spec_restricted)))
    if drift > REAL_SPECTRUM_TOL * scale:
        raise NotRealCompatible(f"restricted spectrum drifted by {drift:.3e}")
    return restricted


def _expm_hermitian(m, s):
    w, u = checked_eigh(m)
    return (u * np.exp(-s * w)) @ u.conj().T


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


def orthant_failure_demo(model, s):
    """Push the Gaussian bump exp(-x^2) through exp(-sH) and watch it leave the cone.

    With nonzero coupling, the image generically develops an imaginary part,
    certifying that the semigroup does not preserve the nonnegative cone
    (non-ergodicity itself is not certified here).  At e = 0 the run is a
    positivity control and reports inapplicable_control.
    """
    if s <= 0:
        raise ValueError("demo time s must be positive")
    x = model.grid.points
    v = np.exp(-x * x)
    h = build_magnetic(model) if model.coupling != 0.0 else build_h0(model)
    image = _expm_hermitian(h.matrix, s) @ v.astype(complex)
    max_imag = float(np.max(np.abs(image.imag)))
    min_real = float(np.min(image.real))
    if model.coupling == 0.0:
        status = "inapplicable_control"
    elif max_imag > DEMO_WITNESS_TOL or min_real < -DEMO_WITNESS_TOL:
        status = "witness_found"
    else:
        status = "no_witness"
    return OrthantDemoReport(coupling=model.coupling, time=float(s), max_imag=max_imag,
                             min_real=min_real, peak=float(np.max(np.abs(image))),
                             status=status)


@dataclass(frozen=True)
class MagneticExperimentReport:
    """Full pipeline output for the magnetic coupling sweep."""

    budget: object
    base_verdicts: tuple      # improvement of exp(-s H0) w.r.t. its own ground axis
    sweep: object             # end-to-end rows over admissible couplings
    ground_energy: float
    admissible_coupling: float

    @property
    def all_true(self):
        return (all(v.is_true for v in self.base_verdicts)
                and all(row.verdict.is_true for row in self.sweep.rows))


def magnetic_experiment(model, e_grid, s0, s_samples=None, seed=0):
    """Sweep the coupling: gap budget, admissible range, per-(e, s) verdicts.

    Pipeline: restrict H0, M1 and M2 once each, take the unit ground vector
    of H0 as the cone axis, certify improvement of exp(-s H0), then treat
    e M1 + e^2 M2 as a quadratic perturbation family with a(e) = 0 and
    b(e) = ||e M1 + e^2 M2|| and run the semigroup budget and end-to-end
    sweep over admissible couplings from the grid.
    """
    if s0 <= 0:
        raise ValueError("s0 must be positive")
    if s_samples is None:
        s_samples = [s0 / 4.0, s0 / 2.0, s0]
    rs = RealStructure(model.grid)
    h0, m1, m2 = (restrict_to_real(term, rs) for term in magnetic_terms(model))
    mu, ground, _ = bottom_eigen(h0, require_simple=True)

    base_verdicts = []
    for s in s_samples:
        base_verdicts.append(improves_positivity_axis(heat_semigroup(h0, s), ground))

    family = PerturbationFamily((m1, m2))
    e_grid = np.asarray(e_grid, dtype=float)
    kappa0 = float(np.max(np.abs(e_grid))) + 1e-12
    budget = semigroup_threshold(h0, family, s0=s0, kappa0=kappa0, kappa_grid=e_grid)
    sweep = end_to_end_semigroup_check(h0, family, budget, s_samples, seed=seed)
    return MagneticExperimentReport(
        budget=budget,
        base_verdicts=tuple(base_verdicts),
        sweep=sweep,
        ground_energy=mu,
        admissible_coupling=budget.kappa_threshold,
    )


POTENTIAL_PRESETS = {
    "harmonic": lambda x: x * x,
    "gaussian_well": lambda x: -math.exp(-x * x),
    "gaussian": lambda x: math.exp(-x * x),
    "zero": lambda x: 0.0,
}

