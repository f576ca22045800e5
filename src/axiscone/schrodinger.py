"""Discrete 1-D magnetic Hamiltonians on a symmetric grid.

The grid has points x_j = j h for j in [-N, N] with Dirichlet truncation at
+/-(N+1).  The kinetic term is the 3-point Laplacian stencil; the momentum
p = -i d/dx entering the magnetic cross terms is the central difference
-i (f_{j+1} - f_{j-1}) / (2h).  With even potentials each term of H(e) =
H0 + e M1 + e^2 M2 commutes with the antilinear parity conjugation
(C f)_j = conj(f_{-j}), whose fixed-point set is a real Hilbert space; in its
parity basis the terms are real symmetric with the same spectra, where the
cone machinery applies.  magnetic_terms(model) writes them down there in
closed form, and H(e) is held only so, as the budget's H_r(e) = T + S(e): no
complex array is formed.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AsymmetricPotential,
    ContractViolation,
    RelativeBoundUncertified,
    SemigroupOverflow,
)
from .operators import UNIT_ROUNDOFF, SymmetricOperator, bottom_eigen, heat_semigroup
from .perturbation import (
    PerturbationFamily,
    end_to_end_semigroup_check,
    semigroup_threshold,
)
from .positivity import improves_positivity_axis
from .tolerances import DEMO_WITNESS_TOL

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


def magnetic_terms(model):
    """H0, M1 and M2 of H(e) = H0 + e M1 + e^2 M2, restricted to the real fixed space.

    Columns are the parity basis delta_0, then (delta_j + delta_{-j})/sqrt(2)
    (even_j) and (i delta_j - i delta_{-j})/sqrt(2) (odd_j) for j = 1..N, each
    fixed by C.  In it the complex terms H0 = p^2 + V, M1 = p a + a p and
    M2 = diag(a^2) become real and keep their spectra; their entries are
    written down from the model's values at x_0..x_N, which evenness makes
    exact:
      H0: 2/h^2 + v_j on the diagonal, -1/h^2 between neighbours of one parity
          sector and -sqrt(2)/h^2 between delta_0 and even_1;
      M1: (a_j + a_{j+1})/(2h) between even_j and odd_{j+1}, its negative
          between odd_j and even_{j+1}, and sqrt(2)(a_0 + a_1)/(2h) between
          delta_0 and odd_1;
      M2: diag(a_0^2, a_1^2, a_1^2, ..., a_N^2, a_N^2).
    p^2 is the 3-point Laplacian (the square of the central difference
    decouples the even and odd sublattices, so the standard local stencil is
    used instead); M1 uses the central difference p.  H0 and M2 share their
    other entries bit for bit with the complex terms, M1's differ only in the
    order of rounding, and each sqrt(2) entry rounds once more, so each
    spectrum lies within about 2u max |H_ij| of its complex term's (Weyl).
    All three are read-only real arrays.
    """
    grid = model.grid
    h2 = grid.spacing**2
    site = (np.arange(grid.dim) + 1) // 2        # column -> j of its grid pair
    v, a = model.v_values[grid.n_half:], model.a_values[grid.n_half:]
    h0 = np.diag(2.0 / h2 + v[site])
    same = np.arange(1, grid.dim - 2)             # even_j/even_{j+1}, odd_j/odd_{j+1}
    h0[same, same + 2] = h0[same + 2, same] = -1.0 / h2
    h0[0, 1] = h0[1, 0] = -SQRT2 / h2
    m1 = np.zeros((grid.dim, grid.dim))
    step = (a[:-1] + a[1:]) / (2.0 * grid.spacing)   # (a_j + a_{j+1})/(2h), j = 0..N-1
    even = np.arange(1, grid.dim - 2, 2)             # even_j, j = 1..N-1; odd_j is even + 1
    m1[even, even + 3] = m1[even + 3, even] = step[1:]
    m1[even + 1, even + 2] = m1[even + 2, even + 1] = -step[1:]
    m1[0, 2] = m1[2, 0] = SQRT2 * step[0]
    terms = (h0, m1, np.diag(a[site] ** 2))
    for term in terms:
        term.setflags(write=False)
    return terms


def m1_norm_bound(m1):
    """A candidate b1 >= ||M1|| for M1 of magnetic_terms, read from its parity
    cross block; magnetic_experiment's family proves it.

    M1 couples only the sectors E = (delta_0, even_1..even_N), columns 0, 1,
    3, .., 2N-1, and O = (odd_1..odd_N), columns 2, 4, .., 2N; its E x E and
    O x O blocks must be exactly zero (else ContractViolation).  So M1 is the
    Jordan-Wielandt form of its (N+1) x N block C = M1[E, O], and ||M1|| =
    sigma_max(C) (Golub & Van Loan, Matrix Computations, 8.6).  The candidate
    is b1 = s (1 + 8 (N + 2)^2 u), s the largest singular value of
    np.linalg.svd(C) and u the unit roundoff: the margin 2 theta s^2 of b1^2 I
    - M1^2, theta = 8 (N + 2)^2 u, covers the SVD's error, of order N u s^2,
    and the guard plus error of the one certificate that proves b1, about
    2 (2N + 1)^2 u s^2 (perturbation._check_relative_bound).
    """
    n = m1.dim // 2
    a = m1.matrix
    even, odd = np.r_[0, 1:2 * n:2], np.arange(2, 2 * n + 1, 2)
    if np.any(a[np.ix_(even, even)]) or np.any(a[np.ix_(odd, odd)]):
        raise ContractViolation("M1 couples a parity sector to itself")
    sigma = float(np.linalg.svd(a[np.ix_(even, odd)], compute_uv=False)[0])
    return sigma * (1.0 + 8.0 * (n + 2) ** 2 * UNIT_ROUNDOFF)


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

    The bump v is real and even, so exp(-s H(e)) v is the parity-basis vector
    y = exp(-s H_r(e)) c for the bump's coordinates c (c_0 = v_0, c_even_j =
    sqrt(2) v_j, c_odd_j = 0) and H_r(e) = budget.operator_at(e) of
    `experiment` (a MagneticExperimentReport): T at e = 0, the held operator
    at an admissible grid coupling.  The image at x_{+-j} is (y_even_j +- i
    y_odd_j)/sqrt(2), and y_0 at x_0.  exp(-s H_r(e)) is applied through its
    checked spectrum; no propagator matrix is formed.  With nonzero coupling
    the image generically develops an imaginary part, certifying that the
    semigroup does not preserve the nonnegative cone (non-ergodicity itself
    is not certified here).  At e = 0 the run is a positivity control,
    inapplicable_control.  An image beyond the float range raises
    SemigroupOverflow.
    """
    if s <= 0:
        raise ValueError("demo time s must be positive")
    grid = experiment.grid
    bump = np.exp(-grid.points[grid.n_half:] ** 2)
    coordinates = np.zeros(grid.dim)
    coordinates[0], coordinates[1::2] = bump[0], SQRT2 * bump[1:]
    flow = heat_semigroup(experiment.budget.operator_at(e), s).decomposition
    q = flow.eigenvectors
    with np.errstate(over="ignore", invalid="ignore"):
        y = q @ (flow.eigenvalues * (q.T @ coordinates))
    if not np.all(np.isfinite(y)):
        raise SemigroupOverflow(f"exp(-s H) maps the bump beyond the float range at s={s}")
    real, imag = y[1::2] / SQRT2, y[2::2] / SQRT2
    max_imag = float(np.max(np.abs(imag)))
    min_real = float(min(y[0], np.min(real)))
    peak = float(max(abs(y[0]), np.max(np.hypot(real, imag))))
    if e == 0.0:
        status = "inapplicable_control"
    elif max_imag > DEMO_WITNESS_TOL or min_real < -DEMO_WITNESS_TOL:
        status = "witness_found"
    else:
        status = "no_witness"
    return OrthantDemoReport(coupling=float(e), time=float(s), max_imag=max_imag,
                             min_real=min_real, peak=peak, status=status)


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

    Pipeline: build the restricted H0, M1 and M2 once (M2 held by its
    spectrum), take the unit ground vector of H0 as the cone axis, treat
    e M1 + e^2 M2 as a quadratic perturbation family with a(e) = 0 and the
    coefficient bound b(e) = |e| b1 + e^2 ||M2||, run the semigroup budget
    and the end-to-end sweep over admissible couplings from the grid (which
    checks every heat time against the budget), then certify improvement of
    exp(-s H0).  b(e) is a proven upper bound on ||e M1 + e^2 M2||: b1 is
    M1's candidate from its parity cross block (m1_norm_bound), which the
    budget proves as it proves every given coefficient bound; M2 is diagonal,
    so ||M2|| = max a^2 is read from its held spectrum.  A candidate the
    budget rejects is a toolkit bug (ContractViolation).  The family's parity
    P = diag(+1 on delta_0 and even_j, -1 on odd_j) gives H_r(-e) = P H_r(e) P,
    so a coupling may take its examined mirror's spectrum (semigroup_threshold).
    The heat times default to s0/4, s0/2 and s0.
    """
    if s0 <= 0:
        raise ValueError("s0 must be positive")
    s_samples = tuple([s0 / 4.0, s0 / 2.0, s0] if s_samples is None else s_samples)
    h0, m1, m2 = magnetic_terms(model)
    order = np.argsort(np.diagonal(m2), kind="stable")   # M2 is diagonal: its norm takes no eigh
    m2 = SymmetricOperator.from_spectrum(np.diagonal(m2)[order], np.eye(len(order))[:, order])
    h0, m1 = SymmetricOperator(h0), SymmetricOperator(m1)
    _, ground, _ = bottom_eigen(h0, require_simple=True)

    parity = np.ones(h0.dim)
    parity[2::2] = -1.0   # odd_j; H0 and M2 keep the sectors and M1 couples them
    family = PerturbationFamily((m1, m2), b=(m1_norm_bound(m1), None), parity=parity)
    e_grid = np.asarray(e_grid, dtype=float)
    kappa0 = float(np.max(np.abs(e_grid))) + 1e-12
    try:
        budget = semigroup_threshold(h0, family, s0=s0, kappa0=kappa0, kappa_grid=e_grid)
    except RelativeBoundUncertified as exc:
        raise ContractViolation(f"M1's norm bound is not proven: {exc}") from exc
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

