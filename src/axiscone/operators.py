"""Dense real symmetric operators: spectra, heat semigroups, complexification.

Everything lives at finite dimension with the Euclidean inner product, so all
operators are bounded and the spectrum is the eigenvalue set.  Spectral data
is computed once per operator by checked_eigh and cached; a heat semigroup
derives its spectrum from its generator's, a drifted ground axis
(perturbation.drifted_axis) is its generator's bottom eigenvector, and the
top eigenvalue on an axis complement is bounded from the same spectrum
(restricted_top), so no linear system is solved and no compression is
decomposed.  All returned arrays are read-only.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ContractViolation,
    CorrespondenceViolation,
    DegenerateBottom,
    DegenerateTop,
    NegativeTime,
    NonConvergence,
)
from .seeding import rng_for
from .tolerances import CORRESPONDENCE_TOL, RECON_TOL, TAU_GAP, TAU_SYM

CORRESPONDENCE_SAMPLES = 32   # random complex vectors in the Rayleigh clause (vii)


def as_vector(entries):
    """Validate and return a finite 1-D float vector."""
    v = np.asarray(entries, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("expected a nonempty 1-D real vector")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector entries must be finite (no NaN/Inf)")
    return v


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues in ascending order with orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def min_eigenvalue(self):
        return float(self.eigenvalues[0])

    @property
    def max_eigenvalue(self):
        return float(self.eigenvalues[-1])

    @property
    def operator_norm(self):
        return float(np.max(np.abs(self.eigenvalues)))


class SymmetricOperator:
    """Dense real symmetric matrix with cached spectral data.

    The stored matrix is the symmetrization (M + M^T)/2, with M/2 + M^T/2 for
    entries whose sum overflows, so finite input stays finite; inputs whose
    asymmetry exceeds TAU_SYM relative to the largest entry are rejected.
    """

    def __init__(self, matrix):
        m = np.array(matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
            raise ValueError("expected a square matrix")
        if not np.all(np.isfinite(m)):
            raise ValueError("matrix entries must be finite")
        scale = max(1.0, float(np.max(np.abs(m))))
        with np.errstate(over="ignore"):  # an overflowed defect is inf and rejected
            defect = float(np.max(np.abs(m - m.T)))
            if defect > TAU_SYM * scale:
                raise ValueError(
                    f"matrix asymmetry {defect:.3e} exceeds {TAU_SYM:.0e} * {scale:.3e}"
                )
            sym = (m + m.T) / 2.0
        overflow = np.isinf(sym)
        if overflow.any():  # sums beyond the float range: halve those entries first
            sym[overflow] = (m / 2.0 + m.T / 2.0)[overflow]
        self._hold(sym)

    def _hold(self, m):
        m.setflags(write=False)
        self._matrix = m
        self._decomposition = None

    @classmethod
    def _exact(cls, m):
        """Operator of a matrix symmetric bit for bit, such as an entrywise sum
        or multiple of symmetric ones: only the finiteness check runs."""
        if not np.all(np.isfinite(m)):
            raise ValueError("matrix entries must be finite")
        op = cls.__new__(cls)
        op._hold(m)
        return op

    @property
    def matrix(self):
        return self._matrix

    @property
    def dim(self):
        return self._matrix.shape[0]

    @property
    def decomposition(self):
        if self._decomposition is None:
            self._decomposition = spectral_decompose(self)
        return self._decomposition

    @property
    def norm(self):
        """Operator 2-norm, max |eigenvalue|."""
        return self.decomposition.operator_norm

    def apply(self, v):
        return self._matrix @ v

    def __add__(self, other):
        if isinstance(other, SymmetricOperator):
            if other.dim != self.dim:
                raise ValueError("dimension mismatch")
            # an overflowed entry is inf or nan, which _exact rejects with ValueError
            with np.errstate(over="ignore", invalid="ignore"):
                return SymmetricOperator._exact(self._matrix + other._matrix)
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, SymmetricOperator):
            if other.dim != self.dim:
                raise ValueError("dimension mismatch")
            with np.errstate(over="ignore", invalid="ignore"):
                return SymmetricOperator._exact(self._matrix - other._matrix)
        return NotImplemented

    def __mul__(self, scalar):
        with np.errstate(over="ignore", invalid="ignore"):
            return SymmetricOperator._exact(self._matrix * float(scalar))

    __rmul__ = __mul__

    def __repr__(self):
        return f"SymmetricOperator(dim={self.dim})"

    @staticmethod
    def from_spectrum(w, q):
        """Q diag(w) Q^T holding (w, q) as its decomposition: w ascending, q orthonormal."""
        w, q = np.array(w, dtype=float), np.array(q, dtype=float)
        op = SymmetricOperator((q * w) @ q.T)
        w.setflags(write=False)
        q.setflags(write=False)
        op._decomposition = SpectralDecomposition(eigenvalues=w, eigenvectors=q)
        return op

    @staticmethod
    def identity(dim):
        return SymmetricOperator.from_spectrum(np.ones(dim), np.eye(dim))


@dataclass(frozen=True)
class ComplexOperator:
    """Complex square matrix split into real and imaginary parts.

    With imag_part = 0 and real_part symmetric this is the canonical
    extension of a real symmetric operator to the complexified space.
    """

    real_part: np.ndarray
    imag_part: np.ndarray

    @staticmethod
    def from_matrix(matrix):
        m = np.asarray(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("expected a square matrix")
        re = np.array(m.real, dtype=float)
        im = np.array(m.imag, dtype=float)
        re.setflags(write=False)
        im.setflags(write=False)
        return ComplexOperator(re, im)

    @property
    def matrix(self):
        return self.real_part + 1j * self.imag_part

    @property
    def dim(self):
        return self.real_part.shape[0]

    def apply(self, v):
        return self.matrix @ np.asarray(v, dtype=complex)


def checked_eigh(m):
    """eigh of a real symmetric or complex Hermitian matrix, checked.

    An eigh failure or a non-finite eigenpair raises NonConvergence.
    ||Q L Q^H - M||_F above RECON_TOL * max(1, ||M||_F), or ||Q^H Q - I||_F
    above RECON_TOL, raises ContractViolation.
    """
    try:
        w, q = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(f"eigh failed: {exc}") from exc
    if not (np.all(np.isfinite(w)) and np.all(np.isfinite(q))):
        raise NonConvergence("eigh returned non-finite eigenpairs")
    qh = q.conj().T
    recon = float(np.linalg.norm((q * w) @ qh - m))
    orth = float(np.linalg.norm(qh @ q - np.eye(len(w))))
    if recon > RECON_TOL * max(1.0, float(np.linalg.norm(m))) or orth > RECON_TOL:
        raise ContractViolation(
            f"eigendecomposition residual {recon:.3e}, orthonormality defect {orth:.3e}"
        )
    return w, q


def spectral_decompose(A):
    """Eigenvalues ascending with orthonormal eigenvector columns, by checked_eigh."""
    w, q = checked_eigh(A.matrix)
    w.setflags(write=False)
    q.setflags(write=False)
    return SpectralDecomposition(eigenvalues=w, eigenvectors=q)


def _fix_sign(u):
    """Deterministic sign: first coordinate of meaningful magnitude is positive."""
    scale = np.max(np.abs(u))
    if scale == 0.0:
        return u
    idx = int(np.argmax(np.abs(u) > 1e-12 * scale))
    return -u if u[idx] < 0 else u


def top_eigen(A, require_simple=False):
    """Largest eigenvalue, its unit eigenvector, and a simplicity flag.

    simple is True iff the gap to the second-largest eigenvalue exceeds
    TAU_GAP * max(1, |lambda_max|).  The eigenvector sign is fixed so the
    first nonzero coordinate is positive; repeated calls are bit-identical.
    """
    dec = A.decomposition
    lam = dec.max_eigenvalue
    if A.dim == 1:
        simple = True
    else:
        gap = lam - float(dec.eigenvalues[-2])
        simple = gap > TAU_GAP * max(1.0, abs(lam))
    if require_simple and not simple:
        raise DegenerateTop(
            f"top eigenvalue {lam:.6g} is degenerate within tau_gap={TAU_GAP:.1e}"
        )
    u0 = _fix_sign(np.array(dec.eigenvectors[:, -1]))
    u0 /= np.linalg.norm(u0)
    u0.setflags(write=False)
    return lam, u0, simple


def bottom_eigen(A, require_simple=False):
    """Smallest eigenvalue, its unit eigenvector, and a simplicity flag."""
    dec = A.decomposition
    mu = dec.min_eigenvalue
    if A.dim == 1:
        simple = True
    else:
        gap = float(dec.eigenvalues[1]) - mu
        simple = gap > TAU_GAP * max(1.0, abs(mu))
    if require_simple and not simple:
        raise DegenerateBottom(
            f"bottom eigenvalue {mu:.6g} is degenerate within tau_gap={TAU_GAP:.1e}"
        )
    u = _fix_sign(np.array(dec.eigenvectors[:, 0]))
    u /= np.linalg.norm(u)
    u.setflags(write=False)
    return mu, u, simple


def perp_basis(u0):
    """Orthonormal basis of the orthogonal complement of a unit vector.

    Columns 2..n of the Householder reflection mapping e1 onto -sign(u0[0])*u0
    span u0-perp exactly; the construction is deterministic.
    """
    u0 = as_vector(u0)
    n = u0.size
    if n == 1:
        return np.zeros((1, 0))
    e1 = np.zeros(n)
    e1[0] = 1.0
    sign = 1.0 if u0[0] >= 0 else -1.0
    w = u0 + sign * e1
    h = np.eye(n) - 2.0 * np.outer(w, w) / float(w @ w)
    return h[:, 1:]


def restricted_top(A, u0):
    """Upper bound on the largest eigenvalue of A restricted to the complement of u0.

    Read from A's checked spectrum: with u = u0/||u0||, lambda_1 >= lambda_2
    the top two eigenvalues, gap = lambda_1 - lambda_2 and r = ||A u -
    lambda_1 u||, the angle between u and the top eigenvector has sine at most
    r/gap (Davis-Kahan), so every unit x perpendicular to u has x^T A x <=
    lambda_2 + r^2/gap.  Returns min(lambda_1, lambda_2 + r^2/gap), lambda_1
    when gap <= 0, and None in dimension 1 (the complement is empty).  The
    exact restricted top lies between lambda_2 (interlacing) and the bound.
    """
    if A.dim == 1:
        return None
    w = A.decomposition.eigenvalues
    lam, gap = float(w[-1]), float(w[-1] - w[-2])
    if gap <= 0.0:
        return lam
    u = u0 / np.linalg.norm(u0)
    r = float(np.linalg.norm(A.apply(u) - lam * u))
    return min(lam, float(w[-2]) + r * r / gap)


def heat_semigroup(T, s):
    """exp(-s T) = Q exp(-s L) Q^T, its spectrum derived from T's checked one.

    Eigenvalues exp(-s lambda) and T's eigenvector columns are both reversed
    into ascending order; a non-finite eigenvalue raises NonConvergence.
    """
    if s < 0:
        raise NegativeTime(f"semigroup time s={s} must be nonnegative")
    if s == 0:
        return SymmetricOperator.identity(T.dim)
    dec = T.decomposition
    with np.errstate(over="ignore"):
        w = np.exp(-s * dec.eigenvalues[::-1])
    if not np.all(np.isfinite(w)):
        raise NonConvergence(f"exp(-s T) has a non-finite eigenvalue at s={s}")
    return SymmetricOperator.from_spectrum(w, dec.eigenvectors[:, ::-1])


def _realify(m):
    """Complex n x n matrix as the real 2n x 2n matrix [[Re,-Im],[Im,Re]]."""
    return np.block([[m.real, -m.imag], [m.imag, m.real]])


@dataclass(frozen=True)
class CorrespondenceReport:
    """Outcome of the real/complex correspondence clauses (iii)-(v), (vii)."""

    clauses: dict = field(default_factory=dict)

    @property
    def ok(self):
        return all(passed for passed, _ in self.clauses.values())


def correspondence_check(T, seed=0):
    """Numerically verify that T and its complex extension agree.

    Checked clauses:
      (iii) smallest singular values coincide (injectivity agreement),
      (iv)  eigenvalue sets coincide and each complex eigenspace has twice
            the real dimension of its real counterpart,
      (v)   operator norms coincide,
      (vii) sampled Rayleigh quotients of the extension are bounded below by
            gamma exactly when the least eigenvalue is >= gamma.

    The complex-side quantities are computed on the realified 2n x 2n matrix,
    so the two routes stay independent.  Raises CorrespondenceViolation on
    the first failing clause; these statements are theorems, so a failure
    means a linear-algebra bug.
    """
    m = T.matrix
    n = T.dim
    scale = max(1.0, T.norm)
    mc = _realify(np.asarray(m, dtype=complex))
    sv_real = np.linalg.svd(m, compute_uv=False)
    sv_cplx = np.linalg.svd(mc, compute_uv=False)
    clauses = {}

    gap_iii = abs(float(sv_real[-1]) - float(sv_cplx[-1]))
    tol = CORRESPONDENCE_TOL * scale
    clauses["iii"] = (gap_iii <= tol, gap_iii)

    dec = T.decomposition
    w_real = dec.eigenvalues
    w_cplx = np.sort(np.linalg.eigvalsh(mc))
    pair_gap = float(np.max(np.abs(np.repeat(w_real, 2) - w_cplx)))
    # cluster real eigenvalues by gaps; each cluster must appear on the
    # complex side with exactly twice the real multiplicity
    mult_ok = True
    i = 0
    while i < n:
        j = i
        while j + 1 < n and w_real[j + 1] - w_real[j] <= tol:
            j += 1
        k_real = j - i + 1
        lo = w_real[i] - tol / 2
        hi = w_real[j] + tol / 2
        k_cplx = int(np.sum((w_cplx >= lo) & (w_cplx <= hi)))
        if k_cplx != 2 * k_real:
            mult_ok = False
        i = j + 1
    clauses["iv"] = (pair_gap <= tol and mult_ok, pair_gap)

    gap_v = abs(dec.operator_norm - float(sv_cplx[0]))
    clauses["v"] = (gap_v <= tol, gap_v)

    gamma = dec.min_eigenvalue
    rng = rng_for(seed, 0)
    shape = (CORRESPONDENCE_SAMPLES, n)
    xs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    bottom = np.asarray(dec.eigenvectors[:, 0], dtype=complex)
    xs = np.vstack([xs, bottom[None, :], 1j * bottom[None, :]])
    tm = np.asarray(m, dtype=complex)
    quad = np.real(np.einsum("si,ij,sj->s", xs.conj(), tm, xs))
    norms = np.real(np.einsum("si,si->s", xs.conj(), xs))
    lower_ok = bool(np.all(quad >= gamma * norms - tol * norms))
    # gamma' strictly above the least eigenvalue must be violated by the
    # bottom eigenvector, which is among the samples
    gamma_above = gamma + max(tol * 10, 0.1 * scale)
    violated_above = bool(np.any(quad < gamma_above * norms - tol * norms))
    margin_vii = float(np.min(quad - gamma * norms))
    clauses["vii"] = (lower_ok and violated_above, margin_vii)

    report = CorrespondenceReport(clauses=clauses)
    for name, (passed, margin) in clauses.items():
        if not passed:
            raise CorrespondenceViolation(
                name, f"margin {margin:.3e} (tol {CORRESPONDENCE_TOL:.0e})")
    return report
