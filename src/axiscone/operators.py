"""Dense real symmetric operators: spectra, heat semigroups, the real/complex
correspondence.

Everything lives at finite dimension with the Euclidean inner product, so all
operators are bounded and the spectrum is the eigenvalue set.  Spectral data
is computed once per operator by checked_eigh and cached on the operator, so
a perturbation budget holds its checked operators T + S(kappa), not their
spectra, for the sweep to reuse.  A heat semigroup derives its spectrum from
its generator's, a drifted ground axis (perturbation.drifted_axis) is its
generator's bottom eigenvector, and the top eigenvalue on an axis complement
is bounded from the same spectrum (restricted_top), so no linear system is
solved and no compression is decomposed.  An operator built from its spectrum
(from_spectrum: heat semigroups, the identity) holds only that spectrum: its
matrix is formed on first read, and until then apply goes through the
eigenvectors Q, so a sweep that reads no semigroup's entries forms none.
Where only a lower bound on a spectral gap is needed, one Cholesky
factorization certifies it (gap_exceeds) and nothing is decomposed.  All
returned arrays are read-only.
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
    SemigroupOverflow,
)
from .seeding import rng_for
from .tolerances import CORRESPONDENCE_TOL, RECON_TOL, TAU_GAP, TAU_SYM

CORRESPONDENCE_SAMPLES = 32   # random complex vectors in the Rayleigh clause (vii)
UNIT_ROUNDOFF = np.finfo(float).eps / 2.0


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
    asymmetry exceeds TAU_SYM relative to the largest entry are rejected.  An
    operator from from_spectrum holds no matrix until `matrix` is first read.
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
        if self._matrix is None:   # held spectrum: Q diag(w) Q^T, formed and checked once
            dec = self._decomposition
            q = dec.eigenvectors
            self._matrix = SymmetricOperator((q * dec.eigenvalues) @ q.T)._matrix
        return self._matrix

    @property
    def dim(self):
        if self._matrix is None:
            return len(self._decomposition.eigenvalues)
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
        """A v; Q (w * Q^T v) while a held spectrum's matrix is unformed.

        v is a vector or a block of columns.
        """
        if self._matrix is None:
            q = self._decomposition.eigenvectors
            return q @ ((q.T @ v).T * self._decomposition.eigenvalues).T
        return self._matrix @ v

    def __add__(self, other):
        if isinstance(other, SymmetricOperator):
            if other.dim != self.dim:
                raise ValueError("dimension mismatch")
            # an overflowed entry is inf or nan, which _exact rejects with ValueError
            with np.errstate(over="ignore", invalid="ignore"):
                return SymmetricOperator._exact(self.matrix + other.matrix)
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, SymmetricOperator):
            if other.dim != self.dim:
                raise ValueError("dimension mismatch")
            with np.errstate(over="ignore", invalid="ignore"):
                return SymmetricOperator._exact(self.matrix - other.matrix)
        return NotImplemented

    def __mul__(self, scalar):
        with np.errstate(over="ignore", invalid="ignore"):
            return SymmetricOperator._exact(self.matrix * float(scalar))

    __rmul__ = __mul__

    def __repr__(self):
        return f"SymmetricOperator(dim={self.dim})"

    @staticmethod
    def from_spectrum(w, q):
        """Q diag(w) Q^T holding (w, q) as its decomposition: w ascending, q orthonormal.

        Only (w, q) is held.  The matrix is SymmetricOperator((q * w) @ q.T)'s,
        formed and checked on the first read of `matrix` (sums and multiples
        read it too); until then apply computes q (w * q^T v).
        """
        w, q = np.array(w, dtype=float), np.array(q, dtype=float)
        w.setflags(write=False)
        q.setflags(write=False)
        op = SymmetricOperator.__new__(SymmetricOperator)
        op._matrix = None
        op._decomposition = SpectralDecomposition(eigenvalues=w, eigenvectors=q)
        return op

    @staticmethod
    def identity(dim):
        return SymmetricOperator.from_spectrum(np.ones(dim), np.eye(dim))


def checked_eigh(m):
    """eigh of a real symmetric matrix, checked.

    An eigh failure or a non-finite eigenpair raises NonConvergence.
    ||Q L Q^T - M||_F above RECON_TOL * max(1, ||M||_F), or ||Q^T Q - I||_F
    above RECON_TOL, raises ContractViolation.
    """
    try:
        w, q = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(f"eigh failed: {exc}") from exc
    if not (np.all(np.isfinite(w)) and np.all(np.isfinite(q))):
        raise NonConvergence("eigh returned non-finite eigenpairs")
    recon = float(np.linalg.norm((q * w) @ q.T - m))
    orth = float(np.linalg.norm(q.T @ q - np.eye(len(w))))
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


def gap_exceeds(A, x, floor, frobenius_bound):
    """True when one Cholesky factorization proves lambda_1(A) - lambda_0(A) > floor.

    x is any vector, ideally near A's bottom eigenvector, floor >= 0 and
    frobenius_bound >= ||A||_F.  With x normalized, rho = x^T A x >=
    lambda_0(A); put sigma = rho + floor + guard and beta = 2 (sigma - rho) + 1.
    A Cholesky factorization of M = A + beta x x^T - sigma I that succeeds
    shows lambda_0(A + beta x x^T) > sigma - guard, and rank-one interlacing
    gives lambda_1(A) >= lambda_0(A + beta x x^T).  The guard covers the
    factorization's backward error (Demmel) and the rounding of rho, sigma
    and M, so the proof holds in floating point.  False proves nothing.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        norm = float(np.linalg.norm(x))
        if not 0.0 < norm < np.inf:
            return False
        x = x / norm
        rho = float(x @ A.apply(x))
        # numerical guard: 8 (n + 2)^2 u (||A||_F + |rho| + floor + 1)
        guard = 8.0 * (A.dim + 2) ** 2 * UNIT_ROUNDOFF * (frobenius_bound + abs(rho) + floor + 1.0)
        sigma = rho + floor + guard
        m = A.matrix + (2.0 * (sigma - rho) + 1.0) * np.outer(x, x)
        m[np.diag_indices(A.dim)] -= sigma
    if not np.all(np.isfinite(m)):   # a NaN or inf can pass the factorization
        return False
    try:
        np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        return False
    return True


def _fix_sign(u):
    """Deterministic sign: first coordinate of meaningful magnitude is positive."""
    scale = np.max(np.abs(u))
    if scale == 0.0:
        return u
    idx = int(np.argmax(np.abs(u) > 1e-12 * scale))
    return -u if u[idx] < 0 else u


def _extremal_eigen(A, end, require_simple, error, name):
    """Eigenvalue at index `end` (-1 top, 0 bottom), its unit eigenvector, simple flag."""
    dec = A.decomposition
    lam = float(dec.eigenvalues[end])
    if A.dim == 1:
        simple = True
    else:
        neighbour = float(dec.eigenvalues[-2 if end else 1])
        gap = lam - neighbour if end else neighbour - lam
        simple = gap > TAU_GAP * max(1.0, abs(lam))
    if require_simple and not simple:
        raise error(f"{name} eigenvalue {lam:.6g} is degenerate within tau_gap={TAU_GAP:.1e}")
    u = _fix_sign(np.array(dec.eigenvectors[:, end]))
    u /= np.linalg.norm(u)
    u.setflags(write=False)
    return lam, u, simple


def top_eigen(A, require_simple=False):
    """Largest eigenvalue, its unit eigenvector, and a simplicity flag.

    simple is True iff the gap to the second-largest eigenvalue exceeds
    TAU_GAP * max(1, |lambda_max|).  The eigenvector sign is fixed so the
    first nonzero coordinate is positive; repeated calls are bit-identical.
    """
    return _extremal_eigen(A, -1, require_simple, DegenerateTop, "top")


def bottom_eigen(A, require_simple=False):
    """Smallest eigenvalue, its unit eigenvector, and a simplicity flag."""
    return _extremal_eigen(A, 0, require_simple, DegenerateBottom, "bottom")


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
    into ascending order; a non-finite eigenvalue raises SemigroupOverflow.  The
    operator holds that spectrum (from_spectrum): its matrix is formed on
    first read, and apply goes through Q until then.
    """
    if s < 0:
        raise NegativeTime(f"semigroup time s={s} must be nonnegative")
    if s == 0:
        return SymmetricOperator.identity(T.dim)
    dec = T.decomposition
    with np.errstate(over="ignore"):
        w = np.exp(-s * dec.eigenvalues[::-1])
    if not np.all(np.isfinite(w)):
        raise SemigroupOverflow(f"exp(-s T) has a non-finite eigenvalue at s={s}")
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
