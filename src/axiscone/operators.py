"""Dense real symmetric operators: spectra, heat semigroups, positive-definiteness
certificates, the real/complex correspondence.

Everything lives at finite dimension with the Euclidean inner product, so all
operators are bounded and the spectrum is the eigenvalue set.  Spectral data
is computed once per operator by checked_eigh and cached on the operator, so
a perturbation budget holds its checked operators T + S(kappa), not their
spectra, for the sweep to reuse.  A heat semigroup derives its spectrum from
its generator's, a drifted ground axis (perturbation.drifted_axis) is its
generator's bottom eigenvector, and the top eigenvalue on an axis complement
is bounded from the same spectrum (restricted_top), so no linear system is
solved and no compression is decomposed.  An operator built from its spectrum
(from_spectrum: heat semigroups, the identity, psd-simple and degenerate-top
test instances, the diagonal magnetic term) holds only that spectrum: its
matrix is formed on first read (by sums, compressions and the ergodicity
probe, which iterates it), and apply always goes through the eigenvectors Q,
so a sweep that reads no semigroup's entries forms none and A v does not
depend on whether the matrix was read before.
Where a symmetric matrix only needs to be proven positive definite, as for a
lower bound on a spectral gap (gap_exceeds), one guarded Cholesky factorization
does it (certify_positive_definite) and nothing is decomposed.  All returned
arrays are read-only.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    ContractViolation,
    DegenerateBottom,
    DegenerateTop,
    NegativeTime,
    NonConvergence,
    SemigroupOverflow,
)
from .tolerances import CORRESPONDENCE_TOL, RECON_TOL, TAU_GAP, TAU_SYM

UNIT_ROUNDOFF = np.finfo(float).eps / 2.0
SMALLEST_SUBNORMAL = np.finfo(float).smallest_subnormal


def gamma(k):
    """gamma_k = k u / (1 - k u), which bounds k successive relative roundings (Higham, 3.4)."""
    return k * UNIT_ROUNDOFF / (1.0 - k * UNIT_ROUNDOFF)


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

    @cached_property
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
        self._held = False

    @property
    def held(self):
        """True for an operator built from its spectrum (from_spectrum), matrix formed or not."""
        return self._held

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
        """A v: Q (w * Q^T v) for a held spectrum, whether or not its matrix has
        been formed, else the matrix product.

        v is a vector or a block of columns.
        """
        if self._held:
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
        """Q diag(w) Q^T holding (w, q) as its decomposition: w ascending, q orthonormal
        (||q^T q - I||_F <= RECON_TOL, checked_eigh's test, which the ergodicity
        certificates of perron_frobenius_check rely on).

        (w, q) defines the operator, for apply (q (w * q^T v)); the matrix is
        SymmetricOperator((q * w) @ q.T)'s, formed and checked on the first read
        of `matrix` (sums, multiples and the ergodicity probe read it).
        """
        w, q = np.array(w, dtype=float), np.array(q, dtype=float)
        w.setflags(write=False)
        q.setflags(write=False)
        op = SymmetricOperator.__new__(SymmetricOperator)
        op._matrix, op._held = None, True
        op._decomposition = SpectralDecomposition(eigenvalues=w, eigenvectors=q)
        return op

    @staticmethod
    def identity(dim):
        return SymmetricOperator.from_spectrum(np.ones(dim), np.eye(dim))


def checked_eigh(m):
    """eigh of a real symmetric matrix, checked.

    An eigh failure or a non-finite eigenpair raises NonConvergence.
    ||Q L Q^T - M||_F above RECON_TOL * max(1, ||M||_F), or ||Q^T Q - I||_F
    above RECON_TOL, raises ContractViolation.  Where a norm overflows, both
    are taken of the residual and M scaled by one power of two.
    """
    try:
        w, q = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(f"eigh failed: {exc}") from exc
    if not (np.all(np.isfinite(w)) and np.all(np.isfinite(q))):
        raise NonConvergence("eigh returned non-finite eigenpairs")
    with np.errstate(over="ignore", invalid="ignore"):   # inf and nan residuals fail below
        resid = (q * w) @ q.T - m
        recon, size = float(np.linalg.norm(resid)), max(1.0, float(np.linalg.norm(m)))
        if not np.isfinite(recon + size):   # then ||M||_F > 1 or the residual is huge
            e = np.frexp(np.abs(m).max())[1]
            recon, size = (float(np.linalg.norm(np.ldexp(x, -e))) for x in (resid, m))
    orth = float(np.linalg.norm(q.T @ q - np.eye(len(w))))
    if not (recon <= RECON_TOL * size and orth <= RECON_TOL):
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


def certify_positive_definite(m, error):
    """True when one Cholesky factorization proves every symmetric M with
    ||M - m||_2 <= error positive definite; False proves nothing.

    With n = dim m, u the unit roundoff, eta the smallest subnormal, g =
    gamma_{n+1}, d = |diag m| and tau = n (n + 1 + max d) eta, it factors
    fl(m - cI), c = 2 (error + u max d + g sum d + tau).  If that completes
    with factor R, every pivot was positive, so m_ii > c and fl(m - cI) =
    m - cI + D with |D_ii| <= u m_ii.  R^T R = fl(m - cI) + Delta, |Delta| <=
    g |R^T| |R| (Higham, Accuracy and Stability, Thm 10.3) plus (n + 1 + max
    d) eta per entry for products and quotients that underflow, so with
    ||R||_F^2 = tr(R^T R) <= (1 + u) sum d + g ||R||_F^2 + tau, ||Delta||_2 <=
    (g (1 + u) sum d + tau) / (1 - g).  R^T R is positive definite, so
    lambda_min(M) > c - u max d - error - ||Delta||_2 > 0: the factor 2 covers
    1/(1 - g), 1 + u and the rounding of c while (n + 1) u <= 1/5.  The guard,
    gamma_{n+1} times the trace, is linear in n times the diagonal, as in
    Rump's test ("Verification of positive definiteness", BIT 46, 2006).
    """
    n = len(m)
    d = np.abs(np.diagonal(m))
    with np.errstate(over="ignore", invalid="ignore"):
        c = 2.0 * (error + UNIT_ROUNDOFF * d.max() + gamma(n + 1) * d.sum()
                   + n * (n + 1 + d.max()) * SMALLEST_SUBNORMAL)
        if not (np.isfinite(c) and np.all(np.isfinite(m))):   # NaN and inf pass a Cholesky
            return False
        shifted = np.array(m, dtype=float)
        shifted[np.diag_indices(n)] -= c
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True


def gap_exceeds(A, x, floor, frobenius_bound):
    """True when one guarded Cholesky factorization proves lambda_1(A) - lambda_0(A) > floor.

    x is any vector, ideally near A's bottom eigenvector, floor >= 0 and F =
    frobenius_bound >= ||A||_F.  With x normalized, nu = x^T x and rho = x^T A x
    / nu >= lambda_0(A): if M = A + beta x x^T - (rho + floor) I is positive
    definite (beta = 2 floor + 1 >= 0), rank-one interlacing gives lambda_1(A)
    >= lambda_0(A + beta x x^T) > rho + floor.  certify_positive_definite
    proves that of every matrix within error = gamma_{3n+8} (2 F + beta + |rho|
    + floor) of the computed m, which bounds ||M - m||_2: gamma_2 beta nu from
    the outer product, u (F + beta nu + |rho| + floor) each from the sum with A
    and the diagonal shift, and for rho gamma_n (2 + gamma_n) F nu from x^T (A x)
    plus F |nu - 1| <= F gamma_{n+4} from the normalization; the factor 2 and
    the spare units cover nu > 1 and the rounding of error.  Linear in n.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        norm = float(np.linalg.norm(x))
        if not 0.0 < norm < np.inf:
            return False
        x = x / norm
        a = A.matrix
        rho = float(x @ (a @ x))
        beta = 2.0 * floor + 1.0
        m = np.outer(x, x)   # the one buffer: a + beta x x^T - (rho + floor) I, in place
        m *= beta
        m += a
        m[np.diag_indices(A.dim)] -= rho + floor
        error = gamma(3 * A.dim + 8) * (2.0 * frobenius_bound + beta + abs(rho) + floor)
    return certify_positive_definite(m, error)


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
    first read, and apply goes through Q.
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


def correspondence_check(T, H):
    """Check that the real symmetric T restricts the complex Hermitian n x n H.

    The realification [[Re H, -Im H], [Im H, Re H]] of H is real symmetric and
    holds each eigenvalue of H twice (for v and i v).  If T is H restricted to
    the real fixed space of a conjugation that H commutes with, T and H share
    their spectrum, so the realified spectrum is T's with each eigenvalue
    taken twice.  Returns the largest deviation between the two, relative to
    max(1, ||T||); above CORRESPONDENCE_TOL it raises ContractViolation.  An H
    of another dimension raises ValueError.
    """
    h = np.asarray(H, dtype=complex)
    realified = np.block([[h.real, -h.imag], [h.imag, h.real]])
    deviation = float(np.max(np.abs(np.repeat(T.decomposition.eigenvalues, 2)
                                    - np.linalg.eigvalsh(realified)))) / max(1.0, T.norm)
    if deviation > CORRESPONDENCE_TOL:
        raise ContractViolation(f"realified spectrum of H deviates from T's taken twice by "
                                f"{deviation:.3e} (tol {CORRESPONDENCE_TOL:.0e})")
    return deviation
