"""Block rational Arnoldi process.

Builds orthonormal bases of the rational block Krylov subspace

    q_m(A)^{-1} span{B, AB, ..., A^{m-1} B},
    q_m(z) = prod over finite poles (z - xi_j),

growing one block per step.  Orthogonalization is classical Gram-Schmidt
with one unconditional reorthogonalization pass (CGS2).  Compressions
U* (Op U) are formed by explicit projection and extended incrementally.

Step rules (xi_j = pole of step j):

    j = 1, xi finite:   W = (A - xi I)^{-1} B
    j = 1, xi = inf:    W = B
    j > 1, xi = inf:    W = A U_{j-1}
    j > 1, xi = 0:      W = A^{-1} U_{j-1}
    j > 1, otherwise:   W = (A - xi I)^{-1} A U_{j-1}

The pole-zero step drops the A multiplication because (A - 0)^{-1} A is the
identity on the previous block; both rules generate the same subspace.
A U_{j-1} is never recomputed: the products A U of every block are kept
for the compression, so each step makes one product with A.  Rank loss is
a hard error (no deflation).

The operator lives in a :class:`FactorizationCache` with its shifted LUs, one
per pole value, and its product ``matvec(X, adjoint)``; a basis touches the
operator only through these two.  Wherever a matrix ``A`` is taken, its
cache may go instead, and bases built on one cache share its LUs.  One LU
of A - xi I serves both sides, so an adjoint basis takes the primal poles:
its step for pole xi solves with (A - xi I)*.  The solvers clear the caches
of their bases when a run ends, so factorizations live for one run.

The sign update's basis is one of A^2 for a Hermitian A, and its private
cache (``_SquaredCache``) never forms A^2: its product is two products with
A, and its pole xi = -s^2 takes one LU of A - i s I, whose adjoint solve
followed by its solve applies (A^2 + s^2 I)^{-1}.

A cache stores a matrix with no nonzero imaginary entry as ``float64``
(it scans A once); its products, and its LUs at real shifts, then run in
real arithmetic on the ``float64`` view of the complex blocks, and its
adjoint is its transpose.  The cache then reads A's band once, as it reads
its realness: a matrix whose band is narrow is kept in LAPACK band storage
only, and its LUs (``?gbtrf``), solves (``?gbtrs``) and products (one
diagonal at a time) cost O(n) per band row.  The blocks, the basis and the
compression stay dense and complex, so there is one code path above the
operator.
"""

import numpy as np

from ._validation import as_block, as_operator, is_infinite_pole
from .dense import _Band, _banded, qr_orthonormalize, shifted_factorize
from .poles import PolePlan

__all__ = ["FactorizationCache", "KrylovBasis", "build_basis", "adjoint_basis"]


class FactorizationCache:
    """An operator A and its shifted LU factorizations, keyed by pole value.

    ``A`` is kept ``float64`` when none of its entries has a nonzero
    imaginary part, and ``complex128`` otherwise; in band storage when its
    band is narrow, and as a C-contiguous array otherwise.
    """

    def __init__(self, A):
        A = as_operator(A)
        if A.dtype == np.complex128 and not A.imag.any():
            A = np.ascontiguousarray(A.real)
        self.A = _banded(A)
        self._fac = {}

    def factorization(self, xi):
        key = complex(xi)
        fac = self._fac.get(key)
        if fac is None:
            fac = self._factor(key)
            self._fac[key] = fac
        return fac

    def _factor(self, xi):
        return shifted_factorize(self.A, xi)

    def matvec(self, X, adjoint=False):
        """A @ X, or A* @ X, for a complex block X."""
        A = self.A
        real = A.dtype == np.float64
        # a real A multiplies the float64 view of X, never a mixed
        # float64 @ complex128 product: numpy would cast all of A every call
        Z = np.ascontiguousarray(X).view(np.float64) if real else X
        if isinstance(A, _Band):
            Y = A.dot(Z, adjoint=adjoint)
        elif not adjoint:
            Y = A @ Z
        elif real:
            Y = A.T @ Z
        else:
            # A* X without forming the conjugate transpose of A
            Y = (A.T @ X.conj()).conj()
        return Y.view(complex) if real else Y

    def clear(self):
        """Drop every factorization (they are rebuilt on demand)."""
        self._fac.clear()

    def __len__(self):
        return len(self._fac)


class _SquaredCache(FactorizationCache):
    """The square A^2 of a Hermitian operator A, which is never formed.

    A product with A^2 is two products with A.  A pole xi = -s^2 <= 0 takes
    one LU of A - i s I, since A^2 + s^2 I = (A - i s I)* (A - i s I); the
    LUs are keyed by xi.  ``A`` is stored as a cache stores it, so a real
    or band-stored A gets a complex band or dense LU at the shift i s.
    """

    #: the product with A itself
    plain_matvec = FactorizationCache.matvec

    def matvec(self, X, adjoint=False):
        return self.plain_matvec(self.plain_matvec(X, adjoint), adjoint)

    def _factor(self, xi):
        return _SquaredFactorization(shifted_factorize(self.A, 1j * np.sqrt(-xi.real)))


class _SquaredFactorization:
    """(A^2 + s^2 I)^{-1} from the LU of A - i s I: a solve with its adjoint,
    then a solve with it.  A^2 is Hermitian, so ``adjoint`` changes nothing."""

    def __init__(self, fac):
        self.fac = fac

    def solve(self, Y, adjoint=False):
        return self.fac.solve(self.fac.solve(Y, adjoint=True))


class KrylovBasis:
    """Orthonormal block basis with its compression, grown step by step.

    ``A`` is a matrix or its cache; an ``adjoint`` basis is one of A*.  The
    basis of step m-1 occupies the leading (m-1)*ell columns of the step-m
    basis (bases grow strictly by appending), which the difference
    estimator of the updater relies on.
    """

    def __init__(self, A, seed, *, adjoint=False):
        self.cache = A if isinstance(A, FactorizationCache) else FactorizationCache(A)
        n = self.n
        self._seed = as_block(seed, n, "seed")
        self._adjoint = bool(adjoint)
        self.block_size = self._seed.shape[1]
        self.basis = np.zeros((n, 0), dtype=complex)
        self.compression = np.zeros((0, 0), dtype=complex)
        self.poles_used = ()
        self._op_basis = np.zeros((n, 0), dtype=complex)  # Op @ basis, column-aligned

    @property
    def n(self):
        return self.cache.A.shape[0]

    @property
    def steps(self):
        return len(self.poles_used)

    @property
    def dimension(self):
        return self.basis.shape[1]

    def _matvec(self, X):
        return self.cache.matvec(X, adjoint=self._adjoint)

    def _solve(self, xi, Y):
        return self.cache.factorization(xi).solve(Y, adjoint=self._adjoint)

    def advance(self, xi):
        """Append one block for pole xi; returns self."""
        j = self.steps + 1
        ell = self.block_size
        # A U_{j-1} is the last block of _op_basis
        if is_infinite_pole(xi):
            xi = np.inf
            W = self._seed.copy() if j == 1 else self._op_basis[:, -ell:].copy()
        else:
            xi = complex(xi)
            if j == 1:
                W = self._solve(xi, self._seed)
            elif xi == 0:
                W = self._solve(xi, self.basis[:, -ell:])
            else:
                W = self._solve(xi, self._op_basis[:, -ell:])
        ref = np.linalg.norm(W, axis=0)
        if self.dimension:
            W = W - self.basis @ self.block_product(W)
            W = W - self.basis @ self.block_product(W)
        Q = qr_orthonormalize(W, reference_norms=ref, step=j)
        OpQ = self._matvec(Q)
        k = self.dimension
        new = np.zeros((k + ell, k + ell), dtype=complex)
        new[:k, :k] = self.compression
        new[:k, k:] = self.block_product(OpQ)
        new[k:, :k] = Q.conj().T @ self._op_basis
        new[k:, k:] = Q.conj().T @ OpQ
        self.basis = np.hstack([self.basis, Q])
        self._op_basis = np.hstack([self._op_basis, OpQ])
        self.compression = new
        self.poles_used = self.poles_used + (xi,)
        return self

    def block_product(self, X):
        """basis* X for a conforming tall block.

        Formed as conj(basis^T conj(X)), which conjugates the narrow X and
        the small result but never copies the basis, with the same bits as
        conj(basis)^T X.
        """
        return (self.basis.T @ X.conj()).conj()


def build_basis(A, B, plan, m=None):
    """Orthonormal basis of q_m(A)^{-1} K_m(A, B) with compression U* A U,
    for the poles ``PolePlan.of(plan).expand(m)`` (one cycle when m is None)."""
    basis = KrylovBasis(A, B)
    for xi in PolePlan.of(plan).expand(m):
        basis.advance(xi)
    return basis


def adjoint_basis(A, C, plan, m=None):
    """Orthonormal basis of conj(q_m)(A*)^{-1} K_m(A*, C).

    Takes and records the *same* pole plan as the primal side; each shifted
    solve reuses the primal LU of A - xi I through its adjoint.
    """
    basis = KrylovBasis(A, C, adjoint=True)
    for xi in PolePlan.of(plan).expand(m):
        basis.advance(xi)
    return basis
