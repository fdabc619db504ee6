"""Block rational Arnoldi process.

Builds orthonormal bases of the rational block Krylov subspace

    q_m(A)^{-1} span{B, AB, ..., A^{m-1} B},
    q_m(z) = prod over finite poles (z - xi_j),

growing one block per step.  Orthogonalization is classical Gram-Schmidt
with one unconditional reorthogonalization pass (CGS2).  The compression
U* (Op U) is extended incrementally: its new block column is projected,
U* (Op Q) for the new block Q.  On a cache whose A is Hermitian
(``FactorizationCache.hermitian``, the sign update's A^2 included) the
compression is Hermitian, so its new rows are the conjugate transpose of
its new columns and its diagonal block is made exactly Hermitian; on any
other cache the new rows are projected too, from one product with the
adjoint: (U* (Op* Q))*.  The rule is the same for every basis on the
cache, the adjoint basis and a general-mode run's bases included.  Every
basis also keeps U* seed, one product Q* seed per appended block, so the
small problems that read it make no pass over the basis.

Step rules (xi_j = pole of step j), all in :meth:`KrylovBasis.advance`:

    j = 1, xi finite:   W = (A - xi I)^{-1} B
    j = 1, xi = inf:    W = B
    j > 1, xi = inf:    W = A U_{j-1}
    j > 1, xi = 0:      W = A^{-1} U_{j-1}
    j > 1, otherwise:   W = (A - xi I)^{-1} A U_{j-1}

The pole-zero step drops the A multiplication because (A - 0)^{-1} A is the
identity on the previous block; both rules generate the same subspace.
A U_{j-1} is never recomputed: the basis keeps the product A Q of its
last block Q, which the next step continues from, so each step makes one
product with A on a Hermitian cache, and one with A and one with A* on
any other.  Rank loss is a hard error (no deflation).

A basis grows only through ``advance(*poles)``: one pole, or a conjugate
pair ``advance(xi, conj(xi))``, which a real basis on a real A takes as one
step of two blocks (Ruhe's complex shifts for real matrices).  The rule
above for xi gives a complex W, and

    span [Re W, Im W] = span [W, conj(W)],

the blocks of xi and of conj(xi) (conj(W) is the rule for conj(xi) from
the same real block).  So one complex solve and a real QR of the
n x 2 ell block [Re W, Im W] append 2 ell real columns; both poles are
recorded, and the next step continues from the last ell columns.  The
basis stays real and spans what the two single steps span, which a
complex basis takes instead.

One function, :func:`_advance_step`, decides for the bases of a run
together whether a pole and its conjugate after it are a pair.  Each basis
takes the pair by its own dtype, so in a two-sided run whose other basis
is complex (a complex seed, or a pair that it had to take as two single
steps) the real basis still takes the real step.  The solvers' step loop
and the builders :func:`build_basis` and :func:`adjoint_basis` all call
it, so the builders pair on real data and build the solvers' bases.

The operator lives in a :class:`FactorizationCache` with its shifted LUs, one
per pole value, and its product ``matvec(X, adjoint)``; a basis touches the
operator only through these two.  Wherever a matrix ``A`` is taken, its
cache may go instead, and bases built on one cache share its LUs.  One LU
of A - xi I serves both sides, so an adjoint basis takes the primal poles:
its step for pole xi solves with (A - xi I)*.  For a real A the LU of
A - xi I also serves conj(xi), by conjugation (A - conj(xi) I =
conj(A - xi I)), so a conjugate pair costs one LU whether it is paired
or not.  The solvers clear the caches of their bases when a run ends, so
factorizations live for one run.

The sign update's basis is one of A^2 for a Hermitian A, and its private
cache (``_SquaredCache``) never forms A^2: its product is two products with
A, and its pole xi = -s^2 takes one LU of A - i s I, whose adjoint solve
followed by its solve applies (A^2 + s^2 I)^{-1}.

A cache stores A real or complex by the realness rule of
:mod:`rkupdate._validation`, and the adjoint of a real A is its
transpose.  The cache reads A once: a matrix whose band is narrow, dense
or ``scipy.sparse``, goes straight into LAPACK band storage with no n x n
copy, and its LUs (``?gbtrf``), solves (``?gbtrs``) and products (one
diagonal at a time) cost O(n) per band row.  The cache then makes the one
product probe of A that sets ``hermitian``, which the Hermitian mode and
the sign update require and every basis on the cache reads.

Above the operator there is one code path with a dtype, the result type
of A and the seed.  Real blocks stay real through the products, the LUs
at real shifts, the sign update's (A^2 + s^2 I)^{-1} (real for a real
Hermitian A), the paired steps and the QR, so real data with real or
infinite poles and conjugate pairs run in real arithmetic end to end; the
first block that comes back complex (the LU of a complex pole taken
alone) promotes the basis to ``complex128`` once, in place.
The basis, the compression and U* seed are views into C-order buffers
whose capacity doubles, and a step appends into them.
"""

import copy

import numpy as np

from ._validation import as_array, is_infinite_pole
from .dense import TOL_AXIS, _Band, _banded, _real_product, qr_orthonormalize, shifted_factorize
from .errors import RankDeficient
from .poles import PolePlan
from .rng import SplitMix64

__all__ = ["FactorizationCache", "KrylovBasis", "build_basis", "adjoint_basis"]


class FactorizationCache:
    """An operator A and its shifted LU factorizations, keyed by pole value.

    ``A`` is kept as :func:`~rkupdate.dense._banded` gives it: in band
    storage when its band is narrow (a ``scipy.sparse`` A included), and as
    a C-contiguous array otherwise.  ``hermitian`` is the result of one
    product probe of A, made when the cache is made: for a fixed real probe
    x of n entries, ||A x - A* x|| <= ``TOL_AXIS`` ||A x||.  Two products,
    whatever A's storage and size, and no n x n array.
    """

    def __init__(self, A):
        self.A = _banded(A)
        self._fac = {}
        n = self.A.shape[0]
        x = SplitMix64(0).signed_uniforms(n).reshape(n, 1)
        Ax = _product(self.A, x)
        self.hermitian = bool(np.linalg.norm(Ax - _product(self.A, x, adjoint=True))
                              <= TOL_AXIS * np.linalg.norm(Ax))

    def factorization(self, xi):
        """The LU of A - xi I, made on first use.  For a real A the LU at
        conj(xi) serves xi by conjugation, so a conjugate pair costs one LU."""
        key = complex(xi)
        fac = self._fac.get(key)
        if fac is None:
            if key.imag and self.A.dtype == np.float64 and key.conjugate() in self._fac:
                return _ConjugateFactorization(self._fac[key.conjugate()])
            fac = self._factor(key)
            self._fac[key] = fac
        return fac

    def _factor(self, xi):
        return shifted_factorize(self.A, xi)

    def matvec(self, X, adjoint=False):
        """A @ X, or A* @ X, for a block X; real when A and X are real."""
        return _product(self.A, X, adjoint)

    def clear(self):
        """Drop every factorization (they are rebuilt on demand)."""
        self._fac.clear()

    def __len__(self):
        return len(self._fac)


def _product(A, X, adjoint=False):
    """A @ X, or A* @ X, for an operator A as a cache stores it."""
    if isinstance(A, _Band):
        def product(Z):
            return A.dot(Z, adjoint=adjoint)
    elif A.dtype == np.complex128 and adjoint:
        # A* X without forming the conjugate transpose of A
        return (A.T @ X.conj()).conj()
    else:
        op = A.T if adjoint else A
        product = op.__matmul__
    return _real_product(product, X) if A.dtype == np.float64 else product(X)


class _ConjugateFactorization:
    """(A - conj(xi) I)^{-1} for a real A from the LU of A - xi I: the solve
    of conj(Y), conjugated, and likewise for the adjoint."""

    def __init__(self, fac):
        self.fac = fac

    def solve(self, Y, adjoint=False):
        return self.fac.solve(np.conj(Y), adjoint=adjoint).conj()


class _SquaredCache(FactorizationCache):
    """The square A^2 of a Hermitian operator A, which is never formed.

    A product with A^2 is two products with A.  A pole xi = -s^2 <= 0 takes
    one LU of A - i s I, since A^2 + s^2 I = (A - i s I)* (A - i s I); the
    LUs are keyed by xi.  ``A`` is stored as a cache stores it, so a real
    or band-stored A gets a complex band or dense LU at the shift i s.
    ``hermitian`` is the probe of A, so it holds for A^2 too.
    """

    #: the product with A itself
    plain_matvec = FactorizationCache.matvec

    def matvec(self, X, adjoint=False):
        return self.plain_matvec(self.plain_matvec(X, adjoint), adjoint)

    def _factor(self, xi):
        return _SquaredFactorization(shifted_factorize(self.A, 1j * np.sqrt(-xi.real)),
                                     self.A.dtype == np.float64)


class _SquaredFactorization:
    """(A^2 + s^2 I)^{-1} from the LU of A - i s I: a solve with its adjoint,
    then a solve with it.  A^2 is Hermitian, so ``adjoint`` changes nothing.

    For a real A, A^2 + s^2 I is real, so a real Y gets the real part of the
    two complex solves and a real basis stays real."""

    def __init__(self, fac, real):
        self.fac = fac
        self.real = real

    def solve(self, Y, adjoint=False):
        X = self.fac.solve(self.fac.solve(Y, adjoint=True))
        if self.real and np.isrealobj(Y):
            return np.ascontiguousarray(X.real)
        return X


class KrylovBasis:
    """Orthonormal block basis with its compression, grown step by step.

    ``A`` is a matrix or its cache; an ``adjoint`` basis is one of A*.  The
    basis of step m-1 occupies the leading (m-1)*ell columns of the step-m
    basis (bases grow strictly by appending), so :meth:`leading` gives the
    basis, compression and seed product of any earlier step, from which the
    step loop of the updater solves an earlier step's small problem again.
    The basis keeps ``seed_product``, basis* seed, as it grows.

    The basis has the result type of the cache's A and the seed; the first
    block that comes back complex (the LU of a complex pole taken alone)
    promotes a real basis, once, with its leading columns unchanged, and a
    conjugate pair keeps it real.  ``basis``, ``compression`` and
    ``seed_product`` are views into C-order buffers whose capacity doubles
    when a block does not fit, so a step appends in place.  Of the
    products with the operator Op (A, or A* for an adjoint basis) the basis
    keeps only that of its last block, the next step's continuation.
    """

    def __init__(self, A, seed, *, adjoint=False):
        self.cache = A if isinstance(A, FactorizationCache) else FactorizationCache(A)
        n = self.n
        seed = as_array(seed, "seed", rows=n)
        self._seed = seed
        self._adjoint = bool(adjoint)
        self.block_size = seed.shape[1]
        self.poles_used = ()
        self._k = 0
        # capacity 0: the first step allocates one block
        dtype = np.result_type(self.cache.A.dtype, seed.dtype)
        self._U = np.empty((n, 0), dtype=dtype)
        self._OpQ = None  # Op @ the last block
        self._G = np.empty((0, 0), dtype=dtype)
        self._US = np.empty((0, self.block_size), dtype=dtype)  # basis* seed

    @property
    def n(self):
        return self.cache.A.shape[0]

    @property
    def steps(self):
        return len(self.poles_used)

    @property
    def dimension(self):
        return self._k

    @property
    def basis(self):
        return self._U[:, :self._k]

    @property
    def compression(self):
        return self._G[:self._k, :self._k]

    @property
    def seed(self):
        """The seed block, as :func:`~rkupdate._validation.as_array` gave it."""
        return self._seed

    @property
    def seed_product(self):
        """basis* seed, kept as the basis grows: reading it makes no pass
        over the basis."""
        return self._US[:self._k]

    def leading(self, k):
        """The basis of the step of dimension k, the leading k columns of
        this one (bases grow by appending): a shallow copy whose buffers are
        views of exactly k columns of these, so advancing it moves it into
        buffers of its own before it writes, and this basis is unchanged.
        For k below the dimension it keeps no product with the operator, so
        advancing it makes the product of its last block once."""
        lead = copy.copy(self)
        lead._k, lead.poles_used = k, self.poles_used[:k // self.block_size]
        lead._U, lead._G, lead._US = self._U[:, :k], self._G[:k, :k], self._US[:k]
        lead._OpQ = self._OpQ if k == self._k else None
        return lead

    def _matvec(self, X, adjoint=False):
        """Op @ X, or Op* @ X."""
        return self.cache.matvec(X, adjoint=self._adjoint != adjoint)

    def _solve(self, xi, Y):
        return self.cache.factorization(xi).solve(Y, adjoint=self._adjoint)

    def _reallocate(self, cap, dtype):
        """Move the basis into buffers of ``cap`` columns and the given dtype."""
        k, n = self._k, self.n
        U = np.empty((n, cap), dtype=dtype)
        G = np.empty((cap, cap), dtype=dtype)
        US = np.empty((cap, self.block_size), dtype=dtype)
        U[:, :k] = self._U[:, :k]
        G[:k, :k] = self._G[:k, :k]
        US[:k] = self._US[:k]
        self._U, self._G, self._US = U, G, US

    def advance(self, *poles):
        """Append the step of one pole, or of a conjugate pair (xi, conj(xi)),
        which a real basis takes as one block [Re W, Im W] and a complex one
        as two single steps; returns self.  A real pair raises
        :class:`RankDeficient`, with the basis unchanged, when its block
        loses rank or finds no room (``exhausted`` when it is all lost or
        the basis fills the space).  Other poles are a ``ValueError``.
        """
        xi = complex(poles[0]) if len(poles) == 2 else 0j
        if len(poles) != 1 and (xi.imag == 0 or complex(poles[1]) != xi.conjugate()):
            raise ValueError("advance takes one pole or a conjugate pair (xi, conj(xi))")
        if len(poles) == 1 or self._U.dtype != np.float64:
            for pole in poles:
                self._step(pole)
            return self
        j = self.steps + 1
        ell, k = self.block_size, self._k
        if k + 2 * ell > self.n:
            raise RankDeficient(f"no room for the {2 * ell} columns of a pair", step=j,
                                exhausted=k == self.n)
        W = self._block(xi)
        Q = self._orthonormalize(np.hstack([W.real, W.imag]), j)
        self._reserve(2 * ell, np.float64)
        self._append(Q, (xi, xi.conjugate()))
        return self

    def _step(self, xi):
        """The single step of pole xi; a complex W promotes a real basis
        before it is orthonormalized."""
        xi = np.inf if is_infinite_pole(xi) else complex(xi)
        W = self._block(xi)
        self._reserve(self.block_size, np.result_type(self._U, W))
        self._append(self._orthonormalize(W, self.steps + 1), (xi,))

    def _block(self, xi):
        """W of the step rule for xi (``np.inf`` or a complex), from the seed
        at step 1, else from the last ell columns of the kept product Op Q
        or, for the pole 0, of ``basis``.  A leading basis, which keeps no
        product, makes that of its last ell columns here."""
        k, ell = self._k, self.block_size
        if not self.steps:
            X = self._seed
        elif xi == 0:
            X = self._U[:, k - ell:k]
        else:
            if self._OpQ is None:
                self._OpQ = self._matvec(self._U[:, k - ell:k])
            X = self._OpQ[:, -ell:]
        return X.copy() if xi == np.inf else self._solve(xi, X)

    def _reserve(self, cols, dtype):
        """Room for ``cols`` more columns of the given dtype in the buffers."""
        k, cap = self._k, self._U.shape[1]
        if k + cols > cap or dtype != self._U.dtype:
            self._reallocate(cap if k + cols <= cap else max(2 * cap, k + cols), dtype)

    def _orthonormalize(self, W, step):
        """W orthonormalized against the basis (CGS2), then within itself."""
        ref = np.linalg.norm(W, axis=0)
        if self._k:
            W = W - self.basis @ self.block_product(W)
            W = W - self.basis @ self.block_product(W)
        return qr_orthonormalize(W, reference_norms=ref, step=step)

    def _append(self, Q, poles):
        """Append the orthonormal block Q, the compression's new rows and
        columns and the new rows Q* seed of ``seed_product``, and keep Op Q
        in place of the last block's product; the buffers have room.

        On a Hermitian cache the compression is Hermitian: its new block
        column is projected, its diagonal block is made exactly Hermitian,
        and its new rows are the conjugate transpose of its new columns.  On
        any other cache the new rows are (U* (Op* Q))*, one product with
        Op* and one tall product over the basis."""
        k, width = self._k, Q.shape[1]
        OpQ = self._matvec(Q)
        new = slice(k, k + width)
        G, hermitian = self._G, self.cache.hermitian
        if not hermitian and k:
            G[new, :k] = self.block_product(self._matvec(Q, adjoint=True)).conj().T
        self._US[new] = _adjoint_product(Q, self._seed)
        self._U[:, new] = Q
        self._OpQ = OpQ
        self._k = k + width
        G[:k + width, new] = self.block_product(OpQ)
        if hermitian:
            G[new, new] = 0.5 * (G[new, new] + G[new, new].conj().T)
            G[new, :k] = G[:k, new].conj().T
        self.poles_used = self.poles_used + poles

    def _next_directions(self):
        """(q, basis* (Op* q), q* seed) for the directions q of a next step
        with an infinite pole, which holds Op basis and the seed."""
        # [Op Q, seed] for the last ell columns Q, which the step rule of an
        # infinite pole continues from, after CGS2 against the basis, has
        # the rank of those directions: ell, or n - k where less is left
        W = np.hstack([self._OpQ[:, -self.block_size:], self._seed])
        for _ in range(2):
            W -= self.basis @ self.block_product(W)
        q = np.linalg.svd(W, full_matrices=False)[0][:, :min(self.block_size, self.n - self._k)]
        return q, self.block_product(self._matvec(q, adjoint=True)), _adjoint_product(q, self._seed)

    def block_product(self, X):
        """basis* X for a conforming tall block (see :func:`_adjoint_product`)."""
        return _adjoint_product(self.basis, X)

    def times(self, X):
        """basis @ X for a matrix X of ``dimension`` rows, the counterpart of
        :meth:`block_product`; a real basis meets a complex X through X's
        ``float64`` view."""
        U = self.basis
        if U.dtype == np.float64:
            return _real_product(U.__matmul__, X)
        return U @ X


def _adjoint_product(U, X):
    """U* X for conforming tall blocks U and X.

    A complex U gives it as conj(U^T conj(X)), which conjugates the narrow
    X and the small result but never copies U, with the same bits as
    conj(U)^T X.  A real U meets a complex X through X's ``float64`` view,
    as a real operator does.
    """
    if U.dtype == np.float64:
        return _real_product(U.T.__matmul__, X)
    return (U.T @ X.conj()).conj()


def _pairs(real, poles, m):
    """Whether the step of xi = ``poles[m]`` takes conj(xi) with it as one
    paired step: conj(xi) != xi follows xi, and some basis is ``real``."""
    xi = poles[m]
    # a finite pole is a complex (PolePlan holds them so), INF a float
    return (real and m + 1 < len(poles) and isinstance(xi, complex) and xi.imag != 0
            and poles[m + 1] == xi.conjugate())


def _advance_step(bases, poles, m):
    """Append the step of xi = ``poles[m]`` to each basis (one, or the two
    of a two-sided run); returns the number of poles taken, 1 or 2.

    When :func:`_pairs` holds (conj(xi) != xi follows xi and some basis is
    real), every basis takes the pair, ``advance(xi, conj(xi))``.  If the
    real pair block of the first basis loses part of its rank, every basis
    takes the single step of xi instead; if it loses all of it, the
    ``exhausted`` :class:`RankDeficient` propagates, as from the single
    step of xi.  If that of another basis loses rank, that basis takes the
    two single steps.  The error of a complex basis, a single step's,
    propagates.  When every basis is complex, each pole is a single step of
    its own.
    """
    xi = poles[m]
    if _pairs(any(basis.basis.dtype == np.float64 for basis in bases), poles, m):
        try:
            bases[0].advance(xi, xi.conjugate())
        except RankDeficient as exc:
            # a real basis stays real through a failed pair
            if exc.exhausted or bases[0].basis.dtype != np.float64:
                raise
        else:
            for basis in bases[1:]:
                try:
                    basis.advance(xi, xi.conjugate())
                except RankDeficient:
                    if basis.basis.dtype != np.float64:
                        raise
                    basis.advance(xi).advance(xi.conjugate())
            return 2
    for basis in bases:
        basis.advance(xi)
    return 1


def _grow(basis, plan, m):
    """``basis`` stepped by :func:`_advance_step` through ``PolePlan.of(plan).expand(m)``."""
    poles = PolePlan.of(plan).expand(m)
    while basis.steps < len(poles):
        _advance_step((basis,), poles, basis.steps)
    return basis


def build_basis(A, B, plan, m=None):
    """Orthonormal basis of q_m(A)^{-1} K_m(A, B) with compression U* A U,
    for the poles ``PolePlan.of(plan).expand(m)`` (one cycle when m is None),
    stepped as the solvers step (real data pair conjugate poles)."""
    return _grow(KrylovBasis(A, B), plan, m)


def adjoint_basis(A, C, plan, m=None):
    """Orthonormal basis of conj(q_m)(A*)^{-1} K_m(A*, C), stepped as
    :func:`build_basis` steps.

    Takes and records the *same* pole plan as the primal side; each shifted
    solve reuses the primal LU of A - xi I through its adjoint.
    """
    return _grow(KrylovBasis(A, C, adjoint=True), plan, m)
