"""Input validation helpers.

Inputs are coerced to double precision: :func:`as_matrix` and
:func:`as_block` to ``complex128`` (several pole families are genuinely
complex), :func:`as_dense` and :func:`as_operator` to their own precision,
``float64`` for a real dtype.  The Krylov layer then runs in the precision
of its data: the factorization cache stores a complex matrix with no
nonzero imaginary entry as ``float64`` (one scan per cache), a basis whose
seed has none either is ``float64`` too, and its blocks stay real until a
complex pole's LU makes one complex (see :mod:`rkupdate.arnoldi`).  The
dense kernels apply the same rule to a small matrix they decompose: one
with no nonzero imaginary entry goes to LAPACK as its ``float64`` real
part, and the result is complex again.  The cache finds A's band
structure once in the same way, and keeps a matrix with a narrow band in
LAPACK band storage only.
Hermitian structure is always an explicit caller-supplied flag, never
detected by scanning entries.
"""

import numpy as np

__all__ = ["as_matrix", "as_block", "require_square", "as_dense", "as_operator"]


def _as_2d(A, name, dtype):
    M = np.asarray(A)
    if M.ndim == 1:
        M = M[:, None]
    if M.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got ndim={M.ndim}")
    M = np.ascontiguousarray(M, dtype=dtype)
    if not np.all(np.isfinite(M.view(np.float64))):
        raise ValueError(f"{name} contains non-finite entries")
    return M


def _require_square_shape(M, name):
    if M.shape[0] != M.shape[1]:
        raise ValueError(f"{name} must be square, got shape {M.shape}")
    return M


def as_matrix(A, name="A"):
    """Coerce to a 2-d complex128 array and verify all entries are finite."""
    return _as_2d(A, name, np.complex128)


def as_block(B, n, name="B"):
    """Coerce a block vector (n x ell, ell >= 1) conforming with an n x n operator."""
    M = as_matrix(B, name=name)
    if M.shape[0] != n:
        raise ValueError(f"{name} has {M.shape[0]} rows, expected {n}")
    return M


def require_square(A, name="A"):
    return _require_square_shape(as_matrix(A, name=name), name)


def as_dense(A, name="A"):
    """Coerce to a 2-d finite array in its own precision: C-contiguous
    float64 when A has a real (bool, integer or float) dtype, complex128
    otherwise.  The dtype alone decides; no entry is scanned."""
    real = np.asarray(A).dtype.kind in "biuf"
    return _as_2d(A, name, np.float64 if real else np.complex128)


def as_operator(A, name="A"):
    """Square finite operator in its own precision (:func:`as_dense`)."""
    return _require_square_shape(as_dense(A, name), name)


def is_infinite_pole(xi):
    """True when the pole denotes a polynomial (multiplication) step."""
    return not np.isfinite(complex(xi).real) or not np.isfinite(complex(xi).imag)
