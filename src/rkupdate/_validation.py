"""Input validation helpers.

Everything numerical in this package runs in complex double precision,
even for real inputs (a single scalar type avoids dual code paths; several
pole families are genuinely complex).  Hermitian structure is always an
explicit caller-supplied flag, never detected by scanning entries.
"""

import numpy as np

__all__ = ["as_matrix", "as_block", "require_square"]


def as_matrix(A, name="A"):
    """Coerce to a 2-d complex128 array and verify all entries are finite."""
    M = np.asarray(A)
    if M.ndim == 1:
        M = M[:, None]
    if M.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got ndim={M.ndim}")
    M = np.ascontiguousarray(M, dtype=np.complex128)
    if not np.all(np.isfinite(M.view(np.float64))):
        raise ValueError(f"{name} contains non-finite entries")
    return M


def as_block(B, n, name="B"):
    """Coerce a block vector (n x ell, ell >= 1) conforming with an n x n operator."""
    M = as_matrix(B, name=name)
    if M.shape[0] != n:
        raise ValueError(f"{name} has {M.shape[0]} rows, expected {n}")
    return M


def require_square(A, name="A"):
    M = as_matrix(A, name=name)
    if M.shape[0] != M.shape[1]:
        raise ValueError(f"{name} must be square, got shape {M.shape}")
    return M


def is_infinite_pole(xi):
    """True when the pole denotes a polynomial (multiplication) step."""
    return not np.isfinite(complex(xi).real) or not np.isfinite(complex(xi).imag)
