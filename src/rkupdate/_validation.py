"""Input validation, and the one rule that decides whether data are real.

The realness rule (:func:`real_if_real`): an array is real when its dtype
is real (bool, integer or float), or when it is complex with no nonzero
imaginary entry.  Real data are held as ``float64``, all other data as
``complex128``.  :func:`as_array` applies the rule to every matrix and
block that enters the library, so the same values give the same bits
whether they come as ``float64`` or as ``complex128``.  The solvers apply
it once, at their entry.  Two kernels are public entry points too and
apply it to every call, also from within a run:
:func:`rkupdate.dense.qr_orthonormalize` to every Krylov block it
orthonormalizes, and :func:`rkupdate.dense.shifted_factorize` to a dense
A at every LU.  Otherwise no module scans for realness again; each
follows the dtypes it is given:

- a factorization cache takes A in once (``rkupdate.dense._banded``): a
  narrow band, dense or ``scipy.sparse``, goes into band storage, and the
  rule and the finiteness check of :func:`as_array` apply to the band,
  which holds every nonzero, so a narrow sparse band is never densified
  and a dense one is not copied; any other A is kept as :func:`as_array`
  gives it.  Its LU at a real shift of a real A is real;
- a Krylov basis is ``np.result_type`` of its operator and its seed, real
  blocks stay real through products, real LUs, paired steps for conjugate
  pole pairs and the QR, and the first complex block promotes the basis
  once (see :mod:`rkupdate.arnoldi`);
- a real operator or basis meets a complex block through the block's
  ``float64`` view (``rkupdate.dense._real_product``) and is never cast;
- the dense kernels apply the rule to the small matrices they compute and
  decompose (:func:`rkupdate.dense.funm_small`, ``norm2``,
  ``norm2_hermitian``).

What the solvers return has fixed dtypes: couplings, cores, the results
of ``funm_small`` and the sign update's factors are ``complex128``; bases,
and matrices read from a file, are ``float64`` when they are real.
Hermitian structure is never detected by scanning entries: the Hermitian
mode is the caller's choice, and a factorization cache learns whether A is
Hermitian from one product probe (``FactorizationCache.hermitian``).
"""

import numpy as np
import scipy.sparse

__all__ = ["as_array", "real_if_real"]


def real_if_real(M):
    """The realness rule: M's ``float64`` real part when M is complex with
    no nonzero imaginary entry, M itself otherwise."""
    if np.iscomplexobj(M) and not M.imag.any():
        return M.real
    return M


def as_array(A, name="A", *, rows=None, square=False):
    """A as a finite, C-contiguous 2-d array, ``float64`` when it is real by
    :func:`real_if_real` and ``complex128`` otherwise.

    A ``scipy.sparse`` A is densified (``toarray``; a factorization cache
    keeps a narrow sparse band out of this path), and a 1-d A is one
    column.  ``rows`` requires that many rows (a block
    conforming with an operator); ``square`` requires a square matrix.
    """
    M = A.toarray() if scipy.sparse.issparse(A) else np.asarray(A)
    if M.ndim == 1:
        M = M[:, None]
    if M.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got ndim={M.ndim}")
    M = np.asarray(M, dtype=np.float64 if M.dtype.kind in "biuf" else np.complex128)
    # the realness cut comes first, so that a complex-stored real matrix is
    # scanned as float64; a NaN or infinite imaginary part is nonzero and
    # keeps the complex scan
    M = np.ascontiguousarray(real_if_real(M))
    if not np.isfinite(M).all():
        raise ValueError(f"{name} contains non-finite entries")
    if rows is not None and M.shape[0] != rows:
        raise ValueError(f"{name} has {M.shape[0]} rows, expected {rows}")
    if square and M.shape[0] != M.shape[1]:
        raise ValueError(f"{name} must be square, got shape {M.shape}")
    return M


def is_infinite_pole(xi):
    """True when the pole denotes a polynomial (multiplication) step."""
    return not np.isfinite(complex(xi).real) or not np.isfinite(complex(xi).imag)
