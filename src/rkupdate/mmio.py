"""Matrix Market I/O for dense complex matrices.

Thin wrappers over scipy.io that always hand back contiguous complex128
arrays.  Files in the array and the coordinate format are read, with real
or complex entries; matrices are written in the array format.
"""

import numpy as np
import scipy.io
import scipy.sparse

from ._validation import as_matrix

__all__ = ["read_matrix", "write_matrix"]


def read_matrix(path):
    """Read a Matrix Market file (array or coordinate) as a dense complex array."""
    M = scipy.io.mmread(path)
    if scipy.sparse.issparse(M):
        M = M.toarray()
    return as_matrix(np.asarray(M), name=str(path))


def write_matrix(path, M):
    """Write a dense matrix in the Matrix Market array format.

    Complex data is written as complex; matrices with exactly real entries
    are written as real for interoperability.
    """
    M = as_matrix(M, "M")
    if np.all(M.imag == 0.0):
        M = M.real.copy()
    scipy.io.mmwrite(path, M)
