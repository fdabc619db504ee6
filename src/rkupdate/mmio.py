"""Matrix Market I/O for dense matrices.

Thin wrappers over scipy.io.  Files in the array and the coordinate format
are read, with real or complex entries, into contiguous arrays that are
real or complex by the realness rule of :mod:`rkupdate._validation`;
matrices are written in the array format.
"""

import scipy.io

from ._validation import as_array

__all__ = ["read_matrix", "write_matrix"]


def read_matrix(path):
    """Read a Matrix Market file (array or coordinate) as a dense array."""
    return as_array(scipy.io.mmread(path), name=str(path))


def write_matrix(path, M):
    """Write a dense matrix in the Matrix Market array format, with real
    entries when M is real by the realness rule (for interoperability)."""
    scipy.io.mmwrite(path, as_array(M, "M"))
