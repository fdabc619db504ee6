import numpy as np
import pytest
import scipy.io
import scipy.sparse

from rkupdate.mmio import read_matrix, write_matrix

from conftest import rand_complex


def _write(path, M, form):
    """The library writes the array format; coordinate files, which it only
    reads, come from scipy."""
    if form == "array":
        write_matrix(path, M)
    else:
        scipy.io.mmwrite(path, scipy.sparse.coo_matrix(M))


@pytest.mark.parametrize("form", ["array", "coordinate"])
def test_complex_round_trip(tmp_path, rng, form):
    M = rand_complex(rng, 5, 3)
    path = tmp_path / "m.mtx"
    _write(path, M, form)
    back = read_matrix(path)
    assert back.dtype == np.complex128
    assert np.allclose(back, M, atol=0, rtol=1e-15)


@pytest.mark.parametrize("form", ["array", "coordinate"])
def test_real_written_as_real(tmp_path, rng, form):
    M = rng.standard_normal((4, 4))
    path = tmp_path / "m.mtx"
    _write(path, M, form)
    header = path.read_text().splitlines()[0]
    assert "real" in header
    assert np.allclose(read_matrix(path), M, atol=0, rtol=1e-15)


def test_reads_handwritten_coordinate(tmp_path):
    text = """%%MatrixMarket matrix coordinate complex general
2 2 2
1 1 1.0 2.0
2 2 -3.0 0.5
"""
    path = tmp_path / "hand.mtx"
    path.write_text(text)
    M = read_matrix(path)
    assert M[0, 0] == 1.0 + 2.0j
    assert M[1, 1] == -3.0 + 0.5j
    assert M[0, 1] == 0.0


def test_rejects_nonfinite(tmp_path):
    path = tmp_path / "bad.mtx"
    path.write_text("""%%MatrixMarket matrix array real general
1 1
nan
""")
    with pytest.raises(ValueError):
        read_matrix(path)
