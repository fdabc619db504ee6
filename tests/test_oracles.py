import numpy as np
import pytest

from rkupdate.dense import eval_rational_pf, funm_block_triangular, funm_small, norm2
from rkupdate.errors import DenominatorZero, MSingular
from rkupdate.functions import FunctionSpec, PartialFractions
from rkupdate.oracles import (
    HankelCoefficients,
    ORACLE_MAX_N,
    bvl_update,
    dense_update,
    sherman_morrison,
)

from conftest import rand_complex, random_hermitian, rational_from_partial_fractions


class TestDenseUpdate:
    def test_zero_update(self, rng):
        A = rand_complex(rng, 10, 10)
        assert norm2(dense_update(A, np.zeros((10, 10)), FunctionSpec.exp())) <= 1e-12

    def test_identity_map(self, rng):
        A = rand_complex(rng, 10, 10)
        D = rand_complex(rng, 10, 10)
        assert norm2(dense_update(A, D, FunctionSpec.identity()) - D) <= 1e-13 * norm2(D)

    def test_block_triangular_identity(self, rng):
        # the coupling block of f([[A, D],[0, A+D]]) equals f(A+D) - f(A)
        A = rand_complex(rng, 8, 8)
        D = 0.5 * rand_complex(rng, 8, 8)
        f = FunctionSpec.exp()
        _, F12, _ = funm_block_triangular(A, D, A + D, f)
        diff = dense_update(A, D, f)
        assert norm2(F12 - diff) <= 1e-10 * max(norm2(diff), 1.0)

    def test_size_guard(self):
        n = ORACLE_MAX_N + 1
        with pytest.raises(ValueError):
            dense_update(np.eye(n), np.zeros((n, n)), FunctionSpec.identity())


class TestShermanMorrison:
    def test_zero_vector(self, rng):
        A = rand_complex(rng, 6, 6) + 3 * np.eye(6)
        assert norm2(sherman_morrison(A, np.zeros((6, 1)), rand_complex(rng, 6, 1))) == 0.0

    def test_identity_instance(self):
        e1 = np.eye(2)[:, :1]
        out = sherman_morrison(np.eye(2), e1, e1)
        assert np.allclose(out, -0.5 * e1 @ e1.T, atol=1e-15)

    def test_matches_dense_inverse_update(self, rng):
        for _ in range(5):
            A = rand_complex(rng, 20, 20) + 4 * np.eye(20)
            b = rand_complex(rng, 20, 1)
            c = rand_complex(rng, 20, 1)
            sm = sherman_morrison(A, b, c)
            dense = np.linalg.inv(A + b @ c.conj().T) - np.linalg.inv(A)
            assert norm2(sm - dense) <= 1e-12 * norm2(dense)

    def test_denominator_zero(self):
        e1 = np.eye(2)[:, :1]
        with pytest.raises(DenominatorZero):
            sherman_morrison(np.eye(2), e1, -e1)


class TestHankel:
    def test_structure(self):
        coeffs = HankelCoefficients(alpha=(1.0, 2.0, 3.0, 4.0), beta=(0.0, 1.0))
        H = coeffs.H_alpha
        assert H.shape == (3, 3)
        assert H[0, 0] == 2.0  # alpha_1
        # constant anti-diagonals
        for i in range(3):
            for j in range(3):
                k = i + j + 1
                assert H[i, j] == (coeffs.alpha[k] if k < 4 else 0.0)

    def test_m(self):
        assert HankelCoefficients((1.0,), (0.0, 1.0)).m == 1


class TestBVL:
    def test_reduces_to_sherman_morrison(self, rng):
        A = rand_complex(rng, 15, 15) + 4 * np.eye(15)
        b = rand_complex(rng, 15, 1)
        c = rand_complex(rng, 15, 1)
        X, Y = bvl_update(A, b, c, HankelCoefficients(alpha=(1.0,), beta=(0.0, 1.0)))
        sm = sherman_morrison(A, b, c)
        assert norm2(X @ Y.conj().T - sm) <= 1e-12 * norm2(sm)

    def test_singular_coupling_matrix(self):
        # r(z) = 1/z: M = 1 + c* A^{-1} b vanishes, as the Sherman-Morrison
        # denominator does
        e1 = np.eye(2)[:, :1]
        with pytest.raises(MSingular):
            bvl_update(np.eye(2), e1, -e1, HankelCoefficients(alpha=(1.0,), beta=(0.0, 1.0)))

    def test_constant_rational(self, rng):
        A = rand_complex(rng, 6, 6)
        X, Y = bvl_update(A, rand_complex(rng, 6, 1), rand_complex(rng, 6, 1),
                          HankelCoefficients(alpha=(3.0,), beta=(1.0,)))
        assert X.shape == (6, 0)
        assert norm2(X @ Y.conj().T) == 0.0

    def test_degree_four_vs_dense(self, rng):
        n = 25
        A = rand_complex(rng, n, n)
        A /= norm2(A)
        b = 0.4 * rand_complex(rng, n, 1)
        c = 0.4 * rand_complex(rng, n, 1)
        pf = PartialFractions((0.1,), (2.0, -2.5, 1.5j + 1.0, -1.5j + 1.0),
                              (1, 1, 1, 1),
                              ((1.0,), (0.5,), (0.25 - 0.1j,), (0.25 + 0.1j,)))
        num, den = rational_from_partial_fractions(pf)
        f = FunctionSpec.rational(pf)
        X, Y = bvl_update(A, b, c, HankelCoefficients(alpha=tuple(num), beta=tuple(den)))
        dense = dense_update(A, b @ c.conj().T, f)
        assert norm2(X @ Y.conj().T - dense) <= 1e-8 * max(norm2(dense), 1e-10)


class TestRationalEvalPF:
    def test_constant_only(self, rng):
        A = rand_complex(rng, 7, 7)
        out = eval_rational_pf(A, PartialFractions((2.5,), (), (), ()))
        assert np.allclose(out, 2.5 * np.eye(7), atol=1e-15)

    def test_single_simple_pole(self, rng):
        A = rand_complex(rng, 9, 9)
        xi = 3.0 + 1.0j
        out = eval_rational_pf(A, PartialFractions((), (xi,), (1,), ((2.0,),)))
        expect = 2.0 * np.linalg.inv(A - xi * np.eye(9))
        assert norm2(out - expect) <= 1e-12 * norm2(expect)

    def test_diagonal_closed_form(self):
        d = np.array([0.5, 1.5, -2.0])
        A = np.diag(d)
        out = eval_rational_pf(A, PartialFractions((0.7,), (4.0,), (2,), ((1.5, -0.5),)))
        scalar = 0.7 + 1.5 / (d - 4.0) + (-0.5) / (d - 4.0) ** 2
        assert np.allclose(np.diag(out), scalar, rtol=1e-11)
        assert norm2(out - np.diag(np.diag(out))) <= 1e-12

    def test_double_pole_and_polynomial_part(self, rng):
        A = rand_complex(rng, 8, 8)
        I = np.eye(8)
        xi = -2.0 + 0.5j
        pf = PartialFractions((0.3, -1.0, 0.5j), (xi,), (2,), ((1.0 - 1.0j, 0.25),))
        R = np.linalg.solve(A - xi * I, I)
        expect = 0.3 * I - A + 0.5j * (A @ A) + (1.0 - 1.0j) * R \
            + 0.25 * np.linalg.solve(A - xi * I, R)
        out = eval_rational_pf(A, pf)
        assert norm2(out - expect) <= 1e-12 * norm2(expect)


def test_cross_check_update_paths(rng):
    # run_update == bvl_update == dense_update for rationals matched to the plan
    from rkupdate.updater import run_update

    n, m = 20, 3
    A = rand_complex(rng, n, n)
    A /= norm2(A)
    b = 0.3 * rand_complex(rng, n, 1)
    c = 0.3 * rand_complex(rng, n, 1)
    poles = (-2.0, 2.0 + 1.0j, 2.0 - 1.0j)
    pf = PartialFractions((0.2,), poles, (1, 1, 1),
                          ((0.8,), (0.3 + 0.2j,), (0.3 - 0.2j,)))
    num, den = rational_from_partial_fractions(pf)
    f = FunctionSpec.rational(pf)
    dense = dense_update(A, b @ c.conj().T, f)
    state, rep = run_update(A, b, c, f=f, plan=poles, m_max=m, tol=0.0, d=1)
    X, Y = bvl_update(A, b, c, HankelCoefficients(alpha=tuple(num), beta=tuple(den)))
    assert norm2(state.materialize() - dense) <= 1e-8 * norm2(dense)
    assert norm2(X @ Y.conj().T - dense) <= 1e-8 * norm2(dense)
