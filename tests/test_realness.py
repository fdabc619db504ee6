"""Generated-input tests of the realness rule of ``rkupdate._validation``.

Real data are real whatever their container: the same values passed as
``float64`` and as ``complex128`` give the same bits in every solver.  A
genuinely complex run of the same Hermitian update, seeded with B times a
unit phase (which leaves B J B* unchanged), agrees with the real run.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rkupdate.dense import norm2
from rkupdate.functions import FunctionSpec
from rkupdate.oracles import dense_update
from rkupdate.poles import INF, PolePlan
from rkupdate.signsylv import SylvesterProblem, sign_update, sylvester_solve_krylov
from rkupdate.updater import run_update

PROPERTIES = settings(derandomize=True, max_examples=12, deadline=None, database=None)
PLAN = PolePlan((-1.0, INF, -3.0), repetition="cyclic")
INV_SQRT = FunctionSpec.inv_sqrt()


@st.composite
def real_hermitian(draw):
    """(A, B, J, C): a real symmetric A with spectrum in [0.5, 4.5], dense
    or tridiagonal, a real block B of one or two columns, a positive
    diagonal J and a real C of B's width."""
    n = draw(st.integers(14, 24))
    ell = draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.sampled_from(["dense", "tridiagonal"])) == "dense":
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        A = (Q * rng.uniform(0.5, 4.5, n)) @ Q.T
        A = 0.5 * (A + A.T)
    else:
        off = rng.uniform(-1.0, 1.0, n - 1)
        rows = np.abs(np.r_[off, 0.0]) + np.abs(np.r_[0.0, off])
        A = np.diag(rows + rng.uniform(0.5, 2.5, n)) + np.diag(off, 1) + np.diag(off, -1)
    B = 0.1 * rng.standard_normal((n, ell))
    J = np.diag(rng.uniform(0.5, 1.5, ell))
    C = 0.1 * rng.standard_normal((n, ell))
    return A, B, J, C


def _as_complex(*arrays):
    return [M.astype(complex) for M in arrays]


def _same_run(got, ref):
    (s1, r1), (s2, r2) = got, ref
    for x, y in ((s1.left.basis, s2.left.basis), (s1.right.basis, s2.right.basis),
                 (s1.coupling, s2.coupling), (s1.factors()[0], s2.factors()[0])):
        assert x.dtype == y.dtype and np.array_equal(x, y)
    assert r1.estimates == r2.estimates and r1.true_errors == r2.true_errors
    assert r1.iterations == r2.iterations and r1.converged == r2.converged


@PROPERTIES
@given(real_hermitian())
def test_run_update_gives_the_same_bits_for_both_containers(instance):
    A, B, J, C = instance
    dense = dense_update(A, B @ J @ B.T, INV_SQRT, hermitian=True)
    hermitian = [run_update(M, Bm, f=INV_SQRT, plan=PLAN, m_max=5, tol=0.0, J=Jm,
                            true_update=T)
                 for M, Bm, Jm, T in ((A, B, J, dense), _as_complex(A, B, J, dense))]
    _same_run(*hermitian)
    assert hermitian[0][0].left.basis.dtype == np.float64
    assert hermitian[0][0].coupling.dtype == np.complex128
    two_sided = [run_update(M, Bm, Cm, f=INV_SQRT, plan=PLAN, m_max=5, tol=0.0)
                 for M, Bm, Cm in ((A, B, C), _as_complex(A, B, C))]
    _same_run(*two_sided)


@PROPERTIES
@given(real_hermitian())
def test_sign_and_sylvester_give_the_same_bits_for_both_containers(instance):
    A, B, J, C = instance
    # an indefinite A of the same structure, away from singular, and
    # negative real poles
    S = A - 2.5 * np.eye(A.shape[0])
    for M in (S, S + B @ J @ B.T):
        assume(np.abs(np.linalg.eigvalsh(M)).min() > 0.1)
    plan = PolePlan((-0.5, -4.0, INF), repetition="cyclic")
    sign = [sign_update(M, Bm, Jm, plan, m_max=3, tol=0.0)
            for M, Bm, Jm in ((S, B, J), _as_complex(S, B, J))]
    (r1, p1), (r2, p2) = sign
    for x, y in ((r1.left, r2.left), (r1.right, r2.right), (r1.coupling, r2.coupling)):
        assert x.dtype == y.dtype == np.complex128 and np.array_equal(x, y)
    assert p1.estimates == p2.estimates
    sylvester = [sylvester_solve_krylov(SylvesterProblem.create(*args), PLAN, m_max=4, tol=0.0)
                 for args in ((A, -A - 5.0 * np.eye(A.shape[0]), B, C),
                              _as_complex(A, -A - 5.0 * np.eye(A.shape[0]), B, C))]
    (z1, q1), (z2, q2) = sylvester
    for x, y in ((z1.left, z2.left), (z1.core, z2.core), (z1.right, z2.right)):
        assert x.dtype == y.dtype and np.array_equal(x, y)
    assert q1.estimates == q2.estimates and q1.true_errors == q2.true_errors


@PROPERTIES
@given(real_hermitian(), st.floats(0.1, 6.2))
def test_a_phase_on_the_seed_gives_the_same_update(instance, theta):
    A, B, J, _ = instance
    real, _ = run_update(A, B, f=INV_SQRT, plan=PLAN, m_max=5, tol=0.0, J=J)
    cplx, _ = run_update(A, np.exp(1j * theta) * B, f=INV_SQRT, plan=PLAN, m_max=5,
                         tol=0.0, J=J)
    assert real.left.basis.dtype == np.float64
    assert cplx.left.basis.dtype == np.complex128
    ref = real.materialize()
    assert norm2(cplx.materialize() - ref) <= 1e-12 * norm2(ref)
