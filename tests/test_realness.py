"""Generated-input tests of the realness rule of ``rkupdate._validation``.

Real data are real whatever their container: the same values passed as
``float64`` and as ``complex128`` give the same bits in every solver.  A
genuinely complex run of the same Hermitian update, seeded with B times a
unit phase (which leaves B J B* unchanged), agrees with the real run.
"""

import math

import numpy as np
import pytest
import scipy.sparse
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rkupdate._validation import as_array
from rkupdate.dense import norm2
from rkupdate.functions import FunctionSpec
from rkupdate.oracles import dense_update
from rkupdate.poles import INF, PolePlan
from rkupdate.signsylv import SylvesterProblem, sign_update, sylvester_solve_krylov
from rkupdate.updater import _schedule, run_update

from conftest import core_at, coupling_at

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


@pytest.mark.parametrize("entry", [complex(math.nan, 0.0), complex(1.0, math.inf),
                                   complex(math.inf, 0.0), complex(1.0, math.nan)],
                         ids=["nan-real-part", "inf-imaginary-part", "inf-real-part",
                              "nan-imaginary-part"])
def test_complex_storage_with_a_non_finite_entry_is_rejected(entry):
    # a zero imaginary part takes the real copy, which is then scanned; a
    # NaN or infinite imaginary part is nonzero and keeps the complex scan
    M = np.eye(4, dtype=complex)
    M[1, 2] = entry
    with pytest.raises(ValueError, match="^A contains non-finite entries$"):
        as_array(M)
    M[1, 2] = 0.5
    assert as_array(M).dtype == np.float64
    assert np.array_equal(as_array(M), as_array(M.real))


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
def test_a_sparse_matrix_gives_the_bits_of_the_dense_one(instance):
    # scipy.sparse input is densified on entry, then follows the realness rule
    A, B, J, C = instance
    runs = [run_update(M, Bm, Cm, f=INV_SQRT, plan=PLAN, m_max=5, tol=0.0)
            for M, Bm, Cm in ((A, B, C),
                              (scipy.sparse.csr_array(A), B, scipy.sparse.coo_matrix(C)),
                              (scipy.sparse.csr_matrix(A.astype(complex)), B, C))]
    for run in runs[1:]:
        _same_run(run, runs[0])
    assert runs[1][0].left.cache.A.dtype == np.float64

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


#: conjugate pairs plus a real pole: steps 1-2 and 4-5 are paired for real
#: data, so their first steps are gaps, and steps 2, 3, 5 and 6 are
#: evaluated
PAIR_PLAN = PolePlan((-1.0 + 1.5j, -1.0 - 1.5j, -3.0), repetition="cyclic")
PAIR_STEPS = 6
EVALUATED = (2, 3, 5, 6)


def _iterates(left, right, solve, steps):
    """{m: the dense iterate U_m X_m V_m*} at the given steps, with X_m =
    solve(m) from the leading blocks of the bases."""
    ell = left.block_size
    return {m: left.basis[:, :m * ell] @ solve(m) @ right.basis[:, :m * ell].conj().T
            for m in steps}


def _agree_at_pair_ends(paired, single, reports, scale, single_steps=range(1, PAIR_STEPS + 1)):
    """The paired run evaluates the steps EVALUATED and the single-step run
    the steps ``single_steps`` (each has a true error or a residual there),
    and their iterates agree."""
    for report, steps in zip(reports, (EVALUATED, single_steps)):
        assert [m for m, e in enumerate(report.true_errors, start=1)
                if not math.isnan(e)] == list(steps)
    for m in EVALUATED:
        assert norm2(paired[m] - single[m]) <= 1e-12 * scale


@PROPERTIES
@given(real_hermitian(), st.floats(0.1, 6.2))
def test_conjugate_pairs_in_run_update(instance, theta):
    # the same real data in both containers take the paired path, with the
    # same bits; complex data (a unit phase on the seeds, which leaves
    # B J B* and B C* unchanged) take single steps, and the two agree
    A, B, J, C = instance
    phase = np.exp(1j * theta)
    # the dense references make every run evaluate every step (a run
    # without one evaluates only the checkpoint schedule's steps)
    ref_h = dense_update(A, B @ J @ B.T, INV_SQRT, hermitian=True)
    ref_g = dense_update(A, B @ C.T, INV_SQRT)
    hermitian = [run_update(M, Bm, f=INV_SQRT, plan=PAIR_PLAN, m_max=PAIR_STEPS, tol=0.0, J=Jm,
                            true_update=ref_h)
                 for M, Bm, Jm in ((A, B, J), _as_complex(A, B, J))]
    _same_run(*hermitian)
    two_sided = [run_update(M, Bm, Cm, f=INV_SQRT, plan=PAIR_PLAN, m_max=PAIR_STEPS, tol=0.0,
                            true_update=ref_g)
                 for M, Bm, Cm in ((A, B, C), _as_complex(A, B, C))]
    _same_run(*two_sided)
    single = [run_update(A, phase * B, f=INV_SQRT, plan=PAIR_PLAN, m_max=PAIR_STEPS, tol=0.0,
                         J=J, true_update=ref_h),
              run_update(A, phase * B, phase * C, f=INV_SQRT, plan=PAIR_PLAN,
                         m_max=PAIR_STEPS, tol=0.0, true_update=ref_g)]
    # an update f(A + D) - f(A) is a difference of two functions of norm
    # about ||f(A)||, and its rounding is relative to that: two complex runs
    # that differ only in the phase disagree by up to 5.3e-13 ||f(A)|| (and
    # by 6.6e-12 of the update's own norm) over 60 generated instances,
    # a paired and a complex run by up to 3.0e-13 ||f(A)||
    scale = np.linalg.eigvalsh(A)[0] ** -0.5
    for (paired, rep), (ref, ref_rep), Jm in zip((hermitian[0], two_sided[0]), single, (J, None)):
        assert paired.left.basis.dtype == paired.right.basis.dtype == np.float64
        assert ref.left.basis.dtype == np.complex128
        _agree_at_pair_ends(
            _iterates(paired.left, paired.right,
                      lambda m: coupling_at(paired, m, INV_SQRT, Jm), EVALUATED),
            _iterates(ref.left, ref.right, lambda m: coupling_at(ref, m, INV_SQRT, Jm),
                      range(1, PAIR_STEPS + 1)),
            (rep, ref_rep), scale)


@PROPERTIES
@given(real_hermitian(), st.floats(0.1, 6.2))
def test_conjugate_pairs_in_sylvester_solve_krylov(instance, theta):
    A, B, _, C = instance
    A2 = -A - 5.0 * np.eye(A.shape[0])
    phase = np.exp(1j * theta)
    runs = [sylvester_solve_krylov(SylvesterProblem.create(*args), PAIR_PLAN,
                                   m_max=PAIR_STEPS, tol=0.0, d=1)
            for args in ((A, A2, B, C), _as_complex(A, A2, B, C), (A, A2, phase * B, phase * C))]
    (z1, q1), (z2, q2), (z3, q3) = runs
    for x, y in ((z1.left, z2.left), (z1.core, z2.core), (z1.right, z2.right)):
        assert x.dtype == y.dtype and np.array_equal(x, y)
    assert q1.estimates == q2.estimates and q1.true_errors == q2.true_errors
    assert z1.left.dtype == z1.right.dtype == np.float64 and z3.left.dtype == np.complex128
    # d = 1 has an estimate at every evaluated step after the first
    assert [not math.isnan(e) for e in q1.estimates] == [False, False, True, False, True, True]
    single = _iterates(z3.basis_left, z3.basis_right, lambda m: core_at(z3, m),
                       range(1, PAIR_STEPS + 1))
    paired = _iterates(z1.basis_left, z1.basis_right, lambda m: core_at(z1, m), EVALUATED)
    # the Sylvester solver evaluates the steps of the checkpoint schedule
    # of its two bases, where the paired run's EVALUATED lie
    n, ell = B.shape
    _agree_at_pair_ends(paired, single, (q1, q3), norm2(single[PAIR_STEPS]),
                        sorted(_schedule(n, ell, 2, PAIR_STEPS)))
