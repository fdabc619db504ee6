"""Rational Krylov approximation of low-rank updates of matrix functions.

Approximates f(A + B C*) - f(A) by projection onto block rational Krylov
subspaces, with pole-selection strategies (optimal single Markov pole,
quasi-optimal Zolotarev sets, sign/inverse-square-root Zolotarev poles,
extended patterns, Leja ordering), a priori error bounds, a sign-function
specialization through the squaring trick, and a Galerkin Sylvester solver
derived from it.
"""

from .arnoldi import FactorizationCache, KrylovBasis, adjoint_basis, build_basis
from .bounds import (
    BoundReport,
    SpectralWindow,
    eta_blaschke,
    frechet_perturbation_bound,
    markov_bound_hermitian,
    markov_bound_nonhermitian,
    markov_modified_bound,
    poly_update_bound,
    sign_update_bound,
)
from .dense import (
    ShiftedFactorization,
    funm_block_triangular,
    funm_small,
    norm2,
    qr_orthonormalize,
    shifted_factorize,
)
from .errors import *  # noqa: F401,F403  (exception names)
from .functions import FunctionSpec, PartialFractions
from .mmio import read_matrix, write_matrix
from .oracles import HankelCoefficients, bvl_update, dense_update, sherman_morrison
from .poles import (
    INF,
    EllipseMap,
    IntervalMap,
    PolePlan,
    exp_single_pole,
    extended_plan,
    leja_order,
    markov_single_pole,
    quasi_optimal_poles,
    zolotarev_invsqrt_poles,
    zolotarev_sign_poles,
)
from .signsylv import (
    SignUpdateResult,
    SylvesterProblem,
    SylvesterResult,
    sign_update,
    sylvester_dense,
    sylvester_solve_krylov,
)
from .updater import (
    UpdateReport,
    UpdateState,
    project_update,
    run_update,
    update_hermitian,
)

__version__ = "0.1.0"
