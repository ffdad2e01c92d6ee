"""Schur-complement assembly and regularized Cholesky factorization.

The solver reduces every direction computation to one symmetric positive
definite system ``(M + delta*I) d = rhs`` where
``M = hess_lag + J^T Y S^{-1} J`` at the current iterate (a new ``M``
after every accepted step).  ``M`` is assembled from the row blocks the
problem declares: ``M = sym(H) + J_G^T D_G J_G + diag(sum_{i in B, var_i
= j} d_i)`` with ``d = y/s``, ``B`` the rows declared in
``NlpProblem.bounds`` and ``G`` the others.  A bound row is
``sign*x_var - sign*c``, so its Jacobian row is ``sign*e_var`` and, as
``sign^2 = 1``, it adds ``d_i`` to one diagonal entry: one ``bincount``
replaces those rows of the dense product (three quarters of the rows on
a box QP with 256 bound rows and 64 general rows), as IPOPT keeps bounds
apart from general constraints.  The general rows, linear ones included, stay
one dense product.  ``delta`` is found by trial
factorization: attempt ``delta = 0`` when the diagonal allows it, otherwise
restart from the previous shift over ``delta_dec`` (or a floor, if larger)
and multiply by ``delta_inc`` until the factorization succeeds or the
shift cap is hit.  A failed direction escalates the shift to
``max(delta_inc*delta, grad_norm/dx_norm)``.  The caller passes the shift
of its live factorization, the only one remembered.  It is also the last
successful shift, so a third term, that shift over ``delta_dec``, could
never win.

The restart floor is :func:`shift_floor`, ``min(delta_min,
||grad L_mu||_inf / max(1, ||x||_inf))``.  ``M`` is singular along a
recession direction; a fixed ``delta_min`` floor there caps each step near
``||g||/delta_min``, so ``||x||`` grows only additively, while this floor
lets a step reach about ``||x||``.  It is scale-invariant in ``x`` only
once ``||x||_inf > 1``.  A fixed tiny floor (IPOPT's 1e-20, Waechter &
Biegler 2006, section 3.1) instead certifies divergence after one step.
The paper's own restart rule is not in ``PAPER.md``; its reference
implementation is github.com/ohinder/OnePhase.

The trial factorizations (LAPACK ``dpotrf``) and the backsolves
(``dpotrs``) call the OpenBLAS that numpy bundles, the same build that
assembles ``M``, through one ``ctypes`` binding.  scipy ships a second
OpenBLAS with its own thread pool: factoring with it while numpy's
assembled made the two pools contend on every outer iteration (an order
of magnitude at n = 128 on two cores), and importing ``scipy.linalg`` was
most of ``import onephase``'s time.  ``np.linalg.cholesky`` calls the same ``dpotrf`` but makes three
copies of the matrix around it, each a transpose, and raises an exception
for every failed trial; ``np.linalg.solve`` would factor again.  So one
OpenBLAS does all the dense work, a trial makes one copy, and
``onephase`` does not import scipy.  Thread counts are left to the user's
``OPENBLAS_NUM_THREADS``.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import _umath_linalg

from .iterate import BETA1, Iterate
from .problem import NlpProblem

# The paper's shift-strategy parameters.
DELTA_MIN = 1e-8           # smallest nonzero shift
DELTA_INC = 8.0            # growth factor after a failed trial
DELTA_DEC = float(np.pi)   # decay of the previous shift at the next restart
DELTA_MAX = 1e50           # shift cap; reaching it ends the solve


# dlsym through the handle of numpy's _umath_linalg extension also searches
# the libraries that extension links, so the bundled OpenBLAS is found
# without its file name, which carries a build hash.
_LAPACK = ctypes.CDLL(_umath_linalg.__file__)
_LapackInt = ctypes.c_int64 if _umath_linalg._ilp64 else ctypes.c_int


def _bind_lapack(routine: str):
    """LAPACK ``routine`` of numpy's OpenBLAS, returning nothing.

    PyPI wheels export it with a ``scipy_`` prefix, and with a ``64_``
    suffix when numpy's LAPACK takes 64-bit integers (``_LapackInt``).
    """
    suffix = "_64_" if _umath_linalg._ilp64 else "_"
    names = (f"scipy_{routine}{suffix}", f"{routine}{suffix}")
    for name in names:
        if hasattr(_LAPACK, name):
            fn = getattr(_LAPACK, name)
            fn.restype = None
            return fn
    raise ImportError(f"numpy's LAPACK exports no {routine} (tried {', '.join(names)})")


_dpotrf, _dpotrs = map(_bind_lapack, ("dpotrf", "dpotrs"))
_ONE = ctypes.byref(_LapackInt(1))
# The length of the one-character UPLO, which Fortran passes after the
# declared arguments.
_UPLO_LEN = ctypes.c_size_t(1)
# A zero-length ctypes array views the start of a buffer of any length.
_Doubles = ctypes.c_double * 0


class MaxDeltaError(RuntimeError):
    """The regularization shift exceeded its cap; the solve is abandoned.
    ``attempts`` counts the trial factorizations spent on the way."""

    def __init__(self, delta: float, reason: str = "", attempts: int = 0):
        self.delta = delta
        self.attempts = attempts
        super().__init__(reason or f"shift {delta:.3e} reached cap {DELTA_MAX:.3e}")


@dataclass
class FactorizedSystem:
    """Lower Cholesky factor of ``shifted = M + delta*I`` (``M`` if delta = 0),
    Fortran-ordered: the layout ``dpotrs`` reads in :func:`_backsolve`, which
    reads only the lower triangle.  The strict upper triangle is unspecified
    (it holds entries of ``M``)."""

    delta: float
    shifted: np.ndarray
    factor: np.ndarray
    attempts: int = 1
    solves: int = field(default=0, compare=False)


def assemble_schur(problem: NlpProblem, it: Iterate) -> np.ndarray:
    """Build ``M = hess_lag(x, y - mu*beta1*e) + J^T Y S^{-1} J`` at ``it``.

    One Hessian evaluation; the Jacobian is the iterate's cached one.
    Slacks and duals must be strictly positive.  The rows declared in
    ``problem.bounds`` enter as the diagonal ``bincount(var, y/s)``, the
    other rows as the product ``J_G^T D_G J_G``; the result matches the
    dense product to rounding, and is that product to the bit when the
    problem declares no bounds.  ``M`` is made exactly symmetric once, at
    the end.  A Hessian that ``hess_lag`` accepts as symmetric within its
    ``1e-12`` tolerance but that is not exactly symmetric is averaged there
    with the rest, which differs from averaging it alone only at rounding
    level.
    """
    s, y, jac = it.s, it.y, it.jac
    assert (s > 0).all() and (y > 0).all(), "assemble_schur needs s, y > 0"
    M = np.array(problem.hess_lag(it.x, y - it.mu * BETA1), dtype=float)
    d = y / s
    general, rows = problem._general_rows, problem._bound_row
    jac_g = jac[general]
    M += (jac_g.T * d[general]) @ jac_g
    M.ravel()[:: problem.n + 1] += np.bincount(problem._bound_var, d[rows], minlength=problem.n)
    return 0.5 * (M + M.T)


def _try_cholesky(A: np.ndarray) -> np.ndarray | None:
    """Lower Cholesky factor of ``A``, Fortran-ordered, or ``None`` when
    ``A`` is not positive definite.

    ``A`` must be finite (:func:`factorize_with_shift` checks): LAPACK
    factors NaNs into NaNs without reporting a failure.  ``A`` must also be
    exactly symmetric, as :func:`assemble_schur` makes it: ``dpotrf`` reads
    the lower triangle of a C-ordered copy taken as Fortran-ordered, which
    is the upper triangle of ``A``.  The copy is factored in place and its
    transpose, the factor in Fortran order, returned with ``A``'s entries
    left in its strict upper triangle.
    """
    factor = np.array(A, dtype=np.float64, order="C")
    n = factor.shape[0]
    if factor.shape != (n, n):
        raise ValueError(f"potrf needs a square matrix, got shape {factor.shape}")
    size = ctypes.byref(_LapackInt(n))
    info = _LapackInt()  # one per call: ctypes releases the GIL during it
    _dpotrf(b"L", size, _Doubles.from_buffer(factor), size, ctypes.byref(info), _UPLO_LEN)
    if info.value > 0:
        return None
    if info.value < 0:
        raise ValueError(f"illegal value in {-info.value}th argument of internal potrf")
    return factor.T


def shift_floor(grad_norm: float, x_norm: float) -> float:
    """Restart floor of the shift: ``min(delta_min, grad_norm / max(1, x_norm))``.

    A zero gradient gives ``delta_min``, as in :func:`escalate_delta`: a
    restart at 0 would never grow.
    """
    floor = min(DELTA_MIN, grad_norm / max(1.0, x_norm))
    return DELTA_MIN if floor == 0.0 else floor


def factorize_with_shift(M: np.ndarray, delta_in: float,
                         floor: float = DELTA_MIN) -> FactorizedSystem:
    """Factor ``M + delta*I`` choosing delta by trial Cholesky.

    ``delta_in`` is the caller's previous shift (0 on the first outer
    iteration).  If ``min diag(M) > 0`` an unshifted factorization is tried
    first; otherwise, or when it fails, the shift starts at
    ``max(delta_in / delta_dec, floor - tau)`` and grows as in
    :func:`factorize_growing_shift`.  ``floor`` must be positive; the
    solver passes :func:`shift_floor` at the iterate ``M`` was assembled
    at, and the default is ``delta_min``.  A non-finite ``M`` (an
    overflowed assembly) raises :class:`MaxDeltaError` at once: no shift
    factors it.  ``M`` must be exactly symmetric, as :func:`assemble_schur`
    returns it: the trials read its upper triangle (see :func:`_try_cholesky`).
    """
    if not np.isfinite(M).all():
        raise MaxDeltaError(math.inf, "Schur matrix has non-finite entries; no shift factors it")
    tau = float(M.diagonal().min())
    attempts = 0

    if tau > 0:
        attempts += 1
        L = _try_cholesky(M)
        if L is not None:
            return FactorizedSystem(0.0, M, L, attempts)
        tau = 0.0

    delta = max(delta_in / DELTA_DEC, floor - tau)
    return factorize_growing_shift(M, delta, attempts)


def factorize_growing_shift(M: np.ndarray, delta: float,
                            attempts: int = 0) -> FactorizedSystem:
    """Factor ``M + delta*I``, multiplying delta by ``delta_inc`` after
    every failed trial Cholesky.

    ``attempts`` counts trials already spent on this matrix, whose
    finiteness :func:`factorize_with_shift` has checked.  Raises
    :class:`MaxDeltaError`, carrying the attempts, once ``delta >= delta_max``.
    """
    shifted, diagonal = M.copy(), M.diagonal()  # one copy, its diagonal rewritten per trial
    while True:
        if delta >= DELTA_MAX:
            raise MaxDeltaError(delta, attempts=attempts)
        attempts += 1
        np.fill_diagonal(shifted, diagonal + delta)
        L = _try_cholesky(shifted)
        if L is not None:
            return FactorizedSystem(delta, shifted, L, attempts)
        delta = DELTA_INC * delta


def solve_shifted(fs: FactorizedSystem, rhs: np.ndarray) -> np.ndarray:
    """Solve ``(M + delta*I) d = rhs`` via the stored factor.

    One round of iterative refinement is applied when the raw residual
    exceeds ``1e-10 * (1 + ||rhs||_inf)``; Cholesky backsolves alone lose
    accuracy near convergence.  An overflowed solution comes back
    non-finite, without a warning or an exception: the step it belongs to
    is rejected.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        d = _backsolve(fs.factor, rhs)
        fs.solves += 1
        resid = rhs - fs.shifted @ d
        if np.abs(resid).max(initial=0.0) > 1e-10 * (1.0 + np.abs(rhs).max(initial=0.0)):
            d = d + _backsolve(fs.factor, resid)
            fs.solves += 1
    return d


def _backsolve(factor: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    # dpotrs sees only a pointer: a C-ordered factor would be read as its
    # transpose, and a short right-hand side would be overrun.
    n = factor.shape[0]
    d = np.array(rhs, dtype=np.float64)
    if (factor.dtype != np.float64 or not factor.flags.f_contiguous
            or factor.shape != (n, n) or d.shape != (n,)):
        raise ValueError("potrs needs a Fortran-ordered float64 (n, n) factor "
                         f"and a length-n right-hand side, got {factor.dtype} "
                         f"{factor.shape} and {d.shape}")
    size = ctypes.byref(_LapackInt(n))
    info = _LapackInt()  # one per call: ctypes releases the GIL during it
    # Arguments are passed as ctypes objects, without argtypes, whose
    # conversions cost more than the whole call at n = 5.
    _dpotrs(b"L", size, _ONE, _Doubles.from_buffer(factor.T), size,
            _Doubles.from_buffer(d), size, ctypes.byref(info), _UPLO_LEN)
    if info.value != 0:
        raise ValueError(f"illegal value in {-info.value}th argument of internal potrs")
    return d


def escalate_delta(delta: float, grad_norm: float, dx_norm: float) -> float:
    """Shift increase after a failed step.

    Returns ``max(delta_inc*delta, grad_norm/dx_norm)``, with ``delta_min``
    substituted only when both terms vanish.  ``delta`` is the live
    factorization's shift, which is also the last successful one, so a
    third term, that shift over ``delta_dec``, never beats the first and
    is left out.  Keeping ``delta_min`` out of the max preserves scale
    invariance: diverging problems need shifts far below it (the right
    shift is about gradient over step length), and flooring there would
    cap the step length and stall the divergence certificate.  The
    ``delta_min`` fallback needs no :func:`shift_floor` of its own: the
    ``grad_norm/dx_norm`` term is already scale-aware, and the fallback
    is reached only when the gradient and the live shift are both 0.  A
    result at or above the cap raises :class:`MaxDeltaError` when it is
    factored.
    ``dx_norm`` must be positive (a direction exists).
    """
    assert dx_norm > 0, "escalate_delta needs a nonzero direction"
    new = max(DELTA_INC * delta, grad_norm / dx_norm)
    return DELTA_MIN if new == 0.0 else new
