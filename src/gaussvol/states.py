"""Covariance-matrix algebra and classification of Gaussian states.

Phase-space coordinates are ordered (q1, p1, ..., qN, pN) and covariance
matrices are dimensionless (hbar = 1), so the vacuum is the identity.
"""

from __future__ import annotations

from enum import Enum
from typing import Sequence

import numpy as np

from .errors import (
    AsymmetricMatrixError,
    DomainError,
    InvalidArgumentError,
    NumericError,
)
from .twomode import DEFAULT_TOL

SYMMETRY_RTOL = 1e-12

__all__ = [
    "DEFAULT_TOL",
    "StateClass",
    "require_covariance",
    "dim_modes",
    "symplectic_form",
    "is_classical",
    "symplectic_eigenvalues",
    "is_quantum",
    "partial_transpose_two_mode",
    "is_separable_two_mode",
    "classify",
    "apply_congruence",
    "mode_permutation_matrix",
    "is_symplectic",
    "random_symplectic",
    "adjugate",
    "trace_adjugate",
]


class StateClass(Enum):
    """Classification of a symmetric matrix as a Gaussian state covariance."""

    NOT_A_STATE = "NotAState"
    CLASSICAL_ONLY = "ClassicalOnly"
    QUANTUM_SEPARABLE = "QuantumSeparable"
    QUANTUM_ENTANGLED = "QuantumEntangled"
    QUANTUM_UNDETERMINED = "QuantumUndetermined"


def require_covariance(V, rtol: float = SYMMETRY_RTOL) -> np.ndarray:
    """Validate a candidate covariance matrix and return it as a float array.

    The array must be two-dimensional, square with even side, and symmetric
    to within ``rtol`` relative to its largest entry.
    """
    A = np.asarray(V, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InvalidArgumentError(f"covariance matrix must be square, got shape {A.shape}")
    if A.shape[0] % 2 != 0 or A.shape[0] == 0:
        raise InvalidArgumentError(f"covariance matrix side must be even and positive, got {A.shape[0]}")
    if not np.isfinite(A).all():
        raise InvalidArgumentError("covariance matrix has non-finite entries")
    scale = max(float(np.abs(A).max()), 1.0)
    asym = float(np.abs(A - A.T).max())
    if asym > rtol * scale:
        raise AsymmetricMatrixError(
            f"matrix is asymmetric: max|V - V^T| = {asym:.3e} exceeds {rtol:.1e} relative tolerance"
        )
    return A


def dim_modes(V) -> int:
    """Number of modes N for a 2N x 2N covariance matrix."""
    A = np.asarray(V)
    return A.shape[-1] // 2


def symplectic_form(n_modes: int) -> np.ndarray:
    """Block-diagonal symplectic form with 2x2 blocks [[0, 1], [-1, 0]]."""
    if n_modes < 1:
        raise InvalidArgumentError("n_modes must be >= 1")
    omega = np.zeros((2 * n_modes, 2 * n_modes))
    for k in range(n_modes):
        omega[2 * k, 2 * k + 1] = 1.0
        omega[2 * k + 1, 2 * k] = -1.0
    return omega


def _as_batch(V) -> np.ndarray:
    A = np.asarray(V, dtype=float)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2] or A.shape[-1] % 2 != 0:
        raise InvalidArgumentError(f"expected (..., 2N, 2N) array, got shape {A.shape}")
    return A


def is_classical(V, tol: float = DEFAULT_TOL):
    """True where V is positive definite (smallest eigenvalue exceeds +tol).

    Accepts a single matrix or a stacked (..., 2N, 2N) array; returns a bool
    or a boolean array accordingly.
    """
    A = _as_batch(V)
    if A.ndim == 2:
        A = require_covariance(A)
    w = np.linalg.eigvalsh(A)
    out = w[..., 0] > tol
    return bool(out) if A.ndim == 2 else out


def _sym_sqrt(A: np.ndarray) -> np.ndarray:
    w, Q = np.linalg.eigh(A)
    w = np.sqrt(np.clip(w, 0.0, None))
    return np.einsum("...ik,...k,...jk->...ij", Q, w, Q)


def _symplectic_spectrum(V: np.ndarray) -> np.ndarray:
    """Symplectic eigenvalues of (..., 2N, 2N) matrices, ascending, one per mode.

    Uses the symmetric eigenproblem for V^(1/2) Omega V Omega^T V^(1/2), whose
    spectrum is the squared symplectic eigenvalues, each doubled.  Assumes the
    input is (close to) positive semidefinite; negative roundoff is clipped.
    """
    A = _as_batch(V)
    omega = symplectic_form(A.shape[-1] // 2)
    R = _sym_sqrt(A)
    K = R @ omega @ A @ omega.T @ R
    ev = np.linalg.eigvalsh(K)
    nu = np.sqrt(np.clip(ev, 0.0, None))
    return 0.5 * (nu[..., 0::2] + nu[..., 1::2])


def symplectic_eigenvalues(V) -> np.ndarray:
    """Symplectic eigenvalues of a positive definite covariance matrix, ascending."""
    A = require_covariance(V)
    w = np.linalg.eigvalsh(A)
    if w[0] <= 0.0:
        raise DomainError("symplectic eigenvalues require a positive definite matrix")
    return _symplectic_spectrum(A)


def is_quantum(V, tol: float = DEFAULT_TOL):
    """True where V is positive definite and its smallest symplectic eigenvalue is >= 1 - tol.

    Equivalent to the uncertainty condition V + i*Omega >= 0.  Accepts stacked
    input like :func:`is_classical`.
    """
    A = _as_batch(V)
    if A.ndim == 2:
        A = require_covariance(A)
    w = np.linalg.eigvalsh(A)
    pd = w[..., 0] > 0.0
    nu_min = _symplectic_spectrum(A)[..., 0]
    out = pd & (nu_min >= 1.0 - tol)
    return bool(out) if A.ndim == 2 else out


def partial_transpose_two_mode(V) -> np.ndarray:
    """Covariance of the partially transposed two-mode state: p2 -> -p2.

    Flips the sign of the last row and column; the (4, 4) entry is unchanged.
    Exact involution in floating point.
    """
    A = _as_batch(V)
    if A.shape[-1] != 4:
        raise InvalidArgumentError("partial transpose is defined here for two modes (4x4) only")
    out = A.copy()
    out[..., 3, :] = -out[..., 3, :]
    out[..., :, 3] = -out[..., :, 3]
    return out


def is_separable_two_mode(V, tol: float = DEFAULT_TOL) -> bool:
    """PPT separability test for a two-mode quantum covariance matrix.

    For two modes the positive-partial-transpose condition is necessary and
    sufficient: the state is separable iff the partial transpose is again a
    valid quantum covariance matrix.
    """
    A = require_covariance(V)
    if A.shape[0] != 4:
        raise InvalidArgumentError("separability test is defined for two modes (4x4) only")
    if not is_quantum(A, tol):
        raise DomainError("separability test requires a quantum covariance matrix")
    return bool(is_quantum(partial_transpose_two_mode(A), tol))


def classify(V, tol: float = DEFAULT_TOL) -> StateClass:
    """Classify a symmetric matrix as a Gaussian state covariance.

    Returns NOT_A_STATE when V is not positive definite, CLASSICAL_ONLY when
    positive definite but violating the uncertainty condition, and for quantum
    states the PPT verdict when N = 2 or QUANTUM_UNDETERMINED otherwise.
    """
    A = require_covariance(V)
    if not is_classical(A, tol):
        return StateClass.NOT_A_STATE
    if not is_quantum(A, tol):
        return StateClass.CLASSICAL_ONLY
    if A.shape[0] != 4:
        return StateClass.QUANTUM_UNDETERMINED
    if is_quantum(partial_transpose_two_mode(A), tol):
        return StateClass.QUANTUM_SEPARABLE
    return StateClass.QUANTUM_ENTANGLED


def apply_congruence(V, M) -> np.ndarray:
    """Return M^T V M, symmetrized against roundoff."""
    A = require_covariance(V)
    B = np.asarray(M, dtype=float)
    if B.shape != A.shape:
        raise InvalidArgumentError("congruence matrix shape must match the covariance")
    if abs(np.linalg.det(B)) < 1e-12:
        raise InvalidArgumentError("congruence requires an invertible matrix")
    R = B.T @ A @ B
    return 0.5 * (R + R.T)


def mode_permutation_matrix(order: Sequence[int]) -> np.ndarray:
    """Permutation of modes: mode k of the output is mode order[k] of the input.

    Mode permutations preserve the symplectic form exactly.
    """
    order = list(order)
    n = len(order)
    if sorted(order) != list(range(n)):
        raise InvalidArgumentError("order must be a permutation of 0..N-1")
    P = np.zeros((2 * n, 2 * n))
    for k, src in enumerate(order):
        P[2 * src, 2 * k] = 1.0
        P[2 * src + 1, 2 * k + 1] = 1.0
    return P


def is_symplectic(S, tol: float = DEFAULT_TOL) -> bool:
    """True iff S^T Omega S = Omega within tol (max-norm)."""
    A = np.asarray(S, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] % 2 != 0:
        return False
    omega = symplectic_form(A.shape[0] // 2)
    return bool(np.abs(A.T @ omega @ A - omega).max() <= tol)


def random_symplectic(n_modes: int, scale: float, seed) -> np.ndarray:
    """Random symplectic matrix exp(Omega H) with H symmetric, entries uniform in [-scale, scale].

    Deterministic for a fixed (n_modes, scale, seed).  The result is verified
    to satisfy S^T Omega S = Omega within 1e-9.
    """
    if n_modes < 1:
        raise InvalidArgumentError("n_modes must be >= 1")
    if not (scale > 0.0):
        raise InvalidArgumentError("scale must be positive")
    # imported here, so that importing gaussvol does not import scipy
    from scipy.linalg import expm

    rng = np.random.default_rng(seed)
    A = rng.uniform(-scale, scale, size=(2 * n_modes, 2 * n_modes))
    H = np.triu(A) + np.triu(A, 1).T
    S = expm(symplectic_form(n_modes) @ H)
    if not np.isfinite(S).all() or not is_symplectic(S, 1e-9):
        raise NumericError("generated matrix failed the symplectic identity check")
    return S


def adjugate(V) -> np.ndarray:
    """Adjugate matrix adj(V), valid also for singular V.

    With V = Q diag(w) Q^T, adj(V) = Q diag(prod_{j != i} w_j) Q^T, which
    equals det(V) V^{-1} wherever V is invertible.
    """
    A = require_covariance(V)
    w, Q = np.linalg.eigh(0.5 * (A + A.T))
    cofactors = np.prod(np.where(np.eye(w.size, dtype=bool), 1.0, w), axis=1)
    adj = (Q * cofactors) @ Q.T
    return 0.5 * (adj + adj.T)


def trace_adjugate(V) -> float:
    """Trace of the adjugate: the sum of all principal (2N-1)-minors."""
    return float(np.trace(adjugate(V)))
