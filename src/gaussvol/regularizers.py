"""Regularizing weights that make Fisher-Rao volume integrals finite.

Both weights multiply the volume density by log(1 + (det V)^m), which cancels
the (det V)^{-m} blow-up of sqrt(det g) near the boundary of the classical
domain.  The energy weight additionally cuts off at a total-energy bound E via
a Heaviside factor; the adjugate weight damps exponentially in tr[adj V].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError, InvalidArgumentError
from .states import require_covariance, trace_adjugate

__all__ = [
    "RegKind",
    "RegularizerSpec",
    "log1p_det_pow",
    "phi",
    "upsilon",
]

# Above this exponent, log(1 + e^t) and t agree to better than double precision.
_LOG1P_EXP_CROSSOVER = 700.0


class RegKind(Enum):
    ENERGY_PHI = "energy"
    ADJUGATE_UPSILON = "adj"


@dataclass(frozen=True)
class RegularizerSpec:
    """Which weight to apply and its parameters.

    Exactly one of ``bound_E`` (energy kind) and ``kappa`` (adjugate kind) is
    set; ``m`` is the determinant exponent and matches the chart's parameter
    count when used in volume integrals.
    """

    kind: RegKind
    m: int = 4
    bound_E: float | None = None
    kappa: float | None = None

    def __post_init__(self):
        if not isinstance(self.m, int) or self.m < 1:
            raise InvalidArgumentError("m must be a positive integer")
        if self.kind is RegKind.ENERGY_PHI:
            if self.bound_E is None or not (self.bound_E > 0.0):
                raise InvalidArgumentError("energy regularizer needs bound_E > 0")
            if self.kappa is not None:
                raise InvalidArgumentError("energy regularizer does not take kappa")
        elif self.kind is RegKind.ADJUGATE_UPSILON:
            if self.kappa is None or not (self.kappa > 0.0):
                raise InvalidArgumentError("adjugate regularizer needs kappa > 0")
            if self.bound_E is not None:
                raise InvalidArgumentError("adjugate regularizer does not take bound_E")
        else:
            raise InvalidArgumentError(f"unknown regularizer kind: {self.kind!r}")

    @classmethod
    def energy(cls, bound_E: float, m: int = 4) -> "RegularizerSpec":
        return cls(kind=RegKind.ENERGY_PHI, m=m, bound_E=bound_E)

    @classmethod
    def adjugate(cls, kappa: float, m: int = 4) -> "RegularizerSpec":
        return cls(kind=RegKind.ADJUGATE_UPSILON, m=m, kappa=kappa)


def log1p_det_pow(det_v, m: int):
    """log(1 + det_v**m) for positive det_v, stable for very large and tiny values.

    Works elementwise on arrays.  For m * log(det_v) > 700 the exact value and
    m * log(det_v) agree to below double precision, so the latter is returned.
    """
    dv = np.asarray(det_v, dtype=float)
    t = m * np.log(np.maximum(dv, 1e-300))
    small = np.log1p(np.exp(np.minimum(t, _LOG1P_EXP_CROSSOVER)))
    out = np.where(t > _LOG1P_EXP_CROSSOVER, t, small)
    if np.ndim(det_v) == 0:
        return float(out)
    return out


def _checked_det(V) -> float:
    A = require_covariance(V)
    sign, logdet = np.linalg.slogdet(A)
    if sign <= 0.0:
        raise DomainError("regularizers require a positive definite covariance matrix")
    return float(math.exp(logdet))


def phi(V, spec: RegularizerSpec) -> float:
    """Energy-cutoff weight: H(E - tr V) * log(1 + (det V)^m).

    The Heaviside factor is closed: tr V = E still counts as inside the cutoff.
    """
    if spec.kind is not RegKind.ENERGY_PHI:
        raise InvalidArgumentError("phi requires an energy-kind spec")
    det = _checked_det(V)
    if float(np.trace(np.asarray(V, dtype=float))) > spec.bound_E:
        return 0.0
    return float(log1p_det_pow(det, spec.m))


def upsilon(V, spec: RegularizerSpec) -> float:
    """Adjugate-damped weight: exp(-tr[adj V] / kappa) * log(1 + (det V)^m).

    Invariant under orthogonal symplectic congruences, including mode
    permutations, which preserve both det V and tr[adj V].  General
    symplectic congruences preserve det V but move tr[adj V].
    """
    if spec.kind is not RegKind.ADJUGATE_UPSILON:
        raise InvalidArgumentError("upsilon requires an adjugate-kind spec")
    det = _checked_det(V)
    damping = math.exp(-trace_adjugate(V) / spec.kappa)
    return damping * float(log1p_det_pow(det, spec.m))
