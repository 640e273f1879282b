"""Regularizing weights that make Fisher-Rao volume integrals finite.

Both weights multiply the volume density by log(1 + (det V)^m), which cancels
the (det V)^{-m} blow-up of sqrt(det g) near the boundary of the classical
domain.  The energy weight additionally cuts off at a total-energy bound E via
a Heaviside factor; the adjugate weight damps exponentially in tr[adj V].
``phi`` and ``upsilon`` weigh one covariance matrix; ``regularizer_values``
weighs arrays of standard-form points (a, b, c, d) in closed form, as a plain
numpy expression that broadcasts its inputs and allocates its result.  The
stream kernel does not call it: it fuses the same weight with its interval
arithmetic (``integrate._class_weight``), and the tests check the two
against each other.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError, InvalidArgumentError
# states is imported inside the matrix-form weights, so that a volume run does not load it
from .twomode import canonical_det, canonical_trace_adjugate

__all__ = [
    "RegKind",
    "RegularizerSpec",
    "log1p_det_pow",
    "phi",
    "regularizer_values",
    "upsilon",
]

# Above this exponent, log(1 + e^t) and t agree to better than double precision.
_LOG1P_EXP_CROSSOVER = 700.0


def _is_int(x) -> bool:
    """An integer, numpy's included, but not a bool."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


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
        if not (_is_int(self.m) and self.m >= 1):
            raise InvalidArgumentError("m must be a positive integer")
        object.__setattr__(self, "m", int(self.m))
        if self.kind is RegKind.ENERGY_PHI:
            if self.bound_E is None or not (0.0 < self.bound_E < math.inf):
                raise InvalidArgumentError("energy regularizer needs a finite bound_E > 0")
            if self.kappa is not None:
                raise InvalidArgumentError("energy regularizer does not take kappa")
        elif self.kind is RegKind.ADJUGATE_UPSILON:
            if self.kappa is None or not (0.0 < self.kappa < math.inf):
                raise InvalidArgumentError("adjugate regularizer needs a finite kappa > 0")
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

    Works elementwise on arrays, and returns a float for a scalar det_v.  For
    m * log(det_v) > 700 the exact value and m * log(det_v) agree to below
    double precision, so the latter is returned.
    """
    t = np.log(np.maximum(np.asarray(det_v, dtype=float), 1e-300)) * m
    res = np.log1p(np.exp(np.minimum(t, _LOG1P_EXP_CROSSOVER)))
    res = np.where(t > _LOG1P_EXP_CROSSOVER, t, res)
    return float(res) if res.ndim == 0 else res


def _in_energy_support(a, b, bound_E: float) -> np.ndarray:
    """The energy cutoff's closed Heaviside on the chart: tr V = 2(a + b) <= E.

    ``regularizer_values`` weighs the energy cutoff with this one float
    test, so a point on the boundary 2(a + b) = E keeps its weight.
    """
    e = a + b
    e *= 2.0
    return e <= bound_E


def regularizer_values(a, b, c, d, spec: RegularizerSpec) -> np.ndarray:
    """Vectorized regularizer weight at standard-form points.

    Uses the standard-form closed forms det V = (ab - c^2)(ab - d^2) and
    tr[adj V] = (a + b)(2ab - c^2 - d^2); agrees with the general matrix
    evaluation on the classical domain.
    """
    a, b, c, d = (np.asarray(x, dtype=float) for x in (a, b, c, d))
    base = log1p_det_pow(canonical_det(a, b, c, d), spec.m)
    if spec.kind is RegKind.ENERGY_PHI:
        return np.where(_in_energy_support(a, b, spec.bound_E), base, 0.0)
    # a named factor, not a temporary, which numpy may reuse as the product's
    # buffer with the operands swapped, so that a NaN keeps base's sign bit
    damp = np.exp(np.minimum(-canonical_trace_adjugate(a, b, c, d) / spec.kappa, 700.0))
    return base * damp


def _checked_det(V) -> float:
    from .states import require_covariance

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
    from .states import trace_adjugate

    det = _checked_det(V)
    damping = math.exp(-trace_adjugate(V) / spec.kappa)
    return damping * float(log1p_det_pow(det, spec.m))
