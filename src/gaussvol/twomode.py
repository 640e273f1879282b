"""Two-mode states in standard form and their explicit Fisher-Rao geometry.

Every two-mode covariance matrix can be brought by local symplectics to the
standard form

    V(a, b, c, d) = [[a, 0, c, 0],
                     [0, a, 0, d],
                     [c, 0, b, 0],
                     [0, d, 0, b]],

so the four parameters (a, b, c, d) chart the classes of interest.  This
module provides the embedding, the explicit metric components, the inequality
description of the classical/quantum/separable/entangled domains, and the
standard two-mode invariants used by the PPT test.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import DomainError, InvalidArgumentError, NumericError
from .metric import MetricAtPoint, ParamChart
from .states import DEFAULT_TOL, require_covariance

__all__ = [
    "CanonicalPoint",
    "DomainTag",
    "DomainBounds",
    "SimonInvariants",
    "canonical_embed",
    "canonical_extract",
    "canonical_chart",
    "canonical_det",
    "canonical_trace_adjugate",
    "metric_components",
    "closed_form_metric",
    "DOMAIN_LABELS",
    "domain_bounds",
    "domain_labels",
    "domain_mask",
    "in_domain",
    "simon_invariants",
    "volume_density",
]

_SINGULAR_ATOL = 1e-14


class CanonicalPoint(NamedTuple):
    """Standard-form parameters (a, b, c, d)."""

    a: float
    b: float
    c: float
    d: float


class DomainTag(Enum):
    CLASSICAL = "classical"
    QUANTUM = "quantum"
    SEPARABLE = "separable"
    ENTANGLED = "entangled"


def canonical_embed(p: CanonicalPoint) -> np.ndarray:
    """4x4 covariance matrix of the standard-form point."""
    a, b, c, d = (float(x) for x in p)
    return np.array(
        [
            [a, 0.0, c, 0.0],
            [0.0, a, 0.0, d],
            [c, 0.0, b, 0.0],
            [0.0, d, 0.0, b],
        ]
    )


def canonical_extract(V, atol: float = 1e-12) -> CanonicalPoint:
    """Inverse of :func:`canonical_embed`; rejects matrices off the standard form."""
    A = require_covariance(V)
    if A.shape[0] != 4:
        raise InvalidArgumentError("standard form is defined for two modes (4x4)")
    p = CanonicalPoint(a=float(A[0, 0]), b=float(A[2, 2]), c=float(A[0, 2]), d=float(A[1, 3]))
    if np.abs(A - canonical_embed(p)).max() > atol * max(1.0, float(np.abs(A).max())):
        raise InvalidArgumentError("matrix is not in two-mode standard form")
    return p


@functools.cache
def canonical_chart() -> ParamChart:
    """Four-parameter chart (a, b, c, d) of the standard form.

    The basis directions are dV/da, dV/db, dV/dc, dV/dd; together with the
    determinant exponent m = 4 this is the chart all volume integrals use.
    """
    Ba = np.diag([1.0, 1.0, 0.0, 0.0])
    Bb = np.diag([0.0, 0.0, 1.0, 1.0])
    Bc = np.zeros((4, 4))
    Bc[0, 2] = Bc[2, 0] = 1.0
    Bd = np.zeros((4, 4))
    Bd[1, 3] = Bd[3, 1] = 1.0
    return ParamChart(dim_modes=2, basis=(Ba, Bb, Bc, Bd), names=("a", "b", "c", "d"))


def canonical_det(a, b, c, d):
    """det V = (ab - c^2)(ab - d^2), elementwise."""
    ab = np.asarray(a, dtype=float) * np.asarray(b, dtype=float)
    return (ab - np.square(np.asarray(c, dtype=float))) * (ab - np.square(np.asarray(d, dtype=float)))


def canonical_trace_adjugate(a, b, c, d):
    """tr[adj V] = 2a^2 b + a(2b^2 - c^2 - d^2) - b(c^2 + d^2), elementwise."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    s = np.square(np.asarray(c, dtype=float)) + np.square(np.asarray(d, dtype=float))
    return 2.0 * a * a * b + a * (2.0 * b * b - s) - b * s


def metric_components(a, b, c, d) -> np.ndarray:
    """Metric of the (a, b, c, d) chart as a stacked (..., 4, 4) array.

    Broadcasts over array inputs; no domain checks are performed, so entries
    are meaningful only where ab != c^2 and ab != d^2.
    """
    a, b, c, d = np.broadcast_arrays(
        np.asarray(a, dtype=float),
        np.asarray(b, dtype=float),
        np.asarray(c, dtype=float),
        np.asarray(d, dtype=float),
    )
    ab = a * b
    c2 = c * c
    d2 = d * d
    pc = ab - c2
    pd_ = ab - d2
    pc2 = pc * pc
    pd2 = pd_ * pd_
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        den = 2.0 * pc2 * pd2
        # pc^2 + pd^2 equals the expanded 2a^2b^2 + c^4 + d^4 - 2ab(c^2 + d^2)
        # but does not cancel catastrophically near the singular surfaces
        common = pc2 + pd2
        g = np.empty(a.shape + (4, 4))
        g[..., 0, 0] = b * b * common / den
        g[..., 1, 1] = a * a * common / den
        g[..., 0, 1] = (ab * common - pc * pd_ * (pc + pd_)) / den
        g[..., 0, 2] = -b * c / pc2
        g[..., 1, 2] = -a * c / pc2
        g[..., 0, 3] = -b * d / pd2
        g[..., 1, 3] = -a * d / pd2
        g[..., 2, 2] = (ab + c2) / pc2
        g[..., 3, 3] = (ab + d2) / pd2
        g[..., 2, 3] = 0.0
    g[..., 1, 0] = g[..., 0, 1]
    g[..., 2, 0] = g[..., 0, 2]
    g[..., 2, 1] = g[..., 1, 2]
    g[..., 3, 0] = g[..., 0, 3]
    g[..., 3, 1] = g[..., 1, 3]
    g[..., 3, 2] = g[..., 2, 3]
    return g


def closed_form_metric(p: CanonicalPoint) -> MetricAtPoint:
    """Explicit metric at a standard-form point, with its determinant."""
    a, b, c, d = (float(x) for x in p)
    ab = a * b
    if abs(ab - c * c) < _SINGULAR_ATOL or abs(ab - d * d) < _SINGULAR_ATOL:
        raise DomainError("metric is singular where ab = c^2 or ab = d^2")
    g = metric_components(a, b, c, d)
    sign, logdet = np.linalg.slogdet(g)
    det_g = float(sign * math.exp(logdet)) if np.isfinite(logdet) else float(sign * np.inf)
    return MetricAtPoint(g=g, det_g=det_g, chart=canonical_chart(), point=np.array([a, b, c, d]))


@dataclass(frozen=True)
class DomainBounds:
    """Branch bounds of the quantum and separable domains at fixed (a, b, c).

    An empty d-interval is encoded as d1 > d2.
    """

    c1: float
    c2: float
    c3: float
    d1: float
    d2: float
    delta: float

    @property
    def d_range_empty(self) -> bool:
        return self.d1 > self.d2


def domain_bounds(p: CanonicalPoint) -> DomainBounds:
    """Bound quantities c1, c2, c3, Delta and the d-interval [d1, d2] at (a, b, c)."""
    a, b, c = float(p.a), float(p.b), float(p.c)
    if not (a > 0.0 and b > 0.0):
        raise InvalidArgumentError("domain bounds need a > 0 and b > 0")
    ab = a * b
    c1 = (a / b) * (b * b - 1.0)
    c2 = (b / a) * (a * a - 1.0)
    c3 = (1.0 - a * a - b * b + a * a * b * b) / ab
    d1, d2, delta = _d_interval(a, b, c, ab, c * c)
    return DomainBounds(c1=c1, c2=c2, c3=c3, d1=float(d1), d2=float(d2), delta=float(delta))


def _d_interval(a, b, c, ab, c2):
    """d-interval of the quantum domain and its discriminant Delta, elementwise.

    Takes ab = a*b and c2 = c*c precomputed; the interval is empty, encoded as
    (inf, -inf), unless Delta >= 0 and ab - c^2 > 0.
    """
    denom = ab - c2
    delta = c2 - denom * (ab * c * c - (a * a - 1.0) * (b * b - 1.0))
    ok = (delta >= 0.0) & (denom > 0.0)
    root = np.sqrt(np.where(ok, delta, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        d1 = np.where(ok, (-c - root) / denom, np.inf)
        d2 = np.where(ok, (-c + root) / denom, -np.inf)
    return d1, d2, delta


# The labels of domain_labels that make up each domain.
DOMAIN_LABELS = {
    DomainTag.CLASSICAL: (1, 2, 3),
    DomainTag.QUANTUM: (2, 3),
    DomainTag.SEPARABLE: (2,),
    DomainTag.ENTANGLED: (3,),
}


def domain_labels(a, b, c, d, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Label each standard-form point with the innermost domain holding it, elementwise.

    Returns uint8 labels: 0 outside the classical domain, 1 classical but not
    quantum, 2 separable, 3 entangled.  The domains are nested, so a label
    determines every membership (see ``DOMAIN_LABELS``).  ``tol`` slackens
    every inequality outward, so boundaries count as inside; a negative
    ``tol`` shrinks the domains instead, which is how boundary bands are
    detected.
    """
    a, b, c, d = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (a, b, c, d)))
    shape = a.shape
    a, b, c, d = (x.ravel() for x in (a, b, c, d))
    ab = a * b
    sab = np.sqrt(np.maximum(ab, 0.0))
    classical = (a > -tol) & (b > -tol) & (np.abs(c) < sab + tol) & (np.abs(d) < sab + tol)
    lab = classical.astype(np.uint8)

    # the quantum and separability bounds are evaluated only where they can hold
    idx = np.flatnonzero(classical & (a > 1.0 - tol) & (b > 1.0 - tol))
    a, b, c, d, ab = a[idx], b[idx], c[idx], d[idx], ab[idx]
    a2 = a * a
    b2 = b * b
    abs_c = np.abs(c)
    d1, d2, _ = _d_interval(a, b, c, ab, c * c)
    with np.errstate(divide="ignore", invalid="ignore"):
        # branch by mode ordering; at a = b the two c-bounds coincide
        cbound_sq = np.where(b <= a, (a / b) * (b2 - 1.0), (b / a) * (a2 - 1.0))
        quantum = abs_c < np.sqrt(np.maximum(cbound_sq, 0.0)) + tol
        c3 = (1.0 - a2 - b2 + ab * ab) / ab
        ppt = abs_c < np.sqrt(np.maximum(c3, 0.0)) + tol
    quantum &= (d >= d1 - tol) & (d <= d2 + tol)
    # separability: c <= 0 branch d in [d1, -d1]; c > 0 branch d in [-d2, d2].
    # At c = 0 the two intervals coincide, which covers that slice by closure.
    neg = c <= 0.0
    lo = np.where(neg, d1, -d2)
    hi = np.where(neg, -d1, d2)
    ppt &= (d >= lo - tol) & (d <= hi + tol)
    lab[idx] += quantum.astype(np.uint8) + (quantum & ~ppt)
    return lab.reshape(shape)


def domain_mask(a, b, c, d, tag: DomainTag, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Inequality-based membership of standard-form points, elementwise.

    A view of :func:`domain_labels` with the same ``tol`` convention.
    """
    labels = DOMAIN_LABELS.get(tag)
    if labels is None:
        raise InvalidArgumentError(f"unknown domain tag: {tag!r}")
    return np.isin(domain_labels(a, b, c, d, tol), labels)


def volume_density(a, b, c, d) -> np.ndarray:
    """Closed-form sqrt(det g) of the (a, b, c, d) chart, elementwise.

    det g = (4 a^2 b^2 - (c^2 + d^2)^2) / (4 (ab - c^2)^3 (ab - d^2)^3); the
    numerator is evaluated as (pc + pd)(2ab + c^2 + d^2) with pc = ab - c^2 and
    pd = ab - d^2, which does not cancel near the singular surfaces.  The
    density is 0 off the classical domain, that is wherever a <= 0, pc <= 0
    or pd <= 0, and wherever the numerator is <= 0.
    """
    a, b, c, d = (np.asarray(x, dtype=float) for x in (a, b, c, d))
    ab = a * b
    c2 = c * c
    d2 = d * d
    pc = ab - c2
    pd_ = ab - d2
    num = (pc + pd_) * (2.0 * ab + c2 + d2)
    ok = (a > 0.0) & (pc > 0.0) & (pd_ > 0.0) & (num > 0.0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        p = pc * pd_
        return np.where(ok, np.sqrt(num) / (2.0 * p * np.sqrt(p)), 0.0)


def in_domain(p: CanonicalPoint, tag: DomainTag, tol: float = DEFAULT_TOL) -> bool:
    """Scalar wrapper around :func:`domain_mask`."""
    return bool(domain_mask(p.a, p.b, p.c, p.d, tag, tol))


class SimonInvariants(NamedTuple):
    delta_tilde: float
    det_v: float
    nu_minus: float
    nu_plus: float


def simon_invariants(p: CanonicalPoint) -> SimonInvariants:
    """Two-mode invariants and symplectic eigenvalues from the standard form.

    delta = a^2 + b^2 + 2cd and det V determine the symplectic eigenvalues via
    nu_(-/+)^2 = (delta -/+ sqrt(delta^2 - 4 det V)) / 2 ... with the minus
    branch giving the smaller eigenvalue.
    """
    a, b, c, d = (float(x) for x in p)
    V = canonical_embed(p)
    w = np.linalg.eigvalsh(V)
    if w[0] <= 0.0:
        raise DomainError("invariants are defined for positive definite matrices")
    delta_tilde = a * a + b * b + 2.0 * c * d
    det_v = float(canonical_det(a, b, c, d))
    disc = delta_tilde * delta_tilde - 4.0 * det_v
    if disc < -1e-12:
        raise NumericError(f"negative discriminant {disc} for a positive definite matrix")
    disc = max(disc, 0.0)
    root = math.sqrt(disc)
    nu_minus = math.sqrt(max((delta_tilde - root) / 2.0, 0.0))
    nu_plus = math.sqrt(max((delta_tilde + root) / 2.0, 0.0))
    return SimonInvariants(delta_tilde=delta_tilde, det_v=det_v, nu_minus=nu_minus, nu_plus=nu_plus)
