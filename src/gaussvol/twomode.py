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

The closed forms (``canonical_det``, ``canonical_trace_adjugate``,
``volume_density``) are plain numpy expressions that broadcast their inputs.
``_class_limits`` holds the c- and d-limits of the quantum classes, which
the stream kernel draws in and ``_quad`` integrates over; it takes optional
scratch arrays, because the stream kernel runs it on every block of a tile
(see ``integrate``).  ``_half_width`` gives the classical slice, which
``domain_labels`` tests and the kernel's classical draw draws in.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import DomainError, InvalidArgumentError, NumericError
# metric and states are imported inside the chart and matrix-form functions
# that use them, so that a volume run loads neither

# the default domain tolerance; ``states`` and the package export this object
DEFAULT_TOL = 1e-9

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
    from .states import require_covariance

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
    from .metric import ParamChart

    Ba = np.diag([1.0, 1.0, 0.0, 0.0])
    Bb = np.diag([0.0, 0.0, 1.0, 1.0])
    Bc = np.zeros((4, 4))
    Bc[0, 2] = Bc[2, 0] = 1.0
    Bd = np.zeros((4, 4))
    Bd[1, 3] = Bd[3, 1] = 1.0
    return ParamChart(dim_modes=2, basis=(Ba, Bb, Bc, Bd), names=("a", "b", "c", "d"))


def canonical_det(a, b, c, d):
    """det V = (ab - c^2)(ab - d^2), elementwise."""
    a, b, c, d = (np.asarray(x, dtype=float) for x in (a, b, c, d))
    ab = a * b
    return (ab - np.square(c)) * (ab - np.square(d))


def canonical_trace_adjugate(a, b, c, d):
    """tr[adj V] = (a + b)(2ab - c^2 - d^2), elementwise."""
    a, b, c, d = (np.asarray(x, dtype=float) for x in (a, b, c, d))
    return (a * b * 2.0 - np.square(c) - np.square(d)) * (a + b)


def metric_components(a, b, c, d) -> np.ndarray:
    """Metric of the (a, b, c, d) chart as a stacked (..., 4, 4) array.

    Broadcasts over array inputs; no domain checks are performed, so entries
    are meaningful only where ab != c^2 and ab != d^2.
    """
    a, b, c, d = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (a, b, c, d)))
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
    from .metric import MetricAtPoint

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
    """Bound quantities c1, c2, c3, Delta and the d-interval [d1, d2] at (a, b, c).

    c1 = (a/b)(b^2 - 1), c2 = (b/a)(a^2 - 1) and c3 = (a^2 - 1)(b^2 - 1)/ab:
    the quantum c-bound is the smaller of c1 and c2, and the separable one
    c3.  Delta, d1 and d2 are those of :func:`_class_limits` at mu = 1.
    """
    a, b, c = float(p.a), float(p.b), float(p.c)
    if not (a > 0.0 and b > 0.0):
        raise InvalidArgumentError("domain bounds need a > 0 and b > 0")
    _, start, length, pc, delta = (float(x[0]) for x in _class_limits(
        DomainTag.QUANTUM, np.array([a]), np.array([b]), np.array([abs(c)]), 1.0))
    d1, d2 = math.inf, -math.inf
    if delta >= 0.0 and pc > 0.0:
        d1, d2 = start, start + length
        # the interval at -c is the mirror image of that at |c|
        if c < 0.0:
            d1, d2 = -d2, -d1
    return DomainBounds(c1=a / b * (b * b - 1.0), c2=b / a * (a * a - 1.0),
                        c3=(a * a - 1.0) * (b * b - 1.0) / (a * b), d1=d1, d2=d2, delta=delta)


# The labels of domain_labels that make up each domain.
DOMAIN_LABELS = {
    DomainTag.CLASSICAL: (1, 2, 3),
    DomainTag.QUANTUM: (2, 3),
    DomainTag.SEPARABLE: (2,),
    DomainTag.ENTANGLED: (3,),
}


def _check_tol(tol) -> None:
    """A domain tolerance must be finite and below 1.

    The quantum test compares nu_-^2 with mu = (1 - tol)^2, which falls as
    tol grows to 1 and grows again beyond it, so the labels would no longer
    widen with tol there.
    """
    if not (math.isfinite(tol) and tol < 1.0):
        raise InvalidArgumentError("tol must be finite and below 1")


def _ab_quantum(a, b, tol):
    """min(a, b) >= 1 - tol on 1-d float arrays: the a, b half of the quantum test.

    A classical point it rejects has label 1 in :func:`_classical_labels`,
    which takes the test from here.
    """
    return np.minimum(a, b) >= 1.0 - tol


def _class_limits(tag, a, b, c, mu, draw=None, scratch=None, huge=False, ordered=False):
    """The c-end of the quantum class ``tag`` at (a, b) and its d-interval at c, elementwise.

    For c >= 0 and mu = (1 - tol)^2.  With P = ab, m = min(a, b),
    M = max(a, b), X = (m^2 - mu) M/m = P - mu M/m and
    Y = (M^2 - mu) m/M = P - mu m/M, the quantum and entangled classes take
    c^2 <= X and the separable class c^2 <= XY/P
    = P - mu (a^2 + b^2 - mu)/P; at mu = 1 these are c1 or c2 and c3 of
    :func:`domain_bounds`.  A classical point is quantum when Simon's
    y = det V + mu^2 - mu (a^2 + b^2) >= g = 2 mu cd (see
    :func:`_classical_labels`), a quadratic in d with the roots
    d1 = (-mu c - root) / pc and d2 = (root - mu c) / pc, where pc = P - c^2,
    root = sqrt(Delta) and Delta = mu^2 c^2 + pc (P pc + mu^2 - mu (a^2 + b^2))
    = P (X - c^2)(Y - c^2).  So the quantum class is [d1, d2] where
    c^2 <= X.  Partial transposition maps d to -d, and a quantum point with
    c >= 0 is entangled when d < -d2: the separable class is |d| <= d2, and
    the entangled one [d1, min(-d2, d2)] = [d1, d1 + 2 min(mu c, root) / pc].

    Returns (end, start, length, pc, delta): the class holds c in [0, end]
    (end = sqrt of the c-bound clipped at 0) and d in [start, start +
    length]; Delta is clipped at 0 for root, as rounding at the ends of the
    c-interval can leave it below.  Where m >= 1 - tol, the quantum side of
    :func:`_ab_quantum`, the c-bounds are >= 0 in floats as well.  With
    ``draw``, c holds uniforms y in [0, 1) and is first mapped onto
    [0, end] in place, and the first result is the map's Jacobian dc/dy:
    c = end y and end for "uniform", and for "end", which crowds c at the
    c-end, c = end (1 - y^2) and half its Jacobian, end y.  Takes 1-d
    float arrays; ``scratch`` is six float arrays of a's length, allocated
    when omitted, that hold the results.  ``ordered`` says that a >= b
    elementwise, so m = b and M = a.  Delta is of order P^3, which
    overflows from P ~ 1e102 on; with ``huge`` the Delta returned is
    (X - c^2)(Y - c^2), Delta / P, and root its square root times sqrt(P).
    """
    if scratch is None:
        scratch = np.empty((6, a.size))
    end, start, length, pc, t0, t1 = scratch
    if ordered:
        m, r = b, np.divide(a, b, out=t1)
    else:
        m = np.minimum(a, b, out=t0)
        r = np.maximum(a, b, out=t1)
        r /= m
    x = np.multiply(m, m, out=t0)
    x -= mu
    x *= r
    ab = np.multiply(a, b, out=pc)
    y = np.divide(mu, r, out=t1)
    np.subtract(ab, y, out=y)
    if tag is DomainTag.SEPARABLE:
        np.multiply(x, y, out=end)
        end /= ab
        np.maximum(end, 0.0, out=end)
    else:
        np.maximum(x, 0.0, out=end)
    np.sqrt(end, out=end)
    if draw == "end":
        # c = end - (end y) y, and end y takes end's place in the results
        dc = np.multiply(end, c, out=length)
        c *= dc
        np.subtract(end, c, out=c)
        end, length = dc, end
    elif draw:
        c *= end
    c2 = np.multiply(c, c, out=start)
    x -= c2
    y -= c2
    delta = np.multiply(y, x, out=t1)
    if not huge:
        delta *= ab
    pc = np.subtract(ab, c2, out=pc)
    root = np.maximum(delta, 0.0, out=t0)
    np.sqrt(root, out=root)
    if huge:
        root *= np.sqrt(a * b)
    mc = np.multiply(c, mu, out=start)
    if tag is DomainTag.SEPARABLE:
        # start -d2, length 2 d2
        np.subtract(root, mc, out=length)
        length /= pc
        np.negative(length, out=start)
        length += length
        return end, start, length, pc, delta
    if tag is DomainTag.QUANTUM:
        np.add(root, root, out=length)
    else:
        np.minimum(mc, root, out=length)
        length += length
    length /= pc
    start += root
    np.negative(start, out=start)
    start /= pc
    return end, start, length, pc, delta


def _half_width(a, b, tol):
    """h = sqrt(max(ab, 0)) + tol: the classical slice is |c|, |d| < h."""
    return np.sqrt(np.maximum(a * b, 0.0)) + tol


def _classical_labels(a, b, c, d, tol):
    """Labels 1-3 of classical points (see :func:`domain_labels`).

    The squared symplectic eigenvalues of V are the roots of
    x^2 - D x + det V, with Simon's invariant D = s + 2cd, s = a^2 + b^2 and
    det V = (ab - c^2)(ab - d^2).  Both roots are >= mu = (1 - tol)^2, that is
    nu_- >= 1 - tol, exactly when det V + mu^2 - mu D >= 0 and D >= 2 mu;
    with min(a, b) >= 1 - tol (:func:`_ab_quantum`) this is the quantum
    test.  Partial transposition flips the sign of d, so the PPT test is the
    same with -d, and a state with cd >= 0 is PPT (R. Simon, PRL 84, 2726
    (2000)); so label 3 needs fl(c*d) < 0.  The tests are evaluated as
    y = det V + (mu^2 - mu s) >= g and s + 2cd >= 2 mu, with g = 2 mu cd, and
    for PPT as y >= -g and s - 2cd >= 2 mu, or cd >= 0.  Returns uint8.
    """
    mu = (1.0 - tol) ** 2
    with np.errstate(invalid="ignore", over="ignore"):
        ab = a * b
        s = a * a + b * b
        cd = c * d
        cd2 = cd + cd
        quantum = s + cd2 >= 2.0 * mu
        ppt = s - cd2 >= 2.0 * mu
        y = mu * mu - s * mu
        y += (ab - c * c) * (ab - d * d)
        g = cd * (2.0 * mu)
        quantum &= y >= g
        ppt &= y >= -g
        ppt |= cd >= 0.0
    quantum &= _ab_quantum(a, b, tol)
    lab = quantum.astype(np.uint8) + np.uint8(1)
    lab += quantum > ppt  # quantum and not PPT
    return lab


def domain_labels(a, b, c, d, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Label each standard-form point with the innermost domain holding it, elementwise.

    Returns uint8 labels: 0 outside the classical domain, 1 classical but not
    quantum, 2 separable, 3 entangled.  The domains are nested, so a label
    determines every membership (see ``DOMAIN_LABELS``).  A point is
    classical when a, b > -tol and |c|, |d| < sqrt(ab) + tol; a classical
    point is quantum when the smallest symplectic eigenvalue of V is
    >= 1 - tol, and separable when that of its partial transpose is too,
    which is the convention of ``states.classify``.  So a positive ``tol``
    counts the boundaries as inside, and a negative one shrinks the domains,
    which is how boundary bands are detected.  ``tol`` must be finite and
    below 1 (``InvalidArgumentError``).
    """
    _check_tol(tol)
    a, b, c, d = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (a, b, c, d)))
    shape = a.shape
    a, b, c, d = (x.ravel() for x in (a, b, c, d))
    sab = _half_width(a, b, tol)
    classical = (np.minimum(a, b) > -tol) & (np.abs(c) < sab) & (np.abs(d) < sab)
    lab = classical.astype(np.uint8)
    idx = np.flatnonzero(classical)
    lab[idx] = _classical_labels(a[idx], b[idx], c[idx], d[idx], tol)
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
    numerator is evaluated as (2ab + c^2 + d^2)(pc + pd) with pc = ab - c^2 and
    pd = ab - d^2, which does not cancel near the singular surfaces.  The
    density is 0 off the classical domain, that is wherever a <= 0, pc <= 0
    or pd <= 0, and wherever the numerator is <= 0.
    """
    a, b, c, d = (np.asarray(x, dtype=float) for x in (a, b, c, d))
    ab, c2, d2 = a * b, np.square(c), np.square(d)
    pc, pd_ = ab - c2, ab - d2
    num = (ab * 2.0 + c2 + d2) * (pc + pd_)
    ok = (a > 0.0) & (pc > 0.0) & (pd_ > 0.0) & (num > 0.0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        p = pc * pd_
        dens = np.sqrt(num) / (p * 2.0 * np.sqrt(p))
    return np.where(ok, dens, 0.0)


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
    nu_(-/+)^2 = (delta -/+ sqrt(delta^2 - 4 det V)) / 2, with the minus
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
