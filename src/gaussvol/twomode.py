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


def _float_arrays(*xs):
    """The inputs as float arrays broadcast to one shape (views, not copies)."""
    xs = [np.asarray(x, dtype=float) for x in xs]
    if all(x.shape == xs[0].shape for x in xs):
        return xs
    return np.broadcast_arrays(*xs)


def _scratch(shape, floats, bools=0):
    """A helper's scratch when none is given: ``floats`` float and ``bools`` bool arrays."""
    return (*(np.empty(shape) for _ in range(floats)),
            *(np.empty(shape, dtype=bool) for _ in range(bools)))


def canonical_det(a, b, c, d, out=None, scratch=None):
    """det V = (ab - c^2)(ab - d^2), elementwise.

    ``out`` and ``scratch`` (two float arrays) are optional arrays of the
    points' shape to work in, so that a caller running it in a loop
    allocates nothing.
    """
    a, b, c, d = _float_arrays(a, b, c, d)
    ab, d2 = scratch if scratch is not None else _scratch(a.shape, 2)
    np.multiply(a, b, out=ab)
    det = np.square(c, out=np.empty(a.shape) if out is None else out)
    np.subtract(ab, det, out=det)
    ab -= np.square(d, out=d2)
    det *= ab
    return det[()] if out is None else det


def canonical_trace_adjugate(a, b, c, d, out=None, scratch=None):
    """tr[adj V] = (a + b)(2ab - c^2 - d^2), elementwise.

    ``out`` and ``scratch`` (one float array) are optional arrays of the
    points' shape to work in.
    """
    a, b, c, d = _float_arrays(a, b, c, d)
    (tmp,) = scratch if scratch is not None else _scratch(a.shape, 1)
    tr = np.multiply(a, b, out=np.empty(a.shape) if out is None else out)
    tr *= 2.0
    tr -= np.square(c, out=tmp)
    tr -= np.square(d, out=tmp)
    tr *= np.add(a, b, out=tmp)
    return tr[()] if out is None else tr


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
    """Bound quantities c1, c2, c3, Delta and the d-interval [d1, d2] at (a, b, c)."""
    a, b, c = float(p.a), float(p.b), float(p.c)
    if not (a > 0.0 and b > 0.0):
        raise InvalidArgumentError("domain bounds need a > 0 and b > 0")
    ab = a * b
    c1 = (a / b) * (b * b - 1.0)
    c2 = (b / a) * (a * a - 1.0)
    c3 = (1.0 - a * a - b * b + a * a * b * b) / ab
    d1, d2, delta, ok = _d_interval(c, ab, c * c, a * a - 1.0, b * b - 1.0)
    if not ok:
        d1, d2 = math.inf, -math.inf
    return DomainBounds(c1=c1, c2=c2, c3=c3, d1=float(d1), d2=float(d2), delta=float(delta))


def _d_interval(c, ab, c2, am1, bm1, out=None):
    """d-interval [d1, d2] of the quantum domain and its discriminant Delta, elementwise.

    Takes ab = a*b, c2 = c*c, am1 = a*a - 1 and bm1 = b*b - 1 precomputed and
    returns (d1, d2, delta, ok).  The interval exists only where ``ok``, that
    is where Delta >= 0 and ab - c^2 > 0; elsewhere d1 and d2 carry no
    meaning.  ``out`` is four float arrays and two bool arrays of c's shape
    for denom = ab - c^2, delta, d1, d2, ok and scratch, allocated when
    omitted; d2 may be the array that holds c2, which is read before d2 is
    written.
    """
    if out is None:
        shape = np.shape(c)
        out = (*(np.empty(shape) for _ in range(4)), *(np.empty(shape, dtype=bool) for _ in range(2)))
    denom, delta, d1, d2, ok, tmp = out
    np.subtract(ab, c2, out=denom)
    # delta = c2 - denom * (ab c c - am1 bm1)
    np.multiply(ab, c, out=delta)
    delta *= c
    delta -= np.multiply(am1, bm1, out=d1)
    delta *= denom
    np.subtract(c2, delta, out=delta)
    np.greater_equal(delta, 0.0, out=ok)
    ok &= np.greater(denom, 0.0, out=tmp)
    with np.errstate(divide="ignore", invalid="ignore"):
        root = np.sqrt(delta, out=d2)
        # d1 = (-c - root) / denom, d2 = (-c + root) / denom = (root - c) / denom
        np.negative(c, out=d1)
        d1 -= root
        np.subtract(root, c, out=d2)
        d1 /= denom
        d2 /= denom
    return d1, d2, delta, ok


# The labels of domain_labels that make up each domain.
DOMAIN_LABELS = {
    DomainTag.CLASSICAL: (1, 2, 3),
    DomainTag.QUANTUM: (2, 3),
    DomainTag.SEPARABLE: (2,),
    DomainTag.ENTANGLED: (3,),
}


def _ab_above(a, b, x, out=None, tmp=None):
    """min(a, b) > x on 1-d float arrays.

    With x = -tol this is the a, b half of the classical test of
    :func:`domain_labels`; with x = 1 - tol it is the quantum threshold of
    :func:`_classical_labels`, so a classical point it rejects has label 1.
    ``out`` (bool) and ``tmp`` (float) are optional scratch of a's length.
    """
    return np.greater(np.minimum(a, b, out=tmp), x, out=out)


def _c_bounds(a, b, ab, am1, bm1, out=None):
    """The quantum c-bound cb and the separability c-bound sqrt(c3), elementwise.

    cb = sqrt((a/b)(b^2 - 1)) where b <= a and sqrt((b/a)(a^2 - 1)) elsewhere,
    and c3 = (1 - a^2 - b^2 + (ab)^2) / ab = (a^2 - 1)(b^2 - 1) / ab; both
    radicands are clipped at 0.  Takes ab = a*b, am1 = a*a - 1 and
    bm1 = b*b - 1 precomputed; ``out`` is three float arrays and one bool
    array of a's shape for cb, sqrt(c3) and scratch, allocated when omitted.
    The labelling and the quadrature both take their c-limits from here.
    """
    if out is None:
        shape = np.shape(a)
        out = (np.empty(shape), np.empty(shape), np.empty(shape), np.empty(shape, dtype=bool))
    cb, c3, tmp, mask = out
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # branch by mode ordering; at a = b the two c-bounds coincide
        np.divide(a, b, out=cb)
        cb *= bm1
        np.copyto(cb, np.multiply(np.divide(b, a, out=tmp), am1, out=tmp),
                  where=np.logical_not(np.less_equal(b, a, out=mask), out=mask))
        np.maximum(cb, 0.0, out=cb)
        np.sqrt(cb, out=cb)
        # 1 - a^2 - b^2 = -(am1 + b^2) exactly
        s = np.multiply(b, b, out=tmp)
        s += am1
        np.multiply(ab, ab, out=c3)
        c3 -= s
        c3 /= ab
        np.maximum(c3, 0.0, out=c3)
        np.sqrt(c3, out=c3)
    return cb, c3


def _classical_labels(a, b, c, d, ab, tol, out=None, scratch=None):
    """Labels 1-3 of classical points (see :func:`domain_labels`), given ab = a*b.

    The quantum and separability bounds can hold only where a, b > 1 - tol.
    They are evaluated at every point and masked there, so a caller that has
    gathered its classical points once needs no second gather.  ``out``
    receives the labels (uint8 when omitted); ``scratch`` is seven float
    arrays and three bool arrays of a's length, allocated when omitted, so
    that a caller running it tile after tile allocates nothing.
    """
    if scratch is None:
        scratch = _scratch(a.shape, 7, 3)
    f0, f1, f2, f3, f4, f5, f6, quantum, m1, m2 = scratch
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        am1 = np.multiply(a, a, out=f0)
        am1 -= 1.0
        bm1 = np.multiply(b, b, out=f2)
        bm1 -= 1.0
        d1, d2, _, _ = _d_interval(c, ab, np.multiply(c, c, out=f3), am1, bm1,
                                   out=(f4, f5, f6, f3, quantum, m1))
        cbound, c3 = _c_bounds(a, b, ab, am1, bm1, out=(f4, f1, f5, m1))
        cbound += tol
        abs_c = np.abs(c, out=f5)
        quantum &= np.less(abs_c, cbound, out=m1)
        c3 += tol
        ppt = np.less(abs_c, c3, out=m1)
    quantum &= _ab_above(a, b, 1.0 - tol, out=m2, tmp=f4)
    # separability: d in [d1, -d1] where c <= 0 and in [-d2, d2] where c > 0,
    # that is |d| <= hi with hi = -d1 or d2.  At c = 0 the two intervals
    # coincide, which covers that slice by closure.
    hi = np.negative(d1, out=f4)
    np.copyto(hi, d2, where=np.logical_not(np.less_equal(c, 0.0, out=m2), out=m2))
    d1 -= tol
    quantum &= np.greater_equal(d, d1, out=m2)
    d2 += tol
    quantum &= np.less_equal(d, d2, out=m2)
    hi += tol
    ppt &= np.less_equal(np.abs(d, out=f5), hi, out=m2)
    if out is None:
        out = np.add(quantum, 1, dtype=np.uint8)
    else:
        np.add(quantum, 1, out=out)
    out += np.greater(quantum, ppt, out=m2)  # quantum and not PPT
    return out


def _label_slack(ab, tol, out=None):
    """The slack s = (1e-9 + 8|tol|(1 + |tol|))(1 + ab)^2 of :func:`_may_have_label`, elementwise.

    It grows with |1 + ab|, and so does its float value: at any point of a
    rectangle in (a, b) it is at most its largest value at the four corners.
    """
    t = abs(tol)
    s = np.add(ab, 1.0, out=out)
    s *= s
    s *= 1e-9 + 8.0 * t * (1.0 + t)
    return s


def _may_have_label(a, b, c, d, ab, tol, label, out=None, scratch=None):
    """A necessary test for ``label`` 2 or 3 of :func:`_classical_labels`, given ab = a*b.

    With Y = det V + 1 - a^2 - b^2 and p = ab - c^2, Simon's invariant
    X(d) = Y - 2cd = -p d^2 - 2cd + K, with K = p ab + 1 - a^2 - b^2, obeys
    p X(d) = Delta - (p d + c)^2, so X(d) >= 0 exactly on the d-interval
    [d1, d2] of :func:`_d_interval`: the quantum test.  Partial transposition
    flips the sign of d, so PPT is X(-d) >= 0, and a state with cd >= 0 is
    always PPT (R. Simon, PRL 84, 2726 (2000)); the separability bounds of
    :func:`_classical_labels` spell this out.  So entangled (label 3) needs
    |Y| < -2cd and separable (label 2) needs Y >= 2|cd|.

    Both tests allow the slack s of :func:`_label_slack`.
    The labels need p > 0, so c^2 < ab, and then sqrt(Delta) <= (1 + ab)^2.
    With t = |tol|: moving an end of [d1, d2] out by t lowers X there by at
    most t(2 sqrt(Delta) + p t) <= 2t(1 + t)(1 + ab)^2.  A point that the
    shrunken d-interval or the moved c-limit sqrt(c3) labels entangled has
    X(-d) <= 4t sqrt(Delta) or X(-d) <= 4K <= 8t (ab)^(3/2), both at most
    4t(1 + ab)^2.  The labels need |c| < cb + tol with cb^2 <= ab - 1, so p
    is of order 1 or more where they hold; then the labelling's roundoff and
    this test's move X by a few ulp of (1 + ab)^2, far below the 1e-9 term.

    ``out`` receives the bool mask; ``scratch`` is three float arrays of a's
    shape, allocated when omitted.
    """
    if scratch is None:
        scratch = _scratch(a.shape, 3)
    y, cd, s = scratch
    # Y = (ab - c^2)(ab - d^2) + 1 - a^2 - b^2
    np.subtract(ab, np.multiply(c, c, out=y), out=y)
    y *= np.subtract(ab, np.multiply(d, d, out=cd), out=cd)
    y -= np.multiply(a, a, out=cd)
    y -= np.multiply(b, b, out=cd)
    y += 1.0
    s = _label_slack(ab, tol, out=s)
    np.multiply(c, d, out=cd)
    cd += cd
    if label == 3:
        # |Y| + 2cd < s
        y = np.abs(y, out=y)
        y += cd
        return np.less(y, s, out=out)
    # 2|cd| - Y <= s
    cd = np.abs(cd, out=cd)
    cd -= y
    return np.less_equal(cd, s, out=out)


def domain_labels(a, b, c, d, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Label each standard-form point with the innermost domain holding it, elementwise.

    Returns uint8 labels: 0 outside the classical domain, 1 classical but not
    quantum, 2 separable, 3 entangled.  The domains are nested, so a label
    determines every membership (see ``DOMAIN_LABELS``).  ``tol`` moves the
    classical test, the a, b > 1 thresholds, the c-bounds and the ends of the
    d-intervals outward, so those boundaries count as inside; a negative
    ``tol`` shrinks them instead, which is how boundary bands are detected.
    The d-interval exists only where Delta >= 0 and ab - c^2 > 0, and these
    two conditions are not slackened: a point with Delta slightly below 0 is
    labelled classical only even when it lies within ``tol`` of a quantum
    point.
    """
    a, b, c, d = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (a, b, c, d)))
    shape = a.shape
    a, b, c, d = (x.ravel() for x in (a, b, c, d))
    sab = np.sqrt(np.maximum(a * b, 0.0)) + tol
    classical = _ab_above(a, b, -tol) & (np.abs(c) < sab) & (np.abs(d) < sab)
    lab = classical.astype(np.uint8)
    idx = np.flatnonzero(classical)
    a, b, c, d = a[idx], b[idx], c[idx], d[idx]
    lab[idx] = _classical_labels(a, b, c, d, a * b, tol)
    return lab.reshape(shape)


def domain_mask(a, b, c, d, tag: DomainTag, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Inequality-based membership of standard-form points, elementwise.

    A view of :func:`domain_labels` with the same ``tol`` convention.
    """
    labels = DOMAIN_LABELS.get(tag)
    if labels is None:
        raise InvalidArgumentError(f"unknown domain tag: {tag!r}")
    return np.isin(domain_labels(a, b, c, d, tol), labels)


def volume_density(a, b, c, d, out=None, scratch=None) -> np.ndarray:
    """Closed-form sqrt(det g) of the (a, b, c, d) chart, elementwise.

    det g = (4 a^2 b^2 - (c^2 + d^2)^2) / (4 (ab - c^2)^3 (ab - d^2)^3); the
    numerator is evaluated as (pc + pd)(2ab + c^2 + d^2) with pc = ab - c^2 and
    pd = ab - d^2, which does not cancel near the singular surfaces.  The
    density is 0 off the classical domain, that is wherever a <= 0, pc <= 0
    or pd <= 0, and wherever the numerator is <= 0.  ``out`` and ``scratch``
    (three float and two bool arrays) are optional arrays of the points'
    shape to work in, so that a caller running it in a loop allocates nothing.
    """
    a, b, c, d = _float_arrays(a, b, c, d)
    ab, pc, pd_, ok, tmp = scratch if scratch is not None else _scratch(a.shape, 3, 2)
    np.multiply(a, b, out=ab)
    np.square(c, out=pc)
    np.square(d, out=pd_)
    num = np.multiply(ab, 2.0, out=np.empty(a.shape) if out is None else out)
    num += pc
    num += pd_
    np.subtract(ab, pc, out=pc)
    np.subtract(ab, pd_, out=pd_)
    num *= np.add(pc, pd_, out=ab)
    np.greater(a, 0.0, out=ok)
    for x in (pc, pd_, num):
        ok &= np.greater(x, 0.0, out=tmp)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        p = np.multiply(pc, pd_, out=pc)
        den = np.multiply(p, 2.0, out=pd_)
        den *= np.sqrt(p, out=p)
        dens = np.sqrt(num, out=num)
        dens /= den
    np.copyto(dens, 0.0, where=np.logical_not(ok, out=ok))
    return dens


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
