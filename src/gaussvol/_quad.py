"""Tensor Gauss-Legendre volumes of the damped integrand over the standard-form chart.

The integrand is ``regularizer_values`` times ``volume_density``, and the
domain limits are those the stream kernel draws in: the c-ends cb and
sqrt(c3) and the d-intervals of ``twomode._class_limits`` at mu = 1, each a
plain function of the point.  The integrand and every domain are invariant
under a <-> b and (c, d) -> (-c, -d), so the rule covers b <= a and c >= 0
and multiplies by 4; the classical and separable domains are also even in
d alone, so there it covers d >= 0 and multiplies by 8.

Each domain is a sum of pieces over which the d-interval has one formula
(the entangled one splits at c = sqrt(c3), where its upper end changes from
-d2 to d2):

    piece            b        c                 d
    classical        (0, a]   [0, sqrt(ab)]     [0, sqrt(ab)]
    separable        (1, a]   [0, sqrt(c3)]     [0, d2]
    entangled below  (1, a]   [0, sqrt(c3)]     [d1, -d2]
    entangled above  (1, a]   [sqrt(c3), cb]    [d1, d2]

Quantum is separable plus entangled.  Over (A, inf) with A >= 0, a is
mapped by a = A + s x / (1 - x), s = max(A, sqrt(kappa)); b by
b = lo + (a - lo) sin^2(pi x / 2), dense at both ends of (lo, a].  The
damping exp(-tr adj V / kappa) is exp(mu (c^2 + d^2)) up to a factor of
(a, b), with mu = (a + b) / kappa, so the weight of a piece piles up at the
end of its c- and d-interval with the largest |c| or |d|.  Each of these
intervals is mapped from that heavy end through the inverse CDF of
exp(-lam u), lam a fixed share of the damping's log-slope 2 mu |end| there,
and its c-map is also quadratic at the heavy end, where the d-interval's
length goes as the square root of the distance.  With n-point rules on every
axis a piece costs n^4 evaluations.  Its mass over a > A with b <= a, scaled
by the symmetry factor, is the domain's mass over max(a, b) > A: all of it
for A = 0, and for A = L the mass outside the support box a, b <= L,
|c|, |d| <= L, because |c|, |d| < sqrt(ab) <= max(a, b).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .regularizers import RegularizerSpec, regularizer_values
from .twomode import DomainTag, _class_limits, volume_density

# The pieces of each domain, as (name, lowest b, symmetry factor).
_CLASSICAL = ("classical", 0.0, 8.0)
_SEPARABLE = ("separable", 1.0, 8.0)
_ENTANGLED = (("entangled below", 1.0, 4.0), ("entangled above", 1.0, 4.0))
_PIECES = {
    DomainTag.CLASSICAL: (_CLASSICAL,),
    DomainTag.QUANTUM: (_SEPARABLE, *_ENTANGLED),
    DomainTag.SEPARABLE: (_SEPARABLE,),
    DomainTag.ENTANGLED: _ENTANGLED,
}
# The share of the damping's log-slope at a heavy end that the end maps
# absorb.  A full share would starve the rest of each interval; a quarter
# resolves the tails at low order and keeps the whole volumes converging.
_RATE_SHARE = 0.25
# Points per vectorized block of a-nodes.  At order 12 a block of 4 a-nodes
# (6912 points) keeps the working arrays in cache: the kappa = 5 entangled
# box takes about half the time of one 20736-point block, and the process's
# peak RSS rises by 1.9 MB rather than 3.5 MB.
_BLOCK = 1 << 13


@functools.cache
def _gauss_legendre(order: int):
    """Nodes and weights of the order-point Gauss-Legendre rule on (0, 1).

    Golub-Welsch: the nodes on (-1, 1) are the eigenvalues of the Jacobi
    matrix of the Legendre recurrence, with off-diagonal k / sqrt(4k^2 - 1),
    and each weight is 2 v0^2 for the first component v0 of its unit
    eigenvector.  This avoids importing numpy.polynomial for ``leggauss``.
    """
    k = np.arange(1.0, order)
    x, v = np.linalg.eigh(np.diag(k / np.sqrt(4.0 * k * k - 1.0), -1))
    return (x + 1.0) / 2.0, v[0] ** 2


def _from_end(length, lam, y):
    """Offsets u in [0, length] from an interval's heavy end, and du/dy, at nodes y in (0, 1).

    u is the inverse CDF of exp(-lam u) on [0, length], so a factor that
    decays at rate lam away from the end becomes flat in y.  ``length`` and
    ``lam`` are (m,) arrays and the results (m, n); a tiny lam gives the
    linear map.
    """
    length, lam = length[:, None], lam[:, None]
    lam = np.maximum(lam, 1e-6 / np.maximum(length, 1e-300))
    e = -np.expm1(-lam * length)
    return -np.log1p(-y * e) / lam, e / (lam * (1.0 - y * e))


def _piece_block(spec: RegularizerSpec, piece: str, lo: float, a, wa, order: int) -> float:
    """One piece's mass over b <= a at the a-nodes ``a`` with weights ``wa`` (da included)."""
    x, w = _gauss_legendre(order)
    half_pi = 0.5 * math.pi
    sin_x, cos_x = np.sin(half_pi * x), np.cos(half_pi * x)
    # 1 - cos is quadratic at 0: the c-nodes sit close to the heavy end
    y, wy = 1.0 - cos_x, half_pi * sin_x * w
    # the (a, b) grid, flat
    b = lo + (a[:, None] - lo) * np.square(sin_x)
    wab = (wa[:, None] * (a[:, None] - lo) * (2.0 * half_pi) * sin_x * cos_x * w).ravel()
    a, b = np.broadcast_to(a[:, None], b.shape).ravel(), b.ravel()
    slope = (2.0 * _RATE_SHARE / spec.kappa) * (a + b)  # lam = slope * |end|
    if piece == "classical":
        c_lo, c_hi = 0.0, np.sqrt(a * b)
    else:
        zero = np.zeros_like(a)
        sc3 = _class_limits(DomainTag.SEPARABLE, a, b, zero, 1.0)[0]
        c_lo, c_hi = 0.0, sc3
        if piece == "entangled above":
            c_lo, c_hi = sc3, _class_limits(DomainTag.QUANTUM, a, b, zero, 1.0)[0]
    # the (a, b, c) grid, flat; c runs down from c_hi
    u, du = _from_end(c_hi - c_lo, slope * c_hi, y)
    grid = lambda v: np.repeat(v, order)
    a, b, slope = grid(a), grid(b), grid(slope)
    c, wabc = (c_hi[:, None] - u).ravel(), (wab[:, None] * du * wy).ravel()
    # the d-interval as its heavy end and its other end
    if piece == "classical":
        heavy, other = np.sqrt(a * b), 0.0
    else:
        tag = DomainTag.SEPARABLE if piece == "separable" else DomainTag.ENTANGLED
        start, length = _class_limits(tag, a, b, c, 1.0)[1:3]
        # separable: [0, d2] of the class's |d| <= d2; entangled: [d1, -d2]
        # below sqrt(c3) and [d1, d2] above
        if tag is DomainTag.SEPARABLE:
            heavy, other = start + length, 0.0
        else:
            heavy, other = start, start + length
    length = np.abs(other - heavy)
    v, dv = _from_end(length, slope * np.abs(heavy), x)
    d = (heavy[:, None] + np.sign(other - heavy)[:, None] * v).ravel()
    a, b, c, wabcd = grid(a), grid(b), grid(c), grid(wabc) * (dv * w).ravel()
    f = regularizer_values(a, b, c, d, spec)
    f *= volume_density(a, b, c, d)
    # not np.dot: BLAS would wake its thread pool for a few thousand products
    f *= wabcd
    return float(f.sum())


def _piece_mass(spec: RegularizerSpec, piece, side: float, order: int) -> float:
    """One piece's mass over max(a, b) > side, symmetry factor included."""
    name, lo, factor = piece
    x, w = _gauss_legendre(order)
    start = max(side, lo)
    s = max(start, math.sqrt(spec.kappa))
    a = start + s * x / (1.0 - x)
    wa = w * s / np.square(1.0 - x)
    step = max(1, _BLOCK // order ** 3)
    return factor * math.fsum(_piece_block(spec, name, lo, a[i:i + step], wa[i:i + step], order)
                              for i in range(0, order, step))


def tail_masses(spec: RegularizerSpec, domains, side: float, order: int) -> dict:
    """Each domain's mass over max(a, b) > side: outside the box of that side, or all of it at 0.

    Pieces shared by several domains are integrated once.
    """
    memo = {}
    out = {}
    for tag in domains:
        for piece in _PIECES[tag]:
            if piece not in memo:
                memo[piece] = _piece_mass(spec, piece, side, order)
        out[tag] = math.fsum(memo[p] for p in _PIECES[tag])
    return out


def quad_volumes(spec: RegularizerSpec, order: int, domains=tuple(DomainTag)) -> dict:
    """The damped volumes of ``domains`` by the order-point rule on every axis."""
    return tail_masses(spec, domains, 0.0, order)
