"""Seeded Monte Carlo estimates of regularized Fisher-Rao volumes.

The integrand over the standard-form chart (a, b, c, d) is

    1_domain(p) * weight(V(p)) * sqrt(det g(p)),

integrated over an axis-aligned box that contains the support of the
weighted domain: ``phi_box`` for the energy cutoff and ``upsilon_box`` for
the damping, fitted by ``_default_box`` when only the quantum classes are
scored, with a and b sides from 1 - tol.  Every pass takes tol < 1
(``twomode._check_tol``) and a box whose c and d sides hold the slice
|c|, |d| < sqrt(ab) of every point in its support (``_check_box``), as
every box ``_default_box`` fits does.

Every pass draws inside one class and labels nothing: the classical,
separable or entangled class, and it drops no draw.  The quantum domain is
separable plus entangled, from two passes.  a and b start at the class's
floor, -tol for classical and 1 - tol for the quantum classes, whose tests
take min(a, b) > -tol and min(a, b) >= 1 - tol.  Under the energy cutoff
they are drawn on the class's triangle, and for a quantum class under the
damping over equal a and b sides through a fold (both below); elsewhere
they are uniform on the rectangle of the sides [max(lo, floor), hi], and
each weight is multiplied by its area over the box's a, b area.  A pass whose class has no volume
in the box, a quantum class at E <= 4 (1 - tol) or one with an a or b side
that ends at or below the floor, draws nothing and returns zero sums.  c
is uniform on [0, c-end] of the class at (a, b) and d on its d-interval at
(a, b, c).  For classical these are [0, h] and [-h, h], with the slice's
half-width h = sqrt(ab) + tol (``twomode._half_width``, which
``domain_labels`` shares); for a quantum class they come from
``twomode._class_limits`` at mu = (1 - tol)^2, the limits ``_quad``
integrates over.  Each weight is multiplied by the two interval lengths
over the box's c and d spans, and by 2 for the mirror image c < 0 of what
is drawn.  So an estimate is box.volume times the mean weight, and its
integrand over the unit cube is smooth rather than an indicator with a
curved edge, which keeps the convergence rate of qmc (Owen, Ann. Stat.
1997; He and Wang, SIAM J. Numer. Anal. 2015).

Under the energy cutoff every pass draws a >= b on its class's triangle
T = {a, b >= q, a + b <= E/2}, with q = max(lo, 1 - tol) for the quantum
classes and max(lo, -tol) for classical, wherever H = E/2 - 2q > 0
(``_triangle_ab``): a = q + (H u / 2)(1 + y) and b = q + (H u / 2)(1 - y),
smooth in the uniforms (u, y), with the mirror image a <-> b counted
twice, so the Jacobian is H^2 u over the box's a, b area.  So every draw
passes the a, b test and the cutoff, and none is dropped.  At E = 8 under
qmc the error of the separable class is about 25 times smaller at equal
samples than that of a uniform draw over the box, of the entangled class
about 16 times, and of the classical one about 6 times.  c and d stay
uniform on the class's intervals; c crowded at its c-end, or a and b
at a = b, measured no better here.  ``_check_box`` refuses an energy
cutoff box whose a and b sides differ or that cuts a drawn class's
nonempty triangle; ``phi_box`` and ``_default_box`` give neither.  Where
H <= 0, as for the quantum classes at E <= 4 (1 - tol), the class has no
volume inside the cutoff.

Under the damping most of a quantum class's mass lies on a thin ridge of
near two-mode squeezed states: a close to b, c near its c-end and, for
the entangled class, d near d1.  So a quantum-class pass under the damping
whose box has equal a and b sides, as every box ``_default_box`` and
``upsilon_box`` fit does, draws through three polynomial maps instead.
a >= b covers [q, top]^2 with q = max(lo, 1 - tol), so every draw passes
the a, b test: s = a + b is uniform and a - b = T(s) y^2, with T(s) the
most that keeps the point in the square (``_fold_ab``), and the mirror
image a <-> b counts twice.  c = end (1 - y^2) crowds the c-end, and for
the entangled class d = d1 + length y^2 crowds d1; the separable class
keeps a uniform d, which gave it the smaller error.  Each weight carries
the maps' Jacobians over the box's a, b area, so an estimate is still
box.volume times the mean weight.  Against a uniform
draw over the box, the entangled error at kappa = 5 and 8M qmc samples is
about 7 times smaller, and at kappa = 50 and 1000 and 200k about 25 and 30
times.  Classical
passes and boxes with unequal a and b sides draw on the rectangle under
the damping.

The weight is fused with the interval arithmetic (``_class_weight``); it
is 0 off the open classical domain, where pc = ab - c^2 <= 0 or
pd = ab - d^2 <= 0, which the classical draw reaches where |c| or
|d| >= sqrt(ab).

A call runs one pass of n_samples per class that its domains need, over
the same box and on independent streams (``mc_joint_volumes``), so
estimates from different passes have covariance 0.  The quantum estimate
is the sum of the separable and entangled ones, and its variance the sum
of theirs.  Splitting one quantum pass at d = -d2 instead put a jump in
the uniforms, which qmc does not smooth: near E* its entangled - separable
error was 17 times that of the two passes at 200k samples, and 85 times
at 8M.

The adjugate damping has unbounded support, so ``upsilon_box`` fits a box
a, b in (0, L], |c|, |d| <= L: the first of the sides L0 / sqrt(2), L0,
2 L0 / sqrt(2) and 2 L0 at which every domain it checks has at most
``eps_tail`` of its mass outside the box, relative to the mass inside, and
2 L0 with a warning when none does.  Both masses come from the
deterministic Gauss-Legendre rule of ``_quad``, which draws no samples, so
the box depends on kappa, ``eps_tail`` and the domains, not on the sample
budget.

Error bars: a pseudo pass reports the iid formula over its n_samples
draws.  A qmc pass reports the spread of its R = 2 * streams replicates:
each replicate's mean is an independent unbiased estimate, so their sample
variance over R estimates the variance of the pooled estimate (Owen, Ann.
Stat. 1997), with R - 1 degrees of freedom; estimate +- t(0.975, R - 1) *
std_error is a 95% interval.  The iid formula would overstate a qmc
estimate's error 2-5 times.

Determinism: the sample budget of a pass is split by index into
``streams`` substreams seeded from children of the seed's SeedSequence,
and partial sums are combined by a fixed-order pairwise reduction; results
are bit-identical for a fixed (seed, streams, n_samples).  A stream works
in tiles of ``_TILE`` points, one replicate after the other, and each
replicate keeps one row of sums, to which its tiles add their own sums in
tile order.  Two flat buffers hold a tile: stage 1 draws the uniforms
(u, y) of its a and b into the first and maps them (the fold, the
triangle or the rectangle) to a and b in the second, where stage 2 draws
the uniforms of c and d for the whole tile.  The first then holds the
tile's weights and stage 2's block scratch (allocating those rows raised
the energy workload's peak RSS by 3.4 MB).  A pass runs its interval
arithmetic and weights in blocks of at most ``_BLOCK`` points, so that its
scratch fits beside the weights in the first buffer, and sums each tile's
weights at once, so the blocks change no bit.  The fold and the triangle
leave their Jacobian in u's row, where stage 2 keeps the weights and reads
it before it writes them, so they need no row more.  A pseudo stream is
one replicate, consumed per tile as the uniforms of a(t) and b(t), then of
c(t) and d(t).  A qmc stream is two replicates: independent random linear
scrambles of the 4-d Sobol' sequence (``_sobol``), drawn from the
stream's generator in turn, over the first ceil(count / 2) and
floor(count / 2) points of their sequences.  Its tiles are aligned blocks
of 2^16 points: stage 1 draws a tile's 1st and 2nd coordinates, the
uniforms of a and b, and stage 2 its 3rd and 4th, those of c and d.  So
``_TILE`` alone fixes the bits, for pseudo and qmc alike.
The substreams of a call run on min(streams, usable cores) threads: the
caller takes the first stream and then starts the others for that call
alone, and the partial sums are reduced in stream order, so the core
count sets the speed but never the bits.
"""

from __future__ import annotations

import math
import os
import threading
import warnings
from dataclasses import dataclass

import numpy as np

from . import _quad, _sobol
from .errors import InvalidArgumentError, NumericError
from .regularizers import RegKind, RegularizerSpec, _is_int
from .twomode import DEFAULT_TOL, DomainTag, _check_tol, _class_limits, _half_width
# unused here, but perfbench/tracing.py wraps these attributes of this module
from .regularizers import regularizer_values  # noqa: F401
from .twomode import domain_mask, metric_components  # noqa: F401

__all__ = [
    "Box",
    "IntegrationRequest",
    "IntegrationResult",
    "JointVolumes",
    "SweepRow",
    "SweepTable",
    "DOMAIN_ORDER",
    "phi_box",
    "upsilon_box",
    "mc_joint_volumes",
    "mc_volume",
    "sweep",
]

DOMAIN_ORDER = (DomainTag.CLASSICAL, DomainTag.QUANTUM, DomainTag.SEPARABLE, DomainTag.ENTANGLED)
# the classes whose passes make up each domain: quantum is separable plus
# entangled, drawn in two independent passes
_CLASSES = {DomainTag.CLASSICAL: (DomainTag.CLASSICAL,),
            DomainTag.QUANTUM: (DomainTag.SEPARABLE, DomainTag.ENTANGLED),
            DomainTag.SEPARABLE: (DomainTag.SEPARABLE,),
            DomainTag.ENTANGLED: (DomainTag.ENTANGLED,)}

# _TILE is the working set of a stream and fixes its bits: the pseudo
# stream's layout and the summation order of every sum.  A qmc tile is the
# aligned block of 2^16 points that ``_sobol.Scramble.tile`` draws
_TILE = 1 << 16
# the most points in a block of a pass's stage 2, and the scratch rows of a
# block (see _stream_partial)
_BLOCK = 1 << 15
_CLASS_ROWS = 6
_SAMPLERS = ("pseudo", "qmc")
# upsilon_box's default bound on each domain's tail, relative to its mass inside
DEFAULT_EPS_TAIL = 1e-3
# Gauss-Legendre order per axis of the support-box rule: its tail ratios
# agree with the rule at twice the order to a few percent near the threshold
_BOX_ORDER = 12


@dataclass(frozen=True)
class Box:
    """Axis-aligned sampling box over (a, b, c, d)."""

    lo: tuple
    hi: tuple

    def __post_init__(self):
        lo = tuple(float(x) for x in self.lo)
        hi = tuple(float(x) for x in self.hi)
        if len(lo) != 4 or len(hi) != 4:
            raise InvalidArgumentError("box needs 4 lower and 4 upper bounds")
        if not all(map(math.isfinite, lo + hi)):
            raise InvalidArgumentError("box bounds must be finite")
        if any(not (h > l) for l, h in zip(lo, hi)):
            raise InvalidArgumentError("box upper bounds must exceed lower bounds")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def volume(self) -> float:
        return float(np.prod(np.asarray(self.hi) - np.asarray(self.lo)))

    def contains(self, pts: np.ndarray) -> np.ndarray:
        """Membership of (..., 4) points in the half-open box (lo, hi]."""
        return ((pts > self.lo) & (pts <= self.hi)).all(axis=-1)


def phi_box(bound_E: float) -> Box:
    """Support box of the energy-cutoff integrand.

    tr V <= E forces a + b <= E/2, hence a, b in (0, E/2]; within the classical
    domain |c|, |d| < sqrt(ab) <= (a + b)/2 <= E/4.
    """
    if not (bound_E > 0.0):
        raise InvalidArgumentError("bound_E must be positive")
    e = float(bound_E)
    return Box(lo=(0.0, 0.0, -e / 4.0, -e / 4.0), hi=(e / 2.0, e / 2.0, e / 4.0, e / 4.0))


def _sym_box(L: float) -> Box:
    return Box(lo=(0.0, 0.0, -L, -L), hi=(L, L, L, L))


def _replicates(child_ss, count: int, sampler: str) -> tuple:
    """A stream's replicate counts, and each replicate's ``tile(start, out, dims)``.

    A pseudo stream is one replicate of ``count`` iid points, whose ``tile``
    fills ``out`` with the stream's next uniforms whatever the tile.  A qmc
    stream is two independent scrambles of the Sobol' sequence
    (``_sobol.Scramble.tile``), drawn from the stream's generator in turn,
    over the first ceil(count / 2) and floor(count / 2) of their points.
    """
    rng = np.random.default_rng(child_ss)
    if sampler == "pseudo":
        return [count], [lambda start, out, dims: rng.random(out=out)]
    counts = _partition(count, 2)
    return counts, [_sobol.Scramble(rng).tile for _ in counts]


_AB, _CD = slice(0, 2), slice(2, 4)


def _floor(tag: DomainTag, tol: float) -> float:
    """The least min(a, b) of the class ``tag``: -tol for classical, 1 - tol for a quantum class."""
    return -tol if tag is DomainTag.CLASSICAL else 1.0 - tol


def _check_box(box: Box, spec: RegularizerSpec, draws: tuple, tol: float) -> None:
    """Refuse a box that cuts the class of a point in its support.

    Every class lies within the classical slice |c|, |d| < sqrt(ab), and
    sqrt(ab) <= r = sqrt(hi_a hi_b) in the box, or r = E/4 inside
    tr V <= E, so a box whose c and d sides hold [-r, r] holds each class
    whole, and a pass draws c >= 0 and counts the c < 0 half as its mirror
    image under (c, d) -> (-c, -d).  Under the energy cutoff each class of
    ``draws`` is drawn on its triangle a, b >= q, a + b <= E/2 (see the
    module docstring), so the box's a and b sides must be equal and hold
    every such triangle that is not empty; ``phi_box`` and ``_default_box``
    give only such boxes.  Any other box raises ``InvalidArgumentError``.
    """
    r = math.sqrt(max(box.hi[0] * box.hi[1], 0.0))
    if spec.kind is RegKind.ENERGY_PHI:
        r = min(r, spec.bound_E / 4.0)
    (_, _, lo_c, lo_d), (_, _, hi_c, hi_d) = box.lo, box.hi
    if not (min(hi_c, hi_d) >= r and max(lo_c, lo_d) <= -r):
        raise InvalidArgumentError(f"the box's c and d sides must hold [-{r:g}, {r:g}], "
                                   "the slice |c|, |d| < sqrt(ab) of its support")
    if spec.kind is not RegKind.ENERGY_PHI:
        return
    if box.lo[0] != box.lo[1] or box.hi[0] != box.hi[1]:
        raise InvalidArgumentError("under the energy cutoff the box's a and b sides must be equal")
    for tag in draws:
        q = max(box.lo[0], _floor(tag, tol))
        h = _triangle_side(q, spec.bound_E / 2.0)
        if h > 0.0 and q + h > box.hi[0]:
            raise InvalidArgumentError(
                f"the box's a and b sides must hold the {tag.value} class's triangle "
                f"a, b >= {q:g}, a + b <= {spec.bound_E / 2.0:g}")


def _class_weight(a, b, pc, d, spec: RegularizerSpec, big: bool, out, scratch, edges=False):
    """2 volume_density * regularizer_values at points of a class, elementwise.

    Takes pc = ab - c^2 and writes the weight to ``out``; ``scratch`` is
    three float arrays of a's length.  With pd = ab - d^2, q = pc + pd and
    p = pc pd = det V, twice the density is sqrt((2ab + c^2 + d^2) q / p) / p
    with 2ab + c^2 + d^2 = 4ab - q, the regularizer is log(1 + p^m) and the
    damping exp(-(a + b) q / kappa).  With ``edges``, for the classical
    draw, which reaches them, the weight is 0 where pc <= 0 or pd <= 0, off
    the open classical domain, as ``volume_density`` is; the arithmetic
    there may divide by 0 or overflow, so the caller silences those
    warnings.  A quantum class lies inside it, so there pc, pd <= 0 can
    only come from rounding, and the weight is left non-finite, which
    raises.  Every point lies inside the energy cutoff, drawn on its
    class's triangle a + b <= E/2.  p^m
    overflows only where ``big``, and there log(1 + p^m) is m log p, as in
    ``log1p_det_pow``.
    """
    t0, t1, t2 = scratch
    ab = np.multiply(a, b, out=t0)
    pd = np.subtract(ab, np.multiply(d, d, out=t1), out=t1)
    off = np.minimum(pc, pd, out=out) <= 0.0 if edges else None
    q = np.add(pc, pd, out=t2)
    p = np.multiply(pc, pd, out=t1)
    num = np.multiply(ab, 4.0, out=ab)
    num -= q
    num *= q
    w = np.divide(num, p, out=out)
    np.sqrt(w, out=w)
    w /= p
    if spec.m == 4:
        reg = np.multiply(p, p, out=t0)
        reg *= reg
    else:
        reg = np.power(p, spec.m, out=t0)
    np.log1p(reg, out=reg)
    if big:
        np.multiply(np.log(p), spec.m, out=reg, where=np.isinf(reg))
    w *= reg
    if spec.kind is RegKind.ADJUGATE_UPSILON:
        damp = np.add(a, b, out=t0)
        damp *= q
        damp *= -1.0 / spec.kappa
        w *= np.exp(damp, out=damp)
    if edges:
        w[off] = 0.0
    return w


def _fold_ab(uv, q: float, top: float, out, scratch) -> None:
    """a >= b over [q, top]^2 from the uniforms (u, y) in ``uv``, crowded at a = b.

    With H = top - q, sigma = H u and m = min(sigma, H - sigma), a and b are
    q + sigma +- m y^2: s = a + b = 2 (q + sigma) is uniform on [2q, 2 top],
    and a - b = T(s) y^2 with T(s) = 2m = min(s - 2q, 2 top - s), the most
    that keeps b >= q and a <= top.  da db = 4 H m y du dy, and the mirror
    image a <-> b doubles it, so the map's Jacobian is 8 H m y.  Writes a
    and b to the rows of ``out`` and m y to u's row; y's row and
    ``scratch``, a float array of u's length, are left as scratch.  b = q +
    (sigma - m y^2) >= q in floats.
    """
    u, y = uv
    h = top - q
    sigma = np.multiply(u, h, out=scratch)
    m = np.subtract(h, sigma, out=u)
    np.minimum(sigma, m, out=m)
    m *= y
    tau = np.multiply(y, m, out=y)
    np.subtract(sigma, tau, out=out[1])
    out[1] += q
    np.add(sigma, tau, out=out[0])
    out[0] += q


def _triangle_side(q: float, half_e: float) -> float:
    """H = E/2 - 2q, lowered until q + H <= top in floats, top <= E/2 - q exactly.

    top is E/2 - q in floats, one ulp lower where that rounded up, which
    ``math.fsum`` tells exactly.  So every a that ``_triangle_ab`` draws, at
    most q + H in floats, keeps E/2 - a >= q.  top - q is exact where H <= q,
    and elsewhere H's ulp is within a few times top's, so a few steps at
    most.  A value <= 0 means that the triangle is empty.
    """
    top = half_e - q
    if math.fsum((top, q, -half_e)) > 0.0:
        top = math.nextafter(top, -math.inf)
    h = top - q
    while h > 0.0 and q + h > top:
        h = math.nextafter(h, 0.0)
    return h


def _triangle_ab(uv, q: float, h: float, half_e: float, out, scratch) -> None:
    """a >= b over the triangle a, b >= q, a + b <= E/2 from the uniforms (u, y) in ``uv``.

    With H = h from ``_triangle_side`` and t = H u / 2, a = q + (t + t y)
    and b = q + (t - t y): a + b = 2 (q + t) and a - b = 2 t y.
    da db = H^2 u / 2 du dy, and the mirror image a <-> b doubles it, so
    the map's Jacobian is H^2 u = 2 H t.  Writes a and b to the rows of
    ``out`` and t to u's row; y's row and ``scratch``, a float array of u's
    length, are left as scratch.  In floats a <= q + H, so b >= q, and b is
    lowered to E/2 - a where that is smaller, which keeps the closed cutoff
    2 (a + b) <= E exact: E/2 - a is exact where a >= E/4, and elsewhere
    b <= a < E/4.  Mostly only u within a few ulps of 1, which the pseudo
    sampler can draw, reaches that bound.
    """
    u, y = uv
    t = np.multiply(u, 0.5 * h, out=u)
    ty = np.multiply(y, t, out=y)
    np.add(t, ty, out=out[0])
    out[0] += q
    np.subtract(t, ty, out=out[1])
    out[1] += q
    np.subtract(half_e, out[0], out=scratch)
    np.minimum(out[1], scratch, out=out[1])


def _stream_partial(child_ss, count: int, box: Box, spec: RegularizerSpec, tol: float,
                    sampler: str, tag: DomainTag):
    lo, hi = np.asarray(box.lo)[:, None], np.asarray(box.hi)[:, None]
    span = hi - lo
    # a weight is scaled by the lengths of the c and d intervals it was drawn
    # on, over the box's c and d spans
    per_cd = 1.0 / (span[2, 0] * span[3, 0])
    counts, tiles = _replicates(child_ss, count, sampler)
    # one weight sum and one squared-weight sum per replicate, to which each
    # of its tiles adds its own
    s1, s2 = np.zeros(len(counts)), np.zeros(len(counts))
    energy = spec.kind is RegKind.ENERGY_PHI
    classical = tag is DomainTag.CLASSICAL
    # a and b are drawn inside the class, from ab_lo = max(lo, floor) on each
    # side.  Under the energy cutoff every class draws a >= b on its triangle
    # a, b >= q, a + b <= E/2 (_triangle_ab), which _check_box saw the box
    # hold, with c and d uniform.  Damped, a quantum class over equal a and
    # b sides folds [q, top]^2 (_fold_ab), and draws c through end (1 - y^2)
    # and, for the entangled class, d through d1 + length y^2.  Any other
    # pass draws a and b uniformly on the rectangle [ab_lo, hi].  The weights
    # carry the Jacobians' varying parts, and the sums their constants over
    # the box's a, b area: 8 (top - q), 2 and 2 for the fold, 2 H for the
    # triangle and the rectangle's area for the rectangle
    ab_lo = np.maximum(lo[_AB], _floor(tag, tol))
    ab_span = hi[_AB] - ab_lo
    q = ab_lo[0, 0]
    h = _triangle_side(q, spec.bound_E / 2.0) if energy else 0.0
    if (h <= 0.0) if energy else not (ab_span > 0.0).all():
        # the class has no volume in the box, so nothing is drawn
        return np.array(counts, dtype=np.int64), s1, s2, False
    fold = not (energy or classical) and box.lo[0] == box.lo[1] and box.hi[0] == box.hi[1]
    mapped = energy or fold
    d_map = fold and tag is DomainTag.ENTANGLED
    area = span[0, 0] * span[1, 0]
    if fold:
        per_cd *= 8.0 * ab_span[0, 0] / area * (4.0 if d_map else 2.0)
    elif energy:
        per_cd *= 2.0 * h / area
    else:
        per_cd *= ab_span[0, 0] * ab_span[1, 0] / area
    tile = min(_TILE, max(counts))
    # a tile's points live in the flat buffer pbuf.  wbuf holds the uniforms
    # of their a and b, then stage 2's n weights and the scratch rows of its
    # blocks of at most n / 2 points; its pad holds the rows of a tile of one
    # point.  Every buffer stays below the 4 MiB from which numpy asks for
    # huge pages, which a few touched bytes would make resident in full
    pbuf, wbuf = np.empty(4 * tile), np.empty(4 * tile + _CLASS_ROWS)
    mu = (1.0 - tol) ** 2
    # p = det V <= (ab)^2, whose m-th power overflows only in huge boxes; the
    # class limits' Delta <= (ab)^3 overflows in larger ones still
    log_ab = math.log(max(box.hi[0] * box.hi[1], 1.0))
    big, huge = 2 * spec.m * log_ab > 700.0, 3 * log_ab > 700.0
    for r, (size, draw) in enumerate(zip(counts, tiles)):
        for done in range(0, size, _TILE):
            # stage 1: the tile's uniforms (u, y), mapped to its a and b in
            # pbuf; the fold and the triangle leave their Jacobian in u's
            # row, where stage 2 keeps the weights
            n = min(_TILE, size - done)
            uv, pts = wbuf[:2 * n].reshape(2, n), pbuf[:4 * n].reshape(4, n)
            draw(done, uv, _AB)
            if fold:
                _fold_ab(uv, q, box.hi[0], pts[_AB], wbuf[2 * n:3 * n])
            elif energy:
                _triangle_ab(uv, q, h, spec.bound_E / 2.0, pts[_AB], wbuf[2 * n:3 * n])
            else:
                np.multiply(uv, ab_span, out=pts[_AB])
                pts[_AB] += ab_lo
            # stage 2: the uniforms of c and d for the whole tile, then c on
            # [0, c-end], d on the d-interval at c and the weights, in blocks
            # whose scratch rows follow the weights in wbuf
            draw(done, pts[_CD], _CD)
            block = max(1, min(_BLOCK, n // 2))
            w_row = wbuf[:n]
            rows = wbuf[n:n + _CLASS_ROWS * block].reshape(_CLASS_ROWS, block)
            for k in range(0, n, block):
                a, b, c, d = pts[:, k:k + block]
                f = rows[:, :a.size]
                if classical:
                    # the slice: c on [0, h] and d on [-h, h]
                    end = _half_width(a, b, tol)
                    c *= end
                    pc = np.multiply(a, b, out=f[3])
                    pc -= np.multiply(c, c, out=f[4])
                    start = np.negative(end, out=f[1])
                    length = np.add(end, end, out=f[2])
                else:
                    # through the fold, the Jacobians of c and d over 2 take
                    # the places of end and length
                    end, start, length, pc, _ = _class_limits(
                        tag, a, b, c, mu, draw="end" if fold else "uniform", scratch=f,
                        huge=huge, ordered=mapped)
                    if d_map:
                        # d = d1 + (length y) y
                        length *= d
                if mapped:
                    # end takes the place of the a, b Jacobian over its
                    # constant too, which stage 1 left in the weights' row
                    end *= w_row[k:k + a.size]
                d *= length
                d += start
                w = _class_weight(a, b, pc, d, spec, big, w_row[k:k + block],
                                  (f[1], f[4], f[5]), classical)
                w *= length
                w *= end
            # the tile's weights and their squares, summed; the factor 2 of
            # _class_weight counts each point's mirror image c < 0.  A
            # non-finite weight makes its sum non-finite; its point is named
            # before the squares overwrite c's row
            part = np.sum(w_row) * per_cd
            if not math.isfinite(part):
                i = int(np.argmin(np.isfinite(w_row)))
                bad = tuple(float(row[i]) for row in pts)
                raise NumericError(f"non-finite integrand weight at (a, b, c, d) = {bad}")
            s1[r] += part
            s2[r] += np.sum(np.square(w_row, out=pts[2])) * (per_cd * per_cd)
    return np.array(counts, dtype=np.int64), s1, s2, True


@dataclass(frozen=True)
class IntegrationResult:
    """One domain's volume estimate with its sampling error.

    ``std_error`` is the iid formula's for the pseudo sampler.  For qmc it
    is the spread of the 2 * ``streams`` replicate means, with
    2 * streams - 1 degrees of freedom, so estimate +- t(0.975,
    2 * streams - 1) * std_error is its 95% interval (2.36 std_errors at 4
    streams, 12.7 at one).

    ``acceptance_fraction`` is the share of the domain's draws that carry
    weight, and ``empty_domain`` is true when none does.  Every pass draws
    inside its class (see the module docstring), so this is 1.0 for a
    domain whose classes have volume in the box and 0.0 for one whose
    classes have none, which draws nothing.
    """

    estimate: float
    std_error: float
    n_samples: int
    seed: int | None
    streams: int
    box: Box
    acceptance_fraction: float
    domain: DomainTag
    regularizer: RegularizerSpec
    sampler: str = "pseudo"
    empty_domain: bool = False


class JointVolumes:
    """The scored domain volumes of up to three sampling passes, with their covariances.

    Each pass draws inside one class (see the module docstring): classical,
    separable or entangled.  A domain is a set of classes, the quantum one
    separable plus entangled, so its estimate is the sum of its classes'.
    The passes draw independent streams, so the covariance of two domains'
    estimates is the sum of the variances of the classes they share: Q - E
    has S's error, and Q and S covary by S's variance in a ratio.  Every
    weight carries the Jacobian of its draw: the lengths of the intervals
    its c and d were drawn on, or the polynomial maps' (see the module
    docstring), so each class's estimate is box.volume times a mean over
    its pass's ``n_samples`` draws, and its error box.volume times that
    mean's.  The sums are kept per replicate, in stream order: one per
    stream for pseudo, whose variances come from the pooled sums by the iid
    formula, and two per stream for qmc, whose come from the R =
    2 * streams replicate means (their sample variance over R; see the
    module docstring).  ``result``, ``difference`` and ``ratio`` accept
    every domain whose classes were drawn and raise
    ``InvalidArgumentError`` for any other.  They raise ``NumericError``
    for a domain whose classes drew but whose weight sum or squared-weight
    sum is 0, since its weights underflowed.
    """

    def __init__(self, box: Box, spec: RegularizerSpec, seed_label, streams: int, tol: float,
                 sampler: str, passes: list):
        self.box = box
        self.regularizer = spec
        self.seed = seed_label
        self.streams = streams
        self.tol = tol
        self.sampler = sampler
        # passes: (class drawn, counts, s1, s2, drew) of each pass, one entry
        # of counts and sums per replicate in stream order (a stream's for
        # pseudo, a scramble's for qmc); each draws n_samples
        self.n_samples = int(passes[0][1].sum())
        # class: (counts, replicate s1, pooled s1, pooled s2, drew), the
        # pooled sums added up pairwise over the replicates
        self._pass = {tag: (counts, s1, _pairwise_reduce(s1, lambda u, v: u + v),
                            _pairwise_reduce(s2, lambda u, v: u + v), drew)
                      for tag, counts, s1, s2, drew in passes}

    def _classes(self, tag: DomainTag) -> tuple:
        # every reader of a domain goes through here
        classes = _CLASSES[tag]
        if not all(c in self._pass for c in classes):
            raise InvalidArgumentError(f"the {tag.value} domain was not scored in this call")
        return classes

    def _mean(self, tag: DomainTag) -> float:
        classes = self._classes(tag)
        s1, s2 = (sum(float(self._pass[c][k]) for c in classes) for k in (2, 3))
        # weights are positive, so a zero sum over draws means that the
        # weights underflowed, and the estimate or its error bar would read 0
        if self._drew(classes) and not (s1 and s2):
            raise NumericError(f"integrand weights of the {tag.value} domain underflow: "
                               f"weight sum {s1:.3g}, squared-weight sum {s2:.3g}")
        return s1 / self.n_samples

    def _drew(self, classes) -> bool:
        return any(self._pass[c][4] for c in classes)

    def _class_var(self, tag: DomainTag) -> float:
        """Variance of one class's sample mean.

        For qmc, from the spread of the R replicates' means, each an
        independent estimate, as their sample variance over R; for pseudo,
        by the iid formula.
        """
        counts, rows, s1, s2, _ = self._pass[tag]
        if self.sampler == "qmc":
            x = rows / counts
            dx = x - x.mean()
            return float(np.dot(dx, dx)) / (x.size * (x.size - 1.0))
        n = self.n_samples
        if n < 2:
            return 0.0
        mean = float(s1) / n
        return (float(s2) / n - mean * mean) * (n / (n - 1.0)) / n

    def _mean_cov(self, tag_a: DomainTag, tag_b: DomainTag) -> float:
        """Covariance of the two domains' sample means: their shared classes' variances, summed."""
        # the checks of both domains
        self._mean(tag_a)
        self._mean(tag_b)
        shared = self._classes(tag_b)
        return sum(self._class_var(c) for c in self._classes(tag_a) if c in shared)

    def _mean_var(self, tag: DomainTag) -> float:
        return max(self._mean_cov(tag, tag), 0.0)

    def result(self, tag: DomainTag) -> IntegrationResult:
        vol = self.box.volume
        estimate = vol * self._mean(tag)
        drew = self._drew(_CLASSES[tag])
        return IntegrationResult(
            estimate=estimate,
            std_error=vol * math.sqrt(self._mean_var(tag)),
            n_samples=self.n_samples,
            seed=self.seed,
            streams=self.streams,
            box=self.box,
            acceptance_fraction=float(drew),
            domain=tag,
            regularizer=self.regularizer,
            sampler=self.sampler,
            empty_domain=not drew,
        )

    def difference(self, tag_a: DomainTag, tag_b: DomainTag) -> tuple[float, float]:
        """Estimate and standard error of vol(tag_a) - vol(tag_b)."""
        vol = self.box.volume
        est = vol * (self._mean(tag_a) - self._mean(tag_b))
        var = self._mean_var(tag_a) + self._mean_var(tag_b) - 2.0 * self._mean_cov(tag_a, tag_b)
        return est, vol * math.sqrt(max(var, 0.0))

    def ratio(self, tag: DomainTag, base: DomainTag = DomainTag.CLASSICAL) -> tuple[float, float]:
        """Delta-method ratio vol(tag) / vol(base); approximate to first order."""
        x, y = self._mean(tag), self._mean(base)
        if y == 0.0:
            return math.nan, math.nan
        r = x / y
        var = (
            self._mean_var(tag) / (y * y)
            + (x * x) * self._mean_var(base) / (y ** 4)
            - 2.0 * x * self._mean_cov(tag, base) / (y ** 3)
        )
        return r, math.sqrt(max(var, 0.0))


def _check_seed(seed) -> None:
    """An integer seed must be >= 0; ``mc_joint_volumes`` also takes a SeedSequence."""
    if not (_is_int(seed) and seed >= 0):
        raise InvalidArgumentError("seed must be an integer >= 0")


def _partition(n: int, k: int) -> list[int]:
    base, extra = divmod(n, k)
    return [base + 1 if i < extra else base for i in range(k)]


def _pairwise_reduce(items, combine):
    items = list(items)
    while len(items) > 1:
        nxt = []
        for i in range(0, len(items), 2):
            if i + 1 < len(items):
                nxt.append(combine(items[i], items[i + 1]))
            else:
                nxt.append(items[i])
        items = nxt
    return items[0]


def _usable_cores() -> int:
    """Cores this process may run on: its CPU affinity set where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _children(ss: np.random.SeedSequence, n: int) -> list:
    """The n children that ``ss.spawn(n)`` gives on a fresh SeedSequence.

    Unlike ``spawn``, this leaves ``ss`` as it was, so the same SeedSequence
    passed twice gives the same substreams.
    """
    return [np.random.SeedSequence(ss.entropy, spawn_key=ss.spawn_key + (i,),
                                   pool_size=ss.pool_size) for i in range(n)]


def _check_pass(n_samples: int, streams: int, tol: float, sampler: str,
                min_samples: int = 1) -> None:
    """The checks of a pass's sample count, streams, tol and sampler.

    ``IntegrationRequest`` shares them, with at least 10_000 samples.
    """
    if not (_is_int(n_samples) and n_samples >= min_samples):
        raise InvalidArgumentError(f"n_samples must be an integer >= {min_samples:_}")
    if not (_is_int(streams) and streams >= 1):
        raise InvalidArgumentError("streams must be an integer >= 1")
    _check_tol(tol)
    if sampler not in _SAMPLERS:
        raise InvalidArgumentError(f"sampler must be one of {_SAMPLERS}")
    # a qmc stream's two replicates each draw at least one point and at most
    # the 2^32 of the sequence
    if sampler == "qmc" and not 2 * streams <= n_samples <= 2 ** (_sobol.BITS + 1) * streams:
        raise InvalidArgumentError("the qmc sampler draws two replicates per stream: n_samples "
                                   "must lie in [2 * streams, 2^33 * streams]")


def _check_eps_tail(eps_tail: float) -> None:
    if not (0.0 < eps_tail < 1.0):
        raise InvalidArgumentError("eps_tail must lie in (0, 1)")


def _draws(domains) -> tuple:
    """The classes that passes scoring ``domains`` draw in, in ``DOMAIN_ORDER``.

    Each domain's classes (``_CLASSES``): the quantum domain draws the
    separable and the entangled class.
    """
    try:
        classes = {c for tag in set(domains) for c in _CLASSES[tag]}
    except (KeyError, TypeError):
        raise InvalidArgumentError("domains must be a collection of DomainTags") from None
    if not classes:
        raise InvalidArgumentError("domains must be non-empty")
    return tuple(tag for tag in DOMAIN_ORDER if tag in classes)


def _run_shares(run, tasks: list, threads: int) -> list:
    """``run(task)`` of every task, in task order, on ``threads`` threads.

    The caller is one of them: it takes the first task and then starts the
    other threads - 1 (none for one thread); each takes the next task no
    thread has taken until none is left or a task has raised.  Once every
    thread is done, the first task in task order that raised raises again.
    """
    results = [None] * len(tasks)
    failures = {}  # task index: the exception it raised
    untaken = iter(range(len(tasks)))
    lock = threading.Lock()

    def take():
        with lock:
            # every task before a failed one is taken, so no task left can
            # be the first to fail in task order
            return None if failures else next(untaken, None)

    def share(i):
        while i is not None:
            try:
                results[i] = run(tasks[i])
            except Exception as exc:
                with lock:
                    failures[i] = exc
            i = take()

    first = take()
    others = [threading.Thread(target=lambda: share(take())) for _ in range(threads - 1)]
    for t in others:
        t.start()
    share(first)
    for t in others:
        t.join()
    if failures:
        raise failures[min(failures)]
    return results


def mc_joint_volumes(box: Box, spec: RegularizerSpec, n_samples: int, seed, streams: int = 1,
                     tol: float = DEFAULT_TOL, sampler: str = "pseudo",
                     seed_label: int | None = None, *, domains=DOMAIN_ORDER) -> JointVolumes:
    """Sampling passes over ``box`` scoring ``domains`` (all four by default).

    Each pass draws inside one class (see the module docstring), in
    ``DOMAIN_ORDER``: the classical class when ``domains`` hold it, the
    separable class when they hold the separable or quantum domain, and
    the entangled class when they hold the entangled or quantum domain.
    a and b are drawn inside the class: on its triangle a + b <= E/2 under
    the energy cutoff, through polynomial maps for a quantum class under
    the damping over equal a and b sides, and otherwise uniformly on the
    part of the box's a, b sides from the class's floor on.  c and d are uniform
    on the class's intervals, and each weight carries the Jacobians of its
    draw over the box's a, b area and c and d spans, so a pass estimates
    the integrals over the box that uniform sampling estimates.  The box
    must hold the slice |c|, |d| < sqrt(ab) of its support, and under the
    energy cutoff have equal a and b sides that hold each drawn class's
    triangle (``InvalidArgumentError`` otherwise).  Each pass draws
    ``n_samples``: the k-th pass runs on the seed's children k * streams
    to (k + 1) * streams - 1, so the passes are independent, and the first
    gives the bits of a call that scores only its class.

    ``seed`` may be an integer or a SeedSequence, which is not modified;
    ``seed_label`` is what gets reported in results when the seed is not a
    plain integer.  ``streams`` is the number of substreams per pass and
    part of the determinism key; every pass's substreams run on
    min(streams, usable cores) threads, the caller's among them.
    ``sampler`` is "pseudo" (iid draws) or "qmc" (two scrambled Sobol'
    replicates per stream, so it needs n_samples >= 2 * streams).  Only
    points of the drawn classes are weighted, so a non-finite weight
    elsewhere does not raise (see ``JointVolumes`` for what can be read).
    """
    _check_pass(n_samples, streams, tol, sampler)
    draws = _draws(domains)
    _check_box(box, spec, draws, tol)
    if isinstance(seed, np.random.SeedSequence):
        ss = seed
    else:
        _check_seed(seed)
        ss = np.random.SeedSequence(seed)
        if seed_label is None:
            seed_label = int(seed)
    counts = _partition(n_samples, streams)
    children = _children(ss, streams * len(draws))
    # pass k's streams are children k * streams to (k + 1) * streams - 1
    tasks = [(child, count, tag) for k, tag in enumerate(draws)
             for child, count in zip(children[k * streams:], counts)]

    def run(task):
        child, count, tag = task
        # a non-finite weight raises NumericError, which names the point;
        # numpy's warnings on the way there would only name its internals
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return _stream_partial(child, count, box, spec, tol, sampler, tag)

    partials = _run_shares(run, tasks, min(streams, _usable_cores()))
    passes = []
    for k, tag in enumerate(draws):
        counts, s1, s2, drew = zip(*partials[k * streams:(k + 1) * streams])
        passes.append((tag, *map(np.concatenate, (counts, s1, s2)), any(drew)))
    return JointVolumes(box, spec, seed_label, streams, tol, sampler, passes)


def upsilon_box(kappa: float, eps_tail: float = DEFAULT_EPS_TAIL, *,
                domain: DomainTag | tuple = DomainTag.CLASSICAL) -> Box:
    """Support box for the adjugate-damped integrand, fitted by quadrature.

    Boxes are a, b in (0, L], |c|, |d| <= L.  ``domain`` is one tag or a
    tuple of tags, and every one of them is checked.  With
    L0 = max(4, 4 sqrt(kappa)), the sides L0 / sqrt(2), L0, 2 L0 / sqrt(2)
    and 2 L0 are tried in this order, and the first at which every checked
    domain's tail, its mass outside the box, is at most ``eps_tail`` times
    its mass inside is returned.

    When none passes, the box of side 2 L0 is returned with a RuntimeWarning
    that names, for each checked domain that fails there, the share of its
    mass left outside the box.  The box stops at 2 L0 because each doubling
    spreads the a, b draws over 4 times the area (c and d are drawn inside
    the class, which the box holds whole), and past one doubling the
    estimate's error at practical sample counts outweighs the tail it would
    save.

    Both masses come from ``_quad``'s Gauss-Legendre rule of order
    ``_BOX_ORDER`` on each axis.  The tail is integrated directly over
    max(a, b) > L, which is the whole outside of the box because
    |c|, |d| < sqrt(ab) <= max(a, b), and the mass inside is the whole
    volume minus the tail.  No samples are drawn, so the box depends only on
    kappa, ``eps_tail`` and the domains.
    """
    if not (kappa > 0.0):
        raise InvalidArgumentError("kappa must be positive")
    _check_eps_tail(eps_tail)
    domains = domain if isinstance(domain, tuple) else (domain,)
    _draws(domains)  # checks the tags
    spec = RegularizerSpec.adjugate(kappa)
    total = _quad.quad_volumes(spec, _BOX_ORDER, domains)
    L0 = max(4.0, 4.0 * math.sqrt(kappa))
    # a domain that passes at one side passes at every larger one, so only
    # the domains still failing are integrated at the next side
    failed = domains
    for side in (L0 / math.sqrt(2.0), L0, 2.0 * L0 / math.sqrt(2.0), 2.0 * L0):
        tail = _quad.tail_masses(spec, failed, side, _BOX_ORDER)
        failed = tuple(t for t in failed if not tail[t] <= eps_tail * (total[t] - tail[t]))
        if not failed:
            return _sym_box(side)
    shares = ", ".join(f"{t.value} {tail[t] / (total[t] - tail[t]):.3g}" for t in failed)
    warnings.warn(f"support box capped at L={side:g} (kappa={kappa:g}): outside the capped "
                  f"box lies {shares} of the mass inside (eps_tail={eps_tail:g})",
                  RuntimeWarning, stacklevel=2)
    return _sym_box(side)


@dataclass(frozen=True)
class IntegrationRequest:
    """Inputs of one volume estimate; every field has a deterministic effect.

    The fields are checked here, so that ``mc_volume`` and ``sweep`` take
    only valid requests; ``eps_tail`` only where it fits a box, that is for
    the damping.
    """

    domain: DomainTag
    regularizer: RegularizerSpec
    n_samples: int
    seed: int
    streams: int = 1
    tol: float = DEFAULT_TOL
    eps_tail: float = DEFAULT_EPS_TAIL
    sampler: str = "pseudo"

    def __post_init__(self):
        if not isinstance(self.domain, DomainTag):
            raise InvalidArgumentError("domain must be a DomainTag")
        _check_pass(self.n_samples, self.streams, self.tol, self.sampler, min_samples=10_000)
        _check_seed(self.seed)
        if self.regularizer.m != 4:
            raise InvalidArgumentError(
                "volume integrals use the 4-parameter chart; regularizer m must be 4")
        if self.regularizer.kind is RegKind.ADJUGATE_UPSILON:
            _check_eps_tail(self.eps_tail)


def _default_box(spec: RegularizerSpec, domains: tuple, eps_tail: float, tol: float) -> Box:
    """The support box of ``domains`` under ``spec``, fitted to the quantum classes.

    The box is ``upsilon_box`` fitted to each of ``domains`` for the damping,
    with a, b sides (0, L], and ``phi_box`` for the energy cutoff.  When the
    classical domain is not among them, the a and b sides become [q, top]
    with q = 1 - tol: every quantum point has min(a, b) >= q
    (``_ab_quantum``), and top is L, or E/2 - q, since a + b <= E/2.  When
    top <= q the quantum classes have no volume in the box, and it is kept
    as it is.  Every box returned holds the slice |c|, |d| < sqrt(ab) of
    each point in its support (``_check_box``).
    """
    q = _floor(DomainTag.QUANTUM, tol)
    if spec.kind is RegKind.ADJUGATE_UPSILON:
        box = upsilon_box(spec.kappa, eps_tail, domain=domains)
        top = box.hi[0]
    else:
        box = phi_box(spec.bound_E)
        top = box.hi[0] - q
    if DomainTag.CLASSICAL in _draws(domains) or top <= q:
        return box
    return Box((q, q, *box.lo[2:]), (top, top, *box.hi[2:]))


def mc_volume(req: IntegrationRequest) -> IntegrationResult:
    """Monte Carlo volume of one domain under the requested regularizer.

    One pass over ``_default_box`` draws inside the domain's class: a
    quantum, separable or entangled run draws a and b from q = 1 - tol,
    where that leaves the box any volume; a classical run keeps ``phi_box``
    or ``upsilon_box``, and gives the bits of the classical column of
    ``mc_joint_volumes`` over that box scoring all four.  Bit-identical for
    a fixed (seed, streams, n_samples) request.
    """
    box = _default_box(req.regularizer, (req.domain,), req.eps_tail, req.tol)
    jv = mc_joint_volumes(box, req.regularizer, req.n_samples, req.seed, req.streams,
                          req.tol, req.sampler, domains=(req.domain,))
    return jv.result(req.domain)


@dataclass
class SweepRow:
    """Volumes, ratios, and any per-row failure for one parameter value."""

    value: float
    results: dict
    ratios: dict
    error: str | None = None


@dataclass
class SweepTable:
    param_name: str
    rows: list
    n_samples: int
    seed: int


def _sweep_specs(param: str, values, template: IntegrationRequest) -> list:
    """(value, regularizer) of each row of a sweep, after checking the sweep's arguments."""
    if param not in ("E", "kappa"):
        raise InvalidArgumentError('param must be "E" or "kappa"')
    vals = [float(v) for v in values]
    if len(vals) == 0:
        raise InvalidArgumentError("values must be non-empty")
    if any(not math.isfinite(v) for v in vals):
        raise InvalidArgumentError("values must be finite")
    if any(v2 <= v1 for v1, v2 in zip(vals, vals[1:])):
        raise InvalidArgumentError("values must be strictly ascending")
    kind = template.regularizer.kind
    if param == "E" and kind is not RegKind.ENERGY_PHI:
        raise InvalidArgumentError("an E sweep needs an energy-kind template regularizer")
    if param == "kappa" and kind is not RegKind.ADJUGATE_UPSILON:
        raise InvalidArgumentError("a kappa sweep needs an adjugate-kind template regularizer")
    build = RegularizerSpec.energy if param == "E" else RegularizerSpec.adjugate
    return [(v, build(v, template.regularizer.m)) for v in vals]


def sweep(param: str, values, template: IntegrationRequest) -> SweepTable:
    """Volumes of all four domains across a parameter sweep.

    ``param`` is "E" (energy regularizer) or "kappa" (adjugate regularizer);
    each row re-derives its support box, fitted to all four domains it
    reports (``template.domain`` does not enter), and gets its own
    deterministic substream of the template seed.  A row is three passes
    of ``template.n_samples`` over that box (``mc_joint_volumes``), inside
    the classical, separable and entangled classes; its quantum column is
    separable plus entangled, and the ratios to classical have independent
    numerator and denominator.  Rows that fail numerically are recorded and
    the sweep continues.
    """
    rows = []
    for i, (v, spec) in enumerate(_sweep_specs(param, values, template)):
        try:
            box = _default_box(spec, DOMAIN_ORDER, template.eps_tail, template.tol)
            row_ss = np.random.SeedSequence([int(template.seed), i])
            jv = mc_joint_volumes(box, spec, template.n_samples, row_ss, template.streams,
                                  template.tol, template.sampler, seed_label=template.seed)
            results = {tag: jv.result(tag) for tag in DOMAIN_ORDER}
            ratios = {
                "qc": jv.ratio(DomainTag.QUANTUM),
                "sc": jv.ratio(DomainTag.SEPARABLE),
                "ec": jv.ratio(DomainTag.ENTANGLED),
            }
            rows.append(SweepRow(value=v, results=results, ratios=ratios))
        except NumericError as exc:
            rows.append(SweepRow(value=v, results={}, ratios={}, error=str(exc)))
    return SweepTable(param_name=param, rows=rows, n_samples=template.n_samples,
                      seed=template.seed)
