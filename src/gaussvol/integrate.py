"""Seeded Monte Carlo estimates of regularized Fisher-Rao volumes.

The integrand over the standard-form chart (a, b, c, d) is

    1_domain(p) * weight(V(p)) * sqrt(det g(p)),

integrated over an axis-aligned box that contains the support of the
weighted domain: ``phi_box`` for the energy cutoff and ``upsilon_box`` for
the damping, fitted by ``_default_box`` when only the quantum classes are
scored, with a and b sides from 1 - tol.  Every pass takes tol < 1
(``twomode._check_tol``).  Every sample draws a and b uniformly over the
box's a, b sides, and only those that pass the a, b half of the domain test
and, for the energy cutoff, tr V <= E draw c and d.  How they do depends on
the scored labels and the box.

A pass that scores no classical-only label, over a box that holds the slice
|c|, |d| < sqrt(ab) of every point in its support (every box
``_default_box`` fits), draws inside the scored class and needs no labels
(``_draws_in_class``).  c is uniform on [0, c-end] of the class at (a, b)
and d uniform on its d-interval at (a, b, c), both from
``twomode._class_limits`` at mu = (1 - tol)^2, the limits ``_quad``
integrates over; a, b must pass min(a, b) >= 1 - tol.  Each weight is
multiplied by the two interval lengths over the box's c and d spans, and
by 2 for the mirror image c < 0 of what is drawn.  So an estimate is still
box.volume times the mean weight, and its integrand over the unit cube is
smooth rather than an indicator with a curved edge, which keeps the
convergence rate of qmc (Owen, Ann. Stat. 1997; He and Wang, SIAM J.
Numer. Anal. 2015).  A quantum pass reports its separable and entangled
parts too: a quantum point with c >= 0 is entangled where d < -d2, the
mirror image of the d-interval's lower end under partial transposition.
The weight is fused with the interval arithmetic (``_class_weight``).

Any other pass, one scoring classical (every ``sweep`` row) or over a box
that cuts the slice, draws c and d uniformly on the classical slice
|c|, |d| < sqrt(ab) + tol, each clipped to its box side, so that no draw
falls outside the classical domain, and labels them.  Each weight is
multiplied by the lengths of its two slices over the box's c and d spans,
so an estimate is again box.volume times the mean weight, an unbiased
estimate of the integral over the box's classical part.
The slice's half-width is ``twomode._half_width``, which ``domain_labels``
shares; a, b must pass min(a, b) > -tol (skipped when the box's lower a, b
bounds already exceed -tol), and points whose slice is empty are dropped.
One labelling pass, Simon's test on the smallest symplectic eigenvalue of V
and of its partial transpose, gives each point the innermost domain holding
it (classical only, separable or entangled), and only points with a scored
label are weighted, with the closed-form sqrt(det g).  Weighted sums and
hits are kept per label and every domain is a fixed set of labels, so
nested domains are ordered exactly.  The draws of such a pass do not depend
on the scored domains, so a labelled pass scoring one domain gives it the
bits of a pass over the same box scoring all four.

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

Determinism: the sample budget is split by index into ``streams`` substreams
seeded from the children of the seed's SeedSequence, and partial sums are
combined by a fixed-order pairwise reduction; results are bit-identical for
a fixed (seed, streams, n_samples).  A stream works in tiles of ``_TILE``
points and keeps each tile's sums, added up in tile order.  Stage 1 and a
labelled pass's weights allocate their arrays, at no measured cost.  Two
flat buffers, filled in turn by each stage's gather, hold stage 2's float
rows (allocating them raised the energy workload's peak RSS by 3.4 MB), the
labeller's scratch (1 MB and 2-4% of cpu) and an in-class pass's weights
and block scratch.  An in-class pass runs its interval arithmetic and
weights in blocks of at most ``_BLOCK`` points, so that its scratch fits
beside the weights in the part of a buffer the labels would use, and sums
each tile's weights at once, so the blocks change no bit.  Drawing c and d
for stage-1 survivors only saved the pseudo energy workload 10% of its time
and 2 MB; for qmc it costs what drawing all four coordinates at stage 1
does, and keeps one draw path for both samplers.  A labelled tile's scored
points are weighted in one call and summed per label by ``bincount``.  A
pseudo stream is one replicate, consumed per tile as a(t) and b(t), then
the uniforms of c(k) and d(k) for the k stage-1 survivors.  A qmc stream
is two replicates: independent random linear scrambles of the 4-d Sobol'
sequence (``_sobol``), drawn from the stream's generator in turn, over the
first ceil(count / 2) and floor(count / 2) points of their sequences.  Its
tiles are aligned blocks of 2^16 points: stage 1 draws a tile's 1st and
2nd coordinates, a and b, and stage 2 gathers the 3rd and 4th, the uniforms
of c and d, for the stage-1 survivors only.  So ``_TILE`` alone fixes the
bits, for pseudo and qmc alike.  The substreams of a pass run on
min(streams, usable cores) threads: the caller runs one share and starts
the others for that pass alone, and the partial sums are reduced in stream
order, so the core count sets the speed but never the bits.
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
# the kernel looks regularizer_values up here, where perfbench/tracing.py wraps it
from .regularizers import (RegKind, RegularizerSpec, _in_energy_support, _is_int,
                           regularizer_values)
from .twomode import (DEFAULT_TOL, DOMAIN_LABELS, DomainTag, volume_density, _ab_above,
                      _ab_quantum, _check_tol, _class_limits, _classical_labels, _half_width)
# unused here, but perfbench/tracing.py wraps these two attributes of this module
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

# _TILE is the working set of a stream and fixes its bits: the pseudo
# stream's layout and the summation order of every sum.  A qmc tile is the
# aligned block of 2^16 points that ``_sobol.Scramble.tile`` draws
_TILE = 1 << 16
# the most points in a block of an in-class pass's stage 2, and the
# scratch rows of a block (see _stream_partial)
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


def _take(keep, cols, buf, rows=4):
    """The first ``rows`` rows of ``cols`` at the columns where ``keep``, in draw order.

    They fill the leading rows of a (4, n) view of the flat scratch ``buf``,
    which is returned with the kept indices; when ``keep`` drops nothing,
    ``cols`` itself and None are returned and nothing is copied.
    """
    n = int(np.count_nonzero(keep))
    if n == keep.size:
        return cols, None
    idx = np.flatnonzero(keep)
    out = buf[:4 * n].reshape(4, n)
    # idx is in range; "clip" skips the copy of out that "raise" makes
    np.take(cols[:rows], idx, axis=1, out=out[:rows], mode="clip")
    return out, idx


def _slice(h, lo, hi, out=(None, None)):
    """Start and length of the slice (-h, h) clipped to the box side (lo, hi], elementwise.

    ``out`` is two float arrays of h's shape, allocated when omitted; the
    length is <= 0 where the clipped slice is empty.
    """
    start, length = out
    start = np.negative(h, out=start)
    np.maximum(start, lo, out=start)
    length = np.minimum(h, hi, out=length)
    length -= start
    return start, length


class _PseudoUniforms:
    """A pseudo stream's uniforms: each tile's a(t) and b(t), then c(k) and d(k) of its survivors.

    ``tile`` and ``gather`` take the arguments of ``_sobol.Scramble``'s, and
    draw the next uniforms of the stream whatever the tile or offsets.
    """

    def __init__(self, rng: np.random.Generator):
        self._rng = rng

    def tile(self, start, out, dims):
        self._rng.random(out=out)

    def gather(self, start, index, out, dims, scratch):
        self._rng.random(out=out)


def _replicates(child_ss, count: int, sampler: str) -> tuple:
    """A stream's replicate counts and the uniforms of each.

    A pseudo stream is one replicate of ``count`` iid points.  A qmc stream
    is two independent scrambles of the Sobol' sequence, drawn from the
    stream's generator in turn, over the first ceil(count / 2) and
    floor(count / 2) of their points.
    """
    rng = np.random.default_rng(child_ss)
    if sampler == "pseudo":
        return [count], [_PseudoUniforms(rng)]
    counts = _partition(count, 2)
    return counts, [_sobol.Scramble(rng) for _ in counts]


_AB, _CD = slice(0, 2), slice(2, 4)


def _draws_in_class(box: Box, spec: RegularizerSpec, labels: tuple) -> bool:
    """Whether a pass over ``box`` scoring ``labels`` draws c and d inside the scored class.

    It does when it scores no classical-only label and the box holds the
    class of every point in its support.  A quantum class lies within the
    classical slice |c|, |d| < sqrt(ab), and sqrt(ab) <= r = sqrt(hi_a hi_b)
    in the box, or r = E/4 inside tr V <= E, so a box whose c and d sides
    hold [-r, r] holds each class whole.  The pass draws c >= 0 and counts
    the c < 0 half as its mirror image under (c, d) -> (-c, -d); any other
    pass labels.
    """
    r = math.sqrt(max(box.hi[0] * box.hi[1], 0.0))
    if spec.kind is RegKind.ENERGY_PHI:
        r = min(r, spec.bound_E / 4.0)
    (_, _, lo_c, lo_d), (_, _, hi_c, hi_d) = box.lo, box.hi
    return 1 not in labels and min(hi_c, hi_d) >= r and max(lo_c, lo_d) <= -r


def _class_weight(a, b, pc, d, spec: RegularizerSpec, big: bool, out, scratch):
    """2 volume_density * regularizer_values at points of the quantum classes, elementwise.

    Takes pc = ab - c^2 from ``twomode._class_limits`` and writes the weight
    to ``out``; ``scratch`` is three float arrays of a's length.  With
    pd = ab - d^2, q = pc + pd and p = pc pd = det V, twice the density is
    sqrt((2ab + c^2 + d^2) q / p) / p with 2ab + c^2 + d^2 = 4ab - q, the
    regularizer is log(1 + p^m) and the damping exp(-(a + b) q / kappa), at
    most 1.  Points outside the energy cutoff were dropped before.  p^m
    overflows only where ``big``, and there log(1 + p^m) is m log p, as in
    ``log1p_det_pow``.
    """
    t0, t1, t2 = scratch
    ab = np.multiply(a, b, out=t0)
    pd = np.subtract(ab, np.multiply(d, d, out=t1), out=t1)
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
    return w


def _stream_partial(child_ss, count: int, box: Box, spec: RegularizerSpec, tol: float,
                    sampler: str, labels: tuple):
    lo = np.asarray(box.lo)[:, None]
    span = np.asarray(box.hi)[:, None] - lo
    # a weight is scaled by the lengths of the c and d intervals it was drawn
    # on, over the box's c and d spans
    per_cd = 1.0 / (span[2, 0] * span[3, 0])
    counts, sources = _replicates(child_ss, count, sampler)
    # each replicate's tiles in turn: (replicate, index of the tile's first point, points)
    chunks = [(r, done, min(_TILE, c - done))
              for r, c in enumerate(counts) for done in range(0, c, _TILE)]
    tile = min(_TILE, max(counts))
    in_class_pass = _draws_in_class(box, spec, labels)
    # a tile's points live in one of two flat buffers; each stage works in the
    # other one and then gathers its survivors into it.  Every buffer stays
    # below the 4 MiB from which numpy asks for huge pages, which a few
    # touched bytes would make resident in full.  An in-class pass keeps a
    # tile's n weights and then the scratch rows of its blocks of at most
    # n / 2 points in the other one, so that it touches no more of it than
    # the labels do; the pad holds the rows of a tile of one point
    bufs = (np.empty(4 * tile + _CLASS_ROWS), np.empty(4 * tile + _CLASS_ROWS))
    other = lambda pts: bufs[np.may_share_memory(pts, bufs[0])]
    energy = spec.kind is RegKind.ENERGY_PHI
    if in_class_pass:
        mu = (1.0 - tol) ** 2
        # p = det V <= (ab)^2, whose m-th power overflows only in huge boxes
        big = 2 * spec.m * math.log(max(box.hi[0] * box.hi[1], 1.0)) > 700.0
        # the class drawn; a quantum pass splits its points at d = -d2
        tag = {(2,): DomainTag.SEPARABLE, (3,): DomainTag.ENTANGLED}.get(labels, DomainTag.QUANTUM)
        split = np.empty(tile, dtype=bool) if tag is DomainTag.QUANTUM else None
        # the a, b half of the quantum test, where the box reaches below it
        ab_test = min(box.lo[:2]) < 1.0 - tol
    else:
        # the labels of a tile's stage-2 survivors
        lab_buf = np.empty(tile, dtype=np.uint8)
        b_buf = np.empty((3, tile), dtype=bool)
        scored = np.isin(np.arange(4), labels)  # scored[l]: label l is weighted and counted
        # a and b are drawn at or above their lower bounds, so above -tol when those are
        ab_test = not min(box.lo[:2]) > -tol
    # each tile's sums, one row per tile, added up in tile order at the end
    s1 = np.zeros((max(len(chunks), 1), 4))
    s2 = np.zeros_like(s1)
    hits = np.zeros(s1.shape, dtype=np.int64)

    def non_finite(w, pts):
        if not np.isfinite(w).all():
            i = int(np.argmin(np.isfinite(w)))
            bad = tuple(float(x[i]) for x in pts)
            raise NumericError(f"non-finite integrand weight at (a, b, c, d) = {bad}")

    def in_class(pts, j):
        """Tile j's stage 2 in the class: c uniform on [0, c-end], d on the d-interval at c.

        In blocks whose scratch rows follow the weights in the idle buffer.
        """
        n = pts.shape[1]
        block = max(1, min(_BLOCK, n // 2))
        w_row = other(pts)[:n]
        rows = other(pts)[n:n + _CLASS_ROWS * block].reshape(_CLASS_ROWS, block)
        for k in range(0, n, block):
            a, b, c, d = pts[:, k:k + block]
            f = rows[:, :a.size]
            end, start, length, pc, _ = _class_limits(tag, a, b, c, mu, draw=True, scratch=f)
            d *= length
            d += start
            if split is not None:
                # entangled where d < -d2 = -(start + length)
                start += length
                start += d
                np.less(start, 0.0, out=split[k:k + a.size])
            w = _class_weight(a, b, pc, d, spec, big, w_row[k:k + block], (f[1], f[4], f[5]))
            w *= length
            w *= end
        # per label: its points' weights, or those of either side of the split;
        # the factor 2 of _class_weight counts each point's mirror image c < 0
        parts = [(labels[0], True)] if split is None else [(2, ~split[:n]), (3, split[:n])]
        for label, where in parts:
            s1[j, label] = np.sum(w_row, where=where) * per_cd
            hits[j, label] = n if where is True else np.count_nonzero(where)
        # a non-finite weight makes its sum non-finite
        if not np.isfinite(s1[j]).all():
            non_finite(w_row, pts)
        sq = np.square(w_row, out=pts[2])
        for label, where in parts:
            s2[j, label] = np.sum(sq, where=where) * (per_cd * per_cd)

    def labelled(pts, j):
        """Tile j's stages 2 and 3 on the classical slice: labels, then the scored points' weights.

        c and d are uniform on the slice |c|, |d| < sqrt(ab) + tol clipped to
        the box; each point whose slice is not empty is labelled, and those
        with a scored label are weighted.
        """
        n = pts.shape[1]
        a, b, c, d = pts
        keep, inside = b_buf[:2, :n]
        h, start, length = other(pts)[:3 * n].reshape(3, n)
        _half_width(a, b, tol, out=h)
        _slice(h, box.lo[2], box.hi[2], out=(start, length))
        np.greater(length, 0.0, out=keep)
        c *= length
        c += start
        _slice(h, box.lo[3], box.hi[3], out=(start, length))
        keep &= np.greater(length, 0.0, out=inside)
        d *= length
        d += start
        pts = _take(keep, pts, other(pts))[0]
        n = pts.shape[1]
        lab = _classical_labels(*pts, tol, out=lab_buf[:n],
                                scratch=(*other(pts)[:4 * n].reshape(4, n), *b_buf[:, :n]))
        pts, idx = _take(np.take(scored, lab, out=b_buf[0, :n], mode="clip"), pts, other(pts))
        if idx is not None:
            lab = lab[idx]
        if pts.shape[1] == 0:
            return
        a, b, c, d = pts
        w = volume_density(a, b, c, d) * regularizer_values(a, b, c, d, spec)
        # times the lengths of the slices c and d were drawn on, over the box's spans
        h = _half_width(a, b, tol)
        f = _slice(h, box.lo[2], box.hi[2])[1]
        f *= _slice(h, box.lo[3], box.hi[3])[1]
        f *= per_cd
        w *= f
        non_finite(w, pts)
        s1[j] = np.bincount(lab, weights=w, minlength=4)
        s2[j] = np.bincount(lab, weights=w * w, minlength=4)
        hits[j] = np.bincount(lab, minlength=4)

    for j, (r, done, t) in enumerate(chunks):
        # stage 1, every sample: a and b, the a, b half of the domain's test
        # and the energy cutoff
        pts = bufs[0][:4 * t].reshape(4, t)
        sources[r].tile(done, pts[_AB], _AB)
        pts[_AB] *= span[_AB]
        pts[_AB] += lo[_AB]
        a, b = pts[_AB]
        keep = None
        if ab_test:
            keep = _ab_quantum(a, b, tol) if in_class_pass else _ab_above(a, b, -tol)
        if energy:
            # a point outside the cutoff would add only +0.0 to s1 and s2
            inside = _in_energy_support(a, b, spec.bound_E)
            keep = inside if keep is None else keep & inside
        idx = None
        if keep is not None:
            pts, idx = _take(keep, pts, bufs[1], rows=2)
        # stage 2, the survivors: the uniforms of c and d, which every survivor
        # draws.  The gather's index array is not kept: held to the next
        # tile's gather, it would double that gather's memory
        n = pts.shape[1]
        sources[r].gather(done, idx, pts[_CD], _CD, other(pts)[:3 * n].view(np.intp))
        (in_class if in_class_pass else labelled)(pts, j)
    # each replicate's sums: its tiles' sums in tile order, each added to the
    # sum of those before it
    sums, j = [], 0
    for c in counts:
        k = -(-c // _TILE)
        sums.append([np.add.accumulate(x[j:j + k], axis=0)[-1] if k else np.zeros_like(x[0])
                     for x in (s1, s2, hits)])
        j += k
    return np.array(counts, dtype=np.int64), *(np.array(x) for x in zip(*sums))


@dataclass(frozen=True)
class IntegrationResult:
    """One domain's volume estimate with its sampling error.

    ``std_error`` is the iid formula's for the pseudo sampler.  For qmc it
    is the spread of the 2 * ``streams`` replicate means, with
    2 * streams - 1 degrees of freedom, so estimate +- t(0.975,
    2 * streams - 1) * std_error is its 95% interval (2.36 std_errors at 4
    streams, 12.7 at one).

    ``acceptance_fraction`` is the share of the ``n_samples`` draws that lie
    in the domain and inside the regularizer's support (tr V <= E for the
    energy cutoff; the adjugate damping has unbounded support), that is the
    share that carries weight; ``empty_domain`` is true when none does.
    c and d are not drawn across the box, so this is a share of draws, not
    of the box's volume.  A quantum-class pass over its fitted box draws
    them inside the class, so every draw whose a and b pass counts: all of
    them under the damping, and the half inside tr V <= E under the energy
    cutoff (0.500 for E = 8 separable and 1.0 for kappa = 5 entangled,
    against 0.094 and 0.134 with the slice draw).  A labelled pass draws
    them on the classical slice, which holds nearly every draw under the
    damping and every draw inside tr V <= E under the energy cutoff.
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
    """The scored domain volumes from one sampling pass, with cross-covariances.

    Because every domain is evaluated on the same weighted samples, nested
    domains are ordered exactly, differences of estimates carry honest errors,
    and delta-method ratio errors include the correlation with the denominator.
    Every weight carries the lengths of the intervals its c and d were drawn
    on (see the module docstring), so each estimate is box.volume times a
    mean over all ``n_samples``, and its error box.volume times that
    mean's.  The sums are kept per replicate, in stream order: one
    per stream for pseudo, whose variances and covariances come from the
    pooled sums by the iid formulas, and two per stream for qmc, whose come
    from the R = 2 * streams replicate means (their sample covariance over
    R; see the module docstring).
    The per-label hits count the draws in the domain and inside the
    regularizer's support; c and d are drawn on the classical slice, or
    inside the scored class, so a share of hits is a share of draws, not of
    the box's volume.  Only the
    labels in ``labels`` were weighted and counted; ``result``,
    ``difference`` and ``ratio`` accept every domain made up of them and
    raise ``InvalidArgumentError`` for any other.  They raise
    ``NumericError`` for a domain with hits but a weight sum or squared-weight
    sum of 0, whose weights underflowed.
    """

    def __init__(self, box: Box, spec: RegularizerSpec, counts: np.ndarray, seed_label,
                 streams: int, tol: float, sampler: str, s1: np.ndarray, s2: np.ndarray,
                 hits: np.ndarray, labels: tuple):
        self.box = box
        self.regularizer = spec
        self.n_samples = int(counts.sum())
        self.seed = seed_label
        self.streams = streams
        self.tol = tol
        self.sampler = sampler
        # one row per replicate, in stream order: a stream's for pseudo, a scramble's for qmc
        self._counts = counts
        self._replicate_s1 = s1
        # the pooled sums, added up pairwise over the rows
        self._s1, self._s2, self._hits = (_pairwise_reduce(list(x), lambda u, v: u + v)
                                          for x in (s1, s2, hits))
        self.labels = labels

    def _mean(self, tag: DomainTag) -> float:
        # every reader of a domain goes through here
        labels = DOMAIN_LABELS[tag]
        if not set(labels) <= set(self.labels):
            raise InvalidArgumentError(f"the {tag.value} domain was not scored in this pass")
        s1 = sum(float(self._s1[l]) for l in labels)
        # weights are positive, so hits with a zero sum mean that the weights
        # underflowed, and the estimate or its error bar would read 0; one label
        # may underflow where the domain's other labels carry its sums
        hits, s2 = sum(int(self._hits[l]) for l in labels), sum(float(self._s2[l]) for l in labels)
        if hits and not (s1 and s2):
            raise NumericError(f"integrand weights of the {tag.value} domain underflow: {hits} "
                               f"hits, weight sum {s1:.3g}, squared-weight sum {s2:.3g}")
        return s1 / self.n_samples

    def _replicate_means(self, tag: DomainTag) -> np.ndarray:
        self._mean(tag)
        return self._replicate_s1[:, list(DOMAIN_LABELS[tag])].sum(axis=1) / self._counts

    def _mean_cov(self, tag_a: DomainTag, tag_b: DomainTag) -> float:
        """Covariance of the two domains' sample means.

        For qmc, from the spread of the R replicates' means, each an
        independent estimate: their sample covariance over R.  For pseudo,
        from the labels the domains share, as the iid formula has it.
        """
        if self.sampler == "qmc":
            x, y = self._replicate_means(tag_a), self._replicate_means(tag_b)
            r = x.size
            return float(np.dot(x - x.mean(), y - y.mean())) / (r * (r - 1.0))
        n = self.n_samples
        if n < 2:
            return 0.0
        shared = [l for l in DOMAIN_LABELS[tag_a] if l in DOMAIN_LABELS[tag_b]]
        cross = sum(float(self._s2[l]) for l in shared) / n
        return (cross - self._mean(tag_a) * self._mean(tag_b)) * (n / (n - 1.0)) / n

    def _mean_var(self, tag: DomainTag) -> float:
        return max(self._mean_cov(tag, tag), 0.0)

    def result(self, tag: DomainTag) -> IntegrationResult:
        vol = self.box.volume
        hits = sum(int(self._hits[l]) for l in DOMAIN_LABELS[tag])
        return IntegrationResult(
            estimate=vol * self._mean(tag),
            std_error=vol * math.sqrt(self._mean_var(tag)),
            n_samples=self.n_samples,
            seed=self.seed,
            streams=self.streams,
            box=self.box,
            acceptance_fraction=hits / self.n_samples,
            domain=tag,
            regularizer=self.regularizer,
            sampler=self.sampler,
            empty_domain=hits == 0,
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


def _labels_of(domains) -> tuple:
    """The sorted labels of ``domain_labels`` that make up the given domains."""
    try:
        labels = {l for tag in domains for l in DOMAIN_LABELS[tag]}
    except (KeyError, TypeError):
        raise InvalidArgumentError("domains must be a collection of DomainTags") from None
    if not labels:
        raise InvalidArgumentError("domains must be non-empty")
    return tuple(sorted(labels))


def _run_shares(run, tasks: list, threads: int) -> list:
    """``run(task)`` of every task, in task order, on ``threads`` threads.

    The caller is one of them and starts the other threads - 1 (none for one
    thread); each takes the next task no thread has taken until none is
    left or a task has raised.  Once every thread is done, the first task
    in task order that raised raises again.
    """
    results = [None] * len(tasks)
    failures = {}  # task index: the exception it raised
    untaken = iter(range(len(tasks)))
    lock = threading.Lock()

    def share():
        while True:
            with lock:
                # every task before a failed one is taken, so no task left
                # can be the first to fail in task order
                i = None if failures else next(untaken, None)
            if i is None:
                return
            try:
                results[i] = run(tasks[i])
            except Exception as exc:
                with lock:
                    failures[i] = exc

    others = [threading.Thread(target=share) for _ in range(threads - 1)]
    for t in others:
        t.start()
    share()
    for t in others:
        t.join()
    if failures:
        raise failures[min(failures)]
    return results


def mc_joint_volumes(box: Box, spec: RegularizerSpec, n_samples: int, seed, streams: int = 1,
                     tol: float = DEFAULT_TOL, sampler: str = "pseudo",
                     seed_label: int | None = None, *, domains=DOMAIN_ORDER) -> JointVolumes:
    """One sampling pass over ``box`` scoring ``domains`` (all four by default).

    a and b are uniform over the box's a, b sides.  When ``domains`` hold no
    classical-only point and the box holds the slice |c|, |d| < sqrt(ab) of
    its support, c and d are uniform on the scored class's intervals, and
    no point is labelled; otherwise they are uniform on the classical slice
    |c|, |d| < sqrt(ab) + tol clipped to the box, and labelled.  Each weight
    is scaled by its intervals' lengths over the box's c and d spans, so
    either pass estimates the integrals over the box that uniform sampling
    estimates.

    ``seed`` may be an integer or a SeedSequence, which is not modified;
    ``seed_label`` is what gets reported in results when the seed is not a
    plain integer.  ``streams`` is the number of substreams and part of the
    determinism key; they run on min(streams, usable cores) threads, the
    caller's among them.  ``sampler`` is "pseudo" (iid draws) or "qmc"
    (two scrambled Sobol' replicates per stream, so it needs
    n_samples >= 2 * streams).  Only points in ``domains`` are weighted, so a
    non-finite weight outside them does not raise.  A labelled pass gives
    each scored domain the bits that a pass scoring all four gives it; an
    in-class pass draws other points (see ``JointVolumes`` for what can be
    read).
    """
    _check_pass(n_samples, streams, tol, sampler)
    labels = _labels_of(domains)
    if isinstance(seed, np.random.SeedSequence):
        ss = seed
    else:
        _check_seed(seed)
        ss = np.random.SeedSequence(seed)
        if seed_label is None:
            seed_label = int(seed)
    tasks = list(zip(_children(ss, streams), _partition(n_samples, streams)))

    def run(task):
        child, count = task
        # a non-finite weight raises NumericError, which names the point;
        # numpy's overflow warnings on the way there would only name its internals
        with np.errstate(over="ignore", invalid="ignore"):
            return _stream_partial(child, count, box, spec, tol, sampler, labels)

    partials = _run_shares(run, tasks, min(streams, _usable_cores()))
    counts, s1, s2, hits = (np.concatenate(x) for x in zip(*partials))
    return JointVolumes(box, spec, counts, seed_label, streams, tol, sampler, s1, s2, hits, labels)


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
    the class, or on the classical slice in a labelled pass, which the box
    holds whole), and past one doubling the
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
    _labels_of(domains)  # checks the tags
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
    with a, b sides (0, L], and ``phi_box`` for the energy cutoff.  When no
    domain holds label 1 (classical only), the a and b sides become [q, top]
    with q = 1 - tol: every quantum point has min(a, b) >= q
    (``_ab_quantum``), and top is L, or E/2 - q, since a + b <= E/2.  When
    top <= q the quantum classes have no volume in the box, and it is kept
    as it is.  Every box returned holds the slice |c|, |d| < sqrt(ab) of
    each point in its support, so a pass over it that scores only quantum
    classes draws inside them (``_draws_in_class``).
    """
    q = 1.0 - tol
    if spec.kind is RegKind.ADJUGATE_UPSILON:
        box = upsilon_box(spec.kappa, eps_tail, domain=domains)
        top = box.hi[0]
    else:
        box = phi_box(spec.bound_E)
        top = box.hi[0] - q
    if 1 in _labels_of(domains) or top <= q:
        return box
    return Box((q, q, *box.lo[2:]), (top, top, *box.hi[2:]))


def mc_volume(req: IntegrationRequest) -> IntegrationResult:
    """Monte Carlo volume of one domain under the requested regularizer.

    The pass runs over ``_default_box``: a quantum, separable or entangled
    run draws a and b from q = 1 - tol, where that leaves the box any
    volume, and c and d inside its class; a classical run keeps ``phi_box``
    or ``upsilon_box`` and labels its slice draws, with the bits of the same
    domain's result from a pass over that box scoring all four.  Bit-identical for a fixed (seed, streams, n_samples) request.
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
    deterministic substream of the template seed.  Rows that fail
    numerically are recorded and the sweep continues.
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
