"""Seeded Monte Carlo estimates of regularized Fisher-Rao volumes.

The integrand over the standard-form chart (a, b, c, d) is

    1_domain(p) * weight(V(p)) * sqrt(det g(p)),

integrated over an axis-aligned box that contains the support of the
weighted domain.  a and b are drawn uniformly over the box's a, b sides; c
and d are drawn uniformly on the classical slice |c|, |d| < sqrt(ab) + tol,
each clipped to its box side, so that no draw falls outside the classical
domain.  Each weight is multiplied by the lengths of its two slices over the
box's c and d spans, so an estimate is still box.volume times the mean
weight, an unbiased estimate of the integral over the box's classical
part, and its iid error bar stays honest.  A pass scores
a set of domains in three stages per tile of draws.  Every sample draws a
and b and must pass min(a, b) > -tol (a test skipped when the box's lower
a, b bounds already exceed -tol) and, for the energy cutoff, tr V <= E.
Only the survivors draw c and d.  Only points that can carry a scored label
are labelled: points with min(a, b) <= 1 - tol have the classical-only
label, and are dropped when that label is not scored and given it without
a labelling pass when it is; points whose slice is empty are dropped; and
when separable or entangled
alone is scored, a necessary test on Simon's invariant drops the points
that cannot be, after a cheaper bound on cd for entangled.  One
labelling pass then gives each point left the
innermost domain holding it (classical only, separable or entangled), and
only points with a scored label are weighted, with the closed-form
sqrt(det g).  Weighted sums and hits are kept per label and every domain is
a fixed set of labels, so nested domains are ordered exactly.  The draws do
not depend on the scored domains, so a pass scoring one domain gives it the
bits of a pass scoring all four.

The adjugate damping has unbounded support, so ``upsilon_box`` fits a box
a, b in (0, L], |c|, |d| <= L: the first of the sides L0 / sqrt(2), L0,
2 L0 / sqrt(2) and 2 L0 at which every domain it checks has at most
``eps_tail`` of its mass outside the box, relative to the mass inside, and
2 L0 with a warning when none does.  Both masses come from the
deterministic Gauss-Legendre rule of ``_quad``, which draws no samples, so
the box depends on kappa, ``eps_tail`` and the domains, not on the sample
budget.

Determinism: the sample budget is split by index into ``streams`` substreams
seeded from the children of the seed's SeedSequence, and partial sums are
combined by a fixed-order pairwise reduction; results are bit-identical for
a fixed (seed, streams, n_samples).  A stream works in tiles of ``_TILE``
points on scratch it allocates once.  Stages 1 and 2 and the Simon test run
per tile; the points left queue up, and the labelling, weighting and
summing run once per batch of consecutive tiles, so that a rare domain
pays the fixed cost of those numpy calls once per batch, not per tile.
Each tile still keeps its own sums: one ``bincount`` per sum over the
batch, keyed by tile and label, adds each tile's weights in draw order, as
a ``bincount`` of that tile alone does, and the tiles' sums are added up in
tile order.  So the batch size changes no bit.  A pseudo stream is consumed
per tile as a(t) and b(t), then the uniforms of c(k) and d(k) for the k
stage-1 survivors.  A qmc stream draws each tile's t points in full, as the
first t of a block of 2^k >= t Sobol points, whose 3rd and 4th coordinates
are the uniforms of c and d: scipy warns about a first draw of any other
size, and the first t points of a block do not depend on its size.  So ``_TILE``
alone fixes the bits, for pseudo and qmc alike.
The substreams of a pass run on min(streams, usable cores) threads: the
caller runs one share and starts the others for that pass alone, and the
partial sums are reduced in stream order, so the core count sets the speed
but never the bits.
"""

from __future__ import annotations

import math
import numbers
import os
import threading
import warnings
from dataclasses import dataclass

import numpy as np

from . import _quad
from .errors import InvalidArgumentError, NumericError
# the kernel looks regularizer_values up here, where perfbench/tracing.py wraps it
from .regularizers import RegKind, RegularizerSpec, _in_energy_support, regularizer_values
from .twomode import (
    DOMAIN_LABELS,
    DomainTag,
    volume_density,
    _ab_above,
    _classical_labels,
    _label_slack,
    _may_have_label,
)
# unused here, but perfbench/tracing.py wraps these two attributes of this module
from .twomode import domain_mask, metric_components  # noqa: F401

__all__ = [
    "Box",
    "IntegrationRequest",
    "IntegrationResult",
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
# stream's layout and the summation order of every sum
_TILE = 1 << 16
# stage 3 (labelling, weighting and summing) runs once per batch of at most
# _BATCH points from consecutive tiles; a tile keeps its own sums, so the
# batch size changes no bit
_BATCH = 1 << 13
_SAMPLERS = ("pseudo", "qmc")
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


def _rows(buf, k, n):
    """k rows of n floats at the start of the flat scratch ``buf``."""
    return buf[:k * n].reshape(k, n)


def _half_width(a, b, tol, out):
    """h = sqrt(max(ab, 0)) + tol: the classical slice is |c|, |d| < h."""
    h = np.multiply(a, b, out=out)
    np.maximum(h, 0.0, out=h)
    np.sqrt(h, out=h)
    h += tol
    return h


def _slice(h, lo, hi, out):
    """Start and length of the slice (-h, h) clipped to the box side (lo, hi], elementwise.

    ``out`` is two float arrays of h's shape; the length is <= 0 where the
    clipped slice is empty.
    """
    start, length = out
    np.negative(h, out=start)
    np.maximum(start, lo, out=start)
    np.minimum(h, hi, out=length)
    length -= start
    return start, length


def _stream_partial(child_ss, count: int, box: Box, spec: RegularizerSpec, tol: float,
                    sampler: str, labels: tuple):
    lo = np.asarray(box.lo)[:, None]
    span = np.asarray(box.hi)[:, None] - lo
    # a slice-drawn point's weight is scaled by its slice lengths over the c, d spans
    per_cd = 1.0 / (span[2, 0] * span[3, 0])
    tile = min(_TILE, count)
    cap = min(_BATCH, count)
    size = max(tile, cap)
    # a tile's points live in one of two flat buffers; each stage works in the
    # other one and then gathers its survivors into it
    bufs = (np.empty(4 * size), np.empty(4 * size))
    other = lambda pts: bufs[np.may_share_memory(pts, bufs[0])]
    if sampler == "pseudo":
        rng = np.random.default_rng(child_ss)
    else:
        from scipy.stats import qmc

        sob = qmc.Sobol(d=4, scramble=True, seed=np.random.default_rng(child_ss))
    # stage 3 works in nine rows: the labelling in the first eight, the
    # weighting in the last five.  A batch finds them in the other buffer; a
    # tile that runs alone takes four there and five here.  Every buffer stays
    # below the 4 MiB from which numpy asks for huge pages, which a few
    # touched bytes would make resident in full
    f_buf = np.empty((5, size))
    # the labels of a stage-3 batch, and of the points of it that are labelled
    lab_buf = np.empty((2, size), dtype=np.intp)
    b_buf = np.empty((3, size), dtype=bool)
    # the stage-3 points queued from tiles first, first + 1, ..., each with
    # the key 4 * (its tile - first)
    queue = np.empty((4, cap))
    qkey = np.empty(cap, dtype=np.intp)
    scored = np.isin(np.arange(4), labels)  # scored[l]: label l is weighted and counted
    # a pass that scores label 1 scores every classical label, and labels
    # only the points with min(a, b) > 1 - tol, gathered here
    sub_buf = np.empty(4 * size) if scored[1] else None
    # a single scored quantum label has a cheap necessary test (_may_have_label)
    prefilter = labels in ((2,), (3,))
    # ... and entangled alone a cheaper one before it: 2cd < the test's slack,
    # which is largest at a corner of the box's a, b rectangle
    cd_max = None
    if labels == (3,):
        corners = np.outer((box.lo[0], box.hi[0]), (box.lo[1], box.hi[1]))
        cd_max = _label_slack(corners, tol).max() / 2.0
    # a and b are drawn at or above their lower bounds, so above -tol when those are
    ab_test = not (box.lo[0] > -tol and box.lo[1] > -tol)
    # each tile's sums, one row per tile, added up in tile order at the end
    tiles = -(-count // _TILE)
    s1 = np.zeros((max(tiles, 1), 4))
    s2 = np.zeros_like(s1)
    hits = np.zeros(s1.shape, dtype=np.int64)

    def stage3(pts, key, j0, k, spare):
        """Label, weight and sum the (4, n) points of tiles j0, ..., j0 + k - 1.

        ``key`` holds 4 * (tile - j0) per point (None for a single tile);
        ``spare`` is a free flat buffer to work in.
        """
        n = pts.shape[1]
        if n == 0:
            return
        a, b, c, d = pts
        rows = _rows(spare, 9, n) if 9 * n <= spare.size else (*_rows(spare, 4, n), *f_buf[:, :n])
        lab = lab_buf[0, :n]
        todo, idx = pts, None
        if scored[1]:
            # a classical point with min(a, b) <= 1 - tol has label 1
            lab.fill(1)
            todo, idx = _take(_ab_above(a, b, 1.0 - tol, out=b_buf[0, :n], tmp=rows[0]), pts, sub_buf)
        m = todo.shape[1]
        _classical_labels(*todo, np.multiply(*todo[:2], out=rows[0][:m]), tol,
                          out=lab if idx is None else lab_buf[1, :m],
                          scratch=(*(x[:m] for x in rows[1:8]), *b_buf[:, :m]))
        if idx is not None:
            lab[idx] = lab_buf[1, :m]
        keep = np.take(scored, lab, out=b_buf[0, :n], mode="clip")
        if key is not None:
            lab += key
        pts, idx = _take(keep, pts, spare)
        n = pts.shape[1]
        if n == 0:
            return
        if idx is not None:
            lab = lab[idx]
        a, b, c, d = pts
        # the points' n columns lie in the first four rows' space
        w, dens, f1, f2, f3 = (x[:n] for x in rows[4:])
        m1, m2 = b_buf[:2, :n]
        w = np.multiply(regularizer_values(a, b, c, d, spec, out=w, scratch=(f1, f2, m1)),
                        volume_density(a, b, c, d, out=dens, scratch=(f1, f2, f3, m1, m2)), out=w)
        # times the lengths of the slices c and d were drawn on, over the box's spans
        h = _half_width(a, b, tol, out=dens)
        f = _slice(h, box.lo[2], box.hi[2], out=(f1, f2))[1]
        f *= _slice(h, box.lo[3], box.hi[3], out=(f1, f3))[1]
        f *= per_cd
        w *= f
        finite = np.isfinite(w, out=m1)
        if not finite.all():
            i = int(np.argmin(finite))
            bad = (a[i], b[i], c[i], d[i])
            raise NumericError(f"non-finite integrand weight at (a, b, c, d) = {bad}")
        # one bincount per sum over the batch, keyed by tile: each tile's
        # row adds its weights in draw order, as a bincount of that tile alone does
        own = slice(j0, j0 + k)
        s1[own] = np.bincount(lab, weights=w, minlength=4 * k).reshape(k, 4)
        s2[own] = np.bincount(lab, weights=np.multiply(w, w, out=w), minlength=4 * k).reshape(k, 4)
        hits[own] = np.bincount(lab, minlength=4 * k).reshape(k, 4)

    energy = spec.kind is RegKind.ENERGY_PHI
    first = queued = 0  # the queue holds tiles first, ..., j - 1 with queued points
    for j, done in enumerate(range(0, count, _TILE)):
        t = min(_TILE, count - done)
        # stage 1, every sample: a and b, the a, b half of the classical
        # test and the energy cutoff
        pts = bufs[0][:4 * t].reshape(4, t)
        if sampler == "pseudo":
            rows = 2
            rng.random(out=pts[:2])
        else:
            # Sobol points are 4-d, so the uniforms of c and d come with a
            # and b.  scipy warns about a first draw that is not a power of
            # two, and the first t points of a block do not depend on its size
            rows = 4
            np.copyto(pts, sob.random(1 << (t - 1).bit_length())[:t].T)
        pts[:2] *= span[:2]
        pts[:2] += lo[:2]
        a, b = pts[:2]
        tmp = bufs[1][:t]
        keep = _ab_above(a, b, -tol, out=b_buf[0, :t], tmp=tmp) if ab_test else None
        if energy:
            # a point outside the cutoff would add only +0.0 to s1 and s2
            inside = _in_energy_support(a, b, spec.bound_E, out=b_buf[1, :t], tmp=tmp)
            keep = inside if keep is None else np.logical_and(keep, inside, out=keep)
        if keep is not None:
            pts, _ = _take(keep, pts, bufs[1], rows=rows)
        # stage 2, the survivors: the uniforms of c and d, which every
        # survivor draws and which put c and d uniformly on the classical
        # slice |c|, |d| < sqrt(ab) + tol clipped to the box.  Then the
        # points sure to have an unscored label are dropped
        if sampler == "pseudo":
            rng.random(out=pts[2:])
        n = pts.shape[1]
        a, b, c, d = pts
        keep, inside = b_buf[:2, :n]
        h, start, length = _rows(other(pts), 3, n)
        _half_width(a, b, tol, out=h)
        _slice(h, box.lo[2], box.hi[2], out=(start, length))
        np.greater(length, 0.0, out=keep)
        c *= length
        c += start
        _slice(h, box.lo[3], box.hi[3], out=(start, length))
        keep &= np.greater(length, 0.0, out=inside)
        d *= length
        d += start
        # a point whose slice is empty goes, as does one sure to have label
        # 1 when that is not scored (min(a, b) <= 1 - tol), and one that
        # fails the entangled pre-test
        if not scored[1]:
            keep &= _ab_above(a, b, 1.0 - tol, out=inside, tmp=h)
        if cd_max is not None:
            keep &= np.less(np.multiply(c, d, out=h), cd_max, out=inside)
        pts, _ = _take(keep, pts, other(pts))
        if prefilter:
            # only the points that may carry the scored label go on to stage 3
            n = pts.shape[1]
            ab, *f = _rows(other(pts), 4, n)
            keep = _may_have_label(*pts, np.multiply(*pts[:2], out=ab), tol, labels[0],
                                   out=b_buf[0, :n], scratch=f)
            pts, _ = _take(keep, pts, other(pts))
        # stage 3 once per batch of tiles: a tile that fills more than half
        # the queue runs alone, straight from its buffer, and any other
        # joins the queue, which runs first when it would overflow
        n = pts.shape[1]
        alone = 2 * n > cap
        if alone or queued + n > cap:
            stage3(queue[:, :queued], qkey[:queued], first, j - first, other(pts))
            first, queued = j, 0
        if alone:
            stage3(pts, None, j, 1, other(pts))
            first = j + 1
        else:
            queue[:, queued:queued + n] = pts
            qkey[queued:queued + n] = 4 * (j - first)
            queued += n
    stage3(queue[:, :queued], qkey[:queued], first, tiles - first, bufs[0])
    # the tiles' sums in tile order, each added to the sum of those before it
    return count, *(np.add.accumulate(x, axis=0)[-1] for x in (s1, s2, hits))


@dataclass(frozen=True)
class IntegrationResult:
    """One domain's volume estimate with its sampling error.

    ``acceptance_fraction`` is the share of the ``n_samples`` draws that lie
    in the domain and inside the regularizer's support (tr V <= E for the
    energy cutoff; the adjugate damping has unbounded support), that is the
    share that carries weight; ``empty_domain`` is true when none does.
    c and d are drawn on the classical slice, not across the box, so this is
    a share of draws, not of the box's volume: for the damping, whose box
    holds the slices whole, nearly every draw is classical.
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
    """All four domain volumes from one sampling pass, with cross-covariances.

    Because every domain is evaluated on the same weighted samples, nested
    domains are ordered exactly, differences of estimates carry honest errors,
    and delta-method ratio errors include the correlation with the denominator.
    Every weight carries its point's slice factor (see the module docstring),
    so each estimate is box.volume times a mean over all ``n_samples``.
    The per-label hits count the draws in the domain and inside the
    regularizer's support; c and d are drawn on the classical slice, so a
    share of hits is a share of draws, not of the box's volume.  Only the
    labels in ``labels`` were weighted and counted; ``result``,
    ``difference`` and ``ratio`` accept every domain made up of them and
    raise ``InvalidArgumentError`` for any other.
    """

    def __init__(self, box: Box, spec: RegularizerSpec, n_samples: int, seed_label, streams: int,
                 tol: float, sampler: str, s1: np.ndarray, s2: np.ndarray, hits: np.ndarray,
                 labels: tuple):
        self.box = box
        self.regularizer = spec
        self.n_samples = n_samples
        self.seed = seed_label
        self.streams = streams
        self.tol = tol
        self.sampler = sampler
        self._s1 = s1
        self._s2 = s2
        self._hits = hits
        self.labels = labels

    def _mean(self, tag: DomainTag) -> float:
        # every reader of a domain goes through here
        if not set(DOMAIN_LABELS[tag]) <= set(self.labels):
            raise InvalidArgumentError(f"the {tag.value} domain was not scored in this pass")
        return sum(float(self._s1[l]) for l in DOMAIN_LABELS[tag]) / self.n_samples

    def _mean_cov(self, tag_a: DomainTag, tag_b: DomainTag) -> float:
        """Covariance of the two domains' sample means, from the labels they share."""
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


def _is_int(x) -> bool:
    """An integer, numpy's included, but not a bool."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


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
    if not math.isfinite(tol):
        raise InvalidArgumentError("tol must be finite")
    if sampler not in _SAMPLERS:
        raise InvalidArgumentError(f"sampler must be one of {_SAMPLERS}")


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
                     tol: float = 1e-9, sampler: str = "pseudo", seed_label: int | None = None,
                     *, domains=DOMAIN_ORDER) -> JointVolumes:
    """One sampling pass over ``box`` scoring ``domains`` (all four by default).

    a and b are uniform over the box's a, b sides, and c and d uniform on the
    classical slice |c|, |d| < sqrt(ab) + tol clipped to the box, each weight
    scaled by the slices' lengths over the box's c and d spans, so the pass
    estimates the integrals over the box that uniform sampling estimates.

    ``seed`` may be an integer or a SeedSequence, which is not modified;
    ``seed_label`` is what gets reported in results when the seed is not a
    plain integer.  ``streams`` is the number of substreams and part of the
    determinism key; they run on min(streams, usable cores) threads, the
    caller's among them.  Only points in ``domains`` are weighted, so a
    non-finite weight outside them does not raise, and each scored domain
    gets the bits that a pass scoring all four gives it (see
    ``JointVolumes`` for what can be read).
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
        return _stream_partial(child, count, box, spec, tol, sampler, labels)

    partials = _run_shares(run, tasks, min(streams, _usable_cores()))
    n, s1, s2, hits = _pairwise_reduce(partials, lambda u, v: tuple(x + y for x, y in zip(u, v)))
    return JointVolumes(box, spec, n, seed_label, streams, tol, sampler, s1, s2, hits, labels)


def upsilon_box(kappa: float, eps_tail: float = 1e-3, *,
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
    spreads the a, b draws over 4 times the area (c and d are drawn on the
    classical slice, which the box holds whole), and past one doubling the
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
    tol: float = 1e-9
    eps_tail: float = 1e-3
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


def _default_box(spec: RegularizerSpec, domains: tuple, eps_tail: float) -> Box:
    """``phi_box`` for the energy cutoff; for the damping, a box fitted to each of ``domains``."""
    if spec.kind is RegKind.ENERGY_PHI:
        return phi_box(spec.bound_E)
    return upsilon_box(spec.kappa, eps_tail, domain=domains)


def mc_volume(req: IntegrationRequest) -> IntegrationResult:
    """Monte Carlo volume of one domain under the requested regularizer.

    Bit-identical for a fixed (seed, streams, n_samples) request, and to the
    same domain's result from a pass that scores all four: only this
    domain's points are weighted.
    """
    box = _default_box(req.regularizer, (req.domain,), req.eps_tail)
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
            box = _default_box(spec, DOMAIN_ORDER, template.eps_tail)
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
