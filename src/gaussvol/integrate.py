"""Seeded Monte Carlo estimates of regularized Fisher-Rao volumes.

The integrand over the standard-form chart (a, b, c, d) is

    1_domain(p) * weight(V(p)) * sqrt(det g(p)),

sampled uniformly over an axis-aligned box that contains the support of the
weighted domain.  A pass scores a set of domains in three stages per tile of
draws.  Every sample draws a and b and must pass min(a, b) > -tol and, for
the energy cutoff, tr V <= E.  Only the survivors draw c and d and must pass
|c|, |d| < sqrt(ab) + tol.  Only points that can carry a scored label are
labelled: when the classical-only label is not scored, points with
min(a, b) <= 1 - tol are dropped, and when separable or entangled alone is
scored, a necessary test on Simon's invariant drops the points that cannot
be.  One labelling pass then gives each point left the
innermost domain holding it (classical only, separable or entangled), and
only points with a scored label are weighted, with the closed-form
sqrt(det g).  Weighted sums and hits are kept per label and every domain is
a fixed set of labels, so nested domains are ordered exactly.  The draws do
not depend on the scored domains, so a pass scoring one domain gives it the
bits of a pass scoring all four.

The adjugate damping has unbounded support, so ``upsilon_box`` fits a box
a, b in (0, L], |c|, |d| <= L: the smallest L on the grid L0 * 2^(k/2) for
which every domain it checks has at most ``eps_tail`` of its mass outside
the box, relative to the mass inside, but at most 2 L0.  Both masses come
from the deterministic Gauss-Legendre rule of ``_quad``, which draws no
samples, so the box depends on kappa, ``eps_tail`` and the domains, not on
the sample budget.

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
per tile as a(t) and b(t), then c(k) and d(k) for the k stage-1 survivors.
A qmc stream draws each tile's t points in full, as the first t of a block
of 2^k >= t Sobol points: scipy warns about a first draw of any other size,
and the first t points of a block do not depend on its size.  So ``_TILE``
alone fixes the bits, for pseudo and qmc alike.
The substreams of a pass run on at most one thread per usable core, from a
pool kept between passes, so the core count sets the speed but never the
bits.
"""

from __future__ import annotations

import math
import os
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, NumericError
from .metric import _check_seed, _is_int, _pairwise_reduce, _partition
from .regularizers import RegKind, RegularizerSpec, log1p_det_pow
from .twomode import (
    DOMAIN_LABELS,
    DomainTag,
    canonical_det,
    canonical_trace_adjugate,
    volume_density,
    _ab_above,
    _cd_inside,
    _classical_labels,
    _float_arrays,
    _may_have_label,
    _scratch,
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
    "regularizer_values",
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
_POOL_LOCK = threading.Lock()
_pool = None  # ((pid, cores), ThreadPoolExecutor) of _stream_pool


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


def _in_energy_support(a, b, bound_E: float, out=None, tmp=None) -> np.ndarray:
    """The energy cutoff's closed Heaviside on the chart: tr V = 2(a + b) <= E.

    The weight and the stream kernel's support filter both use this one float
    test, so the points the kernel drops are exactly those whose weight is 0.
    ``out`` (bool) and ``tmp`` (float) are optional scratch of a's shape.
    """
    e = np.add(a, b, out=tmp)
    e *= 2.0
    return np.less_equal(e, bound_E, out=out)


def regularizer_values(a, b, c, d, spec: RegularizerSpec, out=None, scratch=None) -> np.ndarray:
    """Vectorized regularizer weight at standard-form points.

    Uses the standard-form closed forms det V = (ab - c^2)(ab - d^2) and
    tr[adj V] = (a + b)(2ab - c^2 - d^2); agrees with the general matrix
    evaluation on the classical domain.  ``out`` and ``scratch`` (two float
    arrays and a bool array) are optional arrays of the points' shape to
    work in, so that the stream kernel allocates nothing here.
    """
    a, b, c, d = _float_arrays(a, b, c, d)
    f1, f2, mask = scratch if scratch is not None else _scratch(a.shape, 2, 1)
    base = np.empty(a.shape) if out is None else out
    detv = canonical_det(a, b, c, d, out=f1, scratch=(base, f2))
    np.maximum(detv, 1e-300, out=detv)
    log1p_det_pow(detv, spec.m, out=base, scratch=(f2, mask))
    if spec.kind is RegKind.ENERGY_PHI:
        inside = _in_energy_support(a, b, spec.bound_E, out=mask, tmp=f1)
        np.copyto(base, 0.0, where=np.logical_not(inside, out=inside))
        return base
    damp = canonical_trace_adjugate(a, b, c, d, out=f1, scratch=(f2,))
    np.negative(damp, out=damp)
    damp /= spec.kappa
    np.minimum(damp, 700.0, out=damp)
    np.exp(damp, out=damp)
    base *= damp
    return base


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


def _stream_partial(child_ss, count: int, box: Box, spec: RegularizerSpec, tol: float,
                    sampler: str, labels: tuple):
    lo = np.asarray(box.lo)[:, None]
    span = np.asarray(box.hi)[:, None] - lo
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
    lab_buf = np.empty(size, dtype=np.intp)
    b_buf = np.empty((3, size), dtype=bool)
    # the stage-3 points queued from tiles first, first + 1, ..., each with
    # the key 4 * (its tile - first)
    queue = np.empty((4, cap))
    qkey = np.empty(cap, dtype=np.intp)
    scored = np.isin(np.arange(4), labels)  # scored[l]: label l is weighted and counted
    # a single scored quantum label has a cheap necessary test (_may_have_label)
    prefilter = labels in ((2,), (3,))
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
        ab = np.multiply(a, b, out=rows[0])
        lab = _classical_labels(a, b, c, d, ab, tol, out=lab_buf[:n],
                                scratch=(*rows[1:8], *b_buf[:, :n]))
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
        keep, inside = b_buf[:2, :t]
        # stage 1, every sample: a and b, the a, b half of the classical
        # test and the energy cutoff
        pts = bufs[0][:4 * t].reshape(4, t)
        if sampler == "pseudo":
            rows = 2
            rng.random(out=pts[:2])
        else:
            # Sobol points are 4-d, so c and d come with a and b.  scipy warns
            # about a first draw that is not a power of two, and the first t
            # points of a block do not depend on its size
            rows = 4
            np.copyto(pts, sob.random(1 << (t - 1).bit_length())[:t].T)
        pts[:rows] *= span[:rows]
        pts[:rows] += lo[:rows]
        a, b = pts[:2]
        tmp = bufs[1][:t]
        _ab_above(a, b, -tol, out=keep, tmp=tmp)
        if energy:
            # a point outside the cutoff would add only +0.0 to s1 and s2
            keep &= _in_energy_support(a, b, spec.bound_E, out=inside, tmp=tmp)
        pts, _ = _take(keep, pts, bufs[1], rows=rows)
        # stage 2, the survivors: c and d, the c, d half of the classical
        # test, and points sure to have an unscored label
        n = pts.shape[1]
        if sampler == "pseudo":
            cd = pts[2:]
            rng.random(out=cd)
            cd *= span[2:]
            cd += lo[2:]
        keep, tmp, inside = b_buf[:, :n]
        f0, f1 = _rows(other(pts), 2, n)
        _cd_inside(*pts, tol, out=keep, scratch=(f0, f1, tmp))
        if not scored[1]:
            # a classical point with min(a, b) <= 1 - tol has label 1
            keep &= _ab_above(*pts[:2], 1.0 - tol, out=inside, tmp=f0)
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
    The per-label hits count the samples in the domain and inside the
    regularizer's support.  Only the labels in ``labels`` were weighted and
    counted; ``result``, ``difference`` and ``ratio`` accept every domain
    made up of them and raise ``InvalidArgumentError`` for any other.
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


def _stream_pool(cores: int) -> ThreadPoolExecutor:
    """The process's pool of at most ``cores`` stream threads, kept between passes.

    A pass would otherwise pay for starting and joining its threads, which
    for a short pass takes as long as its streams.  All ``cores`` threads
    start with the pool, each held by one task until every one runs, so no
    later pass starts a thread: the executor's count of idle threads lags
    behind a task's result, and a pass submitted at once after another
    would otherwise start one more.  A new pool replaces it when the core
    count or the process (after a fork) changes; the old one's idle threads
    exit once it is no longer referenced.
    """
    global _pool
    key = (os.getpid(), cores)
    with _POOL_LOCK:
        if _pool is None or _pool[0] != key:
            pool = ThreadPoolExecutor(max_workers=cores)
            started = threading.Barrier(cores + 1)
            for _ in range(cores):
                pool.submit(started.wait)
            started.wait()
            _pool = (key, pool)
        return _pool[1]


def mc_joint_volumes(box: Box, spec: RegularizerSpec, n_samples: int, seed, streams: int = 1,
                     tol: float = 1e-9, sampler: str = "pseudo", seed_label: int | None = None,
                     *, domains=DOMAIN_ORDER) -> JointVolumes:
    """One uniform-sampling pass over ``box`` scoring ``domains`` (all four by default).

    ``seed`` may be an integer or a SeedSequence, which is not modified;
    ``seed_label`` is what gets reported in results when the seed is not a
    plain integer.  ``streams`` is the number of substreams and part of the
    determinism key; they run on min(streams, usable cores) threads.  Only
    points in ``domains`` are weighted, so a non-finite weight outside them
    does not raise, and each scored domain gets the bits that a pass scoring
    all four gives it (see ``JointVolumes`` for what can be read).
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

    cores = _usable_cores()
    if min(streams, cores) == 1:
        partials = [run(t) for t in tasks]
    else:
        # map returns the partials in stream order, whichever thread ran them
        partials = list(_stream_pool(cores).map(run, tasks))
    n, s1, s2, hits = _pairwise_reduce(partials, lambda u, v: tuple(x + y for x, y in zip(u, v)))
    return JointVolumes(box, spec, n, seed_label, streams, tol, sampler, s1, s2, hits, labels)


def upsilon_box(kappa: float, eps_tail: float = 1e-3, *,
                domain: DomainTag | tuple = DomainTag.CLASSICAL, max_doublings: int = 12) -> Box:
    """Support box for the adjugate-damped integrand, fitted by quadrature.

    Boxes are a, b in (0, L], |c|, |d| <= L.  ``domain`` is one tag or a
    tuple of tags, and every one of them is checked.  The tail test passes
    at the smallest side on the grid L0 * 2^(k/2), k >= -1, with
    L0 = max(4, 4 sqrt(kappa)), at which every checked domain's tail, its
    mass outside the box, is at most ``eps_tail`` times its mass inside.
    Sides are tried in increasing order up to L0 * 2^max_doublings; when
    none passes, NumericError lists each side tried with the first checked
    domain that failed there.

    The returned side is that side, but at most 2 L0: each doubling spreads
    the uniform sampler's draws over 16 times the volume, and past one
    doubling the estimate's error at practical sample counts dwarfs the tail
    it would save.  When the cap binds, a RuntimeWarning names the side that
    passes and, for each checked domain that fails at the cap, the share of
    its mass left outside the box.

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
    if not (_is_int(max_doublings) and max_doublings >= 0):
        raise InvalidArgumentError("max_doublings must be an integer >= 0")
    domains = domain if isinstance(domain, tuple) else (domain,)
    _labels_of(domains)  # checks the tags
    from . import _quad  # here, not at the top: _quad takes regularizer_values from this module

    spec = RegularizerSpec.adjugate(kappa)
    total = _quad.quad_volumes(spec, _BOX_ORDER, domains)
    L = max(4.0, 4.0 * math.sqrt(kappa))
    # a domain that passes at one side passes at every larger one, so only
    # the domains still failing are integrated at the next side
    failed, tried = domains, []  # tried: (side, {failed tag: (inside, tail)})
    for _ in range(max_doublings + 1):
        # the grid in order: the half-step below L, then L
        for side in (L / math.sqrt(2.0), L):
            tail = _quad.tail_masses(spec, failed, side, _BOX_ORDER)
            failed = tuple(t for t in failed if not tail[t] <= eps_tail * (total[t] - tail[t]))
            tried.append((side, {t: (total[t] - tail[t], tail[t]) for t in failed}))
            if failed:
                continue
            if len(tried) <= 4:
                return _sym_box(side)
            # past 2 L0, the fourth side of the grid
            cap, left = tried[3]
            shares = ", ".join(f"{t.value} {tl / i:.3g}" for t, (i, tl) in left.items())
            warnings.warn(f"support box capped at L={cap:g} (kappa={kappa:g}): the tail test "
                          f"passes at L={side:g}; outside the capped box lies {shares} of the "
                          f"mass inside (eps_tail={eps_tail:g})", RuntimeWarning, stacklevel=2)
            return _sym_box(cap)
        L *= 2.0
    # the failure text reports the first checked domain that failed at each side
    detail = "; ".join(f"L={l:g}: inside={i:.6g}, tail={t:.6g}"
                       for l, m in tried for i, t in [next(iter(m.values()))])
    raise NumericError(
        f"support box did not converge after {max_doublings} doublings (kappa={kappa:g}, "
        f"eps_tail={eps_tail:g}): {detail}"
    )


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
