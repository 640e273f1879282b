"""Seeded Monte Carlo estimates of regularized Fisher-Rao volumes.

The integrand over the standard-form chart (a, b, c, d) is

    1_domain(p) * weight(V(p)) * sqrt(det g(p)),

sampled uniformly over an axis-aligned box that contains the support of the
weighted domain.  One labelling pass gives each sample the innermost domain
holding it (outside, classical only, separable or entangled), and the weights
use the closed-form sqrt(det g).  Weighted sums are kept per label, and every
domain is a fixed set of labels, so nested domains are ordered exactly and
the entangled volume comes from the same run as the others.

Determinism: the sample budget is split by index into ``streams`` substreams
seeded from a spawned SeedSequence, partial sums are combined by a fixed-order
pairwise reduction, and the chunk size is a fixed constant; results are
bit-identical for a fixed (seed, streams, n_samples).
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, NumericError
from .metric import _pairwise_reduce, _partition
from .regularizers import RegKind, RegularizerSpec, log1p_det_pow
from .twomode import (
    DOMAIN_LABELS,
    DomainTag,
    canonical_det,
    canonical_trace_adjugate,
    domain_labels,
    volume_density,
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

_CHUNK = 1 << 18
_PROBE_SEED = 0x426F78  # fixed probe seed: the box depends only on its inputs
_SAMPLERS = ("pseudo", "qmc")


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
        if any(not (h > l) for l, h in zip(lo, hi)):
            raise InvalidArgumentError("box upper bounds must exceed lower bounds")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def volume(self) -> float:
        return float(np.prod(np.asarray(self.hi) - np.asarray(self.lo)))

    def contains(self, pts: np.ndarray) -> np.ndarray:
        lo = np.asarray(self.lo)
        hi = np.asarray(self.hi)
        return ((pts > lo) & (pts <= hi)).all(axis=-1)


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


def regularizer_values(a, b, c, d, spec: RegularizerSpec) -> np.ndarray:
    """Vectorized regularizer weight at standard-form points.

    Uses the standard-form closed forms det V = (ab - c^2)(ab - d^2) and
    tr[adj V] = 2a^2 b + a(2b^2 - c^2 - d^2) - b(c^2 + d^2); agrees with the
    general matrix evaluation on the classical domain.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    detv = np.maximum(canonical_det(a, b, c, d), 1e-300)
    base = np.asarray(log1p_det_pow(detv, spec.m))
    if spec.kind is RegKind.ENERGY_PHI:
        return np.where(2.0 * (a + b) <= spec.bound_E, base, 0.0)
    expo = -np.asarray(canonical_trace_adjugate(a, b, c, d)) / spec.kappa
    return np.exp(np.minimum(expo, 700.0)) * base


def _stream_partial(child_ss, count: int, box: Box, spec: RegularizerSpec, tol: float,
                    sampler: str, exclude: Box | None):
    lo = np.asarray(box.lo)
    span = np.asarray(box.hi) - lo
    if sampler == "pseudo":
        rng = np.random.default_rng(child_ss)
        draw = lambda k: rng.random((k, 4))
    else:
        from scipy.stats import qmc

        sob = qmc.Sobol(d=4, scramble=True, seed=np.random.default_rng(child_ss))

        def draw(k):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                return sob.random(k)

    s1 = np.zeros(4)
    s2 = np.zeros(4)
    hits = np.zeros(4, dtype=np.int64)
    done = 0
    while done < count:
        k = min(_CHUNK, count - done)
        pts = lo + draw(k) * span
        lab = domain_labels(pts[:, 0], pts[:, 1], pts[:, 2], pts[:, 3], tol)
        if exclude is not None:
            lab[exclude.contains(pts)] = 0
        idx = np.flatnonzero(lab)
        lab = lab[idx]
        inside = pts[idx]
        a, b, c, d = inside.T
        w = regularizer_values(a, b, c, d, spec) * volume_density(a, b, c, d)
        if not np.isfinite(w).all():
            bad = tuple(inside[~np.isfinite(w)][0])
            raise NumericError(f"non-finite integrand weight at (a, b, c, d) = {bad}")
        s1 += np.bincount(lab, weights=w, minlength=4)
        s2 += np.bincount(lab, weights=w * w, minlength=4)
        hits += np.bincount(lab, minlength=4)
        done += k
    return count, s1, s2, hits


@dataclass(frozen=True)
class IntegrationResult:
    """One domain's volume estimate with its sampling error."""

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
    """

    def __init__(self, box: Box, spec: RegularizerSpec, n_samples: int, seed_label, streams: int,
                 tol: float, sampler: str, s1: np.ndarray, s2: np.ndarray, hits: np.ndarray):
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

    def _mean(self, tag: DomainTag) -> float:
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


def mc_joint_volumes(box: Box, spec: RegularizerSpec, n_samples: int, seed, streams: int = 1,
                     tol: float = 1e-9, sampler: str = "pseudo", seed_label: int | None = None,
                     exclude: Box | None = None) -> JointVolumes:
    """One uniform-sampling pass over ``box`` scoring all four domains.

    ``seed`` may be an integer or a SeedSequence; ``seed_label`` is what gets
    reported in results when the seed is not a plain integer.
    """
    if streams < 1:
        raise InvalidArgumentError("streams must be >= 1")
    if n_samples < 1:
        raise InvalidArgumentError("n_samples must be positive")
    if sampler not in _SAMPLERS:
        raise InvalidArgumentError(f"sampler must be one of {_SAMPLERS}")
    if isinstance(seed, np.random.SeedSequence):
        ss = seed
    else:
        ss = np.random.SeedSequence(seed)
        if seed_label is None:
            seed_label = int(seed)
    children = ss.spawn(streams)
    counts = _partition(n_samples, streams)
    if streams == 1:
        partials = [_stream_partial(children[0], counts[0], box, spec, tol, sampler, exclude)]
    else:
        with ThreadPoolExecutor(max_workers=streams) as pool:
            partials = list(
                pool.map(
                    lambda i: _stream_partial(children[i], counts[i], box, spec, tol, sampler, exclude),
                    range(streams),
                )
            )
    n, s1, s2, hits = _pairwise_reduce(
        partials, lambda u, v: (u[0] + v[0], u[1] + v[1], u[2] + v[2], u[3] + v[3])
    )
    return JointVolumes(box, spec, n, seed_label, streams, tol, sampler, s1, s2, hits)


def upsilon_box(kappa: float, eps_tail: float = 1e-3, *, m: int = 4,
                domain: DomainTag = DomainTag.CLASSICAL, n_probe: int = 100_000,
                max_doublings: int = 12) -> Box:
    """Adaptive support box for the adjugate-damped integrand.

    Starts from a, b in (0, L], |c|, |d| <= L with L = max(4, 4 sqrt(kappa))
    and doubles L until the outer shell (between L and 2L) contributes less
    than ``eps_tail`` of the current estimate.  Probing uses a fixed internal
    seed, so the box depends only on the arguments.
    """
    if not (kappa > 0.0):
        raise InvalidArgumentError("kappa must be positive")
    if not (0.0 < eps_tail < 1.0):
        raise InvalidArgumentError("eps_tail must lie in (0, 1)")
    if n_probe < 1000:
        raise InvalidArgumentError("n_probe must be at least 1000")
    spec = RegularizerSpec.adjugate(kappa, m)
    L = max(4.0, 4.0 * math.sqrt(kappa))
    history = []
    for attempt in range(max_doublings + 1):
        inner = _sym_box(L)
        outer = _sym_box(2.0 * L)
        seeds = np.random.SeedSequence([_PROBE_SEED, attempt]).spawn(2)
        est_in = mc_joint_volumes(inner, spec, n_probe, seeds[0]).result(domain).estimate
        est_shell = mc_joint_volumes(outer, spec, n_probe, seeds[1], exclude=inner).result(domain).estimate
        history.append((L, est_in, est_shell))
        if est_shell <= eps_tail * est_in:
            return inner
        L *= 2.0
    detail = "; ".join(f"L={l:g}: estimate={e:.6g}, shell={s:.6g}" for l, e, s in history)
    raise NumericError(
        f"support box did not converge after {max_doublings} doublings (kappa={kappa:g}, "
        f"eps_tail={eps_tail:g}): {detail}"
    )


@dataclass(frozen=True)
class IntegrationRequest:
    """Inputs of one volume estimate; every field has a deterministic effect."""

    domain: DomainTag
    regularizer: RegularizerSpec
    n_samples: int
    seed: int
    streams: int = 1
    box: Box | None = None
    tol: float = 1e-9
    eps_tail: float = 1e-3
    sampler: str = "pseudo"


def _default_box(spec: RegularizerSpec, domain: DomainTag, n_samples: int, eps_tail: float) -> Box:
    if spec.kind is RegKind.ENERGY_PHI:
        return phi_box(spec.bound_E)
    return upsilon_box(spec.kappa, eps_tail, m=spec.m, domain=domain,
                       n_probe=max(10_000, n_samples // 10))


def mc_volume(req: IntegrationRequest) -> IntegrationResult:
    """Monte Carlo volume of one domain under the requested regularizer.

    Bit-identical for a fixed (seed, streams, n_samples) request.
    """
    if req.n_samples < 10_000:
        raise InvalidArgumentError("n_samples must be at least 10_000")
    if req.streams < 1:
        raise InvalidArgumentError("streams must be >= 1")
    if not isinstance(req.domain, DomainTag):
        raise InvalidArgumentError("domain must be a DomainTag")
    if req.regularizer.m != 4:
        raise InvalidArgumentError("volume integrals use the 4-parameter chart; regularizer m must be 4")
    if req.sampler not in _SAMPLERS:
        raise InvalidArgumentError(f"sampler must be one of {_SAMPLERS}")
    box = req.box if req.box is not None else _default_box(req.regularizer, req.domain,
                                                           req.n_samples, req.eps_tail)
    jv = mc_joint_volumes(box, req.regularizer, req.n_samples, req.seed, req.streams,
                          req.tol, req.sampler)
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


def sweep(param: str, values, template: IntegrationRequest) -> SweepTable:
    """Volumes of all four domains across a parameter sweep.

    ``param`` is "E" (energy regularizer) or "kappa" (adjugate regularizer);
    each row re-derives its support box and gets its own deterministic
    substream of the template seed.  Rows that fail numerically are recorded
    and the sweep continues.
    """
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
    if template.n_samples < 10_000:
        raise InvalidArgumentError("n_samples must be at least 10_000")
    m = template.regularizer.m
    if m != 4:
        raise InvalidArgumentError("volume integrals use the 4-parameter chart; regularizer m must be 4")
    rows = []
    for i, v in enumerate(vals):
        spec = RegularizerSpec.energy(v, m) if param == "E" else RegularizerSpec.adjugate(v, m)
        try:
            box = template.box if template.box is not None else _default_box(
                spec, template.domain, template.n_samples, template.eps_tail)
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
