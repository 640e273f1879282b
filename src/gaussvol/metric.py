"""Fisher-Rao metric of zero-mean Gaussian families parametrized by covariance entries.

For a family V(theta) with partial derivatives B_mu = dV/dtheta^mu the metric is

    g_mn = (1/2) tr[V^{-1} B_m V^{-1} B_n],

which equals the expectation E[d_m log P * d_n log P] over the Gaussian density.
A sampling estimator of that expectation is provided as an independent check of
the closed form.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidArgumentError, NumericError
from .integrate import _check_seed, _pairwise_reduce, _partition
from .regularizers import _is_int
from .states import require_covariance

__all__ = [
    "ParamChart",
    "MetricAtPoint",
    "BoundMatrix",
    "param_index",
    "full_chart",
    "metric_closed_form",
    "metric_mc_oracle",
    "volume_element",
    "bound_matrix",
    "det_bound_holds",
]


def param_index(mu: int, nu: int, n_modes: int) -> int:
    """Linear index of the upper-triangular entry (mu, nu) of V, 1-based.

    Entries are enumerated row by row along the upper triangle:
    l = sum_{r=0}^{mu-2} (2N - r) + nu - mu + 1.
    """
    if not (1 <= mu <= nu <= 2 * n_modes):
        raise InvalidArgumentError(f"need 1 <= mu <= nu <= 2N, got mu={mu}, nu={nu}, N={n_modes}")
    return sum(2 * n_modes - r for r in range(mu - 1)) + (nu - mu + 1)


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class ParamChart:
    """A parametrization of covariance matrices by m independent directions.

    ``basis`` holds the symmetric derivative matrices B_mu = dV/dtheta^mu.
    """

    dim_modes: int
    basis: tuple
    names: tuple | None = None

    def __post_init__(self):
        n = 2 * self.dim_modes
        if self.dim_modes < 1:
            raise InvalidArgumentError("dim_modes must be >= 1")
        if len(self.basis) == 0:
            raise InvalidArgumentError("chart needs at least one basis matrix")
        mats = []
        for B in self.basis:
            A = np.asarray(B, dtype=float)
            if A.shape != (n, n):
                raise InvalidArgumentError(f"basis matrices must be {n}x{n}")
            if np.abs(A - A.T).max() > 1e-12 * max(1.0, np.abs(A).max()):
                raise InvalidArgumentError("basis matrices must be symmetric")
            mats.append(_readonly(0.5 * (A + A.T)))
        flat = np.stack([B.ravel() for B in mats])
        if np.linalg.matrix_rank(flat) != len(mats):
            raise InvalidArgumentError("chart basis must be linearly independent")
        object.__setattr__(self, "basis", tuple(mats))
        if self.names is not None:
            if len(self.names) != len(mats):
                raise InvalidArgumentError("names must match the basis length")
            object.__setattr__(self, "names", tuple(self.names))

    @property
    def m(self) -> int:
        """Number of parameters."""
        return len(self.basis)

    def index_map(self, mu: int, nu: int) -> int | None:
        """Upper-triangular index l for a retained entry (mu, nu), else None.

        An entry is retained when some basis direction moves it.  Row/column
        order is immaterial.
        """
        if mu > nu:
            mu, nu = nu, mu
        l = param_index(mu, nu, self.dim_modes)
        if any(abs(B[mu - 1, nu - 1]) > 0.0 for B in self.basis):
            return l
        return None

    def pushforward(self, M) -> "ParamChart":
        """Chart for the congruent family M^T V(theta) M: basis M^T B_mu M."""
        A = np.asarray(M, dtype=float)
        n = 2 * self.dim_modes
        if A.shape != (n, n):
            raise InvalidArgumentError(f"pushforward matrix must be {n}x{n}")
        if abs(np.linalg.det(A)) < 1e-12:
            raise InvalidArgumentError("pushforward requires an invertible matrix")
        new = tuple(A.T @ B @ A for B in self.basis)
        return ParamChart(self.dim_modes, new, self.names)


@functools.lru_cache(maxsize=None)
def full_chart(n_modes: int) -> ParamChart:
    """Chart over all independent covariance entries except q_k-p_k correlations.

    Same-mode position-momentum correlations can be rotated away mode by mode,
    so they are excluded; the chart has N(2N + 1) - N parameters.
    """
    n = 2 * n_modes
    basis = []
    names = []
    for mu in range(1, n + 1):
        for nu in range(mu, n + 1):
            if mu % 2 == 1 and nu == mu + 1:
                continue  # q_k-p_k correlation of one mode
            B = np.zeros((n, n))
            B[mu - 1, nu - 1] = 1.0
            B[nu - 1, mu - 1] = 1.0
            if mu == nu:
                B[mu - 1, mu - 1] = 1.0
            basis.append(B)
            names.append(f"V{mu}{nu}")
    return ParamChart(n_modes, tuple(basis), tuple(names))


@dataclass(eq=False)
class MetricAtPoint:
    """Fisher-Rao metric evaluated at one covariance matrix."""

    g: np.ndarray
    det_g: float
    chart: ParamChart
    point: np.ndarray | None = None
    std_errors: np.ndarray | None = None


@dataclass(frozen=True, eq=False)
class BoundMatrix:
    """Constant matrix E_mn = (1/2) tr(B_m B_n) of a chart, with its determinant."""

    matrix: np.ndarray
    det: float


def _check_pd(V: np.ndarray) -> np.ndarray:
    w = np.linalg.eigvalsh(V)
    if w[0] <= 1e-12 * max(abs(w[-1]), 1e-30):
        raise DomainError("covariance matrix must be positive definite and non-singular")
    return w


def metric_closed_form(V, chart: ParamChart) -> MetricAtPoint:
    """Closed-form metric g_mn = (1/2) tr(V^{-1} B_m V^{-1} B_n)."""
    A = require_covariance(V)
    if A.shape[0] != 2 * chart.dim_modes:
        raise InvalidArgumentError("covariance size does not match the chart")
    _check_pd(A)
    Vi = np.linalg.inv(A)
    Y = np.stack([Vi @ B for B in chart.basis])
    g = 0.5 * np.einsum("aij,bji->ab", Y, Y)
    g = 0.5 * (g + g.T)
    ge = np.linalg.eigvalsh(g)
    if ge[0] < -1e-10 * max(1.0, abs(ge[-1])):
        raise NumericError("metric is not positive semidefinite; chart is broken at this point")
    sign, logdet = np.linalg.slogdet(g)
    det_g = float(sign * math.exp(logdet)) if np.isfinite(logdet) else float(sign * np.inf)
    return MetricAtPoint(g=g, det_g=det_g, chart=chart, point=None)


_ORACLE_BLOCK = 1 << 17


def _oracle_stream(ss, count: int, L: np.ndarray, C: np.ndarray, t: np.ndarray):
    rng = np.random.default_rng(ss)
    m = C.shape[0]
    s1 = np.zeros((m, m))
    s2 = np.zeros((m, m))
    done = 0
    while done < count:
        k = min(_ORACLE_BLOCK, count - done)
        z = rng.standard_normal((k, L.shape[0]))
        x = z @ L.T
        q = np.empty((k, m))
        for mu in range(m):
            q[:, mu] = np.einsum("ni,ni->n", x @ C[mu], x)
        s = 0.5 * (q - t)
        prod = s[:, :, None] * s[:, None, :]
        s1 += prod.sum(axis=0)
        s2 += (prod * prod).sum(axis=0)
        done += k
    return count, s1, s2


def metric_mc_oracle(V, chart: ParamChart, n_samples: int, seed, streams: int = 1) -> MetricAtPoint:
    """Sampling estimate of the metric from the score of the Gaussian density.

    Draws xi ~ N(0, V) through a Cholesky factor and averages the products of
    the analytic score components

        d_mu log P = -(1/2) [tr(V^{-1} B_mu) - xi^T V^{-1} B_mu V^{-1} xi].

    The sample budget is split into ``streams`` deterministic substreams, so
    the result depends only on (seed, streams, n_samples).

    Parameters
    ----------
    V : array_like
        Positive definite covariance matrix.
    chart : ParamChart
        Parametrization whose metric is estimated.
    n_samples : int
        Total number of samples, at least 1000.
    seed : int
        Root seed for the substreams, at least 0.
    streams : int
        Number of deterministic substreams.

    Returns
    -------
    MetricAtPoint
        Estimated metric with per-entry standard errors in ``std_errors``.
    """
    if not (_is_int(n_samples) and n_samples >= 1000):
        raise InvalidArgumentError("n_samples must be an integer >= 1_000")
    if not (_is_int(streams) and streams >= 1):
        raise InvalidArgumentError("streams must be an integer >= 1")
    _check_seed(seed)
    A = require_covariance(V)
    if A.shape[0] != 2 * chart.dim_modes:
        raise InvalidArgumentError("covariance size does not match the chart")
    _check_pd(A)
    L = np.linalg.cholesky(A)
    Vi = np.linalg.inv(A)
    t = np.array([float(np.trace(Vi @ B)) for B in chart.basis])
    C = np.stack([Vi @ B @ Vi for B in chart.basis])
    children = np.random.SeedSequence(seed).spawn(streams)
    counts = _partition(n_samples, streams)
    partials = [_oracle_stream(children[i], counts[i], L, C, t) for i in range(streams)]
    n, s1, s2 = _pairwise_reduce(partials, lambda u, v: (u[0] + v[0], u[1] + v[1], u[2] + v[2]))
    mean = s1 / n
    var = np.clip((s2 / n - mean * mean) * (n / (n - 1.0)), 0.0, None)
    se = np.sqrt(var / n)
    g = 0.5 * (mean + mean.T)
    sign, logdet = np.linalg.slogdet(g)
    det_g = float(sign * math.exp(logdet)) if np.isfinite(logdet) else 0.0
    return MetricAtPoint(g=g, det_g=det_g, chart=chart, point=None, std_errors=se)


def volume_element(V, chart: ParamChart) -> float:
    """sqrt(det g) at V; the Riemannian volume density of the chart."""
    mp = metric_closed_form(V, chart)
    if mp.det_g < -1e-12:
        raise NumericError(f"metric determinant is negative: {mp.det_g}")
    return math.sqrt(max(mp.det_g, 0.0))


def bound_matrix(chart: ParamChart) -> BoundMatrix:
    """Constant comparison matrix E_mn = (1/2) tr(B_m B_n) of the chart."""
    B = np.stack(chart.basis)
    E = 0.5 * np.einsum("aij,bji->ab", B, B)
    E = 0.5 * (E + E.T)
    w = np.linalg.eigvalsh(E)
    if w[0] <= 0.0:
        raise NumericError("bound matrix must be positive definite for an independent basis")
    sign, logdet = np.linalg.slogdet(E)
    return BoundMatrix(matrix=_readonly(E), det=float(sign * math.exp(logdet)))


def det_bound_holds(V, chart: ParamChart, slack: float = 1e-9) -> bool:
    """Check det g <= (1 / lambda_min(V))^(2m) * det E, with relative slack.

    The comparison runs in log space and lambda_min comes from a symmetric
    eigensolve, so very small eigenvalues do not overflow the bound.
    """
    A = require_covariance(V)
    mp = metric_closed_form(A, chart)
    if mp.det_g <= 0.0:
        return True
    lam_min = float(np.linalg.eigvalsh(A)[0])
    E = bound_matrix(chart)
    lhs = math.log(mp.det_g)
    rhs = 2.0 * chart.m * math.log(1.0 / lam_min) + math.log(E.det)
    return lhs <= rhs + math.log1p(slack)
