import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import embed_points, random_covariance, sample_canonical
from gaussvol.errors import DomainError, InvalidArgumentError
from gaussvol.metric import (
    ParamChart,
    bound_matrix,
    det_bound_holds,
    full_chart,
    metric_closed_form,
    metric_mc_oracle,
    param_index,
    volume_element,
)
from gaussvol.states import mode_permutation_matrix, random_symplectic
from gaussvol.twomode import DomainTag, canonical_chart, canonical_embed


@pytest.mark.parametrize(
    "mu,nu,expected",
    [(1, 1, 1), (1, 2, 2), (1, 3, 3), (1, 4, 4), (2, 2, 5), (2, 3, 6),
     (2, 4, 7), (3, 3, 8), (3, 4, 9), (4, 4, 10)],
)
def test_param_index_two_modes(mu, nu, expected):
    assert param_index(mu, nu, 2) == expected


def test_param_index_validates():
    with pytest.raises(InvalidArgumentError):
        param_index(2, 1, 2)
    with pytest.raises(InvalidArgumentError):
        param_index(0, 1, 2)
    with pytest.raises(InvalidArgumentError):
        param_index(1, 5, 2)


def test_full_chart_two_modes():
    chart = full_chart(2)
    assert chart.m == 8  # 10 upper-triangular entries minus 2 same-mode q-p pairs
    assert "V12" not in chart.names
    assert "V34" not in chart.names
    assert chart.index_map(1, 1) == 1
    assert chart.index_map(1, 3) == 3
    assert chart.index_map(3, 1) == 3  # order immaterial
    assert chart.index_map(4, 4) == 10
    assert chart.index_map(1, 2) is None
    assert chart.index_map(3, 4) is None


def test_full_chart_one_mode():
    chart = full_chart(1)
    assert chart.m == 2
    assert chart.names == ("V11", "V22")


def test_chart_validation():
    B_ok = np.eye(4)
    with pytest.raises(InvalidArgumentError):
        ParamChart(2, (np.ones((2, 2)),))  # wrong size
    asym = np.zeros((4, 4))
    asym[0, 1] = 1.0
    with pytest.raises(InvalidArgumentError):
        ParamChart(2, (asym,))
    with pytest.raises(InvalidArgumentError):
        ParamChart(2, (B_ok, 2.0 * B_ok))  # dependent
    with pytest.raises(InvalidArgumentError):
        ParamChart(2, (B_ok,), names=("x", "y"))


def test_chart_basis_readonly():
    chart = canonical_chart()
    with pytest.raises(ValueError):
        chart.basis[0][0, 0] = 5.0


def test_metric_identity_point():
    at = metric_closed_form(np.eye(4), canonical_chart())
    assert_allclose(at.g, np.eye(4), atol=1e-14)
    assert at.det_g == pytest.approx(1.0, rel=1e-12)


def test_metric_diagonal_point():
    # V = diag(2,2,1,1) in the standard form is (a,b,c,d) = (2,1,0,0)
    V = np.diag([2.0, 2.0, 1.0, 1.0])
    at = metric_closed_form(V, canonical_chart())
    assert_allclose(at.g, np.diag([0.25, 1.0, 0.5, 0.5]), atol=1e-14)
    assert at.det_g == pytest.approx(0.0625, rel=1e-12)
    assert volume_element(V, canonical_chart()) == pytest.approx(0.25, rel=1e-12)


def test_metric_single_mode_full_chart():
    at = metric_closed_form(np.diag([2.0, 1.0]), full_chart(1))
    assert_allclose(at.g, np.diag([0.125, 0.5]), atol=1e-14)
    assert at.det_g == pytest.approx(0.0625, rel=1e-12)


def test_metric_requires_positive_definite():
    with pytest.raises(DomainError):
        metric_closed_form(np.diag([1.0, 1.0, 1.0, 0.0]), canonical_chart())
    with pytest.raises(InvalidArgumentError):
        metric_closed_form(np.eye(6), canonical_chart())


def test_metric_entrywise_congruence_invariance():
    # pushing the chart forward along M^T V M reproduces the same matrix g
    rng = np.random.default_rng(17)
    chart = full_chart(2)
    for k in range(10):
        V = random_covariance(rng, 4, shift=0.4)
        S = random_symplectic(2, 0.7, seed=300 + k)
        base = metric_closed_form(V, chart)
        moved = metric_closed_form(S.T @ V @ S, chart.pushforward(S))
        assert_allclose(moved.g, base.g, rtol=1e-8, atol=1e-10)


def test_pushforward_validates():
    with pytest.raises(InvalidArgumentError):
        canonical_chart().pushforward(np.zeros((4, 4)))
    with pytest.raises(InvalidArgumentError):
        canonical_chart().pushforward(np.eye(2))


def test_volume_element_mode_swap():
    P = mode_permutation_matrix([1, 0])
    chart = canonical_chart()
    rng = np.random.default_rng(23)
    pts = sample_canonical(rng, 25, DomainTag.CLASSICAL)
    for V in embed_points(pts):
        v0 = volume_element(V, chart)
        v1 = volume_element(P.T @ V @ P, chart.pushforward(P))
        assert v1 == pytest.approx(v0, rel=1e-12)


def test_bound_matrix_canonical_is_identity():
    bm = bound_matrix(canonical_chart())
    assert_allclose(bm.matrix, np.eye(4), atol=1e-15)
    assert bm.det == pytest.approx(1.0, abs=1e-12)


def test_bound_matrix_full_chart():
    bm = bound_matrix(full_chart(2))
    # diagonal directions contribute 1/2, two-sided off-diagonal directions 1
    assert bm.det == pytest.approx(0.0625, rel=1e-12)


def test_det_bound_on_random_points():
    rng = np.random.default_rng(31)
    pts = sample_canonical(rng, 200, DomainTag.CLASSICAL)
    chart = canonical_chart()
    for V in embed_points(pts):
        assert det_bound_holds(V, chart)
    full = full_chart(2)
    for _ in range(50):
        V = random_covariance(rng, 4, shift=0.2)
        assert det_bound_holds(V, full)


def test_det_bound_equality_at_isotropic_point():
    # V = 2*I has lambda_min = 2 and det g = (1/2)^8 = rhs exactly
    V = 2.0 * np.eye(4)
    at = metric_closed_form(V, canonical_chart())
    assert at.det_g == pytest.approx(2.0 ** -8, rel=1e-12)
    assert det_bound_holds(V, canonical_chart(), slack=1e-12)


def test_oracle_matches_closed_form():
    chart = canonical_chart()
    V = canonical_embed((1.5, 1.2, 0.4, -0.3))
    closed = metric_closed_form(V, chart)
    est = metric_mc_oracle(V, chart, 200_000, seed=424242, streams=4)
    assert est.std_errors is not None
    assert (est.std_errors > 0).all()
    dev = np.abs(est.g - closed.g) / est.std_errors
    assert dev.max() < 4.0


def test_oracle_deterministic():
    chart = canonical_chart()
    V = np.eye(4)
    a = metric_mc_oracle(V, chart, 20_000, seed=9, streams=3)
    b = metric_mc_oracle(V, chart, 20_000, seed=9, streams=3)
    assert_allclose(a.g, b.g, rtol=0, atol=0)
    assert_allclose(a.std_errors, b.std_errors, rtol=0, atol=0)
    c = metric_mc_oracle(V, chart, 20_000, seed=10, streams=3)
    assert np.abs(c.g - a.g).max() > 0


def test_oracle_stream_split_consistent():
    # different stream counts give different but statistically compatible means
    chart = full_chart(1)
    V = np.diag([2.0, 1.0])
    a = metric_mc_oracle(V, chart, 100_000, seed=5, streams=1)
    b = metric_mc_oracle(V, chart, 100_000, seed=5, streams=7)
    se = np.hypot(a.std_errors, b.std_errors)
    assert (np.abs(a.g - b.g) < 5.0 * se).all()


def test_oracle_validates():
    with pytest.raises(InvalidArgumentError):
        metric_mc_oracle(np.eye(4), canonical_chart(), 10, seed=1)
    with pytest.raises(InvalidArgumentError):
        metric_mc_oracle(np.eye(4), canonical_chart(), 5000, seed=1, streams=0)
    with pytest.raises(DomainError):
        metric_mc_oracle(np.diag([1.0, -1.0, 1.0, 1.0]), canonical_chart(), 5000, seed=1)


@pytest.mark.parametrize("arg,value", [
    ("n_samples", 2000.5),
    ("streams", 1.5),
    ("streams", True),
    ("seed", -1),
    ("seed", 1.5),
    ("seed", None),
])
def test_oracle_rejects_bad_counts_and_seeds(arg, value):
    # each used to raise numpy's bare TypeError or ValueError, or (streams=True) to run
    kwargs = dict(n_samples=2000, seed=1, streams=1)
    kwargs[arg] = value
    with pytest.raises(InvalidArgumentError, match=arg):
        metric_mc_oracle(np.eye(4), canonical_chart(), **kwargs)
