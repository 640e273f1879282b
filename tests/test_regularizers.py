import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import embed_points, sample_canonical
from gaussvol.errors import DomainError, InvalidArgumentError
from gaussvol.metric import volume_element
from gaussvol.regularizers import (
    RegKind,
    RegularizerSpec,
    log1p_det_pow,
    phi,
    regularizer_values,
    upsilon,
)
from gaussvol.states import apply_congruence, mode_permutation_matrix, random_symplectic
from gaussvol.twomode import (DomainTag, canonical_chart, canonical_det, canonical_embed,
                              canonical_trace_adjugate, volume_density)


def test_spec_construction():
    e = RegularizerSpec.energy(8.0)
    assert e.kind is RegKind.ENERGY_PHI and e.bound_E == 8.0 and e.m == 4
    u = RegularizerSpec.adjugate(5.0, m=3)
    assert u.kind is RegKind.ADJUGATE_UPSILON and u.kappa == 5.0 and u.m == 3
    with pytest.raises(InvalidArgumentError):
        RegularizerSpec(kind=RegKind.ENERGY_PHI, m=4, bound_E=None, kappa=None)
    with pytest.raises(InvalidArgumentError):
        RegularizerSpec(kind=RegKind.ENERGY_PHI, m=4, bound_E=8.0, kappa=5.0)
    with pytest.raises(InvalidArgumentError):
        RegularizerSpec(kind=RegKind.ADJUGATE_UPSILON, m=4, bound_E=8.0, kappa=None)
    with pytest.raises(InvalidArgumentError):
        RegularizerSpec.energy(-1.0)
    with pytest.raises(InvalidArgumentError):
        RegularizerSpec.adjugate(5.0, m=0)


def test_spec_m_is_an_integer_not_a_bool():
    # m=True was taken as m = 1, and numpy's integers were refused
    for bad in (True, False, 4.0, "4", 0, np.int64(0)):
        with pytest.raises(InvalidArgumentError, match="m must be"):
            RegularizerSpec.energy(8.0, m=bad)
    spec = RegularizerSpec.adjugate(5.0, m=np.int64(4))
    assert spec == RegularizerSpec.adjugate(5.0) and type(spec.m) is int


def test_log1p_det_pow_values():
    assert log1p_det_pow(1.0, 4) == pytest.approx(math.log(2.0), rel=1e-14)
    assert log1p_det_pow(16.0, 4) == pytest.approx(math.log(65537.0), rel=1e-14)
    assert log1p_det_pow(0.0, 4) == 0.0
    # vector input
    out = log1p_det_pow(np.array([1.0, 16.0]), 4)
    assert_allclose(out, [math.log(2.0), math.log(65537.0)])


def test_log1p_det_pow_overflow_guard():
    # past the crossover the function returns m*log(det) directly
    big = 1e100
    assert log1p_det_pow(big, 4) == pytest.approx(4 * math.log(big), rel=1e-14)
    # continuity across the crossover at m*log(det) = 700
    x_lo = math.exp(699.9 / 4)
    x_hi = math.exp(700.1 / 4)
    lo, hi = log1p_det_pow(x_lo, 4), log1p_det_pow(x_hi, 4)
    assert hi > lo
    assert hi - lo == pytest.approx(0.2, abs=1e-9)


def test_log1p_small_det_limit():
    # log(1+x)/x -> 1: phi equals (det V)^m to 1e-6 relative at det V = 1e-8
    detv = 1e-8
    val = log1p_det_pow(detv, 4)
    assert val / detv**4 == pytest.approx(1.0, abs=1e-6)


def test_phi_frozen_values():
    V = np.eye(4)
    assert phi(V, RegularizerSpec.energy(10.0)) == pytest.approx(math.log(2.0), rel=1e-14)
    assert phi(V, RegularizerSpec.energy(3.0)) == 0.0
    # tr V = 4 exactly at the bound: the cutoff is inclusive
    assert phi(V, RegularizerSpec.energy(4.0)) == pytest.approx(math.log(2.0), rel=1e-14)
    V2 = canonical_embed((2.0, 2.0, 1.0, -1.0))
    assert phi(V2, RegularizerSpec.energy(10.0)) == pytest.approx(math.log(6562.0), rel=1e-13)


def test_phi_validates():
    with pytest.raises(InvalidArgumentError):
        phi(np.eye(4), RegularizerSpec.adjugate(5.0))
    with pytest.raises(DomainError):
        phi(np.diag([1.0, 1.0, 1.0, -1.0]), RegularizerSpec.energy(10.0))


def test_upsilon_frozen_values():
    assert upsilon(np.eye(4), RegularizerSpec.adjugate(4.0)) == pytest.approx(
        math.exp(-1.0) * math.log(2.0), rel=1e-14
    )
    V = np.diag([2.0, 2.0, 2.0, 2.0])
    assert upsilon(V, RegularizerSpec.adjugate(8.0)) == pytest.approx(
        math.exp(-4.0) * math.log(65537.0), rel=1e-13
    )


def test_upsilon_large_kappa_limit():
    V = canonical_embed((1.5, 1.2, 0.4, -0.3))
    limit = log1p_det_pow(np.linalg.det(V), 4)
    assert upsilon(V, RegularizerSpec.adjugate(1e12)) == pytest.approx(limit, rel=1e-9)


def test_upsilon_validates():
    with pytest.raises(InvalidArgumentError):
        upsilon(np.eye(4), RegularizerSpec.energy(10.0))
    with pytest.raises(DomainError):
        upsilon(np.diag([1.0, -1.0, 1.0, 1.0]), RegularizerSpec.adjugate(5.0))


def test_upsilon_permutation_invariance():
    rng = np.random.default_rng(1234)
    spec = RegularizerSpec.adjugate(6.0)
    P = mode_permutation_matrix([1, 0])
    pts = sample_canonical(rng, 50, DomainTag.CLASSICAL)
    for V in embed_points(pts):
        base = upsilon(V, spec)
        assert upsilon(apply_congruence(V, P), spec) == pytest.approx(base, rel=1e-12)


def test_upsilon_not_symplectic_invariant():
    # adj(S^T V S) = S^{-1} adj(V) S^{-T} has a different trace unless S is
    # orthogonal, so a single-mode squeezer changes the damping factor
    spec = RegularizerSpec.adjugate(4.0)
    V = np.eye(4)
    r = 1.0
    S = np.diag([math.exp(r), math.exp(-r), 1.0, 1.0])
    moved = upsilon(apply_congruence(V, S), spec)
    base = upsilon(V, spec)
    expected = math.exp(-(math.exp(2) + math.exp(-2) + 2.0) / 4.0) * math.log(2.0)
    assert moved == pytest.approx(expected, rel=1e-12)
    assert abs(moved - base) / base > 0.5


def test_upsilon_invariant_under_orthogonal_symplectic():
    # the compact subgroup (orthogonal symplectics, e.g. phase rotations)
    # preserves the spectrum and hence the adjugate trace
    theta = 0.7
    R = np.array(
        [
            [math.cos(theta), math.sin(theta), 0, 0],
            [-math.sin(theta), math.cos(theta), 0, 0],
            [0, 0, 1.0, 0],
            [0, 0, 0, 1.0],
        ]
    )
    from gaussvol.states import is_symplectic

    assert is_symplectic(R, tol=1e-12)
    spec = RegularizerSpec.adjugate(3.0)
    V = canonical_embed((2.0, 1.5, 0.5, -0.2))
    assert upsilon(apply_congruence(V, R), spec) == pytest.approx(upsilon(V, spec), rel=1e-12)


def test_phi_non_invariance_witness():
    # squeezing moves tr V across the energy bound while det V stays put
    spec = RegularizerSpec.energy(10.0)
    V = canonical_embed((2.0, 2.0, 0.0, 0.0))
    S = np.diag([math.e, 1.0 / math.e, 1.0, 1.0])
    W = apply_congruence(V, S)
    assert np.trace(V) <= 10.0 < np.trace(W)
    assert phi(V, spec) > 0.0
    assert phi(W, spec) == 0.0
    assert np.linalg.det(W) == pytest.approx(np.linalg.det(V), rel=1e-12)


def test_regularized_volume_element_bounded():
    # Phi*sqrt(det g) and Upsilon*sqrt(det g) stay finite even close to the
    # det V = 0 boundary where the metric itself blows up
    rng = np.random.default_rng(77)
    chart = canonical_chart()
    pts = sample_canonical(rng, 200, DomainTag.CLASSICAL, margin=1e-9)
    # push half the points toward the singular surface c^2 = ab
    for i in range(0, 200, 2):
        a, b, _, d = pts[i]
        eps = 10.0 ** rng.uniform(-7, -4)
        pts[i] = (a, b, math.sqrt(a * b) - eps, min(abs(d), 0.5 * math.sqrt(a * b)))
    phis = RegularizerSpec.energy(12.0)
    upss = RegularizerSpec.adjugate(5.0)
    worst_det = np.inf
    for p in pts:
        V = canonical_embed(p)
        detv = float(np.linalg.det(V))
        worst_det = min(worst_det, detv)
        ve = volume_element(V, chart)
        assert math.isfinite(phi(V, phis) * ve)
        assert math.isfinite(upsilon(V, upss) * ve)
    assert worst_det < 1e-6  # near-singular points are genuinely exercised


# ------------------------------------------------- closed forms on any shape

_CLOSED_FORMS = {
    "canonical_det": canonical_det,
    "canonical_trace_adjugate": canonical_trace_adjugate,
    "volume_density": volume_density,
    "energy": lambda a, b, c, d: regularizer_values(a, b, c, d, RegularizerSpec.energy(8.0)),
    "adj": lambda a, b, c, d: regularizer_values(a, b, c, d, RegularizerSpec.adjugate(5.0)),
    # ab = 1e80 at the last a, b row puts m log(ab - cd) past the 700 crossover
    "log1p_det_pow": lambda a, b, c, d: log1p_det_pow(np.multiply(a, b) - np.multiply(c, d), 4),
}


@pytest.mark.parametrize("name", list(_CLOSED_FORMS))
def test_closed_forms_broadcast_bit_for_bit(name):
    f = _CLOSED_FORMS[name]
    # classical points inside and outside the energy cutoff, points off the
    # classical domain (density 0) and one far out (tr V > E, damping 0)
    a = np.array([[0.5], [1.5], [3.0], [1e40]])
    b = np.array([[2.0], [1.2], [3.5], [1e40]])
    c = np.array([0.0, 0.3, -0.9, 1.7, 5.0])
    d = np.array([0.1, -0.4, 0.8, -1.6, 0.0])
    grid = f(a, b, c, d)
    assert grid.shape == (4, 5)
    flat = f(*(x.ravel() for x in np.broadcast_arrays(a, b, c, d)))
    assert flat.shape == (20,) and flat.tobytes() == grid.ravel().tobytes()
    for i in range(4):
        for j in range(5):
            one = f(float(a[i, 0]), float(b[i, 0]), float(c[j]), float(d[j]))
            assert np.ndim(one) == 0, type(one)
            assert np.float64(one).tobytes() == grid[i, j].tobytes(), (i, j)
