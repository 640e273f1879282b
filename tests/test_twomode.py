"""Standard-form chart: embedding, explicit metric, domains, invariants."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gaussvol.cli import main
from gaussvol.errors import AsymmetricMatrixError, DomainError, InvalidArgumentError
from gaussvol.integrate import IntegrationRequest, mc_joint_volumes, phi_box
from gaussvol.metric import metric_closed_form, volume_element
from gaussvol.regularizers import RegularizerSpec
from gaussvol.states import (
    StateClass,
    classify,
    is_quantum,
    partial_transpose_two_mode,
    symplectic_eigenvalues,
)
from gaussvol.twomode import (
    CanonicalPoint,
    DomainTag,
    canonical_chart,
    canonical_det,
    canonical_embed,
    canonical_extract,
    canonical_trace_adjugate,
    closed_form_metric,
    domain_bounds,
    domain_labels,
    domain_mask,
    in_domain,
    metric_components,
    simon_invariants,
    volume_density,
    _class_limits,
)

from conftest import sample_canonical


def test_embed_layout():
    V = canonical_embed(CanonicalPoint(2.0, 1.0, 0.5, -0.25))
    expect = np.array(
        [
            [2.0, 0.0, 0.5, 0.0],
            [0.0, 2.0, 0.0, -0.25],
            [0.5, 0.0, 1.0, 0.0],
            [0.0, -0.25, 0.0, 1.0],
        ]
    )
    assert np.array_equal(V, expect)


def test_extract_round_trip():
    rng = np.random.default_rng(11)
    for _ in range(20):
        p = CanonicalPoint(*rng.uniform(0.3, 3.0, size=2), *rng.uniform(-1.0, 1.0, size=2))
        q = canonical_extract(canonical_embed(p))
        assert q == pytest.approx(tuple(p), abs=0.0)


def test_extract_rejects_off_form():
    V = canonical_embed(CanonicalPoint(2.0, 1.0, 0.5, 0.0))
    V[0, 1] = V[1, 0] = 1e-10
    with pytest.raises(InvalidArgumentError):
        canonical_extract(V)
    # explicit tolerance admits the same perturbation
    p = canonical_extract(V, atol=1e-8)
    assert p.a == 2.0


def test_extract_rejects_wrong_size_and_asymmetry():
    with pytest.raises(InvalidArgumentError):
        canonical_extract(np.eye(6))
    bad = canonical_embed(CanonicalPoint(2.0, 1.0, 0.5, 0.0))
    bad[0, 2] += 1e-3
    with pytest.raises(AsymmetricMatrixError):
        canonical_extract(bad)


def test_canonical_chart_basis():
    chart = canonical_chart()
    assert chart.dim_modes == 2
    assert chart.names == ("a", "b", "c", "d")
    assert len(chart.basis) == 4
    # directions are dV/da etc.: embedding is affine in the parameters
    p0 = CanonicalPoint(1.5, 1.2, 0.3, -0.2)
    V0 = canonical_embed(p0)
    for k, step in enumerate(np.eye(4) * 0.25):
        p1 = CanonicalPoint(*(np.array(p0) + step))
        assert np.allclose(canonical_embed(p1) - V0, 0.25 * chart.basis[k])


def test_canonical_chart_cached():
    assert canonical_chart() is canonical_chart()


@pytest.mark.parametrize(
    "point,expect",
    [
        ((1.0, 1.0, 0.0, 0.0), 1.0),
        ((2.0, 1.0, 1.4, 0.0), 0.08),
        ((2.0, 2.0, 1.0, -1.0), 9.0),
        ((2.0, 2.0, 1.4, -1.4), 4.1616),
    ],
)
def test_canonical_det_frozen(point, expect):
    a, b, c, d = point
    assert canonical_det(a, b, c, d) == pytest.approx(expect, rel=1e-14)
    assert np.linalg.det(canonical_embed(CanonicalPoint(*point))) == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize(
    "point,expect",
    [
        ((1.0, 1.0, 0.0, 0.0), 4.0),
        ((2.0, 1. , 0.0, 0.0), 12.0),
        ((2.0, 2.0, 0.0, 0.0), 32.0),
        ((2.0, 2.0, 1.0, -1.0), 24.0),
    ],
)
def test_trace_adjugate_frozen(point, expect):
    assert canonical_trace_adjugate(*point) == pytest.approx(expect, rel=1e-14)


def test_trace_adjugate_matches_factored_form():
    # tr adj V = (a + b)(2ab - c^2 - d^2) on the standard form
    rng = np.random.default_rng(29)
    a = rng.uniform(0.2, 4.0, size=500)
    b = rng.uniform(0.2, 4.0, size=500)
    c = rng.uniform(-2.0, 2.0, size=500)
    d = rng.uniform(-2.0, 2.0, size=500)
    lhs = canonical_trace_adjugate(a, b, c, d)
    rhs = (a + b) * (2.0 * a * b - c * c - d * d)
    assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def test_trace_adjugate_matches_cofactor_sum():
    from gaussvol.states import adjugate

    rng = np.random.default_rng(31)
    for _ in range(25):
        p = CanonicalPoint(*rng.uniform(0.3, 3.0, size=2), *rng.uniform(-0.8, 0.8, size=2))
        direct = float(np.trace(adjugate(canonical_embed(p))))
        assert canonical_trace_adjugate(*p) == pytest.approx(direct, rel=1e-10)


def test_metric_components_frozen_diag():
    g = metric_components(2.0, 1.0, 0.0, 0.0)
    assert g.shape == (4, 4)
    assert np.allclose(g, np.diag([0.25, 1.0, 0.5, 0.5]), atol=1e-15)


def test_metric_components_hand_value():
    # g_ac = -bc / (ab - c^2)^2 at (2, 2, 1, 0)
    g = metric_components(2.0, 2.0, 1.0, 0.0)
    assert g[0, 2] == pytest.approx(-2.0 / 9.0, rel=1e-14)
    assert g[2, 0] == g[0, 2]


def test_metric_components_cd_block_vanishes():
    rng = np.random.default_rng(37)
    pts = sample_canonical(rng, 300, DomainTag.CLASSICAL)
    g = metric_components(pts[:, 0], pts[:, 1], pts[:, 2], pts[:, 3])
    assert g.shape == (300, 4, 4)
    assert np.all(g[:, 2, 3] == 0.0)
    assert np.allclose(g, np.swapaxes(g, -1, -2))


def test_metric_components_matches_generic():
    rng = np.random.default_rng(41)
    chart = canonical_chart()
    pts = sample_canonical(rng, 50, DomainTag.CLASSICAL, margin=1e-3)
    for p in pts:
        direct = metric_components(*p)
        generic = metric_closed_form(canonical_embed(CanonicalPoint(*p)), chart)
        assert np.allclose(direct, generic.g, rtol=1e-9, atol=1e-12)


def test_closed_form_metric_agrees_with_volume_element():
    rng = np.random.default_rng(43)
    chart = canonical_chart()
    pts = sample_canonical(rng, 50, DomainTag.CLASSICAL, margin=1e-3)
    for p in pts:
        m = closed_form_metric(CanonicalPoint(*p))
        assert m.det_g > 0.0
        ve = volume_element(canonical_embed(CanonicalPoint(*p)), chart)
        assert math.sqrt(m.det_g) == pytest.approx(ve, rel=1e-9)


def test_closed_form_metric_singular():
    with pytest.raises(DomainError):
        closed_form_metric(CanonicalPoint(1.0, 1.0, 1.0, 0.0))
    with pytest.raises(DomainError):
        closed_form_metric(CanonicalPoint(2.0, 2.0, 0.0, 2.0))


def test_metric_components_no_domain_checks():
    # singular input yields non-finite entries instead of raising
    g = metric_components(1.0, 1.0, 1.0, 0.0)
    assert not np.isfinite(g).all()


def test_volume_density_matches_slogdet():
    # closed-form sqrt(det g) vs the log-determinant of the explicit metric,
    # away from the singular surfaces ab = c^2 and ab = d^2
    rng = np.random.default_rng(67)
    a, b, c, d = rng.uniform([0.0, 0.0, -3.0, -3.0], [4.0, 4.0, 3.0, 3.0], size=(200_000, 4)).T
    ab = a * b
    keep = np.flatnonzero((np.minimum(ab - c * c, ab - d * d) / ab >= 1e-3) & (ab > 0.0))[:10_000]
    assert keep.size == 10_000
    a, b, c, d = a[keep], b[keep], c[keep], d[keep]
    sign, logdet = np.linalg.slogdet(metric_components(a, b, c, d))
    assert np.all(sign > 0.0)
    assert np.allclose(volume_density(a, b, c, d), np.sqrt(np.exp(logdet)), rtol=1e-9, atol=0.0)


def test_volume_density_cli_example():
    # det g = 1/16 at (2, 1, 0, 0), the metric diag(1/4, 1, 1/2, 1/2)
    assert volume_density(2.0, 1.0, 0.0, 0.0) == 0.25


def test_volume_density_zero_off_classical():
    rng = np.random.default_rng(71)
    a, b, c, d = rng.uniform([-1.0, -1.0, -4.0, -4.0], [4.0, 4.0, 4.0, 4.0], size=(20_000, 4)).T
    off = domain_labels(a, b, c, d, 0.0) == 0
    assert off.sum() > 1000
    assert np.all(volume_density(a[off], b[off], c[off], d[off]) == 0.0)
    # on the singular surface ab = c^2 itself
    assert volume_density(1.0, 1.0, 1.0, 0.0) == 0.0


@pytest.mark.parametrize(
    "point,label",
    [
        ((1.0, 1.0, 2.0, 0.0), 0),     # |c| > sqrt(ab): not even positive definite
        ((0.5, 0.5, 0.0, 0.0), 1),     # classical, violates the uncertainty relation
        ((2.0, 2.0, 0.5, -0.5), 2),    # separable
        ((2.0, 2.0, 1.6, -1.6), 3),    # entangled
        # a fifth entry is tol: at tol = 0 the boundary nu_- = 1 is quantum
        ((1.0, 1.0, 0.0, 0.0, 0.0), 2),  # the vacuum
        ((1.0, 4.0, 0.0, 0.0, 0.0), 2),  # min(a, b) = 1
        ((1.0, 4.0, 1.19e-116, 0.0, 0.0), 2),  # 1.2e-116 from the last one
    ],
)
def test_domain_labels_frozen(point, label):
    out = domain_labels(*point)
    assert out.dtype == np.uint8 and out.shape == ()
    assert out == label


def test_domain_labels_views():
    rng = np.random.default_rng(73)
    a, b, c, d = rng.uniform([0.0, 0.0, -2.0, -2.0], [4.0, 4.0, 2.0, 2.0], size=(20_000, 4)).T
    lab = domain_labels(a, b, c, d)
    assert set(np.unique(lab)) == {0, 1, 2, 3}
    assert np.array_equal(domain_mask(a, b, c, d, DomainTag.CLASSICAL), lab >= 1)
    assert np.array_equal(domain_mask(a, b, c, d, DomainTag.QUANTUM), lab >= 2)
    assert np.array_equal(domain_mask(a, b, c, d, DomainTag.SEPARABLE), lab == 2)
    assert np.array_equal(domain_mask(a, b, c, d, DomainTag.ENTANGLED), lab == 3)
    # broadcasting keeps the input shape
    assert domain_labels(a.reshape(100, 200), 2.0, 0.0, 0.0).shape == (100, 200)


def test_domain_bounds_frozen():
    bounds = domain_bounds(CanonicalPoint(2.0, 2.0, 0.0, 0.0))
    assert bounds.c1 == pytest.approx(3.0)
    assert bounds.c2 == pytest.approx(3.0)
    assert bounds.c3 == pytest.approx(2.25)
    assert bounds.delta == pytest.approx(36.0)
    assert bounds.d1 == pytest.approx(-1.5)
    assert bounds.d2 == pytest.approx(1.5)
    assert not bounds.d_range_empty


def test_domain_bounds_empty_interval():
    # a < 1 leaves no quantum d-range at c = 0
    bounds = domain_bounds(CanonicalPoint(0.5, 2.0, 0.0, 0.0))
    assert bounds.delta == pytest.approx(-2.25)
    assert bounds.d1 == math.inf
    assert bounds.d2 == -math.inf
    assert bounds.d_range_empty


def test_domain_bounds_validates():
    with pytest.raises(InvalidArgumentError):
        domain_bounds(CanonicalPoint(0.0, 1.0, 0.0, 0.0))
    with pytest.raises(InvalidArgumentError):
        domain_bounds(CanonicalPoint(1.0, -1.0, 0.0, 0.0))


def test_domain_mask_tol_direction():
    # +tol includes the classical boundary point c = sqrt(ab); -tol excludes it
    assert domain_mask(1.0, 1.0, 1.0, 0.0, DomainTag.CLASSICAL, 1e-9)
    assert not domain_mask(1.0, 1.0, 1.0, 0.0, DomainTag.CLASSICAL, -1e-9)
    # same for the quantum vacuum boundary a = b = 1
    assert domain_mask(1.0, 1.0, 0.0, 0.0, DomainTag.QUANTUM, 1e-9)
    assert not domain_mask(1.0 - 1e-8, 1.0, 0.0, 0.0, DomainTag.QUANTUM, 1e-9)


def test_domain_mask_rejects_unknown_tag():
    with pytest.raises(InvalidArgumentError):
        domain_mask(1.0, 1.0, 0.0, 0.0, "classical")


def test_domain_nesting():
    rng = np.random.default_rng(47)
    n = 20000
    a = rng.uniform(0.0, 4.0, size=n)
    b = rng.uniform(0.0, 4.0, size=n)
    c = rng.uniform(-2.0, 2.0, size=n)
    d = rng.uniform(-2.0, 2.0, size=n)
    mc = domain_mask(a, b, c, d, DomainTag.CLASSICAL)
    mq = domain_mask(a, b, c, d, DomainTag.QUANTUM)
    ms = domain_mask(a, b, c, d, DomainTag.SEPARABLE)
    me = domain_mask(a, b, c, d, DomainTag.ENTANGLED)
    assert np.all(mq <= mc)
    assert np.all(ms <= mq)
    assert np.array_equal(me, mq & ~ms)
    # each class is actually populated in this box
    assert ms.sum() > 0 and me.sum() > 0 and (mc & ~mq).sum() > 0


def test_quantum_mask_matches_spectral_test():
    # inequality description vs symplectic eigenvalue test, away from boundaries
    rng = np.random.default_rng(53)
    n = 2000
    a = rng.uniform(0.2, 3.5, size=n)
    b = rng.uniform(0.2, 3.5, size=n)
    c = rng.uniform(-1.8, 1.8, size=n)
    d = rng.uniform(-1.8, 1.8, size=n)
    mask = domain_mask(a, b, c, d, DomainTag.QUANTUM)
    for i in range(n):
        p = CanonicalPoint(a[i], b[i], c[i], d[i])
        V = canonical_embed(p)
        if np.linalg.eigvalsh(V)[0] <= 1e-10:
            spectral = False
        else:
            nu_min = symplectic_eigenvalues(V).min()
            if abs(nu_min - 1.0) <= 1e-8:
                continue  # tolerance conventions may differ inside this band
            spectral = is_quantum(V)
        assert bool(mask[i]) == spectral, (i, tuple(p))


def test_separable_mask_matches_ppt_test():
    rng = np.random.default_rng(59)
    pts = sample_canonical(rng, 400, DomainTag.QUANTUM, margin=1e-6)
    ms = domain_mask(pts[:, 0], pts[:, 1], pts[:, 2], pts[:, 3], DomainTag.SEPARABLE)
    for i, p in enumerate(pts):
        V = canonical_embed(CanonicalPoint(*p))
        nu_ppt = symplectic_eigenvalues(partial_transpose_two_mode(V)).min()
        if abs(nu_ppt - 1.0) <= 1e-8:
            continue
        assert bool(ms[i]) == (nu_ppt >= 1.0), (i, tuple(p))


def test_two_mode_squeezed_boundary_membership():
    r = 0.5
    ch, sh = math.cosh(2.0 * r), math.sinh(2.0 * r)
    p = CanonicalPoint(ch, ch, sh, -sh)
    assert in_domain(p, DomainTag.QUANTUM, 1e-9)
    assert in_domain(p, DomainTag.ENTANGLED, 1e-9)
    assert not in_domain(p, DomainTag.SEPARABLE, -1e-6)
    # pure state sits on the quantum boundary: shrinking pushes it out
    assert not in_domain(p, DomainTag.QUANTUM, -1e-6)


def test_simon_invariants_degenerate_point():
    inv = simon_invariants(CanonicalPoint(2.0, 2.0, 1.4, -1.4))
    assert inv.delta_tilde == pytest.approx(4.08, rel=1e-14)
    assert inv.det_v == pytest.approx(4.1616, rel=1e-14)
    assert inv.nu_minus == pytest.approx(math.sqrt(2.04), rel=1e-12)
    assert inv.nu_plus == pytest.approx(math.sqrt(2.04), rel=1e-12)


def test_simon_invariants_exact_point():
    inv = simon_invariants(CanonicalPoint(2.0, 2.0, 1.4, 1.4))
    assert inv.delta_tilde == pytest.approx(11.92, rel=1e-14)
    assert inv.nu_minus == pytest.approx(0.6, rel=1e-12)
    assert inv.nu_plus == pytest.approx(3.4, rel=1e-12)


def test_simon_invariants_match_spectral():
    rng = np.random.default_rng(61)
    pts = sample_canonical(rng, 200, DomainTag.CLASSICAL, margin=1e-4)
    for p in pts:
        V = canonical_embed(CanonicalPoint(*p))
        inv = simon_invariants(CanonicalPoint(*p))
        nus = symplectic_eigenvalues(V)
        assert inv.nu_minus == pytest.approx(nus[0], rel=1e-9)
        assert inv.nu_plus == pytest.approx(nus[-1], rel=1e-9)


def test_simon_invariants_requires_positive_definite():
    with pytest.raises(DomainError):
        simon_invariants(CanonicalPoint(1.0, 1.0, 1.5, 0.0))


def test_in_domain_returns_bool():
    out = in_domain(CanonicalPoint(2.0, 2.0, 0.5, -0.5), DomainTag.SEPARABLE)
    assert isinstance(out, bool)
    assert out


_LABEL_CLASS = {
    0: StateClass.NOT_A_STATE,
    1: StateClass.CLASSICAL_ONLY,
    2: StateClass.QUANTUM_SEPARABLE,
    3: StateClass.QUANTUM_ENTANGLED,
}


@st.composite
def _standard_form_points(draw):
    # c and d scale with sqrt(ab), so every class, boundaries included, gets hit
    fl = lambda lo, hi: st.floats(lo, hi, allow_nan=False, allow_subnormal=False)
    a = draw(fl(-0.5, 6.0))
    b = draw(fl(-0.5, 6.0))
    r = math.sqrt(max(a * b, 0.0))
    return a, b, draw(fl(-1.1, 1.1)) * r, draw(fl(-1.1, 1.1)) * r


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_standard_form_points())
@example((-1.0, 2.0, 0.0, 0.0))
@example((0.5, 0.5, 0.0, 0.0))
@example((2.0, 3.0, 1.0, -1.0))
@example((2.0, 2.0, 1.5, -1.5))
@example((1.0, 4.0, 1.19e-116, 0.0))
def test_labels_match_spectral_classify(p):
    # labels vs eigenvalue, symplectic-spectrum and PPT tests, away from 1e-8 boundary bands
    a, b, c, d = p
    label = int(domain_labels(a, b, c, d, 0.0))
    assume(int(domain_labels(a, b, c, d, 1e-8)) == int(domain_labels(a, b, c, d, -1e-8)))
    V = canonical_embed(CanonicalPoint(a, b, c, d))
    assert classify(V, tol=0.0) is _LABEL_CLASS[label]


def _near_label_surfaces(rng, n, tol):
    """(a, b, c, d) on and within a few |tol| of the surfaces that bound labels 2 and 3.

    Those are X(d) = 0 and X(-d) = 0 (the ends of the d-interval and their
    mirrors), |c| = cb, |c| = sqrt(c3) and min(a, b) = 1.  Each coordinate is
    put on a surface and moved by a jitter of scale |tol|, of a few ulp, or 0.
    """
    def jitter():
        scale = np.array([abs(tol), 1e-13, 0.0])[rng.integers(0, 3, n)]
        return rng.uniform(-3.0, 3.0, n) * scale

    lo = 1.0 - 3.0 * abs(tol) - 1e-3
    a, b = rng.uniform(lo, 8.0, (2, n))
    # a quarter of the points put min(a, b) near 1
    near1 = rng.random(n) < 0.25
    a = np.where(near1 & (a <= b), 1.0 + jitter(), a)
    b = np.where(near1 & (b < a), 1.0 + jitter(), b)
    sign = lambda: rng.choice([-1.0, 1.0], n)
    with np.errstate(invalid="ignore"):
        zero = np.zeros(n)
        cb = _class_limits(DomainTag.QUANTUM, a, b, zero, 1.0)[0]
        sc3 = _class_limits(DomainTag.SEPARABLE, a, b, zero, 1.0)[0]
        c = np.choose(rng.integers(0, 3, n), [rng.uniform(-1.0, 1.0, n) * cb,
                                              sign() * cb + jitter(), sign() * sc3 + jitter()])
        # the quantum d-interval's formulas hold for c of either sign
        d1, length = _class_limits(DomainTag.QUANTUM, a, b, c, 1.0)[1:3]
        root = np.where(rng.random(n) < 0.5, d1, d1 + length) * sign()
        d = np.where(rng.random(n) < 0.75, root + jitter(),
                     rng.uniform(-1.0, 1.0, n) * np.sqrt(np.maximum(a * b, 0.0)))
    return a, b, c, np.where(np.isfinite(d), d, 0.0)


def _closed_form_nu2(a, b, c, d):
    """nu_-^2 = (Delta - sqrt(Delta^2 - 4 det V)) / 2, and a bound on its roundoff.

    Delta = a^2 + b^2 + 2cd and det V carry a few ulp of S = a^2 + b^2 + 2|cd|
    and of (ab)^2, so the discriminant carries e = 8 eps (Delta^2 + 4 |det V|)
    and its root at most min(sqrt(e), e / (2 root)); nu_-^2 carries half of
    that, plus 4 eps S.  The discriminant is clipped at 0 as in
    ``simon_invariants``.
    """
    eps = np.finfo(float).eps
    delta = a * a + b * b + 2.0 * c * d
    det = (a * b - c * c) * (a * b - d * d)
    disc = np.maximum(delta * delta - 4.0 * det, 0.0)
    root = np.sqrt(disc)
    e = 8.0 * eps * (delta * delta + 4.0 * np.abs(det))
    with np.errstate(divide="ignore"):
        err_root = np.minimum(np.sqrt(e), e / (2.0 * root))
    s = a * a + b * b + 2.0 * np.abs(c * d)
    return (delta - root) / 2.0, err_root / 2.0 + 4.0 * eps * s


@pytest.mark.parametrize("tol", (-1e-6, -1e-9, 0.0, 1e-9, 1e-3, 0.1))
def test_labels_match_closed_form_eigenvalues(tol):
    # near every surface that bounds labels 2 and 3, the labels are those of
    # nu_- >= 1 - tol for V and for its partial transpose (d -> -d), by the
    # closed form, wherever its margin exceeds its roundoff
    rng = np.random.default_rng(int(1e9 * abs(tol)) + (tol < 0))
    a, b, c, d = _near_label_surfaces(rng, 400_000, tol)
    lab = domain_labels(a, b, c, d, tol)
    mu = (1.0 - tol) ** 2
    nu2, err = _closed_form_nu2(a, b, c, d)
    nu2_pt, err_pt = _closed_form_nu2(a, b, c, -d)
    sure = (np.abs(nu2 - mu) > err) & (np.abs(nu2_pt - mu) > err_pt)
    quantum = nu2 >= mu
    want = np.where(lab > 0, 1 + quantum + (quantum & (nu2_pt < mu)), 0)
    for label in (2, 3):
        assert np.count_nonzero(sure & (lab == label)) > 10_000, label
    bad = np.flatnonzero(sure & (lab != want))
    assert bad.size == 0, [(a[i], b[i], c[i], d[i], lab[i], want[i]) for i in bad[:5]]
    # every entangled point has fl(c*d) < 0, so the entangled box's quadrant
    # c >= 0 >= d and its mirror image hold them all
    at = lab == 3
    assert np.all(c[at] * d[at] < 0.0)


# the labels of the classes that _class_limits draws in
_CLASS_LABELS = {DomainTag.SEPARABLE: (2,), DomainTag.ENTANGLED: (3,), DomainTag.QUANTUM: (2, 3)}


def _drawn_in_class(rng, n, tag, tol):
    """Points that _class_limits draws in the class ``tag``, crowded at its surfaces.

    a and b from 1 - tol, a fifth of a at that floor or at 1 above it; each uniform
    is 0, within 1e-12 of either end of [0, 1) or uniform, so that c lies
    at 0 or at its c-end and d at either end of its interval.  Returns the
    point and the quantum class's d2 = start + length at it.
    """
    q = 1.0 - tol
    a, b = rng.uniform(q, 8.0, (2, n))
    a = np.where(rng.random(n) < 0.2, rng.choice([max(1.0, q), q], n), a)

    def crowded():
        x = rng.random(n)
        return np.choose(rng.integers(0, 4, n), [x, 1.0 - 1e-12 * x, 1e-12 * x, 0.0 * x])

    c, v = crowded(), crowded()
    _, start, length, _, _ = _class_limits(tag, a, b, c, q * q, draw=True)
    d = start + v * length
    d2 = _class_limits(DomainTag.QUANTUM, a, b, c.copy(), q * q)
    return a, b, c, d, d2[1] + d2[2]


@pytest.mark.parametrize("tol", (1e-9, 0.0, -1e-6, 1e-3))
@pytest.mark.parametrize("tag", list(_CLASS_LABELS), ids=lambda tag: tag.value)
def test_class_draw_gets_the_class_labels(tag, tol):
    # every point drawn in a class gets one of the class's labels, wherever
    # the closed-form eigenvalues put it further from a surface than their
    # roundoff, and a quantum point is entangled exactly where d < -d2, the
    # stream kernel's split; every drawn point lies inside the slice
    # |c|, |d| < sqrt(ab) that a fitted box holds
    rng = np.random.default_rng(int(1e9 * abs(tol)) + 11 * (tol < 0) + len(tag.value))
    a, b, c, d, d2 = _drawn_in_class(rng, 200_000, tag, tol)
    ab = a * b
    assert np.all((c >= 0.0) & (c * c < ab) & (d * d < ab))
    lab = domain_labels(a, b, c, d, tol)
    assert np.all(lab >= 1)
    sure = _beyond_label_roundoff(a, b, c, d, tol)
    assert np.count_nonzero(sure) > 30_000
    want = np.isin(lab, _CLASS_LABELS[tag])
    if tag is DomainTag.QUANTUM:
        want &= (lab == 3) == (d < -d2)
    bad = np.flatnonzero(sure & ~want)
    assert bad.size == 0, [(a[i], b[i], c[i], d[i], lab[i]) for i in bad[:5]]


def _beyond_label_roundoff(a, b, c, d, tol):
    """Where each test of the labels is decided by more than its roundoff.

    The labels compare y = det V + mu^2 - mu s with +-g = +-2 mu cd and
    s +- 2cd with 2 mu (see ``_classical_labels``); each side carries a few
    ulp of the sum of its terms' magnitudes, bounded here by 16 eps times
    that sum.  min(a, b) >= 1 - tol is exact.
    """
    eps = np.finfo(float).eps
    mu = (1.0 - tol) ** 2
    ab, c2, d2, cd = a * b, c * c, d * d, c * d
    s = a * a + b * b
    y = (ab - c2) * (ab - d2) + (mu * mu - mu * s)
    g = 2.0 * mu * cd
    terms = ab * ab + c2 * d2 + ab * (c2 + d2) + mu * s + abs(g) + mu * mu
    err, err_s = 16.0 * eps * terms, 16.0 * eps * (s + 2.0 * np.abs(cd))
    return ((np.abs(y - g) > err) & ((np.abs(y + g) > err) | (cd >= 0.0))
            & (np.abs(s + 2.0 * cd - 2.0 * mu) > err_s) & (np.abs(s - 2.0 * cd - 2.0 * mu) > err_s))


@pytest.mark.parametrize("tag", list(_CLASS_LABELS), ids=lambda tag: tag.value)
def test_huge_class_limits_keep_the_d_interval_finite(tag):
    # Delta is of order (ab)^3 and overflows from ab ~ 1e102 on; with huge
    # the d-interval comes from Delta / ab, and it agrees with the plain form
    # to rounding on the scale sqrt(ab) of d wherever that form is finite
    rng = np.random.default_rng(len(tag.value))
    mu = (1.0 - 1e-9) ** 2
    for scale, finite in ((1.0, True), (1e30, True), (1e70, False)):
        a, b = rng.uniform(1.0, 8.0, (2, 10_000)) * scale
        c = rng.uniform(0.0, 1.0, a.size)
        with np.errstate(over="ignore", invalid="ignore"):
            plain = _class_limits(tag, a, b, c.copy(), mu, draw=True)
        huge = _class_limits(tag, a, b, c.copy(), mu, draw=True, huge=True)
        assert all(np.isfinite(x).all() for x in huge[:4]), scale
        assert np.isfinite(plain[1]).all() == finite, scale
        if finite:
            for h, p in zip(huge[:4], plain[:4]):
                assert np.all(np.abs(h - p) <= 1e-13 * np.sqrt(a * b)), scale


@pytest.mark.parametrize("tol", (1.0, 2.0))
def test_tol_of_1_and_above_is_refused(tol, tmp_path, capsys):
    # from tol = 1 on, mu = (1 - tol)^2 grows again with tol, and the labels
    # shrink: (0.6, 0.6, 0.1, 0.1) read 2 at tol = 1 and 1 at tol = 1.5, and
    # (1.2, 1.2, 1.0, -1.0) read 2, 3 and 1 at tol = 1, 1.5 and 2.  The
    # labeller, a pass and a request refuse such a tol, and the CLI exits 2
    # before it records the configuration
    spec = RegularizerSpec.energy(8.0)
    for t in (tol, tol + 0.5):
        for call in (lambda: domain_labels(0.6, 0.6, 0.1, 0.1, t),
                     lambda: in_domain(CanonicalPoint(1.2, 1.2, 1.0, -1.0), DomainTag.QUANTUM, t),
                     lambda: mc_joint_volumes(phi_box(8.0), spec, 1_000, 1, tol=t),
                     lambda: IntegrationRequest(DomainTag.SEPARABLE, spec, 10_000, 1, tol=t)):
            with pytest.raises(InvalidArgumentError, match="tol must be finite and below 1"):
                call()
    assert domain_labels(0.6, 0.6, 0.1, 0.1, np.nextafter(1.0, 0.0)) == 2
    cfg = tmp_path / "tol.cfg"
    cfg.write_text(f"# gaussvol config v1\ntol = {tol + 0.5}\n", encoding="utf-8")
    written = tmp_path / "written.cfg"
    for argv in (["volume", "--set", "separable", "--E", "8", "--tol", str(tol)],
                 ["volume", "--set", "separable", "--E", "8", "--config", str(cfg)]):
        assert main(argv + ["--samples", "10000", "--write-config", str(written)]) == 2
        assert capsys.readouterr().err == "error: tol must be finite and below 1\n"
        assert not written.exists()
    assert main(["metric", "--a", "1", "--b", "1", "--c", "0", "--d", "0", "--tol", str(tol)]) == 2
    assert capsys.readouterr().err == "error: tol must be finite and below 1\n"
