"""Monte Carlo volume machinery: boxes, joint estimates, sweeps."""

import math

import numpy as np
import pytest

import gaussvol.integrate as integrate
from gaussvol.errors import InvalidArgumentError, NumericError
from gaussvol.integrate import (
    Box,
    DOMAIN_ORDER,
    IntegrationRequest,
    mc_joint_volumes,
    mc_volume,
    phi_box,
    regularizer_values,
    sweep,
    upsilon_box,
)
from gaussvol.regularizers import RegularizerSpec, phi, upsilon
from gaussvol.twomode import CanonicalPoint, DomainTag, canonical_embed

from conftest import sample_canonical


def test_box_volume_and_contains():
    box = Box(lo=(0.0, 0.0, -1.0, -1.0), hi=(2.0, 1.0, 1.0, 1.0))
    assert box.volume == pytest.approx(2.0 * 1.0 * 2.0 * 2.0)
    pts = np.array(
        [
            [1.0, 0.5, 0.0, 0.0],   # interior
            [0.0, 0.5, 0.0, 0.0],   # on the open lower face
            [2.0, 1.0, 1.0, 1.0],   # on the closed upper face
            [1.0, 0.5, -1.5, 0.0],  # outside
        ]
    )
    assert list(box.contains(pts)) == [True, False, True, False]


def test_box_validates_ordering():
    with pytest.raises(InvalidArgumentError):
        Box(lo=(0.0, 0.0, 0.0, 0.0), hi=(1.0, 1.0, 0.0, 1.0))
    with pytest.raises(InvalidArgumentError):
        Box(lo=(0.0, 0.0), hi=(1.0, 1.0))


def test_phi_box_frozen():
    box = phi_box(8.0)
    assert box.lo == (0.0, 0.0, -2.0, -2.0)
    assert box.hi == (4.0, 4.0, 2.0, 2.0)
    with pytest.raises(InvalidArgumentError):
        phi_box(0.0)


def test_phi_box_covers_energy_support():
    # every classical point with tr V <= E lies inside phi_box(E)
    rng = np.random.default_rng(101)
    E = 6.0
    box = phi_box(E)
    pts = sample_canonical(rng, 100_000, DomainTag.CLASSICAL, box=(E, E, E, E))
    tr = 2.0 * (pts[:, 0] + pts[:, 1])
    inside = box.contains(pts)
    assert np.all(inside[tr <= E])


def test_regularizer_values_match_matrix_forms():
    rng = np.random.default_rng(103)
    pts = sample_canonical(rng, 50, DomainTag.CLASSICAL, margin=1e-6)
    for spec in (RegularizerSpec.energy(7.5), RegularizerSpec.adjugate(3.0)):
        vals = regularizer_values(pts[:, 0], pts[:, 1], pts[:, 2], pts[:, 3], spec)
        fn = phi if spec.kind.name == "ENERGY_PHI" else upsilon
        for k, p in enumerate(pts):
            expect = fn(canonical_embed(CanonicalPoint(*p)), spec)
            assert vals[k] == pytest.approx(expect, rel=1e-12, abs=1e-300)


def test_upsilon_box_small_kappa():
    box = upsilon_box(1.0, n_probe=20_000)
    # kappa = 1 needs one doubling of the initial L = 4
    assert box.hi == (8.0, 8.0, 8.0, 8.0)
    assert box.lo == (0.0, 0.0, -8.0, -8.0)


def test_upsilon_box_deterministic():
    assert upsilon_box(1.0, n_probe=20_000) == upsilon_box(1.0, n_probe=20_000)


def test_upsilon_box_validates():
    with pytest.raises(InvalidArgumentError):
        upsilon_box(0.0)
    with pytest.raises(InvalidArgumentError):
        upsilon_box(1.0, eps_tail=0.0)
    with pytest.raises(InvalidArgumentError):
        upsilon_box(1.0, eps_tail=1.0)
    with pytest.raises(InvalidArgumentError):
        upsilon_box(1.0, n_probe=10)


def test_upsilon_box_failure_reports_history():
    # with zero doublings allowed, kappa = 5 cannot pass its first shell test
    with pytest.raises(NumericError) as err:
        upsilon_box(5.0, max_doublings=0, n_probe=20_000)
    msg = str(err.value)
    assert "did not converge" in msg
    assert "estimate=" in msg and "shell=" in msg


def test_joint_volumes_deterministic():
    spec = RegularizerSpec.energy(6.0)
    box = phi_box(6.0)
    jv1 = mc_joint_volumes(box, spec, 50_000, seed=2024, streams=4)
    jv2 = mc_joint_volumes(box, spec, 50_000, seed=2024, streams=4)
    for tag in DOMAIN_ORDER:
        r1, r2 = jv1.result(tag), jv2.result(tag)
        assert r1.estimate == r2.estimate
        assert r1.std_error == r2.std_error
    r3 = mc_joint_volumes(box, spec, 50_000, seed=2025, streams=4).result(DomainTag.CLASSICAL)
    assert r3.estimate != jv1.result(DomainTag.CLASSICAL).estimate


def test_stream_count_changes_bits_not_value():
    spec = RegularizerSpec.energy(6.0)
    box = phi_box(6.0)
    r1 = mc_joint_volumes(box, spec, 60_000, seed=7, streams=1).result(DomainTag.CLASSICAL)
    r6 = mc_joint_volumes(box, spec, 60_000, seed=7, streams=6).result(DomainTag.CLASSICAL)
    assert r1.estimate != r6.estimate
    sigma = math.hypot(r1.std_error, r6.std_error)
    assert abs(r1.estimate - r6.estimate) < 5.0 * sigma


def test_nested_domains_add_up():
    spec = RegularizerSpec.energy(8.0)
    jv = mc_joint_volumes(phi_box(8.0), spec, 80_000, seed=31, streams=2)
    q = jv.result(DomainTag.QUANTUM)
    s = jv.result(DomainTag.SEPARABLE)
    e = jv.result(DomainTag.ENTANGLED)
    c = jv.result(DomainTag.CLASSICAL)
    assert s.estimate + e.estimate == pytest.approx(q.estimate, rel=1e-12)
    assert q.estimate < c.estimate
    # difference errors use the joint covariance: Q - E reproduces S exactly
    diff, err = jv.difference(DomainTag.QUANTUM, DomainTag.ENTANGLED)
    assert diff == pytest.approx(s.estimate, rel=1e-12)
    assert err == pytest.approx(s.std_error, rel=1e-9)


def test_ratio_self_is_exact():
    spec = RegularizerSpec.energy(6.0)
    jv = mc_joint_volumes(phi_box(6.0), spec, 20_000, seed=5)
    r, err = jv.ratio(DomainTag.CLASSICAL, DomainTag.CLASSICAL)
    assert r == 1.0
    # variance terms cancel up to rounding; sqrt leaves ~1e-10
    assert err == pytest.approx(0.0, abs=1e-7)
    rq, eq = jv.ratio(DomainTag.QUANTUM)
    assert 0.0 < rq < 1.0 and eq > 0.0


def test_empty_domain_flagged():
    # below E = 4 no quantum state passes the energy cut inside phi_box
    spec = RegularizerSpec.energy(0.5)
    jv = mc_joint_volumes(phi_box(0.5), spec, 20_000, seed=13)
    q = jv.result(DomainTag.QUANTUM)
    assert q.estimate == 0.0
    assert q.std_error == 0.0
    assert q.empty_domain
    assert not jv.result(DomainTag.CLASSICAL).empty_domain
    assert jv.ratio(DomainTag.QUANTUM) == (0.0, 0.0)


def test_non_finite_weight_raises(monkeypatch):
    monkeypatch.setattr(integrate, "regularizer_values", lambda a, *rest: np.full(np.shape(a), np.nan))
    spec = RegularizerSpec.energy(6.0)
    with pytest.raises(NumericError, match="non-finite"):
        mc_joint_volumes(phi_box(6.0), spec, 20_000, seed=3)


def test_exclude_removes_everything():
    spec = RegularizerSpec.energy(6.0)
    box = phi_box(6.0)
    jv = mc_joint_volumes(box, spec, 20_000, seed=17, exclude=box)
    for tag in DOMAIN_ORDER:
        r = jv.result(tag)
        assert r.estimate == 0.0 and r.empty_domain


def test_enlarged_box_same_integral():
    # the energy cut has bounded support, so growing the box only adds variance
    spec = RegularizerSpec.energy(5.0)
    small = mc_joint_volumes(phi_box(5.0), spec, 120_000, seed=19).result(DomainTag.CLASSICAL)
    big_box = Box(lo=(0.0, 0.0, -5.0, -5.0), hi=(5.0, 5.0, 5.0, 5.0))
    big = mc_joint_volumes(big_box, spec, 120_000, seed=23).result(DomainTag.CLASSICAL)
    sigma = math.hypot(small.std_error, big.std_error)
    assert abs(small.estimate - big.estimate) < 4.0 * sigma


def test_qmc_sampler_agrees():
    spec = RegularizerSpec.energy(6.0)
    box = phi_box(6.0)
    q1 = mc_joint_volumes(box, spec, 32_768, seed=29, sampler="qmc").result(DomainTag.CLASSICAL)
    q2 = mc_joint_volumes(box, spec, 32_768, seed=29, sampler="qmc").result(DomainTag.CLASSICAL)
    assert q1.estimate == q2.estimate
    p = mc_joint_volumes(box, spec, 100_000, seed=29).result(DomainTag.CLASSICAL)
    sigma = math.hypot(p.std_error, q1.std_error)
    assert abs(q1.estimate - p.estimate) < 5.0 * sigma
    assert q1.sampler == "qmc"


def test_mc_volume_default_box_and_metadata():
    req = IntegrationRequest(
        domain=DomainTag.CLASSICAL,
        regularizer=RegularizerSpec.energy(8.0),
        n_samples=20_000,
        seed=4242,
        streams=3,
    )
    res = mc_volume(req)
    assert res.box == phi_box(8.0)
    assert res.seed == 4242
    assert res.streams == 3
    assert res.n_samples == 20_000
    assert res.domain is DomainTag.CLASSICAL
    assert 0.0 < res.acceptance_fraction <= 1.0
    assert res.estimate > 0.0 and res.std_error > 0.0


def test_mc_volume_validates():
    good = dict(domain=DomainTag.CLASSICAL, regularizer=RegularizerSpec.energy(8.0),
                n_samples=20_000, seed=1)
    with pytest.raises(InvalidArgumentError):
        mc_volume(IntegrationRequest(**{**good, "n_samples": 9_999}))
    with pytest.raises(InvalidArgumentError):
        mc_volume(IntegrationRequest(**{**good, "streams": 0}))
    with pytest.raises(InvalidArgumentError):
        mc_volume(IntegrationRequest(**{**good, "domain": "classical"}))
    with pytest.raises(InvalidArgumentError):
        mc_volume(IntegrationRequest(**{**good, "regularizer": RegularizerSpec.energy(8.0, m=3)}))
    with pytest.raises(InvalidArgumentError):
        mc_volume(IntegrationRequest(**{**good, "sampler": "sobol"}))


def _template(**overrides):
    base = dict(
        domain=DomainTag.CLASSICAL,
        regularizer=RegularizerSpec.energy(4.0),
        n_samples=20_000,
        seed=909,
        streams=2,
    )
    base.update(overrides)
    return IntegrationRequest(**base)


def test_sweep_validates():
    with pytest.raises(InvalidArgumentError):
        sweep("m", [1.0, 2.0], _template())
    with pytest.raises(InvalidArgumentError):
        sweep("E", [], _template())
    with pytest.raises(InvalidArgumentError):
        sweep("E", [4.0, 4.0], _template())
    with pytest.raises(InvalidArgumentError):
        sweep("E", [6.0, 4.0], _template())
    with pytest.raises(InvalidArgumentError):
        sweep("E", [1.0, math.inf], _template())
    with pytest.raises(InvalidArgumentError):
        sweep("kappa", [1.0, 2.0], _template())  # energy template, kappa sweep
    with pytest.raises(InvalidArgumentError):
        sweep("E", [4.0], _template(regularizer=RegularizerSpec.adjugate(1.0)))
    with pytest.raises(InvalidArgumentError):
        sweep("E", [4.0], _template(n_samples=5_000))


def test_sweep_rows_and_determinism():
    table1 = sweep("E", [4.0, 6.0, 8.0], _template())
    table2 = sweep("E", [4.0, 6.0, 8.0], _template())
    assert table1.param_name == "E"
    assert [row.value for row in table1.rows] == [4.0, 6.0, 8.0]
    for r1, r2 in zip(table1.rows, table2.rows):
        assert r1.error is None
        for tag in DOMAIN_ORDER:
            assert r1.results[tag].estimate == r2.results[tag].estimate
        assert set(r1.ratios) == {"qc", "sc", "ec"}
        assert r1.results[DomainTag.CLASSICAL].seed == 909
    # rows use distinct substreams: same value twice would still differ by index
    ests = [row.results[DomainTag.CLASSICAL].estimate for row in table1.rows]
    assert len(set(ests)) == 3


def test_sweep_monotone_in_energy():
    table = sweep("E", [4.0, 8.0], _template(n_samples=60_000))
    lo, hi = table.rows
    c_lo = lo.results[DomainTag.CLASSICAL]
    c_hi = hi.results[DomainTag.CLASSICAL]
    sigma = math.hypot(c_lo.std_error, c_hi.std_error)
    assert c_hi.estimate - c_lo.estimate > 3.0 * sigma


def test_sweep_records_row_failure_and_continues(monkeypatch):
    real = integrate.upsilon_box

    def flaky(kappa, eps_tail=1e-3, **kw):
        if kappa == 2.0:
            raise NumericError("support box did not converge (synthetic)")
        return real(kappa, eps_tail, **{**kw, "n_probe": 20_000})

    monkeypatch.setattr(integrate, "upsilon_box", flaky)
    template = _template(regularizer=RegularizerSpec.adjugate(1.0))
    table = sweep("kappa", [1.0, 2.0, 3.0], template)
    assert [row.error is None for row in table.rows] == [True, False, True]
    assert "did not converge" in table.rows[1].error
    assert table.rows[1].results == {}
    assert table.rows[2].results[DomainTag.CLASSICAL].estimate > 0.0
