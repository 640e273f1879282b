"""Monte Carlo volume machinery: boxes, joint estimates, sweeps."""

import itertools
import math
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

import gaussvol._quad as _quad
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
from gaussvol.regularizers import RegKind, RegularizerSpec, phi, upsilon
from gaussvol.twomode import (
    CanonicalPoint,
    DomainTag,
    canonical_embed,
    domain_labels,
)

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


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_box_rejects_non_finite_bounds(bad):
    # an infinite box had an infinite volume, and a pass over it warned and
    # then raised NumericError at an infinite point
    with pytest.raises(InvalidArgumentError, match="finite"):
        Box(lo=(0.0, 0.0, -1.0, -1.0), hi=(bad, 1.0, 1.0, 1.0))
    with pytest.raises(InvalidArgumentError, match="finite"):
        Box(lo=(0.0, 0.0, bad, -1.0), hi=(1.0, 1.0, 1.0, 1.0))


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


def test_energy_support_boundary_is_closed():
    # the kernel's support filter and the weight's Heaviside share one test:
    # 2(a + b) == E is inside, the next float above E is outside
    E = 8.0
    above = np.nextafter(E, math.inf)
    a = np.array([2.0, 2.0])
    b = np.array([2.0, above / 2.0 - 2.0])
    assert 2.0 * (a[0] + b[0]) == E and 2.0 * (a[1] + b[1]) == above
    zeros = np.zeros(2)
    assert list(integrate._in_energy_support(a, b, E)) == [True, False]
    vals = regularizer_values(a, b, zeros, zeros, RegularizerSpec.energy(E))
    assert vals[0] > 0.0 and vals[1] == 0.0


def test_upsilon_box_small_kappa():
    box = upsilon_box(1.0)
    # kappa = 1 starts from L0 = 4: the classical tail is 8e-2 of the mass
    # inside at 4 / sqrt(2), 1.4e-2 at 4, 1.8e-3 at 4 sqrt(2) and 2.1e-4 at 8
    L = 8.0
    assert box.hi == (L, L, L, L)
    assert box.lo == (0.0, 0.0, -L, -L)


def _tail_search(kappa, domain, eps_tail=1e-3):
    """The support-box search replayed side by side over its four sides.

    ``domain`` is one tag or a tuple of tags.  Returns the first of
    L0 / sqrt(2), L0, 2 L0 / sqrt(2) and 2 L0 at which every domain passes
    its tail test, or None when none does, with each side tried and its
    per-domain (inside, tail) masses from the quadrature rule.
    """
    domains = domain if isinstance(domain, tuple) else (domain,)
    spec, order = RegularizerSpec.adjugate(kappa, 4), integrate._BOX_ORDER
    total = _quad.quad_volumes(spec, order, domains)
    L0 = max(4.0, 4.0 * math.sqrt(kappa))
    tried = []
    for side in (L0 / math.sqrt(2.0), L0, 2.0 * L0 / math.sqrt(2.0), 2.0 * L0):
        tail = _quad.tail_masses(spec, domains, side, order)
        masses = {t: (total[t] - tail[t], tail[t]) for t in domains}
        tried.append((side, masses))
        if all(t <= eps_tail * i for i, t in masses.values()):
            return side, tried
    return None, tried


_L5 = 8.94427190999916  # L0 = 4 sqrt(5) at kappa = 5
_L50 = 4.0 * math.sqrt(50.0)  # L0 at kappa = 50


@pytest.mark.parametrize("kappa,domain,side", [
    # the classical tail passes at 2 L0 for kappa = 1 and 5; for 50 it fails
    # at every side, and the box is 2 L0 with a warning
    pytest.param(1.0, DomainTag.CLASSICAL, 8.0, id="1.0"),
    pytest.param(5.0, DomainTag.CLASSICAL, 2.0 * _L5, id="5.0"),
    pytest.param(50.0, DomainTag.CLASSICAL, None, id="50.0"),
    # the entangled tail is 2.3e-4 of the mass inside the first side tried
    pytest.param(5.0, DomainTag.ENTANGLED, _L5 / math.sqrt(2.0), id="5.0-entangled"),
    pytest.param(50.0, DomainTag.ENTANGLED, _L50, id="50.0-entangled"),
    # a sweep checks all four domains, and the classical tail decides
    pytest.param(5.0, DOMAIN_ORDER, 2.0 * _L5, id="5.0-all"),
])
def test_upsilon_box_matches_tail_search(kappa, domain, side):
    found, tried = _tail_search(kappa, domain)
    assert found == side
    # every side tried before the last fails for some domain
    for _, m in tried[:-1]:
        assert any(t > 1e-3 * i for i, t in m.values())
    last, at_last = tried[-1]
    capped = found is None
    if capped:
        # the cap is the fourth side, 2 L0, and the warning reports the share
        # of each failing domain's mass that its box leaves out
        assert len(tried) == 4 and last == 2.0 * max(4.0, 4.0 * math.sqrt(kappa))
        shares = ", ".join(f"{t.value} {tl / i:.3g}" for t, (i, tl) in at_last.items()
                           if tl > 1e-3 * i)
        message = f"capped at L={last:g} (kappa={kappa:g}): outside the capped box lies {shares} of"
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        assert upsilon_box(kappa, domain=domain) == integrate._sym_box(last)
    assert len(seen) == capped
    if capped:
        assert seen[0].category is RuntimeWarning and message in str(seen[0].message)


@pytest.mark.parametrize("kappa,eps_tail,domain,L0", [
    # no side passes: the classical tail at kappa = 1e6 and at kappa = 100
    # with 1e-12, and every tail at 1e-300
    pytest.param(1e6, 1e-12, DomainTag.CLASSICAL, 4000.0, id="1e6-classical"),
    pytest.param(100.0, 1e-12, DOMAIN_ORDER, 40.0, id="100-all-1e-12"),
    pytest.param(5.0, 1e-300, DOMAIN_ORDER, _L5, id="5.0-all-1e-300"),
])
def test_upsilon_box_caps_where_no_side_passes(kappa, eps_tail, domain, L0, monkeypatch):
    real, sides = _quad.tail_masses, []

    def counting(spec, domains, side, order):
        sides.append(side)
        return real(spec, domains, side, order)

    monkeypatch.setattr(_quad, "tail_masses", counting)
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        box = upsilon_box(kappa, eps_tail, domain=domain)
    assert box == integrate._sym_box(2.0 * L0)
    assert len(seen) == 1 and seen[0].category is RuntimeWarning
    assert str(seen[0].message).startswith(f"support box capped at L={2.0 * L0:g} ")
    # the whole volume, then one tail per side: no side past the cap is tried
    assert sides == [0.0, L0 / math.sqrt(2.0), L0, 2.0 * L0 / math.sqrt(2.0), 2.0 * L0]


def test_upsilon_box_half_step_is_honest():
    # kappa = 5 entangled: the rule takes the half-step below L0 = 4 sqrt(5)
    spec, e, eps_tail = RegularizerSpec.adjugate(5.0), DomainTag.ENTANGLED, 1e-3
    box = upsilon_box(5.0, eps_tail, domain=e)
    assert box == integrate._sym_box(_L5 / math.sqrt(2.0))
    # 20 seeds in the chosen box: the reported errors do not understate the
    # spread (over 200 seeds spread/se is 0.94, but 20 seeds scatter it from
    # 0.6 to 1.2, too widely for a two-sided bound)
    runs = [mc_joint_volumes(box, spec, 500_000, seed=9100 + i, streams=2, domains=(e,)).result(e)
            for i in range(20)]
    estimates = [r.estimate for r in runs]
    spread = float(np.std(estimates, ddof=1))
    assert spread / float(np.mean([r.std_error for r in runs])) <= 1.5
    # independent passes over the L0 box outside the chosen one of side L:
    # the tail that the half-step cut is below eps_tail of the in-box
    # estimate.  The two boxes a > L and a <= L < b hold every point of the
    # L0 box with max(a, b) > L, which is all of it outside the chosen box,
    # because |c|, |d| < sqrt(ab) <= max(a, b)
    L, L0 = box.hi[0], _L5
    outside = (Box((L, 0.0, -L0, -L0), (L0, L0, L0, L0)), Box((0.0, L, -L0, -L0), (L, L0, L0, L0)))
    tail = sum(mc_joint_volumes(part, spec, 1_000_000, seed=9099 + i, streams=2,
                                domains=(e,)).result(e).estimate
               for i, part in enumerate(outside))
    assert tail < eps_tail * float(np.mean(estimates))


def test_upsilon_box_deterministic():
    assert upsilon_box(1.0) == upsilon_box(1.0)


def test_upsilon_box_validates():
    with pytest.raises(InvalidArgumentError):
        upsilon_box(0.0)
    with pytest.raises(InvalidArgumentError):
        upsilon_box(1.0, eps_tail=0.0)
    with pytest.raises(InvalidArgumentError):
        upsilon_box(1.0, eps_tail=1.0)
    for bad in ("classical", None, (), (DomainTag.CLASSICAL, "entangled")):
        with pytest.raises(InvalidArgumentError):
            upsilon_box(1.0, domain=bad)


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


def _joint_bits(jv, tags=DOMAIN_ORDER):
    return [(r.estimate, r.std_error, r.acceptance_fraction)
            for r in (jv.result(tag) for tag in tags)]


def test_core_count_does_not_change_bits(monkeypatch):
    spec = RegularizerSpec.energy(8.0)
    box = phi_box(8.0)
    for streams in (4, 6):
        req = IntegrationRequest(DomainTag.ENTANGLED, spec, 120_000, seed=404, streams=streams)
        runs, volumes = {}, {}
        for cores in (1, 2, 8):
            monkeypatch.setattr(integrate, "_usable_cores", lambda: cores)
            runs[cores] = _joint_bits(mc_joint_volumes(box, spec, 120_000, seed=404, streams=streams))
            volumes[cores] = mc_volume(req)
        assert runs[2] == runs[1]
        assert runs[8] == runs[1]
        assert volumes[2] == volumes[1] and volumes[8] == volumes[1]


def test_pool_threads_capped_at_usable_cores(monkeypatch):
    real_stream, threads, streams = integrate._stream_partial, set(), []

    def recording_stream(child_ss, *args):
        threads.add(threading.get_ident())
        streams.append(child_ss.spawn_key[-1])
        return real_stream(child_ss, *args)

    monkeypatch.setattr(integrate, "_stream_partial", recording_stream)
    spec = RegularizerSpec.energy(6.0)
    before = threading.active_count()
    interval = sys.getswitchinterval()
    # a short switch interval, so that threads taking tasks would interleave
    sys.setswitchinterval(1e-6)
    try:
        for cores in (1, 2, 8):
            threads.clear()
            streams.clear()
            monkeypatch.setattr(integrate, "_usable_cores", lambda: cores)
            mc_joint_volumes(phi_box(6.0), spec, 64_000, seed=405, streams=64)
            # the caller runs a share, one thread per core at most runs streams,
            # and every stream runs once
            assert threading.get_ident() in threads and len(threads) <= cores
            assert sorted(streams) == list(range(64))
            # a pass joins every thread it starts
            assert threading.active_count() == before
    finally:
        sys.setswitchinterval(interval)
    threads.clear()
    mc_joint_volumes(phi_box(6.0), spec, 20_000, seed=405, streams=1)
    assert threads == {threading.get_ident()}


def test_first_failing_stream_in_stream_order_raises(monkeypatch):
    real_stream, ran, second_failed = integrate._stream_partial, [], threading.Event()

    def failing_stream(child_ss, *args):
        i = child_ss.spawn_key[-1]
        ran.append(i)
        if i == 2:
            second_failed.set()
            raise NumericError("stream 2 failed")
        partial = real_stream(child_ss, *args)
        if i == 1:
            if cores > 1:
                # the thread that ran stream 0 takes stream 2, which fails first
                assert second_failed.wait(timeout=30)
            raise NumericError("stream 1 failed")
        return partial

    monkeypatch.setattr(integrate, "_stream_partial", failing_stream)
    for cores, started in ((1, [0, 1]), (2, [0, 1, 2])):
        ran.clear()
        monkeypatch.setattr(integrate, "_usable_cores", lambda: cores)
        with pytest.raises(NumericError, match="stream 1 failed"):
            mc_joint_volumes(phi_box(6.0), RegularizerSpec.energy(6.0), 20_000, seed=406,
                             streams=4)
        # no stream starts once one has failed
        assert sorted(ran) == started


@pytest.mark.parametrize("sampler", ["pseudo", "qmc"])
def test_same_seed_sequence_twice_gives_same_bits(sampler):
    # scipy's Sobol(seed=Generator) spawns from the generator's SeedSequence,
    # so each stream's Sobol engine must be seeded from a child made afresh
    spec = RegularizerSpec.energy(8.0)
    ss = np.random.SeedSequence(42)
    first = mc_joint_volumes(phi_box(8.0), spec, 20_000, ss, streams=2, sampler=sampler)
    second = mc_joint_volumes(phi_box(8.0), spec, 20_000, ss, streams=2, sampler=sampler)
    assert _joint_bits(second) == _joint_bits(first)
    assert ss.n_children_spawned == 0
    # the substreams are the ones spawn gives on a fresh SeedSequence
    ours = [c.generate_state(4) for c in integrate._children(ss, 3)]
    theirs = [c.generate_state(4) for c in np.random.SeedSequence(42).spawn(3)]
    assert np.array_equal(ours, theirs)


def test_qmc_pool_leaves_warning_filters_alone(monkeypatch):
    # more threads than cores and a short switch interval, so that any
    # warnings.catch_warnings block in a pool thread would interleave
    monkeypatch.setattr(integrate, "_usable_cores", lambda: 8)
    spec = RegularizerSpec.energy(8.0)
    # importing scipy.stats adds scipy's own filters; import it before the snapshot
    from scipy.stats import qmc  # noqa: F401
    interval = sys.getswitchinterval()
    with warnings.catch_warnings():
        before = list(warnings.filters)
        sys.setswitchinterval(1e-6)
        try:
            for seed in range(10):
                mc_joint_volumes(phi_box(8.0), spec, 300_000, seed, 4, sampler="qmc")
                assert warnings.filters == before, f"filters changed by the run with seed {seed}"
        finally:
            sys.setswitchinterval(interval)


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


def test_entangled_empty_just_above_threshold():
    # phi_box(4.05) holds entangled points, but none with tr V <= 4.05 at this
    # seed: the result is empty, and acceptance counts only weighted samples
    spec = RegularizerSpec.energy(4.05)
    jv = mc_joint_volumes(phi_box(4.05), spec, 100_000, seed=3)
    e = jv.result(DomainTag.ENTANGLED)
    assert e.estimate == 0.0
    assert e.acceptance_fraction == 0.0
    assert e.empty_domain


def test_non_finite_weight_raises(monkeypatch):
    monkeypatch.setattr(integrate, "regularizer_values",
                        lambda a, *rest, **scratch: np.full(np.shape(a), np.nan))
    spec = RegularizerSpec.energy(6.0)
    with pytest.raises(NumericError, match="non-finite"):
        mc_joint_volumes(phi_box(6.0), spec, 20_000, seed=3)


def test_first_bad_point_named_across_tiles(monkeypatch):
    box, spec, tile = phi_box(8.0), RegularizerSpec.energy(8.0), integrate._TILE
    ss = np.random.SeedSequence(8)
    rng = np.random.default_rng(ss)
    _reference_tile(rng, tile, box, spec, 1e-9)
    (a, b, c, d), _ = _reference_tile(rng, tile, box, spec, 1e-9)
    real = integrate.regularizer_values

    def nan_in_second_tile(a2, b2, c2, d2, spec, **scratch):
        # the weight is non-finite at the second tile's points, matched by
        # coordinates, in whichever batch they are weighted
        vals = real(a2, b2, c2, d2, spec, **scratch)
        vals[np.isin(a2, a) & np.isin(c2, c)] = np.nan
        return vals

    monkeypatch.setattr(integrate, "regularizer_values", nan_in_second_tile)
    # the first classical point of the second tile, in draw order
    i = np.flatnonzero(domain_labels(a, b, c, d, 1e-9))[0]
    want = f"non-finite integrand weight at (a, b, c, d) = {(a[i], b[i], c[i], d[i])}"
    # each tile weighted alone, and all three tiles in one batch
    for batch in (integrate._BATCH, 3 * tile):
        monkeypatch.setattr(integrate, "_BATCH", batch)
        with pytest.raises(NumericError) as err:
            integrate._stream_partial(ss, 3 * tile, box, spec, 1e-9, "pseudo", (1, 2, 3))
        assert str(err.value) == want, batch


def test_non_finite_weight_outside_scored_domain(monkeypatch):
    # a volume weights only its own domain's points; a full pass weights them all
    real = integrate.regularizer_values

    def nan_off_entangled(a, b, c, d, spec, **scratch):
        vals = real(a, b, c, d, spec, **scratch)
        vals[domain_labels(a, b, c, d, 1e-9) != 3] = np.nan
        return vals

    spec = RegularizerSpec.energy(8.0)
    req = IntegrationRequest(DomainTag.ENTANGLED, spec, 50_000, seed=9, streams=2)
    clean = mc_volume(req)
    monkeypatch.setattr(integrate, "regularizer_values", nan_off_entangled)
    assert mc_volume(req) == clean
    with pytest.raises(NumericError, match="non-finite"):
        mc_joint_volumes(phi_box(8.0), spec, 50_000, seed=9, streams=2)


_INVARIANT_SPECS = {
    "E8": RegularizerSpec.energy(8.0),
    "E4.5": RegularizerSpec.energy(4.5),
    "kappa5": RegularizerSpec.adjugate(5.0),
    "kappa1": RegularizerSpec.adjugate(1.0),
}


@pytest.mark.parametrize("reg", list(_INVARIANT_SPECS))
@pytest.mark.parametrize("sampler", ["pseudo", "qmc"])
@pytest.mark.parametrize("domain", DOMAIN_ORDER, ids=lambda tag: tag.value)
def test_volume_equals_joint_pass_domain(domain, sampler, reg):
    spec = _INVARIANT_SPECS[reg]
    for tol in _ORACLE_TOLS:
        req = IntegrationRequest(domain, spec, 20_000, seed=77, streams=2, tol=tol,
                                 sampler=sampler)
        got = mc_volume(req)
        joint = mc_joint_volumes(got.box, spec, 20_000, 77, 2, tol, sampler)
        assert got == joint.result(domain), f"tol={tol}"


def test_unscored_domain_raises():
    spec = RegularizerSpec.energy(8.0)
    jv = mc_joint_volumes(phi_box(8.0), spec, 20_000, seed=5, domains=(DomainTag.ENTANGLED,))
    e = DomainTag.ENTANGLED
    assert jv.result(e).estimate > 0.0
    for tag in (DomainTag.CLASSICAL, DomainTag.QUANTUM, DomainTag.SEPARABLE):
        with pytest.raises(InvalidArgumentError, match="not scored"):
            jv.result(tag)
        with pytest.raises(InvalidArgumentError, match="not scored"):
            jv.difference(tag, e)
        with pytest.raises(InvalidArgumentError, match="not scored"):
            jv.difference(e, tag)
        with pytest.raises(InvalidArgumentError, match="not scored"):
            jv.ratio(e, tag)
    # a quantum pass can report its two subdomains, not the classical one
    jq = mc_joint_volumes(phi_box(8.0), spec, 20_000, seed=5, domains=(DomainTag.QUANTUM,))
    diff, _ = jq.difference(DomainTag.QUANTUM, e)
    assert diff == pytest.approx(jq.result(DomainTag.SEPARABLE).estimate, rel=1e-12)
    assert 0.0 < jq.ratio(e, DomainTag.QUANTUM)[0] < 1.0
    with pytest.raises(InvalidArgumentError, match="not scored"):
        jq.ratio(e)
    for bad in ((), ("entangled",), None):
        with pytest.raises(InvalidArgumentError):
            mc_joint_volumes(phi_box(8.0), spec, 20_000, seed=5, domains=bad)


def _reference_labels(a, b, c, d, tol):
    """domain_labels as it was before the tiled kernel, without its helpers."""
    ab = a * b
    sab = np.sqrt(np.maximum(ab, 0.0))
    classical = (a > -tol) & (b > -tol) & (np.abs(c) < sab + tol) & (np.abs(d) < sab + tol)
    lab = classical.astype(np.uint8)
    idx = np.flatnonzero(classical & (a > 1.0 - tol) & (b > 1.0 - tol))
    a, b, c, d, ab = a[idx], b[idx], c[idx], d[idx], ab[idx]
    a2, b2, c2 = a * a, b * b, c * c
    with np.errstate(divide="ignore", invalid="ignore"):
        denom = ab - c2
        delta = c2 - denom * (ab * c * c - (a * a - 1.0) * (b * b - 1.0))
        ok = (delta >= 0.0) & (denom > 0.0)
        root = np.sqrt(np.where(ok, delta, 0.0))
        d1 = np.where(ok, (-c - root) / denom, np.inf)
        d2 = np.where(ok, (-c + root) / denom, -np.inf)
        cbound_sq = np.where(b <= a, (a / b) * (b2 - 1.0), (b / a) * (a2 - 1.0))
        quantum = np.abs(c) < np.sqrt(np.maximum(cbound_sq, 0.0)) + tol
        c3 = (1.0 - a2 - b2 + ab * ab) / ab
        ppt = np.abs(c) < np.sqrt(np.maximum(c3, 0.0)) + tol
    quantum &= (d >= d1 - tol) & (d <= d2 + tol)
    neg = c <= 0.0
    ppt &= (d >= np.where(neg, d1, -d2) - tol) & (d <= np.where(neg, -d1, d2) + tol)
    lab[idx] += quantum.astype(np.uint8) + (quantum & ~ppt)
    return lab


def _reference_weights(a, b, c, d, spec):
    """regularizer_values * volume_density as they were before the tiled kernel."""
    ab = a * b
    c2, d2 = np.square(c), np.square(d)
    t = spec.m * np.log(np.maximum(np.maximum((ab - c2) * (ab - d2), 1e-300), 1e-300))
    base = np.where(t > 700.0, t, np.log1p(np.exp(np.minimum(t, 700.0))))
    if spec.kind is RegKind.ENERGY_PHI:
        reg = np.where(2.0 * (a + b) <= spec.bound_E, base, 0.0)
    else:
        tr = (a + b) * (2.0 * ab - c2 - d2)
        reg = np.exp(np.minimum(-tr / spec.kappa, 700.0)) * base
    pc, pd = ab - c2, ab - d2
    num = (pc + pd) * (2.0 * ab + c2 + d2)
    ok = (a > 0.0) & (pc > 0.0) & (pd > 0.0) & (num > 0.0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        p = pc * pd
        dens = np.where(ok, np.sqrt(num) / (2.0 * p * np.sqrt(p)), 0.0)
    return reg * dens


def _reference_cd(a, b, u, box, tol):
    """c and d from the uniforms u (2, n), each uniform on its classical slice.

    The slice is |x| < sqrt(ab) + tol clipped to the box's side.  Also
    returns each point's weight factor, the product of the two slices'
    lengths over the box's c and d spans, which is 0 where a slice is empty.
    """
    h = np.sqrt(np.maximum(a * b, 0.0)) + tol
    cd, lengths = [], []
    for i, x in zip((2, 3), u):
        start = np.maximum(-h, box.lo[i])
        length = np.minimum(h, box.hi[i]) - start
        cd.append(start + x * length)
        lengths.append(length)
    lc, ld = lengths
    per = 1.0 / ((box.hi[2] - box.lo[2]) * (box.hi[3] - box.lo[3]))
    return (*cd, np.where((lc > 0.0) & (ld > 0.0), lc * ld * per, 0.0))


def _reference_tile(rng, t, box, spec, tol):
    """One pseudo tile's points that pass the a, b tests and the energy cutoff, as (4, n).

    a(t) and b(t) come first in the stream, then the uniforms of c and d for
    the n survivors.  Also returns each point's weight factor (_reference_cd).
    """
    lo, span = np.asarray(box.lo)[:, None], np.subtract(box.hi, box.lo)[:, None]
    a, b = lo[:2] + rng.random((2, t)) * span[:2]
    first = (a > -tol) & (b > -tol)
    if spec.kind is RegKind.ENERGY_PHI:
        first &= 2.0 * (a + b) <= spec.bound_E
    a, b = a[first], b[first]
    c, d, f = _reference_cd(a, b, rng.random((2, a.size)), box, tol)
    return np.array([a, b, c, d]), f


def _reference_stream_partial(child_ss, count, box, spec, tol, sampler):
    """The unstaged kernel, all labels scored: each tile of _TILE points is labelled and summed alone.

    The pseudo sampler completes only the points of each tile that pass the
    a, b tests and the cutoff; qmc draws every point in full.  Every
    classical point drawn is weighted, so for qmc the kernel's sums must show
    that dropping the points outside the energy cutoff changes no bits; only
    hits leave those points out.  A point whose c or d slice is empty is not
    classical.
    """
    lo = np.asarray(box.lo)
    span = np.asarray(box.hi) - lo
    if sampler == "pseudo":
        rng = np.random.default_rng(child_ss)
        draw = lambda t: _reference_tile(rng, t, box, spec, tol)
    else:
        from scipy.stats import qmc

        sob = qmc.Sobol(d=4, scramble=True, seed=np.random.default_rng(child_ss))

        def draw(t):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                u = sob.random(t)
            a, b = (u[:, j] * span[j] + lo[j] for j in range(2))
            c, d, f = _reference_cd(a, b, u[:, 2:].T, box, tol)
            return np.array([a, b, c, d]), f

    s1, s2, hits = np.zeros(4), np.zeros(4), np.zeros(4, dtype=np.int64)
    for done in range(0, count, integrate._TILE):
        cols, f = draw(min(integrate._TILE, count - done))
        lab = np.where(f > 0.0, _reference_labels(*cols, tol), 0)
        idx = np.flatnonzero(lab)
        lab = lab[idx]
        a, b, c, d = np.take(cols, idx, axis=1)
        w = _reference_weights(a, b, c, d, spec) * f[idx]
        s1 += np.bincount(lab, weights=w, minlength=4)
        s2 += np.bincount(lab, weights=w * w, minlength=4)
        if spec.kind is RegKind.ENERGY_PHI:
            lab = lab[2.0 * (a + b) <= spec.bound_E]
        hits += np.bincount(lab, minlength=4)
    return count, s1, s2, hits


_ORACLE_TOLS = (1e-9, 0.0, -1e-6, 1e-3)
_ORACLE_COUNTS = (1, integrate._TILE - 1, integrate._TILE + 1, 5 * integrate._TILE + 3)
# every count meets every (sampler, regularizer, wide box) triple, and every
# tolerance twice; the tolerance rotates with the count
_ORACLE_CASES = [
    (count, sampler, reg, wide, _ORACLE_TOLS[(i + ci) % 4])
    for ci, count in enumerate(_ORACLE_COUNTS)
    for i, (sampler, reg, wide) in enumerate(
        itertools.product(("pseudo", "qmc"), ("E", "kappa"), (False, True)))
] + [
    # near E = 4 the cutoff a + b <= E/2 cuts through the quantum labels: at
    # E = 4.5 some tens of separable and entangled points of such a run lie
    # inside it and tens of thousands outside
    (5 * integrate._TILE + 3, sampler, "E4.5", False, tol)
    for sampler, tol in (("pseudo", 1e-9), ("qmc", 1e-3))
] + [
    # c and d on different sides that leave out 0, so that the slices
    # differ and some are empty: the c slice where sqrt(ab) + tol <= 0.5 in
    # the first box, the d slice in the second
    (2 * integrate._TILE + 3, sampler, reg, skew, tol)
    for sampler, reg, skew, tol in (("pseudo", "E", "skew_c", 1e-9),
                                    ("qmc", "kappa", "skew_d", 0.0))
]
_SKEW_BOXES = {
    "skew_c": Box(lo=(0.0, 0.0, 0.5, -3.0), hi=(4.0, 4.0, 2.0, -0.25)),
    "skew_d": Box(lo=(0.0, 0.0, 0.25, -3.0), hi=(4.0, 4.0, 2.0, -0.5)),
}


@pytest.mark.parametrize("count,sampler,reg,wide,tol", _ORACLE_CASES)
def test_tiled_kernel_matches_untiled_reference(count, sampler, reg, wide, tol):
    if reg == "kappa":
        spec = RegularizerSpec.adjugate(2.0)
    else:
        spec = RegularizerSpec.energy(8.0 if reg == "E" else float(reg[1:]))
    if wide in _SKEW_BOXES:
        box = _SKEW_BOXES[wide]
    elif reg == "kappa":
        box = integrate._sym_box(16.0 if wide else 8.0)
    else:
        # the wide box holds twice E = 8's phi_box in a and b, four times in c and d
        box = integrate._sym_box(8.0) if wide else phi_box(spec.bound_E)
    # a fresh SeedSequence for each kernel: scipy's Sobol spawns from the one it is given
    seed = [count, len(sampler), len(reg), len(wide) if wide in _SKEW_BOXES else int(wide)]
    want = _reference_stream_partial(np.random.SeedSequence(seed), count, box, spec, tol,
                                     sampler)
    # a kernel scoring some labels gives their bins bit for bit and 0 in the others
    for labels in ((1, 2, 3), (2, 3), (2,), (3,)):
        got = integrate._stream_partial(np.random.SeedSequence(seed), count, box, spec, tol,
                                        sampler, labels)
        scored = np.isin(np.arange(4), labels)
        assert got[0] == want[0] == count and len(got) == len(want) == 4
        for g, w in zip(got[1:], want[1:]):
            w = np.where(scored, w, 0).astype(w.dtype)
            assert g.dtype == w.dtype and np.array_equal(g, w), labels


_BATCH_CASES = {
    "E8": (phi_box(8.0), RegularizerSpec.energy(8.0)),
    "kappa2": (integrate._sym_box(8.0), RegularizerSpec.adjugate(2.0)),
}


@pytest.mark.parametrize("reg", list(_BATCH_CASES))
@pytest.mark.parametrize("sampler", ["pseudo", "qmc"])
def test_batch_size_changes_no_bit(monkeypatch, sampler, reg):
    # stage 3 runs once per batch of tiles, and each tile keeps its own sums:
    # a batch of one point (every tile alone), of one tile and of more than
    # the stream gives the bits of the shipped batch size.  So do the sizes
    # between 2 and 3 times a tile's stage-3 points, at which two tiles are
    # queued and the third runs them first: for each case and label set
    # below, one of 1500 to 33000 is such a size
    box, spec = _BATCH_CASES[reg]
    count = 3 * integrate._TILE + 5
    for labels in ((1, 2, 3), (2, 3), (2,), (3,)):
        # a fresh SeedSequence for each run: scipy's Sobol spawns from the one it is given
        run = lambda: integrate._stream_partial(np.random.SeedSequence(11), count, box, spec,
                                                1e-9, sampler, labels)
        want = run()
        for batch in (1, 1500, 2000, 3000, 12000, 24000, 33000, integrate._TILE, 2 * count):
            monkeypatch.setattr(integrate, "_BATCH", batch)
            got = run()
            for g, w in zip(got[1:], want[1:]):
                assert g.dtype == w.dtype and np.array_equal(g, w), (labels, batch)
        monkeypatch.undo()


def test_weights_computed_once_per_batch(monkeypatch):
    # one 2M-sample stream of the damped workload's entangled pass runs 31
    # tiles, each bringing at most 3400 points to stage 3, so weighting once
    # per tile would call regularizer_values 31 times
    real, calls = integrate.regularizer_values, []

    def counting(*args, **scratch):
        calls.append(len(args[0]))
        return real(*args, **scratch)

    count = 2_000_000
    tiles = -(-count // integrate._TILE)
    run = lambda: integrate._stream_partial(np.random.SeedSequence(5), count,
                                            integrate._sym_box(6.324555320336758),
                                            RegularizerSpec.adjugate(5.0), 1e-9, "pseudo", (3,))
    monkeypatch.setattr(integrate, "regularizer_values", counting)
    got = run()
    assert tiles == 31 and len(calls) <= math.ceil(tiles / (integrate._BATCH // 3400)) + 1, calls
    # with the bits of weighting each tile alone
    monkeypatch.setattr(integrate, "_BATCH", 1)
    for g, w in zip(got, run()):
        assert np.array_equal(g, w)


def test_stream_partial_traced_peak_is_small():
    # the scratch is a few tiles; before the tiled kernel one stream of 1M
    # samples peaked at 36.6 MiB
    energy = (phi_box(8.0), RegularizerSpec.energy(8.0), 1e-9, "pseudo", (1, 2, 3))
    # the kappa = 5 box, scoring the entangled label only
    damped = (integrate._sym_box(8.0 * math.sqrt(5.0)), RegularizerSpec.adjugate(5.0), 1e-9,
              "pseudo", (3,))
    for args in (energy, damped):
        integrate._stream_partial(np.random.SeedSequence(0), 1_000_000, *args)
        tracemalloc.start()
        try:
            integrate._stream_partial(np.random.SeedSequence(1), 1_000_000, *args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20, f"traced peak {peak / 2**20:.1f} MiB for {args}"


def test_enlarged_box_same_integral():
    # the energy cut has bounded support, so growing the box only adds variance
    spec = RegularizerSpec.energy(5.0)
    small = mc_joint_volumes(phi_box(5.0), spec, 120_000, seed=19).result(DomainTag.CLASSICAL)
    big_box = Box(lo=(0.0, 0.0, -5.0, -5.0), hi=(5.0, 5.0, 5.0, 5.0))
    big = mc_joint_volumes(big_box, spec, 120_000, seed=23).result(DomainTag.CLASSICAL)
    sigma = math.hypot(small.std_error, big.std_error)
    assert abs(small.estimate - big.estimate) < 4.0 * sigma


# the two benchmark cases with exact values: kappa = 5 entangled inside its
# support box (side 4 sqrt(5/2) = 6.3246), from _quad's rule at order 32,
# where orders 24 and 40 agree to 2e-9; and E = 8 separable, from a 3-d rule
# exact to 1e-10
_EXACT_CASES = {
    "kappa5_entangled": (DomainTag.ENTANGLED, RegularizerSpec.adjugate(5.0), 0.2965308),
    "E8_separable": (DomainTag.SEPARABLE, RegularizerSpec.energy(8.0), 5.1866948377),
}


@pytest.mark.parametrize("case", list(_EXACT_CASES))
def test_error_bars_honest_against_exact_values(case):
    # over 50 seeds the estimates spread as their reported errors say, and
    # their mean lies within 4 standard errors of the exact value
    tag, spec, exact = _EXACT_CASES[case]
    runs = [mc_volume(IntegrationRequest(tag, spec, 200_000, seed=seed, streams=4))
            for seed in range(50)]
    est = np.array([r.estimate for r in runs])
    se = math.sqrt(np.mean([r.std_error ** 2 for r in runs]))
    assert 0.75 <= est.std(ddof=1) / se <= 1.33, est.std(ddof=1) / se
    assert abs(est.mean() - exact) <= 4.0 * se / math.sqrt(len(runs)), (est.mean(), se)


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


@pytest.mark.parametrize("field,bad", [("n_samples", 20000.5), ("n_samples", 20000.0),
                                       ("streams", 2.5), ("streams", 2.0), ("streams", True),
                                       ("seed", True)])
def test_request_rejects_non_integer_counts(field, bad):
    # numpy used to fail later with a bare TypeError, or take True for 1
    good = dict(domain=DomainTag.CLASSICAL, regularizer=RegularizerSpec.energy(8.0),
                n_samples=20_000, seed=1)
    with pytest.raises(InvalidArgumentError, match=field):
        IntegrationRequest(**{**good, field: bad})


@pytest.mark.parametrize("field,bad", [("n_samples", 20000.5), ("streams", 2.5),
                                       ("streams", True), ("seed", True)])
def test_mc_joint_volumes_rejects_non_integer_counts(field, bad):
    args = dict(box=phi_box(8.0), spec=RegularizerSpec.energy(8.0), n_samples=20_000, seed=1,
                streams=2)
    with pytest.raises(InvalidArgumentError, match=field):
        mc_joint_volumes(**{**args, field: bad})
    # numpy integers stay legal
    jv = mc_joint_volumes(**{**args, "n_samples": np.int64(20_000), "streams": np.int32(2)})
    assert jv.n_samples == 20_000 and jv.streams == 2


def test_mc_joint_volumes_validates_seed():
    # as IntegrationRequest does: numpy raised a bare ValueError for seed = -1
    spec = RegularizerSpec.energy(8.0)
    for seed in (-1, 1.5, None):
        with pytest.raises(InvalidArgumentError, match="seed"):
            mc_joint_volumes(phi_box(8.0), spec, 1_000, seed)
    # a SeedSequence stays legal
    jv = mc_joint_volumes(phi_box(8.0), spec, 1_000, np.random.SeedSequence(1))
    assert jv.seed is None and jv.n_samples == 1_000


def test_mc_joint_volumes_validates_tol():
    # a nan tol used to label every point 0 and return 0 for every domain
    spec = RegularizerSpec.energy(8.0)
    for tol in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidArgumentError, match="tol"):
            mc_joint_volumes(phi_box(8.0), spec, 1_000, 1, tol=tol)


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
            raise NumericError("non-finite integrand weight (synthetic)")
        return real(kappa, eps_tail, **kw)

    monkeypatch.setattr(integrate, "upsilon_box", flaky)
    template = _template(regularizer=RegularizerSpec.adjugate(1.0))
    table = sweep("kappa", [1.0, 2.0, 3.0], template)
    assert [row.error is None for row in table.rows] == [True, False, True]
    assert "synthetic" in table.rows[1].error
    assert table.rows[1].results == {}
    assert table.rows[2].results[DomainTag.CLASSICAL].estimate > 0.0
