"""Monte Carlo volume machinery: boxes, joint estimates, sweeps."""

import functools
import itertools
import math
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

import gaussvol._quad as _quad
import gaussvol._sobol as _sobol
import gaussvol.integrate as integrate
from gaussvol.errors import InvalidArgumentError, NumericError
from gaussvol.integrate import (
    Box,
    DEFAULT_EPS_TAIL,
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
    DEFAULT_TOL,
    CanonicalPoint,
    DomainTag,
    _class_limits,
    canonical_embed,
    domain_labels,
    volume_density,
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


def test_fitted_energy_box_covers_quantum_support():
    # every quantum point with tr V <= E lies inside the box fitted to the
    # quantum classes, whose a and b sides start at 1 - tol
    rng = np.random.default_rng(107)
    E = 6.0
    a, b = rng.uniform(0.5, 2.5, (2, 400_000))
    c, d = rng.uniform(-1.5, 1.5, (2, 400_000))
    for tol in _ORACLE_TOLS:
        box = integrate._default_box(RegularizerSpec.energy(E), (DomainTag.QUANTUM,),
                                     DEFAULT_EPS_TAIL, tol)
        assert box.lo == (1.0 - tol, 1.0 - tol, -1.5, -1.5), tol
        assert box.hi == (3.0 - (1.0 - tol), 3.0 - (1.0 - tol), 1.5, 1.5), tol
        support = (domain_labels(a, b, c, d, tol) >= 2) & (2.0 * (a + b) <= E)
        pts = np.column_stack([a, b, c, d])[support]
        assert len(pts) > 1000 and box.contains(pts).all(), tol


@pytest.mark.parametrize("kappa", [1.0, 5.0, 50.0])
def test_fitted_damped_box_covers_quantum_support(kappa):
    # under the damping the box of each quantum class has a and b sides
    # from 1 - tol and the c and d sides of upsilon_box: every point with
    # label >= 2 has min(a, b) >= 1 - tol, and every point with label 3 has
    # fl(c*d) < 0, in either quadrant
    rng = np.random.default_rng(int(kappa) + 109)
    a, b = rng.uniform(0.0, 4.0, (2, 400_000))
    h = np.sqrt(a * b) + 1e-3
    c, d = rng.uniform(-1.0, 1.0, (2, 400_000)) * h
    spec = RegularizerSpec.adjugate(kappa)
    for tol in _ORACLE_TOLS:
        lab = domain_labels(a, b, c, d, tol)
        assert np.count_nonzero(lab == 2) > 1000 and np.count_nonzero(lab == 3) > 1000, tol
        for domains in ((DomainTag.QUANTUM,), (DomainTag.SEPARABLE,), (DomainTag.ENTANGLED,)):
            box = integrate._default_box(spec, domains, DEFAULT_EPS_TAIL, tol)
            L = upsilon_box(kappa, domain=domains).hi[0]
            assert box.lo[:2] == (1.0 - tol, 1.0 - tol) and box.hi[:2] == (L, L), (tol, domains)
            assert np.minimum(a, b)[lab >= 2].min() >= box.lo[0], (tol, domains)
            assert box.lo[2:] == (-L, -L) and box.hi[2:] == (L, L), (tol, domains)
        assert np.all(c[lab == 3] * d[lab == 3] < 0.0), tol


@pytest.mark.parametrize("spec,tol,domains", [
    # no quantum point lies in the box: 1 - tol >= L
    (RegularizerSpec.adjugate(5.0), -10.0, (DomainTag.ENTANGLED,)),
    (RegularizerSpec.adjugate(1.0), -10.0, (DomainTag.QUANTUM,)),
    # the classical domain is scored
    (RegularizerSpec.adjugate(5.0), 1e-9, (DomainTag.CLASSICAL,)),
    (RegularizerSpec.adjugate(5.0), 1e-9, DOMAIN_ORDER),
])
def test_fitted_damped_box_falls_back_to_upsilon_box(spec, tol, domains):
    box = upsilon_box(spec.kappa, domain=domains)
    assert integrate._default_box(spec, domains, DEFAULT_EPS_TAIL, tol) == box


def test_fitted_energy_box_keeps_full_sides_for_entangled_passes():
    E, tol = 8.0, 1e-9
    box = integrate._default_box(RegularizerSpec.energy(E), (DomainTag.ENTANGLED,),
                                 DEFAULT_EPS_TAIL, tol)
    q = 1.0 - tol
    assert box == Box(lo=(q, q, -2.0, -2.0), hi=(4.0 - q, 4.0 - q, 2.0, 2.0))


@pytest.mark.parametrize("E,tol,domains", [
    # no quantum point lies inside the cutoff: E/2 - (1 - tol) <= 1 - tol
    (4.0 * (1.0 - 1e-9), 1e-9, (DomainTag.QUANTUM,)),
    (3.9, 1e-3, (DomainTag.ENTANGLED,)),
    # E/2 - (1 - tol) = 1 - tol at E = 4 and tol = 0, and below it at tol < 0
    (4.0, 0.0, (DomainTag.SEPARABLE,)),
    (4.0, -1e-6, (DomainTag.QUANTUM,)),
    # the classical domain is scored
    (8.0, 1e-9, (DomainTag.CLASSICAL,)),
    (8.0, 1e-9, DOMAIN_ORDER),
])
def test_fitted_energy_box_falls_back_to_phi_box(E, tol, domains):
    spec = RegularizerSpec.energy(E)
    assert integrate._default_box(spec, domains, DEFAULT_EPS_TAIL, tol) == phi_box(E)


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


def test_streams_without_samples():
    # 2 samples over 5 streams leave three streams with none to draw
    spec, box = RegularizerSpec.energy(8.0), phi_box(8.0)
    jv = mc_joint_volumes(box, spec, 2, 3, streams=5)
    assert jv.n_samples == 2
    # one sample has no spread to report
    one = mc_joint_volumes(box, spec, 1, 3)
    assert [one.result(tag).std_error for tag in DOMAIN_ORDER] == [0.0] * 4
    # each qmc stream draws two replicates, and neither may be empty
    for n in (1, 9):
        with pytest.raises(InvalidArgumentError, match="two replicates per stream"):
            mc_joint_volumes(box, spec, n, 3, streams=5, sampler="qmc")
    assert mc_joint_volumes(box, spec, 10, 3, streams=5, sampler="qmc").n_samples == 10
    for sampler, replicates in (("pseudo", 1), ("qmc", 2)):
        counts, *sums = integrate._stream_partial(np.random.SeedSequence(3), 0, box, spec, 1e-9,
                                                  sampler, DomainTag.CLASSICAL)
        assert counts.tolist() == [0] * replicates
        assert [x.dtype for x in sums] == [np.float64, np.float64, np.int64]
        assert all(x.shape == (replicates, 3) and not x.any() for x in sums)


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
            # and every stream of the classical pass and of the quantum pass,
            # on the next 64 children, runs once
            assert threading.get_ident() in threads and len(threads) <= cores
            assert sorted(streams) == list(range(128))
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
    # each stream's generator is seeded from a child made afresh, so the
    # SeedSequence passed in is left as it was
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
    # a ratio to an empty domain is undefined
    assert all(map(math.isnan, jv.ratio(DomainTag.ENTANGLED, DomainTag.QUANTUM)))


def test_entangled_empty_just_above_threshold():
    # below E = 4 no point of phi_box(3.9) with min(a, b) >= 1 - tol lies
    # inside tr V <= 3.9: the result is empty, and acceptance counts only
    # weighted samples.  Just above the threshold the entangled pass draws
    # inside its class and finds the points inside tr V <= 4.05, all of them
    # weighted, which the slice draw, labelling points of all four domains,
    # missed at this seed
    for E, empty in ((3.9, True), (4.05, False)):
        spec = RegularizerSpec.energy(E)
        e = mc_joint_volumes(phi_box(E), spec, 100_000, seed=3).result(DomainTag.ENTANGLED)
        assert e.empty_domain == empty and (e.estimate == 0.0) == empty, E
        assert (e.acceptance_fraction == 0.0) == empty and (e.std_error == 0.0) == empty, E


def test_non_finite_weight_raises(monkeypatch):
    real = integrate._class_weight

    def nan_weights(*args):
        w = real(*args)
        w[:] = np.nan
        return w

    monkeypatch.setattr(integrate, "_class_weight", nan_weights)
    spec = RegularizerSpec.energy(6.0)
    with pytest.raises(NumericError, match="non-finite"):
        mc_joint_volumes(phi_box(6.0), spec, 20_000, seed=3)


@pytest.mark.parametrize("spec, box, n", [
    # every weight underflows to 0
    (RegularizerSpec.energy(1e70), phi_box(1e70), 10_000),
    # the weights stay above 0, but every square of one underflows
    (RegularizerSpec.energy(1e45), phi_box(1e45), 100_000),
    (RegularizerSpec.adjugate(1e30), integrate._sym_box(8e15), 10_000),
], ids=["E1e70", "E1e45", "kappa1e30"])
def test_underflowed_weight_sums_raise(spec, box, n):
    # a domain with hits but a zero sum would report 0 or a 0 error bar
    jv = mc_joint_volumes(box, spec, n, seed=12345, streams=4)
    with pytest.raises(NumericError, match="classical domain underflow"):
        jv.result(DomainTag.CLASSICAL)


def test_one_underflowed_label_leaves_its_domains_other_labels():
    # at kappa = 0.01 every squared separable weight underflows, but the
    # classical domain, drawn in its own pass, is carried by its own sums,
    # which reach far larger p = det V than the quantum classes do
    spec = RegularizerSpec.adjugate(0.01)
    jv = mc_joint_volumes(upsilon_box(0.01), spec, 20_000, seed=12345, streams=4)
    classical = jv.result(DomainTag.CLASSICAL)
    assert classical.estimate > 0.0 and classical.std_error > 0.0
    with pytest.raises(NumericError, match="separable domain underflow"):
        jv.result(DomainTag.SEPARABLE)


def test_first_bad_point_named_across_tiles(monkeypatch):
    # a classical pass names the first point of its stream, in draw order,
    # whose weight is non-finite: here the 6th point of the second tile,
    # whose blocks are all weighted first, and no later tile is drawn
    box, spec, tile = phi_box(8.0), RegularizerSpec.energy(8.0), integrate._TILE
    real, seen, bad_call = integrate._class_weight, [], []

    def recording(a, b, pc, d, *rest):
        w = real(a, b, pc, d, *rest)
        seen.append((a.copy(), b.copy(), d.copy()))
        if [len(seen)] == bad_call:
            w[[5, 8]] = np.nan
        return w

    def stream(count):
        return integrate._stream_partial(np.random.SeedSequence(8), count, box, spec, 1e-9,
                                         "pseudo", DomainTag.CLASSICAL)

    monkeypatch.setattr(integrate, "_class_weight", recording)
    # the blocks of the first tile, and of the first two
    stream(tile)
    first = len(seen)
    seen.clear()
    stream(2 * tile)
    two = len(seen)
    seen.clear()
    bad_call.append(first + 1)
    with pytest.raises(NumericError) as err:
        stream(3 * tile)
    a, b, d = (float(x[5]) for x in seen[first])
    got = err.value.args[0]
    assert got.startswith(f"non-finite integrand weight at (a, b, c, d) = ({a!r}, {b!r}, ")
    assert got.endswith(f", {d!r})") and len(seen) == two > first >= 2


@pytest.mark.parametrize("labels", [(2,), (2, 3)])
def test_first_bad_point_of_an_in_class_pass_named(monkeypatch, labels):
    tag = {(2,): DomainTag.SEPARABLE, (2, 3): DomainTag.QUANTUM}[labels]
    # an in-class pass names its first non-finite weight in draw order too:
    # here the 8th point of the second tile's first block
    spec = RegularizerSpec.adjugate(5.0)
    box = integrate._default_box(spec, (DomainTag.QUANTUM,), DEFAULT_EPS_TAIL, 1e-9)
    real, seen = integrate._class_weight, []

    def nan_in_third_call(a, b, pc, d, *rest):
        w = real(a, b, pc, d, *rest)
        seen.append((a.copy(), b.copy(), d.copy()))
        if len(seen) == 3:
            w[[7, 9]] = np.nan
        return w

    monkeypatch.setattr(integrate, "_class_weight", nan_in_third_call)
    with pytest.raises(NumericError) as err:
        integrate._stream_partial(np.random.SeedSequence(4), 3 * integrate._TILE, box, spec,
                                  1e-9, "qmc", tag)
    a, b, d = (float(x[7]) for x in seen[2])
    got = err.value.args[0]
    assert got.startswith(f"non-finite integrand weight at (a, b, c, d) = ({a!r}, {b!r}, ")
    assert got.endswith(f", {d!r})") and len(seen) == 4


def test_non_finite_weight_outside_scored_domain(monkeypatch):
    # a volume weights only the draws of its own class; a call scoring all
    # four domains runs the classical pass too, which alone takes the
    # slice's half-width
    spec = RegularizerSpec.energy(8.0)
    req = IntegrationRequest(DomainTag.ENTANGLED, spec, 50_000, seed=9, streams=2)
    clean = mc_volume(req)
    real = integrate._half_width
    monkeypatch.setattr(integrate, "_half_width", lambda a, b, tol: real(a, b, tol) * np.nan)
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
    # mc_volume is the one-domain pass over its box, bit for bit.  A
    # classical pass gives the bits of the classical column of a call
    # scoring all four domains, which runs it on the same streams; a
    # quantum-class volume agrees within 5 standard errors with that call's
    # quantum-class pass, on the next streams, taken with the pseudo
    # sampler, whose iid error bar has many degrees of freedom where qmc's
    # 4 replicates have 3
    spec = _INVARIANT_SPECS[reg]
    for tol in _ORACLE_TOLS:
        req = IntegrationRequest(domain, spec, 20_000, seed=77, streams=2, tol=tol,
                                 sampler=sampler)
        got = mc_volume(req)
        one = mc_joint_volumes(got.box, spec, 20_000, 77, 2, tol, sampler, domains=(domain,))
        assert got == one.result(domain), f"tol={tol}"
        if domain is DomainTag.CLASSICAL:
            every = mc_joint_volumes(got.box, spec, 20_000, 77, 2, tol, sampler).result(domain)
            assert got == every, f"tol={tol}"
            continue
        every = mc_joint_volumes(got.box, spec, 20_000, 77, 2, tol, "pseudo").result(domain)
        assert (got.acceptance_fraction == 0.0) == (every.acceptance_fraction == 0.0)
        sigma = math.hypot(got.std_error, every.std_error)
        assert abs(got.estimate - every.estimate) <= 5.0 * sigma, (tol, got, every)


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


# the column of each class's sums in a pass (a quantum pass splits its own)
_COLUMN = {DomainTag.CLASSICAL: 0, DomainTag.QUANTUM: 1, DomainTag.SEPARABLE: 1,
           DomainTag.ENTANGLED: 2}


def _reference_in_class_stream(child_ss, count, box, spec, tol, sampler, tag):
    """The untiled kernel: each tile's points drawn inside the class ``tag``.

    A pseudo stream is one replicate, whose tiles draw a and b for every
    point and then the uniforms of c and d for those that pass the class's
    a, b test, min(a, b) > -tol for classical and >= 1 - tol for the
    quantum classes, inside the energy cutoff.  A qmc stream is two
    scrambles, drawn from the stream's generator in turn, over the first
    ceil(count / 2) and floor(count / 2) of their points, each drawn in full
    from the direct form, bit by bit from its index, so the kernel's sums
    must show that drawing c and d only for the points that pass changes no
    bits.  c is uniform on [0, c-end] and d on the class's d-interval at c:
    [0, h] and [-h, h] with h = sqrt(max(ab, 0)) + tol for classical, and
    ``twomode._class_limits`` for the quantum classes.  Each point is
    weighted with the generic ``volume_density`` and ``regularizer_values``
    times the two interval lengths over the box's c and d spans, times 2 for
    the c < 0 half.  A quantum point is entangled where d < -d2.  Returns
    each replicate's count and sums, one row per replicate and one column
    per part: classical, separable and entangled.
    """
    q = 1.0 - tol
    lo = np.asarray(box.lo)
    span = np.asarray(box.hi) - lo
    per = 2.0 / (span[2] * span[3])
    rng = np.random.default_rng(child_ss)

    def survives(a, b):
        if tag is DomainTag.CLASSICAL:
            keep = (a > -tol) & (b > -tol)
        else:
            keep = np.minimum(a, b) >= q
        if spec.kind is RegKind.ENERGY_PHI:
            keep &= 2.0 * (a + b) <= spec.bound_E
        return keep

    if sampler == "pseudo":
        counts = [count]

        def draw(done, t):
            a, b = lo[:2, None] + rng.random((2, t)) * span[:2, None]
            keep = survives(a, b)
            return a[keep], b[keep], rng.random((2, np.count_nonzero(keep)))

        draws = [draw]
    else:
        counts = [count - count // 2, count // 2]

        def direct(scramble):
            def draw(done, t):
                u = scramble.words(np.arange(done, done + t)) * 2.0 ** -32
                a, b = (u[j] * span[j] + lo[j] for j in range(2))
                keep = survives(a, b)
                return a[keep], b[keep], u[2:, keep]
            return draw

        draws = [direct(_sobol.Scramble(rng)) for _ in counts]
    rows = []
    for n, draw in zip(counts, draws):
        s1, s2, hits = np.zeros(3), np.zeros(3), np.zeros(3, dtype=np.int64)
        for done in range(0, n, integrate._TILE):
            a, b, (c, v) = draw(done, min(integrate._TILE, n - done))
            if tag is DomainTag.CLASSICAL:
                end = np.sqrt(np.maximum(a * b, 0.0)) + tol
                c = c * end
                start, length = -end, end + end
            else:
                end, start, length = _class_limits(tag, a, b, c, q * q, draw=True)[:3]
            d = start + v * length
            w = volume_density(a, b, c, d) * regularizer_values(a, b, c, d, spec)
            w *= end * length * per
            lab = np.full(a.size, _COLUMN[tag])
            if tag is DomainTag.QUANTUM:
                d2 = _class_limits(tag, a, b, c, q * q)
                lab = np.where(d < -(d2[1] + d2[2]), 2, 1)
            s1 += np.bincount(lab, weights=w, minlength=3)
            s2 += np.bincount(lab, weights=w * w, minlength=3)
            hits += np.bincount(lab, minlength=3)
        rows.append((s1, s2, hits))
    return np.array(counts), *(np.array(x) for x in zip(*rows))


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
    # near E = 4 the cutoff a + b <= E/2 cuts through the quantum classes: at
    # E = 4.5 some tens of separable and entangled points of such a run lie
    # inside it and tens of thousands outside
    (5 * integrate._TILE + 3, sampler, "E4.5", False, tol)
    for sampler, tol in (("pseudo", 1e-9), ("qmc", 1e-3))
] + [
    # at tol = -0.25 the classical draw's a, b test drops the draws with
    # min(a, b) <= 0.25, some of whose slices would have a half-width
    # h = sqrt(ab) - 0.25 below 0
    (2 * integrate._TILE + 3, "pseudo", "E", False, -0.25),
] + [
    # the boxes fitted to the quantum classes: E = 8's at tol = 1e-3, and
    # kappa's with a and b from 1 - 1e-9, which a classical pass draws in too
    (2 * integrate._TILE + 3, sampler, reg, fitted, tol)
    for sampler, reg, fitted, tol in (("qmc", "E", "fit_E", 1e-3),
                                      ("pseudo", "kappa", "fold_kappa", -1e-6))
]
_FITTED_BOXES = {
    "fit_E": Box(lo=(0.999, 0.999, -2.0, -2.0), hi=(3.001, 3.001, 2.0, 2.0)),
    "fold_kappa": Box(lo=(1.0 - 1e-9, 1.0 - 1e-9, -8.0, -8.0), hi=(8.0, 8.0, 8.0, 8.0)),
}


@pytest.mark.parametrize("count,sampler,reg,wide,tol", _ORACLE_CASES)
def test_tiled_kernel_matches_untiled_reference(count, sampler, reg, wide, tol):
    if reg == "kappa":
        spec = RegularizerSpec.adjugate(2.0)
    else:
        spec = RegularizerSpec.energy(8.0 if reg == "E" else float(reg[1:]))
    if wide in _FITTED_BOXES:
        box = _FITTED_BOXES[wide]
    elif reg == "kappa":
        box = integrate._sym_box(16.0 if wide else 8.0)
    else:
        # the wide box holds twice E = 8's phi_box in a and b, four times in c and d
        box = integrate._sym_box(8.0) if wide else phi_box(spec.bound_E)
    seed = [count, len(sampler), len(reg), len(wide) if wide in _FITTED_BOXES else int(wide)]
    # for every class drawn, the kernel gives the reference's counts and hits
    # bit for bit and its sums to rounding
    for tag in DOMAIN_ORDER:
        want = _reference_in_class_stream(np.random.SeedSequence(seed), count, box, spec, tol,
                                          sampler, tag)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            got = integrate._stream_partial(np.random.SeedSequence(seed), count, box, spec, tol,
                                            sampler, tag)
        assert len(got) == len(want) == 4
        assert np.array_equal(got[0], want[0]) and got[0].sum() == count
        assert got[3].dtype == np.int64 and np.array_equal(got[3], want[3]), tag
        for g, w in zip(got[1:3], want[1:3]):
            assert g.dtype == w.dtype and np.allclose(g, w, rtol=1e-12, atol=0.0), tag


def test_weights_computed_once_per_tile(monkeypatch):
    # every pass weights each tile's points by _class_weight in blocks of at
    # most _BLOCK points and half the tile's points, so two or three per
    # tile, and never calls regularizer_values
    real, calls = integrate._class_weight, []

    def counting(a, *rest):
        calls.append(a.size)
        return real(a, *rest)

    def never(*args):
        raise AssertionError("regularizer_values called")

    count = 2_000_000
    tiles = -(-count // integrate._TILE)
    energy, damped = RegularizerSpec.energy(8.0), RegularizerSpec.adjugate(5.0)
    cases = [
        (phi_box(8.0), energy, DomainTag.CLASSICAL),
        (upsilon_box(5.0), damped, DomainTag.CLASSICAL),
        (integrate._default_box(damped, (DomainTag.ENTANGLED,), DEFAULT_EPS_TAIL, 1e-9), damped,
         DomainTag.ENTANGLED),
        (integrate._default_box(energy, (DomainTag.SEPARABLE,), DEFAULT_EPS_TAIL, 1e-9), energy,
         DomainTag.SEPARABLE),
        (upsilon_box(5.0), damped, DomainTag.QUANTUM),
    ]
    monkeypatch.setattr(integrate, "_class_weight", counting)
    monkeypatch.setattr(integrate, "regularizer_values", never)
    for box, spec, tag in cases:
        calls.clear()
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            hits = integrate._stream_partial(np.random.SeedSequence(5), count, box, spec, 1e-9,
                                             "pseudo", tag)[3]
        assert tiles == 31 and sum(calls) == hits.sum() > 0, tag
        assert 2 * tiles <= len(calls) <= 3 * tiles and max(calls) <= integrate._BLOCK, tag


@pytest.mark.parametrize("tol", _ORACLE_TOLS + (0.5,))
def test_in_class_draw_needs_a_box_holding_the_class(tol):
    # every pass draws inside its class, so its box must hold the slice
    # |c|, |d| <= r of every point of its support.  Every box _default_box
    # fits does, for any domains; a pass over a box whose c or d side cuts
    # the slice, such as a quadrant c >= 0 >= d, raises instead of drawing
    E, K, T = RegularizerSpec.energy(8.0), RegularizerSpec.adjugate(5.0), DomainTag

    def run(box, spec, domains):
        return mc_joint_volumes(box, spec, 100, 1, tol=tol, domains=domains)

    def refused(box, spec, domains):
        with pytest.raises(InvalidArgumentError, match="c and d sides must hold"):
            run(box, spec, domains)

    one = ((T.CLASSICAL,), (T.QUANTUM,), (T.SEPARABLE,), (T.ENTANGLED,))
    for spec in (E, K):
        for domains in one + (DOMAIN_ORDER,):
            box = integrate._default_box(spec, domains, DEFAULT_EPS_TAIL, tol)
            assert run(box, spec, domains).n_samples == 100, (spec, domains)
    # phi_box(8) holds |c|, |d| <= E/4 = 2 inside tr V <= 8, though not sqrt(ab) <= 4
    run(phi_box(8.0), E, DOMAIN_ORDER)
    refused(phi_box(8.0), K, (T.SEPARABLE,))
    run(integrate._sym_box(4.0), K, DOMAIN_ORDER)
    # each of the c and d sides' ends 0.1 short of r = 4
    for k, end in itertools.product((2, 3), (0, 1)):
        sides = [[0.0, 0.0, -4.0, -4.0], [4.0, 4.0, 4.0, 4.0]]
        sides[end][k] = 3.9 if end else -3.9
        for domains in one:
            refused(Box(*sides), K, domains)
    quadrant = Box(lo=(1.0, 1.0, 0.0, -4.0), hi=(4.0, 4.0, 4.0, 0.0))
    for domains in one:
        refused(quadrant, K, domains)


@pytest.mark.parametrize("spec", [RegularizerSpec.energy(8.0), RegularizerSpec.adjugate(5.0)],
                         ids=["E8", "kappa5"])
def test_class_weight_is_zero_off_the_open_classical_domain(spec):
    # the classical draw reaches |c| or |d| >= sqrt(ab): the weight is 0 at
    # pc = 0, pd = 0, pc < 0 < pd (with q = pc + pd of either sign, and
    # p = pc pd < 0), pd < 0 < pc and pc, pd < 0 (where p > 0), never NaN
    # and never positive; d = -h is one qmc point in 2^32.  At a = b = 2
    # the slice is |c|, |d| < 2 + tol, and tr V = 8
    tol = 1e-9
    c = np.array([2.0, 1.0, 2.1, 3.0, 1.0, 2.5, 1.0, 1.0])
    d = np.array([1.0, 2.0, 1.0, 1.0, 2.5, 3.0, -2.0 - tol, 1.5])
    a, b = np.full(c.size, 2.0), np.full(c.size, 2.0)
    pc, pd = a * b - c * c, a * b - d * d
    assert pc[0] == 0.0 and pd[1] == 0.0 and (pc[2:4] < 0.0).all() and (pd[2:4] > 0.0).all()
    assert pc[2] + pd[2] > 0.0 > pc[3] + pd[3] and pd[4] < 0.0 < pc[4]
    assert pc[5] < 0.0 and pd[5] < 0.0 and pd[6] < 0.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        w = integrate._class_weight(a, b, pc, d, spec, False, np.empty(c.size),
                                    np.empty((3, c.size)), edges=True)
    assert w[:-1].tolist() == [0.0] * (c.size - 1)
    want = 2.0 * volume_density(a, b, c, d) * regularizer_values(a, b, c, d, spec)
    assert w[-1] == pytest.approx(want[-1], rel=1e-12) and w[-1] > 0.0


@pytest.mark.parametrize("spec", [RegularizerSpec.energy(8.0), RegularizerSpec.adjugate(5.0),
                                  RegularizerSpec.adjugate(0.2), RegularizerSpec.energy(8.0, m=3),
                                  RegularizerSpec.energy(1e40), RegularizerSpec.energy(1e44)],
                         ids=["E8", "kappa5", "kappa0.2", "E8m3", "E1e40", "E1e44"])
def test_class_weight_matches_generic_weights(spec):
    # the fused weight of the in-class draw is twice volume_density *
    # regularizer_values to 1e-12, at and near the ends of the c- and
    # d-intervals, and also where p^4 overflows (E >= 1e40).  There the
    # entangled class is a sliver about 1/ab wide at d1, where pd = ab - d^2
    # cancels in floats for both, so only its quantum and separable classes
    # are compared, away from the ends
    rng = np.random.default_rng(3)
    tol = 1e-9
    box = integrate._default_box(spec, (DomainTag.QUANTUM,), DEFAULT_EPS_TAIL, tol)
    huge = spec.kind is RegKind.ENERGY_PHI and spec.bound_E >= 1e40
    big = 2 * spec.m * math.log(max(box.hi[0] * box.hi[1], 1.0)) > 700.0
    assert big == huge
    span = np.subtract(box.hi, box.lo)[:2, None]
    a, b = np.asarray(box.lo[:2])[:, None] + rng.random((2, 100_000)) * span
    if spec.kind is RegKind.ENERGY_PHI:
        a, b = a[2.0 * (a + b) <= spec.bound_E], b[2.0 * (a + b) <= spec.bound_E]
    c, v = rng.uniform(0.01, 0.99, (2, a.size))
    if not huge:
        c[:1000], v[1000:2000], v[2000:3000] = 1.0 - 1e-12, 1.0 - 1e-12, 0.0
    for tag in (DomainTag.QUANTUM, DomainTag.SEPARABLE) + ((DomainTag.ENTANGLED,) * (not huge)):
        cd = c.copy()
        _, start, length, pc, _ = _class_limits(tag, a, b, cd, (1.0 - tol) ** 2, draw=True)
        d = start + v * length
        with np.errstate(over="ignore"):
            got = integrate._class_weight(a, b, pc, d, spec, big, np.empty(a.size),
                                          np.empty((3, a.size)))
        want = 2.0 * volume_density(a, b, cd, d) * regularizer_values(a, b, cd, d, spec)
        assert np.all(want > 0.0) and np.all(np.isfinite(want)), tag
        assert np.allclose(got, want, rtol=1e-12, atol=0.0), (tag, np.max(np.abs(got / want - 1)))


def test_stream_partial_traced_peak_is_small():
    # the scratch is a few tiles; before the tiled kernel one stream of 1M
    # samples peaked at 36.6 MiB
    energy = (phi_box(8.0), RegularizerSpec.energy(8.0), 1e-9, "pseudo", DomainTag.CLASSICAL)
    # the kappa = 5 box, drawn in the entangled class
    damped = (integrate._sym_box(8.0 * math.sqrt(5.0)), RegularizerSpec.adjugate(5.0), 1e-9,
              "pseudo", DomainTag.ENTANGLED)
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


# the cases with exact values: the three quantum classes at kappa = 5 inside
# their support boxes (side 4 sqrt(5/2) = 6.3246 for each), whose a, b sides
# are fitted to them: each the volume minus the tail outside the box, from
# _quad's rule at order 32, where orders 24, 32 and 40 agree to 1.3e-8
# relative or better; and the three quantum classes at E = 8, whose boxes
# are fitted likewise, from a 3-d rule exact to 1e-10
_EXACT_CASES = {
    "kappa5_quantum": (DomainTag.QUANTUM, RegularizerSpec.adjugate(5.0), 0.4738284762),
    "kappa5_separable": (DomainTag.SEPARABLE, RegularizerSpec.adjugate(5.0), 0.1772976858),
    "kappa5_entangled": (DomainTag.ENTANGLED, RegularizerSpec.adjugate(5.0), 0.2965307904),
    "E8_separable": (DomainTag.SEPARABLE, RegularizerSpec.energy(8.0), 5.1866948377),
    "E8_quantum": (DomainTag.QUANTUM, RegularizerSpec.energy(8.0), 8.3216937604),
    "E8_entangled": (DomainTag.ENTANGLED, RegularizerSpec.energy(8.0), 3.1349989227),
}


@functools.cache
def _exact_case_run(case, sampler, seed):
    # cached, so that the honesty tests' seeds 0-49 are the coverage test's
    tag, spec, _ = _EXACT_CASES[case]
    run = mc_volume(IntegrationRequest(tag, spec, 200_000, seed=seed, streams=4, sampler=sampler))
    return run.estimate, run.std_error


def _exact_case_runs(case, sampler, seeds):
    est, errors = np.array([_exact_case_run(case, sampler, seed) for seed in seeds]).T
    return est, errors, _EXACT_CASES[case][2]


def _check_honest(case, sampler):
    # over 50 seeds the estimates spread as their reported errors say, and
    # their mean lies within 4 standard errors of the exact value
    est, errors, exact = _exact_case_runs(case, sampler, range(50))
    se = math.sqrt(np.mean(errors ** 2))
    assert 0.75 <= est.std(ddof=1) / se <= 1.33, est.std(ddof=1) / se
    assert abs(est.mean() - exact) <= 4.0 * se / math.sqrt(len(est)), (est.mean(), se)


@pytest.mark.parametrize("case", list(_EXACT_CASES))
def test_error_bars_honest_against_exact_values(case):
    _check_honest(case, "pseudo")


@pytest.mark.parametrize("case", list(_EXACT_CASES))
def test_qmc_error_bars_honest_against_exact_values(case):
    # the error bar from 8 replicates, where the iid formula overstated
    # qmc's error 2-5 times
    _check_honest(case, "qmc")


@pytest.mark.parametrize("case", list(_EXACT_CASES))
def test_qmc_intervals_cover_exact_values(case):
    # the Student-t interval of R = 2 * streams = 8 replicates misses the
    # exact value in 5% of runs.  With c and d drawn inside the class the
    # share over seeds 0-199 read 5.0%, 5.5%, 5.0%, 3.5%, 6.0% and 7.0% in
    # the order of _EXACT_CASES (3.0%, 3.5%, 3.0%, 2.0%, 3.5% and 3.5% over
    # seeds 1000-1199)
    t_quantile = pytest.importorskip("scipy.stats").t.ppf(0.975, 2 * 4 - 1)
    est, errors, exact = _exact_case_runs(case, "qmc", range(200))
    missed = np.mean(np.abs(est - exact) > t_quantile * errors)
    assert 0.02 <= missed <= 0.08, missed


def test_qmc_classical_error_bar_honest_at_E8():
    # the classical class drawn inside the slice under qmc: over 50 seeds the
    # estimates spread as their reported errors say, and their mean lies
    # within 4 standard errors of nested scipy's 46.75948148550673 (measured:
    # spread/se 0.93, mean at +0.45 standard errors)
    spec = RegularizerSpec.energy(8.0)
    runs = [mc_volume(IntegrationRequest(DomainTag.CLASSICAL, spec, 200_000, seed=seed, streams=4,
                                         sampler="qmc")) for seed in range(50)]
    est, errors = np.array([(r.estimate, r.std_error) for r in runs]).T
    se = math.sqrt(np.mean(errors ** 2))
    assert 0.67 <= est.std(ddof=1) / se <= 1.5, est.std(ddof=1) / se
    assert abs(est.mean() - 46.75948148550673) <= 4.0 * se / math.sqrt(len(est)), est.mean()


# a kappa = 5 sweep row's entangled std_error at 200k samples and seed 1
# when the row was one labelled pass on the classical slice
_LABELLED_SWEEP_ENTANGLED_ERROR = {"pseudo": 0.029223575555935268, "qmc": 0.027309137025350642}


@pytest.mark.parametrize("sampler", ["pseudo", "qmc"])
def test_sweep_quantum_columns_match_quadrature(sampler):
    # a sweep row's quantum pass draws inside the quantum class over the box
    # fitted to all four domains: its quantum, separable and entangled values
    # each lie within 4 standard errors of _quad's volume inside that box.
    # The entangled error bar reads 0.47 (pseudo) and 0.23 (qmc) of the
    # labelled pass's; the box, fitted to classical, spreads the quantum
    # draws over ten times the a, b area of the class's own box
    spec = RegularizerSpec.adjugate(5.0)
    template = IntegrationRequest(DomainTag.CLASSICAL, spec, 200_000, seed=1, streams=4,
                                  sampler=sampler)
    row = sweep("kappa", [5.0], template).rows[0]
    tags = (DomainTag.QUANTUM, DomainTag.SEPARABLE, DomainTag.ENTANGLED)
    side = row.results[DomainTag.QUANTUM].box.hi[0]
    total, tail = _quad.quad_volumes(spec, 24, tags), _quad.tail_masses(spec, tags, side, 24)
    for tag in tags:
        r = row.results[tag]
        assert abs(r.estimate - (total[tag] - tail[tag])) <= 4.0 * r.std_error, (tag, r)
    bound = {"pseudo": 0.5, "qmc": 1.0 / 3.0}[sampler]
    error = row.results[DomainTag.ENTANGLED].std_error
    assert error < bound * _LABELLED_SWEEP_ENTANGLED_ERROR[sampler], error


def test_qmc_sampler_agrees():
    spec = RegularizerSpec.energy(6.0)
    box = phi_box(6.0)
    q1 = mc_joint_volumes(box, spec, 32_768, seed=29, sampler="qmc").result(DomainTag.CLASSICAL)
    q2 = mc_joint_volumes(box, spec, 32_768, seed=29, sampler="qmc").result(DomainTag.CLASSICAL)
    assert q1.estimate == q2.estimate
    p = mc_joint_volumes(box, spec, 100_000, seed=29).result(DomainTag.CLASSICAL)
    # one stream's two replicates give a finite, non-zero error bar
    assert math.isfinite(q1.std_error) and q1.std_error > 0.0
    sigma = math.hypot(p.std_error, q1.std_error)
    assert abs(q1.estimate - p.estimate) < 5.0 * sigma
    assert q1.sampler == "qmc"


def test_qmc_error_bar_is_the_spread_of_replicates():
    # the replicates are two per stream, in stream order, and every reader
    # takes its variances and covariances from their means.  The classical
    # pass runs on the seed's first 3 children and the quantum pass on the
    # next 3, so the covariance across them is 0
    spec, box = RegularizerSpec.energy(8.0), phi_box(8.0)
    jv = mc_joint_volumes(box, spec, 100_003, seed=3, streams=3, sampler="qmc")
    children = integrate._children(np.random.SeedSequence(3), 6)

    def replicates(tag, kids):
        partials = [integrate._stream_partial(child, count, box, spec, DEFAULT_TOL, "qmc", tag)
                    for child, count in zip(kids, integrate._partition(100_003, 3))]
        return (np.concatenate([p[0] for p in partials]),
                np.concatenate([p[1] for p in partials]))

    (c_counts, c_rows), (q_counts, q_rows) = (replicates(DomainTag.CLASSICAL, children[:3]),
                                              replicates(DomainTag.QUANTUM, children[3:]))
    assert c_counts.tolist() == q_counts.tolist() == [16668, 16667, 16667, 16667, 16667, 16667]
    vol = box.volume
    q, s, e, c = DomainTag.QUANTUM, DomainTag.SEPARABLE, DomainTag.ENTANGLED, DomainTag.CLASSICAL
    means = {c: c_rows[:, 0] / c_counts, q: q_rows[:, 1:].sum(axis=1) / q_counts,
             s: q_rows[:, 1] / q_counts, e: q_rows[:, 2] / q_counts}

    def cov(x, y):
        return float(np.dot(x - x.mean(), y - y.mean())) / (x.size * (x.size - 1))

    for tag in DOMAIN_ORDER:
        assert jv.result(tag).std_error == pytest.approx(
            vol * math.sqrt(cov(means[tag], means[tag])), rel=1e-12)
    d = means[q] - means[e]
    assert jv.difference(q, e)[1] == pytest.approx(vol * math.sqrt(cov(d, d)), rel=1e-9)
    assert jv.difference(c, q)[1] == pytest.approx(
        vol * math.sqrt(cov(means[c], means[c]) + cov(means[q], means[q])), rel=1e-12)
    # the ratio's delta method at the pooled means
    x, y = (jv.result(tag).estimate / vol for tag in (q, c))
    ratio_var = cov(means[q], means[q]) / y ** 2 + x * x * cov(means[c], means[c]) / y ** 4
    r, se = jv.ratio(q)
    assert se == pytest.approx(math.sqrt(ratio_var), rel=1e-6)


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
