"""Acceptance gate: ten numbered criteria, one verdict line each.

Each test prints "criterion N: PASS/FAIL - detail" and the same lines are
echoed in the terminal summary.  Fixed seeds throughout; every check either
meets its stated tolerance or fails with the measured value.
"""

import math
import time

import numpy as np
import pytest

from conftest import record_criterion, sample_canonical

from gaussvol import _quad
from gaussvol.cli import main as cli_main
from gaussvol.integrate import IntegrationRequest, mc_joint_volumes, phi_box, upsilon_box
from gaussvol.metric import (
    bound_matrix,
    det_bound_holds,
    metric_closed_form,
    metric_mc_oracle,
    volume_element,
)
from gaussvol.regularizers import RegularizerSpec, upsilon
from gaussvol.states import (
    apply_congruence,
    is_classical,
    is_quantum,
    mode_permutation_matrix,
    partial_transpose_two_mode,
    random_symplectic,
)
from gaussvol.twomode import (
    CanonicalPoint,
    DomainTag,
    canonical_chart,
    canonical_embed,
    domain_mask,
    metric_components,
)

C = DomainTag.CLASSICAL
Q = DomainTag.QUANTUM
S = DomainTag.SEPARABLE
E = DomainTag.ENTANGLED


def test_criterion_01_metric_equivalence():
    # generic trace formula vs explicit standard-form components, 1000 points
    chart = canonical_chart()
    rng = np.random.default_rng(1001)
    pts = sample_canonical(rng, 1000, C, margin=1e-3)
    t0 = time.perf_counter()
    explicit = metric_components(pts[:, 0], pts[:, 1], pts[:, 2], pts[:, 3])
    worst = 0.0
    for p, ge in zip(pts, explicit):
        at = metric_closed_form(canonical_embed(CanonicalPoint(*p)), chart)
        dev = np.abs(at.g - ge).max() / max(np.abs(ge).max(), 1e-300)
        worst = max(worst, float(dev))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 1.0
    record_criterion(1, ok, f"max relative deviation {worst:.3e} (<= 1e-10) in {elapsed:.2f}s (< 1s)")
    assert worst <= 1e-10
    assert elapsed < 1.0


def test_criterion_02_sampling_oracle():
    # score-based Monte Carlo estimate vs closed form, 1e6 samples per point
    chart = canonical_chart()
    points = [
        CanonicalPoint(1.0, 1.0, 0.0, 0.0),
        CanonicalPoint(2.0, 1.0, 0.0, 0.0),
        CanonicalPoint(1.5, 1.2, 0.4, -0.3),
        CanonicalPoint(2.0, 2.0, 1.0, -1.0),
        CanonicalPoint(3.0, 2.0, -0.8, 0.5),
    ]
    t0 = time.perf_counter()
    worst = 0.0
    for k, p in enumerate(points):
        V = canonical_embed(p)
        cf = metric_closed_form(V, chart)
        mc = metric_mc_oracle(V, chart, 1_000_000, seed=31415 + k, streams=4)
        z = np.abs(mc.g - cf.g) / mc.std_errors
        worst = max(worst, float(z.max()))
    elapsed = time.perf_counter() - t0
    ok = worst <= 4.0 and elapsed < 30.0
    record_criterion(2, ok, f"worst entry deviation {worst:.2f} std errors (<= 4) in {elapsed:.1f}s (< 30s)")
    assert worst <= 4.0
    assert elapsed < 30.0


def test_criterion_03_volume_element_invariance():
    # sqrt(det g) under congruences with the pushed-forward chart
    chart = canonical_chart()
    rng = np.random.default_rng(303)
    base = sample_canonical(rng, 10, C, margin=1e-2)
    sym_worst = 0.0
    for k in range(100):
        Smat = random_symplectic(2, 1.0, seed=5000 + k)
        V = canonical_embed(CanonicalPoint(*base[k % 10]))
        ve0 = volume_element(V, chart)
        ve1 = volume_element(apply_congruence(V, Smat), chart.pushforward(Smat))
        sym_worst = max(sym_worst, abs(ve1 - ve0) / ve0)
    P = mode_permutation_matrix([1, 0])
    swap_worst = 0.0
    for p in sample_canonical(np.random.default_rng(304), 100, C, margin=1e-3):
        V = canonical_embed(CanonicalPoint(*p))
        ve0 = volume_element(V, chart)
        ve1 = volume_element(apply_congruence(V, P), chart.pushforward(P))
        swap_worst = max(swap_worst, abs(ve1 - ve0) / ve0)
    ok = sym_worst <= 1e-9 and swap_worst <= 1e-10
    record_criterion(
        3, ok,
        f"symplectic worst {sym_worst:.3e} (<= 1e-9), mode swap worst {swap_worst:.3e} (<= 1e-10)",
    )
    assert sym_worst <= 1e-9
    assert swap_worst <= 1e-10


def test_criterion_04_damping_invariance():
    # adjugate-trace damping under permutation and symplectic congruences
    spec = RegularizerSpec.adjugate(5.0)
    P = mode_permutation_matrix([1, 0])
    rng = np.random.default_rng(404)
    pts = sample_canonical(rng, 100, C, margin=1e-4)
    perm_worst = 0.0
    for p in pts:
        V = canonical_embed(CanonicalPoint(*p))
        u0 = upsilon(V, spec)
        perm_worst = max(perm_worst, abs(upsilon(apply_congruence(V, P), spec) - u0) / u0)
    sym_worst = 0.0
    for k in range(100):
        Smat = random_symplectic(2, 0.7, seed=6000 + k)
        V = canonical_embed(CanonicalPoint(*pts[k]))
        u0 = upsilon(V, spec)
        sym_worst = max(sym_worst, abs(upsilon(apply_congruence(V, Smat), spec) - u0) / u0)
    ok = perm_worst <= 1e-10 and sym_worst <= 1e-10
    record_criterion(
        4, ok,
        f"permutation worst {perm_worst:.3e} (<= 1e-10), symplectic worst {sym_worst:.3e} "
        "(claimed <= 1e-10; the damping is not symplectically invariant)",
    )
    assert perm_worst <= 1e-10
    if sym_worst > 1e-10:
        pytest.fail(
            "symplectic invariance of the adjugate-trace damping does not hold and cannot: "
            f"measured max relative deviation {sym_worst:.3e} over 100 congruences. "
            "adj(S^T V S) = S^-1 adj(V) S^-T, so tr adj is preserved only when S is orthogonal; "
            "for S = diag(e, 1/e, 1, 1) the damping exponent at V = I moves from 4 to "
            "e^2 + e^-2 + 2. No redefinition can satisfy this while matching the explicit "
            "standard-form values, because (2,2,1,-1) and (sqrt3,sqrt3,0,0) share the same "
            "symplectic spectrum yet have tr adj V = 24 and 12*sqrt3. Mode permutations are "
            "orthogonal, which is why that half of the check passes."
        )


def test_criterion_05_det_bound():
    chart = canonical_chart()
    bm = bound_matrix(chart)
    det_e_dev = abs(bm.det - 1.0)
    violations = 0
    for tag, seed in ((C, 505), (Q, 506)):
        rng = np.random.default_rng(seed)
        pts = sample_canonical(rng, 1000, tag, margin=1e-4)
        for p in pts:
            if not det_bound_holds(canonical_embed(CanonicalPoint(*p)), chart, slack=1e-9):
                violations += 1
    ok = violations == 0 and det_e_dev <= 1e-12
    record_criterion(
        5, ok,
        f"{violations} violations on 2x1000 points (need 0), |det E - 1| = {det_e_dev:.1e} (<= 1e-12)",
    )
    assert violations == 0
    assert det_e_dev <= 1e-12


def test_criterion_06_domain_equivalence():
    # inequality masks vs spectral criteria on 1e5 points in (0,4]^2 x [-4,4]^2
    rng = np.random.default_rng(606)
    n = 100_000
    a = rng.uniform(0.0, 4.0, n)
    b = rng.uniform(0.0, 4.0, n)
    c = rng.uniform(-4.0, 4.0, n)
    d = rng.uniform(-4.0, 4.0, n)
    Vs = np.zeros((n, 4, 4))
    Vs[:, 0, 0] = Vs[:, 1, 1] = a
    Vs[:, 2, 2] = Vs[:, 3, 3] = b
    Vs[:, 0, 2] = Vs[:, 2, 0] = c
    Vs[:, 1, 3] = Vs[:, 3, 1] = d
    spec_c = is_classical(Vs, tol=0.0)
    spec_q = spec_c & is_quantum(Vs, tol=0.0)
    spec_s = spec_q & is_quantum(partial_transpose_two_mode(Vs), tol=0.0)
    disagreements = 0
    checked = 0
    for tag, spectral in ((C, spec_c), (Q, spec_q), (S, spec_s), (E, spec_q & ~spec_s)):
        mask = domain_mask(a, b, c, d, tag, 0.0)
        band = domain_mask(a, b, c, d, tag, 1e-8) != domain_mask(a, b, c, d, tag, -1e-8)
        keep = ~band
        checked += int(keep.sum())
        disagreements += int((mask[keep] != spectral[keep]).sum())
    ok = disagreements == 0
    record_criterion(6, ok, f"{disagreements} disagreements on {checked} checks outside 1e-8 bands (need 0)")
    assert disagreements == 0


def _capped_box(kappa):
    """``upsilon_box(kappa)`` where the classical tail fails eps_tail even at the 2 L0 cap."""
    with pytest.warns(RuntimeWarning, match="support box capped"):
        return upsilon_box(kappa)


def test_criterion_07_inclusion_chains():
    t0 = time.perf_counter()
    worst_z = 0.0
    configs = []
    for bound_e in (4.0, 6.0, 8.0, 12.0):
        spec = RegularizerSpec.energy(bound_e)
        configs.append((f"E={bound_e:g}", phi_box(bound_e), spec, 8800 + int(bound_e)))
    for kappa in (1.0, 5.0, 10.0, 50.0):
        spec = RegularizerSpec.adjugate(kappa)
        box = upsilon_box(kappa) if kappa <= 5.0 else _capped_box(kappa)
        configs.append((f"kappa={kappa:g}", box, spec, 8900 + int(kappa)))
    ordered = True
    for label, box, spec, seed in configs:
        jv = mc_joint_volumes(box, spec, 1_000_000, seed=seed, streams=8)
        vol_s = jv.result(S).estimate
        vol_q = jv.result(Q).estimate
        vol_c = jv.result(C).estimate
        d_qs, e_qs = jv.difference(Q, S)
        d_cq, e_cq = jv.difference(C, Q)
        ordered &= vol_s <= vol_q + 2.0 * e_qs and vol_q <= vol_c + 2.0 * e_cq
        # S <= Q holds exactly, Q being S + E from the separable and
        # entangled passes; Q <= C holds across independent passes by a wide
        # margin (Q/C <= 0.22)
        ordered &= vol_s <= vol_q <= vol_c
        if e_qs > 0:
            worst_z = max(worst_z, -d_qs / e_qs)
        if e_cq > 0:
            worst_z = max(worst_z, -d_cq / e_cq)
    elapsed = time.perf_counter() - t0
    ok = ordered and elapsed < 300.0
    record_criterion(
        7, ok,
        f"vol(S) <= vol(Q) <= vol(C) exact on all 8 settings (worst -z {worst_z:.2f}) in {elapsed:.0f}s (< 5min)",
    )
    assert ordered
    assert elapsed < 300.0


def test_criterion_08_limits():
    # below tr V = 4 no quantum state passes the energy cut: ratios exactly zero
    spec = RegularizerSpec.energy(0.5)
    jv = mc_joint_volumes(phi_box(0.5), spec, 200_000, seed=801, streams=4)
    zeros = [jv.ratio(tag) for tag in (Q, S, E)]
    all_zero = all(r == (0.0, 0.0) for r in zeros)
    # large damping: each quantum/classical ratio against its exact value over
    # the same box, from the Gauss-Legendre rule of _quad at order 24 (the
    # volume minus the tail outside the box), which is within 3e-5 of order
    # 32.  Q/C drifts by 7% from kappa = 50 to 100, so the two ratios are not
    # compared with each other (tests/test_quad.py pins the drift)
    checks = []
    for kappa, seed in ((50.0, 802), (100.0, 803)):
        # both boxes are capped at 2 L0.  The uncapped boxes are far larger,
        # and with c and d drawn across them the estimates scattered too
        # widely for this check; the in-class draws spread only a and b over
        # them, which has not been re-measured (ROADMAP item 8)
        box = _capped_box(kappa)
        spec = RegularizerSpec.adjugate(kappa)
        r, s = mc_joint_volumes(box, spec, 1_000_000, seed=seed, streams=8).ratio(Q)
        total = _quad.quad_volumes(spec, 24, (C, Q))
        tail = _quad.tail_masses(spec, (C, Q), box.hi[0], 24)
        exact = (total[Q] - tail[Q]) / (total[C] - tail[C])
        checks.append((kappa, r, exact, abs(r - exact) / s))
    ok = all_zero and all(z <= 3.0 for *_, z in checks)
    record_criterion(
        8, ok,
        f"E=0.5 ratios all exactly 0: {all_zero}; quantum/classical vs exact in the capped box: "
        + ", ".join(f"kappa {k:g} {r:.4f} vs {x:.4f}, z = {z:.2f}" for k, r, x, z in checks)
        + " (each <= 3)",
    )
    assert all_zero
    assert all(z <= 3.0 for *_, z in checks), checks


def test_criterion_09_volume_hierarchies():
    # damped volumes at kappa = 5: separable < entangled < quantum at >= 3 sigma
    spec = RegularizerSpec.adjugate(5.0)
    box = upsilon_box(5.0, domain=Q)
    jv = mc_joint_volumes(box, spec, 10_000_000, seed=1905, streams=8, domains=(Q,))
    d_es, e_es = jv.difference(E, S)
    d_qe, e_qe = jv.difference(Q, E)
    z_es = d_es / e_es if e_es > 0 else math.inf
    z_qe = d_qe / e_qe if e_qe > 0 else math.inf
    hierarchy_ok = z_es >= 3.0 and z_qe >= 3.0
    # energy-cut volumes at E = 8: is entangled < separable?
    spec8 = RegularizerSpec.energy(8.0)
    jv8 = mc_joint_volumes(phi_box(8.0), spec8, 10_000_000, seed=1906, streams=8, domains=(S, E))
    d_se, e_se = jv8.difference(S, E)
    z_se = d_se / e_se if e_se > 0 else 0.0
    contradicted = z_se <= -3.0
    fig1 = f"separable - entangled z = {z_se:.1f}" + ("" if abs(z_se) >= 3.0 else " (unresolved)")
    ok = hierarchy_ok and not contradicted
    record_criterion(
        9, ok,
        f"kappa=5: entangled - separable z = {z_es:.2f}, quantum - entangled z = {z_qe:.2f} "
        f"(both >= 3); E=8: {fig1}",
    )
    assert hierarchy_ok
    assert not contradicted


def test_criterion_10_determinism_and_error_honesty(tmp_path):
    argv = ["sweep", "--E", "5,8", "--samples", "20000", "--seed", "33", "--streams", "2"]
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_main(argv + ["--out", str(f1)]) == 0
    assert cli_main(argv + ["--out", str(f2)]) == 0
    identical = f1.read_bytes() == f2.read_bytes()
    # 50 independent seeds: reported std errors vs actual spread of estimates
    spec = RegularizerSpec.energy(8.0)
    box = phi_box(8.0)
    estimates = []
    reported = []
    for i in range(50):
        res = mc_joint_volumes(box, spec, 100_000, seed=7000 + i, streams=2,
                               domains=(C,)).result(C)
        estimates.append(res.estimate)
        reported.append(res.std_error)
    spread = float(np.std(estimates, ddof=1))
    mean_se = float(np.mean(reported))
    factor = max(spread / mean_se, mean_se / spread)
    ok = identical and factor <= 1.5
    record_criterion(
        10, ok,
        f"sweep CSV byte-identical: {identical}; 50-seed spread/reported std error factor "
        f"{factor:.2f} (<= 1.5)",
    )
    assert identical
    assert factor <= 1.5
