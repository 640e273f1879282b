"""The tensor Gauss-Legendre rule of the damped volumes and the box it fits."""

import math
import warnings

import pytest

from gaussvol import _quad
from gaussvol.integrate import DOMAIN_ORDER, mc_joint_volumes, upsilon_box
from gaussvol.regularizers import RegularizerSpec
from gaussvol.twomode import DomainTag

Q, S, E = DomainTag.QUANTUM, DomainTag.SEPARABLE, DomainTag.ENTANGLED

# kappa = 5 volumes from an earlier tensor rule with 48 nodes per axis and
# other axis maps; 4e8-sample Monte Carlo runs agree with them within |z| <= 1.3
_KAPPA5 = {Q: 0.4738971385, S: 0.1772976861, E: 0.2965994523}


def test_kappa5_volumes_match_oracle():
    got = _quad.quad_volumes(RegularizerSpec.adjugate(5.0), 24, (Q, S, E))
    for tag, want in _KAPPA5.items():
        assert got[tag] == pytest.approx(want, rel=1e-6), tag
    # quantum is separable plus entangled, piece by piece
    assert got[Q] == pytest.approx(got[S] + got[E], rel=1e-15)


def test_monte_carlo_agrees_inside_the_box():
    spec = RegularizerSpec.adjugate(5.0)
    box = upsilon_box(5.0, domain=DOMAIN_ORDER)
    side = box.hi[0]
    total = _quad.quad_volumes(spec, 24)
    tail = _quad.tail_masses(spec, DOMAIN_ORDER, side, 24)
    jv = mc_joint_volumes(box, spec, 2_000_000, seed=4711, streams=4)
    for tag in DOMAIN_ORDER:
        r = jv.result(tag)
        inside = total[tag] - tail[tag]
        assert abs(r.estimate - inside) <= 4.0 * r.std_error, (tag, r.estimate, r.std_error, inside)


def _passing_side(spec, tag, eps_tail, order):
    """The first side of the grid L0 * 2^(k/2), k >= -1, where the tail test passes."""
    L0 = max(4.0, 4.0 * math.sqrt(spec.kappa))
    total = _quad.quad_volumes(spec, order, (tag,))[tag]
    for j in range(12):
        for side in (L0 * 2.0 ** j / math.sqrt(2.0), L0 * 2.0 ** j):
            tail = _quad.tail_masses(spec, (tag,), side, order)[tag]
            if tail <= eps_tail * (total - tail):
                return side, L0
    raise AssertionError("no side passes")


@pytest.mark.parametrize("kappa", [1.0, 5.0, 50.0])
def test_tail_ratios_converged_where_the_box_is_decided(kappa):
    # at the side where the tail test passes and one grid step below, the
    # ratio tail / inside agrees with the rule at twice the order, unless
    # both are far below the threshold
    spec, eps_tail, order = RegularizerSpec.adjugate(kappa), 1e-3, 12
    totals = {n: _quad.quad_volumes(spec, n) for n in (order, 2 * order)}
    for tag in DOMAIN_ORDER:
        side, L0 = _passing_side(spec, tag, eps_tail, order)
        for at in (side, side / math.sqrt(2.0)):
            ratio = {}
            for n in (order, 2 * order):
                tail = _quad.tail_masses(spec, (tag,), at, n)[tag]
                ratio[n] = tail / (totals[n][tag] - tail)
            small = max(ratio.values()) < eps_tail / 10.0
            assert small or ratio[order] == pytest.approx(ratio[2 * order], rel=0.25), \
                (tag, at, ratio)
        # the box is that side, at most 2 L0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            box = upsilon_box(kappa, eps_tail, domain=tag)
        assert box.hi[0] == min(side, 2.0 * L0)


def test_quantum_share_still_drifts_at_large_kappa():
    # criterion 8's missing power: Q/C falls by about 7% from kappa = 50 to 100,
    # which a 1M-sample Monte Carlo ratio cannot resolve.  Order 48 gives
    # 0.059879 and 0.055678; the slow classical edge layer sets the tolerance.
    ratio = {}
    for kappa in (50.0, 100.0):
        vols = _quad.quad_volumes(RegularizerSpec.adjugate(kappa), 24)
        ratio[kappa] = vols[Q] / vols[DomainTag.CLASSICAL]
    assert ratio[50.0] == pytest.approx(0.05989, abs=2e-4)
    assert ratio[100.0] == pytest.approx(0.05572, abs=2e-4)
    assert ratio[50.0] > 1.06 * ratio[100.0]


# the rule's order-12 masses per domain (classical, quantum, separable,
# entangled) as (all of it, beyond L0, beyond 2 L0), and upsilon_box's side
# per domain, recorded before the class limits moved into
# twomode._class_limits, which the stream kernel shares
_ORDER12 = {
    1.0: (((0.040457637296056975, 0.000528731227826325, 8.503972333143866e-06),
           (0.0002308483339365503, 1.599547957142866e-11, 9.785212465033313e-20),
           (6.290700273558724e-05, 7.817799230834717e-21, 2.2235277670398998e-67),
           (0.00016794133120096304, 1.599547956361086e-11, 9.785212465033313e-20)),
          (8.0, 2.82842712474619, 2.82842712474619, 2.82842712474619)),
    5.0: (((10.969863084448432, 0.1922935036371342, 0.006328497840440978),
           (0.47391261568886783, 2.2008659456158073e-06, 1.1711399396307178e-10),
           (0.17730918793498554, 3.1941936287241763e-18, 4.620347009220232e-63),
           (0.29660342775388226, 2.200865945612613e-06, 1.1711399396307178e-10)),
          (17.88854381999832, 6.324555320336758, 6.324555320336758, 6.324555320336758)),
    50.0: (((1064.99255828949, 77.99193192730762, 11.54622032269119),
            (63.78317864793872, 0.014031072741181448, 0.0001530661748363258),
            (29.118916542670185, 1.6227861014298774e-16, 1.3925980632530034e-60),
            (34.664262105268534, 0.014031072741181285, 0.0001530661748363258)),
           (56.568542494923804, 28.284271247461902, 20.0, 28.284271247461902)),
}


@pytest.mark.parametrize("kappa", sorted(_ORDER12))
def test_shared_class_limits_move_no_mass(kappa):
    # each domain's mass moves by less than 1e-12 of it, and each tail by
    # less than 1e-12 of its domain's mass, so no support box side moves
    spec = RegularizerSpec.adjugate(kappa)
    L0 = max(4.0, 4.0 * math.sqrt(kappa))
    masses, sides = _ORDER12[kappa]
    got = [_quad.quad_volumes(spec, 12), _quad.tail_masses(spec, DOMAIN_ORDER, L0, 12),
           _quad.tail_masses(spec, DOMAIN_ORDER, 2.0 * L0, 12)]
    for tag, want in zip(DOMAIN_ORDER, masses):
        for g, w in zip(got, want):
            assert abs(g[tag] - w) <= 1e-12 * want[0], (tag, g[tag], w)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert tuple(upsilon_box(kappa, domain=tag).hi[0] for tag in DOMAIN_ORDER) == sides


def test_entangled_and_separable_volumes_cross_at_kappa_star():
    # the paper's inclusion chains compare the class volumes across the
    # damping scale: below kappa* the entangled volume exceeds the separable
    # one, above it the separable one is larger.  Bisecting E/S - 1 on
    # [1000, 1100] at order 16 reads kappa* = 1048.89; orders 24 and 32 read
    # 1049.053 and 1049.024, so order 16 is 1.3e-4 from the finer rules
    def excess(kappa):
        vols = _quad.quad_volumes(RegularizerSpec.adjugate(kappa), 16, (S, E))
        return vols[E] / vols[S] - 1.0

    lo, hi = 1000.0, 1100.0
    assert excess(lo) > 0.0 > excess(hi)
    for _ in range(16):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if excess(mid) > 0.0 else (lo, mid)
    kappa_star = 0.5 * (lo + hi)
    assert kappa_star == pytest.approx(1048.89, abs=0.01)
    assert kappa_star == pytest.approx(1049.02, rel=2e-4)
