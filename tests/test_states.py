import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import random_covariance, uncertainty_oracle
from gaussvol.errors import (
    AsymmetricMatrixError,
    DomainError,
    InvalidArgumentError,
)
from gaussvol.states import (
    StateClass,
    adjugate,
    apply_congruence,
    classify,
    dim_modes,
    is_classical,
    is_quantum,
    is_separable_two_mode,
    is_symplectic,
    mode_permutation_matrix,
    partial_transpose_two_mode,
    random_symplectic,
    require_covariance,
    symplectic_eigenvalues,
    symplectic_form,
    trace_adjugate,
)


def two_mode_squeezed(r: float) -> np.ndarray:
    ch, sh = math.cosh(2 * r), math.sinh(2 * r)
    return np.array(
        [
            [ch, 0.0, sh, 0.0],
            [0.0, ch, 0.0, -sh],
            [sh, 0.0, ch, 0.0],
            [0.0, -sh, 0.0, ch],
        ]
    )


def test_require_covariance_accepts_symmetric():
    V = require_covariance([[2.0, 0.5, 0.0, 0.0], [0.5, 2.0, 0.0, 0.0],
                            [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
    assert V.dtype == float
    assert V.shape == (4, 4)


def test_require_covariance_rejects_bad_shapes():
    with pytest.raises(InvalidArgumentError):
        require_covariance(np.eye(3))  # odd side
    with pytest.raises(InvalidArgumentError):
        require_covariance(np.ones((2, 4)))
    with pytest.raises(InvalidArgumentError):
        require_covariance(np.ones(4))
    with pytest.raises(InvalidArgumentError):
        require_covariance(np.full((2, 2), np.nan))


def test_require_covariance_rejects_asymmetric():
    V = np.eye(4)
    V[0, 1] = 1e-6
    with pytest.raises(AsymmetricMatrixError):
        require_covariance(V)
    # scaled asymmetry below the relative tolerance is accepted
    W = 1e8 * np.eye(2)
    W[0, 1] = 1e-5
    require_covariance(W)


def test_symplectic_form_basics():
    for n in (1, 2, 3):
        om = symplectic_form(n)
        assert_allclose(om @ om, -np.eye(2 * n))
        assert_allclose(om.T, -om)
    assert_allclose(symplectic_form(1), [[0.0, 1.0], [-1.0, 0.0]])


def test_dim_modes():
    assert dim_modes(np.eye(4)) == 2
    assert dim_modes(np.eye(6)) == 3


@pytest.mark.parametrize(
    "diag,expected",
    [
        ((1.0, 1.0, 1.0, 1.0), (1.0, 1.0)),
        ((2.0, 2.0, 1.0, 1.0), (1.0, 2.0)),
        ((0.5, 0.5, 0.5, 0.5), (0.5, 0.5)),
        ((3.0, 3.0, 3.0, 3.0), (3.0, 3.0)),
    ],
)
def test_symplectic_eigenvalues_diagonal(diag, expected):
    assert_allclose(symplectic_eigenvalues(np.diag(diag)), expected, atol=1e-12)


def test_symplectic_eigenvalues_squeezed_vacuum():
    # single-mode squeezing keeps nu = 1
    s = np.diag([math.exp(1.2), math.exp(-1.2)])
    assert_allclose(symplectic_eigenvalues(s), [1.0], atol=1e-12)


def test_symplectic_eigenvalues_two_mode_squeezed():
    V = two_mode_squeezed(0.5)
    assert_allclose(symplectic_eigenvalues(V), [1.0, 1.0], atol=1e-10)
    nu_pt = symplectic_eigenvalues(partial_transpose_two_mode(V))
    assert_allclose(nu_pt, [math.exp(-1.0), math.exp(1.0)], atol=1e-10)


def test_symplectic_eigenvalues_requires_positive_definite():
    with pytest.raises(DomainError):
        symplectic_eigenvalues(np.diag([1.0, 1.0, 1.0, -0.5]))


def test_symplectic_invariance_of_spectrum():
    rng = np.random.default_rng(71)
    V = random_covariance(rng, 4, shift=0.5)
    nu = symplectic_eigenvalues(V)
    for k in range(20):
        S = random_symplectic(2, 0.6, seed=1000 + k)
        assert_allclose(symplectic_eigenvalues(apply_congruence(V, S)), nu, rtol=1e-9)


def test_is_classical_tolerance_is_on_eigenvalues():
    # the smallest eigenvalue must exceed -tol, so a larger tol widens the
    # set, as it widens the classes of twomode.domain_labels
    V = np.diag([1.0, 1.0, 1.0, -5e-10])
    assert is_classical(V, tol=1e-9)
    assert not is_classical(V, tol=1e-10)
    assert not is_classical(np.diag([1.0, 1.0, 1.0, -1e-6]), tol=0.0)
    # a singular positive semidefinite matrix is classical at the default
    # tol, and classify calls it classical only
    singular = np.diag([1.0, 1.0, 1.0, 0.0])
    assert is_classical(singular) and not is_classical(singular, tol=0.0)
    assert classify(singular) is StateClass.CLASSICAL_ONLY
    # every test refuses a tol that is not finite and below 1
    for bad in (1.0, 1.5, math.nan, math.inf):
        for test in (is_classical, is_quantum, is_separable_two_mode, classify):
            with pytest.raises(InvalidArgumentError, match="tol"):
                test(np.eye(4), tol=bad)


def test_is_quantum_matches_uncertainty_embedding():
    rng = np.random.default_rng(5150)
    hits = 0
    for _ in range(100):
        V = random_covariance(rng, 4, spread=1.5, shift=rng.uniform(0.05, 1.5))
        got = is_quantum(V, tol=1e-9)
        want = uncertainty_oracle(V, tol=1e-9)
        nu_min = symplectic_eigenvalues(V)[0]
        if abs(nu_min - 1.0) > 1e-8:
            assert got == want
            hits += got
    assert 0 < hits  # the generator does produce quantum states


def test_is_quantum_boundary_inclusive():
    assert is_quantum(np.eye(4), tol=0.0)
    assert is_quantum(two_mode_squeezed(0.3), tol=1e-9)
    assert not is_quantum(np.diag([0.5, 0.5, 1.0, 1.0]), tol=1e-9)


def test_batch_classifiers_match_scalar():
    rng = np.random.default_rng(99)
    stack = np.stack([random_covariance(rng, 4, shift=rng.uniform(0.05, 2.0)) for _ in range(40)])
    bc = is_classical(stack, tol=1e-9)
    bq = is_quantum(stack, tol=1e-9)
    assert bc.shape == (40,) and bq.shape == (40,)
    for i in range(40):
        assert bc[i] == is_classical(stack[i], tol=1e-9)
        assert bq[i] == is_quantum(stack[i], tol=1e-9)


def test_partial_transpose_is_involution():
    rng = np.random.default_rng(3)
    V = random_covariance(rng, 4)
    W = partial_transpose_two_mode(V)
    assert_allclose(partial_transpose_two_mode(W), V)  # exact sign flips
    assert W[3, 3] == V[3, 3]
    assert W[0, 3] == -V[0, 3]
    with pytest.raises(InvalidArgumentError):
        partial_transpose_two_mode(np.eye(6))


def test_separability_two_mode():
    assert is_separable_two_mode(np.eye(4))
    assert not is_separable_two_mode(two_mode_squeezed(0.5))
    with pytest.raises(DomainError):
        is_separable_two_mode(np.diag([0.5, 0.5, 0.5, 0.5]))
    with pytest.raises(InvalidArgumentError):
        is_separable_two_mode(np.eye(6))


def test_classify_known_states():
    assert classify(np.eye(4)) is StateClass.QUANTUM_SEPARABLE
    assert classify(two_mode_squeezed(0.5)) is StateClass.QUANTUM_ENTANGLED
    assert classify(0.5 * np.eye(4)) is StateClass.CLASSICAL_ONLY
    assert classify(np.diag([1.0, 1.0, 1.0, -1.0])) is StateClass.NOT_A_STATE
    assert classify(np.eye(6)) is StateClass.QUANTUM_UNDETERMINED


def test_classify_thermal_product_state():
    V = np.diag([2.0, 2.0, 1.5, 1.5])
    assert classify(V) is StateClass.QUANTUM_SEPARABLE


def test_apply_congruence_validates():
    with pytest.raises(InvalidArgumentError):
        apply_congruence(np.eye(4), np.zeros((4, 4)))
    with pytest.raises(InvalidArgumentError):
        apply_congruence(np.eye(4), np.eye(2))
    out = apply_congruence(np.eye(4), 2.0 * np.eye(4))
    assert_allclose(out, 4.0 * np.eye(4))


def test_mode_permutation_matrix():
    P = mode_permutation_matrix([1, 0])
    assert is_symplectic(P, tol=0.0)
    V = np.diag([1.0, 2.0, 3.0, 4.0])
    assert_allclose(apply_congruence(V, P), np.diag([3.0, 4.0, 1.0, 2.0]))
    with pytest.raises(InvalidArgumentError):
        mode_permutation_matrix([0, 0])


def test_mode_swap_preserves_class():
    P = mode_permutation_matrix([1, 0])
    for V in (np.eye(4), two_mode_squeezed(0.4), np.diag([0.5, 0.5, 2.0, 2.0])):
        assert classify(apply_congruence(V, P)) is classify(V)


def test_is_symplectic():
    assert is_symplectic(symplectic_form(2))
    assert is_symplectic(np.eye(4))
    assert not is_symplectic(2.0 * np.eye(4))
    assert not is_symplectic(np.eye(3))


def test_random_symplectic_properties():
    for seed in range(10):
        S = random_symplectic(2, 0.8, seed=seed)
        assert is_symplectic(S, tol=1e-9)
        assert_allclose(np.linalg.det(S), 1.0, rtol=1e-9)
    assert_allclose(random_symplectic(2, 0.8, seed=4), random_symplectic(2, 0.8, seed=4))
    S1 = random_symplectic(1, 0.5, seed=0)
    assert S1.shape == (2, 2)
    with pytest.raises(InvalidArgumentError):
        random_symplectic(0, 1.0, seed=0)
    with pytest.raises(InvalidArgumentError):
        random_symplectic(2, -1.0, seed=0)


def test_adjugate_frozen_values():
    assert_allclose(adjugate(np.eye(4)), np.eye(4))
    assert trace_adjugate(np.eye(4)) == pytest.approx(4.0)
    assert trace_adjugate(np.diag([2.0, 2.0, 1.0, 1.0])) == pytest.approx(12.0)
    assert trace_adjugate(np.diag([2.0, 2.0, 2.0, 2.0])) == pytest.approx(32.0)


def test_adjugate_identity_det_times_inverse():
    rng = np.random.default_rng(8)
    for _ in range(10):
        V = random_covariance(rng, 4, shift=0.3)
        adj = adjugate(V)
        assert_allclose(V @ adj, np.linalg.det(V) * np.eye(4), rtol=1e-9, atol=1e-9)


def test_adjugate_singular_fallback():
    # rank-deficient input: det * inv is unusable, the eigenvalue formula is exact
    V = np.diag([1.0, 2.0, 3.0, 0.0])
    assert_allclose(adjugate(V), np.diag([0.0, 0.0, 0.0, 6.0]), atol=1e-12)
    assert trace_adjugate(V) == pytest.approx(6.0)
