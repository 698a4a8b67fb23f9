import numpy as np
import pytest

from oracles import beta, eta, generator_set, projector, theta

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.diag([1.0, -1.0]).astype(complex)


def test_projector_basic():
    assert np.array_equal(projector(1, 2, 2), np.array([[0, 1], [0, 0]], dtype=complex))
    assert np.array_equal(projector(1, 1, 3), np.diag([1.0, 0.0, 0.0]).astype(complex))


def test_projector_adjoint_symmetry():
    for d in (2, 3, 4):
        for k in range(1, d + 1):
            for j in range(1, d + 1):
                assert np.array_equal(projector(k, j, d).conj().T, projector(j, k, d))


def test_projector_rejects_out_of_range():
    with pytest.raises(ValueError):
        projector(0, 1, 2)
    with pytest.raises(ValueError):
        projector(1, 3, 2)


def test_theta_is_pauli_x():
    assert np.array_equal(theta(1, 2, 2), PAULI_X)


def test_beta_is_pauli_y():
    # sign fixed by the row-k, column-j projector convention
    assert np.array_equal(beta(1, 2, 2), PAULI_Y)


def test_theta_corner_pair():
    m = theta(1, 3, 3)
    expect = np.zeros((3, 3), dtype=complex)
    expect[0, 2] = expect[2, 0] = 1.0
    assert np.array_equal(m, expect)


def test_theta_beta_reject_bad_order():
    with pytest.raises(ValueError):
        theta(2, 2, 3)
    with pytest.raises(ValueError):
        beta(3, 1, 3)


def test_eta_first_is_pauli_z():
    assert np.allclose(eta(1, 2), PAULI_Z, atol=1e-15)


def test_eta_qutrit_second():
    expect = np.sqrt(1.0 / 3.0) * np.diag([1.0, 1.0, -2.0])
    assert np.allclose(eta(2, 3), expect, atol=1e-15)


def test_eta_traceless():
    for d in (2, 3, 4, 5):
        for r in range(1, d):
            assert abs(np.trace(eta(r, d))) < 1e-15


def test_eta_rejects_bad_r():
    with pytest.raises(ValueError):
        eta(0, 3)
    with pytest.raises(ValueError):
        eta(3, 3)


def test_generator_set_counts():
    for d in (2, 3, 4, 5):
        gs = generator_set(d)
        assert gs.count == d * d - 1
        assert len(gs.thetas) == d * (d - 1) // 2
        assert len(gs.betas) == d * (d - 1) // 2
        assert len(gs.etas) == d - 1
        assert len(gs.matrices()) == d * d - 1


def test_generator_set_d2_is_pauli_basis():
    gs = generator_set(2)
    assert np.array_equal(gs.thetas[(1, 2)], PAULI_X)
    assert np.array_equal(gs.betas[(1, 2)], PAULI_Y)
    assert np.allclose(gs.etas[1], PAULI_Z, atol=1e-15)


def test_generators_hermitian_traceless():
    for d in (2, 3, 4, 5):
        for g in generator_set(d).matrices():
            assert np.max(np.abs(g - g.conj().T)) < 1e-12
            assert abs(np.trace(g)) < 1e-12


def test_generators_orthonormal():
    # tr(G_a G_b) = 2 delta_ab
    for d in (2, 3, 4, 5):
        mats = generator_set(d).matrices()
        gram = np.array([[np.trace(a @ b).real for b in mats] for a in mats])
        assert np.max(np.abs(gram - 2.0 * np.eye(len(mats)))) < 1e-12


def test_generator_set_rejects_small_d():
    with pytest.raises(ValueError):
        generator_set(1)
