import itertools
import math

import numpy as np
import pytest

from qsct.chain import (
    ChainSpec,
    QuantumState,
    Spectrum,
    basis_index,
    build_hamiltonian,
    commutator_defect,
    default_couplings,
    embed_pair,
    excitation_index,
    excitation_transfer_amplitude,
    find_pst_time,
    propagator,
)


def test_default_couplings_n2():
    assert default_couplings(2) == pytest.approx([0.5], abs=1e-15)


def test_default_couplings_n4():
    expect = [math.sqrt(3) / 2, 1.0, math.sqrt(3) / 2]
    assert default_couplings(4) == pytest.approx(expect, abs=1e-15)


def test_default_couplings_mirror_symmetry():
    for n in range(2, 11):
        j = default_couplings(n)
        assert j == pytest.approx(j[::-1], abs=1e-15)


def test_default_couplings_rejects_short_chain():
    with pytest.raises(ValueError):
        default_couplings(1)


def test_chain_spec_validation():
    spec = ChainSpec(d=3, n=4)
    assert spec.dim == 81
    assert spec.dims == (3, 3, 3, 3)
    assert len(spec.couplings) == 3
    with pytest.raises(ValueError):
        ChainSpec(d=1, n=2)
    with pytest.raises(ValueError):
        ChainSpec(d=2, n=1)
    with pytest.raises(ValueError):
        ChainSpec(d=2, n=2, couplings=[0.5, 0.5])
    with pytest.raises(ValueError):
        ChainSpec(d=4, n=7)  # 16384 > dimension cap


def test_embed_pair_placement():
    a = np.array([[0, 1], [1, 0]], dtype=complex)
    b = np.diag([1.0, -1.0]).astype(complex)
    two = ChainSpec(d=2, n=2)
    assert np.array_equal(embed_pair(a, b, 1, two), np.kron(a, b))
    three = ChainSpec(d=2, n=3)
    assert np.array_equal(embed_pair(a, b, 2, three), np.kron(np.eye(2), np.kron(a, b)))
    with pytest.raises(ValueError):
        embed_pair(a, b, 3, three)
    with pytest.raises(ValueError):
        embed_pair(np.eye(3), b, 1, three)


def test_embed_pair_preserves_hermiticity():
    rng = np.random.default_rng(6)
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    h = m + m.conj().T
    out = embed_pair(h, h, 1, ChainSpec(d=2, n=3))
    assert np.max(np.abs(out - out.conj().T)) < 1e-15


def test_hamiltonian_d2_n2_entries():
    h = build_hamiltonian(ChainSpec(d=2, n=2))
    expect = np.zeros((4, 4))
    expect[1, 2] = expect[2, 1] = 0.5  # |01> <-> |10>
    assert np.allclose(h, expect, atol=1e-15)
    assert np.max(np.abs(h.imag)) < 1e-15


def test_hamiltonian_d3_n2_swap_structure():
    h = build_hamiltonian(ChainSpec(d=3, n=2))
    expect = np.zeros((9, 9))
    for a in range(3):
        for b in range(3):
            if a != b:
                expect[3 * a + b, 3 * b + a] = 0.5  # |ab> <-> |ba>
    assert np.allclose(h, expect, atol=1e-15)


def test_hamiltonian_hermitian_and_real():
    for d, n in ((2, 4), (3, 3)):
        h = build_hamiltonian(ChainSpec(d=d, n=n))
        assert np.max(np.abs(h - h.conj().T)) < 1e-12
        assert np.max(np.abs(h.imag)) < 1e-12


def test_commutator_defect_small_chains():
    assert commutator_defect(ChainSpec(d=2, n=3)) == pytest.approx([0.0], abs=1e-10)
    assert commutator_defect(ChainSpec(d=3, n=2)) == pytest.approx([0.0, 0.0], abs=1e-10)
    assert commutator_defect(ChainSpec(d=3, n=4)) == pytest.approx([0.0, 0.0], abs=1e-10)


def test_sector_preservation():
    # H maps each basis vector into the span of equal per-level occupation counts
    for d, n in ((2, 3), (3, 2), (3, 3)):
        spec = ChainSpec(d=d, n=n)
        h = build_hamiltonian(spec)
        for idx, values in enumerate(itertools.product(range(d), repeat=n)):
            counts = tuple(sorted(values))
            col = h[:, basis_index(list(values), d)]
            for jdx, other in enumerate(itertools.product(range(d), repeat=n)):
                if abs(col[jdx]) > 1e-12:
                    assert tuple(sorted(other)) == counts


def test_mirror_symmetry_commutes():
    for d, n in ((2, 4), (3, 3)):
        spec = ChainSpec(d=d, n=n)
        h = build_hamiltonian(spec)
        perm = np.zeros((spec.dim, spec.dim))
        for values in itertools.product(range(d), repeat=n):
            perm[basis_index(list(values[::-1]), d), basis_index(list(values), d)] = 1.0
        assert np.max(np.abs(h @ perm - perm @ h)) < 1e-12


def test_vacuum_annihilated():
    h = build_hamiltonian(ChainSpec(d=3, n=3))
    vac = np.zeros(27)
    vac[0] = 1.0
    assert np.max(np.abs(h @ vac)) < 1e-15


def test_propagator_identity_at_zero():
    h = build_hamiltonian(ChainSpec(d=2, n=3))
    assert np.allclose(propagator(h, 0.0), np.eye(8), atol=1e-14)


def test_propagator_semigroup():
    h = build_hamiltonian(ChainSpec(d=3, n=2))
    u = propagator(h, 0.4) @ propagator(h, 0.9)
    assert np.allclose(u, propagator(h, 1.3), atol=1e-12)


def test_propagator_full_swap_at_pi():
    h = build_hamiltonian(ChainSpec(d=2, n=2))
    u = propagator(h, math.pi)
    assert abs(u[1, 2]) == pytest.approx(1.0, abs=1e-12)  # |10> -> |01| amplitude


def test_excitation_index():
    spec = ChainSpec(d=3, n=3)
    assert excitation_index(spec, 1, 2) == 18  # |200>
    assert excitation_index(spec, 3, 1) == 1   # |001>
    with pytest.raises(ValueError):
        excitation_index(spec, 4, 1)
    with pytest.raises(ValueError):
        excitation_index(spec, 1, 3)


def test_transfer_amplitude_zero_at_t0():
    for n in (2, 3, 4):
        spec = ChainSpec(d=2, n=n)
        assert excitation_transfer_amplitude(spec, 0.0, 1) < 1e-15


def test_transfer_amplitude_qubit_at_pi():
    for n in (2, 3, 4, 5):
        spec = ChainSpec(d=2, n=n)
        assert excitation_transfer_amplitude(spec, math.pi, 1) == pytest.approx(1.0, abs=1e-6)


def test_transfer_phase_pattern():
    # end-to-end amplitude at t=pi carries phase (-i)^(N-1), same for every level
    from qsct.chain import _TransferAmplitudes

    for d, n in ((2, 2), (2, 3), (3, 4), (3, 5)):
        spec = ChainSpec(d=d, n=n)
        amp = _TransferAmplitudes(spec).complex_amplitudes(math.pi)
        for level in range(d - 1):
            assert amp[level] == pytest.approx((-1j) ** (n - 1), abs=1e-10)


def test_find_pst_time_qubit_pair():
    t_star, amplitude = find_pst_time(ChainSpec(d=2, n=2))
    assert amplitude >= 1.0 - 1e-6
    assert abs(t_star - math.pi) < 1e-6


def test_find_pst_time_common_across_lengths():
    times = []
    for n in (2, 3, 4, 5):
        t_star, amplitude = find_pst_time(ChainSpec(d=2, n=n))
        assert amplitude >= 1.0 - 1e-6
        times.append(t_star)
    assert max(times) - min(times) < 1e-6


def test_find_pst_time_qutrit_levels():
    t_star, amplitude = find_pst_time(ChainSpec(d=3, n=4))
    assert amplitude >= 1.0 - 1e-6
    for level in (1, 2):
        assert excitation_transfer_amplitude(ChainSpec(d=3, n=4), t_star, level) >= 1.0 - 1e-6


def test_find_pst_time_coarse_grid_still_returns():
    t_star, amplitude = find_pst_time(ChainSpec(d=2, n=2), grid_points=7)
    assert 0.0 <= t_star <= 2.0 * math.pi
    assert 0.0 <= amplitude <= 1.0 + 1e-12


def test_find_pst_time_rejects_bad_window():
    for t_max in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            find_pst_time(ChainSpec(d=2, n=2), t_max=t_max)


def test_quantum_state_validation():
    ket = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    state = QuantumState.pure(ket, (2, 2))
    assert state.kind == "pure"
    with pytest.raises(ValueError):
        QuantumState.pure(2.0 * ket, (2, 2))
    with pytest.raises(ValueError):
        QuantumState.pure(ket, (2, 3))
    rho = np.outer(ket, ket.conj())
    assert QuantumState.density(rho, (2, 2)).kind == "mixed"
    with pytest.raises(ValueError):
        QuantumState.density(2.0 * rho, (2, 2))
    with pytest.raises(ValueError):
        QuantumState.density(rho + 0.1j * np.eye(4), (2, 2))


def test_quantum_state_to_density():
    ket = np.zeros(4, dtype=complex)
    ket[1] = 1.0
    rho = QuantumState.pure(ket, (2, 2)).to_density().data
    assert np.array_equal(rho, np.outer(ket, ket.conj()))


def test_spectrum_evolution_matches_propagator():
    rng = np.random.default_rng(7)
    for d, n in ((2, 2), (2, 5), (3, 3), (4, 3)):
        spec = ChainSpec(d=d, n=n)
        h = build_hamiltonian(spec)
        spectrum = Spectrum(spec)
        psi = rng.normal(size=spec.dim) + 1j * rng.normal(size=spec.dim)
        psi /= np.linalg.norm(psi)
        assert np.array_equal(spectrum.evolve(psi, 0.0), psi)
        for t in (0.3, math.pi / 7, math.pi, 5.5):
            u = propagator(h, t)
            assert np.max(np.abs(spectrum.evolve(psi, t) - u @ psi)) <= 1e-12
            assert np.max(np.abs(spectrum.unitary(t) - u)) <= 1e-12


def test_spectrum_rejects_complex_hamiltonian(monkeypatch):
    spec = ChainSpec(d=2, n=2)
    h = build_hamiltonian(spec)
    h[1, 2] += 1e-3j
    h[2, 1] -= 1e-3j
    monkeypatch.setattr("qsct.chain.build_hamiltonian", lambda _spec: h)
    with pytest.raises(ValueError, match="imaginary"):
        Spectrum(spec)


def test_find_pst_time_reuses_given_spectrum(monkeypatch):
    spec = ChainSpec(d=3, n=3)
    spectrum = Spectrum(spec)
    expect = find_pst_time(spec)

    def no_eigh(*args, **kwargs):
        raise AssertionError("find_pst_time diagonalised again")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    assert find_pst_time(spec, spectrum=spectrum) == expect


def test_find_pst_time_overflowing_phases_name_the_chain():
    spec = ChainSpec(d=2, n=3, couplings=[1e308, 1e308])
    with pytest.raises(FloatingPointError, match=r"d=2, nodes=3, couplings=\[1e\+308, 1e\+308\]"):
        find_pst_time(spec)
    with pytest.raises(FloatingPointError, match="nodes=5"):
        find_pst_time(ChainSpec(d=2, n=5), t_max=1e308)
