import itertools
import math

import numpy as np
import pytest

from qsct.chain import (
    ChainSpec,
    Spectrum,
    _TransferAmplitudes,
    basis_index,
    build_hamiltonian,
    commutator_defect,
    default_couplings,
    excitation_index,
    find_pst_time,
)
from qsct.generators import eta
from qsct.linalg import embed_operator


def _complex_propagator(h, t):
    """exp(-i t H) from a complex eigh of H: an oracle that shares nothing with Spectrum."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * t * w)) @ v.conj().T


def _transfer_amplitude(spec, t):
    return float(abs(_TransferAmplitudes(spec).amplitude(t)))


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
        assert h.dtype == np.float64
        assert np.array_equal(h, h.T)


def test_commutator_defect_small_chains():
    assert commutator_defect(ChainSpec(d=2, n=3)) == pytest.approx([0.0], abs=1e-10)
    assert commutator_defect(ChainSpec(d=3, n=2)) == pytest.approx([0.0, 0.0], abs=1e-10)
    assert commutator_defect(ChainSpec(d=3, n=4)) == pytest.approx([0.0, 0.0], abs=1e-10)


def test_commutator_defect_matches_the_dense_commutator(monkeypatch):
    # a random symmetric H breaks every level count, so each defect is non-zero
    rng = np.random.default_rng(13)
    for d, n in ((2, 3), (3, 2), (3, 3)):
        spec = ChainSpec(d=d, n=n)
        h = rng.normal(size=(spec.dim, spec.dim))
        h += h.T
        monkeypatch.setattr("qsct.chain.build_hamiltonian", lambda _spec: h)
        expect = []
        for r in range(1, d):
            counter = sum(embed_operator(eta(r, d), s, spec.dims) for s in range(n))
            expect.append(np.linalg.norm(h @ counter - counter @ h))
        assert min(expect) > 1.0
        assert commutator_defect(spec) == pytest.approx(expect, rel=1e-12)


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
    spectrum = Spectrum(ChainSpec(d=2, n=3))
    assert np.allclose(spectrum.unitary(0.0), np.eye(8), atol=1e-14)
    psi = np.arange(8) / np.linalg.norm(np.arange(8))
    assert np.array_equal(spectrum.evolve(psi, 0.0), psi)


def test_propagator_semigroup():
    spectrum = Spectrum(ChainSpec(d=3, n=2))
    u = spectrum.unitary(0.4) @ spectrum.unitary(0.9)
    assert np.allclose(u, spectrum.unitary(1.3), atol=1e-12)
    psi = np.eye(9)[5]
    step = spectrum.evolve(spectrum.evolve(psi, 0.4), 0.9)
    assert np.allclose(step, spectrum.evolve(psi, 1.3), atol=1e-12)


def test_propagator_full_swap_at_pi():
    spectrum = Spectrum(ChainSpec(d=2, n=2))
    u = spectrum.unitary(math.pi)
    assert abs(u[1, 2]) == pytest.approx(1.0, abs=1e-12)  # |10> -> |01| amplitude
    assert abs(spectrum.evolve(np.eye(4)[2], math.pi)[1]) == pytest.approx(1.0, abs=1e-12)


def test_spectrum_unitary_zero_couplings():
    spectrum = Spectrum(ChainSpec(d=3, n=2, couplings=[0.0]))
    assert np.allclose(spectrum.unitary(1.7), np.eye(9), atol=1e-15)


def test_spectrum_unitary_two_site_closed_form():
    # on span{|01>, |10>} H = sigma_x / 2; |00> and |11> are annihilated
    spectrum = Spectrum(ChainSpec(d=2, n=2))
    for t in (0.3, 1.1, math.pi, 4.0):
        c, s = math.cos(t / 2.0), math.sin(t / 2.0)
        expect = np.array([[1, 0, 0, 0], [0, c, -1j * s, 0],
                           [0, -1j * s, c, 0], [0, 0, 0, 1]])
        assert np.max(np.abs(spectrum.unitary(t) - expect)) <= 1e-14


def test_spectrum_unitary_group_property():
    spectrum = Spectrum(ChainSpec(d=3, n=3, couplings=[0.37, 1.9]))
    u = spectrum.unitary(0.37) @ spectrum.unitary(-0.37)
    assert np.allclose(u, np.eye(27), atol=1e-12)
    assert np.allclose(spectrum.unitary(0.5).conj().T, spectrum.unitary(-0.5), atol=1e-12)


def test_spectrum_unitary_is_unitary():
    spectrum = Spectrum(ChainSpec(d=2, n=5, couplings=[0.3, 1.2, 0.8, 2.1]))
    u = spectrum.unitary(2.3)
    assert np.max(np.abs(u.conj().T @ u - np.eye(32))) < 1e-12


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
        assert _transfer_amplitude(spec, 0.0) < 1e-15


def test_transfer_amplitude_qubit_at_pi():
    for n in (2, 3, 4, 5):
        spec = ChainSpec(d=2, n=n)
        assert _transfer_amplitude(spec, math.pi) == pytest.approx(1.0, abs=1e-6)


def test_transfer_phase_pattern():
    # end-to-end amplitude at t=pi carries phase (-i)^(N-1), same for every level
    for d, n in ((2, 2), (2, 3), (3, 4), (3, 5)):
        spec = ChainSpec(d=d, n=n)
        amp = _TransferAmplitudes(spec).amplitude(math.pi)
        assert amp == pytest.approx((-1j) ** (n - 1), abs=1e-10)


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
    assert _transfer_amplitude(ChainSpec(d=3, n=4), t_star) >= 1.0 - 1e-6


def test_find_pst_time_coarse_grid_still_returns():
    t_star, amplitude = find_pst_time(ChainSpec(d=2, n=2), grid_points=7)
    assert 0.0 <= t_star <= 2.0 * math.pi
    assert 0.0 <= amplitude <= 1.0 + 1e-12


def test_find_pst_time_rejects_bad_window():
    for t_max in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            find_pst_time(ChainSpec(d=2, n=2), t_max=t_max)


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
            u = _complex_propagator(h, t)
            assert np.max(np.abs(spectrum.evolve(psi, t) - u @ psi)) <= 1e-12
            assert np.max(np.abs(spectrum.unitary(t) - u)) <= 1e-12


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


def test_spectrum_refuses_phases_without_precision():
    # |E t| ~ 1.4e308 leaves the phase exp(-i E t) undetermined by ~1e292 rad
    spectrum = Spectrum(ChainSpec(d=2, n=3, couplings=[1e308, 1e308]))
    ket = np.zeros(8, dtype=complex)
    ket[4] = 1.0
    for call in (lambda: spectrum.evolve(ket, 0.5), lambda: spectrum.unitary(0.5)):
        with pytest.raises(FloatingPointError, match=r"d=2, nodes=3, couplings=\[1e\+308"):
            call()
    assert np.array_equal(spectrum.evolve(ket, 0.0), ket)


def test_spectrum_phase_precision_threshold():
    # the phase error |E t| eps may reach 1e-6 rad at the largest |E|
    spectrum = Spectrum(ChainSpec(d=2, n=5))
    limit = 1e-6 / (float(np.max(np.abs(spectrum.eigvals))) * np.finfo(float).eps)
    spectrum.check_time(0.99 * limit)
    spectrum.check_time(-0.99 * limit)
    with pytest.raises(FloatingPointError, match="nodes=5"):
        spectrum.check_time(1.01 * limit)
    with pytest.raises(FloatingPointError, match="nodes=5"):
        find_pst_time(ChainSpec(d=2, n=5), t_max=1.01 * limit)


def test_find_pst_time_ends_on_a_wide_window():
    # the golden-section bracket cannot shrink below the ulp of t ~ 1e6,
    # which is above the default tol of 1e-10. The window ends on the revival
    # t = (2k - 1) pi of |sin(t / 2)|, and k scan steps of 2 pi - pi / k (under
    # the aliasing limit 2 pi / (max E - min E) = 2 pi) rise to it, so the
    # best bracket is the last one.
    k = 159155
    t_max = (2 * k - 1) * math.pi
    t_star, amp = find_pst_time(ChainSpec(d=2, n=2), t_max=t_max, grid_points=k + 1)
    assert t_max - 2.0 * math.pi < t_star <= t_max
    assert amp == pytest.approx(1.0, abs=1e-6)


def test_find_pst_time_refuses_an_aliasing_scan():
    # d=4 n=5: eigenvalues -2..2, so the scan step may not exceed pi / 2
    spec = ChainSpec(d=4, n=5)
    with pytest.raises(ValueError, match=r"t_max = 1000000\.0 .*d=4, nodes=5"):
        find_pst_time(spec, t_max=1e6)
    limit = 2.0 * math.pi / 4.0 * 1999
    find_pst_time(spec, t_max=0.999 * limit)
    with pytest.raises(ValueError, match="t_max"):
        find_pst_time(spec, t_max=1.001 * limit)
    # a zero-coupling chain has no fastest component and never aliases
    assert find_pst_time(ChainSpec(d=2, n=2, couplings=[0.0]), t_max=1e6)[1] == 0.0


def test_site_amplitudes_match_the_register_evolution():
    rng = np.random.default_rng(3)
    for d, n in ((2, 2), (2, 5), (3, 4), (4, 3)):
        spec = ChainSpec(d=d, n=n, couplings=rng.uniform(0.2, 2.0, n - 1))
        spectrum = Spectrum(spec)
        f0 = spectrum.site_amplitudes(0.0)
        assert np.array_equal(f0, np.eye(n)[0])
        for t in (0.4, math.pi, 7.3):
            u = _complex_propagator(build_hamiltonian(spec), t)
            f = spectrum.site_amplitudes(t)
            for level in range(1, d):
                column = u[:, excitation_index(spec, 1, level)]
                expect = [column[excitation_index(spec, s, level)] for s in range(1, n + 1)]
                assert np.max(np.abs(f - expect)) <= 1e-12
            assert abs(np.linalg.norm(f) - 1.0) <= 1e-14


def test_spectrum_builds_the_register_lazily_and_once(monkeypatch):
    spec = ChainSpec(d=3, n=3)
    built = []
    original = build_hamiltonian
    monkeypatch.setattr("qsct.chain.build_hamiltonian",
                        lambda s: built.append(s) or original(s))
    spectrum = Spectrum(spec)
    spectrum.site_amplitudes(1.0)
    find_pst_time(spec, spectrum=spectrum)
    assert built == []
    spectrum.unitary(0.5)
    spectrum.evolve(np.eye(27)[9], 0.5)
    assert built == [spec]
