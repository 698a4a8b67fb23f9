import itertools
import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

import qsct.chain
from qsct.chain import (
    ChainSpec,
    Spectrum,
    _real_matmul,
    default_couplings,
    find_pst_time,
)
from oracles import (
    block_states,
    build_hamiltonian,
    commutator_defect,
    embed_operator,
    eta,
    sign_bisection,
)


def _complex_propagator(h, t):
    """exp(-i t H) from a complex eigh of H: an oracle that shares nothing with Spectrum."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * t * w)) @ v.conj().T


def _sector(spec):
    """The sector's level-count blocks: the vacuum (n, 0, ...), then one
    excitation of level r, (n-1, ..., 1 at r, ...), for r = 1..d-1."""
    return np.array([[spec.n] + [0] * (spec.d - 1)]
                    + [[spec.n - 1] + [int(r == level) for r in range(1, spec.d)]
                       for level in range(1, spec.d)])


def _sector_step(spectrum, t):
    """1 (+) (I_{d-1} (x) V exp(-i E t) V^T), from J's own eigh."""
    spec = spectrum.spec
    j = np.diag(spec.couplings, 1)
    w, v = np.linalg.eigh(j + j.T)
    expect = np.zeros((1 + (spec.d - 1) * spec.n,) * 2, dtype=complex)
    expect[0, 0] = 1.0
    expect[1:, 1:] = np.kron(np.eye(spec.d - 1), _real_matmul(v, np.exp(-1j * t * w)[:, None] * v.T))
    return expect


def _spy_eigh(monkeypatch, delay=0.0):
    """Record the shape of every matrix np.linalg.eigh is handed from here on."""
    eigh, shapes = np.linalg.eigh, []

    def spy(a, *args, **kwargs):
        shapes.append(np.shape(a))
        time.sleep(delay)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    return shapes


def _transfer_amplitude(spec, t):
    """|<e_N| exp(-i J t) |e_1>|, the last of the chain's site amplitudes."""
    return float(abs(Spectrum(spec).site_amplitudes(t)[-1]))


def _register_transfer_amplitudes(spec, t):
    """<level r on site N| exp(-i t H) |level r on site 1> for r = 1..d-1, from
    a complex eigh of the register Hamiltonian: shares no eigh with Spectrum."""
    u = _complex_propagator(build_hamiltonian(spec), t)
    return np.array([u[r, r * spec.d ** (spec.n - 1)] for r in range(1, spec.d)])


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
        monkeypatch.setattr("oracles.build_hamiltonian", lambda _spec: h)
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
            col = h[:, np.ravel_multi_index(values, spec.dims)]
            for jdx, other in enumerate(itertools.product(range(d), repeat=n)):
                if abs(col[jdx]) > 1e-12:
                    assert tuple(sorted(other)) == counts


def test_mirror_symmetry_commutes():
    for d, n in ((2, 4), (3, 3)):
        spec = ChainSpec(d=d, n=n)
        h = build_hamiltonian(spec)
        perm = np.zeros((spec.dim, spec.dim))
        for values in itertools.product(range(d), repeat=n):
            mirrored = np.ravel_multi_index(values[::-1], spec.dims)
            perm[mirrored, np.ravel_multi_index(values, spec.dims)] = 1.0
        assert np.max(np.abs(h @ perm - perm @ h)) < 1e-12


def test_vacuum_annihilated():
    h = build_hamiltonian(ChainSpec(d=3, n=3))
    vac = np.zeros(27)
    vac[0] = 1.0
    assert np.max(np.abs(h @ vac)) < 1e-15


def test_propagator_identity_at_zero():
    spectrum = Spectrum(ChainSpec(d=2, n=3))
    assert np.allclose(spectrum.unitary(0.0), np.eye(8), atol=1e-14)


def test_propagator_semigroup():
    spectrum = Spectrum(ChainSpec(d=3, n=2))
    u = spectrum.unitary(0.4) @ spectrum.unitary(0.9)
    assert np.allclose(u, spectrum.unitary(1.3), atol=1e-12)


def test_propagator_full_swap_at_pi():
    spectrum = Spectrum(ChainSpec(d=2, n=2))
    u = spectrum.unitary(math.pi)
    assert abs(u[1, 2]) == pytest.approx(1.0, abs=1e-12)  # |10> -> |01| amplitude


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
        phase = (-1j) ** (n - 1)
        assert Spectrum(spec).site_amplitudes(math.pi)[-1] == pytest.approx(phase, abs=1e-10)
        amps = _register_transfer_amplitudes(spec, math.pi)
        assert amps == pytest.approx([phase] * (d - 1), abs=1e-10)


def test_find_pst_time_qubit_pair():
    t_star, amplitude = find_pst_time(Spectrum(ChainSpec(d=2, n=2)))
    assert amplitude >= 1.0 - 1e-6
    assert abs(t_star - math.pi) < 1e-6


def test_find_pst_time_common_across_lengths():
    times = []
    for n in (2, 3, 4, 5):
        t_star, amplitude = find_pst_time(Spectrum(ChainSpec(d=2, n=n)))
        assert amplitude >= 1.0 - 1e-6
        times.append(t_star)
    assert max(times) - min(times) < 1e-6


def test_find_pst_time_qutrit_levels():
    spec = ChainSpec(d=3, n=4)
    t_star, amplitude = find_pst_time(Spectrum(spec))
    assert amplitude >= 1.0 - 1e-6
    # every level arrives, on the register's own propagator
    assert np.min(np.abs(_register_transfer_amplitudes(spec, t_star))) >= 1.0 - 1e-6


def test_find_pst_time_rejects_bad_window():
    for t_max in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            find_pst_time(Spectrum(ChainSpec(d=2, n=2)), t_max=t_max)


def test_spectrum_evolution_matches_propagator():
    for d, n in ((2, 2), (2, 5), (3, 3), (4, 3)):
        spec = ChainSpec(d=d, n=n)
        h = build_hamiltonian(spec)
        spectrum = Spectrum(spec)
        for t in (0.3, math.pi / 7, math.pi, 5.5):
            assert np.max(np.abs(spectrum.unitary(t) - _complex_propagator(h, t))) <= 1e-12


@pytest.mark.parametrize("d, n", [(d, n) for d in range(2, 28) for n in range(2, 10)
                                  if d**n <= 729])
def test_unitary_matches_the_dense_oracle(d, n):
    spec = ChainSpec(d=d, n=n, couplings=np.random.default_rng(100 * d + n).uniform(0.2, 2.0, n - 1))
    spectrum = Spectrum(spec)
    t = 1.3
    u = spectrum.unitary(t)
    assert np.max(np.abs(u - _complex_propagator(build_hamiltonian(spec), t))) <= 1e-13
    assert np.array_equal(spectrum.unitary(0.0), np.eye(spec.dim))
    sector = _sector(spec)
    assert np.array_equal(spectrum.unitary(0.0, sector), np.eye(1 + (d - 1) * n))
    # on the sector: 1 (+) (I_{d-1} (x) exp(-i J t)), from J's own eigh
    expect = _sector_step(spectrum, t)
    assert np.array_equal(spectrum.unitary(t, sector), expect)
    # the sector's rows and columns of the whole register's unitary
    states = block_states(spec, sector)
    assert np.array_equal(u[np.ix_(states, states)], expect)
    # so is any set of blocks, in any order
    rng = np.random.default_rng(10 * d + n)
    digits = np.array(np.unravel_index(np.arange(spec.dim), spec.dims))
    every = np.unique((digits == np.arange(d)[:, None, None]).sum(1).T, axis=0)
    counts = rng.permutation(every)[:rng.integers(1, len(every) + 1)]
    states = block_states(spec, counts)
    assert np.array_equal(spectrum.unitary(t, counts), u[np.ix_(states, states)])


def test_unitary_refuses_counts_that_are_not_level_counts():
    # each row must be d non-negative integers summing to n: O(B d) to check
    spectrum = Spectrum(ChainSpec(d=3, n=3))
    for counts in ([[3, 0]], [[2, 1, 0, 0]], [[1, 1, 0]], [[4, -1, 0]], [[3, 0, 0], [2, 2, 0]],
                   [[3.0, 0.0, 0.0]], [[True, True, True]], [3, 0, 0]):
        with pytest.raises(ValueError, match="counts: expected rows of 3 non-negative integers "
                                             "summing to 3"):
            spectrum.unitary(0.5, counts)


def test_find_pst_time_never_diagonalises(monkeypatch):
    # the search reads the eigenpairs of the Spectrum it is given
    spectrum = Spectrum(ChainSpec(d=3, n=3))

    def no_eigh(*args, **kwargs):
        raise AssertionError("find_pst_time diagonalised")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    t_star, amplitude = find_pst_time(spectrum)
    assert abs(t_star - math.pi) < 1e-6
    assert amplitude >= 1.0 - 1e-6


UNEVEN_5 = [0.84, 1.01, 0.86, 1.42]


@pytest.mark.parametrize("d, n, couplings, t_max, m, t_hex, amp_hex", [
    (2, 2, None, 2.0 * math.pi, 1, "0x1.921fb54442d1ap+1", "0x1.ffffffffffffep-1"),
    (3, 4, None, 2.0 * math.pi, 1, "0x1.921fb54442d16p+1", "0x1.0000000000001p+0"),
    (4, 5, None, 2.0 * math.pi, 1, "0x1.921fb54442d1ap+1", "0x1.fffffffffffffp-1"),
    (3, 3, [1.0, 1e-8], 2.0 * math.pi, 1, "0x1.90b7398ff6c52p+1", "0x1.579644d756189p-26"),
    (2, 5, [1.0, 0.3, 0.7, 1.0], 2.0 * math.pi, 1, "0x1.ffee499428776p+1",
     "0x1.c343d460cd55ep-2"),
    (2, 5, UNEVEN_5, 800.0, 2, "0x1.7a0fd5c4bc4d6p+9", "0x1.a82bd8fd0fda4p-1"),
    (2, 5, UNEVEN_5, 1400.0, 3, "0x1.5b988b4966d54p+10", "0x1.a8997855f5195p-1"),
    (2, 5, UNEVEN_5, 1741.6, 4, "0x1.aae0db71b54d8p+10", "0x1.a8cc842547bebp-1"),
    (2, 5, UNEVEN_5, 2500.0, 5, "0x1.35b5f3927e7a8p+11", "0x1.a93e04e27d64dp-1"),
    (2, 5, UNEVEN_5, 3000.0, 6, "0x1.74010de869e10p+11", "0x1.a97f8d012c631p-1"),
    (2, 5, UNEVEN_5, 3448.3, 7, "0x1.aca26ba4f4c02p+11", "0x1.a9b5b95b155c6p-1"),
], ids=["d2-n2", "d3-n4", "d4-n5", "weak-link", "uneven",
        "finer-m2", "finer-m3", "finer-m4", "finer-m5", "finer-m6", "finer-m7"])
def test_find_pst_time_bits(d, n, couplings, t_max, m, t_hex, amp_hex):
    # the search's (t_star, amplitude), bit for bit: t_star is the transfer
    # time of every run that leaves t_total open. Where spread h > 1
    # (h = t_max / 1999), the scan steps m = ceil(spread h) times finer
    spectrum = Spectrum(ChainSpec(d=d, n=n, couplings=couplings))
    spread = spectrum.eigvals[-1] - spectrum.eigvals[0]
    assert max(1, math.ceil(spread * t_max / 1999)) == m
    t_star, amplitude = find_pst_time(spectrum, t_max=t_max)
    assert (t_star.hex(), amplitude.hex()) == (t_hex, amp_hex)


@pytest.mark.parametrize("couplings, t_max", [
    (None, 2.0 * math.pi), (None, 50.0), ([0.989, 1.148], 2.0 * math.pi),
    ([1.0, 0.3, 0.7, 1.0], 10.0), ([0.84, 1.01, 0.86, 1.42], 300.0),
    ([1.1, 0.9, 1.3, 0.8, 1.2], 100.0), ([0.5, 1.7, 0.2, 1.1, 0.9, 1.3], 500.0),
])
def test_find_pst_time_matches_one_bracket_at_a_time(couplings, t_max):
    # the loop that the search vectorises, on windows where spread h <= 1: each
    # modulus a single np.dot, each candidate's bracket refined alone by a
    # scalar bisection on the sign of d|A|^2/dt; the same (t_star,
    # amplitude), bit for bit
    n = 5 if couplings is None else len(couplings) + 1
    spectrum = Spectrum(ChainSpec(d=3, n=n, couplings=couplings))
    weights = spectrum.eigvecs[-1] * spectrum.eigvecs[0]
    rates = weights * spectrum.eigvals

    def modulus(t):
        return float(abs(np.dot(weights, np.exp(-1j * (t * spectrum.eigvals)))))

    def slope(t):
        # Re(conj(A) A') with A' = -i sum w E exp(-i E t)
        phases = np.exp(-1j * (t * spectrum.eigvals))
        return (np.conj(np.dot(weights, phases)) * np.dot(rates, phases)).imag

    ts = np.linspace(0.0, t_max, 2000)
    spread = spectrum.eigvals[-1] - spectrum.eigvals[0]
    assert spread * ts[1] <= 1.0
    vals = [modulus(t) for t in ts]
    top, slack = max(vals), (spread * ts[1]) ** 2 / 32.0
    first_tie = next(i for i, v in enumerate(vals) if v >= top - 1e-12)
    peaks = []
    for i, value in enumerate(vals):
        lo, hi = max(i - 1, 0), min(i + 1, len(ts) - 1)
        if i == first_tie or value >= max(vals[lo], vals[hi], top - slack):
            t = sign_bisection(slope, ts[lo], ts[hi])
            peaks.append((t, modulus(t)))
    highest = max(value for _, value in peaks)
    want = next(peak for peak in peaks if peak[1] >= highest - 1e-12)
    assert find_pst_time(spectrum, t_max=t_max) == want


@pytest.mark.parametrize("t_max", [2.0 * math.pi, 50.0])
def test_find_pst_time_returns_the_earliest_of_tying_revivals(t_max):
    # couplings (a, b) give eigenvalues 0, +-sqrt(a^2 + b^2): every later peak
    # repeats the first one's modulus, and the scan samples the first one
    # lower than a later one, by less than (spread h)^2 / 32. The first
    # revival is at pi / sqrt(a^2 + b^2)
    spectrum = Spectrum(ChainSpec(d=2, n=3, couplings=[0.989, 1.148]))
    t_star, amplitude = find_pst_time(spectrum, t_max=t_max)
    first = math.pi / math.hypot(0.989, 1.148)
    assert abs(t_star - first) <= 4.0 * math.ulp(first)
    assert amplitude == pytest.approx(0.988989231389031, abs=1e-15)


@pytest.mark.parametrize("t_max", [10.0, 20.0, 50.0, 100.0])
@pytest.mark.parametrize("d, n", [(3, 4), (4, 5)])
def test_find_pst_time_engineered_chain_transfers_first_at_pi(d, n, t_max):
    # the engineered chain revives perfectly at every odd multiple of pi
    t_star, amplitude = find_pst_time(Spectrum(ChainSpec(d=d, n=n)), t_max=t_max)
    assert abs(t_star - math.pi) <= 4.0 * math.ulp(math.pi)
    assert amplitude == pytest.approx(1.0, abs=1e-12)


def test_find_pst_time_gives_pi_to_a_few_ulps_on_every_engineered_chain():
    # the sign of d|A|^2/dt resolves the peak where |A| itself is flat to eps;
    # 64**2 and 2**12 are 4096
    chains = [(d, n) for d in range(2, 65) for n in range(2, 13) if d**n <= 4096]
    for d, n in chains:
        t_star, amplitude = find_pst_time(Spectrum(ChainSpec(d=d, n=n)))
        assert abs(t_star - math.pi) <= 4.0 * math.ulp(math.pi), (d, n, t_star)
        assert amplitude == pytest.approx(1.0, abs=1e-12), (d, n, amplitude)


def test_find_pst_time_resolves_the_slow_revival_of_a_weak_pair():
    # |A| = |sin(1e-3 t)|: the peak at pi / 2e-3 is flat to eps over ~1e-5
    t_star, amplitude = find_pst_time(Spectrum(ChainSpec(d=2, n=2, couplings=[1e-3])),
                                      t_max=2000.0)
    assert t_star == pytest.approx(math.pi / 2e-3, rel=1e-12, abs=0.0)
    assert amplitude == pytest.approx(1.0, abs=1e-12)


def test_find_pst_time_keeps_a_later_peak_that_is_higher():
    # the peak at 14.0489 (0.827341) falls within the scan's bound of the
    # best scan value but refines lower than the peak at 31.2554 (0.827410)
    spectrum = Spectrum(ChainSpec(d=2, n=5, couplings=[0.84, 1.01, 0.86, 1.42]))
    assert float(abs(spectrum.site_amplitudes(14.0489)[-1])) == pytest.approx(0.827341, abs=1e-6)
    t_star, amplitude = find_pst_time(spectrum, t_max=50.0)
    assert t_star == 31.255370050310844
    assert amplitude == pytest.approx(0.827410, abs=1e-6)


# A later peak that the scan samples below the best scan value, above every
# other peak of its window: (couplings, t_max, t_star, amplitude).
HIGHER_LATER_PEAKS = [
    ([0.84, 1.01, 0.86, 1.42], 100.0, 76.55964168307523, 0.827478571622066),
    ([0.84, 1.01, 0.86, 1.42], 300.0, 257.7767277799986, 0.8277487348079676),
    ([0.84, 1.01, 0.86, 1.42], 350.0, 348.38527069105226, 0.8278814790420563),
    ([0.84, 1.01, 0.86, 1.42], 3448.3, 3429.075640131119, 0.8314645694432946),
    ([1.1, 0.9, 1.3, 0.8, 1.2], 3270.8, 2304.753202663256, 0.982981374565503),
]


@pytest.mark.parametrize("couplings, t_max, t_want, amp_want", HIGHER_LATER_PEAKS)
def test_find_pst_time_refines_a_higher_later_peak(couplings, t_max, t_want, amp_want):
    spectrum = Spectrum(ChainSpec(d=2, n=len(couplings) + 1, couplings=couplings))
    t_star, amplitude = find_pst_time(spectrum, t_max=t_max)
    assert abs(t_star - t_want) < 1e-6
    assert amplitude == pytest.approx(amp_want, abs=1e-9)
    assert amplitude == pytest.approx(float(abs(spectrum.site_amplitudes(t_star)[-1])), abs=1e-14)


@pytest.mark.parametrize("couplings, t_max, t_want, amp_want", [
    ([1.95, 0.28, 1.46, 0.59, 1.04], 2770.3, 2143.097425587106, 0.2745238106914851),
    ([1.98, 0.21, 1.97], 2984.3, 403.4628898841537, 0.9988681320370458),
])
def test_find_pst_time_finds_a_peak_whose_coarse_sample_is_no_local_maximum(
        couplings, t_max, t_want, amp_want):
    # near the window bound a 2000-point scan's sample nearest the window's
    # highest peak samples lower than a neighbour on the next hill, so no
    # bracket of a local maximum of that scan holds the peak; the search's
    # scan, with a step of at most 1 / spread, does
    spectrum = Spectrum(ChainSpec(d=2, n=len(couplings) + 1, couplings=couplings))
    ts = np.linspace(0.0, t_max, 2000)
    scan = np.abs(spectrum.site_amplitudes(ts)[:, -1])
    nearest = int(round(t_want / ts[1]))
    assert scan[nearest] < max(scan[nearest - 1], scan[nearest + 1])
    t_star, amplitude = find_pst_time(spectrum, t_max=t_max)
    assert abs(t_star - t_want) < 1e-6
    assert amplitude == pytest.approx(amp_want, abs=1e-9)


def test_find_pst_time_overflowing_phases_name_the_chain():
    spectrum = Spectrum(ChainSpec(d=2, n=3, couplings=[1e308, 1e308]))
    with pytest.raises(FloatingPointError, match=r"d=2, nodes=3, couplings=\[1e\+308, 1e\+308\]"):
        find_pst_time(spectrum)
    with pytest.raises(FloatingPointError, match="nodes=5"):
        find_pst_time(Spectrum(ChainSpec(d=2, n=5)), t_max=1e308)


def test_spectrum_refuses_phases_without_precision():
    # |E t| ~ 1.4e308 leaves the phase exp(-i E t) undetermined by ~1e292 rad
    spectrum = Spectrum(ChainSpec(d=2, n=3, couplings=[1e308, 1e308]))
    for counts in (None, _sector(spectrum.spec)):
        with pytest.raises(FloatingPointError, match=r"d=2, nodes=3, couplings=\[1e\+308"):
            spectrum.unitary(0.5, counts)


def test_spectrum_phase_precision_threshold():
    # the phase error |E t| eps may reach 1e-6 rad at the largest |E|
    spectrum = Spectrum(ChainSpec(d=2, n=5))
    limit = 1e-6 / (float(np.max(np.abs(spectrum.eigvals))) * np.finfo(float).eps)
    spectrum.check_time(0.99 * limit)
    spectrum.check_time(-0.99 * limit)
    with pytest.raises(FloatingPointError, match="nodes=5"):
        spectrum.check_time(1.01 * limit)
    with pytest.raises(FloatingPointError, match="nodes=5"):
        find_pst_time(Spectrum(ChainSpec(d=2, n=5)), t_max=1.01 * limit)


def test_find_pst_time_ends_on_a_wide_window():
    # every bracket shrinks to 4 ulps of its end, t ~ 1e6 here. The amplitude
    # of the weak pair is |sin(1e-3 t)|, and the window ends on its revival
    # t = 635 pi / 2e-3, 317.5 periods in, so the last bracket ends there;
    # every revival reaches 1, and the first, pi / 2e-3, is the transfer
    # time. The 2000 scanned times and the 318 brackets take about 0.2 MB at
    # their peak.
    t_max = 635 * math.pi / 2e-3
    spectrum = Spectrum(ChainSpec(d=2, n=2, couplings=[1e-3]))
    tracemalloc.start()
    try:
        t_star, amp = find_pst_time(spectrum, t_max=t_max)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak
    assert t_star == pytest.approx(math.pi / 2e-3, rel=1e-9, abs=0.0)
    assert amp == pytest.approx(1.0, abs=1e-12)


def test_find_pst_time_refuses_a_window_past_1999_periods():
    # d=4 n=5: eigenvalues -2..2, so the window may span 1999 periods pi / 2
    spectrum = Spectrum(ChainSpec(d=4, n=5))
    with pytest.raises(ValueError, match=r"t_max = 1000000\.0 .*d=4, nodes=5"):
        find_pst_time(spectrum, t_max=1e6)
    limit = 2.0 * math.pi / 4.0 * 1999
    find_pst_time(spectrum, t_max=0.999 * limit)
    with pytest.raises(ValueError, match="t_max"):
        find_pst_time(spectrum, t_max=1.001 * limit)
    # a zero-coupling chain has no fastest component and so no widest window:
    # it is refused because it never transfers, not for its window
    with pytest.raises(ValueError, match="does not transfer") as refusal:
        find_pst_time(Spectrum(ChainSpec(d=2, n=2, couplings=[0.0])), t_max=1e6)
    assert "widest window" not in str(refusal.value)


@pytest.mark.parametrize("n, couplings", [(3, [1.0, 0.0]), (3, [0.0, 1.0]), (3, [0.0, 0.0]),
                                          (4, [1.0, 0.0, 1.0])],
                         ids=["last-link", "first-link", "both-links", "middle-link"])
def test_find_pst_time_refuses_a_chain_that_never_transfers(n, couplings):
    # the end-to-end amplitude is 0 on the whole window, so every scan point
    # ties with t = 0; the scan used to return t* ~ 4.7e-11
    spec = ChainSpec(d=3, n=n, couplings=couplings)
    arrived = Spectrum(spec).site_amplitudes(np.linspace(0.0, 10.0, 101))[..., -1]
    assert np.max(np.abs(arrived)) == 0.0
    with pytest.raises(ValueError, match=(rf"d=3, nodes={n}, couplings=\[.*\] stays within "
                                          r"1\.49e-08 of 0 on the scanned window \[0, 6\.28")):
        find_pst_time(Spectrum(spec))


@pytest.mark.parametrize("weak, t_star", [(1e-8, 3.130591578728855), (1e-7, 3.140021071435978)])
def test_find_pst_time_searches_a_weak_link_above_the_floor(weak, t_star):
    # the largest amplitude is about 2 * weak; above PST_FLOOR = sqrt(eps) the
    # transfer time is searched as for any chain
    t, amp = find_pst_time(Spectrum(ChainSpec(d=3, n=3, couplings=[1.0, weak])))
    assert amp == pytest.approx(2.0 * weak, rel=1e-3)
    assert t == pytest.approx(t_star, abs=1e-9)


def test_find_pst_time_refuses_a_weak_link_below_the_floor():
    # |amplitude| stays near 2e-9, below PST_FLOOR = sqrt(eps): less than eps
    # of the weight ever arrives, so there is no transfer time
    with pytest.raises(ValueError, match=r"couplings=\[1\.0, 1e-09\] stays within 1\.49e-08"):
        find_pst_time(Spectrum(ChainSpec(d=3, n=3, couplings=[1.0, 1e-9])))


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
                # level r on 1-based site s sits at register index r d^(n-s)
                column = u[:, level * d ** (n - 1)]
                expect = [column[level * d ** (n - s)] for s in range(1, n + 1)]
                assert np.max(np.abs(f - expect)) <= 1e-12
            assert abs(np.linalg.norm(f) - 1.0) <= 1e-14


def test_unitary_on_the_sector_is_the_register_propagator_there():
    rng = np.random.default_rng(4)
    for d, n in ((2, 2), (2, 5), (3, 4), (4, 3)):
        spec = ChainSpec(d=d, n=n, couplings=rng.uniform(0.2, 2.0, n - 1))
        states = block_states(spec, _sector(spec))
        for t in (0.4, math.pi, 7.3):
            u = _complex_propagator(build_hamiltonian(spec), t)
            step = Spectrum(spec).unitary(t, _sector(spec))
            assert np.max(np.abs(step - u[np.ix_(states, states)])) <= 1e-12


def test_spectrum_builds_the_register_lazily_and_once(monkeypatch):
    # J's eigh is taken when the Spectrum is built, and the vacuum's 1 x 1
    # block is stored beside it, so the sector needs no eigh; the whole
    # register takes one per other partition of n, on its first call:
    # (1, 1, 1) here, as (2, 1) is J
    spec = ChainSpec(d=3, n=3)
    spectrum = Spectrum(spec)
    shapes = _spy_eigh(monkeypatch)
    spectrum.site_amplitudes(1.0)
    spectrum.unitary(1.0, _sector(spec))
    find_pst_time(spectrum)
    assert shapes == []
    spectrum.unitary(0.5)
    spectrum.unitary(1.5)
    spectrum.unitary(1.0, _sector(spec))
    assert shapes == [(6, 6)]


def test_whole_register_unitaries_enumerate_each_partition_once(monkeypatch):
    # (3, 3) has the partitions (3), (2, 1) and (1, 1, 1); each one's states
    # are enumerated on the first whole-register call and kept with its eigh
    spectrum, fresh = Spectrum(ChainSpec(d=3, n=3)), Spectrum(ChainSpec(d=3, n=3))
    want = [fresh.unitary(0.5), fresh.unitary(1.5)]
    enumerate_states, keys = qsct.chain._block_states, []

    def counting(counts):
        keys.append(counts)
        return enumerate_states(counts)

    monkeypatch.setattr(qsct.chain, "_block_states", counting)
    got = [spectrum.unitary(0.5), spectrum.unitary(1.5)]
    assert sorted(keys) == [(1, 1, 1), (2, 1), (3,)]
    assert all(np.array_equal(u, v) for u, v in zip(got, want))


def test_threads_sharing_a_spectrum_build_the_register_once(monkeypatch):
    # the points of a sweep share their chain's Spectrum across --jobs
    # threads; a slow eigh widens the window in which a second thread could
    # diagonalise a partition again. (3, 4) has the partitions (4) and
    # (3, 1) (the vacuum and J, both held when the Spectrum is built), (2, 2)
    # and (2, 1, 1).
    spectrum = Spectrum(ChainSpec(d=3, n=4))
    shapes = _spy_eigh(monkeypatch, delay=0.05)
    start = threading.Barrier(8)
    unitaries = []

    def step():
        start.wait()
        unitaries.append(spectrum.unitary(0.5))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=step) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(shapes) == [(6, 6), (12, 12)]
    assert len(unitaries) == 8
    assert all(np.array_equal(u, unitaries[0]) for u in unitaries)


@pytest.mark.parametrize("n, peak_mb", [(40, 1), (200, 8)])
def test_a_sector_step_past_the_cap_is_o_n_squared(monkeypatch, n, peak_mb):
    # 3**40 and 3**200 states: no register index, no d^n-sized array; the
    # vacuum and J are held, so no hopping matrix is built either
    monkeypatch.setattr(qsct.chain, "MAX_DIM", 3**n)
    spectrum = Spectrum(ChainSpec(d=3, n=n))
    shapes = _spy_eigh(monkeypatch)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        step = spectrum.unitary(0.7, _sector(spectrum.spec))
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(step, _sector_step(spectrum, 0.7))
    assert shapes == [(n, n)]       # _sector_step's own eigh of J
    assert peak < peak_mb * 2**20
    assert elapsed < 0.5
