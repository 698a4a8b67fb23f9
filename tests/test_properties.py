"""Property tests over channels, run records and the pure-state measures."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qsct.chain import ChainSpec, Spectrum, find_pst_time

from qsct.channels import apply_weyl_table, phase_damping_table, weyl_table
from qsct.entanglement import register_measures, sector_measures
from qsct.linalg import Bipartition, SectorCut, sector_partial_trace
from qsct.protocol import NOISE_TOPOLOGIES, ExperimentConfig, NoiseSpec, run_experiment

from oracles import (
    apply_channel,
    embed_channel,
    golden_max,
    phase_damping,
    schmidt_measures,
    sign_bisection,
    weyl_channel,
)

SIZES = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2)]


@st.composite
def channel_cases(draw):
    d, n = draw(st.sampled_from(SIZES))
    whole = draw(st.booleans())          # the register as one factor (global_after)
    size = d**n if whole else d
    if draw(st.booleans()):
        p = draw(st.floats(0.0, 1.0))
        table, local = phase_damping_table(size, p), phase_damping(size, p)
    else:
        pi = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=size * size,
                                    max_size=size * size))).reshape(size, size)
        pi[draw(st.integers(0, size - 1)), draw(st.integers(0, size - 1))] += 1e-3
        pi /= pi.sum()
        table, local = weyl_table(pi), weyl_channel(pi)
    dims = (d**n,) if whole else (d,) * n
    kraus = local if whole else embed_channel(local, list(range(n)), dims)
    return table, kraus, dims, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None)
@given(channel_cases())
def test_structured_channel_is_cptp_and_matches_kraus_sum(case):
    table, kraus, dims, seed = case
    dim = int(np.prod(dims))
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ m.conj().T
    rho /= np.trace(rho).real
    out = apply_weyl_table(rho, table, dims)
    assert abs(np.trace(out) - 1.0) <= 1e-12
    assert np.max(np.abs(out - out.conj().T)) <= 1e-12
    assert np.min(np.linalg.eigvalsh(out)) >= -1e-12
    assert np.max(np.abs(out - apply_channel(rho, kraus))) <= 1e-13


# Property tests over chains, amplitudes and phase damping: d in {2, 3},
# n with d**n <= 81, every topology and any strength.

CHAINS = [(2, n) for n in range(2, 7)] + [(3, n) for n in range(2, 5)]


@st.composite
def normalised_amplitudes(draw, d):
    parts = draw(st.lists(st.floats(-1.0, 1.0), min_size=2 * d, max_size=2 * d))
    amps = np.array(parts[:d]) + 1j * np.array(parts[d:])
    assume(np.linalg.norm(amps) > 1e-3)
    return amps / np.linalg.norm(amps)


@st.composite
def experiments(draw):
    d, n = draw(st.sampled_from(CHAINS))
    noise = draw(st.none() | st.builds(
        NoiseSpec, kind=st.just("phase_damping"), topology=st.sampled_from(NOISE_TOPOLOGIES),
        p=st.floats(0.0, 1.0)))
    return ExperimentConfig(
        chain=ChainSpec(d=d, n=n),
        input_amplitudes=draw(normalised_amplitudes(d)),
        steps=draw(st.integers(1, 6)),
        t_total=draw(st.none() | st.floats(0.1, 2.0 * math.pi)),
        noise=noise,
        bipartition=draw(st.just("endpoints") | st.integers(1, n - 1)),
    )


@settings(max_examples=40, deadline=None)
@given(experiments())
def test_record_probabilities_lie_in_the_unit_interval(config):
    records, reference = run_experiment(config)
    for record in records + (reference or []):
        for value in (record.transfer_probability, record.fidelity_to_input):
            assert -1e-12 <= value <= 1.0 + 1e-12


@pytest.mark.parametrize("chain", CHAINS)       # few enough to take every one
def test_default_chain_transfers_every_level_at_pi(chain):
    amplitude = abs(Spectrum(ChainSpec(*chain)).site_amplitudes(math.pi)[-1])
    assert amplitude >= 1.0 - 1e-9


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_schmidt_measures_match_the_density_matrix_route(data):
    d, n = data.draw(st.sampled_from(CHAINS))
    cut = data.draw(st.integers(1, n - 1))
    part = Bipartition(d**cut, d ** (n - cut))
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    ket = rng.normal(size=d**n) + 1j * rng.normal(size=d**n)
    if data.draw(st.booleans()):           # a product or low-rank ket
        ket = np.kron(rng.normal(size=d**cut), rng.normal(size=d ** (n - cut))) + 0j
    ket /= np.linalg.norm(ket)
    rho = np.outer(ket, ket.conj())
    dense = register_measures(rho, part)
    assert np.allclose(schmidt_measures(ket, part), dense, rtol=0.0, atol=1e-10)


# Sector measures against the register ones, for every chain with
# d**n <= 729: a sector ket's closed form, and a sector density matrix's
# compressed realigned matrices.

SECTOR_CHAINS = [(d, n) for d in range(2, 28) for n in range(2, 10) if d**n <= 729]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_sector_measures_match_the_register_measures(data):
    d, n = data.draw(st.sampled_from(SECTOR_CHAINS))
    cut = data.draw(st.integers(1, n - 1))
    rank = data.draw(st.integers(1, 4))
    ket = data.draw(st.booleans())         # the sector ket, or its density matrix
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    size = 1 + (d - 1) * n
    g = rng.normal(size=(size, rank)) + 1j * rng.normal(size=(size, rank))
    if ket:
        state = g[:, 0] / np.linalg.norm(g[:, 0])
        rho = np.outer(state, state.conj())
    else:
        rho = state = g @ g.conj().T
        rho /= np.trace(rho).real
    # sector index 1 + (r-1) n + s holds level r on site s: register index r d^(n-1-s)
    register = np.r_[0, (np.arange(1, d)[:, None] * d ** (n - 1 - np.arange(n))).ravel()]
    scattered = np.zeros((d**n, d**n), dtype=complex)
    scattered[np.ix_(register, register)] = rho
    index = 1 + np.arange((d - 1) * n).reshape(d - 1, n)
    part = Bipartition(d**cut, d ** (n - cut))
    dense = register_measures(scattered, part)
    sector = sector_measures(state, SectorCut(index[:, :cut].ravel(), index[:, cut:].ravel()),
                             kets=ket)
    assert np.allclose(sector, dense, rtol=0.0, atol=1e-12), (d, n, cut, ket, rank)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_stacked_sector_measures_match_each_state(data):
    # a stack of sector kets or density matrices, measured across a chain cut
    # or on the endpoint pair a sector partial trace leaves: one call on the
    # stack gives each state's measures, bit for bit
    d, n = data.draw(st.sampled_from(SECTOR_CHAINS))
    cut = data.draw(st.sampled_from(["endpoints", *range(1, n)]))
    count = data.draw(st.integers(1, 5))
    kets = data.draw(st.booleans())
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    size = 1 + (d - 1) * n
    g = rng.normal(size=(count, size, 2)) + 1j * rng.normal(size=(count, size, 2))
    if kets:
        states = g[..., 0] / np.linalg.norm(g[..., 0], axis=1, keepdims=True)
    else:
        g[::2, :, 1] = 0.0                   # every other state globally pure
        states = g @ g.conj().swapaxes(1, 2)
        states /= np.trace(states, axis1=1, axis2=2).real[:, None, None]
    index = 1 + np.arange((d - 1) * n).reshape(d - 1, n)
    if cut == "endpoints":
        # the pair's sector basis: vac, level r on site 1, level r on site N
        pair = SectorCut(np.r_[index[:, 0], index[:, -1]], index[:, 1:-1].ravel())
        sides = SectorCut(np.arange(1, d), np.arange(d, 2 * d - 1))
        states, kets = sector_partial_trace(states, pair, kets=kets), False
    else:
        sides = SectorCut(index[:, :cut].ravel(), index[:, cut:].ravel())
    values = sector_measures(states, sides, kets=kets)
    for k in range(count):
        single = sector_measures(states[k:k + 1], sides, kets=kets)
        assert all(np.array_equal(v[k:k + 1], w) for v, w in zip(values, single)), (d, n, cut, k)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_sector_partial_trace_of_a_ket_is_that_of_its_density_matrix(data):
    d, n = data.draw(st.sampled_from(SECTOR_CHAINS))
    kept = sorted(data.draw(st.sets(st.integers(0, n - 1))))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    size = 1 + (d - 1) * n
    ket = rng.normal(size=size) + 1j * rng.normal(size=size)
    ket /= np.linalg.norm(ket)
    # sector index 1 + (r-1) n + s holds level r on site s; the vacuum is 0
    site = np.r_[-1, np.tile(np.arange(n), d - 1)]
    on_kept = np.isin(site, kept)
    keep, traced = np.flatnonzero(on_kept), np.flatnonzero(~on_kept & (site >= 0))
    cut = SectorCut(keep, traced)
    from_ket = sector_partial_trace(ket, cut, kets=True)
    assert np.array_equal(from_ket, sector_partial_trace(np.outer(ket, ket.conj()), cut))
    assert from_ket.shape == (1 + len(keep),) * 2


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_find_pst_time_reaches_the_window_s_highest_peak(data):
    # random couplings on 3 to 6 nodes, on windows up to 0.99 of the widest
    # that the 2000-point scan resolves: no time of a scan 16 times finer
    # beats the search, and the amplitude returned is the one at t_star
    n = data.draw(st.integers(3, 6))
    couplings = data.draw(st.lists(st.floats(0.2, 2.0), min_size=n - 1, max_size=n - 1))
    spectrum = Spectrum(ChainSpec(d=2, n=n, couplings=couplings))
    limit = 2.0 * math.pi * 1999 / (spectrum.eigvals[-1] - spectrum.eigvals[0])
    t_max = data.draw(st.floats(0.01, 0.99)) * limit
    t_star, amplitude = find_pst_time(spectrum, t_max=t_max)
    finer = np.abs(spectrum.site_amplitudes(np.linspace(0.0, t_max, 16 * 1999 + 1))[:, -1])
    assert amplitude >= finer.max() - 1e-9, (couplings, t_max)
    assert amplitude == pytest.approx(abs(spectrum.site_amplitudes(t_star)[-1]), abs=1e-14)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_find_pst_time_bisects_the_peak_a_golden_section_finds(data):
    # random couplings on 2 to 9 nodes, on windows up to 0.99 of the widest
    # that the search scans, and the search's candidate brackets. A golden
    # section, which compares moduli, refines each bracket on an independent
    # route, to about sqrt(eps) of the peak's curvature scale; a bisection on
    # the sign of g = Re(conj(A) A') lands on a peak no lower, bracket by
    # bracket. Every interior bracket that the answer comes from straddles a
    # sign change, g(a) > 0 > g(b); one far below the best can hold a dip
    # beside its peak (about 1 in 75 000 here), and is only compared
    n = data.draw(st.integers(2, 9))
    couplings = data.draw(st.lists(st.floats(0.2, 2.0), min_size=n - 1, max_size=n - 1))
    spectrum = Spectrum(ChainSpec(d=2, n=n, couplings=couplings))
    spread = spectrum.eigvals[-1] - spectrum.eigvals[0]
    t_max = data.draw(st.floats(0.01, 0.99)) * 2.0 * math.pi * 1999 / spread
    weights = spectrum.eigvecs[-1] * spectrum.eigvecs[0]

    def modulus(t):
        return float(abs(np.dot(weights, np.exp(-1j * (t * spectrum.eigvals)))))

    def slope(t):
        phases = np.exp(-1j * (t * spectrum.eigvals))
        amplitude = np.dot(weights, phases)
        return (np.conj(amplitude) * -1j * np.dot(weights * spectrum.eigvals, phases)).real

    h = t_max / 1999
    m = max(1, math.ceil(spread * h))
    ts = np.linspace(0.0, t_max, 1999 * m + 1)
    vals = np.abs(np.exp(-1j * np.multiply.outer(ts, spectrum.eigvals)) @ weights)
    top = vals.max()
    peaks = vals >= top - (spread * h) ** 2 / 32.0 / m**2
    peaks[1:] &= vals[1:] >= vals[:-1]
    peaks[:-1] &= vals[:-1] >= vals[1:]
    peaks[np.argmax(vals >= top - 1e-12)] = True
    golden = []         # (t, modulus, bracket) of each candidate, refined
    for i in np.flatnonzero(peaks):
        lo, hi = ts[max(i - 1, 0)], ts[min(i + 1, ts.size - 1)]
        t = golden_max(modulus, lo, hi, max(1e-10, 4.0 * math.ulp(hi)))
        bisected = sign_bisection(slope, lo, hi)
        assert modulus(bisected) >= modulus(t) - 1e-13, (couplings, t_max, t, bisected)
        golden.append((t, modulus(t), (lo, hi)))
    highest = max(value for _, value, _ in golden)
    tying = [peak for peak in golden if peak[1] >= highest - 1e-12]
    for t, _, (lo, hi) in tying:
        if 0.0 < lo and hi < t_max:
            assert slope(lo) > 0.0 > slope(hi), (couplings, t_max, t)
    t_golden, amp_golden, _ = tying[0]
    t_star, amplitude = find_pst_time(spectrum, t_max=t_max)
    # the golden section compares moduli with errors of up to about
    # (n + max|E| t) eps; at a distance delta from a peak of curvature kappa
    # they differ by kappa delta^2 / 2, so it fixes the peak to no better than
    # where those meet: past 3e-7 on late, flat peaks, where the bisection
    # still lands within ulps of it (one such window: t ~ 2299 on (2, 8))
    phases = np.exp(-1j * (t_star * spectrum.eigvals))
    a, a1, a2 = (np.dot(weights * (-1j * spectrum.eigvals) ** k, phases) for k in range(3))
    kappa = abs(abs(a1) ** 2 + (np.conj(a) * a2).real) / abs(a)     # |A|'' at the peak
    error = (n + np.max(np.abs(spectrum.eigvals)) * t_star) * np.finfo(float).eps
    resolution = max(3e-7, math.sqrt(2.0 * error / kappa))
    assert abs(t_star - t_golden) <= resolution, (couplings, t_max, t_star, t_golden)
    assert amplitude >= amp_golden - 1e-13, (couplings, t_max, amplitude, amp_golden)
