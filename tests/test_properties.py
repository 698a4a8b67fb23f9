"""Property tests over channels, run records and the pure-state measures."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qsct.chain import ChainSpec, _TransferAmplitudes

from qsct.channels import (
    apply_channel,
    apply_weyl_table,
    embed_channel,
    phase_damping,
    phase_damping_table,
    weyl_channel,
    weyl_table,
)
from qsct.entanglement import (
    amplified_ccnr_margin,
    ccnr,
    entanglement_level,
    schmidt_measures,
)
from qsct.linalg import Bipartition
from qsct.protocol import NOISE_TOPOLOGIES, ExperimentConfig, NoiseSpec, run_experiment

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
    amplitude = abs(_TransferAmplitudes(ChainSpec(*chain)).amplitude(math.pi))
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
    dense = (ccnr(rho, part), amplified_ccnr_margin(rho, part), entanglement_level(rho, part))
    assert np.allclose(schmidt_measures(ket, part), dense, rtol=0.0, atol=1e-10)
