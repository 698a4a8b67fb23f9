"""Property tests over channel size, strength and probability table."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qsct.channels import (
    apply_channel,
    apply_weyl_table,
    embed_channel,
    phase_damping,
    phase_damping_table,
    weyl_channel,
    weyl_table,
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
