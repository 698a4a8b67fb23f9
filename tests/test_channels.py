import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from qsct.channels import (
    _damping_weights,
    apply_weyl_table,
    phase_damping_table,
    weyl_table,
)
from qsct import conformance
from qsct.conformance import analytic_favg_2qutrit
from qsct.linalg import partial_trace

from oracles import (
    KrausChannel,
    apply_channel,
    average_fidelity,
    average_fidelity_monte_carlo,
    embed_channel,
    gate_x,
    gate_z,
    haar_random_kets,
    phase_damping,
    weyl_channel,
)


def test_gates_d2_are_paulis():
    assert np.array_equal(gate_x(2), np.array([[0, 1], [1, 0]], dtype=complex))
    assert np.allclose(gate_z(2), np.diag([1.0, -1.0]), atol=1e-15)


def test_gate_z_qutrit_diagonal():
    w = np.exp(2j * math.pi / 3.0)
    assert np.allclose(gate_z(3), np.diag([1.0, w, w * w]), atol=1e-15)


def test_gate_x_cycles_basis():
    for d in (2, 3, 5):
        x = gate_x(d)
        for j in range(d):
            ket = np.zeros(d)
            ket[j] = 1.0
            out = x @ ket
            assert out[(j + 1) % d] == pytest.approx(1.0, abs=1e-15)


def test_gate_periodicity_and_unitarity():
    for d in (2, 3, 4, 5):
        x, z = gate_x(d), gate_z(d)
        assert np.allclose(np.linalg.matrix_power(x, d), np.eye(d), atol=1e-12)
        assert np.allclose(np.linalg.matrix_power(z, d), np.eye(d), atol=1e-12)
        assert np.allclose(x.conj().T @ x, np.eye(d), atol=1e-14)
        assert np.allclose(z.conj().T @ z, np.eye(d), atol=1e-14)


def test_weyl_commutation():
    # Z X = omega X Z
    for d in (2, 3, 4, 5):
        x, z = gate_x(d), gate_z(d)
        omega = np.exp(2j * math.pi / d)
        assert np.max(np.abs(z @ x - omega * (x @ z))) < 1e-12


def test_phase_damping_trace_preserving():
    for d in (2, 3, 4):
        for p in (0.0, 0.25, 0.5, 0.85, 1.0):
            ch = phase_damping(d, p)
            total = sum(e.conj().T @ e for e in ch.kraus)
            assert np.max(np.abs(total - np.eye(d))) < 1e-12


def test_phase_damping_p1_is_identity():
    for d in (2, 3, 4):
        ch = phase_damping(d, 1.0)
        rng = np.random.default_rng(d)
        m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        rho = m @ m.conj().T
        rho /= np.trace(rho).real
        assert np.max(np.abs(apply_channel(rho, ch) - rho)) < 1e-12


def test_phase_damping_d2_kraus():
    p = 0.4
    ch = phase_damping(2, p)
    assert np.allclose(ch.kraus[0], math.sqrt((1 + p) / 2) * np.eye(2), atol=1e-15)
    assert np.allclose(ch.kraus[1], math.sqrt((1 - p) / 2) * np.diag([1.0, -1.0]), atol=1e-15)


def test_phase_damping_d3_p0_weights():
    ch = phase_damping(3, 0.0)
    z = gate_z(3)
    weights = (0.25, 0.5, 0.25)  # binomial row for d-1 = 2 at (1-p)/2 = 1/2
    for i, w in enumerate(weights):
        assert np.allclose(ch.kraus[i], math.sqrt(w) * np.linalg.matrix_power(z, i), atol=1e-15)


@pytest.mark.parametrize("p", [0.0, 0.5, 0.875])
def test_damping_weights_past_the_double_range_are_the_exact_binomials(p):
    # C(2047, i) exceeds the double range and lo^i falls below it; these p
    # make lo and hi short binary fractions, so the exact weights stay cheap
    d = 2048
    lo, hi = Fraction((1 - p) / 2), Fraction((1 + p) / 2)
    exact = [float(math.comb(d - 1, i) * lo**i * hi ** (d - 1 - i)) for i in range(d)]
    weights = _damping_weights(d, p)
    assert all(abs(w - x) <= math.ulp(x) for w, x in zip(weights, exact))


@pytest.mark.parametrize("d", [1031, 2048, 4096])
@pytest.mark.parametrize("p", [0.0, 0.37, 0.9, 1.0])
def test_damping_weights_sum_to_one_past_the_double_range(d, p):
    assert abs(math.fsum(_damping_weights(d, p)) - 1.0) <= 1e-12


def test_phase_damping_table_of_a_large_register_holds_one_row():
    # a 4096 x 4096 probability table alone would take 134 MB
    tracemalloc.start()
    try:
        table = phase_damping_table(4096, 0.37)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak
    assert table.shifts == (0,) and table.masks[0].shape == (4096, 4096)
    assert table.masks[0][0, 0] == pytest.approx(1.0, abs=1e-12)


def test_phase_damping_rejects_bad_p():
    with pytest.raises(ValueError):
        phase_damping_table(3, -0.1)
    with pytest.raises(ValueError):
        phase_damping_table(3, 1.1)


def test_phase_damping_unital():
    for d in (2, 3, 4):
        ch = phase_damping(d, 0.3)
        assert np.max(np.abs(apply_channel(np.eye(d, dtype=complex) / d, ch) - np.eye(d) / d)) < 1e-12


def test_phase_damping_p0_kills_coherences():
    ket = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
    out = apply_channel(np.outer(ket, ket.conj()), phase_damping(2, 0.0))
    assert np.allclose(out, np.eye(2) / 2.0, atol=1e-15)


def test_weyl_identity_at_origin():
    pi = np.zeros((3, 3))
    pi[0, 0] = 1.0
    ch = weyl_channel(pi)
    rho = np.diag([0.5, 0.3, 0.2]).astype(complex)
    assert np.allclose(apply_channel(rho, ch), rho, atol=1e-15)


def test_weyl_reproduces_phase_damping():
    d, p = 3, 0.6
    pd = phase_damping(d, p)
    pi = np.zeros((d, d))
    for i in range(d):
        pi[0, i] = math.comb(d - 1, i) * ((1 - p) / 2) ** i * ((1 + p) / 2) ** (d - 1 - i)
    wl = weyl_channel(pi)
    # identical Kraus sets up to ordering, so identical action
    rng = np.random.default_rng(77)
    for _ in range(100):
        m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        rho = m @ m.conj().T
        rho /= np.trace(rho).real
        assert np.max(np.abs(apply_channel(rho, pd) - apply_channel(rho, wl))) < 1e-12


def test_weyl_uniform_fixes_maximally_mixed():
    d = 3
    pi = np.full((d, d), 1.0 / (d * d))
    out = apply_channel(np.eye(d, dtype=complex) / d, weyl_channel(pi))
    assert np.allclose(out, np.eye(d) / d, atol=1e-13)


def test_weyl_rejects_bad_probabilities():
    with pytest.raises(ValueError):
        weyl_channel(np.full((2, 2), 0.5))  # sums to 2
    with pytest.raises(ValueError):
        weyl_channel(np.array([[1.2, -0.2], [0.0, 0.0]]))


def test_kraus_channel_rejects_trace_increasing():
    with pytest.raises(ValueError):
        KrausChannel(dim=2, kraus=[np.eye(2, dtype=complex) * 1.1], label="bad")


def test_embed_channel_cross_products():
    ch = embed_channel(phase_damping(3, 0.85), [0, 1], (3, 3))
    assert len(ch.kraus) == 9
    total = sum(e.conj().T @ e for e in ch.kraus)
    assert np.max(np.abs(total - np.eye(9))) < 1e-12


def test_embed_channel_locality():
    rng = np.random.default_rng(13)
    m = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    rho = m @ m.conj().T
    rho /= np.trace(rho).real
    ch = embed_channel(phase_damping(3, 0.2), [0], (3, 3))
    out = apply_channel(rho, ch)
    assert np.allclose(partial_trace(out, [3, 3], keep=[1]),
                       partial_trace(rho, [3, 3], keep=[1]), atol=1e-12)


def test_embed_channel_identity_stays_identity():
    ident = KrausChannel(dim=2, kraus=[np.eye(2, dtype=complex)], label="id")
    ch = embed_channel(ident, [0, 1, 2], (2, 2, 2))
    assert len(ch.kraus) == 1
    assert np.allclose(ch.kraus[0], np.eye(8), atol=1e-15)


def test_embed_channel_rejects_mismatch():
    with pytest.raises(ValueError):
        embed_channel(phase_damping(2, 0.5), [0], (3, 3))
    with pytest.raises(ValueError):
        embed_channel(phase_damping(3, 0.5), [2], (3, 3))


def test_average_fidelity_identity():
    ident = KrausChannel(dim=4, kraus=[np.eye(4, dtype=complex)], label="id")
    assert average_fidelity(np.eye(4, dtype=complex), ident) == pytest.approx(1.0, abs=1e-12)


def test_average_fidelity_traceless_unitary():
    ch = KrausChannel(dim=3, kraus=[np.eye(3, dtype=complex)], label="id")
    assert average_fidelity(gate_x(3), ch) == pytest.approx(0.25, abs=1e-12)  # 1/(n+1)


def test_average_fidelity_matched_unitary():
    # channel whose single Kraus element is U itself
    rng = np.random.default_rng(19)
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    u, _ = np.linalg.qr(m)
    ch = KrausChannel(dim=3, kraus=[u], label="u")
    assert average_fidelity(u, ch) == pytest.approx(1.0, abs=1e-12)


def test_average_fidelity_global_phase_invariant():
    ch = phase_damping(3, 0.85)
    u = gate_x(3)
    base = average_fidelity(u, ch)
    assert average_fidelity(np.exp(0.71j) * u, ch) == pytest.approx(base, abs=1e-12)


def test_analytic_favg_values():
    assert analytic_favg_2qutrit(1.0) == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert analytic_favg_2qutrit(0.0) == pytest.approx(4.0 / 15.0, abs=1e-15)
    assert analytic_favg_2qutrit(0.85) == pytest.approx(0.5896666666666667, abs=1e-15)
    with pytest.raises(ValueError):
        analytic_favg_2qutrit(1.2)


def test_haar_random_kets_normalized():
    kets = haar_random_kets(9, 50, np.random.default_rng(0))
    assert kets.shape == (50, 9)
    assert np.allclose(np.linalg.norm(kets, axis=1), 1.0, atol=1e-12)


def test_monte_carlo_matches_formula_identity_channel():
    ident = KrausChannel(dim=4, kraus=[np.eye(4, dtype=complex)], label="id")
    mean, stderr = average_fidelity_monte_carlo(np.eye(4, dtype=complex), ident,
                                                samples=2000, seed=1)
    assert mean == pytest.approx(1.0, abs=1e-12)
    assert stderr < 1e-12


def test_monte_carlo_deterministic_per_seed():
    ch = phase_damping(3, 0.5)
    u = gate_x(3)
    a = average_fidelity_monte_carlo(u, ch, samples=500, seed=42)
    b = average_fidelity_monte_carlo(u, ch, samples=500, seed=42)
    assert a == b


# ---------------------------------------------------------------------------
# Weyl tables against the Kraus sum
# ---------------------------------------------------------------------------

STRUCTURED_SIZES = [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (4, 2)]


def _random_density(dim, rng):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


def _tables(size, rng):
    """Named probability tables on one factor of dimension `size`."""
    full = rng.random((size, size))
    sparse = rng.random((size, size))
    sparse[1:size - 1] = 0.0            # only the first and last shift rows carry weight
    shifted = np.zeros((size, size))
    shifted[size - 1, 1] = 1.0          # all weight on one shift, m != 0
    return {"full": full / full.sum(), "zero-rows": sparse / sparse.sum(), "shift": shifted}


@pytest.mark.parametrize("d, n", STRUCTURED_SIZES)
def test_weyl_table_matches_kraus_sum(d, n):
    """Structured application against apply_channel(embed_channel(...)) for
    phase damping (p = 0, 1 and between) and Weyl tables, on every site
    (local topologies, also interleaved) and on the register as one factor
    (global_after)."""
    rng = np.random.default_rng(1000 * d + n)
    dims, dim = (d,) * n, d**n
    rho = _random_density(dim, rng)
    sites = list(range(n))
    cases = []
    for p in (0.0, 0.37, 1.0):
        cases.append((f"local p={p}", phase_damping_table(d, p),
                      embed_channel(phase_damping(d, p), sites, dims), dims))
        cases.append((f"global p={p}", phase_damping_table(dim, p), phase_damping(dim, p), (dim,)))
    for name, pi in _tables(d, rng).items():
        cases.append((f"local {name}", weyl_table(pi),
                      embed_channel(weyl_channel(pi), sites, dims), dims))
    for name, pi in _tables(dim, rng).items():
        cases.append((f"global {name}", weyl_table(pi), weyl_channel(pi), (dim,)))
    for label, table, kraus, factors in cases:
        out = apply_weyl_table(rho, table, factors)
        assert np.max(np.abs(out - apply_channel(rho, kraus))) <= 1e-13, label


def _random_unitary(dim, rng):
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.mark.parametrize("d, n", [(2, 2), (2, 3), (3, 2)])
def test_table_average_fidelity_matches_kraus_formula(d, n):
    """conformance.average_fidelity (the table applied to the matrix units)
    against the Kraus trace formula, for random unitaries: phase damping and
    random tables with shifts on every site, and random tables on the register
    as one factor."""
    rng = np.random.default_rng(100 * d + n)
    dims, dim = (d,) * n, d**n
    sites = list(range(n))
    cases = [(f"local p={p}", phase_damping_table(d, p),
              embed_channel(phase_damping(d, p), sites, dims), dims) for p in (0.0, 0.37)]
    for name, pi in _tables(d, rng).items():
        cases.append((f"local {name}", weyl_table(pi),
                      embed_channel(weyl_channel(pi), sites, dims), dims))
    for name, pi in _tables(dim, rng).items():
        cases.append((f"global {name}", weyl_table(pi), weyl_channel(pi), (dim,)))
    for label, table, kraus, factors in cases:
        for _ in range(3):
            u = _random_unitary(dim, rng)
            got = conformance.average_fidelity(u, table, factors)
            assert abs(got - average_fidelity(u, kraus)) <= 1e-13, label


def test_table_average_fidelity_anchors():
    # the identity channel against the identity is 1; against X on one
    # qutrit, a traceless unitary, it is 1 / (D + 1) = 1/4
    for d, n in ((2, 1), (2, 3), (3, 2)):
        identity = phase_damping_table(d, 1.0)
        assert abs(conformance.average_fidelity(np.eye(d**n), identity, (d,) * n) - 1.0) <= 1e-13
    fidelity = conformance.average_fidelity(gate_x(3), phase_damping_table(3, 1.0), (3,))
    assert abs(fidelity - 0.25) <= 1e-13
    with pytest.raises(ValueError, match="register dimension 9"):
        conformance.average_fidelity(np.eye(3), phase_damping_table(3, 1.0), (3, 3))


def _rolled_weyl_table(rho, table, dims):
    """apply_weyl_table as one np.roll and one masked sum per factor and shift."""
    d, dim = table.d, int(np.prod(dims))
    out = rho
    for s in range(len(dims)):
        left = d**s
        tensor = out.reshape(left, d, dim // (left * d), left, d, dim // (left * d))
        acc = np.zeros(tensor.shape, dtype=np.complex128)
        for m, mask in zip(table.shifts, table.masks):
            shifted = np.roll(tensor, (m, m), axis=(1, 4)) if m else tensor
            acc += shifted * mask[:, None, None, :, None]
        out = acc.reshape(dim, dim)
    return out


def _first_rows(pi, rows):
    """pi with only its first `rows` weighted shift rows, renormalised; pi
    itself for rows=None."""
    if rows is None:
        return pi
    weighted = np.flatnonzero(pi.sum(axis=1))[:rows]
    kept = np.zeros_like(pi)
    kept[weighted] = pi[weighted]
    return kept / kept.sum()


@pytest.mark.parametrize("rows", [None, 1])
@pytest.mark.parametrize("d, n", [(2, 3), (3, 3), (2, 5), (4, 2)])
def test_weyl_table_gather_is_the_rolled_sum(d, n, rows):
    # a gather per shift adds the same terms in the same order as a roll per
    # shift: bit for bit, for each table as drawn and for its first weighted
    # shift row alone (m = 0 only for "full" and "zero-rows", which moves no
    # level; one m != 0 for "shift")
    rng = np.random.default_rng(10 * d + n)
    dims, dim = (d,) * n, d**n
    rho = _random_density(dim, rng)
    for size, factors in ((d, dims), (dim, (dim,))):
        for pi in _tables(size, rng).values():
            table = weyl_table(_first_rows(pi, rows))
            if rows is not None:
                assert len(table.shifts) == rows
            assert np.array_equal(apply_weyl_table(rho, table, factors),
                                  _rolled_weyl_table(rho, table, factors))


def test_weyl_table_keeps_only_weighted_rows():
    table = phase_damping_table(3, 0.4)
    assert table.shifts == (0,)
    assert weyl_table(_tables(4, np.random.default_rng(0))["zero-rows"]).shifts == (0, 3)
    assert np.array_equal(phase_damping_table(2, 1.0).masks[0], np.ones((2, 2)))


def test_apply_weyl_table_rejects_mismatch():
    table = phase_damping_table(2, 0.5)
    with pytest.raises(ValueError):
        apply_weyl_table(np.eye(8) / 8, phase_damping_table(3, 0.5), (2, 2, 2))
    with pytest.raises(ValueError):
        apply_weyl_table(np.eye(8) / 8, table, (2, 4))
    with pytest.raises(ValueError):
        apply_weyl_table(np.eye(4), table, (2, 2, 2))


def test_weyl_table_rejects_bad_probabilities():
    for bad in (np.full((2, 2), 0.5), [[1.2, -0.2], [0.0, 0.0]], [[1.0, 0.0]],
                [[math.nan, 0.0], [0.0, 1.0]], [[1.0], [0.0, 0.0]]):
        with pytest.raises(ValueError, match="pi"):
            weyl_table(bad)
