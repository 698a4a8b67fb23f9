import tracemalloc

import numpy as np
import pytest

from qsct.entanglement import sector_measures
from qsct.linalg import (
    Bipartition,
    SectorCut,
    partial_trace,
    realign,
    trace_norm,
)

from oracles import embed_operator, partial_trace_pure


# embed_operator places a site operator by Kronecker products, site 0 the
# most significant factor.
def test_kron_identity():
    assert np.array_equal(embed_operator(np.eye(2), 0, [2, 2]), np.eye(4))
    assert np.array_equal(embed_operator(np.eye(3), 1, [2, 3, 2]), np.eye(12))


def test_kron_diagonal():
    out = embed_operator(np.diag([1.0, 2.0]), 0, [2, 2])
    assert np.array_equal(out, np.diag([1.0, 1.0, 2.0, 2.0]))
    out = embed_operator(np.diag([1.0, 2.0]), 1, [2, 2])
    assert np.array_equal(out, np.diag([1.0, 2.0, 1.0, 2.0]))


def test_kron_shift_on_basis_state():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    ket00 = np.zeros(4)
    ket00[0] = 1.0
    out = embed_operator(x, 0, [2, 2]) @ embed_operator(x, 1, [2, 2]) @ ket00
    expect = np.zeros(4)
    expect[3] = 1.0  # |00> -> |11>
    assert np.array_equal(out, expect)


# with a one-level A factor, realign column-stacks the whole operator
def test_vectorize_column_order():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(realign(a, Bipartition(1, 2)), [[1.0, 3.0, 2.0, 4.0]])


def test_vectorize_identity():
    assert np.array_equal(realign(np.eye(2), Bipartition(1, 2)), [[1.0, 0.0, 0.0, 1.0]])


def test_realign_4x4_layout():
    # entries encode their own (row, col) as 10r + c, 1-based
    m = np.array([[11, 12, 13, 14],
                  [21, 22, 23, 24],
                  [31, 32, 33, 34],
                  [41, 42, 43, 44]], dtype=complex)
    expect = np.array([[11, 21, 12, 22],
                       [31, 41, 32, 42],
                       [13, 23, 14, 24],
                       [33, 43, 34, 44]], dtype=complex)
    assert np.array_equal(realign(m, Bipartition(2, 2)), expect)


def test_realign_9x9_layout():
    # row p = j*3+i of the result is the column-stacked (i, j) block
    m = np.arange(81, dtype=complex).reshape(9, 9)
    out = realign(m, Bipartition(3, 3))
    assert out.shape == (9, 9)
    for i in range(3):
        for j in range(3):
            block = m[3 * i:3 * i + 3, 3 * j:3 * j + 3]
            assert np.array_equal(out[j * 3 + i], block.flatten(order="F"))


def test_realign_rectangular_block_structure():
    part = Bipartition(2, 3)
    m = np.arange(36, dtype=complex).reshape(6, 6)
    out = realign(m, part)
    assert out.shape == (4, 9)
    assert np.array_equal(out[0], m[0:3, 0:3].flatten(order="F"))
    assert np.array_equal(out[2], m[0:3, 3:6].flatten(order="F"))


def test_realign_product_is_rank_one():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    a = a @ a.conj().T
    a /= np.trace(a).real
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    b = b @ b.conj().T
    b /= np.trace(b).real
    out = realign(np.kron(a, b), Bipartition(2, 3))
    assert np.allclose(out, np.outer(a.flatten(order="F"), b.flatten(order="F")), atol=1e-13)
    s = np.linalg.svd(out, compute_uv=False)
    assert s[1] < 1e-13


def _unrealign(mat, part):
    """The inverse index permutation of realign."""
    da, db = part
    return mat.reshape(da, da, db, db).transpose(1, 3, 0, 2).reshape(da * db, da * db)


def test_realign_inverse_roundtrip_exact():
    rng = np.random.default_rng(3)
    for part in (Bipartition(2, 2), Bipartition(2, 3), Bipartition(3, 3)):
        dim = part.dim_a * part.dim_b
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        # pure index permutation: bit-exact roundtrip
        assert np.array_equal(_unrealign(realign(m, part), part), m)


def test_realign_dimension_mismatch():
    with pytest.raises(ValueError):
        realign(np.eye(4), Bipartition(2, 3))


def test_trace_norm_diagonal():
    assert trace_norm(np.diag([1.0, -2.0])) == pytest.approx(3.0, abs=1e-14)


def test_trace_norm_zero():
    assert trace_norm(np.zeros((3, 3))) == 0.0


def test_trace_norm_realigned_maximally_mixed():
    out = trace_norm(realign(np.eye(4) / 4.0, Bipartition(2, 2)))
    assert out == pytest.approx(0.5, abs=1e-14)


def test_trace_norm_product_state_bound():
    rng = np.random.default_rng(5)
    for _ in range(5):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        a = a @ a.conj().T
        a /= np.trace(a).real
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        b = b @ b.conj().T
        b /= np.trace(b).real
        got = trace_norm(realign(np.kron(a, b), Bipartition(2, 3)))
        expect = np.sqrt(np.vdot(a, a).real) * np.sqrt(np.vdot(b, b).real)
        assert got == pytest.approx(expect, abs=1e-10)
        assert got <= 1.0 + 1e-10


def _brute_partial_trace(rho, dims, keep):
    """Oracle: elementwise summation over traced indices."""
    n = len(dims)
    keep = sorted(keep)
    traced = [s for s in range(n) if s not in keep]
    kdims = [dims[s] for s in keep]
    out_dim = int(np.prod(kdims))
    out = np.zeros((out_dim, out_dim), dtype=complex)
    tensor = rho.reshape(dims + dims)
    for kr in np.ndindex(*kdims):
        for kc in np.ndindex(*kdims):
            total = 0.0 + 0.0j
            for tv in np.ndindex(*[dims[s] for s in traced]):
                row = [0] * n
                col = [0] * n
                for s, v in zip(keep, kr):
                    row[s] = v
                for s, v in zip(keep, kc):
                    col[s] = v
                for s, v in zip(traced, tv):
                    row[s] = v
                    col[s] = v
                total += tensor[tuple(row) + tuple(col)]
            r = 0
            for v, dd in zip(kr, kdims):
                r = r * dd + v
            c = 0
            for v, dd in zip(kc, kdims):
                c = c * dd + v
            out[r, c] = total
    return out


def test_partial_trace_product_state():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    a = a @ a.conj().T
    a /= np.trace(a).real
    b = np.diag([0.2, 0.8]).astype(complex)
    rho = np.kron(a, b)
    assert np.allclose(partial_trace(rho, [3, 2], keep=[0]), a, atol=1e-13)
    assert np.allclose(partial_trace(rho, [3, 2], keep=[1]), b, atol=1e-13)


def test_partial_trace_bell_reduction():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1.0 / np.sqrt(2.0)
    rho = np.outer(bell, bell.conj())
    assert np.allclose(partial_trace(rho, [2, 2], keep=[0]), np.eye(2) / 2, atol=1e-15)


def test_partial_trace_against_brute_force():
    rng = np.random.default_rng(9)
    dims = [2, 3, 2, 2]
    dim = int(np.prod(dims))
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ m.conj().T
    rho /= np.trace(rho).real
    for keep in ([0], [2], [0, 3], [1, 2], [0, 1, 3]):
        got = partial_trace(rho, dims, keep=keep)
        assert np.allclose(got, _brute_partial_trace(rho, dims, keep), atol=1e-12)
        assert np.trace(got).real == pytest.approx(1.0, abs=1e-12)


def test_partial_trace_composes():
    rng = np.random.default_rng(21)
    dims = [2, 2, 2]
    m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    rho = m @ m.conj().T
    rho /= np.trace(rho).real
    once = partial_trace(rho, dims, keep=[0])
    stepwise = partial_trace(partial_trace(rho, dims, keep=[0, 1]), [2, 2], keep=[0])
    assert np.allclose(once, stepwise, atol=1e-12)


def test_partial_trace_rejects_bad_sites():
    with pytest.raises(ValueError):
        partial_trace(np.eye(4) / 4, [2, 2], keep=[2])
    with pytest.raises(ValueError):
        partial_trace(np.eye(4) / 4, [2, 2], keep=[])
    with pytest.raises(ValueError):
        partial_trace(np.eye(6) / 6, [2, 2], keep=[0])


def test_purity_reduced_qutrit_pair():
    ket = np.zeros(9, dtype=complex)
    ket[[0, 4, 8]] = 1.0 / np.sqrt(3.0)
    rho_a = partial_trace(np.outer(ket, ket.conj()), [3, 3], keep=[0])
    assert np.vdot(rho_a, rho_a).real == pytest.approx(1.0 / 3.0, abs=1e-14)


def test_bipartition_check():
    Bipartition(2, 3).check(6)
    with pytest.raises(ValueError):
        Bipartition(2, 3).check(5)


def test_partial_trace_pure_matches_density_route():
    rng = np.random.default_rng(31)
    for dims, keep in (([2, 3, 2], [0, 2]), ([3, 3, 3], [1]), ([2, 2, 2, 2], [3, 0]),
                       ([4, 2], [0, 1]), ([2, 4, 3], [2])):
        psi = rng.normal(size=int(np.prod(dims))) + 1j * rng.normal(size=int(np.prod(dims)))
        psi /= np.linalg.norm(psi)
        expect = partial_trace(np.outer(psi, psi.conj()), dims, keep)
        assert np.max(np.abs(partial_trace_pure(psi, dims, keep) - expect)) <= 1e-15


def test_sector_cut_holds_only_its_two_sides():
    # a cut of m = 2001 sector states holds O(m) indices; every block of its
    # partial traces and measures is gathered from them, so it builds no
    # O(m^2) map of flat indices (76.5 MB of them at this size)
    tracemalloc.start()
    try:
        cut = SectorCut(np.arange(1, 1001), np.arange(1001, 2001))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak
    rng = np.random.default_rng(7)
    kets = np.zeros((3, 2001), dtype=complex)
    kets[0, [1, 1001]] = 1.0  # |a_1> + |b_1>, unnormalized: maximally entangled
    kets[1, [0, 500]] = 1.0  # |vac> + |a_500>: a product across the cut
    kets[2] = rng.normal(size=2001) + 1j * rng.normal(size=2001)
    q_0, q_a, q_b = (np.sum(np.abs(kets[2, s]) ** 2) for s in (0, cut.a, cut.b))
    want = [1.0, 0.0, 2.0 * np.sqrt(q_a * q_b) / (q_0 + q_a + q_b)]
    ccnr, margin, level = sector_measures(kets, cut, kets=True)
    assert np.allclose(level, want, rtol=1e-13, atol=1e-15)
    assert np.array_equal(margin, level) and np.array_equal(ccnr, 1.0 + level)
