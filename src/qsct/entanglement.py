"""Entanglement detection and measures for bipartite states.

The realignment criterion flags entanglement when the trace norm of the
realigned density matrix exceeds 1. Its amplified form subtracts subsystem
correlations first:

    ||(rho_AB - rho_A (x) rho_B)^R||_tr > sqrt((1 - tr rho_A^2)(1 - tr rho_B^2))

For pure global states the concurrence sqrt(2 (1 - tr rho_A^2)) measures the
same bipartition; the mixedness indicator applies the identical formula to an
arbitrary density matrix and coincides with the concurrence on pure input. A
ket on the vacuum plus single excitations has at most two Schmidt
coefficients, so one number, its concurrence in closed form, gives all three
of its measures (sector_concurrence); no SVD is taken of it.
A density matrix within _PURE_TOL of pure gives its level through its ket:
rho times its column at its largest diagonal entry is that ket up to scale
and phase (_pure_vector), an O(D^2) product, so no measure takes an eigh.
Every measure takes a stack of states along leading axes and returns an
array, one call (and one stacked SVD or matmul) for the whole stack; a
single state gives a float. The printed closed-form transfer profiles of
two-site chains, which only the conformance report evaluates, live in
qsct.conformance.
"""

from __future__ import annotations

import numpy as np

from .linalg import (
    Bipartition,
    SectorCut,
    inner,
    partial_trace,
    realign,
    realign_minus_product,
    sector_partial_trace,
    trace_norm,
)

# A globally pure state admits the well-conditioned Schmidt route; the purity
# route loses ~sqrt(eps) near zero entanglement.
_PURE_TOL = 1e-12


def _norm(x: np.ndarray) -> np.ndarray:
    """The 2-norm of each row of x (..., k), as np.linalg.norm of the row."""
    return np.sqrt(inner(x.real, x.real) + inner(x.imag, x.imag))


def _purity_gap(rho: np.ndarray) -> np.ndarray:
    """max(0, 1 - tr rho^2) of each Hermitian matrix of a stack (..., D, D)."""
    flat = rho.reshape(*rho.shape[:-2], -1)
    return np.maximum(0.0, 1.0 - inner(flat.conj(), flat).real)


def _pure_vector(rho: np.ndarray) -> np.ndarray:
    """The dominant eigenvector, unnormalized and up to a phase, of each matrix
    of a stack (K, D, D) within _PURE_TOL of pure (_purity_gap): rho times
    its column at its largest diagonal entry, one stacked matmul.

    With rho = sum_k lambda_k u_k u_k^dagger, column j is
    sum_k lambda_k conj(u_k[j]) u_k: the dominant term's coefficient has
    modulus about sqrt(rho[j, j]) >= 1/sqrt(D), while the other eigenvalues
    sum to about half the purity gap. The product with rho squares every
    lambda_k, which leaves an admixture far below rounding. It costs one
    O(D^2) product per state where a Hermitian eigh costs O(D^3), and each
    state's vector is the same bit for bit whatever stack it is in.
    """
    j = np.argmax(rho.diagonal(axis1=-2, axis2=-1).real, axis=-1)
    return (rho @ np.take_along_axis(rho, j[:, None, None], axis=-1))[..., 0]


def ccnr(rho: np.ndarray, part: Bipartition) -> float | np.ndarray:
    """Trace norm of the realigned density matrix; > 1 flags entanglement.
    A stack (..., D, D) gives an array (...) from one stacked SVD."""
    return trace_norm(realign(rho, part))


def amplified_ccnr_margin(rho: np.ndarray, part: Bipartition) -> float | np.ndarray:
    """Left side minus right side of the amplified realignment test.

    Positive margin flags entanglement; the test is strictly stronger than
    the plain realignment criterion on states with mixed marginals. The
    realigned rho_A (x) rho_B is vec rho_A vec rho_B^T, so it is subtracted
    from the realigned rho as that outer product. A stack (..., D, D) gives
    an array (...) from one stacked SVD.
    """
    rho = np.asarray(rho)
    part.check(rho.shape[-1])
    rho_a = partial_trace(rho, [part.dim_a, part.dim_b], keep=[0])
    rho_b = partial_trace(rho, [part.dim_a, part.dim_b], keep=[1])
    lhs = trace_norm(realign_minus_product(rho, part, rho_a, rho_b))
    gap_a, gap_b = (_purity_gap(r) for r in (rho_a, rho_b))
    return (lhs - np.sqrt(gap_a * gap_b))[()]


def concurrence_pure(psi: np.ndarray, part: Bipartition) -> float | np.ndarray:
    """sqrt(2 (1 - tr rho_A^2)) for a normalized ket; a stack of kets
    (..., D) gives an array (...).

    Evaluated through the Schmidt weights q of the reshaped ket, renormalized
    to sum to 1, which is exact at product states where the purity route
    amplifies roundoff: 2 (1 - sum q^2) == 4 sum_{i<j} q_i q_j, an
    all-positive sum, so a near-product state keeps its ~1e-8 tail instead
    of losing it to cancellation against 1.
    """
    psi = np.asarray(psi)
    if psi.ndim < 1:
        raise ValueError("expected a ket (a 1-d array)")
    part.check(psi.shape[-1])
    off = np.max(np.abs(_norm(psi) - 1.0), initial=0.0)
    if off > 1e-8:
        raise ValueError(f"ket norm deviates from 1 by {off:.3e}")
    s = np.linalg.svd(psi.reshape(*psi.shape[:-1], part.dim_a, part.dim_b), compute_uv=False)
    q = s * s
    q /= q.sum(-1, keepdims=True)
    tail = np.cumsum(q[..., ::-1], axis=-1)[..., ::-1]  # tail[i] = q_i + q_{i+1} + ...
    return (2.0 * np.sqrt(np.maximum(0.0, inner(q[..., :-1], tail[..., 1:]))))[()]


def mixedness_indicator(rho: np.ndarray, part: Bipartition) -> float | np.ndarray:
    """sqrt(2 (1 - tr rho_A^2)) of the reduced state of subsystem A; a stack
    (..., D, D) gives an array (...)."""
    rho = np.asarray(rho)
    part.check(rho.shape[-1])
    rho_a = partial_trace(rho, [part.dim_a, part.dim_b], keep=[0])
    return np.sqrt(2.0 * _purity_gap(rho_a))[()]


def entanglement_level(rho: np.ndarray, part: Bipartition) -> float | np.ndarray:
    """Concurrence-style level of a density matrix over the given bipartition.

    Routes globally pure input through the Schmidt form of its dominant
    eigenvector (mathematically the same number, numerically stable near 0);
    genuinely mixed input uses the purity formula. The eigenvector is rho
    times its column at its largest diagonal entry (_pure_vector), divided
    by its norm. A stack (..., D, D) gives an array (...), its pure matrices
    taken by one stacked matmul.
    """
    rho = np.asarray(rho)
    part.check(rho.shape[-1])
    stack = rho.reshape(-1, *rho.shape[-2:])
    pure = _purity_gap(stack) <= _PURE_TOL
    level = np.empty(len(stack))
    if not pure.all():
        level[~pure] = mixedness_indicator(stack[~pure], part)
    if pure.any():
        psi = _pure_vector(stack[pure])
        level[pure] = concurrence_pure(psi / _norm(psi)[:, None], part)
    return level.reshape(rho.shape[:-2])[()]


def sector_concurrence(v: np.ndarray, cut: SectorCut) -> float | np.ndarray:
    """Concurrence 2 sqrt(q_A q_B) / N of a ket v on span{vac} (+) single
    excitations (vacuum at index 0) across cut, between its excitations a
    and b: q_A = sum |v[a]|^2, q_B = sum |v[b]|^2, N = |v_0|^2 + q_A + q_B.
    A stack of kets (..., m) gives an array (...).

    The ket's coefficient matrix across the cut holds v_0 at (vac, vac), the
    column v[a] and the row v[b]; its rank is at most 2, and its two Schmidt
    weights multiply to q_A q_B. Each q is a sum of positive squares, so a
    near-product ket keeps its tail, and N gives the normalized ket's value.
    """
    q_0, q_a, q_b = (inner(x.conj(), x).real
                     for x in (np.take(v, rows, axis=-1) for rows in ([0], cut.a, cut.b)))
    return (2.0 * np.sqrt(q_a * q_b) / (q_0 + q_a + q_b))[()]


def sector_measures(states: np.ndarray, cut: SectorCut,
                    kets: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(ccnr, amplified_ccnr_margin, entanglement_level) across a cut of
    states on span{vac} (+) single excitations: density matrices (..., m, m),
    or with kets=True kets (..., m), leading axes a stack; each measure is an
    array (...). The states are a chain's whole sector states across a chain
    cut, or the (2d-1)-state endpoint pair (sides 1..d-1 and d..2d-2) that a
    partial trace leaves. A stack takes one stacked SVD; every block is an
    np.take from the cut's two sides, so each state of a stack is gathered
    contiguous and reduces as it would alone.

    The vacuum is at index 0; cut.a and cut.b list the indices of the
    excitations on sides A and B (k_A and k_B of them). A ket's two Schmidt
    coefficients s_1, s_2 give all three from c = 2 s_1 s_2
    (sector_concurrence): ccnr = (s_1 + s_2)^2 = 1 + c, and the margin is c,
    since the block diag(q) - q q^T and the purity gap are both 2 q_1 q_2
    and cancel. Of a density matrix, only four row groups of the realigned
    register rho are non-zero, (vac,vac), (e,vac), (vac,e') and (e,e'), and
    four column groups alike. The (e_A,e_A') rows are x e_vv^T and the
    (e_B,e_B') columns e_vv z^T, with x and z the vectorized excitation
    blocks of rho_A and rho_B: each group is rank one and collapses to its
    norm, leaving a (2+2k_A) x (2+2k_B) matrix C with the register's
    singular values. Subtracting vec rho_A vec rho_B^T leaves both groups rank
    one again, meeting at -|x||z|, so the margin's matrix is C - a_c b_c^T
    with the marginals collapsed the same way. The level is the purity
    formula on rho_A, or for a globally pure rho the sector concurrence of
    its dominant eigenvector: rho times its column at its largest diagonal
    entry (_pure_vector), which sector_concurrence takes unnormalized.
    """
    if kets:
        c = sector_concurrence(states, cut)
        return 1.0 + c, c, c
    lead, (ka, kb) = states.shape[:-2], (len(cut.a), len(cut.b))
    rho = states.reshape(-1, *states.shape[-2:])
    rho_a, rho_b = reduced = [sector_partial_trace(rho, cut, side) for side in (0, 1)]
    norm_a, norm_b = (_norm(r[:, 1:, 1:].reshape(len(rho), -1)) for r in reduced)
    # C: row 0 holds rho[0, 0], rho[0, b], rho[b, 0] and column 0 rho[a, 0],
    # rho[0, a]; then the blocks rho[a, b] and rho[b, a]^T, and the norms
    c = np.zeros((len(rho), 2 + 2 * ka, 2 + 2 * kb), dtype=np.complex128)
    c[:, :1 + ka, :1 + kb] = np.take(np.take(rho, cut.rows[0], axis=1), cut.rows[1], axis=2)
    c[:, 0, 1 + kb:-1] = np.take(rho[:, :, 0], cut.b, axis=-1)
    c[:, 1 + ka:-1, 0] = np.take(rho[:, 0], cut.a, axis=-1)
    c[:, 1 + ka:-1, 1 + kb:-1] = np.take(np.take(rho, cut.b, axis=1), cut.a, axis=2).swapaxes(1, 2)
    c[:, 0, -1], c[:, -1, 0] = norm_b, norm_a
    # vec rho_A and vec rho_B collapsed alike: (rho_A[0, 0], rho_A[a, 0],
    # rho_A[0, a]) and (rho_B[0, 0], rho_B[0, b], rho_B[b, 0]), then the norm
    vec_a = np.concatenate((rho_a[:, :, 0], rho_a[:, 0, 1:], norm_a[:, None]), axis=1)
    vec_b = np.concatenate((rho_b[:, 0], rho_b[:, 1:, 0], norm_b[:, None]), axis=1)
    gap_a, gap_b = (_purity_gap(r) for r in reduced)
    # C and C - a_c b_c^T: one stacked SVD
    norm_c, lhs = trace_norm(np.stack((c, c - vec_a[:, :, None] * vec_b[:, None, :])))
    level = np.sqrt(2.0 * gap_a)
    pure = _purity_gap(rho) <= _PURE_TOL
    if pure.any():
        level[pure] = sector_concurrence(_pure_vector(rho[pure]), cut)
    return tuple(x.reshape(lead) for x in (norm_c, lhs - np.sqrt(gap_a * gap_b), level))

