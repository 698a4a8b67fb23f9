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
Closed-form transfer profiles for two-site chains are evaluated as printed.
"""

from __future__ import annotations

import numpy as np

from .linalg import Bipartition, partial_trace, realign, sector_partial_trace, trace_norm

# A globally pure state admits the well-conditioned Schmidt route; the purity
# route loses ~sqrt(eps) near zero entanglement.
_PURE_TOL = 1e-12


def ccnr(rho: np.ndarray, part: Bipartition) -> float:
    """Trace norm of the realigned density matrix; > 1 flags entanglement."""
    return trace_norm(realign(rho, part))


def amplified_ccnr_margin(rho: np.ndarray, part: Bipartition) -> float:
    """Left side minus right side of the amplified realignment test.

    Positive margin flags entanglement; the test is strictly stronger than
    the plain realignment criterion on states with mixed marginals.
    """
    part.check(np.asarray(rho).shape[0])
    rho_a = partial_trace(rho, [part.dim_a, part.dim_b], keep=[0])
    rho_b = partial_trace(rho, [part.dim_a, part.dim_b], keep=[1])
    lhs = trace_norm(realign(rho - np.kron(rho_a, rho_b), part))
    gap_a = max(0.0, 1.0 - float(np.vdot(rho_a, rho_a).real))
    gap_b = max(0.0, 1.0 - float(np.vdot(rho_b, rho_b).real))
    return lhs - float(np.sqrt(gap_a * gap_b))


def concurrence_pure(psi: np.ndarray, part: Bipartition) -> float:
    """sqrt(2 (1 - tr rho_A^2)) for a normalized ket.

    Evaluated through the Schmidt weights q of the reshaped ket, renormalized
    to sum to 1, which is exact at product states where the purity route
    amplifies roundoff: 2 (1 - sum q^2) == 4 sum_{i<j} q_i q_j, an
    all-positive sum, so a near-product state keeps its ~1e-8 tail instead
    of losing it to cancellation against 1.
    """
    psi = np.asarray(psi)
    if psi.ndim != 1:
        raise ValueError("expected a ket (a 1-d array)")
    part.check(psi.shape[0])
    norm = float(np.linalg.norm(psi))
    if abs(norm - 1.0) > 1e-8:
        raise ValueError(f"ket norm deviates from 1 by {abs(norm - 1.0):.3e}")
    s = np.linalg.svd(psi.reshape(part.dim_a, part.dim_b), compute_uv=False)
    q = s * s
    q /= q.sum()
    tail = np.cumsum(q[::-1])[::-1]  # tail[i] = q_i + q_{i+1} + ...
    return float(2.0 * np.sqrt(max(0.0, float(q[:-1] @ tail[1:]))))


def mixedness_indicator(rho: np.ndarray, part: Bipartition) -> float:
    """sqrt(2 (1 - tr rho_A^2)) of the reduced state of subsystem A."""
    part.check(np.asarray(rho).shape[0])
    rho_a = partial_trace(rho, [part.dim_a, part.dim_b], keep=[0])
    gap = max(0.0, 1.0 - float(np.vdot(rho_a, rho_a).real))
    return float(np.sqrt(2.0 * gap))


def entanglement_level(rho: np.ndarray, part: Bipartition) -> float:
    """Concurrence-style level of a density matrix over the given bipartition.

    Routes globally pure input through the Schmidt form of its dominant
    eigenvector (mathematically the same number, numerically stable near 0);
    genuinely mixed input uses the purity formula.
    """
    rho = np.asarray(rho)
    part.check(rho.shape[0])
    global_purity = float(np.vdot(rho, rho).real)
    if 1.0 - global_purity <= _PURE_TOL:
        _, vecs = np.linalg.eigh(rho)
        return concurrence_pure(vecs[:, -1], part)
    return mixedness_indicator(rho, part)


def sector_concurrence(v: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """Concurrence 2 sqrt(q_A q_B) / N of a ket v on span{vac} (+) single
    excitations (vacuum at index 0) across the cut between the excitations a
    and b: q_A = sum |v[a]|^2, q_B = sum |v[b]|^2, N = |v_0|^2 + q_A + q_B.

    The ket's coefficient matrix across the cut holds v_0 at (vac, vac), the
    column v[a] and the row v[b]; its rank is at most 2, and its two Schmidt
    weights multiply to q_A q_B. Each q is a sum of positive squares, so a
    near-product ket keeps its tail, and N gives the normalized ket's value.
    """
    q_0, q_a, q_b = (float(np.vdot(v[s], v[s]).real) for s in ([0], a, b))
    return 2.0 * float(np.sqrt(q_a * q_b)) / (q_0 + q_a + q_b)


def sector_measures(rho: np.ndarray, a: np.ndarray, b: np.ndarray) -> tuple[float, float, float]:
    """(ccnr, amplified_ccnr_margin, entanglement_level) across a cut of a
    state on span{vac} (+) single excitations, from its sector ket or density
    matrix: a chain's whole sector state across a chain cut, or the
    (2d-1)-state endpoint pair (sides 1..d-1 and d..2d-2) that a partial
    trace leaves.

    rho has the vacuum at index 0; a and b list the indices of the
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
    its dominant eigenvector.
    """
    if rho.ndim == 1:
        c = sector_concurrence(rho, a, b)
        return 1.0 + c, c, c
    ka, kb = len(a), len(b)
    rho_a, rho_b = sector_partial_trace(rho, a, b), sector_partial_trace(rho, b, a)
    x, z = np.linalg.norm(rho_a[1:, 1:]), np.linalg.norm(rho_b[1:, 1:])
    c = np.zeros((2 + 2 * ka, 2 + 2 * kb), dtype=np.complex128)
    c[0] = np.r_[rho[0, 0], rho[0, b], rho[b, 0], z]
    c[1:, 0] = np.r_[rho[a, 0], rho[0, a], x]
    c[1:1 + ka, 1:1 + kb] = rho[np.ix_(a, b)]
    c[1 + ka:-1, 1 + kb:-1] = rho[np.ix_(b, a)].T
    vec_a = np.r_[rho_a[0, 0], rho_a[1:, 0], rho_a[0, 1:], x]
    vec_b = np.r_[rho_b[0, 0], rho_b[0, 1:], rho_b[1:, 0], z]
    gap_a = max(0.0, 1.0 - float(np.vdot(rho_a, rho_a).real))
    gap_b = max(0.0, 1.0 - float(np.vdot(rho_b, rho_b).real))
    margin = trace_norm(c - np.outer(vec_a, vec_b)) - float(np.sqrt(gap_a * gap_b))
    if 1.0 - float(np.vdot(rho, rho).real) <= _PURE_TOL:
        level = sector_concurrence(np.linalg.eigh(rho)[1][:, -1], a, b)
    else:
        level = float(np.sqrt(2.0 * gap_a))
    return trace_norm(c), margin, level


def _check_amplitudes(*amps: float) -> None:
    for a in amps:
        if a < 0:
            raise ValueError("amplitudes must be non-negative reals")
    total = sum(a * a for a in amps)
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"amplitudes are not normalized: sum of squares = {total!r}")


def closed_form_l2_d2(alpha: float, beta: float, a):
    """Two-site, two-level transfer profile
    (1/4) (4 a^4 + 3 b^4 + 8 a^2 b^2 cos 2a + b^4 cos 4a): the three-level
    profile with no weight on the second excited level."""
    return closed_form_l2_d3(alpha, beta, 0.0, a)


def closed_form_l2_d3(alpha: float, beta: float, gamma: float, a):
    """Two-site transfer profile in the excited weight w = b^2 + g^2,
    (1/4) (4 a^4 + 3 w^2 + 8 a^2 w cos 2a + w^2 cos 4a); broadcasts over a.
    gamma = 0 gives the two-level profile."""
    _check_amplitudes(alpha, beta, gamma)
    a = np.asarray(a, dtype=float)
    a2 = alpha * alpha
    w = beta * beta + gamma * gamma
    out = 0.25 * (
        4.0 * a2 * a2
        + 3.0 * w * w
        + 8.0 * a2 * w * np.cos(2.0 * a)
        + w * w * np.cos(4.0 * a)
    )
    return out if out.ndim else float(out)


def fit_cosine_series(samples, harmonics) -> tuple[np.ndarray, float]:
    """Least-squares fit of value(a) = sum_h c_h cos(h a) over given harmonics.

    samples: iterable of (a, value) pairs. Returns (coefficients in harmonic
    order, max absolute residual). Raises if the sample set cannot separate
    the requested harmonics.
    """
    pts = np.asarray(list(samples), dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("samples must be (a, value) pairs")
    harmonics = np.asarray(list(harmonics), dtype=float)
    if len(set(harmonics.tolist())) != harmonics.size:
        raise ValueError("harmonics must be distinct")
    if pts.shape[0] < 2 * harmonics.size + 1:
        raise ValueError(
            f"need at least {2 * harmonics.size + 1} samples for {harmonics.size} harmonics"
        )
    design = np.cos(np.outer(pts[:, 0], harmonics))
    coeffs, _, rank, _ = np.linalg.lstsq(design, pts[:, 1], rcond=None)
    if rank < harmonics.size:
        raise ValueError("sample grid does not separate the requested harmonics")
    residual = float(np.max(np.abs(design @ coeffs - pts[:, 1])))
    return coeffs, residual
