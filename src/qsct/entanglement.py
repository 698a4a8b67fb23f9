"""Entanglement detection and measures for bipartite states.

The realignment criterion flags entanglement when the trace norm of the
realigned density matrix exceeds 1. Its amplified form subtracts subsystem
correlations first:

    ||(rho_AB - rho_A (x) rho_B)^R||_tr > sqrt((1 - tr rho_A^2)(1 - tr rho_B^2))

For pure global states the concurrence sqrt(2 (1 - tr rho_A^2)) measures the
same bipartition; the mixedness indicator applies the identical formula to an
arbitrary density matrix and coincides with the concurrence on pure input.
Closed-form transfer profiles for two-site chains are evaluated as printed.
"""

from __future__ import annotations

import numpy as np

from .linalg import Bipartition, partial_trace, realign, trace_norm

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


def _schmidt_coefficients(psi: np.ndarray, part: Bipartition) -> np.ndarray:
    """Singular values of the dim_a x dim_b reshaped ket; validates the ket."""
    psi = np.asarray(psi)
    if psi.ndim != 1:
        raise ValueError("expected a ket (a 1-d array)")
    part.check(psi.shape[0])
    norm = float(np.linalg.norm(psi))
    if abs(norm - 1.0) > 1e-8:
        raise ValueError(f"ket norm deviates from 1 by {abs(norm - 1.0):.3e}")
    return np.linalg.svd(psi.reshape(part.dim_a, part.dim_b), compute_uv=False)


def _pair_sum(x: np.ndarray) -> float:
    """sum_{i<j} x_i x_j as an all-positive sum (no cancellation for x >= 0)."""
    tail = np.cumsum(x[::-1])[::-1]  # tail[i] = x_i + x_{i+1} + ...
    return float(x[:-1] @ tail[1:])


def _schmidt_weights(s: np.ndarray) -> np.ndarray:
    """Eigenvalues q = s^2 of rho_A, renormalized to sum to 1."""
    q = s * s
    q /= q.sum()
    return q


def _concurrence_from_weights(q: np.ndarray) -> float:
    # With sum(q) == 1, 2 (1 - sum q^2) == 4 sum_{i<j} q_i q_j.  The cross-term
    # sum is all-positive, so near-product states keep their ~1e-8 tail instead
    # of losing it to cancellation against 1.
    return float(2.0 * np.sqrt(max(0.0, _pair_sum(q))))


def concurrence_pure(psi: np.ndarray, part: Bipartition) -> float:
    """sqrt(2 (1 - tr rho_A^2)) for a normalized ket.

    Evaluated through the Schmidt coefficients of the reshaped ket, which is
    exact at product states where the purity route amplifies roundoff.
    """
    return _concurrence_from_weights(_schmidt_weights(_schmidt_coefficients(psi, part)))


def concurrence_and_purity(psi: np.ndarray, part: Bipartition) -> tuple[float, float]:
    """(concurrence_pure, tr rho_A^2) of a normalized ket from one Schmidt SVD."""
    q = _schmidt_weights(_schmidt_coefficients(psi, part))
    return _concurrence_from_weights(q), float(q @ q)


def schmidt_measures(psi: np.ndarray, part: Bipartition) -> tuple[float, float, float]:
    """(ccnr, amplified_ccnr_margin, concurrence_pure) of |psi><psi| from one small SVD.

    With |psi> = sum_i s_i |a_i>|b_i> and q = s^2, the realigned |psi><psi| has
    singular values s_i s_j, so ccnr = (sum s)^2. Subtracting rho_A (x) rho_B
    leaves those i != j terms plus the k x k block diag(q) - q q^T, and both
    marginal purity gaps equal 1 - sum q^2. The SVD is of the dim_a x dim_b
    ket instead of the realigned dim_a^2 x dim_b^2 density matrix.
    """
    s = _schmidt_coefficients(psi, part)
    q = s * s
    total = float(s.sum())
    lhs = 2.0 * _pair_sum(s) + trace_norm(np.diag(q) - np.outer(q, q))
    gap = max(0.0, 1.0 - float(q @ q))
    return total * total, lhs - gap, _concurrence_from_weights(_schmidt_weights(s))


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
