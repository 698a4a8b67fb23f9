"""Register-ket measures that the sector routes are checked against.

Runs measure a ket on the vacuum plus single excitations in closed form
(qsct.entanglement.sector_concurrence) and reduce it by sector partial traces;
these helpers take the general route instead, on the full d^n register ket:
the Schmidt coefficients from an SVD of the reshaped ket, and the reduced
state contracted from the ket.
"""

import numpy as np

from qsct.entanglement import concurrence_pure
from qsct.linalg import Bipartition, trace_norm


def _pair_sum(x):
    """sum_{i<j} x_i x_j as an all-positive sum."""
    tail = np.cumsum(x[::-1])[::-1]
    return float(x[:-1] @ tail[1:])


def schmidt_measures(psi, part: Bipartition):
    """(ccnr, amplified_ccnr_margin, concurrence_pure) of |psi><psi| from one small SVD.

    With |psi> = sum_i s_i |a_i>|b_i> and q = s^2, the realigned |psi><psi| has
    singular values s_i s_j, so ccnr = (sum s)^2. Subtracting rho_A (x) rho_B
    leaves those i != j terms plus the k x k block diag(q) - q q^T, and both
    marginal purity gaps equal 1 - sum q^2. concurrence_pure validates the ket.
    """
    level = concurrence_pure(psi, part)
    s = np.linalg.svd(np.asarray(psi).reshape(part.dim_a, part.dim_b), compute_uv=False)
    q = s * s
    total = float(s.sum())
    lhs = 2.0 * _pair_sum(s) + trace_norm(np.diag(q) - np.outer(q, q))
    gap = max(0.0, 1.0 - float(q @ q))
    return total * total, lhs - gap, level


def partial_trace_pure(psi, dims, keep):
    """partial_trace of |psi><psi|, contracted from the ket: the kept sites
    (in their order) become the rows of a kept x rest matrix M, and the
    reduced state is M M^dagger."""
    keep = sorted(keep)
    rest = [s for s in range(len(dims)) if s not in keep]
    kept = int(np.prod([dims[s] for s in keep]))
    m = np.asarray(psi).reshape(dims).transpose(keep + rest).reshape(kept, -1)
    return m @ m.conj().T
