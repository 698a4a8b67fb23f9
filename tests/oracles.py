"""Independent routes that the library is checked against.

Register-ket measures. Runs measure a ket on the vacuum plus single
excitations in closed form (qsct.entanglement.sector_concurrence) and reduce
it by sector partial traces; schmidt_measures and partial_trace_pure take the
general route instead, on the full d^n register ket: the Schmidt coefficients
from an SVD of the reshaped ket, and the reduced state contracted from the ket.

Kraus lists. Runs apply Weyl-operator noise as masks (qsct.channels);
weyl_channel lists the same channel's Kraus operators and apply_channel sums
E rho E^dagger over them, and average_fidelity_monte_carlo estimates the
average fidelity from Haar-random kets (haar_random_kets) that
qsct.conformance.average_fidelity takes by its trace formula.

Closed forms and conservation laws. closed_form_l2_d2 is the printed
two-level profile, and commutator_defect the norms of [H, C_r] for the level
counters built from the generator basis.
"""

import numpy as np

from qsct.chain import ChainSpec, build_hamiltonian
from qsct.channels import check_probability_table
from qsct.conformance import KrausChannel, closed_form_l2_d3, gate_z
from qsct.entanglement import concurrence_pure
from qsct.generators import eta
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


def gate_x(d: int) -> np.ndarray:
    """Cyclic shift X|j> = |j + 1 mod d>."""
    if d < 2:
        raise ValueError("d must be at least 2")
    return np.roll(np.eye(d, dtype=np.complex128), 1, axis=0)


def weyl_channel(pi: np.ndarray) -> KrausChannel:
    """Random-unitary channel with Kraus sqrt(pi_{m,n}) Z^n X^m.

    pi is a d x d probability table; row index m selects the shift power,
    column index n the clock power.
    """
    pi = check_probability_table(pi)
    d = pi.shape[0]
    x, z = gate_x(d), gate_z(d)
    x_pows = [np.linalg.matrix_power(x, m) for m in range(d)]
    z_pows = [np.linalg.matrix_power(z, n) for n in range(d)]
    kraus = [
        np.sqrt(max(pi[m, n], 0.0)) * (z_pows[n] @ x_pows[m])
        for m in range(d)
        for n in range(d)
    ]
    return KrausChannel(dim=d, kraus=kraus, label=f"weyl(d={d})")


def apply_channel(rho: np.ndarray, ch: KrausChannel) -> np.ndarray:
    """sum_k E_k rho E_k^dagger."""
    rho = np.asarray(rho)
    if rho.shape != (ch.dim, ch.dim):
        raise ValueError(f"state shape {rho.shape} does not match channel dimension {ch.dim}")
    out = np.zeros_like(rho, dtype=np.complex128)
    for e in ch.kraus:
        out += e @ rho @ e.conj().T
    return out


def haar_random_kets(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """count x n array of independent Haar-random kets."""
    kets = rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))
    kets /= np.linalg.norm(kets, axis=1, keepdims=True)
    return kets


def average_fidelity_monte_carlo(
    u: np.ndarray,
    ch: KrausChannel,
    samples: int = 10_000,
    seed: int = 0,
) -> tuple[float, float]:
    """Haar-mean estimate of <psi| U^dag E(|psi><psi|) U |psi>.

    Returns (mean, standard error); the mean should agree with
    average_fidelity within a few standard errors.
    """
    if samples < 2:
        raise ValueError("need at least 2 samples")
    n = ch.dim
    rng = np.random.default_rng(seed)
    kets = haar_random_kets(n, samples, rng)
    targets = kets @ np.asarray(u).T
    vals = np.zeros(samples)
    for e in ch.kraus:
        overlaps = np.einsum("si,si->s", targets.conj(), kets @ e.T)
        vals += np.abs(overlaps) ** 2
    return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(samples))


def closed_form_l2_d2(alpha: float, beta: float, a):
    """Two-site, two-level transfer profile
    (1/4) (4 a^4 + 3 b^4 + 8 a^2 b^2 cos 2a + b^4 cos 4a): the three-level
    profile with no weight on the second excited level."""
    return closed_form_l2_d3(alpha, beta, 0.0, a)


def commutator_defect(spec: ChainSpec) -> list[float]:
    """Frobenius norms of [H, C_r] for the level counters C_r = sum_i eta^r_(i),
    r = 1..d-1. C_r is diagonal, c_r[a] = sum_i eta^r[a_i, a_i], so
    [H, C_r]_ab = H_ab (c_r[b] - c_r[a])."""
    h = build_hamiltonian(spec)
    digits = np.indices(spec.dims).reshape(spec.n, -1)
    out = []
    for r in range(1, spec.d):
        c = np.diag(eta(r, spec.d)).real[digits].sum(axis=0)
        out.append(float(np.linalg.norm(h * (c[None, :] - c[:, None]))))
    return out
