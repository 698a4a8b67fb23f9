"""Independent routes that the library is checked against.

Register-ket measures. Runs measure a ket on the vacuum plus single
excitations in closed form (qsct.entanglement.sector_concurrence) and reduce
it by sector partial traces; schmidt_measures and partial_trace_pure take the
general route instead, on the full d^n register ket: the Schmidt coefficients
from an SVD of the reshaped ket, and the reduced state contracted from the ket.

Kraus lists. Runs and the conformance report apply Weyl-operator noise as
masks (qsct.channels.apply_weyl_table). Here a channel is a list of Kraus
operators instead: KrausChannel checks its trace preservation to TP_TOL,
phase_damping lists the clock powers of gate_z with the library's binomial
weights, weyl_channel lists sqrt(pi_{m,n}) Z^n X^m, embed_operator places a
site operator by Kronecker products and embed_channel takes the cross product
of per-site Kraus lists. apply_channel sums E rho E^dagger over the list,
average_fidelity takes the Kraus trace formula and
average_fidelity_monte_carlo the Haar mean over random kets
(haar_random_kets); both check qsct.conformance.average_fidelity, which takes
the same mean from a Weyl table.

Generator basis. projector, theta, beta and eta are the paper's traceless
Hermitian generators, d*d - 1 of them (generator_set), normalized so
tr(G_a G_b) = 2 delta_ab: the Pauli set for d = 2 and the Gell-Mann set for
d = 3. They are the generator-sum oracle for the Hamiltonian.

The dense Hamiltonian. build_hamiltonian assembles the d^n x d^n register
Hamiltonian bond by bond as a real hopping matrix; the library never builds
it, and evolves each level-count block of it instead (qsct.chain.Spectrum).
An eigh of it is the dense oracle for Spectrum.unitary, and block_states
gives the register indices of the blocks that unitary names by their counts.

Closed forms and conservation laws. closed_form_l2_d2 is the printed
two-level profile, and commutator_defect the norms of [H, C_r] for the level
counters built from the generator basis.

Peaks. golden_max maximises one scalar function on one bracket, a peak off
a grid, by golden section: it compares values, so it fixes a flat peak only
to about sqrt(eps) of its curvature scale. sign_bisection refines one bracket
on the sign of a slope, as qsct.chain.find_pst_time does every bracket at once.
"""

import math
from dataclasses import dataclass, field
from functools import reduce
from itertools import product
from typing import Sequence

import numpy as np

from qsct.chain import ChainSpec
from qsct.channels import _damping_weights, check_probability_table
from qsct.conformance import closed_form_l2_d3
from qsct.entanglement import concurrence_pure
from qsct.linalg import Bipartition, trace_norm

TP_TOL = 1e-12


# ---------------------------------------------------------------------------
# The generator basis
# ---------------------------------------------------------------------------

def projector(k: int, j: int, d: int) -> np.ndarray:
    """Matrix unit |k><j| on a d-level system, levels counted from 1."""
    if d < 2:
        raise ValueError("d must be at least 2")
    if not (1 <= k <= d and 1 <= j <= d):
        raise ValueError(f"levels must lie in 1..{d}, got ({k}, {j})")
    out = np.zeros((d, d), dtype=np.complex128)
    out[k - 1, j - 1] = 1.0
    return out


def theta(k: int, j: int, d: int) -> np.ndarray:
    """Symmetric generator |k><j| + |j><k| for k < j."""
    _check_pair(k, j, d)
    return projector(k, j, d) + projector(j, k, d)


def beta(k: int, j: int, d: int) -> np.ndarray:
    """Antisymmetric generator -i(|k><j| - |j><k|) for k < j."""
    _check_pair(k, j, d)
    return -1j * (projector(k, j, d) - projector(j, k, d))


def eta(r: int, d: int) -> np.ndarray:
    """Diagonal generator sqrt(2/(r(r+1))) (sum_{j<=r} |j><j| - r |r+1><r+1|)."""
    if d < 2:
        raise ValueError("d must be at least 2")
    if not (1 <= r <= d - 1):
        raise ValueError(f"r must lie in 1..{d - 1}, got {r}")
    diag = np.zeros(d)
    diag[:r] = 1.0
    diag[r] = -float(r)
    return np.sqrt(2.0 / (r * (r + 1))) * np.diag(diag).astype(np.complex128)


def _check_pair(k: int, j: int, d: int) -> None:
    if d < 2:
        raise ValueError("d must be at least 2")
    if not (1 <= k < j <= d):
        raise ValueError(f"need 1 <= k < j <= {d}, got ({k}, {j})")


@dataclass
class GeneratorSet:
    """Complete generator family for one local dimension."""

    d: int
    thetas: dict[tuple[int, int], np.ndarray] = field(repr=False)
    betas: dict[tuple[int, int], np.ndarray] = field(repr=False)
    etas: dict[int, np.ndarray] = field(repr=False)

    @property
    def count(self) -> int:
        return len(self.thetas) + len(self.betas) + len(self.etas)

    def matrices(self) -> list[np.ndarray]:
        """All generators in a fixed order: thetas, betas, then etas."""
        pairs = sorted(self.thetas)
        return (
            [self.thetas[p] for p in pairs]
            + [self.betas[p] for p in pairs]
            + [self.etas[r] for r in sorted(self.etas)]
        )


def generator_set(d: int) -> GeneratorSet:
    """Build the full family: d(d-1)/2 thetas, d(d-1)/2 betas, d-1 etas."""
    if d < 2:
        raise ValueError("d must be at least 2")
    pairs = [(k, j) for k in range(1, d + 1) for j in range(k + 1, d + 1)]
    return GeneratorSet(
        d=d,
        thetas={p: theta(*p, d) for p in pairs},
        betas={p: beta(*p, d) for p in pairs},
        etas={r: eta(r, d) for r in range(1, d)},
    )


# ---------------------------------------------------------------------------
# Kraus-list channels and average fidelity
# ---------------------------------------------------------------------------

def gate_z(d: int) -> np.ndarray:
    """Clock gate diag(w^0, ..., w^{d-1})."""
    if d < 2:
        raise ValueError("d must be at least 2")
    return np.diag(np.exp(2j * np.pi * np.arange(d) / d))


@dataclass
class KrausChannel:
    """A completely positive trace-preserving map as a list of Kraus operators."""

    dim: int
    kraus: list[np.ndarray] = field(repr=False)
    label: str = ""
    tp_defect: float = field(init=False)

    def __post_init__(self) -> None:
        if not self.kraus:
            raise ValueError("channel needs at least one Kraus operator")
        for e in self.kraus:
            if e.shape != (self.dim, self.dim):
                raise ValueError("Kraus operators must be square with the declared dimension")
        total = sum(e.conj().T @ e for e in self.kraus)
        self.tp_defect = float(np.max(np.abs(total - np.eye(self.dim))))
        if self.tp_defect > TP_TOL:
            raise ValueError(f"channel is not trace preserving (defect {self.tp_defect:.3e})")


def phase_damping(d: int, p: float) -> KrausChannel:
    """Binomially weighted clock-power channel; p = 1 is the identity."""
    z = gate_z(d)
    kraus = [np.sqrt(weight) * np.linalg.matrix_power(z, i)
             for i, weight in enumerate(_damping_weights(d, p))]
    return KrausChannel(dim=d, kraus=kraus, label=f"phase-damping(d={d}, p={p})")


def embed_operator(op: np.ndarray, site: int, dims: Sequence[int]) -> np.ndarray:
    """Place a single-site operator at a 0-based site, identity elsewhere."""
    dims = [int(d) for d in dims]
    if site < 0 or site >= len(dims):
        raise ValueError(f"site {site} out of range for {len(dims)} sites")
    op = np.asarray(op)
    if op.shape != (dims[site], dims[site]):
        raise ValueError("operator does not match the site dimension")
    left = int(np.prod(dims[:site])) if site else 1
    right = int(np.prod(dims[site + 1:])) if site + 1 < len(dims) else 1
    return np.kron(np.kron(np.eye(left), op), np.eye(right))


def embed_channel(ch: KrausChannel, sites: list[int], dims: list[int]) -> KrausChannel:
    """Independent copies of a local channel on the listed sites (0-based).

    The result's Kraus list is the cross product of the per-site embedded
    elements; operators on distinct sites commute, so the ordering is fixed
    but immaterial.
    """
    if not sites:
        raise ValueError("sites must name at least one site")
    if len(set(sites)) != len(sites):
        raise ValueError("sites must be distinct")
    for s in sites:
        if s < 0 or s >= len(dims):
            raise ValueError(f"site {s} out of range for {len(dims)} sites")
        if dims[s] != ch.dim:
            raise ValueError(f"site {s} has dimension {dims[s]}, channel expects {ch.dim}")
    per_site = [[embed_operator(e, s, dims) for e in ch.kraus] for s in sorted(sites)]
    kraus = [reduce(np.matmul, combo) for combo in product(*per_site)]
    full = int(np.prod(dims))
    return KrausChannel(dim=full, kraus=kraus, label=f"{ch.label} on sites {sorted(sites)}")


def average_fidelity(u: np.ndarray, ch: KrausChannel) -> float:
    """Average fidelity between the channel and a target unitary,

        F = [ tr sum_k M_k^dag M_k + sum_k |tr M_k|^2 ] / (n (n + 1)),

    with M_k = U^dagger E_k. Equals the Haar mean of
    <psi| U^dag E(|psi><psi|) U |psi>.
    """
    u = np.asarray(u)
    if u.shape != (ch.dim, ch.dim):
        raise ValueError("unitary dimension does not match the channel")
    n = ch.dim
    udag = u.conj().T
    t1 = 0.0
    t2 = 0.0
    for e in ch.kraus:
        m = udag @ e
        t1 += float(np.vdot(m, m).real)
        t2 += float(abs(np.trace(m)) ** 2)
    return (t1 + t2) / (n * (n + 1))


# ---------------------------------------------------------------------------
# Register-ket measures, Weyl Kraus lists, closed forms
# ---------------------------------------------------------------------------

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


def build_hamiltonian(spec: ChainSpec) -> np.ndarray:
    """The register Hamiltonian as a real symmetric hopping matrix: bond i
    takes every basis state whose sites i and i+1 differ to the state with
    those two sites exchanged, with amplitude J_i."""
    digits = np.indices(spec.dims).reshape(spec.n, -1)
    h = np.zeros((spec.dim, spec.dim))
    for i, coupling in enumerate(spec.couplings):
        hop = np.flatnonzero(digits[i] != digits[i + 1])
        swapped = digits[:, hop]
        swapped[[i, i + 1]] = swapped[[i + 1, i]]
        h[np.ravel_multi_index(swapped, spec.dims), hop] = coupling
    return h


def block_states(spec: ChainSpec, counts) -> np.ndarray:
    """Register indices of the level-count blocks whose counts are the rows
    of counts, block after block, each block's states by relabelled register
    index, descending: its levels relabelled, the most occupied 0 (ties by
    level). The order of Spectrum.unitary(t, counts)."""
    digits = np.array(np.unravel_index(np.arange(spec.dim), spec.dims))
    state_counts = (digits == np.arange(spec.d)[:, None, None]).sum(1).T
    out = []
    for row in np.asarray(counts):
        states = np.flatnonzero((state_counts == row).all(1))
        relabel = np.argsort(np.argsort(-row, kind="stable"), kind="stable")
        keys = np.ravel_multi_index(relabel[digits[:, states]], spec.dims)
        out.append(states[np.argsort(-keys, kind="stable")])
    return np.concatenate(out)


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


def golden_max(f, lo: float, hi: float, tol: float) -> float:
    """Golden-section maximisation of f on [lo, hi]; the midpoint at tol width."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - inv_phi * (b - a), a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def sign_bisection(slope, lo: float, hi: float) -> float:
    """Bisection of [lo, hi] to 4 ulps of its end: lo moves to the midpoint where
    slope is positive there, hi where it is not; then the midpoint."""
    a, b = lo, hi
    while b - a > 4.0 * math.ulp(b):
        mid = 0.5 * (a + b)
        if slope(mid) > 0.0:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)
