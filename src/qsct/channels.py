"""Qudit gates, noise channels, and average gate fidelity.

The shift and clock gates X|j> = |j+1 mod d>, Z = diag(1, w, ..., w^{d-1})
with w = exp(2 pi i / d) satisfy Z X = w X Z. Both noise kinds are
random-unitary channels over the Weyl operators Z^n X^m, given by a d x d
probability table pi_{m,n}. Phase damping is the table whose only row is
m = 0, holding binomially weighted clock powers

    pi_{0,i} = C(d-1, i) ((1-p)/2)^i ((1+p)/2)^{d-1-i},  i = 0..d-1,

so p = 1 is the identity channel.

A channel exists here in two forms. `KrausChannel` lists its Kraus
operators sqrt(pi_{m,n}) Z^n X^m; `embed_channel` takes their cross product
over sites and `apply_channel` sums E rho E^dagger. The average-fidelity
formula and its Monte Carlo estimator need that list. `WeylTable` holds the
same channel as one Hadamard mask per shift row m that carries weight:

    (Z^n X^m) rho (Z^n X^m)^dagger [a, b] = w^{n (a-b)} rho[a-m, b-m],
    E(rho)[a, b] = sum_m M_m[a, b] rho[a-m, b-m],
    M_m[a, b]    = sum_n pi_{m,n} w^{n (a-b)}.

`apply_weyl_table` applies it site by site on the reshaped density tensor,
one roll and one elementwise product per row and site, and builds no Kraus
operator; experiment runs use this form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import product
from math import comb

import numpy as np

from .chain import ConfigError, as_array
from .linalg import embed_operator

TP_TOL = 1e-12


def gate_x(d: int) -> np.ndarray:
    """Cyclic shift X|j> = |j + 1 mod d>."""
    if d < 2:
        raise ValueError("d must be at least 2")
    return np.roll(np.eye(d, dtype=np.complex128), 1, axis=0)


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


def _damping_weights(d: int, p: float) -> list[float]:
    """Binomial weights of the clock powers Z^0 .. Z^{d-1} in phase damping."""
    if d < 2:
        raise ValueError("d must be at least 2")
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"p must lie in [0, 1], got {p}")
    lo, hi = (1.0 - p) / 2.0, (1.0 + p) / 2.0
    return [comb(d - 1, i) * lo**i * hi ** (d - 1 - i) for i in range(d)]


def phase_damping(d: int, p: float) -> KrausChannel:
    """Binomially weighted clock-power channel; p = 1 is the identity."""
    z = gate_z(d)
    kraus = [np.sqrt(weight) * np.linalg.matrix_power(z, i)
             for i, weight in enumerate(_damping_weights(d, p))]
    return KrausChannel(dim=d, kraus=kraus, label=f"phase-damping(d={d}, p={p})")


def check_probability_table(pi, name: str = "pi") -> np.ndarray:
    """pi as a float array, or ConfigError (a ValueError) naming `name` unless
    it is a square table (at least 2 x 2) of finite probabilities summing to 1."""
    what = "a square nested list of numbers"
    pi = as_array(pi, name, what=what)
    if pi.ndim != 2 or pi.shape[0] != pi.shape[1]:
        raise ConfigError(f"{name}: expected {what}, got shape {pi.shape}")
    if pi.shape[0] < 2:
        raise ConfigError(f"{name}: must be at least 2x2")
    if np.any(pi < -1e-15) or np.any(pi > 1.0 + 1e-15):
        raise ConfigError(f"{name}: entries must be probabilities")
    if abs(pi.sum() - 1.0) > 1e-12:
        raise ConfigError(f"{name}: must sum to 1, got {float(pi.sum())!r}")
    return pi


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


def apply_channel(rho: np.ndarray, ch: KrausChannel) -> np.ndarray:
    """sum_k E_k rho E_k^dagger."""
    rho = np.asarray(rho)
    if rho.shape != (ch.dim, ch.dim):
        raise ValueError(f"state shape {rho.shape} does not match channel dimension {ch.dim}")
    out = np.zeros_like(rho, dtype=np.complex128)
    for e in ch.kraus:
        out += e @ rho @ e.conj().T
    return out


@dataclass(frozen=True)
class WeylTable:
    """A Weyl-operator channel on one d-level factor as (shift, mask) pairs.

    `shifts` lists the rows m of pi with non-zero weight and `masks` the
    matching d x d Hadamard masks M_m[a, b] = sum_n pi_{m,n} w^{n (a-b)}.
    """

    d: int
    shifts: tuple[int, ...]
    masks: tuple[np.ndarray, ...] = field(repr=False)


def weyl_table(pi) -> WeylTable:
    """The channel sum_{m,n} pi_{m,n} (Z^n X^m) . (Z^n X^m)^dagger as masks.

    M_m depends on a - b only, through the DFT f_m[k] = sum_n pi_{m,n} w^{n k};
    each mask is a read-only circulant view of 2d - 1 samples of f_m, so a
    full-register table costs O(d) memory per row rather than O(d^2).
    """
    pi = np.maximum(check_probability_table(pi), 0.0)
    d = pi.shape[0]
    shifts = tuple(int(m) for m in np.flatnonzero(pi.any(axis=1)))
    spectra = np.fft.ifft(pi[list(shifts)], axis=1, norm="forward")
    wrap = (np.arange(2 * d - 1) - (d - 1)) % d
    # window[a, j] = f[(a + j - (d - 1)) mod d], so window[a, d - 1 - b] = f[(a - b) mod d]
    masks = tuple(np.lib.stride_tricks.sliding_window_view(f[wrap], d)[:, ::-1]
                  for f in spectra)
    return WeylTable(d=d, shifts=shifts, masks=masks)


def phase_damping_table(d: int, p: float) -> WeylTable:
    """phase_damping(d, p) as a Weyl table: one row, m = 0, of binomial weights."""
    weights = _damping_weights(d, p)
    pi = np.zeros((d, d))
    pi[0] = weights
    return weyl_table(pi)


def apply_weyl_table(rho: np.ndarray, table: WeylTable, dims) -> np.ndarray:
    """An independent copy of the table's channel on every factor of a register
    with factor dimensions `dims` (pass the register dimension alone for one
    register-wide channel).

    Per factor and per shift m: roll that factor's row and column index of the
    density tensor by m, multiply by the mask, and add. O(len(shifts) dim^2)
    per factor, and no Kraus operator is built; agrees with
    apply_channel(rho, embed_channel(weyl_channel(pi), range(len(dims)), dims)).
    """
    if any(size != table.d for size in dims):
        raise ValueError(f"register factors {tuple(dims)} do not all match the channel's {table.d}")
    dim = int(np.prod(dims))
    rho = np.asarray(rho)
    if rho.shape != (dim, dim):
        raise ValueError(f"state shape {rho.shape} does not match register dimension {dim}")
    d = table.d
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


def analytic_favg_2qutrit(p: float) -> float:
    """Printed two-qutrit dephasing profile (1/15)(3 p^2 + |p^2 - 1| + 4 p + 3)."""
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"p must lie in [0, 1], got {p}")
    return (3.0 * p * p + abs(p * p - 1.0) + 4.0 * p + 3.0) / 15.0


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
