"""XY-type qudit chains with engineered couplings.

The chain Hamiltonian couples neighboring sites through every off-diagonal
generator pair:

    H = sum_i (J_i / 2) sum_{1 <= k < j <= d} [ theta^{kj}_i theta^{kj}_{i+1}
                                              + beta^{kj}_i beta^{kj}_{i+1} ]

On one bond theta^{kj} (x) theta^{kj} + beta^{kj} (x) beta^{kj} =
2 (|kj><jk| + |jk><kj|), so the generator sum is twice the swap of the two
sites minus its diagonal sum_a |aa><aa|:

    H = sum_i J_i (SWAP_{i,i+1} - sum_a |aa><aa|_{i,i+1}),

a real matrix with one entry J_i per hop |.. a b ..> -> |.. b a ..>, a != b.
A hop keeps how many sites sit at each level (Christandl et al., PRL 92,
187902 (2004)), so H is block-diagonal over those count vectors, and it is
never built whole. A single excitation of any level hops on the n x n
tridiagonal matrix J with off-diagonals J_i, and the vacuum is annihilated.
With J_i = sqrt(i (N - i)) / 2 that matrix is the angular-momentum J_x, and
the end-to-end transfer amplitude reaches 1 at t = pi independent of N.
Site 1 is the most significant tensor factor: basis index =
sum_s value_s * d^(N - s).

Spectrum evolves a sector ket through its site amplitudes, and a density
matrix through Spectrum.unitary on blocks named by their level counts, one
eigh per partition of n; the sector's needs none past J's, at any n. The
transfer-time search (find_pst_time) scans J's n eigenpairs with a step that
J's spread sets, and refines every local maximum that may sit under the
window's highest peak in one vectorised bisection on the sign of d|A|^2/dt;
the earliest within 1e-12 of the highest wins.
"""

from __future__ import annotations

import math
import numbers
import threading
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from .linalg import inner

MAX_DIM = 4096
# largest phase error, in radians, that exp(-i E t) may carry: about |E t| eps
PHASE_TOL = 1e-6
# find_pst_time refuses a chain whose end-to-end amplitude never exceeds this:
# less than eps of the excitation's weight (its square) ever arrives
PST_FLOOR = math.sqrt(np.finfo(float).eps)
_PHASE_BYTES = 1 << 20     # find_pst_time's phases exp(-i E t) held at once


class ConfigError(ValueError):
    """Invalid configuration; the message begins with the offending field.
    A refusal from protocol.prepare_references lists in `configs` the
    positions of every config it refuses; qsct.cli.main prints any
    ConfigError as `config error: ...` and exits 2."""

    configs: tuple[int, ...] = ()


def _is_number_type(value_type: type, kind: type) -> bool:
    """A Python or numpy type of the numbers ABC kind; bool is no number here."""
    return issubclass(value_type, kind) and not issubclass(value_type, bool)


def as_int(value, field: str, what: str = "an integer") -> int:
    """value as an int; ConfigError naming field unless it is an integer."""
    if not _is_number_type(type(value), numbers.Integral):
        raise ConfigError(f"{field}: expected {what}, got {value!r}")
    return int(value)


def as_real(value, field: str) -> float:
    """value as a float; ConfigError naming field unless it is one finite real."""
    if not _is_number_type(type(value), numbers.Real):
        raise ConfigError(f"{field}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:       # an integer beyond the double range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{field}: expected a finite number, got {value!r}")
    return number


def as_array(value, field: str, dtype=float, what: str = "a list of numbers") -> np.ndarray:
    """value (a nested list or an array) as a float array, or complex for
    dtype=complex; ConfigError naming field unless every entry is a finite
    real (complex) number: no bool, no str, no ragged nesting."""
    kind = numbers.Complex if dtype is complex else numbers.Real
    if isinstance(value, np.ndarray) and value.dtype.kind in ("iufc" if dtype is complex else "iuf"):
        items = value
    else:
        items = np.asarray(value, dtype=object)
        if not all(_is_number_type(t, kind) for t in set(map(type, items.flat))):
            bad = next(x for x in items.flat if not _is_number_type(type(x), kind))
            raise ConfigError(f"{field}: expected {what}, got {bad!r}")
    try:
        array = items.astype(dtype, copy=False)
    except OverflowError:       # an integer beyond the double range
        array = np.array(math.inf)
    if not np.isfinite(array).all():
        bad = array[~np.isfinite(array)][0].item()
        raise ConfigError(f"{field}: expected a finite number, got {bad!r}")
    return array


@dataclass
class ChainSpec:
    """Uniform local dimension d on n sites, plus n-1 nearest-neighbor couplings.

    Refuses (ConfigError, naming the JSON field: chain.d, chain.nodes or
    chain.couplings) anything but integers d, n >= 2 with d**n <= MAX_DIM and
    n-1 finite real couplings.
    """

    d: int
    n: int
    couplings: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.d = as_int(self.d, "chain.d")
        if self.d < 2:
            raise ConfigError(f"chain.d: local dimension must be at least 2, got {self.d}")
        self.n = as_int(self.n, "chain.nodes")
        if self.n < 2:
            raise ConfigError(f"chain.nodes: chain needs at least 2 sites, got {self.n}")
        # d >= 2, so d**n is past MAX_DIM long before n reaches its bit length
        if self.d ** min(self.n, MAX_DIM.bit_length()) > MAX_DIM:
            raise ConfigError(
                f"chain.nodes: register dimension {self.d}**{self.n} exceeds the supported {MAX_DIM}"
            )
        if self.couplings is None:
            self.couplings = default_couplings(self.n)
        else:
            self.couplings = as_array(self.couplings, "chain.couplings")
            if self.couplings.shape != (self.n - 1,):
                raise ConfigError(
                    f"chain.couplings: need {self.n - 1} couplings, got shape {self.couplings.shape}"
                )

    @property
    def dim(self) -> int:
        return self.d ** self.n

    @property
    def dims(self) -> tuple[int, ...]:
        return (self.d,) * self.n


def default_couplings(n: int) -> np.ndarray:
    """Engineered profile J_i = sqrt(i (n - i)) / 2, i = 1..n-1."""
    if n < 2:
        raise ValueError("chain needs at least 2 sites")
    i = np.arange(1, n, dtype=float)
    return np.sqrt(i * (n - i)) / 2.0


def _real_matmul(m: np.ndarray, z: np.ndarray) -> np.ndarray:
    """m @ z for real m and complex z, with z's parts interleaved: m stays real."""
    z = np.ascontiguousarray(z, dtype=np.complex128)
    pairs = z.reshape(z.shape[0], -1).view(np.float64)
    return (m @ pairs).view(np.complex128).reshape((m.shape[0],) + z.shape[1:])


def _block_states(counts: tuple[int, ...]) -> np.ndarray:
    """Digit columns of the states with counts[l] sites at level l, descending."""
    digits, left = np.empty((0, 1), dtype=np.intp), np.array([counts[::-1]])
    for _ in range(sum(counts)):
        prefix, level = np.nonzero(left > 0)
        left = left[prefix] - np.eye(len(counts), dtype=np.intp)[level]
        digits = np.vstack((digits[:, prefix], len(counts) - 1 - level))
    return digits


def _hopping(spec: ChainSpec, digits: np.ndarray) -> np.ndarray:
    """H on the digit columns digits, descending: bond i takes each state
    whose sites i and i+1 differ to the state with the two exchanged, J_i."""
    keys, h = np.ravel_multi_index(digits, spec.dims), np.zeros((digits.shape[1],) * 2)
    for i, coupling in enumerate(spec.couplings):
        hop = np.flatnonzero(digits[i] != digits[i + 1])
        swapped = digits[:, hop]
        swapped[[i, i + 1]] = swapped[[i + 1, i]]
        h[np.searchsorted(-keys, -np.ravel_multi_index(swapped, spec.dims)), hop] = coupling
    return h


class Spectrum:
    """The spectrum of one chain, one level-count block at a time.

    A block is named by its level counts, a partition by its non-zero counts,
    sorted. With a block's levels relabelled (the most occupied 0, ties by
    level) and its states by relabelled register index, descending, all
    blocks of a partition share one real hopping matrix and one eigh
    (unitary); the vacuum's, of (n), is held. An input
    sum_r alpha_r |r> (x) |0...0> stays on the vacuum and the d-1 blocks of
    (n-1, 1), each J in site order, whose eigh (eigvals, eigvecs) is taken
    here: the ket is alpha_0 |vac> + sum_{r,s} alpha_r f_s(t) |r on site s>,
    f(t) = exp(-i J t) e_1 (site_amplitudes). Any other partition is
    diagonalised once, when a unitary first needs it, under a lock, and a
    partition's states (_block_states) are enumerated once, likewise.

    A phase exp(-i E t) is only known to about |E t| eps radians; every time
    is checked against PHASE_TOL on the eigenvalues that evolve it: J's for
    site_amplitudes and find_pst_time (check_time), each block's for unitary.
    """

    def __init__(self, spec: ChainSpec):
        self.spec = spec
        j = np.diag(spec.couplings, 1)
        self.eigvals, self.eigvecs = np.linalg.eigh(j + j.T)
        self._blocks = {(spec.n,): (np.zeros(1), np.ones((1, 1))),  # each partition's
                        (spec.n - 1, 1): (self.eigvals, self.eigvecs)}  # eigh: vacuum, J
        self._states = {}       # each partition's digit columns, once a unitary needs them
        self._lock = threading.Lock()

    def _describe(self) -> str:
        """The chain as a refusal names it; built only when a check raises."""
        spec = self.spec
        return f"d={spec.d}, nodes={spec.n}, couplings={spec.couplings.tolist()}"

    def _check(self, t: float, eigvals: np.ndarray) -> None:
        error = float(np.max(np.abs(eigvals))) * np.finfo(float).eps * abs(t)
        if not (error <= PHASE_TOL):
            raise FloatingPointError(
                f"transfer phases exp(-i E t) lose their precision at t = {t!r} "
                f"(max|E| t eps = {error:.3e} rad > {PHASE_TOL:g}) "
                f"for the chain {self._describe()}"
            )

    def check_time(self, t: float) -> None:
        """Raise FloatingPointError naming the chain when the sector phases at
        time t carry more than PHASE_TOL radians of rounding error (or overflow)."""
        self._check(t, self.eigvals)

    def site_amplitudes(self, t: float | np.ndarray) -> np.ndarray:
        """f(t) = exp(-i J t) e_1: the amplitude on each site of an excitation
        that starts on site 1, the same for every level; e_1 exactly at t = 0.
        Times t (...) give f (..., n), each as for its time alone."""
        t = np.asarray(t, dtype=float)
        if np.any(t != 0.0):
            self.check_time(float(np.max(np.abs(t))))  # the error grows with |t|
        phases = np.exp(-1j * t[..., None] * self.eigvals) * self.eigvecs[0]
        f = (self.eigvecs @ phases[..., None])[..., 0]
        f[t == 0.0] = np.eye(1, self.spec.n)
        return f

    def unitary(self, t: float, counts: np.ndarray | None = None) -> np.ndarray:
        """exp(-i t H) on the blocks whose level counts are the rows of counts
        (B, d), in their order, each in the class's state order, or on the
        whole register in register order; the identity at t = 0. Each block is
        V exp(-i E t) V^T from its partition's eigh. ValueError naming counts
        unless each row is d non-negative integers summing to n."""
        spec, d, n, whole = self.spec, self.spec.d, self.spec.n, counts is None
        counts = (np.eye(d, dtype=int)[list(combinations_with_replacement(range(d), n))].sum(1)
                  if whole else np.asarray(counts))     # whole: each block, by its digits sorted
        if not (counts.dtype.kind in "iu" and counts.ndim == 2 and counts.shape[1] == d
                and np.all(counts >= 0) and np.all(counts.sum(1) == n)):
            raise ValueError(f"counts: expected rows of {d} non-negative integers summing to {n}")
        # each block's levels, the most occupied first (at most n occupied), and its partition
        order = np.argsort(-counts.astype(np.int64), axis=1, kind="stable")[:, :n]
        keys = [tuple(filter(None, row)) for row in np.take_along_axis(counts, order, 1).tolist()]
        start = np.cumsum([0] + [math.factorial(n) // math.prod(map(math.factorial, key))
                                 for key in keys])
        size = spec.dim if whole else int(start[-1])
        if t == 0.0:
            return np.eye(size, dtype=np.complex128)
        u = np.zeros((size, size), dtype=np.complex128)
        for key in dict.fromkeys(keys):
            rows = [i for i, other in enumerate(keys) if other == key]
            with self._lock:    # each partition's states and eigh, once per Spectrum
                if (whole or key not in self._blocks) and key not in self._states:
                    self._states[key] = _block_states(key)
                if key not in self._blocks:
                    self._blocks[key] = np.linalg.eigh(_hopping(spec, self._states[key]))
                eigvals, eigvecs = self._blocks[key]
            self._check(t, eigvals)
            # the register index of each state, its levels restored, or its place
            at = (d ** np.arange(n - 1, -1, -1) @ order[rows][:, self._states[key]] if whole
                  else start[rows, None] + np.arange(eigvals.size))
            phases = np.exp(-1j * t * eigvals)[:, None] * eigvecs.T
            u[at[:, :, None], at[:, None, :]] = _real_matmul(eigvecs, phases)
        return u


def find_pst_time(spectrum: Spectrum, t_max: float = 2.0 * math.pi) -> tuple[float, float]:
    """Locate the time maximizing the modulus of the chain's end-to-end
    transfer amplitude <e_N| exp(-i J t) |e_1>, every excited level's, from
    the n eigenpairs of spectrum; nothing is diagonalised here.

    One uniform scan of [0, t_max] picks the candidate peaks, and one
    bisection on the sign of d|A|^2/dt refines all of them at once. The scan
    takes 1999 m steps of h / m, with h = t_max / 1999, spread = max E - min E
    and m = ceil(spread h) or 1, so that spread h / m <= 1: m = 1 on windows
    up to 1999 / spread.
    A scan value may sit up to (spread h / m)^2 / 32 below the peak it
    samples, so every local maximum of the scan within that slack of the
    best value is a candidate, earlier or later, and so is the earliest
    sample within 1e-12 of the best. The transfer time is the earliest
    refined peak within 1e-12 of the highest: the first revival, as in
    perfect transfer's definition. Returns (t_star, amplitude).
    Raises FloatingPointError when the phases exp(-i lambda t) lose their precision
    on the window (Spectrum.check_time), and then ValueError naming t_max and
    the chain when the window is longer than 1999 periods 2 pi / spread of
    the amplitude's fastest component, the widest the search scans (m <= 7).
    Raises ValueError naming the chain and the window when the scan's largest
    modulus is at most PST_FLOOR: a chain that never transfers (a broken
    link, or one so weak that less than eps of the weight arrives) has no
    transfer time.
    """
    if not (0.0 < t_max < math.inf):
        raise ValueError(f"t_max must be positive and finite, got {t_max!r}")
    spectrum.check_time(t_max)
    spread = float(spectrum.eigvals[-1] - spectrum.eigvals[0])
    if t_max * spread > 2.0 * math.pi * 1999:
        raise ValueError(
            f"t_max = {t_max!r} exceeds the widest window the transfer-time search "
            f"scans for the chain {spectrum._describe()}: 1999 periods of its fastest "
            f"component, 1999 * 2 pi / (max E - min E) = {2.0 * math.pi * 1999 / spread:.6g}"
        )
    weights = spectrum.eigvecs[-1] * spectrum.eigvecs[0]
    rows = max(1, _PHASE_BYTES // (16 * spectrum.eigvals.size))

    def amplitude(t: np.ndarray, w: np.ndarray = weights) -> np.ndarray:
        """sum_k w[..., k] exp(-i E_k t) at each time of t, each as for it alone."""
        out = np.empty(w.shape[:-1] + t.shape, dtype=np.complex128)
        for i in range(0, t.size, rows):
            phases = np.exp(-1j * np.multiply.outer(t[i:i + rows], spectrum.eigvals))
            out[..., i:i + rows] = inner(w[..., None, :], phases)
        return out

    # under 2 pi samples per period of the fastest component, the sample
    # nearest the highest peak can sit below a neighbour on the next hill and
    # be no local maximum (seen for spread h from ~3.9 to 2 pi); the step
    # h / m, spread h / m <= 1, keeps it one
    h = t_max / 1999
    m = max(1, math.ceil(spread * h))
    ts = np.linspace(0.0, t_max, 1999 * m + 1)
    vals = np.abs(amplitude(ts))     # |<e_N| exp(-i J t) |e_1>|
    top = vals.max()
    if top <= PST_FLOOR:
        raise ValueError(
            f"the transfer amplitude of the chain {spectrum._describe()} stays within "
            f"{PST_FLOOR:.3g} of 0 on the scanned window [0, {t_max!r}]: the chain does "
            f"not transfer"
        )
    # |d^2/dt^2| <= (spread / 2)^2 once a global phase is removed, as the
    # weights' moduli sum to at most 1: the sample nearest a peak, h / 2m from
    # it at most, sits at most the slack below it
    slack = (spread * h) ** 2 / 32.0 / m**2
    # the candidates: every local maximum of the scan within the slack of its
    # best value, and the earliest sample within 1e-12 of that value. A local
    # maximum's bracket [t_{i-1}, t_{i+1}] holds the peak its sample sits
    # under: the climb from t_i to that peak rises all the way, so it cannot
    # pass a neighbour that samples no higher than t_i.
    peaks = vals >= top - slack
    peaks[1:] &= vals[1:] >= vals[:-1]
    peaks[:-1] &= vals[:-1] >= vals[1:]
    peaks[np.argmax(vals >= top - 1e-12)] = True
    i = np.flatnonzero(peaks)
    a, b = ts[np.maximum(i - 1, 0)], ts[np.minimum(i + 1, ts.size - 1)]
    del ts, vals, peaks, i      # the scan: only its brackets are refined
    # one bisection refines every bracket to a few ulps of its end on the sign
    # of d|A|^2/dt, which stays resolved where moduli differ by less than eps
    # near a peak; a bracket whose slope keeps one sign closes on its higher end
    pair = np.stack((weights, weights * spectrum.eigvals))     # A and i A'
    while (live := b - a > 4.0 * np.spacing(b)).any():
        mid = 0.5 * (a + b)
        at, rate = amplitude(mid, pair)
        rising = (at.conj() * rate).imag > 0.0      # Re(conj(A) A')
        a, b = np.where(live & rising, mid, a), np.where(live & ~rising, mid, b)
    t = 0.5 * (a + b)
    value = np.abs(amplitude(t))
    # the earliest refined peak within 1e-12 of the highest: the first revival
    first = np.argmax(value >= value.max() - 1e-12)
    return float(t[first]), float(value[first])
