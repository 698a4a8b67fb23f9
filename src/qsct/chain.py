"""XY-type qudit chains with engineered couplings.

The chain Hamiltonian couples neighboring sites through every off-diagonal
generator pair:

    H = sum_i (J_i / 2) sum_{1 <= k < j <= d} [ theta^{kj}_i theta^{kj}_{i+1}
                                              + beta^{kj}_i beta^{kj}_{i+1} ]

On one bond theta^{kj} (x) theta^{kj} + beta^{kj} (x) beta^{kj} =
2 (|kj><jk| + |jk><kj|), so the generator sum is twice the swap of the two
sites minus its diagonal sum_a |aa><aa|:

    H = sum_i J_i (SWAP_{i,i+1} - sum_a |aa><aa|_{i,i+1}),

a real matrix with one entry J_i per hop |.. a b ..> -> |.. b a ..>, a != b;
build_hamiltonian assembles it in that form. A single excitation of any
level hops on the n x n tridiagonal matrix J with off-diagonals J_i, the
same for every level, and the vacuum is annihilated.
With J_i = sqrt(i (N - i)) / 2 that matrix is the angular-momentum J_x, and
the end-to-end transfer amplitude reaches 1 at t = pi independent of N.
Site 1 is the most significant tensor factor: basis index =
sum_s value_s * d^(N - s).

Spectrum diagonalises J and evolves every state of the single-excitation
sector through its site amplitudes; the transfer-time search scans the same
n eigenpairs. The dense register Hamiltonian (build_hamiltonian) is
diagonalised only for a register evolution (Spectrum.unitary, evolve).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .generators import eta

MAX_DIM = 4096
# largest phase error, in radians, that exp(-i E t) may carry: about |E t| eps
PHASE_TOL = 1e-6


class ConfigError(ValueError):
    """Invalid configuration; the message begins with the offending field."""


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


def basis_index(values: list[int], d: int) -> int:
    """Register basis index of per-site level values, site 1 most significant."""
    idx = 0
    for v in values:
        idx = idx * d + v
    return idx


def excitation_index(spec: ChainSpec, site: int, level: int) -> int:
    """Index of the state with one site at `level` and every other site at 0 (1-based site)."""
    if not (1 <= site <= spec.n):
        raise ValueError(f"site must lie in 1..{spec.n}, got {site}")
    if not (1 <= level <= spec.d - 1):
        raise ValueError(f"level must lie in 1..{spec.d - 1}, got {level}")
    values = [0] * spec.n
    values[site - 1] = level
    return basis_index(values, spec.d)


def _real_matmul(m: np.ndarray, z: np.ndarray) -> np.ndarray:
    """m @ z for real m and complex z, without promoting m to complex.

    The real and imaginary parts of z are interleaved as twice the columns of
    one real product, so no complex copy of the (register-sized) m is made.
    """
    z = np.ascontiguousarray(z, dtype=np.complex128)
    pairs = z.reshape(z.shape[0], -1).view(np.float64)
    return (m @ pairs).view(np.complex128).reshape((m.shape[0],) + z.shape[1:])


class Spectrum:
    """The spectrum of one chain: the single-excitation problem, and the
    register Hamiltonian on demand.

    An input sum_r alpha_r |r> (x) |0...0> never leaves span{vac} (+) the d-1
    single-excitation copies, one per excited level r with the excitation on
    site s = 1..n. H annihilates the vacuum and acts on every copy as the
    same real symmetric tridiagonal n x n matrix J with off-diagonals
    spec.couplings. One eigh of J (eigvals, eigvecs) therefore gives every
    pure state of a run through the site amplitudes f(t) = exp(-i J t) e_1:
    the register ket is alpha_0 |vac> + sum_{r,s} alpha_r f_s(t) |r on site s>.

    The dense d^n x d^n register Hamiltonian is assembled and diagonalised
    only when a register evolution is asked for (unitary, evolve), at most
    once per Spectrum; a run asks for it only to step a density matrix under
    interleaved noise. Build one Spectrum per experiment and pass it along;
    nothing caches it beyond that.

    A phase exp(-i E t) is only known to about |E t| eps radians; every time
    is checked against PHASE_TOL on the eigenvalues that evolve it: the
    sector's for site_amplitudes and the transfer-time search (check_time),
    the register's for unitary and evolve.
    """

    def __init__(self, spec: ChainSpec):
        self.spec = spec
        j = np.diag(spec.couplings, 1)
        self.eigvals, self.eigvecs = np.linalg.eigh(j + j.T)
        self._register: tuple[np.ndarray, np.ndarray] | None = None
        self._chain = f"d={spec.d}, nodes={spec.n}, couplings={spec.couplings.tolist()}"

    def _check(self, t: float, eigvals: np.ndarray) -> None:
        error = float(np.max(np.abs(eigvals))) * np.finfo(float).eps * abs(t)
        if not (error <= PHASE_TOL):
            raise FloatingPointError(
                f"transfer phases exp(-i E t) lose their precision at t = {t!r} "
                f"(max|E| t eps = {error:.3e} rad > {PHASE_TOL:g}) "
                f"for the chain {self._chain}"
            )

    def check_time(self, t: float) -> None:
        """Raise FloatingPointError naming the chain when the sector phases at
        time t carry more than PHASE_TOL radians of rounding error (or overflow)."""
        self._check(t, self.eigvals)

    def site_amplitudes(self, t: float) -> np.ndarray:
        """f(t) = exp(-i J t) e_1: the amplitude on each site of an excitation
        that starts on site 1, the same for every level; e_1 exactly at t = 0."""
        if t == 0.0:
            f = np.zeros(self.spec.n, dtype=np.complex128)
            f[0] = 1.0
            return f
        self.check_time(t)
        return self.eigvecs @ (np.exp(-1j * t * self.eigvals) * self.eigvecs[0])

    def _register_phases(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """(exp(-i E t), eigenvectors) of the register Hamiltonian, which is
        assembled and diagonalised on the first call."""
        if self._register is None:
            self._register = np.linalg.eigh(build_hamiltonian(self.spec))
        eigvals, eigvecs = self._register
        self._check(t, eigvals)
        return np.exp(-1j * t * eigvals), eigvecs

    def evolve(self, ket: np.ndarray, t: float) -> np.ndarray:
        """exp(-i t H) ket for any register ket; at t = 0 the ket itself, exactly."""
        ket = np.asarray(ket, dtype=np.complex128)
        if t == 0.0:
            return ket.copy()
        phases, eigvecs = self._register_phases(t)
        return _real_matmul(eigvecs, phases * _real_matmul(eigvecs.T, ket))

    def unitary(self, t: float) -> np.ndarray:
        """exp(-i t H) on the register, as a dense matrix."""
        phases, eigvecs = self._register_phases(t)
        return _real_matmul(eigvecs, phases[:, None] * eigvecs.T)


class _TransferAmplitudes:
    """End-to-end transfer amplitude <e_N| exp(-i J t) |e_1> of one chain.

    Every excited level hops on the same J, so this one amplitude is every
    level's.
    """

    def __init__(self, spec: ChainSpec, spectrum: Spectrum | None = None):
        if spectrum is None:
            spectrum = Spectrum(spec)
        self.eigvals = spectrum.eigvals
        self.weights = spectrum.eigvecs[-1] * spectrum.eigvecs[0]

    def amplitude(self, t: np.ndarray | float) -> np.ndarray:
        """<e_N | U_t | e_1>, complex; the shape of t."""
        phases = np.exp(-1j * np.multiply.outer(self.eigvals, np.asarray(t, dtype=float)))
        return np.tensordot(self.weights, phases, axes=(0, 0))


def find_pst_time(
    spec: ChainSpec,
    t_max: float = 2.0 * math.pi,
    grid_points: int = 2000,
    tol: float = 1e-10,
    spectrum: Spectrum | None = None,
) -> tuple[float, float]:
    """Locate the time maximizing the modulus of the transfer amplitude.

    Coarse scan over [0, t_max] followed by golden-section refinement of the
    best bracket; ties resolve to the earliest time. Returns (t_star, amplitude).
    Pass the chain's spectrum when the caller already has one. Raises
    FloatingPointError when the phases exp(-i lambda t) lose their precision
    on the window (Spectrum.check_time), and then ValueError naming t_max when
    the scan step t_max / (grid_points - 1) exceeds 2 pi / (max E - min E),
    the period of the amplitude's fastest component: such a scan aliases and
    could bracket any near-perfect revival in the window.
    """
    if not (0.0 < t_max < math.inf):
        raise ValueError("t_max must be positive and finite")
    if grid_points < 3:
        raise ValueError("grid needs at least 3 points")
    if spectrum is None:
        spectrum = Spectrum(spec)
    spectrum.check_time(t_max)
    spread = float(spectrum.eigvals[-1] - spectrum.eigvals[0])
    if t_max * spread > 2.0 * math.pi * (grid_points - 1):
        raise ValueError(
            f"t_max = {t_max!r} is too wide for {grid_points} scan points: the step "
            f"{t_max / (grid_points - 1):.6g} exceeds 2 pi / (max E - min E) = "
            f"{2.0 * math.pi / spread:.6g} for the chain {spectrum._chain}, so the scan "
            f"would alias; the widest window it resolves is "
            f"{2.0 * math.pi * (grid_points - 1) / spread:.6g}"
        )
    amps = _TransferAmplitudes(spec, spectrum)
    ts = np.linspace(0.0, t_max, grid_points)
    vals = np.abs(amps.amplitude(ts))
    best = int(np.argmax(vals))
    # earliest index within 1e-12 of the maximum
    near = np.nonzero(vals >= vals[best] - 1e-12)[0]
    best = int(near[0])
    lo = ts[max(best - 1, 0)]
    hi = ts[min(best + 1, grid_points - 1)]
    t_star = _golden_max(lambda t: float(abs(amps.amplitude(t))), lo, hi, tol)
    return t_star, float(abs(amps.amplitude(t_star)))


def _golden_max(f, lo: float, hi: float, tol: float) -> float:
    """Golden-section maximization on a bracket; returns the midpoint at tol width.

    The width never goes below a few ulps of the bracket's end, where it
    could no longer shrink.
    """
    tol = max(tol, 4.0 * math.ulp(max(abs(lo), abs(hi))))
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)
