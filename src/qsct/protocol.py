"""State-transfer experiments: stepwise evolution, noise, and invariants.

An experiment prepares (sum_i alpha_i |i>) (x) |0...0>, evolves it in equal
time steps, and records entanglement and transfer figures after every step.
The input never leaves the single-excitation sector, so a pure state is the
site amplitudes f(t) = exp(-i J t) e_1 of chain.Spectrum (n numbers): its
sector ket holds alpha_0 on the vacuum and alpha_r f_s on level r of site s
(PreparedReference.sector_ket). One routine, PreparedReference.measure,
takes every record, from a stack of states along a leading axis: sector
kets, sector density matrices or register density matrices. Each partial
trace, measure and decomposition (a stacked SVD) is one call for the whole
stack, and a single record is a stack of one. A density matrix within
entanglement._PURE_TOL of pure (at t = 0, at perfect transfer, under a Weyl
table with all its weight on one operator) takes its level from its ket,
found as rho times its column at its largest diagonal entry, one stacked
matmul: the run path's only eighs are Spectrum's, of the real J and the
real hopping matrices of the register's level-count blocks. A run evolves
its states into a preallocated stack of at most _STACK_BYTES and measures
it when it fills and after the last step; every record is the same bit for
bit whatever stack it is measured in. Of a sector state:

    endpoint pair - the sector partial trace onto the pair's (2d-1)-state
                    sector basis (vac, level r on site 1, level r on site N),
                    measured by entanglement.sector_measures; on two sites the
                    pair is the whole register, measured as cut 1
    chain cut c   - entanglement.sector_measures of the whole state: a ket in
                    closed form from its weights q_A and q_B on the two
                    sides and its norm N (ccnr 1 + c, margin c, concurrence
                    c, with c = 2 sqrt(q_A q_B) / N), a density matrix by
                    its compressed realigned matrices
    last node     - the sector partial trace onto vac, level r on site N

A traced excitation leaves only its weight, on the kept vacuum's diagonal,
so a ket and its density matrix have bit-identical reduced states.

A configuration's noiseless twin (the same chain, amplitudes, steps, t_total
and cut, without the noise) is one PreparedReference: the chain's Spectrum,
t_total resolved, the cut, and the reference records it measures from the
sector ket when it is built, the input divided by its norm first.
prepare_references diagonalises each distinct chain once, searches its
transfer time at most once, and builds each distinct twin once, so the
points of a sweep that share a twin share that work (a single config is a
sweep of one point). Records are frozen and a twin is never changed, so
run_experiment hands out the twin's own records, never copies. A noisy
config takes the reference's records up to its first channel application,
forms a density matrix from the ket there and carries it on, acted on by a
Weyl-table channel (channels.WeylTable; no Kraus operators are built) whose
placement is one of three layouts:

    global_after  - one full-register channel after the complete evolution
                    (the single-qudit channel family taken at dimension d^N)
    local_after   - independent per-site channels after the complete evolution
    interleaved   - per step: the unitary, then the per-site channels

The noise picks the engine that carries rho (engine(config)); either way
rho steps under Spectrum.unitary on the level-count blocks it is written on.
A table with no shift, m = 0 its only weighted row (every phase-damping
table), only multiplies rho[a, b] by its mask, so the state never leaves
the sector: rho is (1+(d-1)n)^2 on the sector's blocks
(PreparedReference.blocks), takes the mask at its states (sector_mask), and
is measured as above. A table with shifts moves excitations between levels,
and so creates new ones: the sector rho is scattered into the register at
its states' register indices (PreparedReference.register_index), rho is
d^n x d^n, takes channels.apply_weyl_table and is measured on the register
by entanglement.register_measures of the stack, and linalg.partial_trace.

Every record carries a gamma flag: the concurrence-style entanglement level
is compared step by step against the noiseless profile of the same
configuration, within an absolute tolerance, and set once, when measure
builds the record. measure also refuses a record with a non-finite float
field: FloatingPointError("non-finite value in step k"). A noiseless run is
its own reference, so every one of its flags is set; lost entanglement under
noise shows up as gamma violations rather than silent drift.

fidelity_to_input compares the last node against the phase-aligned input:
perfect transfer delivers the excited levels with a known level-independent
phase (the end-to-end transfer amplitude's argument), which a receiving node
can always undo with a local phase gate, so the record aligns it away.

The conformance report, which sets the printed closed forms beside a
twin's sector kets and the average fidelity of a Weyl table beside the
register unitary, is qsct.conformance; `qsct run` never imports it.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .chain import (
    ChainSpec,
    ConfigError,
    Spectrum,
    as_array,
    as_int,
    as_real,
    find_pst_time,
)
from .channels import (
    WeylTable,
    apply_weyl_table,
    check_probability_table,
    phase_damping_table,
    weyl_table,
)
from .entanglement import register_measures, sector_measures
from .linalg import Bipartition, SectorCut, inner, partial_trace, sector_partial_trace

NOISE_KINDS = ("phase_damping", "weyl")
NOISE_TOPOLOGIES = ("global_after", "local_after", "interleaved")


@dataclass
class NoiseSpec:
    """Noise kind and placement. Phase damping reads the strength p in [0, 1]
    and Weyl noise the probability table pi; a field the kind does not read
    is refused rather than ignored. Every failed check raises ConfigError,
    naming the JSON field (noise.kind, noise.topology, noise.p, noise.pi)."""

    kind: str
    topology: str
    p: float | None = None
    pi: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.kind not in NOISE_KINDS:
            raise ConfigError(f"noise.kind: expected one of {NOISE_KINDS}, got {self.kind!r}")
        if self.topology not in NOISE_TOPOLOGIES:
            raise ConfigError(
                f"noise.topology: expected one of {NOISE_TOPOLOGIES}, got {self.topology!r}"
            )
        read, unread = ("p", "pi") if self.kind == "phase_damping" else ("pi", "p")
        if getattr(self, read) is None:
            raise ConfigError(f"noise.{read}: required for {self.kind} noise")
        if getattr(self, unread) is not None:
            raise ConfigError(f"noise.{unread}: not read by {self.kind} noise, leave it out")
        if self.kind == "phase_damping":
            self.p = as_real(self.p, "noise.p")
            if not (0.0 <= self.p <= 1.0):
                raise ConfigError(f"noise.p: expected a strength in [0, 1], got {self.p}")
        else:
            self.pi = check_probability_table(self.pi, name="noise.pi")


@dataclass
class ExperimentConfig:
    """One experiment. Every failed check raises ConfigError, naming the JSON
    field (input_amplitudes, steps, t_total, bipartition, gamma_tolerance,
    seed, or noise.pi for a table of the wrong size); the chain and the noise
    check their own fields, and a chain or noise that is not a ChainSpec or
    NoiseSpec is refused naming chain or noise."""

    chain: ChainSpec
    input_amplitudes: np.ndarray
    steps: int = 16
    t_total: float | None = None
    noise: NoiseSpec | None = None
    bipartition: int | str = 1
    gamma_tolerance: float = 1e-3
    seed: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.chain, ChainSpec):
            raise ConfigError(f"chain: expected a ChainSpec, got {self.chain!r}")
        if self.noise is not None and not isinstance(self.noise, NoiseSpec):
            raise ConfigError(f"noise: expected a NoiseSpec or None, got {self.noise!r}")
        d, n = self.chain.d, self.chain.n
        self.input_amplitudes = as_array(self.input_amplitudes, "input_amplitudes", dtype=complex)
        if self.input_amplitudes.shape != (d,):
            raise ConfigError(
                f"input_amplitudes: expected {d} amplitudes, got shape {self.input_amplitudes.shape}"
            )
        norm = float(np.linalg.norm(self.input_amplitudes))
        if abs(norm - 1.0) > 1e-10:
            raise ConfigError(
                f"input_amplitudes: not normalized (norm deviates by {abs(norm - 1.0):.3e})"
            )
        self.steps = as_int(self.steps, "steps")
        if self.steps < 1:
            raise ConfigError(f"steps: expected a positive integer, got {self.steps}")
        if self.t_total is not None:
            self.t_total = as_real(self.t_total, "t_total")
            if self.t_total <= 0.0:
                raise ConfigError(f"t_total: expected a positive number, got {self.t_total}")
        if not (isinstance(self.bipartition, str) and self.bipartition == "endpoints"):
            self.bipartition = as_int(self.bipartition, "bipartition",
                                      what="a cut index or 'endpoints'")
            if not (1 <= self.bipartition <= n - 1):
                raise ConfigError(f"bipartition: cut must lie in 1..{n - 1}, got {self.bipartition}")
        self.gamma_tolerance = as_real(self.gamma_tolerance, "gamma_tolerance")
        if self.gamma_tolerance <= 0.0:
            raise ConfigError(f"gamma_tolerance: expected a positive number, got {self.gamma_tolerance}")
        if self.noise is not None and self.noise.kind == "weyl":
            size = self.chain.dim if self.noise.topology == "global_after" else d
            if self.noise.pi.shape != (size, size):
                raise ConfigError(
                    f"noise.pi: expected {size}x{size} for {self.noise.topology} weyl noise "
                    f"on {n} sites of dimension {d}, got {self.noise.pi.shape}"
                )
        self.seed = as_int(self.seed, "seed")


@dataclass(frozen=True)
class TransferRecord:
    step: int
    time: float
    ccnr: float
    ccnr_amplified_margin: float
    concurrence: float
    transfer_probability: float
    fidelity_to_input: float
    gamma_ok: bool = True


# A run measures its states in stacks of at most this many bytes, taking
# each measure once per stack; a longer run is measured in chunks, and a
# register rho past the budget (268 MB at d^n = 4096) one at a time.
_STACK_BYTES = 1 << 17


class PreparedReference:
    """A configuration's noiseless twin: the chain's Spectrum, t_total
    resolved, the cut and its measures, and the reference records, which it
    measures once when it is built. Its attributes are set here and never
    changed, and its records are frozen, so every run of the twin shares
    them: run_experiment hands out the twin's own record objects.

    pst is find_pst_time's (t_star, amplitude) on the chain, read only when
    the config leaves t_total open: t_total is then t_star and pst_amplitude
    the amplitude's modulus there, None when the config gives t_total. The
    sector basis is the vacuum (level 0, site -1), then level r on site s at
    1 + (r-1) n + s (level-major, 0-based sites); level and site hold that
    layout. The sector cuts that measure hold only their two sides, O(n)
    indices each, built here once. A spectrum of another chain (another d,
    n or couplings) raises ValueError naming spectrum, as run_experiment
    refuses a twin of another configuration.
    """

    def __init__(self, config: ExperimentConfig, spectrum: Spectrum,
                 pst: tuple[float, float] | None = None):
        if _chain_key(spectrum.spec) != _chain_key(config.chain):
            raise ValueError("spectrum: the spectrum of another chain")
        self.key = _twin_key(config)
        self.spec = config.chain
        self.spectrum = spectrum
        self.t_total, self.pst_amplitude = (pst if config.t_total is None
                                            else (config.t_total, None))
        self.dt = float(self.t_total) / config.steps
        # the config accepts a norm off by up to 1e-10; every record reads
        # the normalized input (x / 1.0 == x: a norm of exactly 1 keeps it)
        self.alpha = config.input_amplitudes / np.linalg.norm(config.input_amplitudes)
        d, n = self.spec.d, self.spec.n
        self.size = 1 + (d - 1) * n
        # on two sites the endpoint pair is the whole register: cut 1
        self.cut = 1 if config.bipartition == "endpoints" and n == 2 else config.bipartition
        self.part = (Bipartition(d, d) if self.cut == "endpoints"
                     else Bipartition(d**self.cut, d ** (n - self.cut)))
        self.excited_weight = float(np.sum(np.abs(self.alpha[1:]) ** 2))
        self.level = np.r_[0, np.repeat(np.arange(1, d), n)]
        self.site = np.r_[-1, np.tile(np.arange(n), d - 1)]

        def on(lo: int, hi: int) -> np.ndarray:
            """Sector indices of the excitations on sites lo..hi-1, level-major."""
            return np.flatnonzero((lo <= self.site) & (self.site < hi))

        # the last node's sector basis vac, level r on site N is its |0>, |r>
        self.last_node = SectorCut(on(n - 1, n), on(0, n - 1))
        if self.cut == "endpoints":
            # the pair's sector basis: vac, level r on site 1, level r on site N
            self.pair = SectorCut(np.concatenate((on(0, 1), on(n - 1, n))), on(1, n - 1))
            self.sides = SectorCut(np.arange(1, d), np.arange(d, 2 * d - 1))
        else:
            self.sides = SectorCut(on(0, self.cut), on(self.cut, n))
        chunk, records = self.stack_size((self.size,)), []
        for first in range(0, config.steps + 1, chunk):
            steps = np.arange(first, min(first + chunk, config.steps + 1))
            records += self.measure(first, self.sector_ket(steps * self.dt))
        self.records = tuple(records)

    @property
    def blocks(self) -> np.ndarray:
        """The level counts of the sector's blocks, in the sector basis's order."""
        return np.eye(self.spec.d, dtype=int) + (self.spec.n - 1) * np.eye(1, self.spec.d, dtype=int)

    @property
    def register_index(self) -> np.ndarray:
        """The sector states' register indices r d^(n-1-s), 0 for the vacuum,
        formed when asked for: only a register-wide mask and the dense engine
        read them."""
        return self.level * self.spec.d ** (self.spec.n - 1 - self.site)

    def stack_size(self, shape: tuple[int, ...]) -> int:
        """How many complex states of this shape one measured stack holds."""
        return max(1, _STACK_BYTES // (16 * math.prod(shape)))

    def sector_ket(self, t: float | np.ndarray) -> np.ndarray:
        """Noiseless ket at time t on the sector basis: alpha_0 on the vacuum,
        then alpha_r f_s(t) on level r of site s; an array of times gives a
        stack of kets."""
        f = self.spectrum.site_amplitudes(t)
        ket = np.empty((*f.shape[:-1], self.size), dtype=np.complex128)
        ket[..., 0] = self.alpha[0]
        ket[..., 1:] = (self.alpha[1:, None] * f[..., None, :]).reshape(*f.shape[:-1], -1)
        return ket

    def sector_mask(self, table: WeylTable, dims: tuple[int, ...]) -> np.ndarray:
        """The factor by which a shift-free table's channel on the register
        factors `dims` multiplies each entry of a sector density matrix: the
        mask at the two states' register indices, M_D[a, b] for one
        register-wide factor, else prod_s M[a_s, b_s], in which a site that
        neither state excites contributes M[0, 0]."""
        mask, level, site, n = table.masks[0], self.level, self.site, self.spec.n
        if len(dims) == 1:
            index = self.register_index
            return mask[np.ix_(index, index)]
        rest = mask[0, 0]
        return np.where(site[:, None] == site[None, :],
                        mask[np.ix_(level, level)] * rest ** (n - 1),
                        np.outer(mask[level, 0], mask[0, level]) * rest ** (n - 2))

    def measure(self, first: int, states: np.ndarray,
                gamma_tolerance: float | None = None) -> list[TransferRecord]:
        """Records of a stack of states at steps first, first + 1, ...: sector
        kets (K, m), sector density matrices (K, m, m) or register density
        matrices (K, d^n, d^n). Each partial trace, measure and decomposition
        is one call for the whole stack. Given gamma_tolerance, each gamma
        flag compares the record's entanglement level with the reference
        record's at its step; without it (the reference itself) it is set.
        A NaN or inf in any float column raises FloatingPointError naming
        the first such step, so no record leaves here non-finite."""
        kets = states.ndim == 2
        if states.shape[-1] == self.size:
            if self.cut == "endpoints":
                values = sector_measures(sector_partial_trace(states, self.pair, kets=kets),
                                         self.sides)
            else:
                values = sector_measures(states, self.sides, kets=kets)
            last = sector_partial_trace(states, self.last_node, kets=kets)
        else:
            dims, end = self.spec.dims, self.spec.n - 1
            pair = partial_trace(states, dims, keep=[0, end]) if self.cut == "endpoints" else states
            values = register_measures(pair, self.part)
            last = partial_trace(states, dims, keep=[end])
        steps = np.arange(first, first + len(states))
        times = steps * self.dt
        if self.excited_weight > 1e-15:
            arrived = last.diagonal(axis1=1, axis2=2).real[:, 1:].sum(-1)
            transfer = arrived / self.excited_weight
        else:
            transfer = np.zeros(len(states))
        # the input with its excited levels rotated by the transfer phase
        phase = np.angle(self.spectrum.site_amplitudes(times)[:, -1])
        chi = np.tile(self.alpha, (len(states), 1))
        chi[:, 1:] *= np.exp(1j * phase)[:, None]
        fidelity = inner((chi.conj()[:, None, :] @ last)[:, 0], chi).real
        floats = np.stack((times, *values, transfer, fidelity))
        finite = np.isfinite(floats).all(0)
        if not finite.all():
            raise FloatingPointError(f"non-finite value in step {steps[np.argmin(finite)]}")
        columns = (steps, *floats)
        if gamma_tolerance is not None:
            reference = [r.concurrence for r in self.records[first:first + len(states)]]
            columns += (np.abs(values[2] - reference) <= gamma_tolerance,)
        return [TransferRecord(*row) for row in zip(*(np.asarray(c).tolist() for c in columns))]


def _noise_channel(config: ExperimentConfig) -> tuple[WeylTable, tuple[int, ...]]:
    """The configured noise as a Weyl table, and the register factors it acts
    on: every site, or for global_after the whole register as one factor."""
    noise, spec = config.noise, config.chain
    dims = (spec.dim,) if noise.topology == "global_after" else spec.dims
    if noise.kind == "phase_damping":
        return phase_damping_table(dims[0], float(noise.p)), dims
    return weyl_table(noise.pi), dims


def engine(config: ExperimentConfig) -> str:
    """The engine that carries a run's state, read from the config alone:
    "sector" for a noiseless run, phase damping, or a Weyl table with no
    weight (above weyl_table's clip at 0) off its row m = 0, that is with no
    shift; "dense" (the d^n x d^n register) otherwise."""
    noise = config.noise
    if noise is None or noise.kind == "phase_damping" or not np.any(noise.pi[1:] > 0.0):
        return "sector"
    return "dense"


def _chain_key(chain: ChainSpec) -> tuple:
    return chain.d, chain.n, chain.couplings.tobytes()


def _twin_key(config: ExperimentConfig) -> tuple:
    """What the noiseless reference depends on: all but noise, seed and
    gamma_tolerance, with t_total as given."""
    return (_chain_key(config.chain), config.input_amplitudes.tobytes(), config.steps,
            config.t_total, config.bipartition)


def prepare_references(configs: Sequence[ExperimentConfig]) -> list[PreparedReference]:
    """The noiseless twin of each config, prepared once per distinct twin and
    shared by the configs that have it.

    Configs share a twin when they differ at most in noise, seed and
    gamma_tolerance, and a chain when they have the same d, n and couplings.
    Each distinct chain (in order of first appearance) is diagonalised once
    and its transfer time searched at most once, on the calling thread. A
    failure lists in its `configs` the positions in `configs` of every config
    it refuses: a ConfigError or numerical failure of the search, each
    config on the chain that leaves t_total open; a numerical failure
    (FloatingPointError, LinAlgError) in measuring a twin, the twin's
    configs.
    """
    chains: dict[tuple, dict[tuple, ExperimentConfig]] = {}
    for config in configs:
        chains.setdefault(_chain_key(config.chain), {}).setdefault(_twin_key(config), config)

    prepared: dict[tuple, PreparedReference] = {}
    for twins in chains.values():
        spectrum, pst = Spectrum(next(iter(twins.values())).chain), None
        for key, config in twins.items():
            refused = [key]
            try:
                if config.t_total is None and pst is None:
                    refused = [k for k, other in twins.items() if other.t_total is None]
                    try:
                        pst = find_pst_time(spectrum)
                    except ValueError as exc:
                        raise ConfigError(f"t_total: required for this chain, {exc}") from exc
                    refused = [key]
                prepared[key] = PreparedReference(config, spectrum, pst)
            except (ConfigError, FloatingPointError, np.linalg.LinAlgError) as exc:
                exc.configs = tuple(i for i, other in enumerate(configs)
                                    if _twin_key(other) in refused)
                raise
    return [prepared[_twin_key(config)] for config in configs]


def run_experiment(
    config: ExperimentConfig,
    prepared: PreparedReference | None = None,
) -> tuple[list[TransferRecord], list[TransferRecord] | None]:
    """Dispatch on the noise section; returns (records, noiseless reference or None).

    prepared is the config's twin from prepare_references, when the caller
    shares one between configs; without it the twin is prepared here, so
    the chain's sector is diagonalised once and the transfer time searched
    at most once. The reference is the twin's records, the sector ket
    measured after each step, and is a noiseless run's records. A noisy
    run's records before its first channel application are the twin's own
    record objects; the density matrix is formed just before that
    application, on the sector basis when the table has no shift and on the
    register otherwise (see engine). Each gamma flag compares a record's
    entanglement level with the reference's. A non-finite record, of the
    reference or of the run, raises FloatingPointError naming its step.
    """
    if prepared is None:
        (prepared,) = prepare_references([config])
    elif prepared.key != _twin_key(config):
        raise ValueError("prepared: the noiseless twin of another configuration")
    reference = list(prepared.records)
    if config.noise is None:
        return reference, None
    table, dims = _noise_channel(config)
    first = 1 if config.noise.topology == "interleaved" else config.steps
    records = reference[:first]
    ket = prepared.sector_ket(first * prepared.dt)
    rho = np.outer(ket, ket.conj())
    blocks = prepared.blocks    # rho's: the sector's, or (None) the whole register
    if engine(config) == "sector":
        mask = prepared.sector_mask(table, dims)

        def channel(rho: np.ndarray) -> np.ndarray:
            return mask * rho
    else:
        index = prepared.register_index
        register = np.zeros((config.chain.dim,) * 2, dtype=np.complex128)
        register[np.ix_(index, index)] = rho
        rho, blocks = register, None

        def channel(rho: np.ndarray) -> np.ndarray:
            return apply_weyl_table(rho, table, dims)
    # the states of steps first..steps, evolved into a preallocated stack and
    # measured each time it fills, and after the last step
    stack = np.empty((min(prepared.stack_size(rho.shape), config.steps + 1 - first), *rho.shape),
                     dtype=np.complex128)
    rho = channel(rho)
    if first < config.steps:
        u_step = prepared.spectrum.unitary(prepared.dt, blocks)
    for k in range(first, config.steps + 1):
        if k > first:
            rho = channel(u_step @ rho @ u_step.conj().T)
        i = (k - first) % len(stack)
        stack[i] = rho
        rho = stack[i]  # carried on from its slot: no second copy is kept
        if i + 1 == len(stack) or k == config.steps:
            records += prepared.measure(k - i, stack[:i + 1], config.gamma_tolerance)
    return records, reference
