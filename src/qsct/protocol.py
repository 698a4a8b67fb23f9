"""State-transfer experiments: stepwise evolution, noise, and invariants.

An experiment prepares (sum_i alpha_i |i>) (x) |0...0>, evolves it in equal
time steps, and records entanglement and transfer figures after every step.
The input never leaves the single-excitation sector, so a pure state is the
site amplitudes f(t) = exp(-i J t) e_1 of chain.Spectrum (n numbers), and
every pure record is measured from them without the register ket:

    endpoint pair - |phi><phi| + w sum_{1<s<N} |f_s|^2 |00><00|, with
                    phi = alpha_0 |00> + sum_r alpha_r (f_1 |r0> + f_N |0r>)
                    and w the input's excited weight; on two sites the
                    pair is the pure register, measured as cut 1
    chain cut c   - the Schmidt measures of the ket's coefficient matrix on
                    the sector bases of both sides, (1+(d-1)c) x (1+(d-1)(n-c))
    last node     - |v><v| + w sum_{s<N} |f_s|^2 |0><0|, v = (alpha_0, alpha_r f_N)

Noisy variants scatter the sector ket into the register ket at their first
channel application and carry a density matrix from there, acted on by a
Weyl-table channel (channels.WeylTable, applied by channels.apply_weyl_table;
no Kraus operators are built) whose placement is one of three layouts:

    global_after  - one full-register channel after the complete evolution
                    (the single-qudit channel family taken at dimension d^N)
    local_after   - independent per-site channels after the complete evolution
    interleaved   - per step: the register unitary (Spectrum.unitary, a run's
                    only diagonalisation of the register Hamiltonian), then
                    the per-site channels

Every record carries a gamma flag: the concurrence-style entanglement level
is compared step by step against the noiseless profile of the same
configuration, within an absolute tolerance. A noiseless run is its own
reference, so every one of its flags is set; lost entanglement under noise
shows up as gamma violations rather than silent drift.

fidelity_to_input compares the last node against the phase-aligned input:
perfect transfer delivers the excited levels with a known level-independent
phase (the end-to-end transfer amplitude's argument), which a receiving node
can always undo with a local phase gate, so the record aligns it away.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

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
    analytic_favg_2qutrit,
    apply_weyl_table,
    average_fidelity,
    check_probability_table,
    embed_channel,
    phase_damping,
    phase_damping_table,
    weyl_table,
)
from .entanglement import (
    Bipartition,
    amplified_ccnr_margin,
    ccnr,
    closed_form_l2_d3,
    concurrence_and_purity,
    entanglement_level,
    fit_cosine_series,
    schmidt_measures,
)
from .linalg import partial_trace

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


@dataclass
class TransferRecord:
    step: int
    time: float
    ccnr: float
    ccnr_amplified_margin: float
    concurrence: float
    transfer_probability: float
    fidelity_to_input: float
    gamma_ok: bool = True


def _register_ket(alpha: np.ndarray, f: np.ndarray) -> np.ndarray:
    """The register ket alpha_0 |vac> + sum_{r,s} alpha_r f_s |r on site s>
    of input amplitudes alpha (d) and site amplitudes f (n)."""
    d, n = len(alpha), len(f)
    ket = np.zeros(d**n, dtype=np.complex128)
    ket[0] = alpha[0]
    # level r on site s (0-based) sits at index r d^(n-1-s)
    ket[np.outer(np.arange(1, d), d ** np.arange(n - 1, -1, -1))] = np.outer(alpha[1:], f)
    return ket


def _cut_ket(alpha: np.ndarray, f: np.ndarray, cut: int) -> tuple[np.ndarray, Bipartition]:
    """The register ket across the cut after site `cut`, on the sector bases of
    both sides: (coefficients, Bipartition). Index 0 of either side is its
    vacuum, then level r on each of its sites, level-major. The bases are
    orthonormal, so the Schmidt coefficients are the register ket's."""
    d, n = len(alpha), len(f)
    m = np.zeros((1 + (d - 1) * cut, 1 + (d - 1) * (n - cut)), dtype=np.complex128)
    m[0, 0] = alpha[0]
    m[1:, 0] = np.outer(alpha[1:], f[:cut]).ravel()
    m[0, 1:] = np.outer(alpha[1:], f[cut:]).ravel()
    return m.ravel(), Bipartition(*m.shape)


def gamma_check(series, reference, tol: float) -> list[bool]:
    """Per-step |series - reference| <= tol."""
    series = list(series)
    reference = list(reference)
    if len(series) != len(reference):
        raise ValueError("series and reference must have equal length")
    if not (tol > 0.0):
        raise ValueError("tolerance must be positive")
    return [abs(s - r) <= tol for s, r in zip(series, reference)]


class _Runner:
    """Shared machinery for one configuration: evolution, cut, measures.

    Needs config.t_total resolved; see _prepare.
    """

    def __init__(self, config: ExperimentConfig, spectrum: Spectrum):
        self.config = config
        self.spec = config.chain
        self.spectrum = spectrum
        self.dt = float(config.t_total) / config.steps
        self.alpha = config.input_amplitudes
        d, n = self.spec.d, self.spec.n
        if config.bipartition == "endpoints":
            self.part = Bipartition(d, d)
        else:
            cut = int(config.bipartition)
            self.part = Bipartition(d**cut, d ** (n - cut))
        self.excited_weight = float(np.sum(np.abs(self.alpha[1:]) ** 2))

    def ket(self, step: int) -> np.ndarray:
        """Noiseless register ket after `step` steps, scattered from the site amplitudes."""
        return _register_ket(self.alpha, self.spectrum.site_amplitudes(step * self.dt))

    def aligned_input(self, t: float) -> np.ndarray:
        """Input amplitudes with the excited levels rotated by the transfer phase."""
        phase = float(np.angle(self.spectrum.site_amplitudes(t)[-1]))
        chi = self.alpha.copy()
        chi[1:] *= np.exp(1j * phase)
        return chi

    def _measures(self, rho: np.ndarray) -> tuple[float, float, float]:
        """(ccnr, amplified margin, entanglement level) of a state on self.part."""
        return (
            ccnr(rho, self.part),
            amplified_ccnr_margin(rho, self.part),
            entanglement_level(rho, self.part),
        )

    def measure_pure(self, step: int) -> TransferRecord:
        """Record of the noiseless state after `step` steps, from its n site
        amplitudes; each residual weight is a sum over the other sites."""
        f = self.spectrum.site_amplitudes(step * self.dt)
        excited, w = self.alpha[1:], self.excited_weight
        cut = self.config.bipartition
        if cut == "endpoints" and self.spec.n > 2:
            phi = np.zeros((self.spec.d, self.spec.d), dtype=np.complex128)
            phi[0, 0] = self.alpha[0]
            phi[1:, 0] = excited * f[0]
            phi[0, 1:] = excited * f[-1]
            rho_pair = np.outer(phi.ravel(), phi.ravel().conj())
            rho_pair[0, 0] += w * np.sum(np.abs(f[1:-1]) ** 2)
            values = self._measures(rho_pair)
        else:
            # on two sites the endpoint pair is the whole, pure register: cut 1
            values = schmidt_measures(*_cut_ket(self.alpha, f, 1 if cut == "endpoints" else cut))
        v = np.concatenate((self.alpha[:1], excited * f[-1]))
        rho_last = np.outer(v, v.conj())
        rho_last[0, 0] += w * np.sum(np.abs(f[:-1]) ** 2)
        return self._record(step, values, rho_last)

    def measure_rho(self, step: int, rho: np.ndarray) -> TransferRecord:
        """Record of a register density matrix."""
        dims, last = self.spec.dims, self.spec.n - 1
        if self.config.bipartition == "endpoints":
            values = self._measures(partial_trace(rho, dims, keep=[0, last]))
        else:
            values = self._measures(rho)
        return self._record(step, values, partial_trace(rho, dims, keep=[last]))

    def _record(self, step: int, values: tuple[float, float, float],
                rho_last: np.ndarray) -> TransferRecord:
        t = step * self.dt
        if self.excited_weight > 1e-15:
            arrived = float(np.sum(np.diag(rho_last).real[1:]))
            transfer_probability = arrived / self.excited_weight
        else:
            transfer_probability = 0.0
        chi = self.aligned_input(t)
        fidelity = float((chi.conj() @ rho_last @ chi).real)
        ccnr_value, margin, level = values
        return TransferRecord(
            step=step,
            time=t,
            ccnr=ccnr_value,
            ccnr_amplified_margin=margin,
            concurrence=level,
            transfer_probability=transfer_probability,
            fidelity_to_input=fidelity,
        )


def _noise_channel(config: ExperimentConfig) -> tuple[WeylTable, tuple[int, ...]]:
    """The configured noise as a Weyl table, and the register factors it acts
    on: every site, or for global_after the whole register as one factor."""
    noise, spec = config.noise, config.chain
    dims = (spec.dim,) if noise.topology == "global_after" else spec.dims
    if noise.kind == "phase_damping":
        return phase_damping_table(dims[0], float(noise.p)), dims
    return weyl_table(noise.pi), dims


def _prepare(
    config: ExperimentConfig, spectrum: Spectrum | None
) -> tuple[ExperimentConfig, Spectrum]:
    """Diagonalise the chain unless a spectrum is given, and fill in t_total
    from the transfer-time search when the config leaves it open; a chain
    whose amplitude the default search window would alias needs t_total."""
    if spectrum is None:
        spectrum = Spectrum(config.chain)
    if config.t_total is None:
        try:
            t_star, _ = find_pst_time(config.chain, spectrum=spectrum)
        except ValueError as exc:
            raise ConfigError(f"t_total: required for this chain, {exc}") from exc
        config = replace(config, t_total=t_star)
    return config, spectrum


def run_noiseless(
    config: ExperimentConfig, spectrum: Spectrum | None = None
) -> list[TransferRecord]:
    """Pure-state stepwise evolution; steps+1 records at times k * t_total / steps.

    Every record is measured from the site amplitudes; pass the chain's
    spectrum when the caller already has one.
    """
    if config.noise is not None:
        config = replace(config, noise=None)
    config, spectrum = _prepare(config, spectrum)
    runner = _Runner(config, spectrum)
    return [runner.measure_pure(k) for k in range(config.steps + 1)]


def run_noisy(
    config: ExperimentConfig,
    reference: list[TransferRecord] | None = None,
    spectrum: Spectrum | None = None,
) -> list[TransferRecord]:
    """Density-matrix stepwise evolution with the configured noise placement.

    The gamma flag compares each step's entanglement level against the
    noiseless reference profile (computed here when not supplied). Records
    before the first channel application are pure and measured from the site
    amplitudes, exactly as in the noiseless run; the register ket is formed
    just before that application.
    """
    if config.noise is None:
        raise ConfigError("noise section is required for a noisy run")
    config, spectrum = _prepare(config, spectrum)
    if reference is None:
        reference = run_noiseless(config, spectrum)
    if len(reference) != config.steps + 1:
        raise ValueError("reference profile does not match the step count")
    runner = _Runner(config, spectrum)
    table, dims = _noise_channel(config)
    first = 1 if config.noise.topology == "interleaved" else config.steps
    records = [runner.measure_pure(k) for k in range(first)]
    ket = runner.ket(first)
    rho = apply_weyl_table(np.outer(ket, ket.conj()), table, dims)
    records.append(runner.measure_rho(first, rho))
    if first < config.steps:
        u_step = spectrum.unitary(runner.dt)
        for k in range(first + 1, config.steps + 1):
            rho = apply_weyl_table(u_step @ rho @ u_step.conj().T, table, dims)
            records.append(runner.measure_rho(k, rho))
    flags = gamma_check(
        [r.concurrence for r in records],
        [r.concurrence for r in reference],
        config.gamma_tolerance,
    )
    for record, ok in zip(records, flags):
        record.gamma_ok = ok
    return records


def run_experiment(
    config: ExperimentConfig,
) -> tuple[list[TransferRecord], list[TransferRecord] | None]:
    """Dispatch on the noise section; returns (records, noiseless reference or None).

    The chain's sector is diagonalised once, and the transfer time searched
    at most once; the noiseless reference and the noisy run share both.
    """
    config, spectrum = _prepare(config, None)
    reference = run_noiseless(config, spectrum)
    if config.noise is None:
        return reference, None
    return run_noisy(config, reference, spectrum), reference


# ---------------------------------------------------------------------------
# Conformance: printed closed forms against simulated traces
# ---------------------------------------------------------------------------

L4_HARMONICS = (0, 2, 4, 6, 8, 10, 12)
L4_SCALINGS = (0.5, 1.0, 2.0)


def conformance_closed_forms(a_points: int = 41, l4_points: int = 320) -> dict:
    """Compare the printed two-site profiles with simulated traces, and fit the
    harmonic content of the four-site, three-level trace.

    The two-site closed forms are evaluated as printed and compared (reported,
    never asserted) against the simulated concurrence and subsystem purity
    under both candidate time mappings a = t and a = 2t. The four-site trace
    2 (1 - tr rho_A^2) over the half-chain cut is fitted on the even harmonic
    set; the result records the best time scaling, the coefficient of the
    10th harmonic (structurally absent), and the residual.
    """
    if a_points < 5:
        raise ValueError("a grid needs at least 5 points")
    if l4_points < 2 * len(L4_HARMONICS) + 1:
        raise ValueError("l4 grid is too small for the harmonic fit")

    a_grid = np.linspace(0.0, math.pi, a_points)
    amp_sets = {
        2: [(1.0, 0.0), (1.0 / math.sqrt(2), 1.0 / math.sqrt(2)),
            (math.sqrt(0.8), math.sqrt(0.2))],
        3: [(1.0, 0.0, 0.0),
            (1.0 / math.sqrt(3), 1.0 / math.sqrt(3), 1.0 / math.sqrt(3)),
            (math.sqrt(0.5), math.sqrt(0.3), math.sqrt(0.2))],
    }

    rows: list[dict] = []
    anchor_dev = 0.0
    deviations: dict[str, dict[str, dict[str, float]]] = {}
    for d, sets in amp_sets.items():
        spectrum = Spectrum(ChainSpec(d=d, n=2))
        dev = {"concurrence": {"a=t": 0.0, "a=2t": 0.0},
               "purity": {"a=t": 0.0, "a=2t": 0.0}}
        for amps in sets:
            weights = (*amps, 0.0)[:3]  # (alpha, beta, gamma); gamma = 0 for d = 2
            closed0 = closed_form_l2_d3(*weights, 0.0)
            anchor_dev = max(anchor_dev, abs(closed0 - 1.0))
            for a in a_grid:
                closed = closed_form_l2_d3(*weights, a)
                row = {"d": d, "amplitudes": tuple(float(x) for x in amps), "a": float(a),
                       "closed_form": float(closed)}
                for label, t in (("a=t", a), ("a=2t", a / 2.0)):
                    conc, pur = concurrence_and_purity(*_cut_ket(amps, spectrum.site_amplitudes(t), 1))
                    row[f"concurrence[{label}]"] = conc
                    row[f"purity[{label}]"] = pur
                    dev["concurrence"][label] = max(dev["concurrence"][label], abs(closed - conc))
                    dev["purity"][label] = max(dev["purity"][label], abs(closed - pur))
                rows.append(row)
        best = min(
            ((q, m, dev[q][m]) for q in dev for m in dev[q]),
            key=lambda item: item[2],
        )
        deviations[str(d)] = {
            "max_abs_deviation": dev,
            "best": {"quantity": best[0], "mapping": best[1], "deviation": best[2]},
        }

    # four-site, three-level trace over the half-chain cut
    spectrum = Spectrum(ChainSpec(d=3, n=4))
    amps = np.full(3, 1.0 / math.sqrt(3))
    ts = np.linspace(0.0, 2.0 * math.pi, l4_points, endpoint=False)
    q_trace = np.empty(l4_points)
    for i, t in enumerate(ts):
        _, pur = concurrence_and_purity(*_cut_ket(amps, spectrum.site_amplitudes(t), 2))
        q_trace[i] = 2.0 * (1.0 - pur)

    fits = {}
    for scale in L4_SCALINGS:
        coeffs, residual = fit_cosine_series(zip(scale * ts, q_trace), L4_HARMONICS)
        fits[scale] = {"coefficients": coeffs, "residual": residual}
    best_scale = min(fits, key=lambda s: fits[s]["residual"])
    best_coeffs = fits[best_scale]["coefficients"]
    idx_10 = L4_HARMONICS.index(10)
    l4 = {
        "harmonics": list(L4_HARMONICS),
        "scalings": {
            str(s): {"coefficients": [float(c) for c in fits[s]["coefficients"]],
                     "residual": float(fits[s]["residual"])}
            for s in L4_SCALINGS
        },
        "best_scaling": float(best_scale),
        "coefficients": [float(c) for c in best_coeffs],
        "residual": float(fits[best_scale]["residual"]),
        "c10_ratio": float(abs(best_coeffs[idx_10]) / np.max(np.abs(best_coeffs))),
        "coefficient_sum": float(np.sum(best_coeffs)),
        "value_at_zero": float(q_trace[0]),
    }

    return {
        "l2_rows": rows,
        "l2_anchor_max_dev": float(anchor_dev),
        "l2_summary": deviations,
        "l4": l4,
    }


def average_fidelity_comparison(p_values=(0.25, 0.5, 0.85, 1.0)) -> list[dict]:
    """Average transfer fidelity of the two-qutrit chain under per-site phase
    damping, computed two ways that do not agree: the trace formula over the
    composed map, and the closed quadratic profile. Both are reported per p so
    the gap is visible; neither value is asserted against the other."""
    spec = ChainSpec(d=3, n=2)
    spectrum = Spectrum(spec)
    t_star, _ = find_pst_time(spec, spectrum=spectrum)
    u = spectrum.unitary(t_star)
    rows = []
    for p in p_values:
        channel = embed_channel(phase_damping(3, float(p)), (0, 1), spec.dims)
        rows.append({
            "p": float(p),
            "trace_formula": float(average_fidelity(u, channel)),
            "closed_profile": float(analytic_favg_2qutrit(float(p))),
        })
    return rows
