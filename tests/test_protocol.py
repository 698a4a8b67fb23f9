import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsct.chain import ChainSpec, build_hamiltonian, excitation_index, find_pst_time
from qsct.channels import (
    KrausChannel,
    apply_channel,
    average_fidelity,
    embed_channel,
    phase_damping,
    weyl_channel,
)
from qsct.entanglement import (
    amplified_ccnr_margin,
    ccnr,
    concurrence_pure,
    entanglement_level,
    schmidt_measures,
)
from qsct.generators import beta, theta
from qsct.linalg import Bipartition, partial_trace, partial_trace_pure
from qsct.protocol import (
    ConfigError,
    ExperimentConfig,
    NoiseSpec,
    TransferRecord,
    _register_ket,
    average_fidelity_comparison,
    conformance_closed_forms,
    gamma_check,
    run_experiment,
    run_noiseless,
    run_noisy,
)


def _config(d=3, n=2, **kwargs):
    amps = kwargs.pop("input_amplitudes", np.full(d, 1.0 / math.sqrt(d)))
    return ExperimentConfig(
        chain=ChainSpec(d=d, n=n),
        input_amplitudes=amps,
        **kwargs,
    )


def test_initial_state_layout():
    cfg = _config(d=3, n=3)
    ket = _register_ket(cfg.input_amplitudes, np.eye(3)[0])
    assert ket.shape == (27,)
    assert ket[0] == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-15)
    assert ket[9] == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-15)   # |100>
    assert ket[18] == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-15)  # |200>
    assert np.count_nonzero(ket) == 3


def test_config_validation_messages():
    with pytest.raises(ConfigError, match="input_amplitudes"):
        _config(input_amplitudes=np.array([1.0, 1.0, 0.0]))
    with pytest.raises(ConfigError, match="input_amplitudes"):
        _config(input_amplitudes=np.array([1.0, 0.0]))
    with pytest.raises(ConfigError, match="steps"):
        _config(steps=0)
    with pytest.raises(ConfigError, match="t_total"):
        _config(t_total=-1.0)
    with pytest.raises(ConfigError, match="bipartition"):
        _config(bipartition=2)  # N=2 has only cut 1
    with pytest.raises(ConfigError, match="bipartition"):
        _config(bipartition="ends")
    with pytest.raises(ConfigError, match="gamma_tolerance"):
        _config(gamma_tolerance=0.0)


def test_config_refuses_a_chain_that_is_no_chain_spec():
    with pytest.raises(ConfigError, match=r"^chain: expected a ChainSpec"):
        ExperimentConfig(chain={"d": 2, "nodes": 3}, input_amplitudes=[1.0, 0.0])


def test_config_refuses_a_noise_that_is_no_noise_spec():
    noise = {"kind": "phase_damping", "topology": "interleaved", "p": 0.5}
    with pytest.raises(ConfigError, match=r"^noise: expected a NoiseSpec"):
        _config(noise=noise)


def test_config_rejects_bool_steps():
    # int(True) == 1 would otherwise pass as one step, as the CLI refuses it
    with pytest.raises(ConfigError, match="steps"):
        _config(steps=True)


def test_config_rejects_non_finite_gamma_tolerance():
    # an infinite tolerance would make every gamma flag pass
    for bad in (math.inf, math.nan):
        with pytest.raises(ConfigError, match="gamma_tolerance"):
            _config(gamma_tolerance=bad)


@pytest.mark.parametrize("pi, topology, match", [
    ([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 0.0]], "interleaved", "sum to 1"),
    ([[1.5, -0.5, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]], "local_after", "probabilities"),
    ([[1.0, 0.0], [0.0, 0.0]], "local_after", "3x3"),
    (np.eye(3) / 3.0, "global_after", "9x9"),
    ([[1.0, 0.0, 0.0], [0.0, 0.0]], "interleaved", "square"),
])
def test_weyl_table_refused_when_the_config_is_built(pi, topology, match):
    with pytest.raises(ConfigError, match=f"noise.pi.*{match}"):
        _config(noise=NoiseSpec(kind="weyl", topology=topology, pi=pi))


def test_noise_spec_validation():
    with pytest.raises(ConfigError, match="noise.kind"):
        NoiseSpec(kind="amplitude", topology="interleaved", p=0.5)
    with pytest.raises(ConfigError, match="noise.topology"):
        NoiseSpec(kind="phase_damping", topology="before", p=0.5)
    with pytest.raises(ConfigError, match="noise.p"):
        NoiseSpec(kind="phase_damping", topology="interleaved")
    with pytest.raises(ConfigError, match="noise.p"):
        NoiseSpec(kind="phase_damping", topology="interleaved", p=1.5)
    with pytest.raises(ConfigError, match="noise.pi"):
        NoiseSpec(kind="weyl", topology="interleaved")


NON_FINITE_BUILDERS = {
    "couplings": lambda bad: ChainSpec(d=3, n=3, couplings=[0.5, bad]),
    "input_amplitudes": lambda bad: _config(input_amplitudes=np.array([1.0, 0.0, bad])),
    "noise.pi": lambda bad: NoiseSpec(kind="weyl", topology="interleaved",
                                      pi=[[1.0, 0.0, 0.0], [0.0, bad, 0.0], [0.0, 0.0, 0.0]]),
    "t_total": lambda bad: _config(t_total=bad),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("field", list(NON_FINITE_BUILDERS))
def test_library_rejects_non_finite_values(field, bad):
    with pytest.raises(ValueError, match=field):
        NON_FINITE_BUILDERS[field](bad)


def test_gamma_check_basics():
    series = [0.0, 0.5, 1.0]
    assert gamma_check(series, series, 1e-3) == [True, True, True]
    assert gamma_check(series, [0.0, 0.6, 1.0], 1e-3) == [True, False, True]
    assert gamma_check(series, [9.0, 9.0, 9.0], math.inf) == [True, True, True]
    with pytest.raises(ValueError):
        gamma_check(series, [0.0, 0.5], 1e-3)
    with pytest.raises(ValueError):
        gamma_check(series, series, 0.0)


def test_noiseless_profile_rise_and_fall():
    for d in (2, 3):
        records = run_noiseless(_config(d=d, steps=16))
        conc = [r.concurrence for r in records]
        assert conc[0] <= 1e-6
        assert conc[-1] <= 1e-6
        assert max(conc) >= 0.4
        assert records[-1].fidelity_to_input >= 1.0 - 1e-6
        assert records[-1].transfer_probability >= 1.0 - 1e-6
        assert all(r.gamma_ok for r in records)


def test_noiseless_record_count_and_times():
    cfg = _config(steps=16)
    records = run_noiseless(cfg)
    assert len(records) == 17
    assert records[0].time == 0.0
    assert records[8].time == pytest.approx(records[-1].time / 2.0, abs=1e-12)


def test_noiseless_ground_input_stays_separable():
    amps = np.zeros(3, dtype=complex)
    amps[0] = 1.0
    records = run_noiseless(_config(input_amplitudes=amps, steps=8))
    for r in records:
        assert r.concurrence <= 1e-10
        assert abs(r.ccnr - 1.0) <= 1e-10
        assert r.ccnr_amplified_margin <= 1e-10
        assert r.transfer_probability == 0.0
        assert r.fidelity_to_input == pytest.approx(1.0, abs=1e-10)


def test_record_bounds_invariant():
    cfg = _config(steps=16, noise=NoiseSpec(kind="phase_damping",
                                            topology="interleaved", p=0.85))
    records, reference = run_experiment(cfg)
    for r in list(records) + list(reference):
        assert -1e-10 <= r.transfer_probability <= 1.0 + 1e-10
        assert -1e-10 <= r.fidelity_to_input <= 1.0 + 1e-10
        assert np.isfinite([r.ccnr, r.ccnr_amplified_margin, r.concurrence]).all()


def test_first_last_reduced_state_exact_at_t0():
    cfg = _config(d=2, n=4, bipartition="endpoints", steps=4)
    ket = _register_ket(cfg.input_amplitudes, np.eye(4)[0])
    rho = np.outer(ket, ket.conj())
    pair = partial_trace(rho, [2, 2, 2, 2], keep=[0, 3])
    ground = np.zeros((2, 2), dtype=complex)
    ground[0, 0] = 1.0
    rho_in = np.outer(cfg.input_amplitudes, cfg.input_amplitudes.conj())
    assert np.array_equal(pair, np.kron(rho_in, ground))


def test_endpoints_bipartition_runs():
    cfg = _config(d=2, n=3, bipartition="endpoints", steps=8)
    records = run_noiseless(cfg)
    assert records[0].concurrence <= 1e-10  # product across the 1..N pair at t=0
    assert max(r.concurrence for r in records) > 0.1


def test_interior_cut_runs():
    cfg = _config(d=2, n=3, bipartition=2, steps=8)
    records = run_noiseless(cfg)
    assert len(records) == 9
    assert max(r.concurrence for r in records) > 0.1


def test_noisy_requires_noise_section():
    with pytest.raises(ConfigError):
        run_noisy(_config())


def test_noisy_reference_length_checked():
    cfg = _config(steps=4, noise=NoiseSpec(kind="phase_damping",
                                           topology="interleaved", p=0.85))
    with pytest.raises(ValueError):
        run_noisy(cfg, reference=run_noiseless(_config(steps=8)))


def test_p1_noise_matches_noiseless():
    for topology in ("global_after", "local_after", "interleaved"):
        cfg = _config(steps=8, noise=NoiseSpec(kind="phase_damping",
                                               topology=topology, p=1.0))
        noisy, reference = run_experiment(cfg)
        for a, b in zip(noisy, reference):
            assert a.ccnr == pytest.approx(b.ccnr, abs=1e-10)
            assert a.ccnr_amplified_margin == pytest.approx(b.ccnr_amplified_margin, abs=1e-10)
            assert a.concurrence == pytest.approx(b.concurrence, abs=1e-10)
            assert a.transfer_probability == pytest.approx(b.transfer_probability, abs=1e-10)
            assert a.fidelity_to_input == pytest.approx(b.fidelity_to_input, abs=1e-10)
            assert a.gamma_ok


def test_noisy_run_detects_phase_damping():
    cfg = _config(steps=16, noise=NoiseSpec(kind="phase_damping",
                                            topology="interleaved", p=0.85))
    noisy, reference = run_experiment(cfg)
    assert noisy[-1].concurrence > reference[-1].concurrence + 0.05
    assert noisy[-1].fidelity_to_input < 1.0 - 1e-3
    assert any(not r.gamma_ok for r in noisy)
    assert all(r.gamma_ok for r in reference)


def test_noisy_weyl_channel_runs():
    pi = np.zeros((3, 3))
    pi[0, 0] = 0.7
    pi[1, 1] = 0.3
    cfg = _config(steps=4, noise=NoiseSpec(kind="weyl", topology="local_after", pi=pi))
    noisy, reference = run_experiment(cfg)
    assert len(noisy) == len(reference) == 5
    assert noisy[-1].fidelity_to_input < reference[-1].fidelity_to_input


def test_weyl_global_shape_checked():
    pi = np.zeros((3, 3))
    pi[0, 0] = 1.0
    # refused when the config is built, before any evolution
    with pytest.raises(ConfigError, match="noise.pi"):
        _config(steps=2, noise=NoiseSpec(kind="weyl", topology="global_after", pi=pi))


def test_p_sweep_fidelity_monotone_after_topologies():
    # interleaved placement is measurably non-monotone on this grid, so the
    # sweep property is asserted for the single-application topologies
    for topology in ("global_after", "local_after"):
        finals = []
        for p in (0.25, 0.5, 0.85):
            cfg = _config(steps=16, noise=NoiseSpec(kind="phase_damping",
                                                    topology=topology, p=p))
            noisy, _ = run_experiment(cfg)
            finals.append(noisy[-1].fidelity_to_input)
        assert finals[0] <= finals[1] <= finals[2]


def test_determinism_bit_identical():
    cfg = _config(steps=8, noise=NoiseSpec(kind="phase_damping",
                                           topology="interleaved", p=0.85))
    first, _ = run_experiment(cfg)
    second, _ = run_experiment(cfg)
    for a, b in zip(first, second):
        assert a == b


def test_step_count_independence():
    coarse = run_noiseless(_config(steps=16))
    fine = run_noiseless(_config(steps=160))
    for k, record in enumerate(coarse):
        twin = fine[10 * k]
        assert twin.time == pytest.approx(record.time, abs=1e-12)
        assert twin.concurrence == pytest.approx(record.concurrence, abs=1e-9)
        assert twin.ccnr == pytest.approx(record.ccnr, abs=1e-9)
        assert twin.fidelity_to_input == pytest.approx(record.fidelity_to_input, abs=1e-9)


def test_run_experiment_dispatch():
    records, reference = run_experiment(_config(steps=4))
    assert reference is None
    assert len(records) == 5
    noisy, ref = run_experiment(_config(steps=4, noise=NoiseSpec(
        kind="phase_damping", topology="local_after", p=0.5)))
    assert ref is not None
    assert len(noisy) == len(ref) == 5


def test_conformance_report_structure():
    report = conformance_closed_forms()
    assert report["l2_anchor_max_dev"] <= 1e-12
    assert len(report["l2_rows"]) == 6 * 41  # three amp sets per d, 41 grid points
    for d in ("2", "3"):
        best = report["l2_summary"][d]["best"]
        assert best["quantity"] in ("concurrence", "purity")
        assert best["mapping"] in ("a=t", "a=2t")
    l4 = report["l4"]
    assert l4["harmonics"] == [0, 2, 4, 6, 8, 10, 12]
    assert l4["c10_ratio"] <= 1e-6
    assert l4["residual"] <= 1e-8
    assert l4["coefficient_sum"] == pytest.approx(l4["value_at_zero"], abs=1e-10)
    assert l4["best_scaling"] in (0.5, 1.0, 2.0)


def test_conformance_closed_forms_disagree_with_both_quantities():
    # the printed two-site formulas match neither simulated quantity under
    # either time mapping: the report records the gap instead of asserting it away
    report = conformance_closed_forms()
    for d in ("2", "3"):
        assert report["l2_summary"][d]["best"]["deviation"] > 0.01


def test_conformance_columns_match_complex_eigh_oracle():
    # independent route: complex eigh of H, and the purity from rho_A = M M^dagger
    report = conformance_closed_forms()
    oracle = {}
    for d in (2, 3):
        w, v = np.linalg.eigh(build_hamiltonian(ChainSpec(d=d, n=2)))
        oracle[d] = (w, v)
    for row in report["l2_rows"]:
        d = row["d"]
        w, v = oracle[d]
        ket0 = np.kron(np.asarray(row["amplitudes"], dtype=complex), np.eye(d)[0])
        for label, t in (("a=t", row["a"]), ("a=2t", row["a"] / 2.0)):
            ket = v @ (np.exp(-1j * w * t) * (v.conj().T @ ket0))
            m = ket.reshape(d, d)
            rho_a = m @ m.conj().T
            concurrence = concurrence_pure(ket, Bipartition(d, d))
            assert abs(row[f"purity[{label}]"] - np.vdot(rho_a, rho_a).real) <= 1e-13
            assert abs(row[f"concurrence[{label}]"] - concurrence) <= 1e-13


def test_average_fidelity_table_matches_complex_eigh_oracle():
    spec = ChainSpec(d=3, n=2)
    w, v = np.linalg.eigh(build_hamiltonian(spec))
    u = (v * np.exp(-1j * find_pst_time(spec)[0] * w)) @ v.conj().T
    for row in average_fidelity_comparison():
        channel = embed_channel(phase_damping(3, row["p"]), (0, 1), spec.dims)
        assert abs(row["trace_formula"] - average_fidelity(u, channel)) <= 1e-13


def test_average_fidelity_comparison_table():
    rows = average_fidelity_comparison()
    assert [row["p"] for row in rows] == [0.25, 0.5, 0.85, 1.0]
    by_p = {row["p"]: row for row in rows}
    assert by_p[1.0]["closed_profile"] == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert by_p[0.85]["closed_profile"] == pytest.approx(0.5896666666666667, abs=1e-12)
    assert by_p[1.0]["trace_formula"] == pytest.approx(0.2, abs=1e-6)
    # the two columns genuinely disagree; both are reported
    for row in rows:
        assert abs(row["trace_formula"] - row["closed_profile"]) > 0.1


@pytest.mark.parametrize("noise", [
    None,
    NoiseSpec(kind="phase_damping", topology="interleaved", p=0.6),
    NoiseSpec(kind="phase_damping", topology="local_after", p=0.6),
])
@pytest.mark.parametrize("t_total", [None, 2.0])
def test_one_register_eigh_per_experiment(monkeypatch, noise, t_total):
    # only interleaved noise steps a density matrix, and so needs the register
    # spectrum; every other run lives on the n x n sector
    import qsct.protocol

    cfg = _config(d=2, n=3, steps=4, bipartition="endpoints", noise=noise, t_total=t_total)
    eigh, find = np.linalg.eigh, qsct.protocol.find_pst_time
    register_eighs, searches = [], []

    def counting_eigh(a, *args, **kwargs):
        if np.shape(a)[-1] == cfg.chain.dim:
            register_eighs.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    def counting_find(*args, **kwargs):
        searches.append(args)
        return find(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    monkeypatch.setattr(qsct.protocol, "find_pst_time", counting_find)
    records, reference = run_experiment(cfg)
    interleaved = noise is not None and noise.topology == "interleaved"
    assert len(register_eighs) == (1 if interleaved else 0)
    assert len(searches) == (1 if t_total is None else 0)
    assert (reference is None) == (noise is None)


# ---------------------------------------------------------------------------
# Structured channels on the run path against a Kraus-sum evolution
# ---------------------------------------------------------------------------

NOISE_CASES = [(kind, topology) for kind in ("phase_damping", "weyl")
               for topology in ("global_after", "local_after", "interleaved")]


def _noise(kind, topology, chain, rng):
    if kind == "phase_damping":
        return NoiseSpec(kind=kind, topology=topology, p=0.6)
    size = chain.dim if topology == "global_after" else chain.d
    pi = rng.random((size, size))
    pi[0, 0] += size * size
    return NoiseSpec(kind=kind, topology=topology, pi=pi / pi.sum())


def _hopping_hamiltonian(spec):
    """The register Hamiltonian as level hopping: bond i moves |a b> to |b a>
    with amplitude J_i for a != b. Assembled without the generators, and
    checked against the generator sum below."""
    d, n = spec.d, spec.n
    digits = np.indices((d,) * n).reshape(n, -1)
    index = np.arange(spec.dim)
    h = np.zeros((spec.dim, spec.dim))
    for i, coupling in enumerate(spec.couplings):
        a, b = digits[i], digits[i + 1]
        moved = index + (b - a) * d ** (n - 1 - i) + (a - b) * d ** (n - 2 - i)
        hop = a != b
        h[moved[hop], index[hop]] = coupling
    return h


class _DenseEvolution:
    """exp(-i t H) of a register Hamiltonian from its own eigh: an oracle that
    shares nothing with the sector route."""

    def __init__(self, spec, h):
        self.spec = spec
        self.w, self.v = np.linalg.eigh(h)

    def unitary(self, t):
        return (self.v * np.exp(-1j * t * self.w)) @ self.v.conj().T

    def ket(self, ket0, t):
        return self.v @ (np.exp(-1j * t * self.w) * (self.v.conj().T @ ket0))

    def transfer(self, t):
        """<e_N| exp(-i t H) |e_1> at level 1."""
        src, dst = (excitation_index(self.spec, s, 1) for s in (1, self.spec.n))
        return self.v[dst] @ (np.exp(-1j * t * self.w) * self.v[src].conj())


def _dense_ket0(config):
    ground = np.eye(config.chain.d)[0]
    ket = config.input_amplitudes
    for _ in range(config.chain.n - 1):
        ket = np.kron(ket, ground)
    return ket


def _dense_record(config, step, state, transfer):
    """Record of a register ket (1-d) or density matrix (2-d) with the dense
    measures: partial traces of the register state, the Schmidt measures of
    the ket or the realigned rho across a chain cut."""
    spec = config.chain
    d, n, dims = spec.d, spec.n, spec.dims
    pure = state.ndim == 1
    reduce_to = partial_trace_pure if pure else partial_trace
    cut = config.bipartition
    if pure and (cut != "endpoints" or n == 2):
        # a pure register across a cut, or the pure pair that two sites form
        cut = 1 if cut == "endpoints" else cut
        values = schmidt_measures(state, Bipartition(d**cut, d ** (n - cut)))
    else:
        if cut == "endpoints":
            rho_cut, part = reduce_to(state, dims, keep=[0, n - 1]), Bipartition(d, d)
        else:
            rho_cut, part = state, Bipartition(d**cut, d ** (n - cut))
        values = (ccnr(rho_cut, part), amplified_ccnr_margin(rho_cut, part),
                  entanglement_level(rho_cut, part))
    rho_last = reduce_to(state, dims, keep=[n - 1])
    alpha = config.input_amplitudes
    chi = alpha.copy()
    chi[1:] *= np.exp(1j * np.angle(transfer))
    return TransferRecord(
        step=step,
        time=step * (config.t_total / config.steps),
        ccnr=values[0],
        ccnr_amplified_margin=values[1],
        concurrence=values[2],
        transfer_probability=float(np.sum(np.diag(rho_last).real[1:]) / np.sum(np.abs(alpha[1:]) ** 2)),
        fidelity_to_input=float((chi.conj() @ rho_last @ chi).real),
    )


def _kraus_run(config):
    """The noisy run with full-register Kraus operators on a dense evolution:
    embed_channel builds the cross product, apply_channel sums
    E rho E^dagger, and the unitary comes from a complex eigh of
    build_hamiltonian."""
    spec, noise = config.chain, config.noise
    if noise.kind == "phase_damping":
        local = phase_damping(spec.dim if noise.topology == "global_after" else spec.d, noise.p)
    else:
        local = weyl_channel(noise.pi)
    channel = (local if noise.topology == "global_after"
               else embed_channel(local, list(range(spec.n)), spec.dims))
    dense = _DenseEvolution(spec, build_hamiltonian(spec))
    dt = config.t_total / config.steps
    ket0 = _dense_ket0(config)
    first = 1 if noise.topology == "interleaved" else config.steps
    records = [_dense_record(config, k, dense.ket(ket0, k * dt), dense.transfer(k * dt))
               for k in range(first)]
    ket = dense.ket(ket0, first * dt)
    rho = apply_channel(np.outer(ket, ket.conj()), channel)
    records.append(_dense_record(config, first, rho, dense.transfer(first * dt)))
    u = dense.unitary(dt)
    for k in range(first + 1, config.steps + 1):
        rho = apply_channel(u @ rho @ u.conj().T, channel)
        records.append(_dense_record(config, k, rho, dense.transfer(k * dt)))
    return records


@pytest.mark.parametrize("kind, topology", NOISE_CASES)
def test_run_experiment_matches_kraus_evolution(kind, topology):
    # t_total = 2 rather than pi: at the transfer time the endpoint pair is
    # near a product state, where the concurrence and the margin take the
    # square root of a ~1e-16 purity gap and amplify rounding to ~1e-8
    # whichever way the channel is applied.
    rng = np.random.default_rng(17)
    for d, n, cut in ((3, 2, "endpoints"), (2, 4, 2), (2, 4, "endpoints")):
        chain = ChainSpec(d=d, n=n)
        cfg = _config(d=d, n=n, steps=6, t_total=2.0, bipartition=cut,
                      noise=_noise(kind, topology, chain, rng))
        records, _ = run_experiment(cfg)
        oracle = _kraus_run(cfg)
        assert len(records) == len(oracle)
        for got, want in zip(records, oracle):
            for f in dataclasses.fields(got):
                if f.name != "gamma_ok":
                    assert getattr(got, f.name) == pytest.approx(getattr(want, f.name), abs=1e-10), (
                        d, n, cut, got.step, f.name)


@pytest.mark.parametrize("kind, topology", NOISE_CASES)
def test_run_experiment_builds_no_kraus_channel(monkeypatch, kind, topology):
    built = []
    monkeypatch.setattr(KrausChannel, "__post_init__", lambda self: built.append(self.label))
    chain = ChainSpec(d=3, n=2)
    cfg = _config(steps=4, noise=_noise(kind, topology, chain, np.random.default_rng(0)))
    run_experiment(cfg)
    assert built == []


@pytest.mark.parametrize("kind, topology, n", [
    ("phase_damping", "global_after", 8),
    ("weyl", "local_after", 6),
])
def test_noisy_run_memory_stays_small(kind, topology, n):
    # A Kraus list for these configs would hold ~270 MB of operators.
    chain = ChainSpec(d=2, n=n)
    cfg = _config(d=2, n=n, steps=2, t_total=1.0, bipartition="endpoints",
                  noise=_noise(kind, topology, chain, np.random.default_rng(1)))
    tracemalloc.start()
    try:
        run_experiment(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20, peak


# ---------------------------------------------------------------------------
# The single-excitation sector against a dense register evolution
# ---------------------------------------------------------------------------

SECTOR_CHAINS = [(d, n) for d in range(2, 28) for n in range(2, 10) if d**n <= 729]


def _generator_hamiltonian(spec):
    """The chain Hamiltonian as printed, sum_i (J_i / 2) sum_{k<j} theta^{kj} (x)
    theta^{kj} + beta^{kj} (x) beta^{kj} on sites i, i+1, from Kronecker
    products of the generator matrices (complex)."""
    d, n = spec.d, spec.n
    bond = np.zeros((d * d, d * d), dtype=complex)
    for k in range(1, d + 1):
        for j in range(k + 1, d + 1):
            th, be = theta(k, j, d), beta(k, j, d)
            bond += np.kron(th, th) + np.kron(be, be)
    h = np.zeros((spec.dim, spec.dim), dtype=complex)
    for i, coupling in enumerate(spec.couplings):
        h += (coupling / 2.0) * np.kron(np.kron(np.eye(d**i), bond), np.eye(d ** (n - 2 - i)))
    return h


def _assert_hamiltonians_agree(spec):
    h = build_hamiltonian(spec)
    assert h.dtype == np.float64
    generators = _generator_hamiltonian(spec)
    assert np.array_equal(generators, h)
    assert np.array_equal(generators, _hopping_hamiltonian(spec))


def test_hopping_hamiltonian_is_the_generator_hamiltonian():
    rng = np.random.default_rng(5)
    for d, n in ((2, 2), (2, 5), (3, 3), (4, 2), (5, 3)):
        _assert_hamiltonians_agree(ChainSpec(d=d, n=n))
        _assert_hamiltonians_agree(ChainSpec(d=d, n=n, couplings=rng.uniform(0.1, 2.0, n - 1)))


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_hamiltonian_is_the_generator_sum_for_any_couplings(data):
    d, n = data.draw(st.sampled_from([(d, n) for d, n in SECTOR_CHAINS if d <= 5]))
    # no subnormal couplings: the generator sum halves J_i, which rounds there
    couplings = data.draw(st.lists(st.floats(-10.0, 10.0, allow_subnormal=False),
                                   min_size=n - 1, max_size=n - 1))
    _assert_hamiltonians_agree(ChainSpec(d=d, n=n, couplings=couplings))


def test_hamiltonian_at_the_dimension_cap_is_real_and_small():
    # the generator-product assembly peaked at ~776 MB here; H itself is 128 MB
    tracemalloc.start()
    try:
        h = build_hamiltonian(ChainSpec(d=2, n=12))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 256 * 2**20, peak
    assert h.dtype == np.float64 and h.shape == (4096, 4096)
    assert np.array_equal(h, h.T)


@pytest.mark.parametrize("d, n", SECTOR_CHAINS)
def test_sector_records_match_a_dense_evolution(d, n):
    rng = np.random.default_rng(d * 100 + n)
    amps = rng.normal(size=d) + 1j * rng.normal(size=d)
    amps /= np.linalg.norm(amps)
    spec = ChainSpec(d=d, n=n)
    dense = _DenseEvolution(spec, _hopping_hamiltonian(spec))
    for cut in ["endpoints", *range(1, n)]:
        cfg = ExperimentConfig(chain=spec, input_amplitudes=amps, steps=6,
                               t_total=math.pi, bipartition=cut)
        ket0 = _dense_ket0(cfg)
        for got in run_noiseless(cfg):
            want = _dense_record(cfg, got.step, dense.ket(ket0, got.time), dense.transfer(got.time))
            for name in ("time", "ccnr", "transfer_probability", "fidelity_to_input"):
                assert abs(getattr(got, name) - getattr(want, name)) <= 1e-12, (cut, got.step, name)
            # the square root of a near-zero purity gap amplifies rounding
            for name in ("concurrence", "ccnr_amplified_margin"):
                expect = getattr(want, name)
                tol = 1e-12 if abs(expect) > 1e-3 else 1e-8
                assert abs(getattr(got, name) - expect) <= tol, (cut, got.step, name)


@pytest.mark.parametrize("cut", ["endpoints", 6])
def test_noiseless_run_at_the_dimension_cap_stays_in_the_sector(monkeypatch, cut):
    register_eighs = []
    eigh = np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        if np.shape(a)[-1] == 2**12:
            register_eighs.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    cfg = _config(d=2, n=12, steps=16, bipartition=cut,
                  input_amplitudes=np.array([0.6, 0.8]))
    tracemalloc.start()
    try:
        records, _ = run_experiment(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert register_eighs == []
    assert peak < 4 * 2**20, peak
    assert records[-1].transfer_probability == pytest.approx(1.0, abs=1e-9)
