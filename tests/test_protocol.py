import ast
import dataclasses
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsct.chain import ChainSpec, Spectrum, find_pst_time
from qsct.channels import apply_weyl_table, phase_damping_table, weyl_table
from qsct.conformance import average_fidelity_comparison, conformance_closed_forms
from qsct.entanglement import (
    amplified_ccnr_margin,
    ccnr,
    concurrence_pure,
    entanglement_level,
    sector_measures,
)
from qsct.linalg import Bipartition, partial_trace
from qsct.protocol import (
    NOISE_TOPOLOGIES,
    ConfigError,
    ExperimentConfig,
    NoiseSpec,
    PreparedReference,
    TransferRecord,
    engine,
    prepare_references,
    run_experiment,
)

from oracles import (
    KrausChannel,
    apply_channel,
    average_fidelity,
    beta,
    build_hamiltonian,
    embed_channel,
    gate_x,
    partial_trace_pure,
    phase_damping,
    schmidt_measures,
    theta,
    weyl_channel,
)


def _config(d=3, n=2, **kwargs):
    amps = kwargs.pop("input_amplitudes", np.full(d, 1.0 / math.sqrt(d)))
    return ExperimentConfig(
        chain=ChainSpec(d=d, n=n),
        input_amplitudes=amps,
        **kwargs,
    )


def _register_ket(alpha, f):
    """The register ket alpha_0 |vac> + sum_{r,s} alpha_r f_s |r on site s>
    of input amplitudes alpha (d) and site amplitudes f (n): level r on site
    s (0-based) sits at index r d^(n-1-s)."""
    d, n = len(alpha), len(f)
    ket = np.zeros(d**n, dtype=np.complex128)
    ket[0] = alpha[0]
    ket[np.outer(np.arange(1, d), d ** np.arange(n - 1, -1, -1))] = np.outer(alpha[1:], f)
    return ket


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


def test_noiseless_profile_rise_and_fall():
    for d in (2, 3):
        records = run_experiment(_config(d=d, steps=16))[0]
        conc = [r.concurrence for r in records]
        assert conc[0] <= 1e-6
        assert conc[-1] <= 1e-6
        assert max(conc) >= 0.4
        assert records[-1].fidelity_to_input >= 1.0 - 1e-6
        assert records[-1].transfer_probability >= 1.0 - 1e-6
        assert all(r.gamma_ok for r in records)


def test_noiseless_record_count_and_times():
    cfg = _config(steps=16)
    records = run_experiment(cfg)[0]
    assert len(records) == 17
    assert records[0].time == 0.0
    assert records[8].time == pytest.approx(records[-1].time / 2.0, abs=1e-12)


def test_noiseless_ground_input_stays_separable():
    amps = np.zeros(3, dtype=complex)
    amps[0] = 1.0
    records = run_experiment(_config(input_amplitudes=amps, steps=8))[0]
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
    records = run_experiment(cfg)[0]
    assert records[0].concurrence <= 1e-10  # product across the 1..N pair at t=0
    assert max(r.concurrence for r in records) > 0.1


@pytest.mark.parametrize("noise", [None, NoiseSpec(kind="phase_damping", topology="interleaved", p=0.6)])
def test_two_site_endpoints_are_cut_one(noise):
    # the pair is the whole register, so its records are cut 1's, bit for bit:
    # pure records take the Schmidt route, not the pair's density matrix
    for d in (2, 3, 5):
        pair, cut = (run_experiment(_config(d=d, steps=8, bipartition=b, noise=noise))
                     for b in ("endpoints", 1))
        assert pair == cut


def test_interior_cut_runs():
    cfg = _config(d=2, n=3, bipartition=2, steps=8)
    records = run_experiment(cfg)[0]
    assert len(records) == 9
    assert max(r.concurrence for r in records) > 0.1


# every noise kind x topology on d=3 n=3; the uniform Weyl tables have shifts
RUN_NOISES = [None,
              *(NoiseSpec(kind="phase_damping", topology=t, p=0.7) for t in NOISE_TOPOLOGIES),
              *(NoiseSpec(kind="weyl", topology=t, pi=np.full((size, size), 1.0 / size**2))
                for t, size in (("local_after", 3), ("global_after", 27), ("interleaved", 3)))]


@pytest.mark.parametrize("bipartition", ["endpoints", 1])
@pytest.mark.parametrize("noise", RUN_NOISES)
def test_run_functions_return_the_records_of_run_experiment(noise, bipartition):
    # t_total is left to the transfer-time search, which each call repeats: a
    # noisy run's reference is the records of its config without the noise
    cfg = _config(d=3, n=3, steps=4, bipartition=bipartition, noise=noise)
    records, reference = run_experiment(cfg)
    assert run_experiment(cfg) == (records, reference)
    if noise is None:
        assert reference is None
    else:
        assert run_experiment(dataclasses.replace(cfg, noise=None)) == (reference, None)
        assert records != reference


def test_gamma_flag_is_inclusive():
    cfg = _config(d=3, n=3, steps=8, t_total=2.0,
                  noise=NoiseSpec(kind="phase_damping", topology="interleaved", p=0.6))
    records, reference = run_experiment(cfg)
    tol = max(abs(r.concurrence - ref.concurrence) for r, ref in zip(records, reference))
    assert tol > 0.0
    records, _ = run_experiment(dataclasses.replace(cfg, gamma_tolerance=tol))
    assert all(r.gamma_ok for r in records)
    records, _ = run_experiment(dataclasses.replace(cfg, gamma_tolerance=np.nextafter(tol, 0.0)))
    assert not all(r.gamma_ok for r in records)


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
    coarse = run_experiment(_config(steps=16))[0]
    fine = run_experiment(_config(steps=160))[0]
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
    u = (v * np.exp(-1j * find_pst_time(Spectrum(spec))[0] * w)) @ v.conj().T
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
    # the column as conformance.md prints it
    assert [f"{row['trace_formula']:.6f}" for row in rows] == [
        "0.128442", "0.136328", "0.173366", "0.200000"]
    # the two columns genuinely disagree; both are reported
    for row in rows:
        assert abs(row["trace_formula"] - row["closed_profile"]) > 0.1


# a local table that shifts levels: row m = 1 carries weight
SHIFTING_PI = np.array([[0.8, 0.1], [0.1, 0.0]])


@pytest.mark.parametrize("noise", [
    None,
    NoiseSpec(kind="phase_damping", topology="interleaved", p=0.6),
    NoiseSpec(kind="phase_damping", topology="local_after", p=0.6),
    NoiseSpec(kind="weyl", topology="interleaved", pi=SHIFTING_PI),
])
@pytest.mark.parametrize("t_total", [None, 2.0])
def test_one_register_eigh_per_experiment(monkeypatch, noise, t_total):
    # an experiment diagonalises its chain once: J (3 x 3) when its Spectrum
    # is built, beside which the vacuum's 1 x 1 block is held. Interleaved
    # noise steps rho on the sector or (the Weyl case, with shifts) on the
    # register, whose blocks here are only those two partitions of n = 3, so
    # it takes no eigh; no eigh is register-sized
    import qsct.protocol

    cfg = _config(d=2, n=3, steps=4, bipartition="endpoints", noise=noise, t_total=t_total)
    eigh, find = np.linalg.eigh, qsct.protocol.find_pst_time
    eighs, searches = [], []

    def counting_eigh(a, *args, **kwargs):
        eighs.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    def counting_find(*args, **kwargs):
        searches.append(args)
        return find(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    monkeypatch.setattr(qsct.protocol, "find_pst_time", counting_find)
    records, reference = run_experiment(cfg)
    assert eighs == [(3, 3)]
    assert len(searches) == (1 if t_total is None else 0)
    assert (reference is None) == (noise is None)


def test_a_dense_run_takes_one_eigh_per_partition(monkeypatch):
    # d=3, n=6: 28 level-count blocks of 7 partitions of 6, one eigh each
    # but the vacuum's, which is held (J, of (5, 1), is taken when the
    # Spectrum is built); the largest, (2, 2, 2), has 90 states, and the
    # 729 x 729 register is never handed to eigh
    import qsct.chain

    cfg = _config(d=3, n=6, steps=2, t_total=1.0, bipartition="endpoints",
                  input_amplitudes=np.array([0.6, 0.0, 0.8]),
                  noise=NoiseSpec(kind="weyl", topology="interleaved",
                                  pi=[[0.8, 0.05, 0.0], [0.1, 0.0, 0.0], [0.05, 0.0, 0.0]]))
    assert engine(cfg) == "dense"
    eigh, shapes = np.linalg.eigh, []

    def counting_eigh(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(qsct.chain.np.linalg, "eigh", counting_eigh)
    run_experiment(cfg)
    assert sorted(shapes) == [(b, b) for b in (6, 15, 20, 30, 60, 90)]


def test_runs_that_share_a_twin_leave_it_as_it_was():
    # noise, seed and gamma_tolerance are not part of the twin; the cut is
    noiseless = _config(d=3, n=3, steps=6, t_total=2.0)
    configs = [noiseless,
               dataclasses.replace(noiseless, seed=5, gamma_tolerance=0.5,
                                   noise=NoiseSpec(kind="phase_damping", topology="interleaved",
                                                   p=0.5)),
               dataclasses.replace(noiseless, noise=NoiseSpec(kind="phase_damping",
                                                              topology="local_after", p=0.5)),
               dataclasses.replace(noiseless, bipartition=2)]
    prepared = prepare_references(configs)
    assert prepared[0] is prepared[1] is prepared[2] is not prepared[3]
    assert prepared[0].spectrum is prepared[3].spectrum
    kept = [dataclasses.replace(record) for record in prepared[0].records]
    for config, twin in zip(configs, prepared):
        records, reference = run_experiment(config, twin)
        assert (records, reference) == run_experiment(config)
        assert all(a is b for a, b in zip(reference or records, twin.records, strict=True))
        for record in records + (reference or []):
            with pytest.raises(dataclasses.FrozenInstanceError):
                record.ccnr = math.nan
            with pytest.raises(dataclasses.FrozenInstanceError):
                record.gamma_ok = False
    assert list(prepared[0].records) == kept
    with pytest.raises(ValueError, match="prepared"):
        run_experiment(configs[3], prepared[0])


@pytest.mark.parametrize("topology", ["interleaved", "local_after"])
def test_pre_channel_records_are_the_twins_own(topology):
    # at t = 2 the pair is entangled, and dephasing moves its level by far
    # more than the tolerance
    cfg = _config(steps=8, t_total=2.0,
                  noise=NoiseSpec(kind="phase_damping", topology=topology, p=0.5))
    records, reference = run_experiment(cfg)
    first = 1 if topology == "interleaved" else cfg.steps
    assert any(not r.gamma_ok for r in records)
    assert all(r.gamma_ok for r in reference)
    # records are frozen, so a run hands out its twin's own objects up to
    # its first channel, and measures its own from there
    assert all(a is b for a, b in zip(records[:first], reference[:first]))
    assert all(a is not b for a, b in zip(records[first:], reference[first:]))


def _with_nan(values):
    """values with NaN at a stack's third-last and last states."""
    values = np.array(values, dtype=float)
    values[[-3, -1]] = math.nan
    return values


def _poison_sector_measures(monkeypatch, column, poisoned):
    """qsct.protocol.sector_measures with one column of the three made NaN by
    _with_nan in each stack for which poisoned(states) holds."""
    def poisoning(states, *args, **kwargs):
        values = list(sector_measures(states, *args, **kwargs))
        if poisoned(states):
            values[column] = _with_nan(values[column])
        return tuple(values)

    monkeypatch.setattr("qsct.protocol.sector_measures", poisoning)


# Each run below is of 8 steps measured in one stack, so the stack's
# third-last and last states are steps 6 and 8, and measure names step 6.
NON_FINITE = r"^non-finite value in step 6$"


def test_a_non_finite_reference_is_refused_by_every_run(monkeypatch):
    # the twin's sector kets measure NaN: no run returns its records
    _poison_sector_measures(monkeypatch, 0, lambda states: states.ndim == 2)
    cfg = _config(steps=8, noise=NoiseSpec(kind="phase_damping", topology="interleaved", p=0.5))
    for run in (run_experiment,
                lambda config: run_experiment(dataclasses.replace(config, noise=None))):
        with pytest.raises(FloatingPointError, match=NON_FINITE):
            run(cfg)


def test_a_non_finite_sector_rho_record_is_refused(monkeypatch):
    # phase damping keeps rho on the sector; its level measures NaN
    _poison_sector_measures(monkeypatch, 2, lambda states: states.ndim == 3)
    cfg = _config(steps=8, noise=NoiseSpec(kind="phase_damping", topology="interleaved", p=0.5))
    assert engine(cfg) == "sector"
    with pytest.raises(FloatingPointError, match=NON_FINITE):
        run_experiment(cfg)
    assert len(run_experiment(dataclasses.replace(cfg, noise=None))[0]) == 9


def test_a_non_finite_register_rho_record_is_refused(monkeypatch):
    # a Weyl table with shifts carries rho on the register, measured by ccnr
    monkeypatch.setattr("qsct.protocol.ccnr", lambda rho, part: _with_nan(ccnr(rho, part)))
    pi = np.zeros((3, 3))
    pi[0, 0], pi[1, 0] = 0.9, 0.1
    cfg = _config(steps=8, noise=NoiseSpec(kind="weyl", topology="interleaved", pi=pi))
    assert engine(cfg) == "dense"
    with pytest.raises(FloatingPointError, match=NON_FINITE):
        run_experiment(cfg)
    assert len(run_experiment(dataclasses.replace(cfg, noise=None))[0]) == 9


def test_prepare_references_names_the_configs_of_a_non_finite_twin(monkeypatch):
    # only the d = 3, n = 2 twin (5 sector states) measures NaN; the d = 2,
    # n = 3 chain's twin (4 sector states) is prepared first
    _poison_sector_measures(monkeypatch, 1, lambda states: states.shape[-1] == 5)
    twin = _config(steps=8)
    configs = [_config(d=2, n=3, steps=8), twin,
               dataclasses.replace(twin, noise=NoiseSpec(kind="phase_damping",
                                                         topology="local_after", p=0.5)),
               _config(d=2, n=3, steps=8, seed=1), dataclasses.replace(twin, seed=4)]
    with pytest.raises(FloatingPointError, match=NON_FINITE) as caught:
        prepare_references(configs)
    assert caught.value.configs == (1, 2, 4)


def _weyl_config(d, topology, pi):
    return ExperimentConfig(chain=ChainSpec(d=d, n=2), input_amplitudes=np.eye(d)[1],
                            noise=NoiseSpec(kind="weyl", topology=topology, pi=pi))


@st.composite
def _weyl_tables(draw):
    """(d, topology, pi): a probability table that weights row m = 0 and, by
    the draw, no other row, rows with positive weight, or rows whose entries
    sit at the -1e-15 that the validation lets pass and weyl_table clips."""
    d = draw(st.integers(2, 4))
    topology = draw(st.sampled_from(NOISE_TOPOLOGIES))
    size = d * d if topology == "global_after" else d
    weight = st.floats(0.0, 1.0, allow_subnormal=False)
    off = draw(st.sampled_from(["zero", "tiny", "weighted"]))
    pi = np.zeros((size, size))
    if off == "tiny":
        pi[1:] = np.where(draw(st.lists(st.booleans(), min_size=(size - 1) * size,
                                        max_size=(size - 1) * size)), -1e-15, 0.0
                          ).reshape(size - 1, size)
    elif off == "weighted":
        pi[1:] = np.reshape(draw(st.lists(weight, min_size=(size - 1) * size,
                                          max_size=(size - 1) * size)), (size - 1, size))
    row0 = np.array(draw(st.lists(weight, min_size=size, max_size=size)))
    row0[draw(st.integers(0, size - 1))] += 0.5
    total = row0.sum() + pi[1:][pi[1:] > 0].sum()
    pi[0] = row0 / total
    pi[1:] = np.where(pi[1:] > 0, pi[1:] / total, pi[1:])
    return d, topology, pi


@settings(max_examples=200, deadline=None)
@given(_weyl_tables())
def test_engine_reads_the_config_as_the_table_does(drawn):
    d, topology, pi = drawn
    config = _weyl_config(d, topology, pi)
    assert (engine(config) == "sector") == (weyl_table(config.noise.pi).shifts == (0,))


def test_engine_of_tables_at_the_clip():
    # off-row entries of -1e-15 pass the validation and clip to 0: no shift
    pi = np.array([[0.5, 0.5 + 2e-15], [-1e-15, -1e-15]])
    assert weyl_table(pi).shifts == (0,)
    assert engine(_weyl_config(2, "interleaved", pi)) == "sector"
    pi = np.array([[0.5, 0.5 - 1e-15], [1e-15, 0.0]])
    assert weyl_table(pi).shifts == (0, 1)
    assert engine(_weyl_config(2, "interleaved", pi)) == "dense"


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
        src, dst = self.spec.d ** (self.spec.n - 1), 1  # level 1 on site 1, on site N
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


def _dense_noisy_states(config, dense, channel):
    """(step, state) of the noisy run on a dense evolution: the register ket
    before the first channel application, then the register density matrix,
    stepped by dense.unitary and acted on by `channel`."""
    dt = config.t_total / config.steps
    ket0 = _dense_ket0(config)
    first = 1 if config.noise.topology == "interleaved" else config.steps
    states = [(k, dense.ket(ket0, k * dt)) for k in range(first)]
    ket = dense.ket(ket0, first * dt)
    rho = channel(np.outer(ket, ket.conj()))
    states.append((first, rho))
    u = dense.unitary(dt) if first < config.steps else None
    for k in range(first + 1, config.steps + 1):
        rho = channel(u @ rho @ u.conj().T)
        states.append((k, rho))
    return states


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
    states = _dense_noisy_states(config, dense, lambda rho: apply_channel(rho, channel))
    return [_dense_record(config, k, state, dense.transfer(k * dt)) for k, state in states]


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
    products of the generator matrices (complex). The halving is applied to
    the generator sum, whose entries are 0 and 2, so it is exact for every
    J_i; halving J_i itself rounds below twice the smallest normal double."""
    d, n = spec.d, spec.n
    bond = np.zeros((d * d, d * d), dtype=complex)
    for k in range(1, d + 1):
        for j in range(k + 1, d + 1):
            th, be = theta(k, j, d), beta(k, j, d)
            bond += np.kron(th, th) + np.kron(be, be)
    h = np.zeros((spec.dim, spec.dim), dtype=complex)
    for i, coupling in enumerate(spec.couplings):
        h += coupling * np.kron(np.kron(np.eye(d**i), bond / 2.0), np.eye(d ** (n - 2 - i)))
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
    couplings = data.draw(st.lists(st.floats(-10.0, 10.0), min_size=n - 1, max_size=n - 1))
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


def _assert_records_match(got, want, where):
    """Every column to 1e-12; the concurrence and the margin to 1e-8 where the
    dense value is below 1e-3, since the square root of a near-zero purity
    gap amplifies rounding."""
    for name in ("time", "ccnr", "transfer_probability", "fidelity_to_input"):
        assert abs(getattr(got, name) - getattr(want, name)) <= 1e-12, (*where, name)
    for name in ("concurrence", "ccnr_amplified_margin"):
        expect = getattr(want, name)
        tol = 1e-12 if abs(expect) > 1e-3 else 1e-8
        assert abs(getattr(got, name) - expect) <= tol, (*where, name)


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
        for got in run_experiment(cfg)[0]:
            want = _dense_record(cfg, got.step, dense.ket(ket0, got.time), dense.transfer(got.time))
            _assert_records_match(got, want, (cut, got.step))


@pytest.mark.parametrize("d, n", SECTOR_CHAINS)
def test_measure_of_a_sector_ket_matches_its_density_matrix(d, n):
    # one routine measures both: the ket in closed form and through ket
    # partial traces, its density matrix through the compressed realigned
    # matrices and density-matrix partial traces. Across a chain cut, and on
    # the pair that two sites form, a ket's margin is its concurrence c and
    # its ccnr 1 + c, bit for bit.
    rng = np.random.default_rng(d * 100 + n)
    amps = rng.normal(size=d) + 1j * rng.normal(size=d)
    spec = ChainSpec(d=d, n=n)
    spectrum = Spectrum(spec)
    for cut in ["endpoints", *range(1, n)]:
        cfg = ExperimentConfig(chain=spec, input_amplitudes=amps / np.linalg.norm(amps), steps=4,
                               t_total=2.0, bipartition=cut)
        twin = PreparedReference(cfg, spectrum)
        for k in range(cfg.steps + 1):
            ket = twin.sector_ket(k * twin.dt)
            (record,) = twin.measure(k, ket[None])
            (from_rho,) = twin.measure(k, np.outer(ket, ket.conj())[None])
            _assert_records_match(record, from_rho, (cut, k))
            if cut != "endpoints" or n == 2:
                assert record.ccnr_amplified_margin == record.concurrence, (cut, k)
                assert record.ccnr == 1.0 + record.concurrence, (cut, k)


def test_prepared_reference_refuses_the_spectrum_of_another_chain():
    # a twin measured on another chain's dynamics would pass as this
    # config's: on the engineered chain the last transfer probability reads
    # 1 - 1e-11, where this chain's own is 0.1133
    chain = ChainSpec(d=2, n=5, couplings=[1.0, 0.3, 0.7, 1.0])
    cfg = ExperimentConfig(chain=chain, input_amplitudes=np.array([0.6, 0.8]), steps=4,
                           t_total=math.pi)
    for other in (ChainSpec(d=2, n=5), ChainSpec(d=3, n=5, couplings=chain.couplings),
                  ChainSpec(d=2, n=4, couplings=chain.couplings[:3])):
        with pytest.raises(ValueError, match=r"^spectrum: the spectrum of another chain$"):
            PreparedReference(cfg, Spectrum(other))
    # the same chain, built apart, is no other chain
    twin = PreparedReference(cfg, Spectrum(ChainSpec(d=2, n=5, couplings=[1.0, 0.3, 0.7, 1.0])))
    records, _ = run_experiment(cfg, twin)
    assert records == run_experiment(cfg)[0]
    assert records[-1].transfer_probability == pytest.approx(0.1133, abs=1e-4)


def _dense_cut(cut, n):
    """The bipartition's dense measures: 0 for the endpoint pair, c for cut c;
    on two sites the pair is cut 1."""
    return (1 if n == 2 else 0) if cut == "endpoints" else cut


@pytest.mark.parametrize("d, n", SECTOR_CHAINS)
def test_sector_density_records_match_a_dense_evolution(d, n):
    # The sector engine against apply_weyl_table on the register rho of the
    # test-local evolution, for every shift-free table the runs use: phase
    # damping under each topology at p = 0, 0.37 and 1, and a local Weyl table
    # weighted on row 0 only. t_total = 2 keeps the endpoint pair away from
    # the product state it nears at pi. The dense measures of one state take
    # up to ~1 s over the cuts of a 729-level register, so above 64 levels
    # each bipartition takes one noise case, in turn; every case still meets
    # several such chains. On two sites the endpoint pair is cut 1, and one
    # dense record serves both.
    rng = np.random.default_rng(d * 100 + n)
    amps = rng.normal(size=d) + 1j * rng.normal(size=d)
    amps /= np.linalg.norm(amps)
    spec = ChainSpec(d=d, n=n)
    dense = _DenseEvolution(spec, _hopping_hamiltonian(spec))
    row0 = np.zeros((d, d))
    row0[0] = rng.random(d) + 0.1
    noises = [NoiseSpec(kind="phase_damping", topology=topology, p=p)
              for topology in NOISE_TOPOLOGIES for p in (0.0, 0.37, 1.0)]
    noises.append(NoiseSpec(kind="weyl", topology="interleaved", pi=row0 / row0.sum()))
    bipartitions = ["endpoints", *range(1, n)]
    for i, noise in enumerate(noises):
        cuts = [cut for cut in bipartitions
                if spec.dim <= 64 or (d + n + _dense_cut(cut, n)) % len(noises) == i]
        if not cuts:
            continue
        dims = (spec.dim,) if noise.topology == "global_after" else spec.dims
        table = (weyl_table(noise.pi) if noise.kind == "weyl"
                 else phase_damping_table(dims[0], noise.p))
        config = ExperimentConfig(chain=spec, input_amplitudes=amps, steps=2, t_total=2.0,
                                  noise=noise)
        assert engine(config) == "sector"
        dt = config.t_total / config.steps
        first = 1 if noise.topology == "interleaved" else config.steps
        states = _dense_noisy_states(config, dense, lambda rho: apply_weyl_table(rho, table, dims))
        wants = {}
        for cut in cuts:
            cut_config = dataclasses.replace(config, bipartition=cut)
            records = run_experiment(cut_config)[0]
            for k, rho in states[first:]:
                key = (k, _dense_cut(cut, n))
                if key not in wants:
                    wants[key] = _dense_record(cut_config, k, rho, dense.transfer(k * dt))
                _assert_records_match(records[k], wants[key], (noise.kind, noise.topology, noise.p, cut, k))


def _capture_sector_measures(monkeypatch):
    """Record every (state, values) that protocol passes through sector_measures,
    state by state of each stack."""
    import qsct.protocol

    calls = []
    measure = qsct.protocol.sector_measures

    def capturing(states, cut, kets=False):
        values = measure(states, cut, kets=kets)
        calls.extend(zip(states.copy(), zip(*(v.tolist() for v in values))))
        return values

    monkeypatch.setattr(qsct.protocol, "sector_measures", capturing)
    return calls


def _endpoint_config(d, noise, steps=8):
    rng = np.random.default_rng(d)
    amps = rng.normal(size=d) + 1j * rng.normal(size=d)
    return ExperimentConfig(chain=ChainSpec(d=d, n=3), input_amplitudes=amps / np.linalg.norm(amps),
                            steps=steps, t_total=math.pi, bipartition="endpoints", noise=noise)


INTERLEAVED_DEPHASING = NoiseSpec(kind="phase_damping", topology="interleaved", p=0.9)


@pytest.mark.parametrize("noise", [None, INTERLEAVED_DEPHASING])
@pytest.mark.parametrize("d", [5, 8, 16])
def test_endpoint_pair_measures_match_the_register_pair(monkeypatch, d, noise):
    # Each record measures the endpoint pair on its (2d-1)-state sector basis
    # (vac, level r on site 1, level r on site N). Scattered to |00>, |r0> and
    # |0r> of the d^2-level pair, the register measures must agree: to 1e-12,
    # or 1e-8 for the concurrence and margin below 1e-3, where the square
    # root of a near-zero purity gap amplifies rounding.
    calls = _capture_sector_measures(monkeypatch)
    records, reference = run_experiment(_endpoint_config(d, noise))
    # the reference's records, then the noisy run's measured (not copied) ones
    measured = records if reference is None else reference + records[1:]
    assert [(r.ccnr, r.ccnr_amplified_margin, r.concurrence) for r in measured] == [v for _, v in calls]
    at = np.r_[0, np.arange(1, d) * d, np.arange(1, d)]
    part = Bipartition(d, d)
    for step, (pair, values) in enumerate(calls):
        assert pair.shape == (2 * d - 1, 2 * d - 1)
        rho = np.zeros((d * d, d * d), dtype=complex)
        rho[np.ix_(at, at)] = pair
        want = (ccnr(rho, part), amplified_ccnr_margin(rho, part), entanglement_level(rho, part))
        for name, got, expect, small in zip(("ccnr", "margin", "level"), values, want, (False, True, True)):
            tol = 1e-8 if small and abs(expect) <= 1e-3 else 1e-12
            assert abs(got - expect) <= tol, (step, name, got, expect)


def _record_svds(monkeypatch):
    """Record the shape of every np.linalg.svd call."""
    shapes = []
    svd = np.linalg.svd

    def recording(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    return shapes


def test_endpoint_measures_at_d16_take_no_wide_svd(monkeypatch):
    # the register pair would take SVDs of 256 x 256 realigned matrices
    svds = _record_svds(monkeypatch)
    for noise in (None, INTERLEAVED_DEPHASING):
        run_experiment(_endpoint_config(16, noise, steps=4))
    assert svds and max(max(shape) for shape in svds) <= 2 * 16


def _register_eighs_and_peak(monkeypatch, cfg):
    """Run cfg; return its records, the shapes of the register-sized eighs it
    called, and its tracemalloc peak in bytes."""
    register_eighs = []
    eigh = np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        if np.shape(a)[-1] == cfg.chain.dim:
            register_eighs.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    tracemalloc.start()
    try:
        records, _ = run_experiment(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return records, register_eighs, peak


@pytest.mark.parametrize("cut", ["endpoints", 6])
def test_noiseless_run_at_the_dimension_cap_stays_in_the_sector(monkeypatch, cut):
    # across a chain cut the ket is measured in closed form, with no SVD; the
    # endpoint pair is a density matrix, measured on its compressed matrices
    cfg = _config(d=2, n=12, steps=16, bipartition=cut,
                  input_amplitudes=np.array([0.6, 0.8]))
    svds = _record_svds(monkeypatch)
    records, register_eighs, peak = _register_eighs_and_peak(monkeypatch, cfg)
    assert register_eighs == []
    assert peak < 4 * 2**20, peak
    assert records[-1].transfer_probability == pytest.approx(1.0, abs=1e-9)
    if cut == 6:
        assert svds == []


def test_conformance_report_takes_no_svd(monkeypatch):
    # every ket of the report is measured by sector_concurrence's closed form
    svds = _record_svds(monkeypatch)
    conformance_closed_forms()
    assert svds == []


def test_conformance_takes_only_public_protocol_names():
    # the report reads the sector kets of the twin a run builds, through its
    # public class
    import qsct.conformance

    tree = ast.parse(Path(qsct.conformance.__file__).read_text(encoding="utf-8"))
    names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
             and (node.module, node.level) in (("protocol", 1), ("qsct.protocol", 0))
             for alias in node.names]
    assert "PreparedReference" in names
    assert not [name for name in names if name.startswith("_")]


def test_chain_cut_measures_read_the_normalized_input():
    # the config accepts a norm off by up to 1e-10: the measures are those
    # of the normalized input, to rounding
    amps = np.array([0.6, 0.8, 0.0])
    for cut in (1, 2, 3):
        exact = run_experiment(_config(d=3, n=4, steps=8, t_total=2.0, bipartition=cut,
                                       input_amplitudes=amps))[0]
        off = run_experiment(_config(d=3, n=4, steps=8, t_total=2.0, bipartition=cut,
                                     input_amplitudes=amps * (1.0 + 5e-11)))[0]
        for got, want in zip(off, exact):
            for name in ("ccnr", "ccnr_amplified_margin", "concurrence"):
                assert abs(getattr(got, name) - getattr(want, name)) <= 1e-15, (cut, got.step, name)


@pytest.mark.parametrize("noise", [
    None,
    NoiseSpec(kind="phase_damping", topology="interleaved", p=0.6),
    NoiseSpec(kind="weyl", topology="interleaved", pi=[[0.8, 0.05, 0.0], [0.1, 0.0, 0.0],
                                                       [0.05, 0.0, 0.0]]),
])
def test_every_record_reads_the_normalized_input(noise):
    # the config accepts a norm off by up to 1e-10; at the transfer time the
    # unnormalized input's fidelity would be its norm squared, above 1
    amps = np.array([0.6, 0.8, 0.0])
    assert np.linalg.norm(amps) == 1.0
    exact, off = (run_experiment(_config(d=3, n=4, steps=4, bipartition="endpoints",
                                         input_amplitudes=a, noise=noise))
                  for a in (amps, amps * (1.0 + 5e-11)))
    for got_set, want_set in zip(off, exact):
        for got, want in zip(got_set or [], want_set or []):
            assert got.fidelity_to_input <= 1.0 + 1e-15, got
            for name in ("ccnr", "ccnr_amplified_margin", "concurrence",
                         "transfer_probability", "fidelity_to_input"):
                assert abs(getattr(got, name) - getattr(want, name)) <= 1e-15, (got.step, name)


@pytest.mark.parametrize("cut", ["endpoints", 6])
def test_dephasing_run_at_the_dimension_cap_stays_in_the_sector(monkeypatch, cut):
    # a register rho would be 268 MB here, and its eigh alone ~16 s
    cfg = _config(d=2, n=12, steps=16, bipartition=cut, input_amplitudes=np.array([0.6, 0.8]),
                  noise=NoiseSpec(kind="phase_damping", topology="interleaved", p=0.9))
    records, register_eighs, peak = _register_eighs_and_peak(monkeypatch, cfg)
    assert register_eighs == []
    assert peak < 4 * 2**20, peak
    assert engine(cfg) == "sector"
    assert 0.0 < records[-1].transfer_probability < 1.0


def test_pure_noisy_record_at_a_cut_needs_no_register_eigh(monkeypatch):
    # p = 1 is the identity: rho stays globally pure, so its level comes from
    # the dominant eigenvector, of the 10 x 10 sector rho rather than the
    # 512 x 512 register rho
    cfg = _config(d=2, n=9, steps=4, bipartition=4, input_amplitudes=np.array([0.6, 0.8]),
                  noise=NoiseSpec(kind="phase_damping", topology="global_after", p=1.0))
    records, register_eighs, _ = _register_eighs_and_peak(monkeypatch, cfg)
    assert register_eighs == []
    reference = run_experiment(dataclasses.replace(cfg, noise=None))[0]
    assert records[-1].concurrence == pytest.approx(reference[-1].concurrence, abs=1e-12)


# Stacked measures: a run's states are measured in stacks of at most
# protocol._STACK_BYTES bytes, one call of each measure per stack.

WEYL_SHIFTING = NoiseSpec(kind="weyl", topology="interleaved",
                          pi=[[0.8, 0.05, 0.0], [0.1, 0.0, 0.0], [0.05, 0.0, 0.0]])
# all the weight on the shift X: a deterministic unitary error
UNITARY_SHIFT = NoiseSpec(kind="weyl", topology="interleaved",
                          pi=[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])


@pytest.mark.parametrize("states", [1, 2, 3])
@pytest.mark.parametrize("cut", ["endpoints", 2])
@pytest.mark.parametrize("noise", [None, INTERLEAVED_DEPHASING, WEYL_SHIFTING, UNITARY_SHIFT])
def test_records_do_not_depend_on_the_stack_size(monkeypatch, noise, cut, states):
    # a budget of 1, 2 or 3 states (the kets of a noiseless run, the sector
    # or register density matrices of a noisy one) against one stack; the
    # endpoint pair is pure at t = 0, and under the unitary shift every
    # register state is pure
    import qsct.protocol

    cfg = _config(d=3, n=3, steps=7, t_total=2.0, bipartition=cut, noise=noise,
                  input_amplitudes=np.array([0.6, 0.0, 0.8]))
    whole = run_experiment(cfg)
    size = (cfg.chain.dim if engine(cfg) == "dense" else 1 + 2 * 3) ** (1 if noise is None else 2)
    monkeypatch.setattr(qsct.protocol, "_STACK_BYTES", states * 16 * size)
    assert run_experiment(cfg) == whole


def test_a_long_dephasing_run_takes_four_svds_at_most(monkeypatch):
    # 65 reference kets and 64 sector density matrices: each a single stack
    svds = _record_svds(monkeypatch)
    cfg = _config(d=2, n=7, steps=64, t_total=math.pi, bipartition="endpoints",
                  input_amplitudes=np.array([0.6, 0.8]),
                  noise=NoiseSpec(kind="phase_damping", topology="interleaved", p=0.95))
    run_experiment(cfg)
    assert len(svds) <= 4, svds


def test_a_dense_run_takes_two_svds_per_stack(monkeypatch):
    # ccnr and the amplified margin of the register stack; the chain-cut
    # reference kets take none
    import qsct.protocol

    cfg = _config(d=3, n=3, steps=16, t_total=2.0, bipartition=1, noise=WEYL_SHIFTING,
                  input_amplitudes=np.array([0.6, 0.0, 0.8]))
    assert engine(cfg) == "dense"
    for states, stacks in ((16, 1), (5, 4)):
        monkeypatch.setattr(qsct.protocol, "_STACK_BYTES", states * 16 * 27**2)
        svds = _record_svds(monkeypatch)
        run_experiment(cfg)
        assert len(svds) <= 2 * stacks, (states, svds)
        assert all(shape[0] <= states for shape in svds), svds


# Pure states. A globally pure state's level is read from one column of its
# rho (entanglement._pure_vector), so no run hands np.linalg.eigh a complex
# matrix. A Weyl table with all its weight on the shift X is a deterministic
# unitary error: every state of its dense run stays pure.


def _unitary_shift_noise(topology, chain):
    size = chain.dim if topology == "global_after" else chain.d
    pi = np.zeros((size, size))
    pi[1, 0] = 1.0
    return NoiseSpec(kind="weyl", topology=topology, pi=pi)


@pytest.mark.parametrize("cut", ["endpoints", 1])
@pytest.mark.parametrize("kind, topology", [(None, None), *NOISE_CASES,
                                            *(("unitary_shift", t) for t in NOISE_TOPOLOGIES)])
def test_no_run_calls_eigh_on_a_complex_matrix(monkeypatch, kind, topology, cut):
    # every engine, topology and cut: the only eighs are Spectrum's, of the
    # real J and the real hopping matrices of the register's blocks. The
    # transfer time is searched, so the endpoint pair is pure at t = 0 and at
    # the last step.
    chain = ChainSpec(d=3, n=3)
    if kind is None:
        noise = None
    elif kind == "unitary_shift":
        noise = _unitary_shift_noise(topology, chain)
    else:
        noise = _noise(kind, topology, chain, np.random.default_rng(3))
    cfg = _config(d=3, n=3, steps=4, bipartition=cut, noise=noise,
                  input_amplitudes=np.array([0.6, 0.0, 0.8]))
    assert engine(cfg) == ("sector" if kind in (None, "phase_damping") else "dense")
    eigh, shapes, complex_shapes = np.linalg.eigh, [], []

    def counting_eigh(a, *args, **kwargs):
        shapes.append(np.shape(a))
        if np.iscomplexobj(a):
            complex_shapes.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    run_experiment(cfg)
    assert shapes and complex_shapes == []


@pytest.mark.parametrize("topology", NOISE_TOPOLOGIES)
def test_unitary_shift_records_meet_the_pure_state_identities(topology):
    # a second route for the dense run's pure states: across the chain cut,
    # ccnr is (sum s)^2 of the register ket's Schmidt coefficients s, and
    # the margin is ccnr - 1; the kets come from the register's own eigh
    d, n, cut = 3, 4, 2
    chain = ChainSpec(d=d, n=n)
    cfg = _config(d=d, n=n, steps=8, t_total=2.0, bipartition=cut,
                  input_amplitudes=np.array([0.6, 0.48j, 0.64]),
                  noise=_unitary_shift_noise(topology, chain))
    assert engine(cfg) == "dense"
    records, _ = run_experiment(cfg)
    shift = gate_x(chain.dim)
    if topology != "global_after":
        shift = np.ones((1, 1))
        for _ in range(n):
            shift = np.kron(shift, gate_x(d))
    dense = _DenseEvolution(chain, build_hamiltonian(chain))
    dt = cfg.t_total / cfg.steps
    first = 1 if topology == "interleaved" else cfg.steps
    kets = [dense.ket(_dense_ket0(cfg), k * dt) for k in range(first + 1)]
    kets[first] = shift @ kets[first]
    u_step = dense.unitary(dt)
    while len(kets) <= cfg.steps:
        kets.append(shift @ (u_step @ kets[-1]))
    assert len(records) == len(kets)
    for record, ket in zip(records, kets):
        s = np.linalg.svd(ket.reshape(d**cut, d ** (n - cut)), compute_uv=False)
        assert abs(record.ccnr - s.sum() ** 2) <= 1e-12, record
        assert abs(record.ccnr_amplified_margin - (record.ccnr - 1.0)) <= 1e-12, record
