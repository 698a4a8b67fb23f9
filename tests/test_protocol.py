import math

import numpy as np
import pytest

from qsct.chain import ChainSpec, build_hamiltonian, find_pst_time
from qsct.channels import average_fidelity, embed_channel, phase_damping
from qsct.entanglement import concurrence_pure
from qsct.linalg import Bipartition, partial_trace
from qsct.protocol import (
    ConfigError,
    ExperimentConfig,
    NoiseSpec,
    average_fidelity_comparison,
    conformance_closed_forms,
    gamma_check,
    initial_state,
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
    ket = initial_state(_config(d=3, n=3))
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
    ket = initial_state(cfg)
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
    cfg = _config(steps=2, noise=NoiseSpec(kind="weyl", topology="global_after", pi=pi))
    with pytest.raises(ConfigError, match="noise.pi"):
        run_noisy(cfg)


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
    assert len(register_eighs) == 1
    assert len(searches) == (1 if t_total is None else 0)
    assert (reference is None) == (noise is None)
