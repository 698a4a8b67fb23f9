"""End-to-end acceptance checks.

Each test prints one pass/fail line (run with -s or -rA to see them all).
Numbered tolerances and runtime budgets are part of the contract; see README.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from qsct.chain import (
    ChainSpec,
    Spectrum,
    find_pst_time,
)
from qsct.cli import main
from qsct.conformance import closed_form_l2_d3, conformance_closed_forms
from qsct.entanglement import ccnr, concurrence_pure
from qsct.linalg import Bipartition
from qsct.protocol import ExperimentConfig, NoiseSpec, run_experiment

from oracles import (
    apply_channel,
    average_fidelity,
    average_fidelity_monte_carlo,
    build_hamiltonian,
    closed_form_l2_d2,
    commutator_defect,
    embed_channel,
    generator_set,
    golden_max,
    phase_damping,
    weyl_channel,
)


@contextmanager
def criterion(num, label, budget=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d} [{label}]: FAIL")
        raise
    elapsed = time.perf_counter() - start
    verdict = "PASS" if budget is None or elapsed <= budget else "FAIL"
    print(f"criterion {num:2d} [{label}]: {verdict} ({elapsed:.2f}s)")
    if budget is not None:
        assert elapsed <= budget, f"runtime {elapsed:.2f}s exceeds {budget}s budget"


def _plus_state(d):
    return np.full(d, 1.0 / math.sqrt(d), dtype=complex)


def _evolved_kets(spec, times, amplitudes):
    eigvals, eigvecs = np.linalg.eigh(build_hamiltonian(spec))
    ground = np.zeros(spec.d, dtype=complex)
    ground[0] = 1.0
    ket0 = amplitudes
    for _ in range(spec.n - 1):
        ket0 = np.kron(ket0, ground)
    mixed = eigvecs.conj().T @ ket0
    for t in times:
        yield eigvecs @ (np.exp(-1j * eigvals * t) * mixed)


def test_criterion_01_generator_suite():
    with criterion(1, "generator suite", budget=1.0):
        for d in (2, 3, 4, 5):
            gs = generator_set(d)
            mats = gs.matrices()
            assert len(mats) == d * d - 1
            for g in mats:
                assert np.max(np.abs(g - g.conj().T)) <= 1e-12
                assert abs(np.trace(g)) <= 1e-12
            gram = np.array([[np.trace(a @ b) for b in mats] for a in mats])
            assert np.max(np.abs(gram - 2.0 * np.eye(len(mats)))) <= 1e-12


def test_criterion_02_conservation():
    with criterion(2, "level conservation", budget=5.0):
        for d in (2, 3):
            for n in (2, 3, 4):
                defects = commutator_defect(ChainSpec(d=d, n=n))
                assert len(defects) == d - 1
                assert max(defects) <= 1e-10


def test_criterion_03_perfect_transfer():
    with criterion(3, "perfect state transfer", budget=30.0):
        for d in (2, 3):
            for n in (2, 3, 4, 5):
                t_star, amplitude = find_pst_time(Spectrum(ChainSpec(d=d, n=n)))
                assert amplitude >= 1.0 - 1e-6
                if d == 2:
                    assert abs(t_star - math.pi) <= 1e-6


def test_criterion_04_entanglement_profile():
    with criterion(4, "entanglement profile"):
        for d in (2, 3):
            spec = ChainSpec(d=d, n=2)
            part = Bipartition(d, d)
            t_star, _ = find_pst_time(Spectrum(spec))
            grid = np.linspace(0.0, t_star, 200)
            conc = np.array([concurrence_pure(ket, part)
                             for ket in _evolved_kets(spec, grid, _plus_state(d))])
            assert conc[0] <= 1e-6
            assert conc[-1] <= 1e-6

            # interior maximum, refined off the grid; the d=2 peak value is
            # exactly 0.5, so the assertion carries a 1e-9 floating-point guard
            eigvals, eigvecs = np.linalg.eigh(build_hamiltonian(spec))
            ket0 = np.kron(_plus_state(d), np.eye(d, dtype=complex)[0])
            mixed = eigvecs.conj().T @ ket0

            def conc_at(t):
                ket = eigvecs @ (np.exp(-1j * eigvals * t) * mixed)
                return concurrence_pure(ket, part)

            best = int(np.argmax(conc))
            t_peak = golden_max(conc_at, grid[max(best - 1, 0)],
                                grid[min(best + 1, 199)], 1e-12)
            assert conc_at(t_peak) >= 0.5 - 1e-9

            for ket, c in zip(_evolved_kets(spec, grid, _plus_state(d)), conc):
                rho = np.outer(ket, ket.conj())
                assert (ccnr(rho, part) > 1.0 + 1e-8) == (c > 1e-8)


def test_criterion_05_closed_form_anchors(tmp_path):
    with criterion(5, "closed-form anchors"):
        rng = np.random.default_rng(2024)
        for _ in range(50):
            beta = math.sqrt(rng.uniform(0.0, 1.0))
            alpha = math.sqrt(1.0 - beta * beta)
            assert abs(closed_form_l2_d2(alpha, beta, 0.0) - 1.0) <= 1e-12
            w = rng.dirichlet([1.0, 1.0, 1.0])
            assert abs(closed_form_l2_d3(*np.sqrt(w), 0.0) - 1.0) <= 1e-12
        grid = np.linspace(0.0, 2.0 * math.pi, 101)
        for _ in range(10):
            beta = math.sqrt(rng.uniform(0.0, 1.0))
            alpha = math.sqrt(1.0 - beta * beta)
            for a in grid:
                assert abs(closed_form_l2_d3(alpha, beta, 0.0, a)
                           - closed_form_l2_d2(alpha, beta, a)) <= 1e-12
        # the conformance report exists and records both time mappings
        assert main(["conformance", "--out", str(tmp_path)]) == 0
        header = (tmp_path / "conformance.csv").read_text().splitlines()[0]
        assert "concurrence_a_t" in header and "concurrence_a_2t" in header
        assert "a = t and a = 2t" in (tmp_path / "conformance.md").read_text()


def test_criterion_06_harmonic_structure():
    with criterion(6, "harmonic structure"):
        l4 = conformance_closed_forms()["l4"]
        coeffs = np.array(l4["coefficients"])
        assert abs(coeffs[l4["harmonics"].index(10)]) <= 1e-6 * np.max(np.abs(coeffs))
        assert l4["residual"] <= 1e-8


def test_criterion_07_channels():
    with criterion(7, "noise channels"):
        for d in (2, 3, 4):
            for p in (0.0, 0.25, 0.5, 0.85, 1.0):
                ch = phase_damping(d, p)
                total = sum(e.conj().T @ e for e in ch.kraus)
                assert np.max(np.abs(total - np.eye(d))) <= 1e-12
        rng = np.random.default_rng(404)
        for d in (2, 3, 4):
            ch = phase_damping(d, 1.0)
            m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            rho = m @ m.conj().T
            rho /= np.trace(rho).real
            assert np.max(np.abs(apply_channel(rho, ch) - rho)) <= 1e-12
        d, p = 3, 0.85
        pd = phase_damping(d, p)
        pi = np.zeros((d, d))
        for i in range(d):
            pi[0, i] = math.comb(d - 1, i) * ((1 - p) / 2) ** i * ((1 + p) / 2) ** (d - 1 - i)
        wl = weyl_channel(pi)
        for _ in range(100):
            m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            rho = m @ m.conj().T
            rho /= np.trace(rho).real
            assert np.max(np.abs(apply_channel(rho, pd) - apply_channel(rho, wl))) <= 1e-12


def test_criterion_08_average_fidelity(tmp_path):
    with criterion(8, "average fidelity", budget=60.0):
        spec = ChainSpec(d=3, n=2)
        t_star, _ = find_pst_time(Spectrum(spec))
        eigvals, eigvecs = np.linalg.eigh(build_hamiltonian(spec))
        u = (eigvecs * np.exp(-1j * eigvals * t_star)) @ eigvecs.conj().T
        for p in (0.5, 0.85, 1.0):
            ch = embed_channel(phase_damping(3, p), [0, 1], spec.dims)
            formula = average_fidelity(u, ch)
            mean, stderr = average_fidelity_monte_carlo(u, ch, samples=10_000, seed=7)
            assert abs(formula - mean) <= 3.0 * stderr, (p, formula, mean, stderr)
        # the reported anchors appear in the conformance report
        assert main(["conformance", "--out", str(tmp_path)]) == 0
        md = (tmp_path / "conformance.md").read_text()
        assert "0.62702" in md
        assert "0.666667" in md  # closed profile at p = 1
        assert "0.589667" in md  # closed profile at p = 0.85


def test_criterion_09_noise_detection():
    with criterion(9, "noise detection"):
        cfg = ExperimentConfig(
            chain=ChainSpec(d=3, n=2),
            input_amplitudes=_plus_state(3),
            steps=16,
            noise=NoiseSpec(kind="phase_damping", topology="interleaved", p=0.85),
        )
        noisy, reference = run_experiment(cfg)
        assert noisy[-1].concurrence >= reference[-1].concurrence + 0.05
        assert any(not r.gamma_ok for r in noisy)
        assert all(r.gamma_ok for r in reference)


def test_criterion_10_determinism(tmp_path):
    with criterion(10, "determinism"):
        config = {
            "chain": {"d": 3, "nodes": 2},
            "input_amplitudes": [[1.0 / math.sqrt(3.0), 0.0]] * 3,
            "steps": 16,
            "noise": {"kind": "phase_damping", "topology": "interleaved", "p": 0.85},
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "a")]) == 0
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "b")]) == 0
        assert ((tmp_path / "a" / "results.csv").read_bytes()
                == (tmp_path / "b" / "results.csv").read_bytes())
