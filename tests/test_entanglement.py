import math

import numpy as np
import pytest

from qsct.entanglement import (
    amplified_ccnr_margin,
    ccnr,
    closed_form_l2_d2,
    closed_form_l2_d3,
    concurrence_pure,
    entanglement_level,
    fit_cosine_series,
    mixedness_indicator,
    schmidt_measures,
)
from qsct.linalg import Bipartition, partial_trace, partial_trace_pure

PAIR22 = Bipartition(2, 2)
PAIR33 = Bipartition(3, 3)


def _bell():
    ket = np.zeros(4, dtype=complex)
    ket[0] = ket[3] = 1.0 / math.sqrt(2.0)
    return ket


def _qutrit_pair():
    ket = np.zeros(9, dtype=complex)
    ket[[0, 4, 8]] = 1.0 / math.sqrt(3.0)
    return ket


def _random_product_density(rng, da, db):
    a = rng.normal(size=(da, da)) + 1j * rng.normal(size=(da, da))
    a = a @ a.conj().T
    a /= np.trace(a).real
    b = rng.normal(size=(db, db)) + 1j * rng.normal(size=(db, db))
    b = b @ b.conj().T
    b /= np.trace(b).real
    return np.kron(a, b)


def test_ccnr_pure_product_is_one():
    ket = np.kron([1.0, 1.0] / np.sqrt(2.0), [1.0, 0.0])
    rho = np.outer(ket, ket.conj()).astype(complex)
    assert ccnr(rho, PAIR22) == pytest.approx(1.0, abs=1e-10)


def test_ccnr_bell_state():
    rho = np.outer(_bell(), _bell().conj())
    assert ccnr(rho, PAIR22) == pytest.approx(2.0, abs=1e-12)


def test_ccnr_qutrit_pair():
    rho = np.outer(_qutrit_pair(), _qutrit_pair().conj())
    assert ccnr(rho, PAIR33) == pytest.approx(3.0, abs=1e-12)


def test_amplified_margin_bell():
    rho = np.outer(_bell(), _bell().conj())
    rho_a = partial_trace(rho, [2, 2], keep=[0])
    rho_b = partial_trace(rho, [2, 2], keep=[1])
    from qsct.linalg import realign, trace_norm

    lhs = trace_norm(realign(rho - np.kron(rho_a, rho_b), PAIR22))
    rhs = math.sqrt((1 - np.vdot(rho_a, rho_a).real) * (1 - np.vdot(rho_b, rho_b).real))
    assert lhs == pytest.approx(1.5, abs=1e-12)
    assert rhs == pytest.approx(0.5, abs=1e-12)
    assert amplified_ccnr_margin(rho, PAIR22) == pytest.approx(1.0, abs=1e-12)


def test_amplified_margin_product_states():
    rng = np.random.default_rng(14)
    for _ in range(5):
        rho = _random_product_density(rng, 2, 3)
        assert amplified_ccnr_margin(rho, Bipartition(2, 3)) <= 1e-10


def test_amplified_margin_maximally_mixed():
    assert amplified_ccnr_margin(np.eye(4, dtype=complex) / 4.0, PAIR22) <= 0.0


def test_concurrence_product_state():
    ket = np.kron([1.0, 1.0] / np.sqrt(2.0), [1.0, 0.0]).astype(complex)
    assert concurrence_pure(ket, PAIR22) <= 1e-12


def test_concurrence_bell():
    assert concurrence_pure(_bell(), PAIR22) == pytest.approx(1.0, abs=1e-12)


def test_concurrence_qutrit_pair():
    expect = 2.0 / math.sqrt(3.0)  # sqrt(2 (1 - 1/3))
    assert concurrence_pure(_qutrit_pair(), PAIR33) == pytest.approx(expect, abs=1e-12)


def test_concurrence_local_unitary_invariance():
    rng = np.random.default_rng(17)
    ket = rng.normal(size=6) + 1j * rng.normal(size=6)
    ket /= np.linalg.norm(ket)
    part = Bipartition(2, 3)
    base = concurrence_pure(ket, part)
    for _ in range(3):
        qa, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        qb, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        rotated = np.kron(qa, qb) @ ket
        assert concurrence_pure(rotated, part) == pytest.approx(base, abs=1e-10)


def test_concurrence_rejects_unnormalized():
    with pytest.raises(ValueError):
        concurrence_pure(np.array([1.0, 1.0, 0.0, 0.0], dtype=complex), PAIR22)


def test_mixedness_matches_concurrence_on_pure():
    rng = np.random.default_rng(23)
    for _ in range(5):
        ket = rng.normal(size=9) + 1j * rng.normal(size=9)
        ket /= np.linalg.norm(ket)
        rho = np.outer(ket, ket.conj())
        assert mixedness_indicator(rho, PAIR33) == pytest.approx(
            concurrence_pure(ket, PAIR33), abs=1e-7)


def test_mixedness_pure_product_is_zero():
    ket = np.kron([1.0, 0.0, 0.0], [0.0, 1.0, 0.0]).astype(complex)
    assert mixedness_indicator(np.outer(ket, ket.conj()), PAIR33) <= 1e-6


def test_entanglement_level_pure_global():
    # pure global input takes the exact Schmidt route
    ket = np.kron([1.0, 1.0] / np.sqrt(2.0), [1.0, 0.0]).astype(complex)
    rho = np.outer(ket, ket.conj())
    assert entanglement_level(rho, PAIR22) <= 1e-12
    rho_bell = np.outer(_bell(), _bell().conj())
    assert entanglement_level(rho_bell, PAIR22) == pytest.approx(1.0, abs=1e-10)


def test_entanglement_level_mixed_global():
    rho = 0.5 * np.outer(_bell(), _bell().conj()) + 0.5 * np.eye(4) / 4.0
    rho_a = partial_trace(rho, [2, 2], keep=[0])
    expect = math.sqrt(2.0 * (1.0 - np.vdot(rho_a, rho_a).real))
    assert entanglement_level(rho, PAIR22) == pytest.approx(expect, abs=1e-12)


def test_closed_form_l2_d2_anchors():
    assert closed_form_l2_d2(1.0, 0.0, 0.7) == pytest.approx(1.0, abs=1e-15)
    r = 1.0 / math.sqrt(2.0)
    assert closed_form_l2_d2(r, r, 0.0) == pytest.approx(1.0, abs=1e-15)
    assert closed_form_l2_d2(r, r, math.pi / 2.0) == pytest.approx(0.0, abs=1e-15)


def test_closed_form_l2_d2_random_anchor():
    rng = np.random.default_rng(41)
    for _ in range(50):
        alpha = math.sqrt(rng.uniform(0.0, 1.0))
        beta = math.sqrt(1.0 - alpha * alpha)
        assert closed_form_l2_d2(alpha, beta, 0.0) == pytest.approx(1.0, abs=1e-12)


def test_closed_form_l2_d3_anchors():
    assert closed_form_l2_d3(1.0, 0.0, 0.0, 2.2) == pytest.approx(1.0, abs=1e-15)
    rng = np.random.default_rng(43)
    for _ in range(50):
        w = rng.dirichlet([1.0, 1.0, 1.0])
        amps = np.sqrt(w)
        assert closed_form_l2_d3(*amps, 0.0) == pytest.approx(1.0, abs=1e-12)


def test_closed_form_d3_reduces_to_d2():
    rng = np.random.default_rng(47)
    grid = np.linspace(0.0, 2.0 * math.pi, 30)
    for _ in range(10):
        alpha = math.sqrt(rng.uniform(0.0, 1.0))
        beta = math.sqrt(1.0 - alpha * alpha)
        for a in grid:
            assert closed_form_l2_d3(alpha, beta, 0.0, a) == pytest.approx(
                closed_form_l2_d2(alpha, beta, a), abs=1e-12)


def test_closed_form_d3_depends_only_on_tail_weight():
    a = 1.3
    alpha = math.sqrt(0.4)
    one = closed_form_l2_d3(alpha, math.sqrt(0.6), 0.0, a)
    two = closed_form_l2_d3(alpha, math.sqrt(0.3), math.sqrt(0.3), a)
    assert one == pytest.approx(two, abs=1e-14)


def test_closed_forms_reject_unnormalized():
    with pytest.raises(ValueError):
        closed_form_l2_d2(1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        closed_form_l2_d3(1.0, 1.0, 1.0, 0.0)


def test_fit_cosine_series_constant():
    a = np.linspace(0.0, 2.0 * math.pi, 9)
    coeffs, residual = fit_cosine_series(zip(a, np.full(9, 2.5)), [0])
    assert coeffs[0] == pytest.approx(2.5, abs=1e-12)
    assert residual < 1e-12


def test_fit_cosine_series_single_harmonic():
    a = np.linspace(0.0, 2.0 * math.pi, 25)
    coeffs, residual = fit_cosine_series(zip(a, np.cos(2.0 * a)), [0, 2, 4])
    assert coeffs == pytest.approx([0.0, 1.0, 0.0], abs=1e-12)
    assert residual < 1e-12


def test_fit_cosine_series_rejects_rank_deficiency():
    # all samples at a=0 cannot separate the harmonics
    samples = [(0.0, 1.0)] * 8
    with pytest.raises(ValueError):
        fit_cosine_series(samples, [0, 2])


def test_fit_cosine_series_rejects_short_input():
    with pytest.raises(ValueError):
        fit_cosine_series([(0.0, 1.0), (1.0, 0.5)], [0, 2])


def test_fit_cosine_series_rejects_duplicate_harmonics():
    a = np.linspace(0.0, 2.0 * math.pi, 11)
    with pytest.raises(ValueError):
        fit_cosine_series(zip(a, np.cos(a)), [2, 2])


def _random_kets(rng, d, n):
    """Two random register kets and one product ket across every cut."""
    dim = d**n
    kets = []
    for _ in range(2):
        psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        kets.append(psi / np.linalg.norm(psi))
    site = rng.normal(size=d) + 1j * rng.normal(size=d)
    product = np.ones(1, dtype=complex)
    for _ in range(n):
        product = np.kron(product, site / np.linalg.norm(site))
    kets.append(product)
    return kets


def test_pure_route_matches_density_route():
    rng = np.random.default_rng(20240611)
    chains = [(2, n) for n in range(2, 7)] + [(3, n) for n in range(2, 5)] + [(4, 3)]
    for d, n in chains:
        dims = [d] * n
        for psi in _random_kets(rng, d, n):
            rho = np.outer(psi, psi.conj())
            for cut in range(1, n):
                part = Bipartition(d**cut, d ** (n - cut))
                value, margin, level = schmidt_measures(psi, part)
                assert value == pytest.approx(ccnr(rho, part), abs=1e-12)
                assert margin == pytest.approx(amplified_ccnr_margin(rho, part), abs=1e-12)
                assert level == pytest.approx(entanglement_level(rho, part), abs=1e-12)
                assert level == concurrence_pure(psi, part)
            for keep in ([0, n - 1], [n - 1]):
                pure = partial_trace_pure(psi, dims, keep)
                assert np.max(np.abs(pure - partial_trace(rho, dims, keep))) <= 1e-12


def test_schmidt_measures_known_states():
    value, margin, level = schmidt_measures(_bell(), PAIR22)
    assert value == pytest.approx(2.0, abs=1e-14)
    assert margin == pytest.approx(amplified_ccnr_margin(np.outer(_bell(), _bell().conj()), PAIR22),
                                   abs=1e-14)
    assert level == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(ValueError):
        schmidt_measures(2.0 * _bell(), PAIR22)
