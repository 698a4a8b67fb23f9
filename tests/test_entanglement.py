import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from qsct.entanglement import (
    _PURE_TOL,
    _norm,
    _pure_vector,
    _purity_gap,
    amplified_ccnr_margin,
    ccnr,
    concurrence_pure,
    entanglement_level,
    mixedness_indicator,
    sector_concurrence,
    sector_measures,
)
from qsct.conformance import closed_form_l2_d3, fit_cosine_series
from qsct.linalg import Bipartition, SectorCut, inner, partial_trace

from oracles import closed_form_l2_d2, partial_trace_pure, schmidt_measures

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
                # of a pure state, the margin is ccnr - 1 = (sum s)^2 - 1
                assert abs(amplified_ccnr_margin(rho, part) - (value - 1.0)) <= 1e-12
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


def _exact_sector_concurrence(v, a, b):
    """2 sqrt(q_A q_B) / N of a sector ket in exact rationals, the square
    root taken to 40 digits."""
    def weight(rows):
        return sum(Fraction(x.real) ** 2 + Fraction(x.imag) ** 2 for x in v[rows])

    q_a, q_b = weight(a), weight(b)
    square = 4 * q_a * q_b / (weight([0]) + q_a + q_b) ** 2
    with localcontext() as ctx:
        ctx.prec = 40
        return (Decimal(square.numerator) / Decimal(square.denominator)).sqrt()


@pytest.mark.parametrize("scale", [1e-3, 1e-6, 1e-9])
def test_sector_ket_measures_near_a_product_state(scale):
    # side B scaled towards the vacuum: the margin and the concurrence both
    # stay within rounding of the closed form 2 sqrt(q_A q_B) / N, while a
    # margin taken as a difference of Schmidt-weight terms loses them
    rng = np.random.default_rng(11)
    for d, n, cut in ((2, 2, 1), (2, 6, 3), (3, 4, 1), (3, 4, 3), (4, 3, 2), (2, 12, 6)):
        index = 1 + np.arange((d - 1) * n).reshape(d - 1, n)
        a, b = index[:, :cut].ravel(), index[:, cut:].ravel()
        for _ in range(4):
            v = rng.normal(size=1 + (d - 1) * n) + 1j * rng.normal(size=1 + (d - 1) * n)
            v[b] *= scale
            v /= np.linalg.norm(v)
            exact = _exact_sector_concurrence(v, a, b)
            _, margin, level = sector_measures(v, SectorCut(a, b), kets=True)
            for value in (margin, level):
                assert abs(Decimal(value) - exact) <= Decimal("1e-14") * exact, (d, n, cut, value)


@pytest.mark.parametrize("da, db", [(2, 2), (2, 3), (3, 3), (4, 2), (2, 8)])
def test_stacked_measures_match_each_matrix(da, db):
    # a (2, 3) stack of mixed and globally pure states: each measure is one
    # call on the stack (the pure ones through one stacked matmul) and agrees
    # with the call on each matrix alone
    rng = np.random.default_rng(da * 10 + db)
    dim = da * db
    stack = np.empty((2, 3, dim, dim), dtype=complex)
    for index, rank in zip(np.ndindex(2, 3), (1, 2, dim, 1, 3, 1)):
        g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
        rho = g @ g.conj().T
        stack[index] = rho / np.trace(rho).real
    part = Bipartition(da, db)
    for measure in (ccnr, amplified_ccnr_margin, entanglement_level, mixedness_indicator):
        values = measure(stack, part)
        assert values.shape == (2, 3), measure
        for index in np.ndindex(2, 3):
            single = measure(stack[index], part)
            assert isinstance(single, float), measure
            assert abs(values[index] - single) <= 1e-13, (measure, index)
    kets = rng.normal(size=(4, dim)) + 1j * rng.normal(size=(4, dim))
    kets /= np.linalg.norm(kets, axis=1, keepdims=True)
    values = concurrence_pure(kets, part)
    for ket, value in zip(kets, values):
        assert abs(value - concurrence_pure(ket, part)) <= 1e-13


# A globally pure rho's vector: _pure_vector multiplies rho by its column at
# its largest diagonal entry, checked against np.linalg.eigh's dominant
# eigenvector on states within _PURE_TOL of pure.

PURITY_GAPS = (0.0, 1e-16, 1e-14, 1e-13, 1e-12)


def _nearly_pure_stack(rng, dim, gaps):
    """Density matrices (len(gaps), dim, dim): a random ket mixed with a
    random full-rank state at weight g / 2, so each purity gap is at most g."""
    stack = np.empty((len(gaps), dim, dim), dtype=complex)
    for rho, gap in zip(stack, gaps):
        psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        psi /= np.linalg.norm(psi)
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        sigma = g @ g.conj().T
        sigma /= np.trace(sigma).real
        rho[:] = (1.0 - gap / 2.0) * np.outer(psi, psi.conj()) + gap / 2.0 * sigma
    assert np.all(_purity_gap(stack) <= _PURE_TOL)
    return stack


def _assert_equal_up_to_phase(v, u, tol):
    """Unit vectors v and u (..., D) are equal up to a global phase each."""
    overlap = inner(u.conj(), v)
    phase = overlap / np.abs(overlap)
    assert np.max(np.abs(v - phase[..., None] * u)) <= tol


@pytest.mark.parametrize("dim, part", [(4, Bipartition(2, 2)), (9, Bipartition(3, 3)),
                                       (27, Bipartition(3, 9)), (81, Bipartition(9, 9)),
                                       (243, Bipartition(9, 27)), (729, Bipartition(27, 27))])
def test_pure_vector_of_a_register_matches_eigh(dim, part):
    rng = np.random.default_rng(dim)
    stack = _nearly_pure_stack(rng, dim, PURITY_GAPS if dim < 729 else PURITY_GAPS[::2])
    u = np.linalg.eigh(stack)[1][..., -1]
    v = _pure_vector(stack)
    psi = v / _norm(v)[:, None]
    _assert_equal_up_to_phase(psi, u, 1e-13)
    assert np.max(np.abs(concurrence_pure(psi, part) - concurrence_pure(u, part))) <= 1e-14
    assert np.max(np.abs(entanglement_level(stack, part) - concurrence_pure(u, part))) <= 1e-14


@pytest.mark.parametrize("d, n, cut", [(2, 3, 1), (3, 3, 2), (4, 5, 2), (3, 12, 6)])
def test_pure_vector_of_a_sector_state_matches_eigh(d, n, cut):
    # the chain cut's sector basis: vacuum, then level r on site s at 1 + (r-1) n + s
    rng = np.random.default_rng(d * 100 + n)
    index = 1 + np.arange((d - 1) * n).reshape(d - 1, n)
    sides = SectorCut(index[:, :cut].ravel(), index[:, cut:].ravel())
    stack = _nearly_pure_stack(rng, 1 + (d - 1) * n, PURITY_GAPS)
    u = np.linalg.eigh(stack)[1][..., -1]
    v = _pure_vector(stack)
    _assert_equal_up_to_phase(v / _norm(v)[:, None], u, 1e-13)
    want = sector_concurrence(u, sides)
    assert np.max(np.abs(sector_concurrence(v, sides) - want)) <= 1e-14
    assert np.max(np.abs(sector_measures(stack, sides)[2] - want)) <= 1e-14


def test_pure_vector_is_the_same_whatever_stack_it_is_in():
    # each state's vector, and its level, bit for bit alone and in a stack
    rng = np.random.default_rng(7)
    part = Bipartition(3, 9)
    index = 1 + np.arange(2 * 3).reshape(2, 3)
    sides = SectorCut(index[:, :1].ravel(), index[:, 1:].ravel())
    for stack, level in ((_nearly_pure_stack(rng, 27, PURITY_GAPS),
                          lambda rho: entanglement_level(rho, part)),
                         (_nearly_pure_stack(rng, 7, PURITY_GAPS),
                          lambda rho: sector_measures(rho, sides)[2])):
        vectors, levels = _pure_vector(stack), level(stack)
        for i in range(len(stack)):
            alone = np.array(stack[i:i + 1])
            assert np.array_equal(_pure_vector(alone)[0], vectors[i])
            assert np.array_equal(_pure_vector(stack[i:])[0], vectors[i])
            assert level(alone)[0] == levels[i]
