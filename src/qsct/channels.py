"""Weyl-operator noise channels, applied as masks on the density matrix.

The shift and clock gates X|j> = |j+1 mod d>, Z = diag(1, w, ..., w^{d-1})
with w = exp(2 pi i / d) satisfy Z X = w X Z. Both noise kinds are
random-unitary channels over the Weyl operators Z^n X^m, given by a d x d
probability table pi_{m,n}. Phase damping is the table whose only row is
m = 0, holding binomially weighted clock powers

    pi_{0,i} = C(d-1, i) ((1-p)/2)^i ((1+p)/2)^{d-1-i},  i = 0..d-1,

so p = 1 is the identity channel.

A channel exists in one form, the one runs and the conformance report's
average fidelity apply; no Kraus list (sqrt(pi_{m,n}) Z^n X^m as a list of
matrices) is built anywhere in the package, and the tests keep that form as
their independent route. `WeylTable` holds a channel as one Hadamard mask per
shift row m that carries weight:

    (Z^n X^m) rho (Z^n X^m)^dagger [a, b] = w^{n (a-b)} rho[a-m, b-m],
    E(rho)[a, b] = sum_m M_m[a, b] rho[a-m, b-m],
    M_m[a, b]    = sum_n pi_{m,n} w^{n (a-b)}.

`apply_weyl_table` applies it site by site on the reshaped density tensor,
one gather of every shifted copy per site and one elementwise product per
row, and builds no Kraus operator; experiment runs use this form. A table
whose only row is m = 0 (phase damping among them) shifts nothing: it
multiplies rho[a, b] by prod_s M_0[a_s, b_s] and so never moves an
excitation, and runs apply it as that product on the single-excitation
sector (qsct.protocol); a table with shifts creates excitations, and runs
apply it to the register with `apply_weyl_table`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ldexp

import numpy as np

from .chain import ConfigError, as_array

# apply_weyl_table gathers the shifted copies of rho in groups of at most this
# many bytes (every shift at once for a small register)
_GATHER_BYTES = 1 << 16
# working precision of the integer mantissas behind the phase-damping weights
_MANTISSA_BITS = 128


def _powers(x: float, count: int) -> list[tuple[int, int]]:
    """x^0 .. x^(count-1) as pairs (m, e), x^i = m 2^e, with m truncated to
    _MANTISSA_BITS bits (a relative error below count 2^-127): no power
    underflows, however small."""
    num, den = x.as_integer_ratio()          # den is a power of two
    m, e, out = 1, 0, []
    for _ in range(count):
        out.append((m, e))
        m *= num
        drop = max(m.bit_length() - _MANTISSA_BITS, 0)
        m >>= drop
        e += drop - (den.bit_length() - 1)
    return out


def _damping_weights(d: int, p: float) -> list[float]:
    """Binomial weights C(d-1, i) lo^i hi^(d-1-i) of the clock powers
    Z^0 .. Z^{d-1} in phase damping, lo = (1-p)/2 and hi = (1+p)/2.

    Past d = 1030 the binomial exceeds the double range and the powers fall
    below it, so each weight is formed as an exact integer binomial times the
    integer mantissas of the two powers, and rounded to a float once.
    """
    if d < 2:
        raise ValueError("d must be at least 2")
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"p must lie in [0, 1], got {p}")
    lo, hi = _powers((1.0 - p) / 2.0, d), _powers((1.0 + p) / 2.0, d)
    weights, binomial = [], 1
    for i in range(d):
        (m_lo, e_lo), (m_hi, e_hi) = lo[i], hi[d - 1 - i]
        m = binomial * m_lo * m_hi
        bits = m.bit_length()
        weights.append(ldexp(m / (1 << bits), e_lo + e_hi + bits))
        binomial = binomial * (d - 1 - i) // (i + 1)
    return weights


def check_probability_table(pi, name: str = "pi") -> np.ndarray:
    """pi as a float array, or ConfigError (a ValueError) naming `name` unless
    it is a square table (at least 2 x 2) of finite probabilities summing to 1."""
    what = "a square nested list of numbers"
    pi = as_array(pi, name, what=what)
    if pi.ndim != 2 or pi.shape[0] != pi.shape[1]:
        raise ConfigError(f"{name}: expected {what}, got shape {pi.shape}")
    if pi.shape[0] < 2:
        raise ConfigError(f"{name}: must be at least 2x2")
    if np.any(pi < -1e-15) or np.any(pi > 1.0 + 1e-15):
        raise ConfigError(f"{name}: entries must be probabilities")
    if abs(pi.sum() - 1.0) > 1e-12:
        raise ConfigError(f"{name}: must sum to 1, got {float(pi.sum())!r}")
    return pi


@dataclass(frozen=True)
class WeylTable:
    """A Weyl-operator channel on one d-level factor as (shift, mask) pairs.

    `shifts` lists the rows m of pi with non-zero weight and `masks` the
    matching d x d Hadamard masks M_m[a, b] = sum_n pi_{m,n} w^{n (a-b)}.
    """

    d: int
    shifts: tuple[int, ...]
    masks: tuple[np.ndarray, ...] = field(repr=False)
    # rolls[j, a] = (a - shifts[j]) mod d: the level that shift j moves to a
    rolls: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        shifts = np.array(self.shifts, dtype=np.intp).reshape(-1, 1)
        object.__setattr__(self, "rolls", (np.arange(self.d) - shifts) % self.d)


def weyl_table(pi) -> WeylTable:
    """The channel sum_{m,n} pi_{m,n} (Z^n X^m) . (Z^n X^m)^dagger as masks.

    M_m depends on a - b only, through the DFT f_m[k] = sum_n pi_{m,n} w^{n k};
    each mask is a read-only circulant view of 2d - 1 samples of f_m, so a
    full-register table costs O(d) memory per row rather than O(d^2).
    """
    pi = np.maximum(check_probability_table(pi), 0.0)
    shifts = tuple(int(m) for m in np.flatnonzero(pi.any(axis=1)))
    return _table(shifts, pi[list(shifts)])


def _table(shifts: tuple[int, ...], rows: np.ndarray) -> WeylTable:
    """The WeylTable of the weighted rows of pi (one per shift)."""
    d = rows.shape[1]
    spectra = np.fft.ifft(rows, axis=1, norm="forward")
    wrap = (np.arange(2 * d - 1) - (d - 1)) % d
    # window[a, j] = f[(a + j - (d - 1)) mod d], so window[a, d - 1 - b] = f[(a - b) mod d]
    windows = np.lib.stride_tricks.sliding_window_view(spectra[:, wrap], d, axis=1)
    masks = tuple(windows[:, :, ::-1])
    return WeylTable(d=d, shifts=shifts, masks=masks)


def phase_damping_table(d: int, p: float) -> WeylTable:
    """Phase damping as a Weyl table: one row, m = 0, of binomial weights; no
    d x d table is formed."""
    return _table((0,), np.array([_damping_weights(d, p)]))


def apply_weyl_table(rho: np.ndarray, table: WeylTable, dims) -> np.ndarray:
    """An independent copy of the table's channel on every factor of a register
    with factor dimensions `dims` (pass the register dimension alone for one
    register-wide channel).

    Per factor: one gather of the density tensor at that factor's rolled row
    and column indices for every shift m at once (table.rolls); each term is
    multiplied by its mask in place and added, in the order of the shifts.
    Shifts whose gathered copies would pass _GATHER_BYTES are gathered a
    group at a time. O(len(shifts) dim^2) per factor, and no Kraus operator is built;
    agrees with the sum of E rho E^dagger over the cross product of the
    per-factor Kraus operators sqrt(pi_{m,n}) Z^n X^m.
    """
    if any(size != table.d for size in dims):
        raise ValueError(f"register factors {tuple(dims)} do not all match the channel's {table.d}")
    dim = int(np.prod(dims))
    rho = np.asarray(rho)
    if rho.shape != (dim, dim):
        raise ValueError(f"state shape {rho.shape} does not match register dimension {dim}")
    d = table.d
    group = max(1, _GATHER_BYTES // (16 * dim * dim))
    out = rho
    for s in range(len(dims)):
        left = d**s
        shape = (left, d, dim // (left * d), left, d, dim // (left * d))
        # the factor's row and column level first: (d, d, left, rest, left, rest)
        tensor = out.reshape(shape).transpose(1, 4, 0, 2, 3, 5)
        acc = np.zeros(shape, dtype=np.complex128)
        for lo in range(0, len(table.shifts), group):
            rolls = table.rolls[lo:lo + group]
            terms = tensor[rolls[:, :, None], rolls[:, None, :]]
            for term, mask in zip(terms, table.masks[lo:lo + group]):
                term *= mask[:, :, None, None, None, None]
                acc += term.transpose(2, 0, 3, 4, 1, 5)
        out = acc.reshape(dim, dim)
    return out
