"""Dense complex linear algebra for small qudit registers: bipartitions, the
realignment map, the trace norm and partial traces (of a density matrix, or of
a sector ket or density matrix).

Everything works on plain numpy arrays (complex128, row-major, dense); the
realignment map, the trace norm and both partial traces also take a stack
of states along leading axes, one call for the whole stack. The realigned
matrix is always a new array: the register measures subtract the product
of the marginals from it in place, so it must never alias the state. The
operating envelope is full-register dimensions up to a few thousand, where
LAPACK through numpy is the only backend worth having. There are no matrix
exponentials here: `qsct.chain.Spectrum` owns every evolution, the n x n
sector's and, where a density matrix is stepped, each level-count block's
of the register, each a phase rotation in its own eigenbasis.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np


class Bipartition(NamedTuple):
    """Split of a register into a leading block A and a trailing block B."""

    dim_a: int
    dim_b: int

    def check(self, dim: int) -> None:
        if self.dim_a < 1 or self.dim_b < 1:
            raise ValueError("bipartition dimensions must be positive")
        if self.dim_a * self.dim_b != dim:
            raise ValueError(
                f"bipartition {self.dim_a}x{self.dim_b} does not factor dimension {dim}"
            )


def realign(rho: np.ndarray, part: Bipartition) -> np.ndarray:
    """Realign a bipartite operator into its dim_a^2 x dim_b^2 block form.

    Row p of the result is the column-stacked B-block of rho selected by the
    A indices (i, j) with p = j * dim_a + i, so a product operator A (x) B
    realigns to the rank-one matrix vec(A) vec(B)^T, vec stacking columns.
    Leading axes are a stack: (..., D, D) realigns matrix by matrix to
    (..., dim_a^2, dim_b^2). The result is a new array, never a view of rho,
    so it may be written in place.
    """
    rho = np.asarray(rho)
    part.check(rho.shape[-2])
    if rho.shape[-2] != rho.shape[-1]:
        raise ValueError("realign expects a square matrix")
    da, db = part
    lead = rho.shape[:-2]
    k = len(lead)
    blocks = rho.reshape(*lead, da, db, da, db).transpose(*range(k), k + 2, k, k + 3, k + 1)
    return blocks.copy().reshape(*lead, da * da, db * db)


def trace_norm(a: np.ndarray) -> float | np.ndarray:
    """Sum of singular values (nuclear norm); a float for one matrix, an array
    for a stack (..., m, k), from one stacked SVD."""
    a = np.asarray(a)
    if a.ndim < 2:
        raise ValueError("trace_norm expects a matrix")
    if a.size == 0:
        return np.zeros(a.shape[:-2])[()]
    return np.linalg.svd(a, compute_uv=False).sum(-1)[()]


def inner(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sum_i x[..., i] y[..., i] for every leading index.

    One stacked matmul of 1 x k by k x 1 matrices, which numpy evaluates as
    the BLAS dot that np.dot and np.vdot take of a single pair of vectors:
    each row of a stack gets that pair's value bit for bit, whatever the
    stack's size. np.vdot(x, x) is inner(x.conj(), x).
    """
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def partial_trace(rho: np.ndarray, dims: Sequence[int], keep: Sequence[int]) -> np.ndarray:
    """Trace out every site not listed in keep (0-based site positions).

    Kept sites stay in their original order; the result is square with
    dimension prod(dims[s] for s in keep). Leading axes are a stack:
    (..., full, full) reduces matrix by matrix to (..., kept, kept).
    """
    dims = [int(d) for d in dims]
    n = len(dims)
    keep_sorted = sorted(set(int(s) for s in keep))
    if not keep_sorted:
        raise ValueError("keep must name at least one site")
    if keep_sorted[0] < 0 or keep_sorted[-1] >= n:
        raise ValueError(f"site index out of range for {n} sites: {keep}")
    full, kept = int(np.prod(dims)), int(np.prod([dims[s] for s in keep_sorted]))
    rho = np.asarray(rho)
    if rho.shape[-2:] != (full, full):
        raise ValueError(f"operator shape {rho.shape} does not match dims {dims}")
    lead = rho.shape[:-2]
    tensor = rho.reshape(*lead, *dims, *dims)
    # trace highest-numbered sites first so lower axis numbers stay valid
    for s in sorted(set(range(n)) - set(keep_sorted), reverse=True):
        half = (tensor.ndim - len(lead)) // 2
        tensor = np.trace(tensor, axis1=len(lead) + s, axis2=len(lead) + s + half)
    return tensor.reshape(*lead, kept, kept)


class SectorCut:
    """span{vac} (+) single excitations, on a sector basis with the vacuum at
    index 0, split between the excitations a and b (every index but 0 in one
    of them). It holds the two sides and each side's sector basis, its vacuum
    then its excitations (rows), O(k_A + k_B) indices; its partial traces
    (sector_partial_trace) and measures (entanglement.sector_measures) gather
    their blocks straight from these."""

    def __init__(self, a, b):
        self.a = a = np.asarray(a, dtype=np.intp)
        self.b = b = np.asarray(b, dtype=np.intp)
        self.rows = (np.concatenate(([0], a)), np.concatenate(([0], b)))


def sector_partial_trace(states: np.ndarray, cut: SectorCut, side: int = 0,
                         kets: bool = False) -> np.ndarray:
    """partial_trace of states on span{vac} (+) single excitations, given on
    a sector basis with the vacuum at index 0: density matrices
    (..., m, m), or with kets=True kets (..., m); leading axes are a stack.

    The result keeps side a of cut (side=1: side b) and traces the other:
    it is on the kept side's sector basis, its vacuum then its excitations
    in order, (..., 1 + k, 1 + k). A traced excitation leaves the kept side
    in its vacuum, so only its weight remains, on the vacuum's diagonal. A
    ket x gives the outer product of its kept rows plus the traced rows'
    weight sum |x_t|^2, bit for bit what its density matrix gives. Every
    gather is an np.take along the stack's last axes, which leaves each state
    of a stack contiguous, so its reductions run as for a state alone.
    """
    if kets:
        kept = np.take(states, cut.rows[side], axis=-1)
        weight = np.take(states, (cut.b, cut.a)[side], axis=-1)
        weight = weight * weight.conj()
        out = kept[..., :, None] * kept.conj()[..., None, :]
    else:
        rows = cut.rows[side]
        out = np.take(np.take(states, rows, axis=-2), rows, axis=-1)
        weight = np.take(states.diagonal(axis1=-2, axis2=-1), (cut.b, cut.a)[side], axis=-1)
    out[..., 0, 0] += weight.sum(-1)
    return out

