"""Dense complex linear algebra for small qudit registers.

Everything works on plain numpy arrays (complex128, row-major, dense). The
operating envelope is full-register dimensions up to a few thousand, where
LAPACK through numpy is the only backend worth having. There are no matrix
exponentials here: `qsct.chain.Spectrum` owns every evolution, the n x n
single-excitation sector's and, where a density matrix must be stepped, the
register's, each a phase rotation in its own eigenbasis.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

TRACE_TOL = 1e-8


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


def dagger(a: np.ndarray) -> np.ndarray:
    return np.conjugate(np.swapaxes(a, -1, -2))


def hermitian_defect(a: np.ndarray) -> float:
    """Largest entrywise deviation of a from its own adjoint."""
    return float(np.max(np.abs(a - dagger(a)))) if a.size else 0.0


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tensor product with the left factor most significant."""
    return np.kron(a, b)


def vectorize(a: np.ndarray) -> np.ndarray:
    """Stack columns: an m x n matrix becomes [a_11..a_m1, a_12..a_m2, ...]."""
    a = np.asarray(a)
    if a.ndim != 2:
        raise ValueError("vectorize expects a matrix")
    return a.flatten(order="F")


def realign(rho: np.ndarray, part: Bipartition) -> np.ndarray:
    """Realign a bipartite operator into its dim_a^2 x dim_b^2 block form.

    Row p of the result is the column-stacked B-block of rho selected by the
    A indices (i, j) with p = j * dim_a + i, so a product operator A (x) B
    realigns to the rank-one matrix vectorize(A) vectorize(B)^T.
    """
    rho = np.asarray(rho)
    da, db = part
    part.check(rho.shape[0])
    if rho.shape[0] != rho.shape[1]:
        raise ValueError("realign expects a square matrix")
    return (
        rho.reshape(da, db, da, db)
        .transpose(2, 0, 3, 1)
        .reshape(da * da, db * db)
    )


def realign_inverse(mat: np.ndarray, part: Bipartition) -> np.ndarray:
    """Undo realign exactly (pure index permutation, no arithmetic)."""
    da, db = part
    mat = np.asarray(mat)
    if mat.shape != (da * da, db * db):
        raise ValueError("realigned block has the wrong shape for this bipartition")
    return (
        mat.reshape(da, da, db, db)
        .transpose(1, 3, 0, 2)
        .reshape(da * db, da * db)
    )


def trace_norm(a: np.ndarray) -> float:
    """Sum of singular values (nuclear norm)."""
    a = np.asarray(a)
    if a.ndim != 2:
        raise ValueError("trace_norm expects a matrix")
    if a.size == 0:
        return 0.0
    return float(np.linalg.svd(a, compute_uv=False).sum())


def _kept_sites(
    dims: Sequence[int], keep: Sequence[int]
) -> tuple[list[int], list[int], int, int]:
    """Validated (dims, sorted kept sites, register dimension, kept dimension)."""
    dims = [int(d) for d in dims]
    n = len(dims)
    keep_sorted = sorted(set(int(s) for s in keep))
    if not keep_sorted:
        raise ValueError("keep must name at least one site")
    if keep_sorted[0] < 0 or keep_sorted[-1] >= n:
        raise ValueError(f"site index out of range for {n} sites: {keep}")
    return dims, keep_sorted, int(np.prod(dims)), int(np.prod([dims[s] for s in keep_sorted]))


def partial_trace(rho: np.ndarray, dims: Sequence[int], keep: Sequence[int]) -> np.ndarray:
    """Trace out every site not listed in keep (0-based site positions).

    Kept sites stay in their original order; the result is square with
    dimension prod(dims[s] for s in keep).
    """
    dims, keep_sorted, full, kept = _kept_sites(dims, keep)
    n = len(dims)
    rho = np.asarray(rho)
    if rho.shape != (full, full):
        raise ValueError(f"operator shape {rho.shape} does not match dims {dims}")
    tensor = rho.reshape(dims + dims)
    # trace highest-numbered sites first so lower axis numbers stay valid
    for s in sorted(set(range(n)) - set(keep_sorted), reverse=True):
        half = tensor.ndim // 2
        tensor = np.trace(tensor, axis1=s, axis2=s + half)
    return tensor.reshape(kept, kept)


def partial_trace_pure(psi: np.ndarray, dims: Sequence[int], keep: Sequence[int]) -> np.ndarray:
    """partial_trace of |psi><psi|, contracted from the ket.

    The register-sized density matrix is never formed: the kept sites become
    the rows of a kept x rest matrix M, and the reduced state is M M^dagger.
    """
    dims, keep_sorted, full, kept = _kept_sites(dims, keep)
    psi = np.asarray(psi)
    if psi.shape != (full,):
        raise ValueError(f"ket shape {psi.shape} does not match dims {dims}")
    rest = [s for s in range(len(dims)) if s not in keep_sorted]
    m = psi.reshape(dims).transpose(keep_sorted + rest).reshape(kept, full // kept)
    return m @ m.conj().T


def embed_operator(op: np.ndarray, site: int, dims: Sequence[int]) -> np.ndarray:
    """Place a single-site operator at a 0-based site, identity elsewhere."""
    dims = [int(d) for d in dims]
    if site < 0 or site >= len(dims):
        raise ValueError(f"site {site} out of range for {len(dims)} sites")
    op = np.asarray(op)
    if op.shape != (dims[site], dims[site]):
        raise ValueError("operator does not match the site dimension")
    left = int(np.prod(dims[:site])) if site else 1
    right = int(np.prod(dims[site + 1:])) if site + 1 < len(dims) else 1
    return np.kron(np.kron(np.eye(left), op), np.eye(right))


def purity(rho: np.ndarray) -> float:
    """tr(rho^2) for a density matrix; validates Hermiticity and unit trace."""
    rho = np.asarray(rho)
    defect = hermitian_defect(rho)
    if defect > 1e-10:
        raise ValueError(f"density matrix is not Hermitian (defect {defect:.3e})")
    tr = np.trace(rho).real
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"trace deviates from 1 by {abs(tr - 1.0):.3e}")
    # tr(rho^2) = ||rho||_F^2 for Hermitian rho
    return float(np.vdot(rho, rho).real)
