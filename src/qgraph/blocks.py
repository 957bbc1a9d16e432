"""Finite quantum spaces: block-diagonal arithmetic and the delta-form state.

A finite quantum space is a pair (B, psi) with B a direct sum of complex
matrix blocks and psi a faithful state whose multiplication map satisfies
m m* = delta^2 id.  Everything here is dense numpy over the canonical basis
of standard matrix units, ordered blocks-ascending then row-major.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import (
    IndexOutOfRange,
    NonPositiveWeight,
    NotDeltaForm,
    NotState,
    ShapeMismatch,
    echo,
)

DEFAULT_TOL = 1e-9
_CHUNK_ENTRIES = 1 << 20  # largest stack, in entries, that a contraction over m's triples forms per chunk


class SizeGroup(NamedTuple):
    """The blocks of one size N of a `BlockStructure`: their indices (ascending),
    the (g, N^2) canonical coordinates of their units, and `index`, which reads
    those coordinates off a last axis: a slice when they are contiguous, so
    that the read is a view, else the flattened coordinates."""

    size: int
    blocks: np.ndarray
    coords: np.ndarray
    index: slice | np.ndarray


@dataclass(frozen=True)
class BlockStructure:
    """Shape of B = M_{N_1} + ... + M_{N_d} (direct sum)."""

    sizes: tuple[int, ...]

    def __post_init__(self):
        if len(self.sizes) < 1 or any(n < 1 for n in self.sizes):
            raise ShapeMismatch(f"invalid block sizes {echo(self.sizes)}")
        object.__setattr__(self, "sizes", tuple(int(n) for n in self.sizes))

    @property
    def num_blocks(self) -> int:
        return len(self.sizes)

    @cached_property
    def dim(self) -> int:
        return sum(n * n for n in self.sizes)

    @cached_property
    def offsets(self) -> tuple[int, ...]:
        """Where each block's coordinates start, then dim: exact Python ints, as slices read them."""
        return tuple(accumulate((n * n for n in self.sizes), initial=0))

    def flat_index(self, a: int, i: int, j: int) -> int:
        """Canonical coordinate of the unit e_ij in block a (all 0-based)."""
        if not (0 <= a < self.num_blocks):
            raise IndexOutOfRange(f"block {a} out of range")
        n = self.sizes[a]
        if not (0 <= i < n and 0 <= j < n):
            raise IndexOutOfRange(f"unit ({i},{j}) out of range for size {n}")
        return self.offsets[a] + i * n + j

    @cached_property
    def unit_indices(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Arrays (a, i, j) over the coordinates p: b_p is e_ij of block a."""
        sizes = np.array(self.sizes)
        a = np.repeat(np.arange(self.num_blocks), sizes * sizes)
        r = np.arange(self.dim) - np.array(self.offsets)[a]
        return a, r // sizes[a], r % sizes[a]

    @cached_property
    def mul_nonzeros(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The sum_a N_a^3 triples (u, p, q) with b_p b_q = b_u: e_ik e_kj = e_ij.

        They come in the np.nonzero order of the dense structure constants
        M[u, p, q] (u ascending, then p, then q), so each u is one contiguous
        run of N_a triples, k = 0..N_a-1.
        """
        a, i, j = self.unit_indices
        n = np.array(self.sizes)[a]
        u = np.repeat(np.arange(self.dim), n)
        k = np.arange(len(u)) - np.repeat(np.cumsum(n) - n, n)
        lo, n, i, j = np.array(self.offsets)[a][u], n[u], i[u], j[u]
        return u, lo + i * n + k, lo + k * n + j

    @cached_property
    def star_perm(self) -> np.ndarray:
        """Permutation with star(b_p) = b_{star_perm[p]} (e_ij -> e_ji)."""
        a, i, j = self.unit_indices
        return np.array(self.offsets)[a] + j * np.array(self.sizes)[a] + i

    @cached_property
    def unit_vector(self) -> np.ndarray:
        _, i, j = self.unit_indices
        return (i == j).astype(complex)

    @cached_property
    def size_groups(self) -> tuple[SizeGroup, ...]:
        """The blocks grouped by size, ascending, computed once per structure."""
        sizes, offs = np.array(self.sizes), np.array(self.offsets[:-1])
        groups = []
        for n in sorted(set(self.sizes)):
            blocks = np.flatnonzero(sizes == n)
            coords = offs[blocks][:, None] + np.arange(n * n)
            lo, hi = int(coords[0, 0]), int(coords[-1, -1]) + 1
            index = slice(lo, hi) if hi - lo == coords.size else coords.ravel()
            groups.append(SizeGroup(n, blocks, coords, index))
        return tuple(groups)

    def products(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """Coordinates of x y for stacks X, Y of coordinate vectors (..., dim),
        leading axes broadcast: one batched matmul per size group, an
        elementwise product for size 1.  A single group, as on every structure
        of one block and on C^n, is read through views and its product is the
        result: no gather and no copy."""
        parts = []
        for n, blocks, _, index in self.size_groups:
            if n == 1:
                parts.append(X[..., index] * Y[..., index])
                continue
            x, y = (Z[..., index].reshape(*Z.shape[:-1], len(blocks), n, n) for Z in (X, Y))
            xy = x @ y
            parts.append(xy.reshape(*xy.shape[:-3], -1))
        if len(parts) == 1:
            return parts[0]
        out = np.empty(np.broadcast_shapes(X.shape, Y.shape), np.result_type(X, Y))
        for group, part in zip(self.size_groups, parts):
            out[..., group.index] = part
        return out


class AlgebraElement:
    """Element of B, stored as its canonical coordinate vector `vec`."""

    __slots__ = ("structure", "vec")

    def __init__(self, structure: BlockStructure, blocks: Sequence[np.ndarray]):
        if len(blocks) != structure.num_blocks:
            raise ShapeMismatch("block count mismatch")
        parts = []
        for n, blk in zip(structure.sizes, blocks):
            arr = np.asarray(blk, dtype=complex)
            if arr.shape != (n, n):
                raise ShapeMismatch(f"block shape {arr.shape} != ({n},{n})")
            parts.append(arr.ravel())
        self.structure, self.vec = structure, np.concatenate(parts)

    @classmethod
    def from_vector(cls, structure: BlockStructure, vec: np.ndarray) -> "AlgebraElement":
        """The element with coordinates a copy of `vec`."""
        vec = np.array(vec, dtype=complex)
        if vec.shape != (structure.dim,):
            raise ShapeMismatch(f"coordinate vector has shape {vec.shape}")
        x = object.__new__(cls)
        x.structure, x.vec = structure, vec
        return x

    @classmethod
    def zero(cls, structure: BlockStructure) -> "AlgebraElement":
        return cls.from_vector(structure, np.zeros(structure.dim))

    @classmethod
    def unit(cls, structure: BlockStructure) -> "AlgebraElement":
        return cls.from_vector(structure, structure.unit_vector)

    @classmethod
    def standard_unit(cls, structure: BlockStructure, a: int, i: int, j: int) -> "AlgebraElement":
        x = cls.zero(structure)
        x.vec[structure.flat_index(a, i, j)] = 1.0
        return x

    @property
    def blocks(self) -> tuple[np.ndarray, ...]:
        """x_a per block, as (N_a, N_a) views of `vec`."""
        st = self.structure
        return tuple(self.vec[lo : lo + n * n].reshape(n, n) for n, lo in zip(st.sizes, st.offsets))

    def _check(self, other: "AlgebraElement") -> None:
        if self.structure != other.structure:
            raise ShapeMismatch("elements over different block structures")

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        return AlgebraElement.from_vector(self.structure, self.vec + other.vec)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        return AlgebraElement.from_vector(self.structure, self.vec - other.vec)

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            self._check(other)
            return AlgebraElement.from_vector(self.structure, self.structure.products(self.vec, other.vec))
        return AlgebraElement.from_vector(self.structure, other * self.vec)

    def __rmul__(self, scalar) -> "AlgebraElement":
        return AlgebraElement.from_vector(self.structure, scalar * self.vec)

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement.from_vector(self.structure, -self.vec)

    def star(self) -> "AlgebraElement":
        return AlgebraElement.from_vector(self.structure, self.vec[self.structure.star_perm].conj())

    def norm(self) -> float:
        """Frobenius norm over the block-diagonal coefficients."""
        return float(np.linalg.norm(self.vec))

    def __repr__(self) -> str:
        return f"AlgebraElement(sizes={self.structure.sizes}, norm={self.norm():.4g})"


@dataclass(frozen=True)
class DeltaState:
    """Faithful delta-form state psi = sum_a Tr(rho_a .), rho_a = diag(w_a).

    psi is stored as one read-only (blocks, max N) table, weight_table[a, i] =
    w_a[i] = psi(e_ii), padded with 1 past N_a; the per-coordinate and
    per-block tables are gathers and reductions of it, formed on first use.
    delta_sq = sum_i 1/w_a[i], independent of a by the delta-form condition.
    """

    structure: BlockStructure
    weight_table: np.ndarray
    delta_sq: float

    @property
    def weights(self) -> tuple[np.ndarray, ...]:
        """w_a per block, as views of the table's rows."""
        return tuple(row[:n] for row, n in zip(self.weight_table, self.structure.sizes))

    @cached_property
    def weight_of_row(self) -> np.ndarray:
        """w_i indexed by the coordinate p = (a,i,j)."""
        a, i, _ = self.structure.unit_indices
        return self.weight_table[a, i]

    @cached_property
    def gram_diag(self) -> np.ndarray:
        """Diagonal GNS Gram: <e_ij, e_ij>_psi = psi(e_jj) = w_j."""
        a, _, j = self.structure.unit_indices
        return self.weight_table[a, j]

    @cached_property
    def min_weight(self) -> np.ndarray:
        """min_i w_a[i] by block a, the least `gram_diag` over the block's coordinates."""
        return np.minimum.reduceat(self.gram_diag, self.structure.offsets[:-1])

    @cached_property
    def modular_half_scale(self) -> np.ndarray:
        """sigma_{i/2} on coordinates, a diagonal: it scales e_ij by sqrt(w_j / w_i)."""
        return np.sqrt(self.gram_diag / self.weight_of_row)

    @cached_property
    def psi_vec(self) -> np.ndarray:
        """psi(b_p) as a coordinate functional: psi(e_ij) = delta_ij w_i."""
        _, i, j = self.structure.unit_indices
        return np.where(i == j, self.weight_of_row, 0.0)


def validate_delta_form(
    sizes: BlockStructure | Sequence[int],
    weights: Sequence[Sequence[float]],
    tol: float = DEFAULT_TOL,
) -> DeltaState:
    """Validate per-block weights as a faithful delta-form and package them.

    Raises ShapeMismatch, NonPositiveWeight, NotState or NotDeltaForm on
    failure.  The lists are read block by block, which names the first bad
    one, and scattered into the table; the per-block sums are row sums per
    size group, bit for bit each block's.
    """
    structure = sizes if isinstance(sizes, BlockStructure) else BlockStructure(tuple(sizes))
    d, n_max = structure.num_blocks, max(structure.sizes)
    if len(weights) != d:
        raise ShapeMismatch("one weight list per block required")
    rows = []
    for n, w in zip(structure.sizes, weights):
        arr = np.asarray(w, dtype=float)
        if arr.shape != (n,):
            raise ShapeMismatch(f"weight list shape {echo(arr.shape)} != ({echo(n)},)")
        rows.append(arr)
    table, sizes = np.ones((d, n_max)), np.array(structure.sizes)
    table[np.arange(n_max) < sizes[:, None]] = np.concatenate(rows)
    if not table.min() > 0:  # a NaN weight fails too
        raise NonPositiveWeight("state weights must be strictly positive")
    sums = np.empty((2, d))  # [0, a] = sum_i w_a[i], [1, a] = sum_i 1/w_a[i]
    for n in set(structure.sizes):  # the blocks of each size, with no (g, N^2) table of their coordinates
        blocks = sizes == n
        w = table[blocks, :n]
        sums[:, blocks] = np.array((w, 1.0 / w)).sum(axis=2)
    total, inv_sums = sum(sums[0].tolist()), sums[1].tolist()
    if abs(total - 1.0) > tol:
        raise NotState(f"weights sum to {total}, expected 1")
    delta_sq, bound = inv_sums[0], tol * max(1.0, inv_sums[0])
    if max(inv_sums) - delta_sq > bound or delta_sq - min(inv_sums) > bound:
        raise NotDeltaForm(f"per-block Tr(rho^-1) disagree: {echo(inv_sums)}")
    table.flags.writeable = False
    return DeltaState(structure, table, delta_sq)


class TensorElement:
    """Element of B (x) B as a dim x dim coefficient matrix.

    coeff[p, q] is the coefficient of b_p (x) b_q in the canonical unit basis.
    The per-block-pair view of the spec's data model is recoverable through
    pair_block().
    """

    __slots__ = ("structure", "coeff")

    def __init__(self, structure: BlockStructure, coeff: np.ndarray):
        coeff = np.asarray(coeff, dtype=complex)
        if coeff.shape != (structure.dim, structure.dim):
            raise ShapeMismatch(f"tensor coefficients have shape {coeff.shape}")
        self.structure = structure
        self.coeff = coeff

    @classmethod
    def zero(cls, structure: BlockStructure) -> "TensorElement":
        return cls(structure, np.zeros((structure.dim, structure.dim)))

    @classmethod
    def simple(cls, x: AlgebraElement, y: AlgebraElement) -> "TensorElement":
        if x.structure != y.structure:
            raise ShapeMismatch("mismatched tensor factors")
        return cls(x.structure, np.outer(x.vec, y.vec))

    def pair_block(self, a: int, b: int) -> np.ndarray:
        """(N_a^2) x (N_b^2) coefficient slab for the ordered block pair (a,b)."""
        st = self.structure
        return self.coeff[
            st.offsets[a] : st.offsets[a + 1], st.offsets[b] : st.offsets[b + 1]
        ]

    def _check(self, other: "TensorElement") -> None:
        if self.structure != other.structure:
            raise ShapeMismatch("tensors over different block structures")

    def __add__(self, other: "TensorElement") -> "TensorElement":
        self._check(other)
        return TensorElement(self.structure, self.coeff + other.coeff)

    def __sub__(self, other: "TensorElement") -> "TensorElement":
        self._check(other)
        return TensorElement(self.structure, self.coeff - other.coeff)

    def __rmul__(self, scalar) -> "TensorElement":
        return TensorElement(self.structure, scalar * self.coeff)

    def dagger(self) -> "TensorElement":
        """Involution a (x) b -> a* (x) b* with coefficient conjugation (star_perm is an involution)."""
        perm = self.structure.star_perm
        return TensorElement(self.structure, self.coeff[perm][:, perm].conj())

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeff))

    def __repr__(self) -> str:
        return f"TensorElement(sizes={self.structure.sizes}, norm={self.norm():.4g})"


def comultiply(x: AlgebraElement, psi: DeltaState) -> TensorElement:
    """m*(x) = sum_u x_u m*(b_u), scattered onto the nonzeros of m.

    On standard units m*(e_ij) = sum_k psi(e_kk)^-1 e_ik (x) e_kj, and
    psi(e_kk) is the Gram weight of b_p = e_ik: the coefficient of
    b_p (x) b_q on the triple (u, p, q) of `mul_nonzeros` is
    x_u / gram_diag[p].  This is the adjoint of multiplication for the GNS
    inner product, and m(m*(x)) is delta^2 x.
    """
    st = x.structure
    if st != psi.structure:
        raise ShapeMismatch("element and state over different structures")
    u, p, q = st.mul_nonzeros
    coeff = np.zeros((st.dim, st.dim), dtype=complex)
    coeff[p, q] = x.vec[u] * (1.0 / psi.gram_diag[p])
    return TensorElement(st, coeff)


def _row_chunks(rows: int, entries_per_row: int) -> Iterable[slice]:
    """Slices of range(rows), each of as many rows as _CHUNK_ENTRIES allows, at least one."""
    step = max(1, _CHUNK_ENTRIES // entries_per_row)
    return (slice(lo, min(lo + step, rows)) for lo in range(0, rows, step))


def triple_sum(st: BlockStructure, X: np.ndarray, Y: np.ndarray, product) -> np.ndarray:
    """out[u] = sum over the triples b_p b_q = b_u of m of product(X[p], Y[q]), for a
    product of stacks of X's items: per chunk of the runs of u (the triples list u
    ascending), one product of the gathered stacks and a segmented sum by u."""
    u, p, q = st.mul_nonzeros
    first = np.searchsorted(u, np.arange(st.dim + 1))  # u's run is first[u]:first[u + 1]
    out = np.empty((st.dim, *X.shape[1:]), np.result_type(X, Y))
    for rows in _row_chunks(st.dim, max(st.sizes) * X[0].size):
        t = slice(first[rows.start], first[rows.stop])
        out[rows] = np.add.reduceat(product(X[p[t]], Y[q[t]]), first[rows] - t.start)
    return out


def pair_defects(st: BlockStructure, L, R, T, rows, cols, src) -> np.ndarray:
    """[s, q] = ||T[src[t]] - L[s] R[q]||^2 on the pairs (s, q) = (rows[t], cols[t]), each
    at most once, and ||L[s] R[q]||^2 off them, for stacks of coordinate vectors of B.

    Per size group and chunk of rows s, the products [c, s, i, q, j] with every R[q]
    are one buffer, less T in place on the chunk's pairs, so no O(1) terms cancel.
    Each product is one N x N by N x (N len(R)) GEMM: a single (rows N) x N one
    crosses BLAS's threading threshold on small structures, where waking its threads
    can cost more than the product.  Size-1 blocks take |L|^2 |R|^2^T.
    """
    out = np.zeros((len(L), len(R)))
    for n, blocks, _, index in st.size_groups:
        g, x, y, t = len(blocks), L[:, index], R[:, index], T[:, index]
        if n == 1:  # the first group, as the groups ascend by size
            out = (x.real**2 + x.imag**2) @ (y.real**2 + y.imag**2).T
            for on in _row_chunks(len(rows), g):
                diff = t[src[on]] - x[rows[on]] * y[cols[on]]
                out[rows[on], cols[on]] = (diff.real**2 + diff.imag**2).sum(axis=1)
            continue
        x = x.reshape(len(L), g, n, n).transpose(1, 0, 2, 3)  # [c, s, i, k]
        y = y.reshape(len(R), g, n, n).transpose(1, 2, 0, 3).reshape(g, 1, n, len(R) * n)  # [c, k, (q, j)]
        for chunk in _row_chunks(len(L), g * n * n * len(R)):
            on = np.flatnonzero((chunk.start <= rows) & (rows < chunk.stop))
            buf = (x[:, chunk] @ y).reshape(g, -1, n, len(R), n)
            buf[:, rows[on] - chunk.start, :, cols[on], :] -= t[src[on]].reshape(len(on), g, n, n)
            f = buf.view(np.float64)
            out[chunk] += np.einsum("csiqj,csiqj->sq", f, f)
    return out


def sharp(u: TensorElement, v: TensorElement) -> TensorElement:
    """The # product: (a (x) b) # (c (x) d) = (ac) (x) (db), bilinearly."""
    if u.structure != v.structure:
        raise ShapeMismatch("tensors over different block structures")
    st = u.structure
    # row w of u # v sums v_r u_p over b_p b_r = b_w, u_p being row p of u as an element
    return TensorElement(st, triple_sum(st, u.coeff, v.coeff, lambda x, y: st.products(y, x)))

