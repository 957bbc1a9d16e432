"""Finite quantum spaces: block-diagonal arithmetic and the delta-form state.

A finite quantum space is a pair (B, psi) with B a direct sum of complex
matrix blocks and psi a faithful state whose multiplication map satisfies
m m* = delta^2 id.  Everything here is dense numpy over the canonical basis
of standard matrix units, ordered blocks-ascending then row-major.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    IndexOutOfRange,
    NonPositiveWeight,
    NotDeltaForm,
    NotState,
    ShapeMismatch,
)

DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class BlockStructure:
    """Shape of B = M_{N_1} + ... + M_{N_d} (direct sum)."""

    sizes: tuple[int, ...]

    def __post_init__(self):
        if len(self.sizes) < 1 or any(n < 1 for n in self.sizes):
            raise ShapeMismatch(f"invalid block sizes {self.sizes}")
        object.__setattr__(self, "sizes", tuple(int(n) for n in self.sizes))

    @property
    def num_blocks(self) -> int:
        return len(self.sizes)

    @cached_property
    def dim(self) -> int:
        return sum(n * n for n in self.sizes)

    @cached_property
    def offsets(self) -> tuple[int, ...]:
        offs = [0]
        for n in self.sizes:
            offs.append(offs[-1] + n * n)
        return tuple(offs)

    def flat_index(self, a: int, i: int, j: int) -> int:
        """Canonical coordinate of the unit e_ij in block a (all 0-based)."""
        if not (0 <= a < self.num_blocks):
            raise IndexOutOfRange(f"block {a} out of range")
        n = self.sizes[a]
        if not (0 <= i < n and 0 <= j < n):
            raise IndexOutOfRange(f"unit ({i},{j}) out of range for size {n}")
        return self.offsets[a] + i * n + j

    def unflatten(self, p: int) -> tuple[int, int, int]:
        for a, n in enumerate(self.sizes):
            if p < self.offsets[a + 1]:
                q = p - self.offsets[a]
                return a, q // n, q % n
        raise IndexOutOfRange(f"coordinate {p} out of range")

    def basis_indices(self) -> Iterable[tuple[int, int, int]]:
        for a, n in enumerate(self.sizes):
            for i in range(n):
                for j in range(n):
                    yield a, i, j

    @cached_property
    def mul_tensor(self) -> np.ndarray:
        """Structure constants M[u,p,q] with b_p b_q = sum_u M[u,p,q] b_u."""
        d = self.dim
        M = np.zeros((d, d, d))
        for a, n in enumerate(self.sizes):
            for i in range(n):
                for j in range(n):
                    p = self.flat_index(a, i, j)
                    for s in range(n):
                        q = self.flat_index(a, j, s)
                        M[self.flat_index(a, i, s), p, q] = 1.0
        return M

    @cached_property
    def star_perm(self) -> np.ndarray:
        """Permutation with star(b_p) = b_{star_perm[p]} (e_ij -> e_ji)."""
        perm = np.empty(self.dim, dtype=np.intp)
        for a, i, j in self.basis_indices():
            perm[self.flat_index(a, i, j)] = self.flat_index(a, j, i)
        return perm

    @cached_property
    def unit_vector(self) -> np.ndarray:
        vec = np.zeros(self.dim, dtype=complex)
        for a, n in enumerate(self.sizes):
            for i in range(n):
                vec[self.flat_index(a, i, i)] = 1.0
        return vec

    def products(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """Coordinates of x y for stacks X, Y of coordinate vectors (..., dim):
        one batched matmul per block, leading axes broadcast."""
        out = []
        for n, lo in zip(self.sizes, self.offsets):
            x, y = (Z[..., lo : lo + n * n].reshape(*Z.shape[:-1], n, n) for Z in (X, Y))
            xy = x @ y
            out.append(xy.reshape(*xy.shape[:-2], n * n))
        return np.concatenate(out, axis=-1)

    def left_mult_matrix(self, vec: np.ndarray) -> np.ndarray:
        """Matrix of x -> (element with coords vec) * x on coordinates."""
        return np.einsum("upq,p->uq", self.mul_tensor, vec)

    def right_mult_matrix(self, vec: np.ndarray) -> np.ndarray:
        """Matrix of x -> x * (element with coords vec) on coordinates."""
        return np.einsum("upq,q->up", self.mul_tensor, vec)


class AlgebraElement:
    """Element of B, stored as one complex matrix per block."""

    __slots__ = ("structure", "blocks", "_vec")

    def __init__(self, structure: BlockStructure, blocks: Sequence[np.ndarray]):
        if len(blocks) != structure.num_blocks:
            raise ShapeMismatch("block count mismatch")
        mats = []
        for n, blk in zip(structure.sizes, blocks):
            arr = np.asarray(blk, dtype=complex)
            if arr.shape != (n, n):
                raise ShapeMismatch(f"block shape {arr.shape} != ({n},{n})")
            mats.append(arr)
        self.structure = structure
        self.blocks = tuple(mats)
        self._vec = None

    @classmethod
    def from_vector(cls, structure: BlockStructure, vec: np.ndarray) -> "AlgebraElement":
        vec = np.asarray(vec, dtype=complex)
        if vec.shape != (structure.dim,):
            raise ShapeMismatch(f"coordinate vector has shape {vec.shape}")
        blocks = []
        for a, n in enumerate(structure.sizes):
            lo = structure.offsets[a]
            blocks.append(vec[lo : lo + n * n].reshape(n, n))
        return cls(structure, blocks)

    @classmethod
    def zero(cls, structure: BlockStructure) -> "AlgebraElement":
        return cls(structure, [np.zeros((n, n)) for n in structure.sizes])

    @classmethod
    def unit(cls, structure: BlockStructure) -> "AlgebraElement":
        return cls(structure, [np.eye(n) for n in structure.sizes])

    @classmethod
    def standard_unit(cls, structure: BlockStructure, a: int, i: int, j: int) -> "AlgebraElement":
        p = structure.flat_index(a, i, j)
        vec = np.zeros(structure.dim, dtype=complex)
        vec[p] = 1.0
        return cls.from_vector(structure, vec)

    @property
    def vec(self) -> np.ndarray:
        if self._vec is None:
            self._vec = np.concatenate([b.ravel() for b in self.blocks])
        return self._vec

    def _check(self, other: "AlgebraElement") -> None:
        if self.structure != other.structure:
            raise ShapeMismatch("elements over different block structures")

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        return AlgebraElement(self.structure, [x + y for x, y in zip(self.blocks, other.blocks)])

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        return AlgebraElement(self.structure, [x - y for x, y in zip(self.blocks, other.blocks)])

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            self._check(other)
            return AlgebraElement(self.structure, [x @ y for x, y in zip(self.blocks, other.blocks)])
        return AlgebraElement(self.structure, [other * x for x in self.blocks])

    def __rmul__(self, scalar) -> "AlgebraElement":
        return AlgebraElement(self.structure, [scalar * x for x in self.blocks])

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.structure, [-x for x in self.blocks])

    def star(self) -> "AlgebraElement":
        return AlgebraElement(self.structure, [x.conj().T for x in self.blocks])

    def norm(self) -> float:
        """Frobenius norm over the block-diagonal coefficients."""
        return float(np.linalg.norm(self.vec))

    def __repr__(self) -> str:
        return f"AlgebraElement(sizes={self.structure.sizes}, norm={self.norm():.4g})"


@dataclass(frozen=True)
class DeltaState:
    """Faithful delta-form state: diagonal density weights per block.

    weights[a][i] = psi(e_ii) on block a; delta_sq = sum_i 1/weights[a][i],
    independent of a by the delta-form condition.
    """

    structure: BlockStructure
    weights: tuple[np.ndarray, ...]
    delta_sq: float

    @property
    def delta(self) -> float:
        return float(np.sqrt(self.delta_sq))

    @cached_property
    def psi_vec(self) -> np.ndarray:
        """psi(b_p) as a coordinate functional: psi(e_ij) = delta_ij w_i."""
        vec = np.zeros(self.structure.dim)
        for a, n in enumerate(self.structure.sizes):
            for i in range(n):
                vec[self.structure.flat_index(a, i, i)] = self.weights[a][i]
        return vec

    @cached_property
    def gram_diag(self) -> np.ndarray:
        """Diagonal GNS Gram: <e_ij, e_ij>_psi = psi(e_jj) = w_j."""
        g = np.empty(self.structure.dim)
        for a, i, j in self.structure.basis_indices():
            g[self.structure.flat_index(a, i, j)] = self.weights[a][j]
        return g

    @cached_property
    def comult_tensor(self) -> np.ndarray:
        """W[u, p, q]: coefficient of b_p (x) b_q in m*(b_u).

        m*(e_ij) = sum_k psi(e_kk)^-1 e_ik (x) e_kj, and psi(e_kk) is the Gram
        weight of b_p = e_ik.
        """
        return self.structure.mul_tensor / self.gram_diag[None, :, None]

    @cached_property
    def weight_of_row(self) -> np.ndarray:
        """w_i indexed by the coordinate p = (a,i,j)."""
        g = np.empty(self.structure.dim)
        for a, i, j in self.structure.basis_indices():
            g[self.structure.flat_index(a, i, j)] = self.weights[a][i]
        return g

    def value(self, x: AlgebraElement) -> complex:
        """psi(x) = sum_a Tr(rho_a x_a) with diagonal rho_a."""
        if x.structure != self.structure:
            raise ShapeMismatch("element over a different block structure")
        return complex(np.dot(self.psi_vec, x.vec))


def validate_delta_form(
    sizes: BlockStructure | Sequence[int],
    weights: Sequence[Sequence[float]],
    tol: float = DEFAULT_TOL,
) -> DeltaState:
    """Validate per-block weights as a faithful delta-form and package them.

    Raises NonPositiveWeight, NotState or NotDeltaForm on failure.
    """
    structure = sizes if isinstance(sizes, BlockStructure) else BlockStructure(tuple(sizes))
    if len(weights) != structure.num_blocks:
        raise ShapeMismatch("one weight list per block required")
    ws = []
    for n, w in zip(structure.sizes, weights):
        arr = np.asarray(w, dtype=float)
        if arr.shape != (n,):
            raise ShapeMismatch(f"weight list shape {arr.shape} != ({n},)")
        ws.append(arr)
    if not all((w > 0).all() for w in ws):  # a NaN weight fails too
        raise NonPositiveWeight("state weights must be strictly positive")
    total = sum(float(w.sum()) for w in ws)
    if abs(total - 1.0) > tol:
        raise NotState(f"weights sum to {total}, expected 1")
    inv_sums = [float((1.0 / w).sum()) for w in ws]
    delta_sq = inv_sums[0]
    if any(abs(s - delta_sq) > tol * max(1.0, delta_sq) for s in inv_sums):
        raise NotDeltaForm(f"per-block Tr(rho^-1) disagree: {inv_sums}")
    return DeltaState(structure, tuple(ws), delta_sq)


def gns_inner(x: AlgebraElement, y: AlgebraElement, psi: DeltaState) -> complex:
    """GNS inner product <x, y>_psi = psi(x* y), conjugate-linear in x."""
    if x.structure != y.structure or x.structure != psi.structure:
        raise ShapeMismatch("mismatched operands")
    return complex(np.sum(x.vec.conj() * psi.gram_diag * y.vec))


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

    def left_mul(self, x: AlgebraElement) -> "TensorElement":
        """x . (a (x) b) = (xa) (x) b extended linearly."""
        L = self.structure.left_mult_matrix(x.vec)
        return TensorElement(self.structure, L @ self.coeff)

    def right_mul(self, y: AlgebraElement) -> "TensorElement":
        """(a (x) b) . y = a (x) (by) extended linearly."""
        R = self.structure.right_mult_matrix(y.vec)
        return TensorElement(self.structure, self.coeff @ R.T)

    def apply_second(self, matrix: np.ndarray) -> "TensorElement":
        """(1 (x) F) for a linear map F given as a coordinate matrix."""
        return TensorElement(self.structure, self.coeff @ matrix.T)

    def apply_first(self, matrix: np.ndarray) -> "TensorElement":
        """(F (x) 1) for a linear map F given as a coordinate matrix."""
        return TensorElement(self.structure, matrix @ self.coeff)

    def dagger(self) -> "TensorElement":
        """Involution a (x) b -> a* (x) b* with coefficient conjugation."""
        perm = self.structure.star_perm
        out = np.empty_like(self.coeff)
        out[np.ix_(perm, perm)] = self.coeff.conj()
        return TensorElement(self.structure, out)

    def multiply_down(self) -> AlgebraElement:
        """Apply the multiplication map m: sum c_pq b_p b_q."""
        vec = np.einsum("upq,pq->u", self.structure.mul_tensor, self.coeff)
        return AlgebraElement.from_vector(self.structure, vec)

    def partial_psi_left(self, psi: DeltaState) -> AlgebraElement:
        """(psi (x) 1): slice off the first leg against the state."""
        vec = psi.psi_vec @ self.coeff
        return AlgebraElement.from_vector(self.structure, vec)

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeff))

    def __repr__(self) -> str:
        return f"TensorElement(sizes={self.structure.sizes}, norm={self.norm():.4g})"


def comultiply(x: AlgebraElement, psi: DeltaState) -> TensorElement:
    """m*(x) = sum_u x_u W[u] with W = psi.comult_tensor in closed form.

    On standard units m*(e_ij) = sum_k psi(e_kk)^-1 e_ik (x) e_kj; this is the
    adjoint of multiplication for the GNS inner product and m(m*(x)) is
    delta^2 x.
    """
    st = x.structure
    if st != psi.structure:
        raise ShapeMismatch("element and state over different structures")
    return TensorElement(st, np.einsum("u,upq->pq", x.vec, psi.comult_tensor))


def sharp(u: TensorElement, v: TensorElement) -> TensorElement:
    """The # product: (a (x) b) # (c (x) d) = (ac) (x) (db), bilinearly."""
    if u.structure != v.structure:
        raise ShapeMismatch("tensors over different block structures")
    st = u.structure
    # row w of u # v sums v_r u_p over b_p b_r = b_w, u_p being row p of u as an element
    w, p, r = np.nonzero(st.mul_tensor)
    terms = st.products(v.coeff[r], u.coeff[p])
    return TensorElement(st, np.add.reduceat(terms, np.unique(w, return_index=True)[1]))


def modular_power(x: AlgebraElement, psi: DeltaState, power: float) -> AlgebraElement:
    """rho^{-power} x rho^{power} blockwise (diagonal rho)."""
    if x.structure != psi.structure:
        raise ShapeMismatch("element and state over different structures")
    blocks = []
    for a, n in enumerate(x.structure.sizes):
        w = psi.weights[a]
        scale = (w[:, None] ** (-power)) * (w[None, :] ** power)
        blocks.append(x.blocks[a] * scale)
    return AlgebraElement(x.structure, blocks)


def modular_half(x: AlgebraElement, psi: DeltaState) -> AlgebraElement:
    """sigma_{i/2}(x) = rho^{-1/2} x rho^{1/2}: scales e_ij by sqrt(w_j/w_i)."""
    return modular_power(x, psi, 0.5)


def modular_half_matrix(psi: DeltaState) -> np.ndarray:
    """Diagonal coordinate matrix of sigma_{i/2}."""
    return np.diag(np.sqrt(psi.gram_diag / psi.weight_of_row))


def adapted_unit(a: int, i: int, j: int, psi: DeltaState) -> AlgebraElement:
    """Adapted matrix unit f_ij = e_ij / sqrt(psi(e_ii) psi(e_jj))."""
    st = psi.structure
    p = st.flat_index(a, i, j)  # validates the indices
    w = psi.weights[a]
    vec = np.zeros(st.dim, dtype=complex)
    vec[p] = 1.0 / np.sqrt(w[i] * w[j])
    return AlgebraElement.from_vector(st, vec)
