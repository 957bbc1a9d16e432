"""Canonical quantum-graph constructors and their distinguished families.

Complete, trivial, rank-one, automorphism, and classical graphs, plus the
canonical relation family s(x) = delta^-2 (x T*) (x) u acting on the
defining representation tensored with a unitary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import (
    DEFAULT_TOL,
    AlgebraElement,
    BlockStructure,
    DeltaState,
    validate_delta_form,
)
from .errors import (
    BadNormalization,
    InvalidPermutation,
    NotUnitary,
    NotZeroOne,
    QGraphError,
    ShapeMismatch,
    StateNotInvariant,
)
from .graphs import LinearMapOnB, QuantumGraph
from .relations import CKFamily, lqck_residuals


def complete_graph(psi: DeltaState) -> QuantumGraph:
    """The complete quantum graph: A = delta^2 psi(.) 1."""
    st = psi.structure
    matrix = psi.delta_sq * np.outer(st.unit_vector, psi.psi_vec)
    return QuantumGraph.build(psi, LinearMapOnB(st, matrix))


def trivial_graph(psi: DeltaState) -> QuantumGraph:
    """The trivial quantum graph: A = id (every vertex only loops to itself)."""
    return QuantumGraph.build(psi, LinearMapOnB.identity(psi.structure))


def rank_one_graph(psi: DeltaState, T: AlgebraElement) -> QuantumGraph:
    """The rank-one quantum graph A(x) = T x T*.

    Requires the per-block normalization Tr(rho_a^-1 T_a* T_a) = delta^2, within
    DEFAULT_TOL, which makes A Schur-idempotent: a per-block sum of |T_p|^2 / gram_diag[p].
    """
    st = psi.structure
    if T.structure != st:
        raise ShapeMismatch("generator over a different block structure")
    tr = np.bincount(st.unit_indices[0], (T.vec.real**2 + T.vec.imag**2) / psi.gram_diag, st.num_blocks)
    bad = np.flatnonzero(np.abs(tr - psi.delta_sq) > DEFAULT_TOL * max(1.0, psi.delta_sq))
    if bad.size:
        raise BadNormalization(f"block {bad[0]}: Tr(rho^-1 T*T) = {tr[bad[0]]:.6g}, expected {psi.delta_sq:.6g}")
    matrix = _conjugation_matrix(st, range(st.num_blocks), T.blocks)
    return QuantumGraph.build(psi, LinearMapOnB(st, matrix))


def _conjugation_matrix(st: BlockStructure, targets, mats) -> np.ndarray:
    """Coordinate matrix of x -> sum_a V_a x_a V_a*, block a sent to block
    targets[a]: row-major vec(V X V*) = (V (x) conj V) vec X."""
    matrix = np.zeros((st.dim, st.dim), dtype=complex)
    for a, (b, V) in enumerate(zip(targets, mats)):
        rows, cols = slice(st.offsets[b], st.offsets[b + 1]), slice(st.offsets[a], st.offsets[a + 1])
        matrix[rows, cols] = np.kron(V, V.conj())
    return matrix


@dataclass(frozen=True)
class AutomorphismSpec:
    """A *-automorphism of B: a block permutation composed with inner parts.

    block_permutation[a] is the block receiving block a; unitaries[b] acts
    by conjugation inside the receiving block b.
    """

    block_permutation: tuple[int, ...]
    unitaries: tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "block_permutation", tuple(int(b) for b in self.block_permutation)
        )
        object.__setattr__(
            self,
            "unitaries",
            tuple(np.asarray(u, dtype=complex) for u in self.unitaries),
        )


def _permutation_cycles(perm: tuple[int, ...]) -> list[list[int]]:
    seen = set()
    cycles = []
    for start in range(len(perm)):
        if start in seen:
            continue
        cyc = [start]
        seen.add(start)
        nxt = perm[start]
        while nxt != start:
            cyc.append(nxt)
            seen.add(nxt)
            nxt = perm[nxt]
        cycles.append(cyc)
    return cycles


def automorphism_graph(
    psi: DeltaState, spec: AutomorphismSpec
) -> tuple[QuantumGraph, dict]:
    """Quantum graph whose adjacency is the given *-automorphism of B.

    The report decomposes the block permutation into cycles; a cycle of
    length k on blocks of size n contributes a crossed-product factor
    M_n (x) M_k (x) C(T).  Inner parts do not affect the decomposition.
    Sizes and unitaries are checked block by block, the state's invariance once.
    """
    st = psi.structure
    perm = spec.block_permutation
    if sorted(perm) != list(range(st.num_blocks)):
        raise InvalidPermutation(f"{perm} is not a permutation of the blocks")
    if len(spec.unitaries) != st.num_blocks:
        raise ShapeMismatch("one unitary per block required")
    for a in range(st.num_blocks):
        if st.sizes[perm[a]] != st.sizes[a]:
            raise InvalidPermutation(
                f"block {a} (size {st.sizes[a]}) maps to size {st.sizes[perm[a]]}"
            )
        u = spec.unitaries[a]
        n = st.sizes[a]
        if u.shape != (n, n):
            raise ShapeMismatch(f"unitary {a} has shape {u.shape}")
        if np.linalg.norm(u.conj().T @ u - np.eye(n)) > 1e-12 * max(1.0, n):
            raise NotUnitary(f"matrix for block {a} is not unitary")
    W = psi.weight_table
    moved = np.flatnonzero(~np.isclose(W[list(perm)], W, atol=1e-12).all(axis=1))
    if moved.size:
        a = int(moved[0])
        raise StateNotInvariant(f"weights of blocks {a} and {perm[a]} differ under the permutation")

    # e_ij of block a goes to U e_ij U* in block b = perm[a], U = unitaries[b]
    matrix = _conjugation_matrix(st, perm, [spec.unitaries[b] for b in perm])
    graph = QuantumGraph.build(psi, LinearMapOnB(st, matrix))

    cycles = _permutation_cycles(perm)
    factors = [
        f"M_{st.sizes[c[0]]}(C)(x)M_{len(c)}(C)(x)C(T)" for c in cycles
    ]
    report = {
        "cycles": cycles,
        "crossed_product_factors": factors,
        "crossed_product": " + ".join(factors),
    }
    return graph, report


def classical_graph(adj: np.ndarray) -> QuantumGraph:
    """Classical directed graph on |V| vertices: C(V), uniform state, 0/1 matrix."""
    adj = np.asarray(adj)
    if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
        raise ShapeMismatch(f"adjacency has shape {adj.shape}")
    if not np.all(np.isin(adj, (0, 1))):
        raise NotZeroOne("adjacency entries must be 0 or 1")
    V = adj.shape[0]
    psi = validate_delta_form([1] * V, [[1.0 / V]] * V)
    return QuantumGraph.build(psi, LinearMapOnB(psi.structure, adj.astype(complex)))


def _defining_rep(st: BlockStructure, vec: np.ndarray) -> np.ndarray:
    """Block-diagonal matrices on C^(N_1 + ... + N_d) of coordinate vectors.

    vec has shape (..., dim B); the result has shape (..., n, n).
    """
    n = sum(st.sizes)
    out = np.zeros(vec.shape[:-1] + (n, n), dtype=complex)
    pos = 0
    for a, size in enumerate(st.sizes):
        blk = vec[..., st.offsets[a] : st.offsets[a + 1]]
        out[..., pos : pos + size, pos : pos + size] = blk.reshape(vec.shape[:-1] + (size, size))
        pos += size
    return out


def canonical_lqck_family(
    kind: str, psi: DeltaState, T: AlgebraElement | None = None, u: np.ndarray | None = None
) -> CKFamily:
    """The family s(x) = delta^-2 (x T*) (x) u on the defining representation.

    kind "trivial" uses T = 1; kind "rank_one" requires a normalized T.  The
    local relation residuals are verified at construction, within DEFAULT_TOL.
    """
    st = psi.structure
    if kind == "trivial":
        if T is not None and (T - AlgebraElement.unit(st)).norm() > 1e-12:
            raise ShapeMismatch("trivial family requires T = 1")
        T = AlgebraElement.unit(st)
        graph = trivial_graph(psi)
    elif kind == "rank_one":
        if T is None:
            raise ShapeMismatch("rank-one family requires a generator T")
        graph = rank_one_graph(psi, T)
    else:
        raise ShapeMismatch(f"unknown family kind {kind!r}")

    if u is None:
        u = np.eye(1, dtype=complex)
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ShapeMismatch(f"unitary has shape {u.shape}")
    if np.linalg.norm(u.conj().T @ u - np.eye(u.shape[0])) > 1e-12 * max(1.0, u.shape[0]):
        raise NotUnitary("auxiliary matrix is not unitary")

    # b_p T* on the defining representation, then tensored with u
    x = _defining_rep(st, np.eye(st.dim)) @ _defining_rep(st, T.star().vec)
    k = x.shape[1] * u.shape[0]
    images = np.einsum("pij,kl->pikjl", x, u).reshape(st.dim, k, k) / psi.delta_sq
    fam = CKFamily(k, images)
    report = lqck_residuals(fam, graph)
    worst = max(report["lqck1"], report["lqck2"], report["lqck3"])
    if worst > DEFAULT_TOL:
        raise QGraphError(f"canonical family has local residual {worst:.3e}")
    return fam
