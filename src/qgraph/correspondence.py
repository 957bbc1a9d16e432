"""Finite-dimensional C*-correspondences over B and the edge correspondence.

Every correspondence the library builds (B (x)_psi B, E_G and every Fock
level) is a `Correspondence` in block-multiplicity normal form
sum_{a,c} C^{N_a} (x) K_ac (x) C^{N_c}, with M[a, c] = dim K_ac; for E_G,
M[a, b] is the Kraus rank of A from block a to block b, and its zero rows
and columns decide the left kernel, faithfulness and fullness of E_G.  Its
basis is orthonormal for psi(<.,.>_B), and it stores only the nonzeros of
the left action of the units (partial permutations), the right action and
the B-valued inner product, so no (dim B, dim E, dim E) array is formed.
`generator_slabs` writes T(eps) / delta into a level in row-group order, one
row slab per row group, and `gram_defects` forms from them one Gram H_a per
block of B, which holds sum_k T(f_ik . eps) T(f_jk . eps)* for every unit of
the block: the covariance defect and psi_t of a Fock level and, on E_G, the
compact decomposition.  The dense ambients and Gram quotients are `tests/oracles.py`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .blocks import (
    DEFAULT_TOL,
    AlgebraElement,
    BlockStructure,
    DeltaState,
    TensorElement,
)
from .errors import MismatchedBase, NotCompletelyPositive, NotGenerating, ShapeMismatch
from .graphs import (
    LinearMapOnB,
    QuantumGraph,
    _indicator_adjacency,
    quantum_sources_sinks,
    require_completely_positive,
)

GRAM_CUTOFF_RTOL = 1e-10


@dataclass(frozen=True)
class Correspondence:
    """A `normal_form` correspondence, read through the nonzeros of its actions
    on an orthonormal basis, which are computed from (psi, mult) on first use.

    left = (p, row, col): b_p . u_col = u_row, each unit a partial permutation;
    right = (p, row, col, value): u_col . b_p = value u_row;
    inner = (x, y, p, value): <u_x, u_y>_B has coordinate value at b_p.
    In each, the pairs (p, row) and (x, y) are distinct.  mult is the
    multiplicity matrix; generator, when set, holds the coordinates of the
    distinguished generating vector (the edge indicator for edge
    correspondences), graph the quantum graph it came from, and creation, on
    X (x)_B Y, the nonzeros (z, x, y, value) of the canonical map
    u_x (x) u_y -> value u_z.
    """

    structure: BlockStructure
    psi: DeltaState
    mult: np.ndarray
    generator: np.ndarray | None = None
    graph: QuantumGraph | None = None
    creation: tuple[np.ndarray, ...] | None = None

    @cached_property
    def size(self) -> int:
        n = np.array(self.structure.sizes)
        return int(n @ self.mult @ n)

    @cached_property
    def layout(self) -> tuple[np.ndarray, ...]:
        """`_layout` of the coordinates, computed once per correspondence."""
        return _layout(self.structure, self.mult)

    @cached_property
    def left(self) -> tuple[np.ndarray, ...]:
        a, c, i, _, _, _ = self.layout
        n, off = np.array(self.structure.sizes), np.array(self.structure.offsets)
        x, t = np.nonzero(np.arange(n.max()) < n[a][:, None])
        return off[a[x]] + t * n[a[x]] + i[x], x + (t - i[x]) * self.mult[a, c][x] * n[c[x]], x

    @cached_property
    def right(self) -> tuple[np.ndarray, ...]:
        _, c, _, _, l, _ = self.layout
        n, off = np.array(self.structure.sizes), np.array(self.structure.offsets)
        x, t = np.nonzero(np.arange(n.max()) < n[c][:, None])
        p = off[c[x]] + l[x] * n[c[x]] + t  # e_lt in block c
        return p, x + t - l[x], x, np.sqrt(self.psi.gram_diag[p] / self.psi.weight_of_row[p])

    @cached_property
    def inner(self) -> tuple[np.ndarray, ...]:
        p, y, x, _ = self.right  # <u_x, u_y>_B sits at b_p where u_x . b_p involves u_y
        return x, y, p, 1.0 / np.sqrt(self.psi.gram_diag[p] * self.psi.weight_of_row[p])

    @cached_property
    def row_groups(self) -> tuple[np.ndarray, np.ndarray]:
        """Place of every coordinate in row-group order, and the row-group size
        s_a of every block.

        Row group (a, i) holds the coordinates (a, c, i, k, l) in (c, k, l)
        order; the row groups follow one another in (a, i) order, so block a
        starts at sum_{b<a} N_b s_b and the unit e_ij of block a maps row group
        (a, j) onto row group (a, i) position by position.
        """
        n = np.array(self.structure.sizes)
        a, c, i, k, l, _ = self.layout
        width = self.mult * n  # [a, c]: coordinates of the pair (a, c) in one row group
        size = width.sum(axis=1)
        start = (np.cumsum(n * size) - n * size)[a] + i * size[a]
        return start + (np.cumsum(width, axis=1) - width)[a, c] + k * n[c] + l, size

    def left_units(self, V: np.ndarray) -> np.ndarray:
        p, row, col = self.left
        out = np.zeros((self.structure.dim, self.size, V.shape[1]), dtype=complex)
        out[p, row] = V[col]
        return out

    def right_units(self, V: np.ndarray) -> np.ndarray:
        p, row, col, value = self.right
        out = np.zeros((self.structure.dim, self.size, V.shape[1]), dtype=complex)
        out[p, row] = value[:, None] * V[col]
        return out

    def b_inner_coords(self, xi: np.ndarray, eta: np.ndarray) -> np.ndarray:
        """Canonical coordinates of <xi, eta>_B; leading axes of eta are batch axes."""
        x, y, p, value = self.inner
        out = np.zeros((self.structure.dim,) + np.shape(eta)[:-1], dtype=complex)
        np.add.at(out, p, np.moveaxis((xi.conj()[x] * value) * eta[..., y], -1, 0))
        return np.moveaxis(out, 0, -1)

    def vector(self, coords: np.ndarray) -> "CorrVector":
        return CorrVector(self, np.asarray(coords, dtype=complex))


@dataclass(frozen=True)
class CorrVector:
    """Vector in a correspondence, given by coefficients over its basis."""

    module: Correspondence
    coords: np.ndarray

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=complex)
        if coords.shape != (self.module.size,):
            raise ShapeMismatch(f"coordinate vector has shape {coords.shape}")
        object.__setattr__(self, "coords", coords)


def _gram_quotient(gram: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of a Gram matrix above the relative cutoff GRAM_CUTOFF_RTOL.

    Raises NotCompletelyPositive when the Gram has a significantly negative
    eigenvalue (the semi-inner product is not positive).
    """
    evals, evecs = np.linalg.eigh((gram + gram.conj().T) / 2)
    top = float(evals.max(initial=0.0))
    if evals.size and float(evals.min()) < -1e-8 * max(1.0, top):
        raise NotCompletelyPositive(f"scalar Gram min eigenvalue {evals.min():.3e}")
    keep = evals > GRAM_CUTOFF_RTOL * max(top, 1e-300)
    return evals[keep], evecs[:, keep]


def from_spanning(gram: np.ndarray, spanning: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the span of the rows of `spanning`, for the scalar
    form with Gram matrix `gram` on the coordinates: the Gram eigenvectors of
    the rows above the relative cutoff, rescaled to unit norm, as rows.
    """
    spanning = np.asarray(spanning, dtype=complex)
    lam, U = _gram_quotient(spanning.conj() @ gram @ spanning.T)
    return (U / np.sqrt(lam)).T @ spanning


def _layout(st: BlockStructure, M: np.ndarray) -> tuple[np.ndarray, ...]:
    """Block pair (a, c), indices (i, k, l) and pair starts of `normal_form`'s coordinates."""
    n, d = np.array(st.sizes), st.num_blocks
    start = np.concatenate(([0], np.cumsum(n[:, None] * M * n)))
    pair = np.repeat(np.arange(d * d), np.diff(start))
    a, c = np.divmod(pair, d)
    i, r = np.divmod(np.arange(len(pair)) - start[pair], M[a, c] * n[c])
    return a, c, i, *np.divmod(r, n[c]), start


def normal_form(psi: DeltaState, M: np.ndarray, **fields) -> Correspondence:
    """sum_{a,c} C^{N_a} (x) K_ac (x) C^{N_c} with dim K_ac = M[a, c], pair-major.

    Coordinate (a, c, i, k, l) is e_i (x) u_k (x) e_l / sqrt(w_c[l]), u an
    orthonormal basis of K_ac: e_ti moves i to t, e_lt moves l to t times
    sqrt(w_c[t] / w_c[l]), and <v, v'>_B = delta_ii' delta_kk' e_ll' /
    sqrt(w_c[l] w_c[l']).  M = 1 gives B in the basis b_p / sqrt(g_p).
    """
    return Correspondence(psi.structure, psi, np.asarray(M, dtype=int), **fields)


def trivial_correspondence(psi: DeltaState) -> Correspondence:
    """B as a correspondence over itself: the normal form with M = 1."""
    return normal_form(psi, np.eye(psi.structure.num_blocks, dtype=int))


def _same_base(psi: DeltaState, phi: DeltaState) -> None:
    if psi is phi:
        return
    if psi.structure != phi.structure:
        raise MismatchedBase("correspondences over different block structures")
    if not all(np.allclose(a, b, atol=0.0) for a, b in zip(psi.weights, phi.weights)):
        raise MismatchedBase("correspondences over different states")


def psi_tensor_module(psi: DeltaState) -> Correspondence:
    """B (x)_psi B, <a (x) b, c (x) d>_B = b* psi(a* c) d, in normal form: M[a, c]
    = N_a N_c, and b_p (x) b_q for p = e_ij in block a and q = e_kl in block
    c is sqrt(g_p g_q) times the coordinate (a, c, i, j N_c + k, l)."""
    n = np.array(psi.structure.sizes)
    return normal_form(psi, np.outer(n, n))


def _psi_tensor_coords(psi: DeltaState, coeff: np.ndarray) -> np.ndarray:
    """`psi_tensor_module` coordinates of sum_pq coeff[p, q] b_p (x) b_q."""
    st = psi.structure
    n, off = np.array(st.sizes), np.array(st.offsets)
    a, c, i, jk, l, _ = _layout(st, np.outer(n, n))
    j, k = np.divmod(jk, n[c])
    p, q = off[a] + i * n[a] + j, off[c] + k * n[c] + l
    return coeff[p, q] * np.sqrt(psi.gram_diag[p] * psi.gram_diag[q])


def multiplicity_spaces(G: QuantumGraph) -> tuple[dict, np.ndarray]:
    """Bases u of the multiplicity spaces K_ab of E_G, and eps in `normal_form`
    coordinates: eps_ab[i,j,k,l] = sum_u gen_ab[i,u,l] u[jk] / sqrt(w_b[l]).

    K_ab is the column space of Y[(j,k), (i,l)] = sqrt(w_a[j]) eps_ab[i,j,k,l]
    = delta^-2 w_a[j]^-1/2 (Choi slab ab), from one batched eigh of Y Y* per
    group of `choi_slabs`, cut at GRAM_CUTOFF_RTOL times the largest eigenvalue
    of all.  bases[a, b] has columns u orthonormal for the weights w_a[j].
    """
    psi, offs = G.psi, np.array(G.structure.offsets)
    groups = []
    for pairs, H in G.adjacency.choi_slabs:
        a, b = pairs.T  # w_c[i] = psi(e_ii) of block c
        na, nb = G.structure.sizes[a[0]], G.structure.sizes[b[0]]
        root_a = np.sqrt(np.repeat(psi.psi_vec[offs[a][:, None] + (na + 1) * np.arange(na)], nb, axis=1))
        root_b = np.sqrt(psi.psi_vec[offs[b][:, None] + (nb + 1) * np.arange(nb)])
        Y = H / G.delta_sq / root_a[:, :, None]
        lam, U = np.linalg.eigh(Y @ Y.conj().transpose(0, 2, 1))
        lam, U = lam[:, ::-1], U[:, :, ::-1]
        coords = (U.conj().transpose(0, 2, 1) @ Y).reshape(len(a), -1, na, nb) * root_b[:, None, None]
        groups.append((pairs, lam, U / root_a[:, :, None], coords.transpose(0, 2, 1, 3)))  # (i, u, l)
    cutoff = GRAM_CUTOFF_RTOL * max(max(lam[:, 0].max() for _, lam, _, _ in groups), 1e-300)
    bases, gen = {}, {}
    for pairs, lam, U, coords in groups:
        for (a, b), n, u, c in zip(pairs.tolist(), np.count_nonzero(lam > cutoff, axis=1), U, coords):
            bases[a, b], gen[a, b] = u[:, :n], c[:, :n].ravel()
    order = sorted(bases)
    return {ab: bases[ab] for ab in order}, np.concatenate([gen[ab] for ab in order])


def build_edge_correspondence(G: QuantumGraph) -> Correspondence:
    """E_G = B . eps . B in normal form, M[a, b] = dim K_ab, with the indicator
    as generator.  The result records G, so every E_G report takes E_G alone.
    """
    require_completely_positive(G)
    bases, gen = multiplicity_spaces(G)  # keyed by (a, b) in row-major order
    M = np.reshape([u.shape[1] for u in bases.values()], (G.structure.num_blocks, -1))
    return normal_form(G.psi, M, generator=gen, graph=G)


def b_inner(xi: CorrVector, eta: CorrVector, E: Correspondence) -> AlgebraElement:
    """B-valued inner product <xi, eta>_B of two vectors of E."""
    if xi.module is not E or eta.module is not E:
        raise MismatchedBase("vectors of a different correspondence")
    return AlgebraElement.from_vector(E.structure, E.b_inner_coords(xi.coords, eta.coords))


def _empty_blocks(E: Correspondence) -> tuple[list[int], list[int]]:
    """Blocks with a zero row of E.mult (sources) and a zero column (sinks)."""
    return np.flatnonzero(~E.mult.any(axis=1)).tolist(), np.flatnonzero(~E.mult.any(axis=0)).tolist()


def left_kernel(E: Correspondence, tol: float = DEFAULT_TOL) -> dict:
    """Left-action kernel of E_G on both sides of the faithfulness theorem.

    The units of block a move the coordinates (a, c, i, k, l), so the kernel
    is spanned by the units of the blocks with a zero row of M, the Kraus
    ranks.  The prediction is the sum of the central summands inside ker A,
    the source blocks of `quantum_sources_sinks`.  Both are coordinate
    subspaces, so the Frobenius distance of their projectors is the root of
    the number of units in one of them only.
    """
    st = E.structure
    sources, _ = quantum_sources_sinks(E.graph, tol)
    unit_block = np.repeat(np.arange(st.num_blocks), np.square(st.sizes))
    in_kernel, in_perp = np.isin(unit_block, _empty_blocks(E)[0]), np.isin(unit_block, sources)
    eye = np.eye(st.dim, dtype=complex)
    return {
        "kernel_basis": eye[in_kernel],
        "kernel_dim": int(in_kernel.sum()),
        "perp_basis": eye[in_perp],
        "perp_blocks": sources,
        "subspace_distance": float(np.sqrt(np.count_nonzero(in_kernel != in_perp))),
    }


def generator_slabs(
    creation: tuple, generator: np.ndarray, level: Correspondence, below: Correspondence
) -> np.ndarray:
    """T(eps) / delta from `below` into `level`, (dim level, dim below), with
    the rows and columns of both in row-group order (`row_groups`).

    creation = (z, e, y, value): T(xi) has the entry value * xi[e] at (z, y).
    Its row slab R_aj is the s_a rows of row group (a, j), and T(e_ij . eps)
    is R_aj placed on row group (a, i), since e_ij . moves the first index of E only."""
    z, e, y, value = creation
    out = np.zeros((level.size, below.size), dtype=complex)
    out[level.row_groups[0][z], below.row_groups[0][y]] = value * generator[e] / level.psi.delta
    return out


def block_slabs(R: np.ndarray, level: Correspondence) -> list[np.ndarray]:
    """The row slabs of `generator_slabs` R into `level`, one (N_a, s_a, dim below)
    view per block a of B: entry [j] is R_aj."""
    n, size = np.array(level.structure.sizes), level.row_groups[1]
    return [part.reshape(N, s, R.shape[1]) for part, N, s in zip(np.split(R, np.cumsum(n * size)[:-1]), n, size)]


def _block_entries(level: Correspondence) -> tuple[np.ndarray, ...]:
    """The entries (q, q') of `level` in row-group order that lie in one block c,
    q at position x of row group (c, k) and q' at position y of (c, t): with
    the unit e_kt as u, the place of H_c[x, y] in the H_c laid end to end, and x == y."""
    n, off, size = np.array(level.structure.sizes), np.array(level.structure.offsets), level.row_groups[1]
    start, hstart = np.cumsum(n * size) - n * size, np.cumsum(size * size) - size * size
    count = n * n * size * size
    c = np.repeat(np.arange(len(n)), count)
    N, s, r = n[c], size[c], np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
    k, t, x, y = r // (N * s * s), r // (s * s) % N, r // s % s, r % s
    return start[c] + k * s + x, start[c] + t * s + y, off[c] + k * N + t, hstart[c] + x * s + y, x == y


def gram_defects(R: np.ndarray, level: Correspondence) -> list[np.ndarray]:
    """H_a - 1 for H_a = delta^2 sum_j R_aj R_aj* / w_a[j] of the `generator_slabs`
    R into `level`, one (s_a, s_a) product per block a of B.

    With f_ij = e_ij / sqrt(w_i w_j), T(f_ik . eps) T(f_jk . eps)* summed over k
    maps row group (a, j) onto (a, i) as H_a / sqrt(w_i w_j), so the covariance
    defect at f_ij is (1 - H_a) / sqrt(w_i w_j), and psi_t(e_ij) is H_a / delta^2."""
    psi = level.psi
    return [
        ((Ra * (psi.delta_sq / w)[:, None, None]) @ Ra.conj().transpose(0, 2, 1)).sum(axis=0) - np.eye(Ra.shape[1])
        for Ra, w in zip(block_slabs(R, level), psi.weights)
    ]


def compact_decomposition_residual(E: Correspondence) -> float:
    """Residual of f_ij . xi = sum_k theta_{f_ik.eps, f_jk.eps}(xi) on E_G.

    On level 1 of the Fock module theta_{xi,eta} = T(xi)T(eta)*, so this is
    the covariance defect (1 - H_a) / sqrt(w_i w_j) of `gram_defects` from
    level 0 = B in the units b_p / sqrt(g_p), on which T(xi) acts as
    xi . b_p / sqrt(g_p): the right action's nonzeros, with value
    sqrt(g_p / w_i) / sqrt(g_p) = 1 / sqrt(w_i) for b_p = e_ij.  The result is
    the largest column norm over all units, max_a (column norm of H_a - 1) / min w_a.
    """
    p, row, col, _ = E.right
    creation = (row, col, p, 1.0 / np.sqrt(E.psi.weight_of_row[p]))
    defects = gram_defects(generator_slabs(creation, E.generator, E, trivial_correspondence(E.psi)), E)
    return max(float(np.linalg.norm(D, axis=0).max(initial=0.0)) / w.min() for D, w in zip(defects, E.psi.weights))


def _vector_map(M: Correspondence, xi: np.ndarray) -> np.ndarray:
    """Matrix of x -> <xi, x . xi>_B on M, column p <xi, b_p . xi>_B.  It decides
    the orbit Gram: <b_p.xi.b_q, b_r.xi.b_s>_B = b_q* <xi, b_p* b_r . xi>_B b_s."""
    moved = M.left_units(xi[:, None])[:, :, 0]  # row p is b_p . xi
    return M.b_inner_coords(xi, moved).T


def cp_correspondence(E: Correspondence) -> float:
    """Defect of the isomorphism of B (x)_A B with E_G.

    B (x)_A B carries <a (x) b, c (x) d>_B = b* A(a* c) d.  The canonical map
    x . eps . y -> (1/delta)(x (x) y) preserves B-valued inner products
    exactly when delta^2 <eps, x . eps>_B = A(x), since both Grams of the
    orbit b_p . eps . b_q are b_q* (.)(b_p* b_r) b_s of that map; the
    residual is the worst entry of delta^2 <eps, b_p . eps>_B - A(b_p),
    divided by delta^2.
    """
    G = E.graph
    diff = G.delta_sq * _vector_map(E, E.generator) - G.adjacency.matrix
    return float(np.abs(diff).max(initial=0.0)) / G.delta_sq


def _cyclic_dim(X: Correspondence, xi: np.ndarray) -> int:
    """Dimension of the cyclic submodule B . xi . B of the normal form X.

    The units move i and l of the coordinates (a, c, i, k, l), so B . xi . B
    is sum_{a,c} C^{N_a} (x) K'_ac (x) C^{N_c} with K'_ac the span of the
    rows xi[a, c, i, :, l]: sum N_a N_c rank(Xi_ac), the ranks cut at
    GRAM_CUTOFF_RTOL times the largest Gram eigenvalue of all pairs.
    """
    n = np.array(X.structure.sizes)
    segments = np.split(xi, X.layout[-1][1:-1])  # one per pair (a, c)
    grams = {}
    for (a, c), m in np.ndenumerate(X.mult):
        if m:
            Xi = segments[a * n.size + c].reshape(n[a], m, n[c]).transpose(0, 2, 1).reshape(-1, m)
            grams[a, c] = np.linalg.eigvalsh(Xi.conj().T @ Xi)
    cutoff = GRAM_CUTOFF_RTOL * max(max((lam[-1] for lam in grams.values()), default=0.0), 1e-300)
    return int(sum(n[a] * n[c] * np.count_nonzero(lam > cutoff) for (a, c), lam in grams.items()))


@dataclass(frozen=True)
class RecognitionResult:
    graph: QuantumGraph
    module_dim: int
    iso_residual: float


def recognize(
    xi,
    psi: DeltaState,
    module: Correspondence | None = None,
    tol: float = DEFAULT_TOL,
) -> RecognitionResult:
    """Decide whether a cyclic vector generates a quantum edge correspondence.

    xi is a TensorElement in B (x)_psi B (`psi_tensor_module`), or a
    CorrVector of `module` or its coordinates when `module` is given; inputs
    over another base or module raise MismatchedBase before any work.  The
    candidate adjacency is A(x) = delta^2 (psi (x) 1)(x . xi) in the ambient
    tensor model and A(x) = delta^2 <xi, x . xi>_B in a cyclic module; it
    must be Schur-idempotent.  The module dimension is that of B . xi . B,
    read off the coordinates block pair by block pair (`_cyclic_dim`); a
    vector that generates less than `module` raises NotGenerating.  On
    success returns the recovered graph together with the inner-product
    defect of the identification x . xi . y -> x . eps . y.
    """
    st = psi.structure
    if module is None:
        if not isinstance(xi, TensorElement):
            raise ShapeMismatch("expected a TensorElement without a module")
        if xi.structure != st:
            raise MismatchedBase("tensor over a different block structure")
        space, coords = psi_tensor_module(psi), _psi_tensor_coords(psi, xi.coeff)
    else:
        _same_base(module.psi, psi)
        vec = xi if isinstance(xi, CorrVector) else module.vector(xi)  # checks the size
        if vec.module is not module:
            raise MismatchedBase("vector of a different correspondence")
        space, coords = module, vec.coords
    inner = _vector_map(space, coords)
    A = _indicator_adjacency(xi.coeff, psi) if module is None else psi.delta_sq * inner

    span_rank = _cyclic_dim(space, coords)
    if module is not None and span_rank < module.size:
        raise NotGenerating(
            f"xi generates a {span_rank}-dimensional submodule of dimension-{module.size} module"
        )

    G = QuantumGraph.build(psi, LinearMapOnB(st, A), tol=tol)
    E = build_edge_correspondence(G)
    iso = float(np.abs(inner - _vector_map(E, E.generator)).max(initial=0.0))
    return RecognitionResult(graph=G, module_dim=span_rank, iso_residual=iso)


def faithful_full_report(E: Correspondence, tol: float = DEFAULT_TOL) -> dict:
    """Faithfulness and fullness of E_G, read off its multiplicity matrix M.

    E_G is faithful when M has no zero row (no source block) and full when
    M has no zero column (no sink block); B . <E, E>_B . B is the sum of
    the blocks of M's nonzero columns.  The subspace distance compares the
    kernel with the source blocks of `quantum_sources_sinks` at `tol`
    (`left_kernel`).
    """
    sources, sinks = _empty_blocks(E)
    kern = left_kernel(E, tol)
    return {
        "faithful": not sources,
        "full": not sinks,
        "kernel_dim": kern["kernel_dim"],
        "ideal_blocks": [a for a in range(E.structure.num_blocks) if a not in sinks],
        "subspace_distance": kern["subspace_distance"],
        "sources": sources,
        "sinks": sinks,
    }
