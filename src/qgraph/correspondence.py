"""Finite-dimensional C*-correspondences over B and the edge correspondence.

A module space carries B-valued inner products and commuting left/right
actions in coordinates.  Correspondences are module spaces whose basis is
orthonormal for the scalar form psi(<.,.>_B).  The library builds them in
block-multiplicity normal form sum_{a,c} C^{N_a} (x) K_ac (x) C^{N_c}, with
M[a, c] = dim K_ac; for E_G, M[a, b] is the Kraus rank of A from block a to
block b.  The Gram quotient `from_spanning` serves the dense test oracle
(`tests/oracles.py`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
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
class InnerModule:
    """Coordinate model of a B-bimodule with a B-valued semi-inner product.

    binner[a, b] are the canonical coordinates of <u_a, u_b>_B.  Subclasses
    say how the units act: left_units(V) and right_units(V) give b_p . v and
    v . b_p for every unit p and every column v of V, shape (dim, M, n).
    """

    structure: BlockStructure
    psi: DeltaState
    binner: np.ndarray  # (M, M, dim)

    @property
    def size(self) -> int:
        return self.binner.shape[0]

    @cached_property
    def scalar_gram(self) -> np.ndarray:
        """Scalar form psi(<u_a, u_b>_B) on the coordinate spanning set."""
        return self.binner @ self.psi.psi_vec

    def b_inner_coords(self, xi: np.ndarray, eta: np.ndarray) -> np.ndarray:
        """Canonical coordinates of <xi, eta>_B."""
        return np.einsum("a,b,abd->d", xi.conj(), eta, self.binner)


@dataclass(frozen=True)
class ModuleSpace(InnerModule):
    """Module whose unit actions are stored whole: lmul[p] and rmul[p] are the
    matrices of the unit b_p acting on the left and right."""

    lmul: np.ndarray  # (dim, M, M)
    rmul: np.ndarray  # (dim, M, M)

    def left_act(self, x: AlgebraElement, xi: np.ndarray) -> np.ndarray:
        return np.einsum("p,pab,b->a", x.vec, self.lmul, xi)

    def right_act(self, xi: np.ndarray, x: AlgebraElement) -> np.ndarray:
        return np.einsum("p,pab,b->a", x.vec, self.rmul, xi)

    def left_units(self, V: np.ndarray) -> np.ndarray:
        return self.lmul @ V

    def right_units(self, V: np.ndarray) -> np.ndarray:
        return self.rmul @ V


@dataclass(frozen=True)
class TensorModule(InnerModule):
    """X (x) Y before the balanced quotient; coordinate (i, k) is i * dim Y + k.

    B acts on the left through X and on the right through Y.  The factor
    stacks x_lmul (X's left action) and y_rmul (Y's right action) act on one
    tensor factor at a time; no whole-space action matrix is formed.
    """

    x_lmul: np.ndarray  # (dim, dim X, dim X)
    y_rmul: np.ndarray  # (dim, dim Y, dim Y)

    def left_units(self, V: np.ndarray) -> np.ndarray:
        d, nX = self.x_lmul.shape[:2]
        return (self.x_lmul @ V.reshape(nX, -1)).reshape(d, self.size, -1)

    def right_units(self, V: np.ndarray) -> np.ndarray:
        d, nY = self.y_rmul.shape[:2]
        out = self.y_rmul[:, None] @ V.reshape(-1, nY, V.shape[1])  # (dim, dim X, nY, n)
        return out.reshape(d, self.size, -1)


@dataclass(frozen=True)
class Correspondence(ModuleSpace):
    """Module space whose basis is scalar-orthonormal.

    mult is the multiplicity matrix of a `normal_form`; generator, when set,
    holds the coordinates of the distinguished generating vector (the edge
    indicator for edge correspondences), graph the quantum graph it came
    from, and creation, on X (x)_B Y, the canonical map x (x) y -> z.
    """

    mult: np.ndarray | None = None
    generator: np.ndarray | None = None
    graph: QuantumGraph | None = None
    creation: np.ndarray | None = None

    def vector(self, coords: np.ndarray) -> "CorrVector":
        return CorrVector(self, np.asarray(coords, dtype=complex))


@dataclass(frozen=True, kw_only=True)
class QuotientModule(Correspondence):
    """A `from_spanning` quotient, with its basis vectors in ambient coordinates."""

    ambient: InnerModule
    basis_ambient: np.ndarray  # (n, M)

    def project(self, ambient_vec: np.ndarray) -> np.ndarray:
        """Quotient coordinates of an ambient vector (scalar-orthogonal projection)."""
        return self.basis_ambient.conj() @ (self.ambient.scalar_gram @ ambient_vec)


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


def from_spanning(ambient: InnerModule, spanning: np.ndarray) -> QuotientModule:
    """Quotient the span of `spanning` by the scalar Gram kernel.

    Basis vectors are the Gram eigenvectors above the relative cutoff,
    rescaled to unit scalar norm.  The unit actions are the ambient's,
    applied to the basis and projected back onto it.
    """
    spanning = np.asarray(spanning, dtype=complex)
    S = ambient.scalar_gram
    lam, U = _gram_quotient(spanning.conj() @ S @ spanning.T)
    basis = (U / np.sqrt(lam)).T @ spanning  # (n, M), scalar-orthonormal

    half = np.tensordot(basis.conj(), ambient.binner, axes=(1, 0))  # (n, M, dim)
    binner = np.tensordot(half, basis, axes=([1], [1])).transpose(0, 2, 1)
    proj = basis.conj() @ S  # (n, M): scalar projection onto the basis
    lmul, rmul = proj @ ambient.left_units(basis.T), proj @ ambient.right_units(basis.T)
    return QuotientModule(
        ambient.structure, ambient.psi, binner, lmul, rmul, ambient=ambient, basis_ambient=basis
    )


def algebra_module(psi: DeltaState) -> ModuleSpace:
    """B as a correspondence over itself: <x, y>_B = x* y, regular actions."""
    st = psi.structure
    mt = st.mul_tensor
    binner = mt[:, st.star_perm, :].transpose(1, 2, 0).astype(complex)
    lmul = mt.transpose(1, 0, 2).astype(complex)  # lmul[p] = mt[:, p, :]
    rmul = mt.transpose(2, 0, 1).astype(complex)  # rmul[p] = mt[:, :, p]
    return ModuleSpace(st, psi, binner, lmul, rmul)


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
    st, M = psi.structure, np.asarray(M, dtype=int)
    a, c, i, k, l, _ = _layout(st, M)
    n, off, size = np.array(st.sizes), np.array(st.offsets), len(a)
    lmul, rmul = np.zeros((2, st.dim, size, size), dtype=complex)
    binner = np.zeros((size, size, st.dim), dtype=complex)
    x, t = np.nonzero(np.arange(n.max()) < n[a][:, None])
    lmul[off[a[x]] + t * n[a[x]] + i[x], x + (t - i[x]) * M[a, c][x] * n[c[x]], x] = 1.0
    x, t = np.nonzero(np.arange(n.max()) < n[c][:, None])
    p, y = off[c[x]] + l[x] * n[c[x]] + t, x + t - l[x]  # p is e_lt in block c
    rmul[p, y, x] = np.sqrt(psi.gram_diag[p] / psi.weight_of_row[p])
    binner[x, y, p] = 1.0 / np.sqrt(psi.gram_diag[p] * psi.weight_of_row[p])
    return Correspondence(st, psi, binner, lmul, rmul, mult=M, **fields)


def trivial_correspondence(psi: DeltaState) -> Correspondence:
    """B as a correspondence over itself: the normal form with M = 1."""
    return normal_form(psi, np.eye(psi.structure.num_blocks, dtype=int))


def _same_base(X: InnerModule, Y: InnerModule) -> None:
    if X.structure != Y.structure:
        raise MismatchedBase("correspondences over different block structures")
    if not all(np.allclose(a, b) for a, b in zip(X.psi.weights, Y.psi.weights)):
        raise MismatchedBase("correspondences over different states")


def tensor_module(X: ModuleSpace, Y: ModuleSpace) -> TensorModule:
    """X (x) Y with <x1 (x) y1, x2 (x) y2>_B = <y1, <x1, x2>_B . y2>_B.

    Its quotient by the Gram kernel (`from_spanning`) is the interior tensor
    product X (x)_B Y, which realizes the balanced relation x.b (x) y = x (x) b.y.  Only X's inner product and
    left action and Y's inner product and actions are read.
    """
    _same_base(X, Y)
    n = X.size * Y.size
    binner = np.einsum("ijp,pml,kmd->ikjld", X.binner, Y.lmul, Y.binner, optimize=True)
    return TensorModule(X.structure, X.psi, binner.reshape(n, n, -1), X.lmul, Y.rmul)


def tensor_square_module(psi: DeltaState, phi_matrix: np.ndarray) -> TensorModule:
    """B (x) B with <a (x) b, c (x) d>_B = b* Phi(a* c) d for a linear Phi:
    the tensor module of B with <a, c> = Phi(a* c) and B."""
    B = algebra_module(psi)
    X = replace(B, binner=B.binner @ np.asarray(phi_matrix, dtype=complex).T)
    return tensor_module(X, B)


def psi_tensor_module(psi: DeltaState) -> TensorModule:
    """The ambient B (x)_psi B: Phi = psi(.) 1."""
    return tensor_square_module(psi, np.outer(psi.structure.unit_vector, psi.psi_vec))


def _unit_orbit(M: InnerModule, xi: np.ndarray) -> np.ndarray:
    """Rows b_p . xi . b_q of the module M, row index p * dim B + q."""
    right = M.right_units(xi[:, None])[:, :, 0]  # row q is xi . b_q
    return M.left_units(right.T).transpose(0, 2, 1).reshape(M.structure.dim**2, M.size)


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
    """B-valued inner product <xi, eta>_B of two module vectors."""
    if xi.module.size != E.size or eta.module.size != E.size:
        raise ShapeMismatch("vectors over a different correspondence")
    return AlgebraElement.from_vector(E.structure, E.b_inner_coords(xi.coords, eta.coords))


def _gns_projector(vectors: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """GNS-orthogonal projector onto the span of the rows of `vectors`."""
    weighted = np.diag(gram)
    lam, U = _gram_quotient(vectors.conj() @ weighted @ vectors.T)
    V = (U / np.sqrt(lam)).T @ vectors
    return V.T @ V.conj() @ weighted


def left_kernel(E: Correspondence, tol: float = DEFAULT_TOL) -> dict:
    """Left-action kernel of E_G, computed directly and as predicted.

    The prediction is the sum of the central summands inside ker A, the
    source blocks of `quantum_sources_sinks`.  Returns the numerical null
    space, the predicted blocks and the distance between the two subspaces.
    """
    G = E.graph
    st = G.structure
    # direct: x with x . v_beta = 0 for every basis vector
    K = E.lmul.reshape(st.dim, -1).T  # ((c,beta), p)
    if K.shape[0]:
        # R of K = QR has K's singular values and right singular vectors
        # but at most dim B rows
        _, svals, vh = np.linalg.svd(np.linalg.qr(K, mode="r"))
        cutoff = tol * max(float(svals.max(initial=0.0)), 1.0)
        null_dim = int(np.sum(svals <= cutoff)) + (st.dim - len(svals))
        kernel = vh.conj()[st.dim - null_dim :] if null_dim else np.zeros((0, st.dim))
    else:
        kernel = np.eye(st.dim, dtype=complex)

    # predicted kernel: the central summands inside ker A, the source blocks
    sources, _ = quantum_sources_sinks(G, tol)
    rows = [p for a in sources for p in range(st.offsets[a], st.offsets[a + 1])]
    perp = np.eye(st.dim, dtype=complex)[rows]

    g = G.psi.gram_diag
    dist = float(np.linalg.norm(_gns_projector(kernel, g) - _gns_projector(perp, g)))
    return {
        "kernel_basis": kernel,
        "kernel_dim": kernel.shape[0],
        "perp_basis": perp,
        "perp_blocks": sources,
        "subspace_distance": dist,
    }


def fullness_ideal(G: QuantumGraph, tol: float = DEFAULT_TOL) -> tuple[list[int], bool]:
    """Blocks spanning B . A(B) . B, the blocks that are not sinks, and
    whether the correspondence is full."""
    _, sinks = quantum_sources_sinks(G, tol)
    return [a for a in range(G.structure.num_blocks) if a not in sinks], not sinks


def covariance_defect(E: Correspondence, C: np.ndarray, lmul: np.ndarray) -> np.ndarray:
    """pi(f_ij) - sum_k T(f_ik . eps) T(f_jk . eps)* for every adapted unit f_ij.

    C is a creation tensor of shape (level l, dim E, level l-1): contracting
    a vector of E into its middle slot gives the matrix of T(xi) from level
    l-1 to level l in orthonormal coordinates.  lmul is the left action of
    the standard units on level l.  Entry p = (a, i, j) of the result is
    the defect for f_ij, the covariance identity of the Fock representation.
    """
    st = E.structure
    scale = 1.0 / np.sqrt(E.psi.weight_of_row * E.psi.gram_diag)  # f_p = scale[p] b_p
    V = scale[:, None] * (E.lmul @ E.generator)  # row p is f_p . eps
    T = np.einsum("aeb,pe->pab", C, V, optimize=True)  # T(f_p . eps)
    defect = scale[:, None, None] * lmul
    for a, n in enumerate(st.sizes):
        blk = slice(st.offsets[a], st.offsets[a + 1])
        Tb = T[blk].reshape(n, n, *T.shape[1:])  # [i, k]
        TT = np.einsum("ikab,jkcb->ijac", Tb, Tb.conj(), optimize=True)
        defect[blk] -= TT.reshape(n * n, *lmul.shape[1:])
    return defect


def compact_decomposition_residual(E: Correspondence) -> float:
    """Residual of f_ij . xi = sum_k theta_{f_ik.eps, f_jk.eps}(xi) on E_G.

    On level 1 of the Fock module theta_{xi,eta} = T(xi)T(eta)*, so this is
    the covariance identity with level 0 = B in the psi-orthonormal units
    b_p / sqrt(g_p), on which T(xi) acts as xi . b_p / sqrt(g_p).  Reported
    as the largest column norm of the defect over all units.
    """
    C0 = E.rmul.transpose(1, 2, 0) / np.sqrt(E.psi.gram_diag)
    defect = covariance_defect(E, C0, E.lmul)
    return float(np.linalg.norm(defect, axis=1).max(initial=0.0))


def _vector_map(M: InnerModule, xi: np.ndarray) -> np.ndarray:
    """Matrix of x -> <xi, x . xi>_B on M, column p <xi, b_p . xi>_B.  It decides
    the orbit Gram: <b_p.xi.b_q, b_r.xi.b_s>_B = b_q* <xi, b_p* b_r . xi>_B b_s."""
    moved = M.left_units(xi[:, None])[:, :, 0]  # row p is b_p . xi
    return np.einsum("a,pb,abd->dp", xi.conj(), moved, M.binner, optimize=True)


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

    xi is a TensorElement in B (x)_psi B, or a CorrVector when `module` is
    given.  The candidate adjacency is A(x) = delta^2 (psi (x) 1)(x . xi) in
    the ambient tensor model and A(x) = delta^2 <xi, x . xi>_B in a cyclic
    module; it must be Schur-idempotent.  On success returns the recovered
    graph together with the inner-product defect of the identification
    x . xi . y -> x . eps . y.
    """
    st = psi.structure
    if module is None:
        if not isinstance(xi, TensorElement):
            raise ShapeMismatch("expected a TensorElement without a module")
        mod_space: InnerModule = psi_tensor_module(psi)
        coords = xi.coeff.ravel()
    else:
        coords = xi.coords if isinstance(xi, CorrVector) else np.asarray(xi, dtype=complex)
        mod_space = module
    inner = _vector_map(mod_space, coords)
    A = _indicator_adjacency(xi.coeff, psi) if module is None else psi.delta_sq * inner

    orbit = _unit_orbit(mod_space, coords)
    span_rank = len(_gram_quotient(orbit.conj() @ mod_space.scalar_gram @ orbit.T)[0])
    if module is not None and span_rank < module.size:
        raise NotGenerating(
            f"xi generates a {span_rank}-dimensional submodule of dimension-{module.size} module"
        )

    G = QuantumGraph.build(psi, LinearMapOnB(st, A), tol=tol)
    E = build_edge_correspondence(G)
    iso = float(np.abs(inner - _vector_map(E, E.generator)).max(initial=0.0))
    return RecognitionResult(graph=G, module_dim=span_rank, iso_residual=iso)


def faithful_full_report(E: Correspondence, tol: float = DEFAULT_TOL) -> dict:
    """Faithfulness/fullness of E_G with the source/sink cross-check."""
    kern = left_kernel(E, tol)
    ideal_blocks, full = fullness_ideal(E.graph, tol)
    sources, sinks = quantum_sources_sinks(E.graph, tol)
    return {
        "faithful": kern["kernel_dim"] == 0,
        "full": full,
        "kernel_dim": kern["kernel_dim"],
        "ideal_blocks": ideal_blocks,
        "subspace_distance": kern["subspace_distance"],
        "sources": sources,
        "sinks": sinks,
    }
