"""Finite-dimensional C*-correspondences over B and the edge correspondence.

A module space carries B-valued inner products and commuting left/right
actions in coordinates.  Correspondences are module spaces whose basis is
orthonormal for the scalar form psi(<.,.>_B); they are produced from a
spanning family by diagonalizing the scalar Gram matrix and discarding its
kernel.
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
    edge_indicator,
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
    """Module space whose basis is scalar-orthonormal (Gram kernel removed).

    ambient/basis_ambient record how basis vectors sit inside the space the
    correspondence was built from; generator, when set, holds the quotient
    coordinates of the distinguished generating vector (the edge indicator
    for edge correspondences), and graph the quantum graph it came from.
    """

    ambient: InnerModule
    basis_ambient: np.ndarray  # (n, M)
    generator: np.ndarray | None = None
    graph: QuantumGraph | None = None

    def project(self, ambient_vec: np.ndarray) -> np.ndarray:
        """Quotient coordinates of an ambient vector (scalar-orthogonal projection)."""
        return self.basis_ambient.conj() @ (self.ambient.scalar_gram @ ambient_vec)

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

    def norm(self) -> float:
        g = self.module.scalar_gram
        return float(np.sqrt(abs(self.coords.conj() @ g @ self.coords)))


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


def from_spanning(ambient: InnerModule, spanning: np.ndarray) -> Correspondence:
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
    return Correspondence(
        structure=ambient.structure,
        psi=ambient.psi,
        binner=binner,
        lmul=proj @ ambient.left_units(basis.T),
        rmul=proj @ ambient.right_units(basis.T),
        ambient=ambient,
        basis_ambient=basis,
    )


def algebra_module(psi: DeltaState) -> ModuleSpace:
    """B as a correspondence over itself: <x, y>_B = x* y, regular actions."""
    st = psi.structure
    mt = st.mul_tensor
    binner = mt[:, st.star_perm, :].transpose(1, 2, 0).astype(complex)
    lmul = mt.transpose(1, 0, 2).astype(complex)  # lmul[p] = mt[:, p, :]
    rmul = mt.transpose(2, 0, 1).astype(complex)  # rmul[p] = mt[:, :, p]
    return ModuleSpace(st, psi, binner, lmul, rmul)


def trivial_correspondence(psi: DeltaState) -> Correspondence:
    """B as a correspondence, quotient-normalized (Gram is automatically PD)."""
    amb = algebra_module(psi)
    return from_spanning(amb, np.eye(psi.structure.dim, dtype=complex))


def _same_base(X: InnerModule, Y: InnerModule) -> None:
    if X.structure != Y.structure:
        raise MismatchedBase("correspondences over different block structures")
    if not all(np.allclose(a, b) for a, b in zip(X.psi.weights, Y.psi.weights)):
        raise MismatchedBase("correspondences over different states")


def tensor_module(X: ModuleSpace, Y: ModuleSpace) -> TensorModule:
    """X (x) Y with <x1 (x) y1, x2 (x) y2>_B = <y1, <x1, x2>_B . y2>_B.

    Every module quotiented here is such an ambient: its quotient by the
    Gram kernel is the interior tensor product X (x)_B Y, which realizes the
    balanced relation x.b (x) y = x (x) b.y.  Only X's inner product and
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
    return M.left_units(right.T).transpose(0, 2, 1).reshape(-1, M.size)


def build_edge_correspondence(G: QuantumGraph) -> Correspondence:
    """E_G = B . eps . B inside B (x)_psi B, with the indicator as generator.

    The result records G, so every E_G report below takes E_G alone.
    """
    require_completely_positive(G)
    eps = edge_indicator(G).coeff.ravel()
    ambient = psi_tensor_module(G.psi)
    E = from_spanning(ambient, _unit_orbit(ambient, eps))
    return replace(E, generator=E.project(eps), graph=G)


def b_inner(xi: CorrVector, eta: CorrVector, E: Correspondence) -> AlgebraElement:
    """B-valued inner product <xi, eta>_B of two module vectors."""
    if xi.module is not E or eta.module is not E:
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
    """Blocks spanning B . A(B) . B and whether the correspondence is full."""
    st = G.structure
    A = G.adjacency.matrix
    blocks = [
        a
        for a in range(st.num_blocks)
        if np.linalg.norm(A[st.offsets[a] : st.offsets[a + 1], :]) > tol
    ]
    return blocks, len(blocks) == st.num_blocks


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


def _orbit_gram(M: InnerModule, xi: np.ndarray) -> np.ndarray:
    """B-valued Gram of the unit orbit: <b_p.xi.b_q, b_r.xi.b_s>_B at [pq, rs]."""
    g = _unit_orbit(M, xi)
    return np.einsum("xi,yj,ijd->xyd", g.conj(), g, M.binner, optimize=True)


def cp_correspondence(E: Correspondence) -> tuple[int, float]:
    """Dimension of B (x)_A B and the defect of its isomorphism with E_G.

    B (x)_A B carries <a (x) b, c (x) d>_B = b* A(a* c) d.  The canonical map
    x . eps . y -> (1/delta)(x (x) y) preserves B-valued inner products, so
    the Gram of the orbit b_p . eps . b_q in E must equal the closed form
    delta^-2 b_q* A(b_p* b_r) b_s; the residual is the worst entry of the
    difference.  The dimension is the rank of the closed-form scalar Gram.
    """
    G = E.graph
    model = tensor_square_module(G.psi, G.adjacency.matrix).binner / G.delta_sq
    model_dim = len(_gram_quotient(model @ G.psi.psi_vec)[0])
    diff = _orbit_gram(E, E.generator)
    diff -= model
    return model_dim, float(np.abs(diff).max(initial=0.0))


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
        A = _indicator_adjacency(xi.coeff, psi)
    else:
        coords = xi.coords if isinstance(xi, CorrVector) else np.asarray(xi, dtype=complex)
        mod_space = module
        # column p is delta^2 <xi, b_p . xi>_B
        moved = np.einsum("pab,b->pa", module.lmul, coords)
        A = psi.delta_sq * np.einsum("a,pb,abd->dp", coords.conj(), moved, module.binner)

    innerX = _orbit_gram(mod_space, coords)
    span_rank = len(_gram_quotient(innerX @ psi.psi_vec)[0])
    if module is not None and span_rank < module.size:
        raise NotGenerating(
            f"xi generates a {span_rank}-dimensional submodule of dimension-{module.size} module"
        )

    G = QuantumGraph.build(psi, LinearMapOnB(st, A), tol=tol)
    E = build_edge_correspondence(G)
    iso = float(np.abs(innerX - _orbit_gram(E, E.generator)).max(initial=0.0))
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
