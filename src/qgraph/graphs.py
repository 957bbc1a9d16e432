"""Quantum adjacency matrices, edge indicators, and their verification.

A quantum graph is (B, psi, A) with A Schur-idempotent: m (A x A) m* =
delta^2 A.  This module validates that condition, builds the quantum edge
indicator, cross-checks complete positivity two independent ways, finds
quantum sources/sinks, and evaluates the homomorphism and quantum
isomorphism covariance residuals.  The checks work block by block: the Choi
slabs are built once per graph, and unit images multiply per block.
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
    comultiply,
    modular_half_matrix,
    sharp,
)
from .errors import (
    NotCompletelyPositive,
    NotIdempotent,
    NotModularSelfAdjoint,
    NotQuantumAdjacency,
    ShapeMismatch,
)

CHOI_EIG_RTOL = 1e-10


@dataclass(frozen=True)
class LinearMapOnB:
    """Linear map on B stored as a matrix on canonical coordinates."""

    structure: BlockStructure
    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.shape != (self.structure.dim, self.structure.dim):
            raise ShapeMismatch(f"map matrix has shape {mat.shape}")
        object.__setattr__(self, "matrix", mat)

    def __call__(self, x: AlgebraElement) -> AlgebraElement:
        if x.structure != self.structure:
            raise ShapeMismatch("element over a different block structure")
        return AlgebraElement.from_vector(self.structure, self.matrix @ x.vec)

    @classmethod
    def identity(cls, structure: BlockStructure) -> "LinearMapOnB":
        return cls(structure, np.eye(structure.dim))

    def adapted_coefficients(self, psi: DeltaState) -> np.ndarray:
        """Coefficient matrix in the adapted-unit basis, by diagonal rescaling.

        A(f_p) = sum_q coeff[q, p] f_q with f_p = e_p / sqrt(w_i w_j).
        """
        scale = np.sqrt(psi.weight_of_row * psi.gram_diag)
        return self.matrix * (scale[:, None] / scale[None, :])

    @cached_property
    def choi_slabs(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Choi slabs H[(i,r),(j,s)] = A(e_ij^{(a)})^{(b)}_{rs} of each block pair
        (a, b), built once per map and grouped by (N_a, N_b): a group is its
        (k, 2) pairs, row-major, and their k slabs.  A is completely positive
        iff every slab is positive semidefinite."""
        sizes, offs = np.array(self.structure.sizes), np.array(self.structure.offsets)
        groups = []
        for na, nb in sorted({(x, y) for x in sizes for y in sizes}):
            a, b = np.nonzero((sizes == na)[:, None] & (sizes == nb)[None, :])
            # rows (r, s) of block b, columns (i, j) of block a
            rows = offs[b][:, None, None] + np.arange(nb * nb)[:, None]
            H = self.matrix[rows, offs[a][:, None, None] + np.arange(na * na)]
            H = H.reshape(-1, nb, nb, na, na).transpose(0, 3, 1, 4, 2)
            groups.append((np.stack([a, b], axis=1), H.reshape(-1, na * nb, na * nb)))
        return groups


def _schur_square_matrix(psi: DeltaState, A: LinearMapOnB) -> np.ndarray:
    """Matrix of x -> m (A x A) m*(x) on canonical coordinates.

    Column u is m applied to (A x A) m*(b_u) = A W[u] A^T.
    """
    AWA = A.matrix @ psi.comult_tensor @ A.matrix.T
    return np.einsum("vpq,upq->vu", psi.structure.mul_tensor, AWA)


def schur_residual(psi: DeltaState, A: LinearMapOnB) -> float:
    """Frobenius residual of m (A x A) m* = delta^2 A over the standard basis."""
    if A.structure != psi.structure:
        raise ShapeMismatch("map and state over different structures")
    return float(
        np.linalg.norm(_schur_square_matrix(psi, A) - psi.delta_sq * A.matrix)
    )


@dataclass(frozen=True)
class QuantumGraph:
    """Validated triple (B, psi, A); construction enforces Schur idempotency."""

    structure: BlockStructure
    psi: DeltaState
    adjacency: LinearMapOnB
    schur_residual_cache: float = 0.0

    @classmethod
    def build(
        cls,
        psi: DeltaState,
        adjacency: LinearMapOnB,
        tol: float = DEFAULT_TOL,
    ) -> "QuantumGraph":
        res = schur_residual(psi, adjacency)
        if not res <= tol:  # a NaN residual fails too
            raise NotQuantumAdjacency(
                f"Schur idempotency residual {res:.3e} exceeds {tol:.1e}"
            )
        return cls(psi.structure, psi, adjacency, res)

    @property
    def delta_sq(self) -> float:
        return self.psi.delta_sq

    @cached_property
    def choi(self) -> tuple[bool, float]:
        """Choi verdict of the adjacency: (completely positive, min eigenvalue)."""
        return is_completely_positive(self.psi, self.adjacency)


def edge_indicator(G: QuantumGraph) -> TensorElement:
    """Quantum edge indicator eps = delta^-2 (1 x A) m*(1)."""
    one = AlgebraElement.unit(G.structure)
    t = comultiply(one, G.psi)
    return (1.0 / G.delta_sq) * t.apply_second(G.adjacency.matrix)


def indicator_properties(G: QuantumGraph) -> dict[str, float]:
    """Residuals of the three defining properties of the edge indicator.

    r1: A(x) = delta^2 (psi x 1)(x . eps) over the standard basis.
    r2: eps # eps = eps.
    r3: self-adjointness of (sigma_{i/2} x 1)(eps).
    """
    psi = G.psi
    eps = edge_indicator(G)
    diff = G.adjacency.matrix - _indicator_adjacency(eps.coeff, psi)
    r1 = float(np.linalg.norm(diff, axis=0).max())
    r2 = (sharp(eps, eps) - eps).norm()
    twisted = eps.apply_first(modular_half_matrix(psi))
    r3 = (twisted - twisted.dagger()).norm()
    return {"r1": r1, "r2": r2, "r3": r3}


def is_completely_positive(psi: DeltaState, A: LinearMapOnB) -> tuple[bool, float]:
    """Choi positivity test; returns (flag, min eigenvalue over all slabs).

    One Hermitian check and one eigvalsh per group of `A.choi_slabs`; the first
    slab in (a, b) order that is not finite or not Hermitian fails with -||H||.
    """
    if A.structure != psi.structure:
        raise ShapeMismatch("map and state over different structures")
    bad = []
    for pairs, H in A.choi_slabs:
        defect = np.linalg.norm(H - H.conj().transpose(0, 2, 1), axis=(1, 2))
        ok = defect <= 1e-8 * np.maximum(1.0, np.linalg.norm(H, axis=(1, 2)))
        ok &= np.isfinite(H).all(axis=(1, 2))
        bad += [(tuple(pairs[k]), H[k]) for k in np.flatnonzero(~ok)[:1]]
    if bad:
        return False, -float(np.linalg.norm(min(bad, key=lambda kH: kH[0])[1]))
    evals = [np.linalg.eigvalsh((H + H.conj().transpose(0, 2, 1)) / 2) for _, H in A.choi_slabs]
    min_eig, max_eig = min(e.min() for e in evals), max(0.0, *(e.max() for e in evals))
    return bool(min_eig >= -CHOI_EIG_RTOL * max(1.0, max_eig)), float(min_eig)


def require_completely_positive(G: QuantumGraph) -> None:
    """Raise NotCompletelyPositive unless the Choi test passes for G."""
    ok, min_eig = G.choi
    if not ok:
        raise NotCompletelyPositive(f"Choi min eigenvalue {min_eig:.3e}")


def _indicator_adjacency(xi: np.ndarray, psi: DeltaState) -> np.ndarray:
    """Matrix of A_xi(x) = delta^2 (psi x 1)(x . xi) for coefficients xi.

    Column p is delta^2 sum_q psi(b_p b_q) xi[q, :].
    """
    R = np.einsum("v,vpq->pq", psi.psi_vec, psi.structure.mul_tensor)
    return psi.delta_sq * (R @ xi).T


def adjacency_from_indicator(
    xi: TensorElement, psi: DeltaState, tol: float = DEFAULT_TOL
) -> LinearMapOnB:
    """Recover A_xi(x) = delta^2 (psi x 1)(x . xi) from a candidate indicator.

    Requires xi # xi = xi and modular self-adjointness; the result is then a
    completely positive quantum adjacency matrix and the indicator round
    trips.
    """
    st = psi.structure
    if xi.structure != st:
        raise ShapeMismatch("tensor over a different block structure")
    idem = (sharp(xi, xi) - xi).norm()
    if idem > tol * max(1.0, xi.norm()):
        raise NotIdempotent(f"xi # xi - xi has norm {idem:.3e}")
    twisted = xi.apply_first(modular_half_matrix(psi))
    sa = (twisted - twisted.dagger()).norm()
    if sa > tol * max(1.0, xi.norm()):
        raise NotModularSelfAdjoint(f"modular self-adjointness defect {sa:.3e}")
    return LinearMapOnB(st, _indicator_adjacency(xi.coeff, psi))


def quantum_sources_sinks(
    G: QuantumGraph, tol: float = DEFAULT_TOL
) -> tuple[list[int], list[int]]:
    """Indices of source blocks (in ker A) and sink blocks (orthogonal to ran A)."""
    st = G.structure
    A = G.adjacency.matrix
    sources, sinks = [], []
    for a in range(st.num_blocks):
        lo, hi = st.offsets[a], st.offsets[a + 1]
        if np.linalg.norm(A[:, lo:hi]) <= tol:
            sources.append(a)
        if np.linalg.norm(A[lo:hi, :]) <= tol:
            sinks.append(a)
    return sources, sinks


def adjoint_map(A: LinearMapOnB, psi: DeltaState) -> LinearMapOnB:
    """Adjoint A* for the GNS inner product: <A x, y> = <x, A* y>."""
    if A.structure != psi.structure:
        raise ShapeMismatch("map and state over different structures")
    g = psi.gram_diag
    mat = (A.matrix.conj().T * g[None, :]) / g[:, None]
    return LinearMapOnB(A.structure, mat)


def _multiplicativity_defect(st1: BlockStructure, st2: BlockStructure, images: np.ndarray) -> np.ndarray:
    """[p, q, k, m, :]: B2 coordinates of entry (k, m) of f(b_p b_q) - f(b_p) f(b_q) for
    f: B1 -> B2 (x) M_h with unit images (dim1, dim2, h, h); f(b_p b_q) is read off the
    nonzeros of m."""
    X = images.transpose(0, 2, 3, 1)  # X[p, k, l]: entry (k, l) of f(b_p)
    out = -st2.products(X[:, None, :, :, None], X[None, :, None]).sum(axis=3)
    u, p, q = np.nonzero(st1.mul_tensor)  # b_p b_q = b_u, each (p, q) once
    out[p, q] += X[u]
    return out


def homomorphism_check(G: QuantumGraph) -> dict[str, float]:
    """Multiplicativity of A versus the indicator-shift identity.

    Returns max unit-pair residuals of A(b_p b_q) - A(b_p)A(b_q) and of
    (b_p b_q) . eps - b_p . eps . A(b_q); the two vanish together.  The second
    is b_p . X_q, X_q = b_q . eps - eps . A(b_q), and e_ij . moves row group
    (a, j, .) of the first leg to (a, i, .): its worst value is the worst
    row-group norm of the (d, d, d) stack X.
    """
    require_completely_positive(G)
    st, images = G.structure, G.adjacency.matrix.T  # images[q] = A(b_q)
    eps = edge_indicator(G).coeff
    # X[q, s]: row s (second-leg coordinates) of b_q . eps - eps . A(b_q);
    # b_q . eps adds row r of eps to row u wherever b_q b_r = b_u
    X = -st.products(eps, images[:, None])
    u, q, r = np.nonzero(st.mul_tensor)
    X[q, u] += eps[r]
    groups = [lo + j * n for n, lo in zip(st.sizes, st.offsets) for j in range(n)]
    shift_sq = np.add.reduceat((np.abs(X) ** 2).sum(axis=2), groups, axis=1)
    mult = _multiplicativity_defect(st, st, images[:, :, None, None])
    return {
        "multiplicativity": float(np.linalg.norm(mult, axis=-1).max()),
        "indicator_shift": float(np.sqrt(shift_sq.max())),
    }


class OperatorValuedMap:
    """Linear map B1 -> B2 (x) M_h given by per-unit coordinate images.

    images[p] has shape (dim2, h, h): the image of unit b_p is
    sum_q b_q (x) images[p][q].
    """

    def __init__(self, source: BlockStructure, target: BlockStructure, images: np.ndarray):
        images = np.asarray(images, dtype=complex)
        if images.ndim != 4 or images.shape[0] != source.dim or images.shape[1] != target.dim:
            raise ShapeMismatch(f"theta images have shape {images.shape}")
        if images.shape[2] != images.shape[3] or images.shape[2] < 1:
            raise ShapeMismatch("auxiliary factor must be square and nonempty")
        self.source = source
        self.target = target
        self.images = images
        self.h = images.shape[2]

    @classmethod
    def identity(cls, structure: BlockStructure, h: int = 1) -> "OperatorValuedMap":
        d = structure.dim
        return cls(structure, structure, np.einsum("pq,kl->pqkl", np.eye(d), np.eye(h)))

    def apply_vec(self, vec: np.ndarray) -> np.ndarray:
        return np.einsum("p,pqkl->qkl", vec, self.images)

    def star(self, u: np.ndarray) -> np.ndarray:
        """Adjoint of elements of B2 (x) M_h; leading axes of u are batch axes."""
        out = np.empty_like(u)
        out[..., self.target.star_perm, :, :] = np.conj(np.swapaxes(u, -1, -2))
        return out


def quantum_isomorphism_residual(
    G1: QuantumGraph, G2: QuantumGraph, theta: OperatorValuedMap
) -> dict[str, float]:
    """Residuals of the quantum-isomorphism covariance conditions for theta.

    Reports: *-homomorphism defect of theta (unitality, multiplicativity,
    star), state covariance (psi2 x id) theta = psi1(.) 1, and adjacency
    covariance (A2 x id) theta = theta A1.  Each is the worst Frobenius
    norm over units (or unit pairs) of B1.
    """
    st1, st2 = G1.structure, G2.structure
    if theta.source != st1 or theta.target != st2:
        raise ShapeMismatch("theta does not map B1 into B2 (x) M_h")
    imgs = theta.images
    eye_h = np.eye(theta.h)

    def worst(diff: np.ndarray, batch: int) -> float:
        return float(np.linalg.norm(diff.reshape(diff.shape[:batch] + (-1,)), axis=-1).max())

    unital = theta.apply_vec(st1.unit_vector) - st2.unit_vector[:, None, None] * eye_h
    star = imgs[st1.star_perm] - theta.star(imgs)
    mult = _multiplicativity_defect(st1, st2, imgs)
    hom = max(float(np.linalg.norm(unital)), worst(star, 1), worst(mult, 2))

    state = np.einsum("q,pqkl->pkl", G2.psi.psi_vec, imgs) - G1.psi.psi_vec[:, None, None] * eye_h
    adj = np.einsum("rq,pqkl->prkl", G2.adjacency.matrix, imgs) - np.einsum(
        "up,urkl->prkl", G1.adjacency.matrix, imgs
    )
    return {
        "homomorphism": hom,
        "state_covariance": worst(state, 1),
        "adjacency_covariance": worst(adj, 1),
    }
