"""Quantum adjacency matrices, edge indicators, and their verification.

A quantum graph is (B, psi, A) with A Schur-idempotent: m (A x A) m* =
delta^2 A.  This module validates that condition, tests complete positivity,
checks the identities of the quantum edge indicator eps without forming it,
finds quantum sources/sinks, and evaluates the homomorphism and quantum
isomorphism residuals.  The Choi slabs of A's nonzero block pairs are built once per graph;
the indicator identities are their Schur and Hermitian defects, reweighted, and
the unit-pair checks are tables over the triples of m (`blocks.pair_defects`):
the homomorphism check forms one and reads the indicator shift off it through
the star permutation (oracle: `tests/oracles.py`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .blocks import DEFAULT_TOL, BlockStructure, DeltaState, pair_defects
from .errors import NotCompletelyPositive, NotQuantumAdjacency, ShapeMismatch

GRAM_CUTOFF_RTOL = 1e-10


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

    @classmethod
    def identity(cls, structure: BlockStructure) -> "LinearMapOnB":
        return cls(structure, np.eye(structure.dim))

    @cached_property
    def choi_slabs(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Choi slabs H[(i,r),(j,s)] = A(e_ij^{(a)})^{(b)}_{rs} of the block pairs
        (a, b) where A has a nonzero entry (an exact != 0 test: a subnormal entry
        squares to 0), the one cut of A into block pairs, built once per map: per
        pair of size groups (N_a, N_b) with any, one gather gives the (g, 2) pairs,
        row-major, and their (g, N_a N_b, N_a N_b) stack.  A missing pair's slab is
        0, so A is completely positive iff every slab here is positive semidefinite."""
        starts = self.structure.offsets[:-1]
        nonzero = np.logical_or.reduceat(np.logical_or.reduceat(self.matrix != 0, starts, axis=1), starts, axis=0).T
        groups = []
        for ga in self.structure.size_groups:
            for gb in self.structure.size_groups:
                ka, kb = np.nonzero(nonzero[np.ix_(ga.blocks, gb.blocks)])
                if len(ka):
                    na, nb = ga.size, gb.size  # rows (r, s) of block b, columns (i, j) of block a
                    H = self.matrix[gb.coords[kb].reshape(-1, 1, nb, 1, nb), ga.coords[ka].reshape(-1, na, 1, na, 1)]
                    groups.append((np.stack([ga.blocks[ka], gb.blocks[kb]], axis=1), H.reshape(-1, na * nb, na * nb)))
        return groups

    @cached_property
    def choi_spectra(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """(eigenvalues, eigenvectors), descending, of the Hermitian part of each group
        of `choi_slabs` from one batched eigh, built once per map: the Choi verdict and
        E_G's Kraus ranks read it through the one cut `choi_cut`, and E_G's bases
        read its eigenvectors.  It decomposes H itself, whose least eigenvalue the
        Choi test reports, not H weighted by psi."""
        spectra = [np.linalg.eigh((H + H.conj().transpose(0, 2, 1)) / 2) for _, H in self.choi_slabs]
        return [(lam[:, ::-1], V[:, :, ::-1]) for lam, V in spectra]

    @cached_property
    def choi_cut(self) -> float:
        """GRAM_CUTOFF_RTOL times the largest eigenvalue of all `choi_spectra`,
        floored at 1e-300: the one cut of A's Choi spectrum, relative to A's
        scale.  A is completely positive iff no eigenvalue is below -cut, and
        E_G's Kraus ranks count the eigenvalues above it."""
        return GRAM_CUTOFF_RTOL * max([1e-300] + [lam[:, 0].max() for lam, _ in self.choi_spectra])


def schur_residual(psi: DeltaState, A: LinearMapOnB) -> tuple[float, float]:
    """Frobenius residuals over the standard basis of m (A x A) m* = delta^2 A and
    of eps # eps = eps for the edge indicator eps of A, from one pass.

    Column e_ij of block a of m (A x A) m* is sum_k A(e_ik) A(e_kj) / w_k.  On
    block b that is one (N_b N_a)-square product per block pair, R D R with
    R[(r,i),(s,k)] = A(e_ik)_rs, the Choi slab read through a transpose, and
    D = 1 (x) diag(1/w), batched over each group of `A.choi_slabs`; in the
    same layout delta^2 A is delta^2 R.  A missing pair adds 0 to both sides,
    so the squared residual is the sum of ||R D R - delta^2 R||^2 over the slabs.
    Row e_ji of eps # eps - eps is column e_ij of that defect over w_i delta^4:
    the same slabs with row (r, i) weighted by 1/w_i.
    """
    if A.structure != psi.structure:
        raise ShapeMismatch("map and state over different structures")
    total = weighted = 0.0
    for pairs, H in A.choi_slabs:
        a, b = pairs.T
        g, na, nb = len(pairs), A.structure.sizes[a[0]], A.structure.sizes[b[0]]
        R = H.reshape(g, na, nb, na, nb).transpose(0, 2, 1, 4, 3).reshape(g, nb * na, nb * na)
        inv_w = np.tile(1.0 / psi.weight_table[a, :na], nb)
        diff = (R * inv_w[:, None, :]) @ R - psi.delta_sq * R
        total += np.vdot(diff, diff).real
        diff *= inv_w[:, :, None]
        weighted += np.vdot(diff, diff).real
    return float(np.sqrt(total)), float(np.sqrt(weighted)) / psi.delta_sq**2


@dataclass(frozen=True)
class QuantumGraph:
    """Validated triple (B, psi, A); construction enforces Schur idempotency."""

    structure: BlockStructure
    psi: DeltaState
    adjacency: LinearMapOnB

    @classmethod
    def build(cls, psi: DeltaState, adjacency: LinearMapOnB, tol: float = DEFAULT_TOL) -> "QuantumGraph":
        G = cls(psi.structure, psi, adjacency)
        if not G.schur_defects[0] <= tol:  # a NaN residual fails too
            raise NotQuantumAdjacency(f"Schur idempotency residual {G.schur_defects[0]:.3e} exceeds {tol:.1e}")
        return G

    @cached_property
    def schur_defects(self) -> tuple[float, float]:
        """`schur_residual` of the graph: the one Schur pass per graph, which build gates."""
        return schur_residual(self.psi, self.adjacency)

    @property
    def delta_sq(self) -> float:
        return self.psi.delta_sq

    @cached_property
    def choi(self) -> tuple[bool, float]:
        """Choi verdict of the adjacency: (completely positive, min eigenvalue)."""
        return is_completely_positive(self.adjacency)

    @cached_property
    def block_norms(self) -> np.ndarray:
        """(2, blocks) norms of A on each block (row 0) and into each block (row 1),
        summed from the squared norms of the Choi slabs of the pairs (a, b) on a
        and into b, once per graph."""
        sq = np.zeros((2, self.structure.num_blocks))
        for pairs, H in self.adjacency.choi_slabs:
            np.add.at(sq, ([[0], [1]], pairs.T), np.sum(H.real**2 + H.imag**2, axis=(1, 2)))
        return np.sqrt(sq)


def indicator_properties(G: QuantumGraph) -> dict[str, float]:
    """Residuals of two defining properties of the edge indicator eps, read off A's
    Choi slabs H[(i,r),(j,s)] = A(e_ij)_rs: row e_ij of eps is A(e_ji) / (w_i delta^2),
    so for every linear map A each is a slab defect, reweighted.  The third,
    A(x) = delta^2 (psi x 1)(x . eps), holds for every linear map A, as eps is read
    from A, and is not read (the tests keep it as a round trip through eps).
    r2: eps # eps = eps, the row-weighted Schur defect of `G.schur_defects`.
    r3: self-adjointness of (sigma_{i/2} x 1)(eps), ||W H W - (W H W)*|| / delta^2
        over the slabs, W = diag(w_i^-1/2) (x) 1 on the index (i, r).
    The dense forms are `tests/oracles.py::indicator_properties_oracle`.
    """
    psi, r3 = G.psi, 0.0
    for pairs, H in G.adjacency.choi_slabs:
        na, nb = (G.structure.sizes[k] for k in pairs[0])
        w = np.repeat(psi.weight_table[pairs[:, 0], :na], nb, axis=1)[:, :, None]  # w_i at row (i, r)
        X = H / np.sqrt(w * w.transpose(0, 2, 1))
        defect = X - X.conj().transpose(0, 2, 1)
        r3 += np.vdot(defect, defect).real
    return {"r2": G.schur_defects[1], "r3": float(np.sqrt(r3)) / psi.delta_sq}


def is_completely_positive(A: LinearMapOnB) -> tuple[bool, float]:
    """Choi positivity test; returns (flag, min eigenvalue over all slabs).

    One Hermitian check per group of `A.choi_slabs`, then the eigenvalues of
    `A.choi_spectra`; the first slab in (a, b) order that is not finite or not
    Hermitian fails with -||H||, before any slab is decomposed (eigh reads a NaN
    slab with no error).  A missing block pair is a zero slab, whose eigenvalues
    are 0.  A passes when its least eigenvalue is at least -`A.choi_cut`, the
    cut that E_G's Kraus ranks read, so the verdict does not move with A's scale.
    """
    bad = []
    for pairs, H in A.choi_slabs:
        defect = np.linalg.norm(H - H.conj().transpose(0, 2, 1), axis=(1, 2))
        ok = defect <= 1e-8 * np.maximum(1.0, np.linalg.norm(H, axis=(1, 2)))
        ok &= np.isfinite(H).all(axis=(1, 2))
        bad += [(tuple(pairs[k]), H[k]) for k in np.flatnonzero(~ok)[:1]]
    if bad:
        return False, -float(np.linalg.norm(min(bad, key=lambda kH: kH[0])[1]))
    evals = [lam for lam, _ in A.choi_spectra]
    missing = sum(len(e) for e in evals) < A.structure.num_blocks**2
    min_eig = min([e.min() for e in evals] + [0.0] * missing)
    return bool(min_eig >= -A.choi_cut), float(min_eig)


def require_completely_positive(G: QuantumGraph) -> None:
    """Raise NotCompletelyPositive unless the Choi test passes for G."""
    ok, min_eig = G.choi
    if not ok:
        raise NotCompletelyPositive(f"Choi min eigenvalue {min_eig:.3e}")


def quantum_sources_sinks(
    G: QuantumGraph, tol: float = DEFAULT_TOL
) -> tuple[list[int], list[int]]:
    """Indices of source blocks (in ker A) and sink blocks (orthogonal to ran A):
    the blocks where `G.block_norms` is at most tol."""
    on, into = G.block_norms
    return np.flatnonzero(on <= tol).tolist(), np.flatnonzero(into <= tol).tolist()


def adjoint_map(A: LinearMapOnB, psi: DeltaState) -> LinearMapOnB:
    """Adjoint A* for the GNS inner product: <A x, y> = <x, A* y>."""
    if A.structure != psi.structure:
        raise ShapeMismatch("map and state over different structures")
    g = psi.gram_diag
    mat = (A.matrix.conj().T * g[None, :]) / g[:, None]
    return LinearMapOnB(A.structure, mat)


def homomorphism_check(G: QuantumGraph) -> dict[str, float]:
    """Multiplicativity of A versus the indicator-shift identity.

    Returns max unit-pair residuals of A(b_p b_q) - A(b_p)A(b_q) and of
    (b_p b_q) . eps - b_p . eps . A(b_q); the two vanish together.  The second
    is b_p . X_q, X_q = b_q . eps - eps . A(b_q), and e_ij . moves row group
    (a, j, .) of the first leg to (a, i, .): its worst value is the worst
    row-group norm of X.  Row s of eps is A(b_{s*}) / (g_s delta^2), so for any linear
    map ||row s of X_q||^2 = mult[star_perm[s], q] / (g_s delta^2)^2, mult being A's one
    `blocks.pair_defects` table (on b_q b_r = b_u, b_{u*} b_q = b_{r*} and g_r = g_u);
    its oracle is `tests/oracles.py::indicator_shift_table`.
    """
    require_completely_positive(G)
    st, psi, images = G.structure, G.psi, G.adjacency.matrix.T  # images[q] = A(b_q)
    u, q, r = st.mul_nonzeros  # b_q b_r = b_u
    mult = pair_defects(st, images, images, images, q, r, u)
    shift = mult[st.star_perm]  # [s, q]
    shift /= ((psi.gram_diag * psi.delta_sq) ** 2)[:, None]
    row_groups = np.flatnonzero(st.unit_indices[2] == 0)  # (a, i, .) starts at e_i0
    return {
        "multiplicativity": float(np.sqrt(mult.max())),
        "indicator_shift": float(np.sqrt(np.add.reduceat(shift, row_groups, axis=0).max())),
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


def _block_images(theta: OperatorValuedMap) -> tuple[BlockStructure, np.ndarray]:
    """The target B2 (x) M_h of theta as the sum over blocks b of M_{N_b h}, with
    e_ij (x) e_kl at entry (i h + k, j h + l) of block b, and the unit images
    of theta as coordinate vectors of that structure."""
    h, st = theta.h, theta.target
    sth = BlockStructure(tuple(n * h for n in st.sizes))
    a, i, j = (x[:, None, None] for x in st.unit_indices)
    k, l = np.arange(h)[:, None], np.arange(h)
    pos = np.array(sth.offsets)[a] + (i * h + k) * np.array(sth.sizes)[a] + j * h + l
    F = np.empty((theta.source.dim, sth.dim), dtype=complex)
    F[:, pos.ravel()] = theta.images.reshape(theta.source.dim, -1)
    return sth, F


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
    sth, F = _block_images(theta)
    u, p, q = st1.mul_nonzeros
    mult = float(np.sqrt(pair_defects(sth, F, F, F, p, q, u).max()))
    hom = max(float(np.linalg.norm(unital)), worst(star, 1), mult)

    state = np.einsum("q,pqkl->pkl", G2.psi.psi_vec, imgs) - G1.psi.psi_vec[:, None, None] * eye_h
    adj = np.einsum("rq,pqkl->prkl", G2.adjacency.matrix, imgs) - np.einsum(
        "up,urkl->prkl", G1.adjacency.matrix, imgs
    )
    return {
        "homomorphism": hom,
        "state_covariance": worst(state, 1),
        "adjacency_covariance": worst(adj, 1),
    }
