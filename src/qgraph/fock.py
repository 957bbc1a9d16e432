"""Interior tensor powers and the truncated Fock module of an edge correspondence.

F_N = B + E + E^{(x)2} + ... + E^{(x)N} with creation operators T(xi) that
annihilate the top level and the diagonal left action pi.  All operator
identities are exact only away from the truncation boundary, so residual
reports compress to interior levels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import AlgebraElement
from .correspondence import (
    Correspondence,
    build_edge_correspondence,
    covariance_defect,
    from_spanning,
    tensor_module,
    trivial_correspondence,
)
from .errors import BudgetExceeded, HasQuantumSource, ShapeMismatch
from .graphs import QuantumGraph, quantum_sources_sinks
from .relations import CKFamily, _pair_sum, lqck_residuals

FOCK_COORD_BUDGET = 5000


def interior_tensor(X: Correspondence, Y: Correspondence) -> Correspondence:
    """Interior tensor product X (x)_B Y as a correspondence over (B, psi):
    the tensor module of X and Y quotiented by its Gram kernel."""
    ambient = tensor_module(X, Y)
    return from_spanning(ambient, np.eye(ambient.size, dtype=complex))


@dataclass(frozen=True)
class FockTruncation:
    """Levels E^{(x)0..N} with creation tensors and the per-level left action.

    creation[l] has shape (dim level l+1, dim E, dim level l); contracting a
    module vector xi of E into the middle slot gives the matrix of T(xi)
    from level l to level l+1.
    """

    graph: QuantumGraph
    edge: Correspondence
    levels: tuple[Correspondence, ...]
    creation: tuple[np.ndarray, ...]

    @property
    def level_dims(self) -> tuple[int, ...]:
        return tuple(lvl.size for lvl in self.levels)

    @property
    def depth(self) -> int:
        return len(self.levels) - 1

    @property
    def total_dim(self) -> int:
        return sum(self.level_dims)

    @property
    def offsets(self) -> tuple[int, ...]:
        offs = [0]
        for d in self.level_dims:
            offs.append(offs[-1] + d)
        return tuple(offs)

    def level_slice(self, l: int) -> slice:
        offs = self.offsets
        return slice(offs[l], offs[l + 1])

    def pi_level(self, l: int, x: AlgebraElement) -> np.ndarray:
        """Matrix of the left action of x on level l."""
        return np.einsum("p,pab->ab", x.vec, self.levels[l].lmul)

    def creation_matrix(self, l: int, xi: np.ndarray) -> np.ndarray:
        """Matrix of T(xi) from level l to level l+1."""
        return np.einsum("aeb,e->ab", self.creation[l], xi)

    def big_creation(self, xi: np.ndarray) -> np.ndarray:
        """T(xi) on the full truncation; the top level is annihilated.

        Leading axes of xi are batch axes: xi of shape (..., dim E) gives
        (..., D, D).
        """
        xi = np.asarray(xi)
        D = self.total_dim
        out = np.zeros(xi.shape[:-1] + (D, D), dtype=complex)
        for l in range(self.depth):
            out[..., self.level_slice(l + 1), self.level_slice(l)] = np.einsum(
                "aeb,...e->...ab", self.creation[l], xi
            )
        return out

    def unit_pi(self) -> np.ndarray:
        """Diagonal left actions of the standard units b_p on the full truncation."""
        D = self.total_dim
        out = np.zeros((self.levels[0].lmul.shape[0], D, D), dtype=complex)
        for l in range(self.depth + 1):
            out[:, self.level_slice(l), self.level_slice(l)] = self.levels[l].lmul
        return out

    def interior_projector(self) -> np.ndarray:
        """Orthogonal projection onto levels 1..N-1."""
        D = self.total_dim
        diag = np.zeros(D)
        for l in range(1, self.depth):
            diag[self.level_slice(l)] = 1.0
        return np.diag(diag)


def build_fock(G: QuantumGraph, N: int) -> FockTruncation:
    """Construct the depth-N Fock truncation of the edge correspondence of G.

    Raises BudgetExceeded before any level would take the total past
    FOCK_COORD_BUDGET coordinates.
    """
    if N < 1:
        raise ShapeMismatch(f"level count {N} must be at least 1")
    E = build_edge_correspondence(G)
    sources, _ = quantum_sources_sinks(G)
    if sources:
        raise HasQuantumSource(f"blocks {sources} lie in ker A")

    levels = [trivial_correspondence(G.psi), E]
    total = levels[0].size + levels[1].size
    if total > FOCK_COORD_BUDGET:
        raise BudgetExceeded(f"{total} Fock coordinates exceed budget {FOCK_COORD_BUDGET}")
    for _ in range(2, N + 1):
        # bound the next level by its ambient size before materializing it
        bound = E.size * levels[-1].size
        if total + bound > FOCK_COORD_BUDGET:
            raise BudgetExceeded(
                f"next level needs up to {bound} coordinates on top of {total}; "
                f"budget is {FOCK_COORD_BUDGET}"
            )
        nxt = interior_tensor(E, levels[-1])
        levels.append(nxt)
        total += nxt.size

    creation = []
    # level 0 is B itself: T(xi) x = xi . x through the right action of E
    V0 = levels[0].basis_ambient
    creation.append(np.einsum("bp,pae->aeb", V0, E.rmul))
    for l in range(1, N):
        nxt = levels[l + 1]
        proj = nxt.basis_ambient.conj() @ nxt.ambient.scalar_gram
        creation.append(proj.reshape(nxt.size, E.size, levels[l].size))
    return FockTruncation(G, E, tuple(levels), tuple(creation))


def representation_residuals(F: FockTruncation) -> dict:
    """Defects of the covariant-representation identities on the truncation.

    inner: T(xi)*T(eta) = pi(<xi,eta>_B) on levels 0..N-1.
    covariance: pi(x) = sum_k T(f_ik.eps)T(f_jk.eps)* on levels 1..N-1.
    vacuum_defect: the norm of pi on level 0, where covariance must fail.
    """
    E = F.edge
    inner = 0.0
    for l in range(F.depth):
        Cr = F.creation[l]
        TT = np.einsum("aeb,afc->efbc", Cr.conj(), Cr, optimize=True)
        RR = np.einsum("efd,dbc->efbc", E.binner, F.levels[l].lmul, optimize=True)
        diff = TT - RR
        per_pair = np.sqrt((np.abs(diff) ** 2).sum(axis=(2, 3)))
        inner = max(inner, float(per_pair.max(initial=0.0)))

    cov = 0.0
    for l in range(1, F.depth):
        defect = covariance_defect(E, F.creation[l - 1], F.levels[l].lmul)
        cov = max(cov, float(np.linalg.norm(defect, axis=(1, 2)).max()))

    vacuum = float(np.linalg.norm(F.levels[0].lmul, axis=(1, 2)).max())
    return {"inner": inner, "covariance": cov, "vacuum_defect": vacuum}


def canonical_fock_family(F: FockTruncation):
    """The family S(x) = (1/delta) T(x . eps) as truncation matrices per unit.

    Returns a CKFamily whose images act on the full truncation; relation
    residuals for it are meaningful only compressed to interior levels.
    """
    E = F.edge
    # row p is b_p . eps
    images = F.big_creation(E.lmul @ E.generator) / np.sqrt(F.graph.delta_sq)
    return CKFamily(F.total_dim, images)


def lqck_fock_residuals(F: FockTruncation) -> dict:
    """Interior residuals of LQCK1-3 and the abstract-Toeplitz identities.

    The family is S(x) = (1/delta) T(x.eps) on the truncation F; all norms
    are compressed to levels 1..N-1 where the truncated operators agree
    with the untruncated Toeplitz representation.
    """
    G = F.graph
    fam = canonical_fock_family(F)
    P = F.interior_projector()
    report = lqck_residuals(fam, G, compression=P)

    st = G.structure
    delta = np.sqrt(G.delta_sq)
    bigT = delta * fam.images
    # T*(x) := T(x*)* on basis units
    bigTstar = delta * fam.star_images(st)
    pi = F.unit_pi()

    # mu(T* (x) T) = delta^-2 pi A m on basis pairs
    Am = np.einsum("vu,upq->vpq", G.adjacency.matrix, st.mul_tensor)
    diff1 = bigTstar[:, None] @ bigT[None] - np.einsum("vpq,vab->pqab", Am, pi) / G.delta_sq
    toeplitz1 = float(np.linalg.norm(P @ diff1 @ P, axis=(2, 3)).max())

    # mu(T (x) T*) m* = psi_t, i.e. equals pi on levels >= 1
    diff2 = _pair_sum(G.psi.comult_tensor, bigT, bigTstar) - pi
    toeplitz2 = float(np.linalg.norm(P @ diff2 @ P, axis=(1, 2)).max())

    report["toeplitz1"] = toeplitz1
    report["toeplitz2"] = toeplitz2
    report["level_dims"] = F.level_dims
    return report
