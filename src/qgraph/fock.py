"""Interior tensor powers and the truncated Fock module of an edge correspondence.

F_N = B + E + E^{(x)2} + ... + E^{(x)N} with creation operators T(xi) that
annihilate the top level and the diagonal left action pi.  All operator
identities are exact only away from the truncation boundary, so residual
reports compress to interior levels.  Level l is in normal form with
multiplicity matrix M^l for E's M, of dimension sum_{a,c} N_a N_c (M^l)_ac;
creation maps are the canonical identifications K_ab (x) K^{(l)}_bc ->
K^{(l+1)}_ac.  The Gram-quotient levels are the oracle in `tests/oracles.py`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import AlgebraElement
from .correspondence import (
    Correspondence,
    _layout,
    _same_base,
    build_edge_correspondence,
    covariance_defect,
    normal_form,
    trivial_correspondence,
)
from .errors import BudgetExceeded, HasQuantumSource, ShapeMismatch
from .graphs import QuantumGraph, quantum_sources_sinks
from .relations import CKFamily, _pair_sum, lqck_residuals

FOCK_COORD_BUDGET = 5000


def interior_tensor(X: Correspondence, Y: Correspondence) -> Correspondence:
    """X (x)_B Y for normal-form X and Y: K_ac = sum_b K^X_ab (x) K^Y_bc.

    Its `creation` tensor C[z, x, y] is the canonical map, 1 / sqrt(w_b[m]) at
    x = (a, b, i, k, m), y = (b, c, m, k', l), z = (a, c, i, (b, k, k'), l).
    """
    _same_base(X, Y)
    st, MX, MY = X.structure, X.mult, Y.mult
    xa, xb, xi, xk, xm, _ = _layout(st, MX)
    ya, yc, yi, yk, yl, _ = _layout(st, MY)
    MZ = MX @ MY
    zstart = _layout(st, MZ)[-1]
    sx, sy = np.nonzero((xb[:, None] == ya) & (xm[:, None] == yi))
    a, b, c = xa[sx], xb[sx], yc[sy]
    prod = MX[:, :, None] * MY  # [a, b, c]: dim K_ab (x) K_bc, stacked over b
    kz = (np.cumsum(prod, axis=1) - prod)[a, b, c] + xk[sx] * MY[b, c] + yk[sy]
    z = zstart[a * st.num_blocks + c] + (xi[sx] * MZ[a, c] + kz) * np.array(st.sizes)[c] + yl[sy]
    C = np.zeros((zstart[-1], X.size, Y.size), dtype=complex)
    C[z, sx, sy] = 1.0 / np.sqrt(X.psi.gram_diag[np.array(st.offsets)[b] + xm[sx]])
    return normal_form(X.psi, MZ, creation=C)


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
        return tuple(np.cumsum((0,) + self.level_dims).tolist())

    def level_slice(self, l: int) -> slice:
        return slice(*self.offsets[l : l + 2])

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
        diag = np.zeros(self.total_dim)
        diag[self.offsets[1] : self.offsets[-2]] = 1.0
        return np.diag(diag)


def build_fock(G: QuantumGraph, N: int) -> FockTruncation:
    """Construct the depth-N Fock truncation of the edge correspondence of G.

    Level l + 1 is interior_tensor(E, level l).  BudgetExceeded names the
    level dims sum_{a,c} N_a N_c (M^l)_ac before any level is built when
    they total more than FOCK_COORD_BUDGET.
    """
    if N < 1:
        raise ShapeMismatch(f"level count {N} must be at least 1")
    E = build_edge_correspondence(G)
    sources, _ = quantum_sources_sinks(G)
    if sources:
        raise HasQuantumSource(f"blocks {sources} lie in ker A")

    n, Ml = np.array(G.structure.sizes), np.eye(len(G.structure.sizes), dtype=int)
    dims, total = [], 0
    while len(dims) <= N and total <= FOCK_COORD_BUDGET:
        dims.append(int(n @ Ml @ n))
        total, Ml = total + dims[-1], E.mult @ Ml
    if total > FOCK_COORD_BUDGET:
        shown = dims if len(dims) <= 6 else dims[:3] + ["..."] + dims[-2:]
        raise BudgetExceeded(
            f"depth {N} needs more than {FOCK_COORD_BUDGET} Fock coordinates: levels "
            f"0..{len(dims) - 1} have dims [{', '.join(map(str, shown))}], {total} in all"
        )

    levels = [trivial_correspondence(G.psi)]
    for _ in range(N):
        levels.append(interior_tensor(E, levels[-1]))
    creation = tuple(level.creation for level in levels[1:])
    return FockTruncation(G, E, tuple(levels), creation)


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
