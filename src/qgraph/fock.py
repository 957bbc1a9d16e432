"""Interior tensor powers and the truncated Fock module of an edge correspondence.

F_N = B + E + E^{(x)2} + ... + E^{(x)N} with creation operators T(xi) that
annihilate the top level and the diagonal left action pi.  All operator
identities are exact only away from the truncation boundary, so residual
reports keep to interior levels.  T maps level l to level l+1 and pi keeps
every level, so each identity is checked one level at a time and no operator
on the whole truncation is formed.  Level l is in normal form with
multiplicity matrix M^l for E's M, of dimension sum_{a,c} N_a N_c (M^l)_ac;
creation maps are the canonical identifications K_ab (x) K^{(l)}_bc ->
K^{(l+1)}_ac, stored as their nonzeros.  Dense arrays remain in one place:
the budget-bounded relation checks build pi and the creation map of a level
from their nonzeros.  The Gram-quotient levels and the full-truncation
relation checks are the oracles in `tests/oracles.py`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .correspondence import (
    Correspondence,
    _empty_blocks,
    _layout,
    _same_base,
    build_edge_correspondence,
    covariance_defect,
    normal_form,
    trivial_correspondence,
)
from .errors import BudgetExceeded, HasQuantumSource, ShapeMismatch
from .graphs import QuantumGraph
from .relations import _pair_sum, _products, _sq_nrm, lqck_sq_norms, star_images

FOCK_COORD_BUDGET = 5000


def interior_tensor(X: Correspondence, Y: Correspondence) -> Correspondence:
    """X (x)_B Y for normal-form X and Y: K_ac = sum_b K^X_ab (x) K^Y_bc.

    Its `creation` nonzeros (z, x, y, value) are the canonical map,
    u_x (x) u_y -> value u_z with value 1 / sqrt(w_b[m]) at x = (a, b, i, k, m),
    y = (b, c, m, k', l), z = (a, c, i, (b, k, k'), l); the pair (z, y) fixes x.
    """
    _same_base(X.psi, Y.psi)
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
    value = 1.0 / np.sqrt(X.psi.gram_diag[np.array(st.offsets)[b] + xm[sx]])
    return normal_form(X.psi, MZ, creation=(z, sx, sy, value))


@dataclass(frozen=True)
class FockTruncation:
    """Levels E^{(x)0..N} with creation maps and the per-level left action.

    creation[l] = (z, e, y, value) are the nonzeros of the canonical map from
    E (x)_B level l onto level l+1: T(xi) from level l to level l+1 has the
    entry value * xi[e] at (z, y).
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

    def pi(self, l: int) -> np.ndarray:
        """Dense left action of the units on level l, (dim B, dim level l,
        dim level l), built from its nonzeros for the relation checks."""
        return self.levels[l].left_units(np.eye(self.level_dims[l]))


def build_fock(G: QuantumGraph, N: int) -> FockTruncation:
    """Construct the depth-N Fock truncation of the edge correspondence of G.

    Level l + 1 is interior_tensor(E, level l).  HasQuantumSource names the
    blocks with a zero row of E's multiplicity matrix.  BudgetExceeded names the
    level dims sum_{a,c} N_a N_c (M^l)_ac before any level is built when
    they total more than FOCK_COORD_BUDGET.
    """
    if N < 1:
        raise ShapeMismatch(f"level count {N} must be at least 1")
    E = build_edge_correspondence(G)
    sources, _ = _empty_blocks(E)
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
    covariance: pi(x) = sum_k T(f_ik.eps)T(f_jk.eps)* on levels 1..N-1, None
    when N = 1.
    vacuum_defect: the norm of pi on level 0, where covariance must fail.
    """
    E = F.edge
    x, y, p, value = E.inner
    inner = 0.0
    for l, (row, e, col, entry) in enumerate(F.creation):
        # T(u_e) for every e as one (dim level l+1, dim E * dim level l) matrix
        n = F.level_dims[l]
        C = np.zeros((F.level_dims[l + 1], E.size * n), dtype=complex)
        C[row, e * n + col] = entry
        diff = (C.conj().T @ C).reshape(E.size, n, E.size, n).transpose(0, 2, 1, 3)
        diff[x, y] -= value[:, None, None] * F.pi(l)[p]  # pi(<u_x, u_y>_B)
        inner = max(inner, float(np.sqrt(_sq_nrm(diff).max(initial=0.0))))

    cov = []
    for l in range(1, F.depth):
        defects = covariance_defect(E, F.creation[l - 1], F.level_dims[l - 1], F.levels[l])
        cov.append(max(float(np.linalg.norm(D, axis=(1, 3)).max(initial=0.0)) for D in defects))

    vacuum = float(np.linalg.norm(F.pi(0), axis=(1, 2)).max())
    return {"inner": inner, "covariance": max(cov, default=None), "vacuum_defect": vacuum}


def canonical_fock_family(F: FockTruncation) -> tuple[np.ndarray, ...]:
    """The family S(x) = (1/delta) T(x . eps), one level at a time.

    Entry l, of shape (dim B, dim level l+1, dim level l), holds the images
    S(b_p) from level l to level l+1 for every unit b_p.
    """
    E = F.edge
    # row p is b_p . eps / delta
    V = E.left_units(E.generator[:, None])[:, :, 0] / np.sqrt(F.graph.delta_sq)
    S = tuple(np.zeros((E.structure.dim, m, n), dtype=complex) for m, n in zip(F.level_dims[1:], F.level_dims))
    for Sl, (z, e, y, value) in zip(S, F.creation):
        Sl[:, z, y] = value * V[:, e]  # (z, y) fixes e
    return S


def lqck_fock_residuals(F: FockTruncation) -> dict:
    """Interior residuals of LQCK1-3 and the abstract-Toeplitz identities.

    The family is S(x) = (1/delta) T(x.eps) on the truncation F, judged on
    levels 1..N-1, where the truncated operators agree with the untruncated
    Toeplitz representation.  Every product is block-diagonal by level:
    psi_t on level l is sum W S_{l-1} S_{l-1}^*, so LQCK1 (which ends one
    level up) is checked on source levels 1..N-2 and the others on 1..N-1.
    Each per-unit norm is the root of the sum of squares over those levels;
    an identity with no level to check is None.

    Toeplitz-1: T*(x) T(y) = delta^-2 pi(A(xy)); Toeplitz-2: mu(T (x) T*) m*
    = pi on levels >= 1, with T = delta S and T*(x) = T(x*)^*.
    """
    G = F.graph
    st, W, d2 = G.structure, G.psi.comult_tensor, G.delta_sq
    S = canonical_fock_family(F)
    Ss = [star_images(Sl, st) for Sl in S]
    # psi_t on level l, for the levels 1..N-1 where it is read
    psi = [None] + [_pair_sum(W, S[l], Ss[l]) for l in range(F.depth - 1)]
    Am = np.tensordot(G.adjacency.matrix, st.mul_tensor / d2, axes=(1, 0))  # delta^-2 A m

    keys = ("lqck1", "lqck2", "lqck3", "toeplitz1", "toeplitz2")
    sq = {key: [] for key in keys}
    for l in range(1, F.depth):
        pi = F.pi(l)
        diff = d2 * _products(Ss[l], S[l])
        diff -= np.tensordot(Am, pi, axes=(0, 0))
        lqck = lqck_sq_norms(G, S[l], Ss[l], psi[l], psi[l + 1] if l + 1 < F.depth else None)
        for key, n in zip(keys, lqck + (_sq_nrm(diff), _sq_nrm(d2 * psi[l] - pi))):
            if n is not None:  # LQCK1 ends one level up, so not from level N-1
                sq[key].append(n)

    report = {key: float(np.max(np.sqrt(sum(v)))) if v else None for key, v in sq.items()}
    report["level_dims"] = F.level_dims
    return report
