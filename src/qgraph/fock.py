"""Interior tensor powers and the truncated Fock module of an edge correspondence.

F_N = B + E + E^{(x)2} + ... + E^{(x)N} with creation operators T(xi) that
annihilate the top level and the diagonal left action pi.  Identities hold
only away from the truncation boundary, so reports keep to interior levels,
one level at a time: T maps level l to level l+1 and pi keeps every level.
Level l is the normal form of M^l; creation maps are the canonical
identifications K_ab (x) K^{(l)}_bc -> K^{(l+1)}_ac, stored as nonzeros.

No check forms pi or a creation map densely.  The inner-product check joins
nonzeros.  A `FockTruncation` forms, once and on first use, the slabs of
S(b_p) = T(b_p . eps) / delta on the row group of b_p (`creation_slabs`)
and on each interior level `row_group_gram`'s covariance defect D and psi_t.
Covariance and Toeplitz-2 read the one defect D and LQCK1-3 read psi_t; the
products of units u, v are checked on the sum_a N_a^3 pairs with b_u b_v != 0.
The Gram-quotient levels and full-truncation checks are in `tests/oracles.py`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .correspondence import (
    Correspondence,
    _empty_blocks,
    _same_base,
    build_edge_correspondence,
    creation_slabs,
    normal_form,
    row_group_gram,
    trivial_correspondence,
)
from .errors import BudgetExceeded, HasQuantumSource, ShapeMismatch
from .graphs import QuantumGraph
from .relations import _sq_nrm, lqck_sq_norms, star_images

FOCK_COORD_BUDGET = 5000


def interior_tensor(X: Correspondence, Y: Correspondence) -> Correspondence:
    """X (x)_B Y for normal-form X and Y: K_ac = sum_b K^X_ab (x) K^Y_bc.

    Its `creation` nonzeros (z, x, y, value) are the canonical map,
    u_x (x) u_y -> value u_z with value 1 / sqrt(w_b[m]) at x = (a, b, i, k, m),
    y = (b, c, m, k', l), z = (a, c, i, (b, k, k'), l); the pair (z, y) fixes x.
    """
    _same_base(X.psi, Y.psi)
    st, MX, MY, n = X.structure, X.mult, Y.mult, np.array(X.structure.sizes)
    xa, xb, xi, xk, xm, _ = X.layout
    ya, yc, yi, yk, yl, _ = Y.layout
    MZ = MX @ MY
    zstart = np.concatenate(([0], np.cumsum(n[:, None] * MZ * n)))  # pair starts, as in `_layout`
    sx, sy = np.nonzero((xb[:, None] == ya) & (xm[:, None] == yi))
    a, b, c = xa[sx], xb[sx], yc[sy]
    prod = MX[:, :, None] * MY  # [a, b, c]: dim K_ab (x) K_bc, stacked over b
    kz = (np.cumsum(prod, axis=1) - prod)[a, b, c] + xk[sx] * MY[b, c] + yk[sy]
    z = zstart[a * st.num_blocks + c] + (xi[sx] * MZ[a, c] + kz) * n[c] + yl[sy]
    value = 1.0 / np.sqrt(X.psi.gram_diag[np.array(st.offsets)[b] + xm[sx]])
    return normal_form(X.psi, MZ, creation=(z, sx, sy, value))


@dataclass(frozen=True)
class FockTruncation:
    """Levels E^{(x)0..N} with creation maps and the per-level left action.

    creation[l] = (z, e, y, value) are the nonzeros of the canonical map from
    E (x)_B level l onto level l+1: T(xi) from level l to level l+1 has the
    entry value * xi[e] at (z, y).  V, slabs and grams are formed on first use.
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

    @cached_property
    def V(self) -> np.ndarray:
        """Row p is b_p . eps / delta, so that S(b_p) = T(V[p])."""
        E = self.edge
        return E.left_units(E.generator[:, None])[:, :, 0] / np.sqrt(self.graph.delta_sq)

    @cached_property
    def slabs(self) -> tuple[np.ndarray, ...]:
        """`creation_slabs` of S(b_p) from level l to level l+1, l = 0..N-1."""
        levels = zip(self.creation, self.level_dims, self.levels[1:])
        return tuple(creation_slabs(self.V, c, dim, level) for c, dim, level in levels)

    @cached_property
    def grams(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """`row_group_gram` (covariance defect, psi_t) on levels 1..N-1, entry l-1."""
        return tuple(row_group_gram(S, level) for S, level in zip(self.slabs, self.levels[1:-1]))


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
    return FockTruncation(G, E, tuple(levels), tuple(level.creation for level in levels[1:]))


def _join(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every index pair (i, j) with a[i] == b[j]."""
    order = np.argsort(b, kind="stable")
    lo, hi = np.searchsorted(b[order], a), np.searchsorted(b[order], a, side="right")
    count = hi - lo
    j = np.arange(count.sum()) + np.repeat(lo - np.cumsum(count) + count, count)
    return np.repeat(np.arange(len(a)), count), order[j]


def representation_residuals(F: FockTruncation) -> dict:
    """Defects of the covariant-representation identities on the truncation.

    inner: T(xi)*T(eta) = pi(<xi,eta>_B) on levels 0..N-1, the largest norm
    of T(u_x)*T(u_y) - pi(<u_x,u_y>_B).  T(u_x)*T(u_y) has conj(v) v' at
    (w, w') for the creation nonzeros (z, x, w, v), (z, y, w', v') of a row
    z, and pi(<u_x,u_y>_B) the value of E's inner nonzero (x, y, p) at the
    left nonzeros (p, row, col); all levels are summed by key at once.
    covariance: pi(x) = sum_k T(f_ik.eps)T(f_jk.eps)* on levels 1..N-1, None
    when N = 1.
    vacuum_defect: the norm of pi on level 0, where covariance must fail:
    the root of the most left nonzeros of a unit, a partial permutation.
    """
    E, N, dims = F.edge, F.depth, F.level_dims
    lev = np.repeat(np.arange(N), [len(c[0]) for c in F.creation])
    z, e, y, value = (np.concatenate(parts) for parts in zip(*F.creation))
    rows = z + np.cumsum(dims)[lev]  # the rows z of level l+1, offset by the levels below it
    i, j = _join(rows, rows)
    x, x2, p, val = E.inner
    left = [level.left for level in F.levels[:-1]]
    llev = np.repeat(np.arange(N), [len(lt[0]) for lt in left])
    lp, row, col = (np.concatenate(parts) for parts in zip(*left))
    k, m = _join(p, lp)
    shape = (N, E.size, E.size, max(dims[:-1]), max(dims[:-1]))
    keys = np.concatenate((
        np.ravel_multi_index((lev[i], e[i], e[j], y[i], y[j]), shape),
        np.ravel_multi_index((llev[m], x[k], x2[k], row[m], col[m]), shape),
    ))
    terms = np.concatenate((value[i].conj() * value[j], -val[k]))
    keys, at = np.unique(keys, return_inverse=True)
    re, im = np.bincount(at, terms.real), np.bincount(at, terms.imag)
    _, start = np.unique(keys // (shape[3] * shape[4]), return_index=True)  # one run per (l, x, y)
    inner = float(np.sqrt(np.add.reduceat(re * re + im * im, start).max()))

    cov = [float(np.linalg.norm(D, axis=(1, 2)).max(initial=0.0)) for D, _ in F.grams]
    vacuum = float(np.sqrt(np.bincount(F.levels[0].left[0]).max()))
    return {"inner": inner, "covariance": max(cov, default=None), "vacuum_defect": vacuum}


def canonical_fock_family(F: FockTruncation) -> tuple[np.ndarray, ...]:
    """The family S(x) = (1/delta) T(x . eps), one level at a time.

    Entry l, of shape (dim B, dim level l+1, dim level l), holds the images
    S(b_p) from level l to level l+1 for every unit b_p.
    """
    S = tuple(np.zeros((len(F.V), m, n), dtype=complex) for m, n in zip(F.level_dims[1:], F.level_dims))
    for Sl, (z, e, y, value) in zip(S, F.creation):
        Sl[:, z, y] = value * F.V[:, e]  # (z, y) fixes e
    return S


def _embed(slabs: np.ndarray, level: Correspondence) -> np.ndarray:
    """Operators on `level` from their slabs: b_p = e_ij of block a maps row
    group (a, j) onto (a, i) as slabs[p] maps positions, and the left
    nonzeros of b_p list both groups position by position."""
    p, row, col = level.left
    pos, (k, m) = level.row_groups[2], _join(p, p)
    out = np.zeros((level.structure.dim, level.size, level.size), dtype=complex)
    out[p[k], row[k], col[m]] = slabs[p[k], pos[row[k]], pos[col[m]]]
    return out


def lqck_fock_residuals(F: FockTruncation) -> dict:
    """Interior residuals of LQCK1-3 and the abstract-Toeplitz identities.

    The family is S(x) = (1/delta) T(x.eps) on the truncation F, judged on
    levels 1..N-1, where the truncated operators agree with the untruncated
    Toeplitz representation.  Every product is block-diagonal by level:
    psi_t on level l is sum W S_{l-1} S_{l-1}^*, so LQCK1 (which ends one
    level up) is checked on source levels 1..N-2 and the others on 1..N-1.
    Each per-unit norm is the root of the sum of squares over those levels;
    an identity with no level to check is None.  S and psi_t are the slabs
    `F.slabs` and `F.grams`; LQCK1-2 and Toeplitz-1 are checked on the pairs
    with b_u b_v != 0.

    Toeplitz-1: T*(x) T(y) = delta^-2 pi(A(xy)); Toeplitz-2: mu(T (x) T*) m*
    = pi on levels >= 1, with T = delta S and T*(x) = T(x*)^*.  Toeplitz-2 is
    the covariance identity: its defect at b_p is ||D_p|| / s_p (`row_group_gram`).
    """
    G, S, grams = F.graph, F.slabs, F.grams
    st, d2, A = G.structure, G.delta_sq, G.adjacency.matrix
    inv_scale_sq = G.psi.weight_of_row * G.psi.gram_diag  # s_p^-2
    w, u, v = np.nonzero(st.mul_tensor)  # b_u b_v = b_w

    keys = ("lqck1", "lqck2", "lqck3", "toeplitz1", "toeplitz2")
    sq = {key: [] for key in keys}
    for l in range(1, F.depth):
        (D, psi_t), level = grams[l - 1], F.levels[l]
        p, row, col = level.left  # pi(b_p) is 1 at (row, col)
        SsS = star_images(S[l], st)[u] @ S[l][v]
        psiS = grams[l][1][u] @ S[l][v] if l + 1 < F.depth else None  # LQCK1 ends one level up
        lqck = lqck_sq_norms(G, S[l], SsS, psiS, _embed(psi_t, level), (u, v, w))
        toeplitz1 = d2 * SsS
        toeplitz1[:, row, col] -= A[p][:, w].T / d2  # pi(A(b_w)) = sum_p A[p, w] pi(b_p)
        for key, n in zip(keys, lqck + (_sq_nrm(toeplitz1), _sq_nrm(D) * inv_scale_sq)):
            if n is not None:  # no LQCK1 from level N-1
                sq[key].append(n)

    report = {key: float(np.max(np.sqrt(sum(v)))) if v else None for key, v in sq.items()}
    report["level_dims"] = F.level_dims
    return report
