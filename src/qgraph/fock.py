"""Interior tensor powers and the truncated Fock module of an edge correspondence.

F_N = B + E + E^{(x)2} + ... + E^{(x)N} with creation operators T(xi) that
annihilate the top level and the diagonal left action pi.  Identities hold
only away from the truncation boundary, so reports keep to interior levels,
one level at a time: T maps level l to level l+1 and pi keeps every level.
Level l is the normal form of M^l; creation maps are the canonical
identifications K_ab (x) K^{(l)}_bc -> K^{(l+1)}_ac, stored as nonzeros.

No check forms pi or a creation map densely.  The inner-product check joins
nonzeros.  The family S(x) = T(x . eps) / delta is pi(x) T(eps) / delta, so a
`FockTruncation` forms, once and on first use, the row-group slabs R of
T(eps) / delta on every level (`generator_slabs`) and one Gram H_a per block
of B on each interior level (`gram_defects`); every covariance, Toeplitz and
LQCK defect is read off R and H in closed form.
The Gram-quotient levels and full-truncation checks are in `tests/oracles.py`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .correspondence import (
    Correspondence,
    _block_entries,
    _empty_blocks,
    _same_base,
    block_slabs,
    build_edge_correspondence,
    generator_slabs,
    gram_defects,
    normal_form,
    trivial_correspondence,
)
from .errors import BudgetExceeded, HasQuantumSource, ShapeMismatch
from .graphs import QuantumGraph
from .relations import _sq_nrm

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
    entry value * xi[e] at (z, y).  slabs and defects are formed on first use.
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
    def slabs(self) -> tuple[np.ndarray, ...]:
        """`generator_slabs` of T(eps) / delta from level l to level l+1, l = 0..N-1."""
        levels = zip(self.creation, self.levels[1:], self.levels)
        return tuple(generator_slabs(c, self.edge.generator, up, down) for c, up, down in levels)

    @cached_property
    def defects(self) -> tuple[list[np.ndarray], ...]:
        """`gram_defects` H_a - 1 on levels 1..N-1, entry l-1."""
        return tuple(gram_defects(R, level) for R, level in zip(self.slabs, self.levels[1:-1]))


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
    when N = 1: the largest ||H_a - 1|| / min w_a (`gram_defects`).
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

    weights = F.graph.psi.weights
    cov = [max(float(np.linalg.norm(D)) / w.min() for D, w in zip(defects, weights)) for defects in F.defects]
    vacuum = float(np.sqrt(np.bincount(F.levels[0].left[0]).max()))
    return {"inner": inner, "covariance": max(cov, default=None), "vacuum_defect": vacuum}


def canonical_fock_family(F: FockTruncation) -> tuple[np.ndarray, ...]:
    """The family S(x) = (1/delta) T(x . eps), one level at a time.

    Entry l, of shape (dim B, dim level l+1, dim level l), holds the images
    S(b_p) from level l to level l+1 for every unit b_p.
    """
    E = F.edge
    V = E.left_units(E.generator[:, None])[:, :, 0] / np.sqrt(F.graph.delta_sq)  # row p is b_p . eps / delta
    S = tuple(np.zeros((len(V), m, n), dtype=complex) for m, n in zip(F.level_dims[1:], F.level_dims))
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
    Each norm at an adapted-unit pair (f_u, f_v) is the root of the sum of
    squares over those levels; an identity with no level to check is None.

    S(e_ij) is the row slab R_aj of `F.slabs` placed on row group (a, i), and
    psi_t(e_ij) is H_a / delta^2 from row group (a, j) to (a, i) (`F.defects`).
    So a pair with b_u b_v = 0 has zero products and m-terms, and the defect
    at u = e_ij, v = e_jr, w = e_ir does not depend on j: the worst j has the
    smallest weight w_min of block a.  On level l, in row-group order:
    LQCK1: (H_a^(l+1) - 1) R_ar / delta^2, scaled by (w_min^3 w_r)^-1/2;
    LQCK2: R_ai* R_ar - delta^-4 sum_c A(b_w)_c (x) H_c, scaled by (w_min^2 w_i w_r)^-1/2;
    LQCK3: mu(s x s*)m*(1) - delta^-2 1, of norm (sum_a N_a ||H_a - 1||^2)^1/2 / delta^2;
    Toeplitz-1: T*(x) T(y) = delta^-2 pi(A(xy)), delta^2 R_ai* R_ar - delta^-2 sum_c A(b_w)_c (x) 1;
    Toeplitz-2: mu(T (x) T*) m* = pi on levels >= 1, with T = delta S and
    T*(x) = T(x*)^*, of defect H_a - 1 at every unit of block a, the
    covariance defect at f_ij times sqrt(w_i w_j).
    A(b_w)_c is block c of A(b_w) and H_c acts on level l.  The products
    R_ai* R_ar are formed one row i at a time, N_a arrays (dim l, dim l).
    """
    G = F.graph
    st, d2, A, psi = G.structure, G.delta_sq, G.adjacency.matrix, G.psi
    n, off = np.array(st.sizes), np.array(st.offsets)
    w_min = np.array([w.min() for w in psi.weights])

    sq = {key: [] for key in ("lqck1", "lqck2", "lqck3", "toeplitz1", "toeplitz2")}
    for l in range(1, F.depth):
        t2 = np.array([_sq_nrm(D) for D in F.defects[l - 1]])
        q, q2, u, h, diag = _block_entries(F.levels[l])
        mH = (np.concatenate([D.ravel() for D in F.defects[l - 1]])[h] + diag) / (d2 * d2)
        up = F.defects[l] if l + 1 < F.depth else None  # H - 1 one level up, where LQCK1 ends
        l1, l2, t1 = [], [], []
        for a, (Ra, w) in enumerate(zip(block_slabs(F.slabs[l], F.levels[l + 1]), psi.weights)):
            if up is not None:
                l1.append(_sq_nrm(up[a] @ Ra) / (d2 * d2 * w_min[a] ** 3 * w))
            for i in range(n[a]):
                P = Ra[i].conj().T @ Ra  # [r] = R_ai* R_ar = Ss(e_ij) S(e_jr), on level l
                coef = A[:, off[a] + i * n[a] : off[a] + (i + 1) * n[a]]  # [p, r]: b_p in A(e_ir)
                on = coef.any(axis=1)[u]  # the entries of the slabs of the b_p in A(e_ir)
                at = (slice(None), q[on], q2[on])
                Pm, m = P[at], coef[u[on]].T  # [r, entry]
                P[at] = Pm - m * mH[on]
                l2.append(_sq_nrm(P) / (w_min[a] ** 2 * w[i] * w))
                P[at] = Pm - m * diag[on] / (d2 * d2)
                t1.append(d2 * d2 * _sq_nrm(P))
        found = {"lqck1": l1, "lqck2": l2, "toeplitz1": t1}
        for key, parts in found.items():
            if parts:  # no LQCK1 from level N-1
                sq[key].append(np.concatenate(parts))
        sq["lqck3"].append(np.dot(n, t2) / (d2 * d2))
        sq["toeplitz2"].append(t2)

    report = {key: float(np.max(np.sqrt(sum(v)))) if v else None for key, v in sq.items()}
    report["level_dims"] = F.level_dims
    return report
