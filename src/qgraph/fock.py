"""The truncated Fock module F_N = B + E + ... + E^{(x)N} of an edge correspondence.

Level l+1 is E (x)_B level l (Pimsner 1997, section 1), with c_l[b] coordinates
for each block b and first index m, c_l = M^l n, and creation by eps is E's
slabs X_ab (`pair_slabs`) tensored with identities: every identity on level l
is a sum of block-pair terms of E and A (`choi_slabs`), weighted by c_{l-1} or
c_l, so no level is built but by `interior_tensor`, for `canonical_fock_family`
and the tests.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np

from .correspondence import (
    Correspondence,
    _empty_blocks,
    _same_base,
    build_edge_correspondence,
    normal_form,
    trivial_correspondence,
)
from .errors import BudgetExceeded, HasQuantumSource, ShapeMismatch, echo
from .graphs import QuantumGraph
from .relations import _sq_nrm

FOCK_MAX_DEPTH = 10_000  # bounds the O(N) multiplicities and reports


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
    value = 1.0 / np.sqrt(X.psi.weight_table[b, xm[sx]])
    return normal_form(X.psi, MZ, creation=(z, sx, sy, value))


@dataclass(frozen=True)
class FockTruncation:
    """The depth-N Fock truncation of the edge correspondence E of a graph.

    No level is stored: T(u_e) maps b_y / sqrt(g_y) on level 0, y = e_lt in
    block c, to u_z / sqrt(w_c[l]), z the coordinate of e with last index t,
    and on level l it is that map tensored with 1, so every identity reads
    E's slabs, psi's weights and the multiplicities c_l = M^l n.
    """

    graph: QuantumGraph
    edge: Correspondence
    depth: int

    @cached_property
    def multiplicities(self) -> tuple[tuple[int, ...], ...]:
        """c_l = M^l n for l = 0..N, exact Python ints summed over M's nonzeros."""
        rows, cols = np.nonzero(self.edge.mult)
        entries = list(zip(rows.tolist(), cols.tolist(), self.edge.mult[rows, cols].tolist()))
        counts = [tuple(self.graph.structure.sizes)]
        for _ in range(self.depth):
            c = [0] * len(counts[-1])
            for a, b, m in entries:
                c[a] += m * counts[-1][b]
            counts.append(tuple(c))
        return tuple(counts)

    @cached_property
    def level_dims(self) -> tuple[int, ...]:
        n = self.graph.structure.sizes
        return tuple(sum(N * x for N, x in zip(n, c)) for c in self.multiplicities)

    @property
    def total_dim(self) -> int:
        return sum(self.level_dims)

    @cached_property
    def defect_squares(self) -> np.ndarray:
        """[l - 1, a] = ||H_a - 1||^2 on level l = 1..N-1, formed once per truncation:
        H_a - 1 is the sum over b of D_ab (x) 1 with c_{l-1}[b] copies, of squared
        norm sum_b c_{l-1}[b] ||D_ab||^2, added by pair with no (blocks, blocks) table."""
        c = np.array(self.multiplicities[: self.depth - 1], dtype=float)
        out = np.zeros(c.shape)
        for pairs, _, D in self.edge.pair_slabs:
            np.add.at(out, (slice(None), pairs[:, 0]), c[:, pairs[:, 1]] * _sq_nrm(D))
        return out


def build_fock(G: QuantumGraph, N: int) -> FockTruncation:
    """The depth-N Fock truncation of the edge correspondence of G.  N < 1 and
    N > FOCK_MAX_DEPTH are refused before E is built, a zero row of M (HasQuantumSource),
    and, naming the first such depth, levels with more coordinates than a float holds."""
    if N < 1:
        raise ShapeMismatch(f"level count {echo(N)} must be at least 1")
    if N > FOCK_MAX_DEPTH:
        raise BudgetExceeded(f"depth {echo(N)} is past the largest Fock depth {FOCK_MAX_DEPTH}")
    E = build_edge_correspondence(G)
    sources, _ = _empty_blocks(E)
    if sources:
        raise HasQuantumSource(f"blocks {echo(sources)} lie in ker A")
    F = FockTruncation(G, E, N)
    for l, total in enumerate(accumulate(F.level_dims)):
        if total > sys.float_info.max:
            raise BudgetExceeded(f"depth {N} leaves the float range at depth {l}, past 1.8e308 coordinates")
    return F


def representation_residuals(F: FockTruncation) -> dict:
    """Defects of the covariant-representation identities on the truncation.

    covariance: pi(f_ij) = sum_k T(f_ik.eps)T(f_jk.eps)* on levels 1..N-1 (None
    when N = 1), of defect (1 - H_a) / sqrt(w_i w_j), worst ||H_a - 1|| / min w_a.
    vacuum_defect: the norm of pi on level 0, where covariance must fail, sqrt(max N_a).
    T(xi)*T(eta) = pi(<xi,eta>_B) holds in every normal form, whatever E's generator,
    and is not read (the tests check it on built levels: `dense_inner_defect`)."""
    covariance = float((np.sqrt(F.defect_squares) / F.graph.psi.min_weight).max()) if F.depth > 1 else None
    return {"covariance": covariance, "vacuum_defect": float(np.sqrt(max(F.graph.structure.sizes)))}


def canonical_fock_family(F: FockTruncation) -> tuple[np.ndarray, ...]:
    """The family S(x) = (1/delta) T(x . eps) on levels built by `interior_tensor`:
    entry l, (dim B, dim level l+1, dim level l), holds S(b_p) from level l to l+1."""
    E = F.edge
    V = E.left_units(E.generator[:, None])[:, :, 0] / np.sqrt(F.graph.delta_sq)  # row p is b_p . eps / delta
    level, S = trivial_correspondence(E.psi), []
    for _ in range(F.depth):
        up = interior_tensor(E, level)
        z, e, y, value = up.creation
        S.append(np.zeros((len(V), up.size, level.size), dtype=complex))
        S[-1][:, z, y] = value * V[:, e]  # (z, y) fixes e
        level = up
    return tuple(S)


def lqck_fock_residuals(F: FockTruncation) -> dict:
    """Interior residuals of LQCK1-3 and the abstract-Toeplitz identities.

    S(x) = (1/delta) T(x.eps) is judged on levels 1..N-1, where it agrees with
    the Toeplitz representation, and LQCK1 (which ends one level up) on 1..N-2;
    norms at adapted-unit pairs sum squares over the levels, and are None with
    no level to check.  S(e_ij) maps first index j of block a to i, so the
    defect at u = e_ij, v = e_jr, w = e_ir is worst at the smallest weight
    w_min of block a.  On level l, Ss(e_ij) S(e_jr) = sum_c P_c (x) 1 with c_l[c]
    copies, P_c = X_ac[i]* X_ac[r] / delta^2 (0 when M_ac = 0), A_c = A(e_ir)_c:
    LQCK1 (a, r): sum_b c_l[b] ||D_ab X_ab[r]||^2 / (delta^6 w_min^3 w_r);
    LQCK2: sum_{c,b'} c_{l-1}[b'] ||(P_c - A_c/delta^4) (x) 1 - A_c (x) D_cb'/delta^4||^2
    / (w_min^2 w_i w_r), the identity M_cb' wide;
    LQCK3: (sum_a N_a ||H_a - 1||^2)^1/2 / delta^2;
    Toeplitz-1: sum_c c_l[c] delta^4 ||P_c - A_c/delta^4||^2;
    Toeplitz-2: max_a ||H_a - 1||, the defect at every unit of block a.
    LQCK1 and the D_cb' sums are read per group of E's `pair_slabs`, and
    P_c - A_c/delta^4 and A_c/delta^4 are E's `orbit_defects`, one table per
    group of A's `choi_slabs`.  LQCK2 is summed about mu_c, the mean of the diagonals
    of D_cb' weighted by c_{l-1}[b'], of total weight s_c = sum_b' c_{l-1}[b'] M_cb':
    s_c ||P_c - A_c (1 + mu_c)/delta^4||^2 + ||A_c||^2 sum_b' c_{l-1}[b'] ||D_cb' - mu_c 1||^2
    / delta^8 is exact, its cross term a sum of deviations from the mean; no O(1) terms cancel.
    """
    G, E, N = F.graph, F.edge, F.depth
    if N == 1:
        return {**dict.fromkeys(("lqck1", "lqck2", "lqck3", "toeplitz1", "toeplitz2")), "level_dims": F.level_dims}
    d2, W, w_min, n = G.delta_sq, G.psi.weight_table, G.psi.min_weight, np.array(G.structure.sizes)
    c = np.array(F.multiplicities, dtype=float)
    below, at, up = c[: N - 1].sum(axis=0), c[1:N].sum(axis=0), c[1 : N - 1].sum(axis=0)
    l1, (l2, t1) = np.zeros(W.shape), np.zeros((2,) + W.shape + W.shape[1:])  # by block a, padded
    s, mu, spread = E.mult @ below, np.zeros(len(n), dtype=complex), np.zeros(len(n))
    for pairs, _, D in E.pair_slabs:
        np.add.at(mu, pairs[:, 0], below[pairs[:, 1]] * np.trace(D, axis1=1, axis2=2))
    mu /= s
    for pairs, X, D in E.pair_slabs:
        a, b, na = pairs[:, 0], pairs[:, 1], X.shape[1]
        np.add.at(spread, a, below[b] * _sq_nrm(D - mu[a, None, None] * np.eye(D.shape[1])))
        DX = up[b, None] * _sq_nrm(D[:, None] @ X)  # [g, r]
        np.add.at(l1[:, :na], a, DX / (d2**3 * w_min[a, None] ** 3 * W[a, :na]))
    for pairs, Ac, Q in E.orbit_defects:  # [g, i, r]: A_c / delta^4 and P_c - A_c / delta^4
        (a, cc), na = pairs.T, n[pairs[0, 0]]
        np.add.at(t1[:, :na, :na], a, d2 * d2 * at[cc, None, None] * _sq_nrm(Q))
        terms = s[cc, None, None] * _sq_nrm(Q - Ac * mu[cc, None, None, None, None])
        terms += _sq_nrm(Ac) * spread[cc, None, None]
        wt = w_min[a, None, None] ** 2 * W[a, :na, None] * W[a, None, :na]
        np.add.at(l2[:, :na, :na], a, terms / wt)
    lq1, lq2, tp1 = (float(np.sqrt(part.max())) for part in (l1, l2, t1))
    H2 = F.defect_squares
    return {
        "lqck1": lq1 if N > 2 else None,
        "lqck2": lq2,
        "lqck3": float(np.sqrt(np.sum(H2 @ n))) / d2,
        "toeplitz1": tp1,
        "toeplitz2": float(np.sqrt(H2.sum(axis=0).max())),
        "level_dims": F.level_dims,
    }
