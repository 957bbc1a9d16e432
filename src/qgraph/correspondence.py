"""Finite-dimensional C*-correspondences over B and the edge correspondence.

Every correspondence the library builds (B (x)_psi B, E_G and, for the tests,
every Fock level) is a `Correspondence` in block-multiplicity normal form
sum_{a,c} C^{N_a} (x) K_ac (x) C^{N_c}, M[a, c] = dim K_ac; for E_G, M[a, b] is
the Kraus rank of A from block a to b, and its zero rows and columns decide
the left kernel, faithfulness and fullness.  It stores only the nonzeros of
its left action on a psi-orthonormal basis; its right action and B-valued
inner product are psi's weights.  E_G is held as its `pair_slabs` X_ab and
D_ab, formed from A's Choi spectra, and with A's Choi slabs they give the
`orbit_defects`, off which the B (x)_A B isomorphism, the compact
decomposition, the dimension of B . eps . B and every Fock identity are read;
its generator is derived from them.  The dense ambients and Gram quotients,
the tables of the right action and inner product, the cut of a vector into
pair slabs and the recognizer of cyclic vectors are `tests/oracles.py`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .blocks import BlockStructure, DeltaState
from .errors import MismatchedBase, NotCompletelyPositive
from .graphs import GRAM_CUTOFF_RTOL, QuantumGraph, quantum_sources_sinks, require_completely_positive


@dataclass(frozen=True)
class Correspondence:
    """A `normal_form` correspondence, read through its pair slabs and the
    nonzeros of its left action on an orthonormal basis, the latter computed
    from (psi, mult) on first use.

    left = (p, row, col): b_p . u_col = u_row, each unit a partial permutation,
    the pairs (p, row) distinct.  mult is the multiplicity matrix; pair_slabs,
    when set, holds the distinguished generating vector xi (the edge indicator
    for edge correspondences) as one (pairs, X, D) per shape (N_a, M_ab, N_b):
    the (g, 2) pairs (a, b) with M[a, b] > 0, row-major, the (g, N_a, M_ab, N_b)
    stack of X_ab[j] = xi_ab[j] / sqrt(w_b) and the (g, M_ab, M_ab) stack of
    D_ab = sum_j X_ab[j] X_ab[j]* / w_a[j] - 1.  graph is the quantum graph it
    came from, and creation, on X (x)_B Y, the nonzeros (z, x, y, value) of the
    canonical map u_x (x) u_y -> value u_z.
    """

    structure: BlockStructure
    psi: DeltaState
    mult: np.ndarray
    pair_slabs: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...] | None = None
    graph: QuantumGraph | None = None
    creation: tuple[np.ndarray, ...] | None = None

    @cached_property
    def size(self) -> int:
        n = np.array(self.structure.sizes)
        return int(n @ self.mult @ n)

    @cached_property
    def layout(self) -> tuple[np.ndarray, ...]:
        """`_layout` of the coordinates, computed once per correspondence."""
        return _layout(self.structure, self.mult)

    @cached_property
    def left(self) -> tuple[np.ndarray, ...]:
        a, c, i, _, _, _ = self.layout
        n, off = np.array(self.structure.sizes), np.array(self.structure.offsets)
        x, t = np.nonzero(np.arange(n.max()) < n[a][:, None])
        return off[a[x]] + t * n[a[x]] + i[x], x + (t - i[x]) * self.mult[a, c][x] * n[c[x]], x

    @cached_property
    def generator(self) -> np.ndarray:
        """The coordinates of the generating vector, laid out from `pair_slabs`
        in `normal_form` order: each X_ab with column l multiplied by
        sqrt(w_b[l]), (i, k, l) row-major, the pairs row-major by one stable
        argsort.  Only `canonical_fock_family` and the tests read it."""
        W, d = self.psi.weight_table, self.structure.num_blocks
        segments, keys = [np.zeros(0, complex)], [np.zeros(0, int)]
        for pairs, X, _ in self.pair_slabs:
            segments.append((X * np.sqrt(W[pairs[:, 1], None, None, : X.shape[3]])).ravel())
            keys.append((pairs[:, 0] * d + pairs[:, 1]).repeat(np.prod(X.shape[1:])))
        return np.concatenate(segments)[np.argsort(np.concatenate(keys), kind="stable")]

    @cached_property
    def orbit_defects(self) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
        """(pairs, A4, Q) for each group of the graph's `choi_slabs`, on E_G: the
        pairs (a, c) where A_ac != 0, the (g, N_a, N_a, N_c, N_c) stack A4[i, r] =
        A(e_ir)_c / delta^4 and Q[i, r] = X_ac[i]* X_ac[r] / delta^2 - A4[i, r]
        (`pair_slabs`; the first term is 0 when M_ac = 0).  Block c of
        <eps, e_ir . eps>_B is X_ac[i]* X_ac[r], so Q is delta^-2 times the defect
        of delta^2 <eps, x . eps>_B = A(x) at x = e_ir, and every pair where A is
        0 has none.  Row-major keys place E's pairs, M_ac > 0, among A's."""
        d2, n, out = self.graph.delta_sq, np.array(self.structure.sizes), []
        for pairs, H in self.graph.adjacency.choi_slabs:
            (a, c), (na, nc) = pairs.T, n[pairs[0]]
            A4 = H.reshape(-1, na, nc, na, nc).transpose(0, 1, 3, 2, 4) / (d2 * d2)
            Q = -A4
            for epairs, X, _ in self.pair_slabs:
                if X.shape[1::2] == (na, nc):
                    k = np.searchsorted(a * len(n) + c, epairs[:, 0] * len(n) + epairs[:, 1])
                    Q[k] += np.einsum("gikm,grkl->girml", X.conj(), X) / d2
            out.append((pairs, A4, Q))
        return tuple(out)

    def left_units(self, V: np.ndarray) -> np.ndarray:
        p, row, col = self.left
        out = np.zeros((self.structure.dim, self.size, V.shape[1]), dtype=complex)
        out[p, row] = V[col]
        return out


def _gram_quotient(gram: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of a Gram matrix above the relative cutoff GRAM_CUTOFF_RTOL.

    Raises NotCompletelyPositive when the Gram has an eigenvalue below -1e-8
    times its own largest eigenvalue (the semi-inner product is not positive),
    a cut relative to the Gram, so the verdict does not move with its scale.
    """
    evals, evecs = np.linalg.eigh((gram + gram.conj().T) / 2)
    top = float(evals.max(initial=0.0))
    if evals.size and float(evals.min()) < -1e-8 * top:
        raise NotCompletelyPositive(f"scalar Gram min eigenvalue {evals.min():.3e}")
    keep = evals > GRAM_CUTOFF_RTOL * max(top, 1e-300)
    return evals[keep], evecs[:, keep]


def from_spanning(gram: np.ndarray, spanning: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the span of the rows of `spanning`, for the scalar
    form with Gram matrix `gram` on the coordinates: the Gram eigenvectors of
    the rows above the relative cutoff, rescaled to unit norm, as rows.
    """
    spanning = np.asarray(spanning, dtype=complex)
    lam, U = _gram_quotient(spanning.conj() @ gram @ spanning.T)
    return (U / np.sqrt(lam)).T @ spanning


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
    return Correspondence(psi.structure, psi, np.asarray(M, dtype=int), **fields)


def trivial_correspondence(psi: DeltaState) -> Correspondence:
    """B as a correspondence over itself: the normal form with M = 1."""
    return normal_form(psi, np.eye(psi.structure.num_blocks, dtype=int))


def _same_base(psi: DeltaState, phi: DeltaState) -> None:
    if psi is phi:
        return
    if psi.structure != phi.structure:
        raise MismatchedBase("correspondences over different block structures")
    if not np.allclose(psi.weight_table, phi.weight_table, atol=0.0):
        raise MismatchedBase("correspondences over different states")


def psi_tensor_module(psi: DeltaState) -> Correspondence:
    """B (x)_psi B, <a (x) b, c (x) d>_B = b* psi(a* c) d, in normal form: M[a, c]
    = N_a N_c, and b_p (x) b_q for p = e_ij in block a and q = e_kl in block
    c is sqrt(g_p g_q) times the coordinate (a, c, i, j N_c + k, l)."""
    n = np.array(psi.structure.sizes)
    return normal_form(psi, np.outer(n, n))


def multiplicity_spaces(G: QuantumGraph) -> tuple[list[tuple[np.ndarray, ...]], tuple[tuple[np.ndarray, ...], ...]]:
    """Bases of the multiplicity spaces K_ab of E_G, per group of `choi_slabs`,
    and E_G's `pair_slabs`: eps_ab[i,j,k,l] = sum_u X_ab[i,u,l] u[jk].

    K_ab is the column space of Y[(j,k), (i,l)] = sqrt(w_a[j]) eps_ab[i,j,k,l]
    = delta^-2 w_a[j]^-1/2 H, H = V diag(lam) V* the Choi slab ab as
    `A.choi_spectra` holds it, from the one eigh the Choi test read.  The Kraus
    rank M_ab counts the eigenvalues above `A.choi_cut`, the one cut that the
    Choi verdict reads: for a PSD slab they are its singular values, linear in it;
    a cut on their squares would lose directions below about 1e-5 of the largest.
    One reduced QR V[:, :r] / sqrt(w_a[j]) = U R per group, r its largest rank,
    keeps nested spans, so the first M_ab columns of U span Y's columns for every
    pair: u = U / sqrt(w_a[j]) is orthonormal for the weights w_a[j], and the
    first M_ab rows of U* Y are X_ab, one (pairs, X, D) stack per group and rank.
    Each group's bases are (pairs, ranks, u): its (g, 2) block pairs, row-major,
    their Kraus ranks M_ab and the (g, N_a N_b, r) stack of u.  A pair where A
    is 0 has no slab, so it has rank 0, no bases and no pair slab; with no edges
    at all there are no pair slabs.
    """
    A, W = G.adjacency, G.psi.weight_table
    bases, slabs = [], []
    for (pairs, H), (lam, V) in zip(A.choi_slabs, A.choi_spectra):
        a, b = pairs.T
        g, na, nb = len(pairs), G.structure.sizes[a[0]], G.structure.sizes[b[0]]
        root_a = np.sqrt(np.repeat(W[a, :na], nb, axis=1))[:, :, None]
        ranks = np.count_nonzero(lam > A.choi_cut, axis=1)
        U = np.linalg.qr(V[:, :, : ranks.max()] / root_a)[0]
        UY = (U.conj().transpose(0, 2, 1) @ (H / G.delta_sq / root_a)).reshape(g, -1, na, nb).transpose(0, 2, 1, 3)
        bases.append((pairs, ranks, U / root_a))
        for m in sorted(set(ranks.tolist()) - {0}):
            k = ranks == m
            X = UY[k, :, :m]  # [pair, i, u, l]
            D = np.einsum("gjkl,gjml->gkm", X / W[a[k], :na, None, None], X.conj()) - np.eye(m)
            slabs.append((pairs[k], X, D))
    return bases, tuple(slabs)


def build_edge_correspondence(G: QuantumGraph) -> Correspondence:
    """E_G = B . eps . B in normal form, M[a, b] = dim K_ab, held as the
    `pair_slabs` of the indicator that `multiplicity_spaces` forms.  The result
    records G, so every E_G report takes E_G alone.
    """
    require_completely_positive(G)
    bases, slabs = multiplicity_spaces(G)
    M = np.zeros((G.structure.num_blocks,) * 2, dtype=int)
    for pairs, ranks, _ in bases:
        M[pairs[:, 0], pairs[:, 1]] = ranks
    return normal_form(G.psi, M, pair_slabs=slabs, graph=G)


def left_kernel(E: Correspondence) -> dict:
    """Left-action kernel of E_G as rows of units: the units of the source blocks
    of `faithful_full_report`, which move no coordinate of E_G, and its kernel_dim."""
    report = faithful_full_report(E)
    in_kernel = np.isin(E.structure.unit_indices[0], report["sources"])
    return {"kernel_basis": np.eye(E.structure.dim, dtype=complex)[in_kernel], "kernel_dim": report["kernel_dim"]}


def compact_decomposition_residual(E: Correspondence) -> float:
    """Residual of f_ij . xi = sum_k theta_{f_ik.eps, f_jk.eps}(xi) on E_G.

    On level 1 of the Fock module theta_{xi,eta} = T(xi)T(eta)*, so this is the
    covariance defect (1 - H_a) / sqrt(w_i w_j) with H_a - 1 = sum_b D_ab (x) 1
    (`pair_slabs`): its largest operator norm over all units is
    max_{a,b} ||D_ab|| / min w_a, the spectral norm of the Hermitian D_ab, which
    no change of basis of K_ab moves.
    """
    worst = [np.abs(np.linalg.eigvalsh(D)).max(axis=1) / E.psi.min_weight[pairs[:, 0]] for pairs, _, D in E.pair_slabs]
    return float(max((x.max() for x in worst), default=0.0))


def cp_correspondence(E: Correspondence) -> float:
    """Defect of the isomorphism of B (x)_A B with E_G.

    B (x)_A B carries <a (x) b, c (x) d>_B = b* A(a* c) d.  The canonical map
    x . eps . y -> (1/delta)(x (x) y) preserves B-valued inner products
    exactly when delta^2 <eps, x . eps>_B = A(x), since both Grams of the
    orbit b_p . eps . b_q are b_q* (.)(b_p* b_r) b_s of that map; the
    residual is the worst entry of delta^2 <eps, b_p . eps>_B - A(b_p),
    divided by delta^2: delta^2 max |Q| over E's `orbit_defects`, which are 0
    at every block pair where A is.
    """
    worst = max((np.abs(Q).max() for _, _, Q in E.orbit_defects), default=0.0)
    return float(E.graph.delta_sq * worst)


def cyclic_dim(X: Correspondence) -> int:
    """Dimension of the cyclic submodule B . xi . B of X's generator xi.

    The units move i and l of the coordinates (a, c, i, k, l), so B . xi . B
    is sum_{a,c} C^{N_a} (x) K'_ac (x) C^{N_c} with K'_ac the span of the
    rows xi[a, c, i, :, l]: sum N_a N_c rank(Xi_ac), from one batched SVD per
    group of `pair_slabs`, the ranks cut at GRAM_CUTOFF_RTOL times the largest
    singular value of all pairs.  Singular values are linear in xi; a cut on
    the eigenvalues of Xi* Xi, their squares, would lose directions below
    about 1e-5 of the largest.  Xi_ac is xi's coordinates on the pair, X_ac
    with its columns multiplied back by sqrt(w_c): X_ac itself would let a
    skewed state push genuine rows under the one cut.  On E_G it is dim E_G
    exactly when eps generates E_G = B . eps . B; no coordinate vector is formed.
    """
    groups = []
    for pairs, X_ac, _ in X.pair_slabs:
        g, na, m, nc = X_ac.shape
        raw = X_ac * np.sqrt(X.psi.weight_table[pairs[:, 1], None, None, :nc])
        Xi = raw.transpose(0, 1, 3, 2).reshape(g, na * nc, m)
        groups.append((na * nc, np.linalg.svd(Xi, compute_uv=False)))
    cutoff = GRAM_CUTOFF_RTOL * max([1e-300] + [s.max() for _, s in groups])
    return int(sum(k * np.count_nonzero(s > cutoff) for k, s in groups))


def faithful_full_report(E: Correspondence) -> dict:
    """Faithfulness and fullness of E_G, read off the sources and sinks of its
    graph by `quantum_sources_sinks`, the zero rows and columns of E_G's
    multiplicity matrix M, under the same cut of A's Choi spectra.

    E_G is faithful when M has no zero row (no source block: ker A contains no
    central summand of B) and full when M has no zero column (no sink block).
    The left kernel is spanned by the units of the source blocks (those of
    block a move the coordinates (a, c, i, k, l)), of dimension sum N_a^2 over them.
    """
    sources, sinks = quantum_sources_sinks(E.graph)
    return {
        "faithful": not sources,
        "full": not sinks,
        "kernel_dim": int(np.square(E.structure.sizes)[sources].sum()),
        "sources": sources,
        "sinks": sinks,
    }
