"""Quantum Cuntz-Krieger relation systems: global (QCK), local (LQCK), and
the classical-graph reduction.

A family is a linear map s: B -> M_k given by its images on the standard
matrix units.  Residuals are raw Frobenius norms; the optional compression
argument evaluates ||P X P|| instead.  The Fock module's family is judged
in closed form from its slabs, in `qgraph.fock`.

Contractions against m* run over the sum_a N_a^3 triples of
`BlockStructure.mul_nonzeros` only (`_pair_sum`): m*(e_ij) has the weight
1/w_k on e_ik (x) e_kj, and no d^3 array of coefficients is formed.  LQCK1/2's
(d, d) pair tables take one GEMM per chunk of rows and subtract the m-term on
those triples only, a compression applied to the factors (`_defect_table`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import graphs
from .blocks import BlockStructure, DeltaState
from .errors import NotClassical, ShapeMismatch
from .graphs import QuantumGraph


@dataclass(frozen=True)
class CKFamily:
    """Linear map s: B -> M_k via per-standard-unit images.

    images[p] is the k x k matrix s(b_p); the conjugate family
    s*(x) = s(x*)* is derived, never stored.
    """

    k: int
    images: np.ndarray  # (dim B, k, k)

    def __post_init__(self):
        images = np.asarray(self.images, dtype=complex)
        if self.k < 1:
            raise ShapeMismatch(f"family size k = {self.k} is not at least 1")
        if images.ndim != 3 or images.shape[1:] != (self.k, self.k):
            raise ShapeMismatch(f"family images have shape {images.shape}")
        object.__setattr__(self, "images", images)

    @classmethod
    def zero(cls, structure: BlockStructure, k: int = 1) -> "CKFamily":
        return cls(k, np.zeros((structure.dim, k, k)))

    def star_images(self, structure: BlockStructure) -> np.ndarray:
        """Images of the conjugate family s*(b_p) = s(b_p*)*."""
        return np.conj(np.swapaxes(self.images[structure.star_perm], -1, -2))


def _check_family(s: CKFamily, G: QuantumGraph, compression: np.ndarray | None) -> None:
    if s.images.shape[0] != G.structure.dim:
        raise ShapeMismatch(
            f"family has {s.images.shape[0]} unit images, graph needs {G.structure.dim}"
        )
    if compression is not None and np.shape(compression) != (s.k, s.k):
        raise ShapeMismatch(f"compression has shape {np.shape(compression)}, family needs ({s.k}, {s.k})")


def _pair_sum(psi: DeltaState, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """out[u] = sum_{p,q} W[u,p,q] X[p] @ Y[q] for the coefficients W of m*,
    over its nonzeros W[u,p,q] = 1/gram_diag[p] on the triples of m only.

    One batched matmul of the pair products, then a segmented sum by u: the
    triples list u ascending, so each u is one contiguous run.
    """
    u, p, q = psi.structure.mul_nonzeros
    terms = (1.0 / psi.gram_diag[p])[:, None, None] * (X[p] @ Y[q])
    return np.add.reduceat(terms, np.unique(u, return_index=True)[1])


def _psi_t(G: QuantumGraph, S: np.ndarray, Ss: np.ndarray, P: np.ndarray | None):
    """psi_t = mu(s x s*)m*, its image Y[u] = sum_v A[v, u] psi_t[v] under A, and
    the squared QCK3 = LQCK3 defect ||psi_t(1) - delta^-2 1||^2."""
    psi_t = _pair_sum(G.psi, S, Ss)
    Y = np.tensordot(G.adjacency.matrix, psi_t, axes=(0, 0))
    q3 = np.einsum("u,uac->ac", G.structure.unit_vector, psi_t)
    return psi_t, Y, _sq_nrm(q3 - np.eye(S.shape[-1]) / G.delta_sq, P)


def _defect_table(st: BlockStructure, L, R, T, c: float, P: np.ndarray | None) -> np.ndarray:
    """[u, v] = ||P(L[u] R[v] - c T[w])P||^2, the m-term c T[w] only where b_u b_v = b_w.

    Each chunk of rows u is one GEMM against R, read once as a (k, d k) matrix,
    into a (chunk, k, d, k) buffer of at most graphs._CHUNK_ENTRIES entries;
    c T[w] is subtracted in place on the chunk's triples of `mul_nonzeros`, and
    the squares of its float64 view are summed over (a, c, re/im).
    """
    if P is not None:  # P(XY - Z)P = (PX)(YP) - PZP
        L, R, T = P @ L, R @ P, P @ T @ P
    (d, k, _), (w, left, right) = R.shape, st.mul_nonzeros
    R = R.transpose(1, 0, 2).reshape(k, d * k)
    out = np.empty((d, d))
    step = max(1, graphs._CHUNK_ENTRIES // (d * k * k))
    for lo in range(0, d, step):
        buf = (L[lo : lo + step].reshape(-1, k) @ R).reshape(-1, k, d, k)
        t = np.flatnonzero((lo <= left) & (left < lo + step))
        buf[left[t] - lo, :, right[t], :] -= c * T[w[t]]
        f = buf.view(np.float64)
        out[lo : lo + step] = np.einsum("uavc,uavc->uv", f, f)
    return out


def _sq_nrm(X: np.ndarray, P: np.ndarray | None = None) -> np.ndarray:
    """Squared Frobenius norms of X (or P X P) over its last two axes, without a copy of X."""
    if P is not None:
        X = P @ X @ P
    return np.einsum("...ab,...ab->...", X.real, X.real) + np.einsum("...ab,...ab->...", X.imag, X.imag)


def _nrm(X: np.ndarray, P: np.ndarray | None) -> np.ndarray:
    return np.sqrt(_sq_nrm(X, P))


def qck_residuals(
    s: CKFamily, G: QuantumGraph, compression: np.ndarray | None = None
) -> dict[str, float]:
    """Residuals of the global relations QCK1-3, maximized over standard units.

    QCK1: mu(mu x 1)(s x s* x s)(m* x 1)m* = s
    QCK2: mu(s* x s)m* = mu(s x s*)m*A
    QCK3: mu(s x s*)m*(1) = delta^-2 1
    """
    _check_family(s, G, compression)
    S, Ss, P = s.images, s.star_images(G.structure), compression
    psi_t, rhs2, n3 = _psi_t(G, S, Ss, P)
    r1 = float(_nrm(_pair_sum(G.psi, psi_t, S) - S, P).max())
    r2 = float(_nrm(_pair_sum(G.psi, Ss, S) - rhs2, P).max())
    return {"qck1": r1, "qck2": r2, "qck3": float(np.sqrt(n3))}


def lqck_residuals(
    s: CKFamily, G: QuantumGraph, compression: np.ndarray | None = None
) -> dict[str, float]:
    """Residuals of the local relations LQCK1-3, maximized over all d^2
    adapted-unit pairs (f_u, f_v): a general family need not vanish on the
    pairs with b_u b_v = 0, where the m-terms are 0.  LQCK1/2 take one GEMM per
    chunk of rows u, the m-term subtracted on the sum_a N_a^3 triples of m only
    and a compression P applied to the factors, P(XY - Z)P = (PX)(YP) - PZP.

    LQCK1: mu(mu x 1)(s x s* x s)(m* x 1) = delta^-2 s m
    LQCK2: mu(s* x s) = delta^-2 mu(s x s*)m*Am
    LQCK3: mu(s x s*)m*(1) = delta^-2 1
    """
    _check_family(s, G, compression)
    st, P, c = G.structure, compression, 1.0 / G.delta_sq
    S, Ss = s.images, s.star_images(st)
    psi_t, Y, n3 = _psi_t(G, S, Ss, P)
    scale_sq = G.psi.weight_of_row * G.psi.gram_diag  # f_u = b_u / sqrt(scale_sq[u])
    pair_scale = scale_sq[:, None] * scale_sq
    n1 = _defect_table(st, psi_t, S, S, c, P) / pair_scale
    n2 = _defect_table(st, Ss, S, Y, c, P) / pair_scale
    return {f"lqck{i}": float(np.sqrt(np.max(n))) for i, n in enumerate((n1, n2, n3), start=1)}


def _require_classical(G: QuantumGraph) -> int:
    st = G.structure
    if any(n != 1 for n in st.sizes):
        raise NotClassical("graph has a matrix block of size > 1")
    N = st.num_blocks
    if any(abs(float(w[0]) - 1.0 / N) > 1e-12 for w in G.psi.weights):
        raise NotClassical("state is not uniform on the vertices")
    return N


def classical_reduction(
    G: QuantumGraph, s: CKFamily, compression: np.ndarray | None = None
) -> dict:
    """Cuntz-Krieger residuals of S_i = N s(e_i) for a classical graph.

    Reports the partial-isometry, Cuntz-Krieger and unit-sum residuals of
    the rescaled family, together with the QCK residuals of s itself: the
    two systems vanish together under the scaling dictionary.  The CK
    relation pairs S_i*S_i with the i-th column of the adjacency map's
    coordinate matrix (the edges into vertex i under A's action).
    """
    _check_family(s, G, compression)
    N = _require_classical(G)
    P = compression
    A = G.adjacency.matrix.real
    S = N * s.images  # S_i for vertex i
    Sh = S.conj().swapaxes(-1, -2)
    SSh = S @ Sh  # S_i S_i*

    r_pi = float(_nrm(SSh @ S - S, P).max())
    r_ck = float(_nrm(Sh @ S - np.einsum("ji,jab->iab", A, SSh), P).max())
    r_unit = float(_nrm(SSh.sum(axis=0) - np.eye(s.k), P))

    qck = qck_residuals(s, G, compression=P)
    return {
        "partial_isometry": r_pi,
        "cuntz_krieger": r_ck,
        "unit_sum": r_unit,
        **qck,
    }
