"""Quantum Cuntz-Krieger relation systems: global (QCK), local (LQCK), and
the classical-graph reduction.

A family is a linear map s: B -> M_k given by its images on the standard
matrix units.  Residuals are raw Frobenius norms; the optional compression
argument evaluates ||P X P|| instead.  `lqck_sq_norms` takes images between
two spaces and the unit pairs to check, so the Fock module is judged one
level at a time on the pairs with b_u b_v != 0 only.

Contractions against the coefficient tensor W of m* run over its sum_a N_a^3
nonzero entries only (`_pair_sum`), never over all d^3 index triples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import BlockStructure
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
        if images.ndim != 3 or images.shape[1:] != (self.k, self.k):
            raise ShapeMismatch(f"family images have shape {images.shape}")
        object.__setattr__(self, "images", images)

    @classmethod
    def zero(cls, structure: BlockStructure, k: int = 1) -> "CKFamily":
        return cls(k, np.zeros((structure.dim, k, k)))

    def star_images(self, structure: BlockStructure) -> np.ndarray:
        """Images of the conjugate family s*(b_p) = s(b_p*)*."""
        return star_images(self.images, structure)


def star_images(images: np.ndarray, structure: BlockStructure) -> np.ndarray:
    """s(b_p*)^* for every unit b_p, from the unit images s(b_p) of shape (dim, k', k)."""
    return np.conj(np.swapaxes(images[structure.star_perm], -1, -2))


def _check_family(s: CKFamily, G: QuantumGraph) -> None:
    if s.images.shape[0] != G.structure.dim:
        raise ShapeMismatch(
            f"family has {s.images.shape[0]} unit images, graph needs {G.structure.dim}"
        )


def _pair_sum(W: np.ndarray, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """out[u] = sum_{p,q} W[u,p,q] X[p] @ Y[q], over the nonzero W[u,p,q] only.

    One batched matmul of the pair products, then a segmented sum by u:
    np.nonzero lists u ascending, so each u is one contiguous run.
    """
    u, p, q = np.nonzero(W)
    terms = W[u, p, q][:, None, None] * (X[p] @ Y[q])
    out = np.zeros((W.shape[0],) + terms.shape[1:], dtype=complex)
    rows, starts = np.unique(u, return_index=True)
    out[rows] = np.add.reduceat(terms, starts)
    return out


def _products(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """out[u, v] = X[u] @ Y[v], as one matmul."""
    return np.tensordot(X, Y, axes=(2, 1)).transpose(0, 2, 1, 3)


def _sq_nrm(X: np.ndarray, P: np.ndarray | None = None) -> np.ndarray:
    """Squared Frobenius norms of X (or P X P) over its last two axes, without a copy of X."""
    if P is not None:
        X = P @ X @ P
    return sum(np.einsum("...ab,...ab->...", Y, Y) for Y in (X.real, X.imag))


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
    _check_family(s, G)
    st = G.structure
    W = G.psi.comult_tensor
    S = s.images
    Ss = s.star_images(st)
    A = G.adjacency.matrix
    P = compression

    psi_t = _pair_sum(W, S, Ss)
    q1 = _pair_sum(W, psi_t, S)
    r1 = float(_nrm(q1 - S, P).max())

    lhs2 = _pair_sum(W, Ss, S)
    rhs2 = np.einsum("vu,vac->uac", A, psi_t, optimize=True)
    r2 = float(_nrm(lhs2 - rhs2, P).max())

    q3 = np.einsum("u,uac->ac", st.unit_vector, psi_t)
    r3 = float(_nrm(q3 - np.eye(s.k) / G.delta_sq, P))
    return {"qck1": r1, "qck2": r2, "qck3": r3}


def lqck_sq_norms(
    G: QuantumGraph, S: np.ndarray, SsS: np.ndarray, psiS: np.ndarray | None,
    psi_in: np.ndarray, pairs: tuple[np.ndarray, ...], compression: np.ndarray | None = None,
) -> tuple[np.ndarray | None, np.ndarray, float]:
    """Squared norms of the LQCK1-3 defects of images S[p]: V -> V', those of
    LQCK1-2 on the unit pairs (u, v, w) = pairs (index arrays of one shape,
    b_u b_v = b_w, or w = -1 where b_u b_v = 0) divided by the squared scale
    of the adapted pair (f_u, f_v).  The pair products are SsS = Ss[u] @ S[v],
    with Ss[p] = S[p*]^* mapping V' -> V, and psiS = psi_out[u] @ S[v], with
    psi_in and psi_out psi_t = sum W S Ss on V and on V'; LQCK1 is None
    without psiS.  Their m-terms are delta^-2 X[w], and 0 where w = -1.

    LQCK1: mu(mu x 1)(s x s* x s)(m* x 1) = delta^-2 s m
    LQCK2: mu(s* x s) = delta^-2 mu(s x s*)m*Am
    LQCK3: mu(s x s*)m*(1) = delta^-2 1
    """
    u, v, w = pairs
    P, m_scale = compression, (w >= 0)[..., None, None] / G.delta_sq  # delta^-2, or 0 where w = -1
    scale_sq = G.psi.weight_of_row * G.psi.gram_diag  # f_u = b_u / sqrt(scale_sq[u])
    pair_scale = scale_sq[u] * scale_sq[v]

    def defect(product, X):  # product - delta^-2 X[w], in the one new array X[w]
        diff = X[w]
        diff *= m_scale
        return np.subtract(product, diff, out=diff)

    n1 = None if psiS is None else _sq_nrm(defect(psiS, S), P) / pair_scale
    Y = np.tensordot(G.adjacency.matrix, psi_in, axes=(0, 0))  # Y[w] = sum_v' A[v', w] psi_in[v']
    n2 = _sq_nrm(defect(SsS, Y), P) / pair_scale

    q3 = np.einsum("u,uac->ac", G.structure.unit_vector, psi_in)
    n3 = float(_sq_nrm(q3 - np.eye(len(q3)) / G.delta_sq, P))
    return n1, n2, n3


def lqck_residuals(
    s: CKFamily, G: QuantumGraph, compression: np.ndarray | None = None
) -> dict[str, float]:
    """Residuals of the local relations LQCK1-3 (see `lqck_sq_norms`),
    maximized over all d^2 adapted-unit pairs: a general family need not
    vanish on the pairs with b_u b_v = 0."""
    _check_family(s, G)
    S, Ss = s.images, s.star_images(G.structure)
    psi_t = _pair_sum(G.psi.comult_tensor, S, Ss)
    mt = G.structure.mul_tensor
    u, v = np.indices(mt.shape[1:])  # every pair, as _products lays them out
    pairs = (u, v, np.where(mt.any(axis=0), mt.argmax(axis=0), -1))  # b_u b_v = b_w, or 0
    norms = lqck_sq_norms(G, S, _products(Ss, S), _products(psi_t, S), psi_t, pairs, compression)
    return {f"lqck{i}": float(np.sqrt(np.max(n))) for i, n in enumerate(norms, start=1)}


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
    _check_family(s, G)
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
