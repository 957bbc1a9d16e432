"""Reference implementations shared by several test modules."""

import numpy as np

import qgraph as qg


def comultiply_adjoint_oracle(x, psi):
    """m*(x) computed numerically as the adjoint of m.

    Solves <m*(x), u (x) v> = <x, uv> for all basis pairs using the diagonal
    psi (x) psi Gram on B (x) B.
    """
    st = x.structure
    g = psi.gram_diag
    # rhs[p,q] = <x, b_p b_q>_psi; <x, y> = sum conj(x_u) g_u y_u
    rhs = np.einsum("u,upq->pq", x.vec.conj() * g, st.mul_tensor)
    coeff = (rhs / np.outer(g, g)).conj()
    return qg.TensorElement(st, coeff)


def rank_one_operator(E, u, w):
    """Matrix of theta_{u,w}: v -> u . <w, v>_B on module coordinates."""
    c = np.einsum("i,ibd->db", w.conj(), E.binner)  # <w, v_beta>_B coords
    ru = np.einsum("dab,b->da", E.rmul, u)  # u . b_d
    return np.einsum("db,da->ab", c, ru)
