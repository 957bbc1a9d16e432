"""Reference implementations shared by several test modules."""

import numpy as np

import qgraph as qg
from qgraph.correspondence import TensorModule


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


def ambient_action_stacks(M):
    """Whole-space matrices of the unit actions on an ambient module.

    A tensor module keeps its factor actions only; here they are expanded
    to the Kronecker products L_p (x) 1 and 1 (x) R_p.
    """
    if isinstance(M, TensorModule):
        eyeX = np.eye(M.x_lmul.shape[1])
        eyeY = np.eye(M.y_rmul.shape[1])
        lmul = np.array([np.kron(L, eyeY) for L in M.x_lmul])
        rmul = np.array([np.kron(eyeX, R) for R in M.y_rmul])
        return lmul, rmul
    return M.lmul, M.rmul


def quotient_actions_oracle(F):
    """Actions of the units on a quotient module and its closure residual,
    one unit at a time on the dense ambient actions.

    The closure residual is the scalar norm of b_p . v_i (and v_i . b_p)
    minus its projection onto the span, worst over units p and basis
    vectors v_i; it vanishes exactly when the span is a sub-bimodule.
    """
    S = F.ambient.scalar_gram
    basis = F.basis_ambient
    proj = basis.conj() @ S
    closure = 0.0
    actions = []
    for amb in ambient_action_stacks(F.ambient):
        mats = []
        for p in range(F.structure.dim):
            mats.append(proj @ amb[p] @ basis.T)
            diff = amb[p] @ basis.T - basis.T @ mats[-1]
            sq = np.real(np.sum(diff.conj() * (S @ diff), axis=0))
            closure = max(closure, float(np.sqrt(max(0.0, sq.max(initial=0.0)))))
        actions.append(np.array(mats))
    return actions[0], actions[1], closure
