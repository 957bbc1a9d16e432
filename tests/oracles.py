"""Reference implementations shared by several test modules."""

from dataclasses import replace

import numpy as np

import qgraph as qg
from qgraph.correspondence import (
    TensorModule,
    _gram_quotient,
    _unit_orbit,
    algebra_module,
    from_spanning,
    psi_tensor_module,
    tensor_module,
    tensor_square_module,
)
from qgraph.relations import _pair_sum


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


def dense_edge_correspondence(G):
    """E_G as the Gram quotient of the orbit b_p . eps . b_q in B (x)_psi B."""
    eps = qg.edge_indicator(G).coeff.ravel()
    ambient = psi_tensor_module(G.psi)
    E = from_spanning(ambient, _unit_orbit(ambient, eps))
    return replace(E, generator=E.project(eps), graph=G)


def dense_fock(G, N):
    """The depth-N Fock truncation with every level a Gram quotient:
    B = A(B) / ker, E_G as above, and level l+1 the quotient of the dense
    tensor_module(E, level l), whose projection is the creation tensor."""
    E = dense_edge_correspondence(G)
    dim = G.structure.dim
    levels = [from_spanning(algebra_module(G.psi), np.eye(dim, dtype=complex)), E]
    for _ in range(2, N + 1):
        ambient = tensor_module(E, levels[-1])
        levels.append(from_spanning(ambient, np.eye(ambient.size, dtype=complex)))
    creation = [np.einsum("bp,pae->aeb", levels[0].basis_ambient, E.rmul)]
    for lower, upper in zip(levels[1:], levels[2:]):
        proj = upper.basis_ambient.conj() @ upper.ambient.scalar_gram
        creation.append(proj.reshape(upper.size, E.size, lower.size))
    return qg.FockTruncation(G, E, tuple(levels), tuple(creation))


def oracle_defect(D):
    """How far the bases of the truncation D are from scalar-orthonormal.

    The Gram quotient divides by the square roots of the kept Gram
    eigenvalues, so on skewed states the coordinates of `dense_fock` carry
    errors of about this size (up to 1e-10 on hypothesis states), while the
    normal form is exact to rounding; comparisons with it allow this much.
    """
    return max(np.linalg.norm(lvl.scalar_gram - np.eye(lvl.size)) for lvl in D.levels)


def cp_model_dim(G):
    """Dimension of B (x)_A B: the rank of its closed-form scalar Gram."""
    model = tensor_square_module(G.psi, G.adjacency.matrix).binner / G.delta_sq
    return len(_gram_quotient(model @ G.psi.psi_vec)[0])


def random_cp_map(psi, rng, kraus=2):
    """x -> block-diagonal part of sum_K K x K*: completely positive, and
    for random K not Schur-idempotent."""
    st = psi.structure
    n = sum(st.sizes)
    pos = np.cumsum((0,) + st.sizes)
    Ks = rng.normal(size=(kraus, n, n)) + 1j * rng.normal(size=(kraus, n, n))
    cols = []
    for p in range(st.dim):
        a, i, j = st.unflatten(p)
        X = np.zeros((n, n), dtype=complex)
        X[pos[a] + i, pos[a] + j] = 1.0
        Y = sum(K @ X @ K.conj().T for K in Ks)
        cols.append(np.concatenate([Y[lo:hi, lo:hi].ravel() for lo, hi in zip(pos, pos[1:])]))
    return qg.LinearMapOnB(st, np.column_stack(cols))


def choi_blocks(A):
    """The library's Choi slabs (`choi_slabs`) as one list in row-major (a, b) order."""
    d = A.structure.num_blocks
    out = [None] * (d * d)
    for pairs, H in A.choi_slabs:
        for (a, b), slab in zip(pairs, H, strict=True):
            out[a * d + b] = slab
    return out


def choi_blocks_oracle(A):
    """Choi slabs H[(i,r),(j,s)] = A(e_ij^(a))^(b)_rs entry by entry."""
    st = A.structure
    out = []
    for a, na in enumerate(st.sizes):
        for b, nb in enumerate(st.sizes):
            H = np.zeros((na * nb, na * nb), dtype=complex)
            for i in range(na):
                for j in range(na):
                    img = A.matrix[:, st.flat_index(a, i, j)]
                    for r in range(nb):
                        for s in range(nb):
                            H[i * nb + r, j * nb + s] = img[st.flat_index(b, r, s)]
            out.append(H)
    return out


def choi_test_oracle(A):
    """The Choi test one slab at a time: (flag, min eigenvalue), failing with
    -||H|| at the first slab in (a, b) order that is not finite or not Hermitian."""
    min_eig, max_eig = np.inf, 0.0
    for H in choi_blocks_oracle(A):
        herm_defect = np.linalg.norm(H - H.conj().T)
        if not np.isfinite(H).all() or herm_defect > 1e-8 * max(1.0, np.linalg.norm(H)):
            return False, -float(np.linalg.norm(H))
        evals = np.linalg.eigvalsh((H + H.conj().T) / 2)
        min_eig = min(min_eig, float(evals.min()))
        max_eig = max(max_eig, float(evals.max()))
    return bool(min_eig >= -qg.graphs.CHOI_EIG_RTOL * max(1.0, max_eig)), float(min_eig)


def close(got, want, rel=1e-12):
    return np.linalg.norm(np.asarray(got) - want) <= rel * np.linalg.norm(want)


def _procrustes(A, B):
    """The unitary U closest to U A = B (the polar factor of B A*), and the
    relative residual of that fit."""
    W, _, Vh = np.linalg.svd(B @ A.conj().T)
    U = W @ Vh
    return U, np.linalg.norm(U @ A - B) / max(np.linalg.norm(B), 1e-300)


def edge_unitary(E, ED):
    """The unitary carrying the eps orbit b_p . eps . b_q of the edge
    correspondence E onto that of ED, and the relative residual of the fit."""
    return _procrustes(_unit_orbit(E, E.generator).T, _unit_orbit(ED, ED.generator).T)


def orbit_unitaries(F, D):
    """The unitary change of coordinates U_l from the truncation F to the
    truncation D on every level, and the worst relative residual of the fits.

    U_1 carries the eps orbit b_p . eps . b_q of F.edge onto that of D.edge.
    U_0 and U_{l+1} then carry each creation tensor onto the other:
    D.creation[l] (U_1 (x) U_l) = U_{l+1} F.creation[l].  The creation maps
    fix them, since T(E) level 0 spans level 1 and every creation map is onto.
    """
    U1, worst = edge_unitary(F.edge, D.edge)
    # U_0: sum_f CD0[:, f, :] U1[f, e] U0 = U1 CF0[:, e, :] for every e
    lhs = np.einsum("afb,fe->eab", D.creation[0], U1).reshape(-1, D.level_dims[0])
    rhs = np.einsum("xa,aeb->exb", U1, F.creation[0]).reshape(-1, F.level_dims[0])
    U0h, res = _procrustes(lhs.conj().T, rhs.conj().T)
    unitaries, worst = [U0h.conj().T, U1], max(worst, res)
    for l in range(1, F.depth):
        CF = F.creation[l].reshape(F.level_dims[l + 1], -1)
        CD = D.creation[l].reshape(D.level_dims[l + 1], -1) @ np.kron(U1, unitaries[l])
        U, res = _procrustes(CF, CD)
        unitaries.append(U)
        worst = max(worst, res)
    return unitaries, worst


def carried(U, X):
    """lmul, rmul and binner of the correspondence X in the coordinates U x."""
    Uh = U.conj().T
    binner = np.einsum("ai,ijd,bj->abd", U, X.binner, U.conj(), optimize=True)
    return U @ X.lmul @ Uh, U @ X.rmul @ Uh, binner


def level_slice(F, l):
    """Coordinates of level l in the full truncation, levels stacked in order."""
    offsets = np.cumsum((0,) + F.level_dims)
    return slice(offsets[l], offsets[l + 1])


def big_creation(F, xi):
    """T(xi) on the full truncation; the top level is annihilated.

    Leading axes of xi are batch axes: xi of shape (..., dim E) gives
    (..., D, D).
    """
    xi = np.asarray(xi)
    D = F.total_dim
    out = np.zeros(xi.shape[:-1] + (D, D), dtype=complex)
    for l in range(F.depth):
        out[..., level_slice(F, l + 1), level_slice(F, l)] = np.einsum(
            "aeb,...e->...ab", F.creation[l], xi
        )
    return out


def unit_pi(F):
    """Diagonal left actions of the standard units b_p on the full truncation."""
    D = F.total_dim
    out = np.zeros((F.levels[0].lmul.shape[0], D, D), dtype=complex)
    for l in range(F.depth + 1):
        out[:, level_slice(F, l), level_slice(F, l)] = F.levels[l].lmul
    return out


def interior_projector(F):
    """Orthogonal projection of the full truncation onto levels 1..N-1."""
    diag = np.zeros(F.total_dim)
    diag[level_slice(F, 1).start : level_slice(F, F.depth).start] = 1.0
    return np.diag(diag)


def full_fock_family(F):
    """S(x) = (1/delta) T(x . eps) as one CKFamily on the full truncation."""
    E = F.edge
    images = big_creation(F, E.lmul @ E.generator) / np.sqrt(F.graph.delta_sq)
    return qg.CKFamily(F.total_dim, images)


def full_fock_residuals(F):
    """LQCK1-3 and Toeplitz-1/2 of the Fock family on the full truncation,
    compressed to levels 1..N-1 by the dense interior projector: every
    operator is a D x D matrix, D the total dimension."""
    G = F.graph
    fam = full_fock_family(F)
    P = interior_projector(F)
    report = qg.lqck_residuals(fam, G, compression=P)

    st = G.structure
    delta = np.sqrt(G.delta_sq)
    bigT = delta * fam.images
    bigTstar = delta * fam.star_images(st)
    pi = unit_pi(F)

    # mu(T* (x) T) = delta^-2 pi A m on basis pairs
    Am = np.einsum("vu,upq->vpq", G.adjacency.matrix, st.mul_tensor)
    diff1 = bigTstar[:, None] @ bigT[None] - np.einsum("vpq,vab->pqab", Am, pi) / G.delta_sq
    report["toeplitz1"] = float(np.linalg.norm(P @ diff1 @ P, axis=(2, 3)).max())

    # mu(T (x) T*) m* = psi_t, i.e. equals pi on levels >= 1
    diff2 = _pair_sum(G.psi.comult_tensor, bigT, bigTstar) - pi
    report["toeplitz2"] = float(np.linalg.norm(P @ diff2 @ P, axis=(1, 2)).max())
    return report


def orbit_gram(M, xi):
    """B-valued Gram of the unit orbit: <b_p.xi.b_q, b_r.xi.b_s>_B at [pq, rs]."""
    g = _unit_orbit(M, xi)
    return np.einsum("xi,yj,ijd->xyd", g.conj(), g, M.binner, optimize=True)


def cp_correspondence_oracle(E):
    """The isomorphism defect of B (x)_A B with E_G from the two (d^2, d^2, d)
    orbit Grams: delta^2 times the one of eps in E against the closed form
    b_q* A(b_p* b_r) b_s, worst entry, divided by delta^2."""
    G = E.graph
    diff = G.delta_sq * orbit_gram(E, E.generator)
    diff -= tensor_square_module(G.psi, G.adjacency.matrix).binner
    return float(np.abs(diff).max(initial=0.0)) / G.delta_sq


def recognize_iso_oracle(module, coords, E):
    """The recognition defect: worst entry of the difference of the orbit
    Grams of coords in `module` and of the generator of E."""
    diff = orbit_gram(module, coords) - orbit_gram(E, E.generator)
    return float(np.abs(diff).max(initial=0.0))
