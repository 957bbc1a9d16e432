"""Reference implementations shared by several test modules, and the library
functions that no command runs (the edge indicator as a tensor, the recognizer
of cyclic vectors, the GNS inner product and the modular group on elements,
a normal form's right action and inner product as per-coordinate tables, and
the Fock truncation's map from level 0), kept here for the tests that pin them."""

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

import qgraph as qg
from qgraph.correspondence import (
    GRAM_CUTOFF_RTOL,
    _gram_quotient,
    _layout,
    _same_base,
    from_spanning,
    psi_tensor_module,
)
from qgraph.errors import echo


def unflatten(st, p):
    """(a, i, j) of the coordinate p: b_p is e_ij of block a."""
    for a, n in enumerate(st.sizes):
        if p < st.offsets[a + 1]:
            q = p - st.offsets[a]
            return a, q // n, q % n
    raise qg.IndexOutOfRange(f"coordinate {p} out of range")


def mul_tensor(st):
    """Dense structure constants M[u,p,q] with b_p b_q = sum_u M[u,p,q] b_u,
    filled unit by unit."""
    d = st.dim
    M = np.zeros((d, d, d))
    for a, n in enumerate(st.sizes):
        for i in range(n):
            for j in range(n):
                p = st.flat_index(a, i, j)
                for s in range(n):
                    q = st.flat_index(a, j, s)
                    M[st.flat_index(a, i, s), p, q] = 1.0
    return M


def products_oracle(st, X, Y):
    """Coordinates of x y for stacks X, Y (..., dim), one matmul per block."""
    out = []
    for n, lo in zip(st.sizes, st.offsets):
        x, y = (Z[..., lo : lo + n * n].reshape(*Z.shape[:-1], n, n) for Z in (X, Y))
        xy = x @ y
        out.append(xy.reshape(*xy.shape[:-2], n * n))
    return np.concatenate(out, axis=-1)


class BlockElement:
    """An element of B as one complex matrix per block, its arithmetic done block
    by block: the reference for `AlgebraElement`, which stores coordinates."""

    def __init__(self, st, blocks):
        self.structure, self.blocks = st, [np.asarray(b, dtype=complex) for b in blocks]

    @classmethod
    def from_vector(cls, st, vec):
        return cls(st, [vec[lo : lo + n * n].reshape(n, n) for n, lo in zip(st.sizes, st.offsets)])

    @classmethod
    def zero(cls, st):
        return cls(st, [np.zeros((n, n)) for n in st.sizes])

    @classmethod
    def unit(cls, st):
        return cls(st, [np.eye(n) for n in st.sizes])

    @classmethod
    def standard_unit(cls, st, a, i, j):
        x = cls.zero(st)
        x.blocks[a][i, j] = 1.0
        return x

    @property
    def vec(self):
        return np.concatenate([b.ravel() for b in self.blocks])

    def __add__(self, other):
        return BlockElement(self.structure, [x + y for x, y in zip(self.blocks, other.blocks)])

    def __sub__(self, other):
        return BlockElement(self.structure, [x - y for x, y in zip(self.blocks, other.blocks)])

    def __mul__(self, other):
        if isinstance(other, BlockElement):
            return BlockElement(self.structure, [x @ y for x, y in zip(self.blocks, other.blocks)])
        return BlockElement(self.structure, [other * x for x in self.blocks])

    def __rmul__(self, scalar):
        return BlockElement(self.structure, [scalar * x for x in self.blocks])

    def __neg__(self):
        return BlockElement(self.structure, [-x for x in self.blocks])

    def star(self):
        return BlockElement(self.structure, [x.conj().T for x in self.blocks])


def delta_form_oracle(sizes, weights, tol=qg.DEFAULT_TOL):
    """Per-block arrays and delta^2 of a delta-form input, read and checked block
    by block, each check raising the library's error class and message."""
    if len(weights) != len(sizes):
        raise qg.ShapeMismatch("one weight list per block required")
    ws = []
    for n, w in zip(sizes, weights):
        arr = np.asarray(w, dtype=float)
        if arr.shape != (n,):
            raise qg.ShapeMismatch(f"weight list shape {echo(arr.shape)} != ({echo(n)},)")
        ws.append(arr)
    if not all((w > 0).all() for w in ws):
        raise qg.NonPositiveWeight("state weights must be strictly positive")
    total = sum(float(w.sum()) for w in ws)
    if abs(total - 1.0) > tol:
        raise qg.NotState(f"weights sum to {total}, expected 1")
    inv_sums = [float((1.0 / w).sum()) for w in ws]
    if any(abs(s - inv_sums[0]) > tol * max(1.0, inv_sums[0]) for s in inv_sums):
        raise qg.NotDeltaForm(f"per-block Tr(rho^-1) disagree: {echo(inv_sums)}")
    return ws, inv_sums[0]


def state_tables_oracle(ws):
    """The state's tables from its per-block weight arrays ws, one block at a time."""
    table = np.ones((len(ws), max(map(len, ws))))
    for a, w in enumerate(ws):
        table[a, : len(w)] = w
    return {
        "weight_table": table,
        "weight_of_row": np.concatenate([np.repeat(w, len(w)) for w in ws]),
        "gram_diag": np.concatenate([np.tile(w, len(w)) for w in ws]),
        "min_weight": np.array([w.min() for w in ws]),
        "psi_vec": np.concatenate([np.diag(w).ravel() for w in ws]),
    }


def basis_indices(st):
    """(a, i, j) of every coordinate p in order: b_p is e_ij of block a."""
    return [(a, i, j) for a, n in enumerate(st.sizes) for i in range(n) for j in range(n)]


def state_value(psi, x):
    """psi(x) = sum_a Tr(rho_a x_a) with diagonal rho_a."""
    if x.structure != psi.structure:
        raise qg.ShapeMismatch("element over a different block structure")
    return complex(np.dot(psi.psi_vec, x.vec))


def gns_inner(x, y, psi):
    """GNS inner product <x, y>_psi = psi(x* y), conjugate-linear in x."""
    if x.structure != y.structure or x.structure != psi.structure:
        raise qg.ShapeMismatch("mismatched operands")
    return complex(np.sum(x.vec.conj() * psi.gram_diag * y.vec))


def modular_power(x, psi, power):
    """rho^{-power} x rho^{power}: e_ij scaled by (w_j / w_i)^power = modular_half_scale^(2 power)."""
    if x.structure != psi.structure:
        raise qg.ShapeMismatch("element and state over different structures")
    return qg.AlgebraElement.from_vector(x.structure, x.vec * psi.modular_half_scale ** (2 * power))


def modular_half(x, psi):
    """sigma_{i/2}(x) = rho^{-1/2} x rho^{1/2}: scales e_ij by sqrt(w_j/w_i)."""
    return modular_power(x, psi, 0.5)


def adapted_unit(a, i, j, psi):
    """Adapted matrix unit f_ij = e_ij / sqrt(psi(e_ii) psi(e_jj))."""
    unit = qg.AlgebraElement.standard_unit(psi.structure, a, i, j)  # validates the indices
    return unit * (1.0 / np.sqrt(psi.weight_table[a, i] * psi.weight_table[a, j]))


def apply_map(A, x):
    """A(x) for a `LinearMapOnB` A and an element x."""
    if x.structure != A.structure:
        raise qg.ShapeMismatch("element over a different block structure")
    return qg.AlgebraElement.from_vector(A.structure, A.matrix @ x.vec)


def comult_tensor(psi):
    """W[u, p, q]: coefficient of b_p (x) b_q in m*(b_u).

    m*(e_ij) = sum_k psi(e_kk)^-1 e_ik (x) e_kj, and psi(e_kk) is the Gram
    weight of b_p = e_ik.
    """
    return mul_tensor(psi.structure) / psi.gram_diag[None, :, None]


def left_mult_matrix(st, vec):
    """Matrix of x -> (element with coords vec) * x on coordinates."""
    return np.einsum("upq,p->uq", mul_tensor(st), vec)


def right_mult_matrix(st, vec):
    """Matrix of x -> x * (element with coords vec) on coordinates."""
    return np.einsum("upq,q->up", mul_tensor(st), vec)


def left_mul(t, x):
    """x . (a (x) b) = (xa) (x) b extended linearly."""
    return qg.TensorElement(t.structure, left_mult_matrix(t.structure, x.vec) @ t.coeff)


def right_mul(t, y):
    """(a (x) b) . y = a (x) (by) extended linearly."""
    return qg.TensorElement(t.structure, t.coeff @ right_mult_matrix(t.structure, y.vec).T)


def multiply_down(t):
    """The multiplication map m: sum c_pq b_p b_q."""
    vec = np.einsum("upq,pq->u", mul_tensor(t.structure), t.coeff)
    return qg.AlgebraElement.from_vector(t.structure, vec)


def partial_psi_left(t, psi):
    """(psi (x) 1): slice off the first leg against the state."""
    return qg.AlgebraElement.from_vector(t.structure, psi.psi_vec @ t.coeff)


@dataclass(frozen=True)
class InnerModule:
    """Coordinate model of a B-bimodule with a dense B-valued semi-inner product.

    binner[a, b] are the canonical coordinates of <u_a, u_b>_B.  Subclasses
    say how the units act: left_units(V) and right_units(V) give b_p . v and
    v . b_p for every unit p and every column v of V, shape (dim, M, n).
    """

    structure: qg.BlockStructure
    psi: qg.DeltaState
    binner: np.ndarray  # (M, M, dim)

    @property
    def size(self):
        return self.binner.shape[0]

    @cached_property
    def scalar_gram(self):
        """Scalar form psi(<u_a, u_b>_B) on the coordinate spanning set."""
        return self.binner @ self.psi.psi_vec

    def b_inner_coords(self, xi, eta):
        """Canonical coordinates of <xi, eta>_B; leading axes of eta are batch axes."""
        return np.einsum("a,...b,abd->...d", xi.conj(), eta, self.binner, optimize=True)


@dataclass(frozen=True)
class ModuleSpace(InnerModule):
    """Module whose unit actions are stored whole: lmul[p] and rmul[p] are the
    matrices of the unit b_p acting on the left and right."""

    lmul: np.ndarray  # (dim, M, M)
    rmul: np.ndarray  # (dim, M, M)

    def left_units(self, V):
        return self.lmul @ V

    def right_units(self, V):
        return self.rmul @ V


@dataclass(frozen=True)
class TensorModule(InnerModule):
    """X (x) Y before the balanced quotient; coordinate (i, k) is i * dim Y + k.

    B acts on the left through X's left action x_lmul and on the right
    through Y's right action y_rmul, one tensor factor at a time.
    """

    x_lmul: np.ndarray  # (dim, dim X, dim X)
    y_rmul: np.ndarray  # (dim, dim Y, dim Y)

    def left_units(self, V):
        d, nX = self.x_lmul.shape[:2]
        return (self.x_lmul @ V.reshape(nX, -1)).reshape(d, self.size, -1)

    def right_units(self, V):
        d, nY = self.y_rmul.shape[:2]
        out = self.y_rmul[:, None] @ V.reshape(-1, nY, V.shape[1])  # (dim, dim X, nY, n)
        return out.reshape(d, self.size, -1)


@dataclass(frozen=True)
class QuotientModule(ModuleSpace):
    """A Gram quotient, with its basis vectors in ambient coordinates; E_G
    also records its generator and graph, as `qg.Correspondence` does."""

    ambient: InnerModule
    basis_ambient: np.ndarray  # (n, M)
    generator: np.ndarray | None = None
    graph: qg.QuantumGraph | None = None

    def project(self, ambient_vec):
        """Quotient coordinates of an ambient vector (scalar-orthogonal projection)."""
        return self.basis_ambient.conj() @ (self.ambient.scalar_gram @ ambient_vec)


def right_table(M):
    """The right action of the normal form M as nonzeros (p, row, col, value):
    u_col . b_p = value u_row, the pairs (p, row) distinct.  The unit e_lt of
    block c moves the last index l of the coordinates (a, c, i, k, l) to t,
    times sqrt(w_c[t] / w_c[l])."""
    _, c, _, _, l, _ = M.layout
    n, off = np.array(M.structure.sizes), np.array(M.structure.offsets)
    x, t = np.nonzero(np.arange(n.max()) < n[c][:, None])
    p = off[c[x]] + l[x] * n[c[x]] + t  # e_lt in block c
    return p, x + t - l[x], x, M.psi.modular_half_scale[p]


def inner_table(M):
    """The B-valued inner product of the normal form M as nonzeros (x, y, p,
    value): <u_x, u_y>_B has coordinate value at b_p, the pairs (x, y)
    distinct; it sits at b_p where u_x . b_p involves u_y."""
    p, y, x, _ = right_table(M)
    return x, y, p, 1.0 / np.sqrt(M.psi.gram_diag[p] * M.psi.weight_of_row[p])


def level_one_creation(F):
    """The canonical map from E (x)_B B onto level 1 = E of the truncation F, as
    nonzeros (z, e, y, value), off E's right action: T(u_e) maps b_y / sqrt(g_y)
    to value u_z."""
    p, row, col, _ = right_table(F.edge)
    return row, col, p, 1.0 / np.sqrt(F.edge.psi.weight_of_row[p])


def right_units(M, V):
    """v . b_p for every unit p and column v of V, shape (dim, size, n): the
    dense module's own, or gathered from a normal form's right-action nonzeros."""
    if not isinstance(M, qg.Correspondence):
        return M.right_units(V)
    p, row, col, value = right_table(M)
    out = np.zeros((M.structure.dim, M.size, V.shape[1]), dtype=complex)
    out[p, row] = value[:, None] * V[col]
    return out


def b_inner_coords(M, xi, eta):
    """Canonical coordinates of <xi, eta>_B in the module M, leading axes of eta
    batch axes: the dense module's own, or scatter-added from a normal form's
    inner-product nonzeros."""
    if not isinstance(M, qg.Correspondence):
        return M.b_inner_coords(xi, eta)
    x, y, p, value = inner_table(M)
    out = np.zeros((M.structure.dim,) + np.shape(eta)[:-1], dtype=complex)
    np.add.at(out, p, np.moveaxis((xi.conj()[x] * value) * eta[..., y], -1, 0))
    return np.moveaxis(out, 0, -1)


@dataclass(frozen=True)
class CorrVector:
    """Vector in a correspondence, given by coefficients over its basis."""

    module: qg.Correspondence
    coords: np.ndarray

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=complex)
        if coords.shape != (self.module.size,):
            raise qg.ShapeMismatch(f"coordinate vector has shape {coords.shape}")
        object.__setattr__(self, "coords", coords)


def b_inner(xi, eta, E):
    """B-valued inner product <xi, eta>_B of two vectors of E."""
    if xi.module is not E or eta.module is not E:
        raise qg.MismatchedBase("vectors of a different correspondence")
    return qg.AlgebraElement.from_vector(E.structure, b_inner_coords(E, xi.coords, eta.coords))


def psi_tensor_coords(psi, coeff):
    """`psi_tensor_module` coordinates of sum_pq coeff[p, q] b_p (x) b_q."""
    st = psi.structure
    n, off = np.array(st.sizes), np.array(st.offsets)
    a, c, i, jk, l, _ = _layout(st, np.outer(n, n))
    j, k = np.divmod(jk, n[c])
    p, q = off[a] + i * n[a] + j, off[c] + k * n[c] + l
    return coeff[p, q] * np.sqrt(psi.gram_diag[p] * psi.gram_diag[q])


def unit_orbit(M, xi):
    """Rows b_p . xi . b_q of the module M, row index p * dim B + q."""
    right = right_units(M, xi[:, None])[:, :, 0]  # row q is xi . b_q
    return M.left_units(right.T).transpose(0, 2, 1).reshape(M.structure.dim**2, M.size)


def orbit_span_rank(M, xi):
    """Dimension of B . xi . B in the normal form M: the rank of the whole unit
    orbit, its singular values cut at GRAM_CUTOFF_RTOL times the largest.  They
    are linear in xi; the eigenvalues of the orbit's Gram, which `from_spanning`
    cuts, are their squares and lose directions below about 1e-5 of the largest.

    Row b_p . xi . b_q is divided by the factor sqrt(w_c[t] / w_c[l]) with
    which b_q = e_lt of block c acts on the right.  That leaves the span as
    it is, and the rows of each block pair become copies of xi's own rows
    there, so the one relative cut judges xi and not the state's skew: on
    skewed states the weights alone pushed genuine rows under it."""
    undo = np.sqrt(M.psi.weight_of_row / M.psi.gram_diag)  # indexed by q, rows are p * dim + q
    rows = unit_orbit(M, xi) * np.tile(undo, M.structure.dim)[:, None]
    svals = np.linalg.svd(rows, compute_uv=False)
    return int(np.count_nonzero(svals > GRAM_CUTOFF_RTOL * max(svals.max(initial=0.0), 1e-300)))


def quotient(ambient, spanning):
    """The span of `spanning` modulo the scalar Gram kernel, on the library's
    scalar-orthonormal basis (`from_spanning`).  The unit actions are the
    ambient's, applied to the basis and projected back onto it."""
    S = ambient.scalar_gram
    basis = from_spanning(S, spanning)  # (n, M)
    half = np.tensordot(basis.conj(), ambient.binner, axes=(1, 0))  # (n, M, dim)
    binner = np.tensordot(half, basis, axes=([1], [1])).transpose(0, 2, 1)
    proj = basis.conj() @ S  # (n, M): scalar projection onto the basis
    lmul, rmul = proj @ ambient.left_units(basis.T), proj @ right_units(ambient, basis.T)
    return QuotientModule(ambient.structure, ambient.psi, binner, lmul, rmul, ambient, basis)


def algebra_module(psi):
    """B as a correspondence over itself: <x, y>_B = x* y, regular actions."""
    st = psi.structure
    mt = mul_tensor(st)
    binner = mt[:, st.star_perm, :].transpose(1, 2, 0).astype(complex)
    lmul = mt.transpose(1, 0, 2).astype(complex)  # lmul[p] = mt[:, p, :]
    rmul = mt.transpose(2, 0, 1).astype(complex)  # rmul[p] = mt[:, :, p]
    return ModuleSpace(st, psi, binner, lmul, rmul)


def tensor_module(X, Y):
    """X (x) Y with <x1 (x) y1, x2 (x) y2>_B = <y1, <x1, x2>_B . y2>_B; its
    Gram quotient is the interior tensor product X (x)_B Y."""
    _same_base(X.psi, Y.psi)
    n = X.size * Y.size
    binner = np.einsum("ijp,pml,kmd->ikjld", X.binner, Y.lmul, Y.binner, optimize=True)
    return TensorModule(X.structure, X.psi, binner.reshape(n, n, -1), X.lmul, Y.rmul)


def tensor_square_module(psi, phi_matrix):
    """B (x) B with <a (x) b, c (x) d>_B = b* Phi(a* c) d for a linear Phi:
    the tensor module of B with <a, c> = Phi(a* c) and B."""
    B = algebra_module(psi)
    X = replace(B, binner=B.binner @ np.asarray(phi_matrix, dtype=complex).T)
    return tensor_module(X, B)


def comultiply_adjoint_oracle(x, psi):
    """m*(x) computed numerically as the adjoint of m.

    Solves <m*(x), u (x) v> = <x, uv> for all basis pairs using the diagonal
    psi (x) psi Gram on B (x) B.
    """
    st = x.structure
    g = psi.gram_diag
    # rhs[p,q] = <x, b_p b_q>_psi; <x, y> = sum conj(x_u) g_u y_u
    rhs = np.einsum("u,upq->pq", x.vec.conj() * g, mul_tensor(st))
    coeff = (rhs / np.outer(g, g)).conj()
    return qg.TensorElement(st, coeff)


def dense_actions(M):
    """lmul, rmul and binner of the module M as dense stacks.

    A normal-form correspondence stores only the nonzeros of its unit
    actions and inner product; here they are summed into dense arrays entry
    by entry.  A dense module gives its actions applied to the identity.
    """
    if not isinstance(M, qg.Correspondence):
        eye = np.eye(M.size, dtype=complex)
        return M.left_units(eye), right_units(M, eye), M.binner
    dim, n = M.structure.dim, M.size
    lmul, rmul = np.zeros((2, dim, n, n), dtype=complex)
    binner = np.zeros((n, n, dim), dtype=complex)
    p, row, col = M.left
    np.add.at(lmul, (p, row, col), 1.0)
    p, row, col, value = right_table(M)
    np.add.at(rmul, (p, row, col), value)
    x, y, p, value = inner_table(M)
    np.add.at(binner, (x, y, p), value)
    return lmul, rmul, binner


def left_act(M, x, xi):
    """x . xi for an algebra element x and module coordinates xi."""
    return np.einsum("p,pab,b->a", x.vec, dense_actions(M)[0], xi)


def right_act(M, xi, x):
    """xi . x for module coordinates xi and an algebra element x."""
    return np.einsum("p,pab,b->a", x.vec, dense_actions(M)[1], xi)


@dataclass(frozen=True)
class BuiltFock:
    """A Fock truncation with every level built: levels[l] is a module and
    creation[l] the map from E (x)_B level l onto level l+1, as the nonzeros
    (z, e, y, value) of a normal form or as a dense (dim l+1, dim E, dim l)
    tensor."""

    graph: qg.QuantumGraph
    edge: object
    levels: tuple
    creation: tuple

    @property
    def level_dims(self):
        return tuple(level.size for level in self.levels)

    @property
    def depth(self):
        return len(self.levels) - 1

    @property
    def total_dim(self):
        return sum(self.level_dims)


def built_fock(F):
    """The levels of the truncation F built as normal forms, level l+1 =
    `interior_tensor(E, level l)`.  The map from level 0 is
    `level_one_creation(F)`; the others are the built canonical maps."""
    if isinstance(F, BuiltFock):
        return F
    levels = [qg.trivial_correspondence(F.graph.psi)]
    for _ in range(F.depth):
        levels.append(qg.interior_tensor(F.edge, levels[-1]))
    creation = (level_one_creation(F),) + tuple(level.creation for level in levels[2:])
    return BuiltFock(F.graph, F.edge, tuple(levels), creation)


def pi_level(F, l, x):
    """Matrix of the left action of x on level l of the built truncation F."""
    return np.einsum("p,pab->ab", x.vec, dense_actions(F.levels[l])[0])


def dense_creation(F, l):
    """Creation map l of the built truncation F as a dense (dim level l+1,
    dim E, dim level l) tensor: the oracle's own, or the normal form's
    nonzeros (z, e, y, value) summed entry by entry."""
    if not isinstance(F.creation[l], tuple):
        return F.creation[l]
    out = np.zeros((F.level_dims[l + 1], F.edge.size, F.level_dims[l]), dtype=complex)
    z, e, y, value = F.creation[l]
    np.add.at(out, (z, e, y), value)
    return out


def dense_inner_defect(F):
    """T(xi)*T(eta) = pi(<xi,eta>_B) on levels 0..N-1 with dense operators:
    each level's (dim l+1, dim E * dim l) creation matrix, its Gram, and the
    dense left action of the level; the largest Frobenius norm of
    T(u_x)*T(u_y) - pi(<u_x,u_y>_B) over basis pairs and levels."""
    F = built_fock(F)
    E = F.edge
    binner = dense_actions(E)[2]
    worst = 0.0
    for l in range(F.depth):
        n = F.level_dims[l]
        C = dense_creation(F, l).reshape(F.level_dims[l + 1], E.size * n)
        gram = (C.conj().T @ C).reshape(E.size, n, E.size, n).transpose(0, 2, 1, 3)
        diff = gram - np.einsum("xyp,pab->xyab", binner, dense_actions(F.levels[l])[0])
        worst = max(worst, float(np.linalg.norm(diff, axis=(2, 3)).max()))
    return worst


def creation_matrix(F, l, xi):
    """Matrix of T(xi) from level l to level l+1 of the truncation F."""
    return np.einsum("aeb,e->ab", dense_creation(F, l), xi)


def rank_one_operator(E, u, w):
    """Matrix of theta_{u,w}: v -> u . <w, v>_B on module coordinates."""
    _, rmul, binner = dense_actions(E)
    c = np.einsum("i,ibd->db", w.conj(), binner)  # <w, v_beta>_B coords
    ru = np.einsum("dab,b->da", rmul, u)  # u . b_d
    return np.einsum("db,da->ab", c, ru)


def compact_decomposition_oracle(E):
    """Worst spectral norm of f_ij - sum_k theta_{f_ik.eps, f_jk.eps}, unit by unit."""
    psi = E.graph.psi
    lmul = dense_actions(E)[0]
    worst = 0.0
    for a, n in enumerate(psi.structure.sizes):
        vec = {
            (i, k): left_act(E, adapted_unit(a, i, k, psi), E.generator)
            for i in range(n)
            for k in range(n)
        }
        for i in range(n):
            for j in range(n):
                lhs = np.einsum("p,pab->ab", adapted_unit(a, i, j, psi).vec, lmul)
                rhs = sum(rank_one_operator(E, vec[i, k], vec[j, k]) for k in range(n))
                worst = max(worst, float(np.linalg.norm(lhs - rhs, 2)))
    return worst


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
    for amb in dense_actions(F.ambient)[:2]:
        mats = []
        for p in range(F.structure.dim):
            mats.append(proj @ amb[p] @ basis.T)
            diff = amb[p] @ basis.T - basis.T @ mats[-1]
            sq = np.real(np.sum(diff.conj() * (S @ diff), axis=0))
            closure = max(closure, float(np.sqrt(max(0.0, sq.max(initial=0.0)))))
        actions.append(np.array(mats))
    return actions[0], actions[1], closure


def dense_edge_correspondence(G):
    """E_G as the Gram quotient of the orbit b_p . eps . b_q in B (x)_psi B,
    Phi = psi(.) 1, whose coordinate (p, q) is b_p (x) b_q."""
    eps = edge_indicator(G).coeff.ravel()
    ambient = tensor_square_module(G.psi, np.outer(G.structure.unit_vector, G.psi.psi_vec))
    E = quotient(ambient, unit_orbit(ambient, eps))
    return replace(E, generator=E.project(eps), graph=G)


def dense_fock(G, N):
    """The depth-N Fock truncation with every level a Gram quotient:
    B = A(B) / ker, E_G as above, and level l+1 the quotient of the dense
    tensor_module(E, level l), whose projection is the creation tensor."""
    E = dense_edge_correspondence(G)
    dim = G.structure.dim
    levels = [quotient(algebra_module(G.psi), np.eye(dim, dtype=complex)), E]
    for _ in range(2, N + 1):
        ambient = tensor_module(E, levels[-1])
        levels.append(quotient(ambient, np.eye(ambient.size, dtype=complex)))
    creation = [np.einsum("bp,pae->aeb", levels[0].basis_ambient, E.rmul)]
    for lower, upper in zip(levels[1:], levels[2:]):
        proj = upper.basis_ambient.conj() @ upper.ambient.scalar_gram
        creation.append(proj.reshape(upper.size, E.size, lower.size))
    return BuiltFock(G, E, tuple(levels), tuple(creation))


def oracle_defect(D):
    """How far the bases of the truncation D are from scalar-orthonormal.

    The Gram quotient divides by the square roots of the kept Gram
    eigenvalues, so on skewed states the coordinates of `dense_fock` carry
    errors of about this size (up to 1e-10 on hypothesis states), while the
    normal form is exact to rounding; comparisons with it allow this much.
    """
    return max(np.linalg.norm(lvl.scalar_gram - np.eye(lvl.size)) for lvl in D.levels)


def gns_projector(vectors, gram):
    """GNS-orthogonal projector onto the span of the rows of `vectors`."""
    weighted = np.diag(gram)
    lam, U = _gram_quotient(vectors.conj() @ weighted @ vectors.T)
    V = (U / np.sqrt(lam)).T @ vectors
    return V.T @ V.conj() @ weighted


def left_kernel_oracle(M, G, basis):
    """Dimension of the left-action kernel of the module M over the graph G,
    from the SVD of the whole dense K = lmul.reshape(dim, -1).T, zero rows
    included, and the distance of its GNS projector from that of the rows of
    `basis` (the library's `kernel_basis`)."""
    dim = G.structure.dim
    K = dense_actions(M)[0].reshape(dim, -1).T
    kernel = np.eye(dim)
    if K.shape[0]:
        _, svals, vh = np.linalg.svd(np.linalg.qr(K, mode="r"))
        null_dim = int(np.sum(svals <= qg.DEFAULT_TOL * max(float(svals.max()), 1.0))) + dim - len(svals)
        kernel = vh.conj()[dim - null_dim :]
    g = G.psi.gram_diag
    return len(kernel), float(np.linalg.norm(gns_projector(kernel, g) - gns_projector(basis, g)))


def cp_model_dim(G):
    """Dimension of B (x)_A B: the rank of its closed-form scalar Gram."""
    model = tensor_square_module(G.psi, G.adjacency.matrix).binner / G.delta_sq
    return len(_gram_quotient(model @ G.psi.psi_vec)[0])


def indicator_shift_table(G):
    """[s, q] = ||row s of X_q||^2, X_q = b_q . eps - eps . A(b_q), from the edge
    indicator itself: row s of X_q is -eps[s] A(b_q), except row u, which is
    eps[r] - eps[u] A(b_q) where b_q b_r = b_u.  `homomorphism_check` reads the
    same table off A's multiplicativity table through the star permutation."""
    st, images = G.structure, G.adjacency.matrix.T
    eps = edge_indicator(G).coeff
    u, q, r = st.mul_nonzeros
    return qg.blocks.pair_defects(st, eps, images, eps, u, q, r)


def indicator_properties_oracle(G):
    """r2 and r3 of `indicator_properties` on the dense (d, d) edge indicator eps:
    r2 = ||eps # eps - eps|| through `sharp`, and r3 the self-adjointness defect
    of (sigma_{i/2} x 1)(eps), eps's rows scaled by `modular_half_scale`, through
    `dagger`; the library reads both off A's Choi slabs.  r1 is the round trip,
    the worst column of A - A_eps with A_eps(x) = delta^2 (psi x 1)(x . eps), which
    holds for every linear map and which the library does not read."""
    psi, eps = G.psi, edge_indicator(G)
    diff = G.adjacency.matrix - indicator_adjacency(eps.coeff, psi)
    twisted = qg.TensorElement(G.structure, psi.modular_half_scale[:, None] * eps.coeff)
    return {
        "r1": float(np.linalg.norm(diff, axis=0).max()),
        "r2": (qg.sharp(eps, eps) - eps).norm(),
        "r3": (twisted - twisted.dagger()).norm(),
    }


def edge_indicator(G):
    """Quantum edge indicator eps = delta^-2 (1 x A) m*(1) of G.  m*(1) =
    sum_k w_k^-1 e_ik (x) e_ki is the flip b_p (x) b_p* scaled by
    1 / gram_diag[p], so row p of eps gathers row star_perm[p] of A^T."""
    coeff = G.adjacency.matrix.T[G.structure.star_perm] * (1.0 / G.psi.gram_diag)[:, None]
    coeff *= 1.0 / G.delta_sq
    return qg.TensorElement(G.structure, coeff)


def indicator_adjacency(xi, psi):
    """Matrix of A_xi(x) = delta^2 (psi x 1)(x . xi) for coefficients xi.

    Column p is delta^2 sum_q psi(b_p b_q) xi[q, :], and psi(b_p b_q) is a scaled
    flip as m*(1) is: w_i at q = star_perm[p] for b_p = e_ik, else 0.
    """
    return psi.delta_sq * (psi.weight_of_row[:, None] * xi[psi.structure.star_perm]).T


def adjacency_from_indicator(xi, psi, tol=qg.DEFAULT_TOL):
    """Recover A_xi(x) = delta^2 (psi x 1)(x . xi) from a candidate indicator.

    Requires xi # xi = xi and modular self-adjointness; the result is then a
    completely positive quantum adjacency matrix and the indicator round
    trips.  Both are r2 and r3 of `indicator_properties` on A_xi, as xi -> A_xi inverts A -> eps(A).
    """
    st = psi.structure
    if xi.structure != st:
        raise qg.ShapeMismatch("tensor over a different block structure")
    A = qg.LinearMapOnB(st, indicator_adjacency(xi.coeff, psi))
    props, bound = qg.indicator_properties(qg.QuantumGraph(st, psi, A)), tol * max(1.0, xi.norm())
    if not props["r2"] <= bound:  # a NaN defect fails too
        raise qg.NotIdempotent(f"xi # xi - xi has norm {props['r2']:.3e}")
    if not props["r3"] <= bound:
        raise qg.NotModularSelfAdjoint(f"modular self-adjointness defect {props['r3']:.3e}")
    return A


def random_cp_map(psi, rng, kraus=2, sources=(), sinks=()):
    """x -> block-diagonal part of sum_K K x K*: completely positive, and
    for random K not Schur-idempotent.  The Kraus operators are zeroed on
    the columns of the blocks in `sources` and the rows of those in `sinks`,
    so A vanishes on the first and never reaches the second."""
    st = psi.structure
    n = sum(st.sizes)
    pos = np.cumsum((0,) + st.sizes)
    Ks = rng.normal(size=(kraus, n, n)) + 1j * rng.normal(size=(kraus, n, n))
    for a in sources:
        Ks[:, :, pos[a] : pos[a + 1]] = 0.0
    for b in sinks:
        Ks[:, pos[b] : pos[b + 1], :] = 0.0
    cols = []
    for p in range(st.dim):
        a, i, j = unflatten(st, p)
        X = np.zeros((n, n), dtype=complex)
        X[pos[a] + i, pos[a] + j] = 1.0
        Y = sum(K @ X @ K.conj().T for K in Ks)
        cols.append(np.concatenate([Y[lo:hi, lo:hi].ravel() for lo, hi in zip(pos, pos[1:])]))
    return qg.LinearMapOnB(st, np.column_stack(cols))


def zero_block_pairs(A, rng, p=0.4):
    """A with each block pair (a, b), the part of A from block a into block b,
    zeroed with probability p.  Each Choi slab is its own pair's, so a
    completely positive A stays completely positive."""
    st, mat = A.structure, A.matrix.copy()
    off = st.offsets
    for a in range(st.num_blocks):
        for b in range(st.num_blocks):
            if rng.random() < p:
                mat[off[b] : off[b + 1], off[a] : off[a + 1]] = 0
    return qg.LinearMapOnB(st, mat)


def subtract_kraus_direction(A, t):
    """A minus a rank-one Choi direction: the least eigenvector v of the Choi slab
    with the least eigenvalue lam_min moves to the eigenvalue -t lam_max, lam_max the
    largest eigenvalue of all slabs, by subtracting (lam_min + t lam_max) v v* there."""
    st, mat, off = A.structure, A.matrix.copy(), A.structure.offsets
    spectra = [np.linalg.eigh(H) for H in choi_blocks_oracle(A)]
    top = max(lam[-1] for lam, _ in spectra)
    k = min(range(len(spectra)), key=lambda k: spectra[k][0][0])
    (a, b), (lam, V) = divmod(k, st.num_blocks), spectra[k]
    na, nb = st.sizes[a], st.sizes[b]
    dH = (lam[0] + t * top) * np.outer(V[:, 0], V[:, 0].conj())  # rows (i, r), columns (j, s)
    mat[off[b] : off[b + 1], off[a] : off[a + 1]] -= dH.reshape(na, nb, na, nb).transpose(1, 3, 0, 2).reshape(nb * nb, na * na)
    return qg.LinearMapOnB(st, mat)


def choi_blocks(A):
    """The library's Choi slabs (`choi_slabs`) as one list in row-major (a, b)
    order, with a zero slab for each pair that `choi_slabs` leaves out."""
    st = A.structure
    d = st.num_blocks
    out = [np.zeros((st.sizes[a] * st.sizes[b],) * 2, dtype=complex) for a in range(d) for b in range(d)]
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
    -||H|| at the first slab in (a, b) order that is not finite or whose
    ||H - H*|| exceeds 1e-8 times the largest norm of the finite slabs, and
    passing when no eigenvalue is below minus its own cut, GRAM_CUTOFF_RTOL
    times the largest eigenvalue of all slabs, floored at 1e-300."""
    min_eig, max_eig, slabs = np.inf, 1e-300, choi_blocks_oracle(A)
    scale = max(float(np.linalg.norm(H)) if np.isfinite(H).all() else 0.0 for H in slabs)
    for H in slabs:
        herm_defect = np.linalg.norm(H - H.conj().T)
        if not np.isfinite(H).all() or not herm_defect <= 1e-8 * scale:
            return False, -float(np.linalg.norm(H))
        evals = np.linalg.eigvalsh((H + H.conj().T) / 2)
        min_eig = min(min_eig, float(evals.min()))
        max_eig = max(max_eig, float(evals.max()))
    return bool(min_eig >= -GRAM_CUTOFF_RTOL * max_eig), float(min_eig)


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
    return _procrustes(unit_orbit(E, E.generator).T, unit_orbit(ED, ED.generator).T)


def orbit_unitaries(F, D):
    """The unitary change of coordinates U_l from the truncation F to the
    truncation D on every level, and the worst relative residual of the fits.

    U_1 carries the eps orbit b_p . eps . b_q of F.edge onto that of D.edge.
    U_0 and U_{l+1} then carry each creation tensor onto the other:
    D.creation[l] (U_1 (x) U_l) = U_{l+1} F.creation[l].  The creation maps
    fix them, since T(E) level 0 spans level 1 and every creation map is onto.
    """
    F = built_fock(F)
    U1, worst = edge_unitary(F.edge, D.edge)
    # U_0: sum_f CD0[:, f, :] U1[f, e] U0 = U1 CF0[:, e, :] for every e
    lhs = np.einsum("afb,fe->eab", D.creation[0], U1).reshape(-1, D.level_dims[0])
    rhs = np.einsum("xa,aeb->exb", U1, dense_creation(F, 0)).reshape(-1, F.level_dims[0])
    U0h, res = _procrustes(lhs.conj().T, rhs.conj().T)
    unitaries, worst = [U0h.conj().T, U1], max(worst, res)
    for l in range(1, F.depth):
        CF = dense_creation(F, l).reshape(F.level_dims[l + 1], -1)
        CD = D.creation[l].reshape(D.level_dims[l + 1], -1) @ np.kron(U1, unitaries[l])
        U, res = _procrustes(CF, CD)
        unitaries.append(U)
        worst = max(worst, res)
    return unitaries, worst


def carried(U, X):
    """lmul, rmul and binner of the correspondence X in the coordinates U x."""
    Uh = U.conj().T
    lmul, rmul, binner = dense_actions(X)
    binner = np.einsum("ai,ijd,bj->abd", U, binner, U.conj(), optimize=True)
    return U @ lmul @ Uh, U @ rmul @ Uh, binner


def level_slice(F, l):
    """Coordinates of level l in the full truncation, levels stacked in order."""
    offsets = np.cumsum((0,) + F.level_dims)
    return slice(offsets[l], offsets[l + 1])


def big_creation(F, xi):
    """T(xi) on the full truncation; the top level is annihilated.

    Leading axes of xi are batch axes: xi of shape (..., dim E) gives
    (..., D, D).
    """
    F, xi = built_fock(F), np.asarray(xi)
    D = F.total_dim
    out = np.zeros(xi.shape[:-1] + (D, D), dtype=complex)
    for l in range(F.depth):
        out[..., level_slice(F, l + 1), level_slice(F, l)] = np.einsum(
            "aeb,...e->...ab", dense_creation(F, l), xi
        )
    return out


def unit_pi(F):
    """Diagonal left actions of the standard units b_p on the full truncation."""
    F = built_fock(F)
    D = F.total_dim
    out = np.zeros((F.graph.structure.dim, D, D), dtype=complex)
    for l in range(F.depth + 1):
        out[:, level_slice(F, l), level_slice(F, l)] = dense_actions(F.levels[l])[0]
    return out


def interior_projector(F):
    """Orthogonal projection of the full truncation onto levels 1..N-1."""
    diag = np.zeros(F.total_dim)
    diag[level_slice(F, 1).start : level_slice(F, F.depth).start] = 1.0
    return np.diag(diag)


def full_fock_family(F):
    """S(x) = (1/delta) T(x . eps) as one CKFamily on the full truncation."""
    E = F.edge
    images = big_creation(F, dense_actions(E)[0] @ E.generator) / np.sqrt(F.graph.delta_sq)
    return qg.CKFamily(F.total_dim, images)


def full_fock_residuals(F):
    """LQCK1-3 and Toeplitz-1/2 of the Fock family on the full truncation,
    compressed to levels 1..N-1 by the dense interior projector: every
    operator is a D x D matrix, D the total dimension."""
    F = built_fock(F)
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
    Am = np.einsum("vu,upq->vpq", G.adjacency.matrix, mul_tensor(st))
    diff1 = bigTstar[:, None] @ bigT[None] - np.einsum("vpq,vab->pqab", Am, pi) / G.delta_sq
    report["toeplitz1"] = float(np.linalg.norm(P @ diff1 @ P, axis=(2, 3)).max())

    # mu(T (x) T*) m* = psi_t, i.e. equals pi on levels >= 1
    W = comult_tensor(G.psi)
    diff2 = -pi
    for u, p, q in zip(*np.nonzero(W)):
        diff2[u] += W[u, p, q] * bigT[p] @ bigTstar[q]
    report["toeplitz2"] = float(np.linalg.norm(P @ diff2 @ P, axis=(1, 2)).max())
    return report


def orbit_gram(M, xi):
    """B-valued Gram of the unit orbit: <b_p.xi.b_q, b_r.xi.b_s>_B at [pq, rs]."""
    g = unit_orbit(M, xi)
    return np.einsum("xi,yj,ijd->xyd", g.conj(), g, dense_actions(M)[2], optimize=True)


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


def _vector_map(M):
    """Matrix of x -> <xi, x . xi>_B for the generator xi of M, column p <xi, b_p . xi>_B.
    It decides the orbit Gram: <b_p.xi.b_q, b_r.xi.b_s>_B = b_q* <xi, b_p* b_r . xi>_B b_s.
    Block b of <xi, e_ij . xi>_B is X_ab[i]* X_ab[j] (`pair_slabs`), 0 when M[a, b] = 0."""
    st = M.structure
    off = np.array(st.offsets)
    out = np.zeros((st.dim, st.dim), dtype=complex)
    for pairs, X, _ in M.pair_slabs:
        na, nb = X.shape[1], X.shape[3]
        P = np.einsum("gikm,gjkl->gmlij", X.conj(), X)  # [m, l, i, j]: (X_ab[i]* X_ab[j])[m, l]
        rows, cols = (off[c][:, None] + np.arange(k * k) for c, k in ((pairs[:, 1], nb), (pairs[:, 0], na)))
        out[rows[:, :, None], cols[:, None, :]] = P.reshape(len(pairs), nb * nb, na * na)
    return out


@dataclass(frozen=True)
class RecognitionResult:
    graph: qg.QuantumGraph
    module_dim: int
    iso_residual: float


def recognize(xi, psi, module=None, tol=qg.DEFAULT_TOL):
    """Decide whether a cyclic vector generates a quantum edge correspondence.

    xi is a TensorElement in B (x)_psi B (`psi_tensor_module`), or a
    CorrVector of `module` or its coordinates when `module` is given; inputs
    over another base or module raise MismatchedBase before any work.  The
    candidate adjacency is A(x) = delta^2 (psi (x) 1)(x . xi) in the ambient
    tensor model and A(x) = delta^2 <xi, x . xi>_B in a cyclic module; it
    must be Schur-idempotent.  The module dimension is that of B . xi . B,
    `qg.cyclic_dim` of the space with xi as its generator; a vector that
    generates less than `module` raises NotGenerating.  On success returns
    the recovered graph together with the inner-product defect of the
    identification x . xi . y -> x . eps . y.
    """
    st = psi.structure
    if module is None:
        if not isinstance(xi, qg.TensorElement):
            raise qg.ShapeMismatch("expected a TensorElement without a module")
        if xi.structure != st:
            raise qg.MismatchedBase("tensor over a different block structure")
        space, coords = psi_tensor_module(psi), psi_tensor_coords(psi, xi.coeff)
    else:
        _same_base(module.psi, psi)
        vec = xi if isinstance(xi, CorrVector) else CorrVector(module, xi)  # checks the size
        if vec.module is not module:
            raise qg.MismatchedBase("vector of a different correspondence")
        space, coords = module, vec.coords
    cyclic = replace(space, generator=coords)
    inner = _vector_map(cyclic)
    A = indicator_adjacency(xi.coeff, psi) if module is None else psi.delta_sq * inner

    span_rank = qg.cyclic_dim(cyclic)
    if module is not None and span_rank < module.size:
        raise qg.NotGenerating(
            f"xi generates a {span_rank}-dimensional submodule of dimension-{module.size} module"
        )

    G = qg.QuantumGraph.build(psi, qg.LinearMapOnB(st, A), tol=tol)
    E = qg.build_edge_correspondence(G)
    iso = float(np.abs(inner - _vector_map(E)).max(initial=0.0))
    return RecognitionResult(graph=G, module_dim=span_rank, iso_residual=iso)


def trivial_structure_report(psi):
    """Description of the Cuntz-Pimsner algebra of the trivial graph."""
    sizes = "+".join(f"M_{n}" for n in psi.structure.sizes)
    return (
        f"O_E of the trivial graph over B = {sizes} is isomorphic to B(x)C(T) "
        "(edge correspondence is B itself)"
    )


def zero_family(st, k=1):
    """The family s = 0: B -> M_k."""
    return qg.CKFamily(k, np.zeros((st.dim, k, k)))
