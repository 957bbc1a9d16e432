import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_
from oracles import (
    carried,
    choi_blocks,
    choi_blocks_oracle,
    choi_test_oracle,
    close,
    comultiply_adjoint_oracle,
    cp_model_dim,
    dense_edge_correspondence,
    dense_fock,
    oracle_defect,
    orbit_unitaries,
    quotient_actions_oracle,
    random_cp_map,
    rank_one_operator,
)
from strategies import delta_states

import qgraph as qg
from qgraph.correspondence import from_spanning, tensor_square_module
from qgraph.graphs import (
    _indicator_adjacency,
    _schur_square_matrix,
    adjacency_from_indicator,
)

RNG = np.random.default_rng(11)


def random_element(st, rng=RNG):
    return qg.AlgebraElement(
        st, [rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) for n in st.sizes]
    )


class TestSchur:
    def test_nan_adjacency_fails_the_gate(self, tracial_m2):
        mat = np.eye(4, dtype=complex)
        mat[1, 2] = np.nan
        with pytest.raises(qg.NotQuantumAdjacency):
            qg.QuantumGraph.build(tracial_m2, qg.LinearMapOnB(tracial_m2.structure, mat))

    def test_identity_is_adjacency(self, tracial_m2):
        A = qg.LinearMapOnB.identity(tracial_m2.structure)
        assert qg.schur_residual(tracial_m2, A) < 1e-12

    def test_half_identity_fails(self, tracial_m2):
        A = qg.LinearMapOnB(tracial_m2.structure, 0.5 * np.eye(4))
        assert qg.schur_residual(tracial_m2, A) > 0.1
        with pytest.raises(qg.NotQuantumAdjacency):
            qg.QuantumGraph.build(tracial_m2, A)

    def test_transpose_is_not_adjacency(self, tracial_m2):
        st = tracial_m2.structure
        mat = np.zeros((4, 4))
        for i in range(2):
            for j in range(2):
                mat[st.flat_index(0, j, i), st.flat_index(0, i, j)] = 1.0
        assert qg.schur_residual(tracial_m2, qg.LinearMapOnB(st, mat)) > 0.1

    def test_all_constructor_families(self, cp_family_graphs):
        for name, G in cp_family_graphs.items():
            assert G.schur_residual_cache <= 1e-9, name

    def test_classical_zero_one_matrices(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            adj = rng.integers(0, 2, size=(4, 4))
            G = qg.classical_graph(adj)
            assert G.schur_residual_cache < 1e-12


class TestEdgeIndicator:
    def test_properties_small(self, cp_family_graphs):
        for name, G in cp_family_graphs.items():
            props = qg.indicator_properties(G)
            assert props["r1"] < 1e-12, name
            assert props["r2"] < 1e-12, name
            assert props["r3"] < 1e-12, name

    def test_classical_indicator_is_transposed_matrix(self, graph_3cycle):
        eps = qg.edge_indicator(graph_3cycle)
        adj = graph_3cycle.adjacency.matrix
        # eps = sum over edges i->j of e_j (x) e_i (reversed-edge indicator)
        assert np.allclose(eps.coeff, adj.T)

    def test_round_trip(self, cp_family_graphs):
        for name, G in cp_family_graphs.items():
            eps = qg.edge_indicator(G)
            A2 = adjacency_from_indicator(eps, G.psi)
            assert np.allclose(A2.matrix, G.adjacency.matrix, atol=1e-10), name

    def test_rejects_non_idempotent(self, tracial_m2):
        bad = qg.TensorElement(tracial_m2.structure, RNG.normal(size=(4, 4)))
        with pytest.raises((qg.NotIdempotent, qg.NotModularSelfAdjoint)):
            adjacency_from_indicator(bad, tracial_m2)

    def test_rejects_non_modular_self_adjoint(self, tracial_m2):
        st = tracial_m2.structure
        # e_11 (x) (e_11 + e_12) is #-idempotent but not star-symmetric
        coeff = np.zeros((4, 4))
        coeff[0, 0] = 1.0
        coeff[0, 1] = 1.0
        xi = qg.TensorElement(st, coeff)
        assert (qg.sharp(xi, xi) - xi).norm() < 1e-12
        with pytest.raises(qg.NotModularSelfAdjoint):
            adjacency_from_indicator(xi, tracial_m2)


class TestCompletePositivity:
    def test_flag_matches_modular_self_adjointness(self, cp_family_graphs):
        for name, G in cp_family_graphs.items():
            flag, min_eig = qg.is_completely_positive(G.psi, G.adjacency)
            props = qg.indicator_properties(G)
            assert flag, name
            assert props["r3"] < 1e-9, name
            assert min_eig > -1e-10, name

    def test_transpose_choi_is_indefinite(self, tracial_m2):
        st = tracial_m2.structure
        mat = np.zeros((4, 4))
        for i in range(2):
            for j in range(2):
                mat[st.flat_index(0, j, i), st.flat_index(0, i, j)] = 1.0
        flag, min_eig = qg.is_completely_positive(tracial_m2, qg.LinearMapOnB(st, mat))
        assert not flag
        assert min_eig == pytest.approx(-1.0, abs=1e-12)
        evs = np.concatenate(
            [np.linalg.eigvalsh(H) for H in choi_blocks(qg.LinearMapOnB(st, mat))]
        )
        assert min_eig <= -0.5 * evs.max()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf in the Hermitian defect
    @pytest.mark.parametrize("entry", [(0, 0), (1, 2)])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_map_fails(self, tracial_m2, entry, value):
        # an infinite off-diagonal entry makes the Hermitian defect inf, which
        # its inf threshold would pass: the finiteness check catches it
        mat = np.eye(4, dtype=complex)
        mat[entry] = value
        flag, _ = qg.is_completely_positive(tracial_m2, qg.LinearMapOnB(tracial_m2.structure, mat))
        assert flag is False

    def test_choi_blocks_of_identity_are_psd(self, tracial_m2):
        A = qg.LinearMapOnB.identity(tracial_m2.structure)
        for H in choi_blocks(A):
            assert np.linalg.eigvalsh(H).min() > -1e-12


class TestSourcesSinks:
    def test_line_graph(self, graph_line):
        sources, sinks = qg.quantum_sources_sinks(graph_line)
        assert sources == [0]
        assert sinks == [1]

    def test_no_sources_in_regular_families(self, cp_family_graphs):
        for name, G in cp_family_graphs.items():
            if name == "classical_line":
                continue
            sources, sinks = qg.quantum_sources_sinks(G)
            assert sources == [] and sinks == [], name


class TestAdjointMap:
    @pytest.mark.parametrize("seed", range(5))
    def test_gns_adjoint_identity(self, skew_m2, seed):
        rng = np.random.default_rng(seed)
        st = skew_m2.structure
        A = qg.LinearMapOnB(st, rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        Astar = qg.adjoint_map(A, skew_m2)
        x, y = random_element(st, rng), random_element(st, rng)
        assert qg.gns_inner(A(x), y, skew_m2) == pytest.approx(
            qg.gns_inner(x, Astar(y), skew_m2)
        )

    def test_involutive(self, skew_m2):
        st = skew_m2.structure
        A = qg.LinearMapOnB(st, RNG.normal(size=(4, 4)))
        back = qg.adjoint_map(qg.adjoint_map(A, skew_m2), skew_m2)
        assert np.allclose(back.matrix, A.matrix)


MIXED_SIZES = [(1, 2, 2), (2, 1, 2), (2, 2, 1), (1, 1, 2), (1, 2), (2, 1), (2, 2), (1, 1, 1), (3,)]


class TestGroupedChoiTest:
    @given(
        psi=delta_states(MIXED_SIZES),
        seed=st_.integers(0, 2**32 - 1),
        kind=st_.sampled_from(["cp", "transpose", "non_hermitian", "non_finite"]),
    )
    @settings(max_examples=60, deadline=None)
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf on non-finite maps
    def test_matches_the_slab_loop(self, psi, seed, kind):
        rng = np.random.default_rng(seed)
        st = psi.structure
        mat = random_cp_map(psi, rng).matrix
        if kind == "transpose":  # x -> A(x)^T: Hermitian slabs, indefinite where N_b > 1
            mat = mat[st.star_perm]
        elif kind != "cp":
            # spoil a random set of block pairs, so the first spoiled pair in
            # (a, b) order need not be the first of its size group
            off = st.offsets
            for a in range(st.num_blocks):
                for b in range(st.num_blocks):
                    if rng.random() < 0.4:
                        slab = mat[off[b] : off[b + 1], off[a] : off[a + 1]]
                        if kind == "non_hermitian":
                            slab += 1j * rng.normal(size=slab.shape)
                        else:
                            slab[tuple(rng.integers(0, slab.shape))] = rng.choice([np.nan, np.inf, -np.inf])
        A = qg.LinearMapOnB(st, mat)
        (flag, value), (want_flag, want) = qg.is_completely_positive(psi, A), choi_test_oracle(A)
        assert flag is want_flag
        if np.isfinite(want):
            assert abs(value - want) <= 1e-12 * max(1.0, abs(want))
        else:
            assert np.array_equal(value, want, equal_nan=True)


class TestHomomorphism:
    def test_matches_loop_oracle(self, cp_family_graphs):
        nontracial = qg.validate_delta_form(
            [1, 2], [[1.0 / 6.0], [(5 + np.sqrt(5)) / 12, (5 - np.sqrt(5)) / 12]]
        )
        complete = qg.complete_graph(nontracial)
        for name, G in {**cp_family_graphs, "complete_m1m2_nontracial": complete}.items():
            got, want = qg.homomorphism_check(G), homomorphism_oracle(G)
            for key, value in want.items():
                assert abs(got[key] - value) <= 1e-12 * max(1.0, value), (name, key)
        assert min(qg.homomorphism_check(complete).values()) > 0.1  # not multiplicative

    def test_allocates_no_d4_array(self):
        # the unit-pair products are (d, d, d) stacks; one complex (d, d, d, d)
        # array on M_5 would be 6.25 MB
        G = qg.complete_graph(qg.validate_delta_form([5], [[0.2] * 5]))
        d = G.structure.dim
        qg.homomorphism_check(G)  # caches the Choi verdict and the structure tensors
        tracemalloc.start()
        try:
            qg.homomorphism_check(G)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * d**4

    def test_automorphism_is_multiplicative(self, graph_swap, graph_trivial_m2):
        for G in (graph_swap, graph_trivial_m2):
            rep = qg.homomorphism_check(G)
            assert rep["multiplicativity"] < 1e-12
            assert rep["indicator_shift"] < 1e-12

    def test_complete_graph_is_not(self, graph_complete_m2):
        rep = qg.homomorphism_check(graph_complete_m2)
        assert rep["multiplicativity"] > 0.1
        assert rep["indicator_shift"] > 0.01


class TestQuantumIsomorphism:
    def test_identity_theta(self, graph_rank_one):
        theta = qg.OperatorValuedMap.identity(graph_rank_one.structure)
        rep = qg.quantum_isomorphism_residual(graph_rank_one, graph_rank_one, theta)
        assert all(v < 1e-12 for v in rep.values())

    def test_identity_theta_wrong_graph(self, graph_complete_m2, graph_trivial_m2):
        theta = qg.OperatorValuedMap.identity(graph_complete_m2.structure)
        rep = qg.quantum_isomorphism_residual(graph_complete_m2, graph_trivial_m2, theta)
        assert rep["homomorphism"] < 1e-12
        assert rep["adjacency_covariance"] > 0.1


# Loop oracles for the library's batched contractions: each evaluates one
# standard unit (or unit pair) at a time through the element-level API.


def units(st):
    eye = np.eye(st.dim, dtype=complex)
    return [qg.AlgebraElement.from_vector(st, eye[p]) for p in range(st.dim)]


def schur_square_oracle(psi, A):
    """Columns m (A x A) m*(b_p), with m* from the adjoint oracle."""
    st = psi.structure
    cols = []
    for x in units(st):
        t = comultiply_adjoint_oracle(x, psi)
        t = qg.TensorElement(st, A.matrix @ t.coeff @ A.matrix.T)
        cols.append(t.multiply_down().vec)
    return np.column_stack(cols)


def indicator_adjacency_oracle(xi, psi):
    """Columns delta^2 (psi x 1)(b_p . xi)."""
    st = psi.structure
    t = qg.TensorElement(st, xi)
    return np.column_stack(
        [psi.delta_sq * t.left_mul(x).partial_psi_left(psi).vec for x in units(st)]
    )


def homomorphism_oracle(G):
    eps = qg.edge_indicator(G)
    A = G.adjacency
    mult = shift = 0.0
    for x in units(G.structure):
        for y in units(G.structure):
            xy = x * y
            mult = max(mult, (A(xy) - A(x) * A(y)).norm())
            shift = max(shift, (eps.left_mul(xy) - eps.left_mul(x).right_mul(A(y))).norm())
    return {"multiplicativity": mult, "indicator_shift": shift}


def cp_residual_oracle(E):
    """The B (x)_A B model as a second quotient module, with generator stacks
    built pair by pair; returns its dimension and the isomorphism residual."""
    G = E.graph
    st = G.structure
    d2 = st.dim * st.dim
    F = from_spanning(tensor_square_module(G.psi, G.adjacency.matrix), np.eye(d2, dtype=complex))
    eye2 = np.eye(d2, dtype=complex)
    gE, hF = [], []
    for p, x in enumerate(units(st)):
        for q, y in enumerate(units(st)):
            gE.append(E.left_act(x, E.right_act(E.generator, y)))
            hF.append(F.project(eye2[p * st.dim + q]) / np.sqrt(G.delta_sq))
    gE, hF = np.array(gE), np.array(hF)
    innerE = np.einsum("xi,yj,ijd->xyd", gE.conj(), gE, E.binner)
    innerF = np.einsum("xi,yj,ijd->xyd", hF.conj(), hF, F.binner)
    return F.size, float(np.abs(innerE - innerF).max())


def compact_decomposition_oracle(E):
    """Worst column norm of f_ij - sum_k theta_{f_ik.eps, f_jk.eps}, unit by unit."""
    psi = E.graph.psi
    worst = 0.0
    for a, n in enumerate(psi.structure.sizes):
        vec = {
            (i, k): E.left_act(qg.adapted_unit(a, i, k, psi), E.generator)
            for i in range(n)
            for k in range(n)
        }
        for i in range(n):
            for j in range(n):
                lhs = np.einsum("p,pab->ab", qg.adapted_unit(a, i, j, psi).vec, E.lmul)
                rhs = sum(rank_one_operator(E, vec[i, k], vec[j, k]) for k in range(n))
                worst = max(worst, float(np.linalg.norm(lhs - rhs, axis=0).max()))
    return worst


def fock_covariance_oracle(F):
    """Worst Frobenius norm of pi(f_ij) - sum_k T(f_ik.eps)T(f_jk.eps)* on
    levels 1..N-1, unit by unit."""
    E = F.edge
    psi = F.graph.psi
    worst = 0.0
    for l in range(1, F.depth):
        for a, n in enumerate(psi.structure.sizes):
            T = {
                (i, k): F.creation_matrix(
                    l - 1, E.left_act(qg.adapted_unit(a, i, k, psi), E.generator)
                )
                for i in range(n)
                for k in range(n)
            }
            for i in range(n):
                for j in range(n):
                    lhs = F.pi_level(l, qg.adapted_unit(a, i, j, psi))
                    rhs = sum(T[i, k] @ T[j, k].conj().T for k in range(n))
                    worst = max(worst, float(np.linalg.norm(lhs - rhs)))
    return worst


def quantum_isomorphism_oracle(G1, G2, theta):
    """The quantum-isomorphism residuals with one unit (or unit pair) at a time."""
    st1, st2 = G1.structure, G2.structure
    h = theta.h
    eye = np.eye(st1.dim, dtype=complex)
    hom = np.linalg.norm(
        theta.apply_vec(st1.unit_vector)
        - qg.OperatorValuedMap.identity(st2, h).apply_vec(st2.unit_vector)
    )
    state = adj = 0.0
    for p in range(st1.dim):
        ip = theta.images[p]
        hom = max(hom, np.linalg.norm(theta.apply_vec(eye[st1.star_perm[p]]) - theta.star(ip)))
        for q in range(st1.dim):
            lhs = theta.apply_vec(st1.mul_tensor[:, p, q].astype(complex))
            prod = np.einsum("uvw,vkl,wlm->ukm", st2.mul_tensor, ip, theta.images[q])
            hom = max(hom, np.linalg.norm(lhs - prod))
        sliced = np.einsum("q,qkl->kl", G2.psi.psi_vec, ip)
        state = max(state, np.linalg.norm(sliced - G1.psi.psi_vec[p] * np.eye(h)))
        lhs = np.einsum("rq,qkl->rkl", G2.adjacency.matrix, ip)
        adj = max(adj, np.linalg.norm(lhs - theta.apply_vec(G1.adjacency.matrix[:, p])))
    return {"homomorphism": hom, "state_covariance": state, "adjacency_covariance": adj}


class TestBatchedFormsMatchLoops:
    @given(psi=delta_states(), seed=st_.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_library_matches_loop_oracles(self, psi, seed):
        # random xi and a random CP but non-Schur A keep every residual O(1)
        rng = np.random.default_rng(seed)
        st = psi.structure
        A = random_cp_map(psi, rng)
        xi = rng.normal(size=(st.dim, st.dim)) + 1j * rng.normal(size=(st.dim, st.dim))
        assert close(_schur_square_matrix(psi, A), schur_square_oracle(psi, A))
        assert close(_indicator_adjacency(xi, psi), indicator_adjacency_oracle(xi, psi))

        G = qg.QuantumGraph(st, psi, A)  # skips the Schur gate on purpose
        got = qg.homomorphism_check(G)
        for key, want in homomorphism_oracle(G).items():
            assert want > 1e-6 and close(got[key], want), key
        E = qg.build_edge_correspondence(G)
        want_dim, want = cp_residual_oracle(E)
        got = qg.cp_correspondence(E)
        assert cp_model_dim(G) == want_dim == E.size
        assert want > 1e-6 and close(got, want)
        want = compact_decomposition_oracle(E)
        assert want > 1e-6 and close(qg.compact_decomposition_residual(E), want)

        # one random vector of the dense oracle's E_G spans a subspace that
        # is not invariant
        d = st.dim
        D = dense_edge_correspondence(G)
        v = (rng.normal(size=(1, D.size)) + 1j * rng.normal(size=(1, D.size))) @ D.basis_ambient
        sub = from_spanning(D.ambient, v)
        lmul, rmul, closure = quotient_actions_oracle(sub)
        assert close(sub.lmul, lmul) and close(sub.rmul, rmul)
        assert closure > 1e-6 or E.size == 1

        for H, want in zip(choi_blocks(A), choi_blocks_oracle(A), strict=True):
            assert close(H, want)

        h = 2
        images = rng.normal(size=(d, d, h, h)) + 1j * rng.normal(size=(d, d, h, h))
        theta = qg.OperatorValuedMap(st, st, images)
        G2 = qg.QuantumGraph(st, psi, random_cp_map(psi, rng))
        got = qg.quantum_isomorphism_residual(G, G2, theta)
        for key, want in quantum_isomorphism_oracle(G, G2, theta).items():
            assert want > 1e-6 and close(got[key], want), key

    @given(psi=delta_states(), seed=st_.integers(0, 2**32 - 1))
    @settings(max_examples=5, deadline=None)
    def test_fock_covariance_matches_loop_oracle(self, psi, seed):
        # one Kraus operator keeps dim E <= (sum N_a)^2, so level 2 stays small
        rng = np.random.default_rng(seed)
        G = qg.QuantumGraph(psi.structure, psi, random_cp_map(psi, rng, kraus=1))
        F = qg.build_fock(G, 2)
        want = fock_covariance_oracle(F)
        assert want > 1e-6 and close(qg.representation_residuals(F)["covariance"], want)
        # in the dense oracle, B, E_G and E (x) E are sub-bimodules of their
        # ambients, and their actions are the projected dense ambient actions
        D = dense_fock(G, 2)
        for level in D.levels:
            lmul, rmul, closure = quotient_actions_oracle(level)
            assert closure <= 1e-10
            assert close(level.lmul, lmul) and close(level.rmul, rmul)
        # and the normal-form levels carry the same actions
        rel = 1e-12 + oracle_defect(D)
        for U, X, Y in zip(orbit_unitaries(F, D)[0], F.levels, D.levels, strict=True):
            got_l, got_r, _ = carried(U, X)
            assert close(got_l, Y.lmul, rel) and close(got_r, Y.rmul, rel)
