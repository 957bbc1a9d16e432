import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_
from strategies import delta_states

import qgraph as qg
from qgraph.blocks import comultiply_adjoint_oracle
from qgraph.correspondence import from_spanning, tensor_square_module
from qgraph.graphs import (
    _indicator_adjacency,
    _schur_square_matrix,
    adjacency_from_indicator,
    choi_blocks,
)

RNG = np.random.default_rng(11)


def random_element(st, rng=RNG):
    return qg.AlgebraElement(
        st, [rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) for n in st.sizes]
    )


class TestSchur:
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
            [np.linalg.eigvalsh(H) for H in choi_blocks(tracial_m2, qg.LinearMapOnB(st, mat))]
        )
        assert min_eig <= -0.5 * evs.max()

    def test_choi_blocks_of_identity_are_psd(self, tracial_m2):
        A = qg.LinearMapOnB.identity(tracial_m2.structure)
        for H in choi_blocks(tracial_m2, A):
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


class TestHomomorphism:
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
    """The B (x)_A B model residual with generator stacks built pair by pair."""
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
    return float(np.abs(innerE - innerF).max())


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


def close(got, want, rel=1e-12):
    return np.linalg.norm(np.asarray(got) - want) <= rel * np.linalg.norm(want)


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
        want = cp_residual_oracle(E)
        assert want > 1e-6 and close(qg.cp_correspondence(E)[1], want)
