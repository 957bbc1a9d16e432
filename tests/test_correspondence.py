import numpy as np
import pytest
from oracles import (
    carried,
    close,
    cp_model_dim,
    quotient_actions_oracle,
    random_cp_map,
    rank_one_operator,
)

import qgraph as qg
from qgraph.correspondence import (
    algebra_module,
    from_spanning,
    tensor_square_module,
)

RNG = np.random.default_rng(5)

EXPECTED_DIM_E = {
    "complete_c2": 4,
    "complete_m2": 16,
    "trivial_m2": 4,
    "trivial_skew": 4,
    "rank_one": 4,
    "classical_3cycle": 3,
    "classical_line": 1,
    "automorphism_swap": 8,
}


def unit(st, p):
    return qg.AlgebraElement.from_vector(st, np.eye(st.dim, dtype=complex)[p])


class TestModuleBasics:
    def test_algebra_module_inner_is_star_product(self, skew_m2):
        amb = algebra_module(skew_m2)
        st = skew_m2.structure
        x = RNG.normal(size=4) + 1j * RNG.normal(size=4)
        y = RNG.normal(size=4) + 1j * RNG.normal(size=4)
        inner = amb.b_inner_coords(x, y)
        expect = (
            qg.AlgebraElement.from_vector(st, x).star()
            * qg.AlgebraElement.from_vector(st, y)
        ).vec
        assert np.allclose(inner, expect)

    def test_trivial_correspondence_dims(self, skew_m2):
        T = qg.trivial_correspondence(skew_m2)
        assert T.size == skew_m2.structure.dim
        # the dense oracle: B quotiented inside itself is a sub-bimodule ...
        dim = skew_m2.structure.dim
        D = from_spanning(algebra_module(skew_m2), np.eye(dim, dtype=complex))
        _, _, closure = quotient_actions_oracle(D)
        assert closure < 1e-12
        # ... and T is D in the basis b_p / sqrt(g_p)
        U = D.project(np.diag(1.0 / np.sqrt(skew_m2.gram_diag)))
        assert close(U.conj().T @ U, np.eye(dim))
        for got, want in zip(carried(U, T), (D.lmul, D.rmul, D.binner)):
            assert close(got, want)

    def test_scalar_gram_orthonormal_after_quotient(self, cp_family_graphs):
        for name, G in cp_family_graphs.items():
            E = qg.build_edge_correspondence(G)
            assert np.allclose(E.scalar_gram, np.eye(E.size), atol=1e-10), name

    def test_actions_commute(self, graph_rank_one):
        E = qg.build_edge_correspondence(graph_rank_one)
        st = graph_rank_one.structure
        for p in range(st.dim):
            for q in range(st.dim):
                assert np.allclose(
                    E.lmul[p] @ E.rmul[q], E.rmul[q] @ E.lmul[p], atol=1e-10
                )

    def test_from_spanning_rejects_indefinite_gram(self, tracial_m2):
        amb = algebra_module(tracial_m2)
        bad = tensor_square_module(tracial_m2, -np.eye(4))
        with pytest.raises(qg.NotCompletelyPositive):
            from_spanning(bad, np.eye(16, dtype=complex))
        # sanity: the honest ambient passes
        from_spanning(amb, np.eye(4, dtype=complex))


class TestEdgeCorrespondence:
    def test_dimensions(self, cp_family_graphs):
        for name, G in cp_family_graphs.items():
            E = qg.build_edge_correspondence(G)
            assert E.size == EXPECTED_DIM_E[name], name

    def test_generator_inner_product_theorem(self, cp_family_graphs):
        # <x.eps, y.eps>_B = delta^-2 A(x* y)
        for name, G in cp_family_graphs.items():
            st = G.structure
            E = qg.build_edge_correspondence(G)
            worst = 0.0
            for p in range(st.dim):
                xi = E.left_act(unit(st, p), E.generator)
                for q in range(st.dim):
                    eta = E.left_act(unit(st, q), E.generator)
                    lhs = E.b_inner_coords(xi, eta)
                    prod = unit(st, p).star() * unit(st, q)
                    rhs = G.adjacency(prod).vec / G.delta_sq
                    worst = max(worst, float(np.abs(lhs - rhs).max()))
            assert worst < 1e-10, name

    def test_rank_cutoff_is_relative_to_all_slabs(self):
        # the Kraus ranks are cut at GRAM_CUTOFF_RTOL times the largest
        # eigenvalue of every block pair, not of each stack of equal sizes
        psi = qg.validate_delta_form([1, 2], [[1 / 6], [(5 + np.sqrt(5)) / 12, (5 - np.sqrt(5)) / 12]])
        st = psi.structure
        A = random_cp_map(psi, np.random.default_rng(4)).matrix
        A[1:, 1:] *= 1e-14  # block 1 to block 1: the stack (N_a, N_b) = (2, 2)
        E = qg.build_edge_correspondence(qg.QuantumGraph(st, psi, qg.LinearMapOnB(st, A)))
        assert E.mult.tolist() == [[1, 2], [2, 0]]

    def test_inner_product_positivity(self, graph_complete_m2):
        E = qg.build_edge_correspondence(graph_complete_m2)
        st = graph_complete_m2.structure
        for _ in range(5):
            v = RNG.normal(size=E.size) + 1j * RNG.normal(size=E.size)
            x = qg.AlgebraElement.from_vector(st, E.b_inner_coords(v, v))
            assert (x - x.star()).norm() < 1e-10
            for blk in x.blocks:
                assert np.linalg.eigvalsh((blk + blk.conj().T) / 2).min() > -1e-10

    def test_b_inner_wrapper(self, graph_trivial_m2):
        E = qg.build_edge_correspondence(graph_trivial_m2)
        v = E.vector(np.eye(E.size, dtype=complex)[0])
        out = qg.b_inner(v, v, E)
        assert isinstance(out, qg.AlgebraElement)
        assert abs(E.psi.value(out) - 1.0) < 1e-10  # scalar-normalized basis

    def test_cp_model_isomorphism(self, cp_family_graphs):
        for name, G in cp_family_graphs.items():
            residual = qg.cp_correspondence(qg.build_edge_correspondence(G))
            assert residual < 1e-9, name
            assert cp_model_dim(G) == EXPECTED_DIM_E[name], name


class TestFaithfulFull:
    def test_regular_families(self, cp_family_graphs):
        for name, G in cp_family_graphs.items():
            rep = qg.faithful_full_report(qg.build_edge_correspondence(G))
            assert rep["subspace_distance"] < 1e-9, name
            if name == "classical_line":
                continue
            assert rep["faithful"] and rep["full"], name
            assert rep["kernel_dim"] == 0, name

    def test_line_graph_kernel(self, graph_line):
        E = qg.build_edge_correspondence(graph_line)
        rep = qg.faithful_full_report(E)
        assert not rep["faithful"]
        assert not rep["full"]
        assert rep["kernel_dim"] == 1
        assert rep["sources"] == [0] and rep["sinks"] == [1]
        kern = qg.left_kernel(E)
        # kernel is spanned by the source vertex projection e_0
        basis = kern["kernel_basis"]
        assert basis.shape == (1, 2)
        assert abs(abs(basis[0, 0]) - 1.0) < 1e-9 and abs(basis[0, 1]) < 1e-9

    def test_predicted_kernel_is_the_source_blocks(self, cp_family_graphs):
        # one rule, quantum_sources_sinks, decides the predicted kernel;
        # the line graph is the one fixture whose sources and sinks differ
        assert "classical_line" in cp_family_graphs
        for name, G in cp_family_graphs.items():
            kern = qg.left_kernel(qg.build_edge_correspondence(G))
            sources, _ = qg.quantum_sources_sinks(G)
            assert kern["perp_blocks"] == sources, name
            assert kern["kernel_dim"] == sum(G.structure.sizes[a] ** 2 for a in sources), name
            assert kern["subspace_distance"] <= 1e-9, name

    def test_complete_m2_plus_m3_is_faithful(self):
        # dim E = 13^2, so the kernel matrix has 13^4 rows and 13 columns
        psi = qg.validate_delta_form([2, 3], [[2 / 13] * 2, [3 / 13] * 3])
        E = qg.build_edge_correspondence(qg.complete_graph(psi))
        assert E.size == 169
        rep = qg.faithful_full_report(E)
        assert rep["faithful"] and rep["kernel_dim"] == 0
        assert rep["subspace_distance"] <= 1e-9

    def test_fullness_ideal(self, graph_line, graph_3cycle):
        blocks, full = qg.fullness_ideal(graph_3cycle)
        assert full and blocks == [0, 1, 2]
        blocks, full = qg.fullness_ideal(graph_line)
        assert not full and blocks == [0]


class TestCompacts:
    @pytest.mark.parametrize(
        "fixture",
        ["graph_complete_c2", "graph_trivial_m2", "graph_rank_one", "graph_3cycle"],
    )
    def test_decomposition(self, fixture, request):
        G = request.getfixturevalue(fixture)
        assert qg.compact_decomposition_residual(qg.build_edge_correspondence(G)) < 1e-9

    def test_rank_one_operator_shape(self, graph_trivial_m2):
        E = qg.build_edge_correspondence(graph_trivial_m2)
        u = RNG.normal(size=E.size) + 0j
        w = RNG.normal(size=E.size) + 0j
        theta = rank_one_operator(E, u, w)
        assert theta.shape == (E.size, E.size)
        # theta_{u,w} is conjugate-linear in w and linear in u
        assert np.allclose(rank_one_operator(E, 2 * u, w), 2 * theta)
        assert np.allclose(rank_one_operator(E, u, 2j * w), -2j * theta)


class TestRecognition:
    def test_recovers_trivial_graph(self, graph_trivial_m2):
        eps = qg.edge_indicator(graph_trivial_m2)
        out = qg.recognize(eps, graph_trivial_m2.psi)
        assert np.allclose(
            out.graph.adjacency.matrix, graph_trivial_m2.adjacency.matrix, atol=1e-9
        )
        assert out.iso_residual < 1e-9

    def test_recovers_rank_one_graph(self, graph_rank_one):
        eps = qg.edge_indicator(graph_rank_one)
        out = qg.recognize(eps, graph_rank_one.psi)
        assert np.allclose(
            out.graph.adjacency.matrix, graph_rank_one.adjacency.matrix, atol=1e-9
        )
        assert out.iso_residual < 1e-9
        assert out.module_dim == 4

    def test_module_vector_path(self, graph_complete_c2):
        E = qg.build_edge_correspondence(graph_complete_c2)
        out = qg.recognize(E.vector(E.generator), graph_complete_c2.psi, module=E)
        assert np.allclose(
            out.graph.adjacency.matrix, graph_complete_c2.adjacency.matrix, atol=1e-9
        )
        assert out.iso_residual < 1e-9

    def test_rejects_non_indicator_tensor(self, tracial_m2):
        st = tracial_m2.structure
        coeff = np.zeros((4, 4))
        coeff[st.flat_index(0, 0, 0), st.flat_index(0, 0, 1)] = 1.0
        xi = qg.TensorElement(st, coeff)  # e_11 (x) e_12
        with pytest.raises(qg.NotQuantumAdjacency):
            qg.recognize(xi, tracial_m2)

    def test_rejects_non_generating_vector(self, graph_complete_m2):
        E = qg.build_edge_correspondence(graph_complete_m2)
        # f_11 . eps generates only B f_11 . eps . B, a proper submodule
        f11 = qg.adapted_unit(0, 0, 0, graph_complete_m2.psi)
        v = E.left_act(f11, E.generator)
        with pytest.raises(qg.NotGenerating):
            qg.recognize(E.vector(v), graph_complete_m2.psi, module=E)
