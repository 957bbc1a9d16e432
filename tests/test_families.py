import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_
from oracles import (
    adapted_unit,
    apply_map,
    basis_indices,
    left_mult_matrix,
    right_mult_matrix,
    state_value,
    trivial_structure_report,
)
from strategies import delta_states

import qgraph as qg


def rank_one_lemma_residual(psi, rng):
    """Residual of sum_k f_ik S f_kj = Tr(rho^-1 S) f_ij on random S,
    relative to max(1, |Tr(rho^-1 S)|).

    This kernel identity is the step of the proof that T x T* is
    Schur-idempotent under the rank-one normalization.
    """
    st = psi.structure
    worst = 0.0
    for a, n in enumerate(st.sizes):
        S = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        trace = np.sum(np.diag(S) / psi.weights[a])
        blocks = [np.zeros((m, m), dtype=complex) for m in st.sizes]
        blocks[a] = S
        Sel = qg.AlgebraElement(st, blocks)
        for i in range(n):
            for j in range(n):
                acc = qg.AlgebraElement.zero(st)
                for k in range(n):
                    acc = acc + adapted_unit(a, i, k, psi) * Sel * adapted_unit(a, k, j, psi)
                diff = acc - trace * adapted_unit(a, i, j, psi)
                worst = max(worst, diff.norm() / max(1.0, abs(trace)))
    return worst


class TestCompleteGraph:
    def test_classical_complete_is_all_ones(self):
        psi = qg.validate_delta_form([1, 1, 1], [[1.0 / 3]] * 3)
        G = qg.complete_graph(psi)
        assert np.allclose(G.adjacency.matrix, np.ones((3, 3)))

    def test_matches_all_ones_classical_graph(self, graph_complete_c2):
        H = qg.classical_graph(np.ones((2, 2), dtype=int))
        assert np.allclose(graph_complete_c2.adjacency.matrix, H.adjacency.matrix)

    def test_rank_is_one(self, graph_complete_m2):
        assert np.linalg.matrix_rank(graph_complete_m2.adjacency.matrix) == 1

    def test_sends_everything_to_scalar(self, graph_complete_m2):
        st = graph_complete_m2.structure
        psi = graph_complete_m2.psi
        x = qg.AlgebraElement(st, [np.array([[1.0, 2.0], [3.0, 4.0]])])
        img = apply_map(graph_complete_m2.adjacency, x)
        expect = graph_complete_m2.delta_sq * state_value(psi, x)
        assert np.allclose(img.blocks[0], expect * np.eye(2))


class TestTrivialGraph:
    def test_adjacency_is_identity(self, graph_trivial_skew):
        assert np.allclose(graph_trivial_skew.adjacency.matrix, np.eye(4))

    def test_structure_report(self, skew_m2):
        report = trivial_structure_report(skew_m2)
        assert "B(x)C(T)" in report
        assert "M_2" in report


class TestRankOneGraph:
    @given(psi=delta_states(), seed=st_.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_kernel_identity_on_random_states(self, psi, seed):
        assert rank_one_lemma_residual(psi, np.random.default_rng(seed)) <= 1e-12

    def test_identity_generator_gives_trivial(self, tracial_m2):
        G = qg.rank_one_graph(tracial_m2, qg.AlgebraElement.unit(tracial_m2.structure))
        assert np.allclose(G.adjacency.matrix, np.eye(4))

    def test_action_is_conjugation(self, tracial_m2, rank_one_generator):
        G = qg.rank_one_graph(tracial_m2, rank_one_generator)
        rng = np.random.default_rng(0)
        x = qg.AlgebraElement(tracial_m2.structure, [rng.normal(size=(2, 2))])
        T = rank_one_generator
        assert np.allclose(apply_map(G.adjacency, x).vec, (T * x * T.star()).vec)

    @pytest.mark.parametrize("sizes", [(1, 2), (2, 1, 3), (3, 3)])
    def test_matrix_is_the_product_of_multiplication_matrices(self, sizes):
        # A = L_T R_{T*}, with L and R read off the dense structure constants
        dim = sum(n * n for n in sizes)
        psi = qg.validate_delta_form(list(sizes), [[n / dim] * n for n in sizes])
        st, rng = psi.structure, np.random.default_rng(sum(sizes))
        blocks = []
        for a, n in enumerate(sizes):
            T = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            norm_sq = np.real(np.sum(np.diag(T.conj().T @ T) / psi.weights[a]))
            blocks.append(T * np.sqrt(psi.delta_sq / norm_sq))
        T = qg.AlgebraElement(st, blocks)
        got = qg.rank_one_graph(psi, T).adjacency.matrix
        want = left_mult_matrix(st, T.vec) @ right_mult_matrix(st, T.star().vec)
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()

    def test_bad_normalization(self, tracial_m2):
        with pytest.raises(qg.BadNormalization):
            qg.rank_one_graph(
                tracial_m2,
                qg.AlgebraElement(tracial_m2.structure, [0.5 * np.eye(2)]),
            )

    def test_unitary_generators(self, tracial_m2):
        # any unitary U has Tr(rho^-1 U*U) = 2 ||U||_F^2 = 4 = delta^2
        rng = np.random.default_rng(4)
        for _ in range(5):
            Q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
            G = qg.rank_one_graph(tracial_m2, qg.AlgebraElement(tracial_m2.structure, [Q]))
            assert G.schur_defects[0] < 1e-9


class TestAutomorphismGraph:
    def test_identity_is_trivial_graph(self, tracial_m2):
        G, report = qg.automorphism_graph(
            tracial_m2, qg.AutomorphismSpec((0,), (np.eye(2),))
        )
        assert np.allclose(G.adjacency.matrix, np.eye(4))
        assert report["cycles"] == [[0]]

    def test_block_rotation_matches_classical_cycle(self, graph_3cycle):
        psi = qg.validate_delta_form([1, 1, 1], [[1.0 / 3]] * 3)
        G, report = qg.automorphism_graph(
            psi, qg.AutomorphismSpec((1, 2, 0), tuple(np.eye(1) for _ in range(3)))
        )
        assert np.allclose(G.adjacency.matrix, graph_3cycle.adjacency.matrix)
        assert report["crossed_product_factors"] == ["M_1(C)(x)M_3(C)(x)C(T)"]

    def test_swap_report(self):
        psi = qg.validate_delta_form([2, 2], [[0.25, 0.25], [0.25, 0.25]])
        G, report = qg.automorphism_graph(
            psi, qg.AutomorphismSpec((1, 0), (np.eye(2), np.eye(2)))
        )
        assert report["crossed_product"] == "M_2(C)(x)M_2(C)(x)C(T)"
        assert qg.homomorphism_check(G)["multiplicativity"] < 1e-12

    def test_inner_part(self):
        psi = qg.validate_delta_form([2], [[0.5, 0.5]])
        U = np.array([[0, 1], [1, 0]], dtype=complex)
        G, _ = qg.automorphism_graph(psi, qg.AutomorphismSpec((0,), (U,)))
        x = qg.AlgebraElement(psi.structure, [np.diag([1.0, 2.0])])
        assert np.allclose(apply_map(G.adjacency, x).blocks[0], np.diag([2.0, 1.0]))

    def test_images_are_the_conjugations(self):
        # column e_ij of block a is U e_ij U* in block perm[a], on mixed blocks
        # with Haar unitaries, unit by unit
        sizes, perm = [2, 3, 2, 3], (2, 3, 0, 1)
        psi = qg.validate_delta_form(sizes, [[n / 26] * n for n in sizes])
        rng = np.random.default_rng(4)
        us = tuple(np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0] for n in sizes)
        G, _ = qg.automorphism_graph(psi, qg.AutomorphismSpec(perm, us))
        st = psi.structure
        for a, i, j in basis_indices(st):
            b, U, unit = perm[a], us[perm[a]], np.zeros((sizes[a], sizes[a]))
            unit[i, j] = 1.0
            image = qg.AlgebraElement.from_vector(st, G.adjacency.matrix[:, st.flat_index(a, i, j)])
            for c, block in enumerate(image.blocks):
                want = U @ unit @ U.conj().T if c == b else 0.0
                assert np.abs(block - want).max() <= 1e-15

    def test_invalid_permutation(self, tracial_m2):
        with pytest.raises(qg.InvalidPermutation):
            qg.automorphism_graph(tracial_m2, qg.AutomorphismSpec((1,), (np.eye(2),)))

    def test_size_mismatch_permutation(self):
        psi = qg.validate_delta_form(
            [1, 2], [[1.0 / 6.0], [(5 + np.sqrt(5)) / 12, (5 - np.sqrt(5)) / 12]]
        )
        with pytest.raises(qg.InvalidPermutation):
            qg.automorphism_graph(
                psi, qg.AutomorphismSpec((1, 0), (np.eye(1), np.eye(2)))
            )

    def test_not_unitary(self, tracial_m2):
        with pytest.raises(qg.NotUnitary):
            qg.automorphism_graph(
                tracial_m2,
                qg.AutomorphismSpec((0,), (np.array([[1.0, 1.0], [0.0, 1.0]]),)),
            )

    def test_state_not_invariant(self):
        psi = qg.validate_delta_form(
            [2, 2], [[1.0 / 6.0, 1.0 / 3.0], [1.0 / 3.0, 1.0 / 6.0]]
        )
        with pytest.raises(qg.StateNotInvariant):
            qg.automorphism_graph(
                psi, qg.AutomorphismSpec((1, 0), (np.eye(2), np.eye(2)))
            )


class TestClassicalGraph:
    def test_rejects_non_zero_one(self):
        with pytest.raises(qg.NotZeroOne):
            qg.classical_graph([[0, 2], [1, 0]])

    def test_rejects_non_square(self):
        with pytest.raises(qg.ShapeMismatch):
            qg.classical_graph([[0, 1, 0], [1, 0, 1]])

    def test_uniform_state(self, graph_3cycle):
        assert graph_3cycle.delta_sq == pytest.approx(3.0)
        for w in graph_3cycle.psi.weights:
            assert w[0] == pytest.approx(1.0 / 3.0)


class TestCanonicalFamily:
    def test_dimensions(self, tracial_m2):
        fam = qg.canonical_lqck_family("trivial", tracial_m2)
        assert fam.k == 2
        u = np.eye(3, dtype=complex)
        fam = qg.canonical_lqck_family("trivial", tracial_m2, u=u)
        assert fam.k == 6

    def test_trivial_requires_identity_generator(self, tracial_m2):
        bad = qg.AlgebraElement(tracial_m2.structure, [2 * np.eye(2)])
        with pytest.raises(qg.ShapeMismatch):
            qg.canonical_lqck_family("trivial", tracial_m2, T=bad)

    def test_rank_one_requires_generator(self, tracial_m2):
        with pytest.raises(qg.ShapeMismatch):
            qg.canonical_lqck_family("rank_one", tracial_m2)

    def test_unknown_kind(self, tracial_m2):
        with pytest.raises(qg.ShapeMismatch):
            qg.canonical_lqck_family("complete", tracial_m2)

    def test_non_unitary_twist(self, tracial_m2):
        with pytest.raises(qg.NotUnitary):
            qg.canonical_lqck_family(
                "trivial", tracial_m2, u=np.array([[2.0, 0.0], [0.0, 1.0]])
            )
