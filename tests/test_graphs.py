import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st_
from oracles import (
    adapted_unit,
    adjacency_from_indicator,
    apply_map,
    built_fock,
    carried,
    choi_blocks,
    choi_blocks_oracle,
    choi_test_oracle,
    close,
    compact_decomposition_oracle,
    comultiply_adjoint_oracle,
    cp_model_dim,
    creation_matrix,
    dense_actions,
    dense_edge_correspondence,
    dense_fock,
    edge_indicator,
    gns_inner,
    indicator_adjacency,
    indicator_properties_oracle,
    indicator_shift_table,
    left_act,
    left_mul,
    modular_half,
    mul_tensor,
    multiply_down,
    oracle_defect,
    orbit_unitaries,
    partial_psi_left,
    pi_level,
    quotient,
    quotient_actions_oracle,
    random_cp_map,
    right_act,
    right_mul,
    subtract_kraus_direction,
    tensor_square_module,
    with_generator,
    zero_block_pairs,
)
from strategies import SCATTERED_SIZES, SMALL_SIZES, delta_states, quantum_graphs

import qgraph as qg

RNG = np.random.default_rng(11)


@pytest.fixture(scope="module")
def trivial_m16():
    """The trivial graph on M_16: d = 256, so one complex (d, d, d) array is 256 MiB."""
    return qg.trivial_graph(qg.validate_delta_form([16], [[1 / 16] * 16]))


def traced_peak(f):
    tracemalloc.start()
    try:
        value = f()
        return value, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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
        assert qg.schur_residual(tracial_m2, A)[0] < 1e-12

    def test_half_identity_fails(self, tracial_m2):
        A = qg.LinearMapOnB(tracial_m2.structure, 0.5 * np.eye(4))
        assert qg.schur_residual(tracial_m2, A)[0] > 0.1
        with pytest.raises(qg.NotQuantumAdjacency):
            qg.QuantumGraph.build(tracial_m2, A)

    def test_transpose_is_not_adjacency(self, tracial_m2):
        st = tracial_m2.structure
        mat = np.zeros((4, 4))
        for i in range(2):
            for j in range(2):
                mat[st.flat_index(0, j, i), st.flat_index(0, i, j)] = 1.0
        assert qg.schur_residual(tracial_m2, qg.LinearMapOnB(st, mat))[0] > 0.1

    def test_all_constructor_families(self, cp_family_graphs):
        for name, G in cp_family_graphs.items():
            assert G.schur_defects[0] <= 1e-9, name

    def test_classical_zero_one_matrices(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            adj = rng.integers(0, 2, size=(4, 4))
            G = qg.classical_graph(adj)
            assert G.schur_defects[0] < 1e-12

    def test_forms_no_d3_array(self, trivial_m16):
        # m (A x A) m* is one product per block pair; A itself is 1 MiB
        G = trivial_m16
        res, peak = traced_peak(lambda: qg.schur_residual(G.psi, G.adjacency)[0])
        assert res < 1e-12
        assert peak < 16 * 2**20

    def test_holds_only_the_edges_of_a_classical_graph(self):
        # a 1000-cycle whose vertices also all point to vertex 0: A is 16 d^2 bytes,
        # and the Schur gate's Choi slabs are its 2d - 1 nonzero 1 x 1 pairs
        n = 1000
        adj = np.roll(np.eye(n, dtype=int), 1, axis=0)
        adj[:, 0] = 1
        tracemalloc.start()
        try:
            G = qg.classical_graph(adj)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert sum(len(pairs) for pairs, _ in G.adjacency.choi_slabs) == 2 * n - 1
        assert held < 2 * 16 * n**2


class TestEdgeIndicator:
    def test_properties_small(self, cp_family_graphs):
        for name, G in cp_family_graphs.items():
            props = qg.indicator_properties(G)
            assert props["r2"] < 1e-12, name
            assert props["r3"] < 1e-12, name

    def test_properties_of_trivial_m24_in_bounded_memory(self):
        # r3 reads M_24's one (576, 576) Choi slab (d = 576) and r2 comes from
        # the Schur pass of the build; eps # eps over the sum N_a^3 = 13824 triples,
        # with whole (13824, d) stacks of rows and products, took 370 MiB
        G = qg.trivial_graph(qg.validate_delta_form([24], [[1 / 24] * 24]))
        props, peak = traced_peak(lambda: qg.indicator_properties(G))
        assert max(props.values()) < 1e-12
        assert peak < 128 * 2**20

    def test_properties_of_a_classical_graph_read_only_its_edges(self):
        # the 2000-cycle plus hub: 3999 edges, where one dense (d, d) complex
        # eps, A - A_eps, twist or dagger is 61 MiB (305 MiB traced in all)
        n = 2000
        adj = np.roll(np.eye(n, dtype=int), 1, axis=0)
        adj[:, 0] = 1
        G = qg.classical_graph(adj)
        props, peak = traced_peak(lambda: qg.indicator_properties(G))
        assert max(props.values()) < 1e-12
        assert peak < 2**20

    @given(psi=delta_states(SMALL_SIZES + SCATTERED_SIZES), seed=st_.integers(0, 2**32 - 1), zeroed=st_.booleans())
    @settings(max_examples=25, deadline=None)
    def test_slab_residuals_match_dense_oracle_on_random_maps(self, psi, seed, zeroed):
        # a random complex map, neither Schur-idempotent nor CP, keeps r2 and r3 O(1),
        # so a lost row weight, W or adjoint shows; some block pairs may be zero.  The
        # round trip A -> eps -> A (the oracle's r1) holds for it too, to rounding,
        # which is why the library does not read it
        rng = np.random.default_rng(seed)
        st = psi.structure
        A = qg.LinearMapOnB(st, rng.normal(size=(st.dim, st.dim)) + 1j * rng.normal(size=(st.dim, st.dim)))
        if zeroed:
            A = zero_block_pairs(A, rng)
        G = qg.QuantumGraph(st, psi, A)  # skips the Schur and Choi gates on purpose
        got, want = qg.indicator_properties(G), indicator_properties_oracle(G)
        for key in ("r2", "r3"):
            assert want[key] > 1e-6 or not A.choi_slabs, key
        for key in got:
            assert abs(got[key] - want[key]) <= 1e-12 * max(1e-3, want[key]), key
        assert want["r1"] <= 1e-12 * max(1.0, np.abs(A.matrix).max())

    @given(psi=delta_states(), seed=st_.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_r2_is_bounded_by_the_schur_residual(self, psi, seed):
        # eps # eps - eps is the Schur defect with row (r, i) weighted by 1/w_i, over
        # delta^4, and 1/w_i <= sum_j 1/w_j = delta^2: r2 <= schur_residual / delta^2 for
        # every linear map.  With delta^2 >= 1 and the load gating schur_residual at tol,
        # r2 cannot exceed tol on a graph that loads, so inspect reports it ungated
        rng = np.random.default_rng(seed)
        st = psi.structure
        A = qg.LinearMapOnB(st, rng.normal(size=(st.dim, st.dim)) + 1j * rng.normal(size=(st.dim, st.dim)))
        G = qg.QuantumGraph(st, psi, A)  # skips the Schur gate on purpose
        assert psi.delta_sq >= 1.0
        assert qg.indicator_properties(G)["r2"] <= G.schur_defects[0] / psi.delta_sq * (1 + 1e-12)

    @given(drawn=quantum_graphs(SMALL_SIZES + SCATTERED_SIZES))
    @settings(max_examples=15, deadline=None)
    def test_slab_residuals_match_dense_oracle_on_quantum_graphs(self, drawn):
        got, want = qg.indicator_properties(drawn[0]), indicator_properties_oracle(drawn[0])
        for key in got:
            assert abs(got[key] - want[key]) <= 1e-12 * max(1.0, want[key]), key

    def test_classical_indicator_is_transposed_matrix(self, graph_3cycle):
        eps = edge_indicator(graph_3cycle)
        adj = graph_3cycle.adjacency.matrix
        # eps = sum over edges i->j of e_j (x) e_i (reversed-edge indicator)
        assert np.allclose(eps.coeff, adj.T)

    def test_round_trip(self, cp_family_graphs):
        for name, G in cp_family_graphs.items():
            eps = edge_indicator(G)
            A2 = adjacency_from_indicator(eps, G.psi)
            assert np.allclose(A2.matrix, G.adjacency.matrix, atol=1e-10), name

    def test_rejects_non_idempotent(self, tracial_m2):
        bad = qg.TensorElement(tracial_m2.structure, RNG.normal(size=(4, 4)))
        with pytest.raises((qg.NotIdempotent, qg.NotModularSelfAdjoint)):
            adjacency_from_indicator(bad, tracial_m2)

    def test_rejects_a_nan_candidate(self, graph_complete_m2):
        coeff = edge_indicator(graph_complete_m2).coeff.copy()
        coeff[0, 0] = np.nan
        with pytest.raises(qg.NotIdempotent):
            adjacency_from_indicator(qg.TensorElement(graph_complete_m2.structure, coeff), graph_complete_m2.psi)

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
            flag, min_eig = qg.is_completely_positive(G.adjacency)
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
        flag, min_eig = qg.is_completely_positive(qg.LinearMapOnB(st, mat))
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
        flag, _ = qg.is_completely_positive(qg.LinearMapOnB(tracial_m2.structure, mat))
        assert flag is False

    def test_missing_pairs_read_as_zero_eigenvalues(self, graph_line):
        # the line's one edge leaves three zero slabs; the edgeless graph leaves all
        for G in (graph_line, qg.classical_graph(np.zeros((3, 3), dtype=int))):
            assert qg.is_completely_positive(G.adjacency) == (True, 0.0)

    @pytest.mark.parametrize("shift", [None, 1e-9, 1e-11])
    def test_verdict_and_kraus_ranks_do_not_move_with_scale(self, tracial_m2, shift):
        # one cut, relative to the largest Choi eigenvalue, decides both: an eigenvalue at
        # -1e-9 of the largest fails at every scale, one at -1e-11 passes and adds no
        # Kraus direction.  A floor of 1e-10 read -1e-9 x 5.8e-3 as PSD at c = 1e-3
        st = tracial_m2.structure
        A = random_cp_map(tracial_m2, np.random.default_rng(7))
        if shift is not None:
            A = subtract_kraus_direction(A, shift)
        verdicts, ranks = [], []
        for c in (1e-3, 1.0, 1e3):
            cA = qg.LinearMapOnB(st, c * A.matrix)
            verdicts.append(qg.is_completely_positive(cA)[0])
            if verdicts[-1]:
                ranks.append(qg.build_edge_correspondence(qg.QuantumGraph(st, tracial_m2, cA)).mult.tolist())
        assert verdicts == [shift != 1e-9] * 3
        assert ranks == ([] if shift == 1e-9 else [[[2]]] * 3)

    def test_hermitian_guard_reads_the_map_scale(self):
        # x -> c (x + i x^T) on tracial M_2 is not Hermitian-preserving at any scale: the
        # guard compares each slab's ||H - H*|| with 1e-8 times A's largest slab norm (a floor
        # of 1e-8 read it as CP from c = 1e-9 down)
        psi = qg.validate_delta_form([2], [[0.5, 0.5]])
        st = psi.structure
        T = np.zeros((4, 4))
        for i in range(2):
            for j in range(2):
                T[st.flat_index(0, j, i), st.flat_index(0, i, j)] = 1.0
        for c in 10.0 ** -np.arange(0, 13, 3):
            assert qg.is_completely_positive(qg.LinearMapOnB(st, c * (np.eye(4) + 1j * T)))[0] is False, c
        # a CP map on M_1 + M_2 whose pair (1, 1) is scaled to norm 1e-12 and carries 1e-17
        # non-Hermitian noise: 1e-5 of its own norm, but far below A's scale, so it stays CP
        psi = qg.validate_delta_form([1, 2], [[1 / 6], [(5 + np.sqrt(5)) / 12, (5 - np.sqrt(5)) / 12]])
        A = random_cp_map(psi, np.random.default_rng(3)).matrix
        A[1:, 1:] *= 1e-12 / np.linalg.norm(A[1:, 1:])
        A[2, 1] += 1e-17j
        A = qg.LinearMapOnB(psi.structure, A)
        assert not any(f.any() for f in A.choi_faults) and qg.is_completely_positive(A)[0] is True
        (H,) = [H[0] for pairs, H in A.choi_slabs if pairs[0].tolist() == [1, 1]]
        assert np.linalg.norm(H - H.conj().T) > 1e-8 * np.linalg.norm(H)

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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf in the Hermitian defect
    @pytest.mark.parametrize("value", [np.inf, np.nan, 1j])
    def test_faulty_slabs_are_nonzero_pairs(self, value):
        # on C^2 A is 1 on block 0 into block 0, and its pair (0, 1) fails the Choi guard:
        # that pair is one where A does not vanish, and no eigh reads it
        c2 = qg.validate_delta_form([1, 1], [[0.5], [0.5]])
        A = np.array([[1.0, 0.0], [value, 0.0]], dtype=complex)
        G = qg.QuantumGraph(c2.structure, c2, qg.LinearMapOnB(c2.structure, A))
        assert qg.quantum_sources_sinks(G) == ([1], [])
        assert G.choi[0] is False

    @given(psi=delta_states(SMALL_SIZES + SCATTERED_SIZES), seed=st_.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_sources_and_sinks_are_the_zero_rows_of_m(self, psi, seed):
        # a CP map with some block pairs zeroed and some scaled to 1e-5 (kept) or 1e-14
        # (below the cut): sources and sinks are the zero rows and columns of the pairs whose
        # dense Choi block has an eigenvalue past 1e-10 of the largest, those of M, the ones
        # faithful_full_report reads, and no scale c of A moves them
        rng = np.random.default_rng(seed)
        st, d, off = psi.structure, psi.structure.num_blocks, psi.structure.offsets
        mat = zero_block_pairs(random_cp_map(psi, rng), rng).matrix
        for (a, b), faint in np.ndenumerate(rng.choice([1.0, 1e-5, 1e-14], size=(d, d), p=[0.6, 0.2, 0.2])):
            mat[off[b] : off[b + 1], off[a] : off[a + 1]] *= faint
        lam = [np.linalg.eigvalsh(H) for H in choi_blocks_oracle(qg.LinearMapOnB(st, mat))]
        cut = qg.graphs.GRAM_CUTOFF_RTOL * max(1e-300, *(x.max() for x in lam))
        nonzero = np.reshape([np.abs(x).max() > cut for x in lam], (d, d))
        want = np.flatnonzero(~nonzero.any(axis=1)).tolist(), np.flatnonzero(~nonzero.any(axis=0)).tolist()
        for c in (1.0, 1e-12, 1e12):
            G = qg.QuantumGraph(st, psi, qg.LinearMapOnB(st, c * mat))
            E = qg.build_edge_correspondence(G)
            assert qg.quantum_sources_sinks(G) == want, c
            assert (np.flatnonzero(~E.mult.any(axis=1)).tolist(), np.flatnonzero(~E.mult.any(axis=0)).tolist()) == want, c
            rep = qg.faithful_full_report(E)
            assert (rep["sources"], rep["sinks"]) == want and (rep["faithful"], rep["full"]) == (not want[0], not want[1]), c


class TestAdjointMap:
    @pytest.mark.parametrize("seed", range(5))
    def test_gns_adjoint_identity(self, skew_m2, seed):
        rng = np.random.default_rng(seed)
        st = skew_m2.structure
        A = qg.LinearMapOnB(st, rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        Astar = qg.adjoint_map(A, skew_m2)
        x, y = random_element(st, rng), random_element(st, rng)
        assert gns_inner(apply_map(A, x), y, skew_m2) == pytest.approx(
            gns_inner(x, apply_map(Astar, y), skew_m2)
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
        kind=st_.sampled_from(["cp", "zeroed", "near_cut", "transpose", "non_hermitian", "non_finite"]),
    )
    @settings(max_examples=60, deadline=None)
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf on non-finite maps
    def test_matches_the_slab_loop(self, psi, seed, kind):
        rng = np.random.default_rng(seed)
        st = psi.structure
        mat = random_cp_map(psi, rng).matrix
        if kind == "zeroed":  # some block pairs missing from the slabs, each a zero Choi slab
            mat = zero_block_pairs(qg.LinearMapOnB(st, mat), rng).matrix
        elif kind == "near_cut":  # a least eigenvalue a decade beyond -cut, or a decade inside it
            mat = subtract_kraus_direction(qg.LinearMapOnB(st, mat), rng.choice([1e-9, 1e-11])).matrix
        elif kind == "transpose":  # x -> A(x)^T: Hermitian slabs, indefinite where N_b > 1
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
        (flag, value), (want_flag, want) = qg.is_completely_positive(A), choi_test_oracle(A)
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

    @given(psi=delta_states(), seed=st_.integers(0, 2**32 - 1), kraus=st_.integers(1, 3))
    @settings(max_examples=25, deadline=None)
    def test_random_completely_positive_maps(self, psi, seed, kraus):
        # not multiplicative, so every unit pair is weighted by (g_s delta^2)^2 on a skewed state
        G = qg.QuantumGraph(psi.structure, psi, random_cp_map(psi, np.random.default_rng(seed), kraus))
        got, want = qg.homomorphism_check(G), homomorphism_oracle(G)
        for key, value in want.items():
            assert abs(got[key] - value) <= 1e-12 * max(1.0, value), key

    @given(psi=delta_states(), seed=st_.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_indicator_shift_is_the_oracle_table_on_any_map(self, psi, seed):
        """The indicator-shift table is the multiplicativity table read through the
        star permutation for every linear map, so the Choi gate is lifted here to
        compare on complex maps that are not completely positive."""
        st, rng = psi.structure, np.random.default_rng(seed)
        A = qg.LinearMapOnB(st, rng.normal(size=(st.dim, st.dim)) + 1j * rng.normal(size=(st.dim, st.dim)))
        G = qg.QuantumGraph(st, psi, A)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(qg.graphs, "require_completely_positive", lambda G: None)
            got = qg.homomorphism_check(G)["indicator_shift"]
        row_groups = np.flatnonzero(st.unit_indices[2] == 0)
        want = np.sqrt(np.add.reduceat(indicator_shift_table(G), row_groups, axis=0).max())
        assert got == pytest.approx(want, rel=1e-12)

    def test_forms_one_unit_pair_table(self, monkeypatch, nontracial_m1_m2):
        G = qg.complete_graph(nontracial_m1_m2)
        calls, pair_defects = [], qg.graphs.pair_defects

        def counted(*args):
            calls.append(args)
            return pair_defects(*args)

        monkeypatch.setattr(qg.graphs, "pair_defects", counted)
        qg.homomorphism_check(G)
        assert len(calls) == 1
        assert "indicator" not in vars(G)  # the edge indicator is never formed

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

    def test_forms_its_d3_stacks_in_chunks(self, trivial_m16):
        # whole, each matmul of pairwise products [(s, i), (q, j)] would be 256 MiB
        qg.homomorphism_check(trivial_m16)  # caches the Choi verdict and m's triples
        rep, peak = traced_peak(lambda: qg.homomorphism_check(trivial_m16))
        assert rep == {"multiplicativity": 0.0, "indicator_shift": 0.0}
        assert peak < 128 * 2**20

    def test_chunks_of_one_unit_give_the_same_values(self, monkeypatch, nontracial_m1_m2):
        rng = np.random.default_rng(5)
        psi, st = nontracial_m1_m2, nontracial_m1_m2.structure
        G = qg.QuantumGraph(st, psi, random_cp_map(psi, rng))  # skips the Schur gate on purpose
        G2 = qg.QuantumGraph(st, psi, random_cp_map(psi, rng))
        images = rng.normal(size=(st.dim, st.dim, 2, 2)) + 1j * rng.normal(size=(st.dim, st.dim, 2, 2))
        random = (G, G2, qg.OperatorValuedMap(st, st, images))
        # the trivial graph and the identity map are multiplicative: every unit pair reads 0
        trivial = (qg.trivial_graph(psi), qg.trivial_graph(psi), qg.OperatorValuedMap.identity(st, 2))

        def reports():
            return [
                {**qg.homomorphism_check(G1), **qg.quantum_isomorphism_residual(G1, G2, theta)}
                for G1, G2, theta in (random, trivial)
            ]

        row_chunks, chunks = qg.blocks._row_chunks, []

        def counted(*args):
            chunks.extend(got := list(row_chunks(*args)))
            return got

        monkeypatch.setattr(qg.blocks, "_row_chunks", counted)
        whole, whole_chunks = reports(), list(chunks)
        monkeypatch.setattr(qg.blocks, "_CHUNK_ENTRIES", 1)
        chunked = reports()
        # per report set, the one table on B (the indicator shift is read off it) reads the 9
        # triples of its size-1 group and the 5 rows of its size-2 group, and the theta check the
        # 5 rows of each of the groups of sizes 2 and 4 on B (x) M_2: whole, one chunk each, then
        # one triple or row per chunk
        assert [c.stop - c.start for c in whole_chunks] == [9, 5, 5, 5] * 2
        assert [c.stop - c.start for c in chunks[len(whole_chunks) :]] == [1] * (9 + 5 + 5 + 5) * 2
        assert all(value > 1e-6 for value in whole[0].values())
        assert whole[1]["multiplicativity"] == whole[1]["homomorphism"] == 0.0
        for got, want in zip(chunked, whole, strict=True):
            assert got.keys() == want.keys()
            for key, value in want.items():
                assert got[key] == pytest.approx(value, rel=1e-12, abs=1e-300), key

    def test_classical_200_in_bounded_memory(self):
        # C^200: a few (d, d) tables of pairwise norms (3.1 MiB measured), where
        # one chunk of the (d, d, d) stack of unit-pair products took 16 MiB
        adj = np.roll(np.eye(200, dtype=int), 1, axis=0)
        adj[:, 0] = 1
        G = qg.classical_graph(adj)
        qg.homomorphism_check(G)  # caches the Choi verdict, the indicator and m's triples
        rep, peak = traced_peak(lambda: qg.homomorphism_check(G))
        assert rep["multiplicativity"] > 0.1 and rep["indicator_shift"] > 0.1
        assert peak < 16 * 8 * 200**2

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
        cols.append(multiply_down(t).vec)
    return np.column_stack(cols)


def schur_residual_oracle(psi, A):
    """||m (A x A) m* - delta^2 A|| over the whole matrix of A."""
    return np.linalg.norm(schur_square_oracle(psi, A) - psi.delta_sq * A.matrix)


def indicator_adjacency_oracle(xi, psi):
    """Columns delta^2 (psi x 1)(b_p . xi)."""
    st = psi.structure
    t = qg.TensorElement(st, xi)
    return np.column_stack(
        [psi.delta_sq * partial_psi_left(left_mul(t, x), psi).vec for x in units(st)]
    )


def homomorphism_oracle(G):
    eps = edge_indicator(G)

    def A(x):
        return apply_map(G.adjacency, x)

    mult = shift = 0.0
    for x in units(G.structure):
        for y in units(G.structure):
            xy = x * y
            mult = max(mult, (A(xy) - A(x) * A(y)).norm())
            shift = max(shift, (left_mul(eps, xy) - right_mul(left_mul(eps, x), A(y))).norm())
    return {"multiplicativity": mult, "indicator_shift": shift}


def cp_residual_oracle(E):
    """The B (x)_A B model as a second quotient module, with generator stacks
    built pair by pair; returns its dimension and the isomorphism residual."""
    G = E.graph
    st = G.structure
    d2 = st.dim * st.dim
    F = quotient(tensor_square_module(G.psi, G.adjacency.matrix), np.eye(d2, dtype=complex))
    eye2 = np.eye(d2, dtype=complex)
    gE, hF = [], []
    for p, x in enumerate(units(st)):
        for q, y in enumerate(units(st)):
            gE.append(left_act(E, x, right_act(E, E.generator, y)))
            hF.append(F.project(eye2[p * st.dim + q]) / np.sqrt(G.delta_sq))
    gE, hF = np.array(gE), np.array(hF)
    innerE = np.einsum("xi,yj,ijd->xyd", gE.conj(), gE, dense_actions(E)[2])
    innerF = np.einsum("xi,yj,ijd->xyd", hF.conj(), hF, F.binner)
    return F.size, float(np.abs(innerE - innerF).max())


def fock_covariance_oracle(F):
    """Worst Frobenius norm of pi(f_ij) - sum_k T(f_ik.eps)T(f_jk.eps)* on
    levels 1..N-1 of the built truncation F, unit by unit."""
    E = F.edge
    psi = F.graph.psi
    worst = 0.0
    for l in range(1, F.depth):
        for a, n in enumerate(psi.structure.sizes):
            T = {
                (i, k): creation_matrix(
                    F, l - 1, left_act(E, adapted_unit(a, i, k, psi), E.generator)
                )
                for i in range(n)
                for k in range(n)
            }
            for i in range(n):
                for j in range(n):
                    lhs = pi_level(F, l, adapted_unit(a, i, j, psi))
                    rhs = sum(T[i, k] @ T[j, k].conj().T for k in range(n))
                    worst = max(worst, float(np.linalg.norm(lhs - rhs)))
    return worst


def quantum_isomorphism_oracle(G1, G2, theta):
    """The quantum-isomorphism residuals with one unit (or unit pair) at a time."""
    st1, st2 = G1.structure, G2.structure
    h = theta.h
    eye = np.eye(st1.dim, dtype=complex)
    mt1, mt2 = mul_tensor(st1), mul_tensor(st2)
    hom = np.linalg.norm(
        theta.apply_vec(st1.unit_vector)
        - qg.OperatorValuedMap.identity(st2, h).apply_vec(st2.unit_vector)
    )
    state = adj = 0.0
    for p in range(st1.dim):
        ip = theta.images[p]
        hom = max(hom, np.linalg.norm(theta.apply_vec(eye[st1.star_perm[p]]) - theta.star(ip)))
        for q in range(st1.dim):
            lhs = theta.apply_vec(mt1[:, p, q].astype(complex))
            prod = np.einsum("uvw,vkl,wlm->ukm", mt2, ip, theta.images[q])
            hom = max(hom, np.linalg.norm(lhs - prod))
        sliced = np.einsum("q,qkl->kl", G2.psi.psi_vec, ip)
        state = max(state, np.linalg.norm(sliced - G1.psi.psi_vec[p] * np.eye(h)))
        lhs = np.einsum("rq,qkl->rkl", G2.adjacency.matrix, ip)
        adj = max(adj, np.linalg.norm(lhs - theta.apply_vec(G1.adjacency.matrix[:, p])))
    return {"homomorphism": hom, "state_covariance": state, "adjacency_covariance": adj}


def assert_pair_defects_match(G, rng):
    """homomorphism_check and quantum_isomorphism_residual against the loops over unit pairs."""
    st = G.structure
    got = qg.homomorphism_check(G)
    for key, want in homomorphism_oracle(G).items():
        assert abs(got[key] - want) <= 1e-12 * max(1.0, want), key
    images = rng.normal(size=(st.dim, st.dim, 2, 2)) + 1j * rng.normal(size=(st.dim, st.dim, 2, 2))
    theta = qg.OperatorValuedMap(st, st, images)
    got = qg.quantum_isomorphism_residual(G, G, theta)
    for key, want in quantum_isomorphism_oracle(G, G, theta).items():
        assert abs(got[key] - want) <= 1e-12 * max(1.0, want), key


class TestPairwiseDefects:
    """The unit-pair checks from pairwise norms plus m's triples, on size groups
    that are gathered from blocks that are not contiguous."""

    @given(drawn=quantum_graphs(SCATTERED_SIZES), seed=st_.integers(0, 2**32 - 1))
    @settings(max_examples=5, deadline=None)
    def test_quantum_graphs(self, drawn, seed):
        assert_pair_defects_match(drawn[0], np.random.default_rng(seed))

    @given(psi=delta_states(SCATTERED_SIZES), seed=st_.integers(0, 2**32 - 1))
    @settings(max_examples=5, deadline=None)
    def test_random_cp_maps(self, psi, seed):
        rng = np.random.default_rng(seed)
        G = qg.QuantumGraph(psi.structure, psi, random_cp_map(psi, rng))  # skips the Schur gate on purpose
        assert min(qg.homomorphism_check(G).values()) > 1e-6
        assert_pair_defects_match(G, rng)


def assert_flip_forms_match(G):
    """eps, A_eps and (sigma_{i/2} x 1)(eps), read through the star permutation and
    `modular_half_scale` as `indicator_properties_oracle` reads them, against their
    dense definitions: (1 x A) applied to the adjoint of m at 1, the loop over units
    b_p . eps, and the diagonal matrix of sigma_{i/2} by columns."""
    psi, st, A = G.psi, G.structure, G.adjacency.matrix
    eps = edge_indicator(G)
    want = comultiply_adjoint_oracle(qg.AlgebraElement.unit(st), psi).coeff @ A.T / G.delta_sq
    assert close(eps.coeff, want, rel=1e-15)
    assert close(indicator_adjacency(eps.coeff, psi), indicator_adjacency_oracle(eps.coeff, psi), rel=1e-15)
    sigma = np.column_stack([modular_half(x, psi).vec for x in units(st)])
    assert close(psi.modular_half_scale[:, None] * eps.coeff, sigma @ eps.coeff, rel=1e-15)


def assert_slabs_match_oracle(A):
    """The pairs of `choi_slabs` are exactly those where the entry-by-entry
    oracle's slab has a nonzero entry, and each slab equals the oracle's."""
    d, oracle = A.structure.num_blocks, choi_blocks_oracle(A)
    got = sorted(tuple(p) for pairs, _ in A.choi_slabs for p in pairs.tolist())
    assert got == [divmod(k, d) for k, H in enumerate(oracle) if H.any()]
    for H, want in zip(choi_blocks(A), oracle, strict=True):
        assert close(H, want)


class TestNonzeroPairs:
    """`choi_slabs` holds A's block pairs with a nonzero entry and no others."""

    @given(drawn=quantum_graphs())
    @settings(max_examples=10, deadline=None)
    def test_quantum_graphs(self, drawn):
        assert_slabs_match_oracle(drawn[0].adjacency)

    @given(n=st_.integers(1, 6), seed=st_.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_classical_graphs(self, n, seed):
        adj = np.random.default_rng(seed).integers(0, 2, size=(n, n))
        G = qg.classical_graph(adj)
        assert_slabs_match_oracle(G.adjacency)
        assert sum(len(pairs) for pairs, _ in G.adjacency.choi_slabs) == adj.sum()

    @given(psi=delta_states(MIXED_SIZES), seed=st_.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_random_cp_maps_with_zeroed_pairs(self, psi, seed):
        rng = np.random.default_rng(seed)
        A = zero_block_pairs(random_cp_map(psi, rng), rng)
        assert_slabs_match_oracle(A)
        assert close(qg.schur_residual(psi, A)[0], schur_residual_oracle(psi, A))

    @pytest.mark.parametrize("sizes", [(1, 1), (2, 1)])
    def test_keeps_a_subnormal_pair(self, sizes):
        # 1e-310 squares to 0, so a squared-norm test would drop the pair
        psi = qg.validate_delta_form(list(sizes), [[n / sum(m * m for m in sizes)] * n for n in sizes])
        st = psi.structure
        mat = np.zeros((st.dim, st.dim), dtype=complex)
        mat[st.flat_index(1, 0, 0), st.flat_index(0, 0, sizes[0] - 1)] = 1e-310
        assert 1e-310**2 == 0.0
        A = qg.LinearMapOnB(st, mat)
        assert [pairs.tolist() for pairs, _ in A.choi_slabs] == [[[0, 1]]]
        assert_slabs_match_oracle(A)


class TestBatchedFormsMatchLoops:
    # m*(1), psi(b_p b_q) and sigma_{i/2} are index maps and scales, not matrices
    @given(drawn=quantum_graphs())
    @settings(max_examples=10, deadline=None)
    def test_flip_forms_on_quantum_graphs(self, drawn):
        assert_flip_forms_match(drawn[0])

    @given(psi=delta_states(), seed=st_.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_flip_forms_on_random_cp_maps(self, psi, seed):
        G = qg.QuantumGraph(psi.structure, psi, random_cp_map(psi, np.random.default_rng(seed)))
        assert_flip_forms_match(G)

    @given(psi=delta_states(), seed=st_.integers(0, 2**32 - 1))
    # a Kraus direction of pair (2, 0) at 3.7e-6 of the largest Choi eigenvalue
    @example(psi=qg.validate_delta_form([1, 1, 2], [[1 / 6], [1 / 6], [1 / 3, 1 / 3]]), seed=55670030)
    @settings(max_examples=10, deadline=None)
    def test_library_matches_loop_oracles(self, psi, seed):
        # random xi and a random CP but non-Schur A keep every residual O(1)
        rng = np.random.default_rng(seed)
        st = psi.structure
        A = random_cp_map(psi, rng)
        xi = rng.normal(size=(st.dim, st.dim)) + 1j * rng.normal(size=(st.dim, st.dim))
        assert close(qg.schur_residual(psi, A)[0], schur_residual_oracle(psi, A))
        assert close(indicator_adjacency(xi, psi), indicator_adjacency_oracle(xi, psi))

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
        sub = quotient(D.ambient, v)
        lmul, rmul, closure = quotient_actions_oracle(sub)
        assert close(sub.lmul, lmul) and close(sub.rmul, rmul)
        assert closure > 1e-6 or E.size == 1

        assert_slabs_match_oracle(A)

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
        want = fock_covariance_oracle(built_fock(F))
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
        for U, X, Y in zip(orbit_unitaries(F, D)[0], built_fock(F).levels, D.levels, strict=True):
            got_l, got_r, _ = carried(U, X)
            assert close(got_l, Y.lmul, rel) and close(got_r, Y.rmul, rel)

    @pytest.mark.parametrize("make", [qg.complete_graph, qg.trivial_graph], ids=["complete", "trivial"])
    def test_fock_covariance_on_a_non_tracial_state(self, make, nontracial_m1_m2):
        # the M_2 block's weights differ, so the scale 1 / min w_a of the
        # covariance defect is seen; an O(1) change of eps makes it O(1)
        F = qg.build_fock(make(nontracial_m1_m2), 3)
        noise = [1, 1j] @ np.random.default_rng(31).normal(size=(2, F.edge.size))
        F = replace(F, edge=with_generator(F.edge, F.edge.generator + 0.5 * noise))
        want = fock_covariance_oracle(built_fock(F))
        assert want > 1e-6 and close(qg.representation_residuals(F)["covariance"], want)
