import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st_
import oracles
from oracles import (
    CorrVector,
    adapted_unit,
    algebra_module,
    apply_map,
    b_inner,
    b_inner_coords,
    carried,
    close,
    compact_decomposition_oracle,
    cp_correspondence_oracle,
    cp_model_dim,
    dense_actions,
    dense_edge_correspondence,
    edge_indicator,
    left_act,
    left_kernel_oracle,
    orbit_gram,
    orbit_span_rank,
    psi_tensor_coords,
    quotient,
    quotient_actions_oracle,
    random_cp_map,
    rank_one_operator,
    recognize,
    state_value,
    tensor_square_module,
    unit_orbit,
)
from strategies import SCATTERED_SIZES, SMALL_SIZES, delta_states, quantum_graphs

import qgraph as qg
from qgraph.correspondence import _layout, from_spanning

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
        D = quotient(algebra_module(skew_m2), np.eye(dim, dtype=complex))
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
            scalar_gram = dense_actions(E)[2] @ G.psi.psi_vec
            assert np.allclose(scalar_gram, np.eye(E.size), atol=1e-10), name

    def test_actions_commute(self, graph_rank_one):
        E = qg.build_edge_correspondence(graph_rank_one)
        st = graph_rank_one.structure
        lmul, rmul, _ = dense_actions(E)
        for p in range(st.dim):
            for q in range(st.dim):
                assert np.allclose(
                    lmul[p] @ rmul[q], rmul[q] @ lmul[p], atol=1e-10
                )

    def test_from_spanning_rejects_indefinite_gram(self, tracial_m2):
        amb = algebra_module(tracial_m2)
        bad = tensor_square_module(tracial_m2, -np.eye(4))
        with pytest.raises(qg.NotCompletelyPositive):
            from_spanning(bad.scalar_gram, np.eye(16, dtype=complex))
        # sanity: the honest ambient passes
        from_spanning(amb.scalar_gram, np.eye(4, dtype=complex))

    @pytest.mark.parametrize("c", [1e6, 1.0, 1e-3, 1e-9, 1e-15])
    def test_gram_refusal_does_not_move_with_scale(self, c):
        # the refusal cut is -1e-8 times the Gram's own largest eigenvalue: c diag(1, -1e-6)
        # is refused and c diag(1, -1e-10) kept to rank 1 at every scale (an absolute
        # floor of 1e-8 accepted the first from c = 1e-3 on)
        eye = np.eye(2, dtype=complex)
        with pytest.raises(qg.NotCompletelyPositive):
            from_spanning(c * np.diag([1.0, -1e-6]), eye)
        assert from_spanning(c * np.diag([1.0, -1e-10]), eye).shape == (1, 2)


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
                xi = left_act(E, unit(st, p), E.generator)
                for q in range(st.dim):
                    eta = left_act(E, unit(st, q), E.generator)
                    lhs = b_inner_coords(E, xi, eta)
                    prod = unit(st, p).star() * unit(st, q)
                    rhs = apply_map(G.adjacency, prod).vec / G.delta_sq
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

    @pytest.mark.parametrize("t, rank", [(1e-4, 2), (1e-7, 1)])
    def test_rank_is_cut_on_the_choi_scale(self, t, rank):
        # A = K1 . K1* + t^2 K2 . K2* on M_2: the cut reads quantities linear in
        # the Choi slab, so a Kraus direction of relative weight t^2 = 1e-8 stays
        # and one of 1e-14 goes; a cut on their squares loses both.  The cut is
        # on the eigenvalues of the unweighted slab, so skewed states keep it
        rng = np.random.default_rng(6)
        K1, K2 = rng.normal(size=(2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2))
        A = np.kron(K1, K1.conj()) + t**2 * np.kron(K2, K2.conj())
        for weights in ([0.5, 0.5], [1 / 3, 2 / 3], [1e-3, 1 - 1e-3]):
            psi = qg.validate_delta_form([2], [weights])
            E = qg.build_edge_correspondence(qg.QuantumGraph(psi.structure, psi, qg.LinearMapOnB(psi.structure, A)))
            assert E.mult.tolist() == [[rank]], weights

    def test_skewed_draw_keeps_its_small_kraus_direction(self):
        # random_cp_map(psi, default_rng(55670030)) on C + C + M_2: pair (2, 0)
        # has Choi eigenvalues 6.7e-5 and 3.87, the largest of all is 18.1; a
        # cut on the squares read M[2, 0] = 1 and dim E = 26
        psi = qg.validate_delta_form([1, 1, 2], [[1 / 6], [1 / 6], [1 / 3, 1 / 3]])
        G = qg.QuantumGraph(psi.structure, psi, random_cp_map(psi, np.random.default_rng(55670030)))
        E = qg.build_edge_correspondence(G)
        assert E.mult[2, 0] == 2
        assert E.size == cp_model_dim(G) == 28

    def test_skewed_draw_generates_its_whole_module(self):
        # the same draw: its generator spans all 28 dimensions, which a cut on
        # the eigenvalues of Xi* Xi, the squares, read as 26 (NotGenerating);
        # recognize goes on to the Schur gate, which this map fails
        psi = qg.validate_delta_form([1, 1, 2], [[1 / 6], [1 / 6], [1 / 3, 1 / 3]])
        G = qg.QuantumGraph(psi.structure, psi, random_cp_map(psi, np.random.default_rng(55670030)))
        E = qg.build_edge_correspondence(G)
        assert qg.cyclic_dim(E) == orbit_span_rank(E, E.generator) == E.size == 28
        with pytest.raises(qg.NotQuantumAdjacency, match="Schur idempotency"):
            recognize(E.generator, psi, module=E)

    def test_inner_product_positivity(self, graph_complete_m2):
        E = qg.build_edge_correspondence(graph_complete_m2)
        st = graph_complete_m2.structure
        for _ in range(5):
            v = RNG.normal(size=E.size) + 1j * RNG.normal(size=E.size)
            x = qg.AlgebraElement.from_vector(st, b_inner_coords(E, v, v))
            assert (x - x.star()).norm() < 1e-10
            for blk in x.blocks:
                assert np.linalg.eigvalsh((blk + blk.conj().T) / 2).min() > -1e-10

    def test_b_inner_wrapper(self, graph_trivial_m2):
        E = qg.build_edge_correspondence(graph_trivial_m2)
        v = CorrVector(E, np.eye(E.size, dtype=complex)[0])
        out = b_inner(v, v, E)
        assert isinstance(out, qg.AlgebraElement)
        assert abs(state_value(E.psi, out) - 1.0) < 1e-10  # scalar-normalized basis

    def test_b_inner_refuses_vectors_of_another_correspondence(self, graph_trivial_m2, graph_trivial_skew):
        # both have dim E = 4; read with the tracial inner product, the skewed
        # generator would give (0.148, 0, 0, 0.296) instead of its own
        # (0.222, 0, 0, 0.222)
        tracial, skew = (qg.build_edge_correspondence(G) for G in (graph_trivial_m2, graph_trivial_skew))
        v = CorrVector(skew, skew.generator)
        assert np.allclose(b_inner(v, v, skew).vec, [2 / 9, 0, 0, 2 / 9])
        for args in ((v, v), (v, CorrVector(tracial, tracial.generator)), (CorrVector(tracial, tracial.generator), v)):
            with pytest.raises(qg.MismatchedBase):
                b_inner(*args, tracial)

    def test_cp_model_isomorphism(self, cp_family_graphs):
        for name, G in cp_family_graphs.items():
            residual = qg.cp_correspondence(qg.build_edge_correspondence(G))
            assert residual < 1e-9, name
            assert cp_model_dim(G) == EXPECTED_DIM_E[name], name


class TestNonzeroFormMatchesDenseOracle:
    """E_G stored as nonzeros against the Gram quotient of B (x)_psi B."""

    @given(psi=delta_states(), seed=st_.integers(0, 2**32 - 1), source=st_.booleans())
    @settings(max_examples=25, deadline=None)
    def test_random_completely_positive_maps(self, psi, seed, source):
        # a random CP map is not Schur-idempotent, so the cp and compact
        # residuals are O(1); with `source` on a multi-block B, block 0 is
        # put in ker A, and the left kernel is M_{N_0}
        rng = np.random.default_rng(seed)
        st = psi.structure
        A = random_cp_map(psi, rng).matrix
        source = source and st.num_blocks > 1
        if source:
            A[:, : st.offsets[1]] = 0.0
        G = qg.QuantumGraph(st, psi, qg.LinearMapOnB(st, A))
        E, D = qg.build_edge_correspondence(G), dense_edge_correspondence(G)
        # the Gram quotient squares the conditioning: on strongly skewed
        # states it can drop a Kraus direction that the Choi slabs resolve,
        # and then the two cannot be compared; it never finds one more
        assert D.size <= E.size
        assume(D.size == E.size)
        # unit actions and B-valued inner products, basis-free: the B-valued
        # Gram of the orbit b_p . eps . b_q, with E's inner product summed
        # from its nonzeros by the oracle and by the library
        want = orbit_gram(D, D.generator)
        assert close(orbit_gram(E, E.generator), want)
        orbit = unit_orbit(E, E.generator)
        assert close([b_inner_coords(E, v, orbit) for v in orbit], want)

        kern = qg.left_kernel(E)
        want_dim, dist = left_kernel_oracle(D, G, kern["kernel_basis"])
        assert kern["kernel_dim"] == want_dim == (st.sizes[0] ** 2 if source else 0)
        assert dist <= 1e-12
        for got, want in (
            (qg.cp_correspondence(E), cp_correspondence_oracle(D)),
            (qg.compact_decomposition_residual(E), compact_decomposition_oracle(D)),
        ):
            assert want > 1e-6 and close(got, want)

    @pytest.mark.parametrize("draw", [None] + list(range(8)))
    def test_compact_defect_is_basis_free(self, draw):
        # a unitary on each multiplicity space K_ab conjugates D_ab: its spectral norm, and so the
        # compact defect, stays within 1e-12 while the largest column norm of some D_ab moves;
        # draw None is psi = (1/3, 2/3) on M_2
        rng = np.random.default_rng(draw)
        sizes = [[2], [1, 2], [2, 2], [1, 1, 2]][0 if draw is None else draw % 4]
        r = [rng.uniform(0.1, 10.0, n) for n in sizes]
        delta_sq = sum(ra.sum() * (1.0 / ra).sum() for ra in r)
        weights = [[1 / 3, 2 / 3]] if draw is None else [ra * (1.0 / ra).sum() / delta_sq for ra in r]
        psi = qg.validate_delta_form(sizes, weights)
        A = random_cp_map(psi, np.random.default_rng(0) if draw is None else rng)
        E = qg.build_edge_correspondence(qg.QuantumGraph(psi.structure, psi, A))
        rotated = E.generator.copy()
        for pairs, X, _ in E.pair_slabs:
            g, na, m, nb = X.shape
            z = rng.normal(size=(2, g, m, m))
            U = np.linalg.qr(z[0] + 1j * z[1])[0]
            seg = E.layout[-1][pairs[:, 0] * len(sizes) + pairs[:, 1], None] + np.arange(na * m * nb)
            rotated[seg] = np.einsum("gkl,gjlm->gjkm", U, E.generator[seg].reshape(g, na, m, nb)).reshape(g, -1)
        Er = replace(E, generator=rotated)
        column = [np.concatenate([np.linalg.norm(D, axis=1).max(axis=1) for _, _, D in F.pair_slabs]) for F in (E, Er)]
        assert np.abs(column[0] - column[1]).max() > 1e-6 * column[0].max()
        want = qg.compact_decomposition_residual(E)
        assert want > 1e-6 and abs(qg.compact_decomposition_residual(Er) - want) <= 1e-12 * want

    def test_cp_correspondence_of_a_1000_vertex_graph_in_bounded_memory(self):
        """A 1000-cycle whose vertices also all point to vertex 0: the B (x)_A B defect
        reads one 1 x 1 orbit defect per edge, 1999 of them, and no (d, d) map of
        x -> <eps, x . eps>_B, 15 MiB; it peaked at 38 MiB with that map."""
        adj = np.roll(np.eye(1000, dtype=int), 1, axis=0)
        adj[:, 0] = 1
        E = qg.build_edge_correspondence(qg.classical_graph(adj))
        tracemalloc.start()
        try:
            residual = qg.cp_correspondence(E)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert residual <= 1e-12
        assert peak < 2**20

    @given(psi=delta_states(), seed=st_.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_perturbed_generator_fails_both_gates(self, psi, seed):
        # 1e-6 noise on eps breaks the compact decomposition and the
        # B (x)_A B model of the complete graph: checking on the row groups
        # alone leaves no defect unseen
        tol = qg.DEFAULT_TOL
        E = qg.build_edge_correspondence(qg.complete_graph(psi))
        assert qg.compact_decomposition_residual(E) <= tol
        assert qg.cp_correspondence(E) <= tol
        rng = np.random.default_rng(seed)
        noise = [1, 1j] @ rng.normal(size=(2, E.size))
        Ep = replace(E, generator=E.generator + 1e-6 * noise)
        assert qg.compact_decomposition_residual(Ep) > tol
        assert qg.cp_correspondence(Ep) > tol


class TestFaithfulFull:
    @given(drawn=quantum_graphs())
    @settings(max_examples=20, deadline=None)
    def test_multiplicity_matrix_is_the_drawn_ranks(self, drawn):
        # M[a, b] = rank P_ab, and the pairs of rank 0 decide sources and sinks
        G, rank = drawn
        E = qg.build_edge_correspondence(G)
        assert np.array_equal(E.mult, rank)
        report = qg.faithful_full_report(E)
        assert report["sources"] == np.flatnonzero(~rank.any(axis=1)).tolist()
        assert report["sinks"] == np.flatnonzero(~rank.any(axis=0)).tolist()

    def test_regular_families(self, cp_family_graphs):
        for name, G in cp_family_graphs.items():
            E = qg.build_edge_correspondence(G)
            rep = qg.faithful_full_report(E)
            assert rep["sources"] == np.flatnonzero(~E.mult.any(axis=1)).tolist(), name
            assert rep["sinks"] == np.flatnonzero(~E.mult.any(axis=0)).tolist(), name
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
        # one rule, quantum_sources_sinks, decides the kernel: the units of its source
        # blocks, which are M's zero rows, span the dense SVD's kernel; the line graph
        # is the one fixture whose sources and sinks differ
        assert "classical_line" in cp_family_graphs
        for name, G in cp_family_graphs.items():
            E = qg.build_edge_correspondence(G)
            kern = qg.left_kernel(E)
            sources, _ = qg.quantum_sources_sinks(G)
            assert sources == np.flatnonzero(~E.mult.any(axis=1)).tolist(), name
            assert kern["kernel_dim"] == sum(G.structure.sizes[a] ** 2 for a in sources), name
            want_dim, dist = left_kernel_oracle(E, G, kern["kernel_basis"])
            assert want_dim == kern["kernel_dim"] and dist <= 1e-9, name

    def test_complete_m2_plus_m3_is_faithful(self):
        # dim E = 13^2, so the kernel matrix has 13^4 rows and 13 columns
        psi = qg.validate_delta_form([2, 3], [[2 / 13] * 2, [3 / 13] * 3])
        E = qg.build_edge_correspondence(qg.complete_graph(psi))
        assert E.size == 169
        rep = qg.faithful_full_report(E)
        assert rep["faithful"] and rep["kernel_dim"] == 0

    def test_report_reads_block_masks(self):
        # a 200-cycle whose vertices also all point to vertex 0 (d = 200): the report
        # reads kernel_dim off the source blocks, with no table of the d units, where
        # left_kernel's dense (d, d) identity alone is 16 d^2 bytes
        adj = np.roll(np.eye(200, dtype=int), 1, axis=0)
        adj[:, 0] = 1
        G = qg.classical_graph(adj)
        E = qg.build_edge_correspondence(G)
        qg.quantum_sources_sinks(G)  # inspect reports the sources first, from A's Choi slabs
        tracemalloc.start()
        try:
            rep = qg.faithful_full_report(E)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep["faithful"] and rep["full"] and rep["kernel_dim"] == 0
        assert peak < 2 * G.structure.dim**2

    def test_fullness_ideal(self, graph_line, graph_3cycle):
        rep = qg.faithful_full_report(qg.build_edge_correspondence(graph_3cycle))
        # B . <E, E>_B . B is the sum of the blocks of M's nonzero columns, all but the sinks
        assert rep["full"] and rep["sinks"] == []
        rep = qg.faithful_full_report(qg.build_edge_correspondence(graph_line))
        assert not rep["full"] and rep["sinks"] == [1]

    @given(
        psi=delta_states(),
        seed=st_.integers(0, 2**32 - 1),
        sources=st_.sets(st_.integers(0, 2)),
        sinks=st_.sets(st_.integers(0, 2)),
    )
    @settings(max_examples=40, deadline=None)
    def test_both_sides_of_the_faithfulness_theorem(self, psi, seed, sources, sinks):
        # a CP map with its Kraus operators zeroed on chosen blocks: the zero
        # rows and columns of M (the Kraus ranks) are the blocks in ker A and
        # those A never reaches, and the kernel is the dense SVD's
        d = psi.structure.num_blocks
        sources, sinks = sorted(a for a in sources if a < d), sorted(b for b in sinks if b < d)
        A = random_cp_map(psi, np.random.default_rng(seed), sources=sources, sinks=sinks)
        G = qg.QuantumGraph(psi.structure, psi, A)
        # M[a, b] > 0 off the zeroed blocks, so A is 0 once either set is all
        if len(sources) == d or len(sinks) == d:
            sources = sinks = list(range(d))
        E = qg.build_edge_correspondence(G)
        zero_rows = np.flatnonzero(~E.mult.any(axis=1)).tolist()
        zero_cols = np.flatnonzero(~E.mult.any(axis=0)).tolist()
        assert (zero_rows, zero_cols) == qg.quantum_sources_sinks(G) == (sources, sinks)

        kern, rep = qg.left_kernel(E), qg.faithful_full_report(E)
        want_dim, dist = left_kernel_oracle(E, G, kern["kernel_basis"])
        assert kern["kernel_dim"] == want_dim and dist <= 1e-12
        assert kern["kernel_dim"] == sum(psi.structure.sizes[a] ** 2 for a in sources)
        lmul = dense_actions(E)[0]
        assert not np.einsum("kp,pxy->kxy", kern["kernel_basis"], lmul).any()
        assert (rep["sources"], rep["sinks"]) == (sources, sinks)
        assert rep["faithful"] == (kern["kernel_dim"] == 0)
        assert rep["full"] == (not sinks)

    def test_a_faint_block_is_a_source_on_both_sides_or_on_neither(self):
        # A on block 1 scaled to norm 1e-3 keeps its Kraus rank under the cut relative
        # to A, and to 1e-13 it falls below it: quantum_sources_sinks reads the same cut,
        # so no absolute threshold can make block 1 a source on one side only
        psi = qg.validate_delta_form([1, 2], [[1 / 6], [(5 + np.sqrt(5)) / 12, (5 - np.sqrt(5)) / 12]])
        for norm, sources in ((1e-3, []), (1e-13, [1])):
            A = random_cp_map(psi, np.random.default_rng(4)).matrix
            A[:, 1:] *= norm / np.linalg.norm(A[:, 1:])
            G = qg.QuantumGraph(psi.structure, psi, qg.LinearMapOnB(psi.structure, A))
            E = qg.build_edge_correspondence(G)
            assert qg.quantum_sources_sinks(G) == (sources, [])
            assert np.flatnonzero(~E.mult.any(axis=1)).tolist() == sources
            kern = qg.left_kernel(E)
            assert kern["kernel_dim"] == 4 * len(sources) and kern["kernel_basis"].shape == (4 * len(sources), 5)
            want_dim, dist = left_kernel_oracle(E, G, kern["kernel_basis"])
            assert want_dim == kern["kernel_dim"] and dist <= 1e-12


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


def low_rank_coordinates(E, rng):
    """Coordinates of E whose segment Xi_ac, read as an (N_a N_c, M_ac) matrix,
    has a random rank r_ac, and sum N_a N_c r_ac, the dimension they generate."""
    n, start = E.structure.sizes, E.layout[-1]
    coords, dim = np.zeros(E.size, dtype=complex), 0
    for a, c in np.argwhere(E.mult):
        rows, m, k = n[a] * n[c], E.mult[a, c], a * len(n) + c
        r = int(rng.integers(0, min(rows, m) + 1))
        L, R = (rng.normal(size=(*shape, 2)) @ [1, 1j] for shape in ((rows, r), (r, m)))
        coords[start[k] : start[k + 1]] = (L @ R).reshape(n[a], n[c], m).transpose(0, 2, 1).ravel()
        dim += rows * r
    return coords, dim


class TestCyclicDim:
    @given(drawn=quantum_graphs(SMALL_SIZES + SCATTERED_SIZES), seed=st_.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_eps_generates_e_and_matches_the_orbit_oracle(self, drawn, seed):
        # eps generates all of E_G = B . eps . B, and on vectors of drawn rank
        # per block pair the batched per-group SVDs read the rank of the whole
        # unit orbit b_p . xi . b_q
        E = qg.build_edge_correspondence(drawn[0])
        assert qg.cyclic_dim(E) == E.size
        coords, dim = low_rank_coordinates(E, np.random.default_rng(seed))
        assert qg.cyclic_dim(replace(E, generator=coords)) == orbit_span_rank(E, coords) == dim


class TestRecognition:
    def test_recovers_trivial_graph(self, graph_trivial_m2):
        eps = edge_indicator(graph_trivial_m2)
        out = recognize(eps, graph_trivial_m2.psi)
        assert np.allclose(
            out.graph.adjacency.matrix, graph_trivial_m2.adjacency.matrix, atol=1e-9
        )
        assert out.iso_residual < 1e-9

    def test_recovers_rank_one_graph(self, graph_rank_one):
        eps = edge_indicator(graph_rank_one)
        out = recognize(eps, graph_rank_one.psi)
        assert np.allclose(
            out.graph.adjacency.matrix, graph_rank_one.adjacency.matrix, atol=1e-9
        )
        assert out.iso_residual < 1e-9
        assert out.module_dim == 4

    def test_module_vector_path(self, graph_complete_c2):
        E = qg.build_edge_correspondence(graph_complete_c2)
        out = recognize(CorrVector(E, E.generator), graph_complete_c2.psi, module=E)
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
            recognize(xi, tracial_m2)

    def test_rejects_non_generating_vector(self, graph_complete_m2):
        E = qg.build_edge_correspondence(graph_complete_m2)
        # f_11 . eps generates only B f_11 . eps . B, a proper submodule
        f11 = adapted_unit(0, 0, 0, graph_complete_m2.psi)
        v = left_act(E, f11, E.generator)
        with pytest.raises(qg.NotGenerating):
            recognize(CorrVector(E, v), graph_complete_m2.psi, module=E)

    def test_module_dim_is_dim_e_on_built_in_graphs(self, cp_family_graphs):
        for name, G in cp_family_graphs.items():
            out = recognize(edge_indicator(G), G.psi)
            assert out.module_dim == qg.build_edge_correspondence(G).size, name
            assert out.iso_residual <= 1e-9, name

    @given(psi=delta_states())
    @settings(max_examples=15, deadline=None)
    def test_module_dim_is_dim_e_on_complete_graphs(self, psi):
        G = qg.complete_graph(psi)
        out = recognize(edge_indicator(G), psi)
        assert out.module_dim == qg.build_edge_correspondence(G).size == psi.structure.dim**2
        assert out.iso_residual <= 1e-9

    @given(
        psi=delta_states(),
        kind=st_.sampled_from(["complete", "trivial"]),
        vector=st_.sampled_from(["eps", "fii_eps", "eps_cut", "eps_faint", "eps_tiny"]),
        pick=st_.integers(0, 2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_module_dim_matches_the_orbit_oracle(self, psi, kind, vector, pick):
        # the span of the d^2 orbit rows b_p . xi . b_q against the per-pair
        # ranks, on eps, on f_ii . eps for a drawn unit, and on eps zeroed on a
        # drawn block pair or scaled there by 1e-7, above the one relative cut
        # on singular values that both take over all pairs, or by 1e-12, below it
        G = qg.complete_graph(psi) if kind == "complete" else qg.trivial_graph(psi)
        T = qg.psi_tensor_module(psi)
        out = recognize(edge_indicator(G), psi)
        assert out.module_dim == orbit_span_rank(T, psi_tensor_coords(psi, edge_indicator(G).coeff))

        E = qg.build_edge_correspondence(G)
        a = pick % psi.structure.num_blocks
        i = pick % psi.structure.sizes[a]
        v = E.generator
        if vector == "fii_eps":
            v = left_act(E, adapted_unit(a, i, i, psi), E.generator)
        elif vector != "eps":
            start = _layout(E.structure, E.mult)[-1]
            pair = np.flatnonzero(np.diff(start))[pick % np.count_nonzero(E.mult)]
            on_pair = (np.arange(E.size) >= start[pair]) & (np.arange(E.size) < start[pair + 1])
            v = np.where(on_pair, {"eps_cut": 0.0, "eps_faint": 1e-7, "eps_tiny": 1e-12}[vector] * v, v)
        want = orbit_span_rank(E, v)
        if want < E.size:
            with pytest.raises(qg.NotGenerating, match=f"a {want}-dimensional submodule"):
                recognize(v, psi, module=E)
        else:
            # v generates all of E, and recognize goes on to the Schur test,
            # which f_ii . eps and a cut eps may fail
            try:
                out = recognize(v, psi, module=E)
            except qg.NotQuantumAdjacency:
                assert vector != "eps"
            else:
                assert out.module_dim == want == E.size

    def test_orbit_oracle_on_a_skewed_state(self):
        # weights 6.7e-4 : 0.9985 : 8.2e-4 on M_3: the right action scales the
        # orbit rows by up to sqrt(1500), and before the oracle undid that
        # factor its one relative cut kept 75 of this sparse vector's 81
        # directions
        w = np.array([6.7e-4, 0.9985, 8.2e-4])
        psi = qg.validate_delta_form([3], [list(w / w.sum())])
        T = qg.psi_tensor_module(psi)
        rng = np.random.default_rng(36)
        xi = (rng.normal(size=T.size) + 1j * rng.normal(size=T.size)) * (rng.random(T.size) < 0.3)
        assert orbit_span_rank(T, xi) == qg.cyclic_dim(replace(T, generator=xi)) == 81

    def test_complete_m5_recognizes_in_bounded_memory(self):
        # one dense (d^2, d^2, d) inner-product array of B (x)_psi B is 156 MB
        psi = qg.validate_delta_form([5], [[1 / 5] * 5])
        eps = edge_indicator(qg.complete_graph(psi))
        tracemalloc.start()
        try:
            out = recognize(eps, psi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.module_dim == 625
        assert peak < 64 * 2**20

    @pytest.mark.parametrize(
        "case, error",
        [
            ("tensor_over_other_structure", qg.MismatchedBase),
            ("vector_of_other_module", qg.MismatchedBase),
            ("coordinates_of_wrong_size", qg.ShapeMismatch),
            ("module_over_other_structure", qg.MismatchedBase),
            ("module_over_other_state", qg.MismatchedBase),
            ("module_over_other_tiny_weight", qg.MismatchedBase),
        ],
    )
    def test_rejects_mismatched_inputs(
        self, case, error, tracial_m2, graph_complete_m2, graph_trivial_m2, graph_complete_c2, graph_trivial_skew
    ):
        E = qg.build_edge_correspondence(graph_complete_m2)
        other = {
            key: qg.build_edge_correspondence(G)
            for key, G in (("m2", graph_trivial_m2), ("c2", graph_complete_c2), ("skew", graph_trivial_skew))
        }
        # weights 1e-9 and 4e-9 differ by less than np.allclose's default atol
        tiny = [qg.validate_delta_form([2], [[w, 1 - w]]) for w in (1e-9, 4e-9)]
        other["tiny"] = qg.build_edge_correspondence(qg.trivial_graph(tiny[1]))
        args = {
            "tensor_over_other_structure": (edge_indicator(graph_complete_c2), tracial_m2),
            "vector_of_other_module": (CorrVector(other["m2"], other["m2"].generator), tracial_m2, E),
            "coordinates_of_wrong_size": (E.generator[:-1], tracial_m2, E),
            "module_over_other_structure": (other["c2"].generator, tracial_m2, other["c2"]),
            "module_over_other_state": (other["skew"].generator, tracial_m2, other["skew"]),
            "module_over_other_tiny_weight": (other["tiny"].generator, tiny[0], other["tiny"]),
        }[case]
        # refused before any module vector is read
        with mock.patch.object(oracles, "_vector_map", side_effect=AssertionError):
            with pytest.raises(error):
                recognize(*args)
