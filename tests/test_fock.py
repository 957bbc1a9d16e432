import copy
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st_
from oracles import (
    BuiltFock,
    CorrVector,
    algebra_module,
    big_creation,
    built_fock,
    carried,
    close,
    cp_correspondence_oracle,
    creation_matrix,
    dense_actions,
    dense_creation,
    dense_edge_correspondence,
    dense_fock,
    dense_inner_defect,
    edge_indicator,
    edge_unitary,
    full_fock_family,
    full_fock_residuals,
    level_slice,
    oracle_defect,
    orbit_unitaries,
    pi_level,
    random_cp_map,
    recognize,
    recognize_iso_oracle,
    right_act,
    left_act,
    with_generator,
    zero_block_pairs,
)
from strategies import SCATTERED_SIZES, SMALL_SIZES, delta_states, quantum_graphs

import qgraph as qg
import qgraph.fock
from qgraph.correspondence import multiplicity_spaces

RNG = np.random.default_rng(17)

EXPECTED_LEVEL_DIMS = {
    "complete_c2": (2, 4, 8, 16),
    "trivial_m2": (4, 4, 4, 4),
    "rank_one": (4, 4, 4, 4),
    "classical_3cycle": (3, 3, 3, 3),
}


def unit(st, p):
    return qg.AlgebraElement.from_vector(st, np.eye(st.dim, dtype=complex)[p])


class TestInteriorTensor:
    def test_dim_is_path_count_for_classical(self):
        adj = np.array([[1, 1], [0, 1]])
        G = qg.classical_graph(adj)
        F = qg.build_fock(G, 3)
        # level n of a classical graph counts directed paths of length n
        for n in range(4):
            assert F.level_dims[n] == int(np.linalg.matrix_power(adj, n).sum())

    def test_associativity_of_dimensions(self, graph_complete_c2):
        E = qg.build_edge_correspondence(graph_complete_c2)
        left = qg.interior_tensor(qg.interior_tensor(E, E), E)
        right = qg.interior_tensor(E, qg.interior_tensor(E, E))
        assert left.size == right.size

    def test_balanced_relation(self, graph_trivial_m2, graph_complete_m2, graph_swap):
        for G in (graph_trivial_m2, graph_complete_m2, graph_swap):
            E = qg.build_edge_correspondence(G)
            for Y in (qg.trivial_correspondence(G.psi), E):
                Z = qg.interior_tensor(E, Y)
                # Z's canonical map, read as the creation map of the levels Y, Z
                C = dense_creation(BuiltFock(G, E, (Y, Z), (Z.creation,)), 0)
                x = RNG.normal(size=E.size) + 1j * RNG.normal(size=E.size)
                y = RNG.normal(size=Y.size) + 1j * RNG.normal(size=Y.size)
                for p in range(G.structure.dim):
                    b = unit(G.structure, p)
                    v1 = np.einsum("zef,e,f->z", C, right_act(E, x, b), y)
                    v2 = np.einsum("zef,e,f->z", C, x, left_act(Y, b, y))
                    # x.b (x) y and x (x) b.y have the same image in X (x)_B Y
                    assert np.linalg.norm(v1 - v2) < 1e-10
                # and the canonical map is onto
                assert np.linalg.matrix_rank(C.reshape(Z.size, -1)) == Z.size

    def test_mismatched_base(self, graph_trivial_m2, graph_trivial_skew, graph_3cycle):
        E1 = qg.build_edge_correspondence(graph_trivial_m2)
        E2 = qg.build_edge_correspondence(graph_trivial_skew)
        E3 = qg.build_edge_correspondence(graph_3cycle)
        with pytest.raises(qg.MismatchedBase):
            qg.interior_tensor(E1, E2)
        with pytest.raises(qg.MismatchedBase):
            qg.interior_tensor(E1, E3)


class TestBuildFock:
    def test_level_dims(self, cp_family_graphs):
        for name, dims in EXPECTED_LEVEL_DIMS.items():
            F = qg.build_fock(cp_family_graphs[name], 3)
            assert F.level_dims == dims, name
            assert F.total_dim == sum(dims)

    def test_rejects_source_graph(self, graph_line):
        with pytest.raises(qg.HasQuantumSource):
            qg.build_fock(graph_line, 2)

    def test_refuses_exactly_the_zero_rows_of_m(self):
        # M = [[1, 0], [1, 0]] has a sink and no source, and builds; its
        # transpose has block 1 in ker A, and the refusal names it
        assert qg.build_fock(qg.classical_graph([[1, 1], [0, 0]]), 2).level_dims == (2, 2, 2)
        with pytest.raises(qg.HasQuantumSource, match=r"blocks \[1\] lie in ker A"):
            qg.build_fock(qg.classical_graph([[1, 0], [1, 0]]), 2)

    def test_budget_guard(self, graph_complete_m2):
        # level l of complete M_2 has 4^(l+1) coordinates: depth 510 fits the
        # float range and reports finite values, depth 511 (4^512 = 2^1024) is
        # refused before any check, naming the depth
        F = qg.build_fock(graph_complete_m2, 510)
        assert F.level_dims[-1] == 4**511
        reports = {**qg.representation_residuals(F), **qg.lqck_fock_residuals(F)}
        assert all(np.isfinite(v) for k, v in reports.items() if k != "level_dims")
        with pytest.raises(qg.BudgetExceeded, match=r"depth 511\b"):
            qg.build_fock(graph_complete_m2, 511)

    def test_budget_is_exact_and_checked_first(self, graph_complete_m2, monkeypatch):
        # the depth cap refuses before E_G is built; the float range names the
        # first depth that leaves it, whatever the depth asked for
        calls = []

        def counting_build(G):
            calls.append(G)
            return qg.build_edge_correspondence(G)

        monkeypatch.setattr(qgraph.fock, "build_edge_correspondence", counting_build)
        assert qg.build_fock(graph_complete_m2, 2).level_dims == (4, 16, 64)
        assert len(calls) == 1
        with pytest.raises(qg.BudgetExceeded, match=str(qgraph.fock.FOCK_MAX_DEPTH)):
            qg.build_fock(graph_complete_m2, qgraph.fock.FOCK_MAX_DEPTH + 1)
        assert len(calls) == 1
        with pytest.raises(qg.BudgetExceeded, match=r"at depth 511,"):
            qg.build_fock(graph_complete_m2, 1000)

    def test_the_first_level_past_the_float_range_is_refused_in_bounded_memory(self):
        """The 50-cycle whose vertices also all point to vertex 0 doubles its
        coordinates per level: at the largest depth the counts stop at depth
        1018, the first level past the float range, and peak near 5 MiB; forming
        all 10^4 levels of growing ints first took 342 MiB."""
        adj = np.roll(np.eye(50, dtype=int), 1, axis=0)
        adj[:, 0] = 1
        G = qg.classical_graph(adj)
        assert len(qg.build_fock(G, 1017).level_dims) == 1018
        tracemalloc.start()
        try:
            with pytest.raises(qg.BudgetExceeded, match=r"leaves the float range at depth 1018,"):
                qg.build_fock(G, qgraph.fock.FOCK_MAX_DEPTH)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_counts_and_checks_read_no_multiplicity_matrix(self, cp_family_graphs):
        """The level counts, the covariance and the LQCK and Toeplitz sums read M
        off E's pair slabs: with E's dense M gone, every report is the same."""
        for name, G in cp_family_graphs.items():
            if name == "classical_line":  # a source: build_fock refuses it
                continue
            F = qg.build_fock(G, 3)
            bare = qgraph.fock.FockTruncation(G, replace(F.edge, mult=None), 3)
            assert bare.level_dims == F.level_dims, name
            assert qg.representation_residuals(bare) == qg.representation_residuals(F), name
            assert qg.lqck_fock_residuals(bare) == qg.lqck_fock_residuals(F), name

    def test_no_level_is_built(self, graph_complete_m2, monkeypatch):
        calls = []
        monkeypatch.setattr(qgraph.fock, "interior_tensor", lambda *args: calls.append(args))
        F = qg.build_fock(graph_complete_m2, 3)
        qg.representation_residuals(F), qg.lqck_fock_residuals(F)
        assert calls == []

    def test_deep_trivial_truncation(self, graph_trivial_m2):
        F = qg.build_fock(graph_trivial_m2, 2000)
        assert F.level_dims == (4,) * 2001
        reports = {**qg.representation_residuals(F), **qg.lqck_fock_residuals(F)}
        assert all(v < 1e-9 for k, v in reports.items() if k not in ("level_dims", "vacuum_defect"))

    def test_level_dims_follow_the_multiplicity_matrix(self, cp_family_graphs):
        for name, dims in EXPECTED_LEVEL_DIMS.items():
            G = cp_family_graphs[name]
            F = qg.build_fock(G, 3)
            n = np.array(G.structure.sizes)
            for l, level in enumerate(built_fock(F).levels):
                Ml = np.linalg.matrix_power(F.edge.mult, l)
                assert np.array_equal(level.mult, Ml), (name, l)
                assert np.array_equal(F.multiplicities[l], Ml @ n), (name, l)
                assert level.size == n @ Ml @ n == dims[l], (name, l)

    def test_invalid_depth(self, graph_trivial_m2):
        with pytest.raises(qg.ShapeMismatch):
            qg.build_fock(graph_trivial_m2, 0)

    def test_creation_is_strictly_lower_triangular(self, graph_trivial_m2):
        F = qg.build_fock(graph_trivial_m2, 3)
        xi = RNG.normal(size=F.edge.size) + 0j
        T = big_creation(F, xi)
        # only blocks (l+1, l) may be populated; the top level is annihilated
        for l in range(F.depth + 1):
            for m in range(F.depth + 1):
                blk = T[level_slice(F, l), level_slice(F, m)]
                if l != m + 1:
                    assert np.linalg.norm(blk) == 0.0


class TestLeftAction:
    def test_pi_is_unital_star_homomorphism(self, graph_rank_one):
        F = built_fock(qg.build_fock(graph_rank_one, 3))
        st = graph_rank_one.structure
        one = qg.AlgebraElement.unit(st)
        for l in range(F.depth + 1):
            assert np.allclose(pi_level(F, l, one), np.eye(F.level_dims[l]), atol=1e-10)
            for p in range(st.dim):
                x = unit(st, p)
                # star: basis is scalar-orthonormal, so pi(x*) = pi(x)^dagger
                assert np.allclose(
                    pi_level(F, l, x.star()), pi_level(F, l, x).conj().T, atol=1e-10
                )
                for q in range(st.dim):
                    y = unit(st, q)
                    assert np.allclose(
                        pi_level(F, l, x * y),
                        pi_level(F, l, x) @ pi_level(F, l, y),
                        atol=1e-10,
                    )


class TestRepresentationIdentities:
    @pytest.mark.parametrize(
        "fixture",
        ["graph_complete_c2", "graph_trivial_m2", "graph_rank_one", "graph_3cycle"],
    )
    def test_inner_and_covariance(self, fixture, request):
        G = request.getfixturevalue(fixture)
        F = qg.build_fock(G, 3)
        rep = qg.representation_residuals(F)
        assert dense_inner_defect(F) < 1e-9
        assert rep["covariance"] < 1e-9
        # the vacuum obstruction: pi does not vanish on level 0
        assert rep["vacuum_defect"] > 0.5

    def test_creation_implements_module_product(self, graph_trivial_m2, graph_trivial_skew, graph_swap):
        # T(xi) applied to the vacuum level reproduces the right action of E
        for G in (graph_trivial_m2, graph_trivial_skew, graph_swap):
            F = built_fock(qg.build_fock(G, 2))
            E = F.edge
            # the map from level 0 that the checks read off psi's weights is the built canonical map
            canonical = BuiltFock(G, E, F.levels[:2], (F.levels[1].creation,))
            assert np.array_equal(dense_creation(F, 0), dense_creation(canonical, 0))
            # level 0 is B in the basis b_p / sqrt(g_p): column p holds b_p,
            # and these coordinates give <b_p, b_q>_B = b_p* b_q
            coords = np.diag(np.sqrt(G.psi.gram_diag)).astype(complex)
            inner = np.einsum("ap,abd,bq->pqd", coords.conj(), dense_actions(F.levels[0])[2], coords)
            assert np.allclose(inner, algebra_module(G.psi).binner, atol=1e-12)
            xi = RNG.normal(size=E.size) + 1j * RNG.normal(size=E.size)
            for p in range(G.structure.dim):
                lifted = creation_matrix(F, 0, xi) @ coords[:, p]
                assert np.allclose(lifted, right_act(E, xi, unit(G.structure, p)), atol=1e-10)


class TestToeplitz2IsCovariance:
    @pytest.mark.parametrize(
        "make, s",
        [
            (lambda: qg.complete_graph(qg.validate_delta_form([2], [[0.5, 0.5]])), 2.0),
            (lambda: qg.trivial_graph(qg.validate_delta_form([4], [[0.25] * 4])), 4.0),
            (lambda: qg.classical_graph(np.roll(np.eye(3, dtype=int), 1, axis=0)), 3.0),
        ],
        ids=["complete_m2", "trivial_m4", "classical_3cycle"],
    )
    def test_one_defect(self, make, s):
        """On a state with every s_p = (w_i w_j)^-1/2 equal to s, the Toeplitz-2
        defect at b_p is the covariance defect at f_p = s b_p divided by s; at
        depth 2 both are read on level 1 alone.  A generator moved by 1e-6
        makes them nonzero."""
        F = qg.build_fock(make(), 2)
        noise = np.random.default_rng(23).normal(size=(F.edge.size, 2)) @ [1.0, 1.0j]
        F = replace(F, edge=with_generator(F.edge, F.edge.generator + 1e-6 * noise))
        covariance = qg.representation_residuals(F)["covariance"]
        toeplitz2 = qg.lqck_fock_residuals(F)["toeplitz2"]
        assert covariance > 1e-7
        assert abs(covariance - s * toeplitz2) <= 1e-13 * covariance


def tracial(sizes):
    """The delta-form trace on the sum of the M_n, weight n / sum m^2 on block n."""
    return qg.validate_delta_form(sizes, [[n / sum(m * m for m in sizes)] * n for n in sizes])


class TestLqckFockResiduals:
    @pytest.fixture()
    def graphs(self, nontracial_m1_m2):
        return {
            "complete_m2": qg.complete_graph(tracial([2])),
            "trivial_m4": qg.trivial_graph(tracial([4])),
            "complete_m2m3": qg.complete_graph(tracial([2, 3])),
            "complete_m1m2_nontracial": qg.complete_graph(nontracial_m1_m2),
        }

    @pytest.mark.parametrize("t", [1.1, 2.0])
    def test_lqck2_holds_under_a_scaled_generator(self, graphs, t):
        """X_ab -> t X_ab takes P_c to t^2 P_c and D_cb' to (t^2 - 1) 1, so LQCK2's
        defect t^2 (P_c - A_c/delta^4) (x) 1 stays 0 while the other four
        identities read O(1).  Expanded about 0, LQCK2's m-term would cancel
        O(1) terms and read about 1e-8 here."""
        for name, G in graphs.items():
            F = qg.build_fock(G, 3)
            F = replace(F, edge=with_generator(F.edge, t * F.edge.generator))
            report = qg.lqck_fock_residuals(F)
            assert report["lqck2"] <= 1e-13, name
            assert min(report[key] for key in FOCK_KEYS if key != "lqck2") > 1e-2, name

    def test_reads_the_adjacency_only_through_its_choi_slabs(self, graphs):
        """With A's Choi slabs formed and its matrix gone, the report is the same."""
        for name, G in graphs.items():
            F = replace(qg.build_fock(G, 3), edge=perturbed(qg.build_edge_correspondence(G), RNG))
            A = copy.copy(G.adjacency)
            assert A.choi_slabs is G.adjacency.choi_slabs
            object.__setattr__(A, "matrix", None)
            got = qg.lqck_fock_residuals(replace(F, graph=replace(G, adjacency=A)))
            assert got == qg.lqck_fock_residuals(F), name


class TestFockFamily:
    def test_interior_residuals(self, graph_trivial_m2):
        rep = qg.lqck_fock_residuals(qg.build_fock(graph_trivial_m2, 3))
        for key in ("lqck1", "lqck2", "lqck3", "toeplitz1", "toeplitz2"):
            assert rep[key] < 1e-9, key
        assert rep["level_dims"] == (4, 4, 4, 4)

    def test_interior_residuals_rank_one(self, graph_rank_one):
        rep = qg.lqck_fock_residuals(qg.build_fock(graph_rank_one, 3))
        for key in ("lqck1", "lqck2", "lqck3", "toeplitz1", "toeplitz2"):
            assert rep[key] < 1e-9, key

    def test_family_maps_each_level_one_up(self, graph_complete_m2):
        F = qg.build_fock(graph_complete_m2, 3)
        S = qg.canonical_fock_family(F)
        dims = F.level_dims
        assert [Sl.shape for Sl in S] == [(4, dims[l + 1], dims[l]) for l in range(3)]
        # the blocks (l+1, l) of the full-truncation family
        full = full_fock_family(F).images
        for l, Sl in enumerate(S):
            assert np.array_equal(full[:, level_slice(F, l + 1), level_slice(F, l)], Sl)

    def test_vacuum_breaks_third_relation(self, graph_trivial_m2):
        # without interior compression the truncation boundary shows up
        F = qg.build_fock(graph_trivial_m2, 3)
        fam = full_fock_family(F)
        raw = qg.lqck_residuals(fam, graph_trivial_m2)
        assert raw["lqck3"] > 0.01


def reconstructed_eps(G, E):
    """eps_ab[i,j,k,l] = sum_x gen[a,b,i,x,l] u_x[jk] / sqrt(w_b[l]) from the
    generator and the multiplicity bases, whose columns must be orthonormal
    for the weights w_a[j]; a pair with no bases has rank 0."""
    st = G.structure
    bases = {
        (a, b): u[:, :m]
        for pairs, ranks, U in multiplicity_spaces(G)[0]
        for (a, b), m, u in zip(pairs.tolist(), ranks.tolist(), U)
    }
    eps = np.zeros((st.dim, st.dim), dtype=complex)
    pos = 0
    for a, na in enumerate(st.sizes):
        for b, nb in enumerate(st.sizes):
            u = bases.get((a, b), np.zeros((na * nb, 0)))
            weighted = np.repeat(G.psi.weights[a], nb)[:, None] * u
            assert close(u.conj().T @ weighted, np.eye(u.shape[1]))
            m = u.shape[1]
            gen = E.generator[pos : pos + na * m * nb].reshape(na, m, nb)
            pos += na * m * nb
            slab = np.einsum("ixl,jkx->ijkl", gen / np.sqrt(G.psi.weights[b]), u.reshape(na, nb, m))
            lo, hi = st.offsets[a], st.offsets[b]
            eps[lo : lo + na * na, hi : hi + nb * nb] = slab.reshape(na * na, nb * nb)
    assert pos == E.size
    return eps


class TestMultiplicitySpaces:
    """M and eps from the per-group bases (pairs, ranks, u), read off the one
    eigh of each Choi slab: on classical graphs every slab is 1 x 1, of rank 1
    where there is an edge, so u is 1 x 1; M[a, b] is adj[b, a]."""

    @given(adj=st_.integers(1, 8).flatmap(lambda n: st_.lists(st_.sampled_from([0, 1]), min_size=n * n, max_size=n * n)))
    @settings(max_examples=30, deadline=None)
    def test_classical_graphs(self, adj):
        n = int(round(len(adj) ** 0.5))
        adj = np.reshape(adj, (n, n))
        adj[:, n // 2] = 0  # a source, and a sink when n > 1
        adj[n - 1, :] = 0
        G = qg.classical_graph(adj)
        E = qg.build_edge_correspondence(G)
        assert np.array_equal(E.mult, adj.T) and E.size == adj.sum()
        for pairs, ranks, u in multiplicity_spaces(G)[0]:
            assert u.shape == (len(pairs), 1, 1) and np.array_equal(ranks, adj[pairs[:, 1], pairs[:, 0]])
        assert close(reconstructed_eps(G, E), edge_indicator(G).coeff)

    def test_edgeless_graph(self):
        # A is 0 on every block pair, so there is no slab: rank 0, and E is the zero module
        G = qg.classical_graph(np.zeros((5, 5), dtype=int))
        bases, slabs = multiplicity_spaces(G)
        assert slabs == () and all(not ranks.any() for _, ranks, _ in bases)
        E = qg.build_edge_correspondence(G)
        assert not E.mult.any() and E.size == 0 and E.generator.shape == (0,)
        assert not reconstructed_eps(G, E).any()

    @given(drawn=quantum_graphs(SMALL_SIZES + SCATTERED_SIZES))
    @settings(max_examples=10, deadline=None)
    def test_scattered_size_groups(self, drawn):
        G, rank = drawn
        E = qg.build_edge_correspondence(G)
        assert np.array_equal(E.mult, rank)
        assert close(reconstructed_eps(G, E), edge_indicator(G).coeff)

    @given(
        drawn=quantum_graphs(SMALL_SIZES + SCATTERED_SIZES),
        faint=st_.booleans(),
        seed=st_.integers(0, 2**32 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_the_generator_is_a_view_of_the_pair_slabs(self, drawn, faint, seed):
        """E's generator, cut again by the oracle, gives E's pair slabs back pair by
        pair and the dense eps through the bases, and no report that a command
        takes flattens them.  With faint, some block pairs of A are scaled by 1e-14,
        below the cut: Choi slabs of Kraus rank 0 next to ones of rank > 0."""
        G = drawn[0]
        if faint:
            A = G.adjacency.matrix
            kept = zero_block_pairs(G.adjacency, np.random.default_rng(seed)).matrix
            G = qg.QuantumGraph(G.structure, G.psi, qg.LinearMapOnB(G.structure, kept + 1e-14 * (A - kept)))
        E = qg.build_edge_correspondence(G)
        for report in (qg.cp_correspondence, qg.compact_decomposition_residual, qg.cyclic_dim):
            report(E)
        with np.errstate(divide="ignore", invalid="ignore"):  # a source block has no LQCK2 mean
            qg.lqck_fock_residuals(qgraph.fock.FockTruncation(G, E, 3))
        assert "generator" not in vars(E)

        def by_pair(F):
            return {(a, b): (x, d) for pairs, X, D in F.pair_slabs for (a, b), x, d in zip(pairs.tolist(), X, D)}

        got, want = by_pair(with_generator(E, E.generator)), by_pair(E)
        assert got.keys() == want.keys() == set(map(tuple, np.argwhere(E.mult).tolist()))
        for ab, (x, d) in want.items():
            (gx, gd), one = got[ab], np.eye(len(d))
            assert gx.shape == x.shape and gd.shape == d.shape, ab
            # D_ab, a Gram minus 1, is near 0 on a quantum graph: it is read at the larger term's scale
            scale = max(np.linalg.norm(d + one), np.linalg.norm(one))
            assert close(gx, x, 1e-14) and np.linalg.norm(gd - d) <= 1e-14 * scale, ab
        assert close(reconstructed_eps(G, E), edge_indicator(G).coeff)


def assert_matches_dense_oracle(F, D):
    """Equal level dims, and one unitary per level, fixed by the eps orbit
    and the creation maps, carries the normal form's lmul, rmul, binner,
    generator and creation tensors onto the oracle's.  The fit is held to the
    oracle's own defect; a tensor carried through a unitary fitted to relative
    residual f moves by about 2f, so the carried tensors are held to that
    defect plus 2f."""
    F = built_fock(F)
    assert F.level_dims == D.level_dims
    rel = 1e-12 + oracle_defect(D)
    Us, fit = orbit_unitaries(F, D)
    assert fit <= rel
    slack = rel + 2 * fit
    for U, X, Y in zip(Us, F.levels, D.levels, strict=True):
        assert np.allclose(dense_actions(X)[2] @ X.psi.psi_vec, np.eye(X.size), atol=1e-13)
        for got, want in zip(carried(U, X), (Y.lmul, Y.rmul, Y.binner)):
            assert close(got, want, slack)
    assert close(Us[1] @ F.edge.generator, D.edge.generator, slack)
    for l in range(F.depth):
        C = dense_creation(F, l)
        got = np.einsum("za,aeb,fe,cb->zfc", Us[l + 1], C, Us[1].conj(), Us[l].conj(), optimize=True)
        assert close(got, D.creation[l], slack)


def random_cp_graph(psi, seed, kraus):
    """A graph over psi whose A is a random completely positive map, not
    Schur-idempotent, with the Kraus count capped to keep dim E <= 27 (level 2
    of the oracle eigendecomposes a (dim E)^2-wide Gram)."""
    rng = np.random.default_rng(seed)
    kraus = min(kraus, max(1, 27 // sum(psi.structure.sizes) ** 2))
    return qg.QuantumGraph(psi.structure, psi, random_cp_map(psi, rng, kraus))


# a delta_states() draw on which the oracle's orbit Gram puts a genuine
# Kraus direction (Choi eigenvalue 1.4e-4 against 11.4) at 5e-11 of its
# largest eigenvalue, under the cutoff: level dims (6, 16, 48) against the
# oracle's (6, 15, 40)
ORACLE_LOSES_A_DIRECTION = qg.validate_delta_form([1, 1, 2], [[7 / 78], [7 / 78], [56 / 78, 8 / 78]])
# a draw (seed 417061, 2 Kraus operators) on which the orbit unitaries fit to
# 6.9e-13, within the oracle defect's bound of 1.16e-12, and carry lmul onto
# the oracle's to 1.43e-12 on level 1 and 1.67e-12 on level 2: within 2.5e-12,
# the bound plus twice the fit
ORACLE_FITS_TO_ITS_DEFECT = qg.validate_delta_form([1, 2], [[4 / 29], [5 / 29, 20 / 29]])


class TestNormalFormMatchesDenseOracle:
    @given(psi=delta_states(), seed=st_.integers(0, 2**32 - 1), kraus=st_.integers(1, 3))
    @example(psi=ORACLE_LOSES_A_DIRECTION, seed=635756416, kraus=1)
    @example(psi=ORACLE_FITS_TO_ITS_DEFECT, seed=417061, kraus=2)
    @settings(max_examples=10, deadline=None)
    def test_random_completely_positive_maps(self, psi, seed, kraus):
        G = random_cp_graph(psi, seed, kraus)
        F, D = qg.build_fock(G, 2), dense_fock(G, 2)
        # the Gram quotient squares the conditioning: on skewed states it can
        # drop a Kraus direction that the Choi slabs resolve, and then the two
        # cannot be compared; it never finds one more
        assert all(d <= f for d, f in zip(D.level_dims, F.level_dims, strict=True))
        assume(D.level_dims == F.level_dims)
        assert_matches_dense_oracle(F, D)
        assert close(reconstructed_eps(G, F.edge), edge_indicator(G).coeff)

    @pytest.mark.parametrize("level", [1, 2])
    def test_a_changed_action_fails(self, level):
        """The slack is 2.5e-12 on the draw that fits to 6.9e-13: a change of
        1e-10 relative to one level's lmul is still caught."""
        G = random_cp_graph(ORACLE_FITS_TO_ITS_DEFECT, 417061, 2)
        F, D = qg.build_fock(G, 2), dense_fock(G, 2)
        assert_matches_dense_oracle(F, D)
        lvl = D.levels[level]
        levels = list(D.levels)
        levels[level] = replace(lvl, lmul=lvl.lmul * (1 + 1e-10))
        with pytest.raises(AssertionError):
            assert_matches_dense_oracle(F, replace(D, levels=tuple(levels)))

    def test_built_in_graphs(self, cp_family_graphs):
        for name, G in cp_family_graphs.items():
            eps = edge_indicator(G).coeff
            if qg.quantum_sources_sinks(G)[0]:
                # no Fock module over a graph with a source: compare E_G alone
                E, D = qg.build_edge_correspondence(G), dense_edge_correspondence(G)
                U, fit = edge_unitary(E, D)
                assert fit <= 1e-12, name
                for got, want in zip(carried(U, E), (D.lmul, D.rmul, D.binner)):
                    assert close(got, want), name
                assert close(U @ E.generator, D.generator), name
                assert close(reconstructed_eps(G, E), eps), name
                continue
            F = qg.build_fock(G, 3)
            assert_matches_dense_oracle(F, dense_fock(G, 3))
            assert close(reconstructed_eps(G, F.edge), eps), name


FOCK_KEYS = ("lqck1", "lqck2", "lqck3", "toeplitz1", "toeplitz2")


def perturbed(E, rng):
    """E with an O(1) random change to its generator, so every identity fails."""
    noise = rng.normal(size=E.size) + 1j * rng.normal(size=E.size)
    return with_generator(E, E.generator + 0.5 * noise)


def assert_relative(got, want):
    assert want > 1e-6
    assert abs(got - want) <= 1e-12 * want


def assert_within_rounding(got, want):
    """Equal within 1e-12, relative where want is above 1e-8."""
    assert abs(got - want) <= 1e-12 * (want if want > 1e-8 else 1.0)


def assert_levelwise_matches_full_truncation(G, rng, N=3, check=assert_relative):
    """The level-by-level Fock residuals and the eps-only B (x)_A B defect
    equal the full-truncation and orbit-Gram references where they are O(1)."""
    Ep = perturbed(qg.build_edge_correspondence(G), rng)
    check(qg.cp_correspondence(Ep), cp_correspondence_oracle(Ep))
    if qg.quantum_sources_sinks(G)[0]:
        return  # no Fock module over a graph with a source
    F = replace(qg.build_fock(G, N), edge=Ep)
    got, want = qg.lqck_fock_residuals(F), full_fock_residuals(F)
    for key in FOCK_KEYS:
        check(got[key], want[key])


def perturbed_creation(F, rng):
    """The built truncation F with every value of its map from level 0
    (`level_one_creation`) scaled by a random factor of at least 2, so that
    T(xi)*T(eta) = pi(<xi,eta>_B) fails there: each nonzero diagonal entry of
    the Gram at least quadruples.  An additive random change can keep the
    modulus of a 1 x 1 map (on C, |1 + 0.5 n| = 1.008 read 0.016)."""
    F = built_fock(F)
    z, e, y, value = F.creation[0]
    scale = 2 + np.abs(rng.normal(size=value.shape) + 1j * rng.normal(size=value.shape))
    return replace(F, creation=((z, e, y, value * scale),) + F.creation[1:])


def assert_inner_holds_on_built_levels(F, rng):
    """T(xi)*T(eta) = pi(<xi,eta>_B), which holds in every normal form and which the
    library therefore does not read, holds to rounding in the dense creation-matrix
    Gram check on the built levels; that check reads O(1) on a perturbed map from
    level 0; the vacuum defect equals the largest Frobenius norm of the dense pi_0(b_p)."""
    assert dense_inner_defect(F) <= 1e-12
    assert dense_inner_defect(perturbed_creation(replace(F, depth=1), rng)) > 0.1
    pi0 = dense_actions(qg.trivial_correspondence(F.graph.psi))[0]
    vacuum = qg.representation_residuals(F)["vacuum_defect"]
    assert abs(vacuum - np.linalg.norm(pi0, axis=(1, 2)).max()) <= 1e-14


class TestInnerMatchesDenseOracle:
    @given(psi=delta_states(), seed=st_.integers(0, 2**32 - 1), kraus=st_.integers(1, 2))
    @settings(max_examples=10, deadline=None)
    def test_random_completely_positive_maps(self, psi, seed, kraus):
        # the Kraus cap keeps dim E <= 27, so the level-1 Gram is at most 729 wide
        rng = np.random.default_rng(seed)
        kraus = min(kraus, max(1, 27 // sum(psi.structure.sizes) ** 2))
        G = qg.QuantumGraph(psi.structure, psi, random_cp_map(psi, rng, kraus))
        assert_inner_holds_on_built_levels(qg.build_fock(G, 2), rng)

    def test_built_in_graphs(self, cp_family_graphs):
        rng = np.random.default_rng(11)
        for G in cp_family_graphs.values():
            if not qg.quantum_sources_sinks(G)[0]:  # no Fock module over a graph with a source
                assert_inner_holds_on_built_levels(qg.build_fock(G, 3), rng)


# block 0 is a sink, a zero column of M = [[0, 1], [0, 1]], and no block is a source
SINK_GRAPH = qg.classical_graph([[0, 0], [1, 1]])


class TestWeightReadsMatchCoordinateTables:
    """The B (x)_A B defect, read off E's orbit defects, against the orbit-Gram
    reference, and the representation checks in bounded memory."""

    @given(drawn=quantum_graphs(sources=False), seed=st_.integers(0, 2**32 - 1))
    @example(drawn=(SINK_GRAPH, np.array([[0, 1], [0, 1]])), seed=0)
    @settings(max_examples=25, deadline=None)
    def test_quantum_graphs(self, drawn, seed):
        G, rank = drawn
        F = qg.build_fock(G, 3)
        assert np.array_equal(F.edge.mult, rank)
        for E in (F.edge, perturbed(F.edge, np.random.default_rng(seed))):
            assert_within_rounding(qg.cp_correspondence(E), cp_correspondence_oracle(E))

    def test_complete_m12_representation_in_bounded_memory(self):
        """dim E = 20736 on complete M_12: the truncation forms E's slabs, with no
        (dim E, N) table of T(u_e) nor E's 248 832 inner-product nonzeros; it peaked
        at 27.7 MiB with them."""
        G = qg.complete_graph(qg.validate_delta_form([12], [[1 / 12] * 12]))
        tracemalloc.start()
        try:
            report = qg.representation_residuals(qg.build_fock(G, 2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report["covariance"] < 1e-9
        assert peak < 6 * 2**20


def assert_recognition_matches_orbit_grams(G, rng):
    """recognize's defect against the orbit-Gram reference, for an edge
    indicator in B (x)_psi B (whose orbit Gram the oracle reads in its dense
    coordinates b_p (x) b_q) and for E_G's generator in E_G, with E_G's own
    generator perturbed so that the defect is O(1)."""
    E = qg.build_edge_correspondence(G)
    Ep = perturbed(E, rng)
    eps = edge_indicator(G)
    cases = [
        (eps, None, dense_edge_correspondence(G).ambient, eps.coeff.ravel()),
        (CorrVector(E, E.generator), E, E, E.generator),
    ]
    with mock.patch.object(qg, "build_edge_correspondence", return_value=Ep):
        for xi, module, space, coords in cases:
            got = recognize(xi, G.psi, module=module).iso_residual
            assert_relative(got, recognize_iso_oracle(space, coords, Ep))


def classical_hub(V, reverse):
    """Classical graph on V vertices, each with a self-loop, and vertex 0 joined
    to every vertex: row groups of sizes 1 and l + 1 on level l, or with the
    edges reversed 1 + (V - 1) l and 1."""
    adj = np.eye(V, dtype=int)
    adj[(slice(None), 0) if reverse else (0, slice(None))] = 1
    return qg.classical_graph(adj)


class TestLevelwiseMatchesFullTruncation:
    @given(psi=delta_states(), seed=st_.integers(0, 2**32 - 1), kraus=st_.integers(1, 2))
    @settings(max_examples=10, deadline=None)
    def test_random_completely_positive_maps(self, psi, seed, kraus):
        # the full truncation is a D x D ambient; the Kraus cap keeps D <= 300
        rng = np.random.default_rng(seed)
        kraus = min(kraus, max(1, 27 // sum(psi.structure.sizes) ** 2))
        G = qg.QuantumGraph(psi.structure, psi, random_cp_map(psi, rng, kraus))
        assert_levelwise_matches_full_truncation(G, rng)
        assert_recognition_matches_orbit_grams(qg.complete_graph(psi), rng)

    def test_built_in_graphs(self, cp_family_graphs, nontracial_m1_m2):
        rng = np.random.default_rng(3)
        # on M_1 + M_2 with unequal weights on M_2, each check's scale by the
        # smallest weight of a block is seen; the complete graph there is 780
        # wide at depth 3, too wide for the full truncation (1.2 GB)
        # the classical hubs have row groups of unequal sizes on every level
        hubs = (classical_hub(5, reverse) for reverse in (False, True))
        for G in (*cp_family_graphs.values(), qg.trivial_graph(nontracial_m1_m2), *hubs):
            assert_levelwise_matches_full_truncation(G, rng)
            assert_recognition_matches_orbit_grams(G, rng)

    @given(drawn=quantum_graphs(sources=False), seed=st_.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_quantum_graphs(self, drawn, seed):
        """On a general quantum graph M is the ranks of the drawn projections,
        level l is n M^l n wide, and with an O(1) change of eps the block-pair
        reports equal the full truncation's at depth 3, where it is at most 300
        wide.  On B = C every change of eps is a scaling, under which LQCK2
        holds exactly, so values below 1e-8 are compared absolutely."""
        G, rank = drawn
        F = qg.build_fock(G, 3)
        n = np.array(G.structure.sizes)
        assert np.array_equal(F.edge.mult, rank)
        assert F.level_dims == tuple(n @ np.linalg.matrix_power(rank, l) @ n for l in range(4))
        if F.total_dim <= 300:
            assert_levelwise_matches_full_truncation(G, np.random.default_rng(seed), check=assert_within_rounding)

    def test_classical_hub_checks_in_bounded_memory(self):
        """The checks form E's pair slabs, 1 x 1 here, and sums over the levels'
        multiplicities, whatever the row-group sizes: here levels 17, 33, 49, 65
        wide, with a bound of 16 (dim 3)^2 complex, 66 KiB."""
        F = qg.build_fock(classical_hub(17, reverse=True), 3)
        tracemalloc.start()
        try:
            report = qg.lqck_fock_residuals(F)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(report[key] < 1e-9 for key in FOCK_KEYS)
        assert peak < 16 * 16 * max(F.level_dims) ** 2

    def test_trivial_m8_checks_in_bounded_memory(self):
        """LQCK2 and Toeplitz-1 form X_ac[i]* X_ac[r] for every unit pair of a
        block pair at once, N_a^2 N_c^2 entries: here 8^4 complex, 64 KiB,
        under a bound of 16 MiB."""
        F = qg.build_fock(qg.trivial_graph(qg.validate_delta_form([8], [[1 / 8] * 8])), 3)
        tracemalloc.start()
        try:
            report = qg.lqck_fock_residuals(F)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(report[key] < 1e-9 for key in FOCK_KEYS)
        assert peak < 16 * 2**20

    def test_deep_checks_in_bounded_memory(self):
        """Complete M_2 + M_2 at depth 4 has 37 448 coordinates; every check
        reads the four 4 x 2 slabs X_ab[j] and the level multiplicities, and
        peaks below 1 MiB, pair slabs included."""
        F = qg.build_fock(qg.complete_graph(qg.validate_delta_form([2, 2], [[0.25] * 2] * 2)), 4)
        assert F.total_dim == 37448
        tracemalloc.start()
        try:
            report = {**qg.representation_residuals(F), **qg.lqck_fock_residuals(F)}
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(report[key] < 1e-9 for key in (*FOCK_KEYS, "covariance"))
        assert peak < 2**20

    def test_pair_tables_of_a_1000_vertex_graph_in_bounded_memory(self):
        """A 1000-cycle whose vertices also all point to vertex 0 has 1999 of its
        10^6 block pairs in E: `multiplicity_spaces` forms the pair slabs from A's
        1999 Choi slabs and `defect_squares` adds by pair, each below one
        (blocks, blocks) float table, 7.6 MiB."""
        adj = np.roll(np.eye(1000, dtype=int), 1, axis=0)
        adj[:, 0] = 1
        G = qg.classical_graph(adj)
        F = qg.build_fock(G, 3)
        F.multiplicities, G.adjacency.choi_cut  # cached before tracing, A's Choi spectra with the cut
        for name, form in (("multiplicity_spaces", lambda: multiplicity_spaces(G)), ("defect_squares", lambda: F.defect_squares)):
            tracemalloc.start()
            try:
                form()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 8 * 1000**2, name
