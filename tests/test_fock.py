import numpy as np
import pytest

import qgraph as qg
import qgraph.fock

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

    def test_balanced_relation(self, graph_trivial_m2):
        E = qg.build_edge_correspondence(graph_trivial_m2)
        T = qg.trivial_correspondence(graph_trivial_m2.psi)
        Z = qg.interior_tensor(E, T)
        st = graph_trivial_m2.structure
        x = RNG.normal(size=E.size) + 1j * RNG.normal(size=E.size)
        y = RNG.normal(size=T.size) + 1j * RNG.normal(size=T.size)
        for p in range(st.dim):
            b = unit(st, p)
            v1 = np.kron(E.right_act(x, b), y)
            v2 = np.kron(x, T.left_act(b, y))
            # x.b (x) y and x (x) b.y agree in the quotient
            assert np.linalg.norm(Z.project(v1 - v2)) < 1e-10

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

    def test_budget_guard(self, graph_complete_m2, monkeypatch):
        monkeypatch.setattr(qgraph.fock, "FOCK_COORD_BUDGET", 50)
        with pytest.raises(qg.BudgetExceeded):
            qg.build_fock(graph_complete_m2, 3)

    def test_invalid_depth(self, graph_trivial_m2):
        with pytest.raises(qg.ShapeMismatch):
            qg.build_fock(graph_trivial_m2, 0)

    def test_creation_is_strictly_lower_triangular(self, graph_trivial_m2):
        F = qg.build_fock(graph_trivial_m2, 3)
        xi = RNG.normal(size=F.edge.size) + 0j
        T = F.big_creation(xi)
        # only blocks (l+1, l) may be populated; the top level is annihilated
        for l in range(F.depth + 1):
            for m in range(F.depth + 1):
                blk = T[F.level_slice(l), F.level_slice(m)]
                if l != m + 1:
                    assert np.linalg.norm(blk) == 0.0


class TestLeftAction:
    def test_pi_is_unital_star_homomorphism(self, graph_rank_one):
        F = qg.build_fock(graph_rank_one, 3)
        st = graph_rank_one.structure
        one = qg.AlgebraElement.unit(st)
        for l in range(F.depth + 1):
            assert np.allclose(F.pi_level(l, one), np.eye(F.level_dims[l]), atol=1e-10)
            for p in range(st.dim):
                x = unit(st, p)
                # star: basis is scalar-orthonormal, so pi(x*) = pi(x)^dagger
                assert np.allclose(
                    F.pi_level(l, x.star()), F.pi_level(l, x).conj().T, atol=1e-10
                )
                for q in range(st.dim):
                    y = unit(st, q)
                    assert np.allclose(
                        F.pi_level(l, x * y),
                        F.pi_level(l, x) @ F.pi_level(l, y),
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
        assert rep["inner"] < 1e-9
        assert rep["covariance"] < 1e-9
        # the vacuum obstruction: pi does not vanish on level 0
        assert rep["vacuum_defect"] > 0.5

    def test_creation_implements_module_product(self, graph_trivial_m2):
        # T(xi) applied to the vacuum level reproduces the right action of E
        F = qg.build_fock(graph_trivial_m2, 2)
        E = F.edge
        st = graph_trivial_m2.structure
        xi = RNG.normal(size=E.size) + 1j * RNG.normal(size=E.size)
        for p in range(st.dim):
            x = unit(st, p)
            lifted = F.creation_matrix(0, xi) @ F.levels[0].project(
                np.eye(st.dim, dtype=complex)[p]
            )
            assert np.allclose(lifted, E.right_act(xi, x), atol=1e-10)


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

    def test_vacuum_breaks_third_relation(self, graph_trivial_m2):
        # without interior compression the truncation boundary shows up
        F = qg.build_fock(graph_trivial_m2, 3)
        fam = qg.canonical_fock_family(F)
        raw = qg.lqck_residuals(fam, graph_trivial_m2)
        assert raw["lqck3"] > 0.01
