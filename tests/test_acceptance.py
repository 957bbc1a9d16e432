"""Acceptance gate: every contract-level guarantee of the library, one
criterion per test, with an explicit pass/fail line printed per criterion
(run with -s or -rP to see them)."""

import time
from contextlib import contextmanager

import numpy as np
import pytest
from oracles import (
    adjacency_from_indicator,
    choi_blocks,
    cp_model_dim,
    dense_inner_defect,
    edge_indicator,
    full_fock_family,
    interior_projector,
    recognize,
    zero_family,
)
from test_relations import qcp_disagreement

import qgraph as qg

TOL = 1e-9
EXACT = 1e-12


@contextmanager
def criterion(n, desc):
    try:
        yield
    except BaseException:
        print(f"criterion {n:2d} FAIL - {desc}")
        raise
    print(f"criterion {n:2d} PASS - {desc}")


def family_instances():
    """At least ten validated instances for every graph constructor family."""
    states = [
        qg.validate_delta_form([1] * n, [[1.0 / n]] * n) for n in (2, 3, 4, 5)
    ] + [
        qg.validate_delta_form([2], [[0.5, 0.5]]),
        qg.validate_delta_form([3], [[1.0 / 3] * 3]),
        qg.validate_delta_form([2], [[1.0 / 3.0, 2.0 / 3.0]]),
        qg.validate_delta_form([2], [[0.25, 0.75]]),
        qg.validate_delta_form([2], [[0.1, 0.9]]),
        qg.validate_delta_form(
            [1, 2], [[1.0 / 6.0], [(5 + np.sqrt(5)) / 12, (5 - np.sqrt(5)) / 12]]
        ),
    ]
    complete = [qg.complete_graph(psi) for psi in states]
    trivial = [qg.trivial_graph(psi) for psi in states]

    tracial = states[4]
    skew = states[6]
    rng = np.random.default_rng(9)
    rank_one = [
        qg.rank_one_graph(tracial, qg.AlgebraElement(tracial.structure, [np.diag([np.sqrt(2.0), 0.0])])),
        qg.rank_one_graph(tracial, qg.AlgebraElement.unit(tracial.structure)),
        qg.rank_one_graph(skew, qg.AlgebraElement.unit(skew.structure)),
    ]
    for _ in range(7):
        Q, _r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        rank_one.append(
            qg.rank_one_graph(tracial, qg.AlgebraElement(tracial.structure, [Q]))
        )

    psi22 = qg.validate_delta_form([2, 2], [[0.25, 0.25], [0.25, 0.25]])
    u_seeds = []
    for s in range(4):
        Q, _r = np.linalg.qr(
            np.random.default_rng(s).normal(size=(2, 2))
            + 1j * np.random.default_rng(s + 40).normal(size=(2, 2))
        )
        u_seeds.append(Q)
    autos = [
        qg.automorphism_graph(tracial, qg.AutomorphismSpec((0,), (np.eye(2),)))[0],
        qg.automorphism_graph(psi22, qg.AutomorphismSpec((1, 0), (np.eye(2), np.eye(2))))[0],
        qg.automorphism_graph(psi22, qg.AutomorphismSpec((0, 1), (u_seeds[0], u_seeds[1])))[0],
        qg.automorphism_graph(psi22, qg.AutomorphismSpec((1, 0), (u_seeds[2], u_seeds[3])))[0],
        qg.automorphism_graph(
            states[2],
            qg.AutomorphismSpec((1, 2, 3, 0), tuple(np.eye(1) for _ in range(4))),
        )[0],
        qg.automorphism_graph(
            states[2],
            qg.AutomorphismSpec((1, 0, 3, 2), tuple(np.eye(1) for _ in range(4))),
        )[0],
    ] + [
        qg.automorphism_graph(tracial, qg.AutomorphismSpec((0,), (u,)))[0]
        for u in u_seeds
    ]

    crng = np.random.default_rng(31)
    classical = [
        qg.classical_graph(np.roll(np.eye(3, dtype=int), 1, axis=0)),
        qg.classical_graph([[0, 1], [0, 0]]),
        qg.classical_graph(np.ones((2, 2), dtype=int)),
        qg.classical_graph([[1]]),
    ] + [qg.classical_graph(crng.integers(0, 2, size=(4, 4))) for _ in range(6)]

    return {
        "complete": complete,
        "trivial": trivial,
        "rank_one": rank_one,
        "automorphism": autos,
        "classical": classical,
    }


@pytest.fixture(scope="module")
def instances():
    return family_instances()


def test_criterion_01_delta_form_spectra():
    with criterion(1, "delta-form validation and delta^2 values"):
        for N in (2, 3, 5):
            psi = qg.validate_delta_form([1] * N, [[1.0 / N]] * N)
            assert abs(psi.delta_sq - N) <= EXACT
        for n in (2, 3):
            psi = qg.validate_delta_form([n], [[1.0 / n] * n])
            assert abs(psi.delta_sq - n * n) <= EXACT
        assert abs(qg.validate_delta_form([2], [[1 / 3, 2 / 3]]).delta_sq - 4.5) <= EXACT
        with pytest.raises(qg.NotState):
            qg.validate_delta_form([2], [[0.25, 0.25]])
        with pytest.raises(qg.NotDeltaForm):
            qg.validate_delta_form([1, 1], [[0.3], [0.7]])


def test_criterion_02_schur_idempotency(instances):
    with criterion(2, "Schur idempotency across >= 10 instances per family"):
        for family, graphs in instances.items():
            assert len(graphs) >= 10, family
            for G in graphs:
                assert G.schur_defects[0] <= TOL, family


def test_criterion_03_edge_indicator(instances):
    with criterion(3, "edge indicator properties and round trip"):
        for family, graphs in instances.items():
            for G in graphs:
                assert qg.indicator_properties(G)["r2"] <= TOL, family
                # A(x) = delta^2 (psi x 1)(x . eps) is the round trip A -> eps -> A
                eps = edge_indicator(G)
                A2 = adjacency_from_indicator(eps, G.psi, tol=max(TOL, 1e-8))
                assert np.allclose(A2.matrix, G.adjacency.matrix, atol=1e-8), family
        G = qg.classical_graph(np.roll(np.eye(3, dtype=int), 1, axis=0))
        eps = edge_indicator(G)
        # classically eps is the reversed-edge indicator sum over i->j of e_j (x) e_i
        assert np.allclose(eps.coeff, G.adjacency.matrix.T, atol=EXACT)


def test_criterion_04_complete_positivity(instances):
    with criterion(4, "Choi positivity agrees with modular self-adjointness"):
        for family, graphs in instances.items():
            for G in graphs:
                flag, _ = qg.is_completely_positive(G.adjacency)
                props = qg.indicator_properties(G)
                assert flag == (props["r3"] <= TOL), family
        # a decisively non-CP Schur contraction: the transpose map on M_2
        psi = qg.validate_delta_form([2], [[0.5, 0.5]])
        st = psi.structure
        mat = np.zeros((4, 4))
        for i in range(2):
            for j in range(2):
                mat[st.flat_index(0, j, i), st.flat_index(0, i, j)] = 1.0
        A = qg.LinearMapOnB(st, mat)
        flag, min_eig = qg.is_completely_positive(A)
        max_eig = max(float(np.linalg.eigvalsh(H).max()) for H in choi_blocks(A))
        assert not flag
        assert min_eig <= -0.5 * max_eig


def test_criterion_05_faithful_full(instances):
    with criterion(5, "faithfulness/fullness with kernel cross-check"):
        for family, graphs in instances.items():
            for G in graphs:
                flag, _ = qg.is_completely_positive(G.adjacency)
                if not flag:
                    continue
                E = qg.build_edge_correspondence(G)
                rep = qg.faithful_full_report(E)
                # where A vanishes, the graph side, is where M has zero rows and columns, E_G's side
                assert rep["sources"] == np.flatnonzero(~E.mult.any(axis=1)).tolist(), family
                assert rep["sinks"] == np.flatnonzero(~E.mult.any(axis=0)).tolist(), family
                assert rep["faithful"] == (rep["sources"] == []), family
                assert rep["full"] == (rep["sinks"] == []), family
        line = qg.classical_graph([[0, 1], [0, 0]])
        rep = qg.faithful_full_report(qg.build_edge_correspondence(line))
        assert not rep["faithful"] and not rep["full"] and rep["kernel_dim"] == 1


def test_criterion_06_compact_decomposition(
    graph_complete_c2, graph_trivial_m2, graph_rank_one, graph_3cycle, graph_swap
):
    with criterion(6, "compact-operator decomposition of the left action"):
        for G in (
            graph_complete_c2,
            graph_trivial_m2,
            graph_rank_one,
            graph_3cycle,
            graph_swap,
        ):
            assert qg.compact_decomposition_residual(qg.build_edge_correspondence(G)) <= TOL


def test_criterion_07_correspondence_model(cp_family_graphs):
    expected = {
        "complete_c2": 4,
        "complete_m2": 16,
        "trivial_m2": 4,
        "trivial_skew": 4,
        "rank_one": 4,
        "classical_3cycle": 3,
        "classical_line": 1,
        "automorphism_swap": 8,
    }
    with criterion(7, "edge correspondence dimensions and the tensor model"):
        for name, G in cp_family_graphs.items():
            E = qg.build_edge_correspondence(G)
            residual = qg.cp_correspondence(E)
            assert E.size == expected[name], name
            assert cp_model_dim(G) == E.size, name
            assert residual <= TOL, name


def test_criterion_08_fock_truncation(cp_family_graphs):
    with criterion(8, "depth-3 Fock truncation identities within 60 s"):
        start = time.monotonic()
        dims = {
            "complete_c2": (2, 4, 8, 16),
            "trivial_m2": (4, 4, 4, 4),
            "rank_one": (4, 4, 4, 4),
            "classical_3cycle": (3, 3, 3, 3),
        }
        for name, expect in dims.items():
            G = cp_family_graphs[name]
            F = qg.build_fock(G, 3)
            assert F.level_dims == expect, name
            rep = qg.representation_residuals(F)
            assert dense_inner_defect(F) <= TOL, name  # T(xi)*T(eta) = pi(<xi,eta>_B) on the built levels
            assert rep["covariance"] <= TOL, name
            assert rep["vacuum_defect"] > 0.0, name
            lq = qg.lqck_fock_residuals(F)
            for key in ("lqck1", "lqck2", "lqck3", "toeplitz1", "toeplitz2"):
                assert lq[key] <= TOL, (name, key)
        assert time.monotonic() - start < 60.0


def test_criterion_09_relation_systems(cp_family_graphs, tracial_m2, skew_m2, rank_one_generator):
    with criterion(9, "QCK/LQCK systems, zero family, classical reduction"):
        # canonical families satisfy the local relations; local implies
        # global within a delta^2 amplification
        cases = [
            (qg.canonical_lqck_family("trivial", tracial_m2), qg.trivial_graph(tracial_m2)),
            (qg.canonical_lqck_family("trivial", skew_m2), qg.trivial_graph(skew_m2)),
            (
                qg.canonical_lqck_family("rank_one", tracial_m2, rank_one_generator),
                qg.rank_one_graph(tracial_m2, rank_one_generator),
            ),
            (
                qg.canonical_lqck_family(
                    "trivial", tracial_m2, u=np.array([[0, 1], [1, 0]], dtype=complex)
                ),
                qg.trivial_graph(tracial_m2),
            ),
        ]
        for fam, G in cases:
            gap, lq = qcp_disagreement(fam, G)
            local = max(lq["lqck1"], lq["lqck2"], lq["lqck3"])
            assert local <= TOL
            assert gap <= EXACT
            qck = qg.qck_residuals(fam, G)
            assert max(qck.values()) <= G.delta_sq * max(local, TOL)

        # the zero family with k = 1 realizes the third defect exactly
        for name, G in cp_family_graphs.items():
            zero = zero_family(G.structure, k=1)
            rep = qg.qck_residuals(zero, G)
            assert rep["qck1"] == 0.0 and rep["qck2"] == 0.0, name
            assert abs(rep["qck3"] - 1.0 / G.delta_sq) <= EXACT, name

        # classical reduction dictionary, both directions, on the 2-cycle
        G2 = qg.classical_graph([[0, 1], [1, 0]])
        e12 = np.array([[0, 1], [0, 0]], dtype=complex)
        fam = qg.CKFamily(2, np.stack([e12, e12.T]) / 2.0)
        rep = qg.classical_reduction(G2, fam)
        assert max(rep["partial_isometry"], rep["cuntz_krieger"], rep["unit_sum"]) <= EXACT
        assert max(rep["qck1"], rep["qck2"], rep["qck3"]) <= EXACT

        # Fock-extracted family passes on interior levels
        cyc = cp_family_graphs["classical_3cycle"]
        F = qg.build_fock(cyc, 3)
        rep = qg.classical_reduction(
            cyc, full_fock_family(F), compression=interior_projector(F)
        )
        assert max(rep["partial_isometry"], rep["cuntz_krieger"], rep["unit_sum"]) <= TOL


def test_criterion_10_recognition(cp_family_graphs, tracial_m2):
    with criterion(10, "recognition of edge correspondences from cyclic vectors"):
        for name in ("trivial_m2", "rank_one", "complete_c2", "classical_3cycle"):
            G = cp_family_graphs[name]
            out = recognize(edge_indicator(G), G.psi)
            assert np.allclose(out.graph.adjacency.matrix, G.adjacency.matrix, atol=TOL), name
            assert out.iso_residual <= TOL, name
        st = tracial_m2.structure
        coeff = np.zeros((4, 4))
        coeff[st.flat_index(0, 0, 0), st.flat_index(0, 0, 1)] = 1.0
        with pytest.raises(qg.NotQuantumAdjacency):
            recognize(qg.TensorElement(st, coeff), tracial_m2)
