import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_
from oracles import (
    comult_tensor,
    comultiply_adjoint_oracle,
    full_fock_family,
    interior_projector,
    mul_tensor,
)

import qgraph as qg

RNG = np.random.default_rng(23)
ROOT5 = 5.0 ** 0.5


def _nrm(X, P):
    return float(np.linalg.norm(X if P is None else P @ X @ P))


def two_cycle_family():
    """Exact Cuntz-Krieger representation of the classical 2-cycle on M_2."""
    G = qg.classical_graph([[0, 1], [1, 0]])
    e12 = np.array([[0, 1], [0, 0]], dtype=complex)
    e21 = e12.T
    # S_1 = e12, S_2 = e21; s = S / N
    s = qg.CKFamily(2, np.stack([e12, e21]) / 2.0)
    return G, s


class TestCKFamily:
    def test_shape_validation(self):
        with pytest.raises(qg.ShapeMismatch):
            qg.CKFamily(2, np.zeros((4, 3, 3)))

    @pytest.mark.parametrize("k", [0, -1])
    def test_needs_a_nonempty_factor(self, k):
        # k = 0 once passed QCK vacuously and divided by zero in LQCK's chunking
        with pytest.raises(qg.ShapeMismatch, match="at least 1"):
            qg.CKFamily(k, np.zeros((4, 0, 0)))

    def test_star_images(self, tracial_m2):
        st = tracial_m2.structure
        fam = qg.CKFamily(2, RNG.normal(size=(4, 2, 2)) + 1j * RNG.normal(size=(4, 2, 2)))
        Ss = fam.star_images(st)
        for p in range(4):
            assert np.allclose(Ss[p], fam.images[st.star_perm[p]].conj().T)

    def test_family_graph_mismatch(self, graph_3cycle):
        fam = qg.CKFamily(1, np.zeros((4, 1, 1)))
        with pytest.raises(qg.ShapeMismatch):
            qg.qck_residuals(fam, graph_3cycle)

    @pytest.mark.parametrize("bad", ["larger", "one_row"])
    @pytest.mark.parametrize(
        "residuals",
        [
            qg.qck_residuals,
            qg.lqck_residuals,
            lambda s, G, compression: qg.classical_reduction(G, s, compression=compression),
        ],
        ids=["qck", "lqck", "classical"],
    )
    def test_compression_must_be_k_by_k(self, residuals, bad):
        G, s = two_cycle_family()
        P = {"larger": np.eye(s.k + 1), "one_row": np.eye(s.k)[:1]}[bad]
        with pytest.raises(qg.ShapeMismatch, match="compression"):
            residuals(s, G, compression=P)


class TestZeroFamily:
    def test_first_two_relations_vanish(self, graph_trivial_m2):
        fam = qg.CKFamily.zero(graph_trivial_m2.structure, k=1)
        rep = qg.qck_residuals(fam, graph_trivial_m2)
        assert rep["qck1"] == 0.0
        assert rep["qck2"] == 0.0

    def test_third_relation_is_exactly_inverse_delta_sq(self, cp_family_graphs):
        # with k = 1 the defect || -delta^-2 I_1 || is exactly delta^-2
        for name, G in cp_family_graphs.items():
            fam = qg.CKFamily.zero(G.structure, k=1)
            qck = qg.qck_residuals(fam, G)
            lq = qg.lqck_residuals(fam, G)
            assert abs(qck["qck3"] - 1.0 / G.delta_sq) <= 1e-12, name
            assert abs(lq["lqck3"] - 1.0 / G.delta_sq) <= 1e-12, name

    def test_scaling_with_k(self, graph_trivial_m2):
        fam = qg.CKFamily.zero(graph_trivial_m2.structure, k=4)
        rep = qg.qck_residuals(fam, graph_trivial_m2)
        assert rep["qck3"] == pytest.approx(2.0 / graph_trivial_m2.delta_sq, abs=1e-14)


class TestCanonicalFamilies:
    def test_trivial_family_satisfies_everything(self, tracial_m2, skew_m2):
        for psi in (tracial_m2, skew_m2):
            fam = qg.canonical_lqck_family("trivial", psi)
            G = qg.trivial_graph(psi)
            lq = qg.lqck_residuals(fam, G)
            qck = qg.qck_residuals(fam, G)
            assert max(lq["lqck1"], lq["lqck2"], lq["lqck3"]) < 1e-12
            assert max(qck.values()) < 1e-12

    def test_rank_one_family(self, tracial_m2, rank_one_generator):
        fam = qg.canonical_lqck_family("rank_one", tracial_m2, rank_one_generator)
        G = qg.rank_one_graph(tracial_m2, rank_one_generator)
        lq = qg.lqck_residuals(fam, G)
        assert max(lq["lqck1"], lq["lqck2"], lq["lqck3"]) < 1e-12

    def test_local_implies_global(self, tracial_m2, rank_one_generator):
        # a family passing the local relations passes the global ones with
        # at most a delta^2 amplification
        cases = [
            (qg.canonical_lqck_family("trivial", tracial_m2), qg.trivial_graph(tracial_m2)),
            (
                qg.canonical_lqck_family("rank_one", tracial_m2, rank_one_generator),
                qg.rank_one_graph(tracial_m2, rank_one_generator),
            ),
        ]
        for fam, G in cases:
            lq = qg.lqck_residuals(fam, G)
            qck = qg.qck_residuals(fam, G)
            local = max(lq["lqck1"], lq["lqck2"], lq["lqck3"])
            assert max(qck.values()) <= G.delta_sq * max(local, 1e-9)

    def test_twisted_unitary(self, tracial_m2):
        u = np.array([[0, 1], [1, 0]], dtype=complex)
        fam = qg.canonical_lqck_family("trivial", tracial_m2, u=u)
        assert fam.k == 4
        lq = qg.lqck_residuals(fam, qg.trivial_graph(tracial_m2))
        assert max(lq["lqck1"], lq["lqck2"], lq["lqck3"]) < 1e-12

    def test_wrong_graph_detected(self, tracial_m2, graph_complete_m2):
        fam = qg.canonical_lqck_family("trivial", tracial_m2)
        lq = qg.lqck_residuals(fam, graph_complete_m2)
        assert lq["lqck2"] > 0.1


def qcp_oracle(s, G, P=None):
    """The explicit adapted-unit relations QCP1-3, by direct index sweeps.

    They restate LQCK1-3 unit by unit, so the two must agree.
    """
    st = G.structure
    psi = G.psi
    scale = np.sqrt(psi.weight_of_row * psi.gram_diag)
    F = s.images / scale[:, None, None]  # images on adapted units

    def f(a, i, j):
        return F[st.flat_index(a, i, j)]

    d2 = G.delta_sq
    Aad = G.adjacency.adapted_coefficients(psi)

    # sum_n s_ln (s_mn)* per (c, l, m), reused by QCP2 and QCP3
    SS = {}
    for c, nc in enumerate(st.sizes):
        for l in range(nc):
            for m in range(nc):
                SS[c, l, m] = sum(f(c, l, n) @ f(c, m, n).conj().T for n in range(nc))

    r1 = 0.0
    r2 = 0.0
    for a, na in enumerate(st.sizes):
        wa = psi.weights[a]
        for b, nb in enumerate(st.sizes):
            for i in range(na):
                for j in range(na):
                    for r in range(nb):
                        for t in range(nb):
                            lhs1 = sum(
                                f(a, i, k) @ f(a, j, k).conj().T for k in range(na)
                            ) @ f(b, r, t)
                            rhs1 = np.zeros((s.k, s.k), dtype=complex)
                            if a == b and j == r:
                                rhs1 = f(a, i, t) / (d2 * wa[j])
                            r1 = max(r1, _nrm(lhs1 - rhs1, P))

                            lhs2 = f(a, i, j).conj().T @ f(b, r, t)
                            rhs2 = np.zeros((s.k, s.k), dtype=complex)
                            if a == b and i == r:
                                col = Aad[:, st.flat_index(a, j, t)]
                                acc = np.zeros((s.k, s.k), dtype=complex)
                                for c, nc in enumerate(st.sizes):
                                    for l in range(nc):
                                        for m in range(nc):
                                            coeff = col[st.flat_index(c, l, m)]
                                            if coeff != 0:
                                                acc += coeff * SS[c, l, m]
                                rhs2 = acc / (d2 * wa[i])
                            r2 = max(r2, _nrm(lhs2 - rhs2, P))

    acc3 = np.zeros((s.k, s.k), dtype=complex)
    for c, nc in enumerate(st.sizes):
        for l in range(nc):
            for m in range(nc):
                acc3 += psi.weights[c][l] * f(c, l, m) @ f(c, l, m).conj().T
    r3 = _nrm(acc3 - np.eye(s.k) / d2, P)
    return {"lqck1": r1, "lqck2": r2, "lqck3": r3}


def qcp_disagreement(s, G, P=None):
    """Largest gap between lqck_residuals and the adapted-unit sweep."""
    rep = qg.lqck_residuals(s, G, compression=P)
    qcp = qcp_oracle(s, G, P)
    return max(abs(rep[key] - qcp[key]) for key in qcp), rep


class TestLocalGlobalAgreement:
    @given(st_.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_two_evaluations_agree_on_random_families(self, seed):
        # the coordinate-free evaluation and the explicit adapted-unit sweep
        # are independent implementations of the same relations
        psi = qg.validate_delta_form([2], [[1.0 / 3.0, 2.0 / 3.0]])
        G = qg.trivial_graph(psi)
        rng = np.random.default_rng(seed)
        fam = qg.CKFamily(
            3, rng.normal(size=(4, 3, 3)) + 1j * rng.normal(size=(4, 3, 3))
        )
        gap, rep = qcp_disagreement(fam, G)
        assert gap <= 1e-12 * max(1.0, rep["lqck1"], rep["lqck2"])

    def test_report_holds_the_local_relations_only(self, graph_trivial_m2):
        fam = qg.CKFamily.zero(graph_trivial_m2.structure, k=1)
        assert sorted(qg.lqck_residuals(fam, graph_trivial_m2)) == ["lqck1", "lqck2", "lqck3"]

    @pytest.mark.parametrize("compress", [False, True])
    def test_one_row_per_chunk_gives_the_same_values(self, monkeypatch, compress):
        # a family 1e-3 off the canonical one on trivial M_2 + M_1 (d = 5, k = 6):
        # every m-term is O(1), and the largest adapted-unit defects lie on the
        # last row u, the unit of M_1, whose weight 1/6 is the smallest
        psi = qg.validate_delta_form([2, 1], [[(5 + ROOT5) / 12, (5 - ROOT5) / 12], [1 / 6]])
        rng = np.random.default_rng(7)
        u = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
        fam = qg.canonical_lqck_family("trivial", psi, u=u)
        noise = rng.normal(size=fam.images.shape) + 1j * rng.normal(size=fam.images.shape)
        fam = qg.CKFamily(fam.k, fam.images + 1e-3 * noise)
        G = qg.trivial_graph(psi)
        P = np.diag(rng.integers(0, 2, size=fam.k).astype(float)) if compress else None
        whole = qg.lqck_residuals(fam, G, compression=P)
        monkeypatch.setattr(qg.graphs, "_CHUNK_ENTRIES", 1)  # one row u per GEMM
        chunked = qg.lqck_residuals(fam, G, compression=P)
        for key, want in whole.items():
            assert want > 1e-6, key
            assert chunked[key] == pytest.approx(want, rel=1e-14, abs=0), key

    def test_pair_tables_in_bounded_memory(self):
        # trivial M_8 twisted by a random 4 x 4 unitary: d = 64, k = 32.  A d^2 k^2
        # stack of all pair products takes 64 MiB; the chunked tables stay below one.
        psi = qg.validate_delta_form([8], [[1 / 8] * 8])
        rng = np.random.default_rng(8)
        u = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
        fam = qg.canonical_lqck_family("trivial", psi, u=u)
        G = qg.trivial_graph(psi)
        tracemalloc.start()
        try:
            rep = qg.lqck_residuals(fam, G)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert max(rep.values()) < 1e-12
        assert peak < 64 * 2**20

    def test_identity_compression_matches_none(self, graph_trivial_m2):
        fam = qg.canonical_lqck_family("trivial", graph_trivial_m2.psi)
        a = qg.lqck_residuals(fam, graph_trivial_m2)
        b = qg.lqck_residuals(fam, graph_trivial_m2, compression=np.eye(fam.k))
        for key in ("lqck1", "lqck2", "lqck3"):
            assert a[key] == pytest.approx(b[key], abs=1e-14)


class TestClassicalReduction:
    def test_exact_two_cycle_representation(self):
        G, s = two_cycle_family()
        rep = qg.classical_reduction(G, s)
        assert rep["partial_isometry"] < 1e-14
        assert rep["cuntz_krieger"] < 1e-14
        assert rep["unit_sum"] < 1e-14
        # the same family passes the quantum relations: the dictionary is exact
        assert max(rep["qck1"], rep["qck2"], rep["qck3"]) < 1e-14

    def test_broken_family_detected(self):
        G, s = two_cycle_family()
        bad = qg.CKFamily(2, s.images * 1.1)
        rep = qg.classical_reduction(G, bad)
        assert rep["cuntz_krieger"] > 0.01 or rep["partial_isometry"] > 0.01
        assert max(rep["qck1"], rep["qck2"], rep["qck3"]) > 0.001

    def test_fock_family_reduces_on_interior(self, graph_3cycle):
        F = qg.build_fock(graph_3cycle, 3)
        fam = full_fock_family(F)
        P = interior_projector(F)
        rep = qg.classical_reduction(graph_3cycle, fam, compression=P)
        assert rep["partial_isometry"] < 1e-9
        assert rep["cuntz_krieger"] < 1e-9
        assert rep["unit_sum"] < 1e-9

    def test_rejects_quantum_graph(self, graph_trivial_m2):
        fam = qg.CKFamily.zero(graph_trivial_m2.structure, k=1)
        with pytest.raises(qg.NotClassical):
            qg.classical_reduction(graph_trivial_m2, fam)

    @pytest.mark.parametrize("compress", [False, True])
    @pytest.mark.parametrize("n", [3, 4])
    @given(k=st_.integers(min_value=1, max_value=4), seed=st_.integers(0, 2**32 - 1))
    @settings(max_examples=5, deadline=None)
    def test_matches_vertex_loop_oracle(self, n, compress, k, seed):
        # a random directed graph on C^n and a random family far from CK
        rng = np.random.default_rng(seed)
        G = qg.classical_graph(rng.integers(0, 2, size=(n, n)))
        fam = qg.CKFamily(k, rng.normal(size=(n, k, k)) + 1j * rng.normal(size=(n, k, k)))
        P = random_compression(rng, k) if compress else None
        got = qg.classical_reduction(G, fam, compression=P)
        for key, want in classical_reduction_oracle(G, fam, P).items():
            assert want > 1e-6, key
            assert got[key] == pytest.approx(want, rel=1e-12), key


def classical_reduction_oracle(G, s, P=None):
    """Partial-isometry, Cuntz-Krieger and unit-sum residuals of S_i = N s(e_i),
    vertex by vertex."""
    N = G.structure.num_blocks
    A = G.adjacency.matrix.real
    S = [N * s.images[i] for i in range(N)]
    r_pi = max(_nrm(S[i] @ S[i].conj().T @ S[i] - S[i], P) for i in range(N))
    r_ck = max(
        _nrm(S[i].conj().T @ S[i] - sum(A[j, i] * S[j] @ S[j].conj().T for j in range(N)), P)
        for i in range(N)
    )
    r_unit = _nrm(sum(Si @ Si.conj().T for Si in S) - np.eye(s.k), P)
    return {"partial_isometry": r_pi, "cuntz_krieger": r_ck, "unit_sum": r_unit}


def random_compression(rng, k):
    """Orthogonal projector onto a random subspace of C^k of dimension 1..max(1, k-1)."""
    Q, _ = np.linalg.qr(rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k)))
    r = int(rng.integers(1, max(1, k - 1) + 1))
    return Q[:, :r] @ Q[:, :r].conj().T


def stacked_comultiply(psi):
    """W[u] = m*(b_u), the adjoint of m solved numerically per standard unit."""
    st = psi.structure
    eye = np.eye(st.dim)
    return np.stack(
        [
            comultiply_adjoint_oracle(qg.AlgebraElement.from_vector(st, eye[u]), psi).coeff
            for u in range(st.dim)
        ]
    )


def dense_qck_oracle(s, G, P=None):
    """QCK1-3 by dense einsums over all d^3 index triples of m*."""
    st = G.structure
    W = stacked_comultiply(G.psi)
    S = s.images
    Ss = s.star_images(st)
    double = np.einsum("upq,prt->urtq", W, W, optimize=True)
    q1 = np.einsum("urtq,rab,tbc,qcd->uad", double, S, Ss, S, optimize=True)
    lhs2 = np.einsum("upq,pab,qbc->uac", W, Ss, S, optimize=True)
    psi_t = np.einsum("vpq,pab,qbc->vac", W, S, Ss, optimize=True)
    rhs2 = np.einsum("vu,vac->uac", G.adjacency.matrix, psi_t, optimize=True)
    q3 = np.einsum("u,uac->ac", st.unit_vector, psi_t)
    return {
        "qck1": max(_nrm(q1[u] - S[u], P) for u in range(st.dim)),
        "qck2": max(_nrm(lhs2[u] - rhs2[u], P) for u in range(st.dim)),
        "qck3": _nrm(q3 - np.eye(s.k) / G.delta_sq, P),
    }


def dense_lqck_oracle(s, G, P=None):
    """LQCK1-3 by dense einsums over all d^3 index triples of m*."""
    st = G.structure
    W = stacked_comultiply(G.psi)
    S = s.images
    Ss = s.star_images(st)
    mt = mul_tensor(st)
    d2 = G.delta_sq
    scale = np.sqrt(G.psi.weight_of_row * G.psi.gram_diag)
    pair_scale = np.outer(scale, scale)
    pairs = [(u, v) for u in range(st.dim) for v in range(st.dim)]
    lhs1 = np.einsum("urt,rab,tbc,vcd->uvad", W, S, Ss, S, optimize=True)
    rhs1 = np.einsum("wuv,wab->uvab", mt, S, optimize=True) / d2
    lhs2 = np.einsum("uab,vbc->uvac", Ss, S, optimize=True)
    psi_t = np.einsum("xpq,pab,qbc->xac", W, S, Ss, optimize=True)
    rhs2 = np.einsum("wuv,xw,xac->uvac", mt, G.adjacency.matrix, psi_t, optimize=True) / d2
    q3 = np.einsum("u,uac->ac", st.unit_vector, psi_t)
    return {
        "lqck1": max(_nrm(lhs1[u, v] - rhs1[u, v], P) / pair_scale[u, v] for u, v in pairs),
        "lqck2": max(_nrm(lhs2[u, v] - rhs2[u, v], P) / pair_scale[u, v] for u, v in pairs),
        "lqck3": _nrm(q3 - np.eye(s.k) / d2, P),
    }


ORACLE_STATES = {
    "m2": ([2], [[0.5, 0.5]]),
    "m2_skew": ([2], [[1.0 / 3.0, 2.0 / 3.0]]),
    "m1m2_nontracial": ([1, 2], [[1.0 / 6.0], [(5 + ROOT5) / 12, (5 - ROOT5) / 12]]),
    "m2m2": ([2, 2], [[0.25, 0.25], [0.25, 0.25]]),
    "c3": ([1, 1, 1], [[1.0 / 3.0]] * 3),
}


class TestComultTensor:
    def test_closed_form_matches_stacked_comultiply(self, tracial_m2, skew_m2, uniform_c2):
        nontracial = qg.validate_delta_form(*ORACLE_STATES["m1m2_nontracial"])
        for psi in (tracial_m2, skew_m2, uniform_c2, nontracial):
            np.testing.assert_allclose(
                comult_tensor(psi), stacked_comultiply(psi), rtol=1e-15, atol=0
            )


class TestDenseOracle:
    @pytest.mark.parametrize("compress", [False, True])
    @pytest.mark.parametrize("kind", ["complete", "trivial"])
    @pytest.mark.parametrize("state", sorted(ORACLE_STATES))
    @given(k=st_.integers(min_value=1, max_value=4), seed=st_.integers(0, 2**32 - 1))
    @settings(max_examples=4, deadline=None)
    def test_residuals_match_dense_einsums(self, state, kind, compress, k, seed):
        # random families are far from CK, so every residual is O(1)
        psi = qg.validate_delta_form(*ORACLE_STATES[state])
        G = qg.complete_graph(psi) if kind == "complete" else qg.trivial_graph(psi)
        d = G.structure.dim
        rng = np.random.default_rng(seed)
        fam = qg.CKFamily(k, rng.normal(size=(d, k, k)) + 1j * rng.normal(size=(d, k, k)))
        P = random_compression(rng, k) if compress else None
        for fast, dense in (
            (qg.qck_residuals, dense_qck_oracle),
            (qg.lqck_residuals, dense_lqck_oracle),
        ):
            got = fast(fam, G, compression=P)
            for key, want in dense(fam, G, P).items():
                assert got[key] == pytest.approx(want, rel=1e-12), key
