import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_
from oracles import comultiply_adjoint_oracle

import qgraph as qg
from qgraph.blocks import modular_half_matrix

RNG = np.random.default_rng(2024)


def random_element(st, rng=RNG):
    return qg.AlgebraElement(
        st, [rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) for n in st.sizes]
    )


class TestBlockStructure:
    def test_dim_and_offsets(self):
        st = qg.BlockStructure((1, 2, 3))
        assert st.dim == 1 + 4 + 9
        assert st.offsets == (0, 1, 5, 14)

    @given(
        st_.lists(st_.integers(min_value=1, max_value=4), min_size=1, max_size=4)
    )
    @settings(max_examples=50, deadline=None)
    def test_flat_index_roundtrip(self, sizes):
        st = qg.BlockStructure(tuple(sizes))
        for p in range(st.dim):
            a, i, j = st.unflatten(p)
            assert st.flat_index(a, i, j) == p

    def test_flat_index_range_errors(self):
        st = qg.BlockStructure((2,))
        with pytest.raises(qg.IndexOutOfRange):
            st.flat_index(1, 0, 0)
        with pytest.raises(qg.IndexOutOfRange):
            st.flat_index(0, 2, 0)
        with pytest.raises(qg.IndexOutOfRange):
            st.unflatten(4)

    def test_invalid_sizes(self):
        with pytest.raises(qg.ShapeMismatch):
            qg.BlockStructure(())
        with pytest.raises(qg.ShapeMismatch):
            qg.BlockStructure((0, 2))

    def test_mul_tensor_matches_matrix_product(self):
        st = qg.BlockStructure((2, 3))
        x, y = random_element(st), random_element(st)
        via_tensor = np.einsum("upq,p,q->u", st.mul_tensor, x.vec, y.vec)
        assert np.allclose(via_tensor, (x * y).vec)

    def test_star_perm_is_involution(self):
        st = qg.BlockStructure((3, 2))
        perm = st.star_perm
        assert np.array_equal(perm[perm], np.arange(st.dim))
        x = random_element(st)
        assert np.allclose(x.star().vec, x.vec.conj()[perm])

    def test_left_right_mult_matrices(self):
        st = qg.BlockStructure((2, 2))
        x, y = random_element(st), random_element(st)
        assert np.allclose(st.left_mult_matrix(x.vec) @ y.vec, (x * y).vec)
        assert np.allclose(st.right_mult_matrix(y.vec) @ x.vec, (x * y).vec)


class TestDeltaForm:
    def test_uniform_classical(self):
        for N in (2, 3, 5):
            psi = qg.validate_delta_form([1] * N, [[1.0 / N]] * N)
            assert psi.delta_sq == pytest.approx(N, abs=1e-12)

    def test_tracial_matrix_block(self):
        for n in (2, 3):
            psi = qg.validate_delta_form([n], [[1.0 / n] * n])
            assert psi.delta_sq == pytest.approx(n * n, abs=1e-12)

    def test_non_tracial(self, skew_m2):
        assert skew_m2.delta_sq == pytest.approx(4.5, abs=1e-12)

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(qg.NonPositiveWeight):
            qg.validate_delta_form([2], [[1.0, 0.0]])
        with pytest.raises(qg.NonPositiveWeight):
            qg.validate_delta_form([1], [[-1.0]])
        with pytest.raises(qg.NonPositiveWeight):
            qg.validate_delta_form([2], [[np.nan, 0.5]])

    def test_rejects_non_state(self):
        with pytest.raises(qg.NotState):
            qg.validate_delta_form([2], [[0.25, 0.25]])
        with pytest.raises(qg.NotState):
            qg.validate_delta_form([2], [[np.inf, 0.5]])

    def test_rejects_non_delta_form(self):
        # blocks C and C with unequal weights: Tr(rho^-1) differs per block
        with pytest.raises(qg.NotDeltaForm):
            qg.validate_delta_form([1, 1], [[0.3], [0.7]])

    def test_shape_mismatch(self):
        with pytest.raises(qg.ShapeMismatch):
            qg.validate_delta_form([2], [[0.5, 0.25, 0.25]])

    def test_state_value_and_gram(self, skew_m2):
        st = skew_m2.structure
        x = random_element(st)
        rho = np.diag(skew_m2.weights[0])
        assert skew_m2.value(x) == pytest.approx(np.trace(rho @ x.blocks[0]))
        # <e_ij, e_ij> = w_j
        for a, i, j in st.basis_indices():
            u = qg.AlgebraElement.standard_unit(st, a, i, j)
            assert qg.gns_inner(u, u, skew_m2) == pytest.approx(
                skew_m2.weights[a][j]
            )


class TestGnsInner:
    def test_sesquilinear_and_positive(self, skew_m2):
        st = skew_m2.structure
        x, y = random_element(st), random_element(st)
        assert qg.gns_inner(x, y, skew_m2) == pytest.approx(
            np.conj(qg.gns_inner(y, x, skew_m2))
        )
        assert qg.gns_inner(x, x, skew_m2).real > 0
        assert abs(qg.gns_inner(x, x, skew_m2).imag) < 1e-12

    def test_matches_state_of_product(self, skew_m2):
        st = skew_m2.structure
        x, y = random_element(st), random_element(st)
        assert qg.gns_inner(x, y, skew_m2) == pytest.approx(
            skew_m2.value(x.star() * y)
        )


class TestComultiplication:
    @pytest.mark.parametrize(
        "sizes,weights",
        [
            ((2,), [[0.5, 0.5]]),
            ((2,), [[1.0 / 3.0, 2.0 / 3.0]]),
            ((1, 2), [[1.0 / 6.0], [(5 + np.sqrt(5)) / 12, (5 - np.sqrt(5)) / 12]]),
        ],
    )
    def test_matches_adjoint_oracle(self, sizes, weights):
        psi = qg.validate_delta_form(list(sizes), weights)
        st = psi.structure
        x = random_element(st)
        closed = qg.comultiply(x, psi)
        oracle = comultiply_adjoint_oracle(x, psi)
        assert np.allclose(closed.coeff, oracle.coeff, atol=1e-12)

    def test_m_mstar_is_delta_sq(self, skew_m2):
        st = skew_m2.structure
        x = random_element(st)
        back = qg.comultiply(x, skew_m2).multiply_down()
        assert np.allclose(back.vec, skew_m2.delta_sq * x.vec, atol=1e-12)

    def test_adapted_unit_formula(self, skew_m2):
        # m*(f_ij) = sum_k f_ik (x) f_kj
        psi = skew_m2
        st = psi.structure
        n = st.sizes[0]
        for i in range(n):
            for j in range(n):
                lhs = qg.comultiply(qg.adapted_unit(0, i, j, psi), psi)
                rhs = qg.TensorElement.zero(st)
                for k in range(n):
                    rhs = rhs + qg.TensorElement.simple(
                        qg.adapted_unit(0, i, k, psi), qg.adapted_unit(0, k, j, psi)
                    )
                assert (lhs - rhs).norm() < 1e-12


class TestTensorElement:
    def test_simple_and_pair_block(self):
        psi = qg.validate_delta_form(
            [1, 2], [[1.0 / 6.0], [(5 + np.sqrt(5)) / 12, (5 - np.sqrt(5)) / 12]]
        )
        st = psi.structure
        x, y = random_element(st), random_element(st)
        t = qg.TensorElement.simple(x, y)
        assert t.pair_block(0, 1).shape == (1, 4)
        assert np.allclose(t.pair_block(1, 1), np.outer(x.vec[1:], y.vec[1:]))

    def test_left_right_mul(self):
        psi = qg.validate_delta_form([2], [[0.5, 0.5]])
        st = psi.structure
        a, b, x, y = (random_element(st) for _ in range(4))
        t = qg.TensorElement.simple(a, b)
        assert np.allclose(
            t.left_mul(x).right_mul(y).coeff,
            qg.TensorElement.simple(x * a, b * y).coeff,
        )

    def test_dagger_on_simple(self):
        psi = qg.validate_delta_form([2], [[0.5, 0.5]])
        st = psi.structure
        a, b = random_element(st), random_element(st)
        t = qg.TensorElement.simple(a, b)
        assert np.allclose(
            t.dagger().coeff, qg.TensorElement.simple(a.star(), b.star()).coeff
        )

    def test_partial_psi_left(self, skew_m2):
        st = skew_m2.structure
        a, b = random_element(st), random_element(st)
        t = qg.TensorElement.simple(a, b)
        out = t.partial_psi_left(skew_m2)
        assert np.allclose(out.vec, skew_m2.value(a) * b.vec)

    def test_sharp_on_simples(self):
        psi = qg.validate_delta_form([2], [[0.5, 0.5]])
        st = psi.structure
        a, b, c, d = (random_element(st) for _ in range(4))
        lhs = qg.sharp(qg.TensorElement.simple(a, b), qg.TensorElement.simple(c, d))
        rhs = qg.TensorElement.simple(a * c, d * b)
        assert (lhs - rhs).norm() < 1e-10


class TestModular:
    def test_half_scales_units(self, skew_m2):
        psi = skew_m2
        st = psi.structure
        w = psi.weights[0]
        for i in range(2):
            for j in range(2):
                u = qg.AlgebraElement.standard_unit(st, 0, i, j)
                out = qg.modular_half(u, psi)
                assert out.blocks[0][i, j] == pytest.approx(np.sqrt(w[j] / w[i]))

    def test_matrix_matches_map(self, skew_m2):
        st = skew_m2.structure
        x = random_element(st)
        assert np.allclose(
            modular_half_matrix(skew_m2) @ x.vec, qg.modular_half(x, skew_m2).vec
        )

    def test_power_composition(self, skew_m2):
        st = skew_m2.structure
        x = random_element(st)
        once = qg.modular_power(qg.modular_power(x, skew_m2, 0.5), skew_m2, 0.5)
        assert np.allclose(once.vec, qg.modular_power(x, skew_m2, 1.0).vec)
        # sigma_{-i} inverts sigma_i
        undone = qg.modular_power(qg.modular_power(x, skew_m2, 1.0), skew_m2, -1.0)
        assert np.allclose(undone.vec, x.vec)

    def test_trivial_on_tracial(self, tracial_m2):
        st = tracial_m2.structure
        x = random_element(st)
        assert np.allclose(qg.modular_half(x, tracial_m2).vec, x.vec)


class TestAdaptedUnits:
    def test_scalar_orthonormal(self, skew_m2):
        psi = skew_m2
        st = psi.structure
        units = [
            (i, j, qg.adapted_unit(0, i, j, psi)) for i in range(2) for j in range(2)
        ]
        for i, j, f in units:
            for k, l, g in units:
                inner = qg.gns_inner(f, g, psi)
                # <f_ij, f_kl>_psi = delta_ik delta_jl / w_i
                expect = 1.0 / psi.weights[0][i] if (i, j) == (k, l) else 0.0
                assert inner == pytest.approx(expect, abs=1e-12)

    def test_multiplication_rule(self, skew_m2):
        psi = skew_m2
        w = psi.weights[0]
        f01 = qg.adapted_unit(0, 0, 1, psi)
        f11 = qg.adapted_unit(0, 1, 1, psi)
        prod = f01 * f11
        # f_ij f_jl = f_il / w_j
        assert np.allclose(prod.vec, f01.vec / w[1])
