import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_
from strategies import SCATTERED_SIZES, SMALL_SIZES, delta_states
from oracles import (
    BlockElement,
    adapted_unit,
    basis_indices,
    comultiply_adjoint_oracle,
    delta_form_oracle,
    gns_inner,
    left_mul,
    left_mult_matrix,
    modular_half,
    modular_power,
    mul_tensor,
    multiply_down,
    partial_psi_left,
    products_oracle,
    right_mul,
    right_mult_matrix,
    state_tables_oracle,
    state_value,
    unflatten,
)

import qgraph as qg

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
            a, i, j = unflatten(st, p)
            assert st.flat_index(a, i, j) == p

    def test_flat_index_range_errors(self):
        st = qg.BlockStructure((2,))
        with pytest.raises(qg.IndexOutOfRange):
            st.flat_index(1, 0, 0)
        with pytest.raises(qg.IndexOutOfRange):
            st.flat_index(0, 2, 0)
        with pytest.raises(qg.IndexOutOfRange):
            unflatten(st, 4)

    def test_invalid_sizes(self):
        with pytest.raises(qg.ShapeMismatch):
            qg.BlockStructure(())
        with pytest.raises(qg.ShapeMismatch):
            qg.BlockStructure((0, 2))

    def test_mul_tensor_matches_matrix_product(self):
        st = qg.BlockStructure((2, 3))
        x, y = random_element(st), random_element(st)
        via_tensor = np.einsum("upq,p,q->u", mul_tensor(st), x.vec, y.vec)
        assert np.allclose(via_tensor, (x * y).vec)

    @pytest.mark.parametrize("sizes", [(1,), (2,), (1, 2, 3), (3, 1, 2), (4, 4)])
    def test_mul_nonzeros_are_the_dense_nonzeros_in_order(self, sizes):
        st = qg.BlockStructure(sizes)
        for got, want in zip(st.mul_nonzeros, np.nonzero(mul_tensor(st)), strict=True):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("sizes", [(1,), (2,), (1, 2, 3), (3, 1, 2), (4, 4)])
    def test_unit_tables_match_flat_index_loops(self, sizes):
        # star_perm, unit_vector and the state's tables, bit for bit, against loops over flat_index,
        # on a weight table given as it is and on a delta-form state read by validate_delta_form
        st = qg.BlockStructure(sizes)
        r = [RNG.uniform(0.5, 2.0, size=n) for n in sizes]
        table = np.ones((len(sizes), max(sizes)))
        for a, w in enumerate(r):
            table[a, : len(w)] = w
        delta_sq = sum(w.sum() * (1.0 / w).sum() for w in r)
        valid = [w * (1.0 / w).sum() / delta_sq for w in r]  # sum to 1, sum 1/w_a = delta^2
        for weights, psi in ((r, qg.DeltaState(st, table, 1.0)), (valid, qg.validate_delta_form(st, valid))):
            star, unit = np.empty(st.dim, dtype=np.intp), np.zeros(st.dim, dtype=complex)
            psi_vec, gram, row = np.zeros(st.dim), np.empty(st.dim), np.empty(st.dim)
            for a, i, j in basis_indices(st):
                p = st.flat_index(a, i, j)
                star[p], gram[p], row[p] = st.flat_index(a, j, i), weights[a][j], weights[a][i]
                if i == j:
                    unit[p], psi_vec[p] = 1.0, weights[a][i]
            min_weight = np.array([min(w) for w in weights])
            for got, want in ((st.star_perm, star), (st.unit_vector, unit), (psi.psi_vec, psi_vec),
                              (psi.gram_diag, gram), (psi.weight_of_row, row), (psi.min_weight, min_weight)):
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()
            assert all(w.tobytes() == np.asarray(v).tobytes() for w, v in zip(psi.weights, weights, strict=True))

    def test_star_perm_is_involution(self):
        st = qg.BlockStructure((3, 2))
        perm = st.star_perm
        assert np.array_equal(perm[perm], np.arange(st.dim))
        x = random_element(st)
        assert np.allclose(x.star().vec, x.vec.conj()[perm])

    def test_left_right_mult_matrices(self):
        st = qg.BlockStructure((2, 2))
        x, y = random_element(st), random_element(st)
        assert np.allclose(left_mult_matrix(st, x.vec) @ y.vec, (x * y).vec)
        assert np.allclose(right_mult_matrix(st, y.vec) @ x.vec, (x * y).vec)


layouts = st_.one_of(
    st_.sampled_from(SCATTERED_SIZES), st_.lists(st_.integers(1, 4), min_size=1, max_size=7).map(tuple)
)


class TestProducts:
    @given(sizes=layouts, seed=st_.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_the_block_loop(self, sizes, seed):
        # a block of size N > 1 is one matmul, as in the loop, bit for bit; a
        # block of size 1 is the elementwise product, which a 1 x 1 matmul
        # through BLAS can miss in the last bit
        st = qg.BlockStructure(sizes)
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(3, 1, st.dim)) + 1j * rng.normal(size=(3, 1, st.dim))
        Y = rng.normal(size=(2, st.dim)) + 1j * rng.normal(size=(2, st.dim))
        got, want = st.products(X, Y), products_oracle(st, X, Y)
        assert got.shape == want.shape == (3, 2, st.dim) and got.dtype == want.dtype
        ones = np.repeat(np.array(st.sizes) == 1, np.square(st.sizes))
        assert got[..., ~ones].tobytes() == want[..., ~ones].tobytes()
        assert got[..., ones].tobytes() == (X * Y)[..., ones].tobytes()
        scale = np.abs(X) * np.abs(Y)
        assert np.all(np.abs(got - want)[..., ones] <= 4e-16 * scale[..., ones])
        # a real 1 x 1 product has no sum to fuse: real stacks match on every block
        assert np.array_equal(st.products(X.real, Y.real), products_oracle(st, X.real, Y.real))

    @given(sizes=layouts)
    @settings(max_examples=40, deadline=None)
    def test_size_groups_partition_the_coordinates(self, sizes):
        st = qg.BlockStructure(sizes)
        groups = st.size_groups
        assert [g.size for g in groups] == sorted(set(sizes))
        assert sorted(np.concatenate([g.blocks for g in groups]).tolist()) == list(range(len(sizes)))
        coords = np.concatenate([g.coords.ravel() for g in groups])
        assert sorted(coords.tolist()) == list(range(st.dim))
        for g in groups:
            assert [sizes[a] for a in g.blocks] == [g.size] * len(g.blocks)
            assert np.array_equal(np.arange(st.dim)[g.index], g.coords.ravel())
            contiguous = np.array_equal(np.diff(g.coords.ravel()), np.ones(g.coords.size - 1))
            assert isinstance(g.index, slice) == contiguous

    @pytest.mark.parametrize("sizes", [(5,), (1,) * 25, (1, 1, 2, 2)])
    def test_reads_contiguous_groups_without_a_copy(self, sizes):
        # a single size group (one block, or all of size 1) and contiguous groups
        # are read as views: besides the output, only the products of the groups
        st = qg.BlockStructure(sizes)
        X = RNG.normal(size=(400, st.dim)) + 1j * RNG.normal(size=(400, st.dim))
        Y = RNG.normal(size=(400, st.dim)) + 1j * RNG.normal(size=(400, st.dim))
        st.products(X[:1], Y[:1])  # caches the size groups
        tracemalloc.start()
        try:
            out = st.products(X, Y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        limit = out.nbytes if len(st.size_groups) == 1 else 2 * out.nbytes
        assert peak <= limit + 4096


class TestAlgebraElement:
    @given(psi=delta_states(SMALL_SIZES + SCATTERED_SIZES), seed=st_.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matches_the_block_loop(self, psi, seed):
        # an element is its coordinate vector: every operation but the product equals the
        # block-by-block reference bit for bit; the product is `products`, one matmul per size
        # group and elementwise on size 1, where the reference's 1 x 1 matmul can miss the last bit
        st, rng = psi.structure, np.random.default_rng(seed)
        X, Y = rng.normal(size=(2, st.dim)) + 1j * rng.normal(size=(2, st.dim))
        c = complex(*rng.normal(size=2))
        x, y = qg.AlgebraElement.from_vector(st, X), qg.AlgebraElement(st, BlockElement.from_vector(st, Y).blocks)
        rx, ry = BlockElement.from_vector(st, X), BlockElement.from_vector(st, Y)
        pairs = [(x + y, rx + ry), (x - y, rx - ry), (-x, -rx), (c * x, c * rx), (x * c, rx * c), (x.star(), rx.star()),
                 (qg.AlgebraElement.zero(st), BlockElement.zero(st)), (qg.AlgebraElement.unit(st), BlockElement.unit(st))]
        pairs += [(qg.AlgebraElement.standard_unit(st, *u), BlockElement.standard_unit(st, *u)) for u in basis_indices(st)]
        for got, want in pairs:
            assert got.structure == st and got.vec.dtype == want.vec.dtype
            assert got.vec.tobytes() == want.vec.tobytes()
        for z, rz in ((x, rx), (y, ry)):
            for got, want in zip(z.blocks, rz.blocks, strict=True):
                assert got.tobytes() == want.tobytes() and np.shares_memory(got, z.vec)
        got, want = (x * y).vec, (rx * ry).vec
        assert np.all(np.abs(got - want) <= 1e-14 * products_oracle(st, np.abs(X), np.abs(Y)))

    def test_stores_one_vector_of_its_own(self):
        st = qg.BlockStructure((1, 2))
        assert qg.AlgebraElement.__slots__ == ("structure", "vec")
        vec = np.arange(st.dim, dtype=complex)
        x = qg.AlgebraElement.from_vector(st, vec)
        vec[0] = 7.0
        assert x.vec[0] == 0.0
        one = qg.AlgebraElement.unit(st)
        one.vec[:] = 5.0
        assert np.array_equal(st.unit_vector, [1, 1, 0, 0, 1])
        with pytest.raises(qg.ShapeMismatch):
            qg.AlgebraElement.from_vector(st, vec[:-1])
        with pytest.raises(qg.ShapeMismatch):
            qg.AlgebraElement(st, [np.eye(1), np.eye(3)])
        with pytest.raises(qg.ShapeMismatch):
            qg.AlgebraElement(st, [np.eye(1)])


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

    @pytest.mark.parametrize(
        "sizes, weights",
        [
            ([1, 1], [[0.5]]),  # a wrong count
            ([1, 1, 1], [[0.5], [0.25], [0.25], [0.1]]),
            ([2], [[0.5, 0.25, 0.25]]),  # a list of the wrong length
            ([1, 2], [[0.2], [0.4]]),
            ([1, 2], [[0.2, 0.2], [0.3, 0.3]]),  # lists of one length, the second block's too short
            ([2, 2], [[0.25, 0.25], [[0.25, 0.25]]]),  # ragged lists
            ([2], [[0.5, [0.5]]]),
            ([1, 1], [[0.5], 0.5]),
            ([1, 2], [[0.5, 0.5], [0.25, [0.25]]]),  # the first block's shape is read before the second's lists
            ([2], [[1.0, 0.0]]),  # zero
            ([1, 2], [[0.0], [0.5, 0.5]]),
            ([1], [[-1.0]]),  # negative
            ([2, 2], [[0.25, 0.25], [0.75, -0.25]]),
            ([2], [[np.nan, 0.5]]),  # NaN
            ([1, 2], [[0.2], [np.nan, 0.4]]),
            ([2], [[0.25, 0.25]]),  # a sum other than 1
            ([2], [[np.inf, 0.5]]),
            ([3, 1], [[0.1, 0.2, 0.3], [0.3]]),
            ([1, 1], [[0.3], [0.7]]),  # per-block Tr(rho^-1) that disagree
            ([2, 1], [[0.35, 0.35], [0.3]]),
            ([9, 9], [[1 / 18] * 8 + [1 / 18 + 1e-7], [1 / 18] * 8 + [1 / 18 - 1e-7]]),
            ([5, 9], [[0.0402, 0.0113, 0.0426, 0.0422, 0.1056], [0.1797, 0.0206, 0.0185, 0.1951, 0.0119, 0.0472, 0.1518, 0.123, 0.0103]]),
        ],
    )
    def test_malformed_weights_raise_the_block_by_block_error(self, sizes, weights):
        # the per-block read and the per-size-group sums raise what the oracle's checks block by block
        # raise, message included: the sums and Tr(rho^-1) it prints are each block's own, bit for bit
        with pytest.raises(Exception) as want:
            delta_form_oracle(sizes, weights)
        with pytest.raises(want.type) as got:
            qg.validate_delta_form(sizes, weights)
        assert got.type is want.type and str(got.value) == str(want.value)

    @given(
        psi=delta_states(SMALL_SIZES + SCATTERED_SIZES + [(9,), (1, 9), (5, 9), (9, 7, 2, 9), (8,) * 3]),
        uniform=st_.lists(st_.integers(1, 3), min_size=1, max_size=500) | st_.integers(1, 500).map(lambda d: [1] * d),
    )
    @settings(max_examples=60, deadline=None)
    def test_tables_match_the_block_loop(self, psi, uniform):
        # a drawn state and the uniform state w_a[i] = N_a / dim B on up to 500 blocks, read back from
        # per-block lists: every table the state derives equals the block-by-block oracle, bit for bit
        sizes = list(psi.structure.sizes)
        uniform_weights = [[n / sum(m * m for m in uniform)] * n for n in uniform]
        for sizes, weights in ((sizes, [w.tolist() for w in psi.weights]), (uniform, uniform_weights)):
            state = qg.validate_delta_form(sizes, weights)
            ws, delta_sq = delta_form_oracle(sizes, weights)
            assert state.delta_sq == delta_sq and type(state.delta_sq) is float
            for name, want in state_tables_oracle(ws).items():
                got = getattr(state, name)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
            assert all(w.tobytes() == v.tobytes() and not w.flags.writeable for w, v in zip(state.weights, ws, strict=True))

    def test_state_value_and_gram(self, skew_m2):
        st = skew_m2.structure
        x = random_element(st)
        rho = np.diag(skew_m2.weights[0])
        assert state_value(skew_m2, x) == pytest.approx(np.trace(rho @ x.blocks[0]))
        # <e_ij, e_ij> = w_j
        for a, i, j in basis_indices(st):
            u = qg.AlgebraElement.standard_unit(st, a, i, j)
            assert gns_inner(u, u, skew_m2) == pytest.approx(
                skew_m2.weights[a][j]
            )


class TestGnsInner:
    def test_sesquilinear_and_positive(self, skew_m2):
        st = skew_m2.structure
        x, y = random_element(st), random_element(st)
        assert gns_inner(x, y, skew_m2) == pytest.approx(
            np.conj(gns_inner(y, x, skew_m2))
        )
        assert gns_inner(x, x, skew_m2).real > 0
        assert abs(gns_inner(x, x, skew_m2).imag) < 1e-12

    def test_matches_state_of_product(self, skew_m2):
        st = skew_m2.structure
        x, y = random_element(st), random_element(st)
        assert gns_inner(x, y, skew_m2) == pytest.approx(
            state_value(skew_m2, x.star() * y)
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
        back = multiply_down(qg.comultiply(x, skew_m2))
        assert np.allclose(back.vec, skew_m2.delta_sq * x.vec, atol=1e-12)

    def test_adapted_unit_formula(self, skew_m2):
        # m*(f_ij) = sum_k f_ik (x) f_kj
        psi = skew_m2
        st = psi.structure
        n = st.sizes[0]
        for i in range(n):
            for j in range(n):
                lhs = qg.comultiply(adapted_unit(0, i, j, psi), psi)
                rhs = qg.TensorElement.zero(st)
                for k in range(n):
                    rhs = rhs + qg.TensorElement.simple(
                        adapted_unit(0, i, k, psi), adapted_unit(0, k, j, psi)
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
            right_mul(left_mul(t, x), y).coeff,
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
        out = partial_psi_left(t, skew_m2)
        assert np.allclose(out.vec, state_value(skew_m2, a) * b.vec)

    def test_sharp_on_simples(self):
        psi = qg.validate_delta_form([2], [[0.5, 0.5]])
        st = psi.structure
        a, b, c, d = (random_element(st) for _ in range(4))
        lhs = qg.sharp(qg.TensorElement.simple(a, b), qg.TensorElement.simple(c, d))
        rhs = qg.TensorElement.simple(a * c, d * b)
        assert (lhs - rhs).norm() < 1e-10

    @pytest.mark.parametrize("sizes", [(1, 2), (3,)])
    def test_sharp_in_chunks_of_one_row(self, monkeypatch, sizes):
        st = qg.BlockStructure(sizes)
        a, b, c, d = (random_element(st) for _ in range(4))
        simple = qg.TensorElement.simple
        u, v = simple(a, b) + simple(c, d), simple(d, a) + simple(b, c)
        whole = qg.sharp(u, v).coeff
        monkeypatch.setattr(qg.blocks, "_CHUNK_ENTRIES", 1)  # one row of u # v per chunk
        assert np.array_equal(qg.sharp(u, v).coeff, whole)
        # (x (x) y) # (z (x) w) = xz (x) wy, summed over the two terms of u and of v
        want = sum(np.outer((x * z).vec, (w * y).vec) for x, y in ((a, b), (c, d)) for z, w in ((d, a), (b, c)))
        assert np.allclose(whole, want, rtol=0, atol=1e-12 * np.abs(want).max())


class TestModular:
    def test_half_scales_units(self, skew_m2):
        psi = skew_m2
        st = psi.structure
        w = psi.weights[0]
        for i in range(2):
            for j in range(2):
                u = qg.AlgebraElement.standard_unit(st, 0, i, j)
                out = modular_half(u, psi)
                assert out.blocks[0][i, j] == pytest.approx(np.sqrt(w[j] / w[i]))

    def test_scale_matches_map(self, skew_m2):
        st = skew_m2.structure
        x = random_element(st)
        assert np.allclose(skew_m2.modular_half_scale * x.vec, modular_half(x, skew_m2).vec)

    def test_power_composition(self, skew_m2):
        st = skew_m2.structure
        x = random_element(st)
        once = modular_power(modular_power(x, skew_m2, 0.5), skew_m2, 0.5)
        assert np.allclose(once.vec, modular_power(x, skew_m2, 1.0).vec)
        # sigma_{-i} inverts sigma_i
        undone = modular_power(modular_power(x, skew_m2, 1.0), skew_m2, -1.0)
        assert np.allclose(undone.vec, x.vec)

    def test_trivial_on_tracial(self, tracial_m2):
        st = tracial_m2.structure
        x = random_element(st)
        assert np.allclose(modular_half(x, tracial_m2).vec, x.vec)


class TestAdaptedUnits:
    def test_scalar_orthonormal(self, skew_m2):
        psi = skew_m2
        st = psi.structure
        units = [
            (i, j, adapted_unit(0, i, j, psi)) for i in range(2) for j in range(2)
        ]
        for i, j, f in units:
            for k, l, g in units:
                inner = gns_inner(f, g, psi)
                # <f_ij, f_kl>_psi = delta_ik delta_jl / w_i
                expect = 1.0 / psi.weights[0][i] if (i, j) == (k, l) else 0.0
                assert inner == pytest.approx(expect, abs=1e-12)

    def test_multiplication_rule(self, skew_m2):
        psi = skew_m2
        w = psi.weights[0]
        f01 = adapted_unit(0, 0, 1, psi)
        f11 = adapted_unit(0, 1, 1, psi)
        prod = f01 * f11
        # f_ij f_jl = f_il / w_j
        assert np.allclose(prod.vec, f01.vec / w[1])
