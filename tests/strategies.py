"""Hypothesis strategies shared by the property tests."""

import numpy as np
from hypothesis import strategies as st_

import qgraph as qg

# block sizes with dim B <= 9, so loop oracles over unit pairs stay quick
SMALL_SIZES = [(1,), (2,), (3,), (1, 1), (1, 2), (2, 2), (1, 1, 1), (1, 1, 2)]


@st_.composite
def delta_states(draw, sizes=SMALL_SIZES):
    """Random faithful delta-form states, skewed ones included.

    With positive r_a per block, delta^2 = sum_a (sum r_a)(sum 1/r_a) and
    w_a = r_a (sum 1/r_a) / delta^2 sum to 1 and have sum 1/w_a = delta^2.
    """
    blocks = draw(st_.sampled_from(sizes))
    ratio = st_.floats(min_value=0.1, max_value=10.0)
    r = [np.array(draw(st_.lists(ratio, min_size=n, max_size=n))) for n in blocks]
    delta_sq = sum(ra.sum() * (1.0 / ra).sum() for ra in r)
    weights = [ra * (1.0 / ra).sum() / delta_sq for ra in r]
    return qg.validate_delta_form(list(blocks), weights)


# signed zeros, subnormals, the ends of the float range and integer values
SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e308, -1e308, 1.7976931348623157e308, 1.0, -3.0, 2.0**53]
TINY_FLOATS = [0.0, -0.0, 5e-324, -5e-324]


@st_.composite
def families(draw):
    """Families of 1-4 images of size 1-3 whose parts are SPECIAL_FLOATS or any finite float."""
    d, k = draw(st_.integers(1, 4)), draw(st_.integers(1, 3))
    part = st_.one_of(st_.sampled_from(SPECIAL_FLOATS), st_.floats(allow_nan=False, allow_infinity=False))
    images = np.empty((d, k, k), dtype=complex)
    for side in (images.real, images.imag):
        side[...] = np.reshape(draw(st_.lists(part, min_size=d * k * k, max_size=d * k * k)), (d, k, k))
    return qg.CKFamily(k, images)


@st_.composite
def graphs_with_tiny_parts(draw):
    """A classical graph (integer parts), or a complete or trivial graph on a
    drawn state, whose zero parts are redrawn from TINY_FLOATS: that moves no
    residual, so it is still a quantum graph."""
    if draw(st_.booleans()):
        n = draw(st_.integers(1, 4))
        adj = draw(st_.lists(st_.sampled_from([0, 1]), min_size=n * n, max_size=n * n))
        G = qg.classical_graph(np.reshape(adj, (n, n)))
    else:
        G = draw(st_.sampled_from([qg.complete_graph, qg.trivial_graph]))(draw(delta_states()))
    A = G.adjacency.matrix.copy()
    tiny = st_.lists(st_.sampled_from(TINY_FLOATS), min_size=A.size, max_size=A.size)
    for side in (A.real, A.imag):
        zero = side == 0
        side[zero] = np.reshape(draw(tiny), A.shape)[zero]
    return qg.QuantumGraph.build(G.psi, qg.LinearMapOnB(G.structure, A))
