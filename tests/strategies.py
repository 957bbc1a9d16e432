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
