import numpy as np
import pytest

import qgraph as qg


@pytest.fixture(scope="session")
def tracial_m2():
    return qg.validate_delta_form([2], [[0.5, 0.5]])


@pytest.fixture(scope="session")
def skew_m2():
    # non-tracial fixture: rho = diag(1/3, 2/3), delta^2 = 3 + 3/2 = 9/2
    return qg.validate_delta_form([2], [[1.0 / 3.0, 2.0 / 3.0]])


@pytest.fixture(scope="session")
def nontracial_m1_m2():
    # non-tracial on M_2: w = ((5 + sqrt 5) / 12, (5 - sqrt 5) / 12), Tr(rho_a^-1) = 6 on both blocks
    root5 = 5.0**0.5
    return qg.validate_delta_form([1, 2], [[1 / 6], [(5 + root5) / 12, (5 - root5) / 12]])


@pytest.fixture(scope="session")
def uniform_c2():
    return qg.validate_delta_form([1, 1], [[0.5], [0.5]])


@pytest.fixture(scope="session")
def rank_one_generator(tracial_m2):
    return qg.AlgebraElement(tracial_m2.structure, [np.diag([np.sqrt(2.0), 0.0])])


@pytest.fixture(scope="session")
def graph_complete_c2(uniform_c2):
    return qg.complete_graph(uniform_c2)


@pytest.fixture(scope="session")
def graph_complete_m2(tracial_m2):
    return qg.complete_graph(tracial_m2)


@pytest.fixture(scope="session")
def graph_trivial_m2(tracial_m2):
    return qg.trivial_graph(tracial_m2)


@pytest.fixture(scope="session")
def graph_trivial_skew(skew_m2):
    return qg.trivial_graph(skew_m2)


@pytest.fixture(scope="session")
def graph_rank_one(tracial_m2, rank_one_generator):
    return qg.rank_one_graph(tracial_m2, rank_one_generator)


@pytest.fixture(scope="session")
def graph_3cycle():
    return qg.classical_graph(np.roll(np.eye(3, dtype=int), 1, axis=0))


@pytest.fixture(scope="session")
def graph_line():
    return qg.classical_graph([[0, 1], [0, 0]])


@pytest.fixture(scope="session")
def graph_swap():
    psi = qg.validate_delta_form([2, 2], [[0.25, 0.25], [0.25, 0.25]])
    G, _ = qg.automorphism_graph(
        psi, qg.AutomorphismSpec((1, 0), (np.eye(2), np.eye(2)))
    )
    return G


@pytest.fixture(scope="session")
def cp_family_graphs(
    graph_complete_c2,
    graph_complete_m2,
    graph_trivial_m2,
    graph_trivial_skew,
    graph_rank_one,
    graph_3cycle,
    graph_line,
    graph_swap,
):
    """One representative per constructor family, all completely positive."""
    return {
        "complete_c2": graph_complete_c2,
        "complete_m2": graph_complete_m2,
        "trivial_m2": graph_trivial_m2,
        "trivial_skew": graph_trivial_skew,
        "rank_one": graph_rank_one,
        "classical_3cycle": graph_3cycle,
        "classical_line": graph_line,
        "automorphism_swap": graph_swap,
    }
