"""Cases of the four benchmark workloads, their inputs and their oracle.

A case is one `qgraph` command line over generated files.  Every expected
outcome below is a closed form in the block sizes and the graph kind; none
of it is computed by qgraph, so the oracle stays independent of the code
it judges.  `build_inputs` is the only function that calls qgraph: it runs
the graph constructors (with their Schur check) and `canonical_lqck_family`
(with its LQCK self-check) and writes the JSON files.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("inspect-ladder", "fock-ladder", "check-families", "frontier")

ROOT5 = 5.0 ** 0.5
# non-tracial delta-form state on M_1 + M_2: Tr(rho_a^-1) = 6 on both blocks
NONTRACIAL_M1_M2 = ([1, 2], [[1 / 6], [(5 + ROOT5) / 12, (5 - ROOT5) / 12]])


def tracial(sizes: list[int]) -> tuple[list[int], list[list[float]]]:
    """Delta-form state with rho_a = (N_a / delta^2) 1, delta^2 = dim B."""
    dim = sum(n * n for n in sizes)
    return list(sizes), [[n / dim] * n for n in sizes]


def uniform(n: int) -> tuple[list[int], list[list[float]]]:
    return [1] * n, [[1.0 / n]] * n


@dataclass(frozen=True)
class GraphSpec:
    """A quantum graph by kind: complete, trivial, rank_one or classical."""

    kind: str
    blocks: tuple[int, ...]
    weights: tuple[tuple[float, ...], ...]
    adjacency: tuple[tuple[int, ...], ...] | None = None  # classical only

    @property
    def dim(self) -> int:
        return sum(n * n for n in self.blocks)

    def dim_e(self) -> int:
        """dim E_G = sum_{a,b} N_a N_b rank(Choi_ab), in closed form per kind."""
        if self.kind == "complete":
            return self.dim * self.dim
        if self.kind in ("trivial", "rank_one"):
            return self.dim
        return int(sum(map(sum, self.adjacency)))

    def level_dims(self, levels: int) -> list[int]:
        """Fock level dims d (dim E / d)^l; every Fock case is regular."""
        d, e = self.dim, self.dim_e()
        if e % d:
            raise ValueError(f"{self} is not regular; d (dim E/d)^l does not apply")
        return [d * (e // d) ** l for l in range(levels + 1)]


def graph(kind: str, state) -> GraphSpec:
    blocks, weights = state
    return GraphSpec(kind, tuple(blocks), tuple(tuple(w) for w in weights))


def classical(adj: np.ndarray) -> GraphSpec:
    n = adj.shape[0]
    blocks, weights = uniform(n)
    return GraphSpec(
        "classical", tuple(blocks), tuple(tuple(w) for w in weights),
        tuple(tuple(int(v) for v in row) for row in adj),
    )


def relabel(adj: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """The same classical graph with its vertices renamed by the seed."""
    perm = rng.permutation(adj.shape[0])
    return adj[np.ix_(perm, perm)]


def cycle(n: int) -> np.ndarray:
    return np.roll(np.eye(n, dtype=int), 1, axis=0)


@dataclass(frozen=True)
class FamilySpec:
    """canonical_lqck_family(kind, psi, T, u) with u a Haar unitary of size
    h; without u (haar=False) it is the CLI's built-in example family."""

    kind: str
    graph: str
    h: int = 1
    haar: bool = True


@dataclass(frozen=True)
class Case:
    """One command.  `large` puts it in large_s, else in small_s.  `expect`
    is "solved" on the ladders; frontier cases name the outcome seen when
    the benchmark was defined."""

    name: str
    command: str  # inspect | fock | check
    graph: str
    levels: int = 0
    family: str = ""
    mode: str = ""
    large: bool = False
    expect: str = "solved"

    def argv(self, files: dict[str, str]) -> list[str]:
        argv = [self.command, files[self.graph]]
        if self.command == "fock":
            argv += ["--levels", str(self.levels)]
        elif self.command == "check":
            argv += ["--family", files[self.family], "--mode", self.mode]
        return argv


@dataclass
class Workload:
    name: str
    graphs: dict[str, GraphSpec]
    cases: list[Case]
    families: dict[str, FamilySpec] = field(default_factory=dict)
    controls: list[Case] = field(default_factory=list)  # frontier only


def make_workload(name: str, seed: int) -> Workload:
    """The workload's graphs, families and cases.  The seed renames the
    vertices of classical graphs; `build_inputs` also draws the Haar
    unitaries of the families from it."""
    rng = np.random.default_rng(seed)
    m2 = tracial([2])
    G = {
        "complete_c2": graph("complete", uniform(2)),
        "complete_m2": graph("complete", m2),
        "trivial_m2": graph("trivial", m2),
        "trivial_m2_skew": graph("trivial", ([2], [[1 / 3, 2 / 3]])),
        "rank_one_m2": graph("rank_one", m2),
        "classical_3cycle": classical(relabel(cycle(3), rng)),
        "classical_line": classical(relabel(np.array([[0, 1], [0, 0]]), rng)),
        "trivial_m1m2_nt": graph("trivial", NONTRACIAL_M1_M2),
        "complete_m1m2_nt": graph("complete", NONTRACIAL_M1_M2),
        "complete_c6": graph("complete", uniform(6)),
        "complete_m3": graph("complete", tracial([3])),
        "complete_m2m2": graph("complete", tracial([2, 2])),
        "rank_one_m2m3": graph("rank_one", tracial([2, 3])),
        "classical_16cycle": classical(relabel(cycle(16), rng)),
        "trivial_m5": graph("trivial", tracial([5])),
        "trivial_m4": graph("trivial", tracial([4])),
        "trivial_m3": graph("trivial", tracial([3])),
        "trivial_c4": classical(np.eye(4, dtype=int)),
        "trivial_c8": classical(np.eye(8, dtype=int)),
        "trivial_m2m2": graph("trivial", tracial([2, 2])),
        "rank_one_m4": graph("rank_one", tracial([4])),
        "complete_m2m3": graph("complete", tracial([2, 3])),
        "complete_m4": graph("complete", tracial([4])),
        "complete_m5": graph("complete", tracial([5])),
        "complete_m6": graph("complete", tracial([6])),
        "trivial_m2_tiny": graph("trivial", ([2], [[1e-4, 1 - 1e-4]])),
    }

    def inspect(g, **kw):
        return Case(f"inspect {g}", "inspect", g, **kw)

    def fock(g, n, **kw):
        return Case(f"fock {g} N={n}", "fock", g, levels=n, **kw)

    def check(g, fam, mode, **kw):
        return Case(f"check {mode} {fam}", "check", g, family=fam, mode=mode, **kw)

    # small_s times the Python-overhead regime and large_s the dense
    # linear-algebra one.  For inspect that is dim B <= 6 against >= 8; for
    # fock and check the size of the Fock levels and of k decides as well.
    if name == "inspect-ladder":
        small = ("complete_c2", "complete_m2", "trivial_m2", "trivial_m2_skew",
                 "rank_one_m2", "classical_3cycle", "classical_line",
                 "trivial_m1m2_nt", "complete_m1m2_nt", "complete_c6")
        large = ("complete_m3", "complete_m2m2", "rank_one_m2m3",
                 "classical_16cycle", "trivial_m5")
        cases = [inspect(g) for g in small] + [inspect(g, large=True) for g in large]
        return _subset(Workload(name, G, cases))
    if name == "fock-ladder":
        cases = [
            fock("trivial_m2", 6), fock("classical_3cycle", 6),
            fock("complete_c2", 4), fock("trivial_m2_skew", 3),
            fock("rank_one_m2", 3), fock("trivial_m1m2_nt", 3),
            fock("trivial_m4", 3, large=True),
            fock("complete_m1m2_nt", 2, large=True),
            fock("complete_m2", 2, large=True),
            fock("trivial_m3", 4, large=True),
        ]
        return _subset(Workload(name, G, cases))
    if name == "check-families":
        families = {
            "family_trivial_m2": FamilySpec("trivial", "trivial_m2", haar=False),
            "family_rank_one_m2": FamilySpec("rank_one", "rank_one_m2", haar=False),
            "family_trivial_c4": FamilySpec("trivial", "trivial_c4", 1),
            "family_trivial_m2m2": FamilySpec("trivial", "trivial_m2m2", 4),
            "family_trivial_m3": FamilySpec("trivial", "trivial_m3", 4),
            "family_trivial_c8": FamilySpec("trivial", "trivial_c8", 2),
            "family_rank_one_m4": FamilySpec("rank_one", "rank_one_m4", 4),
            "family_trivial_m5": FamilySpec("trivial", "trivial_m5", 2),
        }
        cases = [
            check("trivial_m2", "family_trivial_m2", "qck"),
            check("trivial_m2", "family_trivial_m2", "lqck"),
            check("rank_one_m2", "family_rank_one_m2", "qck"),
            check("rank_one_m2", "family_rank_one_m2", "lqck"),
            check("trivial_c4", "family_trivial_c4", "classical"),
            check("trivial_m2m2", "family_trivial_m2m2", "lqck"),
            check("trivial_m3", "family_trivial_m3", "qck", large=True),
            check("trivial_c8", "family_trivial_c8", "classical", large=True),
            check("rank_one_m4", "family_rank_one_m4", "lqck", large=True),
            check("trivial_m5", "family_trivial_m5", "lqck", large=True),
        ]
        return _subset(Workload(name, G, cases, families))
    if name == "frontier":
        cases = [
            inspect("complete_m2m3", expect="failed"),  # left_kernel asks 12.2 GiB
            inspect("complete_m4", expect="failed"),  # left_kernel asks 64 GiB
            inspect("complete_m5", expect="failed"),  # MemoryError after E_G
            inspect("complete_m6", expect="failed"),  # MemoryError in the ambient
            inspect("trivial_m2_tiny", expect="failed"),  # exit 2 on a valid graph
            fock("trivial_m2_tiny", 3, expect="failed"),  # exit 2 on a valid graph
            fock("complete_m2m2", 2, expect="failed"),  # passes the budget, then OOM
            fock("trivial_m2", 2000, expect="refused"),  # BudgetExceeded, stays typed
        ]
        # the solved inside neighbours of cases 5-6 and 1/7: they prove the
        # child harness can succeed, and they are what frontier times
        controls = [inspect("trivial_m2_skew"), inspect("complete_m2m2", large=True)]
        return _subset(Workload(name, G, cases, controls=controls))
    raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")


def _subset(w: Workload) -> Workload:
    used = {c.graph for c in w.cases + w.controls}
    used |= {f.graph for f in w.families.values()}
    w.graphs = {k: v for k, v in w.graphs.items() if k in used}
    return w


def haar_unitary(h: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((h, h)) + 1j * rng.standard_normal((h, h))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def build_inputs(w: Workload, seed: int, directory: str) -> dict[str, str]:
    """Construct every graph and family of `w` with qgraph and write it as
    JSON under `directory`; returns the file of each graph and family name."""
    import qgraph as qg
    from qgraph.serialize import save_family, save_graph

    os.makedirs(directory, exist_ok=True)
    files: dict[str, str] = {}
    states = {}
    for name, spec in w.graphs.items():
        psi = qg.validate_delta_form(list(spec.blocks), [list(x) for x in spec.weights])
        states[name] = psi
        if spec.kind == "complete":
            G = qg.complete_graph(psi)
        elif spec.kind == "trivial":
            G = qg.trivial_graph(psi)
        elif spec.kind == "rank_one":
            G = qg.rank_one_graph(psi, _rank_one_generator(qg, psi))
        else:
            G = qg.classical_graph(np.array(spec.adjacency))
        files[name] = os.path.join(directory, f"{name}.json")
        save_graph(files[name], G)
    for index, (name, fam) in enumerate(sorted(w.families.items())):
        psi = states[fam.graph]
        T = _rank_one_generator(qg, psi) if fam.kind == "rank_one" else None
        u = haar_unitary(fam.h, np.random.default_rng([seed, index])) if fam.haar else None
        files[name] = os.path.join(directory, f"{name}.json")
        save_family(files[name], qg.canonical_lqck_family(fam.kind, psi, T, u))
    return files


def _rank_one_generator(qg, psi):
    """T_a = diag(sqrt(N_a), 0, ...): Tr(rho_a^-1 T_a* T_a) = delta^2 for a
    tracial state, as the rank-one normalization requires."""
    blocks = []
    for n in psi.structure.sizes:
        t = np.zeros((n, n))
        t[0, 0] = np.sqrt(n)
        blocks.append(t)
    return qg.AlgebraElement(psi.structure, blocks)


def verdict_matches(case: Case, spec: GraphSpec, exit_code: int, stdout: str) -> bool:
    """The oracle: exit 0 and, for inspect and fock, the closed-form sizes."""
    if exit_code != 0:
        return False
    try:
        report = json.loads(stdout)
    except ValueError:
        return False
    if case.command == "inspect":
        return report.get("cp", {}).get("choi") is True and report.get("dim_E") == spec.dim_e()
    if case.command == "fock":
        return report.get("level_dims") == spec.level_dims(case.levels)
    return "error" not in report
