"""Command-line front end.

Subcommands: inspect, fock, check, example.  Human-readable summaries go to
stderr; a machine-readable JSON report mirroring the same structure goes to
stdout.  Exit codes: 0 all checks pass, 1 input/validation error or a failed
allocation (a BudgetExceeded), 2 a residual exceeded tolerance.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from .blocks import DEFAULT_TOL, AlgebraElement, validate_delta_form
from .correspondence import (
    build_edge_correspondence,
    compact_decomposition_residual,
    cp_correspondence,
    cyclic_dim,
    faithful_full_report,
)
from .errors import QGraphError, echo
from .families import (
    AutomorphismSpec,
    automorphism_graph,
    canonical_lqck_family,
    classical_graph,
    complete_graph,
    rank_one_graph,
    trivial_graph,
)
from .fock import build_fock, lqck_fock_residuals, representation_residuals
from .graphs import (
    homomorphism_check,
    indicator_properties,
    quantum_sources_sinks,
)
from .relations import classical_reduction, lqck_residuals, qck_residuals
from .serialize import _out_of_memory, load_family, load_graph, parse_tolerance, save_family, save_graph

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_RESIDUAL = 2


def _default_tol() -> float:
    env = os.environ.get("QGRAPH_TOL")
    return DEFAULT_TOL if env is None else parse_tolerance(env, "QGRAPH_TOL")


def _emit(report: dict, human_lines: list[str]) -> None:
    for line in human_lines:
        print(line, file=sys.stderr)
    json.dump(report, sys.stdout, indent=2)
    print()


def cmd_inspect(args, tol: float) -> int:
    G, tol = load_graph(args.graph, tol=tol)
    cp_flag, min_eig = G.choi
    props = indicator_properties(G)
    sources, sinks = quantum_sources_sinks(G)
    modular = props["r3"] <= tol
    report = {
        "delta_sq": G.delta_sq,
        "schur_residual": G.schur_defects[0],
        "cp": {
            "choi": cp_flag,
            "choi_min_eigenvalue": min_eig,
            "modular_self_adjoint": modular,
            "tests_agree": cp_flag == modular,
        },
        "indicator": props,
        "sources": sources,
        "sinks": sinks,
    }
    gated = [0.0 if cp_flag == modular else float("inf")]
    if cp_flag:
        E = build_edge_correspondence(G)
        ff = faithful_full_report(E)
        iso_res = cp_correspondence(E)
        hom = homomorphism_check(G)
        compact = compact_decomposition_residual(E)
        cyclic = cyclic_dim(E)
        report.update(
            {
                "faithful": ff["faithful"],
                "full": ff["full"],
                "kernel_dim": ff["kernel_dim"],
                "dim_E": E.size,
                "cyclic_dim": cyclic,
                "cp_model_residual": iso_res,
                "homomorphism": hom,
                "compact_decomposition_residual": compact,
            }
        )
        # eps generates E_G = B . eps . B, gated as tests_agree is
        gated += [iso_res, compact, 0.0 if cyclic == E.size else float("inf")]
    human = [
        f"delta^2 = {G.delta_sq:.6g}, schur residual {G.schur_defects[0]:.3e}",
        f"completely positive: {cp_flag} (Choi min eig {min_eig:.3e})",
        f"indicator residuals r2={props['r2']:.3e} r3={props['r3']:.3e}",
        f"sources {sources}, sinks {sinks}",
    ]
    if cp_flag:
        human.append(
            f"faithful={report['faithful']} full={report['full']} dim E = {report['dim_E']}, "
            f"cyclic dim {report['cyclic_dim']}"
        )
    _emit(report, human)
    return EXIT_OK if all(r <= tol for r in gated) else EXIT_RESIDUAL


def _num(value) -> str:
    return "n/a" if value is None else f"{value:.3e}"


def cmd_fock(args, tol: float) -> int:
    G, tol = load_graph(args.graph, tol=tol)
    F = build_fock(G, args.levels)
    rep = representation_residuals(F)
    lq = lqck_fock_residuals(F)
    report = {
        "level_dims": list(F.level_dims),
        "representation": rep,
        "lqck_interior": {k: lq[k] for k in ("lqck1", "lqck2", "lqck3")},
        "toeplitz_interior": {"toeplitz1": lq["toeplitz1"], "toeplitz2": lq["toeplitz2"]},
        "vacuum_defect": rep["vacuum_defect"],
    }
    # identities with no level to check at this depth are None (null), not gated
    gated = [rep["covariance"]] + [lq[k] for k in ("lqck1", "lqck2", "lqck3", "toeplitz1", "toeplitz2")]
    human = [
        f"level dims {report['level_dims']}",
        f"representation: covariance {_num(rep['covariance'])}, vacuum defect {_num(rep['vacuum_defect'])}",
        f"LQCK interior residuals {_num(lq['lqck1'])} {_num(lq['lqck2'])} {_num(lq['lqck3'])}",
        f"abstract Toeplitz {_num(lq['toeplitz1'])} {_num(lq['toeplitz2'])}",
    ]
    _emit(report, human)
    return EXIT_OK if all(r <= tol for r in gated if r is not None) else EXIT_RESIDUAL


def cmd_check(args, tol: float) -> int:
    G, tol = load_graph(args.graph, tol=tol)
    fam = load_family(args.family)
    if args.mode == "qck":
        report = qck_residuals(fam, G)
        gated = [report["qck1"], report["qck2"], report["qck3"]]
    elif args.mode == "lqck":
        report = lqck_residuals(fam, G)
        gated = [report["lqck1"], report["lqck2"], report["lqck3"]]
    else:
        report = classical_reduction(G, fam)
        gated = [
            report["partial_isometry"],
            report["cuntz_krieger"],
            report["unit_sum"],
        ]
    human = [f"{k} = {v:.3e}" for k, v in report.items() if isinstance(v, float)]
    _emit(dict(report), human)
    return EXIT_OK if all(r <= tol for r in gated) else EXIT_RESIDUAL


def _example_registry():
    def tracial_m2():
        return validate_delta_form([2], [[0.5, 0.5]])

    def uniform(n):
        return validate_delta_form([1] * n, [[1.0 / n]] * n)

    sqrt2 = float(np.sqrt(2.0))

    def rank_one_m2():
        psi = tracial_m2()
        T = AlgebraElement(psi.structure, [np.diag([sqrt2, 0.0])])
        return rank_one_graph(psi, T)

    graphs = {
        "complete_c2": lambda: complete_graph(uniform(2)),
        "complete_m2": lambda: complete_graph(tracial_m2()),
        "trivial_m2": lambda: trivial_graph(tracial_m2()),
        "trivial_m2_skew": lambda: trivial_graph(
            validate_delta_form([2], [[1.0 / 3.0, 2.0 / 3.0]])
        ),
        "rank_one_m2": rank_one_m2,
        "classical_3cycle": lambda: classical_graph(
            np.roll(np.eye(3, dtype=int), 1, axis=0)
        ),
        "classical_line": lambda: classical_graph([[0, 1], [0, 0]]),
        "automorphism_swap": lambda: automorphism_graph(
            validate_delta_form([2, 2], [[0.25, 0.25], [0.25, 0.25]]),
            AutomorphismSpec((1, 0), (np.eye(2), np.eye(2))),
        )[0],
    }
    families = {
        "family_trivial_m2": lambda: canonical_lqck_family("trivial", tracial_m2()),
        "family_rank_one_m2": lambda: canonical_lqck_family(
            "rank_one",
            tracial_m2(),
            AlgebraElement(tracial_m2().structure, [np.diag([sqrt2, 0.0])]),
        ),
    }
    return graphs, families


def cmd_example(args, tol: float) -> int:
    graphs, families = _example_registry()
    name = args.name
    if name in graphs:
        G = graphs[name]()
        save_graph(args.out, G)
        kind = "graph"
    elif name in families:
        save_family(args.out, families[name]())
        kind = "family"
    else:
        known = sorted(list(graphs) + list(families))
        raise QGraphError(f"unknown example {echo(name)}; known: {', '.join(known)}")
    _emit({"example": name, "kind": kind, "path": args.out}, [f"wrote {kind} {name} to {args.out}"])
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `qgraph` parser, built on the first call and shared by every later one.

    It maps argv to the subcommand's name and options only: `main` picks the
    handler at call time, so the parser holds no state from one call to the next.
    """
    parser = argparse.ArgumentParser(
        prog="qgraph",
        description="Quantum graph validation, edge correspondences, Fock truncations, "
        "and Cuntz-Krieger relation checking.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("inspect", help="validate a graph file and report its invariants")
    p.add_argument("graph")

    p = sub.add_parser("fock", help="build the Fock truncation and report residuals")
    p.add_argument("graph")
    p.add_argument("--levels", type=int, default=3)

    p = sub.add_parser("check", help="evaluate a relation family against a graph")
    p.add_argument("graph")
    p.add_argument("--family", required=True)
    p.add_argument("--mode", choices=("qck", "lqck", "classical"), default="lqck")

    p = sub.add_parser("example", help="materialize a built-in fixture file")
    p.add_argument("name")
    p.add_argument("--out", required=True)
    return parser


def main(argv=None) -> int:
    """Run one command; may be called again and again in one process."""
    args = build_parser().parse_args(argv)
    handler = {"inspect": cmd_inspect, "fock": cmd_fock, "check": cmd_check, "example": cmd_example}
    try:
        tol = _default_tol()
        return handler[args.command](args, tol)
    except (QGraphError, MemoryError) as exc:
        if isinstance(exc, MemoryError):  # a failed allocation inside the command, refused as one JSON line
            exc = _out_of_memory(f"{args.command} ran out of memory")
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        json.dump({"error": type(exc).__name__, "message": str(exc)}, sys.stdout)
        print()
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
