"""Tests of the benchmark itself: oracle, outcome classifier and spans.

    python3 -m pytest perfbench

The oracle test runs every ladder case once (about 30 s in all).
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import qgraph.cli  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SEED = 0


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    """Every workload at SEED with its input files."""
    out = {}
    for name in workloads.WORKLOADS:
        w = workloads.make_workload(name, SEED)
        out[name] = (w, workloads.build_inputs(w, SEED, str(tmp_path_factory.mktemp(name))))
    return out


def choi_rank_dim(doc: dict) -> int:
    """sum_{a,b} N_a N_b rank(Choi_ab), straight from a graph file."""
    sizes = doc["blocks"]
    A = np.array([[complex(*z) for z in row] for row in doc["adjacency"]])
    offs = np.cumsum([0] + [n * n for n in sizes])
    total = 0
    for a, na in enumerate(sizes):
        for b, nb in enumerate(sizes):
            H = np.zeros((na * nb, na * nb), dtype=complex)
            for i in range(na):
                for j in range(na):
                    img = A[offs[b] : offs[b + 1], offs[a] + i * na + j].reshape(nb, nb)
                    H[i * nb : (i + 1) * nb, j * nb : (j + 1) * nb] = img
            ev = np.linalg.eigvalsh((H + H.conj().T) / 2)
            total += na * nb * int(np.sum(ev > 1e-9 * max(1.0, ev.max())))
    return total


def test_oracle_closed_forms_agree_with_reports(built):
    checked = 0
    for name in ("inspect-ladder", "fock-ladder", "check-families", "frontier"):
        w, files = built[name]
        tally = run.Tally()
        runner = run.Runner(w, files, tally)
        for case in w.cases + w.controls:
            spec = w.graphs[case.graph]
            with open(files[case.graph]) as fh:
                assert spec.dim_e() == choi_rank_dim(json.load(fh)), case.name
            if case.expect != "solved":
                continue
            runner.run(case)
            assert tally.outcomes[case.name] == ["solved"], case.name
            checked += 1
    assert checked == 15 + 10 + 10 + 2


def test_oracle_rejects_a_wrong_size(built):
    w, _ = built["inspect-ladder"]
    case = w.cases[0]
    spec = w.graphs[case.graph]
    report = {"cp": {"choi": True}, "dim_E": spec.dim_e()}
    assert workloads.verdict_matches(case, spec, 0, json.dumps(report))
    report["dim_E"] += 1
    assert not workloads.verdict_matches(case, spec, 0, json.dumps(report))
    fock = workloads.Case("fock", "fock", "complete_m2", levels=2)
    spec = workloads.graph("complete", workloads.tracial([2]))
    assert spec.level_dims(2) == [4, 16, 64]
    assert not workloads.verdict_matches(fock, spec, 0, json.dumps({"level_dims": [4, 16, 63]}))


def test_seed_fixes_the_inputs(tmp_path):
    def family_bytes(seed, sub):
        w = workloads.make_workload("check-families", seed)
        w.families = {"f": workloads.FamilySpec("trivial", "trivial_m2m2", 4)}
        files = workloads.build_inputs(w, seed, str(tmp_path / sub))
        with open(files["f"], "rb") as fh:
            return fh.read()

    assert family_bytes(3, "a") == family_bytes(3, "b")
    assert family_bytes(3, "a") != family_bytes(4, "c")


def test_classifier_on_exit_codes_and_output():
    error = json.dumps({"error": "BudgetExceeded", "message": "too big"})
    assert run.classify(0, "{}", True) == "solved"
    assert run.classify(0, "{}", False) == "failed"  # wrong report
    assert run.classify(1, error + "\n", False) == "refused"
    assert run.classify(1, json.dumps({"error": "MemoryError", "message": ""}), False) == "failed"
    assert run.classify(1, "", False) == "failed"  # traceback, no JSON
    assert run.classify(2, "{}", False) == "failed"  # residual gate on a valid graph
    assert run.classify(None, "", False) == "failed"  # killed or uncaught


def test_classifier_on_real_commands(built, monkeypatch, tmp_path):
    w, files = built["frontier"]
    tally = run.Tally()
    by_name = {c.name: c for c in w.cases + w.controls}

    # a typed refusal: the budget guard of a 2000-level Fock truncation
    run.Runner(w, files, tally).run(by_name["fock trivial_m2 N=2000"])
    # a wrong exit code: exit 2 on the valid, strongly skewed trivial graph
    run.Runner(w, files, tally).run(by_name["inspect trivial_m2_tiny"])
    # a forced MemoryError inside the command
    def oom(*args, **kwargs):
        raise MemoryError("forced")

    with monkeypatch.context() as m:
        m.setattr(qgraph.cli, "cmd_inspect", oom)
        run.Runner(w, files, tally).run(by_name["inspect trivial_m2_skew"])
    assert tally.outcomes["fock trivial_m2 N=2000"] == ["refused"]
    assert tally.outcomes["inspect trivial_m2_tiny"] == ["failed"]
    assert tally.outcomes["inspect trivial_m2_skew"] == ["failed"]
    # the refusal and the recorded failure are as expected; the control is not
    assert tally.failed == 1

    # a real MemoryError in a capped child: left_kernel asks for 12.2 GiB
    child = run.ChildRunner(w, files, run.Tally(), str(tmp_path))
    child.run(by_name["inspect complete_m2m3"])
    assert child.tally.outcomes["inspect complete_m2m3"] == ["failed"]
    assert child.tally.failed == 0


def test_self_time_on_nested_spans():
    # top [0, 13] calls mid [1, 6] (leaf [2, 5]), leaf [6, 9], mid [10, 12]
    # (leaf [11, 11.5])
    ticks = iter([0.0, 1.0, 2.0, 5.0, 6.0, 6.0, 9.0, 10.0, 11.0, 11.5, 12.0, 13.0])
    tracer = spans.Tracer(clock=lambda: next(ticks))
    leaf = tracer.wrap("leaf", lambda: None)
    mid = tracer.wrap("mid", lambda: leaf())
    top = tracer.wrap("top", lambda: (mid(), leaf(), mid()))

    top()
    agg = spans.aggregate(tracer.take())
    assert agg["top"]["calls"] == 1 and agg["mid"]["calls"] == 2 and agg["leaf"]["calls"] == 3
    assert agg["top"]["total_s"] == 13.0
    assert agg["top"]["self_s"] == pytest.approx(13.0 - 5.0 - 3.0 - 2.0)
    assert agg["mid"]["self_s"] == pytest.approx((5.0 - 3.0) + (2.0 - 0.5))
    assert agg["leaf"]["self_s"] == pytest.approx(3.0 + 3.0 + 0.5)
    assert sum(a["self_s"] for a in agg.values()) == pytest.approx(13.0)
    assert tracer.take() == []


def test_span_of_a_raising_call_is_closed():
    ticks = iter([0.0, 2.0])
    tracer = spans.Tracer(clock=lambda: next(ticks))

    def boom():
        raise MemoryError

    with pytest.raises(MemoryError):
        tracer.wrap("boom", boom)()
    assert spans.aggregate(tracer.spans)["boom"]["self_s"] == 2.0


def test_children_spans_merge():
    first = [["a", 0.0, 2.0, -1, 0], ["b", 0.5, 1.0, 0, 0]]
    second = [["a", 3.0, 4.0, -1, 0], ["b", 3.0, 3.5, 0, 0]]
    merged = first + run.offset_parents(second, len(first))
    agg = spans.aggregate(merged)
    assert agg["a"]["self_s"] == pytest.approx(1.5 + 0.5)


def test_install_sees_calls_inside_the_library(built):
    w, files = built["inspect-ladder"]
    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    try:
        run.Runner(w, files, run.Tally()).run(w.cases[1])  # inspect complete_m2
        inspect = spans.aggregate(tracer.take())
        fw, ffiles = built["fock-ladder"]
        case = next(c for c in fw.cases if c.graph == "complete_m2")
        run.Runner(fw, ffiles, run.Tally()).run(case)
        fock = spans.aggregate(tracer.take())
    finally:
        uninstall()
    assert w.cases[1].graph == "complete_m2"
    assert inspect["correspondence.build_edge_correspondence"]["calls"] == 4
    assert inspect["graphs.is_completely_positive"]["calls"] == 7
    assert fock["fock.build_fock"]["calls"] == 2
    assert fock["fock.build_fock"]["max_size"] == 4 + 16 + 64
    assert qgraph.cli.main.__name__ == "main" and not hasattr(qgraph.cli.main, "__wrapped__")


def test_benchmark_json_names_every_metric():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in bench["per_layer"]] == [
        m[0] for m in spans.LAYER_METRICS
    ] + ["trace.overhead_s"]
    assert [m["name"] for m in bench["end_to_end"]] == [
        "setup_s", "small_s", "large_s", "peak_rss_mb", "solved",
    ]
