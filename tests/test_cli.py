import argparse
import functools
import importlib.util
import json
import os
import re
import resource
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

import oracles
from strategies import families, graphs_with_tiny_parts

import qgraph as qg
import qgraph.cli
import qgraph.correspondence
import qgraph.errors
import qgraph.fock
import qgraph.graphs
import qgraph.serialize
from qgraph.cli import main
from qgraph.serialize import (
    family_to_document,
    graph_to_document,
    load_family,
    load_graph,
    parse_family_document,
    parse_graph_document,
    save_family,
    save_graph,
)


@pytest.fixture()
def trivial_path(tmp_path, graph_trivial_m2):
    path = tmp_path / "trivial.json"
    save_graph(str(path), graph_trivial_m2)
    return str(path)


@pytest.fixture(params=["c2", "m2"])
def empty_graph(tmp_path, tracial_m2, request):
    """The edgeless graph A = 0 over C^2 or M_2, valid with dim E_G = 0, and
    the file it is saved in."""
    if request.param == "c2":
        G = qg.classical_graph(np.zeros((2, 2), dtype=int))
    else:
        G = qg.QuantumGraph.build(tracial_m2, qg.LinearMapOnB(tracial_m2.structure, np.zeros((4, 4))))
    path = tmp_path / "empty.json"
    save_graph(str(path), G)
    return G, str(path)


@pytest.fixture()
def line_path(tmp_path, graph_line):
    path = tmp_path / "line.json"
    save_graph(str(path), graph_line)
    return str(path)


def count_builds(monkeypatch, cls, name):
    """Every object whose cached property `cls.name` is built, in order."""
    calls = []
    build = getattr(cls, name).func

    def counting_build(obj):
        calls.append(obj)
        return build(obj)

    prop = functools.cached_property(counting_build)
    prop.__set_name__(cls, name)
    monkeypatch.setattr(cls, name, prop)
    return calls


@pytest.fixture
def pair_slab_calls(monkeypatch):
    """Every correspondence whose `pair_slabs` are formed."""
    return count_builds(monkeypatch, qgraph.correspondence.Correspondence, "pair_slabs")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    payload = json.loads(out.out) if out.out.strip() else None
    return code, payload, out.err


def bit_equal(a, b) -> bool:
    """Equal arrays whose real and imaginary parts also agree in sign bit: -0.0 is not 0.0."""
    return (
        np.array_equal(a, b)
        and np.array_equal(np.signbit(a.real), np.signbit(b.real))
        and np.array_equal(np.signbit(a.imag), np.signbit(b.imag))
    )


def write_indented(path, doc) -> None:
    """The layout that earlier versions of qgraph wrote: json.dump with indent=2."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def dense_document(obj) -> dict:
    """The document of a graph or family as earlier versions of qgraph wrote it:
    its matrix as dense nested [re, im] pairs."""
    if isinstance(obj, qg.CKFamily):
        return {"k": obj.k, "images": np.stack([obj.images.real, obj.images.imag], -1).tolist()}
    A = obj.adjacency.matrix
    return {**graph_to_document(obj), "adjacency": np.stack([A.real, A.imag], -1).tolist()}


def sparse_matrix(mat) -> dict:
    """The sparse form of `mat`, written out by hand: the nonzero entries in C order."""
    index = np.flatnonzero(mat)
    return {"shape": list(mat.shape), "index": index.tolist(), "values": [[z.real, z.imag] for z in mat.flat[index]]}


def put_pair(value):
    def fault(rows):
        rows[0][1] = value

    return fault


def every_pair_of_three(rows):
    for row in rows:
        for pair in row:
            pair.append(0.0)


MATRIX_FAULTS = {
    "ragged": lambda rows: rows[-1].pop(),
    "text": put_pair([0.0, "a"]),
    "string_number": put_pair([0.0, "1.5"]),
    "nan": put_pair([0.0, np.nan]),
    "inf": put_pair([0.0, np.inf]),
    "pair_of_one": put_pair([1.0]),
    "pair_of_three": put_pair([1.0, 0.0, 0.0]),
    "every_pair_of_three": every_pair_of_three,
    "bare_number": put_pair(1.0),
    "object": put_pair({"re": 1.0, "im": 0.0}),
    "nested_pair": put_pair([[1.0, 0.0], [0.0, 0.0]]),
    "null_part": put_pair([None, 0.0]),
    "int_overflow": put_pair([10**400, 0]),  # json writes it out in 401 digits
}


def sparse_fault(where, **fields):
    """A fault that sets `fields` of the sparse "adjacency" or family "images"."""

    def fault(graph, fam):
        (graph if where == "adjacency" else fam)[where].update(fields)

    return fault


def values_fault(name):
    """The MATRIX_FAULTS fault `name` on the sparse images' values, one row of pairs."""
    return lambda graph, fam: MATRIX_FAULTS[name]([fam["images"]["values"]])


# Faults of the sparse documents of TestSerialization.sparse_documents: an
# adjacency of shape [2, 2], index [0, 1, 2, 3], and k = 1 images of shape
# [2, 1, 1], index [0, 1].  Each would be read, or end untyped, without its check.
SPARSE_FAULTS = {
    "extra_key": sparse_fault("images", dtype="complex"),
    "missing_key": lambda graph, fam: fam["images"].pop("values"),
    "k_zero": lambda graph, fam: fam.update(k=0, images={"shape": [2, 0, 0], "index": [], "values": []}),
    "shape_bool": sparse_fault("images", shape=[2, True, 1]),
    "shape_float": sparse_fault("images", shape=[2, 1.0, 1]),
    "shape_not_a_list": sparse_fault("adjacency", shape=4),
    "shape_past_int64": sparse_fault("images", shape=[2**63, 1, 1]),
    "shape_not_k": sparse_fault("images", shape=[2, 2, 2]),
    "shape_no_images": sparse_fault("images", shape=[0, 1, 1], index=[], values=[]),
    "shape_flat": sparse_fault("adjacency", shape=[4]),
    "shape_not_dim": sparse_fault("adjacency", shape=[2, 3]),
    "index_bool": sparse_fault("images", index=[False, True]),
    "index_float": sparse_fault("images", index=[0.0, 1.0]),
    "index_not_a_list": sparse_fault("images", index=0),
    "index_past_int64": sparse_fault("images", index=[0, 2**63]),
    "index_negative": sparse_fault("adjacency", index=[-1, 1, 2, 3]),
    "index_past_end": sparse_fault("adjacency", index=[0, 1, 2, 4]),
    "index_repeated": sparse_fault("images", index=[1, 1]),
    "index_decreasing": sparse_fault("images", index=[1, 0]),
    "index_shorter_than_values": sparse_fault("images", index=[0]),
    **{f"values_{name}": values_fault(name) for name in MATRIX_FAULTS},
}


class TestSerialization:
    def test_graph_document_round_trip(self, cp_family_graphs):
        for name, G in cp_family_graphs.items():
            doc = graph_to_document(G)
            G2, _ = parse_graph_document(doc)
            assert G2.structure.sizes == G.structure.sizes, name
            assert np.array_equal(G2.adjacency.matrix, G.adjacency.matrix), name

    def test_family_document_round_trip(self, tracial_m2):
        fam = qg.canonical_lqck_family("trivial", tracial_m2)
        fam2 = parse_family_document(family_to_document(fam))
        assert fam2.k == fam.k
        assert np.array_equal(fam2.images, fam.images)

    def test_parse_errors(self, graph_trivial_m2, tracial_m2):
        with pytest.raises(qg.ParseError):
            parse_graph_document({"blocks": [2]})
        with pytest.raises(qg.ParseError):
            parse_graph_document([1, 2, 3])
        with pytest.raises(qg.ParseError):
            parse_family_document({"k": 2, "images": [[[1.0]]]})
        # malformed numbers, and tolerances that would switch the gates off
        good = graph_to_document(graph_trivial_m2)
        for tol in ("abc", None, [1e-9], float("nan"), float("inf"), 0.0, -1e-9):
            with pytest.raises(qg.ParseError):
                parse_graph_document({**good, "tol": tol})
        # integer fields take JSON integers only: no truncated floats, no booleans
        for blocks in ([2.7], [2.0], [True, True], "2", 2):
            with pytest.raises(qg.ParseError):
                parse_graph_document({**good, "blocks": blocks})
        fam = family_to_document(qg.canonical_lqck_family("trivial", tracial_m2))
        for bad in ({"k": "two"}, {"k": None}, {"images": 3}, {"k": 2.7}, {"k": 2.0}, {"k": True}):
            with pytest.raises(qg.ParseError):
                parse_family_document({**fam, **bad})

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("fault", MATRIX_FAULTS)
    def test_bad_matrix_entries_are_parse_errors(self, capsys, tmp_path, graph_trivial_m2, tracial_m2, fault):
        """Ragged rows, pairs that are not two numbers, and NaN, Infinity or
        overflowing parts end in exit 1 with a JSON ParseError, and raise no
        RuntimeWarning, for graph adjacencies and for family images alike."""
        for where in ("adjacency", "image"):
            graph = dense_document(graph_trivial_m2)
            fam = dense_document(qg.canonical_lqck_family("trivial", tracial_m2))
            MATRIX_FAULTS[fault](graph["adjacency"] if where == "adjacency" else fam["images"][1])
            self.assert_check_refused(capsys, tmp_path, graph, fam)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("images", ["unequal_shapes", "empty", "k_zero"])
    def test_bad_image_lists_are_parse_errors(self, capsys, tmp_path, graph_trivial_m2, tracial_m2, images):
        fam = dense_document(qg.canonical_lqck_family("trivial", tracial_m2))
        if images == "k_zero":  # four 0 x 0 images once passed QCK vacuously
            fam = {"k": 0, "images": [[], [], [], []]}
        else:
            fam["images"] = [] if images == "empty" else fam["images"][:1] + [[[[0.0, 0.0]] * 3] * 3]
        self.assert_check_refused(capsys, tmp_path, graph_to_document(graph_trivial_m2), fam)

    @staticmethod
    def sparse_documents():
        """A graph on two vertices, every pair an edge, and a k = 1 family, both sparse."""
        G = qg.classical_graph(np.ones((2, 2), dtype=int))
        fam = {"k": 1, "images": {"shape": [2, 1, 1], "index": [0, 1], "values": [[0.5, 0.0], [0.5, 0.0]]}}
        return {**graph_to_document(G), "adjacency": sparse_matrix(G.adjacency.matrix)}, fam

    def test_sparse_documents_are_read(self, capsys, tmp_path):
        graph, fam = self.sparse_documents()
        assert graph["adjacency"]["index"] == [0, 1, 2, 3]
        paths = tmp_path / "graph.json", tmp_path / "family.json"
        for path, doc in zip(paths, (graph, fam)):
            path.write_text(json.dumps(doc))
        code, payload, _ = run(capsys, "check", str(paths[0]), "--family", str(paths[1]), "--mode", "classical")
        assert code in (0, 2) and "cuntz_krieger" in payload

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("fault", SPARSE_FAULTS)
    def test_bad_sparse_matrices_are_refused(self, capsys, tmp_path, fault):
        """A sparse object with a bad key, shape, index or value ends in exit 1
        with a JSON ParseError, never in a numpy error or a family that loads."""
        graph, fam = self.sparse_documents()
        SPARSE_FAULTS[fault](graph, fam)
        self.assert_check_refused(capsys, tmp_path, graph, fam)

    def test_sparse_shape_past_memory_is_a_budget_refusal(self, capsys, tmp_path, monkeypatch):
        """Its size is read off the shape before any allocation, and a failed
        allocation is refused the same way."""
        graph, fam = self.sparse_documents()
        fam.update(k=2**31, images={"shape": [2, 2**31, 2**31], "index": [], "values": []})
        self.assert_check_refused(capsys, tmp_path, graph, fam, "BudgetExceeded")

        fam = self.sparse_documents()[1]
        with monkeypatch.context() as patch:  # a machine of two 8-byte pages
            patch.setattr(qgraph.serialize.os, "sysconf", lambda name: {"SC_PHYS_PAGES": 2, "SC_PAGE_SIZE": 8}[name])
            with pytest.raises(qg.BudgetExceeded, match=re.escape("shape [2, 1, 1] needs 32 bytes")):
                parse_family_document(fam)

        def no_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(qgraph.serialize.np, "zeros", no_memory)
        with pytest.raises(qg.BudgetExceeded, match=re.escape("shape [2, 1, 1] needs 32 bytes")):
            parse_family_document(fam)

    def test_block_sizes_past_memory_are_refused_before_the_state(self, capsys, tmp_path, monkeypatch):
        """One block of size 10^5 and a sparse adjacency: its (dim, dim) shape, dim =
        10^10, is refused from the block sizes before the state is validated, whose
        tables over dim coordinates (80 GB of int64 each) ran out of memory first, so
        no address-space cap is needed.  A block size whose square Python will not
        print is refused on one short line."""

        def unreached(*args, **kwargs):
            raise AssertionError("the state was validated")

        monkeypatch.setattr(qgraph.serialize, "validate_delta_form", unreached)
        path, n = tmp_path / "huge.json", 10**5
        empty = {"shape": [n * n, n * n], "index": [], "values": []}
        path.write_text(json.dumps({"blocks": [n], "psi": [[1 / n] * n], "adjacency": empty}))
        code, payload, _ = run(capsys, "inspect", str(path))
        message = f"adjacency of shape [{n * n}, {n * n}] needs {16 * n**4} bytes, past physical memory"
        assert code == 1 and payload == {"error": "BudgetExceeded", "message": message}
        path.write_text(json.dumps({"blocks": [10**3000], "psi": [[1.0]], "adjacency": {**empty, "shape": [1, 1]}}))
        code = main(["inspect", str(path)])
        lines = capsys.readouterr().out.splitlines()
        assert code == 1 and len(lines) == 1 and len(lines[0].encode()) <= 1024
        assert json.loads(lines[0])["error"] == "BudgetExceeded" and "past physical memory" in lines[0]

    def test_failed_allocation_is_not_called_past_physical_memory(self, monkeypatch):
        """Only the size precheck says "past physical memory"; an allocation that
        fails names itself and, when one is set, the RLIMIT_AS address-space cap."""
        fam = self.sparse_documents()[1]

        def no_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(qgraph.serialize.np, "zeros", no_memory)
        for cap, named in ((resource.RLIM_INFINITY, "failed"), (2**30, f"RLIMIT_AS of {2**30} bytes")):
            monkeypatch.setattr(qgraph.serialize.resource, "getrlimit", lambda which, cap=cap: (cap, cap))
            with pytest.raises(qg.BudgetExceeded) as info:
                parse_family_document(fam)
            assert "past physical memory" not in str(info.value)
            assert "family images of shape [2, 1, 1] needs 32 bytes, whose allocation failed" in str(info.value)
            assert named in str(info.value)

    def test_allocation_past_an_address_space_cap(self, capsys, tmp_path):
        """A 2 GiB family under a 1 GiB RLIMIT_AS fits physical memory but not the
        cap: `check` refuses it with exit 1, naming the cap."""
        if os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") < 2**32:
            pytest.skip("needs 4 GiB of physical memory to pass the size precheck")
        graph, fam = self.sparse_documents()
        k = 2**13 + 2**12  # 16 k^2 bytes is 2.25 GiB
        fam.update(k=k, images={"shape": [1, k, k], "index": [], "values": []})
        graph_path, fam_path = tmp_path / "graph.json", tmp_path / "family.json"
        graph_path.write_text(json.dumps(graph))
        fam_path.write_text(json.dumps(fam))

        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        cap = 2**30 if hard == resource.RLIM_INFINITY else min(2**30, hard)
        out = subprocess.run(
            [sys.executable, "-m", "qgraph.cli", "check", str(graph_path), "--family", str(fam_path)],
            capture_output=True, text=True, env=dict(os.environ, OPENBLAS_NUM_THREADS="1"),
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, hard)),
        )
        payload = json.loads(out.stdout)
        assert out.returncode == 1 and payload["error"] == "BudgetExceeded"
        assert f"RLIMIT_AS of {cap} bytes" in payload["message"]
        assert "past physical memory" not in payload["message"]

    def test_decoding_out_of_memory_is_a_budget_refusal(self, capsys, monkeypatch, trivial_path):
        """A file whose JSON objects outgrow the memory left ends in exit 1 with a
        JSON BudgetExceeded that names the file, its size and any RLIMIT_AS cap."""

        def no_memory(*args, **kwargs):
            raise MemoryError

        size = os.path.getsize(trivial_path)
        for cap, under in ((resource.RLIM_INFINITY, ""), (2**30, f" under the address-space limit RLIMIT_AS of {2**30} bytes")):
            with monkeypatch.context() as patch:  # the decoder fails inside the command only
                patch.setattr(json.JSONDecoder, "raw_decode", no_memory)
                patch.setattr(qgraph.serialize.resource, "getrlimit", lambda which, cap=cap: (cap, cap))
                code = main(["inspect", trivial_path])
            assert code == 1 and json.loads(capsys.readouterr().out) == {
                "error": "BudgetExceeded",
                "message": f"decoding graph file {trivial_path} of {size} bytes ran out of memory{under}",
            }

    def test_dense_file_past_an_address_space_cap(self, tmp_path):
        """The cycle plus hub on 1500 vertices, written dense, is a 26 MiB file whose
        decoded pairs outgrow a 300 MiB RLIMIT_AS: `inspect` refuses it with exit 1
        and one JSON line, naming the file, its size and the cap."""
        n, path = 1500, tmp_path / "classical_1500.json"
        rows = []
        for r in range(n):  # edges r - 1 -> r and r -> 0
            row = ["[0.0, 0.0]"] * n
            row[(r - 1) % n] = row[0] = "[1.0, 0.0]"
            rows.append("[" + ", ".join(row) + "]")
        path.write_text(json.dumps({"blocks": [1] * n, "psi": [[1 / n]] * n})[:-1] + ', "adjacency": [' + ", ".join(rows) + "]}")
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        cap = 300 * 2**20 if hard == resource.RLIM_INFINITY else min(300 * 2**20, hard)
        out = subprocess.run(
            [sys.executable, "-m", "qgraph.cli", "inspect", str(path)],
            capture_output=True, text=True, env=dict(os.environ, OPENBLAS_NUM_THREADS="1"),
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, hard)),
        )
        assert out.returncode == 1 and len(out.stdout.splitlines()) == 1, out.stderr[-2000:]
        assert json.loads(out.stdout) == {
            "error": "BudgetExceeded",
            "message": f"decoding graph file {path} of {path.stat().st_size} bytes ran out of memory"
            f" under the address-space limit RLIMIT_AS of {cap} bytes",
        }

    @staticmethod
    def assert_check_refused(capsys, tmp_path, graph, fam, error="ParseError"):
        """`check` reads the graph, then the family: the bad one must end it typed."""
        graph_path, fam_path = tmp_path / "graph.json", tmp_path / "family.json"
        graph_path.write_text(json.dumps(graph))
        fam_path.write_text(json.dumps(fam))
        code, payload, _ = run(capsys, "check", str(graph_path), "--family", str(fam_path))
        assert code == 1 and payload["error"] == error, payload

    def test_integer_parts_are_read(self, capsys, tmp_path, graph_trivial_m2, tracial_m2):
        """[1, 0] reads as [1.0, 0.0]: files with integer parts load to the same arrays."""
        graph = dense_document(graph_trivial_m2)
        fam = dense_document(qg.canonical_lqck_family("trivial", tracial_m2))
        paths = tmp_path / "graph.json", tmp_path / "family.json"
        for path, doc in zip(paths, (graph, fam)):
            text = json.dumps(doc).replace(".0,", ",").replace(".0]", "]")
            assert "[0, 0]" in text
            path.write_text(text)
        G, _ = load_graph(str(paths[0]))
        assert np.array_equal(G.adjacency.matrix, parse_graph_document(graph)[0].adjacency.matrix)
        assert np.array_equal(load_family(str(paths[1])).images, parse_family_document(fam).images)
        code, _, _ = run(capsys, "check", str(paths[0]), "--family", str(paths[1]))
        assert code == 0

    @given(fam=families())
    @settings(max_examples=60, deadline=None)
    def test_family_files_round_trip_bit_exactly(self, tmp_path_factory, fam):
        """Compact sparse files, and dense files laid out as earlier versions wrote
        them, load bit-exactly; the sparse file keeps each entry that is not +0.0."""
        path = tmp_path_factory.mktemp("family") / "f.json"
        save_family(str(path), fam)
        assert path.read_text().count("\n") == 1
        sparse = json.loads(path.read_text())["images"]
        kept = np.signbit(fam.images.real) | np.signbit(fam.images.imag) | (fam.images != 0)
        assert sparse["shape"] == list(fam.images.shape)
        assert sparse["index"] == np.flatnonzero(kept).tolist()
        assert bit_equal(load_family(str(path)).images, fam.images)
        for doc in (family_to_document(fam), dense_document(fam)):
            write_indented(path, doc)
            assert bit_equal(load_family(str(path)).images, fam.images)

    @given(G=graphs_with_tiny_parts())
    @settings(max_examples=40, deadline=None)
    def test_graph_files_round_trip_bit_exactly(self, tmp_path_factory, G):
        path = tmp_path_factory.mktemp("graph") / "g.json"
        for write in (lambda: save_graph(str(path), G), lambda: write_indented(path, graph_to_document(G))):
            write()
            assert isinstance(json.loads(path.read_text())["adjacency"], list)  # graphs are written dense
            G2, _ = load_graph(str(path))
            assert bit_equal(G2.adjacency.matrix, G.adjacency.matrix)
            assert all(map(np.array_equal, G2.psi.weights, G.psi.weights))

    @pytest.mark.parametrize("kind", ["graph", "family"])
    @pytest.mark.parametrize(
        "value", [np.nan, np.inf, -np.inf, complex(0.0, np.nan), complex(1.0, -np.inf)],
        ids=["nan", "inf", "minus_inf", "imag_nan", "imag_minus_inf"],
    )
    def test_non_finite_part_is_a_write_error(self, tmp_path, graph_trivial_m2, kind, value):
        """A part that the loaders would refuse fails the save with a WriteError
        that names the path, and no file is written."""
        path = tmp_path / f"{kind}.json"
        if kind == "graph":
            A = graph_trivial_m2.adjacency.matrix.copy()
            A[0, 1] = value
            G = replace(graph_trivial_m2, adjacency=qg.LinearMapOnB(graph_trivial_m2.structure, A))
            save = functools.partial(save_graph, str(path), G)
        else:
            save = functools.partial(save_family, str(path), qg.CKFamily(1, [[[value]]]))
        with pytest.raises(qg.WriteError, match=re.escape(str(path))):
            save()
        assert not path.exists()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("tol", True),  # float(True) would loosen every gate to 1.0
            ("tol", "0.5"),
            ("psi", [["0.5", "0.5"]]),
            ("psi", [[True, 0.5]]),
            ("adjacency", True),  # a [true, 0] part in the adjacency
            ("images", True),  # a [true, 0] part in a family image
        ],
        ids=["tol_true", "tol_string", "psi_string", "psi_bool", "adjacency_true", "family_true"],
    )
    def test_non_number_json_values_are_parse_errors(
        self, capsys, tmp_path, trivial_path, tracial_m2, field, value
    ):
        """Strings and JSON booleans are refused where a number is read: exit 1
        with a JSON ParseError, where they used to be read as numbers."""
        doc = json.loads(open(trivial_path).read())
        argv = ["inspect"]
        if field == "adjacency":
            doc["adjacency"][0][0] = [value, 0]
        elif field == "images":
            fam = dense_document(qg.canonical_lqck_family("trivial", tracial_m2))
            fam["images"][0][0][0] = [value, 0]
            fam_path = tmp_path / "family.json"
            fam_path.write_text(json.dumps(fam))
            argv = ["check", "--family", str(fam_path)]
        else:
            doc[field] = value
        graph_path = tmp_path / "graph.json"
        graph_path.write_text(json.dumps(doc))
        code, payload, _ = run(capsys, *argv[:1], str(graph_path), *argv[1:])
        assert code == 1
        assert payload["error"] == "ParseError"

    def test_echo_cuts_long_values(self):
        assert qgraph.errors.echo([1, 2.5]) == "[1, 2.5]"
        text = qgraph.errors.echo("x" * 1000)
        assert text == repr("x" * 1000)[: qgraph.errors.ECHO_CHARS] + "... (1002 characters)"

    def test_embedded_tolerance(self, graph_trivial_m2):
        doc = graph_to_document(graph_trivial_m2, tol=1e-6)
        _, eff = parse_graph_document(doc)
        assert eff == 1e-6


class TestInspect:
    def test_trivial_graph_passes(self, capsys, trivial_path):
        code, payload, err = run(capsys, "inspect", trivial_path)
        assert code == 0
        assert payload["delta_sq"] == pytest.approx(4.0)
        assert payload["cp"]["choi"] is True
        assert payload["cp"]["tests_agree"] is True
        assert payload["faithful"] is True and payload["full"] is True
        assert payload["dim_E"] == 4
        assert "delta^2" in err

    def test_line_graph_reports_kernel(self, capsys, line_path):
        code, payload, _ = run(capsys, "inspect", line_path)
        assert code == 0
        assert payload["sources"] == [0] and payload["sinks"] == [1]
        assert payload["faithful"] is False and payload["full"] is False
        assert payload["kernel_dim"] == 1
        assert payload["dim_E"] == 1

    def test_empty_graph(self, capsys, empty_graph):
        G, path = empty_graph
        code, payload, _ = run(capsys, "inspect", path)
        assert code == 0
        assert payload["dim_E"] == 0
        assert payload["faithful"] is False and payload["full"] is False
        assert payload["kernel_dim"] == G.structure.dim  # all of B acts as 0
        blocks = list(range(G.structure.num_blocks))
        assert payload["sources"] == payload["sinks"] == blocks

    def test_runs_the_choi_test_once(self, capsys, monkeypatch, trivial_path):
        calls = []

        def counting_choi(*args, **kwargs):
            calls.append(args)
            return qg.is_completely_positive(*args, **kwargs)

        monkeypatch.setattr(qgraph.graphs, "is_completely_positive", counting_choi)
        code, _, _ = run(capsys, "inspect", trivial_path)
        assert code == 0
        assert len(calls) == 1

    def test_forms_no_edge_indicator_and_one_schur_product(self, capsys, monkeypatch, trivial_path):
        # the indicator residuals are the Schur pass's and the Choi slabs' defects,
        # reweighted: the command forms no eps (whose one builder is the oracle
        # edge_indicator) and no eps # eps, and the Schur product R D R once per
        # graph, in the gate that r2 rides
        calls = {"indicator": 0, "sharp": 0, "schur": 0}
        build, sharp, schur = oracles.edge_indicator, qgraph.blocks.sharp, qgraph.graphs.schur_residual

        def counting_build(G):
            calls["indicator"] += 1
            return build(G)

        def counting_sharp(*args, **kwargs):
            calls["sharp"] += 1
            return sharp(*args, **kwargs)

        def counting_schur(*args, **kwargs):
            calls["schur"] += 1
            return schur(*args, **kwargs)

        monkeypatch.setattr(oracles, "edge_indicator", counting_build)
        for name, module in list(sys.modules.items()):
            if name.startswith("qgraph") and getattr(module, "sharp", None) is sharp:
                monkeypatch.setattr(module, "sharp", counting_sharp)
        monkeypatch.setattr(qgraph.graphs, "schur_residual", counting_schur)
        code, payload, _ = run(capsys, "inspect", trivial_path)
        assert code == 0 and "homomorphism" in payload
        assert payload["indicator"]["r2"] < 1e-12
        assert calls == {"indicator": 0, "sharp": 0, "schur": 1}

    def test_builds_the_choi_slabs_once(self, capsys, monkeypatch, tmp_path, trivial_path, tracial_m2):
        # A is cut into block pairs once per command: the Schur check, the Choi
        # test, E_G's multiplicity spaces and the Fock LQCK checks read the same slabs.
        # The Choi verdict and E_G's Kraus ranks and bases read one eigh per slab,
        # and check, which only loads the graph, decomposes none
        slabs = count_builds(monkeypatch, qgraph.graphs.LinearMapOnB, "choi_slabs")
        spectra = count_builds(monkeypatch, qgraph.graphs.LinearMapOnB, "choi_spectra")
        fam_path = tmp_path / "fam.json"
        save_family(str(fam_path), qg.canonical_lqck_family("trivial", tracial_m2))
        commands = ((["inspect", trivial_path], 1), (["fock", trivial_path, "--levels", "3"], 1),
                    (["check", trivial_path, "--family", str(fam_path)], 0))
        reports = {}
        for argv, decompositions in commands:
            slabs.clear()
            spectra.clear()
            code, reports[argv[0]], _ = run(capsys, *argv)
            assert code == 0 and len(slabs) == 1 and len(spectra) == decompositions, argv
        assert reports["inspect"]["dim_E"] == 4

    def test_forms_the_pair_slabs_once(self, capsys, tmp_path, graph_complete_m2, pair_slab_calls):
        # the B (x)_A B isomorphism and the compact decomposition read one set of slabs
        path = tmp_path / "complete.json"
        save_graph(str(path), graph_complete_m2)
        code, payload, _ = run(capsys, "inspect", str(path))
        assert code == 0 and payload["dim_E"] == 16
        assert len(pair_slab_calls) == 1

    def test_sources_and_faithfulness_read_one_rule(self, capsys, tmp_path, line_path, trivial_path):
        # sources, sinks, faithful and full are read off A's Choi spectra at its one cut,
        # whatever the file's tol: diag(1, 1e-4) on C^2, written with a "tol" of 1e-3 that lets it
        # load, has no source (at an absolute tol of 1e-3 block 1 was one, next to faithful: true)
        # and exits 2 on its compact decomposition, which no cut of sources can pass
        c2 = qg.validate_delta_form([1, 1], [[0.5], [0.5]])
        loose = str(tmp_path / "loose.json")
        save_graph(loose, qg.QuantumGraph(c2.structure, c2, qg.LinearMapOnB(c2.structure, np.diag([1.0, 1e-4]))), tol=1e-3)
        for path, blocks, want in ((line_path, ([0], [1]), 0), (trivial_path, ([], []), 0), (loose, ([], []), 2)):
            code, payload, _ = run(capsys, "inspect", path)
            assert code == want and (payload["sources"], payload["sinks"]) == blocks, path
            assert (payload["faithful"], payload["full"]) == (not blocks[0], not blocks[1]), path
        assert payload["compact_decomposition_residual"] > 1e-3 and "kernel_subspace_distance" not in payload

    def test_a_faint_non_hermitian_map_is_not_cp(self, capsys, tmp_path, tracial_m2):
        # 1e-11 (x + i x^T) on tracial M_2 loads (Schur residual 1.1e-10) and is not Hermitian-
        # preserving: the Choi guard reads it at its own scale, so cp.choi is false where r3,
        # gated at the file's tol, is not, and tests_agree fails the command
        st = tracial_m2.structure
        T = np.zeros((4, 4))
        for i in range(2):
            for j in range(2):
                T[st.flat_index(0, j, i), st.flat_index(0, i, j)] = 1.0
        path = str(tmp_path / "faint.json")
        save_graph(path, qg.QuantumGraph(st, tracial_m2, qg.LinearMapOnB(st, 1e-11 * (np.eye(4) + 1j * T))))
        code, payload, _ = run(capsys, "inspect", path)
        assert code == 2 and payload["cp"]["choi"] is False and payload["cp"]["modular_self_adjoint"] is True

    def test_reports_and_gates_the_cyclic_dim(self, capsys, monkeypatch, tmp_path, graph_complete_m2):
        # eps generates E_G = B . eps . B: cyclic_dim == dim_E on a valid graph,
        # and a generator with one multiplicity row of K_00 zeroed generates
        # 4 dimensions less, which the gate fails like tests_agree
        path = tmp_path / "complete.json"
        save_graph(str(path), graph_complete_m2)
        code, payload, _ = run(capsys, "inspect", str(path))
        assert code == 0 and payload["cyclic_dim"] == payload["dim_E"] == 16
        E = qg.build_edge_correspondence(graph_complete_m2)
        generator = E.generator.copy()
        generator.reshape(2, 4, 2)[:, 1, :] = 0.0  # the one pair (N_a, M, N_c) = (2, 4, 2), row k = 1
        mutant = replace(E, generator=generator)
        assert qg.cyclic_dim(mutant) == 12 < E.size
        monkeypatch.setattr(qgraph.cli, "build_edge_correspondence", lambda G: mutant)
        code, payload, _ = run(capsys, "inspect", str(path))
        assert code == 2 and payload["cyclic_dim"] == 12 and payload["dim_E"] == 16
        # the gate alone: every other gated residual passes
        monkeypatch.setattr(qgraph.cli, "build_edge_correspondence", lambda G: E)
        monkeypatch.setattr(qgraph.cli, "cyclic_dim", lambda X: X.size - 1)
        code, payload, _ = run(capsys, "inspect", str(path))
        assert code == 2 and payload["cyclic_dim"] == 15
        assert max(payload["cp_model_residual"], payload["compact_decomposition_residual"]) <= 1e-9

    def test_complete_m6_inspects_in_bounded_memory(self, capsys, tmp_path):
        # dim E = 36^2 = 1296: one dense (36, 1296, 1296) complex stack of
        # unit actions or inner products alone is 967 MB
        psi = qg.validate_delta_form([6], [[1 / 6] * 6])
        path = tmp_path / "complete_m6.json"
        save_graph(str(path), qg.complete_graph(psi))
        tracemalloc.start()
        try:
            code, payload, _ = run(capsys, "inspect", str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert payload["cp"]["choi"] is True and payload["dim_E"] == 1296
        assert payload["faithful"] is True and payload["kernel_dim"] == 0
        assert peak < 256 * 2**20

    def test_malformed_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, payload, err = run(capsys, "inspect", str(bad))
        assert code == 1
        assert payload["error"] == "ParseError"

    @pytest.mark.parametrize(
        "content", [b'{"blocks": "\xe9"}', b"[" * 200000 + b"]" * 200000], ids=["not_utf8", "nested_200000_deep"]
    )
    def test_unreadable_file(self, capsys, tmp_path, trivial_path, content):
        """Graph and family files that are not UTF-8 or nest too deep end in
        exit 1 with a JSON ParseError, not a UnicodeDecodeError or RecursionError."""
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        for argv in (["inspect", str(bad)], ["check", trivial_path, "--family", str(bad)]):
            code, payload, err = run(capsys, *argv)
            assert code == 1, argv
            assert payload["error"] == "ParseError", argv

    @pytest.mark.parametrize(
        "blocks, psi, tol",
        [([1], [[10**400]], None), ([1, 1], [[10**400], [0.5]], None), ([1, 2], [[10**400], [0.25, 0.25]], None),
         ([2], [[0.5, 0.5]], 10**400)],
        ids=["psi_c", "psi_c2", "psi_c_m2", "tol"],
    )
    def test_integers_past_the_float_range_are_parse_errors(self, capsys, tmp_path, blocks, psi, tol):
        """A state weight or a tolerance that is an integer past the float range ends in
        exit 1 with one JSON ParseError line, not an OverflowError traceback."""
        dim = sum(n * n for n in blocks)
        doc = {"blocks": blocks, "psi": psi, "adjacency": [[[1.0, 0.0]] * dim] * dim}
        if tol is not None:
            doc["tol"] = tol
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        code = main(["inspect", str(path)])
        lines = capsys.readouterr().out.splitlines()
        assert code == 1 and len(lines) == 1 and json.loads(lines[0])["error"] == "ParseError"

    @pytest.mark.parametrize(
        "fields, error",
        [({"tol": 10**4000}, "ParseError"), ({"tol": "1" * 10**5}, "ParseError"),
         ({"blocks": "x" * 10**5}, "ParseError"), ({"blocks": [10**400]}, "ShapeMismatch"),
         ({"blocks": [1] * 2000, "psi": [[5e-4 + 1e-6], [5e-4 - 1e-6]] + [[5e-4]] * 1998}, "NotDeltaForm")],
        ids=["tol_4001_digits", "tol_string", "blocks_string", "block_size_401_digits", "delta_form_2000_blocks"],
    )
    def test_oversized_inputs_give_one_short_error_line(self, capsys, tmp_path, fields, error):
        """An error message cuts the input value it echoes, so an oversized value
        ends in exit 1 with one JSON line of at most 1 KB: a 4001-digit or a
        10^5-character tolerance, a 10^5-character block list, a 401-digit block
        size, and 2000 blocks whose Tr(rho^-1) disagree at blocks 0 and 1."""
        path = tmp_path / "oversized.json"
        path.write_text(json.dumps({"blocks": [2], "psi": [[0.5, 0.5]], "adjacency": [], **fields}))
        code = main(["inspect", str(path)])
        lines = capsys.readouterr().out.splitlines()
        assert code == 1 and len(lines) == 1 and len(lines[0].encode()) <= 1024
        assert json.loads(lines[0])["error"] == error

    def test_dense_file_with_one_huge_block_reaches_the_adjacency(self, capsys, tmp_path):
        """One block of 10^5: the state sums its weights with no (1, 10^10) table
        of the block's coordinates, so the load reaches the empty adjacency,
        whose wrong length ends in exit 1 with one JSON ParseError line."""
        path = tmp_path / "huge_block.json"
        path.write_text(json.dumps({"blocks": [10**5], "psi": [[1e-5] * 10**5], "adjacency": []}))
        code = main(["inspect", str(path)])
        lines = capsys.readouterr().out.splitlines()
        assert code == 1 and len(lines) == 1 and json.loads(lines[0])["error"] == "ParseError"

    def test_invalid_weights(self, capsys, tmp_path):
        doc = {
            "blocks": [2],
            "psi": [[0.25, 0.25]],
            "adjacency": [[[1.0, 0.0] if i == j else [0.0, 0.0] for j in range(4)] for i in range(4)],
        }
        path = tmp_path / "notstate.json"
        path.write_text(json.dumps(doc))
        code, payload, _ = run(capsys, "inspect", str(path))
        assert code == 1
        assert payload["error"] == "NotState"


class TestFock:
    def test_trivial_graph(self, capsys, trivial_path):
        code, payload, _ = run(capsys, "fock", trivial_path, "--levels", "3")
        assert code == 0
        assert payload["level_dims"] == [4, 4, 4, 4]
        assert payload["vacuum_defect"] > 0.5
        assert all(v < 1e-9 for v in payload["lqck_interior"].values())

    @pytest.mark.parametrize(
        "levels, unchecked",
        [
            (1, {"covariance", "lqck1", "lqck2", "lqck3", "toeplitz1", "toeplitz2"}),
            (2, {"lqck1"}),  # LQCK1 ends one level up, so it needs two interior levels
            (3, set()),
        ],
    )
    def test_unchecked_identities_report_null(self, capsys, tmp_path, graph_complete_m2, levels, unchecked):
        path = tmp_path / "complete.json"
        save_graph(str(path), graph_complete_m2)
        code, payload, err = run(capsys, "fock", str(path), "--levels", str(levels))
        assert code == 0
        values = {
            **payload["representation"],
            **payload["lqck_interior"],
            **payload["toeplitz_interior"],
        }
        assert {k for k, v in values.items() if v is None} == unchecked
        assert all(v < 1e-9 for k, v in values.items() if v is not None and k != "vacuum_defect")
        assert err.count("n/a") == len(unchecked)

    def test_null_identities_leave_the_gate_alone(self, capsys, monkeypatch, trivial_path):
        # at depth 2 LQCK1 is unchecked, but a failing LQCK2 still fails the run
        def failing(F):
            return {**qg.lqck_fock_residuals(F), "lqck2": 1.0}

        monkeypatch.setattr(qgraph.cli, "lqck_fock_residuals", failing)
        code, payload, _ = run(capsys, "fock", trivial_path, "--levels", "2")
        assert payload["lqck_interior"]["lqck1"] is None
        assert code == 2

    def test_builds_the_truncation_once(self, capsys, monkeypatch, trivial_path):
        calls = []

        def counting_build_fock(*args, **kwargs):
            calls.append(args)
            return qg.build_fock(*args, **kwargs)

        for module in (qgraph.cli, qgraph.fock):
            monkeypatch.setattr(module, "build_fock", counting_build_fock)
        code, _, _ = run(capsys, "fock", trivial_path, "--levels", "3")
        assert code == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("levels", [1, 2, 3, 4])
    def test_forms_the_pair_slabs_once(self, capsys, trivial_path, pair_slab_calls, levels):
        """Covariance, Toeplitz and LQCK read E's pair slabs, formed once whatever the
        depth; at depth 1 no identity reads them."""
        code, _, _ = run(capsys, "fock", trivial_path, "--levels", str(levels))
        assert code == 0
        assert len(pair_slab_calls) == (levels > 1)

    @pytest.mark.parametrize(
        "case, error",
        [("levels_below", "ShapeMismatch"), ("levels_above", "BudgetExceeded"), ("sources", "HasQuantumSource"),
         ("family_k", "ParseError")],
    )
    def test_oversized_values_give_one_short_error_line(self, capsys, tmp_path, trivial_path, case, error):
        # a 4001-digit --levels either way, the 400 source blocks of an edgeless
        # classical graph, and a 4001-digit family size k are each echoed cut
        graph = tmp_path / "empty.json"
        save_graph(str(graph), qg.classical_graph(np.zeros((400, 400), dtype=int)))
        family = tmp_path / "family.json"
        family.write_text(json.dumps({"k": -(10**4000), "images": []}))
        argv = {
            "levels_below": ["fock", trivial_path, "--levels", str(-(10**4000))],
            "levels_above": ["fock", trivial_path, "--levels", str(10**4000)],
            "sources": ["fock", str(graph)],
            "family_k": ["check", trivial_path, "--family", str(family)],
        }[case]
        code = main(argv)
        lines = capsys.readouterr().out.splitlines()
        assert code == 1 and len(lines) == 1 and len(lines[0].encode()) <= 1024
        assert json.loads(lines[0])["error"] == error

    def test_deep_truncation(self, capsys, trivial_path):
        code, payload, _ = run(capsys, "fock", trivial_path, "--levels", "2000")
        assert code == 0
        assert payload["level_dims"] == [4] * 2001

    def test_source_graph_rejected(self, capsys, line_path):
        code, payload, _ = run(capsys, "fock", line_path)
        assert code == 1
        assert payload["error"] == "HasQuantumSource"

    def test_empty_graph_has_sources(self, capsys, empty_graph):
        code, payload, _ = run(capsys, "fock", empty_graph[1], "--levels", "2")
        assert code == 1
        assert payload["error"] == "HasQuantumSource"

    def test_budget_exceeded(self, capsys, monkeypatch, tmp_path, trivial_path, graph_complete_m2):
        # complete M_2's levels leave the float range at depth 511, which the
        # refusal names; a depth past FOCK_MAX_DEPTH is refused before E_G is built
        path = tmp_path / "complete.json"
        save_graph(str(path), graph_complete_m2)
        code, payload, _ = run(capsys, "fock", str(path), "--levels", "1000")
        assert code == 1
        assert payload["error"] == "BudgetExceeded"
        assert "at depth 511," in payload["message"]
        calls = []
        monkeypatch.setattr(qgraph.fock, "build_edge_correspondence", calls.append)
        code, payload, _ = run(capsys, "fock", trivial_path, "--levels", "1000000")
        assert code == 1
        assert payload["error"] == "BudgetExceeded"
        assert calls == []


    def test_failed_allocation_is_a_budget_refusal(self, capsys, monkeypatch, trivial_path):
        """A MemoryError inside a command ends in exit 1 with one JSON BudgetExceeded
        line that names the command and any RLIMIT_AS cap, not in a traceback."""

        def no_memory(*args):
            raise MemoryError

        monkeypatch.setattr(qgraph.cli, "build_fock", no_memory)
        for cap, under in ((resource.RLIM_INFINITY, ""), (2**30, f" under the address-space limit RLIMIT_AS of {2**30} bytes")):
            monkeypatch.setattr(qgraph.serialize.resource, "getrlimit", lambda which, cap=cap: (cap, cap))
            code = main(["fock", trivial_path, "--levels", "2"])
            lines = capsys.readouterr().out.splitlines()
            assert code == 1 and len(lines) == 1
            assert json.loads(lines[0]) == {"error": "BudgetExceeded", "message": f"fock ran out of memory{under}"}


WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def ladder_inputs(directory, seed):
    """The graph files of the benchmark's inspect and fock ladders at `seed`."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
    spec.loader.exec_module(workloads)
    files = {}
    for name in ("inspect-ladder", "fock-ladder"):
        files.update(workloads.build_inputs(workloads.make_workload(name, seed), seed, str(directory / name)))
    return files


def test_reports_read_no_coordinate_layout(capsys, monkeypatch, tmp_path):
    """inspect and fock read E_G through its pair slabs, its orbit defects and psi's
    weights: with the per-coordinate layout of a normal form refused, the built-in
    graphs and the ladder inputs give the exit codes and reports they give without."""
    paths = list(ladder_inputs(tmp_path, 7).values())
    for name, build in qgraph.cli._example_registry()[0].items():
        paths.append(str(tmp_path / f"{name}.json"))
        save_graph(paths[-1], build())

    def refused(*args):
        raise AssertionError("the coordinate layout was formed")

    for path in paths:
        for command in (["inspect", path], ["fock", path, "--levels", "3"]):
            want = run(capsys, *command)
            with monkeypatch.context() as patch:
                patch.setattr(qgraph.correspondence, "_layout", refused)
                assert run(capsys, *command) == want, command


# (kind, w, command): every command that passes on the M_2 state (w, 1 - w).
# complete M_2 at 1e-6 passes inspect only: its level-2 covariance defect,
# about 2e-9, is above the default gate
SKEWED_PASSES = [
    (kind, w, command)
    for kind, weights in (("trivial", (1e-4, 1e-5, 1e-6)), ("complete", (1e-4, 1e-5)))
    for w in weights
    for command in (["inspect"], ["fock", "--levels", "3"])
] + [("complete", 1e-6, ["inspect"])]


@pytest.mark.parametrize(
    "kind, w, command", SKEWED_PASSES, ids=[f"{k}_{w:g}_{c[0]}" for k, w, c in SKEWED_PASSES]
)
def test_gates_pass_on_skewed_states(capsys, tmp_path, kind, w, command):
    psi = qg.validate_delta_form([2], [[w, 1.0 - w]])
    path = tmp_path / "graph.json"
    save_graph(str(path), {"trivial": qg.trivial_graph, "complete": qg.complete_graph}[kind](psi))
    code, payload, _ = run(capsys, command[0], str(path), *command[1:])
    assert code == 0, payload


def ungated(matrix_of):
    """Give the command matrix_of(G) over G's state as a graph, without build's Schur gate."""

    def perturb(patch, G, path):
        A = qg.LinearMapOnB(G.structure, matrix_of(G))
        patch.setattr(qgraph.cli, "load_graph", lambda _, tol: (qg.QuantumGraph(G.structure, G.psi, A), tol))
        return qg.DEFAULT_TOL

    return perturb


def transpose_map(G):
    """x -> x^T on G's one block: modular self-adjoint, with an indefinite Choi matrix, the flip."""
    n, T = G.structure.sizes[0], np.zeros((G.structure.dim,) * 2)
    for i in range(n):
        for j in range(n):
            T[G.structure.flat_index(0, j, i), G.structure.flat_index(0, i, j)] = 1.0
    return T


def moved_generator(module, scale):
    """Give `module`'s build_edge_correspondence E_G with its generator moved by `scale`
    times seeded complex noise."""

    def perturb(patch, G, path):
        E = qg.build_edge_correspondence(G)
        noise = [1, 1j] @ np.random.default_rng(5).normal(size=(2, E.size))
        patch.setattr(module, "build_edge_correspondence", lambda _: replace(E, generator=E.generator + scale * noise))
        return qg.DEFAULT_TOL

    return perturb


def short_generator(patch, G, path):
    """E_G of complete M_2 with one multiplicity row of K_00 zeroed: it generates 12 of 16 dimensions."""
    E = qg.build_edge_correspondence(G)
    generator = E.generator.copy()
    generator.reshape(2, 4, 2)[:, 1, :] = 0.0
    patch.setattr(qgraph.cli, "build_edge_correspondence", lambda _: replace(E, generator=generator))
    return qg.DEFAULT_TOL


# gated key -> (command, perturbation); the moves of E_G's generator are those of
# test_perturbed_generator_fails_both_gates (1e-6) and test_fock.perturbed (0.5)
GATE_FAILURES = {
    "cp.tests_agree": (["inspect"], ungated(transpose_map)),
    "cp_model_residual": (["inspect"], moved_generator(qgraph.cli, 1e-6)),
    "compact_decomposition_residual": (["inspect"], moved_generator(qgraph.cli, 1e-6)),
    "cyclic_dim": (["inspect"], short_generator),
    **{
        key: (["fock", "--levels", "3"], moved_generator(qgraph.fock, 0.5))
        for key in ("covariance", "lqck1", "lqck2", "lqck3", "toeplitz1", "toeplitz2")
    },
}


def gated_value(payload, key):
    """The value that the command gates for `key`: a false tests_agree and a cyclic_dim
    short of dim_E count as infinite."""
    if key == "cp.tests_agree":
        return 0.0 if payload["cp"]["tests_agree"] else float("inf")
    if key == "cyclic_dim":
        return 0.0 if payload["cyclic_dim"] == payload["dim_E"] else float("inf")
    parts = ("indicator", "representation", "lqck_interior", "toeplitz_interior")
    return {**payload, **{k: v for part in parts for k, v in payload.get(part, {}).items()}}[key]


@pytest.mark.parametrize("key", GATE_FAILURES)
def test_every_gated_key_can_fail(capsys, monkeypatch, tmp_path, graph_complete_m2, key):
    """Each gated key of inspect and fock passes on complete M_2 and, under one
    perturbation, moves above tol and makes the command exit 2: no gate is one that
    no input can fail."""
    (command, *options), perturb = GATE_FAILURES[key]
    path = str(tmp_path / "graph.json")
    save_graph(path, graph_complete_m2)
    code, payload, _ = run(capsys, command, path, *options)
    assert code == 0 and gated_value(payload, key) <= qg.DEFAULT_TOL
    tol = perturb(monkeypatch, graph_complete_m2, path)
    code, payload, _ = run(capsys, command, path, *options)
    assert code == 2 and gated_value(payload, key) > tol, payload


class TestCheck:
    def test_lqck_pass(self, capsys, tmp_path, trivial_path, tracial_m2):
        fam_path = tmp_path / "fam.json"
        save_family(str(fam_path), qg.canonical_lqck_family("trivial", tracial_m2))
        code, payload, _ = run(
            capsys, "check", trivial_path, "--family", str(fam_path), "--mode", "lqck"
        )
        assert code == 0
        assert payload["lqck1"] < 1e-9

    def test_qck_pass(self, capsys, tmp_path, trivial_path, tracial_m2):
        fam_path = tmp_path / "fam.json"
        save_family(str(fam_path), qg.canonical_lqck_family("trivial", tracial_m2))
        code, payload, _ = run(
            capsys, "check", trivial_path, "--family", str(fam_path), "--mode", "qck"
        )
        assert code == 0

    def test_wrong_graph_fails_with_residual_code(
        self, capsys, tmp_path, tracial_m2, graph_complete_m2
    ):
        fam_path = tmp_path / "fam.json"
        save_family(str(fam_path), qg.canonical_lqck_family("trivial", tracial_m2))
        graph_path = tmp_path / "complete.json"
        save_graph(str(graph_path), graph_complete_m2)
        code, payload, _ = run(
            capsys, "check", str(graph_path), "--family", str(fam_path), "--mode", "lqck"
        )
        assert code == 2
        assert payload["lqck2"] > 0.1

    def test_classical_mode(self, capsys, tmp_path):
        G = qg.classical_graph([[0, 1], [1, 0]])
        e12 = np.array([[0, 1], [0, 0]], dtype=complex)
        fam = qg.CKFamily(2, np.stack([e12, e12.T]) / 2.0)
        graph_path, fam_path = tmp_path / "g.json", tmp_path / "f.json"
        save_graph(str(graph_path), G)
        save_family(str(fam_path), fam)
        code, payload, _ = run(
            capsys, "check", str(graph_path), "--family", str(fam_path), "--mode", "classical"
        )
        assert code == 0
        assert payload["cuntz_krieger"] < 1e-12

    def test_classical_mode_rejects_quantum_graph(
        self, capsys, tmp_path, trivial_path, tracial_m2
    ):
        fam_path = tmp_path / "fam.json"
        save_family(str(fam_path), qg.canonical_lqck_family("trivial", tracial_m2))
        code, payload, _ = run(
            capsys, "check", trivial_path, "--family", str(fam_path), "--mode", "classical"
        )
        assert code == 1
        assert payload["error"] == "NotClassical"

    def test_tolerance_env_override(
        self, capsys, monkeypatch, tmp_path, tracial_m2, graph_complete_m2
    ):
        fam_path = tmp_path / "fam.json"
        save_family(str(fam_path), qg.canonical_lqck_family("trivial", tracial_m2))
        graph_path = tmp_path / "complete.json"
        save_graph(str(graph_path), graph_complete_m2)
        monkeypatch.setenv("QGRAPH_TOL", "1e3")
        code, _, _ = run(
            capsys, "check", str(graph_path), "--family", str(fam_path), "--mode", "lqck"
        )
        assert code == 0
        for bad in ("not-a-number", "nan", "inf", "0", "-1e-9"):
            monkeypatch.setenv("QGRAPH_TOL", bad)
            code, payload, _ = run(capsys, "check", str(graph_path), "--family", str(fam_path))
            assert code == 1, bad
            assert payload["error"] == "ParseError", bad


class TestRepeatedCalls:
    """`main` may be called again and again in one process: its parser is built
    on the first call, and nothing of one call reaches the next."""

    @pytest.fixture()
    def family_path(self, tmp_path, tracial_m2):
        path = tmp_path / "fam.json"
        save_family(str(path), qg.canonical_lqck_family("trivial", tracial_m2))
        return str(path)

    def test_builds_the_parser_once(self, capsys, monkeypatch, tmp_path, trivial_path, family_path):
        run(capsys, "inspect", trivial_path)
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        commands = [
            ["inspect", trivial_path],
            ["fock", trivial_path, "--levels", "2"],
            ["check", trivial_path, "--family", family_path, "--mode", "qck"],
            ["example", "complete_c2", "--out", str(tmp_path / "c2.json")],
        ]
        for argv in commands * 3:
            assert run(capsys, *argv)[0] == 0, argv
        assert built == []

    def test_options_do_not_carry_over(self, capsys, trivial_path):
        code, payload, _ = run(capsys, "fock", trivial_path, "--levels", "5")
        assert code == 0 and len(payload["level_dims"]) == 6
        code, payload, _ = run(capsys, "fock", trivial_path)
        assert code == 0 and payload["level_dims"] == [4, 4, 4, 4]

    def test_usage_error_leaves_the_next_call_alone(self, capsys, trivial_path, family_path):
        with pytest.raises(SystemExit) as exc:
            main(["check", trivial_path, "--family", family_path, "--mode", "bogus"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
        code, payload, _ = run(capsys, "check", trivial_path, "--family", family_path)
        assert code == 0 and payload["lqck1"] < 1e-12

    def test_tolerance_is_read_on_each_call(self, capsys, monkeypatch, tmp_path, graph_complete_m2, family_path):
        # the trivial family fails LQCK on the complete graph unless the gate is loose
        graph_path = tmp_path / "complete.json"
        save_graph(str(graph_path), graph_complete_m2)
        argv = ["check", str(graph_path), "--family", family_path]
        monkeypatch.delenv("QGRAPH_TOL", raising=False)
        assert run(capsys, *argv)[0] == 2
        monkeypatch.setenv("QGRAPH_TOL", "1e3")
        assert run(capsys, *argv)[0] == 0
        monkeypatch.delenv("QGRAPH_TOL")
        assert run(capsys, *argv)[0] == 2

    def test_import_builds_no_parser(self):
        code = "import qgraph.cli as cli; raise SystemExit(cli.build_parser.cache_info().currsize)"
        assert subprocess.run([sys.executable, "-c", code]).returncode == 0


class TestExample:
    def test_materialize_and_inspect_all_graphs(self, capsys, tmp_path):
        names = [
            "complete_c2",
            "complete_m2",
            "trivial_m2",
            "trivial_m2_skew",
            "rank_one_m2",
            "classical_3cycle",
            "classical_line",
            "automorphism_swap",
        ]
        for name in names:
            path = tmp_path / f"{name}.json"
            code, payload, _ = run(capsys, "example", name, "--out", str(path))
            assert code == 0 and payload["kind"] == "graph"
            code, _, _ = run(capsys, "inspect", str(path))
            assert code == 0, name

    def test_sparse_adjacency_gives_the_dense_reports(self, capsys, tmp_path):
        """Each built-in graph, and a 200-cycle whose vertices all point to vertex 0,
        read from a hand-written sparse adjacency give the reports of their dense files."""
        adj = np.roll(np.eye(200, dtype=int), 1, axis=0)
        adj[:, 0] = 1
        graphs = {**qgraph.cli._example_registry()[0], "classical_200": lambda: qg.classical_graph(adj)}
        for name, build in graphs.items():
            G = build()
            dense, sparse = tmp_path / f"{name}.json", tmp_path / f"{name}_sparse.json"
            save_graph(str(dense), G)
            sparse.write_text(json.dumps({**graph_to_document(G), "adjacency": sparse_matrix(G.adjacency.matrix)}))
            for command in (["inspect"], ["fock", "--levels", "3"]):
                want = run(capsys, command[0], str(dense), *command[1:])
                assert run(capsys, command[0], str(sparse), *command[1:]) == want, (name, command)

    def test_materialize_family(self, capsys, tmp_path):
        path = tmp_path / "fam.json"
        code, payload, _ = run(capsys, "example", "family_trivial_m2", "--out", str(path))
        assert code == 0 and payload["kind"] == "family"
        graph_path = tmp_path / "g.json"
        run(capsys, "example", "trivial_m2", "--out", str(graph_path))
        code, _, _ = run(
            capsys, "check", str(graph_path), "--family", str(path), "--mode", "lqck"
        )
        assert code == 0

    def test_unknown_example(self, capsys, tmp_path):
        code, payload, _ = run(
            capsys, "example", "nonesuch", "--out", str(tmp_path / "x.json")
        )
        assert code == 1
        assert "known" in payload["message"]

    @pytest.mark.parametrize("name", ["trivial_m2", "family_trivial_m2"])
    def test_unwritable_out(self, capsys, tmp_path, name):
        out = str(tmp_path / "missing_dir" / "x.json")
        code, payload, _ = run(capsys, "example", name, "--out", out)
        assert code == 1 and payload["error"] == "WriteError"
        assert out in payload["message"]

    def test_failed_encode_leaves_the_file_alone(self, tmp_path, monkeypatch, graph_trivial_m2):
        """The document is encoded before the file is opened."""
        path = tmp_path / "graph.json"
        save_graph(str(path), graph_trivial_m2)
        before = path.read_bytes()
        monkeypatch.setattr(qgraph.serialize, "graph_to_document", lambda G, tol=None: {"adjacency": object()})
        with pytest.raises(TypeError):
            save_graph(str(path), graph_trivial_m2)
        assert path.read_bytes() == before
