"""JSON file formats for graphs and relation families.

Complex numbers are stored as [re, im] pairs; graph files carry block sizes,
per-block state weights, and the adjacency matrix on canonical coordinates.
A matrix is dense nested pairs or the sparse {"shape", "index", "values"}
object, whose strictly increasing C-order flat `index` names each entry not
+0.0.  Families, mostly zero, are written sparse; graphs dense, as graph
readers expect.  Files are written as compact JSON and read in any layout;
every finite float, -0.0 included, round-trips bit-exactly.  A save with a
NaN or infinite part raises WriteError and writes nothing.  A ParseError
refuses a file that is not UTF-8, not JSON or nested too deep to decode, a
matrix whose parts are not finite JSON numbers within float range, whose
pairs do not hold two parts or whose rows or images are ragged, a sparse
object with a bad key, shape or index, and a state weight or tolerance that
is an integer past the float range; one past physical memory or whose
allocation fails is a BudgetExceeded that says which, and so is a file whose
decoding runs out of memory: it names the file, its size and any RLIMIT_AS cap.
"""

from __future__ import annotations

import json
import math
import os
import resource
from itertools import chain

import numpy as np

from .blocks import DEFAULT_TOL, BlockStructure, validate_delta_form
from .errors import BudgetExceeded, ParseError, WriteError, echo
from .graphs import LinearMapOnB, QuantumGraph
from .relations import CKFamily


def _matrix_to_pairs(mat: np.ndarray) -> list:
    return np.stack([mat.real, mat.imag], -1).tolist()


def _matrix_to_nonzeros(mat: np.ndarray) -> dict:
    """The sparse form of `mat`: each entry not +0.0 in both parts' bits, so -0.0 and subnormals stay."""
    flat = np.ascontiguousarray(mat, dtype=complex).reshape(-1)
    index = np.flatnonzero(flat.view(np.uint64).reshape(-1, 2).any(axis=1))
    return {"shape": list(mat.shape), "index": index.tolist(), "values": _matrix_to_pairs(flat[index])}


def _pairs_to_matrix(value, shape: tuple[int, ...]) -> np.ndarray:
    """A complex array of `shape` from nested [re, im] pairs of finite JSON numbers.

    Each nesting level is checked to hold lists of the shape's length and is
    flattened in one pass; np.array then reads the flat parts, whose types are
    checked first, as np.array(..., dtype=float) reads "1.5", true and null.
    """
    items = [value]
    for depth, n in enumerate((*shape, 2)):
        if kinds := set(map(type, items)) - {list}:
            names = sorted(t.__name__ for t in kinds)
            raise ParseError(f"bad complex matrix: level {depth} holds {names}, not lists of {n}")
        if lengths := set(map(len, items)) - {n}:
            raise ParseError(f"bad complex matrix: level {depth} holds lists of {echo(sorted(lengths))}, not {echo(n)}")
        items = list(chain.from_iterable(items))
    if kinds := set(map(type, items)) - {int, float}:
        raise ParseError(f"matrix has parts that are not numbers: {sorted(t.__name__ for t in kinds)}")
    try:
        arr = np.array(items, dtype=float)
    except OverflowError as exc:  # an int too large for a float
        raise ParseError(f"bad complex matrix: {exc}") from exc
    if not np.isfinite(arr).all():
        raise ParseError("matrix has a NaN or infinite entry")
    return arr.view(complex).reshape(shape)


def _json_ints(value, what: str) -> np.ndarray:
    """A list of JSON integers, neither bools nor floats, as an int64 array."""
    if not isinstance(value, list) or set(map(type, value)) - {int}:
        raise ParseError(f"{what} is not a list of integers")
    try:
        return np.array(value, dtype=np.int64)
    except OverflowError as exc:
        raise ParseError(f"{what} holds an integer past int64: {exc}") from exc


def _refuse_past_memory(what: str, dims: list[int]) -> int:
    """Entries of a complex array of shape `dims`; a BudgetExceeded if past physical memory."""
    size = math.prod(dims)
    if 16 * size > os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE"):
        raise BudgetExceeded(f"{what} of shape {echo(dims)} needs {echo(16 * size)} bytes, past physical memory")
    return size


def _read_matrix(value, shape: tuple, what: str) -> np.ndarray:
    """A complex array of `shape`, whose first entry None is any length >= 1, from
    dense nested pairs or from the sparse object, sized before it is allocated."""
    if isinstance(value, list):
        if shape[0] is None and not value:
            raise ParseError(f"{what} has no entries")
        return _pairs_to_matrix(value, (len(value), *shape[1:]) if shape[0] is None else shape)
    if not isinstance(value, dict) or sorted(value) != ["index", "shape", "values"]:
        raise ParseError(f"{what} is neither nested [re, im] lists nor a shape, index, values object")
    dims = _json_ints(value["shape"], f"{what} shape").tolist()
    index = _json_ints(value["index"], f"{what} index")
    if len(dims) != len(shape) or any(g < 1 if n is None else g != n for g, n in zip(dims, shape)):
        raise ParseError(f"{what} shape {echo(dims)} is not {echo(['n >= 1' if n is None else n for n in shape])}")
    size = _refuse_past_memory(what, dims)
    try:
        out = np.zeros(dims, dtype=complex)
    except MemoryError:
        raise _out_of_memory(f"{what} of shape {dims} needs {16 * size} bytes, whose allocation failed") from None
    if index.size and (index[0] < 0 or index[-1] >= size or (np.diff(index) <= 0).any()):
        raise ParseError(f"{what} index is not strictly increasing within [0, {size})")
    np.put(out, index, _pairs_to_matrix(value["values"], (index.size,)))
    return out


def _json_number(value, what: str) -> int | float:
    """A JSON number: neither a string nor a bool, which float() reads as 1.0."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{what} = {echo(value)} is not a number")
    return value


def _json_int(value, what: str) -> int:
    """A JSON integer: not a float, which int() truncates, nor a bool, an int in Python."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{what} = {echo(value)} is not an integer")
    return value


def parse_tolerance(value, source: str) -> float:
    """A tolerance read from outside the program: a finite positive number."""
    try:
        tol = float(value)
    except (TypeError, ValueError, OverflowError):  # OverflowError: an int too large for a float
        raise ParseError(f"{source} = {echo(value)} is not a number") from None
    if not (math.isfinite(tol) and tol > 0):
        raise ParseError(f"{source} = {echo(value)} is not a finite positive number")
    return tol


def _out_of_memory(message: str) -> BudgetExceeded:
    """The refusal of a failed allocation, naming the address-space limit RLIMIT_AS when one is set."""
    cap = resource.getrlimit(resource.RLIMIT_AS)[0]
    if cap != resource.RLIM_INFINITY:
        message += f" under the address-space limit RLIMIT_AS of {cap} bytes"
    return BudgetExceeded(message)


def _read(path: str, what: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except MemoryError:  # the decoded JSON objects outgrow the memory left
        size = os.path.getsize(path)
        raise _out_of_memory(f"decoding {what} file {path} of {size} bytes ran out of memory") from None
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad UTF-8 or JSON
        raise ParseError(f"cannot read {what} file {path}: {exc}") from exc


def _write(path: str, doc: dict) -> None:
    """Encode first, so that a failed encode never leaves a truncated file.
    A NaN or infinite part, which the loaders refuse, is a failed encode."""
    try:
        text = json.dumps(doc, allow_nan=False) + "\n"
    except ValueError as exc:
        raise WriteError(f"cannot write {path}: {exc}") from exc
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise WriteError(f"cannot write {path}: {exc.strerror or exc}") from exc


def graph_to_document(G: QuantumGraph, tol: float | None = None) -> dict:
    doc = {
        "blocks": list(G.structure.sizes),
        "psi": [list(map(float, w)) for w in G.psi.weights],
        "adjacency": _matrix_to_pairs(G.adjacency.matrix),
    }
    if tol is not None:
        doc["tol"] = tol
    return doc


def parse_graph_document(doc: dict, tol: float = DEFAULT_TOL) -> tuple[QuantumGraph, float]:
    """Validate a graph document; returns the graph and its effective tolerance."""
    if not isinstance(doc, dict):
        raise ParseError("graph document must be a JSON object")
    for key in ("blocks", "psi", "adjacency"):
        if key not in doc:
            raise ParseError(f"graph document missing key {key!r}")
    eff_tol = parse_tolerance(_json_number(doc.get("tol", tol), "tol"), "tol")
    if not isinstance(doc["blocks"], list):
        raise ParseError(f"blocks = {echo(doc['blocks'])} is not a list of block sizes")
    sizes = [_json_int(n, "block size") for n in doc["blocks"]]
    if not isinstance(doc["psi"], list) or not all(isinstance(w, list) for w in doc["psi"]):
        raise ParseError(f"psi = {echo(doc['psi'])} is not a list of weight lists")
    weights = [[_json_number(x, "psi weight") for x in w] for w in doc["psi"]]
    structure = BlockStructure(tuple(sizes))
    if isinstance(doc["adjacency"], dict):  # sized as `_read_matrix` sizes it, before the state forms tables
        _refuse_past_memory("adjacency", [structure.dim] * 2)
    try:
        psi = validate_delta_form(structure, weights, tol=eff_tol)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"bad blocks/psi: {exc}") from exc
    matrix = _read_matrix(doc["adjacency"], (structure.dim,) * 2, "adjacency")
    graph = QuantumGraph.build(psi, LinearMapOnB(structure, matrix), tol=eff_tol)
    return graph, eff_tol


def load_graph(path: str, tol: float = DEFAULT_TOL) -> tuple[QuantumGraph, float]:
    return parse_graph_document(_read(path, "graph"), tol=tol)


def save_graph(path: str, G: QuantumGraph, tol: float | None = None) -> None:
    _write(path, graph_to_document(G, tol))


def family_to_document(fam: CKFamily) -> dict:
    return {"k": fam.k, "images": _matrix_to_nonzeros(fam.images)}


def parse_family_document(doc: dict) -> CKFamily:
    if not isinstance(doc, dict):
        raise ParseError("family document must be a JSON object")
    for key in ("k", "images"):
        if key not in doc:
            raise ParseError(f"family document missing key {key!r}")
    k = _json_int(doc["k"], "family size k")
    if k < 1:
        raise ParseError(f"family size k = {echo(k)} is not at least 1")
    return CKFamily(k, _read_matrix(doc["images"], (None, k, k), "family images"))


def load_family(path: str) -> CKFamily:
    return parse_family_document(_read(path, "family"))


def save_family(path: str, fam: CKFamily) -> None:
    _write(path, family_to_document(fam))
