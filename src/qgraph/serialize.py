"""JSON file formats for graphs and relation families.

Complex numbers are stored as [re, im] pairs; graph files carry block
sizes, per-block state weights, and the adjacency matrix on canonical
coordinates.  Files are written as compact JSON and read in any layout;
every finite float round-trips bit-exactly.  A ParseError refuses a file
that is not UTF-8, not JSON or nested too deep to decode, and a matrix
whose parts are not finite JSON numbers within float range, whose pairs
do not hold two parts, or whose rows or images are ragged.
"""

from __future__ import annotations

import json
import math
from itertools import chain

import numpy as np

from .blocks import validate_delta_form
from .errors import ParseError, WriteError
from .graphs import LinearMapOnB, QuantumGraph
from .relations import CKFamily


def _matrix_to_pairs(mat: np.ndarray) -> list:
    return np.stack([mat.real, mat.imag], -1).tolist()


def _pairs_to_matrix(value, shape: tuple[int, ...]) -> np.ndarray:
    """A complex array of `shape` from nested [re, im] pairs of finite JSON numbers."""
    parts = value
    try:  # np.array(..., dtype=float) reads "1.5", true and null: check the types first
        for _ in shape:
            parts = chain.from_iterable(parts)
        if kinds := set(map(type, parts)) - {int, float}:
            raise ParseError(f"matrix has parts that are not numbers: {sorted(t.__name__ for t in kinds)}")
        arr = np.array(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:  # ValueError: ragged rows
        raise ParseError(f"bad complex matrix: {exc}") from exc
    if arr.shape != (*shape, 2):
        raise ParseError(f"matrix of [re, im] pairs has shape {arr.shape}, expected {(*shape, 2)}")
    if not np.isfinite(arr).all():
        raise ParseError("matrix has a NaN or infinite entry")
    return arr.view(complex)[..., 0]


def _json_number(value, what: str) -> int | float:
    """A JSON number: neither a string nor a bool, which float() reads as 1.0."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{what} = {value!r} is not a number")
    return value


def _json_int(value, what: str) -> int:
    """A JSON integer: not a float, which int() truncates, nor a bool, an int in Python."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{what} = {value!r} is not an integer")
    return value


def parse_tolerance(value, source: str) -> float:
    """A tolerance read from outside the program: a finite positive number."""
    try:
        tol = float(value)
    except (TypeError, ValueError):
        raise ParseError(f"{source} = {value!r} is not a number") from None
    if not (math.isfinite(tol) and tol > 0):
        raise ParseError(f"{source} = {value!r} is not a finite positive number")
    return tol


def _read(path: str, what: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad UTF-8 or JSON
        raise ParseError(f"cannot read {what} file {path}: {exc}") from exc


def _write(path: str, doc: dict) -> None:
    """Encode first, so that a failed encode never leaves a truncated file."""
    text = json.dumps(doc) + "\n"
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


def parse_graph_document(doc: dict, tol: float = 1e-9) -> tuple[QuantumGraph, float]:
    """Validate a graph document; returns the graph and its effective tolerance."""
    if not isinstance(doc, dict):
        raise ParseError("graph document must be a JSON object")
    for key in ("blocks", "psi", "adjacency"):
        if key not in doc:
            raise ParseError(f"graph document missing key {key!r}")
    eff_tol = parse_tolerance(_json_number(doc.get("tol", tol), "tol"), "tol")
    if not isinstance(doc["blocks"], list):
        raise ParseError(f"blocks = {doc['blocks']!r} is not a list of block sizes")
    sizes = [_json_int(n, "block size") for n in doc["blocks"]]
    if not isinstance(doc["psi"], list) or not all(isinstance(w, list) for w in doc["psi"]):
        raise ParseError(f"psi = {doc['psi']!r} is not a list of weight lists")
    weights = [[_json_number(x, "psi weight") for x in w] for w in doc["psi"]]
    try:
        psi = validate_delta_form(sizes, weights, tol=eff_tol)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad blocks/psi: {exc}") from exc
    dim = psi.structure.dim
    matrix = _pairs_to_matrix(doc["adjacency"], (dim, dim))
    graph = QuantumGraph.build(psi, LinearMapOnB(psi.structure, matrix), tol=eff_tol)
    return graph, eff_tol


def load_graph(path: str, tol: float = 1e-9) -> tuple[QuantumGraph, float]:
    return parse_graph_document(_read(path, "graph"), tol=tol)


def save_graph(path: str, G: QuantumGraph, tol: float | None = None) -> None:
    _write(path, graph_to_document(G, tol))


def family_to_document(fam: CKFamily) -> dict:
    return {"k": fam.k, "images": _matrix_to_pairs(fam.images)}


def parse_family_document(doc: dict) -> CKFamily:
    if not isinstance(doc, dict):
        raise ParseError("family document must be a JSON object")
    for key in ("k", "images"):
        if key not in doc:
            raise ParseError(f"family document missing key {key!r}")
    k = _json_int(doc["k"], "family size k")
    images = doc["images"]
    if not isinstance(images, list):
        raise ParseError("family images must be a list of matrices")
    if not images:
        raise ParseError("family has no unit images")
    return CKFamily(k, _pairs_to_matrix(images, (len(images), k, k)))


def load_family(path: str) -> CKFamily:
    return parse_family_document(_read(path, "family"))


def save_family(path: str, fam: CKFamily) -> None:
    _write(path, family_to_document(fam))
