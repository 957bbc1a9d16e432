"""JSON file formats for graphs and relation families.

Complex numbers are stored as two-element [re, im] arrays; graph files
carry block sizes, per-block state weights, and the adjacency matrix on
canonical coordinates.  Finite decimal inputs round-trip bit-exactly.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .blocks import validate_delta_form
from .errors import ParseError
from .graphs import LinearMapOnB, QuantumGraph
from .relations import CKFamily


def _complex_to_pair(z: complex) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


def _pair_to_complex(pair) -> complex:
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise ParseError(f"expected [re, im] pair, got {pair!r}")
    return complex(pair[0], pair[1])  # TypeError for a string or any other non-number


def _matrix_to_pairs(mat: np.ndarray) -> list[list[list[float]]]:
    return [[_complex_to_pair(z) for z in row] for row in np.asarray(mat, dtype=complex)]


def _pairs_to_matrix(rows, shape=None) -> np.ndarray:
    """A complex matrix from rows of [re, im] pairs: rectangular, numeric and finite."""
    try:
        mat = np.array([[_pair_to_complex(z) for z in row] for row in rows])
    except (TypeError, ValueError, OverflowError, ParseError) as exc:  # ValueError: ragged rows
        raise ParseError(f"bad complex matrix: {exc}") from exc
    if mat.ndim != 2:
        raise ParseError(f"matrix has {mat.ndim} dimensions")
    if not np.isfinite(mat).all():
        raise ParseError("matrix has a NaN or infinite entry")
    if shape is not None and mat.shape != shape:
        raise ParseError(f"matrix has shape {mat.shape}, expected {shape}")
    return mat


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
    eff_tol = parse_tolerance(doc.get("tol", tol), "tol")
    if not isinstance(doc["blocks"], list):
        raise ParseError(f"blocks = {doc['blocks']!r} is not a list of block sizes")
    sizes = [_json_int(n, "block size") for n in doc["blocks"]]
    try:
        psi = validate_delta_form(sizes, doc["psi"], tol=eff_tol)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad blocks/psi: {exc}") from exc
    dim = psi.structure.dim
    matrix = _pairs_to_matrix(doc["adjacency"], shape=(dim, dim))
    graph = QuantumGraph.build(psi, LinearMapOnB(psi.structure, matrix), tol=eff_tol)
    return graph, eff_tol


def load_graph(path: str, tol: float = 1e-9) -> tuple[QuantumGraph, float]:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read graph file {path}: {exc}") from exc
    return parse_graph_document(doc, tol=tol)


def save_graph(path: str, G: QuantumGraph, tol: float | None = None) -> None:
    with open(path, "w") as fh:
        json.dump(graph_to_document(G, tol), fh, indent=2)
        fh.write("\n")


def family_to_document(fam: CKFamily) -> dict:
    return {
        "k": fam.k,
        "images": [_matrix_to_pairs(img) for img in fam.images],
    }


def parse_family_document(doc: dict) -> CKFamily:
    if not isinstance(doc, dict):
        raise ParseError("family document must be a JSON object")
    for key in ("k", "images"):
        if key not in doc:
            raise ParseError(f"family document missing key {key!r}")
    k = _json_int(doc["k"], "family size k")
    if not isinstance(doc["images"], list):
        raise ParseError("family images must be a list of matrices")
    images = [_pairs_to_matrix(rows, shape=(k, k)) for rows in doc["images"]]
    if not images:
        raise ParseError("family has no unit images")
    return CKFamily(k, np.stack(images))


def load_family(path: str) -> CKFamily:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read family file {path}: {exc}") from exc
    return parse_family_document(doc)


def save_family(path: str, fam: CKFamily) -> None:
    with open(path, "w") as fh:
        json.dump(family_to_document(fam), fh, indent=2)
        fh.write("\n")
