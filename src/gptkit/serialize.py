"""JSON wire formats for frames, matrices, vectors, Kraus sets, composite
states and outcome counts, and the parsing of the values that arrive in
them and in config sections.

Complex scalars are encoded as two-element [re, im] arrays; real matrices
are row-major arrays of arrays. Frame files use the ``.frame.json``
extension and D-matrix files ``.dmat.json`` by convention.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

import numpy as np

from .errors import DimensionError, GptError
from .frames import FiducialFrame, canonical_labels, label_text


def complex_to_json(array: np.ndarray) -> list:
    """Encode a complex array as nested lists with [re, im] leaves."""
    array = np.asarray(array, dtype=complex)
    paired = np.stack([array.real, array.imag], axis=-1)
    return paired.tolist()


def _float_array(data: Any) -> np.ndarray:
    """``data`` as a float array; a ragged, non-numeric or non-finite array is a GptError."""
    try:
        array = np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:  # TypeError: a JSON object where a number belongs
        raise GptError(f"malformed numeric array: {exc}") from None
    if not np.isfinite(array).all():
        raise GptError("malformed numeric array: NaN or infinite entry")  # JSON NaN, Infinity
    return array


def _required(params: dict[str, Any], key: str) -> Any:
    """The value at ``key``; a missing key is a GptError naming it."""
    if key not in params:
        raise GptError(f"missing parameter {key!r}")
    return params[key]


def _number(params: dict[str, Any], key: str, kind: type = int, default: Any = None) -> Any:
    """A numeric parameter: ``kind`` (int or float) of the value at ``key``,
    or of ``default`` when the key is absent and a default is given."""
    value = _required(params, key) if default is None else params.get(key, default)
    try:
        number = kind(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    # a string is parsed, but a JSON number for an int key must be integral (2.5 is refused)
    if kind is int and not isinstance(value, str) and number != value:
        number = None
    if number is None or (kind is float and not np.isfinite(number)):
        raise GptError(f"{key} = {value!r} is not {'an integer' if kind is int else 'a number'}")
    return number


def _seed(params: dict[str, Any], default: Any = None) -> int:
    """The ``seed`` parameter: an integer that numpy can seed with, so not negative."""
    seed = _number(params, "seed", default=default)
    if seed < 0:
        raise GptError(f"seed = {params['seed']!r} is negative")
    return seed


def complex_from_json(data: Any) -> np.ndarray:
    """Decode nested lists with [re, im] leaves into a complex array."""
    paired = _float_array(data)
    if paired.ndim == 0 or paired.shape[-1] != 2:
        raise GptError("complex entries must be [re, im] pairs")
    return paired[..., 0] + 1j * paired[..., 1]


def dumps(payload: dict) -> str:
    """The JSON text of every file and printout: indented, keys sorted."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_json(path: str | Path, payload: dict) -> None:
    Path(path).write_text(dumps(payload))


def read_json(path: str | Path) -> dict:
    """The JSON object in a file; malformed JSON or any other top-level
    value is a GptError. An unreadable file raises the OSError."""
    try:
        payload = json.loads(Path(path).read_text())
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise GptError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise GptError(f"{path}: top-level JSON value is a {type(payload).__name__}, not an object")
    return payload


def frame_to_dict(frame: FiducialFrame) -> dict:
    return {
        "dimension": frame.dimension,
        "k": frame.k,
        "ordering": "basis-then-pairs-x-before-y",
        "labels": [label_text(lab) for lab in frame.labels],
        "projectors": complex_to_json(frame.projectors),
    }


def frame_from_dict(payload: dict) -> FiducialFrame:
    n = _number(payload, "dimension")
    projectors = complex_from_json(_required(payload, "projectors"))
    if projectors.shape != (n * n, n, n):
        raise DimensionError(
            f"frame payload has projector shape {projectors.shape}, expected ({n * n}, {n}, {n})"
        )
    frame = FiducialFrame(dimension=n, projectors=projectors, labels=canonical_labels(n))
    frame.validate()
    return frame


def dmatrix_to_dict(d: np.ndarray, dimension: int) -> dict:
    d = np.asarray(d, dtype=float)
    return {"dimension": dimension, "k": d.shape[0], "matrix": d.tolist()}


def dmatrix_from_dict(payload: dict) -> np.ndarray:
    d = _float_array(_required(payload, "matrix"))
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise DimensionError(f"D matrix payload must be square, got {d.shape}")
    return d


def vector_to_dict(values: np.ndarray, dimension: int, role: str, kind: str) -> dict:
    """Header {dimension, K, role} plus a flat value array; ``kind`` says
    whether the values are fiducial probabilities (p) or coefficients (r)."""
    values = np.asarray(values, dtype=float)
    return {
        "dimension": dimension,
        "k": values.shape[0],
        "role": role,
        "kind": kind,
        "values": values.tolist(),
    }


def vector_from_dict(payload: dict) -> tuple[np.ndarray, int, str, str]:
    values = _float_array(_required(payload, "values"))
    if values.ndim != 1 or values.shape[0] != _number(payload, "k"):
        raise DimensionError("vector payload length does not match its header")
    role, kind = str(_required(payload, "role")), str(_required(payload, "kind"))
    return values, _number(payload, "dimension"), role, kind


def operator_to_dict(matrix: np.ndarray) -> dict:
    matrix = np.asarray(matrix, dtype=complex)
    return {"dimension": matrix.shape[0], "matrix": complex_to_json(matrix)}


def operator_from_dict(payload: dict) -> np.ndarray:
    matrix = complex_from_json(_required(payload, "matrix"))
    n = _number(payload, "dimension")
    if matrix.shape != (n, n):
        raise DimensionError(f"operator payload has shape {matrix.shape}, header says {n}")
    return matrix


def kraus_to_dict(operators: np.ndarray) -> dict:
    operators = np.asarray(operators, dtype=complex)
    return {"dimension": operators.shape[1], "kraus": complex_to_json(operators)}


def kraus_from_dict(payload: dict) -> np.ndarray:
    ops = complex_from_json(_required(payload, "kraus"))
    if ops.ndim != 3 or ops.shape[1] != ops.shape[2]:
        raise DimensionError(f"Kraus payload must be a list of square matrices, got {ops.shape}")
    return ops


def composite_to_dict(pt: np.ndarray) -> dict:
    pt = np.asarray(pt, dtype=float)
    return {"k_a": pt.shape[0], "k_b": pt.shape[1], "rows": pt.tolist()}


def composite_from_dict(payload: dict) -> np.ndarray:
    pt = _float_array(_required(payload, "rows"))
    if pt.shape != (_number(payload, "k_a"), _number(payload, "k_b")):
        raise DimensionError("composite payload shape does not match its header")
    return pt


def counts_to_dict(counts: np.ndarray, shots: int, seed: int) -> dict:
    """Outcome counts with the null outcome always at index 0."""
    return {"shots": shots, "seed": seed, "counts": [int(c) for c in np.asarray(counts)]}
