"""JSON wire formats for frames, matrices, vectors, Kraus sets, composite
states and outcome counts, and the parsing of the values that arrive in
them and in config sections. Frame, D-matrix, composite and counts files
are only written; vector, operator and Kraus files are also read.

Complex scalars are encoded as two-element [re, im] arrays; real matrices
are row-major arrays of arrays. Frame files use the ``.frame.json``
extension and D-matrix files ``.dmat.json`` by convention.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

import numpy as np
import orjson

from .errors import DimensionError, GptError
from .frames import FiducialFrame, label_text


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
    """The JSON text of every file and printout: indented, keys sorted.

    The text is ``json.dumps(payload, indent=2, sort_keys=True)`` byte for
    byte, with each numpy array read as its ``tolist()``. Each number array,
    the bulk of a matrix file, is written by one orjson call
    (``_number_list``) instead of json's per-item Python encoder.
    """
    pieces: list[str] = []
    _encode(payload, 0, pieces)
    pieces.append("\n")
    return "".join(pieces)


def _encode(value: Any, depth: int, out: list[str]) -> None:
    """Append to ``out`` json's indent=2 text of ``value``, which starts on
    a line indented by ``depth`` levels.

    A float64 array, or a non-empty list of finite floats and ints nested
    to any depth, is one ``_number_list`` call; any other array is encoded
    as its ``tolist()``, and any other list item by item.
    """
    if type(value) is np.ndarray:
        if value.dtype != np.float64 or not _number_list(value, depth, out):
            _encode(value.tolist(), depth, out)
        return
    newline = "\n" + "  " * depth
    if type(value) is list and value:
        if type(value[0]) in (float, int, list) and _number_list(value, depth, out):
            return
        for i, item in enumerate(value):
            out.append(("," if i else "[") + newline + "  ")
            _encode(item, depth + 1, out)
        out += newline, "]"
    elif type(value) is dict and value and all(type(k) is str for k in value):
        for i, (key, item) in enumerate(sorted(value.items())):
            out.append(("," if i else "{") + newline + "  " + json.dumps(key) + ": ")
            _encode(item, depth + 1, out)
        out += newline, "}"
    elif not isinstance(value, (dict, list, tuple)):
        out.append(json.dumps(value))  # a scalar's text does not depend on the layout
    else:  # json writes no raw line break inside a string, so every one is layout
        out.append(json.dumps(value, indent=2, sort_keys=True).replace("\n", newline))


def _number_list(value: list | np.ndarray, depth: int, out: list[str]) -> bool:
    """Append to ``out`` json's indent=2 text of ``value`` at ``depth``
    levels of indent, from one orjson call; False, with nothing appended,
    when ``value`` holds anything but finite floats, ints within 64 bits
    and lists of them, or is an array orjson refuses (0-d, or not
    C-contiguous with no entry to rewrite).

    orjson writes ``value`` nested in ``depth`` one-item lists, so each line
    comes out at its final indent, and the wrapper lines are left out. Its
    digits are repr's shortest round-trip ones, and its text is repr's for
    every float but the nonzero ones with |x| < 1e-4 or |x| >= 1e16: there
    it writes ``0.00001``, ``1.2e-7`` and ``1e16`` where repr writes
    ``1e-05``, ``1.2e-07`` and ``1e+16``. Those tokens are written as the
    repr of their float. An array's are found from its values: orjson gets
    a copy with 1e300 in their place, so the k-th token holding ``e`` is
    the k-th of them in C order. A list may mix ints with floats (an int
    of 1e16 or more keeps its digits), so its tokens are found in the text:
    each one holding ``e`` or ``0.0000``.
    """
    originals = None  # an array's rewritten floats, in C order
    if type(value) is np.ndarray:
        magnitude = np.abs(value)
        if not magnitude.max(initial=0.0) < np.inf:  # NaN and inf: json writes them, orjson null
            return False
        flagged = (magnitude < 1e-4) & (value != 0) | (magnitude >= 1e16)
        del magnitude  # freed before orjson's text is allocated
        originals = value[flagged].tolist()
        if originals:
            value = np.where(flagged, 1e300, value)
    option = orjson.OPT_INDENT_2 | (orjson.OPT_SERIALIZE_NUMPY if originals is not None else 0)
    for _ in range(depth):
        value = [value]
    try:
        raw = orjson.dumps(value, option=option)
    except TypeError:  # numpy scalars, ints beyond 64 bits, 0-d or non-contiguous arrays
        return False
    if originals is None and any(c in raw for c in b'"{tfn'):  # strings, objects, true, false, null
        return False
    # the wrappers open with depth lines "[" at indents 0, 2, ... and close with as many "]" lines
    done, stop = depth * (depth + 3), len(raw) - depth * (depth + 1)
    view = memoryview(raw)
    if originals is None:
        starts = set()
        for marker in (b"e", b"0.0000"):  # every e is an exponent: the text holds only numbers
            at = raw.find(marker, done, stop)
            while at >= 0:
                starts.add(raw.rfind(b" ", 0, at) + 1)  # each number is on its own indented line
                at = raw.find(marker, at + 1, stop)
        for start in sorted(starts):
            end = raw.find(b"\n", start)
            end -= raw[end - 1] == ord(",")  # every item but a list's last is followed by a comma
            out += str(view[done:start], "ascii"), repr(float(raw[start:end]))
            done = end
    else:
        for original in originals:  # each token holding e is a 1e300
            at = raw.find(b"e", done, stop)
            out += str(view[done:at - 1], "ascii"), repr(original)
            done = at + 4
    out.append(str(view[done:stop], "ascii"))
    return True


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


def dmatrix_to_dict(d: np.ndarray, dimension: int) -> dict:
    d = np.asarray(d, dtype=float)
    return {"dimension": dimension, "k": d.shape[0], "matrix": d.tolist()}


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


def state_from_dict(payload: dict) -> tuple[str, int, np.ndarray]:
    """(kind, dimension, values) of an operator file ("rho", it has "matrix")
    or of a "p" or "r" vector file; another kind, or a dimension above k
    (K >= N in every theory), is a GptError."""
    if "matrix" in payload:
        matrix = operator_from_dict(payload)
        return "rho", matrix.shape[0], matrix
    values, n, _, kind = vector_from_dict(payload)
    if kind not in ("p", "r"):
        raise GptError(f"vector kind {kind!r} is neither 'p' nor 'r'")
    if n > values.shape[0]:
        raise GptError(f"vector header says dimension {n} but k = {values.shape[0]}")
    return kind, n, values


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


def counts_to_dict(counts: np.ndarray, shots: int, seed: int) -> dict:
    """Outcome counts with the null outcome always at index 0."""
    return {"shots": shots, "seed": seed, "counts": [int(c) for c in np.asarray(counts)]}
