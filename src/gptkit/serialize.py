"""JSON wire formats for frames, matrices, vectors, Kraus sets, composite
states and outcome counts, and the parsing of the values that arrive in
them and in config sections. Frame, D-matrix, composite and counts files
are only written; vector, operator and Kraus files are also read.

Complex scalars are encoded as two-element [re, im] arrays; real matrices
are row-major arrays of arrays. The payload builders hand their matrices
and vectors to ``dumps`` as float64 arrays, and ``dumps`` writes each file
by one orjson call, whose bytes ``write_json`` streams to the file. Frame
files use the ``.frame.json`` extension and D-matrix files ``.dmat.json``
by convention.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path
from typing import Any, Iterator

import numpy as np
import orjson

from .errors import DimensionError, GptError
from .frames import FiducialFrame, label_text


def complex_to_json(array: np.ndarray) -> np.ndarray:
    """Encode a complex array as a float64 array with a last axis of [re, im]
    pairs, written as nested lists with [re, im] leaves."""
    array = np.asarray(array, dtype=complex)
    return np.stack([array.real, array.imag], axis=-1)


def _float_array(data: Any) -> np.ndarray:
    """``data`` as a float array; a ragged, non-numeric or non-finite array,
    or one with a JSON ``true`` or ``false`` leaf, is a GptError."""
    try:
        array = np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:  # TypeError: a JSON object where a number belongs
        raise GptError(f"malformed numeric array: {exc}") from None
    if not np.isfinite(array).all():
        raise GptError("malformed numeric array: NaN or infinite entry")  # JSON NaN, Infinity
    # numpy reads a bool as 1 or 0, also in a mixed list, so the leaves are
    # typed here: ndim levels down the nesting that the conversion found regular
    leaves = [data] if array.ndim == 0 else data
    for _ in range(array.ndim - 1):
        leaves = itertools.chain.from_iterable(leaves)
    if bool in map(type, leaves):
        raise GptError("malformed numeric array: true or false entry")
    return array


def _required(params: dict[str, Any], key: str) -> Any:
    """The value at ``key``; a missing key is a GptError naming it."""
    if key not in params:
        raise GptError(f"missing parameter {key!r}")
    return params[key]


def _number(params: dict[str, Any], key: str, kind: type = int, default: Any = None) -> Any:
    """A numeric parameter: ``kind`` (int or float) of the value at ``key``,
    or of ``default`` when the key is absent and a default is given. A JSON
    ``true`` or ``false`` is not a number."""
    value = _required(params, key) if default is None else params.get(key, default)
    try:
        number = None if isinstance(value, bool) else kind(value)
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
    byte, with each numpy array read as its ``tolist()``, from one orjson
    call. orjson writes some floats' tokens differently from json, so
    ``_marked`` hands it 1e300 in their place and records json's text of
    each; the k-th ``1e300`` token that ends its line (a line break, or a
    comma and a line break, or the end of the text follows it) becomes the
    k-th recorded text. A string never ends a line, since its closing
    quote follows it, so no string is touched. A payload that orjson
    cannot write as json does is written by json itself.
    """
    return "".join(str(piece, "ascii") for piece in _spliced(payload))


def _spliced(payload: dict) -> Iterator[bytes | memoryview]:
    """The ASCII pieces of ``dumps(payload)``, in order: slices of orjson's
    output and json's texts of the marked floats between them."""
    texts: list[str] = []
    try:
        raw = orjson.dumps(_marked(payload, texts), option=orjson.OPT_INDENT_2 | orjson.OPT_SERIALIZE_NUMPY)
    except TypeError:  # _marked's refusals, ints beyond 64 bits
        yield json.dumps(payload, indent=2, sort_keys=True, default=np.ndarray.tolist).encode()
    else:
        view, done, at = memoryview(raw), 0, -1
        for text in texts:
            at = raw.index(b"e", at + 1)  # every e outside a string is in a marker or in true/false
            while not (raw.startswith(b"1e300", at - 1)
                       and (raw.startswith((b"\n", b",\n"), at + 4) or at + 4 == len(raw))):
                at = raw.index(b"e", at + 1)
            yield view[done:at - 1]
            yield text.encode()
            done = at + 4
        yield view[done:]
    yield b"\n"


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}  # repr's text -> json's


def _json_float(number: float) -> str:
    """json's text of a float (``float.__repr__``: numpy 2's repr of a float64 names its type)."""
    text = float.__repr__(number)
    return _NON_FINITE.get(text, text)


def _plain(text: str) -> bool:
    """Whether orjson writes ``text`` as json does: ASCII, and no DEL, which json escapes."""
    return text.isascii() and "\x7f" not in text


def _marked(value: Any, texts: list[str]) -> Any:
    """``value`` for orjson to write as json does.

    Dict items come in sorted key order; tuples and arrays of any dtype but
    float64 become lists, and a 0-d array its scalar; a float64 array
    becomes C-contiguous. Each float whose token orjson writes differently
    (nonzero with |x| < 1e-4, |x| >= 1e16, NaN and inf) becomes 1e300, and
    json's text of it is appended to ``texts`` in output order. A key that
    is not a plain str, a string json escapes differently, or a value of a
    type json does not write is a TypeError.
    """
    if isinstance(value, dict):
        if not all(type(key) is str and _plain(key) for key in value):
            raise TypeError("a key that orjson does not write as json does")
        return {key: _marked(item, texts) for key, item in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_marked(item, texts) for item in value]
    if type(value) is np.ndarray:
        if value.dtype != np.float64 or value.ndim == 0:
            return _marked(value.tolist(), texts)
        flagged = (value > -1e-4) & (value < 1e-4) & (value != 0) | ~((value > -1e16) & (value < 1e16))
        if flagged.any():
            texts += map(_json_float, value[flagged].tolist())  # C order, as orjson writes them
            value = np.array(value, order="C")
            value[flagged] = 1e300
        return np.ascontiguousarray(value)
    if isinstance(value, float):  # np.float64 too
        if value != 0 and abs(value) < 1e-4 or not abs(value) < 1e16:
            texts.append(_json_float(value))
            return 1e300
        return value
    if value is None or type(value) in (bool, int) or type(value) is str and _plain(value):
        return value
    raise TypeError(f"a {type(value).__name__} that orjson does not write as json does")


def write_json(path: str | Path, payload: dict) -> None:
    """Write ``dumps(payload)`` to ``path``, piece by piece from orjson's
    output, with no copy of the whole text."""
    pieces = _spliced(payload)
    first = next(pieces)  # the whole orjson (or json) call, so a payload neither writes leaves no file
    with open(path, "wb") as file:
        file.write(first)
        file.writelines(pieces)


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
    return {"dimension": dimension, "k": d.shape[0], "matrix": d}


def vector_to_dict(values: np.ndarray, dimension: int, role: str, kind: str) -> dict:
    """Header {dimension, K, role} plus a flat value array; ``kind`` says
    whether the values are fiducial probabilities (p) or coefficients (r)."""
    values = np.asarray(values, dtype=float)
    return {
        "dimension": dimension,
        "k": values.shape[0],
        "role": role,
        "kind": kind,
        "values": values,
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
    return {"k_a": pt.shape[0], "k_b": pt.shape[1], "rows": pt}


def counts_to_dict(counts: np.ndarray, shots: int, seed: int) -> dict:
    """Outcome counts with the null outcome always at index 0."""
    return {"shots": shots, "seed": seed, "counts": [int(c) for c in np.asarray(counts)]}
