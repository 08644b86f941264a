import json
from types import SimpleNamespace

import numpy as np
import orjson
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose, assert_array_equal

from gptkit import GptError, build_canonical_frame, gram_matrix
from gptkit import serialize
from conftest import random_density, random_kraus


class TestComplexEncoding:
    def test_round_trip(self, rng):
        mat = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert_allclose(serialize.complex_from_json(serialize.complex_to_json(mat)), mat)

    def test_leaves_are_re_im_pairs(self):
        data = serialize.complex_to_json(np.array([[1.0 + 2.0j]]))
        assert data.dtype == np.float64 and data.tolist() == [[[1.0, 2.0]]]
        assert json.loads(serialize.dumps({"m": data}))["m"] == [[[1.0, 2.0]]]

    def test_malformed_leaf_rejected(self):
        with pytest.raises(Exception):
            serialize.complex_from_json([[1.0, 2.0, 3.0]])


class TestMalformedInput:
    @pytest.mark.parametrize(
        "decode, payload",
        [
            (serialize.vector_from_dict, {"values": [0.5, "a"], "k": 2}),
            (serialize.operator_from_dict, {"matrix": [[[1.0, 0.0]], [[0.0]]], "dimension": 2}),
            (serialize.kraus_from_dict, {"kraus": [[[[1.0, {}]]]]}),
        ],
    )
    def test_ragged_or_non_numeric_array_is_gpt_error(self, decode, payload):
        with pytest.raises(GptError, match="malformed numeric array"):
            decode(payload)


class TestFrameFiles:
    def test_frame_round_trip(self, tmp_path):
        frame = build_canonical_frame(3)
        path = tmp_path / "three.frame.json"
        serialize.write_json(path, serialize.frame_to_dict(frame))
        payload = serialize.read_json(path)
        assert (payload["dimension"], payload["k"]) == (3, 9)
        assert_allclose(serialize.complex_from_json(payload["projectors"]), frame.projectors)

    def test_labels_are_human_readable(self):
        payload = serialize.frame_to_dict(build_canonical_frame(3))
        assert payload["labels"] == ["1", "2", "3", "12x", "12y", "13x", "13y", "23x", "23y"]


class TestMatrixAndVectorFiles:
    def test_dmatrix_round_trip(self, tmp_path):
        d = gram_matrix(build_canonical_frame(2))
        path = tmp_path / "two.dmat.json"
        serialize.write_json(path, serialize.dmatrix_to_dict(d, 2))
        payload = serialize.read_json(path)
        assert (payload["dimension"], payload["k"]) == (2, 4)
        assert_allclose(payload["matrix"], d)

    def test_vector_header(self):
        payload = serialize.vector_to_dict(np.array([1.0, 0.0, 0.5, 0.5]), 2, "state", "p")
        assert payload["dimension"] == 2
        assert payload["k"] == 4
        assert payload["role"] == "state"
        values, n, role, kind = serialize.vector_from_dict(payload)
        assert (values == np.array([1.0, 0.0, 0.5, 0.5])).all()
        assert (n, role, kind) == (2, "state", "p")

    def test_operator_round_trip(self, rng):
        rho = random_density(rng, 3)
        payload = serialize.operator_to_dict(rho)
        assert_allclose(serialize.operator_from_dict(payload), rho)

    def test_kraus_round_trip(self, rng):
        ops = random_kraus(rng, 2)
        payload = serialize.kraus_to_dict(ops)
        assert_allclose(serialize.kraus_from_dict(payload), ops)

    def test_composite_round_trip(self, rng):
        pt = rng.random((4, 9))
        payload = serialize.composite_to_dict(pt)
        assert payload["k_a"] == 4 and payload["k_b"] == 9
        assert_allclose(payload["rows"], pt)

    def test_counts_null_outcome_first(self):
        payload = serialize.counts_to_dict(np.array([3, 5, 2]), shots=10, seed=1)
        assert payload["counts"][0] == 3
        assert payload["shots"] == 10


# texts that hold the 1e300 marker dumps rewrites, next to quotes, commas and line breaks
MARKER_TEXTS = (st.sampled_from([" 1e300,", " 1e300", "1e300", 'a": 1e300,', "1e300\n", "x\x7f"])
                | st.text(max_size=5))
FLOAT64_ARRAYS = hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3),
                            elements=st.floats() | st.sampled_from([1e300, 1e-7, -0.0, 1e16]))

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | MARKER_TEXTS | FLOAT64_ARRAYS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(st.floats(), min_size=1, max_size=4)
    | st.lists(st.floats(allow_nan=False, allow_infinity=False) | st.integers(), min_size=1, max_size=4)
    | st.dictionaries(MARKER_TEXTS, inner, max_size=4),
    max_leaves=20,
)


def json_text(payload) -> str:
    """json's text of ``payload``, each array read as its ``tolist()``: what dumps must write."""
    return json.dumps(payload, indent=2, sort_keys=True, default=np.ndarray.tolist) + "\n"


def assert_file_is_printout(path, payload) -> None:
    """``write_json`` streams the file from orjson's bytes; they must be the
    printout's text, byte for byte."""
    serialize.write_json(path, payload)
    assert path.read_bytes() == serialize.dumps(payload).encode()


class TestDumps:
    """``dumps`` writes a payload by one orjson call; its text must stay
    ``json.dumps(payload, indent=2, sort_keys=True)`` byte for byte."""

    @pytest.mark.parametrize(
        "payload",
        [
            {},
            {"z": np.arange(6.0).reshape(2, 3).tolist(), "k": 2, "empty": [], "none": {}},
            {"x": [0.1, -2.5e-300, 1e22, -0.0]},
            {"nan": [1.0, float("nan")], "inf": [float("inf"), -float("inf")]},
            {"mixed": [1.0, 2, True, None, "a\nb"], "np": [np.float64(0.5)]},
            {"nested": {"b": [[1.5, 2.5], [[3.5]]], "a": {"ü": "é"}}},
            {"int keys": {2: 1.0, 1: [1.0]}},
            {"tuple": (1.0, 2.0)},
            {"x": [1e-05]},
            {"x": [9.999e-05, -9.999e-05]},
            {"x": [0.0001]},
            {"x": [1e16]},
            {"x": [9999999999999998.0]},
            {"x": [781337550.0000437]},
            {"x": [5e-324]},
            {"x": [1.7976931348623157e308]},
            {"x": [-0.0]},
            {"x": [1.5, 2**64, -(2**64), 2**63, 0.5]},
            {"x": [[], [1e-7]]},
            {"x": [1.0, True, 2]},
            {"s": " 1e300,", "t": [1e-7, " 1e300,", 1e20], "u": 1e300},
            {'a": 1e300,': 'a": 1e300,', "b": [1e-5, 'a": 1e300,'], "c": 2e-9},
            {"x": np.float64(1e-7), "y": [np.float64(1e17), np.float64(0.25)]},
            {"é": 1e-7, "v": ["ü", 1e20]},
            {"x": [1e-7, "\ud800"]},
            {"x": [2**64, 1e-7]},
            {"x": 1e300, "y": [1e300, -1e300]},
            {"nan": float("nan"), "inf": float("inf"), "-inf": -float("inf"), "v": 1e-7},
            {"x": np.array(1e-7), "y": np.array(0.5), "z": [np.array(np.nan)]},
            {"f": np.asfortranarray(np.arange(1.0, 13.0).reshape(3, 4) * 1e-6), "g": 1e-6},
            {"del\x7f": 1e-7, "v": "\x7f"},
        ],
    )
    def test_matches_json_dumps(self, payload, tmp_path):
        assert serialize.dumps(payload) == json_text(payload)
        assert_file_is_printout(tmp_path / "x.json", payload)

    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_number_arrays_match_json_dumps_at_any_depth(self, depth, rng):
        """In report.json, Z sits at depth 4: pipelines -> item -> details -> z."""
        value = (rng.standard_normal((3, 4)) * 10.0 ** rng.integers(-20, 20, (3, 4))).tolist()
        value[1] = [1.5e-05, -0.0, 1e16, 2]
        for level in range(depth - 1):
            value = [value] if level % 2 else {"key": value}
        payload = {"top": value}
        assert serialize.dumps(payload) == json.dumps(payload, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("shape", [(10,), (2, 5)])
    @pytest.mark.parametrize("layout", ["contiguous", "reversed", "with-nan", "with-inf"])
    def test_float64_arrays_match_their_lists(self, shape, layout):
        """A float64 array is written by one orjson call; one holding NaN or
        inf, or one orjson refuses (not C-contiguous, with no token to
        rewrite), is written as its list."""
        values = np.array([1e16, 1.5e-05, -0.0, 5e-324, -2.5e-300, 0.5, 1e-7, 3.0, 0.1, 1e22]).reshape(shape)
        if layout == "reversed":
            values = values[::-1]
        if layout == "with-nan":
            values.flat[3] = np.nan
        if layout == "with-inf":
            values.flat[3] = -np.inf
        payload = {"a": values, "b": [{"c": values}]}
        listed = {"a": values.tolist(), "b": [{"c": values.tolist()}]}
        assert serialize.dumps(payload) == json.dumps(listed, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("shape", [(7,), (3, 5), (2, 3, 4), (4, 2, 2, 2)])
    @pytest.mark.parametrize("flagged", ["none", "some", "all"])
    @pytest.mark.parametrize("layout", ["C", "reversed", "Fortran"])
    def test_float64_arrays_match_json_dumps_at_every_depth(self, shape, flagged, layout, rng):
        """The tokens an array's values flag (nonzero with |x| < 1e-4, or
        |x| >= 1e16) are written as repr writes them, and no other token is
        touched: 10^U(-320, 308) magnitudes with zeros, -0.0, 5e-324 and the
        edges of both ranges, at depths 0 to 4 and in every layout."""
        size = int(np.prod(shape))
        low, high = {"none": (-4, 15.9), "some": (-320, 308), "all": (-320, -4.1)}[flagged]
        values = rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(low, high, size)
        if flagged == "all":
            values[::2] = rng.choice([-1.0, 1.0], len(values[::2])) * 10.0 ** rng.uniform(16, 308, len(values[::2]))
            values[:5] = [1e-5, 9.999999999999999e-05, 1e16, -5e-324, 1.7976931348623157e308]
        elif flagged == "some":
            values[:7] = [0.0, -0.0, 5e-324, 1e-5, 9.999999999999999e-05, 1e-4, 9999999999999998.0]
            values[-1] = 1e16
        else:
            values[:4] = [0.0, -0.0, 1e-4, 9999999999999998.0]
        values = values.reshape(shape)
        values = {"C": values, "reversed": values[::-1], "Fortran": np.asfortranarray(values)}[layout]
        magnitude = np.abs(values)
        count = ((magnitude < 1e-4) & (values != 0) | (magnitude >= 1e16)).sum()
        if flagged == "some":
            assert 0 < count < size
        else:
            assert count == (size if flagged == "all" else 0)
        for depth in range(5):
            payload, listed = values, values.tolist()
            for level in range(depth):
                payload, listed = ([payload], [listed]) if level % 2 else ({"k": payload}, {"k": listed})
            assert serialize.dumps(payload) == json.dumps(listed, indent=2, sort_keys=True) + "\n"

    def test_matrix_files_take_the_orjson_path(self, rng, monkeypatch):
        """A Z-like matrix with round-off entries, as an array and as a list,
        and a (K, N, N, 2) projector array, each at Z's depth in report.json,
        are written by exactly one orjson call over the whole payload. Each
        is handed over as it came, an array as a float64 array and a list as
        a list, holding 1e300 in place of each entry whose token is
        rewritten (the round-off ones) and equal to it elsewhere."""
        z = np.round(rng.standard_normal((256, 256)), 2)
        z.flat[rng.choice(z.size, 100, replace=False)] = rng.standard_normal(100) * 1e-17
        projectors = serialize.complex_to_json(build_canonical_frame(4).projectors)
        assert projectors.shape == (16, 4, 4, 2)
        calls = []

        def recording_dumps(value, option):
            calls.append(value)
            return orjson.dumps(value, option=option)

        monkeypatch.setattr(serialize, "orjson", SimpleNamespace(
            dumps=recording_dumps, OPT_INDENT_2=orjson.OPT_INDENT_2,
            OPT_SERIALIZE_NUMPY=orjson.OPT_SERIALIZE_NUMPY))
        for matrix in (z, z.tolist(), projectors):
            calls.clear()
            payload = {"pipelines": [{"details": {"z": matrix}}]}
            assert serialize.dumps(payload) == json_text(payload)
            (marked,) = calls
            handed = marked["pipelines"][0]["details"]["z"]
            assert type(handed) is type(matrix)
            handed, matrix = np.asarray(handed), np.asarray(matrix)
            flagged = (np.abs(matrix) < 1e-4) & (matrix != 0)
            assert flagged.sum() == (0 if matrix.ndim == 4 else 100)
            assert handed.dtype == np.float64
            assert_array_equal(handed[~flagged], matrix[~flagged])
            assert (handed[flagged] == 1e300).all()

    @pytest.mark.parametrize("payload", [{"x": [2**64, 1e-7]}, {"é": 1e-7}, {1: 0.5}, {"x": "\ud800"}])
    def test_refused_payloads_go_to_json(self, payload, monkeypatch, tmp_path):
        """What orjson cannot write as json does (ints beyond 64 bits, non-ASCII
        or non-str keys, a lone surrogate) is written by json itself."""
        calls = []
        monkeypatch.setattr(serialize, "json", SimpleNamespace(
            dumps=lambda *args, **kwargs: calls.append(args) or json.dumps(*args, **kwargs)))
        assert serialize.dumps(payload) == json_text(payload)
        assert len(calls) == 1
        assert_file_is_printout(tmp_path / "x.json", payload)

    def test_unwritable_payload_leaves_no_file(self, tmp_path):
        """json refuses a set, and write_json raises before it opens the file."""
        with pytest.raises(TypeError):
            serialize.write_json(tmp_path / "x.json", {"x": {1.0}})
        assert not (tmp_path / "x.json").exists()

    @given(st.dictionaries(st.text(max_size=5), JSON_VALUES, max_size=5))
    def test_matches_json_dumps_on_any_object(self, tmp_path_factory, payload):
        assert serialize.dumps(payload) == json_text(payload)
        assert_file_is_printout(tmp_path_factory.getbasetemp() / "any.json", payload)
