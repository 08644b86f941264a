import numpy as np
import pytest
from numpy.testing import assert_allclose

from gptkit import DimensionError, GptError, build_canonical_frame, gram_matrix
from gptkit import serialize
from conftest import random_density, random_kraus


class TestComplexEncoding:
    def test_round_trip(self, rng):
        mat = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert_allclose(serialize.complex_from_json(serialize.complex_to_json(mat)), mat)

    def test_leaves_are_re_im_pairs(self):
        data = serialize.complex_to_json(np.array([[1.0 + 2.0j]]))
        assert data == [[[1.0, 2.0]]]

    def test_malformed_leaf_rejected(self):
        with pytest.raises(Exception):
            serialize.complex_from_json([[1.0, 2.0, 3.0]])


class TestMalformedInput:
    @pytest.mark.parametrize(
        "decode, payload",
        [
            (serialize.dmatrix_from_dict, {"matrix": [[1.0, 0.0], [0.0]]}),
            (serialize.vector_from_dict, {"values": [0.5, "a"], "k": 2}),
            (serialize.composite_from_dict, {"rows": [[1.0], [{}]], "k_a": 2, "k_b": 1}),
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
        loaded = serialize.frame_from_dict(serialize.read_json(path))
        assert loaded.dimension == 3
        assert_allclose(loaded.projectors, frame.projectors)
        assert loaded.labels == frame.labels

    def test_labels_are_human_readable(self):
        payload = serialize.frame_to_dict(build_canonical_frame(3))
        assert payload["labels"] == ["1", "2", "3", "12x", "12y", "13x", "13y", "23x", "23y"]

    def test_wrong_shape_rejected(self):
        payload = serialize.frame_to_dict(build_canonical_frame(2))
        payload["dimension"] = 3
        with pytest.raises(DimensionError):
            serialize.frame_from_dict(payload)


class TestMatrixAndVectorFiles:
    def test_dmatrix_round_trip(self, tmp_path):
        d = gram_matrix(build_canonical_frame(2))
        path = tmp_path / "two.dmat.json"
        serialize.write_json(path, serialize.dmatrix_to_dict(d, 2))
        assert_allclose(serialize.dmatrix_from_dict(serialize.read_json(path)), d)

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
        assert_allclose(serialize.composite_from_dict(payload), pt)

    def test_counts_null_outcome_first(self):
        payload = serialize.counts_to_dict(np.array([3, 5, 2]), shots=10, seed=1)
        assert payload["counts"][0] == 3
        assert payload["shots"] == 10
