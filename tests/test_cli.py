import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gptkit import serialize
from gptkit.cli import main
from conftest import random_density


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_import_does_not_load_scipy():
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r}); import gptkit.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "files, argv, message",
    [
        (
            {"f.json": {"dimension": "x", "matrix": [[[1, 0]]]}},
            ["convert", "--from", "rho", "--in", "f.json", "--to", "p"],
            "dimension = 'x' is not an integer",
        ),
        (
            {
                "e.cfg": "[experiment]\nn = 2\npartition = file:part.json\n",
                "part.json": {"vectors": [["a", 0, 0, 0]]},
            },
            ["simulate", "--config", "e.cfg", "--seed", "1"],
            "malformed numeric array",
        ),
        (
            {
                "e.cfg": "[experiment]\nn = 2\npreparation = file:v.json\n",
                "v.json": {"dimension": 2, "k": 3, "role": "state", "kind": "p", "values": [1, 0, 0]},
            },
            ["simulate", "--config", "e.cfg", "--seed", "1"],
            "preparation vector length 3 does not match K = 4",
        ),
        (
            {"v.json": {"dimension": 1000, "k": 1, "role": "state", "kind": "p", "values": [0.5]}},
            ["convert", "--from", "p", "--in", "v.json", "--to", "r"],
            "vector header says dimension 1000 but k = 1",
        ),
        (
            {"v.json": {"dimension": 2, "k": 4, "role": "state", "kind": "r",
                        "values": [float("nan"), 0, 0, 0]}},
            ["convert", "--from", "r", "--in", "v.json", "--to", "p"],
            "NaN or infinite entry",
        ),
        (
            {"op.json": {"dimension": 1, "matrix": [[[0.5, float("inf")]]]}},
            ["convert", "--from", "rho", "--in", "op.json", "--to", "p"],
            "NaN or infinite entry",
        ),
        (
            {"e.cfg": "[experiment]\nn = 2\npreparation = mix:nan\n"},
            ["simulate", "--config", "e.cfg", "--seed", "1"],
            "mix = 'nan' is not a number",
        ),
    ],
    ids=["convert-dimension", "simulate-partition-vector", "simulate-preparation-length",
         "convert-dimension-above-k", "convert-nan-vector", "convert-infinite-operator",
         "simulate-nan-mix"],
)
def test_malformed_json_field_is_usage_error(tmp_path, capsys, monkeypatch, files, argv, message):
    for name, content in files.items():
        (tmp_path / name).write_text(content if isinstance(content, str) else json.dumps(content))
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize("command", ["report", "simulate"])
@pytest.mark.parametrize(
    "text, message",
    [
        ("[frame f]\nn = 2\n\n[frame f]\nn = 3\n", "section 'frame f' already exists"),
        ("[experiment]\nn = 2\n\n[experiment]\nn = 3\n", "section 'experiment' already exists"),
        ("garbage line\n", "File contains no section headers"),
        ("[experiment]\nn = 2\nout = a%b.json\n", "'%' must be followed by '%' or '('"),
        (b"\xff\xfe[report]\n", "is not valid JSON / UTF-8: 'utf-8' codec can't decode"),
        ('{"seed": 1,}', "is not valid JSON / UTF-8: Expecting property name"),
    ],
    ids=["duplicate-frame", "duplicate-experiment", "no-section-header", "bad-interpolation",
         "not-utf8", "malformed-json"],
)
def test_malformed_ini_config_is_usage_error(tmp_path, capsys, command, text, message):
    config = tmp_path / "bad.cfg"
    config.write_bytes(text if isinstance(text, bytes) else text.encode())
    argv = ["--out-dir", str(tmp_path / "out")] if command == "report" else ["--seed", "1"]
    code, _, err = run_cli(capsys, command, "--config", str(config), *argv)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize("pipelines", [[5], "ab", 5, [{"kind": "frame", "n": 2}, []]])
def test_pipelines_not_a_list_of_objects_is_usage_error(tmp_path, capsys, pipelines):
    config = tmp_path / "r.json"
    config.write_text(json.dumps({"seed": 1, "pipelines": pipelines}))
    code, _, err = run_cli(capsys, "report", "--config", str(config), "--out-dir", str(tmp_path / "out"))
    assert code == 2
    assert err == "error: pipelines must be a list of objects\n"
    assert not (tmp_path / "out" / "report.json").exists()


class TestFrameAndDMatrix:
    def test_frame_json_to_stdout(self, capsys):
        code, out, _ = run_cli(capsys, "frame", "--n", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["k"] == 4

    def test_dmatrix_csv_output(self, tmp_path, capsys):
        out_file = tmp_path / "d.csv"
        code, _, _ = run_cli(capsys, "dmatrix", "--n", "2", "--out", str(out_file))
        assert code == 0
        rows = [line.split(",") for line in out_file.read_text().strip().splitlines()]
        assert len(rows) == 4
        assert float(rows[0][2]) == 0.5

    def test_invalid_dimension_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "frame", "--n", "0")
        assert code == 2
        assert "error" in err


class TestConvert:
    def test_rho_to_p_to_r_round_trip(self, tmp_path, capsys, rng):
        rho = random_density(rng, 2, trace=0.8)
        rho_file = tmp_path / "rho.op.json"
        serialize.write_json(rho_file, serialize.operator_to_dict(rho))

        code, out, _ = run_cli(capsys, "convert", "--in", str(rho_file), "--from", "rho", "--to", "p")
        assert code == 0
        p_payload = json.loads(out)
        p_file = tmp_path / "p.json"
        serialize.write_json(p_file, p_payload)

        code, out, _ = run_cli(capsys, "convert", "--in", str(p_file), "--from", "p", "--to", "r")
        assert code == 0
        r_payload = json.loads(out)
        r_file = tmp_path / "r.json"
        serialize.write_json(r_file, r_payload)

        code, out, _ = run_cli(capsys, "convert", "--in", str(r_file), "--from", "r", "--to", "rho")
        assert code == 0
        back = serialize.operator_from_dict(json.loads(out))
        assert np.abs(back - rho).max() <= 1e-10

    @pytest.mark.parametrize(
        "payload",
        [
            [1, 2],  # top-level list
            {"dimension": 2, "matrix": [[[1, 0], [0, 0]], [[0, 0]]]},  # ragged
            {"dimension": 1, "matrix": [[["a", 0]]]},  # non-numeric entry
            {"dimension": 1, "matrix": [[[{}, 0]]]},  # object entry
            {"dimension": 1, "matrix": 5},  # scalar, not an array of pairs
        ],
    )
    def test_malformed_operator_file_is_usage_error(self, tmp_path, capsys, payload):
        rho_file = tmp_path / "bad.op.json"
        rho_file.write_text(json.dumps(payload))
        code, _, err = run_cli(capsys, "convert", "--in", str(rho_file), "--from", "rho", "--to", "p")
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_kind_mismatch_rejected(self, tmp_path, capsys):
        p_file = tmp_path / "p.json"
        serialize.write_json(
            p_file, serialize.vector_to_dict(np.array([1.0, 0.0, 0.5, 0.5]), 2, "state", "p")
        )
        code, _, err = run_cli(capsys, "convert", "--in", str(p_file), "--from", "r", "--to", "p")
        assert code == 2

    def test_classical_p_to_r_is_identity(self, tmp_path, capsys):
        p_file = tmp_path / "p.json"
        serialize.write_json(
            p_file, serialize.vector_to_dict(np.array([0.25, 0.75]), 2, "state", "p")
        )
        code, out, _ = run_cli(
            capsys, "convert", "--in", str(p_file), "--from", "p", "--to", "r",
            "--theory", "classical",
        )
        assert code == 0
        assert json.loads(out)["values"] == [0.25, 0.75]


class TestBloch:
    def test_sphere_point(self, capsys):
        code, out, _ = run_cli(capsys, "bloch", "--a", "0.5", "--b", "0.5", "--c", "0.5")
        assert code == 0
        payload = json.loads(out)
        assert payload["classification"] == "ellipsoid"
        assert payload["c_minus"] == pytest.approx(0.0)
        assert payload["c_plus"] == pytest.approx(1.0)

    def test_projector_recovery(self, capsys):
        code, out, _ = run_cli(
            capsys, "bloch", "--a", "0.5", "--b", "0.5", "--c", "0.5", "--projectors"
        )
        assert code == 0
        payload = json.loads(out)
        projectors = serialize.complex_from_json(payload["projectors"])
        assert_allclose(projectors[3], [[0.5, -0.5j], [0.5j, 0.5]], atol=1e-12)

    def test_boundary_projectors_are_an_input_error(self, capsys):
        code, _, err = run_cli(
            capsys, "bloch", "--a", "0.5", "--b", "0.5", "--c", "1.0", "--projectors"
        )
        assert code == 2
        assert "error" in err


class TestTransform:
    def test_unitary_passes_checks(self, tmp_path, capsys):
        u_file = tmp_path / "x.op.json"
        x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        serialize.write_json(u_file, serialize.operator_to_dict(x))
        code, out, _ = run_cli(capsys, "transform", "--unitary", str(u_file))
        assert code == 0
        payload = json.loads(out)
        assert payload["completely_positive"] is True
        assert payload["trace_preserving"] is True
        assert payload["reversible"] is True

    def test_trace_increasing_kraus_fails(self, tmp_path, capsys):
        k_file = tmp_path / "big.kraus.json"
        serialize.write_json(
            k_file, serialize.kraus_to_dict(np.sqrt(2.0) * np.eye(2, dtype=complex)[np.newaxis])
        )
        code, out, _ = run_cli(capsys, "transform", "--kraus", str(k_file))
        assert code == 1
        assert json.loads(out)["trace_nonincreasing"] is False

    def test_projection_kraus_passes_but_is_irreversible(self, tmp_path, capsys):
        k_file = tmp_path / "proj.kraus.json"
        proj = np.diag([1.0, 0.0]).astype(complex)[np.newaxis]
        serialize.write_json(k_file, serialize.kraus_to_dict(proj))
        code, out, _ = run_cli(capsys, "transform", "--kraus", str(k_file))
        assert code == 0
        payload = json.loads(out)
        assert payload["reversible"] is False


class TestComposite:
    def test_bell_state(self, tmp_path, capsys):
        bell = np.zeros((4, 4), dtype=complex)
        for i in (0, 3):
            for j in (0, 3):
                bell[i, j] = 0.5
        rho_file = tmp_path / "bell.op.json"
        serialize.write_json(rho_file, serialize.operator_to_dict(bell))
        code, out, _ = run_cli(
            capsys, "composite", "--rho", str(rho_file), "--na", "2", "--nb", "2"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["dof_rank"] == 16
        assert payload["joint_normalization"] == pytest.approx(1.0)
        assert payload["transform_law_deviation"] <= 1e-10
        assert payload["p_tilde"]["rows"][0][0] == pytest.approx(0.5)


@pytest.mark.parametrize(
    "argv",
    [["verify", "--theory", "quantum", "--n", "2", flag, "0"]
     for flag in ("--trials", "--pairs", "--steps")]
    + [["composite", "--rho", "bell.op.json", "--na", "2", "--nb", "2", "--law-samples", "0"]],
    ids=["trials", "pairs", "steps", "law-samples"],
)
def test_sample_budget_flags_are_gone(capsys, argv):
    """A sample budget is a constant, so its old flag is an unknown argument."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--theory", "quantum", "--n", "2"],
        ["composite", "--rho", "rho.op.json", "--na", "2", "--nb", "2"],
        ["simulate", "--config", "e.cfg"],
        ["report", "--config", "r.cfg", "--out-dir", "out"],
    ],
    ids=lambda argv: argv[0],
)
def test_negative_seed_flag_is_usage_error(tmp_path, capsys, monkeypatch, argv):
    """numpy seeds only with non-negative integers."""
    (tmp_path / "e.cfg").write_text("[experiment]\nn = 2\n")
    (tmp_path / "r.cfg").write_text("[frame f]\nn = 2\n")
    serialize.write_json(tmp_path / "rho.op.json", serialize.operator_to_dict(np.eye(4) / 4))
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv, "--seed", "-1")
    assert (code, out, err) == (2, "", "error: seed = -1 is negative\n")
    assert not (tmp_path / "out" / "report.json").exists()


class TestVerify:
    def test_classical_verify_passes(self, capsys, budget):
        budget(FREQUENCY_TRIALS=2, CONTINUITY_STEPS=20)
        code, out, _ = run_cli(capsys, "verify", "--theory", "classical", "--n", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True

    def test_quantum_verify_passes(self, capsys, budget):
        budget(FREQUENCY_TRIALS=2, CONTINUITY_STEPS=20, CONTINUITY_PAIRS=2)
        code, out, _ = run_cli(capsys, "verify", "--theory", "quantum", "--n", "2")
        assert code == 0
        assert json.loads(out)["passed"] is True


SIM_CONFIG = """
[experiment]
theory = quantum
n = 2
preparation = mix:0.25
partition = basis
shots = 100000
"""


class TestSimulate:
    def test_seeded_run_is_reproducible(self, tmp_path, capsys):
        config = tmp_path / "exp.cfg"
        config.write_text(SIM_CONFIG)
        code, out_a, _ = run_cli(capsys, "simulate", "--config", str(config), "--seed", "42")
        assert code == 0
        code, out_b, _ = run_cli(capsys, "simulate", "--config", str(config), "--seed", "42")
        assert out_a == out_b
        payload = json.loads(out_a)
        assert payload["shots"] == 100_000
        assert abs(payload["counts"][1] / 100_000 - 0.25) < 0.005

    def test_missing_config_is_usage_error(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "simulate", "--config", str(tmp_path / "nope.cfg"), "--seed", "1")
        assert code == 2

    @pytest.mark.parametrize(
        "fields, message",
        [
            ("n = 2\nshots = abc", "shots = 'abc' is not an integer"),
            ("n = 1\npreparation = mix:0.5", "needs two basis states"),
            ("n = 2\npreparation = basis:x", "basis = 'x' is not an integer"),
            ("n = 2\npreparation = mix:x", "mix = 'x' is not a number"),
        ],
    )
    def test_malformed_experiment_is_usage_error(self, tmp_path, capsys, fields, message):
        config = tmp_path / "exp.cfg"
        config.write_text(f"[experiment]\ntheory = quantum\n{fields}\n")
        code, _, err = run_cli(capsys, "simulate", "--config", str(config), "--seed", "1")
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err


class TestReport:
    def test_report_command(self, tmp_path, capsys):
        config = tmp_path / "r.cfg"
        config.write_text("[bloch s]\na = 0.5\nb = 0.5\nc = 0.5\n")
        code, _, _ = run_cli(
            capsys, "report", "--config", str(config), "--out-dir", str(tmp_path / "out")
        )
        assert code == 0
        assert (tmp_path / "out" / "report.json").exists()
        assert (tmp_path / "out" / "report.csv").exists()

    @pytest.mark.parametrize(
        "name, text",
        [
            ("r.cfg", "[report]\nseed = x\n"),
            ("r.json", '{"seed": "x", "pipelines": []}'),
            ("r.json", '{"seed": 2.5, "pipelines": []}'),
            ("r.cfg", "[report]\nseed = -1\n"),
            ("r.json", '{"seed": -1, "pipelines": []}'),
        ],
    )
    def test_malformed_root_seed_is_usage_error(self, tmp_path, capsys, name, text):
        config = tmp_path / name
        config.write_text(text)
        code, _, err = run_cli(
            capsys, "report", "--config", str(config), "--out-dir", str(tmp_path / "out")
        )
        assert code == 2
        assert err.startswith("error: seed = ") and err.count("\n") == 1
