import dataclasses
import json
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import gptkit.bloch
import gptkit.cli
import gptkit.harness
import gptkit.states
from gptkit import build_canonical_frame, serialize
from gptkit.cli import build_parser, main
from conftest import random_density, random_trace_preserving_kraus


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


def test_one_parser_serves_every_call_in_a_process(capsys):
    """The parser is built once per process; after a usage error, each later
    call prints and returns what a fresh process would."""
    src = Path(__file__).resolve().parents[1] / "src"
    for argv in (["verify", "--theory", "quantum", "--n", "x"], ["dmatrix", "--n", "2"],
                 ["verify", "--theory", "classical", "--n", "2"]):
        code = f"import sys; sys.path.insert(0, {str(src)!r}); from gptkit.cli import main; sys.exit(main({argv!r}))"
        fresh = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        try:
            status = main(argv)
        except SystemExit as exc:
            status = exc.code
        captured = capsys.readouterr()
        assert (status, captured.out, captured.err) == (fresh.returncode, fresh.stdout, fresh.stderr)
    assert build_parser() is build_parser()


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
        (
            {
                "e.cfg": "[experiment]\nn = 2\npreparation = file:v.json\n",
                "v.json": {"dimension": 3, "k": 4, "role": "state", "kind": "p", "values": [1, 0, 0, 0]},
            },
            ["simulate", "--config", "e.cfg", "--seed", "1"],
            "preparation dimension 3 does not match n = 2",
        ),
        (
            {
                "e.cfg": "[experiment]\nn = 2\npreparation = file:v.json\n",
                "v.json": {"dimension": 7, "k": 4, "role": "state", "kind": "banana", "values": [0, 1, 0, 0]},
            },
            ["simulate", "--config", "e.cfg", "--seed", "1"],
            "vector kind 'banana' is neither 'p' nor 'r'",
        ),
        (
            {"e.json": {"n": True, "shots": True}},
            ["simulate", "--config", "e.json", "--seed", "1"],
            "n = True is not an integer",
        ),
        (
            {"v.json": {"dimension": True, "k": 1, "role": "state", "kind": "p", "values": [1.0]}},
            ["convert", "--from", "p", "--in", "v.json", "--to", "r"],
            "dimension = True is not an integer",
        ),
        (
            {"v.json": {"dimension": 2, "k": 4, "role": "state", "kind": "p", "values": [True, False, False, False]}},
            ["convert", "--from", "p", "--in", "v.json", "--to", "r"],
            "malformed numeric array: true or false entry",
        ),
        (
            {"k.json": {"dimension": 2, "kraus": [[[[1, 0], [0, 0]], [[0, 0], [True, 0]]]]}},
            ["transform", "--kraus", "k.json"],
            "malformed numeric array: true or false entry",
        ),
        (
            {
                "e.cfg": "[experiment]\nn = 2\npartition = file:part.json\n",
                "part.json": {"vectors": [[1, 0, 0, 0], [0, True, 0, 0]]},
            },
            ["simulate", "--config", "e.cfg", "--seed", "1"],
            "malformed numeric array: true or false entry",
        ),
    ],
    ids=["convert-dimension", "simulate-partition-vector", "simulate-preparation-length",
         "convert-dimension-above-k", "convert-nan-vector", "convert-infinite-operator",
         "simulate-nan-mix", "simulate-preparation-dimension", "simulate-preparation-kind",
         "simulate-boolean-numbers", "convert-boolean-dimension", "convert-boolean-vector",
         "transform-boolean-kraus", "simulate-boolean-partition"],
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


@pytest.mark.parametrize(
    "argv",
    [["convert", "--in", "nope.json", "--from", "p", "--to", "r"],
     ["report", "--config", "nope.cfg", "--out-dir", "d"]],
    ids=["convert", "report"],
)
def test_missing_input_file_is_one_line_naming_it(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {argv[2]}: ") and err.count("\n") == 1
    assert "Error(" not in err  # the reason, not the exception's repr
    assert not (tmp_path / "d").exists()


def test_os_error_without_a_file_name_prints_its_message(capsys, monkeypatch):
    def fail(path):
        raise OSError("device not ready")

    monkeypatch.setattr(serialize, "read_json", fail)
    code, _, err = run_cli(capsys, "convert", "--in", "v.json", "--from", "p", "--to", "r")
    assert (code, err) == (2, "error: device not ready\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "--theory", "quantum", "--n", "x"],
         "error: gpt verify: argument --n: invalid int value: 'x'"),
        (["frame", "--n", "2", "--bogus"], "error: gpt: unrecognized arguments: --bogus"),
        (["verify", "--n", "2"], "error: gpt verify: the following arguments are required: --theory"),
        (["verify", "--theory", "real", "--n", "2"],
         "error: gpt verify: argument --theory: invalid choice: 'real'"),
        ([], "error: gpt: the following arguments are required: command"),
        (["frame", "--n", "2", "a\nb"], "error: gpt: unrecognized arguments: a b"),
    ],
    ids=["bad-int", "unknown-flag", "missing-required-flag", "bad-theory-choice", "no-subcommand",
         "argument-with-newline"],
)
def test_usage_error_is_one_line(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(message) and captured.err.count("\n") == 1


HUGE_N = "10000000000000"  # 10^13


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--theory", "classical", "--n", HUGE_N],
        ["verify", "--theory", "quantum", "--n", HUGE_N],
        ["frame", "--n", HUGE_N],
        ["composite", "--rho", "bell.op.json", "--na", HUGE_N, "--nb", "2"],
        ["frame", "--n", "100000"],
    ],
    ids=["verify-classical", "verify-quantum", "frame", "composite-na", "frame-1e5"],
)
def test_dimension_beyond_the_frame_bound_is_usage_error(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    serialize.write_json("bell.op.json", serialize.operator_to_dict(np.eye(4, dtype=complex) / 4))
    start = time.monotonic()
    code, out, err = run_cli(capsys, *argv)
    assert time.monotonic() - start < 1.0
    assert (code, out) == (2, "")
    assert err.startswith("error: dimension ") and "MAX_FRAME_ENTRIES" in err
    assert err.count("\n") == 1


def test_classical_commands_build_no_projector_block(tmp_path, capsys, monkeypatch):
    # classical theory has no operator form, so nothing reads its projectors;
    # N = 1000 is past the N = 406 a classical projector block admits. Quantum
    # conversions and operator preparations go through Theory.r_of and
    # Theory.operator_of, so they read no projector block either. Only the
    # axiom-3 reference, in axioms, builds a frame of a subspace's size, and
    # the axiom-4 check one of dimension 2, whatever the command's dimension.
    original = gptkit.harness.build_canonical_frame

    def refuse(n, units="xy"):
        if n != 2:
            raise AssertionError("a command built the projector block")
        return original(n, units)

    monkeypatch.chdir(tmp_path)
    for module in (gptkit.cli, gptkit.harness):
        monkeypatch.setattr(module, "build_canonical_frame", refuse)
    serialize.write_json("p.json", serialize.vector_to_dict(np.full(1000, 1e-3), 1000, "state", "p"))
    code, out, _ = run_cli(capsys, "convert", "--in", "p.json", "--from", "p", "--to", "r", "--theory", "classical")
    assert code == 0 and json.loads(out)["values"] == [1e-3] * 1000
    assert run_cli(capsys, "verify", "--theory", "classical", "--n", "4")[0] == 0

    serialize.write_json("rho.json", serialize.operator_to_dict(np.diag([0.0, 1.0, 0.0]).astype(complex)))
    serialize.write_json("r.json", serialize.vector_to_dict(np.eye(9)[1], 3, "state", "r"))
    for src, dst in [("rho", "p"), ("rho", "r"), ("r", "rho"), ("r", "p")]:
        assert run_cli(capsys, "convert", "--in", f"{src}.json", "--from", src, "--to", dst)[0] == 0
    Path("e.cfg").write_text("[experiment]\nn = 3\npreparation = file:rho.json\nshots = 100\n")
    code, out, _ = run_cli(capsys, "simulate", "--config", "e.cfg", "--seed", "1")
    assert code == 0 and json.loads(out)["counts"] == [0, 0, 100, 0]


def test_help_keeps_full_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: gpt verify") and "--theory" in out and "--seed" in out


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

    @pytest.mark.parametrize("n", [1, 2, 3, 16])
    def test_every_pair_agrees_with_the_generic_routes(self, tmp_path, capsys, rng, n):
        """rho -> r is Theory.r_of, r -> p is D r, r -> rho is Theory.operator_of
        and only p -> r solves; each agrees with the routes through the
        projector block (p_from_density, density_from_r) and r_from_p."""
        theory = gptkit.states.quantum_theory(n)
        rho = random_density(rng, n)
        p = gptkit.states.p_from_density(rho, build_canonical_frame(n))
        r = gptkit.states.r_from_p(p, theory.d)
        expected = {"rho": gptkit.states.density_from_r(r, build_canonical_frame(n)), "p": p, "r": r}
        serialize.write_json(tmp_path / "rho.json", serialize.operator_to_dict(rho))
        for kind in ("p", "r"):
            serialize.write_json(tmp_path / f"{kind}.json",
                                 serialize.vector_to_dict(expected[kind], n, "state", kind))
        for src in expected:
            for dst in expected.keys() - {src}:
                code, out, _ = run_cli(capsys, "convert", "--in", str(tmp_path / f"{src}.json"),
                                       "--from", src, "--to", dst)
                assert code == 0
                payload = json.loads(out)
                got = serialize.operator_from_dict(payload) if dst == "rho" else np.array(payload["values"])
                assert np.abs(got - expected[dst]).max() <= 1e-14, (src, dst)

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


    @pytest.mark.parametrize("src, dst", [("rho", "p"), ("r", "rho")])
    def test_classical_theory_refuses_rho(self, tmp_path, capsys, src, dst):
        infile = tmp_path / "in.json"
        payload = (serialize.operator_to_dict(np.eye(2) / 2.0) if src == "rho"
                   else serialize.vector_to_dict(np.array([0.25, 0.75]), 2, "state", "r"))
        serialize.write_json(infile, payload)
        result = run_cli(capsys, "convert", "--in", str(infile), "--from", src, "--to", dst,
                         "--theory", "classical")
        assert result == (2, "", "error: classical theory has no operator representation\n")


HUGE = 1e308
HUGE_ENTRY = [HUGE, 0.0]
IN = object()  # the input file's place in argv


@pytest.mark.parametrize(
    "argv, payload",
    [
        (["convert", "--in", IN, "--from", "r", "--to", "rho"],
         {"dimension": 2, "k": 4, "role": "state", "kind": "r", "values": [HUGE, -HUGE, HUGE, HUGE]}),
        (["convert", "--in", IN, "--from", "p", "--to", "r"],
         {"dimension": 2, "k": 4, "role": "state", "kind": "p", "values": [HUGE, -HUGE, HUGE, HUGE]}),
        (["convert", "--in", IN, "--from", "rho", "--to", "r"],
         {"dimension": 2, "matrix": [[HUGE_ENTRY, HUGE_ENTRY], [HUGE_ENTRY, HUGE_ENTRY]]}),
        (["transform", "--kraus", IN],
         {"dimension": 2, "kraus": [[[[1e200, 0.0], [1e200, 0.0]], [[1e200, 0.0], [1e200, 0.0]]]]}),
    ],
)
def test_finite_input_that_overflows_is_one_error_line(tmp_path, capsys, argv, payload):
    """Finite entries near the float limit overflow in the conversion: exit
    2 with one stderr line, no NaN or Infinity written and no numpy warning
    (a RuntimeWarning is an error under pytest)."""
    infile = tmp_path / "in.json"
    infile.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, *(str(infile) if arg is IN else arg for arg in argv))
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "NaN" not in out and "Infinity" not in out


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

    @pytest.mark.parametrize("c, kind, inside", [
        ("1e-12", "degenerate", True), ("5e-11", "degenerate", True), ("0.99999999999", "degenerate", True),
        ("0", "degenerate", False), ("0.5", "ellipsoid", True), ("1", "degenerate", False),
    ])
    def test_a_degenerate_surface_fits_either_side_of_the_bounds(self, capsys, c, kind, inside):
        """Within PSD_TOL of c_- or c_+ the surface is degenerate, which is
        consistent with c lying strictly inside the bounds or on them."""
        code, out, _ = run_cli(capsys, "bloch", "--a", "0.5", "--b", "0.5", "--c", c)
        payload = json.loads(out)
        assert (code, payload["classification"], payload["inside_bounds"]) == (0, kind, inside)
        assert gptkit.harness.PIPELINES["bloch"]({"a": 0.5, "b": 0.5, "c": c}, 0, Path(), Path())["status"] == "pass"

    @pytest.mark.parametrize("c, kind", [("0.001", "ellipsoid"), ("0.5", "hyperboloid")])
    def test_a_classification_on_the_wrong_side_of_the_bounds_fails(self, capsys, monkeypatch, c, kind):
        real = gptkit.harness.classify_surface
        monkeypatch.setattr(gptkit.harness, "classify_surface",
                            lambda a: dataclasses.replace(real(a), kind=gptkit.bloch.SurfaceKind(kind)))
        code, out, _ = run_cli(capsys, "bloch", "--a", "0.3", "--b", "0.6", "--c", c)
        assert (code, json.loads(out)["classification"]) == (1, kind)

    def test_boundary_projectors_are_an_input_error(self, capsys):
        code, _, err = run_cli(
            capsys, "bloch", "--a", "0.5", "--b", "0.5", "--c", "1.0", "--projectors"
        )
        assert code == 2
        assert "error" in err


def _pairs(matrix: np.ndarray) -> list:
    return np.stack([matrix.real, matrix.imag], axis=-1).tolist()


def test_every_output_is_canonical_json_text(tmp_path, capsys, monkeypatch):
    """Each JSON file and printout is json's own indent=2, sorted-key text
    of its values, checked with json alone: the README report at two seeds
    (every file), a frame, a D matrix, Z of an n = 16 unitary and Kraus set,
    the n = 16 axiom suite and a 2 x 3 composite."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    (tmp_path / "readme.cfg").write_text(re.search(r"```ini\n(\[report\].*?)```", readme, re.S).group(1))
    rng = np.random.default_rng(3)
    unitary, _ = np.linalg.qr(rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16)))
    (tmp_path / "u.op.json").write_text(json.dumps({"dimension": 16, "matrix": _pairs(unitary)}))
    kraus = random_trace_preserving_kraus(rng, 16, 2)
    (tmp_path / "k.kraus.json").write_text(json.dumps({"dimension": 16, "kraus": _pairs(kraus)}))
    (tmp_path / "rho.op.json").write_text(json.dumps({"dimension": 6, "matrix": _pairs(random_density(rng, 6))}))
    monkeypatch.chdir(tmp_path)
    texts = []
    for seed in ("1", "12345"):
        assert main(["report", "--config", "readme.cfg", "--out-dir", f"out{seed}", "--seed", seed]) == 0
        files = sorted((tmp_path / f"out{seed}").glob("*.json"))
        assert {f.name for f in files} >= {"report.json", "frame3.frame.json", "d3.dmat.json", "counts.json"}
        texts += [f.read_text() for f in files]
    for argv in (["frame", "--n", "5"], ["dmatrix", "--n", "6"], ["transform", "--unitary", "u.op.json"],
                 ["transform", "--kraus", "k.kraus.json"], ["verify", "--theory", "quantum", "--n", "16"],
                 ["composite", "--rho", "rho.op.json", "--na", "2", "--nb", "3"]):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        texts.append(out)
    for text in texts:
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


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

    def test_n16_z_file_is_json_dumps_text(self, tmp_path, capsys):
        """A CPTP map's Z at n = 16 has dozens of entries in [1e-5, 1e-4),
        which repr writes as 1e-05 where orjson writes 0.00001; the file is
        json's text of its own values."""
        k_file = tmp_path / "cptp.kraus.json"
        ops = random_trace_preserving_kraus(np.random.default_rng(2), 16, 2)
        serialize.write_json(k_file, serialize.kraus_to_dict(ops))
        code, _, _ = run_cli(capsys, "transform", "--kraus", str(k_file), "--out", str(tmp_path / "z.json"))
        assert code == 0
        text = (tmp_path / "z.json").read_text()
        payload = json.loads(text)
        z = np.abs(payload["z"])
        assert z.shape == (256, 256) and ((z >= 1e-5) & (z < 1e-4)).sum() >= 50
        assert text == json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def test_trace_increasing_kraus_fails(self, tmp_path, capsys):
        k_file = tmp_path / "big.kraus.json"
        serialize.write_json(
            k_file, serialize.kraus_to_dict(np.sqrt(2.0) * np.eye(2, dtype=complex)[np.newaxis])
        )
        code, out, _ = run_cli(capsys, "transform", "--kraus", str(k_file))
        assert code == 1
        assert json.loads(out)["trace_nonincreasing"] is False

    def test_large_kraus_entries_stay_completely_positive(self, tmp_path, capsys):
        # a Kraus form is CP by construction; the Choi test of its superoperator
        # trips on rounding at this scale (smallest eigenvalue about -1e-9)
        rng = np.random.default_rng(0)
        ops = 1e3 * (rng.standard_normal((2, 4, 4)) + 1j * rng.standard_normal((2, 4, 4)))
        k_file = tmp_path / "large.kraus.json"
        serialize.write_json(k_file, serialize.kraus_to_dict(ops))
        code, out, _ = run_cli(capsys, "transform", "--kraus", str(k_file))
        assert code == 1
        payload = json.loads(out)
        assert payload["completely_positive"] is True
        assert payload["trace_nonincreasing"] is False

    def test_projection_kraus_passes_but_is_irreversible(self, tmp_path, capsys):
        k_file = tmp_path / "proj.kraus.json"
        proj = np.diag([1.0, 0.0]).astype(complex)[np.newaxis]
        serialize.write_json(k_file, serialize.kraus_to_dict(proj))
        code, out, _ = run_cli(capsys, "transform", "--kraus", str(k_file))
        assert code == 0
        payload = json.loads(out)
        assert payload["reversible"] is False

    @pytest.mark.parametrize("kind", ["unitary", "kraus"])
    def test_provenance_names_the_input_kind(self, tmp_path, capsys, kind):
        x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        payload = serialize.operator_to_dict(x) if kind == "unitary" else serialize.kraus_to_dict(x[np.newaxis])
        serialize.write_json(tmp_path / "map.json", payload)
        code, out, _ = run_cli(capsys, "transform", f"--{kind}", str(tmp_path / "map.json"))
        assert (code, json.loads(out)["provenance"]) == (0, f"from-{kind}")
        config = tmp_path / "r.cfg"
        config.write_text(f"[transform t]\n{kind} = map.json\n")
        code, _, _ = run_cli(capsys, "report", "--config", str(config), "--out-dir", str(tmp_path / "out"))
        [section] = json.loads((tmp_path / "out" / "report.json").read_text())["pipelines"]
        assert (code, section["details"]["provenance"]) == (0, f"from-{kind}")

    def test_overflowing_z_is_one_error_line(self, tmp_path, capsys):
        """Entries of 1e154 pass r_of's finite-input check (the Heisenberg
        images reach about 1e308), but Z's pair coefficients overflow."""
        k_file = tmp_path / "over.kraus.json"
        serialize.write_json(k_file, serialize.kraus_to_dict(1e154 * np.array([[[1.0, 1.0], [0.0, 0.0]]])))
        code, out, err = run_cli(capsys, "transform", "--kraus", str(k_file))
        assert (code, out, err) == (2, "", "error: Z contains non-finite entries\n")
        config = tmp_path / "r.cfg"
        config.write_text("[simulate s]\nn = 2\ntransform = kraus:over.kraus.json\nshots = 10\n")
        code, _, _ = run_cli(capsys, "report", "--config", str(config), "--out-dir", str(tmp_path / "out"))
        [section] = json.loads((tmp_path / "out" / "report.json").read_text())["pipelines"]
        assert (code, section["status"], section["details"]) == (1, "error", {"error": "Z contains non-finite entries"})

    def test_partial_dephasing_is_irreversible(self, tmp_path, capsys):
        # Z is invertible and its inverse maps the basis states back into the
        # state space, but the inverse map is not a channel
        k_file = tmp_path / "dephase.kraus.json"
        pauli_z = np.diag([1.0, -1.0]).astype(complex)
        serialize.write_json(k_file, serialize.kraus_to_dict(
            np.stack([np.sqrt(0.9) * np.eye(2, dtype=complex), np.sqrt(0.1) * pauli_z])))
        code, out, _ = run_cli(capsys, "transform", "--kraus", str(k_file))
        assert code == 0
        payload = json.loads(out)
        assert payload["trace_preserving"] is True
        assert payload["reversible"] is False


def test_convert_multiplies_by_d_only_for_p(tmp_path, capsys, monkeypatch, rng):
    """From rho or r, D r is formed only when --to p asks for it."""
    products = []

    class RecordingD(np.ndarray):
        def __matmul__(self, other):
            products.append(np.shape(other))
            return np.asarray(self) @ other

    theory = gptkit.states.quantum_theory(2)
    recording = dataclasses.replace(theory, d=theory.d.view(RecordingD))
    monkeypatch.setattr(gptkit.cli, "theory_by_name", lambda name, n: recording)
    rho = random_density(rng, 2)
    serialize.write_json(tmp_path / "rho.json", serialize.operator_to_dict(rho))
    serialize.write_json(tmp_path / "r.json", serialize.vector_to_dict(theory.r_of(rho), 2, "state", "r"))
    for src in ("rho", "r"):
        for dst in ("rho", "p", "r"):
            products.clear()
            code, out, _ = run_cli(capsys, "convert", "--in", str(tmp_path / f"{src}.json"), "--from", src,
                                   "--to", dst)
            assert code == 0
            assert products == ([(4,)] if dst == "p" else []), (src, dst)
            if dst == "p":
                assert_allclose(json.loads(out)["values"], theory.d @ theory.r_of(rho), rtol=0, atol=1e-15)


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

    def test_non_hermitian_state_is_usage_error(self, tmp_path, capsys):
        rho = np.eye(4, dtype=complex) / 4
        rho[0, 3] = 0.1  # no matching entry at [3, 0]
        rho_file = tmp_path / "skew.op.json"
        serialize.write_json(rho_file, serialize.operator_to_dict(rho))
        code, out, err = run_cli(capsys, "composite", "--rho", str(rho_file), "--na", "2", "--nb", "2")
        assert (code, out) == (2, "")
        assert err == "error: operator is not Hermitian\n"

    @pytest.mark.parametrize("trace", [1e4, 1e5, 1e8, 1e300])
    def test_large_trace_hermitian_state_passes(self, trace, tmp_path, capsys):
        """The rotated states of the transformation law are Hermitian only to
        rounding at the entries' scale; the Hermitian test and the law's
        tolerance are relative to it."""
        rho_file = tmp_path / "big.op.json"
        serialize.write_json(rho_file, serialize.operator_to_dict(np.eye(4) * trace / 4))
        code, out, err = run_cli(capsys, "composite", "--rho", str(rho_file), "--na", "2", "--nb", "2")
        assert (code, err) == (0, "")
        assert json.loads(out)["joint_normalization"] == pytest.approx(trace)
        section = {"kind": "composite", "rho": str(rho_file), "na": 2, "nb": 2}
        config = tmp_path / "big.json"
        config.write_text(json.dumps({"seed": 1, "pipelines": [section]}))
        assert main(["report", "--config", str(config), "--out-dir", str(tmp_path / "out")]) == 0
        (result,) = json.loads((tmp_path / "out" / "report.json").read_text())["pipelines"]
        assert result["status"] == "pass"

    def test_entries_near_the_float_limit_name_the_overflow(self, tmp_path, capsys):
        """p_tilde of 1e308 I is finite; the transformation law Z_A p_tilde Z_B^T
        is not, and that is the one error line (not a Hermitian test)."""
        rho_file = tmp_path / "huge.op.json"
        serialize.write_json(rho_file, serialize.operator_to_dict(np.diag([HUGE] * 4).astype(complex)))
        code, out, err = run_cli(capsys, "composite", "--rho", str(rho_file), "--na", "2", "--nb", "2")
        assert (code, out) == (2, "")
        assert err == ("error: the transformation law Z_A p_tilde Z_B^T of this state overflows "
                       "to a non-finite entry\n")


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
        budget(CONTINUITY_STEPS=20)
        code, out, _ = run_cli(capsys, "verify", "--theory", "classical", "--n", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True

    def test_quantum_verify_passes(self, capsys, budget):
        budget(CONTINUITY_STEPS=20, CONTINUITY_PAIRS=2)
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

    def test_shot_count_beyond_int64_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "exp.cfg"
        config.write_text("[experiment]\nn = 2\nshots = 100000000000000000000000\n")
        code, out, err = run_cli(capsys, "simulate", "--config", str(config), "--seed", "1")
        assert (code, out) == (2, "")
        assert err == "error: shot count 100000000000000000000000 exceeds 2**63 - 1\n"

    def test_ten_trillion_shots(self, tmp_path, capsys):
        # a uniform per shot would take 72.8 TiB; one multinomial draw takes none
        config = tmp_path / "exp.cfg"
        config.write_text("[experiment]\nn = 2\npreparation = mix:0.25\nshots = 10000000000000\n")
        code, out, _ = run_cli(capsys, "simulate", "--config", str(config), "--seed", "1")
        assert code == 0
        assert sum(json.loads(out)["counts"]) == 10**13


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

    def test_shot_count_beyond_int64_errors_only_its_section(self, tmp_path, capsys):
        config = tmp_path / "r.cfg"
        config.write_text("[simulate huge]\nn = 2\nshots = 100000000000000000000000\n\n"
                          "[simulate small]\nn = 2\nshots = 10\n")
        code, _, err = run_cli(
            capsys, "report", "--config", str(config), "--out-dir", str(tmp_path / "out")
        )
        assert (code, err) == (1, "")
        huge, small = json.loads((tmp_path / "out" / "report.json").read_text())["pipelines"]
        assert huge["status"] == "error"
        assert huge["details"] == {"error": "shot count 100000000000000000000000 exceeds 2**63 - 1"}
        assert small["status"] == "pass" and sum(small["details"]["counts"]) == 10

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
