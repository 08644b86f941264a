"""Each `gpt <kind>` subcommand prints exactly the details that a
`[<kind> x]` section with the same keys and seed gives in `gpt report`, and
exits 0 exactly when that section passes."""

import json

import pytest

from gptkit import serialize
from gptkit.cli import main
from conftest import haar_unitary, random_density, random_trace_preserving_kraus

SEED = "31"
EXPERIMENT = """\
theory = quantum
n = 3
preparation = maximally-mixed
partition = basis
transform = unitary:u.op.json
shots = 5000
"""
COMMANDS = [
    ["transform", "--unitary", "u.op.json"],
    ["transform", "--kraus", "m.kraus.json"],
    ["bloch", "--a", "0.5", "--b", "0.4", "--c", "0.3", "--projectors"],
    ["composite", "--rho", "rho.op.json", "--na", "2", "--nb", "3", "--seed", SEED],
    ["verify", "--theory", "quantum", "--n", "2", "--seed", SEED],
    ["simulate", "--config", "exp.cfg", "--seed", SEED],
]


def section(argv: list[str]) -> str:
    """The report section of a command line: one key per flag, with
    `simulate` taking its experiment keys from the config file instead."""
    if argv[0] == "simulate":
        return f"[simulate x]\n{EXPERIMENT}seed = {SEED}\n"
    lines = [f"[{argv[0]} x]"]
    for flag, value in zip(argv[1:], argv[2:] + ["--"]):
        if flag.startswith("--"):
            lines.append(f"{flag[2:].replace('-', '_')} = {'yes' if value.startswith('--') else value}")
    return "\n".join(lines) + "\n"


@pytest.fixture
def workdir(tmp_path, monkeypatch, rng):
    serialize.write_json(tmp_path / "u.op.json", serialize.operator_to_dict(haar_unitary(rng, 3)))
    kraus = 0.9 * random_trace_preserving_kraus(rng, 3, terms=2)
    serialize.write_json(tmp_path / "m.kraus.json", serialize.kraus_to_dict(kraus))
    serialize.write_json(tmp_path / "rho.op.json", serialize.operator_to_dict(random_density(rng, 6)))
    (tmp_path / "exp.cfg").write_text(f"[experiment]\n{EXPERIMENT}seed = 999\n")
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: "-".join(argv[:2]))
def test_subcommand_prints_its_report_section(argv, workdir, capsys, budget):
    budget(COMPOSITE_LAW_SAMPLES=3, FREQUENCY_TRIALS=2, CONTINUITY_PAIRS=2, CONTINUITY_STEPS=20)
    code = main(argv)
    printed = json.loads(capsys.readouterr().out)
    (workdir / "r.cfg").write_text(f"[report]\nseed = 5\n\n{section(argv)}")
    report_code = main(["report", "--config", "r.cfg", "--out-dir", "out"])
    pipeline = json.loads((workdir / "out" / "report.json").read_text())["pipelines"][0]

    assert pipeline["status"] in ("pass", "fail")
    assert printed == pipeline["details"]
    assert code == report_code == (0 if pipeline["status"] == "pass" else 1)
