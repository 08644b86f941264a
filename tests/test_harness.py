import dataclasses
import json

import numpy as np
import pytest

from gptkit import harness, serialize
from gptkit import (
    Experiment,
    InvalidExperimentError,
    check_subspace_axiom,
    classical_theory,
    derive_seed,
    mix,
    quantum_theory,
    run_axiom_suite,
    run_report,
    simulate,
)
from gptkit.cli import main

QT2 = quantum_theory(2)


def basis_experiment(prep, shots, seed):
    return Experiment(
        preparation=prep,
        partition=tuple(QT2.basis_r),
        r_identity=QT2.r_identity,
        shots=shots,
        seed=seed,
    )


class TestExperimentValidation:
    def test_partition_must_sum_to_identity(self):
        with pytest.raises(InvalidExperimentError):
            Experiment(
                preparation=QT2.basis_p[0],
                partition=(QT2.basis_r[0],),
                r_identity=QT2.r_identity,
                shots=10,
                seed=0,
            )

    def test_negative_branch_probability_rejected(self):
        bad_prep = np.array([-0.5, 0.2, 0.0, 0.0])
        exp = basis_experiment(bad_prep, shots=10, seed=0)
        with pytest.raises(InvalidExperimentError):
            simulate(exp)

    def test_negative_shots_rejected(self):
        with pytest.raises(InvalidExperimentError):
            basis_experiment(QT2.basis_p[0], shots=-1, seed=0)


class TestSimulate:
    def test_basis_state_always_hits_its_outcome(self):
        counts = simulate(basis_experiment(QT2.basis_p[0], shots=10_000, seed=3))
        assert counts.counts[1] == 10_000
        assert counts.counts[0] == 0

    def test_null_state_gives_all_nulls(self):
        counts = simulate(basis_experiment(np.zeros(4), shots=5_000, seed=3))
        assert counts.counts[0] == 5_000

    def test_equal_mixture_concentrates_at_half(self):
        prep = mix([QT2.basis_p[0], QT2.basis_p[1]], [0.5, 0.5])
        counts = simulate(basis_experiment(prep, shots=1_000_000, seed=11))
        freqs = counts.frequencies()
        assert abs(freqs[1] - 0.5) < 0.005
        assert abs(freqs[2] - 0.5) < 0.005

    def test_deterministic_given_seed(self):
        prep = mix([QT2.basis_p[0], QT2.basis_p[1]], [0.3, 0.7])
        a = simulate(basis_experiment(prep, shots=100_000, seed=99))
        b = simulate(basis_experiment(prep, shots=100_000, seed=99))
        assert (a.counts == b.counts).all()
        c = simulate(basis_experiment(prep, shots=100_000, seed=98))
        assert (a.counts != c.counts).any()

    def test_subnormalized_state_feeds_null_outcome(self):
        prep = 0.25 * QT2.basis_p[0]
        counts = simulate(basis_experiment(prep, shots=1_000_000, seed=5))
        assert abs(counts.frequencies()[0] - 0.75) < 0.005

    def test_coin_flip_preparation_matches_mixture(self):
        # two-stage sampling: flip, then measure the chosen preparation
        lam, shots = 0.3, 1_000_000
        rng = np.random.default_rng(derive_seed(17, 0))
        flips = rng.random(shots) < lam
        n_a = int(flips.sum())
        counts_a = simulate(basis_experiment(QT2.basis_p[0], shots=n_a, seed=derive_seed(17, 1)))
        counts_b = simulate(
            basis_experiment(QT2.basis_p[1], shots=shots - n_a, seed=derive_seed(17, 2))
        )
        two_stage = (counts_a.counts + counts_b.counts) / shots

        mixed = mix([QT2.basis_p[0], QT2.basis_p[1]], [lam, 1.0 - lam])
        direct = simulate(basis_experiment(mixed, shots=shots, seed=derive_seed(17, 3)))
        envelope = 5.0 / np.sqrt(shots)
        assert np.abs(two_stage - direct.frequencies()).max() < envelope


class TestAxiomSuite:
    @pytest.mark.parametrize("n", [2, 3])
    def test_quantum_instances_pass(self, n, budget):
        budget(FREQUENCY_TRIALS=4)
        report = run_axiom_suite("quantum", n, seed=123)
        assert report.passed
        statuses = {c.name: c.status for c in report.checks}
        assert statuses["axiom5-continuity"] == "pass"
        assert statuses["axiom2-simplicity-power-law"] == "pass"

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_larger_quantum_instances_pass(self, n, budget):
        budget(FREQUENCY_TRIALS=2, FREQUENCY_SCALES=(1000, 100_000), CONTINUITY_PAIRS=2,
               CONTINUITY_STEPS=40)
        report = run_axiom_suite("quantum", n, seed=123)
        assert report.passed

    def test_classical_instance_passes_with_expected_continuity_failure(self, budget):
        budget(FREQUENCY_TRIALS=4)
        report = run_axiom_suite("classical", 2, seed=123)
        assert report.passed
        statuses = {c.name: c.status for c in report.checks}
        assert statuses["axiom5-continuity"] == "expected-fail"
        continuity = next(c for c in report.checks if c.name == "axiom5-continuity")
        assert continuity.witnesses["midpoint_purity"] == pytest.approx(0.5)

    def test_continuity_fails_when_the_path_misses_its_endpoint(self, monkeypatch, capsys, budget):
        probe = harness.continuity_probe

        def missed_endpoint(*args, **kwargs):
            return dataclasses.replace(probe(*args, **kwargs), endpoint_deviation=0.5)

        monkeypatch.setattr(harness, "continuity_probe", missed_endpoint)
        budget(FREQUENCY_TRIALS=2, FREQUENCY_SCALES=(1000,), CONTINUITY_PAIRS=2, CONTINUITY_STEPS=20)
        report = run_axiom_suite("quantum", 3, seed=123)
        continuity = next(c for c in report.checks if c.name == "axiom5-continuity")
        assert continuity.status == "fail"
        assert continuity.max_deviation == 0.5
        assert not report.passed
        code = main(["verify", "--theory", "quantum", "--n", "3"])
        assert code == 1
        assert json.loads(capsys.readouterr().out)["passed"] is False

    def test_classical_d_off_the_identity_fails_the_subspace_check(self):
        d = np.eye(3)
        d[0, 1] = d[1, 0] = 0.1
        result = harness._subspace_check(dataclasses.replace(classical_theory(3), d=d))
        assert result.status == "fail"
        assert result.max_deviation == pytest.approx(0.1)
        assert result.witnesses["subsets"] == [[1, 2], [1, 3], [2, 3]]

    def test_classical_subspace_check_reads_check_subspace_axiom(self, monkeypatch, budget):
        def off_identity(*args, **kwargs):
            report = check_subspace_axiom(*args, **kwargs)
            return dataclasses.replace(report, violations=("forced",))

        monkeypatch.setattr(harness, "check_subspace_axiom", off_identity)
        budget(FREQUENCY_TRIALS=2, FREQUENCY_SCALES=(1000,), CONTINUITY_STEPS=20)
        report = run_axiom_suite("classical", 3, seed=123)
        subspaces = next(c for c in report.checks if c.name == "axiom3-subspaces")
        assert subspaces.status == "fail"
        assert not report.passed

    def test_report_serializes(self, budget):
        budget(FREQUENCY_TRIALS=2, FREQUENCY_SCALES=(1000, 10_000))
        report = run_axiom_suite("classical", 2, seed=5)
        payload = report.to_json()
        assert payload["passed"] is True
        assert {c["check_name"] for c in payload["checks"]} >= {
            "axiom1-frequency-convergence",
            "axiom5-continuity",
        }


class TestDeriveSeed:
    def test_deterministic_and_key_sensitive(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
        assert derive_seed(1, 2, 3) != derive_seed(1, 2, 4)
        assert derive_seed(1, 2, 3) != derive_seed(2, 2, 3)


INI_CONFIG = """
[report]
seed = 404

[frame f3]
n = 3
out = frame3.frame.json
dmat_out = d3.dmat.json

[bloch sphere]
a = 0.5
b = 0.5
c = 0.5

[verify classical2]
theory = classical
n = 2

[verify quantum3]
theory = quantum
n = 3

[simulate halfsies]
theory = quantum
n = 2
preparation = mix:0.5
partition = basis
shots = 20000
out = counts.json
"""


class TestRunReport:
    def test_ini_config_executes_and_reproduces(self, tmp_path, budget):
        budget(FREQUENCY_TRIALS=2, CONTINUITY_STEPS=20, CONTINUITY_PAIRS=2)
        config = tmp_path / "suite.cfg"
        config.write_text(INI_CONFIG)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        code_a, report_a = run_report(config, out_a)
        code_b, report_b = run_report(config, out_b)
        assert code_a == code_b == 0
        assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()
        assert (out_a / "report.csv").read_bytes() == (out_b / "report.csv").read_bytes()
        assert (out_a / "frame3.frame.json").exists()
        assert (out_a / "counts.json").exists()
        kinds = [p["kind"] for p in report_a["pipelines"]]
        assert kinds == ["frame", "bloch", "verify", "verify", "simulate"]
        quantum3 = report_a["pipelines"][3]
        assert quantum3["name"] == "quantum3"
        assert quantum3["status"] == "pass"
        assert all(
            c["status"] == "pass" for c in quantum3["details"]["checks"]
        )

    def test_classical_continuity_marked_expected_fail(self, tmp_path, budget):
        budget(FREQUENCY_TRIALS=2, CONTINUITY_STEPS=20)
        config = tmp_path / "c.cfg"
        config.write_text("[verify c]\ntheory = classical\nn = 2\n")
        code, report = run_report(config, tmp_path / "out", seed=7)
        assert code == 0
        checks = report["pipelines"][0]["details"]["checks"]
        by_name = {c["check_name"]: c["status"] for c in checks}
        assert by_name["axiom5-continuity"] == "expected-fail"

    def test_verify_budget_keys_are_ignored(self, tmp_path, budget):
        budget(FREQUENCY_TRIALS=2, FREQUENCY_SCALES=(1000,), CONTINUITY_PAIRS=2, CONTINUITY_STEPS=20)
        config = tmp_path / "v.cfg"
        config.write_text("[verify v]\nn = 2\ntrials = 0\npairs = 0\nsteps = 0\n")
        code, report = run_report(config, tmp_path / "out", seed=7)
        assert code == 0
        checks = {c["check_name"]: c for c in report["pipelines"][0]["details"]["checks"]}
        assert checks["axiom5-continuity"]["witnesses"] == {
            "pairs": harness.CONTINUITY_PAIRS, "steps": harness.CONTINUITY_STEPS
        }
        assert checks["axiom1-frequency-convergence"]["witnesses"]["trials"] == harness.FREQUENCY_TRIALS

    def test_composite_law_samples_key_is_ignored(self, tmp_path):
        bell = np.zeros((4, 4), dtype=complex)
        bell[np.ix_([0, 3], [0, 3])] = 0.5
        serialize.write_json(tmp_path / "bell.op.json", serialize.operator_to_dict(bell))
        section = "rho = bell.op.json\nna = 2\nnb = 2\nseed = 3\n"
        config = tmp_path / "c.cfg"
        config.write_text(f"[composite a]\n{section}\n[composite b]\n{section}law_samples = 0\n")
        code, report = run_report(config, tmp_path / "out")
        assert code == 0
        deviation_a, deviation_b = (p["details"]["transform_law_deviation"] for p in report["pipelines"])
        assert deviation_a == deviation_b > 0.0

    def test_empty_config_is_a_passing_report(self, tmp_path):
        config = tmp_path / "empty.cfg"
        config.write_text("")
        code, report = run_report(config, tmp_path / "out")
        assert code == 0
        assert report["pipelines"] == []

    def test_unknown_pipeline_fails_the_report(self, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("[warp w]\nspeed = 9\n")
        code, report = run_report(config, tmp_path / "out")
        assert code == 1
        assert report["pipelines"][0]["status"] == "error"

        def reject(constant):
            raise ValueError(f"{constant} is not valid JSON")

        text = (tmp_path / "out" / "report.json").read_text()
        assert json.loads(text, parse_constant=reject)["pipelines"][0]["max_deviation"] is None
        assert (tmp_path / "out" / "report.csv").read_text().splitlines()[1] == "warp,w,error,"

    def test_bad_boolean_is_a_pipeline_error(self, tmp_path):
        config = tmp_path / "b.cfg"
        config.write_text("[bloch s]\na = 0.5\nb = 0.5\nc = 0.5\nprojectors = maybe\n")
        code, report = run_report(config, tmp_path / "out")
        assert code == 1
        assert "projectors" in report["pipelines"][0]["details"]["error"]

    def test_malformed_value_errors_only_its_own_section(self, tmp_path):
        config = tmp_path / "m.cfg"
        config.write_text(
            "[frame f]\nn = 2\n\n[verify v]\nn = abc\n\n"
            "[bloch b]\nseed = x\na = 0.5\nb = 0.5\nc = 0.5\n"
        )
        code, _ = run_report(config, tmp_path / "out")
        assert code == 1
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert [p["status"] for p in report["pipelines"]] == ["pass", "error", "error"]
        assert report["pipelines"][1]["details"]["error"] == "n = 'abc' is not an integer"
        assert report["pipelines"][2]["details"]["error"] == "seed = 'x' is not an integer"

    def test_bad_input_file_or_missing_key_errors_only_its_own_section(self, tmp_path):
        (tmp_path / "bad.json").write_text("{")
        config = tmp_path / "r.cfg"
        config.write_text(
            "[frame f]\nn = 2\n\n[composite c]\nna = 2\nnb = 2\n\n"
            "[transform t]\nunitary = nope.op.json\n\n"
            "[composite d]\nrho = bad.json\nna = 1\nnb = 1\n"
        )
        code, _ = run_report(config, tmp_path / "out")
        assert code == 1
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert [p["status"] for p in report["pipelines"]] == ["pass", "error", "error", "error"]
        errors = [p["details"].get("error", "") for p in report["pipelines"]]
        assert errors[1] == "missing parameter 'rho'"
        assert errors[2].startswith("cannot read ") and "nope.op.json" in errors[2]
        assert "bad.json is not valid JSON" in errors[3]

    @pytest.mark.parametrize(
        "section, error",
        [
            ("[verify v]\ntheory = real\nn = 2\n", "unknown theory 'real'"),
            ("[frame f]\nout = f.frame.json\n", "missing parameter 'n'"),
            ("[verify v]\nn = 2\nseed = -1\n", "seed = '-1' is negative"),
            ("[simulate s]\nseed = -1\n", "seed = '-1' is negative"),
        ],
    )
    def test_bad_section_is_a_section_error(self, tmp_path, section, error):
        config = tmp_path / "r.cfg"
        config.write_text(section)
        code, report = run_report(config, tmp_path / "out")
        assert code == 1
        assert report["pipelines"][0]["status"] == "error"
        assert report["pipelines"][0]["details"]["error"] == error

    @pytest.mark.parametrize(
        "section, error",
        [
            ({"kind": "simulate", "out": None}, "out = None is not a file name"),
            ({"kind": "frame", "n": 2, "dmat_out": [1]}, "dmat_out = [1] is not a file name"),
            ({"kind": "frame", "n": 2, "out": ""}, "cannot write '': Is a directory"),
            ({"kind": "simulate", "out": "no/such/dir.json"}, "cannot write 'no/such/dir.json': "),
        ],
    )
    def test_bad_output_name_errors_only_its_own_section(self, tmp_path, section, error):
        config = tmp_path / "w.json"
        config.write_text(json.dumps({"pipelines": [section, {"kind": "frame", "n": 1}]}))
        code, _ = run_report(config, tmp_path / "out")
        assert code == 1
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert [p["status"] for p in report["pipelines"]] == ["error", "pass"]
        assert report["pipelines"][0]["details"]["error"].startswith(error)

    def test_json_config_accepted(self, tmp_path):
        config = tmp_path / "suite.json"
        config.write_text(
            '{"seed": 12, "pipelines": [{"kind": "bloch", "name": "s", "a": 0.5, "b": 0.5, "c": 0.5}]}'
        )
        code, report = run_report(config, tmp_path / "out")
        assert code == 0
        assert report["seed"] == 12
        assert report["pipelines"][0]["details"]["classification"] == "ellipsoid"

    def test_explicit_seed_overrides_config(self, tmp_path):
        config = tmp_path / "s.cfg"
        config.write_text("[report]\nseed = 1\n")
        _, report = run_report(config, tmp_path / "out", seed=2)
        assert report["seed"] == 2


class TestClassicalExperiments:
    def test_classical_basis_measurement(self):
        theory = classical_theory(3)
        exp = Experiment(
            preparation=theory.basis_p[2],
            partition=tuple(theory.basis_r),
            r_identity=theory.r_identity,
            shots=1000,
            seed=0,
        )
        counts = simulate(exp)
        assert counts.counts[3] == 1000


class TestBuildExperiment:
    def test_operator_file_preparation(self, tmp_path):
        from gptkit import serialize
        from gptkit.harness import build_experiment

        rho = np.diag([0.0, 1.0]).astype(complex)
        serialize.write_json(tmp_path / "rho.op.json", serialize.operator_to_dict(rho))
        params = {
            "theory": "quantum",
            "n": 2,
            "preparation": "file:rho.op.json",
            "partition": "basis",
            "shots": 100,
        }
        exp, _ = build_experiment(params, seed=0, base=tmp_path)
        counts = simulate(exp)
        assert counts.counts[2] == 100
