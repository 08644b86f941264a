"""Fuzz the input boundary of ``gpt``: whatever a file or config holds, the
CLI returns 0, 1 or 2 without raising, and an exit code of 2 comes with
exactly one ``error:`` line on stderr. A report run that exits 0 or 1 leaves
a ``report.json`` that parses, and it exits 1 exactly when a section in that
file failed or errored.

Every other integer the strategies can produce is at most 6, but the
``shots`` key and the dimension keys ``n``, ``na`` and ``nb`` may also draw
``HUGE_INTEGERS``. Sampling draws the counts in O(outcomes), so 10^13 shots
cost no more than ten, and 10^23 is past the 2**63 - 1 shots that numpy can
draw. A dimension of 10^13 or 10^23 is past ``frames.MAX_FRAME_ENTRIES``,
which the frame build checks before it allocates anything, so it errors at
once. The report configs run under the tests' small continuity and
composite-law budgets.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gptkit.cli import main
from conftest import SMALL_BUDGET, set_budget

FILE_KEYS = ["dimension", "k", "role", "kind", "values", "matrix", "kraus", "vectors"]

numbers = st.one_of(st.floats(min_value=-2.0, max_value=6.0), st.sampled_from([math.nan, math.inf]))
json_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-2, max_value=6),
    numbers,
    st.sampled_from(["", "p", "r", "state", "x", "2"]),
)
json_values = st.recursive(
    json_leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=6),
        st.dictionaries(st.sampled_from(FILE_KEYS), inner, max_size=4),
    ),
    max_leaves=24,
)
theories = st.sampled_from(["quantum", "classical"])


def _mostly(right, *wrong):
    """A strategy that draws ``right`` three times in four."""
    return st.sampled_from([right, right, right, *wrong])


@st.composite
def _drop_a_key(draw, payload):
    if draw(st.integers(min_value=0, max_value=3)) == 0:
        del payload[draw(st.sampled_from(sorted(payload)))]
    return payload


@st.composite
def vector_cases(draw):
    """A vector file with its ``--from`` and ``--theory``, each header field
    mostly consistent with the values and the theory."""
    theory, src = draw(theories), draw(st.sampled_from(["p", "r"]))
    n = draw(st.integers(min_value=0, max_value=4))
    k = draw(_mostly(n * n if theory == "quantum" else n, n + 1))
    payload = {
        "dimension": draw(_mostly(n, n + 1, n - 1)),
        "k": draw(_mostly(k, k - 1)),
        "role": "state",
        "kind": draw(_mostly(src, "x")),
        "values": draw(st.lists(numbers, min_size=k, max_size=k)),
    }
    return draw(_drop_a_key(payload)), src, theory


@st.composite
def operator_cases(draw):
    """An operator file, Hermitian or not, whose dimension may be off by one."""
    n = draw(st.integers(min_value=1, max_value=4))
    re, im = (np.array(draw(st.lists(numbers, min_size=n * n, max_size=n * n))).reshape(n, n)
              for _ in range(2))
    if draw(st.booleans()):
        with np.errstate(invalid="ignore"):  # inf - inf
            re, im = (re + re.T) / 2.0, (im - im.T) / 2.0
    payload = {"dimension": draw(_mostly(n, n + 1)), "matrix": np.stack([re, im], axis=-1).tolist()}
    return draw(_drop_a_key(payload)), "rho", draw(theories)


convert_cases = st.one_of(
    st.tuples(
        st.one_of(json_values, st.dictionaries(st.sampled_from(FILE_KEYS), json_values, max_size=6)),
        st.sampled_from(["rho", "p", "r"]),
        theories,
    ),
    vector_cases(),
    operator_cases(),
)

SECTION_KINDS = [
    "frame", "verify", "bloch", "transform", "composite", "simulate", "report", "bogus",
]
SECTION_KEYS = [
    "n", "theory", "a", "b", "c", "projectors", "shots", "preparation", "partition",
    "transform", "rho", "na", "nb", "unitary", "kraus", "seed", "out", "dmat_out",
    "law_samples", "trials", "pairs", "steps",  # sample budgets are constants: ignored keys
]
SECTION_WORDS = [
    "0", "1", "2", "3", "6", "-1", "0.5", "1.5", "x", "", "yes", "quantum", "classical",
    "basis", "identity", "null", "maximally-mixed", "mix:0.5", "basis:2", "file:v.json",
    "file:rho.json", "file:bad.json", "file:part.json", "file:missing.json", "unitary:u.json",
    "kraus:k.json", "none", "u.json", "k.json", "rho.json", "bad.json", "list.json", "out.json",
]
HUGE_INTEGERS = ["10000000000000", "100000000000000000000000"]  # 10^13 and 10^23
HUGE_KEYS = {"shots", "n", "na", "nb"}
section_values = st.one_of(
    st.sampled_from(SECTION_WORDS),
    json_leaves,
    st.lists(json_leaves, max_size=2),
)
huge_values = st.one_of(section_values, st.sampled_from(HUGE_INTEGERS))


@st.composite
def section_params(draw):
    """Up to five keys of one section; the ``HUGE_KEYS`` may draw a huge integer."""
    keys = draw(st.lists(st.sampled_from(SECTION_KEYS), max_size=5, unique=True))
    return {key: draw(huge_values if key in HUGE_KEYS else section_values) for key in keys}


sections = st.lists(
    st.tuples(st.sampled_from(SECTION_KINDS), st.sampled_from(["", "s1", "s2"]), section_params()),
    max_size=3,
)


def _inputs(base: Path) -> None:
    """The files a fuzzed section may name, all of dimension 2."""
    def op(matrix):
        matrix = np.asarray(matrix, dtype=complex)
        return np.stack([matrix.real, matrix.imag], axis=-1).tolist()

    files = {
        "v.json": {"dimension": 2, "k": 4, "role": "state", "kind": "p", "values": [1, 0, 0.5, 0.5]},
        "rho.json": {"dimension": 2, "matrix": op(np.eye(2) / 2)},
        "u.json": {"dimension": 2, "matrix": op([[0, 1], [1, 0]])},
        "k.json": {"dimension": 2, "kraus": op([np.diag([1, 0]), np.diag([0, 1])])},
        "part.json": {"vectors": [[1, 0, 0, 0], [0, 1, 0, 0]]},
        "list.json": [1, 2],
    }
    for name, payload in files.items():
        (base / name).write_text(json.dumps(payload))
    (base / "bad.json").write_text("{not json")


def _render(config: list, as_json: bool) -> str:
    if as_json:
        pipelines = [{"kind": kind, **({"name": name} if name else {}), **params}
                     for kind, name, params in config]
        return json.dumps({"pipelines": pipelines})
    lines = []
    for kind, name, params in config:
        lines.append(f"[{kind} {name}]" if name else f"[{kind}]")
        lines += [f"{key} = {value}" for key, value in params.items()]
    return "\n".join(lines) + "\n"


def _run(argv: list[str]) -> int:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    lines = err.getvalue().splitlines()
    if code == 2:
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
    else:
        assert not lines, lines
    return code


@settings(max_examples=150, deadline=None)
@given(convert_cases, st.sampled_from(["rho", "p", "r"]))
def test_convert_any_json_file(case, dst):
    payload, src, theory = case
    with tempfile.TemporaryDirectory() as tmp:
        infile = Path(tmp) / "in.json"
        infile.write_text(json.dumps(payload))
        _run(["convert", "--in", str(infile), "--from", src, "--to", dst, "--theory", theory])


@settings(max_examples=60, deadline=None)
@given(sections, st.booleans(), st.sampled_from([None, "0", "5"]))
def test_report_any_config(config, as_json, seed):
    # Hypothesis does not reset function-scoped fixtures between examples, so patch per example
    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as tmp:
        set_budget(mp, **SMALL_BUDGET)
        base = Path(tmp)
        _inputs(base)
        path = base / ("r.json" if as_json else "r.cfg")
        path.write_text(_render(config, as_json))
        argv = ["report", "--config", str(path), "--out-dir", str(base / "out")]
        code = _run(argv + (["--seed", seed] if seed else []))
        if code != 2:
            report = json.loads((base / "out" / "report.json").read_text())
            statuses = {section["status"] for section in report["pipelines"]}
            assert (code == 1) == bool(statuses & {"fail", "error"}), statuses
