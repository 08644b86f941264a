"""Command-line interface.

Exit codes: 0 on success, 1 when a requested check fails, 2 for usage or
input errors. Reports are JSON; matrix/count tables can be written as CSV
by giving an output path ending in ``.csv``.

The bloch, transform, composite, verify and simulate subcommands are thin
wrappers: their flags become the parameters of the harness pipeline that a
``gpt report`` section of the same kind runs, and they print its details.
"""

from __future__ import annotations

import argparse
import csv
import sys
from functools import cache
from pathlib import Path
from typing import Callable, NoReturn

import numpy as np

from . import serialize
from .bloch import build_general_d
from .errors import GptError
from .frames import build_canonical_frame, has_operator_form
from .harness import OK_STATUSES, PIPELINES, load_experiment, run_report
from .states import THEORY_UNITS, r_from_p, theory_by_name


def _emit(payload: dict, out: str | None, rows: list[list] | None = None) -> None:
    """Print ``payload``, or write it to ``out``: as the CSV ``rows`` when
    they are given and ``out`` ends in .csv, otherwise as JSON."""
    if out is None:
        sys.stdout.write(serialize.dumps(payload))
    elif rows is not None and out.endswith(".csv"):
        with open(out, "w", newline="") as handle:
            csv.writer(handle).writerows(rows)
    else:
        serialize.write_json(out, payload)


def _cmd_frame(args: argparse.Namespace) -> int:
    frame = build_canonical_frame(args.n)
    _emit(serialize.frame_to_dict(frame), args.out)
    return 0


def _cmd_dmatrix(args: argparse.Namespace) -> int:
    d = build_general_d(args.n)
    _emit(serialize.dmatrix_to_dict(d, args.n), args.out, [list(row) for row in d])
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    if not has_operator_form(THEORY_UNITS[args.theory]) and "rho" in (args.src, args.dst):
        raise GptError(f"{args.theory} theory has no operator representation")
    kind, n, values = serialize.state_from_dict(serialize.read_json(args.infile))
    if kind != args.src:
        raise GptError(f"file holds a {kind!r} state but --from says {args.src!r}")
    theory = theory_by_name(args.theory, n)
    if kind != "rho" and values.shape[0] != theory.k:
        raise GptError(f"vector length {values.shape[0]} does not match K = {theory.k}")
    # r_from_p is the one conversion that solves against D
    r = r_from_p(values, theory.d) if kind == "p" else theory.r_of(values) if kind == "rho" else values
    result = (theory.operator_of(r) if args.dst == "rho" else r if args.dst == "r"
              else values if kind == "p" else theory.d @ r)
    if not np.isfinite(result).all():  # finite input entries near the float limit overflow
        raise GptError(f"the {args.dst} of this state overflows to a non-finite entry")
    _emit(serialize.operator_to_dict(result) if args.dst == "rho"
          else serialize.vector_to_dict(result, n, "state", args.dst), args.out)
    return 0


def _run(kind: str, args: argparse.Namespace, params: dict, base: Path = Path(),
         rows: Callable[[dict], list[list]] | None = None) -> int:
    """Run the harness pipeline ``kind`` and emit its details (CSV ``rows(details)``
    when given); exit code 0 for a passing status, 1 otherwise."""
    outcome = PIPELINES[kind](params, serialize._seed(vars(args), default=0), base, base)
    details = outcome["details"]
    _emit(details, args.out, rows(details) if rows else None)
    return 0 if outcome["status"] in OK_STATUSES else 1


def _cmd_pipeline(args: argparse.Namespace) -> int:
    """Run the pipeline named by the subcommand; each set flag but --out and
    --seed is the section key of the same name."""
    params = {name: value for name, value in vars(args).items()
              if value is not None and name not in ("command", "func", "out", "seed")}
    return _run(args.command, args, params)


def _cmd_simulate(args: argparse.Namespace) -> int:
    # --seed and --out take the place of the config's own seed and out keys
    params = {k: v for k, v in load_experiment(args.config).items() if k not in ("seed", "out")}
    return _run("simulate", args, params, Path(args.config).parent,
                lambda counts: [["outcome", "count"]] + list(enumerate(counts["counts"])))


def _cmd_report(args: argparse.Namespace) -> int:
    code, _ = run_report(args.config, args.out_dir, seed=args.seed)
    return code


class _Parser(argparse.ArgumentParser):
    """An argument parser, and through ``add_subparsers`` each subcommand's,
    whose usage errors are one ``error:`` line on stderr and exit code 2."""

    def error(self, message: str) -> NoReturn:
        self.exit(2, f"error: {self.prog}: {' '.join(message.splitlines())}\n")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The ``gpt`` parser, built on first call and reused by every ``main``
    call in the process: ``parse_args`` returns a fresh namespace each time,
    and the handlers it names look up the module globals when they run."""
    parser = _Parser(
        prog="gpt",
        description="Fiducial frames, D matrices, and axiom checks for "
        "finite-dimensional probabilistic theories.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func: Callable, help: str, out: str | None = None):
        """A subcommand with the --out option that every one but report has."""
        cmd = sub.add_parser(name, help=help)
        cmd.add_argument("--out", default=None, help=out)
        cmd.set_defaults(func=func)
        return cmd

    csv_out = "write JSON, or CSV if the path ends in .csv"
    p_frame = command("frame", _cmd_frame, "build the canonical projector frame")
    p_frame.add_argument("--n", type=int, required=True)

    p_dmat = command("dmatrix", _cmd_dmatrix, "Gram matrix of the canonical frame", csv_out)
    p_dmat.add_argument("--n", type=int, required=True)

    p_conv = command("convert", _cmd_convert, "convert between rho, p and r representations")
    p_conv.add_argument("--in", dest="infile", required=True)
    p_conv.add_argument("--from", dest="src", choices=["rho", "p", "r"], required=True)
    p_conv.add_argument("--to", dest="dst", choices=["rho", "p", "r"], required=True)
    p_conv.add_argument("--theory", choices=list(THEORY_UNITS), default="quantum")

    p_bloch = command("bloch", _cmd_pipeline, "classify the N=2 D-matrix family at (a, b, c)")
    p_bloch.add_argument("--a", type=float, required=True)
    p_bloch.add_argument("--b", type=float, required=True)
    p_bloch.add_argument("--c", type=float, required=True)
    p_bloch.add_argument("--projectors", action="store_true", help="recover projectors as JSON")

    p_tr = command("transform", _cmd_pipeline, "convert an operator map to Z and run checks")
    group = p_tr.add_mutually_exclusive_group(required=True)
    group.add_argument("--kraus", default=None)
    group.add_argument("--unitary", default=None)

    p_comp = command("composite", _cmd_pipeline, "joint fiducial probabilities of a bipartite state")
    p_comp.add_argument("--rho", required=True)
    p_comp.add_argument("--na", type=int, required=True)
    p_comp.add_argument("--nb", type=int, required=True)
    p_comp.add_argument("--seed", type=int, default=0)

    p_ver = command("verify", _cmd_pipeline, "run the axiom suite against a theory instance")
    p_ver.add_argument("--theory", choices=list(THEORY_UNITS), required=True)
    p_ver.add_argument("--n", type=int, required=True)
    p_ver.add_argument("--seed", type=int, default=0)

    p_sim = command("simulate", _cmd_simulate, "sample an experiment described by a config file", csv_out)
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--seed", type=int, required=True)

    p_rep = sub.add_parser("report", help="run the pipelines in a config file and write reports")
    p_rep.add_argument("--config", required=True)
    p_rep.add_argument("--out-dir", required=True)
    p_rep.add_argument("--seed", type=int, default=None)
    p_rep.set_defaults(func=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # an overflow is refused as an input error where it matters, not warned about on stderr
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.func(args)
    except GptError as exc:
        message = str(exc)
    except OSError as exc:  # a file that cannot be read or written: name it
        message = f"{exc.filename}: {exc.strerror}" if exc.filename is not None else str(exc)
    print(f"error: {message}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
