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
from pathlib import Path
from typing import Callable

from . import serialize
from .errors import GptError
from .frames import build_canonical_frame, gram_matrix
from .harness import OK_STATUSES, PIPELINES, load_experiment, run_report
from .states import density_from_r, p_from_density, quantum_theory, r_from_p, theory_by_name


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
    d = gram_matrix(build_canonical_frame(args.n))
    _emit(serialize.dmatrix_to_dict(d, args.n), args.out, [list(row) for row in d])
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    payload = serialize.read_json(args.infile)
    if args.src == "rho":
        rho = serialize.operator_from_dict(payload)
        theory = quantum_theory(rho.shape[0])
        p = p_from_density(rho, theory.frame)
    else:
        values, n, _, kind = serialize.vector_from_dict(payload)
        if kind != args.src:
            raise GptError(f"file holds a {kind!r} vector but --from says {args.src!r}")
        if n > values.shape[0]:  # K >= N in every theory; refuse before building one
            raise GptError(f"vector header says dimension {n} but k = {values.shape[0]}")
        theory = theory_by_name(args.theory, n)
        if values.shape[0] != theory.k:
            raise GptError(f"vector length {values.shape[0]} does not match K = {theory.k}")
        p = theory.d @ values if args.src == "r" else values
    r = values if args.src == "r" else r_from_p(p, theory.d)

    if args.dst == "rho":
        if theory.frame is None:
            raise GptError("classical theory has no operator representation")
        _emit(serialize.operator_to_dict(density_from_r(r, theory.frame)), args.out)
    else:
        vector = p if args.dst == "p" else r
        _emit(serialize.vector_to_dict(vector, theory.dimension, "state", args.dst), args.out)
    return 0


def _params(args: argparse.Namespace, *names: str) -> dict:
    """The given flags as pipeline parameters, leaving out unset ones."""
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def _run(kind: str, args: argparse.Namespace, params: dict, base: Path = Path(),
         rows: Callable[[dict], list[list]] | None = None) -> int:
    """Run the harness pipeline ``kind`` and emit its details (CSV ``rows(details)``
    when given); exit code 0 for a passing status, 1 otherwise."""
    outcome = PIPELINES[kind](params, serialize._seed(vars(args), default=0), base, base)
    details = outcome["details"]
    _emit(details, args.out, rows(details) if rows else None)
    return 0 if outcome["status"] in OK_STATUSES else 1


def _cmd_bloch(args: argparse.Namespace) -> int:
    return _run("bloch", args, _params(args, "a", "b", "c", "projectors"))


def _cmd_transform(args: argparse.Namespace) -> int:
    return _run("transform", args, _params(args, "unitary", "kraus"))


def _cmd_composite(args: argparse.Namespace) -> int:
    return _run("composite", args, _params(args, "rho", "na", "nb"))


def _cmd_verify(args: argparse.Namespace) -> int:
    return _run("verify", args, _params(args, "theory", "n"))


def _cmd_simulate(args: argparse.Namespace) -> int:
    # --seed and --out take the place of the config's own seed and out keys
    params = {k: v for k, v in load_experiment(args.config).items() if k not in ("seed", "out")}
    return _run("simulate", args, params, Path(args.config).parent,
                lambda counts: [["outcome", "count"]] + list(enumerate(counts["counts"])))


def _cmd_report(args: argparse.Namespace) -> int:
    code, _ = run_report(args.config, args.out_dir, seed=args.seed)
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    p_conv.add_argument("--theory", choices=["quantum", "classical"], default="quantum")

    p_bloch = command("bloch", _cmd_bloch, "classify the N=2 D-matrix family at (a, b, c)")
    p_bloch.add_argument("--a", type=float, required=True)
    p_bloch.add_argument("--b", type=float, required=True)
    p_bloch.add_argument("--c", type=float, required=True)
    p_bloch.add_argument("--projectors", action="store_true", help="recover projectors as JSON")

    p_tr = command("transform", _cmd_transform, "convert an operator map to Z and run checks")
    group = p_tr.add_mutually_exclusive_group(required=True)
    group.add_argument("--kraus", default=None)
    group.add_argument("--unitary", default=None)

    p_comp = command("composite", _cmd_composite, "joint fiducial probabilities of a bipartite state")
    p_comp.add_argument("--rho", required=True)
    p_comp.add_argument("--na", type=int, required=True)
    p_comp.add_argument("--nb", type=int, required=True)
    p_comp.add_argument("--seed", type=int, default=0)

    p_ver = command("verify", _cmd_verify, "run the axiom suite against a theory instance")
    p_ver.add_argument("--theory", choices=["quantum", "classical"], required=True)
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
        return args.func(args)
    except GptError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc!r}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
