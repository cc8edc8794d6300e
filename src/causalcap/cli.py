"""Command-line front end.

Subcommands:
  bound         compute capacity bounds for a named or file-defined channel
  sweep         evaluate all bounds over a (p, gamma) grid, write CSV
  verify        run the randomized verification suites
  channel-info  summarize a channel's Kraus and Choi data

Exit codes: 0 success, 1 verification failure, 2 bad arguments, 3 invalid
channel file, 4 unwritable output path. Commands raise and :func:`main` alone
maps the exception to a code: ``ChannelFormatError`` (every way a channel file
can fail to load) to 3, ``OSError`` (only writing ``--out`` raises one) to 4,
and any other ``ValueError`` (bad or conflicting arguments, including every
argument argparse rejects) to 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import bounds as bounds_mod
from . import verify as verify_mod
from .channels import (
    CHANNEL_NAMES,
    ChannelFormatError,
    QuantumChannel,
    load_channel,
    named_channel,
    tp_residual,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BAD_CHANNEL = 3
EXIT_BAD_OUTPUT = 4

# the most (p, gamma) points one sweep may have: about 0.4 GB at about 4 KB per point
MAX_SWEEP_POINTS = 100_000


def _fmt(x: float) -> str:
    """12 significant digits: stable text for diffing; round-tripping a double needs 17."""
    return format(float(x), ".12g")


def _resolve_channel(args) -> QuantumChannel:
    spec = args.channel
    params = {
        k: v for k in ("qubits", "p", "gamma", "eta", "strength")
        if (v := getattr(args, k)) is not None
    }
    named = spec.lower() in CHANNEL_NAMES  # a name wins over a file; ./name reaches the file
    if not named and (spec.endswith(".json") or os.path.sep in spec or os.path.exists(spec)):
        if params:
            flags = ", ".join(f"--{k}" for k in params)
            raise ValueError(f"{flags} cannot be combined with the channel file {spec}")
        return load_channel(spec)
    return named_channel(spec, **params)


def _report_json(rep: bounds_mod.BoundReport) -> str:
    return json.dumps(
        {
            "channel": rep.channel_label,
            "method": rep.method,
            "value": rep.value,
            "diagnostics": rep.diagnostics,
        }
    )


def cmd_bound(args) -> int:
    chan = _resolve_channel(args)
    reports = []
    if args.method in ("causality", "all"):
        reports.append(bounds_mod.causality_bound(chan))
    if args.method in ("analytic", "all"):
        if args.p is not None:
            value = bounds_mod.analytic_shifted_depol(args.p, args.gamma or 0.0)
            diag = {"p": args.p, "gamma": args.gamma or 0.0}
            reports.append(bounds_mod.BoundReport(chan.label, "analytic_shifted_depol", value, diag))
        elif args.method == "analytic":
            raise ValueError(
                "--method analytic needs a (shifted-)depolarizing channel with --p "
                "(and optionally --gamma)"
            )
    if args.method in ("hw", "all"):
        reports.append(bounds_mod.hw_bound(chan))
    if args.method in ("maxrains", "all"):
        reports.append(bounds_mod.maxrains_surrogate(chan))
    for rep in reports:
        print(_report_json(rep))
    return EXIT_OK


def write_sweep_csv(rows, path) -> None:
    names = [f.name for f in dataclasses.fields(bounds_mod.SweepRow)]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(names) + "\n")
        for r in rows:
            fh.write(",".join(_fmt(getattr(r, n)) for n in names) + "\n")


def cmd_sweep(args) -> int:
    if args.p_steps < 1 or args.gamma_steps < 1:
        raise ValueError("--p-steps and --gamma-steps must be at least 1")
    if args.p_steps * args.gamma_steps > MAX_SWEEP_POINTS:
        raise ValueError(
            f"--p-steps x --gamma-steps = {args.p_steps * args.gamma_steps} points; "
            f"at most {MAX_SWEEP_POINTS} are allowed"
        )
    for name in ("p", "gamma"):  # np.linspace warns on these; a NaN end meets the range check
        lo, hi = getattr(args, f"{name}_min"), getattr(args, f"{name}_max")
        for flag, value in (("min", lo), ("max", hi), (f"max - --{name}-min", hi - lo)):
            if math.isinf(value):
                raise ValueError(f"--{name}-{flag} = {value:g} is not finite")
    p_grid = np.linspace(args.p_min, args.p_max, args.p_steps)
    gamma_grid = np.linspace(args.gamma_min, args.gamma_max, args.gamma_steps)
    cfg = bounds_mod.OptimizerConfig(restarts=args.restarts, seed=args.seed)
    rows = bounds_mod.sweep_shifted_depol(p_grid, gamma_grid, cfg)
    write_sweep_csv(rows, args.out)
    print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    names = list(verify_mod.SUITES) if args.suite == "all" else [args.suite]
    results = verify_mod.run_suites(names, seed=args.seed, cases=args.cases)
    ok = True
    for res in results:
        status = "pass" if res.passed else "FAIL"
        print(
            f"suite {res.name:<8} {status}: {res.cases - res.failures}/{res.cases} "
            f"cases, worst margin {res.worst_margin:.3e}"
        )
        for note in res.notes:
            print(f"  {note}")
        ok = ok and res.passed
    return EXIT_OK if ok else EXIT_FAIL


def cmd_channel_info(args) -> int:
    chan = _resolve_channel(args)
    spectrum = np.linalg.eigvalsh(chan.choi)
    info = {
        "label": chan.label,
        "qubits_in": chan.qubits_in,
        "qubits_out": chan.qubits_out,
        "kraus_rank": len(chan.kraus),
        "choi_spectrum": [float(v) for v in spectrum],
        "tp_residual": tp_residual(chan.choi, chan.dim_in),
        "cp_min_eigenvalue": float(spectrum[0]),
    }
    print(json.dumps(info))
    return EXIT_OK


def _add_channel_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--channel", required=True,
        help=f"channel name ({', '.join(CHANNEL_NAMES)}) or path to a channel JSON file",
    )
    parser.add_argument("--qubits", type=int, help="qubit count (identity)")
    parser.add_argument("--p", type=float, help="depolarizing probability weight")
    parser.add_argument("--gamma", type=float, help="depolarizing shift in [0, 1]")
    parser.add_argument("--eta", type=float, help="amplitude damping strength")
    parser.add_argument("--strength", type=float, help="dephasing strength")


class _Parser(argparse.ArgumentParser):
    """Raises ``ValueError`` for a rejected argument instead of exiting (subparsers too)."""

    def error(self, message: str):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="causalcap",
        description="Capacity upper bounds for qubit channels",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bound = sub.add_parser("bound", help="compute bounds for one channel")
    _add_channel_args(p_bound)
    p_bound.add_argument(
        "--method", default="all",
        choices=["causality", "hw", "analytic", "maxrains", "all"],
    )
    p_bound.set_defaults(func=cmd_bound)

    p_sweep = sub.add_parser("sweep", help="bound sweep over a (p, gamma) grid")
    p_sweep.add_argument("--p-min", type=float, default=0.0)
    p_sweep.add_argument("--p-max", type=float, default=0.25)
    p_sweep.add_argument("--p-steps", type=int, default=26)
    p_sweep.add_argument("--gamma-min", type=float, default=0.0)
    p_sweep.add_argument("--gamma-max", type=float, default=1.0)
    p_sweep.add_argument("--gamma-steps", type=int, default=21)
    p_sweep.add_argument("--out", required=True)
    # the Holevo-Werner solver is deterministic and needs no restarts
    p_sweep.add_argument("--seed", type=int, default=0, help="accepted; no effect")
    p_sweep.add_argument("--restarts", type=int, default=32, help="accepted; no effect")
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument(
        "--suite", default="all", choices=["all", "pdm", "lemmas", "fidelity", "bounds"]
    )
    p_verify.add_argument("--cases", type=int, default=100)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.set_defaults(func=cmd_verify)

    p_info = sub.add_parser("channel-info", help="summarize one channel")
    _add_channel_args(p_info)
    p_info.set_defaults(func=cmd_channel_info)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ValueError, OSError) as exc:
        if isinstance(exc, ChannelFormatError):  # a ValueError, so tested first
            code, message = EXIT_BAD_CHANNEL, exc
        elif isinstance(exc, OSError):  # load_channel raises none; writing --out can
            code, message = EXIT_BAD_OUTPUT, f"cannot write output: {exc}"
        else:
            code, message = EXIT_USAGE, exc
        print(f"error: {message}", file=sys.stderr)
        return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
