"""Command-line front end.

Subcommands:
  bound         compute capacity bounds for a named or file-defined channel
  sweep         evaluate all bounds over a (p, gamma) grid, write CSV
  verify        run the randomized verification suites
  channel-info  summarize a channel's Kraus and Choi data

Exit codes: 0 success, 1 verification failure, 2 bad arguments, 3 invalid
channel file, 4 unwritable output path.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import bounds as bounds_mod
from . import verify as verify_mod
from .channels import (
    ChannelFormatError,
    QuantumChannel,
    load_channel,
    named_channel,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BAD_CHANNEL = 3
EXIT_BAD_OUTPUT = 4

CSV_HEADER = "p,gamma,causality,analytic,hw,hw_minus_causality"


def _fmt(x: float) -> str:
    """12 significant digits, enough to round-trip doubles for diffing."""
    return format(float(x), ".12g")


def _resolve_channel(args) -> QuantumChannel:
    spec = args.channel
    if spec.endswith(".json") or os.path.sep in spec or os.path.exists(spec):
        return load_channel(spec)
    params = {}
    for key in ("qubits", "p", "gamma", "eta", "strength"):
        value = getattr(args, key, None)
        if value is not None:
            params[key] = value
    return named_channel(spec, **params)


def _report_json(rep: bounds_mod.BoundReport) -> str:
    diagnostics = {
        k: (v.tolist() if isinstance(v, np.ndarray) else v)
        for k, v in rep.diagnostics.items()
    }
    return json.dumps(
        {
            "channel": rep.channel_label,
            "method": rep.method,
            "value": rep.value,
            "diagnostics": diagnostics,
        }
    )


def cmd_bound(args) -> int:
    try:
        chan = _resolve_channel(args)
    except (ChannelFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CHANNEL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    cfg = bounds_mod.OptimizerConfig(restarts=args.restarts, seed=args.seed)
    reports = []
    try:
        if args.method in ("causality", "all"):
            reports.append(bounds_mod.causality_bound(chan))
        if args.method in ("analytic", "all"):
            if args.p is None:
                if args.method == "analytic":
                    print(
                        "error: --method analytic needs a (shifted-)depolarizing "
                        "channel with --p (and optionally --gamma)",
                        file=sys.stderr,
                    )
                    return EXIT_USAGE
            else:
                value = bounds_mod.analytic_shifted_depol(args.p, args.gamma or 0.0)
                reports.append(
                    bounds_mod.BoundReport(
                        channel_label=chan.label,
                        method="analytic_shifted_depol",
                        value=value,
                        diagnostics={"p": args.p, "gamma": args.gamma or 0.0},
                    )
                )
        if args.method in ("hw", "all"):
            reports.append(bounds_mod.hw_bound(chan, cfg))
        if args.method in ("maxrains", "all"):
            reports.append(bounds_mod.maxrains_surrogate(chan))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    for rep in reports:
        print(_report_json(rep))
    return EXIT_OK


def write_sweep_csv(rows, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for r in rows:
            fh.write(
                ",".join(
                    _fmt(v)
                    for v in (
                        r.p, r.gamma, r.causality, r.analytic, r.hw,
                        r.hw_minus_causality,
                    )
                )
                + "\n"
            )


def cmd_sweep(args) -> int:
    try:
        p_grid = np.linspace(args.p_min, args.p_max, args.p_steps)
        gamma_grid = np.linspace(args.gamma_min, args.gamma_max, args.gamma_steps)
        cfg = bounds_mod.OptimizerConfig(restarts=args.restarts, seed=args.seed)
        rows = bounds_mod.sweep_shifted_depol(p_grid, gamma_grid, cfg)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        write_sweep_csv(rows, args.out)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_BAD_OUTPUT
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
    try:
        chan = _resolve_channel(args)
    except (ChannelFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CHANNEL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    spectrum = np.linalg.eigvalsh(chan.choi)
    acc = sum(a.conj().T @ a for a in chan.kraus)
    info = {
        "label": chan.label,
        "qubits_in": chan.qubits_in,
        "qubits_out": chan.qubits_out,
        "kraus_rank": len(chan.kraus),
        "choi_spectrum": [float(v) for v in spectrum],
        "tp_residual": float(np.max(np.abs(acc - np.eye(chan.dim_in)))),
        "cp_min_eigenvalue": float(spectrum[0]),
    }
    print(json.dumps(info))
    return EXIT_OK


def _add_channel_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--channel", required=True,
        help="channel name (identity, depolarizing, shifted-depolarizing, "
        "dephasing, amplitude-damping) or path to a channel JSON file",
    )
    parser.add_argument("--qubits", type=int, help="qubit count (identity)")
    parser.add_argument("--p", type=float, help="depolarizing probability weight")
    parser.add_argument("--gamma", type=float, help="depolarizing shift in [0, 1]")
    parser.add_argument("--eta", type=float, help="amplitude damping strength")
    parser.add_argument("--strength", type=float, help="dephasing strength")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    # the Holevo-Werner solver is deterministic and needs no restarts
    p_bound.add_argument("--seed", type=int, default=0, help="accepted; no effect")
    p_bound.add_argument("--restarts", type=int, default=32, help="accepted; no effect")
    p_bound.set_defaults(func=cmd_bound)

    p_sweep = sub.add_parser("sweep", help="bound sweep over a (p, gamma) grid")
    p_sweep.add_argument("--p-min", type=float, default=0.0)
    p_sweep.add_argument("--p-max", type=float, default=0.25)
    p_sweep.add_argument("--p-steps", type=int, default=26)
    p_sweep.add_argument("--gamma-min", type=float, default=0.0)
    p_sweep.add_argument("--gamma-max", type=float, default=1.0)
    p_sweep.add_argument("--gamma-steps", type=int, default=21)
    p_sweep.add_argument("--out", required=True)
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
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "sweep" and (args.p_steps < 1 or args.gamma_steps < 1):
        parser.error("grid steps must be at least 1")
    if args.command == "verify" and args.cases < 1:
        parser.error("--cases must be at least 1")
    if args.command in ("bound", "sweep") and args.restarts < 1:
        parser.error("--restarts must be at least 1")
    return args.func(args)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
