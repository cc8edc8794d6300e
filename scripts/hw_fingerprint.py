#!/usr/bin/env python3
"""Print nine SHA-256 digests: four over results, five over command output.

The first ("named") covers the rows of the default 26x21 shifted depolarizing
sweep and ``hw_bound`` on the named 1-qubit channels: amplitude damping at 41
strengths in [0, 1], dephasing at 11 strengths in [0, 1] and depolarizing at
11 weights p in [0, 1/4]. These channels all commute with phase rotations.
The second ("random") covers ``hw_bound`` on ``random_channel(q, q,
env_qubits=e, seed=s)`` for q in {1, 2}, e in {1, 2, 3} and s < 50, plus three
2-qubit channels on which the solver stops early or converges slowly. The
third ("unequal") covers ``hw_bound`` on ``random_channel(1, 2, env_qubits=2,
seed=s)`` and ``random_channel(2, 1, env_qubits=2, seed=s)`` for s < 4, whose
input and output qubit counts differ. For a channel these digests take the
``hw_bound`` value, every diagnostic and the bytes of ``best_input``; the third
also takes the causality bound, and the ``maxrains_surrogate`` value with its
``log2_inf_norm``. Floats
enter the digests exactly (as ``float.hex``), so two checkouts that print the
same digest produced bit-identical results.
The fourth ("causality") covers the channels of the default 26x21 sweep grid
and ``random_channel(q, q, seed=s)`` for q in {1, 2, 3} and s < 8: for each it
takes the bytes of the Choi matrix and of the PDM, the causality bound, and
the ``maxrains_surrogate`` value with its ``log2_inf_norm``.
The CLI digests are SHA-256 digests of command output: the CSV of the default
``sweep``, and the stdout of ``verify --suite all --cases 100 --seed 0`` and of
``bound --method all`` on three named channels. Run from the repository root:

    PYTHONPATH=src python3 scripts/hw_fingerprint.py

prints every digest. With ``--check`` it compares them with those recorded in
``scripts/fingerprint.json`` and exits 1, naming each digest that moved, if any
differs. With ``--update`` it rewrites the recorded digests and prints
``name: old → new`` for each that moved.

Digests depend on the LAPACK build and on the kernel it runs, so the file also
records the numpy version, the BLAS and the OpenBLAS kernel they were written
with, and ``--check`` and ``--update`` refuse, exiting 1 before computing
anything, when the running build differs from the recorded one. numpy's
OpenBLAS picks its kernel from the CPU when it loads, and kernels differ in
their bits: on one SkylakeX CPU the SkylakeX kernel gives 4 of the 9 digests
other values than the Haswell one, and Sandybridge 7. So the script, run as
above, pins the Haswell kernel, which every x86-64 CPU with AVX2 runs (asking
for Zen gets it too), by setting ``OPENBLAS_CORETYPE=Haswell`` before it
imports numpy. Imported as a module it pins nothing, and ``build()`` reports
the kernel that the CPU selected.
"""

import argparse
import contextlib
import ctypes
import dataclasses
import hashlib
import io
import json
import os
import sys
import tempfile
import time
from pathlib import Path

if __name__ == "__main__":  # before numpy loads OpenBLAS, which reads it once
    os.environ["OPENBLAS_CORETYPE"] = "Haswell"

import numpy as np

from causalcap.bounds import causality_bound, hw_bound, maxrains_surrogate, sweep_shifted_depol
from causalcap.channels import named_channel, random_channel, shifted_depolarizing
from causalcap.cli import main as cli_main
from causalcap.pdm import pdm_from_channel

EXPECTED = Path(__file__).with_name("fingerprint.json")
VERIFY_ARGV = ["verify", "--suite", "all", "--cases", "100", "--seed", "0"]
BOUND_CHANNELS = {
    "shifted-depolarizing": ["--p", "0.15", "--gamma", "1"],
    "amplitude-damping": ["--eta", "0.3"],
    "dephasing": ["--strength", "0.4"],
}

# 2 -> 2 qubit channels with 3 environment qubits: a singular optimal input
# marginal (the first and last) and an ill-conditioned one (the middle)
HARD_SEEDS = (1413296698, 3455773250, 4003012333)


def named_channels():
    return (
        [named_channel("amplitude-damping", eta=eta) for eta in np.linspace(0.0, 1.0, 41)]
        + [named_channel("dephasing", strength=s) for s in np.linspace(0.0, 1.0, 11)]
        + [named_channel("depolarizing", p=p) for p in np.linspace(0.0, 0.25, 11)]
    )


def random_channels():
    chans = [
        random_channel(q, q, env_qubits=e, seed=s)
        for q in (1, 2)
        for e in (1, 2, 3)
        for s in range(50)
    ]
    return chans + [random_channel(2, 2, env_qubits=3, seed=s) for s in HARD_SEEDS]


def unequal_channels():
    return [
        random_channel(q_in, q_out, env_qubits=2, seed=s)
        for q_in, q_out in ((1, 2), (2, 1))
        for s in range(4)
    ]


def _field(value) -> bytes:
    if isinstance(value, float):
        return value.hex().encode()
    return repr(value).encode()


def _hash_channels(digest, chans) -> None:
    for c in chans:
        rep = hw_bound(c)
        digest.update(b"chan" + c.label.encode() + _field(rep.value))
        for key in sorted(rep.diagnostics):
            digest.update(key.encode() + b"=" + _field(rep.diagnostics[key]))
        digest.update(np.ascontiguousarray(rep.best_input).tobytes())


def named_fingerprint() -> tuple[str, int, int]:
    """(hex digest, sweep rows, channels) over the sweep and the named channels."""
    digest = hashlib.sha256()
    rows = sweep_shifted_depol(np.linspace(0.0, 0.25, 26), np.linspace(0.0, 1.0, 21))
    for row in rows:
        digest.update(b"row" + b",".join(map(_field, dataclasses.astuple(row))))
    chans = named_channels()
    _hash_channels(digest, chans)
    return digest.hexdigest(), len(rows), len(chans)


def _hash_pdm_bounds(digest, c) -> None:
    digest.update(b"causality=" + _field(causality_bound(c).value))
    rains = maxrains_surrogate(c)
    digest.update(b"maxrains=" + _field(rains.value))
    digest.update(b"log2_inf_norm=" + _field(rains.diagnostics["log2_inf_norm"]))


def channels_fingerprint(chans, pdm_bounds: bool) -> tuple[str, int]:
    """(hex digest, channels) over ``hw_bound`` on each channel of a list.

    With ``pdm_bounds`` the digest also takes each channel's causality and max-Rains values.
    """
    digest = hashlib.sha256()
    _hash_channels(digest, chans)
    if pdm_bounds:
        for c in chans:
            _hash_pdm_bounds(digest, c)
    return digest.hexdigest(), len(chans)


def causality_fingerprint() -> tuple[str, int]:
    """(hex digest, channels) over the PDMs of the grid and of small random channels."""
    digest = hashlib.sha256()
    chans = [
        shifted_depolarizing(float(p), float(g))
        for p in np.linspace(0.0, 0.25, 26)
        for g in np.linspace(0.0, 1.0, 21)
    ] + [random_channel(q, q, seed=s) for q in (1, 2, 3) for s in range(8)]
    for c in chans:
        digest.update(b"chan" + c.label.encode() + c.choi.tobytes())
        digest.update(pdm_from_channel(c).matrix.tobytes())
        _hash_pdm_bounds(digest, c)
    return digest.hexdigest(), len(chans)


def _stdout(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli_main(argv)
    return out.getvalue()


def cli_digests() -> dict[str, str]:
    """SHA-256 of the default sweep CSV and of verify and bound stdout."""
    with tempfile.TemporaryDirectory() as tmp:
        csv = Path(tmp) / "sweep.csv"
        _stdout(["sweep", "--out", str(csv)])
        outputs = {"sweep-csv": csv.read_bytes() if csv.exists() else b""}
    outputs["verify"] = _stdout(VERIFY_ARGV).encode()
    for name, params in BOUND_CHANNELS.items():
        argv = ["bound", "--channel", name, *params, "--method", "all"]
        outputs[f"bound {name}"] = _stdout(argv).encode()
    return {key: hashlib.sha256(out).hexdigest() for key, out in outputs.items()}


def openblas_kernel() -> str:
    """The kernel that numpy's bundled scipy-openblas runs, "unknown" where there is none.

    ``np.show_config()`` reports only the kernel named when the wheel was built."""
    libs = sorted(Path(np.__file__).parents[1].glob("numpy.libs/libscipy_openblas*"))
    if not libs:
        return "unknown"
    corename = ctypes.CDLL(str(libs[0])).scipy_openblas_get_corename64_
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


def build() -> dict[str, str]:
    """The numpy version, BLAS and OpenBLAS kernel that the digests were computed with."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
            "kernel": openblas_kernel()}


def fingerprints() -> dict[str, str]:
    """Every digest by name, printing each with its size and time."""
    digests = {}
    t0 = time.perf_counter()
    digests["named"], rows, chans = named_fingerprint()
    print(f"named: {rows} sweep rows, {chans} channels in {time.perf_counter() - t0:.1f} s")
    print(digests["named"])
    for name, chans, pdm_bounds in (
        ("random", random_channels, False), ("unequal", unequal_channels, True),
    ):
        t0 = time.perf_counter()
        digests[name], n = channels_fingerprint(chans(), pdm_bounds)
        print(f"{name}: {n} channels in {time.perf_counter() - t0:.1f} s")
        print(digests[name])
    t0 = time.perf_counter()
    digests["causality"], chans = causality_fingerprint()
    print(f"causality: {chans} channels in {time.perf_counter() - t0:.1f} s")
    print(digests["causality"])
    t0 = time.perf_counter()
    cli = cli_digests()
    print(f"cli: {len(cli)} command outputs in {time.perf_counter() - t0:.1f} s")
    for key, hexdigest in cli.items():
        print(f"{key}: {hexdigest}")
    return digests | cli


def recorded() -> dict:
    """The contents of ``fingerprint.json``: the build and the digests."""
    return json.loads(EXPECTED.read_text(encoding="utf-8"))


def check(digests: dict[str, str]) -> list[str]:
    """The names of the digests that differ from ``fingerprint.json``, printing each."""
    moved = []
    for key, want in recorded()["digests"].items():
        got = digests.get(key)
        if got != want:
            moved.append(key)
            print(f"moved: {key}: expected {want}, got {got}")
    return moved


def update(digests: dict[str, str]) -> None:
    """Write ``digests`` into ``fingerprint.json``, printing each that moved as old → new."""
    expected = recorded()
    for key, new in digests.items():
        old = expected["digests"].get(key)
        if old != new:
            print(f"{key}: {old} → {new}")
    expected["digests"] = digests
    EXPECTED.write_text(json.dumps(expected, indent=2) + "\n", encoding="utf-8")


def main() -> int:
    parser = argparse.ArgumentParser(description="Print the result digests.")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--check", action="store_true",
        help=f"compare with {EXPECTED.name}; exit 1 naming each digest that moved; refused unless "
             "the build matches",
    )
    mode.add_argument(
        "--update", action="store_true",
        help=f"rewrite the digests in {EXPECTED.name}; refused unless the build matches",
    )
    args = parser.parse_args()
    if (args.check or args.update) and (expected := recorded()["build"]) != (running := build()):
        print(f"refused: digests recorded with {expected}, running with {running}")
        return 1
    digests = fingerprints()
    if args.update:
        update(digests)
        return 0
    if not args.check:
        return 0
    moved = check(digests)
    print(f"check: {len(moved)} of {len(digests)} digests moved" if moved else "check: ok")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
