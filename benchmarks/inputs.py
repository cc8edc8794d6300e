"""Seeded inputs for the three workloads.

All inputs derive from the workload seed; causalcap receives only what is
generated here (channel seeds, Kraus lists, channel files, CLI seeds). This
module needs numpy alone, so the cli-session set-up does not import the
package it benchmarks.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

import oracle

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# The paper's (p, gamma) grid.
GRID_P = tuple(float(x) for x in np.linspace(0.0, 0.25, 26))
GRID_GAMMA = tuple(float(x) for x in np.linspace(0.0, 1.0, 21))
RANDOM_QUBITS = (1, 2, 3)
RANDOM_PER_QUBIT = 8
FILES_PER_QUBIT = 2

# hw-solve: the coincidence point (HW equals the closed form), an interior
# point, the near-zero-capacity point, amplitude damping, one random channel.
HW_POINTS = ((0.1, 0.0), (0.15, 0.5), (0.24, 1.0))
HW_DAMPING = 0.3

# cli-session: the default 26x21 sweep at 32 restarts takes about 25 minutes,
# so the session runs a reduced grid on the process pool.
SWEEP_P_STEPS, SWEEP_GAMMA_STEPS, SWEEP_RESTARTS, SWEEP_THREADS = 6, 5, 2, 2
SWEEP_P = tuple(float(x) for x in np.linspace(0.0, 0.25, SWEEP_P_STEPS))
SWEEP_GAMMA = tuple(float(x) for x in np.linspace(0.0, 1.0, SWEEP_GAMMA_STEPS))
VERIFY_CASES = 100
SUITES = ("pdm", "lemmas", "fidelity", "bounds")
# (CLI arguments after --channel FILE, method tag the output must carry)
CHANNEL_COMMANDS = (
    (("channel-info",), None),
    (("bound", "--method", "causality"), "causality"),
    (("bound", "--method", "maxrains"), "maxrains_surrogate"),
)


def rng(seed: int, purpose: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed % 2**63, purpose]))


def optfree_random(seed: int) -> list[tuple[int, int]]:
    """(qubits, channel seed) pairs for random_channel(q, q, seed=...)."""
    r = rng(seed, 0)
    return [(q, int(r.integers(2**31))) for q in RANDOM_QUBITS for _ in range(RANDOM_PER_QUBIT)]


def hw_random_kraus(seed: int) -> list:
    return oracle.random_kraus(rng(seed, 1), 1, 1, rank=2)


def cli_seeds(seed: int) -> tuple[int, int]:
    """Seeds passed to `verify` and `sweep`."""
    r = rng(seed, 3)
    return int(r.integers(2**31)), int(r.integers(2**31))


def sweep_points() -> list[tuple[float, float]]:
    """The sweep's grid points in the CLI's row-major order."""
    return [(p, g) for p in SWEEP_P for g in SWEEP_GAMMA]


def write_channel_files(seed: int, workdir: Path) -> list[tuple[int, Path, list]]:
    """Seeded Kraus-list files, FILES_PER_QUBIT per qubit count, as (qubits, path, kraus)."""
    r = rng(seed, 2)
    out = []
    for q, k in [(q, k) for k in range(FILES_PER_QUBIT) for q in RANDOM_QUBITS]:
        kraus = oracle.random_kraus(r, q, q, rank=2)
        data = {
            "label": f"bench-q{q}-{k}",
            "qubits_in": q,
            "qubits_out": q,
            "kraus": [
                [[[float(z.real), float(z.imag)] for z in row] for row in a] for a in kraus
            ],
        }
        path = workdir / f"channel-q{q}-{k}.json"
        path.write_text(json.dumps(data) + "\n", encoding="utf-8")
        out.append((q, path, kraus))
    return out


def cli_argv(*args: str) -> list[str]:
    return [sys.executable, "-m", "causalcap.cli", *args]
