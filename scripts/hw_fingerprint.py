#!/usr/bin/env python3
"""Print one SHA-256 digest over the Holevo-Werner solver's results.

The digest covers the rows of the default 26x21 shifted depolarizing sweep
and, for a fixed channel list, the ``hw_bound`` value, every diagnostic and
the bytes of ``best_input``. The list is ``random_channel(q, q,
env_qubits=e, seed=s)`` for q in {1, 2}, e in {1, 2, 3} and s < 50, plus
three 2-qubit channels on which the solver stops early or converges slowly.
Floats enter the digest exactly (as ``float.hex``), so two checkouts that
print the same digest produced bit-identical results. Run from the
repository root:

    PYTHONPATH=src python3 scripts/hw_fingerprint.py
"""

import dataclasses
import hashlib
import time

import numpy as np

from causalcap.bounds import hw_bound, sweep_shifted_depol
from causalcap.channels import random_channel

# 2 -> 2 qubit channels with 3 environment qubits: a singular optimal input
# marginal (the first and last) and an ill-conditioned one (the middle)
HARD_SEEDS = (1413296698, 3455773250, 4003012333)


def channel_list():
    chans = [
        random_channel(q, q, env_qubits=e, seed=s)
        for q in (1, 2)
        for e in (1, 2, 3)
        for s in range(50)
    ]
    return chans + [random_channel(2, 2, env_qubits=3, seed=s) for s in HARD_SEEDS]


def _field(value) -> bytes:
    if isinstance(value, float):
        return value.hex().encode()
    return repr(value).encode()


def fingerprint() -> tuple[str, int, int]:
    """(hex digest, sweep rows, channels) over the sweep and the channel list."""
    digest = hashlib.sha256()
    rows = sweep_shifted_depol(np.linspace(0.0, 0.25, 26), np.linspace(0.0, 1.0, 21))
    for row in rows:
        digest.update(b"row" + b",".join(map(_field, dataclasses.astuple(row))))
    chans = channel_list()
    for c in chans:
        rep = hw_bound(c)
        digest.update(b"chan" + c.label.encode() + _field(rep.value))
        for key in sorted(rep.diagnostics):
            digest.update(key.encode() + b"=" + _field(rep.diagnostics[key]))
        digest.update(np.ascontiguousarray(rep.best_input).tobytes())
    return digest.hexdigest(), len(rows), len(chans)


def main() -> None:
    t0 = time.perf_counter()
    hexdigest, rows, chans = fingerprint()
    print(f"{rows} sweep rows, {chans} channels in {time.perf_counter() - t0:.1f} s")
    print(hexdigest)


if __name__ == "__main__":
    main()
