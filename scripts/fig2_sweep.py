#!/usr/bin/env python3
"""Reproduce the bound-comparison surface for shifted depolarizing channels.

Sweeps the default 26x21 (p, gamma) grid, computing the causality bound,
the closed-form expression, and the certified Holevo-Werner bound at each
point, and writes the result as CSV. The whole grid is solved in one
batched call and takes about a second.
"""

import argparse

import numpy as np

from causalcap.bounds import sweep_shifted_depol
from causalcap.cli import write_sweep_csv


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="fig2_sweep.csv")
    parser.add_argument("--p-steps", type=int, default=26)
    parser.add_argument("--gamma-steps", type=int, default=21)
    args = parser.parse_args()

    rows = sweep_shifted_depol(
        np.linspace(0.0, 0.25, args.p_steps),
        np.linspace(0.0, 1.0, args.gamma_steps),
    )
    write_sweep_csv(rows, args.out)
    peak = max(rows, key=lambda r: r.hw_minus_causality)
    print(f"wrote {len(rows)} rows to {args.out}")
    print(
        f"largest HW - causality gap: {peak.hw_minus_causality:.6f} "
        f"at p={peak.p:g}, gamma={peak.gamma:g}"
    )


if __name__ == "__main__":
    main()
