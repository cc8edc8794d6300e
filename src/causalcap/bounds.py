"""Capacity upper bounds for qubit channels.

Four routes are implemented: the optimization-free causality bound (trace
norm of the channel PDM), the closed-form expression for shifted
depolarizing channels, a Holevo-Werner comparison bound evaluated by
multi-restart Nelder-Mead over pure bipartite inputs, and a max-Rains
surrogate from the partially transposed Choi matrix. The PDM R from
:func:`pdm.pdm_from_channel` is the one operator all of them read. All
values are in qubits per channel use.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from . import pdm as pdm_mod
from .channels import QuantumChannel, shifted_depolarizing
from .linalg import inf_norm, trace_norm

THREADS_ENV = "CAUSAL_CAPACITY_THREADS"


@dataclass(frozen=True)
class OptimizerConfig:
    """Settings for the derivative-free Holevo-Werner search."""

    restarts: int = 32
    max_iters: int = 2000
    tol: float = 1e-9
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be at least 1")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.tol <= 0.0:
            raise ValueError("tolerance must be positive")


@dataclass
class BoundReport:
    """One bound evaluation with method tag and optimizer diagnostics."""

    channel_label: str
    method: str
    value: float
    diagnostics: dict = field(default_factory=dict)
    best_input: np.ndarray | None = None


@dataclass(frozen=True)
class SweepRow:
    """One (p, gamma) grid point with all computed bounds."""

    p: float
    gamma: float
    causality: float
    analytic: float
    hw: float
    hw_minus_causality: float


def causality_bound(c: QuantumChannel) -> BoundReport:
    """Optimization-free capacity bound from the channel PDM."""
    r = pdm_mod.pdm_from_channel(c)
    return BoundReport(
        channel_label=c.label,
        method="causality",
        value=pdm_mod.causality_F(r),
        diagnostics={"qubits": c.qubits_in},
    )


def analytic_shifted_depol(p: float, gamma: float) -> float:
    """Closed-form causality bound for the shifted depolarizing channel."""
    if not 0.0 <= p <= 0.25:
        raise ValueError(f"p={p!r} outside [0, 1/4]")
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma={gamma!r} outside [0, 1]")
    root = math.sqrt(max(1.0 - 8.0 * p + 16.0 * p * p + 4.0 * gamma * gamma * p * p, 0.0))
    return math.log2(1.0 - p + 0.5 * root + 0.5 * abs(2.0 * p - root))


def _phase_fixed(amp: np.ndarray) -> np.ndarray:
    """Rotate the largest-magnitude amplitude onto the nonnegative real axis."""
    k = int(np.argmax(np.abs(amp)))
    phase = amp[k] / abs(amp[k]) if abs(amp[k]) > 0 else 1.0
    return amp / phase


def hw_bound(c: QuantumChannel, cfg: OptimizerConfig = OptimizerConfig()) -> BoundReport:
    """Holevo-Werner comparison bound via pure-state optimization.

    Maximizes the trace norm of the transpose-then-channel map over pure
    bipartite inputs (reference dimension equal to the input dimension),
    with Nelder-Mead restarts. One restart always starts at the maximally
    entangled state, so the reported value never falls below the causality
    bound. The result is a best-found lower estimate of the true supremum;
    the restart record is kept in the diagnostics.

    For the input with amplitude matrix Psi (reference x system), the
    transpose-then-channel output is K W K^dag with K = Psi x I and
    W = d R, R the channel PDM.
    """
    from scipy.optimize import minimize  # the only optimizer; costly to import

    dim = c.dim_in
    w = dim * pdm_mod.pdm_from_channel(c).matrix
    eye = np.eye(dim, dtype=complex)
    n_amp = dim * dim

    def objective(x: np.ndarray) -> float:
        amp = x[:n_amp] + 1j * x[n_amp:]
        nrm = np.linalg.norm(amp)
        if nrm < 1e-12:
            return 0.0  # degenerate simplex point, worst possible objective
        k = np.kron((amp / nrm).reshape(dim, dim), eye)
        return -trace_norm(k @ w @ k.conj().T)

    rng = np.random.default_rng(cfg.seed)
    max_ent = np.eye(dim, dtype=complex).reshape(-1) / np.sqrt(dim)
    starts = [np.concatenate([max_ent.real, max_ent.imag])]
    for _ in range(cfg.restarts - 1):
        starts.append(rng.standard_normal(2 * n_amp))

    best_val = -np.inf
    best_x = starts[0]
    per_restart = []
    total_iters = 0
    converged = 0
    for x0 in starts:
        res = minimize(
            objective,
            x0,
            method="Nelder-Mead",
            options={"maxiter": cfg.max_iters, "xatol": cfg.tol, "fatol": cfg.tol},
        )
        found = max(-res.fun, -objective(x0))
        per_restart.append(found)
        total_iters += int(res.nit)
        converged += int(bool(res.success))
        if found > best_val:
            best_val = found
            best_x = res.x if -res.fun >= -objective(x0) else x0
    amp = best_x[:n_amp] + 1j * best_x[n_amp:]
    amp = _phase_fixed(amp / np.linalg.norm(amp))
    return BoundReport(
        channel_label=c.label,
        method="holevo_werner",
        value=math.log2(best_val),
        diagnostics={
            "restarts": cfg.restarts,
            "iterations": total_iters,
            "converged_restarts": converged,
            "seed": cfg.seed,
            "tolerance": cfg.tol,
            "best_objective": best_val,
            "per_restart": per_restart,
            "note": "best-found lower estimate of the supremum",
        },
        best_input=np.outer(amp, amp.conj()),
    )


def maxrains_surrogate(c: QuantumChannel) -> BoundReport:
    """Upper-bound surrogate from the partially transposed Choi matrix.

    The value is log2 of the trace norm of T_B(Choi). T_B(Choi) is the full
    transpose of T_A(Choi), the channel PDM, so the two share a spectrum and
    the value equals the causality bound for every channel. The diagnostics
    record the tighter infinity-norm intermediate.
    """
    r = pdm_mod.pdm_from_channel(c)
    return BoundReport(
        channel_label=c.label,
        method="maxrains_surrogate",
        value=pdm_mod.causality_F(r),
        diagnostics={"log2_inf_norm": math.log2(inf_norm(r.matrix))},
    )


def compare_bounds(
    c: QuantumChannel, cfg: OptimizerConfig = OptimizerConfig()
) -> dict[str, BoundReport]:
    """All applicable bounds for one channel, keyed by method."""
    caus = causality_bound(c)
    hw = hw_bound(c, cfg)
    hw.diagnostics["hw_minus_causality"] = hw.value - caus.value
    return {
        "causality": caus,
        "holevo_werner": hw,
        "maxrains_surrogate": maxrains_surrogate(c),
    }


def _row_config(cfg: OptimizerConfig, index: int) -> OptimizerConfig:
    # independent substream per grid point so results do not depend on
    # execution order
    sub = int(np.random.SeedSequence([cfg.seed, index]).generate_state(1)[0])
    return replace(cfg, seed=sub)


def _sweep_point(args) -> SweepRow:
    p, gamma, cfg = args
    chan = shifted_depolarizing(p, gamma)
    caus = causality_bound(chan).value
    analytic = analytic_shifted_depol(p, gamma)
    hw = hw_bound(chan, cfg).value
    return SweepRow(p, gamma, caus, analytic, hw, hw - caus)


def sweep_workers() -> int:
    """Worker count for sweeps; capped by CAUSAL_CAPACITY_THREADS."""
    raw = os.environ.get(THREADS_ENV, "").strip()
    cap = int(raw) if raw else 0
    if cap < 0:
        raise ValueError(f"{THREADS_ENV} must be nonnegative")
    return cap if cap > 0 else (os.cpu_count() or 1)


def sweep_shifted_depol(
    p_grid: Sequence[float],
    gamma_grid: Sequence[float],
    cfg: OptimizerConfig = OptimizerConfig(),
    workers: int | None = None,
) -> list[SweepRow]:
    """Evaluate every bound over a (p, gamma) grid, rows in row-major order.

    Deterministic per seed regardless of worker count: each grid point draws
    from its own substream derived from (seed, row index).
    """
    points = []
    idx = 0
    for p in p_grid:
        for gamma in gamma_grid:
            points.append((float(p), float(gamma), _row_config(cfg, idx)))
            idx += 1
    if workers is None:
        workers = sweep_workers()
    if workers > 1 and len(points) > 1:
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                return list(pool.map(_sweep_point, points, chunksize=4))
        except (OSError, PermissionError):
            pass  # restricted environments: fall back to in-process execution
    return [_sweep_point(args) for args in points]
