"""Capacity upper bounds for qubit channels.

Four routes are implemented: the optimization-free causality bound (trace
norm of the channel PDM), the closed-form expression for shifted
depolarizing channels, the Holevo-Werner comparison bound solved as a
concave problem over the input marginal with a certified bracket, and a
max-Rains surrogate from the partially transposed Choi matrix. The PDM R from
:func:`pdm.pdm_from_channel` is the one operator all of them read. All
values are in qubits per channel use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import pdm as pdm_mod
from .channels import QuantumChannel, shifted_depolarizing
from .linalg import inf_norm, trace_norm  # noqa: F401  (trace_norm stays importable here)


@dataclass(frozen=True)
class OptimizerConfig:
    """Settings for the Holevo-Werner solver.

    ``max_iters`` caps the solver's steps and ``tol`` is the target width of
    the certified bracket in log2 units. ``restarts`` and ``seed`` are
    validated but have no effect: the solver is deterministic and, because
    the problem is concave, needs no restarts.
    """

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


def _bracket(w: np.ndarray, root: np.ndarray, inv_root: np.ndarray):
    """Lower ends f(sigma) = ||M||_1 and eigenpairs of G for a stack of inputs.

    M = (sqrt(sigma) x I) W (sqrt(sigma) x I), G = sigma^(-1/2) Tr_out|M| sigma^(-1/2).
    Y = (sigma^(-1/2) x I)|M|(sigma^(-1/2) x I) satisfies Y >= +-W, so
    lambda_max(G) = ||Tr_out Y||_inf is an upper end.
    """
    n, d, dim = *root.shape[:2], w.shape[-1]
    w5 = w.reshape(n, d, dim // d, d, dim // d)
    mu, u = np.linalg.eigh(np.einsum("nab,nbicj,ncd->naidj", root, w5, root).reshape(w.shape))
    u4 = u.reshape(n, d, dim // d, dim)
    marginal = np.einsum("naik,nk,nbik->nab", u4, np.abs(mu), u4.conj())
    return (np.abs(mu).sum(axis=1),) + tuple(np.linalg.eigh(inv_root @ marginal @ inv_root))


def _step(w, root, g_vals, g_vecs, squarings):
    """sigma <- normalise(sqrt(sigma) (G / lambda_max G)^alpha sqrt(sigma)), bracketed.

    alpha = 2**squarings is applied by repeated squaring, so every input in a
    stack takes exactly the arithmetic it would take alone.
    """
    ratio = np.clip(g_vals, 0.0, None) / g_vals[:, -1:]
    for j in range(int(squarings.max(initial=0))):
        ratio = np.where((squarings > j)[:, None], ratio * ratio, ratio)
    sigma = root @ ((g_vecs * ratio[:, None, :]) @ g_vecs.conj().swapaxes(1, 2)) @ root
    vals, vecs = np.linalg.eigh(sigma / np.trace(sigma, axis1=1, axis2=2).real[:, None, None])
    vh, sqrt_vals = vecs.conj().swapaxes(1, 2), np.sqrt(vals)[:, None, :]
    root = (vecs * sqrt_vals) @ vh
    return (root,) + _bracket(w, root, (vecs / sqrt_vals) @ vh)


def _solve_hw(w: np.ndarray, d: int, cfg: OptimizerConfig):
    """Certified brackets on ||Theta o N||_dia for a stack of W = d R.

    Maximises the concave f(sigma) from sigma = I/d. The step exponent
    doubles while the iterate's bracket narrows; otherwise the step is
    retaken at exponent 1, the plain fixed point sigma <- Tr_out|M| / ||M||_1.
    An input stops once its log2 bracket is at most ``cfg.tol`` wide, or
    after ``cfg.max_iters`` steps. Returns, per input, log2 of the best lower
    end and of the smallest upper end, the amplitude matrix sqrt(sigma*) of
    the best lower-end iterate, and the step count.
    """
    n = w.shape[0]
    root = np.tile(np.eye(d, dtype=complex) / math.sqrt(d), (n, 1, 1))
    lower, g_vals, g_vecs = _bracket(w, root, root * d)
    upper, best_lower, best_root = g_vals[:, -1].copy(), lower.copy(), root.copy()
    squarings, iters = np.zeros(n, dtype=int), np.zeros(n, dtype=int)
    a = np.arange(n)
    while True:
        a = a[np.log2(upper[a]) - np.log2(best_lower[a]) > cfg.tol]
        if not a.size:
            break
        trial = _step(w[a], root[a], g_vals[a], g_vecs[a], squarings[a])
        # a step stands when the iterate's own bracket narrows
        narrowed = trial[2][:, -1] - trial[1] < g_vals[a, -1] - lower[a]
        retry = np.flatnonzero(~narrowed & (squarings[a] > 0))
        if retry.size:
            b = a[retry]
            plain = _step(w[b], root[b], g_vals[b], g_vecs[b], np.zeros(b.size, dtype=int))
            for arr, new in zip(trial, plain):
                arr[retry] = new
        # alpha stops at 2**52, the scale set by the 2**-53 spacing of doubles below 1
        squarings[a] = np.where(narrowed, np.minimum(squarings[a] + 1, 52), 0)
        root[a], lower[a], g_vals[a], g_vecs[a] = trial
        better = a[lower[a] > best_lower[a]]
        best_lower[better], best_root[better] = lower[better], root[better]
        upper[a] = np.fmin(upper[a], g_vals[a, -1])
        iters[a] += 1
        a = a[iters[a] < cfg.max_iters]
    # the value lies in [lower, upper]; an upper end below the lower end is rounding
    return np.log2(best_lower), np.log2(np.fmax(upper, best_lower)), best_root, iters


def hw_bound(c: QuantumChannel, cfg: OptimizerConfig = OptimizerConfig()) -> BoundReport:
    """Holevo-Werner comparison bound log2 ||Theta o N||_dia (Theta the transpose).

    A pure input with amplitude matrix Psi (reference x system) has output
    K W K^dag, K = Psi x I, W = d R (R the channel PDM), whose trace norm is
    concave in sigma = Psi^dag Psi. ``value`` is a certified upper bound; the
    diagnostics keep ``lower`` (attained by ``best_input``, amplitude matrix
    sqrt(sigma*)) and ``gap`` = value - lower. The start sigma = I/d keeps
    ``lower`` >= the causality bound and ``value`` <= log2 lambda_max(Tr_out|W|).
    """
    dim = c.dim_in
    w = dim * pdm_mod.pdm_from_channel(c).matrix
    lower, upper, root, iters = _solve_hw(w[None], dim, cfg)
    value, low = float(upper[0]), float(lower[0])
    amp = root[0].reshape(-1)
    return BoundReport(
        channel_label=c.label,
        method="holevo_werner",
        value=value,
        diagnostics={
            "restarts": 1,
            "iterations": int(iters[0]),
            "converged_restarts": int(value - low <= cfg.tol),
            "tolerance": cfg.tol,
            "lower": low,
            "gap": value - low,
            "note": "certified upper bound; best_input attains the lower end",
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


def sweep_shifted_depol(
    p_grid: Sequence[float],
    gamma_grid: Sequence[float],
    cfg: OptimizerConfig = OptimizerConfig(),
    workers: int | None = None,
) -> list[SweepRow]:
    """Evaluate every bound over a (p, gamma) grid, rows in row-major order.

    The Holevo-Werner values of all grid points are solved as one stack, each
    with exactly the arithmetic :func:`hw_bound` uses on it alone. ``workers``
    is accepted for compatibility and has no effect.
    """
    points = [(float(p), float(g)) for p in p_grid for g in gamma_grid]
    pdms = [pdm_mod.pdm_from_channel(shifted_depolarizing(p, g)) for p, g in points]
    hw = _solve_hw(np.array([2.0 * r.matrix for r in pdms]).reshape(-1, 4, 4), 2, cfg)[1]
    rows = []
    for (p, g), r, value in zip(points, pdms, hw.tolist()):
        caus = pdm_mod.causality_F(r)
        rows.append(SweepRow(p, g, caus, analytic_shifted_depol(p, g), value, value - caus))
    return rows
