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
from .linalg import trace_norm  # noqa: F401  (trace_norm stays importable here)


@dataclass(frozen=True)
class OptimizerConfig:
    """Settings for the Holevo-Werner solver.

    ``max_iters`` caps the solver's steps and ``tol`` is the target width of
    the certified bracket in log2 units; trial input marginals need
    eigenvalues above eps / ``tol``. ``restarts`` and ``seed`` are
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


# Anderson mixing depth: the earlier (sigma, T(sigma)) pairs an extrapolated step mixes in
ANDERSON_DEPTH = 5
_EPS, _TINY = np.finfo(float).eps, np.finfo(float).tiny
_OTHERS = {(k, j): np.delete(np.arange(k), j) for k in range(ANDERSON_DEPTH + 2) for j in range(k)}


def _bracket(w5: np.ndarray, root: np.ndarray, inv_root: np.ndarray):
    """Lower ends f(sigma) = ||M||_1, eigenpairs of G and images T(sigma) for a stack.

    W comes reshaped to (n, d, d_out, d, d_out). M = (sqrt(sigma) x I) W (sqrt(sigma) x I),
    G = sigma^(-1/2) Tr_out|M| sigma^(-1/2). Y = (sigma^(-1/2) x I)|M|(sigma^(-1/2) x I)
    satisfies Y >= +-W, so lambda_max(G) = ||Tr_out Y||_inf is an upper end.
    T(sigma) = Tr_out|M| / ||M||_1 is the plain fixed-point image.
    """
    n, d, d_out = w5.shape[:3]
    m = np.einsum("nab,nbicj,ncd->naidj", root, w5, root).reshape(n, d * d_out, -1)
    mu, u = np.linalg.eigh(m)
    u4 = u.reshape(n, d, d_out, -1)
    abs_mu = np.abs(mu)
    marginal = np.einsum("naik,nk,nbik->nab", u4, abs_mu, u4.conj())
    lower = abs_mu.sum(axis=1)
    g_vals, g_vecs = np.linalg.eigh(inv_root @ marginal @ inv_root)
    return lower, g_vals, g_vecs, marginal / lower[:, None, None]


def _evaluate(w5, sigma, floor):
    """Iterates (sigma, sqrt(sigma), lower, G eigenpairs, T(sigma)) at a stack of sigma.

    Also returns which sigma have every eigenvalue above ``floor``. The others
    are evaluated with their eigenvalues raised to ``floor``, so that no
    sigma^(-1/2) is formed from a singular sigma; callers discard them.
    """
    vals, vecs = np.linalg.eigh(sigma)
    vh, sqrt_vals = vecs.conj().swapaxes(1, 2), np.sqrt(np.fmax(vals, floor))[:, None, :]
    root = (vecs * sqrt_vals) @ vh
    return vals[:, 0] > floor, (sigma, root) + _bracket(w5, root, (vecs / sqrt_vals) @ vh)


def _power(root, g_vals, g_vecs, squarings):
    """normalise(sqrt(sigma) (G / lambda_max G)^alpha sqrt(sigma)), alpha = 2**squarings.

    alpha is applied by repeated squaring, so every input in a stack takes
    exactly the arithmetic it would take alone.
    """
    ratio = np.maximum(g_vals, 0.0) / g_vals[:, -1:]
    same = squarings.min() == squarings.max()  # then every row is squared alike
    for j in range(int(squarings.max())):
        ratio = ratio * ratio if same else np.where((squarings > j)[:, None], ratio * ratio, ratio)
    sigma = root @ ((g_vecs * ratio[:, None, :]) @ g_vecs.conj().swapaxes(1, 2)) @ root
    return sigma / sigma.trace(axis1=1, axis2=2).real[:, None, None]


def _extrapolate(xs: np.ndarray, gs: np.ndarray, latest: int) -> np.ndarray:
    """Anderson mix of iterates xs and their images gs = T(xs), shape (n, k, d, d).

    Minimises the residual F = T(x) - x over affine combinations of the k
    stored pairs (Walker & Ni, SIAM J. Numer. Anal. 49, 1715, 2011) in the
    real Frobenius inner product, and returns the same combination of the
    images, trace-normalised. Differences are taken from the pair at index
    ``latest``. A Levenberg-Marquardt ridge keeps the Gram system nonsingular.
    """
    n, k = xs.shape[:2]
    others = _OTHERS[k, latest]
    f = (gs - xs).reshape(n, k, -1).view(float)
    df = f[:, latest, None] - f[:, others]
    gram = df @ df.swapaxes(1, 2)
    diag = gram.reshape(n, -1)[:, ::k]  # the diagonal, as a writeable view
    diag += 1e-12 * diag + _TINY
    coef = np.linalg.solve(gram, df @ f[:, latest, :, None]).swapaxes(1, 2)
    dg = (gs[:, latest, None] - gs[:, others]).reshape(n, k - 1, -1)
    cand = gs[:, latest] - (coef @ dg).reshape(gs.shape[:1] + gs.shape[2:])
    trace = cand.trace(axis1=1, axis2=2).real
    # a non-positive trace cannot be normalised; such a candidate fails the eigenvalue test
    return cand / np.where(trace > 0.0, trace, 1.0)[:, None, None]


def _solve_hw(w: np.ndarray, d: int, cfg: OptimizerConfig):
    """Certified brackets on ||Theta o N||_dia for a stack of W = d R.

    Maximises the concave f(sigma) from sigma = I/d. Each step first tries the Anderson
    extrapolation of the last ``ANDERSON_DEPTH + 1`` iterates and their fixed-point
    images T(sigma) = Tr_out|M| / ||M||_1; it stands if its own bracket is narrower than
    the current iterate's. Otherwise the step falls back to a power step whose exponent
    doubles while the iterate's bracket narrows; a power step that widens it is retaken
    at exponent 1, the plain fixed point. The history is kept across such fallbacks. A
    trial sigma counts only if its eigenvalues exceed eps / ``cfg.tol``: the upper end
    carries a relative rounding error of up to about eps / lambda_min(sigma), which must
    stay below the tolerance. An input stops once its log2 bracket is at most
    ``cfg.tol`` wide, after ``cfg.max_iters`` steps, or when no trial counts. Returns,
    per input, log2 of the best lower end and of the smallest upper end, the amplitude
    matrix sqrt(sigma*) of the best lower-end iterate, and the counts of steps, bracket
    evaluations (the start and rejected trials included) and accepted extrapolations.
    The arrays hold only the active inputs, compacted whenever some stop; every operation
    acts row by row, so a stacked input takes exactly the arithmetic of a lone one.
    """
    n, dim = w.shape[:2]
    floor = _EPS / cfg.tol
    w5 = w.reshape(n, d, dim // d, d, dim // d)
    root = np.tile(np.eye(d, dtype=complex) / math.sqrt(d), (n, 1, 1))
    lower, g_vals, g_vecs, image = _bracket(w5, root, root * d)
    upper, best_lower, best_root = g_vals[:, -1].copy(), lower, root
    evaluations, accelerated = np.ones(n, dtype=int), np.zeros(n, dtype=int)
    idx, dead, done, t = np.arange(n), np.zeros(n, dtype=bool), [], 0
    xs = gs = squarings = None  # allocated by the first step
    while True:
        # an input whose last step found no standing trial kept its ends; it stops here
        stop = dead | ~(np.log2(upper) - np.log2(best_lower) > cfg.tol)
        last = t == cfg.max_iters or stop.all()
        if last or stop.any():
            done.append([x[slice(None) if last else stop] for x in (
                idx, best_lower, upper, best_root, t - dead, evaluations, accelerated)])
            if last:
                break
            (w5, root, lower, g_vals, g_vecs, image, upper, best_lower, best_root, evaluations,
             accelerated, idx, xs, gs, squarings) = (None if x is None else x[~stop] for x in (
                w5, root, lower, g_vals, g_vecs, image, upper, best_lower, best_root,
                evaluations, accelerated, idx, xs, gs, squarings))
        if t:
            cand = _extrapolate(xs[:, : t + 1], gs[:, : t + 1], t % (ANDERSON_DEPTH + 1))
            valid, trial = _evaluate(w5, cand, floor)
            won = valid & (trial[3][:, -1] - trial[2] < g_vals[:, -1] - lower)
            evaluations += 1
            accelerated += won
        else:  # ring buffer of (sigma, T(sigma)): step t is in slot t % (ANDERSON_DEPTH + 1)
            xs = np.tile(np.eye(d, dtype=complex) / d, (idx.size, ANDERSON_DEPTH + 1, 1, 1))
            gs = np.repeat(image[:, None], ANDERSON_DEPTH + 1, axis=1)
            squarings, won = np.zeros(idx.size, dtype=int), np.zeros(idx.size, dtype=bool)
        dead, wins = ~won, np.count_nonzero(won)
        if wins < won.size:
            rows = ~won if wins else slice(None)  # the whole arrays if no input won
            root_s, g_vals_s, g_vecs_s, sq = (x[rows] for x in (root, g_vals, g_vecs, squarings))
            valid, power = _evaluate(w5[rows], _power(root_s, g_vals_s, g_vecs_s, sq), floor)
            # a power step stands if it narrows the iterate's bracket, and at exponent 1 anyway
            narrowed = valid & (power[3][:, -1] - power[2] < g_vals_s[:, -1] - lower[rows])
            stands = narrowed | (valid & (sq == 0))
            retry = ~stands & (sq > 0)
            # alpha stops at 2**52, the scale set by the 2**-53 spacing of doubles below 1
            squarings[rows] = np.where(narrowed, np.minimum(sq + 1, 52), 0)
            evaluations[rows] += 1 + retry
            if retry.any():
                plain = _power(root_s[retry], g_vals_s[retry], g_vecs_s[retry], 0 * sq[retry])
                stands[retry], again = _evaluate(w5[rows][retry], plain, floor)
                for arr, new in zip(power, again):
                    arr[retry] = new
            if wins:
                for arr, new in zip(trial, power):
                    arr[rows] = new
            else:
                trial = power
            dead[rows] = ~stands
        sigma, root, lower, g_vals, g_vecs, image = trial
        t += 1
        xs[:, t % (ANDERSON_DEPTH + 1)], gs[:, t % (ANDERSON_DEPTH + 1)] = sigma, image
        better = ~dead & (lower > best_lower)
        upper = np.where(dead, upper, np.fmin(upper, g_vals[:, -1]))
        best_lower = np.where(better, lower, best_lower)
        best_root = np.where(better[:, None, None], root, best_root)
    if len(done) > 1:
        order = np.empty(n, dtype=int)  # the inverse of the permutation idx, by a scatter
        order[np.concatenate([part[0] for part in done])] = np.arange(n)
        done = [tuple(np.concatenate(col)[order] for col in zip(*done))]
    _, best_lower, upper, best_root, iters, evaluations, accelerated = done[0]
    # the value lies in [lower, upper]; an upper end below the lower end is rounding
    counts = {"iterations": iters, "evaluations": evaluations, "accelerated_steps": accelerated}
    return np.log2(best_lower), np.log2(np.fmax(upper, best_lower)), best_root, counts


def hw_bound(c: QuantumChannel, cfg: OptimizerConfig = OptimizerConfig()) -> BoundReport:
    """Holevo-Werner comparison bound log2 ||Theta o N||_dia (Theta the transpose).

    A pure input with amplitude matrix Psi (reference x system) has output
    K W K^dag, K = Psi x I, W = d R (R the channel PDM), whose trace norm is
    concave in sigma = Psi^dag Psi. ``value`` is a certified upper bound; the
    diagnostics keep ``lower`` (attained by ``best_input``, amplitude matrix
    sqrt(sigma*)) and ``gap`` = value - lower, with the counts of solver
    steps (``iterations``), bracket evaluations and accepted Anderson steps.
    The start sigma = I/d keeps ``value`` <= log2 lambda_max(Tr_out|W|).
    Rounding below zero is clamped, and rounding below the causality bound
    F(R) is raised to it: sigma = I/d attains ||R||_1, so HW >= F(R) exactly.
    """
    dim = c.dim_in
    r = pdm_mod.pdm_from_channel(c)
    lower, upper, root, counts = _solve_hw(dim * r.matrix[None], dim, cfg)
    value = max(pdm_mod.clamp_log2(float(upper[0])), pdm_mod.causality_F(r))
    low = float(lower[0])
    amp = root[0].reshape(-1)
    return BoundReport(
        channel_label=c.label,
        method="holevo_werner",
        value=value,
        diagnostics={
            "restarts": 1,
            "iterations": int(counts["iterations"][0]),
            "evaluations": int(counts["evaluations"][0]),
            "accelerated_steps": int(counts["accelerated_steps"][0]),
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
    record the tighter infinity-norm intermediate. Both come from one
    eigensolve of the PDM, which is Hermitian by construction.
    """
    spectrum = np.abs(np.linalg.eigvalsh(pdm_mod.pdm_from_channel(c).matrix))
    return BoundReport(
        channel_label=c.label,
        method="maxrains_surrogate",
        value=pdm_mod.clamp_log2(math.log2(float(np.sum(spectrum)))),
        diagnostics={"log2_inf_norm": math.log2(float(np.max(spectrum)))},
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
    for (p, g), r, value in zip(points, pdms, map(pdm_mod.clamp_log2, hw.tolist())):
        caus = pdm_mod.causality_F(r)
        value = max(value, caus)  # as in hw_bound
        rows.append(SweepRow(p, g, caus, analytic_shifted_depol(p, g), value, value - caus))
    return rows
