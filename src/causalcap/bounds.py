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


def _bracket(w: np.ndarray, root: np.ndarray, inv_root: np.ndarray):
    """Lower ends f(sigma) = ||M||_1, eigenpairs of G and images T(sigma) for a stack.

    M = (sqrt(sigma) x I) W (sqrt(sigma) x I), G = sigma^(-1/2) Tr_out|M| sigma^(-1/2).
    Y = (sigma^(-1/2) x I)|M|(sigma^(-1/2) x I) satisfies Y >= +-W, so
    lambda_max(G) = ||Tr_out Y||_inf is an upper end. T(sigma) = Tr_out|M| / ||M||_1
    is the plain fixed-point image.
    """
    n, d, dim = *root.shape[:2], w.shape[-1]
    w5 = w.reshape(n, d, dim // d, d, dim // d)
    mu, u = np.linalg.eigh(np.einsum("nab,nbicj,ncd->naidj", root, w5, root).reshape(w.shape))
    u4 = u.reshape(n, d, dim // d, dim)
    abs_mu = np.abs(mu)
    marginal = np.einsum("naik,nk,nbik->nab", u4, abs_mu, u4.conj())
    lower = abs_mu.sum(axis=1)
    g_vals, g_vecs = np.linalg.eigh(inv_root @ marginal @ inv_root)
    return lower, g_vals, g_vecs, marginal / lower[:, None, None]


def _evaluate(w, sigma, floor):
    """Iterates (sigma, sqrt(sigma), lower, G eigenpairs, T(sigma)) at a stack of sigma.

    Also returns which sigma have every eigenvalue above ``floor``. The others
    are evaluated with their eigenvalues raised to ``floor``, so that no
    sigma^(-1/2) is formed from a singular sigma; callers discard them.
    """
    vals, vecs = np.linalg.eigh(sigma)
    vh, sqrt_vals = vecs.conj().swapaxes(1, 2), np.sqrt(np.fmax(vals, floor))[:, None, :]
    root = (vecs * sqrt_vals) @ vh
    return vals[:, 0] > floor, (sigma, root) + _bracket(w, root, (vecs / sqrt_vals) @ vh)


def _width(iterate) -> np.ndarray:
    """lambda_max(G) - f(sigma), the width of an iterate's bracket."""
    return iterate[3][:, -1] - iterate[2]


def _store(state, rows, trial, take) -> None:
    """Write the trial iterates flagged in ``take`` into ``state`` at ``rows``."""
    for arr, new in zip(state, trial):
        arr[rows[take]] = new[take]


def _power(root, g_vals, g_vecs, squarings):
    """normalise(sqrt(sigma) (G / lambda_max G)^alpha sqrt(sigma)), alpha = 2**squarings.

    alpha is applied by repeated squaring, so every input in a stack takes
    exactly the arithmetic it would take alone.
    """
    ratio = np.clip(g_vals, 0.0, None) / g_vals[:, -1:]
    for j in range(int(squarings.max(initial=0))):
        ratio = np.where((squarings > j)[:, None], ratio * ratio, ratio)
    sigma = root @ ((g_vecs * ratio[:, None, :]) @ g_vecs.conj().swapaxes(1, 2)) @ root
    return sigma / np.trace(sigma, axis1=1, axis2=2).real[:, None, None]


def _extrapolate(xs: np.ndarray, gs: np.ndarray, latest: int) -> np.ndarray:
    """Anderson mix of iterates xs and their images gs = T(xs), shape (n, k, d, d).

    Minimises the residual F = T(x) - x over affine combinations of the k
    stored pairs (Walker & Ni, SIAM J. Numer. Anal. 49, 1715, 2011) in the
    real Frobenius inner product, and returns the same combination of the
    images, trace-normalised. Differences are taken from the pair at index
    ``latest``. A Levenberg-Marquardt ridge keeps the Gram system nonsingular.
    """
    n, k = xs.shape[:2]
    others = [j for j in range(k) if j != latest]
    f = (gs - xs).reshape(n, k, -1).view(float)
    df = f[:, latest, None] - f[:, others]
    gram = df @ df.swapaxes(1, 2)
    diag = np.einsum("nii->ni", gram)  # a writeable view
    diag += 1e-12 * diag + np.finfo(float).tiny
    coef = np.linalg.solve(gram, df @ f[:, latest, :, None]).swapaxes(1, 2)
    dg = (gs[:, latest, None] - gs[:, others]).reshape(n, k - 1, -1)
    cand = gs[:, latest] - (coef @ dg).reshape(gs.shape[:1] + gs.shape[2:])
    trace = cand.trace(axis1=1, axis2=2).real
    # a non-positive trace cannot be normalised; such a candidate fails the eigenvalue test
    return cand / np.where(trace > 0.0, trace, 1.0)[:, None, None]


def _solve_hw(w: np.ndarray, d: int, cfg: OptimizerConfig):
    """Certified brackets on ||Theta o N||_dia for a stack of W = d R.

    Maximises the concave f(sigma) from sigma = I/d. Each step first tries
    the Anderson extrapolation of the last ``ANDERSON_DEPTH + 1`` iterates
    and their fixed-point images T(sigma) = Tr_out|M| / ||M||_1; it stands
    if its own bracket is narrower than the current iterate's. Otherwise the
    step falls back to a power step whose exponent doubles while the
    iterate's bracket narrows; a power step that widens it is retaken at
    exponent 1, the plain fixed point. The history is kept across such
    fallbacks. A trial sigma counts only if its eigenvalues exceed
    eps / ``cfg.tol``: the upper end carries a relative rounding error of up
    to about eps / lambda_min(sigma), which must stay below the tolerance.
    An input stops once its log2 bracket is at most ``cfg.tol`` wide, after
    ``cfg.max_iters`` steps, or when no trial counts. Returns, per input, log2
    of the best lower end and of the smallest upper end, the amplitude matrix
    sqrt(sigma*) of the best lower-end iterate, and the counts of steps,
    bracket evaluations (the start and rejected trials included) and
    accepted extrapolations.
    """
    n = w.shape[0]
    floor = np.finfo(float).eps / cfg.tol
    sigma = np.tile(np.eye(d, dtype=complex) / d, (n, 1, 1))
    root = np.tile(np.eye(d, dtype=complex) / math.sqrt(d), (n, 1, 1))
    state = (sigma, root) + _bracket(w, root, root * d)
    _, _, lower, g_vals, g_vecs, image = state
    upper, best_lower, best_root = g_vals[:, -1].copy(), lower.copy(), root.copy()
    # ring buffer of (sigma, T(sigma)): step t is in slot t % (ANDERSON_DEPTH + 1), and
    # all active inputs have taken equally many steps
    xs = np.zeros((n, ANDERSON_DEPTH + 1, d, d), dtype=complex)
    gs = np.zeros_like(xs)
    xs[:, 0], gs[:, 0] = sigma, image
    squarings, iters = np.zeros(n, dtype=int), np.zeros(n, dtype=int)
    evaluations, accelerated = np.ones(n, dtype=int), np.zeros(n, dtype=int)
    a = np.arange(n)
    while True:
        a = a[np.log2(upper[a]) - np.log2(best_lower[a]) > cfg.tol]
        if not a.size:
            break
        width = _width(state)[a]
        t = int(iters[a[0]])
        k = min(t + 1, ANDERSON_DEPTH + 1)
        todo = np.ones(a.size, dtype=bool)
        if k > 1:
            cand = _extrapolate(xs[a, :k], gs[a, :k], t % (ANDERSON_DEPTH + 1))
            valid, trial = _evaluate(w[a], cand, floor)
            won = valid & (_width(trial) < width)
            _store(state, a, trial, won)
            evaluations[a] += 1
            accelerated[a[won]] += 1
            todo = ~won
        s = a[todo]
        if s.size:
            valid, trial = _evaluate(w[s], _power(root[s], g_vals[s], g_vecs[s], squarings[s]), floor)
            evaluations[s] += 1
            # a power step stands when the iterate's own bracket narrows; at exponent 1 it
            # stands anyway
            narrowed = valid & (_width(trial) < width[todo])
            stands = narrowed | (valid & (squarings[s] == 0))
            retry = ~stands & (squarings[s] > 0)
            # alpha stops at 2**52, the scale set by the 2**-53 spacing of doubles below 1
            squarings[s] = np.where(narrowed, np.minimum(squarings[s] + 1, 52), 0)
            if retry.any():
                r = s[retry]
                plain = _power(root[r], g_vals[r], g_vecs[r], np.zeros_like(r))
                stands[retry], again = _evaluate(w[r], plain, floor)
                evaluations[r] += 1
                for arr, new in zip(trial, again):
                    arr[retry] = new
            _store(state, s, trial, stands)
            todo[todo] = ~stands
        # an input without a trial sigma far enough from singular stops here
        a = a[~todo]
        slot = (t + 1) % (ANDERSON_DEPTH + 1)
        xs[a, slot], gs[a, slot] = sigma[a], image[a]
        better = a[lower[a] > best_lower[a]]
        best_lower[better], best_root[better] = lower[better], root[better]
        upper[a] = np.fmin(upper[a], g_vals[a, -1])
        iters[a] += 1
        a = a[iters[a] < cfg.max_iters]
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
