"""Capacity upper bounds for qubit channels.

Four routes are implemented: the optimization-free causality bound (trace norm of the
channel PDM), the closed-form expression for shifted depolarizing channels, the
Holevo-Werner comparison bound as a certified bracket on a concave problem over the input
marginal (in closed form, in plain floats with no eigensolve, where W = d R has the
phase-covariant pattern of every named channel; else by a fixed-point solve), and a
max-Rains surrogate from the partially transposed Choi matrix. All read one operator, the
PDM R: :func:`pdm.pdm_from_channel` builds it and its trace norm once per channel and holds
them weakly, for every bound to share; the sweep builds no channels and reads its family's
closed-form R. All values are in qubits per channel use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import pdm as pdm_mod
from .channels import QuantumChannel, check_shifted_depolarizing, shifted_depolarizing_choi
from .linalg import CPTP_ATOL, HERM_ATOL, partial_transpose, trace_norm  # noqa: F401


@dataclass(frozen=True)
class OptimizerConfig:
    """Accepted by the Holevo-Werner entry points for compatibility; no effect.

    ``restarts`` must be at least 1, and neither it nor ``seed`` changes a
    result: the solver is deterministic and, because the problem is concave,
    needs no restarts. Its bracket tolerance is ``CPTP_ATOL`` and its step cap
    ``MAX_ITERS``; neither is a setting.
    """

    restarts: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be at least 1")


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
    check_shifted_depolarizing(p, gamma)
    root = math.sqrt(max(1.0 - 8.0 * p + 16.0 * p * p + 4.0 * gamma * gamma * p * p, 0.0))
    return math.log2(1.0 - p + 0.5 * root + 0.5 * abs(2.0 * p - root))


# Anderson mixing depth: the earlier (sigma, T(sigma)) pairs an extrapolated step mixes in
ANDERSON_DEPTH = 5
# the most steps a fixed-point solve takes
MAX_ITERS = 2000
_EPS, _TINY = np.finfo(float).eps, np.finfo(float).tiny
# the least eigenvalue a trial input marginal may have (see _solve_hw)
_FLOOR = _EPS / CPTP_ATOL
# the flat indices off the phase-covariant 4x4 pattern: all but w00, w11, w12, w21, w22, w33
_OFF_PATTERN = (1, 2, 3, 4, 7, 8, 11, 12, 13, 14)


def _bracket(w4: np.ndarray, root: np.ndarray, inv_root: np.ndarray):
    """Lower end f(sigma) = ||M||_1, eigenpairs of G and image T(sigma) for one W.

    W comes reshaped to (d, d_out, d, d_out). M = (sqrt(sigma) x I) W (sqrt(sigma) x I),
    G = sigma^(-1/2) Tr_out|M| sigma^(-1/2). Y = (sigma^(-1/2) x I)|M|(sigma^(-1/2) x I)
    satisfies Y >= +-W, so lambda_max(G) = ||Tr_out Y||_inf is an upper end; its relative
    rounding error is up to eps / lambda_min(sigma), as sigma^(-1/2) scales the eps ||M||
    error of the eigensolve. T(sigma) = Tr_out|M| / ||M||_1 is the plain fixed-point image.
    """
    d, d_out = w4.shape[:2]
    m = np.einsum("ab,bicj,cd->aidj", root, w4, root).reshape(d * d_out, -1)
    mu, u = np.linalg.eigh(m)
    abs_mu, u3 = np.abs(mu), u.reshape(d, d_out, -1)
    marginal = np.einsum("aik,k,bik->ab", u3, abs_mu, u3.conj())
    lower = abs_mu.sum()
    g_vals, g_vecs = np.linalg.eigh(inv_root @ marginal @ inv_root)
    return lower, g_vals, g_vecs, marginal / lower


def _evaluate(w4, sigma):
    """Iterates (sigma, sqrt(sigma), lower, G eigenpairs, T(sigma)) at one sigma.

    Also returns whether every eigenvalue of sigma is above ``_FLOOR``. If not,
    sigma is evaluated with its eigenvalues raised to ``_FLOOR``, so that no
    sigma^(-1/2) is formed from a singular sigma; callers discard it.
    """
    vals, vecs = np.linalg.eigh(sigma)
    vh, sqrt_vals = vecs.conj().T, np.sqrt(np.fmax(vals, _FLOOR))
    root = (vecs * sqrt_vals) @ vh
    return vals[0] > _FLOOR, (sigma, root, *_bracket(w4, root, (vecs / sqrt_vals) @ vh))


def _power(root, g_vals, g_vecs, squarings: int):
    """normalise(sqrt(sigma) (G / lambda_max G)^alpha sqrt(sigma)), alpha = 2**squarings."""
    ratio = np.maximum(g_vals, 0.0) / g_vals[-1]
    for _ in range(squarings):
        ratio = ratio * ratio
    sigma = root @ ((g_vecs * ratio) @ g_vecs.conj().T) @ root
    return sigma / sigma.trace().real


def _extrapolate(xs: np.ndarray, gs: np.ndarray, latest: int) -> np.ndarray:
    """Anderson mix of iterates xs and their images gs = T(xs), shape (k, d, d).

    Minimises the residual F = T(x) - x over affine combinations of the k
    stored pairs (Walker & Ni, SIAM J. Numer. Anal. 49, 1715, 2011) in the
    real Frobenius inner product, and returns the same combination of the
    images, trace-normalised. Differences are taken from the pair at index
    ``latest``. A Levenberg-Marquardt ridge keeps the Gram system nonsingular.
    """
    k = xs.shape[0]
    others = [j for j in range(k) if j != latest]
    f = (gs - xs).reshape(k, -1).view(float)
    df = f[latest] - f[others]
    gram = df @ df.T
    diag = gram.reshape(-1)[::k]  # the diagonal, as a writeable view
    diag += 1e-12 * diag + _TINY
    coef = np.linalg.solve(gram, df @ f[latest, :, None]).T
    dg = (gs[latest] - gs[others]).reshape(k - 1, -1)
    cand = gs[latest] - (coef @ dg).reshape(gs.shape[1:])
    trace = cand.trace().real
    # a non-positive trace cannot be normalised; such a candidate fails the eigenvalue test
    return cand / (trace if trace > 0.0 else 1.0)


def _solve_hw(w: np.ndarray, d: int):
    """Certified bracket on ||Theta o N||_dia for one W = d R: the fixed-point route.

    Maximises the concave f(sigma) from sigma = I/d. Each step first tries the Anderson
    extrapolation of the last ``ANDERSON_DEPTH + 1`` pairs (sigma, T(sigma) = Tr_out|M| /
    ||M||_1), kept if its bracket is narrower than the iterate's; else a power step, whose
    exponent doubles while the bracket narrows and is retaken at 1 (the plain fixed point)
    when it widens. A trial counts only if its eigenvalues exceed eps / ``CPTP_ATOL``, for
    the rounding of :func:`_bracket`'s upper end. The solve stops at a log2 bracket of at
    most ``CPTP_ATOL``, after ``MAX_ITERS`` steps, or when no trial counts. Returns log2 of
    the best lower and smallest upper end, sqrt(sigma) of the best lower end, and the
    counts of steps, bracket evaluations and extrapolations.
    """
    dim, slots = w.shape[0], ANDERSON_DEPTH + 1
    w4 = w.reshape(d, dim // d, d, dim // d)
    root = np.eye(d, dtype=complex) / math.sqrt(d)
    lower, g_vals, g_vecs, image = _bracket(w4, root, root * d)
    upper, best_lower, best_root = g_vals[-1], lower, root
    # ring buffer of (sigma, T(sigma)): step t is in slot t % slots
    xs = np.tile(np.eye(d, dtype=complex) / d, (slots, 1, 1))
    gs = np.tile(image, (slots, 1, 1))
    evaluations, accelerated, squarings, t = 1, 0, 0, 0
    while t < MAX_ITERS and np.log2(upper) - np.log2(best_lower) > CPTP_ATOL:
        width, won = g_vals[-1] - lower, False
        if t:
            valid, trial = _evaluate(w4, _extrapolate(xs[: t + 1], gs[: t + 1], t % slots))
            won = bool(valid and trial[3][-1] - trial[2] < width)
            evaluations, accelerated = evaluations + 1, accelerated + won
        if not won:
            valid, trial = _evaluate(w4, _power(root, g_vals, g_vecs, squarings))
            narrowed = bool(valid and trial[3][-1] - trial[2] < width)
            if not narrowed and squarings:  # retaken at exponent 1
                valid, trial = _evaluate(w4, _power(root, g_vals, g_vecs, 0))
                evaluations += 1
            evaluations += 1
            # alpha stops at 2**52, the scale set by the 2**-53 spacing of doubles below 1
            squarings = min(squarings + 1, 52) if narrowed else 0
            # a power step stands if it narrows the iterate's bracket, and at exponent 1 anyway
            if not (narrowed or valid):  # no trial counts: the ends stay as they are
                break
        sigma, root, lower, g_vals, g_vecs, image = trial
        t += 1
        xs[t % slots], gs[t % slots] = sigma, image
        if lower > best_lower:
            best_lower, best_root = lower, root
        upper = np.fmin(upper, g_vals[-1])
    counts = {"iterations": t, "evaluations": evaluations, "accelerated_steps": accelerated}
    # the value lies in [lower, upper]; an upper end below the lower end is rounding
    return np.log2(best_lower), np.log2(np.fmax(upper, best_lower)), best_root, counts


def _sigma_star(w00: float, w11: float, w22: float, w33: float, a12: float) -> float:
    """s* for one phase-covariant W, from its diagonal and a12 = |w12|, in plain floats.

    f(s) = s w00 + (1-s) w33 + max(t, sqrt(t^2 - 4 s(1-s) det)), with t = s w11 + (1-s) w22
    and det = w11 w22 - a12^2. f'(s) = 0 squares to a quadratic with roots centre -+
    spread. Each candidate in (root, root, 0, 1/2, 1) that is not real or not in [0, 1]
    is replaced by 1/2, and the first that maximises f wins.
    """
    det, slope, gap = w11 * w22 - a12 * a12, w00 - w33, w11 - w22
    alpha, beta = gap * gap + 4.0 * det, 2.0 * w22 * gap - 4.0 * det
    pair, den = (0.5, 0.5), alpha - slope * slope
    if alpha != 0.0 and den != 0.0:  # else the quadratic has no finite roots
        centre = -beta / (2.0 * alpha)
        ratio = (w22 * w22 / alpha - centre * centre) / den
        if ratio >= 0.0:  # else the roots are not real
            spread = abs(slope) * math.sqrt(ratio)
            pair = (centre - spread, centre + spread)
    best, best_f = 0.5, -math.inf
    for s in (*pair, 0.0, 0.5, 1.0):
        s = s if 0.0 <= s <= 1.0 else 0.5
        t = s * w11 + (1.0 - s) * w22
        disc = t * t - 4.0 * s * (1.0 - s) * det
        f = s * w00 + (1.0 - s) * w33 + (max(t, math.sqrt(disc)) if disc >= 0.0 else t)
        if f > best_f:
            best, best_f = s, f
    return best


def _covariant_ends(w00, w11, w22, w33, a12, s):
    """The ends (||M||_1, lambda_max(G)) of one phase-covariant W at sigma = diag(s, 1-s).

    M = m00 (+) B (+) m33, B = [[b11, r w12], [r w21, b22]] = [[s w11, .], [., (1-s) w22]],
    r^2 = s(1-s), with eigenvalues t/2 -+ rad. Its projectors give |B| = +-B where both share
    the sign of t (B semidefinite or degenerate), else diag|B| = (b11^2 + q, b22^2 + q) /
    (2 rad). Tr_out|M| = diag(|m00| + |B|11, |B|22 + |m33|), so G is diagonal too.
    """
    b11, b22, r2 = s * w11, (1.0 - s) * w22, s * (1.0 - s)
    t, rad = b11 + b22, math.hypot(0.5 * (b11 - b22), math.sqrt(r2) * a12)
    if abs(t) >= 2.0 * rad:
        norm_b, abs11, abs22 = abs(t), abs(b11), abs(b22)
    else:  # det B < 0, so a12^2 > w11 w22 and q > 0: the diagonal has no cancellation
        q, norm_b = r2 * (2.0 * a12 * a12 - w11 * w22), 2.0 * rad
        abs11, abs22 = (b11 * b11 + q) / norm_b, (b22 * b22 + q) / norm_b
    m00, m33 = abs(s * w00), abs((1.0 - s) * w33)
    return m00 + m33 + norm_b, max((m00 + abs11) / s, (abs22 + m33) / (1.0 - s))


def _solve_covariant(w: np.ndarray):
    """Certified bracket for one phase-covariant 4x4 W in plain floats: the closed-form route.

    Some diag(s, 1-s) is optimal (Holevo & Werner, PRA 63, 032312, 2001); :func:`_sigma_star`
    picks s*. An I/2 bracket that closes to ``CPTP_ATOL`` is returned as :func:`_solve_hw`
    returns it after 0 steps; else sigma* is bracketed too, unless s* is within eps /
    ``CPTP_ATOL`` of 0 or 1 (f is flat there). The entries E off the pattern move each end
    by delta = sum |e_ij|: ||(sqrt(sigma) x I) E (sqrt(sigma) x I)||_1 <= delta, and E has a
    zero diagonal, so +-E <= delta I / 2. Returns log2 of the lower and upper end, the s of
    the lower end and the number of sigma bracketed.
    """
    flat = w.ravel().tolist()
    w00, w11, w22, w33 = (flat[k].real for k in (0, 5, 10, 15))
    a12, delta = abs(flat[6]), sum(abs(flat[k]) for k in _OFF_PATTERN)
    lower, upper = _covariant_ends(w00, w11, w22, w33, a12, 0.5)
    lower, upper, s_lower, evaluations = lower - delta, upper + delta, 0.5, 1
    s = _sigma_star(w00, w11, w22, w33, a12)
    if math.log2(upper) - math.log2(lower) > CPTP_ATOL and _FLOOR < s < 1.0 - _FLOOR:
        lower_s, upper_s = _covariant_ends(w00, w11, w22, w33, a12, s)
        if lower_s - delta > lower:
            lower, s_lower = lower_s - delta, s
        upper, evaluations = min(upper, upper_s + delta), 2
    # the value lies in [lower, upper]; an upper end below the lower end is rounding
    return math.log2(lower), math.log2(max(upper, lower)), s_lower, evaluations


def hw_bound(c: QuantumChannel, cfg: OptimizerConfig = OptimizerConfig()) -> BoundReport:
    """Holevo-Werner comparison bound log2 ||Theta o N||_dia (Theta the transpose).

    A pure input with amplitude matrix Psi (reference x system) has output K W K^dag,
    K = Psi x I, W = d R (R the channel PDM), whose trace norm is concave in sigma =
    Psi^dag Psi. A 4x4 W with entries only at w00, w11, w22, w33 and w12 = w21* (to
    ``HERM_ATOL``) takes :func:`_solve_covariant`, any other W :func:`_solve_hw`; ``note``
    names the route. ``value`` is a certified upper bound; ``best_input`` attains ``lower``,
    or on the closed form at least ``lower``. Both routes evaluate sigma = I/d, so ``value``
    <= log2 lambda_max(Tr_out|W|), on the closed form plus delta (about 3e-15 at most); and
    sigma = I/d attains ||R||_1, so rounding below the causality bound F(R) >= 0, below zero
    included, is raised to F(R). ``cfg`` has no effect (:class:`OptimizerConfig`).
    """
    dim, r = c.dim_in, pdm_mod.pdm_from_channel(c)
    w, note = dim * r.matrix, "certified upper bound; best_input attains the lower end"
    if w.shape == (4, 4) and np.abs(w.take(_OFF_PATTERN)).max() <= HERM_ATOL:
        lower, upper, s, evaluations = _solve_covariant(w)
        root = np.diag([math.sqrt(s), math.sqrt(1.0 - s)]).astype(complex)
        counts = {"iterations": 0, "evaluations": evaluations, "accelerated_steps": 0}
        note = "certified upper bound (phase-covariant); best_input attains the lower end"
    else:
        lower, upper, root, counts = _solve_hw(w, dim)
    value = max(float(upper), pdm_mod.causality_F(r))
    low, amp = float(lower), root.reshape(-1)
    return BoundReport(
        channel_label=c.label,
        method="holevo_werner",
        value=value,
        diagnostics={
            "restarts": 1,
            **counts,
            "converged_restarts": int(value - low <= CPTP_ATOL),
            "tolerance": CPTP_ATOL,
            "lower": low,
            "gap": value - low,
            "note": note,
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


def compare_bounds(c: QuantumChannel) -> dict[str, BoundReport]:
    """All applicable bounds for one channel, keyed by method."""
    caus = causality_bound(c)
    hw = hw_bound(c)
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

    Builds no channels: R = T_A(J) of :func:`channels.shifted_depolarizing_choi` gives the
    causality column (one batched eigensolve) and HW (:func:`_solve_covariant` per row, with
    :func:`hw_bound`'s floor), which may differ in the last bits from the
    channel-built bounds. ``cfg`` and ``workers`` have no effect.
    """
    points = np.array([(p, g) for p in p_grid for g in gamma_grid], dtype=float).reshape(-1, 2)
    if not points.size:  # an empty grid: there is no R to stack
        return []
    r = np.array([partial_transpose(j, (2, 2), 0) for j in shifted_depolarizing_choi(*points.T)])
    norms = np.abs(np.linalg.eigvalsh(r)).sum(axis=1).tolist()  # R is exactly Hermitian
    rows = []
    for (p, g), norm, w in zip(points.tolist(), norms, 2.0 * r):
        caus = pdm_mod.clamp_log2(math.log2(norm))
        value = max(_solve_covariant(w)[1], caus)  # as in hw_bound
        rows.append(SweepRow(p, g, caus, analytic_shifted_depol(p, g), value, value - caus))
    return rows
