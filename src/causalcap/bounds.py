"""Capacity upper bounds for qubit channels.

Four routes are implemented: the optimization-free causality bound (trace norm of the channel
PDM), the closed-form expression for shifted depolarizing channels, the Holevo-Werner comparison
bound as a certified bracket on a concave problem over the input marginal (in closed form with
no eigensolve where W = d R has the phase-covariant pattern of every named channel; else by the
Anderson-accelerated fixed point sigma <- T(sigma), on 1-qubit inputs in floats but for one
eigensolve per bracket), and a max-Rains surrogate from the partially transposed Choi matrix.
All read one operator on any qubit counts, the PDM R: :func:`pdm.pdm_from_channel` builds it and
its trace norm once per channel and keeps them on the channel for all bounds; the sweep builds no
channels but stacks its family's Kraus operators into R by a channel's arithmetic. Values are
qubits per use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import pdm as pdm_mod
from .channels import (
    QuantumChannel,
    check_shifted_depolarizing,
    choi_from_kraus,
    shifted_depolarizing_kraus,
)
from .linalg import (CPTP_ATOL, _integer, _real, eig_errstate, eigh_lo,  # noqa: F401
                     eigvalsh, eigvalsh_lo, partial_transpose, solve1, trace_norm)


@dataclass(frozen=True)
class OptimizerConfig:
    """Accepted by the Holevo-Werner entry points for compatibility; no effect.

    ``restarts`` must be an integer of at least 1 and ``seed`` one of at least 0, and neither
    changes a result: the solver is deterministic and, because the problem is concave,
    needs no restarts. Its bracket tolerance is ``CPTP_ATOL`` and its step cap
    ``MAX_ITERS``; neither is a setting.
    """

    restarts: int = 32
    seed: int = 0

    def __post_init__(self):
        _integer(self.restarts, "restarts", 1)
        _integer(self.seed, "seed", 0)


@dataclass(eq=False)  # by identity, as channels and PDMs: best_input is an array
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
    """Optimization-free capacity bound log2 ||R||_1, R the channel PDM, on any qubit counts.

    Q(N) <= log2 ||R||_1 holds for equal counts and padding keeps it: N o Tr_k gives J x I/2^k,
    N x |0><0| gives J x |0><0|, and neither moves Q or ||T_A J||_1. The ``qubits`` diagnostic
    is the input count.
    """
    return BoundReport(
        channel_label=c.label,
        method="causality",
        value=pdm_mod.causality_F(pdm_mod.pdm_from_channel(c)),
        diagnostics={"qubits": c.qubits_in},
    )


def analytic_shifted_depol(p: float, gamma: float) -> float:
    """Closed-form causality bound for the shifted depolarizing channel at one point."""
    p, gamma = _real(p, "p"), _real(gamma, "gamma")  # in doubles, as the channel is built
    check_shifted_depolarizing(p, gamma)
    return _analytic(p, gamma)


def _analytic(p: float, gamma: float) -> float:
    """:func:`analytic_shifted_depol` on a checked point."""
    root = math.sqrt(max(1.0 - 8.0 * p + 16.0 * p * p + 4.0 * gamma * gamma * p * p, 0.0))
    return math.log2(1.0 - p + 0.5 * root + 0.5 * abs(2.0 * p - root))


# Anderson mixing depth: the earlier (sigma, T(sigma)) pairs an extrapolated step mixes in
ANDERSON_DEPTH = 5
# the most steps a fixed-point solve takes
MAX_ITERS = 2000
_EPS, _TINY = float(np.finfo(float).eps), float(np.finfo(float).tiny)
# the least eigenvalue a trial input marginal may have (see _solve_hw)
_FLOOR = _EPS / CPTP_ATOL
_NOTE = "certified upper bound; best_input attains the lower end"
_NOTE_COVARIANT = "certified upper bound (phase-covariant); best_input attains the lower end"


def _bracket(w: np.ndarray, root: np.ndarray, inv_root):
    """Lower end f(sigma) = ||M||_1, upper end lambda_max(G) and image T(sigma) for one W.

    M = (A x I) W (A x I), A = ``root`` = sqrt(sigma), from two products on the input index
    (W is Hermitian: the second takes the first's conjugate transpose); G = A^-1 Tr_out|M| A^-1.
    Y = (A^-1 x I)|M|(A^-1 x I) >= +-W for any Hermitian A, so lambda_max(G) = ||Tr_out Y||_inf
    is an upper end; A^-1 scales the eps ||M|| error of M's eigensolve (see :func:`_solve_hw`)
    to a relative error of up to eps / lambda_min(sigma). T(sigma) = Tr_out|M| / ||M||_1. W is
    (dim, dim). At d = 2 A^-1 and K = Tr_out|M| are Pauli 4-tuples, T(sigma) a Bloch vector.
    """
    d, dim = root.shape[0], w.shape[0]
    x = (root @ w.reshape(d, -1)).reshape(dim, dim)
    mu, u = eigh_lo((root @ x.conj().T.reshape(d, -1)).reshape(dim, dim), signature="D->dD")
    abs_mu = np.abs(mu)
    marginal = (u * abs_mu).reshape(d, -1) @ u.reshape(d, -1).conj().T
    lower = sum(abs_mu.tolist())
    if d > 2:
        top = eigvalsh_lo(inv_root @ marginal @ inv_root, signature="D->d")[-1]
        return lower, float(top), marginal / lower
    (p, _), (q, r) = marginal.tolist()
    (b0, *b), k = inv_root, ((p.real + r.real) / 2, q.real, q.imag, (p.real - r.real) / 2)
    # G = (g0, g) = ((b0^2 + |b|^2) k0 + 2 b0 b.k, 2 (b0 k0 + b.k) b + (b0^2 - |b|^2) k)
    bk, bb = b[0] * k[1] + b[1] * k[2] + b[2] * k[3], b[0] * b[0] + b[1] * b[1] + b[2] * b[2]
    c, e, g0 = 2.0 * (b0 * k[0] + bk), b0 * b0 - bb, (b0 * b0 + bb) * k[0] + 2.0 * b0 * bk
    h = math.hypot(c * b[0] + e * k[1], c * b[1] + e * k[2], c * b[2] + e * k[3])  # G >= 0
    return lower, g0 + h, [k[1] / lower, k[2] / lower, k[3] / lower]


def _evaluate(w, sigma):
    """(sigma, sqrt(sigma), lower, lambda_max(G), T(sigma)) at one sigma, or None.

    None unless lambda_min(sigma) > ``_FLOOR`` (a NaN or a non-positive trace fails too), so
    that no sigma^(-1/2) is formed from a singular sigma. At d = 2 sigma is its Bloch vector s,
    I / 2 + s.(X, Y, Z), lambda = 1/2 -+ |s|, and with r = sqrt(det sigma) and t = sqrt(1 + 2 r),
    sqrt(sigma) = (sigma + r I) / t and sigma^(-1/2) = adj(sqrt(sigma)) / r. Else eigh.
    """
    if isinstance(sigma, list):
        norm = math.hypot(*sigma)
        if not 0.5 - norm > _FLOOR:
            return None
        r = math.sqrt((0.5 - norm) * (0.5 + norm))
        t = math.sqrt(1.0 + 2.0 * r)
        q, x, y, z = (0.5 + r) / t, sigma[0] / t, sigma[1] / t, sigma[2] / t
        root = np.array([[q + z, complex(x, -y)], [complex(x, y), q - z]])
        return (sigma, root, *_bracket(w, root, (q / r, -x / r, -y / r, -z / r)))
    vals, vecs = eigh_lo(sigma, signature="D->dD")
    if not vals[0] > _FLOOR:
        return None
    vh, sqrt_vals = vecs.conj().T, np.sqrt(vals)
    root, inv_root = (vecs * sqrt_vals) @ vh, (vecs / sqrt_vals) @ vh
    return (sigma, root, *_bracket(w, root, inv_root))


def _extrapolate(fs, gs, latest: int):
    """Anderson mix of k residuals fs = T(x) - x (as real rows) and images gs = T(x), (k, d, d).

    Minimises the residual over affine combinations of the pairs (Walker & Ni, SIAM J. Numer.
    Anal. 49, 1715, 2011) in the real Frobenius inner product, and returns the same combination
    of the images, trace-normalised. Differences are from the pair ``latest``, whose zero row gets
    coefficient 0; a Levenberg-Marquardt ridge keeps the Gram system, solved by the raw ``solve1``
    inside :func:`_solve_hw`'s ``eig_errstate``, nonsingular.
    """
    if isinstance(fs, list):  # d = 2, Bloch vectors: LDL^T in floats on 3 differences, 0-padded
        def dot(x, y):
            return x[0] * y[0] + x[1] * y[1] + x[2] * y[2]

        f, order = fs[latest], [k for k in range(len(fs)) if k != latest] + [latest] * (4 - len(fs))
        (a, ga), (b, gb), (c, gc) = [([p - q for p, q in zip(f, fs[k])], gs[k]) for k in order]
        aa, bb, cc = [dot(x, x) * (1.0 + 1e-12) + _TINY for x in (a, b, c)]
        ab, ac, ha = dot(a, b), dot(a, c), dot(a, f)
        lb, lc, e = ab / aa, ac / aa, dot(b, c) - ac / aa * ab
        db, yb = bb - lb * ab, dot(b, f) - lb * ha
        wc = (dot(c, f) - lc * ha - e / db * yb) / (cc - lc * ac - e / db * e)
        wb = (yb - e * wc) / db
        wa = ha / aa - lb * wb - lc * wc
        return [x - wa * (x - p) - wb * (x - q) - wc * (x - r)
                for x, p, q, r in zip(gs[latest], ga, gb, gc)]
    df = fs[latest] - fs
    gram = df @ df.T
    diag = gram.reshape(-1)[:: len(fs) + 1]  # the diagonal, as a writeable view
    diag += 1e-12 * diag + _TINY
    weights = solve1(gram, df @ fs[latest], signature="dd->d")
    weights[latest] += 1.0 - weights.sum()
    cand = (weights @ gs.reshape(len(gs), -1)).reshape(gs.shape[1:])
    trace = cand.trace().real
    # a non-positive trace cannot be normalised; such a candidate fails the eigenvalue test
    return cand / (trace if trace > 0.0 else 1.0)


@eig_errstate
def _solve_hw(w: np.ndarray, d: int):
    """Certified bracket on ||Theta o N||_dia for one W = d R: the fixed-point route.

    Maximises the concave f(sigma) from sigma = I/d. Each step first tries the Anderson
    extrapolation of the last min(``ANDERSON_DEPTH``, d^2 - 1) + 1 pairs (sigma, T(sigma) =
    Tr_out|M| / ||M||_1), kept if its bracket is narrower than the iterate's; else the plain
    fixed-point step sigma <- T(sigma). A trial solves M, and for d > 2 sigma and G, by the raw
    LAPACK gufuncs of :mod:`linalg`, under ``eig_errstate`` held once per solve, not once per
    call. A trial counts if its eigenvalues exceed eps / ``CPTP_ATOL``,
    as :func:`_bracket`'s upper end rounds. It stops at a log2 bracket of at most ``CPTP_ATOL``,
    after ``MAX_ITERS`` steps, or when no trial counts. Returns log2 of the best lower and least
    upper end, sqrt(sigma) at the best lower end, and the step, evaluation and extrapolation counts.
    """
    slots, root = min(ANDERSON_DEPTH, d * d - 1) + 1, np.eye(d, dtype=complex) / math.sqrt(d)
    # ring buffer of residuals T(sigma) - sigma and images T(sigma): step t in slot t % slots
    sigma, fs, gs = [0.0, 0.0, 0.0], [None] * slots, [None] * slots  # d = 2: Bloch vectors
    if d > 2:
        sigma, fs = np.eye(d) / d, np.empty((slots, 2 * d * d))
        gs = np.empty((slots, d, d), dtype=complex)
    lower, g_max, image = _bracket(w, root, root * d if d > 2 else (2**0.5, 0.0, 0.0, 0.0))
    upper, best_lower, best_root = g_max, lower, root
    evaluations, accelerated, t = 1, 0, 0
    while t < MAX_ITERS and math.log2(upper) - math.log2(best_lower) > CPTP_ATOL:
        fs[t % slots] = ([a - b for a, b in zip(image, sigma)] if d == 2
                         else (image - sigma).reshape(-1).view(float))
        gs[t % slots], won = image, False
        if t:
            trial = _evaluate(w, _extrapolate(fs[: t + 1], gs[: t + 1], t % slots))
            won = trial is not None and trial[3] - trial[2] < g_max - lower
            evaluations, accelerated = evaluations + 1, accelerated + won
        if not won:
            trial, evaluations = _evaluate(w, image), evaluations + 1
            if trial is None:  # no trial counts, and the ends stay; else the step stands
                break
        sigma, root, lower, g_max, image = trial
        t += 1
        if lower > best_lower:
            best_lower, best_root = lower, root
        upper = min(upper, g_max)
    counts = t, evaluations, accelerated
    # the value lies in [lower, upper]; an upper end below the lower end is rounding
    return np.log2(best_lower), np.log2(max(upper, best_lower)), best_root, counts


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


def _solve_covariant(flat):
    """Certified bracket for one phase-covariant 4x4 W = 2R in plain floats: the closed form.

    ``flat`` is R as 16 Python numbers, row-major; None unless every entry off the pattern is
    exactly zero. Only what the bracket reads is doubled, exactly (2 Re z = (2z).real as R's
    diagonal has imaginary parts +0.0). Some diag(s, 1-s) is optimal (Holevo & Werner, PRA 63,
    032312, 2001). An I/2 bracket that closes to ``CPTP_ATOL`` is returned as :func:`_solve_hw`
    returns it after 0 steps; else :func:`_sigma_star` picks s*, bracketed too unless within eps /
    ``CPTP_ATOL`` of 0 or 1 (f is flat there). Returns log2 of the two ends, the s of the lower
    end and the sigma bracketed.
    """
    r00, r01, r02, r03, r10, r11, r12, r13, r20, r21, r22, r23, r30, r31, r32, r33 = flat
    if any((r01, r02, r03, r10, r13, r20, r23, r30, r31, r32)):  # off the pattern
        return None
    w00, w11, w22, w33 = 2.0 * r00.real, 2.0 * r11.real, 2.0 * r22.real, 2.0 * r33.real
    a12 = 2.0 * abs(r12)
    lower, upper = _covariant_ends(w00, w11, w22, w33, a12, 0.5)
    s_lower, evaluations = 0.5, 1
    if math.log2(upper) - math.log2(lower) > CPTP_ATOL:
        s = _sigma_star(w00, w11, w22, w33, a12)
        if _FLOOR < s < 1.0 - _FLOOR:
            lower_s, upper_s = _covariant_ends(w00, w11, w22, w33, a12, s)
            if lower_s > lower:
                lower, s_lower = lower_s, s
            upper, evaluations = min(upper, upper_s), 2
    # the value lies in [lower, upper]; an upper end below the lower end is rounding
    return math.log2(lower), math.log2(max(upper, lower)), s_lower, evaluations


def hw_bound(c: QuantumChannel, cfg: OptimizerConfig = OptimizerConfig()) -> BoundReport:
    """Holevo-Werner comparison bound log2 ||Theta o N||_dia (Theta the transpose).

    A pure input with amplitude matrix Psi (reference x system) has output K W K^dag, K =
    Psi x I, W = d R (d = d_in, R the channel PDM; qubit counts may differ), whose trace norm
    is concave in sigma = Psi^dag Psi. A 1-qubit channel's W, read once from R and doubled,
    takes :func:`_solve_covariant` if its only nonzero entries are w00, w11, w22, w33 and w12 =
    w21*, exactly; any other W :func:`_solve_hw`; ``note`` names the route. ``value`` is a
    certified upper bound; ``best_input`` attains ``lower``. Both routes evaluate sigma = I/d,
    so ``value`` <= log2 lambda_max(Tr_out|W|); and sigma = I/d attains ||R||_1, so rounding
    below the causality bound F(R) >= 0, below zero included, is raised to F(R).
    ``cfg`` has no effect (:class:`OptimizerConfig`).
    """
    dim, r = c.dim_in, pdm_mod.pdm_from_channel(c)
    closed = c.qubits_in == c.qubits_out == 1 and _solve_covariant(r.matrix.ravel().tolist())
    if closed:
        lower, upper, s, evaluations = closed
        a, b = math.sqrt(s), math.sqrt(1.0 - s)
        rho = np.zeros((4, 4), dtype=complex)  # outer(a|00> + b|11>), imaginary parts +0.0
        rho[0, 0], rho[0, 3], rho[3, 0], rho[3, 3] = a * a, a * b, a * b, b * b
        steps, accelerated, note = 0, 0, _NOTE_COVARIANT
    else:
        lower, upper, root, (steps, evaluations, accelerated) = _solve_hw(dim * r.matrix, dim)
        rho, note = np.outer(root, root.conj()), _NOTE  # np.outer flattens root
    value, low = max(float(upper), pdm_mod.causality_F(r)), float(lower)
    return BoundReport(
        channel_label=c.label,
        method="holevo_werner",
        value=value,
        diagnostics={
            "restarts": 1,
            "iterations": steps, "evaluations": evaluations, "accelerated_steps": accelerated,
            "converged_restarts": int(value - low <= CPTP_ATOL),
            "tolerance": CPTP_ATOL,
            "lower": low,
            "gap": value - low,
            "note": note,
        },
        best_input=rho,
    )


def maxrains_surrogate(c: QuantumChannel) -> BoundReport:
    """Upper-bound surrogate from the partially transposed Choi matrix.

    The value is log2 of the trace norm of T_B(Choi), the full transpose of T_A(Choi), the
    channel PDM R: the two share a spectrum, so the value is the causality bound on any qubit
    counts, read from R's stored norm. ``log2_inf_norm`` records the tighter infinity-norm
    intermediate of R as computed (each qubit padded onto the input would halve max|lambda|),
    from one eigensolve of R, which is Hermitian by construction.
    """
    r = pdm_mod.pdm_from_channel(c)
    spectrum = eigvalsh(r.matrix)  # ascending: max|lambda| is at one end
    return BoundReport(
        channel_label=c.label,
        method="maxrains_surrogate",
        value=pdm_mod.causality_F(r),
        diagnostics={"log2_inf_norm": math.log2(max(-spectrum[0], spectrum[-1]))},
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

    Builds no channels: R = T_A(J), J from :func:`channels.choi_from_kraus` of the stacked
    :func:`channels.shifted_depolarizing_kraus` as for a channel, gives the causality column
    (one batched eigensolve) and HW (:func:`_solve_covariant` on each row of R.tolist(), with
    :func:`hw_bound`'s floor), bit for bit as channel-built. Each grid is a sequence of finite
    real numbers, or one such number. ``cfg`` and ``workers`` do nothing.
    """
    ps, gs = ([_real(x, name) for x in np.atleast_1d(grid).tolist()]
              for grid, name in ((p_grid, "p"), (gamma_grid, "gamma")))
    points = np.array([(p, g) for p in ps for g in gs], dtype=float).reshape(-1, 2)
    if not points.size:  # an empty grid: there is no R to stack
        return []
    j = choi_from_kraus(shifted_depolarizing_kraus(*points.T))
    r = partial_transpose(j, (2, 2), 0)
    norms = np.abs(eigvalsh(r)).sum(axis=1).tolist()  # R is exactly Hermitian
    rows = []
    for (p, g), norm, flat in zip(points.tolist(), norms, r.reshape(-1, 16).tolist()):
        caus = pdm_mod.clamp_log2(math.log2(norm))
        value = max(_solve_covariant(flat)[1], caus)  # as in hw_bound
        rows.append(SweepRow(p, g, caus, _analytic(p, g), value, value - caus))
    return rows
