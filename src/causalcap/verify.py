"""Verification utilities: fidelities, trace-distance inequalities, and
randomized suites for the structural identities the bounds rely on.

Acceptance criteria 6 and 9 run the pdm, lemmas and fidelity suites, and
``causalcap verify`` runs any suite with a chosen case count and seed; failures
are counted and reported, not raised. Every suite runs its cases through one
loop with one rule: ``cases`` must be at least 1 and ``seed`` non-negative,
and a case fails when its worst margin exceeds ``CPTP_ATOL`` (``HERM_ATOL``
for the swap intertwining residual).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import bounds as bounds_mod
from . import pdm as pdm_mod
from .channels import (
    QuantumChannel,
    compose,
    from_kraus,
    named_channel,
    random_channel,
    shifted_depolarizing,
    tensor,
)
from .linalg import (
    CPTP_ATOL,
    HERM_ATOL,
    random_density,
    random_isometry,
    random_unitary,
    require_state,
    trace_norm,
)


def _sqrtm_psd(m: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(m)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Uhlmann fidelity Tr sqrt(sqrt(rho) sigma sqrt(rho)), in [0, 1]."""
    rho = require_state(rho)
    sigma = require_state(sigma)
    if rho.shape != sigma.shape:
        raise ValueError(f"state shapes differ: {rho.shape} vs {sigma.shape}")
    root = _sqrtm_psd(rho)
    inner = root @ sigma @ root
    vals = np.linalg.eigvalsh(0.5 * (inner + inner.conj().T))
    return float(np.sqrt(np.clip(vals, 0.0, None)).sum())


def entanglement_fidelity(rho: np.ndarray, c: QuantumChannel) -> float:
    """Schumacher entanglement fidelity, sum_k |Tr(rho A_k)|^2."""
    rho = require_state(rho)
    if rho.shape != (c.dim_in, c.dim_in):
        raise ValueError(f"state shape {rho.shape} does not match channel input")
    return float(sum(abs(np.trace(rho @ a)) ** 2 for a in c.kraus))


@dataclass(frozen=True)
class FidelityCheckRecord:
    """Fidelity, half trace distance, and the two inequality gaps."""

    f: float
    half_trace_dist: float
    lower_gap: float
    upper_gap: float


def fvg_check(rho: np.ndarray, sigma: np.ndarray) -> FidelityCheckRecord:
    """Evaluate both fidelity/trace-distance inequality gaps for a state pair."""
    f = fidelity(rho, sigma)
    htd = 0.5 * trace_norm(np.asarray(rho, dtype=complex) - np.asarray(sigma, dtype=complex))
    return FidelityCheckRecord(
        f=f,
        half_trace_dist=htd,
        lower_gap=htd - (1.0 - f),
        upper_gap=math.sqrt(max(1.0 - f * f, 0.0)) - htd,
    )


@dataclass
class SuiteResult:
    """Pass/fail summary of one randomized verification suite."""

    name: str
    cases: int
    failures: int
    worst_margin: float
    notes: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.failures == 0


def _case_rng(seed: int, case: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, case]))


def _random_single_qubit_channel(rng: np.random.Generator) -> QuantumChannel:
    return random_channel(1, 1, env_qubits=2, seed=int(rng.integers(2**31)))


def _cases(name, seed, first, cases, margins, tol=CPTP_ATOL, fixed=()) -> SuiteResult:
    """Run one suite: ``cases`` random cases, then the ``fixed`` margin lists.

    Random case i passes the generator of case ``first + i`` to ``margins``, which
    returns that case's margins. A case fails when its largest margin exceeds
    ``tol``; the suite's worst margin is the largest over its cases.
    """
    if cases < 1:
        raise ValueError("cases must be at least 1")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    drawn = [margins(_case_rng(seed, first + i)) for i in range(cases)]
    worst = [max(case) for case in drawn + list(fixed)]
    return SuiteResult(name, len(worst), sum(1 for m in worst if m > tol), max(worst))


def _lemma2_margins(rng: np.random.Generator) -> list:
    k = int(rng.integers(1, 3))
    m = int(rng.integers(k, 3))
    enc = from_kraus([random_isometry(2**m, 2**k, rng)], k, m)
    mid = random_channel(m, m, env_qubits=1, seed=int(rng.integers(2**31)))
    dec = random_channel(m, k, env_qubits=m - k + 1, seed=int(rng.integers(2**31)))
    f_mid = pdm_mod.causality_F(pdm_mod.pdm_from_channel(mid))
    f_all = pdm_mod.causality_F(pdm_mod.pdm_from_channel(compose(dec, compose(mid, enc))))
    return [f_all - f_mid]


def lemma2_suite(seed: int = 0, cases: int = 100) -> SuiteResult:
    """Causality never increases under isometric encoding plus decoding.

    Each case draws a random channel N on m qubits, a random isometric
    encoding from k to m qubits and a random decoding back to k qubits, and
    fails if the composite's causality exceeds N's by more than ``CPTP_ATOL``.
    """
    return _cases("lemma2", seed, 0, cases, _lemma2_margins)


def _pdm_margins(rng: np.random.Generator) -> list:
    chan = _random_single_qubit_channel(rng)
    r = pdm_mod.pdm_from_channel(chan)
    f_r = pdm_mod.causality_F(r)
    # nonnegativity, and exactly zero on separable product PDMs
    sep = np.kron(random_density(2, rng), random_density(2, rng))
    f_sep = pdm_mod.causality_F(pdm_mod.PseudoDensityMatrix(sep, 1, 1))
    margins = [-f_r, abs(f_sep)]
    # invariance under local change of basis
    u = np.kron(random_unitary(2, rng), random_unitary(2, rng))
    rotated = pdm_mod.PseudoDensityMatrix(u @ r.matrix @ u.conj().T, 1, 1)
    margins.append(abs(pdm_mod.causality_F(rotated) - f_r))
    # convex mixtures never exceed the worst component
    other = pdm_mod.pdm_from_channel(_random_single_qubit_channel(rng))
    w = float(rng.uniform(0.0, 1.0))
    mix = pdm_mod.PseudoDensityMatrix(w * r.matrix + (1.0 - w) * other.matrix, 1, 1)
    margins.append(pdm_mod.causality_F(mix) - max(f_r, pdm_mod.causality_F(other)))
    # additivity over tensor products
    prod = pdm_mod.PseudoDensityMatrix(np.kron(r.matrix, other.matrix), 2, 2)
    margins.append(abs(pdm_mod.causality_F(prod) - f_r - pdm_mod.causality_F(other)))
    return margins


def suite_pdm(seed: int = 0, cases: int = 100) -> SuiteResult:
    """Causality-measure properties: nonnegativity, basis invariance, convexity, additivity."""
    return _cases("pdm", seed, 0, cases, _pdm_margins)


def _intertwining_margins(rng: np.random.Generator) -> list:
    k = int(rng.integers(1, 3))
    m = int(rng.integers(k, 3))
    return [pdm_mod.lemma1_check(random_isometry(2**m, 2**k, rng), k, m)]


def suite_lemmas(seed: int = 0, cases: int = 50) -> SuiteResult:
    """Swap intertwining residuals plus the encoding/decoding monotonicity."""
    swap = _cases("lemmas", seed, 10_000, cases, _intertwining_margins, HERM_ATOL)
    mono = lemma2_suite(seed=seed, cases=cases)
    residual = max(swap.worst_margin, 0.0)
    cases, failures = swap.cases + mono.cases, swap.failures + mono.failures
    note = f"worst intertwining residual {residual:.3e}"
    return SuiteResult("lemmas", cases, failures, max(residual, mono.worst_margin), [note])


def _fidelity_margins(rng: np.random.Generator) -> list:
    rho, sigma = random_density(2, rng), random_density(2, rng)
    rec, chan = fvg_check(rho, sigma), _random_single_qubit_channel(rng)
    routes = entanglement_fidelity(rho, chan) - _entanglement_fidelity_purified(rho, chan)
    return [-rec.lower_gap, -rec.upper_gap, abs(routes)]


def suite_fidelity(seed: int = 0, cases: int = 100) -> SuiteResult:
    """Fidelity inequality gaps and the two entanglement-fidelity routes."""
    return _cases("fidelity", seed, 20_000, cases, _fidelity_margins)


def _entanglement_fidelity_purified(rho: np.ndarray, c: QuantumChannel) -> float:
    """Independent route: overlap of a purification with the evolved purification."""
    vals, vecs = np.linalg.eigh(rho)
    dim = rho.shape[0]
    # purification |phi> = sum_i sqrt(l_i) |v_i> x |i>: V sqrt(l) flattened row by row
    phi = (vecs * np.sqrt(np.clip(vals, 0.0, None))).reshape(-1)
    proj = np.outer(phi, phi.conj())
    evolved = np.zeros_like(proj)
    eye = np.eye(dim, dtype=complex)
    for a in c.kraus:
        ext = np.kron(a, eye)
        evolved += ext @ proj @ ext.conj().T
    return float(np.real(phi.conj() @ evolved @ phi))


def _closed_form_margins(rng: np.random.Generator) -> list:
    p, gamma = float(rng.uniform(0.0, 0.25)), float(rng.uniform(0.0, 1.0))
    caus = bounds_mod.causality_bound(shifted_depolarizing(p, gamma)).value
    return [abs(bounds_mod.analytic_shifted_depol(p, gamma) - caus)]


def _hw_margins(chan: QuantumChannel) -> list:
    caus = bounds_mod.causality_bound(chan).value
    hw = bounds_mod.hw_bound(chan).diagnostics
    return [caus - hw["lower"], hw["gap"]]


def _additivity_margins(chan: QuantumChannel) -> list:
    one, two = bounds_mod.hw_bound(chan), bounds_mod.hw_bound(tensor(chan, chan))
    return [2.0 * one.diagnostics["lower"] - two.value, two.diagnostics["lower"] - 2.0 * one.value]


def suite_bounds(seed: int = 0, cases: int = 100) -> SuiteResult:
    """The paper's closed form, the HW bracket and HW additivity.

    Each random case draws (p, gamma) uniformly from [0, 1/4] x [0, 1], where the closed form
    ``analytic_shifted_depol`` must equal the causality bound of the channel built from its
    Kraus operators, two independent routes. Six fixed cases follow the random ones: the
    certified HW bracket on three closed-form channels and one fixed-point solve (7 steps),
    whose lower end, attained by an input, is at least causality and which closes to tolerance;
    and, for amplitude damping 0.3 and a random channel N, the brackets of 2 HW(N) and of
    HW(N x N) (a 16x16 fixed-point solve) must overlap, as the diamond norm is multiplicative.
    """
    hw_channels = [shifted_depolarizing(p, g) for p, g in [(0.05, 0.0), (0.15, 1.0), (0.25, 0.5)]]
    hw_channels.append(random_channel(1, 1, env_qubits=2, seed=0))
    squared = [named_channel("amplitude-damping", eta=0.3)]  # each tensored with itself
    squared.append(random_channel(1, 1, env_qubits=2, seed=3))
    hw = itertools.chain(map(_hw_margins, hw_channels), map(_additivity_margins, squared))
    return _cases("bounds", seed, 30_000, cases, _closed_form_margins, fixed=hw)


SUITES = {
    "pdm": suite_pdm,
    "lemmas": suite_lemmas,
    "fidelity": suite_fidelity,
    "bounds": suite_bounds,
}


def run_suites(names, seed: int = 0, cases: int = 100) -> list[SuiteResult]:
    return [SUITES[name](seed=seed, cases=cases) for name in names]
