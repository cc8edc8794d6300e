"""Verification utilities: fidelities, trace-distance inequalities, and
randomized suites for the structural identities the bounds rely on.

The suites mirror the property checks in the test suite but are callable
from the command line with a chosen case count and seed; failures are
counted and reported, not raised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import bounds as bounds_mod
from . import pdm as pdm_mod
from .channels import (
    QuantumChannel,
    compose,
    conjugate,
    from_kraus,
    random_channel,
    shifted_depolarizing,
)
from .linalg import (
    random_density,
    random_isometry,
    random_unitary,
    require_hermitian,
    trace_norm,
)

STATE_EIG_ATOL = 1e-9


def _require_state(rho: np.ndarray) -> np.ndarray:
    rho = require_hermitian(rho)
    vals = np.linalg.eigvalsh(rho)
    if vals[0] < -STATE_EIG_ATOL:
        raise ValueError(f"not a state: eigenvalue {vals[0]:.3e}")
    if abs(np.trace(rho).real - 1.0) > 1e-9:
        raise ValueError(f"not a state: trace {np.trace(rho).real!r}")
    return rho


def _sqrtm_psd(m: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(m)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Uhlmann fidelity Tr sqrt(sqrt(rho) sigma sqrt(rho)), in [0, 1]."""
    rho = _require_state(rho)
    sigma = _require_state(sigma)
    if rho.shape != sigma.shape:
        raise ValueError(f"state shapes differ: {rho.shape} vs {sigma.shape}")
    root = _sqrtm_psd(rho)
    inner = root @ sigma @ root
    vals = np.linalg.eigvalsh(0.5 * (inner + inner.conj().T))
    return float(np.sqrt(np.clip(vals, 0.0, None)).sum())


def entanglement_fidelity(rho: np.ndarray, c: QuantumChannel) -> float:
    """Schumacher entanglement fidelity, sum_k |Tr(rho A_k)|^2."""
    rho = _require_state(rho)
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


def lemma2_suite(seed: int = 0, cases: int = 100, tol: float = 1e-9) -> SuiteResult:
    """Causality never increases under isometric encoding plus decoding.

    Each case draws a random channel N on m qubits, a random isometric
    encoding from k to m qubits and a random decoding back to k qubits,
    and checks the causality measure of the composite against that of N.
    """
    if cases < 1:
        raise ValueError("cases must be at least 1")
    failures = 0
    worst = -np.inf
    for i in range(cases):
        rng = _case_rng(seed, i)
        k = int(rng.integers(1, 3))
        m = int(rng.integers(k, 3))
        enc = from_kraus(
            [random_isometry(2**m, 2**k, rng)], k, m, label=f"enc{i}"
        )
        mid = random_channel(m, m, env_qubits=1, seed=int(rng.integers(2**31)))
        dec = random_channel(m, k, env_qubits=m - k + 1, seed=int(rng.integers(2**31)))
        f_mid = pdm_mod.causality_F(pdm_mod.pdm_from_channel(mid))
        f_all = pdm_mod.causality_F(
            pdm_mod.pdm_from_channel(compose(dec, compose(mid, enc)))
        )
        margin = f_all - f_mid
        worst = max(worst, margin)
        if margin > tol:
            failures += 1
    return SuiteResult("lemma2", cases, failures, worst)


def suite_pdm(seed: int = 0, cases: int = 100, tol: float = 1e-9) -> SuiteResult:
    """Causality-measure properties plus the Choi log-negativity identity."""
    failures = 0
    worst = -np.inf
    notes = []
    for i in range(cases):
        rng = _case_rng(seed, i)
        chan = _random_single_qubit_channel(rng)
        r = pdm_mod.pdm_from_channel(chan)
        f_r = pdm_mod.causality_F(r)
        margins = []
        # nonnegativity, and exactly zero on separable product PDMs
        sep = np.kron(random_density(2, rng), random_density(2, rng))
        f_sep = pdm_mod.causality_F(pdm_mod.PseudoDensityMatrix(sep, 1, 1))
        margins.append(-f_r)
        margins.append(abs(f_sep))
        # invariance under local change of basis
        u = np.kron(random_unitary(2, rng), random_unitary(2, rng))
        rotated = pdm_mod.PseudoDensityMatrix(u @ r.matrix @ u.conj().T, 1, 1)
        margins.append(abs(pdm_mod.causality_F(rotated) - f_r))
        # convex mixtures never exceed the worst component
        other = pdm_mod.pdm_from_channel(_random_single_qubit_channel(rng))
        w = float(rng.uniform(0.0, 1.0))
        mix = pdm_mod.PseudoDensityMatrix(
            w * r.matrix + (1.0 - w) * other.matrix, 1, 1
        )
        margins.append(
            pdm_mod.causality_F(mix) - max(f_r, pdm_mod.causality_F(other))
        )
        # additivity over tensor products
        prod = pdm_mod.PseudoDensityMatrix(np.kron(r.matrix, other.matrix), 2, 2)
        margins.append(
            abs(pdm_mod.causality_F(prod) - f_r - pdm_mod.causality_F(other))
        )
        # causality of the PDM equals log-negativity of the Choi state
        margins.append(abs(f_r - pdm_mod.log_negativity(chan.choi, (2, 2))))
        case_worst = max(margins)
        worst = max(worst, case_worst)
        if case_worst > tol:
            failures += 1
    return SuiteResult("pdm", cases, failures, worst, notes)


def suite_lemmas(seed: int = 0, cases: int = 50, tol: float = 1e-9) -> SuiteResult:
    """Swap intertwining residuals plus the encoding/decoding monotonicity."""
    worst_residual = 0.0
    failures = 0
    for i in range(cases):
        rng = _case_rng(seed, 10_000 + i)
        k = int(rng.integers(1, 3))
        m = int(rng.integers(k, 3))
        iso = random_isometry(2**m, 2**k, rng)
        residual = pdm_mod.lemma1_check(iso, k, m)
        worst_residual = max(worst_residual, residual)
        if residual > 1e-10:
            failures += 1
    mono = lemma2_suite(seed=seed, cases=cases, tol=tol)
    return SuiteResult(
        "lemmas",
        cases + mono.cases,
        failures + mono.failures,
        max(worst_residual, mono.worst_margin),
        notes=[f"worst intertwining residual {worst_residual:.3e}"],
    )


def suite_fidelity(seed: int = 0, cases: int = 100, tol: float = 1e-9) -> SuiteResult:
    """Fidelity inequality gaps and the two entanglement-fidelity routes."""
    failures = 0
    worst = -np.inf
    for i in range(cases):
        rng = _case_rng(seed, 20_000 + i)
        rho = random_density(2, rng)
        sigma = random_density(2, rng)
        rec = fvg_check(rho, sigma)
        margins = [-rec.lower_gap, -rec.upper_gap]
        chan = _random_single_qubit_channel(rng)
        fe = entanglement_fidelity(rho, chan)
        margins.append(abs(fe - _entanglement_fidelity_purified(rho, chan)))
        case_worst = max(margins)
        worst = max(worst, case_worst)
        if case_worst > tol:
            failures += 1
    return SuiteResult("fidelity", cases, failures, worst)


def _entanglement_fidelity_purified(rho: np.ndarray, c: QuantumChannel) -> float:
    """Independent route: overlap of a purification with the evolved purification."""
    vals, vecs = np.linalg.eigh(rho)
    dim = rho.shape[0]
    # purification |phi> = sum_i sqrt(l_i) |v_i> x |i>
    phi = np.zeros(dim * dim, dtype=complex)
    for idx, (lam, v) in enumerate(zip(np.clip(vals, 0.0, None), vecs.T)):
        basis = np.zeros(dim)
        basis[idx] = 1.0
        phi += np.sqrt(lam) * np.kron(v, basis)
    proj = np.outer(phi, phi.conj())
    evolved = np.zeros_like(proj)
    eye = np.eye(dim, dtype=complex)
    for a in c.kraus:
        ext = np.kron(a, eye)
        evolved += ext @ proj @ ext.conj().T
    return float(np.real(phi.conj() @ evolved @ phi))


def suite_bounds(seed: int = 0, cases: int = 100, tol: float = 1e-9) -> SuiteResult:
    """Max-Rains surrogate identity, norm ordering, and the HW bracket.

    The surrogate must equal the causality bound of the conjugate channel,
    computed here through an independent channel construction.
    """
    failures = 0
    worst = -np.inf
    for i in range(cases):
        rng = _case_rng(seed, 30_000 + i)
        chan = _random_single_qubit_channel(rng)
        rep = bounds_mod.maxrains_surrogate(chan)
        conj_caus = bounds_mod.causality_bound(conjugate(chan)).value
        margins = [
            abs(rep.value - conj_caus),
            rep.diagnostics["log2_inf_norm"] - rep.value,
        ]
        case_worst = max(margins)
        worst = max(worst, case_worst)
        if case_worst > tol:
            failures += 1
    # the certified HW bracket: its lower end, attained by an input, is at
    # least the causality bound, and the bracket closes to tolerance
    cfg = bounds_mod.OptimizerConfig(tol=tol)
    for p, gamma in [(0.05, 0.0), (0.15, 1.0), (0.25, 0.5)]:
        chan = shifted_depolarizing(p, gamma)
        caus = bounds_mod.causality_bound(chan).value
        hw = bounds_mod.hw_bound(chan, cfg).diagnostics
        margin = max(caus - hw["lower"], hw["gap"])
        worst = max(worst, margin)
        if margin > tol:
            failures += 1
    return SuiteResult("bounds", cases + 3, failures, worst)


SUITES = {
    "pdm": suite_pdm,
    "lemmas": suite_lemmas,
    "fidelity": suite_fidelity,
    "bounds": suite_bounds,
}


def run_suites(names, seed: int = 0, cases: int = 100) -> list[SuiteResult]:
    return [SUITES[name](seed=seed, cases=cases) for name in names]
