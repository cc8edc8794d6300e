"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The certified Holevo-Werner values for criteria 3-5 are computed once per
session and shared across the three tests.
"""

import math
import time

import numpy as np
import pytest

from causalcap.bounds import (
    OptimizerConfig,
    analytic_shifted_depol,
    causality_bound,
    hw_bound,
    maxrains_surrogate,
)
from causalcap.channels import (
    conjugate,
    named_channel,
    random_channel,
    shifted_depolarizing,
)
from causalcap.linalg import random_density, random_isometry, random_unitary
from causalcap.pdm import (
    PseudoDensityMatrix,
    causality_F,
    lemma1_check,
    log_negativity,
    pdm_from_channel,
)
from causalcap.verify import (
    _entanglement_fidelity_purified,
    entanglement_fidelity,
    fvg_check,
    lemma2_suite,
)

HW_CFG = OptimizerConfig(restarts=32, seed=20260825)
P_COINCIDENCE = [0.0, 0.05, 0.1, 0.15, 0.2, 0.25]
GAMMA_SEPARATION = [0.0, 0.25, 0.5, 0.75, 1.0]


def report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def hw_results():
    """(p, gamma) -> (causality, hw) for every point criteria 3-5 touch."""
    points = [(p, 0.0) for p in P_COINCIDENCE] + [
        (0.15, g) for g in GAMMA_SEPARATION if g > 0.0
    ]
    out = {}
    for p, gamma in points:
        chan = shifted_depolarizing(p, gamma)
        out[(p, gamma)] = (
            causality_bound(chan).value,
            hw_bound(chan, HW_CFG).value,
        )
    return out


def test_criterion_1_identity_causality():
    start = time.time()
    worst = max(
        abs(causality_bound(named_channel("identity", qubits=l)).value - l)
        for l in (1, 2, 3)
    )
    elapsed = time.time() - start
    report(
        1,
        worst < 1e-9 and elapsed < 5.0,
        f"identity causality exact for 1-3 qubits (worst {worst:.2e}, {elapsed:.2f}s)",
    )


def test_criterion_2_closed_form_grid():
    start = time.time()
    worst = 0.0
    for p in np.linspace(0.0, 0.25, 26):
        for gamma in np.linspace(0.0, 1.0, 21):
            numeric = causality_bound(shifted_depolarizing(p, gamma)).value
            worst = max(worst, abs(analytic_shifted_depol(p, gamma) - numeric))
    elapsed = time.time() - start
    report(
        2,
        worst < 1e-8 and elapsed < 10.0,
        f"closed form matches numeric on 26x21 grid (worst {worst:.2e}, {elapsed:.2f}s)",
    )


def test_criterion_3_coincidence_without_shift(hw_results):
    worst = max(abs(hw_results[(p, 0.0)][1] - hw_results[(p, 0.0)][0]) for p in P_COINCIDENCE)
    report(3, worst < 1e-3, f"HW and causality coincide at gamma=0 (worst {worst:.2e})")


def test_criterion_4_separation_grows_with_shift(hw_results):
    diffs = [
        hw_results[(0.15, g)][1] - hw_results[(0.15, g)][0] for g in GAMMA_SEPARATION
    ]
    separated = diffs[-1] > 1e-4
    monotone = all(b >= a - 1e-4 for a, b in zip(diffs, diffs[1:]))
    report(
        4,
        separated and monotone,
        f"separation at p=0.15 grows with gamma (diffs {[f'{d:.2e}' for d in diffs]})",
    )


def test_criterion_5_hw_never_below_causality(hw_results):
    worst = min(hw - caus for caus, hw in hw_results.values())
    report(5, worst >= -1e-9, f"HW >= causality at every evaluated point (min gap {worst:.2e})")


def test_criterion_6_measure_properties_and_lemmas():
    worst = -np.inf
    for seed in range(100):
        rng = np.random.default_rng(seed)
        r1 = pdm_from_channel(random_channel(1, 1, 2, seed=2 * seed))
        r2 = pdm_from_channel(random_channel(1, 1, 2, seed=2 * seed + 1))
        f1, f2 = causality_F(r1), causality_F(r2)
        # property 1: nonnegative, zero on positive semi-definite input
        sep = np.kron(random_density(2, rng), random_density(2, rng))
        worst = max(worst, -f1, abs(causality_F(PseudoDensityMatrix(sep, 1, 1))))
        # property 2: local unitary invariance
        u = np.kron(random_unitary(2, rng), random_unitary(2, rng))
        rot = PseudoDensityMatrix(u @ r1.matrix @ u.conj().T, 1, 1)
        worst = max(worst, abs(causality_F(rot) - f1))
        # property 4: convex mixing
        w = rng.uniform()
        mix = PseudoDensityMatrix(w * r1.matrix + (1 - w) * r2.matrix, 1, 1)
        worst = max(worst, causality_F(mix) - max(f1, f2))
        # property 5: tensor additivity
        prod = PseudoDensityMatrix(np.kron(r1.matrix, r2.matrix), 2, 2)
        worst = max(worst, abs(causality_F(prod) - f1 - f2))
    props_ok = worst <= 1e-9

    worst_l1 = 0.0
    for seed in range(50):
        rng = np.random.default_rng(1_000_000 + seed)
        k = int(rng.integers(1, 3))
        m = int(rng.integers(k, 3))
        worst_l1 = max(worst_l1, lemma1_check(random_isometry(2**m, 2**k, rng), k, m))
    l2 = lemma2_suite(seed=20260825, cases=100)
    report(
        6,
        props_ok and worst_l1 < 1e-10 and l2.failures == 0,
        "measure properties 1/2/4/5, intertwining residual "
        f"{worst_l1:.2e}, monotonicity worst margin {l2.worst_margin:.2e}",
    )


def test_criterion_7_choi_log_negativity_identity():
    worst = max(
        abs(
            causality_F(pdm_from_channel(c)) - log_negativity(c.choi, (2, 2))
        )
        for c in (random_channel(1, 1, 2, seed=s) for s in range(100))
    )
    report(7, worst < 1e-9, f"PDM causality equals Choi log-negativity (worst {worst:.2e})")


def test_criterion_8_maxrains_surrogate_identity():
    worst_id = 0.0
    worst_chain = -np.inf
    for seed in range(100):
        c = random_channel(1, 1, 2, seed=seed)
        rep = maxrains_surrogate(c)
        worst_id = max(worst_id, abs(rep.value - causality_bound(conjugate(c)).value))
        worst_chain = max(worst_chain, rep.diagnostics["log2_inf_norm"] - rep.value)
    report(
        8,
        worst_id < 1e-9 and worst_chain <= 1e-12,
        f"surrogate equals conjugate causality (worst {worst_id:.2e}), norm chain holds",
    )


def test_criterion_9_fidelity_checks():
    rng = np.random.default_rng(99)
    worst_gap = np.inf
    for _ in range(100):
        rec = fvg_check(random_density(2, rng), random_density(2, rng))
        worst_gap = min(worst_gap, rec.lower_gap, rec.upper_gap)
    worst_fe = 0.0
    for seed in range(50):
        rng = np.random.default_rng(7_000_000 + seed)
        rho = random_density(2, rng)
        c = random_channel(1, 1, 2, seed=int(rng.integers(2**31)))
        worst_fe = max(
            worst_fe,
            abs(entanglement_fidelity(rho, c) - _entanglement_fidelity_purified(rho, c)),
        )
    report(
        9,
        worst_gap >= -1e-9 and worst_fe < 1e-9,
        f"fidelity inequality gaps >= {worst_gap:.2e}, "
        f"entanglement-fidelity route mismatch {worst_fe:.2e}",
    )


def test_criterion_10_zero_capacity_witness():
    value = causality_bound(shifted_depolarizing(0.25, 0.0)).value
    report(10, abs(value) < 1e-12, f"fully depolarizing causality bound {value:.2e}")
