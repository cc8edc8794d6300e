"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The certified Holevo-Werner values for criteria 3-5 are computed once per
session and shared across the three tests.
"""

import time

import numpy as np
import pytest

from causalcap.bounds import (
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
from causalcap.pdm import causality_F, log_negativity, pdm_from_channel
from causalcap.verify import suite_fidelity, suite_lemmas, suite_pdm

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
        out[(p, gamma)] = (causality_bound(chan).value, hw_bound(chan).value)
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
    # properties 1/2/4/5 of the measure; Lemma 1 (swap intertwining) and Lemma 2 (monotonicity)
    props = suite_pdm(seed=20260825, cases=100)
    lemmas = suite_lemmas(seed=20260825, cases=100)
    report(
        6,
        props.failures == 0 and props.worst_margin <= 1e-9 and lemmas.failures == 0,
        f"measure properties worst margin {props.worst_margin:.2e} over {props.cases} cases, "
        f"lemmas worst margin {lemmas.worst_margin:.2e} over {lemmas.cases} cases "
        f"({lemmas.notes[0]})",
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
    # Fuchs-van de Graaf gaps and the Kraus and purification entanglement-fidelity routes
    res = suite_fidelity(seed=99, cases=100)
    report(
        9,
        res.failures == 0 and res.worst_margin < 1e-9,
        f"fidelity checks worst margin {res.worst_margin:.2e} over {res.cases} cases",
    )


def test_criterion_10_zero_capacity_witness():
    value = causality_bound(shifted_depolarizing(0.25, 0.0)).value
    report(10, abs(value) < 1e-12, f"fully depolarizing causality bound {value:.2e}")
