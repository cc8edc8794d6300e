import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalcap.bounds import (
    OptimizerConfig,
    SweepRow,
    analytic_shifted_depol,
    causality_bound,
    compare_bounds,
    hw_bound,
    maxrains_surrogate,
    sweep_shifted_depol,
)
from causalcap.channels import (
    conjugate,
    from_kraus,
    named_channel,
    random_channel,
    shifted_depolarizing,
)
from causalcap.linalg import I2

FAST_CFG = OptimizerConfig(restarts=8, max_iters=1500, seed=7)

# best value found by a 256-restart reference run, stable across seeds
HW_P015_G1 = 0.2969817377571
# inside the certified bracket [0.00443224631526, 0.00443224631537] at tol 1e-13
HW_P024_G1 = 0.0044322463153


def hw_ceiling(chan) -> float:
    """log2 lambda_max(Tr_out |d R|), the HW upper end at the maximally mixed marginal."""
    d = chan.dim_in
    pdm = chan.choi.reshape(d, d, d, d).transpose(2, 1, 0, 3).reshape(d * d, d * d)
    vals, vecs = np.linalg.eigh(d * pdm)
    absw = (vecs * np.abs(vals)) @ vecs.conj().T
    marginal = np.trace(absw.reshape(d, d, d, d), axis1=1, axis2=3)
    return math.log2(np.linalg.eigvalsh(marginal)[-1])


class TestCausalityBound:
    def test_identity(self):
        rep = causality_bound(named_channel("identity", qubits=1))
        assert rep.method == "causality"
        assert np.isclose(rep.value, 1.0)

    def test_fully_depolarizing(self):
        rep = causality_bound(shifted_depolarizing(0.25, 0.0))
        assert abs(rep.value) < 1e-12

    def test_shifted_value(self):
        rep = causality_bound(shifted_depolarizing(0.1, 1.0))
        root = math.sqrt(0.4)
        assert np.isclose(rep.value, math.log2(0.9 + root / 2 + (root - 0.2) / 2), atol=1e-9)


class TestAnalytic:
    def test_p_zero(self):
        assert np.isclose(analytic_shifted_depol(0.0, 0.3), 1.0)

    def test_endpoint(self):
        assert np.isclose(analytic_shifted_depol(0.25, 0.0), 0.0)

    def test_depolarizing_value(self):
        assert np.isclose(analytic_shifted_depol(0.1, 0.0), math.log2(1.4), atol=1e-12)

    def test_matches_numeric_on_grid(self):
        for p in np.linspace(0.0, 0.25, 6):
            for gamma in np.linspace(0.0, 1.0, 5):
                numeric = causality_bound(shifted_depolarizing(p, gamma)).value
                assert abs(analytic_shifted_depol(p, gamma) - numeric) < 1e-8

    def test_monotone_in_gamma(self):
        for p in np.linspace(0.0, 0.25, 6):
            values = [analytic_shifted_depol(p, g) for g in np.linspace(0, 1, 11)]
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_range_check(self):
        with pytest.raises(ValueError):
            analytic_shifted_depol(0.3, 0.0)


class TestHwBound:
    def test_identity(self):
        rep = hw_bound(from_kraus([I2], label="identity"), FAST_CFG)
        assert np.isclose(rep.value, 1.0, atol=1e-6)
        assert rep.best_input is not None
        # the transpose map attains its norm only at maximally entangled
        # inputs, so the best input must have a maximally mixed marginal
        assert np.isclose(np.trace(rep.best_input).real, 1.0)
        reduced = rep.best_input.reshape(2, 2, 2, 2).trace(axis1=1, axis2=3)
        assert np.max(np.abs(reduced - np.eye(2) / 2)) < 1e-2

    def test_coincides_with_causality_without_shift(self):
        chan = shifted_depolarizing(0.1, 0.0)
        rep = hw_bound(chan, FAST_CFG)
        assert abs(rep.value - math.log2(1.4)) < 1e-3

    def test_strictly_above_causality_with_shift(self):
        chan = shifted_depolarizing(0.15, 1.0)
        rep = hw_bound(chan, OptimizerConfig(restarts=16, seed=5))
        caus = causality_bound(chan).value
        assert rep.value - caus > 1e-4
        assert abs(rep.value - HW_P015_G1) < 1e-6

    def test_never_below_causality(self):
        for seed in range(5):
            chan = random_channel(1, 1, env_qubits=2, seed=seed)
            rep = hw_bound(chan, OptimizerConfig(restarts=2, max_iters=200, seed=seed))
            assert rep.value >= causality_bound(chan).value - 1e-9

    def test_value_matches_best_input_via_kraus(self):
        cfg = OptimizerConfig(restarts=2, max_iters=300, seed=2)
        for chan in (
            shifted_depolarizing(0.15, 1.0),
            named_channel("amplitude-damping", eta=0.3),
            random_channel(1, 1, env_qubits=2, seed=8),
        ):
            rep = hw_bound(chan, cfg)
            # transpose the system factor, then apply the channel to it
            tb = rep.best_input.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
            ext = [np.kron(I2, a) for a in chan.kraus]
            out = sum(e @ tb @ e.conj().T for e in ext)
            norm = np.abs(np.linalg.eigvalsh(out)).sum()
            assert abs(math.log2(norm) - rep.diagnostics["lower"]) < 1e-9
            assert rep.diagnostics["lower"] <= rep.value

    def test_diagnostics(self):
        rep = hw_bound(shifted_depolarizing(0.15, 1.0), FAST_CFG)
        diag = rep.diagnostics
        assert diag["restarts"] == 1
        assert diag["converged_restarts"] == 1
        assert 0 < diag["iterations"] <= FAST_CFG.max_iters
        assert diag["tolerance"] == FAST_CFG.tol
        assert diag["gap"] == rep.value - diag["lower"]
        assert 0.0 <= diag["gap"] <= FAST_CFG.tol
        assert "certified upper bound" in diag["note"]
        assert not {"per_restart", "seed", "best_objective"} & diag.keys()

    def test_unconverged_bracket_is_reported(self):
        rep = hw_bound(shifted_depolarizing(0.24, 1.0), OptimizerConfig(max_iters=2))
        diag = rep.diagnostics
        assert diag["iterations"] == 2
        assert diag["converged_restarts"] == 0
        assert diag["gap"] > diag["tolerance"]
        assert rep.value >= HW_P024_G1 >= diag["lower"]

    def test_deterministic_per_seed(self):
        chan = shifted_depolarizing(0.12, 0.9)
        a = hw_bound(chan, FAST_CFG)
        b = hw_bound(chan, FAST_CFG)
        assert a.value == b.value


class TestHwBracketProperties:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        qubits=st.sampled_from([1, 2]),
        env_qubits=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_certified_bracket(self, qubits, env_qubits, seed):
        chan = random_channel(qubits, qubits, env_qubits=env_qubits, seed=seed)
        rep = hw_bound(chan)
        diag = rep.diagnostics
        tol = OptimizerConfig().tol
        assert diag["lower"] <= rep.value
        assert diag["lower"] >= causality_bound(chan).value - tol
        assert rep.value <= hw_ceiling(chan) + 1e-12
        assert diag["gap"] <= tol
        assert diag["converged_restarts"] == 1

    def test_certified_bracket_on_three_qubits(self):
        chan = random_channel(3, 3, env_qubits=2, seed=3)
        rep = hw_bound(chan)
        assert rep.diagnostics["converged_restarts"] == 1
        assert rep.diagnostics["lower"] >= causality_bound(chan).value - 1e-9
        assert rep.value <= hw_ceiling(chan) + 1e-12


class TestMaxRainsSurrogate:
    def test_identity(self):
        rep = maxrains_surrogate(named_channel("identity", qubits=1))
        assert np.isclose(rep.value, 1.0)

    def test_fully_depolarizing(self):
        rep = maxrains_surrogate(shifted_depolarizing(0.25, 0.0))
        assert abs(rep.value) < 1e-12

    def test_real_kraus_equals_causality(self):
        chan = named_channel("dephasing", strength=0.7)
        assert abs(maxrains_surrogate(chan).value - causality_bound(chan).value) < 1e-9

    def test_conjugate_identity_on_random_channels(self):
        for seed in range(100):
            chan = random_channel(1, 1, env_qubits=2, seed=seed)
            rep = maxrains_surrogate(chan)
            assert abs(rep.value - causality_bound(conjugate(chan)).value) < 1e-9
            assert rep.diagnostics["log2_inf_norm"] <= rep.value + 1e-12


class TestCompareBounds:
    def test_identity_all_one(self):
        reports = compare_bounds(named_channel("identity", qubits=1), FAST_CFG)
        for rep in reports.values():
            assert np.isclose(rep.value, 1.0, atol=1e-6)

    def test_difference_entries(self):
        reports = compare_bounds(shifted_depolarizing(0.1, 0.0), FAST_CFG)
        assert abs(reports["holevo_werner"].diagnostics["hw_minus_causality"]) < 1e-3
        reports = compare_bounds(shifted_depolarizing(0.15, 1.0), FAST_CFG)
        assert reports["holevo_werner"].diagnostics["hw_minus_causality"] > 1e-4


class TestSweep:
    def test_single_point(self):
        rows = sweep_shifted_depol([0.1], [0.0], FAST_CFG, workers=1)
        assert len(rows) == 1
        row = rows[0]
        assert abs(row.causality - row.analytic) < 1e-8
        assert abs(row.hw - row.causality) < 1e-3
        assert row.hw_minus_causality == row.hw - row.causality

    def test_row_count_and_order(self):
        cfg = OptimizerConfig(restarts=2, max_iters=200, seed=3)
        rows = sweep_shifted_depol([0.0, 0.1], [0.0, 0.5, 1.0], cfg, workers=1)
        assert len(rows) == 6
        assert [(r.p, r.gamma) for r in rows] == [
            (0.0, 0.0), (0.0, 0.5), (0.0, 1.0), (0.1, 0.0), (0.1, 0.5), (0.1, 1.0),
        ]

    def test_ordering_nonnegative(self):
        cfg = OptimizerConfig(restarts=2, max_iters=200, seed=4)
        rows = sweep_shifted_depol([0.05, 0.2], [0.0, 1.0], cfg, workers=1)
        assert all(r.hw_minus_causality > -1e-6 for r in rows)

    def test_deterministic_and_order_independent(self):
        cfg = OptimizerConfig(restarts=2, max_iters=300, seed=11)
        serial = sweep_shifted_depol([0.1, 0.2], [0.0, 1.0], cfg, workers=1)
        parallel = sweep_shifted_depol([0.1, 0.2], [0.0, 1.0], cfg, workers=2)
        no_op = dataclasses.replace(cfg, restarts=5, seed=12)
        assert serial == parallel == sweep_shifted_depol([0.1, 0.2], [0.0, 1.0], no_op)

    def test_batched_rows_match_single_channel_solves(self):
        rows = sweep_shifted_depol(np.linspace(0.0, 0.25, 11), np.linspace(0.0, 1.0, 6))
        for row in rows:
            single = hw_bound(shifted_depolarizing(row.p, row.gamma)).value
            assert abs(row.hw - single) <= 1e-12

    def test_sweeprow_is_plain_data(self):
        row = SweepRow(0.1, 0.0, 0.5, 0.5, 0.5, 0.0)
        assert dataclasses.asdict(row)["p"] == 0.1


class TestOptimizerConfig:
    def test_defaults(self):
        cfg = OptimizerConfig()
        assert cfg.restarts == 32 and cfg.max_iters == 2000 and cfg.tol == 1e-9

    @pytest.mark.parametrize(
        "kwargs", [{"restarts": 0}, {"max_iters": 0}, {"tol": 0.0}]
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            OptimizerConfig(**kwargs)
