import numpy as np
import pytest

from causalcap import bounds as bounds_mod
from causalcap import pdm as pdm_mod
from causalcap import verify as verify_mod
from causalcap.channels import from_kraus, named_channel, shifted_depolarizing
from causalcap.linalg import CPTP_ATOL, HERM_ATOL, I2, PAULI_Z, random_density, random_unitary
from causalcap.verify import (
    SUITES,
    FidelityCheckRecord,
    entanglement_fidelity,
    fidelity,
    fvg_check,
    lemma2_suite,
    run_suites,
    suite_bounds,
    suite_fidelity,
    suite_lemmas,
    suite_pdm,
    _entanglement_fidelity_purified,
)

KET0 = np.diag([1.0, 0.0]).astype(complex)
KET1 = np.diag([0.0, 1.0]).astype(complex)


def shifted(f):
    """``f`` moved up by 1e-8, ten times ``CPTP_ATOL``."""
    return lambda *args: f(*args) + 1e-8


# suite -> (module, name, replacement built from the original, tolerance the suite applies);
# each replacement breaks the fact its suite checks just past that tolerance
BREAKS = {
    "pdm": (pdm_mod, "causality_F", shifted, CPTP_ATOL),
    "lemmas": (pdm_mod, "lemma1_check", lambda f: lambda *args: 2 * HERM_ATOL, HERM_ATOL),
    "fidelity": (verify_mod, "_entanglement_fidelity_purified", shifted, CPTP_ATOL),
    "bounds": (bounds_mod, "analytic_shifted_depol", shifted, CPTP_ATOL),
}


def break_suite(monkeypatch, suite: str) -> float:
    """Break the fact ``suite`` checks for the rest of the test; return the suite's tolerance."""
    module, name, broken, tol = BREAKS[suite]
    monkeypatch.setattr(module, name, broken(getattr(module, name)))
    return tol


class TestFidelity:
    def test_self(self):
        rho = random_density(2, np.random.default_rng(0))
        assert np.isclose(fidelity(rho, rho), 1.0, atol=1e-9)

    def test_orthogonal(self):
        assert np.isclose(fidelity(KET0, KET1), 0.0, atol=1e-9)

    def test_pure_vs_mixed(self):
        assert np.isclose(fidelity(KET0, I2 / 2), 1 / np.sqrt(2), atol=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            rho, sigma = random_density(2, rng), random_density(2, rng)
            assert abs(fidelity(rho, sigma) - fidelity(sigma, rho)) < 1e-9

    def test_rejects_non_state(self):
        with pytest.raises(ValueError, match="not a state"):
            fidelity(np.diag([2.0, -1.0]).astype(complex), KET0)

    def test_rejects_states_of_different_sizes(self):
        with pytest.raises(ValueError, match=r"state shapes differ: \(2, 2\) vs \(4, 4\)"):
            fidelity(KET0, np.eye(4) / 4)


class TestEntanglementFidelity:
    def test_identity_channel(self):
        rho = random_density(2, np.random.default_rng(2))
        c = from_kraus([I2])
        assert np.isclose(entanglement_fidelity(rho, c), 1.0)

    def test_fully_depolarizing_on_mixed(self):
        # Kraus list is the four Paulis over 2, so each term is |Tr(sigma/4)|^2
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        paulis = (I2, x, 1j * x @ PAULI_Z, PAULI_Z)
        c = from_kraus([s / 2 for s in paulis], label="full-depol")
        assert np.isclose(entanglement_fidelity(I2 / 2, c), 0.25, atol=1e-12)

    def test_matches_purification_route(self):
        rng = np.random.default_rng(3)
        for seed in range(50):
            rho = random_density(2, rng)
            c = shifted_depolarizing(float(rng.uniform(0, 0.25)), float(rng.uniform()))
            kraus_route = entanglement_fidelity(rho, c)
            pure_route = _entanglement_fidelity_purified(rho, c)
            assert abs(kraus_route - pure_route) < 1e-9

    def test_kraus_representation_independence(self):
        c = named_channel("amplitude-damping", eta=0.4)
        u = random_unitary(len(c.kraus), np.random.default_rng(5))
        c2 = from_kraus(np.einsum("jk,kab->jab", u, np.array(c.kraus)))  # A'_j = sum_k U_jk A_k
        assert not np.allclose(c2.kraus[0], c.kraus[0])
        rho = random_density(2, np.random.default_rng(4))
        assert abs(entanglement_fidelity(rho, c) - entanglement_fidelity(rho, c2)) < 1e-9

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            entanglement_fidelity(np.eye(4) / 4, from_kraus([I2]))


class TestFvg:
    def test_equal_states(self):
        rec = fvg_check(KET0, KET0)
        assert isinstance(rec, FidelityCheckRecord)
        assert np.isclose(rec.f, 1.0)
        assert np.isclose(rec.half_trace_dist, 0.0, atol=1e-12)
        assert abs(rec.lower_gap) < 1e-9 and abs(rec.upper_gap) < 1e-9

    def test_orthogonal_saturates(self):
        rec = fvg_check(KET0, KET1)
        assert np.isclose(rec.f, 0.0, atol=1e-9)
        assert np.isclose(rec.half_trace_dist, 1.0)
        assert abs(rec.lower_gap) < 1e-9 and abs(rec.upper_gap) < 1e-9


class TestSuites:
    def test_lemma2_identity_case(self):
        # encoding and decoding by the identity leave the measure unchanged
        res = lemma2_suite(seed=1, cases=5)
        assert res.passed

    def test_lemma2_rejects_zero_cases(self):
        with pytest.raises(ValueError):
            lemma2_suite(cases=0)

    def test_pdm_suite(self):
        res = suite_pdm(seed=0, cases=25)
        assert res.passed and res.worst_margin <= 1e-9

    def test_lemmas_suite(self):
        res = suite_lemmas(seed=2, cases=20)
        assert res.passed

    def test_fidelity_suite(self):
        res = suite_fidelity(seed=3, cases=25)
        assert res.passed

    def test_bounds_suite(self):
        res = suite_bounds(seed=4, cases=20)
        assert res.passed

    @pytest.mark.parametrize("suite", list(SUITES))
    def test_a_broken_fact_fails_its_suite(self, suite, monkeypatch):
        tol = break_suite(monkeypatch, suite)
        res = SUITES[suite](seed=0, cases=3)
        assert res.failures > 0 and not res.passed
        assert res.worst_margin > tol

    def test_run_suites_order(self):
        results = run_suites(["pdm", "fidelity"], seed=0, cases=5)
        assert [r.name for r in results] == ["pdm", "fidelity"]

    @pytest.mark.parametrize("suite", [*SUITES.values(), lemma2_suite], ids=lambda f: f.__name__)
    def test_zero_cases_rejected(self, suite):
        # a suite that runs no case has checked nothing, so it may not pass
        with pytest.raises(ValueError, match="cases must be at least 1"):
            suite(seed=0, cases=0)

    @pytest.mark.parametrize("suite", [*SUITES.values(), lemma2_suite], ids=lambda f: f.__name__)
    def test_negative_seed_rejected(self, suite):
        with pytest.raises(ValueError, match="seed must be non-negative"):
            suite(seed=-1, cases=1)

    def test_case_counts(self):
        # lemmas adds the monotonicity cases, bounds its four fixed HW and two N x N cases
        results = run_suites(list(SUITES), seed=0, cases=3)
        assert [r.cases for r in results] == [3, 6, 3, 9]
