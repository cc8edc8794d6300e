import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalcap import bounds
from causalcap import pdm as pdm_mod
from causalcap.bounds import (
    MAX_ITERS,
    OptimizerConfig,
    SweepRow,
    _bracket,
    _covariant_ends,
    _sigma_star,
    analytic_shifted_depol,
    causality_bound,
    compare_bounds,
    hw_bound,
    maxrains_surrogate,
    sweep_shifted_depol,
)
from causalcap.channels import (
    QuantumChannel,
    compose,
    conjugate,
    from_kraus,
    named_channel,
    random_channel,
    shifted_depolarizing,
    tensor,
)
from causalcap.linalg import CPTP_ATOL, HERM_ATOL, I2, random_complex, random_unitary
from causalcap.pdm import PseudoDensityMatrix, pdm_from_channel

# best value found by a 256-restart reference run, stable across seeds
HW_P015_G1 = 0.2969817377571
# inside the certified bracket [0.1444380120469146, 0.14443801204691575] at tol 1e-13
HW_RANDOM_1Q_SEED6 = 0.144438012046915


def hw_ceiling(chan) -> float:
    """log2 lambda_max(Tr_out |d R|), the HW upper end at the maximally mixed marginal."""
    d, d_out = chan.dim_in, chan.dim_out
    pdm = chan.choi.reshape(d, d_out, d, d_out).transpose(2, 1, 0, 3).reshape(d * d_out, -1)
    vals, vecs = np.linalg.eigh(d * pdm)
    absw = (vecs * np.abs(vals)) @ vecs.conj().T
    marginal = np.trace(absw.reshape(d, d_out, d, d_out), axis1=1, axis2=3)
    return math.log2(np.linalg.eigvalsh(marginal)[-1])


def discarding(chan, k=1) -> QuantumChannel:
    """N o Tr_k: k qubits added after the input and discarded."""
    basis = np.eye(2**k)
    return compose(chan, from_kraus([np.kron(np.eye(chan.dim_in), b) for b in basis[:, None]]))


def appending(chan, k=1) -> QuantumChannel:
    """N x |0><0|: k qubits in |0> added after the output."""
    return from_kraus([np.kron(a, np.eye(2**k)[:, :1]) for a in chan.kraus])


def padded(chan) -> QuantumChannel:
    """The equal-count channel N o Tr_k (d_in < d_out) or N x |0><0| (d_in > d_out)."""
    k = abs(chan.qubits_out - chan.qubits_in)
    return discarding(chan, k) if chan.qubits_in < chan.qubits_out else appending(chan, k)


def kraus_lower_end(chan, best_input) -> float:
    """log2 ||(I x N)(T_B(best_input))||_1, the HW objective at best_input, via Kraus."""
    d = chan.dim_in
    tb = best_input.reshape(d, d, d, d).transpose(0, 3, 2, 1).reshape(d * d, d * d)
    ext = [np.kron(np.eye(d), a) for a in chan.kraus]
    out = sum(e @ tb @ e.conj().T for e in ext)
    return math.log2(np.abs(np.linalg.eigvalsh(out)).sum())


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

    @pytest.mark.parametrize("qubits", [(1, 2), (2, 1)])
    def test_unequal_qubit_counts_take_the_padded_value(self, qubits):
        chan = random_channel(*qubits, env_qubits=1, seed=0)
        reports = compare_bounds(chan)  # calls causality_bound and maxrains_surrogate
        assert abs(reports["causality"].value - causality_bound(padded(chan)).value) <= 1e-14
        assert reports["maxrains_surrogate"].value == reports["causality"].value


class TestAnalytic:
    def test_p_zero(self):
        assert np.isclose(analytic_shifted_depol(0.0, 0.3), 1.0)

    def test_endpoint(self):
        assert np.isclose(analytic_shifted_depol(0.25, 0.0), 0.0)

    def test_depolarizing_value(self):
        assert np.isclose(analytic_shifted_depol(0.1, 0.0), math.log2(1.4), atol=1e-12)

    def test_monotone_in_gamma(self):
        for p in np.linspace(0.0, 0.25, 6):
            values = [analytic_shifted_depol(p, g) for g in np.linspace(0, 1, 11)]
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_range_check(self):
        with pytest.raises(ValueError):
            analytic_shifted_depol(0.3, 0.0)


def count_eigensolves(monkeypatch) -> list:
    """Patch np.linalg.eigh and eigvalsh to record (name, shape) per call; return the record."""
    calls = []
    for name in ("eigh", "eigvalsh"):
        def counted(a, _solve=getattr(np.linalg, name), _name=name, **kwargs):
            calls.append((_name, a.shape))
            return _solve(a, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


class TestHwBound:
    def test_identity(self):
        rep = hw_bound(from_kraus([I2], label="identity"))
        assert np.isclose(rep.value, 1.0, atol=1e-6)
        assert rep.best_input is not None
        # the transpose map attains its norm only at maximally entangled
        # inputs, so the best input must have a maximally mixed marginal
        assert np.isclose(np.trace(rep.best_input).real, 1.0)
        reduced = rep.best_input.reshape(2, 2, 2, 2).trace(axis1=1, axis2=3)
        assert np.max(np.abs(reduced - np.eye(2) / 2)) < 1e-2

    def test_coincides_with_causality_without_shift(self):
        chan = shifted_depolarizing(0.1, 0.0)
        rep = hw_bound(chan)
        assert abs(rep.value - math.log2(1.4)) < 1e-3

    def test_strictly_above_causality_with_shift(self):
        chan = shifted_depolarizing(0.15, 1.0)
        rep = hw_bound(chan)
        caus = causality_bound(chan).value
        assert rep.value - caus > 1e-4
        assert abs(rep.value - HW_P015_G1) < 1e-6

    def test_never_below_causality(self):
        for seed in range(5):
            chan = random_channel(1, 1, env_qubits=2, seed=seed)
            rep = hw_bound(chan)
            assert rep.value >= causality_bound(chan).value - 1e-9

    def test_value_matches_best_input_via_kraus(self):
        for chan in (
            shifted_depolarizing(0.15, 1.0),
            named_channel("amplitude-damping", eta=0.3),
            random_channel(1, 1, env_qubits=2, seed=8),
            # d_out != d: a W read with its input and output factors swapped fails here
            *(random_channel(*qubits, env_qubits=2, seed=seed)
              for qubits in ((1, 2), (2, 1)) for seed in range(4)),
        ):
            rep = hw_bound(chan)
            assert abs(kraus_lower_end(chan, rep.best_input) - rep.diagnostics["lower"]) < 1e-9
            assert rep.diagnostics["lower"] <= rep.value

    def test_diagnostics(self):
        rep = hw_bound(random_channel(1, 1, env_qubits=2, seed=6))
        diag = rep.diagnostics
        assert diag["restarts"] == 1
        assert diag["converged_restarts"] == 1
        assert 0 < diag["iterations"] <= MAX_ITERS
        assert diag["tolerance"] == CPTP_ATOL
        assert diag["gap"] == rep.value - diag["lower"]
        assert 0.0 <= diag["gap"] <= CPTP_ATOL
        assert "certified upper bound" in diag["note"]
        assert not {"per_restart", "seed", "best_objective"} & diag.keys()
        # the start plus one to three bracket evaluations per step
        assert diag["iterations"] + 1 <= diag["evaluations"] <= 3 * diag["iterations"] + 1
        assert 0 < diag["accelerated_steps"] <= diag["iterations"]

    def test_unconverged_bracket_is_reported(self, monkeypatch):
        monkeypatch.setattr(bounds, "MAX_ITERS", 2)
        chan = random_channel(1, 1, env_qubits=2, seed=6)
        rep = hw_bound(chan)
        diag = rep.diagnostics
        assert diag["iterations"] == 2
        assert diag["converged_restarts"] == 0
        assert diag["gap"] > diag["tolerance"]
        assert rep.value >= HW_RANDOM_1Q_SEED6 >= diag["lower"]

    def test_rounding_below_zero_is_clamped(self):
        # entanglement-breaking, so ||Theta o N||_dia = 1; the solve lands 1e-15 below log2 = 0
        reports = compare_bounds(random_channel(1, 1, env_qubits=3, seed=93))
        assert reports["holevo_werner"].value == 0.0
        assert reports["holevo_werner"].diagnostics["hw_minus_causality"] == 0.0
        assert [row.hw for row in sweep_shifted_depol([0.21], [0.0, 0.5])] == [0.0, 0.0]

    def test_ill_conditioned_channel_converges(self):
        # sigma* has an eigenvalue of 4e-5; the power step alone needs 3506 steps here
        chan = random_channel(2, 2, env_qubits=3, seed=3455773250)
        diag = hw_bound(chan).diagnostics
        assert diag["converged_restarts"] == 1
        assert diag["gap"] <= CPTP_ATOL

    @pytest.mark.parametrize("seed", [1413296698, 4003012333])
    def test_singular_optimum_is_reported_unconverged(self, seed):
        # sigma* is singular, and upper ends from nearly singular sigma are rounding
        # artefacts: the solve stops with its certified bracket instead
        rep = hw_bound(random_channel(2, 2, env_qubits=3, seed=seed))
        diag = rep.diagnostics
        assert diag["converged_restarts"] == 0
        assert diag["tolerance"] < diag["gap"] < 1e-3
        if seed == 1413296698:
            # an input found by a longer path attains this lower end (checked via Kraus)
            assert rep.value >= 0.5005858542607435

    def test_deterministic_per_seed(self):
        # OptimizerConfig has no effect on either route: closed form, then fixed point
        for chan in (shifted_depolarizing(0.12, 0.9), random_channel(1, 1, env_qubits=2, seed=6)):
            a = hw_bound(chan)
            b = hw_bound(chan, OptimizerConfig(restarts=5, seed=12))
            assert a.value == b.value and a.diagnostics == b.diagnostics
            assert np.array_equal(a.best_input, b.best_input)

    @pytest.mark.parametrize(
        "chan, counts",  # (steps, evaluations, accelerated steps, eigh calls)
        [
            (random_channel(1, 1, env_qubits=2, seed=1), (0, 1, 0, 1)),
            (random_channel(1, 1, env_qubits=2, seed=0), (7, 10, 4, 10)),
            (random_channel(1, 1, env_qubits=2, seed=6), (9, 16, 3, 16)),
            (random_channel(2, 2, env_qubits=2, seed=0), (29, 30, 28, 60)),
            (random_channel(3, 3, env_qubits=2, seed=3), (19, 20, 18, 40)),
        ],
    )
    def test_trajectory_and_eigensolves_are_pinned(self, chan, counts, monkeypatch):
        eigh, calls = np.linalg.eigh, []

        def counted(a):
            calls.append(a.shape)
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        diag = hw_bound(chan).diagnostics
        trajectory = (diag["iterations"], diag["evaluations"], diag["accelerated_steps"])
        assert (*trajectory, len(calls)) == counts
        # each evaluation solves M, unless its sigma is rejected at the floor. Every step but
        # the first tries an extrapolation, and each step it does not win is a power step. At
        # d = 2 sigma, its roots and G are plain floats, so nothing else is solved; for d > 2
        # every trial solves its sigma, and each power step G once, a retaken one too
        d, evaluations = chan.dim_in, diag["evaluations"]
        power_steps = diag["iterations"] - diag["accelerated_steps"]
        assert calls.count((d, d)) == (0 if d == 2 else power_steps + evaluations - 1)
        assert calls.count((d * chan.dim_out,) * 2) <= evaluations

    @pytest.mark.parametrize(
        "chan",
        [
            named_channel("amplitude-damping", eta=0.3),
            named_channel("dephasing", strength=0.4),
            shifted_depolarizing(0.15, 1.0),
        ],
    )
    def test_closed_form_makes_no_eigensolve(self, chan, monkeypatch):
        causality_bound(chan)  # builds the PDM and its trace norm
        calls = count_eigensolves(monkeypatch)
        rep = hw_bound(chan)
        assert "phase-covariant" in rep.diagnostics["note"]
        assert calls == []

    @pytest.mark.parametrize(
        "qubits_out, seed, floor_rejections",
        [(1, 0, 0), (1, 6, 0), (1, 12, 1), (2, 0, 0), (2, 3, 0)],
    )
    def test_qubit_input_makes_one_eigensolve_per_bracket(
        self, qubits_out, seed, floor_rejections, monkeypatch
    ):
        # a 1-qubit input carries sigma, its roots, G and the Anderson system in plain floats:
        # the only eigensolve is of M, once per bracket that passes the floor
        chan = random_channel(1, qubits_out, env_qubits=2, seed=seed)
        causality_bound(chan)  # builds the PDM and its trace norm
        calls, brackets, rejected = count_eigensolves(monkeypatch), [], []
        bracket, evaluate = bounds._bracket, bounds._evaluate

        def counted_bracket(*args):
            brackets.append(args[0].shape)
            return bracket(*args)

        def counted_evaluate(w, sigma):
            trial = evaluate(w, sigma)
            rejected.append(trial is None)
            return trial

        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg.solve called")

        monkeypatch.setattr(bounds, "_bracket", counted_bracket)
        monkeypatch.setattr(bounds, "_evaluate", counted_evaluate)
        monkeypatch.setattr(np.linalg, "solve", refuse)
        diag = hw_bound(chan).diagnostics
        dim = 2 * chan.dim_out
        assert diag["iterations"] > 0 and diag["gap"] <= CPTP_ATOL
        assert sum(rejected) == floor_rejections
        assert len(brackets) == diag["evaluations"] - sum(rejected)  # the start is a bracket
        assert calls == [("eigh", (dim, dim))] * len(brackets)

    def test_sweep_makes_one_eigensolve(self, monkeypatch):
        calls = count_eigensolves(monkeypatch)
        rows = sweep_shifted_depol(np.linspace(0.0, 0.25, 26), np.linspace(0.0, 1.0, 21))
        assert len(rows) == 546
        assert calls == [("eigvalsh", (546, 4, 4))]  # the causality column


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
        assert diag["lower"] <= rep.value
        assert diag["lower"] >= causality_bound(chan).value - CPTP_ATOL
        assert rep.value <= hw_ceiling(chan) + 1e-12
        assert diag["gap"] <= CPTP_ATOL
        assert diag["converged_restarts"] == 1

    @pytest.mark.parametrize("qubits", [(1, 2), (2, 1)])
    @pytest.mark.parametrize("seed", range(4))
    def test_unequal_qubit_counts(self, qubits, seed):
        # the fixed point on W = d_in R; 2 -> 1 channels stop short of CPTP_ATOL, gap reported
        chan = random_channel(*qubits, env_qubits=2, seed=seed)
        rep = hw_bound(chan)
        diag, d = rep.diagnostics, chan.dim_in
        assert "phase-covariant" not in diag["note"]
        assert rep.best_input.shape == (d * d, d * d)
        assert abs(kraus_lower_end(chan, rep.best_input) - diag["lower"]) < 1e-9
        assert diag["lower"] >= pdm_mod.causality_F(pdm_from_channel(chan)) - CPTP_ATOL
        assert diag["lower"] <= rep.value <= hw_ceiling(chan) + 1e-12
        assert diag["gap"] == rep.value - diag["lower"] < 1e-3
        assert diag["converged_restarts"] == int(diag["gap"] <= CPTP_ATOL)
        assert diag["converged_restarts"] == (qubits == (1, 2))

    def test_qubit_input_fingerprint_channels_close(self):
        # every channel with a 1-qubit input in the random and unequal digests of
        # scripts/hw_fingerprint.py takes the fixed point in plain floats and closes
        chans = [random_channel(1, 1, env_qubits=e, seed=s) for e in (1, 2, 3) for s in range(50)]
        chans += [random_channel(1, 2, env_qubits=2, seed=s) for s in range(4)]
        for chan in chans:
            rep = hw_bound(chan)
            assert rep.diagnostics["gap"] <= CPTP_ATOL, chan.label
            assert rep.diagnostics["converged_restarts"] == 1, chan.label
            assert rep.value <= hw_ceiling(chan) + 1e-12, chan.label

    def test_certified_bracket_on_three_qubits(self):
        chan = random_channel(3, 3, env_qubits=2, seed=3)
        rep = hw_bound(chan)
        assert rep.diagnostics["converged_restarts"] == 1
        assert rep.diagnostics["lower"] >= causality_bound(chan).value - 1e-9
        assert rep.value <= hw_ceiling(chan) + 1e-12


def reference_evaluate(w, sigma) -> tuple:
    """(lower, lambda_max(G), T(sigma)) at one sigma by eigh and einsum, as first computed.

    The earlier :func:`bounds._evaluate`: sqrt(sigma) and sigma^(-1/2) from eigh(sigma), M
    by a 3-operand einsum on W reshaped to (d, d_out, d, d_out), Tr_out|M| by another, and
    lambda_max(G) from eigh(G). A reference for the closed forms and the products.
    """
    d, dim = sigma.shape[0], w.shape[0]
    vals, vecs = np.linalg.eigh(sigma)
    vh, sqrt_vals = vecs.conj().T, np.sqrt(vals)
    root, inv_root = (vecs * sqrt_vals) @ vh, (vecs / sqrt_vals) @ vh
    w4 = w.reshape(d, dim // d, d, dim // d)
    m = np.einsum("ab,bicj,cd->aidj", root, w4, root).reshape(dim, dim)
    mu, u = np.linalg.eigh(m)
    abs_mu, u3 = np.abs(mu), u.reshape(d, dim // d, -1)
    marginal = np.einsum("aik,k,bik->ab", u3, abs_mu, u3.conj())
    lower = abs_mu.sum()
    return lower, np.linalg.eigh(inv_root @ marginal @ inv_root)[0][-1], marginal / lower


def floor_sigma(d, rng) -> np.ndarray:
    """A random sigma whose least eigenvalue is 2 _FLOOR."""
    vals = np.concatenate([[2.0 * bounds._FLOOR], rng.random(d - 1) + 0.1])
    vals[1:] *= (1.0 - vals[0]) / vals[1:].sum()
    u = random_unitary(d, rng)
    return (u * vals) @ u.conj().T


def bloch(sigma) -> list:
    """The Bloch vector s of a unit-trace 2x2 sigma = I/2 + s.(X, Y, Z), as _evaluate takes it."""
    return [sigma[1, 0].real, sigma[1, 0].imag, (sigma[0, 0] - sigma[1, 1]).real / 2]


def from_bloch(s) -> np.ndarray:
    return np.array([[0.5 + s[2], complex(s[0], -s[1])], [complex(s[0], s[1]), 0.5 - s[2]]])


class TestFixedPointEvaluation:
    @pytest.mark.parametrize("qubits", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 3)])
    def test_matches_eigh_einsum_reference(self, qubits):
        rng = np.random.default_rng(21)
        for seed in range(3):
            chan = random_channel(*qubits, env_qubits=2, seed=seed)
            d = chan.dim_in
            w = d * pdm_from_channel(chan).matrix
            sigmas = [np.eye(d, dtype=complex) / d, random_state(d, d, seed), floor_sigma(d, rng)]
            for sigma in sigmas:
                lower, upper, image = reference_evaluate(w, sigma)
                # a 1-qubit input takes sigma and gives T(sigma) as Bloch vectors
                trial = bounds._evaluate(w, bloch(sigma) if d == 2 else sigma)
                ours = from_bloch(trial[5]) if d == 2 else trial[5]
                assert abs(trial[2] - lower) <= 1e-13 * lower
                assert np.abs(ours - image).max() <= 1e-13 * np.abs(image).max()
                # the upper end's rounding error is up to eps / lambda_min(sigma) (_bracket)
                slack = 1e-13 + 2.0 * np.finfo(float).eps / np.linalg.eigvalsh(sigma)[0]
                assert abs(trial[3] - upper) <= slack * upper

    @pytest.mark.parametrize("qubits", [1, 2])
    def test_rejects_sigma_at_the_floor(self, qubits):
        d = 2**qubits
        w = d * pdm_from_channel(random_channel(qubits, qubits, seed=0)).matrix
        sigma = np.diag([bounds._FLOOR] + [(1.0 - bounds._FLOOR) / (d - 1)] * (d - 1))
        if d > 2:
            assert bounds._evaluate(w, sigma.astype(complex)) is None
            assert bounds._evaluate(w, -np.eye(d, dtype=complex) / d) is None
            return
        # Bloch vectors: the least eigenvalue 1/2 - |s| just below and just above the floor,
        # outside the ball (a negative eigenvalue) and NaN, on which eigh would raise
        below, above = 1.0 - 1e-9, 1.0 + 1e-9
        assert bounds._evaluate(w, [0.0, 0.0, 0.5 - above * bounds._FLOOR]) is not None
        for s in ([0.0, 0.0, 0.5 - below * bounds._FLOOR], [0.0, 0.0, 0.75], [math.nan] * 3):
            assert bounds._evaluate(w, s) is None


def reference_sigma_star(w: np.ndarray) -> np.ndarray:
    """s* per W in a stack of phase-covariant 4x4 W, by vectorised NaN masking.

    The closed-form route's earlier selection, kept as a reference for :func:`_sigma_star`.
    """
    n = w.shape[0]
    w00, w11, w22, w33 = np.diagonal(w, axis1=1, axis2=2).real.T
    det, slope = w11 * w22 - np.abs(w[:, 1, 2]) ** 2, w00 - w33
    alpha, beta = (w11 - w22) ** 2 + 4.0 * det, 2.0 * w22 * (w11 - w22) - 4.0 * det
    with np.errstate(divide="ignore", invalid="ignore"):  # NaN where there is no real root
        centre = -beta / (2.0 * alpha)
        spread = np.abs(slope) * np.sqrt((w22**2 / alpha - centre**2) / (alpha - slope**2))
        s = np.vstack([centre - spread, centre + spread, [[0.0], [0.5], [1.0]] * np.ones(n)])
        s = np.where((s >= 0.0) & (s <= 1.0), s, 0.5)
        t = s * w11 + (1.0 - s) * w22
        f = s * w00 + (1.0 - s) * w33 + np.fmax(t, np.sqrt(t * t - 4.0 * s * (1.0 - s) * det))
    return s[np.argmax(f, axis=0), np.arange(n)]


def covariant_w(w00, w11, w22, w33, w12) -> np.ndarray:
    """The 4x4 W with diagonal (w00, w11, w22, w33), w12 and w21 = w12*."""
    w = np.diag([w00, w11, w22, w33]).astype(complex)
    w[1, 2], w[2, 1] = w12, np.conj(w12)
    return w


def seeded_covariant_ws() -> list:
    """The 600 seeded random phase-covariant W of the s* test, some with an indefinite block."""
    ws, rng = [], np.random.default_rng(15)
    for scale in (1e-3, 1.0, 10.0):
        for _ in range(200):
            d, z = scale * rng.random(4), rng.normal() + 1j * rng.normal()
            ws.append(covariant_w(*d, z * rng.random() * math.sqrt(d[1] * d[2] + 0.1)))
    return ws


def bracket_ends(ws, ss) -> np.ndarray:
    """(||M||_1, lambda_max(G)) per W at sigma = diag(s, 1-s), from :func:`_bracket`.

    sigma^(-1/2) = diag(a, b) enters as its Pauli 4-tuple ((a + b) / 2, 0, 0, (a - b) / 2).
    """
    ends = []
    for w, s in zip(ws, ss):
        root = np.diag([math.sqrt(s), math.sqrt(1.0 - s)]).astype(complex)
        a, b = 1.0 / math.sqrt(s), 1.0 / math.sqrt(1.0 - s)
        ends.append(_bracket(np.asarray(w), root, ((a + b) / 2, 0.0, 0.0, (a - b) / 2))[:2])
    return np.array(ends)


def closed_form_ends(ws, ss) -> np.ndarray:
    return np.array([
        _covariant_ends(*np.diagonal(w).real.tolist(), abs(complex(w[1, 2])), s)
        for w, s in zip(ws, ss)
    ])


def default_grid_channels():
    return [
        shifted_depolarizing(p, g)
        for p in np.linspace(0.0, 0.25, 26)
        for g in np.linspace(0.0, 1.0, 21)
    ]


def named_channels():
    """The default grid, the 1-qubit identity and the other named channels over their range."""
    return (
        default_grid_channels()
        + [named_channel("identity", qubits=1)]
        + [named_channel("amplitude-damping", eta=e) for e in np.linspace(0.0, 1.0, 41)]
        + [named_channel("dephasing", strength=s) for s in np.linspace(0.0, 1.0, 11)]
        + [named_channel("depolarizing", p=p) for p in np.linspace(0.0, 0.25, 11)]
    )


def numpy_plumbed_hw(r) -> tuple:
    """(value, diagnostics, best_input) of the closed-form route with NumPy plumbing.

    A reference for :func:`hw_bound`, which reads W once as plain numbers: here W = 2 * R
    stays an array, the pattern is tested by ``np.abs(w.take(_OFF_PATTERN)).max()``, the
    bracket is taken as the route first took it (s* picked whether or not the I/2 bracket
    closes) and best_input is ``np.outer`` of diag(sqrt(s), sqrt(1-s)).
    """
    w = 2 * r.matrix
    assert w.shape == (4, 4) and np.abs(w.take(bounds._OFF_PATTERN)).max() <= HERM_ATOL
    flat = w.ravel().tolist()
    w00, w11, w22, w33 = (flat[k].real for k in (0, 5, 10, 15))
    a12, delta = abs(flat[6]), sum(abs(flat[k]) for k in bounds._OFF_PATTERN)
    lower, upper = _covariant_ends(w00, w11, w22, w33, a12, 0.5)
    lower, upper, s_lower, evaluations = lower - delta, upper + delta, 0.5, 1
    s = _sigma_star(w00, w11, w22, w33, a12)
    if math.log2(upper) - math.log2(lower) > CPTP_ATOL and bounds._FLOOR < s < 1.0 - bounds._FLOOR:
        lower_s, upper_s = _covariant_ends(w00, w11, w22, w33, a12, s)
        if lower_s - delta > lower:
            lower, s_lower = lower_s - delta, s
        upper, evaluations = min(upper, upper_s + delta), 2
    amp = np.diag([math.sqrt(s_lower), math.sqrt(1.0 - s_lower)]).astype(complex).reshape(-1)
    value = max(math.log2(max(upper, lower)), pdm_mod.causality_F(r))
    low = math.log2(lower)
    diagnostics = {
        "restarts": 1, "iterations": 0, "evaluations": evaluations, "accelerated_steps": 0,
        "converged_restarts": int(value - low <= CPTP_ATOL), "tolerance": CPTP_ATOL,
        "lower": low, "gap": value - low,
        "note": "certified upper bound (phase-covariant); best_input attains the lower end",
    }
    return value, diagnostics, np.outer(amp, amp.conj())


def with_off_pattern(w, rng) -> np.ndarray:
    """W plus a Hermitian E on the entries off the pattern, each |e_ij| below ``HERM_ATOL``."""
    e = np.zeros((4, 4), dtype=complex)
    for i, j in ((0, 1), (0, 2), (0, 3), (1, 3), (2, 3)):
        e[i, j] = HERM_ATOL * rng.random() * np.exp(2j * np.pi * rng.random())
    return w + e + e.conj().T


def exact(value, diagnostics, best_input) -> tuple:
    """A report's fields with floats as hex, so that equality is bit for bit (signed zeros)."""
    hexed = {k: v.hex() if isinstance(v, float) else v for k, v in diagnostics.items()}
    return value.hex(), hexed, best_input.dtype, best_input.shape, best_input.tobytes()


class TestPhaseCovariantRoute:
    def test_plain_number_route_matches_numpy_plumbing_bit_for_bit(self, monkeypatch):
        evaluations = set()
        for chan in named_channels():
            rep = hw_bound(chan)
            want = numpy_plumbed_hw(pdm_from_channel(chan))
            assert exact(rep.value, rep.diagnostics, rep.best_input) == exact(*want), chan.label
            evaluations.add(rep.diagnostics["evaluations"])
        stand_in, rng = from_kraus([I2], label="stand-in"), np.random.default_rng(20)
        ws = seeded_covariant_ws()
        ws += [with_off_pattern(w, rng) for w in ws]  # delta is 0 on the named channels
        for w in ws:  # their trace is not 2: a stand-in carries R = W / 2
            r = SimpleNamespace(matrix=w / 2.0, trace_norm=np.abs(np.linalg.eigvalsh(w)).sum() / 2)
            monkeypatch.setattr(pdm_mod, "pdm_from_channel", lambda c: r)
            rep = hw_bound(stand_in)
            assert exact(rep.value, rep.diagnostics, rep.best_input) == exact(*numpy_plumbed_hw(r))
            evaluations.add(rep.diagnostics["evaluations"])
        assert evaluations == {1, 2}  # I/2 alone, and sigma* as well

    def test_scalar_sigma_star_matches_vectorised_reference(self):
        ws = [2.0 * pdm_from_channel(c).matrix for c in named_channels()]
        rng = np.random.default_rng(15)
        for scale in (1e-3, 1.0, 10.0):
            for _ in range(200):
                d, z = scale * rng.random(4), rng.normal() + 1j * rng.normal()
                ws.append(covariant_w(*d, z * rng.random() * math.sqrt(d[1] * d[2] + 0.1)))
        ws += [
            2.0 * pdm_from_channel(shifted_depolarizing(0.1, 0.0)).matrix,  # gamma = 0: double root
            covariant_w(0.3, 1.0, 1.0, 0.7, 1.0),  # alpha == 0
            covariant_w(1.0, 1.0, 0.0, 0.0, 0.0),  # alpha == slope^2
            covariant_w(0.0, 0.0, 1.0, 0.0, 0.25),  # negative radicand: roots not real
            covariant_w(0.0, 0.25, 1.0, 0.0, 0.5),  # both roots outside [0, 1]
            covariant_w(1.0, 0.0, 0.0, 0.0, 0.0),  # s* = 1
            covariant_w(0.0, 0.0, 0.0, 1.0, 0.0),  # s* = 0
        ]
        w = np.array(ws)
        scalar = [
            _sigma_star(*diag, a12)
            for diag, a12 in zip(np.diagonal(w, axis1=1, axis2=2).real.tolist(),
                                 np.abs(w[:, 1, 2]).tolist())
        ]
        reference = reference_sigma_star(w).tolist()
        assert [x.hex() for x in scalar] == [x.hex() for x in reference]
        assert {0.0, 1.0} <= set(scalar) and 0.5 in scalar

    def test_closed_form_ends_match_bracket(self):
        ws = [2.0 * pdm_from_channel(c).matrix for c in named_channels()] + seeded_covariant_ws()
        stars = [_sigma_star(*np.diagonal(w).real.tolist(), abs(complex(w[1, 2]))) for w in ws]
        cases = [(w, 0.5) for w in ws]
        cases += [(w, s) for w, s in zip(ws, stars) if bounds._FLOOR < s < 1.0 - bounds._FLOOR]
        assert len(cases) > 2000  # 1210 W at I/2, 872 of them at an interior s* too
        # degenerate blocks, w12 = 0 and s w11 = (1 - s) w22 exactly
        cases += [(covariant_w(0.4, 0.7, 0.3, 0.6, 0.0), 0.3)]
        cases += [(covariant_w(1.0, 0.5, 0.5, 0.0, 0.0), 0.5)]
        assert 0.3 * 0.7 == (1.0 - 0.3) * 0.3
        ws, ss = zip(*cases)
        ours, ref = closed_form_ends(ws, ss), bracket_ends(ws, ss)
        assert np.all(np.abs(ours - ref) <= 1e-14 * np.abs(ref))

    @pytest.mark.parametrize("s", [2.0 * bounds._FLOOR, 1.0 - 2.0 * bounds._FLOOR])
    def test_closed_form_ends_match_bracket_near_the_floor(self, s):
        ws = [2.0 * pdm_from_channel(c).matrix for c in default_grid_channels()]
        ws += seeded_covariant_ws()
        ours, ref = closed_form_ends(ws, [s] * len(ws)), bracket_ends(ws, [s] * len(ws))
        assert np.all(np.abs(ours[:, 0] - ref[:, 0]) <= 1e-14 * ref[:, 0])
        # the eigensolve's upper end carries a relative rounding error of up to
        # eps / lambda_min(sigma) (see _solve_hw), far above 1e-14 here
        slack = 1e-14 + 2.0 * np.finfo(float).eps / min(s, 1.0 - s)
        assert np.all(np.abs(ours[:, 1] - ref[:, 1]) <= slack * ref[:, 1])

    def test_off_pattern_entries_widen_the_bracket(self, monkeypatch):
        # the covariant part has a 2-dimensional kernel (w00 = w33 = 0) that the off-pattern
        # entries w03 = w30 couple, so they raise f(sigma) at first order
        w = covariant_w(0.0, 0.5, 1.5, 0.0, 2.0)
        w[0, 3] = w[3, 0] = 1e-10
        r = PseudoDensityMatrix(w / 2.0, l_in=1, l_out=1)
        monkeypatch.setattr(pdm_mod, "pdm_from_channel", lambda c: r)
        rep = hw_bound(from_kraus([I2], label="stand-in"))
        assert "phase-covariant" in rep.diagnostics["note"]
        s = _sigma_star(0.0, 0.5, 1.5, 0.0, 2.0)
        assert 0.4 < s < 0.45  # f(s*) exceeds f(1/2) by 1%, so the causality floor is below
        for f in bracket_ends([w, w], [0.5, s])[:, 0]:
            assert rep.value >= math.log2(f)
        assert rep.diagnostics["lower"] <= math.log2(bracket_ends([w], [s])[0, 0])

    def test_off_pattern_entries_above_herm_atol_take_the_fixed_point(self, monkeypatch):
        w = covariant_w(0.0, 0.5, 1.5, 0.0, 2.0)
        w[0, 3] = w[3, 0] = 2.0 * HERM_ATOL
        r = PseudoDensityMatrix(w / 2.0, l_in=1, l_out=1)
        monkeypatch.setattr(pdm_mod, "pdm_from_channel", lambda c: r)
        rep = hw_bound(from_kraus([I2], label="stand-in"))
        assert "phase-covariant" not in rep.diagnostics["note"]
        assert rep.diagnostics["iterations"] > 0
        assert rep.diagnostics["gap"] <= CPTP_ATOL
        s = _sigma_star(0.0, 0.5, 1.5, 0.0, 2.0)
        for f in bracket_ends([w, w], [0.5, s])[:, 0]:
            assert rep.value >= math.log2(f)


def framed(chan, rng) -> QuantumChannel:
    """U o N o V for random unitaries U on the output and V on the input, drawn from rng."""
    u, v = random_unitary(chan.dim_out, rng), random_unitary(chan.dim_in, rng)
    return from_kraus([u @ a @ v for a in chan.kraus], label=f"U∘{chan.label}∘V")


def hw_brackets(original, transformed, copies=1) -> tuple:
    """hw_bound's reports on both channels, where HW(transformed) = copies x HW(original).

    The certified brackets must overlap to ``CPTP_ATOL``, and the transformed one must close
    to ``CPTP_ATOL`` wherever the original closes.
    """
    one, other = hw_bound(original), hw_bound(transformed)
    assert other.diagnostics["lower"] <= copies * one.value + CPTP_ATOL, transformed.label
    assert copies * one.diagnostics["lower"] <= other.value + CPTP_ATOL, transformed.label
    closes = one.diagnostics["gap"] <= CPTP_ATOL
    assert other.diagnostics["gap"] <= CPTP_ATOL or not closes, transformed.label
    return one, other


class TestHwInvariances:
    """||Theta o N||_dia is invariant under unitary frames and padding, and multiplicative
    under tensor products (Watrous, arXiv:1207.5726), so each transformation sends a channel
    through another HW route with a known answer."""

    def test_unitary_frames(self):
        # U o N o V takes a phase-covariant N off the closed form onto the 1-qubit fixed point,
        # except the fully depolarizing channel, which commutes with every unitary
        rng = np.random.default_rng(27)
        chans = default_grid_channels()
        chans += [named_channel("amplitude-damping", eta=e) for e in np.linspace(0.0, 1.0, 41)]
        chans += 25 * [
            named_channel("amplitude-damping", eta=0.3),
            named_channel("amplitude-damping", eta=0.7),
            shifted_depolarizing(0.15, 1.0),
            shifted_depolarizing(0.1, 0.5),
        ]
        for chan in chans:
            one, other = hw_brackets(chan, framed(chan, rng))
            assert "phase-covariant" in one.diagnostics["note"], chan.label
            assert one.diagnostics["gap"] <= CPTP_ATOL, chan.label
            fully_depolarizing = np.allclose(chan.choi, np.eye(4) / 4)
            assert ("phase-covariant" in other.diagnostics["note"]) == fully_depolarizing

    def test_pads(self):
        # N o Tr_1 is 2 -> 1, on the array route at d = 4; N x |0><0| is 1 -> 2, on the float
        # route; padded() gives equal counts to the channels of the fingerprint's unequal
        # digest. Padding moves neither Q nor ||R||_1, so the paper's equal-count theorem on
        # the padded channel bounds Q(N) by the causality bound of N itself
        chans = [random_channel(1, 1, env_qubits=2, seed=s) for s in range(30)]
        cases = [(c, pad(c)) for c in chans for pad in (discarding, appending)]
        unequal = [random_channel(*q, env_qubits=2, seed=s) for q in ((1, 2), (2, 1))
                   for s in range(4)]
        for chan, pad in cases + [(c, padded(c)) for c in unequal]:
            hw_brackets(chan, pad)
            assert abs(causality_bound(pad).value - causality_bound(chan).value) <= 1e-14

    @pytest.mark.parametrize(
        "chan",
        [
            named_channel("amplitude-damping", eta=0.3),
            named_channel("dephasing", strength=0.4),
            shifted_depolarizing(0.15, 1.0),
            shifted_depolarizing(0.1, 0.5),
        ],
    )
    def test_tensor_square(self, chan):
        # a covariant N takes the closed form, and N x N the 16x16 fixed-point solve
        one, _ = hw_brackets(chan, tensor(chan, chan), copies=2)
        assert one.diagnostics["gap"] <= CPTP_ATOL

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(env_qubits=st.sampled_from([1, 2]), seed=st.integers(0, 2**32 - 1))
    def test_tensor_square_of_random_channels(self, env_qubits, seed):
        chan = random_channel(1, 1, env_qubits=env_qubits, seed=seed)
        one, _ = hw_brackets(chan, tensor(chan, chan), copies=2)
        assert one.diagnostics["gap"] <= CPTP_ATOL


def binary_entropy(x):
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -x * np.log2(x) - (1.0 - x) * np.log2(1.0 - x)
    return np.nan_to_num(h)  # h2(0) = h2(1) = 0


class TestExactCapacities:
    """Q <= causality <= HW where the quantum capacity Q is known exactly.

    Q <= causality is the paper's theorem, so these checks fail if it is false.
    """

    @pytest.mark.parametrize(
        "eta, q, hw",
        [
            (0.05, 0.8311, 0.9637),
            (0.1, 0.7094, 0.9269),
            (0.3, 0.3280, 0.7735),
            (0.45, 0.0804, 0.6498),
        ],
    )
    def test_amplitude_damping(self, eta, q, hw):
        # degradable for eta <= 1/2, so Q = max_p h2((1-eta) p) - h2(eta p)
        # (Giovannetti & Fazio, PRA 71, 032314, 2005)
        p = np.linspace(0.0, 1.0, 100_001)
        q_exact = float(np.max(binary_entropy((1.0 - eta) * p) - binary_entropy(eta * p)))
        chan = named_channel("amplitude-damping", eta=eta)
        caus, rep = causality_bound(chan).value, hw_bound(chan)
        assert abs(q_exact - q) < 1e-4
        assert abs(rep.value - hw) < 1e-4
        assert q_exact <= caus <= rep.value

    @pytest.mark.parametrize("strength", [0.1, 0.5, 0.9])
    def test_dephasing(self, strength):
        # a Z flip with probability strength / 2: Q = 1 - h2(strength / 2)
        q_exact = 1.0 - float(binary_entropy(strength / 2.0))
        chan = named_channel("dephasing", strength=strength)
        caus, rep = causality_bound(chan).value, hw_bound(chan)
        assert q_exact <= caus <= rep.value
        assert "phase-covariant" in rep.diagnostics["note"]


def von_neumann_entropy(m) -> float:
    vals = np.linalg.eigvalsh(m)
    vals = vals[vals > 0.0]
    return float(-np.sum(vals * np.log2(vals)))


def coherent_information(rho, chan) -> float:
    """I_c(rho, N) = S(N(rho)) - S(omega), omega = (I x N)(psi) for a purification psi of rho.

    With J the trace-1 Choi matrix, omega = (sqrt(d rho^T) x I) J (sqrt(d rho^T) x I).
    """
    d, d_out = chan.dim_in, chan.dim_out
    vals, vecs = np.linalg.eigh(d * rho.T)
    k = np.kron((vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T, np.eye(d_out))
    omega = k @ chan.choi @ k
    output = np.einsum("xyxz->yz", omega.reshape(d, d_out, d, d_out))
    return von_neumann_entropy(output) - von_neumann_entropy(omega)


def random_state(dim, rank, seed):
    g = random_complex(dim, rank, np.random.default_rng(seed))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


class TestCoherentInformation:
    """I_c(rho, N) <= Q(N) <= causality, one use and two uses at a time."""

    def test_reference_values(self):
        assert abs(coherent_information(I2 / 2, named_channel("identity", qubits=1)) - 1.0) < 1e-12
        chan = named_channel("amplitude-damping", eta=0.3)
        grid = np.linspace(0.0, 1.0, 1001)
        best = max(coherent_information(np.diag([1.0 - p, p]), chan) for p in grid)
        assert abs(best - 0.3280) < 1e-4  # TestExactCapacities' Q at eta = 0.3

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(
        env_qubits=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
        rank=st.integers(1, 4),
        state_seed=st.integers(0, 2**32 - 1),
    )
    def test_below_causality(self, env_qubits, seed, rank, state_seed):
        chan = random_channel(1, 1, env_qubits=env_qubits, seed=seed)
        caus = causality_bound(chan).value
        rho = random_state(2, min(rank, 2), state_seed)
        assert coherent_information(rho, chan) <= caus + CPTP_ATOL
        rho2 = random_state(4, rank, state_seed)
        assert coherent_information(rho2, tensor(chan, chan)) / 2.0 <= caus + CPTP_ATOL


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
        # acceptance criterion 8 checks 1 -> 1 channels; these take the padded value
        for qubits, seed in [(q, s) for q in [(1, 2), (2, 1)] for s in range(50)]:
            chan = random_channel(*qubits, env_qubits=2, seed=seed)
            rep = maxrains_surrogate(chan)
            assert abs(rep.value - causality_bound(conjugate(chan)).value) < 1e-9
            assert rep.diagnostics["log2_inf_norm"] <= rep.value + 1e-12

    def test_value_is_the_causality_measure_of_the_shared_pdm(self):
        grid = [shifted_depolarizing(p, g) for p in np.linspace(0.0, 0.25, 26)
                for g in np.linspace(0.0, 1.0, 21)]
        rand = [random_channel(*q, env_qubits=2, seed=s)
                for q in [(1, 1), (1, 2), (2, 1)] for s in range(10)]
        for chan in grid + rand:
            assert maxrains_surrogate(chan).value == pdm_mod.causality_F(pdm_from_channel(chan))


class TestCompareBounds:
    def test_identity_all_one(self):
        reports = compare_bounds(named_channel("identity", qubits=1))
        for rep in reports.values():
            assert np.isclose(rep.value, 1.0, atol=1e-6)

    def test_difference_entries(self):
        reports = compare_bounds(shifted_depolarizing(0.1, 0.0))
        assert abs(reports["holevo_werner"].diagnostics["hw_minus_causality"]) < 1e-3
        reports = compare_bounds(shifted_depolarizing(0.15, 1.0))
        assert reports["holevo_werner"].diagnostics["hw_minus_causality"] > 1e-4

    def test_hw_never_below_causality_where_they_coincide(self):
        reports = compare_bounds(shifted_depolarizing(0.16, 0.0))
        hw, caus = reports["holevo_werner"], reports["causality"]
        assert hw.value >= caus.value
        assert hw.diagnostics["hw_minus_causality"] >= 0.0


class TestSweep:
    def test_single_point(self):
        rows = sweep_shifted_depol([0.1], [0.0])
        assert len(rows) == 1
        row = rows[0]
        assert abs(row.causality - row.analytic) < 1e-8
        assert abs(row.hw - row.causality) < 1e-3
        assert row.hw_minus_causality == row.hw - row.causality

    def test_row_count_and_order(self):
        rows = sweep_shifted_depol([0.0, 0.1], [0.0, 0.5, 1.0])
        assert len(rows) == 6
        assert [(r.p, r.gamma) for r in rows] == [
            (0.0, 0.0), (0.0, 0.5), (0.0, 1.0), (0.1, 0.0), (0.1, 0.5), (0.1, 1.0),
        ]

    def test_ordering_nonnegative(self):
        rows = sweep_shifted_depol(np.linspace(0.0, 0.25, 26), np.linspace(0.0, 1.0, 21))
        assert all(r.hw_minus_causality >= 0.0 for r in rows)

    def test_deterministic_and_order_independent(self):
        cfg = OptimizerConfig(restarts=2, seed=11)
        serial = sweep_shifted_depol([0.1, 0.2], [0.0, 1.0], cfg, workers=1)
        parallel = sweep_shifted_depol([0.1, 0.2], [0.0, 1.0], cfg, workers=2)
        no_op = dataclasses.replace(cfg, restarts=5, seed=12)
        assert serial == parallel == sweep_shifted_depol([0.1, 0.2], [0.0, 1.0], no_op)

    @pytest.mark.parametrize("p_grid, gamma_grid", [([], [0.1]), ([0.1], [])])
    def test_empty_grid_has_no_rows(self, p_grid, gamma_grid):
        assert sweep_shifted_depol(p_grid, gamma_grid) == []

    @pytest.mark.parametrize(
        "p_grid, gamma_grid, message",
        [
            (np.linspace(0.0, 0.3, 26), np.linspace(0.0, 1.0, 21), "p=0.252 outside"),
            (np.linspace(0.0, 0.25, 26), np.linspace(0.0, 1.5, 21), "gamma=1.05 outside"),
            (np.linspace(np.nan, 0.25, 26), np.linspace(0.0, 1.0, 21), "p=nan outside"),
        ],
    )
    def test_grid_outside_the_family_raises(self, p_grid, gamma_grid, message):
        with pytest.raises(ValueError, match=message):
            sweep_shifted_depol(p_grid, gamma_grid)

    def test_batched_rows_match_single_channel_solves(self):
        rows = sweep_shifted_depol(np.linspace(0.0, 0.25, 26), np.linspace(0.0, 1.0, 21))
        assert len(rows) == 546
        for row in rows:
            chan = shifted_depolarizing(row.p, row.gamma)
            caus, hw = causality_bound(chan).value, hw_bound(chan).value
            assert (row.causality, row.hw, row.hw_minus_causality) == (caus, hw, hw - caus)

    def test_builds_no_channel_and_no_pdm(self, monkeypatch):
        def refuse(self):
            raise AssertionError(f"the sweep built a {type(self).__name__}")

        monkeypatch.setattr(QuantumChannel, "__post_init__", refuse)
        monkeypatch.setattr(PseudoDensityMatrix, "__post_init__", refuse)
        assert len(sweep_shifted_depol(np.linspace(0.0, 0.25, 26), np.linspace(0.0, 1.0, 21))) == 546

    def test_sweeprow_is_plain_data(self):
        row = SweepRow(0.1, 0.0, 0.5, 0.5, 0.5, 0.0)
        assert dataclasses.asdict(row)["p"] == 0.1


class TestOptimizerConfig:
    def test_defaults(self):
        cfg = OptimizerConfig()
        assert [f.name for f in dataclasses.fields(cfg)] == ["restarts", "seed"]
        assert cfg.restarts == 32 and cfg.seed == 0 and MAX_ITERS == 2000

    @pytest.mark.parametrize("kwargs", [{"restarts": 0}])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            OptimizerConfig(**kwargs)
