import dataclasses
import gc
import math
import weakref

import numpy as np
import pytest

from causalcap import bounds, linalg, pdm
from causalcap.channels import (
    from_kraus,
    named_channel,
    random_channel,
    shifted_depolarizing,
)
from causalcap.linalg import (
    CPTP_ATOL,
    I2,
    partial_transpose,
    random_density,
    random_unitary,
    trace_norm,
)
from causalcap.pdm import (
    PseudoDensityMatrix,
    causality_F,
    clamp_log2,
    f_tr,
    lemma1_check,
    log_negativity,
    pdm_from_channel,
    pdm_two_point,
    swap_matrix,
)

IDENT = from_kraus([I2], label="identity")


def swap_permutation(l):
    """SWAP on l + l qubits in its permutation form, sum |x><y| x |y><x|."""
    d = 2**l
    s = np.zeros((d * d, d * d), dtype=complex)
    for x in range(d):
        for y in range(d):
            s[x * d + y, y * d + x] = 1.0
    return s


def apply_on_second_ref(c, m):
    """Reference Kraus loop: (I x N)(m) for m on (reference x channel input)."""
    ext = [np.kron(np.eye(m.shape[0] // c.dim_in), a) for a in c.kraus]
    return sum(e @ m @ e.conj().T for e in ext)


class TestSwapMatrix:
    def test_single_pair_spectrum(self):
        vals = np.linalg.eigvalsh(swap_matrix(1))
        assert np.allclose(vals, [-1, 1, 1, 1])

    def test_exchanges_basis_states(self):
        s = swap_matrix(1)
        for a in range(2):
            for b in range(2):
                va, vb = np.eye(2)[a], np.eye(2)[b]
                assert np.allclose(s @ np.kron(va, vb), np.kron(vb, va))

    def test_rejects_zero_pairs(self):
        with pytest.raises(ValueError, match="need at least one qubit pair"):
            swap_matrix(0)

    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_trace(self, l):
        assert np.isclose(np.trace(swap_matrix(l)) / 2**l, 1.0)

    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_matches_permutation_form(self, l):
        assert np.allclose(swap_matrix(l), swap_permutation(l))


class TestPdmTwoPoint:
    def test_maximally_mixed_identity(self):
        r = pdm_two_point(I2 / 2, IDENT)
        assert np.allclose(r.matrix, swap_matrix(1) / 2)

    def test_maximally_mixed_reduces_to_channel_pdm(self):
        c = shifted_depolarizing(0.12, 0.8)
        r1 = pdm_two_point(I2 / 2, c)
        r2 = pdm_from_channel(c)
        assert np.max(np.abs(r1.matrix - r2.matrix)) < 1e-12

    def test_pure_input_identity_channel(self):
        # brute-force spectrum of {|0><0| x I/2, SWAP} is (1, 1/2, -1/2, 0)
        r = pdm_two_point(np.diag([1.0, 0.0]), IDENT)
        vals = np.linalg.eigvalsh(r.matrix)
        assert np.allclose(sorted(vals), [-0.5, 0.0, 0.5, 1.0])
        assert np.isclose(causality_F(r), 1.0)

    def test_matches_kraus_loop(self):
        rng = np.random.default_rng(5)
        for seed in range(10):
            rho = random_density(2, rng)
            c = random_channel(1, 1, env_qubits=2, seed=seed)
            pre = np.kron(rho, I2 / 2) @ swap_permutation(1)
            ref = apply_on_second_ref(c, pre + pre.conj().T)
            assert np.max(np.abs(pdm_two_point(rho, c).matrix - ref)) < 1e-12

    def test_rejects_invalid_state(self):
        with pytest.raises(ValueError):
            pdm_two_point(np.diag([1.0, 1.0]), IDENT)

    def test_rejects_a_two_qubit_state(self):
        with pytest.raises(ValueError, match=r"state shape \(4, 4\) does not match dimension 2"):
            pdm_two_point(np.eye(4) / 4, IDENT)

    def test_rejects_multiqubit_channel(self):
        with pytest.raises(ValueError, match="single-qubit"):
            pdm_two_point(I2 / 2, named_channel("identity", qubits=2))


class TestPdmFromChannel:
    def test_identity_is_swap_half(self):
        r = pdm_from_channel(IDENT)
        assert np.allclose(r.matrix, swap_matrix(1) / 2)
        assert np.isclose(causality_F(r), 1.0)

    def test_fully_depolarizing_is_product(self):
        r = pdm_from_channel(shifted_depolarizing(0.25, 0.0))
        assert np.allclose(r.matrix, np.eye(4) / 4, atol=1e-9)
        assert abs(causality_F(r)) < 1e-12

    def test_matches_closed_form_value(self):
        r = pdm_from_channel(shifted_depolarizing(0.1, 0.0))
        assert np.isclose(causality_F(r), math.log2(1.4), atol=1e-10)

    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_matches_kraus_loop(self, l):
        for seed in range(5):
            c = random_channel(l, l, env_qubits=2, seed=seed)
            ref = apply_on_second_ref(c, swap_permutation(l) / 2**l)
            assert np.max(np.abs(pdm_from_channel(c).matrix - ref)) < 1e-12

    def test_trace_and_hermiticity(self):
        for seed in range(20):
            r = pdm_from_channel(random_channel(1, 1, env_qubits=2, seed=seed))
            assert np.isclose(np.trace(r.matrix).real, 1.0, atol=1e-9)
            assert np.max(np.abs(r.matrix - r.matrix.conj().T)) < 1e-10

    @pytest.mark.parametrize("qubits", [(1, 2), (2, 1)])
    def test_builds_unequal_qubit_counts(self, qubits):
        # every bound reads this R: HW, and the causality bound and max-Rains surrogate by padding
        c = random_channel(*qubits, env_qubits=1, seed=0)
        r = pdm_from_channel(c)
        assert (r.l_in, r.l_out) == qubits
        assert np.array_equal(r.matrix, partial_transpose(c.choi, (c.dim_in, c.dim_out), 0))


class TestOnePdmPerChannel:
    def test_same_channel_gives_the_same_pdm(self):
        c = random_channel(2, 2, env_qubits=1, seed=3)
        assert pdm_from_channel(c) is pdm_from_channel(c)
        other = random_channel(2, 2, env_qubits=1, seed=3)
        assert pdm_from_channel(other) is not pdm_from_channel(c)
        assert np.array_equal(pdm_from_channel(other).matrix, pdm_from_channel(c).matrix)

    def test_pdms_compare_and_hash_by_identity(self):
        c = random_channel(1, 1, env_qubits=1, seed=4)
        r = pdm_from_channel(c)
        s = PseudoDensityMatrix(r.matrix, l_in=1, l_out=1)
        assert r == r and r != s
        assert hash(r) == hash(r) and len({r, s}) == 2

    def test_the_memo_keeps_no_channel_alive(self):
        c = random_channel(1, 1, env_qubits=1, seed=5)
        r = pdm_from_channel(c)
        ref = weakref.ref(c)
        del c
        gc.collect()
        assert ref() is None
        assert r.trace_norm >= 1.0  # the PDM outlives its channel

    def test_compare_bounds_builds_r_and_its_norm_once(self, monkeypatch):
        calls = {"partial_transpose": 0, "trace_norm": 0}

        def counted(name):
            inner = getattr(pdm, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(pdm, name, counted(name))
        for c in (shifted_depolarizing(0.1, 0.4), random_channel(2, 2, env_qubits=2, seed=6)):
            calls.update(dict.fromkeys(calls, 0))
            reports = bounds.compare_bounds(c)
            assert calls == {"partial_transpose": 1, "trace_norm": 1}
            r = pdm_from_channel(c)
            assert reports["causality"].value == causality_F(r) == math.log2(r.trace_norm)

    def test_compare_bounds_checks_r_once(self, monkeypatch):
        # one Hermiticity scan of R, inside the trace norm that builds it
        shapes = []

        def counted(a, inner=linalg.require_hermitian):
            shapes.append(np.shape(a))
            return inner(a)

        for mod in (linalg, pdm, bounds):  # wherever the check is imported
            if hasattr(mod, "require_hermitian"):
                monkeypatch.setattr(mod, "require_hermitian", counted)
        for c in (shifted_depolarizing(0.1, 0.4), random_channel(2, 2, env_qubits=2, seed=6),
                  random_channel(1, 2, env_qubits=1, seed=7)):
            shapes.clear()
            bounds.compare_bounds(c)
            assert shapes == [c.choi.shape]


class TestValidatedOnce:
    def test_the_norm_is_a_field_set_when_r_is_built(self):
        r = pdm_from_channel(random_channel(1, 1, env_qubits=1, seed=8))
        assert "trace_norm" in {f.name for f in dataclasses.fields(r)}
        assert vars(r)["trace_norm"] == trace_norm(r.matrix)

    @pytest.mark.parametrize(
        "matrix, l, message",
        [
            (np.ones(4), 1, "expected a 2-d matrix"),
            (np.ones((4, 2)), 1, "expected a square matrix"),
            (np.diag([np.nan, 1.0, 0.0, 0.0]), 1, "must be finite"),
            (np.triu(np.ones((4, 4))) / 4, 1, "not Hermitian"),
            (np.eye(4).tolist(), 2, r"shape \(4, 4\) does not match 2\+2 qubits"),
            (np.eye(4) / 2, 1, "trace 2.0 is not 1"),
        ],
        ids=["1-d", "not-square", "nan", "not-hermitian", "shape-of-a-list", "trace"],
    )
    def test_a_supplied_matrix_is_rejected_with_its_message(self, matrix, l, message):
        with pytest.raises(ValueError, match=message):
            PseudoDensityMatrix(matrix, l, l)

    def test_a_supplied_matrix_is_copied_symmetrized_and_normed(self):
        m = swap_matrix(1) / 2
        m[0, 1] += 1e-12j  # drift within HERM_ATOL
        r = PseudoDensityMatrix(m, 1, 1)
        assert m.flags.writeable and not r.matrix.flags.writeable
        assert np.array_equal(r.matrix, r.matrix.conj().T)
        assert np.max(np.abs(r.matrix - m)) <= 1e-12
        assert r.trace_norm == trace_norm(m)


class TestCausalityMeasure:
    def test_swap_half_is_one(self):
        assert np.isclose(causality_F(pdm_from_channel(IDENT)), 1.0)

    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_identity_on_l_qubits(self, l):
        c = named_channel("identity", qubits=l)
        assert np.isclose(causality_F(pdm_from_channel(c)), float(l), atol=1e-9)

    def test_f_tr_relation(self):
        for seed in range(10):
            r = pdm_from_channel(random_channel(1, 1, env_qubits=2, seed=seed))
            assert np.isclose(causality_F(r), math.log2(f_tr(r) + 1.0), atol=1e-12)

    def test_f_tr_values(self):
        assert np.isclose(f_tr(pdm_from_channel(IDENT)), 1.0)
        double = pdm_from_channel(named_channel("identity", qubits=2))
        assert np.isclose(f_tr(double), 3.0)

    def test_clamp_reads_the_accepted_trace_defect_as_zero(self):
        # an accepted PDM has ||R||_1 >= |tr R| >= 1 - CPTP_ATOL, so only that shortfall reads 0
        least = math.log2(1.0 - CPTP_ATOL)
        above = np.nextafter(least, 0.0)
        below = np.nextafter(least, -1.0)
        for value in (above, -7.2e-10, -1e-12, -5e-324):
            assert clamp_log2(value) == 0.0
        for value in (least, below, -2e-9, -1.0, 0.0, 5e-324, 1.5):
            assert clamp_log2(value) == value


class TestLogNegativity:
    def test_max_entangled(self):
        v = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        assert np.isclose(log_negativity(np.outer(v, v.conj()), (2, 2)), 1.0)

    def test_maximally_mixed(self):
        assert abs(log_negativity(np.eye(4) / 4, (2, 2))) < 1e-12

    def test_rejects_non_state(self):
        # SWAP / 2 is Hermitian with unit trace, but has eigenvalue -1/2
        with pytest.raises(ValueError, match="not a state"):
            log_negativity(swap_matrix(1) / 2, (2, 2))


class TestLemma1:
    def test_identity_map(self):
        assert lemma1_check(I2, 1, 1) == 0.0

    def test_random_unitary(self):
        u = random_unitary(2, np.random.default_rng(1))
        assert lemma1_check(u, 1, 1) < 1e-10

    def test_shape_check(self):
        with pytest.raises(ValueError, match="does not match"):
            lemma1_check(I2, 1, 2)
