import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import causalcap
from causalcap.linalg import (
    I2,
    PAULI_X,
    PAULI_Z,
    anticommutator,
    inf_norm,
    kron,
    partial_trace,
    partial_transpose,
    permute_qubits,
    random_density,
    random_hermitian,
    random_unitary,
    require_state,
    trace_norm,
)

RNG = np.random.default_rng(20260825)


def phi_plus_projector():
    v = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    return np.outer(v, v.conj())


def swap2():
    return np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    )


class TestKron:
    def test_identity(self):
        assert np.allclose(kron(I2, I2), np.eye(4))

    def test_zz_diagonal(self):
        assert np.allclose(np.diag(kron(PAULI_Z, PAULI_Z)), [1, -1, -1, 1])

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_trace_multiplicative(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert np.isclose(np.trace(kron(a, b)), np.trace(a) * np.trace(b))


class TestAnticommutator:
    def test_xx(self):
        assert np.allclose(anticommutator(PAULI_X, PAULI_X), 2 * I2)

    def test_anticommuting_paulis(self):
        assert np.allclose(anticommutator(PAULI_X, PAULI_Z), np.zeros((2, 2)))

    def test_with_identity(self):
        a = random_hermitian(2, RNG)
        assert np.allclose(anticommutator(I2, a), 2 * a)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            anticommutator(I2, np.eye(4))


class TestPartialTrace:
    def test_maximally_entangled_marginal(self):
        out = partial_trace(phi_plus_projector(), [2, 2], {0})
        assert np.allclose(out, I2 / 2)

    def test_product_factorizes(self):
        a = random_hermitian(2, RNG)
        b = random_hermitian(3, RNG)
        out = partial_trace(np.kron(a, b), [2, 3], {0})
        assert np.allclose(out, a * np.trace(b))

    def test_trace_preserved(self):
        a = random_hermitian(8, RNG)
        out = partial_trace(a, [2, 2, 2], {1})
        assert np.isclose(np.trace(out), np.trace(a))

    def test_inconsistent_dims(self):
        with pytest.raises(ValueError):
            partial_trace(np.eye(4), [2, 3], {0})


class TestPartialTranspose:
    def test_phi_plus_gives_swap(self):
        assert np.allclose(partial_transpose(phi_plus_projector(), [2, 2], 1), swap2() / 2)

    def test_product(self):
        a = random_hermitian(2, RNG)
        b = random_hermitian(2, RNG)
        out = partial_transpose(np.kron(a, b), [2, 2], 1)
        assert np.allclose(out, np.kron(a, b.T))

    def test_involution(self):
        a = random_hermitian(4, RNG)
        assert np.allclose(partial_transpose(partial_transpose(a, [2, 2], 1), [2, 2], 1), a)

    def test_preserves_trace_and_hermiticity(self):
        a = random_hermitian(4, RNG)
        pt = partial_transpose(a, [2, 2], 0)
        assert np.isclose(np.trace(pt), np.trace(a))
        assert np.allclose(pt, pt.conj().T)


class TestNorms:
    def test_trace_norm_diag(self):
        assert np.isclose(trace_norm(np.diag([1.0, -1.0])), 2.0)

    def test_trace_norm_density(self):
        assert np.isclose(trace_norm(random_density(4, RNG)), 1.0)

    def test_trace_norm_double_swap(self):
        # eigenvalues of SWAP x SWAP / 4 are +-1/4, so the norm is 16/4
        m = np.kron(swap2(), swap2()) / 4.0
        assert np.isclose(trace_norm(m), 4.0)

    def test_unitary_invariance(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            m = random_hermitian(4, rng)
            u = random_unitary(4, rng)
            assert abs(trace_norm(u @ m @ u.conj().T) - trace_norm(m)) < 1e-9

    def test_subadditivity(self):
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            a = random_hermitian(4, rng)
            b = random_hermitian(4, rng)
            assert trace_norm(a + b) <= trace_norm(a) + trace_norm(b) + 1e-9

    def test_inf_norm_projector(self):
        assert np.isclose(inf_norm(phi_plus_projector()), 1.0)

    def test_inf_norm_scaled_identity(self):
        assert np.isclose(inf_norm(2 * np.eye(3)), 2.0)

    def test_norm_ordering(self):
        for seed in range(20):
            m = random_hermitian(4, np.random.default_rng(2000 + seed))
            assert inf_norm(m) <= trace_norm(m) + 1e-12

    def test_rejects_non_hermitian(self):
        bad = np.array([[0, 2], [0, 0]], dtype=complex)
        with pytest.raises(ValueError):
            trace_norm(bad)
        with pytest.raises(ValueError):
            inf_norm(bad)

    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    def test_rejects_non_finite(self, entry):
        bad = np.diag([entry, 1.0]).astype(complex)
        with pytest.raises(ValueError, match="must be finite"):
            trace_norm(bad)


class TestRequireState:
    def test_accepts_and_symmetrizes(self):
        rho = random_density(3, RNG)
        drift = rho + 1e-12 * np.triu(np.ones((3, 3)), 1)
        out = require_state(drift)
        assert np.array_equal(out, out.conj().T)
        assert np.max(np.abs(out - rho)) <= 1e-12

    @pytest.mark.parametrize(
        "bad, reason",
        [(np.diag([1.5, -0.5]), "eigenvalue"), (np.diag([1.0, 1.0]), "trace")],
    )
    def test_rejects_non_states(self, bad, reason):
        with pytest.raises(ValueError, match=f"not a state: {reason}"):
            require_state(bad.astype(complex))


def test_permute_qubits_swaps_factors():
    a = random_hermitian(2, RNG)
    b = random_hermitian(2, RNG)
    assert np.allclose(permute_qubits(np.kron(a, b), [1, 0]), np.kron(b, a))


def test_tolerances_are_defined_only_in_linalg():
    suffixes = ("_ATOL", "_TRUNCATION", "_CLAMP")
    defined = {}
    for path in sorted(Path(causalcap.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for name in (n for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)):
                    if name.id.endswith(suffixes):
                        defined.setdefault(path.stem, []).append(name.id)
    assert set(defined) == {"linalg"}, defined
