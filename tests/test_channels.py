import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalcap.bounds import causality_bound
from causalcap.channels import (
    ChannelFormatError,
    QuantumChannel,
    apply,
    channel_from_dict,
    channel_to_dict,
    check_shifted_depolarizing,
    choi_from_kraus,
    compose,
    conjugate,
    from_kraus,
    load_channel,
    named_channel,
    random_channel,
    save_channel,
    shifted_depolarizing,
    shifted_depolarizing_kraus,
    tensor,
    tp_residual,
)
from causalcap.linalg import CPTP_ATOL, I2, PAULI_Z, random_complex, random_density
from causalcap.verify import entanglement_fidelity

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)

IDENT = from_kraus([I2], label="identity")
DEPHASE = from_kraus([np.sqrt(0.5) * I2, np.sqrt(0.5) * PAULI_Z], label="dephase")
# malformed Kraus operators, each with the message it raises whether or not 1->1 is declared
MALFORMED = {
    "none": ([], "a channel needs at least one Kraus operator"),
    "1-d": ([np.ones(2), np.ones(2)], r"Kraus operator must be a 2-d matrix, got shape \(2,\)"),
    "ragged": ([I2, np.eye(4, 2)], "Kraus operators must share a common shape"),
    "nan": ([np.diag([np.nan, 1.0])], r"must be finite \(found NaN or infinity\)"),
    "inf": ([np.diag([1.0, -np.inf])], r"must be finite \(found NaN or infinity\)"),
    "magnitude": ([np.diag([1e308, 1.0])], "must have magnitude at most 1"),
    # finite parts whose modulus overflows to inf: a magnitude fault, not a finiteness one
    "modulus-overflow": ([np.diag([1.5e308 + 1.5e308j, 1.0])], "must have magnitude at most 1"),
    "not-tp": ([0.5 * I2], "not trace preserving"),
}
# Kraus operators of a shape (rows, cols) that no map between qubit registers has
NOT_QUBIT_SHAPES = {
    "0x0": ([np.zeros((0, 0))], (0, 0)),
    "1x1": ([np.eye(1)], (1, 1)),
    "3x3": ([np.eye(3)], (3, 3)),
    "prepare": ([np.array([[1.0], [0.0]])], (2, 1)),  # prepares |0>
    "trace": ([np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])], (1, 2)),
}
# the forms the operators may come in (a stack cannot be ragged)
FORMS = {
    "list": list,
    "stack": lambda ops: np.array(ops) if ops else np.zeros((0, 2, 2)),
    "generator": lambda ops: (a for a in ops),
}


def phi_plus_projector():
    v = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    return np.outer(v, v.conj())


def saved(c, tmp_path):
    """Path of ``c`` saved to a channel file in ``tmp_path``."""
    path = tmp_path / "chan.json"
    save_channel(c, path)
    return path


def input_marginal(j, dim_in, dim_out):
    """Tr_out of an operator on (input x output)."""
    return np.einsum("xyzy->xz", j.reshape(dim_in, dim_out, dim_in, dim_out))


def noisy_kraus(c, scale, seed):
    """c's Kraus operators A_k plus complex noise N_k of largest entry ``scale``, less the
    first-order completeness defect: N_k -> N_k - A_k E / 2, E = sum_k A_k^dag N_k + h.c.
    The list is then complete to order scale**2 plus rounding, within ``CPTP_ATOL``."""
    ops = np.array(c.kraus)
    noise = random_complex(ops.size, 1, np.random.default_rng(seed)).reshape(ops.shape)
    noise *= scale / np.max(np.abs(noise))
    defect = np.einsum("kmi,kmj->ij", ops.conj(), noise)
    noise -= ops @ (0.5 * (defect + defect.conj().T))
    noisy = list(ops + noise)
    assert tp_residual(from_kraus(noisy).choi, c.dim_in) <= CPTP_ATOL
    return noisy


class TestFromKraus:
    def test_identity(self):
        rho = random_density(2, np.random.default_rng(0))
        assert np.allclose(apply(IDENT, rho), rho)

    def test_bit_flip(self):
        c = from_kraus([PAULI_X])
        rho = np.diag([1.0, 0.0]).astype(complex)
        assert np.allclose(apply(c, rho), np.diag([0.0, 1.0]))

    def test_full_dephasing(self):
        rho = (I2 + PAULI_X) / 2
        assert np.allclose(apply(DEPHASE, rho), I2 / 2)

    # QuantumChannel(ops) and from_kraus(ops) are one path: each rejection test below without
    # declared counts runs once

    def test_rejects_incomplete(self):
        with pytest.raises(ValueError, match="not trace preserving"):
            QuantumChannel([0.5 * I2])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            QuantumChannel([])

    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    def test_rejects_non_finite(self, entry):
        bad = I2.copy()
        bad[0, 1] = entry
        with pytest.raises(ValueError, match="finite"):
            QuantumChannel([bad])

    def test_rejects_overflowing_entry(self):
        # J of this list overflows to inf/NaN; the entry bound rejects it first
        bad = I2.copy()
        bad[0, 0] = 1e308
        with pytest.raises(ValueError, match="magnitude"):
            QuantumChannel([bad])

    def test_rejects_huge_qubit_count_without_computing_its_dimension(self):
        message = r"^Kraus shape \(2, 2\) does not match 10{400}->1 qubits$"
        with pytest.raises(ValueError, match=message):
            from_kraus([I2], 10**400, 1)

    def test_rejects_operators_of_different_shapes(self):
        with pytest.raises(ValueError, match="Kraus operators must share a common shape"):
            QuantumChannel([I2, np.eye(4, 2, dtype=complex)])

    @pytest.mark.parametrize("ops, qubits, shown", [
        ([np.eye(1)], (0, 0), "qubits_in must be at least 1, got 0"),
        ([I2], (-1, 1), "qubits_in must be at least 1, got -1"),
        ([I2], (None, 0), "qubits_out must be at least 1, got 0"),  # a count left out is skipped
    ], ids=["0-0", "negative", "out-only"])
    def test_rejects_declared_qubit_counts_below_one(self, ops, qubits, shown):
        with pytest.raises(ValueError, match=f"^{shown}$"):
            from_kraus(ops, *qubits)

    @pytest.mark.parametrize("op", [np.ones(2), np.ones((2, 2, 1)), np.array(1.0)],
                             ids=["1-d", "3-d", "0-d"])
    def test_rejects_an_operator_that_is_not_2d(self, op):
        with pytest.raises(ValueError, match=r"^Kraus operator must be a 2-d matrix, got shape \("):
            QuantumChannel([I2, op])

    @pytest.mark.parametrize("case, form", [(case, form) for case in MALFORMED for form in FORMS
                                            if (case, form) != ("ragged", "stack")])
    def test_malformed_operators_raise_one_message_in_every_form(self, case, form):
        ops, message = MALFORMED[case]
        for build in (QuantumChannel, from_kraus, lambda o: from_kraus(o, 1, 1)):
            with pytest.raises(ValueError, match=message):
                build(FORMS[form](ops))

    @pytest.mark.parametrize("case, form", [(case, form) for case in NOT_QUBIT_SHAPES
                                            for form in FORMS])
    def test_a_shape_no_qubit_map_has_is_named_without_counts(self, case, form):
        ops, (rows, cols) = NOT_QUBIT_SHAPES[case]
        # declared counts are compared with the first operator's shape, which meets the same
        # rule before the type runs
        for build in (QuantumChannel, from_kraus, lambda o: from_kraus(o, 1, 1)):
            with pytest.raises(ValueError, match=rf"^Kraus shape \({rows}, {cols}\) is not "
                                                 r"\(2\*\*m, 2\*\*n\) with m, n >= 1$"):
                build(FORMS[form](ops))

    @pytest.mark.parametrize("build, shown", [
        (lambda: from_kraus([I2], 1.0, 1.0), "qubits_in must be an integer, got 1.0"),
        (lambda: from_kraus([I2], qubits_out=2.0), "qubits_out must be an integer, got 2.0"),
        (lambda: random_channel(1.0, 1), "qubits_in must be an integer, got 1.0"),
        (lambda: random_channel(1, 1, env_qubits=1.5), "env_qubits must be an integer, got 1.5"),
        (lambda: named_channel("identity", qubits=2.7), "qubits must be an integer, got 2.7"),
        (lambda: from_kraus([I2], True, 1), "qubits_in must be an integer, got True"),
        (lambda: random_channel(1, 1, env_qubits=True), "env_qubits must be an integer, got True"),
        (lambda: named_channel("identity", qubits=False), "qubits must be an integer, got False"),
    ], ids=["from_kraus", "from_kraus-out", "random", "random-env", "identity",
            "from_kraus-bool", "random-env-bool", "identity-bool"])
    def test_rejects_qubit_counts_that_are_not_integers(self, build, shown):
        with pytest.raises(ValueError, match=f"^{re.escape(shown)}$"):
            build()

    def test_numpy_integer_counts_are_stored_as_int(self):
        c = random_channel(np.int64(1), np.int32(2), env_qubits=np.uint8(1))
        assert (type(c.qubits_in), type(c.qubits_out), c.dim_in, c.dim_out) == (int, int, 2, 4)
        assert type(named_channel("identity", qubits=np.int64(2)).qubits_in) is int
        a, b = random_channel(1, 1, seed=np.uint8(7)), random_channel(1, 1, seed=7)
        assert np.array_equal(a.choi, b.choi) and a.label == b.label


class TestDirectConstructor:
    """QuantumChannel(ops) reads the qubit counts from the shape and makes the one copy."""

    def test_takes_only_its_operators_and_label(self):
        init = [f.name for f in dataclasses.fields(QuantumChannel) if f.init]
        assert init == ["kraus", "label"]
        # |x> -> |x>|0>: an isometry from 1 qubit into 2
        c = QuantumChannel([np.eye(4, 2)[[0, 2, 1, 3]]], "append")
        assert (c.qubits_in, c.qubits_out, c.dim_in, c.dim_out) == (1, 2, 2, 4)
        assert type(c.qubits_in) is int and c.label == "append"

    def test_rejects_a_map_that_is_not_trace_preserving(self):
        ket0_bra0, ket1_bra0 = np.diag([1.0, 0.0]), np.array([[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="not trace preserving"):
            QuantumChannel((ket0_bra0, ket1_bra0))

    @pytest.mark.parametrize("q_in, q_out, stack", [
        (1, 1, shifted_depolarizing_kraus(0.1, 0.3)),
        (2, 2, np.array(random_channel(2, 2).kraus)),
    ], ids=["shifted", "random"])
    def test_a_stack_builds_the_channel_its_list_builds(self, q_in, q_out, stack):
        from_stack = QuantumChannel(stack)
        from_list = QuantumChannel(list(stack))
        assert (from_stack.qubits_in, from_stack.qubits_out) == (q_in, q_out)
        assert np.array(from_stack.kraus).tobytes() == np.array(from_list.kraus).tobytes()
        assert from_stack.choi.tobytes() == from_list.choi.tobytes()

    @pytest.mark.parametrize("q_in, q_out, ops", [
        (1, 1, [np.sqrt(0.5) * np.eye(2), np.sqrt(0.5) * np.diag([1.0, -1.0])]),
        (1, 1, list(shifted_depolarizing_kraus(0.1, 0.3))),
        (2, 1, list(random_channel(2, 1, env_qubits=2).kraus)),
    ], ids=["real", "shifted", "random"])
    def test_a_generator_builds_the_channel_its_list_builds(self, q_in, q_out, ops):
        from_list = QuantumChannel(ops)
        # the one copy holds the entries that one copy per operator holds
        per_operator = np.array([np.asarray(a, dtype=complex) for a in ops])
        assert from_list.kraus.tobytes() == per_operator.tobytes()
        for c in (from_kraus((a for a in ops), q_in, q_out), from_kraus(a for a in ops),
                  QuantumChannel(iter(ops))):
            assert (c.qubits_in, c.qubits_out) == (q_in, q_out)
            assert c.kraus.tobytes() == from_list.kraus.tobytes()
            assert c.choi.tobytes() == from_list.choi.tobytes()

    @pytest.mark.parametrize("make", [
        lambda: QuantumChannel([np.sqrt(0.5) * I2, np.sqrt(0.5) * PAULI_Z]),
        lambda: shifted_depolarizing(0.1, 0.3),
        lambda: random_channel(2, 1, env_qubits=2, seed=0),
    ], ids=["list", "shifted", "random"])
    def test_operators_are_views_of_one_array(self, make):
        # each operator read from kraus is a view of the channel's one stack, not a copy
        c = make()
        base = c.kraus[0].base
        assert base is c.kraus and base.shape == (len(c.kraus), c.dim_out, c.dim_in)
        assert all(a.base is base for a in c.kraus)

    def test_the_callers_stack_cannot_change_the_channel(self):
        stack = shifted_depolarizing_kraus(0.1, 0.3)
        c = QuantumChannel(stack)
        stack[:] = PAULI_X
        assert np.array_equal(np.array(c.kraus), shifted_depolarizing_kraus(0.1, 0.3))
        assert np.array_equal(c.choi, choi_from_kraus(shifted_depolarizing_kraus(0.1, 0.3)))

    def test_an_empty_stack_is_refused(self):
        with pytest.raises(ValueError, match="needs at least one Kraus operator"):
            QuantumChannel(np.zeros((0, 2, 2)))


class TestImmutable:
    def test_the_callers_array_cannot_change_the_channel(self):
        a = np.eye(2, dtype=complex)
        c = from_kraus([a])
        a[:] = PAULI_X
        rho = np.diag([1.0, 0.0]).astype(complex)
        assert np.array_equal(apply(c, rho), rho)
        assert np.array_equal(c.kraus[0], I2) and np.array_equal(c.choi, IDENT.choi)

    @pytest.mark.parametrize("make", [
        lambda tmp: QuantumChannel([np.sqrt(0.5) * I2, np.sqrt(0.5) * PAULI_Z]),
        lambda tmp: QuantumChannel(shifted_depolarizing_kraus(0.1, 0.3)),
        lambda tmp: from_kraus([np.sqrt(0.5) * I2, np.sqrt(0.5) * PAULI_Z]),
        lambda tmp: named_channel("amplitude-damping", eta=0.3),
        lambda tmp: shifted_depolarizing(0.1, 0.3),
        lambda tmp: random_channel(2, 1, env_qubits=2, seed=0),  # strided rows of one isometry
        lambda tmp: compose(DEPHASE, random_channel(1, 1, env_qubits=2, seed=1)),
        lambda tmp: tensor(IDENT, DEPHASE),
        lambda tmp: conjugate(DEPHASE),
        lambda tmp: load_channel(saved(random_channel(1, 2, env_qubits=1, seed=0), tmp)),
    ], ids=["list", "stack", "from_kraus", "named", "shifted", "random", "compose", "tensor",
            "conjugate", "load_channel"])
    def test_stored_arrays_are_read_only(self, make, tmp_path):
        # whatever the constructor, kraus is the channel's own read-only (k, d_out, d_in) array
        c = make(tmp_path)
        assert type(c.kraus) is np.ndarray and c.kraus.flags.owndata and c.kraus.dtype == complex
        assert c.kraus.shape == (len(c.kraus), c.dim_out, c.dim_in)
        for m in (c.kraus, c.choi):
            with pytest.raises(ValueError, match="read-only"):
                m[0, 0] = 0.0


class TestApply:
    def test_shift_endpoint(self):
        c = shifted_depolarizing(0.25, 1.0)
        rho = random_density(2, np.random.default_rng(1))
        assert np.allclose(apply(c, rho), np.diag([1.0, 0.0]), atol=1e-9)

    def test_trace_preserved(self):
        c = random_channel(1, 1, env_qubits=2, seed=3)
        rho = random_density(2, np.random.default_rng(2))
        assert np.isclose(np.trace(apply(c, rho)), 1.0)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            apply(IDENT, np.eye(4))


class TestChoi:
    def test_identity(self):
        assert np.allclose(IDENT.choi, phi_plus_projector())

    def test_fully_depolarizing(self):
        c = shifted_depolarizing(0.25, 0.0)
        assert np.allclose(c.choi, np.eye(4) / 4, atol=1e-9)

    def test_random_channel_choi_is_state(self):
        for seed in range(10):
            c = random_channel(1, 1, env_qubits=2, seed=seed)
            vals = np.linalg.eigvalsh(c.choi)
            assert vals[0] > -1e-9
            assert np.isclose(np.trace(c.choi).real, 1.0, atol=1e-9)
            marg = input_marginal(c.choi, 2, 2)
            assert np.max(np.abs(marg - I2 / 2)) < 1e-8


class TestTpResidual:
    @pytest.mark.parametrize("q_in, q_out", [(1, 1), (2, 2), (1, 2), (2, 1), (3, 3)],
                             ids=["1", "2", "1-2", "2-1", "3-3"])
    def test_equals_completeness_residual(self, q_in, q_out):
        rng = np.random.default_rng(16)
        ops = [a + 0.01 * rng.standard_normal(a.shape)
               for a in random_channel(q_in, q_out, env_qubits=2, seed=q_in).kraus]
        d = 2**q_in
        vecs = [a.T.reshape(-1) / np.sqrt(d) for a in ops]
        j = sum(np.outer(v, v.conj()) for v in vecs)
        completeness = sum(a.conj().T @ a for a in ops)
        expected = np.max(np.abs(completeness - np.eye(d)))
        assert expected > 1e-3
        assert abs(tp_residual(j, d) - expected) < 1e-12


class TestNoisyKraus:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        qubits=st.sampled_from([1, 2]),
        seed=st.integers(0, 2**32 - 1),
        scale=st.floats(0.0, 2e-10),
    )
    def test_accepted_channel_survives_every_kraus_operation(
        self, tmp_path_factory, qubits, seed, scale
    ):
        exact = random_channel(qubits, qubits, env_qubits=2, seed=seed)
        c = from_kraus(noisy_kraus(exact, scale, seed))
        assert np.array_equal(from_kraus(c.kraus).choi, c.choi)
        path = tmp_path_factory.mktemp("noisy") / "chan.json"
        save_channel(c, path)
        loaded = load_channel(path)
        assert np.array_equal(loaded.choi, c.choi)
        conjugate(loaded)
        compose(c, loaded)
        tensor(c, loaded)

    def test_saved_noisy_channel_has_the_same_causality_bound(self, tmp_path):
        path = tmp_path / "chan.json"
        for seed in range(100):
            exact = random_channel(2, 2, env_qubits=2, seed=seed)
            c = from_kraus(noisy_kraus(exact, 2e-10, seed))
            save_channel(c, path)
            assert causality_bound(load_channel(path)).value == causality_bound(c).value


class TestComposeTensor:
    def test_compose_identity(self):
        c = shifted_depolarizing(0.1, 0.3)
        comp = compose(IDENT, c)
        rho = random_density(2, np.random.default_rng(5))
        assert np.allclose(apply(comp, rho), apply(c, rho))

    def test_compose_involutive_unitary(self):
        xchan = from_kraus([PAULI_X])
        rho = random_density(2, np.random.default_rng(6))
        assert np.allclose(apply(compose(xchan, xchan), rho), rho)

    def test_compose_idempotent_dephasing(self):
        rho = random_density(2, np.random.default_rng(7))
        assert np.allclose(
            apply(compose(DEPHASE, DEPHASE), rho), apply(DEPHASE, rho)
        )

    def test_compose_dim_mismatch(self):
        two = named_channel("identity", qubits=2)
        with pytest.raises(ValueError, match="cannot compose"):
            compose(two, IDENT)

    def test_tensor_identity(self):
        t = tensor(IDENT, IDENT)
        assert t.qubits_in == t.qubits_out == 2
        rho = random_density(4, np.random.default_rng(8))
        assert np.allclose(apply(t, rho), rho)

    def test_tensor_product_action(self):
        c = shifted_depolarizing(0.1, 0.5)
        d = DEPHASE
        rng = np.random.default_rng(9)
        rho, sigma = random_density(2, rng), random_density(2, rng)
        assert np.allclose(
            apply(tensor(c, d), np.kron(rho, sigma)),
            np.kron(apply(c, rho), apply(d, sigma)),
        )

    def test_tensor_choi_factorizes(self):
        c = shifted_depolarizing(0.05, 0.2)
        d = DEPHASE
        t = tensor(c, d)
        # (in_c, out_c, in_d, out_d) -> (in_c, in_d, out_c, out_d), rows and columns alike
        wires = np.kron(c.choi, d.choi).reshape([2] * 8)
        reordered = wires.transpose(0, 2, 1, 3, 4, 6, 5, 7).reshape(16, 16)
        assert np.max(np.abs(t.choi - reordered)) < 1e-9


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    p=st.floats(0.0, 0.25),
    gamma=st.floats(0.0, 1.0),
)
def test_every_constructor_builds_choi_from_its_kraus_list(seed, p, gamma):
    a = random_channel(1, 1, env_qubits=2, seed=seed)
    b = from_kraus(random_channel(1, 1, env_qubits=1, seed=seed).kraus)
    made = [
        a,
        b,
        from_kraus(noisy_kraus(a, 2e-10, seed)),
        compose(a, b),
        tensor(a, b),
        conjugate(a),
        named_channel("depolarizing", p=p),
        named_channel("shifted-depolarizing", p=p, gamma=gamma),
        named_channel("amplitude-damping", eta=gamma),
    ]
    for c in made:
        assert np.array_equal(c.choi, from_kraus(c.kraus).choi), c.label


@pytest.mark.parametrize("q_in, q_out", [(1, 1), (1, 2), (2, 1), (2, 2)],
                         ids=["1", "1-2", "2-1", "2"])
def test_stack_operations_match_the_per_operator_loops(q_in, q_out):
    # the per-operator loops the stack expressions replaced, kept as references
    rng = np.random.default_rng(18)
    for env in (1, 2, 3):
        c = random_channel(q_in, q_out, env_qubits=env, seed=env)
        d = random_channel(q_out, q_in, env_qubits=4 - env, seed=10 + env)
        rho = random_density(c.dim_in, rng)
        out = np.zeros((c.dim_out, c.dim_out), dtype=complex)
        for a in c.kraus:
            out += a @ rho @ a.conj().T
        assert apply(c, rho).tobytes() == out.tobytes()
        ops = np.array([dj @ ak for dj in d.kraus for ak in c.kraus])
        assert compose(d, c).kraus.tobytes() == ops.tobytes()
        ops = np.array([np.kron(a, b) for a in c.kraus for b in d.kraus])
        assert tensor(c, d).kraus.tobytes() == ops.tobytes()
        assert conjugate(c).kraus.tobytes() == np.array([a.conj() for a in c.kraus]).tobytes()
        rows = [[[[float(z.real), float(z.imag)] for z in row] for row in a] for a in c.kraus]
        assert json.dumps(channel_to_dict(c)["kraus"]) == json.dumps(rows)
        if q_in == q_out:
            loop = float(sum(abs(np.trace(rho @ a)) ** 2 for a in c.kraus))
            assert abs(entanglement_fidelity(rho, c) - loop) <= 1e-15


class TestConjugate:
    def test_real_kraus_fixed_point(self):
        rho = random_density(2, np.random.default_rng(10))
        assert np.allclose(apply(conjugate(DEPHASE), rho), apply(DEPHASE, rho))

    def test_involution(self):
        c = random_channel(1, 1, env_qubits=2, seed=11)
        cc = conjugate(conjugate(c))
        assert all(np.allclose(a, b) for a, b in zip(c.kraus, cc.kraus))

    def test_transpose_intertwining(self):
        c = random_channel(1, 1, env_qubits=2, seed=12)
        cj = conjugate(c)
        for i in range(2):
            for j in range(2):
                e = np.zeros((2, 2), dtype=complex)
                e[i, j] = 1.0
                lhs = apply(c, e).T
                rhs = apply(cj, e.T)
                assert np.max(np.abs(lhs - rhs)) < 1e-10


class TestShiftedDepolarizing:
    def test_p_zero_is_identity(self):
        c = shifted_depolarizing(0.0, 0.7)
        rho = random_density(2, np.random.default_rng(13))
        assert np.allclose(apply(c, rho), rho, atol=1e-9)

    def test_fully_depolarizing(self):
        c = shifted_depolarizing(0.25, 0.0)
        rho = random_density(2, np.random.default_rng(14))
        assert np.allclose(apply(c, rho), I2 / 2, atol=1e-9)

    def test_action_matches_closed_form_on_basis(self):
        p, gamma = 0.17, 0.6
        c = shifted_depolarizing(p, gamma)
        shift = (I2 + gamma * PAULI_Z) / 2
        for sigma in (I2, PAULI_X, 1j * (PAULI_X @ PAULI_Z), PAULI_Z):
            expected = (1 - 4 * p) * sigma + 4 * p * np.trace(sigma) * shift
            assert np.max(np.abs(apply(c, sigma) - expected)) < 1e-12

    def test_choi_matches_kraus_on_grid(self):
        for p in np.linspace(0.0, 0.25, 26):
            for gamma in np.linspace(0.0, 1.0, 21):
                c = shifted_depolarizing(p, gamma)
                assert np.array_equal(from_kraus(c.kraus).choi, c.choi)

    def test_choi_matches_the_kron_formula_on_grid(self):
        phi = I2.reshape(-1) / np.sqrt(2.0)
        eps = np.finfo(float).eps
        for p in np.linspace(0.0, 0.25, 26):
            for gamma in np.linspace(0.0, 1.0, 21):
                shift = (I2 + gamma * PAULI_Z) / 2.0
                j = (1.0 - 4.0 * p) * np.outer(phi, phi) + 4.0 * p * np.kron(I2 / 2.0, shift)
                c = shifted_depolarizing(p, gamma)
                assert np.max(np.abs(c.choi - j)) <= 2.0 * eps, (p, gamma)
                for sigma in (I2, PAULI_X, 1j * (PAULI_X @ PAULI_Z), PAULI_Z):
                    expected = (1.0 - 4.0 * p) * sigma + 4.0 * p * np.trace(sigma) * shift
                    assert np.max(np.abs(apply(c, sigma) - expected)) <= 2.0 * eps, (p, gamma)

    def test_stacked_kraus_give_each_channels_choi_bit_for_bit(self):
        rng = np.random.default_rng(17)
        grid = [(p, g) for p in np.linspace(0.0, 0.25, 26) for g in np.linspace(0.0, 1.0, 21)]
        points = np.array(grid + list(zip(rng.uniform(0.0, 0.25, 200), rng.uniform(0.0, 1.0, 200))))
        stacked = choi_from_kraus(shifted_depolarizing_kraus(*points.T))
        assert stacked.shape == (746, 4, 4)
        for j, (p, gamma) in zip(stacked, points.tolist()):
            assert np.array_equal(j, shifted_depolarizing(p, gamma).choi), (p, gamma)

    def test_kraus_operators_are_complete_and_zero_ones_are_dropped(self):
        ops = shifted_depolarizing_kraus(0.1, 0.3)
        assert ops.shape == (5, 2, 2) and ops.dtype == complex
        assert np.max(np.abs(sum(a.conj().T @ a for a in ops) - I2)) <= 2.0 * np.finfo(float).eps
        points = [(0.0, 0.5), (0.25, 1.0), (0.1, 1.0), (0.1, 0.3)]
        assert [len(shifted_depolarizing(p, g).kraus) for p, g in points] == [1, 2, 3, 5]

    @pytest.mark.parametrize("p,gamma", [(-0.1, 0.0), (0.3, 0.0), (0.1, 1.5)])
    def test_range_checks(self, p, gamma):
        with pytest.raises(ValueError):
            shifted_depolarizing(p, gamma)

    @pytest.mark.parametrize("p, gamma, shape", [
        (0.1, 0.3, (5, 2, 2)),
        (0, 1, (5, 2, 2)),
        (np.float64(0.25), np.float64(0.0), (5, 2, 2)),
        (np.array(0.1), np.array(0.3), (5, 2, 2)),
        ([0.0, 0.1, 0.25], [1.0, 0.3, 0.0], (3, 5, 2, 2)),
        (0.1, [0.3], (5, 2, 2)),
        ([0.1, 0.2], np.array([[0.3], [1.0]]), (2, 5, 2, 2)),
        (np.array([0.0, 0.1, 0.25]), np.array([1.0, 0.3, 0.0]), (3, 5, 2, 2)),
    ], ids=["float", "int", "float64", "0-d", "list", "float-and-list", "list-and-column", "1-d"])
    def test_points_of_every_scalar_and_array_kind_are_accepted(self, p, gamma, shape):
        # the builder pairs points in the check's order and stacks them in the shape of p
        assert check_shifted_depolarizing(p, gamma) is None
        ops = shifted_depolarizing_kraus(p, gamma)
        assert ops.shape == shape and ops.dtype == complex
        points = [(float(a), float(b)) for a, b in zip(np.ravel(p), np.ravel(gamma))]
        for stack, point in zip(ops.reshape(-1, 5, 2, 2), points, strict=True):
            assert stack.tobytes() == shifted_depolarizing_kraus(*point).tobytes(), point

    @pytest.mark.parametrize("p, gamma, message", [
        (float("nan"), 0.3, r"^p=nan outside \[0, 1/4\]$"),
        (0.1, np.nan, r"^gamma=nan outside \[0, 1\]$"),
        (np.float64(0.3), 0.0, r"^p=0\.3 outside \[0, 1/4\]$"),
        (np.array([0.1, 0.2, -1.0]), np.array([0.0, 1.5, 0.0]), r"^gamma=1\.5 outside \[0, 1\]$"),
        ([0.1, 0.2], [0.3], r"^2 values of p but 1 of gamma$"),
        (np.array([0.1]), np.array([0.3, 0.4]), r"^1 values of p but 2 of gamma$"),
        (0.1, [0.2, 0.3], r"^1 values of p but 2 of gamma$"),
        ([0.1, 0.2], 0.3, r"^2 values of p but 1 of gamma$"),
    ], ids=["nan-p", "nan-gamma", "out-of-range", "first-bad-point", "short", "long",
            "scalar-p", "scalar-gamma"])
    def test_the_first_bad_point_is_named_by_check_and_builder(self, p, gamma, message):
        for function in (check_shifted_depolarizing, shifted_depolarizing_kraus):
            with pytest.raises(ValueError, match=message):
                function(p, gamma)


class TestNamedChannel:
    def test_identity_two_qubits(self):
        c = named_channel("identity", qubits=2)
        assert c.qubits_in == c.qubits_out == 2

    def test_shifted_matches_direct(self):
        a = named_channel("shifted-depolarizing", p=0.1, gamma=0.5)
        b = shifted_depolarizing(0.1, 0.5)
        assert np.allclose(a.choi, b.choi)

    def test_depolarizing_builds_choi_once(self, monkeypatch):
        ref = shifted_depolarizing(0.1, 0.0)
        post_init, labels = QuantumChannel.__post_init__, []

        def counted(chan):
            labels.append(chan.label)
            post_init(chan)

        monkeypatch.setattr(QuantumChannel, "__post_init__", counted)
        c = named_channel("depolarizing", p=0.1)
        assert labels == ["depolarizing(p=0.1)"] == [c.label]
        assert len(c.kraus) == len(ref.kraus)
        assert all(np.array_equal(a, b) for a, b in zip(c.kraus, ref.kraus))
        assert np.array_equal(c.choi, ref.choi)

    def test_amplitude_damping_zero_is_identity(self):
        c = named_channel("amplitude-damping", eta=0.0)
        rho = random_density(2, np.random.default_rng(15))
        assert np.allclose(apply(c, rho), rho)

    @pytest.mark.parametrize("name, params, message", [
        ("dephasing", {"strength": 1.5}, "dephasing strength 1.5 outside"),
        ("amplitude-damping", {"eta": -0.1}, "damping eta -0.1 outside"),
    ])
    def test_rejects_a_parameter_outside_the_unit_interval(self, name, params, message):
        with pytest.raises(ValueError, match=message + r" \[0, 1\]$"):
            named_channel(name, **params)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown channel"):
            named_channel("teleporter")

    @pytest.mark.parametrize(
        "name, params, missing",
        [
            ("depolarizing", {}, "p"),
            ("shifted-depolarizing", {"p": 0.1}, "gamma"),
            ("amplitude-damping", {}, "eta"),
        ],
    )
    def test_missing_parameter_is_a_value_error_naming_it(self, name, params, missing):
        with pytest.raises(ValueError, match=f"needs parameter '{missing}'"):
            named_channel(name, **params)

    @pytest.mark.parametrize("value", [np.array([0.1]), [0.1], np.array([[0.1]]), 0.1j, "x"],
                             ids=["array", "list", "2-d-array", "complex", "string"])
    @pytest.mark.parametrize(
        "name, params, key",
        [
            ("depolarizing", {}, "p"),
            ("shifted-depolarizing", {"gamma": 0.2}, "p"),
            ("shifted-depolarizing", {"p": 0.1}, "gamma"),
            ("amplitude-damping", {}, "eta"),
            ("dephasing", {}, "strength"),
        ],
    )
    def test_a_parameter_that_is_not_one_number_is_a_value_error_naming_it(
        self, name, params, key, value
    ):
        with pytest.raises(ValueError, match=f"^{key} must be one finite real number, got "):
            named_channel(name, **params, **{key: value})


def test_channels_compare_and_hash_by_identity():
    c = shifted_depolarizing(0.1, 0.2)
    twin = shifted_depolarizing(0.1, 0.2)
    assert c == c and c != twin
    assert hash(c) == hash(c)
    assert {c, twin, c} == {c, twin}
    # value equality of the maps is equality of their Choi matrices
    assert np.array_equal(c.choi, twin.choi)


class TestRandomChannel:
    def test_valid_over_seeds(self):
        for seed in range(100):
            c = random_channel(1, 1, env_qubits=1, seed=seed)
            acc = sum(a.conj().T @ a for a in c.kraus)
            assert np.max(np.abs(acc - I2)) < 1e-9
            assert np.linalg.eigvalsh(c.choi)[0] > -1e-9

    def test_deterministic_per_seed(self):
        a = random_channel(1, 1, env_qubits=2, seed=42)
        b = random_channel(1, 1, env_qubits=2, seed=42)
        assert all(np.array_equal(x, y) for x, y in zip(a.kraus, b.kraus))

    @pytest.mark.parametrize("seed, message", [
        (None, "seed must be an integer, got None"), (True, "seed must be an integer, got True"),
        (1.5, r"seed must be an integer, got 1\.5"), (-1, "seed must be at least 0, got -1"),
    ], ids=["none", "bool", "float", "negative"])
    def test_seed_is_an_integer_of_at_least_0(self, seed, message):
        # None would draw an unseeded channel labelled seed=None; 1.5 fails inside SeedSequence
        with pytest.raises(ValueError, match=f"^{message}$"):
            random_channel(1, 1, seed=seed)

    def test_env_required(self):
        with pytest.raises(ValueError, match="env_qubits"):
            random_channel(1, 1, env_qubits=0, seed=0)

    def test_rejects_an_environment_too_small_for_an_isometry(self):
        with pytest.raises(ValueError, match=r"no isometry from 3 qubits into 1\+1$"):
            random_channel(3, 1, env_qubits=1)

    @pytest.mark.parametrize("qubits", [(0, 1), (1, 0), (0, 0), (-1, 1), (1, -2)])
    def test_rejects_qubit_counts_below_one(self, qubits):
        # checked before 2**q: a negative count would make a float dimension
        name, count = ("qubits_in", qubits[0]) if qubits[0] < 1 else ("qubits_out", qubits[1])
        with pytest.raises(ValueError, match=f"^{name} must be at least 1, got {count}$"):
            random_channel(*qubits, env_qubits=1, seed=0)


class TestChannelFile:
    def test_round_trip(self, tmp_path):
        c = shifted_depolarizing(0.12, 0.4)
        path = tmp_path / "chan.json"
        save_channel(c, path)
        loaded = load_channel(path)
        assert loaded.label == c.label
        assert np.array_equal(loaded.choi, c.choi)

    def test_dict_round_trip(self):
        c = DEPHASE
        assert np.allclose(channel_from_dict(channel_to_dict(c)).choi, c.choi)

    def test_rejects_incomplete_kraus(self, tmp_path):
        data = channel_to_dict(DEPHASE)
        data["kraus"] = data["kraus"][:1]
        with pytest.raises(ChannelFormatError, match="not trace preserving"):
            channel_from_dict(data)

    @pytest.mark.parametrize("entry", [float("nan"), float("inf")])
    def test_rejects_non_finite_entry(self, entry):
        data = channel_to_dict(DEPHASE)
        data["kraus"][0][0][0] = [entry, 0.0]
        with pytest.raises(ChannelFormatError, match="finite"):
            channel_from_dict(data)

    def test_rejects_missing_field(self):
        with pytest.raises(ChannelFormatError, match="malformed"):
            channel_from_dict({"label": "x"})

    def test_rejects_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ChannelFormatError, match="invalid JSON"):
            load_channel(path)

    @pytest.mark.parametrize("qubits, message", [
        (1.5, r"qubits_in must be an integer, got 1\.5"),
        (True, "qubits_in must be an integer, got True"),
        ("1", "qubits_in must be an integer, got '1'"),
        (None, "qubits_in must be an integer, got None"),
        (0, "qubits_in must be at least 1, got 0"),
        (10**400, "10{400}->1 qubits: a channel file may have at most 8 qubits in and out together"),
    ], ids=["float", "bool", "str", "none", "zero", "huge"])
    def test_rejects_qubit_count_that_is_not_a_positive_int(self, qubits, message):
        data = channel_to_dict(DEPHASE)
        data["qubits_in"] = qubits
        with pytest.raises(ChannelFormatError, match=f"^{message}$"):
            channel_from_dict(data)

    @pytest.mark.parametrize("column, entry, part, shown", [(0, [True, False], "re", True),
                                                            (0, [1.0, False], "im", False),
                                                            (1, [False, 0.0], "re", False)])
    def test_rejects_boolean_entry(self, column, entry, part, shown):
        # each would read as the number it equals, and the file as the identity channel
        data = channel_to_dict(named_channel("identity"))
        data["kraus"][0][0][column] = entry
        message = rf"^kraus entries must be \[re, im\] pairs: {part} must be one finite real number"
        with pytest.raises(ChannelFormatError, match=f"{message}, got {shown}$"):
            channel_from_dict(data)

    def test_rejects_entry_too_large_for_a_float(self):
        data = channel_to_dict(DEPHASE)
        data["kraus"][0][0][0] = [10**400, 0]
        with pytest.raises(ChannelFormatError, match="pairs"):
            channel_from_dict(data)

    @pytest.mark.parametrize("kind", ["missing", "directory", "not_utf8", "too_deep"])
    def test_every_read_failure_is_a_format_error(self, tmp_path, kind):
        path = tmp_path / "chan.json"
        if kind == "directory":
            path.mkdir()
        elif kind == "not_utf8":
            path.write_bytes(b'{"label": "\xff"}')
        elif kind == "too_deep":
            path.write_text("[" * 100_000)
        with pytest.raises(ChannelFormatError):
            load_channel(path)
