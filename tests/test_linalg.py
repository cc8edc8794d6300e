import ast
import re
from pathlib import Path

import numpy as np
import pytest

import causalcap
from causalcap.linalg import (
    partial_transpose,
    random_complex,
    random_density,
    random_isometry,
    random_unitary,
    require_state,
    trace_norm,
)

RNG = np.random.default_rng(20260825)


def phi_plus_projector():
    v = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    return np.outer(v, v.conj())


def random_hermitian(dim, rng):
    g = random_complex(dim, dim, rng)
    return 0.5 * (g + g.conj().T)


def swap2():
    return np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    )


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

    @pytest.mark.parametrize("dims", [(2, 2), (2, 4), (4, 2)], ids=["2x2", "2x4", "4x2"])
    @pytest.mark.parametrize("subsystem", [0, 1])
    def test_stack_equals_the_per_matrix_loop(self, dims, subsystem):
        n = dims[0] * dims[1]
        stack = random_complex(3 * 5 * n, n, RNG).reshape(3, 5, n, n)
        looped = np.array([[partial_transpose(m, dims, subsystem) for m in row] for row in stack])
        out = partial_transpose(stack, dims, subsystem)
        assert out.shape == stack.shape and out.tobytes() == looped.tobytes()

    @pytest.mark.parametrize("bad, match", [
        (np.ones(4), r"expected a 2-d matrix, got shape \(4,\)"),
        (np.ones((3, 4, 2)), r"dims \(2, 2\) do not match matrix shape \(3, 4, 2\)"),
    ], ids=["1-d", "stack-of-wrong-shape"])
    def test_rejects_what_is_not_a_matrix_or_a_stack(self, bad, match):
        with pytest.raises(ValueError, match=match):
            partial_transpose(bad, (2, 2), 0)

    def test_rejects_a_third_subsystem(self):
        with pytest.raises(ValueError, match="subsystem must be 0 or 1"):
            partial_transpose(np.eye(4), (2, 2), 2)


def test_random_isometry_rejects_a_smaller_output():
    with pytest.raises(ValueError, match="no isometry from dimension 2 into 1"):
        random_isometry(1, 2, RNG)


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

    def test_norm_ordering(self):
        for seed in range(20):
            m = random_hermitian(4, np.random.default_rng(2000 + seed))
            assert np.linalg.norm(m, 2) <= trace_norm(m) + 1e-12

    def test_rejects_non_hermitian(self):
        bad = np.array([[0, 2], [0, 0]], dtype=complex)
        with pytest.raises(ValueError):
            trace_norm(bad)

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


def numeric_literal(node) -> bool:
    """A number written out (1e-9, -1e-9, 10**-9), not an expression naming a constant."""
    parts = list(ast.walk(node))
    allowed = (ast.Constant, ast.UnaryOp, ast.BinOp, ast.unaryop, ast.operator)
    return all(isinstance(n, allowed) for n in parts) and any(
        isinstance(n, ast.Constant) and type(n.value) in (int, float) for n in parts
    )


def test_tolerances_are_defined_only_in_linalg():
    """Tolerance constants are assigned at module level in linalg alone, and outside
    linalg no name ``tol`` or ending in a tolerance suffix is given a numeric literal,
    whether it is a variable, a class field or a parameter default."""
    suffixes = ("_ATOL", "_TRUNCATION", "_CLAMP")
    defined, literals = {}, []
    for path in sorted(Path(causalcap.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            pairs = []
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
                constants = [name for name in names if name.endswith(suffixes)]
                if constants and node in tree.body:
                    defined.setdefault(path.stem, []).extend(constants)
                pairs = [(name, node.value) for name in names if node.value is not None]
            elif isinstance(node, ast.arguments):
                positional = node.posonlyargs + node.args
                pairs = [(a.arg, d) for a, d in zip(positional[::-1], node.defaults[::-1])]
                pairs += [(a.arg, d) for a, d in zip(node.kwonlyargs, node.kw_defaults) if d]
            literals += [
                f"{path.stem}:{value.lineno} {name}"
                for name, value in pairs
                if path.stem != "linalg"
                and (name == "tol" or name.endswith(suffixes))
                and numeric_literal(value)
            ]
    assert set(defined) == {"linalg"}, defined
    assert sorted(defined["linalg"]) == ["CPTP_ATOL", "HERM_ATOL"]
    assert not literals, literals


def test_every_public_src_definition_is_used():
    """A public top-level function or class of src/causalcap that no other src
    definition, ``causalcap.__all__``, pyproject.toml or scripts/ names is a dead
    helper; tests alone do not keep one alive."""
    repo = Path(__file__).resolve().parents[1]
    defined, used = {}, set()
    for path in sorted((repo / "src" / "causalcap").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        # attributes count only on the package's own modules (pdm_mod.x), not on np.x
        modules = {
            alias.asname or alias.name
            for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level and not node.module
            for alias in node.names
        }
        for node in tree.body:
            own = getattr(node, "name", None)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not own.startswith("_"):
                defined[own] = f"{path.stem}.{own}"
            for n in ast.walk(node):
                if isinstance(n, ast.Name) and n.id != own:
                    used.add(n.id)
                elif (
                    isinstance(n, ast.Attribute)
                    and isinstance(n.value, ast.Name)
                    and n.value.id in modules
                ):
                    used.add(n.attr)
    outside = (repo / "pyproject.toml").read_text(encoding="utf-8") + "".join(
        path.read_text(encoding="utf-8") for path in sorted((repo / "scripts").glob("*.py"))
    )
    dead = sorted(
        qualified
        for name, qualified in defined.items()
        if name not in used
        and name not in causalcap.__all__
        and not re.search(rf"\b{name}\b", outside)
    )
    assert not dead, dead
