import ast
import re
from pathlib import Path

import numpy as np
import pytest

import causalcap
from causalcap.linalg import (
    eig_errstate,
    eigh,
    eigvalsh,
    partial_transpose,
    random_complex,
    random_density,
    random_isometry,
    random_unitary,
    require_state,
    solve1,
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

    @pytest.mark.parametrize("bad, dims, match", [
        (np.ones(4), (2, 2), r"expected a 2-d matrix, got shape \(4,\)"),
        (np.ones((3, 4, 2)), (2, 2), r"dims \(2, 2\) do not match matrix shape \(3, 4, 2\)"),
        *[(np.eye(4), dims, f"^dims must be {re.escape(message)}$") for dims, message in [
            ((2.9, 2.9), "an integer, got 2.9"), ((True, 4), "an integer, got True"),
            (("2", "2"), "an integer, got '2'"), ((2, 2, 5), "two integers, got (2, 2, 5)"),
            ((-2, -2), "at least 1, got -2"), ((0, 4), "at least 1, got 0"),
            ((4,), "two integers, got (4,)"), (4, "two integers, got 4"),
            (None, "two integers, got None")]],
    ], ids=["1-d", "stack-of-wrong-shape", "float-dims", "bool-dims", "str-dims", "three-dims",
            "negative-dims", "zero-dims", "one-dim", "int-dims", "none-dims"])
    def test_rejects_what_is_not_a_matrix_or_a_stack(self, bad, dims, match):
        with pytest.raises(ValueError, match=match):
            partial_transpose(bad, dims, 0)

    def test_numpy_integer_dims_give_the_same_bits(self):
        a = random_complex(8, 8, np.random.default_rng(103))
        ref = partial_transpose(a, (2, 4), 1).tobytes()
        for dims in [(np.int64(2), np.int32(4)), np.array([2, 4]), [np.uint8(2), 4]]:
            assert partial_transpose(a, dims, 1).tobytes() == ref

    @pytest.mark.parametrize("subsystem, message", [
        (2, "subsystem must be 0 or 1"), (True, "subsystem must be an integer, got True"),
        (-1, "subsystem must be at least 0, got -1"),
        (1.0, r"subsystem must be an integer, got 1\.0"),
    ], ids=["third", "bool", "negative", "float"])
    def test_rejects_a_third_subsystem(self, subsystem, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            partial_transpose(np.eye(4), (2, 2), subsystem)


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


def assert_same_bits(ours, ref):
    """Two tuples of arrays agree in dtype, shape and every byte."""
    assert len(ours) == len(ref)
    for x, y in zip(ours, ref):
        assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def error_state():
    return np.geterr(), np.geterrcall()


@eig_errstate  # a decorator: an np.errstate cannot be entered twice with ``with``
def raw_solve(a, b):
    """The fixed-point loop's Gram solve: the raw gufunc, inside linalg's one error state."""
    return solve1(a, b, signature="dd->d")


class TestEigensolverKernels:
    """eigh and eigvalsh call LAPACK's gufuncs, np.linalg's private kernels, directly.

    These tests pin the contract every caller relies on: the wrappers return np.linalg's arrays
    bit for bit, raise its LinAlgError where LAPACK fails, and restore the error state. So does
    the raw solve1 gufunc under eig_errstate, as the fixed-point loop's Gram solve calls it.
    """

    @staticmethod
    def assert_eigensolves_as_np_linalg(h):
        assert_same_bits(eigh(h), np.linalg.eigh(h))
        assert_same_bits((eigvalsh(h),), (np.linalg.eigvalsh(h),))

    def test_sizes_2_to_64_match_np_linalg_bit_for_bit(self):
        rng = np.random.default_rng(100)
        for n in range(2, 65):
            for _ in range(3):
                self.assert_eigensolves_as_np_linalg(random_hermitian(n, rng))

    def test_a_stack_matches_np_linalg_bit_for_bit(self):
        # the sweep's batch: one 4x4 R per point of the 26x21 grid
        g = random_complex(546 * 4, 4, np.random.default_rng(101)).reshape(546, 4, 4)
        self.assert_eigensolves_as_np_linalg(g + g.conj().swapaxes(1, 2))

    def test_empty_matrix_matches_np_linalg(self):
        self.assert_eigensolves_as_np_linalg(np.zeros((0, 0), dtype=complex))

    @pytest.mark.parametrize("k", [1, 2, 4, 6])
    def test_solve_matches_np_linalg_bit_for_bit(self, k):
        rng = np.random.default_rng(200 + k)
        for _ in range(25):
            f = rng.standard_normal((k, 8))
            gram, rhs = f @ f.T, rng.standard_normal(k)  # as the Anderson step's Gram system
            assert_same_bits((raw_solve(gram, rhs),), (np.linalg.solve(gram, rhs),))

    @pytest.mark.parametrize("function", [eigh, eigvalsh])
    def test_unconverged_eigensolve_raises_as_np_linalg(self, function):
        nan, before = np.full((4, 4), np.nan, dtype=complex), error_state()
        with np.errstate(all="ignore"):  # the wrapper sets its own state, as np.linalg does
            with pytest.raises(np.linalg.LinAlgError, match="^Eigenvalues did not converge$"):
                function(nan)
        assert error_state() == before
        with pytest.raises(np.linalg.LinAlgError, match="^Eigenvalues did not converge$"):
            getattr(np.linalg, function.__name__)(nan)

    def test_singular_solve_under_the_error_state_raises(self):
        zero, ones, before = np.zeros((3, 3)), np.ones(3), error_state()
        with pytest.raises(np.linalg.LinAlgError):
            raw_solve(zero, ones)
        assert error_state() == before
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(zero, ones)

    def test_error_state_is_restored_after_a_solve(self):
        before, h = error_state(), random_hermitian(4, np.random.default_rng(102))
        eigh(h), eigvalsh(h)
        assert error_state() == before


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


def test_every_hermitian_eigensolve_goes_through_linalg():
    """No src module but linalg reaches np.linalg.eigh, eigvalsh or solve, or imports numpy's
    private numpy.linalg._umath_linalg: linalg is the package's one route to the kernels."""
    bypasses, private, kernels = [], set(), ("eigh", "eigvalsh", "solve")
    for path in sorted(Path(causalcap.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            imported = []
            if isinstance(node, ast.Import):
                imported = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                imported = [f"{node.module}.{alias.name}" for alias in node.names]
            if any("_umath_linalg" in name for name in imported):
                private.add(path.stem)
            if path.stem != "linalg" and (
                any(name in [f"numpy.linalg.{k}" for k in kernels] for name in imported)
                or isinstance(node, ast.Attribute)
                and node.attr in kernels
                and ast.unparse(node.value) in ("np.linalg", "numpy.linalg")
            ):
                bypasses.append(f"{path.stem}:{node.lineno}")
    assert private == {"linalg"}  # the one import, which the walk must see
    assert not bypasses, bypasses
