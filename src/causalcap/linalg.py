"""Dense complex linear algebra for small multi-qubit operators.

All functions operate on plain complex numpy arrays (row-major, shape
``(rows, cols)``) and never mutate their arguments, so values can be shared
freely across threads. Sized for operators up to 64x64 (3+3 qubits); no
attempt is made at sparse storage or large-dimension performance.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

# Hermiticity tolerance: inputs within this max-entry distance of their own
# conjugate transpose are accepted and symmetrized before decomposition.
HERM_ATOL = 1e-10

I2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (I2, PAULI_X, PAULI_Y, PAULI_Z)


def as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {m.shape}")
    return m


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product."""
    return np.kron(as_matrix(a), as_matrix(b))


def anticommutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """AB + BA for square matrices of equal dimension."""
    a, b = as_matrix(a), as_matrix(b)
    if a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise ValueError(
            f"anticommutator needs equal square matrices, got {a.shape} and {b.shape}"
        )
    return a @ b + b @ a


def partial_trace(a: np.ndarray, dims: Sequence[int], keep: Iterable[int]) -> np.ndarray:
    """Trace out all subsystems not listed in ``keep``.

    ``dims`` lists the subsystem dimensions in tensor order; their product
    must equal the (square) matrix dimension.
    """
    a = as_matrix(a)
    dims = [int(d) for d in dims]
    n = len(dims)
    total = int(np.prod(dims))
    if a.shape != (total, total):
        raise ValueError(f"dims {dims} do not match matrix shape {a.shape}")
    keep = sorted(set(int(i) for i in keep))
    if any(i < 0 or i >= n for i in keep):
        raise ValueError(f"keep indices {keep} out of range for {n} subsystems")
    t = a.reshape(dims + dims)
    remaining = n
    for i in sorted((i for i in range(n) if i not in keep), reverse=True):
        t = np.trace(t, axis1=i, axis2=i + remaining)
        remaining -= 1
    d_keep = int(np.prod([dims[i] for i in keep])) if keep else 1
    return t.reshape(d_keep, d_keep)


def partial_transpose(a: np.ndarray, dims: Sequence[int], subsystem: int) -> np.ndarray:
    """Transpose one tensor factor of a bipartite operator.

    Preserves Hermiticity and the trace for Hermitian input.
    """
    a = as_matrix(a)
    d1, d2 = int(dims[0]), int(dims[1])
    if a.shape != (d1 * d2, d1 * d2):
        raise ValueError(f"dims {dims} do not match matrix shape {a.shape}")
    if subsystem not in (0, 1):
        raise ValueError("subsystem must be 0 or 1")
    t = a.reshape(d1, d2, d1, d2)
    t = t.transpose(2, 1, 0, 3) if subsystem == 0 else t.transpose(0, 3, 2, 1)
    return t.reshape(d1 * d2, d1 * d2)


def permute_qubits(a: np.ndarray, order: Sequence[int]) -> np.ndarray:
    """Reorder the qubit wires of an operator on len(order) qubits.

    New wire ``j`` carries old wire ``order[j]``.
    """
    a = as_matrix(a)
    n = len(order)
    if a.shape != (2**n, 2**n) or sorted(order) != list(range(n)):
        raise ValueError(f"order {order} is not a wire permutation for shape {a.shape}")
    t = a.reshape([2] * (2 * n))
    axes = list(order) + [n + q for q in order]
    return t.transpose(axes).reshape(2**n, 2**n)


def require_hermitian(a: np.ndarray, atol: float = HERM_ATOL) -> np.ndarray:
    """Reject non-finite or non-Hermitian input; symmetrize tolerated drift."""
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite (found NaN or infinity)")
    defect = float(np.max(np.abs(a - a.conj().T))) if a.size else 0.0
    if defect > atol:
        raise ValueError(f"matrix is not Hermitian (max defect {defect:.3e} > {atol:.0e})")
    return 0.5 * (a + a.conj().T)


def trace_norm(a: np.ndarray) -> float:
    """Sum of absolute eigenvalues, for Hermitian input only."""
    m = require_hermitian(a)
    return float(np.sum(np.abs(np.linalg.eigvalsh(m))))


def inf_norm(a: np.ndarray) -> float:
    """Largest absolute eigenvalue, for Hermitian input only."""
    m = require_hermitian(a)
    return float(np.max(np.abs(np.linalg.eigvalsh(m))))


def random_complex(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Random unitary from QR orthonormalization of a random complex matrix."""
    q, r = np.linalg.qr(random_complex(dim, dim, rng))
    # fix the phase convention so the distribution is left-invariant
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_isometry(dim_out: int, dim_in: int, rng: np.random.Generator) -> np.ndarray:
    """Random isometry (dim_out >= dim_in) with orthonormal columns."""
    if dim_out < dim_in:
        raise ValueError(f"no isometry from dimension {dim_in} into {dim_out}")
    return random_unitary(dim_out, rng)[:, :dim_in]


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = random_complex(dim, dim, rng)
    return 0.5 * (g + g.conj().T)


def random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Random full-rank density matrix (normalized Wishart)."""
    g = random_complex(dim, dim, rng)
    rho = g @ g.conj().T
    return rho / np.trace(rho).real
