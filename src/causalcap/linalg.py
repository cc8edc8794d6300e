"""Dense complex linear algebra for small multi-qubit operators.

All functions operate on plain complex numpy arrays (row-major, shape
``(rows, cols)``) and never mutate their arguments, so values can be shared
freely across threads. Sized for operators up to 64x64 (3+3 qubits); no
attempt is made at sparse storage or large-dimension performance.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

# Tolerances: every numerical threshold of the package, in one table.
# HERM_ATOL: max-entry distance at which two matrices count as equal: a matrix and its
#   adjoint (then symmetrized), the sides of the swap identity, W and its phase-covariant part.
HERM_ATOL = 1e-10
# CPTP_ATOL: the trace defect and most negative eigenvalue of a density or Choi matrix,
#   a channel's TP residual max|d_in Tr_out J - I|, the margin of the verify suites, and
#   the log2 width that closes a Holevo-Werner bracket (eigenvalue floor eps / CPTP_ATOL);
#   a log2 norm in (log2(1 - CPTP_ATOL), 0) reads 0 (pdm.clamp_log2).
CPTP_ATOL = 1e-9
# KRAUS_TRUNCATION: Choi eigenvalues at or below it yield no Kraus operator.
KRAUS_TRUNCATION = 1e-10

I2 = np.eye(2, dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {m.shape}")
    return m


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


def require_hermitian(a: np.ndarray) -> np.ndarray:
    """Reject non-finite or non-Hermitian input; symmetrize tolerated drift."""
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite (found NaN or infinity)")
    defect = float(np.max(np.abs(a - a.conj().T))) if a.size else 0.0
    if defect > HERM_ATOL:
        raise ValueError(f"matrix is not Hermitian (max defect {defect:.3e} > {HERM_ATOL:.0e})")
    return 0.5 * (a + a.conj().T)


def require_state(rho: np.ndarray) -> np.ndarray:
    """Reject anything but a density matrix; return it symmetrized."""
    rho = require_hermitian(rho)
    vals = np.linalg.eigvalsh(rho)
    if vals[0] < -CPTP_ATOL:
        raise ValueError(f"not a state: eigenvalue {vals[0]:.3e}")
    trace = np.trace(rho).real
    if abs(trace - 1.0) > CPTP_ATOL:
        raise ValueError(f"not a state: trace {trace!r}")
    return rho


def trace_norm(a: np.ndarray) -> float:
    """Sum of absolute eigenvalues, for Hermitian input only."""
    m = require_hermitian(a)
    return float(np.sum(np.abs(np.linalg.eigvalsh(m))))


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


def random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Random full-rank density matrix (normalized Wishart)."""
    g = random_complex(dim, dim, rng)
    rho = g @ g.conj().T
    return rho / np.trace(rho).real
