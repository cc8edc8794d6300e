"""Dense complex linear algebra for small multi-qubit operators.

All functions operate on plain complex numpy arrays (row-major, ``(rows, cols)``,
or a stack of them where a function says so) and never mutate their arguments, so
values can be shared freely across threads. Sized for Choi matrices up to 256x256, as a channel
file may have at most ``channels.MAX_FILE_QUBITS`` = 8 qubits in and out together; no attempt is
made at sparse storage or large-dimension performance.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np
from numpy.linalg._umath_linalg import eigh_lo, eigvalsh_lo, solve1

# Tolerances: every numerical threshold of the package, in one table.
# HERM_ATOL: max-entry distance at which two matrices count as equal: a matrix and its
#   adjoint (then symmetrized), and the sides of the swap identity.
HERM_ATOL = 1e-10
# CPTP_ATOL: the trace defect and most negative eigenvalue of a density or Choi matrix,
#   a channel's TP residual max|d_in Tr_out J - I|, the margin of the verify suites, and
#   the log2 width that closes a Holevo-Werner bracket (eigenvalue floor eps / CPTP_ATOL);
#   a log2 norm in (log2(1 - CPTP_ATOL), 0) reads 0 (pdm.clamp_log2).
CPTP_ATOL = 1e-9

I2 = np.eye(2, dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def _unconverged(err, flag):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


# The one route to np.linalg's LAPACK gufuncs: the signatures it picks, so its bits, and its error
# state, in which a LAPACK failure raises; bounds calls the gufuncs raw inside this state.
eig_errstate = np.errstate(call=_unconverged, all="ignore", invalid="call")


@eig_errstate
def eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return eigh_lo(a, signature="D->dD")


@eig_errstate
def eigvalsh(a: np.ndarray) -> np.ndarray:
    return eigvalsh_lo(a, signature="D->d")


# The package's input rules, each written once here and named by the argument it checks.
def _integer(value, name: str, least: int) -> int:
    """``value`` as an int of at least ``least``: NumPy integers pass, bool does not."""
    if type(value) is int and value >= least:  # the common case, at a fraction of the cost
        return value
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value!r}")
    return int(value)


def _qubits(shape: tuple, name: str, least: int = 1) -> tuple[int, int]:
    """(m, n) for a 2-d ``shape`` (2**m, 2**n) with m, n >= ``least``; read by bit length, so a
    declared count is compared with m or n and never raised to 2**count."""
    rows, cols = shape
    m, n = rows.bit_length() - 1, cols.bit_length() - 1
    if m < least or n < least or rows != 1 << m or cols != 1 << n:
        raise ValueError(f"{name} shape {shape} is not (2**m, 2**n) with m, n >= {least}")
    return m, n


def _real(value, name: str) -> float:
    """``value`` as one finite float: a real int or float, NumPy scalar or 0-d array; not bool."""
    if type(value) is float and math.isfinite(value):  # the common case, at a fraction of the cost
        return value
    a = np.asarray(value)
    if a.ndim or a.dtype.kind not in "iuf" or not math.isfinite(x := float(a)):
        raise ValueError(f"{name} must be one finite real number, got {value!r}")
    return x


def _matrix(a, name: str = "matrix") -> np.ndarray:
    """``a`` as a complex 2-d array with finite entries."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"{name} must be a 2-d matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} entries must be finite (found NaN or infinity)")
    return m


def partial_transpose(a: np.ndarray, dims: Sequence[int], subsystem: int) -> np.ndarray:
    """Transpose one tensor factor of a bipartite operator, or of each in a stack (..., n, n).

    Preserves Hermiticity and the trace for Hermitian input.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2:
        raise ValueError(f"expected a 2-d matrix, got shape {a.shape}")
    try:
        d1, d2 = dims
    except (TypeError, ValueError):  # not a pair
        raise ValueError(f"dims must be two integers, got {dims!r}") from None
    d1, d2 = _integer(d1, "dims", 1), _integer(d2, "dims", 1)
    if a.shape[-2:] != (d1 * d2, d1 * d2):
        raise ValueError(f"dims {dims} do not match matrix shape {a.shape}")
    if _integer(subsystem, "subsystem", 0) > 1:
        raise ValueError("subsystem must be 0 or 1")
    t = a.reshape(-1, d1, d2, d1, d2)
    t = t.transpose(0, 3, 2, 1, 4) if subsystem == 0 else t.transpose(0, 1, 4, 3, 2)
    return t.reshape(a.shape)


def require_hermitian(a: np.ndarray) -> np.ndarray:
    """Reject non-finite or non-Hermitian input; symmetrize tolerated drift."""
    a = _matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    adjoint = a.conj().T
    defect = float(np.abs(a - adjoint).max()) if a.size else 0.0
    if defect > HERM_ATOL:
        raise ValueError(f"matrix is not Hermitian (max defect {defect:.3e} > {HERM_ATOL:.0e})")
    s = a + adjoint  # a new array, never the caller's: halved in place
    s *= 0.5
    return s


def require_state(rho: np.ndarray) -> np.ndarray:
    """Reject anything but a density matrix; return it symmetrized."""
    rho = require_hermitian(rho)
    trace = np.trace(rho).real  # first: a 0x0 matrix has trace 0 and no eigenvalue
    if abs(trace - 1.0) > CPTP_ATOL:
        raise ValueError(f"not a state: trace {trace!r}")
    vals = eigvalsh(rho)
    if vals[0] < -CPTP_ATOL:
        raise ValueError(f"not a state: eigenvalue {vals[0]:.3e}")
    return rho


def trace_norm(a: np.ndarray) -> float:
    """Sum of absolute eigenvalues, for Hermitian input only."""
    m = require_hermitian(a)
    return float(np.abs(eigvalsh(m)).sum())


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
