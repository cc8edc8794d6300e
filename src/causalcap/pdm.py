"""Two-time pseudo-density matrices and the causality measure.

A pseudo-density matrix (PDM) is Hermitian with unit trace but, unlike a
density matrix, may carry negative eigenvalues; those witness temporal
correlations between the two ends of a process. The causality measure is
the base-2 logarithm of its trace norm.

A channel's PDM R is built once and kept on the channel itself, under a
private key of its instance dict, so R lives exactly as long as its channel.
Building it validates R and takes its trace norm in one pass; every bound
read from one channel shares both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channels import MAX_FILE_QUBITS, QuantumChannel, _qubit_count
from .linalg import (
    CPTP_ATOL,
    I2,
    as_matrix,
    partial_transpose,
    require_state,
    trace_norm,
)


@dataclass(frozen=True, eq=False)
class PseudoDensityMatrix:
    """Hermitian unit-trace operator over (earlier time x later time), on 2 qubits or more.

    ``matrix`` is a symmetrized read-only copy. ``trace_norm`` = ||R||_1 is not an argument:
    the one call that rejects a non-finite, non-square or non-Hermitian matrix computes it.
    PDMs compare and hash by identity, as channels do; compare ``matrix`` for value equality.
    """

    matrix: np.ndarray
    trace_norm: float = field(init=False)

    def __post_init__(self):
        norm = trace_norm(self.matrix)
        m = as_matrix(self.matrix)
        if m.shape[0] < 4 or m.shape[0] & (m.shape[0] - 1):  # square (checked): 2**n, n >= 2
            raise ValueError(f"matrix shape {m.shape} is not that of 2 or more qubits")
        tr = float(m.trace().real)
        if abs(tr - 1.0) > CPTP_ATOL:
            raise ValueError(f"pseudo-density matrix trace {tr!r} is not 1")
        m = m + m.conj().T  # the matrix trace_norm took; a channel's R is unchanged
        m *= 0.5  # in place on the new sum, never on the caller's matrix
        m.setflags(write=False)
        self.__dict__.update(matrix=m, trace_norm=norm)  # frozen


def swap_matrix(l: int) -> np.ndarray:
    """SWAP^(x l) on 2l qubits (at most ``MAX_FILE_QUBITS``), pairing qubit i with qubit l+i.

    It exchanges the two l-qubit registers: |x, y> -> |y, x>.
    """
    l = _qubit_count(l)
    if l < 1:
        raise ValueError("need at least one qubit pair")
    if 2 * l > MAX_FILE_QUBITS:  # before 2**l: the package's largest operator is 256x256
        raise ValueError(f"SWAP on l={l} pairs exceeds {MAX_FILE_QUBITS} qubits")
    d = 2**l
    swap = np.eye(d * d, dtype=complex).reshape(d, d, d, d).transpose(1, 0, 2, 3)
    return swap.reshape(d * d, d * d)


def pdm_two_point(rho: np.ndarray, c: QuantumChannel) -> PseudoDensityMatrix:
    """PDM of one channel use bracketed by two single-qubit measurements.

    Computes (I x N)({rho x I/2, SWAP}) for a single-qubit input state rho.
    The channel acts on the second factor only, so it commutes with
    multiplication by rho x I and the result is {rho x I, R} for the channel
    PDM R.
    """
    rho = require_state(rho)
    if rho.shape != (2, 2):
        raise ValueError(f"state shape {rho.shape} does not match dimension 2")
    if c.qubits_in != 1 or c.qubits_out != 1:
        raise ValueError(f"{c.label} is not a single-qubit channel")
    r = pdm_from_channel(c).matrix
    k = np.kron(rho, I2)
    return PseudoDensityMatrix(k @ r + r @ k)


def pdm_from_channel(c: QuantumChannel) -> PseudoDensityMatrix:
    """PDM of a channel probed with a maximally mixed earlier-time register.

    R = (I x N)(SWAP / d) is the Choi matrix transposed on its reference
    factor, since SWAP / d = T_A(|Phi+><Phi+|) and T_A commutes with I x N.
    It is built on the first call for a channel and kept in the channel's instance dict, as
    the channel keeps its derived fields; later calls return the same R.
    """
    r = c.__dict__.get("_pdm")
    if r is None:
        t_a = partial_transpose(c.choi, (c.dim_in, c.dim_out), 0)
        r = c.__dict__["_pdm"] = PseudoDensityMatrix(t_a)
    return r


def clamp_log2(value: float) -> float:
    """A log2 norm with the shortfall below zero that an accepted input allows removed.

    The norms the bounds take (PDM trace norm, diamond norm of Theta o N) are at least
    ||R||_1 >= |tr R| >= 1 - ``CPTP_ATOL``, the trace defect the validators accept, so a
    log2 value in (log2(1 - CPTP_ATOL), 0) reads 0. Any other value is kept.
    """
    return 0.0 if math.log2(1.0 - CPTP_ATOL) < value < 0.0 else value


def causality_F(r: PseudoDensityMatrix) -> float:
    """log2 of the PDM trace norm; zero for positive semi-definite PDMs."""
    return clamp_log2(math.log2(r.trace_norm))


def f_tr(r: PseudoDensityMatrix) -> float:
    """Trace-norm causality monotone, trace norm minus one."""
    return r.trace_norm - 1.0


def log_negativity(state: np.ndarray, dims) -> float:
    """log2 trace norm of the partial transpose of a bipartite density matrix."""
    return math.log2(trace_norm(partial_transpose(require_state(state), dims, 1)))


def lemma1_check(k_map: np.ndarray) -> float:
    """Max-entry residual of the swap intertwining identity for a map K.

    For K from k qubits to m qubits, read from its 2**m x 2**k shape, compares
    (I x K) S_k (I x K^dag) against (K^dag x I) S_m (K x I); both sides live on k+m qubits.
    """
    k_map = as_matrix(k_map)
    m, k = (n.bit_length() - 1 for n in k_map.shape)
    if min(k, m) < 1 or (1 << m, 1 << k) != k_map.shape:
        raise ValueError(f"map shape {k_map.shape} is not 2**m x 2**k for m, k >= 1 qubits")
    eye_k = np.eye(2**k, dtype=complex)
    eye_m = np.eye(2**m, dtype=complex)
    lhs = np.kron(eye_k, k_map) @ swap_matrix(k) @ np.kron(eye_k, k_map.conj().T)
    rhs = np.kron(k_map.conj().T, eye_m) @ swap_matrix(m) @ np.kron(k_map, eye_m)
    return float(np.max(np.abs(lhs - rhs)))
