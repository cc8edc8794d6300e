"""Two-time pseudo-density matrices and the causality measure.

A pseudo-density matrix (PDM) is Hermitian with unit trace but, unlike a
density matrix, may carry negative eigenvalues; those witness temporal
correlations between the two ends of a process. The causality measure is
the base-2 logarithm of its trace norm.

A channel's PDM R is built once, kept in a table that holds the channel
weakly (an entry dies with its channel), and computes its trace norm once;
every bound read from one channel shares both.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channels import QuantumChannel
from .linalg import (
    CPTP_ATOL,
    I2,
    as_matrix,
    partial_transpose,
    require_hermitian,
    require_state,
    trace_norm,
)


@dataclass(frozen=True, eq=False)
class PseudoDensityMatrix:
    """Hermitian unit-trace operator over (earlier time x later time).

    ``matrix`` is read-only. PDMs compare and hash by identity, as channels do;
    compare ``matrix`` for value equality.
    """

    matrix: np.ndarray
    l_in: int
    l_out: int

    def __post_init__(self):
        m = require_hermitian(self.matrix)
        if m.shape != (2 ** (self.l_in + self.l_out),) * 2:
            raise ValueError(
                f"matrix shape {self.matrix.shape} does not match "
                f"{self.l_in}+{self.l_out} qubits"
            )
        tr = np.trace(m).real
        if abs(tr - 1.0) > CPTP_ATOL:
            raise ValueError(f"pseudo-density matrix trace {tr!r} is not 1")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @cached_property
    def trace_norm(self) -> float:
        """||R||_1, computed on first use and kept."""
        return trace_norm(self.matrix)


def swap_matrix(l: int) -> np.ndarray:
    """SWAP^(x l) on 2l qubits, pairing qubit i with qubit l+i.

    It exchanges the two l-qubit registers: |x, y> -> |y, x>.
    """
    if l < 1:
        raise ValueError("need at least one qubit pair")
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
    return PseudoDensityMatrix(k @ r + r @ k, l_in=1, l_out=1)


# channel -> its PDM; an entry dies with its channel
_PDMS = weakref.WeakKeyDictionary()


def pdm_from_channel(c: QuantumChannel) -> PseudoDensityMatrix:
    """PDM of a channel probed with a maximally mixed earlier-time register.

    R = (I x N)(SWAP / d) is the Choi matrix transposed on its reference
    factor, since SWAP / d = T_A(|Phi+><Phi+|) and T_A commutes with I x N.
    It is built on the first call for a channel; later calls return the same R.
    """
    r = _PDMS.get(c)
    if r is None:
        if c.qubits_in != c.qubits_out:
            raise ValueError(
                f"{c.label}: PDM construction needs equal input/output qubit counts "
                f"(got {c.qubits_in}->{c.qubits_out})"
            )
        t_a = partial_transpose(c.choi, (c.dim_in, c.dim_out), 0)
        r = _PDMS[c] = PseudoDensityMatrix(t_a, l_in=c.qubits_in, l_out=c.qubits_out)
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


def lemma1_check(k_map: np.ndarray, k: int, m: int) -> float:
    """Max-entry residual of the swap intertwining identity for a map K.

    For K from k qubits to m qubits, compares (I x K) S_k (I x K^dag)
    against (K^dag x I) S_m (K x I); both sides live on k+m qubits.
    """
    k_map = as_matrix(k_map)
    if k_map.shape != (2**m, 2**k):
        raise ValueError(f"map shape {k_map.shape} does not match {k}->{m} qubits")
    eye_k = np.eye(2**k, dtype=complex)
    eye_m = np.eye(2**m, dtype=complex)
    lhs = np.kron(eye_k, k_map) @ swap_matrix(k) @ np.kron(eye_k, k_map.conj().T)
    rhs = np.kron(k_map.conj().T, eye_m) @ swap_matrix(m) @ np.kron(k_map, eye_m)
    return float(np.max(np.abs(lhs - rhs)))
