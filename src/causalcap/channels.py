"""Quantum channels in Kraus form, with Choi-matrix algebra.

A channel stores a validated list of Kraus operators. Its Choi matrix J
(normalized to trace 1, i.e. the channel acting on one half of a maximally
entangled state) is always built from that stored list, whichever
constructor made the channel, so the two cannot disagree and a saved channel
reloads with a bit-identical J. Channels are immutable after construction
and safe to share across threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .linalg import (
    CPTP_ATOL,
    I2,
    KRAUS_TRUNCATION,
    PAULI_Z,
    as_matrix,
    random_complex,
    require_hermitian,
)


class ChannelFormatError(ValueError):
    """A channel description (file or dict) violates the channel contract."""


@dataclass(frozen=True, eq=False)
class QuantumChannel:
    """Completely positive trace-preserving map between qubit registers.

    ``choi`` is not an argument: it is built from ``kraus``, symmetrized and
    made read-only. Channels compare and hash by identity; compare ``choi`` for value equality.
    """

    qubits_in: int
    qubits_out: int
    kraus: tuple
    label: str = "channel"
    choi: np.ndarray = field(init=False)

    def __post_init__(self):
        # (I x A)|Phi+> has component A[y, x]/sqrt(d) at index (x, y)
        vecs = np.array(self.kraus).swapaxes(1, 2).reshape(len(self.kraus), -1)
        vecs = vecs / np.sqrt(self.dim_in)
        j = vecs.T @ vecs.conj()
        j = 0.5 * (j + j.conj().T)
        j.setflags(write=False)
        object.__setattr__(self, "choi", j)

    @property
    def dim_in(self) -> int:
        return 2**self.qubits_in

    @property
    def dim_out(self) -> int:
        return 2**self.qubits_out


def tp_residual(j: np.ndarray, dim_in: int) -> float:
    """Trace-preservation residual max|d_in Tr_out J - I| of a trace-1 Choi matrix.

    For J built from Kraus operators A_k it is max|sum_k A_k^dag A_k - I|.
    """
    dim_out = j.shape[0] // dim_in
    marginal = np.einsum("xyzy->xz", j.reshape(dim_in, dim_out, dim_in, dim_out))
    return float(np.max(np.abs(dim_in * marginal - np.eye(dim_in))))


def from_kraus(
    ops: Sequence[np.ndarray],
    qubits_in: int | None = None,
    qubits_out: int | None = None,
    label: str = "channel",
) -> QuantumChannel:
    """Build a channel from Kraus operators, validating trace preservation."""
    mats = tuple(as_matrix(a) for a in ops)
    if not mats:
        raise ValueError("a channel needs at least one Kraus operator")
    rows, cols = mats[0].shape
    if any(a.shape != (rows, cols) for a in mats):
        raise ValueError("Kraus operators must share a common shape")
    if not all(np.isfinite(a).all() for a in mats):
        raise ValueError("Kraus entries must be finite (found NaN or infinity)")
    # compare bit lengths, never 2**q, so a huge qubit count fails at once
    q_in, q_out = max(cols.bit_length() - 1, 0), max(rows.bit_length() - 1, 0)
    qubits_in = q_in if qubits_in is None else qubits_in
    qubits_out = q_out if qubits_out is None else qubits_out
    if (1 << q_in, 1 << q_out, q_in, q_out) != (cols, rows, qubits_in, qubits_out):
        raise ValueError(
            f"Kraus shape {mats[0].shape} does not match {qubits_in}->{qubits_out} qubits"
        )
    # sum_k A_k^dag A_k = I bounds every entry by 1; a larger one could overflow J
    if not all(np.abs(a).max() <= 1.0 + CPTP_ATOL for a in mats):
        raise ValueError("Kraus entries must have magnitude at most 1")
    c = QuantumChannel(qubits_in, qubits_out, mats, label)
    residual = tp_residual(c.choi, cols)
    if not residual <= CPTP_ATOL:  # NaN-safe
        raise ValueError(
            f"Kraus list is not trace preserving (completeness residual {residual:.3e})"
        )
    return c


def apply(c: QuantumChannel, rho: np.ndarray) -> np.ndarray:
    """Channel action: sum_k A_k rho A_k^dagger."""
    rho = as_matrix(rho)
    if rho.shape != (c.dim_in, c.dim_in):
        raise ValueError(f"state shape {rho.shape} does not match channel input {c.dim_in}")
    out = np.zeros((c.dim_out, c.dim_out), dtype=complex)
    for a in c.kraus:
        out += a @ rho @ a.conj().T
    return out


def kraus_from_choi(
    j: np.ndarray,
    qubits_in: int,
    qubits_out: int,
    label: str = "channel",
) -> QuantumChannel:
    """Channel from a trace-1 Choi matrix, with Kraus operators from its eigenvectors.

    The Choi matrix must be Hermitian, positive semi-definite up to
    eigenvalue tolerance, and trace preserving to within :func:`tp_residual`
    <= ``CPTP_ATOL``, which bounds its trace defect by ``CPTP_ATOL`` as well.
    The Kraus operators A_k from eigenvalues above ``KRAUS_TRUNCATION`` are
    rescaled to A_k S^(-1/2), S = sum_k A_k^dag A_k, so the dropped eigenvalues
    leave the Kraus list exactly complete and every accepted channel passes
    :func:`from_kraus` again. As for every channel, the Choi matrix is then
    built from that Kraus list, not taken from the input: it differs from the
    input by the dropped eigenvalues and the rescale, and a saved file
    reproduces it bit for bit.
    """
    j = as_matrix(j)
    dim_in, dim_out = 2**qubits_in, 2**qubits_out
    if j.shape != (dim_in * dim_out, dim_in * dim_out):
        raise ValueError(f"Choi shape {j.shape} does not match {qubits_in}->{qubits_out} qubits")
    j = require_hermitian(j)
    vals, vecs = np.linalg.eigh(j)
    if vals[0] < -CPTP_ATOL:
        raise ValueError(f"not completely positive (Choi eigenvalue {vals[0]:.3e})")
    residual = tp_residual(j, dim_in)
    if residual > CPTP_ATOL:
        raise ValueError(f"not trace preserving (completeness residual {residual:.3e})")
    keep = vals > KRAUS_TRUNCATION
    # column-of-Choi eigenvector w[x*dim_out + y] -> Kraus entry A[y, x]
    vecs = vecs[:, keep].T.reshape(-1, dim_in, dim_out).swapaxes(1, 2)
    ops = np.sqrt(vals[keep] * dim_in)[:, None, None] * vecs
    stacked = ops.reshape(-1, dim_in)  # the A_k one above another
    s_vals, s_vecs = np.linalg.eigh(stacked.conj().T @ stacked)
    ops = ops @ ((s_vecs / np.sqrt(s_vals)) @ s_vecs.conj().T)
    return QuantumChannel(qubits_in, qubits_out, tuple(ops), label)


def compose(d: QuantumChannel, c: QuantumChannel) -> QuantumChannel:
    """Composition d after c."""
    if c.qubits_out != d.qubits_in:
        raise ValueError(
            f"cannot compose: {c.label} outputs {c.qubits_out} qubits, "
            f"{d.label} expects {d.qubits_in}"
        )
    ops = [dj @ ak for dj in d.kraus for ak in c.kraus]
    return from_kraus(ops, c.qubits_in, d.qubits_out, label=f"{d.label}∘{c.label}")


def tensor(c: QuantumChannel, d: QuantumChannel) -> QuantumChannel:
    """Parallel use of two channels; qubit counts add."""
    ops = [np.kron(a, b) for a in c.kraus for b in d.kraus]
    return from_kraus(
        ops, c.qubits_in + d.qubits_in, c.qubits_out + d.qubits_out,
        label=f"{c.label}⊗{d.label}",
    )


def conjugate(c: QuantumChannel) -> QuantumChannel:
    """Channel with entrywise-conjugated Kraus operators.

    Satisfies transpose(N(X)) = N_conj(transpose(X)) for every input X.
    """
    return from_kraus(
        [a.conj() for a in c.kraus], c.qubits_in, c.qubits_out, label=f"{c.label}*"
    )


def check_shifted_depolarizing(p, gamma) -> None:
    """Reject the first point (p, gamma), in order, outside [0, 1/4] x [0, 1] (NaN included)."""
    for p_i, gamma_i in zip(np.ravel(p).tolist(), np.ravel(gamma).tolist(), strict=True):
        if not 0.0 <= p_i <= 0.25:
            raise ValueError(f"p={p_i!r} outside [0, 1/4]")
        if not 0.0 <= gamma_i <= 1.0:
            raise ValueError(f"gamma={gamma_i!r} outside [0, 1]")


def shifted_depolarizing_choi(p, gamma) -> np.ndarray:
    """Real Choi matrix (1-4p)|Phi+><Phi+| + 4p (I/2 x (I + gamma Z)/2), points checked first:
    one 4x4 for floats p and gamma, a stack (n, 4, 4) for arrays of n points."""
    check_shifted_depolarizing(p, gamma)
    phi, p4 = 1.0 / np.sqrt(2.0), 4.0 * p  # phi * phi rounds as np.outer(phi, phi) does
    a, up, down = (1.0 - p4) * (phi * phi), p4 * ((1.0 + gamma) / 4.0), p4 * ((1.0 - gamma) / 4.0)
    j = np.zeros(np.shape(p) + (4, 4))
    j[..., 0, 0], j[..., 1, 1], j[..., 2, 2], j[..., 3, 3] = a + up, down, up, a + down
    j[..., 0, 3] = j[..., 3, 0] = a
    return j


def shifted_depolarizing(p: float, gamma: float) -> QuantumChannel:
    """Single-qubit map rho -> (1-4p) rho + 4p (I + gamma Z)/2, from its Choi matrix."""
    label = f"shifted-depolarizing(p={p:g},gamma={gamma:g})"
    return kraus_from_choi(shifted_depolarizing_choi(p, gamma), 1, 1, label)


CHANNEL_NAMES = ("identity", "depolarizing", "shifted-depolarizing", "dephasing",
                 "amplitude-damping")


def named_channel(name: str, **params) -> QuantumChannel:
    """Construct one of the built-in channel families (``CHANNEL_NAMES``) by name."""
    try:
        name = name.lower()
        if name == "identity":
            qubits = int(params.pop("qubits", 1))
            if not 1 <= qubits <= 3:  # before np.eye allocates: sized for 3+3 qubits
                raise ValueError(f"identity channel needs 1 to 3 qubits, got {qubits}")
            _reject_extra(name, params)
            return from_kraus(
                [np.eye(2**qubits, dtype=complex)], qubits, qubits,
                label=f"identity({qubits})",
            )
        if name == "depolarizing":
            p = float(params.pop("p"))
            _reject_extra(name, params)
            label = f"depolarizing(p={p:g})"
            return kraus_from_choi(shifted_depolarizing_choi(p, 0.0), 1, 1, label)
        if name == "shifted-depolarizing":
            p = float(params.pop("p"))
            gamma = float(params.pop("gamma"))
            _reject_extra(name, params)
            return shifted_depolarizing(p, gamma)
        if name == "dephasing":
            lam = float(params.pop("strength", 1.0))
            _reject_extra(name, params)
            if not 0.0 <= lam <= 1.0:
                raise ValueError(f"dephasing strength {lam!r} outside [0, 1]")
            return from_kraus(
                [np.sqrt(1.0 - lam / 2.0) * I2, np.sqrt(lam / 2.0) * PAULI_Z],
                1, 1, label=f"dephasing({lam:g})",
            )
        if name == "amplitude-damping":
            eta = float(params.pop("eta"))
            _reject_extra(name, params)
            if not 0.0 <= eta <= 1.0:
                raise ValueError(f"damping eta {eta!r} outside [0, 1]")
            a0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - eta)]], dtype=complex)
            a1 = np.array([[0.0, np.sqrt(eta)], [0.0, 0.0]], dtype=complex)
            return from_kraus([a0, a1], 1, 1, label=f"amplitude-damping({eta:g})")
        raise ValueError(f"unknown channel name {name!r} (known: {', '.join(CHANNEL_NAMES)})")
    except KeyError as exc:  # a params.pop without a default
        raise ValueError(f"channel {name!r} needs parameter {exc.args[0]!r}") from None


def _reject_extra(name: str, params: dict) -> None:
    if params:
        raise ValueError(f"unexpected parameters for {name!r}: {sorted(params)}")


def random_channel(
    qubits_in: int,
    qubits_out: int,
    env_qubits: int = 1,
    seed: int = 0,
) -> QuantumChannel:
    """Random CPTP channel from an isometry into system + environment.

    The isometry is an orthonormalized random complex matrix; the
    environment is traced out. Deterministic per seed.
    """
    if env_qubits < 1:
        raise ValueError("env_qubits must be at least 1")
    dim_in, dim_out, dim_env = 2**qubits_in, 2**qubits_out, 2**env_qubits
    if dim_out * dim_env < dim_in:
        raise ValueError(
            f"no isometry from {qubits_in} qubits into {qubits_out}+{env_qubits}"
        )
    rng = np.random.default_rng(seed)
    v, _ = np.linalg.qr(random_complex(dim_out * dim_env, dim_in, rng))
    # system-major row ordering: row (s, e) sits at s*dim_env + e
    ops = [v[e::dim_env, :] for e in range(dim_env)]
    return from_kraus(
        ops, qubits_in, qubits_out,
        label=f"random({qubits_in}->{qubits_out},env={env_qubits},seed={seed})",
    )


def channel_to_dict(c: QuantumChannel) -> dict:
    """Serialize to the channel JSON schema (nested [re, im] pairs)."""
    return {
        "label": c.label,
        "qubits_in": c.qubits_in,
        "qubits_out": c.qubits_out,
        "kraus": [
            [[[float(z.real), float(z.imag)] for z in row] for row in a]
            for a in c.kraus
        ],
    }


def channel_from_dict(data: dict) -> QuantumChannel:
    """Parse the channel JSON schema, naming the violated invariant on failure."""
    try:
        label = str(data["label"])
        qubits_in, qubits_out = data["qubits_in"], data["qubits_out"]
        raw = data["kraus"]
    except (KeyError, TypeError) as exc:
        raise ChannelFormatError(f"malformed channel description: {exc}") from exc
    if not all(type(q) is int and q >= 1 for q in (qubits_in, qubits_out)):
        raise ChannelFormatError(
            f"qubit counts must be positive integers, got {qubits_in!r} and {qubits_out!r}"
        )
    try:
        ops = [
            np.array([[complex(re, im) for re, im in row] for row in a], dtype=complex)
            for a in raw
        ]
    except (TypeError, ValueError, OverflowError) as exc:
        raise ChannelFormatError(f"kraus entries must be [re, im] pairs: {exc}") from exc
    try:
        return from_kraus(ops, qubits_in, qubits_out, label=label)
    except ValueError as exc:
        raise ChannelFormatError(str(exc)) from exc


def load_channel(path) -> QuantumChannel:
    """Load a channel from a JSON file; every way of failing is a ChannelFormatError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ChannelFormatError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
        raise ChannelFormatError(f"invalid JSON in {path}: {exc}") from exc
    return channel_from_dict(data)


def save_channel(c: QuantumChannel, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(channel_to_dict(c), fh)
        fh.write("\n")
