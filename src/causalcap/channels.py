"""Quantum channels in Kraus form, with Choi-matrix algebra.

:class:`QuantumChannel` makes one read-only copy of its Kraus operators, the stack ``kraus`` of
shape (k, d_out, d_in), and checks it whole: its shape, then one max|entry| for both the finite
and the magnitude checks. Every channel, however built, has passed the same checks, and every
channel operation is one array expression on that stack. The Choi matrix J (trace 1: the channel
on half of a maximally entangled state) is built from it by :func:`choi_from_kraus`, the one
conversion, so the two cannot disagree and a saved channel reloads with a bit-identical J.
Channels are immutable after construction, as no caller holds their arrays, and thread-safe.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .linalg import CPTP_ATOL, I2, PAULI_Z, _integer, _matrix, _qubits, _real, random_complex

# the most qubits_in + qubits_out a channel file may declare: J at most 256x256
MAX_FILE_QUBITS = 8


class ChannelFormatError(ValueError):
    """A channel description (file or dict) violates the channel contract."""


def choi_from_kraus(ops) -> np.ndarray:
    """Trace-1 Choi matrix of Kraus operators, symmetrized: a stack (..., k, d_out, d_in)
    gives J of shape (..., d_in d_out, d_in d_out), one per leading index."""
    ops = np.asarray(ops)
    *lead, k, rows, cols = ops.shape
    # (I x A)|Phi+> has component A[y, x]/sqrt(d) at index (x, y)
    vecs = ops.swapaxes(-1, -2).reshape(*lead, k, rows * cols) / math.sqrt(cols)
    j = vecs.swapaxes(-1, -2) @ vecs.conj()
    j += j.conj().swapaxes(-1, -2)  # safe in place: NumPy copies an operand overlapping j
    j *= 0.5
    return j


@dataclass(frozen=True, eq=False)
class QuantumChannel:
    """Completely positive trace-preserving map between qubit registers.

    Validates itself, in order: each Kraus operator is a 2-D matrix, there is one at least,
    all share a shape, entries are finite, the shape is (2**m, 2**n) with m, n >= 1, entries
    have magnitude at most 1, and the list is trace preserving. ``kraus`` (matrices, or a stack
    (k, d_out, d_in)) is copied once into the read-only stack (k, d_out, d_in) it is stored as;
    ``choi``, built from that stack, the dimensions and the qubit counts are read from it, not
    passed. Channels compare and hash by identity; compare ``choi`` for value equality.
    """

    kraus: np.ndarray
    label: str = "channel"
    choi: np.ndarray = field(init=False)
    qubits_in: int = field(init=False)
    qubits_out: int = field(init=False)
    dim_in: int = field(init=False)
    dim_out: int = field(init=False)

    def __post_init__(self):
        try:
            ops = np.array(self.kraus, dtype=complex)  # the one copy: the caller keeps none
        except (TypeError, ValueError):  # ragged operators, or an iterator
            ops = None
        if ops is None or ops.ndim != 3 or not len(ops):  # per operator, for the message
            mats = [_matrix(a, "Kraus operator")
                    for a in (self.kraus if ops is None else np.atleast_1d(ops))]
            if not mats:
                raise ValueError("a channel needs at least one Kraus operator")
            if any(a.shape != mats[0].shape for a in mats):
                raise ValueError("Kraus operators must share a common shape")
            ops = np.array(mats)  # an iterator's operators, which passed both checks
        _, rows, cols = ops.shape
        peak = np.abs(ops).max(initial=0.0)  # also inf where a finite entry's modulus overflows
        if not peak < np.inf and not np.isfinite(ops).all():
            raise ValueError("Kraus entries must be finite (found NaN or infinity)")
        qubits_out, qubits_in = _qubits((rows, cols), "Kraus")
        if not peak <= 1.0 + CPTP_ATOL:  # TP bounds every |entry| by 1; more could overflow J
            raise ValueError("Kraus entries must have magnitude at most 1")
        ops.setflags(write=False)
        j = choi_from_kraus(ops)
        j.setflags(write=False)
        residual = tp_residual(j, cols)
        if not residual <= CPTP_ATOL:  # NaN-safe
            raise ValueError(
                f"Kraus list is not trace preserving (completeness residual {residual:.3e})"
            )
        self.__dict__.update(qubits_in=qubits_in, qubits_out=qubits_out, kraus=ops,
                             choi=j, dim_in=cols, dim_out=rows)  # frozen: set past __setattr__


def tp_residual(j: np.ndarray, dim_in: int) -> float:
    """Trace-preservation residual max|d_in Tr_out J - I| of a trace-1 Choi matrix, Tr_out one
    ``trace`` of J as (d_in, d_out, d_in, d_out); for J built from Kraus operators A_k it is
    max|sum_k A_k^dag A_k - I|."""
    dim_out = j.shape[0] // dim_in
    defect = j.reshape(dim_in, dim_out, dim_in, dim_out).trace(axis1=1, axis2=3)
    defect *= dim_in  # in place: trace made a new array
    defect.flat[:: dim_in + 1] -= 1.0  # minus I, in place
    return float(np.abs(defect).max())


def from_kraus(ops: Sequence[np.ndarray], qubits_in: int | None = None,
               qubits_out: int | None = None, label: str = "channel") -> QuantumChannel:
    """:class:`QuantumChannel` of ``ops``. Each qubit count a caller declares is checked first,
    before J is built: an integer of at least 1 that matches the first operator's shape."""
    if qubits_in is not None or qubits_out is not None:
        counts = [q if q is None else _integer(q, name, 1)
                  for q, name in ((qubits_in, "qubits_in"), (qubits_out, "qubits_out"))]
        ops = list(ops)  # any iterable, as the type takes
        shape = np.shape(ops[0]) if ops else ()  # no ops, or not 2-d: the type refuses
        if len(shape) == 2 and any(q not in (None, n)
                                   for q, n in zip(counts, reversed(_qubits(shape, "Kraus")))):
            raise ValueError(f"Kraus shape {shape} does not match {qubits_in}->{qubits_out} qubits")
    return QuantumChannel(ops, label)


def apply(c: QuantumChannel, rho: np.ndarray) -> np.ndarray:
    """Channel action: sum_k A_k rho A_k^dagger."""
    rho = _matrix(rho, "rho")
    if rho.shape != (c.dim_in, c.dim_in):
        raise ValueError(f"state shape {rho.shape} does not match channel input {c.dim_in}")
    return (c.kraus @ rho @ c.kraus.conj().swapaxes(1, 2)).sum(axis=0)


def compose(d: QuantumChannel, c: QuantumChannel) -> QuantumChannel:
    """Composition d after c."""
    if c.qubits_out != d.qubits_in:
        raise ValueError(
            f"cannot compose: {c.label} outputs {c.qubits_out} qubits, "
            f"{d.label} expects {d.qubits_in}"
        )
    ops = (d.kraus[:, None] @ c.kraus).reshape(-1, d.dim_out, c.dim_in)  # D_j A_k, k fastest
    return QuantumChannel(ops, f"{d.label}∘{c.label}")


def tensor(c: QuantumChannel, d: QuantumChannel) -> QuantumChannel:
    """Parallel use of two channels; qubit counts add."""
    # kron(A_j, B_k) for each pair, k fastest: axes (j, k, row_a, row_b, col_a, col_b)
    ops = c.kraus[:, None, :, None, :, None] * d.kraus[:, None, :, None, :]
    ops = ops.reshape(-1, c.dim_out * d.dim_out, c.dim_in * d.dim_in)
    return QuantumChannel(ops, f"{c.label}⊗{d.label}")


def conjugate(c: QuantumChannel) -> QuantumChannel:
    """Channel with entrywise-conjugated Kraus operators.

    Satisfies transpose(N(X)) = N_conj(transpose(X)) for every input X.
    """
    return QuantumChannel(c.kraus.conj(), f"{c.label}*")


def check_shifted_depolarizing(p, gamma) -> None:
    """Reject unequal counts of p and gamma values, then the first point (p, gamma), in order,
    outside [0, 1/4] x [0, 1] (NaN included)."""
    ps, gammas = np.asarray(p).ravel().tolist(), np.asarray(gamma).ravel().tolist()
    if len(ps) != len(gammas):
        raise ValueError(f"{len(ps)} values of p but {len(gammas)} of gamma")
    for p_i, gamma_i in zip(ps, gammas):
        if not 0.0 <= p_i <= 0.25:
            raise ValueError(f"p={p_i!r} outside [0, 1/4]")
        if not 0.0 <= gamma_i <= 1.0:
            raise ValueError(f"gamma={gamma_i!r} outside [0, 1]")


def shifted_depolarizing_kraus(p, gamma) -> np.ndarray:
    """Kraus operators sqrt(1-4p) I, sqrt(2p(1+gamma)) |0><x| and sqrt(2p(1-gamma)) |1><x|
    (x = 0, 1) of rho -> (1-4p) rho + 4p (I + gamma Z)/2, points checked first: a complex
    stack (5, 2, 2) for floats p and gamma, p.shape + (5, 2, 2) for arrays or lists of points."""
    check_shifted_depolarizing(p, gamma)
    p = np.asarray(p, dtype=float)
    # complex, as a channel makes every list: a real stack takes another BLAS kernel for J
    ops = np.zeros(p.shape + (5, 2, 2), dtype=complex)
    # [()] reads one point as scalars, on which NumPy's arithmetic is faster than on 0-d arrays
    p, gamma = p[()], np.asarray(gamma, dtype=float).reshape(p.shape)[()]
    up, down = np.sqrt(2.0 * p * (1.0 + gamma)), np.sqrt(2.0 * p * (1.0 - gamma))
    ops[..., 0, 0, 0] = ops[..., 0, 1, 1] = np.sqrt(1.0 - 4.0 * p)
    ops[..., 1, 0, 0], ops[..., 2, 0, 1], ops[..., 3, 1, 0], ops[..., 4, 1, 1] = up, up, down, down
    return ops


def shifted_depolarizing(p: float, gamma: float) -> QuantumChannel:
    """Single-qubit map rho -> (1-4p) rho + 4p (I + gamma Z)/2, from its nonzero Kraus operators."""
    p, gamma = _real(p, "p"), _real(gamma, "gamma")
    ops = shifted_depolarizing_kraus(p, gamma)
    return QuantumChannel(ops[ops.any(axis=(1, 2))],
                          f"shifted-depolarizing(p={p:g},gamma={gamma:g})")


CHANNEL_NAMES = ("identity", "depolarizing", "shifted-depolarizing", "dephasing",
                 "amplitude-damping")


def named_channel(name: str, **params) -> QuantumChannel:
    """Construct one of the built-in channel families (``CHANNEL_NAMES``) by name."""
    try:
        name = name.lower() if isinstance(name, str) else name  # another type is unknown
        if name == "identity":
            qubits = _integer(params.pop("qubits", 1), "qubits", 1)
            if qubits > 3:  # before np.eye allocates: sized for 3+3 qubits
                raise ValueError(f"identity channel needs 1 to 3 qubits, got {qubits}")
            _reject_extra(name, params)
            return QuantumChannel([np.eye(2**qubits)], f"identity({qubits})")
        if name == "depolarizing":
            p = _real(params.pop("p"), "p")
            _reject_extra(name, params)
            ops = shifted_depolarizing_kraus(p, 0.0)
            return QuantumChannel(ops[ops.any(axis=(1, 2))], f"depolarizing(p={p:g})")
        if name == "shifted-depolarizing":
            p, gamma = _real(params.pop("p"), "p"), _real(params.pop("gamma"), "gamma")
            _reject_extra(name, params)
            return shifted_depolarizing(p, gamma)
        if name == "dephasing":
            lam = _real(params.pop("strength", 1.0), "strength")
            _reject_extra(name, params)
            if not 0.0 <= lam <= 1.0:
                raise ValueError(f"dephasing strength {lam!r} outside [0, 1]")
            return QuantumChannel(
                [np.sqrt(1.0 - lam / 2.0) * I2, np.sqrt(lam / 2.0) * PAULI_Z],
                f"dephasing({lam:g})",
            )
        if name == "amplitude-damping":
            eta = _real(params.pop("eta"), "eta")
            _reject_extra(name, params)
            if not 0.0 <= eta <= 1.0:
                raise ValueError(f"damping eta {eta!r} outside [0, 1]")
            a0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - eta)]], dtype=complex)
            a1 = np.array([[0.0, np.sqrt(eta)], [0.0, 0.0]], dtype=complex)
            return QuantumChannel([a0, a1], f"amplitude-damping({eta:g})")
        raise ValueError(f"unknown channel name {name!r} (known: {', '.join(CHANNEL_NAMES)})")
    except KeyError as exc:  # a params.pop without a default
        raise ValueError(f"channel {name!r} needs parameter {exc.args[0]!r}") from None


def _reject_extra(name: str, params: dict) -> None:
    if params:
        raise ValueError(f"unexpected parameters for {name!r}: {sorted(params)}")


def random_channel(qubits_in: int, qubits_out: int, env_qubits: int = 1,
                   seed: int = 0) -> QuantumChannel:
    """Random CPTP channel from an isometry into system + environment.

    The isometry is an orthonormalized random complex matrix; the
    environment is traced out. Deterministic per seed.
    """
    qubits_in, qubits_out = (_integer(q, name, 1) for q, name in  # before 2**q is formed
                             ((qubits_in, "qubits_in"), (qubits_out, "qubits_out")))
    env_qubits, seed = _integer(env_qubits, "env_qubits", 1), _integer(seed, "seed", 0)
    dim_in, dim_out, dim_env = 2**qubits_in, 2**qubits_out, 2**env_qubits
    if dim_out * dim_env < dim_in:
        raise ValueError(
            f"no isometry from {qubits_in} qubits into {qubits_out}+{env_qubits}"
        )
    rng = np.random.default_rng(seed)
    v, _ = np.linalg.qr(random_complex(dim_out * dim_env, dim_in, rng))
    # system-major row ordering: row (s, e) sits at s*dim_env + e, so A_e = v[e::dim_env]
    ops = v.reshape(dim_out, dim_env, dim_in).swapaxes(0, 1)
    return QuantumChannel(
        ops, f"random({qubits_in}->{qubits_out},env={env_qubits},seed={seed})"
    )


def channel_to_dict(c: QuantumChannel) -> dict:
    """Serialize to the channel JSON schema (nested [re, im] pairs)."""
    return {
        "label": c.label,
        "qubits_in": c.qubits_in,
        "qubits_out": c.qubits_out,
        "kraus": np.stack([c.kraus.real, c.kraus.imag], axis=-1).tolist(),
    }


def channel_from_dict(data: dict) -> QuantumChannel:
    """Parse the channel JSON schema, naming the violated invariant on failure."""
    try:
        label = str(data["label"])
        qubits_in, qubits_out = (_integer(data[k], k, 1) for k in ("qubits_in", "qubits_out"))
        raw = data["kraus"]
    except (KeyError, TypeError) as exc:
        raise ChannelFormatError(f"malformed channel description: {exc}") from exc
    except ValueError as exc:  # a qubit count that is not an integer of at least 1
        raise ChannelFormatError(str(exc)) from exc
    if qubits_in + qubits_out > MAX_FILE_QUBITS:  # before an entry is read or J allocated
        raise ChannelFormatError(
            f"{qubits_in}->{qubits_out} qubits: a channel file may have at most "
            f"{MAX_FILE_QUBITS} qubits in and out together"
        )
    try:
        ops = [  # each part one finite real number: JSON true would otherwise read as 1
            np.array([[complex(_real(re, "re"), _real(im, "im")) for re, im in row] for row in a],
                     dtype=complex) for a in raw
        ]
    except (TypeError, ValueError) as exc:
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
