"""Reference values and output checks for the benchmark workloads.

Everything here is plain numpy and independent of causalcap's own
construction code: the reference Choi matrix is rebuilt from the Kraus
operators, the PDM is its partial transpose on the reference factor, and the
shifted-depolarizing closed form is evaluated from the paper's formula.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

TOL = 1e-9


class Checks:
    """Counts checked outputs; every failed check counts against ok_frac."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok

    @property
    def ok_frac(self) -> float:
        return (self.attempted - self.failed) / self.attempted if self.attempted else 0.0


def random_kraus(rng: np.random.Generator, qubits_in: int, qubits_out: int, rank: int) -> list:
    """Kraus operators of a random channel, cut from a random isometry."""
    d_in, d_out = 2**qubits_in, 2**qubits_out
    g = rng.standard_normal((d_out * rank, d_in)) + 1j * rng.standard_normal((d_out * rank, d_in))
    v, _ = np.linalg.qr(g)
    return [v[e::rank, :] for e in range(rank)]


def choi(kraus) -> np.ndarray:
    """Trace-1 Choi matrix (I x N)(|Phi+><Phi+|), reference factor first."""
    d_in = kraus[0].shape[1]
    vecs = np.array([a.T.reshape(-1) for a in kraus]) / math.sqrt(d_in)
    return vecs.T @ vecs.conj()


def pdm(kraus) -> np.ndarray:
    """Two-time PDM of the channel: the Choi matrix transposed on the reference."""
    d_in, d_out = kraus[0].shape[1], kraus[0].shape[0]
    j = choi(kraus).reshape(d_in, d_out, d_in, d_out)
    return j.transpose(2, 1, 0, 3).reshape(d_in * d_out, d_in * d_out)


def causality(kraus) -> float:
    """log2 of the PDM trace norm."""
    return math.log2(float(np.abs(np.linalg.eigvalsh(pdm(kraus))).sum()))


def hw_ceiling(kraus) -> float:
    """Certified upper bound on the Holevo-Werner value: log2 lmax(Tr_out |d R|)."""
    d_in, d_out = kraus[0].shape[1], kraus[0].shape[0]
    vals, vecs = np.linalg.eigh(d_in * pdm(kraus))
    absw = (vecs * np.abs(vals)) @ vecs.conj().T
    marg = np.trace(absw.reshape(d_in, d_out, d_in, d_out), axis1=1, axis2=3)
    return math.log2(float(np.linalg.eigvalsh(marg)[-1]))


def closed_form(p: float, gamma: float) -> float:
    """Causality bound of rho -> (1-4p) rho + 4p (I + gamma Z)/2 in closed form."""
    root = math.sqrt(max(1.0 - 8.0 * p + 16.0 * p * p + 4.0 * gamma * gamma * p * p, 0.0))
    return math.log2(1.0 - p + 0.5 * root + 0.5 * abs(2.0 * p - root))


def close(a: float, b: float, tol: float = TOL) -> bool:
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= tol


def check_grid_point(checks: Checks, p, gamma, caus, analytic, maxrains) -> None:
    ref = closed_form(p, gamma)
    where = f"grid p={p:g} gamma={gamma:g}"
    checks.check(close(caus, ref), f"{where}: causality {caus!r} != closed form {ref!r}")
    checks.check(close(analytic, ref), f"{where}: analytic {analytic!r} != closed form {ref!r}")
    checks.check(close(maxrains, caus), f"{where}: maxrains {maxrains!r} != causality {caus!r}")
    checks.check(caus >= 0.0, f"{where}: causality {caus!r} < 0")


def check_causality(checks: Checks, kraus, caus: float, where: str) -> None:
    ref = causality(kraus)
    checks.check(close(caus, ref), f"{where}: causality {caus!r} != reference {ref!r}")
    checks.check(caus >= 0.0, f"{where}: causality {caus!r} < 0")


def check_hw(checks: Checks, kraus, hw: float, where: str, exact: float | None = None) -> None:
    """causality - tol <= HW <= ceiling + tol, and HW == exact where it is known."""
    caus, ceil = causality(kraus), hw_ceiling(kraus)
    checks.check(math.isfinite(hw) and hw >= caus - TOL, f"{where}: HW {hw!r} < causality {caus!r}")
    checks.check(math.isfinite(hw) and hw <= ceil + TOL, f"{where}: HW {hw!r} > ceiling {ceil!r}")
    if exact is not None:
        checks.check(close(hw, exact), f"{where}: HW {hw!r} != closed form {exact!r}")


def check_channel_info(checks: Checks, stdout: str, kraus, where: str) -> None:
    try:
        info = json.loads(stdout)
        spectrum = np.array(info["choi_spectrum"], dtype=float)
        ok = (
            info["kraus_rank"] == len(kraus)
            and 2 ** info["qubits_in"] == kraus[0].shape[1]
            and info["tp_residual"] <= TOL
            and np.allclose(spectrum, np.linalg.eigvalsh(choi(kraus)), atol=TOL)
        )
    except (ValueError, KeyError, TypeError):
        ok = False
    checks.check(ok, f"{where}: channel-info output disagrees with the channel file")


def check_bound_output(checks: Checks, stdout: str, method: str, kraus, where: str) -> None:
    """A `bound --method causality|maxrains` line against the reference causality."""
    try:
        rep = json.loads(stdout)
        value = float(rep["value"])
        ok = rep["method"] == method and close(value, causality(kraus))
    except (ValueError, KeyError, TypeError):
        ok = False
    checks.check(ok, f"{where}: bound {method} output {stdout.strip()[:120]!r} is wrong")


def check_verify_output(checks: Checks, stdout: str, suites) -> None:
    status = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) >= 3 and parts[0] == "suite":
            status[parts[1]] = parts[2].rstrip(":")
    for name in suites:
        checks.check(status.get(name) == "pass", f"verify suite {name}: {status.get(name)!r}")


def check_sweep_csv(checks: Checks, text: str, points) -> None:
    """The sweep CSV: one row per grid point, each passing check_sweep_rows."""
    try:
        rows = [
            {k: float(row[k]) for k in ("p", "gamma", "causality", "analytic", "hw")}
            for row in csv.DictReader(io.StringIO(text))
        ]
    except (csv.Error, KeyError, TypeError, ValueError) as exc:
        checks.check(False, f"sweep: malformed CSV ({exc})")
        return
    check_sweep_rows(checks, rows, points)


def check_sweep_rows(checks: Checks, rows, points) -> None:
    """Every row: the requested grid point, analytic == causality, hw >= causality."""
    checks.check(len(rows) == len(points), f"sweep: {len(rows)} rows, expected {len(points)}")
    for row, (p, gamma) in zip(rows, points):
        where = f"sweep p={p:g} gamma={gamma:g}"
        checks.check(close(row["p"], p) and close(row["gamma"], gamma), f"{where}: row {row!r}")
        checks.check(
            close(row["analytic"], row["causality"]),
            f"{where}: analytic {row['analytic']!r} != causality {row['causality']!r}",
        )
        checks.check(
            row["hw"] >= row["causality"] - TOL,
            f"{where}: hw {row['hw']!r} < causality {row['causality']!r}",
        )
