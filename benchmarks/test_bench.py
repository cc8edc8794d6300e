"""Self-tests of the benchmark: oracle, span arithmetic, tracer install/restore.

    python3 -m pytest -q benchmarks/test_bench.py
"""

import json
import math
import signal
import sys
import time
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
from refclock import RefClock  # noqa: E402
from tracer import LAYERS, Spans, Tracer  # noqa: E402


def depolarizing_kraus(p):
    """Kraus form of rho -> (1-4p) rho + 4p I/2."""
    paulis = [np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
              np.diag([1.0, -1.0])]
    weights = [math.sqrt(1 - 3 * p)] + [math.sqrt(p)] * 3
    return [w * s.astype(complex) for w, s in zip(weights, paulis)]


def test_reference_causality_matches_closed_form_and_ceiling_at_gamma_zero():
    kraus = depolarizing_kraus(0.1)
    assert oracle.causality(kraus) == pytest.approx(oracle.closed_form(0.1, 0.0), abs=1e-12)
    assert oracle.hw_ceiling(kraus) == pytest.approx(oracle.closed_form(0.1, 0.0), abs=1e-12)


def test_hw_check_accepts_bracketed_value_and_rejects_perturbed_ones():
    kraus = oracle.random_kraus(np.random.default_rng(3), 1, 1, rank=2)
    lo, hi = oracle.causality(kraus), oracle.hw_ceiling(kraus)
    assert hi > lo + 1e-3
    checks = oracle.Checks()
    oracle.check_hw(checks, kraus, 0.5 * (lo + hi), "mid")
    assert checks.failed == 0
    for bad in (lo - 1e-6, hi + 1e-6, float("nan")):
        checks = oracle.Checks()
        oracle.check_hw(checks, kraus, bad, "bad")
        assert checks.failed >= 1, bad
    exact = oracle.closed_form(0.1, 0.0)
    checks = oracle.Checks()
    oracle.check_hw(checks, depolarizing_kraus(0.1), exact - 1e-6, "gamma=0", exact)
    assert checks.failed == 2


def sweep_csv(perturb=None):
    lines = ["p,gamma,causality,analytic,hw,hw_minus_causality"]
    for p, g in inputs.sweep_points():
        caus = oracle.closed_form(p, g)
        row = {"causality": caus, "analytic": caus, "hw": caus + 0.01}
        if perturb and (p, g) == perturb[0]:
            row[perturb[1]] += perturb[2]
        lines.append(",".join(format(v, ".12g") for v in (
            p, g, row["causality"], row["analytic"], row["hw"], row["hw"] - row["causality"])))
    return "\n".join(lines) + "\n"


def test_sweep_csv_check_rejects_analytic_off_by_1e6_and_hw_below_causality():
    points = inputs.sweep_points()
    checks = oracle.Checks()
    oracle.check_sweep_csv(checks, sweep_csv(), points)
    assert checks.failed == 0 and checks.attempted == 1 + 3 * len(points)
    for column, delta in (("analytic", 1e-6), ("hw", -0.02)):
        checks = oracle.Checks()
        oracle.check_sweep_csv(checks, sweep_csv((points[7], column, delta)), points)
        assert checks.failed == 1, column
    checks = oracle.Checks()
    oracle.check_sweep_csv(checks, "\n".join(sweep_csv().splitlines()[:-1]), points)
    assert checks.failed == 1


def test_grid_verify_and_bound_checks_reject_wrong_outputs():
    ref = oracle.closed_form(0.2, 0.4)
    checks = oracle.Checks()
    oracle.check_grid_point(checks, 0.2, 0.4, ref, ref, ref)
    assert checks.failed == 0
    oracle.check_grid_point(checks, 0.2, 0.4, ref + 1e-6, ref, ref + 1e-6)
    assert checks.failed == 1
    oracle.check_verify_output(checks, "suite pdm      pass: 1/1\nsuite lemmas   FAIL: 0/1\n",
                               ("pdm", "lemmas", "bounds"))
    assert checks.failed == 3 and checks.ok_frac == pytest.approx(1 - 3 / checks.attempted)
    kraus = oracle.random_kraus(np.random.default_rng(4), 2, 2, rank=2)
    good = json.dumps({"method": "causality", "value": oracle.causality(kraus)})
    bad = json.dumps({"method": "causality", "value": oracle.causality(kraus) + 1e-6})
    checks = oracle.Checks()
    oracle.check_bound_output(checks, good, "causality", kraus, "good")
    oracle.check_bound_output(checks, bad, "causality", kraus, "bad")
    oracle.check_bound_output(checks, "Traceback", "causality", kraus, "crash")
    assert (checks.attempted, checks.failed) == (3, 2)


def synthetic_spans():
    # A [0,100] > B [10,30], C [40,90] > D [50,60];  E [200,250] on its own
    names = ["A", "B", "C", "D", "E"]
    parent = np.array([-1, 0, 0, 2, -1])
    start = np.array([0, 10, 40, 50, 200])
    end = np.array([100, 30, 90, 60, 250])
    return Spans(names, np.arange(5), parent, start, end)


def test_self_time_on_synthetic_nested_trace():
    sp = synthetic_spans()
    assert sp.self_ns.tolist() == [30, 20, 40, 10, 50]
    assert sp.roots().tolist() == [0, 0, 0, 0, 4]
    assert sp.nearest(sp.name == 2).tolist() == [-1, -1, 2, 2, -1]


def test_tracer_nests_spans_and_self_time_excludes_children():
    tracer = Tracer()
    inner = tracer.wrap(lambda: sum(range(1000)), "inner")
    outer = tracer.wrap(lambda: [inner() for _ in range(3)], "outer")
    with tracer.span("request"):
        outer()
    sp = tracer.spans()
    assert [sp.names[i] for i in sp.name] == ["request", "outer", "inner", "inner", "inner"]
    assert sp.parent.tolist() == [-1, 0, 1, 1, 1]
    assert sp.self_ns[1] == sp.dur[1] - sp.dur[2:].sum()
    assert (sp.self_ns >= 0).all()


def test_refclock_removes_samples_inside_requests_and_scales_by_window_mean():
    ref = RefClock()
    ref.start, ref.dur = [0.0, 1.0, 2.5, 4.0, 9.0], [0.1, 0.2, 0.3, 0.7, 0.5]
    net, scaled = ref.scaled([(0.5, 2.0), (2.0, 3.0)])
    # samples at 1.0 and 2.5 fall inside the requests; the unit also takes
    # the nearest sample on either side of [0.5, 3.0], at 0.0 and 4.0
    assert net == pytest.approx([1.5 - 0.2, 1.0 - 0.3])
    speed = (1 / 0.1 + 1 / 0.2 + 1 / 0.3 + 1 / 0.7) / 4
    assert scaled == pytest.approx([1.3 * speed, 0.7 * speed])
    _, (alone,) = ref.scaled([(3.0, 3.5)])
    assert alone == pytest.approx(0.5 * (1 / 0.3 + 1 / 0.7) / 2)  # samples at 2.5 and 4.0


def test_refclock_timer_samples_and_restores_the_signal_handler():
    old = signal.getsignal(signal.SIGALRM)
    with RefClock(0.01) as ref:
        t_end = time.perf_counter() + 0.2
        while time.perf_counter() < t_end:
            sum(range(1000))
    assert len(ref.dur) > 3
    assert signal.getsignal(signal.SIGALRM) is old
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def module_attributes():
    import importlib

    mods = [importlib.import_module("causalcap")] + [
        importlib.import_module(f"causalcap.{layer}") for layer in LAYERS
    ]
    return {(m.__name__, k): v for m in mods for k, v in vars(m).items()}


def test_traced_run_wraps_imported_names_and_restores_every_attribute():
    from causalcap import bounds, channels, linalg, pdm

    before = module_attributes()
    original = linalg.trace_norm
    tracer = Tracer()
    with pytest.raises(ZeroDivisionError):
        with tracer.installed():
            assert bounds.trace_norm is not original and pdm.trace_norm is bounds.trace_norm
            assert bounds.trace_norm.__wrapped__ is original
            bounds.causality_bound(channels.named_channel("identity"))
            1 / 0
    after = module_attributes()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())
    called = {tracer.names[i] for i in tracer.spans().name}
    assert {"bounds.causality_bound", "pdm.pdm_from_channel", "linalg.trace_norm"} <= called


def test_layer_metrics_and_spec_match_benchmark_json():
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    empty = Spans([], *(np.zeros(0, dtype=np.int64) for _ in range(4)))
    assert set(workloads.layer_metrics(empty, 1)) <= set(run.PER_LAYER)


def test_inputs_are_seeded_and_channel_files_load_back(tmp_path):
    from causalcap import channels

    assert inputs.optfree_random(5) == inputs.optfree_random(5) != inputs.optfree_random(6)
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    for (q, pa, kraus), (_, pb, _) in zip(inputs.write_channel_files(9, a),
                                          inputs.write_channel_files(9, b)):
        assert pa.read_bytes() == pb.read_bytes()
        loaded = channels.load_channel(pa)
        assert loaded.qubits_in == q
        assert all(np.array_equal(x, y) for x, y in zip(loaded.kraus, kraus))
