"""The three closed-loop workloads, each driven by one client in one process.

optfree-grid  in process: the optimisation-free path on the paper's grid and
              on seeded random channels; never calls hw_bound.
hw-solve      in process: hw_bound at the default OptimizerConfig on a fixed
              list of 1-qubit channels plus one seeded random channel.
cli-session   fresh `python -m causalcap.cli` processes, one after another:
              channel-info and bound on seeded channel files, verify, sweep.

`measure` gives the end-to-end metrics (tracing off), as times in units of
the reference kernel run between requests (refclock.py); `traced` gives the
per-layer metrics from a traced run plus direct timers around library calls.
"""

from __future__ import annotations

import dataclasses
import os
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

import inputs
import oracle
import refclock
from tracer import Spans, Tracer

from causalcap import bounds, channels, verify

COMMAND_TIMEOUT_S = 120
# a reference-kernel sample every 0.1 s: about 1 % of the time
SAMPLE_INTERVAL_S = 0.1
clock = time.perf_counter


def _nospan(name):
    return nullcontext()


class Report:
    """Metrics of one run, the per-workload figures shown beside them, and checks."""

    def __init__(self):
        self.metrics: dict[str, float] = {}
        self.figures: list[tuple[str, float, str, str]] = []
        self.checks = oracle.Checks()

    def figure(self, name: str, value: float, unit: str, note: str = "") -> None:
        self.figures.append((name, float(value), unit, note))


def median(xs) -> float:
    return float(statistics.median(xs))


def repeat_rounds(seconds: float, one_round) -> tuple[np.ndarray, np.ndarray]:
    """Runs whole rounds while the next one should end within `seconds`.

    At least one round runs; the next starts only if the last one's length
    still fits. one_round() returns each request's wall time and its time in
    reference units, in the same order every round; the results have one row
    per round.
    """
    walls, scaled = [], []
    t_start = clock()
    last = 0.0
    while not walls or clock() - t_start + last <= seconds:
        t0 = clock()
        wall, in_ref = one_round()
        last = clock() - t0
        walls.append(wall)
        scaled.append(in_ref)
    return np.array(walls), np.array(scaled)


def timing_metrics(rep: Report, ref: np.ndarray, requests=slice(None)) -> None:
    """op_ref.p50, op_ref.p90 and round_ref from times in reference units.

    A request's typical time is its median over the rounds; the percentiles
    are taken over the typical times of the requests `requests` selects.
    """
    med = np.median(ref, axis=0)
    p50, p90 = np.percentile(med[requests], [50, 90])
    rep.metrics.update({"op_ref.p50": float(p50), "op_ref.p90": float(p90),
                        "round_ref": float(med.sum())})


def reference_figure(rep: Report, ref: refclock.RefClock) -> None:
    ms = np.array(ref.dur) * 1e3
    rep.figure("ref_ms", np.median(ms), "ms",
               f"reference kernel, n={ms.size}, quartiles {np.percentile(ms, 25):.3g}-"
               f"{np.percentile(ms, 75):.3g}")


def child_env(threads: int | None = None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(inputs.SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    if threads is not None:
        env["CAUSAL_CAPACITY_THREADS"] = str(threads)
    return env


def run_child(argv, env=None) -> tuple[float, subprocess.CompletedProcess | None]:
    """Wall time and result of one child process; None if it timed out."""
    t0 = clock()
    try:
        proc = subprocess.run(
            argv, cwd=inputs.ROOT, env=env or child_env(), capture_output=True, text=True,
            timeout=COMMAND_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        proc = None
    return clock() - t0, proc


def probe(*args: str, repeats: int = 5) -> float:
    """Median of `probe.py` timings, each taken in a fresh interpreter."""
    argv = [sys.executable, str(Path(__file__).with_name("probe.py")), *args]
    values = []
    for _ in range(repeats):
        _, proc = run_child(argv)
        if proc is None or proc.returncode != 0:
            raise RuntimeError(f"probe {args} failed: {proc and proc.stderr}")
        values.append(float(proc.stdout.split()[-1]))
    return median(values)


# --------------------------------------------------------------- set-up


def build_hw_channels(seed: int) -> list[tuple[object, list, float | None]]:
    """(channel, kraus, exact HW value or None) for the hw-solve list."""
    out = []
    for p, gamma in inputs.HW_POINTS:
        c = channels.shifted_depolarizing(p, gamma)
        exact = oracle.closed_form(p, gamma) if gamma == 0.0 else None
        out.append((c, list(c.kraus), exact))
    c = channels.named_channel("amplitude-damping", eta=inputs.HW_DAMPING)
    out.append((c, list(c.kraus), None))
    kraus = inputs.hw_random_kraus(seed)
    out.append((channels.from_kraus(kraus, 1, 1, label=f"random(seed={seed})"), kraus, None))
    return out


def setup(workload: str, seed: int, workdir: Path):
    """Everything a run does before its clock starts; timed by probe.py."""
    if workload == "optfree-grid":
        return inputs.optfree_random(seed)
    if workload == "hw-solve":
        return build_hw_channels(seed)
    return inputs.write_channel_files(seed, workdir)


# --------------------------------------------------------------- optfree-grid


def optfree_pass(rand, span=_nospan) -> tuple[list[tuple[float, float]], list[tuple]]:
    """(start, end) of each request, and the outputs."""
    spans, outs = [], []
    for p in inputs.GRID_P:
        for g in inputs.GRID_GAMMA:
            t0 = clock()
            with span("optfree.grid.q1"):
                c = channels.shifted_depolarizing(p, g)
                caus = bounds.causality_bound(c).value
                analytic = bounds.analytic_shifted_depol(p, g)
                maxrains = bounds.maxrains_surrogate(c).value
            spans.append((t0, clock()))
            outs.append(("grid", p, g, caus, analytic, maxrains))
    for q, s in rand:
        t0 = clock()
        with span(f"optfree.random.q{q}"):
            c = channels.random_channel(q, q, seed=s)
            caus = bounds.causality_bound(c).value
        spans.append((t0, clock()))
        outs.append(("random", q, s, c, caus))
    return spans, outs


def check_optfree(checks: oracle.Checks, outs) -> None:
    for out in outs:
        if out[0] == "grid":
            oracle.check_grid_point(checks, *out[1:])
        else:
            _, q, s, c, caus = out
            oracle.check_causality(checks, list(c.kraus), caus, f"random q={q} seed={s}")


def measure_optfree(rep: Report, seed: int, seconds: float) -> None:
    rand = setup("optfree-grid", seed, None)
    optfree_pass(rand)  # warm-up

    def one_round():
        spans, outs = optfree_pass(rand)
        ref.sample()
        check_optfree(rep.checks, outs)
        return ref.scaled(spans)  # one reference unit for the whole pass

    with refclock.RefClock(SAMPLE_INTERVAL_S) as ref:
        times, scaled = repeat_rounds(seconds, one_round)
    timing_metrics(rep, scaled)
    med = np.median(times, axis=0)
    n = f"n={times.size} channels, {len(times)} passes"
    rep.figure("optfree.channels_per_s", len(med) / med.sum(), "1/s", n)
    rep.figure("optfree.channel_ms.p50", np.median(med) * 1e3, "ms", n)
    rep.figure("optfree.channel_ms.p99", np.percentile(times, 99) * 1e3, "ms", n)
    reference_figure(rep, ref)


# --------------------------------------------------------------- hw-solve


def hw_round(chans, span=_nospan) -> tuple[list[tuple[float, float]], list]:
    """(start, end) of each solve, and the reports."""
    spans, reports = [], []
    for c, _, _ in chans:
        t0 = clock()
        with span("hw.solve"):
            r = bounds.hw_bound(c, bounds.OptimizerConfig())
        spans.append((t0, clock()))
        reports.append(r)
    return spans, reports


def check_hw(checks: oracle.Checks, chans, reports) -> None:
    for (c, kraus, exact), r in zip(chans, reports):
        oracle.check_hw(checks, kraus, r.value, c.label, exact)


def measure_hw(rep: Report, seed: int, seconds: float) -> None:
    chans = setup("hw-solve", seed, None)

    def one_round():
        spans, reports = hw_round(chans)
        ref.sample()
        check_hw(rep.checks, chans, reports)
        # each solve in the reference unit of its own window
        pairs = [ref.scaled([s]) for s in spans]
        return [t for (t,), _ in pairs], [r for _, (r,) in pairs]

    with refclock.RefClock(SAMPLE_INTERVAL_S) as ref:
        times, scaled = repeat_rounds(seconds, one_round)
    timing_metrics(rep, scaled)
    n = f"n={times.size} solves"
    rep.figure("hw.solve_s.p50", np.median(np.median(times, axis=0)), "s", n)
    rep.figure("hw.solve_s.max", times.max(), "s", n)
    reference_figure(rep, ref)


# --------------------------------------------------------------- cli-session


def session_commands(files, seed: int, workdir: Path) -> list[tuple[str, list, dict | None, tuple]]:
    """(kind, argv, env, oracle arguments) in session order."""
    cmds = []
    for q, path, kraus in files:
        for (sub, *rest), method in inputs.CHANNEL_COMMANDS:
            argv = inputs.cli_argv(sub, "--channel", str(path), *rest)
            cmds.append(("channel", argv, None, (sub, method, q, kraus)))
    verify_seed, sweep_seed = inputs.cli_seeds(seed)
    cmds.append((
        "verify",
        inputs.cli_argv("verify", "--suite", "all", "--cases", str(inputs.VERIFY_CASES),
                        "--seed", str(verify_seed)),
        None, (),
    ))
    csv_path = workdir / "sweep.csv"
    cmds.append((
        "sweep",
        inputs.cli_argv("sweep", "--p-steps", str(inputs.SWEEP_P_STEPS), "--gamma-steps",
                        str(inputs.SWEEP_GAMMA_STEPS), "--restarts", str(inputs.SWEEP_RESTARTS),
                        "--seed", str(sweep_seed), "--out", str(csv_path)),
        child_env(inputs.SWEEP_THREADS), (csv_path,),
    ))
    return cmds


def check_command(checks: oracle.Checks, kind: str, proc, extra) -> None:
    ok = checks.check(
        proc is not None and proc.returncode == 0,
        f"{kind}: exit {proc and proc.returncode} {proc and proc.stderr[-300:]!r}",
    )
    if not ok:
        return
    if kind == "channel":
        sub, method, q, kraus = extra
        where = f"{sub} q={q}"
        if method is None:
            oracle.check_channel_info(checks, proc.stdout, kraus, where)
        else:
            oracle.check_bound_output(checks, proc.stdout, method, kraus, where)
    elif kind == "verify":
        oracle.check_verify_output(checks, proc.stdout, inputs.SUITES)
    else:
        (csv_path,) = extra
        text = csv_path.read_text(encoding="utf-8") if csv_path.exists() else ""
        oracle.check_sweep_csv(checks, text, inputs.sweep_points())
        csv_path.unlink(missing_ok=True)


def measure_cli(rep: Report, seed: int, seconds: float, workdir: Path) -> None:
    cmds = session_commands(setup("cli-session", seed, workdir), seed, workdir)
    kinds = [kind for kind, *_ in cmds]
    run_child(cmds[0][1])  # warm-up: fills the page cache for the package import
    # Commands run on the CPU the reference kernel is sampled on; the sweep's
    # worker pool gets every CPU.
    cpus = os.sched_getaffinity(0)
    one_cpu = {min(cpus)}

    def one_round():
        times, scaled = [], []
        for kind, argv, env, extra in cmds:
            if kind == "sweep":
                os.sched_setaffinity(0, cpus)
            wall, proc = run_child(argv, env)
            end = clock()
            os.sched_setaffinity(0, one_cpu)
            ref.sample()
            (t,), (r,) = ref.scaled([(end - wall, end)])
            times.append(t)
            scaled.append(r)
            check_command(rep.checks, kind, proc, extra)
        return times, scaled

    os.sched_setaffinity(0, one_cpu)
    try:
        with refclock.RefClock(SAMPLE_INTERVAL_S) as ref:
            times, scaled = repeat_rounds(seconds, one_round)
    finally:
        os.sched_setaffinity(0, cpus)
    channel = np.array([k == "channel" for k in kinds])
    timing_metrics(rep, scaled, channel)
    med = np.median(times, axis=0)
    n = f"n={times[:, channel].size} commands, {len(times)} sessions"
    rep.figure("cli.command_s.p50", np.median(med[channel]), "s", n)
    rep.figure("cli.command_s.max", times[:, channel].max(), "s", n)
    rep.figure("cli.verify_s", med[kinds.index("verify")], "s", f"n={len(times)}")
    rep.figure("cli.sweep_s", med[kinds.index("sweep")], "s", f"n={len(times)}")
    reference_figure(rep, ref)


def measure(workload: str, seed: int, seconds: float, workdir: Path) -> Report:
    """End-to-end metrics with tracing off."""
    rep = Report()
    rep.metrics["setup_s"] = probe("setup", workload, str(seed), str(workdir))
    if workload == "optfree-grid":
        measure_optfree(rep, seed, seconds)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    elif workload == "hw-solve":
        measure_hw(rep, seed, seconds)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        measure_cli(rep, seed, seconds, workdir)
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    rep.metrics["peak_rss_mb"] = rss_kb / 1024.0
    rep.metrics["ok_frac"] = rep.checks.ok_frac
    return rep


# --------------------------------------------------------------- traced run


def layer_metrics(sp: Spans, rounds: int) -> dict[str, float]:
    """Span-derived per-layer metrics; 0 where the workload makes no such call.

    `_us` metrics are median inclusive span durations, `.self_us` mean self
    times, `.calls` and `objective_calls` counts per round. A `.q<n>` suffix
    selects spans under a benchmark request span whose name ends in `.q<n>`.
    """
    names = np.array(sp.names, dtype=str)
    qubits = np.array([int(n[-1]) if n[-3:-1] == ".q" else 0 for n in sp.names], dtype=int)
    root_q = qubits[sp.name[sp.roots()]]

    def sel(name):
        return sp.name == (sp.names.index(name) if name in sp.names else -2)

    def dur_us(name, q=None):
        s = sel(name) if q is None else sel(name) & (root_q == q)
        return float(np.median(sp.dur[s])) / 1e3 if s.any() else 0.0

    m = {
        "channels.shifted_depolarizing_us": dur_us("channels.shifted_depolarizing"),
        "channels.load_channel_us": dur_us("channels.load_channel"),
        "pdm.causality_F_us": dur_us("pdm.causality_F"),
        "bounds.maxrains_surrogate_us": dur_us("bounds.maxrains_surrogate"),
    }
    for q in inputs.RANDOM_QUBITS:
        m[f"channels.random_channel_us.q{q}"] = dur_us("channels.random_channel", q)
        m[f"pdm.pdm_from_channel_us.q{q}"] = dur_us("pdm.pdm_from_channel", q)
        m[f"bounds.causality_bound_us.q{q}"] = dur_us("bounds.causality_bound", q)
    for name in ("linalg.trace_norm", "channels.apply_on_second"):
        m[f"{name}.calls"] = int(sel(name).sum()) / rounds
    for name in ("linalg.trace_norm", "linalg.require_hermitian", "linalg.partial_transpose",
                 "channels.apply_on_second"):
        s = sel(name)
        m[f"{name}.self_us"] = float(sp.self_ns[s].mean()) / 1e3 if s.any() else 0.0
    hw = sel("bounds.hw_bound")
    m["bounds.hw.objective_calls"] = 0.0
    m["bounds.hw.self_frac"] = 0.0
    if hw.any():
        # each objective evaluation makes one trace_norm call directly from hw_bound
        objective = sel("linalg.trace_norm") & np.isin(sp.parent, np.flatnonzero(hw))
        m["bounds.hw.objective_calls"] = int(objective.sum()) / rounds
        lower = np.char.startswith(names, "linalg.") | np.char.startswith(names, "channels.")
        inside = (sp.nearest(hw) >= 0) & ~lower[sp.name]
        m["bounds.hw.self_frac"] = float(sp.self_ns[inside].sum() / sp.dur[hw].sum())
    return m


def paired(tracer: Tracer, work, items) -> tuple[list[float], list[tuple], float]:
    """Runs work(item, span) untraced and then traced, item by item.

    Alternating keeps drifts in machine speed out of the overhead ratio.
    Returns the untraced times, the (untraced, traced) outputs per item, and
    the tracing overhead: traced time over untraced time, minus one.
    """
    base, outs, total = [], [], {False: 0.0, True: 0.0}
    for item in items:
        pair = []
        for on in (False, True):
            with tracer.installed() if on else nullcontext():
                t0 = clock()
                pair.append(work(item, tracer.span if on else _nospan))
                dt = clock() - t0
            total[on] += dt
            if not on:
                base.append(dt)
        outs.append(tuple(pair))
    return base, outs, total[True] / total[False] - 1.0


def traced_optfree(rep: Report, seed: int, tracer: Tracer, passes: int = 3) -> float:
    rand = setup("optfree-grid", seed, None)
    optfree_pass(rand)  # warm-up
    _, outs, overhead = paired(tracer, lambda _, span: optfree_pass(rand, span)[1], range(passes))
    for pair in outs:
        for out in pair:
            check_optfree(rep.checks, out)
    rep.metrics.update(layer_metrics(tracer.spans(), passes))
    return overhead


def traced_hw(rep: Report, seed: int, tracer: Tracer) -> float:
    chans = setup("hw-solve", seed, None)
    times, outs, overhead = paired(tracer, lambda ch, span: hw_round([ch], span)[1][0], chans)
    reports = [untraced for untraced, _ in outs]
    check_hw(rep.checks, chans, reports)
    check_hw(rep.checks, chans, [traced for _, traced in outs])
    iters = sum(r.diagnostics["iterations"] for r in reports)
    rep.checks.check(
        iters == sum(t.diagnostics["iterations"] for _, t in outs),
        "hw iteration count differs between two solves of the same inputs",
    )
    rep.metrics.update(layer_metrics(tracer.spans(), 1))
    rep.metrics.update({
        "bounds.hw.iterations": iters,
        "bounds.hw.iter_us": sum(times) / iters * 1e6,
        "bounds.hw.converged_frac": sum(r.diagnostics["converged_restarts"] for r in reports)
        / sum(r.diagnostics["restarts"] for r in reports),
    })
    return overhead


def channel_library_call(method, path) -> None:
    """The library work behind one channel command, in process."""
    c = channels.load_channel(path)
    if method is None:
        np.linalg.eigvalsh(c.choi)
        sum(a.conj().T @ a for a in c.kraus)
    elif method == "causality":
        bounds.causality_bound(c)
    else:
        bounds.maxrains_surrogate(c)


def traced_cli(rep: Report, seed: int, workdir: Path, tracer: Tracer) -> float:
    files = setup("cli-session", seed, workdir)
    cmds = [c for c in session_commands(files, seed, workdir) if c[0] == "channel"]
    import_s = probe("import", "causalcap")
    command_overhead = []
    for kind, argv, env, extra in cmds:
        wall, proc = run_child(argv, env)
        check_command(rep.checks, kind, proc, extra)
        method = extra[1]
        path = argv[argv.index("--channel") + 1]
        lib = []
        for _ in range(5):
            t0 = clock()
            channel_library_call(method, path)
            lib.append(clock() - t0)
        command_overhead.append(wall - import_s - median(lib))
    rep.metrics["cli.overhead_s"] = median(command_overhead)

    verify_seed, sweep_seed = inputs.cli_seeds(seed)
    points = inputs.sweep_points()
    cfg = bounds.OptimizerConfig(restarts=inputs.SWEEP_RESTARTS, seed=sweep_seed)
    sweep_s = {}
    for workers in (1, inputs.SWEEP_THREADS):
        t0 = clock()
        rows = bounds.sweep_shifted_depol(inputs.SWEEP_P, inputs.SWEEP_GAMMA, cfg, workers=workers)
        sweep_s[workers] = clock() - t0
        oracle.check_sweep_rows(rep.checks, [dataclasses.asdict(r) for r in rows], points)
    rep.metrics["bounds.sweep.point_s"] = sweep_s[1] / len(points)
    rep.metrics["bounds.sweep.pool_speedup"] = sweep_s[1] / sweep_s[inputs.SWEEP_THREADS]

    def work(item, span):
        if item in inputs.SUITES:
            with span(f"cli.verify.{item}"):
                return verify.run_suites([item], seed=verify_seed, cases=inputs.VERIFY_CASES)[0]
        sub, method, q, path = item
        with span(f"cli.{sub}-{method}.q{q}"):
            return channel_library_call(method, path)

    items = [(sub, method, q, path) for q, path, _ in files
             for (sub, *_), method in inputs.CHANNEL_COMMANDS] + list(inputs.SUITES)
    times, outs, overhead = paired(tracer, work, items)
    for item, t, pair in zip(items, times, outs):
        if item in inputs.SUITES:
            rep.metrics[f"verify.suite_s.{item}"] = t
            for res in pair:
                rep.checks.check(res.passed, f"verify suite {item}: {res.failures} failures")
    rep.metrics.update(layer_metrics(tracer.spans(), 1))
    return overhead


def traced(workload: str, seed: int, workdir: Path, spans_path: Path) -> Report:
    """Per-layer metrics; spans are written to spans_path at the end."""
    rep = Report()
    rep.metrics["setup.import_numpy_s"] = probe("import", "numpy")
    rep.metrics["setup.import_scipy_optimize_s"] = probe("import", "scipy.optimize")
    tracer = Tracer()
    if workload == "optfree-grid":
        overhead = traced_optfree(rep, seed, tracer)
    elif workload == "hw-solve":
        overhead = traced_hw(rep, seed, tracer)
    else:
        overhead = traced_cli(rep, seed, workdir, tracer)
    rep.metrics["trace.overhead_frac"] = overhead
    sp = tracer.spans()
    sp.save(spans_path)
    rep.figure("trace.spans", len(sp.name), "count", f"written to {spans_path.name}")
    return rep
