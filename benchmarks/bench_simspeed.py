"""Simulator self-benchmark: CPU seconds and events/second per figure.

Successive PRs applied the paper's own medicine to the simulator (copy-
elided phantom payloads, allocation-free event fast paths, cached sweep
executor, and now the timer-wheel event kernel with batched same-tick
dispatch); this benchmark quantifies the result.  It regenerates the quick
figure suite serially with a **cold** cache (the honest configuration: no
parallelism, no memoization credit), records CPU seconds and simulator
events/second per figure, compares against the pre-optimization baseline,
and emits ``BENCH_simspeed.json``.

The baseline is **measured live**: the pre-PR source tree is extracted
from git (``BASELINE_REF``) into a temp dir and its quick suite is timed
in a subprocess immediately before the optimized run.  Back-to-back
measurement on the same machine state is what makes the speedup ratio
trustworthy on a noisy shared host — frozen numbers from another day
would compare against a different machine.  The ratio is computed from
**process CPU time**, not wall clock: the suite is single-threaded and
CPU-bound, so CPU time is the quantity the optimizations actually change,
while wall time also absorbs co-tenant load (observed swinging the same
baseline between 35 s and 46 s on this host).  When git or the baseline
ref is unavailable (shallow clone), the frozen same-machine numbers in
``FALLBACK_BASELINE_QUICK_SECONDS`` are used instead.

Besides the end-to-end suite, ``kernel_microbench`` times the three
scheduler primitives the timer-wheel PR rebuilt — far-horizon heap churn,
schedule-then-cancel timers, and same-tick dispatch bursts — so a
regression in one primitive is caught even if the figures happen to lean
on another.

Run standalone (``python benchmarks/bench_simspeed.py``) or under pytest.
"""

import json
import os
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.reporting.experiments import EXPERIMENTS
from repro.reporting.sweeps import SweepExecutor
from repro.simkernel.scheduler import _WHEEL_SHIFT, _WHEEL_SLOTS, Simulator

#: last commit before this PR's optimizations (byte-moving payloads,
#: process-per-delivery event loop, no sweep executor)
BASELINE_REF = "025bda4"

#: pre-PR quick-suite CPU seconds per figure, frozen at commit time —
#: used only when the live baseline cannot be measured (no git history)
FALLBACK_BASELINE_QUICK_SECONDS = {
    "fig3": 2.59,
    "fig7": 0.36,
    "micro": 0.015,
    "fig8": 3.64,
    "fig9": 1.61,
    "fig10": 3.19,
    "fig11": 22.1,
    "fig12": 1.48,
    "nas": 0.22,
}

#: acceptance floor: the optimized quick suite must run at least this many
#: times faster than the pre-PR baseline (single worker, cold cache, CPU
#: seconds).  Raised from 2.0 when the timer-wheel event kernel landed:
#: measured x3.3-x4.1 across repeated runs on this (noisy, SMT-shared)
#: host, so the floor sits below the observed minimum rather than at the
#: x4 median — a gate that flakes on co-tenant load protects nothing.
MIN_SPEEDUP = 3.0

#: absolute CPU budget for the whole optimized quick suite; generous vs
#: the ~10 s measured at commit time so slower machines still pass, but
#: far under the ~35-45 s pre-PR total
WALL_BUDGET_SECONDS = 20.0

#: per-figure events/second floors (optimized tree, cold cache, CPU time).
#: Set at roughly half the rates measured when the timer-wheel kernel
#: landed (fig11 ~295 k ev/s, fig10 ~367 k ev/s, nas ~115 k ev/s), so they
#: catch an event-kernel regression without flaking on slower machines.
#: ``micro`` runs zero simulation events and is exempt.
MIN_EVENTS_PER_SECOND = {
    "fig3": 140_000,
    "fig7": 120_000,
    "fig8": 140_000,
    "fig9": 140_000,
    "fig10": 170_000,
    "fig11": 140_000,
    "fig12": 100_000,
    "nas": 55_000,
}

OUTPUT = ROOT / "BENCH_simspeed.json"

#: child process that times each requested figure against whatever repro
#: tree PYTHONPATH points at; works for both the baseline and HEAD trees
#: (the pre-PR runners take only ``quick``, so no executor is passed)
_CHILD_TIMER = """
import json, sys, time
from repro.reporting.experiments import EXPERIMENTS
out = {}
for name in json.loads(sys.argv[1]):
    t0 = time.process_time()
    w0 = time.perf_counter()
    EXPERIMENTS[name](quick=True)
    out[name] = {"cpu_s": time.process_time() - t0,
                 "wall_s": time.perf_counter() - w0}
print(json.dumps(out))
"""


def _extract_src(ref: str, tmp: str) -> "Path | None":
    """Extract the ``src`` tree at ``ref`` into ``tmp``; None without git."""
    tar_path = Path(tmp) / "baseline.tar"
    try:
        subprocess.run(
            ["git", "-C", str(ROOT), "archive", "-o", str(tar_path),
             ref, "src"],
            check=True, capture_output=True, timeout=60,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    with tarfile.open(tar_path) as tf:
        tf.extractall(tmp)
    return Path(tmp) / "src"


def measure_baseline(figures: list) -> "dict | None":
    """Time the pre-PR quick suite, extracted from git, in a subprocess.

    Returns ``{figure: {"cpu_s": ..., "wall_s": ...}}`` or None when the
    baseline tree cannot be produced (no git, shallow history) or fails
    to run.
    """
    with tempfile.TemporaryDirectory(prefix="simspeed-base-") as tmp:
        src = _extract_src(BASELINE_REF, tmp)
        if src is None:
            return None
        env = dict(os.environ, PYTHONPATH=str(src))
        try:
            proc = subprocess.run(
                [sys.executable, "-c", _CHILD_TIMER, json.dumps(figures)],
                check=True, capture_output=True, timeout=600, env=env,
                cwd=tmp, text=True,
            )
        except (OSError, subprocess.SubprocessError):
            return None
        return json.loads(proc.stdout.strip().splitlines()[-1])


def run_suite() -> dict:
    """Regenerate every quick figure; returns the benchmark report."""
    figures = list(FALLBACK_BASELINE_QUICK_SECONDS)
    baseline = measure_baseline(figures)
    baseline_mode = "measured" if baseline is not None else "frozen"
    if baseline is None:
        baseline = {
            name: {"cpu_s": cpu, "wall_s": cpu}
            for name, cpu in FALLBACK_BASELINE_QUICK_SECONDS.items()
        }

    executor = SweepExecutor(jobs=1, cache_dir=tempfile.mkdtemp(prefix="simspeed-"))
    report_figures = {}
    for name in figures:
        ev0 = Simulator.events_total
        t0 = time.process_time()
        w0 = time.perf_counter()
        EXPERIMENTS[name](quick=True, executor=executor)
        cpu = time.process_time() - t0
        wall = time.perf_counter() - w0
        events = Simulator.events_total - ev0
        base_cpu = baseline[name]["cpu_s"]
        report_figures[name] = {
            "cpu_s": round(cpu, 4),
            "wall_s": round(wall, 4),
            "events": events,
            "events_per_s": round(events / cpu) if cpu > 0 else 0,
            "baseline_cpu_s": round(base_cpu, 4),
            "baseline_wall_s": round(baseline[name]["wall_s"], 4),
            "speedup": round(base_cpu / cpu, 2) if cpu > 0 else float("inf"),
        }
    total_cpu = sum(f["cpu_s"] for f in report_figures.values())
    total_wall = sum(f["wall_s"] for f in report_figures.values())
    base_total = sum(baseline[name]["cpu_s"] for name in figures)
    return {
        "suite": "quick",
        "jobs": 1,
        "cache": "cold",
        "phantom": executor.phantom_mode,
        "baseline_ref": BASELINE_REF,
        "baseline_mode": baseline_mode,
        "figures": report_figures,
        "total_cpu_s": round(total_cpu, 3),
        "total_wall_s": round(total_wall, 3),
        "baseline_total_cpu_s": round(base_total, 3),
        "speedup_total": round(base_total / total_cpu, 2),
        "events_total": sum(f["events"] for f in report_figures.values()),
        "min_speedup_required": MIN_SPEEDUP,
        "cpu_budget_s": WALL_BUDGET_SECONDS,
        "min_events_per_s": MIN_EVENTS_PER_SECOND,
        "kernel_microbench": kernel_microbench(),
        "fabric_microbench": fabric_microbench(),
        "fabric_soak_microbench": fabric_soak_microbench(),
    }


# ---------------------------------------------------------------------------
# event-kernel microbenchmarks
# ---------------------------------------------------------------------------

#: work items per microbench scenario (kept small enough that the whole
#: microbench set adds well under a second to the suite)
_MICRO_N = 200_000

#: ops/second floors per scenario, at roughly a third of the rates
#: measured when the timer-wheel kernel landed — loose enough for slower
#: machines, tight enough to flag an accidental O(log n)-per-event (or
#: worse) regression in any one primitive
MIN_KERNEL_OPS_PER_SECOND = {
    "same_tick_burst": 800_000,
    "wheel_churn": 300_000,
    "heap_churn": 280_000,
    "timer_cancel": 230_000,
}

#: events/second floor for the fabric microbench (a 128-host 2-tier
#: fat-tree allreduce), at roughly a third of the measured rate — flags a
#: per-host or per-port scaling regression in the fabric world launcher
MIN_FABRIC_EVENTS_PER_SECOND = 90_000

#: events/second floor for the fabric gray-failure soak (fat_tree3,
#: flap + degrade + lossy + rank kill, shrink-capable allreduce rounds) —
#: at roughly a third of the measured rate, so the retry/reroute/health
#: machinery cannot quietly turn the chaos path superlinear
MIN_FABRIC_SOAK_EVENTS_PER_SECOND = 60_000

#: the fabric microbench workload (kept out of the baseline-compared
#: figure loop: the baseline tree predates repro.fabric)
_FABRIC_HOSTS = 128
_FABRIC_SIZE = 64 * 1024


def _noop() -> None:
    pass


def kernel_microbench() -> dict:
    """Time the scheduler primitives in isolation; returns {name: ops/s}.

    * ``same_tick_burst`` — one huge batched same-timestamp dispatch (the
      now-queue drain: event callback hops, ``call_soon``).
    * ``wheel_churn`` — timers inside the wheel horizon, pushed and fired
      while time advances (serialization/link-delay shaped load).
    * ``heap_churn`` — far-horizon timers that spill to the binary heap
      (retransmit/watchdog shaped load).
    * ``timer_cancel`` — ``schedule()`` + ``cancel()`` for every entry,
      then a drain over pure tombstones (watchdogs that never fire).
    """
    n = _MICRO_N
    out = {}

    sim = Simulator()
    t0 = time.process_time()
    for _ in range(n):
        sim.call_soon(_noop)
    sim.run()
    out["same_tick_burst"] = round(n / (time.process_time() - t0))

    sim = Simulator()
    t0 = time.process_time()
    # spread across ~200 distinct wheel slots (slots are 2**_WHEEL_SHIFT ns
    # wide) so the drain walks the wheel slot by slot, each slot holding a
    # small mini-heap — the steady-state figure-run shape
    for i in range(n):
        sim.call_at(sim.now + 1 + ((i % 200) << _WHEEL_SHIFT), _noop)
    sim.run()
    out["wheel_churn"] = round(n / (time.process_time() - t0))

    sim = Simulator()
    horizon = (_WHEEL_SLOTS + 2) << _WHEEL_SHIFT
    t0 = time.process_time()
    for i in range(n):
        sim.call_at(sim.now + horizon + i, _noop)
    sim.run()
    out["heap_churn"] = round(n / (time.process_time() - t0))

    sim = Simulator()
    t0 = time.process_time()
    handles = [
        sim.schedule(sim.now + 1 + ((i % 200) << _WHEEL_SHIFT), _noop)
        for i in range(n)
    ]
    for h in handles:
        h.cancel()
    sim.run()
    out["timer_cancel"] = round(n / (time.process_time() - t0))

    return out


def fabric_microbench() -> dict:
    """Time a 128-host 2-tier fat-tree allreduce end to end.

    Exercises the scalable rank launcher, per-edge route tables, and
    timestamp-batched port arbitration at a host count two orders of
    magnitude beyond the paper's two-node testbed.  Reported separately
    from the figure suite because the baseline tree predates the fabric
    subsystem.
    """
    from repro.fabric.sweep import run_fabric_collective

    t0 = time.process_time()
    cell = run_fabric_collective(
        topology="fat_tree2", hosts=_FABRIC_HOSTS, size=_FABRIC_SIZE,
        backend="ioat",
    )
    cpu_s = time.process_time() - t0
    return {
        "hosts": _FABRIC_HOSTS,
        "size": _FABRIC_SIZE,
        "events": cell["events"],
        "cpu_s": round(cpu_s, 3),
        "events_per_s": round(cell["events"] / cpu_s),
        "sim_time_us": cell["time_ns"] // 1000,
    }


def fabric_soak_microbench() -> dict:
    """Time one fabric gray-failure soak (the ``gray-crash`` spec) end to
    end: flapping + degraded + lossy trunks over a 3-tier fat-tree while a
    rank is crash-stopped mid-arc and the allreduce rounds shrink to the
    survivors.  This is the chaos path the resilience PR added — retries,
    reroutes, health sampling, declaration waves — so its events/second
    floor guards exactly the code the fault-free microbench never enters.
    """
    from repro.faults.soak import fabric_soak_suite, run_fabric_soak

    spec = [s for s in fabric_soak_suite("bench")
            if s.name == "gray-crash"][0]
    ev0 = Simulator.events_total
    t0 = time.process_time()
    report = run_fabric_soak(spec)
    cpu_s = time.process_time() - t0
    events = Simulator.events_total - ev0
    return {
        "soak": spec.name,
        "topology": report["topology"],
        "hosts": report["hosts"],
        "events": events,
        "cpu_s": round(cpu_s, 3),
        "events_per_s": round(events / cpu_s) if cpu_s > 0 else 0,
        "sim_time_us": report["end_time"] // 1000,
        "dead_ranks": report["dead_ranks"],
    }


# ---------------------------------------------------------------------------
# fabric-resilience zero-overhead gate
# ---------------------------------------------------------------------------

#: an idle FabricResilience attachment (constructed, never watching) must
#: keep the collective's CPU time within this factor of the bare run
RESILIENCE_OVERHEAD_MAX_RATIO = 1.05

#: wall-clock slack absorbing scheduler noise on a sub-second cell
RESILIENCE_CPU_EPSILON_S = 0.25

#: the comparison workload: big enough that a per-chunk hook would show,
#: small enough to keep the gate sub-second per side
_RES_HOSTS = 64
_RES_SIZE = 64 * 1024


def _run_fabric_bare_or_idle(idle_resilience: bool) -> dict:
    """One fat-tree allreduce; optionally with an idle resilience layer."""
    from repro.fabric.mpi import launch_fabric_world
    from repro.fabric.sweep import CELL_MAX_EVENTS, collective_body, make_topology

    spec = make_topology("fat_tree2", _RES_HOSTS, 2.0)
    world = launch_fabric_world(spec, backend="memcpy")
    if idle_resilience:
        from repro.fabric.resilience import FabricResilience

        FabricResilience(world.net, seed="bench-idle")  # no watch() call
    ev0 = Simulator.events_total
    t0 = time.process_time()
    world.run_spmd(collective_body("allreduce", _RES_SIZE),
                   max_events=CELL_MAX_EVENTS)
    world.finish()
    return {
        "cpu_s": time.process_time() - t0,
        "events": Simulator.events_total - ev0,
        "time_ns": world.sim.now,
    }


def measure_resilience_overhead() -> dict:
    """Back-to-back in-process comparison: bare world vs idle attachment."""
    bare = _run_fabric_bare_or_idle(False)
    idle = _run_fabric_bare_or_idle(True)
    return {
        "hosts": _RES_HOSTS,
        "size": _RES_SIZE,
        "bare": bare,
        "idle": idle,
        "cpu_ratio": round(idle["cpu_s"] / bare["cpu_s"], 4)
        if bare["cpu_s"] > 0 else 1.0,
    }


def test_resilience_zero_overhead():
    """An attached-but-idle resilience layer is free.

    Construction registers two counters and sets ``net.resilience`` —
    zero events scheduled, zero per-chunk hooks — so the simulated event
    count and the final simulated clock must be *bit-identical* to the
    bare world, and the CPU cost within the noise band.  This is the gate
    that keeps every pre-existing figure (none of which watch links)
    byte-stable across the resilience PR.
    """
    report = measure_resilience_overhead()
    bare, idle = report["bare"], report["idle"]
    print()
    print(f"  bare  {bare['cpu_s']:7.3f}s  {bare['events']:,} events  "
          f"t={bare['time_ns']} ns")
    print(f"  idle  {idle['cpu_s']:7.3f}s  {idle['events']:,} events  "
          f"t={idle['time_ns']} ns  (cpu x{report['cpu_ratio']:.3f})")
    assert idle["events"] == bare["events"], (
        f"idle resilience changed the simulation itself "
        f"({bare['events']:,} -> {idle['events']:,} events)"
    )
    assert idle["time_ns"] == bare["time_ns"], (
        f"idle resilience moved the simulated clock "
        f"({bare['time_ns']} -> {idle['time_ns']} ns)"
    )
    budget = (bare["cpu_s"] * RESILIENCE_OVERHEAD_MAX_RATIO
              + RESILIENCE_CPU_EPSILON_S)
    assert idle["cpu_s"] <= budget, (
        f"idle resilience costs CPU time ({bare['cpu_s']:.3f}s -> "
        f"{idle['cpu_s']:.3f}s, budget {budget:.3f}s)"
    )


# ---------------------------------------------------------------------------
# sanitizer-overhead gate
# ---------------------------------------------------------------------------

#: a sanitizer-watched campaign cell may cost at most this factor of the
#: same cell unwatched.  The frame-walk acquire site measures 1.2-1.7x;
#: a full-stack traceback per acquire measured 3.8-5.3x.
SANITIZER_OVERHEAD_MAX_RATIO = 2.0

#: campaign cells timed by the gate (phantom payloads, clean plan)
_SAN_WORKLOADS = ("pingpong", "stream")
_SAN_SIZES = (1024, 16 * 1024, 256 * 1024)
_SAN_ITERS = 3

#: each side's CPU time is the best of this many interleaved repeats
_SAN_REPEATS = 5


def _run_campaign_cells(watched: bool) -> dict:
    """Every gate cell once, optionally under a :class:`Sanitizer`."""
    from repro.analysis.sanitizers import Sanitizer
    from repro.faults.campaign import (
        CELL_DEADLINE, CELL_MAX_EVENTS, WORKLOADS, _build_testbed,
    )

    events = {}
    cpu = 0.0
    for workload in _SAN_WORKLOADS:
        for size in _SAN_SIZES:
            ev0 = Simulator.events_total
            t0 = time.process_time()
            tb = _build_testbed(workload)
            if watched:
                san = Sanitizer()
                for host in tb.hosts:
                    san.watch_host(host)
            WORKLOADS[workload](tb, size, _SAN_ITERS)
            tb.sim.run(until=CELL_DEADLINE, max_events=CELL_MAX_EVENTS)
            if watched:
                san.assert_clean()
            cpu += time.process_time() - t0
            events[f"{workload}/{size}"] = Simulator.events_total - ev0
    return {"cpu_s": cpu, "events": events}


def measure_sanitizer_overhead() -> dict:
    """Watched vs unwatched campaign cells, interleaved in one process."""
    runs = {False: [], True: []}
    for _ in range(_SAN_REPEATS):
        for watched in (False, True):
            runs[watched].append(_run_campaign_cells(watched))
    bare = min(runs[False], key=lambda r: r["cpu_s"])
    watched = min(runs[True], key=lambda r: r["cpu_s"])
    return {
        "bare": bare,
        "watched": watched,
        "cpu_ratio": round(watched["cpu_s"] / bare["cpu_s"], 4)
        if bare["cpu_s"] > 0 else 1.0,
    }


def test_sanitizer_overhead():
    """Watching a campaign cell is cheap and does not change it.

    The sanitizer only observes: event counts must be identical with and
    without it.  Each acquire walks at most ``_SITE_DEPTH`` caller frames,
    so the watched cell stays within ``SANITIZER_OVERHEAD_MAX_RATIO`` of
    the bare one; a full-stack traceback per acquire does not.
    """
    report = measure_sanitizer_overhead()
    bare, watched = report["bare"], report["watched"]
    print()
    print(f"  bare     {bare['cpu_s']:7.3f}s  "
          f"{sum(bare['events'].values()):,} events")
    print(f"  watched  {watched['cpu_s']:7.3f}s  "
          f"{sum(watched['events'].values()):,} events  "
          f"(cpu x{report['cpu_ratio']:.3f})")
    assert watched["events"] == bare["events"], (
        "watching changed the simulation itself "
        f"({bare['events']} -> {watched['events']})"
    )
    assert report["cpu_ratio"] <= SANITIZER_OVERHEAD_MAX_RATIO, (
        f"sanitizer-watched cells cost x{report['cpu_ratio']:.2f} the "
        f"unwatched CPU time (limit x{SANITIZER_OVERHEAD_MAX_RATIO})"
    )


# ---------------------------------------------------------------------------
# observability zero-overhead gate
# ---------------------------------------------------------------------------

#: last commit before the repro.obs subsystem (metrics registry, trace
#: exporter, phase profiler hooks on Core.busy)
OBS_BASELINE_REF = "57a4d5b"

#: disabled observability must keep the quick suite within this factor of
#: the pre-obs tree, in both wall time and simulator events
OBS_OVERHEAD_MAX_RATIO = 1.05

#: wall-clock slack absorbing scheduler noise on sub-second figures
OBS_WALL_EPSILON_S = 0.5

#: figures timed by the overhead gate: the event-heaviest pull path (fig3)
#: and the instrumented-everywhere stream path (fig9)
OBS_FIGURES = ["fig3", "fig9"]

#: child timer for the overhead gates: CPU seconds AND simulator events per
#: figure, serial, cold cache.  Works against any repro tree on PYTHONPATH
#: (events_total predates both refs).  CPU time for the same reason as the
#: main gate: overhead ratios near 1.0 drown in wall-clock noise.
_CHILD_TIMER_OBS = """
import json, sys, tempfile, time
from repro.reporting.experiments import EXPERIMENTS
from repro.reporting.sweeps import SweepExecutor
from repro.simkernel.scheduler import Simulator
out = {}
for name in json.loads(sys.argv[1]):
    ex = SweepExecutor(jobs=1, cache_dir=tempfile.mkdtemp(prefix="obsbench-"))
    ev0 = getattr(Simulator, "events_total", 0)
    t0 = time.process_time()
    EXPERIMENTS[name](quick=True, executor=ex)
    out[name] = {"wall_s": time.process_time() - t0,
                 "events": getattr(Simulator, "events_total", 0) - ev0}
print(json.dumps(out))
"""


def _run_child(script: str, src_path: Path, arg: object) -> "dict | None":
    """Run a child timer script against one source tree; its JSON output."""
    env = dict(os.environ, PYTHONPATH=str(src_path), REPRO_JOBS="1")
    env.pop("REPRO_CACHE_DIR", None)
    try:
        proc = subprocess.run(
            [sys.executable, "-c", script, json.dumps(arg)],
            check=True, capture_output=True, timeout=600, env=env, text=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure_tree_overhead(ref: str, figures: list) -> "dict | None":
    """Back-to-back comparison: the tree at ``ref`` vs HEAD.

    Both sides run in fresh subprocesses (serial, cold cache) so neither
    inherits the other's warmed allocator or bytecode cache unevenly.
    Returns None when the baseline tree cannot be produced.
    """
    with tempfile.TemporaryDirectory(prefix="tree-base-") as tmp:
        src = _extract_src(ref, tmp)
        if src is None:
            return None
        base = _run_child(_CHILD_TIMER_OBS, src, figures)
        if base is None:
            return None
    head = _run_child(_CHILD_TIMER_OBS, ROOT / "src", figures)
    if head is None:
        return None
    report = {"baseline_ref": ref, "figures": {}}
    for name in figures:
        b, h = base[name], head[name]
        report["figures"][name] = {
            "baseline_cpu_s": round(b["wall_s"], 4),
            "cpu_s": round(h["wall_s"], 4),
            "cpu_ratio": round(h["wall_s"] / b["wall_s"], 4),
            "baseline_events": b["events"],
            "events": h["events"],
            "events_ratio": round(h["events"] / b["events"], 4)
            if b["events"] else 1.0,
        }
    return report


def measure_obs_overhead(figures=None) -> "dict | None":
    return measure_tree_overhead(OBS_BASELINE_REF, figures or OBS_FIGURES)


def test_obs_zero_overhead():
    """Disabled observability stays within 5 % of the pre-obs tree.

    The registry is read-only-lazy and the profiler hook is one ``is None``
    check per busy charge, so both the simulated event count and the wall
    clock of the quick figures must be unchanged (modulo timer noise).
    """
    report = measure_obs_overhead()
    if report is None:
        import pytest

        pytest.skip(f"cannot produce baseline tree {OBS_BASELINE_REF} "
                    "(no git history?)")
    print()
    for name, f in report["figures"].items():
        print(f"  {name:6s} cpu  {f['baseline_cpu_s']:7.3f}s -> "
              f"{f['cpu_s']:7.3f}s (x{f['cpu_ratio']:.3f})  "
              f"events {f['baseline_events']:,} -> {f['events']:,} "
              f"(x{f['events_ratio']:.3f})")
        assert f["events_ratio"] <= OBS_OVERHEAD_MAX_RATIO, (
            f"{name}: observability changed the simulation itself "
            f"({f['baseline_events']:,} -> {f['events']:,} events)"
        )
        budget = f["baseline_cpu_s"] * OBS_OVERHEAD_MAX_RATIO + OBS_WALL_EPSILON_S
        assert f["cpu_s"] <= budget, (
            f"{name}: disabled observability costs CPU time "
            f"({f['baseline_cpu_s']}s -> {f['cpu_s']}s, budget {budget:.3f}s)"
        )


# ---------------------------------------------------------------------------
# tie-break zero-overhead gate
# ---------------------------------------------------------------------------

#: last commit before the pluggable tie-break / race-detector PR
TIEBREAK_BASELINE_REF = "c300c84"

#: with no policy installed the push path must be the historical one, so
#: the wall budget is the same 5 % noise band as the obs gate — but the
#: event counts must match the pre-PR tree EXACTLY (bit-identical FIFO)
TIEBREAK_WALL_MAX_RATIO = 1.05
TIEBREAK_WALL_EPSILON_S = 0.5
TIEBREAK_FIGURES = ["fig3", "fig9"]


def test_tiebreak_zero_overhead():
    """Default FIFO is bit-identical and free: same events, same wall.

    The pluggable tie-break only shadows ``_push`` on simulators given a
    policy; the default path keeps the class method and the historical
    ``(time, seq)`` heap tuples.  Identical event counts against the
    pre-PR tree prove the simulations are the same simulations; the wall
    ratio bounds the cost of the (unused) machinery at noise level.
    """
    report = measure_tree_overhead(TIEBREAK_BASELINE_REF, TIEBREAK_FIGURES)
    if report is None:
        import pytest

        pytest.skip(f"cannot produce baseline tree {TIEBREAK_BASELINE_REF} "
                    "(no git history?)")
    print()
    for name, f in report["figures"].items():
        print(f"  {name:6s} cpu  {f['baseline_cpu_s']:7.3f}s -> "
              f"{f['cpu_s']:7.3f}s (x{f['cpu_ratio']:.3f})  "
              f"events {f['baseline_events']:,} -> {f['events']:,}")
        assert f["events"] == f["baseline_events"], (
            f"{name}: the default tie-break changed the simulation "
            f"({f['baseline_events']:,} -> {f['events']:,} events; FIFO must "
            "be bit-identical to the pre-PR scheduler)"
        )
        budget = (f["baseline_cpu_s"] * TIEBREAK_WALL_MAX_RATIO
                  + TIEBREAK_WALL_EPSILON_S)
        assert f["cpu_s"] <= budget, (
            f"{name}: disabled tie-break machinery costs CPU time "
            f"({f['baseline_cpu_s']}s -> {f['cpu_s']}s, budget {budget:.3f}s)"
        )


# ---------------------------------------------------------------------------
# drain-loop gate: one loop behind run() and run_until(), FIFO and keyed
# ---------------------------------------------------------------------------

#: last commit with four drain loops (run, run_until and a keyed twin of
#: each); the one-loop kernel is timed against it
DRAIN_BASELINE_REF = "685ae03"

#: the one loop may cost at most this factor of the old loops' CPU time in
#: any scenario — the end-to-end bound of the repo benchmark
DRAIN_MAX_RATIO = 1.25

#: each side's CPU time is the best of this many interleaved child runs
_DRAIN_REPEATS = 5

#: child timer: 4 processes x N bare-int sleeps (sleep lengths 100..400 ns,
#: so ties recur) drained by run() and by run_until() on the last process,
#: each on a FIFO and on a keyed (FifoTieBreak) simulator.  Reports CPU
#: seconds of the drain, events processed and the final clock.
_CHILD_DRAIN = """
import json, sys, time
from repro.simkernel.scheduler import Simulator
from repro.simkernel.tiebreak import FifoTieBreak

def sleeper(k, n):
    for _ in range(n):
        yield 100 * (k + 1)

n = json.loads(sys.argv[1])
out = {}
for entry in ("run", "run_until"):
    for mode in ("fifo", "keyed"):
        sim = Simulator(tiebreak=FifoTieBreak() if mode == "keyed" else None)
        procs = [sim.process(sleeper(k, n)) for k in range(4)]
        t0 = time.process_time()
        if entry == "run":
            sim.run()
        else:
            sim.run_until(procs[-1])
        out[entry + "/" + mode] = {"cpu_s": time.process_time() - t0,
                                   "events": sim.events_processed,
                                   "now": sim.now}
print(json.dumps(out))
"""

#: int-sleeps per process in the drain-loop gate
_DRAIN_SLEEPS = 100_000


def measure_drain_overhead() -> "dict | None":
    """The one-loop kernel vs the four-loop tree, interleaved subprocesses.

    Returns ``{scenario: {...}}`` with each side's best CPU time, its event
    count and final clock, or None when the baseline tree cannot be built.
    """
    runs = {"base": [], "head": []}
    with tempfile.TemporaryDirectory(prefix="drain-base-") as tmp:
        src = _extract_src(DRAIN_BASELINE_REF, tmp)
        if src is None:
            return None
        for _ in range(_DRAIN_REPEATS):
            for side, path in (("base", src), ("head", ROOT / "src")):
                out = _run_child(_CHILD_DRAIN, path, _DRAIN_SLEEPS)
                if out is None:
                    return None
                runs[side].append(out)
    report = {}
    for name in runs["head"][0]:
        base = min((r[name] for r in runs["base"]), key=lambda r: r["cpu_s"])
        head = min((r[name] for r in runs["head"]), key=lambda r: r["cpu_s"])
        report[name] = {
            "base": base,
            "head": head,
            "cpu_ratio": round(head["cpu_s"] / base["cpu_s"], 4),
        }
    return report


def test_drain_loop_overhead():
    """One drain loop runs the same schedule at the old loops' cost.

    ``run()`` and ``run_until()`` on FIFO and keyed simulators must process
    exactly the events of the four-loop tree and stop on the same clock;
    the CPU ratio is printed per scenario and fails only beyond
    ``DRAIN_MAX_RATIO``.
    """
    report = measure_drain_overhead()
    if report is None:
        import pytest

        pytest.skip(f"cannot produce baseline tree {DRAIN_BASELINE_REF} "
                    "(no git history?)")
    print()
    for name, r in report.items():
        base, head = r["base"], r["head"]
        print(f"  {name:15s} cpu {base['cpu_s']:6.3f}s -> {head['cpu_s']:6.3f}s "
              f"(x{r['cpu_ratio']:.3f})  {head['events']:,} events  "
              f"t={head['now']} ns")
        assert head["events"] == base["events"], (
            f"{name}: the drain loop changed the simulation "
            f"({base['events']:,} -> {head['events']:,} events)"
        )
        assert head["now"] == base["now"], (
            f"{name}: the drain loop moved the final clock "
            f"({base['now']} -> {head['now']} ns)"
        )
        assert r["cpu_ratio"] <= DRAIN_MAX_RATIO, (
            f"{name}: the drain loop costs x{r['cpu_ratio']:.2f} the old "
            f"loops' CPU time (limit x{DRAIN_MAX_RATIO})"
        )


def test_simspeed_quick_suite():
    """The acceptance gate: >=4x vs pre-PR CPU time, inside the budget,
    with every figure above its events/second floor."""
    report = run_suite()
    OUTPUT.write_text(json.dumps(report, indent=2) + "\n")
    print()
    print(f"  [baseline: {report['baseline_mode']} @ {report['baseline_ref']}, "
          "cpu seconds]")
    for name, f in report["figures"].items():
        print(f"  {name:6s} {f['baseline_cpu_s']:7.3f}s -> {f['cpu_s']:7.3f}s "
              f"(x{f['speedup']:.2f}, {f['events_per_s']:,} ev/s)")
    print(f"  TOTAL  {report['baseline_total_cpu_s']:7.3f}s -> "
          f"{report['total_cpu_s']:7.3f}s (x{report['speedup_total']:.2f})")
    for name, ops in report["kernel_microbench"].items():
        print(f"  kernel {name:16s} {ops:,} ops/s")
    fab = report["fabric_microbench"]
    print(f"  fabric allreduce {fab['hosts']}h  {fab['events']:,} events, "
          f"{fab['events_per_s']:,} ev/s")
    soak = report["fabric_soak_microbench"]
    print(f"  fabric soak {soak['soak']} {soak['hosts']}h  "
          f"{soak['events']:,} events, {soak['events_per_s']:,} ev/s")
    print(f"  [wrote {OUTPUT}]")
    assert report["speedup_total"] >= MIN_SPEEDUP, (
        f"quick suite speedup x{report['speedup_total']} is below the "
        f"x{MIN_SPEEDUP} acceptance floor"
    )
    assert report["total_cpu_s"] <= WALL_BUDGET_SECONDS, (
        f"quick suite took {report['total_cpu_s']}s CPU, over the "
        f"{WALL_BUDGET_SECONDS}s budget"
    )
    for name, floor in MIN_EVENTS_PER_SECOND.items():
        rate = report["figures"][name]["events_per_s"]
        assert rate >= floor, (
            f"{name}: {rate:,} events/s is below the {floor:,} floor "
            "(event-kernel regression?)"
        )
    for name, floor in MIN_KERNEL_OPS_PER_SECOND.items():
        ops = report["kernel_microbench"][name]
        assert ops >= floor, (
            f"kernel microbench {name}: {ops:,} ops/s is below the "
            f"{floor:,} floor"
        )
    fab_rate = report["fabric_microbench"]["events_per_s"]
    assert fab_rate >= MIN_FABRIC_EVENTS_PER_SECOND, (
        f"fabric microbench: {fab_rate:,} events/s is below the "
        f"{MIN_FABRIC_EVENTS_PER_SECOND:,} floor (fabric scaling "
        "regression?)"
    )
    soak_rate = report["fabric_soak_microbench"]["events_per_s"]
    assert soak_rate >= MIN_FABRIC_SOAK_EVENTS_PER_SECOND, (
        f"fabric soak microbench: {soak_rate:,} events/s is below the "
        f"{MIN_FABRIC_SOAK_EVENTS_PER_SECOND:,} floor (chaos-path "
        "regression: retries/reroutes/health sampling gone superlinear?)"
    )


if __name__ == "__main__":
    test_simspeed_quick_suite()
    test_resilience_zero_overhead()
    test_sanitizer_overhead()
    test_obs_zero_overhead()
    test_tiebreak_zero_overhead()
    test_drain_loop_overhead()
