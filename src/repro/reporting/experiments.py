"""Experiment registry: one runner per paper figure/table or scenario.

Each ``fig*`` function rebuilds the workload of the corresponding figure in
the paper's evaluation section; the fault campaign, soak, fabric sweep and
topology gallery sit in the same registry.  A runner returns a
rendered-able :class:`~repro.reporting.figures.Figure`,
:class:`~repro.reporting.table.Table` or
:class:`~repro.reporting.table.Report`.  The ``omx-repro`` CLI (see
``main``) runs any of them; ``benchmarks/`` wraps the same runners.

Runners declare their sweep as a list of independent *points* and execute
them through a :class:`~repro.reporting.sweeps.SweepExecutor` — which
memoizes points on disk and can fan out over ``REPRO_JOBS`` worker
processes.  Pass ``executor=`` to share one executor (and its statistics)
across runners; the default executor is configured from the environment.

``quick=True`` trims sizes/iterations for CI-speed runs; the shapes remain.
Runners may take ``seed`` and ``trace`` keywords as well, which ``main``
fills from ``--seed`` and ``--trace``.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from contextlib import nullcontext
from pathlib import Path
from typing import Callable, Optional

from repro.params import clovertown_5000x
from repro.reporting.figures import Figure
from repro.reporting.sweeps import SweepExecutor, point
from repro.reporting.table import Report, Table, write_report
from repro.units import GiB, KiB, MiB, SEC

# ---------------------------------------------------------------------------
# shared sweeps
# ---------------------------------------------------------------------------

SWEEP_SIZES = [16, 64, 256, 1 * KiB, 4 * KiB, 16 * KiB, 32 * KiB, 64 * KiB,
               128 * KiB, 256 * KiB, 512 * KiB, 1 * MiB, 4 * MiB]
QUICK_SIZES = [16, 4 * KiB, 64 * KiB, 256 * KiB, 1 * MiB, 4 * MiB]


def _executor(executor: Optional[SweepExecutor]) -> SweepExecutor:
    return executor if executor is not None else SweepExecutor()


def _plot(fig: Figure, series: list, executor: Optional[SweepExecutor]) -> Figure:
    """Run every ``(label, sizes, kind, params)`` row as one sweep — point
    ``kind`` with ``size=size, **params`` per size — and add each row's
    values to ``fig`` as one series."""
    points = [point(kind, size=size, **params)
              for _label, sizes, kind, params in series for size in sizes]
    values = iter(_executor(executor).run(points))
    for label, sizes, _kind, _params in series:
        s = fig.new_series(label)
        for size in sizes:
            s.add(size, next(values))
    return fig


def _pingpong_figure(fig: Figure, sizes: list[int], iters: int, configs,
                     executor: Optional[SweepExecutor]) -> Figure:
    """One ping-pong series per ``(label, stack, omx overrides)`` config
    (Figs. 3, 8 and 11)."""
    return _plot(fig, [(label, sizes, "pingpong",
                        dict(stack=stack, iters=iters, omx=cfg))
                       for label, stack, cfg in configs], executor)


# ---------------------------------------------------------------------------
# Figure 3 — expected improvement when removing the BH receive copy
# ---------------------------------------------------------------------------

def fig3(quick: bool = False, executor: Optional[SweepExecutor] = None) -> Figure:
    """MX vs Open-MX vs Open-MX with the BH copy ignored (prediction)."""
    sizes = QUICK_SIZES if quick else SWEEP_SIZES
    iters = 3 if quick else 5
    fig = Figure("FIG3", "Expected Open-MX improvement without the BH receive copy",
                 "message size", "throughput (MiB/s)")
    return _pingpong_figure(fig, sizes, iters, [
        ("MX", "mx", {}),
        ("Open-MX ignoring BH receive copy", "omx", dict(ignore_bh_copy=True)),
        ("Open-MX", "omx", {}),
    ], executor)


# ---------------------------------------------------------------------------
# Figure 7 — pipelined memcpy vs I/OAT copy for several chunk sizes
# ---------------------------------------------------------------------------

def fig7(quick: bool = False, executor: Optional[SweepExecutor] = None) -> Figure:
    """Raw copy throughput when streams are split into fixed chunks."""
    copy_sizes = [256, 1 * KiB, 4 * KiB, 16 * KiB, 64 * KiB, 256 * KiB, 1 * MiB]
    if quick:
        copy_sizes = [1 * KiB, 16 * KiB, 256 * KiB, 1 * MiB]
    chunk_sizes = [4 * KiB, 1 * KiB, 256]
    fig = Figure("FIG7", "Pipelined memcpy vs I/OAT copy by chunk size",
                 "copy size", "throughput (MiB/s)")
    return _plot(fig, [
        (f"{label} - {_sz(chunk)} chunks",
         [size for size in copy_sizes if size >= chunk], kind, dict(chunk=chunk))
        for kind, label in (("memcpy_chunked", "Memcpy"), ("ioat_chunked", "I/OAT Copy"))
        for chunk in chunk_sizes
    ], executor)


def _sz(n: int) -> str:
    return f"{n >> 10}kB" if n >= 1024 else f"{n}B"


# ---------------------------------------------------------------------------
# §IV-A scalars — submission cost, break-even sizes
# ---------------------------------------------------------------------------

def micro(quick: bool = False, executor: Optional[SweepExecutor] = None) -> Table:
    """The micro-benchmark scalars quoted in §IV-A."""
    plat = clovertown_5000x()
    hp = plat.host
    ioat_4k, memcpy_4k = _executor(executor).run([
        point("ioat_chunked", size=1 * MiB, chunk=4 * KiB),
        point("memcpy_chunked", size=1 * MiB, chunk=4 * KiB),
    ])
    t = Table("MICRO: §IV-A scalar measurements",
              ["quantity", "paper", "model"])
    t.add_row("I/OAT submission cost (ns)", "~350", hp.ioat.submit_cost)
    t.add_row("completion poll cost (ns)", "negligible", hp.ioat.poll_cost)
    t.add_row("memcpy rate, uncached (GiB/s)", "~1.6",
              f"{hp.memcpy.uncached_bw / GiB:.2f}")
    t.add_row("memcpy rate, cached (GiB/s)", "up to 12 (sustained ~6)",
              f"{hp.cache.cached_copy_bw / GiB:.2f}")
    # break-even: memcpy duration equals the submission cost
    be_uncached = int(hp.ioat.submit_cost * hp.memcpy.uncached_bw / SEC)
    be_cached = int(hp.ioat.submit_cost * hp.cache.cached_copy_bw / SEC)
    t.add_row("break-even size, uncached (B)", "~600", be_uncached)
    t.add_row("break-even size, cached (B)", "~2048", be_cached)
    t.add_row("I/OAT rate @4kB chunks (GiB/s)", "~2.4", f"{ioat_4k / 1024:.2f}")
    t.add_row("memcpy @4kB chunks (GiB/s)", "~1.5", f"{memcpy_4k / 1024:.2f}")
    return t


# ---------------------------------------------------------------------------
# Figure 8 — ping-pong with I/OAT copy offload in the BH
# ---------------------------------------------------------------------------

def fig8(quick: bool = False, executor: Optional[SweepExecutor] = None) -> Figure:
    sizes = QUICK_SIZES if quick else SWEEP_SIZES
    iters = 3 if quick else 5
    fig = Figure("FIG8", "Ping-pong with I/OAT asynchronous copy offload",
                 "message size", "throughput (MiB/s)")
    return _pingpong_figure(fig, sizes, iters, [
        ("MX", "mx", {}),
        ("Open-MX ignoring BH receive copy", "omx", dict(ignore_bh_copy=True)),
        ("Open-MX with DMA copy in BH receive", "omx", dict(ioat_enabled=True)),
        ("Open-MX", "omx", {}),
    ], executor)


# ---------------------------------------------------------------------------
# Figure 9 — receive-side CPU usage, memcpy vs overlapped DMA
# ---------------------------------------------------------------------------

FIG9_SIZES = [64 * KiB, 256 * KiB, 1 * MiB, 4 * MiB, 16 * MiB]


def fig9(quick: bool = False, executor: Optional[SweepExecutor] = None) -> Table:
    sizes = FIG9_SIZES[:-1] if quick else FIG9_SIZES
    iters = 6 if quick else 10
    t = Table(
        "FIG9: receiver CPU usage (% of one core) while streaming large messages",
        ["size", "mode", "user-lib %", "driver %", "BH recv %", "total %", "MiB/s"],
    )
    # Registration cache off: the paper's Fig. 9 driver band is the
    # per-transfer memory pinning inside the system call ("driver time is
    # higher because it involves memory pinning during a system call prior
    # to the data transfer").
    points = [
        point("stream_usage", size=size, iters=iters, ioat=ioat, regcache=False)
        for ioat in (False, True)
        for size in sizes
    ]
    values = iter(_executor(executor).run(points))
    for ioat in (False, True):
        for size in sizes:
            u = next(values)
            t.add_row(
                _sz_mib(size), "DMA" if ioat else "Memcpy",
                u["user_pct"], u["driver_pct"], u["bh_pct"], u["total_pct"],
                u["throughput_mib_s"],
            )
    return t


def _sz_mib(n: int) -> str:
    return f"{n >> 20}MiB" if n >= MiB else f"{n >> 10}KiB"


# ---------------------------------------------------------------------------
# Figure 10 — shared-memory one-copy communication
# ---------------------------------------------------------------------------

def fig10(quick: bool = False, executor: Optional[SweepExecutor] = None) -> Figure:
    sizes = [16, 256, 4 * KiB, 64 * KiB, 1 * MiB, 16 * MiB] if quick else [
        16, 256, 1 * KiB, 4 * KiB, 16 * KiB, 64 * KiB, 256 * KiB,
        1 * MiB, 4 * MiB, 16 * MiB,
    ]
    iters = 4 if quick else 8
    fig = Figure("FIG10", "Open-MX shared-memory one-copy ping-pong",
                 "message size", "throughput (MiB/s)")
    configs = [
        ("Memcpy on the same dual-core subchip", "same_die", {}),
        ("Memcpy between different processor sockets", "cross_socket", {}),
        ("I/OAT offloaded synchronous copy", "same_die", dict(ioat_enabled=True)),
    ]
    return _plot(fig, [(label, sizes, "shm_pingpong",
                        dict(placement=placement, iters=iters, cfg=cfg))
                       for label, placement, cfg in configs], executor)


# ---------------------------------------------------------------------------
# Figure 11 — IMB PingPong with/without I/OAT and registration cache
# ---------------------------------------------------------------------------

def fig11(quick: bool = False, executor: Optional[SweepExecutor] = None) -> Figure:
    sizes = (QUICK_SIZES + [16 * MiB]) if quick else (SWEEP_SIZES + [16 * MiB])
    iters = 3 if quick else 5
    fig = Figure("FIG11", "IMB PingPong: I/OAT and registration cache",
                 "message size", "throughput (MiB/s)")
    return _pingpong_figure(fig, sizes, iters, [
        ("MX", "mx", {}),
        ("Open-MX I/OAT", "omx", dict(ioat_enabled=True)),
        ("Open-MX", "omx", {}),
        ("Open-MX I/OAT w/o regcache", "omx",
         dict(ioat_enabled=True, regcache_enabled=False)),
        ("Open-MX w/o regcache", "omx", dict(regcache_enabled=False)),
    ], executor)


# ---------------------------------------------------------------------------
# Figure 12 — full IMB suite normalized to MXoE
# ---------------------------------------------------------------------------

FIG12_TESTS = ["PingPong", "PingPing", "SendRecv", "Exchange", "Allreduce",
               "Reduce", "Red.Scat.", "Allgather", "Allgatherv", "Alltoall",
               "Bcast"]


def fig12(quick: bool = False, sizes: Optional[list[int]] = None,
          executor: Optional[SweepExecutor] = None) -> Table:
    sizes = sizes if sizes is not None else ([128 * KiB] if quick else [128 * KiB, 4 * MiB])
    tests = FIG12_TESTS[:4] + ["Allreduce", "Alltoall", "Bcast"] if quick else FIG12_TESTS
    iters = 2 if quick else 4
    t = Table(
        "FIG12: IMB performance as percentage of MXoE (higher is better)",
        ["test", "size", "ppn", "Open-MX %", "Open-MX + I/OAT %"],
    )
    variants = [("mx", {}), ("omx", {}), ("omx", dict(ioat_enabled=True))]
    points = [
        point("imb_time", stack=stack, test=test, size=size, ppn=ppn,
              iters=iters, omx=cfg)
        for size in sizes
        for ppn in (1, 2)
        for test in tests
        for stack, cfg in variants
    ]
    values = iter(_executor(executor).run(points))
    for size in sizes:
        for ppn in (1, 2):
            for test in tests:
                base, plain, ioat = next(values), next(values), next(values)
                t.add_row(test, _sz_mib(size), ppn,
                          100.0 * base / plain, 100.0 * base / ioat)
    return t


# ---------------------------------------------------------------------------
# NAS IS (§IV-D)
# ---------------------------------------------------------------------------

def nas(quick: bool = False, executor: Optional[SweepExecutor] = None) -> Table:
    # 2^18 keys/rank -> ~1 MiB of keys, ~256 KiB alltoallv blocks: the
    # large-message regime the paper credits for IS's 10 % gain.
    keys = 1 << (16 if quick else 18)
    iters = 2 if quick else 3
    t = Table("NAS IS kernel (2 nodes x 2 ppn)",
              ["stack", "total ms", "comm ms", "sorted", "vs Open-MX"])
    configs = [
        ("MXoE", "mx", {}),
        ("Open-MX", "omx", {}),
        ("Open-MX + I/OAT", "omx", dict(ioat_enabled=True)),
    ]
    points = [
        point("nas_is", stack=stack, keys=keys, iters=iters, omx=cfg)
        for _label, stack, cfg in configs
    ]
    values = _executor(executor).run(points)
    results = {label: r for (label, _s, _c), r in zip(configs, values)}
    base = results["Open-MX"]["total_time_us"]
    for label, r in results.items():
        speedup = 100.0 * (base / r["total_time_us"] - 1.0)
        t.add_row(label, r["total_time_us"] / 1000.0, r["comm_time_us"] / 1000.0,
                  "yes" if r["sorted_ok"] else "NO", f"{speedup:+.1f}%")
    return t


# ---------------------------------------------------------------------------
# Engine shootout — every registered copy backend over the key sweeps
# ---------------------------------------------------------------------------

def engine_shootout(quick: bool = False,
                    executor: Optional[SweepExecutor] = None) -> Table:
    """Compare every registered :class:`~repro.core.backends.CopyBackend`.

    Each backend runs the Fig. 8 ping-pong sweep, the Fig. 9 CPU-usage
    stream, and the highly-vectorial scatter workload (§IV-A corner case),
    side by side in one table.  ``memcpy`` is the non-offloading baseline;
    ``ioat`` is the paper's engine; the others are the what-if engines
    (FlexTOE-style parallel lanes, sPIN-style in-NIC handlers, chained
    scatter-gather DMA).
    """
    from repro.core.backends import backend_names

    backends = backend_names()
    pp_sizes = [64 * KiB, 1 * MiB] if quick else [4 * KiB, 64 * KiB, 1 * MiB, 4 * MiB]
    pp_iters = 3 if quick else 5
    stream_size = 1 * MiB if quick else 4 * MiB
    stream_iters = 4 if quick else 8
    vec_total = 256 * KiB
    vec_segment = 3072  # page-straddling scatter segments (the hard case)

    def omx_for(name: str) -> dict:
        if name == "memcpy":
            return dict(copy_backend="memcpy")
        return dict(copy_backend=name, ioat_enabled=True)

    points = []
    for b in backends:
        cfg = omx_for(b)
        points.extend(
            point("pingpong", stack="omx", size=size, iters=pp_iters, omx=cfg)
            for size in pp_sizes
        )
        points.append(point("stream_usage", size=stream_size, iters=stream_iters,
                            ioat=(b != "memcpy"), regcache=False, omx=cfg))
        points.append(point("vectored", total=vec_total, segment=vec_segment,
                            backend=b))
    values = iter(_executor(executor).run(points))

    t = Table(
        "SHOOTOUT: copy backends over ping-pong, stream CPU usage, "
        "and vectored scatter",
        ["backend"]
        + [f"pingpong {_sz_mib(s)} MiB/s" for s in pp_sizes]
        + ["stream BH %", "stream MiB/s", "vectored MiB/s", "vectored descs"],
    )
    for b in backends:
        pp = [next(values) for _ in pp_sizes]
        stream = next(values)
        vec = next(values)
        t.add_row(
            b, *pp, stream["bh_pct"], stream["throughput_mib_s"],
            vec["throughput_mib_s"], vec["descriptors"],
        )
    return t


# ---------------------------------------------------------------------------
# Fabric sweep — collectives at datacenter scale (ROADMAP item 1)
# ---------------------------------------------------------------------------

def fabric_sweep(quick: bool = False,
                 executor: Optional[SweepExecutor] = None) -> Report:
    """Allreduce/alltoall over 2-tier fat trees: size x hosts x
    oversubscription x copy backend (chunk-level fabric model).

    Sweeps the paper's receive-copy question at fabric scale: does I/OAT
    offload still pay when the bottleneck could be an oversubscribed
    trunk instead of the receiver's memory bus?  The report's document is
    the full grid of cells (``results/fabric_sweep.json``, byte-stable).
    """
    if quick:
        grid = [("allreduce", h, os_, s)
                for h in (32,)
                for os_ in (1.0, 4.0)
                for s in (4 * KiB, 64 * KiB)]
        grid += [("alltoall", 32, os_, 4 * KiB) for os_ in (1.0, 4.0)]
    else:
        grid = [("allreduce", h, os_, s)
                for h in (64, 256)
                for os_ in (1.0, 4.0)
                for s in (4 * KiB, 64 * KiB, 1 * MiB)]
        grid += [("alltoall", 64, os_, s)
                 for os_ in (1.0, 4.0)
                 for s in (4 * KiB, 16 * KiB)]
    points = [
        point("fabric", topology="fat_tree2", hosts=hosts,
              oversubscription=os_, collective=coll, size=size,
              backend=backend)
        for coll, hosts, os_, size in grid
        for backend in ("memcpy", "ioat")
    ]
    # IMB smoke over the fabric: the frame-level benchmark harness run
    # unmodified at chunk scale (one Allreduce cell per backend).
    points += [
        point("imb_fabric", topology="fat_tree2", hosts=16,
              oversubscription=2.0, test="Allreduce", size=16 * KiB,
              backend=backend)
        for backend in ("memcpy", "ioat")
    ]
    values = _executor(executor).run(points)

    t = Table(
        "FABRIC: collectives over 2-tier fat trees "
        "(memcpy vs I/OAT receive copy)",
        ["collective", "hosts", "oversub", "size", "backend",
         "time (us)", "MiB/s", "events"],
    )
    it = iter(values)
    for coll, hosts, os_, size in grid:
        for backend in ("memcpy", "ioat"):
            cell = next(it)
            t.add_row(coll, cell["hosts"], f"{os_:g}", _sz(size), backend,
                      cell["time_ns"] // 1000, cell["mib_s"], cell["events"])
    for backend in ("memcpy", "ioat"):
        cell = next(it)
        t.add_row(f'imb:{cell["test"]}', cell["hosts"], "2",
                  _sz(cell["size"]), backend, round(cell["t_avg_us"]),
                  cell["mib_s"], cell["events"])
    return Report([t], doc={"cells": values})


# ---------------------------------------------------------------------------
# Fault campaign and soak — the reliability contract under injected faults
# ---------------------------------------------------------------------------

def _pop_traces(records: list, name: Callable[[dict], str]) -> dict[str, dict]:
    """Move each record's Perfetto trace out of the report, keyed by file
    name ``name(record)``: timelines would swamp the JSON and sit outside
    its byte-stable determinism contract."""
    return {name(r): r.pop("trace_events") for r in records if "trace_events" in r}


def _outcome_table(title: str, key: str, records: list,
                   label: Callable[[dict], str], extra: tuple = ()) -> Table:
    """One row per campaign cell or soak run: its label, its transfer
    outcomes, each ``(column, value-of-record)`` of ``extra``, and the
    sanitizer verdict."""
    t = Table(title, [key, "completed", "failed", "hung"]
              + [col for col, _ in extra] + ["sanitizer"])
    for r in records:
        o = r["outcomes"]
        t.add_row(label(r), o["completed"], o["failed"], o["hung"],
                  *(value(r) for _, value in extra),
                  "DIRTY" if r["sanitizer"] else "clean")
    return t


def _totals(totals: dict) -> str:
    return (f"totals: {totals['completed']} completed, {totals['failed']} "
            f"failed (typed), {totals['hung']} hung")


def faults_campaign(quick: bool = False, executor: Optional[SweepExecutor] = None,
                    seed: str = "campaign", trace: bool = False) -> Report:
    """The quick fault matrix: every (workload, size, plan) cell fires one
    fault, and every transfer must complete or fail typed (DESIGN.md §10).
    ``quick`` changes nothing: the matrix is already the quick one."""
    from repro.faults.campaign import quick_campaign_spec, run_campaign

    report = run_campaign(quick_campaign_spec(seed), executor=_executor(executor),
                          trace=trace)
    traces = _pop_traces(report["cells"],
                         lambda c: f'{c["workload"]}-{c["size"]}-{c["plan"]}.json')
    t = _outcome_table(f"fault campaign (seed={seed!r})", "cell", report["cells"],
                       lambda c: f'{c["workload"]}/{c["size"] // 1024}K/{c["plan"]}')
    summary = (f"{_totals(report['totals'])}; "
               f"{report['retransmissions']} retransmissions, "
               f"{report['dead_letters']} dead letters, "
               f"{report['fallback_copies']} memcpy fallbacks")
    ok = not (report["totals"]["hung"] or report["sanitizer_dirty_cells"])
    return Report([t, summary], doc=report, ok=ok, traces=traces)


def faults_soak(quick: bool = False, executor: Optional[SweepExecutor] = None,
                seed: str = "soak", trace: bool = False) -> Report:
    """The chained-fault soak suite (I/OAT fail/recover flaps, flapping
    links, incast bursts, fabric gray churn) with checkpointed livelock and
    leak invariants (DESIGN.md §12).  ``quick`` changes nothing."""
    from repro.faults.soak import run_soak_suite

    report = run_soak_suite(seed, trace=trace)
    traces = _pop_traces(report["runs"], lambda run: f'{run["soak"]}.json')
    t = _outcome_table(
        f"fault soak (seed={seed!r})", "run", report["runs"],
        lambda r: f'{r["soak"]}/{r["workload"]}/{r["size"] // 1024}K',
        (("breaker trips", lambda r: r["health"].get("breaker_trips", 0)),
         ("reopens", lambda r: r["health"].get("breaker_reopens", 0))))
    fabric = report["fabric"]
    ft = Table(f"fabric soak (seed={seed!r})",
               ["run", "topology", "delivered", "failed", "retried",
                "reroutes", "flaps supp.", "dead", "epoch", "sanitizer"])
    for run in fabric["runs"]:
        res, net = run.get("resilience", {}), run["net"]
        ft.add_row(run["soak"], run["topology"], net["msgs_delivered"],
                   net["msgs_failed"], net["chunks_retried"],
                   res.get("reroutes", 0), res.get("flaps_suppressed", 0),
                   len(run["dead_ranks"]), run["epoch"],
                   "DIRTY" if run["sanitizer"] else "clean")
    ok = not (report["totals"]["hung"] or report["sanitizer_dirty_runs"]
              or fabric["sanitizer_dirty_runs"])
    return Report([t, ft, _totals(report["totals"])], doc=report, ok=ok,
                  traces=traces)


# ---------------------------------------------------------------------------
# Fabric topology gallery
# ---------------------------------------------------------------------------

#: (kind, hosts, oversubscription) rows covering every topology generator
#: at a representative scale
GALLERY = (("pair", 2, 1.0), ("star", 8, 1.0), ("fat_tree2", 32, 1.0),
           ("fat_tree2", 64, 4.0), ("fat_tree3", 128, 1.0), ("dragonfly", 32, 1.0))


def topologies(quick: bool = False, executor: Optional[SweepExecutor] = None) -> Table:
    """Host/switch/link counts, worst-case oversubscription and switch-graph
    diameter of every :data:`GALLERY` topology, to sanity-check a fabric
    grid before spending simulator time on it.  Simulates nothing."""
    from repro.fabric.sweep import make_topology

    table = Table("fabric topologies", ["kind", "hosts", "switches", "links",
                                        "trunks", "oversub", "diameter"])
    for kind, hosts, oversub in GALLERY:
        spec = make_topology(kind, hosts, oversubscription=oversub)
        spec.validate()
        table.add_row(kind, len(spec.hosts), len(spec.switches), len(spec.links),
                      len(spec.trunk_links()), f"{spec.oversubscription():.2f}",
                      spec.diameter_hops())
    return table


# ---------------------------------------------------------------------------
# Figures 5, 6 and 9 through repro.obs — timelines and the phase profile
# ---------------------------------------------------------------------------

def fig9_phases(quick: bool = False, executor: Optional[SweepExecutor] = None) -> Report:
    """Fig. 9 CPU usage with each point's phase decomposition and a
    calibration verdict against the paper's bands; not ok out of band."""
    from repro.obs.profiler import fig9_parts, fig9_report

    report = fig9_report(quick=quick, executor=_executor(executor))
    return Report(fig9_parts(report), doc=report, ok=report["calibration_ok"])


_FIG56_CAPTIONS = (
    "Fig. 5 — regular receive: each fragment is processed AND copied "
    "on the CPU before the next one",
    "Fig. 6 — I/OAT offload: the CPU only processes+submits; copies "
    "overlap on the DMA engine lane",
)


def fig56(quick: bool = False, executor: Optional[SweepExecutor] = None,
          trace: bool = False) -> Report:
    """The Fig. 5 / Fig. 6 timelines: one multi-fragment message received
    with memcpy, then with I/OAT offload.  Without I/OAT each fragment's
    processing *and copy* hold the CPU before the next fragment; with it
    the copies overlap on the DMA lane and only the last fragment waits.
    With ``trace`` both runs go to one Perfetto file, ``fig56.json``."""
    from repro.obs.scenarios import run_fig56_scenario
    from repro.obs.trace import export_trace_events

    runs = [("fig5-memcpy", run_fig56_scenario(False)),
            ("fig6-ioat", run_fig56_scenario(True))]
    traces = {"fig56.json": export_trace_events(runs)} if trace else {}
    rule = "=" * 104
    parts = []
    for caption, (_name, recorder) in zip(_FIG56_CAPTIONS, runs):
        # Render only the data-transfer phase (pull replies + DMA copies).
        recorder.spans = [s for s in recorder.spans
                          if s.label.startswith(("PULL_REPLY", "Copy"))]
        parts.append("\n".join([rule, caption, rule, recorder.render_ascii(width=100)]))
    return Report(parts, traces=traces)


# ---------------------------------------------------------------------------
# registry + CLI
# ---------------------------------------------------------------------------

EXPERIMENTS: dict[str, Callable] = {
    "fig3": fig3,
    "fig7": fig7,
    "micro": micro,
    "fig8": fig8,
    "fig9": fig9,
    "fig10": fig10,
    "fig11": fig11,
    "fig12": fig12,
    "nas": nas,
    "engine_shootout": engine_shootout,
    "fabric_sweep": fabric_sweep,
    "faults_campaign": faults_campaign,
    "faults_soak": faults_soak,
    "topologies": topologies,
    "fig9_phases": fig9_phases,
    "fig56": fig56,
}


def _flatten(obj, prefix="") -> dict[str, float]:
    """Numeric leaves of a JSON document, dotted paths; lists become lengths."""
    out: dict[str, float] = {}
    if isinstance(obj, bool):
        return out
    if isinstance(obj, (int, float)):
        out[prefix or "value"] = obj
    elif isinstance(obj, dict):
        for key, val in obj.items():
            out.update(_flatten(val, f"{prefix}.{key}" if prefix else str(key)))
    elif isinstance(obj, list):
        out[f"{prefix}.len" if prefix else "len"] = len(obj)
    return out


def _diff(a: str, b: str) -> int:
    """Print every numeric value that differs between two JSON documents."""
    flat = []
    for name in (a, b):
        try:
            flat.append(_flatten(json.loads(Path(name).read_text())))
        except (OSError, ValueError) as exc:
            print(f"cannot load {name}: {exc}", file=sys.stderr)
            return 2

    def fmt(v):
        return "-" if v is None else (f"{v:g}" if isinstance(v, float) else str(v))

    keys = sorted(set(flat[0]) | set(flat[1]))
    changed = [k for k in keys if flat[0].get(k) != flat[1].get(k)]
    for key in changed:
        va, vb = flat[0].get(key), flat[1].get(key)
        delta = "" if va is None or vb is None else f"  ({vb - va:+g})"
        print(f"  {key}: {fmt(va)} -> {fmt(vb)}{delta}")
    print(f"{len(changed)} differing value(s)" if changed else "no numeric differences")
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="omx-repro",
        description="Regenerate the figures of the Open-MX I/OAT paper "
                    "(Goglin, Cluster 2008) and the repo's fault, soak and "
                    "fabric scenarios from the simulator.",
    )
    parser.add_argument("experiment", nargs="?",
                        choices=sorted(EXPERIMENTS) + ["all"],
                        help="which figure/table/scenario to regenerate")
    parser.add_argument("--quick", action="store_true",
                        help="smaller sweeps / fewer iterations")
    parser.add_argument("--csv", metavar="FILE",
                        help="also write the data as CSV")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="worker processes (default: $REPRO_JOBS or 1)")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the on-disk sweep-point cache")
    parser.add_argument("--seed", metavar="SEED",
                        help="fault plan seed (faults_campaign, faults_soak)")
    parser.add_argument("--trace", metavar="DIR",
                        help="write Perfetto traces into DIR: one per cell "
                             "(faults_campaign), per host-pair run "
                             "(faults_soak), or fig56.json (fig56)")
    parser.add_argument("--tiebreak-seed", metavar="SEED",
                        help="replay under a seeded shuffle of same-timestamp "
                             "event ties (schedule-race hunting; forces "
                             "--jobs 1 and --no-cache)")
    parser.add_argument("--diff", nargs=2, metavar=("A", "B"),
                        help="print the numeric differences between two JSON "
                             "results, then exit")
    args = parser.parse_args(argv)

    if args.diff:
        return _diff(*args.diff)
    if args.experiment is None:
        parser.error("an experiment (or --diff A B) is required")
    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    options = {"seed": args.seed, "trace": True if args.trace is not None else None}
    options = {k: v for k, v in options.items() if v is not None}
    unused = set(options) - set(inspect.signature(EXPERIMENTS[names[0]]).parameters)
    if len(names) == 1 and unused:
        parser.error(f"{names[0]} takes no --{' --'.join(sorted(unused))}")
    policy = nullcontext()
    if args.tiebreak_seed is not None:
        # The policy factory is process-global state: worker processes would
        # not inherit it, and cached points would be stale FIFO results.
        from repro.simkernel.tiebreak import SeededShuffleTieBreak, default_tiebreak

        args.jobs, args.no_cache = 1, True
        policy = default_tiebreak(lambda: SeededShuffleTieBreak(args.tiebreak_seed))

    ex = SweepExecutor(jobs=args.jobs, cache=not args.no_cache)
    ok = True
    with policy:
        for name in names:
            params = inspect.signature(EXPERIMENTS[name]).parameters
            result = EXPERIMENTS[name](
                quick=args.quick, executor=ex,
                **{k: v for k, v in options.items() if k in params})
            print(result.render())
            print()
            if args.csv:
                path = args.csv if len(names) == 1 else f"{name}_{args.csv}"
                with open(path, "w") as fh:
                    fh.write(result.to_csv())
                print(f"[wrote {path}]")
            if not isinstance(result, Report):
                continue
            ok = ok and result.ok
            if result.doc is not None:
                print(f"[wrote {write_report(result.doc, Path('results') / f'{name}.json')}]")
            if result.traces:
                from repro.obs.trace import write_trace

                for fname, doc in result.traces.items():
                    write_trace(doc, Path(args.trace) / fname)
                print(f"[wrote {len(result.traces)} trace(s) under {args.trace}]")
    if ex.stats.points:
        print(f"[sweep: {ex.stats.points} points, {ex.stats.cache_hits} cached, "
              f"{ex.stats.computed} computed, jobs={ex.jobs}, "
              f"phantom={'on' if ex.phantom_mode else 'off'}]")
    return 0 if ok else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
