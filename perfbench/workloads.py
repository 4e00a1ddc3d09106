"""The benchmark's four workloads: seeded op lists, op execution, checks.

An *op* is one closed-loop unit of work with a fresh simulated system (a
testbed, a fabric world or a fault-campaign cell), so its simulated result
depends only on its parameters.  Each workload turns a seed into a list of
ops — sizes drawn within fixed strata of the workload's band, configs
crossed, order shuffled — and a timed run repeats that list in passes.

Every op returns ``{"sim": ..., "counts": ..., "msgs": ...}``:

* ``sim`` — simulated outputs (end time, events, model results), compared
  against the recorded reference for the default seed;
* ``counts`` — exact per-layer counters read from the program's metrics
  registries (``<layer>.<name>``, see :data:`COUNT_KEYS`);
* ``msgs`` — simulated messages delivered.

A failed check raises :class:`CheckFailed`; the runner counts the op as
failed.
"""

from __future__ import annotations

import math
import random
import re
from contextlib import contextmanager
from typing import Callable, Optional

from repro.cluster.testbed import build_testbed
from repro.core.counters import collect_counters
from repro.fabric.mpi import launch_fabric_world
from repro.fabric.sweep import CELL_MAX_EVENTS, collective_body, make_topology
from repro.faults.campaign import run_cell
from repro.faults.plan import standard_plans
from repro.imb import run_imb
from repro.memory.buffers import AddressSpace
from repro.mpi import create_world
from repro.units import KiB, MiB
from repro.workloads import run_stream_usage


class CheckFailed(AssertionError):
    """An op's output broke a correctness check."""


def _check(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


# ---------------------------------------------------------------------------
# per-layer counts from registry snapshots
# ---------------------------------------------------------------------------

#: per-layer count -> registry keys summed into it
COUNT_KEYS = {
    "ethernet.frames": ("nic_rx_frames",),
    "ethernet.softirq_packets": ("softirq_packets",),
    "ethernet.softirq_batches": ("softirq_batches",),
    "ethernet.rx_dropped": ("nic_rx_dropped",),
    "core.frags_dma": ("offload_frags_dma",),
    "core.frags_memcpy": ("offload_frags_memcpy",),
    "core.pull_replies": ("pull_replies_rx",),
    "core.retransmissions": ("retransmissions",),
    "core.reacks": ("reacks",),
    "core.fallback_copies": ("offload_fallback_copies",),
    "memory.copy_calls": ("cpu_copy_calls",),
    "memory.bytes_copied": ("cpu_bytes_copied",),
    "memory.regcache_hits": ("regcache_hits",),
    "memory.regcache_misses": ("regcache_misses",),
    "ioat.descriptors": ("ioat_descriptors",),
    "ioat.bytes_copied": ("ioat_bytes_copied",),
    "ioat.descriptors_failed": ("ioat_descriptors_failed",),
    "health.breaker_trips": ("breaker_trips",),
}

#: counts aggregated by maximum over ops instead of by sum
MAX_COUNTS = frozenset({"fabric.peak_port_queue"})

_IOAT_BUSY = re.compile(r"ioat_ch\d+_busy_ticks$")
_PORT_BACKLOG = re.compile(r"fabric_.*_peak_backlog_ns$")


def layer_counts(snapshot: dict, *, chunks_forwarded: int = 0,
                 faults_injected: int = 0) -> dict[str, int]:
    """Map one op's (summed) registry snapshot onto per-layer counts."""
    counts = {name: sum(snapshot.get(k, 0) for k in keys)
              for name, keys in COUNT_KEYS.items()}
    counts["ioat.busy_ns"] = sum(v for k, v in snapshot.items()
                                 if _IOAT_BUSY.match(k))
    counts["fabric.chunks_forwarded"] = chunks_forwarded
    counts["fabric.peak_port_queue"] = max(
        (v for k, v in snapshot.items() if _PORT_BACKLOG.match(k)), default=0)
    counts["faults.injected"] = faults_injected
    return counts


def sum_counts(per_op) -> dict:
    """Per-layer counts of several ops: summed, or the maximum for
    :data:`MAX_COUNTS`."""
    total: dict = {}
    for counts in per_op:
        for k, v in counts.items():
            total[k] = max(total.get(k, 0), v) if k in MAX_COUNTS else total.get(k, 0) + v
    return total


def _sum_snapshots(snaps) -> dict:
    out: dict = {}
    for snap in snaps:
        for k, v in snap.items():
            out[k] = out.get(k, 0) + v
    return out


def _host_pair_finish(tb) -> dict:
    """Summed registry snapshot of both hosts; no request may have failed."""
    snap = _sum_snapshots(collect_counters(s) for s in tb.stacks)
    for key in ("requests_failed", "dead_letters", "pull_aborts"):
        _check(snap.get(key, 0) == 0, f"{key} = {snap.get(key)}")
    return snap


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------


def stratified_sizes(rng: random.Random, lo: int, hi: int,
                     per_octave: int) -> list[int]:
    """One size drawn log-uniformly inside each of ``per_octave`` strata
    per octave of ``[lo, hi]``.  Stratifying keeps the total work of a
    list nearly seed-independent while every size still comes from the
    seed."""
    n = max(1, round(math.log2(hi / lo) * per_octave))
    edges = [lo * (hi / lo) ** (j / n) for j in range(n + 1)]
    sizes = []
    for a, b in zip(edges, edges[1:]):
        size = int(math.exp(rng.uniform(math.log(a), math.log(b))))
        sizes.append(min(max(size, lo), hi))
    return sizes


def _finish_ops(rng: random.Random, prefix: str, ops: list[dict]) -> list[dict]:
    rng.shuffle(ops)
    for i, op in enumerate(ops):
        op["id"] = f"{prefix}{i:03d}"
    return ops


@contextmanager
def recorded_allocs():
    """Record every ``AddressSpace.alloc`` (space, region) while active, so
    the byte-moving pass can find the buffers a workload allocated."""
    allocs: list = []
    orig = AddressSpace.alloc

    def alloc(self, length, *args, **kwargs):
        region = orig(self, length, *args, **kwargs)
        allocs.append((self, region))
        return region

    AddressSpace.alloc = alloc
    try:
        yield allocs
    finally:
        AddressSpace.alloc = orig


def _same_bytes(dst, src, length: int, what: str) -> None:
    got, want = dst.read(0, length), src.read(0, length)
    _check(bool(want.any()), f"{what}: sender buffer holds no pattern")
    _check(bool((got == want).all()), f"{what}: receive buffer differs "
           "from the sender's pattern")


# ---------------------------------------------------------------------------
# the workloads
# ---------------------------------------------------------------------------


class Workload:
    """One named workload; subclasses fill in the hooks."""

    name = ""
    prefix = ""

    def make_ops(self, rng: random.Random) -> list[dict]:
        raise NotImplementedError

    def config(self, op: dict) -> tuple:
        """The op's configuration (everything but its size); set-up runs
        one untimed warm-up op per configuration."""
        raise NotImplementedError

    def run_op(self, op: dict, span: Callable, watch: Optional[Callable] = None) -> dict:
        """Run one op under ``span(name)`` stages build → run → finish →
        counters.  ``watch(tb)`` (byte-moving pass only) is called on a
        freshly built testbed before any traffic."""
        raise NotImplementedError

    def check_pass(self, ops: list[dict], results: dict) -> list[str]:
        """Invariants across the ops of one pass (paper claims)."""
        return []

    def byte_sample(self, ops: list[dict]) -> list[dict]:
        """Ops re-run with real payloads in the verification pass."""
        return []

    def check_bytes(self, op: dict, allocs: list) -> None:
        """After a byte-moving run: the receive buffers hold the sender's
        pattern."""


def _pairs(ops, results, key: Callable, flag: str):
    """(off, on) results per ``key(op)`` for ops differing only in
    ``op[flag]``."""
    groups: dict = {}
    for op in ops:
        if op["id"] in results:
            groups.setdefault(key(op), {})[op[flag]] = results[op["id"]]
    return [(k, g[False], g[True]) for k, g in sorted(groups.items())
            if False in g and True in g]


class PingPongSmall(Workload):
    """IMB PingPong on the two-node testbed, 1 B–32 KiB, I/OAT off and on.

    Below the 64 kB offload threshold the ioat layer must do no work, so
    this is where an offload change must show no change at all.
    """

    name = "pingpong_small"
    prefix = "pp"
    iterations = 10
    warmup = 2

    def make_ops(self, rng):
        sizes = stratified_sizes(rng, 1, 32 * KiB, per_octave=4)
        ops = [{"size": s, "ioat": ioat} for s in sizes for ioat in (False, True)]
        return _finish_ops(rng, self.prefix, ops)

    def config(self, op):
        return (op["ioat"],)

    def run_op(self, op, span, watch=None):
        with span("build"):
            tb = build_testbed(ioat_enabled=op["ioat"])
            comm = create_world(tb, ppn=1)
        if watch is not None:
            watch(tb)
        with span("run"):
            res = run_imb(tb, comm, "PingPong", op["size"],
                          iterations=self.iterations, warmup=self.warmup)
        with span("finish"):
            sim = {"sim_ns": tb.sim.now, "t_avg_us": res.t_avg_us,
                   "mib_s": res.mib_s}
            snap = _host_pair_finish(tb)
        with span("counters"):
            counts = layer_counts(snap)
        return {"sim": sim, "counts": counts,
                "msgs": 2 * (self.iterations + self.warmup)}

    def check_pass(self, ops, results):
        errors = []
        for size, off, on in _pairs(ops, results, lambda o: o["size"], "ioat"):
            if (off["sim"]["sim_ns"], off["sim"]["t_avg_us"]) != \
                    (on["sim"]["sim_ns"], on["sim"]["t_avg_us"]):
                errors.append(f"pingpong {size} B: memcpy and ioat simulated "
                              f"times differ below 64 kB ({off['sim']} vs "
                              f"{on['sim']})")
        return errors

    def byte_sample(self, ops):
        # the largest message of each config: well above the phantom floor
        return [max((o for o in ops if o["ioat"] == ioat),
                    key=lambda o: o["size"]) for ioat in (False, True)]

    def check_bytes(self, op, allocs):
        size = op["size"]
        by_space: dict = {}
        for space, region in allocs:
            if len(region) == size:
                by_space.setdefault(id(space), []).append(region)
        bufs = [regions[:2] for regions in by_space.values()
                if len(regions) >= 2]
        _check(len(bufs) == 2, f"expected send/recv buffers on 2 ranks, "
               f"found {len(bufs)}")
        (s0, r0), (s1, r1) = bufs
        _same_bytes(r1, s0, size, "rank 1")
        _same_bytes(r0, s1, size, "rank 0")


class StreamLarge(Workload):
    """Fig. 9 unidirectional stream, 256 KiB–4 MiB rendezvous messages,
    memcpy/ioat crossed with regcache off/on."""

    name = "stream_large"
    prefix = "st"
    iterations = 3
    warmup = 1

    def make_ops(self, rng):
        # memcpy and ioat share a size (the invariant compares them); each
        # regcache setting draws its own sizes
        ops = [{"size": s, "ioat": ioat, "regcache": reg}
               for reg in (False, True)
               for s in stratified_sizes(rng, 256 * KiB, 4 * MiB, per_octave=4)
               for ioat in (False, True)]
        return _finish_ops(rng, self.prefix, ops)

    def config(self, op):
        return (op["ioat"], op["regcache"])

    def run_op(self, op, span, watch=None):
        with span("build"):
            tb = build_testbed(ioat_enabled=op["ioat"],
                               regcache_enabled=op["regcache"])
        if watch is not None:
            watch(tb)
        with span("run"):
            u = run_stream_usage(tb, op["size"], iterations=self.iterations,
                                 warmup=self.warmup)
        with span("finish"):
            sim = {"sim_ns": tb.sim.now, "mib_s": u.throughput_mib_s,
                   "user_pct": u.user_pct, "driver_pct": u.driver_pct,
                   "bh_pct": u.bh_pct}
            snap = _host_pair_finish(tb)
        with span("counters"):
            counts = layer_counts(snap)
        return {"sim": sim, "counts": counts,
                "msgs": self.iterations + self.warmup}

    def check_pass(self, ops, results):
        errors = []
        key = lambda o: (o["size"], o["regcache"])  # noqa: E731
        for (size, reg), mem, io in _pairs(ops, results, key, "ioat"):
            m, i = mem["sim"], io["sim"]
            m_cpu = m["user_pct"] + m["driver_pct"] + m["bh_pct"]
            i_cpu = i["user_pct"] + i["driver_pct"] + i["bh_pct"]
            if not (i["mib_s"] > m["mib_s"] and i_cpu < m_cpu):
                errors.append(
                    f"stream {size} B regcache={reg}: ioat {i['mib_s']:.1f} "
                    f"MiB/s at {i_cpu:.1f}% does not beat memcpy "
                    f"{m['mib_s']:.1f} MiB/s at {m_cpu:.1f}%")
        return errors

    def byte_sample(self, ops):
        smallest = lambda ioat, reg: min(  # noqa: E731
            (o for o in ops if o["ioat"] == ioat and o["regcache"] == reg),
            key=lambda o: o["size"])
        return [smallest(True, False), smallest(False, True)]

    def check_bytes(self, op, allocs):
        bufs = [region for _space, region in allocs if len(region) == op["size"]]
        _check(len(bufs) >= 2, "stream buffers not found")
        sbuf, rbuf = bufs[:2]
        _same_bytes(rbuf, sbuf, op["size"], "stream receiver")


class FabricCollectives(Workload):
    """Chunk-level fabric collectives: ring allreduces on a 32-host
    ``fat_tree2`` world and alltoalls on a 16-host one, memcpy/ioat cost
    tables, oversubscription 1 and 2."""

    name = "fabric_collectives"
    prefix = "fc"
    # 32 hosts rather than 128: a 128-host ring allreduce costs about 2 s of
    # host CPU, too slow for the 100 ops per run that op_ms_p90 needs.
    # Ring chunks (size / 32) and alltoall blocks stay below 64 kB.
    worlds = {
        # collective: (hosts, hosts_per_edge, algo, size lo, size hi, strata/octave)
        "allreduce": (32, 8, "ring", 64 * KiB, 256 * KiB, 2),
        "alltoall": (16, 4, "auto", 1 * KiB, 32 * KiB, 2),
    }

    def make_ops(self, rng):
        ops = []
        for coll, (hosts, hpe, algo, lo, hi, per_oct) in self.worlds.items():
            ecmp_seed = f"bench-{rng.randrange(1 << 30)}"
            for over in (1.0, 2.0):
                # both cost tables see the same sizes (paired for the ratio)
                for size in stratified_sizes(rng, lo, hi, per_octave=per_oct):
                    for backend in ("memcpy", "ioat"):
                        ops.append({"collective": coll, "hosts": hosts,
                                    "hosts_per_edge": hpe, "algo": algo,
                                    "size": size, "backend": backend,
                                    "oversubscription": over,
                                    "ecmp_seed": ecmp_seed})
        return _finish_ops(rng, self.prefix, ops)

    def config(self, op):
        return (op["collective"], op["backend"], op["oversubscription"])

    def run_op(self, op, span, watch=None):
        with span("build"):
            spec = make_topology("fat_tree2", op["hosts"], op["oversubscription"],
                                 op["hosts_per_edge"], op["ecmp_seed"])
            world = launch_fabric_world(spec, backend=op["backend"])
        with span("run"):
            world.run_spmd(collective_body(op["collective"], op["size"], op["algo"]),
                           max_events=CELL_MAX_EVENTS)
        sim_ns = world.sim.now
        with span("finish"):
            world.finish()
            net = world.net
            sim = {"sim_ns": sim_ns, "msgs_sent": net.msgs_sent,
                   "msgs_delivered": net.msgs_delivered,
                   "chunks_forwarded": net.chunks_forwarded}
            _check(net.msgs_delivered == net.msgs_sent,
                   f"{net.msgs_delivered} of {net.msgs_sent} messages delivered")
            _check(net.msgs_failed == 0 and net.chunks_dropped == 0,
                   f"fault-free op failed {net.msgs_failed} messages, "
                   f"dropped {net.chunks_dropped} chunks")
        with span("counters"):
            counts = layer_counts(net.metrics.snapshot(),
                                  chunks_forwarded=net.chunks_forwarded)
        return {"sim": sim, "counts": counts, "msgs": net.msgs_delivered}


def ioat_sim_time_ratio(ops: list[dict], results: dict) -> float:
    """Simulated time of the fabric's ioat ops over their memcpy twins
    (same collective, size, oversubscription), summed over a pass.

    A model output, not a host-time metric.  The fabric's ioat cost table
    offloads every chunk without applying ``ioat_min_msg`` (64 kB) or
    ``ioat_min_frag`` (1 kB), so on this workload's sub-64 kB messages the
    ratio is not 1; with the thresholds applied it would be.
    """
    times = {"memcpy": 0, "ioat": 0}
    groups: dict = {}
    for op in ops:
        if "backend" in op and op["id"] in results:
            key = (op["collective"], op["size"], op["oversubscription"])
            groups.setdefault(key, {})[op["backend"]] = results[op["id"]]["sim"]["sim_ns"]
    for g in groups.values():
        if len(g) == 2:
            for backend, t in g.items():
                times[backend] += t
    return times["ioat"] / times["memcpy"] if times["memcpy"] else 0.0


#: the fault plans of ``faults.plan.standard_plans`` this workload arms
FAULT_PLANS = ("lossy-data", "lossy-acks", "dup-reorder", "rx-ring-stall",
               "ioat-fail", "ioat-stall")


class LossyTransfers(Workload):
    """Host-pair pingpong and stream fault-campaign cells under seeded
    standard fault plans."""

    name = "lossy_transfers"
    prefix = "lt"
    iters = 2

    def make_ops(self, rng):
        # every (cell, plan) draws its own sizes and every op its own plan
        # seed, so no single draw sets the cost of a whole pass
        ops = [{"cell": cell, "size": size, "plan": plan,
                "plan_seed": str(rng.randrange(1 << 30))}
               for cell in ("pingpong", "stream") for plan in FAULT_PLANS
               for size in stratified_sizes(rng, 1 * KiB, 256 * KiB, per_octave=2)]
        return _finish_ops(rng, self.prefix, ops)

    def config(self, op):
        return (op["cell"], op["plan"])

    def run_op(self, op, span, watch=None):
        with span("build"):
            (plan,) = [p for p in standard_plans(op["plan_seed"])
                       if p.name == op["plan"]]
        with span("run"):
            report = run_cell(op["cell"], op["size"], plan, iters=self.iters)
        with span("finish"):
            outcomes = report["outcomes"]
            _check(outcomes["completed"] == report["messages"],
                   f"outcomes {outcomes}, failures {report['failures']}")
            _check(not report["sanitizer"], f"sanitizer: {report['sanitizer']}")
            sim = {"sim_ns": report["end_time"], "outcomes": outcomes,
                   "injected": report["injected"]}
        with span("counters"):
            counts = layer_counts(report["counters"],
                                  faults_injected=sum(report["injected"].values()))
        return {"sim": sim, "counts": counts, "msgs": outcomes["completed"]}

    def byte_sample(self, ops):
        # run_cell allocates its buffers internally, so this re-run checks
        # only that the simulated results equal the phantom run's
        return [min(ops, key=lambda o: (o["size"], o["id"]))]


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (PingPongSmall(), StreamLarge(), FabricCollectives(),
                        LossyTransfers())
}
