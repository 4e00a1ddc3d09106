"""Soak mode: long seeded fault campaigns with periodic invariant checks.

Where a campaign cell (:mod:`repro.faults.campaign`) fires one fault and
asks "did every transfer terminate?", a soak run chains whole degradation
arcs — I/OAT fail→recover cycles, flapping links, incast bursts — over a
longer horizon and additionally checks *while running* that the stack is
making progress and not accumulating resources:

* a checkpoint daemon wakes every ``checkpoint_interval`` ticks and
  records (non-terminal transfers, outstanding skbuffs, net pins,
  retransmissions, frames moved);
* if nothing moved — no transfer reached a terminal state and no frame
  crossed any NIC — for ``stall_limit`` consecutive checkpoints, the run
  aborts with :class:`LivelockError`.  The reliability layer's timeout
  ladder (dead-letter ≈4 ms, pull abort ≈16 ms, peer-dead 20 ms) turns
  every stuck request terminal well inside that budget, so a trip really
  is a livelock, not patience running out;
* at the end the usual contract holds: zero hung transfers, runtime
  sanitizers clean, and the report — checkpoints included — is a pure
  function of (spec, seed), so running the same seed twice produces
  byte-identical JSON.

The stock suite (:func:`soak_suite`) pairs each plan from
:func:`repro.faults.plan.soak_plans` with the workload that stresses it:
``ioat-flap`` under a large-message stream (pull + offload path, so the
circuit breakers trip and re-open), ``link-flap`` under pingpong
(retransmission and backoff decay), ``incast-burst`` under switched
fan-in (receive backpressure).

The fabric soak (:func:`run_fabric_soak_suite`, DESIGN.md §17) applies the
same discipline at chunk scale: chained flap + degrade + lossy (+ crash-
stop) arcs over a 3-tier fat tree, shrink-capable allreduces as the
workload, and a checkpoint daemon over the fabric's flow counters whose
no-progress trip is the livelock detector.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.faults.campaign import (  # report_json: re-exported, one serializer
    _cell_report,
    _outcome_totals,
    _start_cell,
    _sum_dicts,
    report_json,
)
from repro.faults.plan import FaultPlan, soak_plans
from repro.units import KiB, ms, us

#: simulated-time horizon per soak run; generous — runs end early once
#: every transfer is terminal and the demand-armed daemons disarm
SOAK_DEADLINE = ms(60)

#: event budget (runaway guard, same role as the campaign's)
SOAK_MAX_EVENTS = 60_000_000

#: checkpoint cadence (simulated ticks)
CHECKPOINT_INTERVAL = ms(2)

#: consecutive no-progress checkpoints tolerated before declaring livelock
#: (30 ms of wall-silence vs. a 20 ms worst-case timeout ladder)
STALL_LIMIT = 15


class LivelockError(AssertionError):
    """The soak checkpoint daemon saw no progress for too long."""


@dataclass(frozen=True)
class SoakSpec:
    """One soak run: a workload driven through one chained fault plan."""

    name: str
    workload: str
    size: int
    iters: int
    plan: FaultPlan
    deadline: int = SOAK_DEADLINE
    checkpoint_interval: int = CHECKPOINT_INTERVAL
    stall_limit: int = STALL_LIMIT


def soak_suite(seed: str = "soak", iters: int = 6) -> list[SoakSpec]:
    """The stock soak suite: every plan from the soak library, each under
    the workload built to stress it."""
    plans = {p.name: p for p in soak_plans(seed)}
    return [
        # The stream gets extra iterations so offload traffic is still
        # flowing when the plan's recover legs land — a breaker can only
        # re-open if something asks for the channel afterwards.
        SoakSpec(name="ioat-flap", workload="stream", size=256 * KiB,
                 iters=iters + 4, plan=plans["ioat-flap"]),
        SoakSpec(name="link-flap", workload="pingpong", size=16 * KiB,
                 iters=iters, plan=plans["link-flap"]),
        SoakSpec(name="incast-burst", workload="incast", size=128 * KiB,
                 iters=max(2, iters - 2), plan=plans["incast-burst"]),
    ]


def watch_progress(sim, name: str, interval: int, stall_limit: int,
                   sample) -> list[dict]:
    """Start the soak watchdog (both fidelity levels); returns the list
    its checkpoint records are appended to.

    Every ``interval`` ticks (a bare-int sleep) ``sample()`` returns
    ``(record, progress)``.  A ``progress`` of None means the run is done
    and the daemon exits, so it never keeps the event heap alive past
    quiescence.  After the first checkpoint, ``stall_limit`` consecutive
    checkpoints with an unchanged ``progress`` raise :class:`LivelockError`
    (the simulator surfaces it as the cause of a daemon failure).
    """
    checkpoints: list[dict] = []

    def proc():
        stalled, last = 0, None
        while True:
            yield interval  # bare-int sleep
            record, progress = sample()
            checkpoints.append(record)
            if progress is None:
                return
            if progress == last:
                stalled += 1
                if stalled >= stall_limit:
                    raise LivelockError(
                        f"{name}: no progress across {stalled} checkpoints "
                        f"(last checkpoint: {record})")
            else:
                stalled, last = 0, progress

    sim.daemon(proc(), name=name)
    return checkpoints


def run_soak(spec: SoakSpec, trace: bool = False) -> dict:
    """Run one soak spec to quiescence; returns its JSON-able report.

    The report mirrors a campaign cell's (outcomes / failures / injected /
    counters / sanitizer), plus the checkpoint trail and a ``health``
    section with just the supervision counters (breaker trips and
    re-opens, keepalives, peer deaths, busy signals).
    """
    from repro.core.counters import collect_health

    tb, san, armed, transfers = _start_cell(spec.workload, spec.size,
                                            spec.iters, spec.plan, trace)

    def sample():
        # progress: a transfer reached a terminal state or a frame crossed
        # a NIC
        open_transfers = sum(1 for t in transfers.values()
                             if t.classify()[0] == "hung")
        frames = sum(h.nic.rx_frames + h.nic.tx_frames for h in tb.hosts)
        record = {
            "t": tb.sim.now,
            "nonterminal": open_transfers,
            "skbuffs": sum(h.skb_pool.outstanding for h in tb.hosts),
            "net_pins": sum(
                h.pinner.pin_calls - h.pinner.unpin_calls for h in tb.hosts
            ),
            "frames": frames,
            "breaker_open": sum(h.health.open_channels for h in tb.hosts),
        }
        if open_transfers == 0:
            return record, None
        return record, (frames, len(transfers) - open_transfers)

    checkpoints = watch_progress(tb.sim, f"soak-checkpoint-{spec.name}",
                                 spec.checkpoint_interval, spec.stall_limit,
                                 sample)
    tb.sim.run(until=spec.deadline, max_events=SOAK_MAX_EVENTS)
    return {
        "soak": spec.name,
        "workload": spec.workload,
        "size": spec.size,
        "iters": spec.iters,
        "checkpoints": checkpoints,
        "health": _sum_dicts(collect_health(stack) for stack in tb.stacks),
        **_cell_report(tb, san, armed, transfers, trace),
    }


def run_soak_suite(seed: str = "soak", iters: int = 6,
                   deadline: int = SOAK_DEADLINE,
                   fabric: bool = True, trace: bool = False) -> dict:
    """Run the whole stock suite under one seed; aggregates like a
    campaign report.  Byte-identical per seed (sorted-keys JSON).

    With ``fabric`` (the default) the chunk-level fabric soak suite
    (:func:`run_fabric_soak_suite`) rides along as a separate ``"fabric"``
    section — same seed, same determinism contract.  ``trace`` is passed
    to every host-pair :func:`run_soak`.
    """
    runs = [run_soak(replace(spec, deadline=deadline), trace=trace)
            for spec in soak_suite(seed, iters=iters)]
    out = {
        "seed": seed,
        "iters": iters,
        "runs": runs,
        "totals": _outcome_totals(runs),
        "sanitizer_dirty_runs": [r["soak"] for r in runs if r["sanitizer"]],
    }
    if fabric:
        out["fabric"] = run_fabric_soak_suite(seed)
    return out


# ---------------------------------------------------------------------------
# fabric soak: gray churn over a 3-tier fat tree (DESIGN.md §17)
# ---------------------------------------------------------------------------

#: checkpoint cadence of the fabric soak (simulated ticks); fabric runs
#: resolve in hundreds of microseconds, not milliseconds
FABRIC_CHECKPOINT_INTERVAL = us(25)

#: consecutive no-progress checkpoints before declaring a fabric livelock
FABRIC_STALL_LIMIT = 20

#: event budget per fabric soak run
FABRIC_SOAK_MAX_EVENTS = 20_000_000


@dataclass(frozen=True)
class FabricSoakSpec:
    """One fabric soak run: repeated shrink-capable allreduces through a
    chained gray-failure plan over a multi-path topology."""

    name: str
    plan: FaultPlan
    topology: str = "fat_tree3"
    hosts: int = 16
    size: int = 32 * KiB
    rounds: int = 4
    oversubscription: float = 2.0
    checkpoint_interval: int = FABRIC_CHECKPOINT_INTERVAL
    stall_limit: int = FABRIC_STALL_LIMIT
    max_events: int = FABRIC_SOAK_MAX_EVENTS


def fabric_soak_suite(seed: str = "soak") -> list[FabricSoakSpec]:
    """The fabric soak library: chained gray arcs over a 3-tier fat tree.

    ``gray-churn`` chains a flapping trunk, a bandwidth-degraded trunk and
    a lossy trunk — the health layer must demote, suppress the flap, and
    retry chunk losses, all at once.  ``gray-crash`` adds a crash-stopped
    rank mid-run, so the shrink-and-retry ring recovers *while* the route
    tables are churning.  Link choices are sorted-first over the spec's
    trunks, so each plan is a pure function of (topology, seed).
    """
    from repro.fabric.sweep import make_topology
    from repro.faults.plan import (
        FabricDegradeSpec,
        FabricFlapSpec,
        FabricLossySpec,
        RankFaultSpec,
    )

    spec = make_topology("fat_tree3", 16, 2.0, 4, ecmp_seed=seed)
    trunks = sorted(l.name for l in spec.trunk_links())
    gray = dict(
        flap=(FabricFlapSpec(link=trunks[0], at=us(20), period=us(200),
                             duty=0.5, cycles=5),),
        degrade=(FabricDegradeSpec(link=trunks[1], at=us(40), bw_factor=0.2,
                                   until=us(700)),),
        lossy=(FabricLossySpec(link=trunks[2], drop_rate=0.1, at=us(10),
                               until=us(800)),),
    )
    return [
        FabricSoakSpec(name="gray-churn",
                       plan=FaultPlan(name="gray-churn", seed=seed, **gray)),
        FabricSoakSpec(name="gray-crash",
                       plan=FaultPlan(name="gray-crash", seed=seed,
                                      ranks=(RankFaultSpec(rank=2,
                                                           at=us(120)),),
                                      **gray)),
    ]


def run_fabric_soak(spec: FabricSoakSpec) -> dict:
    """Run one fabric soak to quiescence; returns its JSON-able report.

    The workload is ``rounds`` back-to-back shrink-capable allreduces
    (:func:`~repro.fabric.resilience.resilient_allreduce`), so a
    crash-stop mid-arc shrinks the ring and the remaining rounds run over
    the survivors.  Byte-identical per seed.
    """
    from repro.fabric.resilience import resilient_allreduce
    from repro.fabric.sweep import fabric_world, health_sections, net_stats

    world, armed = fabric_world(spec.topology, spec.hosts,
                                spec.oversubscription, 4,
                                ecmp_seed=spec.plan.seed,
                                plan=lambda _topo: spec.plan,
                                backend="memcpy")
    net = world.net
    state = {"open_bodies": world.size}

    def sample():
        # Progress means a message reached a terminal state (delivered or
        # failed) or a chunk moved (forwarded or retried).  The resilience
        # layer's drain argument (declaration waves, retry caps, breaker
        # hold-downs) bounds every stall well under ``stall_limit``
        # checkpoints.  Done once every surviving body finished and the
        # network quiesced.
        open_msgs = net.msgs_sent - net.msgs_delivered - net.msgs_failed
        terminal = net.msgs_delivered + net.msgs_failed
        res = net.resilience
        record = {
            "t": world.sim.now,
            "open_msgs": open_msgs,
            "terminal": terminal,
            "forwarded": net.chunks_forwarded,
            "retried": net.chunks_retried,
            "rerouted": net.chunks_rerouted,
            "reroutes": res.reroutes if res is not None else 0,
            "flaps_suppressed": (res.flaps_suppressed
                                 if res is not None else 0),
            "dead_ranks": len(world.dead),
        }
        if state["open_bodies"] <= len(world.dead) and open_msgs == 0:
            return record, None
        return record, (terminal, net.chunks_forwarded + net.chunks_retried)

    checkpoints = watch_progress(world.sim,
                                 f"fabric-soak-checkpoint-{spec.name}",
                                 spec.checkpoint_interval, spec.stall_limit,
                                 sample)

    def body(rank):
        for _ in range(spec.rounds):
            sendbuf = rank.space.alloc(spec.size)
            recvbuf = rank.space.alloc(spec.size)
            yield from resilient_allreduce(rank, sendbuf, recvbuf)
        state["open_bodies"] -= 1

    sanitizer: list[str] = []
    world.run_spmd(body, max_events=spec.max_events)
    try:
        world.finish()
    except AssertionError as exc:
        sanitizer.append(str(exc))
    return {
        "soak": spec.name,
        "topology": world.spec.name,
        "hosts": world.size,
        "size": spec.size,
        "rounds": spec.rounds,
        "plan": spec.plan.name,
        "seed": spec.plan.seed,
        "survivors": world.survivors(),
        "dead_ranks": sorted(world.dead),
        "epoch": world.epoch,
        "stale_drained": world.stale_drained,
        "injected": armed.counters(),
        "checkpoints": checkpoints,
        "net": net_stats(world),
        "sanitizer": sanitizer,
        "end_time": world.sim.now,
        **health_sections(world),
    }


def run_fabric_soak_suite(seed: str = "soak") -> dict:
    """Run the fabric soak library under one seed; byte-identical JSON."""
    runs = [run_fabric_soak(spec) for spec in fabric_soak_suite(seed)]
    return {
        "seed": seed,
        "runs": runs,
        "sanitizer_dirty_runs": [r["soak"] for r in runs if r["sanitizer"]],
    }
