"""Campaign cells and matrices: workloads × message sizes × fault plans.

One *cell* builds a fresh testbed, arms one fault plan, drives one
workload through the full stack, runs the simulator to quiescence and
classifies every message pair:

* ``completed`` — the receive request finished without error;
* ``failed`` — a typed :class:`~repro.core.errors.TransferError` surfaced
  on either side (dead-lettered send, aborted pull, remote abort);
* ``hung`` — neither, by the deadline.  A hung pair is the bug class this
  whole layer exists to catch: the contract is that it never happens.

Classification reads the request objects directly after the run instead
of trusting workload processes to report — a receiver blocked on a
never-delivered message must not be able to hide the completion state of
its neighbours.

Cells are executed through the :class:`~repro.reporting.sweeps.SweepExecutor`
("fault_cell" point kind), so they memoize, fan out over processes, and run
in phantom-payload mode.  Reports exclude wall-clock fields; everything
left is a pure function of (workload, size, plan, seed) and the simulator
— the determinism the campaign test asserts bit-for-bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from repro.faults.injectors import arm_plan
from repro.faults.plan import QUICK_SIZES, FaultPlan, standard_plans
from repro.units import ms, us

#: per-cell simulated-time deadline: long enough for 8 retransmit rounds
#: (dead-lettering takes MAX_RETRIES x 500 us) on every message, with slack
CELL_DEADLINE = ms(60)

#: per-cell event budget (runaway guard; a healthy cell uses far less)
CELL_MAX_EVENTS = 30_000_000

#: incast fan-in degree (1 receiver + INCAST_SENDERS senders)
INCAST_SENDERS = 3


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class _Transfer:
    """One tracked message pair: the send request and its receive request."""

    def __init__(self):
        self.send_req = None
        self.recv_req = None

    def classify(self) -> tuple[str, Optional[str]]:
        """(outcome, error name) — see the module docstring."""
        recv, send = self.recv_req, self.send_req
        if recv is not None and recv.done and recv.error is None:
            return "completed", None
        for req in (recv, send):
            if req is not None and req.error is not None:
                return "failed", type(req.error).__name__
        return "hung", None


def _match(sender: int, index: int) -> int:
    """Unique match info per (sender node, message index)."""
    return (sender << 16) | index


def _irecvs(ep, core, src, node, size, iters, transfers):
    """Post the ``iters`` receives expected from ``src`` (one buffer each)."""
    for i in range(iters):
        buf = ep.space.alloc(max(size, 1))
        req = yield from ep.irecv(core, _match(src, i), ~0, buf, 0, size)
        transfers[f"{src}->{node}#{i}"].recv_req = req


def _post_recvs(tb, ep, node, core, senders, size, iters, transfers):
    """Post every expected receive up front (one buffer per message)."""

    def proc():
        for src in senders:
            yield from _irecvs(ep, core, src, node, size, iters, transfers)
        # Drive the library until the simulation ends; blocked waits still
        # progress every other request (wait() drains the event queue).
        for t in transfers.values():
            if t.recv_req is not None:
                yield from ep.wait(core, t.recv_req)

    # Daemons re-raise: a workload coding error must fail the cell loudly,
    # not masquerade as a hung transfer.
    tb.sim.daemon(proc(), name=f"faults-recv-n{node}")


def _run_senders(tb, ep, node, core, dst_node, dst_addr, size, iters, transfers):
    def proc():
        buf = ep.space.alloc(max(size, 1))
        for i in range(iters):
            req = yield from ep.isend(
                core, dst_addr, _match(node, i), buf, 0, size
            )
            transfers[f"{node}->{dst_node}#{i}"].send_req = req
            yield from ep.wait(core, req)

    tb.sim.daemon(proc(), name=f"faults-send-n{node}")


def _workload_stream(tb, size: int, iters: int) -> dict[str, _Transfer]:
    """Unidirectional stream: node0 sends ``iters`` messages to node1."""
    ep0, ep1 = tb.open_endpoint(0, 0), tb.open_endpoint(1, 0)
    transfers = {f"0->1#{i}": _Transfer() for i in range(iters)}
    _post_recvs(tb, ep1, 1, tb.user_core(1), [0], size, iters, transfers)
    _run_senders(tb, ep0, 0, tb.user_core(0), 1, ep1.addr, size, iters,
                 transfers)
    return transfers


def _workload_pingpong(tb, size: int, iters: int) -> dict[str, _Transfer]:
    """Request/response rounds: node0 pings, node1 pongs, ``iters`` times."""
    from repro.simkernel.sync import Signal

    ep0, ep1 = tb.open_endpoint(0, 0), tb.open_endpoint(1, 0)
    core0, core1 = tb.user_core(0), tb.user_core(1)
    transfers = {}
    for i in range(iters):
        transfers[f"0->1#{i}"] = _Transfer()
        transfers[f"1->0#{i}"] = _Transfer()

    # Both directions' receives are posted before either side sends, so a
    # dead-lettered message can never strand its successors unmatched.
    posted = {"count": 0}
    ready = Signal(tb.sim, name="pingpong-ready")

    def barrier():
        posted["count"] += 1
        ready.fire()
        while posted["count"] < 2:
            yield ready.wait()

    def side(me, peer, ep, core, peer_addr):
        # node0 pings (send, then await the reply); node1 pongs
        buf = ep.space.alloc(max(size, 1))
        yield from _irecvs(ep, core, peer, me, size, iters, transfers)
        yield from barrier()
        for i in range(iters):
            reply = transfers[f"{peer}->{me}#{i}"]
            if me == 1:
                yield from ep.wait(core, reply.recv_req)
            req = yield from ep.isend(core, peer_addr, _match(me, i), buf, 0, size)
            transfers[f"{me}->{peer}#{i}"].send_req = req
            yield from ep.wait(core, req)
            if me == 0:
                yield from ep.wait(core, reply.recv_req)

    tb.sim.daemon(side(0, 1, ep0, core0, ep1.addr), name="faults-pingpong-n0")
    tb.sim.daemon(side(1, 0, ep1, core1, ep0.addr), name="faults-pingpong-n1")
    return transfers


def _workload_incast(tb, size: int, iters: int) -> dict[str, _Transfer]:
    """Fan-in: every other node streams to node0 through the switch."""
    n = INCAST_SENDERS + 1
    ep0 = tb.open_endpoint(0, 0)
    transfers = {f"{src}->0#{i}": _Transfer()
                 for src in range(1, n) for i in range(iters)}
    _post_recvs(tb, ep0, 0, tb.user_core(0), list(range(1, n)), size, iters,
                transfers)
    for src in range(1, n):
        ep = tb.open_endpoint(src, 0)
        _run_senders(tb, ep, src, tb.user_core(src), 0, ep0.addr, size, iters,
                     transfers)
    return transfers


#: the single workload table: name -> builder ``(tb, size, iters) -> transfers``
#: (campaign cells, soak runs and the race corpus all dispatch through it)
WORKLOADS = {
    "pingpong": _workload_pingpong,
    "stream": _workload_stream,
    "incast": _workload_incast,
}


def _build_testbed(workload: str):
    from repro.cluster.testbed import build_testbed
    from repro.ethernet.switch import build_switched_testbed

    if workload == "incast":
        return build_switched_testbed(INCAST_SENDERS + 1, ioat_enabled=True)
    return build_testbed(ioat_enabled=True)


# ---------------------------------------------------------------------------
# one cell
# ---------------------------------------------------------------------------


#: ring-buffer cap for campaign traces: a faulty cell can retransmit for
#: the full 60 ms deadline, so recorders are always bounded here
TRACE_MAX_SPANS = 4096


def _start_cell(workload: str, size: int, iters: int, plan: FaultPlan,
                trace: bool = False):
    """Campaign/soak setup; returns ``(tb, sanitizer, armed, transfers)``.
    The order (testbed, traces, sanitizer, plan, workload) is part of the
    determinism contract: event counts depend on it."""
    from repro.analysis.sanitizers import Sanitizer

    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    tb = _build_testbed(workload)
    if trace:
        for host in tb.hosts:
            host.trace.enabled = True
            host.trace.set_max_spans(TRACE_MAX_SPANS)
    san = Sanitizer()
    for host in tb.hosts:
        san.watch_host(host)
    armed = arm_plan(tb, plan)
    return tb, san, armed, WORKLOADS[workload](tb, size, iters)


def _cell_report(tb, san, armed, transfers, trace: bool = False) -> dict:
    """The report fields campaign cells and soak runs share: outcome
    tally, injected faults, summed stack counters, sanitizer verdict."""
    from repro.core.counters import collect_counters

    outcomes = {"completed": 0, "failed": 0, "hung": 0}
    failures: dict[str, int] = {}
    hung_keys = []
    for key in sorted(transfers):
        outcome, err = transfers[key].classify()
        outcomes[outcome] += 1
        if err is not None:
            failures[err] = failures.get(err, 0) + 1
        if outcome == "hung":
            hung_keys.append(key)
    counters = _sum_dicts(collect_counters(stack) for stack in tb.stacks)
    # Wall-clock is the one nondeterministic counter; reports must be a
    # pure function of the cell identity.
    counters.pop("sim_wall_ms", None)
    report = {
        "plan": armed.plan.name,
        "seed": armed.plan.seed,
        "messages": len(transfers),
        "outcomes": outcomes,
        "failures": failures,
        "hung_keys": hung_keys,
        "injected": armed.counters(),
        "counters": counters,
        "sanitizer": [v.format() for v in san.check()],
        "end_time": tb.sim.now,
    }
    if trace:
        from repro.obs.trace import export_trace_events

        report["trace_events"] = export_trace_events(
            [(host.name, host.trace) for host in tb.hosts]
        )
    return report


def _sum_dicts(dicts) -> dict[str, int]:
    """Counter dicts summed key by key (keys in first-seen order)."""
    total: dict[str, int] = {}
    for counts in dicts:
        for key, val in counts.items():
            total[key] = total.get(key, 0) + val
    return total


def _outcome_totals(reports) -> dict[str, int]:
    """Campaign cells' or soak runs' outcomes summed over the matrix."""
    return {key: sum(r["outcomes"][key] for r in reports)
            for key in ("completed", "failed", "hung")}


def run_cell(workload: str, size: int, plan: FaultPlan,
             iters: int = 3, trace: bool = False) -> dict:
    """Run one (workload, size, plan) cell; returns its JSON-able report.

    With ``trace=True`` every host records a bounded span timeline and the
    report gains a ``trace_events`` document (Perfetto JSON, one process
    group per host) — faults and retransmits show up as instant events.
    """
    tb, san, armed, transfers = _start_cell(workload, size, iters, plan,
                                            trace)
    tb.sim.run(until=CELL_DEADLINE, max_events=CELL_MAX_EVENTS)
    report = {"workload": workload, "size": size,
              **_cell_report(tb, san, armed, transfers, trace)}
    if getattr(tb, "switch", None) is not None:
        report["counters"]["switch_dropped"] = tb.switch.dropped
        report["counters"]["switch_forwarded"] = tb.switch.forwarded
    return report


def point_fault_cell(workload: str, size: int, plan: dict, iters: int,
                     trace: bool = False) -> dict:
    """Sweep-executor entry: plans travel as dicts (JSON-serializable)."""
    return run_cell(workload, size, FaultPlan.from_dict(plan), iters=iters,
                    trace=trace)


# ---------------------------------------------------------------------------
# the matrix
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CampaignSpec:
    """A campaign matrix: the cross product, minus incompatible cells.

    Plans that fault the switch only apply to switched workloads (incast);
    the skip is recorded in the report rather than silently absorbed.
    """

    workloads: tuple = tuple(WORKLOADS)
    sizes: tuple = QUICK_SIZES
    plans: tuple = field(default_factory=tuple)
    iters: int = 3
    seed: str = "campaign"

    def cells(self) -> tuple[list[tuple[str, int, FaultPlan]], list[str]]:
        plans = self.plans or tuple(standard_plans(self.seed))
        wanted, skipped = [], []
        for workload in self.workloads:
            for size in self.sizes:
                for plan in plans:
                    if plan.switches and workload != "incast":
                        skipped.append(f"{workload}/{size}/{plan.name}")
                        continue
                    wanted.append((workload, size, plan))
        return wanted, skipped


def quick_campaign_spec(seed: str = "campaign") -> CampaignSpec:
    """The tier-1 matrix: 3 workloads x 2 sizes x 4 plans (+switch cell).

    Small enough to run in seconds under phantom payloads, wide enough to
    cross every fault layer with every protocol regime (multi-fragment
    eager and rendezvous/pull).
    """
    plans = {p.name: p for p in standard_plans(seed)}
    from repro.faults.plan import SwitchFaultSpec

    egress = FaultPlan(
        name="egress-burst", seed=seed,
        switches=(SwitchFaultSpec(port=0, windows=((us(50), us(120)),)),),
    )
    return CampaignSpec(
        workloads=tuple(WORKLOADS),
        sizes=(16 * 1024, 256 * 1024),
        plans=(plans["clean"], plans["lossy-data"], plans["lossy-acks"],
               plans["ioat-fail"], egress),
        iters=3,
        seed=seed,
    )


def run_campaign(spec: CampaignSpec, executor=None, trace: bool = False) -> dict:
    """Execute a campaign matrix; returns the aggregated report.

    ``trace=True`` adds a bounded Perfetto timeline to every cell (see
    :func:`run_cell`); the parameter is only put on the point when set, so
    traceless campaigns keep their historical cache keys.
    """
    from repro.reporting.sweeps import SweepExecutor, point

    cells, skipped = spec.cells()
    if executor is None:
        executor = SweepExecutor()
    extra = {"trace": True} if trace else {}
    points = [
        point("fault_cell", workload=w, size=s, plan=p.to_dict(),
              iters=spec.iters, **extra)
        for (w, s, p) in cells
    ]
    results = executor.run(points)

    def total(counter: str) -> int:
        return sum(cell["counters"].get(counter, 0) for cell in results)

    return {
        "spec": {
            "workloads": list(spec.workloads),
            "sizes": list(spec.sizes),
            "plans": [p.name for p in (spec.plans or standard_plans(spec.seed))],
            "iters": spec.iters,
            "seed": spec.seed,
        },
        "cells": results,
        "skipped_cells": skipped,
        "totals": _outcome_totals(results),
        "injected": _sum_dicts(cell["injected"] for cell in results),
        "retransmissions": total("retransmissions"),
        "dead_letters": total("dead_letters"),
        "fallback_copies": total("offload_fallback_copies"),
        "sanitizer_dirty_cells": [
            f'{cell["workload"]}/{cell["size"]}/{cell["plan"]}'
            for cell in results if cell["sanitizer"]
        ],
    }


def report_json(report: dict) -> str:
    """Canonical byte-stable serialization (the determinism contract)."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def write_report(report: dict, path) -> Path:
    """Write a report as :func:`report_json` (campaign, soak and fabric
    sweep artifacts all go through here)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(report_json(report))
    return path
