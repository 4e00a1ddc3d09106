"""Canonical traced scenarios shared by the tests and ``omx-repro``.

The fig5/fig6 scenario receives one multi-fragment large message — memcpy
path or I/OAT offload path — with the receiver host's recorder (and the
data direction of the wire) enabled, and returns the populated recorder.
``omx-repro fig56`` renders it as ASCII and, with ``--trace DIR``, writes
it as Perfetto JSON.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.units import KiB

if TYPE_CHECKING:  # pragma: no cover
    from repro.simkernel.tracing import TraceRecorder

#: default message size: 10 large fragments (8 KiB each) = two pull blocks
FIG56_SIZE = 80 * KiB


def run_fig56_scenario(ioat: bool, size: int = FIG56_SIZE,
                       max_spans: Optional[int] = None) -> "TraceRecorder":
    """One traced large-message receive; returns the receiver's recorder."""
    from repro.cluster.testbed import build_testbed

    tb = build_testbed(ioat_enabled=ioat)
    receiver = tb.hosts[1]
    receiver.trace.enabled = True
    if max_spans is not None:
        receiver.trace.set_max_spans(max_spans)
    # The data flows node0 -> node1: give the forward wire direction the
    # receiver's recorder so serialized frames appear on a "wire:" lane.
    tb.link.a_to_b.trace = receiver.trace

    ep0 = tb.open_endpoint(0, 0)
    ep1 = tb.open_endpoint(1, 0)
    core0, core1 = tb.user_core(0), tb.user_core(1)
    sbuf = ep0.space.alloc(size)
    rbuf = ep1.space.alloc(size)
    sbuf.fill_pattern(3)
    done = tb.sim.event()

    def sender():
        req = yield from ep0.isend(core0, ep1.addr, 0x77, sbuf)
        yield from ep0.wait(core0, req)

    def recv():
        req = yield from ep1.irecv(core1, 0x77, ~0, rbuf)
        yield from ep1.wait(core1, req)
        done.succeed()

    tb.sim.process(sender())
    tb.sim.process(recv())
    tb.sim.run_until(done)
    return receiver.trace
