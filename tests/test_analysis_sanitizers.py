"""Runtime sanitizer tests: seeded leaks are caught, real runs are clean.

The property test at the bottom is the satellite the ISSUE asks for: after
*any* random send/receive schedule, the skbuff pool and every channel's
pending-cookie count return to zero.
"""

import traceback
from pathlib import Path

import pytest

from repro import build_testbed
from repro.analysis.sanitizers import (
    _SITE_DEPTH, Sanitizer, SanitizerError, _capture_site,
)
from repro.units import KiB, MiB

from tests.test_omx_endtoend import pingpong_once


def watched_testbed(**overrides):
    tb = build_testbed(**overrides)
    san = Sanitizer()
    san.watch_testbed(tb)
    return tb, san


# ---------------------------------------------------------------------------
# seeded leaks: each sanitizer check fires, with an acquire-site backtrace
# ---------------------------------------------------------------------------


def test_catches_leaked_skbuff():
    tb, san = watched_testbed()
    tb.hosts[0].skb_pool.alloc_rx()  # dropped on the floor
    tb.sim.run()
    with pytest.raises(SanitizerError) as exc:
        san.assert_clean()
    (v,) = exc.value.violations
    assert v.kind == "skbuff-leak"
    assert "1 leaked" in v.message
    assert v.sites and v.sites[0].startswith("skbuff.py:")
    assert " in alloc_rx <- " in v.sites[0]


def test_catches_unpolled_dma_cookie():
    tb, san = watched_testbed(ioat_enabled=True)
    host = tb.hosts[0]
    src = host.kernel_space.alloc_pages(1)
    dst = host.kernel_space.alloc_pages(1)
    core = tb.user_core(0)

    def submit_and_forget():
        yield from host.ioat.submit_copy(core, src, 0, dst, 0, 4096, "test")

    tb.sim.process(submit_and_forget())
    tb.sim.run()
    with pytest.raises(SanitizerError) as exc:
        san.assert_clean()
    (v,) = exc.value.violations
    assert v.kind == "dma-cookie"
    assert "never observed via poll()" in v.message


def test_catches_leaked_pin():
    tb, san = watched_testbed()
    host = tb.hosts[0]
    region = host.kernel_space.alloc_pages(2)
    core = tb.user_core(0)

    def pin_and_forget():
        yield from host.pinner.pin(core, region)

    tb.sim.process(pin_and_forget())
    tb.sim.run()
    with pytest.raises(SanitizerError) as exc:
        san.assert_clean()
    (v,) = exc.value.violations
    assert v.kind == "pin-leak"
    assert "2 page(s)" in v.message


def test_strict_flags_undrained_heap():
    tb, san = watched_testbed()

    def never_run():
        yield tb.sim.timeout(1_000)

    tb.sim.process(never_run())  # schedules work that is never executed
    assert san.check() == []
    kinds = {v.kind for v in san.check(strict=True)}
    assert "pending-events" in kinds


def test_teardown_check_runs_via_simulator_finish():
    tb, san = watched_testbed()
    tb.hosts[0].skb_pool.alloc_rx()
    tb.sim.run()
    with pytest.raises(SanitizerError):
        tb.sim.finish()


def test_poll_retires_completed_cookies_only():
    """A mid-way poll retires the completed prefix and keeps the rest."""
    tb, san = watched_testbed(ioat_enabled=True)
    host = tb.hosts[0]
    channel = host.ioat_engine.channels[0]
    pairs = [(host.kernel_space.alloc_pages(1), host.kernel_space.alloc_pages(1))
             for _ in range(5)]
    core = tb.user_core(0)
    seen = {}

    def submit_then_poll_midway():
        cookies = []
        for src, dst in pairs:
            cookie = yield from host.ioat.submit_copy(core, src, 0, dst, 0,
                                                      4096, "test", channel)
            cookies.append(cookie)
        seen["submitted"] = san.pending_cookie_count(channel)
        # read the ring directly (no poll) until two copies have finished
        while (channel.ring.last_completed_cookie()  # noqa: OFF001 (must not poll)
               < cookies[1].last_cookie):
            yield tb.sim.timeout(50)
        seen["done"] = channel.poll()
        seen["pending"] = san.pending_cookie_count(channel)
        yield from host.ioat.busy_wait(core, cookies[-1], "test")

    tb.sim.process(submit_then_poll_midway())
    tb.sim.run()
    assert seen["submitted"] == 5
    assert 1 <= seen["done"] < 4
    assert seen["pending"] == 5 - (seen["done"] + 1)
    assert san.pending_cookie_count(channel) == 0
    san.assert_clean()


# ---------------------------------------------------------------------------
# acquire-site strings: the frame walk matches the traceback form exactly
# ---------------------------------------------------------------------------


def _oracle_site() -> str:
    """The original ``traceback.extract_stack`` form of ``_capture_site``.

    Frames of files named ``*sanitizers*`` are skipped, which includes this
    test module's own frames.
    """
    stack = traceback.extract_stack()
    frames = [
        f for f in stack
        if "sanitizers" not in Path(f.filename).name
    ][-_SITE_DEPTH:]
    return " <- ".join(
        f"{Path(f.filename).name}:{f.lineno} in {f.name}" for f in reversed(frames)
    )


class _SiteProbe(Sanitizer):
    """Records ``(oracle, capture)`` site pairs at every acquire."""

    def __init__(self):
        super().__init__()
        self.pairs = {}

    def _probe(self, kind):
        self.pairs.setdefault(kind, []).append((_oracle_site(), _capture_site()))

    def on_skb_alloc(self, pool, skb):
        self._probe("skb")
        super().on_skb_alloc(pool, skb)

    def on_dma_submit(self, channel, cookie, desc):
        self._probe("dma")
        super().on_dma_submit(channel, cookie, desc)

    def on_pin(self, pinner, pinned):
        self._probe("pin")
        super().on_pin(pinner, pinned)


def test_capture_site_matches_extract_stack_oracle():
    tb = build_testbed(ioat_enabled=True)
    san = _SiteProbe()
    san.watch_testbed(tb)
    host = tb.hosts[0]
    rx = host.skb_pool.alloc_rx()
    tx = host.skb_pool.alloc_tx()
    src = host.kernel_space.alloc_pages(1)
    dst = host.kernel_space.alloc_pages(1)
    region = host.kernel_space.alloc_pages(2)
    core = tb.user_core(0)

    def copy_and_pin():
        cookie = yield from host.ioat.submit_copy(core, src, 0, dst, 0,
                                                  4096, "test")
        yield from host.ioat.busy_wait(core, cookie, "test")
        pinned = yield from host.pinner.pin(core, region)
        yield from host.pinner.unpin(core, pinned)

    tb.sim.process(copy_and_pin())
    tb.sim.run()
    rx.free()
    tx.free()
    san.assert_clean()
    assert set(san.pairs) == {"skb", "dma", "pin"}
    assert len(san.pairs["skb"]) == 2
    for kind, pairs in san.pairs.items():
        for oracle, site in pairs:
            assert site == oracle, kind
            assert site.count(" <- ") == _SITE_DEPTH - 1
    (rx_site, _), (tx_site, _) = san.pairs["skb"]
    assert " in alloc_rx <- " in rx_site
    assert " in alloc_tx <- " in tx_site
    # the site names the acquiring call, never a sanitizer frame
    assert "sanitizers" not in "".join(site for p in san.pairs.values()
                                       for _, site in p)


# ---------------------------------------------------------------------------
# real traffic is clean (memcpy and I/OAT paths)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("ioat", [False, True])
def test_clean_after_large_transfer(ioat):
    tb, san = watched_testbed(ioat_enabled=ioat)
    pingpong_once(tb, 1 * MiB)
    tb.sim.run()
    san.assert_clean()


@pytest.mark.sanitize
def test_sanitize_marker_wires_up_automatically():
    """The pytest plugin watches testbeds built inside marked tests."""
    tb = build_testbed(ioat_enabled=True)
    sent, got, _ = pingpong_once(tb, 256 * KiB)
    assert got == sent
    # teardown (plugin fixture) quiesces and asserts cleanliness


# ---------------------------------------------------------------------------
# endpoint close (satellite): no stranded skbuffs/cookies/pins
# ---------------------------------------------------------------------------


def test_close_mid_pull_releases_receiver_resources():
    """Closing the receiving endpoint mid-pull must run OffloadManager
    cleanup: no offload-parked skbuff, cookie, or posted pin survives."""
    tb = build_testbed(ioat_enabled=True)
    san = Sanitizer()
    san.watch_host(tb.hosts[1])  # the receiver; the jilted sender is not
    san.watch_simulator(tb.sim)  # expected to complete its large send
    ep0 = tb.open_endpoint(0, 0)
    ep1 = tb.open_endpoint(1, 0)
    core0, core1 = tb.user_core(0), tb.user_core(1)
    size = 2 * MiB
    sbuf = ep0.space.alloc(size)
    rbuf = ep1.space.alloc(size, fill=0)
    sbuf.fill_pattern(9)

    def sender():
        yield from ep0.isend(core0, ep1.addr, 0x1, sbuf, 0, size)

    def receiver():
        req = yield from ep1.irecv(core1, 0x1, ~0, rbuf, 0, size)
        # wait() progresses the rendezvous into a pull; it never completes
        # (we close the endpoint underneath it) and blocks passively
        yield from ep1.wait(core1, req)

    tb.sim.process(sender())
    tb.sim.process(receiver())
    tb.sim.run(until=800_000)  # rendezvous done, pull in flight
    driver = tb.stacks[1].driver
    assert driver._pulls, "test expects the pull to be mid-flight"

    def closer():
        yield from ep1.close(core1)

    tb.sim.process(closer())
    tb.sim.run(max_events=10_000_000)  # drain (sender gives up retrying)
    assert not driver._pulls
    assert ep1.addr.endpoint not in driver.endpoints
    san.assert_clean()


def test_close_after_completion_is_clean():
    tb, san = watched_testbed(ioat_enabled=True)
    tb2_done = pingpong_once(tb, 1 * MiB)
    assert tb2_done[0] == tb2_done[1]
    core0, core1 = tb.user_core(0), tb.user_core(1)
    ep0 = next(iter(tb.stacks[0].driver.endpoints.values()))
    ep1 = next(iter(tb.stacks[1].driver.endpoints.values()))

    def closer():
        yield from ep0.close(core0)
        yield from ep1.close(core1)

    tb.sim.process(closer())
    tb.sim.run()
    assert not tb.stacks[0].driver.endpoints
    assert not tb.stacks[1].driver.endpoints
    san.assert_clean()


# ---------------------------------------------------------------------------
# property test: any random schedule returns every resource (satellite)
# ---------------------------------------------------------------------------

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

#: spans tiny/small/medium/large and both copy paths
_SIZES = [64, 4 * KiB, 30 * KiB, 100 * KiB, 300 * KiB]

schedules = st.lists(
    st.tuples(
        st.sampled_from(_SIZES),      # message size
        st.booleans(),                # direction: node0->node1 or reverse
        st.integers(0, 200_000),      # sender start delay (ns)
    ),
    min_size=1, max_size=4,
)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(schedule=schedules, ioat=st.booleans())
def test_random_schedules_return_all_resources(schedule, ioat):
    tb = build_testbed(ioat_enabled=ioat)
    san = Sanitizer()
    san.watch_testbed(tb)
    eps = (tb.open_endpoint(0, 0), tb.open_endpoint(1, 0))
    cores = (tb.user_core(0), tb.user_core(1))
    bufs = []
    done = []

    for i, (size, reverse, delay) in enumerate(schedule):
        s, r = (1, 0) if reverse else (0, 1)
        sbuf = eps[s].space.alloc(size)
        rbuf = eps[r].space.alloc(size, fill=0)
        sbuf.fill_pattern(i + 1)
        bufs.append((sbuf, rbuf, size))
        ev = tb.sim.event(f"xfer{i}")
        done.append(ev)

        def sender(s=s, r=r, sbuf=sbuf, size=size, match=i, delay=delay):
            yield tb.sim.timeout(delay)
            req = yield from eps[s].isend(cores[s], eps[r].addr, match, sbuf, 0, size)
            yield from eps[s].wait(cores[s], req)

        def receiver(r=r, rbuf=rbuf, size=size, match=i, ev=ev):
            req = yield from eps[r].irecv(cores[r], match, ~0, rbuf, 0, size)
            yield from eps[r].wait(cores[r], req)
            ev.succeed()

        tb.sim.process(sender())
        tb.sim.process(receiver())

    for ev in done:
        tb.sim.run_until(ev, max_events=20_000_000)
    tb.sim.run(max_events=20_000_000)  # quiesce: acks, timers, channels

    for sbuf, rbuf, size in bufs:
        assert bytes(rbuf.read(0, size)) == bytes(sbuf.read(0, size))
    for host in tb.hosts:
        ring = len(host.nic._rx_ring)
        assert host.skb_pool.outstanding == ring
        for channel in host.ioat_engine.channels:
            assert san.pending_cookie_count(channel) == 0
    san.assert_clean()
