"""Event-kernel fast paths: timer wheel, now-queue, and cancellation.

The scheduler keeps three containers (now-queue, timer wheel, binary heap)
that must be observationally identical to the single seq-keyed heap they
replaced, and one drain loop shared by FIFO and keyed (tie-break policy)
mode.  These tests pin the contract from the outside: cancellation
semantics, far-horizon spill ordering, batched same-tick dispatch, and a
hypothesis differential of every mode — driven by ``run()``,
``run(until=U)`` and ``run_until(ev)`` — against a test-local reference
heap that shares no code with the kernel.
"""

import heapq

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.simkernel import SimulationError, Simulator
from repro.simkernel.scheduler import _WHEEL_SHIFT, _WHEEL_SLOTS, TimerHandle
from repro.simkernel.tiebreak import FifoTieBreak, SeededShuffleTieBreak

#: one wheel rotation in ticks; anything scheduled at least this far ahead
#: of ``now`` must spill to the binary heap
HORIZON = _WHEEL_SLOTS << _WHEEL_SHIFT


class TestTimerHandleCancellation:
    def test_cancel_before_fire_suppresses_the_action(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(100, fired.append, "never")
        sim.call_at(200, fired.append, "after")
        handle.cancel()
        sim.run()
        assert fired == ["after"]
        assert sim.now == 200

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(50, fired.append, 1)
        handle.cancel()
        handle.cancel()
        assert handle.cancelled
        sim.run()
        assert fired == []

    def test_cancelled_entries_are_not_counted_as_events(self):
        sim = Simulator()
        for _ in range(10):
            sim.schedule(5, lambda: None).cancel()
        live = sim.schedule(5, lambda: None)
        sim.run()
        assert not live.cancelled
        assert sim.events_processed == 1

    def test_cancel_far_horizon_timer(self):
        """Cancellation works the same for heap-resident (far) entries."""
        sim = Simulator()
        fired = []
        far = sim.schedule(2 * HORIZON, fired.append, "far")
        assert far.when == 2 * HORIZON
        sim.call_at(10, fired.append, "near")
        far.cancel()
        sim.run()
        assert fired == ["near"]

    def test_cancel_same_tick_entry(self):
        """Now-queue entries (when == now) honour cancellation too."""
        sim = Simulator()
        fired = []
        handle = sim.schedule(0, fired.append, "soon")
        handle.cancel()
        sim.call_soon(fired.append, "kept")
        sim.run()
        assert fired == ["kept"]

    def test_peek_skips_tombstones(self):
        sim = Simulator()
        sim.schedule(7, lambda: None).cancel()
        sim.schedule(9, lambda: None)
        assert sim.peek() == 9


class TestFarHorizonSpill:
    def test_heap_and_wheel_merge_in_fifo_order(self):
        """Entries pushed beyond the horizon (heap) and within it (wheel)
        for the *same* target time run in push order: heap entries were
        pushed earlier (the time was farther away), so they go first."""
        sim = Simulator()
        log = []
        target = HORIZON + 500
        sim.call_at(target, log.append, "pushed-far")   # beyond horizon -> heap
        sim.call_at(target - 10, _advance_then, sim, target, log)
        sim.run()
        assert log == ["pushed-far", "pushed-near"]

    def test_spill_boundary(self):
        """One tick inside the horizon stays in the wheel; the first tick
        at the horizon spills — both fire, in time order."""
        sim = Simulator()
        log = []
        inside = ((_WHEEL_SLOTS - 1) << _WHEEL_SHIFT)
        outside = HORIZON << 1
        sim.call_at(outside, log.append, "outside")
        sim.call_at(inside, log.append, "inside")
        sim.run()
        assert log == ["inside", "outside"]
        assert sim.now == outside

    def test_many_horizons_of_timers(self):
        """Timers spread over several wheel rotations all fire, in order."""
        sim = Simulator()
        times = []
        whens = [i * (HORIZON // 3) + 1 for i in range(12)]
        for when in reversed(whens):
            sim.call_at(when, times.append, when)
        sim.run()
        assert times == sorted(whens)


def _advance_then(sim, target, log):
    # Runs at target-10: schedules for `target`, now *within* the horizon,
    # after the far entry for the same time already sits in the heap.
    sim.call_at(target, log.append, "pushed-near")


@pytest.mark.racecheck
class TestSameTickDispatch:
    """Batched same-tick dispatch under every tie-break policy.

    Under FIFO the order is append order; under the shuffle policies the
    *order* may legally differ, but the batch contents, the event count,
    and the final clock must be invariant — that is the contract layers
    above are allowed to rely on."""

    def test_same_tick_batch_runs_complete_and_on_time(self):
        sim = Simulator()
        log = []
        for i in range(64):
            sim.call_at(1000, log.append, i)
        sim.run()
        assert sorted(log) == list(range(64))
        assert sim.now == 1000
        assert sim.events_processed == 64
        if sim.tiebreak is None:
            assert log == list(range(64))  # documented FIFO tie-break

    def test_callbacks_scheduling_same_tick_work_join_the_batch(self):
        sim = Simulator()
        log = []

        def parent(i):
            log.append(("parent", i))
            sim.call_soon(log.append, ("child", i))

        for i in range(8):
            sim.call_at(500, parent, i)
        sim.run()
        assert sim.now == 500
        assert sorted(log) == sorted(
            [("parent", i) for i in range(8)] + [("child", i) for i in range(8)]
        )


# ---------------------------------------------------------------------------
# differential oracle: every kernel mode vs a test-local single keyed heap
# ---------------------------------------------------------------------------


class _Flag:
    """The oracle's stop event: triggered by ``succeed()``."""

    triggered = False

    def succeed(self):
        self.triggered = True


class _HeapOracle:
    """Reference kernel: one heap of ``[when, key(seq), fn, args]`` entries
    drained in ``(when, key)`` order, tombstones skipped uncounted and the
    clock set only by live actions.  Independent of the simulator's loop."""

    def __init__(self, key=lambda seq: seq):
        self.now = self.events_processed = self._seq = 0
        self._heap = []
        self._key = key

    def schedule(self, when, fn, *args):
        self._seq += 1
        entry = [when, self._key(self._seq), fn, args]
        heapq.heappush(self._heap, entry)
        return TimerHandle(entry)

    call_at = schedule

    def call_soon(self, fn, *args):
        self.schedule(self.now, fn, *args)

    def event(self):
        return _Flag()

    def run(self, until=None):
        self._drain(until, _Flag())

    def run_until(self, ev):
        self._drain(None, ev)
        if not ev.triggered:
            raise SimulationError("deadlock: no pending events")

    def _drain(self, until, stop):
        heap = self._heap
        while heap and not stop.triggered:
            if until is not None and heap[0][0] > until:
                break
            when, _key, fn, args = heapq.heappop(heap)
            if fn is not None:
                self.now = when
                fn(*args)
                self.events_processed += 1
        if until is not None and until > self.now:
            self.now = until


def _kernels(seed):
    """(reference, kernels that must match it) for one tie-break seed: the
    FIFO oracle for the fast path and an explicit FIFO policy, and a
    shuffled oracle for a fresh shuffle policy with the same seed."""
    fifo = [Simulator(), Simulator(tiebreak=FifoTieBreak())]
    shuffled = [Simulator(tiebreak=SeededShuffleTieBreak(seed))]
    return [
        (_HeapOracle(), fifo),
        (_HeapOracle(SeededShuffleTieBreak(seed).key), shuffled),
    ]


#: one schedule instruction: (delay-ish value, spawn-children?, cancel?).
#: Delays are drawn across all three container regimes: 0 (now-queue),
#: small (wheel), and beyond-horizon (heap spill).
_delay = st.one_of(
    st.just(0),
    st.integers(min_value=1, max_value=1 << _WHEEL_SHIFT),
    st.integers(min_value=1, max_value=HORIZON - 1),
    st.integers(min_value=HORIZON, max_value=3 * HORIZON),
)
_op = st.tuples(_delay, st.booleans(), st.booleans())

#: how a program is driven: plain run(), run(until=U) then run() for the
#: rest, or run_until(an event the i-th logged action triggers; 0: already
#: triggered) then run()
_mode = st.one_of(
    st.just(("run", None)),
    st.tuples(st.just("until"), _delay),
    st.tuples(st.just("run_until"), st.integers(min_value=0, max_value=60)),
)


def _run_program(sim, program, mode=("run", None)) -> tuple:
    """Execute a schedule program; returns (log, clocks, event counts)."""
    log = []
    stop = sim.event()
    kind, arg = mode

    def note(item):
        log.append(item)
        if kind == "run_until" and len(log) == arg:
            stop.succeed()

    def action(idx, delay, spawn):
        note((sim.now, idx))
        if spawn:
            # re-schedule from inside a callback: same tick and future,
            # exercising the mid-drain push rules
            sim.call_soon(note, (sim.now, (idx, "soon")))
            sim.call_at(sim.now + 1 + (delay % 97), note,
                        (sim.now + 1 + (delay % 97), (idx, "later")))

    handles = [sim.schedule(sim.now + delay, action, idx, delay, spawn)
               for idx, (delay, spawn, _cancel) in enumerate(program)]
    for handle, (_delay, _spawn, cancel) in zip(handles, program):
        if cancel:
            handle.cancel()
    stopped = None
    if kind == "until":
        sim.run(until=arg)
    elif kind == "run_until":
        if arg == 0:
            stop.succeed()
        try:
            sim.run_until(stop)
        except SimulationError as err:
            assert "deadlock" in str(err)
            stopped = "deadlock"
    first = (len(log), sim.now, sim.events_processed, stopped)
    sim.run()
    return log, first, sim.now, sim.events_processed


def _assert_all_match(program, mode, seed):
    for oracle, kernels in _kernels(seed):
        expected = _run_program(oracle, program, mode)
        for sim in kernels:
            assert _run_program(sim, program, mode) == expected, sim.tiebreak


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(program=st.lists(_op, min_size=1, max_size=40), mode=_mode,
       seed=st.integers(min_value=0, max_value=3))
# run_until's event triggered by a now-queue action, with more work after it
@example(program=[(10, True, False), (1000, False, False)],
         mode=("run_until", 2), seed=0)
# run(until=U) with cancelled timers on both sides of U
@example(program=[(5, False, True), (50, False, False), (2 * HORIZON, False, True)],
         mode=("until", 20), seed=0)
def test_wheel_heap_nowq_identical_to_keyed_heap(program, mode, seed):
    """The kernel — on the FIFO fast path, under an explicit FIFO policy
    and under a seeded shuffle — replays any schedule program with the
    order, clock and event count of a single keyed heap, whether it is
    driven by run(), run(until=U) or run_until(ev)."""
    _assert_all_match(program, mode, seed)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(program=st.lists(_op, min_size=1, max_size=30),
       cancel_every=st.integers(min_value=2, max_value=5),
       until=_delay)
def test_cancellation_identical_to_keyed_heap(program, cancel_every, until):
    """Tombstoned timers before and after a run(until=U) boundary perturb
    neither order, clock nor event counts."""
    program = [(delay, spawn, idx % cancel_every == 0)
               for idx, (delay, spawn, _cancel) in enumerate(program)]
    _assert_all_match(program, ("until", until), "cancel")
