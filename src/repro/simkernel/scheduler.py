"""The event loop: a timer wheel + now-queue in front of a binary heap.

Entries are ``[when, seq, fn, args]`` lists; ``fn(*args)`` runs at absolute
time ``when``.  Two kinds of actions dominate:

* *timeouts* — trigger an :class:`Event` at a future time;
* *dispatches* — run the callback list of an already-triggered event, or a
  bare callable, at the *current* time.

Ties at equal times fire in scheduling order (monotonic sequence numbers), so
the simulation is deterministic regardless of hash ordering or allocation
addresses.  That FIFO order is the *documented* tie-break — and the only
schedule property layers above are allowed to rely on.  The tie-break is
pluggable (:mod:`repro.simkernel.tiebreak`): the race detector replays
scenarios under seeded permutations of same-timestamp ties to prove no
hidden schedule dependency crept in.

Storage is split three ways, FIFO-equivalent to a single seq-keyed heap:

* **now-queue** — a deque for entries pushed at exactly the current time
  (the same-tick dispatch hop: event callbacks, ``call_soon``).  Batched
  dispatch drains it without any heap traffic.  Correct because an entry
  pushed *at* time T was pushed *during* tick T, hence after — and with a
  larger sequence number than — every heap/wheel entry scheduled *for* T,
  all of which were pushed while ``now < T``.  So draining all scheduled
  entries at T first, then the now-queue in append order, is exactly the
  global ``(when, seq)`` order.
* **timer wheel** — 256 slots of 4096 ns for near-future timeouts (the
  overwhelmingly common case: serialization times, link delays, busy
  periods).  Each slot is a tiny heap, so pushes and pops touch a handful
  of entries instead of re-heapifying the global queue per event.  An
  entry goes to the wheel iff its slot tick is less than 256 slots ahead
  of the current one, which makes slot indices unique among live entries.
* **heap** — far-horizon entries (retransmit/watchdog timers) spill to the
  classic binary heap.  For one target time T, every heap entry was pushed
  while T was ≥ the horizon away and every wheel entry while T was nearer,
  so all heap entries at T precede all wheel entries at T in push order —
  a plain ``(when, seq)`` comparison between the two tops merges them in
  exact FIFO order.

When a tie-break policy is installed the fast containers are bypassed
entirely: every push goes through the policy-keyed heap, so permutation
replays see every same-timestamp tie.  One drain loop serves both modes
and both entry points (:meth:`Simulator.run`, :meth:`Simulator.run_until`):
its heap phase *is* the keyed drain, because with a policy the wheel and
now-queue stay empty.
"""

from __future__ import annotations

import gc
import heapq
import time
from collections import deque
from typing import Callable, Generator, Optional

from repro.simkernel.errors import SimulationError
from repro.simkernel.event import _PENDING, Event, Timeout

#: timer-wheel geometry: 256 slots of 2**12 ns (~4.1 us) — a ~1 ms horizon.
_WHEEL_SHIFT = 12
_WHEEL_SLOTS = 256
_WHEEL_MASK = _WHEEL_SLOTS - 1


#: the stop condition of :meth:`Simulator.run`: an event nothing triggers
_NEVER = Event(None, "never")


def _run_callbacks(ev: Event, callbacks: list) -> None:
    """Dispatch hop for events with more than one waiter."""
    for cb in callbacks:
        cb(ev)


class TimerHandle:
    """Cancellable handle returned by :meth:`Simulator.schedule`.

    Cancellation tombstones the entry in place (the containers skip dead
    entries at drain time, uncounted and unlogged); it does not remove it,
    so cancel is O(1) and never perturbs live-entry order.
    """

    __slots__ = ("_entry",)

    def __init__(self, entry: list):
        self._entry = entry

    def cancel(self) -> None:
        """Prevent the action from running.  Idempotent; no-op once fired."""
        e = self._entry
        e[2] = None
        e[3] = ()

    @property
    def cancelled(self) -> bool:
        return self._entry[2] is None

    @property
    def when(self) -> int:
        return self._entry[0]


class Simulator:
    """Discrete-event scheduler with integer-nanosecond time."""

    #: events processed by every Simulator instance in this process; the
    #: sweep cache tests assert a warm cache runs *zero* simulation, and the
    #: self-benchmark derives events-per-second per figure from the delta
    events_total: int = 0

    #: process-wide source of tie-break policies for simulators built
    #: without an explicit ``tiebreak`` argument; installed (and restored)
    #: by :func:`repro.simkernel.tiebreak.default_tiebreak` so the race
    #: detector reaches simulators constructed inside testbed factories.
    #: ``None`` (the default) keeps the FIFO fast path untouched.
    default_tiebreak_factory: Optional[Callable[[], object]] = None

    def __init__(self, tiebreak: Optional[object] = None) -> None:
        self.now: int = 0
        self._heap: list[list] = []
        #: same-tick entries (pushed at ``when == now``), drained FIFO
        self._now_q: deque[list] = deque()
        #: near-future entries, radix-partitioned into per-slot mini-heaps
        self._wheel: list[list[list]] = [[] for _ in range(_WHEEL_SLOTS)]
        #: live + tombstoned entries currently in the wheel
        self._wheel_count: int = 0
        #: lower bound on the slot tick of the earliest wheel entry
        self._wheel_hint: int = 0
        self._seq: int = 0
        self._running = False
        #: number of events processed; useful for runaway detection in tests
        self.events_processed: int = 0
        #: host wall-clock seconds spent inside run()/run_until() — with
        #: :attr:`events_processed` this yields this loop's events/second
        self.wall_seconds: float = 0.0
        #: callbacks run by :meth:`finish` (resource sanitizers and other
        #: end-of-simulation invariant checks register here)
        self._teardown_checks: list[Callable[[], None]] = []
        #: when not None, run()/run_until() append one ``(time, label)``
        #: entry per executed action — the race detector's schedule log
        self._schedule_log: Optional[list[tuple[int, str]]] = None
        if tiebreak is None and Simulator.default_tiebreak_factory is not None:
            tiebreak = Simulator.default_tiebreak_factory()
        #: the active tie-break policy; None means the built-in FIFO
        self.tiebreak = tiebreak
        if tiebreak is not None:
            # Shadow the class push with a keyed closure on this instance
            # only, so FIFO simulators never pay for the indirection.  The
            # keyed path routes *everything* (including same-tick pushes)
            # through the heap so the policy sees every tie.
            key = tiebreak.key
            heap = self._heap

            def push_keyed(when: int, fn: Callable, args: tuple = ()) -> list:
                if when < self.now:
                    raise SimulationError(
                        f"cannot schedule in the past ({when} < {self.now})"
                    )
                self._seq += 1
                entry = [when, key(self._seq), fn, args]
                heapq.heappush(heap, entry)
                return entry

            self._push = push_keyed

    # -- construction helpers ---------------------------------------------

    def event(self, name: str = "") -> Event:
        """Create a fresh pending event."""
        return Event(self, name)

    def timeout(self, delay: int, value: object = None, name: str = "") -> Timeout:
        """Create an event that succeeds ``delay`` ticks from now."""
        return Timeout(self, delay, value, name)

    def process(self, gen: Generator, name: str = "") -> "Process":
        """Spawn a generator as a process; returns its completion event."""
        from repro.simkernel.process import Process

        return Process(self, gen, name)

    def daemon(self, gen: Generator, name: str = "") -> "Process":
        """Spawn a background service whose failure aborts the simulation.

        Daemons (softirq engines, DMA channels, protocol timers...) are
        never joined, so a plain process would swallow their exceptions and
        the simulation would silently wedge.  A daemon re-raises instead.
        """
        proc = self.process(gen, name)

        def check(ev: "Process") -> None:
            if ev.exception is not None:
                raise SimulationError(
                    f"daemon {name or gen!r} died: {ev.exception!r}"
                ) from ev.exception

        proc.add_callback(check)
        return proc

    # -- internal scheduling ----------------------------------------------

    def _push(self, when: int, fn: Callable, args: tuple = ()) -> list:
        now = self.now
        if when <= now:
            if when < now:
                raise SimulationError(
                    f"cannot schedule in the past ({when} < {now})"
                )
            entry = [when, 0, fn, args]
            self._now_q.append(entry)
            return entry
        self._seq += 1
        entry = [when, self._seq, fn, args]
        tick = when >> _WHEEL_SHIFT
        if tick - (now >> _WHEEL_SHIFT) < _WHEEL_SLOTS:
            heapq.heappush(self._wheel[tick & _WHEEL_MASK], entry)
            self._wheel_count += 1
            if self._wheel_count == 1 or tick < self._wheel_hint:
                self._wheel_hint = tick
        else:
            heapq.heappush(self._heap, entry)
        return entry

    def _schedule_timeout(self, ev: Event, delay: int, value: object) -> None:
        # succeed() defaults its value to None, so the bound method goes on
        # the heap directly with the value as its argument — no closure.
        self._push(self.now + delay, ev.succeed, (value,))

    def _dispatch(self, ev: Event) -> None:
        """Queue a triggered event's callbacks to run at the current time."""
        callbacks = ev.callbacks
        ev.callbacks = None  # marks "dispatched"; late add_callback self-schedules
        if not callbacks:
            # Nobody is waiting (e.g. a Store.put ack the producer dropped):
            # skip the empty dispatch hop.  Late add_callback still works —
            # it self-schedules through _call_soon.
            return
        if len(callbacks) == 1:
            # The common case (one waiting process): the callback itself is
            # the dispatch action.
            fn, args = callbacks[0], (ev,)
        else:
            fn, args = _run_callbacks, (ev, callbacks)
        if self.tiebreak is None:
            # Same-tick push inlined (skips _push's routing): dispatch hops
            # always target the now-queue on the FIFO fast path.
            self._now_q.append([self.now, 0, fn, args])
        else:
            self._push(self.now, fn, args)

    def _call_soon(self, thunk: Callable[[], None]) -> None:
        """Run ``thunk`` at the current simulation time, after queued work."""
        self._push(self.now, thunk)

    # -- lightweight scheduling (fast paths) --------------------------------

    def call_at(self, when: int, fn: Callable, *args: object) -> None:
        """Run ``fn(*args)`` at absolute time ``when``.

        The zero-cost alternative to spawning a :class:`Process` for
        fire-and-forget work (link delivery, NIC TX completion, DMA
        retirement): one scheduler entry, no generator, no Event and no
        closure allocation.  The return value is ignored; an exception
        aborts the simulation (same contract as a daemon).
        """
        self._push(when, fn, args)

    def call_soon(self, fn: Callable, *args: object) -> None:
        """Run ``fn(*args)`` at the current time, FIFO after queued work."""
        self._push(self.now, fn, args)

    def schedule(self, when: int, fn: Callable, *args: object) -> TimerHandle:
        """Like :meth:`call_at`, but returns a cancellable handle.

        Meant for timers that are usually cancelled before they fire
        (watchdogs, retransmit deadlines); the hot fire-and-forget paths
        use :meth:`call_at`, which allocates no handle.
        """
        return TimerHandle(self._push(when, fn, args))

    # -- run loop ----------------------------------------------------------

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Run until the queues drain, ``until`` is reached, or ``max_events``.

        Returns the simulation time when the loop stopped.
        """
        self._drain(until, _NEVER, max_events)
        return self.now

    def run_until(self, ev: Event, max_events: Optional[int] = None) -> object:
        """Run until ``ev`` triggers; return its value (or raise its error)."""
        self._drain(None, ev, max_events)
        if not ev.triggered:
            raise SimulationError(
                f"deadlock: event {ev!r} cannot trigger, no pending events"
            )
        return ev.value

    def _drain(self, until: Optional[int], stop: Event,
               max_events: Optional[int]) -> None:
        """The drain loop behind :meth:`run` and :meth:`run_until`.

        Runs actions in order until ``stop`` triggers (checked after every
        action), the next action lies beyond ``until`` (the clock then moves
        forward to ``until``; it never moves back), or nothing is pending.
        Under a tie-break policy every push lands on the keyed heap, so
        phase 1a alone drains each tick, in ``(when, key)`` order, and the
        wheel and now-queue stay empty.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        count = 0
        t0 = time.perf_counter()
        nq = self._now_q
        wheel = self._wheel
        heap = self._heap
        heappop = heapq.heappop
        log = self._schedule_log
        limit = max_events if max_events is not None else float("inf")
        pending = _PENDING
        # The drain loop allocates heavily (entry lists, generator frames)
        # but holds no cycles long enough to matter: pausing the cyclic GC
        # for the duration avoids collector sweeps mid-simulation.  Refcount
        # reclamation is unaffected; the pause nests safely (inner loops see
        # the collector already off and leave it off).
        gc_was_on = gc.isenabled()
        if gc_was_on:
            gc.disable()
        try:
            # `stop._value is not pending or stop._exc is not None` is
            # Event.triggered inlined: it runs once per simulation event.
            if stop._value is not pending or stop._exc is not None:
                return
            while True:
                now = self.now
                # 1a) far-horizon (heap) entries due now.  Every heap entry
                #     at time T predates every wheel entry at T (it was
                #     pushed while T was beyond the horizon, hence earlier,
                #     hence with a smaller seq), so the whole heap batch
                #     runs first and no cross-container compare is needed.
                #     On the FIFO path new pushes during a callback are
                #     strictly future (when > now routes to wheel/heap,
                #     when == now to the now-queue), so neither batch can
                #     grow while draining; under a policy same-tick pushes
                #     join this batch in key order.
                while heap:
                    top = heap[0]
                    if top[0] != now:
                        break
                    heappop(heap)
                    fn = top[2]
                    if fn is None:
                        continue  # cancelled: uncounted tombstone
                    if log is not None:
                        log.append((now, _action_label(fn)))
                    fn(*top[3])
                    count += 1
                    if count >= limit:
                        raise SimulationError(_livelock(max_events))
                    if stop._value is not pending or stop._exc is not None:
                        return
                # 1b) wheel entries due now: all in the hint slot (equal
                #     when ⇒ equal slot tick), drained in (when, seq) order
                #     by the slot mini-heap.
                if self._wheel_count:
                    tick = self._wheel_hint
                    slot = wheel[tick & _WHEEL_MASK]
                    while not slot:
                        tick += 1
                        slot = wheel[tick & _WHEEL_MASK]
                    self._wheel_hint = tick
                    while slot:
                        top = slot[0]
                        if top[0] != now:
                            break
                        heappop(slot)
                        self._wheel_count -= 1
                        fn = top[2]
                        if fn is None:
                            continue
                        if log is not None:
                            log.append((now, _action_label(fn)))
                        fn(*top[3])
                        count += 1
                        if count >= limit:
                            raise SimulationError(_livelock(max_events))
                        if stop._value is not pending or stop._exc is not None:
                            return
                # 2) the now-queue: same-tick pushes, batched FIFO drain.
                #    Entries appended while draining run in this same batch;
                #    nothing new can enter the wheel/heap *at* the current
                #    time, so the two phases never interleave.
                while nq:
                    e = nq.popleft()
                    fn = e[2]
                    if fn is None:
                        continue
                    if log is not None:
                        log.append((now, _action_label(fn)))
                    fn(*e[3])
                    count += 1
                    if count >= limit:
                        raise SimulationError(_livelock(max_events))
                    if stop._value is not pending or stop._exc is not None:
                        return
                # 3) advance to the next live scheduled time (or stop).  The
                #    peek must be fresh: the same-tick batch may have
                #    scheduled entries earlier than anything seen above.
                top = self._next_live()
                if top is None or (until is not None and top[0] > until):
                    if until is not None and until > self.now:
                        self.now = until
                    return
                self.now = top[0]
        finally:
            if gc_was_on:
                gc.enable()
            self._running = False
            self.wall_seconds += time.perf_counter() - t0
            self.events_processed += count
            Simulator.events_total += count

    def _next_live(self) -> Optional[list]:
        """The earliest live wheel/heap entry, or None if none is pending.

        Pops the tombstones it meets, so neither the drain loop nor
        :meth:`peek` ever lands the clock on a cancelled entry's time.  The
        plain ``(when, seq)`` compare of the wheel and heap tops is exact
        FIFO: for any target time, heap entries (pushed while the time was
        beyond the horizon) always predate wheel entries.
        """
        wheel = self._wheel
        heap = self._heap
        while True:
            top = None
            if self._wheel_count:
                tick = self._wheel_hint
                slot = wheel[tick & _WHEEL_MASK]
                while not slot:
                    tick += 1
                    slot = wheel[tick & _WHEEL_MASK]
                self._wheel_hint = tick
                top = slot[0]
            if heap and (top is None or heap[0] < top):
                top = heap[0]
                if top[2] is not None:
                    return top
                heapq.heappop(heap)
            elif top is None or top[2] is not None:
                return top
            else:
                heapq.heappop(slot)
                self._wheel_count -= 1

    def peek(self) -> Optional[int]:
        """Time of the next scheduled action, or None if nothing is pending.

        Pops tombstoned (cancelled) entries it meets, so the answer is the
        next *live* action time.
        """
        for e in self._now_q:
            if e[2] is not None:
                return self.now
        top = self._next_live()
        return None if top is None else top[0]

    def record_schedule(self) -> list[tuple[int, str]]:
        """Start logging every executed action as ``(time, label)``.

        Returns the (live) log list.  Used by the race detector's bisection
        to diff two runs' schedules around the first diverging event; the
        labels are action ``__qualname__``s — coarse, but stable across
        runs, which is what schedule diffing needs.
        """
        if self._schedule_log is None:
            self._schedule_log = []
        return self._schedule_log

    # -- teardown -----------------------------------------------------------

    def add_teardown_check(self, check: Callable[[], None]) -> None:
        """Register an end-of-simulation invariant check.

        Checks run (in registration order) when :meth:`finish` is called —
        typically by a test harness after the scenario has quiesced.  A
        check signals a violation by raising.
        """
        self._teardown_checks.append(check)

    def finish(self) -> None:
        """Run all registered teardown checks.

        This does not stop or drain the simulation; callers should first let
        it quiesce (e.g. ``sim.run()`` until the heap empties).
        """
        for check in self._teardown_checks:
            check()


def _livelock(max_events: Optional[int]) -> str:
    return f"exceeded max_events={max_events}; possible livelock"


def _action_label(action: Callable) -> str:
    """Stable-ish label for a scheduled action (schedule-log entries)."""
    label = getattr(action, "__qualname__", None)
    if label is not None:
        return label
    return type(action).__name__
