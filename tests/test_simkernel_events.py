"""Unit tests for the event primitives of the simulation kernel."""

import pytest

from repro.simkernel import AllOf, AnyOf, Simulator, SimulationError


@pytest.fixture
def sim():
    return Simulator()


class TestEvent:
    def test_starts_pending(self, sim):
        ev = sim.event("e")
        assert not ev.triggered
        assert not ev.ok

    def test_succeed_sets_value(self, sim):
        ev = sim.event()
        ev.succeed(42)
        assert ev.triggered and ev.ok
        assert ev.value == 42

    def test_value_before_trigger_raises(self, sim):
        ev = sim.event()
        with pytest.raises(SimulationError):
            _ = ev.value

    def test_double_succeed_raises(self, sim):
        ev = sim.event()
        ev.succeed()
        with pytest.raises(SimulationError):
            ev.succeed()

    def test_fail_stores_exception(self, sim):
        ev = sim.event()
        err = ValueError("boom")
        ev.fail(err)
        assert ev.triggered and not ev.ok
        assert ev.exception is err
        with pytest.raises(ValueError):
            _ = ev.value

    def test_fail_requires_exception_instance(self, sim):
        ev = sim.event()
        with pytest.raises(TypeError):
            ev.fail("not an exception")  # type: ignore[arg-type]

    def test_callback_runs_after_trigger(self, sim):
        ev = sim.event()
        seen = []
        ev.add_callback(lambda e: seen.append(e.value))
        ev.succeed("x")
        sim.run()
        assert seen == ["x"]

    def test_callback_on_triggered_event_still_runs(self, sim):
        ev = sim.event()
        ev.succeed(7)
        sim.run()
        seen = []
        ev.add_callback(lambda e: seen.append(e.value))
        sim.run()
        assert seen == [7]


class TestTimeout:
    def test_fires_at_delay(self, sim):
        t = sim.timeout(100, value="done")
        times = []
        t.add_callback(lambda e: times.append(sim.now))
        sim.run()
        assert times == [100]
        assert t.value == "done"

    def test_zero_delay_fires_now(self, sim):
        t = sim.timeout(0)
        sim.run()
        assert t.triggered
        assert sim.now == 0

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.timeout(-1)

    def test_ordering_is_fifo_at_same_time(self, sim):
        order = []
        for i in range(5):
            sim.timeout(10).add_callback(lambda e, i=i: order.append(i))
        sim.run()
        assert order == [0, 1, 2, 3, 4]


class TestComposites:
    def test_anyof_first_wins(self, sim):
        a, b = sim.timeout(50, value="a"), sim.timeout(20, value="b")
        any_ev = AnyOf(sim, [a, b])
        sim.run()
        ev, val = any_ev.value
        assert ev is b and val == "b"
        assert sim.now == 50  # the other timeout still fires

    def test_allof_collects_in_order(self, sim):
        a, b = sim.timeout(50, value="a"), sim.timeout(20, value="b")
        all_ev = AllOf(sim, [a, b])
        sim.run()
        assert all_ev.value == ["a", "b"]

    def test_allof_empty_succeeds_immediately(self, sim):
        all_ev = AllOf(sim, [])
        assert all_ev.triggered
        assert all_ev.value == []

    def test_allof_propagates_failure(self, sim):
        a = sim.event()
        b = sim.timeout(5)
        all_ev = AllOf(sim, [a, b])
        a.fail(RuntimeError("nope"))
        sim.run()
        assert all_ev.exception is not None


class TestSchedulerLoop:
    def test_run_until_returns_value(self, sim):
        t = sim.timeout(30, value=3)
        assert sim.run_until(t) == 3
        assert sim.now == 30

    def test_run_until_deadlock_detected(self, sim):
        ev = sim.event()
        with pytest.raises(SimulationError,
                           match=r"deadlock: event .* cannot trigger"):
            sim.run_until(ev)

    def test_run_with_until_stops_early(self, sim):
        t = sim.timeout(1000)
        sim.run(until=10)
        assert sim.now == 10
        assert not t.triggered
        sim.run()
        assert t.triggered

    @pytest.mark.parametrize("keyed", [False, True])
    def test_run_until_in_the_past_keeps_the_clock(self, keyed):
        from repro.simkernel.tiebreak import FifoTieBreak

        sim = Simulator(tiebreak=FifoTieBreak()) if keyed else Simulator()
        fired = []
        sim.call_at(100, fired.append, 100)
        sim.call_at(200, fired.append, 200)
        assert sim.run(until=100) == 100
        assert sim.run(until=50) == 100  # the clock never moves backwards
        assert fired == [100]
        sim.run()
        assert fired == [100, 200] and sim.now == 200

    def test_cannot_schedule_in_past(self, sim):
        sim.timeout(10)
        sim.run()
        with pytest.raises(SimulationError):
            sim._push(5, lambda: None)

    def test_max_events_guards_livelock(self, sim):
        def rearm():
            sim._call_soon(rearm)

        sim._call_soon(rearm)
        with pytest.raises(SimulationError, match="max_events"):
            sim.run(max_events=100)

    @pytest.mark.parametrize("entry", ["run", "run_until"])
    def test_max_events_error_is_one_text(self, sim, entry):
        """Both entry points stop a livelock with the same message."""
        def rearm():
            sim._call_soon(rearm)

        sim._call_soon(rearm)
        with pytest.raises(SimulationError) as err:
            if entry == "run":
                sim.run(max_events=100)
            else:
                sim.run_until(sim.event(), max_events=100)
        assert str(err.value) == "exceeded max_events=100; possible livelock"

    @pytest.mark.parametrize("outer,inner", [
        ("run_until", "run"), ("run", "run_until"),
        ("run", "run"), ("run_until", "run_until"),
    ])
    def test_nested_drain_is_rejected(self, sim, outer, inner):
        """Neither entry point may be called from inside an action; the
        error aborts the outer loop and leaves the simulator usable."""
        log = []

        def nest():
            if inner == "run":
                sim.run()
            else:
                sim.run_until(sim.timeout(10))

        sim.call_at(20, nest)
        sim.call_at(50, log.append, "t=50")
        with pytest.raises(SimulationError, match="simulator is not reentrant"):
            if outer == "run":
                sim.run()
            else:
                sim.run_until(sim.timeout(100))
        assert log == [] and sim.now == 20
        assert not sim._running
        sim.run()
        assert log == ["t=50"]

    def test_peek(self, sim):
        assert sim.peek() is None
        sim.timeout(42)
        assert sim.peek() == 42
