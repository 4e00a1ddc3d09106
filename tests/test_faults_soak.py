"""Soak acceptance: chained-fault endurance runs stay hang-free and leak-free.

The ISSUE's acceptance gate, as a tier-1 test: every soak spec in the
default suite, under two different seeds, must end with all transfers
terminal (completed or typed-failed, never hung), a clean sanitizer sweep,
and — because the whole layer is seeded — byte-identical reports per seed.
The suite runs in well under the ~30 s budget.
"""

import json

import pytest

from repro.faults import run_soak, run_soak_suite, soak_suite
from repro.reporting.table import report_json

pytestmark = pytest.mark.soak


@pytest.mark.parametrize("seed", ["soak", "soak-alt"])
def test_suite_is_hang_free_and_leak_free(seed):
    suite = run_soak_suite(seed=seed, iters=4)
    assert len(suite["runs"]) >= 3
    assert suite["totals"]["hung"] == 0
    assert suite["sanitizer_dirty_runs"] == []
    for run in suite["runs"]:
        assert run["hung_keys"] == []
        assert run["sanitizer"] == []
        terminal = run["outcomes"].get("completed", 0) + run["outcomes"].get("failed", 0)
        assert terminal == run["messages"]
        # The fault plan actually bit: every spec injects something.
        assert sum(run["injected"].values()) >= 1
        # Livelock checkpoints ran and the last one saw everything drain.
        assert run["checkpoints"]
        assert run["checkpoints"][-1]["nonterminal"] == 0


def test_ioat_flap_trips_and_reopens_breaker():
    spec = next(s for s in soak_suite(iters=4) if s.name == "ioat-flap")
    report = run_soak(spec)
    assert report["health"]["breaker_trips"] >= 1
    assert report["health"]["breaker_reopens"] >= 1
    # Degradation ended degraded-out: no channel left open at the end.
    assert report["health"]["breaker_open_channels"] == 0


def test_reports_are_byte_identical_per_seed():
    spec = soak_suite(seed="det", iters=3)[0]
    a = report_json(run_soak(spec))
    b = report_json(run_soak(spec))
    assert a == b
    other = report_json(run_soak(soak_suite(seed="det2", iters=3)[0]))
    assert a != other


def test_breaker_transitions_visible_in_trace():
    spec = next(s for s in soak_suite(iters=4) if s.name == "ioat-flap")
    report = run_soak(spec, trace=True)
    blob = json.dumps(report["trace_events"])
    assert "breaker TRIP" in blob
    assert "breaker REOPEN" in blob


def test_watchdog_trips_after_stall_limit_checkpoints():
    """A sampler whose progress never changes: the first checkpoint sets
    the baseline, ``stall_limit`` more without progress raise (the daemon
    surfaces it as a SimulationError caused by the LivelockError)."""
    from repro.faults import LivelockError
    from repro.faults.soak import watch_progress
    from repro.simkernel.errors import SimulationError
    from repro.simkernel.scheduler import Simulator

    sim = Simulator()
    checkpoints = watch_progress(sim, "stuck", 10, 4,
                                 lambda: ({"t": sim.now}, 0))
    with pytest.raises(SimulationError) as info:
        sim.run()
    assert isinstance(info.value.__cause__, LivelockError)
    assert "stuck: no progress across 4 checkpoints" in str(info.value.__cause__)
    assert [c["t"] for c in checkpoints] == [10, 20, 30, 40, 50]


def test_watchdog_stops_when_done():
    """Progress resets the stall count; a done sample ends the daemon
    without raising and leaves nothing scheduled."""
    from repro.faults.soak import watch_progress
    from repro.simkernel.scheduler import Simulator

    sim = Simulator()
    # progress moves every other checkpoint: never 2 stalls in a row
    progress = iter([0, 0, 1, 1, 2, 2, None])
    checkpoints = watch_progress(sim, "moving", 10, 2,
                                 lambda: ({"t": sim.now}, next(progress)))
    sim.run()
    assert len(checkpoints) == 7
    assert sim.peek() is None
