"""Self-tests of the benchmark's helpers.

Run with ``python3 -m pytest perfbench/test_measure.py``.
"""

import gc
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from measure import (  # noqa: E402
    HostSpeed,
    Tracer,
    calibration_chain,
    calibration_kernel,
    compare_reference,
    layer_of,
    layer_shares,
    percentile,
    speed_factors,
)


def test_percentile_refuses_a_thin_tail():
    with pytest.raises(ValueError):
        percentile(range(99), 0.9)  # nine samples beyond p90
    assert percentile(range(1, 101), 0.9) == 90  # exactly ten beyond
    assert percentile(range(1, 101), 0.5) == 50
    with pytest.raises(ValueError):
        percentile(range(1000), 1.0)


def test_layer_shares_sum_to_one():
    layers = ("simkernel", "core", "ioat", "other")
    samples = {"simkernel": 7, "core": 2, "other": 1}
    shares = layer_shares(samples, layers)
    assert set(shares) == set(layers)
    assert shares["ioat"] == 0
    assert sum(shares.values()) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        layer_shares({"fabric": 1}, layers)  # undeclared layer
    with pytest.raises(ValueError):
        layer_shares({}, layers)  # nothing sampled


def test_speed_factors_are_mean_slice_time_over_the_reference():
    slices = [(("timed", 0), 0.002, 0.003)] * 3 + [(("timed", 0), 0.008, 0.009)] \
        + [(("timed", 1), 0.001, 0.001)] * 5 + [(("timed", 2), 0.004, 0.004)]
    f = speed_factors(slices, ref_s=0.001, min_slices=4)
    # a ratio of sums: one stalled slice counts in full, not as an outlier
    assert f[("timed", 0)] == pytest.approx((3.5, 4.5))
    assert f[("timed", 1)] == pytest.approx((1.0, 1.0))
    # a pass with too few slices takes the whole run's factor
    assert f[("timed", 2)] == f[None] == pytest.approx((2.3, 2.7))
    with pytest.raises(ValueError):
        speed_factors([])


def test_host_speed_slices_run_the_fixed_kernel_and_track_nothing():
    pytest.importorskip("numpy")
    chain = calibration_chain(16)
    slot, seen = 0, set()
    for _ in range(16):
        slot = chain[slot]
        seen.add(slot)
    assert seen == set(range(16)) and slot == 0  # one cycle through all
    assert calibration_kernel(chain, 100, 0) == 100 - 32
    assert calibration_kernel(chain, 100, 7) == calibration_kernel(chain, 100, 7) == 75
    speed = HostSpeed(("timed", "traced"))
    speed._last = float("-inf")
    tracked = gc.get_count()[0]
    speed.tick("traced", 3)
    # no allocation the cyclic collector counts, so no shifted collections
    assert gc.get_count()[0] == tracked
    speed.tick("traced", 3)  # within the interval: no second slice
    assert [s[0] for s in speed.slices] == [("traced", 3)]
    assert speed.slices[0][1] > 0 and speed.slices[0][2] > 0


def test_layer_of_maps_files_to_modules():
    root = "/x/src/repro"
    assert layer_of("/x/src/repro/simkernel/scheduler.py", root) == "simkernel"
    assert layer_of("/x/src/repro/params.py", root) == "repro"
    assert layer_of("/usr/lib/python3/heapq.py", root) == "other"


def test_reference_ignores_host_time_keys():
    ref = {"sim_ns": 100, "events": 7, "host_ms": 1.0,
           "counters": {"sim_wall_ms": 3, "frames": 4}}
    got = {"sim_ns": 100, "events": 7, "host_ms": 9.5,
           "counters": {"sim_wall_ms": 80, "frames": 4}}
    assert compare_reference(ref, got) == []


def test_reference_flags_a_one_event_drift():
    ref = {"sim_ns": 100, "events": 7}
    diffs = compare_reference(ref, {"sim_ns": 100, "events": 8})
    assert len(diffs) == 1 and diffs[0].startswith("events")
    nested = compare_reference({"c": {"events": 7}}, {"c": {"events": 8}})
    assert nested == ["c.events: reference 7, got 8"]


def test_reference_float_tolerance_and_missing_keys():
    assert compare_reference({"mib_s": 1.0}, {"mib_s": 1.0 + 1e-12}) == []
    assert compare_reference({"mib_s": 1.0}, {"mib_s": 1.0 + 1e-6})
    assert compare_reference({"sim_ns": 1}, {}) == ["sim_ns: missing (reference 1)"]
    assert compare_reference({}, {"sim_ns": 1})


def test_spans_share_the_op_id_and_split_self_time():
    tracer = Tracer()
    with tracer.span("op", "pp001"):
        with tracer.span("build"):
            pass
        with tracer.span("run"):
            pass
    by_name = {s["name"]: s for s in tracer.spans}
    assert {s["op"] for s in tracer.spans} == {"pp001"}
    assert by_name["build"]["parent"] == "op"
    op = by_name["op"]
    children = sum(by_name[n]["end_ns"] - by_name[n]["start_ns"]
                   for n in ("build", "run"))
    assert op["self_ns"] == op["end_ns"] - op["start_ns"] - children


def test_stratified_sizes_stay_in_band_and_follow_the_seed():
    pytest.importorskip("numpy")
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from workloads import stratified_sizes

    a = stratified_sizes(random.Random(3), 1, 32 * 1024, per_octave=4)
    b = stratified_sizes(random.Random(3), 1, 32 * 1024, per_octave=4)
    c = stratified_sizes(random.Random(4), 1, 32 * 1024, per_octave=4)
    assert a == b != c
    assert len(a) == 60
    assert all(1 <= s <= 32 * 1024 for s in a)
    assert a == sorted(a)  # one draw per stratum, strata ascending
