"""Fault-injection campaign layer: determinism, degrade paths, reporting.

All tests carry ``@pytest.mark.faults`` (deselect with ``-m 'not faults'``).
The reduced matrix here is the tier-1 campaign: small enough for seconds of
wall clock, wide enough to cross the link/NIC/switch/I-OAT fault layers
with both eager and rendezvous transfers."""

import json

import pytest

from repro.faults.campaign import (
    CampaignSpec,
    quick_campaign_spec,
    run_campaign,
    run_cell,
)
from repro.faults.plan import (
    FaultPlan,
    IoatFaultSpec,
    LinkFaultSpec,
    SwitchFaultSpec,
    standard_plans,
)
from repro.reporting.sweeps import SweepExecutor
from repro.reporting.table import write_report
from repro.units import KiB, ms, us

pytestmark = pytest.mark.faults


def _tier1_spec(seed="tier1"):
    plans = {p.name: p for p in standard_plans(seed)}
    return CampaignSpec(
        workloads=("stream", "pingpong"),
        # 16 KiB exercises multi-fragment eager, 256 KiB the pull protocol
        # — and gives the 5% loss plans enough frames to actually fire.
        sizes=(16 * KiB, 256 * KiB),
        plans=(plans["clean"], plans["lossy-data"], plans["lossy-acks"],
               plans["ioat-fail"]),
        iters=2,
        seed=seed,
    )


class TestCampaignDeterminism:
    def test_reports_bit_identical_run_to_run(self):
        """The same seeded matrix, executed twice without the cache,
        produces byte-identical reports — the property that makes a
        campaign failure reproducible from its report alone."""
        spec = _tier1_spec()
        r1 = run_campaign(spec, executor=SweepExecutor(cache=False))
        r2 = run_campaign(spec, executor=SweepExecutor(cache=False))
        assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)

    def test_tier1_matrix_no_hangs_no_leaks(self):
        report = run_campaign(_tier1_spec(), executor=SweepExecutor(cache=False))
        assert report["totals"]["hung"] == 0
        assert report["sanitizer_dirty_cells"] == []
        # Every message reached a terminal state, and the lossy plans
        # actually injected something (a plan that never fires proves
        # nothing about the retransmit path).
        total = report["totals"]["completed"] + report["totals"]["failed"]
        assert total == sum(c["messages"] for c in report["cells"])
        assert report["injected"]["frame_drops"] > 0
        assert report["retransmissions"] > 0

    def test_switch_plans_skipped_off_incast(self):
        egress = FaultPlan(
            name="egress", seed="s",
            switches=(SwitchFaultSpec(port=0, windows=((us(10), us(20)),)),),
        )
        spec = CampaignSpec(workloads=("stream", "incast"),
                            sizes=(1 * KiB,), plans=(egress,), seed="s")
        cells, skipped = spec.cells()
        assert [(w, p.name) for (w, _s, p) in cells] == [("incast", "egress")]
        assert skipped == ["stream/1024/egress"]

    def test_quick_spec_covers_every_fault_layer(self):
        spec = quick_campaign_spec()
        layers = set()
        for plan in spec.plans:
            if plan.links:
                layers.add("link")
            if plan.ioat:
                layers.add("ioat")
            if plan.switches:
                layers.add("switch")
        assert {"link", "ioat", "switch"} <= layers


class TestIoatDegrade:
    def test_channel_failure_mid_pull_falls_back_to_memcpy(self):
        """Stall the receiver's channels so copies queue up, then hard-fail
        them mid-pull: every queued copy must be replayed through plain
        memcpy and the transfers still complete."""
        plan = FaultPlan(
            name="stall-then-fail", seed="degrade",
            ioat=(
                IoatFaultSpec(node=1, action="stall", at=us(1),
                              duration=ms(30)),
                IoatFaultSpec(node=1, action="fail", at=ms(2)),
            ),
        )
        cell = run_cell("stream", 256 * KiB, plan, iters=2)
        assert cell["outcomes"] == {"completed": 2, "failed": 0, "hung": 0}
        assert cell["counters"]["offload_fallback_copies"] > 0
        assert cell["counters"]["ioat_descriptors_failed"] > 0
        assert cell["sanitizer"] == []

    def test_clean_ioat_cell_uses_no_fallback(self):
        clean = standard_plans("degrade")[0]
        cell = run_cell("stream", 256 * KiB, clean, iters=2)
        assert cell["outcomes"]["completed"] == 2
        assert cell["counters"]["offload_fallback_copies"] == 0


class TestSwitchAndNicFaults:
    def test_incast_egress_burst_drops_then_recovers(self):
        """An egress-queue overflow window toward the incast sink drops
        real frames; retransmission must deliver every message anyway."""
        plan = FaultPlan(
            name="egress-burst", seed="sw",
            switches=(SwitchFaultSpec(port=0,
                                      windows=((us(20), us(400)),)),),
        )
        cell = run_cell("incast", 16 * KiB, plan, iters=2)
        assert cell["injected"]["switch_window_drops"] > 0
        assert cell["counters"]["switch_dropped"] > 0
        assert cell["outcomes"]["hung"] == 0
        assert cell["outcomes"]["completed"] == cell["messages"]
        assert cell["sanitizer"] == []

    def test_rx_ring_stall_recovers(self):
        plans = {p.name: p for p in standard_plans("nic")}
        cell = run_cell("pingpong", 16 * KiB, plans["rx-ring-stall"], iters=2)
        assert cell["injected"]["nic_window_drops"] > 0
        assert cell["outcomes"]["hung"] == 0
        assert cell["outcomes"]["completed"] == cell["messages"]
        assert cell["sanitizer"] == []


class TestReporting:
    def test_write_report_roundtrip_and_stable_bytes(self, tmp_path):
        spec = CampaignSpec(workloads=("stream",), sizes=(1 * KiB,),
                            plans=(standard_plans("r")[0],), iters=1,
                            seed="r")
        report = run_campaign(spec, executor=SweepExecutor(cache=False))
        p1 = write_report(report, tmp_path / "a.json")
        p2 = write_report(report, tmp_path / "b.json")
        assert json.loads(p1.read_text()) == report
        assert p1.read_bytes() == p2.read_bytes()

    def test_plan_dict_roundtrip(self):
        for plan in standard_plans("rt"):
            assert FaultPlan.from_dict(plan.to_dict()) == plan
        egress = FaultPlan(
            name="e", seed="rt",
            links=(LinkFaultSpec(drop_rate=0.5, port=2),),
            switches=(SwitchFaultSpec(port=1, windows=((1, 2), (3, 4))),),
        )
        assert FaultPlan.from_dict(egress.to_dict()) == egress
