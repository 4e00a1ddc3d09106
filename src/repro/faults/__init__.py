"""Deterministic fault-injection campaigns for the Open-MX stack.

The reliability machinery of §III-B (retransmission, cleanup on timeout,
duplicate filtering) only earns trust when it is exercised — and a lossy
wire exercised by hand is exactly the kind of test that silently rots.
This package composes seeded, schedule-driven *fault plans* out of the
low-level hooks the component layers expose:

* frame loss / duplication / reordering / corruption on a
  :class:`~repro.ethernet.link.Link` direction (the generalized
  :class:`~repro.ethernet.link.FrameFaultHook`);
* switch egress-queue overflow windows
  (:attr:`~repro.ethernet.switch.EthernetSwitch.fault`);
* NIC receive-ring exhaustion windows
  (:attr:`~repro.ethernet.nic.Nic.rx_fault`);
* I/OAT channel stall and hard failure
  (:meth:`~repro.ioat.channel.DmaChannel.stall` /
  :meth:`~repro.ioat.channel.DmaChannel.fail`) with graceful memcpy
  fallback in the offload manager.

A *campaign* runs a matrix of (workload × message size × fault plan)
cells, each in a fresh testbed with runtime sanitizers attached, and
asserts the reliability contract: every transfer either completes or
surfaces a typed :class:`~repro.core.errors.TransferError`; every skbuff,
DMA cookie and pinned page drains; the report is bit-identical run to run.
"""

from repro.faults.campaign import (
    CampaignSpec,
    quick_campaign_spec,
    run_campaign,
    run_cell,
)
from repro.faults.injectors import ArmedPlan, NoTrunksError, arm_plan
from repro.faults.plan import (
    FabricDegradeSpec,
    FabricFaultSpec,
    FabricFlapSpec,
    FabricLossySpec,
    FaultPlan,
    IoatFaultSpec,
    LinkFaultSpec,
    NicFaultSpec,
    RankFaultSpec,
    SwitchFaultSpec,
    flap_windows,
    soak_plans,
    standard_plans,
)
from repro.faults.soak import (
    FabricSoakSpec,
    LivelockError,
    SoakSpec,
    fabric_soak_suite,
    run_fabric_soak,
    run_fabric_soak_suite,
    run_soak,
    run_soak_suite,
    soak_suite,
)

__all__ = [
    "ArmedPlan",
    "CampaignSpec",
    "FabricDegradeSpec",
    "FabricFaultSpec",
    "FabricFlapSpec",
    "FabricLossySpec",
    "FabricSoakSpec",
    "FaultPlan",
    "IoatFaultSpec",
    "LinkFaultSpec",
    "LivelockError",
    "NicFaultSpec",
    "NoTrunksError",
    "RankFaultSpec",
    "SoakSpec",
    "SwitchFaultSpec",
    "arm_plan",
    "fabric_soak_suite",
    "flap_windows",
    "quick_campaign_spec",
    "run_campaign",
    "run_cell",
    "run_fabric_soak",
    "run_fabric_soak_suite",
    "run_soak",
    "run_soak_suite",
    "soak_plans",
    "soak_suite",
    "standard_plans",
]
