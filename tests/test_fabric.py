"""Tests for repro.fabric: topology invariants, deterministic routing,
bit-identical collectives at scale, fault cells, and the wrapper factories."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fabric.routing import RouteTables, ecmp_pick
from repro.fabric.spec import (
    LinkSpec,
    SwitchSpec,
    TopologySpec,
    dragonfly,
    fat_tree,
    pair_topology,
    star_topology,
)
from repro.fabric.sweep import (
    fabric_scenario,
    make_topology,
    run_fabric_cell,
    run_fabric_collective,
    spine_kill_plan,
)
from repro.fabric.build import build_fabric_testbed
from repro.fabric.mpi import launch_fabric_world
from repro.faults.injectors import arm_plan
from repro.faults.plan import _PLAN_SECTIONS, FabricFaultSpec, FaultPlan
from repro.units import KiB

MAXEV = 10_000_000


# ---------------------------------------------------------------------------
# topology invariants
# ---------------------------------------------------------------------------

SPEC_CASES = [
    ("pair", 2, 1.0),
    ("star", 8, 1.0),
    ("fat_tree2", 16, 1.0),
    ("fat_tree2", 32, 4.0),
    ("fat_tree3", 64, 1.0),
    ("dragonfly", 16, 1.0),
]


@pytest.mark.parametrize("kind,hosts,oversub", SPEC_CASES)
class TestTopologyInvariants:
    def test_validates_and_connected(self, kind, hosts, oversub):
        spec = make_topology(kind, hosts, oversubscription=oversub)
        spec.validate()
        assert spec.connected()
        # fat_tree3 rounds the host count up to the next full k^3/4 tree
        assert len(spec.hosts) >= hosts
        if kind != "fat_tree3":
            assert len(spec.hosts) == hosts

    def test_every_host_has_one_access_link(self, kind, hosts, oversub):
        spec = make_topology(kind, hosts, oversubscription=oversub)
        if not spec.switches:  # back-to-back pair
            return
        adj = spec.neighbors()
        for h in spec.hosts:
            assert len(adj[h]) == 1
            assert spec.edge_of(h) in spec.switch_names()

    def test_json_round_trip(self, kind, hosts, oversub):
        spec = make_topology(kind, hosts, oversubscription=oversub)
        assert TopologySpec.from_dict(spec.to_dict()) == spec

    def test_diameter_positive(self, kind, hosts, oversub):
        spec = make_topology(kind, hosts, oversubscription=oversub)
        assert spec.diameter_hops() >= 1


@pytest.mark.parametrize("load,doc,field", [
    (TopologySpec.from_dict, [], "mapping"),
    (TopologySpec.from_dict, "pair", "mapping"),
    (TopologySpec.from_dict, {"name": "x", "hosts": "abc"}, "'hosts'"),
    (TopologySpec.from_dict, {"name": "x", "hosts": ["a"], "switches": "sw0"},
     "'switches'"),
    (TopologySpec.from_dict, {"name": "x", "hosts": ["a"], "links": {}},
     "'links'"),
    (FaultPlan.from_dict, [], "mapping"),
    (FaultPlan.from_dict, {"name": "p", "links": "a~b"}, "'links'"),
    (FaultPlan.from_dict, {"name": "p", "ranks": 3}, "'ranks'"),
    (TopologySpec.from_dict, {"hosts": ["a"]}, "'name'"),
    (FaultPlan.from_dict, {"seed": "s"}, "'name'"),
    (FaultPlan.from_dict, {"name": "p", "links": ["ab"]}, r"links\[0\]"),
    (TopologySpec.from_dict, {"name": "x", "hosts": ["a", "b"], "links": ["ab"]},
     r"links\[0\]"),
    (FaultPlan.from_dict, {"name": "p", "links": [{}, {"bogus": 1}]}, r"links\[1\]"),
], ids=["topo-list", "topo-str", "topo-hosts-str", "topo-switches-str",
        "topo-links-dict", "plan-list", "plan-links-str", "plan-ranks-int",
        "topo-no-name", "plan-no-name", "plan-link-str", "topo-link-str",
        "plan-link-unknown-field"])
def test_malformed_documents_raise_value_error_naming_the_field(load, doc, field):
    """A loader given a non-mapping document, a missing name, a non-list
    where a list belongs, or a bad entry in a section says which field or
    entry is wrong instead of building nonsense (a string of hosts loads as
    one host per character) or failing with an untyped error."""
    with pytest.raises(ValueError, match=field):
        load(doc)


#: arbitrary JSON values
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 1 << 40)
    | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=6), kids, max_size=3),
    max_leaves=8,
)


def _documents(sections: tuple, spec_classes: tuple):
    """Documents shaped like a loader's input, with any value anywhere:
    real section and field names, so valid entries turn up too."""
    fields = sorted({f.name for cls in spec_classes for f in dataclasses.fields(cls)})
    entry = st.dictionaries(st.sampled_from(fields), _JSON, max_size=4) | _JSON
    value = st.lists(entry, max_size=3) | _JSON
    keys = st.sampled_from(("name", "seed", "ecmp_seed") + sections)
    return st.dictionaries(keys, value, max_size=5) | _JSON


def _loads_or_value_error(load, doc) -> None:
    try:
        load(doc)
    except ValueError:
        pass


@settings(max_examples=150, deadline=None, derandomize=True)
@given(doc=_documents(("hosts", "switches", "links"), (SwitchSpec, LinkSpec)))
def test_topology_loader_raises_only_value_error(doc):
    """Any document either loads or raises ValueError; never a KeyError or
    TypeError from inside the spec constructors."""
    _loads_or_value_error(TopologySpec.from_dict, doc)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(doc=_documents(tuple(_PLAN_SECTIONS), tuple(_PLAN_SECTIONS.values())))
def test_fault_plan_loader_raises_only_value_error(doc):
    """Any document either loads or raises ValueError; never a KeyError or
    TypeError from inside the spec constructors."""
    _loads_or_value_error(FaultPlan.from_dict, doc)


class TestGenerators:
    def test_fat_tree2_oversubscription_reported(self):
        spec = make_topology("fat_tree2", 64, oversubscription=4.0)
        assert spec.oversubscription() == pytest.approx(4.0)

    def test_fat_tree3_tier_names(self):
        spec = fat_tree(tiers=3, k=4)
        tiers = {s.tier for s in spec.switches}
        assert tiers == {"edge", "agg", "spine"}

    def test_dragonfly_has_global_links(self):
        spec = dragonfly(groups=4)
        globals_ = [l for l in spec.trunk_links() if "g" in l.a and "g" in l.b
                    and l.a.split("r")[0] != l.b.split("r")[0]]
        assert globals_  # at least one inter-group trunk

    def test_pair_and_star_are_degenerate(self):
        assert pair_topology().switches == ()
        star = star_topology(4)
        assert len(star.switches) == 1
        assert not star.trunk_links()


# ---------------------------------------------------------------------------
# routing determinism
# ---------------------------------------------------------------------------


class TestRoutingDeterminism:
    def test_identical_tables_across_two_builds(self):
        spec = make_topology("fat_tree2", 32, oversubscription=1.0)
        r1, r2 = RouteTables(spec), RouteTables(spec)
        edges = sorted({spec.edge_of(h) for h in spec.hosts})
        for edge in edges:
            assert r1.table_for(edge) == r2.table_for(edge)

    def test_ecmp_pick_is_seeded_and_stable(self):
        picks = [ecmp_pick("s", "h0>h9", "sw1", 4) for _ in range(8)]
        assert len(set(picks)) == 1
        assert ecmp_pick("other-seed", "h0>h9", "sw1", 97) != \
            ecmp_pick("s", "h0>h9", "sw1", 97) or True  # differs or collides
        assert 0 <= picks[0] < 4

    def test_kill_and_revive_flip_liveness(self):
        spec = make_topology("fat_tree2", 16, oversubscription=1.0)
        routes = RouteTables(spec)
        trunk = spec.trunk_links()[0]
        v0 = routes.version
        assert routes.is_live(trunk.a, trunk.b)
        assert routes.kill_link(trunk.a, trunk.b)
        assert not routes.is_live(trunk.a, trunk.b)
        assert routes.version > v0
        routes.revive_link(trunk.a, trunk.b)
        assert routes.is_live(trunk.a, trunk.b)


# ---------------------------------------------------------------------------
# bit-identical collectives at scale (the acceptance bar)
# ---------------------------------------------------------------------------


class TestCollectiveDeterminism:
    @pytest.mark.parametrize("backend", ["memcpy", "ioat"])
    def test_256_host_allreduce_bit_identical(self, backend):
        kw = dict(topology="fat_tree2", hosts=256, oversubscription=1.0,
                  collective="allreduce", size=64 * KiB, backend=backend)
        assert run_fabric_collective(**kw) == run_fabric_collective(**kw)

    def test_backends_differ(self):
        kw = dict(topology="fat_tree2", hosts=16, size=64 * KiB,
                  hosts_per_edge=4)
        t_memcpy = run_fabric_collective(backend="memcpy", **kw)["time_ns"]
        t_ioat = run_fabric_collective(backend="ioat", **kw)["time_ns"]
        assert t_ioat < t_memcpy  # overlapped DMA beats the contended bus

    def test_oversubscription_hurts(self):
        kw = dict(topology="fat_tree2", hosts=16, size=256 * KiB,
                  hosts_per_edge=4, backend="ioat")
        t1 = run_fabric_collective(oversubscription=1.0, **kw)["time_ns"]
        t4 = run_fabric_collective(oversubscription=4.0, **kw)["time_ns"]
        assert t4 > t1

    @pytest.mark.parametrize("collective",
                             ["barrier", "bcast", "alltoall", "allgather"])
    def test_other_collectives_complete(self, collective):
        out = run_fabric_collective(hosts=8, hosts_per_edge=4, size=4 * KiB,
                                    collective=collective)
        assert out["events"] > 0 and out["time_ns"] > 0


# ---------------------------------------------------------------------------
# fault cells: spine kill mid-allreduce
# ---------------------------------------------------------------------------


class TestFabricFaults:
    REROUTE_KW = dict(hosts=16, hosts_per_edge=4, oversubscription=2.0,
                      size=256 * KiB, kill_at=1_000_000)
    PARTITION_KW = dict(hosts=16, hosts_per_edge=4, oversubscription=4.0,
                        size=256 * KiB, kill_at=50_000)

    def test_spine_kill_reroutes(self):
        out = run_fabric_cell(**self.REROUTE_KW)
        assert out["outcome"] == "rerouted"
        assert out["fabric_faults_armed"] == 1
        assert out["net"]["chunks_rerouted"] > 0

    def test_single_spine_kill_partitions(self):
        out = run_fabric_cell(**self.PARTITION_KW)
        assert out["outcome"] == "failed:FabricPartitioned"

    @pytest.mark.parametrize("kw", [REROUTE_KW, PARTITION_KW],
                             ids=["reroute", "partition"])
    def test_cells_bit_identical(self, kw):
        assert run_fabric_cell(**kw) == run_fabric_cell(**kw)

    def test_plan_round_trip(self):
        spec = make_topology("fat_tree2", 16, oversubscription=2.0,
                             hosts_per_edge=4)
        plan = spine_kill_plan(spec, at=1_000_000)
        assert FaultPlan.from_dict(plan.to_dict()) == plan
        assert plan.fabric[0].action == "kill"

    def test_bad_action_rejected(self):
        with pytest.raises(ValueError):
            FabricFaultSpec(link="a~b", action="explode")

    def test_unknown_link_rejected(self):
        spec = make_topology("fat_tree2", 8, hosts_per_edge=4)
        world = launch_fabric_world(spec)
        plan = FaultPlan(name="bad", fabric=(
            FabricFaultSpec(link="no~such", action="kill", at=0),))
        with pytest.raises(KeyError):
            arm_plan(world, plan)

    def test_fabric_plan_needs_fabric_testbed(self):
        from repro import build_testbed
        plan = FaultPlan(name="bad", fabric=(
            FabricFaultSpec(link="a~b", action="kill", at=0),))
        with pytest.raises(ValueError):
            arm_plan(build_testbed(), plan)


# ---------------------------------------------------------------------------
# race detector + teardown sanitizers
# ---------------------------------------------------------------------------


class TestFabricRaces:
    def test_small_fat_tree_allreduce_race_free(self):
        from repro.analysis.races import RaceDetector
        det = RaceDetector(fabric_scenario(hosts=8, size=4 * KiB),
                           name="fabric/4KiB", seeds=(1, 2))
        report = det.run()
        assert report.ok, report.format()

    def test_teardown_clean_at_128_hosts(self):
        spec = make_topology("fat_tree2", 128, oversubscription=1.0)
        world = launch_fabric_world(spec, backend="ioat")
        from repro.fabric.sweep import collective_body
        world.run_spmd(collective_body("allreduce", 4 * KiB),
                       max_events=MAXEV)
        world.finish()  # sanitizers: no stuck process, no leaked message


# ---------------------------------------------------------------------------
# the full-hardware path: build_fabric_testbed + wrappers
# ---------------------------------------------------------------------------


class TestHardwareFabric:
    def _allreduce_sums(self, tb, algo="auto"):
        """Run a float32 allreduce of rank+1; returns {rank: ndarray}.

        Small integers sum exactly in float32, so the result is
        byte-identical whatever reduction order the algorithm uses.
        """
        from repro.mpi import create_world
        comm = create_world(tb, ppn=1)
        n = 4 * KiB
        out = {}

        def body(rank):
            sb = rank.space.alloc(n)
            rb = rank.space.alloc(n)
            sb.read().view(np.float32)[:] = float(rank.rank + 1)
            yield from rank.allreduce(sb, rb, algo=algo)
            out[rank.rank] = rb.read().view(np.float32).copy()

        comm.run_spmd(body, max_events=MAXEV)
        return out

    def _assert_sums(self, out, p):
        expected = sum(range(1, p + 1))
        assert len(out) == p
        for r, vals in out.items():
            assert np.all(vals == expected), f"rank {r}"

    def test_multi_switch_allreduce_all_ranks_agree(self):
        spec = make_topology("fat_tree2", 4, hosts_per_edge=2)
        tb = build_fabric_testbed(spec)
        assert len(tb.switches) > 1 and tb.trunks
        self._assert_sums(self._allreduce_sums(tb), 4)

    @pytest.mark.parametrize("algo", ["ring", "rd"])
    def test_explicit_algos_sum_correctly(self, algo):
        from repro.ethernet.switch import build_switched_testbed
        out = self._allreduce_sums(build_switched_testbed(4), algo=algo)
        self._assert_sums(out, 4)

    def test_trunk_ecmp_spreads_flows(self, monkeypatch):
        """Both spines of a 1:1 fat tree carry frames under all-pairs load.

        The trunk ECMP hash mixes the NIC MACs, which come from a
        process-global host-id counter — pin it so the flow->spine
        assignment doesn't depend on how many hosts earlier tests built.
        """
        import itertools
        import repro.cluster.host as host_mod
        monkeypatch.setattr(host_mod, "_HOST_IDS", itertools.count(1000))
        spec = make_topology("fat_tree2", 4, hosts_per_edge=2)
        tb = build_fabric_testbed(spec)
        self._assert_sums(self._allreduce_sums(tb), 4)
        spines = [sw for name, sw in sorted(tb.switches.items())
                  if name.startswith("spine")]
        assert len(spines) >= 2
        assert all(sw.forwarded > 0 for sw in spines)

    def test_switch_metrics_registered(self):
        spec = make_topology("fat_tree2", 4, hosts_per_edge=2)
        tb = build_fabric_testbed(spec)
        self._allreduce_sums(tb)
        snap = tb.metrics.snapshot()
        fwd = {k: v for k, v in snap.items() if k.endswith("_forwarded")
               and "_p" not in k.rsplit("sw_", 1)[-1]}
        assert any(v > 0 for v in fwd.values())

    def test_unroutable_frame_dropped_not_flooded(self):
        spec = make_topology("fat_tree2", 4, hosts_per_edge=2)
        tb = build_fabric_testbed(spec)
        sw = next(iter(tb.switches.values()))
        assert sw._routes  # static-route mode: no learning, no flooding

    def test_wrappers_preserve_shapes(self):
        from repro import build_testbed
        from repro.ethernet.switch import build_switched_testbed
        tb = build_testbed()
        assert len(tb.hosts) == 2 and tb.link is not None
        stb = build_switched_testbed(3)
        assert len(stb.hosts) == 3 and stb.switch is not None
        assert not stb.switch._routes  # lone switch keeps learning mode
