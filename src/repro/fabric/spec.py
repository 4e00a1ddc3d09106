"""Declarative topology specs and the standard generators.

A :class:`TopologySpec` is pure data — hosts, switches, and links with
per-link rate/latency — with no reference to any simulator.  Like
:class:`~repro.faults.plan.FaultPlan` it round-trips through JSON, so a
fabric sweep point's identity is fully describable by its parameters and
the sweep executor can cache it.

Conventions:

* hosts are named ``node0..nodeN-1`` (matching the historical testbed
  factories, whose pair/star shapes are degenerate cases of this spec);
* switches carry a ``tier`` label (``"edge"``/``"agg"``/``"spine"``) used
  by reports and fault plans ("kill a spine link");
* links are named ``"<a>~<b>"`` and are full duplex; every host attaches
  to exactly one switch (single-homed) unless the spec is the switchless
  back-to-back pair.

Oversubscription is expressed structurally: :func:`fat_tree` trims the
number of spine (or core) switches so the ratio of edge downlink to uplink
capacity equals the requested factor — the same way real clusters are
oversubscribed — rather than by scaling trunk rates.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Optional

from repro import units
from repro.units import ns

#: default link rate: the testbed's 10 GbE (bytes/s)
DEFAULT_BW = units.TEN_GBE_BYTES_PER_SECOND

#: default one-way propagation latency per cable hop
DEFAULT_LATENCY = ns(300)


@dataclass(frozen=True)
class SwitchSpec:
    """One switch: a name, a tier label, and a forwarding latency."""

    name: str
    tier: str = "edge"  # "edge" | "agg" | "spine"
    forwarding_latency: int = ns(500)


@dataclass(frozen=True)
class LinkSpec:
    """One full-duplex cable between two named endpoints.

    Endpoints are host or switch names; ``bw`` is bytes/s per direction.
    """

    a: str
    b: str
    bw: float = DEFAULT_BW
    latency: int = DEFAULT_LATENCY

    @property
    def name(self) -> str:
        return f"{self.a}~{self.b}"


@dataclass(frozen=True)
class TopologySpec:
    """A named fabric: hosts, switches, links, and an ECMP seed."""

    name: str
    hosts: tuple = ()
    switches: tuple = ()
    links: tuple = ()
    #: seed mixed into every ECMP path choice (crc32-based, platform stable)
    ecmp_seed: str = "fabric"

    # -- derived views ---------------------------------------------------

    def switch_names(self) -> list[str]:
        return [s.name for s in self.switches]

    def host_links(self) -> list[LinkSpec]:
        """Links with at least one host endpoint."""
        hosts = set(self.hosts)
        return [l for l in self.links if l.a in hosts or l.b in hosts]

    def trunk_links(self) -> list[LinkSpec]:
        """Switch-to-switch links."""
        hosts = set(self.hosts)
        return [l for l in self.links
                if l.a not in hosts and l.b not in hosts]

    def edge_of(self, host: str) -> Optional[str]:
        """The switch a host attaches to (None for back-to-back links)."""
        for l in self.links:
            if l.a == host and l.b not in set(self.hosts):
                return l.b
            if l.b == host and l.a not in set(self.hosts):
                return l.a
        return None

    def link_named(self, name: str) -> LinkSpec:
        for l in self.links:
            if l.name == name or f"{l.b}~{l.a}" == name:
                return l
        raise KeyError(f"no link named {name!r} in topology {self.name!r}")

    def neighbors(self) -> dict[str, list[str]]:
        """Adjacency over hosts + switches (sorted, deterministic)."""
        adj: dict[str, list[str]] = {n: [] for n in
                                     list(self.hosts) + self.switch_names()}
        for l in self.links:
            adj[l.a].append(l.b)
            adj[l.b].append(l.a)
        for peers in adj.values():
            peers.sort()
        return adj

    # -- validation ------------------------------------------------------

    def validate(self) -> None:
        """Raise ValueError on structural nonsense (names, connectivity)."""
        names = list(self.hosts) + self.switch_names()
        if len(set(names)) != len(names):
            raise ValueError(f"{self.name}: duplicate node names")
        if not self.hosts:
            raise ValueError(f"{self.name}: a topology needs hosts")
        known = set(names)
        seen_links = set()
        for l in self.links:
            if l.a not in known or l.b not in known:
                raise ValueError(f"{self.name}: link {l.name} references "
                                 "an unknown endpoint")
            if l.a == l.b:
                raise ValueError(f"{self.name}: self-link {l.name}")
            key = tuple(sorted((l.a, l.b)))
            if key in seen_links:
                raise ValueError(f"{self.name}: duplicate link {l.name}")
            seen_links.add(key)
            if l.bw <= 0 or l.latency < 0:
                raise ValueError(f"{self.name}: link {l.name} has a "
                                 "non-positive rate or negative latency")
        hosts = set(self.hosts)
        degree: dict[str, int] = {h: 0 for h in self.hosts}
        for l in self.links:
            for end in (l.a, l.b):
                if end in hosts:
                    degree[end] += 1
        for host, d in degree.items():
            if d != 1:
                raise ValueError(f"{self.name}: host {host} has {d} links "
                                 "(hosts must be single-homed)")
        if not self.connected():
            raise ValueError(f"{self.name}: fabric is not connected")

    def connected(self) -> bool:
        """True when every node is reachable from the first host (BFS)."""
        adj = self.neighbors()
        if not adj:
            return False
        start = self.hosts[0]
        seen = {start}
        frontier = [start]
        while frontier:
            nxt = []
            for node in frontier:
                for peer in adj[node]:
                    if peer not in seen:
                        seen.add(peer)
                        nxt.append(peer)
            frontier = nxt
        return len(seen) == len(adj)

    # -- summary numbers (CLI / reports) ---------------------------------

    def oversubscription(self) -> float:
        """Worst edge-switch downlink:uplink capacity ratio (1.0 = full
        bisection; 0 when there are no trunks)."""
        hosts = set(self.hosts)
        down: dict[str, float] = {}
        up: dict[str, float] = {}
        for l in self.links:
            if l.a in hosts or l.b in hosts:
                sw = l.b if l.a in hosts else l.a
                down[sw] = down.get(sw, 0.0) + l.bw
            else:
                up[l.a] = up.get(l.a, 0.0) + l.bw
                up[l.b] = up.get(l.b, 0.0) + l.bw
        worst = 0.0
        for sw, cap in sorted(down.items()):
            if sw in up:
                worst = max(worst, cap / up[sw])
        return worst

    def diameter_hops(self) -> int:
        """Longest shortest host-to-host path, in link hops (BFS)."""
        adj = self.neighbors()
        worst = 0
        # BFS from every *switch* and read off host eccentricity through
        # its edge — hosts are leaves, so host-to-host = 1 + sw-path + 1.
        probes = self.switch_names() or [self.hosts[0]]
        for start in probes:
            dist = {start: 0}
            frontier = [start]
            while frontier:
                nxt = []
                for node in frontier:
                    for peer in adj[node]:
                        if peer not in dist:
                            dist[peer] = dist[node] + 1
                            nxt.append(peer)
                frontier = nxt
            worst = max(worst, max(d for n, d in dist.items()
                                   if n in set(self.hosts)))
        if not self.switch_names():
            return worst
        return worst + 1  # + the source host's own access link

    # -- JSON round-trip -------------------------------------------------

    def to_dict(self) -> dict:
        d = asdict(self)
        d["hosts"] = list(d["hosts"])
        d["switches"] = list(d["switches"])
        d["links"] = list(d["links"])
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "TopologySpec":
        from repro.faults.plan import check_document, load_entries

        check_document(d, "topology", ("hosts", "switches", "links"))
        return cls(
            name=d["name"],
            hosts=tuple(d.get("hosts", ())),
            switches=load_entries(d, "topology", "switches", SwitchSpec),
            links=load_entries(d, "topology", "links", LinkSpec),
            ecmp_seed=d.get("ecmp_seed", "fabric"),
        )


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def pair_topology(bw: float = DEFAULT_BW,
                  latency: int = DEFAULT_LATENCY) -> TopologySpec:
    """The paper's setup: two hosts, one cable, no switch."""
    return TopologySpec(
        name="pair",
        hosts=("node0", "node1"),
        links=(LinkSpec("node0", "node1", bw, latency),),
    )


def star_topology(n_hosts: int, bw: float = DEFAULT_BW,
                  latency: int = DEFAULT_LATENCY) -> TopologySpec:
    """N hosts around one switch (the historical incast testbed)."""
    if n_hosts < 2:
        raise ValueError("a star needs at least 2 hosts")
    hosts = tuple(f"node{i}" for i in range(n_hosts))
    return TopologySpec(
        name=f"star{n_hosts}",
        hosts=hosts,
        switches=(SwitchSpec("sw0"),),
        links=tuple(LinkSpec(h, "sw0", bw, latency) for h in hosts),
    )


def fat_tree(hosts: int = 0, tiers: int = 2, hosts_per_edge: int = 8,
             oversubscription: float = 1.0, k: int = 0,
             bw: float = DEFAULT_BW, trunk_bw: Optional[float] = None,
             latency: int = DEFAULT_LATENCY,
             ecmp_seed: str = "fabric") -> TopologySpec:
    """A 2- or 3-tier fat tree.

    2-tier (leaf/spine): ``hosts`` split over edge switches of
    ``hosts_per_edge`` ports each; every edge trunks to every spine, and
    the spine count is ``hosts_per_edge / oversubscription`` (so 1.0 is
    full bisection, 2.0 halves the uplink capacity).

    3-tier (k-ary Clos, ``k`` even): k pods of k/2 edge + k/2 aggregation
    switches, ``(k/2)^2 / oversubscription`` core switches, ``k^3/4``
    hosts; ``hosts``/``hosts_per_edge`` are derived from ``k``.
    """
    trunk = bw if trunk_bw is None else trunk_bw
    if tiers == 2:
        return _fat_tree2(hosts, hosts_per_edge, oversubscription,
                          bw, trunk, latency, ecmp_seed)
    if tiers == 3:
        return _fat_tree3(k, oversubscription, bw, trunk, latency, ecmp_seed)
    raise ValueError(f"fat_tree supports 2 or 3 tiers, not {tiers}")


def _fat_tree2(hosts: int, hosts_per_edge: int, oversub: float,
               bw: float, trunk: float, latency: int,
               ecmp_seed: str) -> TopologySpec:
    if hosts < 2 or hosts_per_edge < 1:
        raise ValueError("fat_tree(tiers=2) needs hosts >= 2 and "
                         "hosts_per_edge >= 1")
    if hosts % hosts_per_edge:
        raise ValueError(f"hosts ({hosts}) must be a multiple of "
                         f"hosts_per_edge ({hosts_per_edge})")
    if oversub < 1.0:
        raise ValueError("oversubscription must be >= 1.0")
    n_edges = hosts // hosts_per_edge
    n_spines = max(1, int(round(hosts_per_edge / oversub)))
    host_names = tuple(f"node{i}" for i in range(hosts))
    edges = [SwitchSpec(f"edge{e}", "edge") for e in range(n_edges)]
    spines = [SwitchSpec(f"spine{s}", "spine") for s in range(n_spines)]
    links = []
    for i, h in enumerate(host_names):
        links.append(LinkSpec(h, f"edge{i // hosts_per_edge}", bw, latency))
    for e in range(n_edges):
        for s in range(n_spines):
            links.append(LinkSpec(f"edge{e}", f"spine{s}", trunk, latency))
    return TopologySpec(
        name=f"fat_tree2[{hosts}h,{n_edges}e,{n_spines}s,os={oversub:g}]",
        hosts=host_names,
        switches=tuple(edges + spines),
        links=tuple(links),
        ecmp_seed=ecmp_seed,
    )


def _fat_tree3(k: int, oversub: float, bw: float, trunk: float,
               latency: int, ecmp_seed: str) -> TopologySpec:
    if k < 2 or k % 2:
        raise ValueError("fat_tree(tiers=3) needs an even k >= 2")
    if oversub < 1.0:
        raise ValueError("oversubscription must be >= 1.0")
    half = k // 2
    n_cores = max(1, int(round(half * half / oversub)))
    hosts = []
    switches = []
    links = []
    for pod in range(k):
        for e in range(half):
            edge = f"p{pod}edge{e}"
            switches.append(SwitchSpec(edge, "edge"))
            for h in range(half):
                host = f"node{pod * half * half + e * half + h}"
                hosts.append(host)
                links.append(LinkSpec(host, edge, bw, latency))
        for a in range(half):
            agg = f"p{pod}agg{a}"
            switches.append(SwitchSpec(agg, "agg"))
            for e in range(half):
                links.append(LinkSpec(f"p{pod}edge{e}", agg, trunk, latency))
    for c in range(n_cores):
        switches.append(SwitchSpec(f"core{c}", "spine"))
        for pod in range(k):
            # core c homes on aggregation switch c // half of each pod
            agg = f"p{pod}agg{(c // half) % half}"
            links.append(LinkSpec(agg, f"core{c}", trunk, latency))
    return TopologySpec(
        name=f"fat_tree3[k={k},{len(hosts)}h,{n_cores}c,os={oversub:g}]",
        hosts=tuple(hosts),
        switches=tuple(switches),
        links=tuple(links),
        ecmp_seed=ecmp_seed,
    )


def dragonfly(groups: int = 4, routers_per_group: int = 2,
              hosts_per_router: int = 2,
              bw: float = DEFAULT_BW, trunk_bw: Optional[float] = None,
              latency: int = DEFAULT_LATENCY,
              ecmp_seed: str = "fabric") -> TopologySpec:
    """A dragonfly: all-to-all routers inside each group, one global link
    between every group pair (assigned round-robin over the group's
    routers)."""
    if groups < 2 or routers_per_group < 1 or hosts_per_router < 1:
        raise ValueError("dragonfly needs >= 2 groups and >= 1 "
                         "router/host per group")
    trunk = bw if trunk_bw is None else trunk_bw
    hosts = []
    switches = []
    links = []
    for g in range(groups):
        for r in range(routers_per_group):
            name = f"g{g}r{r}"
            switches.append(SwitchSpec(name, "edge"))
            for h in range(hosts_per_router):
                host = (f"node{(g * routers_per_group + r) * hosts_per_router + h}")
                hosts.append(host)
                links.append(LinkSpec(host, name, bw, latency))
        for r in range(routers_per_group):
            for r2 in range(r + 1, routers_per_group):
                links.append(LinkSpec(f"g{g}r{r}", f"g{g}r{r2}",
                                      trunk, latency))
    pair_index = 0
    for g in range(groups):
        for g2 in range(g + 1, groups):
            ra = pair_index % routers_per_group
            rb = (pair_index + 1) % routers_per_group
            links.append(LinkSpec(f"g{g}r{ra}", f"g{g2}r{rb}",
                                  trunk, latency))
            pair_index += 1
    return TopologySpec(
        name=f"dragonfly[{groups}g,{routers_per_group}r,{hosts_per_router}h]",
        hosts=tuple(hosts),
        switches=tuple(switches),
        links=tuple(links),
        ecmp_seed=ecmp_seed,
    )
