"""Fat-tree / multi-rooted Clos topology builder.

Builds the paper's testbed by default: 32 hosts, 4 ToR + 4 spine + 2 core
switches in a 3-layer fat-tree (§7.1), with every physical switch split
into *up* and *down* logical halves joined by an internal loopback link
(Fig. 3).  Forwarding delay is charged once per physical traversal: the
down half skips its pipeline delay for packets arriving on the loopback,
so path latency scales with the paper's 1/3/5 switch-hop counts.

Process placement follows §7.1: up to 8 processes sit in one rack on
distinct servers, 16 use two racks of the same pod, 32 use every server,
and larger counts stack processes per host evenly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.clock import ClockSyncService, SkewModel
from repro.net.link import Link, gbps_to_bytes_per_ns
from repro.net.nic import Host
from repro.net.routing import compute_routes
from repro.net.switch import Switch
from repro.sim import Simulator


@dataclass(frozen=True)
class TopologyParams:
    """Knobs for the fat-tree builder (defaults = paper testbed)."""

    n_pods: int = 2
    tors_per_pod: int = 2
    spines_per_pod: int = 2
    n_cores: int = 2
    hosts_per_tor: int = 8
    host_link_gbps: float = 100.0
    fabric_link_gbps: float = 100.0
    oversubscription: float = 1.0  # divides core-link bandwidth (Fig. 12b)
    link_prop_delay_ns: int = 100
    forwarding_delay_ns: int = 250
    nic_delay_ns: int = 250
    queue_capacity_bytes: Optional[int] = 200_000
    ecn_threshold_bytes: Optional[int] = 80_000
    loss_rate: float = 0.0
    skew_model: SkewModel = field(default_factory=SkewModel)
    clock_sync_interval_ns: int = 1_000_000

    @property
    def n_hosts(self) -> int:
        return self.n_pods * self.tors_per_pod * self.hosts_per_tor


@dataclass(frozen=True)
class FatTreeDescriptor:
    """Closed-form description of a fat-tree — no objects, no simulator.

    The hyperscale hybrid mode (:mod:`repro.hybrid`) models topologies of
    10k–1M hosts whose cold regions are never instantiated; everything it
    needs about them — counts, hop distances, path latencies, beacon-wave
    bounds — is a pure function of the :class:`TopologyParams` geometry.
    The descriptor computes those functions with the *same constants* the
    event-level builder uses, so a closed-form latency equals what a
    packet would measure on the idle instantiated topology (asserted by
    ``tests/hybrid/test_flow_model.py``).
    """

    params: TopologyParams

    @property
    def n_pods(self) -> int:
        return self.params.n_pods

    @property
    def n_hosts(self) -> int:
        return self.params.n_hosts

    @property
    def hosts_per_pod(self) -> int:
        return self.params.tors_per_pod * self.params.hosts_per_tor

    @property
    def n_switches(self) -> int:
        """Logical switches: up/down halves per ToR and spine, plus cores."""
        params = self.params
        return (
            2 * params.n_pods * (params.tors_per_pod + params.spines_per_pod)
            + params.n_cores
        )

    @property
    def n_links(self) -> int:
        """Directed links, internal loopbacks included (builder parity)."""
        params = self.params
        per_pod = (
            params.spines_per_pod                      # spine loopbacks
            + params.tors_per_pod                      # tor loopbacks
            + 2 * params.tors_per_pod * params.spines_per_pod  # tor<->spine
            + 2 * params.tors_per_pod * params.hosts_per_tor   # host links
        )
        core = 2 * params.n_pods * params.n_cores      # spine<->core striping
        return params.n_pods * per_pod + core

    @property
    def n_external_links(self) -> int:
        """Physical (non-loopback) directed links."""
        params = self.params
        return self.n_links - params.n_pods * (
            params.spines_per_pod + params.tors_per_pod
        )

    # ------------------------------------------------------------------
    # Closed-form path latency (idle network, zero queueing)
    # ------------------------------------------------------------------
    def switch_hops(self, same_rack: bool, same_pod: bool) -> int:
        """Physical switch traversals on a shortest path (paper 1/3/5)."""
        if same_rack:
            return 1
        return 3 if same_pod else 5

    def idle_path_ns(
        self, payload_bytes: int, same_rack: bool = False,
        same_pod: bool = False,
    ) -> int:
        """One-way latency of a single packet on an idle shortest path.

        NIC delay + per-link serialization and propagation + one
        forwarding delay per physical switch traversal — exactly the
        constants :func:`build_fat_tree` wires into hosts, links and
        switches.  Serialization is charged per hop (store-and-forward).
        """
        params = self.params
        hops = self.switch_hops(same_rack, same_pod)
        n_links = hops + 1
        wire = payload_bytes
        host_ser = int(wire / gbps_to_bytes_per_ns(params.host_link_gbps))
        fabric_ser = int(wire / gbps_to_bytes_per_ns(params.fabric_link_gbps))
        core_ser = int(
            wire / (
                gbps_to_bytes_per_ns(params.fabric_link_gbps)
                / params.oversubscription
            )
        )
        if hops == 1:
            ser = 2 * host_ser
        elif hops == 3:
            ser = 2 * host_ser + 2 * fabric_ser
        else:
            ser = 2 * host_ser + 2 * fabric_ser + 2 * core_ser
        return (
            params.nic_delay_ns
            + ser
            + n_links * params.link_prop_delay_ns
            + hops * params.forwarding_delay_ns
        )

    @property
    def cross_pod_lookahead_ns(self) -> int:
        """Conservative lookahead for pod-sharded simulation.

        The minimum simulated time in which *anything* leaving one pod
        can influence another: a minimal (header-only) packet crossing
        the inter-pod path.  Space-sharded windows no longer than this
        can exchange cross-shard events at window barriers without ever
        needing an event from the current window (repro.parallel
        ``run_sharded``).
        """
        from repro.net.packet import HEADER_OVERHEAD_BYTES

        return self.idle_path_ns(
            HEADER_OVERHEAD_BYTES, same_rack=False, same_pod=False
        ) - self.params.nic_delay_ns  # NIC egress happens pod-locally

    def beacon_wave_bound_ns(self) -> int:
        """Upper bound on one beacon wave crossing a pod to the core.

        Host → ToR → spine → core: the longest leg of the §4.2 barrier
        wave that a cold pod contributes to the cluster-wide commit
        floor.  Closed-form twin of the event-level beacon path (same
        serialization/propagation/forwarding constants).
        """
        from repro.net.packet import BEACON_BYTES

        params = self.params
        host_ser = int(BEACON_BYTES / gbps_to_bytes_per_ns(params.host_link_gbps))
        fabric_ser = int(
            BEACON_BYTES / gbps_to_bytes_per_ns(params.fabric_link_gbps)
        )
        core_ser = int(
            BEACON_BYTES / (
                gbps_to_bytes_per_ns(params.fabric_link_gbps)
                / params.oversubscription
            )
        )
        return (
            host_ser + fabric_ser + core_ser
            + 3 * params.link_prop_delay_ns
            + 3 * params.forwarding_delay_ns
        )


def fat_tree_descriptor(k: int, hosts_per_tor: int = 0) -> FatTreeDescriptor:
    """Descriptor for a classic k-ary fat-tree (k pods, (k/2)^2 cores,
    k/2 ToR + k/2 spine switches per pod, ``hosts_per_tor`` defaulting
    to the canonical k/2; another value gives the half/double-density
    variants).  ``.params`` feeds :func:`build_fat_tree`."""
    if k < 2 or k % 2:
        raise ValueError(f"fat-tree k must be even and >= 2: {k}")
    radix = k // 2
    return FatTreeDescriptor(TopologyParams(
        n_pods=k,
        tors_per_pod=radix,
        spines_per_pod=radix,
        n_cores=radix * radix,
        hosts_per_tor=hosts_per_tor or radix,
    ))


class Topology:
    """A built network: nodes, links, clocks.  It is its own routing
    graph — each node's ``out_links`` / ``in_links``, in insertion order."""

    def __init__(self, sim: Simulator, params: TopologyParams) -> None:
        self.sim = sim
        self.params = params
        self.hosts: List[Host] = []
        self._host_by_id: Dict[str, Host] = {}
        self.switches: Dict[str, Switch] = {}
        self.links: Dict[str, Link] = {}
        self.clock_sync = ClockSyncService(
            sim,
            skew_model=params.skew_model,
            sync_interval_ns=params.clock_sync_interval_ns,
        )

    # ------------------------------------------------------------------
    # Construction helpers (used by build_fat_tree)
    # ------------------------------------------------------------------
    def add_switch(self, node_id: str, forwarding_delay_ns: int) -> Switch:
        switch = Switch(self.sim, node_id, forwarding_delay_ns)
        self.switches[node_id] = switch
        return switch

    def add_host(self, node_id: str, is_master_clock: bool = False) -> Host:
        clock = self.clock_sync.register(node_id, is_master=is_master_clock)
        host = Host(
            self.sim, node_id, clock=clock, nic_delay_ns=self.params.nic_delay_ns
        )
        self.hosts.append(host)
        self._host_by_id[node_id] = host
        return host

    def add_link(
        self,
        src,
        dst,
        bandwidth_gbps: float,
        internal: bool = False,
        prop_delay_ns: Optional[int] = None,
    ) -> Link:
        params = self.params
        name = f"{src.node_id}->{dst.node_id}"
        if name in self.links:
            raise ValueError(f"duplicate link {name}")
        # Internal loopbacks model the switching fabric, which is
        # non-blocking: give them effectively infinite bandwidth so
        # contention shows up at egress ports (real links), not inside
        # the switch.
        if internal:
            bandwidth_gbps = 1_000_000.0
        link = Link(
            self.sim,
            name,
            src,
            dst,
            bandwidth_gbps=bandwidth_gbps,
            prop_delay_ns=(
                prop_delay_ns
                if prop_delay_ns is not None
                else (0 if internal else params.link_prop_delay_ns)
            ),
            queue_capacity_bytes=None if internal else params.queue_capacity_bytes,
            ecn_threshold_bytes=None if internal else params.ecn_threshold_bytes,
            loss_rate=0.0 if internal else params.loss_rate,
        )
        link.internal = internal  # type: ignore[attr-defined]
        self.links[name] = link
        src.attach_out_link(link)
        dst.attach_in_link(link)
        return link

    # ------------------------------------------------------------------
    # Lookup / utilities
    # ------------------------------------------------------------------
    def host(self, index: int) -> Host:
        return self.hosts[index]

    def host_by_id(self, node_id: str) -> Host:
        return self._host_by_id[node_id]

    def node(self, node_id: str):
        switch = self.switches.get(node_id)
        return switch if switch is not None else self._host_by_id[node_id]

    def link(self, src_id: str, dst_id: str) -> Link:
        return self.links[f"{src_id}->{dst_id}"]

    def external_links(self) -> List[Link]:
        """All physical (non-loopback) links."""
        return [
            link
            for link in self.links.values()
            if not getattr(link, "internal", False)
        ]

    def set_loss_rate(self, loss_rate: float) -> None:
        """Apply a corruption probability to every physical link."""
        for link in self.external_links():
            link.set_loss_rate(loss_rate)

    def tor_of(self, host_id: str) -> str:
        """Physical ToR name (without the .up/.down suffix) of a host."""
        for link in self.host_by_id(host_id).out_links:
            dst = link.dst.node_id
            if dst.endswith(".up"):
                return dst[: -len(".up")]
        raise KeyError(f"no ToR found for {host_id}")

    def start_clock_sync(self) -> None:
        self.clock_sync.start()

    # ------------------------------------------------------------------
    # Process placement (paper §7.1)
    # ------------------------------------------------------------------
    def assign_hosts(self, n_procs: int) -> List[Host]:
        """Host for each of ``n_procs`` process slots, paper-style.

        - ``n <= hosts_per_tor``: distinct servers in one rack (1 hop);
        - ``n <= 2 * hosts_per_tor``: two racks of the same pod (3 hops);
        - ``n <= n_hosts``: spread over all racks (5 hops);
        - larger: processes stacked evenly over all hosts.
        """
        if n_procs <= 0:
            raise ValueError(f"n_procs must be positive: {n_procs}")
        params = self.params
        per_rack = params.hosts_per_tor
        if n_procs <= per_rack:
            pool = self.hosts[:per_rack]
        elif n_procs <= 2 * per_rack and params.tors_per_pod >= 2:
            pool = self.hosts[: 2 * per_rack]
        else:
            pool = self.hosts
        return [pool[i % len(pool)] for i in range(n_procs)]


def build_fat_tree(
    sim: Simulator,
    params: Optional[TopologyParams] = None,
    install_routes: bool = True,
) -> Topology:
    """Build a pods/spines/cores fat-tree with logical up/down switches.

    ``install_routes=False`` skips route installation — used by
    construction-invariant tests on very large geometries (k=32: 8k+
    hosts), where the counts and wiring are the properties under test
    and one table entry per (switch, host) would dominate the suite's
    runtime and memory.
    """
    params = params or TopologyParams()
    if params.n_cores % params.spines_per_pod != 0 and params.n_pods > 1:
        raise ValueError(
            "n_cores must be a multiple of spines_per_pod so every spine "
            f"has a core uplink: cores={params.n_cores}, "
            f"spines/pod={params.spines_per_pod}"
        )
    topo = Topology(sim, params)
    fwd = params.forwarding_delay_ns

    cores = [topo.add_switch(f"core{c}", fwd) for c in range(params.n_cores)]

    host_index = 0
    for p in range(params.n_pods):
        spines_up = []
        spines_down = []
        for s in range(params.spines_per_pod):
            up = topo.add_switch(f"spine{p}.{s}.up", fwd)
            down = topo.add_switch(f"spine{p}.{s}.down", fwd)
            topo.add_link(up, down, params.fabric_link_gbps, internal=True)
            spines_up.append(up)
            spines_down.append(down)
            # Core wiring: spine s of every pod connects to cores
            # c with c % spines_per_pod == s (standard fat-tree striping).
            core_gbps = params.fabric_link_gbps / params.oversubscription
            for c, core in enumerate(cores):
                if c % params.spines_per_pod == s:
                    topo.add_link(up, core, core_gbps)
                    topo.add_link(core, down, core_gbps)

        for t in range(params.tors_per_pod):
            tor_up = topo.add_switch(f"tor{p}.{t}.up", fwd)
            tor_down = topo.add_switch(f"tor{p}.{t}.down", fwd)
            topo.add_link(tor_up, tor_down, params.fabric_link_gbps, internal=True)
            for s in range(params.spines_per_pod):
                topo.add_link(tor_up, spines_up[s], params.fabric_link_gbps)
                topo.add_link(spines_down[s], tor_down, params.fabric_link_gbps)
            for _h in range(params.hosts_per_tor):
                host = topo.add_host(
                    f"h{host_index}", is_master_clock=(host_index == 0)
                )
                host_index += 1
                up_link = topo.add_link(host, tor_up, params.host_link_gbps)
                down_link = topo.add_link(tor_down, host, params.host_link_gbps)
                host.set_uplink(up_link)
                host.set_downlink(down_link)

    if install_routes:
        compute_routes(topo, topo.hosts)
    return topo


def build_testbed(
    sim: Simulator, **overrides
) -> Topology:
    """The paper's evaluation testbed: 32 hosts, 4 ToR, 4 spine, 2 core."""
    params = TopologyParams()
    if overrides:
        params = replace(params, **overrides)
    return build_fat_tree(sim, params)


# Campaign episodes sync every 250 us instead of the paper's 125 ms, so
# clock outages and step faults meet several sync epochs per episode.
EPISODE_CLOCK_SYNC_NS = 250_000
EPISODE_SCALES = ("small", "testbed")


def build_episode_topology(sim: Simulator, scale: str) -> Topology:
    """The network a campaign episode runs on (chaos, verify, observe,
    workload).

    ``small`` is a 3-tier, 8-host fat-tree — multi-hop paths with real
    reordering potential but ~6x cheaper to simulate than the paper
    testbed.  ``testbed`` is the paper's 32-host evaluation fabric.
    """
    if scale == "small":
        return build_fat_tree(sim, TopologyParams(
            n_pods=2,
            tors_per_pod=2,
            spines_per_pod=1,
            n_cores=1,
            hosts_per_tor=2,
            clock_sync_interval_ns=EPISODE_CLOCK_SYNC_NS,
        ))
    if scale == "testbed":
        return build_testbed(sim, clock_sync_interval_ns=EPISODE_CLOCK_SYNC_NS)
    raise ValueError(
        f"unknown scale {scale!r}, expected one of {EPISODE_SCALES}"
    )


def build_single_rack(
    sim: Simulator, n_hosts: int = 8, **overrides
) -> Tuple[Topology, List[Host]]:
    """A one-ToR topology for focused unit tests."""
    params = TopologyParams(
        n_pods=1,
        tors_per_pod=1,
        spines_per_pod=1,
        n_cores=1,
        hosts_per_tor=n_hosts,
    )
    if overrides:
        params = replace(params, **overrides)
    topo = build_fat_tree(sim, params)
    return topo, topo.hosts
