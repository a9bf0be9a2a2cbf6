"""One-call assembly of a complete 1Pipe deployment.

``OnePipeCluster`` builds (or accepts) a topology, installs the
configured ordering engine on every logical switch, runs a host agent on
every host (beacons flow on every link from t=0, like a production
deployment where lib1pipe is part of the base image), places process
endpoints paper-style, and wires the controller.

This is the entry point used by the examples and every benchmark::

    sim = Simulator(seed=1)
    cluster = OnePipeCluster(sim, n_processes=8)
    cluster.endpoint(0).unreliable_send([(1, "hello")])
    sim.run(until=1_000_000)
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Set

from repro.net.rpc import Directory
from repro.net.topology import Topology, build_testbed
from repro.onepipe.analytic import BeaconFabric
from repro.onepipe.api import OnePipeEndpoint
from repro.onepipe.config import OnePipeConfig
from repro.onepipe.controller import Controller
from repro.onepipe.hostagent import HostAgent
from repro.onepipe.incarnations import make_engine
from repro.sim import Simulator


class OnePipeCluster:
    """A fully wired 1Pipe deployment on a data center topology."""

    def __init__(
        self,
        sim: Simulator,
        n_processes: int,
        config: Optional[OnePipeConfig] = None,
        topology: Optional[Topology] = None,
        enable_controller: bool = True,
        replicator=None,
        start_clock_sync: bool = True,
        placement: Optional[List[str]] = None,
    ) -> None:
        self.sim = sim
        self.config = config or OnePipeConfig()
        self.topology = topology if topology is not None else build_testbed(sim)
        self.directory = Directory()
        # One message-id counter per cluster: a run's ids never depend on
        # what else ran in the Python process.
        self._msg_ids = itertools.count(1)
        # Every beacon of the cluster travels on the analytic fabric
        # (repro.onepipe.analytic): an exact replay of the beacon plane
        # without per-beacon packets or events.
        self.fabric = BeaconFabric(sim)

        self.controller: Optional[Controller] = None
        failure_listener = None
        if enable_controller:
            self.controller = Controller(
                sim, self.topology, self.config, self.directory, replicator
            )
            failure_listener = self.controller.make_failure_listener()

        # Ordering engines on every logical switch.
        self.engines: Dict[str, object] = {}
        for switch_id, switch in self.topology.switches.items():
            engine = make_engine(
                sim, self.config, self.fabric, failure_listener
            )
            switch.install_engine(engine)
            self.engines[switch_id] = engine
            if self.controller is not None:
                self.controller.register_engine(switch_id, engine)
                accuse = getattr(engine, "accusation_listener", None)
                if accuse is None and hasattr(engine, "_accuse"):
                    # BFT engines report misbehaving peers the same way
                    # they report dead links: through the controller.
                    engine.accusation_listener = (
                        self.controller.make_accusation_listener()
                    )

        # A host agent on every host (beacons from every uplink).
        self.agents: Dict[str, HostAgent] = {}
        for host in self.topology.hosts:
            agent = HostAgent(
                host, self.config, self.directory, self.fabric,
                self.controller,
            )
            self.agents[host.node_id] = agent
            if self.controller is not None:
                self.controller.register_agent(agent)

        # Process placement per the paper's methodology (§7.1), unless
        # the caller pins endpoints to explicit hosts (``placement`` is a
        # host id per process slot — the hybrid engine uses it to spread
        # watched endpoints across the hot pods).
        self.endpoints: List[OnePipeEndpoint] = []
        if placement is not None:
            if len(placement) != n_processes:
                raise ValueError(
                    f"placement names {len(placement)} hosts for "
                    f"{n_processes} processes"
                )
            placed = [self.topology.host_by_id(name) for name in placement]
        else:
            placed = self.topology.assign_hosts(n_processes)
        for proc_id, host in enumerate(placed):
            endpoint = OnePipeEndpoint(
                self.agents[host.node_id], proc_id, self.config, self._msg_ids
            )
            self.endpoints.append(endpoint)
            if self.controller is not None:
                self.controller.register_endpoint(endpoint)

        if start_clock_sync:
            self.topology.start_clock_sync()

    # ------------------------------------------------------------------
    def endpoint(self, index: int) -> OnePipeEndpoint:
        return self.endpoints[index]

    @property
    def n_processes(self) -> int:
        return len(self.endpoints)

    def down_procs(self) -> Set[int]:
        """Processes that are down: declared failed by the controller,
        placed on a failed host, or with a closed endpoint."""
        down = set()
        if self.controller is not None:
            down.update(self.controller.failed_procs)
        for endpoint in self.endpoints:
            if endpoint.closed or endpoint.agent.host.failed:
                down.add(endpoint.proc_id)
        return down

    def add_endpoint(self, host_id: str, proc_id: int) -> OnePipeEndpoint:
        """Register a new process (e.g. a recovered receiver re-joining
        as a fresh process, §5.2).  If the host had been declared failed
        and has since recovered, it is re-admitted (routes restored)."""
        endpoint = OnePipeEndpoint(
            self.agents[host_id], proc_id, self.config, self._msg_ids
        )
        self.endpoints.append(endpoint)
        if self.controller is not None:
            self.controller.register_endpoint(endpoint)
            if host_id in self.controller.failed_hosts:
                self.controller.reinstate_host(host_id)
        return endpoint

    def set_receiver_loss_rate(self, rate: float) -> None:
        """Drop data packets and beacons at every receiving host agent
        with the given probability (the paper's loss-injection
        methodology, §7.2).  A lost beacon stalls that receiver's
        barrier until the next one (the Fig. 9b mechanism); ACKs,
        control packets and switch liveness timers are unaffected."""
        for agent in self.agents.values():
            agent.set_receiver_loss_rate(rate)

    def total_beacons(self) -> int:
        """Beacons emitted by hosts and switches (overhead accounting)."""
        total = sum(agent.beacons_sent for agent in self.agents.values())
        total += sum(engine.beacons_sent for engine in self.engines.values())
        return total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<OnePipeCluster procs={len(self.endpoints)} "
            f"hosts={len(self.topology.hosts)} mode={self.config.mode}>"
        )
