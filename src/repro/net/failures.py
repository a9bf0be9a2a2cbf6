"""Crash-stop failure injection.

All failures in the paper are fail-stop (§2.1: "we only consider crash
failures"): a failed component silently stops sending and receiving.  The
injector schedules crashes and recoveries at simulated times and keeps a
log that benchmarks use to measure detection/recovery latency (Fig. 10).
"""

from __future__ import annotations

from typing import List, Tuple

from repro.net.topology import Topology


class FailureInjector:
    """Schedules crash-stop failures against a built topology."""

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        self.sim = topology.sim
        self.log: List[Tuple[int, str, str]] = []  # (time, action, target)

    # ------------------------------------------------------------------
    def crash_host(self, host_id: str, at: int) -> None:
        self.sim.schedule_at(at, self._crash_host, host_id)

    def crash_switch(self, switch_name: str, at: int) -> None:
        """Crash a physical switch (both logical halves).

        ``switch_name`` is the physical name, e.g. ``"tor0.1"`` or
        ``"core0"``.
        """
        self.sim.schedule_at(at, self._crash_switch, switch_name)

    def recover_switch(self, switch_name: str, at: int) -> None:
        """Bring a crashed physical switch back (both logical halves).

        The counterpart of :meth:`crash_switch`, enabling switch-flap
        scenarios.  Its links were never failed, so once the switch
        forwards traffic again the neighbors' ordering engines re-admit
        the previously dead links in pending state (§4.2).
        """
        self.sim.schedule_at(at, self._recover_switch, switch_name)

    def cut_cable(self, a: str, b: str, at: int) -> None:
        """Cut every existing link direction between two nodes.

        Logical up/down splits mean a physical cable may exist in only
        one direction between two logical node names (e.g. spine.up ->
        core but core -> spine.down); only present directions are cut.
        """
        self.sim.schedule_at(at, self._cut_cable, a, b)

    def _cut_cable(self, a: str, b: str) -> None:
        links = self.topology.links
        found = False
        for name in (f"{a}->{b}", f"{b}->{a}"):
            link = links.get(name)
            if link is not None:
                link.fail()
                self.log.append((self.sim.now, "cut_link", name))
                found = True
        if not found:
            raise KeyError(f"no cable between {a} and {b}")

    def recover_cable(self, a: str, b: str, at: int) -> None:
        """Restore every existing link direction between two nodes (the
        counterpart of :meth:`cut_cable`)."""
        self.sim.schedule_at(at, self._recover_cable, a, b)

    def _recover_cable(self, a: str, b: str) -> None:
        links = self.topology.links
        found = False
        for name in (f"{a}->{b}", f"{b}->{a}"):
            link = links.get(name)
            if link is not None:
                link.recover()
                self.log.append((self.sim.now, "recover_link", name))
                found = True
        if not found:
            raise KeyError(f"no cable between {a} and {b}")

    def cut_host_cable(self, host_id: str, at: int) -> None:
        """Cut the host's NIC cable (uplink and downlink directions).

        The host itself keeps running — this models the "host link
        failure" case of Fig. 10, distinct from a host crash.
        """
        self.sim.schedule_at(at, self._cut_host_cable, host_id)

    def recover_host_cable(self, host_id: str, at: int) -> None:
        self.sim.schedule_at(at, self._recover_host_cable, host_id)

    def recover_link(self, src_id: str, dst_id: str, at: int) -> None:
        self.sim.schedule_at(at, self._recover_link, src_id, dst_id)

    # ------------------------------------------------------------------
    def _crash_host(self, host_id: str) -> None:
        host = self.topology.host_by_id(host_id)
        host.crash()
        self.log.append((self.sim.now, "crash_host", host_id))

    def _crash_switch(self, switch_name: str) -> None:
        matched = False
        for node_id, switch in self.topology.switches.items():
            if node_id == switch_name or node_id.startswith(switch_name + "."):
                switch.crash()
                matched = True
        if not matched:
            raise KeyError(f"no switch named {switch_name}")
        self.log.append((self.sim.now, "crash_switch", switch_name))

    def _recover_switch(self, switch_name: str) -> None:
        matched = False
        for node_id, switch in self.topology.switches.items():
            if node_id == switch_name or node_id.startswith(switch_name + "."):
                switch.recover()
                matched = True
        if not matched:
            raise KeyError(f"no switch named {switch_name}")
        self.log.append((self.sim.now, "recover_switch", switch_name))

    def _cut_host_cable(self, host_id: str) -> None:
        host = self.topology.host_by_id(host_id)
        host.uplink.fail()
        host.downlink.fail()
        self.log.append((self.sim.now, "cut_host_cable", host_id))

    def _recover_host_cable(self, host_id: str) -> None:
        host = self.topology.host_by_id(host_id)
        host.uplink.recover()
        host.downlink.recover()
        self.log.append((self.sim.now, "recover_host_cable", host_id))

    def _recover_link(self, src_id: str, dst_id: str) -> None:
        link = self.topology.link(src_id, dst_id)
        link.recover()
        self.log.append((self.sim.now, "recover_link", link.name))
