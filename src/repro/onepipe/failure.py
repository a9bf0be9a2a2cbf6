"""Failure-determination graph algorithms (paper §5.2).

Pure functions over the routing graph — the ``Topology``'s nodes and
their ``out_links`` / ``in_links``, walked by plain BFS in insertion
order — unit-testable without a running simulation:

- **Which processes failed?**  *"A process that disconnects from the
  controller in a routing graph is regarded as failed."*  The controller
  is attached at the core layer; because the logical routing graph is
  directed (up/down split), a host is alive only if it can still *send*
  to some root and *receive* from some root after dead links are
  removed.  Everything else is failed, and so are its processes.
- **When did they fail?**  The failure timestamp is the maximum
  last-commit barrier reported across the *cut* separating the failed
  region from the correct one: every message the failed process
  committed strictly below it has been prepared at all its receivers,
  and nothing at or beyond it has been delivered anywhere.

If no separating cut exists (true network partition), the region simply
contains more nodes and the maximum is taken over whatever reports
exist — the greedy "separate as many receivers as possible" fallback of
the paper; non-separable receivers sacrifice atomicity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Set, Tuple

from repro.net.link import Link
from repro.net.switch import Node

if TYPE_CHECKING:
    from repro.net.topology import Topology


@dataclass(frozen=True)
class DeadLinkReport:
    """A neighbor's Detect-step report: the dead link and the last commit
    barrier its register held.

    ``auth`` and ``seq`` exist for the BFT-hardened incarnation only
    (docs/BYZANTINE.md): the reporting engine stamps a simulated MAC
    over ``(link, last_commit, seq)`` under its own key and a
    per-reporter monotone sequence number, letting the controller
    reject forged and replayed notices.  Fail-stop modes leave both at
    their defaults and the controller never looks at them.
    """

    reporter: str  # switch that detected the timeout
    link: Link
    last_commit: int
    auth: int = 0
    seq: int = 0


def _reach(starts: Iterable[Node], neighbours) -> Dict[str, Node]:
    """``starts`` and every node a BFS reaches from them through
    ``neighbours(node)``, by id, in visiting order."""
    seen = {node.node_id: node for node in starts}
    queue = list(seen.values())
    for node in queue:  # grows while it is walked
        for nbr in neighbours(node):
            if nbr.node_id not in seen:
                seen[nbr.node_id] = nbr
                queue.append(nbr)
    return seen


def _send_and_receive_ok(
    topology: Topology, dead_links: Set[Link], roots: Iterable[str]
) -> Tuple[Dict[str, Node], Dict[str, Node]]:
    """Nodes with a live directed path *to* at least one root, and nodes
    with one *from* at least one root (hosts are ordinary nodes here)."""
    root_nodes = [topology.node(root) for root in roots]
    send_ok = _reach(root_nodes, lambda node: [
        link.src for link in node.in_links if link not in dead_links
    ])
    recv_ok = _reach(root_nodes, lambda node: [
        link.dst for link in node.out_links if link not in dead_links
    ])
    return send_ok, recv_ok


def alive_nodes(
    topology: Topology, dead_links: Set[Link], roots: Iterable[str]
) -> Set[str]:
    """Nodes that can both send to and receive from the root layer."""
    send_ok, recv_ok = _send_and_receive_ok(topology, dead_links, roots)
    return send_ok.keys() & recv_ok.keys()


def disconnected_hosts(
    topology: Topology,
    dead_links: Set[Link],
    roots: Iterable[str],
    host_ids: Iterable[str],
) -> Set[str]:
    """Hosts separated from the controller's roots (§5.2 Determine)."""
    alive = alive_nodes(topology, dead_links, roots)
    return {host_id for host_id in host_ids if host_id not in alive}


def failure_timestamp(region: Set[str], reports: List[DeadLinkReport]) -> int:
    """Failure timestamp for a failed region: the maximum last-commit
    barrier over reports whose dead link originates inside the region
    (those reports form the separating cut — each reporter is a correct
    neighbor of the failed component).

    Taking the max is also the safe answer to *equivocating* reports
    (two reports naming the same link with different last-commit
    barriers, e.g. a lying reporter): the larger barrier wins, so the
    cutoff never regresses below what any correct reporter promised and
    committed messages are never retroactively discarded.  Use
    :func:`equivocal_reports` to surface the conflict itself.
    """
    best = 0
    for report in reports:
        if report.link.src.node_id in region:
            if report.last_commit > best:
                best = report.last_commit
    return best


def equivocal_reports(
    reports: List[DeadLinkReport],
) -> Dict[Link, List[DeadLinkReport]]:
    """Reports that disagree about a link's last-commit barrier.

    Returns ``{link: conflicting_reports}`` for every link named by two
    or more reports with *different* ``last_commit`` values.  In the
    fail-stop model this cannot happen (registers are monotone and the
    batch window is short); under the Byzantine model it is evidence
    that some reporter lied, and the BFT controller counts it while
    :func:`failure_timestamp`'s max keeps the cutoff conservative.
    """
    by_link: Dict[Link, List[DeadLinkReport]] = {}
    for report in reports:
        by_link.setdefault(report.link, []).append(report)
    return {
        link: group
        for link, group in by_link.items()
        if len({report.last_commit for report in group}) > 1
    }


def determine(
    topology: Topology,
    reports: List[DeadLinkReport],
    roots: Iterable[str],
    host_ids: Iterable[str],
) -> Tuple[Set[str], Dict[str, int]]:
    """The Determine step: failed hosts and per-host failure timestamps.

    Returns ``(failed_hosts, {host_id: failure_ts})``.  Hosts in the
    same failed region share the region's timestamp (e.g. every host
    behind a crashed single-homed ToR).
    """
    dead_links = {report.link for report in reports}
    send_ok, recv_ok = _send_and_receive_ok(topology, dead_links, roots)
    ok = send_ok.keys() & recv_ok.keys()
    failed_hosts = {h for h in host_ids if h not in ok}
    # Group failed nodes into weakly connected regions so each region's
    # timestamp is the max last-commit across its own cut.  The region
    # that matters for the cut is the send-side one: the dead links the
    # correct neighbors reported originate there.

    def failed_neighbours(node: Node) -> List[Node]:
        live = [l.dst for l in node.out_links if l not in dead_links]
        live += [l.src for l in node.in_links if l not in dead_links]
        return [
            nbr for nbr in live
            if nbr.node_id not in send_ok or nbr.node_id in failed_hosts
        ]

    timestamps: Dict[str, int] = {}
    for host in topology.hosts:
        if host.node_id in failed_hosts and host.node_id not in timestamps:
            region = _reach([host], failed_neighbours)
            ts = failure_timestamp(region.keys(), reports)
            timestamps.update((n, ts) for n in region if n in failed_hosts)
    return failed_hosts, timestamps
