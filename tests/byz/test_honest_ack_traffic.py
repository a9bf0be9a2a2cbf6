"""Honest reliable traffic must survive the BFT egress sentinel.

Regression: ``BftChipEngine`` watches host-emitted data for timestamp
regressions (a later ``msg_id`` carrying a smaller ``msg_ts`` than an
earlier one — the lying-sender signature).  ACK/NAK/RECALL packets
reuse the data path's framing with ``msg_ts = 0``, so a sentinel that
keys on *every* last-fragment packet frames each honest process as a
timestamp-regressing liar the moment it acknowledges a received
message — and the controller evicts the whole cluster one grace window
later.  Only DATA/RDATA may feed the sentinel.
"""

from repro.net.topology import build_fat_tree, fat_tree_descriptor
from repro.onepipe.cluster import OnePipeCluster
from repro.onepipe.config import MODE_BFT, OnePipeConfig
from repro.sim import Simulator


def test_bft_acks_do_not_trigger_accusations():
    sim = Simulator(seed=21)
    topo = build_fat_tree(sim, fat_tree_descriptor(4, hosts_per_tor=2).params)
    cluster = OnePipeCluster(
        sim, n_processes=8, config=OnePipeConfig(mode=MODE_BFT),
        topology=topo,
    )
    n = cluster.n_processes
    delivered = []
    for i in range(n):
        cluster.endpoint(i).on_recv(
            lambda msg, i=i: delivered.append((i, msg.src))
        )

    def blast(round_no):
        for i in range(n):
            # reliable_send -> receivers ACK -> senders may NAK/retry:
            # exactly the traffic mix that used to feed the sentinel.
            cluster.endpoint(i).reliable_send(
                [((i + j) % n, f"r{round_no}-{i}-{j}") for j in range(1, 3)]
            )

    for r in range(5):
        sim.post(10_000 + r * 40_000, blast, r)
    sim.run(until=600_000)

    controller = cluster.controller
    assert controller is not None
    assert controller.accusations == [], (
        "honest ACK traffic was accused: "
        f"{controller.accusations[:3]}"
    )
    # Every reliable scattering commits: 5 rounds x 8 senders x 2 dsts.
    assert len(delivered) == 5 * 8 * 2
