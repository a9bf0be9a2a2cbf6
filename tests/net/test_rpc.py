"""Tests for plain messaging and RPC used by the baselines."""

import pytest

from repro.net import Directory, Messenger, RpcEndpoint, RpcTimeout
from repro.net.rpc import rpc_endpoints
from repro.net.packet import Packet, PacketKind
from repro.sim import Process, Simulator
from tests.instruments import build_single_rack


@pytest.fixture()
def rack():
    sim = Simulator()
    topo, hosts = build_single_rack(sim, n_hosts=4)
    return sim, topo, hosts


def test_messenger_typed_dispatch(rack):
    sim, topo, hosts = rack
    a = Messenger(hosts[0], proc_id=1)
    b = Messenger(hosts[1], proc_id=2)
    got = []
    b.on("hello", lambda src, body: got.append((src, body)))
    a.send(2, hosts[1].node_id, "hello", {"x": 1})
    sim.run()
    assert got == [(1, {"x": 1})]
    assert a.tx_messages == 1
    assert b.rx_messages == 1


def test_messenger_duplicate_handler_rejected(rack):
    _sim, _topo, hosts = rack
    m = Messenger(hosts[0], proc_id=1)
    m.on("t", lambda s, b: None)
    with pytest.raises(ValueError):
        m.on("t", lambda s, b: None)


def test_messenger_unknown_type_raises(rack):
    sim, _topo, hosts = rack
    a = Messenger(hosts[0], proc_id=1)
    Messenger(hosts[1], proc_id=2)
    a.send(2, hosts[1].node_id, "nope")
    with pytest.raises(KeyError):
        sim.run()


def test_messenger_cpu_serializes_delivery(rack):
    sim, _topo, hosts = rack
    a = Messenger(hosts[0], proc_id=1)
    b = Messenger(hosts[1], proc_id=2, cpu_ns_per_msg=1000)
    times = []
    b.on("t", lambda s, body: times.append(sim.now))
    for _ in range(3):
        a.send(2, hosts[1].node_id, "t")
    sim.run()
    # All three arrive nearly together but are handled 1000ns apart.
    assert times[1] - times[0] >= 900
    assert times[2] - times[1] >= 900


def test_messenger_ignores_foreign_packet_kinds(rack):
    sim, _topo, hosts = rack
    b = Messenger(hosts[1], proc_id=2)
    b.on("t", lambda s, body: None)
    pkt = Packet(PacketKind.DATA, src=1, dst=2, dst_host=hosts[1].node_id)
    hosts[0].send_packet(pkt)
    sim.run()
    assert b.rx_messages == 0


def test_rpc_roundtrip(rack):
    sim, _topo, hosts = rack
    directory = Directory()
    directory.register(1, hosts[0].node_id)
    directory.register(2, hosts[1].node_id)
    client = RpcEndpoint(Messenger(hosts[0], 1), directory)
    server = RpcEndpoint(Messenger(hosts[1], 2), directory)
    server.serve("add", lambda src, arg: arg[0] + arg[1])
    results = []

    def caller():
        result = yield client.call(2, "add", (2, 3))
        results.append(result)

    Process(sim, caller())
    sim.run()
    assert results == [5]


def test_rpc_timeout(rack):
    sim, _topo, hosts = rack
    directory = Directory()
    directory.register(1, hosts[0].node_id)
    directory.register(2, hosts[1].node_id)
    client = RpcEndpoint(Messenger(hosts[0], 1), directory)
    RpcEndpoint(Messenger(hosts[1], 2), directory)  # no methods served
    hosts[1].crash()
    outcome = []

    def caller():
        try:
            yield client.call(2, "ping", timeout_ns=10_000)
        except RpcTimeout:
            outcome.append("timeout")

    Process(sim, caller())
    sim.run()
    assert outcome == ["timeout"]


def test_rpc_duplicate_method_rejected(rack):
    _sim, _topo, hosts = rack
    directory = Directory()
    directory.register(1, hosts[0].node_id)
    rpc = RpcEndpoint(Messenger(hosts[0], 1), directory)
    rpc.serve("m", lambda s, a: None)
    with pytest.raises(ValueError):
        rpc.serve("m", lambda s, a: None)


def test_directory_conflict_rejected():
    d = Directory()
    d.register(1, "h0")
    d.register(1, "h0")  # same mapping is fine
    with pytest.raises(ValueError):
        d.register(1, "h1")


def test_concurrent_rpcs_resolve_independently(rack):
    sim, _topo, hosts = rack
    directory = Directory()
    for i, h in enumerate(hosts):
        directory.register(i + 1, h.node_id)
    client = RpcEndpoint(Messenger(hosts[0], 1), directory)
    for i in range(1, 4):
        server = RpcEndpoint(Messenger(hosts[i], i + 1), directory)
        server.serve("who", lambda src, arg, i=i: f"server{i}")
    results = []

    def caller():
        futures = [client.call(i + 1, "who") for i in range(1, 4)]
        for f in futures:
            results.append((yield f))

    Process(sim, caller())
    sim.run()
    assert results == ["server1", "server2", "server3"]


def served_request_ids():
    """Request ids a fresh client sends in a fresh two-host run."""
    sim = Simulator()
    _topo, hosts = build_single_rack(sim, n_hosts=2)
    directory = Directory()
    directory.register(1, hosts[0].node_id)
    directory.register(2, hosts[1].node_id)
    client = RpcEndpoint(Messenger(hosts[0], 1), directory)
    server = RpcEndpoint(Messenger(hosts[1], 2), directory)
    server.serve("echo", lambda src, arg: arg)
    for k in range(3):
        client.call(2, "echo", k)
    sim.run()
    return sorted(req_id for _src, req_id in server._responded)


def test_request_ids_are_per_endpoint():
    """Two identical runs in one process issue the same request ids:
    nothing else that ran before moves them."""
    assert served_request_ids() == served_request_ids() == [1, 2, 3]


def test_rpc_endpoints_share_one_directory():
    sim = Simulator()
    topo, _hosts = build_single_rack(sim, n_hosts=4)
    rpcs = rpc_endpoints(topo, 100, 3, cpu_ns_per_msg=0)
    assert [rpc.messenger.proc_id for rpc in rpcs] == [100, 101, 102]
    assert len({id(rpc.directory) for rpc in rpcs}) == 1
    rpcs[2].serve("who", lambda src, arg: src)
    got = []
    rpcs[0].call(102, "who").add_callback(lambda f: got.append(f.value))
    sim.run()
    assert got == [100]
