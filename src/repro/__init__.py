"""1Pipe: scalable total order communication in data center networks.

A complete Python reproduction of the SIGCOMM 2021 paper by Li, Zuo,
Bai and Zhang, built on a deterministic discrete-event simulator.

Most-used entry points::

    from repro import Simulator, OnePipeCluster

    sim = Simulator(seed=1)
    cluster = OnePipeCluster(sim, n_processes=8)
    cluster.endpoint(1).on_recv(print)
    cluster.endpoint(0).unreliable_send([(1, "hello"), (2, "world")])
    sim.run(until=1_000_000)

Sub-packages:

- :mod:`repro.sim` — simulation kernel
- :mod:`repro.clock` — synchronized host clocks
- :mod:`repro.net` — data center network substrate
- :mod:`repro.rdma` — one-sided RDMA substrate
- :mod:`repro.consensus` — Raft
- :mod:`repro.onepipe` — the 1Pipe protocol (the paper's contribution)
- :mod:`repro.baselines` — total-order broadcast baselines
- :mod:`repro.apps` — the paper's application studies
- :mod:`repro.bench` — harness of the per-figure ``benchmarks/``
  (simulator performance is measured from outside, by ``perf/``)
"""

from repro.onepipe import Message, OnePipeCluster, OnePipeConfig, OnePipeEndpoint
from repro.sim import Simulator

__version__ = "1.0.0"

__all__ = [
    "Message",
    "OnePipeCluster",
    "OnePipeConfig",
    "OnePipeEndpoint",
    "Simulator",
    "__version__",
]
