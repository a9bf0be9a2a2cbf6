"""The paper's application studies (§7.3), implemented on the library.

- :mod:`~repro.apps.workloads` — key/value/transaction generators
  (uniform, YCSB-Zipf, Facebook ETC value sizes, TPC-C mix).
- :mod:`~repro.apps.gather` — the scatter-gather call table the 1Pipe
  apps share (scatter to N servers, gather their answers, resolve a
  future).
- :mod:`~repro.apps.kvstore` — transactional key-value store: 1Pipe
  (RO via best effort, WO/WR via reliable scattering), FaRM-style OCC,
  and a non-transactional upper bound (§7.3.1 / Fig. 14).
- :mod:`~repro.apps.concurrency` — the lock table of the TPC-C
  two-phase-locking baseline.
- :mod:`~repro.apps.tpcc` — Eris-style independent transactions for
  TPC-C New-Order/Payment with replicated shards (§7.3.2 / Fig. 15).
- :mod:`~repro.apps.hashtable` — remote (RDMA) hash table; fence
  elimination and all-replica reads under 1Pipe (§7.3.3 / Fig. 16).
- :mod:`~repro.apps.replication` — 1-RTT replication with checksums
  (§2.2.2), leader-follower baseline, and an SMR helper.
- :mod:`~repro.apps.ceph` — Ceph-style primary-backup object storage
  vs. 1Pipe parallel replication (§7.3.4).
"""

from repro.apps.workloads import (
    EtcValueSizes,
    UniformKeys,
    YcsbZipfKeys,
    TxnMix,
)

__all__ = ["EtcValueSizes", "TxnMix", "UniformKeys", "YcsbZipfKeys"]
