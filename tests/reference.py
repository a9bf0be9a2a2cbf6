"""The packet-level beacon reference, reachable only from tests.

Outside ``MODE_BFT`` every cluster carries its beacons on the virtual
fabric (``repro.onepipe.analytic``); the event-level beacon code stays
in ``src/`` for BFT and for the per-link ``drop_filter`` fallback.  To
compare the fabric against it, build the cluster under
:func:`on_packet_beacons`: ``OnePipeCluster._install_fabric`` becomes a
no-op, so engines and host agents keep ``_fabric = None`` and send one
pooled packet per beacon.  This is the only way to obtain that
configuration — there is no constructor argument, config field or CLI
flag for it.
"""

from unittest import mock

from repro.onepipe.cluster import OnePipeCluster


def on_packet_beacons(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` with every cluster it *constructs* on
    event-level beacons for that cluster's whole life (the transport is
    chosen once, at construction)."""
    with mock.patch.object(
        OnePipeCluster, "_install_fabric", lambda cluster: None
    ):
        return fn(*args, **kwargs)
