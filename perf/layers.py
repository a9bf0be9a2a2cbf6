"""Per-layer attribution of a traced timed phase, measured from outside.

The timed phase runs under ``cProfile`` enabled from ``perf/`` only:
every function boundary is a span, so no source edit and no knowledge of
function names is needed.  A function's layer is its file's path under
``src/repro/``.  Per layer ``L``:

- ``L.self_s``   — sum of ``tottime`` of its functions plus the time of
  built-ins, stdlib and third-party code *called from* it (callers
  table; ``heapq`` time lands on ``sim``, ``networkx`` on ``net.routing``);
- ``L.calls_in`` — calls entering ``L`` from a different layer (a count;
  repeats exactly).

cProfile charges a fixed cost per call, so layers made of many tiny
calls are inflated: shares are a guide, counts are exact.
"""

from __future__ import annotations

import os
from typing import Dict, Tuple

# Path prefix under src/repro/ -> layer; first match wins.
_PREFIXES: Tuple[Tuple[str, str], ...] = (
    ("sim/", "sim"),
    ("clock/", "clock"),
    ("net/link.py", "net.link"),
    ("net/nic.py", "net.nic"),
    ("net/switch.py", "net.switch"),
    ("net/packet.py", "net.packet"),
    ("net/transport.py", "net.transport"),
    ("net/routing.py", "net.routing"),
    ("net/topology.py", "net.topology"),
    ("onepipe/hostagent.py", "onepipe.hostagent"),
    ("onepipe/sender.py", "onepipe.sender"),
    ("onepipe/receiver.py", "onepipe.receiver"),
    ("onepipe/barrier.py", "onepipe.barrier"),
    ("onepipe/incarnations.py", "onepipe.incarnations"),
    ("onepipe/analytic.py", "onepipe.analytic"),
    ("onepipe/controller.py", "onepipe.controller"),
    ("onepipe/admission.py", "onepipe.admission"),
    ("apps/", "apps"),
    ("chaos/", "chaos"),
    ("verify/", "verify"),
    ("obs/", "obs"),
    ("workload/", "workload"),
    ("hybrid/", "hybrid"),
)
# The rest of repro.* and the benchmark driver itself.
OTHER = "other"
LAYERS: Tuple[str, ...] = tuple(layer for _p, layer in _PREFIXES) + (OTHER,)

_REPRO = os.sep + os.path.join("src", "repro") + os.sep
_PERF = os.path.dirname(os.path.abspath(__file__)) + os.sep


def layer_of(filename: str) -> str:
    """Layer of a Python source file (``other`` outside the table)."""
    at = filename.rfind(_REPRO)
    if at < 0:
        return OTHER
    relative = filename[at + len(_REPRO):].replace(os.sep, "/")
    for prefix, layer in _PREFIXES:
        if relative.startswith(prefix):
            return layer
    return OTHER


def attribute(profile) -> Dict[str, Dict[str, float]]:
    """Fold a finished ``cProfile.Profile`` into ``{layer: {self_s,
    calls_in}}`` for every layer in :data:`LAYERS`."""
    import pstats

    stats = pstats.Stats(profile).stats
    table = {layer: {"self_s": 0.0, "calls_in": 0} for layer in LAYERS}
    shares_of: Dict[tuple, Dict[str, float]] = {}

    def owned(func) -> bool:
        """A function of the program or of the benchmark: it has a layer
        of its own.  Built-ins, the stdlib and third-party code do not."""
        return _REPRO in func[0] or func[0].startswith(_PERF)

    def shares(func) -> Dict[str, float]:
        """How the time of ``func`` splits over layers (sums to 1): its
        own layer if it has one, else its callers' by the cumulative
        time each spent in it, followed up the call graph."""
        if owned(func):
            return {layer_of(func[0]): 1.0}
        if func in shares_of:
            return shares_of[func]
        shares_of[func] = {OTHER: 1.0}          # cycle guard, root default
        callers = stats[func][4] if func in stats else {}
        total = sum(edge[3] for edge in callers.values())
        if total > 0:
            split: Dict[str, float] = {}
            for caller, edge in callers.items():
                for layer, share in shares(caller).items():
                    split[layer] = split.get(layer, 0.0) + share * edge[3] / total
            shares_of[func] = split
        return shares_of[func]

    for func, (_cc, _nc, tottime, _ct, callers) in stats.items():
        if owned(func):
            layer = layer_of(func[0])
            table[layer]["self_s"] += tottime
            for caller, edge in callers.items():
                if owned(caller) and layer_of(caller[0]) != layer:
                    table[layer]["calls_in"] += edge[0]
            continue
        charged = 0.0
        for caller, edge in callers.items():
            for layer, share in shares(caller).items():
                table[layer]["self_s"] += edge[2] * share
            charged += edge[2]
        table[OTHER]["self_s"] += tottime - charged       # root-level calls
    return table
