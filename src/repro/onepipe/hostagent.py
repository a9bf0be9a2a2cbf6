"""The per-host 1Pipe agent.

One agent runs on every host (the lib1pipe polling thread of §6.1).  It
owns everything that is per-host rather than per-process:

- **Egress stamping**: at the moment a packet enters the FIFO NIC queue
  it receives its message timestamp (for the first fragment of a
  scattering), the best-effort barrier promise (the host clock — future
  packets will carry timestamps at or above it), and the commit barrier
  (minimum over the colocated processes' commit promises).  Stamping at
  the FIFO boundary is what makes the host→ToR link's barriers valid.
- **Host beacons**: on an idle uplink (chip mode) or unconditionally
  (switch-CPU / host-delegation modes) a beacon carries the same two
  barriers every beacon interval, at instants synchronized across hosts
  (§4.2).
- **Ingress barrier state**: the maximum best-effort and commit barriers
  seen from the downlink; in chip mode every packet carries valid
  aggregated barriers, in the other modes only beacons do (§6.2).
- **Delivery flush**: whenever barriers advance, colocated process
  receivers deliver what the barriers allow (coalesced per event).
- **Failure handling, host side**: the Discard / Recall / Callback steps
  of §5.2, driven by controller broadcasts.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from repro.net.link import Link
from repro.net.nic import Host
from repro.net.packet import Packet, PacketKind
from repro.net.rpc import Directory
from repro.obs.registry import GLOBAL_METRICS
from repro.onepipe.analytic import BeaconFabric
from repro.onepipe.config import MODE_BFT, MODE_CHIP, OnePipeConfig
from repro.sim import Future

if TYPE_CHECKING:  # pragma: no cover
    from repro.onepipe.api import OnePipeEndpoint
    from repro.onepipe.controller import Controller

_ONEPIPE_KINDS = frozenset(
    {
        PacketKind.DATA,
        PacketKind.RDATA,
        PacketKind.ACK,
        PacketKind.NAK,
        PacketKind.RECALL,
        PacketKind.RECALL_ACK,
    }
)


class HostAgent:
    """Shared 1Pipe machinery for all processes on one host."""

    def __init__(
        self,
        host: Host,
        config: OnePipeConfig,
        directory: Directory,
        fabric: BeaconFabric,
        controller: Optional["Controller"] = None,
    ) -> None:
        self.sim = host.sim
        self.host = host
        self.clock = host.clock
        self.config = config
        self.directory = directory
        self.controller = controller
        self.endpoints: Dict[int, "OnePipeEndpoint"] = {}
        self.rx_be_barrier = 0
        self.rx_commit_barrier = 0
        # Chip-style modes aggregate barriers on every data packet; the
        # BFT incarnation is chip-based (per-packet stamps bounded by
        # the authenticated beacon plane, see BftChipEngine).
        self._barriers_on_packets = config.mode in (MODE_CHIP, MODE_BFT)
        self._flush_scheduled = False
        # --- BFT hardening (MODE_BFT only; docs/BYZANTINE.md) ----------
        self._bft = config.mode == MODE_BFT
        self._host_key = 0
        self._keys = None
        if self._bft:
            from repro.byz.keys import get_key_registry

            self._keys = get_key_registry(self.sim)
            self._host_key = self._keys.key_of(host.node_id)
        self.beacons_rejected = 0
        self._accused: set = set()
        self._m_byz_rejected = None  # registered on first rejection
        # --- adversarial knobs (repro.chaos byz_* faults) --------------
        # A timestamp-lying sender stamps scattering timestamps this far
        # below the host clock — below barriers it already promised.
        self.byz_lie_ns = 0
        # An equivocating host agent tampers the payload of egress data
        # to even-numbered destinations, so different receivers of one
        # scattering see divergent messages.
        self.byz_equivocate = False
        # Receiver-side loss injection (the paper's Fig. 9b/15b method:
        # "we simulate random message drop in lib1pipe receiver" — this
        # drops data without perturbing beacons or link liveness).
        self.receiver_loss_rate = 0.0
        self._loss_rng = None
        self.receiver_drops = 0
        host.egress_hook = self._stamp_egress
        host.ingress_hook = self._ingress
        # Back-pointer for the beacon fabric's arrival dispatch
        # (repro.onepipe.analytic).
        host.onepipe_agent = self
        # The beacon transport: host beacons and delivery flushes go
        # through it.
        self._fabric = fabric
        # Admission control (repro.onepipe.admission): None unless the
        # workload engine installs it, so default runs are untouched.
        self.admission = None
        self._beacon_task = self.sim.every(
            config.beacon_interval_ns, self._beacon_tick
        )
        self.beacons_sent = 0
        metrics = getattr(self.sim, "metrics", None) or GLOBAL_METRICS
        self._metrics = metrics
        self._m_beacons = metrics.counter("hostagent.beacons_sent")
        self._m_rx_drops = metrics.counter("hostagent.receiver_drops")
        self._m_flushes = metrics.counter("hostagent.flushes")
        # How far the received barriers trail this host's clock when a
        # flush runs — the delivery-wait half of eq. 4.1.  Uses
        # clock.peek(), never clock.now(): reading via now() would
        # advance the monotonic-slew state and perturb the run.
        self._m_be_lag = metrics.histogram("hostagent.be_barrier_lag_ns")
        self._m_commit_lag = metrics.histogram("hostagent.commit_barrier_lag_ns")
        # Per-hop beacon latency observed at host ingress (sent_at is
        # stamped at the emitting node).
        self._m_beacon_hop = metrics.histogram("hostagent.beacon_hop_ns")

    def close(self) -> None:
        self._beacon_task.cancel()
        self.host.egress_hook = None
        self.host.ingress_hook = None
        self.host.onepipe_agent = None

    def install_admission(self, config) -> "object":
        """Attach an :class:`repro.onepipe.admission.AdmissionController`
        (idempotent — the first config wins) and return it."""
        if self.admission is None:
            from repro.onepipe.admission import AdmissionController

            self.admission = AdmissionController(self, config)
        return self.admission

    def set_receiver_loss_rate(self, rate: float) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"loss rate out of range: {rate}")
        self.receiver_loss_rate = rate
        if rate > 0 and self._loss_rng is None:
            self._loss_rng = self.sim.rng(f"rxloss.{self.host.node_id}")

    # ------------------------------------------------------------------
    # Endpoint registry
    # ------------------------------------------------------------------
    def add_endpoint(self, endpoint: "OnePipeEndpoint") -> None:
        if endpoint.proc_id in self.endpoints:
            raise ValueError(f"duplicate process {endpoint.proc_id}")
        self.endpoints[endpoint.proc_id] = endpoint
        self.host.register_endpoint(endpoint.proc_id, lambda pkt: None)
        self.directory.register(endpoint.proc_id, self.host.node_id)

    def remove_endpoint(self, proc_id: int) -> None:
        self.endpoints.pop(proc_id, None)
        self.host.unregister_endpoint(proc_id)

    # ------------------------------------------------------------------
    # Egress: timestamp + barrier stamping at the NIC FIFO boundary
    # ------------------------------------------------------------------
    def _stamp_egress(self, packet: Packet) -> None:
        now = self.clock.now()
        meta = packet.meta
        if meta is not None:
            scattering = meta.get("scat")
            if scattering is not None:
                if scattering.ts is None:
                    # Byzantine knob: a lying sender stamps below its own
                    # (already promised) barrier, violating §2.1's
                    # non-decreasing timestamp rule.
                    ts = now
                    if self.byz_lie_ns:
                        ts = max(0, now - self.byz_lie_ns)
                    scattering.ts = ts
                    endpoint = self.endpoints.get(packet.src)
                    if endpoint is not None:
                        endpoint.sender.on_ts_assigned(scattering, ts)
                packet.msg_ts = scattering.ts
        if (
            self.byz_equivocate
            and packet.last_frag
            and packet.payload is not None
            and packet.dst >= 0
            and packet.dst % 2 == 0
            and packet.kind in (PacketKind.DATA, PacketKind.RDATA)
        ):
            # Equivocation: even-numbered receivers get a divergent copy.
            # The sender's payload MAC (stamped in _transmit) is NOT
            # recomputed — the agent does not hold the process key.
            packet.payload = ("equivocated", packet.payload)
        packet.barrier_ts, packet.commit_ts = self.local_barriers(now)

    def local_barriers(self, now: int) -> tuple:
        """The host's two barrier promises, in one endpoint pass (NIC
        egress and host beacons).

        Best-effort: the clock, floored at fragments still queued in any
        colocated sender's CPU.  Commit: the minimum commit promise over
        the processes on this host.  One pass computes both exactly as
        two separate passes would: ``be_barrier_floor`` is a pure read
        and ``commit_barrier_value`` only prunes its own sender's acked
        heap entries, so interleaving the per-endpoint calls cannot
        change either result.
        """
        be = commit = now
        for endpoint in self.endpoints.values():
            sender = endpoint.sender
            floor = sender.be_barrier_floor(now)
            if floor < be:
                be = floor
            value = sender.commit_barrier_value(now)
            if value < commit:
                commit = value
        return be, commit

    # ------------------------------------------------------------------
    # Ingress: barrier extraction + endpoint dispatch
    # ------------------------------------------------------------------
    def _ingress(self, packet: Packet, in_link: Link) -> bool:
        kind = packet.kind
        if kind == PacketKind.BEACON:
            self.on_beacon(
                in_link, packet.barrier_ts, packet.commit_ts,
                packet.sent_at, packet.auth,
            )
            return True
        if kind in _ONEPIPE_KINDS:
            if (
                self._loss_rng is not None
                and kind in (PacketKind.DATA, PacketKind.RDATA)
                and self._loss_rng.random() < self.receiver_loss_rate
            ):
                self.receiver_drops += 1
                if self._metrics.enabled:
                    self._m_rx_drops.add()
                if self._barriers_on_packets:
                    self._update_barriers(packet.barrier_ts, packet.commit_ts)
                return True
            endpoint = self.endpoints.get(packet.dst)
            if endpoint is not None:
                # Dispatch before applying this packet's own barrier: the
                # barrier promise covers *future* arrivals, not itself.
                endpoint.handle(packet)
            if self._barriers_on_packets:
                self._update_barriers(packet.barrier_ts, packet.commit_ts)
            return True
        if self._barriers_on_packets:
            self._update_barriers(packet.barrier_ts, packet.commit_ts)
        return False  # RAW and RDMA traffic continues to normal delivery

    def on_beacon(
        self, in_link: Link, be: int, commit: int, sent_at: int, auth: int
    ) -> None:
        """A downlink beacon: its barriers, emission instant and
        simulated MAC (0 unless the emitter runs MODE_BFT)."""
        if (
            self._loss_rng is not None
            and self._loss_rng.random() < self.receiver_loss_rate
        ):
            # A lost beacon stalls this receiver's barrier until the
            # next one (the paper's Fig. 9b mechanism).
            self.receiver_drops += 1
            if self._metrics.enabled:
                self._m_rx_drops.add()
            return
        if self._bft and not self._verify_beacon(in_link, be, commit, auth):
            return
        if self._metrics.enabled:
            self._m_beacon_hop.observe(self.sim.now - sent_at)
        self._update_barriers(be, commit)

    # ------------------------------------------------------------------
    # BFT hardening (MODE_BFT; docs/BYZANTINE.md)
    # ------------------------------------------------------------------
    def _beacon_auth(self, be: int, commit: int) -> int:
        """Simulated MAC over this host's beacon barriers (MODE_BFT)."""
        from repro.byz.keys import mac

        return mac(self._host_key, be, commit)

    def _verify_beacon(
        self, in_link: Link, be: int, commit: int, auth: int
    ) -> bool:
        """Check a downlink beacon's simulated MAC against its emitter.

        An invalid tag means the emitting switch lied about (or could
        not authenticate) its barrier minima; the beacon is dropped —
        the receive floor simply does not advance — and the emitter is
        accused to the controller, which demotes its links via the
        §4.2 pending path instead of wedging anything.
        """
        from repro.byz.keys import mac

        emitter = in_link.src.node_id
        if auth == mac(self._keys.key_of(emitter), be, commit):
            return True
        self.beacons_rejected += 1
        if self._metrics.enabled:
            if self._m_byz_rejected is None:
                self._m_byz_rejected = self._metrics.counter(
                    "byz.beacons_rejected"
                )
            self._m_byz_rejected.add()
        if emitter not in self._accused and self.controller is not None:
            self._accused.add(emitter)
            self.controller.accuse_component(
                self.host.node_id,
                emitter,
                f"beacon auth failure at host ingress "
                f"(be={be} commit={commit})",
            )
        return False

    def accuse_sender(
        self, accuser_proc: int, suspect_proc: int, detail: str
    ) -> None:
        """Receiver-side accusation relay (timestamp regression or
        payload auth failure): forward the evidence to the controller
        for eviction.  One accusation per suspect per host."""
        key = ("proc", suspect_proc)
        if key in self._accused or self.controller is None:
            return
        self._accused.add(key)
        self.controller.accuse_process(accuser_proc, suspect_proc, detail)

    def _update_barriers(self, be_barrier: int, commit_barrier: int) -> None:
        changed = False
        if be_barrier > self.rx_be_barrier:
            self.rx_be_barrier = be_barrier
            changed = True
        if commit_barrier > self.rx_commit_barrier:
            self.rx_commit_barrier = commit_barrier
            changed = True
        if changed and not self._flush_scheduled:
            self._flush_scheduled = True
            self._fabric.post_merged_at(self.sim.now, self._flush)

    # Artificial extra delivery delay (reorder-overhead study, Fig. 11):
    # barriers handed to receivers are held back by this much.
    artificial_barrier_lag_ns = 0

    def _flush(self) -> None:
        self._flush_scheduled = False
        if self._metrics.enabled:
            self._m_flushes.add()
            now = self.clock.peek()
            self._m_be_lag.observe(now - self.rx_be_barrier)
            self._m_commit_lag.observe(now - self.rx_commit_barrier)
        lag = self.artificial_barrier_lag_ns
        if lag:
            self.sim.schedule(lag, self._flush_lagged,
                              self.rx_be_barrier, self.rx_commit_barrier)
            return
        for endpoint in self.endpoints.values():
            endpoint.receiver.flush(self.rx_be_barrier, self.rx_commit_barrier)

    def _flush_lagged(self, be_barrier: int, commit_barrier: int) -> None:
        for endpoint in self.endpoints.values():
            endpoint.receiver.flush(be_barrier, commit_barrier)

    # ------------------------------------------------------------------
    # Beacons (§4.2)
    # ------------------------------------------------------------------
    def _beacon_tick(self) -> None:
        # lib1pipe's polling thread "generates periodic beacon packets"
        # unconditionally (§6.1): the host's clock promise must reach the
        # ToR within one interval of any message so delivery waits only
        # ~interval/2 — suppressing the beacon because data left recently
        # would delay the *strictly greater* barrier the last message
        # needs.  (Switch engines do suppress beacons on busy links.)
        if self.host.failed or self.host.uplink is None:
            return
        self.beacons_sent += 1
        if self._metrics.enabled:
            self._m_beacons.add()
        self._fabric.host_beacon(self)

    # ------------------------------------------------------------------
    # Failure handling, host side (§5.2)
    # ------------------------------------------------------------------
    def on_proc_failures(self, failures: List[tuple]) -> Future:
        """Controller broadcast handler: ``failures`` is a list of
        ``(failed_proc, failure_ts)``.

        Performs Discard and Recall for every local process, then runs
        the registered process-failure callbacks, and resolves the
        returned future (the controller's completion signal).
        """
        done = Future(self.sim)
        recall_futures: List[Future] = []
        for failed_proc, failure_ts in failures:
            for endpoint in self.endpoints.values():
                endpoint.receiver.discard_from(failed_proc, failure_ts)
                to_recall = endpoint.sender.handle_peer_failure(failed_proc)
                for msg in to_recall:
                    recall_futures.append(endpoint.start_recall(msg))

        def _finish(_value=None) -> None:
            # Discard scans and application callbacks cost CPU per failed
            # process (this is why a ToR failure — 8 processes at once —
            # recovers slower than a single host failure, Fig. 10).
            work_ns = 5_000 * len(failures)
            self.sim.schedule(work_ns, _run_callbacks)

        def _run_callbacks() -> None:
            for endpoint in self.endpoints.values():
                endpoint.run_proc_fail_callbacks(failures)
            done.try_resolve(True)

        if recall_futures:
            from repro.sim import all_of

            all_of(recall_futures).add_callback(_finish)
        else:
            _finish()
        return done
