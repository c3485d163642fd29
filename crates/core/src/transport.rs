//! The request pipeline under both clients.
//!
//! The single-endpoint [`Connection`](crate::remote::Connection) and the
//! many-member [`FleetConnection`](crate::fleet::FleetConnection) move every
//! request through one lifecycle: a bounded in-flight window admits it, its
//! frame crosses the fault layer to a server, the response crosses back and
//! lands timestamped, and the caller collects it. A response lost on the
//! wire is retransmitted at its deadline with capped exponential backoff
//! until the retry budget runs out; the request then expires into an inline
//! [`ServerResponse::Error`], so a slot always settles and the window is
//! never overrun.
//!
//! [`Transport`] holds the state that lifecycle needs — the window, the
//! three-timeline wire, the retransmission table, the timer kernel, the
//! buffer pool and the recovery accounting — and [`Pipeline`] runs it.
//! A client supplies only what differs: how frames reach its servers and
//! are served ([`Pipeline::dispatch`], [`Pipeline::transmit`]), how it
//! notices a restart ([`Pipeline::resync`]), and what it does with a
//! response, a retransmit or a kernel event that the shared rules leave
//! open.

use crate::kernel::{Kernel, KernelEvent, TimerId};
use minos_net::{
    BufferPool, FaultPlan, FaultyLink, Frame, FramePayload, InflightWindow, Link, Priority,
    ServerRequest, ServerResponse,
};
use minos_types::{SimClock, SimDuration, SimInstant};
use std::collections::{HashMap, HashSet, VecDeque};

/// The connection id every client frame carries. A client multiplexes all
/// of its requests over one logical connection; servers tell requests
/// apart by request id, which the transport keeps unique.
pub(crate) const CONN_ID: u64 = 1;

/// Default pipelining budget: requests that may be in flight at once.
pub(crate) const DEFAULT_WINDOW: usize = 32;

/// Default per-request deadline. The sim serves every surviving frame by
/// the time a caller waits on it, so a deadline only ever fires on genuine
/// loss — it can be short without risking spurious retransmits.
const DEFAULT_TIMEOUT: SimDuration = SimDuration::from_millis(500);

/// Default retransmission budget before a request expires with an inline
/// error.
const DEFAULT_MAX_RETRIES: u32 = 4;

/// Ceiling on the exponential backoff between retransmits.
const BACKOFF_CAP: SimDuration = SimDuration::from_secs(4);

/// Recovery accounting: what a connection had to do to survive its link.
/// Cleared by `reset_accounting` on either client.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Deadlines that expired before the response landed.
    pub timeouts: u64,
    /// Request frames retransmitted after a timeout.
    pub retries: u64,
    /// Received frames that failed to decode (checksum mismatch or
    /// truncation) and were discarded.
    pub corrupt_frames: u64,
    /// Responses discarded because their `request_id` had already landed
    /// or been collected.
    pub duplicates: u64,
    /// Server epoch changes survived: the connection re-handshook and
    /// replayed its in-flight window after a restart.
    pub epoch_resyncs: u64,
    /// Request frames replayed (or retransmitted) because a server restart
    /// dropped them from the service queue.
    pub replays: u64,
    /// Requests re-aimed at a sibling replica after their target member
    /// restarted or timed out. Always zero on a single-endpoint
    /// [`Connection`](crate::remote::Connection); counted by the fleet
    /// client ([`crate::fleet`]), which has somewhere else to go.
    pub failovers: u64,
    /// Transmit-buffer pool leases served from the free list — no
    /// allocation happened.
    pub pool_hits: u64,
    /// Pool leases that had to allocate a fresh buffer (a cold pool or a
    /// burst deeper than the retained free list). Once the pool is warm a
    /// steady-state window transmits with zero of these.
    pub pool_misses: u64,
}

/// A request frame accepted for transmission but not yet served: its bytes
/// finish arriving at the server at `arrival`.
pub(crate) struct PendingFrame {
    pub(crate) frame: Frame,
    pub(crate) arrival: SimInstant,
}

/// A served response whose bytes finish arriving back at `ready_at`.
pub(crate) struct Landed {
    pub(crate) response: ServerResponse,
    pub(crate) ready_at: SimInstant,
}

/// Retransmission state for a request whose response has not yet landed.
/// The *encoded* frame is what is kept: the request is encoded exactly
/// once (into a pooled buffer), and every retransmit or replay resends
/// these bytes verbatim. `route` is the client's own per-request state.
pub(crate) struct Outstanding<R> {
    pub(crate) frame_bytes: Vec<u8>,
    pub(crate) deadline: SimInstant,
    pub(crate) attempt: u32,
    /// The timer-wheel entry armed for `deadline`; cancelled when the
    /// response lands, rearmed on every retransmit.
    pub(crate) timer: TimerId,
    pub(crate) route: R,
}

/// The state of one client's request pipeline.
///
/// The wire is modelled as serially-reusable resources, each a "free at"
/// instant: the uplink (`up_free`) and the downlink (`down_free`) here,
/// the server devices in the client. Waiting charges only the time
/// between "now" and a response's arrival — that difference is where
/// pipelining wins.
pub(crate) struct Transport<R> {
    pub(crate) link: FaultyLink,
    pub(crate) clock: SimClock,
    next_request_id: u64,
    pub(crate) window: InflightWindow,
    pub(crate) landed: HashMap<u64, Landed>,
    pub(crate) outstanding: HashMap<u64, Outstanding<R>>,
    /// Ids already handed to the caller, remembered (where the client
    /// asks for it) so a late copy of their response counts as a
    /// duplicate instead of landing again.
    pub(crate) collected: HashSet<u64>,
    /// Transmit and payload buffers leased and recycled across the
    /// client's lifetime; its hit/miss accounting is merged into
    /// [`TransportStats`] by [`Transport::transport_stats`].
    pub(crate) pool: BufferPool,
    /// The discrete-event kernel holding every outstanding request's
    /// retransmit deadline, so a lost response on an otherwise-idle
    /// client is discovered at its deadline instead of lazily at the next
    /// collection.
    pub(crate) kernel: Kernel,
    pub(crate) stats: TransportStats,
    timeout: SimDuration,
    max_retries: u32,
    pub(crate) up_free: SimInstant,
    pub(crate) down_free: SimInstant,
}

impl<R> Transport<R> {
    /// A pipeline over `link`, misbehaving according to `plan`, admitting
    /// at most `window` requests at once, with the default recovery policy.
    pub(crate) fn new(link: Link, plan: FaultPlan, window: usize) -> Self {
        Transport {
            link: FaultyLink::new(link, plan),
            clock: SimClock::new(),
            next_request_id: 1,
            window: InflightWindow::new(window),
            landed: HashMap::new(),
            outstanding: HashMap::new(),
            collected: HashSet::new(),
            pool: BufferPool::new(),
            kernel: Kernel::new(),
            stats: TransportStats::default(),
            timeout: DEFAULT_TIMEOUT,
            max_retries: DEFAULT_MAX_RETRIES,
            up_free: SimInstant::EPOCH,
            down_free: SimInstant::EPOCH,
        }
    }

    /// Sets the per-request deadline (at least 1 µs) and how many
    /// retransmits are attempted before a request expires.
    pub(crate) fn set_recovery(&mut self, timeout: SimDuration, max_retries: u32) {
        self.timeout = timeout.max(SimDuration::from_micros(1));
        self.max_retries = max_retries;
    }

    pub(crate) fn timeout(&self) -> SimDuration {
        self.timeout
    }

    /// Total simulated time spent so far.
    pub(crate) fn elapsed(&self) -> SimDuration {
        self.clock.now().since(SimInstant::EPOCH)
    }

    /// The recovery counters with the pool's hit/miss accounting merged in.
    pub(crate) fn transport_stats(&self) -> TransportStats {
        let pool = self.pool.stats();
        TransportStats { pool_hits: pool.hits, pool_misses: pool.misses, ..self.stats }
    }

    /// Resets the accounting *and* the pipeline state: link and fault
    /// counters, the clock, the wire timelines, every uncollected request,
    /// the pool counters and the kernel.
    pub(crate) fn reset(&mut self) {
        self.link.reset();
        self.clock = SimClock::new();
        self.up_free = SimInstant::EPOCH;
        self.down_free = SimInstant::EPOCH;
        self.landed.clear();
        self.outstanding.clear();
        self.collected.clear();
        self.pool.reset_stats();
        // The clock restarts at the epoch, so every armed deadline is
        // stale: replace the kernel wholesale, counters included.
        self.kernel = Kernel::new();
        self.stats = TransportStats::default();
        self.window = InflightWindow::new(self.window.capacity());
    }

    /// Charges the uplink for a `wire`-byte frame leaving now; returns the
    /// instant its last byte reaches the server.
    pub(crate) fn charge_up(&mut self, wire: u64) -> SimInstant {
        let up = self.link.charge(wire);
        let arrival = self.clock.now().max(self.up_free) + up;
        self.up_free = arrival;
        arrival
    }

    /// Charges the downlink for a `wire`-byte frame the server finished at
    /// `done`; returns the instant its last byte reaches the client.
    pub(crate) fn charge_down(&mut self, done: SimInstant, wire: u64) -> SimInstant {
        let down = self.link.charge(wire);
        let delivered = done.max(self.down_free) + down;
        self.down_free = delivered;
        delivered
    }

    /// Encodes `request` once — from its borrow, into a pooled buffer —
    /// and records the bytes as retransmission state with a deadline armed
    /// on the kernel. The caller then puts it on the wire.
    pub(crate) fn track(&mut self, request_id: u64, request: &ServerRequest, route: R) {
        let deadline = self.clock.now() + self.timeout;
        let mut frame_bytes = self.pool.lease_vec();
        Frame::encode_request_into(
            CONN_ID,
            request_id,
            Priority::Demand,
            request,
            &mut frame_bytes,
        );
        let timer = self.kernel.arm(deadline, KernelEvent::RetryDue { request_id, attempt: 0 });
        self.outstanding
            .insert(request_id, Outstanding { frame_bytes, deadline, attempt: 0, timer, route });
    }

    /// Puts `request_id`'s stored frame bytes on the uplink through the
    /// fault layer; whatever survives decoding joins `queue`, the frames in
    /// transit to the request's server.
    pub(crate) fn transmit(&mut self, request_id: u64, queue: &mut VecDeque<PendingFrame>) {
        let Some(out) = self.outstanding.get(&request_id) else {
            return;
        };
        let (up, deliveries) = self.link.transmit(&out.frame_bytes);
        let arrival = self.clock.now().max(self.up_free) + up;
        self.up_free = arrival;
        for delivery in deliveries {
            match Frame::decode(&delivery.bytes) {
                Ok(delivered) if delivered.as_request().is_some() => {
                    queue.push_back(PendingFrame {
                        frame: delivered,
                        arrival: arrival + delivery.delay,
                    });
                }
                Ok(_) => {}
                Err(_) => self.stats.corrupt_frames += 1,
            }
        }
    }

    /// Retires window slots whose responses have already arrived.
    pub(crate) fn settle(&mut self) {
        let now = self.clock.now();
        let arrived: Vec<u64> =
            self.landed.iter().filter(|(_, l)| l.ready_at <= now).map(|(&rid, _)| rid).collect();
        for rid in arrived {
            self.window.close(rid);
        }
    }

    /// Hands `request_id`'s slot back: closes its window entry, drops its
    /// retransmission state, and — when `remember` — records the id so a
    /// late duplicate of its response is suppressed.
    pub(crate) fn retire(&mut self, request_id: u64, remember: bool) {
        self.window.close(request_id);
        if let Some(out) = self.outstanding.remove(&request_id) {
            self.kernel.cancel(out.timer);
            self.pool.recycle(out.frame_bytes);
        }
        if remember {
            self.collected.insert(request_id);
        }
    }

    /// Lands an inline error for `request_id` at the current instant.
    fn land_error(&mut self, request_id: u64, message: String) {
        let ready_at = self.clock.now();
        self.landed
            .insert(request_id, Landed { response: ServerResponse::Error(message), ready_at });
    }
}

/// The request lifecycle both clients run over their [`Transport`].
///
/// The provided methods are the shared rules; the required ones, and the
/// overridable hooks, are where the clients differ.
pub(crate) trait Pipeline {
    /// The client's own per-request state, kept beside the retransmission
    /// state.
    type Route;

    /// The shared pipeline state.
    fn transport(&mut self) -> &mut Transport<Self::Route>;

    /// Detects server restarts and replays whatever in-flight work they
    /// lost.
    fn resync(&mut self);

    /// Serves every frame that has reached a server and lands the
    /// responses (through [`Pipeline::land`] or directly).
    fn dispatch(&mut self);

    /// Puts a tracked request's stored bytes on the wire toward its
    /// current server ([`Transport::transmit`] into that server's queue).
    fn transmit(&mut self, request_id: u64);

    /// Whether a collected request id is remembered for duplicate
    /// suppression — true wherever a late second copy can arrive.
    fn remembers_collected(&self) -> bool;

    /// Takes a response that is not a duplicate. By default it lands for
    /// collection.
    fn accept(&mut self, request_id: u64, response: ServerResponse, at: SimInstant) {
        self.transport().landed.insert(request_id, Landed { response, ready_at: at });
    }

    /// Runs before a timed-out request is retransmitted, after its next
    /// deadline is armed. By default the retransmit goes where the first
    /// send went.
    fn retarget(&mut self, _request_id: u64) {}

    /// Gives the client first claim on a due request that is not lost but
    /// parked; returns whether it handled the deadline. By default nothing
    /// is ever parked.
    fn resume_parked(&mut self, _request_id: u64) -> bool {
        false
    }

    /// Handles a kernel event other than a retransmit deadline. By default
    /// there are none, so any that fires is spurious.
    fn on_event(&mut self, _event: KernelEvent) {
        self.transport().kernel.note_spurious();
    }

    /// Admits the next submission into the flow-control window: resyncs,
    /// settles arrived responses, waits out (or times out) a full window,
    /// and allocates the request id.
    fn admit_slot(&mut self) -> u64 {
        self.resync();
        self.transport().settle();
        while self.transport().window.is_full() {
            self.dispatch();
            let t = self.transport();
            t.settle();
            if !t.window.is_full() {
                break;
            }
            let now = t.clock.now();
            if let Some(next) = t.landed.values().map(|l| l.ready_at).filter(|&at| at > now).min() {
                t.clock.advance_to_at_least(next);
                t.settle();
                continue;
            }
            // Window full with nothing landed and nothing arriving: every
            // open slot's response was lost on the wire. Force the oldest
            // slot through a timeout round (retransmit or expire) rather
            // than opening another slot and overrunning the bound.
            let Some(oldest) = t.window.oldest() else { break };
            self.force_progress(oldest);
            self.transport().settle();
        }
        let t = self.transport();
        let request_id = t.next_request_id;
        t.next_request_id += 1;
        request_id
    }

    /// Collects the response for `request_id`, advancing the clock to its
    /// arrival and returning how long the caller actually waited (zero if
    /// it had already landed). A lost response is forced through its
    /// deadlines until it lands or expires. `None` when the id is unknown
    /// or already collected.
    fn collect(&mut self, request_id: u64) -> Option<(ServerResponse, SimDuration)> {
        let started = self.transport().clock.now();
        loop {
            self.resync();
            self.dispatch();
            let remember = self.remembers_collected();
            let t = self.transport();
            if let Some(landed) = t.landed.remove(&request_id) {
                t.clock.advance_to_at_least(landed.ready_at);
                let waited = t.clock.now().saturating_since(started);
                t.retire(request_id, remember);
                return Some((landed.response, waited));
            }
            if !t.outstanding.contains_key(&request_id) {
                return None;
            }
            self.force_progress(request_id);
        }
    }

    /// Drives the clock to `at`, stepping armed-deadline to armed-deadline:
    /// the clock reaches each deadline exactly when it fires, so a
    /// retransmit's backoff chains from the deadline — identical to the
    /// collection discipline — instead of from the far end of the jump.
    /// `next_deadline` may name an intermediate cascade tick where nothing
    /// fires yet; those rounds drain empty and the loop steps on.
    fn step_timers_to(&mut self, at: SimInstant) {
        while let Some(next) = self.transport().kernel.next_deadline() {
            if next > at {
                break;
            }
            self.transport().clock.advance_to_at_least(next);
            self.drain_timers();
        }
        let t = self.transport();
        t.clock.advance_to_at_least(at);
        let now = t.clock.now();
        t.kernel.advance_to(now);
        self.drain_timers();
    }

    /// Fires every kernel event due at the current clock. A retransmit
    /// deadline whose response landed in the meantime (or whose request
    /// moved on to a later attempt) is a spurious wake. Re-advances each
    /// round because a handler can arm a deadline already behind kernel
    /// time (a capped backoff), which lands due immediately and must still
    /// be flushed.
    fn drain_timers(&mut self) {
        loop {
            let t = self.transport();
            let now = t.clock.now();
            t.kernel.advance_to(now);
            let Some(event) = t.kernel.take_ready() else { break };
            let KernelEvent::RetryDue { request_id, attempt } = event else {
                self.on_event(event);
                continue;
            };
            let due = t
                .outstanding
                .get(&request_id)
                .is_some_and(|o| o.attempt == attempt && o.deadline <= now);
            if due && !t.landed.contains_key(&request_id) {
                self.force_progress(request_id);
            } else {
                t.kernel.note_spurious();
            }
        }
    }

    /// Forces progress on a slot whose response has not landed: waits out
    /// its deadline, then either retransmits (doubling the deadline, up to
    /// [`BACKOFF_CAP`]) or — retries exhausted — expires the request with
    /// an inline [`ServerResponse::Error`] so the slot can settle and the
    /// pipeline keeps moving. A slot with no retransmission state lands an
    /// inline error immediately: better a typed failure than an overrun
    /// window or a hang.
    fn force_progress(&mut self, request_id: u64) {
        let t = self.transport();
        let Some((deadline, attempt, timer)) =
            t.outstanding.get(&request_id).map(|o| (o.deadline, o.attempt, o.timer))
        else {
            t.land_error(
                request_id,
                format!("request {request_id} lost with no retransmission state"),
            );
            return;
        };
        if self.resume_parked(request_id) {
            return;
        }
        let t = self.transport();
        t.stats.timeouts += 1;
        t.clock.advance_to_at_least(deadline);
        t.kernel.cancel(timer);
        if attempt >= t.max_retries {
            if let Some(out) = t.outstanding.remove(&request_id) {
                t.pool.recycle(out.frame_bytes);
            }
            t.land_error(
                request_id,
                format!("request {request_id} timed out after {} attempts", attempt + 1),
            );
            return;
        }
        t.stats.retries += 1;
        let shift = (attempt + 1).min(16);
        let backoff = SimDuration::from_micros(t.timeout.as_micros().saturating_mul(1u64 << shift))
            .min(BACKOFF_CAP);
        let next_deadline = t.clock.now() + backoff;
        let fresh =
            t.kernel.arm(next_deadline, KernelEvent::RetryDue { request_id, attempt: attempt + 1 });
        if let Some(out) = t.outstanding.get_mut(&request_id) {
            out.attempt = attempt + 1;
            out.deadline = next_deadline;
            out.timer = fresh;
        }
        self.retarget(request_id);
        self.transmit(request_id);
    }

    /// Charges the downlink for one response frame the server finished at
    /// `done` and lands it. On a clean link the typed frame only measures
    /// its wire size; on a faulty link the encoded frame crosses the fault
    /// layer: corrupt copies are counted and discarded (the deadline
    /// machinery will retransmit), duplicates are suppressed by request id.
    fn land(&mut self, request_id: u64, response: ServerResponse, done: SimInstant) {
        let t = self.transport();
        let frame = Frame::response(CONN_ID, request_id, response);
        if t.link.is_clean() {
            let delivered = t.charge_down(done, frame.wire_size());
            let FramePayload::Response(response) = frame.payload else {
                return;
            };
            self.receive(request_id, response, delivered);
            return;
        }
        let mut bytes = t.pool.lease_vec();
        frame.encode_into(&mut bytes);
        let (down, deliveries) = t.link.transmit(&bytes);
        let delivered = done.max(t.down_free) + down;
        t.down_free = delivered;
        for delivery in deliveries {
            match Frame::decode(&delivery.bytes) {
                Ok(received) => {
                    let FramePayload::Response(response) = received.payload else {
                        continue;
                    };
                    self.receive(received.request_id, response, delivered + delivery.delay);
                }
                Err(_) => self.transport().stats.corrupt_frames += 1,
            }
        }
        self.transport().pool.recycle(bytes);
    }

    /// Accepts one response copy at its delivery instant unless its id has
    /// already landed or been collected.
    fn receive(&mut self, request_id: u64, response: ServerResponse, at: SimInstant) {
        let t = self.transport();
        if t.collected.contains(&request_id) || t.landed.contains_key(&request_id) {
            t.stats.duplicates += 1;
            return;
        }
        self.accept(request_id, response, at);
    }
}
