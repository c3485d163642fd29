//! The workstation side of the architecture.
//!
//! "The multimedia object presentation manager resides in the user's
//! workstation and requests the appropriate pieces of information from the
//! multimedia object server subsystems." (§5)
//!
//! A [`Workstation`] wraps a server endpoint behind a link model and
//! accounts for every simulated microsecond and byte: request transfer,
//! server device time, response transfer. Experiments E5 (views vs whole
//! images) and E6 (miniature-first browsing) read their numbers from here.
//!
//! Underneath, every request travels as a [`minos_net::Frame`] on a
//! pipelined [`Connection`]: [`Connection::submit`] puts a request frame on
//! the wire and returns a [`Ticket`] immediately, so several requests can
//! overlap link transfer with server device time; [`Connection::wait`]
//! collects the response and charges only the time the caller actually had
//! to wait. The blocking [`Workstation::request`]/
//! [`Workstation::request_batch`] calls are thin submit-then-wait shims
//! over this pipeline, so every pre-existing call site keeps its exact
//! semantics while anticipatory code gets true overlap.

use crate::kernel::{Kernel, KernelEvent, TimerId};
use minos_image::{Bitmap, View};
use minos_net::{
    BufferPool, FaultPlan, FaultyLink, Frame, FramePayload, InflightWindow, Link, Priority,
    ServerRequest, ServerResponse,
};
use minos_object::{ArchivedObject, DataKind, DataPayload};
use minos_server::ObjectServer;
use minos_types::{
    ByteSpan, MinosError, ObjectId, Rect, Result, SimClock, SimDuration, SimInstant, Size,
};
use std::collections::{HashMap, HashSet, VecDeque};

/// Anything that can answer protocol requests with a device-time charge.
pub trait ServerEndpoint {
    /// Handles one request.
    fn handle(&mut self, request: &ServerRequest) -> (ServerResponse, SimDuration);

    /// The endpoint's restart epoch. Endpoints that never restart report a
    /// constant 0; a bump tells the connection its in-flight window was
    /// lost in the restart and must be replayed.
    fn epoch(&self) -> u64 {
        0
    }

    /// Clears any endpoint-side accounting (service-loop counters and
    /// overload high-water marks). Endpoints without accounting need not
    /// override.
    fn reset_stats(&mut self) {}
}

impl ServerEndpoint for ObjectServer {
    fn handle(&mut self, request: &ServerRequest) -> (ServerResponse, SimDuration) {
        ObjectServer::handle(self, request)
    }

    fn epoch(&self) -> u64 {
        ObjectServer::epoch(self)
    }

    fn reset_stats(&mut self) {
        self.reset_service_stats();
    }
}

/// A handle to a submitted, not-yet-collected request on a [`Connection`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Ticket(u64);

/// A request frame accepted for transmission but not yet served: its bytes
/// finish arriving at the server at `arrival`. Shared with the fleet
/// transport ([`crate::fleet`]), which runs the same three-timeline wire
/// discipline against many members.
pub(crate) struct PendingFrame {
    pub(crate) frame: Frame,
    pub(crate) arrival: SimInstant,
}

/// A served response whose bytes finish arriving back at `ready_at`.
pub(crate) struct Landed {
    pub(crate) response: ServerResponse,
    pub(crate) ready_at: SimInstant,
}

/// Retransmission state for a request whose response has not yet landed
/// (kept only on faulty links; a clean link never loses a frame). The
/// *encoded* frame is what is kept: the request is encoded exactly once at
/// submit (into a pooled buffer), and every retransmit or epoch replay
/// resends these bytes verbatim — the old double copy (an owned clone of
/// the request plus a fresh encode per transmit) is gone.
struct Outstanding {
    frame_bytes: Vec<u8>,
    deadline: SimInstant,
    attempt: u32,
    /// The timer-wheel entry armed for `deadline`; cancelled when the
    /// response lands, rearmed on every retransmit.
    timer: TimerId,
}

/// Recovery accounting: what the connection had to do to survive its link.
/// Cleared by [`Connection::reset_accounting`].
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
    /// [`Connection`]; counted by the fleet transport ([`crate::fleet`]),
    /// which has somewhere else to go.
    pub failovers: u64,
    /// Transmit-buffer pool leases served from the free list — no
    /// allocation happened.
    pub pool_hits: u64,
    /// Pool leases that had to allocate a fresh buffer (a cold pool or a
    /// burst deeper than the retained free list).
    pub pool_misses: u64,
    /// Fresh payload-buffer allocations on the frame hot path. For a
    /// connection this is its pool misses: once the pool is warm a
    /// steady-state window transmits with zero of these.
    pub payload_allocs: u64,
}

/// Default pipelining budget: requests that may be in flight at once.
const DEFAULT_WINDOW: usize = 32;

/// Default per-request deadline. The sim serves every surviving frame by
/// the time a caller waits on it, so a deadline only ever fires on genuine
/// loss — it can be short without risking spurious retransmits.
const DEFAULT_TIMEOUT: SimDuration = SimDuration::from_millis(500);

/// Default retransmission budget before a request expires with an inline
/// error.
const DEFAULT_MAX_RETRIES: u32 = 4;

/// Ceiling on the exponential backoff between retransmits.
const BACKOFF_CAP: SimDuration = SimDuration::from_secs(4);

/// A pipelined connection to a server endpoint over a link.
///
/// The connection models three serially-reusable resources — the uplink,
/// the server device, and the downlink — each as a "free at" instant.
/// Submitting charges the uplink immediately; [`Connection::dispatch`]
/// moves pending frames through the device and downlink, coalescing a
/// leading run of adjacent span fetches into one device read and one
/// merged downlink transfer (the §5 anticipatory shape, preserved from the
/// batch path so pipelining never costs extra actuator seeks). Responses
/// land timestamped; waiting charges only the time between "now" and the
/// response's arrival — that difference is where pipelining wins.
pub struct Connection<E: ServerEndpoint> {
    endpoint: E,
    /// The endpoint epoch last handshaken; a mismatch at the next submit
    /// or wait triggers the resync-and-replay path.
    server_epoch: u64,
    link: FaultyLink,
    clock: SimClock,
    conn_id: u64,
    next_request_id: u64,
    window: InflightWindow,
    pending: VecDeque<PendingFrame>,
    landed: HashMap<u64, Landed>,
    outstanding: HashMap<u64, Outstanding>,
    collected: HashSet<u64>,
    /// Transmit and payload buffers leased and recycled across the
    /// connection's lifetime; its hit/miss accounting is merged into
    /// [`TransportStats`] by [`Connection::transport_stats`].
    pool: BufferPool,
    /// The discrete-event kernel holding every outstanding request's
    /// retransmit deadline, so a lost response on an otherwise-idle
    /// connection is discovered by [`Connection::advance_to`] at its
    /// deadline instead of lazily at the next collection.
    kernel: Kernel,
    transport: TransportStats,
    timeout: SimDuration,
    max_retries: u32,
    up_free: SimInstant,
    dev_free: SimInstant,
    down_free: SimInstant,
    round_trips: u64,
}

impl<E: ServerEndpoint> Connection<E> {
    /// Opens a connection to `endpoint` over `link` with the default
    /// in-flight window.
    pub fn new(endpoint: E, link: Link) -> Self {
        Connection::with_window(endpoint, link, DEFAULT_WINDOW)
    }

    /// Opens a connection with an explicit in-flight window capacity
    /// (capacity 1 degenerates to the old blocking discipline).
    pub fn with_window(endpoint: E, link: Link, window: usize) -> Self {
        Connection::with_faults(endpoint, link, window, FaultPlan::none())
    }

    /// Opens a connection whose link misbehaves according to `plan`. With
    /// a clean plan this is byte-for-byte identical to [`Connection::new`];
    /// otherwise every frame crosses the fault layer and the recovery
    /// machinery (deadlines, retransmission, duplicate suppression)
    /// engages.
    pub fn with_faults(endpoint: E, link: Link, window: usize, plan: FaultPlan) -> Self {
        let server_epoch = endpoint.epoch();
        Connection {
            endpoint,
            server_epoch,
            link: FaultyLink::new(link, plan),
            clock: SimClock::new(),
            conn_id: 1,
            next_request_id: 1,
            window: InflightWindow::new(window),
            pending: VecDeque::new(),
            landed: HashMap::new(),
            outstanding: HashMap::new(),
            collected: HashSet::new(),
            pool: BufferPool::new(),
            kernel: Kernel::new(),
            transport: TransportStats::default(),
            timeout: DEFAULT_TIMEOUT,
            max_retries: DEFAULT_MAX_RETRIES,
            up_free: SimInstant::EPOCH,
            dev_free: SimInstant::EPOCH,
            down_free: SimInstant::EPOCH,
            round_trips: 0,
        }
    }

    /// Overrides the recovery policy: per-request deadline and how many
    /// retransmits are attempted before a request expires with an inline
    /// [`ServerResponse::Error`].
    pub fn with_recovery(mut self, timeout: SimDuration, max_retries: u32) -> Self {
        self.timeout = timeout.max(SimDuration::from_micros(1));
        self.max_retries = max_retries;
        self
    }

    /// Total simulated time spent so far.
    pub fn elapsed(&self) -> SimDuration {
        self.clock.now().since(SimInstant::EPOCH)
    }

    /// Payload bytes moved over the link so far.
    pub fn bytes_transferred(&self) -> u64 {
        self.link.stats().bytes
    }

    /// Link transfer statistics (messages, bytes, busy time).
    pub fn link_stats(&self) -> minos_net::LinkStats {
        self.link.stats()
    }

    /// What the fault layer did to this connection's frames.
    pub fn fault_stats(&self) -> minos_net::FaultStats {
        self.link.fault_stats()
    }

    /// What the recovery machinery had to do: timeouts, retries, corrupt
    /// frames discarded, duplicates suppressed — plus the transmit-pool
    /// accounting (hits, misses, fresh payload allocations).
    pub fn transport_stats(&self) -> TransportStats {
        let pool = self.pool.stats();
        TransportStats {
            pool_hits: pool.hits,
            pool_misses: pool.misses,
            payload_allocs: self.transport.payload_allocs + pool.misses,
            ..self.transport
        }
    }

    /// Round trips so far: times the connection went from idle (nothing in
    /// flight) to busy. A blocking caller pays one per request; a
    /// pipelined burst pays one for the whole burst — that is its point.
    pub fn round_trips(&self) -> u64 {
        self.round_trips
    }

    /// Hands a consumed payload buffer back to the connection's transmit
    /// pool. Callers that drain pipelined span responses can return the
    /// buffers here so the steady-state hot path re-serves them instead of
    /// allocating a fresh one per page. Each side recycles into its own
    /// pool: buffers this connection produced (coalesced batch slices,
    /// faulty-link decodes) come back here, while payloads the in-process
    /// server leased on the clean path belong to the server's
    /// `recycle_payload`.
    pub fn recycle_payload(&mut self, buf: Vec<u8>) {
        self.pool.recycle(buf);
    }

    /// Requests submitted and not yet collected.
    pub fn in_flight(&self) -> usize {
        self.window.len()
    }

    /// The in-flight window capacity.
    pub fn window_capacity(&self) -> usize {
        self.window.capacity()
    }

    /// The wrapped endpoint.
    pub fn endpoint(&self) -> &E {
        &self.endpoint
    }

    /// Mutable endpoint access.
    pub fn endpoint_mut(&mut self) -> &mut E {
        &mut self.endpoint
    }

    /// Resets the accounting *and* the pipeline state (between experiment
    /// configurations): link statistics, the clock, the round-trip count,
    /// the resource timelines, and any uncollected frames. A ticket from
    /// before the reset is gone — waiting on it is a protocol error.
    pub fn reset_accounting(&mut self) {
        self.link.reset();
        self.clock = SimClock::new();
        self.round_trips = 0;
        self.up_free = SimInstant::EPOCH;
        self.dev_free = SimInstant::EPOCH;
        self.down_free = SimInstant::EPOCH;
        self.pending.clear();
        self.landed.clear();
        self.outstanding.clear();
        self.collected.clear();
        self.pool.reset_stats();
        // The clock restarts at the epoch, so every armed deadline is
        // stale: replace the kernel wholesale, counters included.
        self.kernel = Kernel::new();
        self.transport = TransportStats::default();
        self.window = InflightWindow::new(self.window.capacity());
        self.endpoint.reset_stats();
        // A reset adopts the endpoint's current epoch: there is no window
        // left to replay, so a restart before the reset costs nothing
        // after it.
        self.server_epoch = self.endpoint.epoch();
    }

    /// Detects a server restart (epoch bump) and recovers: a
    /// `Hello`/`Welcome` handshake round trip is charged on the wire, then
    /// the in-flight window is replayed *idempotently* — request ids are
    /// unchanged and ids whose responses already landed or were collected
    /// are skipped, so no request is ever served twice into the collected
    /// stream.
    fn resync_epoch(&mut self) {
        if self.endpoint.epoch() == self.server_epoch {
            return;
        }
        self.transport.epoch_resyncs += 1;
        // The handshake round trip: Hello up, device-free answer, Welcome
        // down, each on its resource timeline.
        let hello =
            Frame::request(self.conn_id, 0, ServerRequest::Hello { epoch: self.server_epoch });
        let up = self.link.charge(hello.wire_size());
        let hello_arrival = self.clock.now().max(self.up_free) + up;
        self.up_free = hello_arrival;
        let (answer, took) =
            self.endpoint.handle(&ServerRequest::Hello { epoch: self.server_epoch });
        let done = hello_arrival.max(self.dev_free) + took;
        self.dev_free = done;
        // The answer moves into the frame for an arithmetic wire-size
        // measurement and is read back out of it — never cloned.
        let welcome = Frame::response(self.conn_id, 0, answer);
        let down = self.link.charge(welcome.wire_size());
        let delivered = done.max(self.down_free) + down;
        self.down_free = delivered;
        self.clock.advance_to_at_least(delivered);
        self.server_epoch = match welcome.payload {
            FramePayload::Response(ServerResponse::Welcome { epoch }) => epoch,
            _ => self.endpoint.epoch(),
        };
        if self.link.is_clean() {
            // Requests that reached the restarted server unanswered died
            // with its volatile queue; put them back on the uplink with
            // their original ids.
            let replay: Vec<Frame> = self.pending.drain(..).map(|p| p.frame).collect();
            for frame in replay {
                if self.landed.contains_key(&frame.request_id)
                    || self.collected.contains(&frame.request_id)
                {
                    continue;
                }
                self.transport.replays += 1;
                let up = self.link.charge(frame.wire_size());
                let arrival = self.clock.now().max(self.up_free) + up;
                self.up_free = arrival;
                self.pending.push_back(PendingFrame { frame, arrival });
            }
            return;
        }
        // Faulty links: in-server copies are gone; every still-outstanding
        // request goes back through the ordinary transmit machinery (its
        // deadline state is untouched — a replay is not a timeout).
        self.pending.clear();
        // Sorted so the replay order never depends on hash iteration
        // order, which differs between processes.
        let mut lost: Vec<u64> = self
            .outstanding
            .keys()
            .copied()
            .filter(|rid| !self.landed.contains_key(rid) && !self.collected.contains(rid))
            .collect();
        lost.sort_unstable();
        for rid in lost {
            self.transport.replays += 1;
            self.transmit_request(rid);
        }
    }

    /// Admits the next submission into the flow-control window: resyncs epochs,
    /// settles arrived responses, waits out (or times out) a full window,
    /// and allocates the request id.
    fn admit_slot(&mut self) -> u64 {
        self.resync_epoch();
        self.settle();
        while self.window.is_full() {
            self.dispatch();
            self.settle();
            if !self.window.is_full() {
                break;
            }
            let now = self.clock.now();
            if let Some(next) = self.landed.values().map(|l| l.ready_at).filter(|&t| t > now).min()
            {
                self.clock.advance_to_at_least(next);
                self.settle();
                continue;
            }
            // Window full with nothing landed and nothing arriving: every
            // open slot's response was lost on the wire. Force the oldest
            // slot through a timeout round (retransmit or expire) rather
            // than opening another slot anyway — the old code broke out
            // here and silently overran the flow-control bound.
            let Some(oldest) = self.window.oldest() else { break };
            self.force_progress(oldest);
            self.settle();
        }
        if self.window.is_empty() {
            self.round_trips += 1;
        }
        let request_id = self.next_request_id;
        self.next_request_id += 1;
        request_id
    }

    /// Submits one request, charging its uplink transfer, and returns a
    /// ticket for collecting the response later. If the in-flight window
    /// is exhausted the call first waits out the oldest response (the
    /// pipelined analogue of blocking); on a faulty link a slot whose
    /// response was lost is forced through the timeout machinery instead
    /// of being overrun.
    pub fn submit(&mut self, request: ServerRequest) -> Ticket {
        let request_id = self.admit_slot();
        if self.link.is_clean() {
            // Fast path: the typed frame is handed to the server directly;
            // its wire size is computed arithmetically, so nothing is
            // copied or encoded on the hot path.
            let frame = Frame::request(self.conn_id, request_id, request);
            let up = self.link.charge(frame.wire_size());
            let arrival = self.clock.now().max(self.up_free) + up;
            self.up_free = arrival;
            self.pending.push_back(PendingFrame { frame, arrival });
        } else {
            self.submit_encoded(request_id, &request);
        }
        self.window.open(request_id);
        Ticket(request_id)
    }

    /// [`Connection::submit`] from a borrowed request, never cloning:
    /// plain-value requests are copied field-for-field onto the clean
    /// path's typed frame, and anything that owns heap data (or any
    /// request on a faulty link) encodes straight from the borrow into a
    /// pooled buffer.
    pub fn submit_ref(&mut self, request: &ServerRequest) -> Ticket {
        let request_id = self.admit_slot();
        match request.plain_copy() {
            Some(copy) if self.link.is_clean() => {
                let frame = Frame::request(self.conn_id, request_id, copy);
                let up = self.link.charge(frame.wire_size());
                let arrival = self.clock.now().max(self.up_free) + up;
                self.up_free = arrival;
                self.pending.push_back(PendingFrame { frame, arrival });
            }
            _ => self.submit_encoded(request_id, request),
        }
        self.window.open(request_id);
        Ticket(request_id)
    }

    /// Encodes `request` once — from its borrow, into a pooled buffer —
    /// records the bytes as retransmission state, and puts them on the
    /// wire.
    fn submit_encoded(&mut self, request_id: u64, request: &ServerRequest) {
        let deadline = self.clock.now() + self.timeout;
        let mut frame_bytes = self.pool.lease_vec();
        Frame::encode_request_into(
            self.conn_id,
            request_id,
            Priority::Demand,
            request,
            &mut frame_bytes,
        );
        let timer = self.kernel.arm(deadline, KernelEvent::RetryDue { request_id, attempt: 0 });
        self.outstanding
            .insert(request_id, Outstanding { frame_bytes, deadline, attempt: 0, timer });
        self.transmit_request(request_id);
    }

    /// Puts the outstanding request `request_id`'s stored frame bytes on
    /// the wire through the fault layer; whatever survives decoding joins
    /// the pending queue. Every transmission — first send, timeout
    /// retransmit, epoch replay — resends the identical bytes encoded at
    /// submit time.
    fn transmit_request(&mut self, request_id: u64) {
        let Some(out) = self.outstanding.get(&request_id) else {
            return;
        };
        let (up, deliveries) = self.link.transmit(&out.frame_bytes);
        let arrival = self.clock.now().max(self.up_free) + up;
        self.up_free = arrival;
        for delivery in deliveries {
            match Frame::decode(&delivery.bytes) {
                Ok(delivered) if delivered.as_request().is_some() => {
                    self.pending.push_back(PendingFrame {
                        frame: delivered,
                        arrival: arrival + delivery.delay,
                    });
                }
                Ok(_) => {}
                Err(_) => self.transport.corrupt_frames += 1,
            }
        }
    }

    /// Collects the response for `ticket`, advancing the clock to its
    /// arrival and returning how long the caller actually waited (zero if
    /// the response had already landed — that time was won by overlap).
    /// On a faulty link a lost response is retransmitted after its
    /// deadline, with capped exponential backoff; a request that exhausts
    /// its retries comes back as an inline [`ServerResponse::Error`], as do
    /// server-side errors.
    pub fn wait(&mut self, ticket: Ticket) -> Result<(ServerResponse, SimDuration)> {
        let started = self.clock.now();
        loop {
            self.resync_epoch();
            self.dispatch();
            if let Some(landed) = self.landed.remove(&ticket.0) {
                self.clock.advance_to_at_least(landed.ready_at);
                let waited = self.clock.now().saturating_since(started);
                self.window.close(ticket.0);
                if let Some(out) = self.outstanding.remove(&ticket.0) {
                    self.kernel.cancel(out.timer);
                    self.pool.recycle(out.frame_bytes);
                }
                if !self.link.is_clean() {
                    self.collected.insert(ticket.0);
                }
                return Ok((landed.response, waited));
            }
            if !self.outstanding.contains_key(&ticket.0) {
                return Err(MinosError::Protocol(format!(
                    "unknown or already-collected {ticket:?}"
                )));
            }
            self.force_progress(ticket.0);
        }
    }

    /// Collects the response for `ticket` only if it has already arrived;
    /// never advances the clock (and therefore never times anything out).
    pub fn poll(&mut self, ticket: Ticket) -> Option<ServerResponse> {
        self.resync_epoch();
        self.dispatch();
        if self.landed.get(&ticket.0)?.ready_at > self.clock.now() {
            return None;
        }
        self.window.close(ticket.0);
        if let Some(out) = self.outstanding.remove(&ticket.0) {
            self.kernel.cancel(out.timer);
            self.pool.recycle(out.frame_bytes);
        }
        if !self.link.is_clean() {
            self.collected.insert(ticket.0);
        }
        self.landed.remove(&ticket.0).map(|l| l.response)
    }

    /// Drives the connection to `at` without collecting anything. The
    /// timer wheel discovers every retransmit deadline that falls due in
    /// the interval and fires it: a lost response on an otherwise-idle
    /// connection retransmits (or expires) *at its deadline*, instead of
    /// waiting for the next [`Connection::wait`] to stumble on it. Fired
    /// deadlines whose response landed in the meantime are counted as
    /// spurious wakes and ignored.
    pub fn advance_to(&mut self, at: SimInstant) {
        self.resync_epoch();
        self.dispatch();
        // Step armed-deadline to armed-deadline: the clock reaches each
        // deadline exactly when it fires, so a retransmit's backoff
        // chains from the deadline — identical to the wait() discipline —
        // instead of from the far end of the jump. next_deadline may
        // name an intermediate cascade tick where nothing fires yet;
        // those rounds drain empty and the loop steps on.
        while let Some(next) = self.kernel.next_deadline() {
            if next > at {
                break;
            }
            self.clock.advance_to_at_least(next);
            self.drain_retry_wakes();
        }
        self.clock.advance_to_at_least(at);
        self.kernel.advance_to(self.clock.now());
        self.drain_retry_wakes();
        self.dispatch();
        self.settle();
    }

    /// Fires every kernel event due at the current clock and handles the
    /// retransmit wakes among them. Re-advances each round because a
    /// handler can arm a deadline already behind kernel time (a capped
    /// backoff), which lands due immediately and must still be flushed.
    fn drain_retry_wakes(&mut self) {
        loop {
            self.kernel.advance_to(self.clock.now());
            let Some(event) = self.kernel.take_ready() else { break };
            let KernelEvent::RetryDue { request_id, attempt } = event else {
                self.kernel.note_spurious();
                continue;
            };
            let now = self.clock.now();
            let due = self
                .outstanding
                .get(&request_id)
                .is_some_and(|o| o.attempt == attempt && o.deadline <= now);
            if due && !self.landed.contains_key(&request_id) {
                self.force_progress(request_id);
            } else {
                self.kernel.note_spurious();
            }
        }
    }

    /// The timer-wheel counters for this connection's recovery machinery.
    pub fn kernel_stats(&self) -> crate::kernel::KernelStats {
        self.kernel.stats()
    }

    /// Drains the connection kernel's trace ring as a JSON array (see
    /// [`Kernel::drain_trace_json`]).
    pub fn drain_kernel_trace(&mut self) -> String {
        self.kernel.drain_trace_json()
    }

    /// Forces progress on a slot whose response has not landed: waits out
    /// its deadline, then either retransmits (doubling the deadline, up to
    /// [`BACKOFF_CAP`]) or — retries exhausted — expires the request with
    /// an inline [`ServerResponse::Error`] so the slot can settle and the
    /// pipeline keeps moving. A slot with no retransmission state (clean
    /// links keep none) lands an inline error immediately: better a typed
    /// failure than an overrun window or a hang.
    fn force_progress(&mut self, request_id: u64) {
        let Some((deadline, attempt, timer)) =
            self.outstanding.get(&request_id).map(|o| (o.deadline, o.attempt, o.timer))
        else {
            self.landed.insert(
                request_id,
                Landed {
                    response: ServerResponse::Error(format!(
                        "request {request_id} lost with no retransmission state"
                    )),
                    ready_at: self.clock.now(),
                },
            );
            return;
        };
        self.transport.timeouts += 1;
        self.clock.advance_to_at_least(deadline);
        self.kernel.cancel(timer);
        if attempt >= self.max_retries {
            if let Some(out) = self.outstanding.remove(&request_id) {
                self.pool.recycle(out.frame_bytes);
            }
            self.landed.insert(
                request_id,
                Landed {
                    response: ServerResponse::Error(format!(
                        "request {request_id} timed out after {} attempts",
                        attempt + 1
                    )),
                    ready_at: self.clock.now(),
                },
            );
            return;
        }
        self.transport.retries += 1;
        let shift = (attempt + 1).min(16);
        let backoff =
            SimDuration::from_micros(self.timeout.as_micros().saturating_mul(1u64 << shift))
                .min(BACKOFF_CAP);
        let next_deadline = self.clock.now() + backoff;
        let timer = self
            .kernel
            .arm(next_deadline, KernelEvent::RetryDue { request_id, attempt: attempt + 1 });
        if let Some(out) = self.outstanding.get_mut(&request_id) {
            out.attempt = attempt + 1;
            out.deadline = next_deadline;
            out.timer = timer;
        }
        self.transmit_request(request_id);
    }

    /// Retires window slots whose responses have already arrived.
    fn settle(&mut self) {
        let now = self.clock.now();
        let arrived: Vec<u64> =
            self.landed.iter().filter(|(_, l)| l.ready_at <= now).map(|(&rid, _)| rid).collect();
        for rid in arrived {
            self.window.close(rid);
        }
    }

    /// Length of the leading run of adjacent span fetches in `pending`.
    fn leading_span_run(&self) -> usize {
        let mut len = 0;
        let mut prev_end: Option<u64> = None;
        for p in &self.pending {
            let Some(span) = p.frame.as_request().and_then(|r| r.as_span()) else {
                break;
            };
            if prev_end.is_some_and(|end| end != span.start) {
                break;
            }
            prev_end = Some(span.end);
            len += 1;
        }
        len
    }

    /// Moves every pending frame through the server device and the
    /// downlink, landing timestamped responses. Coalescing applies only on
    /// clean links: a mangled merged frame would lose the whole run to one
    /// bit flip, so faulty links keep per-request frames (integrity and
    /// retransmission are per frame).
    fn dispatch(&mut self) {
        while !self.pending.is_empty() {
            let run_len = if self.link.is_clean() { self.leading_span_run() } else { 1 };
            if run_len > 1 {
                let run: Vec<PendingFrame> = self.pending.drain(..run_len).collect();
                self.dispatch_coalesced(&run);
            } else if let Some(p) = self.pending.pop_front() {
                let (response, took) = match p.frame.as_request() {
                    Some(request) => self.endpoint.handle(request),
                    None => (
                        ServerResponse::Error("pending frame carried no request".into()),
                        SimDuration::ZERO,
                    ),
                };
                let done = p.arrival.max(self.dev_free) + took;
                self.dev_free = done;
                self.deliver(p.frame.request_id, response, done);
            }
        }
    }

    /// Serves a run of adjacent span fetches as one device read and one
    /// merged downlink transfer, slicing the bytes back per request.
    fn dispatch_coalesced(&mut self, run: &[PendingFrame]) {
        let spans: Vec<ByteSpan> =
            run.iter().filter_map(|p| p.frame.as_request().and_then(|r| r.as_span())).collect();
        let (Some(first), Some(last), Some(tail)) = (spans.first(), spans.last(), run.last())
        else {
            return;
        };
        let whole = ByteSpan::new(first.start, last.end);
        let arrival = tail.arrival;
        let (response, took) = self.endpoint.handle(&ServerRequest::FetchSpan { span: whole });
        let done = arrival.max(self.dev_free) + took;
        self.dev_free = done;
        match response {
            ServerResponse::Span(bytes) => {
                // One merged response frame carries the whole run's bytes;
                // the probe computes its wire size without copying them.
                let probe = Frame::response(
                    self.conn_id,
                    tail.frame.request_id,
                    ServerResponse::Span(bytes),
                );
                let down = self.link.charge(probe.wire_size());
                let delivered = done.max(self.down_free) + down;
                self.down_free = delivered;
                let bytes = match probe.payload {
                    FramePayload::Response(ServerResponse::Span(bytes)) => bytes,
                    _ => Vec::new(),
                };
                for (p, span) in run.iter().zip(&spans) {
                    let from = (span.start - whole.start) as usize;
                    let sliced = match bytes.get(from..from + span.len() as usize) {
                        Some(slice) => {
                            // Per-request payloads come out of the pool, so a
                            // steady-state pipeline re-serves the same buffers
                            // instead of allocating per page.
                            let mut payload = self.pool.lease_vec();
                            payload.extend_from_slice(slice);
                            ServerResponse::Span(payload)
                        }
                        None => ServerResponse::Error(format!(
                            "coalesced read lost {span} inside {whole}"
                        )),
                    };
                    self.landed.insert(
                        p.frame.request_id,
                        Landed { response: sliced, ready_at: delivered },
                    );
                }
                // The merged carrier buffer has been sliced apart; hand it
                // back so the next merged read reuses it.
                self.pool.recycle(bytes);
            }
            other => {
                let message = match other {
                    ServerResponse::Error(message) => message,
                    other => format!("unexpected response {other:?}"),
                };
                for (i, p) in run.iter().enumerate() {
                    // Each request owns an error naming its slice of the
                    // merged read — built once per request, not cloned
                    // from a shared buffer.
                    let detail = match spans.get(i) {
                        Some(span) => {
                            format!("coalesced read {whole} failed for {span}: {message}")
                        }
                        None => format!("coalesced read {whole} failed: {message}"),
                    };
                    self.deliver(p.frame.request_id, ServerResponse::Error(detail), done);
                }
            }
        }
    }

    /// Charges the downlink for one response frame and lands it at its
    /// delivery instant. On a faulty link the encoded frame crosses the
    /// fault layer: corrupt copies are counted and discarded (the deadline
    /// machinery will retransmit), duplicates are suppressed by
    /// `request_id`.
    fn deliver(&mut self, request_id: u64, response: ServerResponse, done: SimInstant) {
        if self.link.is_clean() {
            // Move the response into a typed frame to measure its wire
            // size arithmetically, then take it back out — no copy, no
            // encoding on the clean path.
            let frame = Frame::response(self.conn_id, request_id, response);
            let down = self.link.charge(frame.wire_size());
            let delivered = done.max(self.down_free) + down;
            self.down_free = delivered;
            let response = match frame.payload {
                FramePayload::Response(response) => response,
                _ => ServerResponse::Error("response frame lost its payload".into()),
            };
            self.landed.insert(request_id, Landed { response, ready_at: delivered });
            return;
        }
        let frame = Frame::response(self.conn_id, request_id, response);
        let mut bytes = self.pool.lease_vec();
        frame.encode_into(&mut bytes);
        let (down, deliveries) = self.link.transmit(&bytes);
        let delivered = done.max(self.down_free) + down;
        self.down_free = delivered;
        for delivery in deliveries {
            match Frame::decode(&delivery.bytes) {
                Ok(received) => {
                    let rid = received.request_id;
                    let FramePayload::Response(response) = received.payload else {
                        continue;
                    };
                    if self.collected.contains(&rid) || self.landed.contains_key(&rid) {
                        self.transport.duplicates += 1;
                        continue;
                    }
                    self.landed
                        .insert(rid, Landed { response, ready_at: delivered + delivery.delay });
                }
                Err(_) => self.transport.corrupt_frames += 1,
            }
        }
        self.pool.recycle(bytes);
    }
}

/// The workstation: a server endpoint reached over a link, with full time
/// and transfer accounting. All blocking entry points are submit-then-wait
/// shims over the pipelined [`Connection`].
pub struct Workstation<E: ServerEndpoint> {
    conn: Connection<E>,
}

impl<E: ServerEndpoint> Workstation<E> {
    /// Connects a workstation to `endpoint` over `link`.
    pub fn new(endpoint: E, link: Link) -> Self {
        Workstation { conn: Connection::new(endpoint, link) }
    }

    /// Connects a workstation whose link misbehaves according to `plan`;
    /// the connection's recovery machinery keeps the blocking entry points
    /// working (lost frames retransmit transparently, exhausted requests
    /// surface as protocol errors).
    pub fn with_faults(endpoint: E, link: Link, plan: FaultPlan) -> Self {
        Workstation { conn: Connection::with_faults(endpoint, link, DEFAULT_WINDOW, plan) }
    }

    /// Recovery accounting (timeouts, retries, corrupt frames, duplicates).
    pub fn transport_stats(&self) -> TransportStats {
        self.conn.transport_stats()
    }

    /// Total simulated time spent so far.
    pub fn elapsed(&self) -> SimDuration {
        self.conn.elapsed()
    }

    /// Payload bytes moved over the link so far.
    pub fn bytes_transferred(&self) -> u64 {
        self.conn.bytes_transferred()
    }

    /// Request/response round trips so far (a batch or pipelined burst
    /// counts as one — that is its point).
    pub fn round_trips(&self) -> u64 {
        self.conn.round_trips()
    }

    /// Resets the accounting (between experiment configurations).
    pub fn reset_accounting(&mut self) {
        self.conn.reset_accounting()
    }

    /// Hands a consumed payload buffer back to the connection's pool (see
    /// [`Connection::recycle_payload`]).
    pub fn recycle_payload(&mut self, buf: Vec<u8>) {
        self.conn.recycle_payload(buf);
    }

    /// The wrapped endpoint.
    pub fn endpoint_mut(&mut self) -> &mut E {
        self.conn.endpoint_mut()
    }

    /// The underlying pipelined connection.
    pub fn connection(&self) -> &Connection<E> {
        &self.conn
    }

    /// Mutable access to the pipelined connection, for callers that want
    /// to overlap submissions instead of blocking per request.
    pub fn connection_mut(&mut self) -> &mut Connection<E> {
        &mut self.conn
    }

    /// Issues one request, charging request transfer + server device time
    /// + response transfer, and surfacing server-side errors.
    pub fn request(&mut self, request: &ServerRequest) -> Result<ServerResponse> {
        let ticket = self.conn.submit_ref(request);
        let (response, _) = self.conn.wait(ticket)?;
        if let ServerResponse::Error(message) = response {
            return Err(MinosError::Protocol(message));
        }
        Ok(response)
    }

    /// Issues several requests as one pipelined burst, returning one
    /// response per request in order. The burst counts as a single round
    /// trip; adjacent span fetches coalesce into one device read and one
    /// merged response transfer; per-request failures come back as inline
    /// [`ServerResponse::Error`] entries rather than failing the call.
    pub fn request_batch(&mut self, requests: Vec<ServerRequest>) -> Result<Vec<ServerResponse>> {
        let tickets: Vec<Ticket> = requests.into_iter().map(|r| self.conn.submit(r)).collect();
        tickets.into_iter().map(|t| self.conn.wait(t).map(|(response, _)| response)).collect()
    }

    /// Fetches the whole archived object (descriptor + composition),
    /// decoding it against its archive base.
    pub fn fetch_object(&mut self, id: ObjectId, archive_base: u64) -> Result<ArchivedObject> {
        match self.request(&ServerRequest::FetchObject { id })? {
            ServerResponse::Object(bytes) => {
                ArchivedObject::decode_from_archive(&bytes, archive_base)
            }
            other => Err(MinosError::Protocol(format!("unexpected response {other:?}"))),
        }
    }

    /// Fetches the window of an image through a view — only the window's
    /// bytes cross the link.
    pub fn fetch_view(&mut self, id: ObjectId, image: usize, rect: Rect) -> Result<Bitmap> {
        match self.request(&ServerRequest::FetchView { id, tag: image.to_string(), rect })? {
            ServerResponse::View(bytes) => DataPayload { kind: DataKind::Image, bytes }.as_image(),
            other => Err(MinosError::Protocol(format!("unexpected response {other:?}"))),
        }
    }

    /// Fetches an object's miniature.
    pub fn fetch_miniature(&mut self, id: ObjectId) -> Result<Bitmap> {
        match self.request(&ServerRequest::FetchMiniature { id })? {
            ServerResponse::Miniature(bytes) => {
                DataPayload { kind: DataKind::Image, bytes }.as_image()
            }
            other => Err(MinosError::Protocol(format!("unexpected response {other:?}"))),
        }
    }

    /// Evaluates a content query on the server.
    pub fn query(&mut self, keywords: &[&str]) -> Result<Vec<ObjectId>> {
        let request =
            ServerRequest::Query { keywords: keywords.iter().map(|s| s.to_string()).collect() };
        match self.request(&request)? {
            ServerResponse::Hits(ids) => Ok(ids),
            other => Err(MinosError::Protocol(format!("unexpected response {other:?}"))),
        }
    }

    /// Evaluates an exact attribute query on the server.
    pub fn query_attribute(&mut self, name: &str, value: &str) -> Result<Vec<ObjectId>> {
        let request =
            ServerRequest::QueryAttribute { name: name.to_string(), value: value.to_string() };
        match self.request(&request)? {
            ServerResponse::Hits(ids) => Ok(ids),
            other => Err(MinosError::Protocol(format!("unexpected response {other:?}"))),
        }
    }

    /// The sequential browsing interface of §5: fetches miniatures of the
    /// qualifying objects in order, returning `(id, miniature)` pairs.
    pub fn miniature_stream(&mut self, hits: &[ObjectId]) -> Result<Vec<(ObjectId, Bitmap)>> {
        hits.iter().map(|&id| Ok((id, self.fetch_miniature(id)?))).collect()
    }
}

/// A remote-view browsing session: view geometry on the workstation, pixels
/// fetched window-by-window from the server as the user moves.
#[derive(Clone, Debug)]
pub struct RemoteView {
    object: ObjectId,
    image: usize,
    view: View,
}

impl RemoteView {
    /// Opens a view of `view_size` over image `image` of `object`, whose
    /// full size is `image_size`.
    pub fn open(
        object: ObjectId,
        image: usize,
        image_size: Size,
        view_size: Size,
        step: u32,
    ) -> Result<Self> {
        Ok(RemoteView { object, image, view: View::new(image_size, view_size, step)? })
    }

    /// The current window rectangle.
    pub fn rect(&self) -> Rect {
        self.view.rect()
    }

    /// Mutable view geometry (move/jump/resize, then `fetch`).
    pub fn view_mut(&mut self) -> &mut View {
        &mut self.view
    }

    /// Fetches the current window's pixels from the server.
    pub fn fetch<E: ServerEndpoint>(&self, ws: &mut Workstation<E>) -> Result<Bitmap> {
        ws.fetch_view(self.object, self.image, self.view.rect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minos_corpus::objects::archived_form;
    use minos_corpus::{medical_report, subway_map_object};
    use minos_image::view::MoveDirection;
    use minos_server::ObjectServer;

    fn server() -> (ObjectServer, u64) {
        let mut server = ObjectServer::new();
        let report = medical_report(ObjectId::new(1), 42);
        let archived = archived_form(&report);
        let receipt = server.publish(report, &archived).unwrap();
        let (map, overlays) =
            subway_map_object(ObjectId::new(2), ObjectId::new(3), ObjectId::new(4), 5);
        server.publish(map.clone(), &archived_form(&map)).unwrap();
        for o in overlays {
            let a = archived_form(&o);
            server.publish(o, &a).unwrap();
        }
        (server, receipt.span.start)
    }

    fn workstation() -> (Workstation<ObjectServer>, u64) {
        let (server, base) = server();
        (Workstation::new(server, Link::ethernet()), base)
    }

    #[test]
    fn fetch_object_round_trips_over_the_link() {
        let (mut ws, base) = workstation();
        let obj = ws.fetch_object(ObjectId::new(1), base).unwrap();
        assert_eq!(obj.descriptor.object_id, ObjectId::new(1));
        assert!(ws.elapsed() > SimDuration::ZERO);
        assert!(ws.bytes_transferred() > 1_000);
    }

    #[test]
    fn queries_travel_cheaply() {
        let (mut ws, _) = workstation();
        let hits = ws.query(&["shadow"]).unwrap();
        assert_eq!(hits, vec![ObjectId::new(1)]);
        assert!(ws.bytes_transferred() < 200, "query moved {} bytes", ws.bytes_transferred());
    }

    #[test]
    fn attribute_queries_over_the_link() {
        let (mut ws, _) = workstation();
        let hits = ws.query_attribute("author", "doctor jones").unwrap();
        assert_eq!(hits, vec![ObjectId::new(1)]);
        assert!(ws.query_attribute("author", "nobody").unwrap().is_empty());
    }

    #[test]
    fn view_browsing_costs_window_bytes_per_move() {
        let (mut ws, _) = workstation();
        let mut rv =
            RemoteView::open(ObjectId::new(2), 0, Size::new(900, 700), Size::new(200, 150), 40)
                .unwrap();
        let w1 = rv.fetch(&mut ws).unwrap();
        assert_eq!(w1.size(), Size::new(200, 150));
        let after_first = ws.bytes_transferred();
        rv.view_mut().step(MoveDirection::Down);
        rv.fetch(&mut ws).unwrap();
        let per_move = ws.bytes_transferred() - after_first;
        let full_image = Bitmap::new(900, 700).byte_size();
        assert!(
            per_move * 10 < full_image,
            "per-move cost {per_move} not ≪ full image {full_image}"
        );
    }

    #[test]
    fn miniature_stream_serves_all_hits() {
        let (mut ws, _) = workstation();
        let hits = ws.query(&["the"]).unwrap_or_default();
        let stream = ws.miniature_stream(&[ObjectId::new(1), ObjectId::new(2)]).unwrap();
        assert_eq!(stream.len(), 2);
        for (_, mini) in &stream {
            assert!(mini.width() <= 160);
        }
        let _ = hits;
    }

    #[test]
    fn server_errors_surface_as_protocol_errors() {
        let (mut ws, _) = workstation();
        assert!(matches!(ws.fetch_miniature(ObjectId::new(404)), Err(MinosError::Protocol(_))));
    }

    #[test]
    fn accounting_resets() {
        let (mut ws, _) = workstation();
        ws.query(&["anything"]).unwrap();
        assert!(ws.bytes_transferred() > 0);
        assert_eq!(ws.round_trips(), 1);
        ws.reset_accounting();
        assert_eq!(ws.bytes_transferred(), 0);
        assert_eq!(ws.elapsed(), SimDuration::ZERO);
        assert_eq!(ws.round_trips(), 0);
    }

    #[test]
    fn batch_is_one_round_trip_with_inline_errors() {
        let (mut ws, _) = workstation();
        let responses = ws
            .request_batch(vec![
                ServerRequest::FetchMiniature { id: ObjectId::new(1) },
                ServerRequest::FetchMiniature { id: ObjectId::new(404) },
                ServerRequest::Query { keywords: vec!["shadow".into()] },
            ])
            .unwrap();
        assert_eq!(ws.round_trips(), 1);
        assert_eq!(responses.len(), 3);
        assert!(matches!(responses[0], ServerResponse::Miniature(_)));
        assert!(matches!(responses[1], ServerResponse::Error(_)));
        assert_eq!(responses[2], ServerResponse::Hits(vec![ObjectId::new(1)]));
    }

    #[test]
    fn batching_beats_serial_round_trips() {
        let (mut serial, _) = workstation();
        let (mut batched, _) = workstation();
        let ids = [ObjectId::new(1), ObjectId::new(2), ObjectId::new(3)];
        for &id in &ids {
            serial.fetch_miniature(id).unwrap();
        }
        batched
            .request_batch(ids.iter().map(|&id| ServerRequest::FetchMiniature { id }).collect())
            .unwrap();
        assert_eq!(serial.round_trips(), 3);
        assert_eq!(batched.round_trips(), 1);
        // Two link latencies saved per avoided round trip.
        assert!(batched.elapsed() < serial.elapsed());
    }

    #[test]
    fn pipelined_submission_overlaps_device_and_link() {
        let (mut serial, _) = workstation();
        let (mut pipelined, _) = workstation();
        let ids = [ObjectId::new(1), ObjectId::new(2), ObjectId::new(3)];
        for &id in &ids {
            serial.fetch_miniature(id).unwrap();
        }
        let conn = pipelined.connection_mut();
        let tickets: Vec<Ticket> =
            ids.iter().map(|&id| conn.submit(ServerRequest::FetchMiniature { id })).collect();
        assert_eq!(conn.in_flight(), 3, "nothing collected yet");
        for ticket in tickets {
            let (response, _) = conn.wait(ticket).unwrap();
            assert!(matches!(response, ServerResponse::Miniature(_)));
        }
        assert_eq!(conn.in_flight(), 0);
        assert_eq!(pipelined.round_trips(), 1, "one burst, one round trip");
        assert!(
            pipelined.elapsed() < serial.elapsed(),
            "pipelined {} vs serial {}",
            pipelined.elapsed(),
            serial.elapsed()
        );
    }

    #[test]
    fn responses_complete_out_of_submission_order() {
        let (mut ws, _) = workstation();
        let conn = ws.connection_mut();
        let slow = conn.submit(ServerRequest::FetchMiniature { id: ObjectId::new(1) });
        let fast = conn.submit(ServerRequest::Query { keywords: vec!["shadow".into()] });
        // Collecting the later submission first works: frames carry ids.
        let (hits, _) = conn.wait(fast).unwrap();
        assert_eq!(hits, ServerResponse::Hits(vec![ObjectId::new(1)]));
        let (mini, waited) = conn.wait(slow).unwrap();
        assert!(matches!(mini, ServerResponse::Miniature(_)));
        // The miniature landed before the query was collected (the device
        // served it first), so no further waiting was needed.
        assert_eq!(waited, SimDuration::ZERO);
    }

    #[test]
    fn adjacent_span_submissions_coalesce_on_the_wire() {
        let mut server = ObjectServer::new();
        let data: Vec<u8> = (0..32_768u32).map(|i| (i % 251) as u8).collect();
        let (record, _) = server.archiver_mut().store(ObjectId::new(9), &data).unwrap();
        let chunk = record.span.len() / 4;

        let mut serial = Workstation::new(server, Link::ethernet());
        let spans: Vec<minos_types::ByteSpan> = (0..4)
            .map(|i| minos_types::ByteSpan::at(record.span.start + i * chunk, chunk))
            .collect();
        for &span in &spans {
            serial.request(&ServerRequest::FetchSpan { span }).unwrap();
        }
        let serial_stats = serial.connection().link_stats();
        assert_eq!(serial_stats.messages, 8, "4 requests + 4 responses");

        let mut server = ObjectServer::new();
        server.archiver_mut().store(ObjectId::new(9), &data).unwrap();
        let mut pipelined = Workstation::new(server, Link::ethernet());
        let conn = pipelined.connection_mut();
        let tickets: Vec<Ticket> =
            spans.iter().map(|&span| conn.submit(ServerRequest::FetchSpan { span })).collect();
        for (ticket, span) in tickets.into_iter().zip(&spans) {
            let (response, _) = conn.wait(ticket).unwrap();
            let ServerResponse::Span(bytes) = response else {
                panic!("unexpected response for {span}");
            };
            let expect: Vec<u8> =
                (span.start..span.end).map(|b| (b as usize % 251) as u8).collect();
            assert_eq!(bytes, expect, "coalesced slice for {span}");
        }
        let stats = pipelined.connection().link_stats();
        assert_eq!(stats.messages, 5, "4 requests + 1 merged response");
        assert!(
            stats.bytes < serial_stats.bytes,
            "merged {} vs serial {} bytes",
            stats.bytes,
            serial_stats.bytes
        );
        assert!(pipelined.elapsed() < serial.elapsed());
    }

    #[test]
    fn waiting_on_an_unknown_ticket_is_a_protocol_error() {
        let (mut ws, _) = workstation();
        let conn = ws.connection_mut();
        let ticket = conn.submit(ServerRequest::Query { keywords: vec!["shadow".into()] });
        assert!(conn.wait(ticket).is_ok());
        assert!(matches!(conn.wait(ticket), Err(MinosError::Protocol(_))), "double collection");
    }

    #[test]
    fn reset_accounting_also_clears_pipeline_state() {
        // Regression: resetting between experiment configurations must
        // clear the link statistics *and* the pipeline (in-flight frames,
        // resource timelines), or the next configuration inherits phantom
        // bytes and a busy downlink.
        let (mut ws, _) = workstation();
        let conn = ws.connection_mut();
        let stale = conn.submit(ServerRequest::FetchMiniature { id: ObjectId::new(1) });
        conn.submit(ServerRequest::FetchMiniature { id: ObjectId::new(2) });
        assert!(conn.in_flight() > 0);
        assert!(ws.bytes_transferred() > 0);

        ws.reset_accounting();
        assert_eq!(ws.bytes_transferred(), 0);
        assert_eq!(ws.elapsed(), SimDuration::ZERO);
        assert_eq!(ws.round_trips(), 0);
        assert_eq!(ws.connection().in_flight(), 0, "in-flight frames cleared");
        assert_eq!(ws.connection().link_stats().messages, 0);
        assert!(
            matches!(ws.connection_mut().wait(stale), Err(MinosError::Protocol(_))),
            "tickets from before the reset are gone"
        );

        // Post-reset accounting covers exactly the new work: one query up,
        // one hits response down.
        ws.query(&["shadow"]).unwrap();
        assert_eq!(ws.connection().link_stats().messages, 2);
        assert_eq!(ws.round_trips(), 1);
    }

    #[test]
    fn corrupted_frames_are_retransmitted_to_completion() {
        let (faulty_server, base) = server();
        let mut ws = Workstation::with_faults(
            faulty_server,
            Link::ethernet(),
            minos_net::FaultPlan::corrupting(1234, 0.2),
        );
        let (clean_server, _) = server();
        let mut clean = Workstation::new(clean_server, Link::ethernet());
        // Twenty round trips at a 20% per-frame corruption rate: losses are
        // certain, yet every response must come back byte-identical to the
        // clean link's.
        for i in 0..20u64 {
            let id = ObjectId::new(1 + (i % 2));
            let faulty_obj = ws.fetch_object(id, base).unwrap();
            let clean_obj = clean.fetch_object(id, base).unwrap();
            assert_eq!(faulty_obj.descriptor, clean_obj.descriptor, "round trip {i}");
        }
        let stats = ws.transport_stats();
        assert!(stats.corrupt_frames > 0, "the plan did corrupt frames: {stats:?}");
        assert!(stats.retries > 0, "losses were recovered by retransmission: {stats:?}");
        assert_eq!(ws.connection().in_flight(), 0);
    }

    #[test]
    fn exhausted_retries_surface_as_inline_errors() {
        let (server, _) = server();
        let link = Link::ethernet();
        let mut conn = Connection::with_faults(
            server,
            link,
            DEFAULT_WINDOW,
            minos_net::FaultPlan::dropping(7, 1.0),
        )
        .with_recovery(SimDuration::from_millis(100), 2);
        let ticket = conn.submit(ServerRequest::FetchMiniature { id: ObjectId::new(1) });
        let (response, waited) = conn.wait(ticket).unwrap();
        assert!(matches!(response, ServerResponse::Error(_)), "got {response:?}");
        assert!(waited > SimDuration::ZERO, "deadlines were actually waited out");
        let stats = conn.transport_stats();
        assert_eq!(stats.retries, 2);
        assert_eq!(stats.timeouts, 3, "initial deadline plus one per retry");
        assert_eq!(conn.in_flight(), 0, "the expired slot settled");
    }

    #[test]
    fn duplicate_responses_are_suppressed() {
        let (server, _) = server();
        let plan = minos_net::FaultPlan { seed: 3, duplicate: 1.0, ..minos_net::FaultPlan::none() };
        let mut conn = Connection::with_faults(server, Link::ethernet(), DEFAULT_WINDOW, plan);
        for i in 0..4u64 {
            let ticket =
                conn.submit(ServerRequest::FetchMiniature { id: ObjectId::new(1 + (i % 2)) });
            let (response, _) = conn.wait(ticket).unwrap();
            assert!(matches!(response, ServerResponse::Miniature(_)), "got {response:?}");
        }
        // Every frame is duplicated in both directions; each duplicate
        // request yields an extra response whose id has already landed or
        // been collected.
        assert!(conn.transport_stats().duplicates >= 4, "{:?}", conn.transport_stats());
        assert_eq!(conn.in_flight(), 0);
    }

    #[test]
    fn full_window_with_lost_responses_is_never_overrun() {
        // Regression for the window-full loop: with every response lost,
        // the old code broke out of the wait loop and opened another slot
        // anyway, overrunning the flow-control bound. The fix forces the
        // oldest slot through the timeout machinery instead.
        let (server, _) = server();
        let mut conn = Connection::with_faults(
            server,
            Link::ethernet(),
            1,
            minos_net::FaultPlan::dropping(9, 1.0),
        )
        .with_recovery(SimDuration::from_millis(50), 1);
        let t1 = conn.submit(ServerRequest::FetchMiniature { id: ObjectId::new(1) });
        assert_eq!(conn.in_flight(), 1);
        // The second submit must first settle the first slot (here: by
        // expiring it after its retry budget), never exceed capacity 1.
        let t2 = conn.submit(ServerRequest::FetchMiniature { id: ObjectId::new(2) });
        assert!(conn.in_flight() <= 1, "window overrun: {} in flight", conn.in_flight());
        let (r1, _) = conn.wait(t1).unwrap();
        assert!(matches!(r1, ServerResponse::Error(_)), "first slot expired: {r1:?}");
        let (r2, _) = conn.wait(t2).unwrap();
        assert!(matches!(r2, ServerResponse::Error(_)));
        assert_eq!(conn.in_flight(), 0);
    }

    #[test]
    fn transport_stats_fully_cleared_by_reset() {
        // Regression: every TransportStats counter and the fault-layer
        // accounting must go back to zero, or the next experiment
        // configuration inherits phantom recovery work.
        let (server, _) = server();
        let mut conn = Connection::with_faults(
            server,
            Link::ethernet(),
            DEFAULT_WINDOW,
            minos_net::FaultPlan::chaos(11, 0.4),
        )
        .with_recovery(SimDuration::from_millis(50), 3);
        for i in 0..12u64 {
            let ticket =
                conn.submit(ServerRequest::FetchMiniature { id: ObjectId::new(1 + (i % 2)) });
            let _ = conn.wait(ticket);
        }
        let stats = conn.transport_stats();
        assert!(
            stats.timeouts > 0 || stats.corrupt_frames > 0 || stats.duplicates > 0,
            "the chaos plan produced recovery work: {stats:?}"
        );
        // A restart right before the reset adds the epoch counters to the
        // pile the reset must clear.
        conn.endpoint_mut().restart();
        let ticket = conn.submit(ServerRequest::FetchMiniature { id: ObjectId::new(1) });
        let _ = conn.wait(ticket);
        assert!(conn.transport_stats().epoch_resyncs > 0);
        // Queue traffic bumps the endpoint's overload accounting too.
        conn.endpoint_mut()
            .enqueue(Frame::request(9, 1, ServerRequest::FetchMiniature { id: ObjectId::new(1) }))
            .unwrap();
        let _ = conn.endpoint_mut().poll();
        assert!(conn.endpoint().service_stats().queue_high_water > 0);
        conn.reset_accounting();
        assert_eq!(conn.transport_stats(), TransportStats::default());
        assert_eq!(conn.fault_stats(), minos_net::FaultStats::default());
        assert_eq!(conn.link_stats(), minos_net::LinkStats::default());
        assert_eq!(conn.in_flight(), 0);
        assert_eq!(conn.elapsed(), SimDuration::ZERO);
        // The endpoint-side service counters (shed, busy_rejections,
        // high-water marks) are part of the same reset path.
        assert_eq!(*conn.endpoint().service_stats(), minos_server::ServiceStats::default());
    }

    #[test]
    fn server_restart_mid_flight_replays_the_window_byte_identically() {
        let (baseline_server, base) = server();
        let mut baseline = Connection::new(baseline_server, Link::ethernet());
        let spans: Vec<ByteSpan> = (0..3).map(|i| ByteSpan::at(base + i * 512, 512)).collect();
        let expect: Vec<ServerResponse> = spans
            .iter()
            .map(|&span| {
                let t = baseline.submit(ServerRequest::FetchSpan { span });
                baseline.wait(t).unwrap().0
            })
            .collect();

        let (restart_server, _) = server();
        let mut conn = Connection::new(restart_server, Link::ethernet());
        let tickets: Vec<Ticket> =
            spans.iter().map(|&span| conn.submit(ServerRequest::FetchSpan { span })).collect();
        // The window is in flight when the server dies and comes back.
        conn.endpoint_mut().restart();
        let got: Vec<ServerResponse> =
            tickets.into_iter().map(|t| conn.wait(t).unwrap().0).collect();
        assert_eq!(got, expect, "the replayed window must be byte-identical");
        let stats = conn.transport_stats();
        assert_eq!(stats.epoch_resyncs, 1);
        assert_eq!(stats.replays, 3);
        // A restart with nothing in flight costs a handshake and replays
        // nothing — and the pipeline keeps serving.
        conn.endpoint_mut().restart();
        let t = conn.submit(ServerRequest::FetchSpan { span: spans[0] });
        assert_eq!(conn.wait(t).unwrap().0, expect[0]);
        assert_eq!(conn.transport_stats().epoch_resyncs, 2);
        assert_eq!(conn.transport_stats().replays, 3);
    }

    #[test]
    fn restarts_under_chaos_never_wedge_the_pipeline() {
        let (server, _) = server();
        let mut conn = Connection::with_faults(
            server,
            Link::ethernet(),
            4,
            minos_net::FaultPlan::chaos(23, 0.3),
        )
        .with_recovery(SimDuration::from_millis(50), 3);
        for round in 0..6u64 {
            let tickets: Vec<Ticket> = (0..3u64)
                .map(|i| {
                    conn.submit(ServerRequest::FetchMiniature {
                        id: ObjectId::new(1 + ((round + i) % 2)),
                    })
                })
                .collect();
            if round % 2 == 0 {
                conn.endpoint_mut().restart();
            }
            for t in tickets {
                let (resp, _) = conn.wait(t).unwrap();
                assert!(
                    matches!(resp, ServerResponse::Miniature(_) | ServerResponse::Error(_)),
                    "every slot settles with data or a typed error: {resp:?}"
                );
            }
        }
        assert!(conn.transport_stats().epoch_resyncs >= 3);
        assert_eq!(conn.in_flight(), 0);
    }

    #[test]
    fn clean_plan_is_byte_identical_to_a_bare_link() {
        let (bare_server, _) = server();
        let mut bare = Workstation::new(bare_server, Link::ethernet());
        let (planned_server, _) = server();
        let mut clean_plan = Workstation::with_faults(
            planned_server,
            Link::ethernet(),
            minos_net::FaultPlan::none(),
        );
        for ws in [&mut bare, &mut clean_plan] {
            ws.query(&["shadow"]).unwrap();
            ws.fetch_miniature(ObjectId::new(2)).unwrap();
        }
        assert_eq!(bare.connection().link_stats(), clean_plan.connection().link_stats());
        assert_eq!(bare.elapsed(), clean_plan.elapsed());
        assert_eq!(bare.transport_stats(), clean_plan.transport_stats());
        // No fault machinery engaged: the heap-carrying query rides the
        // pooled encode path (one warmup miss), but nothing times out,
        // retries, or replays on a clean plan.
        let stats = clean_plan.transport_stats();
        assert_eq!(stats.timeouts, 0);
        assert_eq!(stats.retries, 0);
        assert_eq!(stats.corrupt_frames, 0);
        assert_eq!(stats.duplicates, 0);
        assert_eq!(stats.replays, 0);
    }

    #[test]
    fn blocking_window_degenerates_to_serial_timing() {
        let (server, _) = server();
        let mut one = Connection::with_window(server, Link::ethernet(), 1);
        let t1 = one.submit(ServerRequest::FetchMiniature { id: ObjectId::new(1) });
        let t2 = one.submit(ServerRequest::FetchMiniature { id: ObjectId::new(2) });
        // The second submit had to wait out the first response.
        assert!(one.elapsed() > SimDuration::ZERO);
        let (_, waited) = one.wait(t1).unwrap();
        assert_eq!(waited, SimDuration::ZERO, "already waited out by the window");
        assert!(one.wait(t2).is_ok());
    }

    #[test]
    fn retransmit_buffers_come_from_the_pool_after_warmup() {
        // Regression for the per-message allocation bug: on a faulty link
        // every submit used to build a fresh frame payload (and every
        // retransmit re-encoded it). Now the frame is encoded once into a
        // pooled buffer and the buffer is recycled when the slot retires,
        // so steady-state traffic is served from pool hits.
        let (server, _) = server();
        let mut conn = Connection::with_faults(
            server,
            Link::ethernet(),
            DEFAULT_WINDOW,
            minos_net::FaultPlan::chaos(31, 0.3),
        )
        .with_recovery(SimDuration::from_millis(50), 3);
        for i in 0..16u64 {
            let ticket =
                conn.submit(ServerRequest::FetchMiniature { id: ObjectId::new(1 + (i % 2)) });
            let _ = conn.wait(ticket);
        }
        let stats = conn.transport_stats();
        assert!(stats.pool_misses > 0, "the first lease has nothing to reuse: {stats:?}");
        assert!(
            stats.pool_hits > stats.pool_misses,
            "steady state must re-serve recycled buffers: {stats:?}"
        );
        assert_eq!(
            stats.payload_allocs, stats.pool_misses,
            "every fresh allocation on this path is a pool miss: {stats:?}"
        );
        conn.reset_accounting();
        let cleared = conn.transport_stats();
        assert_eq!(cleared.pool_hits, 0);
        assert_eq!(cleared.pool_misses, 0);
        assert_eq!(cleared.payload_allocs, 0);
    }

    #[test]
    fn coalesced_span_payloads_recycle_through_the_pool() {
        // A coalesced run slices per-request payloads out of one merged
        // response. Those slices lease from the pool; a caller that hands
        // consumed payloads back via recycle_payload keeps the allocation
        // count flat across rounds.
        let (server, base) = server();
        let mut conn = Connection::new(server, Link::ethernet());
        let spans: Vec<ByteSpan> = (0..3).map(|i| ByteSpan::at(base + i * 512, 512)).collect();
        let mut misses_after_first_round = 0;
        for round in 0..3 {
            let tickets: Vec<Ticket> =
                spans.iter().map(|&span| conn.submit(ServerRequest::FetchSpan { span })).collect();
            for t in tickets {
                let (response, _) = conn.wait(t).unwrap();
                match response {
                    ServerResponse::Span(bytes) => conn.recycle_payload(bytes),
                    other => panic!("expected span bytes, got {other:?}"),
                }
            }
            if round == 0 {
                misses_after_first_round = conn.transport_stats().pool_misses;
                assert!(misses_after_first_round > 0);
            }
        }
        let stats = conn.transport_stats();
        assert_eq!(
            stats.pool_misses, misses_after_first_round,
            "later rounds must not allocate: {stats:?}"
        );
        assert!(stats.pool_hits >= 6, "rounds two and three are all pool hits: {stats:?}");
    }
}

/// The §5 sequential browsing interface over query hits: the user walks a
/// strip of miniatures, then selects one for full presentation. ("When the
/// user selects the miniature of an object the multimedia object
/// presentation manager undertakes the responsibility to present the
/// information of the selected object.")
#[derive(Clone, Debug)]
pub struct MiniatureBrowser {
    hits: Vec<ObjectId>,
    miniatures: Vec<Bitmap>,
    current: usize,
}

impl MiniatureBrowser {
    /// Runs a content query and streams the qualifying miniatures.
    pub fn query<E: ServerEndpoint>(
        ws: &mut Workstation<E>,
        keywords: &[&str],
    ) -> Result<MiniatureBrowser> {
        let hits = ws.query(keywords)?;
        let stream = ws.miniature_stream(&hits)?;
        Ok(MiniatureBrowser {
            hits,
            miniatures: stream.into_iter().map(|(_, m)| m).collect(),
            current: 0,
        })
    }

    /// Number of qualifying objects.
    pub fn len(&self) -> usize {
        self.hits.len()
    }

    /// Whether the query matched nothing.
    pub fn is_empty(&self) -> bool {
        self.hits.is_empty()
    }

    /// The miniature currently in front of the user, with its object id.
    pub fn current(&self) -> Option<(ObjectId, &Bitmap)> {
        self.hits.get(self.current).map(|&id| (id, &self.miniatures[self.current]))
    }

    /// Moves to the next miniature (clamped at the end).
    pub fn advance(&mut self) -> Option<(ObjectId, &Bitmap)> {
        if self.current + 1 < self.hits.len() {
            self.current += 1;
        }
        self.current()
    }

    /// Moves back one miniature (clamped at the start).
    pub fn previous(&mut self) -> Option<(ObjectId, &Bitmap)> {
        self.current = self.current.saturating_sub(1);
        self.current()
    }

    /// Selects the current miniature for full presentation.
    pub fn select(&self) -> Option<ObjectId> {
        self.hits.get(self.current).copied()
    }
}

/// A server-backed object store: browsing sessions resolve relevant-object
/// targets through the workstation, charging the link for each object's
/// archived size — the architecture of §5 end to end.
impl crate::session::ObjectStore for Workstation<ObjectServer> {
    fn fetch(&mut self, id: ObjectId) -> Result<minos_object::MultimediaObject> {
        // Charge the transfer of the archived form over the link.
        let request = ServerRequest::FetchObject { id };
        let response = self.request(&request)?;
        let ServerResponse::Object(_) = response else {
            return Err(MinosError::Protocol(format!("unexpected response to {request:?}")));
        };
        // The typed form is reconstructed workstation-side; the server's
        // resident copy stands in for that decode step.
        self.endpoint_mut()
            .resident_object(id)
            .cloned()
            .ok_or_else(|| MinosError::UnknownObject(id.to_string()))
    }
}

#[cfg(test)]
mod store_tests {
    use super::*;
    use crate::session::BrowsingSession;
    use minos_corpus::objects::archived_form;
    use minos_text::PaginateConfig;
    use minos_types::SimDuration;

    #[test]
    fn miniature_browser_query_to_selection() {
        let mut server = ObjectServer::new();
        for i in 0..4u64 {
            let obj = minos_corpus::office_document(ObjectId::new(i + 1), i, 2);
            server.publish(obj.clone(), &archived_form(&obj)).unwrap();
        }
        let mut ws = Workstation::new(server, Link::ethernet());
        let mut browser = MiniatureBrowser::query(&mut ws, &["chapter"]).unwrap();
        assert_eq!(browser.len(), 4);
        let (first, mini) = browser.current().unwrap();
        assert_eq!(first, ObjectId::new(1));
        assert!(!mini.is_blank());
        browser.advance();
        browser.advance();
        assert_eq!(browser.select(), Some(ObjectId::new(3)));
        browser.previous();
        assert_eq!(browser.select(), Some(ObjectId::new(2)));
        // Clamping at both ends.
        browser.previous();
        browser.previous();
        assert_eq!(browser.select(), Some(ObjectId::new(1)));
        for _ in 0..10 {
            browser.advance();
        }
        assert_eq!(browser.select(), Some(ObjectId::new(4)));
    }

    #[test]
    fn empty_query_result_is_empty_browser() {
        let server = ObjectServer::new();
        let mut ws = Workstation::new(server, Link::ethernet());
        let browser = MiniatureBrowser::query(&mut ws, &["nothing"]).unwrap();
        assert!(browser.is_empty());
        assert_eq!(browser.current(), None);
        assert_eq!(browser.select(), None);
    }

    #[test]
    fn session_over_the_server_store_follows_relevant_links() {
        let (parent, overlays) = minos_corpus::subway_map_object(
            ObjectId::new(1),
            ObjectId::new(2),
            ObjectId::new(3),
            7,
        );
        let mut server = ObjectServer::new();
        server.publish(parent.clone(), &archived_form(&parent)).unwrap();
        for o in overlays {
            let a = archived_form(&o);
            server.publish(o, &a).unwrap();
        }
        let ws = Workstation::new(server, Link::ethernet());
        let (mut session, _) = BrowsingSession::open(
            ws,
            ObjectId::new(1),
            PaginateConfig::default(),
            SimDuration::from_secs(5),
        )
        .unwrap();
        session.apply(crate::command::BrowseCommand::SelectRelevant(0)).unwrap();
        assert_eq!(session.object().id, ObjectId::new(2));
        session.apply(crate::command::BrowseCommand::ReturnFromRelevant).unwrap();
        assert_eq!(session.object().id, ObjectId::new(1));
    }
}
