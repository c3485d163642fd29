//! The two fleet workloads: `bulk_read` (closed loop, clean link, 32 KiB
//! pages) and `lossy_fleet` (open loop, chaotic link, 8 KiB pages, small
//! admission caps, heartbeats on).

use crate::replay::{self, Replayed};
use crate::sim::{check_page, device_stats, fleet_snapshot, interleaved_pages, Rng, SimSummary};
use crate::trace::Probe;
use crate::Rep;
use minos::net::{BufferPool, FaultPlan, Frame, Link, Priority, ServerRequest, ServerResponse};
use minos::presentation::{Fleet, FleetConnection, FleetTicket};
use minos::server::ServiceConfig;
use minos::types::{ByteSpan, ObjectId, SimDuration, SimInstant};
use std::collections::VecDeque;

const MEMBERS: usize = 4;
const REPLICATION: usize = 2;

/// Shape of one fleet workload.
struct Shape {
    objects: usize,
    pages_per_object: usize,
    page_len: usize,
    /// How many times the fetch order reads the whole corpus.
    passes: usize,
    /// Readers whose in-order page streams interleave.
    streams: usize,
    /// In-flight window of the connection.
    window: usize,
    deadline: SimDuration,
}

/// `bulk_read`: 512 objects of 4 × 32 KiB pages (64 MiB, stored twice),
/// read 12 times by 32 interleaved streams through a window of 8. Many
/// small objects keep rendezvous placement balanced whatever the seed, so
/// the simulated figures move little between seeds.
const BULK: Shape = Shape {
    objects: 512,
    pages_per_object: 4,
    page_len: 32 * 1024,
    passes: 12,
    streams: 32,
    window: 8,
    deadline: SimDuration::from_secs(2),
};

/// `lossy_fleet`: 768 objects of 4 × 8 KiB pages (24 MiB, stored twice),
/// read 8 times by 32 interleaved streams.
const LOSSY: Shape = Shape {
    objects: 768,
    pages_per_object: 4,
    page_len: 8 * 1024,
    passes: 8,
    streams: 32,
    window: 16,
    deadline: SimDuration::from_millis(400),
};

/// Per-frame probability of each fault kind on `lossy_fleet`'s link.
const LOSSY_FAULT_RATE: f64 = 0.0003;
/// Open-loop spacing of `lossy_fleet`'s pages: 22.2 pages/s, two thirds
/// of the 33–34 pages/s this fleet shape sustains in a closed loop with
/// the same window on a clean link.
const LOSSY_PERIOD: SimDuration = SimDuration::from_micros(45_000);
/// Collection poll step: about one simulated millisecond, on a grid that
/// does not divide the period, so the quantization of collect instants
/// is spread evenly over requests instead of rounding every latency the
/// same way.
const LOSSY_POLL: SimDuration = SimDuration::from_micros(997);
const LOSSY_TIMEOUT: SimDuration = SimDuration::from_millis(250);
const LOSSY_RETRIES: u32 = 6;
const LOSSY_PER_CONN_CAP: usize = 1;
const LOSSY_HEARTBEAT: SimDuration = SimDuration::from_millis(200);

/// Host-time segments: publishes per set-up segment, pages per run
/// segment.
const SEGMENT_OBJECTS: usize = 64;
const SEGMENT_PAGES: usize = 1024;
/// Pages of the kept repetition fed back through each layer.
const REPLAY_PAGES: usize = 1024;

/// Which loop drives the connection.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Bulk,
    Lossy,
}

/// What the last repetition leaves for the host replays.
struct Kept {
    conn: FleetConnection,
    submits: Vec<SimInstant>,
}

pub struct FleetWorkload {
    mode: Mode,
    seed: u64,
    shape: &'static Shape,
    objects: Vec<(ObjectId, Vec<u8>)>,
    order: Vec<(usize, usize)>,
    kept: Option<Box<Kept>>,
}

impl FleetWorkload {
    pub fn new(mode: Mode, seed: u64) -> Self {
        let shape = match mode {
            Mode::Bulk => &BULK,
            Mode::Lossy => &LOSSY,
        };
        let mut rng = Rng::new(seed);
        let mut objects = Vec::with_capacity(shape.objects);
        let mut used = std::collections::BTreeSet::new();
        while objects.len() < shape.objects {
            let id = 1 + rng.below(1 << 40);
            if !used.insert(id) {
                continue;
            }
            let mut bytes = vec![0u8; shape.pages_per_object * shape.page_len];
            rng.fill(&mut bytes);
            objects.push((ObjectId::new(id), bytes));
        }
        let order = interleaved_pages(
            &mut rng,
            shape.objects,
            shape.pages_per_object,
            shape.passes,
            shape.streams,
        );
        FleetWorkload { mode, seed, shape, objects, order, kept: None }
    }

    fn page(&self, index: usize) -> (ObjectId, ByteSpan, &[u8]) {
        let (o, p) = self.order[index];
        let len = self.shape.page_len;
        let (id, bytes) = &self.objects[o];
        (*id, ByteSpan::at((p * len) as u64, len as u64), &bytes[p * len..(p + 1) * len])
    }

    /// Builds the fleet and publishes the corpus: the timed set-up.
    fn setup(&self, probe: &mut Probe) -> FleetConnection {
        probe.begin_phase("bench.setup");
        let mut fleet =
            probe.call("core.fleet.new", || Fleet::new(MEMBERS, REPLICATION)).expect("fleet shape");
        let page_len = self.shape.page_len as u64;
        for (i, (id, bytes)) in self.objects.iter().enumerate() {
            probe
                .call_for("core.fleet.publish_paged", i as u64, || {
                    fleet.publish_paged(*id, bytes, page_len)
                })
                .expect("publish into a fresh fleet");
            if (i + 1) % SEGMENT_OBJECTS == 0 {
                probe.mark();
            }
        }
        let conn = match self.mode {
            Mode::Bulk => probe.call("core.fleet.connect", || {
                fleet.prewarm_payloads(BufferPool::DEFAULT_RETAIN_CAP, self.shape.page_len);
                FleetConnection::with_window(fleet, Link::ethernet(), self.shape.window)
            }),
            Mode::Lossy => probe.call("core.fleet.connect", || {
                fleet.set_service_config(ServiceConfig {
                    per_conn_cap: LOSSY_PER_CONN_CAP,
                    ..ServiceConfig::default()
                });
                fleet.prewarm_payloads(BufferPool::DEFAULT_RETAIN_CAP, self.shape.page_len);
                let mut conn = FleetConnection::with_faults(
                    fleet,
                    Link::ethernet(),
                    self.shape.window,
                    FaultPlan::chaos(self.seed, LOSSY_FAULT_RATE),
                )
                .with_recovery(LOSSY_TIMEOUT, LOSSY_RETRIES);
                conn.enable_heartbeat(LOSSY_HEARTBEAT);
                conn
            }),
        };
        probe.end_phase();
        conn
    }

    /// Collects `ticket` and verifies it against page `index`.
    fn collect(
        &self,
        probe: &mut Probe,
        conn: &mut FleetConnection,
        ticket: FleetTicket,
        index: usize,
        from_us: u64,
        sim: &mut SimSummary,
    ) {
        let got = probe.call_for("core.fleet.wait", index as u64, || conn.wait(ticket));
        let now = conn.elapsed().as_micros();
        match got {
            Ok((response, _)) => match check_page(&response, self.page(index).2) {
                Ok(()) => {
                    sim.ok();
                    sim.latencies_us.push(now - from_us);
                    if let ServerResponse::Span(buf) = response {
                        probe.call("core.fleet.recycle_payload", || conn.recycle_payload(buf));
                    }
                }
                Err(e) => sim.fail(format!("page {index}: {e}")),
            },
            Err(e) => sim.fail(format!("page {index}: wait failed: {e}")),
        }
    }

    /// Closed loop: keep `window` pages in flight, collect the oldest,
    /// submit the next. Latency runs from submit to collect.
    fn run_bulk(
        &self,
        probe: &mut Probe,
        conn: &mut FleetConnection,
        sim: &mut SimSummary,
        submits: &mut Vec<SimInstant>,
    ) {
        let mut inflight: VecDeque<(FleetTicket, usize, u64)> = VecDeque::new();
        let mut next = 0;
        while next < self.order.len() || !inflight.is_empty() {
            while inflight.len() < self.shape.window && next < self.order.len() {
                let (id, rel, _) = self.page(next);
                match probe
                    .call_for("core.fleet.fetch_page", next as u64, || conn.fetch_page(id, rel))
                {
                    Ok(ticket) => {
                        let at = conn.elapsed().as_micros();
                        submits.push(SimInstant::from_micros(at));
                        inflight.push_back((ticket, next, at));
                    }
                    Err(e) => sim.fail(format!("page {next}: submit failed: {e}")),
                }
                next += 1;
            }
            if let Some((ticket, index, at)) = inflight.pop_front() {
                self.collect(probe, conn, ticket, index, at, sim);
                if (index + 1) % SEGMENT_PAGES == 0 {
                    probe.mark();
                }
            }
        }
    }

    /// Open loop: page `i` is due at `i × period`. Between submissions the
    /// loop advances the connection on a fixed poll grid, so retry, Busy
    /// and heartbeat timers fire on schedule, and after each step collects,
    /// in page order, while any response has landed. Latency runs from the
    /// due time to the collect.
    fn run_lossy(
        &self,
        probe: &mut Probe,
        conn: &mut FleetConnection,
        sim: &mut SimSummary,
        submits: &mut Vec<SimInstant>,
    ) {
        let period = LOSSY_PERIOD.as_micros();
        let mut queue: VecDeque<(FleetTicket, usize, u64)> = VecDeque::new();
        let mut poll = LOSSY_POLL.as_micros();
        let step = |probe: &mut Probe,
                    conn: &mut FleetConnection,
                    at: u64,
                    queue: &mut VecDeque<(FleetTicket, usize, u64)>,
                    sim: &mut SimSummary| {
            probe.call("core.fleet.advance_to", || conn.advance_to(SimInstant::from_micros(at)));
            while queue.len() > conn.in_flight() {
                let Some((ticket, index, from)) = queue.pop_front() else { break };
                self.collect(probe, conn, ticket, index, from, sim);
            }
        };
        for i in 0..self.order.len() {
            let due = i as u64 * period;
            while poll < due {
                step(probe, conn, poll, &mut queue, sim);
                poll += LOSSY_POLL.as_micros();
            }
            step(probe, conn, due, &mut queue, sim);
            let (id, rel, _) = self.page(i);
            match probe.call_for("core.fleet.fetch_page", i as u64, || conn.fetch_page(id, rel)) {
                Ok(ticket) => {
                    let at = conn.elapsed().as_micros();
                    sim.gen_lag_us.push(at.saturating_sub(due));
                    submits.push(SimInstant::from_micros(at));
                    queue.push_back((ticket, i, due));
                }
                Err(e) => sim.fail(format!("page {i}: submit failed: {e}")),
            }
            if (i + 1) % SEGMENT_PAGES == 0 {
                probe.mark();
            }
        }
        while let Some((ticket, index, from)) = queue.pop_front() {
            self.collect(probe, conn, ticket, index, from, sim);
        }
    }

    /// One repetition: a fresh fleet, the whole fetch order, every page
    /// byte-compared with its published bytes.
    pub fn rep(&mut self, probe: &mut Probe, keep: bool) -> Rep {
        self.kept = None;
        let mut conn = self.setup(probe);
        let setup = probe.take();
        let devices_before = device_stats(&conn);
        let mut sim = SimSummary::new(self.shape.deadline.as_micros());
        let mut submits = Vec::with_capacity(self.order.len());
        probe.begin_phase("bench.run");
        match self.mode {
            Mode::Bulk => self.run_bulk(probe, &mut conn, &mut sim, &mut submits),
            Mode::Lossy => self.run_lossy(probe, &mut conn, &mut sim, &mut submits),
        }
        probe.end_phase();
        let run = probe.take();
        sim.finish(conn.elapsed().as_micros());
        sim.layers = fleet_snapshot(&conn, &devices_before, sim.ops).metrics();
        if keep {
            self.kept = Some(Box::new(Kept { conn, submits }));
        }
        Rep { setup, run, sim }
    }

    /// Feeds the kept repetition's pages, frames and timers back through
    /// each layer.
    pub fn replay(&mut self) -> Replayed {
        let Kept { mut conn, submits } = *self.kept.take().expect("a kept repetition");
        let stride = self.order.len().div_ceil(REPLAY_PAGES).max(1);
        let sample: Vec<usize> = (0..self.order.len()).step_by(stride).collect();
        let pages: Vec<&[u8]> = sample.iter().map(|&i| self.page(i).2).collect();
        // The run's request and response frames, rebuilt from its pages.
        let mut frames = Vec::with_capacity(sample.len() * 2);
        let mut requests = Vec::with_capacity(sample.len());
        let mut spans = Vec::with_capacity(sample.len());
        let mut member_of = Vec::with_capacity(sample.len());
        for (n, &i) in sample.iter().enumerate() {
            let (id, rel, bytes) = self.page(i);
            let placement = conn.fleet().placement(id).expect("published object").clone();
            let replica = placement.replica_for(n as u64 + 1);
            let span = ByteSpan::at(replica.span.start + rel.start, rel.len());
            let request = ServerRequest::FetchSpan { span };
            frames.push(Frame::request_with_priority(
                1,
                n as u64 + 1,
                Priority::Demand,
                request.clone(),
            ));
            frames.push(Frame::response(1, n as u64 + 1, ServerResponse::Span(bytes.to_vec())));
            requests.push(request);
            spans.push(span);
            member_of.push(replica.member);
        }
        let (encode_ns, decode_ns) = replay::frame_codec_ns(&frames);
        let member = member_of.first().copied().unwrap_or(0);
        let on_member: Vec<usize> = (0..sample.len()).filter(|&n| member_of[n] == member).collect();
        let member_requests: Vec<ServerRequest> =
            on_member.iter().map(|&n| requests[n].clone()).collect();
        let member_spans: Vec<ByteSpan> = on_member.iter().map(|&n| spans[n]).collect();
        let server = conn.fleet_mut().member_mut(member).expect("member exists");
        let handle_ns = replay::handle_ns(server, &member_requests);
        let read_ns = replay::read_at_into_ns_per_kib(server.archiver_mut(), &member_spans);
        let timeout = match self.mode {
            Mode::Bulk => SimDuration::from_millis(500),
            Mode::Lossy => LOSSY_TIMEOUT,
        };
        Replayed {
            crc32_ns_per_kib: replay::crc32_ns_per_kib(pages.iter().copied()),
            encode_ns,
            decode_ns,
            handle_ns,
            read_at_into_ns_per_kib: read_ns,
            lease_recycle_ns: replay::pool_lease_recycle_ns(
                &pages.iter().map(|p| p.len()).collect::<Vec<_>>(),
            ),
            arm_fire_ns: replay::kernel_arm_fire_ns(&submits, timeout),
        }
    }
}
