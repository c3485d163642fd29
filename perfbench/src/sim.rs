//! Exact simulated results of one repetition, and what all workloads
//! share: the seeded input generator, page streams, and the fleet's
//! per-layer counters.

use crate::trace::percentile;
use minos::net::{FaultStats, LinkStats, ServerResponse};
use minos::presentation::{FleetConnection, KernelStats, TransportStats};
use minos::server::ServiceStats;
use minos::storage::{BlockDevice, DeviceStats};

/// Deterministic input generator (SplitMix64), so inputs depend on the
/// seed alone.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x6a09_e667_f3bc_c909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    pub fn fill(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let v = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&v[..chunk.len()]);
        }
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }
}

/// The fetch order of a paged read: `streams` readers run side by side,
/// each reading one object's pages in order before taking the next object
/// from a seeded queue; their requests interleave round-robin. Returns
/// `(object index, page index)` pairs.
pub fn interleaved_pages(
    rng: &mut Rng,
    objects: usize,
    pages_per_object: usize,
    passes: usize,
    streams: usize,
) -> Vec<(usize, usize)> {
    let mut queue: Vec<usize> = Vec::with_capacity(objects * passes);
    for _ in 0..passes {
        let mut pass: Vec<usize> = (0..objects).collect();
        rng.shuffle(&mut pass);
        queue.extend(pass);
    }
    let mut queue = queue.into_iter();
    let mut active: Vec<Option<(usize, usize)>> =
        (0..streams).map(|_| queue.next().map(|o| (o, 0))).collect();
    let mut order = Vec::with_capacity(objects * pages_per_object * passes);
    while active.iter().any(Option::is_some) {
        for slot in active.iter_mut() {
            let Some((object, page)) = *slot else { continue };
            order.push((object, page));
            *slot = if page + 1 < pages_per_object {
                Some((object, page + 1))
            } else {
                queue.next().map(|o| (o, 0))
            };
        }
    }
    order
}

/// Everything a repetition measured on the simulated clock. Two
/// repetitions of one seed must produce equal summaries.
#[derive(Clone, Debug, PartialEq)]
pub struct SimSummary {
    /// Operations whose output verified.
    pub ops: u64,
    pub attempted: u64,
    /// Error responses, exhausted retries and wrong bytes.
    pub failed: u64,
    /// The first few failures, for the report.
    pub failures: Vec<String>,
    /// Simulated time from connect to the last collection.
    pub elapsed_us: u64,
    /// Per-request latency (submit or due time to collect).
    pub latencies_us: Vec<u64>,
    /// Open loop only: how late each submission left after its due time.
    pub gen_lag_us: Vec<u64>,
    /// Latency limit for the deadline-miss ratio.
    pub deadline_us: u64,
    /// Simulated per-layer metrics from the library's stats snapshots.
    pub layers: Vec<(&'static str, f64)>,
}

impl SimSummary {
    pub fn new(deadline_us: u64) -> Self {
        SimSummary {
            ops: 0,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            elapsed_us: 0,
            latencies_us: Vec::new(),
            gen_lag_us: Vec::new(),
            deadline_us,
            layers: Vec::new(),
        }
    }

    /// Counts one verified operation.
    pub fn ok(&mut self) {
        self.attempted += 1;
        self.ops += 1;
    }

    /// Counts one failed operation and keeps its message.
    pub fn fail(&mut self, what: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }

    /// Sorts the samples; call once after the run.
    pub fn finish(&mut self, elapsed_us: u64) {
        self.elapsed_us = elapsed_us;
        self.latencies_us.sort_unstable();
        self.gen_lag_us.sort_unstable();
    }

    pub fn goodput_per_s(&self) -> f64 {
        self.ops as f64 * 1e6 / self.elapsed_us.max(1) as f64
    }

    pub fn latency_ms(&self, p: f64) -> f64 {
        percentile(&self.latencies_us, p) as f64 / 1e3
    }

    pub fn gen_lag_p99_ms(&self) -> f64 {
        percentile(&self.gen_lag_us, 0.99) as f64 / 1e3
    }

    /// Requests over the latency limit plus failed requests, over
    /// attempted. A failed request has no latency sample.
    pub fn deadline_miss_ratio(&self) -> f64 {
        let late = self.latencies_us.iter().filter(|&&l| l > self.deadline_us).count() as u64;
        (late + self.failed) as f64 / self.attempted.max(1) as f64
    }

    pub fn failed_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Field-by-field differences against `other`, for the determinism
    /// gate.
    pub fn diff(&self, other: &SimSummary) -> Vec<String> {
        let mut out = Vec::new();
        let mut cmp = |what: &str, a: String, b: String| {
            if a != b {
                out.push(format!("{what}: {a} vs {b}"));
            }
        };
        cmp("ops", self.ops.to_string(), other.ops.to_string());
        cmp("attempted", self.attempted.to_string(), other.attempted.to_string());
        cmp("failed", self.failed.to_string(), other.failed.to_string());
        cmp("elapsed_us", self.elapsed_us.to_string(), other.elapsed_us.to_string());
        cmp(
            "latency samples",
            format!("{} sum {}", self.latencies_us.len(), self.latencies_us.iter().sum::<u64>()),
            format!("{} sum {}", other.latencies_us.len(), other.latencies_us.iter().sum::<u64>()),
        );
        cmp(
            "gen lag samples",
            format!("{} sum {}", self.gen_lag_us.len(), self.gen_lag_us.iter().sum::<u64>()),
            format!("{} sum {}", other.gen_lag_us.len(), other.gen_lag_us.iter().sum::<u64>()),
        );
        for ((name, a), (_, b)) in self.layers.iter().zip(&other.layers) {
            cmp(name, a.to_string(), b.to_string());
        }
        if out.is_empty() && self != other {
            out.push("sample order or failure text differs".into());
        }
        out
    }
}

/// Byte-compares a page response against its published bytes.
pub fn check_page(response: &ServerResponse, expected: &[u8]) -> Result<(), String> {
    match response {
        ServerResponse::Span(bytes) if bytes.as_slice() == expected => Ok(()),
        ServerResponse::Span(bytes) => {
            let at = bytes.iter().zip(expected).position(|(a, b)| a != b);
            Err(format!(
                "wrong bytes: {} of {} bytes, first difference at {at:?}",
                bytes.len(),
                expected.len()
            ))
        }
        other => Err(format!("unexpected response {}", brief(other))),
    }
}

/// A response's variant and size, without its payload.
pub fn brief(response: &ServerResponse) -> String {
    match response {
        ServerResponse::Error(message) => format!("Error({message})"),
        ServerResponse::Busy { retry_after } => format!("Busy({retry_after:?})"),
        ServerResponse::Object(b) => format!("Object({} bytes)", b.len()),
        ServerResponse::Span(b) => format!("Span({} bytes)", b.len()),
        ServerResponse::View(b) => format!("View({} bytes)", b.len()),
        ServerResponse::Miniature(b) => format!("Miniature({} bytes)", b.len()),
        ServerResponse::Hits(h) => format!("Hits({h:?})"),
        ServerResponse::Batch(b) => format!("Batch({} responses)", b.len()),
        ServerResponse::Welcome { epoch } => format!("Welcome({epoch})"),
        ServerResponse::Pong { nonce, epoch } => format!("Pong({nonce}, {epoch})"),
    }
}

/// Per-member device statistics, snapshotted before and after the run.
pub fn device_stats(conn: &FleetConnection) -> Vec<DeviceStats> {
    let fleet = conn.fleet();
    (0..fleet.member_count())
        .filter_map(|m| fleet.member(m))
        .map(|member| member.archiver().device().stats())
        .collect()
}

/// The library's public stats snapshots after a run, reduced to what the
/// simulated per-layer metrics read.
pub struct Snapshot {
    pub elapsed_us: u64,
    pub ops: u64,
    pub link: LinkStats,
    /// Device time of the busiest member during the run, reads only.
    pub device_busy_us: u64,
    /// Bytes all devices read during the run.
    pub device_read: u64,
    pub service: ServiceStats,
    pub members: u64,
    pub transport: TransportStats,
    pub busy_deferred: u64,
    pub kernel: KernelStats,
    pub fault: FaultStats,
}

impl Snapshot {
    /// The simulated per-layer metrics, in report order.
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        let elapsed = self.elapsed_us.max(1) as f64;
        let ops = self.ops.max(1) as f64;
        let (link, service, transport, kernel, fault) =
            (&self.link, &self.service, &self.transport, &self.kernel, &self.fault);
        let leases =
            transport.pool_hits + transport.pool_misses + service.pool_hits + service.pool_misses;
        let injected =
            fault.dropped + fault.corrupted + fault.truncated + fault.duplicated + fault.delayed;
        vec![
            ("net.link.busy_ratio", link.busy.as_micros() as f64 / elapsed),
            ("net.link.bytes_per_op", link.bytes as f64 / ops),
            ("storage.optical.busy_ratio", self.device_busy_us as f64 / elapsed),
            ("storage.optical.bytes_read_per_op", self.device_read as f64 / ops),
            (
                "server.service.busy_ratio",
                service.busy.as_micros() as f64 / (elapsed * self.members.max(1) as f64),
            ),
            ("server.service.coalesced_runs", service.coalesced_runs as f64),
            ("server.service.queue_high_water", service.queue_high_water as f64),
            ("server.service.busy_rejections", service.busy_rejections as f64),
            ("core.transport.retries_per_op", transport.retries as f64 / ops),
            ("core.transport.timeouts", transport.timeouts as f64),
            ("core.transport.failovers", transport.failovers as f64),
            ("core.transport.duplicates", transport.duplicates as f64),
            ("core.transport.corrupt_frames", transport.corrupt_frames as f64),
            ("core.fleet.busy_deferred", self.busy_deferred as f64),
            ("core.kernel.events_fired", kernel.events_fired as f64),
            ("core.kernel.timers_armed", kernel.timers_armed as f64),
            ("core.kernel.spurious_wakes", kernel.spurious_wakes as f64),
            (
                "net.pool.hit_ratio",
                (transport.pool_hits + service.pool_hits) as f64 / leases.max(1) as f64,
            ),
            ("net.fault.injected", injected as f64),
        ]
    }
}

/// The snapshot of a fleet run: link, devices (delta over the run),
/// merged service queues, transport recovery, Busy parking, kernel
/// timers, buffer pools and the fault layer.
pub fn fleet_snapshot(
    conn: &FleetConnection,
    devices_before: &[DeviceStats],
    ops: u64,
) -> Snapshot {
    let mut device_busy_us = 0;
    let mut device_read = 0;
    for (after, before) in device_stats(conn).iter().zip(devices_before) {
        device_busy_us = device_busy_us.max(after.busy.as_micros() - before.busy.as_micros());
        device_read += after.bytes_read - before.bytes_read;
    }
    Snapshot {
        elapsed_us: conn.elapsed().as_micros(),
        ops,
        link: conn.link_stats(),
        device_busy_us,
        device_read,
        service: conn.fleet().service_stats(),
        members: conn.fleet().member_count() as u64,
        transport: conn.transport_stats(),
        busy_deferred: conn.fleet_stats().busy_deferred,
        kernel: conn.kernel_stats(),
        fault: conn.fault_stats(),
    }
}
