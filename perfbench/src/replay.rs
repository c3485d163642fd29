//! Host per-layer replays: a traced run's own pages, frames, requests and
//! timers fed back through one layer's public entry points at a time,
//! each call timed on the host clock.

use crate::trace::percentile;
use minos::net::{crc32, BufferPool, Frame, ServerRequest};
use minos::presentation::{Kernel, KernelEvent};
use minos::server::ObjectServer;
use minos::storage::{Archiver, OpticalDisk};
use minos::types::{ByteSpan, SimDuration, SimInstant};
use std::hint::black_box;
use std::time::Instant;

/// Host nanoseconds per KiB checksummed, over the given buffers.
pub fn crc32_ns_per_kib<'a>(buffers: impl Iterator<Item = &'a [u8]>) -> f64 {
    let mut ns = 0u128;
    let mut bytes = 0u64;
    for buf in buffers {
        let start = Instant::now();
        black_box(crc32(black_box(buf)));
        ns += start.elapsed().as_nanos();
        bytes += buf.len() as u64;
    }
    ns as f64 * 1024.0 / bytes.max(1) as f64
}

/// Mean host nanoseconds to encode and to decode one of `frames`.
pub fn frame_codec_ns(frames: &[Frame]) -> (f64, f64) {
    if frames.is_empty() {
        return (0.0, 0.0);
    }
    let start = Instant::now();
    let encoded: Vec<Vec<u8>> = frames.iter().map(|f| black_box(f.encode())).collect();
    let encode_ns = start.elapsed().as_nanos() as f64;
    let start = Instant::now();
    for bytes in &encoded {
        let decoded = Frame::decode(black_box(bytes)).expect("a frame the run carried decodes");
        black_box(decoded);
    }
    let decode_ns = start.elapsed().as_nanos() as f64;
    let n = frames.len() as f64;
    (encode_ns / n, decode_ns / n)
}

/// Mean host nanoseconds to lease a payload buffer and recycle it, for
/// buffers filled with the run's page sizes (the fill is not timed).
pub fn pool_lease_recycle_ns(sizes: &[usize]) -> f64 {
    let pool = BufferPool::new();
    let mut ns = 0u128;
    for &len in sizes {
        let start = Instant::now();
        let mut buf = pool.lease_vec();
        ns += start.elapsed().as_nanos();
        buf.resize(len, 0x5a);
        black_box(&buf);
        let start = Instant::now();
        pool.recycle(buf);
        ns += start.elapsed().as_nanos();
    }
    ns as f64 / sizes.len().max(1) as f64
}

/// Mean host nanoseconds per timer armed and fired, for a retry deadline
/// at each of the run's submit instants.
pub fn kernel_arm_fire_ns(submits: &[SimInstant], timeout: SimDuration) -> f64 {
    let mut kernel = Kernel::new();
    let start = Instant::now();
    for (i, &at) in submits.iter().enumerate() {
        kernel.arm(at + timeout, KernelEvent::RetryDue { request_id: i as u64 + 1, attempt: 0 });
    }
    let mut fired = 0u64;
    if let Some(&last) = submits.iter().max() {
        kernel.advance_to(last + timeout);
        while let Some(event) = kernel.take_ready() {
            black_box(event);
            fired += 1;
        }
    }
    let ns = start.elapsed().as_nanos() as f64;
    assert_eq!(fired as usize, submits.len(), "every armed timer fires");
    ns / submits.len().max(1) as f64
}

/// Host nanoseconds per KiB read through the archiver into a reused
/// buffer, for the run's spans.
pub fn read_at_into_ns_per_kib(archiver: &mut Archiver<OpticalDisk>, spans: &[ByteSpan]) -> f64 {
    let mut buf = Vec::new();
    let mut ns = 0u128;
    let mut bytes = 0u64;
    for &span in spans {
        buf.clear();
        let start = Instant::now();
        archiver.read_at_into(span, &mut buf).expect("the run's span reads back");
        ns += start.elapsed().as_nanos();
        bytes += span.len();
    }
    ns as f64 * 1024.0 / bytes.max(1) as f64
}

/// Index of a request kind in `server.handle_ns.{query,miniature,view,
/// object,span}` order.
fn kind(request: &ServerRequest) -> Option<usize> {
    Some(match request {
        ServerRequest::Query { .. } => 0,
        ServerRequest::FetchMiniature { .. } => 1,
        ServerRequest::FetchView { .. } => 2,
        ServerRequest::FetchObject { .. } => 3,
        ServerRequest::FetchSpan { .. } => 4,
        _ => return None,
    })
}

/// Median host nanoseconds of `ObjectServer::handle` per request kind,
/// over the run's requests (0 for a kind the run never sent).
pub fn handle_ns(server: &mut ObjectServer, requests: &[ServerRequest]) -> [f64; 5] {
    let mut samples: [Vec<u64>; 5] = Default::default();
    for request in requests {
        let Some(k) = kind(request) else { continue };
        let start = Instant::now();
        let (response, took) = server.handle(black_box(request));
        samples[k].push(start.elapsed().as_nanos() as u64);
        black_box(took);
        if let minos::net::ServerResponse::Span(buf) = response {
            server.recycle_payload(buf);
        }
    }
    samples.map(|mut v| {
        v.sort_unstable();
        percentile(&v, 0.5) as f64
    })
}

/// Every host replay metric, in report order.
pub struct Replayed {
    pub crc32_ns_per_kib: f64,
    pub encode_ns: f64,
    pub decode_ns: f64,
    pub handle_ns: [f64; 5],
    pub read_at_into_ns_per_kib: f64,
    pub lease_recycle_ns: f64,
    pub arm_fire_ns: f64,
}

impl Replayed {
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        let h = &self.handle_ns;
        vec![
            ("net.crc32.ns_per_kib", self.crc32_ns_per_kib),
            ("net.frame.encode_ns", self.encode_ns),
            ("net.frame.decode_ns", self.decode_ns),
            ("server.handle_ns.query", h[0]),
            ("server.handle_ns.miniature", h[1]),
            ("server.handle_ns.view", h[2]),
            ("server.handle_ns.object", h[3]),
            ("server.handle_ns.span", h[4]),
            ("storage.read_at_into_ns_per_kib", self.read_at_into_ns_per_kib),
            ("net.pool.lease_recycle_ns", self.lease_recycle_ns),
            ("core.kernel.arm_fire_ns", self.arm_fire_ns),
        ]
    }
}
