//! `browse_publish`: the paper's §5 browse path on one `ObjectServer`
//! behind one pipelined `Connection`, with publishes beside the reads.
//!
//! Each round sends a `Query`, fetches the miniatures of the first hits,
//! fetches several view windows of one object's image, then the whole
//! object; every few rounds a new object is published. Every answer is
//! checked against what the benchmark computes locally from the corpus.

use crate::replay::{self, Replayed};
use crate::sim::{brief, Rng, SimSummary, Snapshot};
use crate::trace::Probe;
use crate::Rep;
use minos::corpus::images::xray_bitmap;
use minos::corpus::objects::archived_form;
use minos::corpus::{medical_report, office_document, subway_map_object};
use minos::image::{Bitmap, Image, Miniature};
use minos::net::{Frame, Link, Priority, ServerRequest, ServerResponse};
use minos::object::{ArchivedObject, DataKind, DataPayload, MultimediaObject};
use minos::presentation::{Connection, Ticket};
use minos::server::ObjectServer;
use minos::storage::{BlockDevice, DeviceStats};
use minos::text::search::normalize_word;
use minos::types::{ObjectId, Rect, SimDuration, SimInstant};
use std::collections::{BTreeMap, HashSet};

/// Corpus groups published before the run (each group is a report, an
/// office document and a subway map with its two overlays).
const INITIAL_GROUPS: usize = 56;
/// Objects published during the run, one every `PUBLISH_EVERY` rounds.
const EXTRA_OBJECTS: usize = 100;
/// Office documents carry a scanned page whose size the seed varies
/// between these bounds, so object sizes (and the transfer times they
/// set) differ between seeds.
const SCAN_WIDTH: (u32, u32) = (896, 1088);
const SCAN_HEIGHT: (u32, u32) = (640, 800);
const PUBLISH_EVERY: usize = 4;
const ROUNDS: usize = EXTRA_OBJECTS * PUBLISH_EVERY;
const MINIATURES_PER_ROUND: usize = 4;
const VIEWS_PER_ROUND: usize = 3;
const VIEW_SIZE: (u32, u32) = (160, 120);
const WINDOW: usize = 8;
/// Miniature downsampling factor of a default `ObjectServer`.
const MINIATURE_FACTOR: u32 = 8;
/// Host-time segments: publishes per set-up segment, rounds per run
/// segment.
const SEGMENT_OBJECTS: usize = 20;
const SEGMENT_ROUNDS: usize = 20;
/// Requests (with their responses) of the kept repetition fed back
/// through each layer.
const REPLAY_REQUESTS: usize = 2048;
/// Latency limit for the deadline-miss ratio.
const DEADLINE: SimDuration = SimDuration::from_secs(1);
/// The connection's default retransmit deadline (the host timer replay
/// arms one per request).
const CONN_TIMEOUT: SimDuration = SimDuration::from_millis(500);

/// One corpus object with everything the checks need, computed locally.
struct Entry {
    object: MultimediaObject,
    archived: ArchivedObject,
    rasters: Vec<Bitmap>,
    miniature: Bitmap,
    words: HashSet<String>,
}

impl Entry {
    fn new(object: MultimediaObject) -> Self {
        let archived = archived_form(&object);
        let rasters: Vec<Bitmap> = object.images.iter().map(|i| i.render()).collect();
        let miniature = Miniature::build(&rasters[0], MINIATURE_FACTOR).raster().clone();
        let words = searchable_words(&object);
        Entry { object, archived, rasters, miniature, words }
    }
}

/// Every normalized word a content query can match in `obj`: text words,
/// recognized utterances, graphics labels and attribute values.
fn searchable_words(obj: &MultimediaObject) -> HashSet<String> {
    let mut raw: Vec<String> = Vec::new();
    for doc in &obj.text_segments {
        raw.extend(doc.tree().words.iter().map(|&span| doc.slice(span)));
    }
    for seg in &obj.voice_segments {
        raw.extend(seg.utterances.iter().map(|u| u.word.clone()));
    }
    for image in &obj.images {
        if let Some(g) = image.as_graphics() {
            for label in g.objects.iter().filter_map(|o| o.label.as_ref()) {
                raw.extend(label.content.searchable_text().split_whitespace().map(String::from));
            }
        }
    }
    for attr in &obj.attributes {
        raw.extend(attr.value.split_whitespace().map(String::from));
    }
    raw.iter().map(|w| normalize_word(w)).filter(|w| !w.is_empty()).collect()
}

/// One planned round, fixed by the seed before any repetition runs.
struct Round {
    /// Entry whose words form the query and whose image and body are read.
    target: usize,
    keywords: Vec<String>,
    views: Vec<Rect>,
}

/// What the last repetition leaves for the host replays.
struct Kept {
    conn: Connection<ObjectServer>,
    requests: Vec<ServerRequest>,
    responses: Vec<ServerResponse>,
    submits: Vec<SimInstant>,
}

pub struct Browse {
    entries: Vec<Entry>,
    /// Entries `0..initial` are published at set-up, the rest in the run.
    initial: usize,
    rounds: Vec<Round>,
    kept: Option<Box<Kept>>,
}

impl Browse {
    pub fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        let mut next_id = 1 + rng.below(1 << 32);
        let mut id = || {
            next_id += 1;
            ObjectId::new(next_id)
        };
        let office = |id: ObjectId, s: u64, rng: &mut Rng| {
            let mut doc = office_document(id, s, 2 + (s % 3) as usize);
            let w = SCAN_WIDTH.0 + rng.below(u64::from(SCAN_WIDTH.1 - SCAN_WIDTH.0)) as u32;
            let h = SCAN_HEIGHT.0 + rng.below(u64::from(SCAN_HEIGHT.1 - SCAN_HEIGHT.0)) as u32;
            doc.images.push(Image::Bitmap(xray_bitmap(s ^ 0x5ca7, w, h).0));
            doc
        };
        let mut objects = Vec::new();
        for g in 0..INITIAL_GROUPS {
            let s = seed.wrapping_mul(1_000).wrapping_add(g as u64);
            objects.push(medical_report(id(), s));
            objects.push(office(id(), s, &mut rng));
            let (map, overlays) = subway_map_object(id(), id(), id(), s);
            objects.push(map);
            objects.extend(overlays);
        }
        let initial = objects.len();
        for e in 0..EXTRA_OBJECTS {
            let s = seed.wrapping_mul(1_000).wrapping_add(500 + e as u64);
            objects.push(match e % 2 {
                0 => medical_report(id(), s),
                _ => office(id(), s, &mut rng),
            });
        }
        let entries: Vec<Entry> = objects.into_iter().map(Entry::new).collect();
        let mut rounds = Vec::with_capacity(ROUNDS);
        for r in 0..ROUNDS {
            // Only objects published before this round may be read.
            let visible = initial + r / PUBLISH_EVERY;
            let target = rng.below(visible as u64) as usize;
            let entry = &entries[target];
            let mut words: Vec<&String> = entry.words.iter().collect();
            words.sort();
            let mut keywords = vec![words[rng.below(words.len() as u64) as usize].clone()];
            if rng.below(2) == 0 {
                keywords.push(words[rng.below(words.len() as u64) as usize].clone());
            }
            let raster = &entry.rasters[0];
            let views = (0..VIEWS_PER_ROUND)
                .map(|_| {
                    let x = rng.below(u64::from(raster.width().saturating_sub(VIEW_SIZE.0 / 2)));
                    let y = rng.below(u64::from(raster.height().saturating_sub(VIEW_SIZE.1 / 2)));
                    Rect::new(x as i32, y as i32, VIEW_SIZE.0, VIEW_SIZE.1)
                })
                .collect();
            rounds.push(Round { target, keywords, views });
        }
        Browse { entries, initial, rounds, kept: None }
    }

    /// The hits a query must return: published objects holding every
    /// keyword, ascending by id.
    fn expected_hits(&self, published: usize, keywords: &[String]) -> Vec<ObjectId> {
        let wanted: Vec<String> = keywords.iter().map(|k| normalize_word(k)).collect();
        let mut hits: Vec<ObjectId> = self.entries[..published]
            .iter()
            .filter(|e| wanted.iter().all(|w| e.words.contains(w)))
            .map(|e| e.object.id)
            .collect();
        hits.sort();
        hits
    }

    /// Publishes entry `index`; returns its archive base and the device
    /// time the store cost.
    fn publish(&self, probe: &mut Probe, server: &mut ObjectServer, index: usize) -> (u64, u64) {
        let entry = &self.entries[index];
        let object = entry.object.clone();
        let receipt = probe
            .call_for("server.publish", index as u64, || server.publish(object, &entry.archived))
            .expect("a consistent corpus object publishes");
        (receipt.span.start, receipt.store_time.as_micros())
    }

    /// One repetition: a fresh server, every round, every answer checked.
    pub fn rep(&mut self, probe: &mut Probe, keep: bool) -> Rep {
        self.kept = None;
        let mut bases: BTreeMap<ObjectId, u64> = BTreeMap::new();
        probe.begin_phase("bench.setup");
        let mut server = probe.call("server.new", ObjectServer::new);
        for i in 0..self.initial {
            let (base, _) = self.publish(probe, &mut server, i);
            bases.insert(self.entries[i].object.id, base);
            if (i + 1) % SEGMENT_OBJECTS == 0 {
                probe.mark();
            }
        }
        let mut conn = probe.call("core.remote.connect", || {
            Connection::with_window(server, Link::ethernet(), WINDOW)
        });
        probe.end_phase();
        let setup = probe.take();

        let device_before = conn.endpoint().archiver().device().stats();
        let mut sim = SimSummary::new(DEADLINE.as_micros());
        let mut log = Log { keep, ..Log::default() };
        let mut published = self.initial;
        // In-run publishes keep the device busy off the connection's
        // clock; their store time is taken out of the device busy ratio.
        let mut store_busy_us = 0u64;
        probe.begin_phase("bench.run");
        for (r, round) in self.rounds.iter().enumerate() {
            let target = &self.entries[round.target];
            // Query, checked against the locally computed hit set.
            let query = ServerRequest::Query { keywords: round.keywords.clone() };
            let expected = self.expected_hits(published, &round.keywords);
            let hits = match log.exchange(probe, &mut conn, &mut sim, vec![query]).pop() {
                Some(ServerResponse::Hits(hits)) if hits == expected => {
                    sim.ok();
                    hits
                }
                Some(other) => {
                    sim.fail(format!(
                        "round {r}: query {:?} answered {}",
                        round.keywords,
                        brief(&other)
                    ));
                    Vec::new()
                }
                None => {
                    sim.fail(format!("round {r}: query lost"));
                    Vec::new()
                }
            };
            // Miniatures of the first hits, pipelined.
            let shown: Vec<ObjectId> = hits.iter().copied().take(MINIATURES_PER_ROUND).collect();
            let requests = shown.iter().map(|&id| ServerRequest::FetchMiniature { id }).collect();
            let answers = log.exchange(probe, &mut conn, &mut sim, requests);
            for (id, answer) in shown.iter().zip(answers) {
                let entry = self.entries.iter().find(|e| e.object.id == *id);
                match (entry, answer) {
                    (Some(e), ServerResponse::Miniature(bytes))
                        if decode(&bytes).as_ref() == Some(&e.miniature) =>
                    {
                        sim.ok()
                    }
                    (_, other) => {
                        sim.fail(format!("round {r}: miniature of {id} wrong: {}", brief(&other)))
                    }
                }
            }
            // View windows of the target's first image, pipelined.
            let requests = round
                .views
                .iter()
                .map(|&rect| ServerRequest::FetchView {
                    id: target.object.id,
                    tag: "0".into(),
                    rect,
                })
                .collect();
            let answers = log.exchange(probe, &mut conn, &mut sim, requests);
            for (rect, answer) in round.views.iter().zip(answers) {
                let raster = &target.rasters[0];
                let crop = raster.extract(rect.clamp_within(raster.bounds())).ok();
                match answer {
                    ServerResponse::View(bytes) if crop.is_some() && decode(&bytes) == crop => {
                        sim.ok()
                    }
                    other => sim.fail(format!("round {r}: view {rect:?} wrong: {}", brief(&other))),
                }
            }
            // The whole object, decoded against its archive base.
            let requests = vec![ServerRequest::FetchObject { id: target.object.id }];
            let base = bases[&target.object.id];
            match log.exchange(probe, &mut conn, &mut sim, requests).pop() {
                Some(ServerResponse::Object(bytes))
                    if same_object(&bytes, base, &target.archived) =>
                {
                    sim.ok()
                }
                other => sim.fail(format!(
                    "round {r}: object {} wrong: {}",
                    target.object.id,
                    other.as_ref().map_or("lost".into(), brief)
                )),
            }
            // A publish beside the reads, on the same archiver and index.
            if r % PUBLISH_EVERY == PUBLISH_EVERY - 1 && published < self.entries.len() {
                let (base, store_us) = self.publish(probe, conn.endpoint_mut(), published);
                bases.insert(self.entries[published].object.id, base);
                store_busy_us += store_us;
                published += 1;
                sim.ok();
            }
            if (r + 1) % SEGMENT_ROUNDS == 0 {
                probe.mark();
            }
        }
        probe.end_phase();
        let run = probe.take();
        sim.finish(conn.elapsed().as_micros());
        sim.layers = snapshot(&conn, &device_before, store_busy_us, sim.ops).metrics();
        if keep {
            self.kept = Some(Box::new(Kept {
                conn,
                requests: log.requests,
                responses: log.responses,
                submits: log.submits,
            }));
        }
        Rep { setup, run, sim }
    }

    /// Feeds the kept repetition's frames and requests back through each
    /// layer.
    pub fn replay(&mut self) -> Replayed {
        let Kept { mut conn, requests, responses, submits } =
            *self.kept.take().expect("a kept repetition");
        let mut frames = Vec::with_capacity(requests.len() * 2);
        for (i, (request, response)) in requests.iter().zip(&responses).enumerate() {
            let rid = i as u64 + 1;
            frames.push(Frame::request_with_priority(1, rid, Priority::Demand, request.clone()));
            frames.push(Frame::response(1, rid, response.clone()));
        }
        let (encode_ns, decode_ns) = replay::frame_codec_ns(&frames);
        let encoded: Vec<Vec<u8>> = frames.iter().map(Frame::encode).collect();
        let sizes: Vec<usize> = encoded.iter().map(Vec::len).collect();
        let spans: Vec<_> = self
            .entries
            .iter()
            .filter_map(|e| conn.endpoint().record_span(e.object.id).ok())
            .collect();
        let server = conn.endpoint_mut();
        let handle_ns = replay::handle_ns(server, &requests);
        let read_ns = replay::read_at_into_ns_per_kib(server.archiver_mut(), &spans);
        Replayed {
            crc32_ns_per_kib: replay::crc32_ns_per_kib(encoded.iter().map(Vec::as_slice)),
            encode_ns,
            decode_ns,
            handle_ns,
            read_at_into_ns_per_kib: read_ns,
            lease_recycle_ns: replay::pool_lease_recycle_ns(&sizes),
            arm_fire_ns: replay::kernel_arm_fire_ns(&submits, CONN_TIMEOUT),
        }
    }
}

/// Whether `bytes`, decoded against its archive base, is the published
/// archived form: the same descriptor and the same composition bytes (a
/// decoded composition carries no tag table).
fn same_object(bytes: &[u8], base: u64, published: &ArchivedObject) -> bool {
    ArchivedObject::decode_from_archive(bytes, base).is_ok_and(|got| {
        got.descriptor == published.descriptor
            && got.composition.bytes() == published.composition.bytes()
    })
}

/// Decodes an image payload.
fn decode(bytes: &[u8]) -> Option<Bitmap> {
    DataPayload { kind: DataKind::Image, bytes: bytes.to_vec() }.as_image().ok()
}

/// Request traffic of one repetition: latency samples always, and the
/// requests, responses and submit instants when the repetition is kept.
#[derive(Default)]
struct Log {
    keep: bool,
    requests: Vec<ServerRequest>,
    responses: Vec<ServerResponse>,
    submits: Vec<SimInstant>,
}

impl Log {
    /// Submits `requests` back to back, then collects them in order.
    /// Latency runs from each submit to its collect; an error response or
    /// a failed wait comes back as `ServerResponse::Error`.
    fn exchange(
        &mut self,
        probe: &mut Probe,
        conn: &mut Connection<ObjectServer>,
        sim: &mut SimSummary,
        requests: Vec<ServerRequest>,
    ) -> Vec<ServerResponse> {
        let mut tickets: Vec<(Ticket, u64)> = Vec::with_capacity(requests.len());
        let keep = self.keep && self.requests.len() < REPLAY_REQUESTS;
        for request in requests {
            if keep {
                self.requests.push(request.clone());
            }
            let ticket = probe.call("core.remote.submit", || conn.submit(request));
            let at = conn.elapsed().as_micros();
            if keep {
                self.submits.push(SimInstant::from_micros(at));
            }
            tickets.push((ticket, at));
        }
        let mut out = Vec::with_capacity(tickets.len());
        for (ticket, at) in tickets {
            let response = match probe.call("core.remote.wait", || conn.wait(ticket)) {
                Ok((response, _)) => {
                    sim.latencies_us.push(conn.elapsed().as_micros() - at);
                    response
                }
                Err(e) => ServerResponse::Error(format!("wait failed: {e}")),
            };
            if keep {
                self.responses.push(response.clone());
            }
            out.push(response);
        }
        out
    }
}

/// The snapshot of the browse run. The connection serves frames through
/// `ServerEndpoint::handle`, so the service-queue counters stay zero;
/// they are reported so the set matches the fleet workloads.
fn snapshot(
    conn: &Connection<ObjectServer>,
    device_before: &DeviceStats,
    store_busy_us: u64,
    ops: u64,
) -> Snapshot {
    let device = conn.endpoint().archiver().device().stats();
    Snapshot {
        elapsed_us: conn.elapsed().as_micros(),
        ops,
        link: conn.link_stats(),
        device_busy_us: device.busy.as_micros() - device_before.busy.as_micros() - store_busy_us,
        device_read: device.bytes_read - device_before.bytes_read,
        service: conn.endpoint().service_stats().clone(),
        members: 1,
        transport: conn.transport_stats(),
        busy_deferred: 0,
        kernel: conn.kernel_stats(),
        fault: conn.fault_stats(),
    }
}
