//! Integration pins for experiment E14: overload robustness and session
//! resume across server restarts.
//!
//! The acceptance bar from the admission-control work: under a 4x offered
//! load the server sheds prefetch-class traffic only — demand and audio
//! requests are never turned away while a prefetch remains sheddable, the
//! queue stays under its cap, and the audio tail latency beats the
//! unbounded baseline's collapse. And a browsing session checkpointed
//! mid-browse resumes byte-identically after the server restarts: the
//! archive is durable, the queues are not, and the user cannot tell.

use std::cell::RefCell;
use std::rc::Rc;

use minos::corpus::objects::archived_form;
use minos::corpus::{audio_xray_report, medical_report, subway_map_object};
use minos::net::{FaultPlan, Link, ServerRequest, ServerResponse};
use minos::object::MultimediaObject;
use minos::presentation::{
    simulate_overload_workload, BrowseCommand, BrowsingSession, Connection, ObjectStore,
    SessionCheckpoint, Ticket,
};
use minos::server::{ObjectServer, ServiceConfig};
use minos::text::PaginateConfig;
use minos::types::{ByteSpan, MinosError, ObjectId, Result, SimDuration};

const SESSIONS: usize = 48;
const PAGES: usize = 8;
const PAGE_LEN: u64 = 8_192;

#[test]
fn admission_control_bounds_the_queue_and_the_audio_tail() {
    let admitted =
        simulate_overload_workload(SESSIONS, PAGES, PAGE_LEN, ServiceConfig::default()).unwrap();
    let unbounded =
        simulate_overload_workload(SESSIONS, PAGES, PAGE_LEN, ServiceConfig::unbounded()).unwrap();

    // Full goodput either way: shedding costs speculation, never a page.
    assert_eq!(admitted.pages, (SESSIONS * PAGES) as u64);
    assert_eq!(unbounded.pages, (SESSIONS * PAGES) as u64);
    assert_eq!(admitted.audio_pages, PAGES as u64);

    // The shed policy held: prefetches were shed, demand and audio were
    // never rejected outright while a prefetch victim remained.
    assert!(admitted.shed > 0, "{admitted:?}");
    assert_eq!(admitted.busy_rejections, 0, "{admitted:?}");
    assert_eq!(unbounded.shed, 0);

    // The queue really is bounded by the configured cap — and without
    // admission control it is not.
    assert!(admitted.queue_high_water <= ServiceConfig::DEFAULT_GLOBAL_CAP as u64, "{admitted:?}");
    assert!(unbounded.queue_high_water > ServiceConfig::DEFAULT_GLOBAL_CAP as u64, "{unbounded:?}");

    // The payoff: the audio-class tail stays below the unbounded
    // collapse, and demand goodput is higher because the device never
    // burns time on speculation the user will not wait for.
    assert!(
        admitted.audio_p99 < unbounded.audio_p99,
        "audio p99 {:?} (admitted) vs {:?} (unbounded)",
        admitted.audio_p99,
        unbounded.audio_p99
    );
    assert!(admitted.goodput_pages_per_sec() > unbounded.goodput_pages_per_sec());
}

#[test]
fn in_flight_window_replays_byte_identically_across_a_restart() {
    let build = || {
        let mut server = ObjectServer::new();
        let data: Vec<u8> = (0..PAGE_LEN * 4).map(|i| (i % 251) as u8).collect();
        let (record, _) = server.archiver_mut().store(ObjectId::new(1), &data).unwrap();
        (server, record.span.start)
    };
    let spans = |base: u64| -> Vec<ByteSpan> {
        (0..4u64).map(|i| ByteSpan::at(base + i * PAGE_LEN, PAGE_LEN)).collect()
    };

    let (server, base) = build();
    let mut baseline = Connection::new(server, Link::ethernet());
    let expect: Vec<ServerResponse> = spans(base)
        .into_iter()
        .map(|span| {
            let t = baseline.submit(ServerRequest::FetchSpan { span });
            baseline.wait(t).unwrap().0
        })
        .collect();

    let (server, base) = build();
    let mut conn = Connection::new(server, Link::ethernet());
    let tickets: Vec<_> = spans(base)
        .into_iter()
        .map(|span| conn.submit(ServerRequest::FetchSpan { span }))
        .collect();
    // The server dies and comes back with the whole window in flight.
    conn.endpoint_mut().restart();
    assert_eq!(conn.endpoint().epoch(), 1);
    let got: Vec<ServerResponse> = tickets.into_iter().map(|t| conn.wait(t).unwrap().0).collect();
    assert_eq!(got, expect, "the replayed window is byte-identical");
    let stats = conn.transport_stats();
    assert_eq!(stats.epoch_resyncs, 1, "one handshake per restart: {stats:?}");
    assert_eq!(stats.replays, 4, "every in-flight request replayed once: {stats:?}");
}

/// An [`ObjectStore`] over the server's durable archive — the store a
/// workstation would reach over the wire, reduced to its durability
/// semantics: a restart clears the server's queues, never its residents.
struct ArchiveStore {
    server: Rc<RefCell<ObjectServer>>,
}

impl ObjectStore for ArchiveStore {
    fn fetch(&mut self, id: ObjectId) -> Result<MultimediaObject> {
        self.server
            .borrow()
            .resident_object(id)
            .cloned()
            .ok_or_else(|| MinosError::UnknownObject(id.to_string()))
    }
}

fn published_server() -> Rc<RefCell<ObjectServer>> {
    let mut server = ObjectServer::new();
    let report = medical_report(ObjectId::new(1), 42);
    server.publish(report.clone(), &archived_form(&report)).unwrap();
    let dictation = audio_xray_report(ObjectId::new(2), 7);
    server.publish(dictation.clone(), &archived_form(&dictation)).unwrap();
    let (parent, overlays) =
        subway_map_object(ObjectId::new(3), ObjectId::new(4), ObjectId::new(5), 11);
    server.publish(parent.clone(), &archived_form(&parent)).unwrap();
    for o in overlays {
        let a = archived_form(&o);
        server.publish(o, &a).unwrap();
    }
    Rc::new(RefCell::new(server))
}

#[test]
fn checkpointed_session_resumes_byte_identically_after_restart() {
    let server = published_server();
    let store = || ArchiveStore { server: Rc::clone(&server) };
    let config = PaginateConfig::default();
    let page = SimDuration::from_secs(5);

    // Browse mid-way into a nested relevant object.
    let (mut session, _) = BrowsingSession::open(store(), ObjectId::new(3), config, page).unwrap();
    session.apply(BrowseCommand::SelectRelevant(1)).unwrap();
    session.apply(BrowseCommand::NextPage).unwrap();
    let record = session.checkpoint().encode();

    // The server restarts: its epoch bumps and its volatile queues drop,
    // but the archive — and with it the checkpoint's objects — survives.
    server.borrow_mut().restart();
    assert_eq!(server.borrow().epoch(), 1);
    assert_eq!(server.borrow().pending_frames(), 0);

    let decoded = SessionCheckpoint::decode(&record).unwrap();
    let mut resumed = BrowsingSession::resume(store(), &decoded, config, page).unwrap();
    assert_eq!(resumed.depth(), session.depth());
    assert_eq!(resumed.object().id, session.object().id);
    assert_eq!(resumed.visual_position(), session.visual_position());
    assert_eq!(resumed.menu(), session.menu());

    // No duplicated side effects: the resumed session replays nothing —
    // from here on both sessions emit identical event streams.
    for cmd in [
        BrowseCommand::NextPage,
        BrowseCommand::PreviousPage,
        BrowseCommand::ReturnFromRelevant,
        BrowseCommand::SelectRelevant(0),
    ] {
        let expect = session.apply(cmd.clone()).unwrap();
        let got = resumed.apply(cmd).unwrap();
        assert_eq!(got, expect, "post-resume streams diverged");
    }
}

#[test]
fn audio_checkpoint_survives_a_restart_mid_playback() {
    let server = published_server();
    let store = || ArchiveStore { server: Rc::clone(&server) };
    let config = PaginateConfig::default();
    let page = SimDuration::from_secs(5);

    let (mut session, _) = BrowsingSession::open(store(), ObjectId::new(2), config, page).unwrap();
    session.tick(SimDuration::from_secs(7));
    let record = session.checkpoint().encode();

    server.borrow_mut().restart();

    let decoded = SessionCheckpoint::decode(&record).unwrap();
    let mut resumed = BrowsingSession::resume(store(), &decoded, config, page).unwrap();
    let original = session.audio().unwrap();
    let restored = resumed.audio().unwrap();
    assert_eq!(restored.position(), original.position(), "voice position restored");
    assert_eq!(restored.state(), original.state(), "playback keeps playing");
    // Playback continues in lockstep — the listener never notices.
    let expect = session.tick(SimDuration::from_secs(4));
    assert_eq!(resumed.tick(SimDuration::from_secs(4)), expect);
}

/// One restart-under-corruption run on a single-server connection: 30 %
/// of frames corrupted, the server restarted every 37 requests, window 8.
/// Returns the simulated elapsed time, replays, retries and requests that
/// exhausted their retries.
fn faulty_restarts() -> (u64, u64, u64, u64) {
    const REQUESTS: u64 = 192;
    let mut server = ObjectServer::new();
    let data: Vec<u8> = (0..PAGE_LEN * REQUESTS).map(page_byte).collect();
    let (record, _) = server.archiver_mut().store(ObjectId::new(1), &data).unwrap();
    let mut conn =
        Connection::with_faults(server, Link::ethernet(), 8, FaultPlan::corrupting(7, 0.3));
    let mut open = std::collections::VecDeque::new();
    let mut failed = 0;
    for page in 0..REQUESTS {
        if page > 0 && page % 37 == 0 {
            conn.endpoint_mut().restart();
        }
        if open.len() == 8 {
            let (ticket, page) = open.pop_front().unwrap();
            failed += u64::from(!collect_span(&mut conn, ticket, page));
        }
        let span = ByteSpan::at(record.span.start + page * PAGE_LEN, PAGE_LEN);
        open.push_back((conn.submit(ServerRequest::FetchSpan { span }), page));
    }
    for (ticket, page) in open {
        failed += u64::from(!collect_span(&mut conn, ticket, page));
    }
    let stats = conn.transport_stats();
    (conn.elapsed().as_micros(), stats.replays, stats.retries, failed)
}

fn page_byte(offset: u64) -> u8 {
    (offset % 251) as u8
}

/// Waits for one page. A delivered page must be byte-identical; a request
/// whose retries ran out comes back as an inline error and returns false.
fn collect_span(conn: &mut Connection<ObjectServer>, ticket: Ticket, page: u64) -> bool {
    match conn.wait(ticket).unwrap().0 {
        ServerResponse::Span(bytes) => {
            let from = page * PAGE_LEN;
            let want: Vec<u8> = (from..from + PAGE_LEN).map(page_byte).collect();
            assert_eq!(bytes, want, "page {page}");
            true
        }
        ServerResponse::Error(_) => false,
        other => panic!("page {page} came back {other:?}"),
    }
}

#[test]
fn faulty_link_restart_replays_repeat_identically_within_one_process() {
    // Each run's connection draws fresh `RandomState`s for its maps; the
    // replay after each restart must follow request-id order regardless.
    let first = faulty_restarts();
    assert!(first.1 > 0, "the restarts must orphan in-flight requests: {first:?}");
    for run in 1..8 {
        assert_eq!(faulty_restarts(), first, "run {run} diverged from run 0");
    }
}
