//! Property test: arbitrary command sequences never break a session.
//!
//! Whatever the user mashes on the menu — in either driving mode, across
//! relevant-object boundaries — the session must never panic, must keep its
//! stack depth ≥ 1, and must keep every reported position inside the
//! browsed medium. And running several such sessions concurrently through
//! the [`SessionScheduler`] must be invisible: each session's event
//! streams match what the same script produces standalone.

use minos::corpus;
use minos::corpus::objects::archived_form;
use minos::net::{Link, LinkStats};
use minos::object::{Anchor, RelevantLink};
use minos::presentation::{BrowseCommand, BrowseEvent, BrowsingSession, SessionScheduler};
use minos::server::ObjectServer;
use minos::text::{LogicalLevel, PaginateConfig};
use minos::types::{ObjectId, PageNumber, SimDuration, SimInstant};
use minos::voice::PauseKind;
use proptest::prelude::*;
use std::collections::HashMap;

type Store = HashMap<ObjectId, minos::object::MultimediaObject>;

/// The fuzz corpus published to an object server, for scheduler-backed
/// sessions over the same objects as [`store`].
fn corpus_server() -> ObjectServer {
    let mut server = ObjectServer::new();
    // Publish in id order: the map iterates in hash order, which varies
    // per run, and publication order shapes the archive layout (and so
    // device timings). The golden streams compare two separately built
    // servers, so the layout must be deterministic.
    let mut objects: Vec<_> = store().into_values().collect();
    objects.sort_by_key(|o| o.id);
    for obj in objects {
        let archived = archived_form(&obj);
        server.publish(obj, &archived).unwrap();
    }
    server
}

fn store() -> Store {
    let mut map = Store::new();
    let report = corpus::medical_report(ObjectId::new(1), 42);
    map.insert(report.id, report);
    let dictation = corpus::audio_xray_report(ObjectId::new(2), 7);
    map.insert(dictation.id, dictation);
    let (parent, overlays) =
        corpus::subway_map_object(ObjectId::new(3), ObjectId::new(4), ObjectId::new(5), 11);
    map.insert(parent.id, parent);
    for o in overlays {
        map.insert(o.id, o);
    }
    map
}

/// One of every command, parameterized by small fuzzed values.
fn command(choice: u8, n: u8) -> BrowseCommand {
    match choice % 12 {
        0 => BrowseCommand::NextPage,
        1 => BrowseCommand::PreviousPage,
        2 => BrowseCommand::AdvancePages(n as i64 - 8),
        3 => BrowseCommand::GotoPage(PageNumber::new(n as u32 + 1).unwrap()),
        4 => BrowseCommand::NextUnit(LogicalLevel::ALL[n as usize % 5]),
        5 => BrowseCommand::PreviousUnit(LogicalLevel::ALL[n as usize % 5]),
        6 => BrowseCommand::FindPattern(["shadow", "the", "zzz", ""][n as usize % 4].into()),
        7 => BrowseCommand::Interrupt,
        8 => BrowseCommand::Resume,
        9 => BrowseCommand::RewindPauses(
            if n.is_multiple_of(2) { PauseKind::Short } else { PauseKind::Long },
            (n % 5) as usize,
        ),
        10 => BrowseCommand::SelectRelevant((n % 3) as usize),
        _ => BrowseCommand::ReturnFromRelevant,
    }
}

/// Deterministic LCG driving the golden-stream scripts. Not proptest:
/// the seeds are pinned, so every run replays the exact same script and
/// its event stream can be compared against the recorded golden values.
fn lcg_next(state: &mut u64) -> u64 {
    *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    *state >> 33
}

/// Replays `seed`'s script against a scheduler with `sessions` sessions
/// cycling over objects 1–3 (object 2 is the audio-driven dictation) on
/// the paper's Ethernet; see [`scripted_stream`].
fn golden_stream(
    seed: u64,
    sessions: usize,
) -> (Vec<Option<Vec<BrowseEvent>>>, LinkStats, SimDuration) {
    let objects: Vec<u64> = (0..sessions as u64).map(|i| i % 3 + 1).collect();
    scripted_stream(seed, Link::ethernet(), &objects, 5_000)
}

/// Replays `seed`'s script against a scheduler over `link` with one
/// session per entry of `objects`, ticking up to `max_tick_ms` between
/// commands, and returns everything observable: every apply result,
/// every drained tick event stream, the shared-link accounting, and the
/// elapsed sim time.
fn scripted_stream(
    seed: u64,
    link: Link,
    objects: &[u64],
    max_tick_ms: u64,
) -> (Vec<Option<Vec<BrowseEvent>>>, LinkStats, SimDuration) {
    let config = PaginateConfig::default();
    let page = SimDuration::from_secs(5);
    let mut sched = SessionScheduler::new(corpus_server(), link);
    let mut stream = Vec::new();
    let mut keys = Vec::new();
    for &object in objects {
        let (key, open) = sched.open(ObjectId::new(object), config, page).unwrap();
        stream.push(Some(open));
        keys.push(key);
    }
    let mut state = seed;
    for _ in 0..24 {
        let choice = lcg_next(&mut state) as u8;
        let n = lcg_next(&mut state) as u8;
        let ms = lcg_next(&mut state) % max_tick_ms;
        let target = lcg_next(&mut state) as usize % keys.len();
        stream.push(sched.apply(keys[target], command(choice, n)).ok());
        sched.tick(SimDuration::from_millis(ms));
    }
    for &key in &keys {
        stream.push(Some(sched.drain_events(key).unwrap()));
    }
    (stream, sched.link_stats(), sched.elapsed())
}

/// Golden values per seed, recorded from the pre-kernel full-rotation
/// scan (and matched by the event-driven tick when it was recorded):
/// `(seed, CRC-32 of the stream's Debug rendering, stream entries, link
/// messages, link bytes, link busy µs, elapsed µs)`.
const GOLDEN_STREAMS: [(u64, u32, usize, u64, u64, u64, u64); 10] = [
    (1, 0x022922a1, 30, 10, 873_862, 719_096, 61_136_870),
    (2, 0x9fd2b8c2, 32, 14, 993_444, 822_764, 61_927_196),
    (3, 0x2f844657, 34, 14, 1_511_087, 1_236_879, 67_570_156),
    (5, 0x42ab2d2a, 38, 22, 1_788_406, 1_474_739, 61_214_762),
    (8, 0xe16b0438, 44, 32, 2_662_268, 2_193_835, 86_445_328),
    (13, 0x9b7566fe, 54, 50, 4_369_310, 3_595_480, 85_047_134),
    (21, 0x7362a9a4, 40, 24, 2_384_949, 1_955_975, 69_794_722),
    (34, 0xa8b647d8, 36, 20, 1_747_724, 1_438_192, 71_301_436),
    (55, 0xe7f134dd, 48, 40, 3_495_448, 2_876_384, 83_759_568),
    (89, 0x98713335, 56, 52, 4_409_992, 3_632_027, 80_251_460),
];

#[test]
fn kernel_scheduler_matches_legacy_rotation_golden_streams() {
    // The equivalence pin for the event-driven tick: across ten pinned
    // seeds and fleet sizes up to 16, the scheduler must reproduce the
    // full-rotation scan's session event streams, shared-link accounting
    // and simulated time exactly.
    for (seed, digest, entries, messages, bytes, busy_us, elapsed_us) in GOLDEN_STREAMS {
        let sessions = 2 + (seed as usize % 15); // 2..=16
        let (stream, link, elapsed) = golden_stream(seed, sessions);
        assert_eq!(stream.len(), entries, "stream length at seed {seed}");
        assert_eq!(
            minos::net::crc32(format!("{stream:?}").as_bytes()),
            digest,
            "event streams diverged at seed {seed} with {sessions} sessions"
        );
        assert_eq!(
            (link.messages, link.bytes, link.busy.as_micros()),
            (messages, bytes, busy_us),
            "link accounting diverged at seed {seed}"
        );
        assert_eq!(elapsed.as_micros(), elapsed_us, "sim time diverged at seed {seed}");
    }
}

/// The fuzz corpus plus three dictations (ids 6–8) that each carry a
/// relevant link from their x-ray to a subway-map overlay: audio-driven
/// sessions that prefetch, so they contend with text sessions for the
/// server and the shared link.
fn contended_server() -> ObjectServer {
    let mut server = corpus_server();
    for (id, target) in [(6u64, 4u64), (7, 5), (8, 4)] {
        let mut obj = corpus::audio_xray_report(ObjectId::new(id), id);
        obj.relevant.push(RelevantLink {
            label: format!("overlay {target}"),
            target: ObjectId::new(target),
            anchor: Anchor::Image { image: 0 },
            relevances: vec![],
        });
        let archived = archived_form(&obj);
        server.publish(obj, &archived).unwrap();
    }
    server
}

/// A script where several audio sessions contend for one slow link. Each
/// round every session enters its first relevant object (a demand fetch)
/// and returns from it, which re-announces the target as a prefetch; those
/// prefetches all wait for the same tick, whose wake order decides which
/// lands first. The next round's demand fetches then wait for their
/// prefetch's delivery, so each session's total wait records the service
/// order. Returns the event stream, the per-session waits, the link
/// accounting and the elapsed sim time.
fn contended_stream(seed: u64) -> (Vec<Vec<BrowseEvent>>, Vec<u64>, LinkStats, SimDuration) {
    let config = PaginateConfig::default();
    let page = SimDuration::from_secs(5);
    let link = Link::new(SimDuration::from_millis(2), 125_000);
    let mut sched = SessionScheduler::new(contended_server(), link);
    let mut stream = Vec::new();
    let mut keys = Vec::new();
    // Text sessions on the subway map sit between the audio sessions in
    // the rotation, so audio-first and rotation order disagree.
    for object in [3u64, 6, 3, 7, 8] {
        let (key, open) = sched.open(ObjectId::new(object), config, page).unwrap();
        stream.push(open);
        keys.push(key);
    }
    let mut state = seed;
    for _ in 0..6 {
        for &key in &keys {
            stream.push(sched.apply(key, BrowseCommand::SelectRelevant(0)).unwrap());
        }
        for &key in &keys {
            stream.push(sched.apply(key, BrowseCommand::ReturnFromRelevant).unwrap());
        }
        sched.tick(SimDuration::from_millis(1 + lcg_next(&mut state) % 40));
    }
    for &key in &keys {
        stream.push(sched.drain_events(key).unwrap());
    }
    let waits =
        keys.iter().map(|&k| sched.session(k).unwrap().store().waited().as_micros()).collect();
    (stream, waits, sched.link_stats(), sched.elapsed())
}

/// Golden values of [`contended_stream`] per seed: `(seed, CRC-32 of the
/// stream's and the waits' Debug rendering, stream entries, link
/// messages, link bytes, link busy µs, elapsed µs)`. Serving the woken
/// text connections before the audio ones instead changes every digest
/// and elapsed time.
const CONTENDED_STREAMS: [(u64, u32, usize, u64, u64, u64, u64); 3] = [
    (1, 0x6fd55d25, 70, 84, 4_888_622, 39_276_976, 43_849_066),
    (2, 0x608a364b, 70, 84, 4_888_622, 39_276_976, 43_833_066),
    (3, 0x5010c342, 70, 84, 4_888_622, 39_276_976, 43_817_066),
];

#[test]
fn contended_audio_sessions_are_served_first() {
    for (seed, digest, entries, messages, bytes, busy_us, elapsed_us) in CONTENDED_STREAMS {
        let (stream, waits, link, elapsed) = contended_stream(seed);
        assert_eq!(stream.len(), entries, "stream length at seed {seed}");
        assert_eq!(
            minos::net::crc32(format!("{stream:?} {waits:?}").as_bytes()),
            digest,
            "event streams or waits diverged at seed {seed}: waits {waits:?}"
        );
        assert_eq!(
            (link.messages, link.bytes, link.busy.as_micros()),
            (messages, bytes, busy_us),
            "link accounting diverged at seed {seed}"
        );
        assert_eq!(elapsed.as_micros(), elapsed_us, "sim time diverged at seed {seed}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_scripts_never_corrupt_a_session(
        start in 1u64..=3,
        script in proptest::collection::vec((any::<u8>(), any::<u8>()), 0..40),
        ticks in proptest::collection::vec(0u64..10_000, 0..10),
    ) {
        let (mut session, _) = BrowsingSession::open(
            store(),
            ObjectId::new(start),
            PaginateConfig::default(),
            SimDuration::from_secs(5),
        )
        .unwrap();
        let mut tick_iter = ticks.into_iter();
        for (choice, n) in script {
            // Commands may fail (unavailable operation, no indicator) but
            // must never panic or corrupt state.
            let _ = session.apply(command(choice, n));
            if let Some(ms) = tick_iter.next() {
                session.tick(SimDuration::from_millis(ms));
            }
            prop_assert!(session.depth() >= 1);
            let object = session.object();
            if let Some(pos) = session.visual_position() {
                let len = object.text_segments.first().map(|d| d.len()).unwrap_or(0);
                prop_assert!(pos <= len, "text position {pos} beyond {len}");
            }
            if let Some(audio) = session.audio() {
                let total = object.voice_segments[0].duration();
                prop_assert!(
                    audio.position() <= SimInstant::EPOCH + total,
                    "voice position beyond the part"
                );
            }
            // The menu is always derivable.
            prop_assert!(!session.menu().is_empty());
        }
    }

    #[test]
    fn concurrent_sessions_match_their_standalone_baselines(
        starts in proptest::collection::vec(1u64..=3, 2..5),
        script in proptest::collection::vec((any::<u8>(), any::<u8>(), 0u64..5_000), 0..24),
    ) {
        let config = PaginateConfig::default();
        let page = SimDuration::from_secs(5);

        // One standalone baseline per session, each with a private store.
        let mut baselines = Vec::new();
        let mut sched = SessionScheduler::new(corpus_server(), Link::ethernet());
        let mut keys = Vec::new();
        for &start in &starts {
            let (session, base_open) =
                BrowsingSession::open(store(), ObjectId::new(start), config, page).unwrap();
            let (key, open) = sched.open(ObjectId::new(start), config, page).unwrap();
            prop_assert_eq!(&open, &base_open, "open events diverge for object {}", start);
            baselines.push(session);
            keys.push(key);
        }

        // Each fuzzed command is applied to every session in turn — the
        // scheduler interleaves their transfers on the shared link — then
        // both sides dwell for the same fuzzed tick.
        for (choice, n, ms) in script {
            let cmd = command(choice, n);
            for (i, &key) in keys.iter().enumerate() {
                let expect = baselines[i].apply(cmd.clone()).ok();
                let got = sched.apply(key, cmd.clone()).ok();
                prop_assert_eq!(got, expect, "session {i}: {cmd:?} diverged");
            }
            let dt = SimDuration::from_millis(ms);
            let expected_ticks: Vec<Vec<BrowseEvent>> =
                baselines.iter_mut().map(|s| s.tick(dt)).collect();
            sched.tick(dt);
            for (i, &key) in keys.iter().enumerate() {
                let got = sched.drain_events(key).unwrap();
                prop_assert_eq!(&got, &expected_ticks[i], "session {i}: tick events diverged");
            }
        }
    }
}
