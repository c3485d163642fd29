//! A sharded fleet of object servers with replica failover.
//!
//! The paper's architecture puts "the multimedia object server subsystems"
//! — plural — behind the presentation manager: a workstation talks to
//! *several* dedicated servers over the shared broadcast link (§2, §5).
//! This module grows the single [`ObjectServer`] of the earlier
//! experiments into that fleet:
//!
//! * **Placement** is deterministic rendezvous (highest-random-weight)
//!   hashing: every member scores each object id, and the object's replica
//!   set is the top `k` scorers. No directory, no rebalancing chatter —
//!   any client derives the same placement from the id alone.
//! * **Replication** stores each object on `k` members; a request picks a
//!   replica by request id, spreading one object's pages across its
//!   replica set.
//! * **Failover** rides the epoch handshake from the restart protocol: a
//!   member restart bumps its epoch, the fleet transport re-handshakes
//!   `Hello`/`Welcome`, and every in-flight request aimed at the dead
//!   incarnation is replayed — verbatim, from the pooled bytes encoded at
//!   submit time — onto the *next* replica in the object's rendezvous
//!   ring instead of back onto the member that just lost it.
//!
//! [`FleetConnection`] is the client: one shared uplink/downlink (the
//! paper's broadcast bus), one device timeline per member, and the same
//! window/deadline/retry discipline as the single-endpoint
//! [`Connection`](crate::remote). A server that answers
//! [`ServerResponse::Busy`] gets honored, not hammered: the turned-away
//! request parks on a kernel timer until the server's own `retry_after`
//! hint elapses, then resubmits — to a sibling replica when one exists.
//!
//! [`simulate_fleet_workload`] is the E16 harness: M sessions demand-page
//! against N members through the shared link, wake-list-driven via
//! [`KernelEvent::ServerWake`], with an optional mid-run member restart to
//! pin that replicated pages survive a crash byte-identical.
//!
//! On top of the reactive failover sits the self-healing layer:
//!
//! * **Health monitoring** — [`HealthMonitor`] runs kernel-timer-driven
//!   `Ping`/`Pong` heartbeats with a per-member `Up → Suspect → Down`
//!   state machine, plus a `Slow` gray-failure state derived from each
//!   member's own rolling latency baseline. The `Pong { epoch }` echo
//!   also closes the idle-connection gap: a restart is noticed at the
//!   next heartbeat, not at the next submit.
//! * **Proactive re-replication** — a member declared `Down` feeds the
//!   [`RepairQueue`]; each lost replica is rebuilt from a surviving,
//!   checksum-verified copy onto its ring successor
//!   ([`Fleet::repair_replica`]), restoring the replication factor
//!   *before* a second fault can lose pages.
//! * **Scrub and read-repair** — every publish stores per-page CRCs
//!   ([`PageChecksums`]); [`Fleet::scrub_member`] walks a member's
//!   archive verifying them, and [`Fleet::heal_copy`] re-homes a corrupt
//!   copy from a verified sibling (a fresh WORM append — optical media
//!   cannot be patched in place).

use crate::kernel::{Kernel, KernelEvent, TimerId};
use crate::prefetch::page_spans;
use crate::remote::{Landed, PendingFrame, TransportStats};
use minos_net::{
    crc32, BufferPool, FaultPlan, FaultyLink, Frame, FramePayload, InflightWindow, Link, Priority,
    ServerRequest, ServerResponse,
};
use minos_server::{ObjectServer, ServiceConfig, ServiceStats};
use minos_types::{ByteSpan, MinosError, ObjectId, Result, SimClock, SimDuration, SimInstant};
use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};

/// The fleet transport multiplexes every request over one logical
/// connection id — members tell requests apart by request id, which the
/// transport keeps globally unique.
const FLEET_CONN: u64 = 1;

/// Default in-flight window of a [`FleetConnection`].
const DEFAULT_WINDOW: usize = 32;

/// Default per-request deadline (see [`Connection`](crate::remote): the
/// sim serves every surviving frame by the time a caller waits on it, so
/// the deadline only fires on genuine loss).
const DEFAULT_TIMEOUT: SimDuration = SimDuration::from_millis(500);

/// Default retransmission budget before a request expires inline.
const DEFAULT_MAX_RETRIES: u32 = 4;

/// Ceiling on the exponential backoff between retransmits.
const BACKOFF_CAP: SimDuration = SimDuration::from_secs(4);

/// `splitmix64` finalizer: the standard 64-bit avalanche mix. Rendezvous
/// hashing only needs that distinct `(object, member)` pairs score
/// independently, which this provides without any table state.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The rendezvous score of `member` for `object`: a deterministic,
/// uniformly-mixed weight. Highest weight wins the primary slot.
fn rendezvous_weight(object: ObjectId, member: usize) -> u64 {
    mix64(object.raw() ^ mix64(member as u64 + 1))
}

/// Ranks all `members` for `object` by descending rendezvous weight.
/// Every client computes the identical ranking from the id alone; the
/// first `k` entries are the object's replica set, and failover walks the
/// ring in this order.
pub fn rendezvous_order(object: ObjectId, members: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..members).collect();
    order.sort_by_key(|&m| std::cmp::Reverse((rendezvous_weight(object, m), m)));
    order
}

/// One stored copy of an object: which member holds it and where on that
/// member's device its bytes landed (each member's archiver lays objects
/// out independently, so the span differs per replica).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Replica {
    /// Fleet index of the member holding the copy.
    pub member: usize,
    /// Absolute byte span of the copy on that member's device.
    pub span: ByteSpan,
}

/// Where an object lives: its replica set in rendezvous order (primary
/// first). Derived at publish time; the repair path replaces a lost or
/// corrupt entry in place when it rebuilds a copy elsewhere.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Placement {
    replicas: Vec<Replica>,
}

impl Placement {
    /// The replica set in rendezvous order, primary first.
    pub fn replicas(&self) -> &[Replica] {
        &self.replicas
    }

    /// The rendezvous winner — the member a non-spreading client would
    /// always ask.
    pub fn primary(&self) -> Replica {
        self.replicas[0]
    }

    /// The replica a given request uses: requests rotate through the
    /// replica set by id, spreading one object's pages across its copies.
    pub fn replica_for(&self, request_id: u64) -> Replica {
        self.replicas[(request_id % self.replicas.len() as u64) as usize]
    }

    /// The next replica on the ring after `member` — the failover target
    /// when `member` restarts or times out. With a single replica this is
    /// the same member: there is nowhere else to go, so the request is
    /// replayed in place.
    pub fn next_after(&self, member: usize) -> Replica {
        let at = self.replicas.iter().position(|r| r.member == member).unwrap_or(0);
        self.replicas[(at + 1) % self.replicas.len()]
    }

    /// Replaces the replica held by `member` with `with` — the repair
    /// path's placement update after re-replication (the copy moved to a
    /// ring successor) or a WORM heal (the copy stayed home but its span
    /// moved to the fresh append).
    fn replace_replica(&mut self, member: usize, with: Replica) {
        if let Some(slot) = self.replicas.iter_mut().find(|r| r.member == member) {
            *slot = with;
        }
    }
}

/// Per-page CRC32 checksums of an object, computed at publish time — the
/// ground truth scrub and read-repair verify stored copies against.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PageChecksums {
    /// Page granularity the object was published at.
    pub page_len: u64,
    /// CRC32 of each page in order (the final page may be short).
    pub crcs: Vec<u32>,
}

/// What one replica repair moved: where the clean bytes came from, where
/// the rebuilt copy landed, and what the devices charged — the caller
/// merges these into its own device timelines.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RepairReceipt {
    /// The object whose copy was rebuilt.
    pub object: ObjectId,
    /// Member the verified source bytes were read from.
    pub source: usize,
    /// Member the rebuilt copy was appended onto.
    pub target: usize,
    /// Bytes rebuilt.
    pub bytes: u64,
    /// Device time the source read cost.
    pub read_time: SimDuration,
    /// Device time the target append cost.
    pub write_time: SimDuration,
}

/// What one scrub pass over a member's archive found.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Objects whose copy on the member was walked.
    pub objects: u64,
    /// Pages checksum-verified.
    pub pages: u64,
    /// `(object, page)` pairs whose stored bytes failed their checksum.
    pub corrupt: Vec<(ObjectId, usize)>,
    /// Device time the verification reads cost.
    pub device_time: SimDuration,
}

/// A fleet of [`ObjectServer`] members with rendezvous placement and
/// `k`-way replication.
pub struct Fleet {
    members: Vec<ObjectServer>,
    replication: usize,
    placements: HashMap<ObjectId, Placement>,
    /// Publish-time page checksums, keyed by object — what scrub and
    /// read-repair verify stored copies against.
    checksums: HashMap<ObjectId, PageChecksums>,
}

impl Fleet {
    /// Builds a fleet of `members` fresh servers replicating each object
    /// onto `replication` of them. Fails typed when the shape is
    /// impossible (zero members, or more replicas than members).
    pub fn new(members: usize, replication: usize) -> Result<Self> {
        if members == 0 {
            return Err(MinosError::Internal("a fleet needs at least one member".into()));
        }
        if replication == 0 || replication > members {
            return Err(MinosError::Internal(format!(
                "replication {replication} impossible with {members} members"
            )));
        }
        Ok(Fleet {
            members: (0..members).map(|_| ObjectServer::new()).collect(),
            replication,
            placements: HashMap::new(),
            checksums: HashMap::new(),
        })
    }

    /// Member count.
    pub fn member_count(&self) -> usize {
        self.members.len()
    }

    /// Copies stored per object.
    pub fn replication(&self) -> usize {
        self.replication
    }

    /// Stores `bytes` as `object` on its `k` rendezvous members and
    /// records the placement. Publishing the same id again overwrites the
    /// placement (each member's archiver appends a fresh record). The
    /// checksum granularity is the whole object; page-granular workloads
    /// publish through [`Fleet::publish_paged`] instead.
    pub fn publish_bytes(&mut self, object: ObjectId, bytes: &[u8]) -> Result<Placement> {
        self.publish_paged(object, bytes, (bytes.len() as u64).max(1))
    }

    /// Stores `bytes` as `object` on its `k` rendezvous members, records
    /// the placement, and remembers a CRC32 per `page_len`-sized page —
    /// the ground truth the scrub and read-repair paths verify against.
    pub fn publish_paged(
        &mut self,
        object: ObjectId,
        bytes: &[u8],
        page_len: u64,
    ) -> Result<Placement> {
        if page_len == 0 {
            return Err(MinosError::Internal("publish page length must be positive".into()));
        }
        // The replica list is sized exactly at the replication factor.
        let mut replicas = Vec::with_capacity(self.replication);
        for member in
            rendezvous_order(object, self.members.len()).into_iter().take(self.replication)
        {
            let (record, _) = self.members[member].archiver_mut().store(object, bytes)?;
            replicas.push(Replica { member, span: record.span });
        }
        let crcs = bytes.chunks(page_len as usize).map(crc32).collect();
        self.checksums.insert(object, PageChecksums { page_len, crcs });
        let placement = Placement { replicas };
        self.placements.insert(object, placement.clone());
        Ok(placement)
    }

    /// The publish-time page checksums of `object`, if it has been
    /// published.
    pub fn checksums(&self, object: ObjectId) -> Option<&PageChecksums> {
        self.checksums.get(&object)
    }

    /// Verifies `member`'s stored copy of `object` page by page against
    /// the publish-time checksums. Returns the indices of corrupt pages
    /// (empty when the copy is clean) and the device time the
    /// verification reads cost.
    pub fn verify_copy(
        &mut self,
        object: ObjectId,
        member: usize,
    ) -> Result<(Vec<usize>, SimDuration)> {
        let Some(replica) = self
            .placements
            .get(&object)
            .and_then(|p| p.replicas.iter().find(|r| r.member == member))
            .copied()
        else {
            return Err(MinosError::UnknownObject(format!("{object} on member {member}")));
        };
        let Some((page_len, pages)) =
            self.checksums.get(&object).map(|s| (s.page_len, s.crcs.len()))
        else {
            return Err(MinosError::UnknownObject(format!("{object} has no checksums")));
        };
        // Worst case every page is corrupt: the list's capacity is the
        // page count, never more.
        let mut corrupt = Vec::with_capacity(pages);
        let mut device_time = SimDuration::ZERO;
        for page in 0..pages {
            let start = replica.span.start + page as u64 * page_len;
            let len = replica.span.end.saturating_sub(start).min(page_len);
            let (bytes, took) =
                self.members[member].archiver_mut().read_at(ByteSpan::at(start, len))?;
            device_time += took;
            let want = self.checksums.get(&object).and_then(|s| s.crcs.get(page)).copied();
            if want != Some(crc32(&bytes)) {
                corrupt.push(page);
            }
        }
        Ok((corrupt, device_time))
    }

    /// Every object with a replica on `member`, in id order — what a
    /// failure detector owes the repair queue when that member dies.
    pub fn objects_on(&self, member: usize) -> Vec<ObjectId> {
        let mut ids: Vec<ObjectId> = self
            .placements
            .iter()
            .filter(|(_, p)| p.replicas.iter().any(|r| r.member == member))
            .map(|(&id, _)| id)
            .collect();
        ids.sort_unstable();
        ids
    }

    /// The first member on `object`'s rendezvous ring that holds no
    /// replica and is not in `exclude` — where proactive re-replication
    /// puts a rebuilt copy after its holder dies. `None` when every
    /// member already holds a copy or is excluded.
    pub fn ring_successor(&self, object: ObjectId, exclude: &[usize]) -> Option<usize> {
        let placement = self.placements.get(&object)?;
        rendezvous_order(object, self.members.len())
            .into_iter()
            .find(|m| !exclude.contains(m) && !placement.replicas.iter().any(|r| r.member == *m))
    }

    /// Rebuilds `object`'s replica lost with member `lost` from the copy
    /// on `source`, appending it onto `target`'s archive (a fresh WORM
    /// version) and swapping the placement entry. `lost == target`
    /// re-homes a corrupt copy on its own member — the read-repair heal.
    /// The source bytes are checksum-verified first: repairing from a
    /// rotten sibling would multiply the corruption, so that fails typed
    /// and the caller tries the next sibling.
    pub fn repair_replica(
        &mut self,
        object: ObjectId,
        lost: usize,
        source: usize,
        target: usize,
    ) -> Result<RepairReceipt> {
        let Some(placement) = self.placements.get(&object) else {
            return Err(MinosError::UnknownObject(object.to_string()));
        };
        let Some(src) = placement.replicas.iter().find(|r| r.member == source).copied() else {
            return Err(MinosError::Internal(format!(
                "{object} has no source replica on member {source}"
            )));
        };
        if target != lost && placement.replicas.iter().any(|r| r.member == target) {
            return Err(MinosError::Internal(format!(
                "{object} already has a replica on member {target}"
            )));
        }
        if target >= self.members.len() {
            return Err(MinosError::Internal(format!(
                "repair target {target} outside fleet of {}",
                self.members.len()
            )));
        }
        let (bytes, read_time) = self.members[source].archiver_mut().read_at(src.span)?;
        if let Some(sums) = self.checksums.get(&object) {
            for (page, chunk) in bytes.chunks(sums.page_len as usize).enumerate() {
                if sums.crcs.get(page).copied() != Some(crc32(chunk)) {
                    return Err(MinosError::Corrupt(format!(
                        "{object} source copy on member {source} fails checksum at page {page}"
                    )));
                }
            }
        }
        let (record, write_time) = self.members[target].archiver_mut().store(object, &bytes)?;
        if let Some(placement) = self.placements.get_mut(&object) {
            placement.replace_replica(lost, Replica { member: target, span: record.span });
        }
        Ok(RepairReceipt {
            object,
            source,
            target,
            bytes: bytes.len() as u64,
            read_time,
            write_time,
        })
    }

    /// Walks every object with a replica on `member`, verifying each page
    /// against its publish-time checksum — the background scrub pass.
    /// Objects are visited in id order so equal-seeded runs scrub equal
    /// sequences. Healing what it finds is the caller's move
    /// ([`Fleet::heal_copy`]).
    pub fn scrub_member(&mut self, member: usize) -> Result<ScrubReport> {
        let ids = self.objects_on(member);
        let mut report = ScrubReport::default();
        for id in ids {
            let (corrupt, took) = self.verify_copy(id, member)?;
            report.objects += 1;
            report.pages += self.checksums.get(&id).map_or(0, |s| s.crcs.len() as u64);
            report.device_time += took;
            report.corrupt.extend(corrupt.into_iter().map(|page| (id, page)));
        }
        Ok(report)
    }

    /// Heals `member`'s corrupt copy of `object` from the first sibling
    /// whose own copy verifies: the clean bytes are re-appended on
    /// `member` (WORM media cannot be patched in place) and the placement
    /// follows the fresh span.
    pub fn heal_copy(&mut self, object: ObjectId, member: usize) -> Result<RepairReceipt> {
        let Some(placement) = self.placements.get(&object) else {
            return Err(MinosError::UnknownObject(object.to_string()));
        };
        let siblings: Vec<usize> =
            placement.replicas.iter().map(|r| r.member).filter(|&m| m != member).collect();
        for source in siblings {
            match self.repair_replica(object, member, source, member) {
                Ok(receipt) => return Ok(receipt),
                Err(MinosError::Corrupt(_)) => continue,
                Err(other) => return Err(other),
            }
        }
        Err(MinosError::Corrupt(format!(
            "{object} has no verifiable sibling to heal member {member} from"
        )))
    }

    /// Where `object` lives, if it has been published.
    pub fn placement(&self, object: ObjectId) -> Option<&Placement> {
        self.placements.get(&object)
    }

    /// Shared access to one member.
    pub fn member(&self, index: usize) -> Option<&ObjectServer> {
        self.members.get(index)
    }

    /// Mutable access to one member.
    pub fn member_mut(&mut self, index: usize) -> Option<&mut ObjectServer> {
        self.members.get_mut(index)
    }

    /// The restart epoch of one member (0 for an out-of-range index).
    pub fn epoch(&self, index: usize) -> u64 {
        self.members.get(index).map_or(0, |m| m.epoch())
    }

    /// Restarts one member: its epoch bumps, its volatile service queues
    /// are cleared, and the connections that lost frames are woken (the
    /// archived bytes on its device survive). Fails typed on an
    /// out-of-range index.
    pub fn restart_member(&mut self, index: usize) -> Result<()> {
        match self.members.get_mut(index) {
            Some(member) => {
                member.restart();
                Ok(())
            }
            None => Err(MinosError::Internal(format!(
                "restart of member {index} outside fleet of {}",
                self.members.len()
            ))),
        }
    }

    /// Applies one admission-control policy across every member.
    pub fn set_service_config(&mut self, config: ServiceConfig) {
        for member in &mut self.members {
            member.set_service_config(config);
        }
    }

    /// Prewarms every member's payload pool (see
    /// [`ObjectServer::prewarm_payloads`]).
    pub fn prewarm_payloads(&mut self, buffers: usize, capacity: usize) {
        for member in &mut self.members {
            member.prewarm_payloads(buffers, capacity);
        }
    }

    /// Fleet-wide service accounting: every member's counters merged into
    /// one [`ServiceStats`] (sums for the monotone counters, maxima for
    /// the high-water marks).
    pub fn service_stats(&self) -> ServiceStats {
        let mut merged = ServiceStats::default();
        for member in &self.members {
            merged.merge(member.service_stats());
        }
        merged
    }

    /// Clears every member's service accounting.
    pub fn reset_stats(&mut self) {
        for member in &mut self.members {
            member.reset_service_stats();
        }
    }
}

/// Consecutive heartbeat misses before a member is suspected.
const SUSPECT_AFTER: u32 = 1;
/// Consecutive heartbeat misses before a member is declared down.
const DOWN_AFTER: u32 = 2;
/// A heartbeat this many times the member's own rolling baseline marks
/// gray failure ([`MemberHealth::Slow`]).
const SLOW_MULT: u64 = 4;
/// Heartbeat samples before the latency baseline is trusted for `Slow`
/// detection — early samples seed the EWMA instead.
const BASELINE_WARMUP: u32 = 3;
/// Consecutive healthy heartbeats before a `Slow` member recovers to
/// `Up` (a `Suspect`/`Down` member recovers on the first pong: the echo
/// is positive proof of life).
const RECOVER_AFTER: u32 = 2;

/// Health of one fleet member as the failure detector sees it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum MemberHealth {
    /// Answering heartbeats at its usual latency.
    #[default]
    Up,
    /// Missed one heartbeat: possibly a dropped frame, possibly worse.
    Suspect,
    /// Missed enough consecutive heartbeats to be declared dead — traffic
    /// reroutes and proactive re-replication starts.
    Down,
    /// Still answering, but far above its own latency baseline: the gray
    /// failure that audio-class hedged reads route around.
    Slow,
}

/// Heartbeat accounting, cleared wholesale by
/// [`HealthMonitor::reset_stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HealthStats {
    /// Heartbeat pings sent.
    pub pings: u64,
    /// Pong echoes received.
    pub pongs: u64,
    /// Heartbeats that went unanswered.
    pub misses: u64,
    /// Transitions into [`MemberHealth::Down`].
    pub down_transitions: u64,
    /// Transitions into [`MemberHealth::Slow`].
    pub slow_transitions: u64,
    /// Recoveries back to [`MemberHealth::Up`].
    pub recoveries: u64,
    /// Pong echoes whose restart epoch disagreed with the connection's
    /// view — each one triggers an immediate resync.
    pub epoch_mismatches: u64,
}

/// The per-member failure detector fed by `Ping`/`Pong` heartbeats.
///
/// Misses walk a member `Up → Suspect → Down`; a pong is positive proof
/// of life and recovers it immediately. Each member also carries a
/// rolling latency baseline (EWMA of its own healthy echoes): an echo
/// [`SLOW_MULT`]× above a warmed baseline marks the member
/// [`MemberHealth::Slow`] without poisoning the baseline, and
/// [`RECOVER_AFTER`] consecutive healthy echoes clear it.
#[derive(Clone, Debug)]
pub struct HealthMonitor {
    state: Vec<MemberHealth>,
    misses: Vec<u32>,
    healthy: Vec<u32>,
    baseline_us: Vec<u64>,
    samples: Vec<u32>,
    stats: HealthStats,
}

impl HealthMonitor {
    /// A monitor over `members` members, all initially `Up`.
    pub fn new(members: usize) -> Self {
        HealthMonitor {
            state: vec![MemberHealth::Up; members],
            misses: vec![0; members],
            healthy: vec![0; members],
            baseline_us: vec![0; members],
            samples: vec![0; members],
            stats: HealthStats::default(),
        }
    }

    /// The detector's current view of `member` (`Up` out of range).
    pub fn state(&self, member: usize) -> MemberHealth {
        self.state.get(member).copied().unwrap_or_default()
    }

    /// Whether the detector has declared `member` dead.
    pub fn is_down(&self, member: usize) -> bool {
        self.state(member) == MemberHealth::Down
    }

    /// The member's rolling latency baseline (zero until warmed).
    pub fn baseline(&self, member: usize) -> SimDuration {
        let us = self.baseline_us.get(member).copied().unwrap_or(0);
        if self.samples.get(member).copied().unwrap_or(0) < BASELINE_WARMUP {
            return SimDuration::ZERO;
        }
        SimDuration::from_micros(us)
    }

    /// Records one ping sent to `member`.
    pub fn note_ping(&mut self, member: usize) {
        if member < self.state.len() {
            self.stats.pings += 1;
        }
    }

    /// A pong arrived `latency` after its ping: clears the miss streak,
    /// recovers a suspected/down member, and classifies gray failure
    /// against the member's own baseline. Returns the state after the
    /// sample.
    pub fn note_pong(&mut self, member: usize, latency: SimDuration) -> MemberHealth {
        if member >= self.state.len() {
            return MemberHealth::Up;
        }
        self.stats.pongs += 1;
        self.misses[member] = 0;
        let us = latency.as_micros().max(1);
        let warmed = self.samples[member] >= BASELINE_WARMUP;
        if warmed && us > self.baseline_us[member].saturating_mul(SLOW_MULT) {
            // A gray sample does not poison the baseline: the detector
            // keeps comparing against the member's healthy self.
            if self.state[member] != MemberHealth::Slow {
                self.stats.slow_transitions += 1;
            }
            self.state[member] = MemberHealth::Slow;
            self.healthy[member] = 0;
            return MemberHealth::Slow;
        }
        self.samples[member] += 1;
        self.baseline_us[member] = if self.baseline_us[member] == 0 {
            us
        } else {
            (self.baseline_us[member] * 7 + us) / 8
        };
        match self.state[member] {
            MemberHealth::Up => {}
            MemberHealth::Suspect | MemberHealth::Down => {
                self.state[member] = MemberHealth::Up;
                self.healthy[member] = 0;
                self.stats.recoveries += 1;
            }
            MemberHealth::Slow => {
                self.healthy[member] += 1;
                if self.healthy[member] >= RECOVER_AFTER {
                    self.state[member] = MemberHealth::Up;
                    self.healthy[member] = 0;
                    self.stats.recoveries += 1;
                }
            }
        }
        self.state[member]
    }

    /// A heartbeat went unanswered: one miss suspects the member, enough
    /// consecutive misses declare it down. Returns the state after the
    /// miss.
    pub fn note_miss(&mut self, member: usize) -> MemberHealth {
        if member >= self.state.len() {
            return MemberHealth::Up;
        }
        self.stats.misses += 1;
        self.misses[member] += 1;
        self.healthy[member] = 0;
        if self.misses[member] >= DOWN_AFTER {
            if self.state[member] != MemberHealth::Down {
                self.stats.down_transitions += 1;
            }
            self.state[member] = MemberHealth::Down;
        } else if self.misses[member] >= SUSPECT_AFTER && self.state[member] != MemberHealth::Down {
            self.state[member] = MemberHealth::Suspect;
        }
        self.state[member]
    }

    /// Records a pong whose restart epoch disagreed with the sender's
    /// view.
    pub fn note_epoch_mismatch(&mut self) {
        self.stats.epoch_mismatches += 1;
    }

    /// Heartbeat accounting so far.
    pub fn stats(&self) -> HealthStats {
        self.stats
    }

    /// Clears the accounting (detector state survives — a reset must not
    /// forget who is down).
    pub fn reset_stats(&mut self) {
        self.stats = HealthStats::default();
    }
}

/// One queued re-replication task: rebuild `object`'s copy that was lost
/// with member `lost`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RepairTask {
    /// The object owed a copy.
    pub object: ObjectId,
    /// The member whose copy was lost.
    pub lost: usize,
}

/// Re-replication accounting, cleared wholesale by
/// [`RepairQueue::reset_stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RepairStats {
    /// Tasks admitted into the queue.
    pub admitted: u64,
    /// Tasks rejected as duplicates of an already-admitted loss.
    pub deduped: u64,
    /// Repairs that completed and restored a copy.
    pub completed: u64,
    /// Repairs that failed (no verifiable source or no free target).
    pub failed: u64,
    /// Bytes rebuilt by completed repairs.
    pub bytes_rebuilt: u64,
}

/// The background repair queue the failure detector feeds.
///
/// The queue is bounded by dedup admission: each `(object, member)` loss
/// is admitted at most once, so however often the detector re-reports a
/// down member the queue can never outgrow the placement table. Draining
/// it is the orchestrator's job, one task per `RepairDue` kernel timer —
/// that serial spacing is the throttle that keeps repair traffic from
/// starving foreground audio.
#[derive(Debug, Default)]
pub struct RepairQueue {
    queue: VecDeque<RepairTask>,
    admitted: HashSet<(ObjectId, usize)>,
    stats: RepairStats,
}

impl RepairQueue {
    /// An empty queue.
    pub fn new() -> Self {
        RepairQueue::default()
    }

    /// Admits one repair task unless the same loss was already admitted —
    /// the dedup set is the queue's capacity bound.
    pub fn admit(&mut self, task: RepairTask) -> bool {
        if !self.admitted.insert((task.object, task.lost)) {
            self.stats.deduped += 1;
            return false;
        }
        self.stats.admitted += 1;
        self.queue.push_back(task);
        true
    }

    /// Takes the oldest pending task.
    pub fn pop(&mut self) -> Option<RepairTask> {
        self.queue.pop_front()
    }

    /// Pending (admitted, not yet popped) tasks.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether no tasks are pending.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Records one finished repair and the bytes it rebuilt.
    pub fn note_completed(&mut self, bytes: u64) {
        self.stats.completed += 1;
        self.stats.bytes_rebuilt += bytes;
    }

    /// Records one repair that could not be completed.
    pub fn note_failed(&mut self) {
        self.stats.failed += 1;
    }

    /// Repair accounting so far.
    pub fn stats(&self) -> RepairStats {
        self.stats
    }

    /// Clears the accounting (the dedup set survives: a loss already
    /// repaired or in flight must not be re-admitted by a stats reset).
    pub fn reset_stats(&mut self) {
        self.stats = RepairStats::default();
    }
}

/// A handle to a submitted, not-yet-collected request on a
/// [`FleetConnection`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct FleetTicket(u64);

/// Retransmission and failover state for one in-flight request. Unlike
/// the single-endpoint connection, the fleet transport keeps this even on
/// a clean link: failover needs the object identity and the encoded
/// bytes to re-aim a request at a sibling replica.
struct FleetOutstanding {
    /// The object the request reads from — the key back into the
    /// placement table when the target must change.
    object: ObjectId,
    /// The requested span relative to the object's first byte; the
    /// absolute device span is recomputed per replica.
    rel: ByteSpan,
    /// Fleet index of the member currently targeted.
    target: usize,
    /// The frame encoded once at submit into a pooled buffer; every
    /// retransmit resends it verbatim, and a failover re-encodes into the
    /// same buffer (the replica's device span differs).
    frame_bytes: Vec<u8>,
    deadline: SimInstant,
    attempt: u32,
    timer: TimerId,
    /// Whether the request is parked on a `Busy { retry_after }` hint:
    /// `deadline` is then the earliest instant it may go back on the
    /// wire, and reaching it costs neither a timeout nor a retry.
    deferred: bool,
}

/// Busy-honoring accounting of a [`FleetConnection`], cleared wholesale
/// by [`FleetConnection::reset_accounting`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FleetStats {
    /// Requests turned away with [`ServerResponse::Busy`] and parked on a
    /// kernel timer until the server's `retry_after` hint elapsed.
    pub busy_deferred: u64,
    /// Deferred resubmissions that left before their hint elapsed.
    /// Always zero — the retry timer gates the uplink — and pinned so.
    pub premature_busy_retries: u64,
}

/// A pipelined client of a [`Fleet`]: one shared uplink and downlink (the
/// paper's broadcast bus), one device timeline per member, and per-request
/// deadline/retry/failover state.
///
/// The request path mirrors the single-endpoint
/// [`Connection`](crate::remote::Connection) — admit into the in-flight
/// window, encode once into a pooled buffer, transmit, dispatch, land —
/// with two fleet-specific moves layered on:
///
/// * a member restart (epoch bump) replays that member's in-flight
///   requests onto the next replica in each object's rendezvous ring;
/// * a [`ServerResponse::Busy`] reply parks the request on a kernel timer
///   for the server's own `retry_after` hint and rotates it to a sibling,
///   instead of re-offering load to the gate that just shed it.
pub struct FleetConnection {
    fleet: Fleet,
    /// Per-member epoch last handshaken; a mismatch triggers resync.
    member_epochs: Vec<u64>,
    link: FaultyLink,
    clock: SimClock,
    next_request_id: u64,
    window: InflightWindow,
    /// Per-member queues of request frames in transit to that member.
    pending: Vec<VecDeque<PendingFrame>>,
    /// Arrival instant of each frame handed to a member's service queue.
    arrival_at: HashMap<u64, SimInstant>,
    landed: HashMap<u64, Landed>,
    outstanding: HashMap<u64, FleetOutstanding>,
    collected: HashSet<u64>,
    pool: BufferPool,
    kernel: Kernel,
    transport: TransportStats,
    stats: FleetStats,
    timeout: SimDuration,
    max_retries: u32,
    up_free: SimInstant,
    /// One device timeline per member: the shared wire feeds N devices.
    dev_free: Vec<SimInstant>,
    down_free: SimInstant,
    /// Heartbeat interval once [`FleetConnection::enable_heartbeat`] has
    /// armed the health monitor; `None` keeps heartbeats off.
    heartbeat: Option<SimDuration>,
    /// Per-member failure detector fed by the heartbeats.
    health: HealthMonitor,
    /// Nonce of the next heartbeat ping.
    next_nonce: u64,
}

impl FleetConnection {
    /// Opens a connection to `fleet` over `link` with the default
    /// in-flight window and a clean fault plan.
    pub fn new(fleet: Fleet, link: Link) -> Self {
        FleetConnection::with_faults(fleet, link, DEFAULT_WINDOW, FaultPlan::none())
    }

    /// Opens a connection with an explicit in-flight window capacity.
    pub fn with_window(fleet: Fleet, link: Link, window: usize) -> Self {
        FleetConnection::with_faults(fleet, link, window, FaultPlan::none())
    }

    /// Opens a connection whose shared link misbehaves according to
    /// `plan`: every frame crosses the fault layer and the recovery
    /// machinery (deadlines, retransmission, duplicate suppression,
    /// failover) engages.
    pub fn with_faults(fleet: Fleet, link: Link, window: usize, plan: FaultPlan) -> Self {
        let member_epochs: Vec<u64> = fleet.members.iter().map(|m| m.epoch()).collect();
        let members = fleet.members.len();
        FleetConnection {
            fleet,
            member_epochs,
            link: FaultyLink::new(link, plan),
            clock: SimClock::new(),
            next_request_id: 1,
            window: InflightWindow::new(window),
            pending: (0..members).map(|_| VecDeque::new()).collect(),
            arrival_at: HashMap::new(),
            landed: HashMap::new(),
            outstanding: HashMap::new(),
            collected: HashSet::new(),
            pool: BufferPool::new(),
            kernel: Kernel::new(),
            transport: TransportStats::default(),
            stats: FleetStats::default(),
            timeout: DEFAULT_TIMEOUT,
            max_retries: DEFAULT_MAX_RETRIES,
            up_free: SimInstant::EPOCH,
            dev_free: vec![SimInstant::EPOCH; members],
            down_free: SimInstant::EPOCH,
            heartbeat: None,
            health: HealthMonitor::new(members),
            next_nonce: 1,
        }
    }

    /// Overrides the recovery policy: per-request deadline and retransmit
    /// budget before a request expires with an inline error.
    pub fn with_recovery(mut self, timeout: SimDuration, max_retries: u32) -> Self {
        self.timeout = timeout.max(SimDuration::from_micros(1));
        self.max_retries = max_retries;
        self
    }

    /// Total simulated time spent so far.
    pub fn elapsed(&self) -> SimDuration {
        self.clock.now().since(SimInstant::EPOCH)
    }

    /// Payload bytes moved over the shared link so far.
    pub fn bytes_transferred(&self) -> u64 {
        self.link.stats().bytes
    }

    /// Shared-link transfer statistics.
    pub fn link_stats(&self) -> minos_net::LinkStats {
        self.link.stats()
    }

    /// What the fault layer did to the fleet's frames.
    pub fn fault_stats(&self) -> minos_net::FaultStats {
        self.link.fault_stats()
    }

    /// Recovery accounting — timeouts, retries, replays, epoch resyncs,
    /// failovers — plus the transmit-pool counters.
    pub fn transport_stats(&self) -> TransportStats {
        let pool = self.pool.stats();
        TransportStats {
            pool_hits: pool.hits,
            pool_misses: pool.misses,
            payload_allocs: self.transport.payload_allocs + pool.misses,
            ..self.transport
        }
    }

    /// Busy-honoring accounting (deferred resubmissions and the
    /// always-zero premature count).
    pub fn fleet_stats(&self) -> FleetStats {
        self.stats
    }

    /// The timer-wheel counters of the recovery machinery.
    pub fn kernel_stats(&self) -> crate::kernel::KernelStats {
        self.kernel.stats()
    }

    /// Requests submitted and not yet collected.
    pub fn in_flight(&self) -> usize {
        self.window.len()
    }

    /// The in-flight window capacity.
    pub fn window_capacity(&self) -> usize {
        self.window.capacity()
    }

    /// The fleet behind the connection.
    pub fn fleet(&self) -> &Fleet {
        &self.fleet
    }

    /// Mutable access to the fleet (restarts, config changes).
    pub fn fleet_mut(&mut self) -> &mut Fleet {
        &mut self.fleet
    }

    /// Hands a consumed payload buffer back to the transmit pool.
    pub fn recycle_payload(&mut self, buf: Vec<u8>) {
        self.pool.recycle(buf);
    }

    /// Starts the deterministic health monitor: every `interval`, each
    /// member is pinged on a kernel timer and the `Pong { epoch }` echo
    /// feeds the per-member latency baseline. The echo also closes the
    /// idle-connection gap: a mismatched restart epoch triggers the
    /// resync (handshake + replay) at the heartbeat, so an idle
    /// connection notices a member restart without waiting for its next
    /// submit.
    pub fn enable_heartbeat(&mut self, interval: SimDuration) {
        let interval = interval.max(SimDuration::from_micros(1));
        self.heartbeat = Some(interval);
        for m in 0..self.fleet.members.len() {
            self.kernel
                .arm(self.clock.now() + interval, KernelEvent::HealthTick { member: m as u64 });
        }
    }

    /// The failure detector fed by the heartbeats.
    pub fn health(&self) -> &HealthMonitor {
        &self.health
    }

    /// Sends one heartbeat to member `m` at the current instant. The ping
    /// and its echo are charged on the shared wire (the server answers
    /// `Ping` from memory, no device time); the echo's round trip feeds
    /// the member's baseline, and a stale epoch in the echo triggers the
    /// resync machinery immediately. Re-arms the member's next tick.
    fn heartbeat_member(&mut self, m: usize) {
        if m >= self.fleet.members.len() {
            self.kernel.note_spurious();
            return;
        }
        let nonce = self.next_nonce;
        self.next_nonce += 1;
        self.health.note_ping(m);
        let ping = ServerRequest::Ping { nonce };
        let sent = self.clock.now();
        let up = self.link.charge(Frame::request(FLEET_CONN, 0, ping).wire_size());
        let arrival = sent.max(self.up_free) + up;
        self.up_free = arrival;
        let (answer, _) = self.fleet.members[m].handle(&ServerRequest::Ping { nonce });
        let echo_epoch = match &answer {
            ServerResponse::Pong { epoch, .. } => Some(*epoch),
            _ => None,
        };
        let down = self.link.charge(Frame::response(FLEET_CONN, 0, answer).wire_size());
        let delivered = arrival.max(self.down_free) + down;
        self.down_free = delivered;
        self.health.note_pong(m, delivered.saturating_since(sent));
        if let Some(epoch) = echo_epoch {
            if epoch != self.member_epochs[m] {
                // The restart is noticed by the heartbeat, not by the
                // next submit: resync (handshake + replay) right here.
                self.health.note_epoch_mismatch();
                self.resync_epochs();
            }
        }
        if let Some(interval) = self.heartbeat {
            self.kernel.arm(
                self.clock.now().max(delivered) + interval,
                KernelEvent::HealthTick { member: m as u64 },
            );
        }
    }

    /// Resets the accounting *and* the pipeline state (between experiment
    /// configurations). A ticket from before the reset is gone — waiting
    /// on it is a protocol error.
    pub fn reset_accounting(&mut self) {
        self.link.reset();
        self.clock = SimClock::new();
        self.up_free = SimInstant::EPOCH;
        self.down_free = SimInstant::EPOCH;
        for free in &mut self.dev_free {
            *free = SimInstant::EPOCH;
        }
        for queue in &mut self.pending {
            queue.clear();
        }
        self.arrival_at.clear();
        self.landed.clear();
        self.outstanding.clear();
        self.collected.clear();
        self.pool.reset_stats();
        // The clock restarts at the epoch, so every armed deadline is
        // stale: replace the kernel wholesale, counters included.
        self.kernel = Kernel::new();
        self.transport = TransportStats::default();
        self.stats = FleetStats::default();
        self.window = InflightWindow::new(self.window.capacity());
        self.fleet.reset_stats();
        // A reset adopts each member's current epoch: there is no window
        // left to re-aim, so a restart before the reset costs nothing
        // after it.
        for (m, last) in self.member_epochs.iter_mut().enumerate() {
            *last = self.fleet.members[m].epoch();
        }
        // The detector restarts clean, and — since the wholesale kernel
        // swap dropped the armed ticks — an enabled heartbeat re-arms
        // from the fresh epoch.
        self.health = HealthMonitor::new(self.fleet.members.len());
        self.next_nonce = 1;
        if let Some(interval) = self.heartbeat {
            for m in 0..self.fleet.members.len() {
                self.kernel
                    .arm(self.clock.now() + interval, KernelEvent::HealthTick { member: m as u64 });
            }
        }
    }

    /// Submits a demand fetch of `rel` — a span relative to `object`'s
    /// first byte — and returns a ticket for collecting the page later.
    /// The replica is chosen by request id, spreading an object's pages
    /// across its copies; the frame is encoded once into a pooled buffer
    /// so retransmits and failovers resend without re-encoding from a
    /// typed request.
    pub fn fetch_page(&mut self, object: ObjectId, rel: ByteSpan) -> Result<FleetTicket> {
        let Some(placement) = self.fleet.placements.get(&object) else {
            return Err(MinosError::UnknownObject(object.to_string()));
        };
        if rel.end > placement.primary().span.len() {
            return Err(MinosError::Protocol(format!(
                "page {rel} outside {object} of {} bytes",
                placement.primary().span.len()
            )));
        }
        let request_id = self.admit_slot();
        // Re-borrow after the admit loop: it mutates the transport state.
        let Some(placement) = self.fleet.placements.get(&object) else {
            return Err(MinosError::UnknownObject(object.to_string()));
        };
        let replica = placement.replica_for(request_id);
        let span = ByteSpan::at(replica.span.start + rel.start, rel.len());
        let deadline = self.clock.now() + self.timeout;
        let mut frame_bytes = self.pool.lease_vec();
        Frame::encode_request_into(
            FLEET_CONN,
            request_id,
            Priority::Demand,
            &ServerRequest::FetchSpan { span },
            &mut frame_bytes,
        );
        let timer = self.kernel.arm(deadline, KernelEvent::RetryDue { request_id, attempt: 0 });
        self.outstanding.insert(
            request_id,
            FleetOutstanding {
                object,
                rel,
                target: replica.member,
                frame_bytes,
                deadline,
                attempt: 0,
                timer,
                deferred: false,
            },
        );
        self.transmit_request(request_id);
        self.window.open(request_id);
        Ok(FleetTicket(request_id))
    }

    /// Collects the response for `ticket`, advancing the clock to its
    /// arrival and returning how long the caller actually waited. A lost
    /// response is retransmitted after its deadline (with capped
    /// exponential backoff, failing over to a sibling replica each
    /// round); a `Busy` turn-away resubmits only after the server's own
    /// hint elapses. A request that exhausts its retries comes back as an
    /// inline [`ServerResponse::Error`].
    pub fn wait(&mut self, ticket: FleetTicket) -> Result<(ServerResponse, SimDuration)> {
        let started = self.clock.now();
        loop {
            self.resync_epochs();
            self.dispatch();
            if let Some(landed) = self.landed.remove(&ticket.0) {
                self.clock.advance_to_at_least(landed.ready_at);
                let waited = self.clock.now().saturating_since(started);
                self.window.close(ticket.0);
                if let Some(out) = self.outstanding.remove(&ticket.0) {
                    self.kernel.cancel(out.timer);
                    self.pool.recycle(out.frame_bytes);
                }
                self.collected.insert(ticket.0);
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

    /// Drives the fleet to `at` without collecting anything: every
    /// retransmit deadline and `Busy` retry timer due in the interval
    /// fires at its exact instant.
    pub fn advance_to(&mut self, at: SimInstant) {
        self.dispatch();
        // Step deadline-to-deadline so backoffs chain from the deadline
        // itself; intermediate cascade ticks drain empty and the loop
        // steps on. Heartbeat ticks fire in here too, so with the monitor
        // enabled a member restart is detected at its first heartbeat —
        // which is why the resync runs *after* the timer drain, as a
        // safety net for heartbeat-less connections, not before it.
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
        self.resync_epochs();
        self.dispatch();
        self.settle();
    }

    /// Admits the next submission into the flow-control window: resyncs
    /// member epochs, settles arrived responses, and waits out (or forces
    /// progress on) a full window before allocating the request id.
    fn admit_slot(&mut self) -> u64 {
        self.resync_epochs();
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
            // Window full with nothing landed and nothing arriving: force
            // the oldest slot through its deadline machinery rather than
            // overrunning the flow-control bound.
            let Some(oldest) = self.window.oldest() else { break };
            self.force_progress(oldest);
            self.settle();
        }
        let request_id = self.next_request_id;
        self.next_request_id += 1;
        request_id
    }

    /// Puts an outstanding request's stored frame bytes on the wire to
    /// its current target member. Every transmission — first send,
    /// timeout retransmit, epoch replay, deferred resubmit — resends the
    /// bytes encoded at submit (or re-encoded at failover) verbatim.
    fn transmit_request(&mut self, request_id: u64) {
        let Some(out) = self.outstanding.get(&request_id) else {
            return;
        };
        // The flow-control window is the admission bound: a request only
        // reaches the wire through an admitted slot, so the in-transit
        // queues can never outgrow it (duplicates aside, which the fault
        // layer caps per transmit).
        debug_assert!(
            self.outstanding.len() <= self.window.capacity(),
            "in-flight requests exceed the admitted window"
        );
        let target = out.target;
        let (up, deliveries) = self.link.transmit(&out.frame_bytes);
        let arrival = self.clock.now().max(self.up_free) + up;
        self.up_free = arrival;
        for delivery in deliveries {
            match Frame::decode(&delivery.bytes) {
                Ok(delivered) if delivered.as_request().is_some() => {
                    self.pending[target].push_back(PendingFrame {
                        frame: delivered,
                        arrival: arrival + delivery.delay,
                    });
                }
                Ok(_) => {}
                Err(_) => self.transport.corrupt_frames += 1,
            }
        }
    }

    /// Re-aims an outstanding request at the next replica on its object's
    /// rendezvous ring, re-encoding the stored frame for the sibling's
    /// device layout. A single-replica object stays put — there is
    /// nowhere else to go — and costs nothing.
    fn fail_over_target(&mut self, request_id: u64) {
        let Some(out) = self.outstanding.get_mut(&request_id) else {
            return;
        };
        let Some(placement) = self.fleet.placements.get(&out.object) else {
            return;
        };
        let replica = placement.next_after(out.target);
        if replica.member == out.target {
            return;
        }
        self.transport.failovers += 1;
        out.target = replica.member;
        let span = ByteSpan::at(replica.span.start + out.rel.start, out.rel.len());
        out.frame_bytes.clear();
        Frame::encode_request_into(
            FLEET_CONN,
            request_id,
            Priority::Demand,
            &ServerRequest::FetchSpan { span },
            &mut out.frame_bytes,
        );
    }

    /// Detects member restarts (epoch bumps) and recovers each: a
    /// `Hello`/`Welcome` handshake round trip is charged on the shared
    /// wire and the member's device, then every in-flight request aimed
    /// at the dead incarnation is replayed onto the next replica of its
    /// object — idempotently, skipping ids whose responses already landed
    /// or were collected, and leaving `Busy`-deferred requests to their
    /// own timers.
    fn resync_epochs(&mut self) {
        for m in 0..self.fleet.members.len() {
            if self.fleet.members[m].epoch() == self.member_epochs[m] {
                continue;
            }
            self.transport.epoch_resyncs += 1;
            let hello = Frame::request(
                FLEET_CONN,
                0,
                ServerRequest::Hello { epoch: self.member_epochs[m] },
            );
            let up = self.link.charge(hello.wire_size());
            let hello_arrival = self.clock.now().max(self.up_free) + up;
            self.up_free = hello_arrival;
            let (answer, took) = self.fleet.members[m]
                .handle(&ServerRequest::Hello { epoch: self.member_epochs[m] });
            let done = hello_arrival.max(self.dev_free[m]) + took;
            self.dev_free[m] = done;
            let welcome = Frame::response(FLEET_CONN, 0, answer);
            let down = self.link.charge(welcome.wire_size());
            let delivered = done.max(self.down_free) + down;
            self.down_free = delivered;
            self.clock.advance_to_at_least(delivered);
            self.member_epochs[m] = match welcome.payload {
                FramePayload::Response(ServerResponse::Welcome { epoch }) => epoch,
                _ => self.fleet.members[m].epoch(),
            };
            // Frames still in transit to the member and frames that died
            // in its volatile queue are both gone; the member's wake list
            // names the orphaned connection, and the transport answers by
            // replaying each loss onto a sibling.
            self.pending[m].clear();
            let _ = self.fleet.members[m].take_woken();
            // Sorted so the replay order never depends on hash iteration
            // order, which differs between processes.
            let mut lost: Vec<u64> = self
                .outstanding
                .iter()
                .filter(|(rid, o)| {
                    o.target == m
                        && !o.deferred
                        && !self.landed.contains_key(rid)
                        && !self.collected.contains(rid)
                })
                .map(|(&rid, _)| rid)
                .collect();
            lost.sort_unstable();
            for rid in lost {
                self.transport.replays += 1;
                self.fail_over_target(rid);
                self.transmit_request(rid);
            }
        }
    }

    /// Moves pending frames into each member's service queue and pumps
    /// every member: served (or rejected) responses cross the member's
    /// device timeline and the shared downlink, landing timestamped.
    fn dispatch(&mut self) {
        for m in 0..self.fleet.members.len() {
            while let Some(p) = self.pending[m].pop_front() {
                let rid = p.frame.request_id;
                self.arrival_at.insert(rid, p.arrival);
                // The member's admission control is the gate: a frame it
                // turns away comes back as a Busy reply through the same
                // ready queue.
                if self.fleet.members[m].enqueue(p.frame).is_err() {
                    self.arrival_at.remove(&rid);
                }
            }
            while let Some((frame, charge)) = self.fleet.members[m].poll_conn(FLEET_CONN) {
                let rid = frame.request_id;
                let arrival = self.arrival_at.remove(&rid).unwrap_or(self.up_free);
                let done = arrival.max(self.dev_free[m]) + charge;
                self.dev_free[m] = done;
                let FramePayload::Response(response) = frame.payload else {
                    continue;
                };
                self.land(rid, response, done);
            }
            // The wake list has been fully served for the fleet's single
            // logical connection; drain it so it never accumulates.
            let _ = self.fleet.members[m].take_woken();
        }
    }

    /// Charges the shared downlink for one response frame and lands it.
    /// On a faulty link the encoded frame crosses the fault layer:
    /// corrupt copies are counted and discarded (the deadline machinery
    /// retransmits), duplicates are suppressed by request id.
    fn land(&mut self, request_id: u64, response: ServerResponse, done: SimInstant) {
        if self.link.is_clean() {
            let frame = Frame::response(FLEET_CONN, request_id, response);
            let down = self.link.charge(frame.wire_size());
            let delivered = done.max(self.down_free) + down;
            self.down_free = delivered;
            let FramePayload::Response(response) = frame.payload else {
                return;
            };
            self.receive(request_id, response, delivered);
            return;
        }
        let frame = Frame::response(FLEET_CONN, request_id, response);
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
                    self.receive(rid, response, delivered + delivery.delay);
                }
                Err(_) => self.transport.corrupt_frames += 1,
            }
        }
        self.pool.recycle(bytes);
    }

    /// Accepts one response at its delivery instant: duplicates are
    /// suppressed, a `Busy` turn-away for a tracked request parks it on a
    /// retry timer honoring the server's hint (and rotates it to a
    /// sibling replica), and anything else lands for collection.
    fn receive(&mut self, request_id: u64, response: ServerResponse, at: SimInstant) {
        if self.collected.contains(&request_id) || self.landed.contains_key(&request_id) {
            self.transport.duplicates += 1;
            return;
        }
        if let ServerResponse::Busy { retry_after } = response {
            if let Some(out) = self.outstanding.get(&request_id) {
                if out.deferred {
                    // A duplicated Busy reply must not double-park.
                    self.transport.duplicates += 1;
                    return;
                }
                self.stats.busy_deferred += 1;
                let due = at + retry_after;
                self.kernel.cancel(out.timer);
                let attempt = out.attempt;
                let timer = self.kernel.arm(due, KernelEvent::RetryDue { request_id, attempt });
                // Resubmit somewhere less loaded when the object has a
                // sibling copy; with one replica the rotation is a no-op.
                self.fail_over_target(request_id);
                if let Some(out) = self.outstanding.get_mut(&request_id) {
                    out.deferred = true;
                    out.deadline = due;
                    out.timer = timer;
                }
                return;
            }
        }
        // The response is in hand: the retransmission state is done, its
        // deadline is void, and the encoded bytes go back to the pool.
        if let Some(out) = self.outstanding.remove(&request_id) {
            self.kernel.cancel(out.timer);
            self.pool.recycle(out.frame_bytes);
        }
        self.landed.insert(request_id, Landed { response, ready_at: at });
    }

    /// Fires every kernel event due at the current clock and handles the
    /// retry wakes and heartbeat ticks among them; re-advances each round
    /// because a handler can arm a deadline already behind kernel time.
    fn drain_retry_wakes(&mut self) {
        loop {
            self.kernel.advance_to(self.clock.now());
            let Some(event) = self.kernel.take_ready() else { break };
            match event {
                KernelEvent::RetryDue { request_id, attempt } => {
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
                KernelEvent::HealthTick { member } => self.heartbeat_member(member as usize),
                _ => self.kernel.note_spurious(),
            }
        }
    }

    /// Forces progress on a slot whose response has not landed.
    ///
    /// A `Busy`-deferred request waits out its hint, then resubmits to
    /// its (already rotated) target with a fresh deadline — costing
    /// neither a timeout nor a retry, and never leaving early (the
    /// premature counter is pinned zero). A genuinely lost request waits
    /// out its deadline and either retransmits — failing over to the next
    /// replica, with capped exponential backoff — or, budget exhausted,
    /// expires with an inline [`ServerResponse::Error`].
    fn force_progress(&mut self, request_id: u64) {
        let Some((deadline, attempt, timer, deferred)) =
            self.outstanding.get(&request_id).map(|o| (o.deadline, o.attempt, o.timer, o.deferred))
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
        if deferred {
            // The hint gates the uplink: the resubmission leaves at the
            // later of "now" and the due instant, never earlier.
            self.clock.advance_to_at_least(deadline);
            if self.clock.now() < deadline {
                self.stats.premature_busy_retries += 1;
            }
            self.kernel.cancel(timer);
            let next_deadline = self.clock.now() + self.timeout;
            let fresh =
                self.kernel.arm(next_deadline, KernelEvent::RetryDue { request_id, attempt });
            if let Some(out) = self.outstanding.get_mut(&request_id) {
                out.deferred = false;
                out.deadline = next_deadline;
                out.timer = fresh;
            }
            self.transmit_request(request_id);
            return;
        }
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
        let fresh = self
            .kernel
            .arm(next_deadline, KernelEvent::RetryDue { request_id, attempt: attempt + 1 });
        if let Some(out) = self.outstanding.get_mut(&request_id) {
            out.attempt = attempt + 1;
            out.deadline = next_deadline;
            out.timer = fresh;
        }
        // A timeout is evidence against the target, not just the wire:
        // the retransmit goes to the next replica on the ring.
        self.fail_over_target(request_id);
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
}

/// When the E16 harness restarts a fleet member mid-run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FleetRestart {
    /// Fleet index of the member to restart.
    pub member: usize,
    /// Demand pages that must have been delivered before the restart
    /// triggers (so the crash lands mid-stream, with requests in flight).
    pub after_pages: u64,
}

/// Configuration of one [`simulate_fleet_workload`] run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FleetWorkloadConfig {
    /// Fleet size.
    pub members: usize,
    /// Copies stored per object.
    pub replication: usize,
    /// Concurrent page-reader sessions.
    pub sessions: usize,
    /// Leading sessions (`min(audio_sessions, sessions)`) that submit at
    /// [`Priority::Audio`] and have their page latency tracked for the
    /// report's p99 column.
    pub audio_sessions: usize,
    /// Demand pages each session reads.
    pub pages_per_session: usize,
    /// Bytes per page.
    pub page_len: u64,
    /// Optional mid-run member restart.
    pub restart: Option<FleetRestart>,
    /// Admission-control policy applied to every member.
    pub service: ServiceConfig,
}

/// What one [`simulate_fleet_workload`] run measured — the E16 report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FleetReport {
    /// Wall-clock time until the last demand page was delivered.
    pub elapsed: SimDuration,
    /// Demand pages delivered byte-identical.
    pub pages: u64,
    /// Bytes moved over the shared link.
    pub bytes: u64,
    /// Requests re-aimed at a sibling replica (after a restart or a
    /// `Busy` rotation).
    pub failovers: u64,
    /// Member restarts survived via the `Hello`/`Welcome` handshake.
    pub epoch_resyncs: u64,
    /// Request frames replayed because a restart dropped them.
    pub replays: u64,
    /// Demand pages parked on a retry timer after a `Busy` turn-away.
    pub busy_deferred: u64,
    /// Deferred resubmissions that left before their hint elapsed —
    /// pinned zero.
    pub premature_busy_retries: u64,
    /// Prefetch-class frames the fleet's admission control shed.
    pub shed: u64,
    /// Demand frames rejected outright across the fleet.
    pub busy_rejections: u64,
    /// Pages served by each member, in fleet order — the placement-balance
    /// evidence.
    pub served_per_member: Vec<u64>,
    /// 99th-percentile submit-to-delivery latency of the audio-class
    /// pages (zero when the run had no audio sessions).
    pub audio_p99: SimDuration,
}

impl FleetReport {
    /// Aggregate demand goodput in verified pages per simulated second.
    pub fn goodput_pages_per_sec(&self) -> f64 {
        let micros = self.elapsed.as_micros();
        if micros == 0 {
            return 0.0;
        }
        self.pages as f64 * 1_000_000.0 / micros as f64
    }
}

/// Demand-page window each fleet session keeps in flight.
const FLEET_WINDOW: usize = 2;

/// The per-session byte pattern: session-distinct so a page served by the
/// wrong replica (or sliced at the wrong offset) can never verify.
fn fleet_pattern(session: usize, offset: u64) -> u8 {
    ((offset + session as u64 * 13) % 251) as u8
}

/// Runs the E16 workload: `sessions` concurrent readers demand-page
/// against a fleet of `members` servers over one shared Ethernet-class
/// link, each object placed by rendezvous hashing onto `replication`
/// members and its pages spread across that replica set in contiguous
/// blocks — each replica serves a sequential run of its copy, so the
/// spread buys balance without costing the optical head its locality.
///
/// The run is wake-list driven: every submitted frame arms a
/// [`KernelEvent::ServerWake`] at its arrival instant, and the service
/// pump visits exactly the members (and, via
/// [`ObjectServer::take_woken`], exactly the connections) with landed
/// work. A member restart mid-run bumps its epoch; the harness
/// re-handshakes, replays the dead incarnation's in-flight pages onto
/// sibling replicas, and the run still delivers every page
/// byte-identical. `Busy` turn-aways park on `RetryDue` timers for the
/// server's own hint — the E14 discipline, now per member.
pub fn simulate_fleet_workload(config: FleetWorkloadConfig) -> Result<FleetReport> {
    let FleetWorkloadConfig {
        members,
        replication,
        sessions,
        audio_sessions,
        pages_per_session,
        page_len,
        restart,
        service,
    } = config;
    let audio_sessions = audio_sessions.min(sessions);
    if sessions == 0 || pages_per_session == 0 || page_len == 0 {
        return Err(MinosError::Internal("workload needs sessions, pages, and bytes".into()));
    }
    if let Some(r) = restart {
        if r.member >= members {
            return Err(MinosError::Internal(format!(
                "restart member {} outside fleet of {members}",
                r.member
            )));
        }
    }
    let mut fleet = Fleet::new(members, replication)?;
    fleet.set_service_config(service);
    fleet.prewarm_payloads(BufferPool::DEFAULT_RETAIN_CAP, page_len as usize);
    // Per-session objects with session-distinct patterns; remember each
    // session's placement and per-replica page spans.
    let mut plans: Vec<(Placement, HashMap<usize, Vec<ByteSpan>>)> = Vec::with_capacity(sessions);
    for s in 0..sessions {
        let data: Vec<u8> =
            (0..pages_per_session as u64 * page_len).map(|i| fleet_pattern(s, i)).collect();
        let placement = fleet.publish_bytes(ObjectId::new(s as u64 + 1), &data)?;
        let mut spans: HashMap<usize, Vec<ByteSpan>> = HashMap::new();
        for replica in placement.replicas() {
            spans.insert(replica.member, page_spans(replica.span, pages_per_session));
        }
        plans.push((placement, spans));
    }
    let mut link = Link::ethernet();

    /// One submitted demand page: who asked, which page, which member
    /// currently owes the answer, and when it was first submitted (busy
    /// deferrals and replays keep the original instant — the audio p99
    /// measures what the listener felt, not the last attempt).
    struct InFlightPage {
        session: usize,
        page: usize,
        member: usize,
        issued: SimInstant,
    }
    let session_priority =
        |s: usize| if s < audio_sessions { Priority::Audio } else { Priority::Demand };
    let mut up_free = SimInstant::EPOCH;
    let mut down_free = SimInstant::EPOCH;
    let mut dev_free = vec![SimInstant::EPOCH; members];
    let mut kernel = Kernel::new();
    let mut arrivals: HashMap<u64, SimInstant> = HashMap::new();
    let mut inflight: HashMap<u64, InFlightPage> = HashMap::new();
    // Pages parked on a Busy hint, keyed by request id, valued with the
    // earliest instant the resubmission may leave.
    let mut deferred: HashMap<u64, SimInstant> = HashMap::new();
    // Per-member dirty sets: connections with frames enqueued since the
    // member's last pump.
    let mut dirty: Vec<BTreeSet<u64>> = (0..members).map(|_| BTreeSet::new()).collect();
    let mut epochs: Vec<u64> = (0..members).map(|m| fleet.epoch(m)).collect();
    let mut todo: Vec<VecDeque<usize>> =
        (0..sessions).map(|_| (0..pages_per_session).collect()).collect();
    let mut outstanding = vec![0usize; sessions];
    let mut next_rid = 1u64;
    let mut last_delivered = SimInstant::EPOCH;
    let mut delivered = 0u64;
    let mut failovers = 0u64;
    let mut epoch_resyncs = 0u64;
    let mut replays = 0u64;
    let mut busy_deferred = 0u64;
    let mut premature_busy_retries = 0u64;
    // One latency sample per audio page: bounded by the audio sessions'
    // share of the page budget.
    let mut audio_lat: Vec<SimDuration> = Vec::with_capacity(audio_sessions * pages_per_session);
    let mut restarted = false;
    let mut rounds = 0u32;
    while todo.iter().any(|q| !q.is_empty()) || outstanding.iter().any(|&o| o > 0) {
        rounds += 1;
        if rounds > 200_000 {
            return Err(MinosError::Internal("fleet workload failed to converge".into()));
        }
        // Submissions: each session tops its demand window back up, a
        // page's replica chosen by page block — replica i of k serves the
        // i-th contiguous run of the object's pages, keeping each optical
        // head sequential. The window is the admission bound: at most
        // FLEET_WINDOW pages per session are ever in flight.
        let mut submitted = false;
        for s in 0..sessions {
            while outstanding[s] < FLEET_WINDOW {
                let Some(page) = todo[s].pop_front() else {
                    break;
                };
                outstanding[s] += 1;
                submitted = true;
                let rid = next_rid;
                next_rid += 1;
                let replicas = plans[s].0.replicas();
                let replica = replicas[page * replicas.len() / pages_per_session];
                let span = plans[s].1[&replica.member][page];
                let frame = Frame::request_with_priority(
                    s as u64 + 1,
                    rid,
                    session_priority(s),
                    ServerRequest::FetchSpan { span },
                );
                let issued = up_free;
                let arrival = up_free + link.transfer(frame.wire_size());
                up_free = arrival;
                arrivals.insert(rid, arrival);
                inflight
                    .insert(rid, InFlightPage { session: s, page, member: replica.member, issued });
                fleet
                    .member_mut(replica.member)
                    .expect("replica indices are in range")
                    .enqueue(frame)?;
                dirty[replica.member].insert(s as u64 + 1);
                kernel.arm(arrival, KernelEvent::ServerWake { member: replica.member as u64 });
            }
        }
        // The mid-run crash: once enough pages have landed, one member
        // loses its volatile queues (its device contents survive). The
        // frames submitted above die with it and must be replayed.
        if let Some(r) = restart {
            if !restarted && delivered >= r.after_pages {
                fleet.restart_member(r.member)?;
                restarted = true;
            }
        }
        // Epoch resync: re-handshake each bumped member and replay its
        // lost in-flight pages onto sibling replicas (deferred pages keep
        // their timers — they were not in any queue).
        for m in 0..members {
            if fleet.epoch(m) == epochs[m] {
                continue;
            }
            epoch_resyncs += 1;
            let hello = Frame::request(0, 0, ServerRequest::Hello { epoch: epochs[m] });
            let up = link.transfer(hello.wire_size());
            let hello_arrival = up_free + up;
            up_free = hello_arrival;
            let (answer, took) = fleet
                .member_mut(m)
                .expect("resync indices are in range")
                .handle(&ServerRequest::Hello { epoch: epochs[m] });
            let done = hello_arrival.max(dev_free[m]) + took;
            dev_free[m] = done;
            let welcome = Frame::response(0, 0, answer);
            down_free = done.max(down_free) + link.transfer(welcome.wire_size());
            epochs[m] = match welcome.payload {
                FramePayload::Response(ServerResponse::Welcome { epoch }) => epoch,
                _ => fleet.epoch(m),
            };
            // Sorted, as in the client: replays follow request-id order.
            let mut lost: Vec<u64> = inflight
                .iter()
                .filter(|(rid, p)| p.member == m && !deferred.contains_key(rid))
                .map(|(&rid, _)| rid)
                .collect();
            lost.sort_unstable();
            for rid in lost {
                replays += 1;
                let p = inflight.get_mut(&rid).expect("rid collected from inflight");
                let next = plans[p.session].0.next_after(p.member);
                if next.member != p.member {
                    failovers += 1;
                }
                p.member = next.member;
                let span = plans[p.session].1[&next.member][p.page];
                let frame = Frame::request_with_priority(
                    p.session as u64 + 1,
                    rid,
                    session_priority(p.session),
                    ServerRequest::FetchSpan { span },
                );
                let arrival = up_free + link.transfer(frame.wire_size());
                up_free = arrival;
                arrivals.insert(rid, arrival);
                let conn = frame.conn_id;
                fleet
                    .member_mut(next.member)
                    .expect("replica indices are in range")
                    .enqueue(frame)?;
                dirty[next.member].insert(conn);
                kernel.arm(arrival, KernelEvent::ServerWake { member: next.member as u64 });
            }
        }
        // Serve: advance the kernel to the wire frontier and handle every
        // wake. A ServerWake pumps one member — first the connections the
        // harness marked dirty, then whatever the member's own wake list
        // names (Busy rejections, restart orphans) — and a RetryDue puts
        // a deferred page back on the wire, never before its hint.
        let mut progressed = false;
        loop {
            kernel.advance_to(up_free.max(down_free));
            let Some(event) = kernel.take_ready() else { break };
            match event {
                KernelEvent::ServerWake { member } => {
                    let m = member as usize;
                    let mut conns: Vec<u64> = dirty[m].iter().copied().collect();
                    dirty[m].clear();
                    loop {
                        for conn in conns.drain(..) {
                            while let Some((frame, charge)) = fleet
                                .member_mut(m)
                                .expect("wake events name fleet members")
                                .poll_conn(conn)
                            {
                                progressed = true;
                                let rid = frame.request_id;
                                let arrival = arrivals.remove(&rid).unwrap_or(up_free);
                                let done = arrival.max(dev_free[m]) + charge;
                                dev_free[m] = done;
                                let at = done.max(down_free) + link.transfer(frame.wire_size());
                                down_free = at;
                                last_delivered = last_delivered.max(at);
                                let Some(meta) = inflight.get(&rid) else {
                                    continue;
                                };
                                let (s, page, issued) = (meta.session, meta.page, meta.issued);
                                let FramePayload::Response(response) = frame.payload else {
                                    continue;
                                };
                                match response {
                                    ServerResponse::Span(bytes) => {
                                        let from = page as u64 * page_len;
                                        let ok = bytes.len() as u64 == page_len
                                            && bytes.iter().enumerate().all(|(i, &b)| {
                                                b == fleet_pattern(s, from + i as u64)
                                            });
                                        if !ok {
                                            return Err(MinosError::Internal(format!(
                                                "session {s} page {page} corrupt"
                                            )));
                                        }
                                        fleet
                                            .member_mut(m)
                                            .expect("wake events name fleet members")
                                            .recycle_payload(bytes);
                                        inflight.remove(&rid);
                                        outstanding[s] -= 1;
                                        delivered += 1;
                                        if s < audio_sessions {
                                            audio_lat.push(at.saturating_since(issued));
                                        }
                                    }
                                    ServerResponse::Busy { retry_after } => {
                                        // Honor the hint: park the page on
                                        // a retry timer, keep its window
                                        // slot held, and rotate it to the
                                        // next replica for the resubmit.
                                        busy_deferred += 1;
                                        let due = at + retry_after;
                                        deferred.insert(rid, due);
                                        kernel.arm(
                                            due,
                                            KernelEvent::RetryDue { request_id: rid, attempt: 0 },
                                        );
                                        let p = inflight
                                            .get_mut(&rid)
                                            .expect("meta was just read from inflight");
                                        p.member = plans[s].0.next_after(p.member).member;
                                    }
                                    other => {
                                        return Err(MinosError::Internal(format!(
                                            "unexpected response {other:?}"
                                        )));
                                    }
                                }
                            }
                        }
                        conns = fleet
                            .member_mut(m)
                            .expect("wake events name fleet members")
                            .take_woken();
                        if conns.is_empty() {
                            break;
                        }
                    }
                }
                KernelEvent::RetryDue { request_id, .. } => {
                    let Some(due) = deferred.remove(&request_id) else {
                        kernel.note_spurious();
                        continue;
                    };
                    progressed = true;
                    let p = inflight.get(&request_id).expect("deferred pages stay in flight");
                    let (s, page, m) = (p.session, p.page, p.member);
                    let span = plans[s].1[&m][page];
                    let frame = Frame::request_with_priority(
                        s as u64 + 1,
                        request_id,
                        session_priority(s),
                        ServerRequest::FetchSpan { span },
                    );
                    // The resubmission may not leave before the hint
                    // elapses: the uplink is pushed out to the due
                    // instant if it would otherwise be free earlier.
                    let leave = up_free.max(due);
                    if leave < due {
                        premature_busy_retries += 1;
                    }
                    let arrival = leave + link.transfer(frame.wire_size());
                    up_free = arrival;
                    arrivals.insert(request_id, arrival);
                    fleet.member_mut(m).expect("replica indices are in range").enqueue(frame)?;
                    dirty[m].insert(s as u64 + 1);
                    kernel.arm(arrival, KernelEvent::ServerWake { member: m as u64 });
                }
                _ => kernel.note_spurious(),
            }
        }
        if !progressed && !submitted {
            // Nothing moved and nothing new went out: every live page is
            // parked on a timer beyond the wire frontier. Jump simulated
            // time to the next armed deadline (cascade ticks that ready
            // nothing just loop again); no deadline at all is a wedge.
            let Some(deadline) = kernel.next_deadline() else {
                return Err(MinosError::Internal("fleet workload wedged with no timer".into()));
            };
            kernel.advance_to(deadline);
            up_free = up_free.max(kernel.now());
        }
    }
    let stats = fleet.service_stats();
    audio_lat.sort_unstable();
    let p99_rank = (audio_lat.len() * 99).div_ceil(100).saturating_sub(1);
    let audio_p99 = audio_lat.get(p99_rank).copied().unwrap_or(SimDuration::ZERO);
    Ok(FleetReport {
        elapsed: last_delivered.since(SimInstant::EPOCH),
        pages: delivered,
        bytes: link.stats().bytes,
        failovers,
        epoch_resyncs,
        replays,
        busy_deferred,
        premature_busy_retries,
        shed: stats.shed,
        busy_rejections: stats.busy_rejections,
        served_per_member: (0..members)
            .map(|m| fleet.member(m).map_or(0, |s| s.service_stats().served))
            .collect(),
        audio_p99,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendezvous_order_is_a_deterministic_permutation() {
        for raw in 1..=64u64 {
            let order = rendezvous_order(ObjectId::new(raw), 8);
            assert_eq!(order, rendezvous_order(ObjectId::new(raw), 8));
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..8).collect::<Vec<_>>(), "not a permutation for {raw}");
        }
    }

    #[test]
    fn rendezvous_spreads_primaries_across_members() {
        let members = 4;
        let mut counts = vec![0usize; members];
        for raw in 1..=64u64 {
            counts[rendezvous_order(ObjectId::new(raw), members)[0]] += 1;
        }
        // 64 objects over 4 members: every member owns some primaries and
        // none owns a runaway majority.
        for (m, &count) in counts.iter().enumerate() {
            assert!(count >= 4, "member {m} owns only {count} primaries: {counts:?}");
            assert!(count <= 32, "member {m} owns {count} primaries: {counts:?}");
        }
    }

    #[test]
    fn replica_sets_are_distinct_members_in_ring_order() {
        let mut fleet = Fleet::new(4, 3).expect("valid shape");
        let body = vec![7u8; 4096];
        let placement = fleet.publish_bytes(ObjectId::new(9), &body).expect("publish");
        let members: Vec<usize> = placement.replicas().iter().map(|r| r.member).collect();
        let distinct: BTreeSet<usize> = members.iter().copied().collect();
        assert_eq!(distinct.len(), 3, "replicas must land on distinct members: {members:?}");
        // The failover ring closes: walking next_after from the primary
        // visits every replica and returns home.
        let mut at = placement.primary().member;
        let mut seen = vec![at];
        for _ in 0..2 {
            at = placement.next_after(at).member;
            seen.push(at);
        }
        assert_eq!(placement.next_after(at).member, placement.primary().member);
        let walked: BTreeSet<usize> = seen.iter().copied().collect();
        assert_eq!(walked, distinct);
    }

    #[test]
    fn fleet_shape_is_validated() {
        assert!(Fleet::new(0, 0).is_err());
        assert!(Fleet::new(2, 0).is_err());
        assert!(Fleet::new(2, 3).is_err());
        assert!(Fleet::new(2, 2).is_ok());
    }

    #[test]
    fn fetch_page_round_trips_through_the_placed_replicas() {
        let mut fleet = Fleet::new(3, 2).expect("valid shape");
        let object = ObjectId::new(5);
        let body: Vec<u8> = (0..8192u64).map(|i| (i % 251) as u8).collect();
        fleet.publish_bytes(object, &body).expect("publish");
        let mut conn = FleetConnection::new(fleet, Link::ethernet());
        let pages = 8usize;
        let mut tickets = Vec::with_capacity(pages);
        for page in 0..pages {
            let rel = ByteSpan::at(page as u64 * 1024, 1024);
            tickets.push((conn.fetch_page(object, rel).expect("submit"), page));
        }
        for (ticket, page) in tickets {
            let (response, _) = conn.wait(ticket).expect("collect");
            let ServerResponse::Span(bytes) = response else {
                panic!("unexpected response {response:?}");
            };
            let from = page as u64 * 1024;
            let expect: Vec<u8> = (from..from + 1024).map(|i| (i % 251) as u8).collect();
            assert_eq!(bytes, expect, "page {page}");
            conn.recycle_payload(bytes);
        }
        // Pages spread across both replicas of the object.
        let served: Vec<u64> = (0..3)
            .map(|m| conn.fleet().member(m).map_or(0, |s| s.service_stats().served))
            .collect();
        assert_eq!(served.iter().sum::<u64>(), pages as u64);
        assert_eq!(served.iter().filter(|&&s| s > 0).count(), 2, "{served:?}");
    }

    #[test]
    fn member_restart_fails_in_flight_pages_over_to_siblings() {
        let mut fleet = Fleet::new(2, 2).expect("valid shape");
        let object = ObjectId::new(11);
        let body: Vec<u8> = (0..16384u64).map(|i| ((i * 3) % 251) as u8).collect();
        fleet.publish_bytes(object, &body).expect("publish");
        let mut conn = FleetConnection::with_window(fleet, Link::ethernet(), 8);
        let mut tickets = Vec::with_capacity(8);
        for page in 0..8usize {
            let rel = ByteSpan::at(page as u64 * 2048, 2048);
            tickets.push((conn.fetch_page(object, rel).expect("submit"), page));
        }
        // Both members hold in-flight frames (pages alternate replicas by
        // request id); restarting member 0 orphans its share mid-window.
        conn.fleet_mut().restart_member(0).expect("member 0 exists");
        for (ticket, page) in tickets {
            let (response, _) = conn.wait(ticket).expect("collect");
            let ServerResponse::Span(bytes) = response else {
                panic!("unexpected response {response:?}");
            };
            let from = page as u64 * 2048;
            let expect: Vec<u8> = (from..from + 2048).map(|i| ((i * 3) % 251) as u8).collect();
            assert_eq!(bytes, expect, "page {page} corrupt after restart");
            conn.recycle_payload(bytes);
        }
        let transport = conn.transport_stats();
        assert_eq!(transport.epoch_resyncs, 1, "{transport:?}");
        assert!(transport.replays >= 1, "{transport:?}");
        assert!(transport.failovers >= 1, "{transport:?}");
        assert_eq!(conn.fleet_stats().premature_busy_retries, 0);
    }

    #[test]
    fn busy_turnaways_defer_and_eventually_deliver() {
        let mut fleet = Fleet::new(1, 1).expect("valid shape");
        let object = ObjectId::new(3);
        let body: Vec<u8> = (0..8192u64).map(|i| ((i * 7) % 251) as u8).collect();
        fleet.publish_bytes(object, &body).expect("publish");
        fleet.set_service_config(ServiceConfig {
            per_conn_cap: 1,
            global_cap: 64,
            retry_slice: SimDuration::from_micros(500),
        });
        let mut conn = FleetConnection::with_window(fleet, Link::ethernet(), 8);
        let mut tickets = Vec::with_capacity(8);
        for page in 0..8usize {
            let rel = ByteSpan::at(page as u64 * 1024, 1024);
            tickets.push((conn.fetch_page(object, rel).expect("submit"), page));
        }
        for (ticket, page) in tickets {
            let (response, _) = conn.wait(ticket).expect("collect");
            let ServerResponse::Span(bytes) = response else {
                panic!("unexpected response {response:?}");
            };
            let from = page as u64 * 1024;
            let expect: Vec<u8> = (from..from + 1024).map(|i| ((i * 7) % 251) as u8).collect();
            assert_eq!(bytes, expect, "page {page}");
            conn.recycle_payload(bytes);
        }
        let stats = conn.fleet_stats();
        assert!(stats.busy_deferred > 0, "cap 1 against a burst of 8 must defer: {stats:?}");
        assert_eq!(stats.premature_busy_retries, 0, "{stats:?}");
        assert!(conn.fleet().service_stats().busy_rejections > 0);
    }

    #[test]
    fn reset_accounting_clears_fleet_and_transport_state() {
        let mut fleet = Fleet::new(2, 1).expect("valid shape");
        let object = ObjectId::new(2);
        fleet.publish_bytes(object, &vec![5u8; 4096]).expect("publish");
        let mut conn = FleetConnection::new(fleet, Link::ethernet());
        let ticket = conn.fetch_page(object, ByteSpan::at(0, 4096)).expect("submit");
        let (response, _) = conn.wait(ticket).expect("collect");
        assert!(matches!(response, ServerResponse::Span(_)));
        assert!(conn.bytes_transferred() > 0);
        conn.reset_accounting();
        assert_eq!(conn.bytes_transferred(), 0);
        assert_eq!(conn.elapsed(), SimDuration::ZERO);
        assert_eq!(conn.in_flight(), 0);
        assert_eq!(conn.transport_stats(), TransportStats::default());
        assert_eq!(conn.fleet_stats(), FleetStats::default());
        assert_eq!(conn.fleet().service_stats().served, 0);
        // The pipeline still works after the reset.
        let ticket = conn.fetch_page(object, ByteSpan::at(0, 4096)).expect("resubmit");
        let (response, _) = conn.wait(ticket).expect("recollect");
        assert!(matches!(response, ServerResponse::Span(_)));
    }

    #[test]
    fn fleet_workload_scales_and_survives_a_mid_run_restart() {
        let service = ServiceConfig::default();
        let base = FleetWorkloadConfig {
            members: 1,
            replication: 1,
            sessions: 6,
            audio_sessions: 2,
            pages_per_session: 4,
            page_len: 2048,
            restart: None,
            service,
        };
        let solo = simulate_fleet_workload(base).expect("solo run");
        assert_eq!(solo.pages, 24);
        assert_eq!(solo.epoch_resyncs, 0);
        assert_eq!(solo.premature_busy_retries, 0);
        assert!(solo.audio_p99 > SimDuration::ZERO, "audio sessions must be measured: {solo:?}");

        let crashed = simulate_fleet_workload(FleetWorkloadConfig {
            members: 3,
            replication: 2,
            restart: Some(FleetRestart { member: 0, after_pages: 6 }),
            ..base
        })
        .expect("restart run");
        assert_eq!(crashed.pages, 24, "every page survives the restart: {crashed:?}");
        assert_eq!(crashed.epoch_resyncs, 1, "{crashed:?}");
        assert_eq!(crashed.premature_busy_retries, 0, "{crashed:?}");
        assert_eq!(crashed.served_per_member.len(), 3);
        assert!(
            crashed.served_per_member.iter().all(|&s| s > 0),
            "replication must spread load: {crashed:?}"
        );
    }

    #[test]
    fn health_monitor_walks_up_suspect_down_and_recovers() {
        let mut health = HealthMonitor::new(2);
        assert_eq!(health.state(0), MemberHealth::Up);
        assert_eq!(health.note_miss(0), MemberHealth::Suspect);
        assert_eq!(health.note_miss(0), MemberHealth::Down);
        assert!(health.is_down(0));
        // The sibling's view is independent.
        assert_eq!(health.state(1), MemberHealth::Up);
        // One pong is positive proof of life: immediate recovery.
        assert_eq!(health.note_pong(0, SimDuration::from_micros(100)), MemberHealth::Up);
        let stats = health.stats();
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.down_transitions, 1);
        assert_eq!(stats.recoveries, 1);
        health.reset_stats();
        assert_eq!(health.stats(), HealthStats::default());
    }

    #[test]
    fn health_monitor_flags_gray_failure_against_own_baseline() {
        let mut health = HealthMonitor::new(1);
        // Warm the baseline with healthy ~100µs echoes.
        for _ in 0..4 {
            assert_eq!(health.note_pong(0, SimDuration::from_micros(100)), MemberHealth::Up);
        }
        assert_eq!(health.baseline(0), SimDuration::from_micros(100));
        // A 10× echo is gray failure, and it must not poison the baseline.
        assert_eq!(health.note_pong(0, SimDuration::from_micros(1000)), MemberHealth::Slow);
        assert_eq!(health.baseline(0), SimDuration::from_micros(100));
        // Recovery needs a streak of healthy echoes.
        assert_eq!(health.note_pong(0, SimDuration::from_micros(110)), MemberHealth::Slow);
        assert_eq!(health.note_pong(0, SimDuration::from_micros(110)), MemberHealth::Up);
        let stats = health.stats();
        assert_eq!(stats.slow_transitions, 1);
        assert_eq!(stats.recoveries, 1);
    }

    #[test]
    fn repair_replica_restores_the_replication_factor_on_the_ring_successor() {
        let mut fleet = Fleet::new(4, 2).expect("valid shape");
        let object = ObjectId::new(21);
        let body: Vec<u8> = (0..8192u64).map(|i| ((i * 5) % 251) as u8).collect();
        let placement = fleet.publish_paged(object, &body, 2048).expect("publish");
        let lost = placement.primary().member;
        let survivor = placement.next_after(lost).member;
        let target = fleet.ring_successor(object, &[lost]).expect("spare member exists");
        assert!(!placement.replicas().iter().any(|r| r.member == target));
        let receipt = fleet.repair_replica(object, lost, survivor, target).expect("repair");
        assert_eq!(receipt.bytes, body.len() as u64);
        assert!(receipt.read_time > SimDuration::ZERO && receipt.write_time > SimDuration::ZERO);
        // The placement now names the successor instead of the dead
        // member, and the rebuilt copy verifies clean.
        let healed = fleet.placement(object).expect("placement survives").clone();
        let holders: Vec<usize> = healed.replicas().iter().map(|r| r.member).collect();
        assert!(holders.contains(&target) && !holders.contains(&lost), "{holders:?}");
        let (corrupt, _) = fleet.verify_copy(object, target).expect("verify");
        assert!(corrupt.is_empty(), "rebuilt copy must verify: {corrupt:?}");
        // A second repair of the same loss is refused: the target already
        // holds a copy.
        assert!(fleet.repair_replica(object, lost, survivor, target).is_err());
    }

    #[test]
    fn scrub_detects_bit_rot_and_heal_copy_repairs_in_place() {
        let mut fleet = Fleet::new(3, 2).expect("valid shape");
        let object = ObjectId::new(33);
        let body: Vec<u8> = (0..8192u64).map(|i| ((i * 11) % 251) as u8).collect();
        let placement = fleet.publish_paged(object, &body, 2048).expect("publish");
        let victim = placement.primary().member;
        // Rot exactly one read on the victim's media, then freeze decay so
        // the scrub itself reads deterministically clean media.
        let device = fleet.member_mut(victim).expect("victim exists").archiver_mut().device_mut();
        device.set_bit_rot(77, 1.0);
        let rotted = fleet.verify_copy(object, victim).expect("verification read");
        assert!(!rotted.0.is_empty(), "rate-1.0 rot must corrupt a verified page");
        let device = fleet.member_mut(victim).expect("victim exists").archiver_mut().device_mut();
        device.set_bit_rot(0, 0.0);
        assert!(device.bit_rot_flips() > 0);
        // The scrub pass finds the damage...
        let scrub = fleet.scrub_member(victim).expect("scrub");
        assert_eq!(scrub.objects, 1);
        assert_eq!(scrub.pages, 4);
        assert!(!scrub.corrupt.is_empty(), "{scrub:?}");
        assert!(scrub.corrupt.iter().all(|&(id, _)| id == object));
        // ...and the heal re-homes a verified sibling copy in place.
        let receipt = fleet.heal_copy(object, victim).expect("heal");
        assert_eq!(receipt.target, victim, "heal stays on the corrupt member");
        assert_ne!(receipt.source, victim, "clean bytes come from a sibling");
        let rescrub = fleet.scrub_member(victim).expect("re-scrub");
        assert!(rescrub.corrupt.is_empty(), "healed copy must verify: {rescrub:?}");
    }

    #[test]
    fn idle_heartbeat_notices_a_member_restart_without_a_submit() {
        let mut fleet = Fleet::new(2, 2).expect("valid shape");
        let object = ObjectId::new(8);
        fleet.publish_bytes(object, &vec![9u8; 4096]).expect("publish");
        let mut conn = FleetConnection::new(fleet, Link::ethernet());
        conn.enable_heartbeat(SimDuration::from_millis(1));
        // The connection is idle — nothing submitted — when member 1
        // restarts. Before the heartbeat existed, the stale epoch went
        // unnoticed until the next fetch_page.
        conn.fleet_mut().restart_member(1).expect("member 1 exists");
        conn.advance_to(SimInstant::EPOCH + SimDuration::from_millis(10));
        let health = conn.health().stats();
        assert!(health.pings >= 2, "both members heartbeat: {health:?}");
        assert_eq!(health.pongs, health.pings, "healthy members echo every ping: {health:?}");
        assert!(health.epoch_mismatches >= 1, "the restart must be noticed: {health:?}");
        assert!(
            conn.transport_stats().epoch_resyncs >= 1,
            "the heartbeat must trigger the resync: {:?}",
            conn.transport_stats()
        );
        // The detector never declared anyone down: the member answered
        // its very first post-restart ping.
        assert_eq!(conn.health().state(1), MemberHealth::Up);
        // And the data path still works.
        let ticket = conn.fetch_page(object, ByteSpan::at(0, 4096)).expect("submit");
        let (response, _) = conn.wait(ticket).expect("collect");
        assert!(matches!(response, ServerResponse::Span(_)));
    }

    #[test]
    fn repair_queue_dedups_admissions() {
        let mut queue = RepairQueue::new();
        let task = RepairTask { object: ObjectId::new(1), lost: 0 };
        assert!(queue.admit(task));
        assert!(!queue.admit(task), "the same loss is admitted once");
        assert!(queue.admit(RepairTask { object: ObjectId::new(1), lost: 1 }));
        assert_eq!(queue.len(), 2);
        assert_eq!(queue.pop(), Some(task));
        queue.note_completed(4096);
        let stats = queue.stats();
        assert_eq!(stats.admitted, 2);
        assert_eq!(stats.deduped, 1);
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.bytes_rebuilt, 4096);
        queue.reset_stats();
        assert_eq!(queue.stats(), RepairStats::default());
        assert!(!queue.is_empty(), "reset clears accounting, not pending work");
    }
}
