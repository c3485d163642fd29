//! The framed transport envelope (§5 pipelining).
//!
//! The blocking request path serialized every interaction: one request on
//! the wire, one response back, nothing else in flight. To overlap server
//! work with link transfer — and to let one server interleave several
//! workstations — every [`ServerRequest`]/[`ServerResponse`] now travels
//! inside a [`Frame`]: a `(conn_id, request_id)` envelope that lets
//! responses complete out of order and still find their way back to the
//! submitting session. The inner wire tags of the protocol enums are
//! untouched; the envelope is purely additive framing.
//!
//! [`InflightWindow`] is the per-connection flow-control companion: it
//! bounds how many request frames may be unacknowledged at once, so a
//! pipelined client cannot bury the server queue arbitrarily deep.

use crate::protocol::{ServerRequest, ServerResponse};
use minos_types::{varint_len, Decoder, Encoder, MinosError, Result};
use std::collections::BTreeSet;

/// Bytes of the CRC32 trailer every encoded frame carries.
const CRC_TRAILER_LEN: usize = 4;

/// The reflected IEEE 802.3 CRC-32 polynomial.
const CRC_POLY: u32 = 0xedb8_8320;

/// Slicing-by-8 lookup tables: `CRC_TABLES[k][n]` is the CRC register after
/// feeding byte `n` followed by `k` zero bytes into a zeroed register, so
/// one 8-byte stride folds into eight independent lookups.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

/// Builds [`CRC_TABLES`] at compile time. Slots are filled through
/// slice patterns rather than indexing, keeping the net crate's
/// panic-freedom audit clean.
const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut rest: &mut [[u32; 256]] = &mut tables;
    let mut zeros = 0;
    while let [table, tail @ ..] = rest {
        let mut slots: &mut [u32] = table;
        let mut byte = 0u32;
        while let [slot, more @ ..] = slots {
            // `byte` then `zeros` zero bytes is 8 × (zeros + 1) register shifts.
            let mut crc = byte;
            let mut shift = 0;
            while shift < 8 * (zeros + 1) {
                crc = (crc >> 1) ^ (CRC_POLY & (crc & 1).wrapping_neg());
                shift += 1;
            }
            *slot = crc;
            slots = more;
            byte += 1;
        }
        rest = tail;
        zeros += 1;
    }
    tables
}

/// One table lookup. A `u8` index can never leave a 256-entry table, so
/// the fallback is dead and the optimizer drops the bounds check.
fn lookup(table: &[u32; 256], index: u8) -> u32 {
    table.get(usize::from(index)).copied().unwrap_or(0)
}

/// CRC-32 (IEEE 802.3, reflected polynomial), table-driven slicing-by-8.
///
/// Table-driven because every frame trailer and every publish-time page
/// checksum runs through here, and fleet pages are 8–32 KiB: at one shift
/// per bit a bitwise loop measured 5.7–8.7 µs/KiB, most of the host time
/// of a faulty-link fleet run. Eight compile-time tables fold each 8-byte
/// stride into eight lookups: 0.75–0.85 µs/KiB (`perfbench --trace 1` on
/// `lossy_fleet`, 2-vCPU Xeon VM). Lookups go through `u8`-indexed `get`,
/// so the function stays index-panic-free.
pub fn crc32(bytes: &[u8]) -> u32 {
    let [t0, t1, t2, t3, t4, t5, t6, t7] = &CRC_TABLES;
    let mut crc = u32::MAX;
    let mut strides = bytes.chunks_exact(8);
    for stride in &mut strides {
        let &[b0, b1, b2, b3, b4, b5, b6, b7] = stride else { continue };
        let [c0, c1, c2, c3] = (crc ^ u32::from_le_bytes([b0, b1, b2, b3])).to_le_bytes();
        crc = lookup(t7, c0)
            ^ lookup(t6, c1)
            ^ lookup(t5, c2)
            ^ lookup(t4, c3)
            ^ lookup(t3, b4)
            ^ lookup(t2, b5)
            ^ lookup(t1, b6)
            ^ lookup(t0, b7);
    }
    for &byte in strides.remainder() {
        let [index, ..] = (crc ^ u32::from(byte)).to_le_bytes();
        crc = (crc >> 8) ^ lookup(t0, index);
    }
    !crc
}

/// The service class a frame travels under (§5 overload policy).
///
/// One wire byte in the [`Frame`] envelope, ordered by urgency: the
/// server's admission control sheds [`Priority::Prefetch`] traffic first
/// and preserves [`Priority::Audio`] and [`Priority::Demand`] requests,
/// so speculation never starves the work a user is actually waiting on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Priority {
    /// Continuous-media traffic with a playback deadline (never shed).
    Audio,
    /// A synchronous user-facing fetch the session is blocked on (never
    /// shed while any prefetch remains sheddable).
    Demand,
    /// Speculative read-ahead; the first class dropped under overload.
    Prefetch,
}

impl Priority {
    /// The envelope byte for this class.
    pub fn wire_tag(self) -> u8 {
        match self {
            Priority::Audio => 0,
            Priority::Demand => 1,
            Priority::Prefetch => 2,
        }
    }

    /// Decodes an envelope byte; unknown classes are typed codec errors.
    pub fn from_wire(tag: u8) -> Result<Priority> {
        match tag {
            0 => Ok(Priority::Audio),
            1 => Ok(Priority::Demand),
            2 => Ok(Priority::Prefetch),
            other => Err(MinosError::Codec(format!("unknown frame priority {other}"))),
        }
    }

    /// Whether the admission policy may drop this class under overload.
    pub fn is_sheddable(self) -> bool {
        matches!(self, Priority::Prefetch)
    }
}

/// The direction-discriminated payload of a [`Frame`].
///
/// Wire layout: one envelope tag byte (`1` = request, `2` = response)
/// followed by the length-prefixed inner protocol encoding. The inner
/// bytes are exactly what the unframed protocol would have sent.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FramePayload {
    /// A workstation → server request.
    Request(ServerRequest),
    /// A server → workstation response.
    Response(ServerResponse),
}

impl FramePayload {
    /// Encodes the envelope tag plus the inner protocol bytes into an
    /// existing encoder. The inner message's length prefix is computed
    /// arithmetically from its `wire_size`, then the message encodes in
    /// place — no intermediate buffer, which is what keeps
    /// [`Frame::encode_into`] allocation-free on a pooled buffer.
    pub fn encode_to(&self, e: &mut Encoder) {
        match self {
            FramePayload::Request(request) => {
                e.put_u8(1);
                e.put_varint(request.wire_size());
                request.encode_to(e);
            }
            FramePayload::Response(response) => {
                e.put_u8(2);
                e.put_varint(response.wire_size());
                response.encode_to(e);
            }
        }
    }

    /// Encodes the envelope tag plus the inner protocol bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        self.encode_to(&mut e);
        e.finish()
    }

    /// Bytes [`FramePayload::encode`] produces, computed without encoding:
    /// one tag byte plus the length-prefixed inner message.
    pub fn wire_size(&self) -> u64 {
        let inner = match self {
            FramePayload::Request(request) => request.wire_size(),
            FramePayload::Response(response) => response.wire_size(),
        };
        1 + varint_len(inner) + inner
    }

    /// Decodes an envelope payload produced by [`FramePayload::encode`].
    pub fn decode(bytes: &[u8]) -> Result<FramePayload> {
        let mut d = Decoder::new(bytes);
        let payload = match d.get_u8()? {
            1 => FramePayload::Request(ServerRequest::decode(d.get_bytes_ref()?)?),
            2 => FramePayload::Response(ServerResponse::decode(d.get_bytes_ref()?)?),
            other => return Err(MinosError::Codec(format!("unknown frame payload tag {other}"))),
        };
        d.expect_end()?;
        Ok(payload)
    }
}

/// One framed protocol message: which connection it belongs to, which
/// outstanding request it answers (or opens), and the payload itself.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// The connection (workstation session) this frame belongs to.
    pub conn_id: u64,
    /// The per-connection request this frame opens or answers. Responses
    /// carry the id of the request they answer, which is what lets them
    /// complete out of order.
    pub request_id: u64,
    /// The service class the frame travels under; responses echo the
    /// class of the request they answer.
    pub priority: Priority,
    /// The enveloped protocol message.
    pub payload: FramePayload,
}

impl Frame {
    /// Wraps a request for submission on `conn_id` as `request_id`
    /// (demand class — the historical default for synchronous fetches).
    pub fn request(conn_id: u64, request_id: u64, request: ServerRequest) -> Frame {
        Frame::request_with_priority(conn_id, request_id, Priority::Demand, request)
    }

    /// Wraps a request travelling under an explicit service class.
    pub fn request_with_priority(
        conn_id: u64,
        request_id: u64,
        priority: Priority,
        request: ServerRequest,
    ) -> Frame {
        Frame { conn_id, request_id, priority, payload: FramePayload::Request(request) }
    }

    /// Wraps a response answering `request_id` on `conn_id`.
    pub fn response(conn_id: u64, request_id: u64, response: ServerResponse) -> Frame {
        Frame {
            conn_id,
            request_id,
            priority: Priority::Demand,
            payload: FramePayload::Response(response),
        }
    }

    /// Echoes this frame's service class onto a response frame.
    pub fn reply(&self, response: ServerResponse) -> Frame {
        Frame {
            conn_id: self.conn_id,
            request_id: self.request_id,
            priority: self.priority,
            payload: FramePayload::Response(response),
        }
    }

    /// Encodes the envelope: varint `conn_id`, varint `request_id`, the
    /// priority byte, the tagged payload, then a CRC32 trailer over
    /// everything before it.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Encodes the envelope into `out` (cleared first), reusing its
    /// capacity — the pooled transmit path. Every length prefix is
    /// computed arithmetically from `wire_size`, so a warm buffer encodes
    /// a whole frame without a single allocation. Byte-for-byte identical
    /// to [`Frame::encode`].
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let mut e = Encoder::reuse(std::mem::take(out));
        e.put_varint(self.conn_id);
        e.put_varint(self.request_id);
        e.put_u8(self.priority.wire_tag());
        e.put_varint(self.payload.wire_size());
        self.payload.encode_to(&mut e);
        let mut bytes = e.finish();
        let crc = crc32(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        *out = bytes;
    }

    /// Encodes a request frame's wire bytes straight from a borrowed
    /// request into `out` — byte-identical to building the [`Frame`] and
    /// calling [`Frame::encode_into`], without taking ownership of the
    /// request. This is the transmit path for retransmission state that
    /// keeps only encoded bytes: the caller encodes once from a borrow,
    /// resends verbatim ever after.
    pub fn encode_request_into(
        conn_id: u64,
        request_id: u64,
        priority: Priority,
        request: &ServerRequest,
        out: &mut Vec<u8>,
    ) {
        let mut e = Encoder::reuse(std::mem::take(out));
        e.put_varint(conn_id);
        e.put_varint(request_id);
        e.put_u8(priority.wire_tag());
        // The FramePayload::Request layout, inlined from the borrow.
        let inner = request.wire_size();
        e.put_varint(1 + varint_len(inner) + inner);
        e.put_u8(1);
        e.put_varint(inner);
        request.encode_to(&mut e);
        let mut bytes = e.finish();
        let crc = crc32(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        *out = bytes;
    }

    /// Decodes a frame produced by [`Frame::encode`], verifying the CRC32
    /// trailer first: bytes altered in transit surface as a typed
    /// [`MinosError::Corrupt`] instead of a garbage decode.
    pub fn decode(bytes: &[u8]) -> Result<Frame> {
        let Some(body_len) = bytes.len().checked_sub(CRC_TRAILER_LEN) else {
            return Err(MinosError::Codec(format!(
                "frame of {} bytes is shorter than its checksum trailer",
                bytes.len()
            )));
        };
        let (body, trailer) =
            (bytes.get(..body_len).unwrap_or_default(), bytes.get(body_len..).unwrap_or_default());
        let mut t = Decoder::new(trailer);
        let stated = t.get_u32()?;
        let actual = crc32(body);
        if stated != actual {
            return Err(MinosError::Corrupt(format!(
                "frame checksum mismatch: trailer {stated:#010x}, computed {actual:#010x}"
            )));
        }
        let mut d = Decoder::new(body);
        let conn_id = d.get_varint()?;
        let request_id = d.get_varint()?;
        let priority = Priority::from_wire(d.get_u8()?)?;
        let payload = FramePayload::decode(d.get_bytes_ref()?)?;
        d.expect_end()?;
        Ok(Frame { conn_id, request_id, priority, payload })
    }

    /// Bytes this frame occupies on the wire, computed arithmetically —
    /// measuring a frame never copies its payload (this sits on the
    /// per-submission hot path of `core::remote`).
    pub fn wire_size(&self) -> u64 {
        let payload = self.payload.wire_size();
        varint_len(self.conn_id)
            + varint_len(self.request_id)
            + 1
            + varint_len(payload)
            + payload
            + CRC_TRAILER_LEN as u64
    }

    /// The enveloped request, if this is a request frame.
    pub fn as_request(&self) -> Option<&ServerRequest> {
        match &self.payload {
            FramePayload::Request(request) => Some(request),
            FramePayload::Response(_) => None,
        }
    }
}

/// Per-connection flow control: the set of request ids submitted but not
/// yet delivered back, bounded by a fixed capacity.
///
/// The window is the pipelining budget — a client keeps submitting until
/// [`InflightWindow::is_full`], then must wait for a delivery before the
/// next submit. Capacity 1 degenerates to the old blocking discipline.
#[derive(Clone, Debug)]
pub struct InflightWindow {
    capacity: usize,
    ids: BTreeSet<u64>,
}

impl InflightWindow {
    /// A window admitting up to `capacity` unacknowledged requests
    /// (a zero capacity is bumped to 1: a window that can never open
    /// would deadlock the pipeline).
    pub fn new(capacity: usize) -> Self {
        InflightWindow { capacity: capacity.max(1), ids: BTreeSet::new() }
    }

    /// The maximum number of in-flight requests.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Requests currently in flight.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether nothing is in flight.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Whether the window is exhausted (submit must wait).
    pub fn is_full(&self) -> bool {
        self.ids.len() >= self.capacity
    }

    /// Admits `request_id`; returns `false` (and admits nothing) if the
    /// window is full or the id is already in flight.
    pub fn open(&mut self, request_id: u64) -> bool {
        if self.is_full() || self.ids.contains(&request_id) {
            return false;
        }
        self.ids.insert(request_id)
    }

    /// Retires `request_id` on delivery; returns `false` if it was not in
    /// flight.
    pub fn close(&mut self, request_id: u64) -> bool {
        self.ids.remove(&request_id)
    }

    /// The oldest (smallest) in-flight request id — the one a blocked
    /// submitter should wait on.
    pub fn oldest(&self) -> Option<u64> {
        self.ids.first().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minos_types::{ByteSpan, ObjectId};
    use proptest::prelude::*;

    fn sample_request() -> ServerRequest {
        ServerRequest::FetchSpan { span: ByteSpan::at(1_024, 4_096) }
    }

    #[test]
    fn request_frames_round_trip() {
        let frame = Frame::request(7, 42, sample_request());
        let back = Frame::decode(&frame.encode()).unwrap();
        assert_eq!(back, frame);
        assert_eq!(back.as_request(), Some(&sample_request()));
    }

    #[test]
    fn response_frames_round_trip() {
        let frame = Frame::response(1, 9, ServerResponse::Hits(vec![ObjectId::new(3)]));
        let back = Frame::decode(&frame.encode()).unwrap();
        assert_eq!(back, frame);
        assert!(back.as_request().is_none());
    }

    #[test]
    fn envelope_overhead_is_small() {
        let inner = sample_request().wire_size();
        let framed = Frame::request(1, 1, sample_request()).wire_size();
        assert!(framed > inner);
        assert!(framed - inner < 16, "envelope overhead {} bytes", framed - inner);
    }

    #[test]
    fn unknown_payload_tag_is_rejected() {
        let mut e = Encoder::new();
        e.put_varint(1);
        e.put_varint(1);
        e.put_u8(Priority::Demand.wire_tag());
        e.put_bytes(&[10, 0]);
        let mut bytes = e.finish();
        // With a valid checksum the decoder reaches the tag check itself.
        let crc = crc32(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        assert!(matches!(Frame::decode(&bytes), Err(MinosError::Codec(_))));
    }

    #[test]
    fn unknown_priority_byte_is_rejected() {
        let mut e = Encoder::new();
        e.put_varint(1);
        e.put_varint(1);
        e.put_u8(7);
        e.put_bytes(&FramePayload::Request(sample_request()).encode());
        let mut bytes = e.finish();
        let crc = crc32(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        assert!(matches!(Frame::decode(&bytes), Err(MinosError::Codec(_))));
    }

    #[test]
    fn priority_classes_round_trip() {
        for priority in [Priority::Audio, Priority::Demand, Priority::Prefetch] {
            let frame = Frame::request_with_priority(4, 11, priority, sample_request());
            let back = Frame::decode(&frame.encode()).unwrap();
            assert_eq!(back.priority, priority);
            assert_eq!(back, frame);
            assert_eq!(Priority::from_wire(priority.wire_tag()).unwrap(), priority);
        }
        assert!(Priority::from_wire(3).is_err());
        assert!(Priority::Prefetch.is_sheddable());
        assert!(!Priority::Audio.is_sheddable());
        assert!(!Priority::Demand.is_sheddable());
    }

    #[test]
    fn replies_echo_the_request_class() {
        let request = Frame::request_with_priority(4, 11, Priority::Audio, sample_request());
        let reply = request.reply(ServerResponse::Span(vec![1, 2, 3]));
        assert_eq!(reply.conn_id, 4);
        assert_eq!(reply.request_id, 11);
        assert_eq!(reply.priority, Priority::Audio);
        assert!(reply.as_request().is_none());
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = Frame::request(1, 1, sample_request()).encode();
        bytes.push(0);
        assert!(Frame::decode(&bytes).is_err());
    }

    #[test]
    fn wire_size_matches_encoding_without_materializing_it() {
        let frames = vec![
            Frame::request(1, 1, sample_request()),
            Frame::request(u64::MAX, 1 << 40, sample_request()),
            Frame::request(
                3,
                9,
                ServerRequest::Query { keywords: vec!["x-ray".into(), "shadow".into()] },
            ),
            Frame::request(
                2,
                5,
                ServerRequest::Batch {
                    requests: vec![sample_request(), ServerRequest::Query { keywords: vec![] }],
                },
            ),
            Frame::response(7, 42, ServerResponse::Span(vec![0xa5; 10_000])),
            Frame::response(1, 2, ServerResponse::Hits(vec![ObjectId::new(1 << 50)])),
            Frame::response(1, 3, ServerResponse::Error("lost".into())),
            Frame::response(
                1,
                4,
                ServerResponse::Batch(vec![
                    ServerResponse::Span(vec![1, 2, 3]),
                    ServerResponse::Error("missing".into()),
                ]),
            ),
            Frame::request(5, 0, ServerRequest::Hello { epoch: u64::MAX }),
            Frame::request(5, 6, ServerRequest::Probe),
            Frame::response(5, 0, ServerResponse::Welcome { epoch: 1 << 33 }),
            Frame::response(
                5,
                6,
                ServerResponse::Busy {
                    retry_after: minos_types::SimDuration::from_micros(1 << 20),
                },
            ),
            Frame::request_with_priority(
                6,
                7,
                Priority::Prefetch,
                ServerRequest::FetchSpan { span: ByteSpan::at(0, 8192) },
            ),
        ];
        for frame in frames {
            assert_eq!(
                frame.wire_size(),
                frame.encode().len() as u64,
                "wire_size must equal the encoded length for {frame:?}"
            );
        }
    }

    #[test]
    fn encode_into_is_byte_identical_and_reuses_the_buffer() {
        let frames = vec![
            Frame::request(1, 1, sample_request()),
            Frame::request(
                2,
                5,
                ServerRequest::Batch {
                    requests: vec![sample_request(), ServerRequest::Query { keywords: vec![] }],
                },
            ),
            Frame::response(7, 42, ServerResponse::Span(vec![0xa5; 4_096])),
            Frame::response(
                1,
                4,
                ServerResponse::Batch(vec![
                    ServerResponse::Span(vec![1, 2, 3]),
                    ServerResponse::Error("missing".into()),
                ]),
            ),
            Frame::request_with_priority(6, 7, Priority::Prefetch, sample_request()),
        ];
        let mut buf = Vec::with_capacity(8_192);
        let cap = buf.capacity();
        for frame in frames {
            buf.extend_from_slice(b"stale bytes from the previous frame");
            frame.encode_into(&mut buf);
            assert_eq!(buf, frame.encode(), "encode_into must match encode for {frame:?}");
            assert_eq!(Frame::decode(&buf).unwrap(), frame);
            assert_eq!(buf.capacity(), cap, "a warm buffer encodes without reallocating");
        }
    }

    #[test]
    fn encode_request_into_matches_the_owning_encode() {
        let requests = vec![
            sample_request(),
            ServerRequest::Query { keywords: vec!["x-ray".into(), "shadow".into()] },
            ServerRequest::Batch {
                requests: vec![sample_request(), ServerRequest::Query { keywords: vec![] }],
            },
            ServerRequest::Hello { epoch: u64::MAX },
            ServerRequest::Probe,
        ];
        let mut buf = Vec::new();
        for request in requests {
            for priority in [Priority::Audio, Priority::Demand, Priority::Prefetch] {
                Frame::encode_request_into(9, 1 << 33, priority, &request, &mut buf);
                let owned = Frame::request_with_priority(9, 1 << 33, priority, request.clone());
                assert_eq!(buf, owned.encode(), "borrow-encode of {request:?}");
            }
        }
    }

    #[test]
    fn every_bit_flip_is_detected() {
        let bytes = Frame::request(3, 17, sample_request()).encode();
        for at in 0..bytes.len() {
            for bit in 0..8 {
                let mut mangled = bytes.clone();
                mangled[at] ^= 1 << bit;
                assert!(
                    Frame::decode(&mangled).is_err(),
                    "flip of bit {bit} at byte {at} went undetected"
                );
            }
        }
    }

    #[test]
    fn corruption_is_typed() {
        let mut bytes = Frame::request(1, 1, sample_request()).encode();
        bytes[0] ^= 0x40;
        assert!(matches!(Frame::decode(&bytes), Err(MinosError::Corrupt(_))));
    }

    #[test]
    fn sub_trailer_frames_are_codec_errors() {
        assert!(matches!(Frame::decode(&[]), Err(MinosError::Codec(_))));
        assert!(matches!(Frame::decode(&[1, 2, 3]), Err(MinosError::Codec(_))));
    }

    /// Seed of the buffer the stride and offset goldens slice ("MINOS").
    const GOLDEN_SEED: u64 = 0x004d_494e_4f53;

    /// Deterministic test bytes (splitmix64), so the golden CRCs below pin
    /// a fixed input rather than whatever a generator happens to emit.
    fn seeded_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                (z ^ (z >> 31)).to_le_bytes()[0]
            })
            .collect()
    }

    /// Golden CRCs of `seeded_bytes(GOLDEN_SEED, 64)[..len]` for len 1..=17.
    const CRC_BY_LENGTH: [u32; 17] = [
        0x23d6_0dcf,
        0xf995_6312,
        0xf34f_8e5b,
        0x4023_2e98,
        0x56fc_8d7d,
        0xc655_4f4f,
        0xaac3_7360,
        0x6515_70c5,
        0x7000_8b8f,
        0xf570_aeac,
        0xb99c_ced7,
        0x25d9_241e,
        0xbc4c_304e,
        0x8e0d_c9b9,
        0x7430_b523,
        0x4dc9_3b9d,
        0x6644_9881,
    ];

    /// Golden CRCs of `seeded_bytes(GOLDEN_SEED, 64)[offset..]` for offset 1..=7.
    const CRC_BY_OFFSET: [u32; 7] =
        [0x3d5e_f786, 0x31bb_77fb, 0x5d0b_a3d1, 0x1616_3480, 0x69f3_af1d, 0xcd9b_24ae, 0xf9b0_b016];

    #[test]
    fn crc32_known_vector() {
        // The standard IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
        // Lengths 1..=17 cover a pure remainder, one and two whole 8-byte
        // strides, and strides followed by every remainder length; offsets
        // 1..=7 start the strides at every misalignment.
        let buf = seeded_bytes(GOLDEN_SEED, 64);
        for (len, want) in (1..=17).zip(CRC_BY_LENGTH) {
            assert_eq!(crc32(&buf[..len]), want, "length {len}");
        }
        for (offset, want) in (1..=7).zip(CRC_BY_OFFSET) {
            assert_eq!(crc32(&buf[offset..]), want, "offset {offset}");
        }
        // Whole 8 KiB and 32 KiB fleet pages.
        assert_eq!(crc32(&seeded_bytes(8, 8 * 1024)), 0x6fa7_7bec);
        assert_eq!(crc32(&seeded_bytes(32, 32 * 1024)), 0x7a0e_208a);
    }

    #[test]
    fn window_admits_up_to_capacity() {
        let mut w = InflightWindow::new(2);
        assert_eq!(w.capacity(), 2);
        assert!(w.open(1));
        assert!(w.open(2));
        assert!(w.is_full());
        assert!(!w.open(3), "full window admits nothing");
        assert!(!w.open(1), "duplicate ids rejected");
        assert_eq!(w.oldest(), Some(1));
        assert!(w.close(1));
        assert!(!w.close(1), "double close rejected");
        assert!(w.open(3));
        assert_eq!(w.len(), 2);
    }

    #[test]
    fn zero_capacity_window_still_opens() {
        let mut w = InflightWindow::new(0);
        assert_eq!(w.capacity(), 1);
        assert!(w.open(1));
        assert!(w.is_full());
    }

    proptest! {
        #[test]
        fn frame_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = Frame::decode(&bytes);
            let _ = FramePayload::decode(&bytes);
        }

        #[test]
        fn frame_encode_decode_identity(conn in 0u64..1 << 40, rid in 0u64..1 << 40) {
            let frame = Frame::request(conn, rid, sample_request());
            prop_assert_eq!(Frame::decode(&frame.encode()).unwrap(), frame);
        }
    }
}
