//! Typed data payloads.
//!
//! The composition file and the archiver store *bytes*; the editors and the
//! presentation manager work with typed media. A [`DataPayload`] is the
//! bridge: a kind tag plus the canonical byte serialization of one piece of
//! media. "The presentation interface of the archiver expects always the
//! data in its final form" (§4) — `DataPayload` *is* that final form.

use minos_image::Bitmap;
use minos_types::{Decoder, Encoder, MinosError, Result};

/// The media kind of a data file.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum DataKind {
    /// Markup text (a text segment's source).
    Text,
    /// A raster image.
    Image,
    /// Digitized voice samples.
    Voice,
}

impl DataKind {
    /// Wire tag.
    pub fn tag(self) -> u8 {
        match self {
            DataKind::Text => 1,
            DataKind::Image => 2,
            DataKind::Voice => 3,
        }
    }

    /// Parses a wire tag.
    pub fn from_tag(tag: u8) -> Result<DataKind> {
        match tag {
            1 => Ok(DataKind::Text),
            2 => Ok(DataKind::Image),
            3 => Ok(DataKind::Voice),
            other => Err(MinosError::Codec(format!("unknown data kind tag {other}"))),
        }
    }
}

/// One data file's content in final (archival) form.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DataPayload {
    /// Media kind.
    pub kind: DataKind,
    /// Canonical bytes.
    pub bytes: Vec<u8>,
}

impl DataPayload {
    /// A text payload: UTF-8 markup source.
    pub fn text(markup_source: &str) -> Self {
        DataPayload { kind: DataKind::Text, bytes: markup_source.as_bytes().to_vec() }
    }

    /// Decodes a text payload back to markup source.
    pub fn as_text(&self) -> Result<String> {
        if self.kind != DataKind::Text {
            return Err(MinosError::Codec("payload is not text".into()));
        }
        String::from_utf8(self.bytes.clone())
            .map_err(|e| MinosError::Codec(format!("invalid utf-8 in text payload: {e}")))
    }

    /// An image payload: bit-packed raster with a small header — width,
    /// height, then the pixels as [`Bitmap::pack_bits_into`]'s row-major
    /// bit stream, 8 per byte, for a device-independent form.
    pub fn image(bitmap: &Bitmap) -> Self {
        let mut e = Encoder::with_capacity(16 + bitmap.byte_size() as usize);
        e.put_u32(bitmap.width());
        e.put_u32(bitmap.height());
        let mut bytes = e.finish();
        bitmap.pack_bits_into(&mut bytes);
        DataPayload { kind: DataKind::Image, bytes }
    }

    /// Decodes an image payload. Stray bits past the last pixel in the
    /// final byte are ignored.
    pub fn as_image(&self) -> Result<Bitmap> {
        if self.kind != DataKind::Image {
            return Err(MinosError::Codec("payload is not an image".into()));
        }
        let mut d = Decoder::new(&self.bytes);
        let width = d.get_u32()?;
        let height = d.get_u32()?;
        let total_bits = width as u64 * height as u64;
        let need = total_bits.div_ceil(8) as usize;
        let data = d.get_raw(need)?;
        d.expect_end()?;
        Ok(Bitmap::from_packed_bits(width, height, data))
    }

    /// A voice payload: sample rate plus 16-bit little-endian samples.
    pub fn voice(samples: &[i16], sample_rate: u32) -> Self {
        let mut e = Encoder::with_capacity(8 + samples.len() * 2);
        e.put_u32(sample_rate);
        e.put_u32(samples.len() as u32);
        for &s in samples {
            e.put_u16(s as u16);
        }
        DataPayload { kind: DataKind::Voice, bytes: e.finish() }
    }

    /// Decodes a voice payload to `(samples, sample_rate)`.
    pub fn as_voice(&self) -> Result<(Vec<i16>, u32)> {
        if self.kind != DataKind::Voice {
            return Err(MinosError::Codec("payload is not voice".into()));
        }
        let mut d = Decoder::new(&self.bytes);
        let rate = d.get_u32()?;
        let n = d.get_u32()? as usize;
        let mut samples = Vec::with_capacity(n);
        for _ in 0..n {
            samples.push(d.get_u16()? as i16);
        }
        d.expect_end()?;
        Ok((samples, rate))
    }

    /// Length in bytes — what storing or shipping this payload costs.
    pub fn len(&self) -> u64 {
        self.bytes.len() as u64
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minos_types::Rect;
    use proptest::prelude::*;

    #[test]
    fn kind_tags_round_trip() {
        for kind in [DataKind::Text, DataKind::Image, DataKind::Voice] {
            assert_eq!(DataKind::from_tag(kind.tag()).unwrap(), kind);
        }
        assert!(DataKind::from_tag(0).is_err());
        assert!(DataKind::from_tag(9).is_err());
    }

    #[test]
    fn text_round_trip() {
        let p = DataPayload::text(".ch Intro\nSome *bold* text.\n");
        assert_eq!(p.as_text().unwrap(), ".ch Intro\nSome *bold* text.\n");
        assert!(p.as_image().is_err());
        assert!(p.as_voice().is_err());
    }

    #[test]
    fn image_round_trip() {
        let mut bm = Bitmap::new(13, 7); // deliberately not byte-aligned
        bm.fill_rect(Rect::new(2, 1, 5, 3), true);
        bm.set(12, 6, true);
        let p = DataPayload::image(&bm);
        assert_eq!(p.as_image().unwrap(), bm);
        assert!(p.as_text().is_err());
    }

    #[test]
    fn voice_round_trip() {
        let samples: Vec<i16> = vec![0, 100, -100, i16::MAX, i16::MIN, 42];
        let p = DataPayload::voice(&samples, 8_000);
        let (got, rate) = p.as_voice().unwrap();
        assert_eq!(got, samples);
        assert_eq!(rate, 8_000);
    }

    #[test]
    fn empty_payloads() {
        assert!(DataPayload::text("").is_empty());
        let p = DataPayload::voice(&[], 8_000);
        assert!(!p.is_empty()); // header bytes
        assert_eq!(p.as_voice().unwrap().0.len(), 0);
    }

    #[test]
    fn corrupt_image_is_an_error() {
        let mut p = DataPayload::image(&Bitmap::new(8, 8));
        p.bytes.truncate(6);
        assert!(p.as_image().is_err());
    }

    #[test]
    fn image_payload_size_tracks_area() {
        let small = DataPayload::image(&Bitmap::new(100, 100));
        let large = DataPayload::image(&Bitmap::new(1000, 1000));
        assert!(large.len() > small.len() * 50);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn image_round_trips_arbitrary(
            w in 0u32..300,
            h in 0u32..20,
            pts in proptest::collection::vec((0i32..300, 0i32..20), 0..256),
        ) {
            let mut bm = Bitmap::new(w, h);
            for (x, y) in pts {
                bm.set(x, y, true);
            }
            let p = DataPayload::image(&bm);
            prop_assert_eq!(p.as_image().unwrap(), bm);
        }

        #[test]
        fn voice_round_trips_arbitrary(samples in proptest::collection::vec(any::<i16>(), 0..256)) {
            let p = DataPayload::voice(&samples, 16_000);
            let (got, rate) = p.as_voice().unwrap();
            prop_assert_eq!(got, samples);
            prop_assert_eq!(rate, 16_000);
        }
    }
}
