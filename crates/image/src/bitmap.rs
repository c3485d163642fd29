//! Bit-packed monochrome rasters.
//!
//! A [`Bitmap`] is the concrete form of every image on the simulated
//! workstation: captured pages, x-rays, maps, rendered graphics, the screen
//! itself. Pixels are 1 (ink) or 0 (background), packed 64 per word. The
//! blit modes correspond to presentation semantics: `Replace` for ordinary
//! page drawing, `Or` for transparencies (ink accumulates, background shows
//! through), and masked blits for overwrites (§2: overwrite content
//! "replace\[s\] whatever existed in the previous page but … leave\[s\]
//! anything else intact").
//!
//! Each row starts on a fresh word, and the bits past `width` in a row's
//! last word are always zero. [`Bitmap::set`] never writes there, the
//! derived `PartialEq` relies on it, and the word kernels below rely on it
//! too. The kernels on the server's view path move whole words rather
//! than pixels: [`Bitmap::extract`] (a view window), the image payload
//! stream ([`Bitmap::pack_bits_into`], [`Bitmap::from_packed_bits`]) and
//! the miniature's OR-downsampling are all built from one shifted read of
//! 64 bits at any bit offset plus one row-tail mask, so a 160 × 120 window
//! costs a few hundred word operations instead of 19,200 bounds-checked
//! pixel reads and writes.

use minos_types::{MinosError, Point, Rect, Result, Size};

/// How source pixels combine with destination pixels in a blit.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BlitMode {
    /// Destination := source.
    Replace,
    /// Destination := destination OR source (transparency superposition).
    Or,
    /// Destination := destination AND NOT source (erase source ink).
    Clear,
    /// Destination := destination XOR source (highlight flashing).
    Xor,
}

/// A monochrome bitmap.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Bitmap {
    width: u32,
    height: u32,
    /// Row-major, `words_per_row` u64 words per row, LSB-first within each
    /// word. Bits past `width` in a row's last word are always zero.
    words: Vec<u64>,
    words_per_row: u32,
}

/// Mask of the bits of a row's last word that lie inside a row of `bits`
/// pixels: all ones when `bits` is a multiple of 64. For `1 ≤ bits ≤ 64`
/// it is simply the low `bits` bits.
fn tail_mask(bits: u32) -> u64 {
    u64::MAX >> ((64 - bits % 64) % 64)
}

/// The 64 bits of `row` starting at bit `bit`, LSB-first; bits past the
/// end of `row` read as zero.
fn read_bits(row: &[u64], bit: usize) -> u64 {
    let (word, shift) = (bit / 64, bit % 64);
    let low = row.get(word).map_or(0, |w| w >> shift);
    if shift == 0 {
        return low;
    }
    low | row.get(word + 1).map_or(0, |w| w << (64 - shift))
}

/// Fills `dst` (one destination row) with the bits of `src` from bit
/// `bit` on, masking the row's last word with `mask`.
fn copy_bits(dst: &mut [u64], src: &[u64], bit: usize, mask: u64) {
    for (i, word) in dst.iter_mut().enumerate() {
        *word = read_bits(src, bit + 64 * i);
    }
    if let Some(last) = dst.last_mut() {
        *last &= mask;
    }
}

impl Bitmap {
    /// Creates an all-background bitmap.
    pub fn new(width: u32, height: u32) -> Self {
        let words_per_row = width.div_ceil(64);
        Bitmap {
            width,
            height,
            words: vec![0; (words_per_row as usize) * (height as usize)],
            words_per_row,
        }
    }

    /// Creates a bitmap of `size`.
    pub fn of_size(size: Size) -> Self {
        Self::new(size.width, size.height)
    }

    /// Width in pixels.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Height in pixels.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Extent as a [`Size`].
    pub fn size(&self) -> Size {
        Size::new(self.width, self.height)
    }

    /// The bitmap's bounds as a rectangle at the origin.
    pub fn bounds(&self) -> Rect {
        Rect::of_size(self.size())
    }

    /// Storage footprint in bytes — what a transfer of this bitmap costs on
    /// the simulated network and disks.
    pub fn byte_size(&self) -> u64 {
        self.words.len() as u64 * 8
    }

    /// Words per row.
    fn words_per_row(&self) -> usize {
        self.words_per_row as usize
    }

    #[inline]
    fn index(&self, x: u32, y: u32) -> (usize, u64) {
        let word = y as usize * self.words_per_row as usize + (x / 64) as usize;
        let bit = 1u64 << (x % 64);
        (word, bit)
    }

    /// Pixel value at `(x, y)`; out-of-bounds reads are background.
    pub fn get(&self, x: i32, y: i32) -> bool {
        if x < 0 || y < 0 || x as u32 >= self.width || y as u32 >= self.height {
            return false;
        }
        let (w, b) = self.index(x as u32, y as u32);
        self.words[w] & b != 0
    }

    /// Sets the pixel at `(x, y)`; out-of-bounds writes are ignored
    /// (rasterization clips at edges).
    pub fn set(&mut self, x: i32, y: i32, ink: bool) {
        if x < 0 || y < 0 || x as u32 >= self.width || y as u32 >= self.height {
            return;
        }
        let (w, b) = self.index(x as u32, y as u32);
        if ink {
            self.words[w] |= b;
        } else {
            self.words[w] &= !b;
        }
    }

    /// Number of ink pixels.
    pub fn count_ink(&self) -> u64 {
        self.words.iter().map(|w| w.count_ones() as u64).sum()
    }

    /// Whether the bitmap has no ink at all.
    pub fn is_blank(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Fills `rect` (clipped to bounds) with ink or background.
    pub fn fill_rect(&mut self, rect: Rect, ink: bool) {
        let Some(r) = rect.intersect(self.bounds()) else { return };
        for y in r.top()..r.bottom() {
            for x in r.left()..r.right() {
                self.set(x, y, ink);
            }
        }
    }

    /// Copies the pixels of `rect` (which must lie within bounds) into a
    /// new bitmap — the retrieval primitive behind views: "The system will
    /// only retrieve the relevant data" (§2).
    pub fn extract(&self, rect: Rect) -> Result<Bitmap> {
        if !self.bounds().contains_rect(rect) {
            return Err(MinosError::Geometry(format!(
                "extract rect {rect:?} outside bitmap {}x{}",
                self.width, self.height
            )));
        }
        let mut out = Bitmap::new(rect.size.width, rect.size.height);
        let out_words = out.words_per_row();
        if out_words == 0 {
            return Ok(out);
        }
        // Each window word is one shifted read of its source row.
        let mask = tail_mask(out.width);
        let rows = self.words.chunks_exact(self.words_per_row()).skip(rect.top() as usize);
        for (dst, src) in out.words.chunks_exact_mut(out_words).zip(rows) {
            copy_bits(dst, src, rect.left() as usize, mask);
        }
        Ok(out)
    }

    /// Appends the pixels to `out` as a bit stream: row-major, LSB-first
    /// within each byte, rows not padded apart, and the last byte
    /// zero-filled — `⌈width × height / 8⌉` bytes, the device-independent
    /// form of an image payload.
    pub fn pack_bits_into(&self, out: &mut Vec<u8>) {
        out.reserve((self.width as u64 * self.height as u64).div_ceil(8) as usize);
        if self.words_per_row() == 0 {
            return;
        }
        // `acc` holds the `filled` (< 64) stream bits not yet written.
        let mut acc = 0u64;
        let mut filled = 0u32;
        for row in self.words.chunks_exact(self.words_per_row()) {
            let mut left = self.width;
            for &word in row {
                let bits = left.min(64);
                left -= bits;
                acc |= word << filled;
                if filled + bits >= 64 {
                    out.extend_from_slice(&acc.to_le_bytes());
                    acc = if filled == 0 { 0 } else { word >> (64 - filled) };
                    filled = filled + bits - 64;
                } else {
                    filled += bits;
                }
            }
        }
        out.extend_from_slice(&acc.to_le_bytes()[..filled.div_ceil(8) as usize]);
    }

    /// Rebuilds a `width × height` bitmap from the bit stream written by
    /// [`Bitmap::pack_bits_into`]. Bits past the last pixel (the stray
    /// high bits of a partial last byte, or trailing bytes) are ignored,
    /// and pixels past the end of `bits` read as background.
    pub fn from_packed_bits(width: u32, height: u32, bits: &[u8]) -> Bitmap {
        let mut bm = Bitmap::new(width, height);
        let row_words = bm.words_per_row();
        if row_words == 0 {
            return bm;
        }
        let stream: Vec<u64> = bits
            .chunks(8)
            .map(|chunk| {
                let mut word = [0u8; 8];
                word[..chunk.len()].copy_from_slice(chunk);
                u64::from_le_bytes(word)
            })
            .collect();
        // Each row is a window of the stream starting at bit `y × width`.
        let mask = tail_mask(width);
        for (y, dst) in bm.words.chunks_exact_mut(row_words).enumerate() {
            copy_bits(dst, &stream, y * width as usize, mask);
        }
        bm
    }

    /// OR-downsamples by `factor`: output pixel `(x, y)` is ink if any
    /// pixel of the `factor × factor` block at `(x·factor, y·factor)` is
    /// (blocks at the right and bottom edges are clipped). Each output
    /// row ORs its `factor` source rows together word by word, then tests
    /// each `factor`-bit group of that band with a mask — several reads
    /// when the factor is wider than a word.
    pub(crate) fn or_downsample(&self, factor: u32) -> Bitmap {
        assert!(factor > 0, "factor must be positive");
        let mut out = Bitmap::new(self.width.div_ceil(factor), self.height.div_ceil(factor));
        let (src_words, out_words) = (self.words_per_row(), out.words_per_row());
        if src_words == 0 {
            return out;
        }
        let f = factor as usize;
        let mut band = vec![0u64; src_words];
        let bands = self.words.chunks(src_words * f);
        for (rows, dst) in bands.zip(out.words.chunks_exact_mut(out_words)) {
            band.fill(0);
            for row in rows.chunks_exact(src_words) {
                for (b, w) in band.iter_mut().zip(row) {
                    *b |= w;
                }
            }
            for x in 0..out.width as usize {
                let ink = (0..f)
                    .step_by(64)
                    .any(|k| read_bits(&band, x * f + k) & tail_mask((f - k).min(64) as u32) != 0);
                if ink {
                    dst[x / 64] |= 1 << (x % 64);
                }
            }
        }
        out
    }

    /// Blits `src` onto `self` with its top-left corner at `at`, combining
    /// pixels per `mode`. Source pixels falling outside `self` are clipped.
    pub fn blit(&mut self, src: &Bitmap, at: Point, mode: BlitMode) {
        for y in 0..src.height as i32 {
            for x in 0..src.width as i32 {
                let s = src.get(x, y);
                let dx = at.x + x;
                let dy = at.y + y;
                match mode {
                    BlitMode::Replace => self.set(dx, dy, s),
                    BlitMode::Or => {
                        if s {
                            self.set(dx, dy, true);
                        }
                    }
                    BlitMode::Clear => {
                        if s {
                            self.set(dx, dy, false);
                        }
                    }
                    BlitMode::Xor => {
                        if s {
                            let d = self.get(dx, dy);
                            self.set(dx, dy, !d);
                        }
                    }
                }
            }
        }
    }

    /// Masked blit: where `mask` has ink, destination := `src` pixel;
    /// elsewhere the destination is left intact. This is the §2 overwrite
    /// semantics — note a masked pixel may be *blank* in `src`, which is
    /// how Figures 9–10 blank out the walked route.
    pub fn blit_masked(&mut self, src: &Bitmap, mask: &Bitmap, at: Point) {
        debug_assert_eq!(src.size(), mask.size(), "mask must match source size");
        for y in 0..src.height as i32 {
            for x in 0..src.width as i32 {
                if mask.get(x, y) {
                    self.set(at.x + x, at.y + y, src.get(x, y));
                }
            }
        }
    }

    /// Rows as strings of `#`/`.` for golden tests and terminal demos.
    pub fn to_ascii(&self) -> Vec<String> {
        (0..self.height as i32)
            .map(|y| {
                (0..self.width as i32).map(|x| if self.get(x, y) { '#' } else { '.' }).collect()
            })
            .collect()
    }

    /// Parses the format produced by [`Bitmap::to_ascii`]; any character
    /// other than `.` or space is ink.
    pub fn from_ascii(rows: &[&str]) -> Bitmap {
        let height = rows.len() as u32;
        let width = rows.iter().map(|r| r.chars().count()).max().unwrap_or(0) as u32;
        let mut bm = Bitmap::new(width, height);
        for (y, row) in rows.iter().enumerate() {
            for (x, ch) in row.chars().enumerate() {
                if ch != '.' && ch != ' ' {
                    bm.set(x as i32, y as i32, true);
                }
            }
        }
        bm
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn new_bitmap_is_blank() {
        let bm = Bitmap::new(100, 50);
        assert!(bm.is_blank());
        assert_eq!(bm.count_ink(), 0);
        assert_eq!(bm.size(), Size::new(100, 50));
    }

    #[test]
    fn set_get_round_trip() {
        let mut bm = Bitmap::new(130, 4); // spans multiple words per row
        bm.set(0, 0, true);
        bm.set(63, 1, true);
        bm.set(64, 1, true);
        bm.set(129, 3, true);
        assert!(bm.get(0, 0));
        assert!(bm.get(63, 1));
        assert!(bm.get(64, 1));
        assert!(bm.get(129, 3));
        assert!(!bm.get(1, 0));
        assert_eq!(bm.count_ink(), 4);
        bm.set(63, 1, false);
        assert!(!bm.get(63, 1));
        assert_eq!(bm.count_ink(), 3);
    }

    #[test]
    fn out_of_bounds_access_is_safe() {
        let mut bm = Bitmap::new(10, 10);
        bm.set(-1, 5, true);
        bm.set(5, -1, true);
        bm.set(10, 5, true);
        bm.set(5, 10, true);
        assert!(bm.is_blank());
        assert!(!bm.get(-1, -1));
        assert!(!bm.get(100, 100));
    }

    #[test]
    fn fill_rect_clips() {
        let mut bm = Bitmap::new(10, 10);
        bm.fill_rect(Rect::new(5, 5, 100, 100), true);
        assert_eq!(bm.count_ink(), 25);
        bm.fill_rect(Rect::new(-100, -100, 10, 10), true);
        assert_eq!(bm.count_ink(), 25); // fully off-screen
        bm.fill_rect(Rect::new(0, 0, 10, 10), false);
        assert!(bm.is_blank());
    }

    #[test]
    fn extract_matches_source() {
        let mut bm = Bitmap::new(20, 20);
        bm.fill_rect(Rect::new(4, 4, 6, 6), true);
        let ex = bm.extract(Rect::new(2, 2, 10, 10)).unwrap();
        assert_eq!(ex.size(), Size::new(10, 10));
        assert_eq!(ex.count_ink(), 36);
        assert!(ex.get(2, 2));
        assert!(!ex.get(0, 0));
    }

    #[test]
    fn extract_out_of_bounds_is_error() {
        let bm = Bitmap::new(20, 20);
        assert!(bm.extract(Rect::new(15, 15, 10, 10)).is_err());
        assert!(bm.extract(Rect::new(-1, 0, 5, 5)).is_err());
        assert!(bm.extract(Rect::new(0, 0, 20, 20)).is_ok());
    }

    #[test]
    fn blit_replace_copies_background_too() {
        let mut dst = Bitmap::new(8, 8);
        dst.fill_rect(Rect::new(0, 0, 8, 8), true);
        let src = Bitmap::new(4, 4); // blank
        dst.blit(&src, Point::new(2, 2), BlitMode::Replace);
        assert_eq!(dst.count_ink(), 64 - 16);
        assert!(!dst.get(3, 3));
        assert!(dst.get(0, 0));
    }

    #[test]
    fn blit_or_accumulates_ink() {
        let mut dst = Bitmap::new(8, 8);
        dst.set(0, 0, true);
        let mut src = Bitmap::new(8, 8);
        src.set(1, 1, true);
        dst.blit(&src, Point::ORIGIN, BlitMode::Or);
        assert!(dst.get(0, 0), "OR must not erase existing ink");
        assert!(dst.get(1, 1));
    }

    #[test]
    fn blit_clear_and_xor() {
        let mut dst = Bitmap::new(4, 4);
        dst.fill_rect(Rect::new(0, 0, 4, 4), true);
        let mut src = Bitmap::new(4, 4);
        src.set(1, 1, true);
        src.set(2, 2, true);
        dst.blit(&src, Point::ORIGIN, BlitMode::Clear);
        assert!(!dst.get(1, 1));
        assert!(dst.get(0, 0));
        dst.blit(&src, Point::ORIGIN, BlitMode::Xor);
        assert!(dst.get(1, 1)); // was cleared, xor sets
        assert!(dst.get(0, 0)); // untouched by xor (src blank there)
    }

    #[test]
    fn blit_clips_at_edges() {
        let mut dst = Bitmap::new(4, 4);
        let mut src = Bitmap::new(4, 4);
        src.fill_rect(Rect::new(0, 0, 4, 4), true);
        dst.blit(&src, Point::new(2, 2), BlitMode::Or);
        assert_eq!(dst.count_ink(), 4);
        dst.blit(&src, Point::new(-2, -2), BlitMode::Or);
        // Adds the (0..2)x(0..2) block, disjoint from the first blit.
        assert_eq!(dst.count_ink(), 8);
    }

    #[test]
    fn masked_blit_replaces_only_under_mask() {
        // Destination all ink; source blank; mask marks a 2x2 block: those
        // pixels become blank (the "blank spots" of Figures 9-10).
        let mut dst = Bitmap::new(4, 4);
        dst.fill_rect(Rect::new(0, 0, 4, 4), true);
        let src = Bitmap::new(4, 4);
        let mut mask = Bitmap::new(4, 4);
        mask.fill_rect(Rect::new(1, 1, 2, 2), true);
        dst.blit_masked(&src, &mask, Point::ORIGIN);
        assert!(!dst.get(1, 1));
        assert!(!dst.get(2, 2));
        assert!(dst.get(0, 0), "unmasked pixels left intact");
        assert_eq!(dst.count_ink(), 12);
    }

    #[test]
    fn ascii_round_trip() {
        let rows = ["#..#", ".##.", "#..#"];
        let bm = Bitmap::from_ascii(&rows);
        assert_eq!(bm.to_ascii(), vec!["#..#", ".##.", "#..#"]);
        assert_eq!(bm.count_ink(), 6);
    }

    #[test]
    fn byte_size_accounts_packing() {
        assert_eq!(Bitmap::new(64, 10).byte_size(), 80);
        assert_eq!(Bitmap::new(65, 10).byte_size(), 160);
        assert_eq!(Bitmap::new(1, 1).byte_size(), 8);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn blit_or_is_idempotent(
            pts in proptest::collection::vec((0i32..16, 0i32..16), 0..32)
        ) {
            let mut src = Bitmap::new(16, 16);
            for (x, y) in &pts {
                src.set(*x, *y, true);
            }
            let mut once = Bitmap::new(16, 16);
            once.blit(&src, Point::ORIGIN, BlitMode::Or);
            let mut twice = once.clone();
            twice.blit(&src, Point::ORIGIN, BlitMode::Or);
            prop_assert_eq!(once, twice);
        }

        #[test]
        fn xor_twice_is_identity(
            base_pts in proptest::collection::vec((0i32..16, 0i32..16), 0..32),
            src_pts in proptest::collection::vec((0i32..16, 0i32..16), 0..32),
        ) {
            let mut dst = Bitmap::new(16, 16);
            for (x, y) in &base_pts { dst.set(*x, *y, true); }
            let orig = dst.clone();
            let mut src = Bitmap::new(16, 16);
            for (x, y) in &src_pts { src.set(*x, *y, true); }
            dst.blit(&src, Point::ORIGIN, BlitMode::Xor);
            dst.blit(&src, Point::ORIGIN, BlitMode::Xor);
            prop_assert_eq!(dst, orig);
        }

        #[test]
        fn extract_then_blit_replace_round_trips(
            pts in proptest::collection::vec((0i32..12, 0i32..12), 0..40)
        ) {
            let mut bm = Bitmap::new(12, 12);
            for (x, y) in &pts { bm.set(*x, *y, true); }
            let rect = Rect::new(2, 3, 8, 7);
            let ex = bm.extract(rect).unwrap();
            let mut back = bm.clone();
            back.fill_rect(rect, false);
            back.blit(&ex, rect.origin, BlitMode::Or);
            prop_assert_eq!(back, bm);
        }
    }
}
