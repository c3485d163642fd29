//! Golden raster data for the server's view path.
//!
//! A view window is `Bitmap::extract`, a miniature is `Miniature::build`,
//! and both travel as `DataPayload::image` bytes. These word-parallel
//! kernels have no per-pixel twin to compare against, so their output is
//! pinned here as CRC-32 digests of the encoded payloads, recorded from
//! the per-pixel implementations they replaced. The widths straddle the
//! 64-bit word and the 8-bit byte boundaries; the windows start and end
//! inside words and include windows clamped at the right and bottom
//! edges; the miniature factors include ones wider than a word. Pixel-level
//! properties stated through `get` cover random shapes beyond the table.

use minos::image::{Bitmap, Miniature};
use minos::net::crc32;
use minos::object::DataPayload;
use minos::types::Rect;
use proptest::prelude::*;

/// Deterministic LCG for the seeded rasters (same constants as the
/// golden-stream scripts in `command_fuzz.rs`).
fn lcg_next(state: &mut u64) -> u64 {
    *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    *state >> 33
}

/// A `width × height` bitmap whose pixels are each ink with probability
/// `1 / sparsity`, drawn from `seed`.
fn seeded(width: u32, height: u32, seed: u64, sparsity: u64) -> Bitmap {
    let mut bm = Bitmap::new(width, height);
    let mut state = seed;
    for y in 0..height as i32 {
        for x in 0..width as i32 {
            if lcg_next(&mut state).is_multiple_of(sparsity) {
                bm.set(x, y, true);
            }
        }
    }
    bm
}

/// CRC-32 and length of the image payload bytes of `bm`.
fn digest(bm: &Bitmap) -> (u32, usize) {
    let bytes = DataPayload::image(bm).bytes;
    (crc32(&bytes), bytes.len())
}

/// Height of the seeded bitmap of `width` in [`GOLDEN_IMAGES`].
fn image_height(width: u32) -> u32 {
    3 + width % 11
}

/// `(width, CRC-32 of the image payload, payload bytes)` for
/// `seeded(width, image_height(width), width + 1, 3)`.
const GOLDEN_IMAGES: [(u32, u32, usize); 14] = [
    (0, 0x77977087, 8),
    (1, 0xed910318, 9),
    (7, 0xfe59b8cb, 17),
    (8, 0xb35b4c65, 19),
    (9, 0x01e9deb3, 22),
    (63, 0xefb4fd04, 95),
    (64, 0x17001b73, 104),
    (65, 0xf339ac2a, 114),
    (127, 0xe6653697, 151),
    (128, 0x404a8baa, 168),
    (129, 0x5c8a8fe6, 186),
    (160, 0x15e1f087, 188),
    (300, 0x5dc0a2a6, 233),
    (901, 0x1f3f4649, 1473),
];

/// The view sources: `(width, height, seed, sparsity)`.
const VIEW_SOURCES: [(u32, u32, u64, u64); 2] = [(300, 97, 7, 3), (901, 40, 9, 5)];

/// `(source, requested x, y, width, height, CRC-32, payload bytes)`. The
/// request is clamped inside the source exactly as the server clamps a
/// `FetchView` rectangle before extracting it.
const GOLDEN_VIEWS: [(usize, i32, i32, u32, u32, u32, usize); 19] = [
    (0, 0, 0, 300, 97, 0x64d44d9e, 3646),
    (0, 1, 0, 64, 5, 0x2ef67816, 48),
    (0, 63, 2, 2, 3, 0x95859285, 9),
    (0, 63, 1, 65, 10, 0x91e65311, 90),
    (0, 64, 0, 64, 97, 0x93236935, 784),
    (0, 65, 3, 129, 40, 0xd7ceed2f, 653),
    (0, 127, 7, 1, 1, 0xbb1519cb, 9),
    (0, 171, 11, 129, 86, 0xa10467aa, 1395),
    (0, 5, 10, 160, 120, 0x7d5ba8f8, 1948),
    (0, 200, 50, 160, 120, 0x891731b0, 1948),
    (0, 250, 90, 40, 20, 0xe5643e4b, 108),
    (0, 290, 0, 20, 8, 0x42e41b37, 28),
    (0, 100, 20, 0, 5, 0x52fc2f5b, 8),
    (0, 3, 3, 61, 0, 0x7bea99c5, 8),
    (0, -5, -5, 10, 10, 0xe0621917, 21),
    (1, 600, 0, 301, 40, 0x6e2849e8, 1513),
    (1, 333, 5, 200, 30, 0xb246d3a9, 758),
    (1, 777, 30, 160, 120, 0xaadfe49f, 808),
    (1, 62, 1, 777, 33, 0x55604a3f, 3214),
];

/// The miniature sources: `(width, height, seed, sparsity)` — one sparse
/// enough that most blocks stay blank, one dense enough that small blocks
/// are mixed.
const MINIATURE_SOURCES: [(u32, u32, u64, u64); 2] = [(901, 260, 11, 3000), (300, 97, 7, 50)];

/// `(source, factor, CRC-32 of the miniature's image payload, bytes)`.
const GOLDEN_MINIATURES: [(usize, u32, u32, usize); 12] = [
    (0, 1, 0xdfe50450, 29291),
    (0, 3, 0x5b8110a2, 3282),
    (0, 8, 0x3f3bdc82, 475),
    (0, 64, 0x41b35984, 18),
    (0, 65, 0xaf6be8d6, 15),
    (0, 100, 0x29be4a3e, 12),
    (1, 1, 0xbb8333f6, 3646),
    (1, 3, 0xcc079285, 421),
    (1, 8, 0xb2821ffa, 70),
    (1, 64, 0x4246aef1, 10),
    (1, 65, 0x4246aef1, 10),
    (1, 100, 0x7c809478, 9),
];

fn source((width, height, seed, sparsity): (u32, u32, u64, u64)) -> Bitmap {
    seeded(width, height, seed, sparsity)
}

#[test]
fn image_payloads_match_the_recorded_digests() {
    for (width, crc, len) in GOLDEN_IMAGES {
        let bm = seeded(width, image_height(width), width as u64 + 1, 3);
        assert_eq!(digest(&bm), (crc, len), "image payload of width {width}");
        assert_eq!(DataPayload::image(&bm).as_image().unwrap(), bm, "round trip at width {width}");
    }
}

#[test]
fn view_windows_match_the_recorded_digests() {
    let sources: Vec<Bitmap> = VIEW_SOURCES.into_iter().map(source).collect();
    for (src, x, y, w, h, crc, len) in GOLDEN_VIEWS {
        let rect = Rect::new(x, y, w, h).clamp_within(sources[src].bounds());
        let window = sources[src].extract(rect).unwrap();
        assert_eq!(digest(&window), (crc, len), "view {rect:?} of source {src}");
    }
}

#[test]
fn miniatures_match_the_recorded_digests() {
    let sources: Vec<Bitmap> = MINIATURE_SOURCES.into_iter().map(source).collect();
    for (src, factor, crc, len) in GOLDEN_MINIATURES {
        let mini = Miniature::build(&sources[src], factor);
        assert_eq!(digest(mini.raster()), (crc, len), "factor {factor} of source {src}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn extract_reads_exactly_the_source_pixels(
        (w, h) in (0u32..200, 0u32..12),
        seed in any::<u64>(),
        (fx, fy, fw, fh) in (any::<u32>(), any::<u32>(), any::<u32>(), any::<u32>()),
    ) {
        let src = seeded(w, h, seed, 2);
        let (rw, rh) = (fw % (w + 1), fh % (h + 1));
        let r = Rect::new((fx % (w - rw + 1)) as i32, (fy % (h - rh + 1)) as i32, rw, rh);
        let window = src.extract(r).unwrap();
        prop_assert_eq!(window.size(), r.size);
        let mut ink = 0;
        for y in 0..rh as i32 {
            for x in 0..rw as i32 {
                prop_assert_eq!(window.get(x, y), src.get(r.left() + x, r.top() + y));
                ink += u64::from(window.get(x, y));
            }
        }
        // Equal counts mean no ink hides in the padding past the width.
        prop_assert_eq!(window.count_ink(), ink);
    }

    #[test]
    fn miniature_pixels_are_the_or_of_their_blocks(
        (w, h) in (0u32..300, 0u32..24),
        seed in any::<u64>(),
        factor in 1u32..150,
        sparsity in proptest::sample::select(vec![2u64, 50, u64::MAX]),
        (dx, dy) in (any::<u32>(), any::<u32>()),
    ) {
        // Plus one dot, so a sparse source has exactly one inked block
        // and a wide factor's ink can sit past the block's first word.
        let mut src = seeded(w, h, seed, sparsity);
        if w > 0 && h > 0 {
            src.set((dx % w) as i32, (dy % h) as i32, true);
        }
        let mini = Miniature::build(&src, factor);
        let raster = mini.raster();
        prop_assert_eq!((raster.width(), raster.height()), (w.div_ceil(factor), h.div_ceil(factor)));
        let f = factor as i32;
        let mut ink = 0;
        for y in 0..raster.height() as i32 {
            for x in 0..raster.width() as i32 {
                let block = (0..f).any(|by| (0..f).any(|bx| src.get(x * f + bx, y * f + by)));
                prop_assert_eq!(raster.get(x, y), block, "pixel ({}, {}) at factor {}", x, y, f);
                ink += u64::from(block);
            }
        }
        prop_assert_eq!(raster.count_ink(), ink);
    }

    #[test]
    fn stray_bits_past_the_last_pixel_are_ignored(
        (w, h) in (1u32..200, 1u32..9),
        seed in any::<u64>(),
        stray in any::<u8>(),
    ) {
        let bm = seeded(w, h, seed, 2);
        let canonical = DataPayload::image(&bm);
        let used = (u64::from(w) * u64::from(h) % 8) as u32;
        let mut payload = canonical.clone();
        if used != 0 {
            // The top bit of a partial last byte is always past the last
            // pixel; `stray` picks which of the other unused bits are set.
            let unused = !((1u8 << used) - 1);
            if let Some(last) = payload.bytes.last_mut() {
                *last |= (stray | 0x80) & unused;
            }
        }
        let decoded = payload.as_image().unwrap();
        prop_assert_eq!(&decoded, &bm);
        prop_assert_eq!(DataPayload::image(&decoded), canonical);
    }
}
