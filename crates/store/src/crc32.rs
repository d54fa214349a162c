//! CRC-32 (IEEE 802.3 polynomial) used to checksum WAL records.
//!
//! A slicing-by-8 implementation kept local to avoid pulling a checksum
//! crate for a few dozen lines of code. The polynomial and bit order match
//! zlib's `crc32`, which makes the values easy to cross-check with external
//! tools; the test module keeps the classic one-byte-per-step table loop as
//! the reference the sliced form must equal bit for bit.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Eight 256-entry lookup tables, built at compile time. `TABLES[0]` is
/// the classic bytewise table; `TABLES[k][b]` is the CRC contribution of
/// byte `b` followed by `k` zero bytes, which lets one step fold eight
/// input bytes with eight independent lookups.
static TABLES: [[u32; 256]; 8] = tables();

const fn tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// Computes the CRC-32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut blocks = data.chunks_exact(8);
    for block in &mut blocks {
        let lo = c ^ u32::from_le_bytes([block[0], block[1], block[2], block[3]]);
        let hi = u32::from_le_bytes([block[4], block[5], block[6], block[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &byte in blocks.remainder() {
        c = t[0][((c ^ byte as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The bytewise table CRC the store shipped before slicing-by-8, with
    /// its own table built bit by bit: the reference every sliced value
    /// must equal.
    fn reference_crc32(data: &[u8]) -> u32 {
        let mut table = [0u32; 256];
        for (i, entry) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            }
            *entry = c;
        }
        let mut c = 0xFFFF_FFFFu32;
        for &byte in data {
            c = table[((c ^ byte as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    /// `len` pseudo-random bytes from `seed`.
    fn noise(seed: u64, len: usize) -> Vec<u8> {
        let mix = |i: u64| (seed ^ i).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56;
        (0..len as u64).map(|i| mix(i) as u8).collect()
    }

    #[test]
    fn known_vectors() {
        // Standard zlib test vectors.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
        assert_eq!(reference_crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn sliced_equals_bytewise_for_every_short_length_and_alignment() {
        let data = noise(7, 64 + 8);
        for start in 0..8 {
            for len in 0..=64 {
                let s = &data[start..start + len];
                assert_eq!(crc32(s), reference_crc32(s), "start {start} len {len}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn sliced_equals_bytewise_reference(
            len in 0usize..=65_536,
            seed in any::<u64>(),
            cut in (0usize..=65_536, 0usize..=65_536),
        ) {
            let data = noise(seed, len);
            prop_assert_eq!(crc32(&data), reference_crc32(&data));
            // An unaligned sub-slice anywhere in the buffer.
            let (a, b) = (cut.0.min(len), cut.1.min(len));
            let sub = &data[a.min(b)..a.max(b)];
            prop_assert_eq!(crc32(sub), reference_crc32(sub));
        }
    }

    #[test]
    fn sensitive_to_single_bit_flips() {
        let a = crc32(b"meta-rule-table");
        let b = crc32(b"meta-rule-tablf");
        assert_ne!(a, b);
    }

    #[test]
    fn deterministic() {
        let payload = vec![0xABu8; 4096];
        assert_eq!(crc32(&payload), crc32(&payload));
    }
}
