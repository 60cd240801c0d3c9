//! IEEE CRC32: a carry-less-multiply fold where the CPU has one, the
//! slicing-by-8 table everywhere else and for what the fold leaves over.
//!
//! Both compute the same function — the fold is an algebraic rewrite of
//! the table's polynomial division, not an approximation of it — so the
//! table is also the fold's test oracle.

/// The reflected IEEE polynomial.
const CRC_POLY: u32 = 0xEDB8_8320;

/// The fold starts from four 16-byte lanes; a shorter input goes through
/// the table.
#[cfg(target_arch = "x86_64")]
const FOLD_MIN: usize = 64;

/// Slicing-by-8 tables: `t[0]` is the classic byte table, `t[k][b]` is
/// the CRC of byte `b` followed by `k` zero bytes.
fn crc_tables() -> &'static [[u32; 256]; 8] {
    use std::sync::OnceLock;
    static TABLES: OnceLock<[[u32; 256]; 8]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 8];
        for (i, slot) in t[0].iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    CRC_POLY ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *slot = c;
        }
        for k in 1..8 {
            for i in 0..256 {
                let prev = t[k - 1][i];
                t[k][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            }
        }
        t
    })
}

/// IEEE CRC32 (the polynomial Ethernet, gzip and PNG share). On x86_64
/// with `pclmulqdq` and `sse4.1` an input of 64 bytes or more is folded
/// sixteen bytes per carry-less multiply and only its last 0–15 bytes go
/// through the table; elsewhere the table does it all. Both give the
/// same CRC.
pub fn crc32(bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if bytes.len() >= FOLD_MIN && fold::available() {
        let (body, tail) = bytes.split_at(bytes.len() & !15);
        // SAFETY: `available` detected both target features the fold is
        // compiled for; `body` is at least 64 bytes, a multiple of 16.
        let state = unsafe { fold::update(!0, body) };
        return !table_update(state, tail);
    }
    !table_update(!0, bytes)
}

/// Advance the (pre-inverted) CRC state over `bytes`, eight bytes per
/// step (slicing-by-8: one table lookup per input byte, but the eight
/// lookups of a step are independent of one another).
fn table_update(mut crc: u32, bytes: &[u8]) -> u32 {
    let t = crc_tables();
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][c[4] as usize]
            ^ t[2][c[5] as usize]
            ^ t[1][c[6] as usize]
            ^ t[0][c[7] as usize];
    }
    for &b in chunks.remainder() {
        crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc
}

/// CRC32 by folding with PCLMULQDQ: Gopal et al., "Fast CRC Computation
/// for Generic Polynomials Using PCLMULQDQ Instruction" (Intel, 2009), in
/// the bit-reflected domain, with the constants zlib's `crc32_simd` uses
/// for the IEEE polynomial. Four 128-bit lanes fold 64 bytes per step,
/// collapse into one, fold the remaining 16-byte blocks, and a Barrett
/// reduction takes the 64-bit remainder to the 32-bit CRC state.
#[cfg(target_arch = "x86_64")]
mod fold {
    use std::arch::x86_64::*;

    /// `x^(4·128+32) mod P` and `x^(4·128−32) mod P`, each bit-reflected
    /// and shifted left one: carry a lane 64 bytes forward.
    const K1K2: (i64, i64) = (0x0154442bd4, 0x01c6e41596);
    /// `x^(128+32) mod P` and `x^(128−32) mod P`, the same way: collapse
    /// the lanes, fold single blocks, and fold 128 bits to 96.
    const K3K4: (i64, i64) = (0x01751997d0, 0x00ccaa009e);
    /// `x^64 mod P`, the same way: folds 96 bits to 64.
    const K5: i64 = 0x0163cd6124;
    /// `P(x)` and Barrett's `μ = x^64 / P(x)`, bit-reflected.
    const POLY_MU: (i64, i64) = (0x01db710641, 0x01f7011641);

    pub(super) fn available() -> bool {
        std::arch::is_x86_feature_detected!("pclmulqdq")
            && std::arch::is_x86_feature_detected!("sse4.1")
    }

    /// Lanes `(lo, hi)` of one register.
    #[inline]
    fn pair((lo, hi): (i64, i64)) -> __m128i {
        // SAFETY: sse2 is part of the x86_64 baseline.
        unsafe { _mm_set_epi64x(hi, lo) }
    }

    /// Sixteen input bytes as one register (an unaligned load).
    #[inline]
    fn load(block: &[u8]) -> __m128i {
        let block: &[u8; 16] = block.try_into().expect("a 16-byte block");
        // SAFETY: reads the 16 bytes `block` borrows; `loadu` needs no
        // alignment, and sse2 is part of the x86_64 baseline.
        unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
    }

    /// `x` carried forward by the distance `k` encodes, plus `next`.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    unsafe fn fold(x: __m128i, k: __m128i, next: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(x, k, 0x00);
        let hi = _mm_clmulepi64_si128(x, k, 0x11);
        _mm_xor_si128(_mm_xor_si128(lo, hi), next)
    }

    /// Advance the (pre-inverted) CRC state `crc` over `bytes`.
    ///
    /// # Safety
    ///
    /// The CPU must support `pclmulqdq` and `sse4.1` ([`available`]).
    /// `bytes` must hold at least 64 bytes and a multiple of 16 (checked:
    /// a violation panics, it cannot read out of bounds).
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) unsafe fn update(crc: u32, bytes: &[u8]) -> u32 {
        assert!(bytes.len() >= 64 && bytes.len().is_multiple_of(16));
        let mut blocks = bytes.chunks_exact(64);
        let first = blocks.next().expect("at least 64 bytes");
        let mut x1 = _mm_xor_si128(load(&first[..16]), _mm_cvtsi32_si128(crc as i32));
        let mut x2 = load(&first[16..32]);
        let mut x3 = load(&first[32..48]);
        let mut x4 = load(&first[48..]);

        let k1k2 = pair(K1K2);
        for block in &mut blocks {
            x1 = fold(x1, k1k2, load(&block[..16]));
            x2 = fold(x2, k1k2, load(&block[16..32]));
            x3 = fold(x3, k1k2, load(&block[32..48]));
            x4 = fold(x4, k1k2, load(&block[48..]));
        }

        let k3k4 = pair(K3K4);
        let mut x = fold(fold(fold(x1, k3k4, x2), k3k4, x3), k3k4, x4);
        for block in blocks.remainder().chunks_exact(16) {
            x = fold(x, k3k4, load(block));
        }

        // 128 bits to 96: the low half times k4 into the high half; 96 to
        // 64: the low 32 bits of that times k5 into the rest.
        let low32 = _mm_setr_epi32(!0, 0, !0, 0);
        x = _mm_xor_si128(_mm_srli_si128(x, 8), _mm_clmulepi64_si128(x, k3k4, 0x10));
        let k5 = pair((K5, 0));
        x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), k5, 0x00),
            _mm_srli_si128(x, 4),
        );

        // Barrett: the quotient estimate by μ, back through P, subtracted.
        let poly_mu = pair(POLY_MU);
        let q = _mm_and_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), poly_mu, 0x10),
            low32,
        );
        x = _mm_xor_si128(x, _mm_clmulepi64_si128(q, poly_mu, 0x00));
        _mm_extract_epi32(x, 1) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The table path alone: the portable CRC, and the fold's oracle.
    fn crc32_table(bytes: &[u8]) -> u32 {
        !table_update(!0, bytes)
    }

    /// The byte-at-a-time loop slicing-by-8 replaced, kept as its oracle.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let table = &crc_tables()[0];
        let mut crc = !0u32;
        for &b in bytes {
            crc = table[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
        }
        !crc
    }

    fn noise(len: usize) -> Vec<u8> {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect()
    }

    #[test]
    fn the_table_equals_the_bytewise_loop_at_every_length_and_alignment() {
        let buf = noise(64 + 8 + 4096);
        for offset in 0..8 {
            for len in (0..=64).chain([1000, 4095, 4096]) {
                let slice = &buf[offset..offset + len];
                assert_eq!(
                    crc32_table(slice),
                    crc32_bytewise(slice),
                    "offset {offset} len {len}"
                );
            }
        }
    }

    /// Where the CPU folds (x86_64 with `pclmulqdq` and `sse4.1`), every
    /// length across the 64-byte threshold and every 16-byte phase of the
    /// table's tail; elsewhere `crc32` is the table and this is trivially
    /// true.
    #[test]
    fn crc32_equals_the_table_at_every_length_and_offset() {
        let buf = noise(1024 + 16);
        for offset in 0..16 {
            for len in 0..=1024 {
                let slice = &buf[offset..offset + len];
                assert_eq!(
                    crc32(slice),
                    crc32_table(slice),
                    "offset {offset} len {len}"
                );
            }
        }
        let frame = noise(6 << 20);
        assert_eq!(crc32(&frame), crc32_table(&frame), "a 6 MB frame");
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic check value for the IEEE polynomial.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"a"), crc32(b"b"));
    }

    #[test]
    fn bit_flip_changes_crc() {
        let data = b"checkpoint payload".to_vec();
        let base = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), base, "byte {byte} bit {bit}");
            }
        }
    }
}
