//! Layout pins: the checks every crate's golden test runs over its own
//! types, so a new wire type is one more input, not one more test body.
//!
//! A fixture file is the wire encoding of a `Vec<Vec<u8>>` — one
//! canonical encoding per entry — written only when [`REGEN_ENV`] is set.

use std::path::Path;

use crate::{from_bytes, to_bytes, Codec, Reader};

/// Environment switch that rewrites fixtures instead of checking them.
pub const REGEN_ENV: &str = "CKPT_LAYOUT_REGEN";

/// Assert that `values` encode, entry for entry, to the bytes pinned in
/// the fixture at `path`, that every pinned entry decodes and re-encodes
/// to itself, and that it [`refuses_damage`].
///
/// # Panics
/// Panics on any mismatch, and when the fixture is missing.
pub fn check_fixture<T: Codec>(path: &Path, values: &[T]) {
    let encoded: Vec<Vec<u8>> = values.iter().map(to_bytes).collect();
    let shown = path.display();
    if std::env::var_os(REGEN_ENV).is_some() {
        std::fs::write(path, to_bytes(&encoded)).expect("fixture directory is writable");
        eprintln!("regenerated {shown} ({} entries)", encoded.len());
        return;
    }
    let file = std::fs::read(path)
        .unwrap_or_else(|e| panic!("{shown}: {e} — create it with {REGEN_ENV}=1"));
    let pinned: Vec<Vec<u8>> = from_bytes(&file).expect("a fixture is a list of encodings");
    assert_eq!(encoded.len(), pinned.len(), "{shown}: entry count");
    for (k, (now, golden)) in encoded.iter().zip(&pinned).enumerate() {
        assert!(now == golden, "{shown}: entry {k} left its pinned bytes");
        let back: T = from_bytes(golden)
            .unwrap_or_else(|e| panic!("{shown}: pinned entry {k} does not decode: {e}"));
        assert!(
            to_bytes(&back) == *golden,
            "{shown}: entry {k} does not re-encode to itself"
        );
        refuses_damage::<T>(golden);
    }
}

/// Assert that a hostile edit of `canonical` (a valid encoding of a `T`)
/// decodes to a [`crate::WireError`]: every strict prefix, and every
/// length prefix with any one of its bytes inflated to `0xFF`. An
/// inflated high byte claims more than 2^55 elements, so an `Err` there
/// also shows the length was refused before anything was allocated for
/// it; a decoder that panics fails the calling test by itself.
///
/// # Panics
/// Panics when `canonical` does not decode, or a damaged copy does.
pub fn refuses_damage<T: Codec>(canonical: &[u8]) {
    let mut lengths = Vec::new();
    T::decode(&mut Reader::logging_lengths(canonical, &mut lengths))
        .expect("the canonical encoding decodes");
    for cut in 0..canonical.len() {
        assert!(
            from_bytes::<T>(&canonical[..cut]).is_err(),
            "prefix of {cut} bytes decoded"
        );
    }
    for at in lengths {
        for byte in at..at + 8 {
            if canonical[byte] == 0xFF {
                continue;
            }
            let mut hostile = canonical.to_vec();
            hostile[byte] = 0xFF;
            assert!(
                from_bytes::<T>(&hostile).is_err(),
                "length prefix at {at} inflated at byte {byte} decoded"
            );
        }
    }
}
