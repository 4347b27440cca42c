//! FNV-1a 64-bit, the hash every pinned digest of the tier-1 tests is
//! taken with. Each test includes this file with `#[path]`, so no library
//! carries test-only API for it.

/// FNV-1a 64-bit of `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
