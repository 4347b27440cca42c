//! FNV-1a 64-bit digests of run outcomes.
//!
//! Two builds that disagree on a digest did not run the same computation,
//! whatever their speed. Outcomes without a `Serialize` impl are digested
//! through their `Debug` text: floats print shortest-round-trip, maps are
//! `BTreeMap`s, so the text is a faithful serialisation.

use std::fmt::{self, Write};

/// An incremental FNV-1a hasher; feed it with `write!`.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    #[must_use]
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Write for Fnv {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.bytes(s.as_bytes());
        Ok(())
    }
}

/// Digest of a value's `Debug` rendering, without building the string.
#[must_use]
pub fn of_debug<T: fmt::Debug>(value: &T) -> u64 {
    let mut h = Fnv::default();
    write!(h, "{value:?}").expect("hashing never fails");
    h.finish()
}

/// Digest of a byte string.
#[must_use]
pub fn of_bytes(bytes: &[u8]) -> u64 {
    let mut h = Fnv::default();
    h.bytes(bytes);
    h.finish()
}

/// Folds per-job digests, in job order, into one round digest.
#[must_use]
pub fn fold(digests: &[u64]) -> u64 {
    let mut h = Fnv::default();
    for &d in digests {
        h.u64(d);
    }
    h.finish()
}

/// The 16-digit lowercase hex form digests are pinned in.
#[must_use]
pub fn hex(d: u64) -> String {
    format!("{d:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(of_bytes(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(of_bytes(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(of_bytes(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn debug_digest_equals_digest_of_the_debug_string() {
        let value = (1u64, 0.1f64 + 0.2, "x", vec![Some(3u8), None]);
        assert_eq!(of_debug(&value), of_bytes(format!("{value:?}").as_bytes()));
    }

    #[test]
    fn fold_is_order_sensitive_and_stable() {
        assert_eq!(fold(&[1, 2]), fold(&[1, 2]));
        assert_ne!(fold(&[1, 2]), fold(&[2, 1]));
        assert_eq!(hex(0xab), "00000000000000ab");
    }
}
