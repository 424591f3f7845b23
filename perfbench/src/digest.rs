//! FNV-1a, for digests of deterministic outputs (scenario reports, fleet
//! statistics, serve transcripts) that must repeat exactly.

pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Digest of one byte string.
pub fn of(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.write(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    #[test]
    fn known_vectors() {
        assert_eq!(super::of(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(super::of(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
