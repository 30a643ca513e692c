//! Tracking-granularity mapping (paper §IV-C, evaluated in §VI-A1 /
//! Table III).
//!
//! One shadow entry covers `granularity` consecutive bytes of application
//! memory. A 1:1 mapping (entry per element) reports no false positives;
//! coarser mappings shrink shadow storage at the cost of *false* races when
//! unrelated threads touch different bytes of the same chunk.

use serde::{Deserialize, Serialize};

/// Power-of-two tracking granularity in bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Granularity(u32);

impl Granularity {
    /// The paper's shared-memory default (§VI-A1: "We set it to 16 bytes").
    pub const SHARED_DEFAULT: Granularity = Granularity(16);
    /// The paper's global-memory default (§VI-A1: "we keep the global
    /// memory tracking granularity to 4 bytes").
    pub const GLOBAL_DEFAULT: Granularity = Granularity(4);

    /// Construct; `bytes` must be a power of two in `[1, 4096]`.
    pub fn new(bytes: u32) -> Result<Self, String> {
        if !bytes.is_power_of_two() || bytes == 0 || bytes > 4096 {
            return Err(format!("granularity must be a power of two in [1,4096], got {bytes}"));
        }
        Ok(Granularity(bytes))
    }

    /// Granularity in bytes.
    pub fn bytes(self) -> u32 {
        self.0
    }

    /// log2 of the granularity.
    pub fn shift(self) -> u32 {
        self.0.trailing_zeros()
    }

    /// Shadow-entry index for a byte address relative to `base`.
    pub fn index(self, base: u32, addr: u32) -> usize {
        debug_assert!(addr >= base);
        ((addr - base) >> self.shift()) as usize
    }

    /// Base address of the chunk containing `addr` (for race reports).
    pub fn chunk_base(self, base: u32, addr: u32) -> u32 {
        base + (((addr - base) >> self.shift()) << self.shift())
    }

    /// Number of shadow entries needed to cover `bytes` of memory.
    pub fn entries_for(self, bytes: u32) -> usize {
        (bytes as usize).div_ceil(self.0 as usize)
    }

    /// The sweep evaluated in Table III: 4 B to 64 B.
    pub fn table3_sweep() -> [Granularity; 5] {
        [
            Granularity(4),
            Granularity(8),
            Granularity(16),
            Granularity(32),
            Granularity(64),
        ]
    }
}

impl Default for Granularity {
    fn default() -> Self {
        Granularity::GLOBAL_DEFAULT
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_non_powers_of_two() {
        assert!(Granularity::new(0).is_err());
        assert!(Granularity::new(3).is_err());
        assert!(Granularity::new(8192).is_err());
        assert!(Granularity::new(1).is_ok());
        assert!(Granularity::new(64).is_ok());
    }

    #[test]
    fn index_maps_chunks() {
        let g = Granularity::new(16).unwrap();
        assert_eq!(g.index(0x100, 0x100), 0);
        assert_eq!(g.index(0x100, 0x10f), 0);
        assert_eq!(g.index(0x100, 0x110), 1);
        assert_eq!(g.chunk_base(0x100, 0x11f), 0x110);
    }

    #[test]
    fn entries_for_rounds_up() {
        let g = Granularity::new(16).unwrap();
        assert_eq!(g.entries_for(0), 0);
        assert_eq!(g.entries_for(1), 1);
        assert_eq!(g.entries_for(16), 1);
        assert_eq!(g.entries_for(17), 2);
        assert_eq!(g.entries_for(16 * 1024), 1024);
    }

    #[test]
    fn table3_sweep_is_4_to_64() {
        let s = Granularity::table3_sweep();
        assert_eq!(s.first().unwrap().bytes(), 4);
        assert_eq!(s.last().unwrap().bytes(), 64);
        assert!(s.windows(2).all(|w| w[1].bytes() == 2 * w[0].bytes()));
    }
}
