//! The workspace's one FNV-1a implementation.
//!
//! Every content address in the workspace — trace addresses, run-cache
//! keys, fault-plan draws, soak traffic shapes, derived seeds — is built
//! on the same 64-bit FNV-1a fold. Until ISSUE 7 the fold was copy-pasted
//! into five modules, which is exactly the drift hazard the analyzer's
//! R12 (`duplicate-primitive`) rule exists to catch: two "identical"
//! hashes that diverge by one constant silently partition the cache and
//! break cross-machine address agreement. This module is the single
//! definition; `treu-core::hash` re-exports it as the canonical path for
//! the crates above the math layer.
//!
//! Two entry points share the constants:
//!
//! * [`fnv64`] — the plain fold over one byte stream (trace addresses,
//!   seed derivation tags).
//! * [`fnv64_parts`] — the fold over a sequence of parts with an `0xFF`
//!   separator mixed in after each, so `("ab", "c")` never collides with
//!   `("a", "bc")` (cache keys, fault draws).
//!
//! [`unit()`] maps a hash to a uniform draw in `[0, 1)` using the top 53
//! bits — the same construction `SplitMix64::next_f64` uses — so seeded
//! probability draws are one hash away everywhere.

/// FNV-1a offset basis (64-bit).
pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
/// FNV-1a prime (64-bit).
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// FNV-1a over a byte stream.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a over byte parts, mixing an `0xFF` separator after each part so
/// part boundaries are part of the address.
pub fn fnv64_parts(parts: &[&[u8]]) -> u64 {
    let mut h = FNV_OFFSET;
    for part in parts {
        for &b in *part {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        h ^= 0xFF;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// A uniform draw in `[0, 1)` from a hash — 53 mantissa bits, matching
/// `SplitMix64::next_f64`.
pub fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input_is_the_offset_basis() {
        assert_eq!(fnv64(&[]), FNV_OFFSET);
    }

    #[test]
    fn known_vector() {
        // FNV-1a("a") = basis ^ 0x61 then * prime.
        let want = (FNV_OFFSET ^ 0x61).wrapping_mul(FNV_PRIME);
        assert_eq!(fnv64(b"a"), want);
    }

    #[test]
    fn parts_separator_prevents_boundary_collisions() {
        assert_ne!(fnv64_parts(&[b"ab", b"c"]), fnv64_parts(&[b"a", b"bc"]));
        assert_ne!(fnv64_parts(&[b"ab"]), fnv64_parts(&[b"ab", b""]));
    }

    #[test]
    fn parts_of_one_differs_from_plain_by_the_separator_only() {
        // The parts fold is the plain fold plus one separator mix.
        let plain = fnv64(b"xyz");
        let parts = fnv64_parts(&[b"xyz"]);
        assert_eq!(parts, (plain ^ 0xFF).wrapping_mul(FNV_PRIME));
    }

    #[test]
    fn unit_is_in_half_open_interval() {
        for h in [0u64, 1, u64::MAX, FNV_OFFSET, 0x8000_0000_0000_0000] {
            let u = unit(h);
            assert!((0.0..1.0).contains(&u), "unit({h:#x}) = {u}");
        }
        assert_eq!(unit(0), 0.0);
    }
}
