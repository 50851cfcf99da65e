//! Per-run row bloom filters for the read path.
//!
//! Every sorted run can carry a [`RowBloom`] over its distinct row keys so
//! point and row reads skip runs that cannot contain the row. The filter is
//! **seeded and deterministic**: its bits are a pure function of the run's
//! row set, the bits-per-key budget, and a fixed seed — never of wall-clock
//! time, allocation addresses, or insertion order — so two stores holding
//! identical runs always agree on which runs a read skips. That determinism
//! is what lets the serving benches assert bit-identical results with and
//! without the filter.

/// Default bloom budget: ~1% false-positive rate with 7 probes.
pub const DEFAULT_BITS_PER_KEY: usize = 10;

/// Fixed seed for every filter (determinism across stores and restarts).
const BLOOM_SEED: u64 = 0xB100_F5EE_D001_u64;

/// SplitMix64 finalizer — the workspace's standard bit mixer.
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over the key bytes, mixed with the filter seed.
fn base_hash(key: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ BLOOM_SEED;
    for &b in key {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The two double-hashing probe bases of one key: a function of the key
/// bytes and the fixed seed alone, so one value serves every filter.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RowProbe {
    h1: u64,
    h2: u64,
}

impl RowProbe {
    pub(crate) fn new(key: &[u8]) -> Self {
        let h1 = base_hash(key);
        // An odd second hash keeps the probe stride co-prime-ish with
        // power-of-two bit counts.
        let h2 = splitmix64(h1 ^ BLOOM_SEED) | 1;
        Self { h1, h2 }
    }
}

/// A classic k-probe bloom filter over row-key bytes, double-hashed so each
/// key costs two 64-bit hashes regardless of `k`.
#[derive(Debug, Clone)]
pub struct RowBloom {
    words: Vec<u64>,
    n_bits: u64,
    k: u32,
}

impl RowBloom {
    /// Build a filter sized for `n_keys` keys at `bits_per_key` bits each.
    /// Returns `None` when the budget or key count is zero (no filter).
    pub fn build<'a>(
        keys: impl Iterator<Item = &'a [u8]>,
        n_keys: usize,
        bits_per_key: usize,
    ) -> Option<Self> {
        if n_keys == 0 || bits_per_key == 0 {
            return None;
        }
        // Optimal probe count is bits_per_key * ln 2 ≈ 0.69 * bits_per_key.
        let k = ((bits_per_key as f64 * 0.69).round() as u32).clamp(1, 30);
        let n_bits = (n_keys * bits_per_key).max(64) as u64;
        let mut filter = Self {
            words: vec![0u64; n_bits.div_ceil(64) as usize],
            n_bits,
            k,
        };
        for key in keys {
            filter.insert(key);
        }
        Some(filter)
    }

    fn insert(&mut self, key: &[u8]) {
        let RowProbe { h1, h2 } = RowProbe::new(key);
        for i in 0..self.k {
            let bit = h1.wrapping_add((i as u64).wrapping_mul(h2)) % self.n_bits;
            self.words[(bit / 64) as usize] |= 1u64 << (bit % 64);
        }
    }

    /// True when the key *may* be present (false positives possible);
    /// false means the key is definitely absent. Takes the key already
    /// hashed: a row read hashes its row once and probes every run's filter
    /// with the result.
    pub(crate) fn may_contain_probe(&self, probe: &RowProbe) -> bool {
        let RowProbe { h1, h2 } = *probe;
        (0..self.k).all(|i| {
            let bit = h1.wrapping_add((i as u64).wrapping_mul(h2)) % self.n_bits;
            self.words[(bit / 64) as usize] & (1u64 << (bit % 64)) != 0
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("u{i:012}").into_bytes()).collect()
    }

    #[test]
    fn no_false_negatives() {
        let ks = keys(500);
        let bloom = RowBloom::build(
            ks.iter().map(|k| k.as_slice()),
            ks.len(),
            DEFAULT_BITS_PER_KEY,
        )
        .unwrap();
        for k in &ks {
            assert!(
                bloom.may_contain_probe(&RowProbe::new(k)),
                "inserted key reported absent"
            );
        }
    }

    #[test]
    fn false_positive_rate_is_low() {
        let ks = keys(1_000);
        let bloom = RowBloom::build(
            ks.iter().map(|k| k.as_slice()),
            ks.len(),
            DEFAULT_BITS_PER_KEY,
        )
        .unwrap();
        let fps = (1_000..21_000)
            .filter(|i| bloom.may_contain_probe(&RowProbe::new(format!("u{i:012}").as_bytes())))
            .count();
        // ~1% expected at 10 bits/key; allow a generous deterministic band.
        assert!(fps < 1_000, "false positives: {fps}/20000");
    }

    #[test]
    fn zero_budget_or_empty_set_builds_no_filter() {
        let ks = keys(10);
        assert!(RowBloom::build(ks.iter().map(|k| k.as_slice()), ks.len(), 0).is_none());
        assert!(RowBloom::build(std::iter::empty(), 0, 10).is_none());
    }

    #[test]
    fn identical_inputs_build_identical_filters() {
        let ks = keys(200);
        let a = RowBloom::build(ks.iter().map(|k| k.as_slice()), ks.len(), 8).unwrap();
        let b = RowBloom::build(ks.iter().map(|k| k.as_slice()), ks.len(), 8).unwrap();
        assert_eq!(a.words, b.words);
        assert_eq!(a.k, b.k);
        assert_eq!(a.n_bits, b.n_bits);
    }
}
