//! Synthetic workload generation.
//!
//! Every generator produces a sequence of [`wsm_model::MapOpKind`] operations
//! over `u64` keys, which the harness converts into the concrete operation
//! types of the map under test.  Patterns are chosen to exercise the
//! distribution-sensitivity of the working-set structures: the same number of
//! operations can have wildly different working-set bounds `W_L`.

use crate::SplitMix64;
use wsm_model::MapOpKind;

/// Access-pattern families used throughout the experiments.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Pattern {
    /// Every access picks a key uniformly at random (no locality; `W_L` is
    /// `Θ(N log n)`).
    Uniform,
    /// Zipfian accesses with the given exponent `s` (`s = 0` is uniform,
    /// `s ≈ 1` is classic web-like skew).
    Zipf(f64),
    /// Working-set locality: with probability `1 - miss_rate` the access picks
    /// one of the `window` most recently accessed keys, otherwise a uniform
    /// key.  Models temporal locality directly.
    WorkingSet {
        /// Size of the hot window of recently accessed keys.
        window: usize,
        /// Probability of leaving the window.
        miss_rate: f64,
    },
    /// A small hot set of `hot` keys receives `1 - miss_rate` of the accesses.
    HotSet {
        /// Number of hot keys.
        hot: usize,
        /// Probability of accessing a non-hot key.
        miss_rate: f64,
    },
    /// Repeatedly scan all keys in order (good for splay trees, bad for
    /// working-set structures relative to HotSet — every access has maximal
    /// recency).
    SequentialScan,
    /// Adversarial for working-set structures: always access the least
    /// recently used key, so every access has rank `n`.
    Adversarial,
}

/// A complete workload description: a keyspace that is pre-inserted and then a
/// stream of accesses (with optional updates) over it.
#[derive(Clone, Debug)]
pub struct WorkloadSpec {
    /// Number of distinct keys pre-inserted before the access phase.
    pub keyspace: u64,
    /// Number of access operations to generate.
    pub operations: usize,
    /// Access pattern.
    pub pattern: Pattern,
    /// Fraction of accesses that are inserts/deletes instead of searches
    /// (half each).  `0.0` gives a read-only access phase.
    pub update_fraction: f64,
    /// RNG seed (generation is fully deterministic given the spec).
    pub seed: u64,
}

impl WorkloadSpec {
    /// A read-only spec with the given pattern.
    pub fn read_only(keyspace: u64, operations: usize, pattern: Pattern, seed: u64) -> Self {
        WorkloadSpec {
            keyspace,
            operations,
            pattern,
            update_fraction: 0.0,
            seed,
        }
    }

    /// The pre-insertion phase: one insert per key, in key order.
    pub fn load_phase(&self) -> Vec<MapOpKind<u64>> {
        (0..self.keyspace).map(MapOpKind::Insert).collect()
    }

    /// The access phase.
    pub fn access_phase(&self) -> Vec<MapOpKind<u64>> {
        let mut rng = SplitMix64::new(self.seed);
        let n = self.keyspace.max(1);
        let mut ops = Vec::with_capacity(self.operations);

        // State for patterns that need it.
        let zipf_table = match self.pattern {
            Pattern::Zipf(s) => Some(ZipfSampler::new(n, s)),
            _ => None,
        };
        let mut recent: Vec<u64> = Vec::new();
        let mut lru: std::collections::VecDeque<u64> = (0..n).collect();
        let mut scan_next = 0u64;

        for _ in 0..self.operations {
            let key = match self.pattern {
                Pattern::Uniform => rng.below(n),
                Pattern::Zipf(_) => zipf_table.as_ref().expect("built above").sample(&mut rng),
                Pattern::WorkingSet { window, miss_rate } => {
                    let hit = !recent.is_empty() && rng.unit() >= miss_rate;
                    if hit {
                        let idx = rng.below(recent.len().min(window) as u64) as usize;
                        recent[recent.len() - 1 - idx]
                    } else {
                        rng.below(n)
                    }
                }
                Pattern::HotSet { hot, miss_rate } => {
                    if rng.unit() < miss_rate {
                        rng.below(n)
                    } else {
                        rng.below((hot as u64).min(n))
                    }
                }
                Pattern::SequentialScan => {
                    let k = scan_next;
                    scan_next = (scan_next + 1) % n;
                    k
                }
                Pattern::Adversarial => {
                    let k = lru.pop_front().unwrap_or(0);
                    lru.push_back(k);
                    k
                }
            };
            if matches!(self.pattern, Pattern::WorkingSet { .. }) {
                recent.push(key);
                if recent.len() > 4096 {
                    recent.drain(..2048);
                }
            }
            let op = if self.update_fraction > 0.0 && rng.unit() < self.update_fraction {
                if rng.chance(0.5) {
                    MapOpKind::Insert(key)
                } else {
                    MapOpKind::Delete(key)
                }
            } else {
                MapOpKind::Search(key)
            };
            ops.push(op);
        }
        ops
    }

    /// Load phase followed by access phase.
    pub fn full_sequence(&self) -> Vec<MapOpKind<u64>> {
        let mut ops = self.load_phase();
        ops.extend(self.access_phase());
        ops
    }
}

/// Zipfian sampler over `1..=n` mapped to keys `0..n`, built by inverse-CDF
/// table lookup (exact, O(n) setup, O(log n) per sample).
#[derive(Clone, Debug)]
struct ZipfSampler {
    cdf: Vec<f64>,
}

impl ZipfSampler {
    fn new(n: u64, s: f64) -> Self {
        let n = n.max(1) as usize;
        let mut weights: Vec<f64> = (1..=n).map(|i| 1.0 / (i as f64).powf(s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        for w in &mut weights {
            acc += *w / total;
            *w = acc;
        }
        ZipfSampler { cdf: weights }
    }

    fn sample(&self, rng: &mut SplitMix64) -> u64 {
        let u = rng.unit();
        match self
            .cdf
            .binary_search_by(|probe| probe.partial_cmp(&u).expect("no NaN in CDF"))
        {
            Ok(i) | Err(i) => (i.min(self.cdf.len() - 1)) as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsm_model::working_set_bound;

    fn spec(pattern: Pattern) -> WorkloadSpec {
        WorkloadSpec::read_only(1 << 12, 1 << 14, pattern, 42)
    }

    #[test]
    fn generation_is_deterministic() {
        let a = spec(Pattern::Zipf(1.0)).full_sequence();
        let b = spec(Pattern::Zipf(1.0)).full_sequence();
        assert_eq!(a, b);
    }

    #[test]
    fn sizes_are_as_requested() {
        let s = spec(Pattern::Uniform);
        assert_eq!(s.load_phase().len(), 1 << 12);
        assert_eq!(s.access_phase().len(), 1 << 14);
        assert_eq!(s.full_sequence().len(), (1 << 12) + (1 << 14));
    }

    #[test]
    fn keys_stay_in_keyspace() {
        for pattern in [
            Pattern::Uniform,
            Pattern::Zipf(1.2),
            Pattern::WorkingSet {
                window: 64,
                miss_rate: 0.1,
            },
            Pattern::HotSet {
                hot: 8,
                miss_rate: 0.05,
            },
            Pattern::SequentialScan,
            Pattern::Adversarial,
        ] {
            let ops = spec(pattern).access_phase();
            assert!(ops.iter().all(|op| *op.key() < (1 << 12)), "{pattern:?}");
        }
    }

    #[test]
    fn working_set_bounds_are_ordered_by_locality() {
        // Hot-set locality must have a far smaller W_L than uniform, which in
        // turn is no larger than the adversarial pattern.
        let hot = working_set_bound(
            &spec(Pattern::HotSet {
                hot: 8,
                miss_rate: 0.02,
            })
            .full_sequence(),
        );
        let uniform = working_set_bound(&spec(Pattern::Uniform).full_sequence());
        let adversarial = working_set_bound(&spec(Pattern::Adversarial).full_sequence());
        assert!(hot * 2 < uniform, "hot={hot} uniform={uniform}");
        assert!(
            uniform <= adversarial + adversarial / 4,
            "uniform={uniform} adv={adversarial}"
        );
    }

    #[test]
    fn zipf_skew_reduces_working_set_bound() {
        let zipf_light = working_set_bound(&spec(Pattern::Zipf(0.5)).full_sequence());
        let zipf_heavy = working_set_bound(&spec(Pattern::Zipf(1.5)).full_sequence());
        assert!(
            zipf_heavy < zipf_light,
            "heavier skew must lower W_L: {zipf_heavy} vs {zipf_light}"
        );
    }

    #[test]
    fn streams_match_the_recorded_digests() {
        // FNV-1a over every operation's kind and key: pins the exact stream
        // of every pattern (integer, float and coin draws), so a
        // change to the generator's arithmetic cannot pass unnoticed.
        fn digest(ops: &[MapOpKind<u64>]) -> u64 {
            ops.iter().fold(0xCBF2_9CE4_8422_2325, |h, op| {
                let (tag, key) = match op {
                    MapOpKind::Search(k) => (1u64, *k),
                    MapOpKind::Insert(k) => (2, *k),
                    MapOpKind::Delete(k) => (3, *k),
                };
                [tag, key]
                    .iter()
                    .fold(h, |h, &x| (h ^ x).wrapping_mul(0x100_0000_01B3))
            })
        }
        let patterns = [
            Pattern::Uniform,
            Pattern::Zipf(1.1),
            Pattern::WorkingSet {
                window: 64,
                miss_rate: 0.1,
            },
            Pattern::HotSet {
                hot: 8,
                miss_rate: 0.05,
            },
            Pattern::SequentialScan,
            Pattern::Adversarial,
        ];
        // Recorded at commit `0c66c8a`, when the generator drew from the
        // vendored `rand` stand-in: seed 1 then seed 7, patterns in order.
        let expected: [u64; 12] = [
            0x994d_0286_6d55_0415,
            0x8004_8eb4_ff02_b016,
            0x5b59_dd66_832b_32d4,
            0x1eb3_4126_dc16_2c27,
            0x4bae_fc06_68b8_074d,
            0x4bae_fc06_68b8_074d,
            0x9d0f_ab2a_edcc_6994,
            0x53f7_0e93_12a1_47a0,
            0x73ac_52fe_ba07_190e,
            0x835a_9cdc_57bb_b114,
            0xe37f_84ce_622f_58c9,
            0xe37f_84ce_622f_58c9,
        ];
        let mut got = Vec::new();
        for seed in [1u64, 7] {
            for pattern in patterns {
                let mut spec = WorkloadSpec::read_only(1000, 5000, pattern, seed);
                spec.update_fraction = 0.3;
                got.push(digest(&spec.full_sequence()));
            }
        }
        assert_eq!(got, expected);
    }

    #[test]
    fn update_fraction_produces_mixed_ops() {
        let mut s = spec(Pattern::Uniform);
        s.update_fraction = 0.5;
        let ops = s.access_phase();
        let searches = ops
            .iter()
            .filter(|o| matches!(o, MapOpKind::Search(_)))
            .count();
        let updates = ops.len() - searches;
        assert!(updates > ops.len() / 3);
        assert!(searches > ops.len() / 3);
    }
}
