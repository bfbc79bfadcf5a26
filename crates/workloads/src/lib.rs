//! # wsm-workloads — workload generators and analysis
//!
//! The paper's evaluation is theoretical, so the reproduction validates each
//! bound on synthetic workloads whose *distribution-sensitivity* is
//! controllable:
//!
//! * [`generator`] — uniform, Zipfian, working-set (temporal locality),
//!   adversarial (always touch the least recently used key), hot-set and
//!   sequential-scan access patterns, plus mixed search/insert/delete streams.
//! * [`analysis`] — access ranks, the working-set bound `W_L`, sequence
//!   entropy and the cost of an optimal *static* search tree (for the static
//!   optimality corollary of the working-set bound).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod generator;

pub use analysis::{optimal_static_bst_cost, static_tree_cost_for, WorkloadReport};
pub use generator::{Pattern, WorkloadSpec};

/// SplitMix64 (Steele, Lea & Flood): the one random source of every workload
/// stream.  Small state, passes through every 64-bit output exactly once,
/// and fully deterministic given the seed — plenty for workload synthesis.
#[derive(Clone, Debug)]
struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..end` (panics if `end` is 0).  The modulo bias is
    /// negligible for the spans used here and irrelevant for synthetic
    /// workloads.
    fn below(&mut self, end: u64) -> u64 {
        self.next_u64() % end
    }

    /// A float in `[0, 1)`: the 53 high bits, at full double precision.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `true` with probability `p`.
    fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }
}

#[cfg(test)]
mod tests {
    use super::SplitMix64;

    #[test]
    fn deterministic_given_seed() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = SplitMix64::new(1);
        for _ in 0..1000 {
            assert!(rng.below(10) < 10);
            assert!(rng.below(3) < 3);
            assert!((0.0..1.0).contains(&rng.unit()));
        }
    }

    #[test]
    fn random_bool_tracks_probability() {
        let mut rng = SplitMix64::new(2);
        let hits = (0..10_000).filter(|_| rng.chance(0.25)).count();
        assert!((2000..3000).contains(&hits), "got {hits}");
    }

    #[test]
    fn uniform_range_is_roughly_uniform() {
        let mut rng = SplitMix64::new(3);
        let mut counts = [0usize; 8];
        for _ in 0..8000 {
            counts[rng.below(8) as usize] += 1;
        }
        assert!(
            counts.iter().all(|&c| (700..1300).contains(&c)),
            "{counts:?}"
        );
    }
}
