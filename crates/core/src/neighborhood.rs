//! k-opt neighbourhood moves (paper §II-B, "Optimization").
//!
//! The paper describes "neighborhoods that involve changing *up to* k
//! components of the solution, which is often referred to as k-opt".
//! [`KOpt`] draws that move over the *droppable* components only —
//! necessity rules are pinned on and never flipped — by drawing a move size
//! `j` uniformly from `1..=k` and then flipping `j` distinct uniformly
//! random components. Including the smaller move sizes keeps every solution
//! reachable (flipping exactly k would partition the hypercube by parity
//! for even k).

use rand::Rng;
use serde::{Deserialize, Serialize};

/// The k-opt move generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct KOpt {
    /// Number of components flipped per move (clamped to the number of
    /// mutable components at application time).
    pub k: usize,
}

impl KOpt {
    /// Creates a k-opt move generator.
    ///
    /// # Panics
    /// Panics when `k` is zero.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "k must be at least 1");
        KOpt { k }
    }

    /// Draws the flip set of one move into `flips`: a move size
    /// `j ∈ 1..=k` (k clamped to `mutable.len()`), then `j` distinct
    /// components among `mutable` (indices of droppable candidates).
    ///
    /// The draws are fixed: `gen_range(1..=k)`, then Floyd's sampling of
    /// `j` positions out of `mutable.len()` — one `gen_range(0..=i)` per
    /// position, exactly as `rand::seq::index::sample` draws them, in the
    /// same output order. With nothing mutable, `flips` is left empty and
    /// nothing is drawn.
    ///
    /// `flips` is cleared first; the optimizers reuse one buffer for every
    /// move of a slot, so a move allocates nothing. Sampling is O(j²) — an
    /// O(N) shuffle here would dominate dorms-scale planning.
    pub fn draw_flips<R: Rng + ?Sized>(
        &self,
        mutable: &[usize],
        rng: &mut R,
        flips: &mut Vec<usize>,
    ) {
        flips.clear();
        let n = mutable.len();
        if n == 0 {
            return;
        }
        let j = rng.gen_range(1..=self.k.min(n));
        for i in (n - j)..n {
            let t = rng.gen_range(0..=i);
            flips.push(if flips.contains(&t) { i } else { t });
        }
        for flip in flips.iter_mut() {
            *flip = mutable[*flip];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solution::Solution;
    use rand::{RngCore, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// Applies a move to a copy of `current`.
    fn apply(current: &Solution, flips: &[usize]) -> Solution {
        let mut next = current.clone();
        for &i in flips {
            next.flip(i);
        }
        next
    }

    #[test]
    fn flips_between_one_and_k_distinct_components() {
        let kopt = KOpt::new(3);
        let current = Solution::all_zeros(6);
        let mutable: Vec<usize> = (0..6).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut flipped = Vec::new();
        let mut sizes_seen = [false; 4];
        for _ in 0..200 {
            kopt.draw_flips(&mutable, &mut rng, &mut flipped);
            assert!((1..=3).contains(&flipped.len()));
            assert_eq!(current.hamming(&apply(&current, &flipped)), flipped.len());
            let mut sorted = flipped.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), flipped.len(), "indices must be distinct");
            sizes_seen[flipped.len()] = true;
        }
        // Every move size 1..=3 occurs.
        assert!(sizes_seen[1] && sizes_seen[2] && sizes_seen[3]);
    }

    #[test]
    fn respects_mutable_mask() {
        let kopt = KOpt::new(4);
        let current = Solution::all_ones(6);
        // Only components 2 and 5 may move (the rest are necessity rules).
        let mutable = vec![2, 5];
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let mut flipped = Vec::new();
        for _ in 0..20 {
            kopt.draw_flips(&mutable, &mut rng, &mut flipped);
            assert!(flipped.iter().all(|i| mutable.contains(i)));
            let next = apply(&current, &flipped);
            for i in [0, 1, 3, 4] {
                assert!(next.get(i), "pinned component {i} moved");
            }
        }
    }

    #[test]
    fn k_clamped_to_mutable_count() {
        let kopt = KOpt::new(10);
        let current = Solution::all_zeros(3);
        let mutable = vec![0, 1, 2];
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut flipped = Vec::new();
        for _ in 0..50 {
            kopt.draw_flips(&mutable, &mut rng, &mut flipped);
            assert!(flipped.len() <= 3);
            assert_eq!(apply(&current, &flipped).count_ones(), flipped.len());
        }
    }

    #[test]
    fn no_mutable_components_is_a_noop() {
        let kopt = KOpt::new(2);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut flipped = vec![7, 8];
        kopt.draw_flips(&[], &mut rng, &mut flipped);
        assert!(flipped.is_empty(), "the buffer is cleared");
        // Nothing was drawn.
        assert_eq!(rng.next_u64(), ChaCha8Rng::seed_from_u64(1).next_u64());
    }

    #[test]
    fn draws_are_rand_index_sample_draws() {
        // The same stream as a move size draw followed by
        // `rand::seq::index::sample`, mapped through the mutable list.
        let mutable = vec![1, 4, 5, 9, 12, 13, 20];
        let mut flipped = Vec::new();
        for k in 1..=8 {
            let kopt = KOpt::new(k);
            let mut ours = ChaCha8Rng::seed_from_u64(k as u64);
            let mut reference = ours.clone();
            for _ in 0..100 {
                kopt.draw_flips(&mutable, &mut ours, &mut flipped);
                let j = reference.gen_range(1..=k.min(mutable.len()));
                let expected: Vec<usize> =
                    rand::seq::index::sample(&mut reference, mutable.len(), j)
                        .into_iter()
                        .map(|pos| mutable[pos])
                        .collect();
                assert_eq!(flipped, expected, "k = {k}");
            }
            assert_eq!(ours.next_u64(), reference.next_u64(), "k = {k}");
        }
    }

    #[test]
    fn moves_cover_the_neighbourhood() {
        // Over many draws, a 1-opt on 4 mutable components should flip each
        // component at least once.
        let kopt = KOpt::new(1);
        let mutable: Vec<usize> = (0..4).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut flipped = Vec::new();
        let mut seen = [false; 4];
        for _ in 0..200 {
            kopt.draw_flips(&mutable, &mut rng, &mut flipped);
            seen[flipped[0]] = true;
        }
        assert!(seen.iter().all(|s| *s));
    }

    #[test]
    #[should_panic(expected = "k must be at least 1")]
    fn zero_k_panics() {
        KOpt::new(0);
    }
}
