//! Binary rule-activation vectors (paper §II-B, "Solution Representation").
//!
//! An energy plan solution is a vector `s = ⟨s_1, …, s_N⟩` where `s_i = 1`
//! adopts meta-rule `i` and `s_i = 0` ignores it. [`Solution`] wraps a
//! `Vec<bool>` with the operations the planner needs: flipping components
//! (the k-opt move), forcing necessity rules on, and counting.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A binary activation vector over a slot's candidates.
#[derive(Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Solution {
    bits: Vec<bool>,
}

impl Clone for Solution {
    fn clone(&self) -> Self {
        Solution {
            bits: self.bits.clone(),
        }
    }

    /// Reuses `self`'s buffer: simulated annealing copies its current
    /// solution into its best one this way.
    fn clone_from(&mut self, source: &Self) {
        self.bits.clone_from(&source.bits);
    }
}

impl Solution {
    /// All-ones: every rule adopted (the MR extreme).
    pub fn all_ones(n: usize) -> Self {
        Solution {
            bits: vec![true; n],
        }
    }

    /// All-zeros: every rule ignored (the NR extreme).
    pub fn all_zeros(n: usize) -> Self {
        Solution {
            bits: vec![false; n],
        }
    }

    /// From explicit bits.
    pub fn from_bits(bits: Vec<bool>) -> Self {
        Solution { bits }
    }

    /// Vector length N.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// True for the empty vector.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Whether component `i` is set.
    pub fn get(&self, i: usize) -> bool {
        self.bits[i]
    }

    /// Sets component `i`.
    pub fn set(&mut self, i: usize, value: bool) {
        self.bits[i] = value;
    }

    /// Flips component `i` (the unit k-opt move).
    pub fn flip(&mut self, i: usize) {
        self.bits[i] = !self.bits[i];
    }

    /// Number of adopted rules.
    pub fn count_ones(&self) -> usize {
        self.bits.iter().filter(|b| **b).count()
    }

    /// Iterates the bits.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        self.bits.iter().copied()
    }

    /// Underlying bits.
    pub fn bits(&self) -> &[bool] {
        &self.bits
    }

    /// Forces the given indices on (necessity rules must always execute).
    pub fn force_on(&mut self, indices: &[usize]) {
        for &i in indices {
            self.bits[i] = true;
        }
    }

    /// Hamming distance to another solution of the same length.
    ///
    /// # Panics
    /// Panics when lengths differ.
    pub fn hamming(&self, other: &Solution) -> usize {
        assert_eq!(self.len(), other.len(), "length mismatch");
        self.bits
            .iter()
            .zip(other.bits.iter())
            .filter(|(a, b)| a != b)
            .count()
    }
}

impl fmt::Display for Solution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨")?;
        for (i, b) in self.bits.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", if *b { 1 } else { 0 })?;
        }
        write!(f, "⟩")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extremes() {
        let ones = Solution::all_ones(4);
        let zeros = Solution::all_zeros(4);
        assert_eq!(ones.count_ones(), 4);
        assert_eq!(zeros.count_ones(), 0);
        assert_eq!(ones.hamming(&zeros), 4);
    }

    #[test]
    fn flip_is_involutive() {
        let mut s = Solution::from_bits(vec![true, false, false, true]);
        s.flip(1);
        assert!(s.get(1));
        s.flip(1);
        assert!(!s.get(1));
    }

    #[test]
    fn paper_example_vectors() {
        // Fig. 4: s* = ⟨1,0,0,1⟩, after flipping components 2 and 4 (1-based)
        // the new solution is ⟨1,1,0,0⟩.
        let mut s = Solution::from_bits(vec![true, false, false, true]);
        s.flip(1);
        s.flip(3);
        assert_eq!(s, Solution::from_bits(vec![true, true, false, false]));
        assert_eq!(s.to_string(), "⟨1, 1, 0, 0⟩");
    }

    #[test]
    fn clone_from_copies_the_bits() {
        let source = Solution::from_bits(vec![true, false, true]);
        let mut target = Solution::all_zeros(5);
        target.clone_from(&source);
        assert_eq!(target, source);
    }

    #[test]
    fn force_on() {
        let mut s = Solution::all_zeros(5);
        s.force_on(&[1, 3]);
        assert_eq!(s.count_ones(), 2);
        assert!(s.get(1) && s.get(3));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn hamming_length_mismatch_panics() {
        Solution::all_ones(3).hamming(&Solution::all_ones(4));
    }
}
