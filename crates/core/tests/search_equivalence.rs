//! Search equivalence: the in-place move loops of [`HillClimbing`] and
//! [`SimulatedAnnealing`] against a reference that clones the solution on
//! every move, as the optimizers originally did.
//!
//! The reference draws each move the original way — a move size, then
//! `rand::seq::index::sample` — builds the neighbour as a fresh `Solution`
//! and keeps whichever pair wins. Over random slots (necessity rules mixed
//! in, tight and loose budgets, k ∈ 1..=5) both must return the same
//! solution with a bit-identical objective and leave the RNG at the same
//! point, which proves they made the same draws.

use imcf_core::candidate::{CandidateRule, PlanningSlot};
use imcf_core::objective::{evaluate, evaluate_with_flips, SlotObjective};
use imcf_core::optimizer::{HillClimbing, Optimizer, SimulatedAnnealing};
use imcf_core::solution::Solution;
use imcf_rules::meta_rule::RuleId;
use proptest::prelude::*;
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// The original k-opt move: a cloned neighbour and the flipped indices.
fn reference_neighbour(
    k: usize,
    current: &Solution,
    mutable: &[usize],
    rng: &mut ChaCha8Rng,
) -> (Solution, Vec<usize>) {
    let mut next = current.clone();
    if mutable.is_empty() {
        return (next, Vec::new());
    }
    let k = k.min(mutable.len());
    let j = rng.gen_range(1..=k);
    let chosen: Vec<usize> = rand::seq::index::sample(rng, mutable.len(), j)
        .into_iter()
        .map(|pos| mutable[pos])
        .collect();
    for &i in &chosen {
        next.flip(i);
    }
    (next, chosen)
}

fn necessity_indices(slot: &PlanningSlot) -> Vec<usize> {
    (0..slot.len())
        .filter(|&i| slot.candidates[i].necessity)
        .collect()
}

fn fallback(slot: &PlanningSlot) -> (Solution, SlotObjective) {
    let mut s = Solution::all_zeros(slot.len());
    s.force_on(&necessity_indices(slot));
    let obj = evaluate(slot, &s);
    (s, obj)
}

fn better(budget: f64, a: &(Solution, SlotObjective), b: &(Solution, SlotObjective)) -> bool {
    match (a.1.feasible(budget), b.1.feasible(budget)) {
        (true, false) => true,
        (false, true) => false,
        _ => {
            a.1.ce_sum < b.1.ce_sum || (a.1.ce_sum == b.1.ce_sum && a.1.energy_kwh < b.1.energy_kwh)
        }
    }
}

/// Hill climbing with a cloned neighbour per move.
fn reference_hill_climbing(
    k: usize,
    tau_max: u32,
    slot: &PlanningSlot,
    mut init: Solution,
    rng: &mut ChaCha8Rng,
) -> (Solution, SlotObjective) {
    init.force_on(&necessity_indices(slot));
    let mutable = slot.droppable_indices();
    let mut best = (init.clone(), evaluate(slot, &init));
    for _ in 0..tau_max {
        let (candidate, flipped) = reference_neighbour(k, &best.0, &mutable, rng);
        let obj = evaluate_with_flips(slot, &best.0, best.1, &flipped);
        let next = (candidate, obj);
        if better(slot.budget_kwh, &next, &best) && obj.feasible(slot.budget_kwh) {
            best = next;
        }
    }
    if !best.1.feasible(slot.budget_kwh) {
        return fallback(slot);
    }
    best
}

/// Simulated annealing with a cloned neighbour per move.
fn reference_annealing(
    sa: &SimulatedAnnealing,
    slot: &PlanningSlot,
    mut init: Solution,
    rng: &mut ChaCha8Rng,
) -> (Solution, SlotObjective) {
    init.force_on(&necessity_indices(slot));
    let mutable = slot.droppable_indices();
    let mut current = (init.clone(), evaluate(slot, &init));
    let mut best = current.clone();
    let mut temperature = sa.initial_temperature;
    for _ in 0..sa.tau_max {
        let (candidate, flipped) = reference_neighbour(sa.kopt.k, &current.0, &mutable, rng);
        let obj = evaluate_with_flips(slot, &current.0, current.1, &flipped);
        if obj.feasible(slot.budget_kwh) {
            let delta = obj.ce_sum - current.1.ce_sum;
            let accept = delta < 0.0
                || !current.1.feasible(slot.budget_kwh)
                || rng.gen::<f64>() < (-delta / temperature).exp();
            if accept {
                current = (candidate, obj);
                if better(slot.budget_kwh, &current, &best) {
                    best = current.clone();
                }
            }
        }
        temperature *= sa.cooling;
    }
    if !best.1.feasible(slot.budget_kwh) {
        return fallback(slot);
    }
    best
}

/// A slot of up to 40 candidates, about one in five a necessity rule, with
/// a budget either below the all-rules energy (tight) or above it (loose).
fn arb_slot() -> impl Strategy<Value = PlanningSlot> {
    (
        proptest::collection::vec(
            (
                1.0f64..40.0,
                0.0f64..45.0,
                0.0f64..1.5,
                proptest::bool::weighted(0.2),
            ),
            0..40,
        ),
        any::<bool>(),
        0.0f64..1.0,
    )
        .prop_map(|(rows, loose, fraction)| {
            let candidates: Vec<CandidateRule> = rows
                .into_iter()
                .enumerate()
                .map(|(i, (desired, ambient, kwh, necessity))| {
                    let c = CandidateRule::convenience(RuleId(i as u32), desired, ambient, kwh);
                    if necessity {
                        c.as_necessity()
                    } else {
                        c
                    }
                })
                .collect();
            let all: f64 = candidates.iter().map(|c| c.exec_kwh).sum();
            let budget = if loose {
                all * (1.0 + fraction)
            } else {
                all * fraction * 0.8
            };
            PlanningSlot::new(0, candidates, budget)
        })
}

fn init_for(slot: &PlanningSlot, bits: &[bool]) -> Solution {
    Solution::from_bits((0..slot.len()).map(|i| bits[i % bits.len()]).collect())
}

/// Asserts equal results, bit-equal objectives and the same RNG position.
fn assert_same(
    ours: &(Solution, SlotObjective),
    reference: &(Solution, SlotObjective),
    ours_rng: &mut ChaCha8Rng,
    reference_rng: &mut ChaCha8Rng,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(ours, reference);
    prop_assert_eq!(ours.1.ce_sum.to_bits(), reference.1.ce_sum.to_bits());
    prop_assert_eq!(
        ours.1.energy_kwh.to_bits(),
        reference.1.energy_kwh.to_bits()
    );
    prop_assert_eq!(ours_rng.next_u64(), reference_rng.next_u64());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn hill_climbing_matches_the_clone_per_move_reference(
        slot in arb_slot(),
        k in 1usize..=5,
        tau_max in 0u32..150,
        bits in proptest::collection::vec(any::<bool>(), 1..8),
        seed in any::<u64>(),
    ) {
        let init = init_for(&slot, &bits);
        let mut ours_rng = ChaCha8Rng::seed_from_u64(seed);
        let mut reference_rng = ChaCha8Rng::seed_from_u64(seed);
        let ours = HillClimbing::new(k, tau_max).optimize(&slot, init.clone(), &mut ours_rng);
        let reference = reference_hill_climbing(k, tau_max, &slot, init, &mut reference_rng);
        assert_same(&ours, &reference, &mut ours_rng, &mut reference_rng)?;
    }

    #[test]
    fn annealing_matches_the_clone_per_move_reference(
        slot in arb_slot(),
        k in 1usize..=5,
        tau_max in 0u32..150,
        temperature in 0.01f64..2.0,
        cooling in 0.5f64..0.99,
        bits in proptest::collection::vec(any::<bool>(), 1..8),
        seed in any::<u64>(),
    ) {
        let sa = SimulatedAnnealing::new(k, tau_max, temperature, cooling);
        let init = init_for(&slot, &bits);
        let mut ours_rng = ChaCha8Rng::seed_from_u64(seed);
        let mut reference_rng = ChaCha8Rng::seed_from_u64(seed);
        let ours = sa.optimize(&slot, init.clone(), &mut ours_rng);
        let reference = reference_annealing(&sa, &slot, init, &mut reference_rng);
        assert_same(&ours, &reference, &mut ours_rng, &mut reference_rng)?;
    }
}
