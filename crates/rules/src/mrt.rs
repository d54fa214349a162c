//! The Meta-Rule Table (MRT).
//!
//! An [`Mrt`] is the vector of meta-rules the Energy Planner optimizes over
//! (paper Fig. 2). This module also ships the paper's concrete tables:
//! [`Mrt::flat_table2`] reproduces Table II verbatim, and
//! [`Mrt::scaled_variation`] implements the paper's "uniformly random
//! variations of the same table" used for the house and dorms datasets
//! (paper §II-C).

use crate::action::Action;
use crate::meta_rule::{MetaRule, RuleClass, RuleId};
use crate::window::TimeWindow;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Hours in the paper's year convention (12 months × 31 days × 24 h).
pub const PAPER_HOURS_PER_YEAR: u64 = 12 * 31 * 24;

/// The rules of an [`Mrt`] active at each hour of day, as positions into
/// [`Mrt::rules`] in table order. Built once by [`Mrt::hour_index`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HourIndex {
    hours: [Vec<usize>; 24],
}

impl HourIndex {
    /// Positions of the rules active at `hour_of_day`, in table order: the
    /// rules [`Mrt::active_at_hour`] returns. Empty for hours past 23.
    pub fn active(&self, hour_of_day: u32) -> &[usize] {
        self.hours
            .get(hour_of_day as usize)
            .map_or(&[], Vec::as_slice)
    }
}

/// A Meta-Rule Table: an ordered collection of meta-rules.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Mrt {
    rules: Vec<MetaRule>,
}

impl Mrt {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a table from rules, re-assigning sequential ids when ids
    /// collide.
    pub fn from_rules(rules: Vec<MetaRule>) -> Self {
        let mut mrt = Mrt { rules };
        mrt.ensure_unique_ids();
        mrt
    }

    fn ensure_unique_ids(&mut self) {
        let mut seen = std::collections::HashSet::new();
        let duplicated = self.rules.iter().any(|r| !seen.insert(r.id));
        if duplicated {
            for (i, r) in self.rules.iter_mut().enumerate() {
                r.id = RuleId(i as u32);
            }
        }
    }

    /// Appends a rule, assigning it the next free id.
    pub fn push(&mut self, mut rule: MetaRule) -> RuleId {
        let next = self.rules.iter().map(|r| r.id.0 + 1).max().unwrap_or(0);
        rule.id = RuleId(next);
        let id = rule.id;
        self.rules.push(rule);
        id
    }

    /// All rules in table order.
    pub fn rules(&self) -> &[MetaRule] {
        &self.rules
    }

    /// Number of rules, N = |MRT|.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True when the table has no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Looks a rule up by id.
    pub fn get(&self, id: RuleId) -> Option<&MetaRule> {
        self.rules.iter().find(|r| r.id == id)
    }

    /// The actuation (non-budget) rules, i.e. the planner's decision
    /// variables plus the necessity pass-throughs.
    pub fn actuation_rules(&self) -> impl Iterator<Item = &MetaRule> {
        self.rules.iter().filter(|r| !r.is_budget())
    }

    /// The convenience rules the planner may drop.
    pub fn droppable_rules(&self) -> impl Iterator<Item = &MetaRule> {
        self.rules.iter().filter(|r| r.droppable())
    }

    /// The necessity actuation rules (always executed).
    pub fn necessity_rules(&self) -> impl Iterator<Item = &MetaRule> {
        self.rules
            .iter()
            .filter(|r| !r.is_budget() && r.class == RuleClass::Necessity)
    }

    /// The budget meta-rules (`Set kWh Limit`).
    pub fn budget_rules(&self) -> impl Iterator<Item = &MetaRule> {
        self.rules.iter().filter(|r| r.is_budget())
    }

    /// The tightest budget limit expressed by the table, if any, as
    /// `(limit_kwh, horizon_hours)` normalized to kWh/hour for comparison.
    pub fn tightest_budget(&self) -> Option<(f64, u64)> {
        self.budget_rules()
            .filter_map(|r| {
                let h = r.horizon_hours?;
                (h > 0).then(|| (r.action.desired_value(), h))
            })
            .min_by(|a, b| {
                let ra = a.0 / a.1 as f64;
                let rb = b.0 / b.1 as f64;
                ra.total_cmp(&rb)
            })
    }

    /// Rules active at the given hour of day (actuation rules only).
    pub fn active_at_hour(&self, hour_of_day: u32) -> Vec<&MetaRule> {
        self.rules
            .iter()
            .filter(|r| r.active_at_hour(hour_of_day))
            .collect()
    }

    /// Indexes the table by hour of day: [`HourIndex::active`] then answers
    /// [`Mrt::active_at_hour`] without scanning the table or allocating.
    pub fn hour_index(&self) -> HourIndex {
        HourIndex {
            hours: std::array::from_fn(|hour| {
                (0..self.rules.len())
                    .filter(|&i| self.rules[i].active_at_hour(hour as u32))
                    .collect()
            }),
        }
    }

    /// The paper's Table II: the six convenience rules of the flat
    /// experiments plus the three-year energy budget row for the requested
    /// dataset scale.
    ///
    /// `budget_kwh` selects which `Energy *` row applies (11000 for the flat,
    /// 25500 for the house, 480000 for the dorms).
    pub fn flat_table2(budget_kwh: f64) -> Mrt {
        let mut rules = vec![
            MetaRule::convenience(
                0,
                "Night Heat",
                TimeWindow::hours(1, 7),
                Action::SetTemperature(25.0),
            ),
            MetaRule::convenience(
                1,
                "Morning Lights",
                TimeWindow::hours(4, 9),
                Action::SetLight(40.0),
            ),
            MetaRule::convenience(
                2,
                "Day Heat",
                TimeWindow::hours(8, 16),
                Action::SetTemperature(22.0),
            ),
            MetaRule::convenience(
                3,
                "Midday Lights",
                TimeWindow::hours(10, 17),
                Action::SetLight(30.0),
            ),
            MetaRule::convenience(
                4,
                "Afternoon Preheat",
                TimeWindow::hours(17, 24),
                Action::SetTemperature(24.0),
            ),
            MetaRule::convenience(
                5,
                "Cosmetic Lights",
                TimeWindow::hours(18, 24),
                Action::SetLight(40.0),
            ),
        ];
        rules.push(MetaRule::budget(
            6,
            "Energy Budget",
            budget_kwh,
            3 * PAPER_HOURS_PER_YEAR,
        ));
        Mrt { rules }
    }

    /// Generates a scaled MRT as "uniformly random variations" of this
    /// table's convenience rules (paper §II-C): the convenience rules are
    /// replicated once per `zone`, with windows jittered by up to ±90 minutes
    /// and setpoints by up to ±2 units; the budget rows are replaced by the
    /// provided budget.
    ///
    /// Determinism: the same `seed` always yields the same table.
    pub fn scaled_variation(&self, zones: usize, budget_kwh: f64, seed: u64) -> Mrt {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut rules = Vec::new();
        let mut id = 0u32;
        for zone in 0..zones {
            for base in self.actuation_rules() {
                let jitter_min: i32 = rng.gen_range(-90..=90);
                let dv: f64 = rng.gen_range(-2.0..=2.0);
                let value = match base.action {
                    Action::SetTemperature(v) => (v + dv).clamp(16.0, 28.0),
                    Action::SetLight(v) => (v + dv * 5.0).clamp(0.0, 100.0),
                    Action::SetKwhLimit(v) => v,
                };
                let mut r = base.clone();
                r.id = RuleId(id);
                r.description = format!("{} (zone {})", base.description, zone);
                r.window = base.window.shifted(jitter_min);
                r.action = base.action.with_value(value);
                rules.push(r);
                id += 1;
            }
        }
        rules.push(MetaRule::budget(
            id,
            "Energy Budget",
            budget_kwh,
            3 * PAPER_HOURS_PER_YEAR,
        ));
        Mrt { rules }
    }
}

impl FromIterator<MetaRule> for Mrt {
    fn from_iter<T: IntoIterator<Item = MetaRule>>(iter: T) -> Self {
        Mrt::from_rules(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_has_six_convenience_rules_and_one_budget() {
        let mrt = Mrt::flat_table2(11000.0);
        assert_eq!(mrt.len(), 7);
        assert_eq!(mrt.droppable_rules().count(), 6);
        assert_eq!(mrt.budget_rules().count(), 1);
        let (limit, horizon) = mrt.tightest_budget().unwrap();
        assert_eq!(limit, 11000.0);
        assert_eq!(horizon, 3 * PAPER_HOURS_PER_YEAR);
    }

    #[test]
    fn table2_windows_match_paper() {
        let mrt = Mrt::flat_table2(11000.0);
        let windows: Vec<String> = mrt
            .actuation_rules()
            .map(|r| r.window.to_string())
            .collect();
        assert_eq!(
            windows,
            vec![
                "01:00 - 07:00",
                "04:00 - 09:00",
                "08:00 - 16:00",
                "10:00 - 17:00",
                "17:00 - 24:00",
                "18:00 - 24:00",
            ]
        );
    }

    #[test]
    fn active_rules_at_5am() {
        let mrt = Mrt::flat_table2(11000.0);
        let names: Vec<&str> = mrt
            .active_at_hour(5)
            .iter()
            .map(|r| r.description.as_str())
            .collect();
        assert_eq!(names, vec!["Night Heat", "Morning Lights"]);
    }

    #[test]
    fn active_rules_at_20() {
        let mrt = Mrt::flat_table2(11000.0);
        let names: Vec<&str> = mrt
            .active_at_hour(20)
            .iter()
            .map(|r| r.description.as_str())
            .collect();
        assert_eq!(names, vec!["Afternoon Preheat", "Cosmetic Lights"]);
    }

    #[test]
    fn hour_index_agrees_with_active_at_hour() {
        let base = Mrt::flat_table2(11000.0);
        // Jittered windows cross hour boundaries and midnight.
        for mrt in [base.clone(), base.scaled_variation(3, 25500.0, 9)] {
            let index = mrt.hour_index();
            for hour in 0..24 {
                let indexed: Vec<&MetaRule> = index
                    .active(hour)
                    .iter()
                    .map(|&i| &mrt.rules()[i])
                    .collect();
                assert_eq!(indexed, mrt.active_at_hour(hour), "hour {hour}");
            }
            assert!(index.active(24).is_empty());
        }
    }

    #[test]
    fn scaled_variation_is_deterministic() {
        let base = Mrt::flat_table2(11000.0);
        let a = base.scaled_variation(4, 25500.0, 42);
        let b = base.scaled_variation(4, 25500.0, 42);
        assert_eq!(a, b);
        let c = base.scaled_variation(4, 25500.0, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn scaled_variation_size() {
        let base = Mrt::flat_table2(11000.0);
        // House: 4 zones × 6 rules + 1 budget row.
        let house = base.scaled_variation(4, 25500.0, 1);
        assert_eq!(house.len(), 25);
        // Dorms: 50 apartments.
        let dorms = base.scaled_variation(50, 480000.0, 1);
        assert_eq!(dorms.len(), 301);
        assert_eq!(dorms.tightest_budget().unwrap().0, 480000.0);
    }

    #[test]
    fn scaled_setpoints_stay_in_bounds() {
        let base = Mrt::flat_table2(11000.0);
        let dorms = base.scaled_variation(50, 480000.0, 7);
        for r in dorms.actuation_rules() {
            match r.action {
                Action::SetTemperature(v) => assert!((16.0..=28.0).contains(&v)),
                Action::SetLight(v) => assert!((0.0..=100.0).contains(&v)),
                Action::SetKwhLimit(_) => panic!("actuation_rules yielded a budget row"),
            }
        }
    }

    #[test]
    fn push_assigns_fresh_ids() {
        let mut mrt = Mrt::new();
        let a = mrt.push(MetaRule::convenience(
            99,
            "A",
            TimeWindow::hours(0, 1),
            Action::SetLight(1.0),
        ));
        let b = mrt.push(MetaRule::convenience(
            99,
            "B",
            TimeWindow::hours(1, 2),
            Action::SetLight(2.0),
        ));
        assert_ne!(a, b);
        assert!(mrt.get(a).is_some());
        assert!(mrt.get(b).is_some());
    }

    #[test]
    fn from_rules_fixes_duplicate_ids() {
        let rules = vec![
            MetaRule::convenience(1, "A", TimeWindow::hours(0, 1), Action::SetLight(1.0)),
            MetaRule::convenience(1, "B", TimeWindow::hours(1, 2), Action::SetLight(2.0)),
        ];
        let mrt = Mrt::from_rules(rules);
        let ids: Vec<_> = mrt.rules().iter().map(|r| r.id).collect();
        assert_eq!(ids.len(), 2);
        assert_ne!(ids[0], ids[1]);
    }

    #[test]
    fn tightest_budget_picks_lowest_rate() {
        let mut mrt = Mrt::new();
        mrt.push(MetaRule::budget(0, "Loose", 10000.0, 100));
        mrt.push(MetaRule::budget(0, "Tight", 10.0, 100));
        let (limit, _) = mrt.tightest_budget().unwrap();
        assert_eq!(limit, 10.0);
    }

    #[test]
    fn empty_table_has_no_budget() {
        assert!(Mrt::new().tightest_budget().is_none());
        assert!(Mrt::new().is_empty());
    }
}
