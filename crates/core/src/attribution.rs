//! Per-resident convenience attribution (paper Table V).
//!
//! The prototype evaluation reports the convenience error *per resident* —
//! each family member entered their own meta-rules and the paper shows all
//! three ended up with F_CE below 1 %. [`OwnerStats`] accumulates the same
//! breakdown: every rule instance's convenience error is credited to the
//! rule's owner.
//!
//! Attribution runs once per rule instance — five million times per dorms
//! horizon — so [`OwnerStats::record`] finds the owner's entry by comparing
//! `Arc` pointers: candidates built from one rule table share their owner
//! string (see [`crate::candidate::NameTable`]). No string is compared or
//! allocated per instance; a name seen through a different `Arc` falls back
//! to a comparison by content. Each owner's `ce_sum` is one running sum
//! added to in instance order.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Accumulated per-owner convenience statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OwnerStats {
    /// One entry per owner, sorted by name.
    entries: Vec<OwnerEntry>,
}

#[derive(Debug, Clone, PartialEq)]
struct OwnerEntry {
    owner: Arc<str>,
    totals: Totals,
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
struct Totals {
    ce_sum: f64,
    instances: u64,
}

impl Totals {
    fn add(&mut self, ce_fraction: f64) {
        self.ce_sum += ce_fraction;
        self.instances += 1;
    }
}

/// The serialized form: owners keyed by name.
#[derive(Serialize, Deserialize)]
struct Wire {
    per_owner: BTreeMap<String, Totals>,
}

impl OwnerStats {
    /// The totals of `owner`, inserted (zeroed) in name order when absent.
    fn totals_mut(&mut self, owner: &Arc<str>) -> &mut Totals {
        let at = match self.entries.binary_search_by(|e| e.owner.cmp(owner)) {
            Ok(at) => at,
            Err(at) => {
                let entry = OwnerEntry {
                    owner: Arc::clone(owner),
                    totals: Totals::default(),
                };
                self.entries.insert(at, entry);
                at
            }
        };
        &mut self.entries[at].totals
    }

    fn totals(&self, owner: &str) -> Option<&Totals> {
        self.entries
            .binary_search_by(|e| (*e.owner).cmp(owner))
            .ok()
            .map(|at| &self.entries[at].totals)
    }

    /// Records one rule instance's convenience-error fraction for `owner`
    /// (a candidate's `owner`). Matches the owner by pointer first, so
    /// candidates sharing their owner string cost no string comparison.
    pub fn record(&mut self, owner: &Arc<str>, ce_fraction: f64) {
        if let Some(entry) = self
            .entries
            .iter_mut()
            .find(|e| Arc::ptr_eq(&e.owner, owner))
        {
            entry.totals.add(ce_fraction);
            return;
        }
        self.totals_mut(owner).add(ce_fraction);
    }

    /// The owners seen, sorted.
    pub fn owners(&self) -> Vec<String> {
        self.entries.iter().map(|e| e.owner.to_string()).collect()
    }

    /// The mean convenience error of `owner` as a percentage, if any
    /// instances were recorded.
    pub fn fce_percent(&self, owner: &str) -> Option<f64> {
        let e = self.totals(owner)?;
        if e.instances == 0 {
            return None;
        }
        Some(100.0 * e.ce_sum / e.instances as f64)
    }

    /// Instances recorded for `owner`.
    pub fn instances(&self, owner: &str) -> u64 {
        self.totals(owner).map_or(0, |e| e.instances)
    }

    /// `(owner, fce_percent)` rows sorted by owner — the Table V layout.
    pub fn table(&self) -> Vec<(String, f64)> {
        self.entries
            .iter()
            .filter(|e| e.totals.instances > 0)
            .map(|e| {
                let t = e.totals;
                (e.owner.to_string(), 100.0 * t.ce_sum / t.instances as f64)
            })
            .collect()
    }

    /// Merges another stats object into this one (used when combining
    /// repetition runs).
    pub fn merge(&mut self, other: &OwnerStats) {
        for entry in &other.entries {
            let e = self.totals_mut(&entry.owner);
            e.ce_sum += entry.totals.ce_sum;
            e.instances += entry.totals.instances;
        }
    }
}

impl Serialize for OwnerStats {
    fn to_value(&self) -> serde::Value {
        Wire {
            per_owner: self
                .entries
                .iter()
                .map(|e| (e.owner.to_string(), e.totals))
                .collect(),
        }
        .to_value()
    }
}

impl Deserialize for OwnerStats {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let wire = Wire::from_value(v)?;
        // BTreeMap iteration is sorted by name, the order `entries` keeps.
        let entries = wire
            .per_owner
            .into_iter()
            .map(|(owner, totals)| OwnerEntry {
                owner: Arc::from(owner),
                totals,
            })
            .collect();
        Ok(OwnerStats { entries })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(owner: &str) -> Arc<str> {
        Arc::from(owner)
    }

    #[test]
    fn records_and_averages() {
        let mut s = OwnerStats::default();
        s.record(&name("father"), 0.02);
        s.record(&name("father"), 0.0);
        s.record(&name("mother"), 0.01);
        assert_eq!(s.instances("father"), 2);
        assert!((s.fce_percent("father").unwrap() - 1.0).abs() < 1e-12);
        assert!((s.fce_percent("mother").unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(s.fce_percent("nobody"), None);
    }

    #[test]
    fn table_rows_sorted_by_owner() {
        let mut s = OwnerStats::default();
        s.record(&name("mother"), 0.1);
        s.record(&name("daughter"), 0.2);
        s.record(&name("father"), 0.3);
        let rows = s.table();
        let names: Vec<&str> = rows.iter().map(|(o, _)| o.as_str()).collect();
        assert_eq!(names, vec!["daughter", "father", "mother"]);
    }

    #[test]
    fn merge_combines() {
        let mut a = OwnerStats::default();
        a.record(&name("father"), 0.5);
        let mut b = OwnerStats::default();
        b.record(&name("father"), 0.0);
        b.record(&name("mother"), 0.25);
        a.merge(&b);
        assert_eq!(a.instances("father"), 2);
        assert!((a.fce_percent("father").unwrap() - 25.0).abs() < 1e-12);
        assert_eq!(a.instances("mother"), 1);
    }

    #[test]
    fn shared_and_fresh_names_land_on_one_entry() {
        let father = name("father");
        let mut shared = OwnerStats::default();
        let mut fresh = OwnerStats::default();
        for (i, ce) in [0.1, 0.2, 0.0, 0.7, 0.3].into_iter().enumerate() {
            // Alternate the shared string with an equal one at another
            // address (matched by content): one running sum either way.
            if i % 2 == 0 {
                shared.record(&father, ce);
            } else {
                shared.record(&name("father"), ce);
            }
            fresh.record(&name("father"), ce);
        }
        shared.record(&name(""), 0.5);
        fresh.record(&name(""), 0.5);
        assert_eq!(shared, fresh);
        assert_eq!(shared.owners(), vec![String::new(), "father".to_string()]);
        assert_eq!(shared.instances("father"), 5);
        assert_eq!(
            shared.fce_percent("father").unwrap().to_bits(),
            (100.0 * (0.1 + 0.2 + 0.0 + 0.7 + 0.3) / 5.0f64).to_bits()
        );
    }

    #[test]
    fn serialized_form_is_keyed_by_owner() {
        let mut s = OwnerStats::default();
        s.record(&name("mother"), 0.25);
        s.record(&name("father"), 0.5);
        let v = s.to_value();
        let per_owner = v.get("per_owner").unwrap().as_object().unwrap();
        let names: Vec<&str> = per_owner.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, vec!["father", "mother"]);
        assert_eq!(OwnerStats::from_value(&v).unwrap(), s);
    }

    #[test]
    fn owners_list() {
        let mut s = OwnerStats::default();
        s.record(&name(""), 0.0);
        s.record(&name("x"), 0.0);
        assert_eq!(s.owners(), vec![String::new(), "x".to_string()]);
    }
}
