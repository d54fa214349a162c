//! The slot builder: joining traces, rules, devices and budgets.
//!
//! For every hour of the horizon, [`SlotBuilder`] materializes the
//! [`PlanningSlot`] the Energy Planner (and the baselines) consume: one
//! candidate per active meta-rule across all zones, each priced through the
//! dataset's device models against the zone's ambient trace values, plus
//! the hourly budget from the Amortization Plan. IFTTT counterpart values
//! are resolved per zone from the dataset's Table III rule set.
//!
//! Slots are produced lazily — a dorms-scale horizon holds millions of
//! candidate instances and is streamed, never collected.
//!
//! Everything about a zone that does not change with the hour is resolved
//! once, in [`SlotBuilder::new`]: each zone's rules by hour of day
//! ([`Mrt::hour_index`]), its name and its owners as shared strings, and
//! the largest slot each hour of day can produce. [`SlotBuilder::slot_at`]
//! then decomposes the calendar once per hour and, per candidate, only
//! prices the rule and clones two `Arc`s.

use crate::building::Dataset;
use imcf_core::amortization::AmortizationPlan;
use imcf_core::candidate::{CandidateRule, NameTable, PlanningSlot};
use imcf_rules::action::{Action, DeviceClass};
use imcf_rules::env::{EnvSnapshot, Season, Weather};
use imcf_rules::meta_rule::RuleClass;
use imcf_rules::mrt::{HourIndex, Mrt};
use imcf_traces::series::ZoneTrace;
use std::sync::Arc;

/// A zone with its rule table, resolved once per builder.
struct Zone<'a> {
    trace: &'a ZoneTrace,
    mrt: &'a Mrt,
    hours: HourIndex,
    name: Arc<str>,
    /// The owner of each rule, by position in `mrt.rules()`.
    owners: Vec<Arc<str>>,
}

/// Builds planning slots for a dataset under an amortization plan.
pub struct SlotBuilder<'a> {
    dataset: &'a Dataset,
    plan: &'a AmortizationPlan,
    zones: Vec<Zone<'a>>,
    /// Candidates a slot can hold at each hour of day, over all zones.
    capacity: [usize; 24],
}

impl<'a> SlotBuilder<'a> {
    /// Creates a builder, indexing every zone's rules by hour of day.
    pub fn new(dataset: &'a Dataset, plan: &'a AmortizationPlan) -> Self {
        let mut names = NameTable::new();
        let zones: Vec<Zone<'a>> = dataset
            .trace
            .zones
            .iter()
            .zip(dataset.zone_mrts.iter())
            .map(|(trace, mrt)| Zone {
                trace,
                mrt,
                hours: mrt.hour_index(),
                name: Arc::from(trace.zone.as_str()),
                owners: mrt.rules().iter().map(|r| names.intern(&r.owner)).collect(),
            })
            .collect();
        let capacity = std::array::from_fn(|hour| {
            zones
                .iter()
                .map(|z| z.hours.active(hour as u32).len())
                .sum()
        });
        SlotBuilder {
            dataset,
            plan,
            zones,
            capacity,
        }
    }

    /// Builds the slot for one hour.
    pub fn slot_at(&self, hour_index: u64) -> PlanningSlot {
        let dt = self.dataset.trace.calendar.decompose(hour_index);
        let season = Season::from_month(dt.month);
        // Classify the day's sky condition from the noon reading: a bright
        // noon implies a clear day (the trigger-action platform's weather
        // feed reports sky condition, not instantaneous indoor light).
        let day_start = hour_index - (dt.hour as u64);
        let noon = (day_start + 12).min(self.dataset.horizon_hours - 1);
        let mut candidates = Vec::with_capacity(self.capacity[dt.hour as usize]);
        for zone in &self.zones {
            let active = zone.hours.active(dt.hour);
            if active.is_empty() {
                continue;
            }
            let trace = zone.trace;
            let ambient_temp = trace.temperature.at(hour_index);
            let ambient_light = trace.light.at(hour_index);
            // The IFTTT engine's view of the zone this hour.
            let env = EnvSnapshot {
                month: dt.month,
                hour: dt.hour,
                minute: 0,
                season,
                weather: if trace.light.at(noon) > 33.0 {
                    Weather::Sunny
                } else {
                    Weather::Cloudy
                },
                temperature: ambient_temp,
                light_level: ambient_light,
                door_open: trace.door_open.at(hour_index) > 0.05,
            };
            let ifttt_actions = self.dataset.ifttt.resolve(&env);
            // The IFTTT counterpart per device class: the perceived value
            // and the energy of its actuation.
            let counterparts = DeviceClass::ALL.map(|class| {
                let action = ifttt_actions.get(class)?;
                let v = action.desired_value();
                let kwh = self.dataset.action_kwh(action, ambient_temp, ambient_light);
                // The perceived output of an IFTTT lamp actuation
                // includes daylight (lamps add to ambient).
                let perceived = match class {
                    DeviceClass::Light => (v + ambient_light).min(100.0),
                    _ => v,
                };
                Some((perceived, kwh))
            });
            for &position in active {
                let rule = &zone.mrt.rules()[position];
                let (desired, ambient) = match rule.action {
                    Action::SetTemperature(v) => (v, ambient_temp),
                    Action::SetLight(v) => (v, ambient_light),
                    Action::SetKwhLimit(_) => continue,
                };
                let device_class = rule.action.device_class();
                let (ifttt_value, ifttt_kwh) = match counterparts[device_class.index()] {
                    Some((value, kwh)) => (Some(value), kwh),
                    None => (None, 0.0),
                };
                candidates.push(CandidateRule {
                    rule_id: rule.id,
                    zone: Arc::clone(&zone.name),
                    device_class,
                    owner: Arc::clone(&zone.owners[position]),
                    priority: rule.priority,
                    necessity: rule.class == RuleClass::Necessity,
                    desired,
                    ambient,
                    exec_kwh: self
                        .dataset
                        .action_kwh(&rule.action, ambient_temp, ambient_light),
                    ifttt_value,
                    ifttt_kwh,
                });
            }
        }
        PlanningSlot::new(hour_index, candidates, self.plan.hourly_budget(hour_index))
    }

    /// Streams every slot of the horizon.
    pub fn iter(&self) -> impl Iterator<Item = PlanningSlot> + '_ {
        (0..self.dataset.horizon_hours).map(move |h| self.slot_at(h))
    }

    /// Streams a sub-range of the horizon (used by tests and the live
    /// controller loop).
    pub fn range(&self, hours: std::ops::Range<u64>) -> impl Iterator<Item = PlanningSlot> + '_ {
        hours.map(move |h| self.slot_at(h))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::building::DatasetKind;
    use imcf_core::amortization::ApKind;
    use imcf_core::calendar::HOURS_PER_DAY;

    fn flat_setup() -> (Dataset, AmortizationPlan) {
        let d = Dataset::build(DatasetKind::Flat, 0);
        let ecp = d.derive_mr_ecp();
        let plan = AmortizationPlan::new(
            ApKind::Eaf,
            ecp,
            d.budget_kwh,
            d.horizon_hours,
            d.calendar(),
        );
        (d, plan)
    }

    #[test]
    fn active_candidates_follow_table2_windows() {
        let (d, plan) = flat_setup();
        let b = SlotBuilder::new(&d, &plan);
        // 05:00 — Night Heat + Morning Lights.
        let slot = b.slot_at(5);
        assert_eq!(slot.len(), 2);
        // 12:00 — Day Heat + Midday Lights.
        assert_eq!(b.slot_at(12).len(), 2);
        // 00:00 — nothing.
        assert_eq!(b.slot_at(0).len(), 0);
        // 20:00 — Afternoon Preheat + Cosmetic Lights.
        assert_eq!(b.slot_at(20).len(), 2);
    }

    #[test]
    fn candidate_pricing_reflects_ambient() {
        let (d, plan) = flat_setup();
        let b = SlotBuilder::new(&d, &plan);
        // Hour 0 of the horizon is October; deep winter is ~3 months in.
        let winter_night = (3 * 31 + 10) as u64 * HOURS_PER_DAY + 5;
        let summer_night = (9 * 31 + 10) as u64 * HOURS_PER_DAY + 5;
        let winter_slot = b.slot_at(winter_night);
        let summer_slot = b.slot_at(summer_night);
        let winter_hvac = winter_slot
            .candidates
            .iter()
            .find(|c| c.desired == 25.0)
            .unwrap();
        let summer_hvac = summer_slot
            .candidates
            .iter()
            .find(|c| c.desired == 25.0)
            .unwrap();
        assert!(winter_hvac.exec_kwh > summer_hvac.exec_kwh);
        assert!(winter_hvac.ambient < summer_hvac.ambient);
    }

    #[test]
    fn budgets_come_from_the_plan() {
        let (d, plan) = flat_setup();
        let b = SlotBuilder::new(&d, &plan);
        let s = b.slot_at(100);
        assert!((s.budget_kwh - plan.hourly_budget(100)).abs() < 1e-12);
    }

    #[test]
    fn ifttt_counterparts_present_when_triggers_fire() {
        let (d, plan) = flat_setup();
        let b = SlotBuilder::new(&d, &plan);
        // Every slot with HVAC candidates should have an IFTTT temperature
        // counterpart: Table III has season rules covering every season.
        let mut covered = 0;
        let mut total = 0;
        for h in (0..d.horizon_hours).step_by(97) {
            for c in &b.slot_at(h).candidates {
                if c.desired >= 20.0 && c.desired <= 26.0 {
                    total += 1;
                    if c.ifttt_value.is_some() {
                        covered += 1;
                    }
                }
            }
        }
        assert!(total > 0);
        assert!(covered * 10 >= total * 9, "ifttt covered {covered}/{total}");
    }

    #[test]
    fn dorms_slots_span_zones() {
        let d = Dataset::build(DatasetKind::Dorms, 0);
        let ecp = d.derive_mr_ecp();
        let plan = AmortizationPlan::new(
            ApKind::Eaf,
            ecp,
            d.budget_kwh,
            d.horizon_hours,
            d.calendar(),
        );
        let b = SlotBuilder::new(&d, &plan);
        let slot = b.slot_at(5);
        // 100 zones × ~2 active rules (windows jittered, so roughly).
        assert!(slot.len() > 120, "len = {}", slot.len());
        assert!(slot.len() <= 100 * 6);
    }

    #[test]
    fn range_streams_the_requested_hours() {
        let (d, plan) = flat_setup();
        let b = SlotBuilder::new(&d, &plan);
        let hours: Vec<u64> = b.range(10..15).map(|s| s.hour_index).collect();
        assert_eq!(hours, vec![10, 11, 12, 13, 14]);
    }
}
