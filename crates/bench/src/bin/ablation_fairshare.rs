//! Ablation (extension): joint planning vs fair-share multi-planning on
//! the prototype family's workload (the Table V setting, extended to the
//! paper's future-work question of "multiple energy planners with
//! conflicting interests").
//!
//! The joint EP optimizes the household aggregate and may concentrate
//! drops on one resident; the fair-share planner gives every resident a
//! budget entitlement and redistributes leftovers, bounding the spread
//! between the best- and worst-served resident.

use imcf_controller::prototype::{family_mrt, WEEK_HOURS};
use imcf_core::amortization::{AmortizationPlan, ApKind};
use imcf_core::calendar::PaperCalendar;
use imcf_core::candidate::{CandidateRule, NameTable, PlanningSlot};
use imcf_core::ecp::Ecp;
use imcf_core::fairshare::{FairSharePlanner, ShareRule};
use imcf_core::planner::{EnergyPlanner, PlannerConfig};
use imcf_devices::energy::{DeviceEnergyModel, HvacModel, LightModel};
use imcf_rules::action::{Action, DeviceClass};
use imcf_rules::meta_rule::RuleClass;
use imcf_sim::thermal::RoomThermalModel;
use imcf_sim::weather::WeatherApi;
use imcf_traces::generator::ClimateModel;

fn family_slots(budget_kwh: f64, tight_factor: f64, seed: u64) -> Vec<PlanningSlot> {
    let calendar = PaperCalendar::january_start();
    let weather = WeatherApi::new(ClimateModel::mediterranean(), calendar, seed);
    let mrt = family_mrt(budget_kwh);
    let hvac = HvacModel::split_unit_flat();
    let light = LightModel::led_array();
    let plan = AmortizationPlan::new(
        ApKind::Laf,
        Ecp::new(vec![budget_kwh]),
        budget_kwh * tight_factor,
        WEEK_HOURS,
        calendar,
    );
    let mut twin = RoomThermalModel::flat(18.0);
    let mut names = NameTable::new();
    let mut slots = Vec::with_capacity(WEEK_HOURS as usize);
    for h in 0..WEEK_HOURS {
        let sample = weather.sample(h);
        twin.step_free(sample.outdoor_c);
        let ambient_light = 0.8 * sample.daylight;
        let hour_of_day = calendar.hour_of_day(h);
        let candidates = mrt
            .active_at_hour(hour_of_day)
            .into_iter()
            .filter_map(|rule| {
                let (desired, ambient, class, kwh) = match rule.action {
                    Action::SetTemperature(v) => (
                        v,
                        twin.indoor_c,
                        DeviceClass::Hvac,
                        hvac.hourly_kwh(v, twin.indoor_c),
                    ),
                    Action::SetLight(v) => (
                        v,
                        ambient_light,
                        DeviceClass::Light,
                        light.hourly_kwh(v, ambient_light),
                    ),
                    Action::SetKwhLimit(_) => return None,
                };
                let mut c =
                    CandidateRule::convenience(rule.id, desired, ambient, kwh).for_class(class);
                c.owner = names.intern(&rule.owner);
                c.necessity = rule.class == RuleClass::Necessity;
                Some(c)
            })
            .collect();
        slots.push(PlanningSlot::new(h, candidates, plan.hourly_budget(h)));
    }
    slots
}

fn main() {
    println!("=== Ablation: joint EP vs fair-share multi-planning (family week) ===\n");
    for tightness in [1.0, 0.5, 0.3] {
        let slots = family_slots(165.0, tightness, 0);
        println!(
            "--- budget factor {tightness} ({:.0} kWh for the week) ---",
            165.0 * tightness
        );

        let joint = EnergyPlanner::from_config(PlannerConfig::default()).plan(slots.clone());
        let joint_rows = joint.owners.table();
        let joint_spread = joint_rows
            .iter()
            .map(|(_, f)| *f)
            .fold(f64::NEG_INFINITY, f64::max)
            - joint_rows
                .iter()
                .map(|(_, f)| *f)
                .fold(f64::INFINITY, f64::min);

        let fair =
            FairSharePlanner::new(PlannerConfig::default(), ShareRule::Equal).plan(slots.clone());
        let prop =
            FairSharePlanner::new(PlannerConfig::default(), ShareRule::Proportional).plan(slots);

        println!(
            "{:<22} | {:>10} | {:>12} | {:>14}",
            "planner", "F_CE (%)", "F_E (kWh)", "owner spread"
        );
        println!(
            "{:<22} | {:>10.3} | {:>12.2} | {:>13.3}pp",
            "joint EP",
            joint.fce_percent(),
            joint.fe_kwh(),
            joint_spread
        );
        println!(
            "{:<22} | {:>10.3} | {:>12.2} | {:>13.3}pp",
            "fair-share (equal)",
            fair.fce_percent(),
            fair.energy_kwh,
            fair.fce_spread()
        );
        println!(
            "{:<22} | {:>10.3} | {:>12.2} | {:>13.3}pp",
            "fair-share (prop.)",
            prop.fce_percent(),
            prop.energy_kwh,
            prop.fce_spread()
        );
        println!("per-resident F_CE (fair-share equal):");
        for (owner, fce) in fair.owners.table() {
            println!(
                "  {:<10} {fce:.3} %",
                if owner.is_empty() {
                    "(household)"
                } else {
                    &owner
                }
            );
        }
        println!();
    }
}
