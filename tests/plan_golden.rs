//! Golden plans: the exact `PlanReport`s and ECPs of three fixed inputs.
//!
//! Pins, bit for bit, what the planning pipeline produces end to end:
//!
//! * the MR-derived ECP (`Dataset::derive_mr_ecp`), one line per month;
//! * the Energy Planner's report with the paper defaults (k = 2,
//!   τ_max = 100, all-1s init, EAF budget, carry-over) for two planner
//!   seeds, `planning_time` excluded;
//! * the NR, MR and IFTTT baseline reports.
//!
//! The inputs are the flat dataset's full horizon, dorms hours `0..2000`,
//! and a flat dataset whose MRT is `assets/family.mrt`, so that named
//! owners are pinned next to the household owner `""`.
//!
//! Every float is written as its IEEE-754 bit pattern, so any change to an
//! RNG draw, a search decision or a summation order fails this test. A
//! change that means to alter a plan re-records the fixture on purpose: on
//! mismatch the rendering is written to cargo's `CARGO_TARGET_TMPDIR`
//! (`target/tmp`), and copying it over `tests/fixtures/plan_golden.txt`
//! records it.

use imcf::core::baselines::{run_ifttt, run_mr, run_nr};
use imcf::core::{AmortizationPlan, ApKind, EnergyPlanner, PlanReport, PlannerConfig};
use imcf::rules::parse::parse_mrt;
use imcf::sim::{Dataset, DatasetKind, SlotBuilder};
use std::fmt::Write as _;
use std::ops::Range;

/// The planner seeds each input is planned with.
const PLANNER_SEEDS: [u64; 2] = [0, 7];

const FIXTURE: &str = include_str!("fixtures/plan_golden.txt");

fn bits(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

/// Renders one report: totals, then one line per owner in owner order.
fn render_report(out: &mut String, label: &str, report: &PlanReport) {
    writeln!(
        out,
        "{label} energy_kwh={} ce_sum={} instances={} slots={} dropped={}",
        bits(report.energy_kwh),
        bits(report.ce_sum),
        report.instances,
        report.slots,
        report.dropped_instances,
    )
    .unwrap();
    for owner in report.owners.owners() {
        let fce = report.owners.fce_percent(&owner).unwrap_or(f64::NAN);
        writeln!(
            out,
            "{label} owner={owner:?} instances={} fce_pct={}",
            report.owners.instances(&owner),
            bits(fce),
        )
        .unwrap();
    }
}

/// Renders the ECP and every method's report for one input.
fn render(name: &str, dataset: &Dataset, hours: Range<u64>) -> String {
    let mut out = String::new();
    let ecp = dataset.derive_mr_ecp();
    for month in 1..=12 {
        writeln!(
            out,
            "{name} ecp month={month} kwh={}",
            bits(ecp.month_kwh(month))
        )
        .unwrap();
    }
    let plan = AmortizationPlan::new(
        ApKind::Eaf,
        ecp,
        dataset.budget_kwh,
        dataset.horizon_hours,
        dataset.calendar(),
    );
    let builder = SlotBuilder::new(dataset, &plan);
    for seed in PLANNER_SEEDS {
        let planner = EnergyPlanner::from_config(PlannerConfig {
            seed,
            ..PlannerConfig::default()
        });
        let report = planner.plan(builder.range(hours.clone()));
        render_report(&mut out, &format!("{name} ep seed={seed}"), &report);
    }
    render_report(
        &mut out,
        &format!("{name} nr"),
        &run_nr(builder.range(hours.clone())),
    );
    render_report(
        &mut out,
        &format!("{name} mr"),
        &run_mr(builder.range(hours.clone())),
    );
    render_report(
        &mut out,
        &format!("{name} ifttt"),
        &run_ifttt(builder.range(hours)),
    );
    out
}

/// Compares `actual` with the fixture's lines for input `name`.
fn check(name: &str, actual: &str) {
    let prefix = format!("{name} ");
    let expected: String = FIXTURE
        .lines()
        .filter(|l| l.starts_with(&prefix))
        .map(|l| format!("{l}\n"))
        .collect();
    if expected == actual {
        return;
    }
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("plan_golden.{name}.actual.txt"));
    std::fs::write(&path, actual).unwrap();
    let diff = expected
        .lines()
        .zip(actual.lines())
        .find(|(e, a)| e != a)
        .map_or_else(
            || {
                format!(
                    "{} expected lines, {} actual",
                    expected.lines().count(),
                    actual.lines().count()
                )
            },
            |(e, a)| format!("first difference:\n  expected {e}\n  actual   {a}"),
        );
    panic!(
        "{name}: plans differ from tests/fixtures/plan_golden.txt; {diff}\n\
         full rendering written to {}",
        path.display()
    );
}

#[test]
fn flat_full_horizon_plans_are_unchanged() {
    let dataset = Dataset::build(DatasetKind::Flat, 0);
    let horizon = dataset.horizon_hours;
    check("flat", &render("flat", &dataset, 0..horizon));
}

#[test]
fn dorms_first_2000_hours_plans_are_unchanged() {
    let dataset = Dataset::build(DatasetKind::Dorms, 0);
    check("dorms", &render("dorms", &dataset, 0..2000));
}

#[test]
fn family_mrt_owner_attribution_is_unchanged() {
    let text = include_str!("../assets/family.mrt");
    let mut dataset = Dataset::build(DatasetKind::Flat, 0);
    dataset.zone_mrts = vec![parse_mrt(text).unwrap()];
    let horizon = dataset.horizon_hours;
    check("family", &render("family", &dataset, 0..horizon));
}
