//! The planner section: the paper's Energy Planner over a full dataset
//! horizon, timed end to end (F_T, F_CE, set-up) and, in the traced run,
//! layer by layer (trace synthesis, ECP, amortization budget, slot build,
//! planner self time).

use crate::report::Report;
use crate::span::Recorder;
use crate::stats::{median, summarize};
use imcf_core::amortization::{AmortizationPlan, ApKind};
use imcf_core::candidate::PlanningSlot;
use imcf_core::planner::{EnergyPlanner, PlanReport, PlannerConfig};
use imcf_sim::building::{Dataset, DatasetKind};
use imcf_sim::slots::SlotBuilder;
use std::time::{Duration, Instant};

/// The dataset seed: the datasets of the paper's Fig. 6 run. The workload
/// seed picks the planner seeds, so F_CE varies with the optimizer's
/// choices, not with a different synthetic building.
const DATASET_SEED: u64 = 0;
/// Set-ups timed per run at the least, and for at least
/// [`SETUP_BUDGET`]; the median is reported.
const SETUPS: usize = 3;
/// How long set-ups are repeated for at the least.
const SETUP_BUDGET: Duration = Duration::from_secs(1);

/// A built dataset with its amortization plan.
struct Inputs {
    dataset: Dataset,
    plan: AmortizationPlan,
}

/// Builds the planner's inputs: `Dataset::build`, `derive_mr_ecp` and the
/// EAF amortization plan.
fn build_inputs(kind: DatasetKind) -> Inputs {
    let dataset = Dataset::build(kind, DATASET_SEED);
    let plan = AmortizationPlan::new(
        ApKind::Eaf,
        dataset.derive_mr_ecp(),
        dataset.budget_kwh,
        dataset.horizon_hours,
        dataset.calendar(),
    );
    Inputs { dataset, plan }
}

/// The planner seed of the `i`-th plan call of a run.
fn planner_seed(seed: u64, i: usize) -> u64 {
    seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

fn planner(seed: u64) -> EnergyPlanner {
    EnergyPlanner::from_config(PlannerConfig {
        seed,
        ..PlannerConfig::default()
    })
}

/// One untraced plan call: wall time, report, and the candidates the slot
/// stream built (counted with one add per slot).
fn plan_once(inputs: &Inputs, seed: u64) -> (Duration, PlanReport, u64) {
    let builder = SlotBuilder::new(&inputs.dataset, &inputs.plan);
    let planner = planner(seed);
    let mut candidates = 0u64;
    let slots = builder.iter().inspect(|s| candidates += s.len() as u64);
    let start = Instant::now();
    let report = std::hint::black_box(planner.plan(slots));
    (start.elapsed(), report, candidates)
}

/// The correctness gates every plan call must pass.
fn check_report(report: &mut Report, inputs: &Inputs, plan: &PlanReport, candidates: u64) {
    report.gate(
        "plan.fe_within_budget",
        plan.fe_kwh() <= inputs.dataset.budget_kwh,
        format!(
            "F_E {:.1} kWh vs budget {:.1} kWh",
            plan.fe_kwh(),
            inputs.dataset.budget_kwh
        ),
    );
    report.gate(
        "plan.instances_match_candidates",
        plan.instances == candidates,
        format!(
            "instances {} vs candidates built {candidates}",
            plan.instances
        ),
    );
    report.gate(
        "plan.every_slot_planned",
        plan.slots == inputs.dataset.horizon_hours,
        format!(
            "{} slots vs horizon {}",
            plan.slots, inputs.dataset.horizon_hours
        ),
    );
}

/// The untraced section: set-up, then F_T and F_CE over plan calls made
/// in slices between the other sections.
pub struct Untraced {
    inputs: Inputs,
    seed: u64,
    ft: Vec<f64>,
    fce: Vec<f64>,
}

impl Untraced {
    /// Builds the inputs repeatedly, timing each build.
    pub fn start(report: &mut Report, kind: DatasetKind, seed: u64) -> Untraced {
        let mut setups = Vec::new();
        let mut inputs = None;
        let started = Instant::now();
        while setups.len() < SETUPS || started.elapsed() < SETUP_BUDGET {
            let start = Instant::now();
            inputs = Some(build_inputs(kind));
            setups.push(start.elapsed().as_secs_f64());
        }
        report.setup("plan", &setups);
        Untraced {
            inputs: inputs.expect("SETUPS > 0"),
            seed,
            ft: Vec::new(),
            fce: Vec::new(),
        }
    }

    /// Makes plan calls, each with the next planner seed, until `budget`
    /// has passed and at least one call ran.
    pub fn run_for(&mut self, report: &mut Report, budget: Duration) {
        let started = Instant::now();
        let first = self.ft.len();
        while self.ft.len() == first || started.elapsed() < budget {
            let seed = planner_seed(self.seed, self.ft.len());
            let (wall, plan, candidates) = plan_once(&self.inputs, seed);
            check_report(report, &self.inputs, &plan, candidates);
            report.attempt(plan.slots, 0);
            self.ft.push(wall.as_secs_f64());
            self.fce.push(plan.fce_percent());
        }
    }

    /// Reports F_T and F_CE over every call made.
    pub fn finish(self, report: &mut Report) {
        report.timing(
            "ft_s",
            "s",
            &self.ft,
            "median EnergyPlanner::plan call (F_T)",
            true,
        );
        report.value(
            "fce_pct",
            "%",
            median(&self.fce).expect("plans ran"),
            self.fce.len(),
            "median F_CE over the run's planner seeds",
            true,
        );
    }
}

/// A slot iterator that records, per slot, the `slot_at` call as a
/// `slots.build` span (a child of the `plan` span) and the time the planner
/// spent between receiving slot h and asking for slot h+1 as a
/// `planner.slot` span; both carry the slot's hour as trace id. The
/// `planner.slot` spans are slices of the planner's own time, not a child
/// layer, so they have no parent and do not reduce the `plan` self time.
struct TracedSlots<'a> {
    builder: &'a SlotBuilder<'a>,
    rec: &'a Recorder,
    parent: crate::span::SpanId,
    next_hour: u64,
    horizon: u64,
    /// When the previous slot was handed to the planner, and its hour.
    yielded: Option<(u64, u64)>,
    candidates: u64,
}

impl Iterator for TracedSlots<'_> {
    type Item = PlanningSlot;

    fn next(&mut self) -> Option<PlanningSlot> {
        let now = self.rec.now();
        if let Some((at, hour)) = self.yielded.take() {
            self.rec.record("planner.slot", hour, None, at, now);
        }
        if self.next_hour >= self.horizon {
            return None;
        }
        let hour = self.next_hour;
        self.next_hour += 1;
        let build = self.rec.open("slots.build", hour, Some(self.parent));
        let slot = self.builder.slot_at(hour);
        self.rec.close(build);
        self.candidates += slot.len() as u64;
        self.yielded = Some((self.rec.now(), hour));
        Some(slot)
    }
}

/// The traced section: per-layer costs of set-up and of one plan call,
/// plus the tracing overhead against an untraced call with the same seed.
pub fn run_traced(report: &mut Report, kind: DatasetKind, seed: u64, spans_out: &std::path::Path) {
    let rec = Recorder::new();
    let setup = rec.open("plan.setup", 0, None);
    let dataset = rec.time("traces.build", 0, Some(setup), || {
        Dataset::build(kind, DATASET_SEED)
    });
    let ecp = rec.time("ecp.derive", 0, Some(setup), || dataset.derive_mr_ecp());
    let plan = rec.time("amortization.new", 0, Some(setup), || {
        AmortizationPlan::new(
            ApKind::Eaf,
            ecp,
            dataset.budget_kwh,
            dataset.horizon_hours,
            dataset.calendar(),
        )
    });
    rec.close(setup);
    let inputs = Inputs { dataset, plan };

    // `hourly_budget` once per horizon hour, the way the slot stream asks.
    let horizon = inputs.dataset.horizon_hours;
    let budget_start = Instant::now();
    let mut total = 0.0;
    for h in 0..horizon {
        total += inputs.plan.hourly_budget(std::hint::black_box(h));
    }
    std::hint::black_box(total);
    let budget_ns = budget_start.elapsed().as_nanos() as f64 / horizon as f64;

    let planner_seed = planner_seed(seed, 0);
    let (untraced_wall, mut untraced, _) = plan_once(&inputs, planner_seed);

    let builder = SlotBuilder::new(&inputs.dataset, &inputs.plan);
    let plan_span = rec.open("plan", 0, None);
    let mut slots = TracedSlots {
        builder: &builder,
        rec: &rec,
        parent: plan_span,
        next_hour: 0,
        horizon,
        yielded: None,
        candidates: 0,
    };
    let mut traced = planner(planner_seed).plan(&mut slots);
    rec.close(plan_span);
    let candidates = slots.candidates;

    check_report(report, &inputs, &traced, candidates);
    untraced.planning_time = Duration::ZERO;
    traced.planning_time = Duration::ZERO;
    report.gate(
        "plan.traced_report_equals_untraced",
        traced == untraced,
        String::from("PlanReport with planning_time zeroed"),
    );
    report.attempt(traced.slots, 0);

    let secs = |ns: u64| ns as f64 / 1e9;
    let plan_ns = rec.duration_ns(plan_span);
    let build_ns = rec.total_ns("slots.build");
    let self_ns = rec.self_ns(plan_span);
    let build_us = summarize(&rec.durations_us("slots.build")).expect("horizon is non-empty");
    let slot_self_us = summarize(&rec.durations_us("planner.slot")).expect("horizon is non-empty");
    let tau_max = PlannerConfig::default().tau_max as f64;

    report.layer("traces.build_s", "s", secs(rec.total_ns("traces.build")));
    report.layer("ecp.derive_s", "s", secs(rec.total_ns("ecp.derive")));
    report.layer("amortization.budget_ns", "ns", budget_ns);
    report.layer("slots.build_s", "s", secs(build_ns));
    report.layer_summary("slots.build_us", "us", &build_us);
    report.layer("slots.candidates", "count", candidates as f64);
    report.layer(
        "slots.ns_per_candidate",
        "ns",
        build_ns as f64 / candidates.max(1) as f64,
    );
    report.layer("slots.share", "ratio", build_ns as f64 / plan_ns as f64);
    report.layer("planner.self_s", "s", secs(self_ns));
    report.layer_summary("planner.slot_self_us", "us", &slot_self_us);
    report.layer(
        "planner.ns_per_move",
        "ns",
        self_ns as f64 / (traced.slots as f64 * tau_max),
    );
    report.layer(
        "planner.dropped_pct",
        "%",
        100.0 * traced.dropped_instances as f64 / traced.instances.max(1) as f64,
    );
    let overhead = secs(plan_ns) - untraced_wall.as_secs_f64();
    report.layer("trace.overhead.ft_s", "s", overhead);

    report.note(format!(
        "plan coverage: slot build {:.3} s + planner self {:.3} s = {:.3} s of the {:.3} s plan span \
         (untraced call {:.3} s, tracing overhead {:+.3} s)",
        secs(build_ns),
        secs(self_ns),
        secs(build_ns + self_ns),
        secs(plan_ns),
        untraced_wall.as_secs_f64(),
        overhead,
    ));
    report.write_spans(&rec, spans_out);
}
