//! The journaled-tick section: a 4-zone home runs hourly steps of the
//! recoverable controller loop (journal attached, a checkpoint committed
//! every 8 ticks, `ObsEngine::observe` on the global registry every tick,
//! 10% seeded command faults), then the controller is dropped and its
//! restarts through `open_or_restore` are timed.

use crate::cpu;
use crate::report::Report;
use crate::span::Recorder;
use crate::stats::{summarize, windows};
use imcf_chaos::FaultPlan;
use imcf_controller::controller::{ControllerCheckpoint, ControllerError, LocalController};
use imcf_controller::recovery::{
    audit_journal, open_or_restore, state_digest, CommandJournal, OpenedController, RecoveryConfig,
    CHECKPOINT_TABLE,
};
use imcf_core::calendar::PaperCalendar;
use imcf_core::candidate::{CandidateRule, PlanningSlot};
use imcf_devices::energy::{DeviceEnergyModel, HvacModel, LightModel};
use imcf_obs::{default_rules, ObsConfig, ObsEngine};
use imcf_rules::action::DeviceClass;
use imcf_rules::meta_rule::RuleId;
use imcf_sim::illuminance::RoomLight;
use imcf_sim::thermal::RoomThermalModel;
use imcf_sim::weather::WeatherApi;
use imcf_store::{SharedTable, Table};
use imcf_traces::generator::ClimateModel;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Zones of the home.
const ZONES: usize = 4;
/// A checkpoint is committed after every this many ticks.
const CHECKPOINT_EVERY: u64 = 8;
/// Share of commands the seeded fault plan makes fail.
const FAULT_RATE: f64 = 0.10;
/// Fresh `open_or_restore` set-ups timed per run.
const SETUPS: usize = 5;

fn config(seed: u64, ticks: u64) -> RecoveryConfig {
    RecoveryConfig {
        seed,
        ticks,
        zones: ZONES,
        checkpoint_every: CHECKPOINT_EVERY,
        plan: FaultPlan::commands(seed, FAULT_RATE),
        ..RecoveryConfig::default()
    }
}

fn zone_names() -> Vec<String> {
    (0..ZONES).map(|z| format!("zone{z}")).collect()
}

/// The weather-driven slot stream, shaped like the recoverable run's: two
/// candidates per zone (an HVAC set-point and a light level).
struct Inputs {
    weather: WeatherApi,
    twins: Vec<RoomThermalModel>,
    light: RoomLight,
    hvac: HvacModel,
    lamps: LightModel,
    zones: Vec<String>,
    hourly_budget: f64,
}

impl Inputs {
    fn new(config: &RecoveryConfig) -> Inputs {
        let zones = zone_names();
        Inputs {
            weather: WeatherApi::new(
                ClimateModel::mediterranean(),
                PaperCalendar::starting_in(config.month),
                config.seed,
            ),
            twins: zones.iter().map(|_| RoomThermalModel::flat(18.0)).collect(),
            light: RoomLight::typical(),
            hvac: HvacModel::split_unit_flat(),
            lamps: LightModel::led_array(),
            hourly_budget: config.weekly_budget_kwh * ZONES as f64 / (7.0 * 24.0),
            zones,
        }
    }

    fn slot(&mut self, hour: u64) -> PlanningSlot {
        let sample = self.weather.sample(hour);
        let daylight = self.light.perceived(sample.daylight);
        let mut candidates = Vec::with_capacity(2 * ZONES);
        for (zi, (zone, twin)) in self.zones.iter().zip(self.twins.iter_mut()).enumerate() {
            twin.step_free(sample.outdoor_c);
            let ambient = twin.indoor_c;
            candidates.push(
                CandidateRule::convenience(
                    RuleId((zi * 2) as u32),
                    22.0,
                    ambient,
                    self.hvac.hourly_kwh(22.0, ambient),
                )
                .in_zone(zone),
            );
            candidates.push(
                CandidateRule::convenience(
                    RuleId((zi * 2 + 1) as u32),
                    50.0,
                    daylight,
                    self.lamps.hourly_kwh(50.0, daylight),
                )
                .in_zone(zone)
                .for_class(DeviceClass::Light),
            );
        }
        PlanningSlot::new(hour, candidates, self.hourly_budget)
    }
}

/// A store directory emptied on creation and removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(path: PathBuf) -> std::io::Result<Scratch> {
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(Scratch(path))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Per-tick counts folded from `TickSummary`.
#[derive(Default)]
struct Counts {
    dispatched: u64,
    delivered: u64,
    failed: u64,
    retried: u64,
    blocked: u64,
    quarantined: u64,
    storage_errors: u64,
}

impl Counts {
    fn add(&mut self, summary: &imcf_controller::TickSummary, errors: &[ControllerError]) {
        self.dispatched += summary.delivered + summary.failed + summary.blocked;
        self.delivered += summary.delivered;
        self.failed += summary.failed;
        self.retried += summary.retried;
        self.blocked += summary.blocked;
        self.quarantined += summary.quarantined;
        self.storage_errors += errors
            .iter()
            .filter(|e| matches!(e, ControllerError::Storage { .. }))
            .count() as u64;
    }
}

fn commit(
    checkpoints: &SharedTable<ControllerCheckpoint>,
    checkpoint: ControllerCheckpoint,
) -> Result<(), String> {
    checkpoints
        .insert(checkpoint)
        .and_then(|_| checkpoints.sync())
        .map_err(|e| format!("checkpoint commit: {e}"))
}

/// What a finished loop leaves behind for the restart checks.
struct Finished {
    digest: String,
    counts: Counts,
    /// Wall time of the hourly loop alone, nanoseconds.
    loop_ns: u64,
    /// Journal rows each tick appended.
    rows_per_tick: Vec<f64>,
}

/// Per-hour samples of the untraced loop, µs: the controller step in wall
/// time and in on-CPU time of the ticking thread.
#[derive(Default)]
struct HourSamples {
    wall_us: Vec<f64>,
    cpu_us: Vec<f64>,
}

/// A controller loop over the store in one directory, run in slices.
struct Loop {
    config: RecoveryConfig,
    controller: LocalController,
    checkpoints: SharedTable<ControllerCheckpoint>,
    obs: ObsEngine,
    inputs: Inputs,
    zones: Vec<String>,
    counts: Counts,
    next: u64,
    loop_ns: u64,
    rows_per_tick: Vec<f64>,
}

impl Loop {
    fn open(config: &RecoveryConfig, dir: &Path) -> Result<Loop, String> {
        let OpenedController {
            controller,
            checkpoints,
            ..
        } = open_or_restore(config, dir).map_err(|e| format!("open_or_restore: {e}"))?;
        controller.attach_chaos(config.plan.clone());
        Ok(Loop {
            config: config.clone(),
            controller,
            checkpoints,
            obs: ObsEngine::in_memory(ObsConfig::default(), default_rules())
                .map_err(|e| format!("obs engine: {e}"))?,
            inputs: Inputs::new(config),
            zones: zone_names(),
            counts: Counts::default(),
            next: 0,
            loop_ns: 0,
            rows_per_tick: Vec::new(),
        })
    }

    /// Runs the hours up to `until`. With a recorder, every stage of an
    /// hour is a span; without one, each hour's controller step (input
    /// generation excluded) is one sample in `hours`.
    fn run(
        &mut self,
        until: u64,
        rec: Option<&Recorder>,
        hours: &mut HourSamples,
    ) -> Result<(), String> {
        let registry = imcf_telemetry::global();
        let rows = |c: &LocalController| c.journal().map_or(0, CommandJournal::rows);
        let loop_start = Instant::now();
        for h in self.next..until.min(self.config.ticks) {
            let checkpoint_due = (h + 1) % CHECKPOINT_EVERY == 0 && h + 1 < self.config.ticks;
            let rows_before = rows(&self.controller);
            let controller = &mut self.controller;
            let (summary, errors) = match rec {
                None => {
                    let slot = self.inputs.slot(h);
                    let start = Instant::now();
                    let cpu_start = cpu::thread_ns();
                    let outcome = controller.tick_with_errors(&slot);
                    if checkpoint_due {
                        commit(&self.checkpoints, controller.checkpoint(h + 1, &self.zones))?;
                    }
                    self.obs.observe(h, registry);
                    hours
                        .cpu_us
                        .push((cpu::thread_ns() - cpu_start) as f64 / 1e3);
                    hours.wall_us.push(start.elapsed().as_nanos() as f64 / 1e3);
                    outcome
                }
                Some(rec) => {
                    let hour = rec.open("tick.hour", h, None);
                    let slot = rec.time("tick.input", h, Some(hour), || self.inputs.slot(h));
                    let outcome = rec.time("controller.tick", h, Some(hour), || {
                        controller.tick_with_errors(&slot)
                    });
                    if checkpoint_due {
                        let cp = rec.time("checkpoint.build", h, Some(hour), || {
                            controller.checkpoint(h + 1, &self.zones)
                        });
                        rec.time("checkpoint.commit", h, Some(hour), || {
                            commit(&self.checkpoints, cp)
                        })?;
                    }
                    let obs = &mut self.obs;
                    rec.time("obs.observe", h, Some(hour), || obs.observe(h, registry));
                    rec.close(hour);
                    outcome
                }
            };
            self.counts.add(&summary, &errors);
            self.rows_per_tick
                .push((rows(&self.controller) - rows_before) as f64);
            self.next = h + 1;
        }
        self.loop_ns += loop_start.elapsed().as_nanos() as u64;
        Ok(())
    }

    /// Commits the terminal checkpoint (marking the run complete) and
    /// closes the store.
    fn finish(self) -> Result<Finished, String> {
        if self.next != self.config.ticks {
            return Err(format!("loop stopped at tick {}", self.next));
        }
        commit(
            &self.checkpoints,
            self.controller.checkpoint(self.config.ticks, &self.zones),
        )?;
        let digest = serde_json::to_string(&state_digest(
            &self.controller,
            &self.zones,
            self.config.ticks,
        ))
        .map_err(|e| format!("digest: {e}"))?;
        Ok(Finished {
            digest,
            counts: self.counts,
            loop_ns: self.loop_ns,
            rows_per_tick: self.rows_per_tick,
        })
    }
}

/// Checks that the finished store delivered no command twice.
fn audit(report: &mut Report, dir: &Path) -> Result<(), String> {
    let audit = audit_journal(dir).map_err(|e| format!("audit_journal: {e}"))?;
    report.gate(
        "tick.no_duplicate_deliveries",
        audit.duplicate_deliveries == 0,
        format!("{} duplicate deliveries", audit.duplicate_deliveries),
    );
    Ok(())
}

/// Restarts the controller on the finished store, checks that it equals
/// the live one, and returns the restart's wall time in milliseconds.
fn restart(
    report: &mut Report,
    config: &RecoveryConfig,
    dir: &Path,
    live: &Finished,
) -> Result<f64, String> {
    let start = Instant::now();
    let reopened = open_or_restore(config, dir).map_err(|e| format!("restart: {e}"))?;
    let restore_ms = start.elapsed().as_secs_f64() * 1e3;
    report.gate(
        "tick.restart_resumes_at_end",
        reopened.resumed_from == Some(config.ticks),
        format!("resumed from {:?}", reopened.resumed_from),
    );
    let restored = serde_json::to_string(&state_digest(
        &reopened.controller,
        &zone_names(),
        config.ticks,
    ))
    .map_err(|e| format!("digest: {e}"))?;
    report.gate(
        "tick.restored_digest_equals_live",
        restored == live.digest,
        String::from("StateDigest JSON of the restarted controller differs"),
    );
    Ok(restore_ms)
}

/// Times fresh `open_or_restore` calls (zone provisioning included) on
/// empty stores.
fn time_setups(config: &RecoveryConfig, work: &Path) -> Result<Vec<f64>, String> {
    let mut setups = Vec::new();
    for i in 0..SETUPS {
        let dir = Scratch::new(work.join(format!("tick-setup-{i}"))).map_err(|e| e.to_string())?;
        let start = Instant::now();
        let opened = open_or_restore(config, &dir.0).map_err(|e| format!("setup: {e}"))?;
        setups.push(start.elapsed().as_secs_f64());
        drop(opened);
    }
    Ok(setups)
}

/// The untraced section, run in slices between the other sections: the
/// loop's hours first, then restarts of the finished store.
pub struct Untraced {
    config: RecoveryConfig,
    dir: Scratch,
    run: Option<Loop>,
    live: Option<Finished>,
    hours: HourSamples,
    restore_ms: Vec<f64>,
}

impl Untraced {
    /// Times the set-ups and opens the store the loop runs on.
    pub fn start(report: &mut Report, seed: u64, ticks: u64, work: &Path) -> Result<Self, String> {
        let config = config(seed, ticks);
        report.setup("tick", &time_setups(&config, work)?);
        let dir = Scratch::new(work.join("tick")).map_err(|e| e.to_string())?;
        let run = Loop::open(&config, &dir.0)?;
        Ok(Untraced {
            config,
            dir,
            run: Some(run),
            live: None,
            hours: HourSamples::default(),
            restore_ms: Vec::new(),
        })
    }

    /// Runs the hours up to `until`.
    pub fn advance(&mut self, until: u64) -> Result<(), String> {
        let run = self.run.as_mut().ok_or("the loop has finished")?;
        run.run(until, None, &mut self.hours)
    }

    /// Times one restart of the finished store, finishing the loop first
    /// if it is still open.
    pub fn restart(&mut self, report: &mut Report) -> Result<(), String> {
        if let Some(run) = self.run.take() {
            self.live = Some(run.finish()?);
            audit(report, &self.dir.0)?;
        }
        let live = self.live.as_ref().ok_or("the loop never ran")?;
        let ms = restart(report, &self.config, &self.dir.0, live)?;
        self.restore_ms.push(ms);
        Ok(())
    }

    /// Reports the loop's hours and the restarts.
    pub fn finish(self, report: &mut Report) -> Result<(), String> {
        let live = self.live.ok_or("no restart was timed")?;
        report.attempt(live.counts.dispatched, live.counts.storage_errors);
        // Every tick fsyncs the journal on the checkout's disk and sleeps
        // until the disk answers. Neither the wall time of an hour nor the
        // ticking thread's on-CPU time holds still from run to run on the
        // shared 2-core VM (ten-run quartile spreads up to 0.31 and 0.47 of
        // their medians), so both are printed and neither is gated.
        let what = "controller hour: tick_with_errors + due checkpoint commit + observe";
        report.latency("tick", "", &windows(&self.hours.wall_us), what);
        report.timing(
            "tick_cpu_p50_us",
            "us",
            &self.hours.cpu_us,
            &format!("{what}, on-CPU time of the ticking thread"),
            false,
        );
        report.timing(
            "restore_ms",
            "ms",
            &self.restore_ms,
            &format!("open_or_restore after {} ticks", self.config.ticks),
            true,
        );
        Ok(())
    }
}

/// The traced section: per-stage spans of every hour, the restart broken
/// into its public steps, and the overhead against an untraced loop.
pub fn run_traced(
    report: &mut Report,
    seed: u64,
    ticks: u64,
    work: &Path,
    spans_out: &Path,
) -> Result<(), String> {
    let config = config(seed, ticks);
    let mut untraced = HourSamples::default();
    {
        let dir = Scratch::new(work.join("tick-untraced")).map_err(|e| e.to_string())?;
        let mut run = Loop::open(&config, &dir.0)?;
        run.run(ticks, None, &mut untraced)?;
        run.finish()?;
    }

    let rec = Recorder::new();
    let dir = Scratch::new(work.join("tick")).map_err(|e| e.to_string())?;
    let mut run = Loop::open(&config, &dir.0)?;
    run.run(ticks, Some(&rec), &mut HourSamples::default())?;
    let live = run.finish()?;
    let loop_ns = live.loop_ns;
    audit(report, &dir.0)?;
    restart(report, &config, &dir.0, &live)?;
    let c = &live.counts;
    report.attempt(c.dispatched, c.storage_errors);

    // The restart, one public step at a time.
    let ms = |start: Instant| start.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let table: Table<ControllerCheckpoint> =
        Table::open(&dir.0, CHECKPOINT_TABLE).map_err(|e| format!("checkpoint table: {e}"))?;
    let latest = table
        .scan()
        .max_by_key(|(id, _)| *id)
        .map(|(_, cp)| cp.clone())
        .ok_or("no checkpoint in the finished store")?;
    drop(table);
    let load_ms = ms(t);
    let t = Instant::now();
    let controller = LocalController::restore(&latest).map_err(|e| format!("restore: {e}"))?;
    let controller_ms = ms(t);
    let t = Instant::now();
    let journal = CommandJournal::open(&dir.0).map_err(|e| format!("journal: {e}"))?;
    let journal_ms = ms(t);
    let t = Instant::now();
    let replayed = journal.replay_into(&controller.registry());
    let replay_ms = ms(t);
    let checkpoint_bytes = serde_json::to_string(&latest)
        .map_err(|e| format!("checkpoint encode: {e}"))?
        .len();

    let n = ticks as f64;
    let tick_us = summarize(&rec.durations_us("controller.tick")).expect("ticks ran");
    let commit_us = summarize(&rec.durations_us("checkpoint.commit")).expect("checkpoints ran");
    let observe_us = summarize(&rec.durations_us("obs.observe")).expect("ticks ran");
    let stages = [
        "tick.input",
        "controller.tick",
        "checkpoint.build",
        "checkpoint.commit",
        "obs.observe",
    ];
    let stage_ns: Vec<u64> = stages.iter().map(|s| rec.total_ns(s)).collect();
    let step_ns = rec.total_ns("controller.tick")
        + rec.total_ns("checkpoint.build")
        + rec.total_ns("checkpoint.commit")
        + rec.total_ns("obs.observe");

    report.layer_summary("controller.tick_us", "us", &tick_us);
    report.layer(
        "actuation.commands_per_tick",
        "count",
        c.dispatched as f64 / n,
    );
    report.layer(
        "actuation.retry_ratio",
        "ratio",
        c.retried as f64 / (c.delivered + c.failed + c.retried).max(1) as f64,
    );
    report.layer("actuation.failed", "count", c.failed as f64);
    report.layer("firewall.blocked_per_tick", "count", c.blocked as f64 / n);
    report.layer("breaker.quarantined", "count", c.quarantined as f64);
    report.layer(
        "checkpoint.build_us",
        "us",
        summarize(&rec.durations_us("checkpoint.build"))
            .expect("checkpoints ran")
            .p50,
    );
    report.layer_summary("checkpoint.commit_us", "us", &commit_us);
    report.layer("checkpoint.bytes", "bytes", checkpoint_bytes as f64);
    report.layer(
        "journal.rows_per_tick",
        "count",
        live.rows_per_tick.iter().sum::<f64>() / n,
    );
    report.layer("restore.checkpoint_load_ms", "ms", load_ms);
    report.layer("restore.controller_ms", "ms", controller_ms);
    report.layer("restore.journal_open_ms", "ms", journal_ms);
    report.layer("restore.replay_ms", "ms", replay_ms);
    report.layer("restore.replayed", "count", replayed as f64);
    report.layer_summary("obs.observe_us", "us", &observe_us);
    report.layer(
        "obs.share",
        "ratio",
        rec.total_ns("obs.observe") as f64 / step_ns as f64,
    );
    // The traced counterpart of an untraced hour: the hour span minus its
    // input generation (hour and input spans are recorded one per tick, in
    // tick order).
    let traced_steps: Vec<f64> = rec
        .durations_us("tick.hour")
        .iter()
        .zip(rec.durations_us("tick.input"))
        .map(|(hour, input)| hour - input)
        .collect();
    let traced_p50 = summarize(&traced_steps).expect("ticks ran").p50;
    let untraced_p50 = summarize(&untraced.wall_us).expect("ticks ran").p50;
    report.layer(
        "trace.overhead.tick_p50_us",
        "us",
        traced_p50 - untraced_p50,
    );

    let covered: u64 = stage_ns.iter().sum();
    let parts: Vec<String> = stages
        .iter()
        .zip(&stage_ns)
        .map(|(s, ns)| format!("{s} {:.3} s", *ns as f64 / 1e9))
        .collect();
    report.note(format!(
        "tick coverage: {} = {:.3} s of the {:.3} s loop ({:.1}%; expected at least 95%)",
        parts.join(" + "),
        covered as f64 / 1e9,
        loop_ns as f64 / 1e9,
        100.0 * covered as f64 / loop_ns as f64,
    ));
    report.write_spans(&rec, spans_out);
    Ok(())
}
