//! The repository benchmark. One run executes every section of the system
//! end to end — the Energy Planner over the workload's dataset, the
//! journaled controller tick with a restart, and the real `imcf serve`
//! binary under open-loop load — checks their outputs, and prints every
//! metric with its unit and sample count, then one JSON result line.
//!
//! ```text
//! imcf-perfbench --workload flat|dorms --seed N --seconds S --trace 0|1 \
//!     --imcf <path to the release `imcf` binary> --work <scratch dir>
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` wraps the calls
//! into each layer's public functions with the benchmark's span recorder
//! and reports the per-layer metrics and the tracing overhead instead.

mod cpu;
mod plan;
mod report;
mod serve;
mod span;
mod stats;
mod tick;

use imcf_sim::building::DatasetKind;
use report::Report;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// Controller hours per tick loop: long enough for a p99 with ten samples
/// beyond it and for a restart that replays a realistic journal.
const TICKS: u64 = 10_000;
/// Slices the plan and serve sections of an untraced run are cut into.
const ROUNDS: u64 = 6;
/// The first this many rounds run the tick loop's hours; each later round
/// times one restart of the finished store.
const TICK_ROUNDS: u64 = 3;

struct Args {
    kind: DatasetKind,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    imcf: PathBuf,
    work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let workload = get("--workload")?.to_string();
    let kind = match workload.as_str() {
        "flat" => DatasetKind::Flat,
        "dorms" => DatasetKind::Dorms,
        other => return Err(format!("unknown workload `{other}` (flat|dorms)")),
    };
    let number = |flag: &str| -> Result<u64, String> {
        get(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
    };
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err(String::from("--seconds must be positive"));
    }
    Ok(Args {
        kind,
        workload,
        seed: number("--seed")?,
        seconds: seconds as f64,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
        },
        imcf: PathBuf::from(get("--imcf")?),
        work: PathBuf::from(get("--work")?),
    })
}

fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    std::fs::create_dir_all(&args.work)
        .map_err(|e| format!("cannot create {}: {e}", args.work.display()))?;
    let s = args.seconds;
    // The sections share the process's global telemetry registry, which
    // `ObsEngine::observe` samples every tick; their order is fixed so every
    // run samples the same series.
    if args.trace {
        let spans = |section: &str| args.work.join(format!("spans-{section}.tsv"));
        serve::run_router_traced(report, args.seed, &spans("router"))?;
        tick::run_traced(report, args.seed, TICKS, &args.work, &spans("tick"))?;
        plan::run_traced(report, args.kind, args.seed, &spans("plan"));
        serve::run_wire_traced(report, &args.imcf, args.seed, 0.15 * s)?;
    } else {
        // The sections run in interleaved slices, so every metric samples
        // the whole run rather than one stretch of a machine whose speed
        // drifts by ±15% over tens of seconds.
        let mut tick = tick::Untraced::start(report, args.seed, TICKS, &args.work)?;
        let mut plan = plan::Untraced::start(report, args.kind, args.seed);
        let mut serve = serve::Untraced::start(report, &args.imcf, args.seed)?;
        let slice = s / ROUNDS as f64;
        for round in 1..=ROUNDS {
            if round <= TICK_ROUNDS {
                tick.advance(TICKS * round / TICK_ROUNDS)?;
            } else {
                tick.restart(report)?;
            }
            plan.run_for(report, Duration::from_secs_f64(0.4 * slice));
            serve.nominal(report, 0.25 * slice);
        }
        tick.finish(report)?;
        plan.finish(report);
        serve.finish(report, 0.075 * s, 0.025 * s);
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("imcf-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::default();
    if let Err(e) = run(&args, &mut report) {
        eprintln!("imcf-perfbench: {e}");
        return ExitCode::FAILURE;
    }
    let header = format!(
        "imcf-perfbench workload={} seed={} seconds={} trace={} claim=null",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    if report.finish(&header, !args.trace) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
