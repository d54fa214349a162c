//! Tour the full Rule Automation Workflow spectrum of the paper's Fig. 1:
//! manual rule tables (parsed from text), IFTTT trigger-action rules,
//! procedural workflows with variables and loops, and static conflict
//! analysis over the combined table.
//!
//! Run with: `cargo run --release --example rule_workflows`

use imcf::rules::conflict;
use imcf::rules::env::EnvSnapshot;
use imcf::rules::parse::{format_mrt, parse_ifttt, parse_mrt};
use imcf::rules::workflow::{ArithOp, CmpOp, Expr, Stmt, Workflow};
use imcf::rules::Weather;

fn main() {
    // --- 1. Declarative meta-rules, stored as plain text. ---
    let mrt_text = "\
# bedroom preferences
Night Heat | 01:00 - 07:00 | Set Temperature | 25 | owner=father
Morning Lights | 04:00 - 09:00 | Set Light | 40 | owner=mother
Overlapping Heat | 06:00 - 10:00 | Set Temperature | 21 | owner=mother
Medical Fridge | 00:00 - 24:00 | Set Temperature | 4 | necessity
Energy Cap | for 1 month | Set kWh Limit | 300
";
    let mrt = parse_mrt(mrt_text).expect("MRT parses");
    println!("=== parsed Meta-Rule Table ===\n{}", format_mrt(&mrt));

    // --- 2. Static conflict analysis (paper §I-B). ---
    let conflicts = conflict::analyze(&mrt, |_rule| 0.5);
    println!("=== conflicts ===");
    for c in &conflicts {
        println!("  [{:?}] {c}", c.severity());
    }
    if conflicts.is_empty() {
        println!("  none");
    }

    // --- 3. IFTTT trigger-action rules against a live snapshot. ---
    let ifttt = parse_ifttt(
        "IF Weather IS Sunny THEN Set Light 0\n\
         IF Temperature < 10 THEN Set Temperature 24\n\
         IF Season IS Winter AND Light Level < 5 THEN Set Light 40\n",
    )
    .expect("IFTTT parses");
    let env = EnvSnapshot::neutral()
        .with_month(1)
        .with_hour(7)
        .with_temperature(6.0)
        .with_light(2.0)
        .with_weather(Weather::Cloudy);
    println!("\n=== IFTTT resolution at a cold dark winter morning ===");
    for (class, action) in ifttt.resolve(&env).iter() {
        println!("  {class}: {action}");
    }

    // --- 4. A procedural workflow (the Apple-Automation end). ---
    let preheat = Workflow::new(
        "gentle preheat",
        vec![
            Stmt::Set("t".into(), Expr::EnvTemperature),
            Stmt::While {
                cond: Expr::cmp(CmpOp::Lt, Expr::Var("t".into()), Expr::Num(21.0)),
                body: vec![
                    Stmt::Set(
                        "t".into(),
                        Expr::arith(ArithOp::Add, Expr::Var("t".into()), Expr::Num(2.0)),
                    ),
                    Stmt::ActuateTemperature(Expr::Var("t".into())),
                    Stmt::Wait(Expr::Num(20.0)),
                ],
            },
            Stmt::If {
                cond: Expr::cmp(CmpOp::Lt, Expr::EnvLight, Expr::Num(10.0)),
                then_block: vec![Stmt::ActuateLight(Expr::Num(30.0))],
                else_block: vec![],
            },
        ],
    );
    let outcome = preheat.run(&env).expect("workflow runs");
    println!("\n=== procedural workflow `{}` ===", preheat.name);
    for action in &outcome.actions {
        println!("  actuate: {action}");
    }
    println!(
        "  ({} actions over {} simulated minutes)",
        outcome.actions.len(),
        outcome.waited_minutes
    );
}
