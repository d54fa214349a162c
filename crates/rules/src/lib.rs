//! # imcf-rules — the Rule Automation Workflow (RAW) engine
//!
//! This crate models the full spectrum of Rule Automation Workflows described
//! in the IMCF paper (Fig. 1):
//!
//! * **Meta-rules** ([`MetaRule`]) — time-window preference rules collected in
//!   a *Meta-Rule Table* ([`Mrt`]), the unit the Energy Planner optimizes over
//!   (paper Table II).
//! * **Trigger-action rules** ([`ifttt::IftttRule`]) — IFTTT-style
//!   `IF <this> THEN <that>` rules (paper Table III).
//! * **Predicate conditions** ([`predicate::Predicate`]) — Apilio-style
//!   boolean predicates over environment snapshots.
//! * **Procedural workflows** ([`workflow::Workflow`]) — Apple-Automation
//!   style programs with variables, conditionals and bounded loops.
//! * **Conflict detection** ([`conflict`]) — detecting clashing or competing
//!   rules (paper §I-B).
//! * **Parsing** ([`parse`], [`workflow_parse`]) — line-oriented text
//!   formats for rule tables and workflow programs so RAW configurations
//!   can be stored, shipped and diffed as plain text.
//!
//! [`engine::RuleEngine`] unifies the three species at execution time:
//! given a snapshot it produces merged actuation intents with provenance.
//!
//! # Example: parse a rule table and check it
//!
//! ```
//! use imcf_rules::parse::parse_mrt;
//! use imcf_rules::conflict;
//!
//! let mrt = parse_mrt(
//!     "Night Heat | 01:00 - 07:00 | Set Temperature | 25\n\
//!      Budget | for 1 month | Set kWh Limit | 400\n",
//! ).unwrap();
//! assert_eq!(mrt.len(), 2);
//! assert!(conflict::detect_clashes(&mrt).is_empty());
//! ```
//!
//! The crate is deliberately free of device- or simulator-specific types: a
//! rule *describes intent* (`Set Temperature 25` between 01:00 and 07:00);
//! how intent maps onto watts and degrees lives in `imcf-devices` and
//! `imcf-sim`.

pub mod action;
pub mod conflict;
pub mod engine;
pub mod env;
pub mod ifttt;
pub mod meta_rule;
pub mod mrt;
pub mod parse;
pub mod predicate;
pub mod window;
pub mod workflow;
pub mod workflow_parse;

pub use action::{Action, DeviceClass};
pub use env::{EnvSnapshot, Season, Weather};
pub use ifttt::{ClassActions, IftttRule, IftttTable};
pub use meta_rule::{MetaRule, RuleClass, RuleId};
pub use mrt::{HourIndex, Mrt};
pub use predicate::Predicate;
pub use window::TimeWindow;
