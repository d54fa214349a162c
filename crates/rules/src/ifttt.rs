//! IFTTT-style trigger-action rules (paper Table III).
//!
//! The IFTTT baseline of the paper executes a fixed table of
//! `IF <this> THEN <that>` rules with no awareness of the long-term energy
//! objective. [`IftttTable::flat_table3`] reproduces Table III verbatim and
//! [`IftttTable::resolve`] implements the executor semantics: all rules whose
//! trigger fires are applied in table order, with later rules overriding
//! earlier ones on the same device class — the standard last-writer-wins
//! semantics of trigger-action platforms. The outcome is a [`ClassActions`],
//! a fixed array keyed by [`DeviceClass`]: the slot builder resolves the
//! table once per zone-hour, so resolution allocates nothing.

use crate::action::{Action, DeviceClass};
use crate::env::{EnvSnapshot, Season, Weather};
use crate::predicate::{Cmp, Predicate};
use serde::{Deserialize, Serialize};
use std::fmt;

/// One `IF THIS THEN THAT` rule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IftttRule {
    /// The trigger condition (`IF THIS`).
    pub trigger: Predicate,
    /// The resulting actuation (`THEN THAT`).
    pub action: Action,
}

impl IftttRule {
    /// Creates a rule.
    pub fn new(trigger: Predicate, action: Action) -> Self {
        IftttRule { trigger, action }
    }
}

impl fmt::Display for IftttRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "IF {} THEN {}", self.trigger, self.action)
    }
}

/// The winning actuation per device class of one IFTTT resolution.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ClassActions([Option<Action>; DeviceClass::ALL.len()]);

impl ClassActions {
    /// The action that won `class`, if any rule on that class fired.
    pub fn get(&self, class: DeviceClass) -> Option<&Action> {
        self.0[class.index()].as_ref()
    }

    /// Records `action` as the winner of its device class.
    pub fn set(&mut self, action: Action) {
        self.0[action.device_class().index()] = Some(action);
    }

    /// True when no rule fired.
    pub fn is_empty(&self) -> bool {
        self.0.iter().all(Option::is_none)
    }

    /// The winning `(class, action)` pairs in [`DeviceClass`] order.
    pub fn iter(&self) -> impl Iterator<Item = (DeviceClass, Action)> + '_ {
        DeviceClass::ALL
            .into_iter()
            .zip(self.0.iter())
            .filter_map(|(class, action)| Some((class, (*action)?)))
    }
}

/// An ordered IFTTT rule table.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct IftttTable {
    rules: Vec<IftttRule>,
}

impl IftttTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a table from rules in execution order.
    pub fn from_rules(rules: Vec<IftttRule>) -> Self {
        IftttTable { rules }
    }

    /// Appends a rule at the end of the execution order.
    pub fn push(&mut self, rule: IftttRule) {
        self.rules.push(rule);
    }

    /// The rules in execution order.
    pub fn rules(&self) -> &[IftttRule] {
        &self.rules
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True when no rules are present.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Resolves the table against a snapshot: evaluates every trigger and
    /// returns the winning actuation per device class (later rules override
    /// earlier ones).
    pub fn resolve(&self, env: &EnvSnapshot) -> ClassActions {
        let mut out = ClassActions::default();
        for rule in &self.rules {
            if rule.trigger.eval(env) {
                out.set(rule.action);
            }
        }
        out
    }

    /// The rules that fire for a snapshot, in table order.
    pub fn firing<'a>(&'a self, env: &EnvSnapshot) -> Vec<&'a IftttRule> {
        let env = *env;
        self.rules
            .iter()
            .filter(move |r| r.trigger.eval(&env))
            .collect()
    }

    /// The paper's Table III: the ten IFTTT configurations used by the flat
    /// experiment.
    pub fn flat_table3() -> IftttTable {
        use Predicate as P;
        IftttTable::from_rules(vec![
            IftttRule::new(P::SeasonIs(Season::Summer), Action::SetTemperature(25.0)),
            IftttRule::new(P::SeasonIs(Season::Winter), Action::SetTemperature(20.0)),
            IftttRule::new(P::WeatherIs(Weather::Sunny), Action::SetTemperature(20.0)),
            IftttRule::new(P::WeatherIs(Weather::Cloudy), Action::SetTemperature(22.0)),
            IftttRule::new(P::WeatherIs(Weather::Sunny), Action::SetLight(0.0)),
            IftttRule::new(P::WeatherIs(Weather::Cloudy), Action::SetLight(40.0)),
            IftttRule::new(P::Temperature(Cmp::Gt, 30.0), Action::SetTemperature(23.0)),
            IftttRule::new(P::Temperature(Cmp::Lt, 10.0), Action::SetTemperature(24.0)),
            IftttRule::new(P::LightLevel(Cmp::Gt, 15.0), Action::SetLight(9.0)),
            IftttRule::new(P::DoorOpen(true), Action::SetLight(0.0)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_has_ten_rules() {
        assert_eq!(IftttTable::flat_table3().len(), 10);
    }

    #[test]
    fn cold_winter_cloudy_resolution() {
        // Winter (rule 2: temp 20), cloudy (rule 4: temp 22, rule 6: light 40),
        // temperature < 10 (rule 8: temp 24 — wins, last in order).
        let env = EnvSnapshot::neutral()
            .with_month(1)
            .with_temperature(5.0)
            .with_light(3.0)
            .with_weather(Weather::Cloudy);
        let out = IftttTable::flat_table3().resolve(&env);
        assert_eq!(
            out.get(DeviceClass::Hvac),
            Some(&Action::SetTemperature(24.0))
        );
        assert_eq!(out.get(DeviceClass::Light), Some(&Action::SetLight(40.0)));
        assert_eq!(out.get(DeviceClass::Meter), None);
        let winners: Vec<(DeviceClass, Action)> = out.iter().collect();
        assert_eq!(
            winners,
            vec![
                (DeviceClass::Hvac, Action::SetTemperature(24.0)),
                (DeviceClass::Light, Action::SetLight(40.0)),
            ]
        );
    }

    #[test]
    fn hot_sunny_summer_resolution() {
        // Summer (temp 25), sunny (temp 20, light 0), temp > 30 (temp 23),
        // light > 15 (light 9).
        let env = EnvSnapshot::neutral()
            .with_month(7)
            .with_temperature(33.0)
            .with_light(70.0)
            .with_weather(Weather::Sunny);
        let out = IftttTable::flat_table3().resolve(&env);
        assert_eq!(
            out.get(DeviceClass::Hvac),
            Some(&Action::SetTemperature(23.0))
        );
        assert_eq!(out.get(DeviceClass::Light), Some(&Action::SetLight(9.0)));
    }

    #[test]
    fn door_open_kills_lights() {
        let env = EnvSnapshot::neutral()
            .with_month(7)
            .with_temperature(25.0)
            .with_light(70.0)
            .with_weather(Weather::Sunny)
            .with_door_open(true);
        let out = IftttTable::flat_table3().resolve(&env);
        assert_eq!(out.get(DeviceClass::Light), Some(&Action::SetLight(0.0)));
    }

    #[test]
    fn rainy_mild_autumn_actuates_nothing() {
        // Rainy weather matches no weather rule; autumn matches no season
        // rule; 18°C and light 10 trip no threshold.
        let env = EnvSnapshot::neutral()
            .with_month(10)
            .with_temperature(18.0)
            .with_light(10.0)
            .with_weather(Weather::Rainy);
        let out = IftttTable::flat_table3().resolve(&env);
        assert!(out.is_empty());
    }

    #[test]
    fn firing_preserves_table_order() {
        let env = EnvSnapshot::neutral()
            .with_month(1)
            .with_temperature(5.0)
            .with_weather(Weather::Cloudy);
        let table = IftttTable::flat_table3();
        let firing = table.firing(&env);
        assert_eq!(firing.len(), 4); // winter, cloudy temp, cloudy light, temp<10
        assert_eq!(firing[0].action, Action::SetTemperature(20.0));
        assert_eq!(firing[3].action, Action::SetTemperature(24.0));
    }

    #[test]
    fn push_and_len() {
        let mut t = IftttTable::new();
        assert!(t.is_empty());
        t.push(IftttRule::new(Predicate::True, Action::SetLight(50.0)));
        assert_eq!(t.len(), 1);
        let out = t.resolve(&EnvSnapshot::neutral());
        assert_eq!(out.get(DeviceClass::Light), Some(&Action::SetLight(50.0)));
    }

    #[test]
    fn display_reads_like_ifttt() {
        let r = IftttRule::new(
            Predicate::SeasonIs(Season::Summer),
            Action::SetTemperature(25.0),
        );
        assert_eq!(r.to_string(), "IF Season IS Summer THEN Set Temperature 25");
    }
}
