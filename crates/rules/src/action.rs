//! Actuation intents produced by rules.
//!
//! An [`Action`] is the `THEN`-side of any RAW rule: it names a device class
//! and a target value, but carries no knowledge about the concrete devices or
//! their energy characteristics. The paper's Table II uses three action kinds
//! (`Set Temperature`, `Set Light`, `Set kWh Limit`) and we model exactly
//! those, plus an explicit `Off` intent used by trigger-action rules such as
//! "Door Open → Set Light 0".

use serde::{Deserialize, Serialize};
use std::fmt;

/// The class of device an action targets.
///
/// Device classes are deliberately coarse: the Energy Planner reasons about
/// *kinds* of actuation (HVAC vs. lighting), while binding a rule to a
/// physical thing happens in the controller layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum DeviceClass {
    /// Heating/cooling split units (thermostat setpoints in °C).
    Hvac,
    /// Dimmable lighting (levels in 0–100).
    Light,
    /// The virtual energy meter (kWh budget limits).
    Meter,
}

impl DeviceClass {
    /// Every class, in declaration (and `Ord`) order.
    pub const ALL: [DeviceClass; 3] = [DeviceClass::Hvac, DeviceClass::Light, DeviceClass::Meter];

    /// The class's position in [`DeviceClass::ALL`]: the key of arrays
    /// indexed by class.
    pub fn index(self) -> usize {
        self as usize
    }
}

impl fmt::Display for DeviceClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceClass::Hvac => write!(f, "hvac"),
            DeviceClass::Light => write!(f, "light"),
            DeviceClass::Meter => write!(f, "meter"),
        }
    }
}

/// An actuation intent: the `THEN` part of a rule.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Action {
    /// Set a thermostat setpoint in degrees Celsius.
    SetTemperature(f64),
    /// Set a light level in the 0–100 range.
    SetLight(f64),
    /// Set an energy budget limit in kWh over the rule's horizon.
    ///
    /// This is the *meta* action of the paper: it does not actuate a device,
    /// it constrains the planner (e.g. "Energy Flat — for three years — Set
    /// kWh Limit 11000" in Table II).
    SetKwhLimit(f64),
}

impl Action {
    /// The device class this action targets.
    pub fn device_class(&self) -> DeviceClass {
        match self {
            Action::SetTemperature(_) => DeviceClass::Hvac,
            Action::SetLight(_) => DeviceClass::Light,
            Action::SetKwhLimit(_) => DeviceClass::Meter,
        }
    }

    /// The desired output value Ω of the action (paper Eq. 1).
    pub fn desired_value(&self) -> f64 {
        match self {
            Action::SetTemperature(v) | Action::SetLight(v) | Action::SetKwhLimit(v) => *v,
        }
    }

    /// The span of the value domain, used to normalize convenience error to a
    /// percentage.
    ///
    /// Temperatures live on a 0–40 °C comfort-relevant band, light levels on
    /// 0–100. Budget limits have no convenience-error semantics and report a
    /// unit span so a division never blows up.
    pub fn value_span(&self) -> f64 {
        match self {
            Action::SetTemperature(_) => 40.0,
            Action::SetLight(_) => 100.0,
            Action::SetKwhLimit(_) => 1.0,
        }
    }

    /// True when this action constrains the planner rather than actuating a
    /// device.
    pub fn is_budget(&self) -> bool {
        matches!(self, Action::SetKwhLimit(_))
    }

    /// Returns a copy of this action with the target value replaced.
    pub fn with_value(&self, v: f64) -> Action {
        match self {
            Action::SetTemperature(_) => Action::SetTemperature(v),
            Action::SetLight(_) => Action::SetLight(v),
            Action::SetKwhLimit(_) => Action::SetKwhLimit(v),
        }
    }
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Action::SetTemperature(v) => write!(f, "Set Temperature {v}"),
            Action::SetLight(v) => write!(f, "Set Light {v}"),
            Action::SetKwhLimit(v) => write!(f, "Set kWh Limit {v}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_class_of_each_action() {
        assert_eq!(
            Action::SetTemperature(22.0).device_class(),
            DeviceClass::Hvac
        );
        assert_eq!(Action::SetLight(40.0).device_class(), DeviceClass::Light);
        assert_eq!(
            Action::SetKwhLimit(11000.0).device_class(),
            DeviceClass::Meter
        );
    }

    #[test]
    fn desired_value_round_trips() {
        assert_eq!(Action::SetTemperature(25.0).desired_value(), 25.0);
        assert_eq!(Action::SetLight(30.0).desired_value(), 30.0);
        assert_eq!(Action::SetKwhLimit(480000.0).desired_value(), 480000.0);
    }

    #[test]
    fn budget_actions_are_flagged() {
        assert!(Action::SetKwhLimit(100.0).is_budget());
        assert!(!Action::SetTemperature(21.0).is_budget());
        assert!(!Action::SetLight(10.0).is_budget());
    }

    #[test]
    fn with_value_preserves_kind() {
        let a = Action::SetTemperature(20.0).with_value(23.0);
        assert_eq!(a, Action::SetTemperature(23.0));
        let b = Action::SetLight(0.0).with_value(55.0);
        assert_eq!(b, Action::SetLight(55.0));
    }

    #[test]
    fn spans_are_positive() {
        for a in [
            Action::SetTemperature(1.0),
            Action::SetLight(1.0),
            Action::SetKwhLimit(1.0),
        ] {
            assert!(a.value_span() > 0.0);
        }
    }

    #[test]
    fn display_matches_paper_vocabulary() {
        assert_eq!(
            Action::SetTemperature(25.0).to_string(),
            "Set Temperature 25"
        );
        assert_eq!(Action::SetLight(40.0).to_string(), "Set Light 40");
        assert_eq!(
            Action::SetKwhLimit(11000.0).to_string(),
            "Set kWh Limit 11000"
        );
    }
}
