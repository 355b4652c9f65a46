//! Lumped RC thermal model.
//!
//! The paper neglects the thermal constraint when comparing against the
//! thermal-aware baseline of Ge & Qiu ("the thermal constraint was
//! neglected for equivalence of comparison", Section III-A), but the
//! leakage term of the power model depends on die temperature, and the
//! thermal trajectory is needed for extensions. A single-node RC network
//! is the standard compact model:
//!
//! ```text
//! T(t + Δt) = T_amb + P·R_th + (T(t) − T_amb − P·R_th)·exp(−Δt/τ)
//! ```
//!
//! Its parameters are the XU3's passively cooled SoC: 8 °C/W, τ = 4 s,
//! 25 °C ambient (quad-A15 full load settles near 70–80 °C, where the
//! stock board starts throttling).

use qgov_units::{Power, SimTime, Temp};

/// Thermal resistance junction→ambient, in °C per watt.
pub(crate) const R_TH: f64 = 8.0;

/// Thermal time constant τ.
pub(crate) const TAU: SimTime = SimTime::from_secs(4);

/// Ambient temperature, in °C.
pub(crate) const AMBIENT_C: f64 = 25.0;

/// Integrates the RC network over frame-sized steps.
#[derive(Debug)]
pub(crate) struct ThermalModel {
    temperature: Temp,
    peak: Temp,
    /// The last step's `dt` and its `exp(−dt/τ)`: every on-time frame
    /// closes at the period, so most steps reuse it.
    decay_memo: (SimTime, f64),
}

impl ThermalModel {
    /// Creates a model starting at ambient.
    pub(crate) fn new() -> Self {
        let ambient = Temp::from_celsius(AMBIENT_C);
        ThermalModel {
            temperature: ambient,
            peak: ambient,
            decay_memo: (SimTime::ZERO, decay(SimTime::ZERO)),
        }
    }

    /// Current die temperature.
    pub(crate) fn temperature(&self) -> Temp {
        self.temperature
    }

    /// Highest die temperature seen so far.
    pub(crate) fn peak(&self) -> Temp {
        self.peak
    }

    /// The temperature the die would settle at under constant `power`.
    fn steady_state(power: Power) -> Temp {
        Temp::from_celsius(AMBIENT_C + power.as_watts() * R_TH)
    }

    /// Advances the network by `dt` under dissipated `power`, returning
    /// the new die temperature.
    pub(crate) fn step(&mut self, power: Power, dt: SimTime) -> Temp {
        let target = Self::steady_state(power).as_celsius();
        let t = self.temperature.as_celsius();
        if self.decay_memo.0 != dt {
            self.decay_memo = (dt, decay(dt));
        }
        self.temperature = Temp::from_celsius(target + (t - target) * self.decay_memo.1);
        self.peak = self.peak.max(self.temperature);
        self.temperature
    }
}

/// The RC network's decay factor `exp(−dt/τ)` over one step.
fn decay(dt: SimTime) -> f64 {
    (-dt.as_secs_f64() / TAU.as_secs_f64()).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_ambient() {
        let t = ThermalModel::new();
        assert_eq!(t.temperature().as_celsius(), 25.0);
    }

    #[test]
    fn heats_towards_steady_state_monotonically() {
        let mut t = ThermalModel::new();
        let mut prev = t.temperature().as_celsius();
        for _ in 0..100 {
            let now = t
                .step(Power::from_watts(5.0), SimTime::from_ms(100))
                .as_celsius();
            assert!(now >= prev, "heating must be monotone");
            assert!(now <= 65.0 + 1e-9, "must not overshoot steady state");
            prev = now;
        }
        // After 100 τ at 5 W: 25 + 5 W * 8 degC/W = 65 degC.
        for _ in 0..10_000 {
            t.step(Power::from_watts(5.0), SimTime::from_ms(40));
        }
        assert!((t.temperature().as_celsius() - 65.0).abs() < 0.5);
    }

    #[test]
    fn cools_when_power_drops() {
        let mut t = ThermalModel::new();
        for _ in 0..1000 {
            t.step(Power::from_watts(6.0), SimTime::from_ms(100));
        }
        let hot = t.temperature().as_celsius();
        for _ in 0..1000 {
            t.step(Power::from_watts(0.5), SimTime::from_ms(100));
        }
        assert!(t.temperature().as_celsius() < hot);
        assert!(t.temperature().as_celsius() >= 25.0);
        assert!(
            (t.peak().as_celsius() - hot).abs() < 1e-9,
            "peak is remembered"
        );
    }

    #[test]
    fn steady_state_formula() {
        assert_eq!(
            ThermalModel::steady_state(Power::from_watts(2.0)).as_celsius(),
            41.0
        );
    }
}
