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

use qgov_units::{Power, SimTime, Temp};

/// Thermal network parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct ThermalConfig {
    /// Thermal resistance junction→ambient in °C per watt.
    pub r_th: f64,
    /// Thermal time constant τ.
    pub tau: SimTime,
    /// Ambient temperature.
    pub ambient: Temp,
}

impl ThermalConfig {
    /// XU3-like passively-cooled SoC: 8 °C/W, τ = 4 s, 25 °C ambient
    /// (quad-A15 full load settles near 70–80 °C, where the stock board
    /// starts throttling).
    #[must_use]
    pub fn odroid_xu3() -> Self {
        ThermalConfig {
            r_th: 8.0,
            tau: SimTime::from_secs(4),
            ambient: Temp::from_celsius(25.0),
        }
    }
}

impl Default for ThermalConfig {
    fn default() -> Self {
        Self::odroid_xu3()
    }
}

/// Integrates the RC network over frame-sized steps.
///
/// # Examples
///
/// ```
/// use qgov_sim::{ThermalConfig, ThermalModel};
/// use qgov_units::{Power, SimTime, Temp};
///
/// let mut t = ThermalModel::new(ThermalConfig::odroid_xu3());
/// for _ in 0..10_000 {
///     t.step(Power::from_watts(5.0), SimTime::from_ms(40));
/// }
/// // Steady state: 25 + 5 W * 8 degC/W = 65 degC.
/// assert!((t.temperature().as_celsius() - 65.0).abs() < 0.5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ThermalModel {
    config: ThermalConfig,
    temperature: Temp,
    peak: Temp,
    /// The last step's `dt` and its `exp(−dt/τ)`: every on-time frame
    /// closes at the period, so most steps reuse it.
    decay_memo: (SimTime, f64),
}

impl ThermalModel {
    /// Creates a model starting at ambient.
    ///
    /// # Panics
    ///
    /// Panics if `r_th` is not finite/positive or `tau` is zero.
    #[must_use]
    pub fn new(config: ThermalConfig) -> Self {
        assert!(
            config.r_th.is_finite() && config.r_th > 0.0,
            "thermal resistance must be finite and positive"
        );
        assert!(
            !config.tau.is_zero(),
            "thermal time constant must be non-zero"
        );
        ThermalModel {
            temperature: config.ambient,
            peak: config.ambient,
            decay_memo: (SimTime::ZERO, decay(SimTime::ZERO, config.tau)),
            config,
        }
    }

    /// Current die temperature.
    #[must_use]
    pub fn temperature(&self) -> Temp {
        self.temperature
    }

    /// Highest die temperature seen so far.
    #[must_use]
    pub fn peak(&self) -> Temp {
        self.peak
    }

    /// The temperature the die would settle at under constant `power`.
    #[must_use]
    pub fn steady_state(&self, power: Power) -> Temp {
        Temp::from_celsius(self.config.ambient.as_celsius() + power.as_watts() * self.config.r_th)
    }

    /// Advances the network by `dt` under dissipated `power`, returning
    /// the new die temperature.
    pub fn step(&mut self, power: Power, dt: SimTime) -> Temp {
        let target = self.steady_state(power).as_celsius();
        let t = self.temperature.as_celsius();
        if self.decay_memo.0 != dt {
            self.decay_memo = (dt, decay(dt, self.config.tau));
        }
        self.temperature = Temp::from_celsius(target + (t - target) * self.decay_memo.1);
        self.peak = self.peak.max(self.temperature);
        self.temperature
    }

    /// Resets the die to ambient.
    pub fn reset(&mut self) {
        self.temperature = self.config.ambient;
        self.peak = self.config.ambient;
    }
}

/// The RC network's decay factor `exp(−dt/τ)` over one step.
fn decay(dt: SimTime, tau: SimTime) -> f64 {
    (-dt.as_secs_f64() / tau.as_secs_f64()).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_ambient() {
        let t = ThermalModel::new(ThermalConfig::odroid_xu3());
        assert_eq!(t.temperature().as_celsius(), 25.0);
    }

    #[test]
    fn heats_towards_steady_state_monotonically() {
        let mut t = ThermalModel::new(ThermalConfig::odroid_xu3());
        let mut prev = t.temperature().as_celsius();
        for _ in 0..100 {
            let now = t
                .step(Power::from_watts(5.0), SimTime::from_ms(100))
                .as_celsius();
            assert!(now >= prev, "heating must be monotone");
            assert!(now <= 65.0 + 1e-9, "must not overshoot steady state");
            prev = now;
        }
    }

    #[test]
    fn cools_when_power_drops() {
        let mut t = ThermalModel::new(ThermalConfig::odroid_xu3());
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
    fn time_constant_governs_speed() {
        let fast_cfg = ThermalConfig {
            tau: SimTime::from_ms(500),
            ..ThermalConfig::odroid_xu3()
        };
        let mut fast = ThermalModel::new(fast_cfg);
        let mut slow = ThermalModel::new(ThermalConfig::odroid_xu3());
        for _ in 0..10 {
            fast.step(Power::from_watts(5.0), SimTime::from_ms(100));
            slow.step(Power::from_watts(5.0), SimTime::from_ms(100));
        }
        assert!(fast.temperature() > slow.temperature());
    }

    #[test]
    fn reset_returns_to_ambient() {
        let mut t = ThermalModel::new(ThermalConfig::odroid_xu3());
        t.step(Power::from_watts(6.0), SimTime::from_secs(10));
        t.reset();
        assert_eq!(t.temperature().as_celsius(), 25.0);
        assert_eq!(t.peak().as_celsius(), 25.0);
    }

    #[test]
    fn steady_state_formula() {
        let t = ThermalModel::new(ThermalConfig::odroid_xu3());
        assert_eq!(t.steady_state(Power::from_watts(2.0)).as_celsius(), 41.0);
    }
}
