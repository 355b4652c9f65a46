//! On-board power sensing.
//!
//! "Power is measured from on-board power sensors each frame and
//! subsequently, the energy is calculated by multiplying average power
//! with execution time" (Section III). The XU3's INA231 sensors deliver
//! quantised readings with measurement noise; this module reproduces
//! both so governors and experiments see realistic telemetry while the
//! simulator separately tracks ground-truth energy.

use qgov_units::{Energy, Power, SimTime};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Measurement characteristics of the power sensor.
#[derive(Debug, Clone, PartialEq)]
pub struct SensorConfig {
    /// Reading resolution in milliwatts (readings round to a multiple).
    pub quantum_mw: f64,
    /// Relative Gaussian noise (standard deviation as a fraction of the
    /// reading). Zero for an ideal sensor.
    pub noise_fraction: f64,
    /// Seed for the noise generator.
    pub seed: u64,
}

impl SensorConfig {
    /// INA231-like characteristics: 5 mW resolution, 1 % noise.
    #[must_use]
    pub fn ina231(seed: u64) -> Self {
        SensorConfig {
            quantum_mw: 5.0,
            noise_fraction: 0.01,
            seed,
        }
    }

    /// A perfect sensor (exact readings) for deterministic unit tests.
    #[must_use]
    pub fn ideal() -> Self {
        SensorConfig {
            quantum_mw: 0.0,
            noise_fraction: 0.0,
            seed: 0,
        }
    }
}

impl Default for SensorConfig {
    fn default() -> Self {
        Self::ina231(0)
    }
}

/// Integrates true power over time and reports frame-averaged readings
/// with the configured quantisation and noise.
///
/// # Examples
///
/// ```
/// use qgov_sim::{PowerSensor, SensorConfig};
/// use qgov_units::{Power, SimTime};
///
/// let mut sensor = PowerSensor::new(SensorConfig::ideal());
/// sensor.integrate(Power::from_watts(2.0), SimTime::from_ms(10));
/// sensor.integrate(Power::from_watts(4.0), SimTime::from_ms(10));
/// let reading = sensor.read_frame_average();
/// assert!((reading.as_watts() - 3.0).abs() < 1e-9);
/// ```
#[derive(Debug)]
pub struct PowerSensor {
    config: SensorConfig,
    rng: StdRng,
    /// Energy accumulated in the current frame window.
    frame_energy: Energy,
    /// Time accumulated in the current frame window.
    frame_time: SimTime,
    /// Ground-truth energy since construction.
    total_energy: Energy,
}

impl PowerSensor {
    /// Creates a sensor.
    #[must_use]
    pub fn new(config: SensorConfig) -> Self {
        assert!(
            config.quantum_mw.is_finite() && config.quantum_mw >= 0.0,
            "quantum must be finite and non-negative"
        );
        assert!(
            config.noise_fraction.is_finite() && (0.0..1.0).contains(&config.noise_fraction),
            "noise fraction must lie in [0, 1)"
        );
        let rng = StdRng::seed_from_u64(config.seed);
        PowerSensor {
            config,
            rng,
            frame_energy: Energy::ZERO,
            frame_time: SimTime::ZERO,
            total_energy: Energy::ZERO,
        }
    }

    /// Accumulates `power` drawn for `span` into the current frame
    /// window (and the ground-truth total).
    pub fn integrate(&mut self, power: Power, span: SimTime) {
        let e = power * span;
        self.frame_energy += e;
        self.frame_time += span;
        self.total_energy += e;
    }

    /// Closes the current frame window and returns the sensor's reading
    /// of its average power, including quantisation and noise. Resets
    /// the window.
    pub fn read_frame_average(&mut self) -> Power {
        let true_avg = if self.frame_time.is_zero() {
            0.0
        } else {
            self.frame_energy.as_joules() / self.frame_time.as_secs_f64()
        };
        self.frame_energy = Energy::ZERO;
        self.frame_time = SimTime::ZERO;
        let noisy = if self.config.noise_fraction > 0.0 {
            let g = gaussian(&mut self.rng);
            (true_avg * (1.0 + self.config.noise_fraction * g)).max(0.0)
        } else {
            true_avg
        };
        let quantised = if self.config.quantum_mw > 0.0 {
            let q = self.config.quantum_mw / 1_000.0;
            (noisy / q).round() * q
        } else {
            noisy
        };
        Power::from_watts(quantised)
    }

    /// Ground-truth energy integrated since construction (what a perfect
    /// lab meter would report; used for Oracle normalisation).
    #[must_use]
    pub fn total_energy(&self) -> Energy {
        self.total_energy
    }
}

/// A standard-normal sample via Box–Muller from the seeded stream.
fn gaussian(rng: &mut StdRng) -> f64 {
    use rand::Rng;
    loop {
        let u1: f64 = rng.gen::<f64>();
        if u1 > f64::MIN_POSITIVE {
            let u2: f64 = rng.gen::<f64>();
            return (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_sensor_reports_exact_average() {
        let mut s = PowerSensor::new(SensorConfig::ideal());
        s.integrate(Power::from_watts(1.0), SimTime::from_ms(30));
        s.integrate(Power::from_watts(3.0), SimTime::from_ms(10));
        // (1*30 + 3*10)/40 = 1.5 W
        assert!((s.read_frame_average().as_watts() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn window_resets_between_frames() {
        let mut s = PowerSensor::new(SensorConfig::ideal());
        s.integrate(Power::from_watts(2.0), SimTime::from_ms(10));
        let _ = s.read_frame_average();
        s.integrate(Power::from_watts(4.0), SimTime::from_ms(10));
        assert!((s.read_frame_average().as_watts() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn empty_window_reads_zero() {
        let mut s = PowerSensor::new(SensorConfig::ideal());
        assert_eq!(s.read_frame_average(), Power::ZERO);
    }

    #[test]
    fn total_energy_is_ground_truth_across_frames() {
        let mut s = PowerSensor::new(SensorConfig::ina231(1));
        s.integrate(Power::from_watts(2.0), SimTime::from_secs(1));
        let _ = s.read_frame_average();
        s.integrate(Power::from_watts(3.0), SimTime::from_secs(1));
        let _ = s.read_frame_average();
        assert!((s.total_energy().as_joules() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn quantisation_rounds_to_grid() {
        let mut s = PowerSensor::new(SensorConfig {
            quantum_mw: 100.0,
            noise_fraction: 0.0,
            seed: 0,
        });
        s.integrate(Power::from_watts(1.234), SimTime::from_ms(10));
        assert!((s.read_frame_average().as_watts() - 1.2).abs() < 1e-9);
    }

    #[test]
    fn noise_is_deterministic_per_seed_and_small() {
        let run = |seed| {
            let mut s = PowerSensor::new(SensorConfig {
                quantum_mw: 0.0,
                noise_fraction: 0.01,
                seed,
            });
            let mut readings = Vec::new();
            for _ in 0..100 {
                s.integrate(Power::from_watts(2.0), SimTime::from_ms(10));
                readings.push(s.read_frame_average().as_watts());
            }
            readings
        };
        let a = run(42);
        let b = run(42);
        assert_eq!(a, b, "same seed must reproduce identical noise");
        let c = run(43);
        assert_ne!(a, c, "different seeds must differ");
        // 1 % noise: all readings within 10 sigma of truth.
        for r in &a {
            assert!((r - 2.0).abs() < 0.2, "implausible reading {r}");
        }
        // Mean close to truth.
        let mean: f64 = a.iter().sum::<f64>() / a.len() as f64;
        assert!((mean - 2.0).abs() < 0.01, "biased mean {mean}");
    }

    #[test]
    #[should_panic(expected = "noise fraction")]
    fn bad_noise_fraction_panics() {
        let _ = PowerSensor::new(SensorConfig {
            quantum_mw: 0.0,
            noise_fraction: 1.5,
            seed: 0,
        });
    }
}
