//! CMOS power model.
//!
//! Per-core power is modelled with the standard decomposition the paper
//! relies on for its "cubic reduction in dynamic power" claim:
//!
//! ```text
//! P_dyn    = C_eff · V² · f · activity         (switching power)
//! P_static = (k₁·V + k₂·V³) · (1 + k_T·(T−25)) (leakage, grows with V and T)
//! ```
//!
//! The default constants are calibrated so a four-core A15 cluster at
//! 2 GHz / 1.3625 V under full load dissipates ≈ 5.5 W and ≈ 0.35 W at
//! 200 MHz / 0.9 V, matching published ODROID-XU3 measurements.

use crate::Opp;
use qgov_units::{Power, Temp};

/// Decomposition of a power figure into its physical components.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerBreakdown {
    /// Switching (dynamic) power.
    pub dynamic: Power,
    /// Leakage (static) power.
    pub statik: Power,
}

impl PowerBreakdown {
    /// Total power.
    #[must_use]
    pub fn total(&self) -> Power {
        self.dynamic + self.statik
    }
}

/// The analytical CMOS power model: maps (operating point, activity,
/// temperature) to power. A [`Platform`](crate::Platform) evaluates it
/// for every frame it runs.
///
/// # Examples
///
/// ```
/// use qgov_sim::{Platform, PlatformConfig, WorkSlice};
/// use qgov_units::{Cycles, SimTime};
///
/// // A fully busy quad A15 at the lowest and at the highest OPP.
/// let avg_power_at = |opp: usize| {
///     let mut platform = Platform::new(PlatformConfig::odroid_xu3_a15()).unwrap();
///     platform.set_cluster_opp(opp);
///     let work = vec![WorkSlice::cpu_only(Cycles::from_mcycles(100)); 4];
///     let frame = platform.run_frame(&work, SimTime::from_ms(10)).unwrap();
///     frame.energy.as_joules() / frame.wall_time.as_secs_f64()
/// };
/// // An order of magnitude or more between the extremes.
/// assert!(avg_power_at(18) > 8.0 * avg_power_at(0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CmosPowerModel {
    /// Effective switched capacitance per core in farads.
    ceff_core: f64,
    /// Effective switched capacitance of the shared uncore in farads.
    ceff_uncore: f64,
    /// Linear leakage coefficient (W per volt).
    k1_leak: f64,
    /// Cubic leakage coefficient (W per volt³).
    k3_leak: f64,
    /// Leakage temperature sensitivity (fraction per °C above 25 °C).
    kt_leak: f64,
    /// Residual switching activity when idle (clock-gated WFI state).
    idle_activity: f64,
}

impl CmosPowerModel {
    /// Builds a model from raw physical constants.
    ///
    /// # Panics
    ///
    /// Panics if any constant is negative or not finite, or if
    /// `idle_activity` is not in `[0, 1]`.
    #[must_use]
    pub fn new(
        ceff_core: f64,
        ceff_uncore: f64,
        k1_leak: f64,
        k3_leak: f64,
        kt_leak: f64,
        idle_activity: f64,
    ) -> Self {
        for (name, v) in [
            ("ceff_core", ceff_core),
            ("ceff_uncore", ceff_uncore),
            ("k1_leak", k1_leak),
            ("k3_leak", k3_leak),
            ("kt_leak", kt_leak),
            ("idle_activity", idle_activity),
        ] {
            assert!(
                v.is_finite() && v >= 0.0,
                "power model constant {name} must be finite and non-negative, got {v}"
            );
        }
        assert!(
            idle_activity <= 1.0,
            "idle_activity must be at most 1, got {idle_activity}"
        );
        CmosPowerModel {
            ceff_core,
            ceff_uncore,
            k1_leak,
            k3_leak,
            kt_leak,
            idle_activity,
        }
    }

    /// Constants calibrated for one ODROID-XU3 A15 core:
    /// `C_eff = 0.30 nF` per core, `0.12 nF` uncore, leakage sized so
    /// the quad cluster dissipates ≈ 5.5 W flat-out at 2 GHz and
    /// ≈ 0.35 W at 200 MHz.
    #[must_use]
    pub fn a15() -> Self {
        Self::new(0.30e-9, 0.12e-9, 0.04, 0.045, 0.012, 0.05)
    }

    /// Constants for the low-power A7 companion cluster (roughly 5× less
    /// switched capacitance).
    #[must_use]
    pub fn a7() -> Self {
        Self::new(0.06e-9, 0.03e-9, 0.01, 0.012, 0.012, 0.05)
    }

    /// The parts of the model that depend only on the operating point,
    /// evaluated once: see [`OppPower`].
    #[must_use]
    pub(crate) fn opp_power(&self, opp: Opp) -> OppPower {
        let volt_v = opp.volt.as_volts();
        let volt_sq = opp.volt.squared();
        let hz = opp.freq.hz() as f64;
        OppPower {
            core_switching: self.ceff_core * volt_sq * hz,
            uncore_switching: self.ceff_uncore * volt_sq * hz,
            leakage: self.k1_leak * volt_v + self.k3_leak * volt_v * volt_v * volt_v,
        }
    }

    /// The leakage temperature factor `1 + k_T·max(T − 25, 0)` at die
    /// temperature `temp`: one value per frame serves every core and
    /// the uncore.
    #[must_use]
    pub(crate) fn leakage_scale(&self, temp: Temp) -> f64 {
        1.0 + self.kt_leak * (temp.as_celsius() - 25.0).max(0.0)
    }

    /// Power of one core with switching `activity ∈ [0, 1]` (1 = fully
    /// busy, 0 = clock-gated idle) at the operating point `opp` was
    /// evaluated for, with leakage scaled by `leakage_scale` (from
    /// [`leakage_scale`](CmosPowerModel::leakage_scale)).
    ///
    /// # Panics
    ///
    /// Panics if `activity` lies outside `[0, 1]`.
    #[must_use]
    pub(crate) fn core_power_at(
        &self,
        opp: &OppPower,
        activity: f64,
        leakage_scale: f64,
    ) -> PowerBreakdown {
        assert!(
            (0.0..=1.0).contains(&activity),
            "activity must lie in [0, 1], got {activity}"
        );
        let act = activity.max(self.idle_activity);
        PowerBreakdown {
            dynamic: Power::from_watts(opp.core_switching * act),
            statik: Power::from_watts(opp.leakage * leakage_scale),
        }
    }

    /// Cluster-level uncore power (L2, interconnect, clock tree),
    /// dissipated however many cores are busy, at the operating point
    /// `opp` was evaluated for, with leakage scaled by `leakage_scale`:
    /// half a core's leakage plus the uncore's own switching.
    #[must_use]
    pub(crate) fn uncore_power_at(&self, opp: &OppPower, leakage_scale: f64) -> PowerBreakdown {
        PowerBreakdown {
            dynamic: Power::from_watts(opp.uncore_switching),
            statik: Power::from_watts(opp.leakage * leakage_scale) * 0.5,
        }
    }
}

/// The per-operating-point constants of a [`CmosPowerModel`]: a fully
/// busy core's switching power `C_core·V²·f`, the uncore's
/// `C_uncore·V²·f`, and the leakage at or below 25 °C, `k₁·V + k₃·V³`.
///
/// They depend on the OPP alone, so a frame kernel evaluates them once
/// per table entry ([`CmosPowerModel::opp_power`]) and combines them per
/// frame with [`CmosPowerModel::core_power_at`] and
/// [`CmosPowerModel::uncore_power_at`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct OppPower {
    core_switching: f64,
    uncore_switching: f64,
    leakage: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OppTable;

    fn a15_cluster_power_at(index: usize, activity: f64) -> f64 {
        let model = CmosPowerModel::a15();
        let table = OppTable::odroid_xu3_a15();
        let opp = model.opp_power(table.get(index).unwrap());
        let scale = model.leakage_scale(Temp::default());
        let core = model.core_power_at(&opp, activity, scale).total();
        let uncore = model.uncore_power_at(&opp, scale).total();
        4.0 * core.as_watts() + uncore.as_watts()
    }

    #[test]
    fn calibration_matches_published_xu3_envelope() {
        let full_speed = a15_cluster_power_at(18, 1.0);
        assert!(
            (4.5..7.0).contains(&full_speed),
            "quad A15 at 2 GHz should draw 4.5-7 W, got {full_speed:.2} W"
        );
        let low_speed = a15_cluster_power_at(0, 1.0);
        assert!(
            (0.15..0.7).contains(&low_speed),
            "quad A15 at 200 MHz should draw 0.15-0.7 W, got {low_speed:.2} W"
        );
    }

    #[test]
    fn power_is_monotone_in_opp() {
        let mut prev = 0.0;
        for i in 0..19 {
            let p = a15_cluster_power_at(i, 1.0);
            assert!(p > prev, "power must rise with OPP index ({i})");
            prev = p;
        }
    }

    #[test]
    fn idle_draws_much_less_than_busy() {
        let busy = a15_cluster_power_at(18, 1.0);
        let idle = a15_cluster_power_at(18, 0.0);
        assert!(
            idle < 0.35 * busy,
            "idle {idle:.2} W should be well below busy {busy:.2} W"
        );
        assert!(idle > 0.0, "idle still leaks");
    }

    #[test]
    fn leakage_grows_with_temperature() {
        let model = CmosPowerModel::a15();
        let opp = model.opp_power(OppTable::odroid_xu3_a15().get(18).unwrap());
        let cold = model.core_power_at(&opp, 0.0, model.leakage_scale(Temp::from_celsius(25.0)));
        let hot = model.core_power_at(&opp, 0.0, model.leakage_scale(Temp::from_celsius(85.0)));
        assert!(hot.statik > cold.statik);
        assert_eq!(hot.dynamic, cold.dynamic);
    }

    #[test]
    fn cubic_freq_voltage_scaling_beats_linear() {
        // Halving frequency with the accompanying voltage drop should
        // cut dynamic power by far more than 2x (the paper's cubic
        // reduction motivation).
        let model = CmosPowerModel::a15();
        let table = OppTable::odroid_xu3_a15();
        let scale = model.leakage_scale(Temp::default());
        let dynamic_at = |index| {
            let opp = model.opp_power(table.get(index).unwrap());
            model.core_power_at(&opp, 1.0, scale).dynamic
        };
        let (p2000, p1000) = (dynamic_at(18), dynamic_at(8));
        let ratio = p2000.as_watts() / p1000.as_watts();
        assert!(ratio > 3.0, "expected >3x dynamic drop, got {ratio:.2}x");
    }

    #[test]
    fn a7_draws_less_than_a15() {
        let a15 = CmosPowerModel::a15();
        let a7 = CmosPowerModel::a7();
        let opp = OppTable::odroid_xu3_a7().get(12).unwrap();
        let busy = |model: &CmosPowerModel| {
            let scale = model.leakage_scale(Temp::default());
            model
                .core_power_at(&model.opp_power(opp), 1.0, scale)
                .total()
        };
        let (pa15, pa7) = (busy(&a15), busy(&a7));
        assert!(pa7.as_watts() < 0.5 * pa15.as_watts());
    }

    /// Core and uncore power in closed form, straight from the fields:
    /// the reference for the per-OPP constants.
    fn closed_form(
        model: &CmosPowerModel,
        opp: Opp,
        activity: f64,
        temp: Temp,
    ) -> (PowerBreakdown, PowerBreakdown) {
        let v = opp.volt.as_volts();
        let base = model.k1_leak * v + model.k3_leak * v * v * v;
        let t_scale = 1.0 + model.kt_leak * (temp.as_celsius() - 25.0).max(0.0);
        let leakage = Power::from_watts(base * t_scale);
        let act = activity.max(model.idle_activity);
        let core = PowerBreakdown {
            dynamic: Power::from_watts(
                model.ceff_core * opp.volt.squared() * opp.freq.hz() as f64 * act,
            ),
            statik: leakage,
        };
        let uncore = PowerBreakdown {
            dynamic: Power::from_watts(
                model.ceff_uncore * opp.volt.squared() * opp.freq.hz() as f64,
            ),
            statik: leakage * 0.5,
        };
        (core, uncore)
    }

    fn bits(p: PowerBreakdown) -> (u64, u64) {
        (
            p.dynamic.as_watts().to_bits(),
            p.statik.as_watts().to_bits(),
        )
    }

    #[test]
    fn per_opp_constants_reproduce_the_closed_form_bit_for_bit() {
        // Below ambient, around the 25 °C knee, the 85 °C migration cap
        // and the 90 °C monitor cap, and well above both.
        let temps = [
            -40.0, 0.0, 24.999, 25.0, 25.001, 47.3, 85.0, 90.0, 90.001, 131.7,
        ];
        for (model, table) in [
            (CmosPowerModel::a15(), OppTable::odroid_xu3_a15()),
            (CmosPowerModel::a7(), OppTable::odroid_xu3_a7()),
        ] {
            for opp in table.iter() {
                for step in 0..=64 {
                    let activity = f64::from(step) / 64.0;
                    for &c in &temps {
                        let temp = Temp::from_celsius(c);
                        let (core, uncore) = closed_form(&model, opp, activity, temp);
                        let (per_opp, scale) = (model.opp_power(opp), model.leakage_scale(temp));
                        assert_eq!(
                            bits(model.core_power_at(&per_opp, activity, scale)),
                            bits(core),
                            "core power at {opp}, activity {activity}, {c} degC"
                        );
                        assert_eq!(
                            bits(model.uncore_power_at(&per_opp, scale)),
                            bits(uncore),
                            "uncore power at {opp}, {c} degC"
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "activity")]
    fn activity_out_of_range_panics() {
        let model = CmosPowerModel::a15();
        let opp = model.opp_power(OppTable::odroid_xu3_a15().get(0).unwrap());
        let _ = model.core_power_at(&opp, 1.5, 1.0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_constant_panics() {
        let _ = CmosPowerModel::new(-1.0, 0.0, 0.0, 0.0, 0.0, 0.0);
    }
}
