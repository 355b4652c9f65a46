//! Property-based tests for the unit newtypes: arithmetic identities and
//! round-trip invariants that must hold for any value.

use proptest::prelude::*;
use qgov_units::{Cycles, Energy, Freq, Power, SimTime};

proptest! {
    /// time_at never loses work: running for the returned duration at the
    /// same frequency retires at least the requested cycles.
    #[test]
    fn time_at_covers_all_cycles(cycles in 1u64..10_000_000_000, khz in 1u64..5_000_000) {
        let c = Cycles::new(cycles);
        let f = Freq::from_khz(khz);
        let t = c.time_at(f);
        let retired = Cycles::elapsed(f, t);
        prop_assert!(retired >= c, "retired {retired:?} < requested {c:?}");
    }

    /// The round-up in time_at costs less than one extra microsecond-worth
    /// of cycles.
    #[test]
    fn time_at_is_tight(cycles in 1u64..10_000_000_000, khz in 1u64..5_000_000) {
        let c = Cycles::new(cycles);
        let f = Freq::from_khz(khz);
        let t = c.time_at(f);
        // One ns less must not be enough to retire the work.
        let t_minus = SimTime::from_ns(t.as_ns() - 1);
        let retired = Cycles::elapsed(f, t_minus);
        prop_assert!(retired <= c, "time_at over-allocated: {retired:?} > {c:?}");
    }

    /// time_at equals the exact u128 round-up division wherever the exact
    /// result fits in u64, on both sides of the u64 fast path's limit
    /// (`u64::MAX / 10⁶` cycles) and at any frequency from 1 kHz up.
    #[test]
    fn time_at_matches_the_u128_reference(
        side in 0u8..4,
        offset in 0u64..1_000_000_000,
        any_cycles in 1u64..=u64::MAX,
        khz in (0u8..2, 1u64..5_000_000, 1u64..=u64::MAX)
            .prop_map(|(wide, low, high)| if wide == 1 { high } else { low }),
    ) {
        const LIMIT: u64 = u64::MAX / 1_000_000;
        let cycles = match side {
            0 => LIMIT - offset.min(LIMIT - 1),
            1 => LIMIT + 1 + offset,
            2 => 1 + offset,
            _ => any_cycles,
        };
        let exact = (u128::from(cycles) * 1_000_000).div_ceil(u128::from(khz));
        prop_assume!(exact <= u128::from(u64::MAX));
        let t = Cycles::new(cycles).time_at(Freq::from_khz(khz));
        prop_assert_eq!(u128::from(t.as_ns()), exact, "{} cycles at {} kHz", cycles, khz);
    }

    /// Frequency scaling by reciprocal factors round-trips within rounding.
    #[test]
    fn freq_scale_round_trip(mhz in 1u64..10_000, num in 1u32..100) {
        let f = Freq::from_mhz(mhz);
        let factor = f64::from(num);
        let back = f.scale(factor).scale(1.0 / factor);
        let err = back.khz().abs_diff(f.khz());
        prop_assert!(err <= 1, "round trip error {err} kHz");
    }

    /// Saturating subtraction never underflows and agrees with Sub when safe.
    #[test]
    fn saturating_sub_consistent(a in 0u64..u64::MAX / 2, b in 0u64..u64::MAX / 2) {
        let (ta, tb) = (SimTime::from_ns(a), SimTime::from_ns(b));
        let s = ta.saturating_sub(tb);
        if a >= b {
            prop_assert_eq!(s, ta - tb);
        } else {
            prop_assert_eq!(s, SimTime::ZERO);
        }
    }

    /// Energy accumulation is order-independent up to float tolerance.
    #[test]
    fn energy_sum_commutes(values in proptest::collection::vec(0.0f64..1e6, 1..50)) {
        let forward: Energy = values.iter().map(|&j| Energy::from_joules(j)).sum();
        let reverse: Energy = values.iter().rev().map(|&j| Energy::from_joules(j)).sum();
        let diff = (forward.as_joules() - reverse.as_joules()).abs();
        prop_assert!(diff <= 1e-6 * forward.as_joules().max(1.0));
    }

    /// P * t equals the manual product in joules.
    #[test]
    fn power_time_product(w in 0.0f64..1e3, ns in 0u64..10_000_000_000_000) {
        let e = Power::from_watts(w) * SimTime::from_ns(ns);
        let expect = w * (ns as f64 / 1e9);
        prop_assert!((e.as_joules() - expect).abs() <= 1e-9 * expect.max(1.0));
    }

    /// Cycles::elapsed is monotone in both time and frequency.
    #[test]
    fn elapsed_monotone(khz in 1u64..3_000_000, ns in 0u64..1_000_000_000, extra in 1u64..1_000_000) {
        let f = Freq::from_khz(khz);
        let t = SimTime::from_ns(ns);
        let t2 = SimTime::from_ns(ns + extra);
        prop_assert!(Cycles::elapsed(f, t2) >= Cycles::elapsed(f, t));
        let f2 = Freq::from_khz(khz + extra);
        prop_assert!(Cycles::elapsed(f2, t) >= Cycles::elapsed(f, t));
    }
}
