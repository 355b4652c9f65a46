//! Acceptance pin for the fault-storm experiment: under the standard
//! deterministic fault schedule (stuck PMU, thermal spike, then a full
//! cluster drop-out at mid-run) the **hardened** many-core RTM keeps
//! every always-on temporal property Holding and recovers its windowed
//! miss rate, while the **naive** per-cluster RTM — same Q-agents, no
//! plausibility filter, no dead-cluster migration — violates at least
//! one property and never recovers. This is the headline claim of the
//! degraded-mode-control work, pinned end to end through the real
//! harness.

use qgov::prelude::*;

/// Long enough for the recovery property to gate: drop at frames/2,
/// then grace + one full recovery window must fit before the end.
const FRAMES: u64 = 400;
const SEED: u64 = 11;

fn storm() -> FaultStormResult {
    let plan = RunPlan {
        runner: RunnerConfig::serial(),
        ..RunPlan::new(vec![SEED], FRAMES)
    };
    FaultStorm::run(&plan).remove(0)
}

fn row<'a>(result: &'a FaultStormResult, governor: &str) -> &'a FaultStormRow {
    result
        .rows
        .iter()
        .find(|r| r.governor == governor)
        .unwrap_or_else(|| panic!("no {governor} row"))
}

#[test]
fn hardened_rtm_holds_every_monitor_while_naive_violates() {
    let result = storm();

    let hardened = row(&result, "rtm-hardened");
    let monitors = hardened.monitor.as_ref().expect("monitored run");
    assert!(
        monitors.is_clean(),
        "hardened RTM must hold every property:\n{}",
        monitors.summary()
    );
    assert!(
        monitors.verdicts().len() >= 3,
        "recovery pack has at least 3 properties"
    );

    let naive = row(&result, "rtm-naive");
    let monitors = naive.monitor.as_ref().expect("monitored run");
    assert!(
        monitors.violation_count() >= 1,
        "naive RTM must violate at least one property under the storm:\n{}",
        monitors.summary()
    );
}

#[test]
fn hardened_rtm_recovers_after_the_cluster_drop_and_naive_never_does() {
    let result = storm();
    assert_eq!(result.drop_epoch, FRAMES / 2);

    let hardened = row(&result, "rtm-hardened");
    assert!(
        hardened.post_drop_miss_rate < 0.3,
        "hardened post-drop miss rate {} too high",
        hardened.post_drop_miss_rate
    );
    assert!(
        hardened.recovery.time_to_recover.is_some(),
        "hardened RTM must settle back under the miss bound"
    );
    assert!(
        hardened.recovery.degraded_epochs > 0 && hardened.safe_state_epochs > 0,
        "the storm must actually exercise the degraded path \
         (degraded {}, safe-state {})",
        hardened.recovery.degraded_epochs,
        hardened.safe_state_epochs
    );

    for label in ["rtm-naive", "ondemand"] {
        let naive = row(&result, label);
        assert!(
            naive.post_drop_miss_rate > 0.7,
            "{label} post-drop miss rate {} suspiciously low — work routed \
             to the dead cluster should never complete",
            naive.post_drop_miss_rate
        );
        assert!(
            naive.recovery.time_to_recover.is_none(),
            "{label} must never recover without migration"
        );
    }
}

#[test]
fn storm_result_is_deterministic() {
    let a = storm();
    let b = storm();
    for (ra, rb) in a.rows.iter().zip(&b.rows) {
        assert_eq!(ra.governor, rb.governor);
        assert_eq!(ra.energy_joules.to_bits(), rb.energy_joules.to_bits());
        assert_eq!(ra.miss_rate.to_bits(), rb.miss_rate.to_bits());
        assert_eq!(
            ra.post_drop_miss_rate.to_bits(),
            rb.post_drop_miss_rate.to_bits()
        );
        assert_eq!(ra.recovery, rb.recovery);
    }
}
