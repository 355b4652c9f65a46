//! Streaming temporal-property monitors over epoch streams.
//!
//! A [`Property`] is a finite-trace LTL-style state machine —
//! [`always`](Property::always), [`eventually`](Property::eventually),
//! [`after`](Property::after) — evaluated
//! *online*: each observed sample advances the machine by O(1) work and
//! O(1) state, so a property can ride along a 100k-frame run without
//! materialising the trace. A [`PropertySet`] bundles named properties,
//! feeds every sample to all of them, and folds the outcome into a
//! [`MonitorReport`] of per-property [`Verdict`]s.
//!
//! # Finite-trace semantics
//!
//! Verdicts are decided over the *observed prefix* at the moment
//! [`PropertySet::report`] (or [`Property::verdict`]) is called:
//!
//! * `always p` — [`Verdict::Vacuous`] on an empty stream; violated at
//!   the first epoch where `p` fails; holds otherwise.
//! * `eventually p` — vacuous on an empty stream; holds once `p` fires;
//!   violated *at the last observed epoch* if the stream ends without it.
//! * `after(c, inner)` — vacuous while the trigger `c` has never fired;
//!   afterwards `inner` is evaluated over the suffix starting at the
//!   triggering sample (inclusive), with epochs kept absolute.
//!
//! Predicates are `FnMut`, so a property may carry its own O(1) running
//! state (a previous-sample slot, a tumbling window counter). To keep
//! that sound, each predicate is called **exactly once per observed
//! sample** until its verdict is decided, and never again after —
//! short-circuiting is part of the contract, not an optimisation.
//!
//! # Allocation discipline
//!
//! Construction allocates (boxed predicates, the entry vector);
//! [`PropertySet::observe`] never does. `tests/alloc_steady_state.rs`
//! pins a full property pack at exactly zero heap allocations per
//! post-warm-up epoch.
//!
//! ```
//! use qgov_metrics::{Property, PropertySet, Verdict};
//!
//! let mut set = PropertySet::new()
//!     .with("small", Property::always(|x: &f64| *x < 10.0))
//!     .with("spikes", Property::eventually(|x: &f64| *x > 5.0));
//! for x in [1.0, 6.0, 2.0] {
//!     set.observe(&x);
//! }
//! let report = set.report();
//! assert!(report.is_clean());
//! assert_eq!(report.verdicts()[1].verdict, Verdict::Holds);
//! ```

use crate::table::ComparisonTable;
use std::fmt;

/// A monitor predicate: `FnMut` so a property can carry O(1) running
/// state of its own (previous sample, window counters). Called exactly
/// once per observed sample until the owning property's verdict is
/// decided.
pub type MonitorPredicate<S> = Box<dyn FnMut(&S) -> bool + Send>;

/// The outcome of one temporal property over the observed stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The property held over every observed sample it obliged.
    Holds,
    /// The property failed, first at this epoch.
    Violated {
        /// Epoch (stream position) of the first failure. For an
        /// `eventually` obligation left unmet at stream end, this is the
        /// last observed epoch.
        epoch: u64,
    },
    /// The property never incurred an obligation: the stream was empty
    /// or an `after` trigger never fired.
    Vacuous,
}

impl Verdict {
    /// True only for [`Verdict::Violated`]. Vacuous verdicts count as
    /// non-violations: a property that was never obliged cannot fail.
    #[must_use]
    pub fn is_violation(&self) -> bool {
        matches!(self, Verdict::Violated { .. })
    }

    /// The violation epoch, if violated.
    #[must_use]
    pub fn violation_epoch(&self) -> Option<u64> {
        match self {
            Verdict::Violated { epoch } => Some(*epoch),
            _ => None,
        }
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Holds => write!(f, "holds"),
            Verdict::Violated { epoch } => write!(f, "VIOLATED @ epoch {epoch}"),
            Verdict::Vacuous => write!(f, "vacuous"),
        }
    }
}

/// The O(1) streaming state of one combinator node.
enum Node<S> {
    Always {
        pred: MonitorPredicate<S>,
        violated: Option<u64>,
    },
    Eventually {
        pred: MonitorPredicate<S>,
        found: bool,
    },
    After {
        trigger: MonitorPredicate<S>,
        inner: Box<Property<S>>,
        triggered: bool,
    },
}

/// One streaming temporal property: a combinator tree whose every node
/// keeps O(1) state and advances by O(1) work per observed sample.
///
/// Drive it through [`PropertySet`] (which numbers the stream), or
/// directly via [`Property::observe`] with caller-supplied epochs.
pub struct Property<S> {
    node: Node<S>,
    /// Whether any sample has been observed (empty streams are vacuous).
    any: bool,
    /// Last observed epoch — where end-of-stream obligations land.
    last: u64,
}

impl<S> Property<S> {
    fn from_node(node: Node<S>) -> Self {
        Self {
            node,
            any: false,
            last: 0,
        }
    }

    /// `always p`: `p` must hold at every observed sample.
    pub fn always(pred: impl FnMut(&S) -> bool + Send + 'static) -> Self {
        Self::from_node(Node::Always {
            pred: Box::new(pred),
            violated: None,
        })
    }

    /// `eventually p`: `p` must hold at some observed sample.
    pub fn eventually(pred: impl FnMut(&S) -> bool + Send + 'static) -> Self {
        Self::from_node(Node::Eventually {
            pred: Box::new(pred),
            found: false,
        })
    }

    /// `after(trigger, inner)`: once `trigger` first fires, evaluate
    /// `inner` over the remaining stream (triggering sample inclusive,
    /// epochs absolute). Vacuous if the trigger never fires.
    pub fn after(trigger: impl FnMut(&S) -> bool + Send + 'static, inner: Property<S>) -> Self {
        Self::from_node(Node::After {
            trigger: Box::new(trigger),
            inner: Box::new(inner),
            triggered: false,
        })
    }

    /// Advances the property by one sample. `epoch` is the sample's
    /// stream position; [`PropertySet`] supplies consecutive positions
    /// starting at zero.
    pub fn observe(&mut self, epoch: u64, sample: &S) {
        self.any = true;
        self.last = epoch;
        match &mut self.node {
            Node::Always { pred, violated } => {
                if violated.is_none() && !pred(sample) {
                    *violated = Some(epoch);
                }
            }
            Node::Eventually { pred, found } => {
                if !*found && pred(sample) {
                    *found = true;
                }
            }
            Node::After {
                trigger,
                inner,
                triggered,
            } => {
                if !*triggered {
                    if trigger(sample) {
                        *triggered = true;
                    } else {
                        return;
                    }
                }
                inner.observe(epoch, sample);
            }
        }
    }

    /// The verdict over the stream observed so far. Read-only: callable
    /// at any point, and further samples may still change the answer
    /// (an `eventually` flips from violated-at-end to holds when its
    /// witness arrives).
    #[must_use]
    pub fn verdict(&self) -> Verdict {
        if !self.any {
            return Verdict::Vacuous;
        }
        match &self.node {
            Node::Always { violated, .. } => match violated {
                Some(epoch) => Verdict::Violated { epoch: *epoch },
                None => Verdict::Holds,
            },
            Node::Eventually { found, .. } => {
                if *found {
                    Verdict::Holds
                } else {
                    Verdict::Violated { epoch: self.last }
                }
            }
            Node::After {
                triggered, inner, ..
            } => {
                if *triggered {
                    inner.verdict()
                } else {
                    Verdict::Vacuous
                }
            }
        }
    }
}

impl<S> fmt::Debug for Property<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.node {
            Node::Always { .. } => write!(f, "always(..)"),
            Node::Eventually { .. } => write!(f, "eventually(..)"),
            Node::After { inner, .. } => write!(f, "after(.., {inner:?})"),
        }?;
        write!(f, " [{}]", self.verdict())
    }
}

/// One property's verdict in a [`MonitorReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PropertyVerdict {
    /// The property's name, as registered in the [`PropertySet`].
    pub name: String,
    /// Its verdict over the observed stream.
    pub verdict: Verdict,
}

/// The folded outcome of a [`PropertySet`] over a finished (or paused)
/// stream: one [`Verdict`] per registered property.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MonitorReport {
    verdicts: Vec<PropertyVerdict>,
    epochs: u64,
}

impl MonitorReport {
    /// Per-property verdicts, in registration order.
    #[must_use]
    pub fn verdicts(&self) -> &[PropertyVerdict] {
        &self.verdicts
    }

    /// Number of samples the set observed.
    #[must_use]
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// The violated properties, in registration order.
    pub fn violations(&self) -> impl Iterator<Item = &PropertyVerdict> {
        self.verdicts.iter().filter(|v| v.verdict.is_violation())
    }

    /// Number of violated properties.
    #[must_use]
    pub fn violation_count(&self) -> usize {
        self.violations().count()
    }

    /// True when no property is violated (vacuous verdicts count as
    /// clean — an unobliged property cannot fail).
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violation_count() == 0
    }

    /// Renders the verdicts as a property / verdict table.
    #[must_use]
    pub fn render(&self) -> ComparisonTable {
        let mut table = ComparisonTable::new(vec!["Property", "Verdict"]);
        for v in &self.verdicts {
            table.add_row(vec![v.name.clone(), v.verdict.to_string()]);
        }
        table
    }

    /// One-line summary: `"clean (3 properties, 500 epochs)"` or
    /// `"2 violation(s): thermal-cap @ 41, ..."`.
    #[must_use]
    pub fn summary(&self) -> String {
        if self.is_clean() {
            format!(
                "clean ({} properties, {} epochs)",
                self.verdicts.len(),
                self.epochs
            )
        } else {
            let list: Vec<String> = self
                .violations()
                .map(|v| match v.verdict.violation_epoch() {
                    Some(e) => format!("{} @ {e}", v.name),
                    None => v.name.clone(),
                })
                .collect();
            format!("{} violation(s): {}", list.len(), list.join(", "))
        }
    }
}

/// A named bundle of streaming properties fed from one epoch stream.
///
/// The set numbers samples itself: the first [`observe`](Self::observe)
/// is epoch 0. Observation is allocation-free; [`report`](Self::report)
/// (which allocates the summary) is meant for end of run.
pub struct PropertySet<S> {
    entries: Vec<(String, Property<S>)>,
    epochs: u64,
}

impl<S> Default for PropertySet<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S> PropertySet<S> {
    /// An empty set.
    #[must_use]
    pub fn new() -> Self {
        Self {
            entries: Vec::new(),
            epochs: 0,
        }
    }

    /// Builder form of [`push`](Self::push).
    #[must_use]
    pub fn with(mut self, name: impl Into<String>, property: Property<S>) -> Self {
        self.push(name, property);
        self
    }

    /// Registers `property` under `name` (names are labels, not keys —
    /// duplicates are allowed and reported separately).
    pub fn push(&mut self, name: impl Into<String>, property: Property<S>) {
        self.entries.push((name.into(), property));
    }

    /// Number of registered properties.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no properties are registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of samples observed so far.
    #[must_use]
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// Feeds one sample to every property. Allocation-free.
    pub fn observe(&mut self, sample: &S) {
        let epoch = self.epochs;
        for (_, property) in &mut self.entries {
            property.observe(epoch, sample);
        }
        self.epochs += 1;
    }

    /// Folds the current verdicts into a report. Read-only: the set can
    /// keep observing afterwards.
    #[must_use]
    pub fn report(&self) -> MonitorReport {
        MonitorReport {
            verdicts: self
                .entries
                .iter()
                .map(|(name, property)| PropertyVerdict {
                    name: name.clone(),
                    verdict: property.verdict(),
                })
                .collect(),
            epochs: self.epochs,
        }
    }
}

impl<S> fmt::Debug for PropertySet<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PropertySet")
            .field("epochs", &self.epochs)
            .field("entries", &self.entries)
            .finish()
    }
}

// ---------------------------------------------------------------------------
// The standard property pack
// ---------------------------------------------------------------------------

/// One harness epoch as the standard property pack sees it — a plain-old
///-data snapshot the experiment loop fills in place each frame, so
/// monitored runs stay allocation-free.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonitorSample {
    /// Decision epoch (frame index from 0).
    pub epoch: u64,
    /// Frame time over the period (`> 1.0` missed the deadline).
    pub frame_time_ratio: f64,
    /// Whether the frame met its deadline.
    pub met_deadline: bool,
    /// The OPP index the frame ran at (cluster 0 on a multi-cluster
    /// chip).
    pub opp: usize,
    /// Peak sensed temperature this frame, in °C (chip-wide maximum on
    /// a multi-cluster platform).
    pub temperature_c: f64,
    /// Energy consumed this frame, in joules.
    pub energy_j: f64,
    /// The governor's exploration rate after this epoch's decision, or
    /// NaN when the governor exposes none (heuristics) — ε-properties
    /// self-gate on `is_finite()`.
    pub epsilon: f64,
    /// Whether the governor reports converged exploitation (false when
    /// it exposes no such notion).
    pub converged: bool,
}

/// Thermal cap in °C that no frame may exceed (the ODROID-XU3
/// throttling envelope).
pub const THERMAL_CAP_C: f64 = 90.0;

/// Tumbling-window length (epochs) for the post-convergence and
/// post-fault miss checks.
pub const MISS_WINDOW: u64 = 150;

/// Maximum OPP-index step per epoch for conservative governors.
const MAX_OPP_STEP: usize = 1;

/// The ε floor the decay schedule must respect and reach (the paper's).
const EPSILON_FLOOR: f64 = 0.01;

/// The settings of the [standard property pack](standard_pack) that
/// runs vary. The rest are constants: the [`THERMAL_CAP_C`] cap, the
/// [`MISS_WINDOW`]-epoch miss window, one OPP step per epoch for
/// `conservative` and the paper's ε floor of 0.01.
///
/// [`PackConfig::paper`] encodes the claims of Biswas et al. (DATE 2017)
/// at bounds the recorded experiment sweeps satisfy with margin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PackConfig {
    /// Maximum post-convergence miss rate per window.
    pub miss_bound: f64,
    /// Whether to require ε to actually *reach* the floor (needs runs
    /// longer than the decay horizon, ≈ 92 epochs at the paper's rate;
    /// disable for short smokes, where the check would fail spuriously).
    pub require_epsilon_floor: bool,
}

impl PackConfig {
    /// The paper-claims configuration: post-convergence misses under
    /// 35 % per window, and ε must reach its floor.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            miss_bound: 0.35,
            require_epsilon_floor: true,
        }
    }

    /// [`PackConfig::paper`] without the ε-reaches-floor obligation —
    /// for runs shorter than the ε decay horizon.
    #[must_use]
    pub fn short_run() -> Self {
        Self {
            require_epsilon_floor: false,
            ..Self::paper()
        }
    }
}

/// `always (temperature ≤ THERMAL_CAP_C)` — the thermal envelope is
/// never exceeded.
#[must_use]
pub(crate) fn thermal_cap() -> Property<MonitorSample> {
    Property::always(|s: &MonitorSample| s.temperature_c <= THERMAL_CAP_C)
}

/// `always (|Δopp| ≤ MAX_OPP_STEP)` between consecutive epochs — the
/// conservative-governor claim that frequency only ramps stepwise.
#[must_use]
pub(crate) fn opp_step_bound() -> Property<MonitorSample> {
    let mut prev: Option<usize> = None;
    Property::always(move |s: &MonitorSample| {
        let ok = prev.is_none_or(|p| s.opp.abs_diff(p) <= MAX_OPP_STEP);
        prev = Some(s.opp);
        ok
    })
}

/// `after(converged, always (window miss rate ≤ bound))` — once the
/// governor reports convergence, every completed tumbling window of
/// `window` epochs stays at or under `bound` misses. Vacuous if
/// convergence never occurs (heuristic governors, short runs).
#[must_use]
pub(crate) fn converged_miss_rate(window: u64, bound: f64) -> Property<MonitorSample> {
    Property::after(
        |s: &MonitorSample| s.converged,
        windowed_miss_bound(window, bound),
    )
}

/// `always (window miss rate ≤ bound)`: every completed tumbling window
/// of `window` epochs (at least 1) has at most `bound · window` missed
/// deadlines. A trailing partial window is not judged.
fn windowed_miss_bound(window: u64, bound: f64) -> Property<MonitorSample> {
    let window = window.max(1);
    let mut seen = 0u64;
    let mut misses = 0u64;
    Property::always(move |s: &MonitorSample| {
        if !s.met_deadline {
            misses += 1;
        }
        seen += 1;
        if seen == window {
            let ok = misses as f64 <= bound * window as f64;
            seen = 0;
            misses = 0;
            ok
        } else {
            true
        }
    })
}

/// `after(ε known, always (ε non-increasing ∧ ε ≥ EPSILON_FLOOR))` —
/// the decay schedule never rises and never undershoots its floor.
/// Vacuous for governors that expose no ε.
#[must_use]
pub(crate) fn epsilon_monotone() -> Property<MonitorSample> {
    let mut prev = f64::INFINITY;
    Property::after(
        |s: &MonitorSample| s.epsilon.is_finite(),
        Property::always(move |s: &MonitorSample| {
            let ok = s.epsilon <= prev + 1e-12 && s.epsilon >= EPSILON_FLOOR - 1e-12;
            prev = s.epsilon;
            ok
        }),
    )
}

/// `after(ε known, eventually (ε ≤ EPSILON_FLOOR))` — the decay
/// actually reaches its floor. Vacuous for governors that expose no ε;
/// violated on runs shorter than the decay horizon.
#[must_use]
pub(crate) fn epsilon_reaches_floor() -> Property<MonitorSample> {
    Property::after(
        |s: &MonitorSample| s.epsilon.is_finite(),
        Property::eventually(|s: &MonitorSample| s.epsilon <= EPSILON_FLOOR + 1e-9),
    )
}

/// `after(epoch ≥ fault + grace, always (window miss rate ≤ bound))` —
/// after a fault lands at `fault_epoch` and a `grace` period passes for
/// the governor to adapt, every completed tumbling window of `window`
/// epochs keeps its miss rate at or under `bound`. This is the
/// self-healing claim for a faulted run: whatever the fault did to the
/// deadline stream, the governor pulled it back inside the bound within
/// the grace period and kept it there. Vacuous if the stream ends
/// before the grace period does.
#[must_use]
pub(crate) fn recovers_within(
    fault_epoch: u64,
    grace: u64,
    window: u64,
    bound: f64,
) -> Property<MonitorSample> {
    let threshold = fault_epoch.saturating_add(grace);
    Property::after(
        move |s: &MonitorSample| s.epoch >= threshold,
        windowed_miss_bound(window, bound),
    )
}

/// The recovery property pack for a faulted run: the thermal cap must
/// hold on the *truth-side* temperature stream throughout (sensor
/// faults are no excuse for cooking the die), the windowed miss rate
/// must return under the configured bound within `grace` epochs of the
/// fault at `fault_epoch`, and ε decay must stay monotone (a hardened
/// governor freezing ε during quarantine satisfies this; a governor
/// whose ε jumps around does not).
#[must_use]
pub fn recovery_pack(fault_epoch: u64, grace: u64, cfg: &PackConfig) -> PropertySet<MonitorSample> {
    PropertySet::new()
        .with("thermal-cap-under-faults", thermal_cap())
        .with(
            "post-drop-miss-recovery",
            recovers_within(fault_epoch, grace, MISS_WINDOW, cfg.miss_bound),
        )
        .with("epsilon-monotone", epsilon_monotone())
}

/// The standard property pack for one experiment cell, keyed by the
/// governor label. ε/convergence properties self-gate (vacuous for
/// governors that expose neither), so the pack is safe to attach to
/// every cell; the one-OPP-step property is only attached to
/// `conservative`, the only governor that claims it.
#[must_use]
pub fn standard_pack(governor: &str, cfg: &PackConfig) -> PropertySet<MonitorSample> {
    let mut set = PropertySet::new()
        .with("thermal-cap", thermal_cap())
        .with(
            "post-convergence-miss",
            converged_miss_rate(MISS_WINDOW, cfg.miss_bound),
        )
        .with("epsilon-monotone", epsilon_monotone());
    if cfg.require_epsilon_floor {
        set.push("epsilon-reaches-floor", epsilon_reaches_floor());
    }
    if governor == "conservative" {
        set.push("opp-step-bound", opp_step_bound());
    }
    set
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(epoch: u64) -> MonitorSample {
        MonitorSample {
            epoch,
            frame_time_ratio: 0.8,
            met_deadline: true,
            opp: 5,
            temperature_c: 60.0,
            energy_j: 0.1,
            epsilon: f64::NAN,
            converged: false,
        }
    }

    #[test]
    fn empty_stream_is_vacuous_for_every_combinator() {
        let props = [
            Property::always(|_: &u64| true),
            Property::eventually(|_: &u64| true),
            Property::after(|_: &u64| true, Property::always(|_: &u64| true)),
        ];
        for p in &props {
            assert_eq!(p.verdict(), Verdict::Vacuous);
        }
    }

    #[test]
    fn always_violates_at_first_failure_and_stays_violated() {
        let mut p = Property::always(|x: &u64| *x < 3);
        for (i, x) in [1u64, 2, 5, 1, 9].iter().enumerate() {
            p.observe(i as u64, x);
        }
        assert_eq!(p.verdict(), Verdict::Violated { epoch: 2 });
    }

    #[test]
    fn always_violation_on_the_final_epoch_is_reported() {
        let mut p = Property::always(|x: &u64| *x < 3);
        for (i, x) in [1u64, 2, 7].iter().enumerate() {
            p.observe(i as u64, x);
        }
        assert_eq!(p.verdict(), Verdict::Violated { epoch: 2 });
    }

    #[test]
    fn eventually_is_violated_at_stream_end_until_its_witness() {
        let mut p = Property::eventually(|x: &u64| *x == 4);
        p.observe(0, &1);
        assert_eq!(p.verdict(), Verdict::Violated { epoch: 0 });
        p.observe(1, &4);
        assert_eq!(p.verdict(), Verdict::Holds);
        // The verdict is sticky once the witness arrived.
        p.observe(2, &0);
        assert_eq!(p.verdict(), Verdict::Holds);
    }

    #[test]
    fn after_is_vacuous_when_the_trigger_never_fires() {
        let mut p = Property::after(|x: &u64| *x == 100, Property::always(|_: &u64| false));
        for (i, x) in [1u64, 2, 3].iter().enumerate() {
            p.observe(i as u64, x);
        }
        assert_eq!(p.verdict(), Verdict::Vacuous);
    }

    #[test]
    fn after_evaluates_the_suffix_from_the_trigger_inclusive() {
        // Inner `always x < 10` must see the triggering sample itself.
        let mut p = Property::after(|x: &u64| *x >= 10, Property::always(|x: &u64| *x < 10));
        for (i, x) in [1u64, 2, 12, 3].iter().enumerate() {
            p.observe(i as u64, x);
        }
        assert_eq!(p.verdict(), Verdict::Violated { epoch: 2 });
    }

    #[test]
    fn after_keeps_absolute_epochs_in_inner_verdicts() {
        let mut p = Property::after(|x: &u64| *x == 5, Property::always(|x: &u64| *x != 7));
        for (i, x) in [1u64, 5, 6, 7].iter().enumerate() {
            p.observe(i as u64, x);
        }
        assert_eq!(p.verdict(), Verdict::Violated { epoch: 3 });
    }

    #[test]
    fn length_one_streams_decide_each_combinator() {
        let mut a = Property::always(|x: &u64| *x == 1);
        a.observe(0, &1);
        assert_eq!(a.verdict(), Verdict::Holds);

        let mut e = Property::eventually(|x: &u64| *x == 2);
        e.observe(0, &1);
        assert_eq!(e.verdict(), Verdict::Violated { epoch: 0 });
    }

    #[test]
    fn predicates_are_not_called_after_the_verdict_is_decided() {
        // An `always` whose predicate would panic on a third call: the
        // violation on the second sample must short-circuit it.
        let mut calls = 0u32;
        let mut p = Property::always(move |_: &u64| {
            calls += 1;
            assert!(calls <= 2, "predicate called after violation");
            calls < 2
        });
        for i in 0..10u64 {
            p.observe(i, &i);
        }
        assert_eq!(p.verdict(), Verdict::Violated { epoch: 1 });
    }

    #[test]
    fn property_set_numbers_the_stream_and_reports_in_order() {
        let mut set = PropertySet::new()
            .with("ok", Property::always(|x: &u64| *x < 100))
            .with("bad", Property::always(|x: &u64| *x != 2));
        for x in 0..5u64 {
            set.observe(&x);
        }
        let report = set.report();
        assert_eq!(report.epochs(), 5);
        assert_eq!(report.verdicts()[0].verdict, Verdict::Holds);
        assert_eq!(report.verdicts()[1].verdict, Verdict::Violated { epoch: 2 });
        assert_eq!(report.violation_count(), 1);
        assert!(!report.is_clean());
        assert!(report.render().render().contains("VIOLATED @ epoch 2"));
        assert!(report.summary().contains("bad @ 2"));
    }

    #[test]
    fn standard_pack_is_vacuous_clean_on_a_heuristic_stream() {
        // No ε, no convergence: only the thermal cap is obliged.
        let mut set = standard_pack("ondemand", &PackConfig::paper());
        for epoch in 0..300 {
            set.observe(&sample(epoch));
        }
        let report = set.report();
        assert!(report.is_clean(), "{}", report.summary());
        assert_eq!(report.verdicts()[0].verdict, Verdict::Holds);
        assert_eq!(report.verdicts()[1].verdict, Verdict::Vacuous);
        assert_eq!(report.verdicts()[2].verdict, Verdict::Vacuous);
        assert_eq!(report.verdicts()[3].verdict, Verdict::Vacuous);
    }

    #[test]
    fn standard_pack_attaches_the_opp_step_property_to_conservative_only() {
        let conservative = standard_pack("conservative", &PackConfig::paper());
        let rtm = standard_pack("rtm", &PackConfig::paper());
        assert_eq!(conservative.len(), rtm.len() + 1);
    }

    #[test]
    fn thermal_cap_flags_the_first_hot_frame() {
        let mut set = PropertySet::new().with("thermal-cap", thermal_cap());
        for epoch in 0..5 {
            let mut s = sample(epoch);
            if epoch == 3 {
                s.temperature_c = 95.0;
            }
            set.observe(&s);
        }
        assert_eq!(
            set.report().verdicts()[0].verdict,
            Verdict::Violated { epoch: 3 }
        );
    }

    #[test]
    fn opp_step_bound_tracks_consecutive_deltas() {
        let mut ok = opp_step_bound();
        let mut bad = opp_step_bound();
        for (epoch, opp) in [5usize, 6, 6, 5].iter().enumerate() {
            let mut s = sample(epoch as u64);
            s.opp = *opp;
            ok.observe(epoch as u64, &s);
        }
        assert_eq!(ok.verdict(), Verdict::Holds);
        for (epoch, opp) in [5usize, 6, 8].iter().enumerate() {
            let mut s = sample(epoch as u64);
            s.opp = *opp;
            bad.observe(epoch as u64, &s);
        }
        assert_eq!(bad.verdict(), Verdict::Violated { epoch: 2 });
    }

    #[test]
    fn converged_miss_rate_checks_completed_tumbling_windows() {
        // Window of 4, bound 0.25: one miss per window is fine, two is a
        // violation flagged at the window's closing epoch.
        let run = |misses_at: &[u64]| {
            let mut p = converged_miss_rate(4, 0.25);
            for epoch in 0..8u64 {
                let mut s = sample(epoch);
                s.converged = true;
                s.met_deadline = !misses_at.contains(&epoch);
                p.observe(epoch, &s);
            }
            p.verdict()
        };
        assert_eq!(run(&[1, 5]), Verdict::Holds);
        assert_eq!(run(&[1, 2]), Verdict::Violated { epoch: 3 });
        assert_eq!(run(&[5, 6]), Verdict::Violated { epoch: 7 });
    }

    #[test]
    fn converged_miss_rate_ignores_preconvergence_misses() {
        let mut p = converged_miss_rate(4, 0.0);
        for epoch in 0..12u64 {
            let mut s = sample(epoch);
            s.converged = epoch >= 8;
            s.met_deadline = epoch >= 4; // misses only before convergence
            p.observe(epoch, &s);
        }
        assert_eq!(p.verdict(), Verdict::Holds);
    }

    #[test]
    fn epsilon_properties_self_gate_on_nan() {
        let mut mono = epsilon_monotone();
        let mut floor = epsilon_reaches_floor();
        for epoch in 0..50 {
            let s = sample(epoch); // ε stays NaN
            mono.observe(epoch, &s);
            floor.observe(epoch, &s);
        }
        assert_eq!(mono.verdict(), Verdict::Vacuous);
        assert_eq!(floor.verdict(), Verdict::Vacuous);
    }

    #[test]
    fn epsilon_monotone_accepts_decay_and_rejects_a_rise() {
        let feed = |values: &[f64]| {
            let mut p = epsilon_monotone();
            for (epoch, eps) in values.iter().enumerate() {
                let mut s = sample(epoch as u64);
                s.epsilon = *eps;
                p.observe(epoch as u64, &s);
            }
            p.verdict()
        };
        assert_eq!(feed(&[1.0, 0.8, 0.8, 0.01]), Verdict::Holds);
        assert_eq!(feed(&[1.0, 0.8, 0.9]), Verdict::Violated { epoch: 2 });
        assert_eq!(feed(&[1.0, 0.005]), Verdict::Violated { epoch: 1 });
    }

    #[test]
    fn epsilon_reaches_floor_requires_the_decay_to_finish() {
        let feed = |values: &[f64]| {
            let mut p = epsilon_reaches_floor();
            for (epoch, eps) in values.iter().enumerate() {
                let mut s = sample(epoch as u64);
                s.epsilon = *eps;
                p.observe(epoch as u64, &s);
            }
            p.verdict()
        };
        assert_eq!(feed(&[1.0, 0.5, 0.01]), Verdict::Holds);
        assert_eq!(feed(&[1.0, 0.5]), Verdict::Violated { epoch: 1 });
    }

    #[test]
    fn recovers_within_gates_on_fault_plus_grace() {
        // Fault at 10, grace 10, window 5, bound 0.2 (≤ 1 miss per 5).
        let feed = |miss_epochs: &[u64], total: u64| {
            let mut p = recovers_within(10, 10, 5, 0.2);
            for epoch in 0..total {
                let mut s = sample(epoch);
                s.met_deadline = !miss_epochs.contains(&epoch);
                p.observe(epoch, &s);
            }
            p.verdict()
        };
        // Misses entirely inside the grace period are forgiven.
        assert_eq!(feed(&[10, 11, 12, 13, 14], 40), Verdict::Holds);
        // Misses persisting past the grace period violate in the first
        // completed window after it (epochs 20..=24 here).
        assert_eq!(feed(&[20, 21, 22], 40), Verdict::Violated { epoch: 24 });
        // Stream too short to outlive the grace period: vacuous.
        assert_eq!(feed(&[], 15), Verdict::Vacuous);
    }

    #[test]
    fn recovery_pack_composes_the_faulted_run_obligations() {
        let cfg = PackConfig::paper();
        let set = recovery_pack(100, 50, &cfg);
        assert_eq!(set.len(), 3);
        let report = set.report();
        let names: Vec<&str> = report.verdicts().iter().map(|v| v.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "thermal-cap-under-faults",
                "post-drop-miss-recovery",
                "epsilon-monotone"
            ]
        );
    }
}
