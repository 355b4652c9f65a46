//! The streaming-vs-offline oracle for the temporal monitors: the
//! O(1)-state streaming verdict must be **bit-identical** to a
//! brute-force offline evaluation over the materialised sample
//! sequence, for random property trees and random traces — including
//! the empty and length-1 streams.
//!
//! The vendored proptest has no `prop_oneof`/recursive strategies, so
//! property trees are built deterministically from random integer /
//! float node vectors: the first node picks the base combinator
//! (always / eventually), every further node wraps the tree in an
//! `after` layer.

use proptest::prelude::*;
use qgov_metrics::{Property, Verdict};

/// A threshold predicate over an `f64` sample: `v >= t` or `v < t`.
#[derive(Debug, Clone, Copy)]
struct Pred {
    threshold: f64,
    ge: bool,
}

impl Pred {
    fn eval(self, v: f64) -> bool {
        if self.ge {
            v >= self.threshold
        } else {
            v < self.threshold
        }
    }

    fn closure(self) -> impl FnMut(&f64) -> bool + Send + 'static {
        move |v: &f64| self.eval(*v)
    }
}

/// A materialised property tree, mirroring the streaming combinators.
#[derive(Debug, Clone)]
enum Spec {
    Always(Pred),
    Eventually(Pred),
    After { trigger: Pred, inner: Box<Spec> },
}

/// One raw tree node drawn by proptest: (combinator tag, threshold,
/// predicate-direction bits).
type Node = (u8, f64, u8);

/// Deterministically folds raw nodes into a property tree: `nodes[0]`
/// picks the base combinator, each further node adds an `after` layer.
fn build_spec(nodes: &[Node]) -> Spec {
    let (tag, t, bits) = nodes[0];
    let pred = |t: f64, bit: u8| Pred {
        threshold: t,
        ge: bit & 1 == 0,
    };
    let mut spec = match tag % 2 {
        0 => Spec::Always(pred(t, bits)),
        _ => Spec::Eventually(pred(t, bits)),
    };
    for &(_, t, bits) in &nodes[1..] {
        spec = Spec::After {
            trigger: pred(t, bits),
            inner: Box::new(spec),
        };
    }
    spec
}

/// Builds the streaming property mirroring `spec`.
fn build_property(spec: &Spec) -> Property<f64> {
    match spec {
        Spec::Always(p) => Property::always(p.closure()),
        Spec::Eventually(p) => Property::eventually(p.closure()),
        Spec::After { trigger, inner } => Property::after(trigger.closure(), build_property(inner)),
    }
}

/// Brute-force offline evaluation of `spec` over `trace`, whose first
/// sample carries absolute epoch `start` (nested `after` layers keep
/// absolute epoch numbers, exactly like the streaming monitor).
fn eval_offline(spec: &Spec, trace: &[f64], start: u64) -> Verdict {
    if trace.is_empty() {
        return Verdict::Vacuous;
    }
    let last = start + trace.len() as u64 - 1;
    match spec {
        Spec::Always(p) => match trace.iter().position(|v| !p.eval(*v)) {
            Some(i) => Verdict::Violated {
                epoch: start + i as u64,
            },
            None => Verdict::Holds,
        },
        Spec::Eventually(p) => {
            if trace.iter().any(|v| p.eval(*v)) {
                Verdict::Holds
            } else {
                Verdict::Violated { epoch: last }
            }
        }
        Spec::After { trigger, inner } => match trace.iter().position(|v| trigger.eval(*v)) {
            Some(i) => eval_offline(inner, &trace[i..], start + i as u64),
            None => Verdict::Vacuous,
        },
    }
}

/// Streams `trace` through the property and returns the final verdict.
fn eval_streaming(spec: &Spec, trace: &[f64]) -> Verdict {
    let mut prop = build_property(spec);
    for (epoch, v) in trace.iter().enumerate() {
        prop.observe(epoch as u64, v);
    }
    prop.verdict()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn streaming_verdict_matches_offline_evaluation(
        nodes in proptest::collection::vec((0u8..6, -1.0f64..1.0, 0u8..4), 1..5),
        trace in proptest::collection::vec(-1.2f64..1.2, 0..32),
    ) {
        let spec = build_spec(&nodes);
        let offline = eval_offline(&spec, &trace, 0);
        let streaming = eval_streaming(&spec, &trace);
        prop_assert_eq!(
            streaming, offline,
            "spec {:?} trace {:?}", spec, trace
        );
    }

    #[test]
    fn verdict_is_stable_once_the_stream_ends(
        nodes in proptest::collection::vec((0u8..6, -1.0f64..1.0, 0u8..4), 1..4),
        trace in proptest::collection::vec(-1.2f64..1.2, 0..16),
    ) {
        // verdict() is read-only: calling it repeatedly — and between
        // observations — never changes the final answer.
        let spec = build_spec(&nodes);
        let mut prop = build_property(&spec);
        for (epoch, v) in trace.iter().enumerate() {
            let _ = prop.verdict();
            prop.observe(epoch as u64, v);
        }
        prop_assert_eq!(prop.verdict(), prop.verdict());
        prop_assert_eq!(prop.verdict(), eval_offline(&spec, &trace, 0));
    }
}

#[test]
fn empty_stream_is_vacuous_for_every_combinator() {
    for tag in 0u8..2 {
        let spec = build_spec(&[(tag, 0.0, 0)]);
        assert_eq!(eval_streaming(&spec, &[]), Verdict::Vacuous, "{spec:?}");
        assert_eq!(eval_offline(&spec, &[], 0), Verdict::Vacuous);
    }
    // A never-fired `after` wrapper is vacuous even over a non-empty
    // stream.
    let spec = Spec::After {
        trigger: Pred {
            threshold: 10.0,
            ge: true,
        },
        inner: Box::new(Spec::Always(Pred {
            threshold: 0.0,
            ge: true,
        })),
    };
    assert_eq!(eval_streaming(&spec, &[0.5, 0.5]), Verdict::Vacuous);
}

#[test]
fn length_one_streams_agree_on_every_combinator() {
    for tag in 0u8..2 {
        for bits in 0u8..4 {
            for v in [-1.0, -0.5, 0.0, 0.5, 1.0] {
                let spec = build_spec(&[(tag, 0.0, bits)]);
                assert_eq!(
                    eval_streaming(&spec, &[v]),
                    eval_offline(&spec, &[v], 0),
                    "{spec:?} over [{v}]"
                );
            }
        }
    }
}
