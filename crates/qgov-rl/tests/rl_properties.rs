//! Property-based tests on the learning primitives: invariants that must
//! hold for arbitrary parameters and input streams.

use proptest::prelude::*;
use qgov_rl::{
    sample_weighted, slack_reward, ActionSpace, AgentConfig, DecayingEpsilon, EwmaPredictor,
    ExplorationKind, QLearningAgent, QTable, UniformDiscretizer,
};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// The naive two-pass reference the fused `row_best` kernel replaced:
/// an independent greedy argmax scan (strict `>`, ties to the lowest
/// index) plus an independent max fold.
fn naive_two_pass(row: &[f64]) -> (usize, f64) {
    let mut best = 0;
    for (a, &v) in row.iter().enumerate().skip(1) {
        if v > row[best] {
            best = a;
        }
    }
    let max = row.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (best, max)
}

proptest! {
    /// The fused single-scan `row_best` kernel agrees with the naive
    /// two-pass reference on arbitrary finite rows — argmax and max
    /// bit-for-bit, ties still breaking towards the lowest action.
    #[test]
    fn row_best_matches_naive_two_pass_reference(
        row in proptest::collection::vec(-1e12f64..1e12, 1..40),
    ) {
        let mut q = QTable::new(1, row.len()).unwrap();
        for (a, &v) in row.iter().enumerate() {
            // Terminal-style write: alpha = 1, discount = 0 sets the
            // cell to exactly `v`.
            q.update(0, a, v, 0, 1.0, 0.0);
        }
        let (action, value) = q.row_best(0);
        let (ref_action, ref_value) = naive_two_pass(q.row(0));
        prop_assert_eq!(action, ref_action);
        prop_assert_eq!(value.to_bits(), ref_value.to_bits());
        prop_assert_eq!(action, q.greedy_action(0));
        prop_assert_eq!(value.to_bits(), q.max_value(0).to_bits());
    }

    /// Duplicated maxima anywhere in the row: the fused kernel must
    /// return the first (lowest-index) occurrence.
    #[test]
    fn row_best_ties_break_low_for_any_duplicate_position(
        len in 2usize..20,
        positions in proptest::collection::vec(0usize..20, 2..5),
        value in -1e6f64..1e6,
    ) {
        let mut q = QTable::with_action_bias(1, len, &vec![value - 1.0; len]).unwrap();
        let mut firsts: Vec<usize> = positions.iter().map(|p| p % len).collect();
        firsts.sort_unstable();
        for &p in &firsts {
            q.update(0, p, value, 0, 1.0, 0.0);
        }
        prop_assert_eq!(q.row_best(0).0, firsts[0]);
    }

    /// The cached argmax equals a full scan of every row after every
    /// write. Rewards drawn from a small set holding 0.0, −0.0 and
    /// repeated values force ties; `Q ← r` writes (α = 1, γ = 0) lower,
    /// raise and equal the argmax's own value at will, and the paper's
    /// α and γ write through the checked update.
    #[test]
    fn cached_argmax_matches_a_full_scan_after_every_write(
        shape in (1usize..4, 1usize..6),
        bias in proptest::collection::vec(0usize..6, 6),
        writes in proptest::collection::vec(
            (0usize..4, 0usize..6, 0usize..6, 0usize..4, 0u8..3), 1..120),
    ) {
        const REWARDS: [f64; 6] = [0.0, -0.0, 1.0, -1.0, 0.5, 0.0];
        let (states, actions) = shape;
        let bias: Vec<f64> = bias[..actions].iter().map(|&r| REWARDS[r]).collect();
        let mut q = QTable::with_action_bias(states, actions, &bias).unwrap();
        for (s, a, r, next, rule) in writes {
            let (s, a, next, reward) = (s % states, a % actions, next % states, REWARDS[r]);
            if rule == 0 {
                q.update(s, a, reward, next, AgentConfig::ALPHA, AgentConfig::DISCOUNT);
            } else {
                q.update_unchecked(s, a, reward, 0.0, 1.0, 0.0);
            }
            for state in 0..states {
                let row = q.row(state);
                let best = naive_two_pass(row).0;
                let (action, value) = q.row_best(state);
                prop_assert_eq!((action, value.to_bits()), (best, row[best].to_bits()));
            }
        }
    }

    /// EWMA predictions always stay inside the convex hull of the
    /// observations (it is a convex combination).
    #[test]
    fn ewma_stays_in_observation_hull(
        gamma in 0.01f64..=1.0,
        obs in proptest::collection::vec(-1e9f64..1e9, 1..100),
    ) {
        let mut p = EwmaPredictor::new(gamma).unwrap();
        let lo = obs.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = obs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        for &o in &obs {
            p.observe(o);
            let pred = p.predict();
            prop_assert!(pred >= lo - 1e-6 && pred <= hi + 1e-6,
                "prediction {pred} escaped hull [{lo}, {hi}]");
        }
    }

    /// EWMA error on a constant signal decays geometrically.
    #[test]
    fn ewma_error_decays_on_constant_signal(
        gamma in 0.05f64..=0.95,
        start in -1e6f64..1e6,
        target in -1e6f64..1e6,
    ) {
        let mut p = EwmaPredictor::new(gamma).unwrap();
        p.observe(start);
        let mut prev_err = (p.predict() - target).abs();
        for _ in 0..50 {
            p.observe(target);
            let err = (p.predict() - target).abs();
            prop_assert!(err <= prev_err + 1e-9, "error must not grow: {err} > {prev_err}");
            prev_err = err;
        }
    }

    /// Q-values stay bounded by reward_max / (1 - discount) for bounded
    /// rewards (contraction property of the Bellman operator).
    #[test]
    fn q_values_stay_bounded(
        alpha in 0.01f64..=1.0,
        discount in 0.0f64..=0.9,
        steps in proptest::collection::vec(
            (0usize..4, 0usize..3, -1.0f64..=1.0, 0usize..4), 1..300),
    ) {
        let mut q = QTable::new(4, 3).unwrap();
        let bound = 1.0 / (1.0 - discount) + 1e-9;
        for (s, a, r, ns) in steps {
            q.update(s, a, r, ns, alpha, discount);
            for state in 0..4 {
                for action in 0..3 {
                    let v = q.value(state, action);
                    prop_assert!(v.abs() <= bound,
                        "|Q| = {v} exceeded bound {bound}");
                }
            }
        }
    }

    /// The greedy action always attains the row maximum.
    #[test]
    fn greedy_attains_max(
        steps in proptest::collection::vec(
            (0usize..3, 0usize..4, -5.0f64..5.0, 0usize..3), 1..200),
    ) {
        let mut q = QTable::new(3, 4).unwrap();
        for (s, a, r, ns) in steps {
            q.update(s, a, r, ns, 0.5, 0.5);
        }
        for s in 0..3 {
            let g = q.greedy_action(s);
            prop_assert_eq!(q.value(s, g), q.max_value(s));
        }
    }

    /// Uniform discretiser: levels are monotone in the input and cover
    /// the full range.
    #[test]
    fn uniform_discretizer_monotone(
        min in -1e6f64..0.0,
        width in 1.0f64..1e6,
        levels in 1usize..20,
        probes in proptest::collection::vec(-2e6f64..2e6, 2..50),
    ) {
        let d = UniformDiscretizer::new(min, min + width, levels).unwrap();
        let mut sorted = probes.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut prev = 0usize;
        for (i, &v) in sorted.iter().enumerate() {
            let l = d.level_of(v);
            prop_assert!(l < levels);
            if i > 0 {
                prop_assert!(l >= prev, "levels must be monotone");
            }
            prev = l;
        }
    }

    /// sample_weighted never returns an index with zero weight (when a
    /// positive-weight index exists).
    #[test]
    fn zero_weight_never_sampled(
        weights in proptest::collection::vec(0.0f64..10.0, 1..20),
        seed in 0u64..1000,
    ) {
        prop_assume!(weights.iter().any(|&w| w > 0.0));
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..50 {
            let i = sample_weighted(&weights, &mut rng);
            prop_assert!(weights[i] > 0.0, "picked zero-weight index {i}");
        }
    }

    /// The exploration rule, pinned draw for draw: for 1–19 ascending
    /// actions, any slack in the clamped range `[-1, 1]` the agent
    /// passes and any seed, EPD selection equals `sample_weighted` over
    /// the materialised Eq. 2 weights, and UPD selection equals
    /// `next_u64() % n`, each on the same RNG stream.
    #[test]
    fn policies_return_legal_actions(
        n in 1usize..20,
        steps in proptest::collection::vec(0.01f64..0.3, 19),
        slack in -1.0f64..=1.0,
        seed in 0u64..u64::MAX,
    ) {
        let mut freqs = Vec::with_capacity(n);
        let mut f = 0.0;
        for step in &steps[..n] {
            f += step;
            freqs.push(f);
        }
        let epd = ExplorationKind::Epd { lambda: 1.0 / 19.0, beta: 2.0 };
        let weights = epd.weights(&freqs, slack);
        let (mut rng, mut reference) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
        for _ in 0..50 {
            let action = epd.select(&freqs, slack, &mut rng);
            prop_assert_eq!(action, sample_weighted(&weights, &mut reference), "slack {}", slack);
        }
        for _ in 0..50 {
            let action = ExplorationKind::Upd.select(&freqs, slack, &mut rng);
            prop_assert_eq!(action, (reference.next_u64() % n as u64) as usize);
        }
    }

    /// The slack reward is maximised at zero slack.
    #[test]
    fn slack_reward_peaks_at_zero(l in -1.0f64..1.0) {
        // Compare steady states (prev == current) so the delta term is zero.
        prop_assert!(slack_reward(l, l) <= slack_reward(0.0, 0.0) + 1e-12);
    }

    /// The agent's epoch reuses row scans across the update and the
    /// selection. Mirrored step by step into a reference table through
    /// the checked `QTable::update`, over long runs of one state and
    /// alternations, its table stays equal bit for bit; at ε = 0 it
    /// picks the mirror's greedy action.
    #[test]
    fn agent_epochs_match_a_checked_update_mirror(
        segments in proptest::collection::vec((0usize..6, 0usize..6, 1usize..40, 0u8..2), 1..12),
        rewards in proptest::collection::vec(-5.0f64..5.0, 1..64),
        slacks in proptest::collection::vec(-1.0f64..1.0, 1..64),
        greedy_only in 0u8..2,
        seed in 0u64..1_000,
    ) {
        const STATES: usize = 6;
        let epsilon = if greedy_only == 1 {
            DecayingEpsilon::new(0.0, 1.0, 0.0).unwrap()
        } else {
            DecayingEpsilon::paper()
        };
        let config = AgentConfig {
            epsilon,
            ..AgentConfig::default()
        };
        let actions = ActionSpace::from_freqs_ghz(&[0.2, 0.5, 0.9, 1.4, 2.0]);
        let mut agent = QLearningAgent::new(config, STATES, actions, seed);
        let mut mirror = agent.q_table().clone();
        let states = segments.iter().flat_map(|&(a, b, len, alternate)| {
            (0..len).map(move |i| if alternate == 1 && i % 2 == 1 { b } else { a })
        });
        let mut last: Option<(usize, usize)> = None;
        for (i, state) in states.enumerate() {
            let reward = rewards[i % rewards.len()];
            let slack = slacks[i % slacks.len()];
            let action = agent.begin_epoch(state, reward, slack);
            if let Some((prev_state, prev_action)) = last {
                mirror.update(
                    prev_state,
                    prev_action,
                    reward,
                    state,
                    AgentConfig::ALPHA,
                    AgentConfig::DISCOUNT,
                );
            }
            for s in 0..STATES {
                let (got, want) = (agent.q_table().row(s), mirror.row(s));
                prop_assert!(
                    got.iter().zip(want).all(|(g, w)| g.to_bits() == w.to_bits()),
                    "epoch {i}, row {s}: {got:?} vs {want:?}"
                );
            }
            if greedy_only == 1 {
                prop_assert_eq!(action, mirror.row_best(state).0, "epoch {}", i);
            }
            last = Some((state, action));
        }
    }
}
