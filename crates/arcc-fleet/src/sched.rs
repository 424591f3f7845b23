//! Event scheduling for the shard engine: one calendar queue.
//!
//! The determinism contract of the whole crate rests on a single total
//! order: events fire in ascending `(time_h, seq)` — `seq` is the
//! monotone schedule-order tie-breaker — and [`BucketQueue`] pops in
//! exactly that order. A plain binary heap defines that order most
//! simply, so it is kept as a test-only oracle inside the queue: under
//! `#[cfg(test)]` every push is mirrored into the heap and every pop
//! asserts that both return the same `(time_h, seq)`. Every engine run
//! in this crate's unit tests — synthetic and replay, every policy,
//! checkpoint/resume — is therefore a per-pop A/B against the heap;
//! release builds carry no heap at all.
//!
//! [`BucketQueue`] is a calendar queue keyed on scrub epochs: pushes are
//! O(1) appends into coarse time buckets (default width = the scrub
//! interval, so every scrub tick's detection batch lands at the head of
//! its own bucket), and a bucket is sorted only when the sweep reaches
//! it. Correctness does not depend on bucket boundaries being exact:
//! the bucket index is a *monotone* function of time (float truncation
//! of `t * inv_width` is monotone), so an event mis-rounded across a
//! boundary still sorts correctly — it is merged into the live drain
//! stack if its bucket has already been taken.

use std::cmp::Ordering;

/// What a queued event does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EventKind {
    /// A fault arrives (payload drawn at processing time).
    Fault,
    /// The scrub tick that detects the fault with this stable per-channel
    /// id. Ids (not indices) keep queued detections valid while the
    /// active-fault list compacts cleared transients away.
    Detection {
        /// Stable per-channel fault id (`ChannelState::next_fault_id`).
        fault_id: u32,
    },
    /// Policy-scheduled DIMM swap (resolved against the pool on pop).
    Replacement,
}

/// One scheduled event, ordered by `(time_h, seq)`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct QueuedEvent {
    /// Fire time in hours.
    pub time_h: f64,
    /// Monotone tie-breaker: equal-time events replay in schedule order.
    pub seq: u64,
    /// Index into the engine's (sparse) channel-state table.
    pub slot: u32,
    /// Generation the event was scheduled under; stale events are dropped.
    pub generation: u32,
    /// Payload.
    pub kind: EventKind,
}

impl QueuedEvent {
    /// Strict "fires later than" on the `(time_h, seq)` total order.
    #[inline]
    fn after(&self, other: &Self) -> bool {
        self.time_h > other.time_h || (self.time_h == other.time_h && self.seq > other.seq)
    }
}

impl PartialEq for QueuedEvent {
    fn eq(&self, other: &Self) -> bool {
        self.time_h == other.time_h && self.seq == other.seq
    }
}
impl Eq for QueuedEvent {}

impl Ord for QueuedEvent {
    fn cmp(&self, other: &Self) -> Ordering {
        // Inverted (Greater = fires earlier): the drain sort then yields
        // a descending stack, and the test oracle's max-heap pops the
        // earliest event first. Times are finite and non-negative by
        // construction.
        other
            .time_h
            .partial_cmp(&self.time_h)
            .expect("event times are finite")
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl PartialOrd for QueuedEvent {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Hard cap on calendar size, a backstop against pathological
/// scrub-interval/horizon ratios (the width is widened to compensate).
const MAX_BUCKETS: usize = 1 << 20;

/// Sentinel for "no event" in the per-bucket chain heads.
const EMPTY: u32 = u32::MAX;

/// A calendar queue: coarse time buckets swept in order, each sorted
/// lazily when the sweep reaches it. Buckets are intrusive chains
/// through one push-only arena — three flat allocations total, no
/// per-bucket `Vec`s (allocator traffic is what made a naive calendar no
/// faster than the heap).
///
/// Invariants:
/// * `stack` holds the still-pending events of every bucket below
///   `draining`, sorted descending on `(time_h, seq)` (next event last);
/// * `heads[b]` for `b >= draining` chains that bucket's future events
///   through `arena` in reverse push order;
/// * simulation time never runs backwards, so a push always lands at or
///   after the last popped event — into a bucket `>= draining`, or
///   merged into `stack` when its (monotone) bucket was already taken.
#[derive(Debug)]
pub(crate) struct BucketQueue {
    inv_width: f64,
    /// Head arena index of each bucket's chain (`EMPTY` = none).
    heads: Vec<u32>,
    /// Push-only event storage: `(event, next index in chain)`.
    arena: Vec<(QueuedEvent, u32)>,
    /// Next bucket index the sweep will take.
    draining: usize,
    /// Pending events of taken buckets, sorted descending (next pop last).
    stack: Vec<QueuedEvent>,
    len: usize,
    /// Test-only reference order: a binary heap fed every push; each pop
    /// must agree with it.
    #[cfg(test)]
    oracle: std::collections::BinaryHeap<QueuedEvent>,
}

impl BucketQueue {
    /// A calendar covering `[0, horizon_h)` in buckets of `width_h`
    /// hours. `events_hint` (an upper estimate of total pushes) widens
    /// sparse calendars: more than ~2 buckets per expected event buys no
    /// sorting locality and costs allocation plus empty-bucket sweeps.
    pub fn new(horizon_h: f64, width_h: f64, events_hint: usize) -> Self {
        assert!(horizon_h > 0.0, "horizon must be positive");
        assert!(width_h > 0.0, "bucket width must be positive");
        let natural = (horizon_h / width_h).ceil().max(1.0);
        let cap = (2 * events_hint.max(1)).clamp(64, MAX_BUCKETS) as f64;
        let (count, width) = if natural <= cap {
            (natural as usize, width_h)
        } else {
            (cap as usize, horizon_h / cap)
        };
        BucketQueue {
            inv_width: 1.0 / width,
            // One spare bucket so horizon-adjacent rounding stays in
            // range even before the `min` clamp.
            heads: vec![EMPTY; count + 1],
            arena: Vec::with_capacity(events_hint.min(1 << 16)),
            draining: 0,
            stack: Vec::new(),
            len: 0,
            #[cfg(test)]
            oracle: std::collections::BinaryHeap::new(),
        }
    }

    /// Monotone-in-time bucket index (truncation of `t * inv_width`,
    /// clamped to the calendar).
    #[inline]
    fn bucket_of(&self, time_h: f64) -> usize {
        ((time_h * self.inv_width) as usize).min(self.heads.len() - 1)
    }

    #[inline]
    pub fn push(&mut self, ev: QueuedEvent) {
        #[cfg(test)]
        self.oracle.push(ev);
        self.len += 1;
        let b = self.bucket_of(ev.time_h);
        if b < self.draining {
            // The event's bucket was already swept (same-bucket push from
            // the event being processed, or boundary rounding): merge it
            // into the live stack at its sorted position.
            let pos = self.stack.partition_point(|q| q.after(&ev));
            self.stack.insert(pos, ev);
        } else {
            let idx = self.arena.len() as u32;
            self.arena.push((ev, self.heads[b]));
            self.heads[b] = idx;
        }
    }

    /// Pending event count.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Removes the next event in `(time_h, seq)` order.
    #[inline]
    pub fn pop(&mut self) -> Option<QueuedEvent> {
        let ev = self.take_next();
        #[cfg(test)]
        {
            let key = |e: Option<QueuedEvent>| e.map(|e| (e.time_h.to_bits(), e.seq));
            assert_eq!(
                key(ev),
                key(self.oracle.pop()),
                "calendar queue diverged from the heap oracle"
            );
        }
        ev
    }

    #[inline]
    fn take_next(&mut self) -> Option<QueuedEvent> {
        if self.len == 0 {
            return None;
        }
        while self.stack.is_empty() {
            // `len > 0` guarantees a non-empty bucket ahead of the sweep.
            let mut idx = self.heads[self.draining];
            self.draining += 1;
            if idx != EMPTY {
                while idx != EMPTY {
                    let (ev, next) = self.arena[idx as usize];
                    self.stack.push(ev);
                    idx = next;
                }
                // `QueuedEvent::cmp` is inverted for the max-heap (Greater
                // = fires earlier), so plain ascending sort yields the
                // descending stack: next event to fire at the end.
                self.stack.sort_unstable();
            }
        }
        self.len -= 1;
        self.stack.pop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::ReplayArrivals;
    use crate::spec::{DimmPopulation, FleetSpec, OperatorPolicy};
    use crate::{run_fleet, run_replay, run_until, FleetCheckpoint};
    use arcc_faults::montecarlo::FaultSampler;
    use arcc_obs::NoopRecorder;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn ev(time_h: f64, seq: u64) -> QueuedEvent {
        QueuedEvent {
            time_h,
            seq,
            slot: 0,
            generation: 0,
            kind: EventKind::Fault,
        }
    }

    /// Drives a time-forward push/pop trace (pushes only at or after the
    /// last popped time, like the engine) through the queue; the heap
    /// oracle checks every pop, including the final `None`.
    fn ab_trace(width_h: f64, seed: u64) {
        let horizon = 100.0;
        let mut q = BucketQueue::new(horizon, width_h, 64);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut seq = 0u64;
        let mut push = |q: &mut BucketQueue, t: f64| {
            if t < horizon {
                q.push(ev(t, seq));
                seq += 1;
            }
        };
        for _ in 0..64 {
            let t = rng.gen_range(0.0..horizon);
            // Mix in exact bucket-boundary times (scrub-tick detections).
            let t = if rng.gen_bool(0.3) {
                (t / width_h).floor() * width_h
            } else {
                t
            };
            push(&mut q, t);
        }
        while let Some(e) = q.pop() {
            // Event-driven reschedules: zero-gap ties, same-tick
            // detections, and ordinary forward gaps.
            if e.seq % 3 == 0 {
                push(&mut q, e.time_h);
            }
            if e.seq % 5 == 0 {
                push(&mut q, (e.time_h / width_h).floor() * width_h + width_h);
            }
            if e.seq % 2 == 0 {
                push(&mut q, e.time_h + rng.gen_range(0.0..20.0));
            }
        }
    }

    #[test]
    fn bucket_pops_in_heap_order_across_widths() {
        // Dyadic, non-dyadic, tiny, and wider-than-horizon widths; the
        // non-dyadic ones exercise boundary rounding in bucket_of, 0.01
        // forces the sparse-calendar widening, and the last two put the
        // whole horizon in one bucket.
        let widths = [4.0, 3.0, 0.7, 17.3, 250.0, 0.01, 1000.0, 100_000.0];
        for (i, width) in widths.iter().enumerate() {
            for seed in 0..8u64 {
                ab_trace(*width, seed * 31 + i as u64);
            }
        }
    }

    #[test]
    #[should_panic(expected = "diverged from the heap oracle")]
    fn oracle_rejects_an_out_of_order_pop() {
        let mut q = BucketQueue::new(10.0, 1.0, 4);
        for (s, t) in [2.1, 2.2, 2.3].into_iter().enumerate() {
            q.push(ev(t, s as u64));
        }
        assert_eq!(q.pop().unwrap().seq, 0);
        // Corrupt the drained bucket's order: 2.3 now pops before 2.2.
        q.stack.swap(0, 1);
        q.pop();
    }

    #[test]
    fn empty_queue_pops_none() {
        let mut q = BucketQueue::new(10.0, 1.0, 4);
        assert!(q.pop().is_none());
        q.push(ev(5.0, 0));
        assert_eq!(q.pop().unwrap().seq, 0);
        assert!(q.pop().is_none());
    }

    #[test]
    fn calendar_is_widened_for_sparse_workloads() {
        // 1e6 natural buckets but only ~8 events: the calendar must be
        // clamped rather than allocating a million empty cells.
        let q = BucketQueue::new(1e6, 1.0, 8);
        assert!(q.heads.len() <= 65);
        // A dense workload keeps the requested width.
        let q = BucketQueue::new(100.0, 4.0, 1000);
        assert_eq!(q.heads.len(), 26);
    }

    #[test]
    fn same_tick_detection_batch_preserves_seq_order() {
        // Several events at one exact bucket boundary must pop in seq
        // order (the scrub detection batch contract).
        let mut q = BucketQueue::new(100.0, 4.0, 16);
        for s in 0..5 {
            q.push(ev(8.0, s));
        }
        q.push(ev(7.5, 99));
        assert_eq!(q.pop().unwrap().seq, 99);
        for s in 0..5 {
            assert_eq!(q.pop().unwrap().seq, s);
        }
    }

    /// One population: rate multiplier, scrub cadence, weight.
    fn population(tag: &'static str) -> impl Strategy<Value = DimmPopulation> {
        (
            0.0f64..40.0,
            prop_oneof![Just(2.0f64), Just(3.0), Just(4.0), Just(12.0)],
            0.2f64..4.0,
        )
            .prop_map(move |(mult, scrub, weight)| {
                DimmPopulation::paper(tag)
                    .rate_multiplier(mult)
                    .scrub_interval_h(scrub)
                    .weight(weight)
            })
    }

    fn policy() -> impl Strategy<Value = OperatorPolicy> {
        prop_oneof![
            Just(OperatorPolicy::None),
            Just(OperatorPolicy::ReplaceOnDue),
            (1u32..80).prop_map(|spares_per_10k| OperatorPolicy::SparePool { spares_per_10k }),
        ]
    }

    /// A random fleet spec (one or two populations).
    fn random_spec() -> impl Strategy<Value = FleetSpec> {
        (
            32u64..1500,
            prop_oneof![Just(64u32), Just(256), Just(1024)],
            1.0f64..10.0,
            any::<u64>(),
            population("a"),
            population("b"),
            any::<bool>(),
            policy(),
        )
            .prop_map(
                |(channels, shard_channels, years, seed, pop_a, pop_b, two_pops, policy)| {
                    let mut populations = vec![pop_a];
                    if two_pops {
                        populations.push(pop_b);
                    }
                    FleetSpec::baseline(channels)
                        .shard_channels(shard_channels)
                        .years(years)
                        .seed(seed)
                        .populations(populations)
                        .policy(policy)
                },
            )
    }

    /// Observed arrivals for `spec`: each channel gets a random population
    /// and a sorted run of up to four faults drawn with that population's
    /// [`FaultSampler`], some of them past the horizon.
    fn drawn_arrivals(spec: &FleetSpec, seed: u64) -> ReplayArrivals {
        let samplers: Vec<FaultSampler> = spec
            .populations
            .iter()
            .map(|p| FaultSampler::new(p.geometry, p.rates()))
            .collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut populations, mut per_channel) = (Vec::new(), Vec::new());
        for _ in 0..spec.channels {
            let pop = rng.gen_range(0..samplers.len());
            let faults = if rng.gen_bool(0.7) {
                0
            } else {
                rng.gen_range(1..5usize)
            };
            let mut times: Vec<f64> = (0..faults)
                .map(|_| rng.gen_range(0.0..1.1 * spec.horizon_hours()))
                .collect();
            times.sort_by(f64::total_cmp);
            populations.push(pop as u32);
            per_channel.push(
                times
                    .into_iter()
                    .map(|t| samplers[pop].draw_fault(&mut rng, t))
                    .collect(),
            );
        }
        ReplayArrivals::new(populations, per_channel).expect("sorted, finite arrivals")
    }

    // Engine-level A/B: every run below drives real shard engines, whose
    // queues check each pop against the heap oracle.

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Random synthetic fleets over every policy.
        #[test]
        fn random_fleets_pop_in_heap_order(spec in random_spec()) {
            prop_assert_eq!(run_fleet(2, &spec).channels, spec.channels);
        }

        /// Random replayed fleets: observed arrivals through the same queue.
        #[test]
        fn random_replays_pop_in_heap_order(spec in random_spec(), seed in any::<u64>()) {
            let arrivals = drawn_arrivals(&spec, seed);
            let stats = run_replay(2, &spec, &arrivals).expect("valid arrivals");
            prop_assert_eq!(stats.channels, spec.channels);
        }

        /// Checkpoint/resume under the oracle: a prefix serialised to text
        /// resumes and still reproduces the uninterrupted run bit-for-bit.
        #[test]
        fn checkpoint_resume_pops_in_heap_order(seed in any::<u64>(), stop in 1u64..4) {
            let spec = FleetSpec::baseline(1200)
                .shard_channels(256)
                .seed(seed)
                .populations(vec![DimmPopulation::paper("hot").rate_multiplier(12.0)])
                .policy(OperatorPolicy::SparePool { spares_per_10k: 30 });
            let full = run_fleet(2, &spec);
            let start = FleetCheckpoint::start(&spec);
            let half = run_until(2, &spec, None, start, stop, &mut NoopRecorder).expect("prefix");
            let parsed = FleetCheckpoint::from_text(&half.to_text()).expect("round trip");
            let resumed = run_until(2, &spec, None, parsed, spec.shard_count(), &mut NoopRecorder)
                .expect("resume");
            prop_assert!(
                full.bitwise_eq(&resumed.stats),
                "resume diverged\nfull:    {:?}\nresumed: {:?}",
                full,
                resumed.stats
            );
        }
    }

    /// The paper-scale baseline (the spec the golden tests and the bench
    /// ladder run).
    #[test]
    fn paper_baseline_pops_in_heap_order() {
        let stats = run_fleet(2, &FleetSpec::baseline(10_000));
        assert_eq!(stats.channels, 10_000);
        assert!(stats.faults > 0);
    }

    /// Degenerate calendar widths reached through the engine: the width is
    /// the scrub interval, here far finer than the default (so the sparse
    /// calendar is widened) and far coarser than the horizon (so it is
    /// clamped to one bucket).
    #[test]
    fn extreme_scrub_intervals_pop_in_heap_order() {
        for scrub in [0.01, 1.0, 1000.0, 100_000.0] {
            let spec = FleetSpec::baseline(2000).populations(vec![DimmPopulation::paper("hot")
                .rate_multiplier(8.0)
                .scrub_interval_h(scrub)]);
            let stats = run_fleet(2, &spec);
            assert_eq!(stats.channels, 2000, "scrub interval {scrub}");
            assert!(stats.faults > 0, "scrub interval {scrub}");
        }
    }

    /// The specs of the registered fleet scenarios (`fleet_baseline`,
    /// `fleet_mixed_population`, `fleet_repair_policies` in `arcc-exp`)
    /// at 1500 channels, written out literally.
    #[test]
    fn fleet_scenario_specs_pop_in_heap_order() {
        let base = FleetSpec::baseline(1500).seed(0xAB7 ^ 0xF1EE7);
        let mixed = base.clone().populations(vec![
            DimmPopulation::paper("cold_1x").weight(0.6).cores(4),
            DimmPopulation::paper("warm_2x")
                .weight(0.3)
                .rate_multiplier(2.0)
                .cores(8),
            DimmPopulation::paper("hot_4x")
                .weight(0.1)
                .rate_multiplier(4.0)
                .scrub_interval_h(2.0)
                .cores(16),
        ]);
        let hot = base
            .clone()
            .populations(vec![DimmPopulation::paper("hot_8x").rate_multiplier(8.0)]);
        let mut specs = vec![base, mixed];
        for policy in [
            OperatorPolicy::None,
            OperatorPolicy::ReplaceOnDue,
            OperatorPolicy::SparePool { spares_per_10k: 20 },
        ] {
            specs.push(hot.clone().policy(policy));
        }
        for spec in &specs {
            assert_eq!(run_fleet(2, spec).channels, 1500);
        }
    }

    /// A hot spare-pool fleet exercises every event kind (faults, queued
    /// detections, replacements, retirements) through the queue.
    #[test]
    fn exhausting_spare_pool_pops_in_heap_order() {
        let spec = FleetSpec::baseline(3000)
            .populations(vec![DimmPopulation::paper("hot").rate_multiplier(30.0)])
            .policy(OperatorPolicy::SparePool { spares_per_10k: 10 });
        let stats = run_fleet(2, &spec);
        assert!(stats.channels_failed > 0, "need retirements for coverage");
        assert!(stats.replacements > 0);
    }
}
