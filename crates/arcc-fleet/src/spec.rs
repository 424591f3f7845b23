//! Fleet descriptions: mixed DIMM populations, operator policies, and the
//! knobs of one fleet simulation.

use arcc_core::{find_scheme, splitmix64};
use arcc_faults::{FaultGeometry, FitRates};
use arcc_reliability::SchemeCapability;

/// Default channels per shard: small enough that per-shard state (a few
/// hundred bytes per in-flight channel) stays cache-friendly and peak
/// memory is `O(threads * shard)` rather than `O(fleet)`, large enough to
/// amortise thread dispatch.
pub const DEFAULT_SHARD_CHANNELS: u32 = 4096;

/// Scheme key every population starts with: the paper's adaptive ARCC.
/// Populations carrying this default fingerprint exactly as they did
/// before the scheme field existed, so pre-zoo checkpoints still resume.
pub const DEFAULT_SCHEME: &str = "arcc";

/// One homogeneous slice of the fleet: a DIMM model (geometry + FIT-rate
/// multiplier) deployed on machines of a given core count, scrubbed at a
/// given cadence.
#[derive(Debug, Clone, PartialEq)]
pub struct DimmPopulation {
    /// Display name (e.g. `"ddr2_1x"`).
    pub name: String,
    /// Relative share of the fleet's channels (any positive weight; shares
    /// are normalised over the spec's populations).
    pub weight: f64,
    /// Channel organisation.
    pub geometry: FaultGeometry,
    /// Multiplier over the SC'12 field FIT rates (the paper evaluates 1x,
    /// 2x, 4x).
    pub rate_multiplier: f64,
    /// Scrub (and therefore detection/upgrade) period in hours.
    pub scrub_interval_h: f64,
    /// Cores per machine attached to this channel population (reporting
    /// dimension for capacity-weighted fleet views).
    pub cores: u32,
    /// ECC scheme key ([`arcc_core::scheme_registry`]) protecting this
    /// population's channels; drives the SDC/DUE classification
    /// capability and whether detected faults upgrade pages.
    pub scheme: String,
    /// Extra multiplier on the large multi-row fault modes only
    /// (single-bank, multi-bank, multi-rank) — the fault-mix axis of the
    /// scheme-sweep scenarios. `1.0` leaves the SC'12 mix untouched.
    pub large_fault_multiplier: f64,
}

impl DimmPopulation {
    /// The paper's canonical population: 2x36-device channels at 1x field
    /// rates, 4-hour scrubs, 4-core machines.
    pub fn paper(name: &str) -> Self {
        Self {
            name: name.to_string(),
            weight: 1.0,
            geometry: FaultGeometry::paper_channel(),
            rate_multiplier: 1.0,
            scrub_interval_h: 4.0,
            cores: 4,
            scheme: DEFAULT_SCHEME.to_string(),
            large_fault_multiplier: 1.0,
        }
    }

    /// Sets the ECC scheme protecting this population. The key must be
    /// registered in [`arcc_core::scheme_registry`].
    pub fn scheme(mut self, key: &str) -> Self {
        assert!(
            find_scheme(key).is_some(),
            "unknown scheme key {key:?}; see arcc_core::scheme_keys()"
        );
        self.scheme = key.to_string();
        self
    }

    /// Sets the extra multiplier applied to the large multi-row fault
    /// modes (see [`FitRates::scaled_large`]).
    pub fn large_fault_multiplier(mut self, factor: f64) -> Self {
        assert!(factor >= 0.0, "fault multiplier must be non-negative");
        self.large_fault_multiplier = factor;
        self
    }

    /// The SDC-classification capability of this population's scheme,
    /// derived from its registry entry: detection strengths of the
    /// relaxed and strongest modes, whether relaxed codewords span half
    /// the channel, and whether the scheme adapts (upgrades pages on
    /// detection).
    pub fn capability(&self) -> SchemeCapability {
        let entry = find_scheme(&self.scheme);
        assert!(
            entry.is_some(),
            "population {:?} references unregistered scheme {:?}",
            self.name,
            self.scheme
        );
        let Some(entry) = entry else {
            return SchemeCapability::arcc();
        };
        if entry.adaptive() {
            SchemeCapability {
                relaxed_detect: entry.relaxed.guarantees.detect,
                upgraded_detect: entry.strongest_detect(),
                relaxed_half_width: entry.relaxed.rank_size <= 18,
                adaptive: true,
            }
        } else {
            SchemeCapability::static_code(
                entry.relaxed.guarantees.detect,
                entry.relaxed.rank_size <= 18,
            )
        }
    }

    /// Sets the population weight.
    pub fn weight(mut self, weight: f64) -> Self {
        assert!(weight > 0.0, "population weight must be positive");
        self.weight = weight;
        self
    }

    /// Sets the FIT-rate multiplier.
    pub fn rate_multiplier(mut self, mult: f64) -> Self {
        self.rate_multiplier = mult;
        self
    }

    /// Sets the scrub interval in hours.
    pub fn scrub_interval_h(mut self, hours: f64) -> Self {
        assert!(hours > 0.0, "scrub interval must be positive");
        self.scrub_interval_h = hours;
        self
    }

    /// Sets the machine core count.
    pub fn cores(mut self, cores: u32) -> Self {
        self.cores = cores;
        self
    }

    /// The FIT rates in force for this population.
    pub fn rates(&self) -> FitRates {
        FitRates::sridharan_sc12()
            .scaled(self.rate_multiplier)
            .scaled_large(self.large_fault_multiplier)
    }
}

/// What the operator does when a channel raises a detected-uncorrectable
/// error (DUE).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OperatorPolicy {
    /// Nothing: the DUE is logged and the channel keeps running — the
    /// paper's accounting, and the policy the golden tests pin against
    /// the `arcc-reliability` Monte Carlo.
    None,
    /// Every DUE is serviced at the scrub that detects it: the DIMM is
    /// swapped for a fresh one (unbounded spares).
    ReplaceOnDue,
    /// DUEs are serviced from a finite spare pool, provisioned
    /// proportionally to fleet size; once a shard's pool is dry, further
    /// DUE channels are retired (counted as failed).
    SparePool {
        /// Spares stocked per 10 000 channels. Pools are partitioned
        /// across shards by global channel range
        /// ([`OperatorPolicy::spares_for_range`]), so the fleet-wide
        /// stock is `floor(channels * spares_per_10k / 10_000)` exactly,
        /// independent of shard size. Spares are *held* per shard,
        /// though — a dry shard retires channels even if a neighbour has
        /// stock (fleet-global pools are a ROADMAP follow-on).
        spares_per_10k: u32,
    },
}

impl OperatorPolicy {
    /// Short registry-style name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            OperatorPolicy::None => "none",
            OperatorPolicy::ReplaceOnDue => "replace-on-due",
            OperatorPolicy::SparePool { .. } => "spare-pool",
        }
    }

    /// Spares granted to the shard covering global channels
    /// `[first_channel, first_channel + channels)`.
    ///
    /// Computed as a telescoping difference of global floor positions, so
    /// summing over any contiguous partition of the fleet yields exactly
    /// `floor(total_channels * spares_per_10k / 10_000)` — resharding
    /// never changes the fleet-wide stock.
    pub fn spares_for_range(&self, first_channel: u64, channels: u64) -> u32 {
        match self {
            OperatorPolicy::SparePool { spares_per_10k } => {
                let rate = *spares_per_10k as u128;
                let hi = (first_channel as u128 + channels as u128) * rate / 10_000;
                let lo = first_channel as u128 * rate / 10_000;
                (hi - lo) as u32
            }
            _ => 0,
        }
    }
}

/// Complete description of one fleet simulation.
///
/// ```
/// use arcc_fleet::{DimmPopulation, FleetSpec, OperatorPolicy};
///
/// let spec = FleetSpec::baseline(10_000)
///     .years(7.0)
///     .seed(42)
///     .policy(OperatorPolicy::ReplaceOnDue)
///     .population(DimmPopulation::paper("hot_aisle").weight(0.25).rate_multiplier(4.0));
/// assert_eq!(spec.channels, 10_000);
/// assert_eq!(spec.populations.len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSpec {
    /// Channels in the fleet.
    pub channels: u64,
    /// Simulated horizon in years.
    pub years: f64,
    /// Base RNG seed; every shard and channel derives its own stream from
    /// it via `cell_seed`.
    pub seed: u64,
    /// DUE-handling policy.
    pub policy: OperatorPolicy,
    /// Mixed DIMM populations (at least one).
    pub populations: Vec<DimmPopulation>,
    /// Channels per shard (tunes memory/parallelism granularity, not
    /// results *per shard stream*; see the runner's determinism notes).
    pub shard_channels: u32,
}

impl FleetSpec {
    /// A single-population paper-channel fleet at 1x rates with no repair
    /// policy — the `fleet_baseline` scenario and the golden-test anchor.
    pub fn baseline(channels: u64) -> Self {
        Self {
            channels,
            years: 7.0,
            seed: 0xF1EE7,
            policy: OperatorPolicy::None,
            populations: vec![DimmPopulation::paper("paper_1x")],
            shard_channels: DEFAULT_SHARD_CHANNELS,
        }
    }

    /// Sets the simulated horizon in years.
    pub fn years(mut self, years: f64) -> Self {
        assert!(years > 0.0, "horizon must be positive");
        self.years = years;
        self
    }

    /// Sets the base seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the operator policy.
    pub fn policy(mut self, policy: OperatorPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Appends a population to the mix.
    pub fn population(mut self, population: DimmPopulation) -> Self {
        self.populations.push(population);
        self
    }

    /// Replaces the population mix wholesale.
    pub fn populations(mut self, populations: Vec<DimmPopulation>) -> Self {
        assert!(!populations.is_empty(), "at least one population required");
        self.populations = populations;
        self
    }

    /// Sets the shard granularity.
    pub fn shard_channels(mut self, shard_channels: u32) -> Self {
        assert!(shard_channels > 0, "shard size must be positive");
        self.shard_channels = shard_channels;
        self
    }

    /// Horizon in hours.
    pub fn horizon_hours(&self) -> f64 {
        self.years * arcc_faults::HOURS_PER_YEAR
    }

    /// Year epochs covered by the horizon (length of the power-epoch
    /// histograms).
    pub fn epochs(&self) -> usize {
        self.years.ceil() as usize
    }

    /// Number of shards the fleet splits into.
    pub fn shard_count(&self) -> u64 {
        self.channels.div_ceil(self.shard_channels as u64)
    }

    /// Channels in shard `shard` (the last shard may be partial).
    pub fn shard_size(&self, shard: u64) -> u32 {
        let first = shard * self.shard_channels as u64;
        let left = self.channels.saturating_sub(first);
        left.min(self.shard_channels as u64) as u32
    }

    /// Deterministically assigns a channel to a population by hashing its
    /// global id against the cumulative population weights — independent
    /// of shard size, so resharding a fleet never reshuffles hardware.
    pub fn population_for(&self, channel_id: u64) -> usize {
        if self.populations.len() == 1 {
            return 0;
        }
        let total: f64 = self.populations.iter().map(|p| p.weight).sum();
        let u = splitmix64(self.seed ^ channel_id.wrapping_mul(0x9E3779B97F4A7C15)) as f64
            / u64::MAX as f64;
        let mut acc = 0.0;
        for (i, p) in self.populations.iter().enumerate() {
            acc += p.weight / total;
            if u < acc {
                return i;
            }
        }
        self.populations.len() - 1
    }

    /// Order-sensitive fingerprint of every result-affecting knob, used to
    /// refuse resuming a checkpoint against a different spec.
    pub fn fingerprint(&self) -> u64 {
        let mut h = splitmix64(self.seed);
        let mut mix = |x: u64| h = splitmix64(h ^ x);
        mix(self.channels);
        mix(self.years.to_bits());
        mix(self.shard_channels as u64);
        match self.policy {
            OperatorPolicy::None => mix(1),
            OperatorPolicy::ReplaceOnDue => mix(2),
            OperatorPolicy::SparePool { spares_per_10k } => {
                mix(3);
                mix(spares_per_10k as u64);
            }
        }
        for p in &self.populations {
            for b in p.name.bytes() {
                mix(b as u64);
            }
            mix(p.weight.to_bits());
            mix(p.rate_multiplier.to_bits());
            mix(p.scrub_interval_h.to_bits());
            mix(p.cores as u64);
            mix(p.geometry.total_devices() as u64);
            mix(p.geometry.pages);
            // Scheme-zoo fields mix only at non-default values, so every
            // pre-zoo spec keeps its historical fingerprint and old
            // checkpoints still resume (pinned by the compat tests).
            if p.scheme != DEFAULT_SCHEME {
                mix(0x5C4E);
                for b in p.scheme.bytes() {
                    mix(b as u64);
                }
            }
            if p.large_fault_multiplier != 1.0 {
                mix(0x1A46);
                mix(p.large_fault_multiplier.to_bits());
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_arithmetic_covers_every_channel() {
        let spec = FleetSpec::baseline(10_000).shard_channels(4096);
        assert_eq!(spec.shard_count(), 3);
        assert_eq!(spec.shard_size(0), 4096);
        assert_eq!(spec.shard_size(1), 4096);
        assert_eq!(spec.shard_size(2), 10_000 - 2 * 4096);
        let total: u64 = (0..spec.shard_count())
            .map(|s| spec.shard_size(s) as u64)
            .sum();
        assert_eq!(total, spec.channels);
    }

    #[test]
    fn population_assignment_tracks_weights_and_ignores_sharding() {
        let spec = FleetSpec::baseline(0)
            .populations(vec![
                DimmPopulation::paper("a").weight(3.0),
                DimmPopulation::paper("b").weight(1.0),
            ])
            .seed(7);
        let n = 40_000u64;
        let picks_a = (0..n).filter(|&c| spec.population_for(c) == 0).count();
        let frac = picks_a as f64 / n as f64;
        assert!((frac - 0.75).abs() < 0.02, "weight-3/1 split got {frac}");
        // Resharding must not move channels between populations.
        let resharded = spec.clone().shard_channels(17);
        for c in 0..1000 {
            assert_eq!(spec.population_for(c), resharded.population_for(c));
        }
    }

    #[test]
    fn spare_pool_provisioning_is_floor_exact_and_shard_invariant() {
        let p = OperatorPolicy::SparePool { spares_per_10k: 50 };
        assert_eq!(p.spares_for_range(0, 10_000), 50);
        assert_eq!(OperatorPolicy::None.spares_for_range(0, 4096), 0);
        assert_eq!(
            OperatorPolicy::SparePool { spares_per_10k: 0 }.spares_for_range(0, 4096),
            0
        );
        // Any contiguous partition sums to the fleet-wide floor: shard
        // size must not change how many spares a fleet stocks.
        let fleet = 123_457u64;
        let total = p.spares_for_range(0, fleet);
        assert_eq!(total, (fleet * 50 / 10_000) as u32);
        for shard_size in [512u64, 4096, 10_000, 99_999] {
            let mut sum = 0u32;
            let mut first = 0u64;
            while first < fleet {
                let n = shard_size.min(fleet - first);
                sum += p.spares_for_range(first, n);
                first += n;
            }
            assert_eq!(sum, total, "shard size {shard_size} changed the stock");
        }
        // A low rate no longer over-provisions tiny shards: 3/10k over
        // 512-channel shards stays 3/10k in total.
        let low = OperatorPolicy::SparePool { spares_per_10k: 3 };
        let sum: u32 = (0..20u64).map(|s| low.spares_for_range(s * 512, 512)).sum();
        assert_eq!(sum, low.spares_for_range(0, 20 * 512));
        assert_eq!(sum, 3);
    }

    #[test]
    fn fingerprint_is_stable_across_the_scheme_zoo_refactor() {
        // Pinned pre-zoo value: default-scheme populations must hash
        // exactly as they did before the scheme field existed, or every
        // old checkpoint in the wild refuses to resume.
        assert_eq!(FleetSpec::baseline(1000).fingerprint(), 0x233bdbdd3aedf881);
        // Non-default zoo knobs must drift the fingerprint.
        let base = FleetSpec::baseline(1000);
        let fp = base.fingerprint();
        let reschemed = base
            .clone()
            .populations(vec![DimmPopulation::paper("paper_1x").scheme("sccdcd")]);
        assert_ne!(fp, reschemed.fingerprint());
        let heavy = base.clone().populations(vec![
            DimmPopulation::paper("paper_1x").large_fault_multiplier(4.0)
        ]);
        assert_ne!(fp, heavy.fingerprint());
        assert_ne!(reschemed.fingerprint(), heavy.fingerprint());
    }

    #[test]
    fn capability_derivation_matches_the_registry() {
        let arcc = DimmPopulation::paper("p");
        assert_eq!(arcc.capability(), SchemeCapability::arcc());
        let sccdcd = DimmPopulation::paper("p").scheme("sccdcd");
        assert_eq!(sccdcd.capability(), SchemeCapability::static_code(2, false));
        let s8sc = DimmPopulation::paper("p").scheme("s8sc");
        assert_eq!(s8sc.capability(), SchemeCapability::static_code(1, true));
        let multi_ecc = DimmPopulation::paper("p").scheme("multi-ecc");
        assert!(!multi_ecc.capability().adaptive);
    }

    #[test]
    fn large_fault_multiplier_scales_rates() {
        let base = DimmPopulation::paper("p");
        let heavy = DimmPopulation::paper("p").large_fault_multiplier(3.0);
        let b = base.rates();
        let h = heavy.rates();
        assert_eq!(h.single_bit, b.single_bit);
        assert_eq!(h.single_bank, b.single_bank * 3.0);
        assert_eq!(h.multi_rank, b.multi_rank * 3.0);
    }

    #[test]
    #[should_panic(expected = "unknown scheme key")]
    fn unknown_scheme_key_is_rejected() {
        let _ = DimmPopulation::paper("p").scheme("no-such-code");
    }

    #[test]
    fn fingerprint_changes_with_any_knob() {
        let base = FleetSpec::baseline(1000);
        let fp = base.fingerprint();
        assert_eq!(fp, FleetSpec::baseline(1000).fingerprint());
        assert_ne!(fp, base.clone().seed(9).fingerprint());
        assert_ne!(fp, base.clone().years(5.0).fingerprint());
        assert_ne!(
            fp,
            base.clone()
                .policy(OperatorPolicy::ReplaceOnDue)
                .fingerprint()
        );
        assert_ne!(
            fp,
            base.clone()
                .population(DimmPopulation::paper("x"))
                .fingerprint()
        );
    }
}
