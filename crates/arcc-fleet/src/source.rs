//! Arrival sources: where a shard's fault arrivals come from.
//!
//! The engine supports two interchangeable sources behind the same
//! event queue, stats, and checkpoint machinery:
//!
//! * **synthetic** — the default: arrivals are drawn lazily, one
//!   exponential gap at a time, from each channel's own RNG stream (the
//!   PR 3/4 engine). Nothing in this module is involved.
//! * **replay** — arrivals were *observed* (a parsed fleet fault log, see
//!   the `arcc-replay` crate) and are replayed through the event queue in
//!   `(time, seq)` order, while scrub detections, upgrades, and operator
//!   policy are still simulated. A [`ReplayArrivals`] carries the
//!   observed per-channel arrival streams plus the inventory's
//!   population assignment, which *overrides* the spec's weight-hash
//!   assignment (the log knows which DIMM is which; the hash is for
//!   synthetic fleets).
//!
//! Replay semantics under repair policies: the log records what the
//! hardware emitted, so a replaced DIMM inherits the channel's remaining
//! observed arrivals (the standard field-trace approximation), while a
//! *retired* channel (spare pool dry) delivers none — retirement drops
//! the rest of its stream. Synthetic mode instead redraws arrivals for
//! the fresh DIMM; the two therefore agree exactly under
//! [`OperatorPolicy::None`](crate::OperatorPolicy::None) and
//! statistically under repair policies.

use std::fmt;

use arcc_core::splitmix64;
use arcc_faults::{DimSel, FaultEvent, FaultMode};

use crate::spec::FleetSpec;

/// Errors constructing or applying a replay arrival set.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplayError {
    /// Constructor inputs disagree on the channel count.
    LengthMismatch {
        /// Length of the population vector.
        populations: usize,
        /// Length of the per-channel event list.
        channels: usize,
    },
    /// A channel's arrivals are not in non-decreasing time order.
    UnsortedArrivals {
        /// Offending channel id.
        channel: u64,
    },
    /// An arrival time is negative or not finite.
    BadTime {
        /// Offending channel id.
        channel: u64,
        /// The offending timestamp.
        time_h: f64,
    },
    /// The arrival set covers a different number of channels than the
    /// spec simulates.
    ChannelCountMismatch {
        /// Channels in the spec.
        spec: u64,
        /// Channels in the arrival set.
        arrivals: u64,
    },
    /// A channel's population index is outside the spec's population mix.
    PopulationOutOfRange {
        /// Offending channel id.
        channel: u64,
        /// The out-of-range population index.
        population: u32,
        /// Populations in the spec.
        populations: usize,
    },
    /// The arrival set would outgrow the CSR index range (`u32::MAX`
    /// events), which the compact offsets cannot address.
    TooManyEvents {
        /// Events the set would hold.
        events: u64,
    },
    /// A checkpoint being resumed was produced under a different
    /// (spec, arrivals) pair.
    CheckpointMismatch {
        /// Fingerprint recorded in the checkpoint.
        expected: u64,
        /// Fingerprint of the run being resumed.
        actual: u64,
    },
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::LengthMismatch {
                populations,
                channels,
            } => write!(
                f,
                "population vector covers {populations} channels but {channels} arrival \
                 streams were given"
            ),
            ReplayError::UnsortedArrivals { channel } => {
                write!(f, "channel {channel}: arrivals are out of time order")
            }
            ReplayError::BadTime { channel, time_h } => {
                write!(f, "channel {channel}: bad arrival time {time_h}")
            }
            ReplayError::ChannelCountMismatch { spec, arrivals } => write!(
                f,
                "spec simulates {spec} channels but the arrival set covers {arrivals}"
            ),
            ReplayError::PopulationOutOfRange {
                channel,
                population,
                populations,
            } => write!(
                f,
                "channel {channel}: population index {population} out of range \
                 (spec has {populations})"
            ),
            ReplayError::TooManyEvents { events } => write!(
                f,
                "arrival set would hold {events} events, over the u32::MAX CSR cap"
            ),
            ReplayError::CheckpointMismatch { expected, actual } => write!(
                f,
                "checkpoint fingerprint {expected:#x} does not match the replay run {actual:#x}"
            ),
        }
    }
}

impl std::error::Error for ReplayError {}

/// Observed fault arrivals for a whole fleet, in the compact CSR layout
/// the shard engine consumes: one population index per channel, plus each
/// channel's time-ordered arrival slice.
///
/// Shards index this read-only structure by global channel range, so one
/// `ReplayArrivals` is shared by every worker of a replay run.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayArrivals {
    /// Per-channel population index (the inventory's assignment; replay
    /// mode uses this instead of the spec's weight hash).
    populations: Vec<u32>,
    /// CSR offsets into `events`, length `channels + 1`.
    offsets: Vec<u32>,
    /// Arrival events grouped by channel, time-ordered within a channel.
    events: Vec<FaultEvent>,
}

impl ReplayArrivals {
    /// Builds the arrival set from one event list per channel
    /// (`populations[c]` is channel `c`'s population index).
    ///
    /// # Errors
    ///
    /// [`ReplayError::LengthMismatch`] when the two vectors disagree,
    /// [`ReplayError::UnsortedArrivals`] / [`ReplayError::BadTime`] when a
    /// channel's stream is out of order or carries a non-finite or
    /// negative timestamp, [`ReplayError::TooManyEvents`] past the
    /// `u32::MAX`-event CSR cap.
    pub fn new(
        populations: Vec<u32>,
        per_channel: Vec<Vec<FaultEvent>>,
    ) -> Result<Self, ReplayError> {
        if populations.len() != per_channel.len() {
            return Err(ReplayError::LengthMismatch {
                populations: populations.len(),
                channels: per_channel.len(),
            });
        }
        let total: usize = per_channel.iter().map(Vec::len).sum();
        if u32::try_from(total).is_err() {
            return Err(ReplayError::TooManyEvents {
                events: total as u64,
            });
        }
        let mut offsets = Vec::with_capacity(per_channel.len() + 1);
        let mut events = Vec::with_capacity(total);
        offsets.push(0u32);
        for (c, stream) in per_channel.into_iter().enumerate() {
            let mut last = 0.0f64;
            for ev in &stream {
                if !ev.time_h.is_finite() || ev.time_h < 0.0 {
                    return Err(ReplayError::BadTime {
                        channel: c as u64,
                        time_h: ev.time_h,
                    });
                }
                if ev.time_h < last {
                    return Err(ReplayError::UnsortedArrivals { channel: c as u64 });
                }
                last = ev.time_h;
            }
            events.extend(stream);
            offsets.push(events.len() as u32);
        }
        Ok(Self {
            populations,
            offsets,
            events,
        })
    }

    /// Appends additional arrival slices to the set: the new channels are
    /// numbered after the existing ones, so an extended set is a strict
    /// CSR superset of the old one and every
    /// [prefix fingerprint](Self::fingerprint_prefix) over the old
    /// channels is unchanged. This is the ingestion primitive of the
    /// digital-twin service: new fault-log segments arrive as slices and
    /// the accumulated set only ever grows.
    ///
    /// # Errors
    ///
    /// As for [`Self::new`], applied to the appended slices alone —
    /// except [`ReplayError::TooManyEvents`], which caps the *combined*
    /// set. Every error leaves the set unchanged, so a long-lived
    /// service can refuse a segment and keep serving.
    pub fn extend(
        &mut self,
        populations: Vec<u32>,
        per_channel: Vec<Vec<FaultEvent>>,
    ) -> Result<(), ReplayError> {
        let segment = Self::new(populations, per_channel)?;
        let base = self.events.len();
        let combined = base as u64 + segment.events.len() as u64;
        if u32::try_from(combined).is_err() {
            return Err(ReplayError::TooManyEvents { events: combined });
        }
        self.populations.extend(segment.populations);
        self.offsets
            .extend(segment.offsets.iter().skip(1).map(|&o| o + base as u32));
        self.events.extend(segment.events);
        Ok(())
    }

    /// Channels the arrival set covers.
    pub fn channels(&self) -> u64 {
        self.populations.len() as u64
    }

    /// Total observed arrivals.
    pub fn total_events(&self) -> u64 {
        self.events.len() as u64
    }

    /// The inventory's population index for `channel`.
    #[inline]
    pub fn population_of(&self, channel: u64) -> usize {
        self.populations[channel as usize] as usize
    }

    /// `channel`'s arrival slice bounds in [`Self::events`].
    #[inline]
    pub(crate) fn range_of(&self, channel: u64) -> (u32, u32) {
        let c = channel as usize;
        (self.offsets[c], self.offsets[c + 1])
    }

    /// The flat, channel-grouped event array slots index into.
    #[inline]
    pub(crate) fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Observed arrivals on global channels `[first, first + channels)`.
    pub fn events_in_range(&self, first: u64, channels: u64) -> u64 {
        let lo = self.offsets[first as usize] as u64;
        let hi = self.offsets[(first + channels) as usize] as u64;
        hi - lo
    }

    /// Validates the arrival set against the spec it is about to replay
    /// under: channel counts must match and every population index must
    /// name a spec population. (Arrivals at or past the spec horizon are
    /// legal — they simply never fire, so a long log truncates cleanly
    /// under a shorter-horizon spec.)
    pub fn validate_for(&self, spec: &FleetSpec) -> Result<(), ReplayError> {
        if self.channels() != spec.channels {
            return Err(ReplayError::ChannelCountMismatch {
                spec: spec.channels,
                arrivals: self.channels(),
            });
        }
        let populations = spec.populations.len();
        for (c, &p) in self.populations.iter().enumerate() {
            if p as usize >= populations {
                return Err(ReplayError::PopulationOutOfRange {
                    channel: c as u64,
                    population: p,
                    populations,
                });
            }
        }
        Ok(())
    }

    /// Order-sensitive fingerprint of the whole arrival set (population
    /// assignment and every event's time/mode/shape), mixed into replay
    /// checkpoints so a checkpoint from one log never resumes against
    /// another.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint_prefix(self.channels())
    }

    /// [`Self::fingerprint`] restricted to the first `channels` channels
    /// and their events. Because [`Self::extend`] only appends, the
    /// prefix fingerprint of the channels an older, smaller set covered
    /// is unchanged after extension — so a checkpoint stamped with a
    /// prefix fingerprint can recognise its own prefix inside a grown
    /// arrival set. `fingerprint_prefix(channels())` equals
    /// [`Self::fingerprint`].
    ///
    /// # Panics
    ///
    /// When `channels` exceeds [`Self::channels`].
    pub fn fingerprint_prefix(&self, channels: u64) -> u64 {
        let k = channels as usize;
        let mut h = splitmix64(0xA2CC_5EED ^ channels);
        let mut mix = |x: u64| h = splitmix64(h ^ x);
        for &p in &self.populations[..k] {
            mix(p as u64);
        }
        let sel = |s: &DimSel| match s {
            DimSel::All => 1u64 << 62,
            DimSel::Half(k) => (1u64 << 61) | k,
            DimSel::One(k) => *k,
        };
        for (c, &off) in self.offsets[..=k].iter().enumerate().skip(1) {
            mix(c as u64 ^ (off as u64) << 32);
        }
        for ev in &self.events[..self.offsets[k] as usize] {
            mix(ev.time_h.to_bits());
            let mode = FaultMode::ALL
                .iter()
                .position(|m| *m == ev.mode)
                .expect("every mode is in ALL") as u64;
            mix(mode | (u64::from(ev.transient) << 8) | ((ev.device_pos as u64) << 16));
            mix(ev.rank.map(|r| r as u64 + 1).unwrap_or(0));
            mix(sel(&ev.set.banks)
                ^ sel(&ev.set.rows).rotate_left(21)
                ^ sel(&ev.set.cols).rotate_left(42));
        }
        h
    }

    /// The fingerprint a replay run's checkpoints carry: the spec
    /// fingerprint and the arrival-set fingerprint mixed, so resuming
    /// demands *both* match.
    pub fn run_fingerprint(&self, spec: &FleetSpec) -> u64 {
        splitmix64(spec.fingerprint() ^ self.fingerprint())
    }

    /// The run fingerprint of the first `channels` channels under the
    /// prefix of `spec` covering exactly those channels: what
    /// [`Self::run_fingerprint`] would return for the truncated pair.
    /// Checkpoints of an incrementally extended replay are stamped with
    /// this, so they remain recognisable (and refusable) as the arrival
    /// set grows underneath them.
    ///
    /// # Panics
    ///
    /// When `channels` exceeds [`Self::channels`].
    pub fn run_fingerprint_prefix(&self, spec: &FleetSpec, channels: u64) -> u64 {
        let mut prefix = spec.clone();
        prefix.channels = channels;
        splitmix64(prefix.fingerprint() ^ self.fingerprint_prefix(channels))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arcc_faults::montecarlo::FaultSampler;
    use arcc_faults::{FaultGeometry, FitRates};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ev(t: f64) -> FaultEvent {
        let s = FaultSampler::new(FaultGeometry::paper_channel(), FitRates::sridharan_sc12());
        let mut rng = StdRng::seed_from_u64(t.to_bits());
        s.draw_fault(&mut rng, t)
    }

    #[test]
    fn csr_layout_round_trips_per_channel_streams() {
        let a = ReplayArrivals::new(
            vec![0, 1, 0],
            vec![vec![ev(1.0), ev(5.0)], vec![], vec![ev(2.5)]],
        )
        .expect("valid");
        assert_eq!(a.channels(), 3);
        assert_eq!(a.total_events(), 3);
        assert_eq!(a.range_of(0), (0, 2));
        assert_eq!(a.range_of(1), (2, 2));
        assert_eq!(a.range_of(2), (2, 3));
        assert_eq!(a.population_of(1), 1);
        assert_eq!(a.events_in_range(0, 2), 2);
        assert_eq!(a.events_in_range(1, 2), 1);
    }

    #[test]
    fn constructor_rejects_malformed_streams() {
        assert_eq!(
            ReplayArrivals::new(vec![0], vec![]),
            Err(ReplayError::LengthMismatch {
                populations: 1,
                channels: 0
            })
        );
        assert_eq!(
            ReplayArrivals::new(vec![0], vec![vec![ev(5.0), ev(1.0)]]),
            Err(ReplayError::UnsortedArrivals { channel: 0 })
        );
        let mut bad = ev(1.0);
        bad.time_h = f64::NAN;
        assert!(matches!(
            ReplayArrivals::new(vec![0], vec![vec![bad]]),
            Err(ReplayError::BadTime { channel: 0, .. })
        ));
        bad.time_h = -1.0;
        assert!(matches!(
            ReplayArrivals::new(vec![0], vec![vec![bad]]),
            Err(ReplayError::BadTime { channel: 0, .. })
        ));
        // Equal timestamps are legal (ties replay in log order).
        assert!(ReplayArrivals::new(vec![0], vec![vec![ev(3.0), ev(3.0)]]).is_ok());
    }

    #[test]
    fn spec_validation_checks_channels_and_populations() {
        let a = ReplayArrivals::new(vec![0, 2], vec![vec![], vec![]]).unwrap();
        let spec = FleetSpec::baseline(2);
        assert_eq!(
            a.validate_for(&spec),
            Err(ReplayError::PopulationOutOfRange {
                channel: 1,
                population: 2,
                populations: 1
            })
        );
        let spec3 = FleetSpec::baseline(3);
        assert_eq!(
            a.validate_for(&spec3),
            Err(ReplayError::ChannelCountMismatch {
                spec: 3,
                arrivals: 2
            })
        );
        let ok = ReplayArrivals::new(vec![0, 0], vec![vec![], vec![]]).unwrap();
        assert_eq!(ok.validate_for(&spec), Ok(()));
    }

    #[test]
    fn extend_appends_slices_and_preserves_prefix_fingerprints() {
        let mut grown = ReplayArrivals::new(vec![0, 1], vec![vec![ev(1.0)], vec![]]).unwrap();
        let before = grown.clone();
        grown
            .extend(vec![0, 1], vec![vec![ev(2.0), ev(3.0)], vec![ev(0.5)]])
            .expect("extend");
        // The grown set is indistinguishable from building it in one shot.
        let oneshot = ReplayArrivals::new(
            vec![0, 1, 0, 1],
            vec![vec![ev(1.0)], vec![], vec![ev(2.0), ev(3.0)], vec![ev(0.5)]],
        )
        .unwrap();
        assert_eq!(grown, oneshot);
        assert_eq!(grown.channels(), 4);
        assert_eq!(grown.total_events(), 4);
        assert_eq!(grown.range_of(2), (1, 3));
        assert_eq!(grown.range_of(3), (3, 4));
        // Prefix fingerprints over the old channels survive the append...
        assert_eq!(grown.fingerprint_prefix(2), before.fingerprint());
        assert_eq!(grown.fingerprint_prefix(0), before.fingerprint_prefix(0));
        // ...the full fingerprint matches the one-shot build...
        assert_eq!(grown.fingerprint(), oneshot.fingerprint());
        assert_eq!(grown.fingerprint_prefix(4), grown.fingerprint());
        // ...and the prefix run fingerprint equals the truncated pair's.
        let spec4 = FleetSpec::baseline(4).populations(vec![
            crate::spec::DimmPopulation::paper("a"),
            crate::spec::DimmPopulation::paper("b"),
        ]);
        let mut spec2 = spec4.clone();
        spec2.channels = 2;
        assert_eq!(
            grown.run_fingerprint_prefix(&spec4, 2),
            before.run_fingerprint(&spec2)
        );
        assert_eq!(
            grown.run_fingerprint_prefix(&spec4, 4),
            grown.run_fingerprint(&spec4)
        );
        // Malformed segments are refused without mutating the set.
        let snapshot = grown.clone();
        assert_eq!(
            grown.extend(vec![0], vec![vec![ev(5.0), ev(4.0)]]),
            Err(ReplayError::UnsortedArrivals { channel: 0 })
        );
        assert_eq!(grown, snapshot);
    }

    #[test]
    fn fingerprint_sees_every_field() {
        let base = ReplayArrivals::new(vec![0, 0], vec![vec![ev(1.0)], vec![]]).unwrap();
        let fp = base.fingerprint();
        assert_eq!(
            fp,
            ReplayArrivals::new(vec![0, 0], vec![vec![ev(1.0)], vec![]])
                .unwrap()
                .fingerprint()
        );
        // Population reassignment, moved events, and changed times all
        // change the fingerprint.
        let moved = ReplayArrivals::new(vec![0, 0], vec![vec![], vec![ev(1.0)]]).unwrap();
        assert_ne!(fp, moved.fingerprint());
        let repop = ReplayArrivals::new(vec![0, 1], vec![vec![ev(1.0)], vec![]]).unwrap();
        assert_ne!(fp, repop.fingerprint());
        let retimed = ReplayArrivals::new(vec![0, 0], vec![vec![ev(1.25)], vec![]]).unwrap();
        assert_ne!(fp, retimed.fingerprint());
        // The run fingerprint also pins the spec.
        let spec = FleetSpec::baseline(2);
        assert_ne!(
            base.run_fingerprint(&spec),
            base.run_fingerprint(&spec.clone().seed(9))
        );
        assert_ne!(base.run_fingerprint(&spec), spec.fingerprint());
    }
}
