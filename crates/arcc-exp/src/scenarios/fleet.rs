//! Fleet-scale scenarios over the `arcc-fleet` event-driven engine:
//! the paper-anchored baseline, a mixed DIMM population, and an
//! operator repair-policy comparison. These go beyond the paper's
//! figures — they are the ROADMAP's "fleet scale" workloads — but the
//! baseline is pinned against the paper-path Monte Carlo by the
//! `arcc-fleet` golden tests.

use arcc_faults::montecarlo::FaultSampler;
use arcc_faults::{FaultGeometry, FitRates, HOURS_PER_YEAR};
use arcc_fleet::{run_fleet, DimmPopulation, FleetSpec, FleetStats, OperatorPolicy};

use crate::experiment::Experiment;
use crate::report::{Report, Table, Value};
use crate::scenario::Scenario;
use crate::sweep::parallel_map;

fn fleet_spec(exp: &Experiment) -> FleetSpec {
    FleetSpec::baseline(exp.mc_channel_count() as u64)
        .years(7.0)
        .seed(exp.mc_seed_value() ^ 0xF1EE7)
}

/// The spec `fleet_baseline` runs.
pub(crate) fn baseline_spec(exp: &Experiment) -> FleetSpec {
    fleet_spec(exp)
}

/// The population mix `fleet_mixed_population` runs.
pub(crate) fn mixed_populations() -> Vec<DimmPopulation> {
    vec![
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
    ]
}

/// The spec `fleet_mixed_population` runs.
pub(crate) fn mixed_population_spec(exp: &Experiment) -> FleetSpec {
    fleet_spec(exp).populations(mixed_populations())
}

/// The policy grid `fleet_repair_policies` runs, one spec per policy.
pub(crate) fn repair_policy_specs(exp: &Experiment) -> Vec<FleetSpec> {
    let base =
        fleet_spec(exp).populations(vec![DimmPopulation::paper("hot_8x").rate_multiplier(8.0)]);
    [
        OperatorPolicy::None,
        OperatorPolicy::ReplaceOnDue,
        OperatorPolicy::SparePool { spares_per_10k: 20 },
    ]
    .into_iter()
    .map(|policy| base.clone().policy(policy))
    .collect()
}

fn headline_table(stats: &FleetStats) -> Table {
    let mut t = Table::new("fleet", &["metric", "value"]);
    let mut push = |k: &str, v: Value| t.push_row(vec![Value::from(k), v]);
    push("channels", Value::from(stats.channels));
    push("machine_years", Value::from(stats.machine_years()));
    push("faults", Value::from(stats.faults));
    push("fault_probability", Value::from(stats.fault_probability()));
    push("transient_cleared", Value::from(stats.transient_cleared));
    push("due_events", Value::from(stats.due_events));
    push("due_probability", Value::from(stats.due_probability()));
    push("sdc_channels", Value::from(stats.sdc_channels));
    push(
        "sdc_per_1000_machine_years",
        Value::from(stats.sdc_per_1000_machine_years()),
    );
    push("replacements", Value::from(stats.replacements));
    push("channels_failed", Value::from(stats.channels_failed));
    push(
        "avg_upgraded_fraction",
        Value::from(stats.avg_upgraded_fraction()),
    );
    t
}

fn epoch_table(stats: &FleetStats) -> Table {
    let mut t = Table::new("power_epochs", &["year", "avg_power_overhead"]);
    for (y, overhead) in stats.avg_power_overhead_by_year().iter().enumerate() {
        t.push_row(vec![Value::from((y + 1) as u64), Value::from(*overhead)]);
    }
    t
}

/// `fleet_baseline`: the paper's 10 000-channel, 7-year population run
/// through the event-driven engine, with the closed-form Poisson anchors
/// alongside.
pub struct FleetBaseline;

impl Scenario for FleetBaseline {
    fn name(&self) -> &'static str {
        "fleet_baseline"
    }

    fn title(&self) -> &'static str {
        "Event-driven fleet lifetime engine vs the paper-path Monte Carlo"
    }

    fn run(&self, exp: &Experiment) -> Report {
        let mut report = Report::new(self.name(), self.title());
        let spec = baseline_spec(exp);
        let stats = run_fleet(exp.worker_count(), &spec);
        let sampler = FaultSampler::new(FaultGeometry::paper_channel(), FitRates::sridharan_sc12());
        let lambda = sampler.expected_faults(7.0 * HOURS_PER_YEAR);
        report.push_meta("channels", stats.channels);
        report.push_meta("fault_probability", stats.fault_probability());
        report.push_meta("closed_form_fault_probability", 1.0 - (-lambda).exp());
        report.push_meta("avg_upgraded_fraction", stats.avg_upgraded_fraction());
        report.push_meta(
            "sdc_per_1000_machine_years",
            stats.sdc_per_1000_machine_years(),
        );
        report.push_table(headline_table(&stats));
        report.push_table(epoch_table(&stats));
        report.push_note("Event-queue engine, O(1) memory per in-flight channel; pinned within");
        report.push_note(
            "±2pp of the arcc-reliability lifetime numbers by arcc-fleet's golden tests.",
        );
        report
    }
}

/// `fleet_mixed_population`: a weighted mix of DIMM populations (cold,
/// warm, and hot aisles with different FIT multipliers, scrub cadences,
/// and core counts) in one fleet, reported per population.
pub struct FleetMixedPopulation;

impl Scenario for FleetMixedPopulation {
    fn name(&self) -> &'static str {
        "fleet_mixed_population"
    }

    fn title(&self) -> &'static str {
        "Mixed DIMM populations: per-slice reliability of one heterogeneous fleet"
    }

    fn run(&self, exp: &Experiment) -> Report {
        let mut report = Report::new(self.name(), self.title());
        let spec = mixed_population_spec(exp);
        let populations = &spec.populations;
        let stats = run_fleet(exp.worker_count(), &spec);
        let mut t = Table::new(
            "populations",
            &[
                "population",
                "weight",
                "rate_multiplier",
                "cores",
                "channels",
                "faults",
                "due_events",
                "avg_upgraded_fraction",
            ],
        );
        for (p, s) in populations.iter().zip(&stats.populations) {
            let avg_upgraded = if s.channels > 0 {
                s.upgraded_page_mass / s.channels as f64
            } else {
                0.0
            };
            t.push_row(vec![
                Value::from(p.name.as_str()),
                Value::from(p.weight),
                Value::from(p.rate_multiplier),
                Value::from(p.cores),
                Value::from(s.channels),
                Value::from(s.faults),
                Value::from(s.due_events),
                Value::from(avg_upgraded),
            ]);
        }
        report.push_meta("channels", stats.channels);
        report.push_meta("fault_probability", stats.fault_probability());
        report.push_table(t);
        report.push_table(epoch_table(&stats));
        report.push_note("Population assignment is a deterministic hash of the channel id, so");
        report.push_note("resharding or resizing the fleet never reshuffles which DIMMs are hot.");
        report
    }
}

/// `fleet_repair_policies`: the same fleet under no repair,
/// replace-on-DUE, and a finite spare pool — the policy what-ifs that
/// need fleet scale to resolve.
pub struct FleetRepairPolicies;

impl Scenario for FleetRepairPolicies {
    fn name(&self) -> &'static str {
        "fleet_repair_policies"
    }

    fn title(&self) -> &'static str {
        "Operator repair policies: none vs replace-on-DUE vs finite spare pool"
    }

    fn run(&self, exp: &Experiment) -> Report {
        let mut report = Report::new(self.name(), self.title());
        // A hot fleet so DUE-driven repairs actually fire at CI scale.
        let specs = repair_policy_specs(exp);
        let runs = parallel_map(exp.worker_count(), &specs, |_, spec| {
            // Shards of each policy run sequentially here; the policy grid
            // itself is the parallel axis.
            run_fleet(1, spec)
        });
        let policies: Vec<OperatorPolicy> = specs.iter().map(|s| s.policy).collect();
        let mut t = Table::new(
            "policies",
            &[
                "policy",
                "due_events",
                "replacements",
                "spares_consumed",
                "channels_failed",
                "avg_upgraded_fraction",
                "machine_years",
            ],
        );
        for (policy, stats) in policies.iter().zip(&runs) {
            t.push_row(vec![
                Value::from(policy.name()),
                Value::from(stats.due_events),
                Value::from(stats.replacements),
                Value::from(stats.spares_consumed),
                Value::from(stats.channels_failed),
                Value::from(stats.avg_upgraded_fraction()),
                Value::from(stats.machine_years()),
            ]);
        }
        report.push_meta("channels", runs[0].channels);
        report.push_meta("rate_multiplier", 8.0);
        report.push_meta("spares_per_10k", 20u64);
        report.push_table(t);
        report.push_note("Replacement swaps a fresh relaxed DIMM in at the detecting scrub, so");
        report.push_note("managed fleets end with less upgraded (full-power) page mass than");
        report.push_note("unmanaged ones; a dry spare pool instead retires channels (failed).");
        report
    }
}
