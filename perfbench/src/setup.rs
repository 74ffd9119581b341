//! Workload definitions: which profiles, policies and windows each
//! workload runs, and how the benchmark seed re-derives their inputs.

use emissary_bench::Job;
use emissary_core::spec::PolicySpec;
use emissary_sim::SimConfig;
use emissary_workloads::Profile;

/// Odd 64-bit golden-ratio stride: seed `n` shifts each base seed by
/// `n` strides, so seed 0 is the identity and distinct seeds give
/// distinct, well-spread values.
const SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// Run lengths, in committed instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Warmup of a solo run, before statistics are collected, so the
    /// modelled caches start warm.
    pub solo_warmup: u64,
    /// Measurement window of a solo run.
    pub solo_measure: u64,
    /// Warmup of one campaign job.
    pub mix_warmup: u64,
    /// Measurement window of one campaign job.
    pub mix_measure: u64,
    /// Instructions each isolated component replay walks (solo
    /// workloads; campaign-mix replays each job's own window).
    pub replay: u64,
}

/// The benchmark's run lengths. Campaign jobs are short on purpose:
/// per-job overhead is what the campaign workload exists to expose.
pub const FULL: Scale = Scale {
    solo_warmup: 1_000_000,
    solo_measure: 4_000_000,
    mix_warmup: 50_000,
    mix_measure: 200_000,
    replay: 1_000_000,
};

/// Checkpoint file stem of the campaign passes.
pub const CAMPAIGN_NAME: &str = "perfbench";

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// verilator under the paper's preferred EMISSARY configuration: the
    /// largest EMISSARY win and a 2.7 MB code footprint against the
    /// 1 MB L2, so the miss path and the L2 policy do most of the work.
    SoloVerilator,
    /// xapian under TPLRU: its code fits the L2, so host time goes to the
    /// out-of-order pipeline and the walker, not the miss path.
    SoloXapian,
    /// All 13 profiles under both policies, with duplicate requests and
    /// short windows, through the deduplicating campaign pool, then a
    /// resume pass that replays every job from the checkpoint.
    CampaignMix,
}

/// The one simulation a solo workload runs.
#[derive(Debug, Clone, Copy)]
pub struct Solo {
    /// Benchmark profile name.
    pub benchmark: &'static str,
    /// L2 policy under test.
    pub policy: PolicySpec,
}

impl Workload {
    /// Every workload, in the order the benchmark lists them.
    pub const ALL: [Workload; 3] = [
        Workload::SoloVerilator,
        Workload::SoloXapian,
        Workload::CampaignMix,
    ];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SoloVerilator => "solo-verilator",
            Workload::SoloXapian => "solo-xapian",
            Workload::CampaignMix => "campaign-mix",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The solo run, for the two solo workloads.
    pub fn solo(self) -> Option<Solo> {
        match self {
            Workload::SoloVerilator => Some(Solo {
                benchmark: "verilator",
                policy: PolicySpec::PREFERRED,
            }),
            Workload::SoloXapian => Some(Solo {
                benchmark: "xapian",
                policy: PolicySpec::BASELINE,
            }),
            Workload::CampaignMix => None,
        }
    }
}

/// Re-derives one base seed for benchmark seed `seed`.
pub fn reseed(base: u64, seed: u64) -> u64 {
    base.wrapping_add(seed.wrapping_mul(SEED_STRIDE))
}

/// The named profile with `Profile.seed` and `ProgramShape.seed`
/// re-derived from `seed`; every other knob keeps its value.
pub fn profile(name: &str, seed: u64) -> Profile {
    let mut p = Profile::by_name(name).expect("workloads name built-in profiles");
    p.seed = reseed(p.seed, seed);
    p.shape.seed = reseed(p.shape.seed, seed);
    p
}

/// The default simulation configuration with the given windows and
/// policy, and `SimConfig.seed` re-derived from `seed`.
pub fn config(policy: PolicySpec, warmup: u64, measure: u64, seed: u64) -> SimConfig {
    let base = SimConfig::default();
    SimConfig {
        warmup_instrs: warmup,
        measure_instrs: measure,
        seed: reseed(base.seed, seed),
        ..base
    }
    .with_policy(policy)
}

/// The baseline/EMISSARY job pair for one profile: the cross-check the
/// traced solo runs push through the campaign layer.
pub fn pair_jobs(benchmark: &str, warmup: u64, measure: u64, seed: u64) -> Vec<Job> {
    let template = config(PolicySpec::BASELINE, warmup, measure, seed);
    [PolicySpec::BASELINE, PolicySpec::PREFERRED]
        .into_iter()
        .map(|policy| Job::new(profile(benchmark, seed), &template, policy))
        .collect()
}

/// The campaign-mix job list: every profile under both policies, then
/// the baseline row requested a second time (as overlapping figures
/// request it), so dedup has duplicates to remove.
pub fn mix_jobs(seed: u64, scale: &Scale) -> Vec<Job> {
    let mut jobs: Vec<Job> = Profile::names()
        .into_iter()
        .flat_map(|name| pair_jobs(name, scale.mix_warmup, scale.mix_measure, seed))
        .collect();
    let repeated: Vec<Job> = jobs
        .iter()
        .filter(|j| j.config.l2_policy == PolicySpec::BASELINE)
        .cloned()
        .collect();
    jobs.extend(repeated);
    jobs
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The seed that reproduces every profile's own seeds (and
    /// `SimConfig::default().seed`) exactly.
    pub(crate) const DEFAULT_SEED: u64 = 0;

    /// Run lengths small enough for unit tests.
    pub(crate) const TINY: Scale = Scale {
        solo_warmup: 2_000,
        solo_measure: 10_000,
        mix_warmup: 1_000,
        mix_measure: 4_000,
        replay: 5_000,
    };

    #[test]
    fn default_seed_reproduces_the_profiles_own_seeds() {
        for p in Profile::all() {
            assert_eq!(profile(p.name, DEFAULT_SEED), p);
        }
        let cfg = config(PolicySpec::BASELINE, 1, 2, DEFAULT_SEED);
        assert_eq!(cfg.seed, SimConfig::default().seed);
    }

    #[test]
    fn a_different_seed_changes_the_inputs() {
        let a = profile("xapian", DEFAULT_SEED);
        let b = profile("xapian", 1);
        assert_ne!(a.seed, b.seed);
        assert_ne!(a.shape.seed, b.shape.seed);
        assert_eq!(a.shape.code_kb, b.shape.code_kb, "only seeds move");
        assert_ne!(a.build(), b.build(), "the generated program must change");
        let ca = config(PolicySpec::BASELINE, 1, 2, DEFAULT_SEED);
        let cb = config(PolicySpec::BASELINE, 1, 2, 1);
        assert_ne!(ca.seed, cb.seed);
    }

    #[test]
    fn mix_has_every_profile_under_both_policies_and_duplicates() {
        let jobs = mix_jobs(DEFAULT_SEED, &TINY);
        let unique = emissary_bench::campaign::dedup_jobs(jobs.clone());
        assert_eq!(unique.len(), 2 * Profile::names().len());
        assert!(jobs.len() > unique.len());
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
