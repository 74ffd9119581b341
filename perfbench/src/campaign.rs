//! The campaign-mix workload, and the campaign pass the traced solo runs
//! reuse as a cross-check.
//!
//! The untraced instance runs the job list through `campaign::prefetch`
//! with a checkpoint, then a resume pass that must replay every job and
//! simulate none. The traced pass makes the calls `prefetch` makes (dedup,
//! schedule, pool, sync) one by one, so each gets its own span.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use emissary_bench::campaign::{dedup_jobs, prefetch, schedule, CostModel};
use emissary_bench::checkpoint::{self, fingerprint, Campaign};
use emissary_bench::metrics::{counter_sum, stage_seconds, utilization, WORKER_WALL_NS};
use emissary_bench::pool::run_parallel_outcomes_hooked;
use emissary_bench::{Job, PoolOptions};
use emissary_core::spec::PolicySpec;
use emissary_obs::Metric;
use emissary_sim::{SimReport, SimRun};
use emissary_stats::summary::geomean_speedup_pct;
use emissary_workloads::Profile;

use crate::record::{digest, Counts, Record, PAPER_GEOMEAN_SPEEDUP_PCT};
use crate::replay::{self, Cost};
use crate::setup::{self, Scale, CAMPAIGN_NAME};
use crate::spans::Spans;

/// One worker per available core, no retries, the default watchdog.
fn pool_options() -> PoolOptions {
    PoolOptions::with_workers(std::thread::available_parallelism().map_or(1, usize::from))
}

/// Completed runs by fingerprint, plus one failure per job that has no
/// completed run in the campaign memo or committed short.
fn collect(campaign: &Campaign, unique: &[Job]) -> (BTreeMap<String, SimRun>, Vec<String>) {
    let mut runs = BTreeMap::new();
    let mut failures = Vec::new();
    for job in unique {
        let fp = fingerprint(job);
        match campaign.cached(&fp) {
            Some(run) if run.report.committed >= job.config.measure_instrs => {
                runs.insert(fp, run);
            }
            Some(run) => failures.push(format!(
                "{fp}: committed {} < window {}",
                run.report.committed, job.config.measure_instrs
            )),
            None => failures.push(format!("{fp}: no completed run")),
        }
    }
    (runs, failures)
}

fn reports(runs: &BTreeMap<String, SimRun>) -> impl Iterator<Item = &SimReport> {
    runs.values().map(|r| &r.report)
}

/// Committed instructions a pass simulated, warmup included.
fn simulated_instrs(runs: &BTreeMap<String, SimRun>, unique: &[Job]) -> u64 {
    let warmup: u64 = unique.iter().map(|j| j.config.warmup_instrs).sum();
    warmup + reports(runs).map(|r| r.committed).sum::<u64>()
}

fn counts(runs: &BTreeMap<String, SimRun>, snapshot: &[Metric]) -> Counts {
    let mut c = Counts::default();
    c.add_metrics(snapshot);
    for r in reports(runs) {
        c.add_report(r);
    }
    c
}

/// The resume pass must replay every unique job and simulate none.
fn check_resume(
    summary: &emissary_bench::campaign::PrefetchSummary,
    unique: usize,
    failures: &mut Vec<String>,
) {
    if summary.simulated != 0 || summary.replayed != unique as u64 {
        failures.push(format!(
            "resume pass simulated {} and replayed {} of {unique} jobs",
            summary.simulated, summary.replayed
        ));
    }
}

/// One untraced campaign-mix instance.
pub fn untraced(seed: u64, scale: &Scale, work_dir: &Path) -> Record {
    let jobs = setup::mix_jobs(seed, scale);
    let unique = dedup_jobs(jobs.clone());
    let mut rec = Record {
        jobs_attempted: 2 * unique.len() as u64,
        ..Record::default()
    };
    let opts = pool_options();
    let model = CostModel::new();
    let start = Instant::now();
    for profile in mix_profiles(seed) {
        profile.shared_program();
    }
    rec.setup_s = start.elapsed().as_secs_f64();
    let campaign = Campaign::begin_with(CAMPAIGN_NAME, work_dir, false);
    let first = prefetch(jobs.clone(), &opts, Some(&campaign), &model);
    let (runs, failures) = collect(&campaign, &unique);
    drop(campaign);
    rec.failures = failures;
    let replay_start = Instant::now();
    let resumed = Campaign::begin_with(CAMPAIGN_NAME, work_dir, true);
    let replay = prefetch(jobs, &opts, Some(&resumed), &model);
    let (replayed, failures) = collect(&resumed, &unique);
    drop(resumed);
    rec.replay_s = Some(replay_start.elapsed().as_secs_f64());
    rec.wall_s = start.elapsed().as_secs_f64();
    rec.failures.extend(failures);
    check_resume(&replay, unique.len(), &mut rec.failures);

    rec.digest = digest(reports(&runs));
    rec.second_digest = Some(digest(reports(&replayed)));
    rec.job_s = runs.values().map(|r| r.host_seconds).collect();
    rec.sim_mips = simulated_instrs(&runs, &unique) as f64 / first.wall_seconds / 1e6;
    let snapshot = emissary_obs::metrics::global().snapshot();
    rec.set_counts(&counts(&runs, &snapshot));
    rec
}

/// The 13 profiles, seeded for `seed`.
fn mix_profiles(seed: u64) -> Vec<Profile> {
    Profile::names()
        .into_iter()
        .map(|name| setup::profile(name, seed))
        .collect()
}

/// What a traced campaign pass produced.
#[derive(Debug, Default)]
pub struct Pass {
    /// Reports of the unique jobs, in fingerprint order.
    pub reports: Vec<SimReport>,
    /// Digest of the resume pass's replayed reports.
    pub replay_digest: u64,
    /// Host seconds of each simulated job.
    pub job_s: Vec<f64>,
    /// Instructions the pool simulated, warmup included.
    pub simulated_instrs: u64,
    /// Jobs checked (each unique job, simulated and then replayed).
    pub attempted: u64,
    /// Failed checks.
    pub failures: Vec<String>,
    /// The simulated counts of the pool pass.
    pub counts: Counts,
    /// Metrics registry snapshot after the pool pass.
    pub snapshot: Vec<Metric>,
    /// Campaign-layer metrics: job counts, timed calls, pool utilization,
    /// and the EMISSARY-over-baseline geomean speedup.
    pub layers: Vec<(&'static str, f64)>,
}

/// Runs `jobs` through the campaign layer call by call under spans, then
/// resumes from the checkpoint it wrote.
pub fn traced_pass(jobs: Vec<Job>, work_dir: &Path, spans: &mut Spans) -> Pass {
    let opts = pool_options();
    let model = CostModel::new();
    let campaign = spans.time("bench.ckpt_open", |_| {
        Campaign::begin_with(CAMPAIGN_NAME, work_dir, false)
    });
    let unique = spans.time("bench.dedup", |_| dedup_jobs(jobs.clone()));
    let ordered = spans.time("bench.schedule", |_| schedule(unique, &model));
    let before = checkpoint::counters();
    spans.time("bench.pool", |_| {
        run_parallel_outcomes_hooked(&ordered, &opts, Some(&campaign), |_, _| {})
    });
    spans.time("bench.sync", |_| campaign.sync());
    let simulated = checkpoint::counters().simulated - before.simulated;
    let snapshot = emissary_obs::metrics::global().snapshot();
    let (runs, mut failures) = collect(&campaign, &ordered);
    spans.time("bench.ckpt_close", |_| drop(campaign));
    let resumed = spans.time("bench.ckpt_load", |_| {
        Campaign::begin_with(CAMPAIGN_NAME, work_dir, true)
    });
    let summary = spans.time("bench.replay", |_| {
        prefetch(jobs, &opts, Some(&resumed), &model)
    });
    let (replayed, replay_failures) = collect(&resumed, &ordered);
    drop(resumed);
    failures.extend(replay_failures);
    check_resume(&summary, ordered.len(), &mut failures);
    let replay_digest = digest(reports(&replayed));
    if replay_digest != digest(reports(&runs)) {
        failures.push("resume pass replayed different reports".into());
    }

    let workers = opts.workers.clamp(1, ordered.len().max(1));
    let walls: Vec<f64> = (0..workers)
        .map(|w| {
            counter_sum(&snapshot, WORKER_WALL_NS, Some(("worker", &w.to_string()))) as f64 / 1e9
        })
        .collect();
    let longest = walls.iter().copied().fold(0.0, f64::max);
    let tail_idle_s: f64 = walls.iter().map(|w| longest - w).sum();
    let speedup = geomean_speedup_pct(&speedup_pairs(&runs)).unwrap_or(0.0);
    let layers = vec![
        ("bench.jobs_requested", summary.requested as f64),
        ("bench.jobs_unique", summary.unique as f64),
        ("bench.jobs_simulated", simulated as f64),
        ("bench.jobs_replayed", summary.replayed as f64),
        ("bench.dedup_s", spans.seconds("bench.dedup")),
        ("bench.schedule_s", spans.seconds("bench.schedule")),
        ("bench.pool_s", spans.seconds("bench.pool")),
        ("bench.sync_s", spans.seconds("bench.sync")),
        ("bench.ckpt_load_s", spans.seconds("bench.ckpt_load")),
        (
            "bench.worker_utilization",
            utilization(&snapshot).map_or(0.0, |u| u.2),
        ),
        ("bench.tail_idle_s", tail_idle_s),
        ("core.geomean_speedup_pct", speedup),
        ("core.paper_gap_pp", speedup - PAPER_GEOMEAN_SPEEDUP_PCT),
    ];
    Pass {
        reports: reports(&runs).cloned().collect(),
        replay_digest,
        job_s: runs.values().map(|r| r.host_seconds).collect(),
        simulated_instrs: simulated_instrs(&runs, &ordered),
        attempted: 2 * ordered.len() as u64,
        failures,
        counts: counts(&runs, &snapshot),
        snapshot,
        layers,
    }
}

/// (baseline cycles, EMISSARY cycles) per benchmark that has both.
fn speedup_pairs(runs: &BTreeMap<String, SimRun>) -> Vec<(u64, u64)> {
    let cycles = |bench: &str, policy: PolicySpec| {
        let policy = policy.to_string();
        reports(runs)
            .find(|r| r.benchmark == bench && r.policy == policy)
            .map(|r| r.cycles)
    };
    let mut benches: Vec<&str> = reports(runs).map(|r| r.benchmark.as_str()).collect();
    benches.sort_unstable();
    benches.dedup();
    benches
        .into_iter()
        .filter_map(|b| {
            Some((
                cycles(b, PolicySpec::BASELINE)?,
                cycles(b, PolicySpec::PREFERRED)?,
            ))
        })
        .collect()
}

/// One traced campaign-mix instance.
pub fn traced(seed: u64, scale: &Scale, work_dir: &Path, spans: &mut Spans) -> Record {
    let jobs = setup::mix_jobs(seed, scale);
    let profiles = mix_profiles(seed);
    let mut rec = Record::default();
    let start = Instant::now();
    let programs: Vec<_> = profiles
        .iter()
        .map(|p| spans.time("workloads.build", |_| p.shared_program()))
        .collect();
    rec.setup_s = start.elapsed().as_secs_f64();
    let unique = dedup_jobs(jobs.clone());
    let pass = traced_pass(jobs, work_dir, spans);
    rec.wall_s = start.elapsed().as_secs_f64();
    rec.replay_s = Some(spans.seconds("bench.ckpt_load") + spans.seconds("bench.replay"));
    rec.jobs_attempted = pass.attempted;
    rec.failures = pass.failures.clone();
    rec.digest = digest(&pass.reports);
    rec.second_digest = Some(pass.replay_digest);
    rec.job_s = pass.job_s.clone();
    let pool_s = spans.seconds("bench.pool");
    rec.sim_mips = pass.simulated_instrs as f64 / pool_s / 1e6;
    rec.set_counts(&pass.counts);

    // Isolated replays over each profile's own stream (the job window),
    // the cache under every policy the mix runs.
    let mut walk = Cost::default();
    let mut predict = Cost::default();
    let mut access = Cost::default();
    for (profile, program) in profiles.iter().zip(&programs) {
        walk = walk.plus(spans.time("workloads.walk_replay", |_| {
            replay::walker(program, profile, scale.mix_measure)
        }));
        let on_profile = || unique.iter().filter(|j| j.profile == *profile);
        for job in on_profile().take(1) {
            predict = predict.plus(spans.time("frontend.predict_replay", |_| {
                replay::predictor(program, profile, &job.config, scale.mix_measure)
            }));
        }
        for job in on_profile() {
            access = access.plus(spans.time("cache.access_replay", |_| {
                replay::hierarchy(program, profile, &job.config, scale.mix_measure)
            }));
        }
    }
    let code_kb: f64 = programs
        .iter()
        .map(|p| p.code_bytes() as f64 / 1024.0)
        .sum::<f64>()
        / programs.len() as f64;
    let warmup_s = stage_seconds(&pass.snapshot, "warmup");
    let measure_s = stage_seconds(&pass.snapshot, "measure");
    rec.layers = vec![
        ("workloads.build_s", spans.total_seconds("workloads.build")),
        ("workloads.walk_ns_per_instr", walk.ns_per_call()),
        ("workloads.code_kb", code_kb),
        ("frontend.predict_ns_per_block", predict.ns_per_call()),
        ("cache.access_ns", access.ns_per_call()),
        ("sim.warmup_s", warmup_s),
        ("sim.measure_s", measure_s),
        (
            "sim.ns_per_cycle",
            measure_s * 1e9 / pass.counts.cycles.max(1) as f64,
        ),
    ];
    rec.layers.extend(pass.counts.layer_metrics());
    rec.layers.extend(pass.layers);
    rec
}
