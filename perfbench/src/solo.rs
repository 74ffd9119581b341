//! The solo workloads: one long single-threaded simulation.
//!
//! The untraced instance goes through the simulator's runner
//! (`run_sim_checked_on`), as every figure does. The traced instance
//! drives the `Machine` itself, so each stage call gets its own span; its
//! cycles and committed count are checked against the untraced run, and
//! the campaign cross-check must reproduce the untraced report's digest.

use std::path::Path;
use std::time::Instant;

use emissary_obs::MetricsHub;
use emissary_sim::machine::Machine;
use emissary_sim::{run_sim_checked_on, FaultConfig, ObsConfig};
use emissary_workloads::Walker;

use crate::record::{digest, Counts, Record};
use crate::setup::{self, Scale, Solo};
use crate::spans::Spans;
use crate::{campaign, replay};

fn short_window(benchmark: &str, committed: u64, window: u64) -> Option<String> {
    (committed < window).then(|| format!("{benchmark}: committed {committed} < window {window}"))
}

/// One untraced solo run.
pub fn untraced(solo: Solo, seed: u64, scale: &Scale) -> Record {
    let profile = setup::profile(solo.benchmark, seed);
    let cfg = setup::config(solo.policy, scale.solo_warmup, scale.solo_measure, seed);
    let mut rec = Record {
        jobs_attempted: 1,
        ..Record::default()
    };
    let start = Instant::now();
    let program = profile.build();
    // Built and dropped to time construction on its own; the runner
    // builds the run's own machine inside the job.
    drop(Machine::new(Walker::new(&program, profile.seed), &cfg));
    rec.setup_s = start.elapsed().as_secs_f64();
    // The runner exports its counters only after the run ends, as it does
    // for every campaign job.
    let hub = MetricsHub::recording();
    let obs = ObsConfig::default().with_metrics(hub.clone());
    let job_start = Instant::now();
    let result = run_sim_checked_on(&program, &profile, &cfg, &obs, &FaultConfig::watchdog());
    rec.job_s.push(job_start.elapsed().as_secs_f64());
    rec.wall_s = start.elapsed().as_secs_f64();
    let run = match result {
        Ok(run) => run,
        Err(abort) => {
            rec.failures
                .push(format!("{}: aborted: {abort}", solo.benchmark));
            return rec;
        }
    };
    rec.failures.extend(short_window(
        solo.benchmark,
        run.report.committed,
        cfg.measure_instrs,
    ));
    rec.sim_mips = run.report.committed as f64 / run.measure_seconds / 1e6;
    rec.digest = digest([&run.report]);
    let mut counts = Counts::default();
    hub.with(|m| counts.add_metrics(m.entries()));
    counts.add_report(&run.report);
    rec.set_counts(&counts);
    rec
}

/// One traced solo run: the same simulation stage by stage under spans,
/// then the isolated component replays, then the baseline/EMISSARY pair
/// through the campaign layer.
pub fn traced(solo: Solo, seed: u64, scale: &Scale, work_dir: &Path, spans: &mut Spans) -> Record {
    let profile = setup::profile(solo.benchmark, seed);
    let cfg = setup::config(solo.policy, scale.solo_warmup, scale.solo_measure, seed);
    let fault = FaultConfig::watchdog();
    let mut rec = Record {
        jobs_attempted: 1,
        ..Record::default()
    };
    let start = Instant::now();
    let program = spans.time("workloads.build", |_| profile.build());
    let mut machine = spans.time("sim.machine_new", |_| {
        Machine::new(Walker::new(&program, profile.seed), &cfg)
    });
    rec.setup_s = start.elapsed().as_secs_f64();
    let result = spans
        .time("sim.warmup", |_| {
            machine.run_instrs_checked(cfg.warmup_instrs, &fault)
        })
        .and_then(|_| {
            machine.reset_window();
            spans.time("sim.measure", |_| {
                machine.run_instrs_checked(cfg.measure_instrs, &fault)
            })
        });
    rec.wall_s = start.elapsed().as_secs_f64();
    rec.job_s.push(rec.wall_s - rec.setup_s);
    if let Err(abort) = result {
        rec.failures
            .push(format!("{}: aborted: {abort}", solo.benchmark));
        return rec;
    }
    let counts = Counts::from_machine(&machine);
    drop(machine);
    rec.set_counts(&counts);
    rec.failures.extend(short_window(
        solo.benchmark,
        counts.committed,
        cfg.measure_instrs,
    ));
    let measure_s = spans.seconds("sim.measure");
    rec.sim_mips = counts.committed as f64 / measure_s / 1e6;

    let walk = spans.time("workloads.walk_replay", |_| {
        replay::walker(&program, &profile, scale.replay)
    });
    let predict = spans.time("frontend.predict_replay", |_| {
        replay::predictor(&program, &profile, &cfg, scale.replay)
    });
    let access = spans.time("cache.access_replay", |_| {
        replay::hierarchy(&program, &profile, &cfg, scale.replay)
    });
    let jobs = setup::pair_jobs(solo.benchmark, scale.solo_warmup, scale.solo_measure, seed);
    let pass = campaign::traced_pass(jobs, work_dir, spans);
    rec.jobs_attempted += pass.attempted;
    rec.failures.extend(pass.failures.iter().cloned());
    let policy = cfg.l2_policy.to_string();
    match pass.reports.iter().find(|r| r.policy == policy) {
        Some(r) => rec.digest = digest([r]),
        None => rec.failures.push(format!(
            "{}: no {policy} report from the campaign pass",
            solo.benchmark
        )),
    }

    rec.layers = vec![
        ("workloads.build_s", spans.seconds("workloads.build")),
        ("workloads.walk_ns_per_instr", walk.ns_per_call()),
        ("workloads.code_kb", program.code_bytes() as f64 / 1024.0),
        ("frontend.predict_ns_per_block", predict.ns_per_call()),
        ("cache.access_ns", access.ns_per_call()),
        ("sim.warmup_s", spans.seconds("sim.warmup")),
        ("sim.measure_s", measure_s),
        (
            "sim.ns_per_cycle",
            measure_s * 1e9 / counts.cycles.max(1) as f64,
        ),
    ];
    rec.layers.extend(counts.layer_metrics());
    rec.layers.extend(pass.layers);
    rec
}
