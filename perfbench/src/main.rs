//! One instance of a repository benchmark workload.
//!
//! Drives the EMISSARY simulator only through its public crate APIs and
//! prints one JSON record on stdout: timings, the digest of the simulated
//! reports, the correctness checks that failed, and, when traced, the
//! per-layer metrics. `run.py` repeats instances, applies the cross-run
//! checks and prints the benchmark's result; see README.md.
//!
//! ```sh
//! emissary-perfbench --workload solo-xapian --seed 0 --work-dir DIR [--trace-out FILE] [--run-id N]
//! ```

mod campaign;
mod record;
mod replay;
mod setup;
mod solo;
mod spans;

use std::path::PathBuf;

use setup::{Workload, FULL};
use spans::Spans;

const USAGE: &str =
    "usage: emissary-perfbench --workload <solo-verilator|solo-xapian|campaign-mix> \
--seed <u64> --work-dir <dir> [--trace-out <file>] [--run-id <u64>]";

/// Parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    work_dir: PathBuf,
    trace_out: Option<PathBuf>,
    run_id: u64,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut work_dir = None;
    let mut trace_out = None;
    let mut run_id = 0;
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value:?}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--run-id" => run_id = number()?,
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            "--trace-out" => trace_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        work_dir: work_dir.ok_or("--work-dir is required")?,
        trace_out,
        run_id,
    })
}

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("emissary-perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!(
            "emissary-perfbench: cannot create {}: {e}",
            args.work_dir.display()
        );
        std::process::exit(2);
    }
    let record = match &args.trace_out {
        None => match args.workload.solo() {
            Some(solo) => solo::untraced(solo, args.seed, &FULL),
            None => campaign::untraced(args.seed, &FULL, &args.work_dir),
        },
        Some(path) => {
            let mut spans = Spans::new(args.run_id);
            // The root span's self time is the harness's own work between
            // the calls it makes into the layers.
            let mut record = spans.time("perfbench.instance", |spans| match args.workload.solo() {
                Some(solo) => solo::traced(solo, args.seed, &FULL, &args.work_dir, spans),
                None => campaign::traced(args.seed, &FULL, &args.work_dir, spans),
            });
            record.layer_self_s = spans.layer_self_seconds().into_iter().collect();
            if let Err(e) = spans.write(path) {
                eprintln!("emissary-perfbench: cannot write {}: {e}", path.display());
                std::process::exit(2);
            }
            record
        }
    };
    println!(
        "{}",
        record.to_json(args.workload.name(), args.seed, args.trace_out.is_some())
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{digest, Record};
    use crate::setup::tests::{DEFAULT_SEED, TINY};
    use emissary_obs::JsonValue;
    use std::path::Path;

    /// Campaign passes read process-wide job counters and the global
    /// metrics registry, so tests that run them take turns.
    static CAMPAIGNS: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        CAMPAIGNS.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// A fresh work directory for one test, inside the package.
    fn work_dir(name: &str) -> PathBuf {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("target")
            .join("test-work")
            .join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn untraced(w: Workload, seed: u64, dir: &Path) -> Record {
        match w.solo() {
            Some(solo) => solo::untraced(solo, seed, &TINY),
            None => campaign::untraced(seed, &TINY, dir),
        }
    }

    fn traced(w: Workload, seed: u64, dir: &Path) -> Record {
        let mut spans = Spans::new(1);
        match w.solo() {
            Some(solo) => solo::traced(solo, seed, &TINY, dir, &mut spans),
            None => campaign::traced(seed, &TINY, dir, &mut spans),
        }
    }

    /// The per-layer metric names BENCHMARK.json declares, except the
    /// tracing overhead, which run.py computes across instances.
    fn declared_layer_metrics() -> Vec<String> {
        let spec = JsonValue::parse(include_str!("../../BENCHMARK.json")).unwrap();
        spec.get("per_layer")
            .and_then(JsonValue::as_array)
            .unwrap()
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(JsonValue::as_str)
                    .unwrap()
                    .to_string()
            })
            .filter(|n| n != "obs.trace_overhead_pct")
            .collect()
    }

    #[test]
    fn traced_instances_emit_every_declared_layer_metric() {
        let _serial = serial();
        let mut declared = declared_layer_metrics();
        declared.sort();
        for w in Workload::ALL {
            let rec = traced(w, DEFAULT_SEED, &work_dir(&format!("layers-{}", w.name())));
            assert!(rec.failures.is_empty(), "{}: {:?}", w.name(), rec.failures);
            let mut emitted: Vec<String> = rec.layers.iter().map(|(n, _)| n.to_string()).collect();
            emitted.sort();
            assert_eq!(emitted, declared, "{}", w.name());
            assert!(rec.layers.iter().all(|(_, v)| v.is_finite()));
        }
    }

    #[test]
    fn same_seed_repeats_and_the_traced_path_matches() {
        let _serial = serial();
        for w in Workload::ALL {
            let dir = work_dir(&format!("repeat-{}", w.name()));
            let a = untraced(w, DEFAULT_SEED, &dir);
            let b = untraced(w, DEFAULT_SEED, &dir);
            let t = traced(w, DEFAULT_SEED, &dir);
            for r in [&a, &b, &t] {
                assert!(r.failures.is_empty(), "{}: {:?}", w.name(), r.failures);
            }
            assert_eq!(a.digest, b.digest, "{}", w.name());
            assert_eq!(t.digest, a.digest, "{}: traced digest", w.name());
            assert_eq!(
                (t.cycles, t.committed),
                (a.cycles, a.committed),
                "{}",
                w.name()
            );
            if let Some(replayed) = a.second_digest {
                assert_eq!(replayed, a.digest, "{}: resume pass", w.name());
            }
            let other = untraced(w, 1, &dir);
            assert_ne!(
                other.digest,
                a.digest,
                "{}: seed must change inputs",
                w.name()
            );
        }
    }

    #[test]
    fn harness_digests_equal_run_sim() {
        let _serial = serial();
        for w in [Workload::SoloVerilator, Workload::SoloXapian] {
            let solo = w.solo().unwrap();
            let profile = setup::profile(solo.benchmark, DEFAULT_SEED);
            let cfg = setup::config(
                solo.policy,
                TINY.solo_warmup,
                TINY.solo_measure,
                DEFAULT_SEED,
            );
            let reference = emissary_sim::run_sim(&profile, &cfg);
            assert_eq!(
                untraced(w, DEFAULT_SEED, Path::new("")).digest,
                digest([&reference])
            );
        }
        let mut jobs = emissary_bench::campaign::dedup_jobs(setup::mix_jobs(DEFAULT_SEED, &TINY));
        jobs.sort_by_key(emissary_bench::checkpoint::fingerprint);
        let reports: Vec<_> = jobs
            .iter()
            .map(|j| emissary_sim::run_sim(&j.profile, &j.config))
            .collect();
        let dir = work_dir("run-sim-campaign");
        assert_eq!(
            untraced(Workload::CampaignMix, DEFAULT_SEED, &dir).digest,
            digest(&reports)
        );
    }

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_every_flag() {
        let a =
            args("--workload campaign-mix --seed 3 --work-dir w --trace-out t.jsonl --run-id 2")
                .unwrap();
        assert_eq!(
            a,
            Args {
                workload: Workload::CampaignMix,
                seed: 3,
                work_dir: PathBuf::from("w"),
                trace_out: Some(PathBuf::from("t.jsonl")),
                run_id: 2,
            }
        );
    }

    #[test]
    fn rejects_bad_input() {
        assert!(args("--workload nope --seed 1 --work-dir w").is_err());
        assert!(args("--workload solo-xapian --seed x --work-dir w").is_err());
        assert!(args("--workload solo-xapian --work-dir w").is_err());
        assert!(args("--workload solo-xapian --seed 1 --work-dir").is_err());
        assert!(args("--bogus 1").is_err());
    }
}
