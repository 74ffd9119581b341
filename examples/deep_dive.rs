//! Deep-dive diagnostic: full pipeline/memory statistics for one benchmark
//! under the baseline, the unfiltered EMISSARY policy, and the paper's
//! preferred configuration.
//!
//! ```sh
//! cargo run --release --example deep_dive [benchmark] [measure_instrs]
//! ```
//!
//! Lines starting with `host` report host cost (seconds per policy, and the
//! process's peak resident set from `/proc/self/status` at the end); every
//! other line is simulated output and deterministic.

use emissary::prelude::*;

fn main() {
    let bench = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "verilator".into());
    let measure: u64 = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(4_000_000);
    let profile = Profile::by_name(&bench).unwrap_or_else(|| {
        eprintln!(
            "unknown benchmark {bench:?}; available: {:?}",
            Profile::names()
        );
        std::process::exit(1);
    });
    let cfg = SimConfig {
        warmup_instrs: measure / 2,
        measure_instrs: measure,
        ..SimConfig::default()
    };
    println!(
        "benchmark: {}  (warmup {} + measure {})\n",
        profile.name, cfg.warmup_instrs, measure
    );
    let mut baseline_cycles = None;
    for pol in ["M:1", "P(8):S&E", "P(8):S&E&R(1/32)"] {
        let spec: PolicySpec = pol.parse().expect("notation");
        let run = run_sim_observed(
            &profile,
            &cfg.clone().with_policy(spec),
            &ObsConfig::default(),
        );
        let r = run.report;
        println!("=== {pol}");
        let base = *baseline_cycles.get_or_insert(r.cycles);
        if base != r.cycles {
            println!(
                "  speedup over M:1: {:+.2}%",
                speedup_pct(base as f64 / r.cycles as f64)
            );
        }
        println!(
            "  cycles {:>10}  IPC {:.3}  decode rate {:.3}  issue rate {:.3}",
            r.cycles,
            r.ipc(),
            r.decode_rate(),
            r.issue_rate()
        );
        println!(
            "  MPKI: l1i {:.2}  l1d {:.2}  l2i {:.2}  l2d {:.2}  l3 {:.2}  branch {:.2}",
            r.l1i_mpki, r.l1d_mpki, r.l2i_mpki, r.l2d_mpki, r.l3_mpki, r.branch_mpki
        );
        println!(
            "  starvation {:>9} cycles ({:.1}% of run), {} with empty IQ",
            r.starvation_cycles,
            r.starvation_cycles as f64 / r.cycles as f64 * 100.0,
            r.starvation_empty_iq_cycles
        );
        println!(
            "  starvation by serving level: l1/in-flight {}  l2 {}  l3 {}  memory {}",
            r.starvation_by_source[0],
            r.starvation_by_source[1],
            r.starvation_by_source[2],
            r.starvation_by_source[3]
        );
        println!(
            "  stalls: front-end {}  back-end {}   L2 hits on protected lines: {}",
            r.fe_stall_cycles, r.be_stall_cycles, r.l2_priority_hits
        );
        let saturated: u64 = r.priority_histogram[8..].iter().sum();
        println!(
            "  L2 sets with >= 8 high-priority lines: {saturated} of {}",
            r.priority_histogram.iter().sum::<u64>()
        );
        println!(
            "host: {:.1} s (warmup {:.1} s, measure {:.1} s)\n",
            run.host_seconds, run.warmup_seconds, run.measure_seconds
        );
    }
    let peak = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| Some(l.strip_prefix("VmHWM:")?.trim().to_owned()))
        });
    println!(
        "host peak RSS: {}",
        peak.as_deref().unwrap_or("unavailable")
    );
}
