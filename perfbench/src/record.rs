//! What one benchmark instance reports, and the simulated counts it is
//! checked and explained by.

use emissary_bench::checkpoint::fnv1a64;
use emissary_bench::metrics::counter_sum;
use emissary_obs::{JsonObject, LocalMetrics, Metric};
use emissary_sim::machine::Machine;
use emissary_sim::SimReport;

/// The paper's gem5 headline: geomean speedup of `P(8):S&E&R(1/32)` over
/// TPLRU across the 13 benchmarks, in percent.
pub const PAPER_GEOMEAN_SPEEDUP_PCT: f64 = 2.49;

/// FNV-1a digest of the reports' JSON, one per line, in the given order.
pub fn digest<'a>(reports: impl IntoIterator<Item = &'a SimReport>) -> u64 {
    let text: Vec<String> = reports.into_iter().map(SimReport::to_json).collect();
    fnv1a64(text.join("\n").as_bytes())
}

/// Raw simulated counts over a measurement window (one run, or the sum
/// over a campaign's jobs).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counts {
    /// Committed instructions.
    pub committed: u64,
    /// Simulated cycles.
    pub cycles: u64,
    /// L1I instruction-stream misses.
    pub l1i_misses: f64,
    /// L2 instruction-stream misses.
    pub l2i_misses: f64,
    /// L2 data misses.
    pub l2d_misses: f64,
    /// EMISSARY high-priority marks issued.
    pub marks: u64,
    /// L2 hits on high-priority lines.
    pub priority_hits: u64,
    /// L2 sets whose protected-line count reached the 8-way cap.
    pub saturated_sets: u64,
    /// Zero-commit cycles blamed on the front end.
    pub fe_stall: u64,
    /// Zero-commit cycles blamed on the back end.
    pub be_stall: u64,
    /// Decode-starvation cycles.
    pub starvation: u64,
    /// Blocks the fetch engine predicted.
    pub blocks: u64,
    /// BTB misses among them.
    pub btb_misses: u64,
    /// Flushing mispredictions (conditional, indirect, return).
    pub mispredicts: u64,
    /// Demand requests that joined an in-flight miss.
    pub inflight_joins: u64,
    /// L1I plus L1D demand misses.
    pub l1_demand_misses: u64,
    /// Lines read from DRAM.
    pub dram_reads: u64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

impl Counts {
    /// Adds the front-end and memory counters only the metrics export
    /// carries (the simulator's `metrics_into`, per run or summed in a
    /// registry snapshot).
    pub fn add_metrics(&mut self, m: &[Metric]) {
        let c = |family: &str| counter_sum(m, family, None);
        let level = |family: &str, l: &str| counter_sum(m, family, Some(("level", l)));
        self.blocks += c("emissary_frontend_blocks_total");
        self.btb_misses += c("emissary_frontend_btb_misses_total");
        self.mispredicts += c("emissary_frontend_cond_mispredicts_total")
            + c("emissary_frontend_indirect_mispredicts_total")
            + c("emissary_frontend_return_mispredicts_total");
        self.inflight_joins += c("emissary_inflight_joins_total");
        self.l1_demand_misses += level("emissary_cache_demand_misses_total", "l1i")
            + level("emissary_cache_demand_misses_total", "l1d");
        self.dram_reads += c("emissary_dram_reads_total");
    }

    /// Adds one run's report. Stream misses come back from its MPKIs.
    pub fn add_report(&mut self, r: &SimReport) {
        let misses = |mpki: f64| mpki * r.committed as f64 / 1000.0;
        self.committed += r.committed;
        self.cycles += r.cycles;
        self.l1i_misses += misses(r.l1i_mpki);
        self.l2i_misses += misses(r.l2i_mpki);
        self.l2d_misses += misses(r.l2d_mpki);
        self.marks += r.priority_marks;
        self.priority_hits += r.l2_priority_hits;
        self.saturated_sets += r.priority_histogram[8];
        self.fe_stall += r.fe_stall_cycles;
        self.be_stall += r.be_stall_cycles;
        self.starvation += r.starvation_cycles;
    }

    /// The counts of a machine's measurement window, read the way the
    /// runner assembles its report.
    pub fn from_machine(machine: &Machine<'_>) -> Counts {
        let mut lm = LocalMetrics::new();
        machine.metrics_into(&mut lm);
        let m = lm.entries();
        let c = |family: &str| counter_sum(m, family, None);
        let h = machine.hierarchy();
        let mut counts = Counts {
            committed: c("emissary_sim_committed_instrs_total"),
            cycles: c("emissary_sim_cycles_total"),
            l1i_misses: h.l1i.stats().instr_stream_misses() as f64,
            l2i_misses: h.l2.stats().instr_stream_misses() as f64,
            l2d_misses: h.l2.stats().data_misses as f64,
            marks: c("emissary_sim_priority_marks_total"),
            priority_hits: h.l2.stats().priority_hits,
            saturated_sets: machine.priority_histogram()[8],
            fe_stall: c("emissary_sim_fe_stall_cycles_total"),
            be_stall: c("emissary_sim_be_stall_cycles_total"),
            starvation: c("emissary_sim_starvation_cycles_total"),
            ..Counts::default()
        };
        counts.add_metrics(m);
        counts
    }

    fn pki(&self, events: f64) -> f64 {
        ratio(events * 1000.0, self.committed as f64)
    }

    /// The simulated per-layer counts, by metric name.
    pub fn layer_metrics(&self) -> Vec<(&'static str, f64)> {
        let cycles = self.cycles as f64;
        vec![
            (
                "frontend.btb_miss_ratio",
                ratio(self.btb_misses as f64, self.blocks as f64),
            ),
            ("frontend.mispredict_pki", self.pki(self.mispredicts as f64)),
            ("cache.l1i_mpki", self.pki(self.l1i_misses)),
            ("cache.l2i_mpki", self.pki(self.l2i_misses)),
            ("cache.l2d_mpki", self.pki(self.l2d_misses)),
            (
                "cache.inflight_join_ratio",
                ratio(self.inflight_joins as f64, self.l1_demand_misses as f64),
            ),
            ("cache.dram_reads_pki", self.pki(self.dram_reads as f64)),
            ("core.marks_pki", self.pki(self.marks as f64)),
            (
                "core.protected_hit_ratio",
                ratio(self.priority_hits as f64, self.marks as f64),
            ),
            ("core.saturated_sets", self.saturated_sets as f64),
            (
                "sim.zero_commit_frac",
                ratio((self.fe_stall + self.be_stall) as f64, cycles),
            ),
            ("sim.ipc", ratio(self.committed as f64, cycles)),
            ("sim.starvation_frac", ratio(self.starvation as f64, cycles)),
        ]
    }
}

/// One instance's result, printed as one JSON line for `run.py`.
#[derive(Debug, Clone, Default)]
pub struct Record {
    /// Jobs whose outcome was checked.
    pub jobs_attempted: u64,
    /// Jobs that panicked, aborted, committed less than their window, or
    /// replayed a different report than they simulated.
    pub failures: Vec<String>,
    /// Digest of the simulated reports.
    pub digest: u64,
    /// Digest of the same reports replayed by the resume pass
    /// (campaign-mix), which must equal `digest`.
    pub second_digest: Option<u64>,
    /// Simulated cycles, summed over the instance's unique jobs.
    pub cycles: u64,
    /// Committed instructions, summed likewise.
    pub committed: u64,
    /// Host seconds before the first simulated cycle.
    pub setup_s: f64,
    /// Host seconds of the whole instance.
    pub wall_s: f64,
    /// Committed instructions per host second of simulation, millions.
    pub sim_mips: f64,
    /// Host seconds of each simulated job.
    pub job_s: Vec<f64>,
    /// Resume-pass wall seconds (campaign-mix).
    pub replay_s: Option<f64>,
    /// Simulated counts shown for review.
    pub counts: Vec<(&'static str, f64)>,
    /// Per-layer metrics (traced instances).
    pub layers: Vec<(&'static str, f64)>,
    /// Self seconds per layer (traced instances).
    pub layer_self_s: Vec<(&'static str, f64)>,
}

fn f64_map(pairs: &[(&'static str, f64)]) -> String {
    let mut obj = JsonObject::new();
    for &(k, v) in pairs {
        obj.field_f64(k, v);
    }
    obj.finish()
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    emissary_obs::json::escape_into(&mut out, s);
    out.push('"');
    out
}

impl Record {
    /// Sets the review counts from a report-level [`Counts`].
    pub fn set_counts(&mut self, c: &Counts) {
        self.cycles = c.cycles;
        self.committed = c.committed;
        self.counts = vec![
            ("cycles", c.cycles as f64),
            ("committed", c.committed as f64),
        ];
        self.counts.extend(c.layer_metrics());
    }

    /// The record as one JSON object.
    pub fn to_json(&self, workload: &str, seed: u64, traced: bool) -> String {
        let mut obj = JsonObject::new();
        obj.field_str("workload", workload)
            .field_u64("seed", seed)
            .field_bool("traced", traced)
            .field_u64("jobs_attempted", self.jobs_attempted)
            .field_u64("jobs_failed", self.failures.len() as u64)
            .field_raw(
                "failures",
                &format!(
                    "[{}]",
                    self.failures
                        .iter()
                        .map(|f| json_string(f))
                        .collect::<Vec<_>>()
                        .join(",")
                ),
            )
            .field_str("digest", &format!("{:016x}", self.digest));
        if let Some(d) = self.second_digest {
            obj.field_str("second_digest", &format!("{d:016x}"));
        }
        obj.field_u64("cycles", self.cycles)
            .field_u64("committed", self.committed)
            .field_f64("setup_s", self.setup_s)
            .field_f64("wall_s", self.wall_s)
            .field_f64("sim_mips", self.sim_mips)
            .field_raw(
                "job_s",
                &format!(
                    "[{}]",
                    self.job_s
                        .iter()
                        .map(|v| format!("{v}"))
                        .collect::<Vec<_>>()
                        .join(",")
                ),
            );
        if let Some(r) = self.replay_s {
            obj.field_f64("replay_s", r);
        }
        obj.field_f64("peak_rss_mb", peak_rss_mb())
            .field_raw("counts", &f64_map(&self.counts))
            .field_raw("layers", &f64_map(&self.layers))
            .field_raw("layer_self_s", &f64_map(&self.layer_self_s));
        obj.finish()
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 where the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_depends_on_every_report_and_their_order() {
        let profile = emissary_workloads::Profile::by_name("xapian").unwrap();
        let cfg = emissary_sim::SimConfig {
            warmup_instrs: 2_000,
            measure_instrs: 8_000,
            ..Default::default()
        };
        let a = emissary_sim::run_sim(&profile, &cfg);
        let mut b = a.clone();
        b.cycles += 1;
        assert_eq!(digest([&a]), digest([&a.clone()]));
        assert_ne!(digest([&a]), digest([&b]));
        assert_ne!(digest([&a, &b]), digest([&b, &a]));
    }

    #[test]
    fn ratios_of_empty_counts_are_zero() {
        for (name, v) in Counts::default().layer_metrics() {
            assert_eq!(v, 0.0, "{name}");
        }
    }

    #[test]
    fn peak_rss_is_reported_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mb() > 0.0);
        }
    }
}
