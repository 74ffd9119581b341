//! Run-length, parallelism, and observability scaling via environment
//! variables.

use std::env;
use std::path::PathBuf;

fn env_u64(name: &str, default: u64) -> u64 {
    env::var(name)
        .ok()
        .and_then(|v| v.replace('_', "").parse().ok())
        .filter(|&v| v > 0)
        .unwrap_or(default)
}

/// Measurement window in committed instructions
/// (`EMISSARY_MEASURE_INSNS`, default 8,000,000). EMISSARY's `R(1/r)`
/// filter accumulates protected lines over tens of millions of
/// instructions (the paper simulates 100M); shorter windows shift the
/// best `r` toward larger probabilities — see EXPERIMENTS.md.
pub fn measure_instrs() -> u64 {
    env_u64("EMISSARY_MEASURE_INSNS", 8_000_000)
}

/// Warmup in committed instructions
/// (`EMISSARY_WARMUP_INSNS`, default 4,000,000). Warmup also accumulates
/// EMISSARY priority marks (microarchitectural state persists across the
/// measurement boundary, as in the paper's checkpoint-restore protocol).
pub fn warmup_instrs() -> u64 {
    env_u64("EMISSARY_WARMUP_INSNS", 4_000_000)
}

/// Interval-sampling period in committed instructions
/// (`EMISSARY_SAMPLE_INTERVAL`; unset or `0` disables sampling). When
/// set, every job snapshots IPC, L1I/L2I MPKI, starvation cycles, and
/// the per-set priority-occupancy histogram at this period, and the
/// samples land in the experiment's `results/<name>.jsonl`.
pub fn sample_interval() -> Option<u64> {
    env::var("EMISSARY_SAMPLE_INTERVAL")
        .ok()
        .and_then(|v| v.replace('_', "").parse().ok())
        .filter(|&v| v > 0)
}

/// Event-trace output directory (`EMISSARY_TRACE_OUT`; unset disables
/// tracing). When set, every job streams its cycle-stamped event trace
/// (L2 fills/evictions/bypasses, priority marks, Algorithm 1 protection
/// decisions, decode-starvation episodes) to one `.jsonl` file under
/// this directory.
pub fn trace_out() -> Option<PathBuf> {
    env::var("EMISSARY_TRACE_OUT")
        .ok()
        .filter(|v| !v.is_empty())
        .map(PathBuf::from)
}

/// Per-job wall-clock budget in milliseconds (`EMISSARY_JOB_TIMEOUT_MS`;
/// unset or `0` disables the budget). The deadline starts when the job
/// starts, not when the campaign does.
pub fn job_timeout_ms() -> Option<u64> {
    env::var("EMISSARY_JOB_TIMEOUT_MS")
        .ok()
        .and_then(|v| v.replace('_', "").parse().ok())
        .filter(|&v| v > 0)
}

/// Forward-progress watchdog threshold in cycles
/// (`EMISSARY_STALL_CYCLES`, default
/// [`emissary_sim::fault::DEFAULT_STALL_CYCLES`]; `0` disables it).
pub fn stall_cycles() -> Option<u64> {
    match env::var("EMISSARY_STALL_CYCLES")
        .ok()
        .and_then(|v| v.replace('_', "").parse().ok())
    {
        Some(0) => None,
        Some(n) => Some(n),
        None => Some(emissary_sim::fault::DEFAULT_STALL_CYCLES),
    }
}

/// Whether the invariant auditor runs at epoch boundaries
/// (`EMISSARY_AUDIT=1`).
pub fn audit() -> bool {
    env::var("EMISSARY_AUDIT")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Whether campaigns resume from their checkpoint files
/// (`EMISSARY_RESUME=1`).
pub fn resume() -> bool {
    env::var("EMISSARY_RESUME")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Whether the campaign scheduler prints its stderr progress line
/// (`EMISSARY_PROGRESS=0` silences it; default on).
pub fn progress() -> bool {
    env::var("EMISSARY_PROGRESS")
        .map(|v| v != "0")
        .unwrap_or(true)
}

/// Bounded retry budget for `Panicked`/retryable-`Aborted` job outcomes
/// (`EMISSARY_JOB_RETRIES`, default 1; `0` disables retry). A job is
/// attempted at most `1 + retries` times; each failed attempt is recorded
/// as a `job_failure` JSONL record carrying its attempt number.
pub fn job_retries() -> u32 {
    env::var("EMISSARY_JOB_RETRIES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}

/// Base retry-backoff unit in milliseconds (`EMISSARY_RETRY_BACKOFF_MS`,
/// default [`crate::pool::RETRY_BACKOFF_MS`]; `0` disables the sleep
/// entirely). Attempt `n` sleeps roughly `n × base` before attempt
/// `n + 1`, with a seed-deterministic jitter component so many workers
/// retrying at once do not synchronize into a thundering herd (see
/// [`crate::chaos::retry_backoff`]).
pub fn retry_backoff_ms() -> u64 {
    env::var("EMISSARY_RETRY_BACKOFF_MS")
        .ok()
        .and_then(|v| v.replace('_', "").parse().ok())
        .unwrap_or(crate::pool::RETRY_BACKOFF_MS)
}

/// Fault-injection drill (`EMISSARY_INJECT_PANIC=<benchmark>/<policy>`):
/// the matching job panics instead of running, exercising the harness's
/// failure path end to end.
pub fn inject_panic() -> Option<String> {
    env::var("EMISSARY_INJECT_PANIC")
        .ok()
        .filter(|v| !v.is_empty())
}

/// Whether the metrics subsystem records (`EMISSARY_METRICS`, default
/// on; `0` disables). Metrics are merge-at-drain and export only after
/// each simulation finishes, so leaving them on cannot perturb
/// simulated behaviour (the metrics-smoke test holds both bit-identity
/// and a < 2% throughput overhead budget).
pub fn metrics() -> bool {
    env::var(emissary_obs::ENV_METRICS)
        .map(|v| v != "0")
        .unwrap_or(true)
}

/// Optional periodic metrics-dump interval in milliseconds
/// (`EMISSARY_METRICS_INTERVAL_MS`; unset or `0` disables). When set,
/// the campaign re-renders `results/metrics.prom` at this period while
/// jobs run, so long campaigns can be watched live.
pub fn metrics_interval_ms() -> Option<u64> {
    env::var(emissary_obs::ENV_METRICS_INTERVAL_MS)
        .ok()
        .and_then(|v| v.replace('_', "").parse().ok())
        .filter(|&v| v > 0)
}

/// Worker threads (`EMISSARY_THREADS`, default: available parallelism).
pub fn threads() -> usize {
    env::var("EMISSARY_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&v: &usize| v > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_positive() {
        // Don't mutate the environment (tests run in parallel); defaults
        // apply when unset.
        assert!(measure_instrs() > 0);
        assert!(warmup_instrs() > 0);
        assert!(threads() > 0);
    }

    #[test]
    fn env_parser_handles_underscores_and_garbage() {
        assert_eq!(env_u64("UNSET_TEST_VAR_XYZ", 42), 42);
    }

    #[test]
    fn observability_defaults_to_off() {
        // Unset in the test environment: both knobs must read as disabled.
        assert_eq!(sample_interval(), None);
        assert_eq!(trace_out(), None);
    }

    #[test]
    fn fault_knobs_default_sanely() {
        // Unset in the test environment: no budget, watchdog armed at its
        // default threshold, no injection.
        assert_eq!(job_timeout_ms(), None);
        assert_eq!(
            stall_cycles(),
            Some(emissary_sim::fault::DEFAULT_STALL_CYCLES)
        );
        assert_eq!(inject_panic(), None);
        // Like the audit flag below, compare against the live environment
        // rather than assuming the knob is unset.
        assert_eq!(
            retry_backoff_ms(),
            env::var("EMISSARY_RETRY_BACKOFF_MS")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(crate::pool::RETRY_BACKOFF_MS)
        );
        // CI runs the suite with EMISSARY_AUDIT=1, so compare the flags
        // against the live environment instead of assuming unset.
        assert_eq!(
            audit(),
            env::var("EMISSARY_AUDIT")
                .map(|v| v == "1")
                .unwrap_or(false)
        );
        assert_eq!(
            resume(),
            env::var("EMISSARY_RESUME")
                .map(|v| v == "1")
                .unwrap_or(false)
        );
    }

    #[test]
    fn campaign_knobs_default_to_scheduled_with_progress() {
        assert_eq!(
            progress(),
            env::var("EMISSARY_PROGRESS")
                .map(|v| v != "0")
                .unwrap_or(true)
        );
    }
}
