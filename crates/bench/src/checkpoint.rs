//! Campaign checkpointing and the cross-experiment job memo.
//!
//! Completed jobs stream to a checkpoint file keyed by a stable job
//! fingerprint, and the same map doubles as an **in-process memo**: once
//! any experiment in the process has simulated a config, every later
//! request for the same fingerprint — from the same figure or a different
//! one — replays the stored [`SimRun`] bit-identically instead of
//! re-simulating. The 13-benchmark baseline and EMISSARY-preferred rows
//! recur across fig2/fig3/fig4/fig6/fig7/table5; the memo collapses them
//! to one simulation each.
//!
//! A fingerprint is `<benchmark>|<policy notation>|<config hash>` — the
//! hash covers the *entire* [`SimConfig`](emissary_sim::SimConfig) (via
//! its `Debug` rendering), so two jobs that differ in any knob (run
//! lengths, hierarchy geometry, reset interval, seed, …) never collide.
//! The experiment (figure) name is **metadata only**: it is recorded on
//! each checkpoint line for provenance but takes no part in the key, so
//! resume state is shared across figures instead of siloed per binary.
//!
//! The process-global campaign spans experiments: [`begin`] opens the
//! unified `results/campaign.ckpt.jsonl` once and later calls merely
//! relabel the experiment metadata. `EMISSARY_RESUME=1` loads completed
//! jobs at open, so a second campaign over a warm checkpoint simulates
//! nothing.
//!
//! The checkpoint file is append-only JSONL. Failed jobs are recorded too
//! (with their failure kind and attempt number), but only
//! `"status":"completed"` records are replayed on resume — a resumed
//! campaign re-runs exactly the jobs that did not finish. Records are
//! replayed last-wins per fingerprint.
//!
//! Resume is corruption-tolerant: lines that do not parse as complete
//! checkpoint records (torn tails from a killed process, garbage from a
//! bad disk) are **quarantined** — moved verbatim to
//! `<name>.ckpt.quarantine` — and the checkpoint file is atomically
//! rewritten (temp file + fsync + rename) with only the good lines, so
//! the next resume starts from a clean segment. All filesystem access
//! goes through [`crate::chaos::CkptIo`], so the chaos layer can inject
//! I/O errors and torn writes at every step; any open/append failure
//! logs a `ckpt_error` record (see [`crate::results`]) and degrades the
//! campaign to memo-only (in-process) mode instead of silently not
//! persisting.

use std::collections::HashMap;
use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};

use emissary_obs::{jsonl_lines, JsonObject, JsonValue};
use emissary_sim::{SimReport, SimRun};

use crate::chaos::{lock_unpoisoned, CkptIo};
use crate::pool::JobOutcome;
use crate::Job;

/// FNV-1a 64-bit: tiny, dependency-free, stable across runs (unlike
/// `DefaultHasher`, whose output may change between Rust releases).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Stable hash of a job's full configuration.
pub fn config_hash(job: &Job) -> u64 {
    fnv1a64(format!("{:?}", job.config).as_bytes())
}

/// Stable identity of one simulation job within a campaign:
/// `<benchmark>|<policy>|<config hash>`. Deliberately excludes the
/// experiment name — identical configs in different figures are the same
/// job.
pub fn fingerprint(job: &Job) -> String {
    format!(
        "{}|{}|{:016x}",
        job.profile.name,
        job.config.l2_policy,
        config_hash(job)
    )
}

/// Process-wide counters of how jobs were satisfied, across every pool
/// run (with or without an active campaign). `simulated` counts fresh
/// completed simulations, `replayed` counts memo/checkpoint hits, and
/// `failed` counts panicked/aborted/rejected jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct JobCounters {
    /// Fresh completed simulations.
    pub simulated: u64,
    /// Jobs served from the campaign memo or checkpoint.
    pub replayed: u64,
    /// Jobs that panicked, aborted, or were rejected.
    pub failed: u64,
}

static SIMULATED: AtomicU64 = AtomicU64::new(0);
static REPLAYED: AtomicU64 = AtomicU64::new(0);
static FAILED: AtomicU64 = AtomicU64::new(0);

/// Snapshot of the process-wide job counters.
pub fn counters() -> JobCounters {
    JobCounters {
        simulated: SIMULATED.load(Ordering::Relaxed),
        replayed: REPLAYED.load(Ordering::Relaxed),
        failed: FAILED.load(Ordering::Relaxed),
    }
}

pub(crate) fn note_simulated() {
    SIMULATED.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn note_replayed() {
    REPLAYED.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn note_failed() {
    FAILED.fetch_add(1, Ordering::Relaxed);
}

/// One campaign's dedup state: the fingerprint → run memo (seeded from
/// the checkpoint file on resume, grown by every fresh completion) plus
/// a **single-writer drain thread** that owns the `BufWriter` and the
/// campaign's [`CkptIo`]. Workers never touch the writer: [`record`]
/// inserts into the memo (one mutex-guarded map) and sends a
/// pre-rendered record down an unbounded channel; the drain thread
/// appends and flushes in arrival order.
/// [`sync`] is the durability barrier: it round-trips a flush token
/// through the channel, so when it returns every previously sent record
/// is on disk — the pool calls it before returning, and the serve layer
/// calls it before journaling a job done (journal-before-ack holds at
/// the drain point).
///
/// [`record`]: Campaign::record
/// [`sync`]: Campaign::sync
pub struct Campaign {
    path: PathBuf,
    quarantine_path: PathBuf,
    memo: Mutex<HashMap<String, SimRun>>,
    loaded: usize,
    quarantined: u64,
    /// False once the campaign is memo-only (writer failed at open, or
    /// the drain thread dropped it after an unsalvageable append).
    persistent: Arc<AtomicBool>,
    /// Records the drain thread has processed (appended or, in
    /// memo-only mode, discarded).
    drained: Arc<AtomicU64>,
    tx: Option<mpsc::Sender<DrainMsg>>,
    drain: Option<std::thread::JoinHandle<()>>,
}

/// What workers send to the drain thread. Records carry their JSON
/// payload pre-rendered (report + samples serialization is the
/// expensive part and parallelizes in the workers); the drain thread
/// owns the current experiment label and assembles the final line.
enum DrainMsg {
    Record(CkptRecord),
    SetExperiment(String),
    /// Durability barrier: ack after everything before it is flushed.
    Flush(mpsc::SyncSender<()>),
}

/// One checkpoint record, rendered on the worker except for the
/// experiment label (drain-thread state).
struct CkptRecord {
    fp: String,
    benchmark: String,
    policy: String,
    status: &'static str,
    attempts: u32,
    payload: RecordPayload,
}

enum RecordPayload {
    Completed {
        report_json: String,
        samples_json: String,
        host_seconds: f64,
        warmup_seconds: f64,
        measure_seconds: f64,
    },
    Failed {
        error: String,
    },
}

impl CkptRecord {
    fn from_outcome(fp: &str, outcome: &JobOutcome) -> CkptRecord {
        let payload = match outcome {
            JobOutcome::Completed { run, .. } => {
                let samples: Vec<String> = run.samples.iter().map(|s| s.to_json()).collect();
                RecordPayload::Completed {
                    report_json: run.report.to_json(),
                    samples_json: format!("[{}]", samples.join(",")),
                    host_seconds: run.host_seconds,
                    warmup_seconds: run.warmup_seconds,
                    measure_seconds: run.measure_seconds,
                }
            }
            failed => RecordPayload::Failed {
                error: failed.describe(),
            },
        };
        CkptRecord {
            fp: fp.to_string(),
            benchmark: outcome.benchmark().to_string(),
            policy: outcome.policy().to_string(),
            status: outcome.status(),
            attempts: outcome.attempts(),
            payload,
        }
    }

    fn render(&self, experiment: &str) -> String {
        let mut obj = JsonObject::new();
        obj.field_str("record", "ckpt")
            .field_str("fingerprint", &self.fp)
            .field_str("experiment", experiment)
            .field_str("benchmark", &self.benchmark)
            .field_str("policy", &self.policy)
            .field_str("status", self.status)
            .field_u64("attempts", u64::from(self.attempts));
        match &self.payload {
            RecordPayload::Completed {
                report_json,
                samples_json,
                host_seconds,
                warmup_seconds,
                measure_seconds,
            } => {
                obj.field_raw("report", report_json);
                obj.field_raw("samples", samples_json);
                // Timing fields stay last: the chaos byte-identity test
                // (and any reader comparing records sans wall-clock
                // noise) strips the record tail starting at
                // `host_seconds`.
                obj.field_raw("host_seconds", &format!("{host_seconds:.6}"));
                obj.field_raw("warmup_seconds", &format!("{warmup_seconds:.6}"));
                obj.field_raw("measure_seconds", &format!("{measure_seconds:.6}"));
            }
            RecordPayload::Failed { error } => {
                obj.field_str("error", error);
            }
        }
        obj.finish()
    }
}

/// The drain thread: sole owner of the writer and the [`CkptIo`].
/// Append failures degrade exactly as the old in-line path did — log a
/// `ckpt_error`, terminate the torn line with a bare newline, and drop
/// to memo-only if even that fails. Must never panic: the pool and the
/// serve layer block on [`Campaign::sync`] acks.
fn drain_loop(
    rx: &mpsc::Receiver<DrainMsg>,
    io: &dyn CkptIo,
    mut writer: Option<BufWriter<fs::File>>,
    path: &Path,
    mut experiment: String,
    persistent: &AtomicBool,
    drained: &AtomicU64,
) {
    while let Ok(msg) = rx.recv() {
        match msg {
            DrainMsg::SetExperiment(name) => experiment = name,
            DrainMsg::Flush(ack) => {
                // Appends flush per line; this catches a salvage newline
                // that may still sit in the BufWriter.
                if let Some(w) = writer.as_mut() {
                    let _ = w.flush();
                }
                let _ = ack.send(());
            }
            DrainMsg::Record(rec) => {
                drained.fetch_add(1, Ordering::Relaxed);
                let Some(w) = writer.as_mut() else { continue };
                let line = rec.render(&experiment);
                if let Err(e) = io.append_line(w, &line) {
                    crate::results::log_ckpt_error(path, "append", &e);
                    eprintln!("checkpoint: write to {} failed: {e}", path.display());
                    // Terminate whatever prefix landed so the *next*
                    // record gets its own line; the torn one quarantines
                    // on resume.
                    let salvage = w.write_all(b"\n").and_then(|()| w.flush());
                    if salvage.is_err() {
                        writer = None; // memo-only from here on
                        persistent.store(false, Ordering::Relaxed);
                    }
                }
            }
        }
    }
}

impl Campaign {
    /// Opens the campaign `<dir>/<name>.ckpt.jsonl` with I/O from the
    /// environment ([`crate::chaos::io_from_env`]: chaos-injected when
    /// `EMISSARY_CHAOS_SEED` is set, plain `std::fs` otherwise). With
    /// `resume` set, previously completed jobs are loaded and will be
    /// replayed; otherwise any existing checkpoint file is truncated (a
    /// fresh campaign records from scratch).
    pub fn begin_with(name: &str, dir: &Path, resume: bool) -> Campaign {
        Self::begin_with_io(name, dir, resume, crate::chaos::io_from_env())
    }

    /// [`Campaign::begin_with`] over an explicit [`CkptIo`].
    ///
    /// Every failure degrades instead of aborting: an unreadable
    /// checkpoint resumes empty, unusable lines are quarantined to
    /// `<name>.ckpt.quarantine` (and the checkpoint atomically rewritten
    /// without them), and an unopenable writer leaves the campaign in
    /// memo-only mode — in-process dedup still works, nothing persists.
    /// Each degradation logs a `ckpt_error` record.
    pub fn begin_with_io(name: &str, dir: &Path, resume: bool, io: Box<dyn CkptIo>) -> Campaign {
        let path = dir.join(format!("{name}.ckpt.jsonl"));
        let quarantine_path = dir.join(format!("{name}.ckpt.quarantine"));
        let (loaded_memo, quarantined) = if resume {
            salvage_checkpoint(&*io, &path, &quarantine_path)
        } else {
            (HashMap::new(), 0)
        };
        if let Err(e) = io.create_dir_all(dir) {
            crate::results::log_ckpt_error(&path, "mkdir", &e);
            eprintln!("checkpoint: cannot create {}: {e}", dir.display());
        }
        let writer = match io.open_writer(&path, resume) {
            Ok(f) => Some(BufWriter::new(f)),
            Err(e) => {
                crate::results::log_ckpt_error(&path, "open", &e);
                eprintln!(
                    "checkpoint: cannot open {}: {e}; continuing memo-only \
                     (in-process dedup still active, nothing will persist)",
                    path.display()
                );
                None
            }
        };
        let loaded = loaded_memo.len();
        // `persistent` reflects the writer synchronously at open time —
        // memo-only degradation must be observable before any record is
        // drained.
        let persistent = Arc::new(AtomicBool::new(writer.is_some()));
        let drained = Arc::new(AtomicU64::new(0));
        let (tx, rx) = mpsc::channel();
        let drain = {
            let path = path.clone();
            let experiment = name.to_string();
            let persistent = Arc::clone(&persistent);
            let drained = Arc::clone(&drained);
            std::thread::Builder::new()
                .name("ckpt-drain".into())
                .spawn(move || {
                    drain_loop(&rx, &*io, writer, &path, experiment, &persistent, &drained);
                })
                .expect("spawn checkpoint drain thread")
        };
        Campaign {
            path,
            quarantine_path,
            memo: Mutex::new(loaded_memo),
            loaded,
            quarantined,
            persistent,
            drained,
            tx: Some(tx),
            drain: Some(drain),
        }
    }

    /// The checkpoint file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The quarantine file path (`<name>.ckpt.quarantine`).
    pub fn quarantine_path(&self) -> &Path {
        &self.quarantine_path
    }

    /// Number of completed jobs loaded from the checkpoint file for
    /// replay (the memo grows past this as fresh jobs complete).
    pub fn resumable(&self) -> usize {
        self.loaded
    }

    /// Number of unusable checkpoint lines quarantined at open.
    pub fn quarantined(&self) -> u64 {
        self.quarantined
    }

    /// Whether outcomes are persisting to the checkpoint file (false
    /// after degradation to memo-only mode).
    pub fn persistent(&self) -> bool {
        self.persistent.load(Ordering::Relaxed)
    }

    /// Number of completed jobs currently replayable (loaded + fresh).
    pub fn memoized(&self) -> usize {
        lock_unpoisoned(&self.memo).len()
    }

    /// Number of records the drain thread has processed so far.
    pub fn drained_records(&self) -> u64 {
        self.drained.load(Ordering::Relaxed)
    }

    /// Relabels the experiment recorded on subsequent checkpoint lines.
    /// Metadata only: the memo and fingerprints are unaffected. The
    /// relabel travels through the drain channel, so it applies to
    /// exactly the records sent after it.
    pub fn set_experiment(&self, name: &str) {
        if let Some(tx) = &self.tx {
            let _ = tx.send(DrainMsg::SetExperiment(name.to_string()));
        }
    }

    /// Looks up a completed run for this fingerprint.
    pub fn cached(&self, fp: &str) -> Option<SimRun> {
        lock_unpoisoned(&self.memo).get(fp).cloned()
    }

    /// Records one outcome: completed runs enter the in-process memo
    /// synchronously (read-your-writes — a duplicate submission replays
    /// the instant this returns), and the rendered record is queued for
    /// the drain thread, which appends and flushes it in order.
    /// Durability is deferred to [`Campaign::sync`]; a killed campaign
    /// loses at most the records not yet synced, which resume re-runs.
    ///
    /// A failed append in the drain thread logs a `ckpt_error` record
    /// and tries to terminate the (possibly torn) line with a bare
    /// newline so the next record starts clean; if even that fails the
    /// writer is dropped and the campaign continues memo-only.
    pub fn record(&self, fp: &str, outcome: &JobOutcome) {
        if let JobOutcome::Completed { run, .. } = outcome {
            lock_unpoisoned(&self.memo).insert(fp.to_string(), (**run).clone());
        }
        if let Some(tx) = &self.tx {
            let _ = tx.send(DrainMsg::Record(CkptRecord::from_outcome(fp, outcome)));
        }
    }

    /// Durability barrier: blocks until every record sent before this
    /// call has been appended and flushed (or discarded, in memo-only
    /// mode). The pool calls this before returning from a parallel run;
    /// the serve layer calls it before journaling a job done.
    pub fn sync(&self) {
        if let Some(tx) = &self.tx {
            let (ack_tx, ack_rx) = mpsc::sync_channel(0);
            if tx.send(DrainMsg::Flush(ack_tx)).is_ok() {
                let _ = ack_rx.recv();
            }
        }
    }
}

impl Drop for Campaign {
    fn drop(&mut self) {
        // Close the channel, then join: the drain thread finishes the
        // queued tail and exits, so dropping a campaign is itself a
        // durability barrier.
        drop(self.tx.take());
        if let Some(h) = self.drain.take() {
            let _ = h.join();
        }
    }
}

/// Decodes one parsed checkpoint record. `Ok(Some(..))` is a completed
/// run to memoize, `Ok(None)` a valid non-completed record (failures are
/// kept for provenance but never replayed), `Err(())` an object that is
/// not a usable checkpoint record — quarantine it.
fn decode_record(v: &JsonValue) -> Result<Option<(String, SimRun)>, ()> {
    let fp = v.get("fingerprint").and_then(|f| f.as_str()).ok_or(())?;
    let status = v.get("status").and_then(|s| s.as_str()).ok_or(())?;
    if status != "completed" {
        // A later failure record does not invalidate an earlier
        // completed one: keep whatever we have.
        return Ok(None);
    }
    let report = v.get("report").and_then(SimReport::from_json).ok_or(())?;
    let samples: Vec<_> = match v.get("samples").and_then(|s| s.as_array()) {
        Some(items) => items
            .iter()
            .map(emissary_obs::IntervalSample::from_json)
            .collect::<Option<Vec<_>>>()
            .ok_or(())?,
        None => Vec::new(),
    };
    let seconds = |key: &str| v.get(key).and_then(|h| h.as_f64()).unwrap_or(0.0);
    Ok(Some((
        fp.to_string(),
        SimRun {
            report,
            samples,
            host_seconds: seconds("host_seconds"),
            // Absent on pre-metrics checkpoints: stage attribution is
            // simply unknown for replayed runs, not an error.
            warmup_seconds: seconds("warmup_seconds"),
            measure_seconds: seconds("measure_seconds"),
        },
    )))
}

/// Loads a checkpoint file for resume, quarantining every unusable line.
///
/// Good lines (complete JSON checkpoint records — completed runs with a
/// parseable report, or failure records) are kept; completed runs enter
/// the returned memo last-wins per fingerprint. Bad lines (torn tails,
/// garbage, records missing their payload) are appended verbatim to
/// `quarantine` and the checkpoint is atomically rewritten (temp file +
/// fsync + rename) with only the good lines, so the next resume starts
/// from a clean segment. Returns the memo and the quarantined-line count.
fn salvage_checkpoint(
    io: &dyn CkptIo,
    path: &Path,
    quarantine: &Path,
) -> (HashMap<String, SimRun>, u64) {
    let text = match io.read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            if e.kind() != io::ErrorKind::NotFound {
                crate::results::log_ckpt_error(path, "read", &e);
                eprintln!(
                    "checkpoint: cannot read {}: {e}; resuming empty",
                    path.display()
                );
            }
            return (HashMap::new(), 0);
        }
    };
    let mut memo = HashMap::new();
    let mut good: Vec<&str> = Vec::new();
    let mut bad: Vec<&str> = Vec::new();
    for line in jsonl_lines(&text) {
        let usable = line.parsed.as_ref().map_err(|_| ()).and_then(decode_record);
        match usable {
            Ok(entry) => {
                good.push(line.raw);
                if let Some((fp, run)) = entry {
                    memo.insert(fp, run);
                }
            }
            Err(()) => bad.push(line.raw),
        }
    }
    if !bad.is_empty() {
        quarantine_lines(io, quarantine, &bad);
        // Rotate the checkpoint to just the good lines so torn tails are
        // not re-parsed (and re-quarantined) by every later resume.
        let mut contents = good.join("\n");
        if !contents.is_empty() {
            contents.push('\n');
        }
        if let Err(e) = io.replace_file(path, &contents) {
            crate::results::log_ckpt_error(path, "rotate", &e);
            eprintln!(
                "checkpoint: cannot rewrite {} after quarantine: {e}",
                path.display()
            );
        }
    }
    (memo, bad.len() as u64)
}

/// Appends unusable checkpoint lines verbatim to the quarantine file
/// (best-effort: quarantine exists for post-mortems, losing it must not
/// block the resume itself).
fn quarantine_lines(io: &dyn CkptIo, quarantine: &Path, lines: &[&str]) {
    let mut w = match io.open_writer(quarantine, true) {
        Ok(f) => BufWriter::new(f),
        Err(e) => {
            crate::results::log_ckpt_error(quarantine, "quarantine", &e);
            eprintln!(
                "checkpoint: cannot open quarantine {}: {e}; {} bad line(s) dropped",
                quarantine.display(),
                lines.len()
            );
            return;
        }
    };
    for line in lines {
        if let Err(e) = io.append_line(&mut w, line) {
            crate::results::log_ckpt_error(quarantine, "quarantine", &e);
            eprintln!(
                "checkpoint: quarantine write to {} failed: {e}",
                quarantine.display()
            );
            return;
        }
    }
}

/// The name of the unified cross-experiment campaign file under
/// `results/`: `campaign.ckpt.jsonl`.
pub const UNIFIED_CAMPAIGN: &str = "campaign";

/// The process-global campaign, shared by every experiment the process
/// runs (mirroring the process-global run log in [`crate::results`]).
static CAMPAIGN: Mutex<Option<Campaign>> = Mutex::new(None);

/// Opens (or relabels) the global campaign for experiment `name`.
///
/// All experiments in a process share one campaign file,
/// `results/campaign.ckpt.jsonl`, keyed purely by config fingerprint: the
/// first call opens it (resuming when `EMISSARY_RESUME=1`) and later
/// calls only update the experiment metadata, so resume state and the
/// in-process memo span figures.
pub fn begin(name: &str) {
    let mut slot = global();
    if let Some(c) = slot.as_ref() {
        c.set_experiment(name);
        return;
    }
    let campaign = Campaign::begin_with(
        UNIFIED_CAMPAIGN,
        Path::new("results"),
        crate::scale::resume(),
    );
    campaign.set_experiment(name);
    if campaign.resumable() > 0 || campaign.quarantined() > 0 {
        eprintln!(
            "checkpoint: resuming {UNIFIED_CAMPAIGN}: {} completed job(s) will be replayed, \
             {} unusable line(s) quarantined",
            campaign.resumable(),
            campaign.quarantined()
        );
    }
    *slot = Some(campaign);
}

/// Installs `campaign` as the process-global campaign (used by the
/// campaign engine and tests to control the checkpoint location
/// explicitly), returning the previous one.
pub fn begin_global_with(campaign: Campaign) -> Option<Campaign> {
    global().replace(campaign)
}

/// Closes the process-global campaign, returning it (flushed) so callers
/// can inspect its state. Later pool runs see no campaign until the next
/// [`begin`].
pub fn end() -> Option<Campaign> {
    global().take()
}

/// Locks the global campaign for the duration of a pool run.
pub(crate) fn global() -> std::sync::MutexGuard<'static, Option<Campaign>> {
    lock_unpoisoned(&CAMPAIGN)
}

/// Locks and returns the process-global campaign for direct use — e.g.
/// handing `Option<&Campaign>` to [`crate::campaign::prefetch`]. Drop the
/// guard before running experiments through the ordinary pool APIs (they
/// take the same lock).
pub fn global_handle() -> std::sync::MutexGuard<'static, Option<Campaign>> {
    global()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_is_stable_and_sensitive() {
        // Reference vector: FNV-1a 64 of "a".
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
        assert_ne!(fnv1a64(b"ab"), fnv1a64(b"ba"));
    }

    #[test]
    fn fingerprint_distinguishes_configs_and_is_stable() {
        let cfg = emissary_sim::SimConfig {
            warmup_instrs: 1_000,
            measure_instrs: 4_000,
            ..emissary_sim::SimConfig::default()
        };
        let profile = emissary_workloads::Profile::by_name("xapian").unwrap();
        let a = Job::new(
            profile.clone(),
            &cfg,
            emissary_core::spec::PolicySpec::BASELINE,
        );
        assert_eq!(fingerprint(&a), fingerprint(&a.clone()));
        let mut b = a.clone();
        b.config.seed ^= 1;
        assert_ne!(fingerprint(&a), fingerprint(&b));
        assert!(fingerprint(&a).starts_with("xapian|M:1|"));
    }

    #[test]
    fn experiment_label_is_metadata_not_key() {
        let dir = std::env::temp_dir().join(format!("emissary_ckpt_meta_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let c = Campaign::begin_with("label_a", &dir, false);
        c.set_experiment("fig_x");
        let cfg = emissary_sim::SimConfig {
            warmup_instrs: 500,
            measure_instrs: 2_000,
            ..emissary_sim::SimConfig::default()
        };
        let job = Job::new(
            emissary_workloads::Profile::by_name("xapian").unwrap(),
            &cfg,
            emissary_core::spec::PolicySpec::BASELINE,
        );
        let fp = fingerprint(&job);
        let run = job.run_observed();
        c.record(
            &fp,
            &JobOutcome::Completed {
                run: Box::new(run.clone()),
                resumed: false,
                attempts: 1,
            },
        );
        // Metadata on the line, not in the key. `sync` is the barrier
        // that makes the drained record visible to this read.
        c.sync();
        let text = std::fs::read_to_string(c.path()).unwrap();
        assert!(text.contains("\"experiment\":\"fig_x\""));
        assert!(!fp.contains("fig_x"));
        // The memo replays under any later experiment label.
        c.set_experiment("fig_y");
        let replayed = c.cached(&fp).expect("memoized");
        assert_eq!(replayed.report, run.report);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
