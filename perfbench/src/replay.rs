//! Isolated component replays: the walker, the branch predictor and the
//! cache hierarchy, each driven alone over a workload's own committed
//! path. They report cost per call, not a share of an in-situ run: a
//! replay has no pipeline around it, so caches and predictors see a
//! different interleaving than inside the machine.

use std::hint::black_box;
use std::time::Instant;

use emissary_cache::addr::line_of;
use emissary_cache::hierarchy::{Hierarchy, ServedBy};
use emissary_cache::rng::XorShift64;
use emissary_core::selection::MissFlags;
use emissary_frontend::{BlockDesc, BranchClass, FetchEngine};
use emissary_sim::SimConfig;
use emissary_workloads::program::TermClass;
use emissary_workloads::walker::{DynBlock, DynInstr, DynOp, Walker};
use emissary_workloads::{Profile, Program};

/// Host cost of one isolated replay.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Cost {
    /// Host seconds inside the timed loop.
    pub seconds: f64,
    /// Calls the loop made (instructions, blocks or accesses).
    pub calls: u64,
}

impl Cost {
    /// Nanoseconds per call.
    pub fn ns_per_call(self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.seconds * 1e9 / self.calls as f64
        }
    }

    /// Sums two costs (campaign-mix replays every profile).
    pub fn plus(self, other: Cost) -> Cost {
        Cost {
            seconds: self.seconds + other.seconds,
            calls: self.calls + other.calls,
        }
    }
}

/// Walks `instrs` committed instructions of `program` (seeded as the
/// simulator seeds it) and hands each block to `visit`.
fn walk(
    program: &Program,
    profile: &Profile,
    instrs: u64,
    mut visit: impl FnMut(&DynBlock, &[DynInstr]),
) {
    let mut walker = Walker::new(program, profile.seed);
    let mut buf = Vec::new();
    while walker.instrs_executed() < instrs {
        buf.clear();
        let block = walker.emit_block(&mut buf);
        visit(&block, &buf);
    }
}

/// `Walker::emit_block` alone, per committed instruction.
pub fn walker(program: &Program, profile: &Profile, instrs: u64) -> Cost {
    let mut walker = Walker::new(program, profile.seed);
    let mut buf = Vec::with_capacity(32);
    let start = Instant::now();
    while walker.instrs_executed() < instrs {
        buf.clear();
        black_box(walker.emit_block(&mut buf));
    }
    Cost {
        seconds: start.elapsed().as_secs_f64(),
        calls: walker.instrs_executed(),
    }
}

fn branch_class(class: TermClass) -> BranchClass {
    match class {
        TermClass::CondDirect => BranchClass::CondDirect,
        TermClass::Jump => BranchClass::Jump,
        TermClass::Call => BranchClass::Call,
        TermClass::IndirectCall => BranchClass::IndirectCall,
        TermClass::Return => BranchClass::Return,
        TermClass::FallThrough => BranchClass::FallThrough,
    }
}

/// `FetchEngine::predict_block` alone, per block, over the committed
/// block stream (generated before the clock starts).
pub fn predictor(program: &Program, profile: &Profile, cfg: &SimConfig, instrs: u64) -> Cost {
    let mut blocks = Vec::new();
    walk(program, profile, instrs, |b, _| {
        blocks.push(BlockDesc {
            start: b.start,
            num_instrs: b.num_instrs,
            kind: branch_class(b.class),
            taken_target: b.taken_target,
            taken: b.taken,
        });
    });
    let mut engine = FetchEngine::new(cfg.core.frontend.clone());
    let start = Instant::now();
    for desc in &blocks {
        black_box(engine.predict_block(black_box(desc)));
    }
    Cost {
        seconds: start.elapsed().as_secs_f64(),
        calls: blocks.len() as u64,
    }
}

/// One access of the committed-path line stream.
#[derive(Debug, Clone, Copy)]
enum Access {
    Instr(u64),
    Load(u64),
    Store(u64),
}

/// `Hierarchy::access_instr`/`access_data` alone, per access, replaying
/// the committed-path line stream under the workload's L2 policy.
/// Without a core there is no starvation signal, so every L2
/// instruction miss served from L3 or memory counts as starving when the
/// selection equation is evaluated (an upper bound on marking).
pub fn hierarchy(program: &Program, profile: &Profile, cfg: &SimConfig, instrs: u64) -> Cost {
    let mut stream = Vec::new();
    let mut now = 0u64;
    walk(program, profile, instrs, |b, body| {
        now += 2 + u64::from(b.num_instrs) / 4;
        let first = b.start >> 6;
        let last = (b.start + 4 * u64::from(b.num_instrs) - 1) >> 6;
        stream.extend((first..=last).map(|line| (now, Access::Instr(line))));
        stream.extend(body.iter().filter_map(|i| match i.op {
            DynOp::Load(a) => Some((now, Access::Load(line_of(a)))),
            DynOp::Store(a) => Some((now, Access::Store(line_of(a)))),
            DynOp::Alu => None,
        }));
    });
    let l2_policy = cfg.l2_policy.build_l2_policy_with(
        cfg.recency,
        cfg.hierarchy.l2.sets(),
        cfg.hierarchy.l2.ways,
        cfg.seed ^ 0x9999,
    );
    let mut h = Hierarchy::new(cfg.hierarchy.clone(), cfg.l1_policy, l2_policy);
    let selection = cfg.l2_policy.selection();
    let mark = cfg.l2_policy.is_emissary();
    let mut rng = XorShift64::new(cfg.seed ^ 0xF1F1);
    let start = Instant::now();
    for &(now, access) in &stream {
        match access {
            Access::Instr(line) => {
                let m = h.access_instr(line, now, false);
                if m.needs_resolution {
                    let starving = matches!(m.source, ServedBy::L3 | ServedBy::Memory);
                    let flags = MissFlags {
                        starved_decode: starving,
                        empty_issue_queue: starving,
                    };
                    let high = selection
                        .as_ref()
                        .is_some_and(|s| s.evaluate(flags, &mut rng));
                    h.resolve_instr_fill(line, high);
                    if mark && high {
                        h.mark_instr_priority(line);
                    }
                }
            }
            Access::Load(line) => {
                black_box(h.access_data(line, now, false, false));
            }
            Access::Store(line) => {
                black_box(h.access_data(line, now, true, false));
            }
        }
    }
    Cost {
        seconds: start.elapsed().as_secs_f64(),
        calls: stream.len() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emissary_core::spec::PolicySpec;

    #[test]
    fn replays_make_calls_and_take_time() {
        let profile = Profile::by_name("xapian").unwrap();
        let program = profile.build();
        let cfg = SimConfig::default().with_policy(PolicySpec::PREFERRED);
        let w = walker(&program, &profile, 20_000);
        assert!(w.calls >= 20_000 && w.seconds > 0.0);
        let p = predictor(&program, &profile, &cfg, 20_000);
        assert!(p.calls > 1_000 && p.ns_per_call() > 0.0);
        let h = hierarchy(&program, &profile, &cfg, 20_000);
        assert!(h.calls > p.calls, "every block touches a line, plus data");
        assert_eq!(Cost::default().ns_per_call(), 0.0);
    }
}
