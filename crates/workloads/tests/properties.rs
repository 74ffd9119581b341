//! Property-based tests for the workload generator and walker.

use proptest::prelude::*;

use emissary_workloads::builder::{build_program, ProgramShape, LAYOUT_GRANULE};
use emissary_workloads::program::{Terminator, CODE_BASE, INSTR_BYTES};
use emissary_workloads::walker::Walker;

fn shape_strategy() -> impl Strategy<Value = ProgramShape> {
    (
        16u32..128,  // code_kb
        1u32..12,    // num_services
        0.0f64..2.0, // service_skew
        0.0f64..1.0, // service_rotation
        1u32..4,     // service_repeat
        0.0f64..0.3, // hard_branch_frac
        1u64..1000,  // seed
    )
        .prop_map(
            |(code_kb, num_services, skew, rotation, repeat, hard, seed)| ProgramShape {
                code_kb,
                num_services,
                service_skew: skew,
                service_rotation: rotation,
                service_repeat: repeat,
                hard_branch_frac: hard,
                seed,
                ..ProgramShape::tiny()
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every generated program is structurally valid, fully packed, and
    /// keeps conditional fall-throughs physically adjacent.
    #[test]
    fn generated_programs_are_valid(shape in shape_strategy()) {
        let p = build_program(&shape);
        prop_assert_eq!(p.validate(), Ok(()));
        // No overlapping blocks: starts unique and spans disjoint.
        let mut spans: Vec<(u64, u64)> = p.blocks().iter().map(|b| (b.start, b.end())).collect();
        spans.sort_unstable();
        for w in spans.windows(2) {
            prop_assert!(w[0].1 <= w[1].0, "overlapping blocks");
        }
        for b in p.blocks() {
            if let Terminator::Cond { fallthrough, .. } = b.terminator {
                prop_assert_eq!(p.block(fallthrough).start, b.end());
            }
            if let Terminator::FallThrough { next } = b.terminator {
                prop_assert_eq!(p.block(next).start, b.end());
            }
        }
        let _ = LAYOUT_GRANULE;
    }

    /// The address index is exact: `block_at(b.start)` is `b` for every
    /// block, and every other 4-aligned address from 64 bytes below the
    /// code region to 64 bytes past it finds nothing. Block instruction
    /// slices tile the arena with no gap or overlap.
    #[test]
    fn block_index_is_exact_and_slices_tile_the_arena(shape in shape_strategy()) {
        let p = build_program(&shape);
        let end = CODE_BASE + p.code_bytes();
        let mut starts = std::collections::HashSet::new();
        for b in p.blocks() {
            let found = p.block_at(b.start);
            prop_assert!(found.is_some_and(|f| std::ptr::eq(f, b)), "block at {:#x}", b.start);
            starts.insert(b.start);
        }
        let mut addr = CODE_BASE - 64;
        while addr < end + 64 {
            if !starts.contains(&addr) {
                prop_assert!(p.block_at(addr).is_none(), "phantom block at {:#x}", addr);
            }
            addr += INSTR_BYTES;
        }
        let mut ranges: Vec<_> = p.blocks().iter().map(|b| b.instr_range()).collect();
        ranges.sort_unstable_by_key(|r| r.start);
        let mut next = 0;
        for r in ranges {
            prop_assert_eq!(r.start, next, "gap or overlap in the arena");
            prop_assert!(r.end > r.start, "empty block");
            next = r.end;
        }
        prop_assert_eq!(next as u64, p.code_bytes() / INSTR_BYTES);
        for b in p.blocks() {
            prop_assert_eq!(p.instrs(b).len() as u32, b.num_instrs());
        }
    }

    /// The walker runs without panicking, keeps call depth bounded, and
    /// successor ground truth always names the next emitted block.
    #[test]
    fn walker_ground_truth_consistent(shape in shape_strategy(), steps in 50usize..500) {
        let p = build_program(&shape);
        let mut w = Walker::new(&p, shape.seed);
        let mut buf = Vec::new();
        let mut expected_next = None;
        for _ in 0..steps {
            buf.clear();
            let b = w.emit_block(&mut buf);
            prop_assert_eq!(buf.len() as u32, b.num_instrs);
            if let Some(next) = expected_next {
                prop_assert_eq!(b.start, next);
            }
            if b.taken {
                prop_assert_eq!(b.taken_target, b.next_start);
            } else {
                // Not-taken: successor is the physical fall-through.
                let last_pc = buf.last().unwrap().pc;
                prop_assert_eq!(b.next_start, last_pc + 4);
            }
            expected_next = Some(b.next_start);
        }
        prop_assert_eq!(w.blocks_executed(), steps as u64);
    }

    /// Walkers with the same seed produce identical streams; different
    /// seeds diverge somewhere within a few hundred blocks (for programs
    /// with any randomness).
    #[test]
    fn walker_determinism(shape in shape_strategy()) {
        let p = build_program(&shape);
        let mut a = Walker::new(&p, shape.seed);
        let mut b = Walker::new(&p, shape.seed);
        let (mut ba, mut bb) = (Vec::new(), Vec::new());
        for _ in 0..200 {
            ba.clear();
            bb.clear();
            let da = a.emit_block(&mut ba);
            let db = b.emit_block(&mut bb);
            prop_assert_eq!(da, db);
            prop_assert_eq!(&ba, &bb);
        }
    }

    /// Instruction PCs of an emitted block are contiguous 4-byte slots
    /// starting at the block start.
    #[test]
    fn emitted_pcs_contiguous(shape in shape_strategy()) {
        let p = build_program(&shape);
        let mut w = Walker::new(&p, 3);
        let mut buf = Vec::new();
        for _ in 0..100 {
            buf.clear();
            let b = w.emit_block(&mut buf);
            for (i, di) in buf.iter().enumerate() {
                prop_assert_eq!(di.pc, b.start + 4 * i as u64);
            }
        }
    }
}
