//! Program heap footprint: every campaign holds all thirteen built-in
//! programs at once, so their static representation dominates its resident
//! memory. This test measures the heap bytes a built [`Program`] keeps
//! live, with a counting global allocator, and bounds them per static
//! instruction.
//!
//! The counter is per thread, so tests running beside this one on other
//! threads do not disturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use emissary_workloads::program::INSTR_BYTES;
use emissary_workloads::{Profile, Program};

struct Counting;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

fn adjust(delta: isize) {
    // `try_with` fails only during thread teardown, when nothing is measured.
    let _ = LIVE.try_with(|live| live.set(live.get() + delta));
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the wrapper only adds bookkeeping on a thread-local counter.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            adjust(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        adjust(-(layout.size() as isize));
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            adjust(new_size as isize - layout.size() as isize);
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Builds `profile`'s program and returns it with the heap bytes it holds.
fn build_measured(profile: &Profile) -> (Program, usize) {
    let before = LIVE.with(Cell::get);
    let program = profile.build();
    let held = LIVE.with(Cell::get) - before;
    (
        program,
        usize::try_from(held).expect("a built program holds memory"),
    )
}

/// Bytes of live heap per static instruction, the bound for every profile.
/// Four bytes are the instruction template itself; the rest pays for the
/// blocks, the terminators' side tables and the address index.
const MAX_HEAP_BYTES_PER_INSTR: f64 = 10.0;

#[test]
fn program_heap_per_static_instruction_is_bounded() {
    let mut report = Vec::new();
    let mut over = Vec::new();
    for profile in Profile::all() {
        let (program, bytes) = build_measured(&profile);
        let instrs = program.code_bytes() / INSTR_BYTES;
        let per_instr = bytes as f64 / instrs as f64;
        report.push(format!(
            "{:<16} {:>6} blocks {:>8} instrs {:>10} heap bytes {:>6.2} B/instr",
            profile.name,
            program.blocks().len(),
            instrs,
            bytes,
            per_instr
        ));
        if per_instr > MAX_HEAP_BYTES_PER_INSTR {
            over.push(profile.name);
        }
    }
    // Printed under `--nocapture`: the per-profile figures behind the bound.
    println!("{}", report.join("\n"));
    assert!(
        over.is_empty(),
        "program heap above {MAX_HEAP_BYTES_PER_INSTR} B per static instruction for {over:?}:\n{}",
        report.join("\n")
    );
}
