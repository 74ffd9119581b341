//! Static program representation: a control-flow graph of basic blocks laid
//! out over a byte-addressed code region, with per-instruction templates.
//!
//! A campaign holds every built-in program at once, and programs never
//! change after they are built, so the layout is dense: all instruction
//! templates live in one arena that blocks slice by offset, blocks and
//! terminators are small fixed-size values (the one variable-length
//! terminator payload, an indirect call's callee table, sits in a side
//! table), and the start-address index costs a few bytes per code line.

use std::ops::Range;

use crate::behavior::{BranchBehavior, DataStream};

/// Index of a basic block within [`Program::blocks`].
pub type BlockId = u32;

/// Byte address where generated code begins.
pub const CODE_BASE: u64 = 0x0040_0000;
/// Instruction width in bytes (fixed, ARM-like — §5.2 uses Aarch64).
pub const INSTR_BYTES: u64 = 4;
/// Instruction slots per 64-byte code line: one bit each in
/// [`LineStarts::starts`].
const SLOTS_PER_LINE: u64 = 64 / INSTR_BYTES;

/// Static classification of an instruction slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstrKind {
    /// Integer/FP computation.
    Alu,
    /// Load from the given data stream (index into [`Program::streams`]).
    Load(u8),
    /// Store to the given data stream.
    Store(u8),
}

/// One static instruction slot: kind plus dependency distances (in dynamic
/// instructions; 0 means no register dependency on that operand).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstrTemplate {
    /// Operation class.
    pub kind: InstrKind,
    /// Distance to the first producer.
    pub dep1: u8,
    /// Distance to the second producer.
    pub dep2: u8,
}

/// The control-transfer ending a block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Terminator {
    /// Conditional direct branch; not-taken falls through to `fallthrough`.
    Cond {
        /// Taken-path successor.
        target: BlockId,
        /// Not-taken successor.
        fallthrough: BlockId,
        /// Dynamic outcome model.
        behavior: BranchBehavior,
    },
    /// Unconditional direct jump.
    Jump {
        /// Successor.
        target: BlockId,
    },
    /// Direct call; execution resumes at `ret_to` after the callee returns.
    Call {
        /// Callee entry block.
        callee: BlockId,
        /// Block control returns to.
        ret_to: BlockId,
    },
    /// Indirect call through a table of possible callees.
    IndirectCall {
        /// Callee table index (see [`Program::indirect_table`]).
        table: u32,
        /// Block control returns to.
        ret_to: BlockId,
    },
    /// Return to the caller.
    Return,
    /// Straight-line fall-through (block split).
    FallThrough {
        /// Next block.
        next: BlockId,
    },
}

/// The callees of one indirect call and how the walker picks among them.
#[derive(Debug, Clone, PartialEq)]
pub struct IndirectTable {
    /// Candidate callee entries.
    pub targets: Vec<BlockId>,
    /// Zipf skew over `targets` for the random component (0 = uniform).
    pub skew: f64,
    /// Probability of choosing the next target in rotation instead of
    /// randomly: 1.0 models event-loop / simulator-eval style *cyclic*
    /// code reuse (the LRU-adversarial regime of §3's long-reuse
    /// lines); 0.0 models fully random request arrival.
    pub rr_frac: f64,
}

/// Mirror of the frontend's branch classes, kept local so this crate stays
/// a leaf; the simulator maps between the two.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TermClass {
    /// Conditional direct branch.
    CondDirect,
    /// Unconditional jump.
    Jump,
    /// Direct call.
    Call,
    /// Indirect call.
    IndirectCall,
    /// Return.
    Return,
    /// Fall-through.
    FallThrough,
}

impl Terminator {
    /// The terminator's class.
    pub fn class(&self) -> TermClass {
        match self {
            Terminator::Cond { .. } => TermClass::CondDirect,
            Terminator::Jump { .. } => TermClass::Jump,
            Terminator::Call { .. } => TermClass::Call,
            Terminator::IndirectCall { .. } => TermClass::IndirectCall,
            Terminator::Return => TermClass::Return,
            Terminator::FallThrough { .. } => TermClass::FallThrough,
        }
    }
}

/// One static basic block. Its id is its index in [`Program::blocks`]; its
/// instructions are [`Program::instrs`] of it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BasicBlock {
    /// Starting byte address.
    pub start: u64,
    /// Arena offset of the first instruction template.
    first: u32,
    /// Number of instructions (the last one is the terminator instruction).
    len: u8,
    /// Control transfer at the end.
    pub terminator: Terminator,
}

impl BasicBlock {
    /// A block of `len` instructions at arena offset `first`.
    pub(crate) fn new(start: u64, first: u32, len: u8, terminator: Terminator) -> Self {
        Self {
            start,
            first,
            len,
            terminator,
        }
    }

    /// Number of instructions.
    pub fn num_instrs(&self) -> u32 {
        u32::from(self.len)
    }

    /// Byte address one past the block.
    pub fn end(&self) -> u64 {
        self.start + INSTR_BYTES * u64::from(self.len)
    }

    /// Positions of this block's templates in its program's instruction
    /// arena.
    pub fn instr_range(&self) -> Range<usize> {
        let first = self.first as usize;
        first..first + self.len as usize
    }
}

/// The block starts within one 64-byte code line.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct LineStarts {
    /// Blocks starting before this line: the rank of its first start in
    /// [`Program::by_addr`].
    rank: u32,
    /// Bit `i` set iff a block starts at instruction slot `i` of the line.
    starts: u16,
}

/// A complete synthetic program.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// All blocks, indexed by [`BlockId`].
    blocks: Vec<BasicBlock>,
    /// Every block's instruction templates, each block one contiguous run.
    instrs: Vec<InstrTemplate>,
    /// Callee tables of the indirect calls.
    indirect_tables: Vec<IndirectTable>,
    /// Number of loop branches, whose [`BranchBehavior::Loop`] slots number
    /// `0..loop_slots`.
    loop_slots: u32,
    /// Execution entry block.
    pub entry: BlockId,
    /// Data streams referenced by [`InstrKind::Load`]/[`InstrKind::Store`].
    pub streams: Vec<DataStream>,
    /// Block ids in address order.
    by_addr: Vec<BlockId>,
    /// Per code line from [`CODE_BASE`], the block starts it holds. Code is
    /// one gap-free run of 4-byte slots, so this exactly maps a start
    /// address to its rank in `by_addr`.
    lines: Vec<LineStarts>,
}

impl Program {
    /// Assembles a program and its address index.
    ///
    /// # Panics
    ///
    /// Panics if a block start is unaligned, below [`CODE_BASE`], beyond
    /// the code the arena holds, or shared by two blocks: the index cannot
    /// represent such a layout, and only a builder bug produces one.
    pub(crate) fn new(
        blocks: Vec<BasicBlock>,
        mut instrs: Vec<InstrTemplate>,
        indirect_tables: Vec<IndirectTable>,
        entry: BlockId,
        streams: Vec<DataStream>,
    ) -> Self {
        instrs.shrink_to_fit();
        let slots = instrs.len() as u64;
        let slot_of = |start: u64| -> u64 {
            let off = start
                .checked_sub(CODE_BASE)
                .expect("block starts at or above CODE_BASE");
            assert_eq!(off % INSTR_BYTES, 0, "block start is slot-aligned");
            let slot = off / INSTR_BYTES;
            assert!(slot < slots, "block start inside the code region");
            slot
        };
        let mut lines = vec![LineStarts::default(); slots.div_ceil(SLOTS_PER_LINE) as usize];
        for b in &blocks {
            let slot = slot_of(b.start);
            lines[(slot / SLOTS_PER_LINE) as usize].starts |= 1 << (slot % SLOTS_PER_LINE);
        }
        let mut rank = 0;
        for line in &mut lines {
            line.rank = rank;
            rank += line.starts.count_ones();
        }
        assert_eq!(rank as usize, blocks.len(), "block starts are distinct");
        let loop_slots = blocks
            .iter()
            .filter(|b| {
                matches!(
                    b.terminator,
                    Terminator::Cond {
                        behavior: BranchBehavior::Loop { .. },
                        ..
                    }
                )
            })
            .count() as u32;
        let mut program = Self {
            loop_slots,
            by_addr: vec![0; blocks.len()],
            lines,
            blocks,
            instrs,
            indirect_tables,
            entry,
            streams,
        };
        for id in 0..program.blocks.len() {
            let rank = program
                .rank_of(program.blocks[id].start)
                .expect("every start is indexed");
            program.by_addr[rank] = id as BlockId;
        }
        program
    }

    /// Rank of the block starting at `addr` in address order, if any.
    fn rank_of(&self, addr: u64) -> Option<usize> {
        let off = addr.checked_sub(CODE_BASE)?;
        if off % INSTR_BYTES != 0 {
            return None;
        }
        let slot = off / INSTR_BYTES;
        let line = self
            .lines
            .get(usize::try_from(slot / SLOTS_PER_LINE).ok()?)?;
        let bit = slot % SLOTS_PER_LINE;
        if line.starts >> bit & 1 == 0 {
            return None;
        }
        let before = (line.starts & ((1 << bit) - 1)).count_ones();
        Some((line.rank + before) as usize)
    }

    /// The block starting at `addr`, if any: `None` for an address inside
    /// a block, unaligned, or outside the code region.
    pub fn block_at(&self, addr: u64) -> Option<&BasicBlock> {
        self.rank_of(addr)
            .map(|rank| &self.blocks[self.by_addr[rank] as usize])
    }

    /// A block by id.
    pub fn block(&self, id: BlockId) -> &BasicBlock {
        &self.blocks[id as usize]
    }

    /// All blocks, indexed by [`BlockId`].
    pub fn blocks(&self) -> &[BasicBlock] {
        &self.blocks
    }

    /// A block's instruction templates (the last one is its terminator).
    pub fn instrs(&self, block: &BasicBlock) -> &[InstrTemplate] {
        &self.instrs[block.instr_range()]
    }

    /// The callee table of [`Terminator::IndirectCall`] `{ table, .. }`.
    pub fn indirect_table(&self, table: u32) -> &IndirectTable {
        &self.indirect_tables[table as usize]
    }

    /// Number of indirect-call callee tables.
    pub(crate) fn num_indirect_tables(&self) -> usize {
        self.indirect_tables.len()
    }

    /// Number of loop branches (the walker keeps one counter for each).
    pub(crate) fn loop_slots(&self) -> usize {
        self.loop_slots as usize
    }

    /// Total static code bytes.
    pub fn code_bytes(&self) -> u64 {
        INSTR_BYTES * self.instrs.len() as u64
    }

    /// Static code footprint in distinct 64-byte cache lines.
    pub fn code_lines(&self) -> u64 {
        self.lines.len() as u64
    }

    /// Validates structural invariants (tests and builder debug checks):
    /// blocks tile the instruction arena in id order and the code region
    /// in address order, every terminator's successors and callee tables
    /// exist, loop slots are distinct, and memory ops name real streams.
    pub fn validate(&self) -> Result<(), String> {
        if self.blocks.is_empty() {
            return Err("program has no blocks".to_string());
        }
        if self.entry as usize >= self.blocks.len() {
            return Err("entry out of range".to_string());
        }
        let n = self.blocks.len() as u32;
        let mut next_instr = 0;
        let mut loop_slot_seen = vec![false; self.loop_slots()];
        for (i, b) in self.blocks.iter().enumerate() {
            if b.len == 0 {
                return Err(format!("block {i} is empty"));
            }
            if b.first as usize != next_instr {
                return Err(format!(
                    "block {i} instructions start at {}, not {next_instr}",
                    b.first
                ));
            }
            next_instr += b.len as usize;
            let check = |id: BlockId| -> Result<(), String> {
                if id >= n {
                    Err(format!("block {i} references missing block {id}"))
                } else {
                    Ok(())
                }
            };
            match b.terminator {
                Terminator::Cond {
                    target,
                    fallthrough,
                    behavior,
                } => {
                    check(target)?;
                    check(fallthrough)?;
                    if let BranchBehavior::Loop { slot, .. } = behavior {
                        match loop_slot_seen.get_mut(slot as usize) {
                            Some(seen @ false) => *seen = true,
                            _ => {
                                return Err(format!(
                                    "block {i} loop slot {slot} reused or out of range"
                                ))
                            }
                        }
                    }
                }
                Terminator::Jump { target } => check(target)?,
                Terminator::Call { callee, ret_to } => {
                    check(callee)?;
                    check(ret_to)?;
                }
                Terminator::IndirectCall { table, ret_to } => {
                    let Some(table) = self.indirect_tables.get(table as usize) else {
                        return Err(format!("block {i} references missing callee table {table}"));
                    };
                    if table.targets.is_empty() {
                        return Err(format!("block {i} indirect call with no targets"));
                    }
                    for &t in &table.targets {
                        check(t)?;
                    }
                    check(ret_to)?;
                }
                Terminator::Return => {}
                Terminator::FallThrough { next } => check(next)?,
            }
            for t in self.instrs(b) {
                match t.kind {
                    InstrKind::Load(s) | InstrKind::Store(s) => {
                        if s as usize >= self.streams.len() {
                            return Err(format!("block {i} references missing stream {s}"));
                        }
                    }
                    InstrKind::Alu => {}
                }
            }
        }
        if next_instr != self.instrs.len() {
            return Err(format!(
                "blocks hold {next_instr} of the arena's {} instructions",
                self.instrs.len()
            ));
        }
        let mut addr = CODE_BASE;
        for &id in &self.by_addr {
            let b = self.block(id);
            if b.start != addr {
                return Err(format!(
                    "block {id} starts at {:#x}, not {addr:#x}",
                    b.start
                ));
            }
            addr = b.end();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alu(dep1: u8) -> InstrTemplate {
        InstrTemplate {
            kind: InstrKind::Alu,
            dep1,
            dep2: 0,
        }
    }

    fn tiny_program() -> Program {
        Program::new(
            vec![
                BasicBlock::new(CODE_BASE, 0, 4, Terminator::Jump { target: 1 }),
                BasicBlock::new(CODE_BASE + 16, 4, 1, Terminator::Jump { target: 0 }),
            ],
            vec![alu(0), alu(0), alu(0), alu(0), alu(1)],
            vec![],
            0,
            vec![],
        )
    }

    #[test]
    fn index_and_lookup() {
        let p = tiny_program();
        assert_eq!(p.block_at(CODE_BASE), Some(p.block(0)));
        assert_eq!(p.block_at(CODE_BASE + 16), Some(p.block(1)));
        assert!(p.block_at(0x1).is_none());
        assert!(p.block_at(CODE_BASE + 4).is_none(), "mid-block");
        assert!(p.block_at(CODE_BASE + 18).is_none(), "unaligned");
        assert!(p.block_at(CODE_BASE + 20).is_none(), "past the code");
        assert!(p.block_at(CODE_BASE + 64).is_none(), "past the last line");
    }

    #[test]
    fn blocks_slice_the_arena() {
        let p = tiny_program();
        assert_eq!(p.instrs(p.block(0)), &[alu(0); 4]);
        assert_eq!(p.instrs(p.block(1)), &[alu(1)]);
    }

    #[test]
    fn layout_types_stay_compact() {
        use std::mem::size_of;
        assert!(size_of::<InstrTemplate>() <= 4);
        assert!(size_of::<Terminator>() <= 24);
        assert!(size_of::<BasicBlock>() <= 40);
    }

    #[test]
    fn code_size_accounting() {
        let p = tiny_program();
        assert_eq!(p.code_bytes(), 20);
        assert_eq!(p.code_lines(), 1); // both blocks in the first line
    }

    #[test]
    fn validate_accepts_well_formed() {
        assert_eq!(tiny_program().validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_dangling_target() {
        let mut p = tiny_program();
        p.blocks[1].terminator = Terminator::Jump { target: 99 };
        assert!(p.validate().is_err());
    }

    #[test]
    fn validate_rejects_missing_stream() {
        let mut p = tiny_program();
        p.instrs[0].kind = InstrKind::Load(0);
        assert!(p.validate().is_err());
    }

    #[test]
    fn validate_rejects_missing_callee_table() {
        let mut p = tiny_program();
        p.blocks[1].terminator = Terminator::IndirectCall {
            table: 0,
            ret_to: 0,
        };
        assert!(p.validate().is_err());
    }

    #[test]
    fn validate_rejects_a_gap_in_the_arena() {
        let mut p = tiny_program();
        p.blocks[0].len = 3;
        assert!(p.validate().is_err());
    }

    #[test]
    fn terminator_classes() {
        assert_eq!(Terminator::Return.class(), TermClass::Return);
        assert_eq!(
            Terminator::FallThrough { next: 0 }.class(),
            TermClass::FallThrough
        );
    }
}
