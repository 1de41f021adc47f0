//! Expression extraction: trace preprocessing, forward analysis for
//! input-dependent conditionals, and backward analysis that builds concrete
//! data-dependency trees (paper §4.5–§4.7).
//!
//! # Layout
//!
//! [`prepare_trace`] makes one pass over the instruction trace. Each dynamic
//! instruction is lowered to micro-ops and analysed before the next one is
//! read, so every fact is recorded when it becomes known:
//!
//! * **Flat lowering.** The micro-ops live in three arrays: steps (one per
//!   dynamic instruction), definitions and arguments. A step names its
//!   first definition and a definition its first argument; a step's flag
//!   operands follow its definitions' arguments. Address registers are
//!   stored inline in their argument, so lowering allocates nothing per
//!   step.
//! * **One byte shadow.** Registers live at `REG_SPACE` (8 bytes per
//!   register) and x87 physical slots at `FP_SPACE` (8 bytes per slot), so
//!   memory, registers and FP slots form one address space (paper §4.5).
//!   Each byte has one `u32` of shadow state: bit 31 is its taint (the
//!   forward pass, §4.6) and the low bits are one more than the step that
//!   last defined it (the backward pass, §4.7). State is allocated one
//!   4 KiB page at a time, for the pages the trace touches, and found
//!   through a two-level page directory. A location that straddles a page
//!   boundary is split in two.
//! * **Static tables.** The same paged map gives each static instruction
//!   a dense id, with its indirect-access flag and, after the pass, the
//!   branch directions it requires. Each input-dependent conditional jump
//!   keeps its dynamic occurrences in trace order, each with the step that
//!   set the flags it tested.
//! * **One flat def-use table.** Every location argument owns a run of
//!   entries in `uses`: its reaching definition, then one entry per address
//!   register. The entries are filled from the shadow before the step's own
//!   definitions update it. The reaching definition of a location is the
//!   first definition, in the latest step that wrote any of its bytes, that
//!   overlaps it (the max-over-bytes rule). It is stored as a global
//!   definition id.
//!
//! # Cost
//!
//! Every pass is linear in the trace:
//!
//! * Lowering and the shadow touch each argument a bounded number of times,
//!   and a location spans at most two pages.
//! * A static instruction folds the jumps' latest outcomes into its
//!   requirements only when some outcome changed since its previous visit.
//!   A fold costs one step per input-dependent jump, and a program has a
//!   handful of those.
//! * Tree building follows the def-use table instead of scanning the trace
//!   backwards. It reads requirements and indirect-access flags from the
//!   static tables and finds an address's buffer by binary search over the
//!   buffers' bounds. A predicate's jump occurrence is found by binary
//!   search. Each tree therefore costs time in proportion to its size.

use crate::layout::{BufferLayout, BufferRole};
use crate::trees::{GuardedTree, Leaf, Predicate, PredicateCmp, Tree, TreeNode, TreeOp};
use helium_dbi::InstructionTrace;
use helium_machine::cpu::StepRecord;
use helium_machine::isa::{AluOp, Cond, FpSrc, Instr, Operand, Reg, RegRef, ShiftOp};

/// Shadow address space base for general-purpose registers (paper §4.5 maps
/// registers into memory so the analysis treats them uniformly).
const REG_SPACE: u64 = 0x1_0000_0000;
/// Shadow address space base for x87 physical stack slots.
const FP_SPACE: u64 = 0x1_0100_0000;
/// "No entry" in the dense tables (no definition, no flag writer, ...).
const NONE: u32 = u32::MAX;

/// A byte range in the unified (memory + shadow register) address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Loc {
    /// Start address.
    pub addr: u64,
    /// Width in bytes.
    pub width: u32,
}

impl Loc {
    fn mem(addr: u32, width: u32) -> Loc {
        Loc {
            addr: addr as u64,
            width,
        }
    }

    fn reg(r: RegRef) -> Loc {
        Loc {
            addr: REG_SPACE + (r.reg.index() as u64) * 8 + r.lo as u64,
            width: r.width.bytes(),
        }
    }

    fn fp(phys_slot: u8) -> Loc {
        Loc {
            addr: FP_SPACE + phys_slot as u64 * 8,
            width: 8,
        }
    }

    /// Returns `true` if this location is a real memory address.
    pub fn is_memory(&self) -> bool {
        self.addr < REG_SPACE
    }

    fn overlaps(&self, other: &Loc) -> bool {
        self.addr < other.addr + other.width as u64 && other.addr < self.addr + self.width as u64
    }
}

// ---------------------------------------------------------------------------
// Shadow state
// ---------------------------------------------------------------------------

const PAGE_BITS: u32 = 12;
const PAGE_BYTES: usize = 1 << PAGE_BITS;
/// Pages per page table of a [`PageMap`]'s directory.
const TABLE_BITS: u32 = 10;
/// Shadow bit marking a tainted (input-dependent) byte.
const TAINT: u32 = 1 << 31;

/// A `u32` per byte address, zero until written, allocated one 4 KiB page
/// at a time for the pages that are written. A page number's high bits pick
/// a directory entry (one per 1,024 pages, grown on demand), which names a
/// page table, whose entry names the page. The FP slots, the highest shadow
/// addresses, need a directory of about a thousand entries.
#[derive(Default)]
struct PageMap {
    /// Per group of 1,024 pages: its page table in `tables`, or `NONE`.
    dir: Vec<u32>,
    /// Page tables: per page, its entries in `pages`, or `NONE`.
    tables: Vec<Box<[u32]>>,
    /// The entries of each written page.
    pages: Vec<Box<[u32]>>,
}

impl PageMap {
    /// Split `loc` at page boundaries: `(page number, byte range in page)`.
    fn segments(loc: Loc) -> impl Iterator<Item = (u64, std::ops::Range<usize>)> {
        let end = loc.addr + loc.width as u64;
        let mut addr = loc.addr;
        std::iter::from_fn(move || {
            if addr >= end {
                return None;
            }
            let off = (addr as usize) & (PAGE_BYTES - 1);
            let n = ((end - addr) as usize).min(PAGE_BYTES - off);
            let page = addr >> PAGE_BITS;
            addr += n as u64;
            Some((page, off..off + n))
        })
    }

    fn slot(page: u64) -> (usize, usize) {
        (
            (page >> TABLE_BITS) as usize,
            (page & ((1 << TABLE_BITS) - 1)) as usize,
        )
    }

    fn page(&self, page: u64) -> Option<&[u32]> {
        let (d, t) = Self::slot(page);
        let table = *self.dir.get(d).filter(|&&i| i != NONE)?;
        let p = self.tables[table as usize][t];
        (p != NONE).then(|| &*self.pages[p as usize])
    }

    fn page_mut(&mut self, page: u64) -> &mut [u32] {
        let (d, t) = Self::slot(page);
        if d >= self.dir.len() {
            self.dir.resize(d + 1, NONE);
        }
        if self.dir[d] == NONE {
            self.dir[d] = self.tables.len() as u32;
            self.tables
                .push(vec![NONE; 1 << TABLE_BITS].into_boxed_slice());
        }
        let table = &mut self.tables[self.dir[d] as usize];
        if table[t] == NONE {
            table[t] = self.pages.len() as u32;
            self.pages.push(vec![0; PAGE_BYTES].into_boxed_slice());
        }
        &mut self.pages[table[t] as usize]
    }

    /// The entry of the byte at `addr`.
    fn entry(&mut self, addr: u64) -> &mut u32 {
        &mut self.page_mut(addr >> PAGE_BITS)[addr as usize & (PAGE_BYTES - 1)]
    }
}

/// Per-byte taint and last definition over the unified address space: bit
/// 31 of a byte's entry is its taint, the low bits one more than the step
/// that last defined it.
#[derive(Default)]
struct Shadow(PageMap);

impl Shadow {
    /// Whether any byte of `loc` is tainted, and the latest step that
    /// defined any of its bytes.
    fn read(&self, loc: Loc) -> (bool, Option<u32>) {
        let mut bits = 0u32;
        let mut last = 0u32;
        for (page, range) in PageMap::segments(loc) {
            if let Some(p) = self.0.page(page) {
                for &e in &p[range] {
                    bits |= e;
                    last = last.max(e & !TAINT);
                }
            }
        }
        (bits & TAINT != 0, last.checked_sub(1))
    }

    /// Record that `step` defined every byte of `loc` with the given taint.
    fn define(&mut self, loc: Loc, step: u32, tainted: bool) {
        let e = (step + 1) | if tainted { TAINT } else { 0 };
        for (page, range) in PageMap::segments(loc) {
            self.0.page_mut(page)[range].fill(e);
        }
    }
}

// ---------------------------------------------------------------------------
// Lowered trace
// ---------------------------------------------------------------------------

/// An argument of a lowered micro-operation.
#[derive(Debug, Clone, Copy, PartialEq)]
enum MicroArg {
    /// An immediate integer.
    Imm(i64),
    /// A location (register shadow, FP slot or memory) with its observed value.
    Loc {
        /// The location read.
        loc: Loc,
        /// Raw bits observed in the trace (memory reads only; 0 otherwise).
        value: u64,
        /// Registers that formed the address of a memory access (base, then
        /// index when its scale is non-zero). Empty for direct accesses.
        addr_regs: [Option<Reg>; 2],
        /// First entry of this argument in the def-use table.
        uses: u32,
    },
}

impl MicroArg {
    fn simple(loc: Loc) -> MicroArg {
        MicroArg::Loc {
            loc,
            value: 0,
            addr_regs: [None, None],
            uses: NONE,
        }
    }

    /// Shadow locations of the address registers, in def-use table order.
    fn addr_reg_locs(addr_regs: [Option<Reg>; 2]) -> impl Iterator<Item = Loc> {
        addr_regs
            .into_iter()
            .flatten()
            .map(|r| Loc::reg(RegRef::full(r)))
    }
}

/// One lowered definition event (a value written to a location).
#[derive(Debug, Clone, Copy)]
struct DefEvent {
    /// Destination location.
    dst: Loc,
    /// Static instruction performing the definition.
    statik: u32,
    /// First argument in `PreparedTrace::args`.
    args: u32,
    /// Number of arguments.
    nargs: u16,
    /// Operation producing the value.
    op: TreeOp,
}

impl DefEvent {
    fn args(&self) -> std::ops::Range<usize> {
        self.args as usize..self.args as usize + self.nargs as usize
    }
}

/// A preprocessed dynamic instruction.
#[derive(Debug, Clone, Copy)]
struct MicroStep {
    /// First definition in `PreparedTrace::defs`; the step's definitions
    /// run up to the next step's.
    defs: u32,
    /// First of the two flag operands in `PreparedTrace::args`, or `NONE`
    /// if the instruction sets no flags from two operands.
    flags: u32,
    /// For conditional jumps: the condition and whether it was taken.
    branch: Option<(Cond, bool)>,
}

/// A branch direction an instruction requires (paper §4.6).
#[derive(Debug, Clone, Copy)]
struct Requirement {
    /// Static address of the input-dependent conditional jump.
    jcc_addr: u32,
    /// Its index in `PreparedTrace::jccs`.
    jcc: u32,
    /// The direction every execution of the instruction saw.
    taken: bool,
}

/// Per static instruction.
#[derive(Debug, Clone, Default)]
struct StaticInstr {
    /// Some dynamic instance addressed memory through an input-dependent
    /// register (an indirect, data-dependent access).
    indirect: bool,
    /// Index in `PreparedTrace::jccs` if this is an input-dependent
    /// conditional jump, else `NONE`.
    jcc: u32,
    /// Range of `PreparedTrace::reqs`, sorted by jump address.
    reqs: (u32, u32),
}

/// An input-dependent conditional jump.
#[derive(Debug, Clone)]
struct Jcc {
    /// Static address.
    addr: u32,
    /// Outcome of its latest dynamic occurrence.
    taken: bool,
    /// Dynamic occurrences in trace order: `(step, flag writer)`, the flag
    /// writer being the step that set the flags it tested (or `NONE`).
    occurrences: Vec<(u32, u32)>,
}

/// Errors produced during expression extraction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExtractError {
    /// An instruction could not be lowered for analysis.
    Unsupported(String),
    /// A memory operand of the instruction at this address has no recorded
    /// access in the trace.
    MissingAccess {
        /// Static address of the instruction.
        addr: u32,
    },
    /// No output buffer writes were found in the trace.
    NoOutputs,
}

impl std::fmt::Display for ExtractError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExtractError::Unsupported(s) => write!(f, "unsupported instruction for analysis: {s}"),
            ExtractError::MissingAccess { addr } => write!(
                f,
                "the memory operand of the instruction at {addr:#x} has no recorded access"
            ),
            ExtractError::NoOutputs => write!(f, "no writes to output buffers found in the trace"),
        }
    }
}

impl std::error::Error for ExtractError {}

/// Preprocessed trace: lowered micro-ops, the def-use table and the
/// forward-analysis tables (see the module docs for the layout).
#[derive(Debug, Default)]
pub struct PreparedTrace {
    steps: Vec<MicroStep>,
    defs: Vec<DefEvent>,
    args: Vec<MicroArg>,
    /// The def-use table: reaching definition ids (`NONE` if none).
    uses: Vec<u32>,
    statics: Vec<StaticInstr>,
    reqs: Vec<Requirement>,
    jccs: Vec<Jcc>,
}

// ---------------------------------------------------------------------------
// Trace preprocessing: lowering to micro-ops (paper §4.5)
// ---------------------------------------------------------------------------

fn missing(rec: &StepRecord) -> ExtractError {
    ExtractError::MissingAccess { addr: rec.addr }
}

fn operand_arg(op: &Operand, rec: &StepRecord, want_write: bool) -> Result<MicroArg, ExtractError> {
    Ok(match op {
        Operand::Reg(r) => MicroArg::simple(Loc::reg(*r)),
        Operand::Imm(v) => MicroArg::Imm(*v),
        Operand::Mem(_) => {
            // Find the matching access in the record.
            let acc = rec
                .mem
                .iter()
                .find(|m| m.is_write == want_write)
                .or_else(|| rec.mem.first())
                .ok_or_else(|| missing(rec))?;
            // A scale of zero contributes nothing to the address (an encoding
            // artifact of `[reg + reg*0 + disp]` forms); keeping it would
            // double-count the register in indirect-access index expressions
            // (e.g. lookup tables indexed by a pixel value).
            let index = acc.expr.index.filter(|_| acc.expr.scale != 0);
            let addr_regs = match acc.expr.base {
                Some(b) => [Some(b), index],
                None => [index, None],
            };
            MicroArg::Loc {
                loc: Loc::mem(acc.addr, acc.width.bytes()),
                value: acc.value,
                addr_regs,
                uses: NONE,
            }
        }
    })
}

fn fp_arg(src: &FpSrc, rec: &StepRecord, top: u8) -> Result<MicroArg, ExtractError> {
    Ok(match src {
        FpSrc::St(i) => MicroArg::simple(Loc::fp((top + i) % 8)),
        FpSrc::MemF32(_) | FpSrc::MemF64(_) | FpSrc::MemI32(_) => {
            let acc = rec
                .mem
                .iter()
                .find(|m| !m.is_write)
                .ok_or_else(|| missing(rec))?;
            MicroArg::Loc {
                loc: Loc::mem(acc.addr, acc.width.bytes()),
                value: acc.value,
                addr_regs: [None, None],
                uses: NONE,
            }
        }
    })
}

/// A memory read or write of the record, as a location and observed value.
fn access(rec: &StepRecord, is_write: bool) -> Option<(Loc, u64)> {
    rec.mem
        .iter()
        .find(|m| m.is_write == is_write)
        .map(|m| (Loc::mem(m.addr, m.width.bytes()), m.value))
}

fn alu_tree_op(op: AluOp) -> TreeOp {
    match op {
        AluOp::Add | AluOp::Adc => TreeOp::Add,
        AluOp::Sub | AluOp::Sbb => TreeOp::Sub,
        AluOp::And => TreeOp::And,
        AluOp::Or => TreeOp::Or,
        AluOp::Xor => TreeOp::Xor,
        AluOp::Imul => TreeOp::Mul,
    }
}

fn fp_tree_op(op: helium_machine::FpOp) -> TreeOp {
    match op {
        helium_machine::FpOp::Add => TreeOp::FAdd,
        helium_machine::FpOp::Sub => TreeOp::FSub,
        helium_machine::FpOp::Mul => TreeOp::FMul,
        helium_machine::FpOp::Div => TreeOp::FDiv,
    }
}

impl PreparedTrace {
    /// Append an argument, reserving its def-use table entries.
    fn push_arg(&mut self, arg: MicroArg) {
        let arg = match arg {
            MicroArg::Loc {
                loc,
                value,
                addr_regs,
                ..
            } => {
                let uses = self.uses.len() as u32;
                let n = 1 + addr_regs.iter().flatten().count();
                self.uses.extend(std::iter::repeat_n(NONE, n));
                MicroArg::Loc {
                    loc,
                    value,
                    addr_regs,
                    uses,
                }
            }
            imm => imm,
        };
        self.args.push(arg);
    }

    /// Append a definition of `dst` by the step being lowered.
    fn def(&mut self, dst: Loc, op: TreeOp, args: &[MicroArg]) {
        let first = self.args.len() as u32;
        for &a in args {
            self.push_arg(a);
        }
        self.defs.push(DefEvent {
            dst,
            statik: NONE,
            args: first,
            nargs: args.len() as u16,
            op,
        });
    }

    /// Define `dst` from `args` when `dst` is a location (a write to an
    /// immediate defines nothing).
    fn def_to(&mut self, dst: MicroArg, op: TreeOp, args: &[MicroArg]) {
        if let MicroArg::Loc { loc, .. } = dst {
            self.def(loc, op, args);
        }
    }

    /// Lower one dynamic instruction into definition and flag events and
    /// append it as the next step.
    fn lower(&mut self, rec: &StepRecord, statik: u32) -> Result<(), ExtractError> {
        let top = rec.fpu_top_before;
        let defs = self.defs.len() as u32;
        let mut flags = None;
        let mut branch = None;
        match &rec.instr {
            Instr::Mov { dst, src } => {
                let s = operand_arg(src, rec, false)?;
                let d = operand_arg(dst, rec, true)?;
                self.def_to(d, TreeOp::Move, &[s]);
            }
            Instr::Movzx { dst, src } => {
                let s = operand_arg(src, rec, false)?;
                self.def(Loc::reg(*dst), TreeOp::Move, &[s]);
            }
            Instr::Movsx { dst, src } => {
                let s = operand_arg(src, rec, false)?;
                self.def(Loc::reg(*dst), TreeOp::SignExtend, &[s]);
            }
            Instr::Lea { dst, addr } => {
                // lea computes an address without accessing memory: model it
                // as an addition of its register parts and displacement.
                let reg = |r: Option<Reg>| r.map(|r| MicroArg::simple(Loc::reg(RegRef::full(r))));
                let mut args = [MicroArg::Imm(0); 3];
                let mut n = 0;
                for a in [reg(addr.base), reg(addr.index)].into_iter().flatten() {
                    args[n] = a;
                    n += 1;
                }
                args[n] = MicroArg::Imm(addr.disp as i64);
                self.def(Loc::reg(*dst), TreeOp::Add, &args[..=n]);
            }
            Instr::Alu { op, dst, src } => {
                let d_read = operand_arg(dst, rec, false)?;
                let s = operand_arg(src, rec, false)?;
                let d_write = operand_arg(dst, rec, true)?;
                flags = Some([d_read, s]);
                self.def_to(d_write, alu_tree_op(*op), &[d_read, s]);
            }
            Instr::Shift { op, dst, amount } => {
                let d_read = operand_arg(dst, rec, false)?;
                let amt = operand_arg(amount, rec, false)?;
                let d_write = operand_arg(dst, rec, true)?;
                let tree_op = match op {
                    ShiftOp::Shl => TreeOp::Shl,
                    ShiftOp::Shr => TreeOp::Shr,
                    ShiftOp::Sar => TreeOp::Sar,
                };
                self.def_to(d_write, tree_op, &[d_read, amt]);
            }
            Instr::Inc { dst } | Instr::Dec { dst } => {
                let d_read = operand_arg(dst, rec, false)?;
                let d_write = operand_arg(dst, rec, true)?;
                let (op, flag_b) = match rec.instr {
                    Instr::Inc { .. } => (TreeOp::Add, -1),
                    _ => (TreeOp::Sub, 1),
                };
                flags = Some([d_read, MicroArg::Imm(flag_b)]);
                self.def_to(d_write, op, &[d_read, MicroArg::Imm(1)]);
            }
            Instr::Neg { dst } | Instr::Not { dst } => {
                let d_read = operand_arg(dst, rec, false)?;
                let d_write = operand_arg(dst, rec, true)?;
                let op = match rec.instr {
                    Instr::Neg { .. } => TreeOp::Neg,
                    _ => TreeOp::Not,
                };
                self.def_to(d_write, op, &[d_read]);
            }
            Instr::Cmp { a, b } | Instr::Test { a, b } => {
                flags = Some([operand_arg(a, rec, false)?, operand_arg(b, rec, false)?]);
            }
            Instr::Jcc { cond, .. } => {
                branch = Some((*cond, rec.branch_taken.unwrap_or(false)));
            }
            Instr::Push { src } => {
                let s = operand_arg(src, rec, false)?;
                if let Some((w, _)) = access(rec, true) {
                    self.def(w, TreeOp::Move, &[s]);
                }
            }
            Instr::Pop { dst } => {
                if let Some((r, value)) = access(rec, false) {
                    let s = MicroArg::Loc {
                        loc: r,
                        value,
                        addr_regs: [None, None],
                        uses: NONE,
                    };
                    match dst {
                        Operand::Reg(reg) => self.def(Loc::reg(*reg), TreeOp::Move, &[s]),
                        Operand::Mem(_) => {
                            if let Some((w, _)) = access(rec, true) {
                                self.def(w, TreeOp::Move, &[s]);
                            }
                        }
                        Operand::Imm(_) => {}
                    }
                }
            }
            Instr::Fld { src } => {
                let arg = fp_arg(src, rec, top)?;
                let op = match src {
                    FpSrc::MemI32(_) => TreeOp::IntToFloat,
                    _ => TreeOp::Move,
                };
                self.def(Loc::fp((top + 7) % 8), op, &[arg]);
            }
            Instr::Fst { dst, .. } => {
                let src = MicroArg::simple(Loc::fp(top));
                match dst {
                    FpSrc::St(i) => self.def(Loc::fp((top + i) % 8), TreeOp::Move, &[src]),
                    _ => {
                        if let Some((w, _)) = access(rec, true) {
                            self.def(w, TreeOp::Move, &[src]);
                        }
                    }
                }
            }
            Instr::Fistp { .. } => {
                if let Some((w, _)) = access(rec, true) {
                    let src = MicroArg::simple(Loc::fp(top));
                    self.def(w, TreeOp::FloatToIntRound, &[src]);
                }
            }
            Instr::Farith {
                op,
                src,
                reverse_dst,
                ..
            } => {
                if *reverse_dst {
                    let slot = match src {
                        FpSrc::St(i) => (top + i) % 8,
                        _ => top,
                    };
                    let args = [
                        MicroArg::simple(Loc::fp(slot)),
                        MicroArg::simple(Loc::fp(top)),
                    ];
                    self.def(Loc::fp(slot), fp_tree_op(*op), &args);
                } else {
                    let rhs = fp_arg(src, rec, top)?;
                    let args = [MicroArg::simple(Loc::fp(top)), rhs];
                    self.def(Loc::fp(top), fp_tree_op(*op), &args);
                }
            }
            Instr::Fxch { slot } => {
                let a = Loc::fp(top);
                let b = Loc::fp((top + slot) % 8);
                self.def(a, TreeOp::Move, &[MicroArg::simple(b)]);
                self.def(b, TreeOp::Move, &[MicroArg::simple(a)]);
            }
            Instr::CallExtern { func } => {
                // Arguments are consumed from the FP stack, result pushed back.
                let arity = func.arity() as u8;
                let mut args = [MicroArg::Imm(0); 8];
                for (i, a) in args.iter_mut().enumerate().take(arity as usize) {
                    *a = MicroArg::simple(Loc::fp((top + i as u8) % 8));
                }
                let result = Loc::fp((top + arity - 1) % 8);
                self.def(result, TreeOp::Extern(*func), &args[..arity as usize]);
            }
            Instr::Jmp { .. } | Instr::Call { .. } | Instr::Ret | Instr::Nop | Instr::Halt => {}
        }
        for d in &mut self.defs[defs as usize..] {
            d.statik = statik;
        }
        let flags = match flags {
            Some([a, b]) => {
                let first = self.args.len() as u32;
                self.push_arg(a);
                self.push_arg(b);
                first
            }
            None => NONE,
        };
        self.steps.push(MicroStep {
            defs,
            flags,
            branch,
        });
        Ok(())
    }

    /// Definitions of dynamic step `idx`, as global definition ids.
    fn step_defs(&self, idx: usize) -> std::ops::Range<usize> {
        let end = self
            .steps
            .get(idx + 1)
            .map_or(self.defs.len(), |s| s.defs as usize);
        self.steps[idx].defs as usize..end
    }

    /// The reaching definition of `loc` when `last` is the latest step that
    /// defined any of its bytes: that step's first definition overlapping
    /// `loc`.
    fn resolve(&self, loc: Loc, last: Option<u32>) -> u32 {
        let Some(step) = last else {
            return NONE;
        };
        let defs = self.step_defs(step as usize);
        let first = defs.start;
        defs.into_iter()
            .find(|&d| self.defs[d].dst.overlaps(&loc))
            .unwrap_or(first) as u32
    }
}

// ---------------------------------------------------------------------------
// The pass: lowering, forward analysis (paper §4.6) and reaching definitions
// ---------------------------------------------------------------------------

/// The longest trace [`prepare_trace`] accepts. Every step, argument and
/// def-use index then fits in a `u32` (a step has at most four arguments,
/// each with at most three def-use entries), and a step number plus one
/// stays below the shadow's taint bit.
const MAX_STEPS: usize = 1 << 28;

/// Per-static-instruction state of the forward pass.
#[derive(Default)]
struct Visits {
    /// The outcome version at the instruction's latest visit.
    seen: u64,
    /// Per input-dependent jump: `ABSENT`, `TAKEN`, `NOT_TAKEN` or `MIXED`.
    state: Vec<u8>,
}

const ABSENT: u8 = 0;
const TAKEN: u8 = 1;
const NOT_TAKEN: u8 = 2;
const MIXED: u8 = 3;

/// Lower the whole instruction trace and compute reaching definitions and
/// the forward-analysis facts, in one pass (see the module docs).
pub fn prepare_trace(
    trace: &InstructionTrace,
    input_buffers: &[BufferLayout],
) -> Result<PreparedTrace, ExtractError> {
    let n = trace.records.len();
    if n > MAX_STEPS {
        return Err(ExtractError::Unsupported(format!(
            "a trace of {n} instructions (at most {MAX_STEPS})"
        )));
    }
    let mut p = PreparedTrace {
        steps: Vec::with_capacity(n),
        defs: Vec::with_capacity(n),
        args: Vec::with_capacity(2 * n),
        uses: Vec::with_capacity(2 * n),
        ..PreparedTrace::default()
    };
    let mut shadow = Shadow::default();
    // Per code address: its static instruction id plus one.
    let mut static_ids = PageMap::default();
    let mut visits: Vec<Visits> = Vec::new();
    // Bumped whenever an input-dependent jump records an outcome.
    let mut version = 0u64;
    let mut flags_tainted = false;
    let mut last_flag_writer = NONE;
    let in_inputs = |loc: Loc| -> bool {
        loc.is_memory() && input_buffers.iter().any(|b| b.contains(loc.addr as u32))
    };
    // An argument is tainted if any byte is or it reads an input buffer;
    // the second flag: whether any of its address registers is tainted.
    let taint = |shadow: &Shadow, arg: MicroArg| -> (bool, bool) {
        match arg {
            MicroArg::Loc { loc, addr_regs, .. } => (
                shadow.read(loc).0 || in_inputs(loc),
                MicroArg::addr_reg_locs(addr_regs).any(|r| shadow.read(r).0),
            ),
            MicroArg::Imm(_) => (false, false),
        }
    };
    // Per argument of the current step: `taint` before its definitions.
    let mut pre: Vec<(bool, bool)> = Vec::new();

    for (idx, rec) in trace.records.iter().enumerate() {
        let id = static_ids.entry(rec.addr as u64);
        if *id == 0 {
            p.statics.push(StaticInstr {
                jcc: NONE,
                ..StaticInstr::default()
            });
            visits.push(Visits::default());
            *id = p.statics.len() as u32;
        }
        let statik = *id as usize - 1;
        let first_arg = p.args.len();
        p.lower(rec, statik as u32)?;
        let idx = idx as u32;

        // Requirements: fold in the jumps' latest outcomes, if any changed
        // since this instruction's previous visit.
        let v = &mut visits[statik];
        if v.seen != version {
            v.seen = version;
            v.state.resize(p.jccs.len(), ABSENT);
            for (s, j) in v.state.iter_mut().zip(&p.jccs) {
                let o = if j.taken { TAKEN } else { NOT_TAKEN };
                if *s == ABSENT {
                    *s = o;
                } else if *s != o {
                    *s = MIXED;
                }
            }
        }

        // Reaching definitions of every use, from the shadow as it stands
        // before this step's definitions. The same reads give each
        // argument's taint (or that of an address register) as the first
        // definition sees it.
        pre.clear();
        for a in first_arg..p.args.len() {
            let arg = p.args[a];
            if let MicroArg::Loc {
                loc,
                addr_regs,
                uses,
                ..
            } = arg
            {
                let u = uses as usize;
                let (tainted, last) = shadow.read(loc);
                p.uses[u] = p.resolve(loc, last);
                let mut regs_tainted = false;
                for (k, r) in MicroArg::addr_reg_locs(addr_regs).enumerate() {
                    let (tainted, last) = shadow.read(r);
                    regs_tainted |= tainted;
                    p.uses[u + 1 + k] = p.resolve(r, last);
                }
                pre.push((tainted || in_inputs(loc), regs_tainted));
            } else {
                pre.push((false, false));
            }
        }

        // Taint propagation, definition by definition: a later definition
        // of the step (fxch's second) sees what the earlier ones wrote.
        for (k, d) in p.step_defs(idx as usize).enumerate() {
            let def = p.defs[d];
            let mut t = false;
            for a in def.args() {
                let (arg_tainted, regs_tainted) = match k {
                    0 => pre[a - first_arg],
                    _ => taint(&shadow, p.args[a]),
                };
                t |= arg_tainted;
                // Indirect access: an address register is tainted.
                p.statics[statik].indirect |= regs_tainted;
            }
            shadow.define(def.dst, idx, t);
        }

        // Flags, from the operands as they stand after the definitions.
        let step = p.steps[idx as usize];
        if step.flags != NONE {
            let f = step.flags as usize;
            let defined = !p.step_defs(idx as usize).is_empty();
            flags_tainted = (f..f + 2).any(|a| match defined {
                false => pre[a - first_arg].0,
                true => taint(&shadow, p.args[a]).0,
            });
            last_flag_writer = idx;
        }

        // Conditional jumps on tainted flags are input-dependent conditionals.
        if let Some((_, taken)) = step.branch {
            if flags_tainted {
                let mut j = p.statics[statik].jcc;
                if j == NONE {
                    j = p.jccs.len() as u32;
                    p.statics[statik].jcc = j;
                    p.jccs.push(Jcc {
                        addr: rec.addr,
                        taken,
                        occurrences: Vec::new(),
                    });
                }
                let jcc = &mut p.jccs[j as usize];
                jcc.taken = taken;
                jcc.occurrences.push((idx, last_flag_writer));
                version += 1;
            }
        }
    }

    // Keep the directions that were consistent over the whole trace.
    for (s, v) in visits.iter().enumerate() {
        let start = p.reqs.len();
        for (j, &state) in v.state.iter().enumerate() {
            if state == TAKEN || state == NOT_TAKEN {
                p.reqs.push(Requirement {
                    jcc_addr: p.jccs[j].addr,
                    jcc: j as u32,
                    taken: state == TAKEN,
                });
            }
        }
        p.reqs[start..].sort_by_key(|r| r.jcc_addr);
        p.statics[s].reqs = (start as u32, p.reqs.len() as u32);
    }
    Ok(p)
}

// ---------------------------------------------------------------------------
// Backward analysis (paper §4.7)
// ---------------------------------------------------------------------------

/// Context for building concrete trees.
pub struct TreeBuilder<'a> {
    prepared: &'a PreparedTrace,
    buffers: &'a [BufferLayout],
    membership: BufferMap,
}

/// Which buffer an address belongs to: the first of the inferred buffers
/// containing it, looked up by binary search over the elementary intervals
/// the buffers' bounds cut the address space into.
struct BufferMap {
    /// Sorted interval starts.
    starts: Vec<u32>,
    /// Per interval: index of the first buffer containing it, or `NONE`.
    owner: Vec<u32>,
}

impl BufferMap {
    fn new(buffers: &[BufferLayout]) -> BufferMap {
        let mut starts: Vec<u32> = buffers.iter().flat_map(|b| [b.base, b.end]).collect();
        starts.sort_unstable();
        starts.dedup();
        let owner = starts
            .iter()
            .map(|&a| {
                buffers
                    .iter()
                    .position(|b| b.contains(a))
                    .map_or(NONE, |b| b as u32)
            })
            .collect();
        BufferMap { starts, owner }
    }

    fn get(&self, addr: u64) -> Option<usize> {
        if addr >= REG_SPACE {
            return None;
        }
        let i = self.starts.partition_point(|&s| s as u64 <= addr);
        match self.owner.get(i.checked_sub(1)?) {
            Some(&b) if b != NONE => Some(b as usize),
            _ => None,
        }
    }
}

/// The tree under construction and what its expansion collected.
struct Expansion<'t> {
    tree: Tree,
    /// Name of the output buffer the tree writes.
    out_buffer: &'t str,
    recursive: bool,
    /// Branch directions required along the way, sorted by jump address.
    required: Vec<Requirement>,
}

impl Expansion<'_> {
    fn new(out_buffer: &str, output: Leaf, output_width: u32) -> Expansion<'_> {
        Expansion {
            tree: Tree {
                nodes: Vec::new(),
                root: 0,
                output,
                output_width,
            },
            out_buffer,
            recursive: false,
            required: Vec::new(),
        }
    }

    /// Record a requirement; a later one for the same jump overrides.
    fn require(&mut self, r: Requirement) {
        match self
            .required
            .binary_search_by_key(&r.jcc_addr, |q| q.jcc_addr)
        {
            Ok(i) => self.required[i] = r,
            Err(i) => self.required.insert(i, r),
        }
    }

    fn leaf(&mut self, leaf: Leaf) -> usize {
        self.tree.push(TreeNode::Leaf(leaf))
    }

    fn op(&mut self, op: TreeOp, children: Vec<usize>, width: u32) -> usize {
        self.tree.push(TreeNode::Op {
            op,
            children,
            width,
        })
    }

    fn finish(mut self, root: usize) -> Tree {
        self.tree.root = root;
        self.tree.canonicalize();
        self.tree
    }
}

impl<'a> TreeBuilder<'a> {
    /// Create a builder over a prepared trace and the inferred buffer layouts.
    pub fn new(prepared: &'a PreparedTrace, buffers: &'a [BufferLayout]) -> Self {
        TreeBuilder {
            prepared,
            buffers,
            membership: BufferMap::new(buffers),
        }
    }

    fn buffer_of(&self, addr: u64) -> Option<&'a BufferLayout> {
        self.membership.get(addr).map(|b| &self.buffers[b])
    }

    /// Build the concrete guarded tree for the output write performed by the
    /// def `def_idx` of dynamic step `idx`.
    pub fn build_output_tree(&self, idx: usize, def_idx: usize) -> Option<GuardedTree> {
        let p = self.prepared;
        let def_id = p.steps[idx].defs as usize + def_idx;
        let dst = p.defs[def_id].dst;
        let out_buffer = &self.buffer_of(dst.addr)?.name;
        let output = Leaf::Mem {
            addr: dst.addr,
            width: dst.width,
            value: 0,
        };
        let mut x = Expansion::new(out_buffer, output, dst.width);
        let root = self.expand(def_id, &mut x, 0);
        let recursive = x.recursive;
        let required = std::mem::take(&mut x.required);
        let tree = x.finish(root);

        // Build predicate trees for the requirements collected along the way.
        let predicates = required
            .iter()
            .filter_map(|r| self.build_predicate(idx, r.jcc, r.taken, out_buffer))
            .collect();
        Some(GuardedTree {
            tree,
            predicates,
            recursive,
        })
    }

    fn expand(&self, def_id: usize, x: &mut Expansion, depth: usize) -> usize {
        let p = self.prepared;
        let def = &p.defs[def_id];
        let statik = &p.statics[def.statik as usize];
        // Record control requirements of this instruction.
        for r in &p.reqs[statik.reqs.0 as usize..statik.reqs.1 as usize] {
            x.require(*r);
        }
        if depth > 512 {
            return x.leaf(Leaf::Const(0));
        }
        // Collapse pure moves with a single child to keep trees small, but
        // keep width-changing moves as explicit downcast nodes.
        if def.op == TreeOp::Move && def.nargs == 1 {
            let child = self.expand_arg(def.args as usize, x, depth, statik.indirect);
            let src_width = match &p.args[def.args as usize] {
                MicroArg::Loc { loc, .. } => loc.width,
                MicroArg::Imm(_) => def.dst.width,
            };
            if src_width == def.dst.width {
                return child;
            }
            let op = if def.dst.width < src_width {
                TreeOp::Downcast
            } else {
                TreeOp::Move
            };
            return x.op(op, vec![child], def.dst.width);
        }
        let children = def
            .args()
            .map(|a| self.expand_arg(a, x, depth, statik.indirect))
            .collect();
        x.op(def.op, children, def.dst.width)
    }

    /// The index expression of an indirect access: the sum of its address
    /// registers' values, each expanded from its reaching definition.
    fn index_expr(
        &self,
        addr_regs: [Option<Reg>; 2],
        uses: usize,
        x: &mut Expansion,
        depth: usize,
    ) -> usize {
        let p = self.prepared;
        let children: Vec<usize> = MicroArg::addr_reg_locs(addr_regs)
            .enumerate()
            .map(|(k, r)| match p.uses[uses + 1 + k] {
                NONE => x.leaf(Leaf::Mem {
                    addr: r.addr,
                    width: r.width,
                    value: 0,
                }),
                d => self.expand(d as usize, x, depth + 1),
            })
            .collect();
        if children.len() == 1 {
            children[0]
        } else {
            x.op(TreeOp::Add, children, 4)
        }
    }

    fn expand_arg(&self, arg: usize, x: &mut Expansion, depth: usize, indirect: bool) -> usize {
        let p = self.prepared;
        let (loc, value, addr_regs, uses) = match p.args[arg] {
            MicroArg::Imm(v) => return x.leaf(Leaf::Const(v)),
            MicroArg::Loc {
                loc,
                value,
                addr_regs,
                uses,
            } => (loc, value, addr_regs, uses as usize),
        };
        let has_regs = addr_regs.iter().any(Option::is_some);
        // Recursive reference to the output buffer?
        if let Some(b) = self.buffer_of(loc.addr) {
            if b.role == BufferRole::Output && b.name == x.out_buffer {
                x.recursive = true;
                let rec_leaf = x.leaf(Leaf::RecursiveRef {
                    buffer: b.name.clone(),
                });
                // Indirectly addressed recursive outputs (histograms) keep
                // the address-calculation expression so the reduction domain
                // can be inferred from it (paper §4.9).
                if indirect && has_regs {
                    let index = self.index_expr(addr_regs, uses, x, depth);
                    return x.op(TreeOp::IndirectLoad, vec![rec_leaf, index], loc.width);
                }
                return rec_leaf;
            }
        }
        // Indirect (table) access: wrap the leaf in an IndirectLoad whose
        // child is the index expression built from the address registers.
        if indirect && loc.is_memory() && has_regs {
            let index = self.index_expr(addr_regs, uses, x, depth);
            let mem_leaf = x.leaf(Leaf::Mem {
                addr: loc.addr,
                width: loc.width,
                value,
            });
            return x.op(TreeOp::IndirectLoad, vec![mem_leaf, index], loc.width);
        }
        // Follow the reaching definition if there is one.
        match p.uses[uses] {
            NONE => x.leaf(Leaf::Mem {
                addr: loc.addr,
                width: loc.width,
                value,
            }),
            d => {
                let child = self.expand(d as usize, x, depth + 1);
                let def_width = p.defs[d as usize].dst.width;
                if loc.width < def_width {
                    x.op(TreeOp::Downcast, vec![child], loc.width)
                } else {
                    child
                }
            }
        }
    }

    /// Build the predicate tree for the most recent dynamic occurrence of the
    /// input-dependent conditional `jcc` before `before_idx` (or its first
    /// occurrence if none precedes it).
    fn build_predicate(
        &self,
        before_idx: usize,
        jcc: u32,
        taken: bool,
        out_buffer: &str,
    ) -> Option<Predicate> {
        let p = self.prepared;
        let occurrences = &p.jccs[jcc as usize].occurrences;
        let &(jcc_idx, flag_idx) =
            match occurrences.partition_point(|&(i, _)| i as usize <= before_idx) {
                0 => occurrences.first(),
                after => occurrences.get(after - 1),
            }?;
        if flag_idx == NONE {
            return None;
        }
        let flags = p.steps[flag_idx as usize].flags;
        if flags == NONE {
            return None;
        }
        let (cond, _) = p.steps[jcc_idx as usize].branch?;
        let cmp = cond_to_cmp(cond);
        let cmp = if taken { cmp } else { cmp.negate() };
        let lhs = self.build_flag_side(flags as usize, out_buffer);
        let rhs = self.build_flag_side(flags as usize + 1, out_buffer);
        Some(Predicate { cmp, lhs, rhs })
    }

    /// The tree of one flag operand: its reaching definition expanded, with
    /// no downcast, indirect-access or recursion handling.
    fn build_flag_side(&self, arg: usize, out_buffer: &str) -> Tree {
        let p = self.prepared;
        let mut x = Expansion::new(out_buffer, Leaf::Const(0), 4);
        let root = match p.args[arg] {
            MicroArg::Imm(v) => x.leaf(Leaf::Const(v)),
            MicroArg::Loc {
                loc, value, uses, ..
            } => match p.uses[uses as usize] {
                NONE => x.leaf(Leaf::Mem {
                    addr: loc.addr,
                    width: loc.width,
                    value,
                }),
                d => self.expand(d as usize, &mut x, 0),
            },
        };
        x.finish(root)
    }

    /// Enumerate all output-buffer writes in the trace as `(step, def)` pairs.
    pub fn output_writes(&self) -> Vec<(usize, usize)> {
        let p = self.prepared;
        let mut out = Vec::new();
        for i in 0..p.steps.len() {
            let defs = p.step_defs(i);
            let first = defs.start;
            for d in defs {
                let role = self.buffer_of(p.defs[d].dst.addr).map(|b| b.role);
                if role == Some(BufferRole::Output) {
                    out.push((i, d - first));
                }
            }
        }
        out
    }
}

fn cond_to_cmp(cond: Cond) -> PredicateCmp {
    match cond {
        Cond::Z => PredicateCmp::Eq,
        Cond::Nz => PredicateCmp::Ne,
        Cond::B | Cond::L => PredicateCmp::Lt,
        Cond::Nb | Cond::Ge => PredicateCmp::Ge,
        Cond::Be | Cond::Le => PredicateCmp::Le,
        Cond::A | Cond::G => PredicateCmp::Gt,
        Cond::S => PredicateCmp::Lt,
        Cond::Ns => PredicateCmp::Ge,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::BufferRole;
    use crate::lift::LiftError;
    use helium_machine::isa::regs;
    use helium_machine::{AddrExpr, MemAccess, MemRef, Width};

    fn mem_access(addr: u32, width: Width, is_write: bool, value: u64) -> MemAccess {
        MemAccess {
            addr,
            width,
            is_write,
            value,
            expr: AddrExpr {
                base: None,
                base_value: 0,
                index: None,
                index_value: 0,
                scale: 1,
                disp: addr as i32,
            },
        }
    }

    fn record(addr: u32, instr: Instr, mem: Vec<MemAccess>) -> StepRecord {
        StepRecord {
            addr,
            instr,
            mem,
            branch_taken: None,
            call_target: None,
            is_ret: false,
            extern_call: None,
            fpu_top_before: 0,
            next_pc: addr + 4,
        }
    }

    fn prepare(records: Vec<StepRecord>, inputs: &[BufferLayout]) -> PreparedTrace {
        let invocations = vec![(0, records.len())];
        let trace = InstructionTrace {
            records,
            invocations,
        };
        prepare_trace(&trace, inputs).expect("the trace lowers")
    }

    fn mov(addr: u32, dst: RegRef, src: Operand) -> StepRecord {
        record(
            addr,
            Instr::Mov {
                dst: Operand::Reg(dst),
                src,
            },
            vec![],
        )
    }

    /// The def-use entry of argument `a`: its reaching definition id.
    fn reaching(p: &PreparedTrace, a: usize) -> u32 {
        match p.args[a] {
            MicroArg::Loc { uses, .. } => p.uses[uses as usize],
            MicroArg::Imm(_) => panic!("argument {a} is an immediate"),
        }
    }

    #[test]
    fn lowering_mov_and_alu() {
        let add = record(
            0x1004,
            Instr::Alu {
                op: AluOp::Add,
                dst: Operand::Reg(regs::eax()),
                src: Operand::Mem(MemRef::absolute(0x9000, Width::B4)),
            },
            vec![mem_access(0x9000, Width::B4, false, 42)],
        );
        let p = prepare(vec![mov(0x1000, regs::eax(), Operand::Imm(5)), add], &[]);
        assert_eq!(p.defs.len(), 2);
        assert_eq!(p.defs[0].op, TreeOp::Move);
        assert_eq!(p.args[p.defs[0].args as usize], MicroArg::Imm(5));
        assert_eq!(p.defs[1].op, TreeOp::Add);
        assert_eq!(p.defs[1].nargs, 2);
        assert_ne!(p.steps[1].flags, NONE, "add sets the flags");
        // The add reads eax as the mov left it, and memory no step defined.
        assert_eq!(reaching(&p, p.defs[1].args as usize), 0);
        assert_eq!(reaching(&p, p.defs[1].args as usize + 1), NONE);
    }

    #[test]
    fn lowering_fp_uses_physical_slots() {
        let rec = StepRecord {
            fpu_top_before: 3,
            ..record(
                0x1000,
                Instr::Fld {
                    src: FpSrc::MemF64(MemRef::absolute(0x9100, Width::B8)),
                },
                vec![mem_access(0x9100, Width::B8, false, 0)],
            )
        };
        let p = prepare(vec![rec], &[]);
        // Push decrements the top: physical slot 2.
        assert_eq!(p.defs[0].dst, Loc::fp(2));
    }

    #[test]
    fn memory_operand_without_an_access_is_an_error() {
        let cases = [
            record(
                0x1000,
                Instr::Mov {
                    dst: Operand::Reg(regs::eax()),
                    src: Operand::Mem(MemRef::absolute(0x9000, Width::B4)),
                },
                vec![],
            ),
            record(
                0x1008,
                Instr::Fld {
                    src: FpSrc::MemF64(MemRef::absolute(0x9100, Width::B8)),
                },
                vec![],
            ),
        ];
        for rec in cases {
            let addr = rec.addr;
            let trace = InstructionTrace {
                records: vec![mov(0x0ffc, regs::ebx(), Operand::Imm(1)), rec],
                invocations: vec![(0, 2)],
            };
            let err = prepare_trace(&trace, &[]).expect_err("no access recorded");
            assert_eq!(err, ExtractError::MissingAccess { addr });
            // `Lifter::lift` propagates it with `?` as an extraction error.
            assert!(matches!(
                LiftError::from(err),
                LiftError::Extract(ExtractError::MissingAccess { .. })
            ));
        }
    }

    #[test]
    fn shadow_splits_a_location_at_a_page_boundary() {
        let mut s = Shadow::default();
        s.define(Loc::mem(0x1ffe, 4), 3, true);
        assert_eq!(s.0.pages.len(), 2, "one page each side of 0x2000");
        for addr in [0x1ffe, 0x1fff, 0x2000, 0x2001] {
            assert_eq!(s.read(Loc::mem(addr, 1)), (true, Some(3)), "{addr:#x}");
        }
        assert_eq!(s.read(Loc::mem(0x1ffc, 2)), (false, None));
        assert_eq!(s.read(Loc::mem(0x2002, 2)), (false, None));
        // A read across the boundary merges both pages' bytes.
        s.define(Loc::mem(0x2000, 1), 5, false);
        assert_eq!(s.read(Loc::mem(0x1fff, 2)), (true, Some(5)));
    }

    #[test]
    fn shadow_holds_register_and_fp_bytes() {
        let mut s = Shadow::default();
        s.define(Loc::reg(regs::eax()), 1, false);
        s.define(Loc::fp(2), 2, true);
        assert_eq!(s.read(Loc::reg(regs::ah())), (false, Some(1)));
        assert_eq!(s.read(Loc::reg(regs::ebx())), (false, None));
        assert_eq!(s.read(Loc::fp(2)), (true, Some(2)));
        assert_eq!(s.read(Loc::fp(3)), (false, None));
        // Registers and FP slots live on their own pages, above memory.
        assert_eq!(s.0.pages.len(), 2);
        assert_eq!(s.read(Loc::mem(0, 8)), (false, None));
    }

    #[test]
    fn partial_overwrite_reaches_the_latest_byte_definition() {
        // eax = 5; al = 7; ebx = eax. Bytes 1..4 of eax come from the first
        // step and byte 0 from the second: the latest of them (max over
        // bytes) is the reaching definition.
        let p = prepare(
            vec![
                mov(0x1000, regs::eax(), Operand::Imm(5)),
                mov(0x1004, regs::al(), Operand::Imm(7)),
                mov(0x1008, regs::ebx(), Operand::Reg(regs::eax())),
                mov(0x100c, regs::ecx(), Operand::Reg(regs::ah())),
            ],
            &[],
        );
        assert_eq!(reaching(&p, p.defs[2].args as usize), 1);
        // ah alone was last written by the first step.
        assert_eq!(reaching(&p, p.defs[3].args as usize), 0);
        let mut s = Shadow::default();
        s.define(Loc::reg(regs::eax()), 4, false);
        s.define(Loc::reg(regs::al()), 7, false);
        assert_eq!(s.read(Loc::reg(regs::eax())).1, Some(7));
        assert_eq!(s.read(Loc::reg(regs::ah())).1, Some(4));
    }

    #[test]
    fn requirements_keep_only_consistent_directions() {
        let input = BufferLayout {
            name: "input_1".into(),
            role: BufferRole::Input,
            base: 0x9000,
            end: 0x9100,
            element_size: 1,
            strides: vec![1],
            extents: vec![256],
        };
        let cmp = |addr: u32| {
            record(
                addr,
                Instr::Cmp {
                    a: Operand::Mem(MemRef::absolute(0x9000, Width::B1)),
                    b: Operand::Imm(0),
                },
                vec![mem_access(0x9000, Width::B1, false, 0)],
            )
        };
        let jcc = |taken: bool| StepRecord {
            branch_taken: Some(taken),
            ..record(
                0x2004,
                Instr::Jcc {
                    cond: Cond::A,
                    target: 0x3000,
                },
                vec![],
            )
        };
        let p = prepare(
            vec![
                cmp(0x2000),
                jcc(true),
                mov(0x2008, regs::ebx(), Operand::Imm(1)),
                cmp(0x2000),
                jcc(false),
                mov(0x2008, regs::ebx(), Operand::Imm(1)),
                mov(0x200c, regs::ecx(), Operand::Imm(2)),
            ],
            &[input],
        );
        assert_eq!(p.jccs.len(), 1);
        assert_eq!(p.jccs[0].occurrences, vec![(1, 0), (4, 3)]);
        let reqs = |step: usize| {
            let s = &p.statics[p.defs[p.steps[step].defs as usize].statik as usize];
            p.reqs[s.reqs.0 as usize..s.reqs.1 as usize]
                .iter()
                .map(|r| (r.jcc_addr, r.taken))
                .collect::<Vec<_>>()
        };
        // 0x2008 ran after both outcomes; 0x200c only after "not taken".
        assert_eq!(reqs(2), vec![]);
        assert_eq!(reqs(6), vec![(0x2004, false)]);
    }

    #[test]
    fn loc_helpers() {
        let r = Loc::reg(regs::ah());
        assert!(!r.is_memory());
        assert_eq!(r.width, 1);
        let m = Loc::mem(0x1000, 4);
        assert!(m.is_memory());
        assert!(m.overlaps(&Loc::mem(0x1002, 4)));
        assert!(!m.overlaps(&Loc::mem(0x1004, 4)));
    }

    #[test]
    fn cond_mapping() {
        assert_eq!(cond_to_cmp(Cond::A), PredicateCmp::Gt);
        assert_eq!(cond_to_cmp(Cond::Z), PredicateCmp::Eq);
        assert_eq!(cond_to_cmp(Cond::B), PredicateCmp::Lt);
    }
}
