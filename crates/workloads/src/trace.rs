//! Trace-driven instruction sources.
//!
//! Besides the statistical models, the simulator accepts explicit
//! instruction traces in a small text format, so externally generated
//! traces (e.g. from a binary-instrumentation tool) can drive the same
//! pipeline and memory models the paper's Tango-Lite traces drove.
//!
//! # Format
//!
//! One instruction per line; blank lines and `#` comments are ignored.
//! Fields are whitespace-separated; addresses accept decimal or `0x` hex.
//!
//! ```text
//! # kind  operands
//! A                     # integer ALU op
//! H                     # shift
//! M                     # integer multiply
//! V                     # integer divide
//! F                     # FP add/sub/conv
//! X                     # FP multiply
//! D                     # FP divide (double)
//! d                     # FP divide (single)
//! L <addr>              # load
//! S <addr>              # store
//! B <taken 0|1> <target>  # branch
//! K <cycles>            # backoff
//! N                     # nop
//! ```
//!
//! Register dependences are synthesized round-robin (trace formats of the
//! paper's era carried addresses and op kinds, not register names); loads
//! are followed by a consumer of their destination as in compiled code.

use std::num::ParseIntError;
use std::str::FromStr;

use interleave_core::InstrSource;
use interleave_isa::{Instr, Op, Reg};

/// One parsed trace record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceRecord {
    /// Plain operation of the given class.
    Op(Op),
    /// Load from an address.
    Load(u64),
    /// Store to an address.
    Store(u64),
    /// Branch with resolved outcome and target.
    Branch {
        /// Whether the branch is taken.
        taken: bool,
        /// Target address.
        target: u64,
    },
    /// Backoff for a number of cycles.
    Backoff(u32),
}

/// Error produced when a trace line cannot be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseTraceError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseTraceError {}

fn parse_num(s: &str) -> Result<u64, ParseIntError> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16)
    } else {
        u64::from_str(s)
    }
}

fn parse_line(line: &str) -> Result<Option<TraceRecord>, String> {
    let body = line.split('#').next().unwrap_or("").trim();
    if body.is_empty() {
        return Ok(None);
    }
    let mut fields = body.split_whitespace();
    let kind = fields.next().expect("non-empty body has a first field");
    let mut arg = |name: &str| {
        fields
            .next()
            .ok_or_else(|| format!("missing {name}"))
            .and_then(|s| parse_num(s).map_err(|e| format!("bad {name} `{s}`: {e}")))
    };
    let record = match kind {
        "A" => TraceRecord::Op(Op::IntAlu),
        "H" => TraceRecord::Op(Op::Shift),
        "M" => TraceRecord::Op(Op::IntMul),
        "V" => TraceRecord::Op(Op::IntDiv),
        "F" => TraceRecord::Op(Op::FpAdd),
        "X" => TraceRecord::Op(Op::FpMul),
        "D" => TraceRecord::Op(Op::FpDivDouble),
        "d" => TraceRecord::Op(Op::FpDivSingle),
        "N" => TraceRecord::Op(Op::Nop),
        "L" => TraceRecord::Load(arg("address")?),
        "S" => TraceRecord::Store(arg("address")?),
        "K" => TraceRecord::Backoff(arg("cycles")?.try_into().map_err(|_| "backoff too large")?),
        "B" => {
            let taken = match arg("taken flag")? {
                0 => false,
                1 => true,
                other => return Err(format!("taken flag must be 0 or 1, got {other}")),
            };
            TraceRecord::Branch { taken, target: arg("target")? }
        }
        other => return Err(format!("unknown record kind `{other}`")),
    };
    if fields.next().is_some() {
        return Err("trailing fields".to_string());
    }
    Ok(Some(record))
}

/// Parses a whole trace text into records.
///
/// # Errors
///
/// Returns the first offending line on malformed input.
///
/// # Examples
///
/// ```
/// use interleave_workloads::trace::parse_trace;
///
/// let records = parse_trace("A\nL 0x100\nB 1 0x40\n# comment\n").unwrap();
/// assert_eq!(records.len(), 3);
/// ```
pub fn parse_trace(text: &str) -> Result<Vec<TraceRecord>, ParseTraceError> {
    let mut records = Vec::new();
    for (i, line) in text.lines().enumerate() {
        match parse_line(line) {
            Ok(Some(r)) => records.push(r),
            Ok(None) => {}
            Err(message) => return Err(ParseTraceError { line: i + 1, message }),
        }
    }
    Ok(records)
}

/// An [`InstrSource`] replaying a parsed trace.
///
/// PCs advance sequentially from `pc_base` (4 bytes per instruction,
/// redirected by taken branches); registers are synthesized round-robin
/// with load results consumed by the following dependent operation, as in
/// compiled code.
#[derive(Debug, Clone)]
pub struct TraceSource {
    records: std::vec::IntoIter<TraceRecord>,
    pc: u64,
    rr: u8,
    last_dst: Reg,
}

impl TraceSource {
    /// Creates a source replaying `records` with code placed at `pc_base`.
    pub fn new(records: Vec<TraceRecord>, pc_base: u64) -> TraceSource {
        TraceSource { records: records.into_iter(), pc: pc_base, rr: 0, last_dst: Reg::int(8) }
    }

    /// Parses `text` and builds the source.
    ///
    /// # Errors
    ///
    /// Propagates [`ParseTraceError`] from [`parse_trace`].
    pub fn from_text(text: &str, pc_base: u64) -> Result<TraceSource, ParseTraceError> {
        Ok(TraceSource::new(parse_trace(text)?, pc_base))
    }

    fn next_dst(&mut self, fp: bool) -> Reg {
        self.rr = (self.rr + 1) % 16;
        let reg = if fp { Reg::fp(8 + self.rr) } else { Reg::int(8 + self.rr) };
        self.last_dst = reg;
        reg
    }
}

impl InstrSource for TraceSource {
    fn next_run(&mut self, out: &mut Vec<Instr>, max: usize) -> usize {
        let before = out.len();
        while out.len() - before < max {
            let Some(record) = self.records.next() else { break };
            let pc = self.pc;
            self.pc += 4;
            let src = self.last_dst;
            out.push(match record {
                TraceRecord::Op(op) => {
                    let fp = op.is_fp();
                    let src = if fp == src.is_fp() { Some(src) } else { None };
                    let dst = self.next_dst(fp);
                    Instr::arith(pc, op, Some(dst), src, None)
                }
                TraceRecord::Load(addr) => {
                    let dst = self.next_dst(false);
                    Instr::load(pc, dst, Reg::int(29), addr)
                }
                TraceRecord::Store(addr) => Instr::store(pc, src, Reg::int(29), addr),
                TraceRecord::Branch { taken, target } => {
                    if taken {
                        self.pc = target;
                    }
                    Instr::branch(pc, Some(src), taken, target)
                }
                TraceRecord::Backoff(cycles) => Instr::backoff(pc, cycles.max(1)),
            });
        }
        out.len() - before
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_kind() {
        let text = "A\nH\nM\nV\nF\nX\nD\nd\nN\nL 256\nS 0x100\nB 0 0x40\nK 12\n";
        let records = parse_trace(text).unwrap();
        assert_eq!(records.len(), 13);
        assert_eq!(records[9], TraceRecord::Load(256));
        assert_eq!(records[10], TraceRecord::Store(0x100));
        assert_eq!(records[11], TraceRecord::Branch { taken: false, target: 0x40 });
        assert_eq!(records[12], TraceRecord::Backoff(12));
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let records = parse_trace("# header\n\nA # inline\n\n").unwrap();
        assert_eq!(records.len(), 1);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = parse_trace("A\nZ\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("unknown"));
        let err = parse_trace("L\n").unwrap_err();
        assert!(err.message.contains("missing"));
        let err = parse_trace("B 2 0x40\n").unwrap_err();
        assert!(err.message.contains("taken"));
        let err = parse_trace("A extra\n").unwrap_err();
        assert!(err.message.contains("trailing"));
    }

    fn pull_all(src: &mut TraceSource) -> Vec<Instr> {
        let mut out = Vec::new();
        while src.next_run(&mut out, 1) == 1 {}
        out
    }

    #[test]
    fn replays_with_sequential_pcs_and_branch_redirect() {
        let mut src = TraceSource::from_text("A\nB 1 0x1000\nA\n", 0x400).unwrap();
        let [a, b, c] = pull_all(&mut src)[..] else { panic!("three instructions") };
        assert_eq!(a.pc, 0x400);
        assert_eq!(b.pc, 0x404);
        assert!(b.branch.unwrap().taken);
        assert_eq!(c.pc, 0x1000, "taken branch redirects the PC");
    }

    #[test]
    fn loads_feed_following_instructions() {
        let mut src = TraceSource::from_text("L 0x80\nA\n", 0).unwrap();
        let [load, alu] = pull_all(&mut src)[..] else { panic!("two instructions") };
        assert_eq!(alu.src1, load.dst, "the consumer reads the load result");
    }

    #[test]
    fn appends_what_it_returns_and_runs_short_only_at_end() {
        let text = "A\nL 0x80\nA\nF\nB 1 0x40\nS 0x100\nK 3\n";
        let reference = pull_all(&mut TraceSource::from_text(text, 0x400).unwrap());
        assert_eq!(reference.len(), 7);
        let sentinel = Instr::nop(0xdead);
        let mut src = TraceSource::from_text(text, 0x400).unwrap();
        let mut out = vec![sentinel];
        for (max, want) in [(0, 0), (2, 2), (1, 1), (3, 3), (4, 1), (4, 0)] {
            let before = out.len();
            assert_eq!(src.next_run(&mut out, max), want);
            assert_eq!(out.len(), before + want);
        }
        assert_eq!(out[0], sentinel);
        assert_eq!(out[1..], reference[..]);
    }

    #[test]
    fn trace_runs_on_the_processor() {
        use interleave_core::{ProcConfig, Processor, Scheme};
        use interleave_mem::{MemConfig, UniMemSystem};
        let text = "A\nL 0x100\nA\nF\nB 1 0\nA\nS 0x100\n";
        let mut cpu = Processor::new(
            ProcConfig::new(Scheme::Single, 1),
            UniMemSystem::new(MemConfig::workstation()),
        );
        cpu.attach(0, Box::new(TraceSource::from_text(text, 0x400).unwrap()));
        cpu.run_until_done(1_000_000);
        assert!(cpu.is_done());
        assert_eq!(cpu.retired(0), 7);
    }
}
