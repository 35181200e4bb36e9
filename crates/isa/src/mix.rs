//! Synthetic compute-block generation.
//!
//! Workload models describe computation as *blocks* with a statistical
//! profile: an instruction mix, a memory-access pattern and a
//! branch-predictability profile. [`BlockGen`] turns such a profile into a
//! deterministic (seeded) stream of [`DynInst`]s with **stable static PCs**:
//! the generator fabricates a static loop body once and then iterates it,
//! varying only data addresses and flaky-branch outcomes. Stable PCs matter
//! because both the gshare predictor and the Power-Token History Table
//! (PTHT) of the paper are PC-indexed.

use crate::addr::{layout, Addr, CACHE_LINE_BYTES};
use crate::inst::{BranchInfo, DynInst, ExecCtx, MemRef, OpKind};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Relative frequencies of compute-block instruction kinds.
///
/// Weights need not sum to 1; they are normalised internally.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InstMix {
    /// Integer ALU weight.
    pub int_alu: f32,
    /// Integer multiply weight.
    pub int_mul: f32,
    /// FP add weight.
    pub fp_alu: f32,
    /// FP multiply weight.
    pub fp_mul: f32,
    /// Load weight.
    pub load: f32,
    /// Store weight.
    pub store: f32,
    /// Conditional-branch weight (besides the loop back-edge).
    pub branch: f32,
}

impl InstMix {
    /// Integer-dominated mix (e.g. radix sort, x264 entropy coding).
    pub fn int_heavy() -> Self {
        InstMix {
            int_alu: 0.50,
            int_mul: 0.04,
            fp_alu: 0.02,
            fp_mul: 0.01,
            load: 0.22,
            store: 0.11,
            branch: 0.10,
        }
    }

    /// Floating-point-dominated mix (e.g. water, barnes, blackscholes).
    pub fn fp_heavy() -> Self {
        InstMix {
            int_alu: 0.22,
            int_mul: 0.02,
            fp_alu: 0.26,
            fp_mul: 0.18,
            load: 0.20,
            store: 0.07,
            branch: 0.05,
        }
    }

    /// Memory-dominated mix (e.g. ocean, fft transpose phases).
    pub fn mem_heavy() -> Self {
        InstMix {
            int_alu: 0.28,
            int_mul: 0.01,
            fp_alu: 0.10,
            fp_mul: 0.06,
            load: 0.32,
            store: 0.16,
            branch: 0.07,
        }
    }

    /// A balanced mix.
    pub fn balanced() -> Self {
        InstMix {
            int_alu: 0.35,
            int_mul: 0.03,
            fp_alu: 0.12,
            fp_mul: 0.08,
            load: 0.24,
            store: 0.10,
            branch: 0.08,
        }
    }

    fn cumulative(&self) -> [(f32, OpKind); 7] {
        let raw = [
            (self.int_alu, OpKind::IntAlu),
            (self.int_mul, OpKind::IntMul),
            (self.fp_alu, OpKind::FpAlu),
            (self.fp_mul, OpKind::FpMul),
            (self.load, OpKind::Load),
            (self.store, OpKind::Store),
            (self.branch, OpKind::Branch),
        ];
        let total: f32 = raw.iter().map(|(w, _)| *w).sum();
        assert!(total > 0.0, "InstMix weights must not all be zero");
        let mut acc = 0.0;
        raw.map(|(w, k)| {
            acc += w / total;
            (acc, k)
        })
    }

    /// Draw a kind according to the mix.
    fn sample(table: &[(f32, OpKind); 7], rng: &mut SmallRng) -> OpKind {
        let x: f32 = rng.random();
        for &(acc, kind) in table {
            if x <= acc {
                return kind;
            }
        }
        OpKind::IntAlu
    }
}

/// Data-memory access pattern for a compute block.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MemPattern {
    /// Bytes of shared working set touched by this block (within the global
    /// shared region).
    pub shared_footprint: u64,
    /// Byte offset of this block's window inside the shared region
    /// (different phases of a benchmark can walk different windows).
    pub shared_offset: u64,
    /// Fraction of memory accesses that go to shared data (the rest hit the
    /// thread-private region, which caches very well).
    pub shared_frac: f64,
    /// Probability that a shared access reuses one of the last few touched
    /// lines instead of striding on (temporal locality knob).
    pub locality: f64,
    /// Stride, in bytes, between successive non-reused shared accesses.
    pub stride: u64,
    /// Fraction of shared accesses that cross thread partitions (real
    /// parallel programs partition their arrays; only a small fraction of
    /// traffic touches other threads' data and generates coherence
    /// transfers).
    pub cross_frac: f64,
}

impl MemPattern {
    /// Small, cache-resident working set with high locality.
    pub fn cache_resident() -> Self {
        MemPattern {
            shared_footprint: 32 << 10,
            shared_offset: 0,
            shared_frac: 0.4,
            locality: 0.8,
            stride: 8,
            cross_frac: 0.05,
        }
    }

    /// Streaming pattern over a large footprint (defeats the L2).
    pub fn streaming(footprint: u64) -> Self {
        MemPattern {
            shared_footprint: footprint,
            shared_offset: 0,
            shared_frac: 0.8,
            locality: 0.05,
            stride: CACHE_LINE_BYTES,
            cross_frac: 0.1,
        }
    }
}

/// Full profile of a compute block generator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BlockGenConfig {
    /// Instruction mix.
    pub mix: InstMix,
    /// Memory pattern.
    pub mem: MemPattern,
    /// Static loop-body length in instructions (stable PCs); the body is
    /// closed by a backward loop branch.
    pub static_len: usize,
    /// Fraction of in-body conditional branches whose outcome is random
    /// each iteration (these are what the gshare mispredicts).
    pub flaky_branch_frac: f64,
    /// Probability that an instruction carries a first register dependence
    /// on a recent producer (controls available ILP).
    pub dep_density: f64,
}

impl Default for BlockGenConfig {
    fn default() -> Self {
        BlockGenConfig {
            mix: InstMix::balanced(),
            mem: MemPattern::cache_resident(),
            static_len: 128,
            flaky_branch_frac: 0.15,
            dep_density: 0.55,
        }
    }
}

/// One static slot of the fabricated loop body.
#[derive(Debug, Clone, Copy)]
struct Slot {
    kind: OpKind,
    /// For branches: outcome is random each iteration when flaky, else a
    /// fixed, highly-biased outcome the predictor learns quickly.
    flaky: bool,
    bias_taken: bool,
    dep1: Option<u8>,
    dep2: Option<u8>,
}

/// Deterministic generator of compute instructions from a profile.
///
/// Each call to [`BlockGen::next_inst`] advances one instruction through the
/// fabricated loop body; the final slot is a backward branch to the body
/// start (taken until the caller stops asking).
pub struct BlockGen {
    slots: Vec<Slot>,
    cfg: BlockGenConfig,
    pc_base: u64,
    pos: usize,
    rng: SmallRng,
    /// Ring of recently touched shared lines for the locality knob.
    recent: [u64; 8],
    recent_len: usize,
    shared_cursor: u64,
    private_cursor: u64,
    tid: usize,
    n_threads: usize,
}

impl BlockGen {
    /// Build a generator for thread `tid`. `pc_base` places the fabricated
    /// body in the (synthetic) code address space; distinct blocks should
    /// use distinct bases so predictor/PTHT entries don't alias
    /// artificially. `seed` makes the stream reproducible.
    pub fn new(cfg: BlockGenConfig, tid: usize, pc_base: u64, seed: u64) -> Self {
        Self::with_threads(cfg, tid, 1, pc_base, seed)
    }

    /// Like [`BlockGen::new`], but partition-aware: the shared footprint is
    /// split into `n_threads` chunks and this thread's non-crossing
    /// accesses walk its own chunk (`tid`-th), as real data-parallel codes
    /// do.
    pub fn with_threads(
        cfg: BlockGenConfig,
        tid: usize,
        n_threads: usize,
        pc_base: u64,
        seed: u64,
    ) -> Self {
        assert!(
            cfg.static_len >= 2,
            "loop body needs at least one op and a back-edge"
        );
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
        let table = cfg.mix.cumulative();
        let mut slots = Vec::with_capacity(cfg.static_len);
        for i in 0..cfg.static_len {
            let is_backedge = i == cfg.static_len - 1;
            let kind = if is_backedge {
                OpKind::Branch
            } else {
                InstMix::sample(&table, &mut rng)
            };
            let flaky =
                kind == OpKind::Branch && !is_backedge && rng.random_bool(cfg.flaky_branch_frac);
            let dep1 = if rng.random_bool(cfg.dep_density) {
                Some(rng.random_range(1..=6) as u8)
            } else {
                None
            };
            let dep2 = if rng.random_bool(cfg.dep_density * 0.4) {
                Some(rng.random_range(1..=8) as u8)
            } else {
                None
            };
            slots.push(Slot {
                kind,
                flaky,
                bias_taken: rng.random_bool(0.3),
                dep1,
                dep2,
            });
        }
        BlockGen {
            slots,
            cfg,
            pc_base,
            pos: 0,
            rng,
            recent: [0; 8],
            recent_len: 0,
            shared_cursor: 0,
            private_cursor: 0,
            tid,
            n_threads: n_threads.max(1),
        }
    }

    /// Reset the body position (e.g. at a phase boundary).
    pub fn restart(&mut self) {
        self.pos = 0;
    }

    /// PC of the current slot.
    #[inline]
    fn pc(&self) -> u64 {
        self.pc_base + self.pos as u64 * 4
    }

    fn next_shared_addr(&mut self) -> Addr {
        let reuse = self.recent_len > 0 && self.rng.random_bool(self.cfg.mem.locality);
        let line = if reuse {
            self.recent[self.rng.random_range(0..self.recent_len)]
        } else {
            let fp = self.cfg.mem.shared_footprint.max(CACHE_LINE_BYTES);
            let addr = if self.rng.random_bool(self.cfg.mem.cross_frac) {
                // Cross-partition access: anywhere in the full footprint
                // (this is what generates coherence transfers).
                let off = self.rng.random_range(0..fp.max(1));
                layout::SHARED_BASE.0 + self.cfg.mem.shared_offset + off
            } else {
                // Walk this thread's own partition.
                let chunk = (fp / self.n_threads as u64).max(CACHE_LINE_BYTES);
                self.shared_cursor = (self.shared_cursor + self.cfg.mem.stride.max(1)) % chunk;
                let base = (self.tid as u64 % self.n_threads as u64) * chunk;
                layout::SHARED_BASE.0 + self.cfg.mem.shared_offset + base + self.shared_cursor
            };
            let line = addr / CACHE_LINE_BYTES;
            let idx = if self.recent_len < self.recent.len() {
                let idx = self.recent_len;
                self.recent_len += 1;
                idx
            } else {
                self.rng.random_range(0..self.recent.len())
            };
            self.recent[idx] = line;
            line
        };
        Addr(line * CACHE_LINE_BYTES + self.rng.random_range(0..8) * 8)
    }

    fn next_private_addr(&mut self) -> Addr {
        // Walk a small stack-like window: almost always L1-resident.
        self.private_cursor = (self.private_cursor + 16) % (8 << 10);
        layout::private_base(self.tid).offset(self.private_cursor)
    }

    fn next_mem_ref(&mut self) -> MemRef {
        let addr = if self.rng.random_bool(self.cfg.mem.shared_frac) {
            self.next_shared_addr()
        } else {
            self.next_private_addr()
        };
        MemRef { addr, size: 8 }
    }

    /// Generate the next compute instruction, tagged with `ctx`.
    pub fn next_inst(&mut self, ctx: ExecCtx) -> DynInst {
        let slot = self.slots[self.pos];
        let pc = self.pc();
        let is_backedge = self.pos == self.slots.len() - 1;
        let mut inst = DynInst {
            pc,
            kind: slot.kind,
            dep1: slot.dep1,
            dep2: slot.dep2,
            mem: None,
            branch: None,
            rmw: None,
            ctx,
        };
        match slot.kind {
            OpKind::Load | OpKind::Store => {
                inst.mem = Some(self.next_mem_ref());
            }
            OpKind::Branch => {
                let taken = if is_backedge {
                    true // the caller decides when to leave the loop
                } else if slot.flaky {
                    self.rng.random_bool(0.5)
                } else {
                    slot.bias_taken
                };
                let target = if is_backedge || taken {
                    self.pc_base
                } else {
                    pc + 8
                };
                inst.branch = Some(BranchInfo { taken, target });
            }
            _ => {}
        }
        self.pos = (self.pos + 1) % self.slots.len();
        inst
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn gen(cfg: BlockGenConfig, seed: u64) -> BlockGen {
        BlockGen::new(cfg, 0, 0x1_0000, seed)
    }

    #[test]
    fn pcs_repeat_every_body_iteration() {
        let mut g = gen(
            BlockGenConfig {
                static_len: 16,
                ..Default::default()
            },
            1,
        );
        let first: Vec<u64> = (0..16).map(|_| g.next_inst(ExecCtx::BUSY).pc).collect();
        let second: Vec<u64> = (0..16).map(|_| g.next_inst(ExecCtx::BUSY).pc).collect();
        assert_eq!(first, second);
    }

    #[test]
    fn mix_is_roughly_respected() {
        let cfg = BlockGenConfig {
            mix: InstMix::int_heavy(),
            static_len: 4096,
            ..Default::default()
        };
        let mut g = gen(cfg, 2);
        let mut counts: HashMap<OpKind, usize> = HashMap::new();
        for _ in 0..4096 {
            *counts.entry(g.next_inst(ExecCtx::BUSY).kind).or_default() += 1;
        }
        let alu = counts[&OpKind::IntAlu] as f64 / 4096.0;
        assert!(
            (0.35..0.65).contains(&alu),
            "IntAlu fraction {alu} out of band"
        );
        assert!(counts.get(&OpKind::FpMul).copied().unwrap_or(0) < 200);
    }

    #[test]
    fn deterministic_across_equal_seeds() {
        let cfg = BlockGenConfig::default();
        let mut a = gen(cfg, 42);
        let mut b = gen(cfg, 42);
        for _ in 0..500 {
            assert_eq!(a.next_inst(ExecCtx::BUSY), b.next_inst(ExecCtx::BUSY));
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let cfg = BlockGenConfig::default();
        let mut a = gen(cfg, 1);
        let mut b = gen(cfg, 2);
        let same = (0..200)
            .filter(|_| a.next_inst(ExecCtx::BUSY) == b.next_inst(ExecCtx::BUSY))
            .count();
        assert!(same < 200);
    }

    #[test]
    fn memory_ops_carry_refs_and_stay_in_region() {
        let cfg = BlockGenConfig {
            mix: InstMix::mem_heavy(),
            ..Default::default()
        };
        let mut g = gen(cfg, 3);
        let mut saw_shared = false;
        let mut saw_private = false;
        for _ in 0..2000 {
            let i = g.next_inst(ExecCtx::BUSY);
            assert!(i.validate().is_ok());
            if let Some(m) = i.mem {
                if m.addr.0 >= layout::PRIVATE_BASE.0 {
                    saw_private = true;
                    assert!(m.addr.0 < layout::private_base(1).0);
                } else {
                    saw_shared = true;
                    assert!(m.addr.0 >= layout::SHARED_BASE.0);
                    assert!(
                        m.addr.0
                            < layout::SHARED_BASE.0
                                + cfg.mem.shared_offset
                                + cfg.mem.shared_footprint
                                + CACHE_LINE_BYTES
                    );
                }
            }
        }
        assert!(saw_shared && saw_private);
    }

    #[test]
    fn backedge_is_taken_branch_to_body_start() {
        let cfg = BlockGenConfig {
            static_len: 8,
            ..Default::default()
        };
        let mut g = gen(cfg, 4);
        for _ in 0..7 {
            g.next_inst(ExecCtx::BUSY);
        }
        let back = g.next_inst(ExecCtx::BUSY);
        assert_eq!(back.kind, OpKind::Branch);
        let b = back.branch.unwrap();
        assert!(b.taken);
        assert_eq!(b.target, 0x1_0000);
    }

    #[test]
    fn streaming_pattern_advances_lines() {
        let cfg = BlockGenConfig {
            mix: InstMix::mem_heavy(),
            mem: MemPattern::streaming(1 << 20),
            ..Default::default()
        };
        let mut g = gen(cfg, 5);
        let mut lines = std::collections::HashSet::new();
        for _ in 0..4000 {
            if let Some(m) = g.next_inst(ExecCtx::BUSY).mem {
                if m.addr.0 < layout::PRIVATE_BASE.0 {
                    lines.insert(m.addr.line_index());
                }
            }
        }
        assert!(
            lines.len() > 100,
            "streaming should touch many lines, got {}",
            lines.len()
        );
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn generated_instructions_always_validate(
            seed in 0u64..1000,
            static_len in 2usize..64,
            flaky in 0.0f64..1.0,
            dep in 0.0f64..1.0,
            shared_frac in 0.0f64..1.0,
        ) {
            let cfg = BlockGenConfig {
                static_len,
                flaky_branch_frac: flaky,
                dep_density: dep,
                mem: MemPattern { shared_frac, ..MemPattern::cache_resident() },
                ..Default::default()
            };
            let mut g = BlockGen::new(cfg, 1, 0x2000, seed);
            for _ in 0..256 {
                let i = g.next_inst(ExecCtx::BUSY);
                prop_assert!(i.validate().is_ok());
                prop_assert!(i.dep1.is_none_or(|d| d >= 1));
            }
        }
    }
}
