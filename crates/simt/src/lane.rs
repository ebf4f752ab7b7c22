//! Per-thread kernel context and warp-level aggregation.
//!
//! A [`Lane`] is the view one simulated CUDA thread has of the machine. The
//! executor runs the 32 lanes of a warp one after another, each recording an
//! ordered trace of its memory accesses and branch decisions; the warp
//! collector then *replays the warp in lockstep* — zipping the k-th access
//! of every lane — to derive coalesced transaction counts, shared-memory
//! bank conflicts, and branch-divergence groups exactly as the hardware
//! would observe them.
//!
//! The collector is one-pass. The active lanes are a prefix of the warp;
//! a single walk over them takes every per-lane total and maximum. Then,
//! for each lockstep slot *k*, one walk over the lanes buckets the k-th
//! loads, stores and texture loads together. Each bucket is a distinct
//! segment set (`coalesce::SegSet`) that appends only segment changes and
//! is counted by its length while the lanes' addresses are non-decreasing;
//! it sorts and dedups only when a lane steps backwards. Branch groups of a
//! slot live in a stack array, and the segment scratch is thread-local, so
//! a warmed launch does not allocate.

use crate::buffer::GBuf;
use crate::coalesce::{SegSet, SEG_SHIFT, TEX_SEG_SHIFT};
use crate::stats::KernelStats;
use crate::{SMEM_BANKS, WARP_SIZE};

/// Kind of a recorded global-memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MemKind {
    /// Load through L1/L2 (128-byte transactions).
    Load,
    /// Store through L1/L2 (128-byte transactions).
    Store,
    /// Load through the texture path (32-byte transactions) — what the
    /// paper uses for the irregular vector reads in SpMV.
    Tex,
}

#[derive(Debug, Clone, Copy)]
struct MemAcc {
    addr: u64,
    bytes: u32,
    kind: MemKind,
}

/// Ordered trace of one lane's execution.
#[derive(Debug, Default)]
pub(crate) struct LaneRec {
    flops: u64,
    mem: Vec<MemAcc>,
    smem: Vec<u32>,
    branches: Vec<(u32, bool)>,
    shuffles: u64,
    syncs: u64,
    active: bool,
}

impl LaneRec {
    /// Marks the lane as active in the current warp (tail warps leave some
    /// lanes inactive).
    pub(crate) fn set_active(&mut self) {
        self.active = true;
    }

    pub(crate) fn clear(&mut self) {
        self.flops = 0;
        self.mem.clear();
        self.smem.clear();
        self.branches.clear();
        self.shuffles = 0;
        self.syncs = 0;
        self.active = false;
    }
}

/// Execution context handed to a per-thread kernel closure.
///
/// All instrumented operations are *also* the real operation: [`Lane::ld`]
/// returns the element, [`Lane::st`] writes it. Pure arithmetic is the
/// kernel's own Rust code, accounted via [`Lane::flop`].
pub struct Lane<'w> {
    /// Global thread index (`blockIdx * blockDim + threadIdx` equivalent).
    pub gid: usize,
    /// Lane index within the warp, `0..32`.
    pub lane_id: u32,
    /// Warp index within the launch.
    pub warp_id: usize,
    pub(crate) epoch: u32,
    pub(crate) rec: &'w mut LaneRec,
}

impl<'w> Lane<'w> {
    /// Loads element `i` of `buf` through the L1/L2 path.
    #[inline]
    pub fn ld<T: Copy + Send>(&mut self, buf: &GBuf<T>, i: usize) -> T {
        self.rec.mem.push(MemAcc {
            addr: buf.addr(i),
            bytes: buf.elem_bytes(),
            kind: MemKind::Load,
        });
        buf.get(i)
    }

    /// Loads element `i` of `buf` through the texture path (32-byte
    /// transactions; cheaper for irregular gathers).
    #[inline]
    pub fn ld_tex<T: Copy + Send>(&mut self, buf: &GBuf<T>, i: usize) -> T {
        self.rec.mem.push(MemAcc {
            addr: buf.addr(i),
            bytes: buf.elem_bytes(),
            kind: MemKind::Tex,
        });
        buf.get(i)
    }

    /// Stores `v` into element `i` of `buf`.
    ///
    /// Within one launch no other lane may store to the same element
    /// (CUDA's data-race rule); the device's conflict checker enforces this
    /// when armed.
    #[inline]
    pub fn st<T: Copy + Send>(&mut self, buf: &GBuf<T>, i: usize, v: T) {
        self.rec.mem.push(MemAcc {
            addr: buf.addr(i),
            bytes: buf.elem_bytes(),
            kind: MemKind::Store,
        });
        buf.set(i, v, self.epoch);
    }

    /// Records `n` floating-point operations of lane work.
    #[inline]
    pub fn flop(&mut self, n: u32) {
        self.rec.flops += u64::from(n);
    }

    /// Records a special-function operation (`tan`, `sqrt`, `atan2`, …),
    /// costed as 8 flops — the SFU throughput ratio on Kepler.
    #[inline]
    pub fn special(&mut self, n: u32) {
        self.rec.flops += 8 * u64::from(n);
    }

    /// Records a branch decision at static `site` and returns `taken`, so
    /// kernels write `if lane.branch(SITE_X, cond) { … }`. Lanes of one warp
    /// disagreeing at the same site and occurrence form a divergence group.
    #[inline]
    pub fn branch(&mut self, site: u32, taken: bool) -> bool {
        self.rec.branches.push((site, taken));
        taken
    }

    /// Records a shared-memory read of word index `word` (bank = `word % 32`).
    #[inline]
    pub fn smem_ld(&mut self, word: u32) {
        self.rec.smem.push(word);
    }

    /// Records a shared-memory write of word index `word`.
    #[inline]
    pub fn smem_st(&mut self, word: u32) {
        self.rec.smem.push(word);
    }

    /// Records a warp shuffle operation.
    #[inline]
    pub fn shfl(&mut self, n: u32) {
        self.rec.shuffles += u64::from(n);
    }

    /// Records a block-wide barrier.
    #[inline]
    pub fn sync(&mut self) {
        self.rec.syncs += 1;
    }
}

/// Per-kind distinct-segment sets for one lockstep slot: loads, stores,
/// texture loads.
type AggScratch = [SegSet; 3];

thread_local! {
    /// Reused segment-set scratch, so warp aggregation in the steady-state
    /// hot loop never allocates.
    static AGG_SCRATCH: std::cell::RefCell<AggScratch> =
        const { std::cell::RefCell::new([SegSet::new(), SegSet::new(), SegSet::new()]) };
}

/// Folds the 32 lane traces of one warp into `stats`, applying the lockstep
/// coalescing / bank-conflict / divergence rules.
///
/// Active lanes form a prefix of the warp (only a tail warp has idle lanes,
/// and they are its last ones), so the collector works on that prefix.
pub(crate) fn aggregate_warp(lanes: &[LaneRec], stats: &mut KernelStats) {
    let n_active = lanes.iter().position(|l| !l.active).unwrap_or(lanes.len());
    debug_assert!(
        lanes[n_active..].iter().all(|l| !l.active),
        "active lanes must form a prefix of the warp"
    );
    let lanes = &lanes[..n_active];
    if lanes.is_empty() {
        return;
    }

    // --- Per-lane totals and maxima, one pass ------------------------------
    let (mut max_flops, mut max_mem, mut max_smem, mut max_br) = (0u64, 0, 0, 0);
    let (mut max_shuffles, mut max_syncs) = (0u64, 0u64);
    for l in lanes {
        stats.flops += l.flops;
        max_flops = max_flops.max(l.flops);
        max_mem = max_mem.max(l.mem.len());
        max_smem = max_smem.max(l.smem.len());
        max_br = max_br.max(l.branches.len());
        max_shuffles = max_shuffles.max(l.shuffles);
        max_syncs = max_syncs.max(l.syncs);
    }
    stats.warp_flops += max_flops * WARP_SIZE as u64;
    stats.shuffles += max_shuffles;
    stats.syncs += max_syncs;

    // --- Global memory: one pass over the lanes per lockstep slot ----------
    // The k-th accesses of all lanes are bucketed by kind; each bucket
    // counts its distinct segments (an element spanning a boundary costs
    // both segments).
    if max_mem > 0 {
        AGG_SCRATCH.with(|scratch| {
            let mut scratch = scratch.borrow_mut();
            let [loads, stores, tex] = &mut *scratch;
            for k in 0..max_mem {
                loads.clear();
                stores.clear();
                tex.clear();
                for l in lanes {
                    if let Some(m) = l.mem.get(k) {
                        stats.gmem_bytes += u64::from(m.bytes);
                        let end = m.addr + u64::from(m.bytes) - 1;
                        match m.kind {
                            MemKind::Load => loads.push_span(m.addr >> SEG_SHIFT, end >> SEG_SHIFT),
                            MemKind::Store => {
                                stores.push_span(m.addr >> SEG_SHIFT, end >> SEG_SHIFT)
                            }
                            MemKind::Tex => {
                                tex.push_span(m.addr >> TEX_SEG_SHIFT, end >> TEX_SEG_SHIFT)
                            }
                        }
                    }
                }
                stats.gmem_transactions += loads.count() + stores.count();
                stats.tex_transactions += tex.count();
            }
        });
    }

    // --- Shared memory: bank conflicts per lockstep access -----------------
    for k in 0..max_smem {
        let mut bank_count = [0u32; SMEM_BANKS];
        let mut n = 0u64;
        for l in lanes {
            if let Some(&w) = l.smem.get(k) {
                bank_count[(w as usize) % SMEM_BANKS] += 1;
                n += 1;
            }
        }
        stats.smem_accesses += n;
        let max_mult = *bank_count.iter().max().unwrap();
        stats.smem_replays += u64::from(max_mult.saturating_sub(1));
    }

    // --- Branch divergence: zip k-th branch, grouped by site ---------------
    // Within a site group, mixed outcomes form a divergence event. At most
    // one group per lane, so the groups fit a stack array.
    let mut groups = [(0u32, false, false); WARP_SIZE]; // (site, saw_taken, saw_not)
    for k in 0..max_br {
        let mut n_groups = 0;
        for l in lanes {
            if let Some(&(site, taken)) = l.branches.get(k) {
                match groups[..n_groups].iter_mut().find(|g| g.0 == site) {
                    Some(g) => {
                        g.1 |= taken;
                        g.2 |= !taken;
                    }
                    None => {
                        groups[n_groups] = (site, taken, !taken);
                        n_groups += 1;
                    }
                }
            }
        }
        stats.branch_groups += n_groups as u64;
        stats.divergent_branch_groups +=
            groups[..n_groups].iter().filter(|g| g.1 && g.2).count() as u64;
    }
}

/// The sort+dedup collector the one-pass [`aggregate_warp`] replaced, kept
/// as the oracle its property tests compare against.
#[cfg(test)]
pub(crate) fn aggregate_warp_reference(lanes: &[LaneRec], stats: &mut KernelStats) {
    use crate::{TEX_TRANSACTION_BYTES, TRANSACTION_BYTES};
    let active = || lanes.iter().filter(|l| l.active);
    if active().next().is_none() {
        return;
    }
    let mut segs: Vec<u64> = Vec::new();
    let mut groups: Vec<(u32, bool, bool)> = Vec::new();

    let mut max_flops = 0u64;
    for l in active() {
        stats.flops += l.flops;
        max_flops = max_flops.max(l.flops);
        stats.gmem_bytes += l.mem.iter().map(|m| u64::from(m.bytes)).sum::<u64>();
    }
    stats.warp_flops += max_flops * WARP_SIZE as u64;

    let max_mem = active().map(|l| l.mem.len()).max().unwrap_or(0);
    for k in 0..max_mem {
        for kind in [MemKind::Load, MemKind::Store, MemKind::Tex] {
            segs.clear();
            let granularity = if kind == MemKind::Tex {
                TEX_TRANSACTION_BYTES
            } else {
                TRANSACTION_BYTES
            };
            for l in active() {
                if let Some(m) = l.mem.get(k) {
                    if m.kind == kind {
                        let first = m.addr / granularity;
                        let last = (m.addr + u64::from(m.bytes) - 1) / granularity;
                        for s in first..=last {
                            segs.push(s);
                        }
                    }
                }
            }
            if segs.is_empty() {
                continue;
            }
            segs.sort_unstable();
            segs.dedup();
            if kind == MemKind::Tex {
                stats.tex_transactions += segs.len() as u64;
            } else {
                stats.gmem_transactions += segs.len() as u64;
            }
        }
    }

    let max_smem = active().map(|l| l.smem.len()).max().unwrap_or(0);
    for k in 0..max_smem {
        let mut bank_count = [0u32; SMEM_BANKS];
        let mut n = 0u64;
        for l in active() {
            if let Some(&w) = l.smem.get(k) {
                bank_count[(w as usize) % SMEM_BANKS] += 1;
                n += 1;
            }
        }
        if n > 0 {
            stats.smem_accesses += n;
            let max_mult = *bank_count.iter().max().unwrap();
            stats.smem_replays += u64::from(max_mult.saturating_sub(1));
        }
    }

    let max_br = active().map(|l| l.branches.len()).max().unwrap_or(0);
    for k in 0..max_br {
        groups.clear();
        for l in active() {
            if let Some(&(site, taken)) = l.branches.get(k) {
                match groups.iter_mut().find(|g| g.0 == site) {
                    Some(g) => {
                        g.1 |= taken;
                        g.2 |= !taken;
                    }
                    None => groups.push((site, taken, !taken)),
                }
            }
        }
        for &(_, saw_taken, saw_not) in groups.iter() {
            stats.branch_groups += 1;
            if saw_taken && saw_not {
                stats.divergent_branch_groups += 1;
            }
        }
    }

    stats.shuffles += active().map(|l| l.shuffles).max().unwrap_or(0);
    stats.syncs += active().map(|l| l.syncs).max().unwrap_or(0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn fresh_warp() -> Vec<LaneRec> {
        (0..WARP_SIZE).map(|_| LaneRec::default()).collect()
    }

    /// A warp whose first `n_active` lanes carry random traces. Each access
    /// slot has a shared address pattern (coalesced, strided, broadcast,
    /// reversed, repeated runs, or a random gather with per-lane element
    /// sizes) and element sizes of 1–288 bytes, so elements straddle
    /// segments; every lane picks its own access kind (mixing loads, stores
    /// and texture loads in one slot) and may stop early (ragged traces).
    fn random_warp(seed: u64, n_active: usize) -> Vec<LaneRec> {
        let mut rng = StdRng::seed_from_u64(seed);
        let slots = rng.gen_range(0..7);
        let plans: Vec<(usize, u64, u32, u64)> = (0..slots)
            .map(|_| {
                (
                    rng.gen_range(0..6),
                    (1 << 12) + rng.gen_range(0..1 << 14) as u64,
                    rng.gen_range(1..289) as u32,
                    rng.gen_range(1..40) as u64,
                )
            })
            .collect();
        let mut warp = fresh_warp();
        for (lane, rec) in warp.iter_mut().enumerate().take(n_active) {
            let l = lane as u64;
            rec.active = true;
            rec.flops = rng.gen_range(0..50) as u64;
            rec.shuffles = rng.gen_range(0..4) as u64;
            rec.syncs = rng.gen_range(0..3) as u64;
            let n_mem = rng.gen_range(slots.saturating_sub(1)..slots + 1);
            for &(pattern, base, bytes, stride) in &plans[..n_mem] {
                let e = u64::from(bytes);
                let (offset, bytes) = match pattern {
                    0 => (l * e, bytes),
                    1 => (l * stride * e, bytes),
                    2 => (0, bytes),
                    3 => ((WARP_SIZE as u64 - 1 - l) * e, bytes),
                    4 => ((l / 4) * e, bytes),
                    _ => (rng.gen_range(0..4096) as u64, rng.gen_range(1..289) as u32),
                };
                let kind = match rng.gen_range(0..3) {
                    0 => MemKind::Load,
                    1 => MemKind::Store,
                    _ => MemKind::Tex,
                };
                rec.mem.push(MemAcc {
                    addr: base + offset,
                    bytes,
                    kind,
                });
            }
            for _ in 0..rng.gen_range(0..5) {
                rec.smem.push(rng.gen::<u32>() % 4096);
            }
            for _ in 0..rng.gen_range(0..6) {
                rec.branches
                    .push((rng.gen_range(0..4) as u32, rng.gen::<bool>()));
            }
        }
        warp
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        #[test]
        fn one_pass_collector_matches_sort_dedup_oracle(
            seed in 0u64..u64::MAX,
            n_active in 0usize..WARP_SIZE + 1,
        ) {
            let warp = random_warp(seed, n_active);
            let mut fast = KernelStats::default();
            let mut oracle = KernelStats::default();
            aggregate_warp(&warp, &mut fast);
            aggregate_warp_reference(&warp, &mut oracle);
            prop_assert_eq!(fast, oracle);
        }
    }

    fn run_lane(rec: &mut LaneRec, gid: usize, f: impl FnOnce(&mut Lane)) {
        rec.clear();
        rec.active = true;
        let mut lane = Lane {
            gid,
            lane_id: (gid % WARP_SIZE) as u32,
            warp_id: gid / WARP_SIZE,
            epoch: 1,
            rec,
        };
        f(&mut lane);
    }

    #[test]
    fn coalesced_load_is_two_transactions_for_f64() {
        // 32 lanes loading consecutive f64 = 256 bytes = 2 × 128-byte
        // transactions.
        let data = vec![1.0f64; 64];
        let buf = GBuf::new_ro(&data, 0);
        let mut warp = fresh_warp();
        for (i, rec) in warp.iter_mut().enumerate() {
            run_lane(rec, i, |lane| {
                let _ = lane.ld(&buf, lane.gid);
            });
        }
        let mut stats = KernelStats::default();
        aggregate_warp(&warp, &mut stats);
        assert_eq!(stats.gmem_transactions, 2);
        assert_eq!(stats.gmem_bytes, 256);
        assert!((stats.overfetch() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn coalesced_f32_load_charges_half_the_bytes_of_f64() {
        // The mixed-precision matrix streams rely on the byte accounting
        // following `size_of::<T>()`: 32 lanes loading consecutive f32 =
        // 128 bytes = 1 transaction, exactly half the f64 case above.
        let data = vec![1.0f32; 64];
        let buf = GBuf::new_ro(&data, 0);
        let mut warp = fresh_warp();
        for (i, rec) in warp.iter_mut().enumerate() {
            run_lane(rec, i, |lane| {
                let _ = lane.ld(&buf, lane.gid);
            });
        }
        let mut stats = KernelStats::default();
        aggregate_warp(&warp, &mut stats);
        assert_eq!(stats.gmem_bytes, 128, "f32 must charge 4 bytes per lane");
        assert_eq!(stats.gmem_transactions, 1);
    }

    #[test]
    fn strided_load_is_fully_uncoalesced() {
        // Stride-16 f64 access: every lane touches its own 128-byte segment.
        let data = vec![0.0f64; 16 * 32];
        let buf = GBuf::new_ro(&data, 0);
        let mut warp = fresh_warp();
        for (i, rec) in warp.iter_mut().enumerate() {
            run_lane(rec, i, |lane| {
                let _ = lane.ld(&buf, lane.gid * 16);
            });
        }
        let mut stats = KernelStats::default();
        aggregate_warp(&warp, &mut stats);
        assert_eq!(stats.gmem_transactions, 32);
        assert!(stats.overfetch() > 15.0);
    }

    #[test]
    fn broadcast_load_is_one_transaction() {
        let data = vec![0.0f64; 4];
        let buf = GBuf::new_ro(&data, 0);
        let mut warp = fresh_warp();
        for (i, rec) in warp.iter_mut().enumerate() {
            run_lane(rec, i, |lane| {
                let _ = lane.ld(&buf, 0);
            });
        }
        let mut stats = KernelStats::default();
        aggregate_warp(&warp, &mut stats);
        assert_eq!(stats.gmem_transactions, 1);
    }

    #[test]
    fn texture_path_uses_32_byte_transactions() {
        let data = vec![0.0f64; 512];
        let buf = GBuf::new_ro(&data, 0);
        let mut warp = fresh_warp();
        for (i, rec) in warp.iter_mut().enumerate() {
            run_lane(rec, i, |lane| {
                // Scattered gather, 64 elements apart.
                let _ = lane.ld_tex(&buf, (lane.gid * 64) % 512);
            });
        }
        let mut stats = KernelStats::default();
        aggregate_warp(&warp, &mut stats);
        assert_eq!(stats.gmem_transactions, 0);
        // 8 distinct addresses (gid*64 mod 512 cycles through 8 values),
        // each its own 32-byte segment.
        assert_eq!(stats.tex_transactions, 8);
    }

    #[test]
    fn divergence_detected_on_mixed_outcomes() {
        let mut warp = fresh_warp();
        for (i, rec) in warp.iter_mut().enumerate() {
            run_lane(rec, i, |lane| {
                let c = lane.branch(0, lane.gid % 2 == 0);
                if c {
                    lane.flop(4);
                }
                lane.branch(1, true); // uniform branch
            });
        }
        let mut stats = KernelStats::default();
        aggregate_warp(&warp, &mut stats);
        assert_eq!(stats.branch_groups, 2);
        assert_eq!(stats.divergent_branch_groups, 1);
        assert!((stats.divergence_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn simt_work_counts_idle_lanes() {
        let mut warp = fresh_warp();
        for (i, rec) in warp.iter_mut().enumerate() {
            run_lane(rec, i, |lane| {
                if lane.gid == 0 {
                    lane.flop(100); // one busy lane
                }
            });
        }
        let mut stats = KernelStats::default();
        aggregate_warp(&warp, &mut stats);
        assert_eq!(stats.flops, 100);
        assert_eq!(stats.warp_flops, 100 * 32);
        assert!((stats.simt_efficiency() - 1.0 / 32.0).abs() < 1e-12);
    }

    #[test]
    fn bank_conflicts_counted() {
        let mut warp = fresh_warp();
        // All 32 lanes hit bank 0 (words 0, 32, 64, …): 31 replays.
        for (i, rec) in warp.iter_mut().enumerate() {
            run_lane(rec, i, |lane| {
                lane.smem_ld((lane.gid as u32) * 32);
            });
        }
        let mut stats = KernelStats::default();
        aggregate_warp(&warp, &mut stats);
        assert_eq!(stats.smem_accesses, 32);
        assert_eq!(stats.smem_replays, 31);

        // Conflict-free: each lane its own bank.
        let mut warp2 = fresh_warp();
        for (i, rec) in warp2.iter_mut().enumerate() {
            run_lane(rec, i, |lane| {
                lane.smem_ld(lane.gid as u32);
            });
        }
        let mut stats2 = KernelStats::default();
        aggregate_warp(&warp2, &mut stats2);
        assert_eq!(stats2.smem_replays, 0);
    }

    #[test]
    fn partial_warp_aggregates_only_active_lanes() {
        let mut warp = fresh_warp();
        // Only 5 active lanes.
        for (i, rec) in warp.iter_mut().take(5).enumerate() {
            run_lane(rec, i, |lane| {
                lane.flop(10);
            });
        }
        let mut stats = KernelStats::default();
        aggregate_warp(&warp, &mut stats);
        assert_eq!(stats.flops, 50);
        assert_eq!(stats.warp_flops, 320); // still a full warp of lockstep work
    }

    #[test]
    fn stores_and_loads_group_separately() {
        let mut a = vec![0.0f64; 32];
        let b = vec![1.0f64; 32];
        let ba = GBuf::new_rw(&mut a, 0, false);
        let bb = GBuf::new_ro(&b, 1 << 20);
        let mut warp = fresh_warp();
        for (i, rec) in warp.iter_mut().enumerate() {
            run_lane(rec, i, |lane| {
                let v = lane.ld(&bb, lane.gid);
                lane.st(&ba, lane.gid, v * 2.0);
            });
        }
        let mut stats = KernelStats::default();
        aggregate_warp(&warp, &mut stats);
        // 2 coalesced transactions for the load + 2 for the store.
        assert_eq!(stats.gmem_transactions, 4);
        drop(ba);
        assert_eq!(a[7], 2.0);
    }
}
