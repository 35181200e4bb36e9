//! End-to-end MOESI protocol tests through the public `MemorySystem` API.

use ptb_isa::{Addr, CoreId};
use ptb_mem::{AccessKind, MemConfig, MemReq, MemResp, MemorySystem};

fn sys(n: usize) -> MemorySystem {
    MemorySystem::new(MemConfig::default(), n)
}

fn req(id: u64, core: usize, kind: AccessKind, addr: u64) -> MemReq {
    MemReq {
        id,
        core: CoreId(core),
        kind,
        addr: Addr(addr),
    }
}

/// Tick until `n` responses have arrived or `limit` cycles pass.
fn run_for_responses(ms: &mut MemorySystem, n: usize, limit: u64) -> Vec<(MemResp, u64)> {
    let mut got = Vec::new();
    let mut done = Vec::new();
    for _ in 0..limit {
        ms.tick();
        ms.drain_responses(&mut done);
        for r in done.drain(..) {
            got.push((r, ms.now()));
        }
        if got.len() >= n {
            break;
        }
    }
    got
}

#[test]
fn cold_load_costs_memory_latency() {
    let mut ms = sys(4);
    assert!(ms.request(req(1, 0, AccessKind::Load, 0x1000_0040)));
    let got = run_for_responses(&mut ms, 1, 2000);
    assert_eq!(got.len(), 1);
    let (resp, at) = got[0];
    assert_eq!(resp.id, 1);
    assert_eq!(resp.core, CoreId(0));
    // Must include the 300-cycle memory plus cache lookups and mesh hops.
    assert!(at > 300, "cold miss too fast: {at}");
    assert!(at < 450, "cold miss too slow: {at}");
    assert_eq!(ms.stats().mem_reads, 1);
}

#[test]
fn warm_load_hits_l1_fast() {
    let mut ms = sys(4);
    ms.request(req(1, 0, AccessKind::Load, 0x1000_0040));
    run_for_responses(&mut ms, 1, 2000);
    let t0 = ms.now();
    ms.request(req(2, 0, AccessKind::Load, 0x1000_0048));
    let got = run_for_responses(&mut ms, 1, 50);
    assert_eq!(got.len(), 1);
    let lat = got[0].1 - t0;
    assert!(lat <= 4, "L1 hit latency {lat} too high");
    assert_eq!(ms.stats().per_core[0].l1_hits, 1);
}

#[test]
fn store_after_exclusive_fill_is_silent_upgrade() {
    let mut ms = sys(4);
    ms.request(req(1, 0, AccessKind::Load, 0x1000_0040));
    run_for_responses(&mut ms, 1, 2000);
    let msgs_before = ms.stats().coh_messages;
    let t0 = ms.now();
    ms.request(req(2, 0, AccessKind::Store, 0x1000_0040));
    let got = run_for_responses(&mut ms, 1, 50);
    assert_eq!(got.len(), 1);
    assert!(got[0].1 - t0 <= 4, "E->M upgrade should be local");
    assert_eq!(
        ms.stats().coh_messages,
        msgs_before,
        "silent upgrade sent messages"
    );
}

#[test]
fn second_reader_fills_cache_to_cache() {
    let mut ms = sys(4);
    ms.request(req(1, 0, AccessKind::Load, 0x1000_0040));
    run_for_responses(&mut ms, 1, 2000);
    let reads_before = ms.stats().mem_reads;
    ms.request(req(2, 1, AccessKind::Load, 0x1000_0040));
    let got = run_for_responses(&mut ms, 1, 2000);
    assert_eq!(got.len(), 1);
    assert_eq!(
        ms.stats().mem_reads,
        reads_before,
        "C2C fill should not touch memory"
    );
    assert_eq!(ms.stats().per_core[1].c2c_fills, 1);
    assert_eq!(ms.stats().per_core[0].fwds_served, 1);
}

#[test]
fn writer_invalidates_sharers() {
    let mut ms = sys(4);
    // Cores 0,1,2 read the line.
    for c in 0..3 {
        ms.request(req(c as u64 + 1, c, AccessKind::Load, 0x1000_0040));
        run_for_responses(&mut ms, 1, 2000);
    }
    // Core 3 writes it.
    ms.request(req(10, 3, AccessKind::Store, 0x1000_0040));
    let got = run_for_responses(&mut ms, 1, 2000);
    assert_eq!(got.len(), 1);
    let invs: u64 = (0..3)
        .map(|c| ms.stats().per_core[c].invalidations_received)
        .sum();
    assert!(
        invs >= 2,
        "expected at least 2 sharer invalidations, got {invs}"
    );
    // Core 0's next read must miss (its copy was invalidated or downgraded
    // away) and fetch cache-to-cache from core 3.
    let c2c_before = ms.stats().per_core[0].c2c_fills;
    ms.request(req(11, 0, AccessKind::Load, 0x1000_0040));
    run_for_responses(&mut ms, 1, 2000);
    assert_eq!(ms.stats().per_core[0].c2c_fills, c2c_before + 1);
}

#[test]
fn upgrade_from_shared_invalidates_other_sharer() {
    let mut ms = sys(2);
    ms.request(req(1, 0, AccessKind::Load, 0x1000_0040));
    run_for_responses(&mut ms, 1, 2000);
    ms.request(req(2, 1, AccessKind::Load, 0x1000_0040));
    run_for_responses(&mut ms, 1, 2000);
    // Core 0 now upgrades S -> M.
    ms.request(req(3, 0, AccessKind::Store, 0x1000_0040));
    let got = run_for_responses(&mut ms, 1, 2000);
    assert_eq!(got.len(), 1);
    assert_eq!(ms.stats().per_core[1].invalidations_received, 1);
    assert_eq!(ms.stats().mem_reads, 1, "upgrade must not re-read memory");
}

#[test]
fn rmw_serialises_between_cores() {
    let mut ms = sys(4);
    ms.request(req(1, 0, AccessKind::Rmw, 0x8000_0000));
    ms.request(req(2, 1, AccessKind::Rmw, 0x8000_0000));
    let got = run_for_responses(&mut ms, 2, 5000);
    assert_eq!(got.len(), 2, "both RMWs must complete");
    // They complete at different times (ownership transfer between them).
    assert_ne!(got[0].1, got[1].1);
}

#[test]
fn capacity_evictions_write_back_and_line_is_reusable() {
    let cfg = MemConfig::default();
    let mut ms = MemorySystem::new(cfg, 2);
    // L2: 4096 sets, 4 ways. Store 6 lines that map to the same L2 set:
    // stride = sets * 64 bytes = 256 KiB.
    let stride = 4096u64 * 64;
    for i in 0..6u64 {
        ms.request(req(i, 0, AccessKind::Store, 0x1000_0000 + i * stride));
        let got = run_for_responses(&mut ms, 1, 5000);
        assert_eq!(got.len(), 1, "store {i} did not complete");
    }
    let s = &ms.stats().per_core[0];
    assert!(
        s.l2_evictions >= 2,
        "expected evictions, got {}",
        s.l2_evictions
    );
    assert!(s.dirty_evictions >= 2);
    assert!(ms.stats().mem_writes >= 2);
    // The first (evicted) line can be fetched again.
    ms.request(req(100, 0, AccessKind::Load, 0x1000_0000));
    let got = run_for_responses(&mut ms, 1, 5000);
    assert_eq!(got.len(), 1);
}

#[test]
fn dirty_line_transfers_to_second_writer() {
    let mut ms = sys(4);
    ms.request(req(1, 0, AccessKind::Store, 0x1000_0040));
    run_for_responses(&mut ms, 1, 2000);
    let reads_before = ms.stats().mem_reads;
    ms.request(req(2, 1, AccessKind::Store, 0x1000_0040));
    let got = run_for_responses(&mut ms, 1, 2000);
    assert_eq!(got.len(), 1);
    assert_eq!(
        ms.stats().mem_reads,
        reads_before,
        "M->M transfer must be C2C"
    );
    assert_eq!(ms.stats().per_core[1].c2c_fills, 1);
}

#[test]
fn read_after_remote_write_gets_fresh_copy() {
    let mut ms = sys(2);
    // Classic spinlock release pattern: core 1 spins reading, core 0 writes.
    ms.request(req(1, 1, AccessKind::Load, 0x8000_0000));
    run_for_responses(&mut ms, 1, 2000);
    ms.request(req(2, 0, AccessKind::Store, 0x8000_0000));
    run_for_responses(&mut ms, 1, 2000);
    // Core 1 held the line in E (sole cached copy), so the write arrives as
    // a forward it must serve, losing its copy.
    assert_eq!(ms.stats().per_core[1].fwds_served, 1);
    ms.request(req(3, 1, AccessKind::Load, 0x8000_0000));
    let got = run_for_responses(&mut ms, 1, 2000);
    assert_eq!(got.len(), 1);
    assert_eq!(ms.stats().per_core[1].c2c_fills, 1);
}

#[test]
fn ttas_spin_is_local_until_release_invalidates() {
    // The test-and-test-and-set pattern the sync fabric models: a waiter
    // spins on plain loads of a line the holder owns. While the lock is
    // held, every spin iteration must be a pure L1 hit with zero new
    // coherence messages — this is the property that makes spinning
    // power-cheap enough for PTB's spin-gating to matter. The release
    // store then invalidates the waiter, whose next read refills
    // cache-to-cache from the releasing core.
    let mut ms = sys(2);
    // Core 0 acquires: RMW takes the lock line in M.
    ms.request(req(1, 0, AccessKind::Rmw, 0x8000_0000));
    run_for_responses(&mut ms, 1, 2000);
    // Core 1's first test pulls a shared copy (downgrading the holder).
    ms.request(req(2, 1, AccessKind::Load, 0x8000_0000));
    run_for_responses(&mut ms, 1, 2000);

    let coh_before = ms.stats().coh_messages;
    let hits_before = ms.stats().per_core[1].l1_hits;
    for i in 0..20u64 {
        ms.request(req(10 + i, 1, AccessKind::Load, 0x8000_0000));
        let got = run_for_responses(&mut ms, 1, 50);
        assert_eq!(got.len(), 1, "spin load {i} did not complete");
    }
    assert_eq!(
        ms.stats().coh_messages,
        coh_before,
        "spin loads generated coherence traffic"
    );
    assert_eq!(ms.stats().per_core[1].l1_hits, hits_before + 20);

    // Release: the holder's store must invalidate the spinning reader.
    let inv_before = ms.stats().per_core[1].invalidations_received;
    ms.request(req(100, 0, AccessKind::Store, 0x8000_0000));
    run_for_responses(&mut ms, 1, 2000);
    assert_eq!(
        ms.stats().per_core[1].invalidations_received,
        inv_before + 1,
        "release store did not invalidate the spinner"
    );

    // The waiter observes the release via a C2C fill, not memory.
    let c2c_before = ms.stats().per_core[1].c2c_fills;
    let reads_before = ms.stats().mem_reads;
    ms.request(req(101, 1, AccessKind::Load, 0x8000_0000));
    let got = run_for_responses(&mut ms, 1, 2000);
    assert_eq!(got.len(), 1);
    assert_eq!(ms.stats().per_core[1].c2c_fills, c2c_before + 1);
    assert_eq!(
        ms.stats().mem_reads,
        reads_before,
        "release visible without memory"
    );
}

#[test]
fn same_core_requests_merge_in_mshr() {
    let mut ms = sys(2);
    // Two loads to the same cold line back-to-back: one memory read.
    ms.request(req(1, 0, AccessKind::Load, 0x1000_0040));
    ms.request(req(2, 0, AccessKind::Load, 0x1000_0048));
    let got = run_for_responses(&mut ms, 2, 2000);
    assert_eq!(got.len(), 2);
    assert_eq!(
        ms.stats().mem_reads,
        1,
        "second load must merge into the MSHR"
    );
}

#[test]
fn load_then_store_same_line_defers_and_upgrades() {
    let mut ms = sys(2);
    ms.request(req(1, 0, AccessKind::Load, 0x1000_0040));
    ms.request(req(2, 0, AccessKind::Store, 0x1000_0040));
    let got = run_for_responses(&mut ms, 2, 5000);
    assert_eq!(
        got.len(),
        2,
        "both the load and the deferred store must complete"
    );
}

#[test]
fn determinism_same_inputs_same_timing() {
    let run = || {
        let mut ms = sys(4);
        let mut times = Vec::new();
        for i in 0..4 {
            ms.request(req(i as u64, i, AccessKind::Store, 0x1000_0040));
        }
        let mut done = Vec::new();
        for _ in 0..5000 {
            ms.tick();
            ms.drain_responses(&mut done);
            for r in done.drain(..) {
                times.push((r.id, ms.now()));
            }
            if times.len() == 4 {
                break;
            }
        }
        times
    };
    assert_eq!(run(), run());
}

#[test]
fn system_goes_idle_after_draining() {
    let mut ms = sys(4);
    for i in 0..8u64 {
        ms.request(req(
            i,
            (i % 4) as usize,
            AccessKind::Store,
            0x1000_0000 + i * 64,
        ));
    }
    let got = run_for_responses(&mut ms, 8, 5000);
    assert_eq!(got.len(), 8);
    // Let WbAcks / Unblocks land.
    let mut sink = Vec::new();
    for _ in 0..500 {
        ms.tick();
        ms.drain_responses(&mut sink);
    }
    assert!(ms.is_idle(), "in-flight state left behind");
}

#[test]
fn input_queue_backpressure() {
    let mut ms = sys(2);
    let cap = ms.config().inq_capacity;
    let mut accepted = 0;
    for i in 0..cap + 8 {
        if ms.request(req(
            i as u64,
            0,
            AccessKind::Load,
            0x1000_0000 + i as u64 * 4096,
        )) {
            accepted += 1;
        }
    }
    assert_eq!(accepted, cap);
}

#[test]
fn contended_rmw_storm_completes() {
    // 8 cores hammer the same lock line with RMWs, interleaved with loads —
    // the blocking directory must serialise everything without deadlock.
    let mut ms = sys(8);
    let mut id = 0u64;
    let mut outstanding = 0usize;
    let mut completed = 0usize;
    let mut issued = 0usize;
    let total = 200;
    for _ in 0..200_000u64 {
        while issued < total && outstanding < 8 {
            let core = issued % 8;
            let kind = if issued.is_multiple_of(3) {
                AccessKind::Load
            } else {
                AccessKind::Rmw
            };
            if ms.request(req(id, core, kind, 0x8000_0000)) {
                id += 1;
                issued += 1;
                outstanding += 1;
            } else {
                break;
            }
        }
        ms.tick();
        let mut resps = Vec::new();
        ms.drain_responses(&mut resps);
        let done = resps.len();
        completed += done;
        outstanding -= done;
        if completed == total {
            break;
        }
    }
    assert_eq!(completed, total, "deadlock or lost request in RMW storm");
}

mod prop_soup {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        /// Any request soup completes exactly once, regardless of the mix
        /// of cores, kinds and (possibly colliding) lines.
        #[test]
        fn random_request_soup_completes_exactly_once(
            reqs in proptest::collection::vec(
                (0usize..4, 0u8..3, 0u64..12), 1..60),
        ) {
            let mut ms = sys(4);
            let mut outstanding = std::collections::HashSet::new();
            let mut pending: Vec<MemReq> = reqs
                .iter()
                .enumerate()
                .map(|(i, &(core, kind, line))| {
                    let kind = match kind {
                        0 => AccessKind::Load,
                        1 => AccessKind::Store,
                        _ => AccessKind::Rmw,
                    };
                    req(i as u64, core, kind, 0x1000_0000 + line * 64)
                })
                .collect();
            pending.reverse();
            let total = pending.len();
            let mut completed = 0usize;
            for _ in 0..400_000u64 {
                // Feed as backpressure allows.
                while let Some(r) = pending.last().copied() {
                    if ms.request(r) {
                        prop_assert!(outstanding.insert(r.id), "duplicate id");
                        pending.pop();
                    } else {
                        break;
                    }
                }
                ms.tick();
                let mut resps = Vec::new();
                ms.drain_responses(&mut resps);
                for resp in resps {
                    prop_assert!(
                        outstanding.remove(&resp.id),
                        "response for unknown/duplicate id {}",
                        resp.id
                    );
                    completed += 1;
                }
                if completed == total {
                    break;
                }
            }
            prop_assert_eq!(completed, total, "requests lost (deadlock?)");
        }
    }
}
