//! Integration tests for the `ptb-farm` subsystem: cold/warm caching,
//! in-batch dedup, crash/interrupt resume via the journal, and
//! integrity handling of corrupt or stale store entries.

use ptb_core::{MechanismKind, SimConfig};
use ptb_farm::hash::fnv1a64;
use ptb_farm::{Farm, FarmJob, StoreLookup};
use ptb_workloads::{Benchmark, Scale};
use serde::{json, Serialize};
use std::path::PathBuf;

fn job(bench: Benchmark, mech: MechanismKind, n_cores: usize) -> FarmJob {
    FarmJob::new(
        bench,
        SimConfig {
            n_cores,
            scale: Scale::Test,
            mechanism: mech,
            ..SimConfig::default()
        },
    )
}

fn farm_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ptb-farm-it-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

#[test]
fn cold_run_warm_run_and_in_batch_dedup() {
    let dir = farm_dir("coldwarm");
    // The same point submitted twice in one batch (as two figures
    // sharing a grid would) plus two distinct points.
    let batch = vec![
        job(Benchmark::Fft, MechanismKind::None, 2),
        job(Benchmark::Radix, MechanismKind::None, 2),
        job(Benchmark::Fft, MechanismKind::None, 2), // duplicate of [0]
        job(Benchmark::Fft, MechanismKind::Dvfs, 2),
    ];

    let cold_farm = Farm::open(&dir).expect("open");
    let cold = cold_farm.run_batch(&batch, 2);
    let s = cold_farm.stats();
    assert_eq!(s.misses, 3, "three unique points simulate");
    assert_eq!(s.deduped, 1, "duplicate shares its result");
    assert_eq!(s.hits, 0);
    assert_eq!(s.completed, 3);
    assert_eq!(cold_farm.store().len(), 3);
    assert_eq!(
        json::to_string(&cold[0].to_value()),
        json::to_string(&cold[2].to_value()),
        "dedup returns the same report"
    );
    assert!(
        cold_farm.pending().expect("journal readable").is_empty(),
        "clean finish leaves no pending jobs"
    );
    drop(cold_farm);

    // A fresh process over the same store: every point is a hit and the
    // reports serialise byte-identically to the cold run's.
    let warm_farm = Farm::open(&dir).expect("reopen");
    let warm = warm_farm.run_batch(&batch, 2);
    let s = warm_farm.stats();
    assert_eq!(s.hits, 3, "100% cache hits");
    assert_eq!(s.misses, 0, "zero simulations on the warm run");
    assert_eq!(s.deduped, 1);
    assert!((s.hit_rate_pct() - 100.0).abs() < 1e-12);
    for (c, w) in cold.iter().zip(&warm) {
        assert_eq!(
            json::to_string(&c.to_value()),
            json::to_string(&w.to_value()),
            "cached report is byte-identical"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn killed_sweep_resumes_exactly_the_remainder() {
    let dir = farm_dir("resume");
    let all = vec![
        job(Benchmark::Fft, MechanismKind::None, 2),
        job(Benchmark::Radix, MechanismKind::None, 2),
        job(Benchmark::Ocean, MechanismKind::None, 2),
    ];

    // Phase 1: a sweep that is "killed" after one job. Reconstruct the
    // on-disk state such a process leaves: all three jobs journalled as
    // scheduled, only the first completed and stored.
    {
        let farm = Farm::open(&dir).expect("open");
        farm.record_pending(&all).expect("journal submits");
        farm.run_batch(&all[..1], 1); // completes + journals done for job 0
        assert_eq!(farm.stats().completed, 1);
    } // process dies here

    // Phase 2: restart. The journal knows exactly what is owed.
    let farm = Farm::open(&dir).expect("reopen");
    let pending = farm.pending().expect("journal readable");
    assert_eq!(pending.len(), 2, "only the unfinished remainder is pending");
    let pending_benches: Vec<Benchmark> = pending.iter().map(|(_, j)| j.bench).collect();
    assert_eq!(pending_benches, vec![Benchmark::Radix, Benchmark::Ocean]);

    let resumed = farm.resume(2).expect("resume");
    assert_eq!(resumed.len(), 2, "resume ran exactly the remainder");
    let s = farm.stats();
    assert_eq!(s.resumed, 2);
    assert_eq!(s.misses, 2);
    assert_eq!(s.hits, 0, "the finished job is not touched");
    assert!(farm.pending().expect("journal readable").is_empty());

    // The full sweep is now pure hits — nothing re-simulates.
    let reports = farm.run_batch(&all, 2);
    assert_eq!(reports.len(), 3);
    let s = farm.stats();
    assert_eq!(s.hits, 3);
    assert_eq!(s.misses, 2, "unchanged: no new simulations");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_trusts_results_stored_before_the_crash_cut_the_done_record() {
    let dir = farm_dir("resume-stored");
    let j = job(Benchmark::Fft, MechanismKind::None, 2);
    {
        let farm = Farm::open(&dir).expect("open");
        farm.run_batch(std::slice::from_ref(&j), 1);
        // Re-submit without a matching done: as if the store write
        // landed but the process died before journalling completion.
        farm.record_pending(std::slice::from_ref(&j))
            .expect("submit");
    }
    let farm = Farm::open(&dir).expect("reopen");
    assert_eq!(farm.pending().expect("journal readable").len(), 1);
    let ran = farm.resume(1).expect("resume");
    assert!(ran.is_empty(), "stored result acknowledged, not re-run");
    assert_eq!(farm.stats().hits, 1);
    assert!(farm.pending().expect("journal readable").is_empty());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_and_stale_entries_are_dropped_and_rerun() {
    let dir = farm_dir("corrupt");
    let j = job(Benchmark::Fft, MechanismKind::None, 2);
    let farm = Farm::open(&dir).expect("open");
    let first = farm.run_batch(std::slice::from_ref(&j), 1);
    let key = j.key();
    let path = farm.store().path_for(&key).expect("content key");

    // Garbage bytes → dropped, re-simulated, re-stored.
    std::fs::write(&path, b"{\"store_format\":1,\"key").unwrap();
    let again = farm.run_batch(std::slice::from_ref(&j), 1);
    let s = farm.stats();
    assert_eq!(s.corrupt, 1, "corrupt entry detected");
    assert_eq!(s.misses, 2, "corrupt entry re-ran");
    assert_eq!(
        json::to_string(&first[0].to_value()),
        json::to_string(&again[0].to_value())
    );

    // Stale format version → same treatment. The frame is resealed, so
    // the version check rejects it, not the checksum.
    let mut frame = std::fs::read(&path).unwrap();
    let current = ptb_farm::STORE_FORMAT.to_le_bytes();
    assert_eq!(frame[8..12], current, "frame carries current format");
    frame[8..12].copy_from_slice(&0u32.to_le_bytes());
    let body = frame.len() - 8;
    let sum = fnv1a64(&frame[..body]);
    frame[body..].copy_from_slice(&sum.to_le_bytes());
    std::fs::write(&path, frame).unwrap();
    match farm.store().get(&key, &j) {
        StoreLookup::Corrupt(reason) => assert!(reason.contains("stale"), "{reason}"),
        other => panic!("expected a stale entry, got {other:?}"),
    }
    farm.run_batch(std::slice::from_ref(&j), 1);
    let s = farm.stats();
    assert_eq!(s.corrupt, 2, "stale format detected");
    assert_eq!(s.misses, 3);

    // After the re-run the entry is healthy again: next lookup hits.
    farm.run_batch(std::slice::from_ref(&j), 1);
    assert_eq!(farm.stats().hits, 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn verify_scans_and_drops_bad_entries() {
    let dir = farm_dir("verify");
    let farm = Farm::open(&dir).expect("open");
    let jobs = vec![
        job(Benchmark::Fft, MechanismKind::None, 2),
        job(Benchmark::Radix, MechanismKind::None, 2),
    ];
    farm.run_batch(&jobs, 2);
    let (ok, dropped) = farm.verify().expect("verify");
    assert_eq!((ok, dropped), (2, 0));

    // Swap one entry's bytes for the other's: its embedded key no
    // longer hashes to the filename, which verify must catch.
    let a = farm.store().path_for(&jobs[0].key()).expect("content key");
    let b = farm.store().path_for(&jobs[1].key()).expect("content key");
    std::fs::copy(&b, &a).unwrap();
    let (ok, dropped) = farm.verify().expect("verify");
    assert_eq!((ok, dropped), (1, 1), "transplanted entry dropped");
    assert_eq!(farm.store().len(), 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn journal_traffic_survives_open_time_compaction() {
    let dir = farm_dir("traffic");
    let batch = vec![job(Benchmark::Fft, MechanismKind::None, 1)];

    let farm = Farm::open(&dir).expect("open");
    farm.run_batch(&batch, 1);
    drop(farm);

    // Reopening with nothing pending compacts the journal; the summed
    // stats must be carried across as one aggregate line, not wiped.
    let farm = Farm::open(&dir).expect("reopen");
    let t = farm.journal_stats().expect("stats readable");
    assert_eq!(t.misses, 1, "cold traffic survives compaction");
    assert_eq!(t.completed, 1);
    assert_eq!(t.hits, 0);
    farm.run_batch(&batch, 1);
    drop(farm);

    let farm = Farm::open(&dir).expect("reopen again");
    let t = farm.journal_stats().expect("stats readable");
    assert_eq!(t.hits, 1, "warm traffic accumulates on top");
    assert_eq!(t.misses, 1);
    std::fs::remove_dir_all(&dir).ok();
}
