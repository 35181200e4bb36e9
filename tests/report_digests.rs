//! Report digests: every mechanism's simulated result, pinned bit-exact.
//!
//! The figure goldens are CSVs rounded to 0.1 %, so a change that moves
//! a report's low-order bits passes them. This test pins the exact bytes
//! instead: for each point of a small matrix at `Scale::Test` it runs
//! the simulation and compares the FNV-128 digest of
//! `json::to_string(&report.to_value())` — the bytes `ptb_serve` serves
//! and the benchmark's `report_digest` — with one line of
//! `tests/goldens/report_digests.txt`:
//!
//! ```text
//! bench mechanism n_cores digest
//! ```
//!
//! The matrix covers every `MechanismKind`: all 14 benchmarks with no
//! mechanism at 4 cores; DVFS, DFS, 2-level, PTB ToAll/ToOne/Dynamic,
//! relaxed PTB (+20 %) and spin-gated PTB on barnes and unstructured at
//! 4 cores; and clustered PTB Dynamic with trace capture at 8 cores.
//!
//! A performance or refactoring change must leave the manifest as it
//! is. An intended model change re-pins it: a failing test prints its
//! computed lines, which replace the same keys in the manifest.

use ptb_core::{MechanismKind, PtbPolicy, SimConfig, Simulation};
use ptb_farm::hash::digest_hex;
use ptb_workloads::{Benchmark, Scale};
use serde::{json, Serialize};
use std::path::Path;

/// One simulated point of the matrix.
struct Point {
    bench: Benchmark,
    mech: MechanismKind,
    n_cores: usize,
    /// `ptb.cluster_size` override (and trace capture) for the
    /// clustered point.
    cluster: Option<usize>,
}

impl Point {
    fn new(bench: Benchmark, mech: MechanismKind, n_cores: usize) -> Self {
        Point {
            bench,
            mech,
            n_cores,
            cluster: None,
        }
    }

    /// The manifest's mechanism column: the report label, plus the
    /// config overrides that the label does not show.
    fn mechanism_column(&self) -> String {
        match self.cluster {
            Some(c) => format!("{}@cluster{c}+trace", self.mech.label()),
            None => self.mech.label(),
        }
    }

    fn key(&self) -> String {
        format!(
            "{} {} {}",
            self.bench.name(),
            self.mechanism_column(),
            self.n_cores
        )
    }

    fn manifest_line(&self) -> String {
        let mut cfg = SimConfig {
            n_cores: self.n_cores,
            scale: Scale::Test,
            mechanism: self.mech,
            capture_trace: self.cluster.is_some(),
            ..SimConfig::default()
        };
        cfg.ptb.cluster_size = self.cluster;
        let spec = self.bench.spec(self.n_cores, Scale::Test);
        let report = Simulation::new(cfg)
            .run_spec(&spec)
            .unwrap_or_else(|e| panic!("{}: {e}", self.key()));
        let digest = digest_hex(json::to_string(&report.to_value()).as_bytes());
        format!("{} {digest}", self.key())
    }
}

fn ptb(policy: PtbPolicy, relax: f64) -> MechanismKind {
    MechanismKind::PtbTwoLevel { policy, relax }
}

/// Every non-baseline mechanism, as the figures configure them.
fn mechanisms() -> [MechanismKind; 8] {
    [
        MechanismKind::Dvfs,
        MechanismKind::Dfs,
        MechanismKind::TwoLevel,
        ptb(PtbPolicy::ToAll, 0.0),
        ptb(PtbPolicy::ToOne, 0.0),
        ptb(PtbPolicy::Dynamic, 0.0),
        ptb(PtbPolicy::ToAll, 0.2),
        MechanismKind::PtbSpinGate {
            policy: PtbPolicy::Dynamic,
            relax: 0.0,
        },
    ]
}

/// Run `points` and compare each line with the committed manifest.
fn check(points: &[Point]) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/goldens/report_digests.txt");
    let golden = std::fs::read_to_string(&path).expect("read tests/goldens/report_digests.txt");
    let computed: Vec<String> = points.iter().map(Point::manifest_line).collect();
    let mut diffs = Vec::new();
    for (point, line) in points.iter().zip(&computed) {
        let key = point.key();
        let pinned = golden
            .lines()
            .find(|l| l.rsplit_once(' ').is_some_and(|(k, _)| k == key));
        match pinned {
            Some(p) if p == line => {}
            Some(p) => diffs.push(format!("  pinned   {p}\n  computed {line}")),
            None => diffs.push(format!("  missing  {line}")),
        }
    }
    assert!(
        diffs.is_empty(),
        "{} of {} report digests differ from tests/goldens/report_digests.txt:\n{}\n\
         If the model change is intended, replace these keys' lines with:\n{}",
        diffs.len(),
        points.len(),
        diffs.join("\n"),
        computed.join("\n")
    );
}

fn baselines(benches: &[Benchmark]) -> Vec<Point> {
    benches
        .iter()
        .map(|&b| Point::new(b, MechanismKind::None, 4))
        .collect()
}

fn every_mechanism(bench: Benchmark) -> Vec<Point> {
    mechanisms()
        .into_iter()
        .map(|m| Point::new(bench, m, 4))
        .collect()
}

#[test]
fn baselines_first_half_match_pinned_digests() {
    check(&baselines(&Benchmark::ALL[..7]));
}

#[test]
fn baselines_second_half_match_pinned_digests() {
    check(&baselines(&Benchmark::ALL[7..]));
}

#[test]
fn every_mechanism_on_barnes_matches_pinned_digests() {
    check(&every_mechanism(Benchmark::Barnes));
}

#[test]
fn every_mechanism_on_unstructured_and_clustered_ptb_match_pinned_digests() {
    let mut points = every_mechanism(Benchmark::Unstructured);
    points.push(Point {
        cluster: Some(4),
        ..Point::new(Benchmark::Barnes, ptb(PtbPolicy::Dynamic, 0.0), 8)
    });
    check(&points);
}
