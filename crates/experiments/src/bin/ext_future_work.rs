//! **Extensions** — the paper's future-work and scalability proposals,
//! implemented and measured:
//!
//! 1. *Spin gating* (§IV.C closing remark): use PTB's token meter as a
//!    spin detector and park detected spinners on a deep throttle.
//! 2. *Clustered balancers* (§III.E.2): replicate the balancer per group
//!    of 16 cores to scale past the paper's 16-core evaluations.
//! 3. *Temperature stability* (conclusions): the lumped-RC thermal model's
//!    view of each mechanism.
//! 4. *Ablation* (DESIGN.md §4): PTB+2-level accuracy against the
//!    balancer round-trip latency, the wire width and the distribution
//!    policy (waternsq, 4 cores).

use ptb_core::report::{normalized_aopb_pct, normalized_energy_pct, slowdown_pct};
use ptb_core::{MechanismKind, PtbPolicy};
use ptb_experiments::{emit_partial, ObsArgs, Runner};
use ptb_metrics::{mean, Table};
use ptb_workloads::Benchmark;

fn main() {
    let mut args: Vec<String> = std::env::args().collect();
    let obs = ObsArgs::parse(&mut args);
    let runner = Runner::from_env_args(&mut args);
    let n = runner.default_cores();
    let ptb_mech = |policy| MechanismKind::PtbTwoLevel { policy, relax: 0.0 };

    // ---- 1. Spin gating on the contended benchmarks -------------------
    let contended = [
        Benchmark::Unstructured,
        Benchmark::Fluidanimate,
        Benchmark::Waternsq,
        Benchmark::Barnes,
    ];
    let mut jobs = Vec::new();
    for bench in contended {
        jobs.push(runner.job(bench, MechanismKind::None, n));
        jobs.push(runner.job(bench, ptb_mech(PtbPolicy::Dynamic), n));
        jobs.push(runner.job(
            bench,
            MechanismKind::PtbSpinGate {
                policy: PtbPolicy::Dynamic,
                relax: 0.0,
            },
            n,
        ));
    }
    let sweep = obs.run_sweep(&runner, &jobs);
    let mut gate = Table::new(
        format!("Extension: PTB spin gating ({n}-core, contended benchmarks)"),
        &[
            "bench",
            "PTB energy%",
            "gate energy%",
            "PTB AoPB%",
            "gate AoPB%",
            "gate slowdown%",
        ],
    );
    let mut cols = vec![Vec::new(); 5];
    for (bi, bench) in contended.iter().enumerate() {
        // Complete rows only: every column shares the bench's baseline.
        let Some(row) = sweep.row(bi * 3, 3) else {
            continue;
        };
        let (base, ptb, g) = (row[0], row[1], row[2]);
        let vals = [
            normalized_energy_pct(base, ptb),
            normalized_energy_pct(base, g),
            normalized_aopb_pct(base, ptb),
            normalized_aopb_pct(base, g),
            slowdown_pct(base, g),
        ];
        for (c, v) in cols.iter_mut().zip(vals) {
            c.push(v);
        }
        gate.row_f(bench.name(), &vals, 1);
    }
    gate.row_f("Avg.", &cols.iter().map(|c| mean(c)).collect::<Vec<_>>(), 1);
    emit_partial(&runner, "ext_spin_gate", &gate, &sweep.dropped_labels());

    // ---- 2. Clustered balancer at 32 cores ----------------------------
    let clusters = [
        ("monolithic (14-cyc wires)", None),
        ("2 x 16-core clusters", Some(16)),
        ("4 x 8-core clusters", Some(8)),
    ];
    let mut jobs = vec![runner.job(Benchmark::Watersp, MechanismKind::None, 32)];
    for (_, cluster) in clusters {
        let mut job = runner.job(Benchmark::Watersp, ptb_mech(PtbPolicy::ToAll), 32);
        job.config.ptb.cluster_size = cluster;
        jobs.push(job);
    }
    let sweep = obs.run_sweep(&runner, &jobs);
    let mut cluster_table = Table::new(
        "Extension: clustered balancers on a 32-core CMP (watersp)",
        &["config", "energy%", "AoPB%", "slowdown%"],
    );
    if let Some(base) = sweep.get(0) {
        for (i, (label, _)) in clusters.iter().enumerate() {
            let Some(r) = sweep.get(1 + i) else {
                continue;
            };
            cluster_table.row_f(
                label,
                &[
                    normalized_energy_pct(base, r),
                    normalized_aopb_pct(base, r),
                    slowdown_pct(base, r),
                ],
                1,
            );
        }
    }
    emit_partial(
        &runner,
        "ext_cluster32",
        &cluster_table,
        &sweep.dropped_labels(),
    );

    // ---- 3. Temperature stability --------------------------------------
    let jobs = [
        MechanismKind::None,
        MechanismKind::Dvfs,
        MechanismKind::TwoLevel,
        ptb_mech(PtbPolicy::Dynamic),
    ]
    .map(|mech| runner.job(Benchmark::Barnes, mech, n));
    let sweep = obs.run_sweep(&runner, &jobs);
    let mut temp = Table::new(
        format!("Extension: temperature under each mechanism ({n}-core barnes, lumped-RC model)"),
        &["mechanism", "mean degC", "max degC", "stddev degC"],
    );
    for r in sweep.reports.iter().flatten() {
        temp.row_f(
            &r.mechanism,
            &[r.mean_temp_c, r.max_temp_c, r.temp_stddev_c],
            2,
        );
    }
    emit_partial(&runner, "ext_temperature", &temp, &sweep.dropped_labels());

    // ---- 4. Ablation: PTB's hardware parameters -------------------------
    // Each point differs from the default 4-core config only in its
    // mechanism or in one `PtbConfig` field.
    let point = |mech| runner.job(Benchmark::Waternsq, mech, 4);
    let mut labels = Vec::new();
    let mut jobs = vec![point(MechanismKind::None)];
    for latency in [3u64, 10, 30] {
        let mut job = point(ptb_mech(PtbPolicy::ToAll));
        job.config.ptb.latency_override = Some(latency);
        labels.push(format!("latency {latency} cycles"));
        jobs.push(job);
    }
    for bits in [2u32, 4, 8] {
        let mut job = point(ptb_mech(PtbPolicy::ToAll));
        job.config.ptb.wire_bits = bits;
        labels.push(format!("{bits}-bit wires"));
        jobs.push(job);
    }
    for policy in [PtbPolicy::ToAll, PtbPolicy::ToOne, PtbPolicy::Dynamic] {
        labels.push(format!("policy {}", policy.label()));
        jobs.push(point(ptb_mech(policy)));
    }
    let sweep = obs.run_sweep(&runner, &jobs);
    let mut ablation = Table::new(
        "Extension: PTB+2level AoPB vs hardware parameters (4-core waternsq)",
        &["parameter", "AoPB%"],
    );
    if let Some(base) = sweep.get(0) {
        for (i, label) in labels.iter().enumerate() {
            if let Some(r) = sweep.get(1 + i) {
                ablation.row_f(label, &[normalized_aopb_pct(base, r)], 1);
            }
        }
    }
    emit_partial(&runner, "ext_ablation", &ablation, &sweep.dropped_labels());
}
