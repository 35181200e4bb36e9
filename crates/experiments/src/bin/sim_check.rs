//! `sim_check` — fuzz the simulator against its invariant oracles.
//!
//! Draws N random cases from a seed (see `ptb_validate::gen`), runs the
//! full oracle suite on each (token conservation, energy integral,
//! report arithmetic, budget compliance, determinism), periodically adds
//! the metamorphic checks (budget monotonicity, core scaling), and runs
//! the closed-form reference model first. On the first violation the
//! case is greedily shrunk and printed as replayable JSON (both the
//! compact `CaseSpec` and the materialised `SimConfig` canonical form),
//! written to `--out`, and the process exits nonzero — CI uploads the
//! JSON as an artifact.
//!
//! ```text
//! sim_check [--cases N] [--seed S] [--metamorphic-every K] [--out DIR]
//!           [--replay FILE]
//! ```
//!
//! `--seed` accepts decimal, `0x` hex, or any other string (hashed
//! deterministically, so `--seed 0xPTB` is a valid spelling). `--replay`
//! re-runs stored case JSON verbosely instead of fuzzing; it accepts a
//! bare `CaseSpec`, a `sim_check_failure.json` envelope, or a farm
//! quarantine manifest (`failed.jsonl`) whose entries are replayed one
//! by one at test scale under the full oracle suite.

use ptb_farm::QuarantineEntry;
use ptb_validate::TestRng;
use ptb_validate::{
    arbitrary_case, check_budget_monotonicity, check_case, check_core_scaling,
    check_mechanism_vs_baseline, check_reference, shrink, CaseSpec, Violation, WorkloadDesc,
};
use std::io::Write as _;
use std::process::ExitCode;

/// Evaluation budget for shrinking, in oracle invocations (each one is
/// one or two simulations of an ever-smaller case).
const SHRINK_STEPS: usize = 120;

fn parse_seed(s: &str) -> u64 {
    if let Ok(n) = s.parse::<u64>() {
        return n;
    }
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        if let Ok(n) = u64::from_str_radix(hex, 16) {
            return n;
        }
    }
    // Any other spelling: FNV-1a, stable across runs.
    ptb_farm::hash::fnv1a64(s.as_bytes())
}

struct Args {
    cases: u64,
    seed: u64,
    metamorphic_every: u64,
    out: String,
    replay: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        cases: 64,
        seed: parse_seed("0xPTB"),
        metamorphic_every: 8,
        out: ".".into(),
        replay: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let need = |i: usize| -> Result<&String, String> {
            argv.get(i + 1)
                .ok_or_else(|| format!("{} needs a value", argv[i]))
        };
        match argv[i].as_str() {
            "--cases" => {
                args.cases = need(i)?.parse().map_err(|e| format!("--cases: {e}"))?;
                i += 2;
            }
            "--seed" => {
                args.seed = parse_seed(need(i)?);
                i += 2;
            }
            "--metamorphic-every" => {
                args.metamorphic_every = need(i)?
                    .parse()
                    .map_err(|e| format!("--metamorphic-every: {e}"))?;
                i += 2;
            }
            "--out" => {
                args.out = need(i)?.clone();
                i += 2;
            }
            "--replay" => {
                args.replay = Some(need(i)?.clone());
                i += 2;
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: sim_check [--cases N] [--seed S] [--metamorphic-every K] \
                     [--out DIR] [--replay FILE]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Map a quarantined farm job onto the oracle harness. The mapping
/// deliberately re-materialises at `Scale::Test` (CaseSpec's fixed
/// scale): the point of a quarantine replay is to interrogate the
/// configuration that failed under the full oracle suite cheaply, not
/// to reproduce its exact (possibly hours-long) run length.
fn case_from_quarantine(e: &QuarantineEntry) -> CaseSpec {
    CaseSpec {
        n_cores: e.job.config.n_cores,
        budget_frac: e.job.config.budget_frac,
        mechanism: e.job.config.mechanism,
        wire_bits: e.job.config.ptb.wire_bits,
        latency_override: e.job.config.ptb.latency_override,
        cluster_size: e.job.config.ptb.cluster_size,
        workload: WorkloadDesc::Bench(e.job.bench),
        seed: 0,
    }
}

/// Parse a `--replay` file into labelled cases. Accepts, in order:
/// a bare single-line `CaseSpec`, a `sim_check_failure.json` envelope
/// (`{"case": …}`), or a quarantine manifest — JSONL where each line
/// is a `QuarantineEntry` carrying a replayable `FarmJob`.
fn parse_replay_file(text: &str) -> Result<Vec<(String, CaseSpec)>, String> {
    if let Ok(case) = CaseSpec::from_json(text.trim()) {
        return Ok(vec![("case".into(), case)]);
    }
    if let Ok(v) = serde::json::parse(text) {
        if let Some(c) = v.get("case") {
            let case = CaseSpec::from_json(&serde::json::to_string(c))?;
            return Ok(vec![("case".into(), case)]);
        }
        if v.get("job").is_some() {
            let e = QuarantineEntry::from_value(&v)?;
            return Ok(vec![(e.label.clone(), case_from_quarantine(&e))]);
        }
    }
    // JSONL quarantine manifest: one entry per line, torn tails skipped.
    let cases: Vec<(String, CaseSpec)> = text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .filter_map(|l| serde::json::parse(l).ok())
        .filter_map(|v| QuarantineEntry::from_value(&v).ok())
        .map(|e| (e.label.clone(), case_from_quarantine(&e)))
        .collect();
    if cases.is_empty() {
        return Err("not a CaseSpec, failure envelope, or quarantine manifest".into());
    }
    Ok(cases)
}

/// All oracles for one case; metamorphic checks are opt-in because they
/// cost extra simulations.
fn check_all(case: &CaseSpec, metamorphic: bool) -> Vec<Violation> {
    let mut v = check_case(case);
    if metamorphic {
        v.extend(check_budget_monotonicity(case));
        v.extend(check_core_scaling(case));
        v.extend(check_mechanism_vs_baseline(case));
    }
    v
}

fn report_failure(args: &Args, label: &str, case: &CaseSpec, violations: &[Violation]) {
    eprintln!("\nFAIL [{label}]: {} violation(s)", violations.len());
    for v in violations {
        eprintln!("  {v}");
    }
    let failing: Vec<&str> = violations.iter().map(|v| v.oracle).collect();
    eprintln!("shrinking (budget {SHRINK_STEPS} oracle runs)...");
    let metamorphic = failing.iter().any(|o| {
        o.starts_with("budget-monotonic") || o.starts_with("mechanism-") || *o == "core-scaling"
    });
    let shrunk = shrink(case, SHRINK_STEPS, |c| {
        check_all(c, metamorphic)
            .iter()
            .any(|v| failing.contains(&v.oracle))
    });
    let final_violations = check_all(&shrunk, metamorphic);
    eprintln!("\nshrunk case (replay with `sim_check --replay <file>`):");
    println!("{}", shrunk.to_json());
    eprintln!("\nmaterialised SimConfig (canonical JSON):");
    println!("{}", shrunk.config().canonical_json());
    eprintln!("\nviolations on the shrunk case:");
    for v in &final_violations {
        eprintln!("  {v}");
    }
    let path = std::path::Path::new(&args.out).join("sim_check_failure.json");
    let mut body = String::new();
    body.push_str("{\n  \"case\": ");
    body.push_str(&shrunk.to_json());
    body.push_str(",\n  \"sim_config\": ");
    body.push_str(&shrunk.config().canonical_json());
    body.push_str(",\n  \"violations\": [");
    for (i, v) in final_violations.iter().enumerate() {
        if i > 0 {
            body.push_str(", ");
        }
        body.push_str(&serde::json::to_string(&format!("{v}")));
    }
    body.push_str("]\n}\n");
    match std::fs::File::create(&path).and_then(|mut f| f.write_all(body.as_bytes())) {
        Ok(()) => eprintln!("\nwrote {}", path.display()),
        Err(e) => eprintln!("\ncould not write {}: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sim_check: {e}");
            return ExitCode::from(2);
        }
    };

    if let Some(path) = &args.replay {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("sim_check: cannot read {path}: {e}");
                return ExitCode::from(2);
            }
        };
        let cases = match parse_replay_file(&text) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("sim_check: cannot parse {path}: {e}");
                return ExitCode::from(2);
            }
        };
        let mut failed = 0usize;
        for (label, case) in &cases {
            eprintln!("replaying [{label}] {}", case.to_json());
            let violations = check_all(case, true);
            if violations.is_empty() {
                eprintln!("  PASSED: all oracles hold");
            } else {
                failed += 1;
                eprintln!("  FAILED:");
                for v in &violations {
                    eprintln!("    {v}");
                }
            }
        }
        if failed == 0 {
            eprintln!("replay PASSED: {} case(s), all oracles hold", cases.len());
            return ExitCode::SUCCESS;
        }
        eprintln!("replay FAILED: {failed}/{} case(s)", cases.len());
        return ExitCode::FAILURE;
    }

    // Differential reference model first: cheapest, most precise.
    eprintln!("sim_check: reference model (3 sizes)...");
    for (work, s) in [(512u64, 1u64), (2048, 2), (10_000, 3)] {
        let v = check_reference(work, s ^ args.seed);
        if !v.is_empty() {
            let case = ptb_validate::reference_case(work, s ^ args.seed);
            report_failure(&args, "reference", &case, &v);
            return ExitCode::FAILURE;
        }
    }

    eprintln!(
        "sim_check: fuzzing {} cases from seed {:#x} (metamorphic every {})...",
        args.cases, args.seed, args.metamorphic_every
    );
    let mut rng = TestRng::new(args.seed);
    for i in 0..args.cases {
        let case = arbitrary_case(&mut rng);
        let metamorphic = args.metamorphic_every > 0 && i % args.metamorphic_every == 0;
        let violations = check_all(&case, metamorphic);
        if !violations.is_empty() {
            report_failure(&args, &format!("case {i}"), &case, &violations);
            return ExitCode::FAILURE;
        }
        if (i + 1) % 8 == 0 || i + 1 == args.cases {
            eprintln!("  {}/{} ok", i + 1, args.cases);
        }
    }
    eprintln!("sim_check: all oracles hold");
    ExitCode::SUCCESS
}
