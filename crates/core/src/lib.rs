//! # ptb-core — Power Token Balancing for chip multiprocessors
//!
//! This crate is the paper's contribution: mechanisms that make a CMP
//! running *parallel shared-memory workloads* accurately match a global
//! power budget, evaluated on a full cycle-level simulation stack
//! (`ptb-uarch` cores, `ptb-mem` MOESI memory, `ptb-noc` mesh,
//! `ptb-power` token model, `ptb-workloads` benchmarks).
//!
//! ## The mechanisms (paper §III–§IV)
//!
//! * [`MechanismKind::None`] — baseline, no power control (the
//!   normalisation reference for every figure).
//! * [`MechanismKind::Dvfs`] / [`MechanismKind::Dfs`] — per-core
//!   voltage/frequency ladders with the naive equal split of the global
//!   budget (§III.C).
//! * [`MechanismKind::TwoLevel`] — the single-core hybrid of Cebrián et
//!   al. \[2\]: coarse DVFS toward the budget plus per-cycle
//!   micro-architectural throttling to clip spikes.
//! * [`MechanismKind::PtbTwoLevel`] — **Power Token Balancing**: every
//!   cycle, cores under their local budget offer their spare tokens to a
//!   central load-balancer, which redistributes them to cores over
//!   budget (policy [`PtbPolicy::ToAll`], [`PtbPolicy::ToOne`], or the
//!   dynamic lock/barrier-aware selector of §IV.B), so critical threads
//!   are not slowed down while the *global* budget stays respected.
//!   Wire/processing latencies, the 4-bit token-count quantisation and
//!   the 1 % power overhead of the balancer hardware are modelled.
//!
//! ## Quick start
//!
//! ```
//! use ptb_core::{MechanismKind, PtbPolicy, SimConfig, Simulation};
//! use ptb_workloads::{Benchmark, Scale};
//!
//! let cfg = SimConfig {
//!     n_cores: 4,
//!     scale: Scale::Test,
//!     mechanism: MechanismKind::PtbTwoLevel { policy: PtbPolicy::ToAll, relax: 0.0 },
//!     ..SimConfig::default()
//! };
//! let spec = Benchmark::Fft.spec(cfg.n_cores, cfg.scale);
//! let report = Simulation::new(cfg).run_spec(&spec).expect("run");
//! assert!(report.cycles > 0);
//! println!("AoPB = {:.3} J, energy = {:.3} J", report.aopb_joules, report.energy_joules);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod budget;
pub mod config;
pub mod mechanisms;
pub mod report;
pub mod sim;
pub mod trace;

pub use budget::BudgetSpec;
pub use config::{MechanismKind, PtbConfig, PtbPolicy, SimConfig};
pub use mechanisms::Mechanism;
pub use ptb_mem::MAX_CORES;
pub use report::RunReport;
pub use sim::Simulation;
pub use trace::PowerTrace;
