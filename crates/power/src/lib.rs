//! # ptb-power — the power-token model
//!
//! Implements the power abstraction of the paper (§III.B, *Measuring Power
//! in Real-time*):
//!
//! * **Power tokens.** One token is defined as the energy of one
//!   instruction staying in the ROB for one cycle. Each instruction's total
//!   cost is its *base* tokens (all the structure accesses it performs,
//!   known a priori from its class) plus one token per cycle of ROB
//!   residency.
//! * **Eight instruction classes.** The paper groups instructions into 8
//!   k-means clusters of similar base power; [`TokenClass`] reproduces that
//!   quantisation (they report < 1 % estimation error vs. exact joules).
//! * **PTHT.** An 8 K-entry, PC-indexed Power-Token History Table stores
//!   the token cost of each static instruction's last execution; it is read
//!   at fetch to estimate per-cycle power and updated at commit.
//! * **DVFS modes.** The five (V, f) operating points of §III.C with
//!   dynamic power ∝ V²·f and a fast-regulator transition model (Kim,
//!   HPCA'08: 30–50 mV/ns).
//! * **Energy bookkeeping.** Per-core and uncore per-cycle token sampling;
//!   a calibrated joules-per-token constant converts to SI units.
//!
//! What the original obtained from CACTI 5.1 and HotLeakage is replaced by
//! the analytic constants in [`PowerParams`]; they are calibrated so the
//! *ratios* that drive the paper's mechanisms hold (spinning ≈ 25–40 % of
//! busy power, memory-stalled below busy, leakage ≈ 15–20 % of typical),
//! as documented in `DESIGN.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod activity;
pub mod classes;
pub mod dvfs;
pub mod energy;
pub mod model;
pub mod params;
pub mod ptht;
pub mod thermal;

pub use activity::CoreActivity;
pub use classes::TokenClass;
pub use dvfs::{DvfsMode, DFS_MODES, DFS_MODES_REF, DVFS_MODES, DVFS_MODES_REF};
pub use energy::ChipEnergy;
pub use model::{core_cycle_tokens, uncore_cycle_tokens, UncoreActivity};
pub use params::PowerParams;
pub use ptht::Ptht;
pub use thermal::{ThermalModel, ThermalParams};
