//! # ptb-mem — cache hierarchy and MOESI directory coherence
//!
//! Rebuilds the memory side of the paper's simulated CMP (GEMS/Ruby in the
//! original): per-core private L1D (64 KB, 2-way, 1 cycle) and unified L2
//! (1 MB, 4-way, 12 cycles), kept coherent by a blocking distributed MOESI
//! directory, with all coherence traffic carried by the `ptb-noc` 2-D mesh
//! and a 300-cycle main memory.
//!
//! Spin-synchronisation behaviour — the power signature the PTB mechanism
//! exploits — emerges from this model: a test-and-test-and-set spinner hits
//! in its L1 (cheap, low power) until the lock holder's releasing store
//! invalidates the line, which is exactly the coherence choreography of the
//! real machine.
//!
//! Entry point: [`MemorySystem`].
//!
//! ```
//! use ptb_isa::{Addr, CoreId};
//! use ptb_mem::{AccessKind, MemConfig, MemReq, MemorySystem};
//!
//! let mut mem = MemorySystem::new(MemConfig::default(), 4);
//! mem.request(MemReq { id: 1, core: CoreId(0), kind: AccessKind::Load, addr: Addr(0x1000_0000) });
//! let mut done = Vec::new();
//! while done.is_empty() {
//!     mem.tick();
//!     mem.drain_responses(&mut done);
//! }
//! assert_eq!(done[0].id, 1);
//! // A cold miss pays the 300-cycle memory latency.
//! assert!(mem.now() > 300);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod coherence;
pub mod stats;
pub mod system;

pub use cache::{CacheArray, CacheConfig};
pub use coherence::{CohMsg, Envelope, Moesi};
pub use stats::{CoreMemStats, MemActivity, MemStats};
pub use system::{AccessKind, MemConfig, MemReq, MemResp, MemorySystem};

/// Largest core count a [`MemorySystem`] supports: the directory tracks
/// each line's sharers in one `u64` bit mask, one bit per core.
pub const MAX_CORES: usize = 64;
