//! Allocation telemetry: a counting wrapper around the system
//! allocator, behind the `alloc-telemetry` feature.
//!
//! Install it in a binary, then bracket a region of interest with
//! [`snapshot`] and diff via [`AllocSnapshot::since`]:
//!
//! ```
//! #[global_allocator]
//! static ALLOC: ptb_obs::alloc::CountingAlloc = ptb_obs::alloc::CountingAlloc;
//!
//! fn main() {
//!     let before = ptb_obs::alloc::snapshot();
//!     let v: Vec<u64> = Vec::with_capacity(64);
//!     let delta = ptb_obs::alloc::snapshot().since(&before);
//!     assert!(delta.allocs >= 1 && delta.bytes >= 512);
//!     drop(v);
//! }
//! ```
//!
//! Counters are process-global relaxed atomics: cheap enough to leave
//! on (two fetch-adds per alloc), but the numbers cover *all* threads,
//! so single-thread the region you want to attribute. The headline
//! derived metric is allocs (and bytes) per simulated kilocycle; the
//! simulator's cycle loop stays near zero once warm, and
//! `tests/alloc_steady_state.rs` holds it there.

// The one unsafe impl in ptb-obs: a `GlobalAlloc` cannot be safe. The
// crate root switches `forbid(unsafe_code)` down to `deny` when this
// module is compiled in (see lib.rs), and the allow below scopes the
// exemption to exactly this impl.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static FREES: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// A `#[global_allocator]` shim that counts allocations and bytes on
/// their way to [`System`].
#[derive(Debug, Default, Clone, Copy)]
pub struct CountingAlloc;

#[allow(unsafe_code)]
// SAFETY: pure pass-through to `System`; the atomics touch no
// allocator state and the contract (layout validity, ownership of
// returned pointers) is exactly `System`'s.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREES.fetch_add(1, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Point-in-time allocator counters (process-global, all threads).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocSnapshot {
    /// Allocations since process start.
    pub allocs: u64,
    /// Deallocations since process start.
    pub frees: u64,
    /// Bytes requested since process start (not live bytes).
    pub bytes: u64,
}

impl AllocSnapshot {
    /// Counter deltas since `earlier`.
    pub fn since(&self, earlier: &AllocSnapshot) -> AllocSnapshot {
        AllocSnapshot {
            allocs: self.allocs.saturating_sub(earlier.allocs),
            frees: self.frees.saturating_sub(earlier.frees),
            bytes: self.bytes.saturating_sub(earlier.bytes),
        }
    }

    /// Allocations per 1000 simulated cycles (0 when `cycles` is 0).
    pub fn allocs_per_kilocycle(&self, cycles: u64) -> f64 {
        per_kilocycle(self.allocs, cycles)
    }

    /// Requested bytes per 1000 simulated cycles (0 when `cycles` is 0).
    pub fn bytes_per_kilocycle(&self, cycles: u64) -> f64 {
        per_kilocycle(self.bytes, cycles)
    }
}

fn per_kilocycle(count: u64, cycles: u64) -> f64 {
    if cycles == 0 {
        0.0
    } else {
        count as f64 * 1000.0 / cycles as f64
    }
}

/// Current counter values. Meaningful only when [`CountingAlloc`] is
/// installed as the global allocator; all-zero otherwise.
pub fn snapshot() -> AllocSnapshot {
    AllocSnapshot {
        allocs: ALLOCS.load(Ordering::Relaxed),
        frees: FREES.load(Ordering::Relaxed),
        bytes: ALLOC_BYTES.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn since_and_rates() {
        let a = AllocSnapshot {
            allocs: 10,
            frees: 4,
            bytes: 4096,
        };
        let b = AllocSnapshot {
            allocs: 110,
            frees: 54,
            bytes: 104_496,
        };
        let d = b.since(&a);
        assert_eq!(d.allocs, 100);
        assert_eq!(d.frees, 50);
        assert_eq!(d.bytes, 100_400);
        assert!((d.allocs_per_kilocycle(50_000) - 2.0).abs() < 1e-12);
        assert!((d.bytes_per_kilocycle(50_000) - 2008.0).abs() < 1e-9);
        assert_eq!(d.allocs_per_kilocycle(0), 0.0);
    }

    #[test]
    fn snapshot_is_monotonic() {
        // Without the global allocator installed the counters stay 0;
        // with it they only grow. Either way `since` of a later
        // snapshot against an earlier one never underflows.
        let a = snapshot();
        let _v: Vec<u64> = (0..64).collect();
        let b = snapshot();
        let d = b.since(&a);
        assert!(d.allocs <= b.allocs);
    }
}
