//! MOESI coherence states and message vocabulary.
//!
//! The protocol is a blocking directory MOESI, modelled after the
//! GEMS/Ruby `MOESI_CMP_directory` family the paper used, with the usual
//! simulator simplifications:
//!
//! * The directory is distributed: line `L`'s *home slice* lives on tile
//!   `L mod n_tiles` and serialises all transactions on `L` (one at a time;
//!   later requests queue at the home).
//! * Requesters send an `Unblock` when their transaction completes, which
//!   releases the home slice for the next queued request — this removes the
//!   classic forward/writeback races by construction.
//! * Evicted dirty lines wait in a writeback buffer until the home
//!   acknowledges, so a cache can always answer a forward that was already
//!   in flight when it evicted.
//! * Message *data* is not carried: coherence provides timing and
//!   write-serialisation order; the only functionally-live values (lock and
//!   barrier words) are applied by the simulator in coherence-completion
//!   order.

use ptb_isa::Addr;
use ptb_noc::NodeId;
use serde::{Deserialize, Serialize};

/// MOESI cache-line states as seen by a private L2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Moesi {
    /// Invalid (not present). Default so empty ways read as I.
    #[default]
    I,
    /// Shared: clean, possibly many copies.
    S,
    /// Exclusive: clean, only copy.
    E,
    /// Owned: dirty, this cache supplies data, other S copies may exist.
    O,
    /// Modified: dirty, only copy.
    M,
}

impl Moesi {
    /// Can a load be satisfied from this state?
    #[inline]
    pub fn readable(self) -> bool {
        !matches!(self, Moesi::I)
    }

    /// Can a store/RMW be satisfied from this state without a coherence
    /// transaction? (E upgrades to M silently.)
    #[inline]
    pub fn writable(self) -> bool {
        matches!(self, Moesi::M | Moesi::E)
    }

    /// Does eviction of this state require a data writeback?
    #[inline]
    pub fn dirty(self) -> bool {
        matches!(self, Moesi::M | Moesi::O)
    }

    /// Is this cache the designated supplier for forwards?
    #[cfg(test)]
    pub fn owner_like(self) -> bool {
        matches!(self, Moesi::M | Moesi::O | Moesi::E)
    }
}

/// Coherence message kinds carried over the mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CohMsg {
    // ---- requester -> home ----
    /// Read request.
    GetS,
    /// Write/ownership request (also used for S→M upgrades).
    GetX,
    /// Eviction of a dirty (M/O) line; carries data to memory.
    PutDirty,
    /// Eviction of an E line.
    PutClean,
    /// Eviction of an S line.
    PutShared,
    /// Transaction complete; home may service the next queued request.
    Unblock,

    // ---- home -> owner/sharers ----
    /// Forward a read to the current supplier; supplier sends `Data`
    /// to the requester and downgrades to O/S.
    FwdGetS {
        /// Requesting tile.
        requester: NodeId,
    },
    /// Forward a write to the current supplier; supplier sends `Data`
    /// to the requester and invalidates.
    FwdGetX {
        /// Requesting tile.
        requester: NodeId,
    },
    /// Invalidate a shared copy; the copy holder acks the requester.
    Inv {
        /// Requesting tile to be acked.
        requester: NodeId,
    },

    // ---- home -> requester ----
    /// Data supplied directly by the home (from memory). `excl` grants
    /// E/M; `acks` is the number of `InvAck`s to collect first.
    DataMem {
        /// Grant exclusive (E for reads, M for writes)?
        excl: bool,
        /// Invalidation acks the requester must collect.
        acks: u32,
    },
    /// No data needed (upgrade); wait for `acks` invalidation acks.
    UpgradeAck {
        /// Invalidation acks the requester must collect.
        acks: u32,
    },
    /// Data will arrive cache-to-cache; expect `acks` invalidation acks.
    /// Sent by the home in parallel with a forward, because the supplier
    /// does not know the sharer count.
    AckCount {
        /// Invalidation acks the requester must collect.
        acks: u32,
    },
    /// Writeback acknowledged; drop the writeback buffer entry.
    WbAck,

    // ---- cache -> requester ----
    /// Data supplied cache-to-cache. `excl` grants M (response to GetX).
    DataC2C {
        /// Grant modified ownership?
        excl: bool,
    },
    /// Invalidation performed.
    InvAck,
}

impl CohMsg {
    /// Wire size in bytes: control messages are 8 B, data-bearing messages
    /// are 8 B header + 64 B line.
    pub fn bytes(&self) -> u32 {
        match self {
            CohMsg::PutDirty | CohMsg::DataMem { .. } | CohMsg::DataC2C { .. } => 72,
            _ => 8,
        }
    }
}

/// A routed coherence message: every message concerns one line.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Envelope {
    /// Sender tile.
    pub src: NodeId,
    /// Line address (line-aligned).
    pub line: Addr,
    /// Payload.
    pub msg: CohMsg,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_predicates() {
        assert!(!Moesi::I.readable());
        for s in [Moesi::S, Moesi::E, Moesi::O, Moesi::M] {
            assert!(s.readable());
        }
        assert!(Moesi::M.writable());
        assert!(Moesi::E.writable());
        assert!(!Moesi::S.writable());
        assert!(!Moesi::O.writable());
        assert!(Moesi::M.dirty() && Moesi::O.dirty());
        assert!(!Moesi::E.dirty() && !Moesi::S.dirty());
        assert!(Moesi::E.owner_like());
        assert!(!Moesi::S.owner_like());
    }

    #[test]
    fn message_sizes() {
        assert_eq!(CohMsg::GetS.bytes(), 8);
        assert_eq!(CohMsg::PutDirty.bytes(), 72);
        assert_eq!(
            CohMsg::DataMem {
                excl: true,
                acks: 0
            }
            .bytes(),
            72
        );
        assert_eq!(CohMsg::DataC2C { excl: false }.bytes(), 72);
        assert_eq!(CohMsg::AckCount { acks: 3 }.bytes(), 8);
        assert_eq!(CohMsg::InvAck.bytes(), 8);
        assert_eq!(CohMsg::Unblock.bytes(), 8);
    }

    #[test]
    fn default_state_is_invalid() {
        assert_eq!(Moesi::default(), Moesi::I);
    }
}
