//! # ptb-noc — switched 2-D mesh on-chip network
//!
//! Models the interconnect of the simulated CMP from the paper's Table 1:
//! a switched 2-D mesh direct network with **4-cycle link latency**,
//! **4-byte flits** and **1 flit/cycle** link bandwidth, XY
//! dimension-ordered routing.
//!
//! The timing model is *link-reservation wormhole*: a message of `n` flits
//! reserves each directed link on its XY path for `n` consecutive cycles,
//! starting no earlier than the link's previous reservation ends. Head-flit
//! latency per hop is `link_latency + router_latency`; the tail arrives
//! `n − 1` cycles after the head. This captures pipelined wormhole
//! transmission and link contention without simulating individual flit
//! buffers, which keeps a 16-core cycle-stepped simulation fast.
//!
//! The mesh is payload-generic: `ptb-mem` sends coherence messages through
//! it; unit tests send integers.
//!
//! ```
//! use ptb_noc::{Mesh, MeshConfig, NodeId};
//!
//! let mut mesh: Mesh<&str> = Mesh::new(MeshConfig::for_cores(16));
//! mesh.send(NodeId(0), NodeId(15), 72, "a cache line");
//! let mut arrived = Vec::new();
//! while arrived.is_empty() {
//!     mesh.advance();
//!     mesh.take_arrivals(&mut arrived);
//! }
//! let (dst, payload) = arrived.pop().unwrap();
//! assert_eq!(dst, NodeId(15));
//! assert_eq!(payload, "a cache line");
//! // 6 hops x (4-cycle links + 1-cycle routers) + 17 trailing flits:
//! assert_eq!(mesh.now(), 47);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod mesh;
pub mod topology;

pub use mesh::{Mesh, NocStats};
pub use topology::{Coord, Direction, MeshConfig, NodeId};
