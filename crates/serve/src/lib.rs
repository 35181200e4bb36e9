//! `ptb-serve`: simulation-as-a-service over the `ptb-farm` store.
//!
//! A hand-rolled HTTP/1.1 batch API (std-only — no async runtime in the
//! vendor set, and none needed) in front of a [`Farm`]: clients POST
//! batches of `SimConfig`s, the server deduplicates them against the
//! content-addressed result store and against jobs already in flight,
//! runs the misses on the farm's work-stealing executor (inheriting its
//! journal/retry/watchdog/quarantine contract unchanged), and serves
//! the stored `RunReport`s back byte-stable.
//!
//! Layering:
//!
//! * [`http`] — wire plumbing: parsing, bounded worker pool, one-shot
//!   client, streaming bodies;
//! * [`state`] — the job registry (one lock over jobs, queue and fleet
//!   records), scheduler thread, lease reaper, `serve.*` metrics;
//! * [`fleet`] — the leases behind the `/v1/work/*` endpoints that
//!   remote `ptb_worker` processes pull jobs through;
//! * [`net`] — the seeded chaos transport fleet workers are tested
//!   under;
//! * [`api`] — routes and the JSON protocol.
//!
//! [`start`] assembles them into a running [`ServeHandle`]; the
//! `ptb_serve` binary is a thin flag-parsing shell around it,
//! `ptb_worker` is the pull-based fleet worker, and `ptb_loadgen`
//! drives the server under load. See `DESIGN.md` §13–§14.

pub mod api;
pub mod fleet;
pub mod http;
pub mod net;
pub mod state;

pub use fleet::{CompleteOutcome, FailOutcome, FleetMetrics, FleetRefusal, LeaseRec, WorkerRec};
pub use http::{http_call, Body, Handler, Request, Response, Server, ServerConfig};
pub use net::{ChaosNet, NetChaosConfig, RealNet, Transport};
pub use state::{
    Disposition, JobRecord, JobState, RequestPhase, ServeConfig, ServeMetrics, ServeState,
};

use ptb_farm::Farm;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// A running service: HTTP server + scheduler + lease reaper over
/// shared state.
pub struct ServeHandle {
    server: Server,
    scheduler: Option<JoinHandle<()>>,
    reaper: Option<JoinHandle<()>>,
    state: Arc<ServeState>,
}

impl ServeHandle {
    /// The bound address (resolves an ephemeral port request).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.server.addr()
    }

    /// The shared state (for in-process tests and tools).
    pub fn state(&self) -> &Arc<ServeState> {
        &self.state
    }

    /// Stop the HTTP server, then the scheduler and reaper, and join
    /// all of them.
    pub fn shutdown(mut self) {
        self.server.shutdown();
        self.state.stop();
        if let Some(h) = self.scheduler.take() {
            h.join().ok();
        }
        if let Some(h) = self.reaper.take() {
            h.join().ok();
        }
    }
}

/// Start serving `farm` on `addr` (`"127.0.0.1:0"` picks a free port).
pub fn start(
    farm: Arc<Farm>,
    addr: &str,
    serve_cfg: ServeConfig,
    server_cfg: ServerConfig,
) -> io::Result<ServeHandle> {
    let state = Arc::new(ServeState::new(farm, serve_cfg));
    let scheduler = state::spawn_scheduler(state.clone());
    let reaper = state::spawn_reaper(state.clone());
    let rejected = Arc::new(AtomicU64::new(0));
    let handler: Handler = {
        let state = state.clone();
        let rejected = rejected.clone();
        Arc::new(move |req: &Request| api::handle(&state, req, rejected.load(Ordering::Relaxed)))
    };
    let server = Server::spawn_with(addr, server_cfg, handler, rejected)?;
    Ok(ServeHandle {
        server,
        scheduler: Some(scheduler),
        reaper: Some(reaper),
        state,
    })
}
