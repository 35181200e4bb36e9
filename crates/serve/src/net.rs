//! Seeded, replayable network fault injection for fleet workers.
//!
//! The farm's `ChaosIo` proves the store/journal degradation paths by
//! making every filesystem fault a pure function of (seed, op, ordinal).
//! [`ChaosNet`] extends the same discipline to the wire: it wraps the
//! worker's one-shot HTTP client ([`Transport`]) and injects
//!
//! * dropped requests (the connection "fails" before anything is sent);
//! * duplicated requests (the same call hits the server twice — the
//!   retry-after-lost-ACK shape that exercises server idempotency);
//! * truncated responses (the body is cut mid-byte, so the caller sees
//!   a parse error and must treat the outcome as unknown);
//! * injected latency (a seeded pause before the call, widening race
//!   windows around lease expiry);
//! * mid-upload disconnects (the request head and *half* the body go
//!   out on a raw socket, then the connection closes — the server sees
//!   a torn POST, the client an error).
//!
//! Every decision is a draw of [`SiteRolls`] — the roll behind
//! `ptb_farm::io::ChaosIo` — at the site (op tag, fault class), so a
//! failing fleet run replays exactly from its seed, independent of
//! thread scheduling on either side.

use crate::http::http_call;
use ptb_farm::hash::{fnv1a64, splitmix64, SiteRolls};
use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// A one-shot HTTP client seam: send one request, return
/// `(status, body)`. [`RealNet`] is the production implementation;
/// [`ChaosNet`] wraps any other transport with injected faults.
pub trait Transport: Send + Sync {
    /// Perform `method path` against `addr` with an optional JSON body.
    fn call(
        &self,
        addr: SocketAddr,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> io::Result<(u16, String)>;
}

/// The well-behaved transport: delegates to [`http_call`].
pub struct RealNet;

impl Transport for RealNet {
    fn call(
        &self,
        addr: SocketAddr,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> io::Result<(u16, String)> {
        http_call(addr, method, path, body)
    }
}

/// Per-fault-class injection rates, all in `[0, 1]`, plus the seed.
#[derive(Debug, Clone, Copy)]
pub struct NetChaosConfig {
    /// Seed for every injection decision.
    pub seed: u64,
    /// Probability the request is dropped before it is sent.
    pub drop: f64,
    /// Probability the request is sent twice.
    pub duplicate: f64,
    /// Probability the response body is truncated.
    pub truncate: f64,
    /// Probability of an injected pause before the call.
    pub latency: f64,
    /// Probability the connection dies mid-upload.
    pub disconnect: f64,
}

impl NetChaosConfig {
    /// Every fault class at the same `rate` under `seed`.
    pub fn uniform(seed: u64, rate: f64) -> NetChaosConfig {
        NetChaosConfig {
            seed,
            drop: rate,
            duplicate: rate,
            truncate: rate,
            latency: rate,
            disconnect: rate,
        }
    }
}

/// Injected-fault counters, exported as `fleet.chaos.*`.
#[derive(Debug, Default)]
pub struct NetChaosStats {
    /// Requests dropped before sending.
    pub dropped: AtomicU64,
    /// Requests sent twice.
    pub duplicated: AtomicU64,
    /// Responses truncated.
    pub truncated: AtomicU64,
    /// Injected pauses.
    pub delayed: AtomicU64,
    /// Mid-upload disconnects.
    pub disconnected: AtomicU64,
}

/// A [`Transport`] that injects seeded faults around the real one-shot
/// client. Decisions are a pure function of (seed, op-tag, ordinal),
/// where the op tag names the endpoint class (`work.claim`,
/// `work.complete`, …) and the ordinal counts calls under that tag —
/// so fault placement is independent of wall-clock timing and of other
/// workers.
pub struct ChaosNet {
    cfg: NetChaosConfig,
    rolls: SiteRolls,
    stats: NetChaosStats,
}

impl ChaosNet {
    /// A chaos transport with the given fault rates.
    pub fn new(cfg: NetChaosConfig) -> ChaosNet {
        ChaosNet {
            cfg,
            rolls: SiteRolls::new(cfg.seed),
            stats: NetChaosStats::default(),
        }
    }

    /// Injected-fault counters.
    pub fn stats(&self) -> &NetChaosStats {
        &self.stats
    }

    /// Counter snapshot under the `fleet.chaos.*` namespace.
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        vec![
            (
                "fleet.chaos.dropped",
                self.stats.dropped.load(Ordering::Relaxed),
            ),
            (
                "fleet.chaos.duplicated",
                self.stats.duplicated.load(Ordering::Relaxed),
            ),
            (
                "fleet.chaos.truncated",
                self.stats.truncated.load(Ordering::Relaxed),
            ),
            (
                "fleet.chaos.delayed",
                self.stats.delayed.load(Ordering::Relaxed),
            ),
            (
                "fleet.chaos.disconnected",
                self.stats.disconnected.load(Ordering::Relaxed),
            ),
        ]
    }

    /// Uniform chance in `[0, 1)` for the next `(tag, fault)` decision.
    fn roll(&self, tag: &str, fault: &str) -> f64 {
        self.rolls.roll(tag.as_bytes(), fault.as_bytes())
    }

    /// The endpoint class a path belongs to, used as the op tag so
    /// fault placement tracks protocol operations, not raw URLs.
    fn op_tag(path: &str) -> &'static str {
        if path == "/v1/work/claim" {
            "work.claim"
        } else if path.starts_with("/v1/work/") {
            if path.ends_with("/heartbeat") {
                "work.heartbeat"
            } else if path.ends_with("/complete") {
                "work.complete"
            } else if path.ends_with("/fail") {
                "work.fail"
            } else {
                "work.other"
            }
        } else {
            "other"
        }
    }

    /// Send the request head plus half the body on a raw socket, then
    /// close — the torn-POST shape of a worker dying mid-upload.
    fn disconnect_mid_upload(
        addr: SocketAddr,
        method: &str,
        path: &str,
        body: &str,
    ) -> io::Result<(u16, String)> {
        if let Ok(mut stream) = TcpStream::connect(addr) {
            stream.set_write_timeout(Some(Duration::from_secs(5))).ok();
            let head = format!(
                "{method} {path} HTTP/1.1\r\nHost: ptb-serve\r\nConnection: close\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
                body.len()
            );
            stream.write_all(head.as_bytes()).ok();
            stream.write_all(&body.as_bytes()[..body.len() / 2]).ok();
            // Dropping the stream closes it with the body incomplete.
        }
        Err(io::Error::new(
            io::ErrorKind::BrokenPipe,
            "chaos: disconnected mid-upload",
        ))
    }
}

impl Transport for ChaosNet {
    fn call(
        &self,
        addr: SocketAddr,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> io::Result<(u16, String)> {
        let tag = Self::op_tag(path);
        if self.roll(tag, "latency") < self.cfg.latency {
            self.stats.delayed.fetch_add(1, Ordering::Relaxed);
            // Bounded, seed-determined pause (1–64 ms).
            let ms = 1 + (splitmix64(self.cfg.seed ^ fnv1a64(tag.as_bytes())) % 64);
            std::thread::sleep(Duration::from_millis(ms));
        }
        if self.roll(tag, "drop") < self.cfg.drop {
            self.stats.dropped.fetch_add(1, Ordering::Relaxed);
            return Err(io::Error::new(
                io::ErrorKind::ConnectionReset,
                "chaos: request dropped",
            ));
        }
        if self.roll(tag, "disconnect") < self.cfg.disconnect {
            if let Some(body) = body {
                if !body.is_empty() {
                    self.stats.disconnected.fetch_add(1, Ordering::Relaxed);
                    return Self::disconnect_mid_upload(addr, method, path, body);
                }
            }
        }
        if self.roll(tag, "duplicate") < self.cfg.duplicate {
            self.stats.duplicated.fetch_add(1, Ordering::Relaxed);
            // The first send's reply is lost; the caller only sees the
            // retransmission's — exactly the lost-ACK retry shape.
            http_call(addr, method, path, body).ok();
        }
        let (status, payload) = http_call(addr, method, path, body)?;
        if self.roll(tag, "truncate") < self.cfg.truncate && payload.len() > 1 {
            self.stats.truncated.fetch_add(1, Ordering::Relaxed);
            let cut = payload.len() / 2;
            // Cut on a char boundary (all payloads here are ASCII JSON,
            // but stay defensive).
            let cut = (0..=cut).rev().find(|&i| payload.is_char_boundary(i));
            return Ok((status, payload[..cut.unwrap_or(0)].to_owned()));
        }
        Ok((status, payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_a_pure_function_of_seed_and_ordinal() {
        let a = ChaosNet::new(NetChaosConfig::uniform(7, 0.5));
        let b = ChaosNet::new(NetChaosConfig::uniform(7, 0.5));
        let seq_a: Vec<f64> = (0..64).map(|_| a.roll("work.claim", "drop")).collect();
        let seq_b: Vec<f64> = (0..64).map(|_| b.roll("work.claim", "drop")).collect();
        assert_eq!(seq_a, seq_b, "same seed must replay identically");
        let c = ChaosNet::new(NetChaosConfig::uniform(8, 0.5));
        let seq_c: Vec<f64> = (0..64).map(|_| c.roll("work.claim", "drop")).collect();
        assert_ne!(seq_a, seq_c, "different seed must diverge");
    }

    #[test]
    fn fault_classes_roll_independent_streams() {
        let n = ChaosNet::new(NetChaosConfig::uniform(3, 0.5));
        let drops: Vec<f64> = (0..32).map(|_| n.roll("work.claim", "drop")).collect();
        let trunc: Vec<f64> = (0..32).map(|_| n.roll("work.claim", "truncate")).collect();
        assert_ne!(drops, trunc);
    }

    #[test]
    fn zero_rate_injects_nothing() {
        let n = ChaosNet::new(NetChaosConfig::uniform(1, 0.0));
        let addr: SocketAddr = "127.0.0.1:1".parse().unwrap();
        // With every rate 0 the only effect can come from the real
        // call, which fails to connect — no fault counters move.
        let _ = n.call(addr, "POST", "/v1/work/claim", Some("{}"));
        assert_eq!(n.stats().dropped.load(Ordering::Relaxed), 0);
        assert_eq!(n.stats().duplicated.load(Ordering::Relaxed), 0);
        assert_eq!(n.stats().truncated.load(Ordering::Relaxed), 0);
        assert_eq!(n.stats().disconnected.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn op_tags_classify_fleet_paths() {
        assert_eq!(ChaosNet::op_tag("/v1/work/claim"), "work.claim");
        assert_eq!(ChaosNet::op_tag("/v1/work/abc/heartbeat"), "work.heartbeat");
        assert_eq!(ChaosNet::op_tag("/v1/work/abc/complete"), "work.complete");
        assert_eq!(ChaosNet::op_tag("/v1/work/abc/fail"), "work.fail");
        assert_eq!(ChaosNet::op_tag("/v1/status"), "other");
    }
}
