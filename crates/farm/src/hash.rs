//! Stable content hashing for job keys.
//!
//! Keys must be identical across processes, platforms and time, so the
//! hash is computed over a *canonical* byte string — compact JSON with
//! sorted object keys (the serde stub's `Value` tree guarantees the
//! ordering) — with a dependency-free FNV-1a construction. Two
//! independent 64-bit lanes with different offset bases give a 128-bit
//! digest; and because [`crate::ResultStore::get`] additionally compares
//! the stored config tree against the requested one, even a hash
//! collision degrades to a re-simulation, never to a wrong result.
//!
//! [`crate::FarmJob::key`] computes the same digest without building
//! the material: it streams the pieces into one two-lane hasher and
//! takes the workload's canonical JSON from a small process-wide cache,
//! since a spec is a pure function of `(bench, n_cores, scale)` and many
//! jobs share one. [`key_material`] and [`job_key`] are the reference
//! construction it is tested against.
//!
//! The module is also the repository's one home of the small stable
//! hashes the farm and the service share: [`fnv1a64`] (also the `PTBE`
//! frame checksum and `sim_check`'s seed spelling), [`splitmix64`], and
//! [`SiteRolls`], the seeded per-site fault roll behind `ChaosIo` and
//! `ChaosNet`.

use crate::sync::lock;
use ptb_core::SimConfig;
use ptb_workloads::{Benchmark, Scale, WorkloadSpec};
use serde::{json, Map, Serialize, Value};
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};

/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// Standard FNV-1a 64-bit offset basis (lane 0).
const FNV_BASIS_A: u64 = 0xcbf2_9ce4_8422_2325;
/// Second lane basis: the standard basis xor a golden-ratio constant,
/// fixed forever (changing it invalidates every store).
const FNV_BASIS_B: u64 = FNV_BASIS_A ^ 0x9e37_79b9_7f4a_7c15;

/// Standard 64-bit FNV-1a of `bytes`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV_BASIS_A, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(FNV_PRIME)
    })
}

/// The SplitMix64 finaliser: decorrelates structured 64-bit inputs.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Seeded, replayable uniform draws for fault injection.
///
/// Each draw is a pure function of `(seed, site, ordinal)`, where the
/// site hashes two names (an operation tag and a path or fault class)
/// and the ordinal counts earlier draws at that site. So the nth
/// operation on one site meets the same fate whatever other threads do,
/// and a failing chaos run replays from its seed alone.
#[derive(Debug)]
pub struct SiteRolls {
    seed: u64,
    ordinals: Mutex<HashMap<u64, u64>>,
}

impl SiteRolls {
    /// Draws derived from `seed`.
    pub fn new(seed: u64) -> Self {
        SiteRolls {
            seed,
            ordinals: Mutex::new(HashMap::new()),
        }
    }

    /// Uniform `[0, 1)` draw for the next operation at site `(a, b)`.
    pub fn roll(&self, a: &[u8], b: &[u8]) -> f64 {
        let site = fnv1a64(a) ^ fnv1a64(b);
        let ordinal = {
            let mut m = lock(&self.ordinals);
            let n = m.entry(site).or_insert(0);
            *n += 1;
            *n
        };
        let bits = splitmix64(self.seed ^ site ^ ordinal.wrapping_mul(0x2545_f491_4f6c_dd1d));
        (bits >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The 128-bit FNV-1a digest, fed in pieces: two 64-bit lanes with
/// different offset bases, both updated in one pass over each piece.
struct Fnv128 {
    a: u64,
    b: u64,
}

impl Default for Fnv128 {
    fn default() -> Self {
        Fnv128 {
            a: FNV_BASIS_A,
            b: FNV_BASIS_B,
        }
    }
}

impl Fnv128 {
    /// Append `bytes` to the hashed input.
    fn update(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.a = (self.a ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
            self.b = (self.b ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        }
    }

    /// The digest as 32 lowercase hex chars.
    fn hex(&self) -> String {
        format!("{:016x}{:016x}", self.a, self.b)
    }
}

/// 128-bit hex digest (32 lowercase hex chars) of `material`.
pub fn digest_hex(material: &[u8]) -> String {
    let mut h = Fnv128::default();
    h.update(material);
    h.hex()
}

/// The canonical key material for a job, as a JSON `Value` tree:
/// config, fully expanded workload spec (programs, profiles, seed), and
/// both format versions.
pub fn key_material(config: &SimConfig, spec: &WorkloadSpec) -> Value {
    let mut m = Map::new();
    m.insert("config".into(), config.to_value());
    m.insert("workload".into(), spec.to_value());
    m.insert(
        "report_format".into(),
        Value::U64(u64::from(ptb_core::report::REPORT_FORMAT)),
    );
    m.insert(
        "store_format".into(),
        Value::U64(u64::from(crate::STORE_FORMAT)),
    );
    Value::Object(m)
}

/// Content key of a `(config, workload)` pair.
pub fn job_key(config: &SimConfig, spec: &WorkloadSpec) -> String {
    digest_hex(json::to_string(&key_material(config, spec)).as_bytes())
}

/// Workload JSONs kept by [`workload_json`]. Request bodies choose
/// `n_cores`, so the cache must be bounded; the figure sweeps use far
/// fewer distinct triples per process.
const WORKLOAD_CACHE_CAP: usize = 64;

/// Canonical JSON of each recently keyed `(bench, n_cores, scale)`'s
/// spec, oldest first.
type WorkloadCache = VecDeque<((Benchmark, usize, Scale), Arc<str>)>;

static WORKLOAD_JSON: Mutex<WorkloadCache> = Mutex::new(VecDeque::new());

/// `json::to_string(&bench.spec(n_cores, scale))`, from the cache when
/// the triple was keyed recently. The spec is built outside the lock;
/// a full cache drops its oldest entry.
fn workload_json(bench: Benchmark, n_cores: usize, scale: Scale) -> Arc<str> {
    let triple = (bench, n_cores, scale);
    let find = |cache: &WorkloadCache| {
        cache
            .iter()
            .find(|(t, _)| *t == triple)
            .map(|(_, json)| json.clone())
    };
    if let Some(hit) = find(&lock(&WORKLOAD_JSON)) {
        return hit;
    }
    let built: Arc<str> = json::to_string(&bench.spec(n_cores, scale)).into();
    let mut cache = lock(&WORKLOAD_JSON);
    if let Some(raced) = find(&cache) {
        return raced;
    }
    if cache.len() == WORKLOAD_CACHE_CAP {
        cache.pop_front();
    }
    cache.push_back((triple, built.clone()));
    built
}

/// [`job_key`] of `bench` under `config`, streamed: the pieces of
/// [`key_material`]'s compact JSON, in its sorted key order, go straight
/// into the hasher, with the workload JSON from [`workload_json`].
pub(crate) fn farm_job_key(bench: Benchmark, config: &SimConfig) -> String {
    let workload = workload_json(bench, config.n_cores, config.scale);
    let mut h = Fnv128::default();
    h.update(b"{\"config\":");
    h.update(json::to_string(config).as_bytes());
    h.update(b",\"report_format\":");
    h.update(ptb_core::report::REPORT_FORMAT.to_string().as_bytes());
    h.update(b",\"store_format\":");
    h.update(crate::STORE_FORMAT.to_string().as_bytes());
    h.update(b",\"workload\":");
    h.update(workload.as_bytes());
    h.update(b"}");
    h.hex()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptb_core::MechanismKind;
    use ptb_workloads::{Benchmark, Scale};

    fn cfg(n: usize) -> SimConfig {
        SimConfig {
            n_cores: n,
            scale: Scale::Test,
            ..SimConfig::default()
        }
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        assert_eq!(digest_hex(b"abc"), digest_hex(b"abc"));
        assert_ne!(digest_hex(b"abc"), digest_hex(b"abd"));
        assert_eq!(digest_hex(b"").len(), 32);
    }

    /// Keys and `PTBE` checksums are persisted and CI seeds committed,
    /// so these values must never change.
    #[test]
    fn pinned_values_never_change() {
        assert_eq!(digest_hex(b"abc"), "e71fa2190541574baf296de3c3b6ffb0");
        let job = crate::FarmJob::new(
            Benchmark::Fft,
            SimConfig {
                mechanism: MechanismKind::None,
                ..cfg(2)
            },
        );
        assert_eq!(job.key(), "09a70358d2b6a7ee6bed3387c78c30f1");
        // `sim_check --seed 0xPTB`, the CI fuzzing seed.
        assert_eq!(fnv1a64(b"0xPTB"), 0x62e5_587d_3f29_0b09);
    }

    /// The streamed key equals the reference construction across every
    /// benchmark, core count and scale, with enough distinct triples in
    /// one process that the bounded cache evicts and refills.
    #[test]
    fn streamed_key_matches_the_reference_through_cache_eviction() {
        let mechanisms = [
            MechanismKind::None,
            MechanismKind::PtbTwoLevel {
                policy: ptb_core::PtbPolicy::Dynamic,
                relax: 0.0,
            },
        ];
        for scale in [Scale::Test, Scale::Small] {
            for n in [1, 2, 4, 8, 16, 32] {
                for bench in Benchmark::ALL {
                    let spec = bench.spec(n, scale);
                    for mechanism in mechanisms {
                        let config = SimConfig {
                            n_cores: n,
                            scale,
                            mechanism,
                            ..SimConfig::default()
                        };
                        let job = crate::FarmJob::new(bench, config.clone());
                        assert_eq!(job.key(), job_key(&config, &spec), "{}", job.label());
                    }
                }
            }
        }
        let cache = lock(&WORKLOAD_JSON);
        assert!(cache.len() <= WORKLOAD_CACHE_CAP);
    }

    #[test]
    fn key_distinguishes_job_dimensions() {
        let spec2 = Benchmark::Fft.spec(2, Scale::Test);
        let spec4 = Benchmark::Fft.spec(4, Scale::Test);
        let radix2 = Benchmark::Radix.spec(2, Scale::Test);
        let base = job_key(&cfg(2), &spec2);
        assert_eq!(base, job_key(&cfg(2), &spec2), "deterministic");
        assert_ne!(base, job_key(&cfg(4), &spec4), "core count");
        assert_ne!(base, job_key(&cfg(2), &radix2), "benchmark");
        let dvfs = SimConfig {
            mechanism: MechanismKind::Dvfs,
            ..cfg(2)
        };
        assert_ne!(base, job_key(&dvfs, &spec2), "mechanism");
        let mut reseeded = spec2.clone();
        reseeded.seed ^= 1;
        assert_ne!(base, job_key(&cfg(2), &reseeded), "seed");
    }
}
