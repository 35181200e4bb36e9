//! The Power Token Balancing mechanism (§III.E, §IV).
//!
//! Every cycle, if the chip is over its global budget, cores under their
//! local budget *offer* their spare tokens to a central load-balancer; the
//! balancer redistributes them to cores over budget, raising those cores'
//! *effective* local budgets so they need not slow down. Tokens are a
//! per-cycle currency, not a loan — nothing is stored or repaid.
//!
//! Hardware modelling per §III.E.2:
//! * token counts travel on 4-bit wires, so offers/grants are quantised to
//!   fifteen steps of the local budget and capped at one local budget;
//! * the collect → process → distribute round trip costs 3/5/10 cycles for
//!   4/8/16 cores (Xilinx ISE estimates), and a giving core *pledges* the
//!   offered amount — its own effective budget is reduced until the grant
//!   lands, so the global budget cannot be double-spent in flight;
//! * the balancer + wiring dissipate ≈ 1 % of the budget, charged as
//!   uncore overhead every cycle.
//!
//! Local enforcement reuses the 2-level machinery ([`LocalSaver`]) against
//! the *effective* budget; the relaxed variant (§IV.C) multiplies the
//! trigger threshold by `1 + relax`, trading accuracy for energy.
//!
//! The balancer runs every cycle, so its working vectors (effective
//! budgets, a cluster's offers and deficits) are fields, and a landed
//! flight is kept with its grant and pledge vectors for the next launch.
//! A warm cycle allocates nothing.

use crate::budget::BudgetSpec;
use crate::config::{PtbConfig, PtbPolicy};
use crate::mechanisms::simple::{core_local_budget, UncoreEma};
use crate::mechanisms::{ChipObs, CoreAction, LocalSaver, Mechanism};
use ptb_isa::CtxState;
use std::collections::VecDeque;

#[derive(Debug, Default)]
struct Flight {
    arrives_at: u64,
    /// The balancer cluster this flight belongs to (core index range).
    members: (usize, usize),
    /// Grant per core (tokens added to the effective budget on arrival).
    grants: Vec<f64>,
    /// Pledge per core (tokens subtracted from the giver until arrival).
    pledges: Vec<f64>,
}

/// The PTB load-balancer + per-core 2-level local savers.
pub struct PtbMechanism {
    policy: PtbPolicy,
    relax: f64,
    cfg: PtbConfig,
    latency: u64,
    /// Balancer clusters as core-index ranges (one chip-wide cluster by
    /// default; §III.E.2's replicated balancers when `cluster_size` is
    /// set).
    clusters: Vec<(usize, usize)>,
    savers: Vec<LocalSaver>,
    in_flight: VecDeque<Flight>,
    /// Landed flights, recycled with their vectors by the next launch.
    spare_flights: Vec<Flight>,
    /// Clusters whose flight landed this cycle.
    landed: Vec<(usize, usize)>,
    /// Effective budget per core this cycle.
    effective: Vec<f64>,
    /// Offers (quantised spare tokens) of the cluster being balanced.
    spare: Vec<f64>,
    /// Deficits of the cluster being balanced.
    deficit: Vec<f64>,
    /// Outstanding pledged tokens per core.
    pledged: Vec<f64>,
    /// Grants currently in force (the last flight that landed; held until
    /// the next one lands or balancing goes idle for a latency period —
    /// the balancer output is a level, not a one-cycle pulse).
    arrived: Vec<f64>,
    /// Cycle the current grants last landed, per cluster.
    last_land: Vec<u64>,
    /// Was the chip over budget last cycle (balancer active)? The wires
    /// and balancer logic are clock-gated otherwise, so the ≈1 % power
    /// overhead only accrues while balancing.
    active: bool,
    uncore: UncoreEma,
    /// Policy actually used last cycle (Dynamic resolves per cycle).
    pub last_policy: PtbPolicy,
    /// Diagnostics: total tokens granted over the run.
    pub tokens_granted: f64,
}

impl PtbMechanism {
    /// Build for `n` cores.
    pub fn new(n: usize, policy: PtbPolicy, relax: f64, cfg: PtbConfig) -> Self {
        assert!(relax >= 0.0);
        let cluster = cfg.cluster_size.unwrap_or(n).max(1);
        let clusters: Vec<(usize, usize)> = (0..n)
            .step_by(cluster)
            .map(|s| (s, (s + cluster).min(n)))
            .collect();
        PtbMechanism {
            policy,
            relax,
            // Each replicated balancer only spans its cluster, so wire
            // latency follows the cluster size, not the chip size.
            latency: cfg.latency(cluster.min(n)),
            clusters,
            cfg,
            savers: (0..n).map(LocalSaver::two_level_percycle).collect(),
            in_flight: VecDeque::new(),
            spare_flights: Vec::new(),
            landed: Vec::new(),
            effective: Vec::with_capacity(n),
            spare: Vec::with_capacity(cluster),
            deficit: Vec::with_capacity(cluster),
            pledged: vec![0.0; n],
            arrived: vec![0.0; n],
            last_land: vec![0; n.div_ceil(cluster)],
            active: false,
            uncore: UncoreEma::default(),
            last_policy: match policy {
                PtbPolicy::Dynamic => PtbPolicy::ToAll,
                p => p,
            },
            tokens_granted: 0.0,
        }
    }

    /// Resolve the distribution policy for this cycle (§IV.B): if more
    /// spinning cores are waiting on locks than on barriers, priority goes
    /// to a single core (the one in/entering the critical section);
    /// otherwise spread tokens to rush everyone to the barrier.
    fn resolve_policy(&self, obs: &ChipObs<'_>) -> PtbPolicy {
        match self.policy {
            PtbPolicy::Dynamic => {
                let mut lock_spinners = 0u32;
                let mut barrier_spinners = 0u32;
                for c in obs.cores {
                    if c.ctx.spinning {
                        match c.ctx.state {
                            CtxState::LockAcq(_) => lock_spinners += 1,
                            CtxState::Barrier(_) => barrier_spinners += 1,
                            _ => {}
                        }
                    }
                }
                if lock_spinners > barrier_spinners {
                    PtbPolicy::ToOne
                } else {
                    PtbPolicy::ToAll
                }
            }
            p => p,
        }
    }
}

impl Mechanism for PtbMechanism {
    fn name(&self) -> String {
        format!("PTB+2level/{}", self.policy.label())
    }

    fn control(&mut self, obs: &ChipObs<'_>, budget: &BudgetSpec, actions: &mut [CoreAction]) {
        let n = obs.cores.len();
        debug_assert_eq!(self.savers.len(), n);
        // 1. Land any flights due this cycle: release pledges, replace the
        //    grants in force for that flight's cluster. If a cluster's
        //    balancing has gone quiet for a full round-trip, its held
        //    grants expire.
        self.landed.clear();
        while let Some(f) = self.in_flight.front() {
            if f.arrives_at > obs.cycle {
                break;
            }
            let f = self.in_flight.pop_front().expect("peeked");
            if !self.landed.contains(&f.members) {
                self.arrived[f.members.0..f.members.1]
                    .iter_mut()
                    .for_each(|g| *g = 0.0);
                self.landed.push(f.members);
            }
            for i in f.members.0..f.members.1 {
                self.arrived[i] += f.grants[i - f.members.0];
                self.pledged[i] -= f.pledges[i - f.members.0];
            }
            self.spare_flights.push(f);
        }
        for (ci, &(lo, hi)) in self.clusters.iter().enumerate() {
            if self.landed.contains(&(lo, hi)) {
                self.last_land[ci] = obs.cycle;
            } else if obs.cycle.saturating_sub(self.last_land[ci]) > self.latency {
                self.arrived[lo..hi].iter_mut().for_each(|g| *g = 0.0);
            }
        }
        // 2. Effective budget per core this cycle (uncore-aware split +
        //    balancing adjustments).
        let local = core_local_budget(budget, self.uncore.update(obs.uncore_tokens));
        self.effective.clear();
        self.effective
            .extend((0..n).map(|i| (local + self.arrived[i] - self.pledged[i]).max(0.0)));
        let chip_over = obs.chip_tokens > budget.global;
        self.active = chip_over;
        // 3. Each (replicated) balancer collects offers and deficits from
        //    its cluster and launches a balancing flight.
        if chip_over {
            let quantum = local / f64::from((1u32 << self.cfg.wire_bits) - 1);
            let cap = local; // wire-code ceiling: 2^bits − 1 quanta
            let policy = self.resolve_policy(obs);
            self.last_policy = policy;
            for &(lo, hi) in &self.clusters {
                let m = hi - lo;
                let (spare, deficit) = (&mut self.spare, &mut self.deficit);
                spare.clear();
                spare.resize(m, 0.0);
                deficit.clear();
                deficit.resize(m, 0.0);
                let mut pool = 0.0;
                for i in lo..hi {
                    let used = obs.cores[i].tokens;
                    let effective = self.effective[i];
                    if used < effective {
                        // Quantise down to the wire code.
                        let sp = (((effective - used) / quantum).floor() * quantum).clamp(0.0, cap);
                        spare[i - lo] = sp;
                        pool += sp;
                    } else {
                        deficit[i - lo] = used - effective;
                    }
                }
                if pool <= 0.0 || deficit.iter().all(|&d| d <= 0.0) {
                    continue;
                }
                let mut flight = self.spare_flights.pop().unwrap_or_default();
                let grants = &mut flight.grants;
                grants.clear();
                grants.resize(m, 0.0);
                match policy {
                    PtbPolicy::ToOne => {
                        // All tokens to the neediest core in the cluster.
                        let (winner, _) = deficit
                            .iter()
                            .enumerate()
                            .max_by(|a, b| a.1.partial_cmp(b.1).expect("no NaN"))
                            .expect("nonempty");
                        grants[winner] = pool.min(cap);
                    }
                    PtbPolicy::ToAll | PtbPolicy::Dynamic => {
                        let recipients = deficit.iter().filter(|&&d| d > 0.0).count() as f64;
                        let share = pool / recipients;
                        for (g, &d) in grants.iter_mut().zip(deficit.iter()) {
                            if d > 0.0 {
                                *g = share.min(cap);
                            }
                        }
                    }
                }
                let granted: f64 = grants.iter().sum();
                self.tokens_granted += granted;
                // Givers pledge exactly what will be granted (pro-rata), so
                // budget mass is conserved in flight.
                let scale = if pool > 0.0 { granted / pool } else { 0.0 };
                flight.pledges.clear();
                flight.pledges.extend(spare.iter().map(|s| s * scale));
                for i in lo..hi {
                    self.pledged[i] += flight.pledges[i - lo];
                }
                flight.arrives_at = obs.cycle + self.latency;
                flight.members = (lo, hi);
                self.in_flight.push_back(flight);
            }
        }
        // 4. Local enforcement against the effective budgets.
        for (i, action) in actions.iter_mut().enumerate().take(n) {
            let trigger_budget = self.effective[i] * (1.0 + self.relax);
            let (mode, throttle) =
                self.savers[i].step(obs.cores[i].tokens, trigger_budget, chip_over);
            action.mode = mode;
            action.throttle = throttle;
        }
    }

    fn overhead_tokens(&self, budget: &BudgetSpec) -> f64 {
        if self.active {
            self.cfg.overhead_frac * budget.global
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mechanisms::CoreObs;
    use ptb_isa::{BarrierId, ExecCtx, LockId};
    use ptb_power::PowerParams;
    use ptb_uarch::CoreConfig;

    fn budget(n: usize) -> BudgetSpec {
        BudgetSpec::new(&PowerParams::default(), &CoreConfig::default(), n, 0.5)
    }

    fn obs_from(tokens: &[f64], _cycle: u64) -> Vec<CoreObs> {
        tokens
            .iter()
            .map(|&t| CoreObs {
                tokens: t,
                ctx: ExecCtx::BUSY,
                done: false,
            })
            .collect()
    }

    fn run_cycle(
        m: &mut PtbMechanism,
        b: &BudgetSpec,
        cores: &[CoreObs],
        cycle: u64,
        actions: &mut [CoreAction],
    ) {
        let chip: f64 = cores.iter().map(|c| c.tokens).sum();
        let obs = ChipObs {
            cycle,
            chip_tokens: chip,
            uncore_tokens: 0.0,
            cores,
        };
        m.control(&obs, b, actions);
    }

    #[test]
    fn spare_tokens_raise_receiver_budget_after_latency() {
        let b = budget(4);
        let mut m = PtbMechanism::new(4, PtbPolicy::ToAll, 0.0, PtbConfig::default());
        // Cores 0-2 idle-ish (half budget), core 3 hot (double budget) —
        // chip total is over global (3×0.5 + 2.0 = 3.5× local > 4× local?
        // 3.5 < 4 — make it hotter).
        let tokens = [b.local * 0.3, b.local * 0.3, b.local * 0.3, b.local * 3.5];
        let cores = obs_from(&tokens, 0);
        let mut actions = vec![CoreAction::default(); 4];
        // Cycle 0: offers collected, flight launched (latency 3).
        run_cycle(&mut m, &b, &cores, 0, &mut actions);
        assert!(m.tokens_granted > 0.0, "flight should be launched");
        let granted_at_launch = m.tokens_granted;
        // Hot core is over budget (grants not yet arrived) -> the fine
        // level throttles it within its 2-cycle confirmation.
        run_cycle(&mut m, &b, &cores, 1, &mut actions);
        assert!(actions[3].throttle.active());
        run_cycle(&mut m, &b, &cores, 2, &mut actions);
        // Cycle 3+: grants land; core 3's draw just above the plain local
        // budget but under local + grant -> with sustained slack the
        // hysteresis releases the throttle entirely.
        let pool = granted_at_launch;
        for cycle in 3..80 {
            let tokens2 = [
                b.local * 0.3,
                b.local * 0.3,
                b.local * 0.3,
                b.local + pool * 0.5,
            ];
            let cores2 = obs_from(&tokens2, cycle);
            run_cycle(&mut m, &b, &cores2, cycle, &mut actions);
        }
        assert!(
            !actions[3].throttle.active(),
            "granted tokens must let the hot core run unthrottled"
        );
    }

    #[test]
    fn toone_gives_everything_to_neediest() {
        let b = budget(4);
        let mut m = PtbMechanism::new(4, PtbPolicy::ToOne, 0.0, PtbConfig::default());
        let tokens = [b.local * 0.2, b.local * 1.5, b.local * 3.0, b.local * 0.2];
        let cores = obs_from(&tokens, 0);
        let mut actions = vec![CoreAction::default(); 4];
        run_cycle(&mut m, &b, &cores, 0, &mut actions);
        let f = m.in_flight.front().expect("flight");
        assert!(f.grants[2] > 0.0, "neediest core gets tokens");
        assert_eq!(f.grants[1], 0.0, "ToOne ignores the second-neediest");
    }

    #[test]
    fn toall_splits_among_all_over_budget() {
        let b = budget(4);
        let mut m = PtbMechanism::new(4, PtbPolicy::ToAll, 0.0, PtbConfig::default());
        let tokens = [b.local * 0.1, b.local * 1.6, b.local * 2.4, b.local * 0.1];
        let cores = obs_from(&tokens, 0);
        let mut actions = vec![CoreAction::default(); 4];
        run_cycle(&mut m, &b, &cores, 0, &mut actions);
        let f = m.in_flight.front().expect("flight");
        assert!(f.grants[1] > 0.0 && f.grants[2] > 0.0);
        assert!((f.grants[1] - f.grants[2]).abs() < 1e-9, "equal split");
    }

    #[test]
    fn no_balancing_when_chip_under_budget() {
        let b = budget(4);
        let mut m = PtbMechanism::new(4, PtbPolicy::ToAll, 0.0, PtbConfig::default());
        // One core over its local share, but the chip total under global
        // (paper Figure 5, cycle 3).
        let tokens = [b.local * 0.1, b.local * 0.1, b.local * 0.1, b.local * 1.5];
        let cores = obs_from(&tokens, 0);
        let mut actions = vec![CoreAction::default(); 4];
        run_cycle(&mut m, &b, &cores, 0, &mut actions);
        assert!(m.in_flight.is_empty());
        assert_eq!(m.tokens_granted, 0.0);
        assert!(!actions[3].throttle.active());
    }

    #[test]
    fn grants_are_capped_by_wire_width() {
        let b = budget(2);
        let mut m = PtbMechanism::new(2, PtbPolicy::ToOne, 0.0, PtbConfig::default());
        let tokens = [0.0, b.local * 5.0];
        let cores = obs_from(&tokens, 0);
        let mut actions = vec![CoreAction::default(); 2];
        run_cycle(&mut m, &b, &cores, 0, &mut actions);
        let f = m.in_flight.front().expect("flight");
        assert!(
            f.grants[1] <= b.local + 1e-9,
            "grant must fit the 4-bit code"
        );
    }

    #[test]
    fn budget_mass_is_conserved() {
        // Σ(effective budgets) never exceeds Σ(local budgets): pledges
        // equal grants at all times.
        let b = budget(4);
        let mut m = PtbMechanism::new(4, PtbPolicy::ToAll, 0.0, PtbConfig::default());
        let mut actions = vec![CoreAction::default(); 4];
        for cycle in 0..50 {
            let tokens = [
                b.local * 0.2,
                b.local * 0.4,
                b.local * 2.2,
                b.local * (1.5 + 0.1 * (cycle % 5) as f64),
            ];
            let cores = obs_from(&tokens, cycle);
            run_cycle(&mut m, &b, &cores, cycle, &mut actions);
            let pledged: f64 = m.pledged.iter().sum();
            let in_flight: f64 = m
                .in_flight
                .iter()
                .map(|f| f.grants.iter().sum::<f64>())
                .sum();
            assert!(
                (pledged - in_flight).abs() < 1e-6,
                "cycle {cycle}: pledged {pledged} != in-flight {in_flight}"
            );
        }
    }

    #[test]
    fn dynamic_selector_picks_toone_for_lock_spinning() {
        let b = budget(4);
        let mut m = PtbMechanism::new(4, PtbPolicy::Dynamic, 0.0, PtbConfig::default());
        let mut cores = obs_from(
            &[b.local * 0.2, b.local * 0.2, b.local * 0.2, b.local * 3.6],
            0,
        );
        cores[0].ctx = ExecCtx::lock_spin(LockId(0));
        cores[1].ctx = ExecCtx::lock_spin(LockId(0));
        let mut actions = vec![CoreAction::default(); 4];
        run_cycle(&mut m, &b, &cores, 0, &mut actions);
        assert_eq!(m.last_policy, PtbPolicy::ToOne);
        // Barrier spinning flips to ToAll.
        cores[0].ctx = ExecCtx::barrier_spin(BarrierId(0));
        cores[1].ctx = ExecCtx::barrier_spin(BarrierId(0));
        run_cycle(&mut m, &b, &cores, 1, &mut actions);
        assert_eq!(m.last_policy, PtbPolicy::ToAll);
    }

    #[test]
    fn relaxed_variant_delays_triggering() {
        let b = budget(2);
        let mut strict = PtbMechanism::new(2, PtbPolicy::ToAll, 0.0, PtbConfig::default());
        let mut relaxed = PtbMechanism::new(2, PtbPolicy::ToAll, 0.3, PtbConfig::default());
        // Core 1 is 15% over its local budget; chip over global.
        let tokens = [b.local * 1.1, b.local * 1.15];
        let cores = obs_from(&tokens, 0);
        let mut a_strict = vec![CoreAction::default(); 2];
        let mut a_relaxed = vec![CoreAction::default(); 2];
        for cycle in 0..4 {
            run_cycle(&mut strict, &b, &cores, cycle, &mut a_strict);
            run_cycle(&mut relaxed, &b, &cores, cycle, &mut a_relaxed);
        }
        assert!(
            a_strict[1].throttle.active(),
            "strict PTB clips within a few cycles"
        );
        assert!(
            !a_relaxed[1].throttle.active(),
            "relaxed PTB tolerates +15% (< +30%)"
        );
    }

    #[test]
    fn overhead_is_one_percent_of_budget_while_active() {
        let b = budget(16);
        let mut m = PtbMechanism::new(16, PtbPolicy::ToAll, 0.0, PtbConfig::default());
        // Idle (chip under budget): the balancer is clock-gated.
        assert_eq!(m.overhead_tokens(&b), 0.0);
        // One over-budget cycle activates it.
        let cores = obs_from(&[b.local * 1.2; 16], 0);
        let mut actions = vec![CoreAction::default(); 16];
        run_cycle(&mut m, &b, &cores, 0, &mut actions);
        assert!((m.overhead_tokens(&b) - 0.01 * b.global).abs() < 1e-9);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use crate::mechanisms::{ChipObs, CoreAction, CoreObs, Mechanism};
    use proptest::prelude::*;
    use ptb_isa::ExecCtx;
    use ptb_power::PowerParams;
    use ptb_uarch::CoreConfig;

    proptest! {
        /// Budget-mass conservation under arbitrary load patterns: at any
        /// time, Σ(effective budgets) ≤ Σ(local budgets) — pledges always
        /// cover in-flight grants, and grants never materialise out of
        /// thin air. Also: the mechanism never panics and never grants
        /// more than the wire code allows.
        #[test]
        fn balancer_conserves_budget_mass(
            loads in proptest::collection::vec(
                proptest::collection::vec(0.0f64..3.0, 8), 1..60),
            cluster in proptest::option::of(2usize..8),
        ) {
            let n = 8;
            let b = BudgetSpec::new(&PowerParams::default(), &CoreConfig::default(), n, 0.5);
            let cfg = PtbConfig { cluster_size: cluster, ..PtbConfig::default() };
            let mut m = PtbMechanism::new(n, PtbPolicy::ToAll, 0.0, cfg);
            let mut actions = vec![CoreAction::default(); n];
            for (cycle, frame) in loads.iter().enumerate() {
                let cores: Vec<CoreObs> = frame
                    .iter()
                    .map(|&f| CoreObs { tokens: b.local * f, ctx: ExecCtx::BUSY, done: false })
                    .collect();
                let chip: f64 = cores.iter().map(|c| c.tokens).sum();
                let obs = ChipObs {
                    cycle: cycle as u64,
                    chip_tokens: chip,
                    uncore_tokens: 0.0,
                    cores: &cores,
                };
                m.control(&obs, &b, &mut actions);
                let pledged: f64 = m.pledged.iter().sum();
                let in_flight: f64 =
                    m.in_flight.iter().map(|f| f.grants.iter().sum::<f64>()).sum();
                prop_assert!(
                    pledged >= in_flight - 1e-6,
                    "cycle {}: pledged {} < in-flight {}",
                    cycle, pledged, in_flight
                );
                for (i, &g) in m.arrived.iter().enumerate() {
                    prop_assert!(g >= -1e-9, "negative grant at core {i}");
                }
            }
        }
    }
}
