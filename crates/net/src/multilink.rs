//! Bonded multi-link clients: Wi-Fi-like primary + LTE-like fallback.
//!
//! Commodity mobile devices hold two radios; when the primary link
//! fades, blocks, or hands over, traffic should fail over to the
//! secondary instead of stalling. [`BondedLink`] pairs two
//! [`ThroughputTrace`]s with a deterministic hysteresis
//! [`FailoverPolicy`], and its per-slot [`BondedLink::sample`] reports
//! the active link and its bandwidth — always finite, always
//! non-negative — so the same policy can drive the simulator's per-user
//! bandwidth cap *and* the live server's per-link EMA estimators in
//! `cvr-serve`.
//!
//! The policy is a pure function of `(active, wifi, lte, streak)`;
//! given the same traces it produces the same switch sequence on every
//! run and thread count.

use serde::{Deserialize, Serialize};

use crate::trace::ThroughputTrace;

/// Which bonded radio is active.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LinkId {
    /// The Wi-Fi-like primary link.
    Wifi,
    /// The LTE-like fallback link.
    Lte,
}

impl LinkId {
    /// Stable wire/display tag: 0 = Wi-Fi, 1 = LTE.
    pub fn as_u8(self) -> u8 {
        match self {
            LinkId::Wifi => 0,
            LinkId::Lte => 1,
        }
    }

    /// Inverse of [`LinkId::as_u8`].
    pub fn from_u8(tag: u8) -> Option<LinkId> {
        match tag {
            0 => Some(LinkId::Wifi),
            1 => Some(LinkId::Lte),
            _ => None,
        }
    }

    /// Lower-case label for metrics and CSV columns.
    pub fn label(self) -> &'static str {
        match self {
            LinkId::Wifi => "wifi",
            LinkId::Lte => "lte",
        }
    }
}

/// Deterministic hysteresis failover: leave Wi-Fi the moment it drops
/// below `failover_mbps` while LTE is healthier, but only return once
/// Wi-Fi has held above `recover_mbps` for `recover_hold` consecutive
/// decisions — flap damping, exactly the policy a bonding daemon ships.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FailoverPolicy {
    /// Primary bandwidth below this (Mbps) triggers failover to LTE
    /// (when LTE is currently the better link).
    pub failover_mbps: f64,
    /// Primary must exceed this (Mbps) to begin recovery.
    pub recover_mbps: f64,
    /// Consecutive decisions the primary must stay above
    /// `recover_mbps` before switching back.
    pub recover_hold: u32,
}

impl Default for FailoverPolicy {
    fn default() -> Self {
        FailoverPolicy::DEFAULT
    }
}

impl FailoverPolicy {
    /// The default policy as a constant: fail over below 5 Mbps, recover
    /// after four decisions above 10 Mbps.
    pub const DEFAULT: Self = FailoverPolicy {
        failover_mbps: 5.0,
        recover_mbps: 10.0,
        recover_hold: 4,
    };

    /// One policy decision. `streak` counts how many consecutive
    /// decisions the inactive-primary has been above `recover_mbps`;
    /// returns the next `(active, streak)` pair. Pure and total: any
    /// non-finite input bandwidth is treated as `0.0`.
    pub fn next(
        &self,
        active: LinkId,
        wifi_mbps: f64,
        lte_mbps: f64,
        streak: u32,
    ) -> (LinkId, u32) {
        let wifi = sanitize(wifi_mbps);
        let lte = sanitize(lte_mbps);
        match active {
            LinkId::Wifi => {
                if wifi < self.failover_mbps && lte > wifi {
                    (LinkId::Lte, 0)
                } else {
                    (LinkId::Wifi, 0)
                }
            }
            LinkId::Lte => {
                if wifi > self.recover_mbps {
                    let streak = streak + 1;
                    if streak >= self.recover_hold {
                        (LinkId::Wifi, 0)
                    } else {
                        (LinkId::Lte, streak)
                    }
                } else {
                    (LinkId::Lte, 0)
                }
            }
        }
    }
}

fn sanitize(mbps: f64) -> f64 {
    if mbps.is_finite() && mbps > 0.0 {
        mbps
    } else {
        0.0
    }
}

/// One sampled bonding decision: both link rates plus the chosen link.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkSample {
    /// Wi-Fi bandwidth at the sample instant, Mbps (finite, ≥ 0).
    pub wifi_mbps: f64,
    /// LTE bandwidth at the sample instant, Mbps (finite, ≥ 0).
    pub lte_mbps: f64,
    /// Link carrying traffic after this decision.
    pub active: LinkId,
    /// Bandwidth of the active link, Mbps (finite, ≥ 0).
    pub active_mbps: f64,
    /// `true` iff this decision switched links.
    pub switched: bool,
}

/// Two bonded trace-backed links under a [`FailoverPolicy`].
///
/// Starts on Wi-Fi. Successive [`BondedLink::sample`] calls at
/// monotonically increasing times replay the deterministic failover
/// sequence; [`BondedLink::switches`] counts transitions.
#[derive(Debug, Clone)]
pub struct BondedLink {
    wifi: ThroughputTrace,
    lte: ThroughputTrace,
    policy: FailoverPolicy,
    active: LinkId,
    streak: u32,
    switches: u64,
}

impl BondedLink {
    /// Bonds a Wi-Fi-like and an LTE-like trace under `policy`.
    pub fn new(wifi: ThroughputTrace, lte: ThroughputTrace, policy: FailoverPolicy) -> Self {
        BondedLink {
            wifi,
            lte,
            policy,
            active: LinkId::Wifi,
            streak: 0,
            switches: 0,
        }
    }

    /// The currently active link.
    pub fn active(&self) -> LinkId {
        self.active
    }

    /// Total link switches so far.
    pub fn switches(&self) -> u64 {
        self.switches
    }

    /// The policy in force.
    pub fn policy(&self) -> FailoverPolicy {
        self.policy
    }

    /// Samples both traces at `t_s`, runs one policy decision, and
    /// returns the resulting [`LinkSample`]. The reported bandwidths are
    /// always finite and non-negative, whatever the traces contain.
    pub fn sample(&mut self, t_s: f64) -> LinkSample {
        let wifi_mbps = sanitize(self.wifi.at(t_s));
        let lte_mbps = sanitize(self.lte.at(t_s));
        let before = self.active;
        let (active, streak) = self.policy.next(before, wifi_mbps, lte_mbps, self.streak);
        self.active = active;
        self.streak = streak;
        let switched = active != before;
        if switched {
            self.switches += 1;
        }
        let active_mbps = match active {
            LinkId::Wifi => wifi_mbps,
            LinkId::Lte => lte_mbps,
        };
        LinkSample {
            wifi_mbps,
            lte_mbps,
            active,
            active_mbps,
            switched,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::ThroughputTrace;

    fn bonded(wifi: Vec<(f64, f64)>, lte: Vec<(f64, f64)>) -> BondedLink {
        BondedLink::new(
            ThroughputTrace::from_segments(wifi),
            ThroughputTrace::from_segments(lte),
            FailoverPolicy::default(),
        )
    }

    #[test]
    fn link_id_round_trips() {
        for id in [LinkId::Wifi, LinkId::Lte] {
            assert_eq!(LinkId::from_u8(id.as_u8()), Some(id));
        }
        assert_eq!(LinkId::from_u8(7), None);
    }

    #[test]
    fn fails_over_on_outage_and_recovers_with_hysteresis() {
        // Wi-Fi: 2 s healthy, 2 s dead, then healthy again. LTE steady.
        let mut link = bonded(
            vec![(2.0, 50.0), (2.0, 0.0), (6.0, 50.0)],
            vec![(10.0, 20.0)],
        );
        let dt = 0.5;
        let mut events = Vec::new();
        for i in 0..20 {
            let s = link.sample(i as f64 * dt);
            events.push((s.active, s.active_mbps, s.switched));
        }
        // Healthy start stays on Wi-Fi at 50.
        assert_eq!(events[0], (LinkId::Wifi, 50.0, false));
        // The outage at t=2.0 triggers failover to LTE at 20.
        assert_eq!(events[4], (LinkId::Lte, 20.0, true));
        // Recovery needs recover_hold=4 consecutive good decisions after
        // t=4.0 (samples at 4.0,4.5,5.0,5.5 build the streak; 5.5 flips).
        assert_eq!(events[8].0, LinkId::Lte);
        assert_eq!(events[11], (LinkId::Wifi, 50.0, true));
        assert_eq!(link.switches(), 2);
        // Bandwidth never went negative or NaN anywhere.
        assert!(events.iter().all(|e| e.1.is_finite() && e.1 >= 0.0));
    }

    #[test]
    fn no_failover_when_lte_is_worse() {
        // Wi-Fi weak (3 Mbps) but LTE weaker (1 Mbps): stay on Wi-Fi.
        let mut link = bonded(vec![(10.0, 3.0)], vec![(10.0, 1.0)]);
        for i in 0..10 {
            let s = link.sample(i as f64);
            assert_eq!(s.active, LinkId::Wifi);
        }
        assert_eq!(link.switches(), 0);
    }

    #[test]
    fn policy_sanitizes_nan_and_negative_inputs() {
        let p = FailoverPolicy::default();
        let (active, _) = p.next(LinkId::Wifi, f64::NAN, 20.0, 0);
        assert_eq!(active, LinkId::Lte, "NaN primary must fail over");
        let (active, _) = p.next(LinkId::Wifi, -5.0, 20.0, 0);
        assert_eq!(active, LinkId::Lte, "negative primary must fail over");
        // Both links garbage: stay put rather than flap.
        let (active, _) = p.next(LinkId::Wifi, f64::NAN, f64::NEG_INFINITY, 0);
        assert_eq!(active, LinkId::Wifi);
    }

    #[test]
    fn sample_reports_finite_nonnegative_bandwidth_always() {
        let mut link = bonded(vec![(1.0, 0.0), (1.0, 80.0)], vec![(2.0, 0.0)]);
        for i in 0..40 {
            let s = link.sample(i as f64 * 0.1);
            for v in [s.wifi_mbps, s.lte_mbps, s.active_mbps] {
                assert!(v.is_finite() && v >= 0.0, "bad bandwidth {v}");
            }
        }
    }
}
