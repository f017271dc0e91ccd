//! Deterministic fault injection: lossy links, down windows, degraded
//! links, and misbehaving routing servers.
//!
//! A [`FaultPlan`] rides on [`SwitchConfig`](crate::SwitchConfig) and is
//! strictly opt-in: the default [`FaultPlan::none`] adds no events, draws
//! no random numbers, and leaves every run byte-identical to a fabric
//! built without the fault layer. When a plan is present, all loss draws
//! come from a **dedicated** RNG seeded from [`FaultPlan::seed`], so the
//! service-time stream of the main fabric RNG is untouched and two runs
//! with the same seeds and the same plan are bit-identical.
//!
//! Faults are described against [`LinkSelector`]s and resolved at fabric
//! construction into per-[`LinkId`] state. A link is one direction of one
//! cable:
//!
//! * [`LinkId::NodeUp`] — node → its leaf switch,
//! * [`LinkId::NodeDown`] — leaf switch → node,
//! * [`LinkId::Trunk`] — switch → switch (fat-tree only).
//!
//! The fault layer models four link pathologies and two server
//! pathologies:
//!
//! * **loss** — each packet crossing the link is dropped independently
//!   with probability `loss`;
//! * **down windows** — every packet crossing during `[from, until)` is
//!   dropped (the window is checked as each packet enters the link; the
//!   fabric schedules no events at its edges);
//! * **extra latency** — a fixed addition to the link's propagation
//!   delay;
//! * **bandwidth derating** — the link serializes at
//!   `bandwidth_factor × nominal`;
//! * **server slowdown** — service times at a switch's routing stage are
//!   multiplied by a factor during a window;
//! * **server blackout** — the routing stage freezes during a window:
//!   service started inside it completes only after the window ends.
//!
//! Drops happen *at the wire*, after any credit held for the packet has
//! been released by the sender side, so loss never leaks switch credits.

use crate::config::ConfigError;
use crate::packet::NodeId;
use crate::time::{SimDuration, SimTime};

/// One direction of one physical cable, the unit faults attach to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkId {
    /// Node → leaf-switch direction of a node's cable.
    NodeUp(NodeId),
    /// Leaf-switch → node direction of a node's cable.
    NodeDown(NodeId),
    /// A switch-to-switch wire, identified by its endpoints' switch
    /// indices (leaves first, then spines — see the fabric docs).
    Trunk {
        /// Transmitting switch index.
        from: u32,
        /// Receiving switch index.
        to: u32,
    },
}

/// Which links a [`LinkFault`] applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkSelector {
    /// Every link in the fabric (both node directions and all trunks).
    All,
    /// Both directions of one node's cable.
    Node(NodeId),
    /// Exactly one link.
    Link(LinkId),
}

impl LinkSelector {
    /// True if this selector covers `link`.
    pub fn matches(&self, link: LinkId) -> bool {
        match *self {
            LinkSelector::All => true,
            LinkSelector::Node(n) => {
                matches!(link, LinkId::NodeUp(m) | LinkId::NodeDown(m) if m == n)
            }
            LinkSelector::Link(l) => l == link,
        }
    }
}

/// A half-open interval of simulated time, `[from, until)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultWindow {
    /// First instant the fault is active.
    pub from: SimTime,
    /// First instant the fault is no longer active.
    pub until: SimTime,
}

impl FaultWindow {
    /// Builds a window; `until` must be after `from` (checked by
    /// [`FaultPlan::validate`]).
    pub fn new(from: SimTime, until: SimTime) -> Self {
        FaultWindow { from, until }
    }

    /// True while the fault is active.
    pub fn contains(&self, t: SimTime) -> bool {
        self.from <= t && t < self.until
    }
}

/// Degradation of a set of links.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkFault {
    /// Which links this fault covers.
    pub links: LinkSelector,
    /// Independent per-packet drop probability in `[0, 1]`.
    pub loss: f64,
    /// Fixed addition to the link's propagation latency.
    pub extra_latency: SimDuration,
    /// Multiplier on the link's serialization bandwidth, in `(0, 1]`
    /// (1.0 = nominal).
    pub bandwidth_factor: f64,
    /// Windows during which the link drops everything.
    pub down: Vec<FaultWindow>,
}

impl LinkFault {
    /// A no-op fault on `links`; compose with the builder methods.
    pub fn on(links: LinkSelector) -> Self {
        LinkFault {
            links,
            loss: 0.0,
            extra_latency: SimDuration::ZERO,
            bandwidth_factor: 1.0,
            down: Vec::new(),
        }
    }

    /// Sets the per-packet loss probability.
    pub fn with_loss(mut self, loss: f64) -> Self {
        self.loss = loss;
        self
    }

    /// Sets the added propagation latency.
    pub fn with_extra_latency(mut self, extra: SimDuration) -> Self {
        self.extra_latency = extra;
        self
    }

    /// Sets the bandwidth derating factor.
    pub fn with_bandwidth_factor(mut self, factor: f64) -> Self {
        self.bandwidth_factor = factor;
        self
    }

    /// Adds a link-down window.
    pub fn with_down(mut self, window: FaultWindow) -> Self {
        self.down.push(window);
        self
    }
}

/// Degradation of one switch's routing stage.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerFault {
    /// The afflicted switch index.
    pub sw: u32,
    /// Service times drawn while a window is active are multiplied by its
    /// factor (factors stack if windows overlap).
    pub slowdown: Vec<(FaultWindow, f64)>,
    /// Windows during which the routing stage is frozen: service started
    /// inside a blackout completes only after it ends.
    pub blackout: Vec<FaultWindow>,
}

impl ServerFault {
    /// A no-op fault on switch `sw`; compose with the builder methods.
    pub fn on(sw: u32) -> Self {
        ServerFault {
            sw,
            slowdown: Vec::new(),
            blackout: Vec::new(),
        }
    }

    /// Adds a slowdown window multiplying service times by `factor`.
    pub fn with_slowdown(mut self, window: FaultWindow, factor: f64) -> Self {
        self.slowdown.push((window, factor));
        self
    }

    /// Adds a blackout window.
    pub fn with_blackout(mut self, window: FaultWindow) -> Self {
        self.blackout.push(window);
        self
    }
}

/// The complete fault schedule of a run. Default: no faults.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Link-level faults; multiple faults covering one link compose
    /// (losses combine independently, latencies add, factors multiply,
    /// down windows union).
    pub link_faults: Vec<LinkFault>,
    /// Per-switch routing-server faults.
    pub server_faults: Vec<ServerFault>,
    /// Seed of the dedicated fault RNG (loss draws only).
    pub seed: u64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

impl FaultPlan {
    /// The empty plan: injects nothing, perturbs nothing.
    pub fn none() -> Self {
        FaultPlan {
            link_faults: Vec::new(),
            server_faults: Vec::new(),
            seed: 0xFA_17,
        }
    }

    /// True when the plan carries no faults at all (the fabric then skips
    /// the fault layer entirely).
    pub fn is_none(&self) -> bool {
        self.link_faults.is_empty() && self.server_faults.is_empty()
    }

    /// Uniform packet loss with probability `loss` on every link.
    pub fn uniform_loss(loss: f64) -> Self {
        FaultPlan::none().with_link_fault(LinkFault::on(LinkSelector::All).with_loss(loss))
    }

    /// Adds a link fault (builder style).
    pub fn with_link_fault(mut self, fault: LinkFault) -> Self {
        self.link_faults.push(fault);
        self
    }

    /// Adds a server fault (builder style).
    pub fn with_server_fault(mut self, fault: ServerFault) -> Self {
        self.server_faults.push(fault);
        self
    }

    /// Replaces the fault-RNG seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Checks the plan against a fabric of `nodes` nodes and
    /// `switch_count` switches.
    pub fn validate(&self, nodes: u32, switch_count: u32) -> Result<(), ConfigError> {
        for lf in &self.link_faults {
            if !(0.0..=1.0).contains(&lf.loss) {
                return Err(ConfigError::InvalidLossProbability { loss: lf.loss });
            }
            if !(lf.bandwidth_factor > 0.0 && lf.bandwidth_factor <= 1.0) {
                return Err(ConfigError::InvalidBandwidthFactor {
                    factor: lf.bandwidth_factor,
                });
            }
            for w in &lf.down {
                check_window(w)?;
            }
            match lf.links {
                LinkSelector::All => {}
                LinkSelector::Node(n)
                | LinkSelector::Link(LinkId::NodeUp(n))
                | LinkSelector::Link(LinkId::NodeDown(n)) => {
                    if n.0 >= nodes {
                        return Err(ConfigError::FaultNodeOutOfRange { node: n.0, nodes });
                    }
                }
                LinkSelector::Link(LinkId::Trunk { from, to }) => {
                    let bad = from.max(to);
                    if bad >= switch_count {
                        return Err(ConfigError::FaultSwitchOutOfRange {
                            sw: bad,
                            switches: switch_count,
                        });
                    }
                }
            }
        }
        for sf in &self.server_faults {
            if sf.sw >= switch_count {
                return Err(ConfigError::FaultSwitchOutOfRange {
                    sw: sf.sw,
                    switches: switch_count,
                });
            }
            for (w, factor) in &sf.slowdown {
                check_window(w)?;
                if !(factor.is_finite() && *factor > 0.0) {
                    return Err(ConfigError::InvalidSlowdownFactor { factor: *factor });
                }
            }
            for w in &sf.blackout {
                check_window(w)?;
            }
        }
        Ok(())
    }
}

fn check_window(w: &FaultWindow) -> Result<(), ConfigError> {
    if w.until <= w.from {
        return Err(ConfigError::EmptyFaultWindow {
            from: w.from,
            until: w.until,
        });
    }
    Ok(())
}

/// Resolved fault state of one concrete link (built by the fabric).
#[derive(Debug, Clone, Default)]
pub(crate) struct LinkState {
    pub(crate) loss: f64,
    pub(crate) extra_latency: SimDuration,
    pub(crate) bandwidth_factor: f64,
    pub(crate) down: Vec<FaultWindow>,
    /// Packets dropped on this link so far.
    pub(crate) drops: u64,
}

impl LinkState {
    pub(crate) fn nominal() -> Self {
        LinkState {
            loss: 0.0,
            extra_latency: SimDuration::ZERO,
            bandwidth_factor: 1.0,
            down: Vec::new(),
            drops: 0,
        }
    }

    /// Folds `fault` into this link's state.
    pub(crate) fn apply(&mut self, fault: &LinkFault) {
        // Independent loss processes compose: survive all to survive.
        self.loss = 1.0 - (1.0 - self.loss) * (1.0 - fault.loss);
        self.extra_latency += fault.extra_latency;
        self.bandwidth_factor *= fault.bandwidth_factor;
        self.down.extend_from_slice(&fault.down);
    }

    pub(crate) fn down_at(&self, t: SimTime) -> bool {
        self.down.iter().any(|w| w.contains(t))
    }

    /// True when this link needs no per-packet attention (it may still
    /// carry derating/latency, checked separately).
    pub(crate) fn never_drops(&self) -> bool {
        self.loss == 0.0 && self.down.is_empty()
    }
}

/// Resolved fault state of one switch's routing stage.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ServerFaultState {
    pub(crate) slowdown: Vec<(FaultWindow, f64)>,
    pub(crate) blackout: Vec<FaultWindow>,
}

impl ServerFaultState {
    pub(crate) fn from_fault(f: &ServerFault) -> Self {
        ServerFaultState {
            slowdown: f.slowdown.clone(),
            blackout: f.blackout.clone(),
        }
    }

    /// Adjusts a freshly drawn service duration for faults active at
    /// `now` (the instant service starts).
    pub(crate) fn adjust(&self, now: SimTime, service: SimDuration) -> SimDuration {
        let mut out = service;
        for (w, factor) in &self.slowdown {
            if w.contains(now) {
                out = out.mul_f64(*factor);
            }
        }
        for w in &self.blackout {
            if w.contains(now) {
                // Frozen until the window ends, then the work happens.
                out += w.until.saturating_since(now);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_none() {
        assert!(FaultPlan::none().is_none());
        assert!(FaultPlan::default().is_none());
        assert!(!FaultPlan::uniform_loss(0.01).is_none());
    }

    #[test]
    fn selectors_match_expected_links() {
        let up = LinkId::NodeUp(NodeId(3));
        let down = LinkId::NodeDown(NodeId(3));
        let trunk = LinkId::Trunk { from: 0, to: 2 };
        assert!(LinkSelector::All.matches(up));
        assert!(LinkSelector::All.matches(trunk));
        assert!(LinkSelector::Node(NodeId(3)).matches(up));
        assert!(LinkSelector::Node(NodeId(3)).matches(down));
        assert!(!LinkSelector::Node(NodeId(2)).matches(up));
        assert!(!LinkSelector::Node(NodeId(3)).matches(trunk));
        assert!(LinkSelector::Link(up).matches(up));
        assert!(!LinkSelector::Link(up).matches(down));
    }

    #[test]
    fn windows_are_half_open() {
        let w = FaultWindow::new(SimTime::from_nanos(10), SimTime::from_nanos(20));
        assert!(!w.contains(SimTime::from_nanos(9)));
        assert!(w.contains(SimTime::from_nanos(10)));
        assert!(w.contains(SimTime::from_nanos(19)));
        assert!(!w.contains(SimTime::from_nanos(20)));
    }

    #[test]
    fn link_state_composes_faults() {
        let mut s = LinkState::nominal();
        s.apply(&LinkFault::on(LinkSelector::All).with_loss(0.5));
        s.apply(
            &LinkFault::on(LinkSelector::All)
                .with_loss(0.5)
                .with_bandwidth_factor(0.25)
                .with_extra_latency(SimDuration::from_nanos(100)),
        );
        assert!((s.loss - 0.75).abs() < 1e-12, "independent losses compose");
        assert_eq!(s.extra_latency, SimDuration::from_nanos(100));
        assert!((s.bandwidth_factor - 0.25).abs() < 1e-12);
    }

    #[test]
    fn validation_rejects_bad_plans() {
        let nodes = 4;
        let switches = 1;
        let bad_loss = FaultPlan::uniform_loss(1.5);
        assert!(bad_loss.validate(nodes, switches).is_err());

        let bad_factor = FaultPlan::none()
            .with_link_fault(LinkFault::on(LinkSelector::All).with_bandwidth_factor(0.0));
        assert!(bad_factor.validate(nodes, switches).is_err());

        let bad_node = FaultPlan::none()
            .with_link_fault(LinkFault::on(LinkSelector::Node(NodeId(9))).with_loss(0.1));
        assert!(bad_node.validate(nodes, switches).is_err());

        let bad_window =
            FaultPlan::none().with_link_fault(LinkFault::on(LinkSelector::All).with_down(
                FaultWindow::new(SimTime::from_nanos(5), SimTime::from_nanos(5)),
            ));
        assert!(bad_window.validate(nodes, switches).is_err());

        let bad_switch = FaultPlan::none().with_server_fault(
            ServerFault::on(3)
                .with_blackout(FaultWindow::new(SimTime::ZERO, SimTime::from_nanos(1))),
        );
        assert!(bad_switch.validate(nodes, switches).is_err());

        assert!(FaultPlan::uniform_loss(0.01)
            .validate(nodes, switches)
            .is_ok());
    }

    #[test]
    fn server_fault_adjusts_service() {
        let f = ServerFaultState::from_fault(
            &ServerFault::on(0)
                .with_slowdown(
                    FaultWindow::new(SimTime::from_nanos(100), SimTime::from_nanos(200)),
                    3.0,
                )
                .with_blackout(FaultWindow::new(
                    SimTime::from_nanos(500),
                    SimTime::from_nanos(700),
                )),
        );
        let svc = SimDuration::from_nanos(40);
        // Outside every window: unchanged.
        assert_eq!(f.adjust(SimTime::from_nanos(50), svc), svc);
        // Inside the slowdown: tripled.
        assert_eq!(
            f.adjust(SimTime::from_nanos(150), svc),
            SimDuration::from_nanos(120)
        );
        // Inside the blackout starting at 600: frozen 100 ns, then 40 ns.
        assert_eq!(
            f.adjust(SimTime::from_nanos(600), svc),
            SimDuration::from_nanos(140)
        );
    }
}
