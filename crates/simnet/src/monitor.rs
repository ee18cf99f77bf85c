//! Link utilization monitoring — the "hardware counters" of §IV.
//!
//! The paper's switch control plane "periodically polls hardware counters
//! from the data plane to obtain link utilization metrics", and GPU agents
//! read NVLink utilization via DCGM. [`LinkMonitor`] reproduces that
//! observation channel: it samples [`SimNet`]'s cumulative
//! byte counters on a polling cadence and maintains an exponentially
//! weighted moving average of per-link utilization over the polling window.
//!
//! The *online scheduler* consumes these estimates (not the simulator's
//! ground-truth instantaneous rates), so measurement lag and smoothing are
//! part of the reproduced system, exactly as on real hardware.

use crate::net::SimNet;
use hs_des::SimTime;
use hs_topology::LinkId;

/// Windowed, smoothed per-link utilization estimation.
///
/// A poll visits only the **live** links: those that carried a flow at
/// the previous poll or have had a flow join an idle direction since
/// ([`SimNet`] records the joins), and those whose EWMA is still
/// non-zero. Any other link's byte counter cannot have moved and its
/// estimate is `+0`, which a visit would leave bitwise as it is
/// (`(1 − α)·0 + α·0 = +0`), so skipping it changes nothing.
#[derive(Clone, Debug)]
pub struct LinkMonitor {
    last_poll: SimTime,
    /// Per-direction byte counters (index = link*2 + direction).
    last_bytes: Vec<f64>,
    /// EWMA of utilization in `[0, 1]` per link (busier direction).
    ewma: Vec<f64>,
    /// Smoothing factor for new samples, `(0, 1]`; 1.0 = no smoothing.
    alpha: f64,
    /// Links the next poll must visit besides the net's new joins: those
    /// carrying flows or with a non-zero EWMA at the last poll. Each
    /// appears once (`watched` marks the members).
    watch: Vec<LinkId>,
    watched: Vec<bool>,
    /// Links visited by all polls so far (exact work counter).
    links_visited: u64,
}

impl LinkMonitor {
    /// Create a monitor for `n_links` links with EWMA factor `alpha`.
    pub fn new(n_links: usize, alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        LinkMonitor {
            last_poll: SimTime::ZERO,
            last_bytes: vec![0.0; 2 * n_links],
            ewma: vec![0.0; n_links],
            alpha,
            watch: Vec::with_capacity(n_links),
            watched: vec![false; n_links],
            links_visited: 0,
        }
    }

    /// Poll the network's counters at time `now` and fold the window's
    /// average utilization into the EWMA (read it back with
    /// [`snapshot`](Self::snapshot); with `alpha = 1` that is the raw
    /// window sample). Only the live links are visited (see
    /// [`LinkMonitor`]); the result is that of visiting every link. The
    /// poll takes the net's record of joins, so a net feeds one monitor.
    ///
    /// Polling with a zero-length window leaves the estimate unchanged.
    pub fn poll(&mut self, net: &mut SimNet, now: SimTime) {
        let dt = now.saturating_since(self.last_poll).as_secs_f64();
        if dt <= 0.0 {
            return;
        }
        let (watch, watched) = (&mut self.watch, &mut self.watched);
        net.drain_joined_links(|l| {
            if !watched[l.idx()] {
                watched[l.idx()] = true;
                watch.push(l);
            }
        });
        let caps = net.capacities();
        for &l in &self.watch {
            let i = l.idx();
            let mut util = 0.0f64;
            for dir in [false, true] {
                let bytes = net.cumulative_bytes_dir(l, dir);
                let idx = i * 2 + dir as usize;
                let delta = (bytes - self.last_bytes[idx]).max(0.0);
                // An idle slot's sample is 0 (or NaN on a dead link), and
                // `util.max` of either leaves `util` unchanged.
                if delta > 0.0 {
                    util = util.max(((delta * 8.0 / dt) / caps[i]).clamp(0.0, 1.0));
                }
                self.last_bytes[idx] = bytes;
            }
            self.ewma[i] = (1.0 - self.alpha) * self.ewma[i] + self.alpha * util;
        }
        self.links_visited += self.watch.len() as u64;
        let ewma = &self.ewma;
        self.watch.retain(|&l| {
            let live = ewma[l.idx()].to_bits() != 0 || net.carries_flows(l);
            watched[l.idx()] = live;
            live
        });
        self.last_poll = now;
    }

    /// Links visited by all polls so far: the monitor's exact work
    /// counter (a full scan would visit every link on every poll).
    pub fn links_visited(&self) -> u64 {
        self.links_visited
    }

    /// Smoothed utilization estimate for one link.
    pub fn utilization(&self, l: LinkId) -> f64 {
        self.ewma[l.idx()]
    }

    /// All smoothed utilization estimates.
    pub fn snapshot(&self) -> &[f64] {
        &self.ewma
    }

    /// Estimated residual bandwidth per link given capacities, bits/s.
    pub fn residual(&self, capacities: &[f64]) -> Vec<f64> {
        self.ewma
            .iter()
            .zip(capacities)
            .map(|(u, c)| ((1.0 - u) * c).max(0.0))
            .collect()
    }

    /// Time of the last poll.
    pub fn last_poll(&self) -> SimTime {
        self.last_poll
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hs_des::SimSpan;
    use hs_topology::graph::{bandwidth, GpuSpec, GraphBuilder, LinkKind, ServerId};
    use std::sync::Arc;

    fn one_link() -> (hs_topology::Graph, LinkId) {
        let mut b = GraphBuilder::new();
        let g0 = b.add_gpu(ServerId(0), 0, GpuSpec::a100_40g());
        let s = b.add_access_switch(true, "s");
        let l = b.add_link(g0, s, LinkKind::Ethernet, bandwidth::ETH_100G, 1_000);
        (b.build(), l)
    }

    #[test]
    fn measures_busy_link() {
        let (g, l) = one_link();
        let mut net = SimNet::new(&g);
        let mut mon = LinkMonitor::new(g.link_count(), 1.0);
        // Saturate the link for 1 ms: 100 Gbps = 12.5 MB per ms.
        net.start_flow(SimTime::ZERO, Arc::from([(l, true)]), 12_500_000, 0);
        net.advance_to(SimTime::from_millis(1), &mut Vec::new());
        // Unsmoothed (alpha = 1): the estimate is the window's sample.
        mon.poll(&mut net, SimTime::from_millis(1));
        let u = mon.snapshot()[l.idx()];
        assert!((u - 1.0).abs() < 0.01, "sample {u}");
        assert_eq!(mon.utilization(l), u);
    }

    #[test]
    fn idle_link_reads_zero() {
        let (g, l) = one_link();
        let mut net = SimNet::new(&g);
        let mut mon = LinkMonitor::new(g.link_count(), 1.0);
        mon.poll(&mut net, SimTime::from_millis(1));
        assert_eq!(mon.utilization(l), 0.0);
    }

    #[test]
    fn ewma_smooths() {
        let (g, l) = one_link();
        let mut net = SimNet::new(&g);
        let mut mon = LinkMonitor::new(g.link_count(), 0.5);
        // Busy first window.
        net.start_flow(SimTime::ZERO, Arc::from([(l, true)]), 12_500_000, 0);
        net.advance_to(SimTime::from_millis(1), &mut Vec::new());
        mon.poll(&mut net, SimTime::from_millis(1));
        assert!((mon.utilization(l) - 0.5).abs() < 0.01);
        // Idle second window decays toward zero.
        net.advance_to(SimTime::from_millis(2), &mut Vec::new());
        mon.poll(&mut net, SimTime::from_millis(2));
        assert!((mon.utilization(l) - 0.25).abs() < 0.01);
    }

    #[test]
    fn zero_window_is_noop() {
        let (g, l) = one_link();
        let mut net = SimNet::new(&g);
        let mut mon = LinkMonitor::new(g.link_count(), 1.0);
        mon.poll(&mut net, SimTime::ZERO);
        assert_eq!(mon.utilization(l), 0.0);
        assert_eq!(mon.last_poll(), SimTime::ZERO);
    }

    #[test]
    fn residual_inverts_utilization() {
        let (g, l) = one_link();
        let mut net = SimNet::new(&g);
        let mut mon = LinkMonitor::new(g.link_count(), 1.0);
        net.start_flow(SimTime::ZERO, Arc::from([(l, true)]), 6_250_000, 0); // half a window
        net.advance_to(SimTime::from_millis(1), &mut Vec::new());
        mon.poll(&mut net, SimTime::from_millis(1));
        let res = mon.residual(net.capacities());
        assert!((res[l.idx()] - 0.5 * bandwidth::ETH_100G).abs() < 1e9);
    }

    impl LinkMonitor {
        /// `poll` as it was before live-link polling: every link, every
        /// poll. The oracle of the equivalence property below.
        fn poll_full_scan(&mut self, net: &SimNet, now: SimTime) {
            let dt = now.saturating_since(self.last_poll).as_secs_f64();
            let caps = net.capacities();
            if dt <= 0.0 {
                return;
            }
            for (i, (ewma, &cap)) in self.ewma.iter_mut().zip(caps).enumerate() {
                let mut util = 0.0f64;
                for dir in [false, true] {
                    let bytes = net.cumulative_bytes_dir(LinkId(i as u32), dir);
                    let idx = i * 2 + dir as usize;
                    let delta = (bytes - self.last_bytes[idx]).max(0.0);
                    if delta > 0.0 {
                        util = util.max(((delta * 8.0 / dt) / cap).clamp(0.0, 1.0));
                    }
                    self.last_bytes[idx] = bytes;
                }
                *ewma = (1.0 - self.alpha) * *ewma + self.alpha * util;
            }
            self.last_poll = now;
        }
    }

    #[test]
    fn polls_visit_only_live_links() {
        let (g, l) = one_link();
        let mut net = SimNet::new(&g);
        let mut mon = LinkMonitor::new(g.link_count(), 1.0);
        mon.poll(&mut net, SimTime::from_millis(1));
        assert_eq!(mon.links_visited(), 0, "an idle fabric costs nothing");
        // 1.5 ms of line rate from t = 1 ms.
        net.start_flow(
            SimTime::from_millis(1),
            Arc::from([(l, true)]),
            18_750_000,
            0,
        );
        let mut at = |ms: u64, mon: &mut LinkMonitor| {
            net.advance_to(SimTime::from_millis(ms), &mut Vec::new());
            mon.poll(&mut net, SimTime::from_millis(ms));
        };
        at(2, &mut mon);
        assert_eq!(mon.links_visited(), 1);
        // The flow ends inside the next window, which is visited for its
        // last bytes; with alpha 1 the following window reads zero.
        at(3, &mut mon);
        assert_eq!(mon.links_visited(), 2);
        assert!(mon.utilization(l) > 0.0);
        at(4, &mut mon);
        assert_eq!(mon.links_visited(), 3);
        assert_eq!(mon.utilization(l).to_bits(), 0);
        at(5, &mut mon);
        assert_eq!(mon.links_visited(), 3, "a quiet link drops out");
    }

    /// Six links between seven nodes; flows pick any subset and
    /// direction, so components overlap and split as flows come and go.
    fn six_links() -> (hs_topology::Graph, Vec<LinkId>) {
        let mut b = GraphBuilder::new();
        let nodes: Vec<_> = (0..7u32)
            .map(|i| b.add_gpu(ServerId(i), 0, GpuSpec::a100_40g()))
            .collect();
        let links = (0..6)
            .map(|i| {
                b.add_link(
                    nodes[i],
                    nodes[i + 1],
                    LinkKind::Ethernet,
                    bandwidth::ETH_100G,
                    1_000,
                )
            })
            .collect();
        (b.build(), links)
    }

    proptest::proptest! {
        /// Live-link polling is bitwise the full scan: after every poll,
        /// at arbitrary instants between flow starts, completions,
        /// cancels and link re-scales (a dead link and its recovery
        /// included), the EWMA snapshot and the byte counters equal the
        /// oracle's, for alpha 0.5 and 1.0.
        #[test]
        fn live_link_poll_matches_full_scan(
            alpha_q in 0u8..2,
            raw_ops in proptest::collection::vec(
                (0u8..5, 0u64..4_096, 0u64..4_096, 0u64..5_000_000),
                1..80,
            ),
        ) {
            let (g, links) = six_links();
            let alpha = [0.5, 1.0][alpha_q as usize];
            let mut net = SimNet::new(&g);
            let mut live = LinkMonitor::new(g.link_count(), alpha);
            let mut oracle = LinkMonitor::new(g.link_count(), alpha);
            let mut now = SimTime::ZERO;
            let mut issued = Vec::new();
            let mut done = Vec::new();
            for (kind, a, b, c) in raw_ops {
                match kind {
                    0 => {
                        let path: Vec<(LinkId, bool)> = links
                            .iter()
                            .enumerate()
                            .filter(|(i, _)| a & (1 << i) != 0)
                            .map(|(i, &l)| (l, b & (1 << i) != 0))
                            .collect();
                        issued.push(net.start_flow(now, path.into(), c, 0));
                    }
                    1 => {
                        now += SimSpan::from_micros(b % 3_000);
                        net.advance_to(now, &mut done);
                        done.clear();
                    }
                    2 if !issued.is_empty() => {
                        net.cancel_flow(now, issued[a as usize % issued.len()]);
                    }
                    3 => {
                        let factor = [0.0, 0.25, 0.5, 1.0][b as usize % 4];
                        net.set_link_scale(now, links[a as usize % links.len()], factor);
                    }
                    _ => {
                        live.poll(&mut net, now);
                        oracle.poll_full_scan(&net, now);
                        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        proptest::prop_assert_eq!(bits(live.snapshot()), bits(oracle.snapshot()));
                        proptest::prop_assert_eq!(bits(&live.last_bytes), bits(&oracle.last_bytes));
                        proptest::prop_assert_eq!(live.last_poll(), oracle.last_poll());
                    }
                }
            }
        }
    }
}
