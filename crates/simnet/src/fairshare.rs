//! Weighted max-min fair rate allocation (progressive filling).
//!
//! Given a set of flows, each crossing a set of links with fixed
//! capacities, the unique max-min fair allocation is computed by the
//! classic water-filling algorithm: repeatedly find the most-contended
//! link, give every unfrozen flow through it an equal (weight-proportional)
//! share of the link's remaining capacity, freeze those flows, and deduct
//! their rates from every link they cross.
//!
//! The allocation is *unique*, so the result is independent of iteration
//! order; ties in bottleneck selection are broken by link index purely for
//! determinism of intermediate state.
//!
//! Two entry points compute the same allocation:
//!
//! * [`compute_rates`] — the from-scratch reference: allocates its own
//!   working state per call and scans every link. Retained as the
//!   equivalence oracle for the incremental engine (`tests/equivalence.rs`).
//! * [`SolverWorkspace::solve`] — the hot-path kernel: borrows persistent
//!   buffers (zero allocation at steady state) and visits only the links
//!   the given flows actually cross, which makes it usable both for full
//!   solves and for *restricted subsets* (a connected component of the
//!   flow/link incidence graph). Bit-identical to [`compute_rates`]: same
//!   per-link accumulation order, same bottleneck tie-break, same clamps.

/// A flow description for rate computation: the links it crosses (as dense
/// indices) and its weight (relative share; 1.0 for ordinary flows).
#[derive(Clone, Debug)]
pub struct FlowDemand<'a> {
    /// Dense link indices this flow traverses (deduplicated by caller if
    /// the path revisits a link; paths from `hs-topology` are loopless).
    pub links: &'a [usize],
    /// Relative weight; must be > 0.
    pub weight: f64,
}

/// Compute weighted max-min fair rates (bits/s) for `flows` over links with
/// the given `capacities` (bits/s).
///
/// Returns one rate per flow, in input order. Flows with empty paths get
/// `f64::INFINITY` (they are not constrained by the network — the caller
/// treats them as instantaneous local copies).
pub fn compute_rates(capacities: &[f64], flows: &[FlowDemand<'_>]) -> Vec<f64> {
    let n_links = capacities.len();
    let n_flows = flows.len();
    let mut rates = vec![0.0f64; n_flows];
    if n_flows == 0 {
        return rates;
    }

    // Per-link: remaining capacity and total unfrozen weight.
    let mut rem_cap = capacities.to_vec();
    let mut link_weight = vec![0.0f64; n_links];
    // Which flows cross each link (indices into `flows`).
    let mut link_flows: Vec<Vec<u32>> = vec![Vec::new(); n_links];
    let mut frozen = vec![false; n_flows];
    let mut n_unfrozen = 0usize;

    for (fi, f) in flows.iter().enumerate() {
        debug_assert!(f.weight > 0.0, "flow weight must be positive");
        if f.links.is_empty() {
            rates[fi] = f64::INFINITY;
            frozen[fi] = true;
            continue;
        }
        n_unfrozen += 1;
        for &l in f.links {
            link_weight[l] += f.weight;
            link_flows[l].push(fi as u32);
        }
    }

    while n_unfrozen > 0 {
        // Find the bottleneck link: minimum per-weight fair share among
        // links that still carry unfrozen flows.
        let mut best_link = usize::MAX;
        let mut best_share = f64::INFINITY;
        for l in 0..n_links {
            if link_weight[l] > 0.0 {
                let share = (rem_cap[l].max(0.0)) / link_weight[l];
                if share < best_share {
                    best_share = share;
                    best_link = l;
                }
            }
        }
        if best_link == usize::MAX {
            // Shouldn't happen: unfrozen flows always have links with
            // positive weight. Guard against float pathology anyway.
            break;
        }
        // Freeze every unfrozen flow crossing the bottleneck at
        // weight * share, and deduct from all links it crosses.
        // Drain this link's flow list; frozen entries elsewhere are skipped
        // lazily via the `frozen` bitmap.
        let flows_here = std::mem::take(&mut link_flows[best_link]);
        for fi in flows_here {
            let fi = fi as usize;
            if frozen[fi] {
                continue;
            }
            let f = &flows[fi];
            let r = f.weight * best_share;
            rates[fi] = r;
            frozen[fi] = true;
            n_unfrozen -= 1;
            for &l in f.links {
                rem_cap[l] -= r;
                link_weight[l] -= f.weight;
                if link_weight[l] < 1e-12 {
                    link_weight[l] = 0.0;
                }
            }
        }
        link_weight[best_link] = 0.0;
    }
    rates
}

/// One flow's slice of the flat slot arena passed to
/// [`SolverWorkspace::solve`], plus its fair-share weight.
///
/// The arena layout decouples the solver from how the caller stores paths:
/// the caller appends each flow's (deduplicated) link indices to one flat
/// `Vec<usize>` and records the span here, so rebuilding the demand set for
/// a solve is a buffer refill, never a per-flow allocation.
#[derive(Clone, Copy, Debug)]
pub struct FlowSpan {
    /// Offset of the first link index in the flat arena.
    pub start: u32,
    /// Number of link indices (0 for an empty, unconstrained path).
    pub len: u32,
    /// Relative weight; must be > 0.
    pub weight: f64,
}

/// Persistent working state for the water-filling solver.
///
/// Per-link arrays are sized to the largest capacity vector seen and
/// re-initialized *lazily* (a generation stamp per link), so a solve touches
/// only the links its flows cross — `O(Σ path_len + rounds × active_links)`
/// regardless of topology size — and performs no allocation once warm.
#[derive(Default)]
pub struct SolverWorkspace {
    /// Remaining capacity per link (valid where `stamp == generation`).
    rem_cap: Vec<f64>,
    /// Total unfrozen weight per link (valid where `stamp == generation`).
    link_weight: Vec<f64>,
    /// Flow indices (into the span list) crossing each link.
    link_flows: Vec<Vec<u32>>,
    /// Lazy-init generation stamp per link.
    stamp: Vec<u64>,
    generation: u64,
    /// Links with at least one flow this solve, ascending (the bottleneck
    /// scan order — ascending matches `compute_rates`' tie-break).
    active: Vec<usize>,
    frozen: Vec<bool>,
    rates: Vec<f64>,
}

impl SolverWorkspace {
    /// Empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        SolverWorkspace::default()
    }

    /// Weighted max-min fair rates for the flows described by `spans` over
    /// `flat` (see [`FlowSpan`]), with link `capacities` in bits/s.
    ///
    /// Returns one rate per span, in span order; empty spans get
    /// `f64::INFINITY`. The result is bit-identical to [`compute_rates`]
    /// over the same flows — callers may pass *any subset* of the network's
    /// flows, and as long as that subset is closed under link sharing (a
    /// union of connected components of the flow/link graph), the rates
    /// equal those of a global solve restricted to the subset.
    pub fn solve(&mut self, capacities: &[f64], flat: &[usize], spans: &[FlowSpan]) -> &[f64] {
        let n_links = capacities.len();
        let n_flows = spans.len();
        if self.stamp.len() < n_links {
            self.rem_cap.resize(n_links, 0.0);
            self.link_weight.resize(n_links, 0.0);
            self.link_flows.resize_with(n_links, Vec::new);
            self.stamp.resize(n_links, 0);
        }
        self.frozen.clear();
        self.frozen.resize(n_flows, false);
        self.rates.clear();
        self.rates.resize(n_flows, 0.0);
        self.active.clear();
        self.generation += 1;
        let generation = self.generation;

        let mut n_unfrozen = 0usize;
        for (fi, s) in spans.iter().enumerate() {
            debug_assert!(s.weight > 0.0, "flow weight must be positive");
            let links = &flat[s.start as usize..(s.start + s.len) as usize];
            if links.is_empty() {
                self.rates[fi] = f64::INFINITY;
                self.frozen[fi] = true;
                continue;
            }
            n_unfrozen += 1;
            for &l in links {
                if self.stamp[l] != generation {
                    self.stamp[l] = generation;
                    self.rem_cap[l] = capacities[l];
                    self.link_weight[l] = 0.0;
                    self.link_flows[l].clear();
                    self.active.push(l);
                }
                self.link_weight[l] += s.weight;
                self.link_flows[l].push(fi as u32);
            }
        }
        // Bottleneck ties break by ascending link index, exactly as the
        // reference solver's 0..n_links scan does.
        self.active.sort_unstable();

        while n_unfrozen > 0 {
            let mut best_link = usize::MAX;
            let mut best_share = f64::INFINITY;
            for &l in &self.active {
                if self.link_weight[l] > 0.0 {
                    let share = (self.rem_cap[l].max(0.0)) / self.link_weight[l];
                    if share < best_share {
                        best_share = share;
                        best_link = l;
                    }
                }
            }
            if best_link == usize::MAX {
                // Shouldn't happen: unfrozen flows always have links with
                // positive weight. Guard against float pathology anyway.
                break;
            }
            // Freeze every unfrozen flow crossing the bottleneck. The flow
            // list is iterated in place (no `mem::take`: the buffer must
            // survive for reuse); stale frozen entries are skipped lazily.
            for i in 0..self.link_flows[best_link].len() {
                let fi = self.link_flows[best_link][i] as usize;
                if self.frozen[fi] {
                    continue;
                }
                let s = &spans[fi];
                let r = s.weight * best_share;
                self.rates[fi] = r;
                self.frozen[fi] = true;
                n_unfrozen -= 1;
                for &l in &flat[s.start as usize..(s.start + s.len) as usize] {
                    self.rem_cap[l] -= r;
                    self.link_weight[l] -= s.weight;
                    if self.link_weight[l] < 1e-12 {
                        self.link_weight[l] = 0.0;
                    }
                }
            }
            self.link_weight[best_link] = 0.0;
        }
        &self.rates[..n_flows]
    }
}

/// Aggregate-tier kernel: the single-bottleneck fast path (DESIGN.md §12).
///
/// A component is *uncongested beyond one bottleneck* when a single slot
/// constrains every flow: progressive filling then freezes the whole
/// component in its first round, and each flow's rate is simply
/// `weight × share` of that slot. [`OneRoundSolver::try_solve`] detects
/// the condition and produces those rates directly — no remaining-capacity
/// deductions, no frozen bitmap, no multi-round loop — or returns `None`
/// to hand off to the exact [`SolverWorkspace::solve`] when any second
/// link would saturate.
///
/// Bitwise contract: when `try_solve` returns `Some`, the rates are
/// bit-identical to [`SolverWorkspace::solve`] (and therefore to
/// [`compute_rates`]) on the same input. The kernel performs the same
/// per-slot weight accumulation in the same (span, path) order, scans
/// candidate bottlenecks in ascending slot order with the same strict
/// `<` tie-break, and computes each rate with the identical single
/// multiplication `weight * share`.
#[derive(Default)]
pub struct OneRoundSolver {
    /// Total weight per slot (valid where `stamp == generation`).
    weight: Vec<f64>,
    /// Flow count per slot (valid where `stamp == generation`).
    count: Vec<u32>,
    /// Lazy-init generation stamp per slot.
    stamp: Vec<u64>,
    generation: u64,
    /// Slots carrying at least one flow, ascending after the sort.
    active: Vec<usize>,
    rates: Vec<f64>,
}

impl OneRoundSolver {
    /// Empty solver; buffers grow on first use.
    pub fn new() -> Self {
        OneRoundSolver::default()
    }

    /// Single-bottleneck rates for the flows described by `spans` over
    /// `flat` (see [`FlowSpan`]), or `None` when more than one round of
    /// progressive filling would be needed (some second link saturates).
    pub fn try_solve(
        &mut self,
        capacities: &[f64],
        flat: &[usize],
        spans: &[FlowSpan],
    ) -> Option<&[f64]> {
        let n_links = capacities.len();
        let n_flows = spans.len();
        if self.stamp.len() < n_links {
            self.weight.resize(n_links, 0.0);
            self.count.resize(n_links, 0);
            self.stamp.resize(n_links, 0);
        }
        self.active.clear();
        self.generation += 1;
        let generation = self.generation;

        let mut n_constrained = 0usize;
        for s in spans {
            debug_assert!(s.weight > 0.0, "flow weight must be positive");
            let links = &flat[s.start as usize..(s.start + s.len) as usize];
            if links.is_empty() {
                continue;
            }
            n_constrained += 1;
            for &l in links {
                if self.stamp[l] != generation {
                    self.stamp[l] = generation;
                    self.weight[l] = 0.0;
                    self.count[l] = 0;
                    self.active.push(l);
                }
                self.weight[l] += s.weight;
                self.count[l] += 1;
            }
        }
        if n_constrained == 0 {
            // Only unconstrained flows: trivially one round.
            self.rates.clear();
            self.rates.resize(n_flows, f64::INFINITY);
            return Some(&self.rates[..n_flows]);
        }
        // Identical bottleneck selection to the exact solver's round one:
        // ascending slot order, strict `<` keeps the first minimal slot.
        self.active.sort_unstable();
        let mut best_link = usize::MAX;
        let mut best_share = f64::INFINITY;
        for &l in &self.active {
            if self.weight[l] > 0.0 {
                let share = (capacities[l].max(0.0)) / self.weight[l];
                if share < best_share {
                    best_share = share;
                    best_link = l;
                }
            }
        }
        if best_link == usize::MAX || (self.count[best_link] as usize) != n_constrained {
            // Some flow misses the bottleneck: a second link saturates in
            // a later round — hand off to the exact solver.
            return None;
        }
        self.rates.clear();
        for s in spans {
            if s.len == 0 {
                self.rates.push(f64::INFINITY);
            } else {
                self.rates.push(s.weight * best_share);
            }
        }
        Some(&self.rates[..n_flows])
    }
}

/// The one-flow closed form of [`OneRoundSolver::try_solve`]: a component
/// holding a single flow of `weight` over the slots `links` runs at
/// `weight × min(capacity.max(0) / weight)`, its tightest hop's share.
///
/// Bitwise contract: equal to `try_solve` on the one span. One flow's
/// per-slot weight sum is `0.0 + weight == weight`, the minimum share is
/// the same value in any scan order, and the rate is the same single
/// multiplication. Equal shares keep the lowest slot, as the ascending
/// scan does, so even the sign of a zero share agrees: `max(0.0)` may
/// leave a `-0.0` capacity negative (it does in unoptimized builds).
/// `None` exactly where `try_solve` hands off: no hop has a finite share.
pub fn single_flow_rate(
    capacities: &[f64],
    links: impl IntoIterator<Item = usize>,
    weight: f64,
) -> Option<f64> {
    let (mut best_share, mut best_link) = (f64::INFINITY, usize::MAX);
    for l in links {
        let share = capacities[l].max(0.0) / weight;
        if share < best_share || (share <= best_share && l < best_link) {
            (best_share, best_link) = (share, l);
        }
    }
    (best_share < f64::INFINITY).then_some(weight * best_share)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demands<'a>(paths: &'a [Vec<usize>]) -> Vec<FlowDemand<'a>> {
        paths
            .iter()
            .map(|p| FlowDemand {
                links: p,
                weight: 1.0,
            })
            .collect()
    }

    #[test]
    fn single_flow_gets_full_link() {
        let paths = vec![vec![0]];
        let r = compute_rates(&[100.0], &demands(&paths));
        assert_eq!(r, vec![100.0]);
    }

    #[test]
    fn equal_flows_split_evenly() {
        let paths = vec![vec![0], vec![0], vec![0], vec![0]];
        let r = compute_rates(&[100.0], &demands(&paths));
        for &x in &r {
            assert!((x - 25.0).abs() < 1e-9);
        }
    }

    #[test]
    fn classic_parking_lot() {
        // Links: 0 and 1, both capacity 1. Flow A crosses both, B crosses
        // 0 only, C crosses 1 only. Max-min fair: A=0.5, B=0.5, C=0.5.
        let paths = vec![vec![0, 1], vec![0], vec![1]];
        let r = compute_rates(&[1.0, 1.0], &demands(&paths));
        assert!((r[0] - 0.5).abs() < 1e-9);
        assert!((r[1] - 0.5).abs() < 1e-9);
        assert!((r[2] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn unequal_capacities_release_bandwidth() {
        // Link 0 cap 1 shared by A,B; link 1 cap 10 carries B,C. B is
        // bottlenecked at 0.5 on link 0, so C gets 9.5 on link 1.
        let paths = vec![vec![0], vec![0, 1], vec![1]];
        let r = compute_rates(&[1.0, 10.0], &demands(&paths));
        assert!((r[0] - 0.5).abs() < 1e-9);
        assert!((r[1] - 0.5).abs() < 1e-9);
        assert!((r[2] - 9.5).abs() < 1e-9);
    }

    #[test]
    fn weights_bias_shares() {
        let paths = [vec![0], vec![0]];
        let flows = vec![
            FlowDemand {
                links: &paths[0],
                weight: 3.0,
            },
            FlowDemand {
                links: &paths[1],
                weight: 1.0,
            },
        ];
        let r = compute_rates(&[100.0], &flows);
        assert!((r[0] - 75.0).abs() < 1e-9);
        assert!((r[1] - 25.0).abs() < 1e-9);
    }

    #[test]
    fn empty_path_is_unconstrained() {
        let paths = vec![vec![], vec![0]];
        let r = compute_rates(&[100.0], &demands(&paths));
        assert!(r[0].is_infinite());
        assert_eq!(r[1], 100.0);
    }

    #[test]
    fn no_flows() {
        let r = compute_rates(&[100.0], &[]);
        assert!(r.is_empty());
    }

    /// Pack paths into the flat-arena shape the workspace consumes.
    fn pack(paths: &[Vec<usize>], weights: &[f64]) -> (Vec<usize>, Vec<FlowSpan>) {
        let mut flat = Vec::new();
        let mut spans = Vec::new();
        for (p, &w) in paths.iter().zip(weights) {
            spans.push(FlowSpan {
                start: flat.len() as u32,
                len: p.len() as u32,
                weight: w,
            });
            flat.extend_from_slice(p);
        }
        (flat, spans)
    }

    #[test]
    fn workspace_matches_reference_bitwise() {
        let caps = vec![1.0, 10.0, 3.0];
        let paths = vec![vec![0], vec![0, 1], vec![1], vec![], vec![1, 2]];
        let weights = vec![1.0, 2.0, 1.0, 1.0, 0.5];
        let flows: Vec<FlowDemand<'_>> = paths
            .iter()
            .zip(&weights)
            .map(|(p, &w)| FlowDemand {
                links: p,
                weight: w,
            })
            .collect();
        let expect = compute_rates(&caps, &flows);
        let (flat, spans) = pack(&paths, &weights);
        let mut ws = SolverWorkspace::new();
        // Twice through the same workspace: reuse must not leak state.
        for _ in 0..2 {
            let got = ws.solve(&caps, &flat, &spans);
            let a: Vec<u64> = expect.iter().map(|r| r.to_bits()).collect();
            let b: Vec<u64> = got.iter().map(|r| r.to_bits()).collect();
            assert_eq!(a, b, "workspace diverged from reference");
        }
    }

    #[test]
    fn workspace_subset_solve_matches_component_rates() {
        // Two disjoint components: {0,1} on links {0,1}, {2} on link {2}.
        // Solving only the second component must reproduce its global rate.
        let caps = vec![1.0, 1.0, 4.0];
        let paths = [vec![0, 1], vec![0], vec![2]];
        let weights = [1.0; 3];
        let flows: Vec<FlowDemand<'_>> = paths
            .iter()
            .map(|p| FlowDemand {
                links: p,
                weight: 1.0,
            })
            .collect();
        let global = compute_rates(&caps, &flows);
        let (flat, spans) = pack(&paths[2..], &weights[2..]);
        let mut ws = SolverWorkspace::new();
        let got = ws.solve(&caps, &flat, &spans);
        assert_eq!(got[0].to_bits(), global[2].to_bits());
    }

    /// With no finite share on any hop the closed form hands off, as the
    /// one-round kernel does.
    #[test]
    fn single_flow_rate_hands_off_without_a_finite_share() {
        let caps = [f64::INFINITY, f64::INFINITY];
        let span = [FlowSpan {
            start: 0,
            len: 2,
            weight: 1.0,
        }];
        assert!(OneRoundSolver::new()
            .try_solve(&caps, &[1, 0], &span)
            .is_none());
        assert_eq!(single_flow_rate(&caps, [1, 0], 1.0), None);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_instance() -> impl Strategy<Value = (Vec<f64>, Vec<Vec<usize>>)> {
        (2usize..8).prop_flat_map(|n_links| {
            let caps = proptest::collection::vec(1.0f64..1000.0, n_links..=n_links);
            let paths = proptest::collection::vec(
                proptest::collection::hash_set(0..n_links, 1..=n_links.min(4)).prop_map(|s| {
                    let mut v: Vec<usize> = s.into_iter().collect();
                    v.sort_unstable();
                    v
                }),
                1..12,
            );
            (caps, paths)
        })
    }

    proptest! {
        /// No link is oversubscribed and every flow is bottlenecked
        /// somewhere (the defining property of max-min fairness: a flow's
        /// rate can't be raised without lowering an equal-or-smaller one).
        #[test]
        fn feasible_and_maxmin((caps, paths) in arb_instance()) {
            let flows: Vec<FlowDemand<'_>> = paths
                .iter()
                .map(|p| FlowDemand { links: p, weight: 1.0 })
                .collect();
            let rates = compute_rates(&caps, &flows);
            // Feasibility.
            for (l, &cap) in caps.iter().enumerate() {
                let used: f64 = paths
                    .iter()
                    .zip(&rates)
                    .filter(|(p, _)| p.contains(&l))
                    .map(|(_, &r)| r)
                    .sum();
                prop_assert!(used <= cap * (1.0 + 1e-9), "link {l} oversubscribed: {used} > {cap}");
            }
            // Bottleneck property: each flow crosses a saturated link on
            // which it has a maximal rate among that link's flows.
            for (fi, p) in paths.iter().enumerate() {
                let mut bottlenecked = false;
                for &l in p {
                    let used: f64 = paths
                        .iter()
                        .zip(&rates)
                        .filter(|(q, _)| q.contains(&l))
                        .map(|(_, &r)| r)
                        .sum();
                    let max_on_link = paths
                        .iter()
                        .zip(&rates)
                        .filter(|(q, _)| q.contains(&l))
                        .map(|(_, &r)| r)
                        .fold(0.0f64, f64::max);
                    if used >= caps[l] * (1.0 - 1e-6) && rates[fi] >= max_on_link - 1e-6 {
                        bottlenecked = true;
                        break;
                    }
                }
                prop_assert!(bottlenecked, "flow {fi} has no bottleneck link");
            }
        }

        /// The workspace kernel reproduces the reference solver bit for
        /// bit on arbitrary instances (the property the incremental
        /// engine's component-scoped solves lean on).
        #[test]
        fn workspace_bitwise_equals_reference((caps, paths) in arb_instance()) {
            let flows: Vec<FlowDemand<'_>> = paths
                .iter()
                .map(|p| FlowDemand { links: p, weight: 1.0 })
                .collect();
            let expect = compute_rates(&caps, &flows);
            let mut flat = Vec::new();
            let mut spans = Vec::new();
            for p in &paths {
                spans.push(FlowSpan {
                    start: flat.len() as u32,
                    len: p.len() as u32,
                    weight: 1.0,
                });
                flat.extend_from_slice(p);
            }
            let mut ws = SolverWorkspace::new();
            let got = ws.solve(&caps, &flat, &spans);
            for (fi, (a, b)) in expect.iter().zip(got).enumerate() {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "flow {} diverged", fi);
            }
        }

        /// The one-flow closed form is the aggregate tier on a single
        /// span, bit for bit: 1–6 hops in arbitrary slot order over
        /// healthy, degraded and dead (`0.0`, `-0.0`) capacities, with
        /// unit and non-unit weights.
        #[test]
        fn single_flow_rate_bitwise_equals_one_round(
            (hops, keys) in (1usize..7, proptest::collection::vec(0u64..u64::MAX, 12)),
            caps in proptest::collection::vec((0u8..4, 1e9f64..1e12, 0.0f64..1.0), 12),
            (pick, w) in (0u8..4, 0.01f64..10.0),
        ) {
            let caps: Vec<f64> = caps
                .into_iter()
                .map(|(kind, c, s)| match kind {
                    0 => 0.0,
                    1 => -0.0,
                    2 => c * s,
                    _ => c,
                })
                .collect();
            let mut order: Vec<usize> = (0..12).collect();
            order.sort_by_key(|&i| keys[i]);
            let path = &order[..hops];
            let weight = [0.3, 1.0, 3.0, w][pick as usize];
            let span = [FlowSpan { start: 0, len: hops as u32, weight }];
            let one_round = OneRoundSolver::new()
                .try_solve(&caps, path, &span)
                .map(|r| r[0].to_bits());
            let closed = single_flow_rate(&caps, path.iter().copied(), weight).map(f64::to_bits);
            prop_assert_eq!(closed, one_round, "caps {:?} path {:?} weight {}", caps, path, weight);
        }

        /// The allocation is invariant under flow permutation (uniqueness).
        #[test]
        fn order_independent((caps, paths) in arb_instance()) {
            let flows: Vec<FlowDemand<'_>> = paths
                .iter()
                .map(|p| FlowDemand { links: p, weight: 1.0 })
                .collect();
            let base = compute_rates(&caps, &flows);
            let mut rev = flows.clone();
            rev.reverse();
            let mut rates_rev = compute_rates(&caps, &rev);
            rates_rev.reverse();
            for (a, b) in base.iter().zip(&rates_rev) {
                prop_assert!((a - b).abs() < 1e-6, "order-dependent rates: {a} vs {b}");
            }
        }
    }
}
