//! The load-aware online scheduler (§III-D).
//!
//! Each tensor-parallel group keeps a **policy cost table** (Fig. 5) over
//! its candidate (scheme, route) policies. On every `ncclAllreduce`-
//! equivalent — i.e. every iteration's collective — the scheduler:
//!
//! 1. selects `c* = argmin_c J(c, D)` (Eq. 16) where `J(c, D) = b_c + δ`
//!    with `b_c` the policy's virtual bandwidth-utilization cost and `δ`
//!    the utilization the new transfer of `D` bytes would add over the
//!    estimation window `T_u` on the policy's bottleneck links;
//! 2. charges the chosen policy `b'_{c*} = b_{c*} + δ` and every other
//!    policy `b'_c = b_c + δ·f_{(c*,c)}` (Eq. 17), where the load-penalty
//!    `f` captures how much of `c`'s route the chosen policy loads;
//! 3. periodically refreshes `f` with the exponentially smoothed sharing
//!    ratio `W_{(c*,c)} = Σ_{e ∈ c*∩c} B(e) / Σ_{e ∈ c} B(e)` (Eq. 18)
//!    and relaxes every `b_c` toward the *measured* utilization of its
//!    links — the role of the central controller's synchronization, which
//!    in this single-process simulation is exact.
//!
//! Each table precomputes its **sharer lists** when it is built: for
//! every link of policy `c`, the other policies that also cross it. A
//! refresh then walks each policy's links once, summing `c`'s total
//! weight and, through the lists, every other policy's shared weight —
//! O(policies × links) instead of one intersection per ordered pair, and
//! with the same float additions in the same order, so the refreshed
//! penalties are bit for bit those of the pairwise formula.

use crate::netest::residual_bps;
use crate::policy::{build_policies, netkv_score, KvSelectParams, Policy};
use hs_cluster::{BusyPolicy, CommCtx, CommStrategy, KvCandidate, KvChoice, KvCtx};
use hs_collective::Scheme;
use hs_des::SimTime;
use hs_topology::routing::k_shortest_paths_avoiding;
use hs_topology::{AllPairs, Graph, LinkId, LinkWeight, NodeId};
use hs_workload::FaultKind;
use rustc_hash::FxHashSet;
use std::collections::BTreeMap;

/// Tunables of the online scheduler.
#[derive(Clone, Copy, Debug)]
pub struct SchedulerParams {
    /// Estimation window `T_u`, seconds (how long a transfer's load is
    /// assumed to occupy its links).
    pub t_u_s: f64,
    /// Penalty smoothing factor `γ` of Eq. 18.
    pub gamma: f64,
    /// Measurement-synchronization factor: how strongly monitored
    /// utilization pulls `b_c` back to reality each control-plane poll.
    pub kappa: f64,
    /// How many nearest INA switches get candidate policies.
    pub k_switches: usize,
    /// How the decode instance for a prefill→decode KV shipment is chosen.
    pub kv_select: KvSelection,
    /// Weights of the NetKV score (only read when `kv_select` is
    /// [`KvSelection::NetKv`]).
    pub kv_score: KvSelectParams,
}

/// Decode-instance selection policy for KV-cache shipments.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KvSelection {
    /// The engine's default: fewest active decode requests (ties to the
    /// lowest instance index). Network-oblivious.
    LeastLoaded,
    /// NetKV-style network-aware selection: score each admissible decode
    /// instance by estimated striped KV transfer time over residual link
    /// bandwidth, plus decode-load and KV-pressure penalties.
    NetKv,
}

impl Default for SchedulerParams {
    fn default() -> Self {
        SchedulerParams {
            t_u_s: 0.05,
            gamma: 0.3,
            kappa: 0.5,
            k_switches: 2,
            kv_select: KvSelection::NetKv,
            kv_score: KvSelectParams::default(),
        }
    }
}

/// The per-group policy cost table (Fig. 5).
struct PolicyTable {
    policies: Vec<Policy>,
    /// Virtual utilization cost `b_c` per policy.
    b: Vec<f64>,
    /// Load penalty `f_{(i,j)}`: impact of choosing `i` on `j`.
    f: Vec<Vec<f64>>,
    /// Eq. 18's sharer lists: `sharers[j][k]` holds the other policies
    /// that cross `policies[j].links[k]`, ascending.
    sharers: Vec<Vec<Vec<usize>>>,
    /// Per-policy shared-weight accumulator of [`sharing_ratios`].
    shared: Vec<f64>,
    /// Selections per policy (diagnostics/ablation).
    picks: Vec<u64>,
    /// Per-link capacities (bits/s) from the fabric graph, indexed by
    /// dense `LinkId` — Eq. 18's `B(e)` weights.
    link_caps: Vec<f64>,
    /// When virtual costs were last decayed (see [`Self::decay_to`]).
    last_decay: SimTime,
}

/// One Eq. 16 `select()` outcome with its audit trail.
struct Selection {
    idx: usize,
    /// The winning objective `J(c*, D) = b_{c*} + δ`.
    j: f64,
    /// The δ term of the winner.
    delta: f64,
    /// Candidates skipped because they crossed a dead link.
    dead_skipped: usize,
}

impl PolicyTable {
    fn new(policies: Vec<Policy>, link_caps: Vec<f64>) -> Self {
        let n = policies.len();
        let sharers: Vec<Vec<Vec<usize>>> = policies
            .iter()
            .enumerate()
            .map(|(j, p)| {
                p.links
                    .iter()
                    .map(|l| {
                        (0..n)
                            .filter(|&i| i != j && policies[i].links.binary_search(l).is_ok())
                            .collect()
                    })
                    .collect()
            })
            .collect();
        // Initialize f with the *structural* sharing ratio (capacity
        // weighted); Eq. 18 refreshes it with live utilization later.
        let mut f = vec![vec![0.0; n]; n];
        let mut shared = vec![0.0; n];
        sharing_ratios(
            &policies,
            &sharers,
            &mut shared,
            |l| link_weight(&link_caps, l),
            |i, j, w| f[i][j] = w,
        );
        PolicyTable {
            b: vec![0.0; n],
            f,
            sharers,
            shared,
            picks: vec![0; n],
            link_caps,
            last_decay: SimTime::ZERO,
            policies,
        }
    }

    /// Expire virtual charges older than the estimation window. A charge
    /// models a transfer occupying its links for roughly `T_u` seconds
    /// (that is δ's denominator), so costs decay exponentially with time
    /// constant `T_u` between selections. Without this, a slow or absent
    /// control-plane `refresh()` lets `b` grow without bound and the
    /// `(j / QUANTUM)` bucket in `select()` saturates, degenerating the
    /// argmin into pure latency tie-breaking.
    fn decay_to(&mut self, now: SimTime, t_u: f64) {
        let dt = now.saturating_since(self.last_decay).as_secs_f64();
        if dt <= 0.0 {
            return;
        }
        self.last_decay = now;
        let k = (-dt / t_u.max(1e-9)).exp();
        for b in &mut self.b {
            *b *= k;
        }
    }

    /// Eq. 16: pick the policy minimizing `J(c, D) = b_c + δ_c`;
    /// policies within one utilization quantum of each other are
    /// tie-broken by idle-fabric latency (the offline planner's scheme
    /// preference, so the hybrid choice degrades gracefully to "fastest
    /// scheme" when nothing is loaded).
    /// Policies crossing a dead link are infinite-cost — skipped outright
    /// so Eq. 16 routes around faults. `None` iff every candidate is dead.
    fn select(&self, bytes: u64, t_u: f64, dead: &FxHashSet<LinkId>) -> Option<Selection> {
        const QUANTUM: f64 = 0.10;
        let mut best: Option<Selection> = None;
        let mut best_key = (usize::MAX, f64::INFINITY);
        let mut dead_skipped = 0;
        for (i, p) in self.policies.iter().enumerate() {
            if !dead.is_empty() && p.links.iter().any(|l| dead.contains(l)) {
                dead_skipped += 1;
                continue;
            }
            let d = delta(p, bytes, t_u);
            let j = self.b[i] + d;
            let key = ((j / QUANTUM) as usize, p.base_latency_s);
            if best.is_none() || key.0 < best_key.0 || (key.0 == best_key.0 && key.1 < best_key.1) {
                best_key = key;
                best = Some(Selection {
                    idx: i,
                    j,
                    delta: d,
                    dead_skipped: 0,
                });
            }
        }
        best.map(|mut s| {
            s.dead_skipped = dead_skipped;
            s
        })
    }

    /// Eq. 17: charge the chosen policy and penalize the sharers.
    /// Returns the δ charged to the winner.
    fn charge(&mut self, chosen: usize, bytes: u64, t_u: f64) -> f64 {
        let d = delta(&self.policies[chosen], bytes, t_u);
        for i in 0..self.b.len() {
            if i == chosen {
                self.b[i] += d;
            } else {
                self.b[i] += d * self.f[chosen][i];
            }
        }
        self.picks[chosen] += 1;
        d
    }

    /// Largest virtual cost in the table (trace diagnostics).
    fn max_b(&self) -> f64 {
        self.b.iter().copied().fold(0.0, f64::max)
    }

    /// Eq. 18 + measurement sync.
    fn refresh(&mut self, link_util: &[f64], gamma: f64, kappa: f64) {
        let (caps, f) = (&self.link_caps, &mut self.f);
        sharing_ratios(
            &self.policies,
            &self.sharers,
            &mut self.shared,
            |l| link_weight(caps, l) * link_util.get(l.idx()).copied().unwrap_or(0.0).max(0.05),
            |i, j, w| f[i][j] = (1.0 - gamma) * f[i][j] + gamma * w,
        );
        // Pull virtual costs toward the measured utilization of each
        // policy's links (the controller's ground truth).
        for (i, p) in self.policies.iter().enumerate() {
            let measured = p
                .links
                .iter()
                .map(|l| link_util.get(l.idx()).copied().unwrap_or(0.0))
                .fold(0.0f64, f64::max);
            self.b[i] = (1.0 - kappa) * self.b[i] + kappa * measured;
        }
    }
}

/// Added *maximum* link-utilization ratio of transferring `bytes` over
/// the policy within the estimation window (Eq. 16's δ).
fn delta(p: &Policy, bytes: u64, t_u: f64) -> f64 {
    bytes as f64 * p.max_link_secs_per_byte / t_u
}

/// A link's capacity, Eq. 18's structural weight. Unknown links (stale
/// table vs. grown graph) weigh as 1.0 so the ratio stays defined instead
/// of silently vanishing.
fn link_weight(caps: &[f64], l: LinkId) -> f64 {
    caps.get(l.idx()).copied().unwrap_or(1.0)
}

/// `W_{(i,j)}` for every ordered pair `i != j`, passed to `set(i, j, W)`:
/// how much of `j`'s route policy `i` loads, `Σ_{e ∈ i∩j} weight(e) /
/// Σ_{e ∈ j} weight(e)` (0 when `j`'s total is not positive). With live
/// utilization a link weighs `capacity × utilization` as the paper
/// monitors; the structural prior weighs capacity alone. The capacity
/// weights matter on heterogeneous routes: a shared 600 Gb/s NVLink hop
/// carries far more of `j`'s traffic than a shared 100 Gb/s Ethernet
/// hop, so it must dominate the ratio.
///
/// One walk over each `j`'s links accumulates its total and, through the
/// sharer lists, each `i`'s shared weight: the addends and their order
/// are those of the pairwise intersection, so every ratio is bitwise the
/// pairwise one.
fn sharing_ratios(
    policies: &[Policy],
    sharers: &[Vec<Vec<usize>>],
    shared: &mut [f64],
    weight: impl Fn(LinkId) -> f64,
    mut set: impl FnMut(usize, usize, f64),
) {
    for (j, p) in policies.iter().enumerate() {
        shared.fill(0.0);
        let mut total = 0.0;
        for (&l, sharing) in p.links.iter().zip(&sharers[j]) {
            let w = weight(l);
            total += w;
            for &i in sharing {
                shared[i] += w;
            }
        }
        for (i, &sh) in shared.iter().enumerate() {
            if i != j {
                set(i, j, if total <= 0.0 { 0.0 } else { sh / total });
            }
        }
    }
}

/// NetKV's transfer estimator: each covered (src, dst) GPU pair's
/// all-pairs route compiled once, on first use, into its link indices,
/// and per link its latency and its residual bandwidth, the latter
/// updated in place when the utilization it was computed from changes.
///
/// A hop costs `x / bw + lat` with `x = bytes × 8`, `bw` the residual
/// bandwidth clamped at 1 bit/s and `lat = latency_ns × 1e-9`, and the
/// hops are added in path order: the very operations of
/// `path_transfer_secs`, so an estimate is bit for bit that of walking
/// the `Path` and its `Link`s.
struct KvRoutes {
    /// Covered-node count of the `AllPairs` the routes come from; pair
    /// `(i, j)` of covered indices is entry `i * m + j`.
    m: usize,
    /// Per pair: where its route starts in `hops`, or
    /// [`Self::UNCOMPILED`].
    routes: Vec<u32>,
    /// The compiled routes back to back, each its hop count followed by
    /// its link indices.
    hops: Vec<u32>,
    links: Vec<KvLink>,
}

/// What a KV estimate reads of one link.
struct KvLink {
    /// The utilization bits `bw` was computed from. A hop whose link
    /// reads a different utilization in the caller's snapshot recomputes
    /// `bw` first, so a snapshot change redoes only the links the next
    /// estimates cross, and no call compares the whole snapshot.
    util: u64,
    /// `residual_bps(cap, util).max(1.0)`.
    bw: f64,
    /// Propagation latency, seconds.
    lat: f64,
    /// Capacity, bits/s.
    cap: f64,
}

impl KvRoutes {
    const UNCOMPILED: u32 = u32::MAX;

    fn new(g: &Graph, ap: &AllPairs) -> Self {
        let m = ap.nodes().len();
        let links = g
            .links()
            .map(|(_, l)| KvLink {
                util: 0.0f64.to_bits(),
                bw: residual_bps(l.capacity_bps, 0.0).max(1.0),
                lat: l.latency_ns as f64 * 1e-9,
                cap: l.capacity_bps,
            })
            .collect();
        KvRoutes {
            m,
            routes: vec![Self::UNCOMPILED; m * m],
            hops: Vec::new(),
            links,
        }
    }

    /// Estimated completion time of a striped KV shipment from `src` to
    /// `dst` GPUs under the utilization snapshot `util` (a link past its
    /// end counts as idle): the slowest Eq. 15 stripe over the residual
    /// bandwidth. Stripes touching an uncovered GPU are left out.
    fn estimate(
        &mut self,
        ap: &AllPairs,
        src: &[NodeId],
        dst: &[NodeId],
        bytes: u64,
        util: &[f64],
    ) -> f64 {
        if let ([s], [d]) = (src, dst) {
            // TP1 → TP1: a single stripe with every byte, or none when the
            // pair is co-located or there is nothing to ship.
            if s == d || bytes == 0 {
                return 0.0;
            }
            return self
                .route_secs(ap, *s, *d, bytes, util)
                .map_or(0.0, |t| 0.0f64.max(t));
        }
        hs_cluster::stripes(src, dst, bytes)
            .filter_map(|st| self.route_secs(ap, st.src, st.dst, st.bytes, util))
            .fold(0.0f64, f64::max)
    }

    /// Seconds to move `bytes` over the route from `a` to `b`, compiling
    /// it on first use; `None` if either end is not covered.
    fn route_secs(
        &mut self,
        ap: &AllPairs,
        a: NodeId,
        b: NodeId,
        bytes: u64,
        util: &[f64],
    ) -> Option<f64> {
        let pair = ap.index(a)? * self.m + ap.index(b)?;
        if self.routes[pair] == Self::UNCOMPILED {
            let links = &ap.path(a, b).links;
            self.routes[pair] = self.hops.len() as u32;
            self.hops.push(links.len() as u32);
            self.hops.extend(links.iter().map(|l| l.0));
        }
        let start = self.routes[pair] as usize + 1;
        let len = self.hops[start - 1] as usize;
        let x = bytes as f64 * 8.0;
        let mut t = 0.0;
        for &l in &self.hops[start..start + len] {
            let u = util.get(l as usize).copied().unwrap_or(0.0);
            let link = &mut self.links[l as usize];
            if link.util != u.to_bits() {
                link.util = u.to_bits();
                link.bw = residual_bps(link.cap, u).max(1.0);
            }
            t += x / link.bw + link.lat;
        }
        Some(t)
    }
}

/// The HeroServe online scheduler, pluggable into the cluster simulator.
pub struct HeroScheduler {
    graph: Graph,
    ap: AllPairs,
    ina_switches: Vec<NodeId>,
    params: SchedulerParams,
    /// Keyed in group-id order: `on_monitor` walks every table and its
    /// visit order reaches the trace stream.
    tables: BTreeMap<u64, PolicyTable>,
    /// NetKV's compiled routes and residual bandwidth.
    kv: KvRoutes,
    /// Cached alternative routes per endpoint pair (Yen's k-shortest),
    /// for the point-to-point path policies of Fig. 5. Ordered so fault
    /// invalidation sweeps are deterministic.
    route_cache: BTreeMap<(NodeId, NodeId), Vec<Vec<hs_simnet::DirLink>>>,
    /// Links currently out of service (fault notifications). Policies and
    /// routes crossing them are treated as infinite-cost.
    dead_links: FxHashSet<LinkId>,
    /// Decision-audit sink; no-op unless attached via `attach_tracer`.
    tracer: hs_obs::Tracer,
}

impl HeroScheduler {
    /// Build a scheduler over the fabric. `ap` must cover the GPUs and
    /// INA switches (reuse the planner's all-pairs structures).
    pub fn new(graph: &Graph, ap: AllPairs, params: SchedulerParams) -> Self {
        let ina_switches = graph.ina_switches();
        let kv = KvRoutes::new(graph, &ap);
        HeroScheduler {
            graph: graph.clone(),
            ap,
            ina_switches,
            params,
            tables: BTreeMap::new(),
            kv,
            route_cache: BTreeMap::new(),
            dead_links: FxHashSet::default(),
            tracer: hs_obs::Tracer::noop(),
        }
    }

    /// Drop every cached point-to-point route (forces recomputation under
    /// the current dead-link set).
    pub fn invalidate_routes(&mut self) {
        self.route_cache.clear();
    }

    /// Drop cached routes that traverse any of `links` (targeted
    /// invalidation when a fault takes specific links down). Entries
    /// left with no surviving alternative are removed entirely so the
    /// next lookup recomputes them avoiding the dead set.
    pub fn invalidate_routes_touching(&mut self, links: &[LinkId]) {
        self.route_cache.retain(|_, routes| {
            routes.retain(|r| !r.iter().any(|(l, _)| links.contains(l)));
            !routes.is_empty()
        });
    }

    /// How many times each policy of `group_id` has been selected
    /// (diagnostics for the ablation benches).
    pub fn pick_counts(&self, group_id: u64) -> Option<Vec<(Scheme, u64)>> {
        self.tables.get(&group_id).map(|t| {
            t.policies
                .iter()
                .zip(&t.picks)
                .map(|(p, &c)| (p.scheme, c))
                .collect()
        })
    }

    fn table_for(&mut self, group_id: u64, group: &[NodeId]) -> Option<&mut PolicyTable> {
        if !self.tables.contains_key(&group_id) {
            let pols = build_policies(
                &self.graph,
                &self.ap,
                group,
                &self.ina_switches,
                self.params.k_switches,
            );
            if pols.is_empty() {
                return None;
            }
            self.tables
                .insert(group_id, PolicyTable::new(pols, self.graph.capacities()));
        }
        self.tables.get_mut(&group_id)
    }
}

impl CommStrategy for HeroScheduler {
    fn choose(&mut self, ctx: &CommCtx<'_>) -> Scheme {
        let t_u = self.params.t_u_s;
        if self.table_for(ctx.group_id, ctx.group).is_none() {
            return Scheme::Ring; // degenerate group
        }
        // Re-lookup (rather than holding table_for's borrow) so the tracer
        // field stays usable below; degrade gracefully either way.
        let Some(table) = self.tables.get_mut(&ctx.group_id) else {
            return Scheme::Ring;
        };
        table.decay_to(ctx.now, t_u);
        let n_candidates = table.policies.len();
        let Some(sel) = table.select(ctx.bytes, t_u, &self.dead_links) else {
            // Every candidate crosses a dead link: degrade to the plain
            // host-side ring and let retries ride out the fault.
            self.tracer.policy_selected(
                ctx.now,
                ctx.group_id,
                "Ring(degraded)",
                f64::INFINITY,
                0.0,
                n_candidates,
                n_candidates,
                ctx.bytes,
            );
            return Scheme::Ring;
        };
        let scheme = table.policies[sel.idx].scheme;
        self.tracer.policy_selected(
            ctx.now,
            ctx.group_id,
            scheme.label(),
            sel.j,
            sel.delta,
            n_candidates,
            sel.dead_skipped,
            ctx.bytes,
        );
        let d = table.charge(sel.idx, ctx.bytes, t_u);
        self.tracer
            .policy_charged(ctx.now, ctx.group_id, sel.idx, d, table.max_b());
        scheme
    }

    fn busy_policy(&self) -> BusyPolicy {
        BusyPolicy::FallbackHierRing
    }

    /// Route point-to-point transfers (KV cache, pipeline hops) over the
    /// least-loaded of the k shortest routes — the "next hop /
    /// transmission path" dimension of the policy table. On the paper's
    /// cross-connected testbed this spreads KV traffic over both Tofino
    /// switches instead of hammering one static path.
    fn choose_path(
        &mut self,
        src: NodeId,
        dst: NodeId,
        _bytes: u64,
        link_util: &[f64],
    ) -> Option<Vec<hs_simnet::DirLink>> {
        if src == dst {
            return None;
        }
        let graph = &self.graph;
        let dead = &self.dead_links;
        let routes = self.route_cache.entry((src, dst)).or_insert_with(|| {
            k_shortest_paths_avoiding(graph, src, dst, 3, LinkWeight::Latency, None, dead)
                .into_iter()
                // Alternatives more than ~2 hops longer than the best are
                // never worth the detour for bulk transfers.
                .scan(None::<usize>, |best, p| {
                    let hops = p.links.len();
                    let b = *best.get_or_insert(hops);
                    Some((hops <= b + 2).then_some(p.directed_links(graph)))
                })
                .flatten()
                .collect()
        });
        // Cached entries are invalidated on faults, but filter defensively
        // in case a route slipped through between notifications.
        if !dead.is_empty() {
            routes.retain(|r| !r.iter().any(|(l, _)| dead.contains(l)));
        }
        if routes.is_empty() {
            return None;
        }
        let score = |links: &[hs_simnet::DirLink]| -> (f64, usize) {
            let max_util = links
                .iter()
                .map(|(l, _)| link_util.get(l.idx()).copied().unwrap_or(0.0))
                .fold(0.0f64, f64::max);
            (max_util, links.len())
        };
        routes
            .iter()
            .min_by(|a, b| {
                let (ua, la) = score(a);
                let (ub, lb) = score(b);
                ua.partial_cmp(&ub)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then_with(|| la.cmp(&lb))
            })
            .cloned()
    }

    fn network_aware_admission(&self) -> bool {
        self.params.kv_select == KvSelection::NetKv
    }

    /// NetKV-style decode selection: among the admissible candidates,
    /// minimize estimated striped transfer time over residual bandwidth
    /// plus load/pressure penalties. Ties (exactly equal scores) keep the
    /// lowest instance index — candidates arrive in ascending order, so
    /// strict `<` comparison is the deterministic tiebreak.
    fn choose_decode(
        &mut self,
        ctx: &KvCtx<'_>,
        candidates: &[KvCandidate<'_>],
    ) -> Option<KvChoice> {
        if self.params.kv_select != KvSelection::NetKv {
            return None;
        }
        let mut best: Option<(f64, KvChoice)> = None;
        for c in candidates {
            let est =
                self.kv
                    .estimate(&self.ap, ctx.src_gpus, c.dst_gpus, ctx.bytes, ctx.link_util);
            let reserved_frac = if c.capacity_tokens == 0 {
                1.0
            } else {
                1.0 - c.headroom_tokens as f64 / c.capacity_tokens as f64
            };
            let score = netkv_score(est, c.load, reserved_frac, &self.params.kv_score);
            let better = match &best {
                None => true,
                Some((b, _)) => score
                    .partial_cmp(b)
                    .is_some_and(|o| o == std::cmp::Ordering::Less),
            };
            if better {
                best = Some((
                    score,
                    KvChoice {
                        instance: c.instance,
                        est_transfer_s: est,
                    },
                ));
            }
        }
        best.map(|(_, c)| c)
    }

    fn on_monitor(&mut self, link_util: &[f64], now: SimTime) {
        for (&gid, table) in self.tables.iter_mut() {
            // Refresh syncs b to measured utilization, superseding any
            // pending select-time decay.
            table.last_decay = now;
            table.refresh(link_util, self.params.gamma, self.params.kappa);
            self.tracer.table_refreshed(now, gid, table.max_b());
        }
    }

    /// React to fabric faults: track the dead-link set (Eq. 16 treats
    /// policies crossing it as infinite-cost) and invalidate the affected
    /// route-cache entries so point-to-point traffic re-routes.
    fn on_fault(&mut self, kind: &FaultKind, _now: SimTime) {
        match *kind {
            FaultKind::LinkDown { link } => {
                self.dead_links.insert(link);
                self.invalidate_routes_touching(&[link]);
            }
            FaultKind::LinkDegrade { link, factor } if factor <= 0.0 => {
                self.dead_links.insert(link);
                self.invalidate_routes_touching(&[link]);
            }
            FaultKind::LinkUp { link } => {
                self.dead_links.remove(&link);
                // Restored capacity may beat the detours chosen during the
                // outage; recompute everything.
                self.invalidate_routes();
            }
            FaultKind::SwitchFail { switch } => {
                let adjacent: Vec<LinkId> = self
                    .graph
                    .neighbors(switch)
                    .iter()
                    .map(|&(_, l)| l)
                    .collect();
                self.dead_links.extend(adjacent.iter().copied());
                self.invalidate_routes_touching(&adjacent);
            }
            FaultKind::SwitchRecover { switch } => {
                for &(_, l) in self.graph.neighbors(switch) {
                    self.dead_links.remove(&l);
                }
                self.invalidate_routes();
            }
            // Degrades short of outage and compute faults don't change
            // reachability; the monitor loop absorbs them via link_util.
            FaultKind::LinkDegrade { .. }
            | FaultKind::GpuStall { .. }
            | FaultKind::GpuRecover { .. } => {}
        }
    }

    fn name(&self) -> &str {
        "HeroServe"
    }

    fn attach_tracer(&mut self, tracer: &hs_obs::Tracer) {
        self.tracer = tracer.clone();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hs_topology::builders::testbed;
    use hs_topology::LinkWeight;

    pub(super) fn scheduler() -> (
        HeroScheduler,
        Vec<NodeId>,
        hs_topology::builders::BuiltTopology,
    ) {
        let t = testbed();
        let mut nodes = t.all_gpus();
        nodes.extend(&t.access_switches);
        let ap = AllPairs::compute(&t.graph, &nodes, LinkWeight::Latency, None);
        let group: Vec<NodeId> = t.gpus_by_server.iter().map(|s| s[0]).collect();
        (
            HeroScheduler::new(&t.graph, ap, SchedulerParams::default()),
            group,
            t,
        )
    }

    pub(super) fn ctx<'a>(group: &'a [NodeId], util: &'a [f64], bytes: u64) -> CommCtx<'a> {
        CommCtx {
            group_id: 1,
            group,
            bytes,
            now: SimTime::ZERO,
            link_util: util,
        }
    }

    #[test]
    fn prefers_heterogeneous_ina_when_idle() {
        let (mut s, group, t) = scheduler();
        let util = vec![0.0; t.graph.link_count()];
        let scheme = s.choose(&ctx(&group, &util, 1 << 20));
        assert!(
            matches!(scheme, Scheme::HierIna { .. }),
            "idle network should pick hierarchical INA, got {scheme:?}"
        );
    }

    #[test]
    fn repeated_load_spreads_across_policies() {
        let (mut s, group, _) = scheduler();
        let util = vec![];
        // Hammer the same group with large transfers without any
        // measurement relaxation: virtual costs build up and the argmin
        // rotates across policies.
        let mut seen = std::collections::HashSet::new();
        for _ in 0..50 {
            let scheme = s.choose(&ctx(&group, &util, 64 << 20));
            seen.insert(format!("{scheme:?}"));
        }
        assert!(
            seen.len() >= 2,
            "cost accumulation should rotate policies, saw {seen:?}"
        );
        let picks = s.pick_counts(1).unwrap();
        let total: u64 = picks.iter().map(|(_, c)| c).sum();
        assert_eq!(total, 50);
    }

    #[test]
    fn monitor_feedback_steers_away_from_hot_links() {
        let (mut s, group, t) = scheduler();
        // First pick establishes the favorite (a hierarchical INA at some
        // switch). Then report its links as saturated.
        let idle = vec![0.0; t.graph.link_count()];
        let first = s.choose(&ctx(&group, &idle, 1 << 20));
        let Scheme::HierIna { switch } = first else {
            panic!("expected HierIna first, got {first:?}")
        };
        // Saturate every Ethernet link into that switch.
        let mut util = vec![0.0; t.graph.link_count()];
        for (lid, link) in t.graph.links() {
            if link.a == switch || link.b == switch {
                util[lid.idx()] = 1.0;
            }
        }
        for _ in 0..3 {
            s.on_monitor(&util, SimTime::ZERO);
        }
        let next = s.choose(&ctx(&group, &util, 1 << 20));
        assert_ne!(
            next, first,
            "scheduler kept using a saturated switch: {next:?}"
        );
    }

    #[test]
    fn busy_policy_is_hierarchical() {
        let (s, _, _) = scheduler();
        assert_eq!(s.busy_policy(), BusyPolicy::FallbackHierRing);
        assert_eq!(s.name(), "HeroServe");
    }

    #[test]
    fn degenerate_group_falls_back_to_ring() {
        let (mut s, _, t) = scheduler();
        let lone = vec![t.gpus_by_server[0][0]];
        let util = vec![];
        assert_eq!(s.choose(&ctx(&lone, &util, 1024)), Scheme::Ring);
    }

    #[test]
    fn switch_failure_steers_policies_and_routes() {
        let (mut s, group, t) = scheduler();
        let idle = vec![0.0; t.graph.link_count()];
        let first = s.choose(&ctx(&group, &idle, 1 << 20));
        let Scheme::HierIna { switch } = first else {
            panic!("expected HierIna first, got {first:?}")
        };

        // Warm the route cache across the fabric, then fail the favored
        // switch: every subsequent scheme and route must avoid it.
        let src = t.gpus_by_server[0][0];
        let dst = t.gpus_by_server[1][0];
        assert!(s.choose_path(src, dst, 1 << 20, &idle).is_some());

        s.on_fault(&FaultKind::SwitchFail { switch }, SimTime::ZERO);
        assert!(!s.dead_links.is_empty());

        for _ in 0..20 {
            let scheme = s.choose(&ctx(&group, &idle, 1 << 20));
            match scheme {
                Scheme::Ina { switch: sw } | Scheme::HierIna { switch: sw } => {
                    assert_ne!(sw, switch, "picked the failed switch: {scheme:?}");
                }
                _ => {}
            }
        }
        let route = s
            .choose_path(src, dst, 1 << 20, &idle)
            .expect("testbed is cross-connected; an alternative route exists");
        for (l, _) in &route {
            assert!(
                !s.dead_links.contains(l),
                "route crosses a dead link adjacent to the failed switch"
            );
        }

        // Recovery clears the dead set and the INA policies come back.
        s.on_fault(&FaultKind::SwitchRecover { switch }, SimTime::ZERO);
        assert!(s.dead_links.is_empty());
        let back = s.choose(&ctx(&group, &idle, 1 << 20));
        assert!(
            matches!(
                back,
                Scheme::Ina { .. } | Scheme::HierIna { .. } | Scheme::HierRing
            ),
            "post-recovery pick should leave plain ring behind, got {back:?}"
        );
    }

    /// The pairwise Eq. 18 ratio `W_{(chosen,other)}`, written out per
    /// pair: the oracle for the sharer-list evaluation in
    /// [`sharing_ratios`]. With `util`, links weigh `capacity ×
    /// utilization` (floored at 0.05); without, capacity alone.
    fn sharing_ratio(chosen: &Policy, other: &Policy, caps: &[f64], util: Option<&[f64]>) -> f64 {
        let weight = |l: LinkId| -> f64 {
            let cap = caps.get(l.idx()).copied().unwrap_or(1.0);
            match util {
                Some(u) => cap * u.get(l.idx()).copied().unwrap_or(0.0).max(0.05),
                None => cap,
            }
        };
        let mut shared = 0.0;
        let mut total = 0.0;
        for &l in &other.links {
            let w = weight(l);
            total += w;
            if chosen.links.binary_search(&l).is_ok() {
                shared += w;
            }
        }
        if total <= 0.0 {
            0.0
        } else {
            shared / total
        }
    }

    /// `f` as raw bits, for bitwise comparison.
    fn bits(f: &[Vec<f64>]) -> Vec<Vec<u64>> {
        f.iter()
            .map(|row| row.iter().map(|v| v.to_bits()).collect())
            .collect()
    }

    /// The sharer-list Eq. 18 evaluation is bitwise the pairwise loop: the
    /// structural prior of a new table, then `f` and `b` after every one
    /// of K refresh rounds (with Eq. 17 charges in between), for testbed
    /// and Fig. 2 tensor groups under utilization vectors holding zeros,
    /// ones, values under the 0.05 floor, and too few entries.
    #[test]
    fn sharer_list_refresh_is_bitwise_the_pairwise_loop() {
        let t = testbed();
        let mut nodes = t.all_gpus();
        nodes.extend(&t.access_switches);
        let ap = AllPairs::compute(&t.graph, &nodes, LinkWeight::Latency, None);
        let m = hs_topology::builders::fig2_micro();
        let m_ap = AllPairs::compute(
            &m.graph,
            &[m.gpus[0], m.gpus[1], m.gpus[2], m.access, m.core],
            LinkWeight::Latency,
            None,
        );
        let cross: Vec<NodeId> = t.gpus_by_server.iter().map(|s| s[0]).collect();
        let tp4: Vec<NodeId> = t.gpus_by_server[0][..2]
            .iter()
            .chain(&t.gpus_by_server[1][..2])
            .copied()
            .collect();
        let cases = [
            (&t.graph, &ap, cross),
            (&t.graph, &ap, tp4),
            (&m.graph, &m_ap, m.gpus.to_vec()),
        ];
        let (gamma, kappa) = (0.3, 0.5);
        for (g, ap, group) in cases {
            let policies = build_policies(g, ap, &group, &g.ina_switches(), 2);
            let n = policies.len();
            assert!(n >= 3, "group {group:?} yields too few policies");
            let caps = g.capacities();
            let mut table = PolicyTable::new(policies.clone(), caps.clone());
            let mut f = vec![vec![0.0; n]; n];
            for i in 0..n {
                for j in 0..n {
                    if i != j {
                        f[i][j] = sharing_ratio(&policies[i], &policies[j], &caps, None);
                    }
                }
            }
            assert_eq!(bits(&table.f), bits(&f), "structural prior");
            let levels = [0.0, 1.0, 0.01, 0.049, 0.05, 0.051, 0.37, 0.999];
            for round in 0..12usize {
                let util: Vec<f64> = match round % 4 {
                    0 => vec![0.0; caps.len()],
                    1 => vec![1.0; caps.len()],
                    2 => (0..caps.len() / 2)
                        .map(|l| levels[(l + round) % levels.len()])
                        .collect(),
                    _ => (0..caps.len())
                        .map(|l| levels[(l * 3 + round) % levels.len()])
                        .collect(),
                };
                if let Some(sel) = table.select(64 << 20, 0.05, &FxHashSet::default()) {
                    table.charge(sel.idx, 64 << 20, 0.05);
                }
                let mut b = table.b.clone();
                table.refresh(&util, gamma, kappa);
                for i in 0..n {
                    for j in 0..n {
                        if i != j {
                            let w = sharing_ratio(&policies[i], &policies[j], &caps, Some(&util));
                            f[i][j] = (1.0 - gamma) * f[i][j] + gamma * w;
                        }
                    }
                    let measured = policies[i]
                        .links
                        .iter()
                        .map(|l| util.get(l.idx()).copied().unwrap_or(0.0))
                        .fold(0.0f64, f64::max);
                    b[i] = (1.0 - kappa) * b[i] + kappa * measured;
                }
                assert_eq!(bits(&table.f), bits(&f), "f after round {round}");
                let b_bits: Vec<u64> = b.iter().map(|v| v.to_bits()).collect();
                let t_bits: Vec<u64> = table.b.iter().map(|v| v.to_bits()).collect();
                assert_eq!(t_bits, b_bits, "b after round {round}");
            }
        }
    }

    /// A policy over the given links with neutral cost constants.
    fn policy_over(links: Vec<LinkId>) -> Policy {
        Policy {
            scheme: Scheme::Ring,
            links,
            max_link_secs_per_byte: 1e-10,
            base_latency_s: 1e-3,
        }
    }

    #[test]
    fn shared_nvlink_dominates_shared_ethernet_in_sharing_ratio() {
        // `other` crosses one NVLink-class link (600 Gb/s) and one
        // Ethernet link (100 Gb/s). A chooser sharing only the NVLink hop
        // loads 6/7 of `other`'s capacity-weighted route; sharing only the
        // Ethernet hop loads 1/7. The pre-fix code weighted both 0.5.
        let nv = LinkId(0);
        let eth = LinkId(1);
        let caps = vec![600e9, 100e9];
        let other = policy_over(vec![nv, eth]);
        let share_nv = sharing_ratio(&policy_over(vec![nv]), &other, &caps, None);
        let share_eth = sharing_ratio(&policy_over(vec![eth]), &other, &caps, None);
        assert!(
            (share_nv - 6.0 / 7.0).abs() < 1e-12,
            "NVLink share should be 6/7, got {share_nv}"
        );
        assert!(
            (share_eth - 1.0 / 7.0).abs() < 1e-12,
            "Ethernet share should be 1/7, got {share_eth}"
        );
        assert!(share_nv > share_eth * 5.0);

        // With utilization the capacity weighting persists: equal util on
        // both links must not wash out the 6:1 capacity asymmetry.
        let util = vec![0.5, 0.5];
        let share_nv_u = sharing_ratio(&policy_over(vec![nv]), &other, &caps, Some(&util));
        let share_eth_u = sharing_ratio(&policy_over(vec![eth]), &other, &caps, Some(&util));
        assert!((share_nv_u - 6.0 / 7.0).abs() < 1e-12);
        assert!(share_nv_u > share_eth_u * 5.0);
    }

    #[test]
    fn tables_use_real_graph_capacities() {
        let (mut s, group, t) = scheduler();
        let util = vec![0.0; t.graph.link_count()];
        s.choose(&ctx(&group, &util, 1024));
        let table = s.tables.get(&1).unwrap();
        assert_eq!(table.link_caps, t.graph.capacities());
        assert!(
            table.link_caps.iter().any(|&c| c > 200e9)
                && table.link_caps.iter().any(|&c| c < 200e9),
            "testbed should mix NVLink and Ethernet capacities"
        );
    }

    #[test]
    fn virtual_costs_stay_bounded_over_refresh_free_run() {
        let (mut s, group, _) = scheduler();
        let util = vec![];
        // Long run with *no* on_monitor refresh: selections every 10 ms,
        // estimation window 50 ms. Before the select-time decay, every
        // charge accumulated forever and b diverged linearly.
        let mut max_b = 0.0f64;
        for i in 0..10_000u64 {
            let now = SimTime::from_millis(10 * i);
            let c = CommCtx {
                group_id: 1,
                group: &group,
                bytes: 64 << 20,
                now,
                link_util: &util,
            };
            s.choose(&c);
            let table = s.tables.get(&1).unwrap();
            for &b in &table.b {
                assert!(b.is_finite() && b >= 0.0, "b went bad: {b}");
                max_b = max_b.max(b);
            }
        }
        // Steady state: per-step charge is delta ≈ bytes·secs_per_byte/T_u,
        // decayed by exp(-dt/T_u) each step. The geometric sum converges to
        // delta/(1-exp(-0.2)) — a small constant, nowhere near the
        // thousands an undecayed table reaches over 100 s of selections.
        assert!(
            max_b < 50.0,
            "virtual costs should stay bounded without refresh, got {max_b}"
        );
    }

    #[test]
    fn decay_is_noop_at_same_timestamp() {
        let (mut s, group, _) = scheduler();
        let util = vec![];
        s.choose(&ctx(&group, &util, 64 << 20));
        let before = s.tables.get(&1).unwrap().b.clone();
        // Same now: decay_to must not touch b before select.
        let table = s.tables.get_mut(&1).unwrap();
        table.decay_to(SimTime::ZERO, 0.05);
        assert_eq!(s.tables.get(&1).unwrap().b, before);
    }

    #[test]
    fn choose_emits_policy_audit_events() {
        let (mut s, group, t) = scheduler();
        let tracer = hs_obs::Tracer::recording();
        s.attach_tracer(&tracer);
        let util = vec![0.0; t.graph.link_count()];
        let scheme = s.choose(&ctx(&group, &util, 1 << 20));
        s.on_monitor(&util, SimTime::from_millis(100));
        let recs = tracer.records();
        let select = recs
            .iter()
            .find(|r| r.name == "policy_select")
            .expect("select audit event");
        assert_eq!(
            select.arg("scheme").and_then(hs_obs::Val::as_str),
            Some(scheme.label())
        );
        let j = select
            .arg("j")
            .and_then(hs_obs::Val::as_f64)
            .expect("J value present");
        assert!(j.is_finite() && j >= 0.0);
        assert!(recs.iter().any(|r| r.name == "policy_charge"));
        assert!(recs.iter().any(|r| r.name == "table_refresh"));
    }

    fn kv_candidate(
        instance: usize,
        dst_gpus: &[NodeId],
        load: usize,
        headroom: u64,
    ) -> KvCandidate<'_> {
        KvCandidate {
            instance,
            load,
            headroom_tokens: headroom,
            capacity_tokens: 10_000,
            dst_gpus,
        }
    }

    #[test]
    fn netkv_prefers_nvlink_local_decode() {
        let (mut s, _, t) = scheduler();
        assert!(s.network_aware_admission());
        let src = t.gpus_by_server[0][..2].to_vec();
        let util = vec![0.0; t.graph.link_count()];
        let ctx = KvCtx {
            req: 0,
            bytes: 64 << 20,
            src_gpus: &src,
            link_util: &util,
            now: SimTime::ZERO,
        };
        // Equal load and headroom: the NVLink-local candidate's transfer
        // estimate dominates and it wins despite the higher index.
        let c = s
            .choose_decode(
                &ctx,
                &[
                    kv_candidate(0, &t.gpus_by_server[1][..2], 1, 5_000),
                    kv_candidate(1, &t.gpus_by_server[0][2..], 1, 5_000),
                ],
            )
            .expect("a choice among nonempty candidates");
        assert_eq!(c.instance, 1, "NVLink-local decode should win");
        assert!(c.est_transfer_s > 0.0);
    }

    #[test]
    fn netkv_routes_around_congested_uplinks() {
        let (mut s, _, t) = scheduler();
        let src = t.gpus_by_server[0].clone();
        let candidates = [
            kv_candidate(0, &t.gpus_by_server[1], 1, 5_000),
            kv_candidate(1, &t.gpus_by_server[3], 1, 5_000),
        ];
        // Idle fabric: symmetric estimates, lowest index wins the tie.
        let idle = vec![0.0; t.graph.link_count()];
        let ctx = KvCtx {
            req: 0,
            bytes: 256 << 20,
            src_gpus: &src,
            link_util: &idle,
            now: SimTime::ZERO,
        };
        let c = s.choose_decode(&ctx, &candidates).expect("choice");
        assert_eq!(c.instance, 0);
        // Saturate server 1's uplinks: the estimate through them inflates
        // and selection shifts to server 3 at equal load.
        let mut util = vec![0.0; t.graph.link_count()];
        for (lid, link) in t.graph.links() {
            if t.gpus_by_server[1].contains(&link.a) || t.gpus_by_server[1].contains(&link.b) {
                util[lid.idx()] = 0.95;
            }
        }
        let ctx = KvCtx {
            req: 0,
            bytes: 256 << 20,
            src_gpus: &src,
            link_util: &util,
            now: SimTime::ZERO,
        };
        let hot = s.choose_decode(&ctx, &candidates).expect("choice");
        assert_eq!(hot.instance, 1, "selection must route around congestion");
        assert!(hot.est_transfer_s < c.est_transfer_s * 10.0);
    }

    /// The residual-bandwidth vector is cached per utilization snapshot,
    /// never beyond it: rewriting the caller's buffer in place (what the
    /// engine does at a monitor tick) or passing a different one must
    /// give exactly what a fresh scheduler computes.
    #[test]
    fn netkv_bandwidth_cache_follows_the_snapshot() {
        let (mut s, _, t) = scheduler();
        let src = t.gpus_by_server[0].clone();
        let candidates = [
            kv_candidate(0, &t.gpus_by_server[1], 1, 5_000),
            kv_candidate(1, &t.gpus_by_server[3], 1, 5_000),
        ];
        let pick = |s: &mut HeroScheduler, util: &[f64]| {
            let ctx = KvCtx {
                req: 0,
                bytes: 256 << 20,
                src_gpus: &src,
                link_util: util,
                now: SimTime::ZERO,
            };
            s.choose_decode(&ctx, &candidates).expect("choice")
        };
        let mut util = vec![0.0; t.graph.link_count()];
        let idle = pick(&mut s, &util);
        for (lid, link) in t.graph.links() {
            if t.gpus_by_server[1].contains(&link.a) || t.gpus_by_server[1].contains(&link.b) {
                util[lid.idx()] = 0.95;
            }
        }
        let hot = pick(&mut s, &util);
        let (mut fresh, _, _) = scheduler();
        assert_eq!(hot, pick(&mut fresh, &util), "in-place update must refresh");
        assert_ne!(hot, idle, "the hot snapshot changes the estimate");
        let other = vec![0.0; t.graph.link_count()];
        assert_eq!(pick(&mut s, &other), idle, "another buffer must refresh");
    }

    #[test]
    fn netkv_penalizes_kv_pressure() {
        let (mut s, _, t) = scheduler();
        let src = t.gpus_by_server[0].clone();
        let util = vec![0.0; t.graph.link_count()];
        let ctx = KvCtx {
            req: 0,
            bytes: 64 << 20,
            src_gpus: &src,
            link_util: &util,
            now: SimTime::ZERO,
        };
        // Symmetric network estimates; the nearly-full instance loses.
        let c = s
            .choose_decode(
                &ctx,
                &[
                    kv_candidate(0, &t.gpus_by_server[1], 1, 100),
                    kv_candidate(1, &t.gpus_by_server[3], 1, 9_000),
                ],
            )
            .expect("choice");
        assert_eq!(c.instance, 1, "KV pressure should repel admissions");
    }

    #[test]
    fn least_loaded_mode_disables_network_awareness() {
        let t = testbed();
        let mut nodes = t.all_gpus();
        nodes.extend(&t.access_switches);
        let ap = AllPairs::compute(&t.graph, &nodes, LinkWeight::Latency, None);
        let params = SchedulerParams {
            kv_select: KvSelection::LeastLoaded,
            ..SchedulerParams::default()
        };
        let mut s = HeroScheduler::new(&t.graph, ap, params);
        assert!(!s.network_aware_admission());
        let src = t.gpus_by_server[0].clone();
        let util = vec![0.0; t.graph.link_count()];
        let ctx = KvCtx {
            req: 0,
            bytes: 64 << 20,
            src_gpus: &src,
            link_util: &util,
            now: SimTime::ZERO,
        };
        assert!(
            s.choose_decode(&ctx, &[kv_candidate(0, &t.gpus_by_server[1], 0, 9_000)])
                .is_none(),
            "least-loaded mode must defer to the engine"
        );
    }

    #[test]
    fn sharing_ratio_bounds() {
        let (mut s, group, t) = scheduler();
        let util = vec![0.0; t.graph.link_count()];
        s.choose(&ctx(&group, &util, 1024));
        let table = s.tables.get(&1).unwrap();
        for row in &table.f {
            for &v in row {
                assert!((0.0..=1.0).contains(&v), "f out of range: {v}");
            }
        }
        // A policy fully contained in another has ratio 1 toward itself's
        // superset direction; self-entries are zero by construction.
        for i in 0..table.f.len() {
            assert_eq!(table.f[i][i], 0.0);
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::{ctx, scheduler};
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// `select()` never returns a policy crossing a dead link, for any
        /// dead-link subset and any transfer size.
        #[test]
        fn select_never_crosses_dead_links(
            mask in 0u64..(1 << 16),
            bytes in 0u64..(1 << 40),
        ) {
            let (mut s, group, _) = scheduler();
            s.choose(&ctx(&group, &[], 1024)); // force table build
            let table = s.tables.get(&1).unwrap();
            let mut links: Vec<LinkId> = table
                .policies
                .iter()
                .flat_map(|p| p.links.iter().copied())
                .collect();
            links.sort_unstable();
            links.dedup();
            let dead: FxHashSet<LinkId> = links
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1u64 << (i % 64)) != 0)
                .map(|(_, &l)| l)
                .collect();
            if let Some(sel) = table.select(bytes, 0.05, &dead) {
                let p = &table.policies[sel.idx];
                prop_assert!(
                    p.links.iter().all(|l| !dead.contains(l)),
                    "selected policy crosses a dead link"
                );
                prop_assert!(sel.j.is_finite());
            }
        }

        /// `charge()` keeps every virtual cost finite and non-negative
        /// under arbitrary byte volumes (including huge ones).
        #[test]
        fn charge_keeps_costs_finite(
            byte_sizes in proptest::collection::vec(0u64..u64::MAX, 1..64),
        ) {
            let (mut s, group, _) = scheduler();
            s.choose(&ctx(&group, &[], 1024));
            let table = s.tables.get_mut(&1).unwrap();
            let dead = FxHashSet::default();
            let t_u = SchedulerParams::default().t_u_s;
            for &bytes in &byte_sizes {
                if let Some(sel) = table.select(bytes, t_u, &dead) {
                    table.charge(sel.idx, bytes, t_u);
                }
                for &b in &table.b {
                    prop_assert!(
                        b.is_finite() && b >= 0.0,
                        "b must stay finite and non-negative, got {}",
                        b
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod netkv_equivalence {
    use super::*;
    use crate::netest::{available_bandwidth, kv_transfer_estimate};
    use hs_topology::builders::{testbed, BuiltTopology};
    use proptest::prelude::*;

    /// The testbed with its last server's GPUs left out of the all-pairs
    /// structure, so stripes to or from them are dropped.
    fn setup() -> (BuiltTopology, HeroScheduler, Vec<NodeId>) {
        let t = testbed();
        let gpus = t.all_gpus();
        let uncovered = t.gpus_by_server.last().expect("servers").clone();
        let mut nodes: Vec<NodeId> = gpus
            .iter()
            .copied()
            .filter(|g| !uncovered.contains(g))
            .collect();
        nodes.extend(&t.access_switches);
        let ap = AllPairs::compute(&t.graph, &nodes, LinkWeight::Latency, None);
        let s = HeroScheduler::new(&t.graph, ap, SchedulerParams::default());
        (t, s, gpus)
    }

    /// `choose_decode` as it was before the compiled routes: residual
    /// bandwidth rebuilt from the snapshot, then the estimate, the score
    /// and the strict-`<` scan per candidate.
    fn reference_choice(
        s: &HeroScheduler,
        ctx: &KvCtx<'_>,
        candidates: &[KvCandidate<'_>],
    ) -> Option<KvChoice> {
        let avail = available_bandwidth(&s.graph, ctx.link_util);
        let mut best: Option<(f64, KvChoice)> = None;
        for c in candidates {
            let est =
                kv_transfer_estimate(&s.graph, &s.ap, ctx.src_gpus, c.dst_gpus, ctx.bytes, &avail);
            let reserved_frac = if c.capacity_tokens == 0 {
                1.0
            } else {
                1.0 - c.headroom_tokens as f64 / c.capacity_tokens as f64
            };
            let score = netkv_score(est, c.load, reserved_frac, &s.params.kv_score);
            if best.as_ref().is_none_or(|(b, _)| score < *b) {
                best = Some((
                    score,
                    KvChoice {
                        instance: c.instance,
                        est_transfer_s: est,
                    },
                ));
            }
        }
        best.map(|(_, c)| c)
    }

    fn choice_bits(c: Option<KvChoice>) -> Option<(usize, u64)> {
        c.map(|c| (c.instance, c.est_transfer_s.to_bits()))
    }

    /// One selection through the compiled routes, checked against the
    /// reference scan and, per candidate, against the oracle estimate.
    fn assert_matches(
        s: &mut HeroScheduler,
        src: &[NodeId],
        dsts: &[Vec<NodeId>],
        bytes: u64,
        util: &[f64],
    ) {
        let candidates: Vec<KvCandidate<'_>> = dsts
            .iter()
            .enumerate()
            .map(|(i, d)| KvCandidate {
                instance: i,
                load: (i * 7) % 4,
                headroom_tokens: (i as u64 * 1_237) % 10_001,
                capacity_tokens: if i % 5 == 4 { 0 } else { 10_000 },
                dst_gpus: d,
            })
            .collect();
        let ctx = KvCtx {
            req: 0,
            bytes,
            src_gpus: src,
            link_util: util,
            now: SimTime::ZERO,
        };
        let got = s.choose_decode(&ctx, &candidates);
        assert_eq!(
            choice_bits(got),
            choice_bits(reference_choice(s, &ctx, &candidates)),
            "{src:?} -> {dsts:?}, {bytes} B"
        );
        let avail = available_bandwidth(&s.graph, util);
        for d in dsts {
            let fast = s.kv.estimate(&s.ap, src, d, bytes, util);
            let oracle = kv_transfer_estimate(&s.graph, &s.ap, src, d, bytes, &avail);
            assert_eq!(
                fast.to_bits(),
                oracle.to_bits(),
                "{src:?} -> {d:?}, {bytes} B: {fast} vs {oracle}"
            );
        }
    }

    #[test]
    fn compiled_routes_match_the_oracle_on_edge_cases() {
        let (t, mut s, g) = setup();
        let n = t.graph.link_count();
        let tp8 = |k: usize| g[k..k + 8].to_vec();
        let dsts = vec![
            // TP1 targets: another server, the same GPU (co-located), a
            // GPU of the same server, an uncovered GPU.
            vec![g[5]],
            vec![g[0]],
            vec![g[1]],
            vec![g[13]],
            // TP4 and TP8 groups, one overlapping the source, one
            // reaching the uncovered server.
            g[4..8].to_vec(),
            tp8(0),
            tp8(8),
        ];
        let mut util = vec![0.0; n];
        for (i, u) in util.iter_mut().enumerate() {
            *u = [0.0, 0.3, 0.99, 1.0, 1.5, f64::NAN][i % 6];
        }
        let saturated = vec![1.0; n];
        let short: Vec<f64> = (0..n / 3).map(|i| (i % 4) as f64 * 0.25).collect();
        for src in [vec![g[0]], g[0..4].to_vec(), tp8(4)] {
            for bytes in [0, 1, 3, 4, 7, 1 << 20, (1 << 33) + 5] {
                for u in [&util, &saturated, &short, &vec![]] {
                    assert_matches(&mut s, &src, &dsts, bytes, u);
                }
            }
        }
    }

    proptest! {
        /// Random source and destination groups drawn from one GPU pool
        /// (co-located pairs and the uncovered server included), byte
        /// counts from zero through below the stripe count to tens of GB,
        /// and four snapshots in a row: a random one, the same one again,
        /// the same buffer rewritten in place, and a short one. Every
        /// selection and every estimate is bitwise the oracle's.
        #[test]
        fn compiled_routes_match_the_oracle(
            src in proptest::collection::vec(0usize..16, 1..9),
            dsts in proptest::collection::vec(proptest::collection::vec(0usize..16, 1..9), 1..6),
            bytes_kind in 0u8..3,
            raw_bytes in 0u64..1 << 35,
            util_seed in 0u64..1 << 20,
            short_len in 0usize..64,
        ) {
            let (t, mut s, g) = setup();
            let src: Vec<NodeId> = src.into_iter().map(|i| g[i]).collect();
            let dsts: Vec<Vec<NodeId>> = dsts
                .into_iter()
                .map(|d| d.into_iter().map(|i| g[i]).collect())
                .collect();
            let bytes = match bytes_kind {
                0 => 0,
                1 => raw_bytes % 8,
                _ => raw_bytes,
            };
            let mut util: Vec<f64> = (0..t.graph.link_count() as u64)
                .map(|l| ((l * 7919 + util_seed) % 103) as f64 / 100.0)
                .collect();
            assert_matches(&mut s, &src, &dsts, bytes, &util);
            assert_matches(&mut s, &src, &dsts, bytes, &util);
            for (l, u) in util.iter_mut().enumerate() {
                *u = ((l as u64 * 31 + util_seed) % 97) as f64 / 96.0;
            }
            assert_matches(&mut s, &src, &dsts, bytes, &util);
            util.truncate(short_len);
            assert_matches(&mut s, &src, &dsts, bytes, &util);
        }
    }
}
