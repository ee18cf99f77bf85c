//! The benchmark's three workloads: how each is set up from a seed, what
//! one measured operation runs, and what it reports.
//!
//! Every call into a layer's public API goes through the context's span
//! recorder, so the traced run times the same calls the untraced run
//! makes. Arrivals are open-loop Poisson in simulated time; the
//! benchmark generates each trace from the seed and hands the simulator
//! only the trace.

use std::collections::BTreeMap;
use std::hash::Hasher;
use std::time::Instant;

use hs_baselines::{BaselineKind, Deployment};
use hs_cluster::{ClusterSim, SimReport};
use hs_des::{SeedSplitter, SimSpan, SimTime};
use hs_model::ModelConfig;
use hs_obs::{track, MetricsRegistry, Tracer};
use hs_topology::builders::{testbed, xtracks, BuiltTopology, XTracksConfig};
use hs_workload::{sharegpt_like, FaultPlan, Poisson, Trace, WorkloadSpec};
use rustc_hash::FxHasher;

use crate::checks::{check_report, fold};
use crate::spans::{timed, Recorder};

/// `kv_fleet`: requests in the trace (approximate: Poisson arrivals up to
/// the horizon `requests / rate`).
pub const KV_FLEET_REQUESTS: u64 = 50_000;
/// `kv_fleet`: independent traces served, one simulation each.
pub const KV_FLEET_REPLICAS: u64 = 1;
/// `kv_fleet`: offered rate as a fraction of the planner's `est_h_rps`.
pub const KV_FLEET_RATE_FRACTION: f64 = 0.8;
/// `kv_fleet`: the arrival rate the planner is asked to provision for.
pub const KV_FLEET_PLAN_RATE: f64 = 2.0;

/// `testbed_contended`: requests per trace (approximate).
pub const TESTBED_REQUESTS: u64 = 3_000;
/// `testbed_contended`: independent traces served, one simulation each.
/// Replicas bound the memory of one simulation, and of its recorded
/// trace in the obs run, while the tail percentiles pool enough requests
/// to repeat across seeds.
pub const TESTBED_REPLICAS: u64 = 20;
/// `testbed_contended`: offered rate as a fraction of `est_h_rps`.
pub const TESTBED_RATE_FRACTION: f64 = 3.0;
/// `testbed_contended`: the uplink brownout, as `(capacity factor, start,
/// end)` with start and end as fractions of the arrival horizon.
pub const TESTBED_BROWNOUT: (f64, f64, f64) = (0.1, 0.4, 0.402);

/// Testbed workloads: concurrent INA jobs each switch admits.
pub const INA_CAPACITY_PER_SWITCH: usize = 1;
/// Testbed workloads: MMPP background traffic `(flows/s, bytes per flow)`.
pub const BACKGROUND: (f64, u64) = (20.0, 256 << 20);

/// `sla_sweep`: simulated arrival horizon of each sweep point, seconds.
pub const SWEEP_HORIZON_S: u64 = 60;
/// `sla_sweep`: the Fig. 7 rate grid, as multiples of the largest
/// planner estimate among the four systems.
pub const SWEEP_GRID: [f64; 9] = [0.2, 0.35, 0.5, 0.65, 0.8, 1.0, 1.2, 1.5, 1.9];
/// `sla_sweep`: SLA attainment a rate must reach to count as sustained.
pub const SWEEP_THRESHOLD: f64 = 0.9;
/// `sla_sweep`: bisection steps between the last good and first bad rate.
pub const SWEEP_REFINE: usize = 5;
/// `sla_sweep`: rate of the latency point, as a multiple of the grid's
/// anchor. It stands in for Fig. 7(b)'s common rate (0.7 x the lowest
/// maximum rate, about 7 req/s) at a rate that does not depend on the seed.
pub const LATENCY_RATE_FACTOR: f64 = 3.0;
/// `sla_sweep`: simulated arrival horizon of each latency-point trace, s.
pub const LATENCY_HORIZON_S: u64 = 400;
/// `sla_sweep`: independent traces served at the latency point.
pub const LATENCY_REPLICAS: u64 = 16;

/// One of the benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The `scale_1m` configuration at a smaller request count.
    KvFleet,
    /// The paper's testbed under INA contention, background traffic and
    /// a brownout.
    TestbedContended,
    /// The Fig. 7(a) chatbot sweep over four systems.
    SlaSweep,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] = [
        Workload::KvFleet,
        Workload::TestbedContended,
        Workload::SlaSweep,
    ];

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::KvFleet => "kv_fleet",
            Workload::TestbedContended => "testbed_contended",
            Workload::SlaSweep => "sla_sweep",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Record counts of the `hs-obs` recording tracer, summed over runs.
#[derive(Clone, Debug, Default)]
pub struct ObsCounts {
    /// Every record.
    pub records: u64,
    /// Records per track (`hs_obs::track::name`).
    pub by_track: BTreeMap<&'static str, u64>,
    /// `flow_start` records: fabric flows started.
    pub flows_started: u64,
    /// `link_scale` records: link capacity changes.
    pub link_scale_events: u64,
}

impl ObsCounts {
    fn add(&mut self, tracer: &Tracer) {
        for r in tracer.take() {
            self.records += 1;
            *self.by_track.entry(track::name(r.pid)).or_default() += 1;
            match r.name {
                "flow_start" => self.flows_started += 1,
                "link_scale" => self.link_scale_events += 1,
                _ => {}
            }
        }
    }
}

/// Per-run context.
pub struct Ctx {
    /// Span sink for the traced run; off otherwise.
    pub rec: Recorder,
    /// Attach a recording tracer and metrics registry to every simulation.
    pub obs: bool,
    /// Tracer records counted so far (obs run only).
    pub obs_counts: ObsCounts,
}

impl Ctx {
    /// The untraced run: no spans, no observability.
    pub fn plain() -> Ctx {
        Ctx {
            rec: Recorder::off(),
            obs: false,
            obs_counts: ObsCounts::default(),
        }
    }

    /// The traced run: spans around every layer call.
    pub fn traced() -> Ctx {
        Ctx {
            rec: Recorder::on(),
            ..Ctx::plain()
        }
    }

    /// The obs run: the repository's own tracer attached.
    pub fn observed() -> Ctx {
        Ctx {
            obs: true,
            ..Ctx::plain()
        }
    }
}

/// Planner work summed over the deployments of one set-up.
#[derive(Clone, Copy, Debug, Default)]
pub struct PlannerWork {
    /// Group-latency evaluations.
    pub lat_evals: u64,
    /// Largest perturbation iteration count.
    pub perturb_iters: u64,
    /// `(P_tens, P_pipe)` candidates examined.
    pub candidates: u64,
}

impl PlannerWork {
    fn add(&mut self, d: &Deployment) {
        let s = &d.output.stats;
        self.lat_evals += s.lat_evals as u64;
        self.perturb_iters = self.perturb_iters.max(s.max_perturb_iters as u64);
        self.candidates += s.candidates_examined as u64;
    }
}

/// A simulation built and ready to run.
pub struct ServePoint {
    sim: ClusterSim,
    end: SimTime,
    tracer: Tracer,
}

/// A fixed-rate serve: one deployment, several independent traces.
pub struct ServeSpec {
    d: Deployment,
    rate: f64,
    horizon: SimTime,
    /// Trace seed of every replica.
    seeds: Vec<u64>,
}

/// Everything set up before the first simulated event.
pub enum Prepared {
    /// Replicated fixed-rate serve (`kv_fleet`, `testbed_contended`). The
    /// first replica's simulation is built; the others are built in turn
    /// inside the operation.
    Serve {
        /// What to serve.
        spec: Box<ServeSpec>,
        /// The first replica, ready to run.
        first: Box<ServePoint>,
    },
    /// Four planned systems and the rate grid (`sla_sweep`).
    Sweep {
        /// DistServe, DS-ATP, DS-SwitchML, HeroServe.
        systems: Vec<Deployment>,
        /// The grid's anchor: the largest planner estimate, req/s.
        anchor: f64,
        /// Trace seed of every sweep point.
        seed: u64,
    },
}

/// Set-up output.
pub struct Setup {
    /// Ready-to-run state.
    pub prepared: Prepared,
    /// Planner work of this set-up.
    pub planner: PlannerWork,
}

/// Exact work counts summed over the simulations of one operation.
#[derive(Clone, Copy, Debug, Default)]
pub struct WorkCounts {
    /// INA all-reduces executed.
    pub ina_ops: u64,
    /// Ring all-reduces executed.
    pub ring_ops: u64,
    /// INA jobs that fell back because the switch was busy.
    pub ina_fallbacks: u64,
    /// INA jobs moved off a failed switch.
    pub ina_failovers: u64,
    /// KV-cache shipments.
    pub kv_transfers: u64,
    /// KV stripe flows launched.
    pub kv_stripes: u64,
    /// KV shipments resent after a fault.
    pub kv_retries: u64,
    /// Admissions deferred for lack of KV headroom.
    pub kv_deferrals: u64,
    /// Sum over shipments of the estimate error, seconds.
    pub kv_est_err_sum_s: f64,
}

impl WorkCounts {
    fn add(&mut self, r: &SimReport) {
        self.ina_ops += r.ina_ops;
        self.ring_ops += r.ring_ops;
        self.ina_fallbacks += r.ina_fallbacks;
        self.ina_failovers += r.ina_failovers;
        self.kv_transfers += r.kv_transfers;
        self.kv_stripes += r.kv_stripes;
        self.kv_retries += r.kv_retries;
        self.kv_deferrals += r.kv_deferrals;
        self.kv_est_err_sum_s += r.mean_kv_est_err_s * r.kv_transfers as f64;
    }

    /// Mean KV transfer-estimate error, seconds.
    pub fn kv_est_err_mean_s(&self) -> f64 {
        if self.kv_transfers == 0 {
            0.0
        } else {
            self.kv_est_err_sum_s / self.kv_transfers as f64
        }
    }
}

/// Per-request metrics pooled over the replicas of one fixed-rate serve.
#[derive(Clone, Debug, Default)]
pub struct Served {
    /// TTFT of every request that has one, seconds.
    pub ttft_s: Vec<f64>,
    /// TTFT including admission wait and KV transfer, seconds.
    pub ttft_e2e_s: Vec<f64>,
    /// TPOT of every request that finished decoding, seconds.
    pub tpot_s: Vec<f64>,
    /// Requests that arrived.
    pub arrived: u64,
    /// Requests completed by the end of the drain.
    pub completed: u64,
    runs: u64,
    attained: f64,
    offered: f64,
}

impl Served {
    fn add(&mut self, r: &SimReport) {
        for q in &r.per_request {
            self.ttft_s.extend(q.ttft_s);
            self.ttft_e2e_s.extend(q.ttft_e2e_s);
            self.tpot_s.extend(q.tpot_s);
        }
        self.arrived += r.arrived as u64;
        self.completed += r.completed as u64;
        self.runs += 1;
        self.attained += r.sla_attainment * r.arrived as f64;
        self.offered += r.offered_rate;
    }

    /// SLA attainment, weighted by each replica's arrivals.
    pub fn sla_attainment(&self) -> f64 {
        if self.arrived == 0 {
            0.0
        } else {
            self.attained / self.arrived as f64
        }
    }

    /// Mean offered rate of the replicas' traces, req/s.
    pub fn offered_rate(&self) -> f64 {
        if self.runs == 0 {
            0.0
        } else {
            self.offered / self.runs as f64
        }
    }
}

/// What one measured operation produced.
pub struct Outcome {
    /// Fold of every report the operation produced.
    pub fingerprint: u64,
    /// The requests whose latencies are reported: every replica of a
    /// fixed-rate serve, or of HeroServe at the latency point of
    /// `sla_sweep`.
    pub served: Served,
    /// Highest offered rate with SLA attainment >= 0.9, req/s: the sweep's
    /// knee, or a serve run's offered rate (0 if it missed).
    pub max_rate_rps: f64,
    /// HeroServe's maximum rate over the best baseline's (sweep only).
    pub vs_best_baseline: Option<f64>,
    /// Every system's maximum rate, req/s (sweep only).
    pub max_rates: Vec<(&'static str, f64)>,
    /// Requests of the simulation, or simulations of the sweep.
    pub attempted: u64,
    /// Requests not completed by the end of the drain (0 on the sweep).
    pub failed: u64,
    /// `(requests, host seconds)` of each timed unit: every simulation's
    /// run on the serve workloads, the whole sweep on `sla_sweep`.
    pub timed: Vec<(u64, f64)>,
    /// Requests simulated across every run of the operation.
    pub simulated_requests: u64,
    /// Simulations run.
    pub points: u64,
    /// Exact work counts.
    pub counts: WorkCounts,
}

fn drain_end(horizon: SimTime) -> SimTime {
    // The drain margin of `Deployment::serve`.
    horizon
        + horizon
            .saturating_since(SimTime::ZERO)
            .mul_f64(0.25)
            .min(SimSpan::from_secs(60))
}

fn gen_trace(
    workload: &WorkloadSpec,
    seed: u64,
    rate: f64,
    horizon: SimTime,
    rec: &Recorder,
) -> Trace {
    rec.span("workload.trace_gen", || {
        let mut rng = SeedSplitter::new(seed).stream("trace");
        let mut arr = Poisson::new(rate);
        Trace::generate(workload, &mut arr, &mut rng, horizon)
    })
}

/// Build the simulation `Deployment::serve` would run for `trace`, with
/// each layer call in its own span.
fn build_point(d: &Deployment, trace: &Trace, horizon: SimTime, ctx: &Ctx) -> ServePoint {
    let rec = &ctx.rec;
    let ap = rec.span("topology.all_pairs", || d.all_pairs());
    let strategy = timed(rec.span("scheduler.new", || d.strategy()), rec);
    let cfg = d.cluster_config();
    let mut sim = rec.span("cluster.new", || {
        ClusterSim::new(&d.topology.graph, ap, cfg, trace, strategy)
    });
    let (tracer, metrics) = if ctx.obs {
        (Tracer::recording(), MetricsRegistry::recording())
    } else {
        (Tracer::noop(), MetricsRegistry::disabled())
    };
    sim.set_obs(&tracer, &metrics);
    ServePoint {
        sim,
        end: drain_end(horizon),
        tracer,
    }
}

/// Run one simulation; returns its report and host seconds.
fn run_point(mut p: ServePoint, ctx: &mut Ctx) -> (SimReport, f64) {
    let t = Instant::now();
    let report = ctx.rec.span("cluster.run", || p.sim.run(p.end));
    let secs = t.elapsed().as_secs_f64();
    if ctx.obs {
        ctx.obs_counts.add(&p.tracer);
    }
    (report, secs)
}

fn testbed_deploy(
    kind: BaselineKind,
    topo: &BuiltTopology,
    rec: &Recorder,
) -> Result<Deployment, String> {
    // The Fig. 7 testbed deployment: interleaved ports, TP4 prefill and
    // TP8 decode forced, so tensor groups span servers.
    let model = ModelConfig::opt_66b();
    let workload = sharegpt_like();
    let mut input = heroserve::spec::PlannerInput::interleaved(
        &topo.graph,
        model.clone(),
        heroserve::system::default_coefficients(&model),
        heroserve::system::expected_batch(&workload, 8),
        1.0,
        workload.ttft_sla_s,
        workload.tpot_sla_s,
    );
    input.force_prefill_parallelism = Some((4, 1));
    input.force_decode_parallelism = Some((8, 1));
    let mut d = rec
        .span("planner.deploy", || {
            kind.deploy_with_input(topo, &input, &workload)
        })
        .map_err(|e| format!("{} failed to plan: {e}", kind.name()))?;
    d.ina_capacity_per_switch = INA_CAPACITY_PER_SWITCH;
    d.background = Some(BACKGROUND);
    Ok(d)
}

/// A server uplink of the first access switch: an Ethernet link between
/// it and a non-switch node.
fn first_uplink(topo: &BuiltTopology) -> Result<hs_topology::LinkId, String> {
    let sw = topo.access_switches[0];
    topo.graph
        .links()
        .find(|(_, l)| {
            l.other(sw)
                .is_some_and(|o| !topo.access_switches.contains(&o))
        })
        .map(|(id, _)| id)
        .ok_or_else(|| "testbed access switch has no uplink".to_string())
}

/// Trace seeds of `n` replicas: `seed * n + i`, distinct across seeds.
fn replica_seeds(seed: u64, n: u64) -> Vec<u64> {
    (0..n)
        .map(|i| seed.wrapping_mul(n).wrapping_add(i))
        .collect()
}

fn prepare_serve(
    d: Deployment,
    rate: f64,
    horizon: SimTime,
    seeds: Vec<u64>,
    ctx: &Ctx,
) -> Prepared {
    let trace = gen_trace(&d.workload, seeds[0], rate, horizon, &ctx.rec);
    let first = Box::new(build_point(&d, &trace, horizon, ctx));
    Prepared::Serve {
        spec: Box::new(ServeSpec {
            d,
            rate,
            horizon,
            seeds,
        }),
        first,
    }
}

/// Everything before the first simulated event, for `seed`.
pub fn setup(w: Workload, seed: u64, ctx: &Ctx) -> Result<Setup, String> {
    let rec = &ctx.rec;
    let mut planner = PlannerWork::default();
    let prepared = match w {
        Workload::KvFleet => {
            let topo = rec.span("topology.build", || xtracks(&XTracksConfig::two_tracks(2)));
            let workload = sharegpt_like();
            let d = rec
                .span("planner.deploy", || {
                    BaselineKind::HeroServe.deploy(
                        &topo,
                        &ModelConfig::opt_13b(),
                        &workload,
                        KV_FLEET_PLAN_RATE,
                    )
                })
                .map_err(|e| format!("kv_fleet failed to plan: {e}"))?;
            planner.add(&d);
            let rate = KV_FLEET_RATE_FRACTION * d.output.est_h_rps;
            let horizon = SimTime::from_secs_f64(KV_FLEET_REQUESTS as f64 / rate);
            prepare_serve(
                d,
                rate,
                horizon,
                replica_seeds(seed, KV_FLEET_REPLICAS),
                ctx,
            )
        }
        Workload::TestbedContended => {
            let topo = rec.span("topology.build", testbed);
            let d = testbed_deploy(BaselineKind::HeroServe, &topo, rec)?;
            planner.add(&d);
            let rate = TESTBED_RATE_FRACTION * d.output.est_h_rps;
            let horizon = SimTime::from_secs_f64(TESTBED_REQUESTS as f64 / rate);
            let (factor, from, to) = TESTBED_BROWNOUT;
            let d = d.with_faults(FaultPlan::link_brownout(
                first_uplink(&topo)?,
                factor,
                SimTime::ZERO + horizon.saturating_since(SimTime::ZERO).mul_f64(from),
                SimTime::ZERO + horizon.saturating_since(SimTime::ZERO).mul_f64(to),
            ));
            prepare_serve(d, rate, horizon, replica_seeds(seed, TESTBED_REPLICAS), ctx)
        }
        Workload::SlaSweep => {
            let topo = rec.span("topology.build", testbed);
            let systems = BaselineKind::all()
                .into_iter()
                .map(|k| testbed_deploy(k, &topo, rec))
                .collect::<Result<Vec<_>, _>>()?;
            for d in &systems {
                planner.add(d);
            }
            // One common grid for every system, anchored on the largest
            // planner estimate, as `fig7_testbed` does.
            let h = systems
                .iter()
                .map(|d| d.output.est_h_rps)
                .fold(0.05f64, f64::max);
            Prepared::Sweep {
                systems,
                anchor: h,
                seed,
            }
        }
    };
    Ok(Setup { prepared, planner })
}

/// Accumulates every report of one operation.
#[derive(Default)]
struct Acc {
    hasher: FxHasher,
    simulated_requests: u64,
    points: u64,
    counts: WorkCounts,
    /// `(requests, host seconds)` of every simulation's run.
    runs: Vec<(u64, f64)>,
}

impl Acc {
    fn add(&mut self, r: &SimReport, secs: f64) -> Result<(), String> {
        check_report(r)?;
        fold(&mut self.hasher, r);
        self.simulated_requests += r.arrived as u64;
        self.points += 1;
        self.counts.add(r);
        self.runs.push((r.arrived as u64, secs));
        Ok(())
    }
}

/// Serve one trace of `d` at `rate` for `duration`: one sweep point or
/// one replica.
fn serve_rate(
    d: &Deployment,
    seed: u64,
    rate: f64,
    duration: SimTime,
    ctx: &mut Ctx,
    acc: &mut Acc,
) -> Result<SimReport, String> {
    let rec = ctx.rec.clone();
    let (report, secs) = rec.span("serve.point", || {
        let trace = gen_trace(&d.workload, seed, rate, duration, &rec);
        let p = build_point(d, &trace, duration, ctx);
        run_point(p, ctx)
    });
    acc.add(&report, secs)?;
    Ok(report)
}

/// `hs_bench::max_rate_under_sla`, with each sweep point served through
/// [`build_point`] so that its layer calls are timed.
fn max_rate_under_sla(
    d: &Deployment,
    grid: &[f64],
    seed: u64,
    duration: SimTime,
    ctx: &mut Ctx,
    acc: &mut Acc,
) -> Result<(f64, SimReport), String> {
    let mut serve = |rate: f64, ctx: &mut Ctx| -> Result<(bool, SimReport), String> {
        let report = serve_rate(d, seed, rate, duration, ctx, acc)?;
        let ok = report.sla_attainment >= SWEEP_THRESHOLD && report.completed > 0;
        Ok((ok, report))
    };
    let mut best: Option<(f64, SimReport)> = None;
    let mut first_bad: Option<f64> = None;
    for &rate in grid {
        let (ok, report) = serve(rate, ctx)?;
        if ok {
            best = Some((rate, report));
        } else {
            first_bad = Some(rate);
            break;
        }
    }
    // The grid may end before the knee: extend geometrically.
    if first_bad.is_none() {
        let mut rate = *grid.last().expect("nonempty grid");
        for _ in 0..12 {
            rate *= 1.5;
            let (ok, report) = serve(rate, ctx)?;
            if ok {
                best = Some((rate, report));
            } else {
                first_bad = Some(rate);
                break;
            }
        }
    }
    let Some((mut lo, mut lo_report)) = best else {
        // Even the lowest rate fails: zero capacity.
        let (_, report) = serve(grid[0], ctx)?;
        return Ok((0.0, report));
    };
    if let Some(mut hi) = first_bad {
        for _ in 0..SWEEP_REFINE {
            let mid = 0.5 * (lo + hi);
            let (ok, report) = serve(mid, ctx)?;
            if ok {
                lo = mid;
                lo_report = report;
            } else {
                hi = mid;
            }
        }
    }
    Ok((lo, lo_report))
}

/// The measured operation: serve the prepared simulation, or run the
/// sweep over every system. Fails on the first violated output check.
pub fn run(prepared: Prepared, ctx: &mut Ctx) -> Result<Outcome, String> {
    let mut acc = Acc::default();
    match prepared {
        Prepared::Serve { spec, first } => {
            let mut served = Served::default();
            let (report, secs) = run_point(*first, ctx);
            acc.add(&report, secs)?;
            served.add(&report);
            for &seed in &spec.seeds[1..] {
                let report = serve_rate(&spec.d, seed, spec.rate, spec.horizon, ctx, &mut acc)?;
                served.add(&report);
            }
            let max_rate_rps = if served.sla_attainment() >= SWEEP_THRESHOLD {
                served.offered_rate()
            } else {
                0.0
            };
            Ok(Outcome {
                fingerprint: acc.hasher.finish(),
                max_rate_rps,
                vs_best_baseline: None,
                max_rates: Vec::new(),
                attempted: served.arrived,
                failed: served.arrived - served.completed,
                served,
                timed: acc.runs,
                simulated_requests: acc.simulated_requests,
                points: acc.points,
                counts: acc.counts,
            })
        }
        Prepared::Sweep {
            systems,
            anchor,
            seed,
        } => {
            let start = Instant::now();
            let grid: Vec<f64> = SWEEP_GRID.iter().map(|f| f * anchor).collect();
            let duration = SimTime::from_secs(SWEEP_HORIZON_S);
            let mut knees = Vec::with_capacity(systems.len());
            for d in &systems {
                let (rate, _) = max_rate_under_sla(d, &grid, seed, duration, ctx, &mut acc)?;
                acc.hasher.write_u64(rate.to_bits());
                knees.push((d.kind, rate));
            }
            let hero_rate = knees
                .iter()
                .find(|(k, _)| *k == BaselineKind::HeroServe)
                .map(|(_, r)| *r)
                .expect("HeroServe is one of the swept systems");
            if hero_rate <= 0.0 {
                return Err("sla_sweep: HeroServe sustains no rate".to_string());
            }
            let best_baseline = knees
                .iter()
                .filter(|(k, _)| *k != BaselineKind::HeroServe)
                .map(|(_, r)| *r)
                .fold(0.0f64, f64::max);
            let hero = systems
                .iter()
                .find(|d| d.kind == BaselineKind::HeroServe)
                .expect("HeroServe is one of the swept systems");
            let mut served = Served::default();
            for seed in replica_seeds(seed, LATENCY_REPLICAS) {
                let horizon = SimTime::from_secs(LATENCY_HORIZON_S);
                let rate = LATENCY_RATE_FACTOR * anchor;
                served.add(&serve_rate(hero, seed, rate, horizon, ctx, &mut acc)?);
            }
            Ok(Outcome {
                fingerprint: acc.hasher.finish(),
                served,
                max_rate_rps: hero_rate,
                vs_best_baseline: (best_baseline > 0.0).then(|| hero_rate / best_baseline),
                max_rates: knees.iter().map(|(k, r)| (k.name(), *r)).collect(),
                // Short sweep points end with requests still decoding by
                // design, so the sweep counts simulations, not requests.
                attempted: acc.points,
                failed: 0,
                timed: vec![(acc.simulated_requests, start.elapsed().as_secs_f64())],
                simulated_requests: acc.simulated_requests,
                points: acc.points,
                counts: acc.counts,
            })
        }
    }
}

/// The workload's configuration as `(key, value)` pairs for the results
/// file; `perfbench/README.md` explains each.
pub fn describe(w: Workload) -> Vec<(&'static str, String)> {
    let testbed = [
        (
            "topology",
            "testbed, OPT-66B, interleaved, TP4 prefill / TP8 decode".to_string(),
        ),
        (
            "ina_capacity_per_switch",
            INA_CAPACITY_PER_SWITCH.to_string(),
        ),
        (
            "background_flows_per_s_and_bytes",
            format!("{BACKGROUND:?}"),
        ),
    ];
    let mut v = vec![("lengths", "sharegpt_like".to_string())];
    match w {
        Workload::KvFleet => v.extend([
            (
                "topology",
                "xtracks two_tracks(2), 96 GPUs, OPT-13B, HeroServe + NetKV".to_string(),
            ),
            ("rate_x_est_h_rps", KV_FLEET_RATE_FRACTION.to_string()),
            ("requests_per_replica", KV_FLEET_REQUESTS.to_string()),
            ("replicas", KV_FLEET_REPLICAS.to_string()),
        ]),
        Workload::TestbedContended => {
            v.extend(testbed);
            v.extend([
                ("rate_x_est_h_rps", TESTBED_RATE_FRACTION.to_string()),
                ("requests_per_replica", TESTBED_REQUESTS.to_string()),
                ("replicas", TESTBED_REPLICAS.to_string()),
                ("brownout_factor_from_to", format!("{TESTBED_BROWNOUT:?}")),
            ]);
        }
        Workload::SlaSweep => {
            v.extend(testbed);
            v.extend([
                ("grid_x_anchor", format!("{SWEEP_GRID:?}")),
                ("sweep_horizon_s", SWEEP_HORIZON_S.to_string()),
                ("threshold", SWEEP_THRESHOLD.to_string()),
                ("refine", SWEEP_REFINE.to_string()),
                ("latency_rate_x_anchor", LATENCY_RATE_FACTOR.to_string()),
                ("latency_horizon_s", LATENCY_HORIZON_S.to_string()),
                ("latency_replicas", LATENCY_REPLICAS.to_string()),
            ]);
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checks::fingerprint;
    use crate::spans::totals;

    #[test]
    fn timed_strategy_leaves_the_report_unchanged() {
        let topo = testbed();
        let horizon = SimTime::from_secs(8);
        let d = testbed_deploy(BaselineKind::HeroServe, &topo, &Recorder::off())
            .expect("plan")
            .with_faults(FaultPlan::link_brownout(
                first_uplink(&topo).expect("uplink"),
                0.1,
                SimTime::from_secs(2),
                SimTime::from_secs(4),
            ));
        let trace = gen_trace(&d.workload, 3, 6.0, horizon, &Recorder::off());
        let plain = d.serve(&trace, horizon);
        let mut ctx = Ctx::traced();
        let (timed, _) = run_point(build_point(&d, &trace, horizon, &ctx), &mut ctx);
        check_report(&plain).expect("invariants hold");
        assert!(plain.completed > 0 && plain.ina_ops + plain.ring_ops > 0);
        assert_eq!(fingerprint(&plain), fingerprint(&timed));
        let t = totals(&ctx.rec.recorded());
        for method in [
            "choose",
            "busy_policy",
            "choose_path",
            "network_aware_admission",
            "choose_decode",
            "on_monitor",
            "on_fault",
            "attach_tracer",
            "name",
        ] {
            let calls = t
                .get(format!("scheduler.{method}").as_str())
                .map_or(0, |x| x.calls);
            assert!(calls > 0, "{method} was never called");
        }
    }

    #[test]
    fn sweep_matches_the_repository_sweep() {
        let topo = testbed();
        let duration = SimTime::from_secs(8);
        for kind in [BaselineKind::DsSwitchml, BaselineKind::HeroServe] {
            let d = testbed_deploy(kind, &topo, &Recorder::off()).expect("plan");
            let grid: Vec<f64> = SWEEP_GRID.iter().map(|f| f * d.output.est_h_rps).collect();
            let mut acc = Acc::default();
            let (rate, report) =
                max_rate_under_sla(&d, &grid, 7, duration, &mut Ctx::plain(), &mut acc)
                    .expect("checks hold");
            let want =
                hs_bench::max_rate_under_sla(&d, &grid, SWEEP_THRESHOLD, 7, duration, SWEEP_REFINE);
            assert_eq!(rate, want.max_rate, "{}", kind.name());
            assert_eq!(acc.points as usize, want.samples.len());
            assert_eq!(
                crate::checks::fingerprint(&report),
                crate::checks::fingerprint(&want.report)
            );
        }
    }
}
