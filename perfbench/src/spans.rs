//! Host-time spans recorded from outside the simulator.
//!
//! The benchmark wraps each call into a layer's public API in a span
//! (name, parent, start, end). Strategy methods run up to millions of
//! times per run, so their calls are folded into one count and total per
//! enclosing span and method instead. Everything stays in memory until the
//! run ends. A [`Recorder::off`] recorder runs the wrapped call and
//! records nothing, so the untraced and traced runs share one code path.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

use hs_cluster::{BusyPolicy, CommCtx, CommStrategy, KvCandidate, KvChoice, KvCtx};
use hs_collective::Scheme;
use hs_des::SimTime;
use hs_simnet::DirLink;
use hs_topology::NodeId;
use hs_workload::FaultKind;

/// One timed layer call.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Layer and function, e.g. `cluster.run`.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Calls of one method folded under one enclosing span.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Folded {
    /// Layer and method, e.g. `scheduler.choose`.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Number of calls.
    pub calls: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
}

/// Everything a recorder holds.
#[derive(Clone, Debug, Default)]
pub struct Recorded {
    /// Layer calls, in start order.
    pub spans: Vec<Span>,
    /// Folded method calls, ordered by parent and name.
    pub folded: Vec<Folded>,
}

struct Log {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    folded: BTreeMap<(Option<u32>, &'static str), (u64, u64)>,
}

/// Shared span sink; clones record into the same log.
#[derive(Clone, Default)]
pub struct Recorder(Option<Rc<RefCell<Log>>>);

impl Recorder {
    /// A recorder that records nothing.
    pub fn off() -> Self {
        Recorder(None)
    }

    /// A recorder that keeps everything in memory.
    pub fn on() -> Self {
        Recorder(Some(Rc::new(RefCell::new(Log {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            folded: BTreeMap::new(),
        }))))
    }

    /// Whether anything is recorded.
    pub fn is_on(&self) -> bool {
        self.0.is_some()
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let Some(log) = &self.0 else {
            return f();
        };
        let id = {
            let mut l = log.borrow_mut();
            let id = u32::try_from(l.spans.len()).expect("fewer than 2^32 spans");
            let parent = l.open.last().copied();
            let start_ns = l.epoch.elapsed().as_nanos() as u64;
            l.spans.push(Span {
                name,
                parent,
                start_ns,
                end_ns: start_ns,
            });
            l.open.push(id);
            id
        };
        let out = f();
        let mut l = log.borrow_mut();
        let end_ns = l.epoch.elapsed().as_nanos() as u64;
        l.spans[id as usize].end_ns = end_ns;
        l.open.pop();
        out
    }

    /// Run `f`, a call that opens no spans, and fold its time into the
    /// count for `name` under the enclosing span.
    pub fn call<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let Some(log) = &self.0 else {
            return f();
        };
        let t = Instant::now();
        let out = f();
        let ns = t.elapsed().as_nanos() as u64;
        let mut l = log.borrow_mut();
        let parent = l.open.last().copied();
        let e = l.folded.entry((parent, name)).or_default();
        e.0 += 1;
        e.1 += ns;
        out
    }

    /// Everything recorded so far.
    pub fn recorded(&self) -> Recorded {
        let Some(log) = &self.0 else {
            return Recorded::default();
        };
        let l = log.borrow();
        Recorded {
            spans: l.spans.clone(),
            folded: l
                .folded
                .iter()
                .map(|(&(parent, name), &(calls, total_ns))| Folded {
                    name,
                    parent,
                    calls,
                    total_ns,
                })
                .collect(),
        }
    }
}

/// Calls, total and self time of every span or method name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Totals {
    /// Number of calls.
    pub calls: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed duration minus the time covered by child spans and folded
    /// calls, ns.
    pub self_ns: u64,
}

/// Fold everything recorded into per-name totals.
pub fn totals(r: &Recorded) -> BTreeMap<&'static str, Totals> {
    let mut child_ns = vec![0u64; r.spans.len()];
    let children = r
        .spans
        .iter()
        .map(|s| (s.parent, s.dur_ns()))
        .chain(r.folded.iter().map(|f| (f.parent, f.total_ns)));
    for (parent, ns) in children {
        if let Some(p) = parent {
            child_ns[p as usize] += ns;
        }
    }
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (s, c) in r.spans.iter().zip(&child_ns) {
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += s.dur_ns().saturating_sub(*c);
    }
    for f in &r.folded {
        let t = out.entry(f.name).or_default();
        t.calls += f.calls;
        t.total_ns += f.total_ns;
        t.self_ns += f.total_ns;
    }
    out
}

/// Every span, then every folded method, as one JSON object per line.
pub fn to_jsonl(r: &Recorded) -> String {
    let parent = |p: Option<u32>| p.map_or_else(|| "null".to_string(), |p| p.to_string());
    let mut out = String::new();
    for (i, s) in r.spans.iter().enumerate() {
        out.push_str(&format!(
            "{{\"id\":{i},\"name\":\"{}\",\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}\n",
            s.name,
            parent(s.parent),
            s.start_ns,
            s.end_ns
        ));
    }
    for f in &r.folded {
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"parent\":{},\"calls\":{},\"total_ns\":{}}}\n",
            f.name,
            parent(f.parent),
            f.calls,
            f.total_ns
        ));
    }
    out
}

/// A [`CommStrategy`] decorator that forwards every method unchanged and
/// times each call with [`Recorder::call`].
struct Timed {
    inner: Box<dyn CommStrategy>,
    rec: Recorder,
}

/// Wrap `inner` when `rec` records; return it unchanged otherwise.
pub fn timed(inner: Box<dyn CommStrategy>, rec: &Recorder) -> Box<dyn CommStrategy> {
    if rec.is_on() {
        Box::new(Timed {
            inner,
            rec: rec.clone(),
        })
    } else {
        inner
    }
}

impl CommStrategy for Timed {
    fn choose(&mut self, ctx: &CommCtx<'_>) -> Scheme {
        let inner = &mut self.inner;
        self.rec.call("scheduler.choose", || inner.choose(ctx))
    }

    fn busy_policy(&self) -> BusyPolicy {
        let inner = &self.inner;
        self.rec
            .call("scheduler.busy_policy", || inner.busy_policy())
    }

    fn choose_path(
        &mut self,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        link_util: &[f64],
    ) -> Option<Vec<DirLink>> {
        let inner = &mut self.inner;
        self.rec.call("scheduler.choose_path", || {
            inner.choose_path(src, dst, bytes, link_util)
        })
    }

    fn network_aware_admission(&self) -> bool {
        let inner = &self.inner;
        self.rec.call("scheduler.network_aware_admission", || {
            inner.network_aware_admission()
        })
    }

    fn choose_decode(&mut self, ctx: &KvCtx<'_>, candidates: &[KvCandidate]) -> Option<KvChoice> {
        let inner = &mut self.inner;
        self.rec.call("scheduler.choose_decode", || {
            inner.choose_decode(ctx, candidates)
        })
    }

    fn on_monitor(&mut self, link_util: &[f64], now: SimTime) {
        let inner = &mut self.inner;
        self.rec
            .call("scheduler.on_monitor", || inner.on_monitor(link_util, now))
    }

    fn on_fault(&mut self, kind: &FaultKind, now: SimTime) {
        let inner = &mut self.inner;
        self.rec
            .call("scheduler.on_fault", || inner.on_fault(kind, now))
    }

    fn attach_tracer(&mut self, tracer: &hs_obs::Tracer) {
        let inner = &mut self.inner;
        self.rec
            .call("scheduler.attach_tracer", || inner.attach_tracer(tracer))
    }

    fn name(&self) -> &str {
        let inner = &self.inner;
        self.rec.call("scheduler.name", || inner.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let span = |name, parent, start_ns, end_ns| Span {
            name,
            parent,
            start_ns,
            end_ns,
        };
        let r = Recorded {
            spans: vec![
                span("a", None, 0, 100),
                span("b", Some(0), 10, 40),
                span("b", Some(0), 50, 60),
            ],
            folded: vec![Folded {
                name: "m",
                parent: Some(1),
                calls: 3,
                total_ns: 5,
            }],
        };
        let t = totals(&r);
        let want = |calls, total_ns, self_ns| Totals {
            calls,
            total_ns,
            self_ns,
        };
        assert_eq!(t["a"], want(1, 100, 60));
        assert_eq!(t["b"], want(2, 40, 35));
        assert_eq!(t["m"], want(3, 5, 5));
    }

    #[test]
    fn recorder_nests_spans_and_folds_calls() {
        let rec = Recorder::on();
        let v = rec.span("outer", || {
            rec.call("m", || ());
            rec.span("inner", || rec.call("m", || 7))
        });
        assert_eq!(v, 7);
        let r = rec.recorded();
        assert_eq!(r.spans.len(), 2);
        assert_eq!(r.spans[1].parent, Some(0));
        assert!(r.spans[1].start_ns >= r.spans[0].start_ns);
        assert!(r.spans[1].end_ns <= r.spans[0].end_ns);
        let calls: Vec<_> = r.folded.iter().map(|f| (f.parent, f.calls)).collect();
        assert_eq!(calls, [(Some(0), 1), (Some(1), 1)]);
        assert!(Recorder::off().recorded().spans.is_empty());
    }
}
