//! The probe pass: each layer's public functions timed from outside, over a
//! seeded sample of the cell's reachable states.
//!
//! Work is timed in batches of [`BATCH`] states with one in-memory span
//! per batch; the spans are written out when the pass ends, and every
//! reported `*_ns` value is exactly the sum of its spans' durations over
//! the sum of their `ops`. Only layers on the cell's path are probed: no
//! POR probe on an unreduced cell, no store probe on the stateless one.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::fs::File;
use std::hash::{Hash, Hasher};
use std::hint::black_box;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

use mp_checker::{Observer, SearchStrategy};
use mp_model::{
    decode_from_slice, enabled_instances, encode_to_vec, execute_enabled, successors, GlobalState,
    LocalState, Message, Permutable,
};
use mp_por::{Reducer, SporReducer};
use mp_store::{FrontierBackend, FrontierConfig, PlainCodec, StateStoreBackend, StoreConfig};
use mp_symmetry::{OrbitReduction, Symmetry, SymmetryGroup};

use crate::json::Json;
use crate::rng::Rng;
use crate::workloads::Cell;

/// States per timed batch (and per span).
pub const BATCH: usize = 1024;

/// How many states of one BFS level the sampler expands. A plain BFS
/// prefix would only ever see the shallow, nearly message-free states; a
/// seeded beam reaches the deepest level for the same work.
const BEAM: usize = 2048;

/// Watermark of the probed disk frontier: small, so every batch spills.
const FRONTIER_PROBE_WATERMARK: usize = 64 << 10;

struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    ops: u64,
}

/// In-memory span log of one probe pass; span ids are indices.
struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

/// Total time and operation count of one probed function.
#[derive(Clone, Copy)]
struct Timing {
    ns: u64,
    ops: u64,
}

impl Timing {
    fn ns_per_op(self) -> f64 {
        self.ns as f64 / self.ops.max(1) as f64
    }
}

impl SpanLog {
    fn new() -> Self {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &str, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent,
            ops: 0,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize, ops: u64) -> u64 {
        let end_ns = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.ops = ops;
        end_ns - span.start_ns
    }

    /// Calls `op(i)` for `i in 0..n`, one span named `name` per batch;
    /// `op` returns how many operations it performed.
    fn batches(
        &mut self,
        name: &str,
        parent: usize,
        n: usize,
        mut op: impl FnMut(usize) -> u64,
    ) -> Timing {
        let mut total = Timing { ns: 0, ops: 0 };
        let mut start = 0;
        while start < n {
            let end = (start + BATCH).min(n);
            let id = self.open(name, Some(parent));
            let mut ops = 0;
            for i in start..end {
                ops += op(i);
            }
            total.ns += self.close(id, ops);
            total.ops += ops;
            start = end;
        }
        total
    }

    /// One span around a single call.
    fn once<T>(
        &mut self,
        name: &str,
        parent: usize,
        ops: u64,
        call: impl FnOnce() -> T,
    ) -> (T, u64) {
        let id = self.open(name, Some(parent));
        let value = call();
        let ns = self.close(id, ops);
        (value, ns)
    }

    fn write(&self, path: &Path, workload: &str) -> Result<(), String> {
        let io = |e: std::io::Error| format!("{}: {e}", path.display());
        let mut out = BufWriter::new(File::create(path).map_err(io)?);
        for (id, span) in self.spans.iter().enumerate() {
            let line = Json::obj()
                .set("id", id)
                .set("name", span.name.as_str())
                .set("start_ns", span.start_ns)
                .set("end_ns", span.end_ns)
                .set("parent", span.parent)
                .set("ops", span.ops)
                .set("workload", workload)
                .to_line();
            writeln!(out, "{line}").map_err(io)?;
        }
        out.flush().map_err(io)
    }
}

/// Seeded beam BFS over `mp_model::successors`: every newly discovered
/// `(state, observer)` pair is a candidate, at most [`BEAM`] seeded picks
/// per level are expanded, and `want` of the candidates are drawn at the
/// end. Deterministic for a seed: the `HashSet` is only ever asked for
/// membership, never iterated.
fn sample_states<S, M, O>(
    cell: &Cell<S, M, O>,
    rng: &mut Rng,
    want: usize,
) -> Vec<(GlobalState<S, M>, O)>
where
    S: LocalState,
    M: Message,
    O: Observer<S, M>,
{
    let spec = &cell.spec;
    let root = (spec.initial_state(), cell.observer.clone());
    let mut seen = HashSet::new();
    seen.insert(root.clone());
    let mut candidates = vec![root];
    let mut level_start = 0;
    while level_start < candidates.len() && candidates.len() < want.saturating_mul(4) {
        let mut picks: Vec<usize> = (level_start..candidates.len()).collect();
        rng.shuffle(&mut picks);
        picks.truncate(BEAM);
        level_start = candidates.len();
        for pick in picks {
            let (state, observer) = candidates[pick].clone();
            for (instance, successor) in successors(spec, &state) {
                let observed = observer.update(spec, &state, &instance, &successor);
                let pair = (successor, observed);
                if seen.insert(pair.clone()) {
                    candidates.push(pair);
                }
            }
        }
    }
    rng.shuffle(&mut candidates);
    candidates.truncate(want);
    candidates
}

pub fn probe<S, M, O>(
    cell: &Cell<S, M, O>,
    workload: &str,
    seed: u64,
    want: usize,
    spans: &Path,
) -> Result<Json, String>
where
    S: LocalState + Permutable,
    M: Message + Permutable,
    O: Observer<S, M> + Permutable + Ord,
{
    let spec = &cell.spec;
    let mut log = SpanLog::new();
    let mut m = Json::obj();
    let root = log.open("probe", None);

    let (sample, _) = log.once("probe.sample", root, want as u64, || {
        sample_states(cell, &mut Rng::new(seed), want)
    });
    let n = sample.len();
    m.insert("probe.sample_states", n);

    // --- mp-model ---------------------------------------------------------
    let mut enabled = Vec::with_capacity(n);
    let t = log.batches("model.enabled_ns", root, n, |i| {
        enabled.push(black_box(enabled_instances(spec, &sample[i].0)));
        1
    });
    m.insert("model.enabled_ns", t.ns_per_op());
    let enabled_total: usize = enabled.iter().map(Vec::len).sum();
    m.insert("model.enabled_per_state", enabled_total as f64 / n as f64);

    let t = log.batches("model.execute_ns", root, n, |i| {
        for instance in &enabled[i] {
            black_box(execute_enabled(spec, &sample[i].0, instance));
        }
        enabled[i].len() as u64
    });
    m.insert("model.execute_ns", t.ns_per_op());

    let t = log.batches("model.clone_ns", root, n, |i| {
        black_box(sample[i].0.clone());
        1
    });
    m.insert("model.clone_ns", t.ns_per_op());

    // What the exact and sharded stores pay per query: std `Hash` of the
    // whole `(state, observer)` key through SipHash.
    let t = log.batches("model.hash_ns", root, n, |i| {
        let mut hasher = DefaultHasher::new();
        sample[i].hash(&mut hasher);
        black_box(hasher.finish());
        1
    });
    m.insert("model.hash_ns", t.ns_per_op());

    let mut encoded = Vec::with_capacity(n);
    let t = log.batches("model.encode_ns", root, n, |i| {
        encoded.push(black_box(encode_to_vec(&sample[i].0)));
        1
    });
    m.insert("model.encode_ns", t.ns_per_op());
    let encoded_total: usize = encoded.iter().map(Vec::len).sum();
    m.insert("model.encoded_bytes", encoded_total as f64 / n as f64);

    let mut decoded = Vec::with_capacity(n);
    let t = log.batches("model.decode_ns", root, n, |i| {
        decoded.push(black_box(decode_from_slice::<GlobalState<S, M>>(
            &encoded[i],
        )));
        1
    });
    m.insert("model.decode_ns", t.ns_per_op());
    // The round trip is checked outside the span: comparing two states is
    // not codec time.
    for (state, (original, _)) in decoded.into_iter().zip(&sample) {
        match state {
            Ok(state) if state == *original => {}
            Ok(_) => return Err("codec round-trip failed: decode(encode(s)) != s".to_string()),
            Err(e) => return Err(format!("codec round-trip failed: {e}")),
        }
    }
    drop(encoded);

    // --- mp-faults --------------------------------------------------------
    if let Some(inject) = cell.inject {
        m.insert("faults.inject_s", inject.as_secs_f64());
        let environment: usize = enabled
            .iter()
            .flatten()
            .filter(|i| spec.transition(i.transition).annotations().is_environment)
            .count();
        m.insert(
            "faults.env_instance_share",
            environment as f64 / enabled_total.max(1) as f64,
        );
    }

    // --- mp-por -----------------------------------------------------------
    if cell.spor {
        let (reducer, ns) = log.once("por.build_s", root, 1, || SporReducer::new(spec));
        m.insert("por.build_s", ns as f64 / 1e9);
        // `reduce` takes the instances by value; the copies are made here,
        // outside the timed region.
        let mut inputs: Vec<_> = enabled.iter().cloned().map(Some).collect();
        let mut explored = 0usize;
        let t = log.batches("por.reduce_ns", root, n, |i| {
            let instances = inputs[i].take().expect("each input is consumed once");
            let reduction = reducer.reduce(spec, &sample[i].0, instances);
            explored += reduction.explore.len();
            black_box(reduction);
            1
        });
        m.insert("por.reduce_ns", t.ns_per_op());
        m.insert(
            "por.explore_share",
            explored as f64 / enabled_total.max(1) as f64,
        );
    }

    // --- mp-symmetry ------------------------------------------------------
    if let Some(roles) = &cell.roles {
        let (group, ns) = log.once("symmetry.build_s", root, 1, || {
            SymmetryGroup::build(spec, roles)
        });
        m.insert("symmetry.build_s", ns as f64 / 1e9);
        m.insert("symmetry.group_order", group.order());
        let reduction: OrbitReduction<S, M, O> = OrbitReduction::new(group);
        let t = log.batches("symmetry.canonicalize_ns", root, n, |i| {
            black_box(reduction.canonicalize(&sample[i].0, &sample[i].1));
            1
        });
        m.insert("symmetry.canonicalize_ns", t.ns_per_op());
    }

    // --- mp-store ---------------------------------------------------------
    let strategy = cell.config.strategy;
    if !matches!(strategy, SearchStrategy::Stateless { .. }) {
        let backends = [
            ("exact", StoreConfig::Exact),
            ("sharded", StoreConfig::sharded()),
            ("fingerprint", StoreConfig::fingerprint(48)),
            // An eighth of the sample per run: eight runs to probe and merge.
            ("runs", StoreConfig::runs_with_watermark((n / 8).max(1))),
        ];
        for (label, config) in backends {
            let store = config.build::<(GlobalState<S, M>, O)>();
            let name = format!("store.{label}.insert_new_ns");
            let t = log.batches(&name, root, n, |i| u64::from(store.insert_ref(&sample[i])));
            if t.ops != n as u64 {
                return Err(format!(
                    "{label} store took {} of {n} distinct keys as new",
                    t.ops
                ));
            }
            m.insert(&name, t.ns_per_op());
            if label == "runs" {
                let (_, ns) = log.once("store.runs.merge_ns_per_key", root, n as u64, || {
                    store.maintain()
                });
                m.insert("store.runs.merge_ns_per_key", ns as f64 / n as f64);
            }
            // The writes-beside-reads pair: the same keys again, all hits.
            let name = format!("store.{label}.insert_hit_ns");
            let t = log.batches(&name, root, n, |i| u64::from(!store.insert_ref(&sample[i])));
            if t.ops != n as u64 {
                return Err(format!(
                    "{label} store forgot {} of {n} keys",
                    n as u64 - t.ops
                ));
            }
            m.insert(&name, t.ns_per_op());
            m.insert(
                &format!("store.{label}.bytes_per_key"),
                store.stats().approx_bytes as f64 / n as f64,
            );
        }
    }
    if matches!(
        strategy,
        SearchStrategy::StatefulBfs | SearchStrategy::ParallelBfs { .. }
    ) {
        let frontiers = [
            ("frontier_mem", FrontierConfig::Mem),
            (
                "frontier_disk",
                FrontierConfig::disk_with_watermark(FRONTIER_PROBE_WATERMARK),
            ),
        ];
        for (label, config) in frontiers {
            let mut frontier = config.build::<GlobalState<S, M>, _>(PlainCodec);
            let mut items: Vec<_> = sample
                .iter()
                .map(|(state, _)| Some(state.clone()))
                .collect();
            let name = format!("store.{label}.push_pop_ns");
            // A push and its pop are one operation: counted on the pop.
            let pushes = log.batches(&name, root, n, |i| {
                frontier.push(items[i].take().expect("each item is pushed once"));
                0
            });
            let queued = frontier.advance_level();
            let pops = log.batches(&name, root, n, |_| {
                u64::from(black_box(frontier.pop()).is_some())
            });
            if queued != n || pops.ops != n as u64 {
                return Err(format!("{label} returned {} of {n} items", pops.ops));
            }
            m.insert(&name, (pushes.ns + pops.ns) as f64 / n as f64);
            if label == "frontier_disk" {
                m.insert(
                    "store.frontier_disk.bytes_per_item",
                    frontier.stats().peak_bytes as f64 / n as f64,
                );
            }
        }
    }

    log.close(root, 0);
    log.write(spans, workload)?;
    Ok(m)
}
