//! The `tmg-service/v1` request server: JSON-lines over any transport,
//! driven by a transport-independent concurrent scheduler with bounded
//! queues, per-request deadlines, and in-flight request deduplication.
//!
//! # Protocol
//!
//! One JSON object per line.  Every request carries a caller-chosen `id`
//! that is echoed in the response; responses to concurrent (or pipelined)
//! requests may arrive in any order, so callers match on `id`.
//!
//! Every well-formed request is additionally tagged with a `trace_id`
//! (caller-chosen via a `trace_id` field, otherwise assigned from a
//! process-unique counter) that is echoed in the response.  When span
//! tracing is enabled ([`tmg_obs::set_enabled`]), the `trace_id` keys the
//! request's recorded span tree for later `profile` queries.
//!
//! | op         | request fields                                        | response |
//! |------------|-------------------------------------------------------|----------|
//! | `analyse`  | `source` (mini-C module), `path_bound`, optional `function` filter, optional `deadline_ms` | `reports`: one object per analysed function |
//! | `analyse_module` | `source`, `path_bound`, optional `deadline_ms` | interprocedural composition: `roots` (composed bounds of the call-graph roots), per-function `summaries` and `reports`, differential reuse counters |
//! | `sweep`    | `source`, optional `max_bound` (default 10⁶), optional `deadline_ms` | `points`: the Figure-2/3 tradeoff curve |
//! | `stats`    | —                                                     | `stats`: the unified `tmg-obs-stats/v1` metrics snapshot (tier counters, checker/module/testgen groups, per-op latency histograms) |
//! | `profile`  | `trace_id` of a completed request                     | `profile`: the retained span tree (`tmg-obs-profile/v1`), or a typed `unknown_trace` error |
//! | `shutdown` | —                                                     | ack after the drain + disk flush, then the server exits |
//!
//! Failures are per-request and typed:
//! `{"id":N,"ok":false,"error_kind":"fault"|"cancelled"|"overloaded","error":"..."}`
//! — an `overloaded` response additionally carries `retry_after_ms`.  The
//! server's contract is *never a wrong answer, only declined or slow*: any
//! fault, expiry, or shed yields a typed error, never a partial result.
//!
//! # Scheduling, backpressure, deadlines
//!
//! `analyse` and `sweep` requests are enqueued into a bounded queue and
//! picked up by a pool of scheduler threads (spawned on demand).  When the
//! queue is full, the request is *shed* immediately with an `overloaded`
//! error whose `retry_after_ms` is derived from the measured *median*
//! latency of that op (the p50 bucket upper bound — robust against one
//! pathological request inflating the hint for everyone) — callers get
//! backpressure instead of unbounded memory.
//!
//! A request with `deadline_ms` is declined (typed `cancelled` error) when
//! the deadline expires before a worker picks it up, and the deadline is
//! propagated into the model checker as a cooperative cancellation token,
//! so an in-flight analysis stops at the next stage or shard boundary.
//! Stages are atomic with respect to cancellation: each completes fully
//! (and is then correct and safely cacheable) or unwinds with nothing
//! published — a deadline can never poison the cache.
//!
//! *Identical* in-flight requests **without deadlines** (same op, source,
//! bound, filter) are deduplicated at submit time — a duplicate registers
//! as a waiter on the in-flight job and the one computation answers every
//! waiter (the `deduplicated` counter in [`ServeSummary`]); waiters get
//! the leader's response body verbatim, including its `trace_id`, so a
//! deduplicated request profiles as the computation it rode.  Requests with
//! deadlines are never deduplicated: each must be able to expire
//! independently.  Within one `analyse` of a multi-function module, the
//! functions fan out across the rayon worker pool, and every worker shares
//! the same [`PersistentStore`] tiers.
//!
//! `stats` and `shutdown` are global barriers: they wait for all in-flight
//! work so their answers are deterministic.  `shutdown` additionally
//! flushes the disk tier (fsync) before acknowledging; EOF on a transport
//! performs the same drain + flush without the ack.
//!
//! # Per-request profiling
//!
//! With tracing enabled, every scheduled request runs under a root
//! `request:<op>` span; the queue wait (`service:admission`), the
//! computation (`service:compute`, under which the pipeline-stage and
//! checker-phase spans nest) and the response write (`service:respond`)
//! are children.  At respond time the trace is *retained* for later
//! `profile` queries when the request's end-to-end time reached the
//! configured slow-request threshold ([`Server::with_slow_threshold_ms`];
//! the default threshold of 0 retains every traced request), and dropped
//! otherwise — the retained set is the bounded slow-request log.
//!
//! # Transports
//!
//! [`Server::serve`] runs the protocol over any reader/writer pair
//! (stdin/stdout in production); [`Server::serve_tcp`] (see [`crate::tcp`])
//! runs it over a TCP listener with many concurrent connections, sharing
//! this scheduler.  Responses are byte-identical whichever transport or
//! worker count delivers them.

use crate::json::{self, Value};
use crate::latency::LatencySet;
use crate::store::PersistentStore;
use rustc_hash::FxHashMap;
use std::collections::VecDeque;
use std::io::{self, BufRead, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use tmg_core::tradeoff::{log_spaced_bounds, sweep_with_counts};
use tmg_core::{AnalysisReport, ModuleAnalysis, TieredStore, WcetAnalysis};
use tmg_minic::parse_program;
use tmg_tsys::CancelToken;

/// Protocol identifier echoed by every response.
pub const PROTOCOL: &str = "tmg-service/v1";

/// Queue slots before the scheduler sheds (see
/// [`Server::with_queue_capacity`]).
pub const DEFAULT_QUEUE_CAPACITY: usize = 256;

/// What one serve session did (used by the CI smokes and the loadtest).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeSummary {
    /// Request lines parsed.
    pub requests: u64,
    /// Responses written.
    pub responses: u64,
    /// Requests answered by piggy-backing on an identical in-flight one.
    pub deduplicated: u64,
    /// Requests declined with a typed `overloaded` error (queue full).
    pub shed: u64,
    /// Requests declined with a typed `overloaded` error because their
    /// client's fair-queuing quota was exhausted.
    pub quota_shed: u64,
    /// Requests declined with a typed `overloaded` error by the cost-aware
    /// shedder (expensive op class while the queue is deep).
    pub cost_shed: u64,
    /// Requests declined with a typed `cancelled` error because their
    /// deadline expired before a worker picked them up.
    pub expired: u64,
    /// Responses dropped because the requesting connection had closed
    /// before (or while) the response was written.
    pub disconnected: u64,
    /// Whether the session drained in-flight work and flushed the disk
    /// tier before ending (true for both `shutdown` and EOF).
    pub flushed: bool,
    /// Whether the session ended with an explicit `shutdown` (vs EOF).
    pub clean_shutdown: bool,
}

/// The request server.  See the module docs for protocol and semantics.
pub struct Server {
    store: Arc<PersistentStore>,
    workers: usize,
    queue_capacity: usize,
    /// Traced requests at least this slow (end-to-end) keep their spans
    /// for `profile`; faster ones drop them at respond time.
    slow_threshold_ms: u64,
    latency: Arc<LatencySet>,
    /// Per-client cap on *queued* jobs (fair-queuing quota); defaults to
    /// half the queue capacity so no single client can monopolise the
    /// backlog.
    client_quota: Option<usize>,
    /// Wire-level fault shots consumed by the TCP transport on response
    /// writes (see [`crate::fault::FaultKind::WIRE`]).  Inert by default.
    wire_faults: crate::fault::FaultPlan,
}

/// A parsed, schedulable request.
#[derive(Debug, Clone)]
pub(crate) enum Job {
    Analyse {
        id: u64,
        source: String,
        path_bound: u128,
        function: Option<String>,
    },
    AnalyseModule {
        id: u64,
        source: String,
        path_bound: u128,
    },
    Sweep {
        id: u64,
        source: String,
        max_bound: u128,
    },
}

impl Job {
    fn id(&self) -> u64 {
        match self {
            Job::Analyse { id, .. } | Job::AnalyseModule { id, .. } | Job::Sweep { id, .. } => *id,
        }
    }

    fn op_name(&self) -> &'static str {
        match self {
            Job::Analyse { .. } => "analyse",
            Job::AnalyseModule { .. } => "analyse_module",
            Job::Sweep { .. } => "sweep",
        }
    }

    /// Content key for in-flight deduplication: everything that determines
    /// the response body except the caller's `id`.  The full string (not a
    /// hash of it) keys the in-flight map, so two distinct requests can
    /// never share a computation by collision.
    fn dedup_key(&self) -> String {
        match self {
            Job::Analyse {
                source,
                path_bound,
                function,
                ..
            } => format!("analyse\u{0}{source}\u{0}{path_bound}\u{0}{function:?}"),
            Job::AnalyseModule {
                source, path_bound, ..
            } => format!("analyse_module\u{0}{source}\u{0}{path_bound}"),
            Job::Sweep {
                source, max_bound, ..
            } => format!("sweep\u{0}{source}\u{0}{max_bound}"),
        }
    }
}

/// How a transport delivers one response line.  Each transport (or TCP
/// connection) supplies its own, so the scheduler can route a response to
/// whichever connection asked.
pub(crate) type Respond<'env> = Arc<dyn Fn(u64, &str) + Send + Sync + 'env>;

/// An accepted request waiting for (or holding) a worker.
pub(crate) struct Pending<'env> {
    job: Job,
    respond: Respond<'env>,
    deadline: Option<Instant>,
    accepted_at: Instant,
    /// The request's trace id (caller-chosen or assigned at dispatch),
    /// echoed in the response and keying the recorded span tree.
    trace: u64,
    /// Fair-queuing lane: the declared `tenant`, or the transport's
    /// connection label when none is declared.
    lane: String,
}

/// Shared queue state, all under one lock: the per-client lanes, whether
/// the session is still accepting, and the number of parked-and-unclaimed
/// workers.  The idle count is *claimed* by the enqueuer at notify time —
/// checking it after the notify (as a separate atomic would) races against
/// the worker still waking up and would under-spawn a burst of distinct
/// jobs onto one thread.
///
/// Jobs are queued into one FIFO lane per client and drained round-robin
/// across lanes, so a client flooding its own lane delays only itself —
/// every other client still gets one job dequeued per rotation.
struct QueueState<'env> {
    /// Per-client FIFO lanes.  Invariant: a lane in the map is non-empty.
    lanes: FxHashMap<String, VecDeque<Pending<'env>>>,
    /// Round-robin rotation; contains each non-empty lane exactly once.
    rotation: VecDeque<String>,
    /// Total queued jobs across all lanes.
    queued: usize,
    open: bool,
    idle: usize,
}

/// Why an admission was declined with a typed `overloaded` error.
enum ShedReason {
    /// The global bounded queue is full.
    QueueFull,
    /// The client's fair-queuing quota is exhausted.
    Quota,
    /// The cost-aware shedder declined an expensive op class while the
    /// queue was deep.
    Cost,
}

/// How the scheduler accepted (or declined) a request.
enum Submitted<'env> {
    /// Queued; `needs_worker` asks the transport to spawn a scheduler
    /// thread if the cap allows.
    Queued { needs_worker: bool },
    /// Attached as a waiter to an identical in-flight job.
    Attached,
    /// Declined (queue full, quota exhausted, or cost-shed).  The request
    /// is handed back so the caller can answer it with a typed
    /// `overloaded` error.
    Shed(Pending<'env>, ShedReason),
}

/// The transport-independent scheduler: bounded queue, dedup map, drain
/// barrier, and the session counters.  One instance serves a whole session
/// regardless of transport; every TCP connection and the stdin loop submit
/// into the same queue.
pub(crate) struct Scheduler<'env> {
    queue: Mutex<QueueState<'env>>,
    queued: Condvar,
    capacity: usize,
    /// Per-client cap on queued jobs (fair-queuing quota).
    quota: usize,
    /// Requests accepted but not yet responded to (barrier condition).
    outstanding: Mutex<usize>,
    drained: Condvar,
    /// Dedup key of every queued-or-running no-deadline job → the duplicate
    /// requests waiting for the same response body.
    in_flight: Mutex<FxHashMap<String, Vec<(u64, Respond<'env>)>>>,
    requests: AtomicU64,
    responses: AtomicU64,
    dedup_hits: AtomicU64,
    shed: AtomicU64,
    quota_shed: AtomicU64,
    cost_shed: AtomicU64,
    expired: AtomicU64,
    /// Responses dropped on dead connections.  Shared (`Arc`) so transport
    /// respond closures can own a handle without borrowing the scheduler.
    disconnected: Arc<AtomicU64>,
}

impl<'env> Scheduler<'env> {
    pub(crate) fn new(capacity: usize, quota: usize) -> Scheduler<'env> {
        Scheduler {
            queue: Mutex::new(QueueState {
                lanes: FxHashMap::default(),
                rotation: VecDeque::new(),
                queued: 0,
                open: true,
                idle: 0,
            }),
            queued: Condvar::new(),
            capacity,
            quota,
            outstanding: Mutex::new(0),
            drained: Condvar::new(),
            in_flight: Mutex::new(FxHashMap::default()),
            requests: AtomicU64::new(0),
            responses: AtomicU64::new(0),
            dedup_hits: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            quota_shed: AtomicU64::new(0),
            cost_shed: AtomicU64::new(0),
            expired: AtomicU64::new(0),
            disconnected: Arc::new(AtomicU64::new(0)),
        }
    }

    /// A shared handle to the dropped-response counter, for transport
    /// respond closures outliving any borrow of the scheduler itself.
    pub(crate) fn disconnected_handle(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.disconnected)
    }

    /// Writes one response through the transport's responder and counts it.
    fn respond(&self, respond: &Respond<'env>, id: u64, body: &str) {
        respond(id, body);
        self.responses.fetch_add(1, Ordering::Relaxed);
    }

    /// Accepts a job: queues it into its client's lane, sheds it (bounded
    /// queue, per-client quota, or cost-aware shedding via `cost_veto`), or
    /// — when deduplicable and an identical job is already queued or
    /// running — registers the request as a waiter on that job (a waiter
    /// consumes no queue slot, so duplicates are never quota- or
    /// cost-shed).  A queued job claims a parked worker under the queue
    /// lock, so the caller's spawn decision cannot race the worker's
    /// wake-up.  Lock order: `in_flight` before `queue`.
    fn try_submit(
        &self,
        pending: Pending<'env>,
        dedup: bool,
        cost_veto: &dyn Fn(usize) -> bool,
    ) -> Submitted<'env> {
        let mut in_flight = if dedup {
            let mut in_flight = self.in_flight.lock().expect("in-flight map");
            if let Some(waiters) = in_flight.get_mut(&pending.job.dedup_key()) {
                waiters.push((pending.job.id(), Arc::clone(&pending.respond)));
                self.dedup_hits.fetch_add(1, Ordering::Relaxed);
                *self.outstanding.lock().expect("outstanding") += 1;
                return Submitted::Attached;
            }
            Some(in_flight)
        } else {
            None
        };
        let mut queue = self.queue.lock().expect("queue");
        if queue.queued >= self.capacity {
            self.shed.fetch_add(1, Ordering::Relaxed);
            return Submitted::Shed(pending, ShedReason::QueueFull);
        }
        let lane_depth = queue.lanes.get(&pending.lane).map_or(0, VecDeque::len);
        if lane_depth >= self.quota {
            self.quota_shed.fetch_add(1, Ordering::Relaxed);
            return Submitted::Shed(pending, ShedReason::Quota);
        }
        if cost_veto(queue.queued) {
            self.cost_shed.fetch_add(1, Ordering::Relaxed);
            return Submitted::Shed(pending, ShedReason::Cost);
        }
        if let Some(map) = in_flight.as_mut() {
            map.insert(pending.job.dedup_key(), Vec::new());
        }
        *self.outstanding.lock().expect("outstanding") += 1;
        if lane_depth == 0 {
            queue.rotation.push_back(pending.lane.clone());
        }
        let lane = pending.lane.clone();
        queue.lanes.entry(lane).or_default().push_back(pending);
        queue.queued += 1;
        let needs_worker = if queue.idle > 0 {
            queue.idle -= 1;
            self.queued.notify_one();
            false
        } else {
            true
        };
        Submitted::Queued { needs_worker }
    }

    pub(crate) fn close(&self) {
        self.queue.lock().expect("queue").open = false;
        self.queued.notify_all();
    }

    pub(crate) fn next(&self) -> Option<Pending<'env>> {
        let mut guard = self.queue.lock().expect("queue");
        // Whether this worker is currently counted in `idle`.  A claim
        // decrements the count at enqueue time; if a *different* worker
        // steals the job first, our stale park slot merely under-counts
        // idle workers, which at worst spawns an extra (cap-bounded)
        // thread — never the reverse.
        let mut parked = false;
        loop {
            // Round-robin across client lanes: take the front lane's
            // oldest job, then rotate the lane to the back (dropping it
            // from the rotation once empty).
            if let Some(lane_name) = guard.rotation.pop_front() {
                let lane = guard.lanes.get_mut(&lane_name).expect("non-empty lane");
                let job = lane.pop_front().expect("non-empty lane");
                if lane.is_empty() {
                    guard.lanes.remove(&lane_name);
                } else {
                    guard.rotation.push_back(lane_name);
                }
                guard.queued -= 1;
                return Some(job);
            }
            if !guard.open {
                if parked {
                    guard.idle = guard.idle.saturating_sub(1);
                }
                return None;
            }
            if !parked {
                guard.idle += 1;
                parked = true;
            }
            guard = self.queued.wait(guard).expect("queue wait");
        }
    }

    /// Blocks until every accepted job has been responded to.  Returns the
    /// number of jobs that were still outstanding when the barrier was
    /// entered — the `drained` count a `shutdown` ack reports.
    pub(crate) fn barrier(&self) -> usize {
        let mut outstanding = self.outstanding.lock().expect("outstanding");
        let waited_for = *outstanding;
        while *outstanding > 0 {
            outstanding = self.drained.wait(outstanding).expect("drain wait");
        }
        waited_for
    }

    fn job_done(&self) {
        let mut outstanding = self.outstanding.lock().expect("outstanding");
        *outstanding -= 1;
        if *outstanding == 0 {
            self.drained.notify_all();
        }
    }

    pub(crate) fn summary(&self, clean_shutdown: bool, flushed: bool) -> ServeSummary {
        ServeSummary {
            requests: self.requests.load(Ordering::Relaxed),
            responses: self.responses.load(Ordering::Relaxed),
            deduplicated: self.dedup_hits.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            quota_shed: self.quota_shed.load(Ordering::Relaxed),
            cost_shed: self.cost_shed.load(Ordering::Relaxed),
            expired: self.expired.load(Ordering::Relaxed),
            disconnected: self.disconnected.load(Ordering::Relaxed),
            flushed,
            clean_shutdown,
        }
    }

    /// The `resilience` member of the `stats` snapshot: the fairness and
    /// shedding counters of this session, plus the wire-level fault shots
    /// fired so far.
    fn resilience_json(&self, wire: &crate::fault::FaultPlan) -> String {
        let fired: Vec<String> = crate::fault::FaultKind::WIRE
            .into_iter()
            .map(|k| format!("\"{}\": {}", k.name(), wire.fired(k)))
            .collect();
        format!(
            "{{ \"shed\": {}, \"quota_shed\": {}, \"cost_shed\": {}, \
             \"disconnected\": {}, \"wire_faults\": {{ {} }} }}",
            self.shed.load(Ordering::Relaxed),
            self.quota_shed.load(Ordering::Relaxed),
            self.cost_shed.load(Ordering::Relaxed),
            self.disconnected.load(Ordering::Relaxed),
            fired.join(", ")
        )
    }
}

/// 64-bit FNV-1a of a request id, for deterministic retry-hint jitter.
fn fnv1a(id: u64) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in id.to_le_bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Adds deterministic per-request jitter to a retry hint: the hint is
/// spread over `[base, base + max(base, 16))`, keyed by the request id, so
/// a burst of simultaneously shed callers does not retry as one
/// thundering herd.  Seeding from the id (not a clock or RNG) keeps
/// responses bit-identical across runs and worker counts.
pub(crate) fn jittered_retry_ms(base_ms: u64, id: u64) -> u64 {
    let span = base_ms.max(16);
    base_ms + fnv1a(id) % span
}

/// The cost-aware shedding policy, as a pure function of the predicted
/// cost of the incoming op (`predicted_ms`), the cheapest and dearest
/// measured op classes (`min_ms`, `max_ms`), and the queue depth.
///
/// The expensive tail is shed first as the queue deepens: from half depth
/// the *most* expensive op class is declined, from three-quarters depth
/// everything costlier than the cheapest class is.  The cheapest measured
/// class (and any op with no measurements yet) is always admitted — cost
/// shedding degrades service, it never denies it entirely.
fn cost_sheds(predicted_ms: u64, min_ms: u64, max_ms: u64, queued: usize, capacity: usize) -> bool {
    if capacity == 0 || queued * 2 < capacity || min_ms == max_ms || predicted_ms <= min_ms {
        return false;
    }
    queued * 4 >= capacity * 3 || predicted_ms >= max_ms
}

/// Prefixes a response body with the echoed `trace_id` member.
fn with_trace(trace: u64, body: &str) -> String {
    format!("\"trace_id\": {trace}, {body}")
}

/// The root span name for a scheduled request.
fn request_span_name(job: &Job) -> &'static str {
    match job {
        Job::Analyse { .. } => "request:analyse",
        Job::AnalyseModule { .. } => "request:analyse_module",
        Job::Sweep { .. } => "request:sweep",
    }
}

/// The `profile` response body: the retained span tree for `trace`, or a
/// typed `unknown_trace` error when nothing is retained under that id.
fn profile_body(trace: u64) -> String {
    match tmg_obs::trace_spans(trace) {
        Some(spans) if !spans.is_empty() => {
            let tree = tmg_obs::build_tree(&spans);
            format!(
                "\"trace_id\": {trace}, \"op\": \"profile\", \"ok\": true, \
                 \"profile\": {{ \"schema\": \"tmg-obs-profile/v1\", \"trace_id\": {trace}, \
                 \"span_count\": {}, \"spans\": {} }}",
                spans.len(),
                tmg_obs::tree_json(&tree)
            )
        }
        _ => format!(
            "\"trace_id\": {trace}, \"op\": \"profile\", \"ok\": false, \
             \"error_kind\": \"unknown_trace\", \
             \"error\": \"no spans retained for trace {trace} (tracing disabled, request \
             below the slow threshold, or trace evicted)\""
        ),
    }
}

fn expired_body(op: &str) -> String {
    format!(
        "\"op\": \"{op}\", \"ok\": false, \"error_kind\": \"cancelled\", \
         \"error\": \"deadline expired before the request completed\""
    )
}

fn overloaded_body(op: &str, retry_after_ms: u64, reason: &ShedReason) -> String {
    let detail = match reason {
        ShedReason::QueueFull => "request queue is full",
        ShedReason::Quota => "per-client quota exhausted",
        ShedReason::Cost => "expensive request shed under queue pressure",
    };
    format!(
        "\"op\": \"{op}\", \"ok\": false, \"error_kind\": \"overloaded\", \
         \"error\": \"server overloaded; {detail}\", \
         \"retry_after_ms\": {retry_after_ms}"
    )
}

impl Server {
    /// A server over `store` with one scheduler thread per available core
    /// (capped at 8 — analyse jobs already fan out internally via rayon)
    /// and the default queue capacity.
    pub fn new(store: Arc<PersistentStore>) -> Server {
        let workers = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
            .min(8);
        let latency = Arc::new(LatencySet::default());
        latency.register();
        Server {
            store,
            workers,
            queue_capacity: DEFAULT_QUEUE_CAPACITY,
            slow_threshold_ms: 0,
            latency,
            client_quota: None,
            wire_faults: crate::fault::FaultPlan::none(),
        }
    }

    /// Overrides the scheduler thread count (minimum 1).
    pub fn with_workers(mut self, workers: usize) -> Server {
        self.workers = workers.max(1);
        self
    }

    /// Overrides the bounded queue capacity.  Requests beyond this backlog
    /// are shed with a typed `overloaded` error; `0` sheds everything
    /// (useful for testing caller backoff).
    pub fn with_queue_capacity(mut self, capacity: usize) -> Server {
        self.queue_capacity = capacity;
        self
    }

    /// Sets the slow-request threshold: a *traced* request whose
    /// end-to-end time reaches `ms` milliseconds keeps its spans for later
    /// `profile` queries, while faster requests drop theirs at respond
    /// time.  The default of `0` retains every traced request (the
    /// retained set is bounded either way).  Irrelevant while tracing is
    /// disabled — nothing is recorded in the first place.
    pub fn with_slow_threshold_ms(mut self, ms: u64) -> Server {
        self.slow_threshold_ms = ms;
        self
    }

    /// Overrides the per-client fair-queuing quota: the number of jobs one
    /// client (connection, or declared `tenant`) may have queued at once.
    /// Defaults to half the queue capacity (minimum 1), so a flooding
    /// client can never occupy the whole backlog.  Requests beyond the
    /// quota are declined with a typed `overloaded` error.
    pub fn with_client_quota(mut self, quota: usize) -> Server {
        self.client_quota = Some(quota);
        self
    }

    /// Arms wire-level fault injection on the TCP transport (see
    /// [`crate::fault::FaultKind::WIRE`]).  The plan is shared: the same
    /// plan can also arm the disk-tier kinds on the store.
    pub fn with_wire_faults(mut self, plan: crate::fault::FaultPlan) -> Server {
        self.wire_faults = plan;
        self
    }

    /// The effective per-client quota (see [`Server::with_client_quota`]).
    pub(crate) fn effective_quota(&self) -> usize {
        self.client_quota
            .unwrap_or_else(|| (self.queue_capacity / 2).max(1))
    }

    pub(crate) fn wire_fault_plan(&self) -> &crate::fault::FaultPlan {
        &self.wire_faults
    }

    pub(crate) fn worker_cap(&self) -> usize {
        self.workers.min(
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
        )
    }

    pub(crate) fn queue_capacity(&self) -> usize {
        self.queue_capacity
    }

    pub(crate) fn flush_store(&self) {
        self.store.flush();
    }

    /// Serves JSON-lines requests from `reader` until `shutdown` or EOF.
    /// This is the stdin/stdout transport: a thin adapter over the same
    /// scheduler the TCP transport uses.
    ///
    /// # Errors
    ///
    /// Returns the first I/O error of the reader (writer errors on a single
    /// response line are reported on stderr and do not kill the session).
    pub fn serve<R: BufRead, W: Write + Send>(
        &self,
        reader: R,
        writer: W,
    ) -> io::Result<ServeSummary> {
        let writer = Mutex::new(writer);
        let scheduler = Scheduler::new(self.queue_capacity, self.effective_quota());
        let mut clean_shutdown = false;
        std::thread::scope(|scope| -> io::Result<()> {
            let respond: Respond<'_> = Arc::new(|id, body| write_line(&writer, id, body));
            // Workers are spawned on demand: a fresh (non-duplicate) job
            // only starts a new thread when no existing worker is parked on
            // the queue and the cap leaves room.  A duplicate-heavy burst
            // therefore costs as many threads as it has distinct
            // computations — and never more threads than the host has
            // cores, because scheduler workers are CPU-bound.
            let cap = self.worker_cap();
            let spawned = AtomicUsize::new(0);
            let spawn_worker = || {
                let claim = spawned.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                    (n < cap).then_some(n + 1)
                });
                if claim.is_ok() {
                    scope.spawn(|| {
                        while let Some(pending) = scheduler.next() {
                            self.run_pending(&scheduler, pending);
                        }
                    });
                }
            };
            for line in reader.lines() {
                let line = match line {
                    Ok(line) => line,
                    Err(e) => {
                        scheduler.close();
                        return Err(e);
                    }
                };
                if line.trim().is_empty() {
                    continue;
                }
                if self.dispatch(&scheduler, &line, &respond, &spawn_worker, "stdio") {
                    clean_shutdown = true;
                    break;
                }
            }
            if !clean_shutdown {
                // EOF: same drain + flush as an explicit shutdown, minus
                // the ack (there is nobody left to read it).
                scheduler.barrier();
                self.store.flush();
            }
            scheduler.close();
            Ok(())
        })?;
        Ok(scheduler.summary(clean_shutdown, true))
    }

    /// Parses and executes one request line.  Control ops (`stats`,
    /// `shutdown`) run inline on the calling transport thread; jobs go
    /// through the scheduler.  `client` is the transport's label for the
    /// submitting connection — the fair-queuing lane when the request
    /// declares no `tenant`.  Returns `true` when the session must end
    /// (`shutdown` was acknowledged, with the drain and disk flush done).
    pub(crate) fn dispatch<'env>(
        &self,
        scheduler: &Scheduler<'env>,
        line: &str,
        respond: &Respond<'env>,
        spawn_worker: &dyn Fn(),
        client: &str,
    ) -> bool {
        scheduler.requests.fetch_add(1, Ordering::Relaxed);
        match parse_request(line) {
            Ok(Request::Job {
                job,
                deadline_ms,
                trace,
                tenant,
            }) => {
                let trace = trace.unwrap_or_else(tmg_obs::next_trace_id);
                let lane = tenant.unwrap_or_else(|| client.to_owned());
                self.submit(
                    scheduler,
                    job,
                    deadline_ms,
                    trace,
                    lane,
                    respond,
                    spawn_worker,
                );
                false
            }
            Ok(Request::Stats { id, trace }) => {
                let trace = trace.unwrap_or_else(tmg_obs::next_trace_id);
                // Barrier: counters reflect every request scripted before
                // this one.
                scheduler.barrier();
                let latency = self.latency.to_json();
                let resilience = scheduler.resilience_json(&self.wire_faults);
                let body = format!(
                    "\"trace_id\": {trace}, \"op\": \"stats\", \"ok\": true, \"stats\": {}",
                    self.store
                        .stats()
                        .to_json_with_sections(Some(&latency), Some(&resilience))
                );
                scheduler.respond(respond, id, &body);
                false
            }
            Ok(Request::Profile { id, trace }) => {
                // Barrier so that a profile scripted after its request is
                // deterministic: the request has responded (and retained
                // or dropped its spans) before we look the trace up.
                scheduler.barrier();
                scheduler.respond(respond, id, &profile_body(trace));
                false
            }
            Ok(Request::Shutdown { id, trace }) => {
                let trace = trace.unwrap_or_else(tmg_obs::next_trace_id);
                let drained = scheduler.barrier();
                self.store.flush();
                let body = format!(
                    "\"trace_id\": {trace}, \"op\": \"shutdown\", \"ok\": true, \
                     \"drained\": {drained}, \"flushed\": true"
                );
                scheduler.respond(respond, id, &body);
                true
            }
            Err((id, message)) => {
                let body = format!(
                    "\"ok\": false, \"error_kind\": \"fault\", \"error\": \"{}\"",
                    json::escape(&message)
                );
                scheduler.respond(respond, id.unwrap_or(0), &body);
                false
            }
        }
    }

    /// Admission control for one job: declines zero deadlines outright,
    /// sheds when the bounded queue is full, the client's quota is
    /// exhausted, or the cost-aware shedder vetoes an expensive op on a
    /// deep queue (each a typed `overloaded` error with a jittered
    /// `retry_after_ms` derived from the measured median latency of the
    /// op), deduplicates no-deadline requests, and otherwise queues into
    /// the client's lane.
    #[allow(clippy::too_many_arguments)]
    fn submit<'env>(
        &self,
        scheduler: &Scheduler<'env>,
        job: Job,
        deadline_ms: Option<u64>,
        trace: u64,
        lane: String,
        respond: &Respond<'env>,
        spawn_worker: &dyn Fn(),
    ) {
        let accepted_at = Instant::now();
        if deadline_ms == Some(0) {
            scheduler.expired.fetch_add(1, Ordering::Relaxed);
            scheduler.respond(
                respond,
                job.id(),
                &with_trace(trace, &expired_body(job.op_name())),
            );
            return;
        }
        let deadline = deadline_ms.map(|ms| accepted_at + Duration::from_millis(ms));
        let predicted = self.predicted_ms(&job);
        let (min_cost, max_cost) = self.cost_profile();
        let capacity = self.queue_capacity;
        let cost_veto =
            move |queued: usize| cost_sheds(predicted, min_cost, max_cost, queued, capacity);
        let pending = Pending {
            job,
            respond: Arc::clone(respond),
            deadline,
            accepted_at,
            trace,
            lane,
        };
        match scheduler.try_submit(pending, deadline.is_none(), &cost_veto) {
            Submitted::Queued { needs_worker } => {
                if needs_worker {
                    spawn_worker();
                }
            }
            Submitted::Attached => {}
            Submitted::Shed(pending, reason) => {
                let retry = jittered_retry_ms(self.retry_hint_ms(&pending.job), pending.job.id());
                scheduler.respond(
                    &pending.respond,
                    pending.job.id(),
                    &with_trace(
                        pending.trace,
                        &overloaded_body(pending.job.op_name(), retry, &reason),
                    ),
                );
            }
        }
    }

    /// How long a shed caller should back off: the measured *median*
    /// latency of the op (the p50 bucket upper bound — the typical time
    /// for one queue slot to free up), or 50 ms before any measurement
    /// exists.  The mean would be hostage to one pathological request: a
    /// single 10-second outlier among millisecond requests would tell
    /// every shed caller to back off for seconds.  (The caller adds
    /// deterministic per-request jitter via [`jittered_retry_ms`].)
    fn retry_hint_ms(&self, job: &Job) -> u64 {
        let histogram = match job {
            Job::Analyse { .. } => &self.latency.analyse,
            Job::AnalyseModule { .. } => &self.latency.analyse_module,
            Job::Sweep { .. } => &self.latency.sweep,
        };
        if histogram.count() == 0 {
            50
        } else {
            (histogram.quantile_ms(0.50).ceil() as u64).max(1)
        }
    }

    /// The cost model behind adaptive shedding: an op's predicted cost is
    /// its measured median latency (0 while unmeasured — an unknown op is
    /// never cost-shed).
    fn predicted_ms(&self, job: &Job) -> u64 {
        let histogram = match job {
            Job::Analyse { .. } => &self.latency.analyse,
            Job::AnalyseModule { .. } => &self.latency.analyse_module,
            Job::Sweep { .. } => &self.latency.sweep,
        };
        if histogram.count() == 0 {
            0
        } else {
            (histogram.quantile_ms(0.50).ceil() as u64).max(1)
        }
    }

    /// `(cheapest, dearest)` predicted cost across the measured op
    /// classes; `(0, 0)` while fewer than one class has measurements.
    fn cost_profile(&self) -> (u64, u64) {
        let costs = [
            &self.latency.analyse,
            &self.latency.analyse_module,
            &self.latency.sweep,
        ]
        .into_iter()
        .filter(|h| h.count() > 0)
        .map(|h| (h.quantile_ms(0.50).ceil() as u64).max(1));
        costs.fold((0, 0), |(min, max), cost| {
            if min == 0 {
                (cost, cost.max(max))
            } else {
                (min.min(cost), max.max(cost))
            }
        })
    }

    /// Computes one job and answers it plus every waiter that attached to
    /// it while it was queued or running.  A job whose deadline expired in
    /// the queue is declined without running.
    pub(crate) fn run_pending<'env>(&self, scheduler: &Scheduler<'env>, pending: Pending<'env>) {
        let Pending {
            job,
            respond,
            deadline,
            accepted_at,
            trace,
            lane: _,
        } = pending;
        let id = job.id();
        if deadline.is_some_and(|d| Instant::now() >= d) {
            scheduler.expired.fetch_add(1, Ordering::Relaxed);
            scheduler.respond(
                &respond,
                id,
                &with_trace(trace, &expired_body(job.op_name())),
            );
            scheduler.job_done();
            return;
        }
        let cancel = deadline.map_or_else(CancelToken::none, CancelToken::with_deadline);
        // The whole request runs under a root `request:<op>` span in its
        // own trace; the queue wait (measured between two instants, so
        // recorded manually), the computation — under which the pipeline
        // and checker spans nest — and the response write are children.
        let trace_scope = tmg_obs::enter_trace(tmg_obs::TraceContext { trace, parent: 0 });
        let root = tmg_obs::span(request_span_name(&job));
        tmg_obs::record_manual(
            "service:admission",
            trace,
            root.id(),
            tmg_obs::instant_us(accepted_at),
            tmg_obs::now_us(),
        );
        let body = {
            let _compute = tmg_obs::span("service:compute");
            catch_unwind(AssertUnwindSafe(|| self.handle(&job, cancel))).unwrap_or_else(|_| {
                "\"ok\": false, \"error_kind\": \"fault\", \"error\": \"internal error\"".to_owned()
            })
        };
        let body = with_trace(trace, &body);
        let histogram = match &job {
            Job::Analyse { .. } => &self.latency.analyse,
            Job::AnalyseModule { .. } => &self.latency.analyse_module,
            Job::Sweep { .. } => &self.latency.sweep,
        };
        histogram.record(accepted_at.elapsed());
        let waiters = if deadline.is_none() {
            scheduler
                .in_flight
                .lock()
                .expect("in-flight map")
                .remove(&job.dedup_key())
                .unwrap_or_default()
        } else {
            Vec::new()
        };
        {
            let _respond_span = tmg_obs::span("service:respond");
            scheduler.respond(&respond, id, &body);
        }
        // Close the root and leave the trace: the thread-local buffer
        // flushes into the trace's live bucket, so the retain/drop
        // decision below sees every span.  It must land before
        // `job_done` releases the drain barrier, or a pipelined
        // `profile` could look the trace up first.
        drop(root);
        drop(trace_scope);
        if accepted_at.elapsed() >= Duration::from_millis(self.slow_threshold_ms) {
            tmg_obs::retain_trace(trace);
        } else {
            tmg_obs::discard_trace(trace);
        }
        scheduler.job_done();
        for (waiter, waiter_respond) in waiters {
            scheduler.respond(&waiter_respond, waiter, &body);
            scheduler.job_done();
        }
    }

    /// Produces the response body (everything after the `id` member).
    fn handle(&self, job: &Job, cancel: CancelToken) -> String {
        match job {
            Job::Analyse {
                source,
                path_bound,
                function,
                ..
            } => self.handle_analyse(source, *path_bound, function.as_deref(), cancel),
            Job::AnalyseModule {
                source, path_bound, ..
            } => self.handle_analyse_module(source, *path_bound, cancel),
            Job::Sweep {
                source, max_bound, ..
            } => self.handle_sweep(source, *max_bound),
        }
    }

    fn handle_analyse(
        &self,
        source: &str,
        path_bound: u128,
        filter: Option<&str>,
        cancel: CancelToken,
    ) -> String {
        let program = match parse_program(source) {
            Ok(program) => program,
            Err(e) => {
                return format!(
                "\"op\": \"analyse\", \"ok\": false, \"error_kind\": \"fault\", \"error\": \"{}\"",
                json::escape(&e.to_string())
            )
            }
        };
        let functions: Vec<_> = program
            .functions
            .iter()
            .filter(|f| filter.is_none_or(|name| f.name == name))
            .cloned()
            .collect();
        if functions.is_empty() {
            return "\"op\": \"analyse\", \"ok\": false, \"error_kind\": \"fault\", \"error\": \"no matching function\""
                .to_owned();
        }
        let store: Arc<dyn TieredStore> = self.store.clone();
        let analysis = WcetAnalysis::new(path_bound)
            .with_store(store)
            .with_cancel(cancel);
        // Independent functions fan out across the rayon pool; the staged
        // pipeline behind the shared store deduplicates the artifacts.
        let results = analysis.analyse_all(&functions);
        for result in &results {
            if let Err(e) = result {
                let kind = if e.is_cancelled() {
                    "cancelled"
                } else {
                    "fault"
                };
                return format!(
                    "\"op\": \"analyse\", \"ok\": false, \"error_kind\": \"{kind}\", \"error\": \"{}\"",
                    json::escape(&e.to_string())
                );
            }
        }
        let reports: Vec<String> = results
            .into_iter()
            .map(|r| report_json(&r.expect("checked above")))
            .collect();
        format!(
            "\"op\": \"analyse\", \"ok\": true, \"reports\": [{}]",
            reports.join(", ")
        )
    }

    /// The interprocedural composition op: analyses the whole module
    /// bottom-up over the persistent tiers, so a repeat request (or an
    /// edited module) is differential — only the dirty cone recomputes.
    fn handle_analyse_module(&self, source: &str, path_bound: u128, cancel: CancelToken) -> String {
        let program = match parse_program(source) {
            Ok(program) => program,
            Err(e) => {
                return format!(
                "\"op\": \"analyse_module\", \"ok\": false, \"error_kind\": \"fault\", \"error\": \"{}\"",
                json::escape(&e.to_string())
            )
            }
        };
        let store: Arc<dyn TieredStore> = self.store.clone();
        let analysis = ModuleAnalysis::new(path_bound)
            .with_store(store)
            .with_cancel(cancel);
        let report = match analysis.analyse_module(&program) {
            Ok(report) => report,
            Err(e) => {
                let kind = if e.is_cancelled() {
                    "cancelled"
                } else {
                    "fault"
                };
                return format!(
                    "\"op\": \"analyse_module\", \"ok\": false, \"error_kind\": \"{kind}\", \"error\": \"{}\"",
                    json::escape(&e.to_string())
                );
            }
        };
        let roots: Vec<String> = report
            .roots
            .iter()
            .map(|r| {
                format!(
                    "{{ \"function\": \"{}\", \"wcet_bound\": {} }}",
                    json::escape(&r.function),
                    r.wcet_bound
                )
            })
            .collect();
        let summaries: Vec<String> = report
            .summaries
            .iter()
            .map(|s| {
                let callees: Vec<String> = s
                    .callees
                    .iter()
                    .map(|c| format!("\"{}\"", json::escape(c)))
                    .collect();
                format!(
                    "{{ \"function\": \"{}\", \"wcet_bound\": {}, \"callees\": [{}], \"from_cache\": {} }}",
                    json::escape(&s.function),
                    s.wcet_bound,
                    callees.join(", "),
                    s.from_cache
                )
            })
            .collect();
        let reports: Vec<String> = report.reports.iter().map(report_json).collect();
        format!(
            "\"op\": \"analyse_module\", \"ok\": true, \"module_key\": \"{}\", \
             \"summaries_reused\": {}, \"summaries_computed\": {}, \
             \"roots\": [{}], \"summaries\": [{}], \"reports\": [{}]",
            tmg_cfg::key_hex(report.module_key),
            report.summaries_reused,
            report.summaries_computed,
            roots.join(", "),
            summaries.join(", "),
            reports.join(", ")
        )
    }

    fn handle_sweep(&self, source: &str, max_bound: u128) -> String {
        let program = match parse_program(source) {
            Ok(program) => program,
            Err(e) => {
                return format!(
                "\"op\": \"sweep\", \"ok\": false, \"error_kind\": \"fault\", \"error\": \"{}\"",
                json::escape(&e.to_string())
            )
            }
        };
        let Some(function) = program.functions.first() else {
            return "\"op\": \"sweep\", \"ok\": false, \"error_kind\": \"fault\", \"error\": \"empty module\"".to_owned();
        };
        // Lowering goes through the tiers, so a warm sweep of a known
        // function re-reads the cached CFG and path counts from disk.
        let lowered = self
            .store
            .lowered_keyed(function, tmg_cfg::function_fingerprint(function));
        let points = sweep_with_counts(&lowered.counts, &log_spaced_bounds(max_bound.max(1)));
        let rendered: Vec<String> = points
            .iter()
            .map(|p| {
                format!(
                    "{{ \"path_bound\": {}, \"instrumentation_points\": {}, \"measurements\": {}, \"segments\": {} }}",
                    p.path_bound, p.instrumentation_points, p.measurements, p.segments
                )
            })
            .collect();
        format!(
            "\"op\": \"sweep\", \"ok\": true, \"function\": \"{}\", \"points\": [{}]",
            json::escape(&function.name),
            rendered.join(", ")
        )
    }
}

/// Renders one [`AnalysisReport`] as a JSON object.
fn report_json(r: &AnalysisReport) -> String {
    let exhaustive = match r.exhaustive_max {
        Some(v) => v.to_string(),
        None => "null".to_owned(),
    };
    format!(
        "{{ \"function\": \"{}\", \"path_bound\": {}, \"segments\": {}, \"instrumentation_points\": {}, \"measurements\": {}, \"goals\": {}, \"heuristic_covered\": {}, \"checker_covered\": {}, \"infeasible\": {}, \"unknown\": {}, \"measurement_runs\": {}, \"wcet_bound\": {}, \"exhaustive_max\": {} }}",
        json::escape(&r.function),
        r.path_bound,
        r.segments,
        r.instrumentation_points,
        r.measurements,
        r.goals,
        r.heuristic_covered,
        r.checker_covered,
        r.infeasible,
        r.unknown,
        r.measurement_runs,
        r.wcet_bound,
        exhaustive
    )
}

enum Request {
    Job {
        job: Job,
        deadline_ms: Option<u64>,
        /// Caller-chosen trace id; assigned at dispatch when absent.
        trace: Option<u64>,
        /// Declared fair-queuing tenant; the transport's connection label
        /// is the lane when absent.
        tenant: Option<String>,
    },
    Stats {
        id: u64,
        trace: Option<u64>,
    },
    /// `trace` here is the trace to look up, not this request's own tag.
    Profile {
        id: u64,
        trace: u64,
    },
    Shutdown {
        id: u64,
        trace: Option<u64>,
    },
}

type RequestError = (Option<u64>, String);

fn parse_request(line: &str) -> Result<Request, RequestError> {
    let value = json::parse(line).map_err(|e| (None, format!("invalid request: {e}")))?;
    let id = value.get("id").and_then(Value::as_u64);
    let op = value
        .get("op")
        .and_then(Value::as_str)
        .ok_or((id, "missing op".to_owned()))?;
    let id = id.ok_or((None, "missing id".to_owned()))?;
    let deadline_ms = match value.get("deadline_ms") {
        None => None,
        Some(v) => Some(v.as_u64().ok_or((
            Some(id),
            "deadline_ms must be a non-negative integer".to_owned(),
        ))?),
    };
    let trace = match value.get("trace_id") {
        None => None,
        Some(v) => Some(
            v.as_u64()
                .filter(|t| *t >= 1)
                .ok_or((Some(id), "trace_id must be a positive integer".to_owned()))?,
        ),
    };
    let tenant = match value.get("tenant") {
        None => None,
        Some(v) => Some(
            v.as_str()
                .filter(|t| !t.is_empty())
                .ok_or((Some(id), "tenant must be a non-empty string".to_owned()))?
                .to_owned(),
        ),
    };
    match op {
        "analyse" => {
            let source = value
                .get("source")
                .and_then(Value::as_str)
                .ok_or((Some(id), "analyse needs a source".to_owned()))?
                .to_owned();
            let path_bound = match value.get("path_bound") {
                None => 1,
                Some(v) => v
                    .as_u128()
                    .filter(|b| *b >= 1)
                    .ok_or((Some(id), "path_bound must be a positive integer".to_owned()))?,
            };
            let function = value
                .get("function")
                .and_then(Value::as_str)
                .map(str::to_owned);
            Ok(Request::Job {
                job: Job::Analyse {
                    id,
                    source,
                    path_bound,
                    function,
                },
                deadline_ms,
                trace,
                tenant,
            })
        }
        "analyse_module" => {
            let source = value
                .get("source")
                .and_then(Value::as_str)
                .ok_or((Some(id), "analyse_module needs a source".to_owned()))?
                .to_owned();
            let path_bound = match value.get("path_bound") {
                None => 1,
                Some(v) => v
                    .as_u128()
                    .filter(|b| *b >= 1)
                    .ok_or((Some(id), "path_bound must be a positive integer".to_owned()))?,
            };
            Ok(Request::Job {
                job: Job::AnalyseModule {
                    id,
                    source,
                    path_bound,
                },
                deadline_ms,
                trace,
                tenant,
            })
        }
        "sweep" => {
            let source = value
                .get("source")
                .and_then(Value::as_str)
                .ok_or((Some(id), "sweep needs a source".to_owned()))?
                .to_owned();
            let max_bound = match value.get("max_bound") {
                None => 1_000_000,
                Some(v) => v
                    .as_u128()
                    .filter(|b| *b >= 1)
                    .ok_or((Some(id), "max_bound must be a positive integer".to_owned()))?,
            };
            Ok(Request::Job {
                job: Job::Sweep {
                    id,
                    source,
                    max_bound,
                },
                deadline_ms,
                trace,
                tenant,
            })
        }
        "stats" => Ok(Request::Stats { id, trace }),
        "profile" => {
            let trace = trace.ok_or((
                Some(id),
                "profile needs the trace_id of a completed request".to_owned(),
            ))?;
            Ok(Request::Profile { id, trace })
        }
        "shutdown" => Ok(Request::Shutdown { id, trace }),
        other => Err((Some(id), format!("unknown op `{other}`"))),
    }
}

/// Writes one response line `{"id":N,<body>}`.
fn write_line<W: Write>(writer: &Mutex<W>, id: u64, body: &str) {
    let mut writer = writer.lock().expect("writer");
    let write = writeln!(writer, "{{\"id\": {id}, {body}}}").and_then(|()| writer.flush());
    if let Err(e) = write {
        eprintln!("tmg-service: dropping response for request {id}: {e}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::PersistentStoreConfig;
    use std::io::Cursor;

    fn temp_root(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("tmg-service-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn open_store(root: &std::path::Path) -> Arc<PersistentStore> {
        Arc::new(PersistentStore::with_config(PersistentStoreConfig::new(root)).expect("open"))
    }

    fn serve_script(server: &Server, script: &str) -> (ServeSummary, Vec<Value>) {
        let mut out = Vec::new();
        let summary = server
            .serve(Cursor::new(script.to_owned()), &mut out)
            .expect("serve");
        let text = String::from_utf8(out).expect("utf-8 responses");
        let mut responses: Vec<Value> = text
            .lines()
            .map(|line| json::parse(line).expect("response parses"))
            .collect();
        responses.sort_by_key(|v| v.get("id").and_then(Value::as_u64).unwrap_or(0));
        (summary, responses)
    }

    const SOURCE: &str = "void f(char a __range(0, 3)) { if (a > 1) { x(); } else { y(); } }";

    #[test]
    fn analyse_stats_and_shutdown_round_trip() {
        let root = temp_root("roundtrip");
        let store = open_store(&root);
        let script = format!(
            "{}\n{}\n{}\n",
            format_args!(
                "{{\"id\": 1, \"op\": \"analyse\", \"source\": \"{}\", \"path_bound\": 2}}",
                json::escape(SOURCE)
            ),
            "{\"id\": 2, \"op\": \"stats\"}",
            "{\"id\": 3, \"op\": \"shutdown\"}"
        );
        let server = Server::new(store).with_workers(2);
        let (summary, responses) = serve_script(&server, &script);
        assert!(summary.clean_shutdown);
        assert!(summary.flushed);
        assert_eq!(summary.requests, 3);
        assert_eq!(summary.responses, 3);
        assert_eq!(summary.shed, 0);
        assert_eq!(summary.expired, 0);
        let analyse = &responses[0];
        assert_eq!(analyse.get("ok").and_then(Value::as_bool), Some(true));
        let reports = analyse
            .get("reports")
            .and_then(Value::as_array)
            .expect("reports");
        assert_eq!(reports.len(), 1);
        assert!(
            reports[0]
                .get("wcet_bound")
                .and_then(Value::as_u64)
                .unwrap()
                > 0
        );
        let stats = &responses[1];
        assert_eq!(stats.get("ok").and_then(Value::as_bool), Some(true));
        // The snapshot embeds the per-op latency histograms: the analyse we
        // just ran must be on the record.
        let latency = stats
            .get("stats")
            .and_then(|s| s.get("latency"))
            .expect("latency histograms in stats");
        assert_eq!(
            latency
                .get("analyse")
                .and_then(|a| a.get("count"))
                .and_then(Value::as_u64),
            Some(1)
        );
        let shutdown = &responses[2];
        assert_eq!(shutdown.get("op").and_then(Value::as_str), Some("shutdown"));
        assert_eq!(
            shutdown.get("flushed").and_then(Value::as_bool),
            Some(true),
            "shutdown acks the drain + flush explicitly"
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn identical_concurrent_requests_are_deduplicated() {
        let root = temp_root("dedup");
        let store = open_store(&root);
        let request = format!(
            "{{\"id\": ID, \"op\": \"analyse\", \"source\": \"{}\", \"path_bound\": 4}}",
            json::escape(SOURCE)
        );
        let mut script = String::new();
        for id in 1..=6 {
            script.push_str(&request.replace("ID", &id.to_string()));
            script.push('\n');
        }
        script.push_str("{\"id\": 7, \"op\": \"shutdown\"}\n");
        let server = Server::new(store).with_workers(4);
        let (summary, responses) = serve_script(&server, &script);
        assert_eq!(summary.responses, 7);
        assert!(
            summary.deduplicated > 0,
            "six identical concurrent requests must share a computation"
        );
        // All six analyse responses are identical apart from the id.
        let bodies: Vec<&[Value]> = responses[..6]
            .iter()
            .map(|r| r.get("reports").and_then(Value::as_array).expect("reports"))
            .collect();
        for body in &bodies[1..] {
            assert_eq!(*body, bodies[0]);
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn analyse_module_composes_and_serves_warm_on_repeat() {
        let root = temp_root("module-op");
        let store = open_store(&root);
        let module = "void leaf(char v __range(0, 3)) { if (v > 1) { work(); } } \
                      void top(char a __range(0, 3)) { leaf(a); }";
        let script = format!(
            "{{\"id\": 1, \"op\": \"analyse_module\", \"source\": \"{}\", \"path_bound\": 4}}\n\
             {{\"id\": 2, \"op\": \"shutdown\"}}\n",
            json::escape(module)
        );
        let server = Server::new(store.clone()).with_workers(2);
        let (_, cold) = serve_script(&server, &script);
        let first = &cold[0];
        assert_eq!(first.get("ok").and_then(Value::as_bool), Some(true));
        assert_eq!(
            first.get("summaries_computed").and_then(Value::as_u64),
            Some(2)
        );
        let roots = first.get("roots").and_then(Value::as_array).expect("roots");
        assert_eq!(roots.len(), 1);
        assert_eq!(
            roots[0].get("function").and_then(Value::as_str),
            Some("top")
        );
        let composed = roots[0]
            .get("wcet_bound")
            .and_then(Value::as_u64)
            .expect("bound");
        let summaries = first
            .get("summaries")
            .and_then(Value::as_array)
            .expect("summaries");
        let leaf_bound = summaries[0]
            .get("wcet_bound")
            .and_then(Value::as_u64)
            .expect("leaf bound");
        assert!(
            composed > leaf_bound,
            "the root's composed bound embeds the callee's"
        );
        // Same request against the same store in a fresh session: every
        // summary is served warm, and the answer is byte-identical.
        let warm_server = Server::new(store).with_workers(2);
        let (_, warm) = serve_script(&warm_server, &script);
        assert_eq!(
            warm[0].get("summaries_reused").and_then(Value::as_u64),
            Some(2)
        );
        assert_eq!(
            warm[0].get("summaries_computed").and_then(Value::as_u64),
            Some(0)
        );
        assert_eq!(warm[0].get("reports"), first.get("reports"));
        assert_eq!(warm[0].get("module_key"), first.get("module_key"));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn malformed_and_unknown_requests_fail_cleanly() {
        let root = temp_root("errors");
        let store = open_store(&root);
        let script = "this is not json\n\
                      {\"id\": 2, \"op\": \"frobnicate\"}\n\
                      {\"id\": 3, \"op\": \"analyse\", \"source\": \"void f( {\"}\n\
                      {\"id\": 4, \"op\": \"analyse\", \"source\": \"void f() { }\", \"path_bound\": 0}\n\
                      {\"id\": 5, \"op\": \"shutdown\"}\n";
        let server = Server::new(store).with_workers(2);
        let (summary, responses) = serve_script(&server, script);
        assert!(summary.clean_shutdown);
        assert_eq!(summary.responses, 5);
        for r in &responses[..4] {
            assert_eq!(
                r.get("ok").and_then(Value::as_bool),
                Some(false),
                "request {:?} should fail",
                r.get("id")
            );
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn sweep_returns_the_tradeoff_curve() {
        let root = temp_root("sweep");
        let store = open_store(&root);
        let script = format!(
            "{{\"id\": 1, \"op\": \"sweep\", \"source\": \"{}\", \"max_bound\": 100}}\n{{\"id\": 2, \"op\": \"shutdown\"}}\n",
            json::escape(SOURCE)
        );
        let server = Server::new(store).with_workers(1);
        let (_, responses) = serve_script(&server, &script);
        let sweep = &responses[0];
        assert_eq!(sweep.get("ok").and_then(Value::as_bool), Some(true));
        let points = sweep
            .get("points")
            .and_then(Value::as_array)
            .expect("points");
        assert!(!points.is_empty());
        assert!(points[0].get("instrumentation_points").is_some());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn a_zero_deadline_is_declined_with_a_typed_cancellation() {
        let root = temp_root("deadline-zero");
        let store = open_store(&root);
        let script = format!(
            "{{\"id\": 1, \"op\": \"analyse\", \"source\": \"{}\", \"path_bound\": 2, \"deadline_ms\": 0}}\n\
             {{\"id\": 2, \"op\": \"shutdown\"}}\n",
            json::escape(SOURCE)
        );
        let server = Server::new(store).with_workers(2);
        let (summary, responses) = serve_script(&server, &script);
        assert_eq!(summary.expired, 1);
        assert_eq!(summary.responses, 2);
        let declined = &responses[0];
        assert_eq!(declined.get("ok").and_then(Value::as_bool), Some(false));
        assert_eq!(
            declined.get("error_kind").and_then(Value::as_str),
            Some("cancelled")
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn a_generous_deadline_changes_nothing_about_the_answer() {
        let root_plain = temp_root("deadline-plain");
        let root_deadline = temp_root("deadline-generous");
        let request = format!(
            "{{\"id\": 1, \"op\": \"analyse\", \"source\": \"{}\", \"path_bound\": 4DEADLINE}}\n\
             {{\"id\": 2, \"op\": \"shutdown\"}}\n",
            json::escape(SOURCE)
        );
        let plain = Server::new(open_store(&root_plain)).with_workers(2);
        let (_, plain_responses) = serve_script(&plain, &request.replace("DEADLINE", ""));
        let with_deadline = Server::new(open_store(&root_deadline)).with_workers(2);
        let (summary, deadline_responses) = serve_script(
            &with_deadline,
            &request.replace("DEADLINE", ", \"deadline_ms\": 60000"),
        );
        assert_eq!(summary.expired, 0);
        assert_eq!(
            plain_responses[0].get("reports"),
            deadline_responses[0].get("reports"),
            "a deadline that never fires must not change the answer"
        );
        let _ = std::fs::remove_dir_all(&root_plain);
        let _ = std::fs::remove_dir_all(&root_deadline);
    }

    #[test]
    fn a_full_queue_sheds_with_a_typed_overload_and_retry_hint() {
        let root = temp_root("shed");
        let store = open_store(&root);
        let script = format!(
            "{{\"id\": 1, \"op\": \"analyse\", \"source\": \"{}\", \"path_bound\": 2}}\n\
             {{\"id\": 2, \"op\": \"shutdown\"}}\n",
            json::escape(SOURCE)
        );
        // Capacity 0: every job is shed at admission, deterministically.
        let server = Server::new(store).with_workers(2).with_queue_capacity(0);
        let (summary, responses) = serve_script(&server, &script);
        assert_eq!(summary.shed, 1);
        assert_eq!(summary.responses, 2);
        assert!(summary.clean_shutdown, "shedding must not wedge shutdown");
        let shed = &responses[0];
        assert_eq!(shed.get("ok").and_then(Value::as_bool), Some(false));
        assert_eq!(
            shed.get("error_kind").and_then(Value::as_str),
            Some("overloaded")
        );
        assert!(
            shed.get("retry_after_ms").and_then(Value::as_u64).unwrap() > 0,
            "an overload response must tell the caller when to retry"
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn responses_are_identical_across_one_and_many_workers() {
        let sources = [
            "void f(char a __range(0, 3)) { if (a > 1) { x(); } else { y(); } }",
            "void g(char b __range(0, 7)) { if (b > 4) { p(); } if (b > 6) { q(); } }",
            "void h(bool c) { if (c) { r(); } }",
        ];
        // Pin each request's trace_id: auto-assigned ids come from a
        // process-wide counter, so only pinned traces can be byte-compared
        // across two server runs.
        let mut script = String::new();
        for (i, source) in sources.iter().enumerate() {
            script.push_str(&format!(
                "{{\"id\": {id}, \"op\": \"analyse\", \"source\": \"{}\", \"path_bound\": 4, \"trace_id\": {id}}}\n",
                json::escape(source),
                id = i + 1,
            ));
        }
        script.push_str(&format!(
            "{{\"id\": 9, \"op\": \"sweep\", \"source\": \"{}\", \"max_bound\": 1000, \"trace_id\": 9}}\n",
            json::escape(sources[0])
        ));
        script.push_str("{\"id\": 10, \"op\": \"shutdown\", \"trace_id\": 10}\n");

        let root_one = temp_root("workers-one");
        let one = Server::new(open_store(&root_one)).with_workers(1);
        let (_, one_responses) = serve_script(&one, &script);
        let root_many = temp_root("workers-many");
        let many = Server::new(open_store(&root_many)).with_workers(4);
        let (_, many_responses) = serve_script(&many, &script);
        assert_eq!(
            one_responses, many_responses,
            "the scheduler must answer identically with 1 and N workers"
        );
        let _ = std::fs::remove_dir_all(&root_one);
        let _ = std::fs::remove_dir_all(&root_many);
    }

    #[test]
    fn eof_drains_and_flushes_without_a_clean_shutdown() {
        let root = temp_root("eof");
        let store = open_store(&root);
        let script = format!(
            "{{\"id\": 1, \"op\": \"analyse\", \"source\": \"{}\", \"path_bound\": 2}}\n",
            json::escape(SOURCE)
        );
        let server = Server::new(store).with_workers(2);
        let (summary, responses) = serve_script(&server, &script);
        assert!(!summary.clean_shutdown, "EOF is not a shutdown");
        assert!(summary.flushed, "EOF still drains and flushes");
        assert_eq!(summary.responses, 1, "in-flight work was answered");
        assert_eq!(responses[0].get("ok").and_then(Value::as_bool), Some(true));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn every_response_echoes_a_trace_id() {
        let root = temp_root("trace-echo");
        let store = open_store(&root);
        let script = format!(
            "{{\"id\": 1, \"op\": \"analyse\", \"source\": \"{}\", \"path_bound\": 2, \"trace_id\": 424242}}\n\
             {{\"id\": 2, \"op\": \"stats\"}}\n\
             {{\"id\": 3, \"op\": \"shutdown\"}}\n",
            json::escape(SOURCE)
        );
        let server = Server::new(store).with_workers(2);
        let (_, responses) = serve_script(&server, &script);
        // A caller-chosen trace_id is echoed verbatim; the others get a
        // server-assigned (nonzero) one.
        assert_eq!(
            responses[0].get("trace_id").and_then(Value::as_u64),
            Some(424_242)
        );
        for r in &responses[1..] {
            assert!(
                r.get("trace_id").and_then(Value::as_u64).unwrap_or(0) > 0,
                "auto-assigned trace_id missing in {r:?}"
            );
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn retry_hints_track_the_median_latency_not_the_mean() {
        let root = temp_root("retry-median");
        let store = open_store(&root);
        // Capacity 0: the analyse request is shed deterministically.
        let server = Server::new(store).with_workers(1).with_queue_capacity(0);
        // Bimodal history: nine 1 ms requests and one 10 s outlier.  The
        // mean (~1001 ms) would tell every shed caller to back off for a
        // second; the median says a queue slot frees up in ~1 ms.
        for _ in 0..9 {
            server.latency.analyse.record(Duration::from_millis(1));
        }
        server.latency.analyse.record(Duration::from_secs(10));
        let script = format!(
            "{{\"id\": 1, \"op\": \"analyse\", \"source\": \"{}\", \"path_bound\": 2}}\n\
             {{\"id\": 2, \"op\": \"shutdown\"}}\n",
            json::escape(SOURCE)
        );
        let (summary, responses) = serve_script(&server, &script);
        assert_eq!(summary.shed, 1);
        let retry = responses[0]
            .get("retry_after_ms")
            .and_then(Value::as_u64)
            .expect("retry hint");
        // p50 bucket upper bound: 1 ms lands in the 1.024 ms bucket → 2 ms
        // after ceil, then the id-seeded jitter spreads the hint over
        // [base, base + max(base, 16)).  Anything near the 1001 ms mean is
        // a regression.
        assert_eq!(
            retry,
            jittered_retry_ms(2, 1),
            "retry hint must be the jittered p50 upper bound"
        );
        assert!(
            (2..2 + 16).contains(&retry),
            "jitter must stay within one spread window of the p50 bound, got {retry}"
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    /// Serialises the tests that flip the process-global span recorder.
    fn tracing_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn a_traced_request_can_be_profiled_after_completion() {
        let _serialised = tracing_lock();
        let root = temp_root("profile");
        let store = open_store(&root);
        let script = format!(
            "{{\"id\": 1, \"op\": \"analyse\", \"source\": \"{}\", \"path_bound\": 2, \"trace_id\": 777001}}\n\
             {{\"id\": 2, \"op\": \"profile\", \"trace_id\": 777001}}\n\
             {{\"id\": 3, \"op\": \"profile\", \"trace_id\": 777999}}\n\
             {{\"id\": 4, \"op\": \"shutdown\"}}\n",
            json::escape(SOURCE)
        );
        // Default slow threshold (0): every traced request is retained.
        let server = Server::new(store).with_workers(2);
        tmg_obs::set_enabled(true);
        let (_, responses) = serve_script(&server, &script);
        tmg_obs::set_enabled(false);
        tmg_obs::discard_trace(777_001);
        let profile = responses[1]
            .get("profile")
            .expect("profile body in response");
        assert_eq!(
            responses[1].get("ok").and_then(Value::as_bool),
            Some(true),
            "profile of a completed trace succeeds: {:?}",
            responses[1]
        );
        assert_eq!(
            profile.get("schema").and_then(Value::as_str),
            Some("tmg-obs-profile/v1")
        );
        let spans = profile
            .get("spans")
            .and_then(Value::as_array)
            .expect("span tree");
        assert_eq!(spans.len(), 1, "one root span for the request");
        let span_root = &spans[0];
        assert_eq!(
            span_root.get("name").and_then(Value::as_str),
            Some("request:analyse")
        );
        let children: Vec<&str> = span_root
            .get("children")
            .and_then(Value::as_array)
            .expect("children")
            .iter()
            .filter_map(|c| c.get("name").and_then(Value::as_str))
            .collect();
        for expected in ["service:admission", "service:compute", "service:respond"] {
            assert!(
                children.contains(&expected),
                "missing {expected} in {children:?}"
            );
        }
        // An unknown trace answers with a typed error, not a fault.
        assert_eq!(responses[2].get("ok").and_then(Value::as_bool), Some(false));
        assert_eq!(
            responses[2].get("error_kind").and_then(Value::as_str),
            Some("unknown_trace")
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn requests_faster_than_the_slow_threshold_drop_their_spans() {
        let _serialised = tracing_lock();
        let root = temp_root("slow-threshold");
        let store = open_store(&root);
        let script = format!(
            "{{\"id\": 1, \"op\": \"analyse\", \"source\": \"{}\", \"path_bound\": 2, \"trace_id\": 777002}}\n\
             {{\"id\": 2, \"op\": \"profile\", \"trace_id\": 777002}}\n\
             {{\"id\": 3, \"op\": \"shutdown\"}}\n",
            json::escape(SOURCE)
        );
        // No request finishes slower than an hour: nothing is retained.
        let server = Server::new(store)
            .with_workers(2)
            .with_slow_threshold_ms(3_600_000);
        tmg_obs::set_enabled(true);
        let (_, responses) = serve_script(&server, &script);
        tmg_obs::set_enabled(false);
        assert_eq!(responses[0].get("ok").and_then(Value::as_bool), Some(true));
        assert_eq!(
            responses[1].get("error_kind").and_then(Value::as_str),
            Some("unknown_trace"),
            "a fast request's spans are dropped at respond time: {:?}",
            responses[1]
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    /// A throwaway `Pending` for direct scheduler tests: a trivially valid
    /// analyse job on `lane` with a respond closure that records nothing.
    fn pending_on(lane: &str, id: u64, source: &str) -> Pending<'static> {
        Pending {
            job: Job::Analyse {
                id,
                source: source.to_owned(),
                path_bound: 2,
                function: None,
            },
            respond: Arc::new(|_, _| {}),
            deadline: None,
            accepted_at: Instant::now(),
            trace: id,
            lane: lane.to_owned(),
        }
    }

    const NO_COST_VETO: fn(usize) -> bool = |_| false;

    #[test]
    fn a_flooding_client_is_quota_shed_without_starving_its_neighbour() {
        // Capacity 8, but each client may only hold 2 queued jobs.  No
        // worker is draining, so lane depths are exact.
        let scheduler: Scheduler<'static> = Scheduler::new(8, 2);
        for id in 1..=2 {
            let source = format!("void a{id}(void) {{ x(); }}");
            assert!(matches!(
                scheduler.try_submit(pending_on("flood", id, &source), false, &NO_COST_VETO),
                Submitted::Queued { .. }
            ));
        }
        // The flooder's third job hits its quota while the queue itself
        // has six free slots.
        match scheduler.try_submit(
            pending_on("flood", 3, "void a3(void) { x(); }"),
            false,
            &NO_COST_VETO,
        ) {
            Submitted::Shed(pending, ShedReason::Quota) => assert_eq!(pending.job.id(), 3),
            _ => panic!("third flood job must be quota-shed"),
        }
        // A different client is still admitted.
        assert!(matches!(
            scheduler.try_submit(
                pending_on("neighbour", 4, "void b(void) { y(); }"),
                false,
                &NO_COST_VETO
            ),
            Submitted::Queued { .. }
        ));
        assert_eq!(scheduler.quota_shed.load(Ordering::Relaxed), 1);
        assert_eq!(scheduler.shed.load(Ordering::Relaxed), 0);
        // Round-robin drain: the neighbour's single job is interleaved
        // after the flooder's first, not queued behind its whole lane.
        scheduler.close();
        let order: Vec<u64> = std::iter::from_fn(|| scheduler.next().map(|p| p.job.id())).collect();
        assert_eq!(order, vec![1, 4, 2], "lanes must drain round-robin");
    }

    #[test]
    fn cost_shedding_declines_the_expensive_tail_first() {
        // (predicted, min, max, queued, capacity) → shed?
        let table: [(u64, u64, u64, usize, usize, bool, &str); 8] = [
            (80, 1, 80, 0, 16, false, "empty queue admits everything"),
            (
                80,
                1,
                80,
                7,
                16,
                false,
                "below half depth admits everything",
            ),
            (80, 1, 80, 8, 16, true, "dearest class shed from half depth"),
            (
                40,
                1,
                80,
                8,
                16,
                false,
                "mid-cost class admitted at half depth",
            ),
            (
                40,
                1,
                80,
                12,
                16,
                true,
                "above cheapest shed from 3/4 depth",
            ),
            (1, 1, 80, 15, 16, false, "cheapest class always admitted"),
            (0, 1, 80, 15, 16, false, "unmeasured op never cost-shed"),
            (
                80,
                80,
                80,
                15,
                16,
                false,
                "one measured class: no cost signal",
            ),
        ];
        for (predicted, min, max, queued, capacity, expected, why) in table {
            assert_eq!(
                cost_sheds(predicted, min, max, queued, capacity),
                expected,
                "{why}"
            );
        }
    }

    #[test]
    fn a_shed_burst_gets_distinct_jittered_retry_hints() {
        let root = temp_root("jitter-burst");
        let store = open_store(&root);
        // Capacity 0: every job in the burst is shed.  The requests are
        // identical except for their ids, so without jitter every caller
        // would get the same hint and retry in lockstep.
        let server = Server::new(store).with_workers(1).with_queue_capacity(0);
        let burst: String = (1..=6)
            .map(|id| {
                format!(
                    "{{\"id\": {id}, \"op\": \"analyse\", \"source\": \"{}\", \"path_bound\": 2}}\n",
                    json::escape(SOURCE)
                )
            })
            .collect();
        let script = format!("{burst}{{\"id\": 9, \"op\": \"shutdown\"}}\n");
        let (summary, responses) = serve_script(&server, &script);
        assert_eq!(summary.shed, 6);
        let hints: Vec<u64> = responses[..6]
            .iter()
            .map(|r| {
                r.get("retry_after_ms")
                    .and_then(Value::as_u64)
                    .expect("shed response carries a retry hint")
            })
            .collect();
        let distinct: std::collections::BTreeSet<u64> = hints.iter().copied().collect();
        assert!(
            distinct.len() > 1,
            "a shed burst must not produce one synchronized hint: {hints:?}"
        );
        // The spread stays within one jitter window of the 50 ms
        // no-measurement base, and is a pure function of the request id.
        for (i, hint) in hints.iter().enumerate() {
            assert!((50..100).contains(hint), "hint out of window: {hint}");
            assert_eq!(*hint, jittered_retry_ms(50, i as u64 + 1));
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn shutdown_acks_accurate_drain_counters_for_every_error_kind() {
        // One row per typed error kind that can be outstanding when the
        // `shutdown` arrives: a faulted compute, an expired deadline, and
        // a shed job.  Whatever the failure, the ack must still report
        // the drain count and a completed flush — a job that failed to
        // decrement the drain barrier would hang this test forever.
        let rows: [(&str, String, &str, usize); 3] = [
            (
                "fault",
                "{\"id\": 1, \"op\": \"analyse\", \"source\": \"not c at all\", \"path_bound\": 2}"
                    .to_owned(),
                "fault",
                16,
            ),
            (
                "cancelled",
                format!(
                    "{{\"id\": 1, \"op\": \"analyse\", \"source\": \"{}\", \"path_bound\": 2, \"deadline_ms\": 0}}",
                    json::escape(SOURCE)
                ),
                "cancelled",
                16,
            ),
            (
                "overloaded",
                format!(
                    "{{\"id\": 1, \"op\": \"analyse\", \"source\": \"{}\", \"path_bound\": 2}}",
                    json::escape(SOURCE)
                ),
                "overloaded",
                0,
            ),
        ];
        for (tag, request, kind, capacity) in rows {
            let root = temp_root(&format!("drain-{tag}"));
            let store = open_store(&root);
            let server = Server::new(store)
                .with_workers(1)
                .with_queue_capacity(capacity);
            let script = format!("{request}\n{{\"id\": 9, \"op\": \"shutdown\"}}\n");
            let (summary, responses) = serve_script(&server, &script);
            assert_eq!(
                responses[0].get("error_kind").and_then(Value::as_str),
                Some(kind),
                "row {tag}: typed error expected, got {:?}",
                responses[0]
            );
            let ack = &responses[1];
            assert_eq!(ack.get("ok").and_then(Value::as_bool), Some(true));
            assert_eq!(ack.get("flushed").and_then(Value::as_bool), Some(true));
            let drained = ack
                .get("drained")
                .and_then(Value::as_u64)
                .expect("drained is a count, not a flag");
            // Declines answered at admission (expired deadline, shed) are
            // never outstanding; only the faulted compute may still be.
            assert!(drained <= 1, "row {tag}: drained {drained}");
            if kind != "fault" {
                assert_eq!(drained, 0, "row {tag}: inline declines never drain");
            }
            assert_eq!(summary.shed, u64::from(kind == "overloaded"));
            assert_eq!(summary.expired, u64::from(kind == "cancelled"));
            assert_eq!(summary.responses, 2);
            assert!(summary.clean_shutdown && summary.flushed);
            let _ = std::fs::remove_dir_all(&root);
        }
    }

    #[test]
    fn a_declared_tenant_labels_the_lane_and_must_be_non_empty() {
        let root = temp_root("tenant");
        let store = open_store(&root);
        let server = Server::new(store).with_workers(1);
        let script = format!(
            "{{\"id\": 1, \"op\": \"analyse\", \"source\": \"{}\", \"path_bound\": 2, \"tenant\": \"team-a\"}}\n\
             {{\"id\": 2, \"op\": \"analyse\", \"source\": \"{}\", \"path_bound\": 2, \"tenant\": \"\"}}\n\
             {{\"id\": 3, \"op\": \"shutdown\"}}\n",
            json::escape(SOURCE),
            json::escape(SOURCE)
        );
        let (_, responses) = serve_script(&server, &script);
        assert_eq!(responses[0].get("ok").and_then(Value::as_bool), Some(true));
        assert_eq!(
            responses[1].get("error_kind").and_then(Value::as_str),
            Some("fault"),
            "an empty tenant is a request error: {:?}",
            responses[1]
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn stats_snapshot_carries_the_resilience_counters() {
        let root = temp_root("resilience-stats");
        let store = open_store(&root);
        let server = Server::new(store).with_workers(1).with_queue_capacity(0);
        let script = format!(
            "{{\"id\": 1, \"op\": \"analyse\", \"source\": \"{}\", \"path_bound\": 2}}\n\
             {{\"id\": 2, \"op\": \"stats\"}}\n\
             {{\"id\": 3, \"op\": \"shutdown\"}}\n",
            json::escape(SOURCE)
        );
        let (_, responses) = serve_script(&server, &script);
        let resilience = responses[1]
            .get("stats")
            .and_then(|s| s.get("resilience"))
            .expect("stats carries a resilience section");
        assert_eq!(resilience.get("shed").and_then(Value::as_u64), Some(1));
        assert_eq!(
            resilience.get("quota_shed").and_then(Value::as_u64),
            Some(0)
        );
        assert_eq!(
            resilience.get("disconnected").and_then(Value::as_u64),
            Some(0)
        );
        let wire = resilience.get("wire_faults").expect("wire fault counters");
        for kind in crate::fault::FaultKind::WIRE {
            assert_eq!(wire.get(kind.name()).and_then(Value::as_u64), Some(0));
        }
        let _ = std::fs::remove_dir_all(&root);
    }
}
