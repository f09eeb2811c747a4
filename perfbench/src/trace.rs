//! Benchmark-side stage timing.
//!
//! [`TimingStore`] is a [`TieredStore`] that delegates every stage to a
//! fresh in-memory [`ArtifactStore`] and stamps the time at each call
//! boundary.  Handed to `WcetAnalysis::with_store`, it sees the program's
//! real staged path (lower → partition → testgen, with prepare-model
//! requested from inside testgen → measure → bound) without any
//! instrumentation inside the program.  The stages it yields are disjoint
//! intervals of the analysis wall time, so their self times plus the
//! untimed remainder add up to that wall time exactly.

use std::sync::{Arc, Mutex};
use std::time::Instant;
use tmg_core::pipeline::{
    compute_suite, suite_key, BoundArtifact, CampaignArtifact, LoweredArtifact, PartitionArtifact,
    PreparedModelArtifact, SuiteArtifact,
};
use tmg_core::{
    AnalysisError, AnalysisReport, ArtifactStore, HybridGenerator, TieredStore, WcetAnalysis,
};
use tmg_minic::Function;
use tmg_target::CostModel;
use tmg_tsys::ModelChecker;

/// Names of the stage self times, in pipeline order.  `untimed` is the
/// part of the wall time no stage span covers (keying, store lookups,
/// report assembly, `put_bound`).
pub const STAGES: [&str; 9] = [
    "parse",
    "lower",
    "partition",
    "testgen.heuristic",
    "prepare_model",
    "testgen.checker",
    "measure",
    "bound",
    "untimed",
];

/// Self time of each of [`STAGES`] for one analysis, in seconds.
pub type StageTimes = [f64; 9];

type Span = Option<(Instant, Instant)>;

#[derive(Debug, Default)]
struct Marks {
    lower: Span,
    partition: Span,
    suite: Span,
    prepare: Span,
    campaign: Span,
    put_bound: Option<Instant>,
}

/// The timing tier (see the module docs).
#[derive(Debug, Default)]
pub struct TimingStore {
    inner: ArtifactStore,
    marks: Mutex<Marks>,
}

fn secs(span: Span) -> f64 {
    span.map_or(0.0, |(a, b)| (b - a).as_secs_f64())
}

impl TimingStore {
    /// Runs `f`, recording its start and end in the mark `slot` selects.
    fn timed<T>(&self, slot: fn(&mut Marks) -> &mut Span, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        *slot(&mut self.marks.lock().expect("marks lock")) = Some((start, end));
        out
    }

    /// Splits the recorded boundaries into stage self times.  `parse` is
    /// the caller's parse span and `wall` its whole parse + analyse span.
    pub fn stage_times(&self, parse: f64, wall: f64) -> StageTimes {
        let m = self.marks.lock().expect("marks lock");
        let suite = secs(m.suite);
        let (heuristic, prepare, checker) = match (m.suite, m.prepare) {
            (Some((s0, s1)), Some((p0, p1))) => (
                (p0 - s0).as_secs_f64(),
                (p1 - p0).as_secs_f64(),
                (s1 - p1).as_secs_f64(),
            ),
            _ => (suite, 0.0, 0.0),
        };
        let bound = match (m.campaign, m.put_bound) {
            (Some((_, c1)), Some(p)) => (p - c1).as_secs_f64(),
            _ => 0.0,
        };
        let mut t = [
            parse,
            secs(m.lower),
            secs(m.partition),
            heuristic,
            prepare,
            checker,
            secs(m.campaign),
            bound,
            0.0,
        ];
        t[8] = wall - t[..8].iter().sum::<f64>();
        t
    }
}

impl TieredStore for TimingStore {
    fn memory(&self) -> &ArtifactStore {
        &self.inner
    }

    fn lowered_keyed(&self, function: &Function, key: u64) -> Arc<LoweredArtifact> {
        self.timed(|m| &mut m.lower, || self.inner.lowered_keyed(function, key))
    }

    fn partition(&self, lowered: &LoweredArtifact, path_bound: u128) -> Arc<PartitionArtifact> {
        self.timed(
            |m| &mut m.partition,
            || self.inner.partition(lowered, path_bound),
        )
    }

    fn prepared_model(
        &self,
        function: &Function,
        lowered: &LoweredArtifact,
        checker: &ModelChecker,
    ) -> Arc<PreparedModelArtifact> {
        self.timed(
            |m| &mut m.prepare,
            || self.inner.prepared_model(function, lowered, checker),
        )
    }

    /// Same as the in-memory tier's stage, except that the generator asks
    /// *this* tier for the prepared model, so that call is timed too.
    fn suite(
        &self,
        function: &Function,
        lowered: &LoweredArtifact,
        partition: &PartitionArtifact,
        generator: &HybridGenerator,
    ) -> Arc<SuiteArtifact> {
        self.timed(
            |m| &mut m.suite,
            || {
                let key = suite_key(partition.key, generator);
                if let Some(hit) = self.inner.lookup_suite(key) {
                    return hit;
                }
                let suite = compute_suite(self, function, lowered, partition, generator, key);
                self.inner.insert_suite(key, suite)
            },
        )
    }

    fn campaign(
        &self,
        function: &Function,
        lowered: &LoweredArtifact,
        partition: &PartitionArtifact,
        suite: &SuiteArtifact,
        cost_model: &CostModel,
    ) -> Result<Arc<CampaignArtifact>, AnalysisError> {
        self.timed(
            |m| &mut m.campaign,
            || {
                self.inner
                    .campaign(function, lowered, partition, suite, cost_model)
            },
        )
    }

    fn bound(&self, key: u64) -> Option<Arc<BoundArtifact>> {
        self.inner.bound(key)
    }

    fn put_bound(&self, key: u64, report: AnalysisReport) -> Arc<BoundArtifact> {
        self.marks.lock().expect("marks lock").put_bound = Some(Instant::now());
        self.inner.put_bound(key, report)
    }
}

/// Runs `analysis` on `function` through a fresh [`TimingStore`] and
/// returns the report with the store, whose marks the caller turns into
/// stage times.
pub fn analyse_traced(
    analysis: &WcetAnalysis,
    function: &Function,
) -> (Result<AnalysisReport, AnalysisError>, Arc<TimingStore>) {
    let store = Arc::new(TimingStore::default());
    let report = analysis.clone().with_store(store.clone()).analyse(function);
    (report, store)
}
