//! The persistent artifact tier: a segment-log disk cache layered under the
//! in-memory [`ArtifactStore`].
//!
//! [`PersistentStore`] implements [`TieredStore`], so
//! `WcetAnalysis::with_store` accepts it wherever the in-memory store works.
//! Every stage request probes the tiers in order:
//!
//! 1. **memory** — the process-local [`ArtifactStore`] (hit/miss/eviction
//!    counters as before);
//! 2. **disk** — the append-only [`SegmentLog`] ([`crate::segment`]): the
//!    frame bytes are `pread` from their segment into an arena buffer and
//!    verified/decoded exactly once; a record that fails verification is
//!    dropped from the index and treated as a miss — never a panic, never a
//!    wrong artifact;
//! 3. **compute** — the stage function itself; the result is appended to
//!    the log and inserted into memory.
//!
//! The disk tier is bounded by a byte budget with segment-granular eviction
//! and live-ratio compaction; durability is group commit (see the segment
//! module docs).  The bound fast path decodes through the borrowed
//! [`codec::BoundView`], so a warm `bound` hit never materializes an owned
//! AST — only the one-string report.
//!
//! Measurement faults are never cached, matching the in-memory tier.

use crate::codec::{self, CodecError};
use crate::fault::FaultPlan;
use crate::segment::{
    SegmentLog, SegmentLogOptions, SegmentStats, DEFAULT_GROUP_COMMIT_WINDOW_MS,
    DEFAULT_SEGMENT_BYTES,
};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tmg_core::pipeline::{
    self, ArtifactStore, BoundArtifact, CampaignArtifact, LoweredArtifact, PartitionArtifact,
    PreparedModelArtifact, Stage, SuiteArtifact, TieredStore, STAGES,
};
use tmg_core::{AnalysisError, AnalysisReport, HybridGenerator, StoreStats};
use tmg_minic::ast::Function;
use tmg_target::CostModel;
use tmg_tsys::ModelChecker;

pub use crate::segment::RecoveryReport;

/// Default disk budget: 256 MiB of artifact frames.
pub const DEFAULT_DISK_BUDGET: u64 = 256 * 1024 * 1024;

/// Per-stage counters of the disk tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DiskStageStats {
    /// Frames served from disk (verified and decoded).
    pub hits: u64,
    /// Probes that found no usable frame (absent, corrupt or foreign).
    pub misses: u64,
    /// Frames appended to the log.
    pub stores: u64,
    /// Frames dropped by segment-granular eviction.
    pub evictions: u64,
    /// Stage computations actually executed (neither tier had the artifact).
    pub computes: u64,
    /// Frames rejected by verification (recovery scan, compaction or a
    /// damaged read).  Each becomes a clean miss on its next request.
    pub quarantined: u64,
}

/// Counter + occupancy snapshot of a [`PersistentStore`], combining both
/// tiers; rendered to hand-written JSON for the service `stats` request.
#[derive(Debug, Clone, PartialEq)]
pub struct TierStats {
    /// In-memory tier snapshot.
    pub memory: StoreStats,
    /// Per-stage disk counters, indexed by [`Stage::index`].
    pub disk: [DiskStageStats; 6],
    /// Bytes currently accounted on disk (segment headers included).
    pub disk_bytes: u64,
    /// Disk byte budget.
    pub disk_budget: u64,
    /// Segment-tier counters (segments, live/dead bytes, compactions,
    /// group-commit batches, zero-copy vs decoded hits).
    pub segment: SegmentStats,
}

impl TierStats {
    /// Disk counters of one stage.
    pub fn disk_stage(&self, stage: Stage) -> DiskStageStats {
        self.disk[stage.index()]
    }

    /// Total stage computations across all stages (0 on a fully warm run).
    pub fn total_computes(&self) -> u64 {
        self.disk.iter().map(|s| s.computes).sum()
    }

    /// Total disk hits across all stages.
    pub fn total_disk_hits(&self) -> u64 {
        self.disk.iter().map(|s| s.hits).sum()
    }

    /// Renders the snapshot as one JSON object (hand-written; schema
    /// `tmg-obs-stats/v1`), embedding the memory tier's
    /// [`StoreStats::to_json`] output, the unified metrics registry's
    /// `checker`, `module` and `testgen` groups and the segment-tier
    /// counters, so perf work on the checker, the heuristic search and
    /// the storage engine stays
    /// observable through the service `stats` op.  Every top-level key of
    /// the predecessor `tmg-tier-stats/v1` schema is preserved (asserted
    /// by the schema-stability tests); only the `schema` value moved.
    pub fn to_json(&self) -> String {
        self.to_json_with(None)
    }

    /// Like [`TierStats::to_json`], with an optional pre-rendered JSON
    /// object of per-op latency histograms (the server's request-level
    /// p50/p95/p99 view) embedded under `"latency"`.
    pub fn to_json_with(&self, latency: Option<&str>) -> String {
        self.to_json_with_sections(latency, None)
    }

    /// Like [`TierStats::to_json_with`], additionally embedding an optional
    /// pre-rendered JSON object of resilience counters (shed/quota/cost
    /// shedding, dropped-on-disconnect responses and wire faults fired)
    /// under `"resilience"`.
    pub fn to_json_with_sections(&self, latency: Option<&str>, resilience: Option<&str>) -> String {
        use std::fmt::Write as _;
        // The process-wide counter sets render through the registry (one
        // source for the `stats` op, the registry snapshot and any future
        // exporter).  Registration is idempotent and happens on first use,
        // but snapshotting before anything bumped a counter must still
        // render the groups — so make sure they are registered.
        tmg_tsys::metrics::register();
        tmg_core::module::metrics::register();
        tmg_core::testgen::metrics::register();
        let registry = tmg_obs::registry();
        let mut out = String::new();
        let _ = write!(
            out,
            "{{ \"schema\": \"tmg-obs-stats/v1\", \"computes\": {}, \"disk_bytes\": {}, \"disk_budget\": {}, \"memory\": {}, \"checker\": {}, \"module\": {}, \"testgen\": {}, ",
            self.total_computes(),
            self.disk_bytes,
            self.disk_budget,
            self.memory.to_json(),
            registry.group_json("checker").expect("checker registered"),
            registry.group_json("module").expect("module registered"),
            registry.group_json("testgen").expect("testgen registered")
        );
        let s = &self.segment;
        let _ = write!(
            out,
            "\"segments\": {{ \"count\": {}, \"live_bytes\": {}, \"dead_bytes\": {}, \"compactions\": {}, \"compacted_frames\": {}, \"group_commit_batches\": {}, \"group_commit_window_ms\": {}, \"zero_copy_hits\": {}, \"decoded_hits\": {}, \"index_publishes\": {}, \"index_rebuilds\": {} }}, ",
            s.segments,
            s.live_bytes,
            s.dead_bytes,
            s.compactions,
            s.compacted_frames,
            s.group_commit_batches,
            s.group_commit_window_ms,
            s.zero_copy_hits,
            s.decoded_hits,
            s.index_publishes,
            s.index_rebuilds,
        );
        if let Some(latency) = latency {
            let _ = write!(out, "\"latency\": {latency}, ");
        }
        if let Some(resilience) = resilience {
            let _ = write!(out, "\"resilience\": {resilience}, ");
        }
        out.push_str("\"disk\": {");
        for (i, stage) in STAGES.iter().enumerate() {
            let s = self.disk_stage(*stage);
            let comma = if i + 1 < STAGES.len() { "," } else { "" };
            let _ = write!(
                out,
                " \"{}\": {{ \"hits\": {}, \"misses\": {}, \"stores\": {}, \"evictions\": {}, \"computes\": {}, \"quarantined\": {} }}{}",
                stage.name(),
                s.hits,
                s.misses,
                s.stores,
                s.evictions,
                s.computes,
                s.quarantined,
                comma
            );
        }
        out.push_str(" } }");
        out
    }
}

/// Configuration of a [`PersistentStore`].
#[derive(Debug, Clone)]
pub struct PersistentStoreConfig {
    /// Cache directory root (created if absent).
    pub root: PathBuf,
    /// Disk byte budget ([`DEFAULT_DISK_BUDGET`] by default).
    pub disk_budget: u64,
    /// Active-segment rotation threshold
    /// ([`DEFAULT_SEGMENT_BYTES`] by default).
    pub segment_bytes: u64,
    /// Group-commit latency window in milliseconds
    /// ([`DEFAULT_GROUP_COMMIT_WINDOW_MS`] by default).
    pub group_commit_window_ms: u64,
    /// In-memory entries per stage map
    /// ([`pipeline::DEFAULT_STAGE_CAPACITY`] by default).
    pub memory_capacity: usize,
    /// Fault-injection plan ([`FaultPlan::none`] by default; the CLI entry
    /// points arm it from `TMG_FAULT_PLAN`).
    pub fault_plan: FaultPlan,
}

impl PersistentStoreConfig {
    /// Default configuration rooted at `root`.
    pub fn new(root: impl Into<PathBuf>) -> PersistentStoreConfig {
        PersistentStoreConfig {
            root: root.into(),
            disk_budget: DEFAULT_DISK_BUDGET,
            segment_bytes: DEFAULT_SEGMENT_BYTES,
            group_commit_window_ms: DEFAULT_GROUP_COMMIT_WINDOW_MS,
            memory_capacity: pipeline::DEFAULT_STAGE_CAPACITY,
            fault_plan: FaultPlan::none(),
        }
    }

    /// Overrides the disk byte budget.
    pub fn with_disk_budget(mut self, budget: u64) -> PersistentStoreConfig {
        self.disk_budget = budget;
        self
    }

    /// Overrides the active-segment rotation threshold.
    pub fn with_segment_bytes(mut self, bytes: u64) -> PersistentStoreConfig {
        self.segment_bytes = bytes;
        self
    }

    /// Overrides the group-commit latency window.
    pub fn with_group_commit_window_ms(mut self, ms: u64) -> PersistentStoreConfig {
        self.group_commit_window_ms = ms;
        self
    }

    /// Overrides the in-memory per-stage entry cap.
    pub fn with_memory_capacity(mut self, capacity: usize) -> PersistentStoreConfig {
        self.memory_capacity = capacity;
        self
    }

    /// Arms a fault-injection plan for the disk tier.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> PersistentStoreConfig {
        self.fault_plan = plan;
        self
    }
}

/// The two-tier artifact store: in-memory [`ArtifactStore`] over the
/// append-only segment log.
pub struct PersistentStore {
    memory: ArtifactStore,
    log: SegmentLog,
    computes: [AtomicU64; 6],
}

impl std::fmt::Debug for PersistentStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PersistentStore")
            .field("root", &self.log.root())
            .field("memory", &self.memory)
            .finish()
    }
}

impl PersistentStore {
    /// Opens (or creates) a cache rooted at `root` with default budgets.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the cache directories cannot be created.
    pub fn open(root: impl AsRef<Path>) -> io::Result<PersistentStore> {
        PersistentStore::with_config(PersistentStoreConfig::new(root.as_ref()))
    }

    /// Opens a cache with explicit budgets.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the cache directories cannot be created.
    pub fn with_config(config: PersistentStoreConfig) -> io::Result<PersistentStore> {
        Ok(PersistentStore {
            memory: ArtifactStore::with_capacity(config.memory_capacity),
            log: SegmentLog::open(SegmentLogOptions {
                root: config.root,
                budget: config.disk_budget,
                segment_bytes: config.segment_bytes,
                group_commit_window_ms: config.group_commit_window_ms,
                faults: config.fault_plan,
            })?,
            computes: Default::default(),
        })
    }

    /// Cache directory root.
    pub fn root(&self) -> &Path {
        self.log.root()
    }

    /// Runs the crash-recovery pass: reclaims orphaned index `.tmp` files,
    /// re-verifies every record of every segment, truncates torn tails and
    /// publishes a fresh index snapshot.  Servers call this once at
    /// startup; it is not part of [`PersistentStore::open`] because it
    /// reads every frame and the warm read path is deliberately scan-free.
    pub fn recovery_scan(&self) -> RecoveryReport {
        self.log.recovery_scan()
    }

    /// Flushes the disk tier (syncs the active segment, publishes the
    /// index snapshot); part of the server's graceful drain.
    pub fn flush(&self) {
        self.log.flush();
    }

    /// Forces a compaction pass over every sealed segment holding dead
    /// bytes; benchmarks and tests use this for deterministic reclamation
    /// (production compaction triggers on the live-ratio threshold).
    pub fn compact(&self) {
        self.log.force_compact();
    }

    /// Total injected-fault shots that have fired against this store (0 when
    /// no [`FaultPlan`] was armed).  Tests and the fault-injection smoke use
    /// this to prove a plan actually exercised the I/O path.
    pub fn fault_shots_fired(&self) -> u64 {
        self.log.faults.total_fired()
    }

    /// Combined counter snapshot of both tiers.
    pub fn stats(&self) -> TierStats {
        let mut disk = [DiskStageStats::default(); 6];
        for stage in STAGES {
            let i = stage.index();
            disk[i] = DiskStageStats {
                hits: self.log.hits[i].load(Ordering::Relaxed),
                misses: self.log.misses[i].load(Ordering::Relaxed),
                stores: self.log.stores[i].load(Ordering::Relaxed),
                evictions: self.log.evictions[i].load(Ordering::Relaxed),
                computes: self.computes[i].load(Ordering::Relaxed),
                quarantined: self.log.quarantined[i].load(Ordering::Relaxed),
            };
        }
        TierStats {
            memory: self.memory.store_stats(),
            disk,
            disk_bytes: self.log.total_bytes(),
            disk_budget: self.log.budget(),
            segment: self.log.snapshot(),
        }
    }

    fn record_compute(&self, stage: Stage) {
        self.computes[stage.index()].fetch_add(1, Ordering::Relaxed);
    }

    /// Serves the bound frame for `key` as a borrowed [`codec::BoundView`]
    /// without touching the in-memory tier or materializing an owned
    /// artifact — the "serve bytes back out" route.  `f` runs with `None`
    /// on a miss.
    pub fn with_bound_view<R>(
        &self,
        key: u64,
        f: impl FnOnce(Option<&codec::BoundView<'_>>) -> R,
    ) -> R {
        let Some(buf) = self.log.read(Stage::Bound, key) else {
            self.log.record(Stage::Bound, false);
            return f(None);
        };
        match codec::decode_frame(buf.frame(), Stage::Bound, key).and_then(codec::decode_bound_view)
        {
            Ok(view) => {
                self.log.record(Stage::Bound, true);
                self.log.note_zero_copy_hit();
                f(Some(&view))
            }
            Err(error) => {
                self.log.discard(Stage::Bound, key, &error);
                self.log.record(Stage::Bound, false);
                f(None)
            }
        }
    }

    /// Probes the disk tier for `(stage, key)` and decodes through `decode`
    /// (the single verification pass); undecodable records are discarded
    /// and reported as a miss.
    fn fetch_disk<T>(
        &self,
        stage: Stage,
        key: u64,
        decode: impl FnOnce(&[u8]) -> Result<T, CodecError>,
    ) -> Option<T> {
        let buf = self.log.read(stage, key);
        let decoded = buf.and_then(|buf| match decode(buf.frame()) {
            Ok(artifact) => Some(artifact),
            Err(error) => {
                self.log.discard(stage, key, &error);
                None
            }
        });
        self.log.record(stage, decoded.is_some());
        if decoded.is_some() {
            self.log.note_decoded_hit();
        }
        decoded
    }
}

impl TieredStore for PersistentStore {
    fn memory(&self) -> &ArtifactStore {
        &self.memory
    }

    fn lowered_keyed(&self, function: &Function, key: u64) -> Arc<LoweredArtifact> {
        if let Some(hit) = self.memory.lookup_lowered(key) {
            return hit;
        }
        if let Some(artifact) =
            self.fetch_disk(Stage::Lower, key, |b| codec::decode_lowered(b, key))
        {
            return self.memory.insert_lowered(key, artifact);
        }
        self.record_compute(Stage::Lower);
        let artifact = pipeline::compute_lowered(function, key);
        self.log
            .append(Stage::Lower, key, &codec::encode_lowered(&artifact));
        self.memory.insert_lowered(key, artifact)
    }

    fn partition(&self, lowered: &LoweredArtifact, path_bound: u128) -> Arc<PartitionArtifact> {
        let key = pipeline::partition_key(lowered.function_key, path_bound);
        if let Some(hit) = self.memory.lookup_partition(key) {
            return hit;
        }
        if let Some(artifact) =
            self.fetch_disk(Stage::Partition, key, |b| codec::decode_partition(b, key))
        {
            return self.memory.insert_partition(key, artifact);
        }
        self.record_compute(Stage::Partition);
        let artifact = pipeline::compute_partition(lowered, path_bound, key);
        self.log
            .append(Stage::Partition, key, &codec::encode_partition(&artifact));
        self.memory.insert_partition(key, artifact)
    }

    fn prepared_model(
        &self,
        function: &Function,
        lowered: &LoweredArtifact,
        checker: &ModelChecker,
    ) -> Arc<PreparedModelArtifact> {
        let key = pipeline::prepared_model_key(lowered.function_key, checker);
        if let Some(hit) = self.memory.lookup_prepared_model(key) {
            return hit;
        }
        if let Some(artifact) = self.fetch_disk(Stage::PrepareModel, key, |b| {
            codec::decode_prepared_model(b, key)
        }) {
            return self.memory.insert_prepared_model(key, artifact);
        }
        self.record_compute(Stage::PrepareModel);
        let artifact = pipeline::compute_prepared_model(function, lowered, checker, key);
        self.log.append(
            Stage::PrepareModel,
            key,
            &codec::encode_prepared_model(&artifact),
        );
        self.memory.insert_prepared_model(key, artifact)
    }

    fn suite(
        &self,
        function: &Function,
        lowered: &LoweredArtifact,
        partition: &PartitionArtifact,
        generator: &HybridGenerator,
    ) -> Arc<SuiteArtifact> {
        let key = pipeline::suite_key(partition.key, generator);
        if let Some(hit) = self.memory.lookup_suite(key) {
            return hit;
        }
        if let Some(artifact) =
            self.fetch_disk(Stage::Testgen, key, |b| codec::decode_suite(b, key))
        {
            return self.memory.insert_suite(key, artifact);
        }
        self.record_compute(Stage::Testgen);
        let artifact = pipeline::compute_suite(self, function, lowered, partition, generator, key);
        self.log
            .append(Stage::Testgen, key, &codec::encode_suite(&artifact));
        self.memory.insert_suite(key, artifact)
    }

    fn campaign(
        &self,
        function: &Function,
        lowered: &LoweredArtifact,
        partition: &PartitionArtifact,
        suite: &SuiteArtifact,
        cost_model: &CostModel,
    ) -> Result<Arc<CampaignArtifact>, AnalysisError> {
        let key = pipeline::campaign_key(suite.key, cost_model);
        if let Some(hit) = self.memory.lookup_campaign(key) {
            return Ok(hit);
        }
        if let Some(artifact) =
            self.fetch_disk(Stage::Measure, key, |b| codec::decode_campaign(b, key))
        {
            return Ok(self.memory.insert_campaign(key, artifact));
        }
        self.record_compute(Stage::Measure);
        let artifact =
            pipeline::compute_campaign(function, lowered, partition, suite, cost_model, key)?;
        self.log
            .append(Stage::Measure, key, &codec::encode_campaign(&artifact));
        Ok(self.memory.insert_campaign(key, artifact))
    }

    fn bound(&self, key: u64) -> Option<Arc<BoundArtifact>> {
        if let Some(hit) = self.memory.lookup_bound(key) {
            return Some(hit);
        }
        // The bound fast path decodes through the borrowed view: one
        // verification pass, no owned AST — only the report's name string
        // is materialized for the memory tier.
        let buf = self.log.read(Stage::Bound, key);
        let report = buf.and_then(|buf| {
            match codec::decode_frame(buf.frame(), Stage::Bound, key)
                .and_then(codec::decode_bound_view)
            {
                Ok(view) => Some(view.to_report()),
                Err(error) => {
                    self.log.discard(Stage::Bound, key, &error);
                    None
                }
            }
        });
        self.log.record(Stage::Bound, report.is_some());
        let report = report?;
        self.log.note_zero_copy_hit();
        Some(self.memory.insert_bound(key, BoundArtifact { key, report }))
    }

    fn put_bound(&self, key: u64, report: AnalysisReport) -> Arc<BoundArtifact> {
        self.record_compute(Stage::Bound);
        let artifact = BoundArtifact { key, report };
        self.log
            .append(Stage::Bound, key, &codec::encode_bound(&artifact));
        self.memory.insert_bound(key, artifact)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_stats_render_as_json() {
        let stats = TierStats {
            memory: ArtifactStore::new().store_stats(),
            disk: [DiskStageStats::default(); 6],
            disk_bytes: 0,
            disk_budget: DEFAULT_DISK_BUDGET,
            segment: SegmentStats::default(),
        };
        let json = stats.to_json();
        assert!(json.contains("\"schema\": \"tmg-obs-stats/v1\""));
        assert!(json.contains("\"schema\": \"tmg-store-stats/v1\""));
        assert!(json.contains("\"segments\": { \"count\": 0, \"live_bytes\": 0, \"dead_bytes\": 0, \"compactions\": 0"));
        assert!(json.contains("\"group_commit_batches\": 0"));
        assert!(json.contains("\"zero_copy_hits\": 0, \"decoded_hits\": 0"));
        assert!(json.contains("\"bound\": { \"hits\": 0, \"misses\": 0, \"stores\": 0, \"evictions\": 0, \"computes\": 0, \"quarantined\": 0 }"));
        assert!(!json.contains("\"latency\""), "no histograms unless given");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        let with_latency = stats.to_json_with(Some("{ \"analyse\": { \"count\": 0 } }"));
        assert!(with_latency.contains("\"latency\": { \"analyse\""));
        assert_eq!(
            with_latency.matches('{').count(),
            with_latency.matches('}').count()
        );
    }
}
