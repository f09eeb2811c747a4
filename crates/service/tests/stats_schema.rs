//! Schema-stability test for the `stats` snapshot.
//!
//! PR 9 replaced the scattered counter renderers with the unified
//! metrics registry and renamed the snapshot schema from
//! `tmg-tier-stats/v1` to `tmg-obs-stats/v1`.  The contract of that
//! migration is that only the `schema` *value* changed: every key a
//! `tmg-tier-stats/v1` consumer could have depended on must still
//! resolve.  The golden key list lives in
//! `tests/golden/tier-stats-keys.txt`.

use std::io::Cursor;
use std::sync::Arc;
use tmg_service::json::{self, Value};
use tmg_service::store::{PersistentStore, PersistentStoreConfig};
use tmg_service::Server;

fn temp_root(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("tmg-stats-schema-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Walks a dotted path (`segments.live_bytes`) into a parsed JSON value.
fn lookup<'a>(root: &'a Value, path: &str) -> Option<&'a Value> {
    let mut value = root;
    for segment in path.split('.') {
        value = value.get(segment)?;
    }
    Some(value)
}

#[test]
fn every_documented_tier_stats_key_survives_the_obs_migration() {
    let root = temp_root("golden");
    let store =
        Arc::new(PersistentStore::with_config(PersistentStoreConfig::new(&root)).expect("open"));
    // One analyse first, so the latency group has something recorded and
    // the snapshot exercises every section a real deployment would see.
    let source = "void f(char a __range(0, 3)) { if (a > 1) { x(); } else { y(); } }";
    let script = format!(
        "{{\"id\": 1, \"op\": \"analyse\", \"source\": \"{}\", \"path_bound\": 2}}\n\
         {{\"id\": 2, \"op\": \"stats\"}}\n\
         {{\"id\": 3, \"op\": \"shutdown\"}}\n",
        json::escape(source)
    );
    let server = Server::new(store).with_workers(2);
    let mut out = Vec::new();
    server
        .serve(Cursor::new(script), &mut out)
        .expect("serve succeeds");
    let text = String::from_utf8(out).expect("utf-8 responses");
    let stats_line = text
        .lines()
        .find(|line| line.contains("\"op\": \"stats\""))
        .expect("a stats response");
    let response = json::parse(stats_line).expect("stats response parses");
    let stats = response.get("stats").expect("stats object");

    assert_eq!(
        stats.get("schema").and_then(Value::as_str),
        Some("tmg-obs-stats/v1"),
        "the snapshot carries the new schema id"
    );

    let golden = include_str!("golden/tier-stats-keys.txt");
    let mut missing = Vec::new();
    for path in golden
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
    {
        if lookup(stats, path).is_none() {
            missing.push(path);
        }
    }
    assert!(
        missing.is_empty(),
        "documented tmg-tier-stats/v1 keys lost in the migration: {missing:?}\nsnapshot: {stats_line}"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn the_snapshot_carries_the_heuristic_search_counters() {
    let root = temp_root("testgen");
    let store =
        Arc::new(PersistentStore::with_config(PersistentStoreConfig::new(&root)).expect("open"));
    let source = "void f(char a __range(0, 5)) { if (a > 2) { x(); } else { y(); } }";
    let script = format!(
        "{{\"id\": 1, \"op\": \"analyse\", \"source\": \"{}\", \"path_bound\": 2}}\n\
         {{\"id\": 2, \"op\": \"stats\"}}\n\
         {{\"id\": 3, \"op\": \"shutdown\"}}\n",
        json::escape(source)
    );
    let mut out = Vec::new();
    Server::new(store)
        .serve(Cursor::new(script), &mut out)
        .expect("serve succeeds");
    let text = String::from_utf8(out).expect("utf-8 responses");
    let stats_line = text
        .lines()
        .find(|line| line.contains("\"op\": \"stats\""))
        .expect("a stats response");
    let response = json::parse(stats_line).expect("stats response parses");
    let stats = response.get("stats").expect("stats object");
    let counter = |key: &str| {
        lookup(stats, &format!("testgen.{key}"))
            .and_then(Value::as_u64)
            .unwrap_or_else(|| panic!("testgen.{key} missing: {stats_line}"))
    };
    // The cold analyse ran one heuristic search (counters are process-wide,
    // so other tests may only add to them).
    assert!(counter("heuristic_generations") >= 1);
    assert!(counter("heuristic_evaluations") >= 1);
    counter("heuristic_memo_hits");
    let _ = std::fs::remove_dir_all(&root);
}
