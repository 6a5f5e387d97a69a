//! Provenance-store benchmark: append throughput (in-memory vs durable
//! WAL), the scheduler's two estimate queries on a growing store with and
//! without the `name` index, batched vs per-line import, and recovery
//! time against log size. Emits `BENCH_provdb.json` for regression
//! tracking.
//!
//! Usage: `bench_provdb [--quick] [output.json]`

use std::path::PathBuf;
use std::time::Instant;

use hiway_format::json::Json;
use hiway_provdb::{Aggregate, Collection, Op, ProvDb};

/// Task signatures and nodes of the synthetic store (coprime counts, so
/// every signature is observed on every node).
const SIGNATURES: u64 = 17;
const NODES: u64 = 11;

/// A memoized `task_events` document, deterministic in `i`.
fn doc(i: u64) -> Json {
    let makespan = (i % 97) as f64 + 0.5;
    Json::object()
        .with("name", format!("mProjectPP_{}", i % SIGNATURES))
        .with("node", format!("w-{}", i % NODES))
        .with("makespan", makespan)
        .with("t_start", i as f64)
        .with("t_end", i as f64 + makespan)
        .with("attempts", 1u64)
        .with("command", format!("mProjectPP image_{i}.fits"))
        .with(
            "key",
            format!("{:016x}", i.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
        )
        .with(
            "outputs",
            Json::Array(vec![Json::object()
                .with("path", format!("proj/image_{i}.fits"))
                .with("size", 4_194_304u64)]),
        )
}

/// Seconds per query of HEFT's and adaptive's estimate lookups on `col`:
/// the latest runtime of a signature on a node, and its average runtime.
fn estimate_queries(col: &Collection, ops: u64, runs: usize) -> (f64, f64) {
    let sig = |k: u64| format!("mProjectPP_{}", k % SIGNATURES);
    let last = best_of(runs, || {
        for k in 0..ops {
            let latest = col
                .query()
                .filter("name", Op::Eq, sig(k))
                .filter("node", Op::Eq, format!("w-{}", k % NODES))
                .last();
            assert!(latest.is_some());
        }
    });
    let avg = best_of(runs, || {
        for k in 0..ops {
            let avg = col
                .query()
                .filter("name", Op::Eq, sig(k))
                .aggregate("makespan", Aggregate::Avg);
            assert!(avg.is_some());
        }
    });
    (last / ops as f64, avg / ops as f64)
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hiway-bench-provdb-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Best-of-`runs` wall time of `f`.
fn best_of(runs: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..runs {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "BENCH_provdb.json".to_string());

    let (n_docs, runs) = if quick { (5_000u64, 2) } else { (50_000u64, 3) };
    println!("provenance store benchmark: {n_docs} docs, best of {runs}");

    // --- append throughput: in-memory vs durable WAL ---------------------
    let mem_secs = best_of(runs, || {
        let db = ProvDb::new();
        let col = db.collection("events");
        for i in 0..n_docs {
            col.insert(doc(i));
        }
        assert_eq!(col.len() as u64, n_docs);
    });
    let mem_dps = n_docs as f64 / mem_secs;
    println!("  append in-memory: {mem_dps:>9.0} docs/sec ({mem_secs:.3}s)");

    let dir = scratch("append");
    let wal_secs = best_of(runs, || {
        let _ = std::fs::remove_dir_all(&dir);
        let db = ProvDb::open(&dir).expect("open durable");
        let col = db.collection("events");
        for i in 0..n_docs {
            col.insert(doc(i));
        }
        assert_eq!(col.len() as u64, n_docs);
    });
    let wal_dps = n_docs as f64 / wal_secs;
    println!("  append durable:   {wal_dps:>9.0} docs/sec ({wal_secs:.3}s)");

    // --- estimate queries on a growing store, unindexed vs indexed ------
    let (query_sizes, query_ops): (Vec<u64>, u64) = if quick {
        (vec![500, 5_000], 200)
    } else {
        (vec![2_000, 10_000, 50_000], 1_000)
    };
    let mut queries = Vec::new();
    for &size in &query_sizes {
        let col = ProvDb::new().collection("task_events");
        col.insert_many((0..size).map(doc).collect());
        let (last_scan, avg_scan) = estimate_queries(&col, query_ops, runs);
        col.create_index("name");
        let (last_index, avg_index) = estimate_queries(&col, query_ops, runs);
        println!(
            "  {size:>6} docs: latest {:>7.2} / {:>6.2} us, avg {:>8.2} / {:>7.2} us \
             (unindexed / indexed)",
            last_scan * 1e6,
            last_index * 1e6,
            avg_scan * 1e6,
            avg_index * 1e6
        );
        queries.push((size, last_scan, last_index, avg_scan, avg_index));
    }

    // --- import: one batch vs a per-line insert loop ---------------------
    // Pre-built so the comparison isolates the insert path (per-line
    // lock + WAL acquisition vs one batch guard), not JSON parsing.
    let parsed: Vec<Json> = (0..n_docs).map(doc).collect();
    // Store setup/teardown happens outside the timed region — deleting a
    // WAL directory is filesystem noise, not import cost.
    let import_dir = scratch("import");
    let timed_import = |per_line: bool| -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..runs {
            let _ = std::fs::remove_dir_all(&import_dir);
            let fresh = ProvDb::open(&import_dir)
                .expect("open durable")
                .collection("events");
            let t0 = Instant::now();
            if per_line {
                // The old import path: re-acquire the locks per line.
                for d in &parsed {
                    fresh.insert(d.clone());
                }
            } else {
                fresh.insert_many(parsed.clone());
            }
            best = best.min(t0.elapsed().as_secs_f64());
            assert_eq!(fresh.len() as u64, n_docs);
        }
        best
    };
    let line_secs = timed_import(true);
    let batch_secs = timed_import(false);
    println!(
        "  import {n_docs} docs: per-line {:.3}s, batched {:.3}s ({:.2}x)",
        line_secs,
        batch_secs,
        line_secs / batch_secs
    );
    // Same comparison with concurrent readers (the provenance store's
    // real situation: scheduler estimate queries run against the
    // collection while a dump imports). Per-line inserts
    // release and re-acquire the write lock between every document, so
    // each scan slips in and stretches the import; the batched path takes
    // the guard once.
    let contended_import = |per_line: bool| -> f64 {
        use std::sync::atomic::{AtomicBool, Ordering};
        let mut best = f64::INFINITY;
        for _ in 0..runs {
            let _ = std::fs::remove_dir_all(&import_dir);
            let fresh = ProvDb::open(&import_dir)
                .expect("open durable")
                .collection("events");
            let stop = AtomicBool::new(false);
            let secs = std::thread::scope(|s| {
                for _ in 0..2 {
                    let reader = fresh.clone();
                    let stop = &stop;
                    s.spawn(move || {
                        while !stop.load(Ordering::Relaxed) {
                            // Unindexed: a full scan under the read lock.
                            let _ = reader
                                .query()
                                .filter("name", Op::Eq, "mProjectPP_3")
                                .aggregate("makespan", Aggregate::Avg);
                        }
                    });
                }
                let t0 = Instant::now();
                if per_line {
                    for d in &parsed {
                        fresh.insert(d.clone());
                    }
                } else {
                    fresh.insert_many(parsed.clone());
                }
                let dt = t0.elapsed().as_secs_f64();
                stop.store(true, Ordering::Relaxed);
                dt
            });
            assert_eq!(fresh.len() as u64, n_docs);
            best = best.min(secs);
        }
        best
    };
    let cont_line_secs = contended_import(true);
    let cont_batch_secs = contended_import(false);
    let _ = std::fs::remove_dir_all(&import_dir);
    println!(
        "  import w/ 2 readers: per-line {:.3}s, batched {:.3}s ({:.2}x)",
        cont_line_secs,
        cont_batch_secs,
        cont_line_secs / cont_batch_secs
    );

    // --- recovery time vs log size ---------------------------------------
    let recovery_sizes: Vec<u64> = if quick {
        vec![500, 2_000, 8_000]
    } else {
        vec![2_000, 10_000, 50_000]
    };
    let mut recovery = Vec::new();
    for &size in &recovery_sizes {
        let dir = scratch(&format!("recover-{size}"));
        {
            let db = ProvDb::open(&dir).expect("open durable");
            let col = db.collection("events");
            for i in 0..size {
                col.insert(doc(i));
            }
        }
        let log_bytes: u64 = std::fs::read_dir(&dir)
            .expect("list store")
            .map(|e| e.expect("entry").metadata().expect("meta").len())
            .sum();
        let open_secs = best_of(runs, || {
            let db = ProvDb::open(&dir).expect("recover");
            assert_eq!(db.collection("events").len() as u64, size);
        });
        println!(
            "  recovery: {size:>6} records / {:>9} bytes in {:>7.1} ms",
            log_bytes,
            open_secs * 1e3
        );
        recovery.push((size, log_bytes, open_secs));
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&dir);

    let recovery_json: Vec<String> = recovery
        .iter()
        .map(|(size, bytes, secs)| {
            format!(
                "    {{ \"records\": {size}, \"log_bytes\": {bytes}, \"open_secs\": {secs:.6} }}"
            )
        })
        .collect();
    let query_json: Vec<String> = queries
        .iter()
        .map(|(size, last_scan, last_index, avg_scan, avg_index)| {
            format!(
                "    {{ \"docs\": {size}, \"latest_unindexed_us\": {:.3}, \"latest_indexed_us\": {:.3}, \"avg_unindexed_us\": {:.3}, \"avg_indexed_us\": {:.3} }}",
                last_scan * 1e6,
                last_index * 1e6,
                avg_scan * 1e6,
                avg_index * 1e6
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"benchmark\": \"provdb\",\n  \"docs\": {n_docs},\n  \"append\": {{\n    \"in_memory_docs_per_sec\": {mem_dps:.1},\n    \"durable_docs_per_sec\": {wal_dps:.1},\n    \"wal_overhead_frac\": {:.4}\n  }},\n  \"estimate_queries\": [\n{}\n  ],\n  \"import\": {{\n    \"per_line_secs\": {line_secs:.6},\n    \"batched_secs\": {batch_secs:.6},\n    \"speedup\": {:.2},\n    \"contended_per_line_secs\": {cont_line_secs:.6},\n    \"contended_batched_secs\": {cont_batch_secs:.6},\n    \"contended_speedup\": {:.2}\n  }},\n  \"recovery\": [\n{}\n  ]\n}}\n",
        wal_secs / mem_secs - 1.0,
        query_json.join(",\n"),
        line_secs / batch_secs,
        cont_line_secs / cont_batch_secs,
        recovery_json.join(",\n"),
    );
    std::fs::write(&out_path, &json).expect("write BENCH_provdb.json");
    println!("wrote {out_path}");
}
