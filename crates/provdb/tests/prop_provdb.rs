//! Property battery for the storage engine and its query path.
//!
//! Two invariants from the durability design, plus a differential check
//! of the query planner:
//!
//! 1. **Byte-determinism**: any sequence of operations (unicode documents,
//!    escapes, nested values; collection creation; index definitions;
//!    compaction at an arbitrary point) survives close-and-reopen with a
//!    byte-identical `export_all` dump, across WAL segment rotations.
//! 2. **Prefix recovery**: truncating the on-disk log at *any* byte
//!    offset, `ProvDb::open` succeeds (no panic, no partial record) and
//!    the recovered state equals the state after some prefix of the
//!    committed writes.
//! 3. **Query = scan**: `collect`, `last` and every `Aggregate` over a
//!    random filter chain give exactly what a plain filter over a
//!    `Vec<Json>` gives, in the same order, whatever fields are indexed.
//!
//! Run with `PROPTEST_CASES=4000` in nightly CI for a deep sweep.

use proptest::prelude::*;

use hiway_format::json::Json;
use hiway_provdb::{Aggregate, Collection, DurableOptions, Op, ProvDb};

/// Unique scratch directory per test case.
fn scratch(tag: &str, case: u64) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "hiway-provdb-prop-{}-{tag}-{case}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Bounded arbitrary JSON documents: unicode, escapes, nesting.
fn arb_doc() -> impl Strategy<Value = Json> {
    let leaf = prop_oneof![
        Just(Json::Null),
        any::<bool>().prop_map(Json::Bool),
        (-1.0e9f64..1.0e9).prop_map(|n| Json::Number((n * 100.0).round() / 100.0)),
        "[a-zA-Z0-9 _/.:\\\\\"\n\t\u{e9}\u{4e16}\u{1f600}]{0,12}".prop_map(Json::String),
    ];
    leaf.prop_recursive(2, 12, 4, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..4).prop_map(Json::Array),
            proptest::collection::vec(("[a-z]{1,6}", inner), 0..4).prop_map(|pairs| {
                let mut seen = std::collections::HashSet::new();
                Json::Object(
                    pairs
                        .into_iter()
                        .filter(|(k, _)| seen.insert(k.clone()))
                        .collect(),
                )
            }),
        ]
    })
}

/// One logical operation against the database.
#[derive(Clone, Debug)]
enum DbOp {
    Insert { collection: usize, doc: Json },
    Index { collection: usize, field: String },
}

const COLLECTIONS: [&str; 3] = ["tasks", "files", "workflow_\u{e9}vents"];

fn arb_ops() -> impl Strategy<Value = Vec<DbOp>> {
    proptest::collection::vec(
        prop_oneof![
            (0usize..COLLECTIONS.len(), arb_doc())
                .prop_map(|(collection, doc)| DbOp::Insert { collection, doc }),
            (0usize..COLLECTIONS.len(), "[a-c]{1}")
                .prop_map(|(collection, field)| DbOp::Index { collection, field }),
        ],
        1..12,
    )
}

fn apply(db: &ProvDb, op: &DbOp) {
    match op {
        DbOp::Insert { collection, doc } => {
            db.collection(COLLECTIONS[*collection]).insert(doc.clone());
        }
        DbOp::Index { collection, field } => {
            db.collection(COLLECTIONS[*collection]).create_index(field);
        }
    }
}

/// `export_all` after applying each prefix of `ops` to a fresh in-memory
/// database — the reference states the recovered database must be among.
fn prefix_exports(ops: &[DbOp]) -> Vec<String> {
    // Record-level granularity: a first touch of a collection is its own
    // committed write (the WAL logs it separately from the insert that
    // triggered it), so it contributes its own prefix state.
    let db = ProvDb::new();
    let mut exports = vec![db.export_all()];
    for op in ops {
        let name = COLLECTIONS[match op {
            DbOp::Insert { collection, .. } | DbOp::Index { collection, .. } => *collection,
        }];
        if !db.collection_names().contains(&name.to_string()) {
            db.collection(name);
            exports.push(db.export_all());
        }
        let before = db.export_all();
        apply(&db, op);
        let after = db.export_all();
        if after != before {
            exports.push(after);
        }
    }
    exports
}

/// Fields the query documents draw from; `d` is often missing.
const FIELDS: [&str; 4] = ["a", "b", "c", "d"];

/// A small value domain, so `Eq` clauses hit often: small numbers
/// (`-0.0` included, which `==` equates with `0`), strings, booleans,
/// null, and short arrays of numbers.
fn arb_value() -> impl Strategy<Value = Json> {
    prop_oneof![
        (0u8..4).prop_map(|n| Json::Number(n as f64)),
        Just(Json::Number(-0.0)),
        "[xyz]{1}".prop_map(Json::String),
        any::<bool>().prop_map(Json::Bool),
        Just(Json::Null),
        proptest::collection::vec((0u8..2).prop_map(|n| Json::Number(n as f64)), 0..3)
            .prop_map(Json::Array),
    ]
}

/// A document holding a random subset of [`FIELDS`].
fn arb_query_doc() -> impl Strategy<Value = Json> {
    proptest::collection::vec(proptest::option::of(arb_value()), 4..5).prop_map(|values| {
        let pairs = FIELDS.iter().zip(values);
        Json::Object(
            pairs
                .filter_map(|(f, v)| Some((f.to_string(), v?)))
                .collect(),
        )
    })
}

/// One clause of a filter chain: field, operator, value.
fn arb_clause() -> impl Strategy<Value = (usize, Op, Json)> {
    let op = prop_oneof![Just(Op::Eq), Just(Op::Ne), Just(Op::Lt), Just(Op::Ge)];
    (0usize..FIELDS.len(), op, arb_value())
}

/// The oracle's reading of one clause, written independently of the
/// store: a missing field never matches; `Lt`/`Ge` compare numbers with
/// numbers and strings with strings, and nothing else.
fn oracle_holds(doc: &Json, (field, op, value): &(usize, Op, Json)) -> bool {
    let Some(actual) = doc.get(FIELDS[*field]) else {
        return false;
    };
    let ord = match (actual, value) {
        (Json::Number(a), Json::Number(b)) => a.partial_cmp(b),
        (Json::String(a), Json::String(b)) => Some(a.cmp(b)),
        _ => None,
    };
    match op {
        Op::Eq => actual == value,
        Op::Ne => actual != value,
        Op::Lt => ord == Some(std::cmp::Ordering::Less),
        Op::Ge => ord.is_some_and(|o| o != std::cmp::Ordering::Less),
        Op::Le | Op::Gt => unreachable!("not generated"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Invariant 3: the indexed, borrowing query path returns exactly the
    /// documents, order and aggregates of a full scan. Indexes are built
    /// part-way through the inserts, so both index construction and
    /// incremental maintenance serve the candidates.
    #[test]
    fn queries_match_a_full_scan_oracle(
        (docs, indexed, index_at, chain, agg_field) in (
            proptest::collection::vec(arb_query_doc(), 0..40),
            proptest::collection::vec(any::<bool>(), 4..5),
            0usize..40,
            proptest::collection::vec(arb_clause(), 0..4),
            0usize..FIELDS.len(),
        )
    ) {
        let col = Collection::default();
        let split = index_at.min(docs.len());
        col.insert_many(docs[..split].to_vec());
        for (field, on) in FIELDS.iter().zip(&indexed) {
            if *on {
                col.create_index(field);
            }
        }
        for doc in &docs[split..] {
            col.insert(doc.clone());
        }
        let query = || {
            chain.iter().fold(col.query(), |q, (field, op, value)| {
                q.filter(FIELDS[*field], *op, value.clone())
            })
        };
        let expected: Vec<Json> = docs
            .iter()
            .filter(|d| chain.iter().all(|clause| oracle_holds(d, clause)))
            .cloned()
            .collect();
        prop_assert_eq!(query().collect(), expected.clone(), "collect");
        prop_assert_eq!(query().last(), expected.last().cloned(), "last");
        let values: Vec<f64> = expected
            .iter()
            .filter_map(|d| d.get(FIELDS[agg_field]).and_then(Json::as_f64))
            .collect();
        for agg in [
            Aggregate::Count,
            Aggregate::Sum,
            Aggregate::Avg,
            Aggregate::Min,
            Aggregate::Max,
        ] {
            prop_assert_eq!(
                query().aggregate(FIELDS[agg_field], agg),
                agg.apply(&values),
                "{:?}",
                agg
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Invariant 1: close-and-reopen is byte-identical, with segment
    /// rotation forced and compaction at an arbitrary point.
    #[test]
    fn reopen_is_byte_identical(
        (ops, case, segment_bytes, compact_at) in (
            arb_ops(),
            0u64..u64::MAX,
            64u64..512,
            0usize..12,
        )
    ) {
        let dir = scratch("reopen", case);
        let expected = {
            let db = ProvDb::open_with(&dir, DurableOptions { segment_bytes })
                .expect("open fresh");
            for (i, op) in ops.iter().enumerate() {
                if i == compact_at % ops.len().max(1) {
                    db.compact().expect("compact mid-stream");
                }
                apply(&db, op);
            }
            db.export_all()
        };
        {
            let reopened = ProvDb::open(&dir).expect("reopen");
            prop_assert_eq!(reopened.export_all(), expected.clone(), "reopen");
            // Index *definitions* survived, not just documents.
            for name in reopened.collection_names() {
                let _ = reopened.collection(&name).index_fields();
            }
            reopened.compact().expect("compact at quiesce");
        }
        let again = ProvDb::open(&dir).expect("reopen after compaction");
        prop_assert_eq!(again.export_all(), expected, "post-compaction reopen");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Invariant 2: truncating the log at ANY byte offset recovers
    /// exactly a prefix of the committed writes.
    #[test]
    fn any_truncation_recovers_a_prefix(
        (ops, case, segment_bytes, cut_seed) in (
            arb_ops(),
            0u64..u64::MAX,
            64u64..512,
            0u64..u64::MAX,
        )
    ) {
        let dir = scratch("truncate", case);
        {
            let db = ProvDb::open_with(&dir, DurableOptions { segment_bytes })
                .expect("open fresh");
            for op in &ops {
                apply(&db, op);
            }
        }
        // Pick a byte offset across the concatenated WAL segments.
        let mut segments: Vec<(String, u64)> = std::fs::read_dir(&dir)
            .expect("list dir")
            .map(|e| e.expect("entry"))
            .filter(|e| e.file_name().to_string_lossy().starts_with("wal-"))
            .map(|e| {
                (
                    e.path().to_string_lossy().to_string(),
                    e.metadata().expect("meta").len(),
                )
            })
            .collect();
        segments.sort();
        let total: u64 = segments.iter().map(|(_, len)| len).sum();
        let cut = cut_seed % (total + 1);
        let mut remaining = cut;
        for (path, len) in &segments {
            if remaining < *len {
                let f = std::fs::OpenOptions::new()
                    .write(true)
                    .open(path)
                    .expect("open segment");
                f.set_len(remaining).expect("truncate");
                break;
            }
            remaining -= len;
        }
        // Recovery must succeed and land on a committed-write prefix.
        // (Segments after the cut are intentionally left in place:
        // recovery itself must drop them to preserve the invariant.)
        let recovered = ProvDb::open(&dir).expect("recovery never fails");
        let export = recovered.export_all();
        let prefixes = prefix_exports(&ops);
        prop_assert!(
            prefixes.contains(&export),
            "recovered state is not a prefix of committed writes\n cut {} of {}\n got:\n{}",
            cut,
            total,
            export
        );
        // Idempotence: recovering again reproduces the same state.
        drop(recovered);
        let again = ProvDb::open(&dir).expect("second recovery");
        prop_assert_eq!(again.export_all(), export);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The dump format round-trips arbitrary documents and index specs
    /// through text (`export_all` → `import_all`) byte-identically.
    #[test]
    fn dump_round_trip_is_stable((ops, case) in (arb_ops(), 0u64..u64::MAX)) {
        let _ = case;
        let db = ProvDb::new();
        for op in &ops {
            apply(&db, op);
        }
        let dump = db.export_all();
        let restored = ProvDb::new();
        restored.import_all(&dump).expect("own dump imports");
        prop_assert_eq!(restored.export_all(), dump.clone(), "dump stability");
        for name in db.collection_names() {
            prop_assert_eq!(
                restored.collection(&name).index_fields(),
                db.collection(&name).index_fields(),
                "index specs round-trip"
            );
        }
    }
}
