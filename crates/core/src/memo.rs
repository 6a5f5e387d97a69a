//! Cross-run memoization of completed invocations ("smart rerun").
//!
//! The paper's provenance traces are *re-executable* (§2.2, §3.5); the
//! provenance literature calls the payoff "smart rerun": skip work whose
//! result the store already holds. This module keys every committed
//! invocation by
//!
//! ```text
//! memo key = hash(task signature ‖ canonical digests of staged inputs)
//! ```
//!
//! where the signature is the task name plus its command (what would
//! execute) and the input digests come from
//! [`hiway_hdfs::Hdfs::content_digest`] (placement-independent, stable
//! across processes and runs). A re-submitted or crash-interrupted
//! workflow running with [`crate::HiwayConfig::with_resume`] against a
//! warm store looks each ready task up first: on a hit the driver
//! materializes the recorded outputs, emits a `memo:hit` span instead of
//! execute phases, and moves on — resuming mid-DAG without re-executing
//! anything the store already witnessed.
//!
//! The store keeps one document per committed invocation: a memoizing
//! run's `task_events` document also carries the `key` and the committed
//! `outputs` ([`crate::ProvenanceManager::record_task`]), and the lookup
//! is an indexed query on that `key`
//! ([`crate::ProvenanceManager::memo_hit`]).

/// FNV-1a 64 over a byte stream — the same digest family the simulated
/// HDFS uses, so keys are stable across processes.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The memo key of an invocation: task signature (name + command — what
/// would run) combined with the canonical digests of its staged inputs,
/// in input-declaration order. Rendered as fixed-width hex so it is a
/// clean indexable string.
pub fn memo_key(name: &str, command: &str, input_digests: &[u64]) -> String {
    let bytes = name
        .as_bytes()
        .iter()
        .copied()
        .chain([0x1f]) // unit separator: "ab"+"c" must differ from "a"+"bc"
        .chain(command.as_bytes().iter().copied())
        .chain(
            input_digests
                .iter()
                .flat_map(|d| d.to_le_bytes().into_iter()),
        );
    format!("{:016x}", fnv1a(bytes))
}

/// A committed invocation recalled from the store.
#[derive(Clone, Debug, PartialEq)]
pub struct MemoHit {
    /// Outputs the invocation committed, `(path, size)` in declaration
    /// order — what the driver materializes instead of executing.
    pub outputs: Vec<(String, u64)>,
    /// Node the original execution ran on (audit detail only).
    pub node: String,
    /// The original execution's makespan — the seconds the hit saves.
    pub saved_secs: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_is_sensitive_to_signature_and_digests() {
        let base = memo_key("align", "bwa mem ref.fa", &[1, 2]);
        assert_eq!(base, memo_key("align", "bwa mem ref.fa", &[1, 2]));
        assert_ne!(base, memo_key("align", "bwa mem ref.fa", &[2, 1]));
        assert_ne!(base, memo_key("align", "bwa mem ref.fa", &[1]));
        assert_ne!(base, memo_key("align", "bwa mem alt.fa", &[1, 2]));
        assert_ne!(base, memo_key("sort", "bwa mem ref.fa", &[1, 2]));
        // Name/command boundary is unambiguous.
        assert_ne!(memo_key("ab", "c", &[]), memo_key("a", "bc", &[]));
        assert_eq!(base.len(), 16, "fixed-width hex");
    }
}
