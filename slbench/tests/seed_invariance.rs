//! Self-tests of the benchmark's contract, run against the built binary:
//! the seed changes inputs but never the amount or kind of work, the
//! simulated digest does not depend on the worker-thread count, the
//! traced pass reproduces the untraced one, and every `respond` episode
//! keeps its outcome class under any seed.

use std::process::Command;

/// What one run printed: the `# units=...` header fields and the result.
struct Run {
    ops: String,
    kinds: String,
    digest: String,
    failed: String,
    json: String,
}

fn run(workload: &str, seed: u64, threads: usize, trace: bool) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_slbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            "1",
            "--trace",
            if trace { "1" } else { "0" },
            "--threads",
            &threads.to_string(),
        ])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} seed {seed} exited with {:?}:\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let header = stdout
        .lines()
        .find(|l| l.starts_with("# units="))
        .expect("run header");
    let field = |key: &str| -> String {
        let start = header.find(&format!("{key}=")).expect(key) + key.len() + 1;
        let rest = &header[start..];
        // `kinds={...}` holds spaces; every other field is one token.
        let end = if rest.starts_with('{') {
            rest.find('}').expect("closing brace") + 1
        } else {
            rest.find(' ').unwrap_or(rest.len())
        };
        rest[..end].to_string()
    };
    Run {
        ops: field("ops"),
        kinds: field("kinds"),
        digest: field("digest"),
        failed: field("failed"),
        json: stdout.lines().last().expect("result line").to_string(),
    }
}

fn assert_clean(r: &Run, what: &str) {
    assert_eq!(r.failed, "0", "{what}: failed ops");
    assert!(r.json.contains("\"correct\": true"), "{what}: {}", r.json);
    assert!(r.json.contains("\"failed\": 0"), "{what}: {}", r.json);
}

fn seeds_keep_the_work_fixed(workload: &str) {
    let a = run(workload, 1, 2, false);
    let b = run(workload, 2, 2, false);
    assert_clean(&a, workload);
    assert_clean(&b, workload);
    assert_eq!(a.ops, b.ops, "{workload}: op count follows the seed");
    assert_eq!(a.kinds, b.kinds, "{workload}: op-kind mix follows the seed");
    assert_ne!(a.digest, b.digest, "{workload}: the seed changes no input");
}

fn threads_keep_the_digest(workload: &str) {
    let one = run(workload, 3, 1, false);
    let two = run(workload, 3, 2, false);
    assert_clean(&one, workload);
    assert_clean(&two, workload);
    assert_eq!(
        one.digest, two.digest,
        "{workload}: digest differs between 1 and 2 threads"
    );
}

#[test]
fn serve_work_is_seed_invariant() {
    seeds_keep_the_work_fixed("serve");
}

#[test]
fn respond_work_is_seed_invariant() {
    seeds_keep_the_work_fixed("respond");
}

#[test]
fn sweep_work_is_seed_invariant() {
    seeds_keep_the_work_fixed("sweep");
}

#[test]
fn serve_digest_is_thread_invariant() {
    threads_keep_the_digest("serve");
}

#[test]
fn respond_digest_is_thread_invariant() {
    threads_keep_the_digest("respond");
}

#[test]
fn sweep_digest_is_thread_invariant() {
    threads_keep_the_digest("sweep");
}

/// Every episode checks its outcome class against its kind, so a class
/// that changed with the seed shows up as a failed op.
#[test]
fn respond_outcome_classes_hold_across_seeds() {
    for seed in [5, 6, 7, 8] {
        assert_clean(
            &run("respond", seed, 2, false),
            &format!("respond seed {seed}"),
        );
    }
}

/// The traced pass must simulate exactly what the untraced pass did; the
/// run reports `correct: false` when the digests differ.
#[test]
fn traced_runs_reproduce_the_untraced_digest() {
    for workload in ["serve", "respond"] {
        let r = run(workload, 4, 2, true);
        assert_clean(&r, &format!("{workload} traced"));
        assert!(r.json.contains("\"trace.accounted_share\""), "{}", r.json);
    }
}
