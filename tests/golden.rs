//! Golden-output corpus: the `--csv` centralities of a fixed matrix of
//! small runs, committed under `tests/golden/` and diffed byte for byte.
//!
//! Every other bit-identity check compares two engines of the same
//! commit; this one compares against the bytes a previous commit printed,
//! so a change that shifts every engine the same way fails here. The CSV
//! on stdout holds only the scores (the round and message summary goes
//! to stderr), so schedule changes that keep the scores leave the corpus
//! untouched.
//!
//! Regenerate deliberately, and say why in the change log:
//!
//! ```text
//! cargo test --test golden -- --ignored bless
//! ```

use std::path::PathBuf;
use std::process::Command;

/// The graphs of the serial × engine × algorithm matrix.
const GRAPHS: [&str; 4] = ["path:64", "grid:12:12", "er:128:0.05:3", "ba:200:2:5"];

/// Variant name (file suffix) and the extra `centrality` flags it adds.
const VARIANTS: [(&str, &[&str]); 5] = [
    ("serial", &[]),
    ("threads2", &["--threads", "2"]),
    (
        "reliable-faults",
        &[
            "--reliable",
            "--faults",
            "drop=0.1,dup=0.05,delay=0.2:3",
            "--fault-seed",
            "11",
        ],
    ),
    ("sampled8", &["--algorithm", "sampled:8"]),
    (
        "sampled8-jiyan",
        &["--algorithm", "sampled:8", "--estimator", "jiyan"],
    ),
];

/// One corpus entry: its file name and the full `distbc` argument list.
fn cases() -> Vec<(String, Vec<String>)> {
    let mut out = Vec::new();
    let mut push = |graph: &str, variant: &str, extra: &[&str]| {
        let name = format!("{}-{variant}.csv", graph.replace(['.', ':'], "_"));
        let mut args: Vec<String> = ["centrality", "--generate", graph, "--csv"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        args.extend(extra.iter().map(|s| s.to_string()));
        out.push((name, args));
    };
    for graph in GRAPHS {
        for (variant, extra) in VARIANTS {
            push(graph, variant, extra);
        }
    }
    push("ba:512:2:7", "serial", &[]);
    out
}

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn run(args: &[String]) -> Vec<u8> {
    let out = Command::new(env!("CARGO_BIN_EXE_distbc"))
        .args(args)
        .output()
        .expect("spawn distbc");
    assert!(out.status.success(), "distbc {args:?} failed: {out:?}");
    out.stdout
}

/// Runs every case on `threads` worker threads (each case spawns one
/// process) and returns `(file name, stdout)` in case order.
fn run_all(threads: usize) -> Vec<(String, Vec<u8>)> {
    let cases = cases();
    let chunks: Vec<_> = cases.chunks(cases.len().div_ceil(threads)).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|chunk| {
                scope.spawn(move || {
                    chunk
                        .iter()
                        .map(|(name, args)| (name.clone(), run(args)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("golden worker panicked"))
            .collect()
    })
}

#[test]
fn csv_output_matches_golden_corpus() {
    let mut mismatched = Vec::new();
    for (name, got) in run_all(2) {
        let path = golden_dir().join(&name);
        let want = std::fs::read(&path)
            .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()));
        if got != want {
            mismatched.push(name);
        }
    }
    assert!(
        mismatched.is_empty(),
        "CSV output differs from the golden corpus: {mismatched:?}"
    );
}

/// Rewrites the corpus from the current binary. Run only on purpose.
#[test]
#[ignore = "regenerates tests/golden/; run explicitly to bless new output"]
fn bless() {
    std::fs::create_dir_all(golden_dir()).unwrap();
    for (name, got) in run_all(2) {
        std::fs::write(golden_dir().join(name), got).unwrap();
    }
}
