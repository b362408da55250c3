//! `bench_guard` end to end: the committed `BENCH_*.json` baselines that
//! CI guards, the same records whatever the field order, and the refusals.

use bc_congest::json::{self, Value};
use std::path::PathBuf;
use std::process::{Command, Output};

/// The `(file, --metric, --threshold)` triples `.github/workflows/ci.yml`
/// guards, with the number of records each file compares against itself.
const CI_GUARDS: [(&str, &str, &str, usize); 7] = [
    ("BENCH_engine.json", "wall_ns", "1.6", 18),
    (
        "BENCH_telemetry.json",
        "telemetry_overhead_permille",
        "1.25",
        18,
    ),
    ("BENCH_scaling.json", "ratio_permille", "1.5", 24),
    ("BENCH_sampled.json", "state_bytes_per_node", "1.1", 4),
    ("BENCH_sampled.json", "err_permille_jiyan", "1.1", 4),
    ("BENCH_faults.json", "overhead_permille", "1.25", 12),
    ("BENCH_serve.json", "mean_swap_ns", "2.5", 2),
];

fn committed(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(file)
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("bench-guard-{}-{name}", std::process::id()))
}

fn guard(fresh: &PathBuf, baseline: &PathBuf, metric: &str, threshold: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bench_guard"))
        .arg(fresh)
        .arg(baseline)
        .args(["--metric", metric, "--threshold", threshold])
        .output()
        .expect("spawn bench_guard")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// Writes `value` back as JSON with every object's fields in reverse
/// order (arrays keep theirs), so `engine` follows the metric and a
/// nested `profile` precedes its record's own fields.
fn reversed(out: &mut String, value: &Value) {
    match value {
        Value::Obj(obj) => {
            out.push('{');
            json::join(out, obj.fields.iter().rev(), |out, (key, value)| {
                json::write_str(out, key);
                out.push(':');
                reversed(out, value);
                Ok(())
            });
            out.push('}');
        }
        Value::Arr(items) => {
            out.push('[');
            json::join(out, items, |out, item| {
                reversed(out, item);
                Ok(())
            });
            out.push(']');
        }
        Value::Str(s) => json::write_str(out, s),
        Value::Num(text) => out.push_str(text),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Null => out.push_str("null"),
    }
}

#[test]
fn committed_baselines_compare_against_themselves() {
    for (file, metric, threshold, records) in CI_GUARDS {
        let path = committed(file);
        let out = guard(&path, &path, metric, threshold);
        let text = stdout(&out);
        assert_eq!(out.status.code(), Some(0), "{file} {metric}: {out:?}");
        assert!(
            text.contains(&format!(
                "compared {records} records, threshold {threshold}x, 0 regressed"
            )),
            "{file} {metric}: {text}"
        );
    }
}

#[test]
fn field_order_does_not_matter() {
    for (file, metric, threshold, _) in CI_GUARDS {
        let path = committed(file);
        let text = std::fs::read_to_string(&path).unwrap();
        let mut copy = String::new();
        reversed(&mut copy, &json::parse(&text).unwrap());
        let shuffled = tmp(&format!("reversed-{metric}-{file}"));
        std::fs::write(&shuffled, copy).unwrap();
        let same = guard(&path, &path, metric, threshold);
        let moved = guard(&shuffled, &path, metric, threshold);
        std::fs::remove_file(&shuffled).ok();
        assert_eq!(moved.status.code(), Some(0), "{file} {metric}: {moved:?}");
        assert_eq!(stdout(&moved), stdout(&same), "{file} {metric}");
    }
}

#[test]
fn a_record_without_the_metric_is_skipped() {
    let path = tmp("gap.json");
    std::fs::write(
        &path,
        "{\"schema_version\":1,\"profiles\":[{\"graph\":\"a\",\"engine\":\"e\"},\
         {\"graph\":\"b\",\"engine\":\"e\",\"wall_ns\":5}]}",
    )
    .unwrap();
    let out = guard(&path, &path, "wall_ns", "1.25");
    std::fs::remove_file(&path).ok();
    let text = stdout(&out);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(text.contains("compared 1 records"), "{text}");
    assert!(text.lines().any(|l| l.starts_with("b ")), "{text}");
    assert!(!text.lines().any(|l| l.starts_with("a ")), "{text}");
}

#[test]
fn unversioned_or_non_integer_input_exits_2() {
    for (name, doc) in [
        (
            "unversioned.json",
            "{\"profiles\":[{\"graph\":\"g\",\"engine\":\"e\",\"wall_ns\":1}]}",
        ),
        (
            "fraction.json",
            "{\"schema_version\":1,\"profiles\":[{\"graph\":\"g\",\"engine\":\"e\",\"wall_ns\":1.5}]}",
        ),
        ("truncated.json", "{\"schema_version\":1,\"profiles\":["),
    ] {
        let path = tmp(name);
        std::fs::write(&path, doc).unwrap();
        let out = guard(&path, &path, "wall_ns", "1.25");
        std::fs::remove_file(&path).ok();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{name}: {err}");
        assert!(err.starts_with("bench_guard: "), "{name}: {err}");
    }
}
