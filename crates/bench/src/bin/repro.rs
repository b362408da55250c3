//! Regenerates every experiment table in `EXPERIMENTS.md`.
//!
//! Usage:
//!   repro [--quick] [--json] [--artifacts DIR] [e1 e2 ... | all]
//!
//! `--quick` runs reduced scales (seconds instead of minutes). Default
//! output is the markdown that `EXPERIMENTS.md` embeds; `--json` emits a
//! machine-readable array of reports instead.
//!
//! `--artifacts DIR` writes the machine-readable side outputs there:
//! every artifact an experiment attached (e.g. E15's
//! `BENCH_profile.json`), plus `BENCH_rounds.json` — the
//! rounds/messages/bits of every distributed run across the selected
//! experiments, for CI perf diffing. Experiments themselves never touch
//! the filesystem; this binary is the only writer.

use bc_bench::{run_experiment, ExperimentReport, ALL_EXPERIMENTS};
use bc_congest::json;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let json = args.iter().any(|a| a == "--json");
    let artifacts_dir: Option<String> =
        args.iter()
            .position(|a| a == "--artifacts")
            .map(|i| match args.get(i + 1) {
                Some(dir) => dir.clone(),
                None => {
                    eprintln!("repro: --artifacts needs a DIR");
                    std::process::exit(2);
                }
            });
    let mut skip_next = false;
    let ids: Vec<String> = args
        .iter()
        .filter(|a| {
            if skip_next {
                skip_next = false;
                return false;
            }
            if *a == "--artifacts" {
                skip_next = true;
            }
            !a.starts_with("--")
        })
        .cloned()
        .collect();
    let ids: Vec<String> = if ids.is_empty() || ids.iter().any(|i| i == "all") {
        ALL_EXPERIMENTS.iter().map(|s| s.to_string()).collect()
    } else {
        ids
    };
    if json {
        let mut reports: Vec<ExperimentReport> = Vec::new();
        for id in &ids {
            reports.extend(run_experiment(id, quick).unwrap_or_else(|e| fail(&e)));
        }
        if let Some(dir) = &artifacts_dir {
            write_artifacts(Path::new(dir), &reports, quick);
        }
        println!("{}", to_json(&reports));
        return;
    }
    println!(
        "# distbc experiment reproduction ({} scale)\n",
        if quick { "quick" } else { "full" }
    );
    let total = Instant::now();
    let mut all_reports: Vec<ExperimentReport> = Vec::new();
    for id in &ids {
        let start = Instant::now();
        for report in run_experiment(id, quick).unwrap_or_else(|e| fail(&e)) {
            println!("{report}");
            all_reports.push(report);
        }
        println!("_{} finished in {:.1?}_\n", id, start.elapsed());
    }
    println!("_total: {:.1?}_", total.elapsed());
    if let Some(dir) = &artifacts_dir {
        write_artifacts(Path::new(dir), &all_reports, quick);
    }
}

/// Reports a bad experiment id on stderr and exits nonzero.
fn fail(e: &bc_bench::UnknownExperiment) -> ! {
    eprintln!("repro: {e}");
    std::process::exit(2);
}

/// Writes every experiment-attached artifact plus the aggregated
/// `BENCH_rounds.json` into `dir` (created if missing).
fn write_artifacts(dir: &Path, reports: &[ExperimentReport], quick: bool) {
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("repro: cannot create artifacts dir {}: {e}", dir.display());
        std::process::exit(2);
    }
    let write = |path: &Path, content: &str| {
        if let Err(e) = std::fs::write(path, content) {
            eprintln!("repro: cannot write {}: {e}", path.display());
            std::process::exit(2);
        }
        eprintln!("wrote {} ({} bytes)", path.display(), content.len());
    };
    for r in reports {
        for (name, content) in &r.artifacts {
            write(&dir.join(name), content);
        }
    }
    write(&dir.join("BENCH_rounds.json"), &rounds_json(reports, quick));
}

/// The aggregated perf-trajectory file: one record per distributed run
/// across all selected experiments.
fn rounds_json(reports: &[ExperimentReport], quick: bool) -> String {
    let mut out = format!(
        "{{\"schema_version\":{},\"scale\":\"{}\",\"runs\":[",
        bc_congest::SCHEMA_VERSION,
        if quick { "quick" } else { "full" },
    );
    let runs = reports
        .iter()
        .flat_map(|r| r.perf.iter().map(move |p| (&r.id, p)));
    json::join(&mut out, runs, |out, (id, p)| {
        out.push_str("{\"experiment\":");
        json::write_str(out, id);
        out.push_str(",\"run\":");
        json::write_str(out, &p.run);
        write!(
            out,
            ",\"rounds\":{},\"messages\":{},\"bits\":{}}}",
            p.rounds, p.messages, p.bits
        )
    });
    out.push_str("]}");
    out
}

/// The `--json` payload: one object per report.
fn to_json(reports: &[ExperimentReport]) -> String {
    fn strings(out: &mut String, items: &[String]) {
        out.push('[');
        json::join(out, items, |out, s| {
            json::write_str(out, s);
            Ok(())
        });
        out.push(']');
    }
    let mut out = String::from("[");
    json::join(&mut out, reports, |out, r| {
        out.push_str("{\"id\":");
        json::write_str(out, &r.id);
        out.push_str(",\"title\":");
        json::write_str(out, &r.title);
        out.push_str(",\"headers\":");
        strings(out, &r.headers);
        out.push_str(",\"rows\":[");
        json::join(out, &r.rows, |out, row| {
            strings(out, row);
            Ok(())
        });
        out.push_str("],\"notes\":");
        strings(out, &r.notes);
        out.write_char('}')
    });
    out.push(']');
    out
}
