//! Visualizes the protocol's phase structure: messages per round over one
//! run, bucketed into a sparkline. The counting phase shows the pipelined
//! wave burst, the reduce/broadcast interlude is nearly silent, and the
//! aggregation phase mirrors the counting burst in reverse — the timeline
//! the paper's Algorithms 2–3 imply but never plot.
//!
//! Run with: `cargo run --release --example phase_timeline`

use distbc::core::{run_distributed_bc, DistBcConfig};
use distbc::graph::generators;
use std::error::Error;

const BARS: [char; 9] = [' ', '▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

fn sparkline(series: &[u64], buckets: usize) -> String {
    let chunk = series.len().div_ceil(buckets).max(1);
    let sums: Vec<u64> = series.chunks(chunk).map(|c| c.iter().sum()).collect();
    let max = *sums.iter().max().unwrap_or(&1);
    sums.iter()
        .map(|&s| {
            let idx = if max == 0 {
                0
            } else {
                ((s as f64 / max as f64) * (BARS.len() - 1) as f64).round() as usize
            };
            BARS[idx]
        })
        .collect()
}

fn main() -> Result<(), Box<dyn Error>> {
    let g = generators::erdos_renyi_connected(96, 0.06, 11);
    println!("network: {} nodes, {} edges\n", g.n(), g.m());

    let out = run_distributed_bc(&g, DistBcConfig::default())?;
    let series = &out.metrics.per_round_messages;
    let s = out.schedule;
    println!(
        "{} rounds, {} messages; windows: counting {}, reduce {}, broadcast {}, aggregation {}",
        out.rounds,
        out.metrics.total_messages,
        s.counting_start,
        s.reduce_start,
        s.broadcast_start,
        s.agg_start
    );
    println!("  |{}|", sparkline(series, 72));
    // Locate the phases from the data: the longest quiet stretch
    // separates counting from aggregation.
    let peak = *series.iter().max().unwrap_or(&0);
    let busy: Vec<usize> = series
        .iter()
        .enumerate()
        .filter(|(_, &m)| m > peak / 20)
        .map(|(i, _)| i)
        .collect();
    if let (Some(&first), Some(&last)) = (busy.first(), busy.last()) {
        println!("  active rounds {first}..{last}; peak {peak} messages/round\n");
    }
    assert!(out.metrics.congest_compliant());
    println!(
        "the two bursts are the pipelined BFS waves (Algorithm 2) and the reverse\n\
         aggregation schedule (Algorithm 3); the windows are sized from the BFS-tree\n\
         depth, so only O(depth) idle rounds separate them."
    );
    Ok(())
}
