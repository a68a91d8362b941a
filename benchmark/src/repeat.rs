//! The multi-run modes. Each run is a child process of this same
//! binary, so every workload starts from a fresh process under its own
//! placement, exactly as the driver runs it.

use crate::{spec, stats, Args};
use std::collections::BTreeMap;
use std::process::Command;

/// One child run's result line, parsed back.
struct ChildResult {
    line: String,
    correct: bool,
    failed: u64,
    /// Metric name → value.
    values: BTreeMap<String, f64>,
}

/// The text between `key` and the next `,` or `}`.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let rest = &line[line.find(key)? + key.len()..];
    Some(rest[..rest.find([',', '}'])?].trim())
}

/// Parses the one-line format [`spec::Report::line`] writes.
fn parse(line: &str) -> Option<ChildResult> {
    let mut values = BTreeMap::new();
    let marker = "\": {\"value\": ";
    let mut rest = line;
    while let Some(at) = rest.find(marker) {
        let name = &rest[rest[..at].rfind('"')? + 1..at];
        rest = &rest[at + marker.len()..];
        values.insert(name.to_string(), rest[..rest.find(',')?].parse().ok()?);
    }
    Some(ChildResult {
        line: line.to_string(),
        correct: field(line, "\"correct\": ")? == "true",
        failed: field(line, "\"failed\": ")?.parse().ok()?,
        values,
    })
}

fn child(workload: &str, seed: u64, seconds: f64, traced: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{workload} (seed {seed}) exited with {}",
            output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    stdout
        .lines()
        .last()
        .and_then(parse)
        .ok_or_else(|| format!("{workload} (seed {seed}) printed no result line"))
}

fn chosen_workloads(args: &Args) -> Vec<&'static str> {
    let all = spec::WORKLOADS.iter().map(|(name, _)| *name);
    match args.get("--workloads") {
        Some(list) => all.filter(|n| list.split(',').any(|w| w == *n)).collect(),
        None => all.collect(),
    }
}

/// `run` / `trace`: every workload once, one JSON document.
pub fn suite(args: &Args, traced: bool) -> Result<(), String> {
    let seed: u64 = args.number("--seed", None)?;
    let seconds: f64 = args.number("--seconds", Some(f64::from(spec::RUN_SECONDS)))?;
    let mut rows = Vec::new();
    let mut clean = true;
    for workload in chosen_workloads(args) {
        eprintln!("benchmark: {workload}");
        let result = child(workload, seed, seconds, traced)?;
        clean &= result.correct && result.failed == 0;
        rows.push(format!("    \"{workload}\": {}", result.line));
    }
    println!(
        "{{\n  \"seed\": {seed},\n  \"seconds\": {seconds},\n  \"trace\": {},\n  \"workloads\": {{\n{}\n  }}\n}}",
        u8::from(traced),
        rows.join(",\n")
    );
    if clean {
        Ok(())
    } else {
        Err("a workload reported failed operations or a violated oracle".into())
    }
}

/// Five significant digits, whatever the magnitude (set-up times are
/// microseconds in seconds, throughputs hundreds of thousands).
fn digits(v: f64) -> String {
    let decimals = (4 - v.abs().log10().floor() as i32).clamp(0, 12) as usize;
    format!("{v:.decimals$}")
}

/// Median, quartiles, interquartile share and max/min − 1 of one
/// metric's values over one set of runs, then the values themselves.
fn spread_row(values: &[f64]) -> String {
    let (q1, q3) = stats::quartiles(values);
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    let raw: Vec<String> = values.iter().map(|v| digits(*v)).collect();
    format!(
        "median {}  q1 {}  q3 {}  iqr/median {:.2}%  max/min-1 {:.2}%\n         runs: {}",
        digits(stats::median(values)),
        digits(q1),
        digits(q3),
        100.0 * stats::iqr_share(values),
        100.0 * (max / min - 1.0),
        raw.join(" "),
    )
}

/// `repeat`: `--sets` sets of `--runs` runs per workload, each run on
/// its own seed, sets interleaved in time (set 1 of every workload,
/// then set 2 …) so that two sets of one workload are minutes apart.
/// Prints per workload and end-to-end metric each set's spread and the
/// set-to-set move of the median against the metric's bound; then, per
/// workload, whether the median of `--short-k` short runs repeats
/// better than one long run.
pub fn repeat(args: &Args) -> Result<(), String> {
    let sets: usize = args.number("--sets", Some(2))?;
    let runs: usize = args.number("--runs", Some(5))?;
    let short_k: usize = args.number("--short-k", Some(3))?;
    let seconds: f64 = args.number("--seconds", Some(f64::from(spec::RUN_SECONDS)))?;
    let base: u64 = args.number("--seed", Some(1))?;
    if sets < 1 || runs < 2 {
        return Err("repeat needs --sets >= 1 and --runs >= 2".into());
    }
    let workloads = chosen_workloads(args);
    let started = std::time::Instant::now();

    // results[workload][set][metric] = values over runs
    let mut results: BTreeMap<&str, Vec<BTreeMap<String, Vec<f64>>>> = BTreeMap::new();
    let mut seed = base;
    for set in 0..sets {
        for &workload in &workloads {
            let mut by_metric: BTreeMap<String, Vec<f64>> = BTreeMap::new();
            for run in 0..runs {
                eprintln!(
                    "benchmark: [{:>5.0}s] set {} {workload} run {}",
                    started.elapsed().as_secs_f64(),
                    set + 1,
                    run + 1
                );
                let result = child(workload, seed, seconds, false)?;
                seed += 1;
                if !result.correct || result.failed != 0 {
                    return Err(format!("{workload} failed: {}", result.line));
                }
                for (metric, value) in result.values {
                    by_metric.entry(metric).or_default().push(value);
                }
            }
            results.entry(workload).or_default().push(by_metric);
        }
    }

    println!("# repeat: {sets} sets x {runs} runs x {seconds} s, seeds {base}..{seed}");
    for &workload in &workloads {
        for metric in &spec::END_TO_END {
            println!("{workload} {} [{}]", metric.name, metric.unit);
            let per_set = &results[workload];
            for (set, by_metric) in per_set.iter().enumerate() {
                println!("  set {}: {}", set + 1, spread_row(&by_metric[metric.name]));
            }
            for pair in per_set.windows(2) {
                let (a, b) = (
                    stats::median(&pair[0][metric.name]),
                    stats::median(&pair[1][metric.name]),
                );
                let worse = if metric.better == "lower" {
                    b / a - 1.0
                } else {
                    a / b - 1.0
                };
                println!(
                    "  set-to-set: median moved {:+.2}% (worse is positive); bound {:.0}%",
                    100.0 * worse,
                    100.0 * metric.bound
                );
            }
        }
    }

    if short_k >= 2 {
        println!("# median of {short_k} short runs ({:.2} s each) against one long run ({seconds} s): quiet_p50_us", seconds / short_k as f64);
        for &workload in &workloads {
            let mut medians = Vec::with_capacity(runs);
            for group in 0..runs {
                eprintln!(
                    "benchmark: [{:>5.0}s] short runs {workload} group {}",
                    started.elapsed().as_secs_f64(),
                    group + 1
                );
                let mut shorts = Vec::with_capacity(short_k);
                for _ in 0..short_k {
                    let result = child(workload, seed, seconds / short_k as f64, false)?;
                    seed += 1;
                    shorts.push(result.values["quiet_p50_us"]);
                }
                medians.push(stats::median(&shorts));
            }
            let long = stats::iqr_share(&results[workload][0]["quiet_p50_us"]);
            let short = stats::iqr_share(&medians);
            println!(
                "{workload}: iqr/median long {:.2}%  median-of-{short_k}-short {:.2}%  -> {} repeats better",
                100.0 * long,
                100.0 * short,
                if short < long { "short" } else { "long" }
            );
        }
    }
    Ok(())
}
