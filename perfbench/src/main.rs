//! Cycada benchmark: end-to-end and per-layer host wall time of the
//! simulated graphics stack, driven through the public API of `cycada`,
//! `cycada-workloads`, `cycada-fleet` and `cycada-replay`.
//!
//! ```text
//! cargo run --release -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload <panel|calls|churn|replay> --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release -q --manifest-path perfbench/Cargo.toml -- --smoke
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` interleaves
//! traced rounds (each app call timed from outside, trace gate on) with
//! untraced ones and reports the per-layer metrics. Every line before the
//! last is for people: the run context, each metric with its sample count
//! (`n/a` where it does not apply to the workload), failures, and the
//! simulated totals two commits must agree on. The last line is the JSON
//! result. `--smoke` runs every workload at its smallest size and checks
//! the report against `BENCHMARK.json`.

mod measure;
mod script;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;

use measure::{end_to_end, per_layer, Metric};
use workloads::{RunConfig, RunResult};

const WORKLOADS: [&str; 4] = ["panel", "calls", "churn", "replay"];

fn run(workload: &str, cfg: &RunConfig) -> Result<RunResult, String> {
    match workload {
        "panel" => workloads::panel(cfg),
        "calls" => workloads::calls(cfg),
        "churn" => workloads::churn(cfg),
        "replay" => workloads::replay(cfg),
        other => Err(format!(
            "unknown workload {other:?} (expected one of {WORKLOADS:?})"
        )),
    }
}

fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checked-out commit, read from `.git` in the working directory.
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_owned());
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_owned();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_owned))
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The metrics of one run: those listed in `BENCHMARK.json`, and those
/// only printed for people.
fn metrics_of(result: &mut RunResult, trace: bool) -> (Vec<Metric>, Vec<Metric>) {
    if trace {
        (per_layer(&result.measured), Vec::new())
    } else {
        end_to_end(&mut result.measured)
    }
}

fn report(
    workload: &str,
    cfg: &RunConfig,
    result: &RunResult,
    (metrics, printed): &(Vec<Metric>, Vec<Metric>),
) -> String {
    let shape = &result.shape;
    let tally = &result.measured.tally;
    let display = match shape.display {
        None => format!("native {}x{}", shape.panel.0, shape.panel.1),
        Some((w, h)) => format!("{w}x{h}"),
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{{\"run_context\":{{\"workload\":\"{workload}\",\"seed\":{},\"seconds\":{},\"trace\":{},\
         \"host_cores\":{},\"threads\":{},\"devices\":{},\"sessions_per_round\":{},\
         \"frames_per_session\":{},\"display\":\"{display}\",\"commit\":\"{}\",\"profile\":\"{}\"}}}}",
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        host_cores(),
        shape.threads,
        shape.devices,
        shape.sessions,
        shape.frames,
        commit(),
        if cfg!(debug_assertions) { "debug" } else { "release" },
    );
    for m in metrics.iter().chain(printed) {
        if m.samples == 0 {
            let _ = writeln!(out, "metric {} n/a ({})", m.name, m.unit);
        } else {
            let _ = writeln!(
                out,
                "metric {} {} {} samples={}",
                m.name, m.value, m.unit, m.samples
            );
        }
    }
    let _ = writeln!(
        out,
        "memory peak_rss_mb_at_end {} MB",
        measure::peak_rss_mb()
    );
    for line in tally.failures.iter().take(20) {
        let _ = writeln!(out, "FAIL {line}");
    }
    if tally.failures.len() > 20 {
        let _ = writeln!(out, "FAIL ... {} more", tally.failures.len() - 20);
    }
    let sim = &result.sim;
    let gpu = sim.gpu_round.map_or("null".to_owned(), |g| {
        format!(
            "{{\"commands\":{},\"draws\":{},\"clears\":{},\"blits\":{},\"vertices\":{},\
             \"fragments\":{},\"upload_bytes\":{},\"presents\":{}}}",
            g.commands,
            g.draws,
            g.clears,
            g.blits,
            g.vertices,
            g.fragments,
            g.upload_bytes,
            g.presents
        )
    });
    let _ = writeln!(
        out,
        "{{\"sim\":{{\"sessions\":{},\"virtual_ns\":{},\"digest\":\"{:#018x}\",\"gpu_round\":{gpu},\
         \"diplomat_calls_per_traced_round\":{}}}}}",
        sim.sessions,
        sim.virtual_ns,
        sim.digest,
        sim.diplomat_calls_per_round.map_or("null".to_owned(), |n| n.to_string()),
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    let _ = write!(
        out,
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(",")
    );
    out
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !args.smoke && args.workload.is_empty() {
        return Err("--workload is required".to_owned());
    }
    Ok(args)
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn listed(doc: &str, section: &str) -> Vec<(String, String)> {
    let start = doc.find(&format!("\"{section}\"")).map_or(doc.len(), |i| i);
    let end = doc[start..].find(']').map_or(doc.len(), |i| start + i);
    let field = |entry: &str, key: &str| {
        let at = entry.find(&format!("\"{key}\""))?;
        let rest = &entry[at + key.len() + 2..];
        let open = rest.find('"')? + 1;
        let close = open + rest[open..].find('"')?;
        Some(rest[open..close].to_owned())
    };
    doc[start..end]
        .split('{')
        .skip(1)
        .filter_map(|entry| Some((field(entry, "name")?, field(entry, "unit")?)))
        .collect()
}

/// Runs every workload at its smallest size, traced and untraced, and
/// with a corrupted reference digest.
fn smoke() -> Result<(), String> {
    let doc = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("reading BENCHMARK.json: {e}"))?;
    let cfg = |trace, corrupt_reference| RunConfig {
        seed: 7,
        seconds: 0.0,
        trace,
        threads: host_cores(),
        smoke: true,
        corrupt_reference,
    };
    for workload in WORKLOADS {
        for trace in [false, true] {
            let cfg = cfg(trace, false);
            let mut result = run(workload, &cfg)?;
            let metrics = metrics_of(&mut result, trace);
            println!("{}", report(workload, &cfg, &result, &metrics));
            let (metrics, _) = metrics;
            let tally = &result.measured.tally;
            if tally.failed != 0 || tally.attempted == 0 {
                return Err(format!(
                    "{workload}: {} of {} operations failed",
                    tally.failed, tally.attempted
                ));
            }
            let section = if trace { "per_layer" } else { "end_to_end" };
            let mut want = listed(&doc, section);
            let mut got: Vec<(String, String)> = metrics
                .iter()
                .map(|m| (m.name.to_owned(), m.unit.to_owned()))
                .collect();
            want.sort();
            got.sort();
            if want != got {
                return Err(format!("{workload}: printed {section} metrics {got:?} differ from BENCHMARK.json {want:?}"));
            }
            if let Some(m) = metrics.iter().find(|m| !trace && m.samples == 0) {
                return Err(format!(
                    "{workload}: end-to-end metric {} has no samples",
                    m.name
                ));
            }
        }
        let result = run(workload, &cfg(false, true))?;
        match result.measured.tally.failures.first() {
            Some(line) => println!("{workload}: wrong reference reported: {line}"),
            None => {
                return Err(format!(
                    "{workload}: a wrong reference digest was not reported as a failure"
                ))
            }
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.smoke {
        return match smoke() {
            Ok(()) => {
                println!("smoke: ok");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("smoke: FAILED: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let cfg = RunConfig {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        threads: host_cores(),
        smoke: false,
        corrupt_reference: false,
    };
    match run(&args.workload, &cfg) {
        Ok(result) if result.measured.tally.attempted == 0 => {
            eprintln!("perfbench: {}: no operation was attempted", args.workload);
            ExitCode::FAILURE
        }
        Ok(mut result) => {
            let metrics = metrics_of(&mut result, cfg.trace);
            println!("{}", report(&args.workload, &cfg, &result, &metrics));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}
