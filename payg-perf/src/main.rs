//! `payg-perf` command line.
//!
//! ```text
//! payg-perf [--workload <name>] --seed <n> --seconds <s> --trace <0|1> [--out <file>]
//! payg-perf agree <a.jsonl> <b.jsonl> [--benchmark <BENCHMARK.json>]
//! ```
//!
//! Without `--workload` all four run in turn. Every metric is printed as
//! `workload metric value unit`; the last line of a single-workload run is
//! the result object the driver reads. `--out` appends one JSON record per
//! workload, the input of `agree`.

use payg_perf::report;
use payg_perf::run::{default_data_root, run, RunConfig, Scale, Workload};
use std::io::Write;
use std::process::{Command, ExitCode};

fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

fn machine() -> String {
    format!(
        "nproc={} rustc={} commit={} store=FileStore+ProbeStore",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        tool_line("rustc", &["--version"]),
        tool_line("git", &["rev-parse", "--short", "HEAD"]),
    )
}

fn agree(args: &[String]) -> Result<bool, String> {
    let mut files = Vec::new();
    let mut benchmark = "BENCHMARK.json".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--benchmark" {
            benchmark = it.next().ok_or("--benchmark needs a path")?.clone();
        } else {
            files.push(a);
        }
    }
    let [a, b] = files[..] else {
        return Err("usage: payg-perf agree <a.jsonl> <b.jsonl> [--benchmark <file>]".into());
    };
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let (text, ok) = report::agree(&read(&benchmark)?, &read(a)?, &read(b)?)?;
    print!("{text}");
    Ok(ok)
}

fn bench(args: &[String]) -> Result<(), String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--out" => out = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seed = seed.ok_or("--seed is required")?;
    let seconds = seconds
        .filter(|s| *s > 0.0 && *s <= 600.0)
        .ok_or("--seconds must be in (0, 600]")?;
    let trace = trace.unwrap_or(false);
    let machine = machine();
    println!("# machine {machine}");
    let mut last = String::new();
    for w in workload.map_or(Workload::ALL.to_vec(), |w| vec![w]) {
        let cfg = RunConfig {
            workload: w,
            seed,
            seconds,
            trace,
            scale: Scale::reference(),
            data_root: default_data_root(),
            corrupt_expected: false,
        };
        let outcome = run(&cfg)?;
        print!("{}", outcome.text());
        if let Some(path) = &out {
            let mut f = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .map_err(|e| format!("{path}: {e}"))?;
            writeln!(f, "{}", outcome.record_json(trace, seed, &machine))
                .map_err(|e| format!("{path}: {e}"))?;
        }
        last = outcome.result_json(trace);
    }
    if workload.is_some() {
        println!("{last}");
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let res = match args.first().map(String::as_str) {
        Some("agree") => agree(&args[1..]),
        _ => bench(&args).map(|()| true),
    };
    match res {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(2),
        Err(e) => {
            eprintln!("payg-perf: {e}");
            ExitCode::from(1)
        }
    }
}
