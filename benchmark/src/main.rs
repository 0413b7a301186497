//! The repo benchmark: four workloads from the wire down to the device,
//! measured from outside through the crates' public functions. See
//! `benchmark/README.md`.
//!
//! ```text
//! run.sh --workload NAME --seed N --seconds S --trace 0|1    one run; last line is the result
//! run.sh [--seed N] [--seconds S] [--trace] [--quick] [--repeat N]
//!                                      every workload, each in a fresh process
//! run.sh --describe                    print BENCHMARK.json
//! run.sh --metrics                     print every metric with its clock and what it should move
//! ```

mod gen;
mod ladder;
mod measure;
mod ops;
mod report;
mod run;
mod spec;
mod store;
mod trace;

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use report::{Collected, Spread};
use spec::{Workload, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};

/// `--quick` run length: the whole set in under 30 s, numbers good for
/// nothing but showing that every workload still runs and checks out.
const QUICK_SECONDS: f64 = 2.0;

struct Cli {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    repeat: usize,
    out_dir: PathBuf,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        quick: false,
        repeat: 1,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut words = args.iter();
    while let Some(flag) = words.next() {
        let mut value = || words.next().ok_or(format!("{flag} needs a value"));
        let bad = |v: &String| format!("{flag}: cannot read {v:?}");
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                cli.workload = Some(spec::workload(name).ok_or(format!(
                    "no workload {name:?}; there are {}",
                    WORKLOADS.map(|w| w.name).join(", ")
                ))?);
            }
            "--seed" => cli.seed = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--seconds" => {
                cli.seconds = value().and_then(|v| v.parse().map_err(|_| bad(v)))?;
                if !(cli.seconds > 0.0 && cli.seconds <= 60.0) {
                    return Err("--seconds must be over 0 and at most 60".to_string());
                }
            }
            "--repeat" => cli.repeat = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--out-dir" => cli.out_dir = PathBuf::from(value()?),
            "--quick" => (cli.quick, cli.seconds) = (true, QUICK_SECONDS),
            // The driver passes 0 or 1; a person passes the bare flag.
            "--trace" => match words.clone().next().map(String::as_str) {
                Some(v @ ("0" | "1")) => {
                    cli.trace = v == "1";
                    words.next();
                }
                _ => cli.trace = true,
            },
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--describe") {
        print!("{}", report::benchmark_json());
        return ExitCode::SUCCESS;
    }
    if args.iter().any(|a| a == "--metrics") {
        for (list, defs) in [("end-to-end", END_TO_END), ("per-layer", PER_LAYER)] {
            println!("{list}: name, unit, better, clock, bound; meaning or what it should move");
            for m in defs {
                let bound = m.bound.map_or("-".to_string(), |b| b.to_string());
                println!(
                    "  {:36} {:6} {:6} [{}] {bound}; {}",
                    m.name, m.unit, m.better, m.clock, m.note
                );
            }
        }
        return ExitCode::SUCCESS;
    }
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("clam-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match cli.workload {
        Some(w) => one_run(&cli, w),
        None => full_sets(&cli),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("clam-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One workload in this process. Prints every reading, then the verdict,
/// then the driver's result line. `Ok(false)` is a run that finished but
/// found wrong outputs.
fn one_run(cli: &Cli, w: &'static Workload) -> Result<bool, store::BoxError> {
    println!(
        "# {} seed {} seconds {} trace {} connections {} cores {}",
        w.name,
        cli.seed,
        cli.seconds,
        u8::from(cli.trace),
        if w.wire { run::connections() } else { 1 },
        run::cores(),
    );
    let outcome = run::run(&run::Args {
        workload: w,
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        out_dir: cli.out_dir.clone(),
    })?;
    for reading in &outcome.readings {
        println!("{}", report::metric_line(reading));
    }
    for note in &outcome.notes {
        println!("note {note}");
    }
    println!("{}", Collected::verdict_line(&outcome));
    println!("{}", report::result_line(&outcome, cli.trace)?);
    Ok(outcome.correct)
}

/// Runs one workload in a child process, echoing its output, and collects
/// what it printed. A child that dies counts as incorrect.
fn child_run(cli: &Cli, w: &Workload, traced: bool) -> Result<Collected, store::BoxError> {
    let mut child = Command::new(std::env::current_exe()?)
        .arg("--out-dir")
        .arg(&cli.out_dir)
        .args(["--workload", w.name, "--seed", &cli.seed.to_string()])
        .args(["--seconds", &cli.seconds.to_string(), "--trace", if traced { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .spawn()?;
    let mut collected = Collected::default();
    for line in BufReader::new(child.stdout.take().expect("piped stdout")).lines() {
        let line = line?;
        if !line.starts_with('{') {
            println!("  {line}");
        }
        collected.absorb_line(&line);
    }
    if !child.wait()?.success() {
        collected.correct = false;
        collected.notes.push("the run exited with a failure".to_string());
    }
    Ok(collected)
}

fn git_rev() -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map_or("unknown".to_string(), |out| {
            String::from_utf8_lossy(&out.stdout).trim().to_string()
        })
}

/// Host, revision and settings a result file is stamped with.
fn stamp(cli: &Cli) -> String {
    let rates: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("{}: {}", report::quoted(w.name), w.paced_keys_per_s))
        .collect();
    format!(
        "\"git_rev\": {}, \"cores\": {}, \"connections\": {}, \"seed\": {}, \"seconds\": {}, \
         \"comparable\": {}, \"paced_keys_per_s\": {{{}}}",
        report::quoted(&git_rev()),
        run::cores(),
        run::connections(),
        cli.seed,
        cli.seconds,
        !cli.quick && cli.seconds == RUN_SECONDS as f64,
        rates.join(", ")
    )
}

fn write_results(cli: &Cli, set: &BTreeMap<&str, Collected>) -> std::io::Result<PathBuf> {
    let workloads: Vec<String> = set
        .iter()
        .map(|(name, c)| format!("    {}: {}", report::quoted(name), c.to_json("    ")))
        .collect();
    let path = cli.out_dir.join("results.json");
    let body = format!(
        "{{\n  {},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        stamp(cli),
        workloads.join(",\n")
    );
    std::fs::write(&path, body)?;
    Ok(path)
}

fn print_table(set: &BTreeMap<&str, Collected>) {
    let header: String = WORKLOADS.iter().map(|w| format!("{:>20}", w.name)).collect();
    println!("\n{:36} {:>8} {header}", "metric", "unit");
    for def in END_TO_END.iter().chain(PER_LAYER) {
        let cell = |w: &Workload| set.get(w.name).and_then(|c| c.metrics.get(def.name));
        // The ladder's metrics exist in traced sets only.
        if WORKLOADS.iter().all(|w| cell(w).is_none()) {
            continue;
        }
        let cells: String = WORKLOADS
            .iter()
            .map(|w| cell(w).map_or(format!("{:>20}", "-"), |(value, _)| format!("{value:>20.3}")))
            .collect();
        println!("{:36} {:>8} {cells}   [{}]", def.name, def.unit, def.clock);
    }
    for w in &WORKLOADS {
        if let Some(c) = set.get(w.name) {
            println!(
                "{}: attempted {} failed {} {}",
                w.name,
                c.attempted,
                c.failed,
                if c.correct { "correct" } else { "INCORRECT" }
            );
        }
    }
}

/// Every workload, each in a fresh process, `--repeat` times over; the
/// last set goes to `results.json`, the spreads of all to `repeat.json`.
fn full_sets(cli: &Cli) -> Result<bool, store::BoxError> {
    std::fs::create_dir_all(&cli.out_dir)?;
    if cli.quick {
        println!("QUICK RUN: {QUICK_SECONDS} s per workload, numbers NOT COMPARABLE with anything");
    }
    let mut all_correct = true;
    let mut history: BTreeMap<(&str, String), Vec<f64>> = BTreeMap::new();
    for set_no in 1..=cli.repeat {
        let mut set: BTreeMap<&str, Collected> = BTreeMap::new();
        for w in &WORKLOADS {
            for traced in [false, true] {
                if traced && !cli.trace {
                    continue;
                }
                println!("== set {set_no}/{} {} trace {}", cli.repeat, w.name, u8::from(traced));
                let run = child_run(cli, w, traced)?;
                all_correct &= run.correct;
                let merged = set
                    .entry(w.name)
                    .or_insert_with(|| Collected { correct: true, ..Collected::default() });
                merged.correct &= run.correct;
                merged.attempted += run.attempted;
                merged.failed += run.failed;
                merged.notes.extend(run.notes);
                // The untraced run's numbers stand; the traced run adds
                // what only it measures.
                for (name, reading) in run.metrics {
                    merged.metrics.entry(name).or_insert(reading);
                }
            }
        }
        for (workload, collected) in &set {
            for (metric, (value, _)) in &collected.metrics {
                history.entry((workload, metric.clone())).or_default().push(*value);
            }
        }
        print_table(&set);
        println!("results written to {}", write_results(cli, &set)?.display());
    }
    if cli.repeat > 1 {
        write_spreads(cli, &history)?;
    }
    Ok(all_correct)
}

fn write_spreads(
    cli: &Cli,
    history: &BTreeMap<(&str, String), Vec<f64>>,
) -> Result<(), store::BoxError> {
    println!(
        "\nspread over {} sets, same seed\n{:22} {:36} {:>14} {:>14} {:>14} {:>9} {:>9} {:>6}",
        cli.repeat, "workload", "metric", "median", "q1", "q3", "iqr/med", "range/med", "bound"
    );
    let mut rows = Vec::new();
    for ((workload, metric), values) in history {
        let Some(spread) = Spread::of(values.clone()) else { continue };
        let bound = report::metric_def(metric).and_then(|d| d.bound);
        let q = spread.quartiles.unwrap_or([spread.median; 3]);
        println!(
            "{workload:22} {metric:36} {:>14.3} {:>14.3} {:>14.3} {:>9.4} {:>9.4} {:>6}{}",
            spread.median,
            q[0],
            q[2],
            spread.iqr(),
            spread.range(),
            bound.map_or("-".to_string(), |b| b.to_string()),
            if bound.is_some_and(|b| spread.iqr() > b) { "  OVER" } else { "" },
        );
        rows.push(format!(
            "    {{\"workload\": {}, \"metric\": {}, \"bound\": {}, \"spread\": {}}}",
            report::quoted(workload),
            report::quoted(metric),
            bound.map_or("null".to_string(), |b| b.to_string()),
            spread.to_json()
        ));
    }
    let path: &Path = &cli.out_dir.join("repeat.json");
    let body = format!(
        "{{\n  {},\n  \"sets\": {},\n  \"rows\": [\n{}\n  ]\n}}\n",
        stamp(cli),
        cli.repeat,
        rows.join(",\n")
    );
    std::fs::write(path, body)?;
    println!("spreads written to {}", path.display());
    Ok(())
}
