//! Runs the ledger-emitting experiment workloads and writes a
//! [`dl_obs::BenchFile`].
//!
//! ```text
//! ledger_run [--out PATH] [--threads N] [--relax-baseline | --repin-counters BASELINE]
//!            [--markdown]
//! ```
//!
//! * `--out PATH` — write the JSON bench file there (stdout otherwise).
//! * `--threads N` — worker threads for the E9 exploration (default 1,
//!   keeping every counter reproducible by definition).
//! * `--relax-baseline` — apply the baseline relaxation (throughput
//!   floors halved, latency ceilings doubled) before writing; used once
//!   per baseline refresh, see DESIGN.md.
//! * `--repin-counters BASELINE` — write `BASELINE` with every counter
//!   and histogram re-pinned from this run, and every gauge and span left
//!   as `BASELINE` has it (see [`ledger_runs::repin_counters`]); for a
//!   change that moves work counters but is not a reason to re-record
//!   wall-clock floors.
//! * `--markdown` — print the Markdown metric table to stdout as well.
//!
//! Honors `DL_BENCH_SLEEP_US`: a per-workload stall in microseconds
//! injected inside the measured window. Only the gate's *tests* set it —
//! it exists to prove a synthetic slowdown fails the gate.

use dl_bench::ledger_runs;

fn usage() -> ! {
    eprintln!(
        "usage: ledger_run [--out PATH] [--threads N] \
         [--relax-baseline | --repin-counters BASELINE] [--markdown]"
    );
    std::process::exit(2);
}

/// Reads and parses the bench file at `path`, or exits with a message.
fn read_bench_file(path: &str) -> dl_obs::BenchFile {
    let parsed = std::fs::read_to_string(path)
        .map_err(|e| e.to_string())
        .and_then(|text| dl_obs::BenchFile::from_json(&text).map_err(|e| e.to_string()));
    parsed.unwrap_or_else(|e| {
        eprintln!("ledger_run: cannot read {path}: {e}");
        std::process::exit(1);
    })
}

fn main() {
    let mut out: Option<String> = None;
    let mut threads = 1usize;
    let mut relax = false;
    let mut repin: Option<String> = None;
    let mut print_markdown = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out = Some(args.next().unwrap_or_else(|| usage())),
            "--threads" => {
                threads = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--relax-baseline" => relax = true,
            "--repin-counters" => repin = Some(args.next().unwrap_or_else(|| usage())),
            "--markdown" => print_markdown = true,
            _ => usage(),
        }
    }

    if relax && repin.is_some() {
        usage();
    }
    // Read the baseline before the runs, so a bad path fails fast.
    let baseline = repin.as_deref().map(read_bench_file);
    let sleep_micros = ledger_runs::sleep_from_env();

    let mut file = ledger_runs::all_runs(threads, sleep_micros);
    if relax {
        ledger_runs::relax_into_baseline(&mut file);
    }
    if let Some(baseline) = &baseline {
        file = ledger_runs::repin_counters(baseline, &file);
    }
    if print_markdown {
        print!("{}", ledger_runs::markdown(&file));
    }
    let json = file.to_json();
    match out {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, &json) {
                eprintln!("ledger_run: cannot write {path}: {e}");
                std::process::exit(1);
            }
            eprintln!("ledger_run: wrote {} runs to {path}", file.runs.len());
        }
        None => {
            if !print_markdown {
                println!("{json}");
            }
        }
    }
}
