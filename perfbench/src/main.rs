//! The repository benchmark: drives the MSP recovery stack through its
//! public API and prints every metric by name with its unit.
//!
//! ```text
//! perfbench --workload steady|recovery --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no wrapper or span in
//! the program's path. `--trace 1` makes the same untraced run, then a
//! traced one, and reports the per-layer metrics of the traced run plus
//! the tracing overhead between the two. The last line of stdout is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. A failed
//! exactly-once or validity check aborts with the seed and exit code 1,
//! and prints no result.

mod disk;
mod gen;
mod ledger;
mod report;
mod stats;
mod trace;
mod usage;
mod workloads;
mod world;

use std::process::ExitCode;

use report::{result_line, table, END_TO_END, PER_LAYER};
use workloads::{Run, WORKLOADS};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => trace = value != "0",
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {WORKLOADS:?}"
        ));
    }
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is out of range (0, 600]"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let measure = |traced, seconds| {
        workloads::run(&args.workload, args.seed, seconds, traced).map_err(|e| {
            format!(
                "perfbench: workload {} seed {} ({}): {e}",
                args.workload,
                args.seed,
                if traced { "traced" } else { "untraced" }
            )
        })
    };
    let result = if args.trace {
        // Each pass measures half the window, so a traced run takes as
        // long as an untraced one.
        let half = args.seconds / 2.0;
        measure(false, half).and_then(|plain| {
            let mut traced = measure(true, half)?;
            // The gap between the traced and untraced medians.
            let p50 = |r: &Run| r.e2e.get("req_p50_ms").unwrap_or(0.0);
            let overhead = p50(&traced) / p50(&plain) - 1.0;
            traced.layer.put("trace.overhead_frac", overhead);
            eprint!("{}", table(&traced.layer, PER_LAYER));
            result_line(
                traced.attempted,
                traced.failed,
                &traced.layer,
                PER_LAYER,
                true,
            )
        })
    } else {
        measure(false, args.seconds).and_then(|run| {
            eprint!("{}", table(&run.e2e, END_TO_END));
            result_line(run.attempted, run.failed, &run.e2e, END_TO_END, false)
        })
    };
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(1)
        }
    }
}
