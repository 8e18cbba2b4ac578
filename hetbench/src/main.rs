//! hetbench: end-to-end and per-layer benchmark of hetsec.
//!
//! ```text
//! cargo run --release --offline --manifest-path hetbench/Cargo.toml -- \
//!     --workload <fabric_signed|hetero_stack|admin_churn> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload drives the real program through its public API from
//! at most two closed-loop caller threads, checks every outcome against
//! tables the benchmark computes on its own, and prints one JSON object
//! as the last line of standard output. With `--trace 0` the object
//! carries the end-to-end metrics; with `--trace 1` it carries the
//! per-layer metrics, timed from outside the program by decorators
//! around its public traits (see `trace.rs`).

mod admin;
mod env;
mod fabric;
mod harness;
mod hetero;
mod model;
mod rng;
mod trace;

use harness::{Args, Report};

fn usage() -> String {
    "usage: hetbench --workload <fabric_signed|hetero_stack|admin_churn> --seed <n> \
     --seconds <s> --trace <0|1>"
        .to_string()
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                })
            }
            other => return Err(format!("unknown flag `{other}`\n{}", usage())),
        }
    }
    Ok(Args {
        workload: workload.ok_or_else(usage)?,
        seed: seed.ok_or_else(usage)?,
        seconds: seconds.ok_or_else(usage)?,
        trace: trace.ok_or_else(usage)?,
    })
}

/// Runs one workload as the arguments ask.
fn run(args: &Args) -> Result<Report, String> {
    match args.workload.as_str() {
        "fabric_signed" => Ok(harness::run_workload::<fabric::FabricSigned>(args)),
        "hetero_stack" => Ok(harness::run_workload::<hetero::HeteroStack>(args)),
        "admin_churn" => Ok(harness::run_workload::<admin::AdminChurn>(args)),
        other => Err(format!("unknown workload `{other}`\n{}", usage())),
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    for line in report.human_lines(&args) {
        println!("{line}");
    }
    println!("{}", report.to_json());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_the_command_line_flags() {
        let a = parse_args(&argv(&[
            "--workload",
            "hetero_stack",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(a.workload, "hetero_stack");
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, 10.0);
        assert!(a.trace);
    }

    #[test]
    fn rejects_bad_flags() {
        assert!(parse_args(&argv(&["--workload", "x"])).is_err());
        assert!(parse_args(&argv(&[
            "--workload",
            "x",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2"
        ]))
        .is_err());
        assert!(parse_args(&argv(&["--bogus", "1"])).is_err());
        assert!(run(&Args {
            workload: "nope".into(),
            seed: 1,
            seconds: 1.0,
            trace: false
        })
        .is_err());
    }

    #[test]
    fn metric_json_keeps_every_digit() {
        let m = harness::Metric::new("op_p50_ms", 0.123456789012, "ms");
        assert!(m.json().contains("0.123456789012"));
    }
}
