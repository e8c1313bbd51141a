//! `nti-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints one record line (provenance and details) and, as the last line,
//! the result: `{"correct", "attempted", "failed", "metrics"}`. Run it
//! from the repository root; with `--trace 1` the spans it recorded are
//! also written to `perfbench/out/`.

use nti_obs::Json;
use nti_perfbench::probe;
use nti_perfbench::spans::Spans;
use nti_perfbench::workload::{self, Workload};
use std::path::Path;
use std::process::ExitCode;

struct Args {
    workload: Workload,
    workload_name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        argv.windows(2)
            .find(|w| w[0] == flag)
            .map(|w| w[1].as_str())
            .ok_or_else(|| format!("missing {flag}"))
    };
    let workload_name = value("--workload")?.to_string();
    let workload = Workload::parse(&workload_name)
        .ok_or_else(|| format!("unknown workload {workload_name:?}"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        workload_name,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("nti-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut spans = Spans::default();
    let result = if args.trace {
        workload::traced(args.workload, args.seed, &mut spans)
    } else {
        workload::end_to_end(args.workload, args.seed, args.seconds)
    };
    let out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("nti-perfbench: {}: {e}", args.workload_name);
            return ExitCode::FAILURE;
        }
    };
    let provenance = probe::provenance(Path::new("."), out.obs, args.seed);
    if args.trace {
        let path = format!(
            "perfbench/out/spans-{}-seed{}.jsonl",
            args.workload_name, args.seed
        );
        let header = Json::obj([("provenance", provenance.clone())]);
        if let Err(e) = spans.write_jsonl(Path::new(&path), &header) {
            eprintln!("nti-perfbench: writing {path}: {e}");
        }
    }
    let record = Json::obj([
        ("workload", Json::str(args.workload_name.as_str())),
        ("trace", Json::Bool(args.trace)),
        ("provenance", provenance),
        ("details", Json::obj(out.details)),
        ("spans", spans.summary()),
    ]);
    println!("{}", Json::obj([("record", record)]));
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(out.correct)),
            ("attempted", Json::num(out.attempted as f64)),
            ("failed", Json::num(out.failed as f64)),
            ("metrics", out.metrics.to_json()),
        ])
    );
    ExitCode::SUCCESS
}
