//! The repository benchmark: runs one named workload against the Gleipnir
//! engine or server, checks every answer, and prints every metric by name
//! with its unit.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold_ising288 --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Run from the repository root. With `--trace 0` the last line of stdout
//! is a JSON object carrying the end-to-end metrics; with `--trace 1` it
//! carries the per-layer metrics of a separate traced run. Lines before it
//! start with `#`; one of them is the full record (machine stamp, checks,
//! summaries of every repeated measurement, self-time table), which is
//! also written under `perfbench/results/`, with the span log of a traced
//! run beside it. `perfbench/METRICS.md` says what each metric measures
//! and which end-to-end metric each per-layer metric should move.

mod analysis;
mod client;
mod loadgen;
mod programs;
mod serve;
mod stats;
mod sys;
mod trace;

use gleipnir_core::jsonfmt::json_str;
use stats::Summary;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["cold_ising288", "wide_qaoa100_fast", "serve_warm_qaoa"];

/// End-to-end metrics (`--trace 0`) and their units.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("analysis_s", "s"),
    ("req_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`) and their units. A workload that does
/// not exercise a layer reports 0 for it and names it in the record's
/// `not_exercised` list. The latency percentiles sit here, unbounded,
/// because on a shared host they follow the hypervisor's steal more than
/// the program (`perfbench/METRICS.md`).
pub const PER_LAYER: [(&str, &str); 44] = [
    ("sdp.ip_iterations", "count"),
    ("sdp.loop_allocs", "count"),
    ("sdp.solve_ms_mean", "ms"),
    ("sdp.iter_ms_mean", "ms"),
    ("sdp.setup_ms", "ms"),
    ("sdp.residual_ms", "ms"),
    ("sdp.schur_ms", "ms"),
    ("sdp.factor_ms", "ms"),
    ("sdp.direction_ms", "ms"),
    ("sdp.step_ms", "ms"),
    ("sdp.cert_ms", "ms"),
    ("pool.solve_workers", "count"),
    ("pool.parallelism", "ratio"),
    ("pool.speedup", "ratio"),
    ("core.plan_ms", "ms"),
    ("core.solve_ms", "ms"),
    ("core.assemble_ms", "ms"),
    ("core.unattributed_ms", "ms"),
    ("mps.evolve_ms", "ms"),
    ("circuit.parse_ms", "ms"),
    ("engine.sdp_solves", "count"),
    ("engine.cache_hits", "count"),
    ("engine.inflight_dedup", "count"),
    ("engine.closed_form", "count"),
    ("engine.hit_ratio", "ratio"),
    ("http.write_ms", "ms"),
    ("http.ttfb_ms", "ms"),
    ("http.body_ms", "ms"),
    ("http.roundtrip_ms_p50", "ms"),
    ("server.request_ms_mean", "ms"),
    ("server.plan_ms_mean", "ms"),
    ("server.solves", "count"),
    ("server.hit_ratio", "ratio"),
    ("server.http_errors", "count"),
    ("server.shed", "count"),
    ("server.outside_ms", "ms"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("loadgen.lag_ms_p99", "ms"),
    ("loadgen.sent", "count"),
    ("loadgen.completed", "count"),
    ("proc.cpu_s_per_op", "s"),
    ("trace.overhead_frac", "ratio"),
    ("failed_frac", "ratio"),
];

pub type Metrics = BTreeMap<&'static str, f64>;

/// Command-line parameters.
pub struct Params {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Params {
    fn parse(args: &[String]) -> Result<Params, String> {
        let get = |flag: &str| -> Result<String, String> {
            let i = args
                .iter()
                .position(|a| a == flag)
                .ok_or_else(|| format!("missing {flag}"))?;
            args.get(i + 1)
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let workload = get("--workload")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!(
                "unknown workload `{workload}`; one of {WORKLOADS:?}"
            ));
        }
        let seed = get("--seed")?
            .parse()
            .map_err(|_| "--seed must be a non-negative integer")?;
        let seconds: f64 = get("--seconds")?
            .parse()
            .map_err(|_| "--seconds must be a number")?;
        if !(seconds > 0.0 && seconds.is_finite()) {
            return Err("--seconds must be positive".into());
        }
        let trace = match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
        };
        Ok(Params {
            workload,
            seed,
            seconds,
            trace,
        })
    }
}

/// One named check of the run's outputs.
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

impl Check {
    pub fn new(name: &'static str, ok: bool, detail: String) -> Check {
        Check { name, ok, detail }
    }
}

/// Everything a workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: usize,
    /// Ops that failed or returned a wrong answer.
    pub failed: usize,
    pub checks: Vec<Check>,
    pub metrics: Metrics,
    /// Repeated measurements, summarized in the record.
    pub series: Vec<(&'static str, Vec<f64>)>,
    pub self_table: Option<trace::SelfTable>,
    /// The traced run's span log (JSON).
    pub spans: Option<String>,
    pub pool_threads: usize,
}

fn summary_json(s: &Summary) -> String {
    let tail = s.tail.map_or("null".to_string(), |(p, v)| {
        format!("{{\"percentile\":{p},\"value\":{v}}}")
    });
    format!(
        "{{\"n\":{},\"median\":{},\"q1\":{},\"q3\":{},\"p90\":{},\"p99\":{},\"min\":{},\"max\":{},\"tail\":{}}}",
        s.n, s.median, s.q1, s.q3, s.p90, s.p99, s.min, s.max, tail
    )
}

fn metrics_json(pairs: &[(&str, f64, &str)]) -> String {
    let items: Vec<String> = pairs
        .iter()
        .map(|(name, value, unit)| format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"))
        .collect();
    format!("{{{}}}", items.join(","))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let p = match Params::parse(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    println!(
        "# perfbench {} seed {} seconds {} trace {}",
        p.workload, p.seed, p.seconds, p.trace as u8
    );

    let steal0 = sys::steal_seconds();
    let mut out = match p.workload.as_str() {
        "cold_ising288" => analysis::run(&analysis::cold_ising288(), &p),
        "wide_qaoa100_fast" => analysis::run(&analysis::wide_qaoa100_fast(), &p),
        _ => serve::run(&p),
    };
    out.metrics.insert("peak_rss_mb", sys::peak_rss_mb());
    let steal_s = sys::steal_seconds() - steal0;

    let failed_frac = if out.attempted == 0 {
        1.0
    } else {
        out.failed as f64 / out.attempted as f64
    };
    out.metrics.insert("failed_frac", failed_frac);
    let correct = out.attempted > 0 && out.failed == 0 && out.checks.iter().all(|c| c.ok);

    let wanted: &[(&str, &str)] = if p.trace { &PER_LAYER } else { &END_TO_END };
    let mut not_exercised = Vec::new();
    let mut reported = Vec::with_capacity(wanted.len());
    for &(name, unit) in wanted {
        let value = match out.metrics.get(name) {
            Some(v) if v.is_finite() => *v,
            Some(_) if !correct => 0.0,
            Some(v) => {
                eprintln!("perfbench: metric {name} is {v}");
                return ExitCode::FAILURE;
            }
            None if p.trace || !correct => {
                not_exercised.push(name);
                0.0
            }
            None => {
                eprintln!("perfbench: workload did not measure {name}");
                return ExitCode::FAILURE;
            }
        };
        reported.push((name, value, unit));
    }

    let stamp = sys::Stamp::read(out.pool_threads);
    let checks: Vec<String> = out
        .checks
        .iter()
        .map(|c| {
            format!(
                "{{\"name\":\"{}\",\"ok\":{},\"detail\":{}}}",
                c.name,
                c.ok,
                json_str(&c.detail)
            )
        })
        .collect();
    let series: Vec<String> = out
        .series
        .iter()
        .filter_map(|(name, values)| {
            Summary::of(values).map(|s| format!("\"{name}\":{}", summary_json(&s)))
        })
        .collect();
    let all: Vec<(&str, f64, &str)> = END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .filter_map(|&(name, unit)| out.metrics.get(name).map(|&v| (name, v, unit)))
        .collect();
    let record = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"stamp\":{},\"host_steal_s\":{},\"correct\":{},\"attempted\":{},\"failed\":{},\"checks\":[{}],\"series\":{{{}}},\"metrics\":{},\"not_exercised\":[{}],\"self_time\":{}}}",
        p.workload,
        p.seed,
        p.seconds,
        p.trace,
        stamp.to_json(),
        steal_s,
        correct,
        out.attempted,
        out.failed,
        checks.join(","),
        series.join(","),
        metrics_json(&all),
        not_exercised
            .iter()
            .map(|n| format!("\"{n}\""))
            .collect::<Vec<_>>()
            .join(","),
        out.self_table.as_ref().map_or("null".to_string(), |t| t.to_json()),
    );
    for c in out.checks.iter().filter(|c| !c.ok) {
        eprintln!("perfbench: check {} failed: {}", c.name, c.detail);
    }
    if let Some(table) = &out.self_table {
        for line in table.render().lines() {
            println!("# {line}");
        }
    }
    println!("# record {record}");
    let dir = std::path::Path::new("perfbench/results");
    let stem = format!("{}-seed{}-trace{}", p.workload, p.seed, p.trace as u8);
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(dir.join(format!("{stem}.json")), format!("{record}\n")))
        .and_then(|()| match &out.spans {
            Some(spans) => std::fs::write(dir.join(format!("{stem}.spans.json")), spans),
            None => Ok(()),
        });
    if let Err(e) = written {
        eprintln!("perfbench: could not write {}: {e}", dir.display());
    }

    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        correct,
        out.attempted,
        out.failed,
        metrics_json(&reported)
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and the harness name the same workloads and
    /// metrics with the same units, and state the same open-loop rate.
    #[test]
    fn benchmark_json_matches_the_harness() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = gleipnir_server::json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, Option<String>)> {
            doc.get(key)
                .and_then(|v| v.as_array())
                .expect("array")
                .iter()
                .map(|m| {
                    (
                        m.get("name")
                            .and_then(|n| n.as_str())
                            .expect("name")
                            .to_string(),
                        m.get("unit").and_then(|u| u.as_str()).map(str::to_string),
                    )
                })
                .collect()
        };
        let expect = |list: &[(&str, &str)]| -> Vec<(String, Option<String>)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), Some(u.to_string())))
                .collect()
        };
        assert_eq!(names("end_to_end"), expect(&END_TO_END));
        assert_eq!(names("per_layer"), expect(&PER_LAYER));
        let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS);
        let rate = format!("{} req/s", serve::OPEN_LOOP_RATE);
        assert!(
            text.contains(&rate),
            "BENCHMARK.json states the open-loop rate {rate}"
        );
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let p = Params::parse(&args(
            "--workload serve_warm_qaoa --seed 3 --seconds 10 --trace 1",
        ))
        .expect("valid");
        assert_eq!((p.seed, p.seconds, p.trace), (3, 10.0, true));
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload cold_ising288 --seed -1 --seconds 1 --trace 0",
            "--workload cold_ising288 --seed 1 --seconds 0 --trace 0",
            "--workload cold_ising288 --seed 1 --seconds 1 --trace 2",
            "--workload cold_ising288 --seed 1 --seconds 1",
        ] {
            assert!(Params::parse(&args(bad)).is_err(), "{bad}");
        }
    }
}
