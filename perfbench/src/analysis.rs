//! The two closed-loop analysis workloads: one caller, and every op is what
//! a CLI invocation does — parse the GLQ text, build a fresh `Engine`,
//! analyze, drop the engine.
//!
//! * `cold_ising288`: exact tiers, so the time goes to SDP solves on the
//!   engine pool, and every op fills a fresh certificate cache.
//! * `wide_qaoa100_fast`: `TierPolicy::fast()`, so every judgment is a
//!   closed form and the time goes to the MPS walk in the plan stage.

use crate::programs::{self, Input, BIT_FLIP};
use crate::stats::{median, percentile};
use crate::sys;
use crate::trace::{Node, SelfTable, Tracer};
use crate::{Check, Outcome, Params};
use gleipnir_circuit::{parse, Program};
use gleipnir_core::{
    AnalysisError, AnalysisRequest, Engine, EngineOptions, Method, Report, TierPolicy,
};
use gleipnir_mps::{tn_approximate, MpsConfig};
use gleipnir_noise::NoiseModel;
use std::time::Instant;

/// Set-ups timed before each op; the median of all of them is `setup_s`.
const SETUP_BATCH: usize = 25;

/// Ops every untraced run measures at least, even past `--seconds`.
const MIN_OPS: usize = 3;

/// How far the traced layers may disagree with the op wall.
const SLACK: f64 = 0.02;

pub struct Spec {
    pub input: fn(u64) -> Input,
    pub width: usize,
    pub tiers: TierPolicy,
}

pub fn cold_ising288() -> Spec {
    Spec {
        input: programs::ising288,
        width: 8,
        tiers: TierPolicy::exact(),
    }
}

pub fn wide_qaoa100_fast() -> Spec {
    Spec {
        input: programs::qaoa100,
        width: 16,
        tiers: TierPolicy::fast(),
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// What one op returned, and its wall in milliseconds.
struct Op {
    wall_ms: f64,
    report: Result<Report, String>,
}

impl Spec {
    fn request(&self, program: Program, method: Method) -> Result<AnalysisRequest, AnalysisError> {
        AnalysisRequest::builder(program)
            .noise(NoiseModel::uniform_bit_flip(BIT_FLIP))
            .method(method)
            .tiering(self.tiers)
            .build()
    }

    /// One op. `threads == 0` takes the engine's default pool. With a
    /// tracer, records a span per layer call under trace `trace`.
    fn op(&self, input: &Input, threads: usize, tracer: Option<(&mut Tracer, usize)>) -> Op {
        let t0 = Instant::now();
        let parsed = parse(&input.glq);
        let t1 = Instant::now();
        let program = match parsed {
            Ok(p) if p == input.program => p,
            Ok(_) => return failed(t0, "parsed program differs from the generated one"),
            Err(e) => return failed(t0, &format!("GLQ parse error: {e}")),
        };
        let method = Method::StateAware {
            mps_width: self.width,
        };
        let request = match self.request(program, method) {
            Ok(r) => r,
            Err(e) => return failed(t0, &e.to_string()),
        };
        let t2 = Instant::now();
        let engine = match threads {
            0 => Engine::new(),
            n => Engine::with_options(EngineOptions {
                threads: n,
                ..EngineOptions::default()
            })
            .expect("an explicit thread count is valid"),
        };
        let t3 = Instant::now();
        let report = engine.analyze(&request);
        let t4 = Instant::now();
        drop(engine);
        let t5 = Instant::now();
        if let (Some((tracer, trace)), Ok(report)) = (tracer, &report) {
            let op = tracer.timed(trace, None, "op", t0, t5);
            tracer.timed(trace, Some(op), "circuit.parse", t0, t1);
            tracer.timed(trace, Some(op), "engine.new", t2, t3);
            let a = tracer.timed(trace, Some(op), "engine.analyze", t3, t4);
            if let Some(st) = report.stage_timings() {
                let (plan, solve, assemble) = (
                    st.plan.as_secs_f64() * 1e3,
                    st.solve.as_secs_f64() * 1e3,
                    st.assemble.as_secs_f64() * 1e3,
                );
                tracer.reported(a, "core.plan", 0.0, plan);
                tracer.reported(a, "core.solve", plan, solve);
                tracer.reported(a, "core.assemble", plan + solve, assemble);
            }
            tracer.timed(trace, Some(op), "engine.drop", t4, t5);
        }
        Op {
            wall_ms: (t5 - t0).as_secs_f64() * 1e3,
            report: report.map_err(|e| e.to_string()),
        }
    }
}

/// Generates the input [`SETUP_BATCH`] times, timing each; returns the last.
fn set_up(spec: &Spec, seed: u64, times: &mut Vec<f64>) -> Input {
    let mut input = None;
    for _ in 0..SETUP_BATCH {
        let t = Instant::now();
        input = Some((spec.input)(seed));
        times.push(t.elapsed().as_secs_f64());
    }
    input.expect("a non-empty batch")
}

fn failed(t0: Instant, why: &str) -> Op {
    Op {
        wall_ms: ms_since(t0),
        report: Err(why.to_string()),
    }
}

/// The facts every op of one seed must reproduce exactly.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Pin {
    eps_bits: u64,
    tn_delta_bits: u64,
    ip_iterations: usize,
    sdp_solves: usize,
    closed_form: usize,
}

impl Pin {
    fn of(r: &Report) -> Pin {
        Pin {
            eps_bits: r.error_bound().to_bits(),
            tn_delta_bits: r.tn_delta().unwrap_or(f64::NAN).to_bits(),
            ip_iterations: r.ip_iterations(),
            sdp_solves: r.sdp_solves(),
            closed_form: r.tier_counts().closed_form,
        }
    }
}

/// Checks one op's report: the pinned facts, the judgment count, and the
/// bound against the worst-case bound. Returns why it is wrong, if it is.
fn judge(r: &Report, pin: Option<Pin>, gates: usize, worst: f64) -> Result<Pin, String> {
    let got = Pin::of(r);
    if let Some(pin) = pin {
        if got != pin {
            return Err(format!(
                "op differs from the first op of this seed: {got:?} vs {pin:?}"
            ));
        }
    }
    let judged = r.sdp_solves() + r.cache_hits() + r.tier_counts().closed_form;
    if judged != gates {
        return Err(format!("{judged} judgments for {gates} gates"));
    }
    let eps = r.error_bound();
    if !(eps > 0.0 && eps <= worst * (1.0 + 1e-9)) {
        return Err(format!("ε = {eps:e} outside (0, worst-case {worst:e}]"));
    }
    Ok(got)
}

pub fn run(spec: &Spec, p: &Params) -> Outcome {
    let mut out = Outcome::default();

    // Set-up is generating the program and its GLQ text. A batch runs
    // before every op, so the set-up median spans the run as the op median
    // does; every batch must reproduce the first input exactly.
    let mut setups = Vec::new();
    let input = set_up(spec, p.seed, &mut setups);
    let gates = input.program.gate_count();
    println!(
        "# {}: {} qubits, {gates} gates",
        input.name,
        input.program.n_qubits()
    );

    // Reference bound outside the timed loop: state-aware must not exceed
    // the worst case (the paper's hierarchy).
    let engine = Engine::new();
    out.pool_threads = engine.threads();
    let worst = spec
        .request(input.program.clone(), Method::WorstCase)
        .and_then(|r| engine.analyze(&r))
        .map_or(f64::NAN, |r| r.error_bound());
    drop(engine);
    out.checks.push(Check::new(
        "worst_case_reference",
        worst.is_finite() && worst > 0.0,
        format!("worst-case ε = {worst:e}"),
    ));

    // The timed loop. A traced run alternates untraced and traced ops so
    // their difference is the tracing overhead.
    let mut tracer = Tracer::new();
    let mut pin = None;
    let mut walls = Vec::new();
    let mut latencies = Vec::new();
    let (mut traced_walls, mut plain_walls) = (Vec::new(), Vec::new());
    let mut traced_reports = Vec::new();
    let cpu0 = sys::cpu_seconds();
    let start = Instant::now();
    let mut due = start;
    loop {
        let n = walls.len();
        let elapsed = start.elapsed().as_secs_f64();
        let last = walls.last().copied().unwrap_or(0.0) / 1e3;
        let min_ops = if p.trace { 2 } else { MIN_OPS };
        if n >= min_ops && elapsed + last > p.seconds {
            break;
        }
        let traced = p.trace && n % 2 == 1;
        let op = spec.op(&input, 0, traced.then_some((&mut tracer, n)));
        latencies.push(due.elapsed().as_secs_f64() * 1e3);
        due = Instant::now();
        out.attempted += 1;
        walls.push(op.wall_ms);
        if traced {
            traced_walls.push(op.wall_ms)
        } else {
            plain_walls.push(op.wall_ms)
        }
        if set_up(spec, p.seed, &mut setups).glq != input.glq {
            out.checks.push(Check::new(
                "setup_repeats",
                false,
                "the seed gave another program".into(),
            ));
        }
        match op
            .report
            .and_then(|r| judge(&r, pin, gates, worst).map(|pinned| (r, pinned)))
        {
            Ok((r, pinned)) => {
                pin = Some(pinned);
                if traced {
                    traced_reports.push(r);
                }
            }
            Err(why) => {
                out.failed += 1;
                out.checks.push(Check::new("op", false, why));
            }
        }
    }
    let loop_s = start.elapsed().as_secs_f64();
    if let Some(pin) = pin {
        out.checks.push(Check::new(
            "ops_repeat_exactly",
            out.failed == 0,
            format!(
                "ε = {:e}, δ = {:e}, {} IP iterations, {} SDP solves, {} closed forms",
                f64::from_bits(pin.eps_bits),
                f64::from_bits(pin.tn_delta_bits),
                pin.ip_iterations,
                pin.sdp_solves,
                pin.closed_form
            ),
        ));
    }
    let cpu_s = sys::cpu_seconds() - cpu0;
    let ops = walls.len() as f64;

    // The MPS layer on its own, outside the loop: the same walk the plan
    // stage does, so the report's δ must agree with it.
    let t = Instant::now();
    let tn = tn_approximate(
        &input.program,
        &vec![false; input.program.n_qubits()],
        MpsConfig::with_width(spec.width),
    );
    let t_end = Instant::now();
    let evolve_ms = (t_end - t).as_secs_f64() * 1e3;
    let pinned_delta = pin.map_or(f64::NAN, |p| f64::from_bits(p.tn_delta_bits));
    out.checks.push(Check::new(
        "tn_delta_matches_direct_mps",
        (pinned_delta - tn.delta).abs() <= 0.05 * tn.delta
            && (tn.delta > 0.0) == (pinned_delta > 0.0),
        format!(
            "report δ = {pinned_delta:e}, direct tn_approximate δ = {:e}",
            tn.delta
        ),
    ));

    let m = &mut out.metrics;
    m.insert("setup_s", median(&setups));
    m.insert("analysis_s", median(&walls) / 1e3);
    m.insert("req_per_s", ops / loop_s);
    m.insert("latency_p50_ms", percentile(&latencies, 50.0));
    m.insert("latency_p99_ms", percentile(&latencies, 99.0));
    m.insert("proc.cpu_s_per_op", cpu_s / ops);
    m.insert("mps.evolve_ms", evolve_ms);
    out.series.push(("setup_s", setups));
    out.series.push(("op_wall_ms", walls.clone()));
    out.series.push(("op_latency_ms", latencies));

    if p.trace {
        // One op on a single-thread pool: the pool's speed-up.
        let single = spec.op(&input, 1, None);
        out.attempted += 1;
        if let Err(why) = single
            .report
            .as_ref()
            .map_err(Clone::clone)
            .and_then(|r| judge(r, pin, gates, worst))
        {
            out.failed += 1;
            out.checks.push(Check::new("single_thread_op", false, why));
        }
        let m = &mut out.metrics;
        m.insert("pool.speedup", single.wall_ms / median(&walls));
        m.insert(
            "trace.overhead_frac",
            median(&traced_walls) / median(&plain_walls) - 1.0,
        );
        layer_metrics(m, &traced_reports, gates);
        if let Some(node) = Node::mean_of(tracer.spans(), "op") {
            let table = SelfTable::build(&node, SLACK);
            let stage = |name: &str| {
                table
                    .rows
                    .iter()
                    .find(|r| r.layer == name)
                    .map_or(0.0, |r| r.total_ms)
            };
            let unattributed = node.ms
                - stage("circuit.parse")
                - stage("core.plan")
                - stage("core.solve")
                - stage("core.assemble");
            m.insert("circuit.parse_ms", stage("circuit.parse"));
            m.insert("core.plan_ms", stage("core.plan"));
            m.insert("core.solve_ms", stage("core.solve"));
            m.insert("core.assemble_ms", stage("core.assemble"));
            m.insert("core.unattributed_ms", unattributed);
            out.checks.push(Check::new(
                "layers_account_for_wall",
                table.accounts(),
                format!("{:.4} of {:.4} ms", table.accounted_ms, table.wall_ms),
            ));
            out.self_table = Some(table);
        }
        tracer.timed(out.attempted, None, "mps.evolve", t, t_end);
        out.spans = Some(tracer.to_json());
    }
    out
}

/// The per-layer numbers a `Report` carries, averaged over `reports`.
fn layer_metrics(m: &mut crate::Metrics, reports: &[Report], gates: usize) {
    if reports.is_empty() {
        return;
    }
    let k = 1.0 / reports.len() as f64;
    let avg = |f: &dyn Fn(&Report) -> f64| reports.iter().map(f).sum::<f64>() * k;
    let ip = avg(&|r| r.ip_iterations() as f64);
    let solves = avg(&|r| r.sdp_solves() as f64);
    let prof_total = avg(&|r| r.solver_profile().total_ms);
    m.insert("sdp.ip_iterations", ip);
    m.insert(
        "sdp.loop_allocs",
        avg(&|r| r.solver_profile().loop_allocs as f64),
    );
    m.insert(
        "sdp.solve_ms_mean",
        if solves > 0.0 {
            prof_total / solves
        } else {
            0.0
        },
    );
    m.insert(
        "sdp.iter_ms_mean",
        if ip > 0.0 { prof_total / ip } else { 0.0 },
    );
    for (phase, key) in [
        ("setup", "sdp.setup_ms"),
        ("residual", "sdp.residual_ms"),
        ("schur", "sdp.schur_ms"),
        ("factor", "sdp.factor_ms"),
        ("direction", "sdp.direction_ms"),
        ("step", "sdp.step_ms"),
        ("cert", "sdp.cert_ms"),
    ] {
        let v = avg(&|r| {
            r.solver_profile()
                .phases()
                .iter()
                .find(|(n, _)| *n == phase)
                .map_or(0.0, |(_, ms)| *ms)
        });
        m.insert(key, v);
    }
    let solve_stage_ms = avg(&|r| {
        r.stage_timings()
            .map_or(0.0, |s| s.solve.as_secs_f64() * 1e3)
    });
    m.insert(
        "pool.solve_workers",
        avg(&|r| r.solve_workers().unwrap_or(0) as f64),
    );
    m.insert(
        "pool.parallelism",
        if solve_stage_ms > 0.0 && prof_total > 0.0 {
            prof_total / solve_stage_ms
        } else {
            0.0
        },
    );
    let hits = avg(&|r| r.cache_hits() as f64);
    m.insert("engine.sdp_solves", solves);
    m.insert("engine.cache_hits", hits);
    m.insert("engine.inflight_dedup", avg(&|r| r.inflight_dedup() as f64));
    m.insert(
        "engine.closed_form",
        avg(&|r| r.tier_counts().closed_form as f64),
    );
    m.insert("engine.hit_ratio", hits / gates as f64);
}
