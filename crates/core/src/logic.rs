//! The lightweight quantum error logic (paper §4) and its pipeline driver.
//!
//! [`run_state_aware`] analyzes a noisy program by mechanizing the five
//! inference rules of Fig. 5:
//!
//! * **Skip** — no error;
//! * **Gate** — the `(ρ̂, δ)`-diamond norm of the noisy gate, with ρ̂'s
//!   local density computed from the MPS and δ the accumulated truncation
//!   error (plus any input uncertainty);
//! * **Seq** — errors add, with `TN` advancing the predicate (the MPS `δ`
//!   grows exactly by the truncation the gate application incurs);
//! * **Meas** — branches fork with collapsed preconditions and combine as
//!   `(1 − δ)·ε + δ`; code after the branch is analyzed inside each branch
//!   (§5.2's continuation duplication);
//! * **Weaken** — used implicitly: cached bounds are solved at a slightly
//!   larger δ, which the rule says is sound.
//!
//! Since the per-gate SDP certificates are independent given each gate's
//! judgment `(ρ′, δ)`, the analysis runs as a three-stage pipeline:
//!
//! 1. **plan** ([`crate::plan`]) — a cheap sequential walk that evolves
//!    the MPS and materializes one solve obligation per Gate rule plus a
//!    derivation skeleton;
//! 2. **solve** ([`crate::solve`]) — the obligations fan out over the
//!    owning engine's worker pool, deduplicated in flight against the
//!    shared certificate cache;
//! 3. **assemble** ([`crate::assemble`]) — solved ε's are stitched back
//!    into the skeleton in pre-order.
//!
//! The result is **bit-for-bit identical** to the old monolithic
//! sequential walk for every pool size (the determinism suite pins this
//! against a committed oracle fixture), while a single request now uses
//! every configured thread.
//!
//! The output is a [`StateAwareReport`] carrying a [`Derivation`] proof
//! tree whose every `Gate` node stores the judgment it certifies — enough
//! for [`StateAwareReport::replay`] to re-check the derivation against
//! fresh SDP solves, independent of the analysis that produced it.

use crate::assemble::assemble;
use crate::diamond::rho_delta_diamond;
use crate::engine::EngineHandle;
use crate::error::{AnalysisError, ReplayError};
use crate::plan::{plan_program, Plan};
use crate::solve::{spawn_solve, SolveOutcome};
use crate::tiers::{TierCounts, TierPolicy};
use gleipnir_circuit::{Gate, Program};
use gleipnir_linalg::CMat;
use gleipnir_mps::Mps;
use gleipnir_noise::NoiseModel;
use gleipnir_sdp::{SolverOptions, SolverProfile};
use gleipnir_telemetry as telemetry;
use std::fmt;
use std::time::{Duration, Instant};

/// A node of the error-logic derivation tree (Fig. 5 rule applications).
#[derive(Clone, Debug)]
pub enum Derivation {
    /// The Skip rule: `(ρ̂, δ) ⊢ skip ≤ 0`.
    Skip,
    /// The Gate rule: `‖Ũ_ω − U‖_(ρ̂,δ) ≤ ε`.
    Gate {
        /// The gate.
        gate: Gate,
        /// Logical operand qubits.
        qubits: Vec<usize>,
        /// The local density matrix ρ′ of ρ̂ on the operand qubits.
        rho_prime: CMat,
        /// The δ of the judgment (accumulated TN error + input slack).
        delta: f64,
        /// The certified gate error bound.
        epsilon: f64,
    },
    /// The Seq rule: children's bounds sum.
    Seq {
        /// Sub-derivations in program order.
        children: Vec<Derivation>,
    },
    /// The Meas rule: `(1 − δ)·ε + δ` over the branch derivations.
    Meas {
        /// The measured qubit.
        qubit: usize,
        /// The δ entering the rule (clamped to probability range).
        delta_prob: f64,
        /// Derivation of the zero branch (None if unreachable under ρ̂).
        zero: Option<Box<Derivation>>,
        /// Derivation of the one branch (None if unreachable under ρ̂).
        one: Option<Box<Derivation>>,
    },
}

impl Derivation {
    /// The error bound this derivation certifies.
    pub fn epsilon(&self) -> f64 {
        match self {
            Derivation::Skip => 0.0,
            Derivation::Gate { epsilon, .. } => *epsilon,
            Derivation::Seq { children } => children.iter().map(Derivation::epsilon).sum(),
            Derivation::Meas {
                delta_prob,
                zero,
                one,
                ..
            } => {
                let eps = zero
                    .iter()
                    .chain(one.iter())
                    .map(|d| d.epsilon())
                    .fold(0.0f64, f64::max);
                (1.0 - delta_prob) * eps + delta_prob
            }
        }
    }

    /// Number of Gate-rule applications in the tree.
    pub fn gate_rule_count(&self) -> usize {
        match self {
            Derivation::Skip => 0,
            Derivation::Gate { .. } => 1,
            Derivation::Seq { children } => children.iter().map(Derivation::gate_rule_count).sum(),
            Derivation::Meas { zero, one, .. } => {
                zero.as_ref().map_or(0, |d| d.gate_rule_count())
                    + one.as_ref().map_or(0, |d| d.gate_rule_count())
            }
        }
    }

    fn pretty_into(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent);
        match self {
            Derivation::Skip => {
                out.push_str(&format!("{pad}[Skip] ε = 0\n"));
            }
            Derivation::Gate {
                gate,
                qubits,
                delta,
                epsilon,
                ..
            } => {
                let qs: Vec<String> = qubits.iter().map(|q| format!("q{q}")).collect();
                out.push_str(&format!(
                    "{pad}[Gate] (ρ̂, δ={delta:.3e}) ⊢ {gate}({}) ≤ {epsilon:.6e}\n",
                    qs.join(",")
                ));
            }
            Derivation::Seq { children } => {
                out.push_str(&format!("{pad}[Seq] ε = {:.6e}\n", self.epsilon()));
                for c in children {
                    c.pretty_into(out, indent + 1);
                }
            }
            Derivation::Meas {
                qubit,
                delta_prob,
                zero,
                one,
            } => {
                out.push_str(&format!(
                    "{pad}[Meas] q{qubit}, δ = {delta_prob:.3e}, ε = {:.6e}\n",
                    self.epsilon()
                ));
                match zero {
                    Some(d) => {
                        out.push_str(&format!("{pad}  outcome 0:\n"));
                        d.pretty_into(out, indent + 2);
                    }
                    None => out.push_str(&format!("{pad}  outcome 0: unreachable\n")),
                }
                match one {
                    Some(d) => {
                        out.push_str(&format!("{pad}  outcome 1:\n"));
                        d.pretty_into(out, indent + 2);
                    }
                    None => out.push_str(&format!("{pad}  outcome 1: unreachable\n")),
                }
            }
        }
    }

    /// Pretty-prints the derivation tree.
    pub fn pretty(&self) -> String {
        let mut s = String::new();
        self.pretty_into(&mut s, 0);
        s
    }
}

/// Wall-clock breakdown of one analysis across the pipeline's stages.
#[derive(Clone, Copy, Debug, Default)]
pub struct StageTimings {
    /// The sequential plan pass (MPS evolution + obligation extraction).
    pub plan: Duration,
    /// The parallel solve stage (per-gate SDP certificates).
    pub solve: Duration,
    /// The sequential assemble pass (ε stitching).
    pub assemble: Duration,
}

/// The state-aware analysis output: the certified bound plus its proof
/// object and bookkeeping. Carried by [`crate::Report::StateAware`] (and,
/// per width, inside adaptive reports).
#[derive(Clone, Debug)]
pub struct StateAwareReport {
    pub(crate) derivation: Derivation,
    pub(crate) tn_delta: f64,
    pub(crate) sdp_solves: usize,
    pub(crate) cache_hits: usize,
    pub(crate) inflight_dedup: usize,
    pub(crate) tier_counts: TierCounts,
    pub(crate) ip_iterations: usize,
    pub(crate) solver_profile: SolverProfile,
    pub(crate) elapsed: Duration,
    pub(crate) stage_timings: StageTimings,
    pub(crate) solve_workers: usize,
    pub(crate) mps_width: usize,
}

impl StateAwareReport {
    /// The certified whole-program error bound ε (half-trace-norm
    /// convention: 1 is maximal).
    pub fn error_bound(&self) -> f64 {
        self.derivation.epsilon()
    }

    /// The total MPS truncation error δ accumulated by the approximator.
    pub fn tn_delta(&self) -> f64 {
        self.tn_delta
    }

    /// The derivation (proof) tree.
    pub fn derivation(&self) -> &Derivation {
        &self.derivation
    }

    /// Number of SDPs actually solved.
    pub fn sdp_solves(&self) -> usize {
        self.sdp_solves
    }

    /// Number of Gate-rule applications answered from the engine's shared
    /// cache (populated by any earlier request, width, or batch sibling),
    /// including judgments folded onto a solve performed once by this very
    /// analysis.
    pub fn cache_hits(&self) -> usize {
        self.cache_hits
    }

    /// Of [`StateAwareReport::cache_hits`], the judgments that were
    /// deduplicated against an SDP solve still *in flight* (a duplicate
    /// within this request's solve stage, or a concurrent sibling racing
    /// on the same key) rather than a finished certificate.
    pub fn inflight_dedup(&self) -> usize {
        self.inflight_dedup
    }

    /// How the bound engine answered this analysis's gate judgments, by
    /// tier: closed forms, warm-started solves, cold solves. All zero
    /// except `cold` under the default [`crate::TierPolicy::exact`].
    /// `gates = sdp_solves + cache_hits + tier_counts.closed_form` under
    /// every policy.
    pub fn tier_counts(&self) -> TierCounts {
        self.tier_counts
    }

    /// Interior-point iterations this analysis's SDP solves spent — the
    /// work the tiers exist to save (0 when everything was answered by
    /// cache hits or closed forms).
    pub fn ip_iterations(&self) -> usize {
        self.ip_iterations
    }

    /// Aggregated per-phase interior-point timings across this analysis's
    /// SDP solves (all-zero when every judgment was answered by cache hits
    /// or closed forms). Phase walls sum across solves, so
    /// `solver_profile().total_ms` approximates the CPU time spent inside
    /// the solver, not the stage's wall clock.
    pub fn solver_profile(&self) -> SolverProfile {
        self.solver_profile
    }

    /// Wall-clock time of the analysis.
    pub fn elapsed(&self) -> Duration {
        self.elapsed
    }

    /// Per-stage wall-clock breakdown (plan / solve / assemble).
    pub fn stage_timings(&self) -> StageTimings {
        self.stage_timings
    }

    /// Threads that discharged at least one SDP unit in the solve stage
    /// (1 = the calling thread alone; 0 for a gate-free program).
    pub fn solve_workers(&self) -> usize {
        self.solve_workers
    }

    /// The MPS bond-dimension budget this report was computed at.
    pub fn mps_width(&self) -> usize {
        self.mps_width
    }

    /// Re-checks the derivation against fresh SDP solves: every Gate node's
    /// ε must be reproducible (within `tol`) from its stored judgment
    /// `(ρ′, δ)` under the given noise model, and the combination
    /// arithmetic re-derives the same bound by construction.
    ///
    /// # Errors
    ///
    /// The first failing node as a typed [`ReplayError`].
    pub fn replay(
        &self,
        noise: &NoiseModel,
        opts: &SolverOptions,
        tol: f64,
    ) -> Result<(), ReplayError> {
        fn walk(
            d: &Derivation,
            noise: &NoiseModel,
            opts: &SolverOptions,
            tol: f64,
        ) -> Result<(), ReplayError> {
            match d {
                Derivation::Skip => Ok(()),
                Derivation::Gate {
                    gate,
                    qubits,
                    rho_prime,
                    delta,
                    epsilon,
                } => {
                    let qs: Vec<gleipnir_circuit::Qubit> =
                        qubits.iter().map(|&q| gleipnir_circuit::Qubit(q)).collect();
                    let noisy = noise.noisy_gate(gate, &qs);
                    let fresh = rho_delta_diamond(&gate.matrix(), &noisy, rho_prime, *delta, opts)
                        .map_err(|e| ReplayError::Sdp {
                            gate: gate.to_string(),
                            source: e,
                        })?;
                    if fresh.bound > epsilon + tol {
                        return Err(ReplayError::NotReproducible {
                            gate: gate.to_string(),
                            claimed: *epsilon,
                            fresh: fresh.bound,
                        });
                    }
                    Ok(())
                }
                Derivation::Seq { children } => {
                    children.iter().try_for_each(|c| walk(c, noise, opts, tol))
                }
                Derivation::Meas { zero, one, .. } => {
                    if let Some(z) = zero {
                        walk(z, noise, opts, tol)?;
                    }
                    if let Some(o) = one {
                        walk(o, noise, opts, tol)?;
                    }
                    Ok(())
                }
            }
        }
        walk(&self.derivation, noise, opts, tol)
    }
}

impl fmt::Display for StateAwareReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "error bound ε = {:.6e}   (TN δ = {:.3e}, {} SDP solves, {} cache hits, {:?})",
            self.error_bound(),
            self.tn_delta,
            self.sdp_solves,
            self.cache_hits,
            self.elapsed
        )?;
        write!(f, "{}", self.derivation.pretty())
    }
}

/// Runs the full Fig. 4 analysis — MPS approximation, per-gate `(ρ̂, δ)`-
/// diamond norms, the error logic — from an already-materialized input
/// MPS, as the plan → solve → assemble pipeline. The solve stage fans out
/// over the engine's worker pool; `cache_enabled = false` solves every
/// judgment at its exact δ (still in parallel, just never deduplicated).
pub(crate) fn run_state_aware(
    h: &EngineHandle,
    program: &Program,
    mps: Mps,
    noise: &NoiseModel,
    opts: &SolverOptions,
    cache_enabled: bool,
    delta_quantum: f64,
    tiers: TierPolicy,
) -> Result<StateAwareReport, AnalysisError> {
    // Stage spans are recorded only while a trace is active (server
    // request or `--trace` CLI run); stage histograms always are. Both
    // are pure observation — no telemetry value feeds back into the
    // analysis, which keeps ε bit-deterministic with tracing enabled.
    let ctx = telemetry::active();
    let start = Instant::now();
    let plan_t0 = telemetry::now_ns();
    let plan = plan_program(program, mps, noise, opts, cache_enabled, delta_quantum)?;
    let plan_elapsed = start.elapsed();
    if let Some(ctx) = ctx {
        telemetry::record_span(
            ctx,
            telemetry::SpanName::Plan,
            telemetry::next_span_id(),
            plan_t0,
            telemetry::now_ns(),
            0,
            0,
            0,
        );
    }
    let Plan {
        skeleton,
        obligations,
        final_delta,
        mps_width,
    } = plan;
    let solve_t0 = telemetry::now_ns();
    let solve_span = ctx.map(|c| {
        let id = telemetry::next_span_id();
        (
            c,
            id,
            telemetry::TraceCtx {
                trace_id: c.trace_id,
                parent: id,
            },
        )
    });
    // Per-obligation spans parent under the solve span: the pool closures
    // capture the ambient context at dispatch time inside `spawn_solve`.
    let solved = match solve_span {
        Some((_, _, inner)) => {
            telemetry::with_ctx(inner, || spawn_solve(h, obligations, *opts, tiers).join(h))?
        }
        None => spawn_solve(h, obligations, *opts, tiers).join(h)?,
    };
    if let Some((ctx, id, _)) = solve_span {
        telemetry::record_span(
            ctx,
            telemetry::SpanName::Solve,
            id,
            solve_t0,
            telemetry::now_ns(),
            0,
            0,
            0,
        );
    }
    let report = assemble_report(skeleton, final_delta, mps_width, solved, plan_elapsed);
    if let Some(ctx) = ctx {
        let end_ns = telemetry::now_ns();
        let assemble_ns = report.stage_timings.assemble.as_nanos() as u64;
        telemetry::record_span(
            ctx,
            telemetry::SpanName::Assemble,
            telemetry::next_span_id(),
            end_ns.saturating_sub(assemble_ns),
            end_ns,
            0,
            0,
            0,
        );
    }
    let t = telemetry::global();
    t.plan_ms.observe_duration(report.stage_timings.plan);
    t.solve_ms.observe_duration(report.stage_timings.solve);
    t.assemble_ms
        .observe_duration(report.stage_timings.assemble);
    Ok(report)
}

/// The pipeline's tail shared with the adaptive sweep: stitches solved ε's
/// into the skeleton and packages the report. The report's `elapsed` is
/// the sum of the three stage walls — plan + solve (first claim → last
/// unit) + assemble — so it means "the work of *this* analysis" even for
/// adaptive widths whose plan or solve overlapped a sibling width's
/// stages, and per-width `elapsed` values never double-count shared wall
/// time.
pub(crate) fn assemble_report(
    skeleton: Derivation,
    final_delta: f64,
    mps_width: usize,
    solved: SolveOutcome,
    plan_elapsed: Duration,
) -> StateAwareReport {
    let assemble_start = Instant::now();
    let derivation = assemble(skeleton, &solved.epsilons);
    let assemble_elapsed = assemble_start.elapsed();
    StateAwareReport {
        derivation,
        tn_delta: final_delta,
        sdp_solves: solved.sdp_solves,
        cache_hits: solved.cache_hits,
        inflight_dedup: solved.inflight_dedup,
        tier_counts: solved.tier_counts,
        ip_iterations: solved.ip_iterations,
        solver_profile: solved.solver_profile,
        elapsed: plan_elapsed + solved.elapsed + assemble_elapsed,
        stage_timings: StageTimings {
            plan: plan_elapsed,
            solve: solved.elapsed,
            assemble: assemble_elapsed,
        },
        solve_workers: solved.solve_workers,
        mps_width,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AnalysisRequest, Engine, Method, Report};
    use gleipnir_circuit::ProgramBuilder;
    use gleipnir_sim::BasisState;

    fn bit_flip() -> NoiseModel {
        NoiseModel::uniform_bit_flip(1e-4)
    }

    fn state_aware(
        engine: &Engine,
        program: &Program,
        input: &BasisState,
        noise: &NoiseModel,
        w: usize,
    ) -> Result<StateAwareReport, AnalysisError> {
        let request = AnalysisRequest::builder(program.clone())
            .input(input)
            .noise(noise.clone())
            .method(Method::StateAware { mps_width: w })
            .build()?;
        match engine.analyze(&request)? {
            Report::StateAware(r) => Ok(r),
            other => panic!("expected state-aware report, got {}", other.method_name()),
        }
    }

    fn analyze(program: &Program, input: &BasisState, w: usize) -> StateAwareReport {
        state_aware(&Engine::new(), program, input, &bit_flip(), w).unwrap()
    }

    #[test]
    fn ghz_running_example() {
        // The paper's §3 running example:
        // (|00⟩⟨00|, 0) ⊢ H̃(q0); CÑOT(q0,q1) ≤ ε₁ + ε₂.
        let mut b = ProgramBuilder::new(2);
        b.h(0).cnot(0, 1);
        let report = analyze(&b.build(), &BasisState::zeros(2), 4);
        let eps = report.error_bound();
        // H's bit flip is invisible on |+⟩ (ε₁ ≈ 0); the CNOT flip on the
        // control is also invisible on the GHZ-direction state? No — the
        // noise acts after the CNOT on a (|00⟩+|11⟩) state, where X⊗I maps
        // it to (|10⟩+|01⟩): fully distinguishable, so ε₂ ≈ p.
        assert!(eps > 0.5e-4, "ε = {eps}");
        assert!(eps < 2.5e-4, "ε = {eps}");
        assert!(report.tn_delta() < 1e-9);
        assert_eq!(report.derivation().gate_rule_count(), 2);
    }

    #[test]
    fn skip_program_has_zero_error() {
        let p = ProgramBuilder::new(1).build();
        let report = analyze(&p, &BasisState::zeros(1), 2);
        assert_eq!(report.error_bound(), 0.0);
    }

    #[test]
    fn noiseless_model_gives_zero() {
        let mut b = ProgramBuilder::new(2);
        b.h(0).cnot(0, 1).rx(1, 0.4);
        let report = state_aware(
            &Engine::new(),
            &b.build(),
            &BasisState::zeros(2),
            &NoiseModel::Noiseless,
            4,
        )
        .unwrap();
        assert!(report.error_bound() < 1e-7, "{}", report.error_bound());
    }

    #[test]
    fn bound_is_below_worst_case() {
        // A plus-state-heavy circuit: Gleipnir's state-aware bound must be
        // far below gate_count × p.
        let mut b = ProgramBuilder::new(3);
        b.h(0).h(1).h(2);
        let report = analyze(&b.build(), &BasisState::zeros(3), 4);
        let worst = 3.0 * 1e-4;
        assert!(
            report.error_bound() < 0.2 * worst,
            "{} vs {worst}",
            report.error_bound()
        );
    }

    #[test]
    fn x_heavy_circuit_is_near_worst_case() {
        // |0⟩ states are maximally sensitive to bit flips: the bound should
        // approach gate_count × p.
        let mut b = ProgramBuilder::new(2);
        b.z(0).z(1).z(0).z(1);
        let report = analyze(&b.build(), &BasisState::zeros(2), 4);
        let worst = 4.0 * 1e-4;
        assert!(
            report.error_bound() > 0.9 * worst,
            "{} vs {worst}",
            report.error_bound()
        );
        assert!(report.error_bound() <= 1.02 * worst);
    }

    #[test]
    fn measurement_uses_meas_rule() {
        let mut b = ProgramBuilder::new(2);
        b.h(0).if_measure(
            0,
            |z| {
                z.x(1);
            },
            |o| {
                o.z(1);
            },
        );
        let report = analyze(&b.build(), &BasisState::zeros(2), 4);
        // ε = ε_H + (1−δ)·max(ε_X, ε_Z) + δ with δ ≈ 0.
        assert!(report.error_bound() > 0.0);
        assert!(report.error_bound() < 5e-4);
        let pretty = report.derivation().pretty();
        assert!(pretty.contains("[Meas]"), "{pretty}");
    }

    #[test]
    fn unreachable_branch_is_skipped() {
        let mut b = ProgramBuilder::new(2);
        b.x(0).if_measure(
            0,
            |z| {
                z.x(1);
            },
            |o| {
                o.skip();
            },
        );
        let report = analyze(&b.build(), &BasisState::zeros(2), 4);
        match find_meas(report.derivation()) {
            Some(Derivation::Meas { zero, one, .. }) => {
                assert!(zero.is_none(), "zero branch should be unreachable");
                assert!(one.is_some());
            }
            other => panic!("expected Meas node, got {other:?}"),
        }
    }

    fn find_meas(d: &Derivation) -> Option<&Derivation> {
        match d {
            Derivation::Meas { .. } => Some(d),
            Derivation::Seq { children } => children.iter().find_map(find_meas),
            _ => None,
        }
    }

    #[test]
    fn cache_hits_on_repeated_structure() {
        // An Ising-like pattern repeats (gate, ρ′, δ-bucket) judgments.
        let mut b = ProgramBuilder::new(4);
        for _layer in 0..4 {
            for q in 0..4 {
                b.z(q);
            }
        }
        let report = analyze(&b.build(), &BasisState::zeros(4), 4);
        assert!(report.cache_hits() > 0, "expected cache hits");
        assert!(report.sdp_solves() < 16);
    }

    #[test]
    fn cache_and_nocache_agree() {
        let mut b = ProgramBuilder::new(3);
        b.h(0).cnot(0, 1).rx(2, 0.5).rzz(1, 2, 0.7).cnot(0, 2);
        let p = b.build();
        let engine = Engine::new();
        let with_cache = state_aware(&engine, &p, &BasisState::zeros(3), &bit_flip(), 8).unwrap();
        let without = {
            let request = AnalysisRequest::builder(p.clone())
                .input(&BasisState::zeros(3))
                .noise(bit_flip())
                .method(Method::StateAware { mps_width: 8 })
                .cache(false)
                .build()
                .unwrap();
            engine
                .analyze(&request)
                .unwrap()
                .into_state_aware()
                .unwrap()
        };
        // Both are sound upper bounds from an approximate solver; the
        // cached one is solved at a δ loosened by at most one bucket
        // (1e-6), so they must agree to that scale plus solver slop.
        assert!(
            (with_cache.error_bound() - without.error_bound()).abs() < 1e-5,
            "cache {} vs exact {}",
            with_cache.error_bound(),
            without.error_bound()
        );
    }

    #[test]
    fn replay_accepts_honest_reports() {
        let mut b = ProgramBuilder::new(2);
        b.h(0).cnot(0, 1).x(1);
        let report = analyze(&b.build(), &BasisState::zeros(2), 4);
        report
            .replay(&bit_flip(), &SolverOptions::default(), 1e-6)
            .expect("honest derivation must replay");
    }

    #[test]
    fn replay_rejects_tampered_reports() {
        let mut b = ProgramBuilder::new(1);
        b.x(0);
        let mut report = analyze(&b.build(), &BasisState::zeros(1), 2);
        // Tamper: claim a much smaller ε.
        if let Derivation::Seq { children } = &mut report.derivation {
            if let Some(Derivation::Gate { epsilon, .. }) = children.first_mut() {
                *epsilon = 1e-9;
            }
        }
        let err = report
            .replay(&bit_flip(), &SolverOptions::default(), 1e-8)
            .unwrap_err();
        assert!(
            matches!(err, ReplayError::NotReproducible { claimed, .. } if claimed == 1e-9),
            "{err}"
        );
    }

    #[test]
    fn width_mismatch_rejected() {
        let p = ProgramBuilder::new(3).build();
        let err = AnalysisRequest::builder(p)
            .input(&BasisState::zeros(2))
            .noise(bit_flip())
            .method(Method::StateAware { mps_width: 2 })
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            AnalysisError::WidthMismatch {
                input: 2,
                program: 3
            }
        ));
    }

    #[test]
    fn non_adjacent_gates_are_handled() {
        let mut b = ProgramBuilder::new(4);
        b.h(0).cnot(0, 3).rzz(0, 2, 0.5);
        let report = analyze(&b.build(), &BasisState::zeros(4), 8);
        assert!(report.error_bound() > 0.0);
        assert!(report.error_bound() < 1.0);
    }
}
