//! Differential analysis: edit-cost latency for edited circuits.
//!
//! [`Engine::analyze_diff`] answers "what did this edit do to the certified
//! error bound?" without paying for a full re-analysis. The two programs'
//! top-level statement lists are aligned; the MPS walk of the **shared
//! prefix** — the statements before the first divergence — is planned once
//! (snapshotting the evolved [`Mps`](gleipnir_mps::Mps) at the divergence
//! point), and each program's suffix is replanned from a clone of that
//! snapshot. Only the *new* suffix's obligations are fanned over the worker
//! pool; the prefix's ε's are taken verbatim from the old program's
//! analysis, and unchanged-suffix judgments still hit the engine's shared
//! certificate cache by content address.
//!
//! ## Soundness: prefix reuse is a performance path, never a new bound
//!
//! Under the default exact tier policy a diff answer is **bit-identical to
//! a cold full analysis of the new program at any pool size** (SOUNDNESS.md
//! obligation 7, pinned by `tests/diff_determinism.rs`):
//!
//! * the prefix plan evolves the MPS exactly as the full walk's first
//!   statements would, so the suffix plan sees bit-identical `(ρ′, δ)`
//!   judgments;
//! * keyed obligations are *canonical* — the quantized judgment is
//!   recoverable from the content address alone, so a cache hit returns the
//!   same bits a cold solve would produce;
//! * uncached obligations are re-solved at their exact judgment by the
//!   deterministic solver.
//!
//! The prefix stops **before the first statement containing a
//! measurement**: `if-measure` duplicates its continuation into both
//! branches (§5.2), so obligations after a measurement depend on the tail
//! and cannot be reused across an edit.
//!
//! ## What invalidates the prefix
//!
//! A shared prefix exists only when the two requests agree on everything
//! that feeds the walk: input state, noise model, MPS width, solver
//! options, cache participation, δ bucket width, and tier policy. Any
//! disagreement degrades to two independent analyses
//! (`prefix_gates_reused == 0`) — still one [`DiffReport`], never a stale
//! bound.

use crate::engine::EngineHandle;
use crate::error::AnalysisError;
use crate::logic::{assemble_report, Derivation, StateAwareReport};
use crate::plan::{plan_stmts, Plan};
use crate::request::{AnalysisRequest, Method};
use crate::solve::{spawn_solve, SolveOutcome};
use crate::tiers::BoundTier;
use crate::Engine;
use gleipnir_circuit::Stmt;
use std::time::{Duration, Instant};

/// Why a gate's certified ε differs between the old and new analyses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChangeReason {
    /// The gate itself was edited (inserted, removed, or replaced in the
    /// divergent middle of the circuit).
    GateEdited,
    /// The two requests use different noise models — every gate's channel
    /// changed even where the circuit did not.
    NoiseChanged,
    /// A non-noise configuration difference (input state, MPS width, solver
    /// options, cache/quantum/tier settings) forced independent analyses.
    ConfigChanged,
    /// The gate is unchanged but sits downstream of an edit: its judgment's
    /// `(ρ′, δ)` drifted, so its certificate was re-derived.
    DownstreamDrift,
}

impl ChangeReason {
    /// Stable snake_case name (used by the JSON surfaces).
    pub fn name(&self) -> &'static str {
        match self {
            ChangeReason::GateEdited => "gate_edited",
            ChangeReason::NoiseChanged => "noise_changed",
            ChangeReason::ConfigChanged => "config_changed",
            ChangeReason::DownstreamDrift => "downstream_drift",
        }
    }
}

/// One gate whose certified ε differs between the old and new analyses.
#[derive(Clone, Debug)]
pub struct GateChange {
    /// Gate-rule index (skeleton pre-order) in the old derivation; `None`
    /// for a gate that only exists in the new program.
    pub old_index: Option<usize>,
    /// Gate-rule index in the new derivation; `None` for a removed gate.
    pub new_index: Option<usize>,
    /// The gate with its operand qubits, e.g. `CNOT(q0,q1)`. For a
    /// replaced gate this is the *new* gate (the old one when removed).
    pub gate: String,
    /// The old analysis's certified ε (`None` for an inserted gate).
    pub old_epsilon: Option<f64>,
    /// The new analysis's certified ε (`None` for a removed gate).
    pub new_epsilon: Option<f64>,
    /// Which bound-engine tier produced the new ε (`None` for a removed
    /// gate).
    pub tier: Option<BoundTier>,
    /// Why the ε changed.
    pub reason: ChangeReason,
}

/// The differential analysis output: both full reports, the reuse
/// accounting, and the per-gate change list.
#[derive(Clone, Debug)]
pub struct DiffReport {
    old: StateAwareReport,
    new: StateAwareReport,
    prefix_gates_reused: usize,
    changes: Vec<GateChange>,
    elapsed: Duration,
}

impl DiffReport {
    /// The old program's full analysis (its solve stage is almost entirely
    /// cache hits when the engine analyzed the old program before).
    pub fn old_report(&self) -> &StateAwareReport {
        &self.old
    }

    /// The new program's analysis. Its solve accounting covers **only the
    /// divergent suffix**: `gate_rule_count = prefix_gates_reused +
    /// sdp_solves + cache_hits + tier_counts.closed_form`.
    pub fn new_report(&self) -> &StateAwareReport {
        &self.new
    }

    /// The new program's certified whole-program error bound — bit-
    /// identical to what a cold full analysis would certify (exact policy).
    pub fn error_bound(&self) -> f64 {
        self.new.error_bound()
    }

    /// Gate judgments answered verbatim from the shared-prefix walk (no
    /// lookup, no solve — their ε bits are the old analysis's).
    pub fn prefix_gates_reused(&self) -> usize {
        self.prefix_gates_reused
    }

    /// Every gate whose certified ε changed, with old/new ε, the tier that
    /// produced the new bound, and why it changed.
    pub fn changes(&self) -> &[GateChange] {
        &self.changes
    }

    /// Wall-clock time of the whole differential analysis.
    pub fn elapsed(&self) -> Duration {
        self.elapsed
    }
}

/// Whether a statement contains a measurement anywhere. Measurements
/// duplicate their continuation (§5.2), so the shared prefix must stop
/// before the first one.
fn contains_measure(stmt: &Stmt) -> bool {
    match stmt {
        Stmt::Skip | Stmt::Gate(_) => false,
        Stmt::Seq(ss) => ss.iter().any(contains_measure),
        Stmt::IfMeasure { .. } => true,
    }
}

/// The top-level statement list of a program body (one `Seq` level
/// flattened — exactly how the plan walk consumes it).
fn top_stmts(body: &Stmt) -> Vec<&Stmt> {
    match body {
        Stmt::Seq(ss) => ss.iter().collect(),
        other => vec![other],
    }
}

/// Length of the reusable shared prefix: equal statements up to (not
/// including) the first divergence or measurement-containing statement.
fn shared_prefix_len(old: &[&Stmt], new: &[&Stmt]) -> usize {
    old.iter()
        .zip(new.iter())
        .take_while(|(o, n)| o == n && !contains_measure(o))
        .count()
}

/// Splices a measure-free prefix skeleton and a suffix skeleton into the
/// tree the full walk of `[prefix ++ suffix]` would have produced: the
/// prefix nodes come first, then the suffix's `Seq` children (or the
/// suffix itself when it is not a `Seq`, e.g. a leading `Meas`).
fn merge_skeleton(prefix: Derivation, suffix: Derivation) -> Derivation {
    let mut children = match prefix {
        Derivation::Seq { children } => children,
        other => vec![other],
    };
    if children.is_empty() {
        return suffix;
    }
    match suffix {
        Derivation::Seq { children: sc } => children.extend(sc),
        other => children.push(other),
    }
    Derivation::Seq { children }
}

/// The planned halves of a differential analysis.
struct DiffPlan {
    /// The shared prefix (`None` when nothing is reusable).
    prefix: Option<Plan>,
    old_suffix: Plan,
    new_suffix: Plan,
    plan_elapsed: Duration,
}

/// Collects `(label, ε)` for every Gate rule in skeleton pre-order — the
/// same order as the obligation list, so index `i` lines up with the solve
/// outcome's `tiers[i]`.
fn collect_gates(d: &Derivation, out: &mut Vec<(String, f64)>) {
    match d {
        Derivation::Skip => {}
        Derivation::Gate {
            gate,
            qubits,
            epsilon,
            ..
        } => {
            let qs: Vec<String> = qubits.iter().map(|q| format!("q{q}")).collect();
            out.push((format!("{gate}({})", qs.join(",")), *epsilon));
        }
        Derivation::Seq { children } => children.iter().for_each(|c| collect_gates(c, out)),
        Derivation::Meas { zero, one, .. } => {
            if let Some(z) = zero {
                collect_gates(z, out);
            }
            if let Some(o) = one {
                collect_gates(o, out);
            }
        }
    }
}

/// Whether the two requests agree on everything that feeds the MPS walk
/// (`Debug` formatting round-trips every `f64` exactly, so this is a
/// bit-level comparison for the numeric fields).
fn same_walk_config(
    h: &EngineHandle,
    old: &AnalysisRequest,
    new: &AnalysisRequest,
    old_width: usize,
    new_width: usize,
) -> bool {
    old_width == new_width
        && format!("{:?}", old.input()) == format!("{:?}", new.input())
        && format!("{:?}", old.noise()) == format!("{:?}", new.noise())
        && format!("{:?}", h.resolve_options(old)) == format!("{:?}", h.resolve_options(new))
        && old.cache_enabled() == new.cache_enabled()
        && old.delta_quantum().to_bits() == new.delta_quantum().to_bits()
        && format!("{:?}", old.tier_policy()) == format!("{:?}", new.tier_policy())
}

/// Plans both programs, sharing the prefix walk when the configurations
/// agree.
fn plan_diff(
    h: &EngineHandle,
    old_request: &AnalysisRequest,
    new_request: &AnalysisRequest,
    old_width: usize,
    new_width: usize,
) -> Result<DiffPlan, AnalysisError> {
    let plan_start = Instant::now();
    let old_stmts = top_stmts(old_request.program().body());
    let new_stmts = top_stmts(new_request.program().body());
    let shared = if same_walk_config(h, old_request, new_request, old_width, new_width) {
        shared_prefix_len(&old_stmts, &new_stmts)
    } else {
        0
    };

    let old_opts = h.resolve_options(old_request);
    let new_opts = h.resolve_options(new_request);
    let check_width = |request: &AnalysisRequest, n: usize| -> Result<(), AnalysisError> {
        if n != request.program().n_qubits() {
            return Err(AnalysisError::WidthMismatch {
                input: n,
                program: request.program().n_qubits(),
            });
        }
        Ok(())
    };

    if shared == 0 {
        // Nothing reusable: two independent plans from their own inputs.
        let mut old_mps = old_request.input().build_mps(old_width)?;
        check_width(old_request, old_mps.n_qubits())?;
        let old_suffix = plan_stmts(
            &old_stmts,
            &mut old_mps,
            old_request.noise(),
            &old_opts,
            old_request.cache_enabled(),
            old_request.delta_quantum(),
        )?;
        let mut new_mps = new_request.input().build_mps(new_width)?;
        check_width(new_request, new_mps.n_qubits())?;
        let new_suffix = plan_stmts(
            &new_stmts,
            &mut new_mps,
            new_request.noise(),
            &new_opts,
            new_request.cache_enabled(),
            new_request.delta_quantum(),
        )?;
        return Ok(DiffPlan {
            prefix: None,
            old_suffix,
            new_suffix,
            plan_elapsed: plan_start.elapsed(),
        });
    }

    // One prefix walk evolves the MPS to the divergence point; each
    // suffix replans from a clone of that snapshot. The configurations
    // are equal here, so the new request's parameters speak for both.
    let mut mps = new_request.input().build_mps(new_width)?;
    check_width(old_request, mps.n_qubits())?;
    check_width(new_request, mps.n_qubits())?;
    let prefix = plan_stmts(
        &new_stmts[..shared],
        &mut mps,
        new_request.noise(),
        &new_opts,
        new_request.cache_enabled(),
        new_request.delta_quantum(),
    )?;
    let mut old_mps = mps.clone();
    let old_suffix = plan_stmts(
        &old_stmts[shared..],
        &mut old_mps,
        new_request.noise(),
        &new_opts,
        new_request.cache_enabled(),
        new_request.delta_quantum(),
    )?;
    let new_suffix = plan_stmts(
        &new_stmts[shared..],
        &mut mps,
        new_request.noise(),
        &new_opts,
        new_request.cache_enabled(),
        new_request.delta_quantum(),
    )?;
    Ok(DiffPlan {
        prefix: Some(prefix),
        old_suffix,
        new_suffix,
        plan_elapsed: plan_start.elapsed(),
    })
}

/// Classifies the per-gate ε changes between the two assembled reports.
/// Alignment: the first `prefix_gates` pre-order gates are shared by
/// construction; the longest label-equal run from the end is the common
/// tail (unchanged gates downstream of the edit); everything between is
/// the edited middle, paired by offset.
fn classify_changes(
    old_gates: &[(String, f64)],
    new_gates: &[(String, f64)],
    new_tiers: &[BoundTier],
    prefix_gates: usize,
    noise_shared: bool,
    config_shared: bool,
) -> Vec<GateChange> {
    let edited_reason = if !noise_shared {
        ChangeReason::NoiseChanged
    } else if !config_shared {
        ChangeReason::ConfigChanged
    } else {
        ChangeReason::GateEdited
    };
    let drift_reason = if config_shared {
        ChangeReason::DownstreamDrift
    } else {
        edited_reason
    };

    let mut tail = 0usize;
    let max_tail = (old_gates.len() - prefix_gates).min(new_gates.len() - prefix_gates);
    while tail < max_tail
        && old_gates[old_gates.len() - 1 - tail].0 == new_gates[new_gates.len() - 1 - tail].0
    {
        tail += 1;
    }

    let old_mid = prefix_gates..old_gates.len() - tail;
    let new_mid = prefix_gates..new_gates.len() - tail;
    let mut changes = Vec::new();

    // The edited middle, paired by offset; extras are one-sided.
    let mid_len = old_mid.len().max(new_mid.len());
    for k in 0..mid_len {
        let old = old_mid.start + k;
        let new = new_mid.start + k;
        let o = old_mid.contains(&old).then(|| &old_gates[old]);
        let n = new_mid.contains(&new).then(|| &new_gates[new]);
        let changed = match (o, n) {
            (Some(o), Some(n)) => o.0 != n.0 || o.1.to_bits() != n.1.to_bits(),
            _ => true,
        };
        if !changed {
            continue;
        }
        changes.push(GateChange {
            old_index: o.map(|_| old),
            new_index: n.map(|_| new),
            gate: n.or(o).expect("one side exists").0.clone(),
            old_epsilon: o.map(|g| g.1),
            new_epsilon: n.map(|g| g.1),
            tier: n.map(|_| new_tiers[new]),
            reason: edited_reason,
        });
    }

    // The common tail: unchanged gates whose judgment may have drifted.
    for k in 0..tail {
        let old = old_gates.len() - tail + k;
        let new = new_gates.len() - tail + k;
        if old_gates[old].1.to_bits() == new_gates[new].1.to_bits() {
            continue;
        }
        changes.push(GateChange {
            old_index: Some(old),
            new_index: Some(new),
            gate: new_gates[new].0.clone(),
            old_epsilon: Some(old_gates[old].1),
            new_epsilon: Some(new_gates[new].1),
            tier: Some(new_tiers[new]),
            reason: drift_reason,
        });
    }
    changes
}

/// The free-function form of [`Engine::analyze_diff`] (what the server's
/// workers call through an [`EngineHandle`]).
pub(crate) fn analyze_diff_request(
    h: &EngineHandle,
    old_request: &AnalysisRequest,
    new_request: &AnalysisRequest,
) -> Result<DiffReport, AnalysisError> {
    let start = Instant::now();
    let (
        &Method::StateAware {
            mps_width: old_width,
        },
        &Method::StateAware {
            mps_width: new_width,
        },
    ) = (old_request.method(), new_request.method())
    else {
        return Err(AnalysisError::Unsupported(
            "analyze_diff requires Method::StateAware on both requests".into(),
        ));
    };
    let noise_shared = format!("{:?}", old_request.noise()) == format!("{:?}", new_request.noise());
    let config_shared = same_walk_config(h, old_request, new_request, old_width, new_width);

    let DiffPlan {
        prefix,
        old_suffix,
        new_suffix,
        plan_elapsed,
    } = plan_diff(h, old_request, new_request, old_width, new_width)?;

    let (prefix_skeleton, prefix_obligations, prefix_width) = match prefix {
        Some(p) => (p.skeleton, p.obligations, Some(p.mps_width)),
        None => (
            Derivation::Seq {
                children: Vec::new(),
            },
            Vec::new(),
            None,
        ),
    };
    let prefix_gates = prefix_obligations.len();

    // Solve the old program in full: prefix + old-suffix obligations in
    // plan order (all cache hits when the engine analyzed it before).
    // Joining *before* the new solve keeps the new suffix's accounting a
    // deterministic function of the engine state, pool size aside.
    let old_opts = h.resolve_options(old_request);
    let new_opts = h.resolve_options(new_request);
    let mut old_obligations = prefix_obligations;
    let n_old_prefix = old_obligations.len();
    old_obligations.extend(old_suffix.obligations);
    let old_solved =
        spawn_solve(h, old_obligations, old_opts, old_request.tier_policy()).join(h)?;

    // Solve only the new program's divergent suffix.
    let suffix_solved = spawn_solve(
        h,
        new_suffix.obligations,
        new_opts,
        new_request.tier_policy(),
    )
    .join(h)?;

    // The new program's ε vector: prefix bits verbatim from the old solve,
    // then the suffix. The accounting carries only the suffix's work —
    // that is the point of the diff.
    let mut epsilons = old_solved.epsilons[..n_old_prefix].to_vec();
    epsilons.extend_from_slice(&suffix_solved.epsilons);
    let mut tiers = old_solved.tiers[..n_old_prefix].to_vec();
    tiers.extend_from_slice(&suffix_solved.tiers);
    let new_solved = SolveOutcome {
        epsilons,
        tiers,
        sdp_solves: suffix_solved.sdp_solves,
        cache_hits: suffix_solved.cache_hits,
        inflight_dedup: suffix_solved.inflight_dedup,
        tier_counts: suffix_solved.tier_counts,
        ip_iterations: suffix_solved.ip_iterations,
        solver_profile: suffix_solved.solver_profile,
        solve_workers: suffix_solved.solve_workers,
        elapsed: suffix_solved.elapsed,
    };

    let new_tiers_by_gate = new_solved.tiers.clone();
    let old_report = assemble_report(
        merge_skeleton(prefix_skeleton.clone(), old_suffix.skeleton),
        old_suffix.final_delta,
        prefix_width.unwrap_or(old_suffix.mps_width),
        old_solved,
        plan_elapsed,
    );
    let new_report = assemble_report(
        merge_skeleton(prefix_skeleton, new_suffix.skeleton),
        new_suffix.final_delta,
        prefix_width.unwrap_or(new_suffix.mps_width),
        new_solved,
        plan_elapsed,
    );

    let mut old_gates = Vec::new();
    let mut new_gates = Vec::new();
    collect_gates(old_report.derivation(), &mut old_gates);
    collect_gates(new_report.derivation(), &mut new_gates);
    let changes = classify_changes(
        &old_gates,
        &new_gates,
        &new_tiers_by_gate,
        prefix_gates,
        noise_shared,
        config_shared,
    );

    Ok(DiffReport {
        old: old_report,
        new: new_report,
        prefix_gates_reused: prefix_gates,
        changes,
        elapsed: start.elapsed(),
    })
}

impl Engine {
    /// Differential analysis: analyzes `new_request` by reusing the MPS
    /// walk prefix shared with `old_request` and re-solving only the
    /// divergent suffix's obligations.
    ///
    /// Both reports come back: the old one (near-free when the engine
    /// analyzed the old program before — its obligations hit the cache)
    /// and the new one, whose solve accounting covers only the suffix.
    /// Under the default exact tier policy the new report's ε bits are
    /// identical to [`Engine::analyze`] of the new request on a cold
    /// engine, at any pool size.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::Unsupported`] unless both requests use
    /// [`Method::StateAware`]; otherwise the same errors as
    /// [`Engine::analyze`].
    ///
    /// # Examples
    ///
    /// ```
    /// use gleipnir_circuit::ProgramBuilder;
    /// use gleipnir_core::{AnalysisRequest, Engine, Method};
    /// use gleipnir_noise::NoiseModel;
    ///
    /// let engine = Engine::new();
    /// let request = |theta: f64| {
    ///     let mut b = ProgramBuilder::new(2);
    ///     b.h(0).cnot(0, 1).rx(1, theta);
    ///     AnalysisRequest::builder(b.build())
    ///         .noise(NoiseModel::uniform_bit_flip(1e-4))
    ///         .method(Method::StateAware { mps_width: 4 })
    ///         .build()
    /// };
    /// let old = request(0.3)?;
    /// let new = request(0.7)?;
    /// engine.analyze(&old)?; // warm the certificate cache
    /// let diff = engine.analyze_diff(&old, &new)?;
    /// assert_eq!(diff.prefix_gates_reused(), 2); // H and CNOT reused
    /// assert!(!diff.changes().is_empty()); // the RX edit is named
    /// # Ok::<(), gleipnir_core::AnalysisError>(())
    /// ```
    pub fn analyze_diff(
        &self,
        old_request: &AnalysisRequest,
        new_request: &AnalysisRequest,
    ) -> Result<DiffReport, AnalysisError> {
        analyze_diff_request(&self.handle(), old_request, new_request)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Method;
    use crate::Report;
    use gleipnir_circuit::ProgramBuilder;
    use gleipnir_noise::NoiseModel;
    use gleipnir_sim::BasisState;

    fn request(program: gleipnir_circuit::Program) -> AnalysisRequest {
        let n = program.n_qubits();
        AnalysisRequest::builder(program)
            .input(&BasisState::zeros(n))
            .noise(NoiseModel::uniform_bit_flip(1e-4))
            .method(Method::StateAware { mps_width: 4 })
            .build()
            .expect("valid request")
    }

    fn state_aware(engine: &Engine, request: &AnalysisRequest) -> StateAwareReport {
        match engine.analyze(request).expect("analysis succeeds") {
            Report::StateAware(r) => r,
            other => panic!("expected state-aware report, got {}", other.method_name()),
        }
    }

    #[test]
    fn prefix_stops_at_divergence_and_measurement() {
        let mut a = ProgramBuilder::new(2);
        a.h(0).cnot(0, 1).x(1);
        let mut b = ProgramBuilder::new(2);
        b.h(0).cnot(0, 1).z(1);
        let sa = a.build();
        let sb = b.build();
        assert_eq!(
            shared_prefix_len(&top_stmts(sa.body()), &top_stmts(sb.body())),
            2
        );

        let mut m = ProgramBuilder::new(2);
        m.h(0).if_measure(
            0,
            |z| {
                z.x(1);
            },
            |o| {
                o.z(1);
            },
        );
        let sm = m.build();
        // Identical programs still stop the prefix at the measurement.
        assert_eq!(
            shared_prefix_len(&top_stmts(sm.body()), &top_stmts(sm.body())),
            1
        );
    }

    #[test]
    fn merge_skeleton_matches_full_walk_shapes() {
        let gate = |eps: f64| Derivation::Gate {
            gate: gleipnir_circuit::Gate::X,
            qubits: vec![0],
            rho_prime: gleipnir_linalg::CMat::identity(2),
            delta: 0.0,
            epsilon: eps,
        };
        // Seq prefix ++ Seq suffix → one flat Seq.
        let merged = merge_skeleton(
            Derivation::Seq {
                children: vec![gate(1.0)],
            },
            Derivation::Seq {
                children: vec![gate(2.0), gate(3.0)],
            },
        );
        match &merged {
            Derivation::Seq { children } => assert_eq!(children.len(), 3),
            other => panic!("expected Seq, got {other:?}"),
        }
        // Empty prefix → the suffix as-is (a leading Meas stays unwrapped).
        let meas = Derivation::Meas {
            qubit: 0,
            delta_prob: 0.0,
            zero: None,
            one: Some(Box::new(gate(1.0))),
        };
        assert!(matches!(
            merge_skeleton(
                Derivation::Seq {
                    children: Vec::new()
                },
                meas.clone()
            ),
            Derivation::Meas { .. }
        ));
        // Non-empty prefix + Meas suffix → the Meas becomes the last child,
        // exactly like the plan walk's `Seq[…, Meas]`.
        match merge_skeleton(
            Derivation::Seq {
                children: vec![gate(1.0)],
            },
            meas,
        ) {
            Derivation::Seq { children } => {
                assert_eq!(children.len(), 2);
                assert!(matches!(children[1], Derivation::Meas { .. }));
            }
            other => panic!("expected Seq, got {other:?}"),
        }
    }

    #[test]
    fn diff_reuses_prefix_and_matches_full_analysis() {
        let mut a = ProgramBuilder::new(3);
        a.h(0).cnot(0, 1).rx(2, 0.3).cnot(1, 2);
        let mut b = ProgramBuilder::new(3);
        b.h(0).cnot(0, 1).rx(2, 0.9).cnot(1, 2);
        let old = request(a.build());
        let new = request(b.build());

        let engine = Engine::new();
        state_aware(&engine, &old);
        let diff = engine.analyze_diff(&old, &new).expect("diff succeeds");
        assert_eq!(diff.prefix_gates_reused(), 2);

        // Bit-identity against a cold full analysis of the new program.
        let cold = state_aware(&Engine::new(), &new);
        assert_eq!(
            diff.new_report().error_bound().to_bits(),
            cold.error_bound().to_bits()
        );
        // The suffix-only accounting closes: every gate is reused, solved,
        // hit, or closed-form.
        let r = diff.new_report();
        assert_eq!(
            r.derivation().gate_rule_count(),
            diff.prefix_gates_reused()
                + r.sdp_solves()
                + r.cache_hits()
                + r.tier_counts().closed_form
        );
        // The edit itself is named.
        assert!(diff
            .changes()
            .iter()
            .any(|c| c.reason == ChangeReason::GateEdited && c.gate.contains("rx")));
    }

    #[test]
    fn noise_change_reports_no_reuse_and_noise_reason() {
        let mut b = ProgramBuilder::new(2);
        b.h(0).cnot(0, 1);
        let p = b.build();
        let old = request(p.clone());
        let new = AnalysisRequest::builder(p)
            .input(&BasisState::zeros(2))
            .noise(NoiseModel::uniform_bit_flip(5e-4))
            .method(Method::StateAware { mps_width: 4 })
            .build()
            .unwrap();
        let engine = Engine::new();
        let diff = engine.analyze_diff(&old, &new).expect("diff succeeds");
        assert_eq!(diff.prefix_gates_reused(), 0);
        assert!(!diff.changes().is_empty());
        assert!(diff
            .changes()
            .iter()
            .all(|c| c.reason == ChangeReason::NoiseChanged));
    }

    #[test]
    fn identical_programs_change_nothing() {
        let mut b = ProgramBuilder::new(2);
        b.h(0).cnot(0, 1).x(1);
        let old = request(b.build());
        let engine = Engine::new();
        state_aware(&engine, &old);
        let diff = engine.analyze_diff(&old, &old).expect("diff succeeds");
        assert_eq!(diff.prefix_gates_reused(), 3);
        assert!(diff.changes().is_empty());
        assert_eq!(diff.new_report().sdp_solves(), 0);
    }

    #[test]
    fn non_state_aware_methods_are_rejected() {
        let mut b = ProgramBuilder::new(1);
        b.x(0);
        let p = b.build();
        let old = AnalysisRequest::builder(p.clone())
            .noise(NoiseModel::uniform_bit_flip(1e-4))
            .method(Method::WorstCase)
            .build()
            .unwrap();
        let new = request(p);
        let err = Engine::new().analyze_diff(&old, &new).unwrap_err();
        assert!(matches!(err, AnalysisError::Unsupported(_)), "{err}");
    }
}
