//! Stage 1 of the analysis pipeline: the **plan** pass.
//!
//! A cheap, strictly sequential walk of the program that evolves the MPS
//! exactly like the original monolithic walk did, but *defers every SDP*:
//! instead of solving each gate's `(ρ̂, δ)`-diamond certificate inline, it
//! materializes a [`SolveObligation`] — the gate matrix, its noisy Kraus
//! channel, the exact ρ′ snapshot and δ, and (when caching is on) the
//! quantized judgment and content-addressed cache key — plus a
//! [`Derivation`] *skeleton* whose Gate nodes carry `ε = NaN` placeholders.
//!
//! Obligations are emitted in execution order, which is exactly the
//! pre-order of Gate nodes in the skeleton; the assemble stage
//! ([`crate::assemble`]) relies on this correspondence to stitch solved
//! ε's back bit-for-bit into the tree the sequential walk would have
//! produced.
//!
//! The δ-bucket quantization implemented here is the soundness-critical
//! half of cache reuse (the Weaken rule); see [`quantize`] for the
//! invariants.

use crate::engine;
use crate::error::AnalysisError;
use crate::logic::Derivation;
use gleipnir_circuit::{Program, Stmt};
use gleipnir_linalg::CMat;
use gleipnir_mps::{Mps, MpsError};
use gleipnir_noise::{Channel, NoiseModel};
use gleipnir_sdp::SolverOptions;

/// One deferred `(ρ̂, δ)`-diamond SDP: everything the solve stage needs,
/// fully owned so obligations can cross threads.
pub(crate) struct SolveObligation {
    /// The ideal gate matrix.
    pub gate_matrix: CMat,
    /// The noisy channel `ω(gate)`.
    pub noisy: Channel,
    /// The exact local density ρ′ (also stored in the skeleton's Gate
    /// node; solved against directly when the obligation is uncached).
    pub rho_prime: CMat,
    /// The exact judgment δ.
    pub delta: f64,
    /// The quantized judgment + cache key, when this obligation
    /// participates in the engine's shared cache.
    pub cached: Option<CachedJudgment>,
}

/// The cache-eligible form of an obligation: the judgment rounded up to a
/// bucket edge (sound by the Weaken rule), plus its content address.
pub(crate) struct CachedJudgment {
    /// ρ′ quantized to 1e-8 granularity (the perturbation is folded into
    /// `delta_eff`).
    pub rho_q: CMat,
    /// δ rounded *up* to the bucket edge, including the ρ′ quantization
    /// slack — always ≥ the exact δ.
    pub delta_eff: f64,
    /// The engine-wide content address ([`engine::key_rho_delta`]).
    pub key: Vec<u64>,
}

/// The plan stage's output: the derivation skeleton plus the flat
/// obligation list (in execution order) and the walk's bookkeeping.
pub(crate) struct Plan {
    /// Derivation tree with `ε = NaN` placeholders in every Gate node.
    pub skeleton: Derivation,
    /// Deferred SDPs, emitted in skeleton pre-order.
    pub obligations: Vec<SolveObligation>,
    /// The maximum accumulated TN δ over all execution paths.
    pub final_delta: f64,
    /// The MPS bond-dimension budget the plan was computed at.
    pub mps_width: usize,
}

/// Runs the plan pass: evolves `mps` through `program`, emitting one
/// obligation per Gate-rule application.
///
/// # Errors
///
/// [`AnalysisError::WidthMismatch`] if the MPS and program widths
/// disagree, or [`AnalysisError::Unsupported`] when both branches of a
/// measurement are unreachable.
pub(crate) fn plan_program(
    program: &Program,
    mut mps: Mps,
    noise: &NoiseModel,
    opts: &SolverOptions,
    cache_enabled: bool,
    delta_quantum: f64,
) -> Result<Plan, AnalysisError> {
    if mps.n_qubits() != program.n_qubits() {
        return Err(AnalysisError::WidthMismatch {
            input: mps.n_qubits(),
            program: program.n_qubits(),
        });
    }
    plan_stmts(
        &[program.body()],
        &mut mps,
        noise,
        opts,
        cache_enabled,
        delta_quantum,
    )
}

/// Plans an arbitrary statement slice against an already-evolved MPS,
/// leaving `mps` evolved through the slice (single-path programs only;
/// after a measurement fork the caller's `mps` is the *pre-fork* state).
///
/// This is the entry point the differential analyzer ([`crate::diff`])
/// uses: it plans a shared prefix to capture the MPS at the divergence
/// point, then plans each suffix from a clone of that snapshot.
pub(crate) fn plan_stmts(
    stmts: &[&Stmt],
    mps: &mut Mps,
    noise: &NoiseModel,
    opts: &SolverOptions,
    cache_enabled: bool,
    delta_quantum: f64,
) -> Result<Plan, AnalysisError> {
    let mps_width = mps.max_bond();
    let mut planner = Planner {
        noise,
        opts,
        cache_enabled,
        delta_quantum,
        obligations: Vec::new(),
        final_delta: 0.0,
    };
    let skeleton = planner.walk(stmts.iter().rev().copied().collect(), mps)?;
    Ok(Plan {
        skeleton,
        obligations: planner.obligations,
        final_delta: planner.final_delta,
        mps_width,
    })
}

struct Planner<'a> {
    noise: &'a NoiseModel,
    opts: &'a SolverOptions,
    cache_enabled: bool,
    delta_quantum: f64,
    obligations: Vec<SolveObligation>,
    final_delta: f64,
}

impl Planner<'_> {
    /// Plans `todo` (the statements still to run, next one on top) against
    /// `mps`. Straight-line runs are planned iteratively; only a
    /// measurement recurses, once per branch, with the continuation
    /// captured into both. A run ending in a measurement becomes
    /// `Seq[…, Meas]`, a lone measurement is a bare `Meas`, and any other
    /// run is a flat `Seq` — the shape `tests/fixtures/sequential_oracle.txt`
    /// pins and [`crate::diff`] splices.
    fn walk(&mut self, mut todo: Vec<&Stmt>, mps: &mut Mps) -> Result<Derivation, AnalysisError> {
        let mut children = Vec::new();
        while let Some(stmt) = todo.pop() {
            match stmt {
                Stmt::Skip => children.push(Derivation::Skip),
                Stmt::Seq(ss) => todo.extend(ss.iter().rev()),
                Stmt::Gate(g) => {
                    let qubits: Vec<usize> = g.qubits.iter().map(|q| q.0).collect();
                    // ρ′ first (routing non-adjacent operands adds truncation
                    // that must be inside this gate's δ), then the gate.
                    let (rho_prime, delta) = mps.gate_snapshot(&qubits);
                    self.plan_gate(g, &rho_prime, delta);
                    mps.apply_gate(&g.gate, &qubits);
                    children.push(Derivation::Gate {
                        gate: g.gate.clone(),
                        qubits,
                        rho_prime,
                        delta,
                        epsilon: f64::NAN, // filled by the assemble stage
                    });
                }
                Stmt::IfMeasure { qubit, zero, one } => {
                    let delta_prob = mps.delta().min(1.0);
                    let zero_d = self.branch(mps, qubit.0, false, zero, &todo)?;
                    let one_d = self.branch(mps, qubit.0, true, one, &todo)?;
                    if zero_d.is_none() && one_d.is_none() {
                        return Err(AnalysisError::Unsupported(
                            "both measurement branches unreachable (state numerically degenerate)"
                                .into(),
                        ));
                    }
                    let meas = Derivation::Meas {
                        qubit: qubit.0,
                        delta_prob,
                        zero: zero_d,
                        one: one_d,
                    };
                    if children.is_empty() {
                        return Ok(meas);
                    }
                    children.push(meas);
                    return Ok(Derivation::Seq { children });
                }
            }
        }
        self.final_delta = self.final_delta.max(mps.delta());
        Ok(Derivation::Seq { children })
    }

    /// Plans one measurement branch — `body`, then the continuation `todo`
    /// — from a copy of `mps` collapsed to `outcome`; `None` when that
    /// outcome has zero probability.
    fn branch<'s>(
        &mut self,
        mps: &Mps,
        qubit: usize,
        outcome: bool,
        body: &'s Stmt,
        todo: &[&'s Stmt],
    ) -> Result<Option<Box<Derivation>>, AnalysisError> {
        let mut fork = mps.clone();
        match fork.collapse(qubit, outcome) {
            Ok(_p) => {
                let mut work = todo.to_vec();
                work.push(body);
                Ok(Some(Box::new(self.walk(work, &mut fork)?)))
            }
            Err(MpsError::ZeroProbabilityOutcome { .. }) => Ok(None),
        }
    }

    /// Materializes one gate's solve obligation (the deferred counterpart
    /// of the old inline `gate_epsilon`).
    fn plan_gate(&mut self, g: &gleipnir_circuit::GateApp, rho_prime: &CMat, delta: f64) {
        let noisy = self.noise.noisy_gate(&g.gate, &g.qubits);
        let gate_matrix = g.gate.matrix();
        let cached = if self.cache_enabled {
            quantize(
                &gate_matrix,
                &noisy,
                rho_prime,
                delta,
                self.delta_quantum,
                self.opts,
            )
        } else {
            None
        };
        self.obligations.push(SolveObligation {
            gate_matrix,
            noisy,
            rho_prime: rho_prime.clone(),
            delta,
            cached,
        });
    }
}

/// Sound cache quantization: rounds ρ′ to 1e-8 granularity and δ *up* to a
/// bucket edge. The ρ′ rounding (trace-norm perturbation < 2e-7 for the
/// ≤ 4×4 locals) is folded into δ *before* bucketing, so the certificate
/// is solved at `δ_eff ≥ δ + ‖ρ_q − ρ′‖₁` regardless of how close δ sits
/// to a bucket edge or how small the bucket width is — exactly the
/// headroom the Weaken rule needs.
///
/// Returns `None` when δ is so large relative to the bucket width that the
/// bucket index would overflow (wrapping to bucket 0 would certify the
/// judgment at `δ_eff = 0` — unsound); such obligations bypass the cache
/// and are solved at their exact δ.
fn quantize(
    gate_matrix: &CMat,
    noisy: &Channel,
    rho_prime: &CMat,
    delta: f64,
    delta_quantum: f64,
    opts: &SolverOptions,
) -> Option<CachedJudgment> {
    const RHO_QUANT_SLACK: f64 = 2e-7;
    let q = delta_quantum;
    let ratio = (delta + RHO_QUANT_SLACK) / q;
    if !ratio.is_finite() || ratio >= (1u64 << 52) as f64 {
        return None;
    }
    let bucket = ratio.floor() as u64 + 1;
    let delta_eff = bucket as f64 * q;
    let rho_q = CMat::from_fn(rho_prime.rows(), rho_prime.cols(), |i, j| {
        let z = rho_prime.at(i, j);
        gleipnir_linalg::c64((z.re * 1e8).round() / 1e8, (z.im * 1e8).round() / 1e8)
    });
    let key = engine::key_rho_delta(gate_matrix, noisy.kraus(), &rho_q, bucket, q, opts);
    Some(CachedJudgment {
        rho_q,
        delta_eff,
        key,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gleipnir_circuit::ProgramBuilder;
    use gleipnir_mps::MpsConfig;
    use gleipnir_noise::NoiseModel;

    fn plan(program: &Program, w: usize, cache: bool) -> Plan {
        let mps = Mps::zero_state(program.n_qubits(), MpsConfig::with_width(w));
        plan_program(
            program,
            mps,
            &NoiseModel::uniform_bit_flip(1e-4),
            &SolverOptions::default(),
            cache,
            1e-6,
        )
        .expect("plan succeeds")
    }

    /// Pre-order Gate-node count must equal the obligation count, and the
    /// skeleton's (gate, δ) sequence must match the obligations' —
    /// the invariant the assemble stage stitches by.
    fn gate_deltas_preorder(d: &Derivation, out: &mut Vec<f64>) {
        match d {
            Derivation::Skip => {}
            Derivation::Gate { delta, .. } => out.push(*delta),
            Derivation::Seq { children } => {
                children.iter().for_each(|c| gate_deltas_preorder(c, out))
            }
            Derivation::Meas { zero, one, .. } => {
                if let Some(z) = zero {
                    gate_deltas_preorder(z, out);
                }
                if let Some(o) = one {
                    gate_deltas_preorder(o, out);
                }
            }
        }
    }

    #[test]
    fn obligations_match_skeleton_preorder() {
        let mut b = ProgramBuilder::new(3);
        b.h(0).cnot(0, 1).if_measure(
            0,
            |z| {
                z.x(2);
            },
            |o| {
                o.z(2).h(2);
            },
        );
        let plan = plan(&b.build(), 4, true);
        let mut deltas = Vec::new();
        gate_deltas_preorder(&plan.skeleton, &mut deltas);
        assert_eq!(deltas.len(), plan.obligations.len());
        for (skel_delta, ob) in deltas.iter().zip(&plan.obligations) {
            assert_eq!(*skel_delta, ob.delta);
        }
        assert_eq!(plan.skeleton.gate_rule_count(), plan.obligations.len());
    }

    #[test]
    fn skeleton_epsilons_are_placeholders() {
        let mut b = ProgramBuilder::new(2);
        b.h(0).cnot(0, 1);
        let plan = plan(&b.build(), 4, true);
        // ε placeholders are NaN until assembled; epsilon() on a skeleton
        // is therefore NaN — nobody may read a bound off an unassembled
        // skeleton by accident.
        assert!(plan.skeleton.epsilon().is_nan());
    }

    #[test]
    fn cache_disabled_plans_emit_no_keys() {
        let mut b = ProgramBuilder::new(2);
        b.h(0).cnot(0, 1);
        let p = b.build();
        assert!(plan(&p, 4, false)
            .obligations
            .iter()
            .all(|o| o.cached.is_none()));
        assert!(plan(&p, 4, true)
            .obligations
            .iter()
            .all(|o| o.cached.is_some()));
    }

    #[test]
    fn bucket_overflow_falls_back_to_exact() {
        // Entangling circuit at w = 1 accumulates δ ≫ 1e-300·2^52.
        let mut b = ProgramBuilder::new(3);
        b.h(0).h(1).h(2).rzz(0, 1, 0.9).rzz(1, 2, 0.9).cnot(0, 1);
        let mps = Mps::zero_state(3, MpsConfig::with_width(1));
        let plan = plan_program(
            &b.build(),
            mps,
            &NoiseModel::uniform_bit_flip(1e-4),
            &SolverOptions::default(),
            true,
            1e-300,
        )
        .unwrap();
        assert!(
            plan.obligations.iter().any(|o| o.cached.is_none()),
            "truncated judgments must bypass the cache at an overflowing bucket width"
        );
    }

    #[test]
    fn delta_eff_dominates_exact_delta() {
        let mut b = ProgramBuilder::new(4);
        for q in 0..4 {
            b.h(q);
        }
        for q in 0..3 {
            b.rzz(q, q + 1, 0.8);
        }
        let mps = Mps::zero_state(4, MpsConfig::with_width(2));
        let plan = plan_program(
            &b.build(),
            mps,
            &NoiseModel::uniform_bit_flip(1e-4),
            &SolverOptions::default(),
            true,
            1e-6,
        )
        .unwrap();
        for ob in &plan.obligations {
            if let Some(c) = &ob.cached {
                assert!(
                    c.delta_eff > ob.delta,
                    "Weaken headroom violated: δ_eff {} ≤ δ {}",
                    c.delta_eff,
                    ob.delta
                );
            }
        }
    }
}
