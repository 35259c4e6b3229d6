//! Adaptive width selection — the paper's §1 promise operationalized:
//! "one may adjust the approximation precision by varying the size of the
//! MPS such that tighter error bounds can be computed using greater
//! computational resources".
//!
//! [`Method::Adaptive`](crate::Method::Adaptive) doubles the MPS width
//! until the bound's relative improvement drops below a threshold (the
//! "marginal returns beyond a certain size" of Fig. 14) or a width cap is
//! hit, returning the tightest report together with the trajectory.
//!
//! Every width runs against the owning [`Engine`](crate::Engine)'s shared
//! SDP cache, so certificates paid for at width `w` are reused at `2w` —
//! early-circuit judgments (where the narrow MPS is still exact) are
//! identical across widths and hit the cache immediately.
//!
//! The sweep rides the plan/solve/assemble pipeline and reuses its stage
//! split across widths: while width `w`'s SDP obligations solve on the
//! engine's worker pool, the calling thread already *plans* width `2w`
//! (the cheap sequential MPS pass), so the next width's obligations are
//! ready the moment the stopping rule says "continue" — and when width `w`
//! is saturated (δ ≈ 0, every wider plan would be identical), no wider
//! plan is computed at all. The speculative plan is discarded unread if
//! the sweep stops, so error behavior and the per-width reports match the
//! unpipelined sweep exactly.

use crate::engine::EngineHandle;
use crate::logic::{assemble_report, StateAwareReport};
use crate::plan::{plan_program, Plan};
use crate::request::AnalysisRequest;
use crate::solve::spawn_solve;
use crate::AnalysisError;
use std::time::{Duration, Instant};

/// Configuration for [`Method::Adaptive`](crate::Method::Adaptive).
#[derive(Clone, Debug)]
pub struct AdaptiveConfig {
    /// Starting MPS width (default 2).
    pub start_width: usize,
    /// Hard width cap (default 128, the paper's largest size).
    pub max_width: usize,
    /// Stop when the bound improves by less than this relative amount per
    /// doubling (default 0.02 = 2%).
    pub min_relative_improvement: f64,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            start_width: 2,
            max_width: 128,
            min_relative_improvement: 0.02,
        }
    }
}

impl AdaptiveConfig {
    /// Checks the width range and improvement threshold.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::InvalidConfig`] on a zero start width, an inverted
    /// width range, or a non-finite improvement threshold.
    pub fn validate(&self) -> Result<(), AnalysisError> {
        if self.start_width < 1 {
            return Err(AnalysisError::InvalidConfig(
                "adaptive start width must be positive".into(),
            ));
        }
        if self.max_width < self.start_width {
            return Err(AnalysisError::InvalidConfig(format!(
                "adaptive width cap {} is below start width {}",
                self.max_width, self.start_width
            )));
        }
        if !self.min_relative_improvement.is_finite() {
            return Err(AnalysisError::InvalidConfig(
                "adaptive improvement threshold must be finite".into(),
            ));
        }
        Ok(())
    }
}

/// One step of the adaptive trajectory.
#[derive(Clone, Debug)]
pub struct AdaptiveStep {
    /// MPS width used.
    pub width: usize,
    /// The certified bound at this width.
    pub bound: f64,
    /// The MPS truncation error at this width.
    pub tn_delta: f64,
    /// SDPs actually solved at this width.
    pub sdp_solves: usize,
    /// Gate judgments answered from the engine's shared cache at this
    /// width (nonzero from the second width on: certificates cross widths).
    pub cache_hits: usize,
    /// Of `cache_hits`, judgments deduplicated against an in-flight SDP
    /// solve rather than a finished certificate.
    pub inflight_dedup: usize,
    /// How the bound engine's tiers answered this width's judgments
    /// (under [`crate::TierPolicy::fast`], later widths warm-start from
    /// the earlier widths' certificates wherever δ drifted a bucket).
    pub tier_counts: crate::TierCounts,
    /// Interior-point iterations spent at this width.
    pub ip_iterations: usize,
    /// Aggregated per-phase solver timings for this width's solves.
    pub solver_profile: gleipnir_sdp::SolverProfile,
}

/// The adaptive analysis outcome.
#[derive(Clone, Debug)]
pub struct AdaptiveReport {
    /// The report at the final (best) width.
    pub report: StateAwareReport,
    /// The width the search settled on.
    pub width: usize,
    /// The bound at each width tried, in order.
    pub trajectory: Vec<AdaptiveStep>,
    /// Wall-clock time of the whole search.
    pub elapsed: std::time::Duration,
}

/// Widths whose plan leaves δ below this are *saturated*: the MPS never
/// truncated, every wider plan is identical, so the sweep stops (and the
/// plan-ahead pass skips planning wider widths entirely).
const SATURATION_DELTA: f64 = 1e-12;

/// Doubles the MPS width until the bound stops improving meaningfully.
///
/// Because every width yields a *sound* bound, the minimum over the
/// trajectory is sound too; the returned report is the one achieving it.
///
/// Pipelined: each width's SDP obligations are dispatched to the pool,
/// and the next width is planned on the calling thread *while they
/// solve* (see the module docs). Solve stages of successive widths never
/// overlap, so width `2w` sees exactly the certificates width `w` paid
/// for — the same cache state as a fully sequential sweep.
pub(crate) fn run_adaptive(
    h: &EngineHandle,
    request: &AnalysisRequest,
    config: &AdaptiveConfig,
) -> Result<AdaptiveReport, AnalysisError> {
    config.validate()?;
    let start = Instant::now();
    let opts = h.resolve_options(request);

    let make_plan = |width: usize| -> Result<(Plan, Duration), AnalysisError> {
        let t0 = Instant::now();
        let mps = request.input().build_mps(width)?;
        let plan = plan_program(
            request.program(),
            mps,
            request.noise(),
            &opts,
            request.cache_enabled(),
            request.delta_quantum(),
        )?;
        Ok((plan, t0.elapsed()))
    };

    let mut width = config.start_width;
    let mut best: Option<(usize, StateAwareReport)> = None;
    let mut trajectory = Vec::new();
    let mut planned = make_plan(width)?;

    loop {
        let (plan, plan_elapsed) = planned;
        let Plan {
            skeleton,
            obligations,
            final_delta,
            mps_width,
        } = plan;
        let saturated = final_delta < SATURATION_DELTA;
        let pending = spawn_solve(h, obligations, opts, request.tier_policy());
        // Plan-ahead overlap: while this width's SDPs solve on the pool,
        // speculatively plan the next width (unless this one is already
        // saturated or capped — then every wider plan would be identical
        // or unused). A planning error is deferred: it only surfaces if
        // the stopping rule actually asks for the wider width, so the
        // speculation cannot change observable behavior.
        let next = if !saturated && width < config.max_width {
            let next_width = (width * 2).min(config.max_width);
            Some((next_width, make_plan(next_width)))
        } else {
            None
        };
        let solved = pending.join(h)?;
        let report = assemble_report(skeleton, final_delta, mps_width, solved, plan_elapsed);
        trajectory.push(AdaptiveStep {
            width,
            bound: report.error_bound(),
            tn_delta: report.tn_delta(),
            sdp_solves: report.sdp_solves(),
            cache_hits: report.cache_hits(),
            inflight_dedup: report.inflight_dedup(),
            tier_counts: report.tier_counts(),
            ip_iterations: report.ip_iterations(),
            solver_profile: report.solver_profile(),
        });
        let improved_enough = match &best {
            None => true,
            Some((_, prev)) => {
                let prev_bound = prev.error_bound();
                prev_bound > 0.0
                    && (prev_bound - report.error_bound()) / prev_bound
                        >= config.min_relative_improvement
            }
        };
        let is_better = best
            .as_ref()
            .map_or(true, |(_, prev)| report.error_bound() < prev.error_bound());
        if is_better {
            best = Some((width, report));
        }
        // Stop when saturated (δ already ~0 means wider cannot help), the
        // improvement stalled, or the cap is reached.
        if saturated || !improved_enough || width >= config.max_width {
            break;
        }
        let (next_width, next_plan) = next.expect("continuing sweep always plans ahead");
        width = next_width;
        planned = next_plan?;
    }

    let (width, report) = best.expect("at least one analysis ran");
    Ok(AdaptiveReport {
        report,
        width,
        trajectory,
        elapsed: start.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AnalysisRequest, Engine, Method};
    use gleipnir_circuit::{Program, ProgramBuilder};
    use gleipnir_noise::NoiseModel;

    fn adaptive(
        program: &Program,
        noise: &NoiseModel,
        cfg: AdaptiveConfig,
    ) -> Result<AdaptiveReport, AnalysisError> {
        let engine = Engine::new();
        let request = AnalysisRequest::builder(program.clone())
            .noise(noise.clone())
            .method(Method::Adaptive(cfg))
            .build()?;
        Ok(engine
            .analyze(&request)?
            .into_adaptive()
            .expect("adaptive report"))
    }

    fn entangling_program(n: usize) -> Program {
        let mut b = ProgramBuilder::new(n);
        for q in 0..n {
            b.h(q);
        }
        for layer in 0..3 {
            for q in 0..n - 1 {
                b.rzz(q, q + 1, 0.9 + 0.1 * layer as f64);
            }
            for q in 0..n {
                b.rx(q, 0.7);
            }
        }
        b.build()
    }

    #[test]
    fn saturates_early_on_product_circuits() {
        let mut b = ProgramBuilder::new(4);
        b.h(0).h(1).h(2).h(3);
        let out = adaptive(
            &b.build(),
            &NoiseModel::uniform_bit_flip(1e-4),
            AdaptiveConfig::default(),
        )
        .unwrap();
        assert_eq!(out.trajectory.len(), 1, "product state is exact at w = 2");
        assert_eq!(out.width, 2);
    }

    #[test]
    fn grows_width_on_entangling_circuits() {
        let program = entangling_program(6);
        let cfg = AdaptiveConfig {
            start_width: 1,
            max_width: 16,
            min_relative_improvement: 0.001,
        };
        let out = adaptive(&program, &NoiseModel::uniform_bit_flip(1e-3), cfg).unwrap();
        assert!(out.trajectory.len() > 1, "should have tried several widths");
        assert!(out.width > 1);
        // The selected bound is the minimum of the trajectory.
        let min = out
            .trajectory
            .iter()
            .map(|s| s.bound)
            .fold(f64::INFINITY, f64::min);
        assert!((out.report.error_bound() - min).abs() < 1e-12);
    }

    #[test]
    fn respects_width_cap() {
        let program = entangling_program(6);
        let cfg = AdaptiveConfig {
            start_width: 1,
            max_width: 4,
            min_relative_improvement: 0.0,
        };
        let out = adaptive(&program, &NoiseModel::uniform_bit_flip(1e-3), cfg).unwrap();
        assert!(out.trajectory.iter().all(|s| s.width <= 4));
    }

    #[test]
    fn bad_config_is_an_error_not_a_panic() {
        let program = entangling_program(4);
        let cfg = AdaptiveConfig {
            start_width: 8,
            max_width: 4,
            min_relative_improvement: 0.0,
        };
        let err = adaptive(&program, &NoiseModel::Noiseless, cfg).unwrap_err();
        assert!(matches!(err, AnalysisError::InvalidConfig(_)), "{err}");

        let cfg = AdaptiveConfig {
            start_width: 0,
            max_width: 4,
            min_relative_improvement: 0.0,
        };
        let err = adaptive(&program, &NoiseModel::Noiseless, cfg).unwrap_err();
        assert!(matches!(err, AnalysisError::InvalidConfig(_)), "{err}");
    }
}
