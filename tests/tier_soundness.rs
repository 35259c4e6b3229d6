//! Soundness of the tiered bound engine (public-API level).
//!
//! The tiers may only ever *loosen* a bound, never undercut it:
//!
//! * **Tier 0** (closed form) substitutes an analytic upper bound for the
//!   SDP optimum — so for every gate judgment the closed-form ε must
//!   dominate the SDP-certified ε (the cold solve's answer) up to the
//!   certified slack. Pinned per-gate over the whole determinism workload
//!   suite, and per-channel against both the SDP's certified bound and its
//!   primal estimate (a true lower bound on the optimum).
//! * **Tier 1** (warm start) changes only the interior-point trajectory —
//!   the result carries its own weak-duality certificate. Pinned by
//!   replaying warm-started derivations against fresh cold solves, and by
//!   the determinism requirement that warm-started runs are bit-identical
//!   across pool sizes for a fixed prior engine state.
//!
//! The corrupted-donor degradation tests (a crafted neighbor dual that is
//! garbage must fall back to a cold solve with the bit-exact cold ε) live
//! in `crates/core/src/tiers.rs` — they need to plant certificates in the
//! cache directly.

use gleipnir::core::CertStore;
use gleipnir::prelude::*;
use gleipnir::sdp::SolverProfile;
use gleipnir::workloads::{determinism_suite, ising_chain};

const NOISE_P: f64 = 1e-3;

fn analyze(
    engine: &Engine,
    program: &Program,
    noise: &NoiseModel,
    width: usize,
    quantum: f64,
    tiers: TierPolicy,
) -> StateAwareReport {
    let request = AnalysisRequest::builder(program.clone())
        .noise(noise.clone())
        .method(Method::StateAware { mps_width: width })
        .delta_quantum(quantum)
        .tiering(tiers)
        .build()
        .expect("valid request");
    engine
        .analyze(&request)
        .expect("analysis succeeds")
        .into_state_aware()
        .expect("state-aware report")
}

/// Collects the Gate-node ε's of a derivation in pre-order.
fn gate_epsilons(d: &Derivation, out: &mut Vec<f64>) {
    match d {
        Derivation::Skip => {}
        Derivation::Gate { epsilon, .. } => out.push(*epsilon),
        Derivation::Seq { children } => children.iter().for_each(|c| gate_epsilons(c, out)),
        Derivation::Meas { zero, one, .. } => {
            if let Some(z) = zero {
                gate_epsilons(z, out);
            }
            if let Some(o) = one {
                gate_epsilons(o, out);
            }
        }
    }
}

/// Every Tier 0 answer dominates the SDP-certified optimum, gate by gate,
/// across the whole determinism workload suite (the acceptance criterion).
#[test]
fn closed_form_dominates_sdp_optimum_on_determinism_suite() {
    let noise = NoiseModel::uniform_bit_flip(NOISE_P);
    for (name, program, width) in determinism_suite() {
        // Fresh engines: the exact run is the pre-tiering oracle, the fast
        // run answers every (Pauli) judgment with the Tier 0 closed form.
        let exact = analyze(
            &Engine::new(),
            &program,
            &noise,
            width,
            1e-6,
            TierPolicy::exact(),
        );
        let fast = analyze(
            &Engine::new(),
            &program,
            &noise,
            width,
            1e-6,
            TierPolicy::fast(),
        );

        let gates = fast.derivation().gate_rule_count();
        assert_eq!(
            fast.tier_counts().closed_form,
            gates,
            "{name}: bit-flip noise is Pauli — every judgment must be Tier 0"
        );
        assert_eq!(fast.sdp_solves(), 0, "{name}: no SDP should have run");
        assert_eq!(fast.ip_iterations(), 0, "{name}");

        let mut exact_eps = Vec::new();
        let mut fast_eps = Vec::new();
        gate_epsilons(exact.derivation(), &mut exact_eps);
        gate_epsilons(fast.derivation(), &mut fast_eps);
        assert_eq!(exact_eps.len(), fast_eps.len(), "{name}: tree shape");
        for (i, (e, f)) in exact_eps.iter().zip(&fast_eps).enumerate() {
            // The SDP's certified bound sits within solver tolerance of the
            // true optimum; the closed form must dominate it up to that
            // slack — an undercut beyond it would be unsound.
            assert!(
                f + 1e-7 >= *e,
                "{name} gate {i}: closed form {f:e} undercuts SDP optimum {e:e}"
            );
        }
        // Whole-program: the fast bound dominates the exact one (same
        // slack), and is itself bounded by the trivial per-gate sum.
        assert!(fast.error_bound() + 1e-6 >= exact.error_bound(), "{name}");
        assert!(
            fast.error_bound() <= gates as f64 * NOISE_P + 1e-6,
            "{name}: closed form should be ≈ gate_count · p, got {:e}",
            fast.error_bound()
        );
    }
}

/// Channel-level pin: for Pauli-type channels the closed form matches the
/// SDP to solver tolerance and dominates the SDP's primal estimate (a true
/// lower bound on the optimum).
#[test]
fn closed_form_matches_sdp_per_channel() {
    use gleipnir::core::unconstrained_diamond;
    use gleipnir::noise::classify_residual;
    use gleipnir::sdp::SolverOptions;

    let one_qubit: Vec<(Channel, CMat)> = vec![
        (Channel::bit_flip(1e-3), Gate::H.matrix()),
        (Channel::phase_flip(0.05), Gate::Ry(0.7).matrix()),
        (Channel::depolarizing(0.02), Gate::S.matrix()),
    ];
    let two_qubit: Vec<(Channel, CMat)> = vec![
        (Channel::bit_flip_first_of_two(1e-3), Gate::Cnot.matrix()),
        (Channel::depolarizing2(0.01), Gate::Cnot.matrix()),
    ];
    for (ch, gate) in one_qubit.into_iter().chain(two_qubit) {
        let noisy = ch.after_unitary(&gate);
        let closed = classify_residual(&gate, noisy.kraus())
            .closed_form_diamond_bound()
            .unwrap_or_else(|| panic!("{ch} should classify as Pauli-type"));
        let sdp = unconstrained_diamond(&gate, &noisy, &SolverOptions::default()).unwrap();
        assert!(
            closed >= sdp.estimate - 1e-7,
            "{ch}: closed form {closed:e} below the SDP primal estimate {:e}",
            sdp.estimate
        );
        assert!(
            (closed - sdp.bound).abs() < 1e-5,
            "{ch}: closed form {closed:e} vs SDP bound {:e} — Pauli channels should be tight",
            sdp.bound
        );
    }
}

/// End-to-end Tier 1: an engine whose cache holds certificates from a
/// neighboring δ quantization answers a re-bucketed request with
/// warm-started solves — fewer interior-point iterations, a certified
/// bound that replays, and a value within a bucket's width of the cold
/// answer.
#[test]
fn warm_start_rides_neighboring_certificates() {
    let program = ising_chain(6, 4, 1.0, 1.0, 0.1);
    // Amplitude damping is NOT a Pauli mixture: Tier 0 cannot answer it,
    // so this exercises the SDP tiers.
    let noise = NoiseModel::uniform_amplitude_damping(NOISE_P);

    // Control: the re-bucketed request solved cold (the seed pass's
    // certificates live under different keys, so everything misses).
    let control_engine = Engine::new();
    let seed = analyze(
        &control_engine,
        &program,
        &noise,
        2,
        1e-6,
        TierPolicy::exact(),
    );
    assert!(seed.sdp_solves() > 0);
    let control = analyze(
        &control_engine,
        &program,
        &noise,
        2,
        1.1e-6,
        TierPolicy::exact(),
    );
    assert_eq!(control.tier_counts().warm, 0);
    assert!(control.sdp_solves() > 0);

    // Warm: identical prior state, warm starts allowed.
    let warm_engine = Engine::new();
    let _ = analyze(&warm_engine, &program, &noise, 2, 1e-6, TierPolicy::exact());
    let warm = analyze(
        &warm_engine,
        &program,
        &noise,
        2,
        1.1e-6,
        TierPolicy {
            closed_form: false,
            warm_start: true,
        },
    );
    assert_eq!(
        warm.tier_counts().warm,
        warm.sdp_solves(),
        "every solve should have found a neighboring donor"
    );
    assert!(warm.tier_counts().warm > 0);
    assert!(
        warm.ip_iterations() < control.ip_iterations(),
        "warm start saved no iterations: {} vs {}",
        warm.ip_iterations(),
        control.ip_iterations()
    );
    // The warm bound is its own certificate; it must replay against fresh
    // cold solves and sit within solver slop + one δ bucket of the cold
    // answer.
    warm.replay(&noise, &Default::default(), 1e-6)
        .expect("warm-started derivation must replay");
    assert!(
        (warm.error_bound() - control.error_bound()).abs() < 1e-6,
        "warm {:e} vs cold {:e}",
        warm.error_bound(),
        control.error_bound()
    );
}

/// Determinism under tiering: for a fixed prior engine state, a
/// warm-started analysis is bit-identical across pool sizes (the donor
/// probe is sequential and totally ordered).
#[test]
fn warm_started_analysis_is_pool_size_invariant() {
    let program = ising_chain(5, 3, 1.0, 1.0, 0.1);
    let noise = NoiseModel::uniform_amplitude_damping(NOISE_P);
    let run = |threads: usize| {
        let engine = Engine::with_options(gleipnir::core::EngineOptions {
            solver: Default::default(),
            threads,
        })
        .expect("explicit thread cap never fails");
        let _ = analyze(&engine, &program, &noise, 2, 1e-6, TierPolicy::exact());
        let warm = analyze(&engine, &program, &noise, 2, 1.1e-6, TierPolicy::fast());
        (
            warm.error_bound().to_bits(),
            warm.tier_counts(),
            warm.derivation().pretty(),
        )
    };
    let sequential = run(1);
    let wide = run(4);
    assert_eq!(sequential.0, wide.0, "ε must not depend on pool size");
    assert_eq!(sequential.1, wide.1, "tier decisions must not either");
    assert_eq!(sequential.2, wide.2);
}

/// Tier 0 leaves no trace an exact-policy request could observe: after a
/// fast-policy run on a shared engine, an exact-policy run of the same
/// request still produces the bit-exact cold-engine ε (closed forms are
/// kept out of the cache *and* the in-flight protocol).
#[test]
fn fast_policy_leaves_no_closed_form_trace_for_exact_requests() {
    let program = ising_chain(5, 3, 1.0, 1.0, 0.1);
    let noise = NoiseModel::uniform_bit_flip(NOISE_P);

    let oracle = analyze(
        &Engine::new(),
        &program,
        &noise,
        2,
        1e-6,
        TierPolicy::exact(),
    );

    let engine = Engine::new();
    let fast = analyze(&engine, &program, &noise, 2, 1e-6, TierPolicy::fast());
    assert_eq!(
        fast.tier_counts().closed_form,
        fast.derivation().gate_rule_count()
    );
    assert_eq!(
        engine.cache_stats().entries,
        0,
        "closed forms must not populate the cache"
    );
    let exact = analyze(&engine, &program, &noise, 2, 1e-6, TierPolicy::exact());
    assert_eq!(
        exact.error_bound().to_bits(),
        oracle.error_bound().to_bits(),
        "the exact run after a fast run must match a cold engine bit for bit"
    );
    assert_eq!(exact.sdp_solves(), oracle.sdp_solves());
    assert_eq!(exact.cache_hits(), oracle.cache_hits());
}

/// Certificates carry their producing tier, and the shared cache filters
/// on it: a warm-started solve's ε bits may serve later *fast*-policy
/// requests, but an *exact*-policy request must re-solve cold and land on
/// the bit-exact cold-engine answer — sharing one engine between fast and
/// exact callers can never leak warm bits into an exact report.
#[test]
fn warm_certificates_never_serve_exact_requests() {
    let program = ising_chain(5, 3, 1.0, 1.0, 0.1);
    // Amplitude damping: not Pauli, so the SDP tiers (not Tier 0) answer.
    let noise = NoiseModel::uniform_amplitude_damping(NOISE_P);

    // Oracle: the re-bucketed request solved cold on a fresh engine.
    let oracle_engine = Engine::new();
    let _ = analyze(
        &oracle_engine,
        &program,
        &noise,
        2,
        1e-6,
        TierPolicy::exact(),
    );
    let oracle = analyze(
        &oracle_engine,
        &program,
        &noise,
        2,
        1.1e-6,
        TierPolicy::exact(),
    );

    // Shared engine: seed, then a warm-start pass populates the cache
    // with warm-produced certificates under the re-bucketed keys.
    let engine = Engine::new();
    let _ = analyze(&engine, &program, &noise, 2, 1e-6, TierPolicy::exact());
    let warm = analyze(
        &engine,
        &program,
        &noise,
        2,
        1.1e-6,
        TierPolicy {
            closed_form: false,
            warm_start: true,
        },
    );
    assert!(warm.tier_counts().warm > 0, "warm certificates were cached");

    // The exact request skips the warm entries, re-solves them cold, and
    // matches the cold oracle bit for bit.
    let exact = analyze(&engine, &program, &noise, 2, 1.1e-6, TierPolicy::exact());
    assert_eq!(
        exact.error_bound().to_bits(),
        oracle.error_bound().to_bits(),
        "exact after warm must match the cold oracle ({:e} vs {:e})",
        exact.error_bound(),
        oracle.error_bound()
    );
    assert!(
        exact.sdp_solves() >= warm.tier_counts().warm,
        "every warm-produced entry must be re-solved, not served"
    );

    // The cold re-solves overwrote the warm entries, so a second exact
    // request is served entirely from the (now cold) cache.
    let again = analyze(&engine, &program, &noise, 2, 1.1e-6, TierPolicy::exact());
    assert_eq!(again.sdp_solves(), 0, "cold re-solves are cached");
    assert_eq!(
        again.error_bound().to_bits(),
        oracle.error_bound().to_bits()
    );
}

/// The accounting invariant every policy preserves:
/// `gates = sdp_solves + cache_hits + closed_form`.
#[test]
fn tier_accounting_partitions_the_gates() {
    let program = ising_chain(6, 4, 1.0, 1.0, 0.1);
    for (noise, tiers) in [
        (NoiseModel::uniform_bit_flip(NOISE_P), TierPolicy::fast()),
        (NoiseModel::uniform_bit_flip(NOISE_P), TierPolicy::exact()),
        (
            NoiseModel::uniform_amplitude_damping(NOISE_P),
            TierPolicy::fast(),
        ),
    ] {
        let report = analyze(&Engine::new(), &program, &noise, 2, 1e-6, tiers);
        let gates = report.derivation().gate_rule_count();
        assert_eq!(
            report.sdp_solves() + report.cache_hits() + report.tier_counts().closed_form,
            gates,
            "every gate judgment is exactly one of: solve, hit, closed form"
        );
        // The tier split itself partitions the solves.
        let t = report.tier_counts();
        assert_eq!(t.warm + t.cold, report.sdp_solves());
    }
}

/// The solver's bit-stability contract on Ising-288 (`ising_chain(12, 12)`,
/// w = 8). The structure-exploiting kernels may move wall time, never ε
/// bits, and interior-point iteration counts are a bit-for-bit proxy: one
/// reassociated FLOP anywhere in the loop shifts the trajectory and shows
/// up here as a count change. Five passes:
///
/// * `bitflip_exact` — tiering OFF: every judgment is a cold SDP solve;
/// * `bitflip_fast` — tiering ON: bit flips are a Pauli mixture, so Tier 0
///   answers every judgment and the solver never runs;
/// * `ampdamp_seed` — amplitude damping (no Tier 0) solved cold at δ
///   quantum 1e-6, its certificates persisted to a [`CertStore`];
/// * `ampdamp_rebucket_cold` / `ampdamp_rebucket_warm` — fresh engines
///   loaded from that store and re-analyzed at quantum 1.1e-6 (every
///   content address misses), tiering OFF, then warm starts only: each
///   solve starts from a neighboring donor dual.
#[test]
fn ising288_solver_iteration_counts_are_pinned() {
    const WIDTH: usize = 8;
    let program = ising_chain(12, 12, 1.0, 1.0, 0.1);
    let bitflip = NoiseModel::uniform_bit_flip(1e-4);
    let ampdamp = NoiseModel::uniform_amplitude_damping(1e-4);

    let exact = analyze(
        &Engine::new(),
        &program,
        &bitflip,
        WIDTH,
        1e-6,
        TierPolicy::exact(),
    );
    let fast = analyze(
        &Engine::new(),
        &program,
        &bitflip,
        WIDTH,
        1e-6,
        TierPolicy::fast(),
    );

    let store_dir =
        std::env::temp_dir().join(format!("gleipnir-solver-pins-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let seed_engine = Engine::new();
    let mut store = CertStore::open(&store_dir).expect("store dir");
    let seed = analyze(
        &seed_engine,
        &program,
        &ampdamp,
        WIDTH,
        1e-6,
        TierPolicy::exact(),
    );
    store
        .persist_new(&seed_engine)
        .expect("persist seed certificates");
    let loaded = |label: &str| {
        let engine = Engine::new();
        let stats = CertStore::open(&store_dir)
            .expect("store dir")
            .load_into(&engine)
            .expect("load store");
        assert!(stats.loaded > 0, "{label}: the store must warm the engine");
        engine
    };
    let cold = analyze(
        &loaded("cold"),
        &program,
        &ampdamp,
        WIDTH,
        1.1e-6,
        TierPolicy::exact(),
    );
    let warm = analyze(
        &loaded("warm"),
        &program,
        &ampdamp,
        WIDTH,
        1.1e-6,
        TierPolicy {
            closed_form: false,
            warm_start: true,
        },
    );
    let _ = std::fs::remove_dir_all(&store_dir);

    let passes = [
        ("bitflip_exact", &exact, 2934),
        ("bitflip_fast", &fast, 0),
        ("ampdamp_seed", &seed, 2521),
        ("ampdamp_rebucket_cold", &cold, 2521),
        ("ampdamp_rebucket_warm", &warm, 1907),
    ];
    for (name, report, pinned) in passes {
        assert_eq!(
            report.ip_iterations(),
            pinned,
            "{name}: the solver's floating-point trajectory changed; \
             a kernel edit reassociated arithmetic"
        );
    }

    // The tiers are alive: ≥ 1 Tier 0 / Tier 1 answer, and fewer
    // interior-point iterations with them than without.
    assert!(
        fast.tier_counts().closed_form >= 1,
        "{:?}",
        fast.tier_counts()
    );
    assert!(warm.tier_counts().warm >= 1, "{:?}", warm.tier_counts());
    assert!(fast.ip_iterations() < exact.ip_iterations());
    assert!(warm.ip_iterations() < cold.ip_iterations());

    // Every pass that solved SDPs carries a live per-phase profile whose
    // seven phase walls account for at least half of, and at most, its
    // total; the Tier-0-only pass never enters the solver.
    for (name, report, _) in passes {
        let profile = report.solver_profile();
        if name == "bitflip_fast" {
            assert_eq!(profile, SolverProfile::default(), "{name}");
            continue;
        }
        let phases = profile.phase_ms();
        assert!(
            profile.total_ms > 0.0 && phases > 0.0,
            "{name}: {profile:?}"
        );
        assert!(
            0.5 * profile.total_ms <= phases && phases <= profile.total_ms,
            "{name}: phases sum to {phases} ms of {} ms",
            profile.total_ms
        );
    }
}
