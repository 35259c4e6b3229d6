//! Seeded workload inputs. The benchmark derives every program from the
//! `--seed` it was given; the engine and the server see only the resulting
//! GLQ text.

use gleipnir_circuit::{pretty, Program};
use gleipnir_workloads::{ising_chain, qaoa_maxcut, Graph};

/// SplitMix64: a small, well-mixed generator, so inputs depend on nothing
/// but the seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Bit-flip probability on every gate, in every workload.
pub const BIT_FLIP: f64 = 1e-3;

/// A generated program with the text the system under test receives.
pub struct Input {
    pub name: String,
    pub program: Program,
    pub glq: String,
}

impl Input {
    fn new(name: String, program: Program) -> Input {
        let glq = pretty(&program);
        Input { name, program, glq }
    }
}

/// Transverse-field Ising chain, 12 sites × 12 Trotter layers (288 gates):
/// coupling `J`, field `h`, and step `dt` drawn within ±2 % of the
/// standard quench (J = h = 1, dt = 0.1). Which judgments share a cache
/// key shifts with any change of angle, so the SDP solve count varies by
/// about ±5 % between seeds.
pub fn ising288(seed: u64) -> Input {
    let mut rng = Rng::new(seed ^ 0x1517_0000);
    let j = rng.uniform(0.98, 1.02);
    let h = rng.uniform(0.98, 1.02);
    let dt = rng.uniform(0.098, 0.102);
    Input::new(
        format!("ising12x12_J{j:.4}_h{h:.4}_dt{dt:.4}"),
        ising_chain(12, 12, j, h, dt),
    )
}

/// A Table-2-shape QAOA100: one QAOA layer on a random 100-vertex graph
/// with 477 edges (677 gates), angles near the Table 2 representative
/// (γ, β) = (0.35, 0.62).
pub fn qaoa100(seed: u64) -> Input {
    let mut rng = Rng::new(seed ^ 0x0A0A_0100);
    let graph = Graph::erdos_renyi_m(100, 477, rng.next_u64());
    let gamma = rng.uniform(0.30, 0.40);
    let beta = rng.uniform(0.55, 0.70);
    Input::new(
        format!("qaoa100_g{gamma:.4}_b{beta:.4}"),
        qaoa_maxcut(&graph, &[gamma], &[beta]),
    )
}

/// Qubit counts of the serving pool: two programs each of 6, 7 and 8
/// qubits, so every seed serves the same mix of sizes.
pub const POOL_QUBITS: [usize; 6] = [6, 6, 7, 7, 8, 8];

/// The serving pool: distinct one-layer QAOA programs on random graphs
/// with `3n/2` edges and seeded angles.
pub fn serving_pool(seed: u64) -> Vec<Input> {
    let mut rng = Rng::new(seed ^ 0x5E4E_0000);
    let mut pool: Vec<Input> = Vec::with_capacity(POOL_QUBITS.len());
    for &n in &POOL_QUBITS {
        loop {
            let graph = Graph::erdos_renyi_m(n, 3 * n / 2, rng.next_u64());
            let gamma = rng.uniform(0.2, 0.6);
            let beta = rng.uniform(0.4, 0.8);
            let input = Input::new(
                format!("qaoa{n}_{}", pool.len()),
                qaoa_maxcut(&graph, &[gamma], &[beta]),
            );
            if pool.iter().all(|p| p.glq != input.glq) {
                pool.push(input);
                break;
            }
        }
    }
    pool
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_depend_only_on_the_seed() {
        assert_eq!(ising288(7).glq, ising288(7).glq);
        assert_ne!(ising288(7).glq, ising288(8).glq);
        assert_eq!(qaoa100(7).glq, qaoa100(7).glq);
        let (a, b) = (serving_pool(3), serving_pool(3));
        assert!(a.iter().zip(&b).all(|(x, y)| x.glq == y.glq));
    }

    #[test]
    fn shapes_match_the_workload_definitions() {
        assert_eq!(ising288(1).program.gate_count(), 288);
        let q = qaoa100(1).program;
        assert_eq!((q.n_qubits(), q.gate_count()), (100, 677));
        let pool = serving_pool(1);
        assert_eq!(pool.len(), POOL_QUBITS.len());
        for (p, &n) in pool.iter().zip(&POOL_QUBITS) {
            assert_eq!(p.program.n_qubits(), n);
            assert_eq!(
                gleipnir_circuit::parse(&p.glq).expect("GLQ parses"),
                p.program
            );
        }
    }
}
