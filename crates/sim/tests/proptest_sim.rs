//! Property-based tests for the simulator.

use circuit::{Circuit, Operation};
use gates::standard;
use proptest::prelude::*;
use qmath::RngSeed;
use sim::{ExecutionEngine, SimJob, StateVector};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn single_qubit_gates_preserve_norm(theta in -3.0f64..3.0, q in 0usize..3) {
        let mut s = StateVector::zero_state(3);
        s.apply_one_qubit(&standard::h(), 0);
        s.apply_one_qubit(&standard::h(), 1);
        s.apply_one_qubit(&standard::rx(theta), q);
        prop_assert!((s.norm_sqr() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn two_qubit_gates_preserve_norm(theta in -3.0f64..3.0, phi in -3.0f64..3.0) {
        let mut s = StateVector::zero_state(3);
        s.apply_one_qubit(&standard::h(), 0);
        s.apply_two_qubit(&gates::fsim::fsim(theta.abs(), phi.abs()), 0, 2);
        prop_assert!((s.norm_sqr() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn probabilities_sum_to_one(a in -3.0f64..3.0, b in -3.0f64..3.0) {
        let mut c = Circuit::new(3);
        c.push(Operation::rx(0, a));
        c.push(Operation::zz(0, 1, b));
        c.push(Operation::xx_plus_yy(1, 2, a));
        let p = StateVector::evolve(&c).probabilities();
        let total: f64 = p.iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        prop_assert!(p.iter().all(|&x| x >= -1e-12));
    }

    #[test]
    fn sampling_total_matches_shots(shots in 1usize..200, seed in 0u64..1000) {
        let mut c = Circuit::new(2);
        c.push(Operation::h(0));
        c.push(Operation::cnot(0, 1));
        c.measure_all();
        let counts = ExecutionEngine::new()
            .run_job(&SimJob::ideal(c, shots, RngSeed(seed)))
            .counts;
        prop_assert_eq!(counts.total(), shots);
    }

    #[test]
    fn phase_gates_do_not_change_measurement_distribution(phi in -3.0f64..3.0) {
        let mut with_phase = Circuit::new(2);
        with_phase.push(Operation::h(0));
        with_phase.push(Operation::rz(0, phi));
        with_phase.push(Operation::cphase(0, 1, phi));
        let mut without = Circuit::new(2);
        without.push(Operation::h(0));
        let a = StateVector::evolve(&with_phase).probabilities();
        let b = StateVector::evolve(&without).probabilities();
        for (x, y) in a.iter().zip(b.iter()) {
            prop_assert!((x - y).abs() < 1e-9);
        }
    }
}
