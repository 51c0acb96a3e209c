"""Show the first-order cancellation directly by shrinking the gate interval.

Noise acts for an interval tau between consecutive gates, so the total
noise strength scales with tau.  Halving tau repeatedly and fitting
log(error) against log(tau) gives the leading order of each estimate:
the raw noisy energy degrades linearly in tau (slope ~ 1), while the
corrected estimate only picks up second-order terms (slope ~ 2).
"""

import qemsim as q
from qemsim.experiments import scaling_ladder

hamiltonian = q.parse_pauli_sum(q.bundled_text("h2"))
spec, n_qubits = q.parse_ansatz_file(q.bundled_text("h2_uccsd"))
ansatz = q.build_ansatz(spec, n_qubits)

result = q.solve_vqe(
    q.VqeProblem(hamiltonian, ansatz), q.OptimizerSettings(max_evals=2000, seed=3)
)
circuit = q.bind(ansatz, result.theta_opt)
model = q.build_template_model("gamma1_gamma2", n_qubits, 3e-4)

rows, slope_raw, slope_corr = scaling_ladder(
    circuit, model, hamiltonian, n_points=4
)
print(f"{'tau':>8} {'raw error':>12} {'corrected':>12}")
for row in rows:
    print(f"{row['tau']:8.3f} {row['uncorrected_error']:12.3e} "
          f"{row['corrected_error']:12.3e}")
print(f"\nfitted slopes: uncorrected {slope_raw:.3f}, corrected {slope_corr:.3f}")
print("(1 = linear in tau, 2 = quadratic; the first-order terms cancel)")
