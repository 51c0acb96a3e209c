import math
import pickle

import numpy as np
import pytest

import qemsim as q
from qemsim import noise
from qemsim.circuit import Param
from qemsim.noise import build_template_model
from qemsim.vqe import energy_objective, initial_theta, nelder_mead


def rx_z_problem():
    """One Rx on one qubit against H = Z0: E(theta) = cos(theta)."""
    circuit = q.Circuit(1, (q.Gate("Rx", (0,), Param(0)),), 1)
    ham = q.PauliSum([(1.0, q.PauliString({0: "Z"}))], 1)
    return q.VqeProblem(ham, circuit)


class TestEnergyObjective:
    @pytest.mark.parametrize(
        "theta,want", [(0.0, 1.0), (math.pi, -1.0), (math.pi / 2, 0.0)]
    )
    def test_rx_against_z(self, theta, want):
        assert energy_objective(rx_z_problem(), [theta]) == pytest.approx(
            want, abs=1e-10
        )

    def test_noise_shifts_energy(self):
        circuit = q.Circuit(1, (q.Gate("X", (0,)), q.Gate("X", (0,))), 0)
        ham = q.PauliSum([(1.0, q.PauliString({0: "Z"}))], 1)
        gamma = 0.2
        noisy = q.VqeProblem(
            ham, circuit, build_template_model("gamma1", 1, gamma)
        )
        # X, one decay interval, X: <Z> = 2 exp(-gamma tau) - 1
        want = 2 * math.exp(-gamma) - 1
        assert energy_objective(noisy, []) == pytest.approx(want, abs=1e-9)

    def test_noisy_objective_matches_a_fresh_run(self, h2_hamiltonian, h2_uccsd_circuit):
        model = build_template_model("gamma1_gamma2", 4, 1e-3)
        problem = q.VqeProblem(h2_hamiltonian, h2_uccsd_circuit, model)
        for seed in range(3):
            theta = np.random.default_rng(seed).uniform(-3, 3, h2_uccsd_circuit.n_params)
            rho = q.run_noisy_circuit(
                q.new_statevector(4), q.bind(h2_uccsd_circuit, theta), model
            )
            want = q.expectation(rho, h2_hamiltonian)
            assert abs(energy_objective(problem, theta) - want) < 1e-12

    def test_pickled_problem_leaves_its_propagator_behind(self):
        circuit = q.Circuit(1, (q.Gate("Rx", (0,), Param(0)), q.Gate("X", (0,))), 1)
        ham = q.PauliSum([(1.0, q.PauliString({0: "Z"}))], 1)
        problem = q.VqeProblem(ham, circuit, build_template_model("gamma1", 1, 0.2))
        energy = energy_objective(problem, [0.3])
        assert "_intervals" in vars(problem)
        copy = pickle.loads(pickle.dumps(problem))
        assert "_intervals" not in vars(copy)
        assert copy == problem
        assert energy_objective(copy, [0.3]) == energy

    def test_qubit_mismatch_rejected(self):
        circuit = q.Circuit(2, (q.Gate("H", (0,)),), 0)
        ham = q.PauliSum([(1.0, q.PauliString({0: "Z"}))], 1)
        with pytest.raises(ValueError):
            q.VqeProblem(ham, circuit)


class TestNelderMead:
    def test_quadratic_bowl(self):
        target = np.array([0.3, -1.2, 0.7, 2.0])

        def f(x):
            return float(np.sum((x - target) ** 2))

        res = nelder_mead(f, np.zeros(4), q.OptimizerSettings(max_evals=3000))
        assert res.converged
        assert np.max(np.abs(res.theta_opt - target)) < 1e-4
        assert res.energy < 1e-8

    def test_one_parameter_cosine(self):
        res = nelder_mead(
            lambda x: math.cos(x[0]),
            np.array([2.0]),
            q.OptimizerSettings(max_evals=500),
        )
        assert res.energy == pytest.approx(-1.0, abs=1e-10)
        assert abs(res.theta_opt[0] - math.pi) < 1e-4

    def test_budget_too_small_returns_start(self):
        res = nelder_mead(
            lambda x: float(np.sum(x**2)),
            np.array([1.0, 2.0]),
            q.OptimizerSettings(max_evals=2),
        )
        assert not res.converged
        assert np.array_equal(res.theta_opt, [1.0, 2.0])
        assert res.evals <= 2

    def test_budget_respected(self):
        res = nelder_mead(
            lambda x: float(np.sum(x**2)),
            np.full(3, 5.0),
            q.OptimizerSettings(max_evals=40),
        )
        assert res.evals <= 40

    def test_zero_parameters(self):
        res = nelder_mead(lambda x: 4.2, np.zeros(0), q.OptimizerSettings())
        assert res.converged
        assert res.energy == 4.2
        assert res.evals == 1

    def test_history_strictly_improves(self):
        res = nelder_mead(
            lambda x: float(np.sum((x - 1.0) ** 2)),
            np.zeros(3),
            q.OptimizerSettings(max_evals=200),
        )
        energies = [e for _, e in res.history]
        assert all(b < a for a, b in zip(energies, energies[1:]))
        indices = [i for i, _ in res.history]
        assert indices == sorted(indices)
        assert res.history[-1][1] == res.energy

    def test_non_finite_objective_aborts(self):
        with pytest.raises(ValueError):
            nelder_mead(
                lambda x: float("nan"), np.zeros(2), q.OptimizerSettings()
            )

    def test_deterministic(self):
        def f(x):
            return float(np.sum(np.cos(x)) + 0.1 * np.sum(x**2))

        s = q.OptimizerSettings(max_evals=300)
        r1 = nelder_mead(f, np.array([0.5, -0.5]), s)
        r2 = nelder_mead(f, np.array([0.5, -0.5]), s)
        assert np.array_equal(r1.theta_opt, r2.theta_opt)
        assert r1.energy == r2.energy and r1.evals == r2.evals


class TestOptimizerSettings:
    @pytest.mark.parametrize("step", [0.0, -0.1, float("nan"), float("inf")])
    def test_step_that_cannot_move_the_simplex_is_refused(self, step):
        with pytest.raises(ValueError, match=f"initial_step must be a finite real > 0, got {step}"):
            q.OptimizerSettings(initial_step=step)

    @pytest.mark.parametrize("key", ["f_tol", "x_tol"])
    @pytest.mark.parametrize("value", [0.0, -1e-8, float("nan")])
    def test_tolerance_that_is_not_positive_is_refused(self, key, value):
        with pytest.raises(ValueError, match=f"{key} must be a finite real > 0, got {value}"):
            q.OptimizerSettings(**{key: value})


class TestInitialTheta:
    def test_shape_and_bounds(self):
        th = initial_theta(20, 7)
        assert th.shape == (20,)
        assert np.all(np.abs(th) <= 0.01)

    def test_seed_determinism(self):
        assert np.array_equal(initial_theta(5, 3), initial_theta(5, 3))
        assert not np.array_equal(initial_theta(5, 3), initial_theta(5, 4))


class TestSolveVqe:
    def test_single_rotation_reaches_minimum(self):
        res = q.solve_vqe(rx_z_problem(), q.OptimizerSettings(max_evals=400))
        assert res.converged
        assert res.energy == pytest.approx(-1.0, abs=1e-8)

    def test_h2_reaches_independent_ground_energy(
        self, h2_vqe_result, h2_ground_energy
    ):
        assert h2_vqe_result.converged
        assert abs(h2_vqe_result.energy - h2_ground_energy) < 1.6e-3

    def test_h2_variational_floor(self, h2_vqe_result, h2_ground_energy):
        assert h2_vqe_result.energy >= h2_ground_energy - 1e-9
        for _, e in h2_vqe_result.history:
            assert e >= h2_ground_energy - 1e-9

    def test_default_optimization_ignores_noise(self):
        noisy = q.VqeProblem(
            rx_z_problem().hamiltonian,
            rx_z_problem().ansatz,
            build_template_model("gamma1", 1, 0.5),
        )
        clean = q.solve_vqe(rx_z_problem(), q.OptimizerSettings(max_evals=300))
        default = q.solve_vqe(noisy, q.OptimizerSettings(max_evals=300))
        assert np.array_equal(default.theta_opt, clean.theta_opt)

    def test_optimize_with_noise_changes_reported_energy(self):
        noisy = q.VqeProblem(
            rx_z_problem().hamiltonian,
            rx_z_problem().ansatz,
            build_template_model("gamma1", 1, 0.5),
        )
        res = q.solve_vqe(
            noisy, q.OptimizerSettings(max_evals=300), optimize_with_noise=True
        )
        # a single gate sees no evolution interval, so the model is inert here
        assert res.energy == pytest.approx(-1.0, abs=1e-8)

    def test_noisy_optimization_builds_one_propagator(
        self, h2_hamiltonian, h2_uccsd_circuit, monkeypatch
    ):
        builds = []
        propagator = noise.IntervalPropagator

        class Counted(propagator):
            def __init__(self, *args, **kwargs):
                builds.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(noise, "IntervalPropagator", Counted)
        model = build_template_model("gamma1_gamma2", 4, 1e-3)
        problem = q.VqeProblem(h2_hamiltonian, h2_uccsd_circuit, model)
        res = q.solve_vqe(
            problem, q.OptimizerSettings(max_evals=20), optimize_with_noise=True
        )
        assert res.evals >= 20
        assert len(builds) == 1
        assert builds[0][0] == [model]
        # a second problem, even an equal one, has its own
        energy_objective(q.VqeProblem(h2_hamiltonian, h2_uccsd_circuit, model), res.theta_opt)
        assert len(builds) == 2

    def test_noisy_optimization_on_real_circuit(self, h2_hamiltonian, h2_uccsd_circuit):
        model = build_template_model("gamma1_gamma2", 4, 1e-4)
        problem = q.VqeProblem(h2_hamiltonian, h2_uccsd_circuit, model)
        res = q.solve_vqe(
            problem, q.OptimizerSettings(max_evals=250, seed=1), optimize_with_noise=True
        )
        # noisy-optimal theta should still give a sensible bound-state energy
        assert res.energy < -1.0
