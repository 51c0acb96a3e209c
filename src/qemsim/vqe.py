"""Variational loop: E(theta) = <H> in the ansatz state, minimized by Nelder-Mead.

Expectations are exact (no measurement-shot sampling): <psi|H|psi> of a
state vector for a noiseless objective, Tr(rho H) of the density matrix
for a noisy one.  By default the parameters are optimized with the noise
model emptied, so on the state-vector path, and reused at every noise
rate; optimizing under the full model is available behind a flag.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import noise
from .circuit import Circuit, bind
from .noise import NoiseModel, PropagatorConfig
from .paulis import PauliSum, expectation
from .state import new_statevector


@dataclass(frozen=True)
class VqeProblem:
    hamiltonian: PauliSum
    ansatz: Circuit
    noise: NoiseModel = NoiseModel()
    propagator: PropagatorConfig = PropagatorConfig()

    def __post_init__(self):
        if self.hamiltonian.n_qubits != self.ansatz.n_qubits:
            raise ValueError(
                f"hamiltonian on {self.hamiltonian.n_qubits} qubits, "
                f"ansatz on {self.ansatz.n_qubits}"
            )
        self.noise.validate_for(self.ansatz.n_qubits)

    @cached_property
    def _intervals(self) -> noise.IntervalPropagator:
        """The one propagator of every evaluation of this problem, built at
        the first."""
        n = self.ansatz.n_qubits
        return noise.IntervalPropagator([self.noise], n, self.propagator)

    def __getstate__(self):
        # A pickled or copied problem builds its own propagator when used.
        state = dict(self.__dict__)
        state.pop("_intervals", None)
        return state


@dataclass(frozen=True)
class OptimizerSettings:
    max_evals: int = 4000
    f_tol: float = 1e-10
    x_tol: float = 1e-8
    initial_step: float = 0.1
    seed: int = 0

    def __post_init__(self):
        # each check is negated, so NaN fails it too
        if not self.f_tol > 0 or not self.x_tol > 0:
            raise ValueError("tolerances must be positive")
        if not 0 < self.initial_step < np.inf:
            raise ValueError(
                f"initial_step must be finite and positive, got {self.initial_step}"
            )
        if self.max_evals < 1:
            raise ValueError("max_evals must be >= 1")


@dataclass
class VqeResult:
    theta_opt: np.ndarray
    energy: float
    evals: int
    converged: bool
    history: list[tuple[int, float]] = field(default_factory=list)


def energy_objective(problem: VqeProblem, theta) -> float:
    """Run the circuit from |0...0> and take the energy of the final state.

    With no nonzero-rate noise term the run stays pure: the circuit acts
    on a 2^n state vector and the energy is <psi|H|psi>.  Otherwise it is
    Tr(rho H) of the noisy density matrix.  Evolution is trace (norm)
    preserving, so the variational denominator is identically 1 and never
    computed.  The run is that of `run_noisy_circuit`, with the problem's
    one propagator.
    """
    bound = bind(problem.ansatz, theta)
    state0 = new_statevector(problem.ansatz.n_qubits)
    (state,) = problem._intervals.run(state0, bound)
    return expectation(state, problem.hamiltonian)


def nelder_mead(objective, theta0, settings: OptimizerSettings) -> VqeResult:
    """Standard simplex search: reflect 1, expand 2, contract 1/2, shrink 1/2.

    Terminates when the simplex f-spread falls below f_tol, the x-spread
    below x_tol, or the evaluation budget runs out; returns the best
    vertex.  History records (eval index, energy) whenever the best-so-far
    improves.
    """
    theta0 = np.asarray(theta0, dtype=float)
    n = theta0.size
    evals = 0
    history: list[tuple[int, float]] = []
    best = [np.inf]

    def f(x):
        nonlocal evals
        evals += 1
        val = float(objective(x))
        if not np.isfinite(val):
            raise ValueError(
                f"objective returned non-finite value {val} at {x.tolist()}"
            )
        if val < best[0]:
            best[0] = val
            history.append((evals, val))
        return val

    f0 = f(theta0)
    if n == 0 or settings.max_evals <= n + 1:
        return VqeResult(theta0.copy(), f0, evals, n == 0, history)

    verts = [theta0.copy()]
    for i in range(n):
        v = theta0.copy()
        v[i] += settings.initial_step
        verts.append(v)
    fvals = [f0] + [f(v) for v in verts[1:]]

    converged = False
    while evals < settings.max_evals:
        order = np.argsort(fvals, kind="stable")
        verts = [verts[i] for i in order]
        fvals = [fvals[i] for i in order]
        f_spread = fvals[-1] - fvals[0]
        x_spread = max(np.max(np.abs(v - verts[0])) for v in verts[1:])
        if f_spread < settings.f_tol or x_spread < settings.x_tol:
            converged = True
            break

        centroid = np.mean(verts[:-1], axis=0)
        worst = verts[-1]
        reflected = centroid + (centroid - worst)
        fr = f(reflected)
        if fr < fvals[0]:
            expanded = centroid + 2.0 * (centroid - worst)
            fe = f(expanded)
            if fe < fr:
                verts[-1], fvals[-1] = expanded, fe
            else:
                verts[-1], fvals[-1] = reflected, fr
        elif fr < fvals[-2]:
            verts[-1], fvals[-1] = reflected, fr
        else:
            contracted = centroid + 0.5 * (worst - centroid)
            fc = f(contracted)
            if fc < fvals[-1]:
                verts[-1], fvals[-1] = contracted, fc
            else:  # shrink toward the best vertex
                for i in range(1, n + 1):
                    verts[i] = verts[0] + 0.5 * (verts[i] - verts[0])
                    fvals[i] = f(verts[i])
        if evals >= settings.max_evals:
            break

    i_best = int(np.argmin(fvals))
    return VqeResult(verts[i_best].copy(), fvals[i_best], evals, converged, history)


def initial_theta(n_params: int, seed: int) -> np.ndarray:
    """All zeros plus +-0.01 uniform jitter to break simplex degeneracy."""
    rng = np.random.default_rng(seed)
    return rng.uniform(-0.01, 0.01, size=n_params)


def solve_vqe(
    problem: VqeProblem,
    settings: OptimizerSettings | None = None,
    optimize_with_noise: bool = False,
) -> VqeResult:
    """Optimize the ansatz parameters, by default with noise switched off.

    The optimized parameters are meant to be reused for evaluation at
    every noise rate; set optimize_with_noise to optimize under the
    problem's own model instead.
    """
    if settings is None:
        settings = OptimizerSettings()
    opt_problem = problem
    if not optimize_with_noise:
        opt_problem = replace(problem, noise=NoiseModel())
    theta0 = initial_theta(problem.ansatz.n_params, settings.seed)
    return nelder_mead(
        lambda th: energy_objective(opt_problem, th), theta0, settings
    )
