"""Variational loop: E(theta) = <H> in the ansatz state, minimized by Nelder-Mead.

Expectations are exact (no measurement-shot sampling): <psi|H|psi> of a
state vector for a noiseless objective, Tr(rho H) of the density matrix
for a noisy one.  By default the parameters are optimized with the noise
model emptied, so on the state-vector path, and reused at every noise
rate; optimizing under the full model is available behind a flag.

The start point's jitter is numpy's `default_rng(seed)` stream, drawn in
Python by `initial_theta`: importing numpy's random package would cost
each run more time than a short noisy VQE takes.  The stream pin test in
`tests/test_vqe.py` holds the two equal bit for bit.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import noise
from .circuit import Circuit, bind
from .noise import NoiseModel, PropagatorConfig
from .paulis import PauliSum, expectation
from .state import check_count, check_real, new_statevector


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
        check_count("max_evals", self.max_evals, 1)
        for name in ("f_tol", "x_tol", "initial_step"):
            check_real(name, getattr(self, name), 0, above=True)
        check_count("seed", self.seed, 0)  # numpy's generator takes no negative seed


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


_M32, _M64, _M128 = 2**32 - 1, 2**64 - 1, 2**128 - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def initial_theta(n_params: int, seed: int) -> np.ndarray:
    """All zeros plus +-0.01 uniform jitter to break simplex degeneracy.

    The jitter is numpy's `default_rng(seed).uniform(-0.01, 0.01,
    n_params)`, drawn in Python so that no run pays the import of numpy's
    random package: SeedSequence mixes the seed into four 32-bit words,
    which seed a PCG64 (O'Neill, HMC-CS-2014-0905); each XSL-RR output
    becomes one double.  `TestInitialTheta` holds the two bit for bit.
    """
    check_count("seed", seed, 0)
    seed = operator.index(seed)  # a Python int, so no numpy overflow
    words = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    h = 0x43B0D7E5

    def hashmix(value: int, mult: int = 0x931E8875) -> int:
        nonlocal h
        value ^= h
        h = h * mult & _M32
        value = value * h & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        r = 0xCA01F9DD * x - 0x4973F715 * y & _M32
        return r ^ r >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    h = 0x8B51F9DD
    out = [hashmix(pool[i % 4], 0x58F38DED) for i in range(8)]
    seeds = [out[i] | out[i + 1] << 32 for i in range(0, 8, 2)]
    inc = ((seeds[2] << 64 | seeds[3]) << 1 | 1) & _M128
    state = ((inc + (seeds[0] << 64 | seeds[1])) * _PCG64_MULT + inc) & _M128
    low, high = -0.01, 0.01
    theta = np.empty(n_params)
    for i in range(n_params):
        state = (state * _PCG64_MULT + inc) & _M128
        x, rot = (state >> 64 ^ state) & _M64, state >> 122
        x = (x >> rot | x << (64 - rot)) & _M64
        theta[i] = low + (high - low) * ((x >> 11) * 2**-53)
    return theta


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
