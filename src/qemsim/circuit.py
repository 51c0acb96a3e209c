"""Gate-level circuit IR, Pauli-exponential compilation, and ansatz builders.

Circuits carry symbolic rotation angles (parameter index plus a real
prefactor); `bind` resolves them to literal angles.  Two ansatz families
are provided: a UCCSD-style product of Pauli-string exponentials read from
a generator file, and a layered entangling ansatz built from single-qubit
rotations plus a Hadamard-CNOT ring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PauliParseError
from .paulis import PauliString, _content_lines, _header, parse_pauli_string

ROTATION_KINDS = ("Rx", "Ry", "Rz")
FIXED_KINDS = ("H", "X", "CNOT")

_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


@dataclass(frozen=True)
class Param:
    """Symbolic angle: prefactor * theta[index]."""

    index: int
    prefactor: float = 1.0


@dataclass(frozen=True)
class Gate:
    kind: str
    qubits: tuple[int, ...]
    param: Param | float | None = None

    def __post_init__(self):
        object.__setattr__(self, "qubits", tuple(self.qubits))
        if self.kind in ROTATION_KINDS:
            if self.param is None:
                raise ValueError(f"{self.kind} requires an angle")
            n_target = 1
        elif self.kind in FIXED_KINDS:
            if self.param is not None:
                raise ValueError(f"{self.kind} takes no angle")
            n_target = 2 if self.kind == "CNOT" else 1
        else:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if len(self.qubits) != n_target or len(set(self.qubits)) != n_target:
            raise ValueError(
                f"{self.kind} needs {n_target} distinct qubit(s), got {self.qubits}"
            )


@dataclass(frozen=True)
class BoundGate:
    """Gate with the angle resolved to a literal real."""

    kind: str
    qubits: tuple[int, ...]
    angle: float | None = None

    def matrix(self) -> np.ndarray:
        """U of the gate; refuses an unknown kind, an angle on a fixed
        gate and a missing or non-finite angle on a rotation."""
        if self.kind in FIXED_KINDS:
            if self.angle is not None:
                raise ValueError(f"{self.kind} takes no angle, got {self.angle}")
            return {"H": _H, "X": _X, "CNOT": _CNOT}[self.kind]
        if self.kind not in ROTATION_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if self.angle is None or not math.isfinite(self.angle):
            raise ValueError(f"{self.kind} needs a finite angle, got {self.angle}")
        half = 0.5 * self.angle
        c, s = math.cos(half), math.sin(half)
        if self.kind == "Rx":
            return np.array([[c, -1j * s], [-1j * s, c]])
        if self.kind == "Ry":
            return np.array([[c, -s], [s, c]], dtype=complex)
        return np.array([[c - 1j * s, 0], [0, c + 1j * s]])


@dataclass(frozen=True)
class Circuit:
    n_qubits: int
    gates: tuple[Gate, ...]
    n_params: int

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        for g in self.gates:
            if max(g.qubits) >= self.n_qubits:
                raise ValueError(f"gate {g} exceeds {self.n_qubits} qubits")
            if isinstance(g.param, Param) and not 0 <= g.param.index < self.n_params:
                raise ValueError(f"parameter index {g.param.index} out of range")


@dataclass(frozen=True)
class BoundCircuit:
    n_qubits: int
    gates: tuple[BoundGate, ...]

    def __len__(self) -> int:
        return len(self.gates)


def bind(circuit: Circuit, theta) -> BoundCircuit:
    """Resolve every symbolic angle as prefactor * theta[index]."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (circuit.n_params,):
        raise ValueError(
            f"theta has length {theta.size}, circuit expects {circuit.n_params}"
        )
    if not np.isfinite(theta).all():
        raise ValueError(f"theta must be finite, got {theta.tolist()}")
    bound = []
    for g in circuit.gates:
        if g.param is None:
            bound.append(BoundGate(g.kind, g.qubits))
        elif isinstance(g.param, Param):
            bound.append(
                BoundGate(g.kind, g.qubits, g.param.prefactor * theta[g.param.index])
            )
        else:
            bound.append(BoundGate(g.kind, g.qubits, float(g.param)))
    return BoundCircuit(circuit.n_qubits, tuple(bound))


def compile_pauli_exponential(ps: PauliString, param, n_qubits: int) -> list[Gate]:
    """Gate sequence for exp(-i * angle/2 * P).

    Basis changes (H for X, Rx(+-pi/2) for Y), a CNOT ladder onto the
    highest involved qubit, Rz(angle) there, then exact un-computation.
    """
    if ps.is_identity():
        raise ValueError("identity string is a global phase; nothing to compile")
    if ps.max_qubit() >= n_qubits:
        raise ValueError(f"string {ps} exceeds {n_qubits} qubits")
    involved = sorted(q for q, _ in ps.ops)
    target = involved[-1]
    pre: list[Gate] = []
    post: list[Gate] = []
    for q, letter in ps.ops:
        if letter == "X":
            pre.append(Gate("H", (q,)))
            post.append(Gate("H", (q,)))
        elif letter == "Y":
            pre.append(Gate("Rx", (q,), math.pi / 2))
            post.append(Gate("Rx", (q,), -math.pi / 2))
    ladder = [
        Gate("CNOT", (involved[i], involved[i + 1])) for i in range(len(involved) - 1)
    ]
    return (
        pre
        + ladder
        + [Gate("Rz", (target,), param)]
        + ladder[::-1]
        + post[::-1]
    )


@dataclass(frozen=True)
class AnsatzSpec:
    """Either a list of parameterized Pauli generators or a layered entangler.

    UccsdLike generators are (PauliString, parameter index, prefactor)
    triples applied in order; `prep` lists qubits that get a literal X
    gate up front (reference-state occupation).  Entangling uses `layers`.
    """

    kind: str  # "UccsdLike" | "Entangling"
    generators: tuple[tuple[PauliString, int, float], ...] = ()
    prep: tuple[int, ...] = ()
    layers: int = 0
    n_params: int | None = None

    def __post_init__(self):
        if self.kind == "UccsdLike":
            for ps, _, _ in self.generators:
                if ps.is_identity():
                    raise ValueError("identity generator string")
        elif self.kind == "Entangling":
            if self.layers < 1:
                raise ValueError("entangling ansatz needs at least one layer")
        else:
            raise ValueError(f"unknown ansatz kind {self.kind!r}")


def entangling_param_count(n_qubits: int, layers: int) -> int:
    return 2 * n_qubits + 3 * n_qubits * layers


def build_ansatz(spec: AnsatzSpec, n_qubits: int) -> Circuit:
    if spec.kind == "UccsdLike":
        gates = [Gate("X", (q,)) for q in spec.prep]
        n_params = spec.n_params
        if n_params is None:
            n_params = 1 + max((i for _, i, _ in spec.generators), default=-1)
        for ps, index, prefactor in spec.generators:
            gates.extend(
                compile_pauli_exponential(ps, Param(index, prefactor), n_qubits)
            )
        return Circuit(n_qubits, tuple(gates), n_params)

    n, d = n_qubits, spec.layers
    gates = []
    for q in range(n):
        gates.append(Gate("Rx", (q,), Param(2 * q)))
        gates.append(Gate("Rz", (q,), Param(2 * q + 1)))
    for layer in range(d):
        for q in range(n):
            gates.append(Gate("H", (q,)))
            gates.append(Gate("CNOT", (q, (q + 1) % n)))
        base = 2 * n + 3 * n * layer
        for q in range(n):
            gates.append(Gate("Rz", (q,), Param(base + 3 * q)))
            gates.append(Gate("Rx", (q,), Param(base + 3 * q + 1)))
            gates.append(Gate("Rz", (q,), Param(base + 3 * q + 2)))
    return Circuit(n, tuple(gates), entangling_param_count(n, d))


def parse_ansatz_file(text: str) -> tuple[AnsatzSpec, int]:
    """Parse the generator file format.

    Headers "qubits N" and "params M", then lines of either
    "x <q>" (literal X reference-prep gate) or
    "<param_index> <prefactor> <P><idx> ...".
    """
    lines = _content_lines(text)
    n_qubits = _header(lines, "qubits", 1)
    n_params = _header(lines, "params", 0)
    too_wide = f"qubit index exceeds declared count {n_qubits}"
    prep = []
    generators = []
    for line_no, line in lines:
        tokens = line.split()
        if tokens[0].lower() == "x":
            if generators:
                raise PauliParseError(
                    "reference-prep gates must precede generators", line_no
                )
            if len(tokens) != 2 or not tokens[1].isdigit():
                raise PauliParseError(f"bad prep line {line!r}", line_no)
            if int(tokens[1]) >= n_qubits:
                raise PauliParseError(too_wide, line_no)
            prep.append(int(tokens[1]))
            continue
        if len(tokens) < 3:
            raise PauliParseError(f"bad generator line {line!r}", line_no)
        if not tokens[0].isdigit():
            raise PauliParseError(f"bad parameter index {tokens[0]!r}", line_no)
        index = int(tokens[0])
        if index >= n_params:
            raise PauliParseError(
                f"parameter index {index} >= declared params {n_params}", line_no
            )
        try:
            prefactor = float(tokens[1])
        except ValueError:
            raise PauliParseError(f"bad prefactor {tokens[1]!r}", line_no) from None
        if not math.isfinite(prefactor):
            raise PauliParseError(f"prefactor must be finite, got {tokens[1]!r}", line_no)
        ps = parse_pauli_string(tokens[2:], line_no)
        if ps.max_qubit() >= n_qubits:
            raise PauliParseError(too_wide, line_no)
        generators.append((ps, index, prefactor))
    spec = AnsatzSpec(
        "UccsdLike",
        generators=tuple(generators),
        prep=tuple(prep),
        n_params=n_params,
    )
    return spec, n_qubits
