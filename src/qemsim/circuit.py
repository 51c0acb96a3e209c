"""Gate-level circuit IR, Pauli-exponential compilation, and ansatz builders.

Circuits carry symbolic rotation angles (parameter index plus a real
prefactor); `bind` resolves them to literal angles.  Two ansatz families
are provided: a UCCSD-style product of Pauli-string exponentials read from
a generator file, and a layered entangling ansatz built from single-qubit
rotations plus a Hadamard-CNOT ring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import PauliParseError
from .paulis import PauliString, _content_lines, _header, read_count, read_term
from .state import _kron, check_count, check_qubits, check_real

ROTATION_KINDS = ("Rx", "Ry", "Rz")
FIXED_KINDS = ("H", "X", "CNOT")

_FIXED = {
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "CNOT": np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex),
}
_FIXED_ENTRIES = {kind: tuple(map(complex, _FIXED[kind].flat)) for kind in ("H", "X")}


@dataclass(frozen=True)
class Param:
    """Symbolic angle: prefactor * theta[index]."""

    index: int
    prefactor: float = 1.0

    def __post_init__(self):
        check_count("parameter index", self.index, 0)
        check_real("prefactor", self.prefactor)


def _check_gate(kind: str, qubits, angle, symbolic=()) -> tuple[int, ...]:
    """The one check of a `Gate` or `BoundGate`: a known kind, an angle
    exactly on rotations, finite and real unless `symbolic`, and as many
    qubits as the kind acts on (`state.check_qubits`), as a tuple."""
    if kind in ROTATION_KINDS:
        if not isinstance(angle, symbolic):
            check_real(f"{kind} angle", angle)
    elif kind not in FIXED_KINDS:
        raise ValueError(f"unknown gate kind {kind!r}")
    elif angle is not None:
        raise ValueError(f"{kind} takes no angle, got {angle}")
    return check_qubits(kind, qubits, 2 if kind == "CNOT" else 1)


@dataclass(frozen=True)
class Gate:
    kind: str
    qubits: tuple[int, ...]
    param: Param | float | None = None

    def __post_init__(self):
        object.__setattr__(self, "qubits", _check_gate(self.kind, self.qubits, self.param, Param))


@dataclass(frozen=True)
class BoundGate:
    """Gate with the angle resolved to a literal real."""

    kind: str
    qubits: tuple[int, ...]
    angle: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "qubits", _check_gate(self.kind, self.qubits, self.angle))

    def __getstate__(self):  # a copy carries its fields alone, so builds its own ops
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def _of(cls, gate: Gate, angle: float) -> BoundGate:
        """`gate` at `angle`, checked since a finite prefactor times a finite
        theta can overflow; no second check of what the Gate's own passed."""
        if not math.isfinite(angle):
            raise ValueError(f"{gate.kind} angle must be a finite real, got {angle!r}")
        bound = object.__new__(cls)
        vars(bound).update(kind=gate.kind, qubits=gate.qubits, angle=angle)
        return bound

    def matrix(self) -> np.ndarray:
        """U of the gate."""
        if self.kind in FIXED_KINDS:
            return _FIXED[self.kind]
        return np.array(self.entries(), dtype=complex).reshape(2, 2)

    def entries(self) -> tuple:
        """U of a 1-qubit gate, row by row, as Python numbers."""
        if self.kind in FIXED_KINDS:
            return _FIXED_ENTRIES[self.kind]
        half = 0.5 * self.angle
        c, s = math.cos(half), math.sin(half)
        if self.kind == "Rx":
            return (c, -1j * s, -1j * s, c)
        if self.kind == "Ry":
            return (c, -s, s, c)
        return (c - 1j * s, 0, 0, c + 1j * s)


def fusion_groups(gates, slots) -> tuple[tuple, tuple, tuple]:
    """The gates that a state-vector run applies as one `FusedGate`, in
    the order it runs them: each 2-qubit gate, after the runs of 1-qubit
    gates that feed its qubits (its first qubit's run first), then each
    run that feeds no 2-qubit gate.  A run touches its qubit alone, and no
    other gate touches that qubit between the run and its group's place,
    so moving it there changes nothing.  Gate i binds to slots[i], a
    BoundGate or a `Param` gate's index.  Returns the FusedGate of each
    distinct group that binds to BoundGates alone, the positions of each
    other distinct group, and the run as indices into the two in turn."""
    runs: dict[int, list[int]] = {}  # qubit: its 1-qubit gates since its last 2-qubit gate
    groups = []
    for i, g in enumerate(gates):
        if len(g.qubits) == 1:
            runs.setdefault(g.qubits[0], []).append(i)
        else:
            groups.append(tuple(j for q in g.qubits for j in runs.pop(q, ())) + (i,))
    groups += map(tuple, runs.values())
    bound = [tuple(slots[i] for i in g) for g in groups]
    fixed = {b: FusedGate(b) for b in bound if all(isinstance(s, BoundGate) for s in b)}
    own = {b: g for b, g in zip(bound, groups) if b not in fixed}
    index = {b: k for k, b in enumerate([*fixed, *own])}
    return tuple(fixed.values()), tuple(own.values()), tuple(index[b] for b in bound)


@dataclass(frozen=True)
class FusedGate:
    """A fusion group (see `fusion_groups`) as one gate: each qubit's
    1-qubit gates, in order, then the 2-qubit gate they feed, if any.
    Every one of its gates acts on the closing gate's `qubits`.  Like a
    `BoundGate` it keeps the ops built from it, and a copy does not."""

    gates: tuple[BoundGate, ...]

    __getstate__ = BoundGate.__getstate__

    @property
    def qubits(self) -> tuple[int, ...]:
        return self.gates[-1].qubits

    def matrix(self) -> np.ndarray:
        """U of the group: each qubit's 1-qubit gates multiplied into one
        2x2 P, in order, and a closing 2-qubit gate U on (a, b) as
        U @ kron(P_a, P_b), a the most-significant bit."""
        # P in Python numbers: a 2x2 product in them costs under half of numpy's
        runs = {q: (1, 0, 0, 1) for q in self.qubits}
        for g in self.gates[: len(self.gates) - (len(runs) > 1)]:
            a, b = g.entries(), runs[g.qubits[0]]  # P becomes a @ P
            runs[g.qubits[0]] = (
                a[0] * b[0] + a[1] * b[2], a[0] * b[1] + a[1] * b[3],
                a[2] * b[0] + a[3] * b[2], a[2] * b[1] + a[3] * b[3],
            )
        m = np.array(list(runs.values()), dtype=complex).reshape(-1, 2, 2)
        return m[0] if len(runs) == 1 else self.gates[-1].matrix() @ _kron(*m)


@dataclass(frozen=True)
class Circuit:
    """Gates, some with `Param` angles.  Equal gates bind to one `BoundGate`:
    one per `bind` with a `Param`, else one here that every `bind` shares.
    Its `fusion_groups` are fixed here, and each distinct group of fixed
    gates is one `FusedGate` here, which every binding shares."""

    n_qubits: int
    gates: tuple[Gate, ...]
    n_params: int

    def __post_init__(self):
        check_count("n_qubits", self.n_qubits, 1)
        check_count("n_params", self.n_params, 0)
        object.__setattr__(self, "gates", tuple(self.gates))
        slots, params = {}, {}  # a BoundGate, or a Param gate's index in _params
        for g in self.gates:
            if max(g.qubits) >= self.n_qubits:
                raise ValueError(f"gate {g} exceeds {self.n_qubits} qubits")
            if isinstance(g.param, Param) and not 0 <= g.param.index < self.n_params:
                raise ValueError(f"parameter index {g.param.index} out of range")
            if isinstance(g.param, Param):
                slots[g] = params.setdefault(g, len(params))
            elif g not in slots:
                slots[g] = BoundGate(g.kind, g.qubits, g.param)
        object.__setattr__(self, "_params", tuple(params))
        object.__setattr__(self, "_slots", tuple(map(slots.get, self.gates)))
        object.__setattr__(self, "_fusion", fusion_groups(self.gates, self._slots))


@dataclass(frozen=True)
class BoundCircuit:
    """Gates with literal angles."""

    n_qubits: int
    gates: tuple[BoundGate, ...]

    def __post_init__(self):
        check_count("n_qubits", self.n_qubits, 1)

    def __len__(self) -> int:
        return len(self.gates)

    def fused(self) -> tuple[FusedGate, ...]:
        """Its `fusion_groups` as gates, in the order a state-vector run
        applies them, made at the first call and kept: a group of fixed
        gates of the `Circuit` it was bound from is that Circuit's
        `FusedGate`, and any other is its own, one per distinct group."""
        if "_fused" not in vars(self):
            gates = self.gates
            source = vars(self).get("_circuit")
            fixed, own, run = source._fusion if source else fusion_groups(gates, gates)
            fused = fixed + tuple(FusedGate(tuple([gates[i] for i in g])) for g in own)
            vars(self).setdefault("_fused", tuple(map(fused.__getitem__, run)))
        return self._fused


def bind(circuit: Circuit, theta) -> BoundCircuit:
    """Resolve every symbolic angle as prefactor * theta[index]."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (circuit.n_params,):
        raise ValueError(
            f"theta has length {theta.size}, circuit expects {circuit.n_params}"
        )
    if not np.isfinite(theta).all():
        raise ValueError(f"theta must be finite, got {theta.tolist()}")
    theta = theta.tolist()
    rotations = [
        BoundGate._of(g, g.param.prefactor * theta[g.param.index]) for g in circuit._params
    ]
    bound = tuple(rotations[s] if isinstance(s, int) else s for s in circuit._slots)
    out = BoundCircuit(circuit.n_qubits, bound)
    object.__setattr__(out, "_circuit", circuit)  # whose fixed gates and groups it shares
    return out


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
            check_count("Entangling ansatz layers", self.layers, 1)
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
    check_count("Entangling ansatz n_qubits", n, 2)  # its CNOT ring needs two qubits
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
    prep = []
    generators = []
    for line_no, line in lines:
        tokens = line.split()
        if tokens[0].lower() == "x":
            if generators:
                raise PauliParseError(
                    "reference-prep gates must precede generators", line_no
                )
            qubit = " ".join(tokens[1:])  # no digit string unless one token
            prep.append(read_count(qubit, line_no, f"bad prep line {line!r}", n_qubits))
            continue
        bad = f"bad parameter index {tokens[0]!r}"
        index = read_count(tokens[0], line_no, bad, n_params, "parameter index")
        prefactor, ps = read_term(tokens[1:], line_no, n_qubits, "prefactor")
        if ps.is_identity():
            raise PauliParseError("identity generator string", line_no)
        generators.append((ps, index, prefactor))
    spec = AnsatzSpec(
        "UccsdLike",
        generators=tuple(generators),
        prep=tuple(prep),
        n_params=n_params,
    )
    return spec, n_qubits
