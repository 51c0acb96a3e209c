#!/usr/bin/env python3
"""Check that tier-1 notices a wrong number: run it on one-line mutants.

    python3 tools/mutants.py

Each entry of MUTANTS replaces one line's text in one file under `src`
(classic mutation analysis: DeMillo, Lipton and Sayward, IEEE Computer
11(4), 34, 1978).  For each mutant, one at a time, the script copies the
working tree (tracked and untracked files, ignored ones left out, as
`bench_pairs.py` extracts it) into a fresh temporary directory, applies
the mutant there, runs tier-1 with `-x -q` and hypothesis seed 0 (so a
rerun draws the same examples) and prints `killed` if a test failed,
`survived` if every test passed, or `error` for any other pytest exit,
with the seconds the run took and the first test that failed.  The exit
status is 1 if any mutant was not killed.  A mutant is a fault
tier-1 should catch, so every one should be killed; a survivor names a
check that no test exercises.

The script is never part of tier-1.  `tests/test_mutants.py` checks only
that each mutant's original text occurs exactly once in its file, so the
list fails loudly when the code it names moves; a mutated tree always
fails that test, so the runs here leave it out.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench_pairs import WORKTREE, extract

# (name, file, original text, mutated text, what the mutant does)
MUTANTS = [
    ("ier_sum_scaled", "src/qemsim/mitigation.py",
     "return a_noisy - sum(w * (a_noisy - a_i) for a_i, w in removed)",
     "return a_noisy - 1.001 * sum(w * (a_noisy - a_i) for a_i, w in removed)",
     "the IER sum scaled by 1.001"),
    ("trace_limit_loose", "src/qemsim/noise.py",
     "TRACE_DRIFT_LIMIT = 1e-6", "TRACE_DRIFT_LIMIT = 1e-2",
     "TRACE_DRIFT_LIMIT 1e-6 -> 1e-2"),
    ("stability_limit_loose", "src/qemsim/noise.py",
     "RK4_STABILITY_LIMIT = 2.785", "RK4_STABILITY_LIMIT = 4.0",
     "RK4_STABILITY_LIMIT 2.785 -> 4.0"),
    ("rk4_1_24", "src/qemsim/noise.py",
     "v += np.multiply(t2, 1 / 24, out=t2)", "v += np.multiply(t2, 1 / 25, out=t2)",
     "the RK4 1/24 -> 1/25"),
    ("thermal_excitation", "src/qemsim/noise.py",
     "(self.rate * self.n_th, 1, 0),", "(self.rate * self.n_th * 1.0001, 1, 0),",
     "a thermal excitation rate times 1.0001"),
    ("scaled_extrapolation", "src/qemsim/mitigation.py",
     "a_i = a_noisy - (a_i - a_noisy) / (factor - 1.0)",
     "a_i = a_noisy - (a_i - a_noisy) / (factor - 0.999)",
     "the scaled variant's (factor - 1) -> (factor - 0.999)"),
    ("chunks_4_bytes", "src/qemsim/noise.py",
     "size = 16 * 4**n_qubits + sum(", "size = 4 * 4**n_qubits + sum(",
     "`_chunks` sized at 4 B an entry"),
    ("chunks_no_sector_bytes", "src/qemsim/noise.py",
     "_sector_bytes(terms) for support, terms in parts if",
     "0 for support, terms in parts if",
     "the sector bytes left out of `_chunks`"),
    ("max_substeps", "src/qemsim/noise.py",
     "MAX_SUBSTEPS = 10**6", "MAX_SUBSTEPS = 10**7",
     "MAX_SUBSTEPS 10^6 -> 10^7"),
    ("stability_radius_halved", "src/qemsim/noise.py",
     "radius = 2.0 * sum(", "radius = 1.0 * sum(",
     "`_check_step`'s radius 2.0 -> 1.0"),
    ("cap_at_limit", "src/qemsim/state.py",
     "if n_qubits > DEFAULT_QUBIT_CAP:", "if n_qubits >= DEFAULT_QUBIT_CAP:",
     "`check_cap`'s > -> >="),
    ("finish_real_trace", "src/qemsim/noise.py",
     "if not abs(trace - 1.0) <= TRACE_DRIFT_LIMIT:",
     "if not abs(trace.real - 1.0) <= TRACE_DRIFT_LIMIT:",
     "`finish` testing trace.real only"),
    ("block_trace_unchecked", "src/qemsim/noise.py",
     "if not defect <= TRACE_DRIFT_LIMIT:  # NaN too", "if False:",
     "the all-population trace check skipped"),
    ("conjugate_swapped", "src/qemsim/noise.py",
     "table[c, partner[mine], local[mine]] = mine",
     "table[c, partner[mine], local[mine] ^ (m - 1) * partner[mine]] = mine",
     "a conjugate pattern taking its partner's entries in swapped order"),
    ("fold_untransposed", "src/qemsim/noise.py",
     "entry = op(np.eye(4 ** len(qubits), dtype=complex)) @ product[at]",
     "entry = op(np.eye(4 ** len(qubits), dtype=complex)).T @ product[at]",
     "a fold's S^T taken as S"),
    ("compose_swapped", "src/qemsim/noise.py",
     "return tuple(map(np.matmul, pending, product))",
     "return tuple(map(np.matmul, product, pending))",
     "a Param gate's pass composed into the pending one in the swapped order"),
    ("no_pay_before_gate", "src/qemsim/noise.py",
     "if pending is not None and (at is None or self.kernels):",
     "if pending is not None and self.kernels:",
     "a gate of its own applied before the pass owed before it"),
    ("kernel_carried_past_gate", "src/qemsim/noise.py",
     "if pending is not None and (at is None or self.kernels):",
     "if pending is not None and at is None:",
     "a kernel's interval left unpaid before a folded Param gate"),
    ("plan_across_kernel", "src/qemsim/noise.py",
     "if step is not None and not self.kernels:", "if step is not None:",
     "fixed folds composed across a kernel's intervals"),
    ("kept_plan_other_theta", "src/qemsim/noise.py",
     "if at is None or gate is not slots[j]:", "if at is None:",
     "a Param gate folded as a fixed one, so kept at another theta"),
    ("kept_plan_other_circuit", "src/qemsim/noise.py",
     "if seen is not source or plan is None:", "if plan is None:",
     "the kept plan reused for another Circuit"),
    ("folds_across_runs", "src/qemsim/noise.py",
     "folds, step, last = {}, None, len(gates) - 1",
     'folds, step, last = vars(self).setdefault("folds", {}), None, len(gates) - 1',
     "folds kept across plans by id, so a dead gate's fold serves a new one"),
    ("param_into_kept_pass", "src/qemsim/noise.py",
     "pending[at] = op(pending[at])", "pending[at][...] = op(pending[at])",
     "a Param gate's S written into the pass owed, which the plan may keep"),
    ("entry_one_pair_order", "src/qemsim/noise.py",
     "for g in [qs, qs[::-1], *zip(qs)]", "for g in [qs, *zip(qs)]",
     "a gate on a pair in descending order left unfolded"),
    ("chunk_key_no_wider", "src/qemsim/noise.py",
     "kind = {len(support) == 1 for support, _ in parts}",
     "kind = {len(support) == 1 for support, _ in parts} - {False}",
     "rows chunked with no regard to their wider blocks"),
    ("chunk_key_no_lone", "src/qemsim/noise.py",
     "kind = {len(support) == 1 for support, _ in parts}",
     "kind = {len(support) == 1 for support, _ in parts} - {True}",
     "rows chunked with no regard to their 1-qubit blocks"),
    ("reader_not_finite", "src/qemsim/paulis.py",
     "if not math.isfinite(value):", "if False:",
     "the number reader accepting nan and inf"),
    ("reader_non_ascii", "src/qemsim/paulis.py",
     "if not (token.isascii() and token.isdigit()):", "if not token.isdigit():",
     "the count reader accepting non-ASCII digits"),
    ("coefficient_only_line", "src/qemsim/paulis.py",
     "if len(tokens) < 2:", "if len(tokens) < 1:",
     "a number with no Pauli string read as the identity"),
    ("identity_generator_line", "src/qemsim/circuit.py",
     'raise PauliParseError("identity generator string", line_no)', "pass",
     "an identity generator line left to AnsatzSpec"),
    ("param_index", "src/qemsim/circuit.py",
     'check_count("parameter index", self.index, 0)', "pass",
     "`Param` index unchecked"),
    ("param_prefactor", "src/qemsim/circuit.py",
     'check_real("prefactor", self.prefactor)', "pass",
     "`Param` prefactor unchecked"),
    ("scale_terms_any_type", "src/qemsim/noise.py",
     "outside = {i for i in chosen if isinstance(i, bool) or not isinstance(i, Integral)}",
     "outside = set()",
     "`scale_terms` taking True or 1.0 as term 1"),
    ("entangling_rx_param", "src/qemsim/circuit.py",
     'gates.append(Gate("Rx", (q,), Param(base + 3 * q + 1)))',
     'gates.append(Gate("Rx", (q,), Param(base + 3 * q + 2)))',
     "the Entangling ansatz's layer Rx on the angle of the Rz after it"),
    ("contraction_against_second_worst", "src/qemsim/vqe.py",
     "if fc < fvals[-1]:", "if fc < fvals[-2]:",
     "Nelder-Mead's contraction accepted against the second-worst vertex"),
    ("ladder_unfittable", "src/qemsim/experiments.py",
     "if not all(0 < e < math.inf for e in errors):", "if False:",
     "`scaling_ladder` fitting an error of 0"),
]

# tier-1 but the list's own test, which fails on any mutated tree; a fixed
# hypothesis seed gives each mutant the same examples, and so one verdict
TIER1 = ["-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--ignore=tests/test_mutants.py",
         "--hypothesis-seed=0"]


def mutate(tree: Path, file: str, original: str, mutated: str) -> None:
    path = tree / file
    text = path.read_text()
    if text.count(original) != 1:
        raise SystemExit(f"{file}: the text {original!r} occurs {text.count(original)} times")
    path.write_text(text.replace(original, mutated))


def run(name: str, file: str, original: str, mutated: str) -> tuple[str, float, str]:
    """The verdict of tier-1 on one mutant, its seconds and the first test
    that failed ("" if none did)."""
    with tempfile.TemporaryDirectory(prefix=f"mutant-{name}-") as tmp:
        tree = Path(tmp) / "tree"
        extract(WORKTREE, tree)
        mutate(tree, file, original, mutated)
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        start = time.perf_counter()
        done = subprocess.run([sys.executable, *TIER1], cwd=tree, env=env,
                              capture_output=True, text=True)
        seconds = time.perf_counter() - start
    failed = [line.split()[1] for line in done.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    verdict = {0: "survived", 1: "killed"}.get(done.returncode, "error")
    return verdict, seconds, failed[0] if failed else ""


def main() -> int:
    failed = 0
    for name, file, original, mutated, what in MUTANTS:
        verdict, seconds, test = run(name, file, original, mutated)
        failed += verdict != "killed"
        print(f"{name:24} {verdict:8} {seconds:6.1f} s  {what}  {test}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
