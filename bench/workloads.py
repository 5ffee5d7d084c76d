"""Workload plans: the tcqb command lines each workload runs.

A plan is made from the workload seed alone; tcqb only ever sees the
generated flags and input files.  Every command carries what its output
check needs (the photon distribution, grid, output path), so the checks
never have to parse the command line back.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("cold_solve", "warm_analysis", "open_system")

# warm_analysis: atoms, cache depth filled in set-up, random pmfs timed.
WARM_ATOMS = 10
WARM_M_MAX = 20
WARM_PMFS = 2
WARM_LONG_STEPS = 20000
# Open-system runs: pure collective dephasing (checked against the exact
# sector evolution) and photon loss plus dephasing.  t_end = 0.5 keeps one
# command near 3 s on 2 vCPUs while the Lindblad layer does ~80% of it.
# The closed limit (0, 0) is left out: at the parent code it breaks the
# positivity gate from t = 0.02, and every operation of a workload must
# pass (test_bench.py keeps that failure as a strict xfail).
LINDBLAD_ATOMS = 10
LINDBLAD_PHOTONS = 10
LINDBLAD_T_END = 0.5
LINDBLAD_DT = 1e-3
LINDBLAD_STRIDE = 10
LINDBLAD_RATES = ((0.0, 0.1), (0.2, 0.1))
# Default time grid of `tcqb energy`.
ENERGY_T_END = 3.0
ENERGY_STEPS = 2000


@dataclass(frozen=True)
class Command:
    """One tcqb invocation and the facts its output check needs.

    argv holds the tcqb arguments only (the command name first); how the
    command is launched, traced or not, is the runner's business.
    """

    argv: tuple[str, ...]
    check: dict = field(default_factory=dict, compare=False)
    fresh_cache: bool = False

    @property
    def name(self) -> str:
        return self.argv[0]


@dataclass(frozen=True)
class Plan:
    setup: tuple[Command, ...]
    timed: tuple[Command, ...]
    inputs: dict[str, str] = field(default_factory=dict, compare=False)  # file name -> content


def coherent_pmf(alpha_sq: float, truncation: int) -> dict[int, float]:
    """Poisson weights on 0..truncation, renormalised (the reference pmf)."""
    raw = [alpha_sq**m / math.factorial(m) for m in range(truncation + 1)]
    total = math.fsum(raw)
    return {m: w / total for m, w in enumerate(raw)}


def random_pmf(rng: np.random.Generator, max_m: int) -> dict[int, float]:
    """4 to 8 support points in 0..max_m with random positive weights."""
    size = int(rng.integers(4, 9))
    support = sorted(int(m) for m in rng.choice(max_m + 1, size=size, replace=False))
    weights = rng.random(size) + 0.05
    total = math.fsum(weights)
    return {m: float(w / total) for m, w in zip(support, weights)}


def _energy(init: str, pmf: dict[int, float], n_atoms: int, seed: int, out: Path,
            steps: int = ENERGY_STEPS, fresh_cache: bool = False) -> Command:
    argv = ["energy", "--init", init, "--n-atoms", str(n_atoms), "--seed", str(seed)]
    if steps != ENERGY_STEPS:
        argv += ["--steps", str(steps)]
    argv += ["--out", str(out)]
    check = {"kind": "energy", "pmf": pmf, "n_atoms": n_atoms, "t_end": ENERGY_T_END,
             "steps": steps, "out": out}
    return Command(tuple(argv), check, fresh_cache)


def _cold_solve(seed: int, out: Path) -> tuple[list[Command], list[Command], dict]:
    timed = [
        _energy("coherent:6:16", coherent_pmf(6.0, 16), 10, seed, out / "coherent.csv",
                fresh_cache=True),
        _energy("fock:12", {12: 1.0}, 2, seed, out / "fock12_n2.csv", fresh_cache=True),
        Command(("verify", "--n-atoms", "6", "--m-max", "12", "--seed", str(seed)),
                {"kind": "verify"}, fresh_cache=True),
    ]
    return [], timed, {}


def _warm_analysis(seed: int, out: Path) -> tuple[list[Command], list[Command], dict]:
    rng = np.random.default_rng([seed, 1])
    n, s = WARM_ATOMS, seed
    setup = [_energy(f"fock:{WARM_M_MAX}", {WARM_M_MAX: 1.0}, n, s, out / "fill.csv",
                     fresh_cache=True)]
    timed = [_energy("coherent:6:16", coherent_pmf(6.0, 16), n, s, out / "coherent.csv")]
    inputs: dict[str, str] = {}
    splits = []
    for k in range(WARM_PMFS):
        pmf = random_pmf(rng, WARM_M_MAX)
        t_check = float(round(rng.uniform(0.2, 1.5), 6))
        name = f"pmf{k}.json"
        inputs[name] = json.dumps({"probs": {str(m): p for m, p in pmf.items()}})
        path = out.parent / "inputs" / name
        steps = WARM_LONG_STEPS if k == WARM_PMFS - 1 else ENERGY_STEPS
        timed.append(_energy(f"file:{path}", pmf, n, s, out / f"pmf{k}.csv", steps=steps))
        split_out = out / f"split{k}.json"
        splits.append(Command(
            ("split-check", "--dist", f"file:{path}", "--n-atoms", str(n), "--t", repr(t_check),
             "--seed", str(s), "--out", str(split_out)),
            {"kind": "split", "pmf": pmf, "n_atoms": n, "t": t_check, "out": split_out},
        ))
    timed += splits
    for which in ("28", "29"):
        ineq_out = out / f"inequality{which}.json"
        timed.append(Command(
            ("inequality", "--which", which, "--n-atoms", str(n), "--max-m", "14",
             "--seed", str(s), "--out", str(ineq_out)),
            {"kind": "inequality", "which": int(which), "max_m": 14, "out": ineq_out},
        ))
    return setup, timed, inputs


def lindblad_command(kappa: float, gamma_phi: float, path: Path) -> Command:
    """`tcqb lindblad` from fock:LINDBLAD_PHOTONS at the given rates."""
    argv = ("lindblad", "--n-atoms", str(LINDBLAD_ATOMS), "--init", f"fock:{LINDBLAD_PHOTONS}",
            "--kappa", repr(kappa), "--gamma-phi", repr(gamma_phi), "--dt", repr(LINDBLAD_DT),
            "--t-end", repr(LINDBLAD_T_END), "--stride", str(LINDBLAD_STRIDE), "--out", str(path))
    check = {"kind": "lindblad", "n_atoms": LINDBLAD_ATOMS, "photons": LINDBLAD_PHOTONS,
             "n_max": LINDBLAD_PHOTONS + 10, "kappa": kappa, "gamma_phi": gamma_phi,
             "dt": LINDBLAD_DT, "t_end": LINDBLAD_T_END, "stride": LINDBLAD_STRIDE, "out": path}
    return Command(argv, check)


def _open_system(seed: int, out: Path) -> tuple[list[Command], list[Command], dict]:
    # The inputs are fixed: the seed has nothing to vary in a run from a
    # number state.
    timed = [lindblad_command(kappa, gamma, out / f"lindblad_k{kappa}_g{gamma}.csv")
             for kappa, gamma in LINDBLAD_RATES]
    return [], timed, {}


def make_plan(workload: str, seed: int, run_dir: Path) -> Plan:
    """Commands of one workload; outputs go under run_dir/out."""
    build = {"cold_solve": _cold_solve, "warm_analysis": _warm_analysis,
             "open_system": _open_system}[workload]
    setup, timed, inputs = build(seed, run_dir / "out")
    return Plan(tuple(setup), tuple(timed), inputs)
