"""Output checks: every reference comes from tcqb.oracle in this process.

A check returns the list of reasons a command's output is wrong (empty
when it passes), so that a fast-but-wrong change counts as a failed
operation.  Nothing here consults the Bethe solver.

Tolerances: the CLI prints 12 significant digits, so energies are held
to 1e-8 against the oracle; the open-system gates are those of the
ROADMAP (energy within 1e-4 of the exact sector evolution, trace drift
< 1e-9, excitation number conserved to 1e-6 without photon loss,
min eig >= -1e-9).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from scipy.linalg import expm

ENERGY_TOL = 1e-8
POWER_RTOL = 1e-10
IDENTITY_TOL = 1e-12
LINDBLAD_ENERGY_TOL = 1e-4
TRACE_TOL = 1e-9
M_CONSERVE_TOL = 1e-6
# Photon loss only lowers <m>; allow rounding in the printed digits.
M_DECAY_SLACK = 1e-9
MIN_EIG_GATE = -1e-9
# The derivative-ordering scan at N = 10, M <= 14 is the documented
# counterexample: 231 of 560 index triples violate the inequality.
INEQ29_COMBINATIONS = 560
INEQ29_VIOLATING = 231
MEAN_SNAP_TOL = 1e-9


def _read_csv(path: Path, header: list[str]) -> np.ndarray:
    with open(path) as fh:
        found = fh.readline().strip().split(",")
    if found != header:
        raise ValueError(f"header {found}, expected {header}")
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _power_errors(t: np.ndarray, energy: np.ndarray, power: np.ndarray) -> list[str]:
    expected = np.zeros_like(energy)
    expected[1:] = energy[1:] / t[1:]
    err = np.abs(power - expected) / np.maximum(1.0, np.abs(expected))
    bad = float(np.max(err))
    return [] if bad <= POWER_RTOL else [f"P != E/t (relative error {bad:.2e})"]


class Checker:
    """Checks outputs of tcqb commands against oracle references.

    References are memoised per (atoms, photons, time grid): every
    repetition of a workload feeds tcqb the same inputs.
    """

    def __init__(self):
        from tcqb import oracle

        self._oracle = oracle
        self._cache: dict[tuple, np.ndarray] = {}

    def number_state_energy(self, n_atoms: int, m: int, t: np.ndarray) -> np.ndarray:
        key = (n_atoms, m, t.size, float(t[0]), float(t[-1]))
        if key not in self._cache:
            spec = self._oracle.SectorSpec(n_atoms, m)
            self._cache[key] = np.asarray(self._oracle.oracle_F(spec, t), dtype=float)
        return self._cache[key]

    def dephased_energy(self, n_atoms: int, m: int, gamma_phi: float, t: np.ndarray) -> np.ndarray:
        """Stored energy of fock:m under collective dephasing, kappa = 0.

        Dephasing by Jz commutes with the excitation number, so the state
        stays in the oracle's sector |m-k> (x) |J, -J+k>, where Jz - (-J) = k.
        The sector Lindblad generator, -i[H, .] plus the decay
        -(gamma/2)(k - l)^2 of rho_kl, is exponentiated exactly; at
        gamma = 0 this is oracle_F.
        """
        key = ("dephased", n_atoms, m, gamma_phi, t.size, float(t[0]), float(t[-1]))
        if key not in self._cache:
            h = self._oracle.sector_hamiltonian(self._oracle.SectorSpec(n_atoms, m)).dense()
            k = np.arange(h.shape[0], dtype=float)
            eye = np.eye(k.size)
            gen = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
            gen -= np.diag((gamma_phi / 2.0) * np.subtract.outer(k, k).ravel() ** 2)
            rho0 = np.zeros(k.size**2, dtype=complex)
            rho0[0] = 1.0  # all m quanta in the cavity
            diag = np.arange(k.size) * (k.size + 1)
            self._cache[key] = np.array([(expm(gen * ti) @ rho0)[diag].real @ k for ti in t])
        return self._cache[key]

    def stored_energy(self, n_atoms: int, pmf: dict[int, float], t: np.ndarray) -> np.ndarray:
        return sum(p * self.number_state_energy(n_atoms, m, t) for m, p in pmf.items())

    def check(self, spec: dict) -> list[str]:
        """Reasons the output of a command that exited 0 is wrong."""
        try:
            return getattr(self, "_check_" + spec["kind"])(spec)
        except (OSError, ValueError, KeyError, TypeError) as err:
            return [f"unreadable output: {type(err).__name__}: {err}"]

    def _check_verify(self, spec: dict) -> list[str]:
        return []

    def _check_energy(self, spec: dict) -> list[str]:
        data = _read_csv(spec["out"], ["t", "E", "P"])
        t_ref = np.linspace(0.0, spec["t_end"], spec["steps"])
        if data.shape != (t_ref.size, 3):
            return [f"{data.shape[0]} rows, expected {t_ref.size}"]
        t, energy, power = data.T
        errors = []
        if np.max(np.abs(t - t_ref)) > 1e-11 * spec["t_end"]:
            errors.append("time grid differs from linspace(0, t_end, steps)")
        ref = self.stored_energy(spec["n_atoms"], spec["pmf"], t_ref)
        gap = float(np.max(np.abs(energy - ref)))
        if not gap <= ENERGY_TOL:
            errors.append(f"|E - sum p oracle_F| = {gap:.2e} > {ENERGY_TOL:g}")
        return errors + _power_errors(t, energy, power)

    def _check_split(self, spec: dict) -> list[str]:
        doc = json.loads(Path(spec["out"]).read_text())
        pmf = spec["pmf"]
        mean = math.fsum(m * p for m, p in pmf.items())
        floor = round(mean) if abs(mean - round(mean)) < MEAN_SNAP_TOL else math.floor(mean)
        frac = max(0.0, mean - floor)
        t = np.array([spec["t"]])
        f = {m: float(self.number_state_energy(spec["n_atoms"], m, t)[0])
             for m in set(pmf) | {floor, floor + 1}}
        ref = f[floor] + frac * (f[floor + 1] - f[floor]) - math.fsum(p * f[m] for m, p in pmf.items())
        errors = []
        if not abs(doc["delta_f"] - ref) <= ENERGY_TOL:
            errors.append(f"delta_f {doc['delta_f']!r}, oracle {ref!r}")
        for key in ("group_probability_error", "group_mean_error"):
            if not abs(doc[key]) < IDENTITY_TOL:
                errors.append(f"{key} = {doc[key]!r} >= {IDENTITY_TOL:g}")
        return errors

    def _check_inequality(self, spec: dict) -> list[str]:
        doc = json.loads(Path(spec["out"]).read_text())
        max_m = spec["max_m"]
        errors = []
        if spec["which"] == 28:
            expected = max_m * (max_m + 1) // 2
            if doc["combinations"] != expected:
                errors.append(f"{doc['combinations']} combinations, expected {expected}")
            if doc["violations"] != 0 or doc["violating_indices"]:
                errors.append(f"ratio inequality reports {doc['violations']} violations")
        else:
            if doc["combinations"] != INEQ29_COMBINATIONS:
                errors.append(f"{doc['combinations']} combinations, expected {INEQ29_COMBINATIONS}")
            if len(doc["violating_indices"]) != INEQ29_VIOLATING:
                errors.append(
                    f"{len(doc['violating_indices'])} violating triples, expected {INEQ29_VIOLATING}"
                )
        return errors

    def _check_lindblad(self, spec: dict) -> list[str]:
        data = _read_csv(spec["out"], ["t", "E", "P", "trace", "min_eig", "m_expect"])
        t, energy, power, trace, min_eig, m_expect = data.T
        n_steps = int(round(spec["t_end"] / spec["dt"]))
        steps = np.arange(0, n_steps + 1, spec["stride"])
        if steps[-1] != n_steps:
            steps = np.append(steps, n_steps)
        t_ref = steps * spec["dt"]
        if t.size != t_ref.size or np.max(np.abs(t - t_ref)) > 1e-11:
            return [f"sample times differ from multiples of stride * dt ({t.size} rows)"]
        errors = _power_errors(t, energy, power)
        drift = float(np.max(np.abs(trace - 1.0)))
        if not drift < TRACE_TOL:
            errors.append(f"trace drift {drift:.2e} >= {TRACE_TOL:g}")
        lowest = float(np.min(min_eig))
        if not lowest >= MIN_EIG_GATE:
            first = float(t[np.argmax(min_eig < MIN_EIG_GATE)])
            errors.append(f"min eig(rho) {lowest:.2e} < {MIN_EIG_GATE:g} from t = {first:g}")
        if not (np.all(energy >= -ENERGY_TOL) and np.all(energy <= spec["n_atoms"] + ENERGY_TOL)):
            errors.append("stored energy outside [0, N]")
        if spec["kappa"] == 0.0:
            ref = self.dephased_energy(spec["n_atoms"], spec["photons"], spec["gamma_phi"], t_ref)
            gap = float(np.max(np.abs(energy - ref)))
            if not gap < LINDBLAD_ENERGY_TOL:
                errors.append(f"|E - exact sector evolution| = {gap:.2e} >= {LINDBLAD_ENERGY_TOL:g}")
            m_drift = float(np.max(np.abs(m_expect - m_expect[0])))
            if not m_drift < M_CONSERVE_TOL:
                errors.append(f"excitation drift {m_drift:.2e} >= {M_CONSERVE_TOL:g} at kappa = 0")
        else:
            rise = float(np.max(np.diff(m_expect), initial=0.0))
            if not rise <= M_DECAY_SLACK:
                errors.append(f"<m> rises by {rise:.2e} under photon loss")
        return errors
