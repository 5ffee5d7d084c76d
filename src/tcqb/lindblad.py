"""Open-system evolution under cavity decay and collective dephasing.

Density-matrix dynamics on the truncated Fock (x) Dicke product basis
|n> (x) |J, m>, J = N/2:

    drho/dt = -i[H, rho] + (gamma_phi/2) L_Jz[rho] + (kappa/2) L_a[rho],
    L_A[rho] = 2 A rho A' - A'A rho - rho A'A.

Both jump operators preserve the maximal-spin multiplet, so the
(n_max+1)(N+1)-dimensional symmetric basis is exact for initial states
inside it.  The drive is resonant and the common phase generated by the
conserved excitation number leaves every reported observable unchanged,
so the generator uses H = g (a'J- + J+a) and rates are quoted in units
of g (times in 1/g).  Integration is classical fixed-step RK4; trace,
Hermiticity and positivity are monitored, not enforced.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

__all__ = [
    "LindbladError",
    "DimensionMismatch",
    "StepUnstable",
    "TruncationLeak",
    "OpenSystemConfig",
    "DensityMatrix",
    "build_operators",
    "lindblad_rhs",
    "TimeSeries",
    "evolve",
]


class LindbladError(Exception):
    """Base class for open-system failures."""


class DimensionMismatch(LindbladError):
    """State dimension does not match the configured basis."""


class StepUnstable(LindbladError):
    """Trace drifted beyond 1e-6; the step size is too large."""


class TruncationLeak(LindbladError):
    """Population reached the top Fock level; enlarge n_max."""


@dataclass(frozen=True)
class OpenSystemConfig:
    """Basis truncation, rates and integrator controls.

    kappa (cavity decay) and gamma_phi (collective dephasing) are in
    units of g; time step dt and horizon t_end are in 1/g.
    """

    n_atoms: int
    n_max: int
    kappa: float = 0.0
    gamma_phi: float = 0.0
    dt: float = 1e-3
    t_end: float = 5.0
    sample_stride: int = 10

    def __post_init__(self):
        if self.n_atoms < 1:
            raise ValueError("need at least one atom")
        if self.n_max < 1:
            raise ValueError("need at least two Fock levels")
        if self.kappa < 0 or self.gamma_phi < 0:
            raise ValueError("rates must be nonnegative")
        if self.dt <= 0 or self.t_end <= 0:
            raise ValueError("dt and t_end must be positive")

    @property
    def dimension(self) -> int:
        return (self.n_max + 1) * (self.n_atoms + 1)


def build_operators(n_atoms: int, n_max: int) -> dict[str, np.ndarray]:
    """Dense ladder operators on the product basis.

    Returns a, adag, jz, jplus, jminus and the excitation number
    m = a'a + jz; basis index is n*(N+1) + q with spin projection
    -J + q, q = 0..N.
    """
    J = n_atoms / 2.0
    nf = n_max + 1
    ns = n_atoms + 1
    a_f = np.diag(np.sqrt(np.arange(1, nf)), 1)
    jz_s = np.diag(np.arange(ns) - J)
    jp_s = np.diag(
        [np.sqrt(J * (J + 1) - (-J + q) * (-J + q + 1)) for q in range(ns - 1)], -1
    )
    eye_f = np.eye(nf)
    eye_s = np.eye(ns)
    a = np.kron(a_f, eye_s)
    jz = np.kron(eye_f, jz_s)
    jplus = np.kron(eye_f, jp_s)
    ops = {
        "a": a,
        "adag": a.T.copy(),
        "jz": jz,
        "jplus": jplus,
        "jminus": jplus.T.copy(),
        "m": a.T @ a + jz,
    }
    return ops


@dataclass
class DensityMatrix:
    """Hermitian unit-trace state on the product basis."""

    matrix: np.ndarray
    n_atoms: int
    n_max: int

    def __post_init__(self):
        dim = (self.n_max + 1) * (self.n_atoms + 1)
        if self.matrix.shape != (dim, dim):
            raise DimensionMismatch(
                f"state is {self.matrix.shape}, basis needs ({dim}, {dim})"
            )

    @classmethod
    def fock(cls, config: OpenSystemConfig, photons: int) -> "DensityMatrix":
        """|photons><photons| (x) ground-spin projector."""
        if photons < 0 or photons > config.n_max:
            raise ValueError("initial photon number outside the Fock truncation")
        if config.n_max < photons + 5:
            raise ValueError("n_max must exceed the initial photon number by at least 5")
        dim = config.dimension
        rho = np.zeros((dim, dim), dtype=complex)
        idx = photons * (config.n_atoms + 1)  # q = 0 is the spin ground state
        rho[idx, idx] = 1.0
        return cls(matrix=rho, n_atoms=config.n_atoms, n_max=config.n_max)

    def validate(self) -> None:
        h_err = float(np.max(np.abs(self.matrix - self.matrix.conj().T)))
        if h_err >= 1e-10:
            raise ValueError(f"state is not Hermitian: deviation {h_err:.3e}")
        tr_err = abs(self.matrix.trace().real - 1.0)
        if tr_err >= 1e-9:
            raise ValueError(f"trace deviates from 1 by {tr_err:.3e}")


class _Generator:
    """Master-equation generator assembled as one sparse superoperator.

    On the row-major vectorization vec(A rho B) = (A (x) B^T) vec(rho),
    the commutator becomes -i(H (x) I - I (x) H^T), both anticommutator
    halves and the dephasing sandwich collapse to a single real diagonal
    -(gamma/2)(jz_i - jz_j)^2 - (kappa/2)(n_i + n_j), and the photon-loss
    refill is kappa (a (x) a) for the real annihilator.  One CSR matvec
    per right-hand-side evaluation.
    """

    def __init__(self, config: OpenSystemConfig):
        self.config = config
        ops = build_operators(config.n_atoms, config.n_max)
        h = sp.csr_matrix(ops["adag"] @ ops["jminus"] + ops["jplus"] @ ops["a"])
        a = sp.csr_matrix(ops["a"])
        self.jz_diag = np.diag(ops["jz"]).real.copy()
        self.n_diag = np.arange(config.dimension) // (config.n_atoms + 1) * 1.0
        self.m_diag = self.n_diag + self.jz_diag
        dim = config.dimension
        eye = sp.identity(dim, format="csr")
        lop = -1j * (sp.kron(h, eye, format="csr") - sp.kron(eye, h.T, format="csr"))
        decay = np.zeros((dim, dim))
        if config.gamma_phi:
            decay -= (config.gamma_phi / 2.0) * (
                self.jz_diag[:, None] - self.jz_diag[None, :]
            ) ** 2
        if config.kappa:
            decay -= (config.kappa / 2.0) * (self.n_diag[:, None] + self.n_diag[None, :])
        lop = lop + sp.diags(decay.ravel(), format="csr")
        if config.kappa:
            lop = lop + config.kappa * sp.kron(a, a, format="csr")
        self.lop = lop

    def rhs(self, rho: np.ndarray) -> np.ndarray:
        dim = self.config.dimension
        return (self.lop @ rho.reshape(-1)).reshape(dim, dim)


def lindblad_rhs(rho: np.ndarray, config: OpenSystemConfig) -> np.ndarray:
    """drho/dt for a single state (builds the generator each call).

    For time stepping use evolve, which reuses the precomputed
    generator.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (config.dimension, config.dimension):
        raise DimensionMismatch(
            f"state is {rho.shape}, basis needs ({config.dimension}, {config.dimension})"
        )
    return _Generator(config).rhs(rho)


@dataclass
class TimeSeries:
    """Sampled observables of one open-system run (energies in quanta)."""

    t: np.ndarray
    energy: np.ndarray
    power: np.ndarray
    trace: np.ndarray
    min_eig: np.ndarray
    m_expect: np.ndarray
    herm_drift: float = 0.0
    final_state: np.ndarray | None = field(default=None, repr=False)


def evolve(rho0: DensityMatrix | np.ndarray, config: OpenSystemConfig) -> TimeSeries:
    """Fixed-step RK4 integration with sampled diagnostics.

    Stored energy is <Jz>(t) + N/2 (the atoms start in the ground
    state), power is E/t (0 at t = 0).  Each sample is checked when it
    is reached: StepUnstable when the trace drifts beyond 1e-6 and
    TruncationLeak when population at the top Fock level exceeds 1e-6
    stop the run there.  final_state is the evolved state at t_end.
    """
    if isinstance(rho0, DensityMatrix):
        if (rho0.n_atoms, rho0.n_max) != (config.n_atoms, config.n_max):
            raise DimensionMismatch("state basis differs from config basis")
        rho = rho0.matrix.astype(complex).copy()
    else:
        rho = np.asarray(rho0, dtype=complex).copy()
        if rho.shape != (config.dimension, config.dimension):
            raise DimensionMismatch(
                f"state is {rho.shape}, basis needs ({config.dimension}, {config.dimension})"
            )
    gen = _Generator(config)
    n_steps = int(round(config.t_end / config.dt))
    stride = max(1, config.sample_stride)
    ns = config.n_atoms + 1
    top_rows = slice((config.n_max) * ns, (config.n_max + 1) * ns)
    half_n = config.n_atoms / 2.0
    rows: list[tuple[float, float, float, float, float]] = []
    herm_drift = 0.0

    def record(t_i: float) -> None:
        """Check the current state and append its observables."""
        nonlocal herm_drift
        tr = rho.trace().real
        if abs(tr - 1.0) > 1e-6:
            raise StepUnstable(f"trace drifted to {tr!r} at t = {t_i:g}; reduce dt")
        diag = np.diag(rho).real
        top_pop = float(np.sum(diag[top_rows]))
        if top_pop > 1e-6:
            raise TruncationLeak(
                f"population {top_pop:.3e} at n = n_max at t = {t_i:g}; raise n_max"
            )
        herm_drift = max(herm_drift, float(np.max(np.abs(rho - rho.conj().T))))
        min_eig = float(np.linalg.eigvalsh((rho + rho.conj().T) / 2.0)[0])
        rows.append((t_i, float(gen.jz_diag @ diag) + half_n, tr, min_eig, float(gen.m_diag @ diag)))

    lop = gen.lop
    y = rho.reshape(-1)
    rho = y.reshape(rho.shape)  # the state is a view of the integration vector
    dt = config.dt
    record(0.0)
    for step in range(1, n_steps + 1):
        k1 = lop @ y
        k2 = lop @ (y + 0.5 * dt * k1)
        k3 = lop @ (y + 0.5 * dt * k2)
        k4 = lop @ (y + dt * k3)
        y += (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        if step % stride == 0 or step == n_steps:
            record(step * dt)

    t_out, energy, trace, min_eig, m_expect = (np.array(col) for col in zip(*rows))
    power = np.zeros_like(energy)
    power[1:] = energy[1:] / t_out[1:]
    return TimeSeries(
        t=t_out,
        energy=energy,
        power=power,
        trace=trace,
        min_eig=min_eig,
        m_expect=m_expect,
        herm_drift=herm_drift,
        final_state=rho,
    )
