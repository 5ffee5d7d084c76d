"""Open-system evolution under cavity decay and collective dephasing.

Density-matrix dynamics on the truncated Fock (x) Dicke product basis
|n> (x) |J, m>, J = N/2:

    drho/dt = -i[H, rho] + (gamma_phi/2) L_Jz[rho] + (kappa/2) L_a[rho],
    L_A[rho] = 2 A rho A' - A'A rho - rho A'A.

Both jump operators preserve the maximal-spin multiplet, so the
symmetric basis is exact for initial states inside it.  The drive is
resonant and the common phase generated by the conserved excitation
number leaves every reported observable unchanged, so the generator
uses H = g (a'J- + J+a) and rates are quoted in units of g (times in
1/g).

H, a and Jz respect the excitation number M = n + q (q = m + J) and no
term raises it (weak U(1) symmetry), and the reported observables Jz
and M are diagonal in M.  So, as in the closed system, the stored
energy depends on the field only through its photon distribution p(M):
evolve starts from sum_M p(M) |M><M| (x) |g><g| and integrates only the
blocks rho_M, M = 0..M_top, with classical fixed-step RK4.  Each block
lives in the sector basis |M-k> (x) |J, -J+k> of the closed system, and
its generator is built from oracle.sector_hamiltonian and stored as at
most six nonzeros per row, applied with numpy gathers.  The dense
product-basis pieces (DensityMatrix, build_operators, lindblad_rhs) are
the reference it is checked against.  Trace, Hermiticity and
positivity are monitored, not enforced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import oracle
from .battery import PhotonDistribution
from .bethe import SectorSpec

__all__ = [
    "LindbladError",
    "DimensionMismatch",
    "StepUnstable",
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
    """Trace drifted or min eig(rho) fell beyond 1e-6; the step is too large."""


@dataclass(frozen=True)
class OpenSystemConfig:
    """Rates, integrator controls and the product-basis truncation.

    n_max (the highest Fock level) sizes only the dense reference
    (DensityMatrix, build_operators, lindblad_rhs); evolve does not read
    it.  kappa (cavity decay) and gamma_phi (collective dephasing) are in
    units of g; time step dt and horizon t_end are in 1/g, and t_end
    must be a whole number of steps (to a relative 1e-9), so the run
    ends exactly at t_end.
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
        if not all(math.isfinite(x) for x in (self.kappa, self.gamma_phi, self.dt, self.t_end)):
            raise ValueError("rates, dt and t_end must be finite")
        if self.kappa < 0 or self.gamma_phi < 0:
            raise ValueError("rates must be nonnegative")
        if not 0 < self.dt <= self.t_end:
            raise ValueError(f"need 0 < dt <= t_end, got dt = {self.dt:g}, t_end = {self.t_end:g}")
        steps = self.t_end / self.dt
        if abs(steps - round(steps)) > 1e-9 * steps:
            raise ValueError(f"t_end = {self.t_end:g} is not a whole number of steps dt = {self.dt:g}")
        if self.sample_stride < 1:
            raise ValueError(f"sample stride must be at least 1, got {self.sample_stride}")

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
    return {
        "a": a,
        "adag": a.T.copy(),
        "jz": jz,
        "jplus": jplus,
        "jminus": jplus.T.copy(),
        "m": a.T @ a + jz,
    }


@dataclass
class DensityMatrix:
    """Hermitian unit-trace state on the product basis.

    The dense start state of the lindblad_rhs reference; evolve takes a
    photon distribution instead.
    """

    matrix: np.ndarray
    n_atoms: int
    n_max: int

    def __post_init__(self):
        dim = (self.n_max + 1) * (self.n_atoms + 1)
        if self.matrix.shape != (dim, dim):
            raise DimensionMismatch(f"state is {self.matrix.shape}, basis needs ({dim}, {dim})")

    @classmethod
    def fock(cls, config: OpenSystemConfig, photons: int) -> "DensityMatrix":
        """|photons><photons| (x) ground-spin projector."""
        if photons < 0 or photons > config.n_max:
            raise ValueError("initial photon number outside the Fock truncation")
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


@dataclass(frozen=True)
class _RowPadded:
    """Square sparse matrix stored as W nonzeros per row, padded with zeros.

    Row i holds vals[w, i] at column cols[w, i], w = 0..W-1, sorted by
    column; y -> sum_w vals[w] * y[cols[w]] is one pass per w over
    contiguous length-n vectors.
    """

    cols: np.ndarray
    vals: np.ndarray

    def __matmul__(self, y: np.ndarray) -> np.ndarray:
        out = self.vals[0] * y[self.cols[0]]
        for cols, vals in zip(self.cols[1:], self.vals[1:]):
            out += vals * y[cols]
        return out


def _block_generator(config: OpenSystemConfig, m_top: int) -> _RowPadded:
    """Master-equation generator on the concatenated vec(rho_M), M = 0..m_top.

    Block M lives in the basis |M-k> (x) |J, -J+k> of
    oracle.sector_hamiltonian.  On the row-major vectorization
    vec(A rho B) = (A (x) B^T) vec(rho), its commutator is
    -i(H_M (x) I - I (x) H_M) (H_M is real symmetric and tridiagonal):
    -i c on the neighbours (k +- 1, l) and +i c on (k, l +- 1).  Both
    anticommutator halves and the dephasing sandwich collapse to a real
    diagonal -(gamma/2)(k - l)^2 - (kappa/2)((M-k) + (M-l)), and photon
    loss feeds (k, l) of block M from (k, l) of block M+1 with weight
    kappa sqrt((M+1-k)(M+1-l)).  No term raises M, so sectors above
    m_top stay 0.  Every row thus has at most six nonzeros.  A slot that
    is zero in every row (the refill at kappa = 0, the diagonal at
    kappa = gamma_phi = 0) is dropped, and each row is sorted by column.
    """
    specs = [SectorSpec(config.n_atoms, m) for m in range(m_top + 1)]
    sizes = np.array([spec.branch_count for spec in specs])
    offsets = np.concatenate([[0], np.cumsum(sizes**2)])
    c_offsets = np.concatenate([[0], np.cumsum(sizes - 1)])
    # couplings of all blocks; the trailing 0 keeps masked-out neighbour indices in range
    c = np.concatenate([oracle.sector_hamiltonian(spec).offdiag for spec in specs] + [[0.0]])
    row = np.arange(offsets[-1])
    m = np.repeat(np.arange(m_top + 1), sizes**2)
    size, above = sizes[m], np.minimum(m + 1, m_top)
    k, l = np.divmod(row - offsets[m], size)
    c_m = c_offsets[m]  # c[c_m + j] couples k = j and j + 1 in block m
    slots = [  # (present, column, value); the diagonal first
        (np.ones(row.size, dtype=bool), row, -(config.gamma_phi / 2.0) * (k - l) ** 2
         - (config.kappa / 2.0) * ((m - k) + (m - l))),
        (k > 0, row - size, -1j * c[c_m + k - 1]),
        (k < size - 1, row + size, -1j * c[c_m + k]),
        (l > 0, row - 1, 1j * c[c_m + l - 1]),
        (l < size - 1, row + 1, 1j * c[c_m + l]),
        (m < m_top, offsets[above] + k * sizes[above] + l,
         config.kappa * (np.sqrt(m + 1.0 - k) * np.sqrt(m + 1.0 - l))),
    ]
    cols = np.array([np.where(present, col, row) for present, col, _ in slots])
    vals = np.array([np.where(present, val, 0.0) for present, _, val in slots], dtype=complex)
    keep = np.any(vals != 0, axis=1)
    keep[0] = True  # so W >= 1 when every slot is zero (a closed run from M = 0)
    order = np.argsort(cols[keep], axis=0, kind="stable")
    return _RowPadded(cols=np.take_along_axis(cols[keep], order, axis=0),
                      vals=np.take_along_axis(vals[keep], order, axis=0))


def lindblad_rhs(rho: np.ndarray, config: OpenSystemConfig) -> np.ndarray:
    """drho/dt for any full state, by dense operator products.

    The reference that the block generator used by evolve is checked
    against; it builds the operators on every call.
    """
    rho = DensityMatrix(np.asarray(rho, dtype=complex), config.n_atoms, config.n_max).matrix
    ops = build_operators(config.n_atoms, config.n_max)
    a, adag, jz = ops["a"], ops["adag"], ops["jz"]
    h = adag @ ops["jminus"] + ops["jplus"] @ a
    out = -1j * (h @ rho - rho @ h)
    if config.gamma_phi:
        jz2 = jz @ jz
        out += (config.gamma_phi / 2.0) * (2.0 * jz @ rho @ jz - jz2 @ rho - rho @ jz2)
    if config.kappa:
        n_op = adag @ a
        out += (config.kappa / 2.0) * (2.0 * a @ rho @ adag - n_op @ rho - rho @ n_op)
    return out


@dataclass
class TimeSeries:
    """Sampled observables of one open-system run (energies in quanta).

    final_state holds the evolved blocks rho_M, M = 0..M_top, at t_end,
    each in its sector basis |M-k> (x) |J, -J+k>.
    """

    t: np.ndarray
    energy: np.ndarray
    power: np.ndarray
    trace: np.ndarray
    min_eig: np.ndarray
    m_expect: np.ndarray
    herm_drift: float = 0.0
    final_state: list[np.ndarray] | None = field(default=None, repr=False)


def evolve(dist: PhotonDistribution, config: OpenSystemConfig) -> TimeSeries:
    """Fixed-step RK4 on the excitation blocks rho_M of a field p(M).

    The run starts from sum_M p(M) |M><M| (x) |g><g|: the k = l = 0
    entry of block M holds p(M).  Only the blocks M = 0..M_top,
    M_top = dist.max_support, are integrated, each in its sector basis
    with the generator built from oracle.sector_hamiltonian; no term
    raises M, so the result does not depend on config.n_max, which
    evolve never reads.  Any state with the same p(M), a coherent field
    among them, has the same energy and <M> at every time, because the
    generator commutes with the excitation-number phase and both
    observables are diagonal in M.  min_eig and herm_drift describe the
    M-dephased state that is integrated.  Stored energy is <Jz>(t) + N/2
    (the atoms start in the ground state), power is E/t (0 at t = 0).
    Each sample is checked when it is reached and stops the run there
    with StepUnstable when the trace drifts beyond 1e-6 or min eig(rho)
    falls below -1e-6.
    """
    m_top = dist.max_support
    sizes = [SectorSpec(config.n_atoms, m).branch_count for m in range(m_top + 1)]
    lop = _block_generator(config, m_top)
    offsets = np.cumsum([0] + [s**2 for s in sizes])
    y = np.zeros(offsets[-1], dtype=complex)
    y[offsets[:-1]] = [dist.prob(m) for m in range(m_top + 1)]
    mats = [y[o : o + s**2].reshape(s, s) for o, s in zip(offsets, sizes)]
    diag_pos = np.concatenate([o + np.arange(s) * (s + 1) for o, s in zip(offsets, sizes)])
    q = np.concatenate([np.arange(s) for s in sizes])  # atomic excitations k
    m_shift = np.concatenate([np.full(s, m - config.n_atoms / 2.0) for m, s in enumerate(sizes)])
    n_steps = int(round(config.t_end / config.dt))
    rows: list[tuple[float, float, float, float, float]] = []
    herm_drift = 0.0

    def record(t_i: float) -> None:
        """Check the current state and append its observables."""
        nonlocal herm_drift
        diag = y[diag_pos].real
        tr = float(diag.sum())
        if not abs(tr - 1.0) <= 1e-6:  # a nan trace fails too
            raise StepUnstable(f"trace drifted to {tr!r} at t = {t_i:g}; reduce dt")
        herm_drift = max([herm_drift] + [float(np.max(np.abs(r - r.conj().T))) for r in mats])
        # every sector above M_top is empty: exact zero eigenvalues of rho
        min_eig = min([np.linalg.eigvalsh((r + r.conj().T) / 2.0)[0] for r in mats] + [0.0])
        if min_eig < -1e-6:
            raise StepUnstable(f"min eig(rho) fell to {min_eig:.3e} at t = {t_i:g}; reduce dt")
        rows.append((t_i, float(q @ diag), tr, float(min_eig), float(m_shift @ diag)))

    dt = config.dt
    record(0.0)
    for step in range(1, n_steps + 1):
        k1 = lop @ y
        k2 = lop @ (y + 0.5 * dt * k1)
        k3 = lop @ (y + 0.5 * dt * k2)
        k4 = lop @ (y + dt * k3)
        y += (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        if step % config.sample_stride == 0 or step == n_steps:
            record(step * dt)

    t_out, energy, trace, min_eig, m_expect = (np.array(col) for col in zip(*rows))
    power = np.zeros_like(energy)
    power[1:] = energy[1:] / t_out[1:]
    return TimeSeries(t=t_out, energy=energy, power=power, trace=trace, min_eig=min_eig,
                      m_expect=m_expect, herm_drift=herm_drift, final_state=mats)
