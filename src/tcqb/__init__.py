"""Exact charging dynamics of a Tavis-Cummings quantum battery.

The modules:

    bethe    -- solve the sector root equations by warm-started Newton
                continuation (one branch per sector eigenstate)
    spectral -- sector eigenbases, either expanded from branch roots in
                the number-Dicke basis or taken from the tridiagonal
                Hamiltonian, and the exact cosine series of the
                number-state stored energy F(M, t)
    battery  -- energy tables from the tridiagonal spectra; stored energy
                / charging power for arbitrary photon distributions,
                optimal-state construction, probability splitting, and
                the hypersensitivity inequality checks
    oracle   -- exact diagonalization of the tridiagonal sector
                Hamiltonian and direct state evolution, the ground truth
                the root-built spectra are checked against
    lindblad -- open-system evolution under cavity decay and collective
                dephasing
    cli      -- file-based command line driver (``tcqb``)

All energies are in units of the coupling g (one quantum per excited
atom), all times in 1/g, and the drive is resonant.
"""

__version__ = "0.1.0"

from .bethe import BetheBranch, SectorSpec, solve_sector, solve_sectors
from .spectral import CosineSeries, SectorSpectrum, sector_spectrum, number_state_energy
from .battery import (
    EnergyTable,
    PhotonDistribution,
    coherent_distribution,
    energy_table,
    fock_distribution,
    optimal_distribution,
    stored_energy,
)
from .oracle import oracle_F, sector_hamiltonian

__all__ = [
    "__version__",
    "BetheBranch",
    "SectorSpec",
    "solve_sector",
    "solve_sectors",
    "CosineSeries",
    "SectorSpectrum",
    "sector_spectrum",
    "number_state_energy",
    "EnergyTable",
    "PhotonDistribution",
    "coherent_distribution",
    "energy_table",
    "fock_distribution",
    "optimal_distribution",
    "stored_energy",
    "oracle_F",
    "sector_hamiltonian",
]
