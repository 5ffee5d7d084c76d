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
    oracle   -- excitation sectors (SectorSpec), exact diagonalization
                of the tridiagonal sector Hamiltonian and direct state
                evolution, the ground truth the root-built spectra are
                checked against
    lindblad -- open-system evolution under cavity decay and collective
                dephasing
    cli      -- file-based command line driver (``tcqb``)

All energies are in units of the coupling g (one quantum per excited
atom), all times in 1/g, and the drive is resonant.  Import the module
that holds a name (``from tcqb.battery import stored_energy``); the
package re-exports nothing, so a command loads only the modules it runs.
"""

__version__ = "0.1.0"
