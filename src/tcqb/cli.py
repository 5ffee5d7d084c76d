"""Command-line driver: file-based inputs, plot-ready CSV/JSON outputs.

Every command runs through `Runner`, which maps typed errors to exit
codes through EXIT_TABLE and writes the manifest (parameter echo, seed,
version, wall time, warnings) next to --out.  Data files are written
atomically, never hold nan or inf, and are byte-identical across reruns
with equal inputs.  `energy`, `split-check` and `inequality` build their
energy tables from the exact-diagonalization sector spectra and accept
--seed only to echo it; `solve`, `spectrum` and `verify` run the root
solver, which is where the seed is used.

Exit codes: 2 solver or spectrum failures, click usage errors (a nan
or inf number among them) and an --out that cannot be created (one
stderr line naming the path), 3 distribution/table errors and results
that are not finite, 4 verification failure, 5 open-system errors.
"""

from __future__ import annotations

import json
import math
import os
import time
from contextlib import contextmanager
from itertools import combinations_with_replacement
from pathlib import Path

import click
import numpy as np

from . import __version__, battery, bethe, oracle, spectral

MAX_SECTOR = 64


class InputError(Exception):
    """A distribution argument or input file that cannot be read."""


class NonFiniteResult(Exception):
    """A result holds nan or inf where a number would be written or printed."""


class NoBranches(Exception):
    """verify could neither solve nor read the branches it checks."""


class VerificationFailed(Exception):
    """An invariant that verify checks does not hold."""


class OpenSystemError(Exception):
    """lindblad refused its configuration or its run lost trace or positivity."""


# Each typed error a command may raise, its exit code, and the words between
# the command name and the message on its one stderr line; the first row
# that matches wins.
EXIT_TABLE = (
    ((bethe.MissingBranches, oracle.ConvergenceFailure, spectral.SpectralError), 2, "failed"),
    ((InputError, battery.BatteryError, NonFiniteResult), 3, "failed"),
    ((NoBranches,), 4, "could not obtain branches"),
    ((VerificationFailed,), 4, "failed"),
    ((OpenSystemError,), 5, "failed"),
)


class FiniteFloat(click.types.FloatParamType):
    """A float flag that rejects nan and inf (and, if positive, x <= 0) as a usage error."""

    def __init__(self, positive: bool = False):
        self.positive = positive

    def convert(self, value, param, ctx):
        x = super().convert(value, param, ctx)
        if not math.isfinite(x):
            self.fail(f"{value!r} is not a finite number", param, ctx)
        if self.positive and x <= 0:
            self.fail(f"{value!r} is not positive", param, ctx)
        return x


FINITE = FiniteFloat()
POSITIVE = FiniteFloat(positive=True)


def _fmt(x: float) -> str:
    return f"{x:.12g}"


@contextmanager
def _creating(path: Path):
    """Exit 2, as for a usage error, with one line when path cannot be created."""
    try:
        yield
    except OSError as err:
        click.echo(f"cannot write {path}: {err}", err=True)
        raise SystemExit(click.UsageError.exit_code) from None


def _write_text(path: Path, text: str) -> None:
    """Write a sibling temporary file, then rename it over path."""
    with _creating(path):
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            tmp.write_text(text)
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)


def _dumps(payload: dict, indent: int | None = None) -> str:
    try:
        return json.dumps(payload, indent=indent, sort_keys=True, allow_nan=False)
    except ValueError:
        raise NonFiniteResult("result holds nan or inf") from None


def _write_json(path: Path, payload: dict) -> None:
    _write_text(path, _dumps(payload, indent=2) + "\n")


def _write_or_print(out: Path | None, payload: dict) -> None:
    """Write payload to --out, or print it as one line of JSON without one."""
    if out:
        _write_json(out, payload)
        click.echo(f"wrote {out}")
    else:
        click.echo(_dumps(payload))


def _write_csv(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    for name, column in zip(header, columns):
        if not np.isfinite(column).all():
            raise NonFiniteResult(f"column {name} of {path.name} holds nan or inf")
    lines = [",".join(header)]
    for row in zip(*columns):
        lines.append(",".join(_fmt(float(v)) for v in row))
    _write_text(path, "\n".join(lines) + "\n")


class Runner(click.Command):
    """Runs a command body, which returns its manifest warnings or None.

    Typed errors exit as EXIT_TABLE says.  A run with --out writes the manifest
    next to it, whose config is every parameter but --out and --seed.
    """

    def invoke(self, ctx: click.Context) -> None:
        start = time.perf_counter()
        try:
            # Outputs refuse nan and inf, so numpy's warnings would only add stderr lines.
            with np.errstate(over="ignore", invalid="ignore"):
                warnings = super().invoke(ctx)
        except Exception as err:
            for types, code, lead in EXIT_TABLE:
                if isinstance(err, types):
                    click.echo(f"{self.name} {lead}: {err}", err=True)
                    raise SystemExit(code) from None
            raise
        config = dict(ctx.params)
        out = config.pop("out", None)
        seed = config.pop("seed", None)
        if out:
            path = out / "manifest.json" if out.is_dir() else out.with_name(out.name + ".manifest.json")
            wall_time = round(time.perf_counter() - start, 3)
            _write_json(path, {"command": self.name, "config": config, "seed": seed, "version": __version__,
                               "wall_time_s": wall_time, "warnings": warnings or []})


def _completeness_warnings(n_atoms: int, chains: dict[int, list[bethe.BetheBranch]]) -> list[str]:
    return [f"sector (N={n_atoms}, M={m}): zero-energy state has no regular root "
            f"set (odd M > 2J); eigenvector fixed by completeness"
            for m, branches in sorted(chains.items()) for b in branches if b.is_completeness]


def _parse_init(text: str) -> battery.PhotonDistribution:
    """fock:M | coherent:ALPHA2[:TRUNC] | file:PATH, with support <= MAX_SECTOR."""
    kind, _, rest = text.partition(":")
    if kind not in ("fock", "coherent", "file"):
        raise InputError(f"unknown initial state {text!r} (fock:M, coherent:A2[:T], file:PATH)")
    try:
        if kind == "fock":
            dist = battery.fock_distribution(int(rest))
        elif kind == "coherent":
            parts = rest.split(":")
            if len(parts) > 2:
                raise ValueError(f"{len(parts)} fields after 'coherent:', expected ALPHA2[:TRUNC]")
            mean = float(parts[0])
            trunc = int(parts[1]) if len(parts) > 1 else None
            if mean > MAX_SECTOR or (trunc or 0) > MAX_SECTOR:
                raise battery.SupportExceedsTable(
                    f"coherent state {text!r} reaches beyond M = {MAX_SECTOR}, "
                    f"where supported sectors stop"
                )
            dist = battery.coherent_distribution(mean, trunc)
        else:
            dist = battery.PhotonDistribution.from_dict(json.loads(Path(rest).read_text()))
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as err:
        raise InputError(f"bad distribution {text!r}: {type(err).__name__}: {err}") from err
    if dist.max_support > MAX_SECTOR:
        raise battery.SupportExceedsTable(
            f"distribution reaches M = {dist.max_support}; supported sectors stop at {MAX_SECTOR}"
        )
    return dist


# The table commands read no seed; they keep the option so that the
# same flags work on every command, and echo it in the manifest.
_echoed_seed = click.option("--seed", type=int, default=0, show_default=True,
                            help="Recorded in the manifest; the energy table uses no seed.")


def _config_callback(ctx: click.Context, param: click.Parameter, value: str | None):
    if value:
        try:
            defaults = json.loads(Path(value).read_text())
        except (OSError, ValueError) as err:
            raise click.BadParameter(f"cannot read {value}: {err}") from err
        if not isinstance(defaults, dict):
            raise click.BadParameter(f"{value} must hold a JSON object of per-command defaults")
        ctx.default_map = defaults
    return value


@click.group()
@click.version_option(version=__version__)
@click.option(
    "--config",
    type=click.Path(exists=True, dir_okay=False),
    callback=_config_callback,
    is_eager=True,
    expose_value=False,
    help="JSON file with per-command defaults; explicit flags override.",
)
def main():
    """Charging dynamics of a Tavis-Cummings quantum battery."""


main.command_class = Runner  # every command below runs through the runner


@main.command()
@click.option("--n-atoms", type=click.IntRange(1, MAX_SECTOR), required=True)
@click.option("--m-max", type=click.IntRange(1, MAX_SECTOR), required=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(file_okay=False, path_type=Path), required=True)
def solve(n_atoms, m_max, seed, out):
    """Solve sector root sets M = 1..m-max by warm-started continuation."""
    with _creating(out):
        out.mkdir(parents=True, exist_ok=True)
    chains = bethe.solve_sectors(n_atoms, m_max, seed=seed)
    for m in range(1, m_max + 1):
        _write_json(out / f"sector_M{m:02d}.json", bethe.branches_to_payload(n_atoms, m, seed, chains[m]))
    click.echo(f"solved {m_max} sectors for N={n_atoms} -> {out}")
    return _completeness_warnings(n_atoms, chains)


@main.command()
@click.option("--n-atoms", type=click.IntRange(1, MAX_SECTOR), required=True)
@click.option("--m-max", type=click.IntRange(0, MAX_SECTOR), required=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(file_okay=False, path_type=Path), required=True)
def spectrum(n_atoms, m_max, seed, out):
    """Per-sector eigenbasis summaries and stored-energy series."""
    with _creating(out):
        out.mkdir(parents=True, exist_ok=True)
    chains = bethe.solve_sectors(n_atoms, m_max, seed=seed)
    spectra = [spectral.sector_spectrum(bethe.SectorSpec(n_atoms, m), chains[m])
               for m in range(0, m_max + 1)]
    series = [spectral.number_state_energy(s) for s in spectra]
    for m, spect in enumerate(spectra):
        payload = {
            "n_atoms": n_atoms,
            "m": m,
            "energies": [float(_fmt(e)) for e in spect.energies],
            "overlaps": [float(_fmt(spectral.initial_overlap(spect, s))) for s in range(spect.dimension)],
            "norms": [float(_fmt(x)) for x in spect.norms],
            "series": series[m].to_dict(m),
        }
        _write_json(out / f"spectrum_M{m:02d}.json", payload)
    click.echo(f"wrote {m_max + 1} sector spectra -> {out}")
    return _completeness_warnings(n_atoms, chains)


@main.command()
@click.option("--init", required=True, help="fock:M | coherent:ALPHA2[:TRUNC] | file:PATH")
@click.option("--n-atoms", type=click.IntRange(1, MAX_SECTOR), required=True)
@click.option("--t-end", type=POSITIVE, default=3.0, show_default=True)
@click.option("--steps", type=click.IntRange(2, 2_000_000), default=2000, show_default=True)
@_echoed_seed
@click.option("--out", type=click.Path(dir_okay=False, path_type=Path), required=True)
def energy(init, n_atoms, t_end, steps, seed, out):
    """Stored energy and average power over a uniform time grid."""
    dist = _parse_init(init)
    table = battery.energy_table(n_atoms, dist.max_support)
    t = np.linspace(0.0, t_end, steps)
    energy = battery.stored_energy(dist, table, t)
    power = np.zeros_like(energy)
    power[1:] = energy[1:] / t[1:]
    _write_csv(out, ["t", "E", "P"], [t, energy, power])
    click.echo(f"wrote {steps} samples -> {out}")


@main.command()
@click.option("--mean", type=FINITE, required=True, help="Target mean photon number.")
@click.option("--out", type=click.Path(dir_okay=False, path_type=Path), default=None)
def optimal(mean, out):
    """The optimal (two-point) initial photon distribution for a mean."""
    _write_or_print(out, battery.optimal_distribution(mean).to_dict())


@main.command("split-check")
@click.option("--dist", required=True, help="fock:M | coherent:A2[:T] | file:PATH")
@click.option("--n-atoms", type=click.IntRange(1, MAX_SECTOR), required=True)
@click.option("--t", type=FINITE, default=0.3, show_default=True,
              help="Time at which the expectation gap is evaluated.")
@_echoed_seed
@click.option("--out", type=click.Path(dir_okay=False, path_type=Path), default=None)
def split_check(dist, n_atoms, t, seed, out):
    """Split a distribution against the optimal one and cross-check the gap."""
    pmf = _parse_init(dist)
    tableau = battery.split(pmf)
    err_p, err_m = tableau.identity_errors(pmf)
    table = battery.energy_table(n_atoms, max(pmf.max_support, tableau.floor + 1))
    gap = battery.delta_F(pmf, table, t)
    _write_or_print(out, {
        "dist": pmf.to_dict()["probs"],
        "mean": float(_fmt(pmf.mean)),
        "groups": tableau.d,
        "group_probability_error": float(_fmt(err_p)),
        "group_mean_error": float(_fmt(err_m)),
        "t": t,
        "delta_f": float(_fmt(gap)),
    })


@main.command()
@click.option("--which", type=click.Choice(["28", "29"]), required=True,
              help="28: ratio bound; 29: derivative ordering.")
@click.option("--n-atoms", type=click.IntRange(1, MAX_SECTOR), default=10, show_default=True)
@click.option("--max-m", type=click.IntRange(1, MAX_SECTOR), required=True)
@_echoed_seed
@click.option("--out", type=click.Path(dir_okay=False, path_type=Path), default=None)
def inequality(which, n_atoms, max_m, seed, out):
    """Exhaustive grid search for violations of a stored-energy inequality."""
    table = battery.energy_table(n_atoms, max_m)
    check, arity = ((battery.check_ratio_inequality, 2) if which == "28"
                    else (battery.check_derivative_inequality, 3))
    # Every (M, m[, m0]) with M >= m (>= m0) >= 1, in lexicographic order.
    combos = sorted(c[::-1] for c in combinations_with_replacement(range(1, max_m + 1), arity))
    reports = [check(table, *c) for c in combos]
    bad = [r for r in reports if not r.holds]
    total_viol = sum(r.n_violations for r in bad)
    click.echo(f"{total_viol} violations over {len(reports)} index combinations")
    if bad:
        worst = max(bad, key=lambda r: r.max_excess)
        click.echo(
            f"worst: indices {worst.indices} excess {_fmt(worst.max_excess)} at t={_fmt(worst.argmax_t)}"
        )
    if out:
        _write_json(out, {
            "which": int(which),
            "n_atoms": n_atoms,
            "max_m": max_m,
            "combinations": len(reports),
            "violations": total_viol,
            "violating_indices": [list(r.indices) for r in bad],
        })


@main.command()
@click.option("--e-known", type=FINITE, required=True, help="Stored energy of the reference sector.")
@click.option("--m", "m_ref", type=click.IntRange(1, MAX_SECTOR), required=True, help="Reference photon number.")
@click.option("--e-observed", type=FINITE, required=True, help="Stored energy of the unknown sector.")
def estimate(e_known, m_ref, e_observed):
    """Photon-number estimate m * E_observed / E_known."""
    value = battery.estimate_photon_number(e_known, m_ref, e_observed)
    if not math.isfinite(value):
        raise NonFiniteResult(f"photon-number estimate is {value}")
    click.echo(_fmt(value))


@main.command("lindblad")
@click.option("--n-atoms", type=click.IntRange(1, 32), required=True)
@click.option("--init", default="fock:10", show_default=True,
              help="fock:M | coherent:ALPHA2[:TRUNC] | file:PATH; the run depends only on p(M).")
@click.option("--kappa", type=FINITE, required=True, help="Cavity decay rate (units of g).")
@click.option("--gamma-phi", type=FINITE, required=True, help="Collective dephasing rate (units of g).")
@click.option("--dt", type=FINITE, default=1e-3, show_default=True)
@click.option("--t-end", type=FINITE, default=5.0, show_default=True)
@click.option("--stride", type=click.IntRange(1), default=10, show_default=True, help="Steps between samples.")
@click.option("--out", type=click.Path(dir_okay=False, path_type=Path), required=True)
def lindblad_cmd(n_atoms, init, kappa, gamma_phi, dt, t_end, stride, out):
    """Open-system stored energy under cavity decay and collective dephasing."""
    # Imported here: loading lindblad adds 7-10 ms to a command's start-up
    # (no cached .pyc), and only this command uses it.
    from . import lindblad

    dist = _parse_init(init)
    try:
        # evolve never reads n_max; it sizes the product basis of the reference.
        config = lindblad.OpenSystemConfig(
            n_atoms=n_atoms, n_max=dist.max_support + 1, kappa=kappa, gamma_phi=gamma_phi,
            dt=dt, t_end=t_end, sample_stride=stride,
        )
        ts = lindblad.evolve(dist, config)
    except (lindblad.LindbladError, ValueError) as err:
        raise OpenSystemError(str(err)) from err
    _write_csv(out, ["t", "E", "P", "trace", "min_eig", "m_expect"],
               [ts.t, ts.energy, ts.power, ts.trace, ts.min_eig, ts.m_expect])
    click.echo(f"wrote {ts.t.size} samples -> {out}")


def _read_branches(path: Path, m: int) -> list[bethe.BetheBranch]:
    """The branches of sector m's file; unreadable or malformed content is an InputError."""
    try:
        branches = bethe.branches_from_payload(json.loads(path.read_text()))
    except (OSError, ValueError, KeyError, TypeError, bethe.BetheError) as err:
        raise InputError(f"{path.name}: {type(err).__name__}: {err}") from err
    for i, b in enumerate(branches):
        if not b.is_completeness and len(b.roots) != m:
            raise InputError(f"{path.name}: branch {i} has {len(b.roots)} roots, sector M={m} needs {m}")
    return branches


@main.command()
@click.option("--n-atoms", type=click.IntRange(1, MAX_SECTOR), required=True)
@click.option("--m-max", type=click.IntRange(0, MAX_SECTOR), required=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--dir", "branch_dir", type=click.Path(file_okay=False, exists=True), default=None,
              help="Validate previously solved sector files instead of solving fresh.")
def verify(n_atoms, m_max, seed, branch_dir):
    """Cross-check the root-solver pipeline against exact diagonalization."""
    failures: list[str] = []

    def check(name: str, ok: bool, detail: str = ""):
        status = "ok" if ok else "FAIL"
        click.echo(f"  [{status}] {name}" + (f"  ({detail})" if detail else ""))
        if not ok:
            failures.append(name)

    try:
        if branch_dir:
            chains = {m: _read_branches(Path(branch_dir) / f"sector_M{m:02d}.json", m)
                      for m in range(1, m_max + 1)}
            chains[0] = [bethe.BetheBranch(roots=(), energy=0.0, residual=0.0)]
        else:
            chains = bethe.solve_sectors(n_atoms, m_max, seed=seed)
    except (bethe.MissingBranches, InputError) as err:
        raise NoBranches(str(err)) from err

    grid = np.linspace(0.0, 3.0, 2000)
    for m in range(0, m_max + 1):
        spec = bethe.SectorSpec(n_atoms, m)
        branches = chains[m]
        click.echo(f"sector M={m}:")
        check("branch count = min(2J, M) + 1", len(branches) == spec.branch_count,
              f"{len(branches)}/{spec.branch_count}")
        res = max((b.residual for b in branches), default=0.0)
        check("residuals < 1e-10", res < 1e-10, f"max {res:.2e}")
        recheck = max((float(np.max(np.abs(bethe.bae_residual(b.roots, spec.total_spin))))
                       for b in branches if b.roots), default=0.0)
        check("recomputed root equations < 1e-10", recheck < 1e-10, f"max {recheck:.2e}")
        energies = np.sort([b.energy for b in branches])
        check("sector energies sum to zero", abs(energies.sum()) < 1e-8, f"{energies.sum():.2e}")
        check("spectrum symmetric about zero",
              bool(np.allclose(energies, -energies[::-1], atol=1e-8)))
        try:
            evals, _ = oracle.diagonalize(oracle.sector_hamiltonian(spec))
            check("energies match exact diagonalization < 1e-8",
                  energies.size == evals.size and bool(np.max(np.abs(energies - evals)) < 1e-8))
            spectrum_m = spectral.sector_spectrum(spec, branches)
            gram = spectrum_m.vectors @ spectrum_m.vectors.T
            orth = float(np.max(np.abs(gram - np.eye(gram.shape[0]))))
            check("eigenvectors orthonormal < 1e-10", orth < 1e-10, f"max {orth:.2e}")
            series = spectral.number_state_energy(spectrum_m)
            gap = float(np.max(np.abs(series.value(grid) - oracle.oracle_F(spec, grid))))
            check("stored energy matches oracle < 1e-8 on [0,3]", gap < 1e-8, f"max {gap:.2e}")
        except (spectral.SpectralError, oracle.ConvergenceFailure) as err:
            check("spectrum construction", False, str(err))
    if failures:
        raise VerificationFailed(f"first failing invariant: {failures[0]}")
    click.echo("all invariants pass")


if __name__ == "__main__":
    main()
