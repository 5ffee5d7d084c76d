"""Command-line driver: file-based inputs, plot-ready CSV/JSON outputs.

This module formats, writes and reads every data file (numbers to 12
significant digits, photon probabilities to 15); the library modules
hold no file code.  Every command runs through `Runner`, which maps
typed errors to exit codes through EXIT_TABLE and writes the manifest
(parameter echo, seed, version, wall time) next to --out;
it checks --out before the command body runs.  Data files are written
atomically, never hold nan or inf, never replace a symbolic link or a
path that is not a regular file, and are byte-identical across reruns
with equal inputs.  `energy`, `split-check` and `inequality` build their
energy tables from the exact-diagonalization sector spectra; `solve`,
`spectrum` and `verify` run the root solver, which is deterministic.
bethe, spectral and lindblad are imported by the commands that run them,
so no command, failing or not, loads code it does not run.  No command
uses a seed: those six accept --seed only to echo it in the manifest.
A `tcqb` process starts through `run`, which keeps the garbage collector
off the objects that numpy, click and tcqb create at import.

Exit codes: 2 solver or spectrum failures, click usage errors (a nan
or inf number, or a --config section, key or value that names no
command, no parameter of its command, or no string or number, among
them), an --out that cannot be created, and a file --out that is a
symbolic link or exists but is not a regular file, "" (the current
directory) among them (one stderr line naming the path, before any
work), 3 distribution/table errors (any distribution beyond MAX_SECTOR,
optimal's included) and results that are not finite, 4 verification
failure (a --dir sector file that is malformed or records another
n_atoms or m), 5 open-system errors
(lindblad.LindbladError: a refused configuration or an unstable step).
"""

from __future__ import annotations

import gc

if __name__ == "__main__":  # python -m tcqb.cli: nothing to collect while the imports load
    gc.disable()

import json
import math
import os
import sys
import time
from collections.abc import Iterable
from contextlib import contextmanager
from itertools import combinations_with_replacement
from pathlib import Path
from typing import TYPE_CHECKING

import click
import numpy as np

from . import __version__, battery, oracle

if TYPE_CHECKING:  # bethe, spectral and lindblad are imported by the commands that run them
    from .bethe import BetheBranch

MAX_SECTOR = 64


class InputError(Exception):
    """A distribution argument or input file that cannot be read."""


class NonFiniteResult(Exception):
    """A result holds nan or inf where a number would be written or printed."""


class NoBranches(Exception):
    """verify could neither solve nor read the branches it checks."""


class VerificationFailed(Exception):
    """An invariant that verify checks does not hold."""


# Each typed error a command may raise, its exit code, and the words between
# the command name and the message on its one stderr line; the first row
# that matches wins.  "module.Class" names a class of a tcqb module that
# only some commands load; it matches only if that module is loaded, since
# a module that was never imported raised none of its errors.
EXIT_TABLE = (
    (("bethe.MissingBranches", oracle.ConvergenceFailure, "spectral.SpectralError"), 2, "failed"),
    ((InputError, battery.BatteryError, NonFiniteResult), 3, "failed"),
    ((NoBranches,), 4, "could not obtain branches"),
    ((VerificationFailed,), 4, "failed"),
    (("lindblad.LindbladError",), 5, "failed"),
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
    """x to the 12 significant digits of every number written or printed."""
    return f"{x:.12g}"


CSV_CHUNK_ROWS = 4096  # rows formatted by one %-operation in _write_csv


def _r12(x: float) -> float:
    """x as a JSON number of 12 significant digits."""
    return float(_fmt(x))


@contextmanager
def _creating(path: Path):
    """Exit 2, as for a usage error, with one line when path cannot be created."""
    try:
        yield
    except OSError as err:
        click.echo(f"cannot write {path}: {err}", err=True)
        raise SystemExit(click.UsageError.exit_code) from None


def _refuse_non_regular(path: Path) -> None:
    """Refuse a path that renaming a file over would replace: a symbolic link, or
    an existing path that is not a regular file (a FIFO, a device, ".")."""
    if path.is_symlink():
        raise OSError("a symbolic link")
    if path.exists() and not path.is_file():
        raise OSError("not a regular file")


def _write_text(path: Path, chunks: Iterable[str]) -> None:
    """Write the chunks of text to a sibling temporary file, then rename it over path."""
    with _creating(path):
        _refuse_non_regular(path)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            with open(tmp, "w") as fh:
                fh.writelines(chunks)
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)


def _dumps(payload: dict, indent: int | None = None) -> str:
    try:
        return json.dumps(payload, indent=indent, sort_keys=True, allow_nan=False)
    except ValueError:
        raise NonFiniteResult("result holds nan or inf") from None


def _write_json(path: Path, payload: dict) -> None:
    _write_text(path, [_dumps(payload, indent=2) + "\n"])


def _write_or_print(out: Path | None, payload: dict) -> None:
    """Write payload to --out, or print it as one line of JSON without one."""
    if out:
        _write_json(out, payload)
        click.echo(f"wrote {out}")
    else:
        click.echo(_dumps(payload))


def _csv_text(header: list[str], columns: list[np.ndarray]) -> Iterable[str]:
    """The header line, then the rows, CSV_CHUNK_ROWS to a string; each value as _fmt writes it."""
    yield ",".join(header) + "\n"
    row = ",".join(["%.12g"] * len(columns)) + "\n"
    for start in range(0, len(columns[0]), CSV_CHUNK_ROWS):
        block = np.column_stack([c[start : start + CSV_CHUNK_ROWS] for c in columns])
        yield (row * len(block)) % tuple(block.ravel().tolist())


def _write_csv(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    for name, column in zip(header, columns):
        if not np.isfinite(column).all():
            raise NonFiniteResult(f"column {name} of {path.name} holds nan or inf")
    _write_text(path, _csv_text(header, columns))


def _sector_doc(n_atoms: int, m: int, branches: list[BetheBranch]) -> dict:
    """The document of a solved sector file, sector_MNN.json; each branch holds the roots of
    SectorSpec(n_atoms, m).root_spec, so n_atoms and m fix the equations they solve."""
    return {"n_atoms": n_atoms, "m": m, "branches": [
        {"roots": [[_r12(z.real), _r12(z.imag)] for z in b.roots], "energy": _r12(b.energy),
         "residual": _r12(b.residual), "provenance": b.provenance} for b in branches]}


def _read_branches(path: Path, n_atoms: int, m: int) -> list[BetheBranch]:
    """Sector (n_atoms, m)'s branches from path, as _sector_doc writes them; unreadable, malformed
    or mismatched content is an InputError."""
    from . import bethe

    n_roots = oracle.SectorSpec(n_atoms, m).root_spec.excitations
    try:
        sector = _json_typed(json.loads(path.read_text()), dict, "the file")
        for key, want in (("n_atoms", n_atoms), ("m", m)):
            if not oracle.is_integer(sector[key]) or sector[key] != want:
                raise InputError(f"{path.name}: file records {key} = {sector[key]!r}, expected {want}")
        branches = []
        for i, doc in enumerate(_json_typed(sector.get("branches"), list, '"branches"')):
            doc = _json_typed(doc, dict, f"branch {i}")
            for pair in _json_typed(doc["roots"], list, f'branch {i} "roots"'):
                if not isinstance(pair, list) or len(pair) != 2:
                    raise ValueError(f"branch {i} records root {pair!r}, not a pair [re, im]")
            roots = tuple(complex(re, im) for re, im in doc["roots"])
            fields = {"energy": doc["energy"], "residual": doc["residual"],
                      "provenance": doc.get("provenance", "continuation")}
            parts = [("root part", part) for pair in doc["roots"] for part in pair]
            for key, value in [*fields.items(), *parts]:
                kind = str if key == "provenance" else (int, float)
                if not isinstance(value, kind) or isinstance(value, bool):
                    raise InputError(f"{path.name}: branch {i} records {key} = {value!r}, "
                                     f"not a JSON {'string' if kind is str else 'number'}")
            if len(roots) != n_roots:
                raise InputError(f"{path.name}: branch {i} has {len(roots)} roots, "
                                 f"sector (N={n_atoms}, M={m}) needs {n_roots}")
            bethe.bae_residual(roots, 0.0)  # raises ZeroRoot or CoincidentRoots
            branches.append(bethe.BetheBranch(roots=roots, **fields))
    except (OSError, ValueError, KeyError, TypeError, bethe.BetheError) as err:
        raise InputError(f"{path.name}: {type(err).__name__}: {err}") from err
    return branches


def _probs_doc(dist: battery.PhotonDistribution) -> dict[str, float]:
    # 15 digits: at 12, a many-point pmf could come back more than
    # battery.PROB_SUM_TOL off 1 and the file: reader would reject it.
    return {str(m): float(f"{p:.15g}") for m, p in dist.probs.items()}


def _error_type(entry: type | str) -> type | tuple[()]:
    """A class of EXIT_TABLE, or () for a "module.Class" entry whose tcqb module is not loaded."""
    if isinstance(entry, type):
        return entry
    module, _, name = entry.partition(".")
    loaded = sys.modules.get(f"{__package__}.{module}")
    return getattr(loaded, name) if loaded else ()


class Runner(click.Command):
    """Runs a command body.

    Before the body it creates a directory --out (solve, spectrum), or the
    directory of a file --out, which _refuse_non_regular checks; a failure
    exits 2.  Typed errors exit as EXIT_TABLE says.  numpy's floating-point
    warnings are silenced, since every writer refuses nan and inf.  A run
    with --out writes the manifest next to it, whose config is every
    parameter but --out and --seed.
    """

    def invoke(self, ctx: click.Context) -> None:
        start = time.perf_counter()
        if (out := ctx.params.get("out")) is not None:
            with _creating(out):
                if next(p for p in self.params if p.name == "out").type.file_okay:
                    out.parent.mkdir(parents=True, exist_ok=True)
                    _refuse_non_regular(out)
                else:
                    out.mkdir(parents=True, exist_ok=True)
        try:
            with np.errstate(all="ignore"):
                super().invoke(ctx)
        except Exception as err:
            for types, code, lead in EXIT_TABLE:
                if isinstance(err, tuple(map(_error_type, types))):
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
                               "wall_time_s": wall_time})


def _parse_init(text: str) -> battery.PhotonDistribution:
    """fock:M | coherent:ALPHA2[:TRUNC] | file:PATH, with support <= MAX_SECTOR."""
    kind, _, rest = text.partition(":")
    if kind not in ("fock", "coherent", "file"):
        raise InputError(f"bad distribution {text!r}: unknown kind {kind!r} "
                         f"(fock:M, coherent:A2[:T], file:PATH)")
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
            doc = _json_typed(json.loads(Path(rest).read_text(), object_pairs_hook=_unique_keys),
                              dict, "the document")
            dist = battery.PhotonDistribution(_json_typed(doc.get("probs"), dict, '"probs"'))
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as err:
        raise InputError(f"bad distribution {text!r}: {type(err).__name__}: {err}") from err
    return _supported(dist)


def _json_typed(value, kind: type, what: str):
    """value, if it is a JSON object (kind dict) or array (kind list); else a ValueError naming what."""
    if not isinstance(value, kind):
        raise ValueError(f"{what} is not a JSON {'object' if kind is dict else 'array'}")
    return value


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object that names each key once (json keeps the last of a repeated key)."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"key {key!r} is given twice")
        doc[key] = value
    return doc


def _supported(dist: battery.PhotonDistribution) -> battery.PhotonDistribution:
    if dist.max_support > MAX_SECTOR:
        raise battery.SupportExceedsTable(
            f"distribution reaches M = {dist.max_support}; supported sectors stop at {MAX_SECTOR}"
        )
    return dist


# No command reads a seed; these keep the option so that existing command
# lines still run, and echo it in the manifest.
_echoed_seed = click.option("--seed", type=int, default=0, show_default=True,
                            help="Recorded in the manifest; no command uses a seed.")


def _config_callback(ctx: click.Context, param: click.Parameter, value: str | None):
    """Each command's section maps its parameters to what the flag would read on the command line."""
    if value:
        try:
            defaults = json.loads(Path(value).read_text())
        except (OSError, ValueError) as err:
            raise click.BadParameter(f"cannot read {value}: {err}") from err
        if not isinstance(defaults, dict):
            raise click.BadParameter(f"{value} must hold a JSON object of per-command defaults")
        for name, section in defaults.items():
            command = ctx.command.commands.get(name)
            if command is None:
                raise click.BadParameter(f"{value}: section {name!r} names no command")
            if not isinstance(section, dict) or not all(
                    isinstance(v, (str, int, float)) and not isinstance(v, bool) for v in section.values()):
                raise click.BadParameter(f"{value}: section {name!r} must map parameters to strings or numbers")
            if unknown := sorted(section.keys() - {p.name for p in command.params}):
                raise click.BadParameter(f"{value}: {name} has no parameter {', '.join(map(repr, unknown))}")
        ctx.default_map = {name: {k: str(v) for k, v in section.items()} for name, section in defaults.items()}
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
@_echoed_seed
@click.option("--out", type=click.Path(file_okay=False, path_type=Path), required=True)
def solve(n_atoms, m_max, seed, out):
    """Solve sector root sets M = 1..m-max by warm-started continuation."""
    from . import bethe

    chains = bethe.solve_sectors(n_atoms, m_max)
    for m in range(1, m_max + 1):
        _write_json(out / f"sector_M{m:02d}.json", _sector_doc(n_atoms, m, chains[m]))
    click.echo(f"solved {m_max} sectors for N={n_atoms} -> {out}")


@main.command()
@click.option("--n-atoms", type=click.IntRange(1, MAX_SECTOR), required=True)
@click.option("--m-max", type=click.IntRange(0, MAX_SECTOR), required=True)
@_echoed_seed
@click.option("--out", type=click.Path(file_okay=False, path_type=Path), required=True)
def spectrum(n_atoms, m_max, seed, out):
    """Per-sector eigenbasis summaries and stored-energy series."""
    from . import bethe, spectral

    chains = bethe.solve_sectors(n_atoms, m_max)
    spectra = [spectral.sector_spectrum(oracle.SectorSpec(n_atoms, m), chains[m])
               for m in range(0, m_max + 1)]
    series = [spectral.number_state_energy(s) for s in spectra]
    for m, (spect, f) in enumerate(zip(spectra, series)):
        _write_json(out / f"spectrum_M{m:02d}.json", {
            "n_atoms": n_atoms,
            "m": m,
            "energies": [_r12(e) for e in spect.energies],
            "overlaps": [_r12(c) for c in spect.vectors[:, 0]],
            "norms": [_r12(x) for x in spect.norms],
            "series": {"m": m, "offset": _r12(f.offset), "terms": [[_r12(a), _r12(w)] for a, w in f.terms]},
        })
    click.echo(f"wrote {m_max + 1} sector spectra -> {out}")


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
    _write_or_print(out, {"probs": _probs_doc(_supported(battery.optimal_distribution(mean)))})


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
        "dist": _probs_doc(pmf),
        "mean": _r12(pmf.mean),
        "groups": tableau.d,
        "group_probability_error": _r12(err_p),
        "group_mean_error": _r12(err_m),
        "t": t,
        "delta_f": _r12(gap),
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
    scan = battery.scan(battery.energy_table(n_atoms, max_m))
    check, arity = ((battery.check_ratio_inequality, 2) if which == "28"
                    else (battery.check_derivative_inequality, 3))
    # Every (M, m[, m0]) with M >= m (>= m0) >= 1, in lexicographic order.
    combos = sorted(c[::-1] for c in combinations_with_replacement(range(1, max_m + 1), arity))
    reports = [check(scan, *c) for c in combos]
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
    # Imported here, as bethe and spectral are in the commands that run them:
    # this command loads lindblad and none of the solver modules.
    from . import lindblad

    dist = _parse_init(init)
    # evolve never reads n_max; it sizes the product basis of the reference.
    config = lindblad.OpenSystemConfig(
        n_atoms=n_atoms, n_max=dist.max_support + 1, kappa=kappa, gamma_phi=gamma_phi,
        dt=dt, t_end=t_end, sample_stride=stride,
    )
    ts = lindblad.evolve(dist, config)
    _write_csv(out, ["t", "E", "P", "trace", "min_eig", "m_expect"],
               [ts.t, ts.energy, ts.power, ts.trace, ts.min_eig, ts.m_expect])
    click.echo(f"wrote {ts.t.size} samples -> {out}")


@main.command()
@click.option("--n-atoms", type=click.IntRange(1, MAX_SECTOR), required=True)
@click.option("--m-max", type=click.IntRange(0, MAX_SECTOR), required=True)
@_echoed_seed
@click.option("--dir", "branch_dir", type=click.Path(file_okay=False, exists=True), default=None,
              help="Validate previously solved sector files instead of solving fresh.")
def verify(n_atoms, m_max, seed, branch_dir):
    """Cross-check the root-solver pipeline against exact diagonalization."""
    from . import bethe, spectral

    failures: list[str] = []

    def check(name: str, ok: bool, detail: str = ""):
        status = "ok" if ok else "FAIL"
        click.echo(f"  [{status}] {name}" + (f"  ({detail})" if detail else ""))
        if not ok:
            failures.append(name)

    try:
        if branch_dir:
            chains = {m: _read_branches(Path(branch_dir) / f"sector_M{m:02d}.json", n_atoms, m)
                      for m in range(1, m_max + 1)}
            chains[0] = bethe.solve_sector(oracle.SectorSpec(n_atoms, 0))
        else:
            chains = bethe.solve_sectors(n_atoms, m_max)
    except (bethe.MissingBranches, InputError) as err:
        raise NoBranches(str(err)) from err

    grid = np.linspace(0.0, 3.0, 2000)
    for m in range(0, m_max + 1):
        spec = oracle.SectorSpec(n_atoms, m)
        branches = chains[m]
        click.echo(f"sector M={m}:")
        check("branch count = min(2J, M) + 1", len(branches) == spec.branch_count,
              f"{len(branches)}/{spec.branch_count}")
        res = max((b.residual for b in branches), default=0.0)
        check("residuals < 1e-10", res < 1e-10, f"max {res:.2e}")
        recheck = max((float(np.max(np.abs(bethe.bae_residual(b.roots, spec.root_spec.total_spin))))
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


def run():
    """The process entry: `tcqb` and `python -m tcqb.cli` start here.

    What the imports left alive (numpy, click, tcqb and their tables) is
    kept until exit, so it moves to the collector's permanent generation;
    the command body then runs with the collector on for what it creates.
    """
    gc.freeze()
    gc.enable()
    main()


if __name__ == "__main__":
    # The import-time heap is never garbage, yet each collection would walk
    # it again, as would the one at interpreter teardown (about 17 ms for
    # numpy and click, against a 3-56 ms command body): frozen, none does.
    run()
