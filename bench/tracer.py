"""Traced tcqb command: wraps the public layer functions, runs the CLI in-process.

Usage:
    python bench/tracer.py --spans FILE [--probe-rhs N:N_MAX:PHOTONS:KAPPA:GAMMA] -- <tcqb args>

The child imports tcqb.cli, binds a timing wrapper around every probed
public name in every tcqb namespace that holds it (so calls made through
`from ... import` are counted too), then calls
`tcqb.cli.main(args, standalone_mode=False)`.  Spans (name, start, end,
parent) and counters stay in memory and are written to FILE at exit.
A probed name that the package no longer has is listed as absent.  The
exit code is the command's.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import sys
import time
from collections import Counter

# numpy is imported inside the hooks, after tcqb, so that the measured
# import time of tcqb.cli includes it.

# Public names timed in the traced run, as "<module>.<qualified name>".
PROBES = (
    "bethe.solve_sectors",
    "bethe.solve_sector",
    "bethe.newton_refine",
    "bethe.seed_trials",
    "spectral.sector_spectrum",
    "spectral.number_state_energy",
    "spectral.CosineSeries.value",
    "spectral.SineSeries.value",
    "spectral.series_derivative",
    "spectral.first_max_time",
    "battery.stored_energy",
    "battery.delta_F",
    "battery.split",
    "battery.check_ratio_inequality",
    "battery.check_derivative_inequality",
    "oracle.sector_hamiltonian",
    "oracle.diagonalize",
    "oracle.oracle_F",
    "oracle.SectorMatrix.dense",
    "lindblad.build_operators",
    "lindblad.evolve",
)


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _solve_sector(counters: Counter, gauges: dict, args, kwargs, result) -> None:
    for branch in result:
        if branch.roots or branch.provenance != "continuation":
            counters[f"bethe.branches.{branch.provenance}"] += 1
        if branch.roots:
            counters["bethe.branches.kept"] += 1


def _seed_trials(counters: Counter, gauges: dict, args, kwargs, result) -> None:
    stage = int(_arg(args, kwargs, 2, "stage"))
    gauges["bethe.seed_trials.max_stage"] = max(gauges.get("bethe.seed_trials.max_stage", 0), stage)


def _number_state_energy(counters: Counter, gauges: dict, args, kwargs, result) -> None:
    counters["spectral.series_terms"] += len(result.terms)


def _series_value(name: str):
    def hook(counters: Counter, gauges: dict, args, kwargs, result) -> None:
        import numpy as np

        points = np.size(_arg(args, kwargs, 1, "t"))
        counters[f"{name}.term_points"] += len(args[0].terms) * points
    return hook


def _evolve(counters: Counter, gauges: dict, args, kwargs, result) -> None:
    import numpy as np

    config = _arg(args, kwargs, 1, "config")
    counters["lindblad.samples"] += int(result.t.size)
    counters["lindblad.simulated_t"] += float(config.t_end)
    gauges["lindblad.state_dim"] = max(gauges.get("lindblad.state_dim", 0), int(config.dimension))
    gauges["lindblad.min_eig"] = min(gauges.get("lindblad.min_eig", 1.0), float(np.min(result.min_eig)))
    drift = float(np.max(np.abs(result.trace - 1.0)))
    gauges["lindblad.trace_drift"] = max(gauges.get("lindblad.trace_drift", 0.0), drift)


HOOKS = {
    "bethe.solve_sector": _solve_sector,
    "bethe.seed_trials": _seed_trials,
    "spectral.number_state_energy": _number_state_energy,
    "spectral.CosineSeries.value": _series_value("spectral.CosineSeries.value"),
    "spectral.SineSeries.value": _series_value("spectral.SineSeries.value"),
    "lindblad.evolve": _evolve,
}


class Tracer:
    """In-memory spans and counters for one traced command."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.gauges: dict[str, float] = {}
        self.active = True

    def wrap(self, name: str, fn, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1])
            self.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                self.counters[f"{name}.failed.{type(err).__name__}"] += 1
                raise
            finally:
                self.spans[index][2] = time.perf_counter()
                self.stack.pop()
            if hook is not None:
                try:
                    hook(self.counters, self.gauges, args, kwargs, result)
                except (AttributeError, TypeError, KeyError, IndexError, ValueError):
                    self.counters[f"{name}.hook_errors"] += 1
            return result

        return traced

    def install(self, probes=PROBES, hooks=HOOKS, package: str = "tcqb") -> tuple[list[str], dict]:
        """Wrap each probe in every namespace of the package that holds it.

        Returns the probes that do not exist and, for the others, the
        namespaces that were rebound.
        """
        absent: list[str] = []
        bindings: dict[str, list[str]] = {}
        for probe in probes:
            module_name, _, qualname = probe.partition(".")
            try:
                owner = importlib.import_module(f"{package}.{module_name}")
            except ModuleNotFoundError:
                absent.append(probe)
                continue
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                absent.append(probe)
                continue
            wrapper = self.wrap(probe, original, hooks.get(probe))
            if path:  # a method: the class object is shared by every namespace
                setattr(owner, attr, wrapper)
                bindings[probe] = [f"{owner.__module__}.{qualname}"]
                continue
            bound = []
            for mod_name, module in list(sys.modules.items()):
                if module is None or not (mod_name == package or mod_name.startswith(package + ".")):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        bound.append(f"{mod_name}.{key}")
            bindings[probe] = sorted(bound)
        return absent, bindings


def _probe_rhs(tracer: Tracer, spec: str, absent: list[str]) -> float | None:
    """Time one generator build plus one right-hand side, untraced."""
    from tcqb import lindblad

    rhs = getattr(lindblad, "lindblad_rhs", None)
    if rhs is None:
        absent.append("lindblad.lindblad_rhs")
        return None
    n_atoms, n_max, photons, kappa, gamma = spec.split(":")
    tracer.active = False
    try:
        config = lindblad.OpenSystemConfig(
            n_atoms=int(n_atoms), n_max=int(n_max), kappa=float(kappa), gamma_phi=float(gamma)
        )
        rho = lindblad.DensityMatrix.fock(config, int(photons)).matrix
        start = time.perf_counter()
        rhs(rho, config)
        return time.perf_counter() - start
    except (AttributeError, TypeError, ValueError):
        absent.append("lindblad.lindblad_rhs")
        return None
    finally:
        tracer.active = True


def run_main(cli_main, args: list[str]) -> int:
    """Exit code of the click entry point called in-process."""
    import click

    try:
        code = cli_main(args, standalone_mode=False)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else (0 if code is None else 1)
    except click.ClickException as exc:
        exc.show()
        return exc.exit_code
    return code if isinstance(code, int) else 0  # click returns the code of ctx.exit


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True)
    parser.add_argument("--probe-rhs", default=None)
    parser.add_argument("args", nargs=argparse.REMAINDER)
    opts = parser.parse_args(argv)
    args = opts.args[1:] if opts.args[:1] == ["--"] else opts.args

    start = time.perf_counter()
    import tcqb.cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    absent, bindings = tracer.install()
    exit_code = run_main(tracer.wrap("cli.main", tcqb.cli.main), args)
    probe_s = _probe_rhs(tracer, opts.probe_rhs, absent) if opts.probe_rhs else None
    doc = {
        "args": args,
        "exit_code": exit_code,
        "import_s": import_s,
        "probe_rhs_s": probe_s,
        "absent": absent,
        "bindings": bindings,
        "counters": dict(tracer.counters),
        "gauges": tracer.gauges,
        "spans": tracer.spans,
    }
    with open(opts.spans, "w") as fh:
        json.dump(doc, fh)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
