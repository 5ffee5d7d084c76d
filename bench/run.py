"""tcqb benchmark: three CLI workloads, end to end and layer by layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload cold_solve --seed 0 --seconds 20 --trace 0

Every command is a child process `python -m tcqb.cli ...` run with
PYTHONPATH=src, one child at a time, BLAS threads pinned, and a cache
directory owned by the benchmark.  With --trace 0 the workload's command
sequence is repeated for --seconds and the end-to-end metrics are
printed; with --trace 1 untraced and traced sequences alternate and the
per-layer metrics come from the traced children (bench/tracer.py).
Every output is checked against tcqb.oracle.  The last line of stdout
is the JSON result; a fuller record is written to
.bench_out/results/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_out"

BLAS_THREADS = 1
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 150.0

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "pass_ratio": "ratio"}

CLI_COMMANDS = ("energy", "split-check", "inequality", "verify", "lindblad")
NEWTON_FAILURES = ("ZeroRoot", "CoincidentRoots", "NoConvergence", "DivergedToZeroRoot",
                   "SingularJacobian", "UnpairedComplexRoot")
PROVENANCES = ("continuation", "random_restart", "completeness", "oracle_seeded")


def _per_layer() -> tuple[tuple[str, str], ...]:
    """Names and units of the per-layer metrics, in BENCHMARK.json order."""
    out = [("cli.import_s", "s"), ("cli.main.self_s", "s")]
    for cmd in CLI_COMMANDS:
        out += [(f"cli.{cmd}.s", "s"), (f"cli.{cmd}.rss_mb", "MB")]
    out += [("cli.cache_files", "count"), ("trace.overhead_s", "s")]
    for probe in ("bethe.solve_sectors", "bethe.solve_sector", "bethe.newton_refine"):
        out += [(f"{probe}.calls", "count"), (f"{probe}.self_s", "s")]
    out += [(f"bethe.newton_refine.failed.{exc}", "count") for exc in NEWTON_FAILURES]
    out += [("bethe.newton_refine.yield", "ratio"), ("bethe.seed_trials.calls", "count"),
            ("bethe.seed_trials.max_stage", "count")]
    out += [(f"bethe.branches.{p}", "count") for p in PROVENANCES]
    for probe in ("spectral.sector_spectrum", "spectral.number_state_energy"):
        out += [(f"{probe}.calls", "count"), (f"{probe}.self_s", "s")]
    out.append(("spectral.series_terms", "count"))
    for probe in ("spectral.CosineSeries.value", "spectral.SineSeries.value"):
        out += [(f"{probe}.calls", "count"), (f"{probe}.self_s", "s"), (f"{probe}.term_points", "count")]
    for probe in ("spectral.series_derivative", "spectral.first_max_time",
                  "battery.stored_energy", "battery.delta_F", "battery.split",
                  "battery.check_ratio_inequality", "battery.check_derivative_inequality",
                  "oracle.sector_hamiltonian", "oracle.diagonalize", "oracle.oracle_F",
                  "oracle.SectorMatrix.dense", "lindblad.build_operators", "lindblad.evolve"):
        out += [(f"{probe}.calls", "count"), (f"{probe}.self_s", "s")]
    out += [("lindblad.evolve.s_per_t", "s/t"), ("lindblad.samples", "count"),
            ("lindblad.state_dim", "count"), ("lindblad.min_eig", "eig"),
            ("lindblad.trace_drift", "abs"), ("lindblad.lindblad_rhs.s", "s")]
    return tuple(out)


PER_LAYER = _per_layer()


@dataclass
class ChildRecord:
    argv: list[str]
    command: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    exit_code: int
    failures: list[str] = field(default_factory=list)
    trace: dict | None = None

    @property
    def failed(self) -> bool:
        return bool(self.failures)


class Runner:
    """Runs children one at a time in a private work directory."""

    def __init__(self, workload: str, seed: int, trace: bool):
        self.run_dir = OUT_ROOT / f"run-{workload}-s{seed}-t{int(trace)}-p{os.getpid()}"
        self.cache = self.run_dir / "cache"
        self.logs = self.run_dir / "logs"
        self.env = dict(os.environ)
        self.env.update({
            "PYTHONPATH": str(SRC),
            "TCQB_CACHE_DIR": str(self.cache),
            "OPENBLAS_NUM_THREADS": str(BLAS_THREADS),
            "OMP_NUM_THREADS": str(BLAS_THREADS),
            "MKL_NUM_THREADS": str(BLAS_THREADS),
            "PYTHONHASHSEED": "0",
        })
        self.count = 0

    def child(self, argv: list[str]) -> tuple[float, float, float, int]:
        """Wall time, CPU time, peak RSS (MB, read per child with wait4), exit code."""
        self.count += 1
        stem = self.logs / f"{self.count:04d}"
        with open(f"{stem}.out", "wb") as out, open(f"{stem}.err", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        cpu = usage.ru_utime + usage.ru_stime
        return wall, cpu, usage.ru_maxrss / 1024.0, proc.returncode

    def stderr_tail(self) -> str:
        path = self.logs / f"{self.count:04d}.err"
        return path.read_text(errors="replace")[-400:] if path.exists() else ""

    def clear_cache(self) -> None:
        shutil.rmtree(self.cache, ignore_errors=True)

    def cache_files(self) -> int:
        return sum(1 for p in self.cache.rglob("*") if p.is_file()) if self.cache.exists() else 0


def untraced_argv(args: tuple[str, ...]) -> list[str]:
    return [sys.executable, "-m", "tcqb.cli", *args]


def traced_argv(args: tuple[str, ...], spans: Path, check: dict) -> list[str]:
    argv = [sys.executable, str(BENCH / "tracer.py"), "--spans", str(spans)]
    if check.get("kind") == "lindblad":
        argv += ["--probe-rhs", ":".join(str(check[k]) for k in
                                         ("n_atoms", "n_max", "photons", "kappa", "gamma_phi"))]
    return argv + ["--", *args]


def run_commands(runner: Runner, checker, commands, traced: bool) -> list[ChildRecord]:
    """One pass over commands; outputs are checked after the last one."""
    out_dir = runner.run_dir / "out"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    records = []
    for cmd in commands:
        if cmd.fresh_cache:
            runner.clear_cache()
        spans = runner.run_dir / f"spans-{runner.count + 1:04d}.json"
        argv = traced_argv(cmd.argv, spans, cmd.check) if traced else untraced_argv(cmd.argv)
        wall, cpu, rss, code = runner.child(argv)
        rec = ChildRecord(argv, cmd.name, wall, cpu, rss, code)
        if code != 0:
            rec.failures.append(f"exit code {code}: {runner.stderr_tail()}")
        if traced:
            rec.trace = json.loads(spans.read_text()) if spans.exists() else {}
            rec.trace["cache_files"] = runner.cache_files()
            spans.unlink(missing_ok=True)
        records.append(rec)
    for cmd, rec in zip(commands, records):
        if rec.exit_code == 0:
            rec.failures += checker.check(cmd.check)
    return records


def self_times(spans: list) -> dict[str, list[float]]:
    """Per span name: [calls, total self time].

    Self time is a span's duration minus the durations of its direct
    children; spans of one process nest without overlap.
    """
    child_time = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, list[float]] = {}
    for i, (name, start, end, _) in enumerate(spans):
        entry = out.setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += (end - start) - child_time[i]
    return out


def layer_metrics(records: list[ChildRecord]) -> dict[str, float]:
    """Per-layer metrics of one traced pass over a workload's commands."""
    m: dict[str, float] = {name: 0.0 for name, _ in PER_LAYER}
    counters: dict[str, float] = {}
    gauges: dict[str, list[float]] = {}
    imports, probes = [], []
    for rec in records:
        doc = rec.trace or {}
        m[f"cli.{rec.command}.s"] = m.get(f"cli.{rec.command}.s", 0.0) + rec.wall_s
        m[f"cli.{rec.command}.rss_mb"] = max(m.get(f"cli.{rec.command}.rss_mb", 0.0), rec.rss_mb)
        m["cli.cache_files"] = max(m["cli.cache_files"], doc.get("cache_files", 0))
        if "import_s" in doc:
            imports.append(doc["import_s"])
        if doc.get("probe_rhs_s") is not None:
            probes.append(doc["probe_rhs_s"])
        for name, (calls, self_s) in self_times(doc.get("spans", [])).items():
            m[f"{name}.calls"] = m.get(f"{name}.calls", 0.0) + calls
            m[f"{name}.self_s"] = m.get(f"{name}.self_s", 0.0) + self_s
        for key, value in doc.get("counters", {}).items():
            counters[key] = counters.get(key, 0.0) + value
        for key, value in doc.get("gauges", {}).items():
            gauges.setdefault(key, []).append(value)
    m["cli.import_s"] = statistics.median(imports) if imports else 0.0
    m["lindblad.lindblad_rhs.s"] = statistics.median(probes) if probes else 0.0
    for key, value in counters.items():
        if key in m:
            m[key] = value
    calls = m["bethe.newton_refine.calls"]
    m["bethe.newton_refine.yield"] = counters.get("bethe.branches.kept", 0) / calls if calls else 0.0
    if "lindblad.min_eig" in gauges:
        m["lindblad.min_eig"] = min(gauges["lindblad.min_eig"])
    for key in ("bethe.seed_trials.max_stage", "lindblad.state_dim", "lindblad.trace_drift"):
        if key in gauges:
            m[key] = max(gauges[key])
    sim_t = counters.get("lindblad.simulated_t", 0.0)
    m["lindblad.evolve.s_per_t"] = m["lindblad.evolve.self_s"] / sim_t if sim_t else 0.0
    return m


def environment(seed: int) -> dict:
    import numpy as np

    deps = {}
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    except TypeError:  # numpy < 1.26 prints instead
        pass
    versions = {}
    for pkg in ("numpy", "scipy", "click"):
        try:
            versions[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            versions[pkg] = None
    commit = None
    if (ROOT / ".git").exists():  # a driver checkout is not a git repository
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas": deps.get("blas"),
        "lapack": deps.get("lapack"),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "versions": versions,
        "platform": platform.platform(),
        "git_commit": commit,
        "workload_seed": seed,
    }


def _relative(argv: list[str]) -> list[str]:
    root = str(ROOT) + os.sep
    return [a.replace(root, "") for a in argv]


def main(argv: list[str] | None = None) -> int:
    from workloads import WORKLOADS, make_plan

    parser = argparse.ArgumentParser(description="tcqb end-to-end and per-layer benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(argv)

    if not (SRC / "tcqb" / "cli.py").is_file():
        print(f"bench: no tcqb sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tcqb
    import tcqb.cli
    from checks import Checker

    if Path(tcqb.__file__).resolve().parent != SRC / "tcqb":
        print(f"bench: imported tcqb from {tcqb.__file__}, not {SRC}", file=sys.stderr)
        return 2

    trace = bool(opts.trace)
    runner = Runner(opts.workload, opts.seed, trace)
    shutil.rmtree(runner.run_dir, ignore_errors=True)
    runner.logs.mkdir(parents=True)
    try:
        plan = make_plan(opts.workload, opts.seed, runner.run_dir)
        inputs = runner.run_dir / "inputs"
        inputs.mkdir()
        for name, text in plan.inputs.items():
            (inputs / name).write_text(text)
        known = set(getattr(tcqb.cli.main, "commands", {}))
        absent_commands = sorted({c.name for c in plan.setup + plan.timed} - known)
        setup_cmds = [c for c in plan.setup if c.name in known]
        timed_cmds = [c for c in plan.timed if c.name in known]
        if not timed_cmds:
            print(f"bench: tcqb has none of the commands {absent_commands}", file=sys.stderr)
            return 3
        checker = Checker()

        # Set-up: a bare import (paid by every command) plus the cache fill.
        setup_records: list[ChildRecord] = []
        setup_times = []
        for _ in range(1 if trace else SETUP_REPEATS):
            wall, _, _, code = runner.child([sys.executable, "-c", "import tcqb.cli"])
            if code != 0:
                print(f"bench: `import tcqb.cli` failed: {runner.stderr_tail()}", file=sys.stderr)
                return 3
            fill = run_commands(runner, checker, setup_cmds, traced=False)
            setup_records += fill
            setup_times.append(wall + sum(r.wall_s for r in fill))

        # Timed phase: whole sequences while the next one still fits.
        timed_records: list[ChildRecord] = []
        traced_records: list[ChildRecord] = []
        walls, traced_walls, layer_runs = [], [], []
        start = time.perf_counter()
        while True:
            seq = run_commands(runner, checker, timed_cmds, traced=False)
            timed_records += seq
            walls.append(sum(r.wall_s for r in seq))
            if trace:
                tseq = run_commands(runner, checker, timed_cmds, traced=True)
                traced_records += tseq
                traced_walls.append(sum(r.wall_s for r in tseq))
                layer_runs.append(layer_metrics(tseq))
            elapsed = time.perf_counter() - start
            if elapsed * (len(walls) + 1) / len(walls) > opts.seconds:
                break

        records = setup_records + timed_records + traced_records
        attempted = len(records)
        failed = sum(r.failed for r in records)
        if trace:
            units = dict(PER_LAYER)
            metrics = {name: statistics.median(run[name] for run in layer_runs) for name in units}
            metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
            counts = [{k: run[k] for k in units if units[k] == "count"} for run in layer_runs]
        else:
            units = END_TO_END_UNITS
            metrics = {
                "setup_s": statistics.median(setup_times),
                "wall_s": statistics.median(walls),
                "peak_rss_mb": max(r.rss_mb for r in timed_records),
                "pass_ratio": (attempted - failed) / attempted,
            }
        absent_probes = sorted({p for r in traced_records for p in r.trace.get("absent", [])})
        result = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
        }
        report = {
            **result,
            "workload": opts.workload,
            "trace": int(trace),
            "seconds": opts.seconds,
            "environment": environment(opts.seed),
            "absent_commands": absent_commands,
            "absent_probes": absent_probes,
            "setup_s": setup_times,
            "sequence_wall_s": walls,
            "traced_sequence_wall_s": traced_walls,
            "counts_repeat": all(c == counts[0] for c in counts) if trace else None,
            "bindings": traced_records[0].trace.get("bindings") if traced_records else None,
            "commands": [
                {"argv": _relative(r.argv), "wall_s": r.wall_s, "cpu_s": r.cpu_s, "rss_mb": r.rss_mb,
                 "exit_code": r.exit_code, "failures": r.failures, "traced": r.trace is not None}
                for r in records
            ],
        }
        results = OUT_ROOT / "results"
        results.mkdir(parents=True, exist_ok=True)
        name = f"BENCH_{opts.workload}_trace{int(trace)}_seed{opts.seed}.json"
        (results / name).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
        for failure in sorted({f for r in records for f in r.failures}):
            print(f"bench: failed check: {failure}", file=sys.stderr)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(runner.run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
