#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the spdekit command line.

Run from the root of an spdekit checkout:

    python3 perfbench/run.py --workload mc_identities --seed 1 --seconds 28 --trace 0

Each run writes the workload's INI file for ``--seed``, then drives
``spdekit.cli.main`` in a closed loop with one client: one command at a
time, each in a fresh child process, until ``--seconds`` have passed.  BLAS
thread pools in the children are capped at the number of usable cores.

``--trace 0`` reports the end-to-end metrics: set-up time (median of several
fresh starts on a zero-length horizon), work per second of whole-command
wall time, and the child's peak resident set.  ``--trace 1`` alternates
untraced and traced commands and reports per-layer self times and counts
from the traced ones, plus the tracing overhead.  Every command's outputs
are checked; the last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import LAYERS
from workloads import WORKLOAD_NAMES, WORKLOADS, Outcome

HERE = Path(__file__).resolve().parent
DEADLINE_S = 165.0  # every run ends well within the 180 s allowed
MIN_SETUP_STARTS = 5
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = {"setup_s": "s", "work_per_s": "1/s", "peak_rss_mb": "MB"}

# checkers the workloads call; the other public checkers would always read 0
VERIFY_CHECKERS = (
    "mass_conservation_check",
    "energy_identity_refinement",
    "energy_identity_residual",
    "gronwall_check",
    "ito_isometry_mc",
    "trace_identity_mc",
    "wiener_covariance_mc",
    "gaussian_moment_ratio",
    "ou_variance_mc",
)

PER_LAYER = {
    "cli.self_s": "s",
    "cli.config_s": "s",
    "cli.csv_write_s": "s",
    "cli.csv_rows": "count",
    "cli.csv_bytes": "B",
    "verify.self_s": "s",
    "verify.mc_normals_s": "s",
    "verify.mc_streams": "count",
    "verify.reports": "count",
    "verify.reports_failed": "count",
    **{f"verify.{name}_s": "s" for name in VERIFY_CHECKERS},
    "burgers.self_s": "s",
    "burgers.solve_remainder_s": "s",
    "burgers.picard_sweeps": "count",
    "burgers.picard_iters_max": "count",
    "burgers.sweep_ms": "ms",
    "integrators.self_s": "s",
    "integrators.simulate_calls": "count",
    "integrators.steps": "count",
    "integrators.us_per_step": "us",
    "integrators.state_mb": "MB",
    "models.self_s": "s",
    "models.drift_calls": "count",
    "models.diffusion_calls": "count",
    "noise.self_s": "s",
    "noise.draw_values": "count",
    "noise.pack_calls": "count",
    "noise.used_channel_frac": "frac",
    "spectral.self_s": "s",
    "spectral.fft_calls": "count",
    "spectral.fft_points": "count",
    "spectral.fft_flops_computed": "flop",
    "spectral.field_objects": "count",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class Child:
    wall_s: float
    rss_mb: float
    code: int
    timed_out: bool


@dataclass
class Command:
    child: Child
    outcome: Outcome
    trace: dict | None


def spawn(argv, env, timeout, log) -> Child:
    """Run child.py to completion; wall time, peak RSS and exit status."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), *argv],
        env=env, stdout=log, stderr=subprocess.STDOUT,
    )
    exited = False
    try:
        pidfd = os.pidfd_open(proc.pid)
        try:
            exited = bool(select.select([pidfd], [], [], max(timeout, 0.0))[0])
        finally:
            os.close(pidfd)
    finally:
        if not exited:  # timed out, or this process is being stopped
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, usage.ru_maxrss / 1024.0, proc.returncode, not exited)


class Bench:
    """One workload at one seed: its INI files, its children and their results."""

    def __init__(self, workload, seed, size, root, work_dir, deadline):
        self.w = workload
        self.size = size
        self.work_dir = work_dir
        self.deadline = deadline
        self.env = child_env(root)
        self.log = open(work_dir / "children.log", "w+b")
        self.ini = work_dir / "workload.ini"
        self.ini.write_text(workload.ini(seed, size, work_dir / "out"))
        self.setup_ini = work_dir / "setup.ini"
        self.setup_ini.write_text(workload.setup_ini(size, work_dir / "setup_out"))
        self.commands: list[Command] = []
        self.setups: list[Child] = []
        self.problems: list[str] = []

    def close(self):
        self.log.close()

    def remaining(self) -> float:
        return self.deadline - time.perf_counter()

    def command(self, traced: bool) -> Command:
        out = Path(tempfile.mkdtemp(dir=self.work_dir))
        trace_file = out / "trace.json"
        mode = ["trace", str(trace_file)] if traced else ["run"]
        argv = [*mode, self.w.command, "--config", str(self.ini), "--out", str(out)]
        child = spawn(argv, self.env, self.remaining(), self.log)
        outcome = self.w.check(self.size, child.code, out)
        if child.timed_out:
            outcome.problems.append("timed out")
        trace = json.loads(trace_file.read_text()) if traced and trace_file.exists() else None
        if traced and trace is None and not outcome.problems:
            outcome.problems.append("traced command wrote no trace")
        shutil.rmtree(out)
        cmd = Command(child, outcome, trace)
        self.commands.append(cmd)
        self.problems.extend(outcome.problems)
        return cmd

    def setup_start(self) -> Child:
        argv = ["run", "simulate", "--config", str(self.setup_ini),
                "--out", str(self.work_dir / "setup_out")]
        child = spawn(argv, self.env, self.remaining(), self.log)
        if child.code != 0:
            self.problems.append(f"set-up start exited with {child.code}")
        self.setups.append(child)
        return child

    def child_output(self) -> str:
        self.log.seek(0)
        return self.log.read().decode(errors="replace")[-2000:]


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    paths = [str(root / "src"), str(HERE)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    for var in BLAS_VARS:
        env[var] = str(nproc())
    return env


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def machine() -> dict:
    """CPU and cache description of this machine (best effort)."""
    info = {"nproc": nproc(), "cpu_model": "unknown"}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            if level in ("2", "3"):
                info[f"l{level}_cache"] = (index / "size").read_text().strip()
        except OSError:
            pass
    return info


def measure(bench: Bench, seconds: float, traced: bool) -> None:
    """Closed loop with one client until ``seconds`` have passed."""
    t0 = time.perf_counter()
    while True:
        last = bench.command(traced=False)
        if traced:
            last = bench.command(traced=True)
        else:
            bench.setup_start()
        if last.child.timed_out:
            return
        elapsed = time.perf_counter() - t0
        if elapsed >= seconds or bench.remaining() < 2.0 * last.child.wall_s:
            break
    while not traced and len(bench.setups) < MIN_SETUP_STARTS and bench.remaining() > 5.0:
        bench.setup_start()


def end_to_end(bench: Bench) -> dict:
    work = bench.w.work(bench.size)
    cmds = bench.commands
    return {
        "setup_s": statistics.median(c.wall_s for c in bench.setups),
        "work_per_s": statistics.median(work / c.child.wall_s for c in cmds),
        "peak_rss_mb": statistics.median(c.child.rss_mb for c in cmds),
    }


def layer_metrics(trace: dict, outcome: Outcome, wall: float) -> dict:
    own, group, calls, n = trace["self_s"], trace["group_s"], trace["calls"], trace["counts"]
    steps, sweeps = n.get("steps", 0), n.get("picard_sweeps", 0)
    drawn = n.get("channels_drawn", 0)
    m = {f"{layer}.self_s": own.get(layer, 0.0) for layer in LAYERS}
    m.update({
        "cli.config_s": group.get("cli.config", 0.0),
        "cli.csv_write_s": group.get("cli.csv_write", 0.0),
        "cli.csv_rows": n.get("csv_rows", 0),
        "cli.csv_bytes": n.get("csv_bytes", 0),
        "verify.mc_normals_s": group.get("verify.mc_normals", 0.0),
        "verify.mc_streams": n.get("mc_streams", 0),
        "verify.reports": outcome.reports,
        "verify.reports_failed": outcome.reports_failed,
        "burgers.solve_remainder_s": group.get("burgers.solve_remainder", 0.0),
        "burgers.picard_sweeps": sweeps,
        "burgers.picard_iters_max": n.get("picard_iters_max", 0),
        "burgers.sweep_ms": 1e3 * group.get("burgers.solve_remainder", 0.0) / sweeps if sweeps else 0.0,
        "integrators.simulate_calls": calls.get("integrators.simulate", 0),
        "integrators.steps": steps,
        "integrators.us_per_step": 1e6 * group.get("integrators.simulate", 0.0) / steps if steps else 0.0,
        "integrators.state_mb": n.get("state_bytes", 0) / 1e6,
        "models.drift_calls": calls.get("models.drift", 0),
        "models.diffusion_calls": calls.get("models.diffusion_apply", 0),
        "noise.draw_values": n.get("draw_values", 0),
        "noise.pack_calls": calls.get("noise.pack_draws", 0),
        "noise.used_channel_frac": n.get("channels_used", 0) / drawn if drawn else 1.0,
        "spectral.fft_calls": n.get("fft_calls", 0),
        "spectral.fft_points": n.get("fft_points", 0),
        "spectral.fft_flops_computed": n.get("fft_flops", 0.0),
        "spectral.field_objects": calls.get("spectral.field", 0),
        "trace.wall_s": wall,
    })
    m.update({f"verify.{name}_s": group.get(f"verify.{name}", 0.0) for name in VERIFY_CHECKERS})
    return m


def per_layer(bench: Bench) -> dict:
    traced = [c for c in bench.commands if c.trace is not None]
    untraced = [c for c in bench.commands if c.trace is None]
    rows = [layer_metrics(c.trace, c.outcome, c.child.wall_s) for c in traced]
    out = {name: statistics.median(r[name] for r in rows) for name in rows[0]}
    out["trace.untraced_wall_s"] = statistics.median(c.child.wall_s for c in untraced)
    out["trace.overhead_s"] = out["trace.wall_s"] - out["trace.untraced_wall_s"]
    return out


def run_workload(name, seed, seconds, trace, size, root, context) -> dict:
    workload = WORKLOADS[name]
    base = root / ".perfbench_work"
    base.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=base))
    bench = Bench(workload, seed, size, root, work_dir, time.perf_counter() + DEADLINE_S)
    try:
        measure(bench, seconds, bool(trace))
        ops = sum(c.outcome.ops for c in bench.commands)
        failed = sum(c.outcome.failed for c in bench.commands)
        if bench.problems:
            metrics, units = {}, {}
            print(f"# {name}: {'; '.join(sorted(set(bench.problems)))}", file=sys.stderr)
            print(bench.child_output(), file=sys.stderr)
        elif trace:
            metrics = per_layer(bench)
            units = PER_LAYER
        else:
            metrics = end_to_end(bench)
            units = END_TO_END
    finally:
        bench.close()
        shutil.rmtree(work_dir)
        try:
            base.rmdir()
        except OSError:
            pass

    report(bench, seed, trace, metrics, units, ops, failed, context)
    return {
        "correct": not bench.problems and failed == 0 and bool(metrics),
        "attempted": max(ops, 1),
        "failed": failed if ops else 1,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def report(bench, seed, trace, metrics, units, ops, failed, context):
    """Human-readable lines; the JSON result follows them."""
    w, cmds = bench.w, bench.commands
    print(f"# workload {w.name} (spdekit {w.command}), seed {seed}, trace {trace}: "
          f"{len(cmds)} commands, {len(bench.setups)} set-up starts")
    print(f"# why: {w.why}")
    print("# context " + json.dumps({**context, "workload": w.name, "seed": seed,
                                     "size": bench.size, "commands": len(cmds),
                                     "setup_starts": len(bench.setups),
                                     "work_per_command": w.work(bench.size),
                                     "work_unit": w.work_unit}, sort_keys=True))
    for key, value in metrics.items():
        label = f"{w.work_unit}_per_s" if key == "work_per_s" else key
        print(f"{label:34s} {value:16.6g} {units[key]}")
    frac = failed / ops if ops else 1.0
    print(f"{'ops_failed_frac':34s} {frac:16.6g} frac ({failed} of {ops} operations failed)")
    digests = sorted({c.outcome.digest for c in cmds})
    same = "identical" if len(digests) == 1 else f"{len(digests)} distinct"
    print(f"{'csv_digest':34s} {digests[0] if digests else '-':>16s} ({same} over {len(cmds)} commands)")


def run_context(root: Path) -> dict | None:
    """Versions and the active lane, read by a child; None if spdekit is not the checkout's."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "context"],
        env=child_env(root), capture_output=True, text=True, timeout=60,
    )
    if proc.returncode != 0:
        print(proc.stderr, file=sys.stderr)
        return None
    info = json.loads(proc.stdout)
    if not Path(info.pop("spdekit_file")).resolve().is_relative_to((root / "src").resolve()):
        return None
    info["blas_threads"] = nproc()
    info["loop"] = "closed, one client, one fresh process per command"
    return {**machine(), **info}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs the smoke-test sizes")
    args = parser.parse_args(argv)
    # turn a stop request into SystemExit, so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    if not (root / "src" / "spdekit" / "cli.py").is_file():
        print("perfbench: run from the root of an spdekit checkout "
              "(src/spdekit/cli.py not found)", file=sys.stderr)
        return 2
    context = run_context(root)
    if context is None:
        print("perfbench: cannot import spdekit from src/ of this checkout", file=sys.stderr)
        return 2

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {n: run_workload(n, args.seed, args.seconds, args.trace, args.size, root, context)
               for n in names}
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
