"""Benchmark of the qbs batch CLI: real processes, timed from outside.

Usage (from the repository root):

    python3 perfbench/run.py --workload cli_light|spectral_d128|stochastic|all
        [--seed N] [--seconds S] [--trace 0|1]

Each job is a fresh ``qbs <command>`` process (import included), run one
after another from a single client (a closed loop) with BLAS/OpenMP
threads pinned to 1. A pass runs all of the workload's jobs; passes
repeat until ``--seconds`` have gone by. Every report is checked (see
checks.py) outside the timed region.

``--trace 0`` follows every job with a run of calibrate.py, fixed work
that uses no qbs code, and divides job wall times by the median wall
time of the run's calibration runs: times in ``cal`` units. The host's
speed drifts by 10-20% over seconds to minutes and moves both alike, so
the quotient stays put where seconds do not. (Dividing each job by the
calibration runs next to it instead tracks faster drift but adds their
own noise: recomputed that way, the same two sets of ten spectral_d128
runs spread 0.08 and 0.10 of the median, against 0.05 and 0.06.)
It prints the end-to-end metrics listed in BENCHMARK.json:

- ``pass_rel``: the time of one pass, in cal units: the sum over the
  pass's jobs (command and config) of the median of that job's samples;
- ``setup_s``: the time for a fresh interpreter to import qbs and parse
  one of the workload's configs, sampled after every pass (at least three
  times), as the median in cal units times the calibration run's time on
  the host the benchmark was written on (CAL_START_S, CAL_BLOCK_S): seconds
  at that host's speed;
- ``peak_rss_mb``: the largest peak RSS of any job, from wait4 (see
  launch.py).

The table also gives, in seconds, ``pass_s.p50`` and ``pass_s.tail`` (the
highest percentile of pass times with ten passes beyond it, or the
slowest pass when a run has fewer than 11), ``job_s.<command>`` (median
wall time from fork to exit), ``setup_wall_s`` and ``cal_s``; in cal
units ``job_rel.<command>``; and ``error_rate``, failed over attempted
jobs.

``--trace 1`` alternates untraced and traced passes (see traced_job.py),
runs the kernel sweep (see sweep.py) and prints the per-layer metrics,
per pass: ``<layer>.<function>.s``/``.calls`` and ``<layer>.self_s``,
where a span's self time is its duration minus that of its child spans.
The layer self times plus ``trace.unattributed_s`` (spawn, interpreter
start-up and shutdown) add up to the jobs' wall time. Call counts must
repeat exactly from one traced pass to the next.

The last line of stdout is one JSON object; the lines before it are a
readable table, and the full record, with the machine and library
versions, is written under .bench_build/perfbench/.
"""

from __future__ import annotations

import os

THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

import argparse  # noqa: E402
import importlib.metadata  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import sweep  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build" / "perfbench"
DEFAULT_SEED = 1

JOB_CODE = "import sys; from qbs.cli import main; sys.exit(main())"
SETUP_CODE = (
    "import sys, pathlib, qbs; from qbs.config import parse_config; "
    "parse_config(pathlib.Path(sys.argv[1]).read_text())"
)
# calibrate.py's wall time on the 2-vCPU Intel Xeon host the benchmark was
# written on: start-up and import, plus each numeric block. setup_s is in
# seconds at that host speed.
CAL_START_S, CAL_BLOCK_S = 0.6, 0.07
MIN_SETUP_SAMPLES = 3  # set-up is sampled after every pass, and at least this often
MIN_TRACED_PASSES = 2  # so that call counts can be compared across passes


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def spawn(argv: list) -> tuple:
    """(wall s, peak RSS MB, exit code, stdout, stderr) of one process,
    timed from fork to exit by launch.py, which also reads its peak RSS
    from wait4."""
    record = WORK / "launch.txt"
    record.unlink(missing_ok=True)
    with open(WORK / "stderr.txt", "w+b") as err:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "launch.py"), str(record), *argv],
            stdout=subprocess.PIPE, stderr=err, env=child_env(), cwd=ROOT, start_new_session=True,
        )
        try:
            out = proc.stdout.read()
            proc.wait()
        finally:
            proc.stdout.close()
            if proc.returncode is None:
                os.killpg(proc.pid, signal.SIGKILL)  # the launcher and the command under it
                proc.wait()
        err.seek(0)
        wall, peak_kib = record.read_text().split()
        return float(wall), int(peak_kib) / 1024.0, proc.returncode, out, err.read()


def run_ok(argv: list, what: str) -> float:
    """Wall time of a process that must succeed."""
    wall, _, code, _, err = spawn(argv)
    if code != 0:
        raise RuntimeError(f"{what} failed: {err.decode(errors='replace').strip()[:300]}")
    return wall


def calibrate(blocks: int) -> float:
    return run_ok([sys.executable, str(HERE / "calibrate.py"), str(blocks)], "calibration")


def tail(values: list) -> tuple:
    """The highest percentile with at least ten samples beyond it, with its
    label; below 11 samples no percentile qualifies and the maximum is
    reported instead."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], f"max of {n} (no percentile has 10 samples beyond it)"
    return ordered[n - 11], f"p{100.0 * (n - 10) / n:.1f} of {n}"


def job_profile(trace_path: Path, wall: float) -> Counter:
    """Per-function time and calls, per-layer self time, and the part of
    the job's wall time that no span covers."""
    spans_line, write_line = trace_path.read_text().split("\n")
    doc = json.loads(spans_line)
    spans = doc["spans"]
    dur = [end - start for _, start, end, _ in spans]
    covered = [0.0] * len(spans)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            covered[parent] += dur[i]
    prof = Counter()
    for i, (name, _, _, parent) in enumerate(spans):
        own = dur[i] - covered[i]
        prof[f"{name}.s"] += dur[i]
        prof[f"{name}.calls"] += 1
        layer = name.split(".")[0]
        prof[f"{layer}.self_s"] += own
        if layer != name:
            prof[f"{name}.self_s"] += own
        if parent < 0:
            prof["trace.spanned_s"] += dur[i]
        if name in ("operators.eigh", "pricing.price"):
            # attribute to the outermost pricing.price span above, if any
            outer = None
            while parent >= 0:
                if spans[parent][0] == "pricing.price":
                    outer = parent
                parent = spans[parent][3]
            if name == "pricing.price":
                prof["pricing.points.calls"] += outer is None
            else:
                prof["pricing.eigh_in_price.calls"] += outer is not None
    prof["import.modules"] = doc["import_modules"]
    # trace.self_s is the tracer's own work: installing wrappers and
    # writing spans. What no span covers is the spawn and the interpreter's
    # start-up and shutdown.
    write_s = json.loads(write_line)["write_s"]
    prof["trace.self_s"] += write_s
    prof["trace.unattributed_s"] = wall - prof.pop("trace.spanned_s") - write_s
    prof["trace.job_wall_s"] = wall
    return prof


def is_count(name: str) -> bool:
    return name.endswith((".calls", ".modules", "_bytes"))


class Bench:
    def __init__(self, name: str, seed: int, seconds: float, trace: bool):
        self.seed, self.seconds, self.trace = seed, seconds, trace
        self.load = workloads.build(name, seed, ROOT, WORK)
        self.spans_dir = WORK / f"spans-{name}"
        if trace:
            shutil.rmtree(self.spans_dir, ignore_errors=True)
            self.spans_dir.mkdir()
        self.attempted = 0
        self.failures = []
        self.raw = {}  # samples behind the end-to-end metrics, for the record

    def check(self, job, code: int, out: bytes, err: bytes) -> None:
        """Count the job as attempted, and as failed on a nonzero exit or a
        report that fails its check."""
        self.attempted += 1
        if code != 0:
            bad = [f"exit {code}: {err.decode(errors='replace').strip()[:300]}"]
        else:
            bad = checks.check(job, json.loads(out), self.load.market)
        if bad:
            self.failures.append(f"{job.command} {job.config}: {'; '.join(bad[:3])}")

    def run_pass(self, traced: bool, index: int) -> tuple:
        """(wall s, per-pass profile if traced); a pass's wall time is the
        sum of its jobs' wall times."""
        # a traced job writes its spans to <pass>-<job>.json: the job id
        spans = [self.spans_dir / f"{index}-{i}.json" for i in range(len(self.load.jobs))]
        wall = 0.0
        profile = Counter()
        for job, path in zip(self.load.jobs, spans):
            if traced:
                argv = [sys.executable, str(HERE / "traced_job.py"), str(path), *job.argv()]
            else:
                argv = [sys.executable, "-c", JOB_CODE, *job.argv()]
            job_wall, _, code, out, err = spawn(argv)
            wall += job_wall
            self.check(job, code, out, err)
            if traced and path.exists():
                profile.update(job_profile(path, job_wall))
                profile["cli.report_bytes"] += len(out)
                profile["config.input_bytes"] += job.path.stat().st_size
        return wall, profile

    def measure_traced(self) -> tuple:
        """Untraced and traced passes alternate until --seconds of passes
        are measured and there are at least MIN_TRACED_PASSES traced ones."""
        untraced, traced = [], []
        measured = 0.0
        while measured < self.seconds or len(traced) < MIN_TRACED_PASSES:
            for is_traced in (False, True):
                result = self.run_pass(is_traced, len(untraced) + len(traced))
                measured += result[0]
                (traced if is_traced else untraced).append(result)
        return untraced, traced

    def measure(self) -> tuple:
        """Jobs in pass order until --seconds have gone by, the first pass
        always whole; a set-up sample after every whole pass, and at least
        MIN_SETUP_SAMPLES. A calibration run follows every job and every
        set-up sample.

        Returns ([(pass, job, wall s, peak RSS MB)], set-up samples,
        calibration samples), all wall times in seconds.
        """
        run_ok([sys.executable, "-c", "import qbs.cli"], "warm-up import")  # writes the bytecode cache
        configs, blocks = self.load.configs, self.load.cal_blocks
        samples, setup, cals = [], [], [calibrate(blocks)]

        def timed(argv: list) -> tuple:
            result = spawn(argv)
            cals.append(calibrate(blocks))
            return result

        def sample_setup() -> None:
            path = configs[len(setup) % len(configs)]
            wall, _, code, _, err = timed([sys.executable, "-c", SETUP_CODE, str(path)])
            if code != 0:
                raise RuntimeError(f"set-up on {path.name} failed: {err.decode(errors='replace').strip()[:300]}")
            setup.append(wall)

        deadline = time.perf_counter() + self.seconds
        for index in itertools.count():
            for job in self.load.jobs:
                wall, rss, code, out, err = timed([sys.executable, "-c", JOB_CODE, *job.argv()])
                self.check(job, code, out, err)
                samples.append((index, job, wall, rss))
                if index and time.perf_counter() >= deadline:
                    break
            else:
                sample_setup()
                if time.perf_counter() < deadline:
                    continue
            break
        while len(setup) < MIN_SETUP_SAMPLES:
            sample_setup()
        return samples, setup, cals

    def end_to_end(self, samples: list, setup: list, cals: list) -> tuple:
        """pass_rel sums, over the jobs of a pass, the median wall time of
        each, over the median calibration time."""
        cal = statistics.median(cals)
        walls, per_cmd, passes = {}, {}, {}
        for index, job, wall, _ in samples:
            walls.setdefault((job.command, job.config), []).append(wall)
            per_cmd.setdefault(job.command, []).append(wall)
            passes.setdefault(index, []).append(wall)
        job_s = {cmd: statistics.median(v) for cmd, v in per_cmd.items()}
        complete = [sum(v) for v in passes.values() if len(v) == len(self.load.jobs)]
        tail_value, tail_label = tail(complete)
        metrics = {
            "pass_rel": sum(statistics.median(v) for v in walls.values()) / cal,
            "setup_s": statistics.median(setup) / cal * (CAL_START_S + self.load.cal_blocks * CAL_BLOCK_S),
            "peak_rss_mb": max(s[3] for s in samples),
            "pass_s.p50": statistics.median(complete),
            "pass_s.tail": tail_value,
            "setup_wall_s": statistics.median(setup),
            "cal_s": cal,
            **{f"job_s.{cmd}": wall for cmd, wall in job_s.items()},
            **{f"job_rel.{cmd}": wall / cal for cmd, wall in job_s.items()},
            "error_rate": len(self.failures) / self.attempted,
        }
        notes = {
            "jobs": len(samples),
            "complete_passes": len(complete),
            "pass_s.tail": tail_label,
            "setup_samples": len(setup),
        }
        self.raw = {
            "jobs": [[index, job.command, job.config, wall] for index, job, wall, _ in samples],
            "cal_s": cals,
            "setup_s": setup,
        }
        return metrics, notes

    def per_layer(self, untraced: list, traced: list) -> tuple:
        """Times are medians over traced passes; counts must repeat exactly
        from one traced pass to the next."""
        profiles = [profile for _, profile in traced]
        # layer self times plus the unattributed rest must add up to the
        # summed wall time of the pass's jobs
        accounting = max(
            abs(sum(v for k, v in p.items() if k.count(".") == 1 and k.endswith(".self_s"))
                + p["trace.unattributed_s"] - p["trace.job_wall_s"])
            for p in profiles
        )
        metrics, errors = {}, []
        for key in sorted(set().union(*profiles)):
            values = [p[key] for p in profiles]
            if is_count(key):
                if len(set(values)) != 1:
                    errors.append(f"{key} differs between traced passes: {values}")
                metrics[key] = values[0]
            else:
                metrics[key] = statistics.median(values)
        points = metrics.pop("pricing.points.calls", 0)
        in_price = metrics.pop("pricing.eigh_in_price.calls", 0)
        metrics["pricing.eigh_per_point"] = in_price / points if points else 0.0
        traced_pass = statistics.median(wall for wall, _ in traced)
        metrics["trace.overhead_s"] = traced_pass - statistics.median(wall for wall, _ in untraced)
        metrics.update(sweep.run(self.seed))
        notes = {
            "traced_passes": len(traced),
            "untraced_passes": len(untraced),
            "traced_pass_s": traced_pass,
            "accounting_error_s": accounting,
        }
        return metrics, notes, errors

    def run(self) -> dict:
        if self.trace:
            metrics, notes, errors = self.per_layer(*self.measure_traced())
        else:
            (metrics, notes), errors = self.end_to_end(*self.measure()), []
        return {
            "workload": self.load.name,
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": int(self.trace),
            "attempted": self.attempted,
            "failed": len(self.failures),
            "failures": self.failures,
            "self_check_errors": errors,
            "metrics": metrics,
            "notes": notes,
            "raw": self.raw,
        }


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = ""
    if (ROOT / ".git").exists():
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        ).stdout.strip()
    cpu = ""
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": THREADS,
        "nproc": os.cpu_count(),
        "cpu": cpu or "unknown",
        "commit": commit or "unknown (not a git checkout)",
    }


def show(result: dict, spec: dict, env: dict) -> None:
    name = result["workload"]
    why = next(w["why"] for w in spec["workloads"] if w["name"] == name)
    print(f"== {name}  seed={result['seed']}  seconds={result['seconds']}  trace={result['trace']}")
    print(f"   why: {why}")
    print("   env: " + "  ".join(f"{k}={v}" for k, v in env.items()))
    print("   " + "  ".join(f"{k}={v}" for k, v in result["notes"].items()))
    print(f"   jobs attempted={result['attempted']} failed={result['failed']}")
    for line in result["failures"] + result["self_check_errors"]:
        print(f"   FAIL {line}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for key, value in sorted(result["metrics"].items()):
        unit = units.get(key) or (
            "count" if is_count(key) else "ratio" if key == "error_rate" else "cal" if "_rel" in key else "s"
        )
        print(f"   {key:<44} {value:>16.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (ROOT / "src" / "qbs" / "cli.py").is_file() or not (ROOT / "configs").is_dir():
        parser.error(f"{ROOT} holds no qbs sources (src/qbs) or configs")
    sys.path.insert(0, str(ROOT / "src"))  # for the kernel sweep
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    WORK.mkdir(parents=True, exist_ok=True)
    env = environment()
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    final = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        result = Bench(name, args.seed, args.seconds, bool(args.trace)).run()
        result["environment"] = env
        out = WORK / f"result-{name}-seed{args.seed}-trace{args.trace}.json"
        out.write_text(json.dumps(result, indent=1) + "\n")
        show(result, spec, env)
        final["correct"] &= not result["failed"] and not result["self_check_errors"]
        final["attempted"] += result["attempted"]
        final["failed"] += result["failed"]
        prefix = f"{name}:" if len(names) > 1 else ""
        for metric in listed:
            key = metric["name"]
            if key not in result["metrics"] and not is_count(key):
                raise KeyError(f"{name}: metric {key} was not measured")
            value = result["metrics"].get(key, 0)
            final["metrics"][prefix + key] = {"value": value, "unit": metric["unit"]}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
