"""Benchmark of the mixrrm user pipeline: fit -> predict -> betas --plot.

    python3 bench/run.py --workload recovery --seed 1 --seconds 20 --trace 0

Run from anywhere inside a source checkout (``src/mixrrm`` and
``tests/oracles.py`` next to this directory).  One run is one fresh process
and one closed-loop client.  It writes the workload's fixed list of seeded
panels, then runs whole pipelines through ``mixrrm.cli.main``, one per
panel and one after another, and repeats that cycle until ``--seconds``
have passed.  It times the set-up (import of ``mixrrm`` plus the first
``load_long_csv``) in child processes between pipelines.  Every time is
scaled to one reference speed of the host (see ``HostSpeed``).  Every
command's output is checked (see ``checks.py``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` fits each
panel untraced and then traced, and reports the per-layer metrics from the
spans of the traced pipelines (see ``spans.py`` and ``layers.py``).  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full result set, with the
environment record and the spans, is written under ``.bench_results/`` in
the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DECLARED = ROOT / "BENCHMARK.json"
RESULTS = ROOT / ".bench_results"
WORK = ROOT / ".bench_work"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
MAX_THREADS = 2
# predict and betas are short: an untraced pipeline repeats them for more samples
POST_REPEATS = 3
CHILD_TIMEOUT = 150

# set-up probe, run in a fresh interpreter: argv = src, csv, attrs...
SETUP_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import mixrrm
mixrrm.load_long_csv(sys.argv[2], attr_cols=sys.argv[3:])
print(repr(time.perf_counter() - start))
"""


def declared_units(kind: str) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them under ``kind``."""
    with open(DECLARED, encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


def source_digest() -> str:
    """SHA-256 over the program's source files, so results name the code."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def pin_threads() -> None:
    """Cap BLAS and OpenMP pools at min(nproc, 2) before numpy loads."""
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else (os.cpu_count() or 1)
    threads = max(1, min(nproc, MAX_THREADS))
    for var in THREAD_VARS:
        os.environ[var] = str(threads)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def environment() -> dict:
    import numpy as np

    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    blas = "unknown"
    with contextlib.suppress(Exception):
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    commit = None  # stays None outside a git checkout of this repository
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        done = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                              cwd=ROOT, text=True, capture_output=True, timeout=10)
        lines = done.stdout.split()
        if done.returncode == 0 and len(lines) == 2 and Path(lines[0]) == ROOT:
            commit = lines[1]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "git_commit": commit,
        "source_sha256": source_digest(),
    }


def load_reference(workload: str, key: str) -> dict | None:
    """Stored fit of one panel, keyed "<seed>.<panel>", if there is one."""
    with open(BENCH_DIR / "reference.json", encoding="utf-8") as handle:
        return json.load(handle)["fits"].get(workload, {}).get(key)


def measure_setup(data: Path, attrs: list[str]) -> float:
    """One set-up sample, taken in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, str(SRC), str(data), *attrs],
        env=child_env(), capture_output=True, text=True, check=True,
        timeout=CHILD_TIMEOUT,
    )
    return float(done.stdout.strip().splitlines()[-1])


class HostSpeed:
    """Scales measured times to one reference speed of the host.

    On a shared host the speed of every process swings by about 1.6x, in
    spells of seconds to minutes, and whole runs can fall in one spell.
    Process CPU time swings with wall time, so the swing is the host's,
    not the program's.  A fixed mix of interpreter, allocation and small
    numpy work, which calls nothing of ``mixrrm``, is timed just before and
    just after each timed operation.  The operation's time is multiplied by
    ``REFERENCE_S`` over the mean of the two, that is, it is given in
    seconds at the speed where the probe takes ``REFERENCE_S``.
    """

    REFERENCE_S = 0.015

    def __init__(self):
        import numpy as np

        # fixed inputs without numpy.random, which the program never loads
        self._np = np
        self._x = np.sin(np.arange(40 * 8 * 3 * 3, dtype=float)).reshape(40, 8, 3, 3)
        self._y = np.cos(np.arange(8 * 3 * 3, dtype=float)).reshape(8, 3, 3)
        self.probes: list[float] = []
        self.probe()

    def probe(self) -> float:
        np = self._np
        start = time.perf_counter()
        total = 0
        for i in range(120_000):
            total += i * i
        for _ in range(4):
            names = {i: str(i) for i in range(5_000)}
        x = self._x
        for _ in range(200):
            x = np.tanh(np.einsum("rsij,sij->rsi", x, self._y)[..., None] * 0.1 + x)
        elapsed = time.perf_counter() - start
        self.probes.append(elapsed)
        return elapsed

    def around(self, fn):
        """(``fn()``, the factor that scales times taken during it)."""
        before = self.probe()
        result = fn()
        return result, 2.0 * self.REFERENCE_S / (before + self.probe())


def run_command(main, argv, host: HostSpeed) -> dict:
    """Exit code, wall s, process CPU s, host speed factor and output of one command."""
    def timed():
        wall = time.perf_counter()
        cpu = time.process_time()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                code = main(argv)
            except SystemExit as stop:
                code = stop.code if isinstance(stop.code, int) else 1
            except Exception as err:  # a traceback is a failed operation, not a crash
                print(f"uncaught {type(err).__name__}: {err}", file=sink)
                code = -1
        return code, time.perf_counter() - wall, time.process_time() - cpu

    sink = io.StringIO()
    (code, wall, cpu), speed = host.around(timed)
    return {"code": code, "wall": wall, "cpu": cpu, "speed": speed, "log": sink.getvalue()}


class Pipeline:
    """One panel of a workload: its commands and the checks on their outputs."""

    def __init__(self, workload, seed: int, panel: int, work: Path, gate, code_key: str):
        from layers import panel_shape

        self.workload = workload
        self.key = f"{seed}.{panel}"
        self.data = work / f"panel{panel}.csv"
        # the generator runs in its own process so its memory stays out of
        # the benchmark's peak RSS
        subprocess.run(
            [sys.executable, str(BENCH_DIR / "workloads.py"), "--workload",
             workload.name, "--seed", str(seed), "--panel", str(panel),
             "--out", str(self.data)],
            env=child_env(), check=True, timeout=CHILD_TIMEOUT,
        )
        out = work / f"panel{panel}"
        out.mkdir()
        self.fit = out / "fit.json"
        self.pred = out / "predicted.csv"
        self.betas = out / "betas.csv"
        self.reference = load_reference(workload.name, self.key)
        self.gate = gate
        self.shape = panel_shape(workload, self.data)
        with open(self.data, encoding="utf-8") as handle:
            next(handle)
            self.ids = [str(i) for i in sorted({int(line.split(",", 1)[0])
                                                 for line in handle})]
        # The same code on the same input must write a byte-identical fit
        # JSON in every run.  The store is keyed by the code and its
        # environment as well as by the input, so runs of other code are
        # never compared; those are held to the 1e-8 reference instead.
        command = " ".join(workload.fit_argv("data", "out")).encode()
        digest = hashlib.sha256(
            code_key.encode() + b"\0" + command + b"\0" + self.data.read_bytes()
        ).hexdigest()[:24]
        self.digest_path = RESULTS / f"fit-{workload.name}-{digest}.json"
        self.first_fit: bytes | None = (
            self.digest_path.read_bytes() if self.digest_path.is_file() else None
        )

    def run(self, main, host: HostSpeed, post_repeats: int = 1) -> dict:
        """Fit once, then predict and betas ``post_repeats`` times each.

        Times are kept as measured, each with the host speed factor taken
        around it.
        """
        from checks import check_betas, check_exit, check_fit, check_predictions

        w = self.workload
        sample = {"predict": [], "betas": []}
        done = run_command(main, w.fit_argv(self.data, self.fit), host)
        log = done.pop("log")
        sample["fit"] = [done]
        problems = check_exit(done["code"]) + check_fit(
            self.fit, self.reference, self.first_fit)
        if self.gate.record("fit", problems) and self.first_fit is None:
            self.first_fit = self.fit.read_bytes()
            self.digest_path.write_bytes(self.first_fit)
        sample["panel"] = self.key
        with contextlib.suppress(OSError, ValueError, KeyError):
            payload = json.loads(self.fit.read_bytes())
            for key in ("iterations", "theta", "loglik"):
                sample[key] = payload[key]
        self._log(log, problems)

        post = (
            ("predict", w.predict_argv(self.data, self.fit, self.pred),
             lambda: check_predictions(self.pred, self.data)),
            ("betas", w.betas_argv(self.data, self.fit, self.betas),
             lambda: check_betas(self.betas, self.ids, list(w.random))),
        )
        for _ in range(post_repeats):
            for stage, argv, check in post:
                done = run_command(main, argv, host)
                log = done.pop("log")
                sample[stage].append(done)
                problems = check_exit(done["code"]) or check()
                self.gate.record(stage, problems)
                self._log(log, problems)
        return sample

    @staticmethod
    def _log(output: str, problems: list[str]) -> None:
        if problems:
            print(output, file=sys.stderr)


def stage_mean(samples, stage: str, clock: str = "wall", scaled: bool = True) -> float:
    """Mean time of one stage over the run, scaled to the reference host speed.

    The run is whole cycles over the same panels, so every panel weighs the
    same however fast the code is.
    """
    return statistics.fmean(c[clock] * (c["speed"] if scaled else 1.0)
                            for s in samples for c in s[stage])


def end_to_end(samples, setup, gate, units: dict) -> dict:
    values = {
        "setup_s": statistics.median(t * speed for t, speed in setup),
        "fit_s": stage_mean(samples, "fit"),
        "fit_cpu_s": stage_mean(samples, "fit", "cpu"),
        "predict_s": stage_mean(samples, "predict"),
        "betas_s": stage_mean(samples, "betas"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_share": (gate.attempted - gate.failed) / gate.attempted,
    }
    if set(values) != set(units):
        raise ValueError(f"computed {sorted(values)}, declared {sorted(units)}")
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (SRC / "mixrrm" / "cli.py", ROOT / "tests" / "oracles.py")
               if not p.is_file()]
    if missing:
        print(f"error: not a mixrrm source checkout, missing {missing}", file=sys.stderr)
        return 1
    pin_threads()
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}, "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 1
    workload = WORKLOADS[args.workload]
    work = WORK / f"{workload.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    RESULTS.mkdir(exist_ok=True)
    try:
        return benchmark(workload, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


def benchmark(workload, args, work: Path) -> int:
    import mixrrm.cli
    import mixrrm.estimation
    import mixrrm.postestimation  # noqa: F401  (loaded before any timing)
    from checks import Gate, self_test
    from spans import Tracer

    env = environment()
    code_key = json.dumps({k: v for k, v in env.items() if k != "git_commit"},
                          sort_keys=True)
    gate = Gate()
    tracer = Tracer()
    traced_main = lambda argv: tracer.call(f"cli.{argv[0]}", mixrrm.cli.main, argv)
    untraced, traced = [], []
    # every run fits the same panels, written before anything is timed; a
    # set-up sample is taken before the first pipeline and after each one,
    # so a slow spell of the host hits only some of them
    pipelines = [Pipeline(workload, args.seed, panel, work, gate, code_key)
                 for panel in range(workload.panels)]
    host = HostSpeed()
    setup = [host.around(lambda: measure_setup(pipelines[0].data, workload.attrs))]
    start = time.perf_counter()
    cycles = 0
    while cycles == 0 or time.perf_counter() - start < args.seconds:
        for pipeline in pipelines:
            untraced.append(pipeline.run(mixrrm.cli.main, host, POST_REPEATS))
            if args.trace:
                tracer.pipeline = len(traced)
                tracer.install()
                try:
                    traced.append(pipeline.run(traced_main, host))
                finally:
                    tracer.uninstall()
                traced[-1]["shape"] = pipeline.shape
            setup.append(host.around(lambda: measure_setup(pipeline.data, workload.attrs)))
        cycles += 1

    gate_sound = pipeline.fit.is_file() and pipeline.pred.is_file()
    if gate_sound:
        probe = self_test(
            pipeline.fit, pipeline.pred, pipeline.data,
            lambda: run_command(mixrrm.cli.main, workload.predict_argv(
                pipeline.data, work / "missing.json", work / "never.csv"), host)["code"],
        )
        gate_sound = probe.failed == probe.attempted == 3
        print(f"gate self-test: {probe.failed}/{probe.attempted} injected faults "
              "counted as failures" + ("" if gate_sound else " -- GATE IS UNSOUND"))
    else:
        print("gate self-test: not run, the pipeline left no outputs to corrupt")

    if args.trace:
        from layers import per_layer

        metrics = per_layer(tracer.spans, untraced, traced, declared_units("per_layer"))
    else:
        metrics = end_to_end(untraced, setup, gate, declared_units("end_to_end"))
    correct = gate.failed == 0 and gate_sound

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"{cycles} cycles of {workload.panels} panels, "
          f"pipelines {len(untraced)} untraced + {len(traced)} traced")
    for name, metric in metrics.items():
        print(f"  {name:<34}{metric['value']:>16.6g} {metric['unit']}")
    if not args.trace:
        print(f"  {'failed_share':<34}{gate.failed / gate.attempted:>16.6g} fraction")
        for stage in ("fit", "predict", "betas"):
            name = f"{stage}_s unscaled"
            print(f"  {name:<34}{stage_mean(untraced, stage, scaled=False):>16.6g} s")
    print(f"  {'host probe, median':<34}{statistics.median(host.probes):>16.6g} s"
          f" (reference {HostSpeed.REFERENCE_S} s)")
    for problem in gate.problems:
        print(f"  FAILED {problem}")
    print("environment " + json.dumps(env, sort_keys=True))

    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "cycles": cycles, "environment": env, "metrics": metrics,
        "setup_samples": setup, "host_probes": host.probes,
        "untraced": untraced, "traced": traced,
        "problems": gate.problems,
        "spans": [span.as_dict() for span in tracer.spans],
    }
    stamp = time.strftime("%Y%m%dT%H%M%S")
    out = RESULTS / f"{workload.name}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(json.dumps({"correct": correct, "attempted": gate.attempted,
                      "failed": gate.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
