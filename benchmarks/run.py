"""ditherfield benchmark: time one workload end to end, or trace it layer by
layer, and check that its outputs are correct.

    python3 benchmarks/run.py --workload rates_bv --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; the package is imported from
``src/``. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones. Everything else the run saw (machine, every repeat, every
check, artifact digests) goes to ``.bench_out/`` in the checkout.
See ``benchmarks/README.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent

# Each workload is a closed loop with one caller: one entry-point call at a
# time, the next starting only when the previous one returned.
WORKLOADS = {
    "rates_bv": {"entry": "experiment", "config": "bv_sawtooth", "workers": 1},
    "rates_sobolev": {"entry": "experiment", "config": "sobolev_s1", "workers": 1},
    # 5000 trials: at 1000-2000 the battery's own variance gate (empirical
    # variance <= 1.1 x bound) trips on a few seeds in a hundred by chance.
    "lemma_battery": {"entry": "battery", "n": 1000, "trials": 5000, "j_count": 8,
                      "workers": 2},
}
MIN_REPEATS = 2        # two same-seed repeats at least, for the digest check
SETUP_SAMPLES = 5      # setup_s is the median of at least this many processes
DEADLINE_S = 170.0     # every run ends well within the 180 s allowed
# The layers' busy_s must add up to the wall time measured around the entry
# call; only the wrapper's few microseconds outside the root span may differ.
CLOSURE_TOL_S = 1e-3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# (span, statistic) pairs reported from the traced repeat
SPAN_METRICS = (
    ("sensing.simulate_batch", "calls"), ("sensing.simulate_batch", "busy_s"),
    ("sensing.simulate_batch", "self_s"), ("sensing.substream", "calls"),
    ("sensing.substream", "busy_s"), ("sensing.sample", "busy_s"),
    ("fields.eval", "calls"), ("fields.eval", "busy_s"),
    ("fields.true_coefficients", "busy_s"),
    ("estimator.estimate_coefficients", "calls"),
    ("estimator.estimate_coefficients", "busy_s"),
    ("estimator.weighted_basis_sums", "busy_s"),
    ("analysis.integrated_squared_error", "busy_s"),
    ("analysis.mse_upper_bound", "busy_s"), ("analysis.monte_carlo_mse", "self_s"),
    ("harness.run_experiment", "self_s"), ("harness.run_lemma_battery", "self_s"),
)


class Run:
    """Children, checks and repeats of one benchmark invocation."""

    def __init__(self, root: Path, workload: str, seed: int, trace: bool):
        self.root = root
        self.spec = dict(WORKLOADS[workload], seed=seed)
        self.tag = f"{workload}-seed{seed}-trace{int(trace)}"
        self.out = root / ".bench_out"
        self.work = self.out / f"work-{self.tag}-{os.getpid()}"
        self.started = time.perf_counter()
        self.checks: list[list] = []
        self.repeats: list[dict] = []
        self.env = dict(os.environ)
        self.env.update({v: "1" for v in THREAD_VARS})
        src = str(root / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])

    def child(self, **spec) -> dict | None:
        """Run child.py with this workload's spec; None (and a failed check)
        when the process fails."""
        full = dict(self.spec, **spec)
        remaining = DEADLINE_S - (time.perf_counter() - self.started)
        proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), json.dumps(full)],
                                cwd=self.root, env=self.env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True,
                                start_new_session=True)
        try:
            stdout, stderr = proc.communicate(timeout=max(remaining, 1.0))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            self.checks.append([f"{full['job']} process", False, "timed out"])
            return None
        finally:
            _kill_group(proc.pid)
        if proc.returncode != 0:
            tail = " | ".join(stderr.strip().splitlines()[-3:])
            self.checks.append([f"{full['job']} process", False,
                                f"exit {proc.returncode}: {tail}"])
            return None
        return json.loads(stdout.strip().splitlines()[-1])

    def repeat(self, **spec) -> dict | None:
        out = self.work / f"rep{len(self.repeats)}"
        doc = self.child(job="repeat", out=str(out), **spec)
        shutil.rmtree(out, ignore_errors=True)
        if doc is not None:
            self.checks.extend(doc["checks"])
            self.repeats.append(doc)
        return doc

    def reference(self, micro: bool) -> dict:
        doc = self.child(job="check", micro=micro) or {"checks": []}
        self.checks.extend(doc["checks"])
        return doc

    def check_digests(self) -> None:
        """Every repeat of one seed, at any worker count, traced or not,
        must write the same artifact bytes."""
        first = self.repeats[0]["digest"] if self.repeats else None
        for i, rep in enumerate(self.repeats[1:], start=1):
            self.checks.append([f"digest of repeat {i} equals repeat 0",
                                rep["digest"] == first, rep["digest"][:16]])


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _machine(root: Path) -> dict:
    cpu_model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    src = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            src.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                                    capture_output=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "cpu_model": cpu_model, "caches": caches, "commit": commit,
            "src_sha256": src.hexdigest(), "platform": platform.platform()}


def end_to_end(run: Run, seconds: float) -> dict:
    """Untraced repeats at the workload's worker count for about `seconds`."""
    run.reference(micro=False)
    begin = time.perf_counter()
    while True:
        if run.repeat() is None:
            break
        elapsed = time.perf_counter() - begin
        n = len(run.repeats)
        if n >= MIN_REPEATS and elapsed + elapsed / n > seconds:
            break
    setups = [r["setup_s"] for r in run.repeats]
    while run.repeats and len(setups) < SETUP_SAMPLES:
        doc = run.child(job="setup")
        if doc is None:
            break
        setups.append(doc["setup_s"])
    run.check_digests()
    if not run.repeats:
        return {}
    med = lambda key: statistics.median(r[key] for r in run.repeats)  # noqa: E731
    failed = sum(1 for c in run.checks if not c[1])
    return {"wall_s": (med("wall_s"), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "cpu_s": (med("cpu_s"), "s"),
            "peak_rss_mb": (med("peak_rss_mb"), "MB"),
            "pass_frac": (1.0 - failed / len(run.checks), "frac")}


def per_layer(run: Run, spans_path: Path) -> dict:
    """One untraced repeat at the workload's worker count, one untraced and
    one traced repeat at workers=1 (wrappers do not reach pool children),
    and per-term kernel timings."""
    micro = run.reference(micro=True).get("micro", {})
    workers = run.spec["workers"]
    pooled = run.repeat()
    plain = run.repeat(workers=1) if workers != 1 else pooled
    traced = run.repeat(workers=1, trace=True, spans=str(spans_path))
    run.check_digests()
    if pooled is None or plain is None or traced is None:
        return {}
    tr = traced["trace"]
    layer_sum = sum(layer["busy_s"] for layer in tr["layers"].values())
    run.checks.append(["layer busy_s sum to traced wall",
                       abs(layer_sum - traced["wall_s"]) <= CLOSURE_TOL_S,
                       f"sum={layer_sum:.6f} wall={traced['wall_s']:.6f} "
                       f"root={tr['root_s']:.6f}"])
    metrics = {}
    for span, key in SPAN_METRICS:
        value = tr["functions"].get(span, {}).get(key, 0)
        metrics[f"{span}.{key}"] = (value, "count" if key == "calls" else "s")
    for name in ("sensing.sensors", "fields.eval.terms", "estimator.terms"):
        metrics[name] = (tr["counts"].get(name, 0), "count")
    metrics.update({
        "harness.artifact_bytes": (traced["artifact_bytes"], "bytes"),
        "harness.pool.cpu_utilization":
            (pooled["cpu_s"] / (workers * pooled["wall_s"]), "frac"),
        "bench.traced_wall_s": (traced["wall_s"], "s"),
        "bench.trace_overhead_frac": (traced["wall_s"] / plain["wall_s"] - 1.0, "frac"),
        "bench.spans": (tr["spans"], "count"),
    })
    for name in ("estimator.ns_per_term.n1024", "estimator.ns_per_term.n262144",
                 "fields.eval.ns_per_term.n1024", "fields.eval.ns_per_term.n262144"):
        metrics[name] = (micro.get(name, 0.0), "ns")
    for layer, doc in tr["layers"].items():
        metrics[f"{layer}.busy_s"] = (doc["busy_s"], "s")
        metrics[f"{layer}.errors"] = (doc["errors"], "count")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "ditherfield" / "__init__.py").is_file():
        print(f"error: {root} holds no src/ditherfield; run from the root of a "
              f"ditherfield checkout", file=sys.stderr)
        return 2

    run = Run(root, args.workload, args.seed, bool(args.trace))
    run.out.mkdir(exist_ok=True)
    try:
        if args.trace:
            metrics = per_layer(run, run.out / f"spans-{run.tag}.npz")
        else:
            metrics = end_to_end(run, args.seconds)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)

    failed = sum(1 for c in run.checks if not c[1])
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "machine": _machine(root),
              "spec": run.spec, "checks": run.checks, "repeats": run.repeats,
              "digests": sorted({r["digest"] for r in run.repeats}),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    (run.out / f"result-{run.tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"machine: {json.dumps(record['machine'])}")
    for name, ok, detail in run.checks:
        print(f"check {'ok  ' if ok else 'FAIL'} {name}: {detail}")
    for digest in record["digests"]:
        print(f"artifact digest {digest}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value!r} {unit}")
    if not metrics:
        print("error: no repeat completed", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": len(run.checks),
                      "failed": failed, "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
