"""One benchmark process: set up ditherfield, then do one job, and print
the result as one JSON line.

    python3 benchmarks/child.py '<spec json>'

Jobs (``spec["job"]``):

- ``setup``: import and build the workload's inputs, nothing else.
- ``repeat``: set up, then run the workload's entry point once, timed,
  optionally under the span tracer.
- ``check``: compare the estimator and field evaluation with direct
  ``np.exp`` sums on one seeded batch; with ``spec["micro"]`` also time
  both kernels per term at n = 1024 and n = 262144.

Every repeat runs in a fresh process, so each pays the import and
construction a command-line user pays, and the resource usage of the
process and its pool workers belongs to that repeat alone.
"""

import time

_T0 = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import ditherfield  # noqa: E402
from ditherfield import (AffineFloorDeployment, EstimatorConfig,  # noqa: E402
                         FourierBasis, TruncationSchedule, UniformDeployment,
                         UniformSymNoise, estimate_coefficients, harness,
                         simulate_batch, trial_seed)
from tracing import Tracer, stored_terms  # noqa: E402

REF_SENSORS = 16384
REF_RTOL = 1e-10
MICRO_SIZES = (1024, 262144)
MICRO_MIN_S = 0.25
MICRO_MIN_REPS = 5


def _setup(spec):
    """Build the workload's inputs; returns (config or None, seconds since
    the process started, which covers the imports above)."""
    config = None
    if spec["entry"] == "experiment":
        config = harness.load_shipped_config(spec["config"], seed_override=spec["seed"])
    return config, time.perf_counter() - _T0


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    """Largest resident set of this process or any reaped child (Linux: KiB)."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


def _repeat(spec) -> dict:
    config, setup_s = _setup(spec)
    tracer = None
    if spec.get("trace"):
        tracer = Tracer()
        tracer.install(ditherfield)
    out = Path(spec["out"])
    cpu0, wall0 = _cpu_s(), time.perf_counter()
    if spec["entry"] == "experiment":
        result = harness.run_experiment(config, out, workers=spec["workers"])
    else:
        result = harness.run_lemma_battery(n=spec["n"], trials=spec["trials"],
                                           j_count=spec["j_count"],
                                           seed=spec["seed"],
                                           workers=spec["workers"])
    wall_s = time.perf_counter() - wall0
    cpu_s = _cpu_s() - cpu0

    if spec["entry"] == "experiment":
        checks = [["acceptance verdict", result.status == "PASS", result.detail]]
        csv_path, report_path = Path(result.artifacts[0]), Path(result.artifacts[1])
        blob = csv_path.read_bytes() + report_path.read_bytes()
        artifact_bytes = sum(Path(p).stat().st_size for p in result.artifacts)
    else:
        checks = [["unbiasedness verdict", result.unbiasedness_ok,
                   f"within_4sigma={result.frac_within_4sigma} "
                   f"max_dev={result.max_dev_sigmas:.3f}"],
                  ["variance-bound verdict", result.variance_ok,
                   f"max_var_ratio={result.max_var_ratio:.4f}"]]
        blob = json.dumps(list(result.rows), sort_keys=True).encode()
        artifact_bytes = len(blob)

    doc = {"setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s,
           "peak_rss_mb": _peak_rss_mb(), "workers": spec["workers"],
           "digest": hashlib.sha256(blob).hexdigest(),
           "artifact_bytes": artifact_bytes, "checks": checks, "trace": None}
    if tracer is not None:
        doc["trace"] = tracer.summary()
        tracer.write(spec["spans"])
    return doc


# ---------------------------------------------------------------------------
# reference agreement and per-term kernel timing
# ---------------------------------------------------------------------------

def _frequencies(count: int) -> np.ndarray:
    """Interleaved frequency order of the Fourier basis: 0, -1, +1, -2, +2, ..."""
    j = np.arange(count)
    return np.where(j % 2 == 0, j // 2, -(j + 1) // 2)


def _direct_coefficients(x, bits, pdf, c, m) -> np.ndarray:
    """(c/n) * sum_i exp(-2 pi i f_j x_i) * B_i / p(x_i), one exp per term."""
    freqs = _frequencies(m)
    w = bits / pdf
    acc = np.zeros(m, dtype=np.complex128)
    for lo in range(0, len(x), 1024):
        acc += w[lo:lo + 1024] @ np.exp(-2j * np.pi * np.outer(x[lo:lo + 1024], freqs))
    return (c / len(x)) * acc


def _direct_eval(field, x) -> np.ndarray:
    """The field at x from its definition: closed form or direct exp series."""
    if field.kind == "sawtooth":
        return x - 0.5
    if field.kind == "sobolev" or (field.kind == "finite_dim"
                                   and isinstance(field.basis, FourierBasis)):
        freqs = _frequencies(len(field.values))
        out = np.empty(len(x))
        for lo in range(0, len(x), 1024):
            out[lo:lo + 1024] = np.real(
                np.exp(2j * np.pi * np.outer(x[lo:lo + 1024], freqs)) @ field.values)
        return out
    raise ValueError(f"no reference for field kind {field.kind!r}")


def _direct_pdf(deploy, x) -> np.ndarray:
    if deploy.kind == "uniform":
        return np.ones_like(x)
    if deploy.kind == "affine_floor":
        return deploy.nu + 2.0 * (1.0 - deploy.nu) * x
    raise ValueError(f"no reference for deployment kind {deploy.kind!r}")


def _rel_err(got, want) -> float:
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def _inputs(config, spec):
    """The workload's fields, deployments, noise, estimator config per
    (field, deployment), its schedule m(n) and its largest m."""
    if config is not None:
        cfg = EstimatorConfig(basis=config.basis, density=config.deployment,
                              c=config.c, schedule=config.schedule)
        m_at = config.schedule.resolve
        return ([config.field], [config.deployment], config.noise,
                lambda field, deploy: cfg, m_at, max(map(m_at, config.n_grid)))
    noise = UniformSymNoise(b=1.0)

    def make_cfg(field, deploy):
        return EstimatorConfig(basis=FourierBasis(), density=deploy,
                               c=field.amplitude_bound + noise.b,
                               schedule=TruncationSchedule.fixed(spec["j_count"]))

    fields = [f for _, f in harness.lemma_battery_menu()]
    return (fields, [UniformDeployment(), AffineFloorDeployment(nu=0.5)], noise,
            make_cfg, lambda n: spec["j_count"], spec["j_count"])


def _check(spec) -> dict:
    config, _ = _setup(spec)
    fields, deployments, noise, make_cfg, m_at, m = _inputs(config, spec)
    seed = trial_seed(spec["seed"], 1 << 30)
    checks = []
    for field in fields:
        for deploy in deployments:
            name = f"estimator vs direct sum ({field.kind}, {deploy.kind}, m={m})"
            try:
                batch = simulate_batch(field, deploy, noise, REF_SENSORS, seed)
                got = estimate_coefficients(batch, make_cfg(field, deploy), m).values
                want = _direct_coefficients(batch.x, batch.bits,
                                            _direct_pdf(deploy, batch.x), batch.c, m)
                err = _rel_err(got, want)
                checks.append([name, err <= REF_RTOL, f"rel_err={err:.3e}"])
            except Exception as exc:  # a raising kernel is a failed check
                checks.append([name, False, f"raised {exc!r}"])
        name = f"field eval vs direct ({field.kind})"
        try:
            x = simulate_batch(field, deployments[0], noise, REF_SENSORS, seed).x
            err = _rel_err(field.eval(x), _direct_eval(field, x))
            checks.append([name, err <= REF_RTOL, f"rel_err={err:.3e}"])
        except Exception as exc:
            checks.append([name, False, f"raised {exc!r}"])
    doc = {"checks": checks}
    if spec.get("micro"):
        doc["micro"] = _micro(config, spec)
    return doc


def _median_call_s(fn) -> float:
    times = []
    begin = time.perf_counter()
    while len(times) < MICRO_MIN_REPS or time.perf_counter() - begin < MICRO_MIN_S:
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def _micro(config, spec) -> dict:
    """Median ns per term of one estimate and one field eval at each size.

    A term is one (sensor, coefficient) pair for the estimator and one
    (point, stored coefficient) pair for the field; closed-form fields
    count one term per point."""
    fields, deployments, noise, make_cfg, m_at, _ = _inputs(config, spec)
    field = max(fields, key=stored_terms)
    deploy = deployments[0]
    cfg = make_cfg(field, deploy)
    stored = stored_terms(field)
    out = {}
    for n in MICRO_SIZES:
        batch = simulate_batch(field, deploy, noise, n, trial_seed(spec["seed"], 1 << 31))
        m = m_at(n)
        est = _median_call_s(lambda: estimate_coefficients(batch, cfg, m))
        ev = _median_call_s(lambda: field.eval(batch.x))
        out[f"estimator.ns_per_term.n{n}"] = est / (n * m) * 1e9
        out[f"fields.eval.ns_per_term.n{n}"] = ev / (n * stored) * 1e9
    return out


def main() -> int:
    spec = json.loads(sys.argv[1])
    job = {"setup": lambda s: {"setup_s": _setup(s)[1]},
           "repeat": _repeat, "check": _check}[spec["job"]]
    print(json.dumps(job(spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
