"""mhd2d benchmark: time one workload and check its outputs.

    python3 perfbench/run.py --workload osc-32 --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table
    python3 perfbench/run.py --workload tail-64 --record-reference

Run from the repository root.  The package is imported from ``src/`` of the
checkout the script sits in.  With ``--trace 0`` the end-to-end metrics are
measured; with ``--trace 1`` one body runs under the span tracer and the
per-layer metrics are reported.  The last line of standard output is the
JSON result; the lines before it name every metric with its unit and sample
count.  A full record (inputs, environment, every check) is written under
``.bench_results/``.
"""

import os

# one BLAS thread, and no MHD_* defaults leaking into the CLI
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
for _var in [v for v in os.environ if v.startswith("MHD_")]:
    del os.environ[_var]

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"
REFERENCE = HERE / "reference.json"
WORKLOAD_NAMES = ("osc-32", "tail-64", "absorb-series")
SETUP_SAMPLES = 9
SETUP_PROBES = 15  # import probes before and after each set-up sample


def load_workloads():
    """Import the package from this checkout's src/; exit non-zero without it."""
    sys.path.insert(0, str(SRC))
    try:
        import mhd2d
    except ImportError as exc:
        sys.exit(f"benchmark: cannot import mhd2d from {SRC}: {exc}")
    if Path(mhd2d.__file__).resolve().parent.parent != SRC:
        sys.exit(f"benchmark: mhd2d imported from {mhd2d.__file__}, not from {SRC}")
    import workloads

    return workloads


# --- environment stamp ---------------------------------------------------------

def _blas_threads():
    """Thread count reported by every OpenBLAS loaded in this process."""
    names = ("openblas_get_num_threads", "openblas_get_num_threads64_",
             "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_")
    found = {}
    with open("/proc/self/maps") as fh:
        libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for fn in names:
            if hasattr(lib, fn):
                getattr(lib, fn).restype = ctypes.c_int
                found[Path(path).name] = getattr(lib, fn)()
                break
    return found


def _git_revision():
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.exists():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.exists():
        for ln in packed.read_text().splitlines():
            if ln.endswith(" " + name):
                return ln.split()[0]
    return None


def _src_digest():
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def env_stamp():
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
        "blas_env": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_revision": _git_revision(),
        "src_digest": _src_digest(),
    }


# --- measurement ---------------------------------------------------------------
#
# Times are reported at the host's reference speed (see speed.py): a duration
# is scaled by the probes' reference time over the probe times measured next
# to it.  The raw wall times are printed and kept in the saved record.

PROBE = None  # speed.SpeedProbe, built once the package has been loaded


def setup_sample(name, seed):
    """Process start until the inputs are ready in a fresh interpreter: (raw, scaled).

    The sample is scaled by import probes run just before and after it on
    the same CPU.
    """
    probe = speed.ImportProbe()
    before = [probe() for _ in range(SETUP_PROBES)]
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    raw = float(proc.stdout.split()[-1]) - t0
    probes = before + [probe() for _ in range(SETUP_PROBES)]
    return raw, raw * speed.K_IMPORT / statistics.median(probes)


@dataclass
class Rep:
    """One timed body: raw wall time, the same at reference speed, and its gate."""

    wall: float
    scaled: float
    steps: list  # per-step latencies at reference speed (s)
    out: dict
    failures: list


def run_body(wl, reference):
    """Run one timed body (speed probes taken out of its time) and its gate."""
    (RESULTS / "work").mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=RESULTS / "work")
    probes, raw_steps = [], []

    def probe():
        k = PROBE()
        probes.append(k)
        return k

    try:
        t0 = time.perf_counter()
        try:
            out = wl.body(workdir, raw_steps, probe)
            failures = None
        except Exception as exc:  # a failed run is counted, not fatal
            out, failures = {}, [f"raised {type(exc).__name__}: {exc}"]
        wall = time.perf_counter() - t0 - sum(probes)
        if failures is None:
            try:
                failures = wl.check(out, reference)
            except Exception as exc:
                failures = [f"check raised {type(exc).__name__}: {exc}"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    # steps at their local speed, the rest of the body at its median speed
    factors = speed.rolling_scale([k for _, k in raw_steps])
    steps = [t * f for (t, _), f in zip(raw_steps, factors)]
    rest = wall - sum(t for t, _ in raw_steps)
    scaled = sum(steps) + rest * (speed.scale(probes) if probes else 1.0)
    return Rep(wall, scaled, steps, out, failures)


def run_for(wl, seconds, reference, between=None):
    """Repeat the body until ``seconds`` have passed (at least once).

    ``between`` runs untimed before each repetition; set-up samples use it
    so that they spread over the whole run like the repetitions do.
    """
    reps, loads = [], []
    start = time.perf_counter()
    while not reps or time.perf_counter() - start < seconds:
        if between is not None:
            between()
        reps.append(run_body(wl, reference))
        loads.append(os.getloadavg()[0])
    return reps, loads


def _tail(samples_s):
    """(p50 ms, p90 ms, samples beyond p90) of per-step latencies."""
    ms = [1e3 * s for s in samples_s]
    p90 = statistics.quantiles(ms, n=10)[8]
    return statistics.median(ms), p90, sum(x > p90 for x in ms)


def end_to_end(wl, seed, seconds, reference):
    setup = []
    take_setup = lambda: setup.append(setup_sample(wl.name, seed))
    reps, loads = run_for(wl, seconds, reference, between=take_setup)
    while len(setup) < SETUP_SAMPLES:
        take_setup()
    steps = [x for r in reps for x in r.steps]
    p50, p90, beyond = _tail(steps)
    attempted = len(reps)
    failed = sum(bool(r.failures) for r in reps)
    metrics = {
        "setup_s": (statistics.median(s for _, s in setup), "s", len(setup)),
        "run_s": (statistics.median(r.scaled for r in reps), "s", attempted),
        "step_ms_p50": (p50, "ms", len(steps)),
        "step_ms_p90": (p90, "ms", len(steps)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB", 1),
        "ok_frac": ((attempted - failed) / attempted, "frac", attempted),
    }
    detail = {
        "raw": {"setup_s": statistics.median(r for r, _ in setup),
                "run_s": statistics.median(r.wall for r in reps)},
        "setup_samples_s": setup, "run_walls_s": [(r.wall, r.scaled) for r in reps],
        "steps_beyond_p90": beyond, "load_after_each_rep": loads,
        "failures": [r.failures for r in reps],
    }
    return metrics, attempted, failed, detail


def per_layer(wl, seconds, reference):
    import tracer as tracing

    tracer = tracing.Tracer().install()
    try:
        traced = run_body(wl, reference)
    finally:
        tracer.uninstall()
    reps, loads = run_for(wl, seconds, reference)
    untraced = statistics.median(r.scaled for r in reps)
    layers = tracing.layer_metrics(tracer, {
        "cli.bytes_written": traced.out.get("bytes_written", 0),
        "trace.overhead_frac": (traced.scaled - untraced) / untraced,
    })
    RESULTS.mkdir(exist_ok=True)
    tracing.write_spans(tracer.spans, RESULTS / f"spans-{wl.name}-seed{wl.seed}.csv")
    metrics = {k: (v, unit, 1) for k, (v, unit) in layers.items()}
    reps = [traced] + reps
    detail = {"traced_wall_s": (traced.wall, traced.scaled),
              "untraced_walls_s": [(r.wall, r.scaled) for r in reps[1:]],
              "spans": len(tracer.spans), "first_100_steps": tracing.first_steps(tracer),
              "load_after_each_rep": loads, "failures": [r.failures for r in reps]}
    return metrics, len(reps), sum(bool(r.failures) for r in reps), detail


# --- entry points ----------------------------------------------------------------

def _read_reference():
    return json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}


def record_reference(workloads, name):
    wl = workloads.WORKLOADS[name](0)
    rep = run_body(wl, {})
    if not rep.out:
        sys.exit(f"benchmark: {name} failed: {rep.failures}")
    ref = _read_reference()
    ref[name] = wl.reference_values(rep.out)
    REFERENCE.write_text(json.dumps(ref, indent=2, sort_keys=True) + "\n")
    print(f"recorded the seed-0 reference of {name}: {ref[name]}")


def run_all(args):
    """Run every workload in its own process and print one table."""
    rows, ok = [], True
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}")
            ok = False
            continue
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        ok &= res["correct"]
        rows += [(name, k, m["value"], m["unit"]) for k, m in res["metrics"].items()]
    print(f"\n{'workload':<14} {'metric':<34} {'value':>14}  unit")
    for name, key, value, unit in rows:
        print(f"{name:<14} {key:<34} {value:>14.6g}  {unit}")
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true",
                    help="re-record the seed-0 reference of the workload and exit")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    # one CPU for the run and its set-up children, so that every probe sees
    # the same CPU as the work it scales
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workloads = load_workloads()
    if args.setup_probe:
        workloads.WORKLOADS[args.workload](args.seed)
        print(f"ready {time.perf_counter()!r}")
        return 0
    global PROBE
    PROBE = speed.SpeedProbe()
    if args.record_reference:
        record_reference(workloads, args.workload)
        return 0
    wl = workloads.WORKLOADS[args.workload](args.seed)

    load_before = os.getloadavg()
    reference = _read_reference().get(args.workload, {})
    if args.trace:
        metrics, attempted, failed, detail = per_layer(wl, args.seconds, reference)
    else:
        metrics, attempted, failed, detail = end_to_end(wl, args.seed, args.seconds, reference)
    load_after = os.getloadavg()

    for key, (value, unit, n) in metrics.items():
        print(f"{args.workload} {key} = {value:.6g} {unit} (samples: {n})")
    for key, value in detail.get("raw", {}).items():
        print(f"{args.workload} {key} = {value:.6g} s raw, not scaled to reference speed")
    if detail.get("first_100_steps"):
        print(f"{args.workload} first 100 steps: {detail['first_100_steps']}")
    for i, fails in enumerate(detail["failures"]):
        for f in fails:
            print(f"{args.workload} run {i} FAILED: {f}")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "inputs": wl.describe(), "env": env_stamp(),
        "loadavg_before": load_before, "loadavg_after": load_after,
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()},
        "attempted": attempted, "failed": failed, **detail,
    }
    RESULTS.mkdir(exist_ok=True)
    stamp = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
    (RESULTS / f"{stamp}.json").write_text(json.dumps(record, indent=1, default=float) + "\n")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
