"""conetest benchmark: drive the CLI in-process, check every output, report metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/selfcheck.py

The program is imported from ``src/`` beside this directory, never from an
installed copy.  One invocation runs one workload in a fresh process.  It
measures set-up (interpreter start to ``conetest.cli`` imported, median of
several child interpreters, see :func:`measure_setup`) and runs one untimed
warm-up pass, whose outputs are checked against independent oracles.  Then
it repeats the pass for ``--seconds``, and every later report must be
byte-identical to the checked one.  With ``--trace 1`` untraced and traced
passes alternate, and the per-layer metrics come from the traced ones.

Reported times are in nominal seconds: each measured time is divided by
the time of a fixed reference kernel run just before and after it, and
multiplied by ``REFERENCE_S`` (see :func:`reference_kernel`).  Set-up is
scaled the same way by a reference child interpreter that imports only numpy
(``SETUP_REFERENCE_S``).  The detail record also carries the raw seconds.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` without tracing, its per-layer metrics with tracing.  The
line before it is a JSON detail record.  It holds the environment, the raw
seconds per pass and, when tracing, every per-layer figure; the spans of the
last traced pass are written to ``.bench-spans-<workload>.jsonl``.
"""

import os

# BLAS threads are pinned before numpy loads, so the thread count of a run
# equals its --workers.
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PIN)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from scipy import integrate, special  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_RUNS = 5
# The reference kernel's time at the nominal speed that reported times are
# scaled to: about its median on an unloaded 2-core 2.0 GHz Xeon, Python 3.11.
REFERENCE_S = 0.005
SETUP_CODE = "import time, conetest.cli; print(repr(time.monotonic()))"
# Set-up is scaled by a child interpreter that only imports numpy, timed the
# same way; SETUP_REFERENCE_S is about its median on the same 2-core Xeon.
SETUP_REFERENCE_CODE = "import time, numpy; print(repr(time.monotonic()))"
SETUP_REFERENCE_S = 0.17
CHILD_TIMEOUT_S = 120


def _die(msg):
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def _load_program():
    if not (SRC / "conetest" / "__init__.py").is_file():
        _die(f"no conetest sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import conetest.cli

    if Path(conetest.__file__).resolve().parent != SRC / "conetest":
        _die(f"conetest imported from {conetest.__file__}, not from {SRC}")
    return conetest.cli


def _child_seconds(code, env):
    """Seconds from spawning an interpreter running ``code`` to the time it prints."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=ROOT,
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1]) - start


def measure_setup(runs):
    """Seconds from spawning an interpreter to ``conetest.cli`` imported, per
    run; the reference children's seconds; and the nominal seconds per run.

    One untimed child first compiles the bytecode cache.  Each timed child
    runs between two reference children that import only numpy.  Set-up is
    the same kind of work (interpreter start, unmarshalling bytecode, loading
    extension modules), and on a shared machine its speed swings by tens of
    percent from one child to the next, which the in-process reference
    kernel does not follow.  The numpy children do, and they never touch the
    program.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    _child_seconds(SETUP_CODE, env)
    seconds, refs = [], [_child_seconds(SETUP_REFERENCE_CODE, env)]
    for _ in range(runs):
        seconds.append(_child_seconds(SETUP_CODE, env))
        refs.append(_child_seconds(SETUP_REFERENCE_CODE, env))
    return seconds, refs, _nominal(seconds, refs, SETUP_REFERENCE_S)


def environment(workers):
    def blas(mod):
        try:
            return mod.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
        except (KeyError, TypeError, AttributeError):
            return None

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "conetest").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas(np),
        "openblas_scipy": blas(scipy),
        "blas_pin": BLAS_PIN,
        "workers": workers,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


# ---------------------------------------------------------------------------
# passes


_REF_MATRIX = np.eye(4) + 0.1


def _reference_integrand(t):
    v = 0.3 * (1.0 - t)
    return special.betaincc(1.5, 20.0, v / (1.0 + v)) * np.sqrt(t)


def reference_kernel():
    """A few milliseconds of fixed work that never touches the program.

    On a shared machine the speed drifts by tens of percent over tens of
    seconds as other tenants load it, and raw times of identical passes
    vary as much.  The kernel mixes the program's kinds of work:
    interpreted Python, a QUADPACK integral with a Python integrand, normal
    sampling with covariance contraction over a (reps, n, p) tensor, and
    batched small solves.  Timed next to each operation, it measures the
    machine's current speed, and dividing by it cancels most of the drift.
    """
    acc = 0
    for i in range(5_000):
        acc += i * i
    integrate.quad(_reference_integrand, 0.0, 1.0)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((100, 120, 3)) @ _REF_MATRIX[:3, :3].T
    centered = x - x.mean(axis=1)[:, None, :]
    np.einsum("rij,rik->rjk", centered, centered)
    np.linalg.solve(np.broadcast_to(_REF_MATRIX, (500, 4, 4)), rng.standard_normal((500, 4, 1)))
    return acc


def _time_reference():
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


def _nominal(seconds, refs, nominal_ref=REFERENCE_S):
    """Scale each time by the mean reference time just before and after it."""
    return [nominal_ref * s / (0.5 * (a + b)) for s, a, b in zip(seconds, refs, refs[1:])]


def run_pass(cli, ops):
    """Run every operation back to back, the reference kernel between them.

    Returns each operation's seconds and nominal seconds, and the outcomes.
    """
    seconds, outcomes = [], []
    refs = [_time_reference()]
    sink = io.StringIO()
    for op in ops:
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                outcome = ("rc", cli.main(op.argv)) if op.call is None else ("obj", op.call())
        except Exception:  # a crashing operation is a failed operation; keep going
            outcome = ("exc", traceback.format_exc(limit=3))
        seconds.append(time.perf_counter() - t0)
        outcomes.append(outcome)
        refs.append(_time_reference())
    return seconds, _nominal(seconds, refs), outcomes


def collect(ops, outcomes):
    """Report text per operation, or None with an error message."""
    texts, errors = [], []
    for op, (kind, value) in zip(ops, outcomes):
        if kind == "exc":
            texts.append(None)
            errors.append(f"{op.name}: raised {value}")
        elif kind == "rc":
            if value != 0:
                texts.append(None)
                errors.append(f"{op.name}: exit code {value}")
            else:
                with open(op.out, encoding="utf-8") as fh:
                    texts.append(fh.read())
                os.remove(op.out)
        else:
            texts.append(json.dumps(value, sort_keys=True, separators=(",", ":")))
    return texts, errors


def check_outputs(ops, texts):
    """Oracle checks of one pass; returns (number failed, messages)."""
    failed, messages = 0, []
    for op, text in zip(ops, texts):
        if text is None:
            failed += 1
            continue
        try:
            errs = op.check(json.loads(text))
        except Exception:  # a malformed report fails its check
            errs = [f"check raised {traceback.format_exc(limit=2)}"]
        if errs:
            failed += 1
            messages.extend(f"{op.name}: {e}" for e in errs)
    return failed, messages


def per_op_median(passes, index):
    """Median over passes of each operation's ``passes[k][index][op]``."""
    return np.median(np.array([p[index] for p in passes]), axis=0)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("analyst", "bayes_weights", "power_sim"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs for the self-check")
    args = parser.parse_args(argv)

    cli = _load_program()
    import tracer as tracing
    import workloads

    load_start = os.getloadavg()
    setup_raw, setup_refs, setup = measure_setup(SETUP_RUNS if args.size == "full" else 1)
    workdir = tempfile.mkdtemp(prefix=".bench-work-", dir=ROOT)
    try:
        wl = workloads.build(args.workload, args.seed, workdir, args.size, str(ROOT))
        ops = wl.ops

        gc.collect()
        *_, outcomes = run_pass(cli, ops)
        reference, errors = collect(ops, outcomes)
        failed, messages = check_outputs(ops, reference)
        messages = errors + messages
        attempted = len(ops)

        tracer = tracing.Tracer() if args.trace else None
        plain, traced = [], []  # (seconds, nominal seconds) per timed pass
        layer_runs = []
        deadline = time.perf_counter() + args.seconds
        while True:
            use_trace = tracer is not None and len(plain) > len(traced)
            gc.collect()
            if use_trace:
                tracer.install()
            try:
                seconds, nominal, outcomes = run_pass(cli, ops)
            finally:
                if use_trace:
                    tracer.uninstall()
            if use_trace:
                spans = tracer.take_spans()
                layer_runs.append(tracing.layer_metrics(spans))
            (traced if use_trace else plain).append((seconds, nominal))
            texts, errors = collect(ops, outcomes)
            attempted += len(ops)
            changed = [op.name for op, t, ref in zip(ops, texts, reference)
                       if t is not None and t != ref]
            failed += len(errors) + len(changed)
            messages += errors + [f"{name}: report differs from the checked pass"
                                  for name in changed]
            if time.perf_counter() >= deadline and (tracer is None or traced):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    nominal = per_op_median(plain, 1)
    secs = per_op_median(plain, 0)
    wall_s = float(nominal.sum())
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "trace": args.trace,
        "env": dict(environment(wl.workers), loadavg_start=load_start,
                    loadavg_end=os.getloadavg()),
        "ops_per_pass": len(ops),
        "uit_ops_per_pass": sum(op.uit for op in ops),
        "timed_passes": len(plain),
        "mc_draws_per_pass": wl.mc_draws,
        "mc_draws_per_s": wl.mc_draws / wall_s,
        "ops_failed_frac": failed / attempted,
        "failures": messages[:20],
        "raw_seconds": {
            "setup_s": statistics.median(setup_raw),
            "setup_runs_s": setup_raw,
            "setup_reference_runs_s": setup_refs,
            "wall_s": float(secs.sum()),
            "pass_walls_s": [sum(s) for s, _ in plain],
            "op_p50_s": float(np.percentile(secs, 50)),
            "op_p90_s": float(np.percentile(secs, 90)),
        },
    }
    if tracer is None:
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": wall_s,
            "ops_per_s": len(ops) / wall_s,
            "op_p50_s": float(np.percentile(nominal, 50)),
            "op_p90_s": float(np.percentile(nominal, 90)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        layers = {
            key: statistics.median(run[key] for run in layer_runs) for key in layer_runs[0]
        }
        layers["trace_overhead_frac"] = float(per_op_median(traced, 1).sum() / wall_s - 1.0)
        detail["raw_seconds"]["traced_pass_walls_s"] = [sum(s) for s, _ in traced]
        detail["layers"] = layers
        detail["spans_file"] = tracing.write_spans(
            spans, ROOT / f".bench-spans-{args.workload}.jsonl"
        )
        values = layers
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
