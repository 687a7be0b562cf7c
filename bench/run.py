"""Benchmark for the resnet toolkit: seeded workloads driven in-process.

Run from the repository root:

    python3 bench/run.py --workload reduce_certify --seed 1 --seconds 50 --trace 0

Workloads: reduce_certify and spectral (see BENCHMARK.json and
``workloads.py``).

Load model: closed loop, one client, one process. Each op starts when the
previous one returns; ops go through ``resnet.cli.main([...])`` or, for the
calls without a subcommand, the package API. ``--jobs`` and process pools
are never used, and BLAS runs on one thread.

An op list is a sequence of rounds with the same shapes in every round (see
``workloads.py``). Rounds run until the summed op time is as close to
``--seconds`` as whole rounds allow; a round is never cut short. Each round's
outputs are saved to the work directory and, after the last round and once
peak memory has been read, checked against the numpy oracle in
``oracle.py``; neither the checks nor the oracle's memory enter a metric.

``ops_per_s``, ``op_p50_ms`` and ``op_tail_ms`` take each untraced op at
its shape's best latency over the run's rounds (see ``shape_paced``).

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced rounds: the traced ones give the per-layer numbers
(per traced round) and the pair gives ``trace.overhead_ratio``. Spans are
written to ``.bench_out/`` when the run ends, with a JSON record of the
run (mix, input sizes, repeat share, digest, failures, environment).

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.
"""

from __future__ import annotations

import os

# before numpy loads anywhere in this process or its children
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

OUT_DIR = ".bench_out"
# setup_s is a median over this many set-ups spread over the run
SETUP_SAMPLES = 11
# a run always holds at least this many rounds (two each way when traced)
MIN_ROUNDS = 2
TAIL_BEYOND = 10

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter(); "
    "import resnet; print(time.perf_counter() - t)"
)


def fail(msg):
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def import_package(root):
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "resnet", "__init__.py")):
        fail(f"no package source under {src}; run from the repository root")
    sys.path.insert(0, src)
    t0 = perf_counter()
    import resnet
    import resnet.cli  # noqa: F401
    elapsed = perf_counter() - t0
    if os.path.dirname(os.path.abspath(resnet.__file__)) != os.path.join(src, "resnet"):
        fail(f"resnet imported from {resnet.__file__}, not from {src}")
    return resnet, elapsed


def import_seconds(root):
    """Import time of the package in a fresh interpreter (numpy included)."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=root,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def calibrate():
    """Fixed pure-Python loop; metadata only, never used to scale a metric."""
    t0 = perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc += i * i % 7
    return perf_counter() - t0


def write_inputs(resnet, ops):
    for op in ops:
        for path, net in op.files:
            built = resnet.ResistorNetwork.build(net.n, net.edges, net.labels or None)
            with open(path, "w") as fh:
                fh.write(resnet.render_network(built))


# ---------------------------------------------------------------------------
# one op
# ---------------------------------------------------------------------------

def _spectrum(resnet, spec):
    if spec[0] == "product":
        return resnet.product_spectrum(_spectrum(resnet, spec[1]),
                                       _spectrum(resnet, spec[2]))
    return getattr(resnet, f"{spec[0]}_spectrum")(spec[1])


def _api_call(resnet, name, args):
    if name == "fan_chain_reduce":
        n, m, certify = args
        return resnet.fan_chain_reduce(n, m, certify=certify)
    if name == "block_tower_decomposition":
        return resnet.block_tower_decomposition(*args)
    if name == "product_resistance":
        g_spec, h_spec, u, x, v, y = args
        sg, sh = _spectrum(resnet, g_spec), _spectrum(resnet, h_spec)
        rg = resnet.resistance_spectral(sg, u, v)
        rh = resnet.resistance_spectral(sh, x, y)
        return resnet.product_resistance(sg, sh, rg, rh, u, x, v, y)
    raise ValueError(f"unknown api op {name!r}")


def execute(resnet, op):
    """Run one op; returns (seconds, exit code, stdout, api result, error)."""
    out, err = io.StringIO(), io.StringIO()
    rc, result, error = 0, None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            if op.call[0] == "cli":
                rc = resnet.cli.main(list(op.call[1]))
            else:
                result = _api_call(resnet, op.call[1], op.call[2])
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            error = traceback.format_exc(limit=3)
        elapsed = perf_counter() - t0
    if error is None and rc != 0:
        error = f"exit {rc}: {err.getvalue().strip()[:200]}"
    return elapsed, rc, out.getvalue(), result, error


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def tail(latencies):
    """Highest percentile with TAIL_BEYOND ops beyond it: (value, pct, n)."""
    lat = sorted(latencies)
    n = len(lat)
    rank = max(n - TAIL_BEYOND, 1)
    return lat[rank - 1], 100.0 * rank / n, n


def declared_units(root):
    """Unit of every metric, as BENCHMARK.json declares it."""
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except OSError:
        fail(f"no BENCHMARK.json in {root}; run from the repository root")
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def with_units(values, units):
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}


def shape_paced(by_shape):
    """Each untraced op's latency replaced by its shape's best over the
    run's rounds. Every round repeats the same shapes with the same work up
    to the seeded choices, so the spread within a shape is mostly other
    load on the host, which comes and goes within a second: a shape's best
    of a 50 s run's 30 to 47 rounds is steady from run to run where its
    median is not. The run record keeps the raw figures as ``unpaced``."""
    return [min(lat) for lat in by_shape.values() for _ in lat]


def latency_figures(latencies):
    """ops_per_s, op_p50_ms and op_tail_ms of a list of op latencies."""
    return {
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": tail(latencies)[0] * 1e3,
    }


def end_to_end(by_shape, setup_s, peak_rss_mb):
    paced = shape_paced(by_shape)
    value, pct, n = tail(paced)
    return {
        **latency_figures(paced),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }, {"tail_percentile": pct, "tail_ops": n, "tail_beyond": min(TAIL_BEYOND, n - 1)}


class Tally:
    """Everything the run records per op, outside the timed region."""

    def __init__(self):
        self.untraced, self.traced = [], []
        self.by_shape = ({}, {})  # untraced, traced
        self.traced_stdout = 0
        self.failures, self.mix, self.digests = [], {}, []
        self.seen_nets, self.repeats = set(), 0

    def add(self, op, elapsed, traced, stdout, error):
        (self.traced if traced else self.untraced).append(elapsed)
        self.by_shape[traced].setdefault(op.shape, []).append(elapsed)
        if traced:
            self.traced_stdout += len(stdout)
        if error is not None:
            self.failures.append({"op": op.op_id, "shape": op.shape,
                                  "call": list(map(str, op.call[1:])), "error": error})
        entry = self.mix.setdefault(op.shape, {"ops": 0, "vertices": op.vertices,
                                               "latency_s": []})
        entry["ops"] += 1
        entry["latency_s"].append(elapsed)
        self.repeats += op.net_key in self.seen_nets
        self.seen_nets.add(op.net_key)

    @property
    def attempted(self):
        return len(self.untraced) + len(self.traced)


def run_round(resnet, ops, tracer):
    """One timed pass over a round's ops; ``tracer`` is None for an
    untraced round. Returns each op with what it gave back, unchecked."""
    done = []
    if tracer is not None:
        tracer.install()
    try:
        for op in ops:
            gc.collect()
            if tracer is not None:
                first_span = len(tracer.spans)
                tracer.op_id = op.op_id
            done.append((op, *execute(resnet, op)))
            if tracer is not None:
                tracer.finish_op(first_span)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return done


def check_round(oracle_mod, oracle, done, traced, tally):
    """Hold a finished round's outputs to the oracle and tally them."""
    digest = hashlib.sha256()
    for op, elapsed, rc, stdout, result, error in done:
        exact_text = None
        if error is None:
            try:
                ok, reason, exact_text = oracle_mod.check(oracle, op.check, rc, stdout, result)
            except Exception as exc:  # malformed output counts as a failure
                ok, reason = False, f"unreadable output: {exc!r}"
            error = None if ok else reason
        digest.update(f"{op.op_id}|{rc}|{exact_text or ''}\n".encode())
        tally.add(op, elapsed, traced, stdout, error)
    tally.digests.append(digest.hexdigest())


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = os.getcwd()
    units = declared_units(root)

    calibration = [calibrate() for _ in range(3)]
    resnet, inproc_import = import_package(root)
    import numpy

    import oracle as oracle_mod
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    workdir = os.path.join(OUT_DIR, tag)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)

    # set-up: package import in a fresh interpreter plus one round's inputs
    # (networks built, files written). Every round makes its inputs; one is
    # timed, import included, each SETUP_SAMPLES-th of --seconds of op time,
    # so the median spans the whole run. Short runs are topped up at the end.
    gen = workloads.Generator(args.workload, args.seed, workdir)
    setups = []

    def set_up(r, sample):
        t_import = import_seconds(root) if sample else 0.0
        t0 = perf_counter()
        ops = gen.round(r)
        write_inputs(resnet, ops)
        if sample:
            setups.append(t_import + perf_counter() - t0)
        return ops

    tracer = tracing.Tracer() if args.trace else None
    rounds, op_time = [], 0.0
    # what is loaded by now lives for the whole run: the collection before
    # each op then walks only what later ops left behind
    gc.collect()
    gc.freeze()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        sample = op_time >= len(setups) * args.seconds / SETUP_SAMPLES
        done = run_round(resnet, set_up(len(rounds), sample), tracer if traced else None)
        op_time += sum(d[1] for d in done)
        # outputs wait on disk, so the figure holds no more than one round's
        path = os.path.join(workdir, f"outputs-r{len(rounds)}.pickle")
        with open(path, "wb") as fh:
            pickle.dump(done, fh)
        del done
        rounds.append((path, traced))
        # stop at the round boundary nearest to --seconds of op time
        n = len(rounds)
        if (op_time + op_time / n / 2 >= args.seconds and n >= MIN_ROUNDS
                and n % (1 + args.trace) == 0):
            break
    while len(setups) < SETUP_SAMPLES:
        set_up(n + len(setups), True)
    setup_s = statistics.median(setups)
    # read before any check: the oracle's own memory stays out of the figure
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    oracle = oracle_mod.Oracle()
    tally = Tally()
    for path, traced in rounds:
        with open(path, "rb") as fh:
            check_round(oracle_mod, oracle, pickle.load(fh), traced, tally)
    rounds = len(rounds)

    metrics, tail_info = end_to_end(tally.by_shape[False], setup_s, peak_rss_mb)
    reported = metrics
    if tracer is not None:
        layer = tracing.layer_metrics(tracer.spans, sum(tally.traced), rounds // 2,
                                      tally.traced_stdout)
        paced = [latency_figures(shape_paced(b))["ops_per_s"] for b in tally.by_shape]
        layer["trace.overhead_ratio"] = paced[1] / paced[0]
        reported = layer

    attempted, failed = tally.attempted, len(tally.failures)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": rounds, "ops": attempted,
        "load": "closed loop, 1 client, in-process; no --jobs, BLAS on 1 thread",
        "mix": tally.mix, "repeat_share": tally.repeats / attempted,
        "fail_ratio": failed / attempted, "failures": tally.failures,
        "digest_round0": tally.digests[0], "round_digests": tally.digests,
        "tail": tail_info, "setup_samples_s": setups,
        "unpaced": latency_figures(tally.untraced),
        "metrics": with_units(metrics, units),
        "environment": {
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "calibration_s": calibration, "inprocess_import_s": inproc_import,
            "platform": platform.platform(),
        },
    }
    if tracer is not None:
        record["layers"] = with_units(reported, units)
        tracer.write(os.path.join(OUT_DIR, f"spans-{tag}.jsonl"))
    with open(os.path.join(OUT_DIR, f"run-{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  rounds {rounds}  ops {attempted}  "
          f"repeat share {record['repeat_share']:.3f}  (closed loop, 1 client)")
    for shape, entry in sorted(tally.mix.items()):
        print(f"  mix {entry['ops']:4d} x {shape}  ({entry['vertices']} vertices, "
              f"median {statistics.median(entry['latency_s']) * 1e3:.1f} ms)")
    for name, value in metrics.items():
        note = ""
        if name == "op_tail_ms":
            note = (f"  (p{tail_info['tail_percentile']:.2f} of {tail_info['tail_ops']} ops, "
                    f"{tail_info['tail_beyond']} beyond)")
        print(f"  {name:12s} {value:.6g} {units[name]}{note}")
    print("  unpaced      " + "  ".join(f"{k} {v:.6g}" for k, v in record["unpaced"].items()))
    print(f"  fail_ratio   {failed / attempted:.6g} ratio ({failed}/{attempted} ops)")
    if tracer is not None:
        for name, value in reported.items():
            print(f"  {name:34s} {value:.6g} {units[name]}")
    print(f"  digest round0 {tally.digests[0]}")
    print(f"  calibration {statistics.median(calibration) * 1e3:.1f} ms  python "
          f"{platform.python_version()}  numpy {numpy.__version__}  nproc {os.cpu_count()}")
    for f in tally.failures:
        print(f"FAILED {f['op']} {f['shape']}: {f['error']}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": with_units(reported, units),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
