"""Benchmark of ``certify`` and ``verify``, timed from outside the package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; ``src/chevalley`` is imported from
there.  Workloads (see ``perfbench/README.md`` for why each exists):

* ``roundtrip-small``  forged standard automorphisms, A2/Z/5 B2/Z/5 G2/Z/7 A2/F4 A2/Z/6
* ``roundtrip-rank3``  forged standard automorphisms, A3/Z/4 C3/Z/3
* ``refusals``         specs whose refusal stage is known from how they were built
* ``verify-suites``    the six verify suites over their default matrices, via ``cli.main``

A decomposer operation is what ``chevalley decompose`` does in process:
``spec_from_json``, ``certify``, then the sorted-key JSON of the certificate
or of the refusal.  A verify operation is one ``cli.main(["verify", ...])``
case with its stdout captured.  One closed-loop client runs the operations
one after another, in rounds of fixed composition, until the timed seconds
are as close to ``--seconds`` as whole rounds allow (at least one round,
two for ``roundtrip-rank3``).
Inputs come from a child process (``forge.py``), so this process only ever
sees documents.

Every operation is checked outside the timed region: the outcome and stage
it must have by construction, the planted lambda and rho, a re-application
of the certificate to every spec image, and the sha256 of the artifact
against ``golden/<workload>.json`` (warm-up artifacts on every run, measured
ones for seed 0).  Any problem counts the operation as failed.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``.
With ``--trace 0`` the metrics are end to end: ``setup_s``, ``ops_per_s``
and ``peak_rss_mb``; the median latency ``p50_ms`` is on stderr.  Operation
times are scaled to the reference machine speed by calibration samples
taken between operations, about every 1.5 timed seconds; stderr also has the
unscaled values.  ``setup_s`` is the median over fresh processes, each
scaled by samples taken in that process.  With ``--trace 1`` the metrics are
per module, from a traced run that also writes its spans to
``.perfbench/trace-<workload>-seed<N>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# setup_children: fresh processes that each time import + warm-up, besides
# this process; min_rounds: a floor on measured rounds, since a rank-3 round
# has only three operations; trace_rounds: fixed work of a traced run, so
# counts repeat; calibration: the kind of work the workload's time goes to,
# see CALIBRATIONS
WORKLOADS = {
    "roundtrip-small": {"setup_children": 3, "min_rounds": 1, "trace_rounds": 2,
                        "calibration": "python"},
    "roundtrip-rank3": {"setup_children": 0, "min_rounds": 2, "trace_rounds": 1,
                        "calibration": "mixed"},
    "refusals": {"setup_children": 2, "min_rounds": 1, "trace_rounds": 1,
                 "calibration": "python"},
    "verify-suites": {"setup_children": 3, "min_rounds": 1, "trace_rounds": 1,
                      "calibration": "python"},
}
GOLDEN_SEED = 0
GOLDEN_ROUNDS = {"roundtrip-small": 4, "roundtrip-rank3": 1, "refusals": 2,
                 "verify-suites": 1}

clock = time.perf_counter

CALIBRATE_EVERY_S = 1.5     # timed seconds between calibration samples
_CAL_MATRIX = tuple(tuple((31 * i + 17 * j) % 7 for j in range(14)) for i in range(14))


def calibrate_python() -> float:
    """Seconds taken now by a fixed pure-Python workload.

    On a shared 2-vCPU VM, identical work was measured to run up to 40%
    slower for minutes at a time, moving every timing in step.  The workload
    is tuple matrix products and dict updates, the same kind of work as most
    of the program's, and nothing in it depends on the program, so the ratio
    of its time to a fixed reference measures the machine's speed for that
    kind of work during a run.
    """
    start = clock()
    cols = tuple(zip(*_CAL_MATRIX))
    acc = _CAL_MATRIX
    for _ in range(300):
        acc = tuple(tuple(sum(x * y for x, y in zip(row, col)) % 7 for col in cols)
                    for row in acc)
    counts = {}
    for i in range(300_000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    return clock() - start


def calibrate_numpy() -> float:
    """Seconds taken now by fixed int64 row operations, as in elimination."""
    import numpy as np

    start = clock()
    a = (np.arange(300 * 300, dtype=np.int64).reshape(300, 300) * 7919) % 10007
    for t in range(300):
        a -= np.outer(a[:, t] % 5, a[t])
        a %= 10007
    return clock() - start


def calibrate_mixed() -> float:
    """Both calibrations, for the rank-3 workload.

    Its time is split between pure-Python precheck and ``linalg``'s numpy
    elimination, whose speed moves less than pure Python's when the machine
    slows.  Over 29 repeats of each rank-3 operation, scaling by this left
    spreads of 0.07-0.14 (0.09 on the longest, C3/Z/3), by calibrate_python
    alone 0.08-0.14 (0.14 on the longest), and unscaled 0.15-0.18.
    """
    return calibrate_python() + calibrate_numpy()


# kind -> (calibration, reference seconds).  The references are fixed: about
# the median sample on the machine of the first baseline (2-vCPU Xeon VM,
# Python 3.11), so scaled times stay near what the program did there.
# Changing either makes earlier baselines incomparable.
CALIBRATIONS = {"python": (calibrate_python, 0.18), "mixed": (calibrate_mixed, 0.37)}


# ---------------------------------------------------------------------------
# operations


@dataclass
class Result:
    op: dict
    seconds: float
    text: str = ""
    cert: object = None       # the Certificate object of a certified spec
    error: str = ""           # a crash: the op failed whatever it returned
    problems: list = field(default_factory=list)

    @property
    def sha(self) -> str:
        return hashlib.sha256(self.text.encode("utf-8")).hexdigest()


def load_chevalley():
    """Import the package under test from this checkout's ``src``."""
    sys.path.insert(0, str(SRC))
    mods = {name: importlib.import_module(f"chevalley.{name}")
            for name in ("decomposer", "cli", "group", "rings")}
    if Path(mods["decomposer"].__file__).resolve().parent != SRC / "chevalley":
        raise ImportError(f"chevalley imported from {mods['decomposer'].__file__}")
    return mods


def execute(op: dict, mods: dict) -> Result:
    """Run one operation, timing only the program's work."""
    start = clock()
    try:
        if "doc" in op:
            dec = mods["decomposer"]
            cert = None
            try:
                cert = dec.certify(dec.spec_from_json(op["doc"]))
                text = json.dumps(cert.to_json(), sort_keys=True)
            except dec.CertifyError as exc:
                text = json.dumps(exc.to_json(), sort_keys=True)
            return Result(op, clock() - start, text, cert)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = mods["cli"].main(op["argv"])
        seconds = clock() - start
        result = Result(op, seconds, out.getvalue())
        if code != 0:
            result.error = f"exit code {code}: {err.getvalue().strip()[-300:]}"
        return result
    except (Exception, SystemExit):
        return Result(op, clock() - start, error=traceback.format_exc(limit=4))


def check(result: Result, mods: dict, golden: str | None) -> list:
    """Independent checks of one outcome; returns the problems found."""
    op, expect = result.op, result.op["expect"]
    if result.error:
        return [result.error]
    problems = []
    if golden is not None and result.sha != golden:
        problems.append("artifact differs from the golden sha256")
    try:
        art = json.loads(result.text)
    except ValueError:
        return problems + ["artifact is not JSON"]
    if expect["outcome"] == "certified":
        if result.cert is None or "error" in art:
            return problems + [f"refused: {art.get('error')}"]
        if art["global"]["lambda"] != expect["lambda"]:
            problems.append("lambda differs from the planted one")
        if art["global"]["rho"] != expect["rho"]:
            problems.append("rho differs from the planted one")
        try:
            problems += apply_check(result.cert, op["doc"], mods)
        except Exception:
            problems.append("re-applying the certificate raised:\n"
                            + traceback.format_exc(limit=3))
    elif expect["outcome"] == "refused":
        if "error" not in art:
            problems.append("certified a spec that must be refused")
        elif art["error"]["stage"] != expect["stage"]:
            problems.append(f"refused at {art['error']['stage']}, "
                            f"expected {expect['stage']}")
    elif expect["outcome"] == "pass":
        cases = art.get("cases", [])
        if art.get("status") != "pass" or not cases or any(
                c.get("status") != "pass" or not c.get("checks") for c in cases):
            problems.append("verify suite did not pass")
    else:
        problems.append(f"unknown expectation {expect['outcome']}")
    return problems


def apply_check(cert, doc: dict, mods: dict) -> list:
    """Re-apply the certificate to every image of the spec document."""
    ring = mods["rings"].ring_make(doc["ring"])
    _, alg = mods["group"].group_for(doc["system"])
    for entry in doc["images"]:
        t = ring.element_from_json(entry["param"])
        want = tuple(tuple(ring.element_from_json(v) for v in row)
                     for row in entry["matrix"])
        if cert.apply(alg, ring, tuple(entry["root"]), t) != want:
            return [f"certificate does not reproduce the image of "
                    f"{entry['root']} at {entry['param']}"]
    return []


def self_test(result: Result, mods: dict) -> list:
    """Deliberately wrong expectations must be counted as failures."""
    wrong = dict(result.op["expect"])
    if wrong["outcome"] == "certified":
        wrong["lambda"] = [row[:] for row in wrong["lambda"]]
        wrong["lambda"][0][0] = "wrong"
        flipped = {"outcome": "refused", "stage": "precheck"}
    elif wrong["outcome"] == "refused":
        wrong["stage"] = "replay"
        flipped = {"outcome": "certified", "lambda": [], "rho": []}
    else:
        wrong["outcome"] = "certified"
        flipped = {"outcome": "refused", "stage": "precheck"}
    missed = []
    for label, expect, golden in (("wrong detail", wrong, None),
                                  ("wrong outcome", flipped, None),
                                  ("wrong sha256", result.op["expect"], "0" * 64)):
        probe = Result({**result.op, "expect": expect}, result.seconds,
                       result.text, result.cert)
        if not check(probe, mods, golden):
            missed.append(label)
    return missed


# ---------------------------------------------------------------------------
# the input child


class Forger:
    """The forging child process; ``request`` returns one list of ops."""

    def __init__(self, workload: str, seed: int):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "forge.py"), "--workload", workload,
             "--seed", str(seed)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT)

    def request(self, line: str) -> list:
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"input child gave no reply to {line!r}")
        return json.loads(reply)

    def close(self):
        with contextlib.suppress(BrokenPipeError):
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


# ---------------------------------------------------------------------------
# runs


def environment() -> dict:
    numpy = sys.modules.get("numpy")
    return {
        "python": platform.python_version(),
        "numpy": getattr(numpy, "__version__", None),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "loadavg_after": list(os.getloadavg()),
    }


def golden_hashes(workload: str) -> dict:
    path = HERE / "golden" / f"{workload}.json"
    return json.loads(path.read_text()) if path.exists() else {}


class Run:
    def __init__(self, workload, seed, mods, golden):
        self.workload, self.seed, self.mods = workload, seed, mods
        self.golden = golden
        self.results = []          # every checked result
        self.selftest_missed = []

    def golden_for(self, tag: str, k: int, i: int):
        if tag == "warmup":
            seq = self.golden.get("warmup", [])
        elif self.seed == self.golden.get("seed") and k < len(self.golden.get("rounds", [])):
            seq = self.golden["rounds"][k]
        else:
            return None
        return seq[i] if i < len(seq) else None

    def run_ops(self, ops):
        return [execute(op, self.mods) for op in ops]

    def check_all(self, results, tag, k=0):
        for i, res in enumerate(results):
            res.problems = check(res, self.mods, self.golden_for(tag, k, i))
            for p in res.problems:
                print(f"FAILED {self.workload} {res.op['id']} {res.op['config']} "
                      f"{res.op['kind']}: {p}", file=sys.stderr)
        self.results += results

    @property
    def failed(self) -> int:
        return sum(1 for r in self.results if r.problems)


def verify_checks(results) -> int:
    """Checks counted by the verify suites themselves, over passing cases."""
    return sum(case["checks"] for r in results if "argv" in r.op and not r.problems
               for case in json.loads(r.text)["cases"])


def set_up(workload, warm_ops):
    """Import chevalley and run the warm-up: one set-up of a fresh process.

    Returns the modules, the warm-up results, and the set-up seconds unscaled
    and scaled by calibration samples taken just before and just after, in
    this same process.  Samples taken in another process, even one waiting on
    this one, did not follow its speed: they left the spread of set-up times
    as wide as unscaled, or made it wider.  numpy, which chevalley imports,
    is imported first, since the numpy calibration needs it; that import is
    timed as part of the set-up.
    """
    start = clock()
    import numpy  # noqa: F401
    seconds = clock() - start
    scaler = Scaler(workload)
    start = clock()
    mods = load_chevalley()
    results = [execute(op, mods) for op in warm_ops]
    seconds += clock() - start
    return mods, results, seconds, seconds * scaler.factor()


def setup_probe(workload) -> int:
    """Child mode: warm-up documents on stdin, set-up seconds on stdout."""
    _, results, seconds, scaled = set_up(workload, json.loads(sys.stdin.read()))
    if any(r.error for r in results):
        print("setup probe: an operation crashed", file=sys.stderr)
        return 1
    print(json.dumps({"raw": seconds, "scaled": scaled}))
    return 0


class Scaler:
    """Scales timed seconds to the reference machine speed, segment by segment.

    A segment's factor is the workload's reference seconds over the mean of
    the calibration samples taken just before and just after it, outside the
    timed region.
    """

    def __init__(self, workload: str):
        self.calibrate, self.ref = CALIBRATIONS[WORKLOADS[workload]["calibration"]]
        self.samples = [self.calibrate()]
        self.factors = []

    def factor(self) -> float:
        """Close the current segment and return its factor."""
        self.samples.append(self.calibrate())
        self.factors.append(2 * self.ref / (self.samples[-2] + self.samples[-1]))
        return self.factors[-1]


def measure(workload, seed, seconds, forger, warm_ops):
    """--trace 0: end-to-end metrics, scaled to the reference machine speed.

    ``setup_s`` is the median set-up over this process and the set-up
    children, each scaled in its own process (see set_up).
    """
    mods, warm, raw, scaled = set_up(workload, warm_ops)
    raw_setups, setups = [raw], [scaled]
    run = Run(workload, seed, mods, golden_hashes(workload))
    run.check_all(warm, "warmup")
    run.selftest_missed = self_test(warm[0], mods)
    for _ in range(WORKLOADS[workload]["setup_children"]):
        child = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe",
             "--workload", workload],
            input=json.dumps(warm_ops), capture_output=True, text=True,
            cwd=ROOT, timeout=170)
        if child.returncode != 0:
            raise RuntimeError(f"setup probe failed: {child.stderr[-500:]}")
        sample = json.loads(child.stdout.strip().splitlines()[-1])
        raw_setups.append(sample["raw"])
        setups.append(sample["scaled"])

    scaler = Scaler(workload)
    measured, lat, k = [], [], 0
    while True:
        results, segment = [], []
        for op in forger.request(f"round {k}"):
            results.append(execute(op, mods))
            segment.append(results[-1].seconds)
            if sum(segment) >= CALIBRATE_EVERY_S:
                factor = scaler.factor()
                lat += [t * factor for t in segment]
                segment = []
        if segment:
            factor = scaler.factor()
            lat += [t * factor for t in segment]
        run.check_all(results, "round", k)
        measured += results
        k += 1
        raw_timed = sum(r.seconds for r in measured)
        # the round count nearest to S
        if k >= WORKLOADS[workload]["min_rounds"] and raw_timed + raw_timed / k / 2 >= seconds:
            break

    timed = sum(lat)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(lat) / timed, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    raw = [r.seconds for r in measured]
    # the median latency is reported but not a bounded metric: over 10 seeds
    # its spread reached 0.24 of the median on verify-suites, whose median
    # case takes about 0.1 s, too short for calibration to follow
    info = {"rounds": k, "ops": len(lat), "p50_ms": statistics.median(lat) * 1e3,
            "speed": statistics.median(scaler.factors),
            "calibration_s": scaler.samples,
            "setup_samples": setups,
            "raw": {"setup_s": statistics.median(raw_setups),
                    "setup_samples": raw_setups,
                    "ops_per_s": len(raw) / sum(raw),
                    "p50_ms": statistics.median(raw) * 1e3}}
    if len(lat) >= 100:
        info["p90_ms"] = statistics.quantiles(lat, n=10)[-1] * 1e3
    if workload == "verify-suites":
        info["verify_checks_per_s"] = verify_checks(measured) / timed
    return run, metrics, info


def traced(workload, seed, forger, warm_ops):
    """--trace 1: per-module metrics from a fixed amount of work."""
    from tracer import TARGETS, Tracer

    mods = load_chevalley()
    run = Run(workload, seed, mods, golden_hashes(workload))
    tracer = Tracer()
    tracer.install()
    tracer.op_id = "warmup"
    warm = run.run_ops(warm_ops)
    tracer.uninstall()
    run.check_all(warm, "warmup")
    run.selftest_missed = self_test(warm[0], mods)
    traced_results = list(warm)
    # the overhead: each operation runs untraced and traced back to back, in
    # alternating order, and both times are scaled to the reference speed
    scaler = Scaler(workload)
    plain_s = traced_s = 0.0
    segment = []               # (untraced, traced) seconds since the last sample

    def close_segment():
        nonlocal plain_s, traced_s
        factor = scaler.factor()
        plain_s += factor * sum(a for a, _ in segment)
        traced_s += factor * sum(b for _, b in segment)
        segment.clear()

    n = 0
    for k in range(WORKLOADS[workload]["trace_rounds"]):
        plain, results = [], []
        for op in forger.request(f"round {k}"):
            for on in ((False, True) if n % 2 == 0 else (True, False)):
                if on:
                    tracer.install()
                    tracer.op_id = op["id"]
                    results.append(execute(op, mods))
                    tracer.uninstall()
                else:
                    plain.append(execute(op, mods))
            n += 1
            segment.append((plain[-1].seconds, results[-1].seconds))
            if sum(a + b for a, b in segment) >= CALIBRATE_EVERY_S:
                close_segment()
        if segment:
            close_segment()
        run.check_all(plain, "round", k)
        run.check_all(results, "round", k)
        for a, b in zip(plain, results):
            if a.sha != b.sha:
                b.problems.append("traced artifact differs from the untraced one")
                print(f"FAILED {workload} {b.op['id']}: {b.problems[-1]}",
                      file=sys.stderr)
        traced_results += results

    metrics = {}
    for layer, _module, _attr, spans in TARGETS:
        if layer in tracer.absent:
            continue
        agg = tracer.aggregates[layer]
        metrics[f"{layer}.calls"] = (agg.calls, "count")
        metrics[f"{layer}.s"] = (agg.total_s, "s")
        if spans:
            metrics[f"{layer}.self_s"] = (agg.self_s, "s")
        for key, value in agg.extra.items():
            metrics[f"{layer}.{key}"] = (value, "count")
    aggs = tracer.aggregates
    present = set(aggs) - set(tracer.absent)
    if "decomposer.intertwiner" in present:
        metrics["decomposer.match.delta_tried"] = (aggs["decomposer.intertwiner"].calls,
                                                   "count")
    if {"decomposer.match", "decomposer.strictly_inner_element"} <= present:
        candidates = aggs["decomposer.strictly_inner_element"].calls
        matched = aggs["decomposer.match"].calls - aggs["decomposer.match"].raised
        metrics["decomposer.match.hit_ratio"] = (
            matched / candidates if candidates else 0.0, "1")
    metrics["decomposer.replay.images"] = (sum(
        r.cert.report["generators_replayed"] for r in traced_results if r.cert), "count")
    metrics["cli.verify.checks"] = (verify_checks(traced_results), "count")
    metrics["trace.slowdown"] = (traced_s / plain_s, "1")

    decomposer_ops = sum(1 for r in traced_results if "doc" in r.op)
    certify_calls = aggs["decomposer.certify"].calls
    if "decomposer.certify" not in tracer.absent and certify_calls != decomposer_ops:
        run.selftest_missed.append(
            f"decomposer.certify.calls {certify_calls} != {decomposer_ops} operations")

    out = ROOT / ".perfbench" / f"trace-{workload}-seed{seed}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({
        "workload": workload, "seed": seed, "absent": tracer.absent,
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "aggregates": {k: vars(v) for k, v in aggs.items()},
        "spans": [dict(zip(("id", "name", "start", "end", "parent", "op"), s))
                  for s in tracer.spans],
    }))
    info = {"trace_file": str(out.relative_to(ROOT)), "absent": tracer.absent,
            "spans": len(tracer.spans),
            "traced_ops_per_s": n / traced_s, "untraced_ops_per_s": n / plain_s}
    return run, metrics, info


def record_golden(workload: str) -> int:
    """Write golden/<workload>.json from seed 0; every other check must pass."""
    forger = Forger(workload, GOLDEN_SEED)
    try:
        mods = load_chevalley()
        run = Run(workload, GOLDEN_SEED, mods, {})
        doc = {"seed": GOLDEN_SEED, "warmup": [], "rounds": []}
        warm = run.run_ops(forger.request("warmup"))
        run.check_all(warm, "warmup")
        doc["warmup"] = [r.sha for r in warm]
        for k in range(GOLDEN_ROUNDS[workload]):
            results = run.run_ops(forger.request(f"round {k}"))
            run.check_all(results, "round", k)
            doc["rounds"].append([r.sha for r in results])
    finally:
        forger.close()
    if run.failed:
        print(f"golden: {run.failed} operations failed; nothing written",
              file=sys.stderr)
        return 1
    (HERE / "golden" / f"{workload}.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--record-golden", action="store_true",
                        help="write golden/<workload>.json from seed 0")
    args = parser.parse_args()

    if not (SRC / "chevalley" / "__init__.py").is_file():
        print(f"run.py: no chevalley sources under {SRC}", file=sys.stderr)
        return 2
    chev_threads = os.environ.pop("CHEV_THREADS", None)
    if args.setup_probe:
        return setup_probe(args.workload)
    if args.record_golden:
        return record_golden(args.workload)

    loadavg_before = list(os.getloadavg())
    forger = Forger(args.workload, args.seed)
    try:
        warm_ops = forger.request("warmup")
        if args.trace:
            run, metrics, info = traced(args.workload, args.seed, forger, warm_ops)
        else:
            run, metrics, info = measure(args.workload, args.seed, args.seconds,
                                         forger, warm_ops)
    finally:
        forger.close()
    env = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
           "CHEV_THREADS": chev_threads, **environment(),
           "loadavg_before": loadavg_before}

    attempted = len(run.results)
    for missed in run.selftest_missed:
        print(f"SELF-TEST {args.workload}: {missed}", file=sys.stderr)
    print(json.dumps({"env": env, "info": info, "failed_ratio": run.failed / attempted}),
          file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {unit}", file=sys.stderr)
    print(json.dumps({
        "correct": run.failed == 0 and not run.selftest_missed,
        "attempted": attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
