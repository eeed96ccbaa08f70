"""Summary and steadiness checks over ``run.py``.

    python3 perfbench/report.py [--seed N] [--seconds S] [--out FILE]
    python3 perfbench/report.py --steady 10 [--workloads W ...]

The first form runs every workload once untraced and once traced, and prints
every end-to-end metric by name and unit, the per-module metrics, the tracing
overhead and the machine (Python, numpy, nproc, CPU model, git commit,
CHEV_THREADS, load average before and after each run).  ``--out`` also writes
it all as JSON.

``--steady N`` runs each workload on N seeds untraced and prints (and with
``--out`` writes), per
end-to-end metric, the median and the quartile spread as a share of the
median next to the bound in BENCHMARK.json.  It then runs two traced runs of
one seed and requires the deterministic counts to be identical.  It exits 1
if an operation failed, a spread exceeds its bound, or a count differs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("roundtrip-small", "roundtrip-rank3", "refusals", "verify-suites")
DECOMPOSER = ("roundtrip-small", "roundtrip-rank3", "refusals")


def bench_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload, seed, seconds, trace):
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    info = {}
    for line in proc.stderr.splitlines():
        if line.startswith('{"env"'):
            info = json.loads(line)
        elif line.startswith(("FAILED", "SELF-TEST", "trace:")):
            print(line, file=sys.stderr)
    info["wall_s"] = time.monotonic() - start
    return result, info


def machine() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    git = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                         text=True, cwd=ROOT)
    return {"cpu_model": cpu,
            "git_commit": git.stdout.strip() if git.returncode == 0 else "unknown"}


def end_to_end_rows(workload, result, info):
    """The end-to-end metrics, named as a user of each product sees them."""
    m = {k: v["value"] for k, v in result["metrics"].items()}
    extra = info.get("info", {})
    n = extra.get("ops", 0)
    rows = [("setup_s", m["setup_s"], "s")]
    if workload in DECOMPOSER:
        rows += [("certify_per_s", m["ops_per_s"], "ops/s"),
                 ("certify_p50_ms", extra.get("p50_ms"), "ms")]
        p90 = extra.get("p90_ms")
        rows.append(("certify_p90_ms", p90 if p90 is not None
                     else f"n/a: {n} samples, needs 100", "ms"))
    else:
        rows += [("verify_checks_per_s", extra.get("verify_checks_per_s"), "checks/s"),
                 ("verify_cases_per_s", m["ops_per_s"], "cases/s"),
                 ("verify_case_p50_ms", extra.get("p50_ms"), "ms")]
    rows += [("peak_rss_mb", m["peak_rss_mb"], "MB"),
             ("failed_ratio", result["failed"] / result["attempted"], "1"),
             ("samples", n, "ops")]
    return rows


def summary(args) -> int:
    doc = {"machine": machine(), "workloads": {}}
    print(f"# machine: {json.dumps(doc['machine'])}")
    ok = True
    for workload in args.workloads:
        plain, plain_info = run_once(workload, args.seed, args.seconds, 0)
        traced, traced_info = run_once(workload, args.seed, args.seconds, 1)
        ok = ok and plain["correct"] and traced["correct"]
        rows = end_to_end_rows(workload, plain, plain_info)
        layers = {k: (v["value"], v["unit"]) for k, v in traced["metrics"].items()}
        slowdown = layers["trace.slowdown"][0]
        print(f"\n## {workload} (seed {args.seed}, correct={plain['correct']}, "
              f"traced correct={traced['correct']})")
        print(f"env: {json.dumps(plain_info.get('env'))}")
        for name, value, unit in rows:
            shown = f"{value:.6g}" if isinstance(value, (int, float)) else value
            print(f"  {name:<28} {shown:>14} {unit}")
        extra = plain_info.get("info", {})
        print(f"  (times scaled by machine speed {extra.get('speed', 0):.4f}; "
              f"unscaled: {json.dumps(extra.get('raw'))})")
        tinfo = traced_info.get("info", {})
        print(f"  tracing overhead: traced/untraced time {slowdown:.4f} "
              f"({tinfo.get('traced_ops_per_s', 0):.4g} vs "
              f"{tinfo.get('untraced_ops_per_s', 0):.4g} ops/s)")
        absent = traced_info.get("info", {}).get("absent", [])
        if absent:
            print(f"  absent layers (function missing): {', '.join(absent)}")
        for name, (value, unit) in layers.items():
            if value:
                print(f"    {name:<44} {value:>14.6g} {unit}")
        doc["workloads"][workload] = {
            "end_to_end": {name: {"value": v, "unit": u} for name, v, u in rows},
            "per_layer": traced["metrics"], "absent": absent,
            "env": plain_info.get("env"), "traced_env": traced_info.get("env"),
            "traced_info": traced_info.get("info"),
            "info": plain_info.get("info")}
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


def deterministic(metrics: dict) -> dict:
    keep = (".calls", ".cells", ".delta_tried", ".images", ".checks")
    return {k: v["value"] for k, v in metrics.items() if k.endswith(keep)}


def steady(args) -> int:
    bounds = {m["name"]: m["bound"] for m in bench_spec()["end_to_end"]}
    ok = True
    doc = {"machine": machine(), "seeds": [args.seed, args.seed + args.steady - 1],
           "workloads": {}}
    for workload in args.workloads:
        values: dict = {}
        for i in range(args.steady):
            seed = args.seed + i
            result, info = run_once(workload, seed, args.seconds, 0)
            ok = ok and result["correct"] and not result["failed"]
            for name, v in result["metrics"].items():
                values.setdefault(name, []).append(v["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items())
                + f" (correct={result['correct']}, {result['attempted']} ops, "
                f"wall {info['wall_s']:.1f}s)", flush=True)
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            flag = "" if spread <= bounds[name] / 3 else "  <- above a third of the bound"
            if spread > bounds[name]:
                ok, flag = False, "  <- ABOVE BOUND"
            print(f"  {workload} {name}: median {med:.5g}, spread {spread:.4f}, "
                  f"bound {bounds[name]}{flag}")
            doc["workloads"].setdefault(workload, {})[name] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread, "values": vals}
        first, info = run_once(workload, args.seed, args.seconds, 1)
        second, _ = run_once(workload, args.seed, args.seconds, 1)
        print(f"  {workload} traced run: wall {info['wall_s']:.1f}s, slowdown "
              f"{first['metrics']['trace.slowdown']['value']:.4f}")
        a, b = deterministic(first["metrics"]), deterministic(second["metrics"])
        diff = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
        print(f"  {workload} traced counts identical across two runs: {not diff}"
              + (f" (differ: {', '.join(diff)})" if diff else ""), flush=True)
        ok = ok and not diff and first["correct"] and second["correct"]
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS),
                        choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=float(bench_spec()["run_seconds"]))
    parser.add_argument("--steady", type=int, default=0, metavar="N",
                        help="run N seeds per workload and check spreads")
    parser.add_argument("--out", help="also write the summary as JSON")
    args = parser.parse_args()
    return steady(args) if args.steady else summary(args)


if __name__ == "__main__":
    raise SystemExit(main())
