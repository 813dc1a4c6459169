#!/usr/bin/env python3
"""Run the benchmark over several seeds and workloads and summarise it.

Run from the repository root:

    python3 perfbench/report.py spread --workload serve --seeds 1-10
        Timed runs on each seed; prints every end-to-end metric's median,
        quartiles and spread (IQR / median) against its bound.

    python3 perfbench/report.py overview --seed 1
        One timed and one traced run of every workload; prints all
        end-to-end metrics by name and unit, the per-layer metrics, and
        the tracing overhead (traced vs untraced release_s, query_p50_ms,
        window_p50_ms).

Every run's full output (environment line and result line) is appended
to --out (default .bench_build/reports/<command>.jsonl); --summary FILE
also writes the summary as JSON (the records under perfbench/baseline/
were made this way).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
OVERHEAD = ["release_s", "query_p50_ms", "window_p50_ms"]


def run(workload, seed, trace, seconds, out):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or len(lines) < 2:
        sys.exit(f"{' '.join(cmd)}: exit {p.returncode}")
    env, res = json.loads(lines[-2])["env"], json.loads(lines[-1])
    with open(out, "a") as f:
        f.write(json.dumps({"env": env, "result": res}) + "\n")
    if not res["correct"]:
        print(f"  {workload} seed {seed}: {res['failed']} of {res['attempted']} operations failed")
    return env, res


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(args, out):
    values = {}
    envs = []
    for s in seeds(args.seeds):
        env, res = run(args.workload, s, 0, args.seconds, out)
        envs.append(env)
        for k, v in res["metrics"].items():
            values.setdefault(k, []).append(v["value"])
        print(f"  seed {s}: " + ", ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()), flush=True)
    print(f"\n{args.workload}: {len(seeds(args.seeds))} seeds")
    print(f"{'metric':20} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    summary = {"workload": args.workload, "seeds": args.seeds, "seconds": args.seconds,
               "environment": env_record(envs[0]), "metrics": {}}
    for m in SPEC["end_to_end"]:
        vs = values[m["name"]]
        q1, med, q3 = statistics.quantiles(vs, n=4)
        sp = (q3 - q1) / med
        flag = "" if sp <= m["bound"] / 3 else ("  > bound/3" if sp <= m["bound"] else "  > BOUND")
        print(f"{m['name']:20} {med:12.5g} {q1:12.5g} {q3:12.5g} {sp:8.3f} {m['bound']:6.2f}{flag}")
        summary["metrics"][m["name"]] = {"unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                                         "spread": sp, "bound": m["bound"], "values": vs}
    write_summary(args, summary)


def env_record(env):
    """The environment fields every committed record carries."""
    keys = ["nproc", "gomaxprocs", "go_version", "goarch", "commit", "source_sha256",
            "load_connections", "query_rate_ref", "stream_query_rate",
            "stream_query_connections", "stream_windows", "stream_period_ms"]
    return {k: env[k] for k in keys if k in env}


def write_summary(args, summary):
    if args.summary:
        with open(args.summary, "w") as f:
            json.dump(summary, f, indent=1)
            f.write("\n")


def overview(args, out):
    summary = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    for w in [x["name"] for x in SPEC["workloads"]]:
        env, timed = run(w, args.seed, 0, args.seconds, out)
        _, traced = run(w, args.seed, 1, args.seconds, out)
        summary["workloads"][w] = {
            "environment": env_record(env), "timed": timed, "traced": traced,
            "tracing_overhead_pct": {n: (traced["metrics"]["trace." + n]["value"] / timed["metrics"][n]["value"] - 1) * 100
                                     for n in OVERHEAD}}
        print(f"\n== {w} (seed {args.seed}; nproc {env['nproc']}, GOMAXPROCS {env['gomaxprocs']}, "
              f"{env['go_version']}, commit {env['commit'][:12]}, source {env['source_sha256'][:12]}) ==")
        print(f"   correct={timed['correct']} attempted={timed['attempted']} failed={timed['failed']}")
        for m in SPEC["end_to_end"]:
            v = timed["metrics"][m["name"]]
            print(f"   {m['name']:24} {v['value']:12.5g} {v['unit']}")
        print("   per-layer (traced run):")
        for m in SPEC["per_layer"]:
            v = traced["metrics"][m["name"]]
            print(f"     {m['name']:30} {v['value']:12.5g} {v['unit']}")
        print("   tracing overhead (traced minus untraced):")
        for name in OVERHEAD:
            a = timed["metrics"][name]["value"]
            b = traced["metrics"]["trace." + name]["value"]
            print(f"     {name:24} {a:10.5g} -> {b:10.5g}  ({(b - a) / a * 100:+.1f}%)")
    write_summary(args, summary)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    sp = sub.add_parser("spread")
    sp.add_argument("--workload", required=True)
    sp.add_argument("--seeds", default="1-10")
    ov = sub.add_parser("overview")
    ov.add_argument("--seed", type=int, default=1)
    for p in (sp, ov):
        p.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
        p.add_argument("--out")
        p.add_argument("--summary", help="also write the summary as JSON to this file")
    args = ap.parse_args()
    out = args.out or os.path.join(ROOT, ".bench_build", "reports", args.cmd + ".jsonl")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    {"spread": spread, "overview": overview}[args.cmd](args, out)


if __name__ == "__main__":
    main()
