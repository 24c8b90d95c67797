#!/usr/bin/env python3
"""End-to-end DRC benchmark entry point (see README.md in this directory).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds drc_bench from this checkout's sources (incrementally, in
$CARGO_TARGET_DIR or .bench_build), runs one workload, and prints every metric
by name with its unit and sample count, the correctness gate's verdict, the
input facts and the host fingerprint. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the metrics are
BENCHMARK.json's end_to_end list, with --trace 1 its per_layer list.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FINGERPRINT_KEYS = ("nproc", "simd", "build_type", "odrc_env")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(env):
    """Configure once, then build incrementally. Returns the binary's path."""
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_root, "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir], check=True, env=env,
                       stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", build_dir, "--target", "drc_bench", "-j", jobs],
                   check=True, env=env, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "drc_bench")


def fingerprint(info):
    fp = {k: info.get(k) for k in FINGERPRINT_KEYS}
    # Environment as this script saw it, in case drc_bench read it differently.
    fp["odrc_env"] = " ".join(sorted(f"{k}={v}" for k, v in os.environ.items()
                                     if k.startswith("ODRC_")))
    return fp


def compare_fingerprint(record_path, fp):
    """Flag a result whose host fingerprint differs from the previous one."""
    if not os.path.exists(record_path):
        return
    try:
        with open(record_path) as f:
            old = json.load(f).get("fingerprint", {})
    except (OSError, ValueError):
        return
    diffs = [f"{k}: {old.get(k)!r} -> {fp.get(k)!r}" for k in FINGERPRINT_KEYS
             if old.get(k) != fp.get(k)]
    if diffs:
        print("WARNING: host fingerprint differs from the previous result of this "
              "workload; the two are not comparable (" + "; ".join(diffs) + ")")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        ap.error(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    # Relative to ROOT: drc_bench puts Unix sockets under it, and socket
    # paths are limited to about 100 bytes.
    out_rel = ".bench_out"
    out_dir = os.path.join(ROOT, out_rel)
    # Compiler and program temporaries stay inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(out_dir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    try:
        binary = build(env)
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", out_rel]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=max(60.0, 2 * args.seconds + 60))
    except subprocess.TimeoutExpired:
        log("drc_bench timed out")
        return 1
    if proc.returncode != 0:
        log(f"drc_bench exited with {proc.returncode}")
        return 1
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    info = res["info"]

    missing = [m["name"] for m in wanted if m["name"] not in res["metrics"]
               or res["metrics"][m["name"]]["unit"] != m["unit"]]
    if missing:
        log("drc_bench did not report (or reported in another unit): " + ", ".join(missing))
        return 1

    fp = fingerprint(info)
    os.makedirs(os.path.join(out_dir, "results"), exist_ok=True)
    record_path = os.path.join(out_dir, "results", f"{args.workload}-trace{args.trace}.json")
    compare_fingerprint(record_path, fp)
    with open(record_path, "w") as f:
        json.dump({"seed": args.seed, "seconds": args.seconds, "fingerprint": fp,
                   "info": info, "result": res}, f, indent=1)

    # Human-readable: every metric with unit and sample count, then the gate.
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    print(f"inputs: {info['design']} x{info['scale']:g}, {info['cells']} cells, "
          f"{info['flat_polygons']} flat polygons, gds {info['gds_bytes']} B, "
          f"snap {info['snap_bytes']} B, {info['sites']} injected sites, "
          f"{info['violations']} violations")
    print("host: " + ", ".join(f"{k}={fp[k]!r}" for k in FINGERPRINT_KEYS))
    print(f"host speed: probe median {info['probe_ms']:.3f} ms, reference "
          f"{info['probe_ref_ms']:g} ms; end-to-end times are scaled by "
          f"{info['probe_ref_ms'] / info['probe_ms']:.3f}")
    for name, m in sorted(res["metrics"].items()):
        print(f"  {name:28s} {m['value']:14.6g} {m['unit']:6s} n={m['n']}")
    print(f"gate: {'PASS' if res['correct'] else 'FAIL'} "
          f"({res['failed']} of {res['attempted']} operations failed)")
    for line in res["failures"]:
        print("  failed " + line)
    files = info.get("files", {})
    for kind, path in sorted(files.items()):
        print(f"  {kind}: {path}")

    # Keep the trace artifacts of the latest traced run only.
    keep = {os.path.basename(os.path.dirname(p)) for p in files.values()}
    for d in os.listdir(out_dir):
        if d.startswith(args.workload + "-") and d not in keep:
            shutil.rmtree(os.path.join(out_dir, d), ignore_errors=True)

    metrics = {m["name"]: {"value": res["metrics"][m["name"]]["value"], "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
