#!/usr/bin/env python3
"""The repository benchmark: batch PML, live quoting and out-of-core runs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload batch_pml|quote_mix|out_of_core \
        --seed N --seconds S --trace 0|1 [--smoke] [--corrupt ylt|quote]

It builds the engine library and the measuring program (perfbench/src)
into .bench_build/, generates the workload's inputs from the seed, runs the
measured process(es), checks the correctness gates, prints every metric by
name with its unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list; with
--trace 1 its per_layer list, from a traced run that also writes a
Chrome-trace file and prints each span's self time. The exit status is
non-zero when a gate fails. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import select
import shutil
import socket
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "are_perfbench")
WORKLOADS = ("batch_pml", "quote_mix", "out_of_core")

# quote_mix traffic. The rate is about half the service's capacity for this
# mix on a 4-vCPU host (cold ~95 ms, delta ~7.5 ms serial => ~68 quotes/s).
QUOTE_RATE = 36.0

# Per-layer metrics of layers a workload does not run: reported as 0.
IDLE = {
    "batch_pml": ("io.shard_", "shard.", "metrics.sharded_reduce_s", "service.", "obs.scrape",
                  "harness."),
    "out_of_core": ("service.", "obs.scrape", "harness."),
    "quote_mix": ("io.shard_", "shard.", "metrics.sharded_reduce_s"),
}


class BenchError(Exception):
    pass


def run_checked(cmd, timeout, **kwargs):
    proc = subprocess.run(cmd, timeout=timeout, **kwargs)
    if proc.returncode not in (0, 3):  # 3 = the mode ran but a gate failed
        raise BenchError(f"{os.path.basename(cmd[0])} {cmd[1]} exited {proc.returncode}")
    return proc


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError("engine sources (CMakeLists.txt, src/) not found next to perfbench/")
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(os.cpu_count() or 1)
    with open(os.path.join(BUILD, "build.log"), "w") as out:
        def configure():
            return subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                                  stdout=out, stderr=subprocess.STDOUT).returncode
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")) and configure() != 0:
            raise BenchError("cmake configure failed; see .bench_build/perfbench/build.log")
        rc = subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target", "are_perfbench"],
                            stdout=out, stderr=subprocess.STDOUT).returncode
        if rc != 0:
            raise BenchError("build failed; see .bench_build/perfbench/build.log")


def source_revision():
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if rev.returncode == 0 and rev.stdout.strip():
            return rev.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    # Not a git checkout: a digest of every source file the binary is built from.
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", os.path.join("perfbench", "src"),
                os.path.join("perfbench", "CMakeLists.txt")):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def host_record(seed):
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    info = json.loads(subprocess.run([BINARY, "info"], capture_output=True, text=True,
                                     timeout=30).stdout)
    return {"nproc": os.cpu_count(), "loadavg_before": os.getloadavg(), "cpu_model": model,
            "compiler": info["compiler"], "build_type": info["build_type"],
            "simd_compiled": info["simd_compiled"], "simd_detected": info["simd_detected"],
            "revision": source_revision(), "seed": seed}


def generate(workload, seed, data, smoke):
    cmd = [BINARY, "gen", "--workload", workload, "--seed", str(seed), "--dir", data]
    run_checked(cmd + (["--smoke"] if smoke else []), timeout=120)


def read_result(path):
    with open(path) as f:
        return json.load(f)


def run_in_process(args, work, data):
    """batch_pml / out_of_core: one measured process does everything."""
    out = os.path.join(work, "result.json")
    cmd = [BINARY, args.workload, "--dir", data, "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", out,
           "--trace-out", os.path.join(work, "trace.json")]
    if args.trace:
        cmd += ["--setups", "1"]  # set-up time is an end-to-end metric only
    if args.smoke:
        cmd.append("--smoke")
    if args.corrupt:
        cmd += ["--corrupt", args.corrupt]
    run_checked(cmd, timeout=args.seconds + 120)
    result = read_result(out)
    result["traces"] = [os.path.join(work, "trace.json")] if args.trace else []
    return result


def read_line(proc, timeout):
    ready, _, _ = select.select([proc.stdout], [], [], timeout)
    if not ready:
        raise BenchError("server did not become ready")
    line = proc.stdout.readline()
    if not line:
        raise BenchError("server exited before it was ready")
    return json.loads(line)


def shutdown_server(sock_path):
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
        s.settimeout(30)
        s.connect(sock_path)
        s.sendall(b"SHUTDOWN\n")
        s.recv(4096)


def run_quote_mix(args, work, data):
    """quote_mix: a serve process (measured) plus one generator process."""
    # Relative to the checkout root: AF_UNIX paths are limited to ~100 bytes.
    sock = os.path.relpath(os.path.join(work, "s.sock"), ROOT)
    serve_out = os.path.join(work, "serve.json")
    serve_trace = os.path.join(work, "serve-trace.json")
    setups = []
    starts = 1 if args.trace else 5
    proc = None
    try:
        for k in range(starts):
            last = k == starts - 1
            cmd = [BINARY, "serve", "--dir", data, "--socket", sock, "--out", serve_out]
            if args.smoke:
                cmd.append("--smoke")
            if args.trace:
                cmd += ["--trace", "1", "--trace-out", serve_trace]
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            ready = read_line(proc, timeout=120)
            setups.append(time.perf_counter() - t0)
            if not ready["ready"]:
                raise BenchError("server's priming cold quote failed")
            if not last:
                shutdown_server(os.path.join(ROOT, sock))
                proc.wait(timeout=60)
                proc = None

        out = os.path.join(work, "loadgen.json")
        rate = QUOTE_RATE if not args.smoke else 40.0
        cmd = [BINARY, "loadgen", "--socket", sock, "--seconds", str(args.seconds),
               "--rate", str(rate), "--seed", str(args.seed),
               "--metrics-port", str(ready["metrics_port"]), "--server-pid", str(proc.pid),
               "--cold-lookups", str(ready["cold_lookups"]), "--trace", str(args.trace),
               "--out", out, "--trace-out", os.path.join(work, "loadgen-trace.json")]
        if args.corrupt:
            cmd += ["--corrupt", args.corrupt]
        run_checked(cmd, timeout=args.seconds + 120, cwd=ROOT)
        shutdown_server(os.path.join(ROOT, sock))
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode not in (0, 3):
            raise BenchError(f"serve exited {proc.returncode}")
        proc = None
    finally:
        if proc is not None:
            proc.kill()
            proc.wait()

    result = read_result(out)
    served = read_result(serve_out)
    result["metrics"].update(served["metrics"])
    result["gates"] += served["gates"]
    result["notes"].update(served["notes"])
    result["metrics"]["setup_s"] = {"value": sorted(setups)[len(setups) // 2], "unit": "s"}
    result["metrics"]["peak_rss_mb"] = {"value": usage.ru_maxrss / 1024.0, "unit": "MB"}
    result["traces"] = [serve_trace, os.path.join(work, "loadgen-trace.json")] if args.trace else []
    return result


def self_times(trace_paths):
    """Per span name: count, total and self milliseconds (self = duration
    minus the time its child spans cover)."""
    table = {}
    for path in trace_paths:
        with open(path) as f:
            events = json.load(f)["traceEvents"]
        child_us = {}
        for e in events:
            parent = e["args"]["parent"]
            child_us[parent] = child_us.get(parent, 0.0) + e["dur"]
        for e in events:
            row = table.setdefault(e["name"], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += e["dur"] / 1e3
            row[2] += (e["dur"] - child_us.get(e["args"]["id"], 0.0)) / 1e3
    return table


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the tests")
    parser.add_argument("--corrupt", choices=("ylt", "quote"),
                        help="falsify one output value; the gates must catch it")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    build()
    host = host_record(args.seed)
    results_dir = os.path.join(ROOT, ".bench_build", "results")
    work = os.path.join(ROOT, ".bench_build", "run",
                        f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    data = os.path.join(work, "data")
    os.makedirs(data)
    try:
        generate(args.workload, args.seed, data, args.smoke)
        if args.workload == "quote_mix":
            result = run_quote_mix(args, work, data)
        else:
            result = run_in_process(args, work, data)
        host["loadavg_after"] = os.getloadavg()
        os.makedirs(results_dir, exist_ok=True)
        stem = os.path.join(results_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
        traces = []
        for path in result.pop("traces"):
            traces.append(f"{stem}-{os.path.basename(path)}")
            shutil.copyfile(path, traces[-1])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = result["metrics"]
    attempted, failed = result["attempted"], result["failed"]
    metrics["failed_frac"] = {"value": failed / attempted if attempted else 1.0, "unit": "ratio"}
    for m in wanted:
        if m["name"] not in metrics:
            if not m["name"].startswith(IDLE[args.workload]):
                raise BenchError(f"metric {m['name']} was not measured")
            metrics[m["name"]] = {"value": 0.0, "unit": m["unit"]}
        if metrics[m["name"]]["unit"] != m["unit"]:
            raise BenchError(f"metric {m['name']} measured in {metrics[m['name']]['unit']}, "
                             f"BENCHMARK.json says {m['unit']}")
    correct = all(g["passed"] for g in result["gates"]) and failed == 0

    print(f"== {args.workload} seed={args.seed} trace={args.trace} "
          f"{'(smoke)' if args.smoke else ''}")
    for key in ("nproc", "loadavg_before", "loadavg_after", "cpu_model", "compiler",
                "build_type", "simd_compiled", "simd_detected", "revision", "seed"):
        print(f"  host.{key}: {host[key]}")
    for key, value in sorted(result["notes"].items()):
        print(f"  note.{key}: {value}")
    for gate in result["gates"]:
        print(f"  gate {gate['name']}: {'PASS' if gate['passed'] else 'FAIL'} {gate['detail']}")
    for name, m in metrics.items():
        print(f"  {name:<36} {m['value']:>16.6g} {m['unit']}")
    table = self_times(traces)
    if table:
        print("  self time by span (harness spans; ms):")
        for name, (count, total, own) in sorted(table.items(), key=lambda kv: -kv[1][2]):
            print(f"    {name:<28} n={count:<6} total={total:12.3f} self={own:12.3f}")
    record = {"workload": args.workload, "host": host, "correct": correct,
              "attempted": attempted, "failed": failed, "metrics": metrics,
              "gates": result["gates"], "notes": result["notes"], "traces": traces,
              "self_time_ms": {k: {"count": v[0], "total": v[1], "self": v[2]}
                               for k, v in table.items()}}
    with open(stem + ".json", "w") as f:
        json.dump(record, f, indent=1)
    print(f"  results: {os.path.relpath(stem + '.json', ROOT)}")
    line = {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {m["name"]: metrics[m["name"]] for m in wanted}}
    print(json.dumps(line), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, subprocess.SubprocessError, KeyError, ValueError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        sys.exit(2)
