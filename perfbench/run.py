#!/usr/bin/env python3
"""The repository benchmark: builds vadasa from source and runs one workload.

    python3 perfbench/run.py --workload release|serve \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test        # the helpers' own tests
    python3 perfbench/run.py --write-manifest   # regenerate BENCHMARK.json

Run it from the root of a vadasa checkout. It configures and builds
perfbench/CMakeLists.txt into $CARGO_TARGET_DIR (default .bench_build), runs
the perfbench program with VADASA_THREADS=2, prints its full record as
one JSON line and then the result line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
With --trace 0 the metrics are the end-to-end metrics of manifest.py, with
--trace 1 the per-layer ones. See perfbench/NOTES.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # Leave nothing but .bench_build behind.

import manifest  # noqa: E402

RUN_TIMEOUT_S = 170
THREADS = "2"


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def source_digest():
    """Identity of the sources built: the git commit when there is one, else
    a digest of the build inputs (an exported checkout is not a repository)."""
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              capture_output=True, timeout=10)
        if head.returncode == 0:
            return {"commit": head.stdout.strip()}
    except OSError:
        pass
    digest = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return {"commit": "unknown", "source_sha256": digest.hexdigest()}


def build(build_dir):
    """Configures once, then builds perfbench, its self-tests and
    vadasa_serve; a no-op build is quick. Build output goes to stderr."""
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir, *generator,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target",
                    "perfbench", "perfbench_selftest", "vadasa_serve_tool"],
                   stdout=sys.stderr, check=True)


def run_perfbench(cmd):
    """Runs perfbench in its own process group so a timeout can stop it and
    the server it spawned together."""
    env = dict(os.environ, VADASA_THREADS=THREADS)
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out


def result_line(record, trace):
    """The result line from a perfbench record."""
    metrics = {}
    if trace:
        for m in manifest.PER_LAYER:
            # Demoted end-to-end metrics are in "metrics", layers in "layers".
            layer = record["layers"].get(m["name"]) or record["metrics"].get(m["name"])
            metrics[m["name"]] = {"value": layer["value"] if layer else 0.0,
                                  "unit": m["unit"]}
    else:
        for m in manifest.END_TO_END:
            found = record["metrics"].get(m["name"])
            if found is None:
                raise KeyError(f"the {record['workload']} run did not measure "
                               f"{m['name']}")
            metrics[m["name"]] = {"value": found["value"], "unit": m["unit"]}
    return {
        "correct": record["failed"] == 0 and record["checks_failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }


def annotate(record):
    """Adds the layer map and the run's provenance to the record."""
    for m in manifest.PER_LAYER:
        if m["name"] in record["layers"]:
            record["layers"][m["name"]]["should_move"] = m["should_move"]
    if record["trace"]:
        record["layers_not_on_path"] = [
            m["name"] for m in manifest.PER_LAYER
            if m["name"] not in record["layers"] and m["name"] not in record["metrics"]]
    record["provenance"].update(source_digest())
    record["provenance"]["server_workers"] = 2


def write_manifest():
    doc = manifest.benchmark_json()
    names = [w["name"] for w in doc["workloads"]] + \
        [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names)), "metric and workload names must be unique"
    assert all(len(w["why"]) <= 200 for w in doc["workloads"])
    assert len(doc["per_layer"]) <= 128
    with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w["name"] for w in manifest.WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=manifest.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--write-manifest", action="store_true")
    args = parser.parse_args()

    if args.write_manifest:
        return write_manifest()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be >= 1 and --seed >= 0")
    if not (os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")) and
            os.path.isfile(os.path.join(ROOT, "tools", "vadasa_serve.cc"))):
        return fail(f"no vadasa sources next to perfbench/ (looked in {ROOT}); "
                    "run from the root of a checkout")

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        return fail(f"build failed: {e}")
    if args.self_test:
        return subprocess.run([os.path.join(build_dir, "perfbench_selftest")]).returncode

    # Relative to the checkout root, so the server's socket path stays short.
    work_dir = os.path.relpath(os.path.join(build_dir, "work"), ROOT)
    cmd = [os.path.join(build_dir, "perfbench"),
           f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--work-dir={work_dir}",
           "--serve-bin=" + os.path.join(build_dir, "vadasa_tools", "vadasa_serve")]
    try:
        code, out = run_perfbench(cmd)
    except subprocess.TimeoutExpired:
        return fail(f"perfbench did not finish within {RUN_TIMEOUT_S} s")
    lines = [line for line in out.splitlines() if line.strip()]
    if code != 0 or not lines:
        return fail(f"perfbench exited with code {code}")
    try:
        record = json.loads(lines[-1])
        annotate(record)
        result = result_line(record, args.trace == 1)
    except (ValueError, KeyError) as e:
        return fail(f"bad perfbench record: {e}")
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
