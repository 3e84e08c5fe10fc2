#!/usr/bin/env python3
"""Smoke-test client for vadasa_serve (docs/serving.md).

Default mode drives the full smoke scenario CI runs: N concurrent clients
submit anonymize + risk jobs over one shared dataset, every job must come
back "done", all anonymize jobs must return byte-identical CSVs, and the
metrics endpoint must expose the serve.* namespace. With --expect-csv the
released bytes are also compared against a reference file (produced by
`vadasa anonymize`).

Telemetry checks (docs/observability.md): every response must echo a 16-hex
"trace_id", every job result must report the trace id of its submit request
as "job_trace_id" plus queued_ns/run_ns timings, and {"op":"telemetry"} is
scraped MID-LOAD — while jobs are still in flight — and its Prometheus
exposition validated line-by-line (# TYPE headers, name alphabet, numeric
samples, the labelled per-op latency family).

With --raw it is a plain NDJSON pipe instead: requests are read from stdin
one JSON object per line, responses are printed to stdout — the minimal
reference client.

With --chaos the server is expected to be running with VADASA_FAILPOINTS
armed (docs/robustness.md), so individual submits may be rejected and jobs
may fail — that is the point. The checks weaken from "everything succeeds"
to "nothing corrupts": every response must still be one well-formed JSON
line with an "ok" bool and a 16-hex trace_id, rejections must carry an
"error", every accepted job must reach a terminal state, all successful
anonymize jobs must still release byte-identical CSVs, and the telemetry
scrape must still parse. The SIGTERM/drain check rides in CI around this
script: the workflow signals the server afterwards and asserts exit 0
within the drain budget.

With --load N it is a load harness instead (docs/serving.md): N requests
against one dataset, half "hot" (one fixed policy, so after the first fill
every request is a result-cache hit) and half "cold" (a unique seed per
request busts the cache key while computing identical work). It reports
throughput plus hot/cold p50/p99 latencies, optionally writes them as JSON
(--json-out), compares wall time against a committed baseline with a slack
ratio (--baseline/--max-ratio), and asserts the cache actually pays
(--min-cache-speedup: cold p50 must be at least that multiple of hot p50).
After the timed loop it checks that a delta re-keys the cache: a v2
apply_delta deleting row 0 must answer version 2 and one row fewer than the
CSV holds, the next hot request must miss and the one after it must hit. The
load harness expects a fresh server.

Endpoints: --socket accepts a bare Unix socket path, unix:PATH, or
tcp:HOST:PORT — the same spellings as vadasa_serve --listen.

Exit codes: 0 success, 1 any check failed.
"""

import argparse
import concurrent.futures
import csv
import json
import re
import socket
import statistics
import sys
import time


def connect(endpoint, timeout):
    """Opens a socket to a bare unix path, unix:PATH, or tcp:HOST:PORT."""
    if endpoint.startswith("tcp:"):
        host, _, port = endpoint[4:].rpartition(":")
        if host in ("", "0.0.0.0", "localhost"):
            host = "127.0.0.1"
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.settimeout(timeout)
        sock.connect((host, int(port)))
        return sock
    path = endpoint[5:] if endpoint.startswith("unix:") else endpoint
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(timeout)
    sock.connect(path)
    return sock


def request(endpoint, payload, timeout=120.0, raw=False):
    """One connection, one request line, one response line. `raw` sends the
    payload string verbatim (chaos mode's malformed-line probe)."""
    line = payload if raw else json.dumps(payload)
    with connect(endpoint, timeout) as sock:
        sock.sendall((line + "\n").encode())
        buf = b""
        while b"\n" not in buf:
            chunk = sock.recv(65536)
            if not chunk:
                break
            buf += chunk
    return json.loads(buf.split(b"\n", 1)[0].decode())


def fail(message):
    print(f"serve_smoke: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


TRACE_RE = re.compile(r"^[0-9a-f]{16}$")


PROTOCOL_VERSION = 2


def check_trace(response, context):
    """Every protocol response echoes a non-zero 16-hex trace_id and states
    the server's protocol version as "v" (docs/serving.md: v2 added the
    apply_delta verb; ok and error lines both carry it)."""
    trace = response.get("trace_id", "")
    if not TRACE_RE.match(trace) or trace == "0" * 16:
        fail(f"{context}: bad trace_id {trace!r} in {response}")
    if response.get("v") != PROTOCOL_VERSION:
        fail(f"{context}: response does not state protocol v{PROTOCOL_VERSION}: "
             f"{response}")
    return trace


# Prometheus text exposition 0.0.4: `# TYPE <name> <kind>` headers, sample
# lines `name{labels} value`. Names use [a-zA-Z_:][a-zA-Z0-9_:]*.
PROM_TYPE_RE = re.compile(r"^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) "
                          r"(counter|gauge|summary|histogram|untyped)$")
PROM_SAMPLE_RE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)"
                            r'(\{[a-zA-Z0-9_]+="[^"]*"'
                            r'(,[a-zA-Z0-9_]+="[^"]*")*\})? (\S+)$')


def check_prometheus(text):
    """Validates exposition line-by-line; returns the declared families."""
    families = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line or line.startswith("# HELP"):
            continue
        if line.startswith("#"):
            m = PROM_TYPE_RE.match(line)
            if not m:
                fail(f"prometheus line {lineno}: bad comment {line!r}")
            families[m.group(1)] = m.group(2)
            continue
        m = PROM_SAMPLE_RE.match(line)
        if not m:
            fail(f"prometheus line {lineno}: unparsable sample {line!r}")
        name = m.group(1)
        # _sum/_count/_min/_max belong to the base family's TYPE header.
        base = re.sub(r"_(sum|count|min|max)$", "", name)
        if name not in families and base not in families:
            fail(f"prometheus line {lineno}: sample {name} has no # TYPE")
        try:
            float(m.group(4))
        except ValueError:
            fail(f"prometheus line {lineno}: non-numeric value {line!r}")
    if not families:
        fail("prometheus exposition declared no families")
    return families


def check_telemetry(sock_path):
    """Scrapes {"op":"telemetry"} and validates exposition + time series."""
    telemetry = request(sock_path, {"op": "telemetry"})
    if not telemetry.get("ok"):
        fail(f"telemetry op failed: {telemetry}")
    check_trace(telemetry, "telemetry")
    families = check_prometheus(telemetry.get("prometheus", ""))
    for needed in ("vadasa_serve_submitted", "vadasa_serve_queue_depth",
                   "vadasa_serve_op_latency_ms"):
        if needed not in families:
            fail(f"prometheus missing family {needed} "
                 f"(have {sorted(families)})")
    if 'vadasa_serve_op_latency_ms{op="submit",quantile="0.5"}' not in \
            telemetry["prometheus"]:
        fail("per-op latency family has no op=\"submit\" series")
    series = telemetry.get("series")
    if not isinstance(series, dict):
        fail(f"telemetry has no series block: {telemetry}")
    count = series.get("count", -1)
    columns = ("t_ms", "queue_depth", "running", "workers", "rss_mb",
               "metric_count")
    for column in columns:
        values = series.get(column)
        if not isinstance(values, list) or len(values) != count:
            fail(f"series column {column} misaligned: "
                 f"{len(values) if isinstance(values, list) else values} "
                 f"values for count={count}")
    return families


def check_wellformed(response, context):
    """Chaos-mode floor: ok bool, trace id, and an error string on failure."""
    if not isinstance(response, dict) or not isinstance(response.get("ok"), bool):
        fail(f"{context}: malformed response {response!r}")
    check_trace(response, context)
    if not response["ok"] and not response.get("error"):
        fail(f"{context}: rejection without an error message: {response}")


def percentile(samples, q):
    """Nearest-rank percentile of a non-empty sample list."""
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[rank]


def check_delta_rekeys(args, hot, run_one):
    """A delta publishes a new snapshot, and cache keys lead with the
    snapshot's generation: one v2 apply_delta deleting row 0, then the next
    hot request misses and the one after it hits the entry that miss filled."""
    with open(args.dataset, newline="", encoding="utf-8") as f:
        rows = sum(1 for record in csv.reader(f) if record) - 1
    applied = request(args.socket, {"op": "apply_delta", "v": 2,
                                    "dataset": args.dataset,
                                    "ops": [{"kind": "delete", "row": 0}]})
    if (not applied.get("ok") or applied.get("version") != 2 or
            applied.get("rows") != rows - 1):
        fail(f"apply_delta deleting row 0 of {rows} answered {applied}")
    if run_one(hot)[1]:
        fail("the first hot request after apply_delta hit a pre-delta entry")
    if not run_one(hot)[1]:
        fail("the second hot request after apply_delta missed the result cache")
    print(f"serve_smoke: apply_delta re-keyed the cache ({rows} -> "
          f"{rows - 1} rows, version 2)")


def load_main(args):
    """Load harness: a hot/cold request mix that measures what the result
    cache buys and gates the serving stack's wall time against a baseline."""
    ping = request(args.socket, {"op": "ping"})
    if not ping.get("ok"):
        fail(f"ping failed: {ping}")

    # Anonymize, not risk: a full suppression cycle is compute-heavy enough
    # that a cache hit (serialize-only) is an order of magnitude faster than
    # the cold run, which is exactly the contrast this harness gates on.
    hot = {"op": "submit", "dataset": args.dataset, "action": "anonymize",
           "k": args.k}

    def run_one(submit_payload):
        """Submit + result on fresh connections; returns (seconds, cached)."""
        start = time.monotonic()
        submitted = request(args.socket, submit_payload)
        if not submitted.get("ok"):
            fail(f"load submit rejected: {submitted}")
        result = request(args.socket, {"op": "result", "id": submitted["id"]})
        elapsed = time.monotonic() - start
        if not result.get("ok") or result.get("state") != "done":
            fail(f"load job {submitted['id']} did not finish: {result}")
        return elapsed, bool(result.get("cached"))

    # Warmup fill: the first hot request is the one legitimate miss.
    warm_seconds, warm_cached = run_one(hot)
    if warm_cached:
        fail("warmup request hit a cache that should have been empty")

    hot_ms, cold_ms = [], []
    wall_start = time.monotonic()
    for i in range(args.load):
        if i % 2 == 0:
            seconds, cached = run_one(hot)
            if not cached:
                fail(f"hot request {i} missed the result cache after warmup")
            hot_ms.append(seconds * 1000.0)
        else:
            # A unique seed mints a unique policy key: guaranteed miss, same
            # computation as the hot policy (seed is unused by this measure).
            cold = dict(hot, seed=1000 + i)
            seconds, cached = run_one(cold)
            if cached:
                fail(f"cold request {i} (unique seed) claimed a cache hit")
            cold_ms.append(seconds * 1000.0)
    wall_seconds = time.monotonic() - wall_start
    check_delta_rekeys(args, hot, run_one)

    report = {
        "bench": "serve_load",
        "requests": args.load,
        "wall_seconds": wall_seconds,
        "throughput_rps": args.load / wall_seconds if wall_seconds > 0 else 0.0,
        "hot_p50_ms": percentile(hot_ms, 0.50),
        "hot_p99_ms": percentile(hot_ms, 0.99),
        "cold_p50_ms": percentile(cold_ms, 0.50),
        "cold_p99_ms": percentile(cold_ms, 0.99),
        "warmup_ms": warm_seconds * 1000.0,
    }
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as out:
            json.dump(report, out, indent=2)
            out.write("\n")

    speedup = report["cold_p50_ms"] / max(report["hot_p50_ms"], 1e-9)
    print(f"serve_smoke: load — {args.load} requests in "
          f"{wall_seconds:.2f}s ({report['throughput_rps']:.1f} rps); "
          f"hot p50 {report['hot_p50_ms']:.2f}ms p99 "
          f"{report['hot_p99_ms']:.2f}ms; cold p50 "
          f"{report['cold_p50_ms']:.2f}ms p99 {report['cold_p99_ms']:.2f}ms; "
          f"cache speedup {speedup:.1f}x")

    if args.min_cache_speedup > 0 and speedup < args.min_cache_speedup:
        fail(f"cache speedup {speedup:.1f}x below the "
             f"--min-cache-speedup {args.min_cache_speedup:g}x bar")
    if args.baseline:
        with open(args.baseline, encoding="utf-8") as ref:
            baseline = json.load(ref)
        # Same shared-runner slack philosophy as perf_smoke: wall time is the
        # stable aggregate; per-request percentiles are too noisy to gate.
        scale = args.load / max(baseline.get("requests", args.load), 1)
        budget = baseline["wall_seconds"] * scale * args.max_ratio
        if wall_seconds > budget:
            fail(f"wall {wall_seconds:.2f}s exceeds {args.max_ratio:g}x the "
                 f"committed baseline ({baseline['wall_seconds']:.2f}s for "
                 f"{baseline.get('requests')} requests => budget "
                 f"{budget:.2f}s)")
        print(f"serve_smoke: OK (load) — within {args.max_ratio:g}x of the "
              f"baseline ({wall_seconds:.2f}s <= {budget:.2f}s)")
    else:
        print("serve_smoke: OK (load)")


def chaos_main(args):
    """Faulted-server sweep: responses stay well-formed, no result corrupts."""
    ping = request(args.socket, {"op": "ping"})
    check_wellformed(ping, "ping")
    if not ping["ok"]:
        fail(f"ping rejected: {ping}")

    accepted, rejected = [], 0
    for j in range(args.jobs):
        action = "anonymize" if j % 2 == 0 else "risk"
        response = request(args.socket,
                           {"op": "submit", "dataset": args.dataset,
                            "action": action, "k": args.k})
        check_wellformed(response, f"chaos submit {j}")
        if response["ok"]:
            accepted.append((action, response["id"]))
        else:
            rejected += 1

    csvs = set()
    done = failed = 0
    for action, job_id in accepted:
        result = request(args.socket, {"op": "result", "id": job_id})
        check_wellformed(result, f"chaos result {job_id}")
        if not result["ok"]:
            fail(f"accepted job {job_id} lost by the scheduler: {result}")
        state = result.get("state")
        if state == "done":
            done += 1
            if action == "anonymize":
                csvs.add(result["csv"])
        elif state in ("failed", "cancelled", "expired"):
            failed += 1  # Injected faults land here; that is fine.
        else:
            fail(f"job {job_id} in non-terminal state {state!r}: {result}")

    if len(csvs) > 1:
        fail(f"{len(csvs)} distinct releases across identical jobs under "
             f"faults (corruption — want at most 1)")

    # Unknown ids and garbage must still come back as structured errors.
    unknown = request(args.socket, {"op": "status", "id": 2**53})
    check_wellformed(unknown, "chaos unknown-id")
    if unknown["ok"]:
        fail(f"status of an unknown id claimed ok: {unknown}")
    garbled = request(args.socket, "{definitely not json", raw=True)
    check_wellformed(garbled, "chaos garbled line")
    if garbled["ok"]:
        fail(f"garbled request claimed ok: {garbled}")

    check_telemetry(args.socket)  # The scrape must survive armed faults too.

    print(f"serve_smoke: OK (chaos) — {args.jobs} submits: {len(accepted)} "
          f"accepted ({done} done, {failed} faulted), {rejected} rejected; "
          f"all responses well-formed")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--socket", required=True,
                        help="endpoint: unix socket path, unix:PATH, or "
                             "tcp:HOST:PORT")
    parser.add_argument("--dataset", help="CSV path to submit jobs against")
    parser.add_argument("--jobs", type=int, default=8, help="concurrent jobs")
    parser.add_argument("--k", type=int, default=2)
    parser.add_argument("--load", type=int, default=0,
                        help="load-harness mode: this many hot/cold requests")
    parser.add_argument("--json-out", help="write the load report as JSON")
    parser.add_argument("--baseline",
                        help="committed load baseline JSON to gate against")
    parser.add_argument("--max-ratio", type=float, default=2.0,
                        help="wall-time slack multiple over the baseline")
    parser.add_argument("--min-cache-speedup", type=float, default=0.0,
                        help="require cold p50 >= this multiple of hot p50")
    parser.add_argument("--expect-csv", help="reference release CSV to compare against")
    parser.add_argument("--shutdown", action="store_true",
                        help="send {\"op\":\"shutdown\"} at the end")
    parser.add_argument("--raw", action="store_true",
                        help="pipe NDJSON requests from stdin instead")
    parser.add_argument("--chaos", action="store_true",
                        help="faulted-server mode: jobs may fail, but every "
                             "response must stay well-formed and successful "
                             "releases identical (docs/robustness.md)")
    args = parser.parse_args()

    if args.raw:
        for line in sys.stdin:
            line = line.strip()
            if line:
                print(json.dumps(request(args.socket, json.loads(line))))
        return

    if not args.dataset:
        fail("--dataset is required outside --raw mode")

    if args.load > 0:
        load_main(args)
        return

    if args.chaos:
        chaos_main(args)
        return

    ping = request(args.socket, {"op": "ping"})
    if not ping.get("ok"):
        fail("ping failed")
    check_trace(ping, "ping")

    # Half anonymize, half risk, all over the same dataset + policy so the
    # scheduler's warmup coalescing path is exercised too. All jobs are
    # submitted up front so the telemetry scrape below happens mid-load,
    # while the scheduler still has queued/running work.
    submits = []
    for j in range(args.jobs):
        action = "anonymize" if j % 2 == 0 else "risk"
        submits.append({"op": "submit", "dataset": args.dataset,
                        "action": action, "k": args.k, "priority": j % 3})
    submitted = [request(args.socket, s) for s in submits]
    for s, response in zip(submits, submitted):
        if not response.get("ok"):
            fail(f"submit {s} -> {response}")
        check_trace(response, "submit")

    check_telemetry(args.socket)  # Mid-load: jobs are still in flight.

    with concurrent.futures.ThreadPoolExecutor(max_workers=args.jobs) as pool:
        results = list(pool.map(
            lambda r: request(args.socket, {"op": "result", "id": r["id"]}),
            submitted))

    csvs = set()
    for submit, accepted, result in zip(submits, submitted, results):
        if not result.get("ok") or result.get("state") != "done":
            fail(f"job {submit} -> {result}")
        check_trace(result, "result")
        # The job reports the trace of the request that submitted it, plus
        # nanosecond queue/run timings from the scheduler.
        if result.get("job_trace_id") != accepted["trace_id"]:
            fail(f"job_trace_id {result.get('job_trace_id')!r} != submit "
                 f"trace {accepted['trace_id']!r}")
        # A result-cache hit completes at admission: it legitimately reports
        # zero queue/run time (and "cached": true). Cold runs must not.
        if result.get("cached"):
            if result.get("run_ns", -1) != 0:
                fail(f"cached result claims nonzero run_ns: {result}")
        elif result.get("queued_ns", -1) < 0 or result.get("run_ns", 0) <= 0:
            fail(f"missing queued_ns/run_ns in {result}")
        if submit["action"] == "anonymize":
            csvs.add(result["csv"])
            if not result.get("audit"):
                fail("anonymize result has no audit")
        else:
            risks = result["risk"]["tuple_risks"]
            if not risks or any(not 0.0 <= r <= 1.0 for r in risks):
                fail(f"bad tuple_risks: {risks[:5]}...")
    if len(csvs) != 1:
        fail(f"{len(csvs)} distinct releases across identical jobs (want 1)")
    if args.expect_csv:
        with open(args.expect_csv, encoding="utf-8") as ref:
            if csvs.pop() != ref.read():
                fail("release differs from the vadasa_cli reference")
        csvs = set()

    metrics = request(args.socket, {"op": "metrics"})
    if not metrics.get("ok"):
        fail("metrics op failed")
    serve_keys = [k for k in metrics["metrics"] if k.startswith("serve.")]
    for needed in ("serve.submitted", "serve.completed", "serve.queue_depth"):
        if needed not in metrics["metrics"]:
            fail(f"missing metric {needed} (have {serve_keys})")

    families = check_telemetry(args.socket)  # Post-load scrape still valid.

    if args.shutdown and not request(args.socket, {"op": "shutdown"}).get("ok"):
        fail("shutdown op failed")

    print(f"serve_smoke: OK — {args.jobs} jobs done, "
          f"{len(serve_keys)} serve.* metrics, "
          f"{len(families)} prometheus families")


if __name__ == "__main__":
    main()
