"""The benchmark's definition: workloads, metrics, bounds and layer map.

BENCHMARK.json at the repository root is generated from this file
(`python3 perfbench/run.py --write-manifest`); run.py reads it to turn a
perfbench record into the result line. NOTES.md explains every choice here.
"""

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 20

WORKLOADS = [
    {"name": "release",
     "why": "the steward's path in process: explained risk, audited k=2 and SUDA k=3 "
            "releases on a 12k-row R12A4U table, and the paper's Vadalog cycle on an "
            "800-row A4U table"},
    {"name": "serve",
     "why": "vadasa_serve over a unix socket: an analyst (fresh risk, cache hits, "
            "cold releases) beside a delta feed; the only workload using protocol, "
            "scheduler, cache, registry and deltas"},
]

# Gated end-to-end metrics. The result line of every workload must carry
# every one, so only metrics both workloads perform qualify, and one rule
# (steadiness.py) decides among those: a metric is gated only if it repeats
# within a tenth, i.e. its quartile spread over ten seeds and its median's
# move between two sets stay at or below 0.1 on both workloads.
# peak_rss_mb meets the rule. setup_s is required by the benchmark format
# whether or not it meets the rule; it does not (ten-seed spreads up to
# 0.24 on a 4-vCPU KVM guest), so it takes the largest bound.
END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.1},
]

# End-to-end metrics each run measures and records with n, quartiles and
# tail, demoted to per-layer numbers instead of being given a wider bound:
# the ones both workloads perform (ops_per_s, release_ms, risk_ms) fail the
# rule above on `release`, where their ten-seed spreads reached 0.35-0.41,
# beyond even the largest bound the format allows (0.25); the rest are
# performed by one workload only. See NOTES.md and steadiness.json.
DEMOTED = [
    ("ops_per_s", "1/s", "higher", "release, serve"),
    ("release_ms", "ms", "lower", "release, serve"),
    ("risk_ms", "ms", "lower", "release, serve"),
    ("suda_release_ms", "ms", "lower", "release"),
    ("declarative_release_ms", "ms", "lower", "release"),
    ("hit_ms", "ms", "lower", "serve"),
    ("delta_ms", "ms", "lower", "serve"),
    ("fresh_risk_ms", "ms", "lower", "serve"),
    ("risk_tail_ms", "ms", "lower", "serve"),
    ("hit_tail_ms", "ms", "lower", "serve"),
]

# Per-layer metrics of the traced run: (name, unit, better, workload, the
# end-to-end metric it should move). A layer no op of a workload calls reads
# 0 on that workload (its busy time there is nil).
_LAYERS = [(n, u, b, w, "itself (demoted end-to-end metric)") for n, u, b, w in DEMOTED]
_LAYERS += [
    ("core.columnar.build_ms", "ms", "lower", "release", "risk_ms@release, fresh_risk_ms@serve"),
    ("core.group_index.build_ms", "ms", "lower", "release", "risk_ms@release, fresh_risk_ms@serve"),
    ("core.group_index.update_ms", "ms", "lower", "release", "release_ms, suda_release_ms@release"),
    ("core.group_index.update_rows", "count", "lower", "release", "release_ms@release"),
    ("core.risk.compute_ms", "ms", "lower", "release", "risk_ms@release"),
    ("core.risk.explain_ms", "ms", "lower", "release", "risk_ms@release"),
    ("core.risk.explain_calls", "count", "lower", "release", "risk_ms@release"),
    ("core.global_risk_ms", "ms", "lower", "release", "risk_ms, release_ms@release"),
    ("core.suda.search_ms", "ms", "lower", "release", "suda_release_ms@release"),
    ("core.suda.combos_evaluated", "count", "lower", "release", "suda_release_ms@release"),
    ("core.suda.pruned_share", "ratio", "higher", "release", "suda_release_ms@release"),
    ("core.cycle.run_ms", "ms", "lower", "release", "release_ms@release"),
    ("core.cycle.suda_run_ms", "ms", "lower", "release", "suda_release_ms@release"),
    ("core.cycle.iterations", "count", "lower", "release", "release_ms@release"),
    ("core.cycle.risk_evaluations", "count", "lower", "release", "release_ms@release"),
    ("core.cycle.nulls_injected", "count", "lower", "release", "release_ms@release"),
    ("core.cycle.risk_eval_share", "ratio", "lower", "release", "release_ms@release"),
    ("core.utility_ms", "ms", "lower", "release", "release_ms@release"),
    ("api.session.open_ms", "ms", "lower", "release", "setup_s@release"),
    ("api.self_ms.risk", "ms", "lower", "release", "risk_ms@release"),
    ("api.self_ms.release", "ms", "lower", "release", "release_ms@release"),
    ("api.self_ms.suda_release", "ms", "lower", "release", "suda_release_ms@release"),
    ("api.self_ms.declarative_release", "ms", "lower", "release",
     "declarative_release_ms@release"),
    ("core.bridge.encode_ms", "ms", "lower", "release", "declarative_release_ms@release"),
    ("core.bridge.decode_ms", "ms", "lower", "release", "declarative_release_ms@release"),
    ("vadalog.engine.run_ms", "ms", "lower", "release", "declarative_release_ms@release"),
    ("vadalog.engine.rounds", "count", "lower", "release", "declarative_release_ms@release"),
    ("vadalog.engine.facts_derived", "count", "lower", "release", "declarative_release_ms@release"),
    ("vadalog.engine.rule_firings", "count", "lower", "release", "declarative_release_ms@release"),
    ("api.session.warm_ms", "ms", "lower", "serve", "fresh_risk_ms@serve"),
    ("api.session.apply_ms", "ms", "lower", "serve", "fresh_risk_ms@serve"),
    ("core.delta.apply_ms", "ms", "lower", "serve", "delta_ms@serve"),
    ("serve.fingerprint_ms", "ms", "lower", "serve", "delta_ms@serve"),
    ("serve.rss_per_delta_mb", "MiB", "lower", "serve", "peak_rss_mb@serve"),
    ("serve.cache.hit_share", "ratio", "higher", "serve", "hit_ms@serve"),
    ("serve.warmups_per_delta", "ratio", "lower", "serve", "fresh_risk_ms@serve"),
    ("serve.handle_ms.hit", "ms", "lower", "serve", "hit_ms@serve"),
    ("common.json.parse_ms", "ms", "lower", "serve", "delta_ms@serve"),
    ("common.json.dump_ms", "ms", "lower", "serve", "hit_ms@serve"),
    ("common.csv.read_ms", "ms", "lower", "serve", "setup_s@serve"),
    ("common.csv.write_ms", "ms", "lower", "serve", "delta_ms@serve"),
]
for _cls in ("risk", "hit", "release", "fresh_risk"):
    _LAYERS += [
        (f"serve.queue_ms.{_cls}", "ms", "lower", "serve", f"{_cls}_ms@serve"),
        (f"serve.run_ms.{_cls}", "ms", "lower", "serve", f"{_cls}_ms@serve"),
        (f"serve.wire_ms.{_cls}", "ms", "lower", "serve", f"{_cls}_ms@serve"),
        (f"serve.response_kb.{_cls}", "KiB", "lower", "serve", f"{_cls}_ms@serve"),
    ]
_LAYERS += [
    ("serve.response_kb.delta", "KiB", "lower", "serve", "delta_ms@serve"),
    ("trace.overhead.release_ms", "ratio", "lower", "release, serve",
     "none: traced minus untraced release median, over untraced"),
]

PER_LAYER = [
    {"name": n, "unit": u, "better": b, "workloads": w, "should_move": m}
    for n, u, b, w, m in _LAYERS
]


def benchmark_json():
    """The BENCHMARK.json document, with exactly the contract's keys."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w["name"], "why": w["why"]} for w in WORKLOADS],
        "end_to_end": END_TO_END,
        "per_layer": [{"name": m["name"], "unit": m["unit"], "better": m["better"]}
                      for m in PER_LAYER],
    }
