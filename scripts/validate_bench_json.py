#!/usr/bin/env python3
"""Validate BENCH_greedy.json artifacts (schemas gsp.bench_greedy.v1-v10)
and diff them against the tracked bench history.

Usage:
    validate_bench_json.py [path]                  schema check only
    validate_bench_json.py --history DIR [path]    schema check of the
        latest entry in DIR (or of `path` if given), plus a regression diff
        of the two newest entries in DIR: kernel configs more than 20%
        slower than the previous entry are flagged, and (v2+) configs whose
        stage-2/stage-3 handoff grew more than 20% in bytes-per-candidate
        are flagged alongside. The metric-workload probe's time and
        bytes-per-candidate, (v3) the accept-heavy probe's time and
        (v3-v8) full-query-fallback share, and (v5) the memory probe's RSS
        high-water delta and per-instance candidates-streamed counts are
        diffed the same way. Flags are warnings by default (bench timings
        on shared CI runners are noisy); --strict turns them into a
        non-zero exit.

Schema v2 (PR 3) adds the memory trajectory: per-config "bound_sketch",
"handoff_bytes" and "bytes_per_candidate", the optional "metric_probe"
object (n = 2^10, m = n^2/2 candidates), and top-level "peak_rss_kb".
Schema v3 (PR 4, the speculative two-phase accept path) adds the repair
counters ("repairs", "repair_fallbacks", ...) to every config's stats
block and to the metric probe, plus the optional "accept_probe" object
(clustered-euclidean instance, accept rate > 30%) whose "repair_share"
must stay >= 0.7. Schema v4 (PR 5, the unified session API) adds the
required "session_probe" object: the same instance built repeatedly
through one warm SpannerSession vs a fresh session per call, whose
"warm_pool_constructions" and "warm_workspace_constructions" must both
be exactly 0 -- the warm-start acceptance criterion -- and whose warm
edge sets must match the cold ones. Schema v5 (PR 6, chunked candidate
streaming) makes the RSS accounting per-row -- every config and probe
carries "rss_delta_kb" sampled from ru_maxrss before/after instead of
one process-exit read attributed to everything -- and adds the required
"mem_probe" object: a t = 2 greedy build over the grid-pruned streaming
candidate source on uniform and clustered 2D instances (n = 10^6 in the
history run, 10^5 in the per-PR smoke) whose RSS high-water delta must
stay inside the fixed linear "rss_budget_kb" and whose candidate buffer
must peak below the full (never-materialized) candidate list. Schema v6
(PR 7, cell-batched rejection) adds the required "time_probe" object: the
wall clock of the grid-streamed t = 2 build with cell batching on,
normalized to microseconds per streamed candidate. At the reduced per-PR
shape (n < 10^6) the probe must beat the 49 us/candidate per-candidate
baseline by at least 3x; at the full n = 10^6 history shape the
end-to-end build must finish inside 15 minutes single-core. The
us/candidate trajectory is history-diffed like the other metrics
(same-n entries only). Schema v7 (PR 8, multi-target group probes) adds
the group-probe counters ("certs_two_sided", "group_probes",
"group_probe_decisions", "group_probe_early_exits") to every config's
stats block, plus the required "group_probe" object: the same instance
built with GroupProbing kOff (the PR-7 per-candidate baseline) and kOn
(one batched traversal deciding a whole source group) on the metric
all-pairs and graph shapes, each normalized to microseconds per streamed
candidate. Both arms' edge sets must be bit-identical to the kOff build,
and the metric arm -- min-of-3 builds per arm against its own
in-process kOff baseline, so CI-runner noise largely cancels -- must
beat it by at least 1.1x (stable measurements sit at 1.1-1.3x on the
CI shapes; the floor is the regression guard under residual noise, not
the headline). The
on-us/candidate trajectories are history-diffed per arm (same-n entries
only). Schema v8 (PR 9, the SIMD prefilter backend) adds the required
"simd_probe" object -- the four kernel ablations (far_sweep,
distance_batch, sketch_probe, radix_sort), each timing the scalar
reference against the dispatch-selected vector table (the radix row:
std::stable_sort against the LSD radix sorter) on identical inputs --
plus the "simd_backend" field on the time probe and on both group-probe
arms, recording what dispatch actually selected for those builds. Every
ablation row's outputs_identical must be true (a speedup may never be
quoted for a kernel that changed answers), and when dispatch selected a
vector backend at least two of the four rows must beat the 1.3x floor.
History diffs of the time/group probes are backend-honest: when the two
entries ran on different dispatch-selected backends their timings are
not comparable, so the diff is refused (skipped with a notice) rather
than flagged as a regression or an improvement. Schema v9 (bucket-wide
stage 2) retires the speculative repair path: the stats blocks drop
"repair_reprobes", "certs_published", "cert_ball_aborts" and
"certs_two_sided" (and the always-zero "repairs" / "repair_fallbacks"),
the metric probe drops its repair counters, and the accept probe keeps
its serial and mt2 timings, "snapshot_accepts" and the "matches_serial"
check but drops the repair counters and the "repair_share" floor. Schema
v10 (the cross-bucket bound sketch deleted) drops the per-config
"bound_sketch" column (and the "bound_sketch" ablation row), the
"sketch_hits", "sketch_accepts" and "coarse_rejects" stats, the metric
probe's "sketch_hits", the time probe's "coarse_rejects" and the
"sketch_probe" SIMD row; the SIMD floor then asks for two of the three
remaining kernels. v10 also drops the "group_probe" object and its
metric-arm floor: the classic full-radius shared ball that its kOff arm
timed is deleted, so there is no second arm left to compare against
(v7-v9 entries still carry it and are still checked against the floor).
Older entries are still accepted and diffed on the fields they carry.

Exits non-zero if a file is missing, malformed, or violates the schema --
including the engine's core contract that every configuration matched the
naive kernel's edge set.
"""
import argparse
import json
import sys
from pathlib import Path

SCHEMAS = {f"gsp.bench_greedy.v{i}" for i in range(1, 11)}
REQUIRED_TOP = {"schema", "source", "stretch", "instance", "configs",
                "speedup_full_vs_naive"}
REQUIRED_CONFIG = {"name", "bidirectional", "ball_sharing", "csr_snapshot",
                   "seconds", "edges", "matches_naive", "stats"}
REQUIRED_STATS = {"edges_examined", "dijkstra_runs", "balls_computed",
                  "cache_hits", "csr_rebuilds", "bidirectional_meets", "buckets"}
# v2 additions: the handoff-memory columns and the sketch/compaction stats.
REQUIRED_CONFIG_V2 = REQUIRED_CONFIG | {"bound_sketch", "handoff_bytes",
                                        "bytes_per_candidate"}
REQUIRED_STATS_V2 = REQUIRED_STATS | {"csr_compactions", "sketch_hits",
                                      "sketch_accepts", "snapshot_accepts"}
REQUIRED_TOP_V2 = REQUIRED_TOP | {"peak_rss_kb"}
# v3 additions: the two-phase accept-path counters.
REQUIRED_STATS_V3 = REQUIRED_STATS_V2 | {"repairs", "repair_reprobes",
                                         "repair_fallbacks", "certs_published",
                                         "cert_ball_aborts"}
REQUIRED_METRIC_PROBE = {"kind", "n", "candidates", "stretch", "serial_seconds",
                         "mt2_seconds", "edges", "matches_serial",
                         "handoff_bytes", "bytes_per_candidate",
                         "pr2_bytes_per_candidate"}
REQUIRED_ACCEPT_PROBE_V9 = {"kind", "n", "m", "stretch", "accept_rate",
                            "serial_seconds", "mt2_seconds", "edges",
                            "matches_serial", "snapshot_accepts"}
REQUIRED_ACCEPT_PROBE = REQUIRED_ACCEPT_PROBE_V9 | {
    "repairs", "repair_reprobes", "repair_fallbacks", "certs_published",
    "cert_ball_aborts", "repair_share"}
# The v3-v8 acceptance criterion: on the accept-heavy probe, at least this
# share of tentative accepts had to resolve without a full exact query.
ACCEPT_PROBE_MIN_REPAIR_SHARE = 0.70

# v4 additions: the session-reuse probe of the unified API.
REQUIRED_SESSION_PROBE = {"kind", "n", "m", "stretch", "threads", "builds",
                          "cold_seconds", "warm_seconds",
                          "cold_setup_seconds", "warm_setup_seconds",
                          "cold_pool_constructions",
                          "cold_workspace_constructions",
                          "warm_pool_constructions",
                          "warm_workspace_constructions", "matches"}

# v5 additions: per-row RSS attribution and the linear-space memory probe.
REQUIRED_CONFIG_V5 = REQUIRED_CONFIG_V2 | {"rss_delta_kb"}
REQUIRED_STATS_V5 = REQUIRED_STATS_V3 | {"candidates_streamed",
                                         "candidate_buffer_peak_bytes"}
REQUIRED_MEM_PROBE = {"kind", "n", "stretch", "separation", "rss_budget_kb",
                      "rss_before_kb", "within_budget", "instances"}
REQUIRED_MEM_INSTANCE = {"kind", "gen_seconds", "build_seconds", "edges",
                         "weight", "stretch_target", "candidates_streamed",
                         "candidate_buffer_peak_bytes", "rss_before_kb",
                         "rss_after_kb", "rss_delta_kb"}
CANDIDATE_BYTES = 16  # sizeof(GreedyCandidate): two u32 endpoints + f64 weight

# v6 additions: the wall-clock probe of the cell-batched grid build and
# the per-candidate decision counters that attribute its amortization.
REQUIRED_TIME_PROBE = {"kind", "n", "stretch", "separation", "gen_seconds",
                       "grid_seconds", "build_seconds", "edges", "candidates",
                       "us_per_candidate", "cell_balls", "cell_ball_decisions",
                       "coarse_rejects", "cell_ball_share", "dijkstra_runs"}
REQUIRED_STATS_V6 = REQUIRED_STATS_V5 | {"cell_balls", "cell_ball_decisions",
                                         "coarse_rejects"}
# The tentpole's acceptance criterion: the per-candidate path measured
# 49 us/candidate on the n = 10^5 grid shape; the cell-batched path must
# beat it by at least 3x at the reduced CI shapes, and the full 10^6
# history run must finish inside 15 minutes single-core.
TIME_PROBE_BASELINE_US = 49.0
TIME_PROBE_MIN_SPEEDUP = 3.0
TIME_PROBE_FULL_N = 1_000_000
TIME_PROBE_FULL_BUILD_CEILING_S = 900.0

# v7 additions: the multi-target group-probe counters and the kOn-vs-kOff
# ablation object (v7-v9 only; v10 has no kOff arm to time).
REQUIRED_STATS_V7 = REQUIRED_STATS_V6 | {"certs_two_sided", "group_probes",
                                         "group_probe_decisions",
                                         "group_probe_early_exits"}
REQUIRED_GROUP_PROBE_ARM = {"kind", "n", "m", "stretch", "candidates",
                            "off_seconds", "on_seconds",
                            "off_us_per_candidate", "on_us_per_candidate",
                            "speedup", "matches_off", "group_probes",
                            "group_probe_decisions",
                            "group_probe_early_exits", "mean_group_size",
                            "early_exit_share"}
# The tentpole's acceptance floor: the metric all-pairs arm must beat its
# own in-process kOff (PR-7 per-candidate) baseline in us/candidate.
# Both runs share a process and a warm session (min-of-3 builds each),
# so the ratio is robust to CI-runner speed. Honest calibration: stable
# min-of-5 measurements on the CI shapes land at 1.1-1.3x (n = 512 ..
# 2048), so the floor sits just under the band's low edge -- it exists
# to catch a kernel regression (or a silently disabled kOn path), not
# to restate the headline.
GROUP_PROBE_MIN_SPEEDUP = 1.05

# v8 additions: the SIMD kernel ablation and the dispatch-honesty fields.
REQUIRED_SIMD_KERNELS = ("far_sweep", "distance_batch", "sketch_probe",
                         "radix_sort")
REQUIRED_SIMD_KERNEL_KEYS = {"scalar_seconds", "simd_seconds", "speedup",
                             "outputs_identical"}
# The tentpole's acceptance floor: with a vector backend dispatch-selected,
# at least this many of the kernel ablations must beat the speedup
# floor. (On a scalar-only machine the ablation arms run identical code
# and the floor is vacuous -- dispatch honesty, not a build failure.)
SIMD_PROBE_MIN_SPEEDUP = 1.30
SIMD_PROBE_MIN_KERNELS_OVER_FLOOR = 2

# v9: the speculative repair path is gone, and with it its counters.
RETIRED_REPAIR_STATS = {"repairs", "repair_reprobes", "repair_fallbacks",
                        "certs_published", "cert_ball_aborts", "certs_two_sided"}
REQUIRED_STATS_V9 = REQUIRED_STATS_V7 - RETIRED_REPAIR_STATS

# v10: the cross-bucket bound sketch is gone, and with it its config
# column, its counters, the time probe's coarse rejects and the SIMD
# way-probe row.
RETIRED_SKETCH_STATS = {"sketch_hits", "sketch_accepts", "coarse_rejects"}
REQUIRED_STATS_V10 = REQUIRED_STATS_V9 - RETIRED_SKETCH_STATS
REQUIRED_CONFIG_V10 = REQUIRED_CONFIG_V5 - {"bound_sketch"}
REQUIRED_TIME_PROBE_V10 = REQUIRED_TIME_PROBE - {"coarse_rejects"}
REQUIRED_SIMD_KERNELS_V10 = ("far_sweep", "distance_batch", "radix_sort")

REGRESSION_THRESHOLD = 1.20  # >20% worse than the previous entry


def fail(msg: str) -> None:
    print(f"BENCH_greedy.json schema violation: {msg}", file=sys.stderr)
    sys.exit(1)


def load(path) -> dict:
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except OSError as e:
        fail(f"cannot read {path}: {e}")
    except json.JSONDecodeError as e:
        fail(f"{path} is not valid JSON: {e}")
    raise AssertionError  # unreachable: fail() exits


def validate(doc: dict, path) -> None:
    schema = doc.get("schema")
    if schema not in SCHEMAS:
        fail(f"{path}: unexpected schema tag {schema!r}")
    version = int(schema.rsplit("v", 1)[1])
    v2, v3, v4 = version >= 2, version >= 3, version >= 4
    v5, v6, v7, v8 = version >= 5, version >= 6, version >= 7, version >= 8
    v9, v10 = version >= 9, version >= 10
    required_top = REQUIRED_TOP_V2 if v2 else REQUIRED_TOP
    required_config = (REQUIRED_CONFIG_V10 if v10 else
                       REQUIRED_CONFIG_V5 if v5 else
                       REQUIRED_CONFIG_V2 if v2 else REQUIRED_CONFIG)
    required_stats = (REQUIRED_STATS_V10 if v10 else
                      REQUIRED_STATS_V9 if v9 else
                      REQUIRED_STATS_V7 if v7 else
                      REQUIRED_STATS_V6 if v6 else
                      REQUIRED_STATS_V5 if v5 else
                      REQUIRED_STATS_V3 if v3 else
                      REQUIRED_STATS_V2 if v2 else REQUIRED_STATS)
    if missing := required_top - doc.keys():
        fail(f"{path}: missing top-level keys: {sorted(missing)}")
    inst = doc["instance"]
    if {"kind", "n", "m"} - inst.keys():
        fail(f"{path}: instance must carry kind/n/m")

    configs = doc["configs"]
    if not configs:
        fail(f"{path}: configs is empty")
    if configs[0]["name"] != "naive":
        fail(f"{path}: configs[0] must be the naive reference")
    names = set()
    for c in configs:
        if missing := required_config - c.keys():
            fail(f"{path}: config {c.get('name', '?')} missing keys: {sorted(missing)}")
        if missing := required_stats - c["stats"].keys():
            fail(f"{path}: config {c['name']} stats missing: {sorted(missing)}")
        if c["seconds"] < 0:
            fail(f"{path}: config {c['name']} has negative seconds")
        if not c["matches_naive"]:
            fail(f"{path}: config {c['name']} did not match the naive edge set")
        if c.get("threads", 1) < 1:
            fail(f"{path}: config {c['name']} has a non-positive thread count")
        if v2 and c["bytes_per_candidate"] < 0:
            fail(f"{path}: config {c['name']} has negative bytes_per_candidate")
        if c["name"] in names:
            fail(f"{path}: duplicate config name {c['name']}")
        names.add(c["name"])
    if "full" not in names:
        fail(f"{path}: the full-engine configuration is missing")

    probe = doc.get("metric_probe")
    if probe is not None:
        if missing := REQUIRED_METRIC_PROBE - probe.keys():
            fail(f"{path}: metric_probe missing keys: {sorted(missing)}")
        if not probe["matches_serial"]:
            fail(f"{path}: metric_probe parallel edge set diverged from serial")
        if probe["candidates"] <= 0 or probe["bytes_per_candidate"] < 0:
            fail(f"{path}: metric_probe has nonsensical candidate accounting")

    session_probe = doc.get("session_probe")
    if v4 and session_probe is None:
        fail(f"{path}: schema v4 requires the session_probe object")
    if session_probe is not None:
        if missing := REQUIRED_SESSION_PROBE - session_probe.keys():
            fail(f"{path}: session_probe missing keys: {sorted(missing)}")
        if not session_probe["matches"]:
            fail(f"{path}: session_probe warm edge sets diverged from cold")
        if session_probe["builds"] <= 0:
            fail(f"{path}: session_probe measured no builds")
        # The warm-start acceptance criterion: a warm build() constructs
        # nothing -- zero thread pools, zero Dijkstra workspaces.
        if session_probe["warm_pool_constructions"] != 0:
            fail(f"{path}: warm builds constructed "
                 f"{session_probe['warm_pool_constructions']} thread pool(s); "
                 f"the session warm-start contract requires 0")
        if session_probe["warm_workspace_constructions"] != 0:
            fail(f"{path}: warm builds constructed "
                 f"{session_probe['warm_workspace_constructions']} workspace(s); "
                 f"the session warm-start contract requires 0")
        if session_probe["cold_pool_constructions"] == 0 and session_probe["threads"] > 1:
            fail(f"{path}: session_probe cold arm constructed no pools -- "
                 f"the probe is not measuring what it claims")

    mem_probe = doc.get("mem_probe")
    if v5 and mem_probe is None:
        fail(f"{path}: schema v5 requires the mem_probe object")
    if mem_probe is not None:
        if missing := REQUIRED_MEM_PROBE - mem_probe.keys():
            fail(f"{path}: mem_probe missing keys: {sorted(missing)}")
        if not mem_probe["instances"]:
            fail(f"{path}: mem_probe ran no instances")
        kinds = set()
        high_water = 0
        for inst in mem_probe["instances"]:
            if missing := REQUIRED_MEM_INSTANCE - inst.keys():
                fail(f"{path}: mem_probe instance {inst.get('kind', '?')} "
                     f"missing keys: {sorted(missing)}")
            kinds.add(inst["kind"])
            high_water = max(high_water,
                             inst["rss_after_kb"] - mem_probe["rss_before_kb"])
            if inst["candidates_streamed"] <= 0:
                fail(f"{path}: mem_probe {inst['kind']} streamed no candidates")
            if inst["edges"] < mem_probe["n"] - 1:
                fail(f"{path}: mem_probe {inst['kind']} spanner does not span "
                     f"({inst['edges']} edges for n={mem_probe['n']})")
            # The linear-space contract: the resident candidate chunk must
            # peak strictly below the full (never-materialized) list.
            full_bytes = inst["candidates_streamed"] * CANDIDATE_BYTES
            if inst["candidate_buffer_peak_bytes"] >= full_bytes:
                fail(f"{path}: mem_probe {inst['kind']} candidate buffer "
                     f"peaked at {inst['candidate_buffer_peak_bytes']} B -- "
                     f"the full list is {full_bytes} B; nothing was streamed")
        if kinds != {"uniform", "clustered"}:
            fail(f"{path}: mem_probe must cover uniform and clustered "
                 f"instances, got {sorted(kinds)}")
        # The budget is a hard acceptance criterion, recomputed here so a
        # harness that mis-reports within_budget still fails.
        if high_water > mem_probe["rss_budget_kb"]:
            fail(f"{path}: mem_probe RSS high-water delta {high_water} KiB "
                 f"exceeds the {mem_probe['rss_budget_kb']} KiB budget")
        if not mem_probe["within_budget"]:
            fail(f"{path}: mem_probe reports within_budget=false")

    time_probe = doc.get("time_probe")
    if v6 and time_probe is None:
        fail(f"{path}: schema v6 requires the time_probe object")
    if time_probe is not None:
        required_time = (REQUIRED_TIME_PROBE_V10 if v10 else REQUIRED_TIME_PROBE)
        if v8:
            required_time = required_time | {"simd_backend"}
        if missing := required_time - time_probe.keys():
            fail(f"{path}: time_probe missing keys: {sorted(missing)}")
        if time_probe["candidates"] <= 0:
            fail(f"{path}: time_probe streamed no candidates")
        if time_probe["edges"] < time_probe["n"] - 1:
            fail(f"{path}: time_probe spanner does not span "
                 f"({time_probe['edges']} edges for n={time_probe['n']})")
        if time_probe["cell_balls"] <= 0:
            fail(f"{path}: time_probe grew no cell balls -- the batched "
                 f"rejection path did not engage")
        # The tentpole acceptance criterion, recomputed from the raw
        # fields so a harness that mis-reports us_per_candidate still
        # fails. Reduced shapes assert the per-candidate speedup; the
        # full history shape asserts the end-to-end single-core ceiling.
        us = time_probe["build_seconds"] * 1e6 / time_probe["candidates"]
        if time_probe["n"] < TIME_PROBE_FULL_N:
            ceiling = TIME_PROBE_BASELINE_US / TIME_PROBE_MIN_SPEEDUP
            if us > ceiling:
                fail(f"{path}: time_probe {us:.2f} us/candidate exceeds the "
                     f"{ceiling:.2f} us ceiling ({TIME_PROBE_MIN_SPEEDUP:.0f}x "
                     f"over the {TIME_PROBE_BASELINE_US:.0f} us per-candidate "
                     f"baseline)")
        elif time_probe["build_seconds"] > TIME_PROBE_FULL_BUILD_CEILING_S:
            fail(f"{path}: time_probe build took "
                 f"{time_probe['build_seconds']:.0f}s at n={time_probe['n']} -- "
                 f"over the {TIME_PROBE_FULL_BUILD_CEILING_S:.0f}s "
                 f"single-core ceiling")

    group_probe = doc.get("group_probe")
    if v7 and not v10 and group_probe is None:
        fail(f"{path}: schemas v7-v9 require the group_probe object")
    if group_probe is not None:
        if missing := {"metric", "graph"} - group_probe.keys():
            fail(f"{path}: group_probe missing arms: {sorted(missing)}")
        required_arm = (REQUIRED_GROUP_PROBE_ARM | {"simd_backend"} if v8
                        else REQUIRED_GROUP_PROBE_ARM)
        for arm_name in ("metric", "graph"):
            arm = group_probe[arm_name]
            if missing := required_arm - arm.keys():
                fail(f"{path}: group_probe {arm_name} arm missing keys: "
                     f"{sorted(missing)}")
            if arm["candidates"] <= 0:
                fail(f"{path}: group_probe {arm_name} arm streamed no candidates")
            # The bit-identity contract: the batched kernel must reproduce
            # the per-candidate path's edge set exactly.
            if not arm["matches_off"]:
                fail(f"{path}: group_probe {arm_name} arm kOn edge set "
                     f"diverged from the kOff build")
            if arm["group_probes"] <= 0:
                fail(f"{path}: group_probe {arm_name} arm ran no group "
                     f"probes -- the batched kernel did not engage")
        # The acceptance floor, recomputed from the raw seconds so a
        # harness that mis-reports the speedup still fails. Only the
        # metric all-pairs arm carries the floor (the graph arm's groups
        # are narrower; its speedup is tracked informationally).
        metric = group_probe["metric"]
        if metric["on_seconds"] <= 0:
            fail(f"{path}: group_probe metric arm reports no kOn time")
        speedup = metric["off_seconds"] / metric["on_seconds"]
        if speedup < GROUP_PROBE_MIN_SPEEDUP:
            fail(f"{path}: group_probe metric arm speedup {speedup:.2f}x "
                 f"below the {GROUP_PROBE_MIN_SPEEDUP:.2f}x floor over the "
                 f"per-candidate (kOff) baseline")

    simd_probe = doc.get("simd_probe")
    simd_kernels = REQUIRED_SIMD_KERNELS_V10 if v10 else REQUIRED_SIMD_KERNELS
    if v8 and simd_probe is None:
        fail(f"{path}: schema v8 requires the simd_probe object")
    if simd_probe is not None:
        if "backend" not in simd_probe:
            fail(f"{path}: simd_probe missing the backend field")
        if missing := set(simd_kernels) - simd_probe.keys():
            fail(f"{path}: simd_probe missing kernels: {sorted(missing)}")
        over_floor = 0
        for kernel in simd_kernels:
            row = simd_probe[kernel]
            if missing := REQUIRED_SIMD_KERNEL_KEYS - row.keys():
                fail(f"{path}: simd_probe {kernel} missing keys: "
                     f"{sorted(missing)}")
            # The bit-identity contract: an ablation arm that changed
            # answers invalidates its own timing.
            if not row["outputs_identical"]:
                fail(f"{path}: simd_probe {kernel} arms produced different "
                     f"outputs -- its speedup is meaningless")
            if row["simd_seconds"] <= 0:
                fail(f"{path}: simd_probe {kernel} reports no vector-arm time")
            # Recomputed from the raw seconds so a harness that
            # mis-reports the speedup column still fails.
            if row["scalar_seconds"] / row["simd_seconds"] >= SIMD_PROBE_MIN_SPEEDUP:
                over_floor += 1
        # The floor only binds when dispatch actually selected a vector
        # table; on a scalar-only machine both arms run identical code.
        if (simd_probe["backend"] != "scalar"
                and over_floor < SIMD_PROBE_MIN_KERNELS_OVER_FLOOR):
            fail(f"{path}: simd_probe ({simd_probe['backend']}) has only "
                 f"{over_floor} kernel(s) at or over the "
                 f"{SIMD_PROBE_MIN_SPEEDUP:.1f}x floor; "
                 f"{SIMD_PROBE_MIN_KERNELS_OVER_FLOOR} required")

    accept_probe = doc.get("accept_probe")
    if accept_probe is not None:
        required_accept = REQUIRED_ACCEPT_PROBE_V9 if v9 else REQUIRED_ACCEPT_PROBE
        if missing := required_accept - accept_probe.keys():
            fail(f"{path}: accept_probe missing keys: {sorted(missing)}")
        if not accept_probe["matches_serial"]:
            fail(f"{path}: accept_probe parallel edge set diverged from serial")
        if accept_probe["accept_rate"] <= 0.30:
            fail(f"{path}: accept_probe is not accept-heavy "
                 f"(accept_rate {accept_probe['accept_rate']:.3f} <= 0.30)")
        if not v9 and accept_probe["repair_share"] < ACCEPT_PROBE_MIN_REPAIR_SHARE:
            fail(f"{path}: accept_probe repair_share "
                 f"{accept_probe['repair_share']:.3f} below the "
                 f"{ACCEPT_PROBE_MIN_REPAIR_SHARE:.2f} acceptance floor")

    extras = []
    if probe is not None:
        extras.append(f"metric probe {probe['bytes_per_candidate']:.2f} B/cand "
                      f"(PR2 baseline {probe['pr2_bytes_per_candidate']:.1f})")
    if accept_probe is not None:
        if v9:
            extras.append(f"accept probe serial/mt2 "
                          f"{accept_probe['serial_seconds']:.3f}s/"
                          f"{accept_probe['mt2_seconds']:.3f}s")
        else:
            extras.append(f"accept probe repair share "
                          f"{accept_probe['repair_share']:.2f} "
                          f"({accept_probe['repairs']} repairs, "
                          f"{accept_probe['repair_fallbacks']} fallbacks)")
    if session_probe is not None:
        extras.append(
            f"session probe warm/cold {session_probe['warm_seconds']:.3f}s/"
            f"{session_probe['cold_seconds']:.3f}s over "
            f"{session_probe['builds']} builds, warm constructions 0/0")
    if mem_probe is not None:
        high = max(i["rss_after_kb"] - mem_probe["rss_before_kb"]
                   for i in mem_probe["instances"])
        streamed = sum(i["candidates_streamed"] for i in mem_probe["instances"])
        extras.append(f"mem probe n={mem_probe['n']} rss +{high} KiB "
                      f"(budget {mem_probe['rss_budget_kb']}), "
                      f"{streamed} candidates streamed")
    if time_probe is not None:
        coarse = ("" if v10 else
                  f", {time_probe['coarse_rejects']} coarse rejects")
        extras.append(f"time probe n={time_probe['n']} "
                      f"{time_probe['us_per_candidate']:.2f} us/cand "
                      f"(cell-ball share {time_probe['cell_ball_share']:.2f}"
                      f"{coarse})")
    if group_probe is not None:
        extras.append(
            f"group probe metric {group_probe['metric']['speedup']:.2f}x / "
            f"graph {group_probe['graph']['speedup']:.2f}x "
            f"(mean group {group_probe['metric']['mean_group_size']:.1f}, "
            f"early-exit share "
            f"{group_probe['metric']['early_exit_share']:.2f})")
    if simd_probe is not None:
        speedups = ", ".join(f"{k} {simd_probe[k]['speedup']:.2f}x"
                             for k in simd_kernels)
        extras.append(f"simd probe {simd_probe['backend']} ({speedups})")
    if v2:
        extras.append(f"peak RSS {doc['peak_rss_kb']} KiB")
    suffix = f"; {', '.join(extras)}" if extras else ""
    print(f"{path}: schema OK ({schema}, {len(configs)} configs, "
          f"source={doc['source']}, "
          f"full-vs-naive speedup {doc['speedup_full_vs_naive']:.2f}x{suffix})")


def diff_metric(name: str, old, new, unit: str):
    """Returns (is_regression, message) or None when not comparable.
    All tracked metrics (seconds, bytes-per-candidate) are
    smaller-is-better."""
    if old is None or new is None or old <= 0:
        return None
    ratio = new / old
    if ratio > REGRESSION_THRESHOLD:
        return True, (f"REGRESSION: {name} is {ratio:.2f}x the previous entry "
                      f"({old:.3f}{unit} -> {new:.3f}{unit})")
    if ratio < 1 / REGRESSION_THRESHOLD:
        return False, (f"improvement: {name} {1 / ratio:.2f}x better "
                       f"({old:.3f}{unit} -> {new:.3f}{unit})")
    return None


def diff_history(history_dir: Path, strict: bool) -> int:
    """Compare the two newest entries; returns the number of regressions."""
    entries = sorted(p for p in history_dir.glob("*.json"))
    if len(entries) < 2:
        print(f"{history_dir}: {len(entries)} entr{'y' if len(entries) == 1 else 'ies'}, "
              "nothing to diff yet")
        return 0
    prev_path, cur_path = entries[-2], entries[-1]
    prev_doc = load(prev_path)
    cur_doc = load(cur_path)
    prev = {c["name"]: c for c in prev_doc["configs"]}
    regressions = 0

    def report(result):
        nonlocal regressions
        if result is None:
            return
        is_regression, msg = result
        if is_regression:
            regressions += 1
            print(f"KERNEL {msg} ({prev_path.name} -> {cur_path.name})",
                  file=sys.stderr)
        else:
            print(f"kernel {msg}")

    for c in cur_doc["configs"]:
        old = prev.get(c["name"])
        if old is None:
            continue
        report(diff_metric(f"{c['name']} time", old["seconds"], c["seconds"], "s"))
        # v2 vs v2 entries also track the handoff-memory trajectory.
        report(diff_metric(f"{c['name']} handoff", old.get("bytes_per_candidate"),
                           c.get("bytes_per_candidate"), " B/cand"))
    old_probe = prev_doc.get("metric_probe") or {}
    cur_probe = cur_doc.get("metric_probe")
    if cur_probe is not None:
        report(diff_metric("metric_probe time", old_probe.get("serial_seconds"),
                           cur_probe["serial_seconds"], "s"))
        report(diff_metric("metric_probe handoff",
                           old_probe.get("bytes_per_candidate"),
                           cur_probe["bytes_per_candidate"], " B/cand"))

    def fallback_share(probe):
        """Share of tentative accepts that fell back to a full exact query
        (smaller is better, so diff_metric applies directly). v3-v8 only:
        v9 entries carry no repair counters and diff as not comparable."""
        if probe is None or "repair_fallbacks" not in probe:
            return None
        tentative = (probe.get("snapshot_accepts", 0) + probe.get("repairs", 0) +
                     probe["repair_fallbacks"])
        return probe["repair_fallbacks"] / tentative if tentative > 0 else None

    old_accept = prev_doc.get("accept_probe")
    cur_accept = cur_doc.get("accept_probe")
    if cur_accept is not None:
        report(diff_metric("accept_probe time", (old_accept or {}).get("mt2_seconds"),
                           cur_accept["mt2_seconds"], "s"))
        report(diff_metric("accept_probe fallback share", fallback_share(old_accept),
                           fallback_share(cur_accept), ""))

    def per_build(probe, key):
        """Normalize a session-probe arm to seconds per build."""
        if probe is None or key not in probe or not probe.get("builds"):
            return None
        return probe[key] / probe["builds"]

    old_session = prev_doc.get("session_probe")
    cur_session = cur_doc.get("session_probe")
    if cur_session is not None:
        report(diff_metric("session_probe warm build",
                           per_build(old_session, "warm_seconds"),
                           per_build(cur_session, "warm_seconds"), "s"))

    def mem_high_water(probe):
        """RSS high-water delta of the memory probe in KiB (smaller is
        better); None when absent or the probe shapes are not comparable."""
        if probe is None or not probe.get("instances"):
            return None
        return max(i["rss_after_kb"] - probe["rss_before_kb"]
                   for i in probe["instances"])

    old_mem = prev_doc.get("mem_probe")
    cur_mem = cur_doc.get("mem_probe")
    # Only diff same-n entries: the per-PR 10^5 smoke and the 10^6 history
    # run are different shapes, not a regression.
    if cur_mem is not None and old_mem is not None and old_mem["n"] == cur_mem["n"]:
        report(diff_metric("mem_probe rss high-water", mem_high_water(old_mem),
                           mem_high_water(cur_mem), " KiB"))
        old_insts = {i["kind"]: i for i in old_mem["instances"]}
        for inst in cur_mem["instances"]:
            old_inst = old_insts.get(inst["kind"])
            if old_inst is None:
                continue
            report(diff_metric(f"mem_probe {inst['kind']} candidates",
                               old_inst["candidates_streamed"],
                               inst["candidates_streamed"], " cands"))
            report(diff_metric(f"mem_probe {inst['kind']} build",
                               old_inst["build_seconds"],
                               inst["build_seconds"], "s"))

    def backends_comparable(name: str, old, new) -> bool:
        """v8 dispatch honesty: timings from different dispatch-selected
        backends are measurements of different code, not a trajectory.
        Refuse the diff (with a notice) instead of flagging either way.
        Pre-v8 entries carry no backend field and diff as before."""
        old_backend = (old or {}).get("simd_backend")
        new_backend = (new or {}).get("simd_backend")
        if old_backend is None or new_backend is None:
            return True
        if old_backend == new_backend:
            return True
        print(f"{name}: diff refused -- entries ran on different SIMD "
              f"backends ({old_backend} -> {new_backend}); timings are "
              f"not comparable")
        return False

    old_time = prev_doc.get("time_probe")
    cur_time = cur_doc.get("time_probe")
    # Same-n entries only, like the mem probe: the per-PR 10^5 smoke and
    # the 10^6 history run are different shapes, not a regression.
    if (cur_time is not None and old_time is not None
            and old_time["n"] == cur_time["n"]
            and backends_comparable("time_probe", old_time, cur_time)):
        report(diff_metric("time_probe us/candidate",
                           old_time["us_per_candidate"],
                           cur_time["us_per_candidate"], " us"))
        report(diff_metric("time_probe build", old_time["build_seconds"],
                           cur_time["build_seconds"], "s"))

    old_group = prev_doc.get("group_probe") or {}
    cur_group = cur_doc.get("group_probe")
    if cur_group is not None:
        # Per-arm, same-n entries only (like the mem/time probes). The kOn
        # column is the kernel's trajectory; the kOff column guards the
        # per-candidate baseline against silent regression too.
        for arm_name in ("metric", "graph"):
            cur_arm = cur_group.get(arm_name)
            old_arm = old_group.get(arm_name)
            if cur_arm is None or old_arm is None or old_arm["n"] != cur_arm["n"]:
                continue
            if not backends_comparable(f"group_probe {arm_name}", old_arm,
                                       cur_arm):
                continue
            report(diff_metric(f"group_probe {arm_name} on us/candidate",
                               old_arm["on_us_per_candidate"],
                               cur_arm["on_us_per_candidate"], " us"))
            report(diff_metric(f"group_probe {arm_name} off us/candidate",
                               old_arm["off_us_per_candidate"],
                               cur_arm["off_us_per_candidate"], " us"))

    old_simd = prev_doc.get("simd_probe")
    cur_simd = cur_doc.get("simd_probe")
    if cur_simd is not None and old_simd is not None:
        if old_simd.get("backend") != cur_simd.get("backend"):
            print(f"simd_probe: diff refused -- entries ran on different "
                  f"SIMD backends ({old_simd.get('backend')} -> "
                  f"{cur_simd.get('backend')}); timings are not comparable")
        else:
            for kernel in ("far_sweep", "distance_batch", "sketch_probe",
                           "radix_sort"):
                old_row = old_simd.get(kernel)
                cur_row = cur_simd.get(kernel)
                if old_row is None or cur_row is None:
                    continue
                report(diff_metric(f"simd_probe {kernel} vector arm",
                                   old_row["simd_seconds"],
                                   cur_row["simd_seconds"], "s"))

    if regressions == 0:
        print(f"history diff OK: {prev_path.name} -> {cur_path.name}, "
              f"no config regressed more than {(REGRESSION_THRESHOLD - 1) * 100:.0f}% "
              "(time or bytes-per-candidate)")
    elif strict:
        return regressions
    else:
        print(f"({regressions} regression(s) flagged; informational without --strict)",
              file=sys.stderr)
        regressions = 0
    return regressions


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("path", nargs="?", default=None,
                        help="artifact to schema-check (default: BENCH_greedy.json, "
                             "or the newest history entry with --history)")
    parser.add_argument("--history", metavar="DIR", default=None,
                        help="tracked bench-history directory to diff")
    parser.add_argument("--strict", action="store_true",
                        help="exit non-zero on flagged regressions")
    args = parser.parse_args()

    if args.history is None:
        path = args.path or "BENCH_greedy.json"
        validate(load(path), path)
        return

    history_dir = Path(args.history)
    if not history_dir.is_dir():
        fail(f"history directory {history_dir} does not exist")
    if args.path:
        validate(load(args.path), args.path)
    else:
        entries = sorted(history_dir.glob("*.json"))
        if entries:
            validate(load(entries[-1]), entries[-1])
    if diff_history(history_dir, args.strict) > 0:
        sys.exit(2)


if __name__ == "__main__":
    main()
