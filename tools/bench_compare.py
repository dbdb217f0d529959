#!/usr/bin/env python3
"""Compare freshly produced BENCH_*.json reports against committed baselines.

Each bench report mixes three kinds of values:

  * deterministic counters and fidelity outcomes (sp_calls, record counts,
    byte-identity booleans, drift levels from fixed seeds) — these must
    match the baseline exactly (floats within 1e-9); any difference means
    the algorithm changed, not the machine;
  * throughput metrics (ingest records/s) — gated with a tolerance band,
    failing only on regressions beyond the band (faster machines pass).
    Each throughput key names the wall-clock measurement it derives from;
    when that measurement is shorter than MIN_GATING_MS the check is
    reported but not gated (sub-millisecond smoke legs swing 2x run to run
    — only timings long enough to be meaningful may block a merge);
  * wall-clock timings and speedup ratios — reported, never gated, because
    CI runners make them too noisy to block a merge on.

Usage:
    tools/bench_compare.py --baselines bench/baselines/smoke --candidates build/bench
    tools/bench_compare.py --baselines bench/baselines/smoke --candidates . --tolerance 0.25

Exits nonzero when any gated key fails. Missing candidate files fail;
baseline files are the source of truth for which benches must exist.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

# Per-file gating policy. "exact" keys are dotted paths that must match the
# baseline (1e-9 for floats); "ratio" entries are (throughput key, basis
# timing key) pairs failing when the candidate falls below
# baseline * (1 - tolerance) and the basis timing is at least MIN_GATING_MS;
# everything else is report-only.
POLICIES: dict[str, dict[str, list]] = {
    "BENCH_te_hotpath.json": {
        "exact": [
            "instance.dcs",
            "instance.links",
            "instance.commodities",
            "seed_serial.sp_calls",
            "seed_serial.lambda",
            "fine_batched.sp_calls",
            "fine_batched.lambda",
            "fine_unbatched.sp_calls",
            "fine_unbatched.lambda",
            "coarse.sp_calls",
            "coarse.lambda",
        ],
        "ratio": [],
    },
    "BENCH_telemetry_spine.json": {
        "exact": [
            "instance.records",
            "instance.pairs",
            "bytes.seed_fine_bytes",
            "bytes.spine_fine_bytes",
            "bytes.reduction",
            "fidelity.streaming_equals_batch",
            "fidelity.demand_max_abs_dev",
        ],
        "ratio": [
            ("ingest_records_per_s.seed", "stages.ingest.seed_ms"),
            ("ingest_records_per_s.spine", "stages.ingest.spine_ms"),
        ],
    },
    "BENCH_sharded_ingest.json": {
        "exact": [
            "instance.records",
            "instance.pairs",
            "fidelity.fine_identical",
            "fidelity.coarse_identical",
            "fidelity.legs_checked",
            "drift.detected",
            "drift.pre_step_level",
            "drift.post_step_level",
        ],
        "ratio": [
            ("ingest_records_per_s.single_shard_baseline", "ingest_ms.single_shard_baseline"),
            ("ingest_records_per_s.sharded_8", "ingest_ms.sharded_8"),
        ],
    },
    "BENCH_ch.json": {
        "exact": [
            "instance.dcs",
            "instance.links",
            "instance.pairs",
            "instance.sweep_links",
            "instance.synthetic_dcs",
            "build.arcs",
            "build.shortcuts",
            "sweep.queries",
            "sweep.pristine_hits",
            "sweep.certified",
            "sweep.fallbacks",
            "sweep.repairs_attempted",
            "sweep.repairs_succeeded",
            "mcf.flat_lambda",
            "mcf.ch_lambda",
            "mcf.flat_sp_calls",
            "mcf.ch_sp_calls",
            "fidelity.sweep_identical",
            "fidelity.synthetic_identical",
            "fidelity.counters_partition",
            "fidelity.deterministic",
            "fidelity.hierarchical_identical",
            "fidelity.lambda_ok",
            "fidelity.speedup_ok",
        ],
        "ratio": [],
    },
    "BENCH_spill_tier.json": {
        "exact": [
            "instance.records",
            "instance.days",
            "memory.all_resident_bytes",
            "memory.spilled_resident_bytes",
            "memory.resident_reduction",
            "memory.spill_files",
            "fidelity.full_identical",
            "fidelity.spilled_only_identical",
            "fidelity.straddle_identical",
            "fidelity.coarse_identical",
            "fidelity.reduction_ok",
            "fidelity.window_identical",
            "window_read.records",
            "window_read.rows_scanned",
            "window_read.bytes_verified",
            "window_read.day_spill_bytes",
            "window_read.verified_fraction",
        ],
        "ratio": [
            ("cold_read.spilled_day_records_per_s", "cold_read.spilled_day_ms"),
            ("cold_read.resident_day_records_per_s", "cold_read.resident_day_ms"),
        ],
    },
    "BENCH_federation.json": {
        "exact": [
            "instance.dcs",
            "instance.links",
            "instance.regions",
            "instance.pairs",
            "te.lambda_flat",
            "te.lambda_federated",
            "te.flat_sp_calls",
            "te.global_sp_calls",
            "te.refine_sp_calls",
            "te.coarse_commodities",
            "te.refined_commodities",
            "merge.summaries",
            "failover.recovered_records",
            "fidelity.fidelity_ok",
            "fidelity.wallclock_ok",
            "fidelity.merge_identical",
            "fidelity.replay_identical",
            "fidelity.deterministic",
        ],
        "ratio": [],
    },
    "BENCH_query_serving.json": {
        "exact": [
            "instance.dcs",
            "instance.pairs",
            "instance.records",
            "fidelity.snapshot_identical",
            "fidelity.mid_run_deviations",
            "fidelity.scaling_ok",
            "fidelity.ingest_ok",
            "fidelity.shed_exercised",
        ],
        "ratio": [],
    },
    "BENCH_adaptive.json": {
        "exact": [
            "instance.dcs",
            "instance.pairs",
            "instance.records",
            "reaction.bound_s",
            "reaction.shift_s",
            "reaction.flash_s",
            "reaction.evac_s",
            "reaction.early_resolves",
            "adaptive.epsilon_initial",
            "adaptive.epsilon_at_shift",
            "adaptive.warm_hit_rate_final",
            "solve.cold_sp_calls",
            "solve.warm_sp_calls",
            "solve.cold_lambda",
            "solve.warm_lambda",
            "solve.fidelity",
            "solve.warm_hits",
            "solve.warm_misses",
            "solve.warm_reselects",
            "forecast.blind_mape",
            "forecast.drift_mape",
            "fidelity.reaction_ok",
            "fidelity.warm_fidelity_ok",
            "fidelity.warm_sp_ok",
            "fidelity.warm_cost_ok",
            "fidelity.forecast_improves",
            "fidelity.drift0_identical",
            "fidelity.query_deviations",
            "fidelity.contracts_clean",
        ],
        "ratio": [],
    },
}

FLOAT_EPS = 1e-9

# Throughput gating only applies when the candidate's underlying timing ran
# at least this long; shorter legs are scheduler noise, not signal.
MIN_GATING_MS = 5.0


def lookup(doc: dict, path: str):
    node = doc
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def exact_match(a, b) -> bool:
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return abs(float(a) - float(b)) <= FLOAT_EPS
    return a == b


def compare_file(name: str, baseline: dict, candidate: dict, tolerance: float) -> list[str]:
    failures: list[str] = []
    policy = POLICIES[name]
    # .get: a policy that gates only one kind of key may omit the other list.
    for key in policy.get("exact", []):
        base = lookup(baseline, key)
        cand = lookup(candidate, key)
        if base is None:
            failures.append(f"{name}: baseline is missing gated key {key}")
        elif cand is None:
            failures.append(f"{name}: candidate is missing gated key {key}")
        elif not exact_match(base, cand):
            failures.append(f"{name}: {key} changed: baseline {base!r} -> candidate {cand!r}")
        else:
            print(f"  OK   exact  {key} = {cand!r}")
    for key, basis_key in policy.get("ratio", []):
        base = lookup(baseline, key)
        cand = lookup(candidate, key)
        if base is None or cand is None:
            failures.append(f"{name}: gated throughput key {key} missing "
                            f"(baseline={base!r}, candidate={cand!r})")
            continue
        base_f, cand_f = float(base), float(cand)
        if base_f <= 0:
            failures.append(f"{name}: baseline {key} is non-positive ({base_f})")
            continue
        ratio = cand_f / base_f
        floor = 1.0 - tolerance
        basis = lookup(candidate, basis_key)
        gated = basis is not None and float(basis) >= MIN_GATING_MS
        if not gated:
            print(f"  info ratio  {key}: {cand_f:.0f} vs {base_f:.0f} ({ratio:.2f}x) "
                  f"[not gated: basis {basis_key}={basis} ms < {MIN_GATING_MS} ms]")
            continue
        verdict = "OK  " if ratio >= floor else "FAIL"
        print(f"  {verdict} ratio  {key}: {cand_f:.0f} vs {base_f:.0f} "
              f"({ratio:.2f}x, floor {floor:.2f}x)")
        if ratio < floor:
            failures.append(f"{name}: {key} regressed to {ratio:.2f}x of baseline "
                            f"({cand_f:.0f} vs {base_f:.0f}, floor {floor:.2f}x)")
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--baselines", required=True, type=pathlib.Path,
                        help="directory of committed BENCH_*.json baselines")
    parser.add_argument("--candidates", required=True, type=pathlib.Path,
                        help="directory holding freshly produced BENCH_*.json files")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed fractional regression on throughput keys "
                             "(default 0.25 = candidate may be 25%% slower)")
    args = parser.parse_args()

    failures: list[str] = []
    compared = 0
    for baseline_path in sorted(args.baselines.glob("BENCH_*.json")):
        name = baseline_path.name
        if name not in POLICIES:
            print(f"{name}: no gating policy, skipping")
            continue
        candidate_path = args.candidates / name
        print(f"{name}:")
        if not candidate_path.exists():
            failures.append(f"{name}: candidate file not found at {candidate_path}")
            print(f"  FAIL missing candidate ({candidate_path})")
            continue
        baseline = json.loads(baseline_path.read_text())
        candidate = json.loads(candidate_path.read_text())
        failures.extend(compare_file(name, baseline, candidate, args.tolerance))
        compared += 1

    if compared == 0 and not failures:
        print("error: no baselines with a gating policy found", file=sys.stderr)
        return 2
    if failures:
        print(f"\n{len(failures)} gating failure(s):", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(f"\nall gated keys passed across {compared} bench report(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
