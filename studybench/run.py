"""The study benchmark: host time of a DVS policy study, end to end and per layer.

Run from the repository root::

    python3 studybench/run.py --workload catalog_study --seed 1 --seconds 40 --trace 0

``--workload all`` runs the three workloads one after another.

Each study pass runs in a fresh Python process (child.py) against a
fresh JSONL result store: a cold pass, then warm passes against the
same store, each in a fresh process too.  ``--trace 0`` measures the
end-to-end metrics with no tracing, running such rounds while another
one still fits in ``--seconds``.  ``--trace 1`` runs one untraced and
one traced cold pass and reports the per-layer metrics.  Every pass checks its outputs.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full
artifact (host facts, output digest, samples; spans when traced) is
written under ``.studybench/``.  Metric definitions: GLOSSARY.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from helpers import percentile, tail_percentile  # noqa: E402

WORKLOADS = ("catalog_study", "trough_sweep", "busy_observed")

#: Fresh warm-pass processes after each cold pass.
WARM_PROCESSES = 8
#: Every child must end by this many seconds after the run started.
HARD_LIMIT_S = 170.0

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_s": "s",
    "job_p80_s": "s",
    "rerun_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "runner.build_s": "s",
    "runner.run_self_s": "s",
    "loc.build_s": "s",
    "sim.loop_s": "s",
    "sim.us_per_event": "us",
    "sim.kernel_events": "count",
    "sim.events_per_packet": "events/packet",
    "npu.totals_s": "s",
    "power.read_s": "s",
    "loc.finish_s": "s",
    "trace.events_published": "count",
    "trace.published_per_packet": "events/packet",
    "npu.packets_offered": "count",
    "npu.packets_forwarded": "count",
    "npu.instructions": "count",
    "npu.me_idle_fraction": "fraction",
    "dvs.windows": "count",
    "dvs.transitions": "count",
    "loc.instances_checked": "count",
    "sweep.run_job_self_s": "s",
    "sweep.store_add_s": "s",
    "backends.self_s": "s",
    "api.self_s": "s",
    "sweep.store_load_s": "s",
    "sweep.store_bytes": "bytes",
    "studies.policymap_s": "s",
    "studies.expand_s": "s",
    "trace_overhead_pct": "%",
}


class ChildFailed(RuntimeError):
    """A workload process exited non-zero or timed out."""


def host_facts() -> Dict[str, Any]:
    """Facts a reader needs to compare host times across artifacts."""
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "loadavg": list(os.getloadavg()),
    }


class Runner:
    """Starts workload processes for one benchmark run."""

    def __init__(self, root: str, workload: str, seed: int, tmp: str):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.tmp = tmp
        self.started = time.monotonic()
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        self.env["PYTHONPATH"] = os.path.join(root, "src")
        self.stores = 0

    def new_store(self) -> str:
        """Path of a result store no process has written yet."""
        self.stores += 1
        return os.path.join(self.tmp, f"store-{self.stores}.jsonl")

    def child(self, mode: str, store: str = "", trace: int = 0) -> Dict[str, Any]:
        command = [
            sys.executable, os.path.join(HERE, "child.py"),
            "--mode", mode, "--workload", self.workload, "--seed", str(self.seed),
            "--store", store, "--trace", str(trace),
            "--spawn-t", repr(time.monotonic()),
        ]
        timeout = max(1.0, HARD_LIMIT_S - (time.monotonic() - self.started))
        try:
            proc = subprocess.run(
                command, cwd=self.root, env=self.env, capture_output=True,
                text=True, timeout=timeout, check=False,
            )
        except subprocess.TimeoutExpired:
            raise ChildFailed(f"{mode} process timed out after {timeout:.0f} s") from None
        if proc.returncode != 0:
            raise ChildFailed(
                f"{mode} process exited {proc.returncode}:\n{proc.stderr[-4000:]}"
            )
        return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(runner: Runner, seconds: int, trace: int) -> List[Dict[str, Any]]:
    """Run the workload processes; return rounds of one cold and its warm reports."""
    runner.child("setup")  # untimed: byte-compiles the sources once
    if trace:
        plain = runner.child("cold", runner.new_store())
        traced = runner.child("cold", runner.new_store(), trace=1)
        return [{"cold": plain, "warm": []}, {"cold": traced, "warm": [traced.pop("warm")]}]
    deadline = time.monotonic() + seconds
    rounds = []
    while True:
        begin = time.monotonic()
        store = runner.new_store()
        cold = runner.child("cold", store)
        warm = [runner.child("warm", store) for _ in range(WARM_PROCESSES)]
        rounds.append({"cold": cold, "warm": warm})
        if time.monotonic() + (time.monotonic() - begin) > deadline:
            return rounds


def check(rounds: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Check every pass against its round's cold pass and the first cold pass.

    Returns the job count, the output digest, the job outcomes attempted
    and failed, and a line per problem found (see GLOSSARY.md).
    """
    jobs = rounds[0]["cold"]["jobs"]
    digest = rounds[0]["cold"]["digest"]
    attempted = failed = 0
    problems: List[str] = []
    for index, round_ in enumerate(rounds):
        cold = round_["cold"]
        for kind, report in [("cold", cold)] + [("warm", w) for w in round_["warm"]]:
            attempted += jobs
            bad = set(report["unbalanced"])
            if bad:
                problems.append(f"{kind} pass: {len(bad)} job(s) forward + drop more than offered")
            expected_cached = 0 if kind == "cold" else jobs
            if report["total_jobs"] != jobs or report["cached_jobs"] != expected_cached:
                problems.append(
                    f"{kind} pass: {report['cached_jobs']}/{report['total_jobs']} jobs "
                    f"cached, expected {expected_cached}/{jobs}"
                )
                bad.update(cold["records"])
            if report["digest"] != digest:
                problems.append(f"{kind} pass of round {index}: digest {report['digest']} != {digest}")
                bad.update(cold["records"])
            bad.update(j for j, d in report["records"].items() if cold["records"].get(j) != d)
            failed += len(bad)
    if failed and not problems:
        problems.append(f"{failed} job outcome(s) differ from their cold pass")
    return {"jobs": jobs, "digest": digest, "attempted": attempted, "failed": failed,
            "problems": problems}


def summarize(rounds: List[Dict[str, Any]], trace: int) -> Dict[str, Any]:
    """Reduce the rounds to metrics with units and sample counts, plus checks."""
    summary = check(rounds)
    colds = [r["cold"] for r in rounds]
    walls = [c["wall_s"] for c in colds]
    if trace:
        metrics = dict(colds[1]["per_layer"])
        metrics["trace_overhead_pct"] = (walls[1] / walls[0] - 1.0) * 100.0
        samples = {name: 1 for name in metrics}
        units = PER_LAYER_UNITS
    else:
        warms = [w for r in rounds for w in r["warm"]]
        setups = [p["setup_s"] for p in colds + warms]
        latencies = [s for c in colds for s in c["latencies"]]
        if tail_percentile(len(latencies)) is None:
            raise RuntimeError(f"{len(latencies)} job latencies are too few for a p80")
        reruns = [w["wall_s"] for w in warms]
        wall = statistics.median(walls)
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": wall,
            "jobs_per_s": summary["jobs"] / wall,
            "job_p50_s": percentile(latencies, 50),
            "job_p80_s": percentile(latencies, 80),
            "rerun_s": statistics.median(reruns),
            "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in colds),
        }
        samples = {
            "setup_s": len(setups), "wall_s": len(walls), "jobs_per_s": len(walls),
            "job_p50_s": len(latencies), "job_p80_s": len(latencies),
            "rerun_s": len(reruns), "peak_rss_mb": len(colds),
        }
        units = E2E_UNITS
    summary["metrics"] = {
        name: {"value": metrics[name], "unit": units[name], "samples": samples[name]}
        for name in units
    }
    return summary


def _without_bulk(report):
    """A process report without spans and per-job digests, for the artifact."""
    if isinstance(report, list):
        return [_without_bulk(r) for r in report]
    return {k: v for k, v in report.items() if k not in ("spans", "records", "per_layer")}


def run_workload(root: str, workload: str, seed: int, seconds: int, trace: int) -> int:
    """One benchmark run: measure, check, write the artifact, print the result."""
    out_dir = os.path.join(root, ".studybench")
    os.makedirs(out_dir, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=out_dir)
    try:
        rounds = measure(Runner(root, workload, seed, tmp), seconds, trace)
    except ChildFailed as exc:
        print(f"studybench: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    summary = summarize(rounds, trace)
    correct = not summary["problems"] and summary["failed"] == 0
    stem = os.path.join(out_dir, f"{workload}-seed{seed}-trace{trace}")
    artifact = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "host": host_facts(), "correct": correct,
        "failed_fraction": summary["failed"] / summary["attempted"],
        **summary,
        "rounds": [
            {kind: _without_bulk(round_[kind]) for kind in ("cold", "warm")}
            for round_ in rounds
        ],
    }
    with open(stem + ".json", "w", encoding="utf-8") as handle:
        json.dump(artifact, handle, indent=2, sort_keys=True)
    if trace:
        with open(stem + ".spans.jsonl", "w", encoding="utf-8") as handle:
            for span in rounds[1]["cold"]["spans"]:
                handle.write(json.dumps(span, sort_keys=True) + "\n")

    print(
        f"studybench {workload} seed={seed} trace={trace} cold_passes={len(rounds)} "
        f"jobs={summary['jobs']} digest={summary['digest']}"
    )
    for name, metric in summary["metrics"].items():
        print(f"  {name:28s} {metric['value']:>16.6g} {metric['unit']:<14s} n={metric['samples']}")
    print(
        f"  {'failed_fraction':28s} {artifact['failed_fraction']:>16.6g} "
        f"{'fraction':<14s} {summary['failed']}/{summary['attempted']}"
    )
    for problem in summary["problems"]:
        print(f"  problem: {problem}")
    print(json.dumps({
        "correct": correct,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {
            name: {"value": m["value"], "unit": m["unit"]}
            for name, m in summary["metrics"].items()
        },
    }), flush=True)
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description="DVS policy-study benchmark")
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("studybench: run from the repository root (src/repro not found)", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    return max(
        run_workload(root, workload, args.seed, args.seconds, args.trace)
        for workload in workloads
    )


if __name__ == "__main__":
    sys.exit(main())
