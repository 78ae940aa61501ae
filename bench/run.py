"""sgmindeg benchmark: time certified m(S) answers as a user gets them.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the program is imported from ``src/``.
Each op is one ``sgmindeg`` command-line call on an input file written during
set-up (see ``workloads.py``).  The load is one closed-loop client: ops run
back to back in a fixed order, one pass over the workload's ops per fresh
interpreter, and passes repeat until ``--seconds`` have gone by (at least one
pass).  Every op's exit code and output are checked against the known answer.

With ``--trace 0`` the last stdout line is a JSON object with the end-to-end
metrics; with ``--trace 1`` it has the per-layer metrics of one traced pass,
next to one untraced pass that gives the tracing overhead and the reference
stdout for the identity guard.  Lines before it give each metric with its
sample count and a record of the machine.  A copy with per-op detail (and the
spans, when traced) goes to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

# Set-up runs this many times per run; setup_s is the median.
SETUPS = 3
# A worker process that runs longer than this is killed and the run fails.
WORKER_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "pass_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "fraction",
}


class BenchError(Exception):
    pass


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def environment(seed: int) -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        commit = git.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "seed": seed,
        "loadavg": list(os.getloadavg()),
    }


def _worker(*args: str) -> None:
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args[0]} exceeded {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {args[0]} exited with {proc.returncode}")


def setup(workload: str, seed: int, workdir: Path, smoke: bool = False) -> float:
    """Wall time of one set-up process: interpreter start, imports, building
    the inputs and writing the files."""
    start = time.perf_counter()
    _worker("setup", workload, str(seed), str(workdir), *(["--smoke"] if smoke else []))
    return time.perf_counter() - start


def run_pass(workdir: Path, index: int, trace: bool = False) -> dict:
    out = workdir / f"pass-{index}.json"
    _worker("pass", str(workdir), str(out), *(["--trace"] if trace else []))
    return json.loads(out.read_text())


def evaluate(ops: list[dict], result: dict, index: int = 0) -> list[dict]:
    """Failures of pass ``index``: [{"pass", "id", "reason", "known"}]."""
    found_m: dict[str, int] = {}
    failures = []
    for op, res in zip(ops, result["ops"], strict=True):
        reason = res["error"] or workloads.check_op(op, res["rc"], res["stdout"], found_m)
        if reason:
            failures.append({"pass": index, "id": op["id"], "reason": reason.strip(),
                             "known": "known_failure" in op})
    return failures


def _metric_doc(values: dict, samples: dict) -> dict:
    return {k: {"value": v, "unit": END_TO_END_UNITS.get(k) or tracing.LAYER_METRICS[k],
                "samples": samples.get(k, 1)} for k, v in values.items()}


def measure(ops: list[dict], workdir: Path, seconds: float, setup_times: list[float]) -> dict:
    passes, failures = [], []
    start = time.monotonic()
    while not passes or time.monotonic() - start < seconds:
        passes.append(run_pass(workdir, len(passes)))
        failures += evaluate(ops, passes[-1], len(passes) - 1)
    op_ms = [r["secs"] * 1000.0 for p in passes for r in p["ops"]]
    attempted = len(op_ms)
    values = {
        "pass_s": statistics.median(p["pass_s"] for p in passes),
        "op_p50_ms": percentile(op_ms, 0.5),
        "op_p90_ms": percentile(op_ms, 0.9),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
        "ok_frac": (attempted - len(failures)) / attempted,
    }
    samples = {"pass_s": len(passes), "op_p50_ms": attempted, "op_p90_ms": attempted,
               "setup_s": len(setup_times), "peak_rss_mb": len(passes), "ok_frac": attempted}
    return {
        "attempted": attempted,
        "failures": failures,
        "metrics": _metric_doc(values, samples),
        "ops": [{"id": op["id"], "ms": [p["ops"][i]["secs"] * 1000.0 for p in passes]}
                for i, op in enumerate(ops)],
    }


def traced(ops: list[dict], workdir: Path) -> dict:
    plain = run_pass(workdir, 0)
    traced_pass = run_pass(workdir, 1, trace=True)
    failures = evaluate(ops, plain, 0) + evaluate(ops, traced_pass, 1)
    # Stdout identity guard: the wrappers must not change what a user sees.
    for a, b in zip(plain["ops"], traced_pass["ops"], strict=True):
        if a["stdout"] != b["stdout"] or a["rc"] != b["rc"]:
            failures.append({"pass": 1, "id": b["id"], "reason": "traced stdout differs from untraced",
                             "known": False})
    for op_id, reason in tracing.split_mismatches(traced_pass["oracle_calls"]):
        failures.append({"pass": 1, "id": op_id, "reason": reason, "known": False})
    values = tracing.layer_metrics(
        traced_pass["spans"], traced_pass["counts"], traced_pass["oracle_calls"], plain["pass_s"]
    )
    return {
        "attempted": 2 * len(ops),
        "failures": failures,
        "metrics": _metric_doc(values, {}),
        "untraced_pass_s": plain["pass_s"],
        "oracle_calls": traced_pass["oracle_calls"],
        "spans": traced_pass["spans"],
    }


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  smoke: bool = False, setups: int = SETUPS) -> dict:
    """One benchmark run; returns the full report (``result`` is the final line)."""
    if not (ROOT / "src" / "sgmindeg" / "__init__.py").is_file():
        raise BenchError(f"no sgmindeg sources under {ROOT / 'src'}")
    env = environment(seed)
    workdir = HERE / "_work" / f"{workload}-{seed}-{os.getpid()}"
    try:
        setup_times = [setup(workload, seed, workdir, smoke) for _ in range(1 if trace else setups)]
        ops = json.loads((workdir / "manifest.json").read_text())["ops"]
        report = traced(ops, workdir) if trace else measure(ops, workdir, seconds, setup_times)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failures = report["failures"]
    report["env"] = env
    report["workload"] = workload
    report["result"] = {
        "correct": not any(not f["known"] for f in failures),
        "attempted": report["attempted"],
        "failed": len({(f["pass"], f["id"]) for f in failures}),
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in report["metrics"].items()},
    }
    return report


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        report = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}{'-trace' if args.trace else ''}.json"
    (out_dir / name).write_text(json.dumps(report, indent=1))
    print(f"# env {json.dumps(report['env'], sort_keys=True)}")
    for f in report["failures"]:
        print(f"# failed{' (known)' if f['known'] else ''} {f['id']}: {f['reason'].splitlines()[-1]}")
    for k, m in report["metrics"].items():
        print(f"# {args.workload} {k} = {m['value']:.6g} {m['unit']} (samples: {m['samples']})")
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
