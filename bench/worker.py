"""One benchmark process: either the set-up or one pass over a workload's ops.

    python3 bench/worker.py setup <workload> <seed> <workdir> [--smoke]
    python3 bench/worker.py pass <workdir> <result.json> [--trace]

``setup`` builds the workload's inputs, writes one ``.sgt`` file per input and
the op list (``manifest.json``) into ``workdir``.  ``pass`` runs every op in
order as an in-process ``sgmindeg.cli.main(argv)`` call, captures its exit
code and output, and writes the timings to ``result.json``.  Each pass runs in
a fresh interpreter, as every real command-line call does.  With ``--trace``
the pass runs under ``tracing.Tracer`` and then re-runs its oracle calls one
degree at a time.
"""

from __future__ import annotations

import io
import json
import resource
import sys
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402


def setup(workload: str, seed: int, workdir: Path, smoke: bool) -> None:
    from sgmindeg.fileio import dump_sgt

    inputs, ops = workloads.build_inputs(workload, seed, smoke=smoke)
    workdir.mkdir(parents=True, exist_ok=True)
    for stem, s in inputs.items():
        (workdir / f"{stem}.sgt").write_text(dump_sgt(s, header=stem))
    (workdir / "manifest.json").write_text(json.dumps({"workload": workload, "ops": ops}))


def run_pass(workdir: Path, trace: bool) -> dict:
    from sgmindeg.cli import main

    ops = json.loads((workdir / "manifest.json").read_text())["ops"]
    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    region = tracer.region if tracer else (lambda name: nullcontext())
    results = []
    t0 = perf_counter()
    with region("bench.pass"):
        for op in ops:
            path = str(workdir / f"{op['input']}.sgt")
            argv = [path if a == "{input}" else a for a in op["argv"]]
            out, err = io.StringIO(), io.StringIO()
            rc, error = None, None
            if tracer:
                tracer.op = op["id"]
            start = perf_counter()
            with redirect_stdout(out), redirect_stderr(err), region("cli.main"):
                try:
                    rc = main(argv)
                except SystemExit as exc:  # argparse rejects the arguments
                    rc = exc.code if isinstance(exc.code, int) else 1
                except Exception:  # the op fails; the pass goes on
                    error = traceback.format_exc()
            results.append(
                {
                    "id": op["id"],
                    "rc": rc,
                    "secs": perf_counter() - start,
                    "stdout": out.getvalue(),
                    "stderr": err.getvalue(),
                    "error": error,
                }
            )
            if tracer:
                tracer.op = None
    pass_s = perf_counter() - t0
    doc = {
        "pass_s": pass_s,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": results,
    }
    if tracer:
        tracer.uninstall()
        tracing.oracle_split(tracer.oracle_calls, float(workloads.ORACLE_BUDGET))
        doc.update(
            spans=tracer.spans, counts=dict(tracer.counts), oracle_calls=tracer.oracle_calls
        )
    return doc


def main(argv: list[str]) -> int:
    if argv[0] == "setup":
        setup(argv[1], int(argv[2]), Path(argv[3]), smoke="--smoke" in argv[4:])
        return 0
    if argv[0] == "pass":
        doc = run_pass(Path(argv[1]), trace="--trace" in argv[3:])
        Path(argv[2]).write_text(json.dumps(doc))
        return 0
    print(f"unknown worker command {argv[0]!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
