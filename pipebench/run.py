"""Pipeline benchmark for flatm: whole commands and the layers inside them.

Usage, from the repository root:

    python3 pipebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each was chosen):

* ``train-large``   ``flatm train`` on a 10100-term x 10000-document corpus.
* ``infer-batch``   ``flatm infer`` of 20000 unseen documents, 1% of them
                    fully out of vocabulary, against a 3060-term model.
* ``eval-classify`` ``flatm eval classify`` at ``--threads 2``: 20 small
                    trainings and 4800 document scorings.

Every timed command runs in a fresh child process that only imports flatm
from ``src/`` before calling ``flatm.cli.main``. An operation is one timed
command. The first two operations of a run each start with a set-up: inputs
generated from the seed and written to disk, plus whatever else the command
needs. Later operations re-run the command on those inputs until
``--seconds`` have passed. Each run compares its operations' outputs for
determinism.

``--trace 0`` reports end-to-end metrics, medians over the operations:

* ``wall_s``      the command's duration inside the child;
* ``setup_s``     from the start of a set-up until its command starts, which
                  includes generating inputs and the child's imports;
* ``peak_rss_mb`` the child's peak resident memory;
* ``ok_frac``     share of attempted operations that exited 0 and passed
                  every check (1 - failed_frac).

``--trace 1`` makes one untraced operation, then re-composes the same
command from flatm's public functions with a span around each call (see
``traced.py``), requires its outputs to equal the command's byte for byte,
and reports the per-layer metrics. Spans and a record of the run, with the
environment, are written under ``.bench_work/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Any failed check makes
``correct`` false and the exit code 1.
"""

from __future__ import annotations

import argparse
import importlib
import json
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
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
# A run must end within 180 s; stop starting commands well before that.
RUN_LIMIT_S = 165.0
# The first operations of a run make fresh inputs and time their set-up; later
# ones reuse those inputs. Every run makes at least this many operations and
# compares their outputs for determinism.
SETUPS = 2
ENV_VARS = ("FLATM_BACKEND", "FLATM_THREADS", "OPENBLAS_NUM_THREADS")
CHECK_ERRORS = (OSError, ValueError, KeyError, TypeError, IndexError)


class ChildRunner:
    """Runs flatm commands through ``child.py`` and collects their results."""

    def __init__(self, data: Path, logs: Path, deadline: float):
        self.data = data
        self.logs = logs
        self.deadline = deadline

    def __call__(self, argv: list[str], tag: str) -> dict | None:
        result = self.data / f"{tag}.result.json"
        cmd = [sys.executable, str(HERE / "child.py"), str(result), str(SRC), *argv]
        with open(self.logs / f"{tag}.log", "w", encoding="utf-8") as log:
            proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT)
            try:
                proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                return None
        if not result.is_file():
            return None
        return json.loads(result.read_text(encoding="utf-8"))


def _guarded(check, *args) -> list[str]:
    """Run a check; an exception reading the outputs is a failed check too."""
    try:
        return check(*args)
    except CHECK_ERRORS as exc:
        return [f"{type(exc).__name__}: {exc}"]


def timed_op(workload, run_flatm: ChildRunner, op: int) -> dict:
    from workloads import SetupError

    started_at = time.time()
    if op < SETUPS:
        try:
            workload.prepare()
        except SetupError as exc:
            return {"op": op, "errors": [str(exc)]}
    result = run_flatm(workload.command(op), f"op-{op}")
    record = {"op": op}
    if result is None:
        record["errors"] = ["command crashed or ran out of time"]
        return record
    record.update(wall_s=result["wall_s"], peak_rss_mb=result["peak_kb"] / 1024)
    if op < SETUPS:
        record["setup_s"] = result["started_at"] - started_at
    if result["rc"] != 0:
        record["errors"] = [f"command exited {result['rc']}"]
    else:
        record["errors"] = _guarded(workload.check, op)
    return record


def environment() -> dict:
    """What the numbers depend on; read, never set."""
    import numpy
    import scipy

    try:
        import numba  # noqa: F401

        numba_imports = True
    except ImportError:
        numba_imports = False
    try:
        backend = importlib.import_module("flatm._kernels").active_backend().name
    except (ImportError, AttributeError, RuntimeError, ValueError) as exc:
        backend = f"unresolved: {exc}"

    def blas(module) -> str:
        info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "numba_imports": numba_imports,
        "flatm_backend": backend,
        "env": {name: os.environ.get(name) for name in ENV_VARS},
    }


def _median(ops: list[dict], key: str) -> float:
    values = [o[key] for o in ops if key in o]
    return statistics.median(values) if values else 0.0


def run(args, work: Path) -> dict:
    import traced
    import workloads

    deadline = time.monotonic() + RUN_LIMIT_S
    data = work / "data"
    data.mkdir(parents=True)
    run_flatm = ChildRunner(data, work, deadline)
    workload = workloads.WORKLOADS[args.workload](args.seed, data, run_flatm)
    env = environment()
    print(json.dumps({"environment": env}), flush=True)
    ops: list[dict] = []
    extra_attempted, extra_errors = 0, []
    layer = None
    try:
        if args.trace:
            ops.append(timed_op(workload, run_flatm, 0))
            tracer = traced.Tracer(f"{args.workload}-seed{args.seed}")
            if not ops[0]["errors"]:
                with tracer.span("traced_command"):
                    extra_errors = _guarded(workload.traced, tracer)
                extra_attempted = 1
            tracer.write(work / "spans.jsonl")
            layer = traced.layer_metrics(tracer.spans, ops[0].get("wall_s", 0.0))
        else:
            started, longest = time.monotonic(), 0.0
            while len(ops) < SETUPS or time.monotonic() - started < args.seconds:
                if time.monotonic() + longest > deadline:
                    break
                t0 = time.monotonic()
                ops.append(timed_op(workload, run_flatm, len(ops)))
                longest = max(longest, time.monotonic() - t0)
            if len(ops) < SETUPS:
                extra_attempted = 1
                extra_errors = [f"only {len(ops)} operations fit the time limit"]
            else:
                extra_attempted, extra_errors = workload.final_checks()
    finally:
        shutil.rmtree(data, ignore_errors=True)
    for o in ops:
        measured = ", ".join(
            f"{key} {o[key]:.3f}" for key in ("wall_s", "setup_s", "peak_rss_mb") if key in o
        )
        print(f"op {o['op']}: {measured}: {'; '.join(o['errors']) or 'ok'}", file=sys.stderr)
    for error in extra_errors:
        print(f"check: {error}", file=sys.stderr)
    attempted = len(ops) + extra_attempted
    failed = sum(1 for o in ops if o["errors"]) + (1 if extra_errors else 0)
    if layer is not None:
        metrics = {
            name: {"value": value, "unit": traced.LAYER_UNITS[name]}
            for name, value in layer.items()
        }
    else:
        metrics = {
            "wall_s": {"value": _median(ops, "wall_s"), "unit": "s"},
            "setup_s": {"value": _median(ops, "setup_s"), "unit": "s"},
            "peak_rss_mb": {"value": _median(ops, "peak_rss_mb"), "unit": "MB"},
            "ok_frac": {"value": (attempted - failed) / attempted, "unit": "frac"},
        }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record = {
        "args": vars(args),
        "environment": env,
        "ops": ops,
        "checks": extra_errors,
        "failed_frac": failed / attempted,
        "result": result,
    }
    (work / "record.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "flatm" / "cli.py").is_file():
        print(f"pipebench: flatm sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}")
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    result = run(args, work)
    print(f"record: {work / 'record.json'}")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
