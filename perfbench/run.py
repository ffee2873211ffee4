"""vdmini benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. With --trace 0 the last line of
standard output holds the end-to-end metrics of an untraced run; with
--trace 1 it holds the per-layer metrics of a traced run. See README.md.
"""

from __future__ import annotations

import os

# tensor.py is bit-reproducible only for a given BLAS thread count: fix it
# before numpy loads
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
# NumPy asks for transparent huge pages on arrays of 4 MiB and more; whether
# the kernel grants them depends on the host's free memory, so the peak RSS of
# one run read either of two values 5 MiB apart. Ask for none.
os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"

import argparse
import glob
import gzip
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 3
# setup_s is given in seconds of a host on which the reference computation
# takes this long; see timed_setup
REF_NOMINAL_S = 0.010


def blas_info() -> dict:
    info = {"name": "unknown", "version": "unknown", "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (AttributeError, KeyError, TypeError):
        pass
    import ctypes
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            get = getattr(ctypes.CDLL(lib), fn, None)
            if get is not None:
                get.restype = ctypes.c_int
                info["threads"] = get()
                return info
    return info


def host_record() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        sha = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {"host": platform.node(), "cores": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_info(), "blas_threads_env": BLAS_THREADS,
            "numpy_madvise_hugepage": os.environ["NUMPY_MADVISE_HUGEPAGE"],
            "git_sha": sha, "src_sha256": src.hexdigest()}


def measure(workload, seconds: float, after_first=None) -> list:
    """Whole rounds until `seconds` have passed and min_rounds are made."""
    rounds = []
    t0 = time.perf_counter()
    while len(rounds) < workload.min_rounds or time.perf_counter() - t0 < seconds:
        rounds.append(workload.round())
        if after_first is not None and len(rounds) == 1:
            after_first()
    return rounds


def unit_ms(rounds: list) -> float:
    """Median wall time of one unit of work, in ms."""
    return float(np.median([t for r in rounds for t in r.unit_s])) * 1e3


def unit_vs_ref(rounds: list) -> float:
    """Median over units of unit time / the reference timed beside it."""
    return float(np.median([u / ref for r in rounds for u, ref in zip(r.unit_s, r.ref_s)]))


def timed_setup(workload) -> tuple:
    """One set-up: (wall seconds, wall scaled to the nominal reference time).

    The host runs the same code at speeds up to 1.5x apart in spells of
    seconds to minutes; the reference, timed three times before and three
    times after, moves with it, so the scaled figure keeps the program's
    set-up cost and drops most of the host's drift."""
    import workloads
    refs = [workloads.reference_s() for _ in range(3)]
    t0 = time.perf_counter()
    workload.setup()
    wall = time.perf_counter() - t0
    refs += [workloads.reference_s() for _ in range(3)]
    return wall, wall * REF_NOMINAL_S / statistics.median(refs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not (SRC / "vdmini").is_dir():
        print(f"error: no vdmini sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    for var in [v for v in os.environ if v.startswith("VDMINI_")]:
        del os.environ[var]  # config overrides would change the inputs

    import workloads  # imports vdmini
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")

    from vdmini.errors import VdminiError
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, work)
        result = run(workload, args)
    except (workloads.SetupError, VdminiError) as exc:
        # no unit of work ran, so there is nothing to measure
        print(f"set-up failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = result.pop("problems")
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "host": host_record(), **result}
    trace_doc = record.pop("spans", None)
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if trace_doc is not None:
        with gzip.open(results / f"{stem}-spans.json.gz", "wt", compresslevel=1) as fh:
            json.dump(trace_doc, fh)
    print(json.dumps({"host": record["host"]}))
    for name, (value, unit) in record.get("named", {}).items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({"correct": not problems, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
    return 0 if result["metrics"] else 1


def run(workload, args) -> dict:
    import workloads
    workloads.reference_s()  # its first run in a process is slow
    setups = [timed_setup(workload) for _ in range(1 if args.trace else SETUP_REPEATS)]
    # peak memory over set-up and the first round: a fixed amount of work,
    # while the number of rounds in --seconds varies with host speed
    peak_kib = []
    rounds = all_rounds = measure(workload, args.seconds, lambda: peak_kib.append(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss))
    if not any(r.unit_s for r in rounds):
        return {"attempted": sum(r.attempted for r in rounds),
                "failed": sum(r.failed for r in rounds), "metrics": {},
                "problems": check(workload) + ["no unit of work completed"]}
    plain = unit_vs_ref(rounds)
    out = {"named": workload.named(unit_ms(rounds))}
    if args.trace:
        tracer = spans.Tracer()
        patcher = spans.instrument(tracer)
        patcher.set(workloads, "reference_s",
                    tracer.timed(workloads.reference_s, spans.REFERENCE))
        try:
            workload.setup()
            tracer.phase = "loop"
            rounds = measure(workload, args.seconds)
            all_rounds = all_rounds + rounds
        finally:
            patcher.restore()
        metrics = spans.layer_metrics(tracer, sum(r.units for r in rounds))
        metrics["trace.overhead_pct"] = {
            "value": 100.0 * (unit_vs_ref(rounds) / plain - 1.0), "unit": "%"}
        out["spans"] = tracer.to_json()
    else:
        metrics = {"setup_s": {"value": statistics.median(s for _, s in setups), "unit": "s"},
                   "peak_rss_mb": {"value": peak_kib[0] / 1024.0, "unit": "MB"},
                   "unit_vs_ref": {"value": plain, "unit": "ratio"}}
        out["setup_wall_s"] = [wall for wall, _ in setups]
        out["setup_scaled_s"] = [scaled for _, scaled in setups]
        out["unit_s"] = [t for r in rounds for t in r.unit_s]
        out["ref_s"] = [t for r in rounds for t in r.ref_s]
    out["metrics"] = metrics
    out["problems"] = check(workload)
    out["attempted"] = sum(r.attempted for r in all_rounds)
    out["failed"] = sum(r.failed for r in all_rounds)
    return out


def check(workload) -> list:
    """The workload's output checks; one that cannot run is a failed check."""
    try:
        return workload.check()
    except Exception as exc:  # a missing artifact, say, after a failed call
        return workload.problems + [f"check could not run: {type(exc).__name__}: {exc}"]


if __name__ == "__main__":
    sys.exit(main())
