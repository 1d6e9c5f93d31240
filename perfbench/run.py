"""relfock benchmark: time from scenario file to canonical report bytes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's scenario files from the seed, then repeats the user
path ``scenario.load_scenario`` -> ``runner.run_scenario`` ->
``Report.to_machine_bytes`` in a closed loop with one client for about S
seconds. One repetition runs every scenario file of the workload once. The
first repetition is checked against independent oracles (checks.py) and not
timed; every later report must be byte-identical to it.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates untraced
and traced repetitions and prints the per-layer metrics (spans.py). Human
readable lines come first; the last line of stdout is one JSON object. A
results file and, when traced, the spans go to perfbench/out/.
"""
from __future__ import annotations

import os
import sys

# BLAS may use no more threads than the CPUs this process may run on; this
# must be settled before numpy is imported.
NPROC = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(min(int(os.environ.get(_var) or NPROC), NPROC))

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
MIN_REPS = 3
CLI_REPEATS = 3
# Workloads whose repetitions take milliseconds. The machines this was built
# on switch between fast and slow spells (about 1.6x apart) lasting seconds,
# and a run may be slow for all but a few of them, so the median of such
# short repetitions follows the share of slow spells in the run. Their times
# are those of the fastest repetition instead: the program's speed in a fast
# spell. Longer repetitions each span several spells, and the median of all
# is steadier for them than the fastest.
FASTEST_REP_WORKLOADS = {"bundled"}

sys.path.insert(0, str(SRC))
import checks  # noqa: E402
import workloads  # noqa: E402


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "git_commit": git_commit(),
        "source_digest": source_digest(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over the program's sources, to identify checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "relfock").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return "sha256:" + digest.hexdigest()


def run_once(paths, tol, scenario_mod, runner_mod):
    """One repetition: every file through load -> run -> serialize."""
    outputs, setup, run, serialize = [], 0.0, 0.0, 0.0
    for path in paths:
        t0 = perf_counter()
        scen = scenario_mod.load_scenario(path, tol)
        t1 = perf_counter()
        report = runner_mod.run_scenario(scen, tol)
        t2 = perf_counter()
        data = report.to_machine_bytes()
        t3 = perf_counter()
        del scen, report
        outputs.append(data)
        setup, run, serialize = setup + t1 - t0, run + t2 - t1, serialize + t3 - t2
    return outputs, {"setup_s": setup, "run_s": run, "serialize_s": serialize,
                     "wall_s": setup + run + serialize}


def fresh_python(args: list, env: dict):
    """A fresh interpreter, waited for; None if it does not end in 20 s (it
    is killed then)."""
    try:
        return subprocess.run([sys.executable, *args], capture_output=True, env=env,
                              cwd=ROOT, timeout=20)
    except subprocess.TimeoutExpired:
        return None


def cli_probe(env) -> tuple[dict, checks.Tally]:
    """Fresh ``python -m relfock`` per shipped scenario, and a fresh import."""
    tally = checks.Tally()
    process, imports = [], []
    for _ in range(CLI_REPEATS):
        for case in workloads.bundled():
            t0 = perf_counter()
            proc = fresh_python(["-m", "relfock", str(workloads.SHIPPED_DIR / f"{case.name}.json"),
                                 "--format", "machine"], env)
            process.append(perf_counter() - t0)
            tally.add(f"cli {case.name}", proc is not None and proc.returncode == 0
                      and proc.stdout == case.golden, "differs from the golden report")
        proc = fresh_python(["-c", "import time; t = time.perf_counter(); import relfock.cli;"
                             " print(time.perf_counter() - t)"], env)
        ok = proc is not None and proc.returncode == 0
        tally.add("cli import", ok, "import failed")
        if ok:
            imports.append(float(proc.stdout))
    return {"cli.process_s": statistics.median(process),
            "cli.import_s": statistics.median(imports or [0.0])}, tally


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "relfock" / "__init__.py").is_file():
        print(f"error: no relfock sources under {SRC}", file=sys.stderr)
        return 2

    import spans
    from relfock import runner, scenario
    from relfock.tolerances import Tolerances

    tol = Tolerances()
    cases = workloads.GENERATORS[args.workload](args.seed)
    workdir = OUT / f"{args.workload}-seed{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    paths = []
    for case in cases:
        path = workdir / f"{case.name}.json"
        path.write_bytes(case.data)
        paths.append(path)

    # Untimed first repetition: fills lazy state, and its reports are checked.
    reference, _ = run_once(paths, tol, scenario, runner)
    tally = checks.Tally()
    for case, data in zip(cases, reference):
        tally.merge(checks.check_report(case, data))
    statuses = [t["status"] for data in reference for t in json.loads(data)["tasks"]]
    digests = [{"name": c.name, "scenario_digest": json.loads(d)["scenario_digest"],
                "file_sha256": hashlib.sha256(c.data).hexdigest()}
               for c, d in zip(cases, reference)]

    untraced, traced = [], []
    start = perf_counter()
    while True:
        if args.trace and len(traced) < len(untraced):
            tracer = spans.Tracer()
            with tracer:
                outputs, timing = run_once(paths, tol, scenario, runner)
            traced.append((tracer.spans, timing, sum(len(d) for d in outputs)))
        else:
            outputs, timing = run_once(paths, tol, scenario, runner)
            untraced.append(timing)
        tally.attempted += len(statuses)
        tally.failed += sum(status != "ok" for status in statuses)
        for case, data, ref in zip(cases, outputs, reference):
            tally.add(f"{case.name}: rerun byte-identical", data == ref, "report changed")
        done = len(untraced) + len(traced)
        elapsed = perf_counter() - start
        if done >= MIN_REPS and elapsed * (done + 1) / done > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    estimate = min if args.workload in FASTEST_REP_WORKLOADS else statistics.median
    end_to_end = {key: estimate(t[key] for t in untraced)
                  for key in ("setup_s", "run_s", "wall_s")}
    end_to_end["peak_rss_mb"] = peak_rss_mb
    layer_values = {}
    if args.trace:
        layer_values = spans.layer_metrics(
            [(s, t["wall_s"], nbytes) for s, t, nbytes in traced])
        layer_values["trace.overhead_s"] = (
            statistics.median(t["wall_s"] for _, t, _ in traced)
            - statistics.median(t["wall_s"] for t in untraced))
        env = dict(os.environ, PYTHONPATH=str(SRC))
        cli_values, cli_tally = cli_probe(env)
        layer_values.update(cli_values)
        tally.merge(cli_tally)
    error_rate = tally.failed / tally.attempted

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        metrics = {m["name"]: {"value": layer_values[m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": end_to_end[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}

    results = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "load": "closed loop, one client",
        "environment": environment(), "scenarios": digests,
        "repetitions": {"untraced": len(untraced), "traced": len(traced)},
        "time_estimate": estimate.__name__,
        "end_to_end": end_to_end | {"error_rate": error_rate},
        "per_layer": layer_values,
        "timings": untraced,
        "attempted": tally.attempted, "failed": tally.failed,
        "failures": tally.failures[:50],
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(results, indent=1, sort_keys=True))
    if args.trace:
        names = ("name", "start", "end", "parent", "tag")
        with open(OUT / f"{stem}.spans.jsonl", "w") as fh:
            for rep, (rep_spans, _, _) in enumerate(traced):
                for span in rep_spans:
                    fh.write(json.dumps({"rep": rep, **dict(zip(names, span))}) + "\n")

    for failure in tally.failures[:20]:
        print(f"FAILED {failure}")
    reps = f"{len(untraced)} untraced, {len(traced)} traced repetitions"
    print(f"workload {args.workload} seed {args.seed}: {reps}")
    for name, entry in metrics.items():
        print(f"{name} {entry['value']!r} {entry['unit']}")
    print(f"error_rate {error_rate!r} ratio ({tally.failed} failed of {tally.attempted})")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
