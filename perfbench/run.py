"""The sparselocal benchmark: drives the CLI on fixed workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seconds S]

With ``--trace 0`` it repeats the workload's CLI commands, each set in a
fresh process, for at least S seconds (and at least twice) and reports the
end-to-end metrics as medians over the sets.  With ``--trace 1`` it runs the
commands once untraced, once untraced on one worker when the workload uses
more, and once traced on one worker with wrappers from ``spans.py``, and
reports the per-layer table.  Every run checks each CSV's structure and that
all runs of the set wrote byte-identical CSVs; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

``--all`` runs every workload both ways at the reference seed, prints every
metric, and rewrites ``BENCHMARK.json`` and ``perfbench/reference.json``
(environment, workload inputs and work counts, reference CSV digests).
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
import time
from importlib import metadata

from checks import check_outputs, digests
from spans import LAYER_METRICS, UNITS, layer_metrics
from workloads import WORKLOADS, write_config

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")
REFERENCE_SEED = 1
RUN_SECONDS = 25
SETUP_PROBES = 3      # import-only processes at the start, then one before each set
MIN_SETS = 2          # digests need two sets to compare
CHILD_TIMEOUT_S = 150

# (name, unit, bound): bound is the share of the parent's median a metric may
# worsen by.  On a shared 2-core VM the medians of runs minutes apart spread
# by up to 6% (quartile distance over ten seeds), so time bounds are 0.2;
# setup_s gets the largest because process start-up is the noisiest thing
# measured
END_TO_END = (
    ("wall_s", "s", 0.2),
    ("replicas_per_s", "1/s", 0.2),
    ("setup_s", "s", 0.25),
    ("peak_rss_mb", "MB", 0.1),
)
BETTER = {"replicas_per_s": "higher"}
HIGHER_LAYER_METRICS = ("coupling.ok_share", "trace.coverage_share")


class BenchError(Exception):
    """The benchmark cannot run here (no sources, too few cores)."""


# ---- child processes --------------------------------------------------------------


def _child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("SPARSELOCAL_SEED", None)
    env.pop("PYTHONPATH", None)
    return env


def spawn(src: str, run_dir: str, tag: str, calls: list, trace: bool = False) -> dict:
    """Run child.py once; returns its result plus setup_s, or raises RuntimeError."""
    spec = {"src": src, "calls": calls, "trace": trace,
            "result_path": os.path.join(run_dir, f"{tag}.result.json"),
            "spans_path": os.path.join(run_dir, f"{tag}.spans.json")}
    spec_path = os.path.join(run_dir, f"{tag}.spec.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    spawn_ns = time.monotonic_ns()
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "child.py"), spec_path],
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, env=_child_env(), timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise RuntimeError(f"{tag}: timed out after {exc.timeout} s") from exc
    if proc.returncode != 0:
        raise RuntimeError(f"{tag}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
    with open(spec["result_path"]) as fh:
        result = json.load(fh)
    result["setup_s"] = (result["ready_ns"] - spawn_ns) * 1e-9
    if trace:
        with open(spec["spans_path"]) as fh:
            result["spans"] = json.load(fh)
    return result


class CommandSets:
    """Runs sets of the workload's commands and tallies their outcomes."""

    def __init__(self, workload, seed: int, src: str, run_dir: str):
        self.workload = workload
        self.seed = seed
        self.src = src
        self.run_dir = run_dir
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.first_digests: dict[str, dict[str, str]] = {}

    def run(self, config_path: str, trace: bool = False) -> dict | None:
        """One set; the child's result when every command passed, else None."""
        tag = f"set{self.attempted}"
        set_dir = os.path.join(self.run_dir, tag)
        calls = [(cmd, config_path, os.path.join(set_dir, f"{cmd}-{k}"), seed)
                 for k, (cmd, seed) in enumerate(self.workload.calls(self.seed))]
        self.attempted += len(calls)
        with open(config_path) as fh:
            config = json.load(fh)
        try:
            result = spawn(self.src, self.run_dir, tag, calls, trace)
            problems = [self._check(cmd, os.path.basename(out), run["code"], config, out)
                        for (cmd, _, out, _), run in zip(calls, result["runs"])]
        except RuntimeError as exc:
            problems = [str(exc)] * len(calls)
        finally:
            shutil.rmtree(set_dir, ignore_errors=True)
        problems = [p for p in problems if p is not None]
        self.failed += len(problems)
        self.errors += [f"{tag}: {p}" for p in problems]
        return None if problems else result

    def _check(self, cmd: str, call: str, code: int, config: dict,
               out_dir: str) -> str | None:
        """Exit code, CSV structure, then digests against the first set that passed."""
        if code != 0:
            return f"{call}: exit {code}"
        problem = check_outputs(cmd, config, out_dir)
        if problem is not None:
            return f"{call}: {problem}"
        found = digests(cmd, config, out_dir)
        if found != self.first_digests.setdefault(call, found):
            return f"{call}: CSVs differ from the first set of this run"
        return None


def _wall(result: dict) -> float:
    return sum(run["wall_s"] for run in result["runs"])


def _replica_wall(workload, result: dict) -> float:
    return sum(r["wall_s"] for r in result["runs"]
               if r["command"] == workload.replica_command)


def measure(workload, seed: int, seconds: float, src: str, run_dir: str):
    """Untraced sets for ``seconds``; end-to-end metrics as medians over the sets."""
    sets = CommandSets(workload, seed, src, run_dir)
    config_path = write_config(workload, run_dir)
    setups = [spawn(src, run_dir, f"probe{i}", [])["setup_s"]
              for i in range(SETUP_PROBES)]
    good = []
    start = time.monotonic()
    while sets.attempted < MIN_SETS * len(workload.calls(seed)) or (
            time.monotonic() - start < seconds):
        # probes spread over the run, so a slow spell does not hit them all
        setups.append(spawn(src, run_dir, f"probe{len(setups)}", [])["setup_s"])
        result = sets.run(config_path)
        if result is not None:
            good.append(result)
    if not good:
        return sets, None
    replicas = workload.work_counts()["graph_replicas"]
    metrics = {
        "wall_s": statistics.median(_wall(r) for r in good),
        "replicas_per_s": statistics.median(replicas / _replica_wall(workload, r)
                                            for r in good),
        "setup_s": statistics.median(setups + [r["setup_s"] for r in good]),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in good),
    }
    return sets, metrics


def traced(workload, seed: int, src: str, run_dir: str):
    """Untraced, one-worker untraced, and traced sets; the per-layer table."""
    sets = CommandSets(workload, seed, src, run_dir)
    config_path = write_config(workload, run_dir)
    one_worker = (write_config(workload, run_dir, workers=1)
                  if workload.workers > 1 else config_path)
    base = sets.run(config_path)
    base1 = sets.run(one_worker) if one_worker != config_path else base
    trace = sets.run(one_worker, trace=True)
    if base1 is None or trace is None:
        return sets, None, None
    metrics = layer_metrics(trace["spans"], _wall(trace), _wall(base1))
    return sets, metrics, trace["spans"]


# ---- environment and reference ------------------------------------------------------


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    l3 = None
    try:
        with open("/sys/devices/system/cpu/cpu0/cache/index3/size") as fh:
            text = fh.read().strip()
        l3 = int(text.rstrip("KkMm")) * (1024 if text[-1] in "Kk" else 1024 ** 2)
    except (OSError, ValueError, IndexError):
        pass
    return {"python": platform.python_version(), "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy"), "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu, "l3_bytes": l3}


def load_reference() -> dict:
    try:
        with open(REFERENCE_PATH) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return {}


def digest_drift(name: str, found: dict | None, reference: dict) -> list[str]:
    """CSVs whose digest at the reference seed moved; reported, not failed."""
    expected = reference.get("workloads", {}).get(name, {}).get("digests")
    if not expected or not found:
        return []
    return sorted(f"{name}/{call}/{csv}" for call, files in expected.items()
                  for csv, digest in files.items()
                  if found.get(call, {}).get(csv) != digest)


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [{"name": n, "unit": u, "better": BETTER.get(n, "lower"), "bound": b}
                       for n, u, b in END_TO_END],
        "per_layer": [{"name": n, "unit": UNITS[n],
                       "better": "higher" if n in HIGHER_LAYER_METRICS else "lower"}
                      for n in LAYER_METRICS],
    }


def graph_bytes_computed(n: int, edges_per_graph: float) -> dict:
    """Bytes of one graph's 8-byte arrays, computed from their lengths, not measured.

    Resident: W (n), edge_u and edge_v (m each), indptr (n + 1), indices (2m).
    Build only: the unsorted endpoints and their sort key and order (4m), then
    ends, other and the lexsort order over the 2m endpoints (6m), counts (n).
    """
    m = edges_per_graph
    return {"computed": True, "edges_per_graph": m,
            "resident_bytes": int(8 * (n + 2 * m + n + 1 + 2 * m)),
            "build_transient_bytes": int(8 * (4 * m + 6 * m + n))}


def inclusive_ms_per_call(spans: list, name: str) -> float:
    durations = [(s[2] - s[1]) * 1e-6 for s in spans if s[0] == name]
    return sum(durations) / len(durations) if durations else 0.0


# ---- entry points --------------------------------------------------------------------


def _result_line(sets: CommandSets, metrics: dict | None, units: dict) -> dict:
    return {"correct": sets.failed == 0 and metrics is not None,
            "attempted": sets.attempted, "failed": sets.failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in (metrics or {}).items()}}


def _print_metrics(title: str, metrics: dict, units: dict) -> None:
    print(f"# {title}")
    for name, value in metrics.items():
        print(f"{name:40s} {value:16.6g} {units[name]}")


def run_one(name: str, seed: int, seconds: float, trace: bool, src: str,
            run_dir: str) -> tuple[CommandSets, dict | None, list | None]:
    workload = WORKLOADS[name]
    if trace:
        return traced(workload, seed, src, run_dir)
    sets, metrics = measure(workload, seed, seconds, src, run_dir)
    return sets, metrics, None


def prepare(root: str, names) -> str:
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "sparselocal", "cli.py")):
        raise BenchError(f"no sparselocal sources under {src}: run from a checkout root")
    nproc = len(os.sched_getaffinity(0))
    for name in names:
        if WORKLOADS[name].workers > nproc:
            raise BenchError(f"{name} needs {WORKLOADS[name].workers} workers, "
                             f"only {nproc} cores")
    return src


def run_all(root: str, src: str, seconds: float) -> int:
    reference = load_reference()
    env = environment()
    print("# environment " + json.dumps(env, sort_keys=True))
    record = {"reference_seed": REFERENCE_SEED, "environment": env, "workloads": {}}
    e2e_units = {n: u for n, u, _ in END_TO_END}
    ok = True
    for name, workload in WORKLOADS.items():
        run_dir = os.path.join(root, ".perfbench", f"all-{name}")
        shutil.rmtree(run_dir, ignore_errors=True)
        os.makedirs(run_dir)
        sets, e2e, _ = run_one(name, REFERENCE_SEED, seconds, False, src, run_dir)
        tsets, layers, spans = run_one(name, REFERENCE_SEED, seconds, True, src, run_dir)
        shutil.rmtree(run_dir, ignore_errors=True)
        for s in (sets, tsets):
            for err in s.errors:
                print(f"# {name} failed: {err}")
        ok = ok and sets.failed == 0 and tsets.failed == 0 and e2e is not None \
            and layers is not None
        if e2e is None or layers is None:
            continue
        _print_metrics(f"{name} end to end", e2e, e2e_units)
        _print_metrics(f"{name} per layer (traced, 1 worker)", layers, UNITS)
        for drift in digest_drift(name, tsets.first_digests, reference):
            print(f"# digest drift against the reference: {drift}")
        entry = {"why": workload.why, "commands": [list(c) for c in workload.commands],
                 "config": workload.config, "work_counts": workload.work_counts(),
                 "digests": tsets.first_digests, "end_to_end": e2e, "per_layer": layers}
        if name == "couple-large":
            calls = layers["graph.calls"]
            entry["graph_arrays"] = graph_bytes_computed(
                workload.config["n_grid"][0], layers["graph.edges"] / calls)
            entry["roadmap_cross_check_ms"] = {
                "sample_graph_per_replica": (layers["graph.sample_s"]
                                             + layers["graph.csr_s"]) * 1e3 / calls,
                "sample_graph_roadmap": 382.0,
                "couple_full_per_call": inclusive_ms_per_call(spans, "coupling.couple_full"),
                "couple_full_roadmap": 240.0,
            }
            print("# couple-large against the ROADMAP table (ms): "
                  + json.dumps(entry["roadmap_cross_check_ms"]))
        record["workloads"][name] = entry
    if not ok:
        print("# some runs failed; reference not written", file=sys.stderr)
        return 1
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(os.path.join(root, "BENCHMARK.json"), "w") as fh:
        json.dump(benchmark_json(), fh, indent=2)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload at the reference seed and rewrite "
                             "BENCHMARK.json and perfbench/reference.json")
    args = parser.parse_args(argv)
    if not args.all and args.workload is None:
        parser.error("give --workload or --all")
    root = os.getcwd()
    try:
        src = prepare(root, WORKLOADS if args.all else [args.workload])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.all:
        return run_all(root, src, args.seconds)

    run_dir = os.path.join(root, ".perfbench",
                           f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        sets, metrics, _ = run_one(args.workload, args.seed, args.seconds,
                                   bool(args.trace), src, run_dir)
    except RuntimeError as exc:  # a set-up probe failed: nothing can run
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for err in sets.errors:
        print(f"# failed: {err}")
    if metrics is None:
        print("error: no run of the workload succeeded", file=sys.stderr)
        return 1
    if args.seed == REFERENCE_SEED:
        for drift in digest_drift(args.workload, sets.first_digests, load_reference()):
            print(f"# digest drift against the reference: {drift}")
    units = UNITS if args.trace else {n: u for n, u, _ in END_TO_END}
    _print_metrics(f"{args.workload} seed {args.seed} trace {args.trace}", metrics, units)
    print(json.dumps(_result_line(sets, metrics, units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
