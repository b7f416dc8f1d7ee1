"""One fresh benchmark process: import sparselocal, run CLI commands, report.

Usage: python3 perfbench/child.py SPEC.json

SPEC holds the source directory, the CLI calls as (command, config, out_dir,
seed) lists, whether to trace, and where to write the result (and the
spans, when traced).  The result records when the package finished
importing (CLOCK_MONOTONIC, comparable with the parent's clock), each
command's exit code and wall time from the call into ``cli.main`` to its
return, and the peak resident set of this process and its pool workers.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def main() -> int:
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    src = spec["src"]
    sys.path.insert(0, src)
    import sparselocal.cli as cli

    ready_ns = time.monotonic_ns()
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"sparselocal imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2
    recorder = None
    if spec["trace"]:
        from spans import Recorder

        recorder = Recorder().install()
    runs = []
    for i, (command, config, out_dir, seed) in enumerate(spec["calls"]):
        if recorder is not None:
            recorder.run = i
        argv = [command, "--config", config, "--seed", seed, "--out-dir", out_dir]
        start = time.perf_counter_ns()
        code = cli.main(argv)
        runs.append({"command": command, "code": code,
                     "wall_s": (time.perf_counter_ns() - start) * 1e-9})
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    if recorder is not None:
        recorder.dump(spec["spans_path"])
    with open(spec["result_path"], "w") as fh:
        json.dump({"ready_ns": ready_ns, "runs": runs, "peak_rss_mb": peak_kb / 1024.0}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
