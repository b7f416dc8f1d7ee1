"""Every function in ``src/sparselocal`` is entered by a command, or it is pinned.

The gate runs a fixed matrix of CLI commands, all with ``--check``, on small
configs in a fresh interpreter.  A trace hook, installed on the main thread
and on every thread started later before ``sparselocal`` is imported, records
each function of the package that gets entered.  Pool tasks are pickled in a
feeder thread, so the thread hook is what sees ``__getstate__``.

The functions that no command enters must be exactly ``NEVER_ENTERED``.  So
code that no command reaches fails the gate, and wiring a pinned name into a
command means taking it off the list.  Growing the list needs a CHANGES.md
line that says why.
"""

import json
import os
import subprocess
import sys
import types
from inspect import CO_NEWLOCALS

import sparselocal

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
PACKAGE = os.path.join(SRC, "sparselocal")

# qualnames (module.qualname) that no command enters, by the ROADMAP item that
# will wire them into a command
NEVER_ENTERED = {
    "item 11, the run's counters (today only the benchmark's spans read it)": [
        "explore.Neighbourhood.vertex_count",
    ],
    "no item": [
        "trees.RootedWeightedTree.__repr__",  # for interactive use
    ],
}

GAMMA = {"family": "gamma", "shape": 2.0, "scale": 1.0}
EXP = {"family": "gamma", "shape": 1.0, "scale": 1.0}
LAWS = [GAMMA, {"family": "constant", "c": 1.0},
        {"family": "finite", "values": [0.5, 2.0], "probs": [0.6, 0.4]}]
SEED = {"seed": "5ca1ab1e"}
COUPLE = {"n_grid": [60, 120], "depth": 2, "roots": 2, "replicas": 8,
          "vertex_weights": EXP, "edge_weights": EXP, **SEED}
EDGE_SUM = {"weights": {"family": "constant", "c": 2.0}, "vertex_weights": GAMMA,
            "n_grid": [40, 80], "replicas": 12, "application": "edge-sum", **SEED}
MATCHING = {"weights": GAMMA, "edge_weights": EXP, "n_grid": [10, 14], "replicas": 12,
            "application": "matching", **SEED}
RDE = {"n_grid": [1], "replicas": 1, "rde_pop_size": 1000, "rde_iterations": 12, **SEED}

# (command, config, extra arguments)
MATRIX = [
    ("generate", {"weights": GAMMA, "n_grid": [200], **SEED}, []),
    # a gamma shape other than 1, 2 and 3 takes the bisected quantile
    ("generate", {"weights": {"family": "gamma", "shape": 1.5, "scale": 1.0},
                  "n_grid": [200], **SEED}, []),
    *[(command, {"weights": law, **COUPLE}, [])
      for law in LAWS for command in ("couple", "bounds")],
    ("clt", EDGE_SUM, []),
    ("clt", MATCHING, []),
    ("rde", {"weights": {"family": "constant", "c": 0.5}, **RDE}, []),
    ("rde", {"weights": {"family": "gamma", "shape": 2.0, "scale": 0.25}, **RDE}, []),
    ("clt", EDGE_SUM, ["--workers", "2"]),
]

# argv: the package directory with a trailing separator, the output path and
# the JSON list of command lines; writes the exit codes and the entered
# (file, first line, name) keys
TRACER = r"""
import json
import sys
import threading

package, out, argvs = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
entered = set()


def hook(frame, event, arg):
    code = frame.f_code
    if code.co_filename.startswith(package):
        entered.add((code.co_filename, code.co_firstlineno, code.co_name))


threading.settrace(hook)
sys.settrace(hook)

from sparselocal import cli

if not cli.__file__.startswith(package):
    sys.exit(f"imported {cli.__file__}, not the package under {package}")
codes = [cli.main(argv) for argv in argvs]
sys.settrace(None)
threading.settrace(None)
with open(out, "w") as fh:
    json.dump({"codes": codes, "entered": sorted(entered)}, fh)
"""


def defined_functions() -> dict:
    """(file, first line, name) -> module.qualname of every function in the package.

    The qualnames are built from a walk of the compiled code objects, as
    ``co_qualname`` needs Python 3.11.  Only code objects with their own
    locals count, and of those not the ones named ``<...>``: class bodies,
    comprehensions and lambdas are left out.
    """
    out = {}
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path) as fh:
            stack = [(compile(fh.read(), path, "exec"), "")]
        while stack:
            code, prefix = stack.pop()
            for const in code.co_consts:
                if not isinstance(const, types.CodeType):
                    continue
                qualname = prefix + const.co_name
                function = bool(const.co_flags & CO_NEWLOCALS)
                if function and not const.co_name.startswith("<"):
                    key = (path, const.co_firstlineno, const.co_name)
                    out[key] = f"{name[:-3]}.{qualname}"
                stack.append((const, qualname + (".<locals>." if function else ".")))
    return out


def entered_functions(tmp_path) -> set:
    """Run the matrix under the trace hook; the keys of the functions it entered."""
    argvs = []
    for i, (command, config, extra) in enumerate(MATRIX):
        path = tmp_path / f"{i}-{command}.json"
        path.write_text(json.dumps(config))
        argvs.append([command, "--config", str(path),
                      "--out-dir", str(tmp_path / f"out-{i}"), "--check", *extra])
    out = tmp_path / "entered.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", TRACER, PACKAGE + os.sep, str(out),
                           json.dumps(argvs)], cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(out.read_text())
    assert result["codes"] == [0] * len(MATRIX), (result["codes"], proc.stderr)
    return {tuple(key) for key in result["entered"]}


def test_every_function_is_entered_or_pinned(tmp_path):
    entered = entered_functions(tmp_path)
    never = {qualname for key, qualname in defined_functions().items()
             if key not in entered}
    pinned = [qualname for names in NEVER_ENTERED.values() for qualname in names]
    assert len(pinned) == len(set(pinned)), "a name is pinned twice"
    assert sorted(never - set(pinned)) == [], "never entered and not pinned"
    assert sorted(set(pinned) - never) == [], "pinned but entered (or gone): unpin"


def test_every_exported_name_resolves():
    missing = [name for name in sparselocal.__all__ if not hasattr(sparselocal, name)]
    assert missing == []
