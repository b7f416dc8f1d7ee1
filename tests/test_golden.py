"""Golden digests of the CLI's CSV outputs and of the coupled trees.

Every case runs one CLI command on a fixed (config, seed, replica count) and
compares the SHA-256 of each CSV it writes with a pinned value.  A refactor
that is meant to keep the outputs must keep these digests; a change that
moves them on purpose must say why and re-pin them.
"""

import hashlib
import json
import os

import pytest

from sparselocal.bounds import default_k_n
from sparselocal.cli import main
from sparselocal.coupling import CouplingConfig, couple_full
from sparselocal.graph import sample_graph
from sparselocal.limit_trees import sample_intermediate_tree
from sparselocal.trees import canonical_code
from sparselocal.weights import WeightSpec, sample_empirical_weights

CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "configs")

# gamma weights at small n: every coupling stage breaks on some replicas, so
# the detached stage-1 growth, the independence repair, the limit redraw and
# the weight overlay all consume randomness that reaches the CSVs
COUPLE_GAMMA = {
    "weights": {"family": "gamma", "shape": 2.0, "scale": 1.0},
    "edge_weights": {"family": "gamma", "shape": 1.0, "scale": 1.0},
    "n_grid": [100, 400],
    "depth": 2,
    "roots": 3,
    "replicas": 30,
    "seed": "5ca1ab1e",
}

# (command, config, replicas) -> {csv name: sha256}
CASES = {
    "clt-edge-sum": ("clt", "clt-edge-sum.json", 40, {
        "clt_edge-sum.csv":
            "c7f6f7ec7c63a155fdc9748b09868716582cd2951cf1b5acb2a5d22950d5274a",
    }),
    "clt-matching": ("clt", "matching-small.json", 40, {
        "clt_matching.csv":
            "8e175c47784f6824efdbe6629e2f626275d741dca06bb92e18dd532ff4d87b5b",
    }),
    "couple-er": ("couple", "couple-er.json", 20, {
        "coupling.csv":
            "5249075d775de189809d58b225050162f065a3a0b416f6cbb95c4387bc03121b",
        "coupling_outcomes.csv":
            "0740f987f0139f4e2b0072dd30730db6f23ee73ea384418255ba121fe0a5c58e",
    }),
    "bounds-er": ("bounds", "couple-er.json", 20, {
        "bounds_grid.csv":
            "40515d2327b45599b4cbbea655c8fa9cd302a3608de36b2e6c72115a8dafb42e",
    }),
    "rde-constant": ("rde", "rde-constant.json", 1, {
        "rde_gaps.csv":
            "21475c9f8988628dec16ea71189ccc458347ab896a408abcda0273953c831c62",
        "rde_population.csv":
            "f227bc7633a9e41bee4af13a0c62dd020b39631364b1cd92ef61a8dbdf342fbb",
    }),
    "couple-gamma": ("couple", None, 30, {
        "coupling.csv":
            "19a8a9873d5effafe7bddfa149525d557b810bd4fd1c93d9ff6952e9c0a9f8db",
        "coupling_outcomes.csv":
            "12065272e7a889d62db8065624133effa10e545033188a335ae49efeb3de64a8",
    }),
}


def _csv_digests(out_dir):
    return {name: hashlib.sha256(open(os.path.join(out_dir, name), "rb").read()).hexdigest()
            for name in sorted(os.listdir(out_dir)) if name.endswith(".csv")}


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_csv_digests(case, tmp_path):
    command, config, replicas, expected = CASES[case]
    if config is None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(COUPLE_GAMMA))
        config = str(path)
    else:
        config = os.path.join(CONFIGS, config)
    out = str(tmp_path / "out")
    assert main([command, "--config", config, "--replicas", str(replicas),
                 "--out-dir", out]) == 0
    assert _csv_digests(out) == expected


def test_gamma_case_breaks_every_stage(tmp_path):
    # the couple-gamma digests only guard stages 2 and 3 if they really break
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(COUPLE_GAMMA))
    out = str(tmp_path / "out")
    assert main(["couple", "--config", str(path), "--out-dir", out]) == 0
    with open(os.path.join(out, "coupling_outcomes.csv")) as fh:
        reasons = {line.rstrip("\n").split(",")[-1] for line in fh}
    assert {"TypeRepeat", "WassersteinRedraw"} <= reasons
    assert reasons & {"XneqZ", "ActiveCollision", "CompletedCollision", "SizeOverflow"}


def test_coupled_tree_digest():
    # a CSV row keeps only a root's first break, so a draw that moves a type
    # but no count can hide there; the trees' canonical codes carry every
    # type and weight, and the flags every break, of all three stages
    spec = WeightSpec("gamma", shape=2.0, scale=1.0)
    mu_e = WeightSpec("gamma", shape=1.0, scale=1.0)
    seed = (0x5CA1AB1E, 0)
    w = sample_empirical_weights(spec, 300, seed)
    digest = hashlib.sha256()
    for cfg in (CouplingConfig(k_n=default_k_n(300), depth=2),
                CouplingConfig(k_n=1e9, depth=2)):
        for t in range(40):
            graph = sample_graph(w, seed, t, mu_e=mu_e)
            for out in couple_full(graph, [0, 1, 2], cfg, spec, mu_e, None):
                digest.update(canonical_code(out.tree) + repr(sorted(out.flags)).encode())
    for t in range(40):
        digest.update(canonical_code(sample_intermediate_tree(w, 5, 3, seed, stream=t)))
    assert digest.hexdigest() == ("e78263ad50f19072a333f506796e9bab"
                                  "7b2658634059169b4bd8c6c33f497dbb")
