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

from conftest import INTERMEDIATE_TAG, canonical_code, sample_intermediate_tree, whole_graph
from sparselocal.bounds import default_k_n
from sparselocal.cli import main
from sparselocal.coupling import CouplingConfig, couple_full
from sparselocal.rng import stream_rng
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

# gamma(2, 1) population dynamics: the size-biased types come from the
# generator's gamma sampler, which the constant-law case never reaches
RDE_GAMMA = {
    "weights": {"family": "gamma", "shape": 2.0, "scale": 1.0},
    "n_grid": [1],
    "replicas": 1,
    "rde_pop_size": 2000,
    "rde_iterations": 8,
    "seed": "5ca1ab1e",
}

# (command, config file or dict, replicas) -> {csv name: sha256}
CASES = {
    "clt-edge-sum": ("clt", "clt-edge-sum.json", 40, {
        "clt_edge-sum.csv":
            "4c23d57d8df00e039178a437459bc09ae3868ea6c45ec2b20a7526946668faf0",
    }),
    "clt-matching": ("clt", "matching-small.json", 40, {
        "clt_matching.csv":
            "165a59ceaff0a7af20e16063bf2fb0fe9b3fe9115bcbf09c36b4e25c148fc5d1",
    }),
    "couple-er": ("couple", "couple-er.json", 20, {
        "coupling.csv":
            "e30f23534e5ed9b1600108d22829a54c08023cdf26ac4d5384b8ef5f16dfdde3",
        "coupling_outcomes.csv":
            "c2d86c5efcf1277657d925a5a9fc32cb4e4ed957ca7c76c73ae2102623c763dd",
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
    "rde-gamma": ("rde", RDE_GAMMA, 1, {
        "rde_gaps.csv":
            "c7cb4ab017f087460e9d68a31d4e13fc6bb7e1803354128f80c525dc84832010",
        "rde_population.csv":
            "15bc9f711ee2947339c03de3f4bdf8e424f3966385b88c8e60c2c710018e447d",
    }),
    "couple-gamma": ("couple", COUPLE_GAMMA, 30, {
        "coupling.csv":
            "9efea3f7121c80f21ca339d21e74e37a16bb89ca7d3b1d3463b3ab2b0105d152",
        "coupling_outcomes.csv":
            "cd9b40dd4def65c36925ada7bb60938056acb4d7d61112ad1a0ec656a21286ee",
    }),
}


def _csv_digests(out_dir):
    return {name: hashlib.sha256(open(os.path.join(out_dir, name), "rb").read()).hexdigest()
            for name in sorted(os.listdir(out_dir)) if name.endswith(".csv")}


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_csv_digests(case, tmp_path):
    command, config, replicas, expected = CASES[case]
    if isinstance(config, dict):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
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
            graph = whole_graph(w, seed, t, mu_e=mu_e)
            for out in couple_full(graph, [0, 1, 2], cfg, spec):
                digest.update(canonical_code(out.tree) + repr(sorted(out.flags)).encode())
    for t in range(40):
        tree = sample_intermediate_tree(w, 5, 3, stream_rng(seed, t, INTERMEDIATE_TAG))
        digest.update(canonical_code(tree))
    assert digest.hexdigest() == ("d9a9e74e0f63d3390bfa1f852a9fd434"
                                  "c91f0801b9b2ad1d1f1de6d60e1be5dc")


def test_coupled_tree_digest_with_vertex_and_edge_weights():
    # the overlay of both weight laws: a fully coupled tree copies the graph's
    # vertex and edge weights, a broken one draws both laws fresh, node by node
    spec = WeightSpec("gamma", shape=2.0, scale=1.0)
    mu_v = WeightSpec("finite", values=(0.5, 2.0), probs=(0.6, 0.4))
    mu_e = WeightSpec("gamma", shape=1.0, scale=1.0)
    seed = (0x5CA1AB1E, 1)
    w = sample_empirical_weights(spec, 300, seed)
    digest = hashlib.sha256()
    for depth in (1, 2):
        cfg = CouplingConfig(k_n=default_k_n(300), depth=depth)
        for t in range(40):
            graph = whole_graph(w, seed, t, mu_v=mu_v, mu_e=mu_e)
            for out in couple_full(graph, [0, 1, 2], cfg, spec):
                digest.update(canonical_code(out.tree) + repr(sorted(out.flags)).encode())
    assert digest.hexdigest() == ("047eb185e9b8d293fece7c6144f15d60"
                                  "b99d3a8a40ace19afde38a74d193a4c2")
