"""Byte-identity of the command outputs against hashes recorded before the columnar rewrite.

The hashes were taken from the outputs of the scalar implementation (one
``StepRecord`` per step, a per-sample oracle fold, ``csv.writer`` rows).
Any change to a trajectory cell, a summary field, an SVG coordinate, a
sweep table entry, the verify report or a lemma-audit witness file shows
up here.  The lemma-audit hashes were taken from the one-shot search
(every instance held in Python lists) before it became a blocked search.
"""

import hashlib

import pytest

from convexmix import cli

GOLDEN = {
    "run --case 1": (
        [
            ["run", "--case", "1", "--n", "3000", "--out", "c1.csv", "--summary", "c1.json"],
            ["plot", "--input", "c1.csv", "--logx", "--out", "c1.svg"],
        ],
        {
            "c1.csv": "793b0b39fc6e3a272766326f3926ded669319bcdca18af2fb6ab6402d0a3b377",
            "c1.json": "0907ea318d3d2675fd21517ec77e82c4b909e7c96930ead33c66e931ffbdd00a",
            "c1.svg": "72229cfb603109ad1dc9794ee89ea7eb43c935e1e9425b6ab011c9c48c419cad",
        },
    ),
    "run --case 2 monitor window": (
        [
            ["run", "--case", "2", "--n", "3000", "--mode", "monitor", "--window", "100:900",
             "--out", "c2.csv", "--summary", "c2.json"],
            ["plot", "--input", "c2.csv", "--logx", "--out", "c2.svg"],
        ],
        {
            "c2.csv": "09f1138825438452943b02baac088778cf7bbca9e1a440a476a0d1de846a28d0",
            "c2.json": "a4a314011f9c176162927014f7eef3eea499b002030e8a576f1d7a18f1837f32",
            "c2.svg": "331ccd761b652c74aa2acff9b35cc54c1946789f28f8e561652d940e69e96b62",
        },
    ),
    "sweep": (
        [["sweep", "--case", "1", "--n", "2000", "--mu-list", "0.04,0.08", "--out", "sweep.csv"]],
        {
            "sweep.csv": "b8c4f0be82cd7a5729ba4e35ce0818ab32136de0301628423e2de4fa0ac0446f",
            "sweep_mu0.04.json": "f87560431628fe69888e6e439224f4f8f335960c1ca0db66813e8be5c012e16a",
            "sweep_mu0.08.json": "2de276c19eaed3f3f7d1d4f505c80aae5f58b9f3a0c0c549a7200c6691db25f4",
        },
    ),
    "lemma-audit clean": (
        [["lemma-audit", "--eps", "0.1", "--budget", "200000", "--seed", "3", "--out", "w.json"]],
        {
            "w.json": "34b370943c6076ae7fc0a02e7211ab43776c9f75a540dd0e15aea48c620b7567",
        },
    ),
    "lemma-audit witnesses": (
        [["lemma-audit", "--a", "0.0586", "--b", "0.005", "--mu", "1.03", "--budget", "70001",
          "--seed", "0", "--out", "w.json"]],
        {
            "w.json": "44bbe2cc032bf1e9543f1244f2fa642aebf07fafc74903774a42cbfcd3d00721",
        },
    ),
    "verify": (
        [["verify", "--trials", "5", "--n", "200", "--seed", "3", "--out", "verify_report.json"]],
        {
            "verify_report.json": "dc1b77e3e2df814389258c03d445785ec117bebb03b3ab469d9c8141d8936a39",
        },
    ),
}

# commands that succeed with a non-zero exit code (witnesses found)
EXIT_CODES = {"lemma-audit witnesses": 1}


@pytest.mark.parametrize("label", sorted(GOLDEN))
def test_outputs_byte_identical(label, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("CONVEXMIX_TOL", raising=False)
    commands, hashes = GOLDEN[label]
    for argv in commands:
        assert cli.main(argv) == EXIT_CODES.get(label, 0), argv
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in hashes}
    assert got == hashes
