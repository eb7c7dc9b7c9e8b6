"""Byte-identity of the command outputs against hashes recorded before the columnar rewrite.

The hashes were taken from the outputs of the scalar implementation (one
``StepRecord`` per step, a per-sample oracle fold, ``csv.writer`` rows).
Any change to a trajectory cell, a summary field, an SVG coordinate, a
sweep table entry, the verify report or a lemma-audit witness file shows
up here.  The lemma-audit hashes were taken from the one-shot search
(every instance held in Python lists) before it became a blocked search.
The sequence-source hashes (``--input``, ``--spec`` and ``generate``) were
taken while every sequence was still built as a list of ``SignalSample``.
The trajectory-replay and ``u.svg`` hashes were taken while
``load_csv`` and ``read_trajectory`` each parsed files with their own code;
``u.svg`` then came from a cell written ``7_5e-2``, which float() read as
0.75.  The reader now refuses that cell, and the same double written
``75e-2`` draws the same bytes.
The ``c1.svg`` and ``c2.svg`` hashes were re-recorded when each polyline
became its pixel-column envelope; only their two ``points`` lists changed,
and every kept point is one the full polylines drew.  ``u.svg`` has at most
four points per pixel column, so its hash did not move.
The ``verify blocks`` and ``verify override-a`` hashes were taken while
verify still ran its trials one ``mixture.run`` call each, and the
``verify skipped steps`` hash while each trial's margins took two
``per_step_margins`` calls, one on the fixed weights and one on the drawn.
Every summary and sweep-table hash was re-recorded when the summary gained
``bound_holds``, and again when it gained its last key,
``first_bound_cross_t``; parsed, each file keeps every earlier key and
value, in order.  The witness-file hash of ``lemma-audit witnesses`` was
re-recorded when the search took its weights from the logistic update
instead of the multiplicative one: the count and the listed instances are
the same, the margins move by about 1e-15 at most, and rows whose margins are
that close can trade places.  Both lemma-audit hashes were re-recorded when
the payload's ``lemma_bounds`` object dropped its two b figures, which no
check enforced, and kept ``mu_min`` alone; every other key and value is the same.
The ``verify``, ``verify blocks`` and ``verify skipped steps`` hashes were
re-recorded when the identity suite's ``checked`` became the count of the 11
checks it runs instead of a literal 10; no other key or value moved, and
under ``--override-a 5`` the refused roots count once, so 10 stays.
"""

import hashlib
import json

import pytest

from convexmix import cli
from convexmix.mixture import sample_columns
from convexmix.signals import TRAJECTORY_COLUMNS, SequenceSpec, generate

# 60 rows whose fields reach +-1.25, so the default cap of 1.0 clips 37 of
# them, in both signs; 23 of the clipped fields lie in rows 46-60
SEQ_CSV = "y,yhat1,yhat2\n" + "".join(
    f"{((k * 37) % 41 - 20) / 16:.6g},{((k * 23) % 29 - 14) / 11:.6g},"
    f"{((k * 13) % 31 - 15) / 12.5:.6g}\n"
    for k in range(60)
)


def _plot_csv(cell: str) -> str:
    """A 40-row trajectory whose step 13 (file row 14) writes its norm_regret as ``cell``."""
    return ",".join(TRAJECTORY_COLUMNS) + "\n" + "".join(
        f"{t},0.5,0.5,{-0.5 if t % 2 else 0.5},0.5,0,0.5,0,{t / 4:.17g},1,{t / 5:.17g},"
        f"{t / 20:.17g},{cell if t == 13 else f'{((t * 7) % 11 - 5) / 40:.17g}'},"
        f"{152 / t:.17g},1,0\n"
        for t in range(1, 41)
    )


# files written into the working directory before the commands run
FILES = {
    "run --input clipped": {"seq.csv": SEQ_CSV},
    "run --spec custom_file truncated": {
        "seq.csv": SEQ_CSV,
        "file.json": json.dumps({"kind": "custom_file", "path": "seq.csv", "n": 45,
                                 "y_bound": 0.9}),
    },
    # 0.75 with a digit-group underscore, which float() takes and numpy refuses
    "plot underscore cell": {"u.csv": _plot_csv("7_5e-2")},
    "plot 75e-2 cell": {"u.csv": _plot_csv("75e-2")},
    "run --spec square_wave": {
        "sq.json": json.dumps({"kind": "square_wave", "n": 500, "period": 7,
                               "amplitude": 0.7}),
    },
    "run --spec piecewise_switch": {
        "sw.json": json.dumps({"kind": "piecewise_switch", "n": 500, "switch_at": 173,
                               "amplitude": -0.6}),
    },
}

GOLDEN = {
    "run --case 1": (
        [
            ["run", "--case", "1", "--n", "3000", "--out", "c1.csv", "--summary", "c1.json"],
            ["plot", "--input", "c1.csv", "--logx", "--out", "c1.svg"],
        ],
        {
            "c1.csv": "793b0b39fc6e3a272766326f3926ded669319bcdca18af2fb6ab6402d0a3b377",
            "c1.json": "635cc4d469209338df0a25bf148809989ca350baded3562af7a8178820be92f0",
            "c1.svg": "aa9d0860501f918a71d9aa616a7aae0008350c59e57908a6c83b63e08a486a1c",
        },
    ),
    # the defaults: n = 10,000 rows, three writer blocks of 4,096, 4,096 and 1,808
    "run --case 1 defaults": (
        [["run", "--case", "1"]],
        {
            "trajectory.csv": "5560a0e40e88522cf55d38b95566fb1bb94795188a921c9d6a0572b9c13f1d48",
            "summary.json": "c098ffa27b366f7c3064b3ebaf769919c3514dee6cc310501198d724171cb447",
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
            "c2.json": "b24613e27a3aa04dbf5ead1bc1834c856001409e92593099e72333491b61f0ae",
            "c2.svg": "3459d0dda9f312a9128ba09cc72cbf2ea81a16415179f88f218be7262fc71d19",
        },
    ),
    "sweep": (
        [["sweep", "--case", "1", "--n", "2000", "--mu-list", "0.04,0.08", "--out", "sweep.csv"]],
        {
            "sweep.csv": "4c88c61b83a2ff8c8684461fbf03331f8a745d8606024b9e93453dd725298c7a",
            "sweep_mu0.04.json": "6058dd5a3039e88c375750278e579b6a46de1ca35390f291ff4a667c844c9903",
            "sweep_mu0.08.json": "bf38fd234a20faa33f3eb3248817ff99ff73843bc3de91ea1c929711b73ab9c4",
        },
    ),
    "lemma-audit clean": (
        [["lemma-audit", "--eps", "0.1", "--budget", "200000", "--seed", "3", "--out", "w.json"]],
        {
            "w.json": "ad9dd8207d5ac7cf7789900c7812e5cc8fb78ed3ece75b6e0ac70489878db85e",
        },
    ),
    "lemma-audit witnesses": (
        [["lemma-audit", "--a", "0.0586", "--b", "0.005", "--mu", "1.03", "--budget", "70001",
          "--seed", "0", "--out", "w.json"]],
        {
            "w.json": "13217172f663da5501f4fdc337a60c0f53e8ac8aea804c747aab80316a4d61b3",
        },
    ),
    "run --input clipped": (
        [["run", "--input", "seq.csv", "--mu", "0.1", "--out", "in.csv", "--summary", "in.json"]],
        {
            "in.csv": "3d3b0dfa74f2b5f89b8a537fe98393da6d016a2b0039d23a783ee1fd649bcb4d",
            "in.json": "a9fce90b1ce614b46c8415828b12412841fa8ecba0a27c8e4fca5a4bc2501e98",
        },
    ),
    "run --spec custom_file truncated": (
        [["run", "--spec", "file.json", "--mu", "0.1", "--out", "file.csv",
          "--summary", "file.summary.json"]],
        {
            "file.csv": "b16ecbf3a84fddd6d4228efbda4e95d7e6ac9cb002b5d28ee806e778146e346c",
            "file.summary.json": "6276979c4adf7f0363101d4369dce48eddf71e74d7e313c651075a2529d354c9",
        },
    ),
    "run --spec square_wave": (
        [["run", "--spec", "sq.json", "--mu", "0.3", "--out", "sq.csv",
          "--summary", "sq.summary.json"]],
        {
            "sq.csv": "f972dcc622e91b50c5eb55e6ca4edb3763d8b4ca9c84100f08b873fefecfaa48",
            "sq.summary.json": "84b4137880b546ede82b465f28e03410aac84ac4dd1a6034363b14e7daa39927",
        },
    ),
    "run --spec piecewise_switch": (
        [["run", "--spec", "sw.json", "--mu", "0.2", "--mode", "monitor", "--out", "sw.csv",
          "--summary", "sw.summary.json"]],
        {
            "sw.csv": "e2e82671f458a5fd3c1912dde924980a540bfcc8fdb409e4e5cd07ef0fbaebd3",
            "sw.summary.json": "8a5d414b8d6249e9185588727ba2c2076a18b2b0430327355f5be861ff045a88",
        },
    ),
    "run --input trajectory replay": (
        [
            ["run", "--case", "2", "--n", "300", "--out", "traj.csv", "--summary", "traj.json"],
            ["run", "--input", "traj.csv", "--mu", "0.1", "--out", "replay.csv",
             "--summary", "replay.json"],
        ],
        {
            "replay.csv": "7a4457ec3b490650a44112b7b7c9898af99da6858936c0e861390808f5147806",
            "replay.json": "22ef40193173b4e5ca557ae670a40f756cc9f8de9908ad830c3f7368fea516f7",
        },
    ),
    # one step: circles instead of polylines, and an x range widened by 0.5 each way
    "plot one step": (
        [
            ["run", "--case", "1", "--n", "1", "--out", "one.csv", "--summary", "one.json"],
            ["plot", "--input", "one.csv", "--out", "one.svg"],
        ],
        {
            "one.svg": "9a852151457b150b93d61864113997a4a71212b43477285fe81445a24b45f4c8",
        },
    ),
    "plot underscore cell": ([["plot", "--input", "u.csv", "--out", "u.svg"]], {}),
    "plot 75e-2 cell": (
        [["plot", "--input", "u.csv", "--out", "u.svg"]],
        {
            "u.svg": "535365647acb21ec9688db1eeef4a607043686888b2dba5436014b653cda54cf",
        },
    ),
    "verify": (
        [["verify", "--trials", "5", "--n", "200", "--seed", "3", "--out", "verify_report.json"]],
        {
            "verify_report.json": "06a963c3a0fd2878eae037fadc25bc4a755403291a1fdefa137dcca808541d73",
        },
    ),
    # 130 trials of 300 steps span several blocks of stacked runs, the last
    # one partial and narrow enough to run sequence by sequence
    "verify blocks": (
        [["verify", "--trials", "130", "--n", "300", "--seed", "2", "--out", "blocks.json"]],
        {
            "blocks.json": "b6d3e835877e296e969948b5ef5fe6cadac7db3871b98b3b53b0a1f2269c6b29",
        },
    ),
    # the margins fail here, and every reported worst margin prints all of
    # its digits, so a changed weight bit shows
    "verify override-a": (
        [["verify", "--trials", "30", "--n", "200", "--seed", "1", "--override-a", "5",
          "--out", "override.json"]],
        {
            "override.json": "edbb5c87254950e5bf5c06c64d0b1e46e5c8d7a7cf47c0457203e8680da5c772",
        },
    ),
    # a rate far above the theorem's leaves 159 steps out of range, so the
    # margins are taken on the masked steps only
    "verify skipped steps": (
        [["verify", "--trials", "40", "--n", "300", "--seed", "4", "--mu", "5",
          "--out", "skipped.json"]],
        {
            "skipped.json": "8cb09cbb9f5fbf65170c7595553a96c79c5ac7410229586912d5f685b8c0fb69",
        },
    ),
}

# commands that exit non-zero: witnesses or failures found (1) or an input refused (2)
EXIT_CODES = {"lemma-audit witnesses": 1, "verify override-a": 1, "plot underscore cell": 2}
# the standard error of a refused input, which writes no file
REFUSALS = {
    "plot underscore cell": "error: u.csv: row 14: non-numeric value '7_5e-2' in column norm_regret\n",
}


@pytest.mark.parametrize("label", sorted(GOLDEN))
def test_outputs_byte_identical(label, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name, text in FILES.get(label, {}).items():
        (tmp_path / name).write_text(text)
    commands, hashes = GOLDEN[label]
    for argv in commands:
        assert cli.main(argv) == EXIT_CODES.get(label, 0), argv
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in hashes}
    assert got == hashes
    if label in REFUSALS:
        assert capsys.readouterr().err == REFUSALS[label]
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(FILES[label])


# the (3, n) column bytes of each synthetic kind, signs of zero included
GENERATED = {
    "case1": (
        SequenceSpec("case1", n=1001),
        "7292ecd9c81f76eec75f78fc79ca0190af6830d0375bd8b74df2ca7f13dc7a1f",
    ),
    "case2": (
        SequenceSpec("case2", n=1000, y_bound=0.6),
        "3914577c6aec50e897375b00a90dfe94923e2356768eba624243914bcf021624",
    ),
    "constant -0.0": (
        SequenceSpec("constant", n=10, amplitude=-0.0),
        "6af8f4c52c92c544b3e322b37f98e9a343f67878b083d893375ed4f0586e6f4a",
    ),
    "alternating": (
        SequenceSpec("alternating", n=101, amplitude=-0.3),
        "4d1f3e652011827f1c16ededc9e8530a173e9abbd4bd03722c0526dd4f5dbc29",
    ),
    "alternating -0.0": (
        SequenceSpec("alternating", n=11, amplitude=-0.0),
        "acb94aea350ade1cd747caa0986e3ad6bedc890e31b7ba41c2fe4b29bd3aa9c4",
    ),
    "square_wave odd period": (
        SequenceSpec("square_wave", n=100, period=7, amplitude=0.3),
        "c21ffa0c5ee847141daca498dfda5515b1401405f90540e416905dff4db463aa",
    ),
    "square_wave -0.0": (
        SequenceSpec("square_wave", n=9, period=2, amplitude=-0.0),
        "37030a0f00a93ffe0cd317cbccbec63fae6e89d8e40292a7f5790a9eb57a5d97",
    ),
    "piecewise_switch": (
        SequenceSpec("piecewise_switch", n=100, switch_at=37, amplitude=-0.4),
        "3e17d238db937eb07342cc7a66b6c845332bf0af4354774d6f7411e793596e96",
    ),
    "piecewise_switch at n": (
        SequenceSpec("piecewise_switch", n=51, switch_at=51),
        "f830d2f0a07263ad5dc5f08da15bd1676b0eff3cb17d73e3a466fe3a28a93f5a",
    ),
}


@pytest.mark.parametrize("label", sorted(GENERATED))
def test_generated_columns_byte_identical(label):
    spec, digest = GENERATED[label]
    assert hashlib.sha256(sample_columns(generate(spec)).tobytes()).hexdigest() == digest
