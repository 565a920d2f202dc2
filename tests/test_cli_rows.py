"""The CLI's JSON rows, byte for byte.

Each case runs one `repgen` command and compares its whole stdout with the
exact lines below: sorted keys, fixed separators, fractions as "p/q"
strings, distributions as [element, "p/q"] pairs, and unset report fields
left out.  Together they cover every report kind of every adversary
family, both adversary summaries, the `feasible` rows (tuple and block
cells) and the `gc-dim` row with and without a witness.
"""

from pathlib import Path

import pytest

from repgen.cli import main

ROOT = Path(__file__).resolve().parent.parent
S = "tests/scenarios/"

CASES = [
    # gc-witness, unrepresentative (a zero pi_hat still prints)
    (f"adversary gc-witness {S}u07-pairs-half.json --generator uniform-low",
     ['{"alpha":"1/2","distance":"4/7","group":3,"kind":"unrepresentative",'
      '"mu":[[7,"1/1"]],"pi_hat":"3/7","step":7}']),
    (f"adversary gc-witness {S}u05-singletons-twothirds.json "
     "--generator uniform-low",
     ['{"alpha":"2/3","distance":"1/1","group":3,"kind":"unrepresentative",'
      '"mu":[[2,"1/1"]],"pi_hat":"0/1","step":2}']),
    # gc-witness, inconsistent
    (f"adversary gc-witness {S}u05-singletons-twothirds.json "
     "--generator empirical",
     ['{"alpha":"2/3","continuation":[2,3,4],"element":0,'
      '"hypothesis":"everything","kind":"inconsistent",'
      '"mu":[[0,"1/2"],[1,"1/2"]],"reason":"already-seen","step":2}']),
    # query rows of each kind, and the query summary
    ("adversary query --generator query-then-emit --steps 2",
     ['{"distance":"1/1","group":1,"kind":"unrepresentative",'
      '"mu":[[1,"1/1"]],"pi_hat":"1/1","step":1}',
      '{"distance":"1/2","group":1,"kind":"unrepresentative",'
      '"mu":[[2,"1/1"]],"pi_hat":"1/2","step":2}',
      '{"final_group_one_fraction":"1/2","kind":"summary","reports":2}']),
    ("adversary query --generator constant --element 0 --steps 1",
     ['{"element":0,"kind":"inconsistent","mu":[[0,"1/1"]],'
      '"reason":"already-seen","step":1}',
      '{"final_group_one_fraction":"1/1","kind":"summary","reports":1}']),
    ("adversary query --generator constant --element 7 --steps 1",
     ['{"element":7,"kind":"inconsistent","mu":[[7,"1/1"]],'
      '"reason":"out-of-support","step":1}',
      '{"final_group_one_fraction":"1/1","kind":"summary","reports":1}']),
    ("adversary query --generator greedy --steps 1 --budget 5",
     ['{"kind":"query_budget_exceeded","step":1}',
      '{"final_group_one_fraction":"1/1","kind":"summary","reports":1}']),
    # geometric rows of both kinds, each with its checkpoint, and the
    # geometric summary
    ("adversary geometric --generator constant --element 3 --depth 2",
     ['{"alpha":"1/2","checkpoint":1,"distance":"1/1","group":1,'
      '"kind":"unrepresentative","mu":[[3,"1/1"]],"pi_hat":"1/1","step":2}',
      '{"alpha":"1/2","checkpoint":2,"element":3,"kind":"inconsistent",'
      '"mu":[[3,"1/1"]],"pi_hat":"2/3","reason":"already-seen","step":6}',
      '{"checkpoints":2,"kind":"summary","reports":2}']),
    # feasible: a cell vector, block cells, and the infeasible row
    (f"feasible {S}u01-zero-rest-half.json --prefix 0,1,1",
     ['{"feasible":true,"hypothesis":"everything",'
      '"witness":[{"cell":[0,1],"element":2,"mass":"1/1"}]}']),
    (f"feasible {S}b01-evens-blocks-inlimit.json --prefix 0,2",
     ['{"feasible":true,"hypothesis":"evens","witness":['
      '{"cell":2,"element":4,"mass":"1/2"},'
      '{"cell":3,"element":6,"mass":"1/2"}]}']),
    (f"feasible {S}i01-nested3-overlap.json --prefix 0,1,2",
     ['{"feasible":false,"hypothesis":"mult4"}']),
    # gc-dim with a witness and condition, and at d = 0
    (f"gc-dim {S}u05-singletons-twothirds.json",
     ['{"condition":"Condition2(exhausted=(1, 2), spare_groups=1)","d":2,'
      '"status":"exact","witness":[0,1]}']),
    (f"gc-dim {S}u04-evens-parity-quarter.json",
     ['{"condition":null,"d":0,"status":"exact","witness":null}']),
]


@pytest.mark.parametrize("command,lines", CASES,
                         ids=[command for command, _ in CASES])
def test_cli_rows_are_byte_stable(command, lines, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert main(command.split()) == 0
    assert capsys.readouterr().out == "".join(line + "\n" for line in lines)


@pytest.mark.parametrize("family,default", [
    (["query", "--steps", "5"], "query-then-emit"),
    (["geometric", "--depth", "2"], "empirical"),
    (["gc-witness", f"{S}u05-singletons-twothirds.json"], "empirical"),
])
def test_adversary_plays_its_familys_default_baseline(family, default,
                                                       capsys, monkeypatch):
    """Without `--generator` each adversary family plays its own default,
    byte for byte as when that baseline is named."""
    monkeypatch.chdir(ROOT)
    assert main(["adversary", *family]) == 0
    implicit = capsys.readouterr()
    assert main(["adversary", *family, "--generator", default]) == 0
    assert capsys.readouterr() == implicit
    assert implicit.err == ""
