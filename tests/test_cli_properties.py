"""The command line's contract on the dimension path, as a property: a
scenario mutated from a bundled uniform or non-uniform one (a support or a
group swapped for a random `ap:` set, a group or hypothesis added or
dropped, alpha changed, out of range or decimal included) runs through
`gc-dim` and `adversary gc-witness` in-process, exits 0 or 3 with no
traceback on stderr, and takes well under the caps' seconds."""

import copy
import glob
import io
import json
import os
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout, suppress

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from repgen.cli import main
from repgen.periodic import format_set, parse_set

SCENARIO_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "scenarios")


def _load(path):
    with open(path, encoding="utf-8") as fp:
        return json.load(fp)


BASES = [_load(path) for pattern in ("u*.json", "n01*.json")
         for path in sorted(glob.glob(os.path.join(SCENARIO_DIR, pattern)))]
# A hang, not a cost: in a 20,000-document sweep of this strategy no call
# took a second.
CALL_BOUND_S = 5


@st.composite
def ap_sets(draw, tame=False):
    """`ap:T,m,{residues},{prefix}`, most often infinite and within range,
    now and then (never when tame) with a residue past the modulus or a
    prefix element past the threshold."""
    t = draw(st.integers(0, 6))
    m = draw(st.integers(1, 6))
    wild = not tame and draw(st.integers(0, 4)) == 0
    residues = draw(st.sets(st.integers(0, 7 if wild else m - 1),
                            min_size=0 if wild else 1))
    prefix = draw(st.sets(st.integers(0, 7 if wild else t - 1))) \
        if wild or t else set()
    return "ap:%d,%d,{%s},{%s}" % (t, m, ",".join(map(str, sorted(residues))),
                                   ",".join(map(str, sorted(prefix))))


alphas = st.one_of(
    st.builds("{}/{}".format, st.integers(0, 6), st.integers(1, 6)),
    st.sampled_from(["0", "1", "-1/2", "3/2", "0.5", "1/0", "a"]),
    st.decimals(0, 1, places=2).map(str))

OPS = ["support", "group", "split group", "merge groups", "add group",
       "drop group", "add hypothesis", "drop hypothesis", "alpha"]


@st.composite
def mutated_documents(draw):
    """A bundled uniform or non-uniform scenario with one to three
    mutations: a support or a group swapped for a random `ap:` set, a group
    split by one or two merged (the partition kept), a group or hypothesis
    added or dropped, or alpha changed."""
    doc = copy.deepcopy(draw(st.sampled_from(BASES)))
    hyps, groups = doc["hypotheses"], doc["groups"]["members"]
    for op in draw(st.lists(st.sampled_from(OPS), min_size=1, max_size=3)):
        i = draw(st.integers(0, max(len(groups) - 1, 0)))
        if op == "support" and hyps:
            hyps[draw(st.integers(0, len(hyps) - 1))]["support"] = \
                draw(ap_sets())
        elif op == "group" and groups:
            groups[i] = draw(ap_sets())
        elif op == "split group" and groups:
            s = parse_set(draw(ap_sets(tame=True)))
            with suppress(ValueError):  # an earlier swap's invalid group
                g = parse_set(groups[i])
                groups[i:i + 1] = [format_set(g & s), format_set(g - s)]
        elif op == "merge groups" and len(groups) > 1:
            j = draw(st.integers(0, len(groups) - 2))
            with suppress(ValueError):
                g = parse_set(groups.pop(i))
                groups[j] = format_set(parse_set(groups[j]) | g)
        elif op == "add group":
            groups.append(draw(ap_sets()))
        elif op == "drop group" and groups:
            groups.pop(i)
        elif op == "add hypothesis":
            hid = f"extra{len(hyps)}"
            hyps.append({"id": hid, "support": draw(ap_sets())})
            doc["class"].append(hid)
        elif op == "drop hypothesis" and hyps:
            hid = hyps.pop(draw(st.integers(0, len(hyps) - 1)))["id"]
            doc["class"] = [h for h in doc["class"] if h != hid]
        elif op == "alpha":
            doc["generator"]["alpha"] = draw(alphas)
    return doc


@settings(max_examples=150, deadline=None)
@given(mutated_documents())
def test_dimension_commands_keep_the_exit_contract(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scenario.json")
        with open(path, "w", encoding="utf-8") as fp:
            json.dump(doc, fp)
        for argv in (["gc-dim", path], ["adversary", "gc-witness", path]):
            err = io.StringIO()
            start = time.perf_counter()
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                code = main(argv)
            assert time.perf_counter() - start < CALL_BOUND_S, argv
            assert code in (0, 3), (argv, err.getvalue())
            assert "Traceback" not in err.getvalue(), argv
