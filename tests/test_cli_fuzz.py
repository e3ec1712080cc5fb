"""Decoder fuzz of the CLI: one structural mutation of a valid input.

Each example takes a valid `factor`, `certify-lower` or
`selftest --verify` input and makes one change to its JSON tree: it
drops a key (or an array element), gives a value another JSON type,
truncates an array, or nests a value deeply.  The CLI must answer with
one of its documented exit codes, 0, 2 or 3, and raise nothing.
"""

import contextlib
import copy
import io
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commcert import MatD, QuaternionAlgebra, factor_commutators_gl, make_instance
from commcert.quaternion import comm
from commcert import serialize as ser
from commcert.cli import main

from conftest import rand_unit

# one representative of each JSON type; a retyped value takes one whose
# type differs from its own
OTHER_TYPES = (None, True, 7, 1.5, "7", [], {})
DEEP = "\x00deep"  # stands for a deeply nested array until the text is written


def _inputs():
    alg = QuaternionAlgebra()
    _, inst = make_instance(2, 3, 2, alg)
    cert = factor_commutators_gl(inst)
    rng = random.Random(0)
    a, b = rand_unit(alg, rng), rand_unit(alg, rng)
    one = alg.one
    x, y = MatD.diagonal(alg, [one, one, a]), MatD.diagonal(alg, [one, one, b])
    return {
        "factor": ser.instance_to_json(inst),
        "certify-lower": {
            "algebra": ser.algebra_to_json(alg),
            "pairs": [[ser.mat_to_json(x), ser.mat_to_json(y)]],
            "tau": ser.quat_to_json(comm(a, b)),
        },
        "verify": {
            "algebra": ser.algebra_to_json(alg),
            "certificate": ser.cert_to_json(cert),
            "bound": 1,
        },
    }


INPUTS = _inputs()


def _paths(node, path=()):
    """Every path below the root, as tuples of keys and indices."""
    if path:
        yield path
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from _paths(child, path + (key,))


@st.composite
def mutations(draw, doc):
    """The JSON text of doc after one structural mutation."""
    doc = copy.deepcopy(doc)
    paths = list(_paths(doc))
    kind = draw(st.sampled_from(("drop", "retype", "truncate", "nest")))
    if kind == "truncate":
        paths = [p for p in paths if _at(doc, p) and isinstance(_at(doc, p), list)]
    path = draw(st.sampled_from(paths))
    *head, last = path
    parent = _at(doc, head)
    if kind == "drop":
        del parent[last]
    elif kind == "retype":
        old = parent[last]
        parent[last] = draw(st.sampled_from([v for v in OTHER_TYPES if type(v) is not type(old)]))
    elif kind == "truncate":
        parent[last] = parent[last][:draw(st.integers(0, len(parent[last]) - 1))]
    else:
        parent[last] = DEEP
        depth = draw(st.sampled_from((30, 100_000)))
        return json.dumps(doc).replace(json.dumps(DEEP), "[" * depth + "]" * depth)
    return json.dumps(doc)


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


ARGV = {
    "factor": ("factor", "{path}", "--mode", "gl"),
    "certify-lower": ("certify-lower", "{path}"),
    "verify": ("selftest", "--verify", "{path}"),
}


@pytest.fixture(scope="module")
def input_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.json"


@pytest.mark.parametrize("command", list(INPUTS))
def test_unmutated_inputs_are_valid(command, input_path):
    input_path.write_text(json.dumps(INPUTS[command]))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([a.format(path=input_path) for a in ARGV[command]]) == 0


@pytest.mark.parametrize("command", list(INPUTS))
def test_one_mutation_exits_with_a_documented_code(command, input_path):
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(mutations(INPUTS[command]))
    def check(text):
        input_path.write_text(text)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            rc = main([a.format(path=input_path) for a in ARGV[command]])
        assert rc in (0, 2, 3)

    check()
