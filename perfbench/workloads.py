"""The benchmark's workloads: instances made from the seed in set-up,
the build step (the pipeline call, self-verification included) and the
emit step (serialize + json.dumps, in the shape the CLI prints).

Each workload runs a fixed list of cells, and each cell a fixed number
of instances, so every run sees the same mix; only the instances in a
cell change with the seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from checker import up_bound


def sub_seed(workload: str, seed: int, cell: str, index: int, attempt: int) -> int:
    # str seeds hash through sha512, independent of PYTHONHASHSEED
    return random.Random(f"{workload}|{seed}|{cell}|{index}|{attempt}").getrandbits(63)


def dumps(payload: dict) -> str:
    return json.dumps(payload, separators=(",", ":"))


# ---------------------------------------------------------------------------
# up: factor a based instance into few matrix commutators
# ---------------------------------------------------------------------------


@dataclass
class UpInstance:
    cell: str
    mode: str
    n: int
    c: int
    alg: object
    element: object  # the instance element, in GL(n, D)
    based: object  # the BasedInstance handed to the pipeline
    expected: object = None  # the checker's value of the element


class Up:
    name = "up"
    # (mode, n, c, instances per run).  Costs differ by 20-40% between
    # instances of one cell, so a run holds many instances of cells of
    # about the same cost (n=6, c=6, both modes), which keeps the median
    # and the tail steady from seed to seed, and few of the others.
    # Stable padding makes n'=6 (c=4) and n'=7 (c=5).  e mode at n=8
    # (3-13 s an instance) and c=3n at n=8 do not fit a run.
    cells = (
        ("gl", 6, 6, 52), ("e", 6, 6, 52),
        ("e", 4, 12, 13), ("stable", 3, 4, 16), ("stable", 3, 5, 4), ("gl", 8, 8, 1),
    )

    def generate(self, lib, seed: int) -> list[UpInstance]:
        out = []
        for mode, n, c, count in self.cells:
            cell = f"{mode} n={n} c={c}"
            for j in range(count):
                for attempt in range(100):
                    element, based = lib.certify.make_instance(
                        sub_seed(self.name, seed, cell, j, attempt), n, c
                    )
                    if not based.delta.is_one() and not lib.matrix.is_central_in_E(based.core()):
                        break
                out.append(UpInstance(cell, mode, n, c, based.alg, element, based))
        return out

    def build(self, lib, inst: UpInstance):
        if inst.mode == "gl":
            return lib.certify.factor_commutators_gl(inst.based)
        if inst.mode == "e":
            return lib.certify.factor_commutators_e(inst.based)
        _n2, p, q = lib.certify.stable_single_commutator(inst.based)
        return lib.wordcalc.CommutatorCert(((p, q),), lib.wordcalc.comm(p, q))

    def emit(self, lib, inst: UpInstance, cert) -> str:
        ser = lib.serialize
        return dumps({
            "algebra": ser.algebra_to_json(inst.alg),
            "mode": inst.mode,
            "certificate": ser.cert_to_json(cert),
            "bound": up_bound(inst.mode, inst.n, inst.c),
            "achieved": len(cert),
        })


# ---------------------------------------------------------------------------
# down: factor a diagonal instance upward, then extract a D* certificate
# ---------------------------------------------------------------------------


@dataclass
class DownInstance:
    cell: str
    n: int
    c: int
    alg: object
    delta: object  # the certified element of D*
    based: object
    expected: object = None  # the checker's value of delta


class Down:
    name = "down"
    # (n, d, c, instances per run).  The cost of a round trip moves by
    # about 40% from one instance to the next, so a run is mostly n=3,
    # d=2 round trips (71 = s(kappa^2) pairs, 1k-2k-bit heights).  n=4
    # runs with c=5, not c=n*d=8: it still needs d=2 matrix pairs and
    # reaches 4k-7k-bit heights, at a tenth of the cost.
    cells = ((3, 2, 6, 56), (4, 2, 5, 5))

    def generate(self, lib, seed: int) -> list[DownInstance]:
        q, wc = lib.quaternion, lib.wordcalc
        alg = q.QuaternionAlgebra()
        ident = lambda n: lib.matrix.MatD.identity(alg, n)  # noqa: E731
        out = []
        for n, d, c, count in self.cells:
            cell = f"n={n} d={d} c={c}"
            for j in range(count):
                for attempt in range(100):
                    rng = random.Random(sub_seed(self.name, seed, cell, j, attempt))
                    pairs = tuple(
                        (q.random_quat(alg, rng, span=1, nonzero=True),
                         q.random_quat(alg, rng, span=1, nonzero=True))
                        for _ in range(c)
                    )
                    delta = alg.one
                    for a, b in pairs:
                        delta = delta * q.commutator(a, b)
                    if not delta.is_one():
                        break
                based = lib.certify.BasedInstance(
                    alg, n, ident(n), ident(n), delta, wc.CommutatorCert(pairs, delta)
                )
                out.append(DownInstance(cell, n, c, alg, delta, based))
        return out

    def build(self, lib, inst: DownInstance):
        mcert = lib.certify.factor_commutators_gl(inst.based)
        return mcert, lib.certify.lower_extract(list(mcert.pairs), inst.delta)

    def emit(self, lib, inst: DownInstance, result) -> str:
        ser, b = lib.serialize, lib.budget
        mcert, scert = result
        return dumps({
            "algebra": ser.algebra_to_json(inst.alg),
            "matrix_certificate": ser.cert_to_json(mcert),
            "certificate": ser.cert_to_json(scert),
            "bound": b.s_of(b.kappa_p(len(mcert), inst.n)),
            "achieved": len(scert),
        })


# ---------------------------------------------------------------------------
# normal-form: commutator normal form of random pairs, HUVU of the product
# ---------------------------------------------------------------------------


@dataclass
class NormalFormInstance:
    cell: str
    n: int
    alg: object
    pairs: tuple  # p pairs (x, y) in GL(n, D)
    element: object  # product of the commutators [x, y]
    expected: object = None  # the checker's value of the element


class NormalForm:
    name = "normal-form"
    # (n, p, instances per run), three cells of about the same cost so
    # that the median and the tail stay steady from seed to seed.  n=8
    # is left out: its cost varies by 50-90% between instances, and about
    # one instance in 25 emits an integer over Python's 4300-digit str()
    # limit, which serialize does not handle.
    cells = ((5, 3, 44), (6, 2, 44), (5, 4, 26))

    def generate(self, lib, seed: int) -> list[NormalFormInstance]:
        alg = lib.quaternion.QuaternionAlgebra()
        rand = lambda n, rng: lib.matrix.random_invertible(  # noqa: E731
            alg, n, rng, lib.quaternion.random_quat
        )
        out = []
        for n, p, count in self.cells:
            cell = f"n={n} p={p}"
            for j in range(count):
                rng = random.Random(sub_seed(self.name, seed, cell, j, 0))
                pairs = tuple((rand(n, rng), rand(n, rng)) for _ in range(p))
                element = lib.matrix.MatD.identity(alg, n)
                for x, y in pairs:
                    element = element * x * y * x.inverse() * y.inverse()
                out.append(NormalFormInstance(cell, n, alg, pairs, element))
        return out

    def build(self, lib, inst: NormalFormInstance):
        form = lib.normalform.commutator_normal_form(list(inst.pairs))
        head, dec = lib.normalform.decompose_huvu(inst.element)
        return form, head, dec

    def emit(self, lib, inst: NormalFormInstance, result) -> str:
        ser = lib.serialize
        form, head, dec = result
        return dumps({
            "algebra": ser.algebra_to_json(inst.alg),
            "form": ser.uvuform_to_json(form),
            "head": ser.mat_to_json(head),
            "decomposition": ser.uvuform_to_json(dec),
        })


WORKLOADS = {w.name: w for w in (Up(), Down(), NormalForm())}
