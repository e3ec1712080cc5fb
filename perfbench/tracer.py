"""Per-layer tracing from outside the library.

Public functions and methods of each layer are replaced by wrappers
that time and count every call.  A function is rebound in every
commcert module that holds it, so calls through a name imported with
``from .x import f`` hit the wrapper too; methods are replaced on their
class.

Each call is a span with a name, start, end and parent.  A span's self
time is its duration minus the time of the spans it contains.  Spans
stay in memory and are written out at the end, except quaternion
arithmetic: one pass makes millions of those, so they are only counted
and timed.  Work done by observers (bit lengths, kappa sums) is kept
out of every span's self time.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

from checker import kappa_bound


def quat_bits(q) -> int:
    return max(
        abs(q.wn).bit_length(), abs(q.xn).bit_length(), abs(q.yn).bit_length(),
        abs(q.zn).bit_length(), q.den.bit_length(),
    )


def is_identity(g) -> bool:
    return g.is_one() if hasattr(g, "is_one") else g.is_identity()


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_ns = defaultdict(int)  # by span name
        self.stack = [[0, -1]]  # frames: [child ns, id of nearest kept span]
        self.spans: list = []
        self.stats = defaultdict(int)  # observer tallies
        self.bytes_out = 0

    # -- spans ---------------------------------------------------------

    def wrap(self, name: str, fn, keep: bool = True, observe=None):
        calls, self_ns = self.calls, self.self_ns
        stack, spans = self.stack, self.spans
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if keep:
                sid = len(spans)
                spans.append(None)
                frame = [0, sid]
            else:
                frame = [0, parent[1]]
            stack.append(frame)
            t0 = clock()
            try:
                try:
                    out = fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    stack.pop()
                    self_ns[name] += t1 - t0 - frame[0]
                    calls[name] += 1
                    if keep:
                        spans[sid] = (name, t0, t1, parent[1])
                if observe is not None:
                    observe(out, args)
                return out
            finally:
                # the parent counts observer time as child time, so no
                # span's self time holds it
                parent[0] += clock() - t0

        return wrapper

    # -- installation --------------------------------------------------

    def install(self, lib) -> None:
        q, m, b, nf, wc, cf = (
            lib.quaternion, lib.matrix, lib.budget, lib.normalform, lib.wordcalc, lib.certify
        )
        stats = self.stats

        def quat_result(out, _args):
            bits = quat_bits(out)
            if bits > stats["quaternion.max_bits"]:
                stats["quaternion.max_bits"] = bits

        def mat_result(out, _args):
            bits = max(quat_bits(x) for row in out.rows for x in row)
            if bits > stats["matrix.max_bits"]:
                stats["matrix.max_bits"] = bits

        def normal_form(out, args):
            pairs = args[0]
            stats["normalform.hfactors"] += len(out.hfactors)
            stats["budget.kappa_spent"] += sum(out.hfactors.kappa())
            stats["budget.kappa_cap"] += sum(kappa_bound(len(pairs), out.n))

        def move(out, _args):
            g, h = out[1]
            if is_identity(g) and is_identity(h):
                stats["wordcalc.trivial_pairs"] += 1

        methods = [
            ("quaternion.mul", q.Quat, "__mul__", False, quat_result),
            ("quaternion.add", q.Quat, "__add__", False, None),
            ("quaternion.eq", q.Quat, "__eq__", False, None),
            ("quaternion.inverse", q.Quat, "inverse", False, quat_result),
            ("matrix.mul", m.MatD, "__mul__", True, mat_result),
            ("matrix.conj_diag", m.MatD, "conjugate_by_diagonal", True, None),
            ("wordcalc.check", wc.CommutatorCert, "verify", True, None),
            ("wordcalc.conjugated", wc.CommutatorCert, "conjugated", True, None),
        ]
        # MatD.inverse calls the module-level mat_inv, so wrapping that
        # function covers both without nesting two spans per inversion.
        functions = [
            ("quaternion.solve_twisted", q, "solve_twisted", True, None),
            ("matrix.inv", m, "mat_inv", True, None),
            ("matrix.det", m, "dieudonne_det", True, None),
            ("budget.hcf", b, "h_commutator_factors", True, None),
            ("normalform.cnf", nf, "commutator_normal_form", True, normal_form),
            ("normalform.absorb", nf, "absorb_lower_transvection", True, None),
            ("normalform.absorb", nf, "absorb_V", True, None),
            ("normalform.absorb", nf, "absorb_upper", True, None),
            ("normalform.decompose", nf, "decompose_huvu", True, None),
            ("normalform.lower_factor", nf, "factor_lower_unitriangular", True, None),
            ("wordcalc.move", wc, "move_letter_front", True, move),
            ("wordcalc.move", wc, "move_letter_end", True, move),
            ("wordcalc.transfer", wc, "transfer_cert", True, None),
            ("wordcalc.inverse_product", wc, "cert_inverse_product", True, None),
            ("certify.gauss", cf, "prescribed_gauss", True, None),
            ("certify.gauss", cf, "prescribed_gauss_base", True, None),
            ("certify.single_comm", cf, "single_commutator", True, None),
            ("certify.factor", cf, "factor_commutators_gl", True, None),
            ("certify.factor", cf, "factor_commutators_e", True, None),
            ("certify.factor", cf, "stable_single_commutator", True, None),
            ("certify.embed", cf, "embed_instance", True, None),
            ("certify.scalar_extract", cf, "scalar_cert_from_hfactors", True, None),
            ("certify.lower_extract", cf, "lower_extract", True, None),
        ]
        for name, cls, attr, keep, observe in methods:
            setattr(cls, attr, self.wrap(name, getattr(cls, attr), keep, observe))
        modules = [mod for key, mod in sys.modules.items() if key.split(".")[0] == "commcert"]
        for name, owner, attr, keep, observe in functions:
            orig = getattr(owner, attr)
            wrapped = self.wrap(name, orig, keep, observe)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapped)

    # -- results -------------------------------------------------------

    def layer_self_s(self, layer: str) -> float:
        return sum(ns for name, ns in self.self_ns.items() if name.split(".", 1)[0] == layer) / 1e9

    def metrics(self, overhead_ratio: float) -> dict[str, tuple[float, str]]:
        c, st = self.calls, self.stats
        s = lambda name: self.self_ns[name] / 1e9  # noqa: E731
        moves = c["wordcalc.move"]
        out = {
            "quaternion.mul_calls": (c["quaternion.mul"], "count"),
            "quaternion.add_calls": (c["quaternion.add"], "count"),
            "quaternion.eq_calls": (c["quaternion.eq"], "count"),
            "quaternion.inverse_calls": (c["quaternion.inverse"], "count"),
            "quaternion.solve_twisted_calls": (c["quaternion.solve_twisted"], "count"),
            "quaternion.max_bits": (st["quaternion.max_bits"], "bits"),
            "matrix.mul_calls": (c["matrix.mul"], "count"),
            "matrix.mul_s": (s("matrix.mul"), "s"),
            "matrix.inv_calls": (c["matrix.inv"], "count"),
            "matrix.inv_s": (s("matrix.inv"), "s"),
            "matrix.det_calls": (c["matrix.det"], "count"),
            "matrix.det_s": (s("matrix.det"), "s"),
            "matrix.conj_diag_calls": (c["matrix.conj_diag"], "count"),
            "matrix.conj_diag_s": (s("matrix.conj_diag"), "s"),
            "matrix.max_bits": (st["matrix.max_bits"], "bits"),
            "budget.hcf_calls": (c["budget.hcf"], "count"),
            "budget.hcf_s": (s("budget.hcf"), "s"),
            "budget.kappa_fill": (
                st["budget.kappa_spent"] / st["budget.kappa_cap"] if st["budget.kappa_cap"] else 0.0,
                "ratio",
            ),
            "normalform.cnf_s": (s("normalform.cnf"), "s"),
            "normalform.absorb_calls": (c["normalform.absorb"], "count"),
            "normalform.absorb_s": (s("normalform.absorb"), "s"),
            "normalform.decompose_calls": (c["normalform.decompose"], "count"),
            "normalform.decompose_s": (s("normalform.decompose"), "s"),
            "normalform.lower_factor_calls": (c["normalform.lower_factor"], "count"),
            "normalform.lower_factor_s": (s("normalform.lower_factor"), "s"),
            "normalform.hfactors": (st["normalform.hfactors"], "count"),
            "wordcalc.moves": (moves, "count"),
            "wordcalc.move_s": (s("wordcalc.move"), "s"),
            "wordcalc.trivial_pair_ratio": (
                st["wordcalc.trivial_pairs"] / moves if moves else 0.0, "ratio"
            ),
            "wordcalc.transfer_calls": (c["wordcalc.transfer"], "count"),
            "wordcalc.transfer_s": (s("wordcalc.transfer"), "s"),
            "wordcalc.inverse_product_s": (s("wordcalc.inverse_product"), "s"),
            "wordcalc.check_calls": (c["wordcalc.check"], "count"),
            "wordcalc.check_s": (s("wordcalc.check"), "s"),
            "wordcalc.conjugated_s": (s("wordcalc.conjugated"), "s"),
            "certify.gauss_calls": (c["certify.gauss"], "count"),
            "certify.gauss_s": (s("certify.gauss"), "s"),
            "certify.single_comm_calls": (c["certify.single_comm"], "count"),
            "certify.single_comm_s": (s("certify.single_comm"), "s"),
            "certify.factor_s": (s("certify.factor"), "s"),
            "certify.embed_s": (s("certify.embed"), "s"),
            "certify.scalar_extract_s": (s("certify.scalar_extract"), "s"),
            "certify.lower_extract_s": (s("certify.lower_extract"), "s"),
            "serialize.dump_s": (s("serialize.dump"), "s"),
            "serialize.load_s": (s("serialize.load"), "s"),
            "serialize.bytes": (self.bytes_out, "bytes"),
        }
        for layer in ("quaternion", "matrix", "normalform", "wordcalc", "certify"):
            out[f"{layer}.self_s"] = (self.layer_self_s(layer), "s")
        out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
        return out

    def write(self, path) -> None:
        """Spans as [name index, start ns, end ns, parent span index or -1],
        times relative to the first span."""
        names = sorted({sp[0] for sp in self.spans})
        index = {n: i for i, n in enumerate(names)}
        base = self.spans[0][1] if self.spans else 0
        rows = [[index[n], t0 - base, t1 - base, parent] for n, t0, t1, parent in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"names": names, "spans": rows}, fh, separators=(",", ":"))
