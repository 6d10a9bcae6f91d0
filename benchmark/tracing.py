"""Spans around the public entry points of each supercong layer.

The tracer wraps functions at every supercong module attribute that holds
them, which is where a caller resolves the name (a module that did
`from .padic_gamma import rhs_vanhamme` resolves its own attribute).  It
records one span per call (name, layer, start, end, parent, request id),
keeps the spans in memory, and turns them into per-layer self time:
a span's duration minus the part of it its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import defaultdict
from fractions import Fraction
from time import perf_counter

#: layer -> (module, function) entry points.  A few private helpers are
#: listed because the production route reaches the modular truncated sums
#: and the harmonic tables only through them; a name a later version no
#: longer has is skipped.
LAYERS = {
    "cli": [("cli", "main")],
    "exactnum": [
        ("exactnum", name)
        for name in ("check_modulus", "residue_from_rational", "is_odd_prime", "p_valuation")
    ],
    "padic_gamma": [
        ("padic_gamma", name)
        for name in ("gamma_p_int", "gamma_p_rational", "product_bound", "rhs_vanhamme")
    ],
    "supercongruence.truncated_sum": [
        ("supercongruence", name)
        for name in (
            "lhs_vanhamme", "lhs_vanhamme_b", "x_quantity", "y_quantity",
            "z_quantity", "whipple_instance_terms", "_xy_mod", "_x_sum", "_y_sum",
        )
    ],
    "supercongruence.harmonic": [
        ("supercongruence", name)
        for name in ("harmonic", "HarmonicCache.build", "_harmonic_tables_mod")
    ],
    "supercongruence.record": [
        ("supercongruence", name)
        for name in (
            "vanhamme_verify", "vanhamme_b_verify", "lemma1_check", "lemma2_check",
            "prop3_check", "theorem_os_check", "cor5_check", "whipple_instance_check",
            "poch_congruence_checks", "rhs_vanhamme_b", "xyz_quantities",
        )
    ],
    "gaussian_hg.nfn": [("gaussian_hg", "gaussian_nFn_phi")],
    "classical_hg": [
        ("classical_hg", name)
        for name in (
            "pochhammer", "binom_half", "hypergeom_terminating", "whipple_check",
            "central_binom_identity_check",
        )
    ],
    "polyengine.build": [
        ("polyengine", name) for name in ("pochhammer_poly", "p_poly", "q_poly")
    ],
    "polyengine.check": [
        ("polyengine", name)
        for name in ("p_identity_check", "coefficient_facts_check", "lemma_sum_checks", "exp_sum_check")
    ],
}

#: spans of this layer hold the tracer's own bookkeeping; they cover their
#: parent like a child does but belong to no layer
BOOKKEEPING = "_tracer"

NAME, LAYER, START, END, PARENT, REQUEST = range(6)


class Tracer:
    """In-memory span recorder plus the counters measured at the same
    boundaries."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.request = None
        self.product_len = 0
        self.max_coeff_bits = 0
        self.table_builds = 0

    def wrap(self, fn, name: str, layer: str, after=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, layer, start, end, parent, self.request)
            if after is not None:
                after(args, kwargs, result)
                spans.append((name, BOOKKEEPING, end, perf_counter(), parent, self.request))
            return result

        return traced

    # counters ---------------------------------------------------------------

    def _count_product(self, gamma, orig_bound):
        signature = inspect.signature(gamma)

        def after(args, kwargs, _result):
            bound = signature.bind(*args, **kwargs)
            self.product_len += orig_bound(*bound.args)

        return after

    def _count_bits(self, _args, _kwargs, poly):
        coeffs = getattr(poly, "coeffs", ())
        bits = max((abs(Fraction(c).numerator).bit_length() for c in coeffs), default=0)
        self.max_coeff_bits = max(self.max_coeff_bits, bits)

    def install(self) -> None:
        """Wrap every listed entry point at every supercong module attribute
        that refers to it."""
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "supercong"]
        pg = sys.modules["supercong.padic_gamma"]
        after = {"pochhammer_poly": self._count_bits, "p_poly": self._count_bits, "q_poly": self._count_bits}
        if hasattr(pg, "gamma_p_rational") and hasattr(pg, "product_bound"):
            after["gamma_p_rational"] = self._count_product(pg.gamma_p_rational, pg.product_bound)
        for layer, entries in LAYERS.items():
            for mod_name, name in entries:
                home = sys.modules.get(f"supercong.{mod_name}")
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(home, cls_name, None)
                    if cls is not None and meth in vars(cls):
                        fn = getattr(cls, meth).__func__
                        setattr(cls, meth, classmethod(self.wrap(fn, name, layer)))
                    continue
                orig = getattr(home, name, None)
                if orig is None:
                    continue
                wrapped = self.wrap(orig, name, layer, after.get(name))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapped)
        table_cls = getattr(sys.modules["supercong.gaussian_hg"], "CharacterTable", None)
        if table_cls is not None:
            init = table_cls.__init__

            @functools.wraps(init)
            def counted_init(table, *args, **kwargs):
                self.table_builds += 1
                init(table, *args, **kwargs)

            table_cls.__init__ = counted_init

    def summary(self) -> dict:
        """Per-layer self time and call counts, plus the counters."""
        out = layer_totals(self.spans)
        out["padic_gamma.product_len"] = self.product_len
        out["polyengine.max_coeff_bits"] = self.max_coeff_bits
        out["gaussian_hg.table.builds"] = self.table_builds
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(("name", "layer", "start", "end", "parent", "request"), span))) + "\n")


def self_times(spans: list) -> list:
    """Duration of each span minus the union of its direct children's
    intervals, clipped to the span."""
    children = defaultdict(list)
    for span in spans:
        if span[PARENT] is not None:
            children[span[PARENT]].append((span[START], span[END]))
    out = []
    for idx, span in enumerate(spans):
        lo, hi = span[START], span[END]
        covered = 0.0
        reach = lo
        for start, end in sorted(children.get(idx, ())):
            start, end = max(start, reach), min(end, hi)
            if end > start:
                covered += end - start
                reach = end
        out.append(hi - lo - covered)
    return out


def layer_totals(spans: list) -> dict:
    """`<layer>.self_s` and `<layer>.calls` for every layer in LAYERS."""
    totals = {layer: [0.0, 0] for layer in LAYERS}
    for span, own in zip(spans, self_times(spans)):
        if span[LAYER] in totals:
            totals[span[LAYER]][0] += own
            totals[span[LAYER]][1] += 1
    out = {}
    for layer, (seconds, calls) in totals.items():
        out[f"{layer}.self_s"] = seconds
        out[f"{layer}.calls"] = calls
    return out
