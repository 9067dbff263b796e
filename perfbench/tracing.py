"""Timing wrappers around posring's public functions, with in-memory spans.

A Tracer replaces every binding of a traced function inside the loaded
``posring`` modules, so a name bound with ``from ... import`` (nxsolve's
``gcd_many``, wreath's ``decide``) is wrapped as well as the defining
module's attribute.  Kernels are wrapped only where callers reach them,
as ``posring.kernels`` attributes; calls inside the kernel implementation
module stay untraced.

Each call records one span: name, start, end, parent span and the
instance id set by the caller.  Spans live in flat arrays until
``write_spans`` puts them on disk; ``aggregate`` turns them into calls,
inclusive seconds and self seconds per name.
"""

import sys
from array import array
from collections import OrderedDict
from time import perf_counter

KERNELS = ("mul", "shift1", "gcd_mod", "gcd", "eval_scaled", "signed_prs", "exact_div")

# (defining module, function) in the order the metrics are printed
TARGETS = (
    [("kernels", fn) for fn in KERNELS]
    + [("polyring", "gcd_many"), ("polyring", "laurent_normalize")]
    + [("realdec", "isolate_nonneg_roots"), ("realdec", "uniform_sign_exists")]
    + [("nxsolve", fn) for fn in ("decide", "normalize", "find_witness",
                                  "rational_feasibility", "verify_certificate",
                                  "verify_witness")]
    + [("wreath", fn) for fn in ("is_group", "identity_witness_word",
                                 "synthesize_identity_word", "word_product")]
    + [("cli", "parse_input"), ("cli", "emit_output")]
)

# modules whose own bindings are implementation detail, not call sites
_SKIP_MODULES = ("posring._kernels_py", "posring._kernels")

COUNTERS = (
    "kernels.max_coeff_bits",
    "realdec.isolate_nonneg_roots.roots",
    "nxsolve.normalize.early",
    "nxsolve.find_witness.found",
    "wreath.decide.calls",
    "wreath.decide.hits",
    "wreath.word_letters",
)


def _list_bits(args, acc):
    for a in args:
        if type(a) is list and a:
            b = max(max(a), -min(a)).bit_length()
            if b > acc:
                acc = b
    return acc


def _kernel(c, args, res):
    c["kernels.max_coeff_bits"] = _list_bits(args, c["kernels.max_coeff_bits"])


def _roots(c, args, res):
    c["realdec.isolate_nonneg_roots.roots"] += len(res)


def _early(c, args, res):
    c["nxsolve.normalize.early"] += type(res).__name__ == "EarlyUnsolvable"


def _found(c, args, res):
    c["nxsolve.find_witness.found"] += res is not None


def _letters(c, args, res):
    c["wreath.word_letters"] += len(res)


def _covers(c, args, res):
    # wreath's own binding of nxsolve.decide: one call per cover tried
    c["wreath.decide.calls"] += 1
    c["wreath.decide.hits"] += res.status == "Solvable"


# observers (counters, args, result) -> None, keyed by the traced function
_HOOKS = dict.fromkeys((("kernels", fn) for fn in KERNELS), _kernel)
_HOOKS.update({
    ("realdec", "isolate_nonneg_roots"): _roots,
    ("nxsolve", "normalize"): _early,
    ("nxsolve", "find_witness"): _found,
    ("wreath", "synthesize_identity_word"): _letters,
})
# extra observers keyed by the binding (module, attribute) the caller uses
_BINDING_HOOKS = {("posring.wreath", "decide"): _covers}


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.inst = array("i")
        self.instance = -1
        self.counters = OrderedDict((k, 0) for k in COUNTERS)
        self._stack = []
        self._patches = []

    def name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def add_span(self, name, start, end, parent=-1, instance=-1):
        """Append a finished span; returns its index (used by tests)."""
        idx = len(self.start)
        self.name.append(self.name_id(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.inst.append(instance)
        return idx

    def _wrap(self, fn, span_name, hooks):
        nid = self.name_id(span_name)
        stack = self._stack
        name, start, end, parent, inst = self.name, self.start, self.end, self.parent, self.inst
        counters = self.counters

        def traced(*args, **kwargs):
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            inst.append(self.instance)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                res = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            for hook in hooks:
                hook(counters, args, res)
            return res

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", span_name)
        return traced

    def install(self):
        """Wrap every binding of each target inside the loaded posring modules."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [(n, m) for n, m in list(sys.modules.items())
                   if m is not None and (n == "posring" or n.startswith("posring."))
                   and n not in _SKIP_MODULES]
        for mod, fn in TARGETS:
            orig = getattr(sys.modules["posring." + mod], fn)
            span = "%s.%s" % (mod, fn)
            base = [_HOOKS[(mod, fn)]] if (mod, fn) in _HOOKS else []
            for mname, m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        extra = _BINDING_HOOKS.get((mname, attr))
                        wrapper = self._wrap(orig, span, base + ([extra] if extra else []))
                        self._patches.append((m, attr, orig))
                        setattr(m, attr, wrapper)
        return self

    def uninstall(self):
        """Put back every original binding, last patch first."""
        while self._patches:
            m, attr, orig = self._patches.pop()
            setattr(m, attr, orig)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def aggregate(self):
        """{span name: [calls, inclusive seconds, self seconds]}.

        Self time is a span's duration minus the part of it that its
        child spans cover.  Spans are recorded in start order, so each
        parent's children arrive sorted and one sweep merges overlaps.
        """
        n = len(self.start)
        covered = [0.0] * n
        reach = [0.0] * n  # latest child end seen per parent
        out = {}
        start, end, parent = self.start, self.end, self.parent
        for j in range(n):
            p = parent[j]
            if p < 0:
                continue
            lo = max(start[j], start[p], reach[p])
            hi = min(end[j], end[p])
            if hi > lo:
                covered[p] += hi - lo
            if end[j] > reach[p]:
                reach[p] = end[j]
        for j in range(n):
            dur = end[j] - start[j]
            row = out.setdefault(self.names[self.name[j]], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += dur
            row[2] += dur - covered[j]
        return out

    def write_spans(self, path):
        """Tab-separated spans: id, name, start, end, parent, instance."""
        names = self.names
        with open(path, "w") as fh:
            fh.write("id\tname\tstart\tend\tparent\tinstance\n")
            for j in range(len(self.start)):
                fh.write("%d\t%s\t%.9f\t%.9f\t%d\t%d\n" % (
                    j, names[self.name[j]], self.start[j], self.end[j],
                    self.parent[j], self.inst[j]))
