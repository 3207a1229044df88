"""Layer spans and scalar-op counters, installed from outside the library.

Nothing under ``src/`` knows about tracing. `install_spans` replaces public
functions and methods of each nilwitness module with wrappers that record a
span per call: (name, start, end, parent span, request). A wrapper goes into
every namespace where the name is looked up at call time: `Matrix` methods
on the class, `special_solutions`/`extend_to_basis`/`witness_script` in the
`nilwitness.witness` module, the command helpers in `nilwitness.cli`. The
package attribute `nilwitness.witness` is the function, which shadows the
submodule, so modules are reached through `importlib.import_module`.

Scalar arithmetic is the innermost layer: wrapping it with spans would
swamp the times of everything above it, so `install_counters` only counts
those calls, in a pass of its own.

Spans stay in memory until `layer_metrics` aggregates them. A span's self
time is its duration minus the durations of its child spans; calls on one
thread nest strictly, so the children never overlap.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict

MODULES = ("fields", "matrix", "kernel", "witness", "textio", "cli")

# Every span name recorded by install_spans, in report order.
SPAN_NAMES = (
    "matrix.rref",
    "matrix.matmul",
    "matrix.matvec",
    "matrix.pow",
    "matrix.inverse",
    "matrix.apply",
    "matrix.new",
    "kernel.special_solutions",
    "kernel.extend_to_basis",
    "witness.witness",
    "witness.build_shift_nilpotent",
    "witness.witness_script",
    "witness.verify",
    "witness.nilpotent_index",
    "witness.row_equivalent",
    "textio.parse_matrix",
    "textio.parse_script",
    "textio.matrix_to_text",
    "textio.script_to_text",
    "cli.main",
)

# Work counts recorded next to the spans.
WORK_COUNTS = (
    "matrix.rref.row_ops",
    "matrix.apply.ops",
    "kernel.vectors",
    "witness.script_ops",
    "textio.bytes_in",
    "textio.bytes_out",
)

SCALAR_COUNTS = (
    "fields.scalar_mul.calls",
    "fields.scalar_add.calls",
    "fields.scalar_inv.calls",
    "fields.scalar_new.calls",
)


def modules():
    return {name: importlib.import_module(f"nilwitness.{name}") for name in MODULES}


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._saved = []

    def set(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def undo(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


class Tracer:
    """In-memory span recorder for one thread."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.request = 0
        self._stack: list[int] = []

    def wrap(self, name, fn, on_result=None):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.request)
            if on_result is not None:
                on_result(counts, args, result)
            return result

        return wrapper


def _text_len(text) -> int:
    return len(text.encode("utf-8"))


def install_spans(tracer: Tracer) -> Patches:
    """Wrap each layer's public entry points; returns the patches to undo."""
    import nilwitness

    mods = modules()
    matrix_cls = mods["matrix"].Matrix
    w, k, t, c = mods["witness"], mods["kernel"], mods["textio"], mods["cli"]
    patches = Patches()

    def method(cls, attr, name, on_result=None):
        patches.set(cls, attr, tracer.wrap(name, getattr(cls, attr), on_result))

    def function(name, attr, owners, on_result=None):
        wrapped = tracer.wrap(name, getattr(owners[0], attr), on_result)
        for owner in owners:
            patches.set(owner, attr, wrapped)

    def add(key, amount):
        def hook(counts, args, result):
            counts[key] += amount(args, result)

        return hook

    method(matrix_cls, "rref", "matrix.rref", add("matrix.rref.row_ops", lambda a, r: len(r.script)))
    method(matrix_cls, "__pow__", "matrix.pow")
    method(matrix_cls, "inverse", "matrix.inverse")
    method(matrix_cls, "__init__", "matrix.new")
    # a single row op may be passed in place of a script
    method(
        matrix_cls,
        "apply",
        "matrix.apply",
        add("matrix.apply.ops", lambda a, r: len(a[1]) if hasattr(a[1], "__len__") else 1),
    )
    plain_matmul = matrix_cls.__matmul__
    matmul = tracer.wrap("matrix.matmul", plain_matmul)
    matvec = tracer.wrap("matrix.matvec", plain_matmul)

    def dispatch(self, other):
        if isinstance(other, matrix_cls) and other.ncols == 1:
            return matvec(self, other)
        return matmul(self, other)

    patches.set(matrix_cls, "__matmul__", dispatch)

    function(
        "kernel.special_solutions",
        "special_solutions",
        [k, w],
        add("kernel.vectors", lambda a, r: len(r.vectors)),
    )
    function("kernel.extend_to_basis", "extend_to_basis", [w])
    function("witness.witness", "witness", [nilwitness, c])
    function("witness.build_shift_nilpotent", "build_shift_nilpotent", [w])
    function(
        "witness.witness_script",
        "witness_script",
        [w],
        add("witness.script_ops", lambda a, r: len(r)),
    )
    method(w.WitnessCertificate, "verify", "witness.verify")
    function("witness.nilpotent_index", "nilpotent_index", [c])
    function("witness.row_equivalent", "row_equivalent", [c])

    bytes_in = add("textio.bytes_in", lambda a, r: _text_len(a[0]))
    bytes_out = add("textio.bytes_out", lambda a, r: _text_len(r))
    function("textio.parse_matrix", "parse_matrix", [c], bytes_in)
    function("textio.parse_script", "parse_script", [c], bytes_in)
    # WitnessCertificate.to_report imports these from nilwitness.textio at call time.
    function("textio.matrix_to_text", "matrix_to_text", [c, t], bytes_out)
    function("textio.script_to_text", "script_to_text", [c, t], bytes_out)
    function("cli.main", "main", [c])
    return patches


def install_counters(counts: Counter) -> Patches:
    """Count scalar multiplies, adds (add, sub, neg), inverses and Field.scalar calls."""
    fields = modules()["fields"]
    patches = Patches()

    def count(cls, attr, key):
        fn = getattr(cls, attr)

        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        patches.set(cls, attr, wrapper)

    scalar = fields.Scalar
    for attr in ("__mul__", "__rmul__"):
        count(scalar, attr, "fields.scalar_mul.calls")
    for attr in ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__"):
        count(scalar, attr, "fields.scalar_add.calls")
    count(scalar, "inverse", "fields.scalar_inv.calls")
    for cls in (fields.RationalField, fields.PrimeField):
        count(cls, "scalar", "fields.scalar_new.calls")
    return patches


def layer_metrics(spans, counts) -> dict[str, float]:
    """calls, self_s and total_s per span name, plus the work counts."""
    calls: Counter = Counter()
    total: defaultdict = defaultdict(float)
    self_s: defaultdict = defaultdict(float)
    child: defaultdict = defaultdict(float)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    for index, (name, start, end, _, _) in enumerate(spans):
        calls[name] += 1
        total[name] += end - start
        self_s[name] += end - start - child[index]
    out: dict[str, float] = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
        out[f"{name}.total_s"] = total[name]
    for key in WORK_COUNTS + SCALAR_COUNTS:
        out[key] = counts[key]
    return out
