"""Span tracing around the public functions of every ``digitseq`` layer.

The tracer wraps functions from outside the package: each target function
is replaced at every name that binds it (``from .x import f`` copies the
name into consumer modules), and ``floor_exact`` is replaced on the classes
that define it.  A span records its name, start, end, parent span and
operation id, plus the time its child spans cover and a work count (values,
terms, coefficients or bytes).  Spans stay in compact in-memory arrays until
the run ends.

Generators (``ps_block_chunks``) get one span per ``next()`` call, so the
span measures the work of producing a chunk, not the call that creates the
generator.

Wrappers also keep a few sampled (input, output) pairs of the floor and
digit kernels; ``oracle_errors`` recomputes them with exact scalar
references after the run, outside any timed region.
"""

from __future__ import annotations

import math
import random
import sys
from array import array
from fractions import Fraction
from time import perf_counter

import numpy as np

# (module, attribute, span name, kind).  Kinds: "call", "gen" (generator),
# "method" ("Class.method" defined on a class of the module).  Work counts
# and oracle samples are taken in Tracer._after.
TARGETS = (
    ("digitseq.cli", "dispatch", "cli.dispatch", "call"),
    ("digitseq.reports", "serialize_report", "reports.serialize_report", "call"),
    ("digitseq.audits", "fourier_bound_audit", "audits.fourier_bound_audit", "call"),
    ("digitseq.audits", "et_audit", "audits.et_audit", "call"),
    ("digitseq.experiments", "substitution_deviation", "experiments.substitution_deviation", "call"),
    ("digitseq.experiments", "window_l1_integral", "experiments.window_l1_integral", "call"),
    ("digitseq.experiments", "beatty_substitution_integral",
     "experiments.beatty_substitution_integral", "call"),
    ("digitseq.experiments", "audit_theorem1", "experiments.audit_theorem1", "call"),
    ("digitseq.experiments", "tm_density_experiment", "experiments.tm_density_experiment", "call"),
    ("digitseq.experiments", "joint_residue_experiment",
     "experiments.joint_residue_experiment", "call"),
    ("digitseq.experiments", "zeckendorf_residue_experiment",
     "experiments.zeckendorf_residue_experiment", "call"),
    ("digitseq.expsums", "window_exp_sum", "expsums.window_exp_sum", "call"),
    ("digitseq.expsums", "sine_product_integral", "expsums.sine_product_integral", "call"),
    ("digitseq.expsums", "digit_fourier_table", "expsums.digit_fourier_table", "call"),
    ("digitseq.harmonic", "erdos_turan_bound", "harmonic.erdos_turan_bound", "call"),
    ("digitseq.harmonic", "exact_discrepancy", "harmonic.exact_discrepancy", "call"),
    ("digitseq.digits", "digit_sum_array", "digits.digit_sum_array", "call"),
    ("digitseq.digits", "zeckendorf_digit_sum_array", "digits.zeckendorf_digit_sum_array", "call"),
    ("digitseq.digits", "thue_morse_sign_array", "digits.thue_morse_sign_array", "call"),
    ("digitseq.sequences", "ps_block_chunks", "sequences.ps_block_chunks", "gen"),
    ("digitseq.sequences", "ps_floor", "sequences.ps_floor", "call"),
    ("digitseq.sequences", "beatty_floor_range", "sequences.beatty_floor_range", "call"),
    ("digitseq.sequences", "beatty_floor", "sequences.beatty_floor", "call"),
    ("digitseq.sequences", "count_floor_mismatches", "sequences.count_floor_mismatches", "call"),
    ("digitseq.sequences", "GrowthFunction.floor_exact", "sequences.floor_exact", "method"),
    ("digitseq.sequences", "PowerGrowth.floor_exact", "sequences.floor_exact", "method"),
)

LAYERS = ("cli", "reports", "experiments", "audits", "expsums", "harmonic", "digits", "sequences")

SAMPLES_PER_CALL = 2
MAX_SAMPLES_PER_KERNEL = 4000


class Tracer:
    """Records spans for one traced run; install() ... uninstall()."""

    def __init__(self, seed: int):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.child = array("d")
        self.work = array("d")
        self._stack = [-1]
        self.op_id = -1
        self._rng = random.Random(f"oracle:{seed}")
        self.samples: dict[str, list[tuple]] = {
            "ps": [], "beatty": [], "digit_sum": [], "zeckendorf": [], "thue_morse": []}
        self._patched: list[tuple[object, str, object]] = []

    # -- span bookkeeping -------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.child.append(0.0)
        self.work.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        t = perf_counter()
        self.end[idx] = t
        self._stack.pop()
        parent = self._stack[-1]
        if parent >= 0:
            self.child[parent] += t - self.start[idx]

    # -- wrappers -----------------------------------------------------------

    def _wrap_call(self, span: str, fn):
        tracer = self
        fixed = None if span == "digits.digit_sum_array" else tracer._name_id(span)

        def wrapper(*args, **kwargs):
            nid = fixed if fixed is not None else tracer._name_id(
                f"{span}.q{args[1] if len(args) > 1 else kwargs['q']}")
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            tracer._after(span, idx, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_gen(self, span: str, fn):
        tracer = self
        nid = tracer._name_id(span)

        def wrapper(n_lo, n_hi, spec, *rest, **kwargs):
            it = fn(n_lo, n_hi, spec, *rest, **kwargs)
            offset = n_lo
            while True:
                idx = tracer._open(nid)
                try:
                    chunk = next(it)
                except StopIteration:
                    return
                finally:
                    tracer._close(idx)
                tracer.work[idx] = chunk.size
                tracer._sample_ps(offset, spec, chunk)
                offset += chunk.size
                yield chunk

        wrapper.__wrapped__ = fn
        return wrapper

    def _after(self, span: str, idx: int, args, kwargs, result) -> None:
        """Work count and oracle samples, taken after the span has closed."""
        if span == "expsums.window_exp_sum":
            self.work[idx] = result.term_count
        elif span == "expsums.digit_fourier_table":
            self.work[idx] = result.coefficients.size
        elif span == "reports.serialize_report":
            self.work[idx] = len(result.encode())
        elif span == "sequences.beatty_floor_range":
            self.work[idx] = result.size
            line, n_lo = args[0], args[1]
            self._sample("beatty", result, lambda i, v: (n_lo + i, line.alpha, line.beta, v))
        elif span == "digits.digit_sum_array":
            self.work[idx] = result.size
            values, q = np.asarray(args[0]), args[1] if len(args) > 1 else kwargs["q"]
            self._sample("digit_sum", result, lambda i, v: (int(values.flat[i]), q, v))
        elif span in ("digits.zeckendorf_digit_sum_array", "digits.thue_morse_sign_array"):
            self.work[idx] = result.size
            values = np.asarray(args[0])
            kind = "zeckendorf" if "zeckendorf" in span else "thue_morse"
            self._sample(kind, result, lambda i, v: (int(values.flat[i]), v))

    def _sample(self, kind: str, result: np.ndarray, make) -> None:
        store = self.samples[kind]
        if result.size == 0 or len(store) >= MAX_SAMPLES_PER_KERNEL:
            return
        for _ in range(SAMPLES_PER_CALL):
            i = self._rng.randrange(result.size)
            store.append(make(i, int(result.flat[i])))

    def _sample_ps(self, offset: int, spec, chunk: np.ndarray) -> None:
        """Random positions plus one exact tie (n a perfect c_den-th power)."""
        store = self.samples["ps"]
        if len(store) >= MAX_SAMPLES_PER_KERNEL:
            return
        picks = [self._rng.randrange(chunk.size) for _ in range(SAMPLES_PER_CALL)]
        k = math.ceil(offset ** (1.0 / spec.c_den))
        if offset <= k ** spec.c_den < offset + chunk.size:
            picks.append(k ** spec.c_den - offset)
        for i in picks:
            store.append((offset + i, spec.c_num, spec.c_den, int(chunk[i])))

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        for module_name, attr, span, kind in TARGETS:
            owner = sys.modules[module_name]
            if kind == "method":
                cls, attr = attr.split(".")
                owner = getattr(owner, cls)
            original = vars(owner)[attr]
            wrapper = (self._wrap_gen(span, original) if kind == "gen"
                       else self._wrap_call(span, original))
            if kind == "method":
                self._patch(owner, attr, original, wrapper)
                continue
            for name, module in list(sys.modules.items()):
                if name != "digitseq" and not name.startswith("digitseq."):
                    continue
                for binding, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, binding, original, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results ----------------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy (total duration), self time, work, and
        the number of child spans of each name."""
        out: dict[str, dict] = {
            n: {"calls": 0, "busy": 0.0, "self": 0.0, "work": 0.0, "children": {}}
            for n in self.names}
        names = self.names
        for i in range(len(self.start)):
            s = out[names[self.name[i]]]
            dur = self.end[i] - self.start[i]
            s["calls"] += 1
            s["busy"] += dur
            s["self"] += dur - self.child[i]
            s["work"] += self.work[i]
            p = self.parent[i]
            if p >= 0:
                kids = out[names[self.name[p]]]["children"]
                child = names[self.name[i]]
                kids[child] = kids.get(child, 0) + 1
        return out

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), name=np.frombuffer(self.name, np.int32),
                 parent=np.frombuffer(self.parent, np.int32), op=np.frombuffer(self.op, np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                 child=np.frombuffer(self.child), work=np.frombuffer(self.work))


def oracle_errors(samples: dict[str, list[tuple]]) -> tuple[int, list[str]]:
    """Recompute sampled kernel outputs with exact scalar references."""
    from digitseq.digits import digit_sum, thue_morse_sign, zeckendorf_digit_sum
    from digitseq.sequences import int_nth_root

    checks = {
        "ps": lambda n, a, b, v: int_nth_root(n ** a, b) == v,
        "beatty": lambda n, alpha, beta, v:
            math.floor(Fraction(n) * Fraction(alpha) + Fraction(beta)) == v,
        "digit_sum": lambda n, q, v: digit_sum(n, q) == v,
        "zeckendorf": lambda n, v: zeckendorf_digit_sum(n) == v,
        "thue_morse": lambda n, v: thue_morse_sign(n) == v,
    }
    count, errors = 0, []
    for kind, rows in samples.items():
        for row in rows:
            count += 1
            if not checks[kind](*row):
                errors.append(f"oracle {kind} disagrees at {row}")
    return count, errors
