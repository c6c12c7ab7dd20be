"""Outside-in tracer for the walshgl package.

Spans are taken from outside the library: each public function of interest
is replaced by a wrapper that records (op, span id, parent id, name, start,
end).  Modules import many of these functions by name (``cli``, ``gl``,
``qsim`` and ``stats`` all do ``from .walsh import fwht``), so a function is
rebound under every alias that any ``walshgl.*`` module holds; patching only
its home module would miss most calls.  Methods and properties are patched
on their class.  ``uninstall`` puts every original back.

Spans stay in memory until ``write_spans``.  A span's self time is its
duration minus the durations of its direct children; calls are strictly
nested on one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import hashlib
import json
import statistics
import sys
import time
from collections import defaultdict

# (module, attribute path) of every wrapped callable, named "<module>.<path>".
TARGETS = (
    ("boolfn", "load_truth_table"),
    ("boolfn", "load_sbox"),
    ("boolfn", "parse_anf"),
    ("boolfn", "VectorialFunction.component"),
    ("boolfn", "BooleanFunction.bits"),
    ("walsh", "fwht"),
    ("walsh", "component_spectrum"),
    ("walsh", "spectrum_to_csv"),
    ("walsh", "WalshSpectrum.parseval_sum"),
    ("walsh", "top_coefficients"),
    ("walsh", "heavy_set_exact"),
    ("qsim", "SampleStream.from_spectrum"),
    ("qsim", "SampleStream.draw_encoded"),
    ("rng", "generator"),
    ("gl", "run_algorithm1"),
    ("gl", "run_algorithm2"),
    ("gl", "annotate_with_oracle"),
    ("gl", "verify_against_oracle"),
    ("gl", "HeavyList.write_json"),
    ("stats", "monte_carlo_theorem1"),
    ("stats", "monte_carlo_theorem2"),
    ("cli", "main"),
)


def _count_fwht(counters, args, result):
    f = args[0]
    counters["walsh.fwht.butterfly_ops"] += f.n << f.n
    digest = hashlib.blake2b(f.packed.tobytes(), digest_size=16).digest()
    counters.setdefault("_fwht_inputs", set()).add((f.n, digest))


def _count_draws(counters, args, result):
    counters["qsim.draws"] += len(result)


def _count_queries(counters, args, result):
    counters["gl.queries"] += result.queries


def _count_csv(counters, args, result):
    # The stream is opened by the CLI for this call, so its final position
    # is the number of bytes written.
    counters["walsh.spectrum_to_csv.bytes_written"] += args[1].tell()


# Counters taken after a span closes; their small cost lands in the
# parent's self time.
HOOKS = {
    "walsh.fwht": _count_fwht,
    "qsim.SampleStream.draw_encoded": _count_draws,
    "gl.run_algorithm1": _count_queries,
    "gl.run_algorithm2": _count_queries,
    "walsh.spectrum_to_csv": _count_csv,
}


class Tracer:
    """Records spans and counters for the ops run while it is installed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.op = 0
        self.counters: dict = defaultdict(int)
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def start_op(self, op: int):
        """Attribute the following spans to ``op`` and reset the counters."""
        self.op = op
        self.counters = defaultdict(int)

    def _wrap(self, name, fn):
        tracer = self
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else -1
            sid = len(tracer.spans)
            tracer.spans.append(None)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans[sid] = (tracer.op, sid, parent, name, start, end)
            if hook is not None:
                hook(tracer.counters, args, result)
            return result

        return traced

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every target and rebind each alias of it in ``walshgl.*``.
        A target the package no longer has is skipped; its calls read 0."""
        modules = [m for k, m in sys.modules.items() if k == "walshgl" or k.startswith("walshgl.")]
        for modname, path in TARGETS:
            name = f"{modname}.{path}"
            owner = sys.modules[f"walshgl.{modname}"]
            clsname, _, attr = path.rpartition(".")
            if clsname:
                owner = getattr(owner, clsname, None)
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                continue
            if clsname:
                if isinstance(raw, classmethod):
                    raw = classmethod(self._wrap(name, raw.__func__))
                elif isinstance(raw, property):
                    raw = property(self._wrap(name, raw.fget), doc=raw.__doc__)
                else:
                    raw = self._wrap(name, raw)
                self._set(owner, attr, raw)
                continue
            wrapper = self._wrap(name, raw)
            for mod in modules:
                for alias, value in list(vars(mod).items()):
                    if value is raw:
                        self._set(mod, alias, wrapper)

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def op_summary(self, op: int) -> dict:
        """Per-name calls, total seconds and self seconds for one op."""
        spans = [s for s in self.spans if s is not None and s[0] == op]
        child_time: dict[int, float] = defaultdict(float)
        for _op, _sid, parent, _name, start, end in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for _op, sid, _parent, name, start, end in spans:
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[sid]
        return dict(out)

    def write_spans(self, path):
        """JSON lines ``[op, id, parent, name, start_s, end_s]``, times
        relative to the first span."""
        spans = [s for s in self.spans if s is not None]
        t0 = min((s[4] for s in spans), default=0.0)
        with open(path, "w") as fh:
            for op, sid, parent, name, start, end in spans:
                fh.write(json.dumps([op, sid, parent, name, start - t0, end - t0]) + "\n")


def layer_metrics(summaries: list[dict], counters: list[dict], untraced_s: list[float]) -> dict:
    """Per-layer metrics from the traced ops: times are medians over ops,
    counts come from the first op (the caller checks they repeat)."""

    def med(name, field):
        return statistics.median(s.get(name, {}).get(field, 0.0) for s in summaries)

    first, c = summaries[0], counters[0]

    def calls(name):
        return first.get(name, {}).get("calls", 0)

    fwht_calls = calls("walsh.fwht")
    draws = c["qsim.draws"]
    butterfly_ops = c["walsh.fwht.butterfly_ops"]
    m = {
        "boolfn.load_truth_table.self_s": med("boolfn.load_truth_table", "self_s"),
        "boolfn.parse_anf.self_s": med("boolfn.parse_anf", "self_s"),
        "boolfn.VectorialFunction.component.calls": calls("boolfn.VectorialFunction.component"),
        "boolfn.VectorialFunction.component.self_s": med("boolfn.VectorialFunction.component", "self_s"),
        "boolfn.BooleanFunction.bits.calls": calls("boolfn.BooleanFunction.bits"),
        "walsh.fwht.calls": fwht_calls,
        "walsh.fwht.self_s": med("walsh.fwht", "self_s"),
        "walsh.fwht.butterfly_ops": butterfly_ops,
        "walsh.fwht.ns_per_butterfly_op": (
            med("walsh.fwht", "self_s") / butterfly_ops * 1e9 if butterfly_ops else 0.0
        ),
        "walsh.fwht.distinct_inputs_per_call": (
            len(c.get("_fwht_inputs", ())) / fwht_calls if fwht_calls else 0.0
        ),
        "walsh.component_spectrum.calls": calls("walsh.component_spectrum"),
        "walsh.spectrum_to_csv.self_s": med("walsh.spectrum_to_csv", "self_s"),
        "walsh.spectrum_to_csv.mb_written": c["walsh.spectrum_to_csv.bytes_written"] / 1e6,
        "walsh.WalshSpectrum.parseval_sum.self_s": med("walsh.WalshSpectrum.parseval_sum", "self_s"),
        "walsh.top_coefficients.self_s": med("walsh.top_coefficients", "self_s"),
        "walsh.heavy_set_exact.self_s": med("walsh.heavy_set_exact", "self_s"),
        "qsim.SampleStream.from_spectrum.calls": calls("qsim.SampleStream.from_spectrum"),
        "qsim.SampleStream.from_spectrum.self_s": med("qsim.SampleStream.from_spectrum", "self_s"),
        "qsim.SampleStream.draw_encoded.self_s": med("qsim.SampleStream.draw_encoded", "self_s"),
        "qsim.draws": draws,
        "qsim.ns_per_draw": (
            med("qsim.SampleStream.draw_encoded", "self_s") / draws * 1e9 if draws else 0.0
        ),
        "rng.generator.calls": calls("rng.generator"),
        "rng.generator.self_s": med("rng.generator", "self_s"),
        "gl.run_algorithm1.self_s": med("gl.run_algorithm1", "self_s"),
        "gl.run_algorithm2.self_s": med("gl.run_algorithm2", "self_s"),
        "gl.annotate_with_oracle.total_s": med("gl.annotate_with_oracle", "total_s"),
        "gl.verify_against_oracle.total_s": med("gl.verify_against_oracle", "total_s"),
        "gl.queries": c["gl.queries"],
        "gl.HeavyList.write_json.self_s": med("gl.HeavyList.write_json", "self_s"),
        "stats.monte_carlo_theorem1.self_s": med("stats.monte_carlo_theorem1", "self_s"),
        "stats.monte_carlo_theorem2.self_s": med("stats.monte_carlo_theorem2", "self_s"),
        "cli.main.total_s": med("cli.main", "total_s"),
        "cli.main.self_s": med("cli.main", "self_s"),
    }
    untraced = statistics.median(untraced_s)
    m["trace.overhead_frac"] = (m["cli.main.total_s"] - untraced) / untraced
    return m
