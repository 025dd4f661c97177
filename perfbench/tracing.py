"""In-process spans around the public functions of each knotcert layer.

The tracer wraps every public function of the layer modules (cli, corpus,
certify, inertia, laurent, seifert) in every ``knotcert`` module namespace
that binds it, so calls made inside a module are recorded as well as calls
across modules.  Each span is (name, start, end, parent, entry, ok); spans
stay in memory until the round ends.  Self time is a span's duration minus
the time its calls into other layers took (see ``Tracer.self_times``).

Modules are fetched with importlib: the package attributes ``knotcert.certify``
and ``knotcert.inertia`` are functions that shadow the submodules.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import statistics
import sys
import time
from collections import Counter

LAYERS = ("cli", "corpus", "certify", "inertia", "laurent", "seifert")

CERTIFY = "certify.certify"


def _bits(x) -> int:
    """Bit size of an integer or of the larger part of a rational."""
    return max(abs(x.numerator).bit_length(), x.denominator.bit_length())


class Tracer:
    """Records spans and a few result sizes while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.invocation = -1
        self._certify_seq = -1
        self.plateaus = 0
        self.sample_u_bits = 0
        self.det_bits = 0
        self.p_degree = 0
        self.p_coeff_bits = 0
        self.unit_roots: dict[tuple, int] = {}

    def reset(self, invocation: int) -> None:
        """Start a new invocation; spans of earlier ones are kept."""
        self.invocation = invocation
        self._certify_seq = -1

    def _entry(self, name: str) -> tuple[int, int]:
        if name == CERTIFY and not any(self.spans[i][0] == CERTIFY for i in self._stack):
            self._certify_seq += 1
            return self.invocation, self._certify_seq
        if self._stack:
            return self.spans[self._stack[-1]][4]
        return self.invocation, -1

    def _observe(self, name: str, result, entry) -> None:
        if name == "inertia.signature_profile":
            self.plateaus += len(result.plateau_values)
            self.sample_u_bits = max([self.sample_u_bits] + [_bits(p.u) for p in result.arc_samples])
            self.det_bits = max([self.det_bits] + [_bits(d) for d in result.arc_dets])
        elif name == "laurent.to_z_poly":
            self.p_degree = max(self.p_degree, result.degree)
            self.p_coeff_bits = max([self.p_coeff_bits] + [abs(c).bit_length() for c in result.coeffs])
        elif name == "laurent.isolate_unit_roots":
            self.unit_roots[entry] = len(result)

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self._entry(name), False]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                span[5] = True
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            self._observe(name, result, span[4])
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap the layer functions for the duration of the block."""
        layers = {m: importlib.import_module(f"knotcert.{m}") for m in LAYERS}
        wrappers = {}
        for short, mod in layers.items():
            for attr, obj in vars(mod).items():
                if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[id(obj)] = (obj, self.wrap(f"{short}.{attr}", obj))
        namespaces = [m for n, m in sys.modules.items() if n == "knotcert" or n.startswith("knotcert.")]
        replaced = []
        for mod in namespaces:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    setattr(mod, attr, wrappers[id(obj)][1])
                    replaced.append((mod, attr, obj))
        try:
            yield
        finally:
            for mod, attr, obj in replaced:
                setattr(mod, attr, obj)

    def counts(self) -> dict:
        """Everything a traced round counts; equal inputs must give equal counts."""
        calls = Counter(s[0] for s in self.spans)
        return {
            "calls": dict(sorted(calls.items())),
            "ok_calls": dict(sorted(Counter(s[0] for s in self.spans if s[5]).items())),
            "plateaus": self.plateaus,
            "sample_u_bits": self.sample_u_bits,
            "det_bits": self.det_bits,
            "p_degree": self.p_degree,
            "p_coeff_bits": self.p_coeff_bits,
            "unit_roots": sum(self.unit_roots.values()),
        }

    def self_times(self) -> dict[str, float]:
        """Self time per span name, with the module as the layer boundary.

        A call a layer makes to its own public functions is that layer's
        time: it is charged to the outermost span of the chain of same-layer
        calls, whose self time is its duration minus the spans of other
        layers anywhere under that chain.
        """
        layer = [s[0].split(".", 1)[0] for s in self.spans]
        owner = list(range(len(self.spans)))
        own = [s[2] - s[1] for s in self.spans]
        for i, s in enumerate(self.spans):
            parent = s[3]
            if parent < 0:
                continue
            if layer[parent] == layer[i]:
                owner[i] = owner[parent]
                own[i] = 0.0
            else:
                own[owner[parent]] -= s[2] - s[1]
        out: dict[str, float] = {}
        for i, s in enumerate(self.spans):
            if owner[i] == i:
                out[s[0]] = out.get(s[0], 0.0) + own[i]
        return out

    def covered(self) -> float:
        """Time covered by spans that have no parent."""
        return sum(s[2] - s[1] for s in self.spans if s[3] < 0)

    def certify_durations(self) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == CERTIFY]

    def dump(self) -> list[dict]:
        keys = ("name", "start", "end", "parent", "entry", "ok")
        return [dict(zip(keys, s)) for s in self.spans]


def layer_metrics(tracer: Tracer, valid_entries: int, round_wall: float, bytes_out: int) -> dict:
    """Per-layer metrics of one traced round, before taking medians over rounds."""
    counts = tracer.counts()
    calls, ok = counts["calls"], counts["ok_calls"]
    self_s = tracer.self_times()
    plateaus, roots = counts["plateaus"], counts["unit_roots"]
    durations = tracer.certify_durations()

    def per_entry(name: str) -> float:
        # calls that returned; a call that raises is the error-row path
        return ok.get(name, 0) / valid_entries if valid_entries else 0.0

    def pct(q: int) -> float:
        if len(durations) < 2:
            return durations[0] if durations else 0.0
        return statistics.quantiles(durations, n=100, method="inclusive")[q - 1]

    profile_s = self_s.get("inertia.signature_profile", 0.0)
    return {
        "inertia.signature_profile.self_s": profile_s,
        "inertia.signature_profile.certify_share": profile_s / sum(durations) if durations else 0.0,
        "inertia.plateaus": plateaus,
        "inertia.samples_per_plateau": calls.get("inertia.sample_point_in_z_range", 0) / plateaus
        if plateaus
        else 0.0,
        "inertia.sample_u_bits": counts["sample_u_bits"],
        "inertia.det_bits": counts["det_bits"],
        "inertia.det_sign_crosscheck.self_s": self_s.get("inertia.det_sign_crosscheck", 0.0),
        "inertia.jump_reports.self_s": self_s.get("inertia.jump_reports", 0.0),
        "laurent.isolate_unit_roots.self_s": self_s.get("laurent.isolate_unit_roots", 0.0),
        "laurent.sturm_count.calls": calls.get("laurent.sturm_count", 0),
        "laurent.sturm_count.per_root": calls.get("laurent.sturm_count", 0) / roots if roots else 0.0,
        "laurent.alexander_poly.self_s": self_s.get("laurent.alexander_poly", 0.0),
        "laurent.alexander_poly.calls_per_entry": per_entry("laurent.alexander_poly"),
        "laurent.to_z_poly.calls_per_entry": per_entry("laurent.to_z_poly"),
        "laurent.squarefree_decompose.calls_per_entry": per_entry("laurent.squarefree_decompose"),
        "seifert.validate.calls_per_entry": per_entry("seifert.validate"),
        "laurent.p_degree": counts["p_degree"],
        "laurent.p_coeff_bits": counts["p_coeff_bits"],
        "laurent.unit_roots": roots,
        "certify.certify.self_s": self_s.get(CERTIFY, 0.0),
        "certify.entry_p50_s": pct(50),
        "certify.entry_p90_s": pct(90),
        "seifert.validate.self_s": self_s.get("seifert.validate", 0.0),
        "corpus.parse_corpus.self_s": self_s.get("corpus.parse_corpus", 0.0),
        "corpus.emit_report.self_s": self_s.get("corpus.emit_report", 0.0),
        "corpus.emit_profile_plot.self_s": self_s.get("corpus.emit_profile_plot", 0.0),
        "corpus.bytes_out": bytes_out,
        "trace.unattributed_s": round_wall - tracer.covered(),
    }
