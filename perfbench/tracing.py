"""Span tracing around gpssvs's public functions, for the per-layer metrics.

``Tracer.install`` replaces each function in ``TRACED`` at every module
attribute of the package that binds it (``pssvs``, for instance, is bound
in ``gpssvs.states``, ``gpssvs.observables`` and the package root), and
``Tracer.restore`` puts every original back.  A wrapper records a span --
name, start, end, parent span, operation id -- only while an operation
runs; spans stay in memory until the run ends.  The ``adaptive_log_sum``
wrapper also wraps the ``log_weight`` callable it receives, to count the
series terms evaluated.
"""

import functools
import importlib
import sys
import threading
import time

# (module, function).  The span name is "<module>.<function>", except that
# all deform functions share the span name "deform".
TRACED = (
    ("cli", "main"),
    ("wigner", "wigner_grid"),
    ("wigner", "wigner_point"),
    ("wigner", "wigner_point_oracle"),
    ("states", "pssvs"),
    ("logseries", "adaptive_log_sum"),
    ("observables", "sweep"),
    ("observables", "quadrature_report"),
    ("observables", "number_stats"),
    ("oracle", "build_workspace"),
    ("oracle", "squeeze_by_exponential"),
    ("oracle", "subtract_photons"),
    ("verify", "run_suite"),
    ("deform", "f_value_array"),
    ("deform", "f_value"),
    ("deform", "log_f_factorial_array"),
    ("deform", "log_f_factorial"),
    ("deform", "commutator_weight"),
)

COUNTS = ("cli.bytes_written", "wigner.points", "states.terms",
          "logseries.terms_retained", "logseries.terms_evaluated",
          "verify.checks_failed")


def span_name(module, function):
    return "deform" if module == "deform" else f"{module}.{function}"


SPAN_NAMES = tuple(dict.fromkeys(span_name(m, f) for m, f in TRACED))


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1, operation id)
        self.counts = dict.fromkeys(COUNTS, 0)
        self.op = None  # spans are recorded only while this is set
        self._local = threading.local()
        self._patched = []  # (module, attribute, original)

    def install(self, package):
        prefix = package.__name__ + "."
        modules = [m for name, m in list(sys.modules.items())
                   if name == package.__name__ or name.startswith(prefix)]
        for module_name, function in TRACED:
            original = getattr(importlib.import_module(prefix + module_name), function, None)
            if original is None:
                continue
            wrapper = self._wrap(span_name(module_name, function), original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def restore(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            if name == "logseries.adaptive_log_sum":
                args, kwargs = tracer._count_terms(args, kwargs)
            stack = tracer._stack()
            index = len(tracer.spans)
            tracer.spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans[index] = (name, start, end, parent, tracer.op)
            tracer._count(name, result)
            return result

        return traced

    def _count_terms(self, args, kwargs):
        counts = self.counts
        if args:
            log_weight, args = args[0], args[1:]
        else:
            log_weight = kwargs.pop("log_weight")

        def counted(idx):
            counts["logseries.terms_evaluated"] += len(idx)
            return log_weight(idx)

        return (counted,) + args, kwargs

    def _count(self, name, result):
        counts = self.counts
        if name == "states.pssvs":
            counts["states.terms"] += result.truncation
        elif name == "logseries.adaptive_log_sum":
            counts["logseries.terms_retained"] += result.n_terms
        elif name == "wigner.wigner_grid":
            counts["wigner.points"] += result.values.size
        elif name == "wigner.wigner_point":
            counts["wigner.points"] += getattr(result, "size", 1)
        elif name == "verify.run_suite":
            counts["verify.checks_failed"] += sum(1 for c in result.checks if not c.passed)

    def layer_metrics(self, n_ops):
        """Per-operation calls, busy and self seconds of every span name, and counts.

        Self time is a span's duration minus the time its child spans
        cover; busy time excludes spans nested inside one of the same name.
        """
        children = {}
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                children.setdefault(parent, []).append((start, end))
        calls = dict.fromkeys(SPAN_NAMES, 0)
        busy = dict.fromkeys(SPAN_NAMES, 0.0)
        own = dict.fromkeys(SPAN_NAMES, 0.0)
        for index, (name, start, end, parent, _) in enumerate(self.spans):
            calls[name] += 1
            own[name] += (end - start) - _covered(children.get(index, ()))
            while parent >= 0 and self.spans[parent][0] != name:
                parent = self.spans[parent][3]
            if parent < 0:
                busy[name] += end - start
        per_op = 1.0 / max(n_ops, 1)
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = calls[name] * per_op
            out[f"{name}.busy_s"] = busy[name] * per_op
            out[f"{name}.self_s"] = own[name] * per_op
        for name, value in self.counts.items():
            out[name] = value * per_op
        evaluated = self.counts["logseries.terms_evaluated"]
        out["logseries.useful_ratio"] = (
            self.counts["logseries.terms_retained"] / evaluated if evaluated else 0.0)
        return out

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\top\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{op}\n")


def _covered(intervals):
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total
