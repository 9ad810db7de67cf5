"""Span tracing of corrcount's public functions, applied from outside.

``Trace.install`` wraps each function in ``TARGETS`` and rebinds every
name under which a corrcount module looks it up (``cli`` and ``verify``
import functions by name, so patching the defining module alone would
miss their calls).  Each call records a span (name, start, end, parent)
and bumps its counters; ``uninstall`` restores the originals, so untraced
passes run the unmodified code.  Self time of a span is its duration minus
that of its direct children, and the self times of one job tile its root
span exactly.
"""

import functools
import sys
import time
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass


def _entries(counter: str):
    def count(counts, result):
        counts[counter] += len(result.values)

    return count


def _cf_points(counts, result):
    counts["limit.cf_points"] += len(result.u)


def _samples(counts, result):
    counts["montecarlo.samples"] += len(result)


def _bootstrap(counts, result):
    counts["montecarlo.bootstrap_replicates"] += result.n_bootstrap


def _checks(counts, result):
    counts["verify.checks"] += len(result)
    counts["verify.checks_failed"] += sum(not check.passed for check in result)


@dataclass(frozen=True)
class Target:
    module: str
    function: str
    span: str
    calls: str | None = None
    errors: str | None = None
    on_result: Callable | None = None


TARGETS = (
    Target("finite", "finite_count_pmf", "finite.count_pmf_s",
           calls="finite.count_pmf_calls", on_result=_entries("finite.entries")),
    Target("finite", "count_pmf_from_joint", "finite.joint_pmf_s",
           on_result=_entries("finite.entries")),
    Target("limit", "limit_pmf", "limit.pmf_s", calls="limit.pmf_calls",
           errors="limit.errors", on_result=_entries("limit.support")),
    Target("limit", "char_fn", "limit.char_fn_s", on_result=_cf_points),
    Target("montecarlo", "sample_counts", "montecarlo.sample_s", on_result=_samples),
    Target("montecarlo", "estimate_coefficients", "montecarlo.estimate_s",
           on_result=_bootstrap),
    Target("montecarlo", "build_mixture_joint", "montecarlo.mixture_joint_s"),
    Target("ursell", "correlation_recursive_expanded", "ursell.recursive_s"),
    Target("ursell", "correlation_recursive", "ursell.recursive_s"),
    Target("ursell", "correlation_partition", "ursell.partition_s"),
    Target("ursell", "probability_from_correlations", "ursell.partition_s"),
    Target("ursell", "marginalize", "ursell.marginalize_s"),
    Target("verify", "run_identity_suite", "verify.self_s", on_result=_checks),
)
CLI_SPAN = "cli.self_s"
PMF_SPAN = "core.pmf_from_values_s"

SPAN_METRICS = tuple(dict.fromkeys((CLI_SPAN, *(t.span for t in TARGETS), PMF_SPAN)))
COUNT_METRICS = (
    "finite.count_pmf_calls",
    "finite.entries",
    "limit.pmf_calls",
    "limit.support",
    "limit.errors",
    "limit.cf_points",
    "montecarlo.samples",
    "montecarlo.bootstrap_replicates",
    "verify.checks",
    "verify.checks_failed",
)


class Trace:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, calls=None, errors=None, on_result=None):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else None])
            stack.append(index)
            if calls:
                counts[calls] += 1
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if errors:
                    counts[errors] += 1
                raise
            finally:
                stack.pop()
                spans[index][2] = time.perf_counter()
            if on_result is not None:
                on_result(counts, result)
            return result

        return traced

    def install(self, package: str = "corrcount") -> None:
        modules = [m for n, m in sys.modules.items() if n == package or n.startswith(package + ".")]
        for target in TARGETS:
            original = getattr(sys.modules[f"{package}.{target.module}"], target.function)
            wrapper = self.wrap(target.span, original, target.calls, target.errors, target.on_result)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, key, value))
                        setattr(module, key, wrapper)
        pmf = sys.modules[f"{package}.core"].Pmf
        original = pmf.__dict__["from_values"]
        self._undo.append((pmf, "from_values", original))
        pmf.from_values = classmethod(self.wrap(PMF_SPAN, original.__func__))

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    def self_times(self) -> dict[str, float]:
        """Self time per span name, plus the summed duration of root spans."""
        child_time = [0.0] * len(self.spans)
        roots = 0.0
        for name, start, end, parent in self.spans:
            if parent is None:
                roots += end - start
            else:
                child_time[parent] += end - start
        out = dict.fromkeys(SPAN_METRICS, 0.0)
        for (name, start, end, _), children in zip(self.spans, child_time):
            out[name] += (end - start) - children
        out["roots"] = roots
        return out
