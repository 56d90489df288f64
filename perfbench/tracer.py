"""Outside-in tracer for fluxtem: spans recorded around calls into each layer.

The tracer does not edit the package.  It replaces each public function of
the layer modules (and each public method of `DetectorModel`) with a
wrapper that records a span, at every place the function is looked up:
its own module's global, every other fluxtem module that imported it by
name (`estimator.derive`, `cli.derive`, `cli.load_config`, the package's
re-exports), and the class attribute for methods.  The subcommand itself
is wrapped in the CLI's dispatch table as the span `cli.command`.
`restore` puts every original back.

Spans stay in memory as (name, parent, start, end) tuples; a span's index
in `spans` is its id and -1 marks a root.  Self time is a span's duration
minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("config", "streams", "detector", "optics", "protocol", "estimator", "fileio")
COMMAND_SPAN = "cli.command"


def _count_run_group(args, result):
    return {"electrons": len(result.records)}


def _count_draw_good_pixels(args, result):
    good_pixels, used, _ = result
    return {"draws": used, "good": len(good_pixels)}


def _count_estimate_phase(args, result):
    return {"electrons": result.electrons_used}


def _count_dose_scaling(args, result):
    return {"probes": sum(len(row.probes) for row in result.rows)}


def _count_propagate(args, result):
    # complex128 grid: n^2 x 16 bytes read, computed from the array size
    return {"bytes_computed": args[0].grid.size * 16}


def _count_to_csv(args, result):
    return {"bytes": os.path.getsize(args[1])}


# span name -> function(args, result) -> {count name: increment}
COUNTERS = {
    "protocol.run_group": _count_run_group,
    "protocol.draw_good_pixels": _count_draw_good_pixels,
    "estimator.estimate_phase": _count_estimate_phase,
    "estimator.dose_scaling_experiment": _count_dose_scaling,
    "optics.propagate": _count_propagate,
    "detector.to_csv": _count_to_csv,
}


class Tracer:
    """Patch fluxtem for one run of `command`; use as a context manager.

    With `layers=()` only the subcommand span is recorded, which gives the
    untraced in-process time of the same command.
    """

    def __init__(self, command: str, layers=LAYERS):
        self.command = command
        self.layers = tuple(layers)
        self.spans: list = []
        self.counts: defaultdict[str, Counter] = defaultdict(Counter)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- patching ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, parent, start, end)
            if counter is not None:
                counts[name].update(counter(args, result))
            return result

        return traced

    def _patch(self, owner, key: str, replacement) -> None:
        if isinstance(owner, dict):
            self._patches.append((owner, key, owner[key]))
            owner[key] = replacement
        else:
            self._patches.append((owner, key, owner.__dict__[key]))
            setattr(owner, key, replacement)

    def install(self) -> None:
        import fluxtem.cli as cli
        from fluxtem.detector import DetectorModel

        wrapped: dict[int, object] = {}  # id(original) -> wrapper
        for layer in self.layers:
            module = sys.modules[f"fluxtem.{layer}"]
            for key, obj in list(vars(module).items()):
                if key.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{key}", obj)
                wrapped[id(obj)] = wrapper
                self._patch(module, key, wrapper)
        if "detector" in self.layers:
            for key, obj in list(vars(DetectorModel).items()):
                if not key.startswith("_") and inspect.isfunction(obj):
                    self._patch(DetectorModel, key, self._wrap(f"detector.{key}", obj))
        # functions imported by name elsewhere are looked up in the importer
        for modname, module in list(sys.modules.items()):
            if modname != "fluxtem" and not modname.startswith("fluxtem."):
                continue
            for key, obj in list(vars(module).items()):
                wrapper = wrapped.get(id(obj))
                if wrapper is not None and vars(module)[key] is not wrapper:
                    self._patch(module, key, wrapper)
        self._patch(cli._COMMANDS, self.command, self._wrap(COMMAND_SPAN, cli._COMMANDS[self.command]))

    def restore(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    def __enter__(self) -> "Tracer":
        try:
            self.install()
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- analysis ---------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per-span self time: duration minus the durations of direct children."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i] for i, (_, _, start, end) in enumerate(self.spans)]

    def metrics(self) -> dict[str, float]:
        """`<span>.calls`, `<span>.s`, `<span>.self_s` and `<span>.<count>` per span name."""
        out: Counter = Counter()
        for (name, _, start, end), self_s in zip(self.spans, self.self_times()):
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += end - start
            out[f"{name}.self_s"] += self_s
        for name, counts in self.counts.items():
            for key, value in counts.items():
                out[f"{name}.{key}"] += value
        return dict(out)

    def self_time_gap(self) -> float:
        """|sum of self times in the command's span tree - the command's span|.

        Zero up to rounding when every child span nests inside its parent.
        """
        selfs = self.self_times()
        in_tree = [False] * len(self.spans)
        total = 0.0
        command = 0.0
        for i, (name, parent, start, end) in enumerate(self.spans):
            in_tree[i] = name == COMMAND_SPAN or (parent >= 0 and in_tree[parent])
            if in_tree[i]:
                total += selfs[i]
            if name == COMMAND_SPAN:
                command += end - start
        return abs(total - command)

    def write_spans(self, path, run_id: str) -> None:
        """One CSV line per span, times in seconds from the first span's start."""
        t0 = min((s[2] for s in self.spans), default=0.0)
        with open(path, "w") as fh:
            fh.write("run,id,parent,name,start_s,end_s\n")
            for i, (name, parent, start, end) in enumerate(self.spans):
                fh.write(f"{run_id},{i},{parent},{name},{start - t0:.9f},{end - t0:.9f}\n")
