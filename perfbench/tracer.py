"""Outside-in tracer for the gvqkd layers.

install() replaces every public function of the traced modules, and every
method that their public classes define in source, with a timing wrapper in
every gvqkd namespace that binds it; uninstall() puts the originals back.
Nothing under src/ is edited. Calls are aggregated per (function, parent)
as count, total and self time, so memory does not grow with the number of
photons; only CLI invocations and sessions keep individual spans.

Self time is a call's duration minus the time spent in wrapped callees, so
a private helper counts toward its public caller and the wrapper's own cost
lands in the caller's self time.
"""

import inspect
import sys
import time

TRACED_MODULES = ("optics", "devices", "streams", "protocol", "adversary", "analysis", "config")
ROOT = "cli.main"
SESSION = "protocol.run_session"
# functions whose results carry ledger counts the transcripts do not keep
OBSERVED = {
    "devices.generate_emissions": ("emitted", len),
    "devices.herald": ("heralded", lambda result: len(result[0])),
    "devices.dark_clicks": ("darks", len),
}


def _public(name: str) -> bool:
    return not name.startswith("_") or (name.startswith("__") and name.endswith("__"))


def traced_functions():
    """Yield (name, owner class or None, attribute, function) for each function to wrap."""
    for short in TRACED_MODULES:
        module = sys.modules[f"gvqkd.{short}"]
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{short}.{name}", None, name, obj
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    # dataclass-generated methods have no source file and are skipped
                    if inspect.isfunction(member) and _public(attr) and member.__code__.co_filename == module.__file__:
                        yield f"{short}.{name}.{attr}", obj, attr, member


class Tracer:
    """Timing wrappers plus the per-round aggregates and spans they fill."""

    def __init__(self):
        self.names = [ROOT]
        self.stack: list[list] = []
        self.agg: dict[tuple[int, int], list] = {}
        self.spans: list[dict] = []
        self.counts = {counter: 0 for counter, _ in OBSERVED.values()}
        self.walls: list[float] = []
        self._functions: dict = {}  # module-level function -> wrapper
        self._methods: list[tuple] = []  # (class, attribute, method, wrapper)
        self._installed: list[tuple] = []  # (owner, attribute, original)
        for name, owner, attr, fn in traced_functions():
            wrapper = self._wrap(fn, len(self.names), name)
            self.names.append(name)
            if owner is None:
                self._functions[fn] = wrapper
            else:
                self._methods.append((owner, attr, fn, wrapper))

    def reset(self) -> None:
        self.stack[:] = [[0, 0.0]]
        self.agg.clear()
        self.spans.clear()
        self.walls.clear()
        for counter in self.counts:
            self.counts[counter] = 0

    def _wrap(self, fn, idx: int, name: str):
        stack, agg, spans, counts, clock = self.stack, self.agg, self.spans, self.counts, time.perf_counter
        counter, measure = OBSERVED.get(name, (None, None))
        is_span = name == SESSION

        def timed(*args, **kwargs):
            parent = stack[-1]
            frame = [idx, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                parent[1] += elapsed
                key = (idx, parent[0])
                rec = agg.get(key)
                if rec is None:
                    rec = agg[key] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - frame[1]
                if is_span:
                    spans.append({"name": name, "start": start, "end": end, "parent": len(self.walls)})
            if counter is not None:
                counts[counter] += measure(result)
            return result

        return timed

    def install(self) -> None:
        """Bind the wrappers in every loaded gvqkd module and on the traced classes."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "gvqkd" or module_name.startswith("gvqkd.")):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in self._functions:
                    setattr(module, attr, self._functions[value])
                    self._installed.append((module, attr, value))
        for owner, attr, fn, wrapper in self._methods:
            setattr(owner, attr, wrapper)
            self._installed.append((owner, attr, fn))

    def uninstall(self) -> None:
        for owner, attr, original in self._installed:
            setattr(owner, attr, original)
        self._installed.clear()

    def invoke(self, main, argv: list[str]) -> int:
        """Run one CLI invocation under the wrappers as a root span."""
        start = time.perf_counter()
        rc = main(argv)
        end = time.perf_counter()
        self.spans.append({"name": f"{ROOT} {argv[0]}", "start": start, "end": end, "parent": None, "id": len(self.walls)})
        self.walls.append(end - start)
        return rc

    def table(self) -> list[dict]:
        """Aggregates per (function, parent) with names, largest self time first."""
        rows = [
            {"function": self.names[idx], "parent": self.names[parent], "calls": c, "total_s": t, "self_s": s}
            for (idx, parent), (c, t, s) in self.agg.items()
        ]
        return sorted(rows, key=lambda row: -row["self_s"])

    def by_function(self) -> dict[str, list]:
        """[calls, self seconds] per traced function name, summed over parents."""
        out: dict[str, list] = {}
        for (idx, _parent), (calls, _total, self_s) in self.agg.items():
            rec = out.setdefault(self.names[idx], [0, 0.0])
            rec[0] += calls
            rec[1] += self_s
        return out

    def root_child_s(self) -> float:
        return self.stack[0][1]
