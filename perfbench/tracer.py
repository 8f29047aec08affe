"""Per-layer tracing of hpid from the benchmark's own process.

While installed, every public function of each hpid module, and every
closure that `homogeneity.norm_evaluator` and `plant.make_closed_loop_field`
return, is replaced by a wrapper that keeps, per name, the call count, the
inclusive time and the self time (inclusive time minus the time of traced
calls made inside it).  The hot leaf calls (norm and field closures, the RK4
step) run hundreds of thousands of times per round, so nothing is kept per
call: only these three aggregates.  Uninstalling restores every binding.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "sim", "plant", "homogeneity", "control", "metrics", "stability", "checks")
CSV_RENDERERS = ("trajectory_csv_text", "comparison_csv_text", "certificate_csv_text")


class Tracer:
    def __init__(self):
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # name -> [calls, inclusive s, self s]
        self.csv_bytes = 0
        self.decrease_samples = 0
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []

    def timed(self, name: str, fn):
        entry = self.stats[name]
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                entry[0] += 1
                entry[1] += dt
                entry[2] += dt - child
                if stack:
                    stack[-1] += dt

        return wrapper

    def _hooked(self, layer: str, attr: str, fn):
        """fn, extended to wrap the closures it returns or to count its inputs."""
        if (layer, attr) == ("homogeneity", "norm_evaluator"):
            def norm_evaluator(spec, dil):
                kind = "canonical" if type(spec).__name__ == "CanonicalNorm" else "norm"
                return self.timed(f"homogeneity.{kind}", fn(spec, dil))
            return norm_evaluator
        if (layer, attr) == ("plant", "make_closed_loop_field"):
            def make_closed_loop_field(*args, **kwargs):
                return self.timed("plant.field", fn(*args, **kwargs))
            return make_closed_loop_field
        if (layer, attr) == ("stability", "lyapunov_decrease_check"):
            # one canonical-norm solve per sample happens inside; count it from the input
            def lyapunov_decrease_check(traj, *args, **kwargs):
                self.decrease_samples += len(traj.times)
                return fn(traj, *args, **kwargs)
            return lyapunov_decrease_check
        if layer == "cli" and attr in CSV_RENDERERS:
            def render(*args, **kwargs):
                text = fn(*args, **kwargs)
                self.csv_bytes += len(text.encode("utf-8"))
                return text
            return render
        return fn

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"hpid.{layer}")
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrappers[obj] = self.timed(f"{layer}.{attr}", self._hooked(layer, attr, obj))
        # rebind every module-level reference, so calls through imported names are traced too
        for name, mod in list(sys.modules.items()):
            if name != "hpid" and not name.startswith("hpid."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches.clear()

    def calls(self, name: str) -> int:
        return self.stats[name][0] if name in self.stats else 0

    def self_s(self, *names: str) -> float:
        return sum(self.stats[n][2] for n in names if n in self.stats)

    def inclusive_s(self, name: str) -> float:
        return self.stats[name][1] if name in self.stats else 0.0

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer figures the benchmark reports, summed over the traced rounds."""
        canonical = ("homogeneity.canonical", "homogeneity.canonical_norm")
        return {
            "sim.simulate_calls": self.calls("sim.simulate"),
            "sim.rk4_steps": self.calls("sim.rk4_step"),
            "sim.rk4_step_s": self.self_s("sim.rk4_step"),
            "sim.simulate_s": self.self_s("sim.simulate"),
            "plant.field_evals": self.calls("plant.field"),
            "plant.field_s": self.self_s("plant.field"),
            "homogeneity.norm_evals": self.calls("homogeneity.norm"),
            "homogeneity.norm_s": self.self_s("homogeneity.norm"),
            "homogeneity.canonical_evals": sum(self.calls(n) for n in canonical) + self.decrease_samples,
            "homogeneity.canonical_s": self.self_s(*canonical),
            "stability.decrease_samples": self.decrease_samples,
            "stability.decrease_check_s": self.self_s("stability.lyapunov_decrease_check"),
            "stability.certify_calls": self.calls("stability.certify"),
            "stability.certify_s": self.self_s("stability.certify"),
            "cli.parse_s": self.self_s("cli.parse_config"),
            "cli.csv_render_s": self.self_s(*(f"cli.{n}" for n in CSV_RENDERERS)),
            "cli.csv_bytes": self.csv_bytes,
            "metrics.compare_s": self.inclusive_s("metrics.compare"),
            "checks.run_all_s": self.self_s("checks.run_all"),
        }
