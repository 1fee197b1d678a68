"""Per-layer call counts and busy time for dvpsched, recorded by wrapping
the public functions of its modules from outside the program.

A function is looked up under several names: `semistatic` and `dvp` import
`wtb_min_s`, `exact_dvp_chain`, `binomial_pmf` and others directly, and the
package re-exports them. Every module namespace that holds the function
object gets the same wrapper, so each call is seen once whichever name it
went through. The dense transition kernel is a class, so its `__init__` is
wrapped and reported as the layer `mdp.kernel`.

Timed wrappers keep a stack of the time their nested timed calls took, so
each span has an inclusive and a self time. The innermost helpers that run
millions of times per sweep are only counted: timing them would cost more
than the work they do.
"""
from __future__ import annotations

import inspect
import time
from collections import defaultdict

COUNT_ONLY = frozenset(
    {
        "model.binomial_pmf",
        "model.binomial_cdf",
        "model.binomial_tail_at_most",
        "model.step_queues",
        "mdp.transition_probs",
        "mdp.state_index",
        "mdp.reward",
        "mdp.baseline_policy",
        "mdp.baseline_actions",
        "dvp.wtb",
        "dvp.wtb_gradient",
        "dvp.bound_terms",
        "dvp.dvpub",
    }
)


class Tracer:
    """Install with `install()`, run the work, then `uninstall()`.

    calls[name], total[name] and self_time[name] (seconds) are kept per
    layer name `<module>.<function>`; kernel_bytes is the largest dense
    kernel built."""

    def __init__(self, package, modules):
        self.package = package
        self.modules = modules
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.kernel_bytes = 0
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []

    def _timed(self, fn, name):
        calls, total, self_time, stack = self.calls, self.total, self.self_time, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                child = stack.pop()
                calls[name] += 1
                total[name] += dur
                self_time[name] += dur - child
                if stack:
                    stack[-1] += dur

        return wrapper

    def _counted(self, fn, name):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        namespaces = [self.package, *self.modules]
        wrappers = {}
        for module in self.modules:
            short = module.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                name = f"{short}.{attr}"
                make = self._counted if name in COUNT_ONLY else self._timed
                wrappers[id(obj)] = make(obj, name)
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patches.append((ns, attr, obj))
                    setattr(ns, attr, wrapper)

        kernel_cls = self.package.mdp.TransitionKernel
        init = kernel_cls.__init__
        timed_init = self._timed(init, "mdp.kernel")

        def kernel_init(kernel, *args, **kwargs):
            timed_init(kernel, *args, **kwargs)
            self.kernel_bytes = max(self.kernel_bytes, kernel.P.nbytes)

        self._patches.append((kernel_cls, "__init__", init))
        kernel_cls.__init__ = kernel_init

    def uninstall(self) -> None:
        for ns, attr, obj in reversed(self._patches):
            setattr(ns, attr, obj)
        self._patches.clear()

    def module_self_ms(self, short: str) -> float:
        """Self time of every span of one module, in milliseconds."""
        prefix = short + "."
        return 1e3 * sum(t for n, t in self.self_time.items() if n.startswith(prefix))
