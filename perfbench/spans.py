"""Span recorder for the traced run, installed from outside the program.

Each public callable listed in TARGETS is replaced, for the traced run only,
by a wrapper that records a span: name, start, end and the span that was open
when it started (its parent).  A replacement is made wherever the callable is
looked up: in its defining module, and in every zetalab module that imported
it by name (`weil` imports `jacobi_eigensystem`, `witt` imports
`rho_tilde`).  Methods are replaced on their class.  `uninstall` puts every
original back, so end-to-end runs carry no wrapper at all.

Spans are kept in memory in flat arrays and written out once, at the end.
A layer's self time is its spans' duration minus the part covered by their
child spans; calls run on one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

# (module, attribute path, span name, counter).  A counter is called with the
# call's arguments and result and returns {counter name: increment}.


def _jacobi_counts(args, kwargs, result):
    m = args[0] if args else kwargs["m"]
    return {"sweeps": result.sweeps, "work_n3": m.dim**3}


TARGETS = (
    ("zetalab.zerotable", "bundled_zero_table", "zerotable.bundled_zero_table", None),
    ("zetalab.bandfn", "LogBandFunction.mellin", "bandfn.mellin", None),
    (
        "zetalab.bandfn",
        "LogBandFunction.evaluate_log_minus_center",
        "bandfn.evaluate_log_minus_center",
        None,
    ),
    ("zetalab.weil", "explicit_formula_residual", "weil.explicit_formula_residual", None),
    ("zetalab.weil", "w_arch", "weil.w_arch", None),
    ("zetalab.weil", "w_prime", "weil.w_prime", None),
    ("zetalab.weil", "weil_gram_spectrum", "weil.weil_gram_spectrum", None),
    ("zetalab.weil", "weil_gram", "weil.weil_gram", None),
    ("zetalab.weil", "weil_gram_complex", "weil.weil_gram_complex", None),
    ("zetalab.precision", "jacobi_eigensystem", "precision.jacobi_eigensystem", _jacobi_counts),
    ("zetalab.precision", "HPMatrix.__init__", "precision.HPMatrix", None),
    ("zetalab.scaling", "pswf_basis", "scaling.pswf_basis", None),
    ("zetalab.scaling", "prolate_vectors", "scaling.prolate_vectors", None),
    ("zetalab.scaling", "dirac_matrix", "scaling.dirac_matrix", None),
    ("zetalab.scaling", "dirac_spectrum", "scaling.dirac_spectrum", None),
    ("zetalab.cyclotomy", "divisor_mul", "cyclotomy.divisor_mul", None),
    ("zetalab.cyclotomy", "sigma", "cyclotomy.sigma", None),
    ("zetalab.cyclotomy", "rho_tilde", "cyclotomy.rho_tilde", None),
    ("zetalab.witt", "tau", "witt.tau", None),
    ("zetalab.witt", "smash", "witt.smash", None),
    ("zetalab.witt", "wedge", "witt.wedge", None),
    ("zetalab.witt", "compose", "witt.compose", None),
    ("zetalab.witt", "frobenius", "witt.frobenius", None),
    ("zetalab.witt", "verschiebung", "witt.verschiebung", None),
    ("zetalab.witt", "fourier_pair", "witt.fourier_pair", None),
    ("zetalab.witt", "DivisorMatrix.__matmul__", "witt.DivisorMatrix.matmul", None),
)


class SpanRecorder:
    """Spans in flat arrays: name index, parent index (-1 for none), start, end."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name.append(self._id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, counter=None):
        recorder = self

        def wrapper(*args, **kwargs):
            idx = recorder.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.close(idx)
            if counter is not None:
                for key, inc in counter(args, kwargs, result).items():
                    full = f"{name}.{key}"
                    recorder.counters[full] = recorder.counters.get(full, 0) + inc
            return result

        return functools.wraps(fn)(wrapper)

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("span wrappers are already installed")
        for module_name, path, span_name, counter in TARGETS:
            module = importlib.import_module(module_name)
            owner_path, _, attr = path.rpartition(".")
            owner = module
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            wrapped = self.wrap(span_name, original, counter)
            self._patch(owner, attr, wrapped)
            if not isinstance(owner, type):
                # every other zetalab module that bound the same object by name
                for other_name, other in list(sys.modules.items()):
                    if other is owner or not other_name.startswith("zetalab"):
                        continue
                    for key, value in list(vars(other).items()):
                        if value is original:
                            self._patch(other, key, wrapped)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, "__dict__")[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------------

    def stats(self, since: int = 0, until: int | None = None) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds, over the spans
        opened at index `since` up to (not including) `until`."""
        import numpy as np

        n = len(self.start)
        until = n if until is None else until
        if until <= since:
            return {}
        names = np.frombuffer(self.name, dtype=np.int32)
        parents = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        child = np.zeros(n)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        own = dur - child
        out = {}
        sel = slice(since, until)
        k = len(self.names)
        calls = np.bincount(names[sel], minlength=k)
        total = np.bincount(names[sel], weights=dur[sel], minlength=k)
        self_s = np.bincount(names[sel], weights=own[sel], minlength=k)
        for i, name in enumerate(self.names):
            if calls[i]:
                out[name] = {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(self_s[i])}
        return out

    def dump(self, path) -> None:
        """Write every span as compressed arrays (numpy .npz)."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )
