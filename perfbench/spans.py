"""Outside-in span tracing of the kryging package.

:class:`Tracer` wraps, from outside the package, every public function of
each layer module and the public methods of ``BttbOperator`` and
``SparseMap``. Each call records a span: name, start, end, parent span
and run (request) id. A function imported into another module under the
same name (``evaluate_objective`` in ``estimation``, ``build_map`` in
``cli``, ``first_column`` in ``toeplitz``, ...) is patched at every
binding, so calls through any module are seen. Spans stay in memory until
:meth:`Tracer.dump` writes them out; nothing in ``src/`` is edited and
uninstalling restores every original object.

:func:`layer_metrics` turns the spans of one request into the per-layer
metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

# the package modules that count as layers; simulate and study are not traced
LAYERS = ("grid", "toeplitz", "mapping", "gengk", "likelihood", "estimation", "data", "cli")
TRACED_CLASSES = {"toeplitz": ("BttbOperator",), "mapping": ("SparseMap",)}


class Span:
    __slots__ = ("name", "start", "end", "parent", "run", "error", "attrs")

    def as_dict(self, index: int) -> dict:
        return {
            "id": index,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "run": self.run,
            "error": self.error,
            "attrs": self.attrs,
        }


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _note_factorization(fn, args, kwargs, result) -> dict:
    amap = _bound(fn, args, kwargs)["amap"]
    return {
        "k_eff": result.k,
        "breakdown": result.breakdown_at is not None,
        "p": amap.p,
        "n": amap.n,
        "nnz": int(amap.matrix.nnz),
        "basis_cols": result.U.shape[1],
    }


def _note_operator(fn, args, kwargs, result) -> dict:
    op = args[0]
    # the padded fast-length layout matvecs run on; the minimal embedding
    # when the operator keeps no separate one
    dims = getattr(op, "_fast_dims", op.embed_dims)
    return {"clamp_fraction": op.clamp_fraction, "fft_dims": list(dims), "n": op.grid.n}


def _note_fit(fn, args, kwargs, result) -> dict:
    return {
        "evals": result.iterations,
        "accepted": len(result.objective_trace) - 1,
        "converged": bool(result.converged),
    }


ANNOTATORS = {
    "gengk.gengk_factorize": _note_factorization,
    "toeplitz.BttbOperator.__init__": _note_operator,
    "estimation.fit": _note_fit,
}


class Tracer:
    """Records spans around calls into the kryging layers between
    :meth:`install` and :meth:`uninstall`; :attr:`run` tags the spans of
    the current request."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run = None
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        annotate = ANNOTATORS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span()
            span.name, span.parent, span.run = name, stack[-1] if stack else -1, self.run
            span.error = span.attrs = None
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = clock()
                stack.pop()
            if annotate is not None:
                span.attrs = annotate(fn, args, kwargs, result)
            return result

        return traced

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        package = [m for n, m in sys.modules.items() if n == "kryging" or n.startswith("kryging.")]
        for layer in LAYERS:
            mod = importlib.import_module(f"kryging.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                wrapped = self._wrap(f"{layer}.{attr}", obj)
                for owner in package:
                    for bound_name, value in list(vars(owner).items()):
                        if value is obj:
                            self._undo.append((owner, bound_name, obj))
                            setattr(owner, bound_name, wrapped)
            for cls_name in TRACED_CLASSES.get(layer, ()):
                cls = getattr(mod, cls_name)
                for attr, raw in list(vars(cls).items()):
                    if attr.startswith("_") and attr != "__init__":
                        continue
                    name = f"{layer}.{cls_name}.{attr}"
                    if isinstance(raw, classmethod):
                        new = classmethod(self._wrap(name, raw.__func__))
                    elif inspect.isfunction(raw):
                        new = self._wrap(name, raw)
                    else:
                        continue
                    self._undo.append((cls, attr, raw))
                    setattr(cls, attr, new)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def dump(self, path, header: dict):
        """Write ``header`` and then one JSON line per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for i, span in enumerate(self.spans):
                fh.write(json.dumps(span.as_dict(i)) + "\n")


# per-layer metric name -> (unit, better), in report order
PER_LAYER = {
    "toeplitz.matvec.calls": ("count", "lower"),
    "toeplitz.matvec.ms": ("ms", "lower"),
    "toeplitz.matvec.s": ("s", "lower"),
    "toeplitz.matvec.fft_points": ("count", "lower"),
    "toeplitz.matvec.bytes": ("B", "lower"),
    "toeplitz.matvec.per_eval": ("count", "lower"),
    "toeplitz.matvec.per_replicate": ("count", "lower"),
    "gengk.factorize.calls": ("count", "lower"),
    "gengk.factorize.ms": ("ms", "lower"),
    "gengk.factorize.self_s": ("s", "lower"),
    "gengk.k_eff": ("count", "lower"),
    "gengk.breakdowns": ("count", "lower"),
    "gengk.solve.ms": ("ms", "lower"),
    "gengk.basis_bytes": ("B", "lower"),
    "mapping.apply.calls": ("count", "lower"),
    "mapping.apply.s": ("s", "lower"),
    "mapping.apply_t.calls": ("count", "lower"),
    "mapping.apply_t.s": ("s", "lower"),
    "mapping.build_map.s": ("s", "lower"),
    "mapping.nnz": ("count", "lower"),
    "toeplitz.build.calls": ("count", "lower"),
    "toeplitz.build.ms": ("ms", "lower"),
    "toeplitz.build.s": ("s", "lower"),
    "grid.first_column.calls": ("count", "lower"),
    "grid.first_column.s": ("s", "lower"),
    "toeplitz.sample.calls": ("count", "lower"),
    "toeplitz.sample.ms": ("ms", "lower"),
    "toeplitz.logdet.s": ("s", "lower"),
    "toeplitz.dlogdet.s": ("s", "lower"),
    "toeplitz.clamp_fraction": ("ratio", "lower"),
    "likelihood.evaluate.calls": ("count", "lower"),
    "likelihood.evaluate.ms": ("ms", "lower"),
    "likelihood.evaluate.self_s": ("s", "lower"),
    "likelihood.embedding_errors": ("count", "lower"),
    "estimation.fit.evals": ("count", "lower"),
    "estimation.fit.accepted": ("count", "higher"),
    "estimation.fit.accept_ratio": ("ratio", "higher"),
    "estimation.fit.converged": ("ratio", "higher"),
    "estimation.fit.self_s": ("s", "lower"),
    "estimation.bootstrap.replicate_ms": ("ms", "lower"),
    "estimation.bootstrap_uq.s": ("s", "lower"),
    "estimation.predict.ms": ("ms", "lower"),
    "data.load_fit_artifact.s": ("s", "lower"),
    "data.read_locations.s": ("s", "lower"),
    "data.write_predictions.s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead": ("ratio", "lower"),
}

# per-layer metrics derived from array shapes rather than timed
COMPUTED = ("toeplitz.matvec.fft_points", "toeplitz.matvec.bytes", "gengk.basis_bytes")

MATVEC = "toeplitz.BttbOperator.matvec"
SAMPLE = "toeplitz.BttbOperator.sample"


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def _children(spans: list, members) -> dict:
    kids: dict = {}
    for i in members:
        kids.setdefault(spans[i].parent, []).append(i)
    return kids


def _descendants(kids: dict, i: int):
    todo = list(kids.get(i, ()))
    while todo:
        j = todo.pop()
        yield j
        todo.extend(kids.get(j, ()))


def _layer_self(spans, kids, i) -> float:
    """Time inside span ``i`` not covered by the nearest descendant spans of
    another layer: the span's own layer code, its same-layer callees included."""
    layer = _layer(spans[i].name)
    covered = 0.0
    todo = list(kids.get(i, ()))
    while todo:
        j = todo.pop()
        if _layer(spans[j].name) == layer:
            todo.extend(kids.get(j, ()))
        else:
            covered += spans[j].end - spans[j].start
    return spans[i].end - spans[i].start - covered


def matvec_traffic(fft_dims, n: int) -> tuple:
    """Computed FFT points and bytes moved by one matvec on the padded
    ``fft_dims`` layout of an ``n``-node lattice, counting each array
    read or written once (float64 real, complex128 spectrum)."""
    f1, f2 = fft_dims
    real, half = f1 * f2, f2 * (f1 // 2 + 1)
    moved = (
        8 * real + 16 * n  # zero the padded input, copy the lattice block in
        + 8 * real + 16 * half  # rfft2
        + (16 + 8 + 16) * half  # multiply by the real spectrum
        + 16 * half + 8 * real  # irfft2
        + 16 * n  # extract the lattice block
    )
    return real, moved


def layer_metrics(spans: list, run) -> dict:
    """Per-layer metrics of request ``run`` from the recorded spans (all but
    ``trace.overhead``, which needs the untraced wall time)."""
    members = [i for i, s in enumerate(spans) if s.run == run]
    kids = _children(spans, members)
    by_name: dict = {}
    for i in members:
        by_name.setdefault(spans[i].name, []).append(i)

    def calls(*names):
        return sum(len(by_name.get(n, ())) for n in names)

    def total_s(*names):
        return sum(spans[i].end - spans[i].start for n in names for i in by_name.get(n, ()))

    def mean_ms(*names):
        c = calls(*names)
        return 1e3 * total_s(*names) / c if c else 0.0

    def self_s(name):
        return sum(_layer_self(spans, kids, i) for i in by_name.get(name, ()))

    def attrs(name):
        return [spans[i].attrs for i in by_name.get(name, ()) if spans[i].attrs]

    def within(name, parents):
        return sum(spans[j].name == name for i in parents for j in _descendants(kids, i))

    facts = attrs("gengk.gengk_factorize")
    ops = attrs("toeplitz.BttbOperator.__init__")
    fits = attrs("estimation.fit")
    fft_points, mv_bytes = 0, 0
    if ops:
        fft_points, mv_bytes = matvec_traffic(
            max(tuple(o["fft_dims"]) for o in ops), max(o["n"] for o in ops)
        )

    evals = by_name.get("likelihood.evaluate_objective", [])
    boots = by_name.get("estimation.bootstrap_uq", [])
    n_reps = within(SAMPLE, boots)
    # a bootstrap replicate runs from its draw to the next one (the last to
    # the end of bootstrap_uq); the spans give no finer replicate boundary
    rep_s = 0.0
    for i in boots:
        draws = [spans[j].start for j in _descendants(kids, i) if spans[j].name == SAMPLE]
        if draws:
            rep_s += spans[i].end - min(draws)

    evaluated = sum(f["evals"] for f in fits)
    accepted = sum(f["accepted"] for f in fits)
    return {
        "toeplitz.matvec.calls": calls(MATVEC),
        "toeplitz.matvec.ms": mean_ms(MATVEC),
        "toeplitz.matvec.s": total_s(MATVEC),
        "toeplitz.matvec.fft_points": fft_points,
        "toeplitz.matvec.bytes": mv_bytes,
        "toeplitz.matvec.per_eval": within(MATVEC, evals) / len(evals) if evals else 0.0,
        "toeplitz.matvec.per_replicate": within(MATVEC, boots) / n_reps if n_reps else 0.0,
        "gengk.factorize.calls": calls("gengk.gengk_factorize"),
        "gengk.factorize.ms": mean_ms("gengk.gengk_factorize"),
        "gengk.factorize.self_s": self_s("gengk.gengk_factorize"),
        "gengk.k_eff": sum(f["k_eff"] for f in facts) / len(facts) if facts else 0.0,
        "gengk.breakdowns": sum(f["breakdown"] for f in facts),
        "gengk.solve.ms": mean_ms("gengk.solve"),
        "gengk.basis_bytes": max((8 * f["basis_cols"] * (f["p"] + f["n"]) for f in facts), default=0),
        "mapping.apply.calls": calls("mapping.SparseMap.apply"),
        "mapping.apply.s": total_s("mapping.SparseMap.apply"),
        "mapping.apply_t.calls": calls("mapping.SparseMap.apply_t"),
        "mapping.apply_t.s": total_s("mapping.SparseMap.apply_t"),
        "mapping.build_map.s": total_s("mapping.build_map"),
        "mapping.nnz": max((f["nnz"] for f in facts), default=0),
        "toeplitz.build.calls": calls("toeplitz.BttbOperator.__init__"),
        "toeplitz.build.ms": mean_ms("toeplitz.BttbOperator.__init__"),
        "toeplitz.build.s": total_s("toeplitz.BttbOperator.__init__"),
        "grid.first_column.calls": calls("grid.first_column", "grid.first_column_drho"),
        "grid.first_column.s": total_s("grid.first_column", "grid.first_column_drho"),
        "toeplitz.sample.calls": calls(SAMPLE),
        "toeplitz.sample.ms": mean_ms(SAMPLE),
        "toeplitz.logdet.s": total_s("toeplitz.BttbOperator.logdet"),
        "toeplitz.dlogdet.s": total_s("toeplitz.dlogdet_drho"),
        "toeplitz.clamp_fraction": max((o["clamp_fraction"] for o in ops), default=0.0),
        "likelihood.evaluate.calls": len(evals),
        "likelihood.evaluate.ms": mean_ms("likelihood.evaluate_objective"),
        "likelihood.evaluate.self_s": self_s("likelihood.evaluate_objective"),
        "likelihood.embedding_errors": sum(spans[i].error == "EmbeddingError" for i in evals),
        "estimation.fit.evals": evaluated,
        "estimation.fit.accepted": accepted,
        "estimation.fit.accept_ratio": accepted / evaluated if evaluated else 0.0,
        "estimation.fit.converged": sum(f["converged"] for f in fits) / len(fits) if fits else 0.0,
        "estimation.fit.self_s": self_s("estimation.fit"),
        "estimation.bootstrap.replicate_ms": 1e3 * rep_s / n_reps if n_reps else 0.0,
        "estimation.bootstrap_uq.s": total_s("estimation.bootstrap_uq"),
        "estimation.predict.ms": mean_ms("estimation.predict"),
        "data.load_fit_artifact.s": total_s("data.load_fit_artifact"),
        "data.read_locations.s": total_s("data.read_locations"),
        "data.write_predictions.s": total_s("data.write_predictions"),
        "cli.self_s": self_s("cli.main"),
    }
