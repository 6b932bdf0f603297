"""Per-layer tracing of capelli_lab from outside the package.

The tracer replaces each traced function or method with a wrapper, at
every place the package binds it: module attributes (including the
copies made by ``from .x import f``), class attributes (including
aliases such as ``Cyclo.__rmul__ = __mul__``) and the CLI check
registry.  Nothing under ``src/`` is edited; ``uninstall`` puts every
original back.

Each wrapped call adds to its layer's call count and inclusive time;
``self`` time is inclusive time minus the time of wrapped calls beneath
it.  Calls at coarse boundaries also record a span (name, start, end,
parent span, job id).  The hot arithmetic (``Cyclo``, convolution,
``WeylOp`` and ``ZPoly`` products) is counted and summed only, because it
runs millions of times per pass.  Everything runs on one thread, so no
layer queues or waits and no wait time is recorded.
"""

from __future__ import annotations

import sys
import time

PACKAGE = "capelli_lab"


class Layer:
    __slots__ = ("calls", "inclusive", "self_time", "depth")

    def __init__(self):
        self.calls = 0
        self.inclusive = 0.0
        self.self_time = 0.0
        self.depth = 0


class Tracer:
    def __init__(self):
        self.layers: dict[str, Layer] = {}
        self.extra = {"weyl.mul_term_pairs": 0, "weyl.peak_terms": 0, "cyclo.mul_small_field": 0}
        self.spans: list[tuple] = []
        self.job = None
        self._child_time: list[float] = []
        self._span_stack: list[int] = []
        self._patched: list[tuple] = []

    # -- recording ------------------------------------------------------------

    def layer(self, name: str) -> Layer:
        return self.layers.setdefault(name, Layer())

    def reset(self):
        for rec in self.layers.values():
            rec.calls, rec.inclusive, rec.self_time = 0, 0.0, 0.0
        for key in self.extra:
            self.extra[key] = 0
        self.spans.clear()

    def _wrap(self, name, fn, span, before=None):
        rec = self.layer(name)
        child_time = self._child_time
        span_stack = self._span_stack
        spans = self.spans
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None and before(args) is False:
                return fn(*args, **kwargs)
            if span:
                span_id = len(spans)
                spans.append(None)
                span_stack.append(span_id)
            rec.depth += 1
            child_time.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                rec.depth -= 1
                rec.calls += 1
                rec.self_time += elapsed - child_time.pop()
                if rec.depth == 0:
                    rec.inclusive += elapsed
                if child_time:
                    child_time[-1] += elapsed
                if span:
                    span_stack.pop()
                    parent = span_stack[-1] if span_stack else None
                    spans[span_id] = (span_id, parent, self.job, name, start, end)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation -----------------------------------------------------------

    def _replace_everywhere(self, original, wrapper):
        """Point every binding of ``original`` inside the package at ``wrapper``."""
        found = 0
        for mod_name, module in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if value is original:
                    self._patched.append((namespace, key, original))
                    namespace[key] = wrapper
                    found += 1
        if not found:
            raise RuntimeError(f"no binding of {original!r} found to trace")

    def _patch_function(self, module, attr, name):
        original = getattr(module, attr)
        self._replace_everywhere(original, self._wrap(name, original, span=True))

    def _patch_method(self, cls, attr, name, span=False, before=None):
        original = cls.__dict__[attr]
        wrapper = self._wrap(name, original, span, before)
        for key, value in list(cls.__dict__.items()):
            if value is original:
                self._patched.append((cls, key, original))
                setattr(cls, key, wrapper)

    def install(self, pkg):
        """Wrap the public functions of each capelli_lab module (``pkg`` is
        the imported package; its submodules must be imported)."""
        cli, catalog, groups, irreps = pkg.cli, pkg.catalog, pkg.groups, pkg.irreps
        capelli, ncdet, weyl, algebra = pkg.capelli, pkg.ncdet, pkg.weyl, pkg.algebra
        linalg, cyclo = pkg.linalg, pkg.cyclo
        extra = self.extra

        for check, fn in list(cli.CHECKS.items()):
            wrapper = self._wrap(f"cli.check.{check}", fn, span=True)
            self._patched.append((cli.CHECKS, check, fn))
            cli.CHECKS[check] = wrapper
        self._patch_function(cli, "resolve_group", "cli.resolve")
        self._patch_function(cli, "resolve_irreps", "cli.resolve")
        self._patch_function(cli, "_emit", "cli.emit")

        self._patch_function(catalog, "catalog_group", "catalog.build")
        self._patch_function(catalog, "catalog_irreps", "catalog.build")

        self._patch_function(groups, "build_group_from_table", "groups.build_table")
        self._patch_function(groups, "conjugacy_classes", "groups.conjugacy_classes")

        self._patch_function(irreps, "load_irrep", "irreps.load")
        self._patch_function(irreps, "validate", "irreps.validate")
        self._patch_function(irreps, "E_matrix", "irreps.e_matrix")
        self._patch_function(irreps, "verify_schur_products", "irreps.schur")

        self._patch_function(capelli, "capelli_element", "capelli.element")

        self._patch_function(ncdet, "coldet", "ncdet.coldet")
        self._patch_function(ncdet, "rowdet", "ncdet.rowdet")
        self._patch_function(ncdet, "doubledet", "ncdet.doubledet")
        self._patch_function(ncdet, "positioned_doubledet", "ncdet.doubledet")
        self._patch_method(ncdet.ZPoly, "__mul__", "ncdet.zpoly_mul")

        def weyl_product(args):
            a, b = args
            if not isinstance(b, weyl.WeylOp):
                return False
            extra["weyl.mul_term_pairs"] += len(a.terms) * len(b.terms)
            extra["weyl.peak_terms"] = max(extra["weyl.peak_terms"], len(a.terms), len(b.terms))
            return True

        self._patch_method(weyl.WeylOp, "__mul__", "weyl.mul", before=weyl_product)
        self._patch_function(weyl, "commutator", "weyl.commutator")

        def convolution(args):
            return isinstance(args[1], algebra.AlgebraElement)

        self._patch_method(algebra.AlgebraElement, "__mul__", "algebra.mul", before=convolution)
        self._patch_method(algebra.AlgebraElement, "is_central", "algebra.is_central", span=True)

        self._patch_function(linalg, "rank", "linalg.rank")
        self._patch_function(linalg, "mat_inverse", "linalg.inverse")

        def small_field(args):
            if len(args[0].num) == 1:
                extra["cyclo.mul_small_field"] += 1
            return True

        self._patch_method(cyclo.Cyclo, "__mul__", "cyclo.mul", before=small_field)
        self._patch_method(cyclo.Cyclo, "__add__", "cyclo.add")
        self._patch_method(cyclo.Cyclo, "inverse", "cyclo.inverse")

    def uninstall(self):
        for target, key, original in reversed(self._patched):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._patched.clear()
