"""Per-layer spans around the calls into each `hypb` module.

The tracer wraps functions at run time, from outside the program; no file
of the package changes.  A name is wrapped where its caller looks it up:
every module of the package that bound the function at import (for
example `transforms` binds `planar_table`, `verify` binds `lp_norm`), and
the module-level tables that hold functions (`transforms._DISPATCH`,
`verify.CHECKS`).  `scipy.signal.fftconvolve` is wrapped as `transforms`
and `verify` see it, through a stand-in for their `signal` name.

Each span records its name, layer, parent span, start and end, plus the
counts named below; spans are kept in memory and written out at the end.
A layer's self time is its spans' time less the time of their child spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

import numpy as np
from scipy import fft as sfft

LAYERS = ("kernels", "transforms", "testfuncs", "grid", "calculus", "whittaker",
          "verify", "report", "cli")

# private helpers wrapped for the counts and times they alone can give
PRIVATE = {
    "transforms": ("_planar_quad", "_two_term_quad", "_product_quad", "_beurling_multiplier"),
    "cli": ("_write_rows",),
}

GROUPS = {
    ("kernels", "planar_table"): "table",
    ("kernels", "mirror_table"): "table",
    ("kernels", "avg_inv"): "avg",
    ("kernels", "avg_inv_sq"): "avg",
    ("transforms", "_planar_quad"): "quad",
    ("transforms", "_two_term_quad"): "quad",
    ("transforms", "_product_quad"): "quad_product",
    ("transforms", "_beurling_multiplier"): "multiplier",
    ("testfuncs", "sample"): "sample",
    ("grid", "lp_norm"): "norm",
    ("grid", "inner_product"): "norm",
    ("grid", "extend_odd"): "extend",
    ("grid", "restrict_upper"): "extend",
    ("grid", "reflect_field"): "extend",
    ("whittaker", "lemma_a1_classify"): "classify",
    ("whittaker", "partial_fourier"): "partial_fourier",
    ("whittaker", "inverse_partial_fourier"): "partial_fourier",
    ("whittaker", "whittaker_X"): "branch",
    ("whittaker", "whittaker_Y"): "branch",
    ("whittaker", "x_integral"): "integral",
    ("whittaker", "y_integral"): "integral",
    ("whittaker", "ode_residual"): "ode_residual",
    ("report", "reports_to_json"): "json",
    ("cli", "_write_rows"): "rows",
}


def _fft_points_conv(a, b):
    """Points of the three FFTs `fftconvolve` runs, at its padded shape."""
    shape = [sfft.next_fast_len(int(s1) + int(s2) - 1, True)
             for s1, s2 in zip(np.shape(a), np.shape(b))]
    return 3 * int(np.prod(shape))


def _extra(name, group, args, kwargs, result):
    if group == "table":
        key = (name, args, sorted(kwargs.items()))
        return {"key": repr(key), "cells": int(np.size(result))}
    if group == "sample":
        fn, spec = args[0], args[1]
        which = args[2] if len(args) > 2 else kwargs.get("which", "f")
        cell_avg = args[3] if len(args) > 3 else kwargs.get("cell_avg", False)
        key = (fn.describe(), repr(spec), which, bool(cell_avg))
        return {"key": repr(key), "points": spec.nx * spec.ny * (9 if cell_avg else 1)}
    if group == "conv":
        return {"fft_points": _fft_points_conv(args[0], args[1])}
    if group == "multiplier":
        data, padding = args[0], args[3]
        return {"fft_points": 2 * padding * padding * int(np.size(data))}
    if group == "quad_product":
        # one FFT of the input rows, then per output row one FFT of each kernel
        # row and one inverse FFT, all at length 3 nx - 2
        ny, nx = args[0].spec.ny, args[0].spec.nx
        return {"fft_points": (3 * nx - 2) * (ny + ny * (ny + 1))}
    if group == "integral":
        return {"points": int(np.size(args[0]))}
    if group == "rows":
        header, rows = args[1], args[2]
        return {"rows": len(rows),
                "bytes": len(header) + 1 + sum(len(r) + 1 for r in rows)}
    return {}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, layer, group, parent, start, end, extra]
        self._stack = []

    def wrap(self, fn, name, layer, group=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, layer, group, stack[-1] if stack else -1, 0.0, 0.0, None]
            sid = len(spans)
            spans.append(rec)
            stack.append(sid)
            result = None
            rec[4] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                rec[5] = time.perf_counter()
                stack.pop()
                if group is not None:
                    rec[6] = _extra(name, group, args, kwargs, result)

        traced.__bench_traced__ = True
        return traced

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "layer", "group", "parent", "start", "end", "extra"],
                       "spans": self.spans}, fh)


class _Stand:
    """A module stand-in that overrides some attributes and forwards the rest."""

    def __init__(self, module, **override):
        self._module = module
        self.__dict__.update(override)

    def __getattr__(self, name):
        return getattr(self._module, name)


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer, where their callers look them up."""
    mods = {layer: sys.modules[f"hypb.{layer}"] for layer in LAYERS}
    swaps = {}
    for layer, mod in mods.items():
        names = list(getattr(mod, "__all__", [])) or [
            n for n in vars(mod) if not n.startswith("_")]
        names += PRIVATE.get(layer, ())
        for name in names:
            fn = getattr(mod, name, None)
            if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            swaps[id(fn)] = (fn, tracer.wrap(fn, f"{layer}.{name}", layer,
                                             GROUPS.get((layer, name))))
    for mod in list(sys.modules.values()):
        if not getattr(mod, "__name__", "").startswith("hypb"):
            continue
        for attr, value in list(vars(mod).items()):
            if id(value) in swaps and swaps[id(value)][0] is value:
                setattr(mod, attr, swaps[id(value)][1])
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if id(v) in swaps and swaps[id(v)][0] is v:
                        value[k] = swaps[id(v)][1]
    checks = mods["verify"].CHECKS
    for cid, fn in list(checks.items()):
        checks[cid] = tracer.wrap(fn, f"verify.{cid}", "verify", f"check:{cid}")
    for layer in ("transforms", "verify"):
        mod = mods[layer]
        sig = getattr(mod, "signal", None)
        if sig is not None and hasattr(sig, "fftconvolve"):
            conv = tracer.wrap(sig.fftconvolve, f"{layer}.fftconvolve", "scipy",
                               "conv" if layer == "transforms" else None)
            mod.signal = _Stand(sig, fftconvolve=conv)


# ---------------------------------------------------------------------------
# per-layer metrics


def metrics(spans, check_ids) -> dict:
    """Counts and times per layer; time metrics count nested spans of a group once."""
    n = len(spans)
    child_time = [0.0] * n
    for name, layer, group, parent, start, end, extra in spans:
        if parent >= 0:
            child_time[parent] += end - start
    # the group of the nearest enclosing span of the same group, if any
    def outermost(i):
        g = spans[i][2]
        p = spans[i][3]
        while p >= 0:
            if spans[p][2] == g:
                return False
            p = spans[p][3]
        return True

    count, total, keys, extra_sum, self_s = {}, {}, {}, {}, {}
    for i, (name, layer, group, parent, start, end, extra) in enumerate(spans):
        dur = end - start
        self_s[layer] = self_s.get(layer, 0.0) + dur - child_time[i]
        if group is None:
            continue
        count[group] = count.get(group, 0) + 1
        if outermost(i):
            total[group] = total.get(group, 0.0) + dur
        for k, v in (extra or {}).items():
            if k == "key":
                keys.setdefault(group, set()).add(v)
            else:
                extra_sum[(group, k)] = extra_sum.get((group, k), 0) + v

    def c(g):
        return count.get(g, 0)

    def s(g):
        return total.get(g, 0.0)

    def x(g, k):
        return extra_sum.get((g, k), 0)

    op_calls = sum(1 for sp in spans if sp[1] == "transforms" and sp[2] is None)
    calculus_calls = sum(1 for sp in spans if sp[1] == "calculus")
    calculus_s = sum((sp[5] - sp[4] for sp in spans
                      if sp[1] == "calculus" and (sp[3] < 0 or spans[sp[3]][1] != "calculus")), 0.0)
    out = {
        "kernels.table_calls": (c("table"), "count"),
        "kernels.table_distinct": (len(keys.get("table", ())), "count"),
        "kernels.table_cells": (x("table", "cells"), "count"),
        "kernels.table_s": (s("table"), "s"),
        "kernels.avg_calls": (c("avg"), "count"),
        "kernels.avg_s": (s("avg"), "s"),
        "transforms.op_calls": (op_calls, "count"),
        "transforms.self_s": (self_s.get("transforms", 0.0), "s"),
        "transforms.conv_calls": (c("conv"), "count"),
        "transforms.conv_s": (s("conv"), "s"),
        "transforms.fft_points": (x("conv", "fft_points") + x("multiplier", "fft_points")
                                  + x("quad_product", "fft_points"), "count"),
        "transforms.quad_s": (s("quad") + s("quad_product"), "s"),
        "testfuncs.sample_calls": (c("sample"), "count"),
        "testfuncs.sample_distinct": (len(keys.get("sample", ())), "count"),
        "testfuncs.sample_points": (x("sample", "points"), "count"),
        "testfuncs.sample_s": (s("sample"), "s"),
        "grid.norm_calls": (c("norm"), "count"),
        "grid.norm_s": (s("norm"), "s"),
        "grid.extend_s": (s("extend"), "s"),
        "calculus.calls": (calculus_calls, "count"),
        "calculus.s": (calculus_s, "s"),
        "whittaker.classify_calls": (c("classify"), "count"),
        "whittaker.classify_s": (s("classify"), "s"),
        "whittaker.partial_fourier_s": (s("partial_fourier"), "s"),
        "whittaker.branch_points": (x("integral", "points"), "count"),
        "whittaker.branch_s": (s("branch"), "s"),
        "whittaker.ode_residual_s": (s("ode_residual"), "s"),
    }
    for cid in check_ids:
        out[f"verify.{cid}_s"] = (s(f"check:{cid}"), "s")
    out.update({
        "verify.self_s": (self_s.get("verify", 0.0), "s"),
        "report.json_s": (s("json"), "s"),
        "cli.self_s": (self_s.get("cli", 0.0), "s"),
        "cli.rows_written": (x("rows", "rows"), "count"),
        "cli.bytes_written": (x("rows", "bytes"), "count"),
    })
    return out
