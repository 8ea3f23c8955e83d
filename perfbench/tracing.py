"""Span tracing of the sdah layers, installed from outside the package.

A `Tracer` replaces public functions of the `src/sdah` modules with timed
wrappers.  Each wrapper is bound under every name that pointed at the
original, in every loaded `sdah` module, so `conv2d` is traced whether it is
called from `blocks`, `attention` or `convops` itself.  A function that is
missing (renamed or removed) is reported in `absent` and the run goes on.

Spans are `[name, start, end, parent, info]` lists kept in memory; `parent`
indexes the enclosing span (-1 at top level).  Backward time is attributed
to the layer whose forward call created each graph node: when a wrapped call
returns, every graph node reachable from its result that was created inside
the call (the walk stops at the call's own tensor arguments) gets its VJP
wrapped in a `vjp` span whose info is the index of the creating span.  The
spans themselves never change the arithmetic: wrappers pass arguments and
results through untouched.

`layer_sums` folds a finished span list into additive totals, so a long run
can fold and drop spans as it goes; `layer_metrics` turns the totals into the
per-layer metrics, per unit of work (a train step or an image).
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import Counter
from contextlib import contextmanager

clock = time.perf_counter

TENSOR_PRIMITIVES = (
    "add", "sub", "mul", "div", "neg", "clip", "matmul", "reshape",
    "transpose", "swap_last", "roll", "concat", "narrow", "broadcast_to",
    "tsum", "tmean", "gelu", "tanh", "softmax", "layer_norm",
)
BLOCK_SPANS = ("stem", "enc1", "enc2", "enc3", "bottleneck",
               "dec3", "dec2", "dec1", "head", "resample")
BLOCK_FUNCS = {"conv_embed": "blocks.stem", "deconv_expand": "blocks.head",
               "downsample": "blocks.resample", "upsample": "blocks.resample",
               "skip_fuse": "blocks.resample"}
CONV_KINDS = ("depthwise", "dense", "deconv")
SAMPLE_KINDS = ("features", "bias")
TOP_LEVEL = ("training.train", "cli")  # spans whose children should cover them
IO_WRITERS = {"save_checkpoint": "io.ckpt_save", "save_sdt1": "io.sdt1_save",
              "write_pgm": "io.pixmap_write", "write_ppm": "io.pixmap_write"}


class _TimedVJP:
    """Stands in for a graph node's VJP and records a `vjp` span."""

    __slots__ = ("fn", "creator", "tracer")

    def __init__(self, fn, creator, tracer):
        self.fn = fn
        self.creator = creator
        self.tracer = tracer

    def __call__(self, g):
        tr = self.tracer
        stack = tr.stack
        rec = ["vjp", 0.0, 0.0, stack[-1] if stack else -1, self.creator]
        stack.append(len(tr.spans))
        tr.spans.append(rec)
        rec[1] = clock()
        try:
            return self.fn(g)
        finally:
            rec[2] = clock()
            stack.pop()


def _tensors_in(obj, tensor_type) -> list:
    if isinstance(obj, tensor_type):
        return [obj]
    if isinstance(obj, (tuple, list)):
        return [t for o in obj for t in _tensors_in(o, tensor_type)]
    return []


def _size_of(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


class Tracer:
    """Installs the layer wrappers; use as a context manager."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.absent: list[str] = []
        self.block_ids: dict[int, str] = {}
        self.flops_cache: dict = {}
        self._restore: list = []

    # -- installation -----------------------------------------------------

    def __enter__(self) -> "Tracer":
        import importlib

        import sdah.network
        import sdah.tensor as T

        self._tensor_type = T.Tensor
        self._spent = getattr(T, "_SPENT", None)
        self._tile_positions = getattr(sys.modules.get("sdah.inference"),
                                       "tile_positions", None)
        self._count_flops = getattr(sdah.network, "count_flops", None)
        plan = self._plan()
        by_id = {}
        for modname, attr, make in plan:
            try:  # the CLI imports some modules lazily: bind them up front
                mod = importlib.import_module(f"sdah.{modname}")
            except ImportError:
                mod = None
            fn = getattr(mod, attr, None)
            if not callable(fn):
                self.absent.append(f"{modname}.{attr}")
                continue
            by_id[id(fn)] = (fn, make(fn))
        mods = [m for n, m in list(sys.modules.items())
                if m is not None and (n == "sdah" or n.startswith("sdah."))]
        for mod in mods:
            for name, val in list(vars(mod).items()):
                hit = by_id.get(id(val))
                if hit is not None and hit[0] is val:
                    self._restore.append((mod, name, val))
                    setattr(mod, name, hit[1])
        backward = getattr(T.Tensor, "backward", None)
        if callable(backward):
            self._restore.append((T.Tensor, "backward", backward))
            T.Tensor.backward = self._wrap(backward, "tensor.backward", label=False)
        else:
            self.absent.append("tensor.Tensor.backward")
        return self

    def __exit__(self, *exc):
        for owner, name, val in reversed(self._restore):
            setattr(owner, name, val)
        self._restore.clear()
        return False

    def _plan(self) -> list:
        w = self._wrap
        plan = [("tensor", p, lambda fn: w(fn, "tensor")) for p in TENSOR_PRIMITIVES]
        plan += [
            ("convops", "conv2d", lambda fn: w(fn, self._conv_name, post=self._conv_flops)),
            ("convops", "deconv2d", lambda fn: w(fn, "convops.deconv", post=self._deconv_flops)),
            ("sampling", "bilinear_sample_batch",
             lambda fn: w(fn, self._sample_name, info=self._sample_points)),
            ("sampling", "bilinear_resize", lambda fn: w(fn, "sampling.resize")),
            ("attention", "sdmsa", lambda fn: w(fn, "attention")),
            ("blocks", "sdapc_block", lambda fn: w(fn, self._block_name)),
            ("network", "forward", lambda fn: w(fn, "network.forward", info=self._forward_info)),
            ("network", "build_model",
             lambda fn: w(fn, "network.build", post=self._register_blocks)),
            ("training", "batch_indices", lambda fn: w(fn, "training.batch")),
            ("training", "combined_loss", lambda fn: w(fn, "training.loss")),
            ("training", "adam_step", lambda fn: w(fn, "training.adam")),
            ("training", "train", lambda fn: w(fn, "training.train")),
            ("inference", "sliding_predict",
             lambda fn: w(fn, "inference.sliding", info=self._tiles_info)),
            ("metrics", "evaluate_pairs", lambda fn: w(fn, "metrics.evaluate")),
            ("metrics", "hd95", lambda fn: w(fn, "metrics.hd95")),
            ("explain", "export_bundle", lambda fn: w(fn, "explain.export")),
            ("explain", "seg_grad_cam", lambda fn: w(fn, "explain.gradcam")),
            ("io", "load_checkpoint", lambda fn: w(fn, "io.ckpt_load", info=self._path_size)),
            ("io", "load_sdt1", lambda fn: w(fn, "io.sdt1_load", info=self._path_size)),
        ]
        plan += [("io", f, lambda fn, s=s: w(fn, s, post=self._written_size))
                 for f, s in IO_WRITERS.items()]
        plan += [("blocks", f, lambda fn, s=s: w(fn, s)) for f, s in BLOCK_FUNCS.items()]
        return plan

    def _wrap(self, fn, name, info=None, post=None, label=True):
        tracer = self
        spans, stack = self.spans, self.stack
        fixed = isinstance(name, str)

        def traced(*args, **kwargs):
            rec = [name if fixed else name(args, kwargs),
                   0.0, 0.0, stack[-1] if stack else -1,
                   info(args, kwargs) if info is not None else None]
            idx = len(spans)
            spans.append(rec)
            stack.append(idx)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if label:
                tracer._label_vjps(out, args, kwargs, idx)
            if post is not None:
                post(rec, args, kwargs, out)
            return out

        return traced

    def _label_vjps(self, out, args, kwargs, idx) -> None:
        tt = self._tensor_type
        if type(out) is tt:  # the common case: one result tensor
            if out._ctx is None:
                return
            todo = [out]
        else:
            todo = _tensors_in(out, tt)
            if not todo:
                return
        stop = {id(t) for t in _tensors_in(args, tt) + _tensors_in(list(kwargs.values()), tt)}
        seen = set()
        spent = self._spent
        while todo:
            t = todo.pop()
            key = id(t)
            if key in seen or key in stop:
                continue
            seen.add(key)
            ctx = t._ctx
            if ctx is None or ctx is spent:
                continue
            try:
                if type(ctx.bwd) is not _TimedVJP:
                    ctx.bwd = _TimedVJP(ctx.bwd, idx, self)
                todo.extend(ctx.parents)
            except AttributeError:  # the graph node layout changed
                self._label_vjps = lambda *a: None
                self.absent.append("tensor._Ctx.bwd (backward attribution)")
                return

    # -- per-call classification and work counts ----------------------------

    def _conv_name(self, args, kwargs) -> str:
        x = args[0]
        groups = kwargs.get("groups", args[5] if len(args) > 5 else 1)
        cin = x.shape[-3]
        return "convops.depthwise" if groups == cin and cin > 1 else "convops.dense"

    @staticmethod
    def _conv_flops(rec, args, kwargs, out) -> None:
        w = args[1] if len(args) > 1 else kwargs["w"]
        _, cg, k1, k2 = w.shape
        rec[4] = 2 * out.size * cg * k1 * k2

    @staticmethod
    def _deconv_flops(rec, args, kwargs, out) -> None:
        x, w = args[0], (args[1] if len(args) > 1 else kwargs["w"])
        rec[4] = 2 * x.size * w.shape[1] * w.shape[2] * w.shape[3]

    def _sample_name(self, args, kwargs) -> str:
        f = args[0]
        parent = self.spans[self.stack[-1]][0] if self.stack else ""
        return "sampling.bias" if f.shape[1] == 1 and parent == "attention" else "sampling.features"

    @staticmethod
    def _sample_points(args, kwargs) -> int:
        f, pts = args[0], args[1]
        return pts.shape[0] * pts.shape[1] * f.shape[1]

    def _block_name(self, args, kwargs) -> str:
        return "blocks." + self.block_ids.get(id(args[1]), "unknown")

    def _register_blocks(self, rec, args, kwargs, model) -> None:
        for bid, params in getattr(model, "blocks", {}).items():
            self.block_ids[id(params)] = bid

    def _forward_info(self, args, kwargs):
        model, image = args[0], args[1]
        shape = image.shape
        batch = shape[0] if len(shape) == 4 else 1
        h, w = shape[-2], shape[-1]
        key = (json.dumps(model.config.to_dict(), sort_keys=True), h, w)
        flops = self.flops_cache.get(key)
        if flops is None:
            flops = self._count_flops(model, h, w) if self._count_flops else 0
            self.flops_cache[key] = flops
        return flops * batch

    def _tiles_info(self, args, kwargs):
        image, cfg = args[1], args[2]
        _, h, w = image.shape
        crop = cfg.crop
        ph, pw = max(h, crop), max(w, crop)
        tp = self._tile_positions
        tiles = len(tp(ph, crop, cfg.step)) * len(tp(pw, crop, cfg.step)) if tp else 0
        return (tiles, tiles * crop * crop, h * w)

    @staticmethod
    def _path_size(args, kwargs) -> int:
        return _size_of(args[0])

    @staticmethod
    def _written_size(rec, args, kwargs, out) -> None:
        rec[4] = _size_of(args[0])

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. around a CLI call."""
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, None]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = clock()
        try:
            yield
        finally:
            rec[2] = clock()
            self.stack.pop()

    # -- draining -----------------------------------------------------------

    def drain(self) -> list:
        """Hand over the finished spans and start a fresh list.

        Only between whole operations: no span may be open, and every graph
        recorded so far must have run its backward, because pending VJPs
        refer to their creating span by its index in the current list.
        """
        if self.stack:
            raise RuntimeError("drain with open spans")
        out = self.spans[:]
        self.spans.clear()
        return out


# -- analysis ----------------------------------------------------------------

def self_times(spans) -> list[float]:
    """Duration of each span minus the part its direct children cover."""
    kids: dict[int, list] = {}
    for s in spans:
        if s[3] >= 0:
            kids.setdefault(s[3], []).append((s[1], s[2]))
    out = []
    for i, s in enumerate(spans):
        t0, t1 = s[1], s[2]
        covered = 0.0
        end = t0
        for a, b in sorted(kids.get(i, ())):
            a, b = max(a, end), min(b, t1)
            if b > a:
                covered += b - a
                end = b
        out.append((t1 - t0) - covered)
    return out


def _chains(spans) -> list[tuple]:
    """For each span, the names of it and all its ancestors."""
    chains: list[tuple] = []
    for s in spans:
        p = s[3]
        chains.append((s[0],) + (chains[p] if p >= 0 else ()))
    return chains


def _is_kernel(name: str) -> bool:
    return name.startswith(("convops.", "sampling."))


def layer_sums(spans) -> Counter:
    """Additive per-layer totals (seconds, counts) of one span list."""
    c: Counter = Counter()
    selfs = self_times(spans)
    chains = _chains(spans)
    forward_starts, batch_starts = [], []
    adam_end: dict[int, float] = {}
    for i, s in enumerate(spans):
        name, dur, parent, info = s[0], s[2] - s[1], s[3], s[4]
        if name == "vjp":
            cname, cchain = spans[info][0], chains[info]
            c["bwd:" + cname] += dur
            for anc in set(cchain):
                c["bwd_incl:" + anc] += dur
            if cname.startswith("convops."):
                c["convops.flop"] += 2 * (spans[info][4] or 0)
            if _is_kernel(cname) and "attention" in cchain:
                c["attention.kernel_bwd"] += dur
            continue
        ancestors = chains[i][1:]
        c["fwd:" + name] += dur
        c["self:" + name] += selfs[i]
        c["n:" + name] += 1
        if isinstance(info, int) and name.startswith(("convops.", "sampling.", "io.")):
            c["info:" + name] += info
            if name.startswith("convops."):
                c["convops.flop"] += info
        if _is_kernel(name) and "attention" in ancestors \
                and not any(_is_kernel(a) for a in ancestors):
            c["attention.kernel_fwd"] += dur
        if name == "network.forward":
            c["network.flop"] += info
            if parent >= 0 and spans[parent][0] == "inference.sliding":
                c["inference.model_calls"] += 1
            if "training.train" in ancestors:
                forward_starts.append(s[1])
        elif name == "training.batch":
            batch_starts.append(s[1])
        elif name == "training.adam" and parent >= 0:
            adam_end[parent] = max(adam_end.get(parent, s[2]), s[2])
        elif name == "inference.sliding":
            c["inference.tiles"] += info[0]
            c["inference.tile_px"] += info[1]
            c["inference.image_px"] += info[2]
        elif name == "tensor.backward" and any(a.startswith("explain.") for a in ancestors):
            c["explain.backward"] += dur
        if name in TOP_LEVEL:
            c["wall:" + name] += dur
        if parent >= 0 and spans[parent][0] in TOP_LEVEL:
            c["covered:" + spans[parent][0]] += dur
    for parent, end in adam_end.items():
        c["training.finish"] += spans[parent][2] - end
    j = 0
    for t in batch_starts:
        while j < len(forward_starts) and forward_starts[j] < t:
            j += 1
        if j < len(forward_starts):
            c["training.data"] += forward_starts[j] - t
    return c


def _ms(x: float) -> float:
    return x * 1000.0


def layer_metrics(c: Counter, units: int) -> dict[str, float]:
    """Per-layer metrics per unit of work (train step or image)."""
    u = max(units, 1)

    def per(x):
        return x / u

    conv_s = sum(c["fwd:convops." + k] + c["bwd:convops." + k] for k in CONV_KINDS)
    m = {
        "tensor.ops": per(c["n:tensor"]),
        "tensor.fwd_self_ms": per(_ms(c["self:tensor"])),
        "tensor.bwd_self_ms": per(_ms(c["bwd:tensor"])),
        "tensor.backward_ms": per(_ms(c["fwd:tensor.backward"])),
        "tensor.backward_overhead_ms": per(_ms(c["self:tensor.backward"])),
    }
    for k in CONV_KINDS:
        m[f"convops.{k}.fwd_ms"] = per(_ms(c[f"self:convops.{k}"]))
        m[f"convops.{k}.bwd_ms"] = per(_ms(c[f"bwd:convops.{k}"]))
    m["convops.gflop"] = per(c["convops.flop"] / 1e9)
    m["convops.gflop_per_s"] = c["convops.flop"] / 1e9 / conv_s if conv_s else 0.0
    for k in SAMPLE_KINDS:
        m[f"sampling.{k}.fwd_ms"] = per(_ms(c[f"self:sampling.{k}"]))
        m[f"sampling.{k}.bwd_ms"] = per(_ms(c[f"bwd:sampling.{k}"]))
    m["sampling.points"] = per(c["info:sampling.features"] + c["info:sampling.bias"])
    m["attention.fwd_ms"] = per(_ms(c["fwd:attention"]))
    m["attention.bwd_ms"] = per(_ms(c["bwd_incl:attention"]))
    m["attention.self_fwd_ms"] = per(_ms(c["fwd:attention"] - c["attention.kernel_fwd"]))
    m["attention.self_bwd_ms"] = per(_ms(c["bwd_incl:attention"] - c["attention.kernel_bwd"]))
    for b in BLOCK_SPANS:
        m[f"blocks.{b}.fwd_ms"] = per(_ms(c[f"fwd:blocks.{b}"]))
        m[f"blocks.{b}.bwd_ms"] = per(_ms(c[f"bwd_incl:blocks.{b}"]))
    nf = c["n:network.forward"]
    m["network.forwards"] = per(nf)
    m["network.forward_ms"] = _ms(c["fwd:network.forward"]) / nf if nf else 0.0
    m["network.gflop_per_s"] = (c["network.flop"] / 1e9 / c["fwd:network.forward"]
                                if c["fwd:network.forward"] else 0.0)
    m["training.data_ms"] = per(_ms(c["training.data"]))
    m["training.loss_ms"] = per(_ms(c["fwd:training.loss"] + c["bwd_incl:training.loss"]))
    m["training.adam_ms"] = per(_ms(c["fwd:training.adam"]))
    m["training.finish_ms"] = per(_ms(c["training.finish"]))
    tiles, calls = c["inference.tiles"], c["inference.model_calls"]
    m["inference.tiles"] = per(tiles)
    m["inference.model_calls"] = per(calls)
    m["inference.tiles_per_call"] = tiles / calls if calls else 0.0
    m["inference.overlap"] = (c["inference.tile_px"] / c["inference.image_px"]
                              if c["inference.image_px"] else 0.0)
    m["inference.blend_ms"] = per(_ms(c["self:inference.sliding"]))
    m["inference.tiles_per_s"] = (tiles / c["fwd:inference.sliding"]
                                  if c["fwd:inference.sliding"] else 0.0)
    m["metrics.evaluate_ms"] = per(_ms(c["fwd:metrics.evaluate"]))
    m["metrics.hd95_ms"] = per(_ms(c["fwd:metrics.hd95"]))
    m["explain.export_ms"] = per(_ms(c["fwd:explain.export"]))
    m["explain.gradcam_ms"] = per(_ms(c["fwd:explain.gradcam"]))
    m["explain.backward_ms"] = per(_ms(c["explain.backward"]))
    m["io.ckpt_load_ms"] = per(_ms(c["fwd:io.ckpt_load"]))
    m["io.ckpt_save_ms"] = per(_ms(c["fwd:io.ckpt_save"]))
    m["io.sdt1_load_ms"] = per(_ms(c["fwd:io.sdt1_load"]))
    m["io.bytes_read"] = per(c["info:io.ckpt_load"] + c["info:io.sdt1_load"])
    m["io.bytes_written"] = per(sum(c["info:" + s] for s in set(IO_WRITERS.values())))
    return m


def coverage(c: Counter) -> float:
    """Share of top-level wall (train() or CLI calls) covered by child spans."""
    wall = sum(c["wall:" + n] for n in TOP_LEVEL)
    covered = sum(c["covered:" + n] for n in TOP_LEVEL)
    return covered / wall if wall else 0.0
