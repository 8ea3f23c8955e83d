"""The benchmark's workloads, their seeded inputs and their correctness gates.

Every workload is one closed loop: a single caller that starts the next
operation only when the previous one has returned, on one BLAS thread.

- train_micro: `training.train` on the desk (micro) config, B=8 at 32x32.
  ~540 graph nodes on tiny arrays per step, so per-op dispatch, autodiff
  bookkeeping and small-map col2im dominate.
- train_224: `training.train` on the default ModelConfig (window 7, 3
  classes), B=1 at the paper's 224x224 crop.  Kernel-bound: the sampler's
  backward scatter and im2col/col2im on 56x56 maps dominate.
- eval_infer: the `sdah` CLI in-process on the committed micro checkpoint,
  in rounds: `sdah eval` over K 128x128 images (crop 32, step 16: 49 tiles
  each) in every other round, `sdah infer` on each image, and one
  `sdah explain`.  Forward-only except for explain's single backward;
  bypasses training.

Training runs in chunks of `chunk` steps, each one `train()` call that
continues from the previous chunk's weights and writes its checkpoint and
loss curve, until the time budget is spent.  Step boundaries are the calls
into `training.batch_indices`, which `train()` makes at the top of every
step, so the real loop is timed.  A chunk's last step ends at `train()`'s
return, after the checkpoint and loss-curve writes; it is timed apart as the
chunk's finish, so step times hold training steps only.

The host probe (hostprobe.py) runs at every step boundary and around every
CLI call, outside the timed intervals.  Each operation's time is kept as
measured and at the reference host speed, scaled by the mean of the two
probes on either side of it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import statistics
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import sdah.cli as cli
import sdah.explain  # noqa: F401 - imported lazily by the CLI; loaded here so
import sdah.metrics  # noqa: F401 - the import counts in set-up, not in a call
import sdah.network as network
import sdah.training as training
from sdah.io import load_sdt1
from sdah.network import ModelConfig
from sdah.rng import derive_seed

from hostprobe import HostProbe, at_reference
from tracing import clock

HERE = Path(__file__).resolve().parent
CHECKPOINT = HERE / "micro_desk.sdck"
REFERENCE = HERE / "reference.json"

MICRO = ModelConfig(in_channels=1, num_classes=2, stem_width=8,
                    stage_widths=(8, 16, 32, 64), window_sizes=(4, 4, 2, 2),
                    num_heads=(2, 2, 4, 4))
DEFAULT_3CLASS = ModelConfig(num_classes=3)

# Relative tolerance on the first chunk's final logged loss against the
# recorded value: room for a deterministic reordering of float reductions
# (float32, a few dozen Adam steps), far below any real change of arithmetic.
LOSS_RTOL = 2e-3
DSC_BAR = 0.90          # acceptance criterion 8's held-out bar
EXPLAIN_BLOCK = "enc1"
EXPLAIN_FILES = ("attn.sdt", "attn.pgm", "points.csv", "field.ppm", "gradcam.pgm")
SLIDING = ["--crop", "32", "--step", "16"]
PROBE = HostProbe()
# Inside a CLI call the probe runs before every PROBE_TILES-th tile forward
# (7 of an image's 49), about 2% of the call, so a one-second call is scaled
# by the host speed through it rather than at its two ends only.
PROBE_TILES = 7
# `sdah eval` leads every other round: eval images and infer calls then each
# get about half the run, spread over all of it
EVAL_EVERY = 2


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str            # "train" or "eval"
    tag: int             # sub-stream key: inputs are derive_seed(seed, tag)
    size: int            # image side
    classes: int
    samples: int         # dataset size (train) or K images (eval)
    batch: int = 1
    chunk: int = 0       # steps per train() call
    model: ModelConfig | None = None


WORKLOADS = {
    "train_micro": Workload("train_micro", "train", 1, 32, 2, 160,
                            batch=8, chunk=20, model=MICRO),
    "train_224": Workload("train_224", "train", 2, 224, 3, 8,
                          batch=1, chunk=5, model=DEFAULT_3CLASS),
    "eval_infer": Workload("eval_infer", "eval", 3, 128, 2, 3),
}


# -- inputs ------------------------------------------------------------------

def make_inputs(w: Workload, seed: int) -> list:
    """The workload's samples: a pure function of (workload, seed)."""
    return training.synth_dataset(w.samples, w.size, w.size, w.classes,
                                  seed=derive_seed(seed, w.tag))


def model_config(w: Workload, seed: int) -> ModelConfig:
    return ModelConfig.from_dict({**w.model.to_dict(), "seed": seed})


def train_config(w: Workload, seed: int, start: int) -> training.TrainConfig:
    return training.TrainConfig(batch_size=w.batch, base_lr=2e-4,
                                max_steps=start + w.chunk, seed=seed)


def file_sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def expected_checkpoint_sha() -> str:
    return (HERE / "micro_desk.sdck.sha256").read_text().split()[0]


def reference_loss(w: Workload, seed: int):
    """Recorded first-chunk final loss for this seed, or None."""
    ref = json.loads(REFERENCE.read_text()).get(w.name, {})
    if ref.get("chunk") != w.chunk:
        return None
    return ref.get("final_loss", {}).get(str(seed))


def setup(w: Workload, seed: int, work: Path) -> dict:
    """One set-up: inputs, dataset write and read back, model or checkpoint."""
    data_dir = work / "data"
    training.save_dataset(data_dir, make_inputs(w, seed))
    env = {"data_dir": data_dir}
    if w.kind == "train":
        env["data"] = training.load_dataset(data_dir)
        env["model"] = network.build_model(model_config(w, seed))
    else:
        if file_sha256(CHECKPOINT) != expected_checkpoint_sha():
            raise RuntimeError(f"{CHECKPOINT.name} does not match its sha256")
        network.load_model(CHECKPOINT)
    return env


# -- statistics ----------------------------------------------------------------

def tail(values) -> tuple[float, float, int]:
    """(value, percentile, n) at the highest percentile with >= 10 samples
    beyond it: the 11th largest sample, at percentile 100 * (n - 10) / n.
    With 10 or fewer samples no such percentile exists; the maximum is
    returned at percentile 100."""
    v = sorted(values)
    n = len(v)
    if n <= 10:
        return v[-1], 100.0, n
    return v[n - 11], 100.0 * (n - 10) / n, n


def p50(values) -> float:
    return statistics.median(values)


def host_summary(probe_s) -> dict:
    """The probe times of a run: their median, spread and the host speed."""
    med = p50(probe_s)
    q = statistics.quantiles(probe_s, n=4) if len(probe_s) > 1 else [med] * 3
    return {"probe_ms.p50": med * 1000.0, "probe_spread": (q[2] - q[0]) / med,
            "speed": at_reference(1.0, med), "n": len(probe_s)}


# -- train workloads -----------------------------------------------------------

class StepClock:
    """Runs the host probe at every call into `training.batch_indices`;
    marks are (probe start, probe end), and a step starts at a probe end."""

    def __init__(self):
        self.marks: list[tuple[float, float]] = []

    def __enter__(self):
        self._orig = orig = training.batch_indices
        marks = self.marks

        def batch_indices(*args, **kwargs):
            t0 = clock()
            PROBE()
            marks.append((t0, clock()))
            return orig(*args, **kwargs)

        training.batch_indices = batch_indices
        return self

    def __exit__(self, *exc):
        training.batch_indices = self._orig
        return False


@dataclass
class TrainRun:
    step_s: list = field(default_factory=list)      # per step, warm-up dropped
    step_ref: list = field(default_factory=list)    # the same at reference speed
    finish_s: list = field(default_factory=list)    # per chunk: last step + writes
    probe_s: list = field(default_factory=list)
    rows: list = field(default_factory=list)        # logged rows per chunk
    steps: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)


def run_train(w: Workload, env: dict, seed: int, out: Path, *,
              seconds: float = math.inf, chunks: int | None = None,
              model=None, on_chunk=None) -> TrainRun:
    """Train in chunks until `seconds` would be exceeded (or `chunks` ran).

    A chunk starts only if the mean chunk so far still fits the budget.
    `on_chunk` runs after each chunk, outside the timed steps.
    """
    model = env["model"] if model is None else model
    data = env["data"]
    run = TrainRun()
    t_start = clock()
    spent: list[float] = []
    with StepClock() as sc:
        while True:
            n = len(spent)
            if chunks is not None and n >= chunks:
                break
            if chunks is None and n and (clock() - t_start) + sum(spent) / n > seconds:
                break
            ckpt, curve = out / "checkpoint.sdck", out / "loss.csv"
            for f in (ckpt, curve):
                f.unlink(missing_ok=True)
            first = len(sc.marks)
            t0 = clock()
            try:
                rows = training.train(model, data, train_config(w, seed, n * w.chunk),
                                      start_step=n * w.chunk,
                                      ckpt_path=ckpt, curve_path=curve)
            except training.TrainingAborted as e:
                run.failed += w.chunk
                run.steps += w.chunk
                run.problems.append(f"chunk {n}: {e}")
                break
            t1 = clock()
            spent.append(t1 - t0)
            # a step ends at the next step's mark; the chunk's last step runs
            # into the checkpoint and loss.csv writes, so it is kept apart
            marks = sc.marks[first:]
            for (a0, a1), (b0, b1) in zip(marks, marks[1:]):
                run.step_s.append(b0 - a1)
                run.step_ref.append(at_reference(b0 - a1, (a1 - a0 + b1 - b0) / 2))
            run.finish_s.append(t1 - marks[-1][1])
            run.probe_s.extend(b - a for a, b in marks)
            run.steps += len(marks)
            run.rows.append(rows)
            bad = _chunk_problems(rows, ckpt, curve)
            if bad:
                run.failed += 1
                run.problems.append(f"chunk {n}: {bad}")
            if on_chunk is not None:
                on_chunk()
    if run.step_s:
        run.step_s.pop(0)  # warm-up
        run.step_ref.pop(0)
    if run.rows:
        ref = reference_loss(w, seed)
        got = run.rows[0][-1]["loss"]
        if ref is not None and abs(got - ref) > LOSS_RTOL * abs(ref):
            run.failed += 1
            run.problems.append(f"first-chunk loss {got!r} vs recorded {ref!r}")
    return run


def _chunk_problems(rows, ckpt: Path, curve: Path) -> str:
    if not rows or not all(math.isfinite(r[k]) for r in rows
                           for k in ("loss", "dice_loss", "ce_loss")):
        return "non-finite or missing logged loss"
    if not (ckpt.is_file() and ckpt.stat().st_size and curve.is_file()
            and curve.stat().st_size):
        return "checkpoint or loss.csv not written"
    return ""


def _step_figures(w: Workload, step_s) -> dict:
    tail_v, tail_p, n = tail(step_s)
    return {"step_ms.p50": p50(step_s) * 1000.0, "step_ms.tail": tail_v * 1000.0,
            "step_ms.tail_percentile": tail_p, "step_ms.n": n,
            "samples_per_s": w.batch * len(step_s) / sum(step_s)}


def train_results(w: Workload, run: TrainRun) -> dict:
    """Step figures at reference speed, and as measured under "raw"."""
    return {
        **_step_figures(w, run.step_ref),
        "raw": _step_figures(w, run.step_s),
        "finish_ms.p50": p50(run.finish_s) * 1000.0,
        "finish_ms.n": len(run.finish_s),
        "host": host_summary(run.probe_s),
        "first_chunk_loss": run.rows[0][-1]["loss"] if run.rows else None,
    }


# -- eval_infer ------------------------------------------------------------------

@dataclass
class EvalRun:
    eval_s: list = field(default_factory=list)      # per `sdah eval` call
    eval_ref: list = field(default_factory=list)    # the same at reference speed
    images: int = 0
    infer_s: list = field(default_factory=list)
    infer_ref: list = field(default_factory=list)
    explain_s: list = field(default_factory=list)
    explain_ref: list = field(default_factory=list)
    probe_s: list = field(default_factory=list)
    eval_masks: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    dsc: list = field(default_factory=list)         # mean DSC per eval call


def _cli(run: EvalRun, argv: list, span=None, masks=None) -> tuple[bool, float, float]:
    """One in-process `sdah` call with its output captured and the host probe
    run before, after and among its tile forwards; (ok, seconds without the
    probes, the same at reference speed).  `masks` collects the predictions."""
    run.attempted += 1
    buf = io.StringIO()
    probes = [PROBE()]
    inner = [0]
    orig = cli.predict_mask

    def probe_in_call():
        with span("probe") if span is not None else contextlib.nullcontext():
            probes.append(PROBE())
            inner[0] += probes[-1]

    def predict_mask(model, image, cfg):
        tiles = [0]

        def probed(tile):
            tiles[0] += 1
            if tiles[0] % PROBE_TILES == 0:
                probe_in_call()
            return model(tile)

        mask = orig(probed, image, cfg)
        if masks is not None:
            masks.append(mask)
        return mask

    cli.predict_mask = predict_mask
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            with span("cli") if span is not None else contextlib.nullcontext():
                t0 = clock()
                code = cli.main([str(a) for a in argv])
                dt = clock() - t0 - inner[0]
    finally:
        cli.predict_mask = orig
    probes.append(PROBE())
    run.probe_s += [probes[0], probes[-1]]  # between calls, as in training
    if code != 0:
        run.failed += 1
        run.problems.append(f"sdah {argv[0]} exited {code}: {buf.getvalue()[-200:]}")
    return code == 0, dt, at_reference(dt, statistics.fmean(probes))


def image_path(env: dict, i: int) -> Path:
    return env["data_dir"] / f"img_{i:05d}.sdt"


def sdah_eval(w: Workload, env: dict, work: Path, run: EvalRun, span=None) -> None:
    """`sdah eval` over all K images; keeps its predictions for the gates."""
    captured = []
    ok, dt, dt_ref = _cli(run, ["eval", "--ckpt", CHECKPOINT, "--data", env["data_dir"],
                                *SLIDING, "--out", work / "eval.csv"], span, captured)
    run.eval_s.append(dt)
    run.eval_ref.append(dt_ref)
    run.images += w.samples
    run.eval_masks = captured
    if ok:
        dsc = _csv_mean_dsc(work / "eval.csv")
        run.dsc.append(dsc)
        if dsc is None or dsc < DSC_BAR:
            run.failed += 1
            run.problems.append(f"held-out mean DSC {dsc} below {DSC_BAR}")


def _csv_mean_dsc(path: Path):
    for line in path.read_text().splitlines():
        parts = line.split(",")
        if parts[:2] == ["mean", "1"] and parts[2]:
            return float(parts[2])
    return None


def sdah_infer(env: dict, work: Path, run: EvalRun, i: int, span=None) -> None:
    out = work / f"mask_{i}.sdt"
    out.unlink(missing_ok=True)
    ok, dt, dt_ref = _cli(run, ["infer", "--ckpt", CHECKPOINT, "--image", image_path(env, i),
                                *SLIDING, "--out", out], span)
    run.infer_s.append(dt)
    run.infer_ref.append(dt_ref)
    if ok:
        mask = load_sdt1(out)
        if run.eval_masks and not np.array_equal(mask, run.eval_masks[i]):
            run.failed += 1
            run.problems.append(f"infer mask {i} differs from the eval prediction")


def sdah_explain(env: dict, work: Path, run: EvalRun, i: int, span=None) -> None:
    out = work / f"explain_{len(run.explain_s)}"
    ok, dt, dt_ref = _cli(run, ["explain", "--ckpt", CHECKPOINT, "--image", image_path(env, i),
                                "--block", EXPLAIN_BLOCK, "--class", "1", "--out", out], span)
    run.explain_s.append(dt)
    run.explain_ref.append(dt_ref)
    missing = [f for f in EXPLAIN_FILES
               if not ((out / EXPLAIN_BLOCK / f).is_file()
                       and (out / EXPLAIN_BLOCK / f).stat().st_size)]
    if ok and missing:
        run.failed += 1
        run.problems.append(f"explain wrote no {missing}")


def run_eval(w: Workload, env: dict, work: Path, seconds: float,
             span=None, on_round=None) -> EvalRun:
    """Rounds of K infers and one explain, every other one led by an eval.

    A round starts only if the mean round so far still fits `seconds`;
    `on_round` runs after each round, outside the timed calls.
    """
    run = EvalRun()
    work.mkdir(parents=True, exist_ok=True)
    t_start = clock()
    rounds: list[float] = []
    while not rounds or (clock() - t_start) + sum(rounds) / len(rounds) <= seconds:
        t0 = clock()
        if len(rounds) % EVAL_EVERY == 0:
            sdah_eval(w, env, work, run, span)
        for i in range(w.samples):
            sdah_infer(env, work, run, i, span)
        sdah_explain(env, work, run, len(rounds) % w.samples, span)
        rounds.append(clock() - t0)
        if on_round is not None:
            on_round()
    return run


def _call_figures(images: int, eval_s, infer_s, explain_s) -> dict:
    tail_v, tail_p, n = tail(infer_s)
    return {
        "eval_images_per_s": images / sum(eval_s),
        "infer_ms.p50": p50(infer_s) * 1000.0,
        "infer_ms.tail": tail_v * 1000.0,
        "infer_ms.tail_percentile": tail_p,
        "infer_ms.n": n,
        "explain_ms.p50": p50(explain_s) * 1000.0 if explain_s else 0.0,
        "explain_ms.n": len(explain_s),
    }


def eval_results(run: EvalRun) -> dict:
    """Call figures at reference speed, and as measured under "raw"."""
    return {
        **_call_figures(run.images, run.eval_ref, run.infer_ref, run.explain_ref),
        "raw": _call_figures(run.images, run.eval_s, run.infer_s, run.explain_s),
        "host": host_summary(run.probe_s),
        "mean_dsc_min": min(run.dsc, default=None),
    }
