import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdah.cli import build_parser, main
from sdah.inference import SlidingConfig
from sdah.io import load_checkpoint, load_sdt1, save_checkpoint, save_sdt1
from sdah.network import CONFIG_KEY, build_model, count_params, micro_config, save_model
from sdah.training import load_dataset

MICRO = micro_config().to_dict()


@pytest.fixture
def workdir(tmp_path):
    cfg = {"model": MICRO, "train": {"batch_size": 2, "max_steps": 2, "seed": 0}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["synth", "--n", "3", "--size", "32", "--classes", "2",
                 "--seed", "1", "--out", str(tmp_path / "data")]) == 0
    return tmp_path


def _train(workdir, out=None):
    out = out or workdir / "run"
    code = main(["train", "--data", str(workdir / "data"),
                 "--config", str(workdir / "cfg.json"), "--out", str(out)])
    assert code == 0
    return out


# -- happy paths ------------------------------------------------------------------

def test_synth_writes_loadable_dataset(workdir, capsys):
    data = load_dataset(workdir / "data")
    assert len(data) == 3
    assert data[0].image.shape == (1, 32, 32)


def test_train_directory_layout(workdir, capsys):
    out = _train(workdir)
    assert (out / "checkpoint.sdck").exists()
    assert (out / "loss.csv").exists()
    stdout = capsys.readouterr().out
    assert "step" in stdout and "checkpoint:" in stdout


def test_train_explicit_checkpoint_file(workdir):
    out = _train(workdir, out=workdir / "model.sdck")
    assert out.exists()
    assert (workdir / "model.loss.csv").exists()


def test_train_print_config_merges_file(workdir, capsys):
    assert main(["train", "--config", str(workdir / "cfg.json"),
                 "--print-config"]) == 0
    merged = json.loads(capsys.readouterr().out)
    assert merged["model"]["stem_width"] == 8
    assert merged["train"]["max_steps"] == 2
    assert merged["train"]["base_lr"] == 2e-4   # default filled in


def test_infer_and_preview(workdir, capsys):
    out = _train(workdir)
    img = workdir / "img.sdt"
    save_sdt1(img, load_dataset(workdir / "data")[0].image.data.astype(np.float32))
    mask_path = workdir / "mask.sdt"
    code = main(["infer", "--ckpt", str(out / "checkpoint.sdck"),
                 "--image", str(img), "--crop", "32", "--step", "32",
                 "--out", str(mask_path), "--preview", str(workdir / "m.pgm")])
    assert code == 0
    mask = load_sdt1(mask_path)
    assert mask.dtype == np.uint8 and mask.shape == (32, 32)
    pgm = (workdir / "m.pgm").read_bytes()
    assert pgm.startswith(b"P5\n32 32\n255\n")
    assert len(pgm) == len(b"P5\n32 32\n255\n") + 32 * 32


def test_eval_writes_csv_and_summary_line(workdir, capsys):
    out = _train(workdir)
    code = main(["eval", "--ckpt", str(out / "checkpoint.sdck"),
                 "--data", str(workdir / "data"), "--crop", "32",
                 "--step", "32", "--out", str(workdir / "eval.csv")])
    assert code == 0
    assert "mean DSC" in capsys.readouterr().out
    lines = (workdir / "eval.csv").read_text().splitlines()
    assert lines[0] == "case,class,dsc,hd95"
    assert len(lines) > 3


def test_explain_exports_bundle(workdir, capsys):
    out = _train(workdir)
    img = workdir / "img.sdt"
    save_sdt1(img, load_dataset(workdir / "data")[0].image.data.astype(np.float32))
    code = main(["explain", "--ckpt", str(out / "checkpoint.sdck"),
                 "--image", str(img), "--block", "enc1", "--class", "1",
                 "--out", str(workdir / "xa")])
    assert code == 0
    for name in ("attn.sdt", "attn.pgm", "points.csv", "field.ppm", "gradcam.pgm"):
        assert (workdir / "xa" / "enc1" / name).exists()


def test_count_matches_library(workdir, capsys):
    assert main(["count", "--config", str(workdir / "cfg.json"),
                 "--size", "32"]) == 0
    stdout = capsys.readouterr().out
    want = count_params(build_model(micro_config()))
    assert f"params: {want}" in stdout
    assert "flops@32x32:" in stdout


def test_selfcheck_passes(capsys):
    assert main(["selfcheck"]) == 0
    out = capsys.readouterr().out
    assert "selfcheck passed" in out
    assert out.count(": ok") == 8


def test_no_command_loads_scipy(tmp_path):
    """The package, every command and `metrics.paired_t_test` run on numpy
    alone, so no sdah process pays scipy's import."""
    code = (
        "import json, sys\n"
        "import sdah, sdah.cli\n"
        "from sdah.cli import main\n"
        "d = sys.argv[1]\n"
        f"open(d + '/cfg.json', 'w').write(json.dumps({{'model': {MICRO!r}, "
        "'train': {'batch_size': 2, 'max_steps': 2}}))\n"
        "def run(*argv):\n"
        "    assert main(list(argv)) == 0, argv\n"
        "run('synth', '--n', '2', '--size', '32', '--classes', '2', '--out', d + '/data')\n"
        "run('train', '--data', d + '/data', '--config', d + '/cfg.json', '--out', d + '/m.sdck')\n"
        "slide = ['--crop', '32', '--step', '16']\n"
        "run('infer', '--ckpt', d + '/m.sdck', '--image', d + '/data/img_00000.sdt', *slide,"
        " '--out', d + '/mask.sdt')\n"
        "run('eval', '--ckpt', d + '/m.sdck', '--data', d + '/data', *slide,"
        " '--out', d + '/e.csv')\n"
        "run('explain', '--ckpt', d + '/m.sdck', '--image', d + '/data/img_00000.sdt',"
        " '--block', 'enc1', '--out', d + '/x')\n"
        "run('count', '--config', d + '/cfg.json', '--size', '32')\n"
        "run('selfcheck')\n"
        "from sdah.metrics import paired_t_test\n"
        "assert 0.0 < paired_t_test([1.0, 2.0, 4.0], [0.5, 1.0, 1.0])[1] < 1.0\n"
        "loaded = [m for m in sys.modules if m.startswith('scipy')]\n"
        "assert not loaded, loaded\n"
    )
    r = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                       capture_output=True, text=True, timeout=300)
    assert r.returncode == 0, r.stderr


def test_repeated_commands_reuse_freed_heap_pages(tmp_path, glibc):
    """A process that runs `sdah infer` again reuses the heap the last call
    freed instead of faulting in fresh zeroed pages (about 2,500 faults per
    call otherwise).  In a subprocess: the allocator setting is process-wide."""
    root = Path(__file__).resolve().parents[1]
    code = (
        "import resource, sys\n"
        "import numpy as np\n"
        "from sdah.cli import main\n"
        "from sdah.io import save_sdt1\n"
        "d, ckpt = sys.argv[1:]\n"
        "save_sdt1(d + '/img.sdt', np.random.default_rng(0).uniform(0, 1, (1, 128, 128))"
        ".astype(np.float32))\n"
        "argv = ['infer', '--ckpt', ckpt, '--image', d + '/img.sdt', '--crop', '32',"
        " '--step', '16', '--out', d + '/mask.sdt']\n"
        "assert main(argv) == 0\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "for _ in range(3):\n"
        "    assert main(argv) == 0\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )
    r = subprocess.run([sys.executable, "-c", code, str(tmp_path),
                        str(root / "perfbench" / "micro_desk.sdck")],
                       capture_output=True, text=True, timeout=300)
    assert r.returncode == 0, r.stderr
    assert int(r.stdout.splitlines()[-1]) < 1000  # after the commands' own lines


def test_train_on_more_classes_than_the_head_exits_2(tmp_path, capsys):
    # `sdah synth` makes 3 classes by default, the micro config's head outputs 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": MICRO, "train": {"batch_size": 2, "max_steps": 8}}))
    assert main(["synth", "--n", "4", "--size", "32", "--out", str(tmp_path / "data")]) == 0
    assert main(["train", "--data", str(tmp_path / "data"), "--config", str(cfg),
                 "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "3 classes" in err and "outputs 2" in err
    assert not (tmp_path / "run").exists()


def test_train_into_a_path_under_a_file_exits_2_before_the_first_step(workdir, capsys):
    (workdir / "afile").write_text("")
    capsys.readouterr()
    assert main(["train", "--data", str(workdir / "data"), "--config",
                 str(workdir / "cfg.json"), "--out", str(workdir / "afile" / "run")]) == 2
    out, err = capsys.readouterr()
    assert not [line for line in out.splitlines() if line.startswith("step")]
    assert err.startswith("error: ") and "Not a directory" in err



def _image_file(d: Path) -> Path:
    img = d / "img.sdt"
    save_sdt1(img, load_dataset(d / "data")[0].image.data.astype(np.float32))
    return img


def test_infer_and_eval_make_missing_output_directories(tmp_path, capsys):
    d = _micro_files(tmp_path)
    mask, preview = d / "a" / "b" / "m.sdt", d / "c" / "d" / "p.pgm"
    assert main(["infer", "--ckpt", str(d / "model.sdck"), "--image", str(_image_file(d)),
                 "--crop", "32", "--step", "32", "--out", str(mask),
                 "--preview", str(preview)]) == 0
    assert load_sdt1(mask).shape == (32, 32)
    assert preview.read_bytes().startswith(b"P5\n32 32\n255\n")
    csv_path = d / "e" / "f" / "e.csv"
    assert _eval(d / "model.sdck", d / "data", csv_path) == 0
    assert csv_path.read_text().startswith("case,class,dsc,hd95")


@pytest.mark.parametrize("cmd,blocked", [("infer", "--out"), ("infer", "--preview"),
                                         ("eval", "--out")])
def test_infer_and_eval_under_a_file_exit_2_and_write_nothing(cmd, blocked, tmp_path,
                                                              capsys):
    d = _micro_files(tmp_path)
    img = _image_file(d)
    (d / "afile").write_text("")
    outs = {"--out": str(d / ("m.sdt" if cmd == "infer" else "e.csv"))}
    if cmd == "infer":
        outs["--preview"] = str(d / "p.pgm")
    outs[blocked] = str(d / "afile" / "x")
    inputs = ["--image", str(img)] if cmd == "infer" else ["--data", str(d / "data")]
    before = sorted(d.rglob("*"))
    capsys.readouterr()
    assert main([cmd, "--ckpt", str(d / "model.sdck"), *inputs, "--crop", "32",
                 "--step", "32", *(a for kv in outs.items() for a in kv)]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and "afile" in err
    assert out == "" and sorted(d.rglob("*")) == before


@pytest.mark.parametrize("out", ["afile", "afile/x"])
def test_explain_into_or_under_a_file_exits_2_before_loading(out, tmp_path, capsys,
                                                             monkeypatch):
    d = _micro_files(tmp_path)
    img = _image_file(d)
    (d / "afile").write_text("")
    loads = []
    monkeypatch.setattr("sdah.cli.load_model", lambda *a: loads.append(a))
    capsys.readouterr()
    assert main(["explain", "--ckpt", str(d / "model.sdck"), "--image", str(img),
                 "--block", "enc1", "--out", str(d / out)]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and "afile" in err
    assert out == "" and loads == []


def test_explain_makes_a_missing_nested_output_directory(tmp_path, capsys):
    d = _micro_files(tmp_path)
    out = d / "a" / "b"
    assert main(["explain", "--ckpt", str(d / "model.sdck"), "--image",
                 str(_image_file(d)), "--block", "dec1", "--out", str(out)]) == 0
    assert sorted(p.name for p in (out / "dec1").iterdir()) == [
        "attn.pgm", "attn.sdt", "field.ppm", "gradcam.pgm", "points.csv"]


def test_two_train_runs_write_identical_checkpoint_bytes(workdir, capsys):
    a, b = _train(workdir, workdir / "a"), _train(workdir, workdir / "b")
    assert (a / "checkpoint.sdck").read_bytes() == (b / "checkpoint.sdck").read_bytes()


def test_train_whose_adam_moment_overflows_exits_3(workdir, capsys):
    cfg = {"model": MICRO, "train": {"batch_size": 2, "max_steps": 3, "lambda_ce": 1e30}}
    (workdir / "big.json").write_text(json.dumps(cfg))
    assert main(["train", "--data", str(workdir / "data"), "--config",
                 str(workdir / "big.json"), "--out", str(workdir / "run")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: non-finite value at step 0: adam: "
                          "the second moment overflowed")
    assert not (workdir / "run" / "checkpoint.sdck").exists()


def test_eval_on_more_classes_than_the_head_exits_2(tmp_path, capsys):
    # `sdah synth` makes 3 classes by default, the micro checkpoint's head outputs 2
    root = Path(__file__).resolve().parents[1]
    assert main(["synth", "--n", "2", "--size", "64", "--out", str(tmp_path / "data")]) == 0
    capsys.readouterr()
    out = tmp_path / "eval.csv"
    assert _eval(root / "perfbench" / "micro_desk.sdck", tmp_path / "data", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "3 classes" in err and "outputs 2" in err
    assert not out.exists()


def test_selfcheck_sees_per_tile_forwards(monkeypatch, capsys):
    # a one-pixel budget forces one forward per tile: the tile check must fail
    monkeypatch.setattr("sdah.inference._TILE_PIXELS", 1)
    assert main(["selfcheck"]) == 4
    out = capsys.readouterr().out
    assert "selfcheck sliding_tiles: FAIL (expected 9 tiles in one forward" in out
    assert out.count(": ok") == 7


# -- failure modes ------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ["synth", "--size", "32", "--out", "x"],          # missing --n
    ["train"],                                        # missing --data/--out
    ["bogus"],                                        # unknown command
    ["infer", "--ckpt", "a"],                         # missing image/out
])
def test_usage_errors_exit_1(argv, tmp_path, capsys):
    assert main(argv) == 1
    assert "usage error" in capsys.readouterr().err


def test_the_parser_is_built_once_per_process():
    assert build_parser() is build_parser()


def test_a_usage_error_leaves_the_parser_working(tmp_path, capsys):
    d = _micro_files(tmp_path)
    infer = ["infer", "--ckpt", str(d / "model.sdck"), "--image",
             str(d / "data" / "img_00000.sdt"), "--crop", "32", "--step", "32"]
    assert main(infer) == 1                       # missing --out
    assert main([*infer, "--out", str(d / "mask.sdt")]) == 0
    assert load_sdt1(d / "mask.sdt").shape == (32, 32)


def test_no_value_leaks_from_one_call_into_the_next(tmp_path, monkeypatch, capsys):
    """The shared parser hands each call fresh defaults: an infer without
    --crop after one with --crop 64 tiles at SlidingConfig's crop."""
    d = _micro_files(tmp_path)
    seen = []

    def spy(model, image, cfg):
        seen.append(cfg)
        return np.zeros(image.shape[-2:], np.uint8)

    monkeypatch.setattr("sdah.cli.predict_mask", spy)
    infer = ["infer", "--ckpt", str(d / "model.sdck"),
             "--image", str(d / "data" / "img_00000.sdt"), "--out", str(d / "mask.sdt")]
    assert main([*infer, "--crop", "64", "--step", "32", "--sigma-ratio", "0.25"]) == 0
    assert main(infer) == 0
    assert seen == [SlidingConfig(crop=64, step=32, sigma_ratio=0.25), SlidingConfig()]


def test_largest_seed_is_accepted(tmp_path, capsys):
    top = 2**64 - 1
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": dict(MICRO, seed=top), "train": {"seed": top}}))
    assert main(["synth", "--n", "1", "--size", "32", "--seed", str(top),
                 "--out", str(tmp_path / "data")]) == 0
    assert main(["count", "--config", str(cfg), "--size", "32"]) == 0
    capsys.readouterr()
    assert main(["train", "--config", str(cfg), "--print-config"]) == 0
    merged = json.loads(capsys.readouterr().out)
    assert merged["model"]["seed"] == merged["train"]["seed"] == top


def test_missing_files_exit_2(tmp_path, capsys):
    assert main(["infer", "--ckpt", str(tmp_path / "no.sdck"),
                 "--image", str(tmp_path / "no.sdt"),
                 "--out", str(tmp_path / "o.sdt")]) == 2
    assert main(["train", "--data", str(tmp_path / "none"),
                 "--out", str(tmp_path / "r")]) == 2


def test_bad_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"model": {"stem_width": 8}, "optimizer": {}}))
    assert main(["train", "--config", str(bad), "--print-config"]) == 2
    bad.write_text(json.dumps({"model": {"learning_rate": 1.0}}))
    assert main(["count", "--config", str(bad), "--size", "32"]) == 2


def test_indivisible_size_exits_2(tmp_path, capsys):
    assert main(["count", "--size", "33"]) == 2


def test_nonfinite_data_exits_3(workdir, capsys):
    save_sdt1(workdir / "data" / "img_00000.sdt",
              np.full((1, 32, 32), np.nan, dtype=np.float32))
    assert main(["train", "--data", str(workdir / "data"),
                 "--out", str(workdir / "run")]) == 3
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("cmd", ["infer", "explain"])
def test_nonfinite_image_is_named_and_exits_3(cmd, tmp_path, capsys):
    d = _micro_files(tmp_path)
    img = d / "nan.sdt"
    pixels = np.zeros((1, 32, 32), dtype=np.float32)
    pixels[0, 5, 7] = np.nan
    save_sdt1(img, pixels)
    tail = {"infer": ["--crop", "32", "--step", "32", "--out", str(d / "mask.sdt")],
            "explain": ["--block", "enc1", "--out", str(d / "x")]}[cmd]
    assert main([cmd, "--ckpt", str(d / "model.sdck"), "--image", str(img)] + tail) == 3
    assert "input image has non-finite values" in capsys.readouterr().err


@pytest.mark.parametrize("cmd", ["infer", "explain"])
@pytest.mark.parametrize("name,value", [("enc2.sdmsa.bias_table", np.nan),
                                        ("dec1.fc2.b", np.inf)])
def test_nonfinite_checkpoint_tensor_is_named_and_exits_3(cmd, name, value,
                                                          tmp_path, capsys):
    d = _micro_files(tmp_path)
    named = load_checkpoint(d / "model.sdck")
    named[name].flat[0] = value
    save_checkpoint(d / "bad.sdck", named)
    tail = {"infer": ["--crop", "32", "--step", "32", "--out", str(d / "mask.sdt")],
            "explain": ["--block", "enc1", "--out", str(d / "x")]}[cmd]
    img = d / "data" / "img_00000.sdt"
    assert main([cmd, "--ckpt", str(d / "bad.sdck"), "--image", str(img)] + tail) == 3
    assert f"{name} has non-finite values" in capsys.readouterr().err


@pytest.mark.parametrize("cmd", ["infer", "eval", "explain"])
def test_checkpoint_with_an_integer_weight_exits_2(cmd, tmp_path, capsys):
    """A weight stored with SDT1's uint8 code is a data error naming the
    tensor, and nothing is written."""
    d = _micro_files(tmp_path)
    named = load_checkpoint(d / "model.sdck")
    named["head.b"] = np.array([3, 250], np.uint8)
    save_checkpoint(d / "u8.sdck", named)
    out = d / "out"
    img = ["--image", str(d / "data" / "img_00000.sdt")]
    tail = {"infer": [*img, "--crop", "32", "--step", "32", "--out", str(out)],
            "eval": ["--data", str(d / "data"), "--crop", "32", "--step", "32",
                     "--out", str(out)],
            "explain": [*img, "--block", "enc1", "--out", str(out)]}[cmd]
    assert main([cmd, "--ckpt", str(d / "u8.sdck"), *tail]) == 2
    assert "head.b: dtype uint8 is not a float" in capsys.readouterr().err
    assert not out.exists()


def test_conv_only_count_ignores_window_sizes(tmp_path, capsys):
    outs = []
    for windows in ([3, 3, 3, 3], MICRO["window_sizes"]):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": {**MICRO, "branch_mode": "conv_only",
                                             "window_sizes": windows}}))
        assert main(["count", "--config", str(cfg), "--size", "32"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def _micro_files(d: Path) -> Path:
    """An untrained micro checkpoint plus one 32x32 image under d."""
    save_model(d / "model.sdck", build_model(micro_config()))
    assert main(["synth", "--n", "1", "--size", "32", "--classes", "2",
                 "--out", str(d / "data")]) == 0
    return d


@pytest.mark.parametrize("which", ["ckpt", "image"])
@pytest.mark.parametrize("keep", [6, 9])
def test_truncated_headers_exit_2(which, keep, tmp_path, capsys):
    d = _micro_files(tmp_path)
    files = {"ckpt": d / "model.sdck", "image": d / "data" / "img_00000.sdt"}
    cut = d / f"cut_{which}"
    cut.write_bytes(files[which].read_bytes()[:keep])
    files[which] = cut
    assert main(["infer", "--ckpt", str(files["ckpt"]), "--image", str(files["image"]),
                 "--crop", "32", "--step", "32", "--out", str(d / "mask.sdt")]) == 2
    assert "truncated" in capsys.readouterr().err


@pytest.mark.parametrize("target,text", [
    ("config", "[]"),
    ("config", '{"model": null}'),
    ("config", '{"model": {"stage_widths": 5}}'),
    ("config", '{"model": {"seed": "a"}}'),
    ("config", '{"model": {"seed": 18446744073709551616}}'),
    ("config", '{"train": {"seed": 18446744073709551616}}'),
    ("config", '{"model": {"deform_flags": 3}}'),
    ("config", '{"model": {"gamma_off": NaN}}'),
    ("config", '{"train": {"batch_size": "8"}}'),
    ("config", '{"train": {"max_steps": 1e0}}'),
    ("manifest", '{"a": 1}'),
    ("manifest", "[1, 2]"),
])
def test_malformed_json_exits_2(target, text, workdir, capsys):
    if target == "config":
        (workdir / "cfg.json").write_text(text)
        argv = ["train", "--config", str(workdir / "cfg.json"), "--print-config"]
    else:
        (workdir / "data" / "manifest.json").write_text(text)
        argv = ["train", "--data", str(workdir / "data"), "--out", str(workdir / "run")]
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err


DEEP_JSON = "[" * 100_000  # ~100 KB, nested far past the interpreter's recursion limit


@pytest.mark.parametrize("target", ["config", "checkpoint", "manifest"])
def test_deeply_nested_json_exits_2(target, tmp_path, capsys):
    d = _micro_files(tmp_path)
    ckpt, data = d / "model.sdck", d / "data"
    sliding = ["--crop", "32", "--step", "32"]
    if target == "config":
        (d / "cfg.json").write_text(DEEP_JSON)
        argvs = [["count", "--config", str(d / "cfg.json"), "--size", "32"]]
    elif target == "checkpoint":
        named = load_checkpoint(ckpt)
        named[CONFIG_KEY] = np.frombuffer(DEEP_JSON.encode(), np.uint8)
        save_checkpoint(ckpt, named)
        argvs = [["infer", "--ckpt", str(ckpt), "--image", str(data / "img_00000.sdt"),
                  *sliding, "--out", str(d / "mask.sdt")]]
    else:
        (data / "manifest.json").write_text(DEEP_JSON)
        argvs = [["eval", "--ckpt", str(ckpt), "--data", str(data), *sliding,
                  "--out", str(d / "eval.csv")],
                 ["train", "--data", str(data), "--out", str(d / "run")]]
    for argv in argvs:
        assert main(argv) == 2
        assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv,code,word", [
    (["count", "--size", "0"], 1, "--size"),
    (["synth", "--n", "-3", "--size", "32", "--out", "OUT"], 1, "--n"),
    (["synth", "--n", "3", "--size", "0", "--out", "OUT"], 1, "--size"),
    (["synth", "--n", "3", "--size", "32", "--seed", "-1", "--out", "OUT"], 2, "seed"),
    (["explain", "--ckpt", "CKPT", "--image", "IMG", "--block", "enc1",
      "--stride", "-1", "--out", "OUT"], 1, "--stride"),
    (["explain", "--ckpt", "CKPT", "--image", "IMG", "--block", "enc1",
      "--stride", "0", "--out", "OUT"], 1, "--stride"),
    (["infer", "--ckpt", "CKPT", "--image", "IMG", "--crop", "32", "--step", "32",
      "--sigma-ratio", "nan", "--out", "OUT"], 2, "sigma_ratio"),
    (["synth", "--n", "3", "--size", "32", "--seed", str(2**64), "--out", "OUT"],
     2, "seed"),
    (["count", "--config", "BIGSEED", "--size", "32"], 2, "seed"),
    (["eval", "--ckpt", "CKPT", "--data", "EMPTY", "--out", "OUT"], 2, "no samples"),
    (["infer", "--ckpt", "CKPT", "--image", "IMG", "--crop", "32", "--step", "16",
      "--sigma-ratio", "0.01", "--out", "OUT"], 2, "sigma_ratio"),
    (["eval", "--ckpt", "CKPT", "--data", "DATA", "--crop", "32", "--step", "16",
      "--sigma-ratio", "0.01", "--out", "OUT"], 2, "sigma_ratio"),
    (["infer", "--ckpt", "CKPT", "--image", "EMPTYIMG", "--crop", "32", "--step", "32",
      "--out", "OUT"], 2, "non-empty"),
    (["explain", "--ckpt", "CKPT", "--image", "EMPTYIMG", "--block", "enc1",
      "--out", "OUT"], 2, "non-empty"),
])
def test_out_of_range_arguments(argv, code, word, tmp_path, capsys):
    d = _micro_files(tmp_path)
    (d / "big.json").write_text(json.dumps({"model": {"seed": 2**64}}))
    (d / "empty").mkdir()
    (d / "empty" / "manifest.json").write_text("[]")
    save_sdt1(d / "empty.sdt", np.zeros((1, 0, 64), dtype=np.float32))
    paths = {"CKPT": d / "model.sdck", "IMG": d / "data" / "img_00000.sdt",
             "OUT": d / "out", "BIGSEED": d / "big.json", "EMPTY": d / "empty",
             "DATA": d / "data", "EMPTYIMG": d / "empty.sdt"}
    assert main([str(paths.get(a, a)) for a in argv]) == code
    assert word in capsys.readouterr().err
    assert not (d / "out").exists()


def test_narrow_sigma_ratio_still_runs(tmp_path, capsys):
    """0.02 keeps the corner weight of a 32-pixel crop above zero, so the
    config accepts it and a 64x64 image tiled at step 16 gets its mask."""
    d = _micro_files(tmp_path)
    save_sdt1(d / "img.sdt", np.random.default_rng(0).uniform(
        0, 1, (1, 64, 64)).astype(np.float32))
    assert main(["infer", "--ckpt", str(d / "model.sdck"), "--image", str(d / "img.sdt"),
                 "--crop", "32", "--step", "16", "--sigma-ratio", "0.02",
                 "--out", str(d / "mask.sdt")]) == 0
    assert load_sdt1(d / "mask.sdt").shape == (64, 64)
    assert capsys.readouterr().err == ""


def test_out_of_memory_is_an_error_line(tmp_path, monkeypatch, capsys):
    """A crop too large to allocate ends in exit 2 and an `error:` line, not a
    traceback.  The failed allocation is simulated: a real one could succeed
    lazily on an overcommitting host and then fill its memory."""
    d = _micro_files(tmp_path)

    def no_memory(crop, sigma_ratio):
        raise MemoryError(f"Unable to allocate the {crop}x{crop} weight map")

    monkeypatch.setattr("sdah.inference.gaussian_map", no_memory)
    assert main(["infer", "--ckpt", str(d / "model.sdck"),
                 "--image", str(d / "data" / "img_00000.sdt"), "--crop", "32",
                 "--step", "32", "--out", str(d / "mask.sdt")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate") and "Traceback" not in err
    assert not (d / "mask.sdt").exists()


def test_overflowing_checkpoint_is_a_numerical_failure(tmp_path, capsys):
    """A weight of 1e20 overflows the stem's layer-norm variance: exit 3
    naming the layer and op, not a mask of LN offsets and a numpy warning."""
    root = Path(__file__).resolve().parents[1]
    named = load_checkpoint(root / "perfbench" / "micro_desk.sdck")
    named["stem.conv0.w"] = named["stem.conv0.w"] * np.float32(1e20)
    save_checkpoint(tmp_path / "big.sdck", named)
    save_sdt1(tmp_path / "img.sdt", np.random.default_rng(0).uniform(
        0, 1, (1, 32, 32)).astype(np.float32))
    code = main(["infer", "--ckpt", str(tmp_path / "big.sdck"), "--image",
                 str(tmp_path / "img.sdt"), "--crop", "32", "--step", "32",
                 "--out", str(tmp_path / "mask.sdt")])
    err = capsys.readouterr().err
    assert code == 3
    assert "numerical failure" in err and "Warning" not in err
    assert "stem: layer_norm produced" in err
    assert not (tmp_path / "mask.sdt").exists()


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    d = _micro_files(tmp_path_factory.mktemp("valid"))
    (d / "cfg.json").write_text(json.dumps(
        {"model": MICRO, "train": {"batch_size": 2, "max_steps": 100, "seed": 0}}))
    return d


_INFER = ["infer", "--ckpt", "{d}/model.sdck", "--image", "{d}/data/img_00000.sdt",
          "--crop", "32", "--step", "32", "--out", "{d}/mask.sdt"]
_DAMAGE_TARGETS = {  # target -> (the damaged file, the command that reads it)
    "image": ("data/img_00000.sdt", _INFER),
    "ckpt": ("model.sdck", _INFER),
    "manifest": ("data/manifest.json",
                 ["eval", "--ckpt", "{d}/model.sdck", "--data", "{d}/data",
                  "--crop", "32", "--step", "32", "--out", "{d}/eval.csv"]),
    "config": ("cfg.json", ["count", "--config", "{d}/cfg.json", "--size", "32"]),
}


@pytest.mark.parametrize("target", sorted(_DAMAGE_TARGETS))
@settings(max_examples=20)
@given(data=st.data())
def test_damaged_files_exit_with_a_documented_code(valid_files, target, data):
    """Truncated or byte-mutated inputs end in exit 0-3, never a traceback."""
    rel, argv = _DAMAGE_TARGETS[target]
    blob = (valid_files / rel).read_bytes()
    n = len(blob)
    pos = data.draw(st.integers(0, min(n, 96) - 1) | st.integers(0, n - 1))
    if data.draw(st.booleans()):
        blob = blob[:pos]
    else:
        # number characters keep a mutated JSON file parseable more often
        byte = data.draw(st.sampled_from(b"0123456789.-e") | st.integers(0, 255))
        blob = blob[:pos] + bytes([byte]) + blob[pos + 1:]
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(valid_files, tmp, dirs_exist_ok=True)
        (Path(tmp) / rel).write_bytes(blob)
        assert main([a.format(d=tmp) for a in argv]) in (0, 1, 2, 3)


# -- dataset files ------------------------------------------------------------

def _eval(ckpt, data, out) -> int:
    return main(["eval", "--ckpt", str(ckpt), "--data", str(data),
                 "--crop", "32", "--step", "32", "--out", str(out)])


def test_two_d_dataset_images_load_like_cli_images(workdir, capsys):
    """2-D dataset images get one channel, as `--image` files do."""
    flat = workdir / "flat"
    shutil.copytree(workdir / "data", flat)
    for p in flat.glob("img_*.sdt"):
        save_sdt1(p, load_sdt1(p)[0])
    cfg = workdir / "one_step.json"
    cfg.write_text(json.dumps({"model": MICRO,
                               "train": {"batch_size": 2, "max_steps": 1}}))
    ckpt = workdir / "flat.sdck"
    assert main(["train", "--data", str(flat), "--config", str(cfg),
                 "--out", str(ckpt)]) == 0
    assert _eval(ckpt, workdir / "data", workdir / "chw.csv") == 0
    assert _eval(ckpt, flat, workdir / "flat.csv") == 0
    assert (workdir / "flat.csv").read_bytes() == (workdir / "chw.csv").read_bytes()

    lab = flat / "lab_00000.sdt"
    save_sdt1(lab, load_sdt1(lab).astype(np.float32))
    capsys.readouterr()
    assert _eval(ckpt, flat, workdir / "bad.csv") == 2
    assert "2-D uint8" in capsys.readouterr().err
    assert not (workdir / "bad.csv").exists()


@pytest.mark.parametrize("cmd", ["eval", "train"])
def test_single_class_samples_exit_2(cmd, tmp_path, capsys):
    d = _micro_files(tmp_path)
    save_sdt1(d / "data" / "lab_00000.sdt", np.zeros((32, 32), dtype=np.uint8))
    mf = d / "data" / "manifest.json"
    mf.write_text(json.dumps([{**e, "classes": 1} for e in json.loads(mf.read_text())]))
    cfg = d / "cfg.json"
    cfg.write_text(json.dumps({"model": MICRO,
                               "train": {"batch_size": 1, "max_steps": 1}}))
    out = d / ("eval.csv" if cmd == "eval" else "run.sdck")
    if cmd == "eval":
        code = _eval(d / "model.sdck", d / "data", out)
    else:
        code = main(["train", "--data", str(d / "data"), "--config", str(cfg),
                     "--out", str(out)])
    assert code == 2
    assert "at least 2 classes" in capsys.readouterr().err
    assert not out.exists()
