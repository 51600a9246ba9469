import json
import os

import numpy as np
import pytest

from podlearn.cli import main
from podlearn.config import ExperimentConfig, parse_keyvalue, parse_synthetic_spec
from podlearn.datasets import load_dataset
from podlearn.errors import ConfigError

TINY_CONFIG = """
# tiny smoke experiment
seed = 0
classes = 4
samples_per_class = 20
channels = 2
width = 6
height = 6
initial_task_size = 4
increment = 1
stage_filters = 4,8
embedding_dim = 8
proxies_per_class = 2
memory_per_class = 3
epochs_per_task = 3
batch_size = 16
"""

TINY_INCREMENTAL = TINY_CONFIG.replace("initial_task_size = 4", "initial_task_size = 2")


def _write(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# -- config parsing ---------------------------------------------------------------


def test_parse_keyvalue_comments_and_blanks():
    raw = parse_keyvalue("# comment\n\na = 1  # trailing\n b = two \n")
    assert raw == {"a": "1", "b": "two"}


def test_parse_keyvalue_rejects_garbage():
    with pytest.raises(ConfigError):
        parse_keyvalue("not a pair")
    with pytest.raises(ConfigError):
        parse_keyvalue("a = 1\na = 2")


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError) as exc:
        ExperimentConfig.from_text("learning_rte = 0.1")
    assert "learning_rte" in str(exc.value)
    # the pooling pipeline is fixed: its former toggles are unknown keys now
    for text in ("squared_features = true", "normalize_pooled = false"):
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_text(text)
        assert text.split(" ")[0] in str(exc.value)


def test_bad_value_gives_field_level_error():
    for text in ("epochs_per_task = soon", "balanced_finetune = maybe", "stage_filters = 4,x"):
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_text(text)
        assert text.split(" ")[0] in str(exc.value)
    with pytest.raises(ConfigError) as exc:
        parse_synthetic_spec("noise_sigma = loud")
    assert "noise_sigma" in str(exc.value)


def test_values_cast_by_field_type():
    cfg = ExperimentConfig.from_text(
        "stage_filters = 4, 8\nbalanced_finetune = yes\nmargin = 1\npod_mode = gap"
    )
    assert cfg.stage_filters == (4, 8)
    assert cfg.balanced_finetune is True
    assert cfg.margin == 1.0 and isinstance(cfg.margin, float)
    assert cfg.pod_mode == "gap"


def test_inconsistent_schedule_rejected():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_text("classes = 10\ninitial_task_size = 4\nincrement = 4")


def test_defaults_echo_roundtrip():
    cfg = ExperimentConfig.from_text(TINY_CONFIG)
    assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg


def test_paper_hyperparameters_are_defaults():
    cfg = ExperimentConfig()
    assert cfg.lambda_c == 3.0
    assert cfg.lambda_f == 1.0
    assert cfg.proxies_per_class == 10
    assert cfg.memory_per_class == 20
    assert cfg.memory_total == 2000
    assert cfg.momentum == 0.9
    assert cfg.pod_mode == "spatial"


def test_synthetic_spec_parsing():
    spec, seed = parse_synthetic_spec("classes = 3\nsamples_per_class = 10\nseed = 7")
    assert spec.classes == 3
    assert seed == 7
    with pytest.raises(ConfigError):
        parse_synthetic_spec("classez = 3")


# -- run subcommand -----------------------------------------------------------------


def test_run_single_task_writes_one_row(tmp_path):
    cfg_path = _write(tmp_path, TINY_CONFIG)
    out = str(tmp_path / "out")
    assert main(["run", cfg_path, "--output", out]) == 0
    lines = open(os.path.join(out, "metrics.csv")).read().strip().splitlines()
    assert lines[0] == "task_index,seen_classes,nme_accuracy,cnn_accuracy"
    assert len(lines) == 2
    assert lines[1].startswith("0,4,")


def test_run_outputs_summary_and_plot_data(tmp_path):
    cfg_path = _write(tmp_path, TINY_INCREMENTAL)
    out = str(tmp_path / "out")
    assert main(["run", cfg_path, "--output", out]) == 0
    text = open(os.path.join(out, "summary.json")).read()
    summary = json.loads(text)
    assert text == json.dumps(summary, indent=2)
    assert summary["tasks"] == 3
    assert 0.0 <= summary["avg_incremental_accuracy"]["nme"] <= 1.0
    assert summary["seed"] == 0
    # config echo reparses to an equal config
    echoed = ExperimentConfig.from_dict(summary["config"])
    assert echoed == ExperimentConfig.from_file(cfg_path)
    plot = open(os.path.join(out, "plot_data.csv")).read().strip().splitlines()
    assert plot[0] == "mode,task_index,seen_classes,accuracy"
    assert len(plot) == 1 + 2 * 3  # both modes, three tasks
    # the atomic writers leave no temporary file (metrics.csv.tmp included)
    assert sorted(os.listdir(out)) == [
        "checkpoint.json", "metrics.csv", "plot_data.csv", "summary.json"]


def test_rerun_same_seed_byte_identical_metrics(tmp_path):
    cfg_path = _write(tmp_path, TINY_INCREMENTAL)
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    assert main(["run", cfg_path, "--output", out_a]) == 0
    assert main(["run", cfg_path, "--output", out_b]) == 0
    a = open(os.path.join(out_a, "metrics.csv"), "rb").read()
    b = open(os.path.join(out_b, "metrics.csv"), "rb").read()
    assert a == b


def test_run_invalid_config_exits_one(tmp_path, capsys):
    cfg_path = _write(tmp_path, "epochs_per_task = never")
    assert main(["run", cfg_path, "--output", str(tmp_path / "o")]) == 1
    assert "epochs_per_task" in capsys.readouterr().err


def test_run_missing_config_exits_one(tmp_path):
    assert main(["run", str(tmp_path / "nope.cfg")]) == 1


def test_resume_from_checkpoint_completes_run(tmp_path):
    cfg_path = _write(tmp_path, TINY_INCREMENTAL)
    out = str(tmp_path / "out")
    assert main(["run", cfg_path, "--output", out]) == 0
    full = open(os.path.join(out, "metrics.csv")).read()

    # truncate the checkpoint back to after task 0 and resume
    ckpt = json.load(open(os.path.join(out, "checkpoint.json")))
    cfg = ExperimentConfig.from_file(cfg_path)
    ds = cfg.load_data()
    from podlearn.checkpoint import save_run_checkpoint
    from podlearn.protocol import IncrementalRunner

    runner = IncrementalRunner(cfg.schedule(), cfg.run_config(ds.input_shape), ds, cfg.seed)
    runner.run_next_task()
    save_run_checkpoint(os.path.join(out, "checkpoint.json"), cfg.to_dict(),
                        runner.to_state())
    assert main(["run", cfg_path, "--output", out, "--resume"]) == 0
    resumed = open(os.path.join(out, "metrics.csv")).read()
    assert resumed == full


def test_resume_rejects_mismatched_config(tmp_path, capsys):
    cfg_path = _write(tmp_path, TINY_INCREMENTAL)
    out = str(tmp_path / "out")
    assert main(["run", cfg_path, "--output", out]) == 0
    other = _write(tmp_path, TINY_INCREMENTAL.replace("seed = 0", "seed = 3"), "other.cfg")
    assert main(["run", other, "--output", out, "--resume"]) == 1


# -- generate / summarize --------------------------------------------------------------


def test_generate_writes_loadable_dataset(tmp_path):
    spec_path = _write(tmp_path, "classes = 3\nsamples_per_class = 10\nseed = 1", "spec.cfg")
    out = str(tmp_path / "data.npz")
    assert main(["generate", spec_path, out]) == 0
    ds = load_dataset(out)
    assert ds.class_count == 3
    assert ds.train_y.size == 24


def test_generate_bad_spec_exits_one(tmp_path):
    spec_path = _write(tmp_path, "classes = one", "spec.cfg")
    assert main(["generate", spec_path, str(tmp_path / "d.npz")]) == 1


def test_run_from_generated_npz(tmp_path):
    spec_path = _write(
        tmp_path,
        "classes = 4\nsamples_per_class = 20\nchannels = 2\nwidth = 6\nheight = 6",
        "spec.cfg",
    )
    npz = str(tmp_path / "data.npz")
    assert main(["generate", spec_path, npz]) == 0
    cfg_text = TINY_CONFIG + f"\ndataset = npz:{npz}\n"
    cfg_path = _write(tmp_path, cfg_text)
    out = str(tmp_path / "out")
    assert main(["run", cfg_path, "--output", out]) == 0


def test_summarize_merges_runs(tmp_path, capsys):
    cfg_path = _write(tmp_path, TINY_CONFIG)
    outs = []
    for i, seed in enumerate((0, 1)):
        text = TINY_CONFIG.replace("seed = 0", f"seed = {seed}")
        p = _write(tmp_path, text, f"exp{i}.cfg")
        out = str(tmp_path / f"run{i}")
        assert main(["run", p, "--output", out]) == 0
        outs.append(out)
    capsys.readouterr()  # drain the run logs
    assert main(["summarize", *outs]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("directory,seed,tasks,avg_nme,avg_cnn")
    assert len(lines) == 3


def test_summarize_missing_dir_exits_one(tmp_path):
    assert main(["summarize", str(tmp_path / "ghost")]) == 1
