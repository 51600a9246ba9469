import json
import math
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from podlearn.backbone import BackboneConfig
from podlearn.cli import main
from podlearn.config import ExperimentConfig, parse_keyvalue, parse_synthetic_spec
from podlearn.datasets import SyntheticSpec, load_dataset
from podlearn.errors import ConfigError
from podlearn.memory import PerClass
from podlearn.pod import PodConfig
from podlearn.protocol import RunConfig

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

# 6 classes (2, then 4 tasks of 1), 9 exemplars shared, a finetune after every later task
SIX_CLASSES = TINY_INCREMENTAL.replace("classes = 4", "classes = 6") + (
    "memory_mode = total\nmemory_total = 9\nbalanced_finetune = true\n")


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


def test_non_finite_floats_rejected_naming_the_key():
    float_keys = [f.name for f in fields(ExperimentConfig) if isinstance(f.default, float)]
    assert len(float_keys) == 8
    for key in float_keys:
        for bad in ("nan", "inf", "-inf"):
            with pytest.raises(ConfigError, match=f"^field {key}: must be a finite number"):
                ExperimentConfig.from_text(f"{key} = {bad}")
            with pytest.raises(ConfigError, match=f"^field {key}: must be a finite number"):
                ExperimentConfig.from_dict({key: float(bad)})
    for bad in ("nan", "inf"):
        with pytest.raises(ConfigError, match="^field noise_sigma: must be a finite number"):
            parse_synthetic_spec(f"noise_sigma = {bad}")


def test_negative_seeds_rejected_naming_the_key():
    for key in ("seed", "pattern_seed"):
        with pytest.raises(ConfigError, match=f"^field {key}: a seed must be >= 0, got -1$"):
            ExperimentConfig.from_text(f"{key} = -1")
        with pytest.raises(ConfigError, match=f"^field {key}: a seed must be >= 0, got -2$"):
            parse_synthetic_spec(f"{key} = -2")
    assert ExperimentConfig.from_text("seed = 0\npattern_seed = 0").pattern_seed == 0


def test_defaults_come_from_the_library_classes():
    cfg = ExperimentConfig()
    assert cfg.synthetic_spec() == SyntheticSpec()
    assert cfg.pod_config() == PodConfig()
    assert cfg.run_config((3, 8, 8)).backbone == BackboneConfig()
    assert cfg.run_config((3, 8, 8)) == RunConfig()
    assert cfg.budget() == RunConfig().budget == PerClass(cfg.memory_per_class)


def test_readme_config_block_is_the_defaults():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Config format", 1)[1]
    block = re.search(r"```ini\n(.*?)```", section, re.S).group(1)
    assert list(parse_keyvalue(block)) == [f.name for f in fields(ExperimentConfig)]
    assert ExperimentConfig.from_text(block) == ExperimentConfig()


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
    lines = Path(os.path.join(out, "metrics.csv")).read_text().strip().splitlines()
    assert lines[0] == "task_index,seen_classes,nme_accuracy,cnn_accuracy"
    assert len(lines) == 2
    assert lines[1].startswith("0,4,")


def test_run_outputs_summary_and_plot_data(tmp_path):
    cfg_path = _write(tmp_path, TINY_INCREMENTAL)
    out = str(tmp_path / "out")
    assert main(["run", cfg_path, "--output", out]) == 0
    text = Path(os.path.join(out, "summary.json")).read_text()
    summary = json.loads(text)
    assert text == json.dumps(summary, indent=2)
    assert summary["tasks"] == summary["timed_tasks"] == 3
    assert 0.0 <= summary["avg_incremental_accuracy"]["nme"] <= 1.0
    assert summary["seed"] == 0
    # the final learned scale, so a run stuck at its floor shows
    assert math.isfinite(summary["eta"]) and summary["eta"] >= summary["config"]["eta_init"]
    # flags such as balanced_finetune are recorded once, in the config echo
    assert summary["config"]["balanced_finetune"] is False and "metadata" not in summary
    # config echo reparses to an equal config
    echoed = ExperimentConfig.from_dict(summary["config"])
    assert echoed == ExperimentConfig.from_file(cfg_path)
    plot = Path(os.path.join(out, "plot_data.csv")).read_text().strip().splitlines()
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
    a = Path(os.path.join(out_a, "metrics.csv")).read_bytes()
    b = Path(os.path.join(out_b, "metrics.csv")).read_bytes()
    assert a == b


def test_run_invalid_config_exits_one(tmp_path, capsys):
    cfg_path = _write(tmp_path, "epochs_per_task = never")
    assert main(["run", cfg_path, "--output", str(tmp_path / "o")]) == 1
    assert "epochs_per_task" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["eta_init = inf", "learning_rate = nan", "seed = -1",
                                  "pattern_seed = -1"])
def test_run_bad_number_exits_one_before_any_data(tmp_path, capsys, text):
    cfg_path = _write(tmp_path, text)
    out = tmp_path / "o"
    assert main(["run", cfg_path, "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: field {text.split(' ')[0]}: ")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("text, message", [
    ("proxies_per_class = 0", "proxies_per_class must be >= 1, got 0"),
    ("eta_init = 0.0", "eta_init must be > 0, got 0.0"),
    ("eta_init = -1.5", "eta_init must be > 0, got -1.5"),
    ("margin = -0.1", "margin must be >= 0, got -0.1"),
])
def test_classifier_settings_checked_by_validate(text, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        ExperimentConfig.from_text(text)
    assert ExperimentConfig.from_text("proxies_per_class = 1\nmargin = 0.0").margin == 0.0


def test_run_zero_proxies_exits_one_before_the_output_directory(tmp_path, capsys):
    cfg_path = _write(tmp_path, "proxies_per_class = 0")
    out = tmp_path / "o"
    assert main(["run", cfg_path, "--output", str(out)]) == 1
    assert capsys.readouterr().err == "config error: proxies_per_class must be >= 1, got 0\n"
    assert not out.exists()


@pytest.mark.parametrize("text, message", [
    # one task, so no increment is ever taken
    ("classes = 5\ninitial_task_size = 5\nincrement = -7", "increment must be >= 1, got -7"),
    ("memory_mode = per_class\nmemory_total = -1", "Total budget must be >= 1, got -1"),
    ("memory_mode = total\nmemory_per_class = 0", "PerClass budget must be >= 1, got 0"),
])
def test_run_rejects_an_invalid_value_the_run_would_not_use(tmp_path, capsys, text, message):
    # every value is checked, so none is echoed into summary.json or a checkpoint
    cfg_path = _write(tmp_path, text)
    out = tmp_path / "o"
    assert main(["run", cfg_path, "--output", str(out)]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


def test_run_overflowing_synthetic_noise_is_a_config_error(tmp_path, capsys):
    cfg_path = _write(tmp_path, TINY_CONFIG + "noise_sigma = 1e308\n")
    assert main(["run", cfg_path, "--output", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: synthetic dataset: field train_x holds non-finite values")
    assert "Traceback" not in err
    assert not (tmp_path / "o" / "metrics.csv").exists()


def test_run_missing_config_exits_one(tmp_path):
    assert main(["run", str(tmp_path / "nope.cfg")]) == 1


def test_resume_from_checkpoint_completes_run(tmp_path):
    cfg_path = _write(tmp_path, TINY_INCREMENTAL)
    out = str(tmp_path / "out")
    assert main(["run", cfg_path, "--output", out]) == 0
    full = Path(os.path.join(out, "metrics.csv")).read_text()

    # truncate the checkpoint back to after task 0 and resume
    cfg = ExperimentConfig.from_file(cfg_path)
    ds = cfg.load_data()
    from podlearn.checkpoint import save_run_checkpoint
    from podlearn.protocol import IncrementalRunner

    runner = IncrementalRunner(cfg.schedule(), cfg.run_config(ds.input_shape), ds, cfg.seed)
    runner.run_next_task()
    save_run_checkpoint(os.path.join(out, "checkpoint.json"), cfg.to_dict(),
                        runner.to_state())
    assert main(["run", cfg_path, "--output", out, "--resume"]) == 0
    resumed = Path(os.path.join(out, "metrics.csv")).read_text()
    assert resumed == full


def test_resume_rejects_mismatched_config(tmp_path, capsys):
    cfg_path = _write(tmp_path, TINY_INCREMENTAL)
    out = str(tmp_path / "out")
    assert main(["run", cfg_path, "--output", out]) == 0
    other = _write(tmp_path, TINY_INCREMENTAL.replace("seed = 0", "seed = 3"), "other.cfg")
    assert main(["run", other, "--output", out, "--resume"]) == 1


def _checkpointed_out_dir(tmp_path, tasks=0, text=TINY_INCREMENTAL):
    """A config of ``text`` and an output dir holding a valid checkpoint.json
    written after ``tasks`` finished tasks."""
    from podlearn.checkpoint import save_run_checkpoint
    from podlearn.protocol import IncrementalRunner

    cfg_path = _write(tmp_path, text)
    cfg = ExperimentConfig.from_file(cfg_path)
    ds = cfg.load_data()
    runner = IncrementalRunner(cfg.schedule(), cfg.run_config(ds.input_shape), ds, cfg.seed)
    for _ in range(tasks):
        runner.run_next_task()
    out = tmp_path / "out"
    out.mkdir()
    save_run_checkpoint(str(out / "checkpoint.json"), cfg.to_dict(), runner.to_state())
    return cfg_path, out


def test_resume_truncated_checkpoint_exits_one(tmp_path, capsys):
    cfg_path, out = _checkpointed_out_dir(tmp_path)
    ckpt = out / "checkpoint.json"
    ckpt.write_text(ckpt.read_text()[:200])
    assert main(["run", cfg_path, "--output", str(out), "--resume"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and str(ckpt) in err


def test_resume_checkpoint_missing_field_exits_one(tmp_path, capsys):
    cfg_path, out = _checkpointed_out_dir(tmp_path)
    ckpt = out / "checkpoint.json"
    blob = json.loads(ckpt.read_text())
    del blob["runner"]["bank"]
    ckpt.write_text(json.dumps(blob))
    assert main(["run", cfg_path, "--output", str(out), "--resume"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "runner.bank" in err


def test_resume_checkpoint_missing_nested_field_exits_one(tmp_path, capsys):
    cfg_path, out = _checkpointed_out_dir(tmp_path)
    ckpt = out / "checkpoint.json"
    blob = json.loads(ckpt.read_text())
    del blob["runner"]["bank"]["theta"]
    ckpt.write_text(json.dumps(blob))
    assert main(["run", cfg_path, "--output", str(out), "--resume"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "runner.bank.theta" in err


def test_resume_parent_layout_checkpoint_matches_full_run(tmp_path):
    cfg_path = _write(tmp_path, TINY_INCREMENTAL)
    full_out = str(tmp_path / "full")
    assert main(["run", cfg_path, "--output", full_out]) == 0
    full = Path(os.path.join(full_out, "metrics.csv")).read_bytes()

    cfg_path, out = _checkpointed_out_dir(tmp_path, tasks=1)
    ckpt = out / "checkpoint.json"
    blob = json.loads(ckpt.read_text())
    state = blob["runner"]
    # the runner stores only learned state: nothing the config or schedule fix
    assert sorted(state) == ["backbone", "bank", "memory", "metrics", "rng"]
    assert (sorted(state["backbone"]), sorted(state["bank"]), sorted(state["memory"])) == (
        ["params"], ["eta", "theta"], ["per_class"])
    assert sorted(state["metrics"]) == ["cnn_accuracy", "nme_accuracy"]
    # add back the copies of config values and of the run's progress that
    # checkpoints of the older layout carry
    state["class_map"] = ExperimentConfig.from_file(cfg_path).schedule().task_classes(0)
    state["seed"] = 0
    state["task_cursor"] = 1
    state["metrics"]["seen_classes"] = [2]
    state["backbone"].update(version=1, config={
        "input_shape": [2, 6, 6], "stages": [[4, 1], [8, 1]], "embedding_dim": 8})
    state["bank"].update(dim=8, proxies_per_class=2, delta=0.6, eta_floor=1.0)
    state["memory"]["budget"] = {"kind": "per_class", "m": 3}
    state["metrics"]["metadata"] = {"balanced_finetune": False}
    ckpt.write_text(json.dumps(blob))
    assert blob["version"] == 1
    assert main(["run", cfg_path, "--output", str(out), "--resume"]) == 0
    assert (out / "metrics.csv").read_bytes() == full


@pytest.fixture(scope="module")
def six_class_full_run(tmp_path_factory):
    """The output dir of a full ``SIX_CLASSES`` run."""
    tmp = tmp_path_factory.mktemp("six_classes")
    out = tmp / "full"
    assert main(["run", _write(tmp, SIX_CLASSES), "--output", str(out)]) == 0
    return out


@pytest.mark.parametrize("tasks", range(5))
def test_resumed_run_ends_with_the_full_runs_checkpoint(tmp_path, six_class_full_run, tasks):
    cfg_path, out = _checkpointed_out_dir(tmp_path, tasks, SIX_CLASSES)
    assert main(["run", cfg_path, "--output", str(out), "--resume"]) == 0
    for name in ("checkpoint.json", "metrics.csv"):
        assert (out / name).read_bytes() == (six_class_full_run / name).read_bytes()


@pytest.mark.parametrize("tasks", [0, 1, 3])
def test_resumed_summary_counts_the_tasks_its_wall_time_covers(tmp_path, tasks):
    cfg_path, out = _checkpointed_out_dir(tmp_path, tasks)
    assert main(["run", cfg_path, "--output", str(out), "--resume"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert (summary["tasks"], summary["timed_tasks"]) == (3, 3 - tasks)


def test_resume_checkpoint_holding_a_seed_matches_full_run(tmp_path):
    # checkpoints written before the runner state dropped its seed still hold
    # one; the parameters and RNG state it seeded are loaded, so it is ignored
    cfg_path = _write(tmp_path, TINY_INCREMENTAL)
    full_out = str(tmp_path / "full")
    assert main(["run", cfg_path, "--output", full_out]) == 0
    full = Path(os.path.join(full_out, "metrics.csv")).read_bytes()

    cfg_path, out = _checkpointed_out_dir(tmp_path, tasks=1)
    ckpt = out / "checkpoint.json"
    blob = json.loads(ckpt.read_text())
    blob["runner"]["seed"] = 12345
    ckpt.write_text(json.dumps(blob))
    assert main(["run", cfg_path, "--output", str(out), "--resume"]) == 0
    assert (out / "metrics.csv").read_bytes() == full


@pytest.mark.parametrize("bad", ["out_of_range", "other_class"])
def test_resume_bad_exemplar_index_exits_one(tmp_path, capsys, bad):
    cfg_path, out = _checkpointed_out_dir(tmp_path, tasks=1)
    ckpt = out / "checkpoint.json"
    blob = json.loads(ckpt.read_text())
    per_class = blob["runner"]["memory"]["per_class"]
    per_class["1"][0] = 10**6 if bad == "out_of_range" else per_class["0"][0]
    ckpt.write_text(json.dumps(blob))
    assert main(["run", cfg_path, "--output", str(out), "--resume"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: checkpoint field runner.memory.per_class.1: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("keys, corrupt", [
    (("memory", "per_class", "0"), lambda stored: []),
    (("bank", "theta"), lambda stored: np.zeros(np.shape(stored)).tolist()),
], ids=["exemplars_empty", "proxies_zero"])
def test_resume_state_no_run_can_write_exits_one_before_training(tmp_path, capsys, keys,
                                                                  corrupt):
    # left to a later task, an empty exemplar list or all-zero proxies would exit 2
    cfg_path, out = _checkpointed_out_dir(tmp_path, tasks=1)
    ckpt = out / "checkpoint.json"
    blob = json.loads(ckpt.read_text())
    node = blob["runner"]
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = corrupt(node[keys[-1]])
    ckpt.write_text(json.dumps(blob))
    (out / "metrics.csv").write_text("left by the interrupted run\n")
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert main(["run", cfg_path, "--output", str(out), "--resume"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: checkpoint field runner." + ".".join(keys) + " ")
    assert err.count("\n") == 1
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_checkpoint_write_that_fails_mid_run_exits_two_and_keeps_the_last_one(
        tmp_path, capsys, monkeypatch):
    import podlearn.cli

    cfg_path = _write(tmp_path, TINY_INCREMENTAL)
    full_out = tmp_path / "full"
    assert main(["run", cfg_path, "--output", str(full_out)]) == 0
    full = (full_out / "metrics.csv").read_text()

    save = podlearn.cli.save_run_checkpoint
    calls = []

    def save_once_then_fail(*args):
        calls.append(args)
        if len(calls) == 2:
            raise OSError("disk full")
        save(*args)

    monkeypatch.setattr(podlearn.cli, "save_run_checkpoint", save_once_then_fail)
    out = tmp_path / "out"
    capsys.readouterr()  # drain the full run's log
    assert main(["run", cfg_path, "--output", str(out)]) == 2
    assert capsys.readouterr().err == "runtime failure: disk full\n"
    # both finished tasks are in metrics.csv; the checkpoint is the one after task 0
    assert (out / "metrics.csv").read_text().splitlines() == full.splitlines()[:3]
    ckpt = json.loads((out / "checkpoint.json").read_text())
    assert len(ckpt["runner"]["metrics"]["nme_accuracy"]) == 1

    monkeypatch.undo()
    assert main(["run", cfg_path, "--output", str(out), "--resume"]) == 0
    assert (out / "metrics.csv").read_text() == full


def test_resume_unreadable_checkpoint_exits_one(tmp_path, capsys):
    cfg_path, out = _checkpointed_out_dir(tmp_path)
    ckpt = out / "checkpoint.json"
    ckpt.unlink()
    ckpt.mkdir()
    assert main(["run", cfg_path, "--output", str(out), "--resume"]) == 1
    out_text, err = capsys.readouterr()
    assert out_text == "" and err.startswith("config error: ") and str(ckpt) in err
    assert sorted(p.name for p in out.iterdir()) == ["checkpoint.json"]


# -- bad inputs, in process and in a real process -------------------------------------


NOT_UTF8 = b"\xff"
BAD_INPUTS = {  # case -> exit code
    "total_budget": 1,
    "checkpoint_write": 2,
    "checkpoint_dir_on_resume": 1,
    "summarize_out_missing_dir": 2,
    "config_not_utf8": 1,
    "checkpoint_not_utf8": 1,
    "summary_not_utf8": 1,
    "spec_not_utf8": 1,
}


def _bad_input(tmp_path, case):
    """The CLI arguments of ``case`` in ``BAD_INPUTS`` and the input file at fault."""
    cfg_path = _write(tmp_path, TINY_INCREMENTAL)
    out = tmp_path / "out"
    run = ["run", cfg_path, "--output", str(out)]
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    summary = run_dir / "summary.json"
    summary.write_text('{"avg_incremental_accuracy": {"nme": 0.5, "cnn": 0.5}}')
    ckpt = out / "checkpoint.json"
    if case == "total_budget":
        text = TINY_INCREMENTAL + "memory_mode = total\nmemory_total = 3\n"
        return ["run", _write(tmp_path, text), "--output", str(out)], None
    if case in ("checkpoint_write", "checkpoint_dir_on_resume"):
        ckpt.mkdir(parents=True)
        return run + ["--resume"] * (case == "checkpoint_dir_on_resume"), ckpt
    if case == "summarize_out_missing_dir":
        return ["summarize", str(run_dir), "--out", str(tmp_path / "nowhere" / "s.csv")], None
    if case == "config_not_utf8":
        Path(cfg_path).write_bytes(NOT_UTF8 + TINY_INCREMENTAL.encode())
        return run, Path(cfg_path)
    if case == "checkpoint_not_utf8":
        out.mkdir()
        ckpt.write_bytes(NOT_UTF8 + b"{}")
        return run + ["--resume"], ckpt
    if case == "summary_not_utf8":
        summary.write_bytes(NOT_UTF8 + summary.read_bytes())
        return ["summarize", str(run_dir)], summary
    spec = tmp_path / "spec.cfg"
    spec.write_bytes(NOT_UTF8 + b"classes = 3\n")
    return ["generate", str(spec), str(tmp_path / "d.npz")], spec


@pytest.mark.parametrize("case", [c for c in BAD_INPUTS if c.endswith("_not_utf8")])
def test_input_that_is_not_utf8_exits_one_naming_the_file(tmp_path, capsys, case):
    argv, path = _bad_input(tmp_path, case)
    before = sorted(tmp_path.rglob("*"))
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1 and str(path) in err
    assert sorted(tmp_path.rglob("*")) == before  # nothing written


@pytest.mark.parametrize("case", BAD_INPUTS)
def test_bad_input_gives_one_stderr_line_and_its_exit_code_in_a_real_process(tmp_path,
                                                                              case):
    argv, _ = _bad_input(tmp_path, case)
    before = sorted(tmp_path.rglob("*"))
    root = Path(__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "podlearn.cli", *argv], capture_output=True, text=True,
        timeout=120, env={**os.environ, "PYTHONPATH": path},
    )
    code = BAD_INPUTS[case]
    assert proc.returncode == code, proc.stderr
    assert proc.stderr.startswith("config error: " if code == 1 else "runtime failure: ")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
    if code == 1:
        assert sorted(tmp_path.rglob("*")) == before  # nothing written


# -- generate / summarize --------------------------------------------------------------


def test_generate_writes_loadable_dataset(tmp_path):
    spec_path = _write(tmp_path, "classes = 3\nsamples_per_class = 10\nseed = 1", "spec.cfg")
    out = str(tmp_path / "data.npz")
    assert main(["generate", spec_path, out]) == 0
    ds = load_dataset(out)
    assert np.unique(ds.train_y).tolist() == [0, 1, 2]
    assert ds.train_y.size == 24


def test_generate_writes_exactly_the_path_it_prints(tmp_path, capsys):
    spec_path = _write(
        tmp_path,
        "classes = 4\nsamples_per_class = 20\nchannels = 2\nwidth = 6\nheight = 6",
        "spec.cfg",
    )
    data = tmp_path / "data"  # no .npz suffix
    assert main(["generate", spec_path, str(data)]) == 0
    assert capsys.readouterr().out.endswith(f" to {data}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data", "spec.cfg"]
    cfg_path = _write(tmp_path, TINY_CONFIG + f"\ndataset = npz:{data}\n")
    assert main(["run", cfg_path, "--output", str(tmp_path / "out")]) == 0


def test_generate_write_that_fails_leaves_no_file(tmp_path, capsys, monkeypatch):
    def savez_part_then_fail(fh, **arrays):
        fh.write(b"PK\x03\x04")
        raise OSError("disk full")

    monkeypatch.setattr(np, "savez", savez_part_then_fail)
    spec_path = _write(tmp_path, "classes = 3\nsamples_per_class = 10", "spec.cfg")
    assert main(["generate", spec_path, str(tmp_path / "data.npz")]) == 2
    assert capsys.readouterr().err == "runtime failure: disk full\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["spec.cfg"]


def test_generate_bad_spec_exits_one(tmp_path):
    spec_path = _write(tmp_path, "classes = one", "spec.cfg")
    assert main(["generate", spec_path, str(tmp_path / "d.npz")]) == 1


def test_generate_negative_seed_exits_one(tmp_path, capsys):
    spec_path = _write(tmp_path, "classes = 3\nseed = -2", "spec.cfg")
    out = tmp_path / "d.npz"
    assert main(["generate", spec_path, str(out)]) == 1
    assert capsys.readouterr().err == "config error: field seed: a seed must be >= 0, got -2\n"
    assert not out.exists()


def test_generate_overflowing_noise_exits_one(tmp_path, capsys):
    spec_path = _write(tmp_path, "classes = 3\nnoise_sigma = 1e308", "spec.cfg")
    out = tmp_path / "d.npz"
    assert main(["generate", spec_path, str(out)]) == 1
    assert capsys.readouterr().err.startswith(
        "config error: synthetic dataset: field train_x holds non-finite values")
    assert not out.exists()


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


def test_run_from_npz_with_nan_input_exits_one(tmp_path, capsys):
    spec_path = _write(
        tmp_path,
        "classes = 4\nsamples_per_class = 20\nchannels = 2\nwidth = 6\nheight = 6",
        "spec.cfg",
    )
    npz = str(tmp_path / "data.npz")
    assert main(["generate", spec_path, npz]) == 0
    with np.load(npz) as archive:
        arrays = dict(archive)
    arrays["train_x"][3, 0, 1, 1] = np.nan
    np.savez(npz, **arrays)
    cfg_path = _write(tmp_path, TINY_CONFIG + f"\ndataset = npz:{npz}\n")
    assert main(["run", cfg_path, "--output", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "train_x" in err


@pytest.mark.parametrize("case, message", [
    ("train_rows", "class 1 has no training samples"),
    ("test_split", "the first task's classes [2, 0] have no test samples"),
    ("total_budget", "Total budget of 3 exemplars cannot keep one for each of the 4 classes"),
    ("one_class_nca", "NCA loss needs >= 2 classes in the first task"),
])
def test_run_that_cannot_serve_the_schedule_exits_one_before_training(tmp_path, capsys,
                                                                     case, message):
    spec_path = _write(
        tmp_path,
        "classes = 4\nsamples_per_class = 20\nchannels = 2\nwidth = 6\nheight = 6",
        "spec.cfg",
    )
    npz = str(tmp_path / "data.npz")
    assert main(["generate", spec_path, npz]) == 0
    with np.load(npz) as archive:
        arrays = dict(archive)
    if case == "train_rows":
        keep = arrays["train_y"] != 1
        arrays["train_x"], arrays["train_y"] = arrays["train_x"][keep], arrays["train_y"][keep]
    elif case == "test_split":
        arrays["test_x"], arrays["test_y"] = arrays["test_x"][:0], arrays["test_y"][:0]
    np.savez(npz, **arrays)
    text = TINY_INCREMENTAL + f"\ndataset = npz:{npz}\n"
    if case == "total_budget":
        text += "memory_mode = total\nmemory_total = 3\n"
    elif case == "one_class_nca":
        text = text.replace("initial_task_size = 2", "initial_task_size = 1")
    out = tmp_path / "out"
    capsys.readouterr()  # drain the generate log
    assert main(["run", _write(tmp_path, text), "--output", str(out)]) == 1
    assert capsys.readouterr() == ("", f"config error: {message}\n")  # no task ran
    assert not out.exists()


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
    assert lines[0] == "directory,seed,tasks,avg_nme,avg_cnn,timed_tasks,wall_time_seconds"
    assert len(lines) == 3
    csv_path = tmp_path / "summary.csv"
    assert main(["summarize", *outs, "--out", str(csv_path)]) == 0
    assert csv_path.read_text().splitlines() == lines
    assert sorted(p.name for p in tmp_path.iterdir() if p.is_file()) == [
        "exp.cfg", "exp0.cfg", "exp1.cfg", "summary.csv"]


def test_summarize_missing_dir_exits_one(tmp_path):
    assert main(["summarize", str(tmp_path / "ghost")]) == 1


def test_summarize_out_into_a_missing_directory_exits_two(tmp_path, capsys):
    argv, _ = _bad_input(tmp_path, "summarize_out_missing_dir")
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("runtime failure: ") and str(tmp_path / "nowhere") in err


def test_summarize_malformed_summary_exits_one(tmp_path, capsys):
    for name, text in (("no_average", '{"seed": 0, "tasks": 3}'), ("a_list", "[1, 2]")):
        run_dir = tmp_path / name
        run_dir.mkdir()
        (run_dir / "summary.json").write_text(text)
        assert main(["summarize", str(run_dir)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {run_dir / 'summary.json'}: ")
