import csv
import json
import math
import os
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

from vdmini import cli
from vdmini import diffusion as df
from vdmini import icmd
from vdmini import netgraph as ng
from vdmini import pruner
from vdmini import synthdata as sd
from vdmini import tensor as T
from vdmini.errors import VdminiError
from vdmini.optim import Adam, named_grads
from vdmini.tensor import Tape, Tensor, backward

from defaults import configured
from test_synthdata import write_vdds

GOLDEN = Path(__file__).parent / "golden" / "plan.json"

FAST = {
    "data": {"n_train": 4, "n_eval": 4, "frames": 2},
    "model": {"widths": [4, 6, 8], "emb_dim": 8},
    "schedule": {"n_levels": 4},
    "train_teacher": {"steps": 2, "batch": 2},
    "profile": {"sample_steps": 1, "latency_reps": 3},
    "distill": {"steps": 2, "batch": 2},
    "eval": {"sample_steps": 1, "latency_reps": 0},
}


def _cfg_file(tmp_path, extra=None):
    cfg = json.loads(json.dumps(FAST))
    if extra:
        cfg.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def _run(args, capsys=None):
    return cli.main(args)


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

def test_fmt6_is_locale_independent_6_sig_digits():
    assert cli.fmt6(3.14159265) == "3.14159"
    assert cli.fmt6(1234567.0) == "1.23457e+06"
    assert cli.fmt6(42) == "42"
    assert cli.fmt6(0.000123456789) == "0.000123457"


def test_config_hash_ignores_out_dir_and_orders_keys():
    a = cli.load_config(None, seed=1, out="runA")
    b = cli.load_config(None, seed=1, out="runB")
    c = cli.load_config(None, seed=2, out="runA")
    assert cli.config_hash(a) == cli.config_hash(b)
    assert cli.config_hash(a) != cli.config_hash(c)


def test_env_overrides_nested_keys():
    env = {"VDMINI_DATA__N_TRAIN": "7", "VDMINI_SEED": "5",
           "VDMINI_EVAL__CHECKPOINT": "teacher", "OTHER": "1"}
    cfg = cli.load_config(None, None, None, environ=env)
    assert cfg["data"]["n_train"] == 7
    assert cfg["seed"] == 5
    assert cfg["eval"]["checkpoint"] == "teacher"


def test_unknown_config_keys_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"no_such_section": {}}))
    rc = _run(["plan", "--config", str(path), "--out", str(tmp_path / "r")])
    assert rc == cli.EXIT_CONFIG


def test_unparseable_config_is_exit_2_with_error_record(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    rc = _run(["plan", "--config", str(path), "--out", str(tmp_path / "r")])
    assert rc == cli.EXIT_CONFIG
    err = capsys.readouterr().err.strip()
    record = json.loads(err.splitlines()[-1])
    assert record["code"] == cli.EXIT_CONFIG
    assert "config" in record["error"]


def _config_error(capsys) -> str:
    """The message of the one JSON error line a failed stage printed."""
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["error"] == "config" and record["code"] == cli.EXIT_CONFIG
    return record["message"]


def test_unknown_nested_config_key_is_exit_2_with_one_json_line(tmp_path, capsys):
    cfg = _cfg_file(tmp_path, {"data": {**FAST["data"], "typo_key": 1}})
    assert _run(["plan", "--config", cfg, "--out", str(tmp_path / "r")]) == cli.EXIT_CONFIG
    assert "'data.typo_key'" in _config_error(capsys)


@pytest.mark.parametrize("name,raw,key", [
    ("VDMINI_DISTILL__STEPZ", "3", "'distill.stepz'"),
    ("VDMINI_DISTILL__STEPS", '"abc"', "'distill.steps'"),
    ("VDMINI_DATA__TYPO_KEY", "1", "'data.typo_key'"),
    ("VDMINI_MODEL", "5", "'model'"),
    ("VDMINI_SCHEDULE__RHO", "Infinity", "'schedule.rho'"),
    ("VDMINI_TRAIN_TEACHER__LR", "NaN", "'train_teacher.lr'"),
])
def test_bad_env_override_is_exit_2_with_one_json_line(tmp_path, capsys, monkeypatch,
                                                       name, raw, key):
    monkeypatch.setenv(name, raw)
    assert _run(["plan", "--out", str(tmp_path / "r")]) == cli.EXIT_CONFIG
    message = _config_error(capsys)
    assert message.startswith("environment:") and key in message
    assert not (tmp_path / "r").exists()


def test_config_values_are_type_checked_against_the_defaults(tmp_path):
    bad = [{"distill": {"steps": 2.0}}, {"distill": {"steps": True}},
           {"schedule": {"rho": "7"}}, {"model": {"widths": [4, 6.5, 8]}},
           {"model": {"widths": 4}}, {"eval": {"checkpoint": 1}}, {"data": []}]
    for doc in bad:
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(cli.ConfigError, match="must be of type"):
            cli.load_config(str(path), None, None, environ={})
    with pytest.raises(cli.ConfigError, match="VDMINI_SEED__X"):
        cli.load_config(None, None, None, environ={"VDMINI_SEED": "5", "VDMINI_SEED__X": "1"})
    # an integer passes for a number and is kept as given; a 0-step distill
    # (the pruned-only student) and untimed or 3-rep latency are legal values
    path = tmp_path / "ok.json"
    path.write_text(json.dumps({"schedule": {"rho": 7}, "train_teacher": {"lr": 0.001},
                                "distill": {"steps": 0}, "profile": {"latency_reps": 0},
                                "eval": {"latency_reps": 3}}))
    cfg = cli.load_config(str(path), None, None, environ={})
    assert cfg["schedule"]["rho"] == 7 and type(cfg["schedule"]["rho"]) is int
    assert cfg["distill"]["steps"] == 0


@pytest.mark.parametrize("section,key,value", [
    ("model", "widths", [4, 6]),
    ("model", "widths", [4, 6, 0]),
    ("model", "emb_dim", 7),
    ("model", "emb_dim", 0),
    ("data", "height", 7),
    ("data", "height", 0),
    ("data", "width", 12),
    ("data", "speeds", []),
    ("data", "n_train", 0),
    ("data", "n_eval", 0),
    ("schedule", "n_levels", 0),
    ("schedule", "sigma_min", 90.0),
    ("schedule", "sigma_max", 1e154),
    ("schedule", "sigma_min", 0.0),
    ("schedule", "rho", 0.0),
    ("schedule", "sigma_data", -1.0),
    ("profile", "latency_reps", 2),
    ("eval", "latency_reps", 1),
    ("train_teacher", "steps", -1),
    ("distill", "steps", -2),
    ("train_teacher", "lr", -1.0),
    ("train_teacher", "lr", 0.0),
    ("distill", "student_lr", 0.0),
    ("distill", "disc_lr", -1e-5),
    ("data", "frames", 1),
    ("data", "frames", 0),
    ("train_teacher", "batch", 0),
    ("distill", "batch", 0),
    ("profile", "sample_steps", 0),
    ("eval", "sample_steps", 0),
    ("distill", "lambda_icd", -0.1),
    ("distill", "lambda_mca", -1.0),
    ("distill", "mca_warmup_steps", -1),
    ("eval", "checkpoint", "bogus"),
    # JSON's Infinity parses to a float that passes every bound above 0
    ("train_teacher", "lr", math.inf),
    ("distill", "student_lr", math.inf),
    ("distill", "disc_lr", math.inf),
    ("schedule", "rho", math.inf),
    ("schedule", "sigma_data", math.inf),
    ("distill", "lambda_icd", math.inf),
    ("distill", "lambda_mca", math.inf),
    # so does a JSON integer past the float range, which then overflows in Adam
    pytest.param("train_teacher", "lr", 10 ** 400, id="train_teacher-lr-10**400"),
], ids=str)
def test_bad_config_value_is_exit_2_with_one_json_line(tmp_path, capsys, section, key, value):
    cfg = _cfg_file(tmp_path, {section: {**FAST.get(section, {}), key: value}})
    assert _run(["plan", "--config", cfg, "--out", str(tmp_path / "r")]) == cli.EXIT_CONFIG
    assert f"'{section}.{key}'" in _config_error(capsys)
    assert not (tmp_path / "r").exists()


def test_stage_seed_is_stable_and_distinct():
    a = cli.stage_seed(0, "gen-data")
    assert a == cli.stage_seed(0, "gen-data")
    assert a != cli.stage_seed(0, "distill")
    assert a != cli.stage_seed(1, "gen-data")
    assert 0 <= a < 2 ** 64


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def test_plan_matches_golden_file(tmp_path):
    out = tmp_path / "run"
    # the golden plan is pinned for the default (full-count) architecture
    rc = _run(["plan", "--out", str(out)])
    assert rc == cli.EXIT_OK
    doc = json.loads((out / "plan.json").read_text())
    golden = json.loads(GOLDEN.read_text())
    for key, value in golden.items():
        assert doc[key] == value


def test_gen_data_is_deterministic(tmp_path):
    cfg = _cfg_file(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert _run(["gen-data", "--config", cfg, "--out", str(out_a)]) == cli.EXIT_OK
    assert _run(["gen-data", "--config", cfg, "--out", str(out_b)]) == cli.EXIT_OK
    for name in ("train.vdds", "eval.vdds"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_distill_without_plan_is_missing_prerequisite(tmp_path, capsys):
    cfg = _cfg_file(tmp_path)
    out = tmp_path / "run"
    rc = _run(["distill", "--config", cfg, "--out", str(out)])
    assert rc == cli.EXIT_MISSING
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["message"] == "missing prerequisite: pruning plan"


def test_unknown_subcommand_fails(capsys):
    with pytest.raises(SystemExit):
        cli.main(["no-such-command"])


def test_seed_flag_equivalent_to_env_override(tmp_path):
    cfg_flag = cli.load_config(None, seed=9, out=None)
    cfg_env = cli.load_config(None, None, None, environ={"VDMINI_SEED": "9"})
    assert cli.config_hash(cfg_flag) == cli.config_hash(cfg_env)


def test_report_refuses_mismatched_hashes_unless_forced(tmp_path, capsys):
    cfg = _cfg_file(tmp_path)
    out = tmp_path / "run"
    assert _run(["plan", "--config", cfg, "--out", str(out)]) == cli.EXIT_OK
    # an artifact produced under a different config hash
    cli.write_json_artifact(out / "stray.json", {"x": 1}, "deadbeefdeadbeef")
    rc = _run(["report", "--config", cfg, "--out", str(out)])
    assert rc == cli.EXIT_CONFIG
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert "hash" in record["message"]
    assert _run(["report", "--config", cfg, "--out", str(out), "--force"]) == cli.EXIT_OK
    assert (out / "summary.csv").exists()
    assert (out / "summary.txt").exists()


def test_eval_requires_artifacts(tmp_path):
    cfg = _cfg_file(tmp_path)
    rc = _run(["eval", "--config", cfg, "--out", str(tmp_path / "empty")])
    assert rc == cli.EXIT_MISSING


def test_artifacts_embed_config_hash(tmp_path):
    cfg = _cfg_file(tmp_path)
    out = tmp_path / "run"
    assert _run(["plan", "--config", cfg, "--out", str(out)]) == cli.EXIT_OK
    doc = json.loads((out / "plan.json").read_text())
    expected = cli.config_hash(cli.load_config(cfg, None, str(out)))
    assert doc["config_hash"] == expected


def test_no_tmp_files_left_behind(tmp_path):
    cfg = _cfg_file(tmp_path)
    out = tmp_path / "run"
    assert _run(["gen-data", "--config", cfg, "--out", str(out)]) == cli.EXIT_OK
    assert _run(["plan", "--config", cfg, "--out", str(out)]) == cli.EXIT_OK
    assert not list(out.glob("*.tmp"))


# ---------------------------------------------------------------------------
# malformed inputs end in the exit-code contract
# ---------------------------------------------------------------------------

def _one_error_record(capsys) -> dict:
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1, lines
    return json.loads(lines[0])


def test_plan_without_inheritance_is_exit_2_with_one_json_line(tmp_path, capsys):
    cfg = _cfg_file(tmp_path)
    out = tmp_path / "run"
    assert _run(["plan", "--config", cfg, "--out", str(out)]) == cli.EXIT_OK
    doc = json.loads((out / "plan.json").read_text())
    del doc["inheritance"]
    (out / "plan.json").write_text(json.dumps(doc))
    capsys.readouterr()
    assert _run(["distill", "--config", cfg, "--out", str(out)]) == cli.EXIT_CONFIG
    record = _one_error_record(capsys)
    assert record["code"] == cli.EXIT_CONFIG
    assert "inheritance" in record["message"]


def test_truncated_plan_is_exit_2_with_one_json_line(tmp_path, capsys):
    cfg = _cfg_file(tmp_path)
    out = tmp_path / "run"
    assert _run(["plan", "--config", cfg, "--out", str(out)]) == cli.EXIT_OK
    text = (out / "plan.json").read_text()
    (out / "plan.json").write_text(text[:len(text) // 2])
    capsys.readouterr()
    assert _run(["eval", "--config", cfg, "--out", str(out)]) == cli.EXIT_CONFIG
    record = _one_error_record(capsys)
    assert "unparseable plan" in record["message"]


def test_eval_rejects_a_teacher_checkpoint_saved_as_the_student(tmp_path, capsys):
    cfg = _cfg_file(tmp_path)
    out = tmp_path / "run"
    for stage in ("gen-data", "train-teacher", "plan"):
        assert _run([stage, "--config", cfg, "--out", str(out)]) == cli.EXIT_OK
    (out / "student.vdmk").write_bytes((out / "teacher.vdmk").read_bytes())
    for extra in ([], ["--force"]):
        capsys.readouterr()
        rc = _run(["eval", "--config", cfg, "--out", str(out)] + extra)
        assert rc == cli.EXIT_CONFIG
        record = _one_error_record(capsys)
        # the student lacks D.0's second layer, which the teacher has
        assert record["message"].endswith("extra tensor D.0.A.1.S.gn.b"), record
    assert not (out / "eval_student.json").exists()


def test_distill_with_a_teacher_written_in_place_is_exit_2_and_saves_no_student(
        tmp_path, capsys, monkeypatch):
    cfg = _cfg_file(tmp_path)
    out = tmp_path / "run"
    for stage in ("gen-data", "train-teacher", "plan"):
        assert _run([stage, "--config", cfg, "--out", str(out)]) == cli.EXIT_OK
    step = cli.icmd.distill_step

    def step_that_writes_the_teacher(state, *args):
        arr = next(iter(state.teacher.params.values())).data
        arr.flags.writeable = True
        arr.flat[0] += 1.0
        arr.flags.writeable = False
        return step(state, *args)

    monkeypatch.setattr(cli.icmd, "distill_step", step_that_writes_the_teacher)
    capsys.readouterr()
    assert _run(["distill", "--config", cfg, "--out", str(out)]) == cli.EXIT_CONFIG
    record = _one_error_record(capsys)
    assert record["message"] == "teacher parameters changed during distillation"
    assert not (out / "student.vdmk").exists()


def _nan_from_second_call(fn):
    """fn, with its result (a Tensor on the caller's tape) made NaN from
    its second call on: one part per step at FAST's shapes, so from step 1."""
    calls = []

    def wrapped(*args, **kwargs):
        calls.append(None)
        out = fn(*args, **kwargs)
        return out if len(calls) == 1 else T.mul_scalar(out, math.nan)
    return wrapped


@pytest.mark.parametrize("stage,owner,attr,message,artifact", [
    ("train-teacher", df, "denoising_error",
     "train-teacher: non-finite loss nan at step 1", "teacher.vdmk"),
    ("distill", icmd, "icd_loss", "non-finite loss term icd at step 1: nan", "student.vdmk"),
], ids=["train-teacher", "distill"])
def test_a_non_finite_loss_is_exit_4_with_one_json_line_naming_the_step(
        tmp_path, capsys, monkeypatch, stage, owner, attr, message, artifact):
    cfg = _cfg_file(tmp_path)
    out = tmp_path / "run"
    stages = ("gen-data", "train-teacher", "plan", "distill")
    for prior in stages[:stages.index(stage)]:
        assert _run([prior, "--config", cfg, "--out", str(out)]) == cli.EXIT_OK
    monkeypatch.setattr(owner, attr, _nan_from_second_call(getattr(owner, attr)))
    capsys.readouterr()
    assert _run([stage, "--config", cfg, "--out", str(out)]) == cli.EXIT_NUMERIC
    assert _one_error_record(capsys) == {"error": "numeric", "message": message,
                                         "code": cli.EXIT_NUMERIC}
    assert not (out / artifact).exists()


@pytest.mark.parametrize("raw,dims,message", [
    (b"w", (1 << 62, 4), "payload for 'w' out of bounds"),  # 2**64 elements: 0 in int64
    (b"\xff\xfe", (1,), "tensor name is not UTF-8"),
], ids=["int64-overflow", "name-not-utf8"])
def test_profile_with_a_crc_valid_teacher_with_a_bad_directory_is_exit_2(
        tmp_path, capsys, raw, dims, message):
    cfg = _cfg_file(tmp_path)
    out = tmp_path / "run"
    out.mkdir()
    body = b"VDMK" + struct.pack(f"<III{len(raw)}sQ{len(dims)}QQ", 1, 1, len(raw), raw,
                                 len(dims), *dims, 0) + bytes(16)
    (out / "teacher.vdmk").write_bytes(body + struct.pack("<I", zlib.crc32(body)))
    capsys.readouterr()
    assert _run(["profile", "--config", cfg, "--out", str(out)]) == cli.EXIT_CONFIG
    record = _one_error_record(capsys)
    assert record["message"].endswith(message), record


@pytest.mark.parametrize("meta,payload,message", [
    (b"{not json", bytes(4), "unparseable metadata"),
    (json.dumps({"split": "train", "shape": [1, 2, 1, 8, 8], "scenes": []}).encode(), bytes(4),
     "does not match the payload"),
    (json.dumps({"split": "train", "shape": [0, 2, 1, 8, 8], "scenes": []}).encode(), b"",
     "the dataset holds no videos"),
], ids=["not-json", "count-mismatch", "empty"])
def test_train_teacher_on_a_crc_valid_bad_dataset_is_exit_2(tmp_path, capsys, meta, payload,
                                                            message):
    cfg = _cfg_file(tmp_path)
    out = tmp_path / "run"
    out.mkdir()
    write_vdds(out / "train.vdds", meta, payload)
    capsys.readouterr()
    assert _run(["train-teacher", "--config", cfg, "--out", str(out)]) == cli.EXIT_CONFIG
    assert message in _config_error(capsys)
    assert not (out / "teacher.vdmk").exists()


@pytest.mark.parametrize("codes", [[1e300], [math.nan], [-5.0], [[97.0, 98.0]], [97.5]],
                         ids=["huge", "nan", "negative", "2-d", "fraction"])
def test_distill_with_a_bad_checkpoint_config_hash_is_exit_2(tmp_path, capsys, codes):
    cfg_path = _cfg_file(tmp_path)
    out = tmp_path / "run"
    assert _run(["plan", "--config", cfg_path, "--out", str(out)]) == cli.EXIT_OK
    cfg = cli.load_config(cfg_path, None, str(out), environ={})
    params = dict(ng.build(cli._teacher_graph(cfg), 0).params)
    params["_meta.config_hash"] = Tensor(np.array(codes))
    cli.checkpoint.save_checkpoint(params, out / "teacher.vdmk")
    for extra in ([], ["--force"]):
        capsys.readouterr()
        rc = _run(["distill", "--config", cfg_path, "--out", str(out)] + extra)
        assert rc == cli.EXIT_CONFIG
        record = _one_error_record(capsys)
        assert record["message"].endswith("_meta.config_hash is not a vector of character codes")
    assert not (out / "student.vdmk").exists()


def test_report_skips_files_without_config_hash(tmp_path):
    cfg = _cfg_file(tmp_path)
    out = tmp_path / "run"
    assert _run(["plan", "--config", cfg, "--out", str(out)]) == cli.EXIT_OK
    (out / "cfg.json").write_text(json.dumps({"seed": 5, **FAST}))
    (out / "notes.csv").write_text("a,b\n1,2\n")
    assert _run(["report", "--config", cfg, "--out", str(out)]) == cli.EXIT_OK
    summary = (out / "summary.txt").read_text().splitlines()
    assert "cfg.json: skipped (no config hash)" in summary
    assert "notes.csv: skipped (no config hash)" in summary
    assert any(line.startswith("plan.json: hash ") for line in summary)
    aggregated = (out / "summary.csv").read_text()
    assert "cfg.json" not in aggregated and "notes.csv" not in aggregated


def test_report_unparseable_json_is_exit_2_with_one_json_line(tmp_path, capsys):
    cfg = _cfg_file(tmp_path)
    out = tmp_path / "run"
    assert _run(["plan", "--config", cfg, "--out", str(out)]) == cli.EXIT_OK
    (out / "broken.json").write_text('{"config_hash": ')
    capsys.readouterr()
    assert _run(["report", "--config", cfg, "--out", str(out)]) == cli.EXIT_CONFIG
    record = _one_error_record(capsys)
    assert "broken.json" in record["message"]


def _existing_file_as_out(tmp_path, cfg):
    (tmp_path / "run").write_text("")
    return ["plan", "--out", str(tmp_path / "run")], str(tmp_path / "run")


def _directory_as_config(tmp_path, cfg):
    (tmp_path / "cfg_dir").mkdir()
    return ["plan", "--config", str(tmp_path / "cfg_dir")], str(tmp_path / "cfg_dir")


def _non_utf8_config(tmp_path, cfg):
    (tmp_path / "latin1.json").write_bytes(b'{"seed": "\xe9"}')
    return ["plan", "--config", str(tmp_path / "latin1.json")], str(tmp_path / "latin1.json")


def _non_utf8_csv_in_report(tmp_path, cfg):
    assert _run(["plan", "--config", cfg, "--out", str(tmp_path / "run")]) == cli.EXIT_OK
    (tmp_path / "run" / "x.csv").write_bytes(b"\xff\xfe,1\n")
    return ["report", "--config", cfg], "x.csv"


def _directory_as_training_set(tmp_path, cfg):
    (tmp_path / "run" / "train.vdds").mkdir(parents=True)
    return ["train-teacher", "--config", cfg], str(tmp_path / "run" / "train.vdds")


def _directory_as_plan(tmp_path, cfg):
    (tmp_path / "run" / "plan.json").mkdir(parents=True)
    return ["distill", "--config", cfg], str(tmp_path / "run" / "plan.json")


@pytest.mark.parametrize("setup", [_existing_file_as_out, _directory_as_config, _non_utf8_config,
                                   _non_utf8_csv_in_report, _directory_as_training_set,
                                   _directory_as_plan], ids=lambda f: f.__name__[1:])
def test_an_unreadable_path_is_exit_2_with_one_json_line_naming_it(tmp_path, capsys, setup):
    args, named = setup(tmp_path, _cfg_file(tmp_path))
    if "--out" not in args:
        args += ["--out", str(tmp_path / "run")]
    capsys.readouterr()
    assert _run(args) == cli.EXIT_CONFIG
    record = _one_error_record(capsys)
    assert record["code"] == cli.EXIT_CONFIG and named in record["message"]


def test_profile_writes_its_csv_rows_as_its_json_rows_and_quotes_a_comma(tmp_path, monkeypatch):
    cfg = _cfg_file(tmp_path, {"train_teacher": {"steps": 0, "batch": 2},
                               "profile": {"sample_steps": 1, "latency_reps": 0}})
    out = tmp_path / "run"
    for stage in ("gen-data", "train-teacher"):
        assert _run([stage, "--config", cfg, "--out", str(out)]) == cli.EXIT_OK
    profile_importance = pruner.profile_importance

    def two_blocks_and_a_failure(teacher, videos, blocks, *args, **kwargs):
        report = profile_importance(teacher, videos, ["D.0.R.0.S", "U.3.R.0.T"], *args, **kwargs)
        report.rows.append(pruner.AblationRow("M.R.0.S", math.nan, math.nan, 0.0, 7,
                                              error="shapes (2, 3), (2, 4)"))
        return report

    monkeypatch.setattr(pruner, "profile_importance", two_blocks_and_a_failure)
    assert _run(["profile", "--config", cfg, "--out", str(out)]) == cli.EXIT_OK
    first, *lines = (out / "ablation_report.csv").read_text().splitlines()
    assert first == f"# config_hash={cli.config_hash(cli.load_config(cfg, None, str(out)))}"
    header, *rows = csv.reader(lines)
    assert header == ["block_id", "fvd_after_ablation", "delta_fvd", "latency_ms", "params",
                      "error"]
    doc = json.loads((out / "ablation_report.json").read_text())
    assert len(rows) == 3 and rows[2][5] == "shapes (2, 3), (2, 4)"
    assert rows == [[r["block_id"]] + [cli.fmt6(r[k]) for k in header[1:5]] + [r["error"] or ""]
                    for r in doc["rows"]]


def test_module_entry_point_runs_without_warnings():
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "vdmini.cli", "--help"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert "usage: vdmini" in proc.stdout


# ---------------------------------------------------------------------------
# the training step: parts by video
# ---------------------------------------------------------------------------

def _teacher_and_batch(n, frames, widths=None):
    """The teacher (the default widths unless `widths`), its residual
    branches opened, and n videos of `frames` frames with their conditions."""
    model = ng.build(ng.make_unet_graph(ng.ORIGIN_LAYER_COUNTS, widths, emb_dim=8)
                     if widths else ng.toy_teacher_graph(), 0)
    prng = np.random.default_rng(8)
    model.params = {name: Tensor(p.data + 0.05 * prng.standard_normal(p.shape),
                                 requires_grad=True) for name, p in model.params.items()}
    videos = sd.gen_dataset(n, 7, frames=frames).tensors()
    return model, videos, [sd.first_frame_condition(v) for v in videos]


def _assert_close_arrays(got: dict, want: dict, rel: float):
    assert got.keys() == want.keys()
    for name, g in want.items():
        scale = float(np.abs(g.data).max())
        assert float(np.abs(got[name].data - g.data).max()) <= rel * scale, name


def test_a_two_part_train_step_keeps_the_draws_loss_and_gradients_of_the_stacked_step(
        monkeypatch):
    model, batch, conds = _teacher_and_batch(2, 8)
    assert len(df.video_parts(model, batch)) == 2
    schedule, params = configured(df.NoiseSchedule, "schedule"), dict(model.params)
    with Tape() as tape:  # the whole batch in one network call, on one tape
        want = df.denoising_loss(model, batch, schedule, np.random.default_rng(5), conds)
    want_grads = named_grads(params, backward(tape, want))
    seen = []

    def kept(tape, root):
        seen.append(backward(tape, root))
        return seen[-1]

    monkeypatch.setattr(cli, "backward", kept)
    rng = np.random.default_rng(5)
    value = cli.train_step(model, Adam(lr=1e-4), batch, conds, schedule, rng)
    replay = np.random.default_rng(5)
    for x in batch:  # each video's sigma, then its noise
        df.sample_sigma(schedule, replay)
        replay.standard_normal(x.shape)
    assert rng.bit_generator.state == replay.bit_generator.state
    assert len(seen) == 1  # one backward per step
    assert value == pytest.approx(want.item(), rel=1e-12)
    _assert_close_arrays(named_grads(params, seen[0]), want_grads, 1e-12)
    assert all(model.params[n] is not p for n, p in params.items())  # Adam stepped


@pytest.mark.parametrize("n,frames,widths", [(1, 8, None), (2, 2, (4, 6, 8))],
                         ids=["batch 1", "FAST_PIPELINE shapes"])
def test_a_one_part_train_step_starts_no_thread(monkeypatch, n, frames, widths):
    model, batch, conds = _teacher_and_batch(n, frames, widths)
    assert df.video_parts(model, batch) == [slice(0, n)]

    def no_thread(*args, **kwargs):
        raise AssertionError("a one-part step started a thread")

    monkeypatch.setattr(T.threading, "Thread", no_thread)
    value = cli.train_step(model, Adam(lr=1e-4), batch, conds,
                           configured(df.NoiseSchedule, "schedule"), np.random.default_rng(0))
    assert np.isfinite(value)


def test_train_step_rejects_an_empty_batch():
    model, _, _ = _teacher_and_batch(1, 2, (4, 6, 8))
    with pytest.raises(VdminiError, match="train_step: empty batch"):
        cli.train_step(model, Adam(lr=1e-4), [], None, configured(df.NoiseSchedule, "schedule"),
                       np.random.default_rng(0))


def test_train_teacher_on_two_parts_is_byte_deterministic(tmp_path, monkeypatch):
    parts = []
    run_parts = cli.run_parts
    monkeypatch.setattr(cli, "run_parts", lambda fns: parts.append(len(fns)) or run_parts(fns))
    cfg = _cfg_file(tmp_path, {"data": {"n_train": 4, "n_eval": 2, "frames": 8},
                               "model": {"widths": [16, 32, 64], "emb_dim": 32},
                               "train_teacher": {"steps": 2, "batch": 2}})
    written = []
    for run in ("a", "b"):
        out = str(tmp_path / run)
        for stage in ("gen-data", "train-teacher"):
            assert _run([stage, "--config", cfg, "--out", out]) == cli.EXIT_OK
        written.append((tmp_path / run / "teacher.vdmk").read_bytes())
    assert parts == [2] * 4
    assert written[0] == written[1]
