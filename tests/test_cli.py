import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from vdmini import cli
from vdmini.tensor import Tensor

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
    ("data", "height", 7),
    ("data", "height", 0),
    ("data", "width", 12),
    ("data", "speeds", []),
    ("schedule", "n_levels", 0),
    ("profile", "latency_reps", 2),
    ("eval", "latency_reps", 1),
    ("train_teacher", "steps", -1),
    ("distill", "steps", -2),
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
    load, step = cli.checkpoint.load_checkpoint, cli.icmd.distill_step

    def load_owned(path):  # arrays that own their memory, so their flag can flip
        return {n: Tensor(p.data.copy(), requires_grad=True) for n, p in load(path).items()}

    def step_that_writes_the_teacher(state, *args):
        arr = next(iter(state.teacher.params.values())).data
        arr.flags.writeable = True
        arr.flat[0] += 1.0
        arr.flags.writeable = False
        return step(state, *args)

    monkeypatch.setattr(cli.checkpoint, "load_checkpoint", load_owned)
    monkeypatch.setattr(cli.icmd, "distill_step", step_that_writes_the_teacher)
    capsys.readouterr()
    assert _run(["distill", "--config", cfg, "--out", str(out)]) == cli.EXIT_CONFIG
    record = _one_error_record(capsys)
    assert record["message"] == "teacher parameters changed during distillation"
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


def test_module_entry_point_runs_without_warnings():
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "vdmini.cli", "--help"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert "usage: vdmini" in proc.stdout
