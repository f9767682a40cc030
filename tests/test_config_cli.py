import hashlib
import json
import math
import shutil
from pathlib import Path

import numpy as np
import pytest

import kgt.cli
from kgt.cli import main
from kgt.config import _KEY_TYPES, _PARSERS, load_config, parse_config_text
from kgt.errors import ConfigError, ParseError
from kgt.model import ModelConfig
from kgt.queries import TRAINABLE_TYPES, QueryType
from kgt.train import Stage, TrainConfig

from helpers import toy_split, write_toy_dataset


FLOAT_KEYS = [key for key, kind in _KEY_TYPES.items() if "float" in kind]


class TestConfigParsing:
    def test_defaults_without_file(self):
        cfg = load_config(None)
        assert cfg.seed == 0
        assert cfg.model_config(5, 3).hidden == 128
        assert cfg.model_config(5, 3).layers == 4
        assert cfg.optimizer_config().lr == 1e-4
        assert cfg.optimizer_config().lr_decay == 0.997
        stage1 = cfg.train_config(Stage.STAGE1)
        assert stage1.budget_min == 8 and stage1.budget_max == 16
        assert cfg.eval_ks == (1, 3, 10)
        assert cfg.finetune_combos == ""
        assert cfg.combos() == []

    def test_file_values_and_comments(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# experiment settings\n"
            "seed = 42\n"
            "\n"
            "model.hidden = 64\n"
            "model.expert_hidden =\n"
            "stage1.method_mix = 1:1\n"
            "stage2.pattern_mix = 10:1\n"
            "eval.ks = 1, 5, 20\n"
            "model.tie_decoder = yes\n"
        )
        cfg = load_config(path)
        assert cfg.seed == 42
        assert cfg.model_config(5, 3).hidden == 64
        assert cfg.model_config(5, 3).expert_hidden == 128  # empty: 2 * hidden
        assert cfg.train_config(Stage.STAGE1).method_mix == 1.0
        assert cfg.train_config(Stage.STAGE2).pattern_mix == 10.0
        assert cfg.eval_ks == (1, 5, 20)
        assert cfg.model_config(5, 3).tie_decoder is True

    def test_ratio_forms(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("stage2.pattern_mix = 4:0\n")
        assert math.isinf(load_config(path).train_config(Stage.STAGE2).pattern_mix)
        path.write_text("stage2.pattern_mix = 2.5\n")
        assert load_config(path).train_config(Stage.STAGE2).pattern_mix == 2.5
        path.write_text("stage2.pattern_mix = 0:0\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_overrides_beat_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 1\n")
        assert load_config(path, {"seed": "9"}).seed == 9

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("model.depth = 4\n")
        with pytest.raises(ConfigError, match="model.depth"):
            load_config(path)
        path.write_text("threads = 2\n")  # evaluation has no worker threads to set
        with pytest.raises(ConfigError, match="unknown config key 'threads'"):
            load_config(path)

    def test_bad_value_names_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("stage1.epochs = many\n")
        with pytest.raises(ConfigError, match="stage1.epochs"):
            load_config(path)

    def test_file_key_errors_name_their_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 1\nstage1.epoch = 2\n")
        with pytest.raises(ConfigError) as excinfo:
            load_config(path)
        assert str(excinfo.value) == f"{path}:2: unknown config key 'stage1.epoch'"
        path.write_text("seed = 1\n\n# a comment\nstage1.epochs = two\n")
        with pytest.raises(ConfigError) as excinfo:
            load_config(path)
        assert str(excinfo.value).startswith(f"{path}:4: bad value for 'stage1.epochs': ")
        # an override replaces the file's value; its own errors name no line
        assert load_config(path, {"stage1.epochs": "3"}).train_config(Stage.STAGE1).epochs == 3
        with pytest.raises(ConfigError) as excinfo:
            load_config(path, {"stage1.epochs": "three"})
        assert str(excinfo.value).startswith("bad value for 'stage1.epochs': ")
        with pytest.raises(ConfigError) as excinfo:
            load_config(None, {"stage1.epoch": "2"})
        assert str(excinfo.value) == "unknown config key 'stage1.epoch'"
        path.write_text("model.layers = 2\nseed = -1\n")
        with pytest.raises(ConfigError) as excinfo:
            load_config(path)
        assert str(excinfo.value).startswith(f"{path}:2: bad value for 'seed': ")

    def test_duplicate_key_reports_line(self):
        with pytest.raises(ParseError) as excinfo:
            parse_config_text("seed = 1\nseed = 2\n")
        assert excinfo.value.line == 2

    def test_missing_equals_reports_line(self):
        with pytest.raises(ParseError) as excinfo:
            parse_config_text("seed = 1\ngrad_clip\n")
        assert excinfo.value.line == 2

    @pytest.mark.parametrize("separator", ["\x0c", "\x0b", "\x1c", "\x85", "\u2028"])
    def test_line_numbers_follow_universal_newlines(self, tmp_path, separator):
        # only \n, \r\n and a lone \r end a line, as in every other reader
        path = tmp_path / "cfg.txt"
        path.write_bytes(f"seed = 1 # a{separator}b\nbad line\n".encode())
        with pytest.raises(ParseError) as excinfo:
            load_config(path)
        assert excinfo.value.line == 2
        assert "'bad line'" in str(excinfo.value)
        with pytest.raises(ParseError) as excinfo:
            parse_config_text(f"seed = 1{separator}\rgrad_clip\n")
        assert excinfo.value.line == 2

    def test_validation_errors(self, tmp_path):
        bad = {
            "queries.max_answers = 0\n": "queries.max_answers must be at least 1",
            "stage1.budget_min = 9\nstage1.budget_max = 8\n": "bad stage1 settings: need 1 <= budget_min",
            "stage1.mask_rate = 0\n": "bad stage1 settings: mask_rate",
            "grad_clip = 0\n": "bad stage1 settings: grad_clip",
            "eval.ks = 0, 3\n": "eval.ks must be positive",
            "eval.ks = 3, 1, 3\n": "eval.ks repeats 3",  # else a hits@3 column is printed twice
        }
        for text, message in bad.items():
            path = tmp_path / "run.cfg"
            path.write_text(text)
            with pytest.raises(ConfigError) as excinfo:
                load_config(path)
            assert str(excinfo.value).startswith(message), text

    @pytest.mark.parametrize(
        "key, value",
        [(key, value) for key in FLOAT_KEYS for value in ("nan", "inf", "-inf")]
        + [(key, value) for key in ("stage1.method_mix", "stage2.pattern_mix") for value in ("nan:1", "1:nan", "inf:1")],
    )
    def test_non_finite_value_fails_at_load(self, key, value):
        with pytest.raises(ConfigError) as excinfo:
            load_config(None, {key: value})
        assert all(part in str(excinfo.value) for part in key.split(".")), str(excinfo.value)

    @pytest.mark.parametrize(
        "key, value",
        [("stage1.steps_per_epoch", "-1"), ("stage1.steps_per_epoch", "0"), ("stage2.steps_per_epoch", "0"),
         ("stage1.ladies_depth", "0"), ("stage1.ladies_per_layer", "-3"),
         ("queries.train_count", "-5"), ("queries.valid_count", "-1"), ("queries.test_count", "-1"), ("seed", "-1")],
    )
    def test_count_below_its_minimum_fails_at_load(self, key, value):
        # meta-tree sampling only: the layer-dependent sampler settings are still checked
        with pytest.raises(ConfigError) as excinfo:
            load_config(None, {key: value, "stage1.method_mix": "1:0"})
        assert all(part in str(excinfo.value) for part in key.split(".")), str(excinfo.value)

    def test_non_utf8_config_reports_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"seed = 1\r# caf\xe9\rmodel.layers = 2\n")
        with pytest.raises(ParseError) as excinfo:
            load_config(path)
        assert (excinfo.value.path, excinfo.value.line) == (str(path), 2)

    def test_combo_parsing(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("finetune.combos = 1p|1p,2p|2i,3i\n")
        cfg = load_config(path)
        assert cfg.combos() == [
            (QueryType.P1,),
            (QueryType.P1, QueryType.P2),
            (QueryType.I2, QueryType.I3),
        ]

    def test_combo_rejects_eval_only_and_unknown(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("finetune.combos = 2u\n")
        with pytest.raises(ConfigError, match="trainable"):
            load_config(path)
        path.write_text("finetune.combos = 4p\n")
        with pytest.raises(ConfigError, match="unknown"):
            load_config(path)
        path.write_text("finetune.combos = 1p||2p\n")
        with pytest.raises(ConfigError, match="empty"):
            load_config(path)
        for combos, message in [("1p|1p", "repeats 1p$"), ("1p,2p|2p,1p", "repeats 2p,1p$"), ("2i,2i", "2i,2i repeats a type")]:
            path.write_text(f"finetune.combos = {combos}\n")
            with pytest.raises(ConfigError, match=message):
                load_config(path)

    def test_accepted_keys_are_pinned(self):
        sections = {
            "model": "layers hidden heads experts top_k expert_hidden dropout tie_decoder",
            "optimizer": "lr beta1 beta2 eps weight_decay lr_decay",
            "stage1": "epochs batch_size label_smoothing mask_rate method_mix budget_min budget_max "
            "edge_keep ladies_per_layer ladies_depth steps_per_epoch lr",
            "stage2": "epochs batch_size label_smoothing pattern_mix steps_per_epoch lr",
            "finetune": "epochs batch_size lr combos",
            "queries": "train_count valid_count test_count max_answers",
            "data": "dir",
            "eval": "ks",
        }
        keys = {f"{section}.{name}" for section, names in sections.items() for name in names.split()}
        keys |= {"seed", "grad_clip"}
        assert len(keys) == 44
        assert set(_PARSERS) == keys

    def test_stage_seed_offsets_disjoint(self):
        cfg = load_config(None, {"seed": "5"})
        seeds = {cfg.train_config(stage).seed for stage in Stage}
        assert len(seeds) == 3
        assert 5 not in seeds

    def test_stage_lr_overrides(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("optimizer.lr = 1e-4\nstage2.lr = 5e-4\n")
        cfg = load_config(path)
        assert cfg.train_config(Stage.STAGE1).optimizer.lr == 1e-4
        assert cfg.train_config(Stage.STAGE2).optimizer.lr == 5e-4
        assert cfg.train_config(Stage.FINETUNE).optimizer.lr == 1e-4

    def test_finetune_config_never_smooths(self):
        cfg = load_config(None)
        assert cfg.train_config(Stage.FINETUNE).label_smoothing == 0.0

    def test_default_builds_match_class_defaults(self):
        cfg = load_config(None)
        assert cfg.model_config(5, 3) == ModelConfig(5, 3)
        assert cfg.train_config(Stage.STAGE1) == TrainConfig(stage=Stage.STAGE1, seed=101)
        assert cfg.train_config(Stage.STAGE2) == TrainConfig(stage=Stage.STAGE2, seed=202)
        finetune = TrainConfig(stage=Stage.FINETUNE, batch_size=128, label_smoothing=0.0, seed=303)
        assert cfg.train_config(Stage.FINETUNE) == finetune

    @staticmethod
    def reached(cfg, key: str) -> list:
        """The values ``key`` gives the objects it configures, one per object."""
        stages = {stage.value: cfg.train_config(stage) for stage in Stage}
        section, _, name = key.partition(".")
        if section == "model":
            return [getattr(cfg.model_config(5, 3), name)]
        if section == "optimizer":
            return [getattr(train.optimizer, name) for train in stages.values()]
        if key == "grad_clip":
            return [train.grad_clip for train in stages.values()]
        if key == "seed":
            return [train.seed for train in stages.values()]
        train = stages[section]
        return [train.optimizer.lr if name == "lr" else getattr(train, name)]

    def test_every_key_reaches_its_object(self):
        values = {
            "model.layers": "3", "model.hidden": "96", "model.heads": "8", "model.experts": "5",
            "model.top_k": "3", "model.expert_hidden": "40", "model.dropout": "0.25", "model.tie_decoder": "true",
            "optimizer.lr": "2e-3", "optimizer.beta1": "0.8", "optimizer.beta2": "0.99", "optimizer.eps": "1e-6",
            "optimizer.weight_decay": "0.05", "optimizer.lr_decay": "0.9",
            "stage1.epochs": "3", "stage1.batch_size": "7", "stage1.label_smoothing": "0.2",
            "stage1.mask_rate": "0.5", "stage1.method_mix": "3:1", "stage1.budget_min": "4",
            "stage1.budget_max": "9", "stage1.edge_keep": "0.6", "stage1.ladies_per_layer": "5",
            "stage1.ladies_depth": "3", "stage1.steps_per_epoch": "11", "stage1.lr": "3e-3",
            "stage2.epochs": "4", "stage2.batch_size": "9", "stage2.label_smoothing": "0.05",
            "stage2.pattern_mix": "2:1", "stage2.steps_per_epoch": "13", "stage2.lr": "4e-3",
            "finetune.epochs": "5", "finetune.batch_size": "17", "finetune.lr": "5e-3",
            "grad_clip": "2.5",
        }
        sections = ("model.", "optimizer.", "stage1.", "stage2.", "finetune.")
        assert set(values) == {k for k in _PARSERS if k.startswith(sections)} - {"finetune.combos"} | {"grad_clip"}
        defaults = load_config(None)
        for key, text in values.items():
            want = _PARSERS[key](text)
            before = self.reached(defaults, key)
            assert want not in before, key  # a default value would prove nothing
            assert self.reached(load_config(None, {key: text}), key) == [want] * len(before), key
        assert self.reached(load_config(None, {"seed": "9"}), "seed") == [110, 211, 312]

    @pytest.mark.parametrize(
        "key, value",
        [("model.heads", "3"), ("model.heads", "0"), ("model.heads", "-4"), ("model.top_k", "5"), ("optimizer.lr", "0"),
         ("optimizer.beta2", "1"), ("stage1.edge_keep", "1.5"), ("stage2.batch_size", "0"), ("finetune.lr", "-1")],
    )
    def test_bad_runtime_value_fails_at_load(self, key, value):
        with pytest.raises(ConfigError, match=f"bad {key.partition('.')[0]} settings"):
            load_config(None, {key: value})


PIPELINE_CONFIG = """\
seed = 7
model.layers = 1
model.hidden = 16
model.heads = 2
model.experts = 2
model.top_k = 2
model.dropout = 0.0
optimizer.lr = 1e-3
stage1.epochs = 1
stage1.batch_size = 4
stage1.steps_per_epoch = 2
stage1.budget_min = 4
stage1.budget_max = 8
stage2.epochs = 1
stage2.batch_size = 4
stage2.steps_per_epoch = 2
finetune.epochs = 1
finetune.batch_size = 8
finetune.combos = 1p
queries.train_count = 6
queries.valid_count = 3
queries.test_count = 3
"""


def write_token_dataset(directory, split):
    """Token triples without vocabularies, exercising ingest's token path."""
    directory.mkdir(parents=True, exist_ok=True)
    for name, triples in zip(("train", "valid", "test"), split.increments()):
        with open(directory / f"{name}.txt", "w", encoding="utf-8") as fh:
            for h, r, t in triples:
                fh.write(f"ent{h:03d}\trel{r}\tent{t:03d}\n")
    return directory


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Run the whole CLI pipeline once; tests inspect the outputs."""
    root = tmp_path_factory.mktemp("pipeline")
    raw = write_token_dataset(root / "raw", toy_split(seed=30))
    cfg_path = root / "run.cfg"
    cfg_path.write_text(PIPELINE_CONFIG)
    out = root / "out"
    base = ["--config", str(cfg_path), "--out", str(out)]
    steps = [
        base + ["ingest", "--data", str(raw)],
        base + ["gen-queries"],
        base + ["pretrain", "--stage", "1"],
        base + ["pretrain", "--stage", "2"],
        base + ["finetune"],
        base + ["evaluate", "--split", "valid", "--dump-ranks"],
    ]
    for argv in steps:
        assert main(argv) == 0, argv
    return {"root": root, "out": out, "config": cfg_path}


class TestPipeline:
    def test_dataset_normalized(self, pipeline):
        dataset = pipeline["out"] / "dataset"
        for name in ("entities.txt", "relations.txt", "train.txt", "valid.txt", "test.txt"):
            assert (dataset / name).exists(), name
        entities = (dataset / "entities.txt").read_text().splitlines()
        assert len(entities) == 50
        assert entities == sorted(entities)  # token mode sorts the vocabulary
        relations = (dataset / "relations.txt").read_text().splitlines()
        train_lines = (dataset / "train.txt").read_text().splitlines()
        assert len(train_lines) == 200
        # normalized triples use the written vocabularies, so load_split round-trips
        entity_set, relation_set = set(entities), set(relations)
        for line in train_lines:
            h, r, t = line.split("\t")
            assert h in entity_set and t in entity_set and r in relation_set

    def test_query_files(self, pipeline):
        queries = pipeline["out"] / "queries"
        train_files = sorted(p.name for p in queries.glob("train_*.jsonl"))
        assert train_files == ["train_1p.jsonl", "train_2i.jsonl", "train_2p.jsonl", "train_3i.jsonl", "train_3p.jsonl"]
        valid_files = list(queries.glob("valid_*.jsonl"))
        assert len(valid_files) == 9
        assert len(list(queries.glob("test_*.jsonl"))) == 9
        lines = (queries / "train_1p.jsonl").read_text().splitlines()
        assert len(lines) == 6
        record = json.loads(lines[0])
        assert set(record) == {"type", "anchors", "relations", "answers_train", "answers_valid", "answers_test"}

    def test_checkpoints_and_logs(self, pipeline):
        ckpts = pipeline["out"] / "checkpoints"
        assert (ckpts / "stage1.kgtc").exists()
        assert (ckpts / "stage2.kgtc").exists()
        assert (ckpts / "finetune_multi.kgtc").exists()
        assert (ckpts / "selection.json").exists()
        selection = json.loads((ckpts / "selection.json").read_text())
        assert selection["candidates"] == ["multi-task", "1p"]
        for qtype, name in selection["checkpoints"].items():
            assert (ckpts / name).exists(), qtype
            assert selection["chosen"][qtype] in selection["candidates"]
        logs = pipeline["out"] / "logs"
        for name in ("stage1.jsonl", "stage2.jsonl", "finetune.jsonl"):
            lines = (logs / name).read_text().splitlines()
            assert len(lines) == 1  # one epoch each
            record = json.loads(lines[0])
            assert set(record) == {"stage", "epoch", "loss", "grad_norm", "clip_rate", "lr", "seconds"}

    def test_stage2_starts_from_stage1(self, pipeline):
        manifest = json.loads((pipeline["out"] / "checkpoints" / "stage2.manifest.json").read_text())
        assert manifest["command"] == "pretrain --stage 2"
        assert any(p.endswith("stage1.kgtc") for p in manifest["inputs"])

    def test_metrics_outputs(self, pipeline):
        metrics = pipeline["out"] / "metrics"
        table = json.loads((metrics / "valid.json").read_text())
        assert table["split"] == "valid"
        assert set(table["rows"]) == {"1p", "2p", "3p", "2i", "3i", "ip", "pi", "2u", "up", "mean"}
        for row in table["rows"].values():
            assert 0.0 <= row["mrr"] <= 1.0
        text = (metrics / "valid.txt").read_text()
        assert text.splitlines()[0].split()[0] == "type"
        ranks = [json.loads(line) for line in (metrics / "ranks_valid.jsonl").read_text().splitlines()]
        assert ranks and all(r["rank"] >= 1 for r in ranks)

    def test_manifests_record_config_digest(self, pipeline):
        digest = hashlib.sha256(pipeline["config"].read_bytes()).hexdigest()
        manifest = json.loads((pipeline["out"] / "dataset" / "manifest.json").read_text())
        assert manifest["config_sha256"] == digest
        assert manifest["seed"] == 7
        assert manifest["versions"]["kgt"]
        assert manifest["versions"]["numpy"]
        assert "timestamp" not in manifest

    @pytest.mark.parametrize("change", ["edit", "remove"])
    def test_manifest_hashes_the_config_that_ran(self, pipeline, tmp_path, monkeypatch, change):
        # the config is read once, before the command runs: a change to its file
        # mid-run neither fails the run nor reaches the manifest
        out = tmp_path / "out"
        shutil.copytree(pipeline["out"] / "dataset", out / "dataset")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(PIPELINE_CONFIG)
        digest = hashlib.sha256(cfg.read_bytes()).hexdigest()
        real_pretrain = kgt.cli.pretrain

        def pretrain(*args, **kwargs):
            if change == "edit":
                cfg.write_text(PIPELINE_CONFIG.replace("seed = 7", "seed = 8"))
            else:
                cfg.unlink()
            return real_pretrain(*args, **kwargs)

        monkeypatch.setattr(kgt.cli, "pretrain", pretrain)
        assert main(["--config", str(cfg), "--out", str(out), "pretrain", "--stage", "1"]) == 0
        manifest = json.loads((out / "checkpoints" / "stage1.manifest.json").read_text())
        assert (manifest["config_sha256"], manifest["seed"]) == (digest, 7)

    def test_manifests_record_inputs(self, pipeline):
        out = pipeline["out"]
        manifest = json.loads((out / "queries" / "manifest.json").read_text())
        assert manifest["inputs"] == [str(out / "dataset")]
        manifest = json.loads((out / "metrics" / "valid.manifest.json").read_text())
        selection = json.loads((out / "checkpoints" / "selection.json").read_text())
        checkpoints = [str(out / "checkpoints" / name) for name in dict.fromkeys(selection["checkpoints"].values())]
        queries = [str(out / "queries" / f"valid_{t}.jsonl") for t in sorted(q.value for q in QueryType)]
        assert manifest["inputs"] == checkpoints + queries

    def test_training_manifests_record_what_they_read(self, pipeline):
        out = pipeline["out"]
        ckpts, queries = out / "checkpoints", out / "queries"
        train = [str(queries / f"train_{t.value}.jsonl") for t in TRAINABLE_TYPES]
        valid = [str(queries / f"valid_{t.value}.jsonl") for t in QueryType]  # finetune.combos is set
        expected = {
            "stage1": [str(out / "dataset")],
            "stage2": [str(out / "dataset"), str(ckpts / "stage1.kgtc")],
            "finetune": [str(out / "dataset"), str(ckpts / "stage2.kgtc"), *train, *valid],
        }
        for name, inputs in expected.items():
            manifest = json.loads((ckpts / f"{name}.manifest.json").read_text())
            assert manifest["inputs"] == inputs, name
            assert all(Path(p).exists() for p in inputs), name

    def test_finetune_rerun_drops_the_earlier_selection(self, pipeline, tmp_path):
        out = tmp_path / "rerun"
        for part in ("dataset", "queries"):
            shutil.copytree(pipeline["out"] / part, out / part)
        base = ["--config", str(pipeline["config"]), "--out", str(out)]
        ckpts = out / "checkpoints"
        assert main(base + ["finetune", "--fresh", "--combos", "1p"]) == 0
        assert (ckpts / "selection.json").exists() and list(ckpts.glob("finetune_best_*.kgtc"))
        assert main(base + ["--seed", "5", "finetune", "--fresh", "--combos", ""]) == 0
        assert not (ckpts / "selection.json").exists() and not list(ckpts.glob("finetune_best_*.kgtc"))
        assert main(base + ["evaluate", "--split", "valid"]) == 0
        manifest = json.loads((out / "metrics" / "valid.manifest.json").read_text())
        assert [p for p in manifest["inputs"] if p.endswith(".kgtc")] == [str(ckpts / "finetune_multi.kgtc")]
        rows = json.loads((out / "metrics" / "valid.json").read_text())["rows"]
        explicit = tmp_path / "explicit"
        assert main(["--config", str(pipeline["config"]), "--out", str(explicit), "evaluate", "--split", "valid",
                     "--queries", str(out / "queries"), "--checkpoint", str(ckpts / "finetune_multi.kgtc")]) == 0
        assert rows == json.loads((explicit / "metrics" / "valid.json").read_text())["rows"]

    def test_interpret_command(self, pipeline, capsys):
        base = ["--config", str(pipeline["config"]), "--out", str(pipeline["out"])]
        qfile = pipeline["out"] / "queries" / "valid_2p.jsonl"
        assert main(base + ["interpret", "--query-file", str(qfile), "--top", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        for line in lines:
            record = json.loads(line)
            assert record["type"] == "2p"
            assert len(record["intermediates"]) == 1
            assert len(record["intermediates"][0]) == 3

    def test_interpret_empty_query_file(self, pipeline, tmp_path, capsys):
        base = ["--config", str(pipeline["config"]), "--out", str(pipeline["out"])]
        qfile = tmp_path / "empty.jsonl"
        qfile.write_text("")
        ckpt = pipeline["out"] / "checkpoints" / "stage2.kgtc"
        assert main(base + ["interpret", "--query-file", str(qfile), "--checkpoint", str(ckpt)]) == 0
        assert capsys.readouterr().out == ""

    def test_interpret_rejects_union_file(self, pipeline, capsys):
        base = ["--config", str(pipeline["config"]), "--out", str(pipeline["out"])]
        qfile = pipeline["out"] / "queries" / "valid_2u.jsonl"
        assert main(base + ["interpret", "--query-file", str(qfile)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_evaluate_with_explicit_checkpoint(self, pipeline, tmp_path, capsys):
        base = ["--config", str(pipeline["config"]), "--out", str(pipeline["out"])]
        ckpt = pipeline["out"] / "checkpoints" / "stage2.kgtc"
        rc = main(base + ["evaluate", "--split", "valid", "--checkpoint", str(ckpt), "--queries", str(pipeline["out"] / "queries")])
        assert rc == 0
        assert "mean" in capsys.readouterr().out

    def test_shapes_missing_from_selection_use_multi_task_checkpoint(self, pipeline, tmp_path, capsys):
        out = tmp_path / "partial_selection"
        shutil.copytree(pipeline["out"] / "checkpoints", out / "checkpoints")
        selection = {"checkpoints": {"1p": "finetune_best_1p.kgtc"}}  # every other shape is left out
        (out / "checkpoints" / "selection.json").write_text(json.dumps(selection))
        queries = pipeline["out"] / "queries"
        base = ["--config", str(pipeline["config"]), "--out", str(out)]
        assert main(base + ["evaluate", "--split", "valid", "--queries", str(queries)]) == 0
        rows = json.loads((out / "metrics" / "valid.json").read_text())["rows"]
        assert set(rows) == {"1p", "2p", "3p", "2i", "3i", "ip", "pi", "2u", "up", "mean"}
        multi = out / "checkpoints" / "finetune_multi.kgtc"
        explicit = tmp_path / "explicit"
        assert main(["--config", str(pipeline["config"]), "--out", str(explicit), "evaluate", "--split", "valid",
                     "--queries", str(queries), "--checkpoint", str(multi)]) == 0
        assert rows["2p"] == json.loads((explicit / "metrics" / "valid.json").read_text())["rows"]["2p"]
        capsys.readouterr()
        assert main(base + ["interpret", "--query-file", str(queries / "valid_2p.jsonl"), "--top", "2"]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 3

    def test_seed_flag_overrides_config(self, pipeline, tmp_path):
        out = tmp_path / "out_seed"
        base = ["--config", str(pipeline["config"]), "--seed", "99", "--out", str(out)]
        raw = pipeline["root"] / "raw"
        assert main(base + ["ingest", "--data", str(raw)]) == 0
        manifest = json.loads((out / "dataset" / "manifest.json").read_text())
        assert manifest["seed"] == 99


def test_gradcheck_prints_one_line_per_check(capsys):
    from kgt.gradcheck import OP_CASES

    assert main(["gradcheck"]) == 0
    lines = capsys.readouterr().out.splitlines()
    names = [line.split()[0] for line in lines[:-1]]
    assert names == [case.name for case in OP_CASES] + ["moe_ffn_top2", "model_end_to_end"]
    assert {"matmul", "attention", "attention_one_head"} <= set(names) and "matmul_batched" not in names
    assert all(line.endswith(" PASS") for line in lines[:-1])
    assert lines[-1] == f"all {len(names)} gradient checks passed"


class TestCliErrors:
    @pytest.mark.parametrize(
        "vocabulary, fault",
        [
            (False, "expected 3 tab-separated fields, got 2"),
            (True, "expected 3 tab-separated fields, got 2"),
            (False, "duplicate triple (ent017, rel2, ent024)"),
            (True, "duplicate triple (e17, r2, e24)"),
        ],
        ids=["False", "True", "tokens-duplicate", "vocabulary-duplicate"],
    )
    def test_bad_field_count_in_triples(self, tmp_path, capsys, vocabulary, fault):
        # token triples (no vocabulary files) and id triples share one field
        # splitter, and both name the file and line of a bad triple
        raw = tmp_path / "raw"
        if vocabulary:
            write_toy_dataset(raw, toy_split(seed=30))
        else:
            write_token_dataset(raw, toy_split(seed=30))
        path = raw / "valid.txt"
        lines = path.read_text().splitlines()
        lines[2] = lines[0] if fault.startswith("duplicate") else lines[2].replace("\t", " ", 1)
        path.write_text("\n".join(lines) + "\n")
        assert main(["--out", str(tmp_path / "out"), "ingest", "--data", str(raw)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:3: {fault}")

    @pytest.mark.parametrize("layout", ["tokens", "vocabulary", "ids"])
    def test_empty_field_stops_at_its_line(self, tmp_path, capsys, layout):
        # every layout is split by one parser, which stops at the line before anything is written
        raw = tmp_path / "raw"
        if layout == "tokens":
            write_token_dataset(raw, toy_split(seed=30))
        else:
            write_toy_dataset(raw, toy_split(seed=30), tokens=layout == "vocabulary")
        path = raw / "train.txt"
        lines = path.read_text().splitlines()
        head, _, tail = lines[2].split("\t")
        lines[2] = f"{head}\t\t{tail}"
        path.write_text("\n".join(lines) + "\n")
        assert main(["--out", str(tmp_path / "out"), "ingest", "--data", str(raw)]) == 1
        assert capsys.readouterr().err == f"error: {path}:3: empty field\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["pretrain", "finetune"])
    def test_checkpoint_of_another_vocabulary(self, pipeline, tmp_path, capsys, command):
        # the pipeline's checkpoints score 50 entities; this dataset has 80
        out = tmp_path / "wider"
        write_toy_dataset(out / "dataset", toy_split(seed=30, entities=80))
        ckpt = pipeline["out"] / "checkpoints" / "stage1.kgtc"
        if command == "pretrain":
            (out / "checkpoints").mkdir()
            ckpt = shutil.copy(ckpt, out / "checkpoints" / "stage1.kgtc")
            args = ["pretrain", "--stage", "2"]
        else:
            args = ["finetune", "--from", str(ckpt)]
        assert main(["--config", str(pipeline["config"]), "--out", str(out)] + args) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {ckpt}: checkpoint has 50 entities and 5 relations, the dataset 80 and 5")
        assert sorted(p.name for p in out.rglob("*.kgtc")) == (["stage1.kgtc"] if command == "pretrain" else [])

    def test_evaluate_without_checkpoint(self, pipeline, tmp_path, capsys):
        out = tmp_path / "empty_out"
        (out / "queries").mkdir(parents=True)
        src = pipeline["out"] / "queries" / "valid_1p.jsonl"
        (out / "queries" / "valid_1p.jsonl").write_bytes(src.read_bytes())
        rc = main(["--config", str(pipeline["config"]), "--out", str(out), "evaluate", "--split", "valid"])
        assert rc == 1
        assert "no checkpoint" in capsys.readouterr().err

    def test_non_finite_gradient_is_reported(self, pipeline, tmp_path, capsys, monkeypatch):
        import kgt.train

        clip = kgt.train.clip_global_norm

        def poisoned_clip(params, max_norm):
            next(iter(params.values())).grad[...] = np.inf
            return clip(params, max_norm)

        monkeypatch.setattr(kgt.train, "clip_global_norm", poisoned_clip)
        out = tmp_path / "inf_out"
        shutil.copytree(pipeline["out"] / "dataset", out / "dataset")
        rc = main(["--config", str(pipeline["config"]), "--out", str(out), "pretrain", "--stage", "1"])
        assert rc == 1
        assert "error: non-finite gradient norm" in capsys.readouterr().err
        assert not list(out.rglob("*.kgtc"))

    def test_combo_shape_without_train_queries(self, pipeline, tmp_path, capsys):
        out = tmp_path / "no_2p"
        shutil.copytree(pipeline["out"] / "dataset", out / "dataset")
        shutil.copytree(pipeline["out"] / "queries", out / "queries")
        (out / "queries" / "train_2p.jsonl").unlink()
        argv = ["--config", str(pipeline["config"]), "--out", str(out), "finetune", "--fresh"]
        rc = main(argv + ["--combos", "1p|1p,2p"])
        assert rc == 1
        assert "error: finetune.combos: no train queries for 2p" in capsys.readouterr().err
        assert not list(out.rglob("*.kgtc"))  # checked before multi-task training

    @pytest.mark.parametrize(
        "text, line",
        [(b'{"checkpoints":\n  {"1p": x}}\n', 2), (b"[]\n", 1), (b'{"checkpoints": {"1p": 3}}\n', 1), (b"{}\n\xff\n", 2)],
        ids=["bad_json", "not_an_object", "name_not_a_string", "not_utf8"],
    )
    def test_malformed_selection_json(self, pipeline, tmp_path, capsys, text, line):
        out = tmp_path / "bad_selection"
        shutil.copytree(pipeline["out"] / "queries", out / "queries")
        path = out / "checkpoints" / "selection.json"
        path.parent.mkdir()
        path.write_bytes(text)
        rc = main(["--config", str(pipeline["config"]), "--out", str(out), "evaluate", "--split", "valid"])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {path}:{line}:")

    def test_missing_queries(self, pipeline, tmp_path, capsys):
        out = tmp_path / "no_queries"
        rc = main(["--config", str(pipeline["config"]), "--out", str(out), "evaluate", "--split", "valid"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_query_record(self, pipeline, tmp_path, capsys):
        out = tmp_path / "bad_queries"
        (out / "queries").mkdir(parents=True)
        path = out / "queries" / "valid_1p.jsonl"
        path.write_text('{"type": "1p", "anchors": [null], "relations": [0], "answers_train": [], "answers_valid": [0], "answers_test": [0]}\n')
        rc = main(["--config", str(pipeline["config"]), "--out", str(out), "evaluate", "--split", "valid"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:1:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["evaluate", "interpret"])
    def test_out_of_range_query_id(self, pipeline, tmp_path, capsys, command):
        # anchor 50 is the mask-token id of the 50-entity model
        path = tmp_path / "queries" / "valid_2p.jsonl"
        path.parent.mkdir()
        path.write_text(
            '{"type": "2p", "anchors": [0], "relations": [0, 0], "answers_train": [], "answers_valid": [1], "answers_test": [1]}\n'
            '{"type": "2p", "anchors": [50], "relations": [0, 0], "answers_train": [], "answers_valid": [1], "answers_test": [1]}\n'
        )
        ckpt = pipeline["out"] / "checkpoints" / "stage2.kgtc"
        args = {
            "evaluate": ["evaluate", "--split", "valid", "--queries", str(path.parent)],
            "interpret": ["interpret", "--query-file", str(path)],
        }[command]
        rc = main(["--config", str(pipeline["config"]), "--out", str(tmp_path / "out")] + args + ["--checkpoint", str(ckpt)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:2:")
        assert "Traceback" not in err
        assert not (tmp_path / "out" / "metrics").exists()

    @pytest.mark.parametrize("fill", [-1, 50, 55])
    def test_out_of_range_fill(self, pipeline, capsys, fill):
        # -1 is FREE_SLOT and 50 the mask-token row of the 50-entity model
        ckpt = pipeline["out"] / "checkpoints" / "stage2.kgtc"
        qfile = pipeline["out"] / "queries" / "valid_2p.jsonl"
        args = ["interpret", "--query-file", str(qfile), "--checkpoint", str(ckpt), "--fill", str(fill)]
        assert main(["--config", str(pipeline["config"]), "--out", str(pipeline["out"])] + args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: fill entity {fill} is outside 0..49\n"

    def test_config_that_is_a_directory(self, tmp_path, capsys):
        assert main(["--config", str(tmp_path), "--out", str(tmp_path / "out"), "gen-queries"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(tmp_path) in err

    def test_out_that_is_a_file(self, tmp_path, capsys):
        raw = write_toy_dataset(tmp_path / "raw", toy_split(seed=30))
        out = tmp_path / "out"
        out.write_text("")
        assert main(["--out", str(out), "ingest", "--data", str(raw)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err

    def test_bad_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("model.width = 3\n")
        rc = main(["--config", str(cfg), "gradcheck"])
        assert rc == 1
        assert "model.width" in capsys.readouterr().err

    @pytest.mark.parametrize("heads", ["0", "-4"])
    def test_heads_below_one(self, tmp_path, capsys, heads):
        cfg = tmp_path / "heads.cfg"
        cfg.write_text(f"model.heads = {heads}\n")
        assert main(["--config", str(cfg), "--out", str(tmp_path / "out"), "gen-queries"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "need heads >= 1" in err

    def test_finetune_without_pretrain(self, pipeline, tmp_path, capsys):
        out = tmp_path / "ft_out"
        (out / "queries").mkdir(parents=True)
        shutil.copytree(pipeline["out"] / "dataset", out / "dataset")
        for name in ("train_1p.jsonl",):
            src = pipeline["out"] / "queries" / name
            (out / "queries" / name).write_bytes(src.read_bytes())
        rc = main(["--config", str(pipeline["config"]), "--out", str(out), "finetune"])
        assert rc == 1
        assert "pretrain" in capsys.readouterr().err


class TestDeterminismLight:
    def test_gen_queries_reproducible_across_runs(self, pipeline, tmp_path):
        # same config and dataset, two fresh output directories
        cfg = pipeline["config"]
        results = []
        for name in ("a", "b"):
            out = tmp_path / name
            (out / "dataset").mkdir(parents=True)
            for f in (pipeline["out"] / "dataset").iterdir():
                if f.suffix == ".txt":
                    (out / "dataset" / f.name).write_bytes(f.read_bytes())
            assert main(["--config", str(cfg), "--out", str(out), "gen-queries"]) == 0
            results.append((out / "queries" / "valid_up.jsonl").read_bytes())
        assert results[0] == results[1]
