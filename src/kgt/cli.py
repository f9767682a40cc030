"""Command-line pipeline: ingest, gen-queries, pretrain, finetune, evaluate,
interpret, gradcheck.

Every command reads the same flat config (``--config``), honors ``--seed``
and ``--out``, and writes a manifest (config hash, seed, library versions,
inputs/outputs) next to whatever it produces.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace as dc_replace
from pathlib import Path

import numpy as np

from . import __version__
from .checkpoint import load_checkpoint, save_checkpoint
from .config import load_config
from .errors import CheckpointError, ConfigError, KgtError, ParseError
from .evaluation import evaluate, interpret, merge_metrics
from .gradcheck import run_all
from .graph import SPLITS, SplitDataset, load_split, read_lines, write_atomic, write_jsonl, write_token_triples, write_vocab
from .model import Model
from .queries import (
    TRAINABLE_TYPES,
    QueryType,
    generate_queries,
    read_queries,
    write_queries,
)
from .train import Stage, combinatorial_finetune, finetune, pretrain


def _write_manifest(path: Path, command: str, args: argparse.Namespace, inputs: list, outputs: list) -> None:
    manifest = {
        "command": command,
        "config": args.config,
        "config_sha256": args.resolved_config.sha256,
        "seed": args.resolved_config.seed,
        "versions": {"kgt": __version__, "numpy": np.__version__},
        "inputs": [str(p) for p in inputs],
        "outputs": [str(p) for p in outputs],
    }
    write_atomic(path, json.dumps(manifest, sort_keys=True, indent=2) + "\n")


def _dataset_dir(args) -> Path:
    dataset_dir = Path(args.out) / "dataset"
    return dataset_dir if (dataset_dir / "train.txt").exists() else Path(args.resolved_config.data_dir)


def _load_for(path: Path, split: SplitDataset) -> Model:
    """The checkpoint at ``path``, which must have ``split``'s entity and relation counts."""
    model = load_checkpoint(path)
    have = (model.config.entity_count, model.config.relation_count)
    want = (split.entity_count, split.relation_count)
    if have != want:
        raise CheckpointError(f"{path}: checkpoint has {have[0]} entities and {have[1]} relations, the dataset {want[0]} and {want[1]}")
    return model


def cmd_ingest(args) -> int:
    data_dir = Path(args.data) if args.data else Path(args.resolved_config.data_dir)
    out_dir = Path(args.out) / "dataset"
    split = load_split(data_dir)
    entities = split.entities or [str(i) for i in range(split.entity_count)]
    relations = split.relations or [str(i) for i in range(split.relation_count)]
    write_vocab(out_dir / "entities.txt", entities)
    write_vocab(out_dir / "relations.txt", relations)
    # normalized layout: token triples next to their vocabularies, disjoint increments
    increments = dict(zip(SPLITS, split.increments()))
    for name, triples in increments.items():
        write_token_triples(out_dir / f"{name}.txt", triples, entities, relations)
    outputs = [out_dir / f"{name}.txt" for name in ("entities", "relations", *SPLITS)]
    _write_manifest(out_dir / "manifest.json", "ingest", args, [data_dir], outputs)
    counts = "/".join(str(len(triples)) for triples in increments.values())
    print(f"ingested {split.entity_count} entities, {split.relation_count} relations, {counts} train/valid/test triples -> {out_dir}")
    return 0


def cmd_gen_queries(args) -> int:
    config = args.resolved_config
    data_dir = _dataset_dir(args)
    split = load_split(data_dir)
    out_dir = Path(args.out) / "queries"
    outputs = []
    for ordinal, split_name in enumerate(SPLITS):
        types = TRAINABLE_TYPES if split_name == "train" else tuple(QueryType)
        count = getattr(config, f"queries_{split_name}_count")
        for type_index, qtype in enumerate(types):
            rng = np.random.default_rng([config.seed, 11, ordinal, type_index])
            instances = generate_queries(
                split, qtype, count, rng, split_for=split_name, max_answers=config.queries_max_answers
            )
            path = out_dir / f"{split_name}_{qtype.value}.jsonl"
            write_queries(path, instances)
            outputs.append(path)
            print(f"wrote {len(instances)} {qtype.value} queries for {split_name} -> {path}")
    _write_manifest(out_dir / "manifest.json", "gen-queries", args, [data_dir], outputs)
    return 0


def _epoch_printer(stage: str, total: int):
    def log(record: dict) -> None:
        print(
            f"[{stage}] epoch {record['epoch'] + 1}/{total} "
            f"loss {record['loss']:.4f} grad norm {record['grad_norm']:.3f} "
            f"lr {record['lr']:.2e} ({record['seconds']:.1f}s)"
        )

    return log


def cmd_pretrain(args) -> int:
    config = args.resolved_config
    inputs = [_dataset_dir(args)]
    split = load_split(inputs[0])
    ckpt_dir = Path(args.out) / "checkpoints"
    stage_name = f"stage{args.stage}"
    stage1_path = ckpt_dir / "stage1.kgtc"
    out_path = ckpt_dir / f"{stage_name}.kgtc"

    if args.stage == 2 and not args.fresh and stage1_path.exists():
        model = _load_for(stage1_path, split)
        inputs.append(stage1_path)
    else:
        if args.stage == 2 and not args.fresh:
            print("no stage1 checkpoint found; starting stage 2 from fresh parameters")
        model = Model.init(config.model_config(split.entity_count, split.relation_count), seed=config.seed)
    train_config = config.train_config(Stage(stage_name))
    records = pretrain(model, split.train, train_config, log=_epoch_printer(stage_name, train_config.epochs))
    save_checkpoint(model, out_path)
    log_path = Path(args.out) / "logs" / f"{stage_name}.jsonl"
    write_jsonl(log_path, records)
    _write_manifest(ckpt_dir / f"{stage_name}.manifest.json", f"pretrain --stage {args.stage}", args, inputs, [out_path, log_path])
    print(f"saved {out_path}")
    return 0


def _query_paths(args, split_name: str, types) -> dict[QueryType, Path]:
    queries_dir = Path(args.queries) if args.queries else Path(args.out) / "queries"
    paths = {qtype: queries_dir / f"{split_name}_{qtype.value}.jsonl" for qtype in types}
    paths = {qtype: path for qtype, path in paths.items() if path.exists()}
    if not paths:
        raise FileNotFoundError(f"no {split_name} query files under {queries_dir}")
    return paths


def _load_query_dir(args, split_name: str, types, split: SplitDataset, inputs: list) -> dict[QueryType, list]:
    """The queries of each shape's file, whose paths join ``inputs``."""
    paths = _query_paths(args, split_name, types)
    inputs.extend(paths.values())
    return {qtype: read_queries(path, split.entity_count, split.relation_count) for qtype, path in paths.items()}


def cmd_finetune(args) -> int:
    config = args.resolved_config
    inputs = [_dataset_dir(args)]
    split = load_split(inputs[0])
    ckpt_dir = Path(args.out) / "checkpoints"

    if args.fresh:
        model = Model.init(config.model_config(split.entity_count, split.relation_count), seed=config.seed)
    else:
        source = None
        if args.from_checkpoint:
            source = Path(args.from_checkpoint)
        else:
            for candidate in (ckpt_dir / "stage2.kgtc", ckpt_dir / "stage1.kgtc"):
                if candidate.exists():
                    source = candidate
                    break
        if source is None:
            raise FileNotFoundError("no pre-trained checkpoint found; run pretrain or pass --fresh")
        model = _load_for(source, split)
        inputs.append(source)

    train_sets = _load_query_dir(args, "train", TRAINABLE_TYPES, split, inputs)
    combos = config.combos()
    if args.combos is not None:
        combos = dc_replace(config, finetune_combos=args.combos).combos()
    trained = {t.value for t, queries in train_sets.items() if queries}
    untrained = sorted({t.value for combo in combos for t in combo} - trained)
    if untrained:
        raise ConfigError(f"finetune.combos: no train queries for {', '.join(untrained)}")
    train_config = config.train_config(Stage.FINETUNE)
    records = finetune(model, train_sets, train_config, log=_epoch_printer("finetune", train_config.epochs))
    multi_path = ckpt_dir / "finetune_multi.kgtc"
    save_checkpoint(model, multi_path)
    for stale in [ckpt_dir / "selection.json", *ckpt_dir.glob("finetune_best_*.kgtc")]:
        stale.unlink(missing_ok=True)  # an earlier run's picks, which no longer start from this model
    outputs = [multi_path]

    if combos:
        valid_sets = _load_query_dir(args, "valid", tuple(QueryType), split, inputs)
        eval_types = sorted(valid_sets.keys(), key=lambda t: t.value)

        def validate(candidate: Model, qtype: QueryType) -> float:
            table = evaluate(candidate, {qtype: valid_sets[qtype]}, "valid", ks=(3,))
            row = table.rows.get(qtype.value)
            return row["hits@3"] if row else 0.0

        candidates, selection = combinatorial_finetune(
            model, train_sets, combos, train_config, validate, eval_types
        )
        checkpoints = {}
        for qtype in eval_types:
            label = selection["chosen"][qtype.value]
            path = ckpt_dir / f"finetune_best_{qtype.value}.kgtc"
            save_checkpoint(candidates[label], path)
            checkpoints[qtype.value] = path.name
            outputs.append(path)
        selection["checkpoints"] = checkpoints
        selection_path = ckpt_dir / "selection.json"
        write_atomic(selection_path, json.dumps(selection, sort_keys=True, indent=2) + "\n")
        outputs.append(selection_path)
        for qtype in eval_types:
            print(f"best for {qtype.value}: {selection['chosen'][qtype.value]}")

    log_path = Path(args.out) / "logs" / "finetune.jsonl"
    write_jsonl(log_path, records)
    outputs.append(log_path)
    _write_manifest(ckpt_dir / "finetune.manifest.json", "finetune", args, inputs, outputs)
    print(f"saved {multi_path}")
    return 0


def _models_for_evaluation(args, types) -> tuple[dict[QueryType, Model], list[Path]]:
    """One model per query shape, and the checkpoints read: ``--checkpoint``
    for every shape, else the shape's pick in ``selection.json``, else the
    first checkpoint found of ``finetune_multi.kgtc`` (the candidate every
    selection starts from), ``stage2.kgtc`` and ``stage1.kgtc``."""
    ckpt_dir = Path(args.out) / "checkpoints"
    selection_path = ckpt_dir / "selection.json"
    chosen = {}
    if not args.checkpoint and selection_path.exists():
        try:
            selection = json.loads("\n".join(read_lines(selection_path)))
        except json.JSONDecodeError as exc:
            raise ParseError(selection_path, exc.lineno, f"bad JSON: {exc.msg}") from None
        chosen = selection.get("checkpoints", {}) if isinstance(selection, dict) else None
        if not isinstance(chosen, dict) or not all(isinstance(name, str) for name in chosen.values()):
            raise ParseError(selection_path, 1, 'expected {"checkpoints": {shape: file name}}')
    names = ("finetune_multi.kgtc", "stage2.kgtc", "stage1.kgtc")
    found = (ckpt_dir / name for name in names if (ckpt_dir / name).exists())
    fallback = Path(args.checkpoint) if args.checkpoint else next(found, None)
    cache: dict[Path, Model] = {fallback: load_checkpoint(fallback)} if args.checkpoint else {}
    models = {}
    for qtype in types:
        path = ckpt_dir / chosen[qtype.value] if qtype.value in chosen else fallback
        if path is None:
            raise FileNotFoundError(f"no checkpoint found under {ckpt_dir}; pass --checkpoint")
        if path not in cache:
            cache[path] = load_checkpoint(path)
        models[qtype] = cache[path]
    return models, list(cache)


def cmd_evaluate(args) -> int:
    config = args.resolved_config
    paths = _query_paths(args, args.split, tuple(QueryType))
    types = sorted(paths, key=lambda t: t.value)
    for path in paths.values():
        read_queries(path)  # a malformed file is reported before the checkpoint lookup
    models, checkpoints = _models_for_evaluation(args, types)
    rank_dump: list | None = [] if args.dump_ranks else None
    tables = []
    for qtype, model in models.items():
        queries = read_queries(paths[qtype], model.config.entity_count, model.config.relation_count)
        tables.append(evaluate(model, {qtype: queries}, args.split, ks=config.eval_ks, rank_dump=rank_dump))
    table = merge_metrics(tables)
    metrics_dir = Path(args.out) / "metrics"
    json_path = metrics_dir / f"{args.split}.json"
    text_path = metrics_dir / f"{args.split}.txt"
    write_atomic(json_path, table.to_json())
    write_atomic(text_path, table.to_text())
    outputs = [json_path, text_path]
    if rank_dump is not None:
        dump_path = metrics_dir / f"ranks_{args.split}.jsonl"
        write_jsonl(dump_path, rank_dump)
        outputs.append(dump_path)
    inputs = [*checkpoints, *(paths[qtype] for qtype in types)]
    _write_manifest(metrics_dir / f"{args.split}.manifest.json", f"evaluate --split {args.split}", args, inputs, outputs)
    print(table.to_text(), end="")
    return 0


def cmd_interpret(args) -> int:
    instances = read_queries(args.query_file)
    models, _ = _models_for_evaluation(args, [inst.query.query_type for inst in instances])
    if instances:  # again, with the checkpoint's vocabulary sizes
        config = next(iter(models.values())).config
        instances = read_queries(args.query_file, config.entity_count, config.relation_count)
    for inst in instances:
        assignments = interpret(
            models[inst.query.query_type], inst.query, fill=args.fill, top=args.top
        )
        record = {
            **inst.query.record(),
            "fill": args.fill,
            "intermediates": [
                [{"entity": e, "score": round(s, 6)} for e, s in slot] for slot in assignments
            ],
        }
        print(json.dumps(record, sort_keys=True))
    return 0


def cmd_gradcheck(args) -> int:
    results = run_all()
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"{result.name:32s} max_err {result.max_error:.3e} tol {result.tolerance:.0e} {status}")
    failed = sum(not result.passed for result in results)
    if failed:
        print(f"{failed} gradient checks failed")
        return 1
    print(f"all {len(results)} gradient checks passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kgt", description=__doc__)
    parser.add_argument("--config", help="path to a key=value config file")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--out", default="out", help="output directory (default: out)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="normalize a raw triple dataset")
    p.add_argument("--data", help="raw dataset directory (default: config data.dir)")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("gen-queries", help="sample query sets with answers")
    p.set_defaults(func=cmd_gen_queries)

    p = sub.add_parser("pretrain", help="masked pre-training")
    p.add_argument("--stage", type=int, choices=(1, 2), required=True)
    p.add_argument("--fresh", action="store_true", help="stage 2 only: ignore the stage 1 checkpoint")
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("finetune", help="fine-tune on generated queries")
    p.add_argument("--from", dest="from_checkpoint", help="checkpoint to start from")
    p.add_argument("--fresh", action="store_true", help="skip pre-training (random init)")
    p.add_argument("--combos", help="task combinations, e.g. '1p|1p,2p' (overrides config)")
    p.add_argument("--queries", help="query directory (default: OUT/queries)")
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("evaluate", help="filtered ranking metrics")
    p.add_argument("--split", choices=("valid", "test"), required=True)
    p.add_argument("--checkpoint", help="evaluate this checkpoint for every type")
    p.add_argument("--queries", help="query directory (default: OUT/queries)")
    p.add_argument("--dump-ranks", action="store_true", help="write per-answer ranks jsonl")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("interpret", help="inspect intermediate-node assignments")
    p.add_argument("--query-file", required=True)
    p.add_argument("--fill", type=int, help="clamp the target slot to this entity id")
    p.add_argument("--top", type=int, default=10)
    p.add_argument("--checkpoint", help="checkpoint to interpret with")
    p.set_defaults(func=cmd_interpret)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        overrides = {}
        if args.seed is not None:
            overrides["seed"] = str(args.seed)
        args.resolved_config = load_config(args.config, overrides)
        return args.func(args)
    except (KgtError, OSError, ValueError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
